//! The per-deployment crypto provider and per-component handles.
//!
//! A [`CryptoProvider`] is created once per deployment from a master seed
//! and shared (via `Arc`) by every simulated component. Each component gets
//! a [`CryptoHandle`] bound to its own identity: the handle can sign and
//! MAC only as that identity (mirroring "byzantine components cannot
//! impersonate honest components") but can verify messages from anyone.
//!
//! A handle is nothing but that identity and the shared provider: every
//! key schedule it signs, MACs or verifies with is read from the
//! provider's [`KeyStore`], which holds each one once (see the
//! [`crate::keys`] module docs). The aggregate batch check is one
//! fold-and-compare per batch over expected signatures computed from
//! those schedules.

use crate::aggregate::{bisect_mismatches, AggregateSignature};
use crate::keys::KeyStore;
use crate::signature::SimSigner;
use sbft_types::{ComponentId, Digest, MacTag, Signature};
use std::sync::Arc;

/// Deployment-wide cryptographic material: the trusted [`KeyStore`] and
/// its key-schedule slots.
#[derive(Debug)]
pub struct CryptoProvider {
    store: KeyStore,
}

/// A component-scoped handle to the deployment's cryptographic material.
#[derive(Clone)]
pub struct CryptoHandle {
    me: ComponentId,
    provider: Arc<CryptoProvider>,
}

impl CryptoProvider {
    /// Creates the provider for a deployment.
    #[must_use]
    pub fn new(master_seed: u64) -> Arc<Self> {
        Arc::new(CryptoProvider {
            store: KeyStore::new(master_seed),
        })
    }

    /// The underlying trusted key registry.
    #[must_use]
    pub fn key_store(&self) -> &KeyStore {
        &self.store
    }

    /// Creates the handle for `component`.
    #[must_use]
    pub fn handle(self: &Arc<Self>, component: ComponentId) -> CryptoHandle {
        CryptoHandle {
            me: component,
            provider: Arc::clone(self),
        }
    }

    /// Verifies a digital signature claimed to be from `signer`.
    #[must_use]
    pub fn verify(&self, signer: ComponentId, digest: &Digest, sig: &Signature) -> bool {
        SimSigner::verify(&self.store, signer, digest, sig)
    }

    /// The signature `signer` would produce over `digest` (the expected
    /// value recomputed during verification).
    #[must_use]
    fn expected_signature(&self, signer: ComponentId, digest: &Digest) -> Signature {
        SimSigner::sign_with_schedule(&self.store.signing_schedule_of(signer), digest)
    }
    /// Verifies an [`AggregateSignature`] over a batch of
    /// `(signer, digest)` claims in **one** comparison: the expected
    /// per-claim signatures are recomputed from the stored schedules, folded,
    /// and compared against the aggregate. Returns `true` exactly when
    /// every individual signature folded into `aggregate` was valid (see
    /// the [`crate::aggregate`] module docs for the modeling caveat).
    #[must_use]
    pub fn verify_aggregate(
        &self,
        claims: &[(ComponentId, Digest)],
        aggregate: &AggregateSignature,
    ) -> bool {
        let mut expected = AggregateSignature::identity();
        for (signer, digest) in claims {
            expected.fold(&self.expected_signature(*signer, digest));
        }
        expected == *aggregate
    }

    /// The bisecting fallback for a failed aggregate check: recomputes the
    /// expected signatures once, then locates the offending claims by
    /// sub-aggregate bisection. Returns the indices (in `claims` order)
    /// whose signatures do not verify.
    #[must_use]
    pub fn locate_invalid_signatures(
        &self,
        claims: &[(ComponentId, Digest, Signature)],
    ) -> Vec<usize> {
        let expected: Vec<Signature> = claims
            .iter()
            .map(|(signer, digest, _)| self.expected_signature(*signer, digest))
            .collect();
        let provided: Vec<Signature> = claims.iter().map(|(_, _, sig)| *sig).collect();
        bisect_mismatches(&expected, &provided)
    }
}

impl CryptoHandle {
    /// The identity this handle signs as.
    #[must_use]
    pub fn id(&self) -> ComponentId {
        self.me
    }

    /// Signs a digest with this component's secret key (digital signature,
    /// provides non-repudiation), under its schedule in the key store.
    #[must_use]
    pub fn sign(&self, digest: &Digest) -> Signature {
        self.provider.expected_signature(self.me, digest)
    }

    /// Verifies a digital signature from `signer` over `digest`.
    #[must_use]
    pub fn verify(&self, signer: ComponentId, digest: &Digest, sig: &Signature) -> bool {
        self.provider.verify(signer, digest, sig)
    }

    /// Computes a MAC over `digest` for the channel between this component
    /// and `to`, using the pairwise secret established at setup.
    #[must_use]
    pub fn mac_for(&self, to: ComponentId, digest: &Digest) -> MacTag {
        self.provider
            .store
            .mac_schedule_of(self.me, to)
            .mac(digest.as_bytes())
    }

    /// Computes a MAC over `digest` for a broadcast to the whole group.
    ///
    /// PBFT broadcasts carry an *authenticator* — one MAC per receiver. To
    /// avoid shipping `n` MACs per simulated message we model the
    /// authenticator with a per-sender group key (the sender's self-channel
    /// key): the wire-size model still charges for the full authenticator,
    /// and verification still binds the message to the claimed sender.
    #[must_use]
    pub fn broadcast_mac(&self, digest: &Digest) -> MacTag {
        self.mac_for(self.me, digest)
    }

    /// Verifies a broadcast MAC claimed to come from `from`.
    #[must_use]
    pub fn verify_broadcast_mac(&self, from: ComponentId, digest: &Digest, tag: &MacTag) -> bool {
        self.provider
            .store
            .mac_schedule_of(from, from)
            .verify(digest.as_bytes(), tag)
    }

    /// Access to the shared provider (for certificate verification).
    #[must_use]
    pub fn provider(&self) -> &Arc<CryptoProvider> {
        &self.provider
    }
}

impl std::fmt::Debug for CryptoHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CryptoHandle({})", self.me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::digest_u64s;
    use crate::hmac::hmac_sha256;
    use sbft_types::{ClientId, ExecutorId, NodeId};

    fn digest(n: u64) -> Digest {
        digest_u64s("provider-test", &[n])
    }

    #[test]
    fn handles_sign_as_their_own_identity() {
        let provider = CryptoProvider::new(99);
        let node = provider.handle(ComponentId::Node(NodeId(0)));
        let verifier = provider.handle(ComponentId::Verifier);

        let sig = node.sign(&digest(1));
        assert!(verifier.verify(ComponentId::Node(NodeId(0)), &digest(1), &sig));
        assert!(!verifier.verify(ComponentId::Node(NodeId(1)), &digest(1), &sig));
    }

    #[test]
    fn debug_output_hides_the_master_seed() {
        let seed = 0x5EED_F00D_CAFE_D00D_u64;
        let printed = format!("{:?}", CryptoProvider::new(seed));
        assert!(printed.contains("<redacted>"), "{printed}");
        for shown in [seed.to_string(), format!("{seed:x}"), format!("{seed:X}")] {
            assert!(!printed.contains(&shown), "{printed} shows the seed");
        }
    }

    #[test]
    fn macs_work_between_the_right_pair_only() {
        let provider = CryptoProvider::new(99);
        let a = provider.handle(ComponentId::Node(NodeId(0)));
        let b = provider.handle(ComponentId::Node(NodeId(1)));
        let c = provider.handle(ComponentId::Node(NodeId(2)));

        let tag = a.mac_for(b.id(), &digest(7));
        // The channel key is symmetric: the receiver recomputes the tag.
        assert_eq!(b.mac_for(a.id(), &digest(7)), tag);
        assert_ne!(b.mac_for(a.id(), &digest(8)), tag);
        // A MAC for the (a, b) channel is not one for the (a, c) channel.
        assert_ne!(c.mac_for(a.id(), &digest(7)), tag);
    }

    #[test]
    fn provider_verify_matches_handle_verify() {
        let provider = CryptoProvider::new(5);
        let n = provider.handle(ComponentId::Node(NodeId(1)));
        let sig = n.sign(&digest(3));
        assert!(provider.verify(n.id(), &digest(3), &sig));
    }

    #[test]
    fn cached_schedules_produce_identical_results_to_fresh_derivation() {
        // Every path through a slot must be bit-identical to the one-shot
        // path it amortises, across repeated calls (empty slot, then
        // filled), for every kind of identity: the first and last slot of
        // each range, one past it, and the identities that never have one.
        let provider = CryptoProvider::new(31);
        let store = provider.key_store();
        let last_node = 1020;
        let last_client = (1 << 20) - 1;
        let identities = [
            ComponentId::Verifier,
            ComponentId::Storage,
            ComponentId::Cloud,
            ComponentId::Node(NodeId(0)),
            ComponentId::Node(NodeId(last_node)),
            ComponentId::Node(NodeId(last_node + 1)),
            ComponentId::Client(ClientId(0)),
            ComponentId::Client(ClientId(last_client)),
            ComponentId::Client(ClientId(last_client + 1)),
            ComponentId::Executor(ExecutorId(7)),
        ];
        let peer = ComponentId::Node(NodeId(1));
        for round in 0..2u64 {
            let d = digest(round);
            for id in identities {
                let handle = provider.handle(id);
                // Signature: slot == raw keyed one-shot HMAC under the
                // identity's seed, then the zero half.
                let sig = handle.sign(&d);
                let raw_key = store.seed_of(id);
                assert_eq!(sig.0[..32], hmac_sha256(&raw_key, d.as_bytes()).0, "{id}");
                assert_eq!(sig.0[32..], [0u8; 32], "{id}");
                assert!(provider.verify(id, &d, &sig), "{id}");
                // Group MAC: slot == raw keyed one-shot HMAC, and the
                // receiver's check reads the same slot.
                let tag = handle.broadcast_mac(&d);
                let raw_key = store.mac_key(id, id);
                assert_eq!(tag, hmac_sha256(&raw_key, d.as_bytes()), "{id}");
                assert!(provider.handle(peer).verify_broadcast_mac(id, &d, &tag));
                // Pairwise MAC, derived on use: the raw keyed HMAC too.
                let raw_key = store.mac_key(id, peer);
                assert_eq!(
                    handle.mac_for(peer, &d),
                    hmac_sha256(&raw_key, d.as_bytes()),
                    "{id}"
                );
            }
            let node = provider.handle(ComponentId::Node(NodeId(0)));
            let tag = node.broadcast_mac(&d);
            assert!(!node.verify_broadcast_mac(peer, &d, &tag));
        }
    }

    #[test]
    fn clones_sign_like_the_handle_they_were_taken_from() {
        let provider = CryptoProvider::new(8);
        let handle = provider.handle(ComponentId::Verifier);
        let early_clone = handle.clone();
        let sig = handle.sign(&digest(1));
        assert_eq!(handle.clone().sign(&digest(1)), sig);
        assert_eq!(early_clone.sign(&digest(1)), sig);
    }

    #[test]
    fn a_handle_is_small() {
        // Identity and provider: every client owns one (112 bytes while it
        // also carried its own signing schedule and a MAC-schedule block,
        // 232 while it carried its key pair too).
        assert!(std::mem::size_of::<CryptoHandle>() <= 24);
    }

    #[test]
    fn aggregate_accepts_all_valid_and_rejects_any_corruption() {
        let provider = CryptoProvider::new(77);
        let claims: Vec<(ComponentId, Digest, Signature)> = (0..10u32)
            .map(|i| {
                let id = ComponentId::Client(ClientId(i));
                let d = digest(u64::from(i));
                let sig = provider.handle(id).sign(&d);
                (id, d, sig)
            })
            .collect();
        let pairs: Vec<(ComponentId, Digest)> = claims.iter().map(|(c, d, _)| (*c, *d)).collect();
        let agg = AggregateSignature::from_signatures(claims.iter().map(|(_, _, s)| s));
        assert!(provider.verify_aggregate(&pairs, &agg));
        assert!(provider.locate_invalid_signatures(&claims).is_empty());

        // One corrupted signature flips the aggregate and is pinpointed.
        let mut bad = claims.clone();
        bad[6].2 .0[0] ^= 0x01;
        let bad_agg = AggregateSignature::from_signatures(bad.iter().map(|(_, _, s)| s));
        assert!(!provider.verify_aggregate(&pairs, &bad_agg));
        assert_eq!(provider.locate_invalid_signatures(&bad), vec![6]);

        // A wrong digest (signature over something else) is also caught.
        let mut resigned = claims.clone();
        resigned[2].2 = provider.handle(resigned[2].0).sign(&digest(999));
        let resigned_agg = AggregateSignature::from_signatures(resigned.iter().map(|(_, _, s)| s));
        assert!(!provider.verify_aggregate(&pairs, &resigned_agg));
        assert_eq!(provider.locate_invalid_signatures(&resigned), vec![2]);
    }

    #[test]
    fn a_flipped_byte_in_the_zero_half_is_refused_by_every_check() {
        // The last 32 bytes of a signature are zero; a signer that set
        // them would have a second valid encoding of one signature.
        let provider = CryptoProvider::new(41);
        let claims: Vec<(ComponentId, Digest, Signature)> = (0..7u32)
            .map(|i| {
                let id = ComponentId::Client(ClientId(i));
                let d = digest(u64::from(i));
                (id, d, provider.handle(id).sign(&d))
            })
            .collect();
        let pairs: Vec<(ComponentId, Digest)> = claims.iter().map(|(c, d, _)| (*c, *d)).collect();
        for (at, byte) in [(0, 32), (3, 47), (6, 63)] {
            let mut bad = claims.clone();
            bad[at].2 .0[byte] ^= 0x01;
            let (signer, d, sig) = &bad[at];
            assert!(
                !SimSigner::verify(provider.key_store(), *signer, d, sig),
                "byte {byte}"
            );
            let agg = AggregateSignature::from_signatures(bad.iter().map(|(_, _, s)| s));
            assert!(!provider.verify_aggregate(&pairs, &agg), "byte {byte}");
            assert_eq!(provider.locate_invalid_signatures(&bad), vec![at]);
        }
    }

    #[test]
    fn empty_aggregate_is_the_identity() {
        let provider = CryptoProvider::new(3);
        assert!(provider.verify_aggregate(&[], &AggregateSignature::identity()));
    }
}
