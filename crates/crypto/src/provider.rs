//! The per-deployment crypto provider and per-component handles.
//!
//! A [`CryptoProvider`] is created once per deployment from a master seed
//! and shared (via `Arc`) by every simulated component. Each component gets
//! a [`CryptoHandle`] bound to its own identity: the handle can sign and
//! MAC only as that identity (mirroring "byzantine components cannot
//! impersonate honest components") but can verify messages from anyone.
//!
//! # Key-schedule caches
//!
//! Every HMAC-based operation (signatures are two HMACs, MACs are one)
//! starts from a key schedule whose derivation costs two SHA-256
//! compressions plus the key-material hashing. Identities are fixed for
//! the lifetime of a deployment, so both layers memoize the schedules:
//!
//! * a [`CryptoHandle`] lazily derives **its own** signing schedule once
//!   (`OnceLock`, so clones taken afterwards carry the filled cache, like
//!   the digest memos on batches); its broadcast-MAC schedule and the
//!   pairwise-channel schedule per peer it talks to live in one shared
//!   block created by its first MAC — a component that only ever signs
//!   (every client) holds no MAC state at all;
//! * the shared [`CryptoProvider`] caches **everyone's** signing and
//!   group-MAC schedules on the verification side, which is what makes
//!   the aggregate batch check (one fold-and-compare per batch over
//!   cached-schedule expected signatures) cheap.

use crate::aggregate::{bisect_mismatches, AggregateSignature};
use crate::hmac::HmacKey;
use crate::keys::KeyStore;
use crate::signature::SimSigner;
use sbft_types::{ComponentId, Digest, IdMap, MacTag, Signature};
use std::sync::{Arc, OnceLock, RwLock};

/// Deployment-wide cryptographic material plus the verification-side
/// key-schedule caches.
#[derive(Debug)]
pub struct CryptoProvider {
    store: KeyStore,
    /// Per-identity signing schedules, filled on first verification of a
    /// signature from that identity.
    sign_schedules: RwLock<IdMap<ComponentId, HmacKey>>,
    /// Per-sender group (broadcast) MAC schedules.
    group_schedules: RwLock<IdMap<ComponentId, HmacKey>>,
}

impl Clone for CryptoProvider {
    fn clone(&self) -> Self {
        // The caches are derived state; a clone starts cold.
        CryptoProvider::with_store(self.store.clone())
    }
}

/// A component-scoped handle to the deployment's cryptographic material.
#[derive(Clone)]
pub struct CryptoHandle {
    me: ComponentId,
    provider: Arc<CryptoProvider>,
    /// This identity's signing schedule (derived from its secret key on
    /// the first signature; clones taken afterwards carry it).
    sign_schedule: OnceLock<HmacKey>,
    /// This identity's MAC schedules, created by the first MAC; clones
    /// taken afterwards share the block.
    mac_schedules: OnceLock<Arc<MacSchedules>>,
}

/// The MAC-side key schedules of one identity.
struct MacSchedules {
    /// The group-broadcast schedule (the self-channel key).
    broadcast: HmacKey,
    /// Pairwise-channel schedules per peer.
    peers: RwLock<IdMap<ComponentId, HmacKey>>,
}

impl CryptoProvider {
    /// Creates the provider for a deployment.
    #[must_use]
    pub fn new(master_seed: u64) -> Arc<Self> {
        Arc::new(Self::with_store(KeyStore::new(master_seed)))
    }

    fn with_store(store: KeyStore) -> Self {
        CryptoProvider {
            store,
            sign_schedules: RwLock::new(IdMap::default()),
            group_schedules: RwLock::new(IdMap::default()),
        }
    }

    /// Sizes the verification-side signing-schedule cache for `signers`
    /// more identities (a deployment knows its client population), so it
    /// is not regrown — old and new table held at once — while they show
    /// up one by one.
    pub fn reserve_signers(&self, signers: usize) {
        self.sign_schedules
            .write()
            .expect("schedule cache")
            .reserve(signers);
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
            sign_schedule: OnceLock::new(),
            mac_schedules: OnceLock::new(),
        }
    }

    /// Lends the cached signing schedule of `component` (derived on first
    /// use) to `use_it`, in place: the cache lock is held for the two
    /// HMACs a signature costs instead of copying the schedule out.
    fn signing_schedule_of<R>(
        &self,
        component: ComponentId,
        use_it: impl FnOnce(&HmacKey) -> R,
    ) -> R {
        if let Some(schedule) = self
            .sign_schedules
            .read()
            .expect("schedule cache")
            .get(&component)
        {
            return use_it(schedule);
        }
        let schedule = self.store.keypair_for(component).signing_schedule();
        use_it(
            self.sign_schedules
                .write()
                .expect("schedule cache")
                .entry(component)
                .or_insert(schedule),
        )
    }

    /// The cached group-broadcast MAC schedule of `sender`.
    fn group_schedule_of(&self, sender: ComponentId) -> HmacKey {
        if let Some(schedule) = self
            .group_schedules
            .read()
            .expect("schedule cache")
            .get(&sender)
        {
            return *schedule;
        }
        let schedule = HmacKey::new(&self.store.mac_key(sender, sender));
        *self
            .group_schedules
            .write()
            .expect("schedule cache")
            .entry(sender)
            .or_insert(schedule)
    }

    /// Verifies a digital signature claimed to be from `signer`.
    #[must_use]
    pub fn verify(&self, signer: ComponentId, digest: &Digest, sig: &Signature) -> bool {
        self.signing_schedule_of(signer, |schedule| {
            SimSigner::verify_with_schedule(schedule, digest, sig)
        })
    }

    /// The signature `signer` would produce over `digest` (the expected
    /// value recomputed during verification), from the cached schedule.
    #[must_use]
    fn expected_signature(&self, signer: ComponentId, digest: &Digest) -> Signature {
        self.signing_schedule_of(signer, |schedule| {
            SimSigner::sign_with_schedule(schedule, digest)
        })
    }

    /// Verifies an [`AggregateSignature`] over a batch of
    /// `(signer, digest)` claims in **one** comparison: the expected
    /// per-claim signatures are recomputed from cached schedules, folded,
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

    /// This identity's signing schedule, derived once per handle lineage.
    fn sign_schedule(&self) -> &HmacKey {
        self.sign_schedule
            .get_or_init(|| self.provider.store.keypair_for(self.me).signing_schedule())
    }

    /// This identity's MAC schedules, created on first use.
    fn mac_schedules(&self) -> &MacSchedules {
        self.mac_schedules.get_or_init(|| {
            Arc::new(MacSchedules {
                broadcast: HmacKey::new(&self.provider.store.mac_key(self.me, self.me)),
                peers: RwLock::new(IdMap::default()),
            })
        })
    }

    /// The pairwise-channel MAC schedule shared with `peer` (symmetric).
    fn peer_schedule(&self, peer: ComponentId) -> HmacKey {
        let peers = &self.mac_schedules().peers;
        if let Some(schedule) = peers.read().expect("peer schedule cache").get(&peer) {
            return *schedule;
        }
        let schedule = HmacKey::new(&self.provider.store.mac_key(self.me, peer));
        *peers
            .write()
            .expect("peer schedule cache")
            .entry(peer)
            .or_insert(schedule)
    }

    /// Signs a digest with this component's secret key (digital signature,
    /// provides non-repudiation). The key schedule is derived on the first
    /// signature and reused for every signature this handle — and every
    /// clone taken afterwards — ever makes.
    #[must_use]
    pub fn sign(&self, digest: &Digest) -> Signature {
        SimSigner::sign_with_schedule(self.sign_schedule(), digest)
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
        self.peer_schedule(to).mac(digest.as_bytes())
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
        self.mac_schedules().broadcast.mac(digest.as_bytes())
    }

    /// Verifies a broadcast MAC claimed to come from `from`.
    #[must_use]
    pub fn verify_broadcast_mac(&self, from: ComponentId, digest: &Digest, tag: &MacTag) -> bool {
        self.provider
            .group_schedule_of(from)
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
    use sbft_types::{ClientId, NodeId};

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
        // Every cached path must be bit-identical to the one-shot path it
        // amortises, across repeated calls (cold cache, then warm cache).
        let provider = CryptoProvider::new(31);
        let a = provider.handle(ComponentId::Node(NodeId(0)));
        let b = provider.handle(ComponentId::Node(NodeId(1)));
        for round in 0..2u64 {
            let d = digest(round);
            // Signature: handle cache == SimSigner fresh derivation.
            assert_eq!(
                a.sign(&d),
                SimSigner::sign(&provider.key_store().keypair_for(a.id()), &d)
            );
            // Pairwise MAC: peer cache == raw keyed one-shot HMAC.
            let raw_key = provider.key_store().mac_key(a.id(), b.id());
            assert_eq!(a.mac_for(b.id(), &d), hmac_sha256(&raw_key, d.as_bytes()));
            // Broadcast MAC: sender cache == receiver-side verification.
            let tag = a.broadcast_mac(&d);
            assert!(b.verify_broadcast_mac(a.id(), &d, &tag));
            assert!(!b.verify_broadcast_mac(b.id(), &d, &tag));
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
        // Identity, provider, the signing schedule and one pointer: every
        // client owns one (232 bytes while it also carried its key pair,
        // a broadcast schedule and the peer table's handle).
        assert!(std::mem::size_of::<CryptoHandle>() <= 112);
    }

    #[test]
    fn mac_schedules_appear_with_the_first_mac_and_laziness_is_invisible() {
        let provider = CryptoProvider::new(8);
        let a = provider.handle(ComponentId::Node(NodeId(0)));
        let b = provider.handle(ComponentId::Node(NodeId(1)));
        let early_clone = a.clone();
        let _ = a.sign(&digest(1));
        assert!(
            a.mac_schedules.get().is_none(),
            "a handle that only signs holds no MAC state"
        );

        // The handle and a clone taken before its first MAC each build
        // their own block; both produce and verify each other's MACs.
        let d = digest(2);
        let pairwise = a.mac_for(b.id(), &d);
        assert_eq!(early_clone.mac_for(b.id(), &d), pairwise);
        assert_eq!(b.mac_for(a.id(), &d), pairwise);
        let broadcast = a.broadcast_mac(&d);
        assert_eq!(early_clone.broadcast_mac(&d), broadcast);
        assert!(early_clone.verify_broadcast_mac(a.id(), &d, &broadcast));
        assert!(b.verify_broadcast_mac(a.id(), &d, &early_clone.broadcast_mac(&d)));

        // A clone taken afterwards shares the block instead.
        let late_clone = a.clone();
        assert!(Arc::ptr_eq(
            a.mac_schedules.get().unwrap(),
            late_clone.mac_schedules.get().unwrap()
        ));
        assert!(!Arc::ptr_eq(
            a.mac_schedules.get().unwrap(),
            early_clone.mac_schedules.get().unwrap()
        ));
        assert_eq!(late_clone.mac_for(b.id(), &d), pairwise);
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
    fn empty_aggregate_is_the_identity() {
        let provider = CryptoProvider::new(3);
        assert!(provider.verify_aggregate(&[], &AggregateSignature::identity()));
    }
}
