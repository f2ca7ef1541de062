//! Key material and the trusted key registry.
//!
//! The paper assumes public keys are distributed through public-key
//! certificates and that byzantine components can neither impersonate
//! honest components nor subvert cryptographic constructs (Section III).
//! [`KeyStore`] models that trusted setup: every component's key pair is
//! derived deterministically from a deployment-wide master seed, so any
//! component can obtain any other component's *public* key (and the
//! simulator can verify signatures without a heavyweight PKI). Secret keys
//! are only handed to a component through its own
//! [`crate::provider::CryptoHandle`].
//!
//! Verifying a signature needs the signer's HMAC key schedule, which costs
//! the key-pair derivation and two SHA-256 compressions to build. The
//! store keeps one per identity once it is first needed, so every
//! verification path — [`crate::signature::SimSigner::verify`], the
//! certificate check and [`crate::provider::CryptoProvider`] — reads the
//! one cache.

use crate::hashing::digest_u64s;
use crate::hmac::HmacKey;
use sbft_types::{ComponentId, IdMap};
use std::sync::RwLock;

/// A 32-byte secret signing key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(pub(crate) [u8; 32]);

/// A 32-byte public key, derived as `H("sbft-pk" ‖ secret)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey(pub [u8; 32]);

/// A secret/public key pair.
#[derive(Clone, Copy)]
pub struct KeyPair {
    /// The secret half; never leaves the owning component's handle.
    pub secret: SecretKey,
    /// The public half, distributed through the key store.
    pub public: PublicKey,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret key material.
        f.write_str("SecretKey(…)")
    }
}

impl KeyPair {
    /// Derives a key pair from a 32-byte seed.
    #[must_use]
    fn from_seed(seed: [u8; 32]) -> Self {
        let secret = SecretKey(seed);
        let public = PublicKey(*crate::hashing::digest_concat(&[b"sbft-pk", &seed]).as_bytes());
        KeyPair { secret, public }
    }

    /// Derives the reusable HMAC key schedule of the secret half.
    ///
    /// Every signature under this key pair is two HMACs under this
    /// schedule (see [`crate::signature::SimSigner`]); deriving it costs
    /// two SHA-256 compressions, so callers that sign or verify more than
    /// once should derive it once and cache it —
    /// [`crate::provider::CryptoHandle`] does for its own identity, and
    /// [`KeyStore`] for every identity it verifies.
    #[must_use]
    pub fn signing_schedule(&self) -> crate::hmac::HmacKey {
        crate::hmac::HmacKey::new(&self.secret.0)
    }
}

/// Stable numeric encoding of a component identity used for key derivation.
fn component_code(c: ComponentId) -> [u64; 2] {
    match c {
        ComponentId::Client(id) => [1, u64::from(id.0)],
        ComponentId::Node(id) => [2, u64::from(id.0)],
        ComponentId::Executor(id) => [3, id.0],
        ComponentId::Verifier => [4, 0],
        ComponentId::Storage => [5, 0],
        ComponentId::Cloud => [6, 0],
    }
}

/// The trusted key registry (simulated PKI).
///
/// Key pairs and pairwise MAC secrets are derived deterministically from
/// `master_seed`, which plays the role of the out-of-band certificate
/// distribution plus Diffie–Hellman exchanges that the paper assumes have
/// already happened before the protocol starts.
#[derive(Debug)]
pub struct KeyStore {
    master_seed: u64,
    /// Per-identity signing schedules, filled on first verification of a
    /// signature from that identity.
    sign_schedules: RwLock<IdMap<ComponentId, HmacKey>>,
}

impl Clone for KeyStore {
    fn clone(&self) -> Self {
        // The cache is derived state; a clone starts cold.
        KeyStore::new(self.master_seed)
    }
}

impl KeyStore {
    /// Creates a key store for a deployment.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        KeyStore {
            master_seed,
            sign_schedules: RwLock::new(IdMap::default()),
        }
    }

    /// Sizes the signing-schedule cache for `signers` more identities (a
    /// deployment knows its client population), so it is not regrown —
    /// old and new table held at once — while they show up one by one.
    pub(crate) fn reserve_signers(&self, signers: usize) {
        self.sign_schedules
            .write()
            .expect("schedule cache")
            .reserve(signers);
    }

    /// Lends the cached signing schedule of `component` (derived on first
    /// use) to `use_it`, in place: the cache lock is held for the two
    /// HMACs a signature costs instead of copying the schedule out.
    pub(crate) fn signing_schedule_of<R>(
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
        let schedule = self.keypair_for(component).signing_schedule();
        use_it(
            self.sign_schedules
                .write()
                .expect("schedule cache")
                .entry(component)
                .or_insert(schedule),
        )
    }

    /// The key pair of `component`. Only [`crate::provider::CryptoHandle`]
    /// should use the secret half.
    #[must_use]
    pub fn keypair_for(&self, component: ComponentId) -> KeyPair {
        let code = component_code(component);
        let seed = digest_u64s("sbft-keypair", &[self.master_seed, code[0], code[1]]);
        KeyPair::from_seed(*seed.as_bytes())
    }

    /// The pairwise MAC key shared by components `a` and `b`, as would be
    /// established by a Diffie–Hellman exchange (order independent).
    #[must_use]
    pub fn mac_key(&self, a: ComponentId, b: ComponentId) -> [u8; 32] {
        let ca = component_code(a);
        let cb = component_code(b);
        let (lo, hi) = if ca <= cb { (ca, cb) } else { (cb, ca) };
        *digest_u64s(
            "sbft-mac-key",
            &[self.master_seed, lo[0], lo[1], hi[0], hi[1]],
        )
        .as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{ClientId, ExecutorId, NodeId};

    #[test]
    fn key_derivation_is_deterministic() {
        let store = KeyStore::new(42);
        let a = store.keypair_for(ComponentId::Node(NodeId(1)));
        let b = store.keypair_for(ComponentId::Node(NodeId(1)));
        assert_eq!(a.public, b.public);
        assert_eq!(a.secret.0, b.secret.0);
    }

    #[test]
    fn distinct_components_get_distinct_keys() {
        let store = KeyStore::new(42);
        let ids = [
            ComponentId::Node(NodeId(0)),
            ComponentId::Node(NodeId(1)),
            ComponentId::Client(ClientId(0)),
            ComponentId::Client(ClientId(1)),
            ComponentId::Executor(ExecutorId(0)),
            ComponentId::Verifier,
            ComponentId::Storage,
        ];
        let mut seen = std::collections::HashSet::new();
        for id in ids {
            assert!(
                seen.insert(store.keypair_for(id).public.0),
                "duplicate key for {id}"
            );
        }
    }

    #[test]
    fn different_master_seeds_give_different_keys() {
        let a = KeyStore::new(1).keypair_for(ComponentId::Verifier).public;
        let b = KeyStore::new(2).keypair_for(ComponentId::Verifier).public;
        assert_ne!(a, b);
    }

    #[test]
    fn mac_keys_are_symmetric_and_pair_specific() {
        let store = KeyStore::new(7);
        let n0 = ComponentId::Node(NodeId(0));
        let n1 = ComponentId::Node(NodeId(1));
        let n2 = ComponentId::Node(NodeId(2));
        assert_eq!(store.mac_key(n0, n1), store.mac_key(n1, n0));
        assert_ne!(store.mac_key(n0, n1), store.mac_key(n0, n2));
    }

    #[test]
    fn secret_key_debug_does_not_leak() {
        let store = KeyStore::new(1);
        let kp = store.keypair_for(ComponentId::Verifier);
        assert_eq!(format!("{:?}", kp.secret), "SecretKey(…)");
    }

    #[test]
    fn client_and_node_with_same_numeric_id_differ() {
        let store = KeyStore::new(5);
        assert_ne!(
            store.keypair_for(ComponentId::Node(NodeId(7))).public,
            store.keypair_for(ComponentId::Client(ClientId(7))).public
        );
    }
}
