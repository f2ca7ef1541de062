//! Key material, the trusted key registry and the one key-schedule table.
//!
//! The paper assumes public keys are distributed through public-key
//! certificates and that byzantine components can neither impersonate
//! honest components nor subvert cryptographic constructs (Section III).
//! [`KeyStore`] models that trusted setup: every component's key pair and
//! every pairwise MAC secret is derived deterministically from a
//! deployment-wide master seed, so any component can obtain any other
//! component's *public* key (and the simulator can verify signatures
//! without a heavyweight PKI). Secret keys are only used on behalf of a
//! component through its own [`crate::provider::CryptoHandle`].
//!
//! Every signature and MAC starts from an HMAC key schedule, which costs
//! the key derivation and two SHA-256 compressions to build. The store is
//! the only place schedules are kept, in two tables: signing schedules by
//! identity, and MAC schedules by unordered identity pair (an identity's
//! group-broadcast key is the pair `(x, x)`). Signing and verifying, MACing
//! and checking a MAC, certificates and aggregate checks all read them.
//!
//! Only long-lived identities are cached: nodes, clients, the verifier,
//! storage and the cloud. An executor identity is fresh per spawn, signs
//! one `VERIFY` and is verified once, so its schedule is derived on use
//! and dropped: the tables are bounded by the deployment's population,
//! not by how many executors a run has spawned.

use crate::hashing::digest_u64s;
use crate::hmac::HmacKey;
use sbft_types::{ComponentId, IdMap};
use std::hash::Hash;
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
    /// once should derive it once and cache it, as [`KeyStore`] does for
    /// every long-lived identity.
    #[must_use]
    pub fn signing_schedule(&self) -> HmacKey {
        HmacKey::new(&self.secret.0)
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
    /// Signing schedules of long-lived identities, by identity.
    sign_schedules: RwLock<IdMap<ComponentId, HmacKey>>,
    /// MAC schedules of long-lived pairs, by unordered pair (stored as
    /// `(lower, higher)`); `(x, x)` is `x`'s group-broadcast key.
    mac_schedules: RwLock<IdMap<(ComponentId, ComponentId), HmacKey>>,
}

/// Whether `component` keeps its schedules in the store: every identity
/// but an executor, which lives for one batch (see the module docs).
fn long_lived(component: ComponentId) -> bool {
    !matches!(component, ComponentId::Executor(_))
}

/// Lends the schedule of `key` in `table` to `use_it`, deriving and
/// inserting it on first use. The lock is held for the HMACs `use_it`
/// computes instead of copying the schedule out.
fn lend<K: Copy + Eq + Hash, R>(
    table: &RwLock<IdMap<K, HmacKey>>,
    key: K,
    derive: impl FnOnce() -> HmacKey,
    use_it: impl FnOnce(&HmacKey) -> R,
) -> R {
    if let Some(schedule) = table.read().expect("schedule table").get(&key) {
        return use_it(schedule);
    }
    let schedule = derive();
    use_it(
        table
            .write()
            .expect("schedule table")
            .entry(key)
            .or_insert(schedule),
    )
}

impl KeyStore {
    /// Creates a key store for a deployment.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        KeyStore {
            master_seed,
            sign_schedules: RwLock::new(IdMap::default()),
            mac_schedules: RwLock::new(IdMap::default()),
        }
    }

    /// Sizes the signing table for `signers` more identities (a
    /// deployment knows its client population), so it is not regrown —
    /// old and new table held at once — while they show up one by one.
    pub(crate) fn reserve_signers(&self, signers: usize) {
        self.sign_schedules
            .write()
            .expect("schedule table")
            .reserve(signers);
    }

    /// Lends the signing schedule of `component` to `use_it`: from the
    /// table for a long-lived identity, freshly derived for an executor.
    pub(crate) fn signing_schedule_of<R>(
        &self,
        component: ComponentId,
        use_it: impl FnOnce(&HmacKey) -> R,
    ) -> R {
        let derive = || self.keypair_for(component).signing_schedule();
        if !long_lived(component) {
            return use_it(&derive());
        }
        lend(&self.sign_schedules, component, derive, use_it)
    }

    /// Lends the MAC schedule of the channel between `a` and `b` (order
    /// independent; `a == b` is `a`'s group-broadcast key) to `use_it`.
    pub(crate) fn mac_schedule_of<R>(
        &self,
        a: ComponentId,
        b: ComponentId,
        use_it: impl FnOnce(&HmacKey) -> R,
    ) -> R {
        let derive = || HmacKey::new(&self.mac_key(a, b));
        if !(long_lived(a) && long_lived(b)) {
            return use_it(&derive());
        }
        lend(&self.mac_schedules, (a.min(b), a.max(b)), derive, use_it)
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
    use crate::signature::SimSigner;
    use sbft_types::{ClientId, ExecutorId, NodeId, Signature};

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
    fn verifying_executors_leaves_the_signing_table_its_size() {
        // Every spawn is a fresh executor identity: a table that kept
        // their schedules would grow with run length, not population.
        let store = KeyStore::new(9);
        let verifier = ComponentId::Verifier;
        let d = digest_u64s("verify", &[1]);
        let sig = SimSigner::sign(&store.keypair_for(verifier), &d);
        assert!(SimSigner::verify(&store, verifier, &d, &sig));
        let table = || store.sign_schedules.read().unwrap().len();
        let before = table();
        for id in 0..64 {
            let executor = ComponentId::Executor(ExecutorId(id));
            let sig = SimSigner::sign(&store.keypair_for(executor), &d);
            assert!(SimSigner::verify(&store, executor, &d, &sig));
            assert!(!SimSigner::verify(&store, executor, &d, &Signature::ZERO));
        }
        assert_eq!(table(), before);
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
