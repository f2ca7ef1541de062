//! Key material, the trusted key registry and the key-schedule slots.
//!
//! The paper assumes public keys are distributed through public-key
//! certificates and that byzantine components can neither impersonate
//! honest components nor subvert cryptographic constructs (Section III).
//! [`KeyStore`] models that trusted setup: every component's signing key
//! and every pairwise MAC secret is derived deterministically from a
//! deployment-wide master seed. There are no public keys: a signature is
//! checked by recomputing it under the signer's schedule the store holds,
//! which stands in for checking it against the signer's certified public
//! key (and spares the simulator a PKI). A component signs only as
//! itself, through its own [`crate::provider::CryptoHandle`].
//!
//! Every signature and MAC starts from an HMAC key schedule, which costs
//! the key derivation and two SHA-256 compressions to build. The
//! store is the only place schedules are kept: in slots indexed by
//! identity, one for the identity's signing schedule and one for its
//! group-broadcast MAC schedule (the key of the pair `(x, x)`, the only
//! MAC key the protocol uses). A slot is a `OnceLock`, filled on first
//! use and read after that by any thread with one acquire load, no lock
//! and no hash. Signing and verifying, MACing and checking a MAC,
//! certificates and aggregate checks all read them.
//!
//! Only long-lived identities have slots: the verifier, storage, the
//! cloud and the nodes in the first chunk of 1 024, then one per client
//! id below 2²⁰. Client chunks are allocated when one of their clients is
//! first used, so a deployment holds slots for the clients it has, not
//! for the range. An executor identity is fresh per spawn, signs one
//! `VERIFY` and is verified once, so its schedule is derived on use and
//! dropped, as is any identity outside the slot range and the key of a
//! pair of distinct identities: what the store holds is bounded by the
//! deployment's population, not by how many executors a run has spawned.

use crate::hashing::digest_u64s;
use crate::hmac::HmacKey;
use sbft_types::ComponentId;
use std::sync::OnceLock;

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

/// Slots per chunk, the unit in which slots are allocated.
const CHUNK: usize = 1024;
/// Nodes with a slot (ids below this): after the verifier's, storage's
/// and the cloud's, they fill the first chunk.
const NODE_SLOTS: usize = CHUNK - 3;
/// Clients with a slot (ids below this), from the second chunk on.
const CLIENT_SLOTS: usize = 1 << 20;
/// Slots in all.
const SLOTS: usize = CHUNK + CLIENT_SLOTS;

/// The slot of `component`, if it has one (see the module docs).
fn slot_of(component: ComponentId) -> Option<usize> {
    match component {
        ComponentId::Verifier => Some(0),
        ComponentId::Storage => Some(1),
        ComponentId::Cloud => Some(2),
        ComponentId::Node(id) => Some(id.0 as usize)
            .filter(|&n| n < NODE_SLOTS)
            .map(|n| 3 + n),
        ComponentId::Client(id) => Some(id.0 as usize)
            .filter(|&c| c < CLIENT_SLOTS)
            .map(|c| CHUNK + c),
        ComponentId::Executor(_) => None,
    }
}

/// `CHUNK` consecutive slots, each empty until its schedule is first used.
type Chunk = Box<[OnceLock<HmacKey>]>;

/// One schedule per slot, in chunks allocated on first use. The chunk
/// directory is allocated whole (24 B a chunk), so a lookup indexes it
/// and never has to grow it.
struct Slots {
    chunks: Box<[OnceLock<Chunk>]>,
}

impl Slots {
    fn new() -> Self {
        Slots {
            chunks: (0..SLOTS / CHUNK).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The schedule in `slot`, derived with `derive` and kept on first use.
    fn get_or_derive(&self, slot: usize, derive: impl FnOnce() -> HmacKey) -> HmacKey {
        let chunk =
            self.chunks[slot / CHUNK].get_or_init(|| (0..CHUNK).map(|_| OnceLock::new()).collect());
        *chunk[slot % CHUNK].get_or_init(derive)
    }
}

/// The trusted key registry (simulated PKI).
///
/// Signing keys and pairwise MAC secrets are derived deterministically from
/// `master_seed`, which plays the role of the out-of-band certificate
/// distribution plus Diffie–Hellman exchanges that the paper assumes have
/// already happened before the protocol starts.
pub struct KeyStore {
    master_seed: u64,
    /// Signing schedules of long-lived identities, by slot.
    signing: Slots,
    /// Group-broadcast MAC schedules (the pair `(x, x)`), by slot.
    group_macs: Slots,
}

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyStore")
            // Every key of the deployment is derived from the seed.
            .field("master_seed", &format_args!("<redacted>"))
            .finish_non_exhaustive()
    }
}

impl KeyStore {
    /// Creates a key store for a deployment.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        KeyStore {
            master_seed,
            signing: Slots::new(),
            group_macs: Slots::new(),
        }
    }

    /// The signing schedule of `component`: from its slot for a
    /// long-lived identity, freshly derived for one without a slot (an
    /// executor, or an id past the slot range).
    pub(crate) fn signing_schedule_of(&self, component: ComponentId) -> HmacKey {
        let derive = || HmacKey::new(&self.seed_of(component));
        match slot_of(component) {
            Some(slot) => self.signing.get_or_derive(slot, derive),
            None => derive(),
        }
    }

    /// The MAC schedule of the channel between `a` and `b` (order
    /// independent; `a == b` is `a`'s group-broadcast key, the only one
    /// kept in a slot).
    pub(crate) fn mac_schedule_of(&self, a: ComponentId, b: ComponentId) -> HmacKey {
        let derive = || HmacKey::new(&self.mac_key(a, b));
        match slot_of(a).filter(|_| a == b) {
            Some(slot) => self.group_macs.get_or_derive(slot, derive),
            None => derive(),
        }
    }

    /// The secret signing key of `component`: all its signing schedule
    /// is derived from.
    pub(crate) fn seed_of(&self, component: ComponentId) -> [u8; 32] {
        let code = component_code(component);
        *digest_u64s("sbft-keypair", &[self.master_seed, code[0], code[1]]).as_bytes()
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
    use crate::provider::CryptoProvider;
    use crate::signature::SimSigner;
    use sbft_types::{ClientId, ExecutorId, NodeId, Signature};

    #[test]
    fn key_derivation_is_deterministic() {
        let node = ComponentId::Node(NodeId(1));
        let (a, b) = (CryptoProvider::new(42), CryptoProvider::new(42));
        assert_eq!(a.key_store().seed_of(node), b.key_store().seed_of(node));
        let d = digest_u64s("derive", &[1]);
        let sig = a.handle(node).sign(&d);
        assert_eq!(b.handle(node).sign(&d), sig);
        assert!(b.verify(node, &d, &sig));
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
            assert!(seen.insert(store.seed_of(id)), "duplicate key for {id}");
        }
    }

    #[test]
    fn different_master_seeds_give_different_keys() {
        let verifier = ComponentId::Verifier;
        let (a, b) = (CryptoProvider::new(1), CryptoProvider::new(2));
        assert_ne!(
            a.key_store().seed_of(verifier),
            b.key_store().seed_of(verifier)
        );
        let d = digest_u64s("derive", &[2]);
        assert!(!b.verify(verifier, &d, &a.handle(verifier).sign(&d)));
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

    /// The schedules the store holds, and the chunks of slots allocated
    /// for them.
    fn held(store: &KeyStore) -> (usize, usize) {
        let chunks: Vec<_> = [&store.signing, &store.group_macs]
            .iter()
            .flat_map(|slots| slots.chunks.iter().filter_map(OnceLock::get))
            .collect();
        let schedules = chunks
            .iter()
            .map(|chunk| chunk.iter().filter(|slot| slot.get().is_some()).count())
            .sum();
        (schedules, chunks.len())
    }

    #[test]
    fn verifying_executors_leaves_the_store_its_size() {
        // Every spawn is a fresh executor identity: a store that kept
        // their schedules would grow with run length, not population.
        let provider = CryptoProvider::new(9);
        let store = provider.key_store();
        let verifier = ComponentId::Verifier;
        let d = digest_u64s("verify", &[1]);
        let sig = provider.handle(verifier).sign(&d);
        assert!(SimSigner::verify(store, verifier, &d, &sig));
        let before = held(store);
        assert_eq!(before, (1, 1));
        for id in 0..64 {
            let executor = ComponentId::Executor(ExecutorId(id));
            let sig = provider.handle(executor).sign(&d);
            assert!(SimSigner::verify(store, executor, &d, &sig));
            assert!(!SimSigner::verify(store, executor, &d, &Signature::ZERO));
            let _ = store.mac_schedule_of(executor, executor);
        }
        assert_eq!(held(store), before);
    }

    #[test]
    fn slots_are_allocated_a_chunk_at_a_time_for_the_identities_used() {
        let store = KeyStore::new(3);
        assert_eq!(held(&store), (0, 0));
        for id in [0, 1, CHUNK as u32 - 1, 5 * CHUNK as u32] {
            let _ = store.signing_schedule_of(ComponentId::Client(ClientId(id)));
        }
        // Clients 0 to 1 023 share a chunk; client 5 120 has its own.
        assert_eq!(held(&store), (4, 2));
        let node = ComponentId::Node(NodeId(2));
        let _ = store.signing_schedule_of(node);
        let _ = store.mac_schedule_of(node, node);
        assert_eq!(held(&store), (6, 4));
        // A pair of distinct identities, and identities past the slot
        // range, are derived on use.
        let _ = store.mac_schedule_of(node, ComponentId::Node(NodeId(0)));
        let _ = store.signing_schedule_of(ComponentId::Node(NodeId(NODE_SLOTS as u32)));
        let _ = store.signing_schedule_of(ComponentId::Client(ClientId(CLIENT_SLOTS as u32)));
        let _ = store.signing_schedule_of(ComponentId::Client(ClientId(u32::MAX)));
        assert_eq!(held(&store), (6, 4));
    }

    #[test]
    fn secret_key_debug_does_not_leak() {
        let store = KeyStore::new(1);
        let schedule = store.signing_schedule_of(ComponentId::Verifier);
        assert_eq!(format!("{schedule:?}"), "HmacKey(…)");
    }

    #[test]
    fn client_and_node_with_same_numeric_id_differ() {
        let provider = CryptoProvider::new(5);
        let (node, client) = (
            ComponentId::Node(NodeId(7)),
            ComponentId::Client(ClientId(7)),
        );
        let store = provider.key_store();
        assert_ne!(store.seed_of(node), store.seed_of(client));
        let d = digest_u64s("derive", &[3]);
        assert!(!provider.verify(client, &d, &provider.handle(node).sign(&d)));
    }
}
