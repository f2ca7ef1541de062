//! Identifiers for every participant of the serverless-edge architecture.
//!
//! The paper assigns each shim node and each executor an identifier through
//! the function `id()` (Section III). We additionally give identifiers to
//! clients, the verifier and the storage so that the simulator and the
//! thread runtime can address every component uniformly.

use std::fmt;

/// Identifier of a shim (edge) node `R ∈ R`.
///
/// Shim nodes are numbered `0, 1, 2, …, n_R - 1`; the node with identifier
/// `v mod n_R` is the primary of view `v` (Section IV-B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a client `C ∈ C` (an edge application user, e.g. a UAV).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

/// Identifier of a serverless executor `E ∈ E`.
///
/// Executors are fleeting: a fresh identifier is minted for every spawned
/// function instance, so the space is `u64`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExecutorId(pub u64);

/// Identifier of one execution shard of the sharded commit path.
///
/// Shards are numbered `0, 1, …, num_shards - 1` by the shard router
/// (`sbft-sharding`), which re-exports this type. It lives here so the
/// batcher's lanes and the ordering-time plan ([`crate::ShardPlan`]) can
/// name a shard without the consensus crate depending on the sharding
/// engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard owning `key` among `num_shards` shards — the one
    /// canonical `key → shard` function of the whole workspace (Fibonacci
    /// multiplicative hashing, scaled without modulo bias). The shard
    /// router (`sbft-sharding`) and the region-partitioned storage view
    /// (`sbft-storage`) both delegate here, so ordering-time planning,
    /// apply-time routing and geo placement can never disagree about
    /// where a key lives.
    #[must_use]
    pub fn of_key(key: crate::rwset::Key, num_shards: usize) -> ShardId {
        let n = num_shards.max(1) as u32;
        let h = key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ShardId(((u128::from(h) * u128::from(n)) >> 64) as u32)
    }
}

/// A PBFT view number. The primary of view `v` is node `v mod n_R`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct ViewNumber(pub u64);

/// A sequence number assigned by the shim primary to a client batch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SeqNum(pub u64);

/// Identifier of a client transaction: the issuing client plus a
/// client-local monotonically increasing counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// The client that issued the transaction.
    pub client: ClientId,
    /// Client-local request counter (starts at 0).
    pub counter: u64,
}

/// Address of any component in the architecture `A = {C, R, E, S, V}`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ComponentId {
    /// A client (edge application user).
    Client(ClientId),
    /// A shim node (edge device participating in consensus).
    Node(NodeId),
    /// A serverless executor.
    Executor(ExecutorId),
    /// The trusted verifier `V`.
    Verifier,
    /// The trusted on-premise storage `S`.
    Storage,
    /// The serverless cloud control plane (receives spawn requests).
    Cloud,
}

impl NodeId {
    /// Returns the primary node of `view` for a shim of `n` nodes.
    #[must_use]
    pub fn primary_of(view: ViewNumber, n: usize) -> NodeId {
        assert!(n > 0, "shim must have at least one node");
        NodeId((view.0 % n as u64) as u32)
    }
}

impl ViewNumber {
    /// The next view (used when a view change replaces the primary).
    #[must_use]
    pub fn next(self) -> ViewNumber {
        ViewNumber(self.0 + 1)
    }
}

impl SeqNum {
    /// The next sequence number in order.
    #[must_use]
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }
}

impl TxnId {
    /// Creates a transaction identifier.
    #[must_use]
    pub fn new(client: ClientId, counter: u64) -> Self {
        TxnId { client, counter }
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for ClientId {
    fn from(v: u32) -> Self {
        ClientId(v)
    }
}

impl From<u64> for ExecutorId {
    fn from(v: u64) -> Self {
        ExecutorId(v)
    }
}

impl fmt::Debug for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Debug for ExecutorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl fmt::Display for ExecutorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T({},{})", self.client, self.counter)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentId::Client(c) => write!(f, "{c}"),
            ComponentId::Node(n) => write!(f, "{n}"),
            ComponentId::Executor(e) => write!(f, "{e}"),
            ComponentId::Verifier => write!(f, "V"),
            ComponentId::Storage => write!(f, "S"),
            ComponentId::Cloud => write!(f, "Cloud"),
        }
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

impl ComponentId {
    /// Returns the shim node identifier if this component is a shim node.
    #[must_use]
    pub fn as_node(self) -> Option<NodeId> {
        match self {
            ComponentId::Node(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_rotates_with_view() {
        let n = 4;
        assert_eq!(NodeId::primary_of(ViewNumber(0), n), NodeId(0));
        assert_eq!(NodeId::primary_of(ViewNumber(1), n), NodeId(1));
        assert_eq!(NodeId::primary_of(ViewNumber(4), n), NodeId(0));
        assert_eq!(NodeId::primary_of(ViewNumber(7), n), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn primary_of_empty_shim_panics() {
        let _ = NodeId::primary_of(ViewNumber(0), 0);
    }

    #[test]
    fn view_and_seq_increment() {
        assert_eq!(ViewNumber(3).next(), ViewNumber(4));
        assert_eq!(SeqNum(7).next(), SeqNum(8));
    }

    #[test]
    fn txn_id_ordering_is_client_then_counter() {
        let a = TxnId::new(ClientId(1), 5);
        let b = TxnId::new(ClientId(2), 0);
        let c = TxnId::new(ClientId(1), 6);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn component_accessors() {
        assert_eq!(ComponentId::Node(NodeId(3)).as_node(), Some(NodeId(3)));
        assert_eq!(ComponentId::Verifier.as_node(), None);
    }

    #[test]
    fn display_formats_are_compact() {
        assert_eq!(format!("{}", NodeId(2)), "R2");
        assert_eq!(format!("{}", ClientId(7)), "C7");
        assert_eq!(format!("{}", ExecutorId(11)), "E11");
        assert_eq!(format!("{}", ComponentId::Verifier), "V");
        assert_eq!(format!("{}", TxnId::new(ClientId(1), 2)), "T(C1,2)");
    }
}
