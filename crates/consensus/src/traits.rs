//! The common interface implemented by every shim ordering protocol.

use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::ConsensusMessage;
use sbft_durability::RecoveredEntry;
use sbft_telemetry::Registry;
use sbft_types::{Batch, NodeId, SeqNum, Transaction, TxnId, ViewNumber};

/// A deterministic ordering-protocol state machine running on one shim
/// node. `PbftReplica`, `CftReplica` and `NoShim` all implement this trait,
/// which is what lets the Figure 7 baseline comparison swap the shim
/// protocol without touching the rest of the architecture.
pub trait OrderingProtocol {
    /// Submits a client batch for ordering. Only meaningful on the node
    /// currently acting as primary/leader; other nodes ignore it.
    fn submit_batch(&mut self, batch: Batch) -> Vec<ConsensusAction>;

    /// Handles a consensus message received from another shim node.
    fn handle_message(&mut self, from: NodeId, msg: ConsensusMessage) -> Vec<ConsensusAction>;

    /// Handles the expiry of a previously requested timer.
    fn handle_timer(&mut self, timer: ConsensusTimer) -> Vec<ConsensusAction>;

    /// Explicitly requests a primary replacement (used by the ServerlessBFT
    /// recovery paths: `REPLACE` messages from the verifier and expiry of
    /// the re-transmission timer `Υ`).
    fn request_view_change(&mut self) -> Vec<ConsensusAction>;

    /// The view (or ballot) this node is currently in.
    fn view(&self) -> ViewNumber;

    /// The primary/leader of the current view.
    fn primary(&self) -> NodeId;

    /// This node's identifier.
    fn node_id(&self) -> NodeId;

    /// Whether this node is the primary of the current view.
    fn is_primary(&self) -> bool {
        self.primary() == self.node_id()
    }

    /// Installs state reconstructed from a durable log after a crash
    /// restart: committed `entries` above the `stable` snapshot floor,
    /// resuming in `view`. Returns the actions needed to rejoin (for
    /// PBFT, a broadcast `STATEREQUEST` for the missing suffix).
    /// Protocols without a recovery path ignore it.
    fn install_recovered(
        &mut self,
        entries: Vec<RecoveredEntry>,
        stable: SeqNum,
        view: ViewNumber,
    ) -> Vec<ConsensusAction> {
        let _ = (entries, stable, view);
        Vec::new()
    }

    /// Offers a transaction body observed from client submission to the
    /// protocol's body cache, feeding digest-proposal reconstruction. May
    /// return actions when the body completes an in-flight reconstruction
    /// (the proposal can race ahead of the client broadcast). Protocols
    /// without a digest mode ignore it.
    fn offer_body(&mut self, txn: Transaction) -> Vec<ConsensusAction> {
        let _ = txn;
        Vec::new()
    }

    /// Garbage-collects cached transaction bodies, keeping only the ids
    /// `protected` yields (the shim calls this on its checkpoint-rhythm
    /// GC and walks the ids it still tracks; an id may come up twice).
    /// Protocols without a body cache ignore it.
    fn gc_bodies(&mut self, protected: &mut dyn Iterator<Item = TxnId>) {
        let _ = protected;
    }

    /// Sequence numbers of digest proposals still waiting for bodies
    /// (tests and the retransmission drivers). Empty for protocols
    /// without a digest mode.
    fn pending_reconstructions(&self) -> Vec<SeqNum> {
        Vec::new()
    }

    /// Transaction bodies currently cached for digest reconstruction
    /// (tests and memory accounting). Zero for protocols without a body
    /// cache.
    fn cached_bodies(&self) -> usize {
        0
    }

    /// Re-homes the protocol's counters into `registry` under `prefix`
    /// (PBFT: `<prefix>.digest.*` and `<prefix>.faults.*`). The registry
    /// hands out counters by name, so a replica rebuilt after a crash
    /// restart re-attaches to the same cumulative values. Protocols
    /// without counters ignore it.
    fn register_metrics(&mut self, registry: &Registry, prefix: &str) {
        let _ = (registry, prefix);
    }

    /// Short protocol name used in experiment output ("PBFT", "CFT",
    /// "NoShim").
    fn name(&self) -> &'static str;
}
