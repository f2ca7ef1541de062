//! # sbft-consensus
//!
//! The shim ordering substrate: the consensus protocols edge devices run to
//! agree on the order of client batches before executors are spawned.
//!
//! * [`pbft`] — a from-scratch PBFT replica (Castro & Liskov '99) with the
//!   three normal-case phases (`PREPREPARE` / `PREPARE` / `COMMIT`), view
//!   changes, new-view installation and the paper's *featherweight
//!   checkpoints* (Section V-B): checkpoint messages carry only the signed
//!   commit certificates accumulated since the last checkpoint, because
//!   shim nodes neither execute requests nor store data.
//! * [`cft`] — a crash-fault-tolerant primary/backup protocol in the style
//!   of Multi-Paxos, used for the `ServerlessCFT` baseline of Figure 7 (no
//!   signatures, majority quorums, linear message pattern).
//! * [`noshim`] — the `NoShim` baseline: no consensus at all, every
//!   submitted batch is committed immediately by the receiving node.
//! * [`batcher`] — the batching front-end that groups client transactions
//!   into consensus batches (Figure 6(iii)–(iv)).
//!
//! All protocols are deterministic state machines: they consume messages
//! and timer expirations and emit [`actions::ConsensusAction`]s. The
//! simulator and the thread runtime interpret those actions; the byzantine
//! behaviours of Section V (request suppression, nodes in dark,
//! equivocation) are injected *around* the honest state machines by
//! `sbft-core::attacks`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod actions;
pub mod batcher;
pub mod cft;
pub mod log;
pub mod messages;
pub mod noshim;
pub mod pbft;
pub mod traits;

pub use actions::{ConsensusAction, ConsensusTimer};
pub use batcher::{Batcher, SignedBatch};
pub use cft::CftReplica;
pub use messages::{
    BatchDigestAccumulator, Checkpoint, Commit, ConsensusMessage, NewView, PrePrepare, Prepare,
    StateRequest, StateResponse, ViewChange,
};
pub use noshim::NoShim;
pub use pbft::PbftReplica;
pub use traits::OrderingProtocol;
