//! # sbft-types
//!
//! Shared vocabulary for the ServerlessBFT serverless-edge architecture.
//!
//! The architecture `A = {C, R, E, S, V}` of the paper is reflected in the
//! identifier types of [`ids`]: clients `C`, shim nodes `R`, serverless
//! executors `E`, the storage `S` and the verifier `V`. Every other crate in
//! the workspace builds on the plain data types defined here:
//!
//! * [`transaction`] — client transactions, operations and results,
//! * [`rwset`] — keys, values, versions and read/write sets,
//! * [`batch`] — batches of client transactions ordered by the shim,
//! * [`digest`] — constant-size digests, signature and MAC byte containers
//!   (the algorithms live in `sbft-crypto`),
//! * [`config`] — fault-tolerance parameters (`n_R`, `f_R`, `n_E`, `f_E`),
//!   timer settings and the full system configuration,
//! * [`region`] — the eleven cloud regions used in the evaluation,
//! * [`time`] — virtual time used by the simulator and protocol timers,
//! * [`idmap`] — hash tables keyed by the identifier types, over one cheap
//!   fixed-key hasher,
//! * [`inline`] — the inline read/write lists and the shard bit set that
//!   keep the per-transaction path off the heap,
//! * [`error`] — the common error type.
//!
//! Keeping these types dependency-free lets the protocol
//! state machines, the discrete-event simulator and the thread runtime all
//! speak the same language without cyclic dependencies.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod batch;
pub mod config;
pub mod digest;
pub mod error;
pub mod idmap;
pub mod ids;
pub mod inline;
pub mod plan;
pub mod region;
pub mod rwset;
pub mod time;
pub mod transaction;

pub use batch::{Batch, BatchId};
pub use config::{
    ConflictHandling, DurabilityConfig, FaultParams, ShardingConfig, SpawningMode, SystemConfig,
    TimerConfig, WorkloadConfig,
};
pub use digest::{Digest, MacTag, Signature};
pub use error::{SbftError, SbftResult};
pub use idmap::{BuildIdHasher, IdHasher, IdMap, IdSet};
pub use ids::{ClientId, ComponentId, ExecutorId, NodeId, SeqNum, ShardId, TxnId, ViewNumber};
pub use inline::{InlineVec, ShardSet};
pub use plan::ShardPlan;
pub use region::{Region, RegionPartition, RegionSet};
pub use rwset::{Key, ReadWriteSet, RwSetKeys, Value, Version};
pub use time::{SimDuration, SimTime};
pub use transaction::{Operation, Transaction, TransactionBody, TxnOutcome, TxnResult};
