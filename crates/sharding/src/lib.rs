//! # sbft-sharding
//!
//! The sharded execution subsystem: removes the single verifier/storage
//! funnel that capped the paper's deployment at ~21 parallel executors by
//! partitioning the concurrency-control and apply path of committed
//! batches across `N` independent shards (in the style of execution
//! sharding: per-shard isolated state, pending queue and scheduler).
//!
//! * [`router`] — [`ShardRouter`]: deterministic partitioning of the YCSB
//!   key space into shards. The same key maps to the same shard on every
//!   run and every process, so the verifier, the simulator and the thread
//!   runtime always agree on placement.
//! * [`state`] — [`ShardState`]: one shard's isolated slice of the world —
//!   its [`view`](state::ShardStoreView) of the versioned store, its
//!   pending-batch queue, its OCC counters and the atomic
//!   `Idle → Pending → Running` lifecycle that prevents double-scheduling.
//! * [`committer`] — [`ShardedCommitter`]: the synchronous engine the
//!   trusted verifier drives. Single-shard transactions check-and-apply
//!   under their shard's execution lock only; cross-shard transactions
//!   take a two-phase, lock-ordered path (acquire every involved shard's
//!   execution lock in ascending shard order, validate all reads, apply
//!   all writes, release) so OCC semantics are exactly those of the
//!   unsharded `ccheck` of Figure 3.
//! * [`scheduler`] — [`ShardScheduler`]: a worker pool sized to the
//!   configured cores that drains shard queues in parallel, used only by
//!   the raw-scaling benchmarks (no runtime applies through it). Batches
//!   enter it one way and come back as an [`ApplyTicket`].
//!
//! The physical [`sbft_storage::VersionedStore`] stays shared (it is
//! internally lock-striped); what the shards isolate is the *work* — the
//! OCC validation and write application — which is the serial bottleneck
//! this subsystem parallelises. Equivalence of sharded and unsharded
//! execution is property-tested in `tests/properties.rs` of the facade
//! crate and in [`committer`]'s own tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod committer;
pub mod router;
pub mod scheduler;
pub mod state;

pub use committer::{CommitOutcome, ShardedCommitter};
pub use router::{ShardId, ShardRouter, ShardSet};
pub use scheduler::{ApplyTicket, ShardScheduler};
pub use state::{ShardState, ShardStoreView, ShardTask};
