//! # sbft-sharding
//!
//! The raw thread-scaling instrument for the sharded commit path: a
//! worker pool that applies committed batches over `N` shards on real OS
//! threads. No runtime applies through it. The verifier is the one
//! applier on both runtimes and calls
//! [`sbft_storage::ConcurrencyChecker::check_and_apply`] itself, in batch
//! order; the simulator prices that `ccheck` on one apply station from
//! the verifier's `Ccheck` announcements. What remains here is what
//! `fig6_shards` and the repo benchmark's `sharding.*` figures drive:
//!
//! * [`committer`] — [`ShardedCommitter`]: `ccheck` under the execution
//!   locks of every shard a transaction touches, taken in ascending shard
//!   order, so OCC outcomes are exactly those of one serial applier.
//! * [`scheduler`] — [`ShardScheduler`]: a worker pool sized to the
//!   configured cores that drains per-shard FIFO queues in parallel.
//!   Batches enter it one way and come back as an [`ApplyTicket`].
//!
//! The `key → shard` map, [`ShardRouter`], lives in `sbft-types` beside
//! [`ShardId`] and [`ShardSet`], and is re-exported here. Equivalence of
//! the pool and serial `ccheck` is property-tested in
//! `tests/properties.rs` of the facade crate and in the modules' own
//! tests.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod committer;
pub mod scheduler;

pub use committer::ShardedCommitter;
pub use sbft_types::{ShardId, ShardRouter, ShardSet};
pub use scheduler::{ApplyTicket, ShardScheduler};
