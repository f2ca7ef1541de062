//! # sbft-storage
//!
//! The trusted on-premise data-store `S` of the serverless-edge
//! architecture, plus the pieces the verifier and the executors need to
//! interact with it:
//!
//! * [`kvstore`] — a sharded, versioned, thread-safe key-value store. Every
//!   write bumps the key's version; the verifier's concurrency-control
//!   check compares the versions an executor read against the current
//!   versions before applying a transaction's writes.
//! * [`occ`] — the concurrency-control check (`ccheck`, Figure 3 lines
//!   30–35): *"if the read sets match, update the write sets"*.
//! * [`executor_access`] — the read-only access path executors use to fetch
//!   read-write-set values ("executors do not write to the storage",
//!   Section IV-C), including access statistics.
//! * [`geo`] — the region-partitioned view: every shard's partition is
//!   homed in a region of the deployment's [`sbft_types::RegionPartition`],
//!   and accesses are classified local vs cross-region so latency-aware
//!   runtimes can charge the difference.
//! * [`ycsb`] — population of the store with the 600 k-record YCSB table
//!   used throughout the evaluation.
//! * [`stats`] — operation counters exposed for the experiments.
//!
//! The data-store and its wrapper (the verifier) are trusted and honest by
//! assumption (Section III), so this crate contains no byzantine behaviour;
//! all fault injection lives in the shim and executor layers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod executor_access;
pub mod geo;
pub mod kvstore;
pub mod occ;
pub mod stats;
pub mod ycsb;

pub use executor_access::StorageReader;
pub use geo::GeoPartitionedStore;
pub use kvstore::{StoreEntry, VersionedStore};
pub use occ::{ConcurrencyChecker, OccOutcome};
pub use stats::StorageStats;
pub use ycsb::YcsbTable;
