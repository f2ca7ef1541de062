//! # serverless-bft
//!
//! Facade crate for the ServerlessBFT reproduction ("Reliable Transactions
//! in Serverless-Edge Architecture", ICDE 2023): re-exports the workspace
//! crates under one roof so examples, integration tests and downstream
//! users can depend on a single package.
//!
//! * [`types`] — shared identifiers, transactions, configuration.
//! * [`crypto`] — SHA-256, HMAC, simulated signatures, certificates.
//! * [`storage`] — the on-premise versioned key-value store and YCSB table.
//! * [`durability`] — the write-ahead log, featherweight snapshots and the
//!   `recover()` path for crash-restarted replicas (see `RECOVERY.md`).
//! * [`consensus`] — PBFT, the CFT baseline and the NoShim baseline.
//! * [`serverless`] — the simulated serverless cloud, executors and billing.
//! * [`core`] — the ServerlessBFT protocol roles (client, shim, verifier),
//!   conflict handling, attacks and the system builder.
//! * [`sharding`] — the raw thread-scaling instrument for the sharded
//!   commit path (lock-ordered committer and worker-pool scheduler); it
//!   re-exports the shard router of [`types`].
//! * [`sim`] — the discrete-event evaluation harness.
//! * [`runtime`] — the thread-based local emulation.
//! * [`workloads`] — YCSB workload generation.
//! * [`telemetry`] — batch lifecycle tracing, the metrics registry and
//!   latency histograms (see `OBSERVABILITY.md`).
//!
//! ## Quick start
//!
//! ```
//! use serverless_bft::core::SystemBuilder;
//! use serverless_bft::sim::{SimHarness, SimParams};
//! use serverless_bft::types::{SimDuration, SystemConfig};
//!
//! // A small 4-node shim with 3 executors per batch.
//! let mut config = SystemConfig::with_shim_size(4);
//! config.workload.num_records = 1_000;
//! config.workload.batch_size = 10;
//!
//! let system = SystemBuilder::new(config).clients(20).build();
//! let params = SimParams {
//!     duration: SimDuration::from_millis(200),
//!     warmup: SimDuration::from_millis(50),
//!     num_clients: 20,
//!     ..SimParams::default()
//! };
//! let metrics = SimHarness::new(system, params).run();
//! assert!(metrics.committed_txns > 0);
//! ```
//!
//! ## Sharded execution
//!
//! The key space is partitioned over `N` shards by
//! [`types::ShardRouter`]. The primary can assemble per-shard ordering
//! lanes from declared read-write sets, and storage can be
//! geo-partitioned by shard. The verifier still applies every validated
//! batch itself, one transaction at a time in batch order, and the
//! simulator prices each batch's concurrency-control check (`ccheck`) on
//! its one apply station, whatever the shard count. Shard count is
//! configured per deployment and defaults to 1:
//!
//! ```
//! use serverless_bft::core::SystemBuilder;
//! use serverless_bft::sim::{SimHarness, SimParams};
//! use serverless_bft::types::{ShardingConfig, SystemConfig};
//!
//! let mut config = SystemConfig::with_shim_size(4);
//! config.workload.num_records = 1_000;
//! // Four shards: the verifier still applies on one thread.
//! config.sharding = ShardingConfig::with_shards(4);
//!
//! let system = SystemBuilder::new(config).clients(10).build();
//! let metrics = SimHarness::new(system, SimParams::default()).run();
//! assert!(metrics.committed_txns > 0);
//! ```
//!
//! OCC outcomes do not depend on the shard count. `cargo run --release
//! -p sbft-bench --bin fig6_shards` prints the wall-clock thread scaling
//! of the [`sharding`] worker pool, which no runtime applies through.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use sbft_consensus as consensus;
pub use sbft_core as core;
pub use sbft_crypto as crypto;
pub use sbft_durability as durability;
pub use sbft_runtime as runtime;
pub use sbft_serverless as serverless;
pub use sbft_sharding as sharding;
pub use sbft_sim as sim;
pub use sbft_storage as storage;
pub use sbft_telemetry as telemetry;
pub use sbft_types as types;
pub use sbft_workloads as workloads;
