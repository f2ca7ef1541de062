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
//! * [`sharding`] — the sharded execution subsystem (shard router,
//!   per-shard state, sharded committer and worker-pool scheduler).
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
//! The verifier's commit path — the concurrency-control check (`ccheck`)
//! and write application for every validated batch — is partitioned over
//! `N` execution shards by [`sharding::ShardRouter`], removing the single
//! verifier/storage funnel that capped the paper's deployment. Shard
//! count is configured per deployment and defaults to 1 (the paper's
//! original single-funnel behaviour):
//!
//! ```
//! use serverless_bft::core::SystemBuilder;
//! use serverless_bft::sim::{SimHarness, SimParams};
//! use serverless_bft::types::{ShardingConfig, SystemConfig};
//!
//! let mut config = SystemConfig::with_shim_size(4);
//! config.workload.num_records = 1_000;
//! // Partition the commit path over 4 shards.
//! config.sharding = ShardingConfig::with_shards(4);
//!
//! let system = SystemBuilder::new(config).clients(10).build();
//! let metrics = SimHarness::new(system, SimParams::default()).run();
//! assert!(metrics.committed_txns > 0);
//! ```
//!
//! Transactions whose read-write sets stay within one shard validate and
//! apply fully in parallel with other shards; cross-shard transactions
//! take a two-phase, lock-ordered path so OCC semantics match the
//! unsharded verifier exactly. `cargo run --release -p sbft-bench --bin
//! fig6_shards` sweeps shard counts and shows committed-transaction
//! throughput scaling with shards on a conflict-free uniform YCSB
//! workload.

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
