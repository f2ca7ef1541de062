//! # sbft-sim
//!
//! A deterministic discrete-event simulator for the serverless-edge
//! architecture. This is the evaluation substrate standing in for the
//! paper's OCI virtual machines, 10 GiB NICs and AWS Lambda deployment
//! (substitution documented in `DESIGN.md`): every experiment in the
//! paper's Section IX is regenerated by driving a [`sbft_core::System`]
//! through this simulator with the corresponding parameters.
//!
//! * [`network`] — propagation + transmission delay between components,
//!   using the region latency table of [`sbft_types::Region`] and a
//!   configurable NIC bandwidth.
//! * [`cpu`] — a service-station model of each component: per-message
//!   processing costs (signatures, MACs, per-byte hashing/serialisation)
//!   served by the node's cores, which is what produces saturation,
//!   batching sweet spots and the core-count scaling of Figure 6(ix).
//! * [`metrics`] — throughput, latency percentiles, abort rates, message
//!   and spawn accounting, and the cost report of Figure 8.
//! * [`harness`] — the event loop: interprets the actions of the protocol
//!   roles, runs the closed-loop client population, injects the configured
//!   attacks, and produces a [`metrics::RunMetrics`].
//! * [`faults`] — composable chaos: a declarative [`faults::FaultPlan`]
//!   of per-link loss/duplication/delay, directed partitions, disk-lag
//!   stragglers and simultaneous crash-restarts, deterministic in the
//!   run seed and surfaced as `faults.*` counters.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cpu;
pub mod faults;
pub mod harness;
pub mod metrics;
pub mod network;
mod queue;

pub use cpu::CpuModel;
pub use faults::{DiskLag, FaultPlan, FaultState, LinkFaults, LinkRule, PartitionWindow};
pub use harness::{SimHarness, SimParams};
pub use metrics::{LatencyStats, RunMetrics};
pub use network::NetworkModel;
