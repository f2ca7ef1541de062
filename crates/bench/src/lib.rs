//! # sbft-bench
//!
//! The experiment harness that regenerates every figure of the paper's
//! evaluation (Section IX), plus Criterion micro-benchmarks for the hot
//! paths (hashing, signatures, PBFT message processing, the storage
//! engine).
//!
//! Each figure has a dedicated binary in `src/bin/` (see `DESIGN.md` for
//! the experiment index). All binaries share the [`experiment`] module:
//! it builds a scaled-down configuration (the paper's 180 s runs with up
//! to 88 k clients become a few hundred simulated milliseconds with a few
//! hundred clients, about 1:100; see the module docs), runs it on the
//! discrete-event simulator and prints one row per data point through
//! [`run_sweep`] — for the figures in the fixed format of
//! [`FIGURE_COLUMNS`]:
//!
//! ```text
//! figure, series, x, throughput_tps, avg_latency_s, p50_s, p99_s, abort_rate, cents_per_ktxn
//! ```
//!
//! The smoke sweeps CI runs (`chaos_points`, `recovery_points`,
//! `planner_points`, `placement_points`, `divergence_sweep`,
//! `egress_points`) check their own invariants and exit non-zero when one
//! breaks.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod experiment;

pub use experiment::{
    chaos_points, divergence_points, find_row, liveness_points, placement_points, planner_points,
    recovery_points, run_point_traced, run_sweep, PointConfig, PointResult, FIGURE_COLUMNS,
};
