//! Telemetry for the serverless-BFT pipeline: batch lifecycle tracing, a
//! named metrics registry, log-scale latency histograms and deterministic
//! exporters.
//!
//! Three layers, usable independently:
//!
//! * [`Tracer`] / [`TraceSink`] — per-batch span events at every pipeline
//!   edge (shim ingest through client response), emitted by the
//!   interpreters (sim harness and thread runtime), not the pure role
//!   state machines, so role logic stays deterministic and
//!   instrumentation-free. The default sink-less tracer costs one branch
//!   per emit.
//! * [`Registry`] — shared-handle [`Counter`]s and [`Histogram`]s under
//!   dotted names; components register at build time and keep their
//!   handle, the run harness reads final values through the registry.
//! * [`chrome_trace`] / [`stage_breakdown`] — a Chrome `trace_event` JSON
//!   dump (loadable in `chrome://tracing` / Perfetto) and the per-stage
//!   latency table whose rows telescope to the end-to-end commit latency.
//!
//! See `OBSERVABILITY.md` at the repo root for the span taxonomy and
//! naming conventions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod export;
mod histogram;
mod registry;
mod trace;

pub use export::{chrome_trace, render_stage_table, stage_breakdown, StageRow, INTERVALS};
pub use histogram::Histogram;
pub use registry::{Counter, Metric, Registry};
pub use trace::{MemorySink, SpanEvent, Stage, TraceId, TraceSink, Tracer};
