//! # sbft-serverless
//!
//! The simulated serverless cloud: everything that stands in for AWS Lambda
//! in the original system (the substitution is documented in `DESIGN.md`).
//!
//! * [`messages`] — the `EXECUTE` and `VERIFY` messages exchanged between
//!   the shim, the executors and the verifier (Figure 3, lines 9 and 20).
//! * [`executor`] — the serverless function itself: verify the certificate
//!   `C`, execute the batch, fetch read-write sets from storage, and send
//!   the result to the verifier. Executors are stateless and never write to
//!   the storage (Section IV-C).
//! * [`faults`] — byzantine executor behaviours (crash, wrong result,
//!   duplicate `VERIFY` flooding) injected per executor, plus the
//!   [`RegionOutage`] scenario that takes whole cloud regions offline.
//! * [`cloud`] — the cloud control plane: spawn requests, per-region
//!   placement, cold-start latency, the provider's concurrency limit (the
//!   paper could not scale past 21 parallel executors), and billing.
//! * [`invoker`] — the invoker deployed on every shim node that turns a
//!   committed batch into spawn requests: round-robin over the configured
//!   regions by default, or — under geo-partitioned storage — pinned to a
//!   `SingleHome` batch's home region with deterministic fallback.
//! * [`billing`] — the pay-per-use cost model used for Figure 8's
//!   cents-per-kilo-transaction comparison.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod billing;
pub mod cloud;
pub mod executor;
pub mod faults;
pub mod invoker;
pub mod messages;

pub use billing::{CostModel, CostReport};
pub use cloud::{ServerlessCloud, SpawnOutcome, SpawnRequest};
pub use executor::{Executor, ExecutorOutput};
pub use faults::{CrashRestart, ExecutorBehavior, RegionOutage};
pub use invoker::{Invoker, SpawnPlan};
pub use messages::{ExecuteRequest, VerifyMessage};
