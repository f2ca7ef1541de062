//! # sbft-runtime
//!
//! A thread-based local emulation of the serverless-edge architecture: the
//! same role state machines as the simulator, but driven by real OS
//! threads and `std::sync::mpsc` channels instead of a virtual clock. This
//! is the "local multi-process emulation" counterpart to the paper's OCI +
//! AWS Lambda deployment: every shim node, the verifier and the executor
//! pool run on their own thread and exchange the same `ProtocolMessage`s.
//!
//! Scope: the thread runtime demonstrates the live, fault-free transaction
//! flow (client → shim consensus → executor pool → verifier → client) and
//! is used by the examples and integration tests. Timer-driven recovery,
//! byzantine attacks and the evaluation experiments run on the
//! deterministic simulator (`sbft-sim`), where they are reproducible.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cluster;

pub use cluster::{ClusterReport, LocalCluster};
