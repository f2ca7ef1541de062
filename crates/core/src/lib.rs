//! # sbft-core
//!
//! The **ServerlessBFT** protocol — the paper's primary contribution: a
//! Byzantine fault-tolerant transactional flow between edge devices (the
//! shim), serverless executors, a trusted verifier and an on-premise
//! data-store.
//!
//! The crate is organised around the roles of Figure 3 and Figure 4:
//!
//! * [`client`] — the client role: sign and submit transactions, wait for
//!   the verifier's `RESPONSE`, re-transmit to the verifier with
//!   exponential back-off when the client timer `τ_m` expires.
//! * [`shim`] — the shim-node role: batch client requests, run the ordering
//!   protocol (PBFT by default), and, once a batch commits, spawn
//!   serverless executors carrying the execution certificate `C`. Also
//!   implements the node-side recovery paths (`ERROR`/`REPLACE`/`ACK`
//!   handling, the re-transmission timer `Υ`) and decentralized spawning.
//! * [`verifier`] — the trusted verifier `V`: collect `VERIFY` messages,
//!   wait for `f_E + 1` matching results, enforce sequence order with
//!   `k_max` and the pending list `π`, run the concurrency-control check
//!   against storage, reply to clients, detect byzantine aborts, and drive
//!   the request-suppression recovery of Figure 4.
//! * [`planner`] — the best-effort conflict-avoidance planner used when
//!   read-write sets are known (Section VI-C).
//! * [`attacks`] — the attack-injection layer that turns honest shim nodes
//!   byzantine (request suppression, nodes in dark, equivocation, fewer /
//!   duplicate / delayed spawning, verifier flooding).
//! * [`events`] — the architecture-wide message and action vocabulary that
//!   the simulator (`sbft-sim`) and the thread runtime (`sbft-runtime`)
//!   interpret.
//! * [`system`] — the builder that assembles a whole deployment from a
//!   [`sbft_types::SystemConfig`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod attacks;
pub mod client;
mod durable;
pub mod events;
pub mod planner;
pub mod shim;
pub mod system;
pub mod verifier;

pub use attacks::{AttackInjector, ShimAttack};
pub use client::ClientRole;
pub use events::{Action, ClientRequest, Destination, Envelope, ProtocolMessage, ProtocolTimer};
pub use planner::BestEffortPlanner;
pub use shim::ShimNode;
pub use system::{System, SystemBuilder};
pub use verifier::Verifier;
