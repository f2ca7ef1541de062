//! # sbft-workloads
//!
//! Workload generation for the ServerlessBFT evaluation.
//!
//! * [`zipf`] — the Zipfian key-popularity distribution YCSB uses, plus a
//!   uniform fallback.
//! * [`ycsb`] — the transaction generator: read / write / read-modify-write
//!   operations over the 600 k-record table, with configurable write
//!   fraction, operations per transaction, modeled execution cost
//!   (Figure 6(v) and Figure 8) and a controllable conflict rate
//!   (Figure 6(xi)).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ycsb;
pub mod zipf;

pub use ycsb::{KeyDistribution, YcsbWorkload};
pub use zipf::{UniformKeys, ZipfianKeys};
