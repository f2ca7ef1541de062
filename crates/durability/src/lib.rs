//! Durable consensus state for shim replicas: an append-only write-ahead
//! log, featherweight snapshots, and the `recover()` fold that rebuilds a
//! crashed replica from its durable records.
//!
//! The paper's replicas are purely in-memory; this crate adds the
//! persistence layer that makes crash-restart a first-class fault. Three
//! pieces:
//!
//! * [`WalRecord`] / [`WriteAheadLog`] — the append-only log of released
//!   batches, commit votes, commit certificates and view changes. Records
//!   are buffered until [`WriteAheadLog::sync`] (the fsync point); a crash
//!   loses the buffered tail only ([`WriteAheadLog::lose_unsynced`]).
//! * Snapshots — a [`WalRecord::SnapshotMark`] cut at the featherweight
//!   checkpoint boundary. The snapshot carries no application state
//!   (shim nodes hold certificates, not data), so marking the boundary
//!   and truncating the log below it *is* the snapshot.
//! * [`recover()`] — folds the durable records back into the committed
//!   entries and view a restarted replica resumes from; the missing
//!   suffix is then state-transferred from peers by the consensus layer.
//!
//! Two backends: [`MemWal`] is the deterministic in-memory "disk" the
//! simulator crashes and restarts; [`FileWal`] is the buffered-file
//! backend for the thread runtime, with a checksummed frame format that
//! survives torn tail writes. The wire format is the hand-rolled [`codec`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod recover;
pub mod wal;

pub use recover::{recover, RecoveredEntry, RecoveredState};
pub use wal::{FileWal, MemWal, WalRecord, WriteAheadLog};
