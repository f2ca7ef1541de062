//! The append-only write-ahead log and its two backends.
//!
//! Records are *buffered* by [`WriteAheadLog::append`] and become durable
//! only at [`WriteAheadLog::sync`] — the fsync point of the durable-vote
//! rule (a replica syncs its `Vote` record before the `COMMIT` message
//! leaves, and its `Committed` record before acting on the commit). A
//! crash calls [`WriteAheadLog::lose_unsynced`]: the buffered tail is
//! gone, durable records survive.

use crate::codec;
use sbft_crypto::CommitCertificate;
use sbft_types::{Batch, Digest, SeqNum, ShardPlan, ViewNumber};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One durable event in a shim replica's life.
#[derive(Clone, PartialEq, Debug)]
pub enum WalRecord {
    /// The primary released a batch into consensus (`PREPREPARE`
    /// broadcast). Buffered: losing it costs nothing — clients retransmit.
    Released {
        /// Sequence number the batch was proposed at.
        seq: SeqNum,
        /// View of the proposal.
        view: ViewNumber,
        /// Digest of the proposed batch.
        digest: Digest,
    },
    /// This replica sent a signed `COMMIT` vote. Synced *before* the vote
    /// leaves the node, so a restarted replica can never vote twice for
    /// different batches at one sequence number.
    Vote {
        /// Sequence number voted for.
        seq: SeqNum,
        /// View of the vote.
        view: ViewNumber,
        /// Digest of the batch voted for.
        digest: Digest,
    },
    /// A batch committed locally with its certificate. Carries the full
    /// batch so replay is self-contained (no peer needed for anything at
    /// or below the durable suffix).
    Committed {
        /// Committed sequence number.
        seq: SeqNum,
        /// View it committed in.
        view: ViewNumber,
        /// Unread: every writer stores [`ShardPlan::Unplanned`] and
        /// `recover` ignores it. The field and its codec arm stay only
        /// because the repository benchmark builds this record; the next
        /// benchmark revision deletes both.
        plan: ShardPlan,
        /// The committed batch.
        batch: Batch,
        /// The `2f_R + 1`-signer commit certificate.
        certificate: Arc<CommitCertificate>,
    },
    /// A view was installed (new-view or view-change completion).
    ViewInstalled {
        /// The view now in effect.
        view: ViewNumber,
    },
    /// A featherweight snapshot was cut: everything at or below `upto` is
    /// covered by a stable checkpoint and the log was truncated to it.
    SnapshotMark {
        /// The snapshot boundary (inclusive).
        upto: SeqNum,
        /// View at the time of the cut.
        view: ViewNumber,
    },
}

impl WalRecord {
    /// Whether a snapshot at `upto` supersedes this record (it may be
    /// dropped when the log is truncated to the snapshot).
    #[must_use]
    fn superseded_by_snapshot(&self, upto: SeqNum) -> bool {
        match self {
            WalRecord::Released { seq, .. }
            | WalRecord::Vote { seq, .. }
            | WalRecord::Committed { seq, .. } => *seq <= upto,
            // Older snapshot marks are subsumed by the newer one.
            WalRecord::SnapshotMark { upto: old, .. } => *old < upto,
            // View records are a few bytes and latest-wins at recovery.
            WalRecord::ViewInstalled { .. } => false,
        }
    }
}

/// An append-only durable log of [`WalRecord`]s.
///
/// Implementations must keep append order within each durability class:
/// `replay` returns the durable records in the order they were appended.
pub trait WriteAheadLog: Send {
    /// Buffers `record` at the tail of the log and returns its encoded
    /// size in bytes (what the cost model charges for the write).
    fn append(&mut self, record: &WalRecord) -> u64;

    /// Makes every buffered record durable (the fsync).
    fn sync(&mut self);

    /// The durable records, in append order. Buffered (unsynced) records
    /// are *not* replayed — a crash would have lost them.
    fn replay(&self) -> Vec<WalRecord>;

    /// Drops durable records superseded by a snapshot at `upto`
    /// (inclusive) and returns the number of bytes dropped — the log
    /// retention boundary moving up to the last snapshot.
    fn truncate_below(&mut self, upto: SeqNum) -> u64;

    /// Number of durable records.
    fn durable_len(&self) -> usize;

    /// Number of buffered records that would be lost by a crash.
    fn unsynced_len(&self) -> usize;

    /// Crash semantics: the buffered tail is lost, durable records stay.
    fn lose_unsynced(&mut self);
}

/// The deterministic in-memory backend: the simulator's "disk". Durable
/// records survive a simulated crash ([`WriteAheadLog::lose_unsynced`]);
/// every append round-trips through the [`codec`] so the sim exercises
/// the same wire format the file backend writes.
#[derive(Default)]
pub struct MemWal {
    durable: Vec<(WalRecord, u64)>,
    buffered: Vec<(WalRecord, u64)>,
}

impl MemWal {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        MemWal::default()
    }

    /// Total encoded bytes held durably (tests and retention accounting).
    #[must_use]
    fn durable_bytes(&self) -> u64 {
        self.durable.iter().map(|(_, b)| *b).sum()
    }
}

impl WriteAheadLog for MemWal {
    fn append(&mut self, record: &WalRecord) -> u64 {
        let bytes = codec::encode(record);
        debug_assert_eq!(
            codec::decode(&bytes).as_ref(),
            Some(record),
            "WAL codec must round-trip every appended record"
        );
        let size = bytes.len() as u64;
        self.buffered.push((record.clone(), size));
        size
    }

    fn sync(&mut self) {
        self.durable.append(&mut self.buffered);
    }

    fn replay(&self) -> Vec<WalRecord> {
        self.durable.iter().map(|(r, _)| r.clone()).collect()
    }

    fn truncate_below(&mut self, upto: SeqNum) -> u64 {
        let before = self.durable_bytes();
        self.durable
            .retain(|(r, _)| !r.superseded_by_snapshot(upto));
        before - self.durable_bytes()
    }

    fn durable_len(&self) -> usize {
        self.durable.len()
    }

    fn unsynced_len(&self) -> usize {
        self.buffered.len()
    }

    fn lose_unsynced(&mut self) {
        self.buffered.clear();
    }
}

/// The buffered-file backend for the thread runtime.
///
/// Frames are `[len: u32 LE][checksum: u64 LE][payload]`; `sync` writes
/// the buffered frames and calls `sync_data` (the real fsync). Opening an
/// existing file replays its frames, stopping at the first torn or
/// corrupt frame — exactly what a crashed process would find on disk.
pub struct FileWal {
    file: File,
    path: PathBuf,
    durable: Vec<(WalRecord, u64)>,
    pending: Vec<(WalRecord, Vec<u8>)>,
}

impl FileWal {
    /// Opens (or creates) the log at `path`, replaying any intact frames
    /// already on disk. A torn or corrupt tail (a crash mid-write, a bit
    /// flip) is physically truncated at the first bad frame, so later
    /// appends land directly after the intact prefix instead of behind
    /// unreachable garbage.
    ///
    /// # Errors
    /// Returns the I/O error if the file cannot be opened or read.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let (durable, intact) = parse_frames(&raw);
        if intact < raw.len() {
            file.set_len(intact as u64)?;
            file.seek(SeekFrom::End(0))?;
            file.sync_data()?;
        }
        Ok(FileWal {
            file,
            path,
            durable,
            pending: Vec::new(),
        })
    }

    /// The path this log writes to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 12);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&codec::checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn rewrite(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        for (record, _) in &self.durable {
            let payload = codec::encode(record);
            self.file.write_all(&Self::frame(&payload))?;
        }
        self.file.sync_data()
    }
}

/// Parses the intact frame prefix of `raw`, returning the records and the
/// byte length of that prefix (where the first torn or corrupt frame — if
/// any — begins).
fn parse_frames(raw: &[u8]) -> (Vec<(WalRecord, u64)>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while raw.len() - pos >= 12 {
        let len = u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(raw[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let Some(end) = (pos + 12).checked_add(len) else {
            break;
        };
        if end > raw.len() {
            break; // torn tail write
        }
        let payload = &raw[pos + 12..end];
        if codec::checksum(payload) != sum {
            break; // corrupt frame: everything after it is suspect
        }
        let Some(record) = codec::decode(payload) else {
            break;
        };
        records.push((record, payload.len() as u64));
        pos = end;
    }
    (records, pos)
}

impl WriteAheadLog for FileWal {
    fn append(&mut self, record: &WalRecord) -> u64 {
        let payload = codec::encode(record);
        let size = payload.len() as u64;
        self.pending.push((record.clone(), payload));
        size
    }

    fn sync(&mut self) {
        for (record, payload) in self.pending.drain(..) {
            let size = payload.len() as u64;
            self.file
                .write_all(&Self::frame(&payload))
                .expect("WAL write failed");
            self.durable.push((record, size));
        }
        self.file.sync_data().expect("WAL fsync failed");
    }

    fn replay(&self) -> Vec<WalRecord> {
        self.durable.iter().map(|(r, _)| r.clone()).collect()
    }

    fn truncate_below(&mut self, upto: SeqNum) -> u64 {
        let before: u64 = self.durable.iter().map(|(_, b)| *b).sum();
        self.durable
            .retain(|(r, _)| !r.superseded_by_snapshot(upto));
        let after: u64 = self.durable.iter().map(|(_, b)| *b).sum();
        self.rewrite().expect("WAL truncation rewrite failed");
        before - after
    }

    fn durable_len(&self) -> usize {
        self.durable.len()
    }

    fn unsynced_len(&self) -> usize {
        self.pending.len()
    }

    fn lose_unsynced(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{ClientId, Key, NodeId, Operation, Signature, Transaction, TxnId};

    fn committed(seq: u64) -> WalRecord {
        WalRecord::Committed {
            seq: SeqNum(seq),
            view: ViewNumber(0),
            plan: ShardPlan::Unplanned,
            batch: Batch::single(Transaction::new(
                TxnId::new(ClientId(1), seq),
                vec![Operation::Read(Key(seq))],
            )),
            certificate: Arc::new(CommitCertificate::new(
                ViewNumber(0),
                SeqNum(seq),
                Digest::from_bytes([seq as u8; 32]),
                vec![(NodeId(0), Signature([1; 64]))],
            )),
        }
    }

    fn vote(seq: u64) -> WalRecord {
        WalRecord::Vote {
            seq: SeqNum(seq),
            view: ViewNumber(0),
            digest: Digest::from_bytes([seq as u8; 32]),
        }
    }

    #[test]
    fn crash_loses_the_buffered_tail_only() {
        let mut wal = MemWal::new();
        wal.append(&vote(1));
        wal.sync();
        wal.append(&vote(2));
        assert_eq!(wal.durable_len(), 1);
        assert_eq!(wal.unsynced_len(), 1);
        wal.lose_unsynced();
        assert_eq!(wal.replay(), vec![vote(1)]);
    }

    #[test]
    fn truncation_moves_the_retention_boundary_to_the_snapshot() {
        let mut wal = MemWal::new();
        for s in 1..=6 {
            wal.append(&vote(s));
            wal.append(&committed(s));
        }
        let mark = WalRecord::SnapshotMark {
            upto: SeqNum(4),
            view: ViewNumber(0),
        };
        wal.append(&mark);
        wal.sync();
        let dropped = wal.truncate_below(SeqNum(4));
        assert!(dropped > 0, "truncation must reclaim bytes");
        // Everything above the snapshot, and the mark itself as the new
        // floor, survives in append order.
        assert_eq!(
            wal.replay(),
            vec![vote(5), committed(5), vote(6), committed(6), mark]
        );
    }

    #[test]
    fn file_backend_round_trips_across_reopen() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sbft-wal-test-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).expect("open");
            wal.append(&vote(1));
            wal.append(&committed(1));
            wal.sync();
            wal.append(&vote(2)); // never synced: lost on crash
        }
        let wal = FileWal::open(&path).expect("reopen");
        assert_eq!(wal.replay(), vec![vote(1), committed(1)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_stops_at_a_torn_frame() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sbft-wal-torn-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).expect("open");
            wal.append(&vote(1));
            wal.append(&vote(2));
            wal.sync();
        }
        // Tear the last frame by chopping bytes off the end of the file.
        let raw = std::fs::read(&path).expect("read");
        std::fs::write(&path, &raw[..raw.len() - 5]).expect("tear");
        let wal = FileWal::open(&path).expect("reopen");
        assert_eq!(wal.replay(), vec![vote(1)], "only the intact prefix");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_backend_truncates_on_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sbft-wal-trunc-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = FileWal::open(&path).expect("open");
            for s in 1..=4 {
                wal.append(&committed(s));
            }
            wal.append(&WalRecord::SnapshotMark {
                upto: SeqNum(3),
                view: ViewNumber(0),
            });
            wal.sync();
            wal.truncate_below(SeqNum(3));
        }
        let wal = FileWal::open(&path).expect("reopen");
        let seqs: Vec<_> = wal
            .replay()
            .iter()
            .filter_map(|r| match r {
                WalRecord::Committed { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![SeqNum(4)]);
        let _ = std::fs::remove_file(&path);
    }
}
