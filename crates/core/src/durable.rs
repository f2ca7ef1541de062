//! The shim node's durable log: which protocol steps are written ahead,
//! which of them wait for the fsync, and when a snapshot is cut.
//!
//! [`DurableLog`] is the one place of this crate that knows the
//! [`WalRecord`] shapes and the snapshot rhythm. The shim reports protocol
//! steps to it and charges what comes back — `(bytes written, whether the
//! step waited for an fsync)` — as an `Action::Persist`; on a restart it
//! asks for the replayed state. Without a backend (durability off) every
//! step is a no-op and there is nothing to replay.

use sbft_consensus::ConsensusMessage;
use sbft_crypto::CommitCertificate;
use sbft_durability::{codec, recover, MemWal, RecoveredState, WalRecord, WriteAheadLog};
use sbft_telemetry::{Counter, Registry};
use sbft_types::{Batch, DurabilityConfig, SeqNum, ShardPlan, ViewNumber};
use std::sync::Arc;

/// What one durable step cost: bytes appended, and whether the step
/// waited for them to be synced.
pub(crate) type Persisted = (u64, bool);

/// A shim node's write-ahead log with its snapshot rhythm and counters.
pub(crate) struct DurableLog {
    /// The backend, present when durability is on. [`Self::new`] attaches
    /// the deterministic in-memory one (what the simulator crashes and
    /// restarts); the thread runtime swaps in the buffered-file backend.
    pub(crate) wal: Option<Box<dyn WriteAheadLog>>,
    /// Snapshot period in committed sequence numbers (zero: never).
    snapshot_interval: u64,
    /// Sequence number of the last snapshot cut into the log; the log
    /// below it has been truncated.
    pub(crate) last_snapshot: SeqNum,
    /// Records appended (`durability.wal_appends`).
    pub(crate) wal_appends: Counter,
    /// Bytes reclaimed by snapshot truncation (`durability.snapshot_bytes`).
    pub(crate) snapshot_bytes: Counter,
    /// Committed batches re-seated from replay after a crash restart
    /// (`durability.replay_batches`).
    pub(crate) replay_batches: Counter,
}

impl DurableLog {
    pub(crate) fn new(config: &DurabilityConfig) -> Self {
        DurableLog {
            wal: config
                .enabled
                .then(|| Box::new(MemWal::new()) as Box<dyn WriteAheadLog>),
            snapshot_interval: config.snapshot_interval,
            last_snapshot: SeqNum(0),
            wal_appends: Counter::new(),
            snapshot_bytes: Counter::new(),
            replay_batches: Counter::new(),
        }
    }

    /// Re-homes the counters under `shim.<id>.durability.*`.
    pub(crate) fn register_metrics(&mut self, registry: &Registry, id: u32) {
        self.wal_appends = registry.counter(&format!("shim.{id}.durability.wal_appends"));
        self.snapshot_bytes = registry.counter(&format!("shim.{id}.durability.snapshot_bytes"));
        self.replay_batches = registry.counter(&format!("shim.{id}.durability.replay_batches"));
    }

    fn append(&mut self, record: &WalRecord) -> Option<u64> {
        let bytes = self.wal.as_mut()?.append(record);
        self.wal_appends.inc();
        Some(bytes)
    }

    /// Cuts a snapshot at `upto`: a synced mark, after which the log below
    /// the mark is truncated.
    fn cut_snapshot(&mut self, upto: SeqNum, view: ViewNumber) -> Option<u64> {
        let bytes = self.append(&WalRecord::SnapshotMark { upto, view })?;
        let wal = self.wal.as_mut()?;
        wal.sync();
        self.snapshot_bytes.add(wal.truncate_below(upto));
        self.last_snapshot = upto;
        Some(bytes)
    }

    /// An outgoing broadcast. Two kinds must survive a crash: a released
    /// proposal (buffered — it is recoverable from peers; an ids-only
    /// proposal releases its batch just like a full one) and this node's
    /// COMMIT vote (synced — the vote must not be forgotten once sent, or
    /// a restarted replica could vote differently in the same view).
    pub(crate) fn on_broadcast(&mut self, msg: &ConsensusMessage) -> Option<Persisted> {
        let (seq, view, digest) = match msg {
            ConsensusMessage::PrePrepare(p) => (p.seq, p.view, p.digest),
            ConsensusMessage::Commit(c) => {
                let bytes = self.append(&WalRecord::Vote {
                    seq: c.seq,
                    view: c.view,
                    digest: c.digest,
                })?;
                self.wal.as_mut()?.sync();
                return Some((bytes, true));
            }
            _ => return None,
        };
        let bytes = self.append(&WalRecord::Released { seq, view, digest })?;
        Some((bytes, false))
    }

    /// A locally committed batch with its certificate, synced; at the
    /// snapshot rhythm the commit also cuts a snapshot. The baselines have
    /// no recovery path and certify nothing (CFT's certificate is empty,
    /// NoShim has none): only certified commits are worth making durable.
    pub(crate) fn on_committed(
        &mut self,
        view: ViewNumber,
        seq: SeqNum,
        batch: &Batch,
        certificate: Option<&Arc<CommitCertificate>>,
    ) -> Option<Persisted> {
        let mut bytes = self.append(&WalRecord::Committed {
            seq,
            view,
            plan: ShardPlan::Unplanned,
            batch: batch.clone(),
            certificate: Arc::clone(certificate.filter(|c| !c.entries.is_empty())?),
        })?;
        if self.snapshot_interval > 0 && seq.0 >= self.last_snapshot.0 + self.snapshot_interval {
            bytes += self.cut_snapshot(seq, view)?;
        } else {
            self.wal.as_mut()?.sync();
        }
        Some((bytes, true))
    }

    /// A recovering node adopted a peer's checkpoint floor: a snapshot at
    /// the floor makes the durable log agree with the in-memory state the
    /// catch-up installed.
    pub(crate) fn on_caught_up(&mut self, up_to: SeqNum, view: ViewNumber) -> Option<Persisted> {
        if up_to <= self.last_snapshot {
            return None;
        }
        Some((self.cut_snapshot(up_to, view)?, true))
    }

    /// An installed view (buffered: losing it only costs rejoining in an
    /// older view, which the state transfer corrects).
    pub(crate) fn on_view_installed(&mut self, view: ViewNumber) -> Option<Persisted> {
        Some((self.append(&WalRecord::ViewInstalled { view })?, false))
    }

    /// The process dies: the unsynced tail is lost.
    pub(crate) fn crash(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            wal.lose_unsynced();
        }
    }

    /// What a restarted node resumes from: the bytes it reads back and the
    /// state they fold to ([`recover()`]).
    pub(crate) fn replay(&mut self) -> Option<(u64, RecoveredState)> {
        let records = self.wal.as_ref()?.replay();
        let bytes = records.iter().map(|r| codec::encode(r).len() as u64).sum();
        let state = recover(&records);
        self.replay_batches.add(state.entries.len() as u64);
        self.last_snapshot = state.stable_seq;
        Some((bytes, state))
    }
}
