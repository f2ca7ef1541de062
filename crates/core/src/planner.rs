//! Best-effort conflict avoidance (Section VI-C) and the ordering-time
//! shard planner.
//!
//! When read-write sets are known before execution, the primary borrows the
//! queueing strategy of deterministic databases (Calvin, QueCC, Q-Store):
//! it keeps a *logical* lock map over data items (no values, just who holds
//! them), only spawns executors for a batch once it has logically locked
//! every item the batch writes, dispatches non-conflicting batches in
//! parallel, and releases the locks when the verifier confirms the batch.
//! This avoids the aborts that plague the unknown-read-write-set case.
//!
//! # Ordering-time vs. apply-time planning
//!
//! The [`BestEffortPlanner`] above acts *after commit* (it gates executor
//! spawning); the **shard planner** acts *before consensus*: the shim
//! classifies each transaction's declared read-write set against the
//! shard map ([`home_shard`]) and assembles per-shard ordering lanes
//! (katana-style per-shard mempools), so a batch released from a home
//! lane touches one shard and cross-home work gathers in the cross lane
//! instead of being discovered late. Nothing replicates the result: a
//! component that needs a batch's home derives it from the batch where
//! it is used ([`batch_home`]), so there is no tag for a byzantine
//! primary to forge (see `sbft_types::plan`).

use sbft_types::{Batch, Key, Operation, RwSetKeys, SeqNum, ShardPlan, ShardRouter, Transaction};
use std::collections::{BTreeMap, BTreeSet};

/// Classifies one transaction at ordering time: the lane it assembles
/// in is the home shard of its declared (or, failing that, inferred)
/// read-write set. Exact for YCSB-style transactions whose keys are
/// literal; a mis-declared set costs only a lane choice, never
/// correctness.
#[must_use]
pub fn home_shard(txn: &Transaction, router: &ShardRouter) -> ShardPlan {
    router.plan_keys(planned_keys(txn))
}

/// The home of a whole batch: [`home_shard`]'s classification over the
/// keys of every transaction. A batch released from home lane `s` derives
/// to `SingleHome(s)`; one from the cross lane to `CrossHome`, or to
/// `Unplanned` when none of its transactions names a key.
#[must_use]
pub fn batch_home(batch: &Batch, router: &ShardRouter) -> ShardPlan {
    router.plan_keys(batch.iter().flat_map(planned_keys))
}

/// A transaction's declared keys, or its operations' keys when it
/// declares none.
fn planned_keys(txn: &Transaction) -> impl Iterator<Item = Key> + '_ {
    let declared = txn
        .declared_rwset
        .iter()
        .flat_map(|keys| keys.read_keys.iter().chain(&keys.write_keys).copied());
    let inferred = txn
        .declared_rwset
        .is_none()
        .then(|| txn.ops.iter().map(Operation::key))
        .into_iter()
        .flatten();
    declared.chain(inferred)
}

/// Lock footprint of one batch: every key read and written by any of its
/// transactions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchFootprint {
    /// Keys read by the batch.
    pub reads: BTreeSet<Key>,
    /// Keys written by the batch.
    pub writes: BTreeSet<Key>,
}

impl BatchFootprint {
    /// Builds the footprint from the declared read-write sets of a batch's
    /// transactions.
    #[must_use]
    pub fn from_rwsets<'a, I: IntoIterator<Item = &'a RwSetKeys>>(rwsets: I) -> Self {
        let mut fp = BatchFootprint::default();
        for rw in rwsets {
            fp.reads.extend(rw.read_keys.iter().copied());
            fp.writes.extend(rw.write_keys.iter().copied());
        }
        fp
    }

    /// Whether two footprints conflict (shared item with at least one
    /// writer).
    #[must_use]
    pub fn conflicts_with(&self, other: &BatchFootprint) -> bool {
        self.writes.intersection(&other.writes).next().is_some()
            || self.writes.intersection(&other.reads).next().is_some()
            || self.reads.intersection(&other.writes).next().is_some()
    }
}

/// The primary's conflict-avoidance planner.
#[derive(Debug, Default)]
pub struct BestEffortPlanner {
    /// Batches whose executors have been spawned and whose locks are held.
    in_flight: BTreeMap<SeqNum, BatchFootprint>,
    /// Committed batches waiting for their conflicts to clear, in sequence
    /// order.
    waiting: BTreeMap<SeqNum, BatchFootprint>,
    /// Highest sequence number completed so far. The verifier validates
    /// in sequence order, so nothing at or below it is ever dispatched
    /// again (the idempotence check, in one word instead of a set that
    /// grew by one entry per batch).
    completed_through: SeqNum,
}

impl BestEffortPlanner {
    /// Creates an empty planner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of batches currently executing (locks held).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    fn dispatchable(&self, seq: SeqNum, fp: &BatchFootprint) -> bool {
        // A batch waits only for *earlier* batches it conflicts with,
        // dispatched or not: that is the shim's commit order for those
        // items. It never waits for a later one — consensus slots commit
        // out of order under pipelining, the verifier holds a later batch
        // in π until this one has applied, and waiting here for that later
        // batch to complete would close a cycle only a client timeout
        // breaks. Overtaken, the later batch at worst aborts on a stale
        // read (reads are validated under `KnownRwSets`).
        !self
            .in_flight
            .range(..seq)
            .chain(self.waiting.range(..seq))
            .any(|(_, earlier)| earlier.conflicts_with(fp))
    }

    /// Registers a newly committed batch and returns every batch (in
    /// sequence order) that may be dispatched now.
    pub fn enqueue(&mut self, seq: SeqNum, footprint: BatchFootprint) -> Vec<SeqNum> {
        if seq <= self.completed_through || self.in_flight.contains_key(&seq) {
            return Vec::new();
        }
        self.waiting.insert(seq, footprint);
        self.release_ready()
    }

    /// Marks a batch as validated by the verifier, releasing its logical
    /// locks, and returns every batch that may be dispatched now. A batch
    /// that was still waiting (it was re-spawned around the planner by the
    /// recovery path) is dropped rather than dispatched later.
    pub fn complete(&mut self, seq: SeqNum) -> Vec<SeqNum> {
        // (A batch is in at most one of the two maps.)
        if self.in_flight.remove(&seq).is_some() || self.waiting.remove(&seq).is_some() {
            self.completed_through = self.completed_through.max(seq);
        }
        self.release_ready()
    }

    /// Moves every currently dispatchable waiting batch to in-flight.
    fn release_ready(&mut self) -> Vec<SeqNum> {
        let mut released = Vec::new();
        loop {
            let next = self
                .waiting
                .iter()
                .find(|(seq, fp)| self.dispatchable(**seq, fp))
                .map(|(seq, _)| *seq);
            match next {
                Some(seq) => {
                    let fp = self.waiting.remove(&seq).expect("present");
                    self.in_flight.insert(seq, fp);
                    released.push(seq);
                }
                None => break,
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(reads: &[u64], writes: &[u64]) -> BatchFootprint {
        BatchFootprint {
            reads: reads.iter().copied().map(Key).collect(),
            writes: writes.iter().copied().map(Key).collect(),
        }
    }

    #[test]
    fn non_conflicting_batches_dispatch_immediately_and_in_parallel() {
        let mut p = BestEffortPlanner::new();
        assert_eq!(p.enqueue(SeqNum(1), fp(&[1], &[2])), vec![SeqNum(1)]);
        assert_eq!(p.enqueue(SeqNum(2), fp(&[3], &[4])), vec![SeqNum(2)]);
        assert_eq!(p.in_flight(), 2);
        assert_eq!(p.waiting.len(), 0);
    }

    #[test]
    fn conflicting_batch_waits_for_completion() {
        let mut p = BestEffortPlanner::new();
        assert_eq!(p.enqueue(SeqNum(1), fp(&[], &[10])), vec![SeqNum(1)]);
        // Batch 2 reads what batch 1 writes.
        assert!(p.enqueue(SeqNum(2), fp(&[10], &[])).is_empty());
        assert_eq!(p.waiting.len(), 1);
        // Completion of batch 1 releases batch 2.
        assert_eq!(p.complete(SeqNum(1)), vec![SeqNum(2)]);
        assert_eq!(p.in_flight(), 1);
    }

    #[test]
    fn later_batch_cannot_overtake_earlier_conflicting_waiter() {
        let mut p = BestEffortPlanner::new();
        let _ = p.enqueue(SeqNum(1), fp(&[], &[5]));
        // Batch 2 conflicts with 1 (waits). Batch 3 conflicts with 2 but
        // not with 1 — it must still wait behind 2 to preserve order.
        assert!(p.enqueue(SeqNum(2), fp(&[5], &[6])).is_empty());
        assert!(p.enqueue(SeqNum(3), fp(&[6], &[])).is_empty());
        let released = p.complete(SeqNum(1));
        assert_eq!(released, vec![SeqNum(2)], "3 stays blocked behind 2");
        assert_eq!(p.complete(SeqNum(2)), vec![SeqNum(3)]);
    }

    #[test]
    fn independent_batch_overtakes_blocked_ones() {
        let mut p = BestEffortPlanner::new();
        let _ = p.enqueue(SeqNum(1), fp(&[], &[5]));
        assert!(p.enqueue(SeqNum(2), fp(&[5], &[])).is_empty());
        // Batch 3 touches completely different keys: it can run now.
        assert_eq!(p.enqueue(SeqNum(3), fp(&[7], &[8])), vec![SeqNum(3)]);
    }

    #[test]
    fn batch_never_waits_on_a_later_in_flight_batch() {
        // Slot 2 reached its commit quorum before slot 1 and was
        // dispatched. The verifier holds 2 in π until 1 applies, so 1 must
        // be released at once, not after `complete(2)`.
        let mut p = BestEffortPlanner::new();
        assert_eq!(p.enqueue(SeqNum(2), fp(&[5], &[6])), vec![SeqNum(2)]);
        assert_eq!(p.enqueue(SeqNum(1), fp(&[], &[5])), vec![SeqNum(1)]);
        assert_eq!(p.in_flight(), 2);
        // Later batches still queue behind both.
        assert!(p.enqueue(SeqNum(3), fp(&[6], &[])).is_empty());
        assert!(p.complete(SeqNum(1)).is_empty());
        assert_eq!(p.complete(SeqNum(2)), vec![SeqNum(3)]);
    }

    #[test]
    fn completing_a_waiting_batch_drops_it() {
        // Batch 2 was re-spawned around the planner and validated while
        // it still waited here: it must not be dispatched afterwards.
        let mut p = BestEffortPlanner::new();
        let _ = p.enqueue(SeqNum(1), fp(&[], &[5]));
        assert!(p.enqueue(SeqNum(2), fp(&[5], &[])).is_empty());
        assert!(p.complete(SeqNum(2)).is_empty());
        assert!(p.complete(SeqNum(1)).is_empty());
        assert_eq!((p.in_flight(), p.waiting.len()), (0, 0));
        // Everything at or below a completed batch is done, unknown
        // sequence numbers do not move that mark.
        assert!(p.complete(SeqNum(9)).is_empty());
        assert!(p.enqueue(SeqNum(1), fp(&[], &[5])).is_empty());
        assert_eq!(p.enqueue(SeqNum(3), fp(&[], &[5])), vec![SeqNum(3)]);
    }

    #[test]
    fn write_write_conflicts_serialize() {
        let mut p = BestEffortPlanner::new();
        let _ = p.enqueue(SeqNum(1), fp(&[], &[9]));
        assert!(p.enqueue(SeqNum(2), fp(&[], &[9])).is_empty());
        assert_eq!(p.complete(SeqNum(1)), vec![SeqNum(2)]);
    }

    #[test]
    fn read_read_sharing_is_not_a_conflict() {
        let mut p = BestEffortPlanner::new();
        let _ = p.enqueue(SeqNum(1), fp(&[3], &[]));
        assert_eq!(p.enqueue(SeqNum(2), fp(&[3], &[])), vec![SeqNum(2)]);
    }

    #[test]
    fn duplicate_enqueue_and_complete_are_idempotent() {
        let mut p = BestEffortPlanner::new();
        assert_eq!(p.enqueue(SeqNum(1), fp(&[], &[1])), vec![SeqNum(1)]);
        assert!(p.enqueue(SeqNum(1), fp(&[], &[1])).is_empty());
        assert_eq!(p.complete(SeqNum(1)), Vec::<SeqNum>::new());
        assert!(p.complete(SeqNum(1)).is_empty());
        assert!(
            p.enqueue(SeqNum(1), fp(&[], &[1])).is_empty(),
            "completed batches never re-dispatch"
        );
    }

    #[test]
    fn home_shard_uses_declared_then_inferred_rwsets() {
        use sbft_types::{ClientId, Operation, ShardPlan, TxnId};
        let router = ShardRouter::new(8);
        let k = Key(9);
        let home = router.shard_of(k);
        // Inferred: a literal single-key RMW is single-home.
        let txn = Transaction::new(
            TxnId::new(ClientId(0), 0),
            vec![Operation::ReadModifyWrite(k, 1)],
        );
        assert_eq!(home_shard(&txn, &router), ShardPlan::SingleHome(home));
        // Declared sets win over the operation list.
        let other = (10..)
            .map(Key)
            .find(|x| router.shard_of(*x) != home)
            .unwrap();
        let declared = txn.with_declared_rwset(RwSetKeys::new([k], [other]));
        assert_eq!(home_shard(&declared, &router), ShardPlan::CrossHome);
    }

    #[test]
    fn a_laned_batch_derives_its_lane_before_and_after_pruning() {
        use sbft_consensus::Batcher;
        use sbft_crypto::CryptoProvider;
        use sbft_types::{
            ClientId, ComponentId, Operation, Signature, SimDuration, SimTime, TxnId,
        };
        let router = ShardRouter::new(4);
        let provider = CryptoProvider::new(11);
        let home = router.shard_of(Key(1));
        let mut keys = (1..).map(Key).filter(|k| router.shard_of(*k) == home);
        let mut b = Batcher::with_shard_lanes(2, SimDuration::from_millis(10), 4);
        let mut released = None;
        for client in 0..2u32 {
            let txn = Transaction::new(
                TxnId::new(ClientId(client), 0),
                vec![Operation::ReadModifyWrite(keys.next().unwrap(), 1)],
            );
            let digest = sbft_crypto::digest_u64s("planner-test", &[u64::from(client)]);
            // The second client's signature is forged.
            let signature = match client {
                0 => provider
                    .handle(ComponentId::Client(ClientId(0)))
                    .sign(&digest),
                _ => Signature::ZERO,
            };
            let plan = home_shard(&txn, &router);
            released = b.push_planned(txn, digest, signature, SimTime::ZERO, plan);
        }
        let released = released.expect("the home lane is full");
        assert_eq!(
            batch_home(released.batch(), &router),
            ShardPlan::SingleHome(home)
        );
        // A subset of a single-home batch is still single-home.
        let (survivors, rejected) = released.verify_and_prune(&provider);
        assert_eq!(rejected.len(), 1);
        let survivors = survivors.expect("one survivor");
        assert_eq!(batch_home(&survivors, &router), ShardPlan::SingleHome(home));
        // A batch naming no key has no home.
        let keyless = Transaction::new(TxnId::new(ClientId(9), 0), vec![Operation::Read(Key(1))])
            .with_declared_rwset(RwSetKeys::default());
        assert_eq!(
            batch_home(&Batch::single(keyless), &router),
            ShardPlan::Unplanned
        );
    }

    #[test]
    fn footprint_built_from_rwsets() {
        use sbft_types::RwSetKeys;
        let a = RwSetKeys::new([Key(1)], [Key(2)]);
        let b = RwSetKeys::new([Key(3)], [Key(2)]);
        let fp = BatchFootprint::from_rwsets([&a, &b]);
        assert_eq!(fp.reads.len(), 2);
        assert_eq!(fp.writes.len(), 1);
    }
}
