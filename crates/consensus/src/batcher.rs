//! The batching front-end and the amortised batch-authentication path.
//!
//! "We also require clients and edge nodes to employ batching and run
//! consensuses on batches of 100 client transactions" (Section IX, Setup).
//! The batcher accumulates incoming client transactions at the primary and
//! releases a batch either when it reaches the configured size or when the
//! batch timeout expires (so a lightly loaded system does not wait
//! forever). Figure 6(iii)–(iv) sweeps the batch size from 10 to 8000.
//!
//! # Amortised batch crypto
//!
//! The batcher is where the primary's two per-batch crypto costs get
//! amortised across transaction arrivals instead of being paid in one
//! lump on the submit hot path:
//!
//! * **Client authentication.** Each pushed transaction carries its
//!   (memoized) signing digest and the client's signature; the signature
//!   folds into a running [`AggregateSignature`]. A released
//!   [`SignedBatch`] is verified with **one** aggregate check
//!   ([`SignedBatch::verify_and_prune`]); only when that check fails does
//!   the bisecting fallback pinpoint — and prune — the offending
//!   transactions.
//! * **The wire digest `Δ = H(m)`.** A running
//!   [`BatchDigestAccumulator`] absorbs each transaction on push, so the
//!   released batch's digest memo is already filled and
//!   [`crate::messages::batch_digest`] is a cache hit when the primary
//!   proposes.
//!
//! # Per-shard ordering lanes
//!
//! With the ordering-time shard planner active
//! ([`Batcher::with_shard_lanes`]) the batcher keeps one independent lane
//! per execution shard plus one *cross* lane: the shim classifies every
//! transaction's declared read-write set against the shard map and pushes
//! it into its home lane ([`Batcher::push_planned`]). Each lane fills,
//! times out and releases independently, so a released batch is either
//! entirely single-home — tagged [`ShardPlan::SingleHome`], its apply
//! work lands on exactly one shard with no cross-shard coordination — or
//! explicitly [`ShardPlan::CrossHome`], detected at batching time and
//! destined for the lock-ordered committer path instead of being
//! discovered late in the verifier's apply stage. The plan tag rides on
//! the released [`SignedBatch`] and from there through `PREPREPARE`,
//! `EXECUTE` and `VERIFY` (trust-but-verify; see `sbft_types::plan`).

use crate::messages::BatchDigestAccumulator;
use sbft_crypto::{AggregateSignature, CryptoProvider};
use sbft_telemetry::{Counter, Registry};
use sbft_types::{
    Batch, ComponentId, Digest, ShardId, ShardPlan, Signature, SimDuration, SimTime, Transaction,
    TxnId,
};

/// A released batch plus the client-authentication material needed to
/// verify it in one aggregate check.
#[derive(Clone, Debug)]
pub struct SignedBatch {
    batch: Batch,
    /// The ordering-time shard plan of the batch (the lane it was
    /// assembled in, or [`ShardPlan::Unplanned`] without lanes).
    plan: ShardPlan,
    /// Per-transaction signing digests, in batch order.
    digests: Vec<Digest>,
    /// Per-transaction client signatures, in batch order (needed only by
    /// the bisecting fallback).
    signatures: Vec<Signature>,
    /// The fold of `signatures`.
    aggregate: AggregateSignature,
}

impl SignedBatch {
    /// The ordering-time shard plan of this batch. Pruning offenders
    /// keeps the tag valid: a subset of a single-home batch is still
    /// single-home, and a cross-home tag only costs the conservative
    /// path.
    #[must_use]
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The batch awaiting verification.
    #[must_use]
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Number of transactions in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Whether the batch is empty (never true for released batches).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Authenticates the whole batch with one aggregate signature check.
    ///
    /// On the fast path (every client signature valid — the always case
    /// with honest clients) this costs a single fold-and-compare over
    /// cached key schedules and returns the batch **unchanged, by move**:
    /// the `Arc` storage built by the batcher flows on to consensus
    /// untouched. When the aggregate check fails, the bisecting fallback
    /// locates the offending transactions; they are pruned (and reported,
    /// with the forged signature each carried, as the second tuple
    /// element) and the surviving transactions are re-batched. Returns
    /// `None` for the batch if nothing survives.
    #[must_use]
    pub fn verify_and_prune(
        self,
        provider: &CryptoProvider,
    ) -> (Option<Batch>, Vec<(TxnId, Signature)>) {
        let claims: Vec<(ComponentId, Digest)> = self
            .batch
            .txns()
            .iter()
            .zip(&self.digests)
            .map(|(txn, digest)| (ComponentId::Client(txn.id.client), *digest))
            .collect();
        if provider.verify_aggregate(&claims, &self.aggregate) {
            return (Some(self.batch), Vec::new());
        }
        // Slow path: some signature is invalid. Bisect to find which.
        let full: Vec<(ComponentId, Digest, Signature)> = claims
            .iter()
            .zip(&self.signatures)
            .map(|((signer, digest), sig)| (*signer, *digest, *sig))
            .collect();
        let offenders = provider.locate_invalid_signatures(&full);
        debug_assert!(
            !offenders.is_empty(),
            "a failed aggregate always bisects to at least one offender"
        );
        let rejected: Vec<(TxnId, Signature)> = offenders
            .iter()
            .map(|&i| (self.batch.txns()[i].id, self.signatures[i]))
            .collect();
        let mut next_offender = offenders.into_iter().peekable();
        let retained: Vec<Transaction> = self
            .batch
            .txns()
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                if next_offender.peek() == Some(i) {
                    next_offender.next();
                    false
                } else {
                    true
                }
            })
            .map(|(_, txn)| txn.clone())
            .collect();
        let batch = (!retained.is_empty()).then(|| Batch::new(retained));
        (batch, rejected)
    }
}

/// One independent batching lane: its own pending list, authentication
/// material, running wire digest and staleness clock.
#[derive(Debug)]
struct Lane {
    pending: Vec<Transaction>,
    digests: Vec<Digest>,
    signatures: Vec<Signature>,
    aggregate: AggregateSignature,
    digest_acc: BatchDigestAccumulator,
    oldest_pending: Option<SimTime>,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Lane {
            pending: Vec::with_capacity(capacity),
            digests: Vec::with_capacity(capacity),
            signatures: Vec::with_capacity(capacity),
            aggregate: AggregateSignature::identity(),
            digest_acc: BatchDigestAccumulator::new(),
            oldest_pending: None,
        }
    }

    fn push(&mut self, txn: Transaction, digest: Digest, signature: Signature, now: SimTime) {
        if self.pending.is_empty() {
            self.oldest_pending = Some(now);
        }
        self.digest_acc.absorb(&txn);
        self.aggregate.fold(&signature);
        self.pending.push(txn);
        self.digests.push(digest);
        self.signatures.push(signature);
    }

    fn stale(&self, now: SimTime, max_wait: SimDuration) -> bool {
        match self.oldest_pending {
            Some(oldest) => !self.pending.is_empty() && now.since(oldest) >= max_wait,
            None => false,
        }
    }

    /// Releases the lane's content as one batch tagged `plan`. The
    /// released batch carries its wire digest pre-memoized.
    fn take(&mut self, plan: ShardPlan) -> Option<SignedBatch> {
        if self.pending.is_empty() {
            return None;
        }
        self.oldest_pending = None;
        // The next batch fills lists as long as the ones released here:
        // sized once instead of regrown push by push.
        let capacity = self.pending.capacity();
        let txns = std::mem::replace(&mut self.pending, Vec::with_capacity(capacity));
        let digests = std::mem::replace(&mut self.digests, Vec::with_capacity(capacity));
        let signatures = std::mem::replace(&mut self.signatures, Vec::with_capacity(capacity));
        let aggregate = std::mem::replace(&mut self.aggregate, AggregateSignature::identity());
        let acc = std::mem::take(&mut self.digest_acc);
        let batch = Batch::new(txns);
        let wire_digest = acc.finish();
        let filled = batch.digest_memo(|| wire_digest);
        debug_assert_eq!(filled, wire_digest, "digest memo must take our value");
        Some(SignedBatch {
            batch,
            plan,
            digests,
            signatures,
            aggregate,
        })
    }
}

/// Accumulates signed client transactions into consensus batches —
/// either one global lane (classic batching) or one lane per execution
/// shard plus a cross lane (the ordering-time shard planner).
#[derive(Debug)]
pub struct Batcher {
    batch_size: usize,
    max_wait: SimDuration,
    /// One lane without the planner; `home_lanes + 1` lanes with it
    /// (index `home_lanes` is the cross lane).
    lanes: Vec<Lane>,
    /// Number of per-shard home lanes (0 = unlaned).
    home_lanes: usize,
    /// Batches released because a lane reached the size threshold.
    released_full: Counter,
    /// Batches released because the oldest pending transaction waited
    /// out `max_wait` (the periodic poll).
    released_timeout: Counter,
    /// Batches released before their own timeout because another lane's
    /// staleness triggered the global drain.
    global_drains: Counter,
}

impl Batcher {
    /// Creates a batcher releasing batches of `batch_size` transactions, or
    /// earlier once the oldest pending transaction has waited `max_wait`.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn new(batch_size: usize, max_wait: SimDuration) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Batcher {
            batch_size,
            max_wait,
            lanes: vec![Lane::new(batch_size)],
            home_lanes: 0,
            released_full: Counter::new(),
            released_timeout: Counter::new(),
            global_drains: Counter::new(),
        }
    }

    /// Creates a batcher with one ordering lane per execution shard plus
    /// a cross lane: single-home transactions assemble into batches that
    /// release tagged [`ShardPlan::SingleHome`]; transactions spanning
    /// shards (or unclassifiable ones) assemble in the cross lane and
    /// release tagged [`ShardPlan::CrossHome`].
    ///
    /// # Panics
    /// Panics if `batch_size` or `num_shards` is zero.
    #[must_use]
    pub fn with_shard_lanes(batch_size: usize, max_wait: SimDuration, num_shards: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(num_shards > 0, "shard lanes need at least one shard");
        Batcher {
            batch_size,
            max_wait,
            lanes: (0..=num_shards).map(|_| Lane::new(batch_size)).collect(),
            home_lanes: num_shards,
            released_full: Counter::new(),
            released_timeout: Counter::new(),
            global_drains: Counter::new(),
        }
    }

    /// Re-homes the release counters into `registry` under
    /// `<prefix>.batcher.*` (the shim node passes its own prefix).
    pub fn register_metrics(&mut self, registry: &Registry, prefix: &str) {
        self.released_full = registry.counter(&format!("{prefix}.batcher.released_full"));
        self.released_timeout = registry.counter(&format!("{prefix}.batcher.released_timeout"));
        self.global_drains = registry.counter(&format!("{prefix}.batcher.global_drains"));
    }

    /// The configured timeout of a pending transaction.
    #[must_use]
    pub fn max_wait(&self) -> SimDuration {
        self.max_wait
    }

    /// Identifiers of every transaction waiting across all lanes (the
    /// shim's never-validated expiry spares these — a pending
    /// transaction must not lose its duplicate suppression).
    #[must_use]
    pub fn pending_txn_ids(&self) -> Vec<TxnId> {
        self.lanes
            .iter()
            .flat_map(|l| l.pending.iter().map(|t| t.id))
            .collect()
    }

    /// The plan a batch released from lane `idx` carries.
    fn lane_plan(&self, idx: usize) -> ShardPlan {
        if self.home_lanes == 0 {
            ShardPlan::Unplanned
        } else if idx < self.home_lanes {
            ShardPlan::SingleHome(ShardId(idx as u32))
        } else {
            ShardPlan::CrossHome
        }
    }

    /// The lane a transaction with ordering-time plan `plan` assembles in.
    fn lane_of(&self, plan: ShardPlan) -> usize {
        if self.home_lanes == 0 {
            return 0;
        }
        match plan {
            ShardPlan::SingleHome(s) if (s.0 as usize) < self.home_lanes => s.0 as usize,
            // Cross-home and unclassifiable transactions share the cross
            // lane (a no-key transaction is harmless there).
            _ => self.home_lanes,
        }
    }

    /// Adds a signed transaction (its memoized signing digest plus the
    /// client's signature over it); returns a full batch if the size
    /// threshold is reached. The signature folds into the running
    /// aggregate and the transaction is absorbed into the running wire
    /// digest, so releasing a batch costs O(1) hashing.
    pub fn push(
        &mut self,
        txn: Transaction,
        digest: Digest,
        signature: Signature,
        now: SimTime,
    ) -> Option<SignedBatch> {
        self.push_planned(txn, digest, signature, now, ShardPlan::Unplanned)
    }

    /// Like [`Self::push`], but steering the transaction into the lane
    /// of its ordering-time plan (the shard-aware planner's entry
    /// point). Without shard lanes the plan is ignored and everything
    /// shares the single lane.
    pub fn push_planned(
        &mut self,
        txn: Transaction,
        digest: Digest,
        signature: Signature,
        now: SimTime,
        plan: ShardPlan,
    ) -> Option<SignedBatch> {
        let idx = self.lane_of(plan);
        let release = {
            let lane = &mut self.lanes[idx];
            lane.push(txn, digest, signature, now);
            lane.pending.len() >= self.batch_size
        };
        if release {
            let plan = self.lane_plan(idx);
            self.released_full.inc();
            return self.lanes[idx].take(plan);
        }
        None
    }

    /// Releases the next lane due under the timeout rule (called on a
    /// periodic tick; call repeatedly until `None` to drain fully).
    ///
    /// A lane is *due* when its own oldest pending transaction has
    /// waited `max_wait` — and, once any lane is stale, every other
    /// non-empty lane becomes due too (the **global drain**): under
    /// light load with many shard lanes, transactions that arrived
    /// after the triggering one would otherwise each sit out their own
    /// full timeout. Piggybacked lanes release first, so the stale lane
    /// keeps the trigger alive until everything pending is out.
    pub fn poll(&mut self, now: SimTime) -> Option<SignedBatch> {
        let max_wait = self.max_wait;
        if !self.lanes.iter().any(|l| l.stale(now, max_wait)) {
            return None;
        }
        let piggyback = (0..self.lanes.len())
            .find(|&i| !self.lanes[i].pending.is_empty() && !self.lanes[i].stale(now, max_wait));
        let (idx, was_stale) = match piggyback {
            Some(i) => (i, false),
            None => (
                (0..self.lanes.len()).find(|&i| self.lanes[i].stale(now, max_wait))?,
                true,
            ),
        };
        let plan = self.lane_plan(idx);
        let released = self.lanes[idx].take(plan);
        if released.is_some() {
            if was_stale {
                self.released_timeout.inc();
            } else {
                self.global_drains.inc();
            }
        }
        released
    }

    /// Releases the next non-empty lane as a batch immediately (call
    /// repeatedly until `None` to flush everything). The released batch
    /// carries its wire digest pre-memoized.
    pub fn flush(&mut self) -> Option<SignedBatch> {
        let idx = (0..self.lanes.len()).find(|i| !self.lanes[*i].pending.is_empty())?;
        let plan = self.lane_plan(idx);
        self.lanes[idx].take(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::compute_batch_digest;
    use sbft_types::{ClientId, Key, Operation, TxnId};
    use std::sync::Arc;

    fn txn(counter: u64) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(0), counter),
            vec![Operation::Read(Key(counter))],
        )
    }

    /// Pushes with placeholder authentication material (tests that only
    /// exercise sizing/timing).
    fn push_plain(b: &mut Batcher, t: Transaction, now: SimTime) -> Option<SignedBatch> {
        b.push(t, Digest::ZERO, Signature::ZERO, now)
    }

    #[test]
    fn release_counters_track_full_and_timeout() {
        let registry = Registry::new();
        let mut b = Batcher::new(2, SimDuration::from_millis(5));
        b.register_metrics(&registry, "shim.0");
        push_plain(&mut b, txn(0), SimTime::ZERO);
        assert!(push_plain(&mut b, txn(1), SimTime::ZERO).is_some());
        assert_eq!(registry.counter_value("shim.0.batcher.released_full"), 1);
        push_plain(&mut b, txn(2), SimTime::ZERO);
        assert!(b.poll(SimTime::from_millis(10)).is_some());
        assert_eq!(registry.counter_value("shim.0.batcher.released_timeout"), 1);
        assert_eq!(registry.counter_value("shim.0.batcher.released_full"), 1);
    }

    #[test]
    fn releases_full_batches() {
        let mut b = Batcher::new(3, SimDuration::from_millis(10));
        assert!(push_plain(&mut b, txn(0), SimTime::ZERO).is_none());
        assert!(push_plain(&mut b, txn(1), SimTime::ZERO).is_none());
        let batch = push_plain(&mut b, txn(2), SimTime::ZERO).expect("full batch");
        assert_eq!(batch.len(), 3);
        assert_eq!(b.pending_txn_ids().len(), 0);
    }

    #[test]
    fn poll_releases_stale_partial_batches() {
        let mut b = Batcher::new(100, SimDuration::from_millis(10));
        push_plain(&mut b, txn(0), SimTime::from_millis(0));
        assert!(b.poll(SimTime::from_millis(5)).is_none(), "not stale yet");
        let batch = b.poll(SimTime::from_millis(10)).expect("timeout flush");
        assert_eq!(batch.len(), 1);
        assert!(
            b.poll(SimTime::from_millis(20)).is_none(),
            "nothing pending"
        );
    }

    #[test]
    fn flush_empties_pending() {
        let mut b = Batcher::new(10, SimDuration::from_millis(10));
        assert!(b.flush().is_none());
        push_plain(&mut b, txn(0), SimTime::ZERO);
        push_plain(&mut b, txn(1), SimTime::ZERO);
        assert_eq!(b.flush().unwrap().len(), 2);
        assert_eq!(b.pending_txn_ids().len(), 0);
        assert_eq!(b.batch_size, 10);
    }

    #[test]
    fn wait_clock_resets_after_release() {
        let mut b = Batcher::new(2, SimDuration::from_millis(10));
        push_plain(&mut b, txn(0), SimTime::from_millis(0));
        let _ = push_plain(&mut b, txn(1), SimTime::from_millis(1)).unwrap();
        // New transaction arrives much later; its own clock starts now.
        push_plain(&mut b, txn(2), SimTime::from_millis(100));
        assert!(b.poll(SimTime::from_millis(105)).is_none());
        assert!(b.poll(SimTime::from_millis(110)).is_some());
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = Batcher::new(0, SimDuration::ZERO);
    }

    #[test]
    fn released_batches_carry_a_prefilled_wire_digest() {
        let mut b = Batcher::new(4, SimDuration::from_millis(10));
        for i in 0..3 {
            assert!(push_plain(&mut b, txn(i), SimTime::ZERO).is_none());
        }
        let released = push_plain(&mut b, txn(3), SimTime::ZERO).expect("full");
        let cached = released
            .batch()
            .cached_digest()
            .expect("digest memo filled at release");
        assert_eq!(cached, compute_batch_digest(released.batch()));
        // The accumulator reset cleanly: the next (partial) batch digests
        // correctly too, and differs, being a different batch.
        for i in 10..13 {
            assert!(push_plain(&mut b, txn(i), SimTime::ZERO).is_none());
        }
        let second = b.flush().expect("partial flush");
        let cached2 = second.batch().cached_digest().expect("memo filled");
        assert_eq!(cached2, compute_batch_digest(second.batch()));
        assert_ne!(cached, cached2);
    }

    fn push_lane(
        b: &mut Batcher,
        t: Transaction,
        plan: ShardPlan,
        now: SimTime,
    ) -> Option<SignedBatch> {
        b.push_planned(t, Digest::ZERO, Signature::ZERO, now, plan)
    }

    #[test]
    fn unlaned_batches_release_unplanned() {
        let mut b = Batcher::new(2, SimDuration::from_millis(10));
        assert_eq!(b.lanes.len(), 1);
        let _ = push_plain(&mut b, txn(0), SimTime::ZERO);
        let batch = push_plain(&mut b, txn(1), SimTime::ZERO).expect("full");
        assert_eq!(batch.plan(), ShardPlan::Unplanned);
    }

    #[test]
    fn shard_lanes_assemble_per_home_and_tag_single_home() {
        let mut b = Batcher::with_shard_lanes(2, SimDuration::from_millis(10), 4);
        assert_eq!(b.lanes.len(), 5, "4 home lanes + 1 cross lane");
        let home2 = ShardPlan::SingleHome(ShardId(2));
        let home3 = ShardPlan::SingleHome(ShardId(3));
        // Interleaved pushes to different homes fill separate lanes.
        assert!(push_lane(&mut b, txn(0), home2, SimTime::ZERO).is_none());
        assert!(push_lane(&mut b, txn(1), home3, SimTime::ZERO).is_none());
        assert_eq!(b.pending_txn_ids().len(), 2);
        let released = push_lane(&mut b, txn(2), home2, SimTime::ZERO).expect("lane 2 full");
        assert_eq!(released.plan(), home2);
        assert_eq!(released.len(), 2);
        assert_eq!(b.pending_txn_ids().len(), 1, "lane 3 still waiting");
        // The released lane batch digests correctly despite interleaving.
        assert_eq!(
            released.batch().cached_digest().expect("memo filled"),
            compute_batch_digest(released.batch()),
        );
    }

    #[test]
    fn cross_and_unplanned_transactions_share_the_cross_lane() {
        let mut b = Batcher::with_shard_lanes(2, SimDuration::from_millis(10), 4);
        assert!(push_lane(&mut b, txn(0), ShardPlan::CrossHome, SimTime::ZERO).is_none());
        let released =
            push_lane(&mut b, txn(1), ShardPlan::Unplanned, SimTime::ZERO).expect("cross full");
        assert_eq!(released.plan(), ShardPlan::CrossHome);
        // An out-of-range home shard is treated as cross, not a panic.
        assert!(push_lane(
            &mut b,
            txn(2),
            ShardPlan::SingleHome(ShardId(99)),
            SimTime::ZERO
        )
        .is_none());
        assert_eq!(b.pending_txn_ids().len(), 1);
    }

    #[test]
    fn poll_drains_every_stale_lane_in_turn() {
        let mut b = Batcher::with_shard_lanes(10, SimDuration::from_millis(10), 2);
        let _ = push_lane(
            &mut b,
            txn(0),
            ShardPlan::SingleHome(ShardId(0)),
            SimTime::ZERO,
        );
        let _ = push_lane(
            &mut b,
            txn(1),
            ShardPlan::SingleHome(ShardId(1)),
            SimTime::ZERO,
        );
        let _ = push_lane(&mut b, txn(2), ShardPlan::CrossHome, SimTime::ZERO);
        assert!(b.poll(SimTime::from_millis(5)).is_none(), "not stale yet");
        let mut plans = Vec::new();
        while let Some(batch) = b.poll(SimTime::from_millis(10)) {
            plans.push(batch.plan());
        }
        assert_eq!(
            plans,
            vec![
                ShardPlan::SingleHome(ShardId(0)),
                ShardPlan::SingleHome(ShardId(1)),
                ShardPlan::CrossHome,
            ]
        );
        assert_eq!(b.pending_txn_ids().len(), 0);
    }

    #[test]
    fn one_stale_lane_triggers_a_global_drain_of_fresher_lanes() {
        let registry = Registry::new();
        let mut b = Batcher::with_shard_lanes(10, SimDuration::from_millis(5), 2);
        b.register_metrics(&registry, "shim.0");
        let _ = push_lane(
            &mut b,
            txn(0),
            ShardPlan::SingleHome(ShardId(0)),
            SimTime::ZERO,
        );
        // Lane 1's transaction arrives 3 ms later: on its own clock it
        // would not release until 8 ms.
        let _ = push_lane(
            &mut b,
            txn(1),
            ShardPlan::SingleHome(ShardId(1)),
            SimTime::from_millis(3),
        );
        assert!(b.poll(SimTime::from_millis(4)).is_none(), "no lane stale");
        let mut plans = Vec::new();
        while let Some(batch) = b.poll(SimTime::from_millis(5)) {
            plans.push(batch.plan());
        }
        // Lane 0 hit its timeout; lane 1 rode along (piggyback first)
        // instead of waiting out its own.
        assert_eq!(
            plans,
            vec![
                ShardPlan::SingleHome(ShardId(1)),
                ShardPlan::SingleHome(ShardId(0)),
            ]
        );
        assert_eq!(registry.counter_value("shim.0.batcher.released_timeout"), 1);
        assert_eq!(registry.counter_value("shim.0.batcher.global_drains"), 1);
        assert_eq!(b.pending_txn_ids().len(), 0);
    }

    #[test]
    fn pruning_preserves_the_lane_plan() {
        let provider = CryptoProvider::new(11);
        let mut b = Batcher::with_shard_lanes(2, SimDuration::from_millis(10), 4);
        let plan = ShardPlan::SingleHome(ShardId(1));
        let (t, d, s) = signed(&provider, 0, 0);
        assert!(b.push_planned(t, d, s, SimTime::ZERO, plan).is_none());
        let (t, d, _) = signed(&provider, 1, 1);
        let released = b
            .push_planned(t, d, Signature::ZERO, SimTime::ZERO, plan)
            .expect("full");
        assert_eq!(released.plan(), plan);
        let (verified, rejected) = released.verify_and_prune(&provider);
        assert_eq!(rejected.len(), 1);
        assert_eq!(verified.expect("one survivor").len(), 1);
    }

    /// A correctly signed transaction for `client` over an arbitrary
    /// per-transaction digest.
    fn signed(
        provider: &Arc<CryptoProvider>,
        client: u32,
        counter: u64,
    ) -> (Transaction, Digest, Signature) {
        let t = Transaction::new(
            TxnId::new(ClientId(client), counter),
            vec![Operation::ReadModifyWrite(Key(counter), 1)],
        );
        let digest = sbft_crypto::digest_u64s("batcher-test", &[u64::from(client), counter]);
        let sig = provider
            .handle(ComponentId::Client(ClientId(client)))
            .sign(&digest);
        (t, digest, sig)
    }

    #[test]
    fn aggregate_fast_path_returns_the_same_allocation() {
        let provider = CryptoProvider::new(11);
        let mut b = Batcher::new(3, SimDuration::from_millis(10));
        for i in 0..2u64 {
            let (t, d, s) = signed(&provider, i as u32, i);
            assert!(b.push(t, d, s, SimTime::ZERO).is_none());
        }
        let (t, d, s) = signed(&provider, 2, 2);
        let released = b.push(t, d, s, SimTime::ZERO).expect("full batch");
        let before = released.batch().clone();
        let (verified, rejected) = released.verify_and_prune(&provider);
        let verified = verified.expect("all signatures valid");
        assert!(rejected.is_empty());
        assert!(
            verified.shares_txns(&before),
            "the fast path must hand consensus the batcher's allocation"
        );
    }

    #[test]
    fn corrupted_signature_is_pruned_and_reported() {
        let provider = CryptoProvider::new(11);
        let mut b = Batcher::new(4, SimDuration::from_millis(10));
        for i in 0..3u64 {
            let (t, d, s) = signed(&provider, i as u32, i);
            assert!(b.push(t, d, s, SimTime::ZERO).is_none());
        }
        // The fourth "client" forges its signature.
        let (t, d, _) = signed(&provider, 3, 3);
        let forged_id = t.id;
        let released = b.push(t, d, Signature::ZERO, SimTime::ZERO).expect("full");
        let (verified, rejected) = released.verify_and_prune(&provider);
        assert_eq!(rejected, vec![(forged_id, Signature::ZERO)]);
        let batch = verified.expect("three honest transactions survive");
        assert_eq!(batch.len(), 3);
        assert!(batch.txn_ids().iter().all(|id| *id != forged_id));
    }

    #[test]
    fn fully_forged_batch_is_dropped() {
        let provider = CryptoProvider::new(11);
        let (t, d, _) = signed(&provider, 0, 0);
        let single = Batcher::new(1, SimDuration::from_millis(10))
            .push(t, d, Signature::ZERO, SimTime::ZERO)
            .expect("a batch of one is full at once");
        assert!(!single.is_empty());
        let (verified, rejected) = single.verify_and_prune(&provider);
        assert!(verified.is_none());
        assert_eq!(rejected.len(), 1);
    }
}
