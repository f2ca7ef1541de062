//! The shard worker pool.
//!
//! [`ShardScheduler`] drives a [`ShardedCommitter`] with a pool of OS
//! threads sized to the configured cores. Work arrives one way: a batch
//! through [`ShardScheduler::submit_tracked`], routed with the committer's
//! own router. Each transaction is queued on its *home* shard (the
//! lowest-numbered shard it touches) and the shard is handed to the pool
//! through the atomic `Idle → Pending` transition, so a shard is in the
//! work queue at most once and is drained by at most one worker at a
//! time. Cross-shard transactions are executed by their home shard's
//! worker through the committer's lock-ordered path. The returned
//! [`ApplyTicket`] yields the per-transaction OCC outcomes.
//!
//! `fig6_shards` and the repo benchmark's `sharding.apply_tps_*` figures
//! drive it to show raw thread scaling. No runtime drives it: the verifier applies every matched
//! batch on its own thread, in batch order (DESIGN.md, "Modes kept as
//! ablations", says why).

use crate::committer::ShardedCommitter;
use sbft_storage::OccOutcome;
use sbft_types::{ShardId, ShardSet, TxnResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// No pending work and not enqueued; the only schedulable phase.
const IDLE: u8 = 0;
/// Enqueued in the scheduler's work queue, not yet picked up.
const PENDING: u8 = 1;
/// A worker is executing the shard's queue.
const RUNNING: u8 = 2;

/// A unit of queued work: the transactions of one submitted batch that
/// are homed on one shard. Everything but `indices` is shared with the
/// batch's other shard tasks, so queueing a batch clones no read-write
/// set.
#[derive(Default)]
struct ShardTask {
    /// The whole batch's results (the submitter's allocation,
    /// refcount-bumped).
    txns: Arc<[TxnResult]>,
    /// The involved-shard set of every transaction of the batch, as the
    /// submitter routed it: the worker commits through it instead of
    /// hashing the keys again.
    routes: Arc<[ShardSet]>,
    /// Which transactions of the batch live on this shard.
    indices: Vec<u32>,
    /// Where the per-transaction outcomes are recorded.
    ticket: Arc<TicketState>,
}

/// One shard's FIFO of pending tasks and its scheduling lifecycle
/// `Idle → Pending → Running → Idle`. Transitions are compare-and-swap,
/// so only one `Idle → Pending` can succeed at a time: a shard is never
/// enqueued twice and never run by two workers concurrently. That is the
/// pool's order guarantee — a shard's tasks apply in submission order.
#[derive(Default)]
struct ShardQueue {
    phase: AtomicU8,
    queue: Mutex<VecDeque<ShardTask>>,
}

impl ShardQueue {
    /// Appends a task to the pending queue. Returns `true` if the caller
    /// won the `Idle → Pending` transition and must hand the shard to the
    /// scheduler's work queue (exactly one concurrent caller wins).
    fn enqueue(&self, task: ShardTask) -> bool {
        self.queue.lock().expect("shard queue").push_back(task);
        self.try_mark_pending()
    }

    /// Attempts the atomic `Idle → Pending` transition.
    fn try_mark_pending(&self) -> bool {
        self.phase
            .compare_exchange(IDLE, PENDING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Marks the shard `Running` when a worker picks it up.
    ///
    /// # Panics
    /// Panics if the shard was not `Pending` — that would mean the work
    /// queue handed the same shard to two workers.
    fn begin_run(&self) {
        let prev = self.phase.swap(RUNNING, Ordering::AcqRel);
        assert_eq!(prev, PENDING, "shard double-scheduled");
    }

    /// Marks the shard `Idle` after a worker drained it. Returns `true` if
    /// new work raced in behind the drain and the shard must be scheduled
    /// again (the caller re-enqueues it).
    fn finish_run(&self) -> bool {
        self.phase.store(IDLE, Ordering::Release);
        // A submitter that enqueued between our last `pop_task` and the
        // store above lost the Idle→Pending race to nobody: re-check.
        if self.queue.lock().expect("shard queue").is_empty() {
            false
        } else {
            self.try_mark_pending()
        }
    }

    /// Pops the oldest pending task.
    fn pop_task(&self) -> Option<ShardTask> {
        self.queue.lock().expect("shard queue").pop_front()
    }
}

/// Shared completion state behind an [`ApplyTicket`]: per-transaction
/// outcome slots plus a countdown the workers decrement as they apply.
#[derive(Debug, Default)]
struct TicketState {
    slots: Mutex<Slots>,
    done: Condvar,
}

/// A batch's outcome slots and how many of them are still empty.
#[derive(Debug, Default)]
struct Slots {
    outcomes: Vec<Option<OccOutcome>>,
    empty: usize,
}

impl TicketState {
    fn new(total: usize) -> Self {
        TicketState {
            slots: Mutex::new(Slots {
                outcomes: vec![None; total],
                empty: total,
            }),
            done: Condvar::new(),
        }
    }

    /// Records a whole shard task's outcomes with one acquisition of the
    /// lock, so pool workers do not serialize on the shared ticket once
    /// per transaction, and wakes the waiter once the batch is applied.
    fn record_all(&self, entries: Vec<(usize, OccOutcome)>) {
        let mut slots = self.slots.lock().expect("ticket slots");
        slots.empty -= entries.len();
        for (index, outcome) in entries {
            slots.outcomes[index] = Some(outcome);
        }
        if slots.empty == 0 {
            self.done.notify_all();
        }
    }
}

/// A handle on one batch submitted to the pool via
/// [`ShardScheduler::submit_tracked`]. Waiting on it yields the
/// per-transaction [`OccOutcome`]s in submission order — what the
/// synchronous commit loop produces for the same batch, computed by the
/// worker pool with real shard parallelism.
#[derive(Debug)]
pub struct ApplyTicket {
    state: Arc<TicketState>,
}

impl ApplyTicket {
    /// Blocks until every transaction of the batch has been applied and
    /// returns their outcomes, indexed like the submitted slice.
    #[must_use]
    pub fn wait(self) -> Vec<OccOutcome> {
        let mut slots = self.state.slots.lock().expect("ticket slots");
        while slots.empty > 0 {
            slots = self.state.done.wait(slots).expect("ticket slots");
        }
        slots
            .outcomes
            .drain(..)
            .map(|o| o.expect("every slot recorded before the countdown hits zero"))
            .collect()
    }
}

struct SchedulerInner {
    committer: Arc<ShardedCommitter>,
    /// One queue per shard, indexed by [`ShardId`].
    queues: Vec<ShardQueue>,
    validate_reads: bool,
    work: Mutex<VecDeque<ShardId>>,
    work_available: Condvar,
    shutdown: AtomicBool,
}

impl SchedulerInner {
    fn push_work(&self, shard: ShardId) {
        self.work.lock().expect("work queue").push_back(shard);
        self.work_available.notify_one();
    }

    /// The next scheduled shard; `None` once the pool is shutting down
    /// *and* the work queue is empty, so queued work is always finished.
    fn take_work(&self) -> Option<ShardId> {
        let mut queue = self.work.lock().expect("work queue");
        loop {
            if let Some(shard) = queue.pop_front() {
                return Some(shard);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            queue = self.work_available.wait(queue).expect("work queue");
        }
    }

    fn worker_loop(&self) {
        while let Some(shard_id) = self.take_work() {
            let shard = &self.queues[shard_id.0 as usize];
            shard.begin_run();
            while let Some(task) = shard.pop_task() {
                let entries: Vec<(usize, OccOutcome)> = task
                    .indices
                    .iter()
                    .map(|&i| {
                        let i = i as usize;
                        let outcome = self.committer.commit_routed(
                            &task.txns[i].rwset,
                            self.validate_reads,
                            task.routes[i],
                        );
                        (i, outcome)
                    })
                    .collect();
                task.ticket.record_all(entries);
            }
            if shard.finish_run() {
                // Work raced in behind the drain: back into the queue.
                self.push_work(shard_id);
            }
        }
    }
}

/// A worker pool draining shard queues in parallel.
pub struct ShardScheduler {
    inner: Arc<SchedulerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardScheduler {
    /// Spawns `workers` threads (clamped to at least 1) over the given
    /// committer. `validate_reads` selects the OCC mode, exactly as in
    /// the unsharded verifier path.
    #[must_use]
    pub fn new(committer: Arc<ShardedCommitter>, workers: usize, validate_reads: bool) -> Self {
        let queues = (0..committer.router().num_shards())
            .map(|_| ShardQueue::default())
            .collect();
        let inner = Arc::new(SchedulerInner {
            committer,
            queues,
            validate_reads,
            work: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop())
            })
            .collect();
        ShardScheduler { inner, workers }
    }

    /// The one way into the pool. Submits one committed batch: every
    /// transaction is routed with the committer's router and queued on
    /// its home shard (shard 0 for one that touches no data, which takes
    /// no lock), the touched shards are scheduled, and the returned
    /// [`ApplyTicket`] yields the outcomes once the pool has applied
    /// everything.
    ///
    /// The result allocation and the routes are shared with every shard
    /// task (zero-copy: only per-shard index lists are built), and the
    /// workers commit through those routes, so no key is hashed twice.
    /// A shard's transactions apply in submission order (see
    /// `ShardQueue`).
    ///
    /// `_seq` names the batch for the caller; the pool orders by
    /// submission, not by it.
    #[must_use]
    pub fn submit_tracked(&self, _seq: u64, txns: Arc<[TxnResult]>) -> ApplyTicket {
        let router = self.inner.committer.router();
        let routes: Arc<[ShardSet]> = txns.iter().map(|r| router.shards_of(&r.rwset)).collect();
        let ticket = Arc::new(TicketState::new(txns.len()));
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); self.inner.queues.len()];
        for (i, involved) in routes.iter().enumerate() {
            let home = involved.first().unwrap_or(ShardId(0));
            per_shard[home.0 as usize].push(i as u32);
        }
        for (id, (shard, indices)) in self.inner.queues.iter().zip(per_shard).enumerate() {
            if indices.is_empty() {
                continue;
            }
            let task = ShardTask {
                txns: Arc::clone(&txns),
                routes: Arc::clone(&routes),
                indices,
                ticket: Arc::clone(&ticket),
            };
            if shard.enqueue(task) {
                self.inner.push_work(ShardId(id as u32));
            }
        }
        ApplyTicket { state: ticket }
    }

    /// Stops the pool: the workers finish every queued task first (a
    /// worker only leaves on an empty work queue), then are joined.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ShardScheduler {
    fn drop(&mut self) {
        {
            // Set under the queue lock (poisoned or not, the guard is
            // held): a worker that read the flag as clear still holds the
            // lock until it parks, so the wake-up below cannot miss it.
            let _queue = self.inner.work.lock();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.work_available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_storage::VersionedStore;
    use sbft_types::{Key, ReadWriteSet, ShardingConfig, Value, Version};

    fn pool(
        num_shards: usize,
        workers: usize,
        records: u64,
    ) -> (Arc<VersionedStore>, ShardScheduler) {
        let store = Arc::new(VersionedStore::new());
        store.load((0..records).map(|i| (Key(i), Value::new(0))));
        let committer = Arc::new(ShardedCommitter::new(
            Arc::clone(&store),
            &ShardingConfig::with_shards(num_shards),
        ));
        (store, ShardScheduler::new(committer, workers, true))
    }

    fn write_txn(key: u64, value: u64) -> ReadWriteSet {
        let mut rw = ReadWriteSet::new();
        rw.record_write(Key(key), Value::new(value));
        rw
    }

    /// Wraps bare read-write sets as the `TxnResult`s a `VERIFY` message
    /// would carry.
    fn tracked(rwsets: Vec<ReadWriteSet>) -> Arc<[TxnResult]> {
        rwsets
            .into_iter()
            .enumerate()
            .map(|(i, rwset)| TxnResult {
                txn: sbft_types::TxnId::new(sbft_types::ClientId(i as u32), 0),
                output: i as u64,
                rwset,
            })
            .collect()
    }

    #[test]
    fn shutdown_finishes_every_queued_transaction() {
        // Nobody waits on a ticket: shutting the pool down must still
        // apply everything that was queued.
        let (store, pool) = pool(8, 4, 1_000);
        for seq in 0..10u64 {
            let batch = (0..100).map(|i| write_txn(seq * 100 + i, 7)).collect();
            let _ = pool.submit_tracked(seq, tracked(batch));
        }
        pool.shutdown();
        for k in 0..1_000 {
            let entry = store.get(Key(k)).unwrap();
            assert_eq!((entry.value, entry.version), (Value::new(7), Version(2)));
        }
    }

    #[test]
    fn sharded_pool_matches_sequential_execution_on_conflict_free_batches() {
        // Disjoint key ranges per transaction → order cannot matter, so
        // the parallel pool must land on the same final store state as a
        // sequential single-shard run.
        let txns = tracked(
            (0..500)
                .map(|i| {
                    let mut rw = ReadWriteSet::new();
                    rw.record_read(Key(i), Version(1));
                    rw.record_write(Key(i), Value::new(i * 3));
                    rw
                })
                .collect(),
        );
        let run = |num_shards: usize, workers: usize| {
            let (store, pool) = pool(num_shards, workers, 500);
            let outcomes = pool.submit_tracked(1, Arc::clone(&txns)).wait();
            pool.shutdown();
            let state: Vec<u64> = (0..500)
                .map(|k| store.get(Key(k)).unwrap().value.data)
                .collect();
            (outcomes, state)
        };
        assert_eq!(run(1, 1), run(8, 4));
    }

    #[test]
    fn cross_shard_transactions_survive_the_pool() {
        let (store, pool) = pool(8, 4, 100);
        let router = *pool.inner.committer.router();
        let far = (1..)
            .find(|k| router.shard_of(Key(*k)) != router.shard_of(Key(0)))
            .unwrap();
        let mut rw = ReadWriteSet::new();
        rw.record_write(Key(0), Value::new(1));
        rw.record_write(Key(far), Value::new(1));
        assert_eq!(router.shards_of(&rw).len(), 2);
        assert!(pool.submit_tracked(1, tracked(vec![rw])).wait()[0].is_applied());
        assert_eq!(store.get(Key(0)).unwrap().value, Value::new(1));
        assert_eq!(store.get(Key(far)).unwrap().value, Value::new(1));
        pool.shutdown();
    }

    #[test]
    fn empty_submit_and_immediate_shutdown_are_safe() {
        let (_, idle) = pool(4, 2, 10);
        assert!(idle
            .submit_tracked(1, tracked(Vec::new()))
            .wait()
            .is_empty());
        idle.shutdown();
        drop(pool(2, 2, 10));
    }

    #[test]
    fn tracked_submit_returns_the_synchronous_outcomes() {
        // A batch with fresh reads, a stale read and a no-data transaction:
        // the pool must report exactly what the synchronous committer
        // reports for the same batch.
        let (store, pool) = pool(8, 4, 100);
        store.put(Key(5), Value::new(50)); // bump key 5 to version 2
        let mut fresh = ReadWriteSet::new();
        fresh.record_read(Key(1), Version(1));
        fresh.record_write(Key(1), Value::new(11));
        let mut stale = ReadWriteSet::new();
        stale.record_read(Key(5), Version(1));
        stale.record_write(Key(5), Value::new(55));
        let empty = ReadWriteSet::new();
        let txns = tracked(vec![fresh, stale, empty]);
        let outcomes = pool.submit_tracked(1, Arc::clone(&txns)).wait();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].is_applied());
        assert_eq!(outcomes[1], OccOutcome::StaleReads(vec![Key(5)]));
        assert!(
            outcomes[2].is_applied(),
            "no-data transactions apply trivially"
        );
        assert_eq!(store.get(Key(1)).unwrap().value, Value::new(11));
        assert_eq!(store.get(Key(5)).unwrap().value, Value::new(50));
        pool.shutdown();
    }

    #[test]
    fn the_pool_keeps_no_share_of_an_applied_batch() {
        // Every shard task holds a refcount bump of the submitted
        // allocation, never a copy of the read-write sets; once the
        // workers are gone only the caller's handle remains.
        let (_, pool) = pool(8, 4, 1_000);
        let txns = tracked((0..100u64).map(|i| write_txn(i, i)).collect());
        let outcomes = pool.submit_tracked(7, Arc::clone(&txns)).wait();
        assert_eq!(outcomes.len(), 100);
        assert!(outcomes.iter().all(OccOutcome::is_applied));
        pool.shutdown();
        assert_eq!(Arc::strong_count(&txns), 1);
    }

    #[test]
    fn tracked_batches_preserve_per_shard_commit_order() {
        // 30 successive batches all write the same key without the caller
        // waiting in between: the shard's FIFO queue (drained by at most
        // one worker at a time) must apply them in submission order, so
        // the final value is the last batch's write.
        let (store, pool) = pool(4, 4, 10);
        let tickets: Vec<ApplyTicket> = (0..30u64)
            .map(|seq| pool.submit_tracked(seq, tracked(vec![write_txn(3, seq)])))
            .collect();
        for ticket in tickets {
            assert!(ticket.wait()[0].is_applied());
        }
        assert_eq!(store.get(Key(3)).unwrap().value, Value::new(29));
        // 1 load + 30 ordered writes.
        assert_eq!(store.version_of(Key(3)), Version(31));
        pool.shutdown();
    }

    #[test]
    fn contended_hot_key_still_commits_every_write() {
        // All transactions write the same key: they serialise on one
        // shard but none may be lost.
        let (store, pool) = pool(8, 4, 10);
        let tickets: Vec<ApplyTicket> = (0..20u64)
            .map(|seq| {
                let batch = (0..10).map(|_| write_txn(3, seq)).collect();
                pool.submit_tracked(seq, tracked(batch))
            })
            .collect();
        for ticket in tickets {
            let outcomes = ticket.wait();
            assert_eq!(outcomes.len(), 10);
            assert!(outcomes.iter().all(OccOutcome::is_applied));
        }
        // 1 load + 200 writes.
        assert_eq!(store.version_of(Key(3)), Version(201));
        pool.shutdown();
    }

    #[test]
    fn concurrent_submitters_share_the_one_entrance() {
        // 8 submitters x 1 000 batches over 4 shards and 4 workers, nobody
        // waiting between submissions. Submitter `t` owns one key per
        // shard and its batch `j` reads each at the version batch `j - 1`
        // left behind, so every read validates iff each shard applied the
        // submitter's tasks in submission order; a blind write to a key
        // everybody shares counts lost updates. A shard handed to two
        // workers at once trips `begin_run`'s double-scheduling assert.
        const SUBMITTERS: u64 = 8;
        const BATCHES: u64 = 1_000;
        const SHARDS: usize = 4;
        let (store, pool) = pool(SHARDS, 4, 0);
        let router = *pool.inner.committer.router();
        // keys[s] = a shared key, then one per submitter, all on shard s.
        let keys: Vec<Vec<Key>> = (0..SHARDS as u32)
            .map(|s| {
                (0..)
                    .map(Key)
                    .filter(|k| router.shard_of(*k) == ShardId(s))
                    .take(1 + SUBMITTERS as usize)
                    .collect()
            })
            .collect();
        store.load(keys.iter().flatten().map(|k| (*k, Value::new(0))));
        let start = std::sync::Barrier::new(SUBMITTERS as usize);
        std::thread::scope(|scope| {
            for t in 0..SUBMITTERS {
                let (pool, keys, start) = (&pool, &keys, &start);
                scope.spawn(move || {
                    start.wait();
                    let tickets: Vec<ApplyTicket> = (0..BATCHES)
                        .map(|j| {
                            let batch = keys
                                .iter()
                                .map(|shard_keys| {
                                    let own = shard_keys[1 + t as usize];
                                    let mut rw = ReadWriteSet::new();
                                    rw.record_read(own, Version(1 + j));
                                    rw.record_write(own, Value::new(j + 1));
                                    rw.record_write(shard_keys[0], Value::new(t));
                                    rw
                                })
                                .collect();
                            pool.submit_tracked(t * BATCHES + j, tracked(batch))
                        })
                        .collect();
                    for (j, ticket) in tickets.into_iter().enumerate() {
                        let outcomes = ticket.wait();
                        assert_eq!(outcomes.len(), SHARDS);
                        assert!(
                            outcomes.iter().all(OccOutcome::is_applied),
                            "submitter {t} batch {j} applied out of order: {outcomes:?}"
                        );
                    }
                });
            }
        });
        for shard_keys in &keys {
            assert_eq!(
                store.version_of(shard_keys[0]),
                Version(1 + SUBMITTERS * BATCHES),
                "a shared-key write was lost"
            );
            for own in &shard_keys[1..] {
                assert_eq!(store.get(*own).unwrap().value, Value::new(BATCHES));
            }
        }
        pool.shutdown();
    }

    fn shard() -> ShardQueue {
        ShardQueue::default()
    }

    #[test]
    fn lifecycle_idle_pending_running_idle() {
        let s = shard();
        assert_eq!(s.phase.load(Ordering::Acquire), IDLE);
        assert!(s.try_mark_pending());
        assert_eq!(s.phase.load(Ordering::Acquire), PENDING);
        assert!(!s.try_mark_pending(), "only one Idle→Pending can win");
        s.begin_run();
        assert_eq!(s.phase.load(Ordering::Acquire), RUNNING);
        assert!(!s.finish_run(), "no queued work, stays idle");
        assert_eq!(s.phase.load(Ordering::Acquire), IDLE);
    }

    #[test]
    fn enqueue_wins_scheduling_exactly_once() {
        let s = shard();
        assert!(s.enqueue(ShardTask::default()), "first enqueue schedules");
        assert!(!s.enqueue(ShardTask::default()), "second one piggy-backs");
        assert_eq!(s.queue.lock().expect("shard queue").len(), 2);
    }

    #[test]
    fn finish_run_reschedules_raced_work() {
        let s = shard();
        assert!(s.enqueue(ShardTask::default()));
        s.begin_run();
        let _ = s.pop_task();
        // Work arrives while the worker is still marked Running: the
        // submitter cannot win Idle→Pending …
        assert!(!s.enqueue(ShardTask::default()));
        // … so the worker must pick it up when it finishes.
        assert!(s.finish_run(), "raced-in work must reschedule the shard");
        assert_eq!(s.phase.load(Ordering::Acquire), PENDING);
    }

    #[test]
    #[should_panic(expected = "double-scheduled")]
    fn begin_run_from_idle_panics() {
        shard().begin_run();
    }

    #[test]
    fn concurrent_enqueues_schedule_exactly_once() {
        let s = Arc::new(shard());
        let wins: Vec<bool> = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let s = Arc::clone(&s);
                    scope.spawn(move || s.enqueue(ShardTask::default()))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(wins.iter().filter(|w| **w).count(), 1);
        assert_eq!(s.queue.lock().expect("shard queue").len(), 8);
    }
}
