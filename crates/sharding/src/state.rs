//! Per-shard isolated state and the atomic scheduling lifecycle.
//!
//! A shard owns a contiguous-by-hash slice of the key space. It carries:
//!
//! * a [`ShardStoreView`] — its window onto the versioned store, policing
//!   that only keys the router assigns to this shard are touched through
//!   it,
//! * a **pending-batch queue** of [`ShardTask`]s waiting for a worker,
//! * the OCC counters (committed / aborted / cross-shard),
//! * the atomic lifecycle `Idle → Pending → Running → Idle`. Transitions
//!   are compare-and-swap, so only one `Idle → Pending` can succeed at a
//!   time: a shard is never enqueued twice and never run by two workers
//!   concurrently, which is what makes a shard a serialisation domain.

use crate::router::{ShardId, ShardRouter, ShardSet};
use crate::scheduler::TicketState;
use parking_lot::{Mutex, MutexGuard};
use sbft_storage::VersionedStore;
use sbft_types::{Key, TxnResult, Value, Version};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// No pending work and not enqueued; the only schedulable phase.
const IDLE: u8 = 0;
/// Enqueued in the scheduler's work queue, not yet picked up.
const PENDING: u8 = 1;
/// A worker is executing the shard's queue.
const RUNNING: u8 = 2;

/// A unit of queued work: the transactions of one submitted batch that
/// are homed on this shard. Everything but `indices` is shared with the
/// batch's other shard tasks, so queueing a batch clones no read-write
/// set.
#[derive(Clone, Debug, Default)]
pub struct ShardTask {
    /// Sequence number of the originating batch (for tracing).
    pub seq: u64,
    /// The whole batch's results (the submitter's allocation,
    /// refcount-bumped).
    pub txns: Arc<[TxnResult]>,
    /// The involved-shard set of every transaction of the batch, as the
    /// submitter routed it: the worker commits through it instead of
    /// hashing the keys again.
    pub routes: Arc<[ShardSet]>,
    /// Which transactions of the batch live on this shard.
    pub indices: Vec<u32>,
    /// Where the per-transaction outcomes are recorded.
    pub ticket: Arc<TicketState>,
}

/// A shard's window onto the shared versioned store.
///
/// The physical store is shared (and internally lock-striped); the view
/// enforces — with debug assertions — that a shard only ever reads or
/// writes keys the router assigns to it, which is the isolation invariant
/// the cross-shard lock ordering relies on.
#[derive(Clone)]
pub struct ShardStoreView {
    store: Arc<VersionedStore>,
    router: ShardRouter,
    shard: ShardId,
}

impl ShardStoreView {
    /// Creates a view of `store` restricted to `shard`.
    #[must_use]
    pub fn new(store: Arc<VersionedStore>, router: ShardRouter, shard: ShardId) -> Self {
        ShardStoreView {
            store,
            router,
            shard,
        }
    }

    /// Whether this shard owns `key`.
    #[must_use]
    fn owns(&self, key: Key) -> bool {
        self.router.shard_of(key) == self.shard
    }

    /// Current version of an owned key.
    #[must_use]
    pub fn version_of(&self, key: Key) -> Version {
        debug_assert!(self.owns(key), "{key} is not owned by {}", self.shard);
        self.store.version_of(key)
    }

    /// Writes an owned key, bumping its version.
    pub fn put(&self, key: Key, value: Value) -> Version {
        debug_assert!(self.owns(key), "{key} is not owned by {}", self.shard);
        self.store.put(key, value)
    }

    /// The underlying shared store (for cross-shard coordination paths).
    #[must_use]
    pub fn store(&self) -> &Arc<VersionedStore> {
        &self.store
    }
}

/// One execution shard: store view, pending queue, lifecycle and counters.
pub struct ShardState {
    id: ShardId,
    view: ShardStoreView,
    phase: AtomicU8,
    queue: Mutex<VecDeque<ShardTask>>,
    exec_lock: Mutex<()>,
    committed: AtomicU64,
    aborted: AtomicU64,
    cross_shard: AtomicU64,
}

impl ShardState {
    /// Creates the state for shard `id` over the shared store.
    #[must_use]
    pub fn new(id: ShardId, store: Arc<VersionedStore>, router: ShardRouter) -> Self {
        ShardState {
            id,
            view: ShardStoreView::new(store, router, id),
            phase: AtomicU8::new(IDLE),
            queue: Mutex::new(VecDeque::new()),
            exec_lock: Mutex::new(()),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            cross_shard: AtomicU64::new(0),
        }
    }

    /// This shard's identifier.
    #[must_use]
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// This shard's store view.
    #[must_use]
    pub fn view(&self) -> &ShardStoreView {
        &self.view
    }

    /// Appends a task to the pending queue. Returns `true` if the caller
    /// won the `Idle → Pending` transition and must hand the shard to the
    /// scheduler's work queue (exactly one concurrent caller wins).
    pub fn enqueue(&self, task: ShardTask) -> bool {
        self.queue.lock().push_back(task);
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
    pub fn begin_run(&self) {
        let prev = self.phase.swap(RUNNING, Ordering::AcqRel);
        assert_eq!(prev, PENDING, "shard {} double-scheduled", self.id);
    }

    /// Marks the shard `Idle` after a worker drained it. Returns `true` if
    /// new work raced in behind the drain and the shard must be scheduled
    /// again (the caller re-enqueues it).
    pub fn finish_run(&self) -> bool {
        self.phase.store(IDLE, Ordering::Release);
        // A submitter that enqueued between our last `pop_task` and the
        // store above lost the Idle→Pending race to nobody: re-check.
        if self.queue.lock().is_empty() {
            false
        } else {
            self.try_mark_pending()
        }
    }

    /// Pops the oldest pending task.
    #[must_use]
    pub fn pop_task(&self) -> Option<ShardTask> {
        self.queue.lock().pop_front()
    }

    /// The shard's execution lock. Single-shard work locks only its own
    /// shard; cross-shard work locks every involved shard in ascending
    /// [`ShardId`] order — the global order that makes the two-phase path
    /// deadlock-free.
    pub fn exec_lock(&self) -> MutexGuard<'_, ()> {
        self.exec_lock.lock()
    }

    /// Records a committed transaction.
    pub fn record_commit(&self) {
        self.committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an aborted transaction.
    pub fn record_abort(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records participation in a cross-shard transaction.
    pub fn record_cross_shard(&self) {
        self.cross_shard.fetch_add(1, Ordering::Relaxed);
    }

    /// Transactions committed on this shard.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Transactions aborted on this shard.
    #[must_use]
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Cross-shard transactions this shard participated in.
    #[must_use]
    pub fn cross_shard(&self) -> u64 {
        self.cross_shard.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> ShardState {
        ShardState::new(
            ShardId(0),
            Arc::new(VersionedStore::new()),
            ShardRouter::new(1),
        )
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
        assert_eq!(s.queue.lock().len(), 2);
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
        assert_eq!(s.queue.lock().len(), 8);
    }

    #[test]
    fn view_polices_ownership() {
        let store = Arc::new(VersionedStore::new());
        let router = ShardRouter::new(4);
        let s = ShardState::new(ShardId(2), Arc::clone(&store), router);
        // Find a key owned by shard 2 and one that is not.
        let owned = (0..)
            .map(Key)
            .find(|k| router.shard_of(*k) == ShardId(2))
            .unwrap();
        assert!(s.view().owns(owned));
        let v = s.view().put(owned, Value::new(1));
        assert_eq!(v, Version(1));
        assert_eq!(s.view().version_of(owned), Version(1));
        let foreign = (0..)
            .map(Key)
            .find(|k| router.shard_of(*k) != ShardId(2))
            .unwrap();
        assert!(!s.view().owns(foreign));
    }
}
