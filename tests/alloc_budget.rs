//! The allocation budget of one simulated transaction.
//!
//! A counting `#[global_allocator]` (this test binary only) wraps one
//! `SimHarness::run()` of a one-region `NonConflicting` point — the shape
//! of the benchmark's `saturate` workload, shrunk — and asserts how many
//! heap allocations and how many requested bytes a validated transaction
//! costs. Two run lengths are differenced, so set-up, the first batch of
//! every table and the warm-up of every reusable buffer cancel out and
//! what is left is the steady state. The simulator is single-threaded and
//! deterministic per seed, so the count repeats exactly: a regression is
//! a failing number here, not a profile.

use serverless_bft::core::SystemBuilder;
use serverless_bft::sim::{SimHarness, SimParams};
use serverless_bft::types::{RegionSet, SimDuration, SystemConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations a validated transaction may cost (16.4 before the
/// allocator came off the per-transaction path).
const MAX_ALLOCS_PER_TXN: f64 = 6.0;
/// Requested bytes a validated transaction may cost (6 076 before).
const MAX_BYTES_PER_TXN: f64 = 2_560.0;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every allocation (a
/// `realloc` counts as one, with its new size).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters are
// plain atomics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for `layout`; `new_size`
        // is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CLIENTS: usize = 2_000;

/// One run of the point for `duration` of simulated time: what `run()`
/// allocated and how many transactions the verifier validated (committed
/// or aborted, warm-up included — every one of them was paid for).
fn run(duration: SimDuration) -> (u64, u64, u64) {
    let mut config = SystemConfig::with_shim_size(4);
    config.regions = RegionSet::home_only();
    config.workload.num_clients = CLIENTS;
    config.workload.num_records = 20_000;
    assert_eq!(config.workload.batch_size, 100);
    assert_eq!(config.workload.ops_per_txn, 1);
    let system = SystemBuilder::new(config).clients(CLIENTS).seed(42).build();
    let harness = SimHarness::new(
        system,
        SimParams {
            duration,
            warmup: SimDuration::ZERO,
            num_clients: CLIENTS,
            seed: 42,
            ..SimParams::default()
        },
    );
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let metrics = harness.run();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    assert_eq!(metrics.aborted_txns, 0, "one region: nothing aborts");
    let validated =
        metrics.counter("verifier.committed_txns") + metrics.counter("verifier.aborted_txns");
    (allocs, bytes, validated)
}

// The only test of this binary: nothing else may allocate while it counts.
#[test]
fn a_steady_state_transaction_stays_inside_its_allocation_budget() {
    let short = run(SimDuration::from_millis(300));
    let long = run(SimDuration::from_millis(900));
    let txns = long.2 - short.2;
    assert!(
        txns > 20_000,
        "the longer run validated only {txns} more transactions"
    );
    let allocs_per_txn = (long.0 - short.0) as f64 / txns as f64;
    let bytes_per_txn = (long.1 - short.1) as f64 / txns as f64;
    println!(
        "steady state over {txns} transactions: {allocs_per_txn:.2} allocations, \
         {bytes_per_txn:.0} requested bytes per validated transaction"
    );
    assert!(
        allocs_per_txn <= MAX_ALLOCS_PER_TXN,
        "{allocs_per_txn:.2} allocations per transaction (budget {MAX_ALLOCS_PER_TXN})"
    );
    assert!(
        bytes_per_txn <= MAX_BYTES_PER_TXN,
        "{bytes_per_txn:.0} requested bytes per transaction (budget {MAX_BYTES_PER_TXN})"
    );
}
