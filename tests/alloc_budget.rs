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
//!
//! The same allocator keeps the bytes currently allocated and their
//! high-water mark, which makes resident memory a failing number too.
//! *At rest*: what one more client costs once `SystemBuilder::build()`
//! has returned — the difference between two populations over the same
//! store, chosen inside one power-of-two step of every table the builder
//! sizes by the population, so records and tables cancel. *At the peak*:
//! the high-water mark of building and running the point less the bytes
//! of its records, per client — at this population mostly what the shim
//! and the verifier retain per transaction of the last two checkpoint
//! intervals, which is where the duplicate-suppression table lives.
//! *Per record*: the bytes of a populated YCSB table over its records.
//!
//! The record load itself is counted too: one allocation per shard for
//! its slot array, reserved once, plus the vector of the shards' guards —
//! none per record and no array regrown. Populating the YCSB table is
//! counted exactly: one slot array per non-empty shard, the shard vector
//! and the `Arc` the table shares the store through — no guard vector.

use serverless_bft::core::SystemBuilder;
use serverless_bft::sim::{SimHarness, SimParams};
use serverless_bft::storage::{VersionedStore, YcsbTable};
use serverless_bft::types::{Key, RegionSet, SimDuration, SystemConfig, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations a validated transaction may cost (16.4 before the
/// allocator came off the per-transaction path).
const MAX_ALLOCS_PER_TXN: f64 = 6.0;
/// Requested bytes a validated transaction may cost (6 076 before).
const MAX_BYTES_PER_TXN: f64 = 2_560.0;

/// Bytes a client may keep allocated once the deployment is built: its
/// role, nothing on the heap (96 measured; 184 while its crypto handle
/// carried its own signing schedule and a MAC-schedule block, 456 while
/// the role carried a 232-byte crypto handle and owned a MAC-schedule
/// table and a list of outstanding requests on the heap).
const MAX_BYTES_PER_CLIENT_AT_REST: f64 = 104.0;
/// Bytes per client the point may hold at its peak, records excluded
/// (3 826 measured; 3 914 while every client's signing schedule was held
/// in its handle as well as in the key store, 4 631 while every answered
/// request's client deadline stayed queued until due, 5 304 while the
/// shim kept two per-id ledgers and a 96-byte payload per waiting id
/// beside its duplicate-suppression table, 7 173 while every suppressed
/// id kept that payload and the tables sized by the population were
/// regrown by doubling).
const MAX_PEAK_BYTES_PER_CLIENT: f64 = 4_200.0;
/// Bytes a loaded YCSB record may cost: its 16-byte slot in a slot array
/// (16.3 measured; 24.3 while a slot held a whole 24-byte `StoreEntry`,
/// 54.3 while every record sat in a hash bucket).
const MAX_BYTES_PER_RECORD: f64 = 18.0;
/// Shards of `VersionedStore::new()`: loading it may allocate one slot
/// array per shard and the vector of their guards.
const STORE_SHARDS: u64 = 64;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Requested bytes currently allocated, and their high-water mark.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by as u64, Ordering::Relaxed);
}

/// Forwards to the system allocator, counting every allocation (a
/// `realloc` counts as one, with its new size, and moves the live bytes
/// by the difference — as if it never held two copies).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters are
// plain atomics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(more) => grew(more),
            None => shrank(layout.size() - new_size),
        }
        // SAFETY: `ptr` was returned by `System` for `layout`; `new_size`
        // is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CLIENTS: usize = 2_000;
/// The second population of the at-rest difference. Like `CLIENTS` it
/// makes the builder reserve 4 096 buckets per table.
const MORE_CLIENTS: usize = 3_000;
const RECORDS: u64 = 20_000;

fn live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The point's deployment with `clients` clients, and the bytes it keeps
/// allocated.
fn build(clients: usize) -> (serverless_bft::core::System, u64) {
    let mut config = SystemConfig::with_shim_size(4);
    config.regions = RegionSet::home_only();
    config.workload.num_clients = clients;
    config.workload.num_records = RECORDS;
    assert_eq!(config.workload.batch_size, 100);
    assert_eq!(config.workload.ops_per_txn, 1);
    let outside = live();
    let system = SystemBuilder::new(config).clients(clients).seed(42).build();
    (system, live() - outside)
}

/// What one run of the point cost.
struct Pass {
    /// Allocations and requested bytes of `run()`.
    allocs: u64,
    bytes: u64,
    /// Transactions the verifier validated (committed or aborted, warm-up
    /// included — every one of them was paid for).
    validated: u64,
    /// High-water mark of the bytes allocated by building and running.
    peak_live: u64,
}

/// One run of the point for `duration` of simulated time.
fn run(duration: SimDuration) -> Pass {
    let outside = live();
    PEAK.store(outside, Ordering::Relaxed);
    let (system, _) = build(CLIENTS);
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
    let peak_live = PEAK.load(Ordering::Relaxed) - outside;
    assert_eq!(metrics.aborted_txns, 0, "one region: nothing aborts");
    let validated =
        metrics.counter("verifier.committed_txns") + metrics.counter("verifier.aborted_txns");
    Pass {
        allocs,
        bytes,
        validated,
        peak_live,
    }
}

// The only test of this binary: nothing else may allocate while it counts.
#[test]
fn a_steady_state_transaction_stays_inside_its_allocation_budget() {
    let short = run(SimDuration::from_millis(300));
    let long = run(SimDuration::from_millis(900));
    let txns = long.validated - short.validated;
    assert!(
        txns > 20_000,
        "the longer run validated only {txns} more transactions"
    );
    let allocs_per_txn = (long.allocs - short.allocs) as f64 / txns as f64;
    let bytes_per_txn = (long.bytes - short.bytes) as f64 / txns as f64;
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

    let at_rest =
        (build(MORE_CLIENTS).1 - build(CLIENTS).1) as f64 / (MORE_CLIENTS - CLIENTS) as f64;
    let outside = live();
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let records = YcsbTable::populate(RECORDS);
    let populate_allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let record_bytes = live() - outside;
    drop(records);
    let per_record = record_bytes as f64 / RECORDS as f64;
    let at_peak = (long.peak_live - record_bytes) as f64 / CLIENTS as f64;
    println!(
        "resident: {at_rest:.0} bytes per client at rest; {} bytes at the peak of the longer \
         run, {record_bytes} of them records ({per_record:.1} per record): {at_peak:.0} per \
         client",
        long.peak_live
    );
    assert!(
        at_rest <= MAX_BYTES_PER_CLIENT_AT_REST,
        "{at_rest:.0} bytes per client at rest (budget {MAX_BYTES_PER_CLIENT_AT_REST})"
    );
    assert!(
        at_peak <= MAX_PEAK_BYTES_PER_CLIENT,
        "{at_peak:.0} bytes per client at the peak (budget {MAX_PEAK_BYTES_PER_CLIENT})"
    );
    assert!(
        per_record <= MAX_BYTES_PER_RECORD,
        "{per_record:.1} bytes per record (budget {MAX_BYTES_PER_RECORD})"
    );
    // Every shard of `RECORDS` keys is non-empty.
    println!("populating {RECORDS} records: {populate_allocs} allocations");
    assert_eq!(
        populate_allocs,
        STORE_SHARDS + 2,
        "populating the table: one slot array per shard, the shard vector and the table's Arc"
    );

    let store = VersionedStore::new();
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    store.load((0..RECORDS).map(|i| (Key(i), Value::new(i))));
    let load_allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let load_bytes = BYTES.load(Ordering::Relaxed) - bytes;
    assert_eq!(store.len() as u64, RECORDS);
    println!("loading {RECORDS} records: {load_allocs} allocations, {load_bytes} requested bytes");
    assert!(
        load_allocs <= STORE_SHARDS + 1,
        "{load_allocs} allocations to load {RECORDS} records (budget {})",
        STORE_SHARDS + 1
    );
}
