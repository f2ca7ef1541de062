//! The verifier's concurrency-control check.
//!
//! `ccheck` (Figure 3, lines 30–35): before applying the writes of the
//! `k_max`-th transaction, the verifier fetches the current state of the
//! transaction's read-write set and compares it with the state the
//! executors observed. If the read sets match, the writes are applied and
//! `RESPONSE` is sent; otherwise (conflicting transaction with stale
//! reads, Section VI-B) the transaction is aborted.

use crate::kvstore::VersionedStore;
use sbft_types::{Key, ReadWriteSet};

/// The outcome of a concurrency-control check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OccOutcome {
    /// All reads are still current; the writes were applied.
    Applied,
    /// At least one read was stale; nothing was written.
    StaleReads(Vec<Key>),
}

impl OccOutcome {
    /// Whether the transaction's writes were applied.
    #[must_use]
    pub fn is_applied(&self) -> bool {
        matches!(self, OccOutcome::Applied)
    }
}

/// Validates observed read-write sets against the store and applies writes.
#[derive(Debug)]
pub struct ConcurrencyChecker;

impl ConcurrencyChecker {
    /// Checks whether the versions recorded in `rwset.reads` are still the
    /// current versions in `store` (without applying anything).
    #[must_use]
    fn reads_current(store: &VersionedStore, rwset: &ReadWriteSet) -> Vec<Key> {
        rwset
            .reads
            .iter()
            .filter(|(key, version)| store.version_of(*key) != *version)
            .map(|(key, _)| *key)
            .collect()
    }

    /// Runs the full check-then-apply step of `ccheck`: if every read is
    /// still current the writes are applied and [`OccOutcome::Applied`] is
    /// returned; otherwise the stale keys are reported and the store is
    /// left untouched.
    ///
    /// When `validate_reads` is false (non-conflicting workloads,
    /// Section IV-D note) the read-set comparison is skipped, matching the
    /// paper: "matching read-write sets is only required when the
    /// transactions are conflicting".
    pub fn check_and_apply(
        store: &VersionedStore,
        rwset: &ReadWriteSet,
        validate_reads: bool,
    ) -> OccOutcome {
        if validate_reads {
            let stale = Self::reads_current(store, rwset);
            if !stale.is_empty() {
                store.stats().record_stale_read_rejection();
                return OccOutcome::StaleReads(stale);
            }
        }
        store.apply_writes(&rwset.writes);
        OccOutcome::Applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{Value, Version};

    fn store_with(keys: &[(u64, u64)]) -> VersionedStore {
        let store = VersionedStore::new();
        store.load(keys.iter().map(|&(k, v)| (Key(k), Value::new(v))));
        store
    }

    #[test]
    fn fresh_reads_apply_writes() {
        let store = store_with(&[(1, 10), (2, 20)]);
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(1));
        rw.record_write(Key(2), Value::new(99));
        let outcome = ConcurrencyChecker::check_and_apply(&store, &rw, true);
        assert!(outcome.is_applied());
        assert_eq!(store.get(Key(2)).unwrap().value, Value::new(99));
        assert_eq!(store.version_of(Key(2)), Version(2));
    }

    #[test]
    fn stale_read_blocks_writes() {
        let store = store_with(&[(1, 10), (2, 20)]);
        // Another transaction bumps key 1 to version 2.
        store.put(Key(1), Value::new(11));
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(1)); // stale now
        rw.record_write(Key(2), Value::new(99));
        let outcome = ConcurrencyChecker::check_and_apply(&store, &rw, true);
        assert_eq!(outcome, OccOutcome::StaleReads(vec![Key(1)]));
        assert_eq!(
            store.get(Key(2)).unwrap().value,
            Value::new(20),
            "no write applied"
        );
        assert_eq!(store.stats().stale_read_rejections(), 1);
    }

    #[test]
    fn validation_skipped_for_non_conflicting_mode() {
        let store = store_with(&[(1, 10), (2, 20)]);
        store.put(Key(1), Value::new(11));
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(1)); // stale, but validation is off
        rw.record_write(Key(2), Value::new(99));
        let outcome = ConcurrencyChecker::check_and_apply(&store, &rw, false);
        assert!(outcome.is_applied());
        assert_eq!(store.get(Key(2)).unwrap().value, Value::new(99));
    }

    #[test]
    fn read_of_missing_key_with_version_zero_is_current() {
        let store = store_with(&[]);
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(7), Version(0));
        assert!(ConcurrencyChecker::reads_current(&store, &rw).is_empty());
    }

    #[test]
    fn multiple_stale_keys_all_reported() {
        let store = store_with(&[(1, 1), (2, 2), (3, 3)]);
        store.put(Key(1), Value::new(9));
        store.put(Key(3), Value::new(9));
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(1));
        rw.record_read(Key(2), Version(1));
        rw.record_read(Key(3), Version(1));
        let stale = ConcurrencyChecker::reads_current(&store, &rw);
        assert_eq!(stale, vec![Key(1), Key(3)]);
    }

    #[test]
    fn write_only_transaction_always_applies() {
        let store = store_with(&[(5, 5)]);
        let mut rw = ReadWriteSet::new();
        rw.record_write(Key(5), Value::new(50));
        assert!(ConcurrencyChecker::check_and_apply(&store, &rw, true).is_applied());
        assert_eq!(store.get(Key(5)).unwrap().value, Value::new(50));
    }
}
