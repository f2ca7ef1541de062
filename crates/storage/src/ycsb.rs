//! YCSB-style record population.
//!
//! The evaluation "uses YCSB to create key-value transactions that access
//! a database of 600 k records" (Section IX, *Benchmark*). This module
//! provides the deterministic record layout: dense keys `0..num_records`
//! with 1 KiB records whose payload is a deterministic function of the key,
//! so every honest executor computes identical results without shipping
//! real 1 KiB blobs around the simulator.

use crate::kvstore::VersionedStore;
use sbft_types::Value;
use std::sync::Arc;

/// Logical YCSB record size in bytes.
const RECORD_SIZE_BYTES: u32 = 1024;

/// The initial value of the `i`-th YCSB record: a deterministic payload
/// standing in for the 1 KiB random string YCSB would generate.
#[must_use]
fn ycsb_value(i: u64) -> Value {
    // SplitMix64 of the key; any fixed bijective mixing works.
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    Value::with_len(z ^ (z >> 31), RECORD_SIZE_BYTES)
}

/// A populated YCSB table wrapping the versioned store.
#[derive(Clone, Debug)]
pub struct YcsbTable {
    store: Arc<VersionedStore>,
}

impl YcsbTable {
    /// Populates a fresh store with `num_records` records, built shard by
    /// shard ([`VersionedStore::dense`]).
    #[must_use]
    pub fn populate(num_records: u64) -> Self {
        YcsbTable {
            store: Arc::new(VersionedStore::dense(num_records, ycsb_value)),
        }
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &Arc<VersionedStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{Key, Version};

    #[test]
    fn populate_loads_exactly_n_records() {
        let table = YcsbTable::populate(1_000);
        assert_eq!(table.store().len(), 1_000);
        assert!(table.store().get(Key(999)).is_some());
        assert!(table.store().get(Key(1_000)).is_none());
    }

    #[test]
    fn records_start_at_version_one() {
        let table = YcsbTable::populate(10);
        for i in 0..10 {
            assert_eq!(table.store().version_of(Key(i)), Version(1));
        }
    }

    #[test]
    fn values_are_deterministic_and_distinct() {
        assert_eq!(ycsb_value(5), ycsb_value(5));
        let mut seen = std::collections::HashSet::new();
        for i in 0..1_000 {
            assert!(seen.insert(ycsb_value(i).data), "collision at {i}");
        }
    }

    #[test]
    fn records_model_one_kib_payloads() {
        assert_eq!(ycsb_value(0).logical_len, 1024);
    }
}
