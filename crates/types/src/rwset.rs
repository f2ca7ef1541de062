//! Keys, values, versions and read/write sets.
//!
//! During execution an executor collects the read-write set `rw` of a
//! transaction (Figure 3, lines 16–18); the verifier later compares the
//! versions it read against the current state of the storage (`ccheck`,
//! lines 31–32) before applying the writes. The types here are shared by
//! the storage engine, the executors and the verifier.

use crate::inline::InlineVec;
use std::collections::BTreeSet;
use std::fmt;

/// A key in the on-premise data-store (YCSB keys are dense integers).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub u64);

/// A value stored under a key. YCSB values are opaque byte strings; we keep
/// them small (8 bytes) and carry a logical length so that wire-size
/// accounting can still model the paper's 1 KiB records.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Value {
    /// The (compressed) value payload used for correctness checks.
    pub data: u64,
    /// Logical size in bytes of the full record, used for cost accounting.
    pub logical_len: u32,
}

/// A monotonically increasing per-key version number maintained by storage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Version(pub u64);

/// The set of keys a transaction declares it will read and write
/// (only available when read-write sets are *known* in advance,
/// Section VI-C).
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct RwSetKeys {
    /// Keys that will be read.
    pub read_keys: BTreeSet<Key>,
    /// Keys that will be written.
    pub write_keys: BTreeSet<Key>,
}

/// Accesses of either kind a [`ReadWriteSet`] holds inline; a transaction
/// reading or writing more keys than this spills that list to the heap.
/// YCSB transactions in the evaluation carry one or two operations.
pub const INLINE_ACCESSES: usize = 2;

/// The observed read-write set `rw` collected by an executor during
/// execution: the versions it read and the values it intends to write.
/// Both lists read as slices; the first [`INLINE_ACCESSES`] entries of
/// each live in the set itself.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct ReadWriteSet {
    /// Keys read together with the version observed at read time.
    pub reads: InlineVec<(Key, Version), INLINE_ACCESSES>,
    /// Keys written together with the new value.
    pub writes: InlineVec<(Key, Value), INLINE_ACCESSES>,
}

impl Key {
    /// Builds a key from a raw integer.
    #[must_use]
    pub const fn new(k: u64) -> Self {
        Key(k)
    }
}

impl Value {
    /// A value with the given payload and the default 1 KiB logical record
    /// size used by the YCSB benchmark configuration of the paper.
    #[must_use]
    pub const fn new(data: u64) -> Self {
        Value {
            data,
            logical_len: 1024,
        }
    }

    /// A value with an explicit logical record length.
    #[must_use]
    pub const fn with_len(data: u64, logical_len: u32) -> Self {
        Value { data, logical_len }
    }
}

impl RwSetKeys {
    /// Creates a declared read-write set from iterators of keys.
    #[must_use]
    pub fn new<R, W>(reads: R, writes: W) -> Self
    where
        R: IntoIterator<Item = Key>,
        W: IntoIterator<Item = Key>,
    {
        RwSetKeys {
            read_keys: reads.into_iter().collect(),
            write_keys: writes.into_iter().collect(),
        }
    }

    /// Two transactions conflict iff they access a common data item and at
    /// least one of the accesses is a write (Section VI).
    #[must_use]
    pub fn conflicts_with(&self, other: &RwSetKeys) -> bool {
        // write-write conflicts
        if self
            .write_keys
            .intersection(&other.write_keys)
            .next()
            .is_some()
        {
            return true;
        }
        // my writes vs their reads
        if self
            .write_keys
            .intersection(&other.read_keys)
            .next()
            .is_some()
        {
            return true;
        }
        // my reads vs their writes
        if self
            .read_keys
            .intersection(&other.write_keys)
            .next()
            .is_some()
        {
            return true;
        }
        false
    }

    /// Whether this set is empty (the transaction touches no data).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read_keys.is_empty() && self.write_keys.is_empty()
    }
}

impl ReadWriteSet {
    /// An empty read-write set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `key` was read at `version`.
    pub fn record_read(&mut self, key: Key, version: Version) {
        self.reads.push((key, version));
    }

    /// Records that `key` will be written with `value`.
    pub fn record_write(&mut self, key: Key, value: Value) {
        self.writes.push((key, value));
    }

    /// Number of reads plus writes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Whether the set records no accesses at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// The keys this observed set touches, as declared-set form.
    #[must_use]
    pub fn keys(&self) -> RwSetKeys {
        RwSetKeys {
            read_keys: self.reads.iter().map(|(k, _)| *k).collect(),
            write_keys: self.writes.iter().map(|(k, _)| *k).collect(),
        }
    }

    /// Wire size in bytes when shipped inside a `VERIFY` message
    /// (key + version per read, key + logical value length per write).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        let read_bytes = self.reads.len() * (8 + 8);
        let write_bytes: usize = self
            .writes
            .iter()
            .map(|(_, v)| 8 + v.logical_len as usize)
            .sum();
        read_bytes + write_bytes
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(ids: &[u64]) -> Vec<Key> {
        ids.iter().copied().map(Key).collect()
    }

    #[test]
    fn conflict_requires_common_key_and_a_write() {
        let t = RwSetKeys::new(keys(&[1]), keys(&[2]));
        let read_only_same = RwSetKeys::new(keys(&[1]), keys(&[]));
        let writes_my_read = RwSetKeys::new(keys(&[]), keys(&[1]));
        let disjoint = RwSetKeys::new(keys(&[5]), keys(&[6]));
        let reads_my_write = RwSetKeys::new(keys(&[2]), keys(&[]));

        assert!(
            !t.conflicts_with(&read_only_same),
            "read-read is not a conflict"
        );
        assert!(t.conflicts_with(&writes_my_read));
        assert!(t.conflicts_with(&reads_my_write));
        assert!(!t.conflicts_with(&disjoint));
    }

    #[test]
    fn conflict_is_symmetric() {
        let a = RwSetKeys::new(keys(&[1, 2]), keys(&[3]));
        let b = RwSetKeys::new(keys(&[3]), keys(&[4]));
        assert_eq!(a.conflicts_with(&b), b.conflicts_with(&a));
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn write_write_conflicts() {
        let a = RwSetKeys::new(keys(&[]), keys(&[7]));
        let b = RwSetKeys::new(keys(&[]), keys(&[7]));
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn declared_set_predicates() {
        let a = RwSetKeys::new(keys(&[1, 2]), keys(&[2, 3]));
        assert!(!a.is_empty());
        assert!(RwSetKeys::default().is_empty());
    }

    #[test]
    fn observed_set_records_and_reports() {
        let mut rw = ReadWriteSet::new();
        assert!(rw.is_empty());
        rw.record_read(Key(1), Version(4));
        rw.record_write(Key(2), Value::new(99));
        assert_eq!(rw.len(), 2);
        assert!(!rw.is_empty());
        let declared = rw.keys();
        assert!(declared.read_keys.contains(&Key(1)));
        assert!(declared.write_keys.contains(&Key(2)));
    }

    #[test]
    fn accesses_past_the_inline_capacity_spill_and_read_the_same() {
        let mut rw = ReadWriteSet::new();
        for k in 0..=INLINE_ACCESSES as u64 {
            assert!(!rw.reads.spilled() && !rw.writes.spilled());
            rw.record_read(Key(k), Version(k));
            rw.record_write(Key(k), Value::with_len(k, 10));
        }
        assert!(rw.reads.spilled() && rw.writes.spilled());
        assert_eq!(rw.len(), 2 * (INLINE_ACCESSES + 1));
        assert_eq!(rw.reads[INLINE_ACCESSES], (Key(2), Version(2)));
        assert_eq!(rw.wire_size(), (INLINE_ACCESSES + 1) * (16 + 18));
    }

    #[test]
    fn wire_size_counts_logical_record_lengths() {
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(0));
        rw.record_write(Key(2), Value::with_len(1, 100));
        assert_eq!(rw.wire_size(), 16 + 8 + 100);
    }

    #[test]
    fn default_value_models_one_kib_records() {
        assert_eq!(Value::new(5).logical_len, 1024);
    }
}
