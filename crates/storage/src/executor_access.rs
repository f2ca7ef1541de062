//! Read-only storage access for executors.
//!
//! Executors "connect with the storage S and fetch the required data.
//! However, executors do not write to the storage. Any intermediate
//! results are stored locally" (Section IV-C). [`StorageReader`] is that
//! read-only facade: it can fetch values and versions but exposes no write
//! path, so the type system enforces the paper's access-control rule that
//! neither edge devices nor executors may update the store.

use crate::kvstore::{StoreEntry, VersionedStore};
use sbft_types::{Key, Value, Version};
use std::sync::Arc;

/// A read-only handle on the on-premise data-store.
#[derive(Clone, Debug)]
pub struct StorageReader {
    store: Arc<VersionedStore>,
}

impl StorageReader {
    /// Wraps a store in a read-only facade.
    #[must_use]
    pub fn new(store: Arc<VersionedStore>) -> Self {
        StorageReader { store }
    }

    /// Fetches the current value and version of a key. Missing keys read as
    /// the default value at version 0, which lets transactions insert new
    /// keys (blind writes) without a separate existence protocol.
    #[must_use]
    pub fn fetch(&self, key: Key) -> StoreEntry {
        self.store.get(key).unwrap_or(StoreEntry {
            value: Value::new(0),
            version: Version(0),
        })
    }

    /// Number of records in the underlying store (used by workload
    /// generators to pick keys).
    #[must_use]
    pub fn num_records(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader_with(keys: &[(u64, u64)]) -> StorageReader {
        let store = Arc::new(VersionedStore::new());
        store.load(keys.iter().map(|&(k, v)| (Key(k), Value::new(v))));
        StorageReader::new(store)
    }

    #[test]
    fn fetch_returns_loaded_values() {
        let reader = reader_with(&[(1, 11), (2, 22)]);
        assert_eq!(reader.fetch(Key(1)).value, Value::new(11));
        assert_eq!(reader.fetch(Key(1)).version, Version(1));
        assert_eq!(reader.num_records(), 2);
    }

    #[test]
    fn missing_keys_read_as_default_at_version_zero() {
        let reader = reader_with(&[]);
        let entry = reader.fetch(Key(42));
        assert_eq!(entry.value, Value::new(0));
        assert_eq!(entry.version, Version(0));
    }

    #[test]
    fn reader_observes_later_verifier_writes() {
        let store = Arc::new(VersionedStore::new());
        store.load([(Key(1), Value::new(1))]);
        let reader = StorageReader::new(Arc::clone(&store));
        assert_eq!(reader.fetch(Key(1)).version, Version(1));
        store.put(Key(1), Value::new(2));
        assert_eq!(reader.fetch(Key(1)).version, Version(2));
        assert_eq!(reader.fetch(Key(1)).value, Value::new(2));
    }
}
