//! Batches of client transactions.
//!
//! The evaluation (Section IX) batches 100 client transactions per
//! consensus by default and sweeps the batch size from 10 to 8000 in the
//! batching experiment (Figure 6(iii)–(iv)). A batch is the unit the shim
//! orders, the primary spawns executors for, and the verifier validates.
//!
//! # Zero-copy representation
//!
//! A batch travels through every layer of the architecture: the batcher
//! builds it, the primary embeds it in a `PREPREPARE`, every replica
//! stores it in its consensus log, the primary re-reads it to build
//! `EXECUTE` messages (one per spawned executor), and view changes
//! re-propose it. The transactions are therefore held behind an
//! `Arc<[Transaction]>`: cloning a [`Batch`] is a reference-count bump,
//! never a deep copy of the transaction vector. Two clones of the same
//! batch share storage, which [`Batch::shares_txns`] exposes so tests can
//! prove the hot path allocates no per-transaction memory.
//!
//! The batch also memoizes its wire digest `Δ = H(m)`: the consensus
//! layer computes it once through [`Batch::digest_memo`] and every clone
//! — whether taken before or after the computation — shares the cache
//! slot (it lives behind its own `Arc`), so replicas never re-hash a
//! batch they already validated.

use crate::digest::Digest;
use crate::ids::TxnId;
use crate::transaction::Transaction;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a batch: the identifier of its first transaction plus the
/// number of transactions. Honest components derive identical identifiers
/// for identical batches.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchId {
    /// Identifier of the first transaction in the batch.
    pub first: TxnId,
    /// Number of transactions in the batch.
    pub len: u32,
}

/// An ordered batch of client transactions, shared by reference count.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The transactions, in the order chosen by the batching front-end.
    txns: Arc<[Transaction]>,
    /// Memoized wire digest `Δ = H(m)` (filled by the consensus layer on
    /// first use). The slot is behind its own `Arc` so every clone of the
    /// batch — including clones taken *before* the first computation —
    /// shares one cache: a later fill is visible to all copies.
    digest: Arc<OnceLock<Digest>>,
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        // The digest cache is derived state; equality is over the payload.
        Arc::ptr_eq(&self.txns, &other.txns) || self.txns == other.txns
    }
}

impl Eq for Batch {}

impl Batch {
    /// Creates a batch from a list of transactions.
    ///
    /// # Panics
    /// Panics if the list is empty — the protocol never orders empty batches.
    #[must_use]
    pub fn new(txns: Vec<Transaction>) -> Self {
        assert!(
            !txns.is_empty(),
            "batches must contain at least one transaction"
        );
        Batch {
            txns: txns.into(),
            digest: Arc::new(OnceLock::new()),
        }
    }

    /// A batch with a single transaction (unbatched operation).
    #[must_use]
    pub fn single(txn: Transaction) -> Self {
        Batch::new(vec![txn])
    }

    /// Creates a batch around already-shared transaction storage.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    #[must_use]
    pub fn from_shared(txns: Arc<[Transaction]>) -> Self {
        assert!(
            !txns.is_empty(),
            "batches must contain at least one transaction"
        );
        Batch {
            txns,
            digest: Arc::new(OnceLock::new()),
        }
    }

    /// The transactions of the batch, in order.
    #[must_use]
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// Iterates over the transactions.
    pub fn iter(&self) -> std::slice::Iter<'_, Transaction> {
        self.txns.iter()
    }

    /// Whether two batches share the same transaction storage (a clone
    /// relationship, not just equal contents). Used to prove the hot path
    /// is zero-copy.
    #[must_use]
    pub fn shares_txns(&self, other: &Batch) -> bool {
        Arc::ptr_eq(&self.txns, &other.txns)
    }

    /// Returns the memoized batch digest, computing it with `compute` on
    /// first use. The digest function itself lives in the consensus layer
    /// (it defines the wire format); this only provides the cache slot.
    pub fn digest_memo(&self, compute: impl FnOnce() -> Digest) -> Digest {
        *self.digest.get_or_init(compute)
    }

    /// The cached batch digest, if one has been computed on this value.
    #[must_use]
    pub fn cached_digest(&self) -> Option<Digest> {
        self.digest.get().copied()
    }

    /// The identifier of this batch.
    #[must_use]
    pub fn id(&self) -> BatchId {
        BatchId {
            first: self.txns[0].id,
            len: self.txns.len() as u32,
        }
    }

    /// Number of transactions in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the batch is empty (never true for constructed batches; kept
    /// for the `len`/`is_empty` pairing convention).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Identifiers of all transactions in the batch.
    #[must_use]
    pub fn txn_ids(&self) -> Vec<TxnId> {
        self.txns.iter().map(|t| t.id).collect()
    }

    /// Total modeled execution cost of the batch (executors run the batch's
    /// transactions sequentially within one invocation).
    #[must_use]
    pub fn total_execution_cost(&self) -> crate::time::SimDuration {
        self.txns
            .iter()
            .fold(crate::time::SimDuration::ZERO, |acc, t| {
                acc + t.execution_cost
            })
    }

    /// Wire size of the batch when embedded in a `PREPREPARE` message.
    ///
    /// With the default experiment configuration (100 single-op YCSB
    /// transactions) this lands near the paper's reported 5392 B
    /// `PREPREPARE` size.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        // 40 B of batch framing + per-txn compact encoding. Client requests
        // are shipped once to the primary; the pre-prepare carries a compact
        // per-transaction encoding (id + ops), not the client signatures.
        40 + self
            .txns
            .iter()
            .map(|t| 16 + t.ops.len() * 17 + 20)
            .sum::<usize>()
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a Transaction;
    type IntoIter = std::slice::Iter<'a, Transaction>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B[{:?}+{}]", self.first, self.len)
    }
}

impl fmt::Display for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::rwset::Key;
    use crate::transaction::Operation;

    fn txn(client: u32, counter: u64) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(client), counter),
            vec![Operation::Read(Key(counter))],
        )
    }

    #[test]
    fn batch_id_is_first_plus_len() {
        let b = Batch::new(vec![txn(0, 0), txn(1, 0), txn(2, 0)]);
        let id = b.id();
        assert_eq!(id.first, TxnId::new(ClientId(0), 0));
        assert_eq!(id.len, 3);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one transaction")]
    fn empty_batch_panics() {
        let _ = Batch::new(vec![]);
    }

    #[test]
    fn single_batch_has_one_txn() {
        let b = Batch::single(txn(5, 9));
        assert_eq!(b.len(), 1);
        assert_eq!(b.txn_ids(), vec![TxnId::new(ClientId(5), 9)]);
    }

    #[test]
    fn clones_share_transaction_storage() {
        let b = Batch::new(vec![txn(0, 0), txn(1, 0)]);
        let c = b.clone();
        assert!(b.shares_txns(&c), "a clone must be a refcount bump");
        assert_eq!(Arc::strong_count(&b.txns), 2);
        assert_eq!(b, c);
        drop(c);
        assert_eq!(Arc::strong_count(&b.txns), 1);
    }

    #[test]
    fn equal_contents_without_shared_storage_still_compare_equal() {
        let a = Batch::new(vec![txn(0, 0)]);
        let b = Batch::new(vec![txn(0, 0)]);
        assert!(!a.shares_txns(&b));
        assert_eq!(a, b);
        assert_ne!(a, Batch::new(vec![txn(0, 1)]));
    }

    #[test]
    fn digest_memo_computes_once_and_clones_carry_it() {
        let b = Batch::single(txn(0, 0));
        assert_eq!(b.cached_digest(), None);
        let mut computed = 0;
        let d = b.digest_memo(|| {
            computed += 1;
            Digest::from_bytes([7; 32])
        });
        let again = b.digest_memo(|| {
            computed += 1;
            Digest::from_bytes([8; 32])
        });
        assert_eq!(d, again);
        assert_eq!(computed, 1, "the digest must be computed exactly once");
        let clone = b.clone();
        assert_eq!(clone.cached_digest(), Some(d));
    }

    #[test]
    fn clone_taken_before_fill_sees_a_later_fill() {
        // Regression: the memo used to live in a per-value `OnceLock`, so a
        // clone taken before the first digest computation carried an empty
        // slot forever and re-hashed on its own. The slot is now shared
        // through an `Arc`: filling any copy fills them all.
        let b = Batch::single(txn(0, 0));
        let early_clone = b.clone();
        assert_eq!(early_clone.cached_digest(), None);
        let d = b.digest_memo(|| Digest::from_bytes([3; 32]));
        assert_eq!(
            early_clone.cached_digest(),
            Some(d),
            "a pre-fill clone must share the memo slot"
        );
        // And symmetrically: filling through the clone is visible to the
        // original (no second computation happens).
        let mut computed = 0;
        let again = early_clone.digest_memo(|| {
            computed += 1;
            Digest::from_bytes([4; 32])
        });
        assert_eq!(again, d);
        assert_eq!(computed, 0);
    }

    #[test]
    fn from_shared_reuses_the_given_storage() {
        let storage: Arc<[Transaction]> = vec![txn(0, 0), txn(1, 0)].into();
        let b = Batch::from_shared(Arc::clone(&storage));
        assert_eq!(b.len(), 2);
        assert!(Arc::ptr_eq(&storage, &b.txns));
    }

    #[test]
    fn execution_cost_sums_over_txns() {
        use crate::time::SimDuration;
        let t1 = txn(0, 0).with_execution_cost(SimDuration::from_millis(2));
        let t2 = txn(0, 1).with_execution_cost(SimDuration::from_millis(3));
        let b = Batch::new(vec![t1, t2]);
        assert_eq!(b.total_execution_cost(), SimDuration::from_millis(5));
    }

    #[test]
    fn wire_size_close_to_paper_for_default_batch() {
        // 100 single-op transactions ≈ paper's 5392 B pre-prepare payload.
        let txns: Vec<_> = (0..100).map(|i| txn(0, i)).collect();
        let b = Batch::new(txns);
        let size = b.wire_size();
        assert!(size > 4_500 && size < 6_500, "unexpected batch size {size}");
    }

    #[test]
    fn wire_size_scales_with_batch_size() {
        let small = Batch::new((0..10).map(|i| txn(0, i)).collect());
        let large = Batch::new((0..1000).map(|i| txn(0, i)).collect());
        assert!(large.wire_size() > 50 * small.wire_size());
    }
}
