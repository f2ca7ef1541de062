//! Client transactions, their operations, results and outcomes.
//!
//! A client packages its request as a transaction `⟨T⟩_C` (Section IV-A).
//! In the evaluation these are YCSB key-value transactions over a store of
//! 600 k records; each transaction carries a list of read/write/modify
//! operations, an (optional) declared read-write set, and a model of its
//! execution cost so that the "expensive execution" experiments
//! (Figure 6(v)–(vi), Figure 8) can be reproduced.

//! # Digest memoization
//!
//! The client-request signing digest `Δ = H(⟨T⟩_C)` is needed at several
//! points of a transaction's life: the client signs it, the primary
//! verifies it, and the verifier re-verifies it on client retries. A
//! [`Transaction`] is a reference-counted handle on one shared
//! [`TransactionBody`], and the body carries the cache slot
//! ([`Transaction::signing_digest_memo`]): the digest is computed at most
//! once per transaction, and — because every clone is the same body,
//! whether the clone was taken before or after the first computation —
//! every copy reuses the value instead of re-hashing. The digest function
//! itself lives in
//! `sbft-core` (it defines the signing format); this module only stores
//! the result.
//!
//! A transaction therefore costs two allocations for its whole life — its
//! operation list and its body — however many roles hold it: the client's
//! retry slot, the request on the wire, the batcher lane, the batch in
//! every replica's log and the `EXECUTE` messages all bump one count.

use crate::digest::Digest;
use crate::ids::TxnId;
use crate::rwset::{Key, ReadWriteSet, RwSetKeys, Value};
use crate::time::SimDuration;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A single key-value operation inside a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operation {
    /// Read the current value of a key.
    Read(Key),
    /// Overwrite the value of a key.
    Write(Key, Value),
    /// Read a key and write back a value derived from what was read
    /// (the YCSB read-modify-write operation). The `u64` is mixed into the
    /// stored payload so different transactions produce different values.
    ReadModifyWrite(Key, u64),
}

impl Operation {
    /// The key this operation touches.
    #[must_use]
    pub fn key(&self) -> Key {
        match *self {
            Operation::Read(k) | Operation::Write(k, _) | Operation::ReadModifyWrite(k, _) => k,
        }
    }

    /// Whether the operation writes to its key.
    #[must_use]
    pub fn is_write(&self) -> bool {
        !matches!(self, Operation::Read(_))
    }
}

/// A client transaction: a shared handle on its [`TransactionBody`].
/// Cloning bumps a reference count; the fields read through `Deref`.
#[derive(Clone)]
pub struct Transaction(Arc<TransactionBody>);

/// The contents of a [`Transaction`], shared by all of its clones and
/// immutable once shared (the `with_*` builders copy on write).
#[derive(Clone)]
pub struct TransactionBody {
    /// The transaction identifier (client + client-local counter). An
    /// input of the memoized signing digest, like `ops`.
    pub id: TxnId,
    /// The key-value operations the transaction performs.
    pub ops: Vec<Operation>,
    /// Read-write sets declared ahead of execution, if the application knows
    /// them (enables the best-effort conflict-avoidance planner of
    /// Section VI-C). `None` models the *unknown read-write set* case of
    /// Section VI-B.
    pub declared_rwset: Option<RwSetKeys>,
    /// Modeled compute cost of executing this transaction on one executor
    /// core (beyond the storage accesses). The expensive-execution
    /// experiments sweep this from microseconds to 8 seconds.
    pub execution_cost: SimDuration,
    /// Logical payload size in bytes carried by the request (affects the
    /// wire size of `PREPREPARE` and `EXECUTE` messages).
    pub payload_len: u32,
    /// Memoized client-request signing digest (see the module docs).
    /// Derived state: excluded from equality.
    signing_digest: OnceLock<Digest>,
}

impl Deref for Transaction {
    type Target = TransactionBody;

    fn deref(&self) -> &TransactionBody {
        &self.0
    }
}

impl PartialEq for Transaction {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.id == other.id
                && self.ops == other.ops
                && self.declared_rwset == other.declared_rwset
                && self.execution_cost == other.execution_cost
                && self.payload_len == other.payload_len)
    }
}

impl Eq for Transaction {}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("ops", &self.ops)
            .field("declared_rwset", &self.declared_rwset)
            .field("execution_cost", &self.execution_cost)
            .field("payload_len", &self.payload_len)
            .field("signing_digest", &self.signing_digest)
            .finish()
    }
}

/// The outcome of executing or attempting to execute a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnOutcome {
    /// The transaction executed and its writes were applied by the verifier.
    Committed,
    /// The verifier aborted the transaction (stale reads or insufficient
    /// matching `VERIFY` messages under conflicts, Section VI-B).
    Aborted,
}

/// The result of executing a transaction, as computed by an executor and
/// reported to the verifier inside a `VERIFY` message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxnResult {
    /// Which transaction this result belongs to.
    pub txn: TxnId,
    /// A deterministic digest-like summary of the computed outputs; honest
    /// executors executing the same transaction over the same storage state
    /// produce identical values.
    pub output: u64,
    /// The read-write set observed during execution.
    pub rwset: ReadWriteSet,
}

impl Transaction {
    /// Creates a transaction with default (negligible) execution cost.
    #[must_use]
    pub fn new(id: TxnId, ops: Vec<Operation>) -> Self {
        let payload_len = (ops.len() as u32) * 16 + 8;
        Transaction(Arc::new(TransactionBody {
            id,
            ops,
            declared_rwset: None,
            execution_cost: SimDuration::ZERO,
            payload_len,
            signing_digest: OnceLock::new(),
        }))
    }

    /// The body for a builder to edit: in place while this handle is the
    /// only one (a transaction under construction), a private copy —
    /// digest memo included, its inputs are not editable — otherwise.
    fn body_mut(&mut self) -> &mut TransactionBody {
        Arc::make_mut(&mut self.0)
    }

    /// Returns the memoized signing digest, computing it with `compute` on
    /// first use. Clones made after the first computation carry the cached
    /// value, so a transaction is hashed at most once per run however many
    /// components handle it.
    ///
    /// The cache assumes `id` and `ops` are frozen once the first digest
    /// is taken (see the field docs): mutating them afterwards would make
    /// every later call return a digest of the old contents.
    pub fn signing_digest_memo(&self, compute: impl FnOnce() -> Digest) -> Digest {
        *self.signing_digest.get_or_init(compute)
    }

    /// The cached signing digest, if one has been computed on this value.
    #[must_use]
    pub fn cached_signing_digest(&self) -> Option<Digest> {
        self.signing_digest.get().copied()
    }

    /// Attaches a declared read-write set (known read-write set mode).
    #[must_use]
    pub fn with_declared_rwset(mut self, rwset: RwSetKeys) -> Self {
        self.body_mut().declared_rwset = Some(rwset);
        self
    }

    /// Declares the read-write set by inspecting the operation list. This is
    /// exact for YCSB-style transactions whose keys are literal.
    #[must_use]
    pub fn with_inferred_rwset(self) -> Self {
        let rwset = self.inferred_rwset();
        self.with_declared_rwset(rwset)
    }

    /// Sets the modeled execution cost.
    #[must_use]
    pub fn with_execution_cost(mut self, cost: SimDuration) -> Self {
        self.body_mut().execution_cost = cost;
        self
    }

    /// Sets the logical payload size (decoders restoring a logged value).
    #[must_use]
    pub fn with_payload_len(mut self, payload_len: u32) -> Self {
        self.body_mut().payload_len = payload_len;
        self
    }

    /// The read-write set implied by the literal operation list.
    #[must_use]
    pub fn inferred_rwset(&self) -> RwSetKeys {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for op in &self.ops {
            match op {
                Operation::Read(k) => reads.push(*k),
                Operation::Write(k, _) => writes.push(*k),
                Operation::ReadModifyWrite(k, _) => {
                    reads.push(*k);
                    writes.push(*k);
                }
            }
        }
        RwSetKeys::new(reads, writes)
    }

    /// Whether the shim knows this transaction's read-write set in advance.
    #[must_use]
    pub fn rwset_known(&self) -> bool {
        self.declared_rwset.is_some()
    }

    /// Whether this transaction conflicts with `other` based on declared
    /// (or, if absent, inferred) read-write sets. Used by tests and by the
    /// conflict-avoidance planner; the protocol itself only relies on
    /// declared sets.
    #[must_use]
    pub fn conflicts_with(&self, other: &Transaction) -> bool {
        let a = self
            .declared_rwset
            .clone()
            .unwrap_or_else(|| self.inferred_rwset());
        let b = other
            .declared_rwset
            .clone()
            .unwrap_or_else(|| other.inferred_rwset());
        a.conflicts_with(&b)
    }

    /// Number of operations in the transaction.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Wire size of the signed client request carrying this transaction.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        // txn id + per-op encoding + payload + client signature
        16 + self.ops.len() * 17 + self.payload_len as usize + 64
    }
}

impl TxnOutcome {
    /// Whether the outcome is a commit.
    #[must_use]
    pub fn is_committed(self) -> bool {
        matches!(self, TxnOutcome::Committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn txn(ops: Vec<Operation>) -> Transaction {
        Transaction::new(TxnId::new(ClientId(0), 0), ops)
    }

    #[test]
    fn operation_key_and_write_flags() {
        assert_eq!(Operation::Read(Key(3)).key(), Key(3));
        assert!(!Operation::Read(Key(3)).is_write());
        assert!(Operation::Write(Key(1), Value::new(0)).is_write());
        assert!(Operation::ReadModifyWrite(Key(9), 1).is_write());
    }

    #[test]
    fn inferred_rwset_covers_all_ops() {
        let t = txn(vec![
            Operation::Read(Key(1)),
            Operation::Write(Key(2), Value::new(5)),
            Operation::ReadModifyWrite(Key(3), 7),
        ]);
        let rw = t.inferred_rwset();
        assert!(rw.read_keys.contains(&Key(1)));
        assert!(rw.read_keys.contains(&Key(3)));
        assert!(rw.write_keys.contains(&Key(2)));
        assert!(rw.write_keys.contains(&Key(3)));
        assert!(!rw.write_keys.contains(&Key(1)));
    }

    #[test]
    fn rwset_known_only_when_declared() {
        let t = txn(vec![Operation::Read(Key(1))]);
        assert!(!t.rwset_known());
        assert!(t.clone().with_inferred_rwset().rwset_known());
        assert!(t.with_declared_rwset(RwSetKeys::default()).rwset_known());
    }

    #[test]
    fn conflict_detection_between_transactions() {
        let a = txn(vec![Operation::Write(Key(10), Value::new(1))]);
        let b = Transaction::new(TxnId::new(ClientId(1), 0), vec![Operation::Read(Key(10))]);
        let c = Transaction::new(TxnId::new(ClientId(2), 0), vec![Operation::Read(Key(11))]);
        assert!(a.conflicts_with(&b));
        assert!(b.conflicts_with(&a));
        assert!(!a.conflicts_with(&c));
        assert!(!b.conflicts_with(&c), "read-read never conflicts");
    }

    #[test]
    fn wire_size_grows_with_ops() {
        let small = txn(vec![Operation::Read(Key(1))]);
        let big = txn(vec![
            Operation::Read(Key(1)),
            Operation::Read(Key(2)),
            Operation::Read(Key(3)),
        ]);
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn builder_sets_execution_cost() {
        let t = txn(vec![]).with_execution_cost(SimDuration::from_millis(5));
        assert_eq!(t.execution_cost, SimDuration::from_millis(5));
    }

    #[test]
    fn signing_digest_memo_computes_once_and_survives_clones() {
        let t = txn(vec![Operation::Read(Key(1))]);
        assert_eq!(t.cached_signing_digest(), None);
        let mut computed = 0;
        let d = t.signing_digest_memo(|| {
            computed += 1;
            Digest::from_bytes([9; 32])
        });
        let again = t.signing_digest_memo(|| {
            computed += 1;
            Digest::from_bytes([1; 32])
        });
        assert_eq!(d, again);
        assert_eq!(computed, 1);
        let clone = t.clone();
        assert_eq!(clone.cached_signing_digest(), Some(d));
        // The cache never participates in equality.
        let fresh = txn(vec![Operation::Read(Key(1))]);
        assert_eq!(t, fresh);
    }

    #[test]
    fn clones_share_one_body_and_builders_copy_on_write() {
        let t = txn(vec![Operation::Read(Key(1))]);
        let clone = t.clone();
        assert!(std::ptr::eq(&*t, &*clone), "a clone is the same body");
        let d = t.signing_digest_memo(|| Digest::from_bytes([4; 32]));
        // A builder on a shared handle leaves the other handles alone and
        // keeps the memo (its inputs, `id` and `ops`, did not change).
        let costly = clone.with_execution_cost(SimDuration::from_millis(1));
        assert_eq!(t.execution_cost, SimDuration::ZERO);
        assert_eq!(costly.execution_cost, SimDuration::from_millis(1));
        assert_eq!(costly.cached_signing_digest(), Some(d));
        assert_eq!(costly.with_payload_len(99).payload_len, 99);
    }

    #[test]
    fn clone_taken_before_fill_shares_a_later_fill() {
        // Regression: a clone used to copy the (empty) `OnceLock` slot and
        // would never see a digest computed on the original afterwards. A
        // clone is the same shared body now.
        let t = txn(vec![Operation::Read(Key(1))]);
        let early_clone = t.clone();
        assert_eq!(early_clone.cached_signing_digest(), None);
        let d = t.signing_digest_memo(|| Digest::from_bytes([2; 32]));
        assert_eq!(early_clone.cached_signing_digest(), Some(d));
        let mut computed = 0;
        let again = early_clone.signing_digest_memo(|| {
            computed += 1;
            Digest::from_bytes([5; 32])
        });
        assert_eq!(again, d);
        assert_eq!(computed, 0, "the shared memo must prevent a re-hash");
    }

    #[test]
    fn outcome_predicates() {
        assert!(TxnOutcome::Committed.is_committed());
        assert!(!TxnOutcome::Aborted.is_committed());
    }
}
