//! The serverless executor (the "function" uploaded to the cloud).
//!
//! The function the paper deploys to AWS Lambda performs four steps
//! (Section VIII): (i) verify the certificate `C`, (ii) execute the
//! transaction, (iii) fetch the necessary read-write sets from the storage
//! database, and (iv) send the result to the verifier. Executors are
//! stateless ("fleeting"), never write to the storage, never talk to each
//! other, and store intermediate results only locally.

use crate::faults::ExecutorBehavior;
use crate::messages::{ExecuteRequest, VerifyMessage};
use sbft_crypto::hashing::compute_batch_digest;
use sbft_crypto::CryptoHandle;
use sbft_storage::StorageReader;
use sbft_types::{
    ExecutorId, Key, Operation, ReadWriteSet, Region, SbftError, SbftResult, TxnResult, Value,
};
use std::sync::Arc;

/// A spawned executor instance.
pub struct Executor {
    id: ExecutorId,
    region: Region,
    behavior: ExecutorBehavior,
    crypto: CryptoHandle,
    storage: StorageReader,
    /// Shim size, needed to validate certificate membership.
    n_r: usize,
    /// Commit quorum (`2f_R + 1`) the certificate must reach.
    shim_quorum: usize,
}

/// What an executor produced for one `EXECUTE` request.
#[derive(Clone, Debug)]
pub struct ExecutorOutput {
    /// The `VERIFY` messages to deliver to the verifier (one per copy; a
    /// crashed executor produces none, a flooding one produces several
    /// handles on the one message).
    pub verify_messages: Vec<Arc<VerifyMessage>>,
    /// Modeled compute time spent executing the batch (excluding network),
    /// used by the simulator's cost and latency models.
    pub compute: sbft_types::SimDuration,
}

impl Executor {
    /// Creates an executor instance.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        id: ExecutorId,
        region: Region,
        behavior: ExecutorBehavior,
        crypto: CryptoHandle,
        storage: StorageReader,
        n_r: usize,
        shim_quorum: usize,
    ) -> Self {
        Executor {
            id,
            region,
            behavior,
            crypto,
            storage,
            n_r,
            shim_quorum,
        }
    }

    /// This executor's identifier.
    #[must_use]
    pub fn id(&self) -> ExecutorId {
        self.id
    }

    /// The region this executor was spawned in.
    #[must_use]
    pub fn region(&self) -> Region {
        self.region
    }

    /// The behaviour assigned to this executor.
    #[must_use]
    pub fn behavior(&self) -> ExecutorBehavior {
        self.behavior
    }

    /// The deterministic value an honest executor writes for a
    /// read-modify-write of `key` with `salt` over `old`.
    #[must_use]
    pub fn rmw_value(key: Key, salt: u64, old: Value) -> Value {
        Value::with_len(
            old.data.wrapping_mul(31).wrapping_add(salt ^ key.0),
            old.logical_len,
        )
    }

    /// Executes one transaction against the current storage state,
    /// returning its result and observed read-write set.
    fn execute_txn(&self, txn: &sbft_types::Transaction) -> TxnResult {
        let mut rwset = ReadWriteSet::new();
        let mut output = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for op in &txn.ops {
            match *op {
                Operation::Read(key) => {
                    let entry = self.storage.fetch(key);
                    rwset.record_read(key, entry.version);
                    output = (output ^ entry.value.data).wrapping_mul(0x1000_0000_01b3);
                }
                Operation::Write(key, value) => {
                    rwset.record_write(key, value);
                    output = (output ^ value.data).wrapping_mul(0x1000_0000_01b3);
                }
                Operation::ReadModifyWrite(key, salt) => {
                    let entry = self.storage.fetch(key);
                    rwset.record_read(key, entry.version);
                    let new = Self::rmw_value(key, salt, entry.value);
                    rwset.record_write(key, new);
                    output = (output ^ new.data).wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        TxnResult {
            txn: txn.id,
            output,
            rwset,
        }
    }

    /// Handles an `EXECUTE` request end to end: certificate validation,
    /// execution, and construction of the `VERIFY` message(s).
    ///
    /// Returns an error if the request is malformed (bad spawner
    /// signature, an invalid certificate, or a body that does not hash to
    /// the certified digest) — honest executors refuse to execute such
    /// requests, which is what defeats the duplicate-spawning attacks of
    /// Section V-C.
    pub fn handle_execute(&self, req: &ExecuteRequest) -> SbftResult<ExecutorOutput> {
        // (i) verify the spawner's signature and the certificate C.
        let signing = ExecuteRequest::signing_digest(req.view, req.seq, &req.digest, req.spawner);
        if !self.crypto.verify(
            sbft_types::ComponentId::Node(req.spawner),
            &signing,
            &req.signature,
        ) {
            return Err(SbftError::BadSignature(format!(
                "EXECUTE for seq {:?} not signed by claimed spawner {}",
                req.seq, req.spawner
            )));
        }
        req.certificate.verify(
            self.crypto.provider().key_store(),
            self.shim_quorum,
            self.n_r,
        )?;
        if req.certificate.seq != req.seq || req.certificate.batch_digest != req.digest {
            return Err(SbftError::BadCertificate(
                "certificate does not cover the batch in the EXECUTE message".into(),
            ));
        }
        // The body must be the batch the certificate covers, or a spawner
        // holding a valid certificate could have its executors run (and
        // the verifier apply) writes nobody ordered. `Δ` is recomputed
        // from the transactions the executor was handed.
        if compute_batch_digest(&req.batch) != req.digest {
            return Err(SbftError::BadCertificate(format!(
                "the EXECUTE body for seq {:?} does not hash to the certified digest",
                req.seq
            )));
        }

        if !self.behavior.responds() {
            // A crashed / ignoring executor: bill the spawn, produce nothing.
            return Ok(ExecutorOutput {
                verify_messages: Vec::new(),
                compute: sbft_types::SimDuration::ZERO,
            });
        }

        // (ii)+(iii) execute, fetching read-write sets from storage. The
        // results are collected straight into the allocation the VERIFY
        // message (and later the apply stage) shares.
        let mut results: Arc<[TxnResult]> = req.batch.iter().map(|t| self.execute_txn(t)).collect();
        let compute = req.batch.total_execution_cost();

        if !self.behavior.result_is_correct() {
            // A byzantine executor corrupts its outputs (but keeps the shape
            // of the message well-formed, the hardest case to filter). The
            // corruption is salted with the executor id: independently
            // compromised executors do not accidentally agree with each
            // other, so spawning more than `f_E` of them produces the
            // pairwise-divergent digests the Section VI-B whole-batch
            // abort rule exists for (see the `divergence_sweep` binary).
            let salt = 0xdead_beef ^ self.id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let results = Arc::get_mut(&mut results).expect("not shared yet");
            for r in results {
                r.output ^= salt;
                for (_, v) in &mut r.rwset.writes {
                    v.data ^= salt;
                }
            }
        }

        // (iv) build the VERIFY message(s).
        let result_digest = VerifyMessage::digest_of_results(req.seq, &results);
        let base = VerifyMessage {
            executor: self.id,
            view: req.view,
            seq: req.seq,
            batch_id: req.batch.id(),
            batch_digest: req.digest,
            results,
            result_digest,
            // A refcount bump: the certificate is shared with the EXECUTE
            // message, not copied.
            certificate: Arc::clone(&req.certificate),
            signature: self.crypto.sign(&result_digest),
        };
        // A flooding executor's copies are handles on the one message.
        let base = Arc::new(base);
        let copies = self.behavior.verify_copies() as usize;
        Ok(ExecutorOutput {
            verify_messages: std::iter::repeat_n(base, copies).collect(),
            compute,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_crypto::certificate::commit_digest;
    use sbft_crypto::{CommitCertificate, CryptoProvider};
    use sbft_storage::{VersionedStore, YcsbTable};
    use sbft_types::{
        Batch, ClientId, ComponentId, NodeId, SeqNum, Transaction, TxnId, ViewNumber,
    };

    struct Fixture {
        provider: Arc<CryptoProvider>,
        store: Arc<VersionedStore>,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                provider: CryptoProvider::new(11),
                store: YcsbTable::populate(1_000).store().clone(),
            }
        }

        fn executor(&self, id: u64, behavior: ExecutorBehavior) -> Executor {
            Executor::new(
                ExecutorId(id),
                Region::Oregon,
                behavior,
                self.provider.handle(ComponentId::Executor(ExecutorId(id))),
                StorageReader::new(Arc::clone(&self.store)),
                4,
                3,
            )
        }

        fn execute_request(&self, batch: Batch, spawner: NodeId) -> ExecuteRequest {
            let digest = compute_batch_digest(&batch);
            let cd = commit_digest(ViewNumber(0), SeqNum(1), &digest);
            let entries = (0..3u32)
                .map(|n| {
                    let node = self.provider.handle(ComponentId::Node(NodeId(n)));
                    (NodeId(n), node.sign(&cd))
                })
                .collect();
            let certificate = Arc::new(CommitCertificate::new(
                ViewNumber(0),
                SeqNum(1),
                digest,
                entries,
            ));
            let signing =
                ExecuteRequest::signing_digest(ViewNumber(0), SeqNum(1), &digest, spawner);
            let signature = self
                .provider
                .handle(ComponentId::Node(spawner))
                .sign(&signing);
            ExecuteRequest {
                view: ViewNumber(0),
                seq: SeqNum(1),
                digest,
                batch,
                certificate,
                spawner,
                signature,
            }
        }
    }

    fn batch() -> Batch {
        Batch::new(vec![
            Transaction::new(
                TxnId::new(ClientId(0), 0),
                vec![
                    Operation::Read(Key(1)),
                    Operation::ReadModifyWrite(Key(2), 42),
                ],
            ),
            Transaction::new(
                TxnId::new(ClientId(1), 0),
                vec![Operation::Write(Key(3), Value::new(99))],
            ),
        ])
    }

    #[test]
    fn honest_executor_produces_one_matching_verify() {
        let fx = Fixture::new();
        let req = fx.execute_request(batch(), NodeId(0));
        let e1 = fx.executor(1, ExecutorBehavior::Honest);
        let e2 = fx.executor(2, ExecutorBehavior::Honest);
        let out1 = e1.handle_execute(&req).unwrap();
        let out2 = e2.handle_execute(&req).unwrap();
        assert_eq!(out1.verify_messages.len(), 1);
        let v1 = &out1.verify_messages[0];
        let v2 = &out2.verify_messages[0];
        assert!(
            v1.matches(v2),
            "honest executors must produce matching results"
        );
        assert_ne!(v1.executor, v2.executor);
        assert_eq!(v1.results.len(), 2);
    }

    #[test]
    fn executor_records_reads_and_writes() {
        let fx = Fixture::new();
        let req = fx.execute_request(batch(), NodeId(0));
        let e = fx.executor(1, ExecutorBehavior::Honest);
        let out = e.handle_execute(&req).unwrap();
        let results = &out.verify_messages[0].results;
        // txn 0: read k1 + rmw k2 → 2 reads, 1 write.
        assert_eq!(results[0].rwset.reads.len(), 2);
        assert_eq!(results[0].rwset.writes.len(), 1);
        // txn 1: blind write to k3.
        assert!(results[1].rwset.reads.is_empty());
        assert_eq!(results[1].rwset.writes.len(), 1);
    }

    #[test]
    fn byzantine_result_does_not_match_honest() {
        let fx = Fixture::new();
        let req = fx.execute_request(batch(), NodeId(0));
        let honest = fx
            .executor(1, ExecutorBehavior::Honest)
            .handle_execute(&req)
            .unwrap();
        let lying = fx
            .executor(2, ExecutorBehavior::WrongResult)
            .handle_execute(&req)
            .unwrap();
        assert!(!honest.verify_messages[0].matches(&lying.verify_messages[0]));
    }

    #[test]
    fn crashed_executor_sends_nothing() {
        let fx = Fixture::new();
        let req = fx.execute_request(batch(), NodeId(0));
        let out = fx
            .executor(1, ExecutorBehavior::Crash)
            .handle_execute(&req)
            .unwrap();
        assert!(out.verify_messages.is_empty());
    }

    #[test]
    fn flooding_executor_sends_duplicates() {
        let fx = Fixture::new();
        let req = fx.execute_request(batch(), NodeId(0));
        let out = fx
            .executor(1, ExecutorBehavior::DuplicateVerify { copies: 4 })
            .handle_execute(&req)
            .unwrap();
        assert_eq!(out.verify_messages.len(), 4);
        assert!(out.verify_messages[0].matches(&out.verify_messages[3]));
    }

    #[test]
    fn invalid_certificate_is_refused() {
        let fx = Fixture::new();
        let mut req = fx.execute_request(batch(), NodeId(0));
        Arc::make_mut(&mut req.certificate).entries.truncate(2); // below quorum
        let e = fx.executor(1, ExecutorBehavior::Honest);
        assert!(matches!(
            e.handle_execute(&req),
            Err(SbftError::BadCertificate(_))
        ));
    }

    #[test]
    fn forged_spawner_signature_is_refused() {
        let fx = Fixture::new();
        let mut req = fx.execute_request(batch(), NodeId(0));
        // Claim node 1 spawned it while keeping node 0's signature.
        req.spawner = NodeId(1);
        let e = fx.executor(1, ExecutorBehavior::Honest);
        assert!(matches!(
            e.handle_execute(&req),
            Err(SbftError::BadSignature(_))
        ));
    }

    #[test]
    fn certificate_for_a_different_batch_is_refused() {
        let fx = Fixture::new();
        let req = fx.execute_request(batch(), NodeId(0));
        let other = fx.execute_request(
            Batch::single(Transaction::new(
                TxnId::new(ClientId(9), 9),
                vec![Operation::Read(Key(5))],
            )),
            NodeId(0),
        );
        // Swap in a certificate that covers a different digest.
        let mut forged = req.clone();
        forged.certificate = other.certificate;
        let e = fx.executor(1, ExecutorBehavior::Honest);
        assert!(e.handle_execute(&forged).is_err());
    }

    #[test]
    fn a_body_other_than_the_certified_batch_is_refused() {
        let fx = Fixture::new();
        let req = fx.execute_request(batch(), NodeId(0));
        // A byzantine spawner keeps the certificate, its digest and its
        // own valid signature, and swaps the body: one more transaction.
        let mut txns = batch().txns().to_vec();
        txns.push(Transaction::new(
            TxnId::new(ClientId(7), 0),
            vec![Operation::Write(Key(4), Value::new(1))],
        ));
        let forged = ExecuteRequest {
            batch: Batch::new(txns),
            ..req.clone()
        };
        for behavior in [ExecutorBehavior::Honest, ExecutorBehavior::Crash] {
            assert!(matches!(
                fx.executor(1, behavior).handle_execute(&forged),
                Err(SbftError::BadCertificate(_))
            ));
        }
        assert!(fx
            .executor(1, ExecutorBehavior::Honest)
            .handle_execute(&req)
            .is_ok());
    }

    #[test]
    fn compute_time_reflects_batch_execution_cost() {
        use sbft_types::SimDuration;
        let fx = Fixture::new();
        let b = Batch::new(
            batch()
                .txns()
                .iter()
                .map(|t| t.clone().with_execution_cost(SimDuration::from_millis(10)))
                .collect(),
        );
        let req = fx.execute_request(b, NodeId(0));
        let out = fx
            .executor(1, ExecutorBehavior::Honest)
            .handle_execute(&req)
            .unwrap();
        assert_eq!(out.compute, SimDuration::from_millis(20));
    }

    #[test]
    fn verify_signature_is_checkable_by_the_verifier() {
        let fx = Fixture::new();
        let req = fx.execute_request(batch(), NodeId(0));
        let out = fx
            .executor(1, ExecutorBehavior::Honest)
            .handle_execute(&req)
            .unwrap();
        let v = &out.verify_messages[0];
        assert!(fx.provider.verify(
            ComponentId::Executor(ExecutorId(1)),
            &v.result_digest,
            &v.signature
        ));
    }
}
