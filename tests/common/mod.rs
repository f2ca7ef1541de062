//! The hand-driven PBFT cluster pieces `tests/recovery.rs` and
//! `tests/chaos.rs` share: node construction, the deterministic workload
//! and the fold from a commit stream to an observable outcome.

use serverless_bft::consensus::ConsensusMessage;
use serverless_bft::core::{Action, ClientRequest, Destination, ProtocolMessage, ShimNode};
use serverless_bft::crypto::CryptoProvider;
use serverless_bft::telemetry::Registry;
use serverless_bft::types::{
    Batch, ClientId, ComponentId, Key, NodeId, Operation, SeqNum, SystemConfig, Transaction, TxnId,
    Value,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The PBFT shim nodes of `config`, their counters registered under
/// `shim.<node>.*` in `registry`.
pub fn pbft_nodes(
    config: &SystemConfig,
    provider: &Arc<CryptoProvider>,
    registry: &Arc<Registry>,
) -> Vec<ShimNode> {
    (0..config.fault.n_r as u32)
        .map(|i| {
            let id = NodeId(i);
            let mut node =
                ShimNode::pbft(id, config.clone(), provider.handle(ComponentId::Node(id)));
            node.register_metrics(registry);
            node
        })
        .collect()
}

/// Consensus messages in flight between the nodes: `(from, to, message)`.
pub type Wire = VecDeque<(usize, usize, ConsensusMessage)>;

/// Puts the consensus sends of `actions` on the wire (a broadcast goes to
/// the `n - 1` other nodes) and returns the sequences `origin` committed
/// in them.
pub fn fan_out(origin: usize, actions: Vec<Action>, n: usize, wire: &mut Wire) -> Vec<SeqNum> {
    let mut committed = Vec::new();
    for action in actions {
        match action {
            Action::Send(env) => match (env.to, env.msg) {
                (Destination::AllNodes, ProtocolMessage::Consensus(msg)) => {
                    for to in (0..n).filter(|to| *to != origin) {
                        wire.push_back((origin, to, msg.clone()));
                    }
                }
                (Destination::Node(to), ProtocolMessage::Consensus(msg)) => {
                    wire.push_back((origin, to.0 as usize, msg));
                }
                _ => {}
            },
            Action::BatchCommitted { seq, .. } => committed.push(seq),
            _ => {}
        }
    }
    committed
}

/// Captures the batch content a node is shown, keyed by sequence: live
/// proposals and state-transferred entries alike.
pub fn record_batches(batches: &mut BTreeMap<SeqNum, Batch>, msg: &ConsensusMessage) {
    match msg {
        ConsensusMessage::PrePrepare(pp) => {
            batches.insert(pp.seq, pp.batch.clone());
        }
        ConsensusMessage::StateResponse(sr) => {
            for e in &sr.entries {
                batches.insert(e.seq, e.batch.clone());
            }
        }
        _ => {}
    }
}

/// Request `i` of the deterministic workload every cluster runs, so
/// outcomes are comparable across suites and proposal modes: a write and
/// a read-modify-write over a small key space with the read-write set
/// declared (the shard-lane configurations route on it), signed by
/// client `i`.
pub fn signed_request(provider: &Arc<CryptoProvider>, i: u64) -> ClientRequest {
    let client = ClientId(i as u32);
    let txn = Transaction::new(
        TxnId::new(client, 0),
        vec![
            Operation::Write(Key(i % 7), Value::new(i * 11 + 1)),
            Operation::ReadModifyWrite(Key((i * 3) % 7), i + 5),
        ],
    )
    .with_inferred_rwset();
    let digest = ClientRequest::signing_digest(&txn);
    ClientRequest {
        signature: provider.handle(ComponentId::Client(client)).sign(&digest),
        txn,
    }
}

/// A run's observable outcome: the commit order, the KV state derived by
/// folding the committed batches' operations in that order, and the
/// response ids.
pub fn fold_outcome<'a>(
    committed: &[SeqNum],
    batch_at: impl Fn(SeqNum) -> &'a Batch,
) -> (Vec<SeqNum>, BTreeMap<u64, u64>, Vec<TxnId>) {
    let mut kv: BTreeMap<u64, u64> = BTreeMap::new();
    let mut responses = Vec::new();
    for seq in committed {
        for txn in batch_at(*seq).txns() {
            for op in &txn.ops {
                match op {
                    Operation::Read(_) => {}
                    Operation::Write(k, v) => {
                        kv.insert(k.0, v.data);
                    }
                    Operation::ReadModifyWrite(k, s) => {
                        let slot = kv.entry(k.0).or_insert(0);
                        *slot = slot.wrapping_mul(31).wrapping_add(*s);
                    }
                }
            }
            responses.push(txn.id);
        }
    }
    (committed.to_vec(), kv, responses)
}
