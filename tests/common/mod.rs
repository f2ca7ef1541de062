//! The hand-driven PBFT cluster `tests/recovery.rs` and `tests/chaos.rs`
//! share: four nodes run to quiescence by `sbft_core`'s clockless driver
//! (`lockstep::settle`), each suite's network as its delivery hook, the
//! deterministic workload, and the fold from the commit stream of node
//! [`OBSERVED`] to an observable outcome.

use serverless_bft::consensus::{ConsensusMessage, PrePrepare, ProposalBody};
use serverless_bft::core::lockstep::{pbft_nodes, settle, Hop, Verdict};
use serverless_bft::core::{Action, ClientRequest, ShimNode};
use serverless_bft::crypto::CryptoProvider;
use serverless_bft::telemetry::Registry;
use serverless_bft::types::{
    Batch, ClientId, ComponentId, DurabilityConfig, Key, NodeId, Operation, SeqNum, SimDuration,
    SimTime, SystemConfig, Transaction, TxnId, Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The backup replica whose deliveries and commits the suites watch.
pub const OBSERVED: usize = 3;

/// Four nodes batching two transactions, each logging durably and cutting
/// a snapshot every `snapshot_interval` batches.
pub fn durable_config(snapshot_interval: u64) -> SystemConfig {
    let mut config = SystemConfig::with_shim_size(4);
    config.workload.batch_size = 2;
    config.durability = DurabilityConfig::enabled().with_snapshot_interval(snapshot_interval);
    config
}

/// What a suite's network does to the traffic between the nodes.
pub trait Network {
    /// The fate of one consensus message reaching a live node.
    fn verdict(&mut self, hop: &mut Hop<'_>) -> Verdict;

    /// Whether backup `replica` hears a client's broadcast of its request
    /// (the primary always does: it orders it).
    fn hears(&mut self, _replica: usize) -> bool {
        false
    }
}

/// The network that delivers everything and carries no client broadcast.
impl Network for () {
    fn verdict(&mut self, _: &mut Hop<'_>) -> Verdict {
        Verdict::Deliver
    }
}

/// Four PBFT-backed shim nodes driven synchronously over the network
/// `net`, with the batches and commits observed at node [`OBSERVED`]
/// recorded off the wire.
pub struct Cluster<N> {
    pub nodes: Vec<ShimNode>,
    pub provider: Arc<CryptoProvider>,
    /// The nodes' counters, under `shim.<node>.*`.
    pub registry: Arc<Registry>,
    /// Batch content per sequence as delivered to the observed node
    /// (`PREPREPARE` live, `STATERESPONSE` entries after recovery).
    pub batches: BTreeMap<SeqNum, Batch>,
    /// Commit order observed at the watched node.
    pub committed: Vec<SeqNum>,
    /// Virtual submission clock (advances per batch so the batcher's lane
    /// timeouts stay meaningful).
    pub clock: SimTime,
    pub net: N,
}

impl<N: Network> Cluster<N> {
    pub fn new(config: &SystemConfig, net: N) -> Self {
        let provider = CryptoProvider::new(21);
        let registry = Arc::new(Registry::new());
        Cluster {
            nodes: pbft_nodes(config, &provider, &registry),
            provider,
            registry,
            batches: BTreeMap::new(),
            committed: Vec::new(),
            clock: SimTime::ZERO,
            net,
        }
    }

    /// The observed node's `shim.<OBSERVED>.<name>` counter.
    pub fn observed(&self, name: &str) -> u64 {
        self.registry
            .counter_value(&format!("shim.{OBSERVED}.{name}"))
    }

    /// Settles `origin`'s `actions`: messages to the nodes in `down` are
    /// lost, every other one goes through the network, and the observed
    /// node's deliveries and commits are recorded.
    pub fn drive(&mut self, origin: usize, actions: Vec<Action>, down: &[usize]) {
        let Cluster {
            nodes,
            batches,
            net,
            ..
        } = self;
        let settled = settle(nodes, NodeId(origin as u32), actions, None, |mut hop| {
            let to = hop.to.0 as usize;
            if down.contains(&to) {
                return Verdict::Drop;
            }
            let verdict = net.verdict(&mut hop);
            if to == OBSERVED && matches!(verdict, Verdict::Deliver | Verdict::Duplicate) {
                record_batches(batches, hop.msg);
            }
            verdict
        });
        self.committed.extend(commits(&settled, OBSERVED));
    }

    /// Submits each of `batches`, two transactions, to the primary and
    /// drives it to quiescence, each request first broadcast to the
    /// backups that hear it; a trailing poll drains lanes the pair
    /// straddled.
    pub fn submit_batches(&mut self, batches: impl IntoIterator<Item = u64>, down: &[usize]) {
        for batch in batches {
            self.submit_batch(batch, down);
        }
    }

    fn submit_batch(&mut self, batch: u64, down: &[usize]) {
        self.clock += SimDuration::from_millis(100);
        let now = self.clock;
        for request in [batch * 2, batch * 2 + 1] {
            let request = signed_request(&self.provider, request);
            for replica in 1..self.nodes.len() {
                if self.net.hears(replica) {
                    let fed = self.nodes[replica].on_client_request(&request, now);
                    self.drive(replica, fed, down);
                }
            }
            let actions = self.nodes[0].on_client_request(&request, now);
            self.drive(0, actions, down);
        }
        let polled = self.nodes[0].poll_batcher(now + SimDuration::from_millis(10));
        self.drive(0, polled, down);
    }

    /// Commits `before` batches everywhere, crashes the observed node and
    /// commits `dark` more without it; returns the next batch number.
    pub fn crash_observed(&mut self, before: u64, dark: u64) -> u64 {
        self.submit_batches(0..before, &[]);
        self.nodes[OBSERVED].crash();
        self.submit_batches(before..before + dark, &[OBSERVED]);
        before + dark
    }

    /// Restarts the observed node: it replays its log and asks its peers
    /// for what it missed.
    pub fn restart_observed(&mut self) {
        let restart = self.nodes[OBSERVED].crash_restart();
        self.drive(OBSERVED, restart, &[]);
    }

    /// The run's observable outcome at the watched node: its commit order,
    /// the KV state derived by folding the committed operations in that
    /// order, and the client responses in response order.
    pub fn outcome(&self) -> (Vec<SeqNum>, BTreeMap<u64, u64>, Vec<TxnId>) {
        fold_outcome(&self.committed, |seq| {
            self.batches
                .get(&seq)
                .expect("observed node committed a batch it was never shown")
        })
    }
}

/// The sequences `node` committed among `settle`'s leftovers, in order.
pub fn commits(settled: &[(NodeId, Action)], node: usize) -> impl Iterator<Item = SeqNum> + '_ {
    settled
        .iter()
        .filter_map(move |(from, action)| match action {
            Action::BatchCommitted { seq, .. } if from.0 as usize == node => Some(*seq),
            _ => None,
        })
}

/// Captures the batch content a node is shown, keyed by sequence: live
/// proposals and state-transferred entries alike.
fn record_batches(batches: &mut BTreeMap<SeqNum, Batch>, msg: &ConsensusMessage) {
    match msg {
        ConsensusMessage::PrePrepare(PrePrepare {
            seq,
            body: ProposalBody::Batch(batch),
            ..
        }) => {
            batches.insert(*seq, batch.clone());
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
