//! The thread-based local cluster.
//!
//! [`LocalCluster::run`] takes an assembled [`sbft_core::System`], spawns
//! one thread per shim node, one for the verifier and one executor-pool
//! thread, and drives a closed-loop client population from the calling
//! thread until the requested number of transactions has been committed
//! (or a wall-clock deadline passes).
//!
//! # Batch release
//!
//! The primary's node thread decides when client requests become batches;
//! the rule is driven by the clock and by the ordering protocol, never by
//! how the host happened to schedule the threads:
//!
//! * **idle pipeline** — a request that arrives while every batch this
//!   node proposed has committed, and nothing is parked, is ordered at
//!   once. A lone closed-loop client gets batches of one and pays no
//!   batching wait.
//! * **batch interval** — a request that arrives while a batch is still
//!   being ordered is *parked*. The parked requests are cut into batches
//!   of up to `batch_size` one `max_wait` (the batcher's timeout) after
//!   the previous cut, so no request waits longer than `max_wait` and a
//!   loaded primary proposes everything that arrived in the interval
//!   together: the three ordering phases, the executor spawns, the
//!   verifier's match and (under durability) the WAL fsyncs are paid once
//!   per batch.
//!
//! Under durability a node thread also group-commits its log: it keeps
//! handling deliveries while its inbox has any, syncs once, and only then
//! lets the actions of that drain leave (`GroupLog`).
//!
//! Under `n` closed-loop clients throughput is therefore `n / max_wait`
//! for as long as the pipeline clears a cut inside the interval, and
//! CPU-bound beyond that. The inbox running dry is deliberately not a
//! release trigger: when it does is up to the scheduler, and batch size
//! (1.9 to 21 transactions from one 0.84 s run to the next on the
//! benchmark's `sharded_multiop`) and throughput would follow it.

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use sbft_core::events::{Action, ClientRequest, Destination, Envelope, ProtocolMessage};
use sbft_core::System;
use sbft_durability::{FileWal, WalRecord, WriteAheadLog};
use sbft_telemetry::{Counter, Stage, TraceSink, Tracer};
use sbft_types::{ClientId, ComponentId, IdMap, NodeId, SeqNum, SimTime, TxnOutcome};
use sbft_workloads::YcsbWorkload;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// What one node/verifier thread receives.
struct Delivery {
    from: ComponentId,
    msg: ProtocolMessage,
}

/// A unit of work handed to a role thread, or the shutdown marker.
///
/// Every thread holds a clone of the [`Router`] — and therefore a sender
/// to every other thread — so channels never disconnect on their own; the
/// explicit `Stop` marker is what ends the worker loops at shutdown.
enum Work<T> {
    Item(T),
    Stop,
}

/// Routing table: senders for every component plus the executor pool.
#[derive(Clone)]
struct Router {
    nodes: Vec<Sender<Work<Delivery>>>,
    verifier: Sender<Work<Delivery>>,
    clients: Sender<Delivery>,
    executor_pool: Sender<
        Work<(
            sbft_serverless::SpawnRequest,
            sbft_serverless::ExecuteRequest,
        )>,
    >,
    /// Lifecycle tracer; markers are stamped with wall-clock microseconds
    /// since `epoch` so exported traces line up with `ClusterReport`
    /// elapsed time.
    tracer: Tracer,
    epoch: Instant,
    /// Batches node 0 has committed (`Action::BatchCommitted`).
    batches: Counter,
    /// `StartTimer` actions discarded: nothing on this runtime fires
    /// timers (`runtime.dropped_timers` in the system registry).
    dropped_timers: Counter,
}

impl Router {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Marks the batch-lifecycle edges visible at routing time. The
    /// thread runtime has no discrete clock, so it traces the
    /// cross-thread handoffs (batch release, commit, executor spawn,
    /// verify ingest, client response) rather than the per-request
    /// admission edges the simulator can see.
    fn trace_action(&self, action: &Action) {
        let now = self.now();
        match action {
            Action::Send(Envelope { msg, .. }) => match msg {
                ProtocolMessage::Consensus(c) => {
                    if let Some(seq) = c.proposal_seq() {
                        self.tracer.emit(seq.0, Stage::BatchRelease, now);
                    }
                }
                ProtocolMessage::Verify(v) => self.tracer.emit(v.seq.0, Stage::VerifyIngest, now),
                ProtocolMessage::Response(r) => self.tracer.emit(r.seq.0, Stage::Respond, now),
                ProtocolMessage::Abort(a) => self.tracer.emit(a.seq.0, Stage::Respond, now),
                _ => {}
            },
            Action::SpawnExecutor { execute, .. } => {
                self.tracer.emit(execute.seq.0, Stage::ExecuteSpawn, now);
            }
            Action::BatchCommitted { seq, .. } => {
                self.tracer.emit(seq.0, Stage::CommitQuorum, now);
            }
            _ => {}
        }
    }

    fn route(&self, origin: ComponentId, actions: Vec<Action>) {
        for action in actions {
            if self.tracer.enabled() {
                self.trace_action(&action);
            }
            match action {
                Action::Send(Envelope { from, to, msg }) => match to {
                    Destination::Node(n) => {
                        if let Some(tx) = self.nodes.get(n.0 as usize) {
                            let _ = tx.send(Work::Item(Delivery { from, msg }));
                        }
                    }
                    Destination::AllNodes => {
                        let mut peers = self
                            .nodes
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| ComponentId::Node(NodeId(*i as u32)) != origin)
                            .map(|(_, tx)| tx);
                        // The last recipient takes the message itself.
                        if let Some(last) = peers.next_back() {
                            for tx in peers {
                                let _ = tx.send(Work::Item(Delivery {
                                    from,
                                    msg: msg.clone(),
                                }));
                            }
                            let _ = last.send(Work::Item(Delivery { from, msg }));
                        }
                    }
                    Destination::Verifier => {
                        let _ = self.verifier.send(Work::Item(Delivery { from, msg }));
                    }
                    Destination::Client(_) => {
                        let _ = self.clients.send(Delivery { from, msg });
                    }
                    Destination::Executor(_) => {}
                },
                Action::SpawnExecutor { request, execute } => {
                    let _ = self.executor_pool.send(Work::Item((request, execute)));
                }
                // Nothing on this runtime fires timers, so the recovery
                // paths they guard (retransmission, view change, client
                // retry) never run here; the count keeps that visible.
                Action::StartTimer { .. } => self.dropped_timers.inc(),
                Action::BatchCommitted { .. } => {
                    if origin == ComponentId::Node(NodeId(0)) {
                        self.batches.inc();
                    }
                }
                // With no timer started there is none to cancel; the WAL
                // write and the shard check already ran inside the role
                // (these two only price them for the simulator's CPU
                // model); the client driver reads `TxnCompleted` itself.
                Action::CancelTimer(_)
                | Action::Persist { .. }
                | Action::ShardCcheck { .. }
                | Action::TxnCompleted { .. } => {}
            }
        }
    }

    /// Tells every worker thread to exit its loop.
    fn stop_all(&self) {
        for tx in &self.nodes {
            let _ = tx.send(Work::Stop);
        }
        let _ = self.verifier.send(Work::Stop);
        let _ = self.executor_pool.send(Work::Stop);
    }
}

/// Summary of a local-cluster run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterReport {
    /// Transactions committed (client received a `RESPONSE`).
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Wall-clock time the run took.
    pub elapsed: Duration,
    /// Batches committed at node 0; `committed / batches` is the mean
    /// batch size of the run.
    pub batches: u64,
    /// Executors invoked by the pool.
    pub executor_invocations: u64,
}

impl ClusterReport {
    /// Committed transactions per wall-clock second.
    #[must_use]
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed as f64 / secs
    }
}

/// The thread-based cluster driver.
pub struct LocalCluster {
    system: System,
    num_clients: usize,
    target_txns: u64,
    deadline: Duration,
    workload_seed: u64,
    trace_sink: Option<Arc<dyn TraceSink>>,
}

impl LocalCluster {
    /// Creates a driver around an assembled system.
    #[must_use]
    pub fn new(system: System) -> Self {
        LocalCluster {
            system,
            num_clients: 8,
            target_txns: 200,
            deadline: Duration::from_secs(10),
            workload_seed: 1,
            trace_sink: None,
        }
    }

    /// Records batch lifecycle span events into `sink` (wall-clock
    /// microseconds since run start). Off by default: the router then
    /// pays one branch per action.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Number of closed-loop clients to drive.
    #[must_use]
    pub fn clients(mut self, n: usize) -> Self {
        self.num_clients = n.max(1);
        self
    }

    /// Number of committed transactions to wait for.
    #[must_use]
    pub fn target_txns(mut self, n: u64) -> Self {
        self.target_txns = n.max(1);
        self
    }

    /// Wall-clock safety deadline.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = d;
        self
    }

    /// Runs the cluster until `target_txns` transactions commit or the
    /// deadline passes, then shuts every thread down.
    #[must_use]
    pub fn run(self) -> ClusterReport {
        let LocalCluster {
            mut system,
            num_clients,
            target_txns,
            deadline,
            workload_seed,
            trace_sink,
        } = self;
        let num_clients = num_clients.min(system.clients.len()).max(1);
        let start = Instant::now();

        // Channels.
        let mut node_rx: Vec<Receiver<Work<Delivery>>> = Vec::new();
        let mut node_tx: Vec<Sender<Work<Delivery>>> = Vec::new();
        for _ in 0..system.nodes.len() {
            let (tx, rx) = unbounded();
            node_tx.push(tx);
            node_rx.push(rx);
        }
        let (verifier_tx, verifier_rx) = unbounded();
        let (client_tx, client_rx) = unbounded::<Delivery>();
        let (pool_tx, pool_rx) = unbounded::<
            Work<(
                sbft_serverless::SpawnRequest,
                sbft_serverless::ExecuteRequest,
            )>,
        >();
        let router = Router {
            nodes: node_tx,
            verifier: verifier_tx,
            clients: client_tx,
            executor_pool: pool_tx,
            tracer: match trace_sink {
                Some(sink) => Tracer::new(sink),
                None => Tracer::disabled(),
            },
            epoch: start,
            batches: Counter::new(),
            dropped_timers: system.registry.counter("runtime.dropped_timers"),
        };

        let mut handles = Vec::new();

        // Shim node threads. Under durability each node writes a real
        // buffered WAL file (the in-memory backend attached at build time
        // is only the simulator's deterministic stand-in); an unopenable
        // file falls back to that in-memory log rather than failing the
        // run.
        let nodes = std::mem::take(&mut system.nodes);
        let wal_dir = system.config.durability.enabled.then(WalDir::create);
        let file_wals = system.registry.counter("runtime.file_wals");
        for (i, mut node) in nodes.into_iter().enumerate() {
            let log = wal_dir.as_ref().and_then(|dir| {
                let wal = FileWal::open(dir.0.join(format!("node-{i}.wal"))).ok()?;
                file_wals.inc();
                Some(Arc::new(GroupLog {
                    wal: Mutex::new(wal),
                    sync_due: AtomicBool::new(false),
                }))
            });
            if let Some(log) = &log {
                node.attach_wal(Box::new(GroupCommitWal(Arc::clone(log))));
            }
            let rx = node_rx.remove(0);
            let router = router.clone();
            handles.push(thread::spawn(move || {
                let origin = ComponentId::Node(NodeId(i as u32));
                let interval = Duration::from_micros(node.batch_max_wait().as_micros());
                // Requests held back for the next cut, and when the last
                // cut was made.
                let mut parked: Vec<ClientRequest> = Vec::new();
                let mut last_cut = Instant::now();
                let mut proposals = Proposals::default();
                // Actions that may not leave before the log is synced.
                let mut held: Vec<Action> = Vec::new();
                loop {
                    let sync_due = log.as_ref().is_some_and(|log| log.sync_due());
                    if !sync_due {
                        router.route(origin, std::mem::take(&mut held));
                    }
                    // With requests parked the cut is due on time, however
                    // busy the inbox is.
                    let due = (!parked.is_empty()).then(|| last_cut + interval);
                    let next = match due.map(|at| at.saturating_duration_since(Instant::now())) {
                        Some(wait) if wait.is_zero() => Err(RecvTimeoutError::Timeout),
                        // Group commit: take what the inbox still has, so
                        // that one fsync covers every record of the drain.
                        _ if sync_due => match rx.try_recv() {
                            Ok(work) => Ok(work),
                            Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                            Err(TryRecvError::Empty) => {
                                if let Some(log) = &log {
                                    log.sync();
                                }
                                continue;
                            }
                        },
                        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                        Some(wait) => rx.recv_timeout(wait),
                    };
                    let now = router.now();
                    let actions = match next {
                        Ok(Work::Item(Delivery { from, msg })) => match msg {
                            ProtocolMessage::ClientRequest(req)
                                if node.is_primary()
                                    && (proposals.in_flight() || !parked.is_empty()) =>
                            {
                                parked.push(req);
                                continue;
                            }
                            ProtocolMessage::ClientRequest(req) => {
                                let mut actions = node.on_client_request(&req, now);
                                actions.extend(node.flush_batcher());
                                actions
                            }
                            ProtocolMessage::Consensus(c) => match from.as_node() {
                                Some(sender) => node.on_consensus_message(sender, c),
                                None => Vec::new(),
                            },
                            other => node.on_message_at(&other, now),
                        },
                        Err(RecvTimeoutError::Timeout) => {
                            last_cut = Instant::now();
                            let mut actions = Vec::new();
                            for req in parked.drain(..) {
                                actions.extend(node.on_client_request(&req, now));
                            }
                            actions.extend(node.flush_batcher());
                            actions
                        }
                        Ok(Work::Stop) | Err(RecvTimeoutError::Disconnected) => break,
                    };
                    proposals.observe(&actions);
                    held.extend(actions);
                }
            }));
        }

        // Executor pool thread: spawns an executor object per request and
        // forwards its VERIFY messages to the verifier.
        let executor_invocations = Counter::new();
        {
            let invocations = executor_invocations.clone();
            let router = router.clone();
            let provider = system.provider.clone();
            let storage = std::sync::Arc::clone(&system.storage);
            let n_r = system.config.fault.n_r;
            let cert_quorum = system.cert_quorum();
            let mut next_executor: u64 = 0;
            handles.push(thread::spawn(move || {
                while let Ok(Work::Item((request, execute))) = pool_rx.recv() {
                    let id = sbft_types::ExecutorId(next_executor);
                    next_executor += 1;
                    invocations.inc();
                    let executor = sbft_serverless::Executor::new(
                        id,
                        request.region,
                        sbft_serverless::ExecutorBehavior::Honest,
                        provider.handle(ComponentId::Executor(id)),
                        sbft_storage::StorageReader::new(std::sync::Arc::clone(&storage)),
                        n_r,
                        cert_quorum,
                    );
                    if let Ok(output) = executor.handle_execute(&execute) {
                        for verify in output.verify_messages {
                            router.route(
                                ComponentId::Executor(id),
                                vec![Action::send(
                                    ComponentId::Executor(id),
                                    Destination::Verifier,
                                    ProtocolMessage::Verify(verify),
                                )],
                            );
                        }
                    }
                }
            }));
        }

        // Verifier thread: validates and applies every matched batch
        // itself, in k_max order.
        {
            let router = router.clone();
            let mut verifier = system.verifier;
            handles.push(thread::spawn(move || {
                while let Ok(Work::Item(delivery)) = verifier_rx.recv() {
                    let actions = verifier.on_message(&delivery.msg);
                    router.route(ComponentId::Verifier, actions);
                }
            }));
        }

        // Client driver (this thread).
        let mut workload_cfg = system.config.workload;
        workload_cfg.num_clients = num_clients;
        let mut workload = YcsbWorkload::new(workload_cfg, workload_seed);
        let mut clients: IdMap<ClientId, sbft_core::ClientRole> = system
            .clients
            .drain(..num_clients)
            .map(|c| (c.id(), c))
            .collect();

        for c in 0..num_clients as u32 {
            let id = ClientId(c);
            let txn = workload.next_transaction(id);
            let actions = clients.get_mut(&id).expect("client exists").submit(txn);
            router.route(ComponentId::Client(id), actions);
        }

        let mut report = ClusterReport::default();
        while report.committed + report.aborted < target_txns && start.elapsed() < deadline {
            match client_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(delivery) => {
                    let client_id = match &delivery.msg {
                        ProtocolMessage::Response(r) => r.txn.client,
                        ProtocolMessage::Abort(a) => a.txn.client,
                        _ => continue,
                    };
                    let Some(client) = clients.get_mut(&client_id) else {
                        continue;
                    };
                    let actions = client.on_message(&delivery.msg);
                    let mut completed = None;
                    for action in &actions {
                        if let Action::TxnCompleted { outcome, .. } = action {
                            completed = Some(*outcome);
                        }
                    }
                    match completed {
                        Some(TxnOutcome::Committed) => report.committed += 1,
                        Some(TxnOutcome::Aborted) => report.aborted += 1,
                        None => continue,
                    }
                    // Closed loop: issue the next request.
                    if report.committed + report.aborted < target_txns {
                        let txn = workload.next_transaction(client_id);
                        let actions = client.submit(txn);
                        router.route(ComponentId::Client(client_id), actions);
                    }
                }
                Err(_) => {
                    // Timed out waiting; keep going until the deadline.
                }
            }
        }
        report.elapsed = start.elapsed();

        // Every worker holds a Router clone (senders to every peer), so
        // channels never disconnect on their own: stop the loops
        // explicitly, then join.
        router.stop_all();
        drop(clients);
        for handle in handles {
            let _ = handle.join();
        }
        drop(wal_dir);
        report.executor_invocations = executor_invocations.get();
        report.batches = router.batches.get();
        report
    }
}

/// The directory holding one run's WAL files: the run's own (process id
/// plus a process-wide run counter, so concurrent clusters in one process
/// never share a log and a run always starts from empty ones), removed
/// when the run ends.
struct WalDir(std::path::PathBuf);

impl WalDir {
    fn create() -> Self {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("sbft-wal-{}-{run}", std::process::id()));
        // A process that died mid-run under a recycled pid may have left
        // the name behind; its logs are not this cluster's history. An
        // uncreatable directory surfaces as unopenable files, which fall
        // back to the in-memory logs.
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::create_dir_all(&dir);
        WalDir(dir)
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A node's log file with the fsync moved out of the node's hands. The
/// node's `sync` only asks for one ([`GroupCommitWal`]); the node thread
/// grants it once its inbox is drained and lets none of the actions
/// produced in between leave before that, so a vote still never leaves
/// ahead of its record and one fsync covers every record of the drain.
struct GroupLog {
    wal: Mutex<FileWal>,
    sync_due: AtomicBool,
}

impl GroupLog {
    fn wal(&self) -> MutexGuard<'_, FileWal> {
        self.wal.lock().expect("a WAL holder panicked")
    }

    fn sync_due(&self) -> bool {
        self.sync_due.load(Ordering::Relaxed)
    }

    fn sync(&self) {
        self.wal().sync();
        self.sync_due.store(false, Ordering::Relaxed);
    }
}

/// The node's handle on its [`GroupLog`].
struct GroupCommitWal(Arc<GroupLog>);

impl WriteAheadLog for GroupCommitWal {
    fn append(&mut self, record: &WalRecord) -> u64 {
        self.0.wal().append(record)
    }

    fn sync(&mut self) {
        self.0.sync_due.store(true, Ordering::Relaxed);
    }

    fn replay(&self) -> Vec<WalRecord> {
        self.0.wal().replay()
    }

    fn truncate_below(&mut self, upto: SeqNum) -> u64 {
        // The snapshot mark has to be on disk before the records it
        // supersedes are dropped.
        self.0.sync();
        self.0.wal().truncate_below(upto)
    }

    fn durable_len(&self) -> usize {
        self.0.wal().durable_len()
    }

    fn unsynced_len(&self) -> usize {
        self.0.wal().unsynced_len()
    }

    fn lose_unsynced(&mut self) {
        self.0.wal().lose_unsynced();
    }
}

/// The batches a node has proposed against the ones it has committed,
/// read off its own actions: while the two differ, one of its batches is
/// still being ordered.
#[derive(Default)]
struct Proposals {
    proposed: u64,
    committed: u64,
}

impl Proposals {
    fn observe(&mut self, actions: &[Action]) {
        for action in actions {
            match action {
                Action::Send(Envelope {
                    msg: ProtocolMessage::Consensus(c),
                    ..
                }) => {
                    if let Some(seq) = c.proposal_seq() {
                        self.proposed = self.proposed.max(seq.0);
                    }
                }
                Action::BatchCommitted { seq, .. } => self.committed = self.committed.max(seq.0),
                _ => {}
            }
        }
    }

    fn in_flight(&self) -> bool {
        self.proposed > self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_core::SystemBuilder;
    use sbft_types::SystemConfig;

    fn config() -> SystemConfig {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.workload.num_records = 1_000;
        cfg.workload.batch_size = 4;
        cfg.workload.num_clients = 8;
        cfg.regions = sbft_types::RegionSet::home_only();
        cfg
    }

    #[test]
    fn local_cluster_commits_transactions_over_threads() {
        let system = SystemBuilder::new(config()).clients(8).build();
        let report = LocalCluster::new(system)
            .clients(8)
            .target_txns(40)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(
            report.committed >= 40,
            "committed only {} transactions",
            report.committed
        );
        assert!(report.throughput_tps() > 0.0);
    }

    #[test]
    fn report_throughput_handles_zero_elapsed() {
        let report = ClusterReport::default();
        assert_eq!(report.throughput_tps(), 0.0);
    }

    #[test]
    fn local_cluster_validates_undeclared_multi_key_transactions_across_shards() {
        // The thread shape of the benchmark's `sharded_multiop` point:
        // undeclared read-write sets (validated reads, stale reads abort),
        // 8 shards and 2 operations per transaction, so most transactions
        // span two shards. The verifier applies them on its own thread and
        // answers every one the clients counted.
        let mut cfg = config();
        cfg.conflict_handling = sbft_types::ConflictHandling::UnknownRwSets;
        cfg.sharding = sbft_types::ShardingConfig::with_shards(8).with_workers(2);
        cfg.workload.ops_per_txn = 2;
        let system = SystemBuilder::new(cfg).clients(8).build();
        let registry = Arc::clone(&system.registry);
        let report = LocalCluster::new(system)
            .clients(8)
            .target_txns(40)
            .deadline(Duration::from_secs(20))
            .run();
        let answered = report.committed + report.aborted;
        assert!(answered >= 40, "answered only {answered} transactions");
        assert!(report.committed > 0, "nothing committed");
        // The client loop stops counting at the target while the other clients'
        // last requests may still be applied: at most one each.
        let validated = registry.counter_value("verifier.committed_txns")
            + registry.counter_value("verifier.aborted_txns");
        assert!(
            (answered..answered + 8).contains(&validated),
            "the verifier validated {validated} for {answered} answers"
        );
    }

    #[test]
    fn trace_sink_captures_the_cross_thread_lifecycle_edges() {
        let system = SystemBuilder::new(config()).clients(4).build();
        let sink = Arc::new(sbft_telemetry::MemorySink::new());
        let report = LocalCluster::new(system)
            .clients(4)
            .target_txns(12)
            .deadline(Duration::from_secs(20))
            .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
            .run();
        assert!(report.committed >= 12);
        let events = sink.events();
        let stages: std::collections::HashSet<Stage> = events.iter().map(|e| e.stage).collect();
        for stage in [
            Stage::BatchRelease,
            Stage::CommitQuorum,
            Stage::ExecuteSpawn,
            Stage::VerifyIngest,
            Stage::Respond,
        ] {
            assert!(stages.contains(&stage), "missing {stage:?} markers");
        }
        // Within one trace the markers must be time-ordered the way the
        // pipeline runs.
        let marks = sbft_telemetry::export::marks(&events);
        let complete = marks
            .values()
            .filter(|m| m.contains_key(&Stage::BatchRelease) && m.contains_key(&Stage::Respond))
            .count();
        assert!(complete > 0, "no trace carried release..respond markers");
        for stage_times in marks.values() {
            if let (Some(release), Some(respond)) = (
                stage_times.get(&Stage::BatchRelease),
                stage_times.get(&Stage::Respond),
            ) {
                assert!(release <= respond, "respond before batch release");
            }
        }
    }

    #[test]
    fn durable_cluster_commits_through_file_backed_wals() {
        // With durability on, every node writes a file-backed WAL in the
        // run's own temp directory; the fsync tax must not stop the
        // cluster from committing its target.
        let mut cfg = config();
        cfg.durability = sbft_types::DurabilityConfig::enabled();
        let system = SystemBuilder::new(cfg).clients(4).build();
        let registry = Arc::clone(&system.registry);
        let report = LocalCluster::new(system)
            .clients(4)
            .target_txns(12)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(
            report.committed >= 12,
            "committed only {} transactions",
            report.committed
        );
        assert_eq!(
            registry.counter_value("runtime.file_wals"),
            4,
            "a node fell back to its in-memory log"
        );
    }

    #[test]
    fn each_run_gets_its_own_wal_directory_and_removes_it() {
        let (a, b) = (WalDir::create(), WalDir::create());
        assert_ne!(a.0, b.0, "concurrent runs must not share a directory");
        assert!(a.0.is_dir() && b.0.is_dir());
        let path = a.0.clone();
        std::fs::write(path.join("node-0.wal"), b"log").expect("write");
        drop(a);
        assert!(!path.exists(), "the run's directory outlived it");
        assert!(b.0.is_dir());
    }

    #[test]
    fn loaded_primary_fills_batches_up_to_batch_size() {
        let mut cfg = config();
        cfg.workload.batch_size = 16;
        cfg.workload.num_clients = 64;
        let system = SystemBuilder::new(cfg).clients(64).build();
        let sink = Arc::new(sbft_telemetry::MemorySink::new());
        let report = LocalCluster::new(system)
            .clients(64)
            .target_txns(2_000)
            .deadline(Duration::from_secs(20))
            .with_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
            .run();
        assert!(report.committed >= 2_000);
        // The responses of a batch share its trace id.
        let mut responds: std::collections::HashMap<u64, usize> = Default::default();
        for event in sink.events() {
            if event.stage == Stage::Respond {
                *responds.entry(event.trace).or_default() += 1;
            }
        }
        let largest = responds.values().copied().max().unwrap_or(0);
        assert!(largest <= 16, "a batch of {largest} exceeds batch_size");
        let mean = responds.values().sum::<usize>() as f64 / responds.len().max(1) as f64;
        assert!(mean > 4.0, "mean batch of {mean:.1} under 64 clients");
    }

    #[test]
    fn lone_client_is_ordered_at_once_on_an_idle_pipeline() {
        // One closed-loop client can never fill a batch of 100; each of
        // its requests finds the pipeline idle and must neither wait for
        // a full batch nor sit out the batch interval.
        let mut cfg = config();
        cfg.workload.batch_size = 100;
        let system = SystemBuilder::new(cfg).clients(1).build();
        let report = LocalCluster::new(system)
            .clients(1)
            .target_txns(50)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(report.committed >= 50, "committed {}", report.committed);
        assert!(
            report.elapsed < Duration::from_secs(5),
            "50 unloaded commits took {:?}",
            report.elapsed
        );
        assert_eq!(report.batches, report.committed, "batches of one");
        assert!(
            report.executor_invocations >= report.batches,
            "{} executors for {} batches",
            report.executor_invocations,
            report.batches
        );
    }

    #[test]
    fn requests_parked_behind_a_batch_are_cut_on_the_interval() {
        // Four clients never fill a batch of 100. The first request is
        // ordered alone; the others arrive while it is in flight, are
        // parked, and only the interval cut lets them through, together.
        let mut cfg = config();
        cfg.workload.batch_size = 100;
        let system = SystemBuilder::new(cfg).clients(4).build();
        let report = LocalCluster::new(system)
            .clients(4)
            .target_txns(80)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(report.committed >= 80, "committed {}", report.committed);
        assert!(
            report.batches < report.committed,
            "{} batches for {} transactions",
            report.batches,
            report.committed
        );
        // 80 transactions at four per interval of 5 ms.
        assert!(
            report.elapsed < Duration::from_secs(5),
            "took {:?}",
            report.elapsed
        );
    }

    #[test]
    fn group_commit_wal_syncs_only_when_the_node_thread_says_so() {
        let path = std::env::temp_dir().join(format!("sbft-group-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = Arc::new(GroupLog {
            wal: Mutex::new(FileWal::open(&path).expect("open")),
            sync_due: AtomicBool::new(false),
        });
        let mut wal = GroupCommitWal(Arc::clone(&log));
        let view = sbft_types::ViewNumber(0);
        wal.append(&WalRecord::ViewInstalled { view });
        wal.sync();
        assert!(log.sync_due(), "the node's sync is a request");
        assert_eq!((wal.durable_len(), wal.unsynced_len()), (0, 1));
        log.sync();
        assert!(!log.sync_due());
        assert_eq!((wal.durable_len(), wal.unsynced_len()), (1, 0));
        // Truncation may not run ahead of the records still buffered.
        wal.append(&WalRecord::SnapshotMark {
            upto: SeqNum(3),
            view,
        });
        wal.truncate_below(SeqNum(3));
        assert_eq!((wal.durable_len(), wal.unsynced_len()), (2, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn durable_cluster_group_commits_under_load() {
        let mut cfg = config();
        cfg.workload.batch_size = 16;
        cfg.workload.num_clients = 32;
        cfg.durability = sbft_types::DurabilityConfig::enabled();
        let system = SystemBuilder::new(cfg).clients(32).build();
        let report = LocalCluster::new(system)
            .clients(32)
            .target_txns(400)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(report.committed >= 400, "committed {}", report.committed);
        assert!(
            report.batches < report.committed,
            "{} batches for {} transactions: one fsync each",
            report.batches,
            report.committed
        );
    }
}
