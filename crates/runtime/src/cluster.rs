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
//! A node thread blocks on its inbox, handles deliveries for as long as
//! the inbox has any, and only then goes back to blocking. The primary
//! releases a batch on whichever comes first:
//!
//! * **full** — a lane reaches `batch_size` (`Batcher::push_planned`);
//! * **idle** — the inbox is empty, so nothing that could join the batch
//!   is waiting and holding it back would only add latency;
//! * **`max_wait`** — the oldest pending request has waited out the
//!   batcher's timeout while the inbox never drained. Requests and the
//!   poll are stamped with the router's wall clock for this.
//!
//! Batch size therefore follows load without a timer thread: a lone
//! closed-loop client gets batches of one and pays no batching wait,
//! while a loaded primary fills batches up to `batch_size` and pays the
//! three ordering phases, the executor spawns, the verifier's match and
//! (under durability) the WAL fsync once per batch.

use crossbeam_channel::{unbounded, Receiver, Sender};
use sbft_core::events::{Action, Destination, Envelope, ProtocolMessage};
use sbft_core::System;
use sbft_telemetry::{Counter, Stage, TraceSink, Tracer};
use sbft_types::{ClientId, ComponentId, NodeId, SeqNum, SimTime, TxnOutcome};
use sbft_workloads::YcsbWorkload;
use std::collections::HashMap;
use std::sync::Arc;
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
                    if let Some(seq) = ordering_batch_seq(c) {
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
    /// Transactions the verifier applied through the `ShardScheduler`
    /// worker pool (0 when the configuration runs the synchronous apply
    /// stage).
    pub pool_applied: u64,
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
        let wal_dir = system.config.durability.enabled.then(|| {
            let dir = std::env::temp_dir().join(format!("sbft-wal-{}", std::process::id()));
            let _ = std::fs::create_dir_all(&dir);
            dir
        });
        for (i, mut node) in nodes.into_iter().enumerate() {
            if let Some(dir) = &wal_dir {
                if let Ok(wal) = sbft_durability::FileWal::open(dir.join(format!("node-{i}.wal"))) {
                    node.attach_wal(Box::new(wal));
                }
            }
            let rx = node_rx.remove(0);
            let router = router.clone();
            handles.push(thread::spawn(move || {
                let origin = ComponentId::Node(NodeId(i as u32));
                let mut next = rx.recv();
                while let Ok(Work::Item(Delivery { from, msg })) = next {
                    let now = router.now();
                    let mut actions = match msg {
                        ProtocolMessage::ClientRequest(req) => node.on_client_request(&req, now),
                        ProtocolMessage::Consensus(c) => match from.as_node() {
                            Some(sender) => node.on_consensus_message(sender, c),
                            None => Vec::new(),
                        },
                        other => node.on_message_at(&other, now),
                    };
                    // `max_wait` bounds the wait of a pending request while
                    // the inbox never drains.
                    actions.extend(node.poll_batcher(now));
                    router.route(origin, actions);
                    // An empty inbox means nothing waiting could join the
                    // partial batch: release it, then block.
                    next = rx.try_recv().or_else(|_| {
                        router.route(origin, node.flush_batcher());
                        rx.recv()
                    });
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

        // Verifier thread. With more than one configured shard worker the
        // apply stage runs on the ShardScheduler pool (real multi-core
        // commit parallelism); otherwise it stays synchronous on this
        // thread.
        let pool_applied = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        {
            let router = router.clone();
            let mut verifier = system.verifier;
            let apply_workers = system.config.sharding.workers;
            if apply_workers > 1 {
                verifier.attach_apply_pool(apply_workers);
                if let Some(pool) = verifier.apply_pool() {
                    pool.register_metrics(&system.registry);
                }
            }
            let pool_applied = std::sync::Arc::clone(&pool_applied);
            handles.push(thread::spawn(move || {
                while let Ok(Work::Item(delivery)) = verifier_rx.recv() {
                    let actions = verifier.on_message(&delivery.msg);
                    router.route(ComponentId::Verifier, actions);
                }
                pool_applied.store(
                    verifier.pool_applied_txns(),
                    std::sync::atomic::Ordering::Release,
                );
                // Dropping the verifier drains and joins the pool workers.
            }));
        }

        // Client driver (this thread).
        let mut workload_cfg = system.config.workload;
        workload_cfg.num_clients = num_clients;
        let mut workload = YcsbWorkload::new(workload_cfg, workload_seed);
        let mut clients: HashMap<ClientId, sbft_core::ClientRole> = system
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
        report.pool_applied = pool_applied.load(std::sync::atomic::Ordering::Acquire);
        report.executor_invocations = executor_invocations.get();
        report.batches = router.batches.get();
        report
    }
}

/// The sequence number of the batch an ordering-protocol message carries,
/// if it carries one (PBFT `PREPREPARE` / CFT accept).
fn ordering_batch_seq(msg: &sbft_consensus::ConsensusMessage) -> Option<SeqNum> {
    match msg {
        sbft_consensus::ConsensusMessage::PrePrepare(p) => Some(p.seq),
        sbft_consensus::ConsensusMessage::CftAccept(a) => Some(a.seq),
        _ => None,
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
    fn local_cluster_applies_batches_through_the_shard_pool() {
        // With more than one shard worker configured, the verifier's apply
        // stage must run on the ShardScheduler pool: every committed
        // transaction is applied by a pool worker, and the run still
        // commits its target (thread scaling itself needs a multi-core
        // host; correctness of the wiring does not).
        let mut cfg = config();
        cfg.sharding = sbft_types::ShardingConfig {
            num_shards: 8,
            workers: 4,
            ..sbft_types::ShardingConfig::default()
        };
        let system = SystemBuilder::new(cfg).clients(8).build();
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
        assert!(
            report.pool_applied >= report.committed,
            "pool applied {} of {} committed",
            report.pool_applied,
            report.committed
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
        // With durability on, every node writes a file-backed WAL under the
        // process-scoped temp directory; the fsync tax must not stop the
        // cluster from committing its target.
        let mut cfg = config();
        cfg.durability = sbft_types::DurabilityConfig::enabled();
        let system = SystemBuilder::new(cfg).clients(4).build();
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
        let dir = std::env::temp_dir().join(format!("sbft-wal-{}", std::process::id()));
        assert!(dir.join("node-0.wal").exists(), "WAL file was not created");
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
        let mut responds: HashMap<u64, usize> = HashMap::new();
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
    fn lone_client_is_released_on_idle_not_on_a_full_batch() {
        // One closed-loop client can never fill a batch of 100, and
        // nothing on this runtime fires a timer: only the idle release
        // lets each request through.
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

    #[test]
    fn default_single_worker_config_keeps_the_synchronous_apply_stage() {
        let system = SystemBuilder::new(config()).clients(4).build();
        let report = LocalCluster::new(system)
            .clients(4)
            .target_txns(12)
            .deadline(Duration::from_secs(20))
            .run();
        assert!(report.committed >= 12);
        assert_eq!(report.pool_applied, 0, "no pool configured");
    }
}
