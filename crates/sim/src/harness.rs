//! The discrete-event simulation harness.
//!
//! [`SimHarness`] drives a fully assembled [`sbft_core::System`] through
//! virtual time: it interprets the actions emitted by the role state
//! machines (sends, timers, executor spawns), applies the configured
//! byzantine attacks, models network and CPU delays, runs the closed-loop
//! client population, and collects [`RunMetrics`].

use crate::cpu::{CpuModel, ServiceStation};
use crate::faults::{FaultPlan, FaultState};
use crate::metrics::RunMetrics;
use crate::network::NetworkModel;
use crate::queue::{EventQueue, Fired};
use sbft_core::events::{Action, Destination, Envelope, ProtocolMessage, ProtocolTimer};
use sbft_core::System;
use sbft_serverless::{CrashRestart, ExecuteRequest, ExecutorBehavior};
use sbft_storage::GeoPartitionedStore;
use sbft_telemetry::{Counter, Stage, TraceSink, Tracer};
use sbft_types::{
    ClientId, ComponentId, ExecutorId, IdMap, NodeId, Region, SeqNum, SimDuration, SimTime, TxnId,
    TxnOutcome,
};
use sbft_workloads::{KeyDistribution, YcsbWorkload};

/// Parameters of one simulated run.
#[derive(Clone, Copy, Debug)]
pub struct SimParams {
    /// Length of the measured window (after warm-up).
    pub duration: SimDuration,
    /// Warm-up period excluded from the metrics.
    pub warmup: SimDuration,
    /// Number of closed-loop clients actively issuing requests (capped at
    /// the number of client roles in the system).
    pub num_clients: usize,
    /// Seed for the workload generator.
    pub seed: u64,
    /// How often the primary's batcher releases partial batches.
    pub batch_poll_interval: SimDuration,
    /// Safety cap on the number of processed events.
    pub max_events: u64,
    /// When set, executor compute time is serialised through a shared pool
    /// of this many execution threads instead of running fully in parallel.
    /// This models the paper's Figure 8 baselines where all execution
    /// happens on the edge devices with a fixed number of execution
    /// threads (`PBFT-k-ET`); `None` models serverless executors.
    pub edge_execution_threads: Option<usize>,
    /// When set, keys are drawn Zipfian with this exponent instead of
    /// uniformly (the skew axis of the planner experiments).
    pub zipf_theta: Option<f64>,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(100),
            num_clients: 200,
            seed: 1,
            batch_poll_interval: SimDuration::from_millis(2),
            max_events: 20_000_000,
            edge_execution_threads: None,
            zipf_theta: None,
        }
    }
}

/// What happens at a point in virtual time (timers aside: the queue
/// keeps those itself, see [`crate::queue`]).
///
/// The queue holds one of these per pending event, so the enum is kept
/// to 16 bytes (32 per queued event): sifting a small element through a
/// deep heap costs less than an indirection. An executor run (a few per
/// batch) is boxed; a message in flight — the common entry — is not an
/// `EventKind` at all but a slot of the queue's delivery slab
/// ([`EventQueue::push_delivery`]).
pub(crate) enum EventKind {
    ExecutorRun(Box<ExecutorRun>),
    BatchTick {
        node: usize,
    },
    /// The node's process dies: volatile state and the unsynced WAL tail
    /// are lost, and deliveries/timers to it are dropped until `Restart`.
    Crash {
        node: usize,
    },
    /// The node restarts and recovers from its durable log.
    Restart {
        node: usize,
    },
}

/// A message in flight.
pub(crate) struct Delivery {
    from: ComponentId,
    to: ComponentId,
    msg: ProtocolMessage,
}

/// A spawned executor about to run its batch.
pub(crate) struct ExecutorRun {
    executor: ExecutorId,
    region: Region,
    behavior: ExecutorBehavior,
    execute: ExecuteRequest,
}

/// The simulator.
pub struct SimHarness {
    system: System,
    params: SimParams,
    network: NetworkModel,
    cpu: CpuModel,
    clock: SimTime,
    /// Pending events and armed timers, popped in `(time, seq)` order.
    queue: EventQueue,
    events_processed: u64,
    /// The CPU of each shim node, by node index, and of the verifier
    /// (clients and executors are not CPU-bound in the model).
    node_stations: Vec<ServiceStation>,
    verifier_station: ServiceStation,
    /// One service station per execution shard: the verifier's `ccheck`
    /// work for a validated batch is charged here, so shard counts scale
    /// the commit path the way cores scale a node (Figure 6(ix)).
    shard_stations: Vec<ServiceStation>,
    /// `net.<node>.egress_bytes` per shim node and
    /// `net.leader_egress_bytes`, resolved once instead of by name on
    /// every node-to-node send.
    node_egress: Vec<Counter>,
    leader_egress: Counter,
    workload: YcsbWorkload,
    /// When each client submitted the request it is waiting on (the
    /// closed loop gives a client one at a time), by client index.
    submit_times: Vec<SimTime>,
    /// Shared execution station for the edge-execution baselines.
    edge_execution: Option<ServiceStation>,
    /// Whether CLIENT-REQUEST service at a shim node includes the
    /// ordering-time shard-routing classification.
    charge_routing: bool,
    /// The region-partitioned storage view, when the deployment
    /// geo-partitions: executor ⇄ storage fetches are classified (and
    /// counted) through it and pay the inter-region round trip to every
    /// remote partition they touch.
    geo: Option<GeoPartitionedStore>,
    /// Per-batch memo of the distinct storage partitions its keys are
    /// homed in — classified once, reused by every spawned executor of
    /// the batch (including re-spawns).
    touched_partitions: IdMap<SeqNum, std::collections::BTreeSet<Region>>,
    /// Batch lifecycle tracer. Disabled by default: every marker site
    /// pays one branch and nothing else.
    tracer: Tracer,
    /// Admission times of requests at the primary — (arrival, admission
    /// done) — consumed when the request's batch is released into
    /// ordering. Only populated while tracing is enabled.
    ingest_times: IdMap<TxnId, (SimTime, SimTime)>,
    /// Node indices currently crashed: deliveries and timer firings to
    /// them are dropped until their `Restart` event.
    down: std::collections::BTreeSet<usize>,
    /// The instantiated chaos plan, when one was attached: consulted on
    /// every node-to-node send and every fsync.
    faults: Option<FaultState>,
    /// Emptied action lists the client and verifier roles fill next (they
    /// answer per transaction; a shim node's lists are per batch and its
    /// own). One per level of [`Self::process_actions`] nesting.
    spare_actions: Vec<Vec<Action>>,
    metrics: RunMetrics,
}

impl SimHarness {
    /// Creates a harness around a system.
    #[must_use]
    pub fn new(system: System, params: SimParams) -> Self {
        Self::with_models(system, params, NetworkModel::default(), CpuModel::default())
    }

    /// Creates a harness with explicit network and CPU models.
    #[must_use]
    pub fn with_models(
        system: System,
        params: SimParams,
        network: NetworkModel,
        cpu: CpuModel,
    ) -> Self {
        let mut workload_cfg = system.config.workload;
        workload_cfg.num_clients = params.num_clients.min(system.clients.len()).max(1);
        let declare = matches!(
            system.config.conflict_handling,
            sbft_types::ConflictHandling::KnownRwSets
        );
        let mut workload = YcsbWorkload::new(workload_cfg, params.seed)
            .with_distribution(KeyDistribution::Uniform)
            .with_declared_rwsets(declare);
        if let Some(theta) = params.zipf_theta {
            workload = workload.with_zipf_theta(theta);
        }
        // The ordering-time shard planner classifies every client request
        // at the primary; charge that routing work in the CPU model.
        let charge_routing = declare
            && system.config.sharding.num_shards > 1
            && system.config.sharding.ordering_lanes;
        let node_stations = system
            .nodes
            .iter()
            .map(|_| ServiceStation::new(system.config.shim_cores))
            .collect();
        let verifier_station = ServiceStation::new(system.config.verifier_cores);
        let sharding = system.config.sharding;
        let shard_stations = (0..sharding.num_shards)
            .map(|_| ServiceStation::new(sharding.workers))
            .collect();
        let edge_execution = params.edge_execution_threads.map(ServiceStation::new);
        let geo = system.config.region_partition().map(|p| {
            let mut geo = GeoPartitionedStore::new(std::sync::Arc::clone(&system.storage), p);
            geo.register_metrics(&system.registry);
            geo
        });
        let metrics = RunMetrics {
            registry: std::sync::Arc::clone(&system.registry),
            ..RunMetrics::default()
        };
        system
            .registry
            .bind_histogram("client.latency_us", metrics.latency.histogram());
        let node_egress = system
            .nodes
            .iter()
            .map(|n| {
                system
                    .registry
                    .counter(&format!("net.{}.egress_bytes", n.id().0))
            })
            .collect();
        let leader_egress = system.registry.counter("net.leader_egress_bytes");
        let clients = system.clients.len();
        SimHarness {
            system,
            params,
            network,
            cpu,
            clock: SimTime::ZERO,
            queue: EventQueue::new(clients),
            events_processed: 0,
            node_stations,
            verifier_station,
            shard_stations,
            node_egress,
            leader_egress,
            workload,
            submit_times: vec![SimTime::ZERO; clients],
            edge_execution,
            charge_routing,
            geo,
            touched_partitions: IdMap::default(),
            tracer: Tracer::disabled(),
            ingest_times: IdMap::default(),
            down: std::collections::BTreeSet::new(),
            faults: None,
            spare_actions: Vec::new(),
            metrics,
        }
    }

    /// Enables batch lifecycle tracing into `sink`. Span events carry sim
    /// timestamps, so two identical runs trace identically.
    #[must_use]
    pub fn with_tracer(mut self, sink: std::sync::Arc<dyn TraceSink>) -> Self {
        self.tracer = Tracer::new(sink);
        self
    }

    /// Attaches a composable chaos plan: per-link loss / duplication /
    /// extra delay, directed partition windows, disk-lag stragglers and
    /// (possibly simultaneous) crash-restarts. The plan's random draws
    /// derive from the run seed, so the full fault schedule is
    /// reproducible; injections surface as `faults.*` counters.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultState::new(
            plan,
            self.params.seed,
            SimTime::ZERO,
            &self.system.registry,
        ));
        self
    }

    fn end_time(&self) -> SimTime {
        SimTime::ZERO + self.params.warmup + self.params.duration
    }

    fn in_window(&self, t: SimTime) -> bool {
        t >= SimTime::ZERO + self.params.warmup && t < self.end_time()
    }

    /// The service station modelling `component`'s CPU, if it has one.
    fn station_mut(&mut self, component: ComponentId) -> Option<&mut ServiceStation> {
        match component {
            ComponentId::Node(node) => self.node_stations.get_mut(node.0 as usize),
            ComponentId::Verifier => Some(&mut self.verifier_station),
            _ => None,
        }
    }

    /// Runs the simulation to completion and returns the metrics.
    pub fn run(mut self) -> RunMetrics {
        self.drive();
        self.into_metrics()
    }

    /// Seeds the event queue and processes events until the run ends.
    fn drive(&mut self) {
        let active_clients = self
            .params
            .num_clients
            .min(self.system.clients.len())
            .max(1);

        // Closed loop: every client issues its first request at t = 0.
        for c in 0..active_clients {
            let client = ClientId(c as u32);
            self.submit_next(client, SimTime::ZERO);
        }
        // Periodic batch ticks at every shim node (only the primary acts).
        for node in 0..self.system.nodes.len() {
            self.queue.push(
                SimTime::ZERO + self.params.batch_poll_interval,
                EventKind::BatchTick { node },
            );
        }
        // The fault plan's crash-restarts; they may overlap in time
        // (simultaneous multi-node crashes).
        let crashes: Vec<CrashRestart> = self
            .faults
            .iter()
            .flat_map(|faults| faults.crashes())
            .copied()
            .collect();
        for crash in crashes {
            let node = crash.node.0 as usize;
            if node < self.system.nodes.len() {
                self.queue
                    .push(SimTime::ZERO + crash.at, EventKind::Crash { node });
                self.queue.push(
                    SimTime::ZERO + crash.at + crash.restart_after,
                    EventKind::Restart { node },
                );
            }
        }

        let hard_end = self.end_time() + SimDuration::from_millis(50);
        while let Some(popped) = self.queue.pop() {
            if popped.time > hard_end || self.events_processed >= self.params.max_events {
                break;
            }
            self.clock = popped.time;
            self.events_processed += 1;
            match popped.fired {
                Fired::Delivery(Delivery { from, to, msg }) => {
                    self.deliver(from, to, msg, popped.time);
                }
                Fired::Event(kind) => self.handle_event(kind, popped.time),
                Fired::Timer(owner, timer) => self.fire_timer(owner, timer, popped.time),
                Fired::StaleTimer => {}
            }
        }
    }

    /// Closes the run report over whatever [`Self::drive`] left behind.
    fn into_metrics(mut self) -> RunMetrics {
        self.metrics.measured_duration = self.params.duration;
        self.metrics.end_time = self.clock;
        self.metrics.executors_spawned = self.system.cloud.total_spawned();
        self.metrics.spawns_rejected = self.system.cloud.rejected();
        // The seven registry mirrors the frozen benchmark reads as fields
        // (see `RunMetrics`); everything else is read from the registry by
        // name, through the report.
        let registry = &self.system.registry;
        self.metrics.divergent_aborts = registry.counter_value("verifier.divergent_aborts");
        self.metrics.validated_batches = registry.counter_value("verifier.validated_batches");
        self.metrics.leader_egress_bytes = registry.counter_value("net.leader_egress_bytes");
        self.metrics.wal_appends = registry.sum_counters("durability.wal_appends");
        self.metrics.replay_batches = registry.sum_counters("durability.replay_batches");
        self.metrics.state_transfer_batches =
            registry.sum_counters("durability.state_transfer_batches");
        self.metrics.recoveries = registry.counter_value("recovery.recoveries");
        self.metrics
    }

    fn handle_event(&mut self, kind: EventKind, now: SimTime) {
        match kind {
            EventKind::ExecutorRun(run) => self.run_executor(*run, now),
            EventKind::BatchTick { node } => {
                // A crashed node skips the poll but keeps its tick alive,
                // so batching resumes as soon as it restarts.
                if !self.down.contains(&node) {
                    let actions = self.system.nodes[node].poll_batcher(now);
                    let id = self.system.nodes[node].id();
                    let mut actions = self.system.injector.apply(id, actions);
                    self.process_actions(ComponentId::Node(id), now, &mut actions);
                }
                if now < self.end_time() {
                    self.queue.push(
                        now + self.params.batch_poll_interval,
                        EventKind::BatchTick { node },
                    );
                }
            }
            EventKind::Crash { node } => {
                self.down.insert(node);
                self.system.nodes[node].crash();
            }
            EventKind::Restart { node } => {
                self.down.remove(&node);
                let id = self.system.nodes[node].id();
                let mut actions = self.system.nodes[node].crash_restart();
                self.system.registry.counter("recovery.recoveries").inc();
                // The recover span: one event per recovery, keyed by the
                // restarting node (not part of the batch pipeline).
                self.tracer.emit(u64::from(id.0), Stage::Recover, now);
                self.process_actions(ComponentId::Node(id), now, &mut actions);
            }
        }
    }

    fn deliver(&mut self, from: ComponentId, to: ComponentId, msg: ProtocolMessage, now: SimTime) {
        // A crashed node is dark: anything addressed to it is lost.
        if let ComponentId::Node(node) = to {
            if self.down.contains(&(node.0 as usize)) {
                return;
            }
        }
        let wire_size = msg.wire_size();
        self.metrics.messages_delivered += 1;
        self.metrics.bytes_delivered += wire_size as u64;
        // CPU service at the receiving component.
        let cost =
            if let (ProtocolMessage::ClientRequest(req), ComponentId::Node(node)) = (&msg, to) {
                let is_primary = self
                    .system
                    .nodes
                    .get(node.0 as usize)
                    .is_some_and(sbft_core::ShimNode::is_primary);
                // The primary verifies client authentication as one aggregate
                // signature per batch (charged when the batch is released), so
                // admission pays only the per-request share; a non-primary
                // still verifies eagerly before forwarding.
                let mut cost = self.cpu.client_request_cost(wire_size, is_primary);
                if self.charge_routing && is_primary {
                    // Ordering-time shard routing: the primary classifies the
                    // declared read/write keys against the shard map (a
                    // forwarding non-primary never runs the classification).
                    let keys = req.txn.declared_rwset.as_ref().map_or_else(
                        || req.txn.num_ops(),
                        |rw| rw.read_keys.len() + rw.write_keys.len(),
                    );
                    cost += self.cpu.routing_cost(keys);
                }
                cost
            } else {
                self.cpu.message_cost(msg.kind(), wire_size)
            };
        let done = match self.station_mut(to) {
            Some(station) => station.schedule(now, cost),
            None => now, // clients are not CPU-bound in the model
        };
        match to {
            ComponentId::Node(node_id) => {
                let idx = node_id.0 as usize;
                if idx >= self.system.nodes.len() {
                    return;
                }
                let actions = match msg {
                    ProtocolMessage::ClientRequest(req) => {
                        if self.tracer.enabled() && self.system.nodes[idx].is_primary() {
                            // Remembered until the request's batch is
                            // released, then folded into its trace.
                            self.ingest_times.insert(req.txn.id, (now, done));
                        }
                        self.system.nodes[idx].on_client_request(&req, done)
                    }
                    ProtocolMessage::Consensus(c) => {
                        if let Some(seq) = c.proposal_seq() {
                            self.tracer.emit(seq.0, Stage::PrePrepare, done);
                        }
                        match from.as_node() {
                            Some(sender) => self.system.nodes[idx].on_consensus_message(sender, c),
                            None => Vec::new(),
                        }
                    }
                    other => self.system.nodes[idx].on_message_at(&other, done),
                };
                let mut actions = self.system.injector.apply(node_id, actions);
                self.process_actions(to, done, &mut actions);
            }
            ComponentId::Verifier => {
                if let ProtocolMessage::Verify(v) = &msg {
                    self.tracer.emit(v.seq.0, Stage::VerifyIngest, now);
                }
                self.process_filled(to, done, |system, out| {
                    system.verifier.on_message_into(&msg, out);
                });
            }
            ComponentId::Client(client_id) => {
                match &msg {
                    ProtocolMessage::Response(r) => {
                        self.tracer.emit(r.seq.0, Stage::Respond, now);
                    }
                    ProtocolMessage::Abort(a) => {
                        self.tracer.emit(a.seq.0, Stage::Respond, now);
                    }
                    _ => {}
                }
                let idx = client_id.0 as usize;
                if idx >= self.system.clients.len() {
                    return;
                }
                self.process_filled(to, done, |system, out| {
                    system.clients[idx].on_message_into(&msg, out);
                });
            }
            _ => {}
        }
    }

    /// Closed loop: `client` issues its next request at `now`.
    fn submit_next(&mut self, client: ClientId, now: SimTime) {
        let idx = client.0 as usize;
        let txn = self.workload.next_transaction(client);
        self.submit_times[idx] = now;
        self.process_filled(ComponentId::Client(client), now, |system, out| {
            system.clients[idx].submit_into(txn, out);
        });
    }

    /// Lets a role append its actions to a spare list, interprets them,
    /// and keeps the emptied list (and its capacity) for the next call.
    fn process_filled(
        &mut self,
        origin: ComponentId,
        now: SimTime,
        fill: impl FnOnce(&mut System, &mut Vec<Action>),
    ) {
        let mut actions = self.spare_actions.pop().unwrap_or_default();
        fill(&mut self.system, &mut actions);
        self.process_actions(origin, now, &mut actions);
        self.spare_actions.push(actions);
    }

    fn fire_timer(&mut self, owner: ComponentId, timer: ProtocolTimer, now: SimTime) {
        match owner {
            ComponentId::Node(node_id) => {
                let idx = node_id.0 as usize;
                if idx >= self.system.nodes.len() || self.down.contains(&idx) {
                    return;
                }
                let actions = self.system.nodes[idx].on_timer(timer, now);
                let mut actions = self.system.injector.apply(node_id, actions);
                self.process_actions(owner, now, &mut actions);
            }
            ComponentId::Verifier => {
                let mut actions = self.system.verifier.on_timer(timer);
                self.process_actions(owner, now, &mut actions);
            }
            ComponentId::Client(client_id) => {
                if let ProtocolTimer::ClientRequest(txn) = timer {
                    let idx = client_id.0 as usize;
                    if idx >= self.system.clients.len() {
                        return;
                    }
                    let mut actions = self.system.clients[idx].on_timeout(txn);
                    self.process_actions(owner, now, &mut actions);
                }
            }
            _ => {}
        }
    }

    fn run_executor(&mut self, run: ExecutorRun, now: SimTime) {
        let ExecutorRun {
            executor,
            region,
            behavior,
            execute,
        } = run;
        let instance = self.system.make_executor_with(executor, region, behavior);
        let output = match instance.handle_execute(&execute) {
            Ok(output) => output,
            Err(_) => {
                self.system.cloud.release(executor);
                return;
            }
        };
        // The function's billable time: certificate validation + execution.
        let cert_cost = self.cpu.message_cost("EXECUTE", execute.wire_size());
        // Geo-partitioned storage: the executor bulk-fetches the batch's
        // read-write sets from every partition its keys are homed in.
        // Fetches to distinct partitions run in parallel, so the stall is
        // the worst round trip; a pinned executor whose batch is
        // single-home in its own region stalls only for the local hop.
        // The touched-partition set is a property of the batch alone, so
        // it is classified once per sequence number (every spawned
        // executor of the batch reuses it) through the storage view,
        // which also keeps the local/remote fetch counters.
        let fetch_stall = match &self.geo {
            Some(geo) => {
                let touched = self
                    .touched_partitions
                    .entry(execute.seq)
                    .or_insert_with(|| {
                        geo.regions_touched(
                            execute
                                .batch
                                .iter()
                                .flat_map(|t| t.ops.iter())
                                .map(|op| op.key()),
                        )
                    });
                let mut worst = SimDuration::ZERO;
                for home in touched.iter() {
                    let _remote = geo.record_partition_fetch(region, *home);
                    let rtt = self
                        .network
                        .inter_region_delay(region, *home, 256)
                        .saturating_mul(2);
                    worst = worst.max(rtt);
                }
                worst
            }
            None => SimDuration::ZERO,
        };
        let busy = cert_cost + fetch_stall + output.compute;
        self.metrics.executor_busy += busy;
        // Serverless executors run fully in parallel; the edge-execution
        // baselines funnel all execution through a fixed thread pool.
        let finished_at = match &mut self.edge_execution {
            Some(pool) => pool.schedule(now, busy),
            None => now + busy,
        };
        let busy = finished_at - now;
        let extra_delay = SimDuration::from_millis(behavior.extra_delay_ms());
        for verify in output.verify_messages {
            let msg = ProtocolMessage::Verify(verify);
            let delay = self.network.region_delay(region, msg.wire_size());
            self.push_delivery(
                now + busy + extra_delay + delay,
                ComponentId::Executor(executor),
                ComponentId::Verifier,
                msg,
            );
        }
        self.system.cloud.release(executor);
    }

    /// Interprets (and drains) a role's action list.
    fn process_actions(&mut self, origin: ComponentId, now: SimTime, actions: &mut Vec<Action>) {
        // Shard `ccheck` work announced in this action list gates the
        // sends that follow it: responses for a validated batch leave only
        // once every involved shard station has finished the batch's
        // validate-and-apply work. Unchained slices (single-home work) run
        // in parallel, each from `arrival`; chained slices are the
        // lock-ordered cross-shard staircase — shard i+1 starts only after
        // shard i grants, so `chain` carries the previous grant time. The
        // watermark `now` tracks the latest completion either way.
        let arrival = now;
        let mut chain = now;
        let mut now = now;
        // When the verifier's action list applies validated batches, the
        // whole list is their apply phase: mark each batch's start, the
        // shard slices, and (after the loop) each batch's end. One
        // quorum-completing VERIFY can release several queued batches
        // (ordered apply), so all of them are marked; the shard slices
        // are attributed to the first.
        let apply_seqs = if self.tracer.enabled() && origin == ComponentId::Verifier {
            let seqs = validated_batch_seqs(actions);
            for seq in &seqs {
                self.tracer.emit(seq.0, Stage::ApplyStart, arrival);
            }
            seqs
        } else {
            Vec::new()
        };
        let apply_seq = apply_seqs.first().copied();
        for action in actions.drain(..) {
            match action {
                Action::ShardCcheck {
                    shard,
                    txns,
                    accesses,
                    planned,
                    chained,
                } => {
                    if self.shard_stations.is_empty() {
                        continue;
                    }
                    let idx = shard.0 as usize % self.shard_stations.len();
                    // The verified fast path skipped the per-transaction
                    // route sets and the probe key map; probed work pays
                    // for them.
                    let cost = if planned {
                        self.cpu.ccheck_cost(accesses as usize)
                    } else {
                        self.cpu
                            .ccheck_cost_probed(txns as usize, accesses as usize)
                    };
                    let start = if chained { chain } else { arrival };
                    let done = self.shard_stations[idx].schedule(start, cost);
                    if let Some(seq) = apply_seq {
                        self.tracer
                            .emit_shard(seq.0, Stage::ShardSliceStart, start, shard.0);
                        self.tracer
                            .emit_shard(seq.0, Stage::ShardSliceEnd, done, shard.0);
                    }
                    if chained {
                        chain = done;
                    }
                    now = now.max(done);
                }
                Action::Send(Envelope { from, to, msg }) => {
                    if let ProtocolMessage::Consensus(c) = &msg {
                        if let Some(seq) = c.proposal_seq() {
                            // Releasing a batch into ordering is where the
                            // primary verifies the one aggregate signature
                            // covering the batch's client authentication
                            // (the per-request share was charged at
                            // admission).
                            let cost = self.cpu.aggregate_batch_check_cost();
                            if let Some(station) = self.station_mut(origin) {
                                station.schedule(now, cost);
                            }
                            if self.tracer.enabled() {
                                self.mark_batch_release(seq, &c.proposal_txn_ids(), now);
                            }
                        }
                    }
                    // Sender-side egress accounting for node-to-node
                    // (ordering) traffic is charged per target before the
                    // fault plan arbitrates delivery.
                    let wire_size = msg.wire_size();
                    let at = now + self.network.local_delay(wire_size);
                    // Digest-mode clients broadcast their requests to
                    // every shim node so replicas can seed the body
                    // caches that digest reconstruction reads from.
                    let client_broadcast = self.system.config.digest_proposals
                        && matches!(msg, ProtocolMessage::ClientRequest(_))
                        && origin.as_node().is_none();
                    match to {
                        Destination::Node(_) if client_broadcast => {
                            for i in 0..self.system.nodes.len() {
                                let dst = self.system.nodes[i].id();
                                self.send_to_node(origin, from, dst, msg.clone(), now, at);
                            }
                        }
                        Destination::AllNodes => {
                            let nodes = self.system.nodes.len();
                            let others = (0..nodes)
                                .filter(|i| ComponentId::Node(self.system.nodes[*i].id()) != origin)
                                .count();
                            self.charge_egress(origin, wire_size * others);
                            for i in 0..nodes {
                                let dst = self.system.nodes[i].id();
                                if ComponentId::Node(dst) != origin {
                                    self.send_to_node(origin, from, dst, msg.clone(), now, at);
                                }
                            }
                        }
                        // One recipient: the message moves into its
                        // delivery.
                        Destination::Node(dst) => {
                            self.charge_egress(origin, wire_size);
                            self.send_to_node(origin, from, dst, msg, now, at);
                        }
                        Destination::Client(c) => {
                            self.push_delivery(at, from, ComponentId::Client(c), msg);
                        }
                        Destination::Executor(e) => {
                            self.push_delivery(at, from, ComponentId::Executor(e), msg);
                        }
                        Destination::Verifier => {
                            self.push_delivery(at, from, ComponentId::Verifier, msg);
                        }
                    }
                }
                Action::StartTimer { timer, duration } => {
                    self.queue.arm(origin, timer, now + duration);
                }
                Action::CancelTimer(timer) => self.queue.cancel(origin, timer),
                Action::Persist { bytes, fsync } => {
                    // WAL writes run on the component's own station and
                    // gate every later action in this list: a synced vote
                    // is durable before its COMMIT leaves the node. A
                    // fault-plan disk-lag straggler stretches the fsync
                    // beyond the CPU model's fixed cost.
                    let lag = match (self.faults.as_mut(), fsync, origin.as_node()) {
                        (Some(faults), true, Some(node)) => faults.fsync_extra(node),
                        _ => SimDuration::ZERO,
                    };
                    let cost = self.cpu.persist_cost(bytes, fsync) + lag;
                    if let Some(station) = self.station_mut(origin) {
                        now = now.max(station.schedule(now, cost));
                    }
                }
                Action::SpawnExecutor { request, execute } => {
                    self.tracer.emit(execute.seq.0, Stage::ExecuteSpawn, now);
                    let spawn_region = request.region;
                    // Issuing the spawn costs CPU at the spawning node (the
                    // invoker signs and ships the request to the provider).
                    let spawn_cost = self.cpu.spawn_cost;
                    let spawn_issue_done = match self.station_mut(origin) {
                        Some(station) => station.schedule(now, spawn_cost),
                        None => now,
                    };
                    match self.system.cloud.spawn(request) {
                        Ok(outcome) => {
                            let spawn_delay = match origin.as_node() {
                                Some(node) => self.system.injector.spawn_delay(node),
                                None => SimDuration::ZERO,
                            };
                            let now = spawn_issue_done;
                            let ship = self
                                .network
                                .region_delay(outcome.region, execute.wire_size());
                            self.queue.push(
                                now + spawn_delay + outcome.cold_start + ship,
                                EventKind::ExecutorRun(Box::new(ExecutorRun {
                                    executor: outcome.executor,
                                    region: outcome.region,
                                    behavior: outcome.behavior,
                                    execute,
                                })),
                            );
                        }
                        Err(_) => {
                            // Rejected; counted at the end of the run from
                            // the cloud's stats. If the cause is a region
                            // outage, the rejection doubles as the reactive
                            // outage signal: the spawning node marks the
                            // region down and probes it again later.
                            if self.system.cloud.region_is_down(spawn_region) {
                                if let Some(node) = origin.as_node() {
                                    let idx = node.0 as usize;
                                    if idx < self.system.nodes.len() {
                                        let mut reactions =
                                            self.system.nodes[idx].on_spawn_rejected(spawn_region);
                                        self.process_actions(
                                            origin,
                                            spawn_issue_done,
                                            &mut reactions,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                Action::TxnCompleted { txn, outcome } => {
                    let client = txn.client;
                    let idx = client.0 as usize;
                    if self.in_window(now) {
                        match outcome {
                            TxnOutcome::Committed => self.metrics.committed_txns += 1,
                            TxnOutcome::Aborted => self.metrics.aborted_txns += 1,
                        }
                        if let Some(submitted) = self.submit_times.get(idx) {
                            self.metrics.latency.record(now.since(*submitted));
                        }
                    }
                    // Closed loop: the client immediately issues its next
                    // request (Section IX, Setup).
                    if now < self.end_time() && idx < self.system.clients.len() {
                        self.submit_next(client, now);
                    }
                }
                Action::BatchCommitted { seq, .. } => {
                    self.tracer.emit(seq.0, Stage::CommitQuorum, now);
                    // The NoShim baseline never sends an ordering message,
                    // so its once-per-batch aggregate client-authentication
                    // check lands at commit time instead.
                    if matches!(
                        self.system.protocol,
                        sbft_core::system::ShimProtocol::NoShim
                    ) {
                        let cost = self.cpu.aggregate_batch_check_cost();
                        if let Some(station) = self.station_mut(origin) {
                            station.schedule(now, cost);
                        }
                    }
                }
            }
        }
        for seq in &apply_seqs {
            self.tracer.emit(seq.0, Stage::ApplyEnd, now);
        }
    }

    fn push_delivery(
        &mut self,
        at: SimTime,
        from: ComponentId,
        to: ComponentId,
        msg: ProtocolMessage,
    ) {
        self.queue.push_delivery(at, Delivery { from, to, msg });
    }

    /// Queues `msg` for shim node `dst`, due at `at` unless the fault plan
    /// says otherwise. The chaos layer arbitrates node-to-node links only
    /// (client, executor and verifier traffic is out of its scope): it
    /// answers with one extra delay per delivered copy, none when the
    /// message is dropped.
    fn send_to_node(
        &mut self,
        origin: ComponentId,
        from: ComponentId,
        dst: NodeId,
        msg: ProtocolMessage,
        now: SimTime,
        at: SimTime,
    ) {
        let to = ComponentId::Node(dst);
        let copies = match (self.faults.as_mut(), origin.as_node()) {
            (Some(faults), Some(src)) => faults.deliveries(src, dst, now),
            _ => return self.push_delivery(at, from, to, msg),
        };
        let Some((last, duplicates)) = copies.split_last() else {
            return;
        };
        for extra in duplicates {
            self.push_delivery(at + *extra, from, to, msg.clone());
        }
        self.push_delivery(at + *last, from, to, msg);
    }

    /// Counts `bytes` a shim node puts on the wire towards other shim
    /// nodes (nothing when `origin` is not one). The leader counter is
    /// what the bandwidth-frugal mode exists to shrink.
    fn charge_egress(&mut self, origin: ComponentId, bytes: usize) {
        let Some(src) = origin.as_node() else {
            return;
        };
        if bytes == 0 {
            return;
        }
        if let Some(egress) = self.node_egress.get(src.0 as usize) {
            egress.add(bytes as u64);
        }
        let is_leader = self
            .system
            .nodes
            .get(src.0 as usize)
            .is_some_and(|n| n.primary() == src);
        if is_leader {
            self.leader_egress.add(bytes as u64);
        }
    }

    /// Emits the batch-release markers: the batch's earliest member
    /// admission (shim ingest), earliest lane enqueue, and the release
    /// itself. The members' admission times are consumed here.
    fn mark_batch_release(&mut self, seq: SeqNum, txn_ids: &[TxnId], now: SimTime) {
        let mut first_arrival: Option<SimTime> = None;
        let mut first_enqueue: Option<SimTime> = None;
        for id in txn_ids {
            if let Some((arrival, enqueued)) = self.ingest_times.remove(id) {
                first_arrival = Some(first_arrival.map_or(arrival, |a| a.min(arrival)));
                first_enqueue = Some(first_enqueue.map_or(enqueued, |e| e.min(enqueued)));
            }
        }
        if let Some(at) = first_arrival {
            self.tracer.emit(seq.0, Stage::ShimIngest, at);
        }
        if let Some(at) = first_enqueue {
            self.tracer.emit(seq.0, Stage::LaneEnqueue, at);
        }
        self.tracer.emit(seq.0, Stage::BatchRelease, now);
    }
}

/// The batches a verifier action list validated, identified by their
/// outcome-bearing sends (response, abort or batch-validated broadcast),
/// deduplicated in first-seen order.
fn validated_batch_seqs(actions: &[Action]) -> Vec<SeqNum> {
    let mut seqs = Vec::new();
    for action in actions {
        let seq = match action {
            Action::Send(Envelope { msg, .. }) => match msg {
                ProtocolMessage::Response(r) => Some(r.seq),
                ProtocolMessage::Abort(a) => Some(a.seq),
                ProtocolMessage::BatchValidated(b) => Some(b.seq),
                _ => None,
            },
            _ => None,
        };
        if let Some(seq) = seq {
            if !seqs.contains(&seq) {
                seqs.push(seq);
            }
        }
    }
    seqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_core::system::ShimProtocol;
    use sbft_core::{ShimAttack, SystemBuilder};
    use sbft_types::{ConflictHandling, SystemConfig};
    use sbft_types::{NodeId, ShardId};

    fn tiny_config() -> SystemConfig {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.workload.num_records = 2_000;
        cfg.workload.batch_size = 10;
        cfg.workload.num_clients = 40;
        cfg.regions = sbft_types::RegionSet::first_n(3);
        cfg
    }

    fn tiny_params() -> SimParams {
        SimParams {
            duration: SimDuration::from_millis(300),
            warmup: SimDuration::from_millis(100),
            num_clients: 40,
            seed: 7,
            ..SimParams::default()
        }
    }

    #[test]
    fn closed_loop_run_commits_transactions_end_to_end() {
        let system = SystemBuilder::new(tiny_config()).clients(40).build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(
            metrics.committed_txns > 50,
            "committed {}",
            metrics.committed_txns
        );
        assert_eq!(metrics.aborted_txns, 0);
        assert_eq!(
            metrics.counter("verifier.divergent_aborts"),
            0,
            "honest executors never diverge"
        );
        assert!(metrics.throughput_tps() > 100.0);
        assert!(metrics.avg_latency_secs() > 0.001);
        assert!(metrics.latency.p99_secs() >= metrics.latency.p50_secs());
        assert!(metrics.executors_spawned > 0);
        assert!(metrics.messages_delivered > 100);
    }

    /// The benchmark's `saturate` point shrunk a hundredfold: one region,
    /// 512 closed-loop clients, and a run of about three commit latencies
    /// (30 ms here), so each client is answered about three times as it
    /// is there. Every answered request leaves a cancelled 2 s client
    /// timer behind: it costs a small entry in the deadline heap until it
    /// is due, but no timer slot, no table entry and no place among the
    /// deliveries.
    #[test]
    fn answered_requests_leave_no_armed_timer_and_a_small_stale_deadline() {
        let mut cfg = tiny_config();
        cfg.regions = sbft_types::RegionSet::home_only();
        let clients = 512;
        let system = SystemBuilder::new(cfg).clients(clients).build();
        let params = SimParams {
            duration: SimDuration::from_millis(100),
            warmup: SimDuration::ZERO,
            num_clients: clients,
            seed: 7,
            ..SimParams::default()
        };
        let mut harness = SimHarness::new(system, params);
        harness.drive();

        let answered = harness.metrics.latency.count();
        assert!(answered > 2 * clients, "answered {answered}");
        // A client's slot is armed exactly while its request is out.
        for (c, role) in harness.system.clients.iter().enumerate() {
            let armed = harness.queue.armed_request(ClientId(c as u32));
            assert_eq!(
                armed.is_some(),
                role.outstanding() == 1,
                "client {c}: timer armed for {armed:?}, {} requests outstanding",
                role.outstanding()
            );
        }

        // `saturate` ends with ~31 k queued events (deliveries in flight,
        // 32 bytes each) and ~195 k client deadlines (3.8 per client,
        // nearly all stale, 24 bytes each): 5.7 MB, 111 bytes of queue per
        // client. Ahead of the deliveries those deadlines made a heap of
        // 226 k; apart, the deliveries (and the per-batch node timers) sift
        // through less than one entry per client.
        let queued = harness.queue.len();
        assert!(queued > 2 * clients, "{queued} entries still queued");
        assert!(
            harness.queue.events_len() < 2 * clients,
            "{} events queued for {clients} clients",
            harness.queue.events_len()
        );
        let queue_bytes = harness.queue.queued_bytes();
        assert!(
            queue_bytes / clients < 160,
            "{queued} queued entries, {queue_bytes} bytes for {clients} clients"
        );
        assert_eq!(harness.into_metrics().aborted_txns, 0);
    }

    #[test]
    fn digest_mode_commits_with_less_leader_egress_than_full_mode() {
        // Bigger batches than `tiny_config` so transaction bodies dominate
        // the PREPREPARE framing — the regime the digest mode targets.
        let run = |digest: bool| {
            let mut cfg = tiny_config();
            cfg.digest_proposals = digest;
            cfg.workload.batch_size = 40;
            cfg.workload.num_clients = 80;
            let system = SystemBuilder::new(cfg).clients(80).build();
            SimHarness::new(
                system,
                SimParams {
                    num_clients: 80,
                    ..tiny_params()
                },
            )
            .run()
        };
        let full = run(false);
        let digest = run(true);
        assert!(
            digest.committed_txns > 50,
            "digest mode makes progress, committed {}",
            digest.committed_txns
        );
        assert_eq!(digest.aborted_txns, 0);
        // The client broadcast keeps replica caches warm, so proposals
        // reconstruct locally instead of shipping bodies.
        assert!(
            digest.sum("digest.cache_hits") > 0,
            "replicas reconstruct from their body caches"
        );
        assert_eq!(
            full.sum("digest.cache_hits"),
            0,
            "full mode never touches a cache"
        );
        // The whole point: the primary ships digests, not bodies.
        let egress = |m: &RunMetrics| m.counter("net.leader_egress_bytes");
        assert!(egress(&full) > 0);
        assert!(
            egress(&digest) * 2 < egress(&full),
            "digest egress {} must be well below full egress {}",
            egress(&digest),
            egress(&full)
        );
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let run = || {
            let system = SystemBuilder::new(tiny_config()).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        // Every latency sample, through the histogram's only readers: a
        // sample in another bucket moves some permille, the sum or the max.
        let latencies = |m: &RunMetrics| -> Vec<u64> {
            let h = m.latency.histogram();
            (0..=1_000)
                .map(|permille| h.percentile_us(f64::from(permille) / 1_000.0))
                .chain([h.count(), h.sum_us(), h.max_us()])
                .collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a.registry().render(), b.registry().render());
        assert_eq!(latencies(&a), latencies(&b));
        assert!(a.latency.count() > 50);
        assert_eq!(
            (a.committed_txns, a.messages_delivered, a.end_time),
            (b.committed_txns, b.messages_delivered, b.end_time)
        );
    }

    #[test]
    fn more_clients_do_not_reduce_throughput() {
        let few = {
            let system = SystemBuilder::new(tiny_config()).clients(10).build();
            SimHarness::new(
                system,
                SimParams {
                    num_clients: 10,
                    ..tiny_params()
                },
            )
            .run()
        };
        let many = {
            let system = SystemBuilder::new(tiny_config()).clients(80).build();
            SimHarness::new(
                system,
                SimParams {
                    num_clients: 80,
                    ..tiny_params()
                },
            )
            .run()
        };
        assert!(many.throughput_tps() >= few.throughput_tps() * 0.9);
        assert!(many.avg_latency_secs() >= few.avg_latency_secs() * 0.9);
    }

    #[test]
    fn cft_and_noshim_baselines_run_and_outperform_bft() {
        let bft = {
            let system = SystemBuilder::new(tiny_config()).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let cft = {
            let system = SystemBuilder::new(tiny_config())
                .protocol(ShimProtocol::Cft)
                .clients(40)
                .build();
            SimHarness::new(system, tiny_params()).run()
        };
        let noshim = {
            let system = SystemBuilder::new(tiny_config())
                .protocol(ShimProtocol::NoShim)
                .clients(40)
                .build();
            SimHarness::new(system, tiny_params()).run()
        };
        assert!(cft.committed_txns > 0);
        assert!(noshim.committed_txns > 0);
        assert!(
            noshim.throughput_tps() >= bft.throughput_tps(),
            "NoShim {} vs BFT {}",
            noshim.throughput_tps(),
            bft.throughput_tps()
        );
        assert!(
            cft.throughput_tps() >= bft.throughput_tps() * 0.9,
            "CFT {} vs BFT {}",
            cft.throughput_tps(),
            bft.throughput_tps()
        );
    }

    #[test]
    fn byzantine_executors_do_not_block_progress() {
        use sbft_serverless::cloud::CloudFaultPlan;
        let system = SystemBuilder::new(tiny_config())
            .clients(40)
            .cloud_faults(CloudFaultPlan {
                byzantine_per_batch: 1,
                behavior: ExecutorBehavior::WrongResult,
            })
            .build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(
            metrics.committed_txns > 50,
            "committed {}",
            metrics.committed_txns
        );
    }

    #[test]
    fn crashing_executors_within_fe_do_not_block_progress() {
        use sbft_serverless::cloud::CloudFaultPlan;
        let system = SystemBuilder::new(tiny_config())
            .clients(40)
            .cloud_faults(CloudFaultPlan {
                byzantine_per_batch: 1,
                behavior: ExecutorBehavior::Crash,
            })
            .build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(metrics.committed_txns > 0);
    }

    #[test]
    fn suppressing_primary_is_replaced_and_progress_resumes() {
        let mut cfg = tiny_config();
        // Shorter timers so the recovery fits in the simulated window.
        cfg.timers.client_timeout = SimDuration::from_millis(40);
        cfg.timers.node_timeout = SimDuration::from_millis(30);
        cfg.timers.retransmit_timeout = SimDuration::from_millis(30);
        let system = SystemBuilder::new(cfg)
            .clients(40)
            .attack(NodeId(0), ShimAttack::SuppressRequests)
            .build();
        let params = SimParams {
            duration: SimDuration::from_millis(600),
            warmup: SimDuration::from_millis(50),
            num_clients: 40,
            seed: 3,
            ..SimParams::default()
        };
        let metrics = SimHarness::new(system, params).run();
        assert!(
            metrics.committed_txns > 0,
            "the shim must recover from a suppressing primary"
        );
    }

    #[test]
    fn conflicting_workload_aborts_some_transactions() {
        let mut cfg = tiny_config();
        cfg.conflict_handling = ConflictHandling::UnknownRwSets;
        cfg.workload.conflict_fraction = 0.5;
        let system = SystemBuilder::new(cfg).clients(40).build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(metrics.committed_txns > 0);
        assert!(
            metrics.aborted_txns > 0,
            "50% conflicts with unknown rw-sets must cause aborts"
        );
    }

    #[test]
    fn shard_count_scales_a_ccheck_bound_verifier() {
        // Make the per-transaction ccheck expensive enough that the shard
        // stations are the bottleneck, then check that adding shards
        // raises committed throughput (Figure 6(ix)-style core scaling,
        // applied to the sharded commit path).
        let run = |shards: usize| {
            let mut cfg = tiny_config();
            cfg.workload.num_clients = 240;
            cfg.sharding = sbft_types::ShardingConfig::with_shards(shards);
            let system = SystemBuilder::new(cfg).clients(240).build();
            let cpu = CpuModel {
                storage_access_cost: SimDuration::from_micros(400),
                ..CpuModel::default()
            };
            SimHarness::with_models(
                system,
                SimParams {
                    num_clients: 240,
                    ..tiny_params()
                },
                crate::network::NetworkModel::default(),
                cpu,
            )
            .run()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four.committed_txns as f64 >= one.committed_txns as f64 * 1.5,
            "4 shards ({}) must clearly beat 1 shard ({})",
            four.committed_txns,
            one.committed_txns
        );
    }

    #[test]
    fn chained_cchecks_climb_the_lock_ordered_staircase() {
        // Cross-shard (`chained`) ccheck slices model the lock-ordered
        // two-phase acquisition: shard i+1 starts only after shard i
        // grants, so completions form a strict staircase. Single-home
        // (unchained) slices keep running in parallel from arrival.
        let mk_harness = || {
            let system = SystemBuilder::new({
                let mut c = tiny_config();
                c.sharding = sbft_types::ShardingConfig::with_shards(4);
                c
            })
            .clients(4)
            .build();
            SimHarness::new(system, tiny_params())
        };
        let slice = |shard: u32, chained: bool| Action::ShardCcheck {
            shard: ShardId(shard),
            txns: 1,
            accesses: 10,
            planned: false,
            chained,
        };
        let probe = |h: &mut SimHarness| -> Vec<SimTime> {
            h.shard_stations
                .iter_mut()
                .map(|s| s.schedule(SimTime::ZERO, SimDuration::ZERO))
                .collect()
        };
        let cost = CpuModel::default().ccheck_cost_probed(1, 10);

        let mut chained = mk_harness();
        chained.process_actions(
            ComponentId::Verifier,
            SimTime::ZERO,
            &mut vec![slice(0, true), slice(1, true), slice(2, true)],
        );
        let steps = probe(&mut chained);
        assert_eq!(steps[0], SimTime::ZERO + cost, "first lock from arrival");
        assert_eq!(
            steps[1],
            SimTime::ZERO + cost + cost,
            "shard 1 starts after shard 0 grants"
        );
        assert_eq!(steps[2], SimTime::ZERO + cost + cost + cost);

        let mut parallel = mk_harness();
        parallel.process_actions(
            ComponentId::Verifier,
            SimTime::ZERO,
            &mut vec![slice(0, false), slice(1, false), slice(2, false)],
        );
        let flat = probe(&mut parallel);
        for done in &flat[..3] {
            assert_eq!(*done, SimTime::ZERO + cost, "unchained slices overlap");
        }
    }

    #[test]
    fn cross_shard_batches_pay_the_staircase_in_commit_latency() {
        // Metrics-level staircase: the same key-disjoint workload, once
        // as single-home transactions and once as 2-key cross-home
        // transactions over geo-unaware shards. With an expensive ccheck
        // the cross-home run's mean commit latency must carry the
        // serialised (chained) shard acquisitions instead of the
        // parallel charge.
        let run = |ops_per_txn: usize| {
            let mut cfg = tiny_config();
            cfg.workload.num_clients = 60;
            cfg.workload.ops_per_txn = ops_per_txn;
            cfg.sharding = sbft_types::ShardingConfig::with_shards(4);
            let system = SystemBuilder::new(cfg).clients(60).build();
            let cpu = CpuModel {
                storage_access_cost: SimDuration::from_micros(600),
                ..CpuModel::default()
            };
            SimHarness::with_models(
                system,
                SimParams {
                    num_clients: 60,
                    ..tiny_params()
                },
                crate::network::NetworkModel::default(),
                cpu,
            )
            .run()
        };
        let single = run(1);
        let cross = run(2);
        assert!(single.committed_txns > 0 && cross.committed_txns > 0);
        assert!(
            cross.avg_latency_secs() > single.avg_latency_secs() * 1.5,
            "lock-ordered chaining must show up in latency: cross {} vs single {}",
            cross.avg_latency_secs(),
            single.avg_latency_secs()
        );
    }

    #[test]
    fn geo_partitioning_charges_remote_fetches_and_pinning_removes_them() {
        // Plan-aware placement end to end in the simulator: same
        // single-home workload over geo-partitioned storage, once with
        // the invoker pinning SingleHome batches to their home region
        // and once with the round-robin baseline. Pinning must (a)
        // actually pin, (b) drive the remote-fetch rate down, and (c)
        // not raise the mean commit latency.
        let run = |pinned: bool| {
            let mut cfg = tiny_config();
            cfg.conflict_handling = ConflictHandling::KnownRwSets;
            cfg.regions = sbft_types::RegionSet::first_n(3);
            cfg.sharding = sbft_types::ShardingConfig::with_shards(6)
                .with_geo_partitioning()
                .with_pinned_placement(pinned);
            let system = SystemBuilder::new(cfg).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let pinned = run(true);
        let rr = run(false);
        assert!(pinned.committed_txns > 0 && rr.committed_txns > 0);
        assert!(
            pinned.sum("invoker.pinned_spawns") > 0,
            "SingleHome batches must pin"
        );
        assert_eq!(
            rr.sum("invoker.pinned_spawns"),
            0,
            "the baseline never pins"
        );
        assert!(
            pinned.remote_fetch_rate() < rr.remote_fetch_rate(),
            "pinning must cut cross-region fetches: {} vs {}",
            pinned.remote_fetch_rate(),
            rr.remote_fetch_rate()
        );
        assert!(
            pinned.avg_latency_secs() <= rr.avg_latency_secs(),
            "pinned placement must not be slower: {} vs {}",
            pinned.avg_latency_secs(),
            rr.avg_latency_secs()
        );
    }

    #[test]
    fn crash_restarted_backup_replays_its_wal_and_liveness_degrades_gracefully() {
        let mut cfg = tiny_config();
        // A wide snapshot interval keeps replayable entries in the log at
        // the crash point (truncation itself is pinned by
        // `snapshots_truncate_the_wal_during_a_run`).
        cfg.durability = sbft_types::DurabilityConfig::enabled().with_snapshot_interval(1_000);
        let baseline = {
            let system = SystemBuilder::new(cfg.clone()).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let crashed = {
            let system = SystemBuilder::new(cfg.clone()).clients(40).build();
            SimHarness::new(system, tiny_params())
                .with_fault_plan(FaultPlan::new().crash(CrashRestart::of(
                    NodeId(2),
                    SimDuration::from_millis(150),
                    SimDuration::from_millis(60),
                )))
                .run()
        };
        assert!(
            baseline.sum("durability.wal_appends") > 0,
            "durability logs protocol steps"
        );
        assert_eq!(baseline.counter("recovery.recoveries"), 0);
        assert_eq!(crashed.counter("recovery.recoveries"), 1);
        assert!(
            crashed.sum("durability.replay_batches") > 0,
            "the restarted backup replays committed batches from its WAL"
        );
        assert!(
            crashed.sum("durability.state_transfer_batches") > 0,
            "the suffix committed while the node was dark is state-transferred"
        );
        // One crashed backup must not stop the shim (quorum of 3 remains),
        // and throughput degrades gracefully rather than collapsing.
        assert!(
            crashed.committed_txns as f64 > baseline.committed_txns as f64 * 0.5,
            "crashed {} vs baseline {}",
            crashed.committed_txns,
            baseline.committed_txns
        );
    }

    #[test]
    fn snapshots_truncate_the_wal_during_a_run() {
        let mut cfg = tiny_config();
        cfg.durability = sbft_types::DurabilityConfig::enabled().with_snapshot_interval(4);
        let system = SystemBuilder::new(cfg).clients(40).build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(metrics.committed_txns > 0);
        assert!(
            metrics.sum("durability.snapshot_bytes") > 0,
            "the snapshot rhythm reclaims log bytes"
        );
    }

    #[test]
    fn crash_restarting_the_primary_is_survivable() {
        let mut cfg = tiny_config();
        cfg.durability = sbft_types::DurabilityConfig::enabled();
        cfg.timers.client_timeout = SimDuration::from_millis(40);
        cfg.timers.node_timeout = SimDuration::from_millis(30);
        cfg.timers.retransmit_timeout = SimDuration::from_millis(30);
        let system = SystemBuilder::new(cfg).clients(40).build();
        let params = SimParams {
            duration: SimDuration::from_millis(600),
            warmup: SimDuration::from_millis(50),
            num_clients: 40,
            seed: 3,
            ..SimParams::default()
        };
        let metrics = SimHarness::new(system, params)
            .with_fault_plan(FaultPlan::new().crash(CrashRestart::of(
                NodeId(0),
                SimDuration::from_millis(120),
                SimDuration::from_millis(80),
            )))
            .run();
        assert_eq!(metrics.counter("recovery.recoveries"), 1);
        assert!(
            metrics.committed_txns > 0,
            "the shim must replace the crashed primary and keep committing"
        );
    }

    #[test]
    fn durability_costs_bound_the_fsync_tax() {
        // The fsync-aware cost axis: a durable run pays for its synced
        // WAL writes, so it can never commit more than the identical run
        // without durability.
        let plain = {
            let system = SystemBuilder::new(tiny_config()).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        let durable = {
            let mut cfg = tiny_config();
            cfg.durability = sbft_types::DurabilityConfig::enabled();
            let system = SystemBuilder::new(cfg).clients(40).build();
            SimHarness::new(system, tiny_params()).run()
        };
        assert!(durable.committed_txns > 0);
        assert!(
            durable.committed_txns <= plain.committed_txns,
            "durable {} vs plain {}",
            durable.committed_txns,
            plain.committed_txns
        );
    }

    #[test]
    fn concurrency_limit_rejections_are_counted() {
        let system = SystemBuilder::new(tiny_config())
            .clients(40)
            .cloud_concurrency_limit(2)
            .build();
        let metrics = SimHarness::new(system, tiny_params()).run();
        assert!(metrics.spawns_rejected > 0);
    }
}
