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
use crate::queue::{EventQueue, Fired, Popped};
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
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// The queue holds one of these in a node of its slab, the node type a
/// message in flight — the common entry — is held inline in too
/// ([`EventQueue::push_delivery`]). A node is as large as its largest
/// entry, so an executor run (a few per batch) is boxed.
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
    /// The verifier's apply thread: every matched batch's `ccheck` work
    /// is charged here, one batch after the other, whatever the shard
    /// count.
    apply_station: ServiceStation,
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
    /// When each executor that still holds a cloud concurrency slot
    /// finishes its batch ([`Self::release_finished`]).
    running: BinaryHeap<Reverse<(SimTime, ExecutorId)>>,
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
            apply_station: ServiceStation::new(1),
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
            running: BinaryHeap::new(),
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
        self.seed();
        while let Some(popped) = self.next_due() {
            self.fire(popped);
        }
    }

    /// Queues the run's opening events: every client's first request, the
    /// batch ticks and the fault plan's crash-restarts.
    fn seed(&mut self) {
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
    }

    /// The next event of the run, or `None` once the run is over.
    fn next_due(&mut self) -> Option<Popped> {
        let hard_end = self.end_time() + SimDuration::from_millis(50);
        let popped = self.queue.pop()?;
        (popped.time <= hard_end && self.events_processed < self.params.max_events)
            .then_some(popped)
    }

    /// Advances the clock to a popped event and processes it.
    fn fire(&mut self, popped: Popped) {
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
                if let ProtocolMessage::Response(answer) | ProtocolMessage::Abort(answer) = &msg {
                    self.tracer.emit(answer.seq.0, Stage::Respond, now);
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
        self.running.push(Reverse((finished_at, executor)));
    }

    /// Hands the cloud back the concurrency slot of every executor that
    /// has finished by `now`. The cloud reads its slot count only when it
    /// decides a spawn, so releasing just before each decision is exact,
    /// and it adds no event to the queue (a queued release would move the
    /// run's last event time, which the machine cost is billed on).
    fn release_finished(&mut self, now: SimTime) {
        while let Some(Reverse((finished_at, executor))) = self.running.peek().copied() {
            if finished_at > now {
                break;
            }
            self.running.pop();
            self.system.cloud.release(executor);
        }
    }

    /// Interprets (and drains) a role's action list.
    fn process_actions(&mut self, origin: ComponentId, now: SimTime, actions: &mut Vec<Action>) {
        // The verifier's `ccheck` work announced in this action list gates
        // the sends that follow it: a validated batch's responses leave
        // only once the apply station has finished its validate-and-apply
        // work. One quorum-completing VERIFY can release several queued
        // batches (ordered apply): each one's traced apply starts at
        // `arrival` and ends when its own `BatchValidated` leaves.
        let arrival = now;
        let mut now = now;
        for action in actions.drain(..) {
            match action {
                Action::Ccheck { accesses } => {
                    let cost = self.cpu.ccheck_cost(accesses as usize);
                    now = self.apply_station.schedule(now, cost);
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
                    if let ProtocolMessage::BatchValidated(b) = &msg {
                        self.tracer.emit(b.seq.0, Stage::ApplyStart, arrival);
                        self.tracer.emit(b.seq.0, Stage::ApplyEnd, now);
                    }
                    // Sender-side egress accounting for node-to-node
                    // (ordering) traffic is charged per target before the
                    // fault plan arbitrates delivery.
                    let wire_size = msg.wire_size();
                    let at = now + self.network.local_delay(wire_size);
                    match to {
                        Destination::Node(_) | Destination::AllNodes => {
                            let mut targets = to.nodes(origin, self.system.nodes.len());
                            self.charge_egress(origin, wire_size * targets.clone().count());
                            // The last recipient takes the message itself.
                            if let Some(last) = targets.next_back() {
                                for dst in targets {
                                    self.send_to_node(origin, from, dst, msg.clone(), now, at);
                                }
                                self.send_to_node(origin, from, last, msg, now, at);
                            }
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
                    self.release_finished(now);
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

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_core::events::BatchValidated;
    use sbft_core::system::ShimProtocol;
    use sbft_core::{ShimAttack, SystemBuilder};
    use sbft_telemetry::MemorySink;
    use sbft_types::NodeId;
    use sbft_types::{ConflictHandling, SystemConfig};

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
    /// is there. An answered request's cancelled 2 s client timer costs
    /// no place among the deliveries, and its deadline, like a cancelled
    /// node or verifier timer's, goes at the next arming that finds the
    /// heap past two deadlines per slot of the armed-timer table.
    #[test]
    fn answered_requests_leave_no_armed_timer_and_few_stale_deadlines() {
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
        harness.seed();
        // Every 64th pop, the runs queued and the entries they hold.
        let (mut runs, mut entries) = (0, 0);
        while let Some(popped) = harness.next_due() {
            harness.fire(popped);
            if harness.events_processed.is_multiple_of(64) {
                let (r, e) = harness.queue.runs();
                runs += r;
                entries += e;
            }
        }
        // Deliveries due at one instant share a run: 5.8 entries a run
        // here (on `saturate`, 30.3 k entries in 960 runs on average). One
        // run per entry would put every entry back through the heap.
        assert!(
            entries >= 4 * runs,
            "{entries} entries queued in {runs} runs, summed over the samples"
        );

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

        // On `saturate` the queue holds, on average, 30.3 k entries in
        // 960 runs (51.2 k entries at most, 176 bytes a node) and the
        // deadlines of every owner (24 bytes each, at most two per slot of
        // the table plus 16). Here the run ends with 1 026 deadlines in
        // reach of a bound of 1 448 (716 slots: 512 clients' and 204 handed
        // out by the index), and the slab has grown to 638 nodes: 267 bytes
        // of queue per client. A queue that kept cancelled node and
        // verifier timers until due ended with 827 of them on top of 988
        // client deadlines (291 bytes per client).
        let queued = harness.queue.len();
        let (_, entries) = harness.queue.runs();
        assert!(
            entries < 2 * clients,
            "{entries} entries queued in runs for {clients} clients"
        );
        let deadlines = queued - entries;
        assert!(deadlines > clients, "{deadlines} deadlines queued");
        assert!(
            deadlines <= harness.queue.deadline_bound(),
            "{deadlines} client, node and verifier deadlines queued for {clients} clients"
        );
        let queue_bytes = harness.queue.queued_bytes();
        assert!(
            queue_bytes / clients <= 275,
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
        // Whatever body its proposals carry, the attacker's are dropped,
        // the backups replace it and commits resume in the new view.
        for digest_proposals in [false, true] {
            let mut cfg = tiny_config();
            cfg.digest_proposals = digest_proposals;
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
            // Requests reach the next view's primary only through the
            // verifier's `ERROR`s once their clients time out: the attacker
            // ordered none of them.
            assert!(
                metrics.sum("errors_reforwarded") > 0,
                "the attacker's proposals must be dropped and it replaced (digest proposals: {digest_proposals})"
            );
            assert!(
                metrics.committed_txns > 0,
                "the shim must recover from a suppressing primary (digest proposals: {digest_proposals})"
            );
        }
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

    /// A harness over `shards` shards whose trace lands in the sink.
    fn traced_harness(shards: usize) -> (SimHarness, std::sync::Arc<MemorySink>) {
        let mut cfg = tiny_config();
        cfg.sharding = sbft_types::ShardingConfig::with_shards(shards);
        let system = SystemBuilder::new(cfg).clients(4).build();
        let sink = std::sync::Arc::new(MemorySink::new());
        let harness = SimHarness::new(system, tiny_params())
            .with_tracer(std::sync::Arc::clone(&sink) as std::sync::Arc<dyn TraceSink>);
        (harness, sink)
    }

    /// One applied batch as `h`'s verifier's action list carries it: the
    /// announced `ccheck`, then the notice to the nodes.
    fn applied_batch(h: &SimHarness, seq: u64, accesses: u32) -> [Action; 2] {
        let verifier = h.system.provider.handle(ComponentId::Verifier);
        let notice =
            ProtocolMessage::BatchValidated(BatchValidated::signed(SeqNum(seq), 1, 0, &verifier));
        [
            Action::Ccheck { accesses },
            Action::send(ComponentId::Verifier, Destination::AllNodes, notice),
        ]
    }

    /// Every batch's `apply_end` marker, by sequence number.
    fn apply_ends(sink: &MemorySink) -> Vec<(u64, SimTime)> {
        sink.events()
            .iter()
            .filter(|e| e.stage == Stage::ApplyEnd)
            .map(|e| (e.trace, e.at))
            .collect()
    }

    #[test]
    fn back_to_back_batches_queue_on_the_one_apply_station() {
        // Two batches whose VERIFY quorums complete at the same instant:
        // the verifier applies them one after the other on its own
        // thread, whatever the shard count.
        let cost = CpuModel::default().ccheck_cost(10);
        let arrival = SimTime::from_micros(500);
        for shards in [1, 8] {
            let (mut h, sink) = traced_harness(shards);
            for seq in [1, 2] {
                let mut actions = Vec::from(applied_batch(&h, seq, 10));
                h.process_actions(ComponentId::Verifier, arrival, &mut actions);
            }
            assert_eq!(
                apply_ends(&sink),
                vec![(1, arrival + cost), (2, arrival + cost + cost)],
                "{shards} shards"
            );
        }
    }

    #[test]
    fn each_batch_of_one_action_list_ends_its_apply_at_its_own_completion() {
        // Ordered apply releases two batches in one list: the first one's
        // responses leave after its own ccheck, so its apply ends there,
        // not at the list's last completion.
        let cpu = CpuModel::default();
        let arrival = SimTime::from_micros(500);
        let (mut h, sink) = traced_harness(1);
        let mut actions: Vec<Action> = applied_batch(&h, 1, 10)
            .into_iter()
            .chain(applied_batch(&h, 2, 30))
            .collect();
        h.process_actions(ComponentId::Verifier, arrival, &mut actions);
        let first = arrival + cpu.ccheck_cost(10);
        assert_eq!(
            apply_ends(&sink),
            vec![(1, first), (2, first + cpu.ccheck_cost(30))]
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
    fn surplus_executors_form_the_quorum_in_the_home_region() {
        // Undeclared read-write sets spawn 3f_E + 1 = 4 executors over
        // three regions: one full round and one surplus executor, which
        // goes to the verifier's region on every batch. The f_E + 1
        // quorum is then two executors that start together one hop from
        // the verifier, so no commit waits for an Oregon round trip on
        // top of the cold start.
        let mut cfg = tiny_config();
        cfg.conflict_handling = ConflictHandling::UnknownRwSets;
        assert_eq!(cfg.executors_per_batch(), 4);
        let system = SystemBuilder::new(cfg).clients(40).build();
        let mut harness = SimHarness::new(system, tiny_params());
        harness.seed();
        let mut spawned: std::collections::BTreeMap<SeqNum, (SimTime, Vec<Region>)> =
            std::collections::BTreeMap::new();
        while let Some(popped) = harness.next_due() {
            if let Fired::Event(EventKind::ExecutorRun(run)) = &popped.fired {
                spawned
                    .entry(run.execute.seq)
                    .or_insert((popped.time, Vec::new()))
                    .1
                    .push(run.region);
            }
            harness.fire(popped);
        }
        // A batch whose first executor ran before the window closed has
        // had all of its executors run by the end of the run.
        let end = harness.end_time();
        let batches: Vec<_> = spawned.iter().filter(|(_, (t, _))| *t < end).collect();
        assert!(batches.len() > 10, "{} batches", batches.len());
        for (seq, (_, regions)) in batches {
            let home = regions
                .iter()
                .filter(|r| **r == Region::NorthCalifornia)
                .count();
            assert_eq!((regions.len(), home), (4, 2), "{seq:?}: {regions:?}");
        }
        let metrics = harness.into_metrics();
        let oregon_round_trip = 2_000 * Region::Oregon.one_way_latency_ms_from_home() as u64;
        let bound = sbft_serverless::cloud::DEFAULT_COLD_START.as_micros() + oregon_round_trip;
        assert!(metrics.committed_txns > 50);
        assert!(
            metrics.latency.histogram().max_us() < bound,
            "longest commit {} µs, bound {bound} µs",
            metrics.latency.histogram().max_us()
        );
    }

    #[test]
    fn an_executor_holds_its_concurrency_slot_until_it_finishes() {
        // One batch of ten 10 ms transactions: its three executors start
        // together after the cold start and execute for 100 ms. The cap is
        // three, so while they execute the cloud has no slot to give.
        let mut cfg = tiny_config();
        cfg.regions = sbft_types::RegionSet::home_only();
        cfg.workload.execution_cost = SimDuration::from_millis(10);
        let system = SystemBuilder::new(cfg)
            .clients(10)
            .cloud_concurrency_limit(3)
            .build();
        let params = SimParams {
            num_clients: 10,
            ..tiny_params()
        };
        let mut harness = SimHarness::new(system, params);
        harness.seed();
        let mut started = 0;
        while started < 3 {
            let popped = harness.next_due().expect("the batch is spawned");
            if matches!(popped.fired, Fired::Event(EventKind::ExecutorRun(_))) {
                started += 1;
            }
            harness.fire(popped);
        }
        let probe = sbft_serverless::SpawnRequest {
            spawner: NodeId(0),
            region: Region::NorthCalifornia,
            seq: SeqNum(1_000),
        };
        let executing = harness.clock + SimDuration::from_millis(50);
        harness.release_finished(executing);
        assert!(
            harness.system.cloud.spawn(probe).is_err(),
            "an executing executor holds its slot"
        );
        let finished = harness.clock + SimDuration::from_millis(150);
        harness.release_finished(finished);
        assert!(
            harness.system.cloud.spawn(probe).is_ok(),
            "a finished executor hands its slot back"
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
