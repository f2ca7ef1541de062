//! The registry's name set is the documented one, and a crash-restarted
//! replica keeps counting into the names it had.
//!
//! One durable, digest-mode, geo-partitioned simulated run under a fault
//! plan (lossy links around node 3, three crash-restarts) registers every
//! name a simulated deployment can. The set must equal the table "Names a
//! simulated run registers" of `OBSERVABILITY.md`, `<node>` expanded over
//! the shim, in both directions. The PBFT replica's own counters
//! (`shim.<n>.faults.*`, `shim.<n>.digest.*`) are read at each restart and
//! again at the end: the rebuilt replica re-attaches to them by name, so
//! both families keep growing.

use serverless_bft::core::SystemBuilder;
use serverless_bft::serverless::CrashRestart;
use serverless_bft::sim::{FaultPlan, LinkFaults, SimHarness, SimParams};
use serverless_bft::telemetry::{Metric, Registry, SpanEvent, Stage, TraceSink};
use serverless_bft::types::{
    ConflictHandling, DurabilityConfig, NodeId, RegionSet, ShardingConfig, SimDuration,
    SystemConfig,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const NODES: u32 = 4;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// `(faults, digest)`: the sums of `node`'s two replica counter families.
fn replica_totals(registry: &Registry, node: u64) -> (u64, u64) {
    let total = |family: &str| {
        let prefix = format!("shim.{node}.{family}.");
        let counters = registry.snapshot().into_iter();
        counters
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, metric)| match metric {
                Metric::Counter(c) => c.get(),
                _ => 0,
            })
            .sum()
    };
    (total("faults"), total("digest"))
}

/// Reads a restarting node's totals at its `recover` marker, which the
/// harness emits after the restart and before the rebuilt replica's
/// first action.
struct AtRestart {
    registry: Arc<Registry>,
    seen: Mutex<Vec<(u64, (u64, u64))>>,
}

impl TraceSink for AtRestart {
    fn record(&self, event: SpanEvent) {
        if event.stage == Stage::Recover {
            let totals = replica_totals(&self.registry, event.trace);
            self.seen
                .lock()
                .expect("sink poisoned")
                .push((event.trace, totals));
        }
    }
}

/// The names of the "simulated run" table, `<node>` expanded.
fn documented_names() -> BTreeSet<String> {
    let doc = include_str!("../OBSERVABILITY.md");
    let (_, table) = doc
        .split_once("### Names a simulated run registers")
        .expect("the simulated-run table's heading");
    let (table, _) = table.split_once("\n### ").expect("a following section");
    let rows = table.lines().filter_map(|line| {
        let (name, _) = line.strip_prefix("| `")?.split_once('`')?;
        Some(name)
    });
    rows.flat_map(|name| (0..NODES).map(move |node| name.replace("<node>", &node.to_string())))
        .collect()
}

#[test]
fn registry_names_match_the_documented_table_and_survive_a_restart() {
    let mut cfg = SystemConfig::with_shim_size(NODES as usize);
    cfg.workload.num_records = 2_000;
    cfg.workload.batch_size = 100;
    cfg.regions = RegionSet::first_n(3);
    cfg.digest_proposals = true;
    cfg.durability = DurabilityConfig::enabled().with_snapshot_interval(4);
    cfg.conflict_handling = ConflictHandling::KnownRwSets;
    cfg.sharding = ShardingConfig::with_shards(6).with_geo_partitioning();
    cfg.timers.client_timeout = ms(60);
    cfg.timers.node_timeout = ms(40);
    cfg.timers.retransmit_timeout = ms(40);
    let params = SimParams {
        duration: ms(600),
        warmup: ms(100),
        num_clients: 300,
        seed: 5,
        ..SimParams::default()
    };
    // Short dark windows leave requests the restarted node never heard in
    // proposals it must still vote on: cold-cache misses and fetches.
    let plan = FaultPlan::new()
        .lossy_node(NodeId(3), LinkFaults::lossy(0.2).with_duplicate(0.05))
        .crash(CrashRestart::of(NodeId(2), ms(150), ms(3)))
        .crash(CrashRestart::of(NodeId(1), ms(300), ms(2)))
        .crash(CrashRestart::of(NodeId(3), ms(170), ms(60)));

    let system = SystemBuilder::new(cfg).clients(300).build();
    let sink = Arc::new(AtRestart {
        registry: Arc::clone(&system.registry),
        seen: Mutex::new(Vec::new()),
    });
    let metrics = SimHarness::new(system, params)
        .with_fault_plan(plan)
        .with_tracer(Arc::clone(&sink) as _)
        .run();
    assert!(metrics.committed_txns > 0);

    let snapshot = metrics.registry().snapshot();
    let registered: BTreeSet<String> = snapshot.into_iter().map(|(name, _)| name).collect();
    let documented = documented_names();
    let undocumented: Vec<_> = registered.difference(&documented).collect();
    let gone: Vec<_> = documented.difference(&registered).collect();
    assert!(
        undocumented.is_empty() && gone.is_empty(),
        "OBSERVABILITY.md lacks {undocumented:?}; the registry lacks {gone:?}"
    );

    let at_restart = sink.seen.lock().expect("sink poisoned");
    assert_eq!(at_restart.len(), 3, "one recover marker per restart");
    for (node, (faults_before, digest_before)) in at_restart.iter() {
        let (faults, digest) = replica_totals(metrics.registry(), *node);
        assert!(
            *digest_before > 0 && digest > *digest_before,
            "shim.{node}.digest.*: {digest_before} at the restart, {digest} at the end"
        );
        assert!(
            faults > *faults_before,
            "shim.{node}.faults.*: {faults_before} at the restart, {faults} at the end"
        );
    }
}
