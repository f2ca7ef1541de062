//! Shared experiment plumbing for the figure-regeneration binaries.
//!
//! The paper runs every experiment for 180 s on OCI machines with up to
//! 88 k clients. The reproduction runs on a virtual-time simulator, so each
//! data point uses a scaled-down but *shape-preserving* setup: a few
//! hundred milliseconds of simulated time and a client population scaled by
//! roughly 1:100 (88 k clients become a few hundred; record counts and
//! batch sizes keep the paper's values where a sweep does not vary them).
//! Relative comparisons — who wins, by how much, where curves bend — are
//! what the binaries report.
//!
//! Every binary prints through [`run_sweep`]: one list of column names
//! ([`FIGURE_COLUMNS`] for the figures) gives the CSV header and every
//! row, a column being a harness figure or a registry counter name, and
//! each smoke sweep (`chaos_points`, `recovery_points`, …) asserts its
//! invariants on the returned results by the same names
//! ([`PointResult::value`]), so a broken invariant exits non-zero.

use sbft_core::system::ShimProtocol;
use sbft_core::{ShimAttack, SystemBuilder};
use sbft_serverless::cloud::CloudFaultPlan;
use sbft_serverless::{CostModel, CrashRestart};
use sbft_sim::{
    CpuModel, DiskLag, FaultPlan, LinkFaults, LinkRule, NetworkModel, RunMetrics, SimHarness,
    SimParams,
};
use sbft_types::{NodeId, SimDuration, SystemConfig};

/// One data point of an experiment.
#[derive(Clone, Debug)]
pub struct PointConfig {
    /// Figure identifier ("fig5", "fig6i", …), used in the output rows.
    pub figure: &'static str,
    /// Series label (e.g. "SERVBFT-8", "PBFT", "NOSHIM").
    pub series: String,
    /// The swept x value (number of clients, executors, batch size, …).
    pub x: f64,
    /// System configuration for this point.
    pub config: SystemConfig,
    /// Shim protocol for this point.
    pub protocol: ShimProtocol,
    /// Number of active closed-loop clients.
    pub clients: usize,
    /// Measured window of simulated time.
    pub duration: SimDuration,
    /// Warm-up excluded from measurement.
    pub warmup: SimDuration,
    /// Attacks injected at shim nodes.
    pub attacks: Vec<(NodeId, ShimAttack)>,
    /// Byzantine executors per batch at the cloud.
    pub cloud_faults: CloudFaultPlan,
    /// Workload seed.
    pub seed: u64,
    /// `Some(k)`: all execution happens on the edge with `k` execution
    /// threads (the Figure 8 `PBFT-k-ET` baselines); `None`: serverless.
    pub edge_execution_threads: Option<usize>,
    /// Whether serverless invocations are billed (off for edge-only runs).
    pub bill_serverless: bool,
    /// Overrides the simulator's CPU cost model (`None`: defaults). Used
    /// by experiments that shift the bottleneck, e.g. `fig6_shards` makes
    /// storage accesses expensive so the sharded commit path dominates.
    pub cpu: Option<CpuModel>,
    /// When set, keys are drawn Zipfian with this exponent (the skew
    /// axis of the `planner_points` sweep).
    pub zipf_theta: Option<f64>,
    /// When set, the composed fault plan (link loss/duplication/delay,
    /// directed partitions, disk-lag stragglers, multi-node crashes)
    /// applied to the run — the `chaos_points` sweep's fault axis.
    pub fault_plan: Option<FaultPlan>,
}

impl PointConfig {
    /// A point with sensible defaults for the given figure/series/x.
    #[must_use]
    pub fn new(
        figure: &'static str,
        series: impl Into<String>,
        x: f64,
        config: SystemConfig,
    ) -> Self {
        PointConfig {
            figure,
            series: series.into(),
            x,
            config,
            protocol: ShimProtocol::Pbft,
            clients: 400,
            duration: SimDuration::from_millis(400),
            warmup: SimDuration::from_millis(150),
            attacks: Vec::new(),
            cloud_faults: CloudFaultPlan::default(),
            seed: 42,
            edge_execution_threads: None,
            bill_serverless: true,
            cpu: None,
            zipf_theta: None,
            fault_plan: None,
        }
    }
}

/// The measured result of one data point.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// The point that was run.
    pub figure: &'static str,
    /// Series label.
    pub series: String,
    /// The swept x value.
    pub x: f64,
    /// Raw metrics from the simulator.
    pub metrics: RunMetrics,
    /// Cost in cents per kilo-transaction (Figure 8 metric).
    pub cents_per_ktxn: f64,
}

impl PointResult {
    /// The value of a sweep column. The harness's own figures go by the
    /// names below; any other name is a registry counter — exact, or a
    /// suffix summed over the nodes (`durability.wal_appends`) — read
    /// over the whole run.
    #[must_use]
    pub fn value(&self, column: &str) -> f64 {
        let m = &self.metrics;
        match column {
            "throughput_tps" => m.throughput_tps(),
            "avg_latency_s" => m.avg_latency_secs(),
            "p50_s" => m.latency.p50_secs(),
            "p99_s" => m.latency.p99_secs(),
            "max_latency_s" => m.latency.histogram().max_us() as f64 / 1e6,
            "abort_rate" => m.abort_rate(),
            "cross_fallback_rate" => m.cross_shard_fallback_rate(),
            "remote_fetch_rate" => m.remote_fetch_rate(),
            "committed" => m.committed_txns as f64,
            "cents_per_ktxn" => self.cents_per_ktxn,
            counter => m.sum(counter) as f64,
        }
    }

    /// [`Self::value`] as a CSV cell: latencies to the microsecond, rates
    /// and cents to three places, everything else whole.
    #[must_use]
    pub fn cell(&self, column: &str) -> String {
        let decimals = match column {
            "avg_latency_s" | "p50_s" | "p99_s" | "max_latency_s" => 6,
            "abort_rate" | "cross_fallback_rate" | "remote_fetch_rate" | "cents_per_ktxn" => 3,
            _ => 0,
        };
        format!("{:.decimals$}", self.value(column))
    }

    /// A smoke binary's invariant on this row.
    ///
    /// # Panics
    /// Panics, naming the row, unless `holds`.
    pub fn require(&self, holds: bool, what: &str) {
        assert!(holds, "{} at x = {}: {what}", self.series, self.x);
    }
}

/// The columns every figure binary prints after `figure,series,x`.
pub const FIGURE_COLUMNS: &[&str] = &[
    "throughput_tps",
    "avg_latency_s",
    "p50_s",
    "p99_s",
    "abort_rate",
    "cents_per_ktxn",
];

/// Runs a sweep and prints it as CSV: `figure,series,x` and then
/// `columns`, header and rows from the same list. Returns the results
/// for the caller's checks.
pub fn run_sweep(points: Vec<PointConfig>, columns: &[&str]) -> Vec<PointResult> {
    println!("figure,series,x,{}", columns.join(","));
    points
        .into_iter()
        .map(|point| {
            let result = run_point(point);
            let cells: Vec<String> = columns.iter().map(|c| result.cell(c)).collect();
            println!(
                "{},{},{:.0},{}",
                result.figure,
                result.series,
                result.x,
                cells.join(",")
            );
            result
        })
        .collect()
}

/// The sweep row of `series` at `x`.
///
/// # Panics
/// Panics when the sweep has no such row — an expected series is missing.
#[must_use]
pub fn find_row<'a>(results: &'a [PointResult], series: &str, x: f64) -> &'a PointResult {
    results
        .iter()
        .find(|r| r.series == series && r.x == x)
        .unwrap_or_else(|| panic!("missing row {series} at x = {x}"))
}

/// Runs one data point on the simulator.
fn run_point(point: PointConfig) -> PointResult {
    run_point_with_sink(point, None)
}

/// Runs one data point with batch lifecycle tracing into `sink`
/// (the `trace_report` binary's entry point).
pub fn run_point_traced(
    point: PointConfig,
    sink: std::sync::Arc<dyn sbft_telemetry::TraceSink>,
) -> PointResult {
    run_point_with_sink(point, Some(sink))
}

fn run_point_with_sink(
    point: PointConfig,
    sink: Option<std::sync::Arc<dyn sbft_telemetry::TraceSink>>,
) -> PointResult {
    let clients = point.clients.max(1);
    let mut config = point.config.clone();
    config.workload.num_clients = clients;

    let mut builder = SystemBuilder::new(config.clone())
        .protocol(point.protocol)
        .clients(clients)
        .cloud_faults(point.cloud_faults)
        .seed(point.seed);
    for (node, attack) in &point.attacks {
        builder = builder.attack(*node, attack.clone());
    }
    let system = builder.build();

    let params = SimParams {
        duration: point.duration,
        warmup: point.warmup,
        num_clients: clients,
        seed: point.seed,
        edge_execution_threads: point.edge_execution_threads,
        zipf_theta: point.zipf_theta,
        ..SimParams::default()
    };
    let mut harness = SimHarness::with_models(
        system,
        params,
        NetworkModel::default(),
        point.cpu.unwrap_or_default(),
    );
    if let Some(sink) = sink {
        harness = harness.with_tracer(sink);
    }
    if let Some(plan) = point.fault_plan.clone() {
        harness = harness.with_fault_plan(plan);
    }
    let metrics = harness.run();

    // Cost accounting: the shim nodes + verifier machines run for the whole
    // wall-clock window; executors are billed per invocation.
    let machines = match point.protocol {
        ShimProtocol::NoShim => 2,
        _ => config.fault.n_r + 1,
    };
    let mut report = metrics.cost_report(&CostModel::default(), machines, config.shim_cores, 16.0);
    if !point.bill_serverless {
        report.serverless_dollars = 0.0;
    }
    PointResult {
        figure: point.figure,
        series: point.series,
        x: point.x,
        cents_per_ktxn: report.cents_per_ktxn(),
        metrics,
    }
}

/// Builds the divergence-rate sweep (ROADMAP open item from PR 1): how
/// often whole batches abort under the Section VI-B divergence rule as a
/// function of the record count (contention: fewer records means
/// executors of one batch are more likely to straddle a storage update)
/// and the executor spread (regions executors are spawned into: wider
/// spread means wider arrival jitter, so executors of one batch observe
/// more different storage states). Conflict handling is `UnknownRwSets`
/// — the mode whose abort-detection path the sweep exercises.
#[must_use]
pub fn divergence_points(record_counts: &[u64], spreads: &[usize]) -> Vec<PointConfig> {
    let mut points = Vec::new();
    for &spread in spreads {
        for &records in record_counts {
            let mut config = SystemConfig::with_shim_size(4);
            config.conflict_handling = sbft_types::ConflictHandling::UnknownRwSets;
            config.workload.num_records = records;
            config.workload.conflict_fraction = 0.5;
            config.workload.batch_size = 20;
            config.regions = if spread <= 1 {
                sbft_types::RegionSet::home_only()
            } else {
                sbft_types::RegionSet::first_n(spread)
            };
            let mut point = PointConfig::new(
                "divergence",
                format!("SPREAD-{spread}"),
                records as f64,
                config,
            );
            point.clients = 300;
            point.duration = SimDuration::from_millis(400);
            point.warmup = SimDuration::from_millis(100);
            points.push(point);
        }
    }
    points
}

/// Builds the ordering-time shard-planner sweep: Zipfian skew × shard
/// count, each point run twice — with the planner's per-shard ordering
/// lanes (`PLANNED`) and with the PR 3 baseline where batches are routed
/// only at apply time (`UNPLANNED`). Conflict handling is `KnownRwSets`
/// (the planner needs declared read-write sets). The headline metric is
/// the cross-shard-fallback rate: the fraction of validated batches
/// whose footprint spanned shards, which the lanes drive to (near) zero
/// for single-home workloads.
#[must_use]
pub fn planner_points(shard_counts: &[usize], zipf_thetas: &[f64]) -> Vec<PointConfig> {
    let mut points = Vec::new();
    for &theta in zipf_thetas {
        for &shards in shard_counts {
            for planned in [true, false] {
                let mut config = SystemConfig::with_shim_size(4);
                config.conflict_handling = sbft_types::ConflictHandling::KnownRwSets;
                config.workload.num_records = 10_000;
                config.workload.batch_size = 50;
                config.sharding = sbft_types::ShardingConfig::with_shards(shards);
                config.sharding.ordering_lanes = planned;
                let series = format!(
                    "{}-Z{:.2}",
                    if planned { "PLANNED" } else { "UNPLANNED" },
                    theta
                );
                let mut point = PointConfig::new("planner", series, shards as f64, config);
                point.clients = 300;
                point.duration = SimDuration::from_millis(400);
                point.warmup = SimDuration::from_millis(100);
                point.zipf_theta = (theta > 0.0).then_some(theta);
                points.push(point);
            }
        }
    }
    points
}

/// Builds the liveness grid of the `planner_points` smoke run: the
/// fault-free flow under {`KnownRwSets`, `UnknownRwSets`} × {digest
/// proposals on, off} × {ordering lanes on, off} × `seeds`, two-key
/// transactions over 8 shards, on shim links with U[0, 100 µs) jitter so
/// PBFT slots reach their commit quorum out of order. Series
/// `LIVE-<K|U>-D<0|1>-L<0|1>`, x = seed. No commit of such a run may take
/// as long as `timers.client_timeout` (`max_latency_s`): one that does
/// was restarted by a client's retransmission timer.
#[must_use]
pub fn liveness_points(seeds: &[u64]) -> Vec<PointConfig> {
    use sbft_types::ConflictHandling::{KnownRwSets, UnknownRwSets};
    let mut points = Vec::new();
    for (mode, tag) in [(KnownRwSets, 'K'), (UnknownRwSets, 'U')] {
        for digest in [false, true] {
            for lanes in [true, false] {
                for &seed in seeds {
                    let mut config = SystemConfig::with_shim_size(4);
                    config.conflict_handling = mode;
                    config.digest_proposals = digest;
                    config.sharding = sbft_types::ShardingConfig::with_shards(8).with_workers(2);
                    config.sharding.ordering_lanes = lanes;
                    config.workload.num_records = 100_000;
                    config.workload.batch_size = 50;
                    config.workload.ops_per_txn = 2;
                    let series = format!("LIVE-{tag}-D{}-L{}", digest as u8, lanes as u8);
                    let mut point = PointConfig::new("planner", series, seed as f64, config);
                    point.seed = seed;
                    point.clients = 400;
                    point.duration = SimDuration::from_millis(3_000);
                    point.fault_plan = Some(FaultPlan::new().link(LinkRule::all(
                        LinkFaults::default().with_delay(1.0, SimDuration::from_micros(100)),
                    )));
                    points.push(point);
                }
            }
        }
    }
    points
}

/// Builds the plan-aware placement sweep: region count × Zipf skew over
/// geo-partitioned storage, each point run twice — `PINNED` (the invoker
/// pins a `SingleHome` batch's executors to its shard's home region) and
/// `RR` (the paper's round-robin rotation over the same geo-partitioned
/// store, so both series pay executor ⇄ storage latency and only the
/// placement differs). Conflict handling is `KnownRwSets` with single-op
/// transactions, so every batch released by the ordering lanes is
/// single-home and eligible for pinning. The headline metric is mean
/// commit latency: pinning turns every storage fetch local, so it must
/// never lose to the rotation — while the equivalence proptests prove the
/// outcomes themselves are identical either way.
#[must_use]
pub fn placement_points(region_counts: &[usize], zipf_thetas: &[f64]) -> Vec<PointConfig> {
    let mut points = Vec::new();
    for &theta in zipf_thetas {
        for &regions in region_counts {
            for pinned in [true, false] {
                let mut config = SystemConfig::with_shim_size(4);
                config.conflict_handling = sbft_types::ConflictHandling::KnownRwSets;
                config.workload.num_records = 10_000;
                config.workload.batch_size = 50;
                config.regions = sbft_types::RegionSet::first_n(regions);
                config.sharding = sbft_types::ShardingConfig::with_shards(8)
                    .with_geo_partitioning()
                    .with_pinned_placement(pinned);
                let series = format!("{}-Z{:.2}", if pinned { "PINNED" } else { "RR" }, theta);
                let mut point = PointConfig::new("placement", series, regions as f64, config);
                point.clients = 300;
                point.duration = SimDuration::from_millis(400);
                point.warmup = SimDuration::from_millis(100);
                point.zipf_theta = (theta > 0.0).then_some(theta);
                points.push(point);
            }
        }
    }
    points
}

/// Builds the crash-restart sweep: durable runs (WAL + featherweight
/// snapshots) at each snapshot interval, each run three ways —
/// `BASELINE` (no fault), `CRASH-BACKUP` (a backup replica goes dark
/// mid-run and recovers via snapshot + WAL replay + peer state
/// transfer) and `CRASH-PRIMARY` (the view-zero primary crashes, so
/// recovery overlaps a view change). Liveness must hold everywhere; the
/// crashed series show how gracefully throughput degrades while the
/// recovery counters (`replay_batches`, `state_transfer_batches`,
/// `recoveries`) prove the recovery path actually ran.
#[must_use]
pub fn recovery_points(snapshot_intervals: &[u64]) -> Vec<PointConfig> {
    let mut points = Vec::new();
    for &interval in snapshot_intervals {
        for (series, crash) in [
            ("BASELINE", None),
            (
                "CRASH-BACKUP",
                Some(CrashRestart::of(
                    NodeId(2),
                    SimDuration::from_millis(150),
                    SimDuration::from_millis(60),
                )),
            ),
            (
                "CRASH-PRIMARY",
                Some(CrashRestart::of(
                    NodeId(0),
                    SimDuration::from_millis(150),
                    SimDuration::from_millis(60),
                )),
            ),
        ] {
            let mut config = SystemConfig::with_shim_size(4);
            config.workload.num_records = 10_000;
            config.workload.batch_size = 20;
            config.durability =
                sbft_types::DurabilityConfig::enabled().with_snapshot_interval(interval);
            // Short protocol timers so a crashed primary is replaced
            // well inside the measured window.
            config.timers.client_timeout = SimDuration::from_millis(60);
            config.timers.node_timeout = SimDuration::from_millis(40);
            config.timers.retransmit_timeout = SimDuration::from_millis(40);
            let mut point = PointConfig::new("recovery", series, interval as f64, config);
            point.clients = 200;
            point.duration = SimDuration::from_millis(600);
            point.warmup = SimDuration::from_millis(100);
            point.seed = 3;
            point.fault_plan = crash.map(|c| FaultPlan::new().crash(c));
            points.push(point);
        }
    }
    points
}

/// Builds the chaos sweep: message-loss rate × partition window × number
/// of concurrent crash-restarts, composed into one `FaultPlan` per point.
/// Hostility is aimed at the *backup* side of the shim — lossy links and
/// the partition around node 3, crashes of nodes 2 and 3, a disk-lag
/// straggler at node 1 — so every point must stay live (the primary and a
/// quorum survive) while the recovery machinery absorbs the abuse. The
/// smoke assertions are on the fault and recovery counters: drops happen
/// where loss is configured, the partition window actually drops traffic,
/// every scheduled crash recovers, and committed work never diverges.
#[must_use]
pub fn chaos_points(
    loss_rates: &[f64],
    partition_windows: &[bool],
    crash_counts: &[usize],
) -> Vec<PointConfig> {
    let mut points = Vec::new();
    for &partition in partition_windows {
        for &crashes in crash_counts {
            for &loss in loss_rates {
                let mut plan = FaultPlan::new().disk_lag(DiskLag {
                    node: NodeId(1),
                    extra: SimDuration::from_micros(200),
                    jitter: SimDuration::from_micros(100),
                });
                if loss > 0.0 {
                    plan = plan.lossy_node(
                        NodeId(3),
                        LinkFaults::lossy(loss)
                            .with_duplicate(0.05)
                            .with_delay(0.1, SimDuration::from_micros(300)),
                    );
                }
                if partition {
                    plan = plan.isolate(
                        NodeId(3),
                        SimDuration::from_millis(100),
                        SimDuration::from_millis(140),
                    );
                }
                // Backups only: the primary stays up so every point keeps
                // committing while the crashed replicas are dark.
                let schedule = [
                    CrashRestart::of(
                        NodeId(2),
                        SimDuration::from_millis(150),
                        SimDuration::from_millis(60),
                    ),
                    CrashRestart::of(
                        NodeId(3),
                        SimDuration::from_millis(170),
                        SimDuration::from_millis(60),
                    ),
                ];
                for crash in schedule.iter().take(crashes) {
                    plan = plan.crash(*crash);
                }
                let mut config = SystemConfig::with_shim_size(4);
                config.workload.num_records = 10_000;
                config.workload.batch_size = 20;
                config.durability = sbft_types::DurabilityConfig::enabled();
                config.timers.client_timeout = SimDuration::from_millis(60);
                config.timers.node_timeout = SimDuration::from_millis(40);
                config.timers.retransmit_timeout = SimDuration::from_millis(40);
                let series = format!("P{}-C{}", u8::from(partition), crashes);
                let mut point = PointConfig::new("chaos", series, (loss * 100.0).round(), config);
                point.clients = 200;
                point.duration = SimDuration::from_millis(600);
                point.warmup = SimDuration::from_millis(100);
                point.seed = 3;
                point.fault_plan = Some(plan);
                points.push(point);
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_sweep_exhibits_the_three_regimes() {
        let scale_down = |mut point: PointConfig| {
            point.clients = 60;
            point.duration = SimDuration::from_millis(200);
            point.warmup = SimDuration::from_millis(50);
            point
        };
        // Honest executors: per-txn stale aborts possible, whole-batch
        // divergence absent.
        let honest = run_point(scale_down(
            divergence_points(&[1_000], &[3]).pop().expect("one point"),
        ));
        assert!(honest.metrics.committed_txns > 0);
        assert_eq!(honest.value("verifier.divergent_aborts"), 0.0);
        // f_E + 1 independently corrupted executors of the 3f_E + 1
        // spawned: the two honest survivors still form a quorum.
        let mut tolerated = scale_down(divergence_points(&[1_000], &[3]).pop().expect("one"));
        tolerated.cloud_faults = sbft_serverless::cloud::CloudFaultPlan {
            byzantine_per_batch: 2,
            behavior: sbft_serverless::ExecutorBehavior::WrongResult,
        };
        let tolerated = run_point(tolerated);
        assert!(tolerated.metrics.committed_txns > 0);
        assert_eq!(tolerated.value("verifier.divergent_aborts"), 0.0);
        // Beyond the margin: no two digests match, every batch aborts
        // through the Section VI-B divergence rule.
        let mut beyond = scale_down(divergence_points(&[1_000], &[3]).pop().expect("one"));
        beyond.cloud_faults = sbft_serverless::cloud::CloudFaultPlan {
            byzantine_per_batch: 3,
            behavior: sbft_serverless::ExecutorBehavior::WrongResult,
        };
        let beyond = run_point(beyond);
        assert_eq!(beyond.metrics.committed_txns, 0);
        assert!(
            beyond.value("verifier.divergent_aborts") > 0.0,
            "beyond-f_E corruption must trip the divergence rule"
        );
    }

    #[test]
    fn planner_lanes_cut_the_cross_shard_fallback_rate() {
        // Uniform single-op workload over 8 shards: without ordering
        // lanes nearly every 50-txn batch spans shards; with lanes every
        // released home-lane batch is single-home by construction.
        let scale_down = |mut point: PointConfig| {
            point.clients = 80;
            point.duration = SimDuration::from_millis(250);
            point.warmup = SimDuration::from_millis(50);
            point
        };
        let points = planner_points(&[8], &[0.0]);
        let planned = run_point(scale_down(
            points
                .iter()
                .find(|p| p.series.starts_with("PLANNED"))
                .cloned()
                .expect("planned point"),
        ));
        let unplanned = run_point(scale_down(
            points
                .iter()
                .find(|p| p.series.starts_with("UNPLANNED"))
                .cloned()
                .expect("unplanned point"),
        ));
        assert!(planned.metrics.committed_txns > 0);
        assert!(unplanned.metrics.committed_txns > 0);
        assert!(planned.value("verifier.validated_batches") > 0.0);
        assert!(
            planned.value("verifier.planned_batches") > 0.0,
            "lanes must produce verified single-home batches"
        );
        assert_eq!(
            planned.value("verifier.plan_mismatches"),
            0.0,
            "an honest primary's tags always verify"
        );
        assert_eq!(
            unplanned.value("verifier.planned_batches"),
            0.0,
            "the baseline never tags"
        );
        assert!(
            planned.metrics.cross_shard_fallback_rate()
                < unplanned.metrics.cross_shard_fallback_rate(),
            "lanes must cut the fallback rate ({} vs {})",
            planned.metrics.cross_shard_fallback_rate(),
            unplanned.metrics.cross_shard_fallback_rate(),
        );
    }

    #[test]
    fn pinned_placement_beats_round_robin_on_single_home_workloads() {
        // The acceptance gate of the geo tentpole, scaled down: over 3
        // regions, pinning must commit with a lower (or equal) mean
        // latency than the rotation, with every batch pinned and no
        // remote fetch left, while the baseline keeps crossing regions.
        let scale_down = |mut point: PointConfig| {
            point.clients = 80;
            point.duration = SimDuration::from_millis(250);
            point.warmup = SimDuration::from_millis(50);
            point
        };
        let points = placement_points(&[3], &[0.0]);
        let pinned = run_point(scale_down(
            points
                .iter()
                .find(|p| p.series.starts_with("PINNED"))
                .cloned()
                .expect("pinned point"),
        ));
        let rr = run_point(scale_down(
            points
                .iter()
                .find(|p| p.series.starts_with("RR"))
                .cloned()
                .expect("round-robin point"),
        ));
        assert!(pinned.metrics.committed_txns > 0);
        assert!(rr.metrics.committed_txns > 0);
        assert!(
            pinned.value("invoker.pinned_spawns") > 0.0,
            "single-home batches must pin"
        );
        assert_eq!(
            rr.value("invoker.pinned_spawns"),
            0.0,
            "the baseline never pins"
        );
        assert_eq!(
            pinned.value("invoker.placement_fallbacks"),
            0.0,
            "no outage, no capacity limit — nothing to fall back from"
        );
        assert!(
            pinned.metrics.remote_fetch_rate() < rr.metrics.remote_fetch_rate(),
            "pinning must cut cross-region fetches ({} vs {})",
            pinned.metrics.remote_fetch_rate(),
            rr.metrics.remote_fetch_rate()
        );
        assert!(
            pinned.metrics.avg_latency_secs() <= rr.metrics.avg_latency_secs(),
            "pinned mean commit latency must not lose to round-robin ({} vs {})",
            pinned.metrics.avg_latency_secs(),
            rr.metrics.avg_latency_secs()
        );
    }

    #[test]
    fn most_hostile_chaos_point_stays_live_and_safe() {
        // The worst corner of the sweep: 20% loss on node 3's links, a
        // partition window around it, and both backup crashes — commits
        // must keep flowing, nothing may diverge, and every configured
        // fault family must actually fire.
        let mut point = chaos_points(&[0.20], &[true], &[2])
            .pop()
            .expect("one point");
        point.clients = 80;
        let result = run_point(point);
        let m = &result.metrics;
        assert!(m.committed_txns > 0, "chaos must not stop the shim");
        assert_eq!(m.counter("verifier.divergent_aborts"), 0);
        assert_eq!(
            m.counter("recovery.recoveries"),
            2,
            "both crashed backups must recover"
        );
        assert!(m.counter("faults.messages_dropped") > 0);
        assert!(m.counter("faults.partition_drops") > 0);
        assert!(m.counter("faults.fsync_lags") > 0);
    }

    #[test]
    fn run_point_produces_nonzero_throughput() {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.workload.num_records = 2_000;
        cfg.workload.batch_size = 10;
        let mut point = PointConfig::new("figX", "TEST", 1.0, cfg);
        point.clients = 40;
        point.duration = SimDuration::from_millis(200);
        point.warmup = SimDuration::from_millis(50);
        let result = run_sweep(vec![point], FIGURE_COLUMNS).remove(0);
        assert!(result.metrics.throughput_tps() > 0.0);
        assert_eq!((result.figure, result.series.as_str()), ("figX", "TEST"));
        // The cost column is the harness's own figure, not a counter that
        // is absent and reads zero.
        assert!(result.value("cents_per_ktxn") > 0.0);
    }
}
