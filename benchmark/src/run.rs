//! One benchmark run: a workload, a seed, a time budget, one of the two
//! metric families.
//!
//! `--trace 0` measures the end-to-end metrics with no trace sink on any
//! timed pass. `--trace 1` runs the traced passes, the inline pass and
//! the layer drivers and reports the per-layer ledger. Both check what
//! the system produced and list every violated check by name.

use crate::inline::{self, Role};
use crate::layers;
use crate::rt_pass::{self, RtStages};
use crate::sim_pass::{self, RespondSink, SimPass, StageTable};
use crate::spec;
use crate::stats::{self, Summary};
use crate::workloads::{build_system, Workload};
use sbft_sim::CpuModel;
use sbft_telemetry::{chrome_trace, MemorySink, TraceSink};
use sbft_types::{ConflictHandling, SimDuration};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loaded thread-runtime passes per round and the wall time of each as a
/// share of the `--seconds` budget (2 × 0.84 s at 24 s). Every pass is a
/// fresh deployment: where the kernel happens to put seven threads on the
/// host's cores moves a pass by ±10 %, so many short deployments say more
/// than a few long ones.
const RT_LOADED_PER_ROUND: usize = 2;
const RT_LOADED_SHARE: f64 = 0.035;
/// Unloaded (one-client) thread-runtime passes of the per-layer run and
/// the wall time of each.
const RT_UNLOADED_PASSES: usize = 5;
const RT_UNLOADED_SECS: f64 = 0.3;
/// Fewest rounds of an end-to-end run, whatever the budget.
const MIN_ROUNDS: usize = 2;
/// Most rounds (cheap points would otherwise repeat dozens of times).
const MAX_ROUNDS: usize = 8;
/// Largest abort share an optimistic-validation workload may show.
const MAX_ABORT_SHARE: f64 = 0.01;

/// Everything one run produced.
pub struct RunOutput {
    /// Workload name.
    pub workload: &'static str,
    /// Measured metrics: catalogue name, the value reported, and the
    /// distribution of the samples it was taken from.
    pub values: Vec<(&'static str, f64, Summary)>,
    /// Transactions whose outcome was checked.
    pub attempted: u64,
    /// Transactions that failed (see the README's definition).
    pub failed: u64,
    /// Violated output checks, by name; empty means correct.
    pub problems: Vec<String>,
}

impl RunOutput {
    fn new(workload: &Workload) -> Self {
        RunOutput {
            workload: workload.name,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Reports the median of `summary`'s samples.
    fn put(&mut self, name: &'static str, summary: Summary) {
        self.put_value(name, summary.median, summary);
    }

    fn put_value(&mut self, name: &'static str, value: f64, samples: Summary) {
        debug_assert!(spec::lookup(name).is_some(), "{name} is not catalogued");
        self.values.push((name, value, samples));
    }

    /// Reports the best of the samples: the smallest of a cost, the
    /// largest of a rate. The host's speed shifts by 10–15 % for seconds
    /// at a time (README, "Steadiness"); interference only ever adds
    /// time, so across repeats spread over the whole run the best one is
    /// the one least disturbed, and it repeats far better than the median.
    fn put_best(&mut self, name: &'static str, samples: &[f64]) {
        let (_, better) = spec::lookup(name).expect("catalogued");
        let best = samples
            .iter()
            .copied()
            .fold(f64::NAN, |best, x| match better {
                spec::Better::Lower => best.min(x),
                spec::Better::Higher => best.max(x),
            });
        self.put_value(name, best, Summary::of(samples));
    }

    fn put_exact(&mut self, name: &'static str, value: f64) {
        self.put(name, Summary::exact(value));
    }

    fn put_all(&mut self, measured: Vec<layers::Measured>) {
        for (name, summary) in measured {
            self.put(name, summary);
        }
    }

    fn check(&mut self, holds: bool, name: &str, detail: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(format!("{name}: {}", detail()));
        }
    }

    /// The reported value of `name`, if this run produced it.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// Counts completed transactions towards `attempted` / `failed`.
    /// An abort is a failure unless the workload runs optimistic
    /// validation, where it is the protocol's answer to a conflict (then
    /// it is capped by the `abort_share` check and left out of `sim_tps`
    /// and `rt_tps`, which count commits).
    fn count(&mut self, workload: &Workload, driver: &str, committed: u64, aborted: u64) {
        self.attempted += committed + aborted;
        if !validates_reads(workload) {
            self.failed += aborted;
        }
        let share = aborted as f64 / (committed + aborted).max(1) as f64;
        self.check(share <= MAX_ABORT_SHARE, "abort_share", || {
            format!("{driver}: {share:.4} of completed transactions aborted")
        });
        self.check(committed > 0, "liveness", || {
            format!("{driver}: no transaction committed")
        });
    }

    fn count_sim(&mut self, workload: &Workload, pass: &SimPass) {
        let m = &pass.metrics;
        self.count(workload, "sim", m.committed_txns, m.aborted_txns);
    }

    fn count_rt(&mut self, workload: &Workload, pass: &rt_pass::RtPass) {
        let report = &pass.report;
        self.count(workload, "threads", report.committed, report.aborted);
    }
}

fn validates_reads(workload: &Workload) -> bool {
    !matches!(
        workload.config.conflict_handling,
        ConflictHandling::NonConflicting
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end run (`--trace 0`).
#[must_use]
pub fn end_to_end(workload: &Workload, seed: u64, seconds: f64) -> RunOutput {
    let mut out = RunOutput::new(workload);
    let clients = workload.sim.clients;
    let started = Instant::now();

    // The first pass carries the respond-only sink: it yields `outage_ms`
    // and is the reference every untraced pass must reproduce counter for
    // counter (same seed, same run, sink or no sink). It is never timed.
    let sink = Arc::new(RespondSink::default());
    let reference = sim_pass::run(
        workload,
        clients,
        seed,
        Some(Arc::clone(&sink) as Arc<dyn TraceSink>),
        true,
    );
    // Peak memory of building and running the deployment once; later
    // repeats only add allocator noise on top.
    out.put_exact("peak_rss_mb", peak_rss_mib());

    // Rounds of one simulated pass and two loaded thread runs, so each
    // wall-clock metric is sampled across the whole run rather than in
    // one burst.
    let mut setups = vec![reference.setup_secs];
    let (mut host_us, mut tps) = (Vec::new(), Vec::new());
    let mut first: Option<SimPass> = None;
    while host_us.len() < MAX_ROUNDS {
        let round = Instant::now();
        let pass = sim_pass::run(workload, clients, seed, None, true);
        setups.push(pass.setup_secs);
        host_us.push(pass.host_secs * 1e6 / pass.completed().max(1) as f64);
        out.check(
            pass.fingerprint() == reference.fingerprint(),
            "sim_determinism",
            || {
                format!(
                    "same seed, different counters: {:?} vs {:?}",
                    pass.fingerprint(),
                    reference.fingerprint()
                )
            },
        );
        out.count_sim(workload, &pass);
        first.get_or_insert(pass);
        // A second build per round: `setup_s` is the median of them all,
        // and a dozen samples shrug off a disturbed few.
        setups.push(build_system(&workload.config, clients, seed).1);

        for _ in 0..RT_LOADED_PER_ROUND {
            let loaded = rt_pass::run(
                workload,
                workload.rt_clients,
                seed,
                Duration::from_secs_f64(seconds * RT_LOADED_SHARE),
                None,
            );
            out.count_rt(workload, &loaded);
            tps.push(loaded.tps());
        }

        // Another round only if it would end within a tenth over budget.
        let next_ends = (started.elapsed() + round.elapsed()).as_secs_f64();
        if host_us.len() >= MIN_ROUNDS && next_ends > seconds * 1.1 {
            break;
        }
    }
    out.put_best("host_us_per_txn", &host_us);
    out.put_best("rt_tps", &tps);
    out.put("setup_s", Summary::of(&setups));

    let sim = first.expect("at least one round");
    let m = &sim.metrics;
    let latency = m.latency.histogram();
    out.put_exact(
        "sim_commit_p50_ms",
        latency.percentile_us(0.50) as f64 / 1e3,
    );
    out.put_exact(
        "sim_commit_p99_ms",
        latency.percentile_us(0.99) as f64 / 1e3,
    );
    out.put_exact("sim_tps", m.throughput_tps());
    out.put_exact("cents_per_ktxn", sim.cents_per_ktxn(workload));
    out.put_exact("outage_ms", sink.outage_ms(workload));
    out.check(m.divergent_aborts == 0, "divergent_aborts", || {
        format!(
            "{} whole batches aborted on divergent digests",
            m.divergent_aborts
        )
    });
    out.check(m.latency.count() >= 1_000, "latency_samples", || {
        format!(
            "p99 needs 1000 samples, the window has {}",
            m.latency.count()
        )
    });
    check_recovery(&mut out, workload, &sim);
    out
}

/// A crash workload must recover exactly once, by both replay and state
/// transfer; the others must not recover at all.
fn check_recovery(out: &mut RunOutput, workload: &Workload, pass: &SimPass) {
    let m = &pass.metrics;
    if workload.sim.crash.is_some() {
        out.check(
            m.recoveries == 1 && m.replay_batches > 0 && m.state_transfer_batches > 0,
            "crash_recovery",
            || {
                format!(
                    "want 1 recovery with replay and state transfer, got {} / {} / {}",
                    m.recoveries, m.replay_batches, m.state_transfer_batches
                )
            },
        );
    } else {
        out.check(m.recoveries == 0, "crash_recovery", || {
            format!("{} recoveries on a fault-free workload", m.recoveries)
        });
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The per-layer run (`--trace 1`). Traces are written under `out_dir`
/// after everything has been measured.
#[must_use]
pub fn per_layer(workload: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> RunOutput {
    let mut out = RunOutput::new(workload);
    let clients = workload.sim.clients;

    // (a) Simulated traced pass beside an untraced twin.
    let sink = Arc::new(MemorySink::new());
    let traced = sim_pass::run(
        workload,
        clients,
        seed,
        Some(Arc::clone(&sink) as Arc<dyn TraceSink>),
        true,
    );
    let plain = sim_pass::run(workload, clients, seed, None, true);
    out.count_sim(workload, &plain);
    out.check(
        traced.fingerprint() == plain.fingerprint(),
        "traced_equals_untraced",
        || "the traced pass committed something else than the untraced one".into(),
    );
    let events = sink.events();
    let table = StageTable::from_events(&events, workload.sim.warmup.as_micros());
    out.check(table.complete > 0, "complete_traces", || {
        "no batch of the measured window carries every pipeline marker".into()
    });
    out.check(
        sim_pass::outage_ms(&table.respond_us, workload) > 0.0,
        "respond_markers",
        || "no respond marker inside the measured window".into(),
    );
    // Single-home batches of a fault-free run must telescope. Cross-shard
    // ones do not today, and after a view change a few batches carry an
    // `execute_spawn` marker some microseconds earlier than their
    // `commit_quorum` (README, "Blind spots"); there the share is only
    // reported.
    if workload.config.sharding.num_shards == 1 && workload.sim.crash.is_none() {
        out.check(table.mismatched == 0, "stages_telescope", || {
            format!(
                "{} of {} traced batches have stage durations that do not add up",
                table.mismatched, table.complete
            )
        });
    }
    check_recovery(&mut out, workload, &plain);
    sim_layers(&mut out, &plain, &table);
    out.put_exact(
        "telemetry.sim_trace_overhead_share",
        traced.host_secs / plain.host_secs - 1.0,
    );
    out.put_exact(
        "telemetry.sim_trace_backward_share",
        ratio(table.mismatched as f64, table.complete as f64),
    );

    // (b) Half the clients: where the point sits relative to the knee.
    let half = sim_pass::run(workload, clients / 2, seed, None, true);
    let scaling = ratio(
        plain.metrics.throughput_tps(),
        half.metrics.throughput_tps(),
    );
    out.put_exact("sim.half_load_tps", half.metrics.throughput_tps());
    out.put_exact(
        "sim.half_load_p99_ms",
        half.metrics.latency.histogram().percentile_us(0.99) as f64 / 1e3,
    );
    out.put_exact("sim.load_scaling", scaling);
    match workload.name {
        "saturate" => out.check(scaling < 1.10, "saturate_is_system_bound", || {
            format!("doubling the clients still scales throughput {scaling:.3}x")
        }),
        "steady" => out.check(scaling > 1.80, "steady_is_uncongested", || {
            format!("doubling the clients scales throughput only {scaling:.3}x")
        }),
        _ => {}
    }

    // (c) The no-crash twin prices the crash.
    let vs_nocrash = if workload.sim.crash.is_some() {
        let baseline = sim_pass::run(workload, clients, seed, None, false);
        ratio(
            plain.metrics.throughput_tps(),
            baseline.metrics.throughput_tps(),
        )
    } else {
        1.0
    };
    out.put_exact("durability.tps_vs_nocrash", vs_nocrash);

    // (d) The seed must reach the run: two seeds, two different runs.
    let small = workload.clone().shrunk(
        4 * workload.config.workload.batch_size,
        SimDuration::from_millis(100),
    );
    let a = sim_pass::run(&small, small.sim.clients, seed, None, false);
    let b = sim_pass::run(&small, small.sim.clients, seed ^ 0x5eed, None, false);
    out.check(
        a.fingerprint() != b.fingerprint(),
        "seed_is_plumbed",
        || "two seeds produced identical counters".into(),
    );

    // (e) Thread runtime, traced and untraced alternating.
    let rt_slice = Duration::from_secs_f64((seconds * 0.05).max(0.5));
    let (mut plain_tps, mut traced_tps) = (Vec::new(), Vec::new());
    let mut rt_events = Vec::new();
    for _ in 0..2 {
        let pass = rt_pass::run(workload, workload.rt_clients, seed, rt_slice, None);
        out.count_rt(workload, &pass);
        plain_tps.push(pass.tps());
        // One sink per repeat: batches of two runs share sequence numbers.
        let rt_sink = Arc::new(MemorySink::new());
        let pass = rt_pass::run(
            workload,
            workload.rt_clients,
            seed,
            rt_slice,
            Some(Arc::clone(&rt_sink) as Arc<dyn TraceSink>),
        );
        out.count_rt(workload, &pass);
        traced_tps.push(pass.tps());
        rt_events = rt_sink.events();
    }
    out.put_exact(
        "telemetry.rt_trace_overhead_share",
        stats::median(&plain_tps) / stats::median(&traced_tps) - 1.0,
    );
    let rt = RtStages::from_events(&rt_events);
    out.check(!rt.e2e_us.is_empty(), "rt_trace_markers", || {
        "no batch carried release..respond markers".into()
    });
    out.put_exact("runtime.rt_batch_txns_mean", rt.batch_txns_mean);
    for (name, samples, p) in [
        ("runtime.rt_ordering_p50_us", &rt.ordering_us, 0.50),
        ("runtime.rt_execute_p50_us", &rt.execute_us, 0.50),
        ("runtime.rt_verify_p50_us", &rt.verify_us, 0.50),
        ("runtime.rt_e2e_p50_us", &rt.e2e_us, 0.50),
        ("runtime.rt_e2e_p99_us", &rt.e2e_us, 0.99),
    ] {
        out.put_exact(name, RtStages::quantile(samples, p));
    }

    // One closed-loop client: elapsed ÷ commits is the unloaded wall-clock
    // commit latency. It hangs on thread wake-up latency, which drifts by
    // a quarter over an hour on a shared host, so it informs but gates
    // nothing (it is not an end-to-end metric).
    let unloaded_us: Vec<f64> = (0..RT_UNLOADED_PASSES)
        .map(|_| {
            let run_for = Duration::from_secs_f64(RT_UNLOADED_SECS);
            let pass = rt_pass::run(workload, 1, seed, run_for, None);
            out.count_rt(workload, &pass);
            pass.us_per_commit()
        })
        .collect();
    out.put("runtime.rt_commit_mean_us", Summary::of(&unloaded_us));

    // (f) The inline wall-clock pass.
    let batch = workload.config.workload.batch_size;
    let inline_txns = 200 * batch as u64;
    let pass = inline::run(workload, 4 * batch, inline_txns, seed);
    out.count(workload, "inline", pass.committed, pass.aborted);
    let per_txn_us = |ns: u64| ns as f64 / 1e3 / pass.completed().max(1) as f64;
    let shim = [Role::ShimIngest, Role::ShimConsensus, Role::ShimOther];
    out.put_exact(
        "runtime.shim_busy_us_per_txn",
        per_txn_us(pass.busy_ns(&shim)),
    );
    out.put_exact(
        "runtime.executor_busy_us_per_txn",
        per_txn_us(pass.busy_ns(&[Role::Executor])),
    );
    out.put_exact(
        "runtime.verifier_busy_us_per_txn",
        per_txn_us(pass.busy_ns(&[Role::Verifier])),
    );
    out.put_exact(
        "runtime.client_busy_us_per_txn",
        per_txn_us(pass.busy_ns(&[Role::Client])),
    );
    out.put_exact("runtime.route_us_per_txn", per_txn_us(pass.route_ns()));
    out.put_exact("runtime.inline_us_per_txn", per_txn_us(pass.total_ns));
    let batches = pass.batches.max(1) as f64;
    let executions = pass
        .spans
        .iter()
        .filter(|s| s.role == Role::Executor)
        .count()
        .max(1) as f64;
    out.put_exact(
        "core.shim_ingest_ns_per_txn",
        pass.busy_ns(&[Role::ShimIngest]) as f64 / pass.completed().max(1) as f64,
    );
    out.put_exact(
        "consensus.pbft_order_us_per_batch",
        pass.busy_ns(&[Role::ShimConsensus]) as f64 / 1e3 / batches,
    );
    out.put_exact(
        "consensus.msgs_per_batch",
        pass.consensus_msgs as f64 / batches,
    );
    out.put_exact(
        "serverless.execute_us_per_batch",
        pass.busy_ns(&[Role::Executor]) as f64 / 1e3 / executions,
    );
    out.put_exact(
        "core.verifier_us_per_batch",
        pass.busy_ns(&[Role::Verifier]) as f64 / 1e3 / batches,
    );

    // (g) Layer drivers and the model calibration they feed.
    out.put_all(layers::workloads_and_types(workload, seed));
    out.put_all(layers::crypto(workload, seed));
    out.put_all(layers::storage(workload));
    let (durability, record_bytes) = layers::durability(workload, seed, out_dir);
    out.put_all(durability);
    out.put_all(layers::ordering(workload, seed));
    out.put_all(layers::sharding(workload));
    out.put_all(layers::telemetry());
    calibration(&mut out, record_bytes);

    // Traces leave memory only now, after the last measurement.
    let _ = std::fs::write(
        out_dir.join(format!("trace_{}.json", workload.name)),
        chrome_trace(&events),
    );
    let _ = std::fs::write(
        out_dir.join(format!("trace_{}_inline.json", workload.name)),
        pass.chrome_trace(),
    );
    out
}

/// Layer metrics read off a simulated pass: the simulated-clock stage
/// table, the registry counters and the simulator's own speed.
fn sim_layers(out: &mut RunOutput, pass: &SimPass, table: &StageTable) {
    let m = &pass.metrics;
    let registry = &pass.registry;
    for (name, interval, p) in [
        ("consensus.batch_wait_p50_us", "batch_wait", 0.50),
        ("consensus.batch_wait_p99_us", "batch_wait", 0.99),
        ("consensus.ordering_p50_us", "ordering", 0.50),
        ("consensus.ordering_p99_us", "ordering", 0.99),
        ("serverless.spawn_p50_us", "spawn", 0.50),
        ("serverless.execute_p50_us", "execute", 0.50),
        ("serverless.execute_p99_us", "execute", 0.99),
        ("core.verify_p50_us", "verify", 0.50),
        ("core.verify_p99_us", "verify", 0.99),
        ("core.respond_p50_us", "respond", 0.50),
        ("sharding.apply_p50_us", "apply", 0.50),
        ("sharding.apply_p99_us", "apply", 0.99),
    ] {
        out.put_exact(name, table.quantile_us(interval, p));
    }
    // Whole-run counts over whole-run transactions: the registry does
    // not window its counters.
    let txns = registry.counter_value("verifier.committed_txns")
        + registry.counter_value("verifier.aborted_txns");
    let txns = txns.max(1) as f64;
    let batches = m.validated_batches.max(1) as f64;
    let full = registry.sum_counters("batcher.released_full") as f64;
    let timeout = registry.sum_counters("batcher.released_timeout") as f64;
    out.put_exact("types.wire_bytes_per_txn", m.bytes_delivered as f64 / txns);
    out.put_exact(
        "consensus.leader_egress_bytes_per_txn",
        m.leader_egress_bytes as f64 / txns,
    );
    out.put_exact("consensus.released_full_share", ratio(full, full + timeout));
    out.put_exact(
        "serverless.spawns_per_batch",
        m.executors_spawned as f64 / batches,
    );
    out.put_exact("serverless.spawns_rejected", m.spawns_rejected as f64);
    out.put_exact(
        "serverless.busy_ms_per_ktxn",
        m.executor_busy.as_secs_f64() * 1e3 / (txns / 1e3),
    );
    out.put_exact("core.divergent_aborts", m.divergent_aborts as f64);
    out.put_exact(
        "core.ignored_verifies",
        registry.counter_value("verifier.ignored_verifies") as f64,
    );
    out.put_exact("core.abort_share", m.abort_rate());
    out.put_exact("sharding.cross_shard_share", m.cross_shard_fallback_rate());
    out.put_exact(
        "durability.wal_appends_per_batch",
        m.wal_appends as f64 / batches,
    );
    out.put_exact("durability.replay_batches", m.replay_batches as f64);
    out.put_exact(
        "durability.state_transfer_batches",
        m.state_transfer_batches as f64,
    );
    out.put_exact(
        "sim.host_ns_per_message",
        pass.host_secs * 1e9 / m.messages_delivered.max(1) as f64,
    );
    out.put_exact(
        "sim.sim_s_per_host_s",
        m.end_time.as_micros() as f64 / 1e6 / pass.host_secs,
    );
    out.put_exact("sim.commit_mean_ms", m.avg_latency_secs() * 1e3);
}

/// Measured host cost over the `CpuModel::default()` constant it stands
/// for. `signature_cost` and `mac_cost` are declared parameters of the
/// `SimSigner` stand-in and are not calibrated (see the README).
fn calibration(out: &mut RunOutput, wal_record_bytes: f64) {
    let cpu = CpuModel::default();
    let measured = |out: &RunOutput, name: &str| out.value(name).unwrap_or(0.0);
    let per_byte = measured(out, "crypto.sha256_ns_per_byte");
    let access = (measured(out, "storage.get_ns") + measured(out, "storage.put_ns")) / 2.0;
    let routing = measured(out, "sharding.router_ns_per_key");
    let wal_byte = ratio(
        measured(out, "durability.filewal_append_ns"),
        wal_record_bytes,
    );
    let fsync_us = measured(out, "durability.filewal_sync_us");
    out.put_exact("sim.model_ratio_per_byte", per_byte / cpu.per_byte_ns);
    out.put_exact(
        "sim.model_ratio_storage_access",
        access / (cpu.storage_access_cost.as_micros() as f64 * 1e3),
    );
    out.put_exact(
        "sim.model_ratio_routing_per_key",
        routing / cpu.routing_ns_per_key,
    );
    out.put_exact("sim.model_ratio_wal_byte", wal_byte / cpu.wal_byte_ns);
    out.put_exact(
        "sim.model_ratio_fsync",
        fsync_us / cpu.fsync_cost.as_micros() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// Every workload's constructor, through all three drivers at smoke
    /// size: API drift in `crates/*` then breaks this crate's build or
    /// this test, not a number in a result file.
    #[test]
    fn every_workload_smokes_through_sim_threads_and_inline() {
        for name in workloads::NAMES {
            let full = Workload::by_name(name).expect(name);
            let batch = full.config.workload.batch_size;
            let small = full.shrunk(4 * batch, SimDuration::from_millis(50));

            let sim = sim_pass::run(&small, small.sim.clients, 7, None, false);
            assert!(sim.completed() > 0, "{name}: sim committed nothing");
            let again = sim_pass::run(&small, small.sim.clients, 7, None, false);
            assert_eq!(
                sim.fingerprint(),
                again.fingerprint(),
                "{name}: not deterministic"
            );
            assert!(sim.cents_per_ktxn(&small) > 0.0);

            let rt = rt_pass::run(&small, 8, 7, Duration::from_millis(200), None);
            assert!(rt.report.committed > 0, "{name}: threads committed nothing");
            assert!(rt.tps() > 0.0 && rt.us_per_commit() > 0.0);

            let target = 4 * batch as u64;
            let inline = inline::run(&small, 2 * batch, target, 7);
            assert!(inline.completed() >= target, "{name}: inline stalled");
            assert!(inline.batches > 0 && inline.consensus_msgs > 0);
            assert!(inline.busy_ns(&[Role::Verifier]) > 0);
            assert!(inline.route_ns() < inline.total_ns);
        }
    }

    #[test]
    fn best_of_samples_follows_the_metric_direction() {
        let mut out = RunOutput::new(&Workload::by_name("steady").unwrap());
        out.put_best("host_us_per_txn", &[21.0, 19.5, 23.0]);
        out.put_best("rt_tps", &[7_900.0, 8_300.0, 8_100.0]);
        assert_eq!(out.value("host_us_per_txn"), Some(19.5));
        assert_eq!(out.value("rt_tps"), Some(8_300.0));
        assert_eq!(out.value("sim_tps"), None);
    }

    #[test]
    fn aborts_fail_only_where_nothing_validates_reads() {
        let steady = Workload::by_name("steady").unwrap();
        let sharded = Workload::by_name("sharded_multiop").unwrap();
        let mut out = RunOutput::new(&steady);
        out.count(&steady, "sim", 990, 10);
        assert_eq!((out.attempted, out.failed), (1_000, 10));
        out.count(&sharded, "sim", 9_990, 10);
        assert_eq!((out.attempted, out.failed), (11_000, 10));
        assert!(out.problems.is_empty(), "1 % and 0.1 % are within the cap");
        out.count(&sharded, "sim", 900, 100);
        assert_eq!(out.problems.len(), 1);
        out.count(&steady, "threads", 0, 0);
        assert!(out.problems[1].starts_with("liveness: threads"));
    }
}
