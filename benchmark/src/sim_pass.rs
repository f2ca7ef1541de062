//! Simulated passes: one `SimHarness::run()` of a workload's point.
//!
//! The simulator is single-threaded and deterministic per seed, so one
//! pass yields both clocks at once: the `RunMetrics` it returns are
//! simulated time (`sim_*`), and the wall time of `run()` is what the
//! real role code plus the harness cost on this host (`host_*`).

use crate::stats;
use crate::workloads::{build_system, Workload};
use sbft_serverless::CostModel;
use sbft_sim::{CpuModel, NetworkModel, RunMetrics, SimHarness};
use sbft_telemetry::export::marks;
use sbft_telemetry::{Registry, SpanEvent, Stage, TraceSink, INTERVALS};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The outcome of one simulated pass.
pub struct SimPass {
    /// What the simulator measured (simulated clock, exact counts).
    pub metrics: RunMetrics,
    /// Wall time of `SimHarness::run()`.
    pub host_secs: f64,
    /// Wall time of `SystemBuilder::build()`.
    pub setup_secs: f64,
    /// The deployment's registry, readable after the run.
    pub registry: Arc<Registry>,
}

impl SimPass {
    /// Transactions completed (committed or aborted) in the window.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.metrics.committed_txns + self.metrics.aborted_txns
    }

    /// The counters two passes of one seed must share bit-for-bit,
    /// whether or not a trace sink was attached.
    #[must_use]
    pub fn fingerprint(&self) -> [u64; 10] {
        let m = &self.metrics;
        [
            m.committed_txns,
            m.aborted_txns,
            m.messages_delivered,
            m.bytes_delivered,
            m.executors_spawned,
            m.validated_batches,
            m.leader_egress_bytes,
            m.wal_appends,
            m.end_time.as_micros(),
            m.latency.histogram().sum_us(),
        ]
    }

    /// The Figure 8 cost metric: shim nodes plus the verifier machine
    /// for the whole run, executors billed per invocation.
    #[must_use]
    pub fn cents_per_ktxn(&self, workload: &Workload) -> f64 {
        let config = &workload.config;
        self.metrics
            .cost_report(
                &CostModel::default(),
                config.fault.n_r + 1,
                config.shim_cores,
                16.0,
            )
            .cents_per_ktxn()
    }
}

/// Runs the workload's simulated point with `clients` clients under the
/// default network and CPU models. `with_crash` selects whether the
/// workload's crash is scheduled (the no-crash twin is the baseline row
/// of `crash_primary`).
pub fn run(
    workload: &Workload,
    clients: usize,
    seed: u64,
    sink: Option<Arc<dyn TraceSink>>,
    with_crash: bool,
) -> SimPass {
    let (system, setup_secs) = build_system(&workload.config, clients, seed);
    let registry = Arc::clone(&system.registry);
    let mut harness = SimHarness::with_models(
        system,
        workload.sim_params(clients, seed),
        NetworkModel::default(),
        CpuModel::default(),
    )
    .with_fault_plan(workload.fault_plan(with_crash));
    if let Some(sink) = sink {
        harness = harness.with_tracer(sink);
    }
    let start = Instant::now();
    let metrics = harness.run();
    SimPass {
        metrics,
        host_secs: start.elapsed().as_secs_f64(),
        setup_secs,
        registry,
    }
}

/// A sink that keeps only the `respond` timestamps: enough for
/// `outage_ms`, without buffering the other eleven markers per batch.
#[derive(Default)]
pub struct RespondSink {
    at_us: Mutex<Vec<u64>>,
}

impl TraceSink for RespondSink {
    fn record(&self, event: SpanEvent) {
        if event.stage == Stage::Respond {
            self.at_us
                .lock()
                .expect("sink poisoned")
                .push(event.at.as_micros());
        }
    }
}

impl RespondSink {
    /// Longest response-free stretch of the workload's measured window,
    /// in milliseconds.
    #[must_use]
    pub fn outage_ms(&self, workload: &Workload) -> f64 {
        outage_ms(&self.at_us.lock().expect("sink poisoned"), workload)
    }
}

/// Longest interval of the measured window with no client response.
#[must_use]
pub fn outage_ms(respond_us: &[u64], workload: &Workload) -> f64 {
    let from = workload.sim.warmup.as_micros();
    let to = from + workload.sim.duration.as_micros();
    stats::max_gap(respond_us, from, to) as f64 / 1e3
}

/// Exact per-interval durations of every traced batch.
pub struct StageTable {
    /// Interval name → ascending per-batch durations in microseconds.
    pub durations_us: BTreeMap<&'static str, Vec<f64>>,
    /// Batches that carry every pipeline marker.
    pub complete: u64,
    /// Complete batches whose interval durations do not add up to their
    /// `shim_ingest → respond` latency (a marker ran backwards).
    pub mismatched: u64,
    /// All `respond` timestamps in microseconds.
    pub respond_us: Vec<u64>,
}

impl StageTable {
    /// Builds the table from a traced pass's events, over the batches
    /// whose first request reached the shim at or after `from_us` (the
    /// end of the warm-up: the stage table describes the measured
    /// window, like every other metric). Unlike `stage_breakdown` it
    /// keeps the raw durations, so quantiles are exact order statistics
    /// rather than histogram bucket bounds.
    #[must_use]
    pub fn from_events(events: &[SpanEvent], from_us: u64) -> Self {
        let mut durations_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let (mut complete, mut mismatched) = (0, 0);
        for stage_times in marks(events).values() {
            if stage_times
                .get(&Stage::ShimIngest)
                .is_none_or(|t| t.as_micros() < from_us)
            {
                continue;
            }
            for (name, from, to) in INTERVALS {
                if let (Some(start), Some(end)) = (stage_times.get(&from), stage_times.get(&to)) {
                    durations_us
                        .entry(name)
                        .or_default()
                        .push(end.as_micros().saturating_sub(start.as_micros()) as f64);
                }
            }
            if Stage::PIPELINE.iter().all(|s| stage_times.contains_key(s)) {
                complete += 1;
                // Consecutive intervals share their boundary marker, so
                // the durations add up to `shim_ingest → respond` exactly
                // when no marker runs backwards.
                let sum = INTERVALS.iter().try_fold(0u64, |acc, (_, from, to)| {
                    stage_times[to]
                        .as_micros()
                        .checked_sub(stage_times[from].as_micros())
                        .map(|d| acc + d)
                });
                let e2e = stage_times[&Stage::Respond]
                    .as_micros()
                    .checked_sub(stage_times[&Stage::ShimIngest].as_micros());
                if sum.is_none() || sum != e2e {
                    mismatched += 1;
                }
            }
        }
        for samples in durations_us.values_mut() {
            samples.sort_by(f64::total_cmp);
        }
        StageTable {
            durations_us,
            complete,
            mismatched,
            respond_us: events
                .iter()
                .filter(|e| e.stage == Stage::Respond)
                .map(|e| e.at.as_micros())
                .collect(),
        }
    }

    /// The `p`-quantile of an interval in microseconds (0 if untraced).
    #[must_use]
    pub fn quantile_us(&self, interval: &str, p: f64) -> f64 {
        self.durations_us
            .get(interval)
            .filter(|d| !d.is_empty())
            .map_or(0.0, |d| stats::percentile(d, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::SimTime;

    fn mark(trace: u64, stage: Stage, us: u64) -> SpanEvent {
        SpanEvent {
            trace,
            stage,
            at: SimTime::from_micros(us),
            shard: None,
        }
    }

    #[test]
    fn respond_sink_keeps_only_respond_markers() {
        let sink = RespondSink::default();
        sink.record(mark(1, Stage::BatchRelease, 10));
        sink.record(mark(1, Stage::Respond, 170_000));
        sink.record(mark(2, Stage::Respond, 900_000));
        let w = Workload::by_name("steady").unwrap();
        // Window is [150 ms, 1150 ms]: gaps 20, 730 and 250 ms.
        assert_eq!(sink.outage_ms(&w), 730.0);
    }

    #[test]
    fn stage_table_telescopes_on_a_complete_trace_and_flags_a_broken_one() {
        let mut events = Vec::new();
        for (i, stage) in Stage::PIPELINE.iter().enumerate() {
            events.push(mark(1, *stage, 100 * (i as u64 + 1)));
        }
        events.push(mark(0, Stage::Recover, 5));
        assert_eq!(StageTable::from_events(&events, 101).complete, 0);
        let table = StageTable::from_events(&events, 100);
        assert_eq!((table.complete, table.mismatched), (1, 0));
        assert_eq!(table.respond_us, vec![1_000]);
        // batch_wait spans shim_ingest(100) → batch_release(300).
        assert_eq!(table.quantile_us("batch_wait", 0.99), 200.0);
        assert_eq!(table.quantile_us("ordering", 0.5), 200.0);
        assert_eq!(table.quantile_us("nonexistent", 0.5), 0.0);
    }
}
