//! Thread-runtime passes: one `LocalCluster::run()` on real OS threads.
//!
//! `rt_*` metrics are wall-clock on this host: four shim-node threads,
//! the verifier, the executor pool and the client driver (this thread)
//! share the host's cores, so they carry scheduler noise the `host_*`
//! clock does not. The runtime generates its own workload (fixed
//! internal seed, see the README's blind spots); `seed` reaches the key
//! material only.

use crate::stats;
use crate::workloads::{build_system, Workload};
use sbft_runtime::{ClusterReport, LocalCluster};
use sbft_telemetry::export::marks;
use sbft_telemetry::{SpanEvent, Stage, TraceSink};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// The outcome of one thread-runtime pass.
pub struct RtPass {
    /// What the cluster driver counted.
    pub report: ClusterReport,
}

impl RtPass {
    /// Committed transactions per wall-clock second.
    #[must_use]
    pub fn tps(&self) -> f64 {
        self.report.throughput_tps()
    }

    /// Wall-clock microseconds per committed transaction; with one
    /// closed-loop client this is the unloaded commit latency.
    #[must_use]
    pub fn us_per_commit(&self) -> f64 {
        self.report.elapsed.as_secs_f64() * 1e6 / self.report.committed.max(1) as f64
    }
}

/// Runs the workload's thread-runtime deployment with `clients`
/// closed-loop clients for `run_for` of wall time. The run is bounded by
/// time, not by a transaction target, so a slower system does less work
/// in the same interval instead of stretching the benchmark.
pub fn run(
    workload: &Workload,
    clients: usize,
    seed: u64,
    run_for: Duration,
    sink: Option<Arc<dyn TraceSink>>,
) -> RtPass {
    let (system, _) = build_system(&workload.rt_config(), clients, seed);
    let mut cluster = LocalCluster::new(system)
        .clients(clients)
        .target_txns(u64::MAX)
        .deadline(run_for);
    if let Some(sink) = sink {
        cluster = cluster.with_trace_sink(sink);
    }
    RtPass {
        report: cluster.run(),
    }
}

/// Wall-clock stage table of a traced thread-runtime pass, from the five
/// markers the runtime emits (`batch_release`, `commit_quorum`,
/// `execute_spawn`, `verify_ingest`, `respond`).
pub struct RtStages {
    /// Mean transactions per batch: the responses of a batch share its
    /// trace id, so `respond` markers ÷ batches that responded.
    pub batch_txns_mean: f64,
    /// `batch_release → commit_quorum`, ascending microseconds.
    pub ordering_us: Vec<f64>,
    /// `execute_spawn → verify_ingest`.
    pub execute_us: Vec<f64>,
    /// `verify_ingest → respond`.
    pub verify_us: Vec<f64>,
    /// `batch_release → respond`.
    pub e2e_us: Vec<f64>,
}

impl RtStages {
    /// Builds the table from a traced pass's events.
    #[must_use]
    pub fn from_events(events: &[SpanEvent]) -> Self {
        let responded: Vec<u64> = events
            .iter()
            .filter(|e| e.stage == Stage::Respond)
            .map(|e| e.trace)
            .collect();
        let batches: BTreeSet<u64> = responded.iter().copied().collect();
        let mut table = RtStages {
            batch_txns_mean: responded.len() as f64 / batches.len().max(1) as f64,
            ordering_us: Vec::new(),
            execute_us: Vec::new(),
            verify_us: Vec::new(),
            e2e_us: Vec::new(),
        };
        for stage_times in marks(events).values() {
            let interval = |from: Stage, to: Stage, into: &mut Vec<f64>| {
                if let (Some(start), Some(end)) = (stage_times.get(&from), stage_times.get(&to)) {
                    into.push(end.as_micros().saturating_sub(start.as_micros()) as f64);
                }
            };
            interval(
                Stage::BatchRelease,
                Stage::CommitQuorum,
                &mut table.ordering_us,
            );
            interval(
                Stage::ExecuteSpawn,
                Stage::VerifyIngest,
                &mut table.execute_us,
            );
            interval(Stage::VerifyIngest, Stage::Respond, &mut table.verify_us);
            interval(Stage::BatchRelease, Stage::Respond, &mut table.e2e_us);
        }
        for samples in [
            &mut table.ordering_us,
            &mut table.execute_us,
            &mut table.verify_us,
            &mut table.e2e_us,
        ] {
            samples.sort_by(f64::total_cmp);
        }
        table
    }

    /// The `p`-quantile of an ascending duration list (0 when empty).
    #[must_use]
    pub fn quantile(samples: &[f64], p: f64) -> f64 {
        if samples.is_empty() {
            0.0
        } else {
            stats::percentile(samples, p)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::SimTime;

    #[test]
    fn rt_stage_table_pairs_the_runtime_markers_per_batch() {
        let mark = |trace, stage, us| SpanEvent {
            trace,
            stage,
            at: SimTime::from_micros(us),
            shard: None,
        };
        let events = [
            mark(1, Stage::BatchRelease, 100),
            mark(1, Stage::CommitQuorum, 150),
            mark(1, Stage::ExecuteSpawn, 160),
            mark(1, Stage::VerifyIngest, 300),
            mark(1, Stage::Respond, 340),
            mark(1, Stage::Respond, 341),
            // A batch still in flight when the run ended.
            mark(2, Stage::BatchRelease, 400),
        ];
        let t = RtStages::from_events(&events);
        assert_eq!(t.batch_txns_mean, 2.0);
        assert_eq!(t.ordering_us, vec![50.0]);
        assert_eq!(t.execute_us, vec![140.0]);
        assert_eq!(t.verify_us, vec![40.0]);
        assert_eq!(t.e2e_us, vec![240.0]);
        assert_eq!(RtStages::quantile(&t.e2e_us, 0.99), 240.0);
        assert_eq!(RtStages::quantile(&[], 0.5), 0.0);
    }
}
