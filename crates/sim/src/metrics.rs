//! Run metrics: throughput, latency, aborts, traffic and cost.

use sbft_serverless::{CostModel, CostReport};
use sbft_telemetry::{Histogram, Registry};
use sbft_types::{SimDuration, SimTime};
use std::sync::Arc;

/// Latency statistics over the measured (post-warm-up) window.
///
/// A façade over the telemetry [`Histogram`]: recording is
/// allocation-free and percentile queries walk the fixed bucket table
/// (quantisation error ≤ 1/64) instead of cloning and sorting the sample
/// vector on every call. `Clone` shares the underlying histogram.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    histogram: Histogram,
}

impl LatencyStats {
    /// Records one client-observed latency.
    pub fn record(&mut self, latency: SimDuration) {
        self.histogram.record(latency.as_micros());
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.histogram.count() as usize
    }

    /// Average latency in seconds (0 when empty). Exact — the histogram
    /// keeps the true sum, not bucket representatives.
    #[must_use]
    fn avg_secs(&self) -> f64 {
        self.histogram.mean_us() / 1_000_000.0
    }

    /// The given percentile (0.0–1.0) in seconds, quantised to the
    /// histogram bucket's upper bound (≤ 1/64 above the true order
    /// statistic, never below).
    #[must_use]
    fn percentile_secs(&self, p: f64) -> f64 {
        self.histogram.percentile_us(p) as f64 / 1_000_000.0
    }

    /// The underlying shared histogram (for registry registration).
    #[must_use]
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Median latency in seconds.
    #[must_use]
    pub fn p50_secs(&self) -> f64 {
        self.percentile_secs(0.5)
    }

    /// 99th-percentile latency in seconds.
    #[must_use]
    pub fn p99_secs(&self) -> f64 {
        self.percentile_secs(0.99)
    }
}

/// The report of one simulated run: what the harness itself measures
/// (window-scoped outcomes, latency, traffic, the cloud's spawn counts)
/// plus the deployment's registry, which holds every other number of
/// the run under its documented name (`OBSERVABILITY.md`) and is read
/// through [`Self::counter`] / [`Self::sum`].
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Transactions committed inside the measurement window.
    pub committed_txns: u64,
    /// Transactions aborted inside the measurement window.
    pub aborted_txns: u64,
    /// Client-observed latencies.
    pub latency: LatencyStats,
    /// Length of the measurement window.
    pub measured_duration: SimDuration,
    /// Total messages delivered (all kinds).
    pub messages_delivered: u64,
    /// Total bytes moved over the network.
    pub bytes_delivered: u64,
    /// Executors spawned during the whole run.
    pub executors_spawned: u64,
    /// Spawn requests rejected by the cloud's concurrency limit.
    pub spawns_rejected: u64,
    /// Total executor busy time (for the Lambda bill).
    pub executor_busy: SimDuration,
    /// Simulated time at which the run ended.
    pub end_time: SimTime,

    // The seven fields below mirror registry counters. The repo benchmark
    // (`benchmark/`, frozen) reads them as fields; they are the only
    // mirrors left, for the next benchmark PR to retire. Everything else
    // reads the registry by name.
    /// Mirror of `verifier.divergent_aborts`.
    pub divergent_aborts: u64,
    /// Mirror of `verifier.validated_batches`.
    pub validated_batches: u64,
    /// Mirror of `net.leader_egress_bytes`.
    pub leader_egress_bytes: u64,
    /// Mirror of the `durability.wal_appends` sum over the shim nodes.
    pub wal_appends: u64,
    /// Mirror of the `durability.replay_batches` sum.
    pub replay_batches: u64,
    /// Mirror of the `durability.state_transfer_batches` sum.
    pub state_transfer_batches: u64,
    /// Mirror of `recovery.recoveries`.
    pub recoveries: u64,

    /// The deployment's registry (`System::registry`), shared.
    pub(crate) registry: Arc<Registry>,
}

impl RunMetrics {
    /// The deployment's registry: every name of `OBSERVABILITY.md`, over
    /// the whole run (the registry does not window its counters).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Value of the registry counter called `name` (0 when the run
    /// registered no such counter).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter_value(name)
    }

    /// Sum of every registry counter named `suffix` or ending in
    /// `.suffix` — the roll-up over per-node counters
    /// (`sum("durability.wal_appends")`).
    #[must_use]
    pub fn sum(&self, suffix: &str) -> u64 {
        self.registry.sum_counters(suffix)
    }

    /// Committed transactions per second of measured (virtual) time.
    #[must_use]
    pub fn throughput_tps(&self) -> f64 {
        let secs = self.measured_duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.committed_txns as f64 / secs
    }

    /// Fraction of transactions that aborted.
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let total = self.committed_txns + self.aborted_txns;
        if total == 0 {
            return 0.0;
        }
        self.aborted_txns as f64 / total as f64
    }

    /// Average client latency in seconds.
    #[must_use]
    pub fn avg_latency_secs(&self) -> f64 {
        self.latency.avg_secs()
    }

    /// Fraction of validated batches that needed cross-shard
    /// coordination (1 − single-home rate); 0 when nothing validated.
    #[must_use]
    pub fn cross_shard_fallback_rate(&self) -> f64 {
        let validated = self.counter("verifier.validated_batches");
        if validated == 0 {
            return 0.0;
        }
        1.0 - self.counter("verifier.single_home_batches") as f64 / validated as f64
    }

    /// Fraction of executor storage fetches that crossed regions — the
    /// locality metric plan-aware placement drives down; 0 when storage
    /// is not geo-partitioned (no fetch is ever classified).
    #[must_use]
    pub fn remote_fetch_rate(&self) -> f64 {
        let remote = self.counter("storage.geo.remote_fetches");
        let total = self.counter("storage.geo.local_fetches") + remote;
        if total == 0 {
            return 0.0;
        }
        remote as f64 / total as f64
    }

    /// Builds the Figure-8 style cost report for this run.
    #[must_use]
    pub fn cost_report(
        &self,
        model: &CostModel,
        machines: usize,
        cores: usize,
        memory_gib: f64,
    ) -> CostReport {
        let avg_exec = self
            .executor_busy
            .as_micros()
            .checked_div(self.executors_spawned)
            .map_or(SimDuration::ZERO, SimDuration::from_micros);
        CostReport {
            serverless_dollars: model.lambda_cost(self.executors_spawned, avg_exec),
            machine_dollars: model.machine_cost(
                machines,
                cores,
                memory_gib,
                self.end_time - SimTime::ZERO,
            ),
            committed_txns: self.committed_txns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_compute_percentiles() {
        let mut stats = LatencyStats::default();
        for ms in 1..=100u64 {
            stats.record(SimDuration::from_millis(ms));
        }
        assert_eq!(stats.count(), 100);
        assert!((stats.avg_secs() - 0.0505).abs() < 1e-6);
        assert!((stats.p50_secs() - 0.05).abs() < 0.002);
        assert!(stats.p99_secs() >= 0.098);
        assert!(stats.percentile_secs(0.0) <= 0.002);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = LatencyStats::default();
        assert_eq!(stats.avg_secs(), 0.0);
        assert_eq!(stats.p99_secs(), 0.0);
    }

    #[test]
    fn throughput_is_committed_over_window() {
        let metrics = RunMetrics {
            committed_txns: 5_000,
            measured_duration: SimDuration::from_millis(500),
            ..RunMetrics::default()
        };
        assert!((metrics.throughput_tps() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn cross_shard_fallback_rate_is_the_single_home_complement() {
        let metrics = RunMetrics::default();
        assert_eq!(metrics.cross_shard_fallback_rate(), 0.0);
        metrics
            .registry
            .counter("verifier.validated_batches")
            .add(10);
        metrics
            .registry
            .counter("verifier.single_home_batches")
            .add(7);
        assert!((metrics.cross_shard_fallback_rate() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn remote_fetch_rate_is_the_cross_region_share() {
        let metrics = RunMetrics::default();
        assert_eq!(metrics.remote_fetch_rate(), 0.0);
        metrics
            .registry
            .counter("storage.geo.local_fetches")
            .add(30);
        metrics
            .registry
            .counter("storage.geo.remote_fetches")
            .add(10);
        assert!((metrics.remote_fetch_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_handles_zero_and_mixed() {
        let metrics = RunMetrics::default();
        assert_eq!(metrics.abort_rate(), 0.0);
        let metrics = RunMetrics {
            committed_txns: 75,
            aborted_txns: 25,
            ..RunMetrics::default()
        };
        assert!((metrics.abort_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn cost_report_accounts_for_spawns_and_machines() {
        let metrics = RunMetrics {
            committed_txns: 10_000,
            executors_spawned: 300,
            executor_busy: SimDuration::from_secs(30),
            end_time: SimTime::from_secs(10),
            measured_duration: SimDuration::from_secs(10),
            ..RunMetrics::default()
        };
        let report = metrics.cost_report(&CostModel::default(), 8, 16, 16.0);
        assert!(report.serverless_dollars > 0.0);
        assert!(report.machine_dollars > 0.0);
        assert!(report.cents_per_ktxn().is_finite());
    }
}
