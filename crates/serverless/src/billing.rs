//! The pay-per-use cost model (Figure 8's cents / kilo-transaction axis).
//!
//! The paper bills its experiments with "the precise costs for spawning
//! serverless executors at AWS Lambda and running machines on OCI". The
//! model below uses the public list prices that were current for the
//! paper's setup:
//!
//! * AWS Lambda: \$0.20 per million requests plus \$0.0000166667 per
//!   GiB-second of execution,
//! * OCI `VM.Standard.E3.Flex` compute: ≈\$0.025 per OCPU-hour plus
//!   ≈\$0.0015 per GiB-hour of memory.
//!
//! Only the relative shapes matter for the reproduction (serverless cost is
//! dominated by invocation count and execution seconds; edge-only cost is
//! dominated by how long the fixed fleet must stay up), so the constants
//! are exposed and adjustable.

use sbft_types::SimDuration;

/// Cost-model constants.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CostModel {
    /// Dollars per single Lambda invocation (request fee).
    pub lambda_request_cost: f64,
    /// Dollars per GiB-second of Lambda execution.
    pub lambda_gib_second_cost: f64,
    /// Memory configured per executor, in GiB.
    pub lambda_memory_gib: f64,
    /// Dollars per core-hour of an edge/OCI machine.
    pub machine_core_hour_cost: f64,
    /// Dollars per GiB-hour of machine memory.
    pub machine_gib_hour_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            lambda_request_cost: 0.20 / 1_000_000.0,
            lambda_gib_second_cost: 0.000_016_666_7,
            lambda_memory_gib: 0.5,
            machine_core_hour_cost: 0.025,
            machine_gib_hour_cost: 0.0015,
        }
    }
}

/// A cost breakdown for one experiment run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CostReport {
    /// Dollars spent on serverless invocations.
    pub serverless_dollars: f64,
    /// Dollars spent on always-on machines (shim nodes, verifier).
    pub machine_dollars: f64,
    /// Number of transactions committed during the run.
    pub committed_txns: u64,
}

impl CostModel {
    /// Cost of `invocations` Lambda executions of `duration` each.
    #[must_use]
    pub fn lambda_cost(&self, invocations: u64, duration: SimDuration) -> f64 {
        let seconds = duration.as_secs_f64();
        invocations as f64
            * (self.lambda_request_cost
                + self.lambda_gib_second_cost * self.lambda_memory_gib * seconds)
    }

    /// Cost of running `machines` machines with `cores` cores and
    /// `memory_gib` GiB each for `wall_time`.
    #[must_use]
    pub fn machine_cost(
        &self,
        machines: usize,
        cores: usize,
        memory_gib: f64,
        wall_time: SimDuration,
    ) -> f64 {
        let hours = wall_time.as_secs_f64() / 3600.0;
        machines as f64
            * hours
            * (self.machine_core_hour_cost * cores as f64 + self.machine_gib_hour_cost * memory_gib)
    }
}

impl CostReport {
    /// Total dollars spent.
    #[must_use]
    fn total_dollars(&self) -> f64 {
        self.serverless_dollars + self.machine_dollars
    }

    /// The paper's metric: cents per thousand committed transactions.
    #[must_use]
    pub fn cents_per_ktxn(&self) -> f64 {
        if self.committed_txns == 0 {
            return f64::INFINITY;
        }
        self.total_dollars() * 100.0 / (self.committed_txns as f64 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_cost_scales_with_invocations_and_duration() {
        let m = CostModel::default();
        let short = m.lambda_cost(1_000, SimDuration::from_millis(100));
        let long = m.lambda_cost(1_000, SimDuration::from_millis(1_000));
        let many = m.lambda_cost(10_000, SimDuration::from_millis(100));
        assert!(long > short);
        assert!(many > short);
        assert!((many / short - 10.0).abs() < 1e-9);
    }

    #[test]
    fn machine_cost_scales_with_time_and_fleet() {
        let m = CostModel::default();
        let base = m.machine_cost(32, 16, 16.0, SimDuration::from_secs(180));
        let longer = m.machine_cost(32, 16, 16.0, SimDuration::from_secs(360));
        let smaller = m.machine_cost(8, 16, 16.0, SimDuration::from_secs(180));
        assert!((longer / base - 2.0).abs() < 1e-9);
        assert!(smaller < base);
    }

    #[test]
    fn cents_per_ktxn_matches_hand_computation() {
        let report = CostReport {
            serverless_dollars: 0.02,
            machine_dollars: 0.08,
            committed_txns: 50_000,
        };
        // $0.10 over 50 kTxn = 10 cents / 50 = 0.2 cents per ktxn.
        assert!((report.cents_per_ktxn() - 0.2).abs() < 1e-9);
        assert!((report.total_dollars() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_throughput_costs_infinite_per_txn() {
        let report = CostReport::default();
        assert!(report.cents_per_ktxn().is_infinite());
    }

    #[test]
    fn short_lambda_bursts_are_cheaper_than_long_machines() {
        // The qualitative claim behind Figure 8: for bursty expensive
        // execution, paying per use beats keeping a fleet busy for the
        // whole (much longer) run.
        let m = CostModel::default();
        let serverless = m.lambda_cost(3 * 600, SimDuration::from_millis(2_000));
        let machines = m.machine_cost(32, 16, 16.0, SimDuration::from_secs(3_600));
        assert!(serverless < machines);
    }
}
