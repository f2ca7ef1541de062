//! Figure 8: benefit of offloading compute-intensive execution to the
//! serverless cloud.
//!
//! SERVBFT-32 (32-node shim, 3 serverless executors) is compared against
//! edge-only PBFT deployments whose 32 nodes execute everything themselves
//! with 1, 8 or 16 execution threads (PBFT-k-ET). The paper sweeps the
//! added execution time 0 → 2000 ms; the reproduction scales it 1:10.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_types::{RegionSet, SimDuration, SystemConfig};

fn main() {
    let mut points = Vec::new();
    // Scaled 1:10 from 0, 50, 100, 500, 1000, 1500, 2000 ms.
    let added_ms = [0u64, 5, 10, 50, 100, 150, 200];
    for &ms in &added_ms {
        // Serverless offloading: execution runs in parallel at the cloud.
        let mut config = SystemConfig::servbft_32();
        config.workload.execution_cost = SimDuration::from_millis(ms);
        config.workload.batch_size = 50;
        let mut point = PointConfig::new("fig8", "SERVBFT-32", ms as f64, config);
        point.clients = 400;
        point.duration = SimDuration::from_millis(2_000);
        point.warmup = SimDuration::from_millis(500);
        points.push(point);

        // Edge-only PBFT with k execution threads shared by all batches.
        for threads in [1usize, 8, 16] {
            let mut config = SystemConfig::servbft_32();
            config.workload.execution_cost = SimDuration::from_millis(ms);
            config.workload.batch_size = 50;
            config.fault = config.fault.with_executors(1);
            config.regions = RegionSet::home_only();
            let series = format!("PBFT-{threads}-ET");
            let mut point = PointConfig::new("fig8", series, ms as f64, config);
            point.clients = 400;
            point.duration = SimDuration::from_millis(2_000);
            point.warmup = SimDuration::from_millis(500);
            point.edge_execution_threads = Some(threads);
            point.bill_serverless = false;
            points.push(point);
        }
    }
    run_sweep(points, FIGURE_COLUMNS);
}
