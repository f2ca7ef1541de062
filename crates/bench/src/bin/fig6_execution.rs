//! Figure 6(v)-(vi): impact of expensive execution.
//!
//! The paper grows per-transaction execution time up to 8 s; the
//! reproduction scales execution time 1:10 (up to 800 ms) and measures a
//! longer virtual window so slow transactions can complete.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_types::{SimDuration, SystemConfig};

fn main() {
    let mut points = Vec::new();
    // Scaled 1:10 from the paper's 0, 1, 2, 4, 8 seconds.
    let costs_ms = [0u64, 100, 200, 400, 800];
    for (label, n_r) in [("SERVBFT-8", 8usize), ("SERVBFT-32", 32)] {
        for &cost in &costs_ms {
            let mut config = SystemConfig::with_shim_size(n_r);
            config.workload.execution_cost = SimDuration::from_millis(cost);
            config.workload.batch_size = 50;
            let mut point = PointConfig::new("fig6-exectime", label, cost as f64, config);
            point.clients = 400;
            point.duration = SimDuration::from_millis(4_000);
            point.warmup = SimDuration::from_millis(1_000);
            points.push(point);
        }
    }
    run_sweep(points, FIGURE_COLUMNS);
}
