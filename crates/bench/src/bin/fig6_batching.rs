//! Figure 6(iii)-(iv): impact of the client-request batch size.
//!
//! The paper sweeps batch sizes 10 → 8000; the reproduction sweeps
//! 10 → 2000 with the client population scaled to keep batches fillable.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_types::SystemConfig;

fn main() {
    let mut points = Vec::new();
    for (label, n_r) in [("SERVBFT-8", 8usize), ("SERVBFT-32", 32)] {
        for batch in [10usize, 50, 100, 200, 500, 1000, 2000] {
            let mut config = SystemConfig::with_shim_size(n_r);
            config.workload.batch_size = batch;
            let mut point = PointConfig::new("fig6-batch", label, batch as f64, config);
            point.clients = (batch * 3).clamp(200, 4_000);
            points.push(point);
        }
    }
    run_sweep(points, FIGURE_COLUMNS);
}
