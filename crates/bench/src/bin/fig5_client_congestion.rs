//! Figure 5: latency vs throughput while varying the number of clients.
//!
//! The paper sweeps 2 k → 88 k clients against SERVBFT-8 and SERVBFT-32;
//! this reproduction scales the client population 1:100.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_types::SystemConfig;

fn main() {
    let mut points = Vec::new();
    // 1:100 scaling of 2k, 4k, 8k, 16k, 32k, 40k ... 88k clients.
    let client_counts = [20usize, 40, 80, 160, 320, 400, 480, 560, 640, 720, 800, 880];
    for (label, n_r) in [("SERVBFT-8", 8usize), ("SERVBFT-32", 32)] {
        for &clients in &client_counts {
            let config = SystemConfig::with_shim_size(n_r);
            let mut point = PointConfig::new("fig5", label, clients as f64, config);
            point.clients = clients;
            points.push(point);
        }
    }
    run_sweep(points, FIGURE_COLUMNS);
}
