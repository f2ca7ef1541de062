//! Figure 6(ix)-(x): impact of the computing power (cores) available at
//! the shim nodes (edge devices).

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_types::SystemConfig;

fn main() {
    let mut points = Vec::new();
    for (label, n_r) in [("SERVBFT-8", 8usize), ("SERVBFT-32", 32)] {
        for cores in [2usize, 4, 8, 12, 16] {
            let mut config = SystemConfig::with_shim_size(n_r);
            config.shim_cores = cores;
            let mut point = PointConfig::new("fig6-cores", label, cores as f64, config);
            point.clients = 400;
            points.push(point);
        }
    }
    run_sweep(points, FIGURE_COLUMNS);
}
