//! Figure 6(i)-(ii): impact of the number of serverless executors.
//!
//! Executors 3, 5, 11, 15 and 21 spread over up to seven regions, for
//! SERVBFT-8 and SERVBFT-32.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_types::{RegionSet, SystemConfig};

fn main() {
    let mut points = Vec::new();
    for (label, n_r) in [("SERVBFT-8", 8usize), ("SERVBFT-32", 32)] {
        for executors in [3usize, 5, 11, 15, 21] {
            let mut config = SystemConfig::with_shim_size(n_r);
            config.fault = config.fault.with_executors(executors);
            config.regions = RegionSet::first_n(executors.min(7));
            let mut point = PointConfig::new("fig6-exec", label, executors as f64, config);
            point.clients = 400;
            points.push(point);
        }
    }
    run_sweep(points, FIGURE_COLUMNS);
}
