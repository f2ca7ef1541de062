//! Figure 6(vii)-(viii): spawning 11 executors across 5, 7, 9 and 11
//! regions. Throughput and latency should stay roughly constant because
//! the verifier only waits for the f_E + 1 nearest responses.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_types::{RegionSet, SystemConfig};

fn main() {
    let mut points = Vec::new();
    for (label, n_r) in [("SERVBFT-8", 8usize), ("SERVBFT-32", 32)] {
        for regions in [5usize, 7, 9, 11] {
            let mut config = SystemConfig::with_shim_size(n_r);
            config.fault = config.fault.with_executors(11);
            config.regions = RegionSet::first_n(regions);
            let mut point = PointConfig::new("fig6-regions", label, regions as f64, config);
            point.clients = 400;
            points.push(point);
        }
    }
    run_sweep(points, FIGURE_COLUMNS);
}
