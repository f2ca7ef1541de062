//! Figure 6(xi)-(xii): impact of conflicting transactions with unknown
//! read-write sets (0 % → 50 % conflict rate).

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_types::{ConflictHandling, SystemConfig};

fn main() {
    let mut points = Vec::new();
    for (label, n_r) in [("SERVBFT-8", 8usize), ("SERVBFT-32", 32)] {
        for conflict_pct in [0u32, 10, 20, 30, 40, 50] {
            let mut config = SystemConfig::with_shim_size(n_r);
            config.conflict_handling = ConflictHandling::UnknownRwSets;
            config.workload.conflict_fraction = f64::from(conflict_pct) / 100.0;
            let mut point =
                PointConfig::new("fig6-conflicts", label, f64::from(conflict_pct), config);
            point.clients = 400;
            points.push(point);
        }
    }
    run_sweep(points, FIGURE_COLUMNS);
}
