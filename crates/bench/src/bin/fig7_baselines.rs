//! Figure 7: shim scalability and baseline comparison.
//!
//! ServerlessBFT vs ServerlessCFT (Paxos-style shim), PBFT (edge-only BFT
//! replication, approximated as a single home-region executor with no
//! verifier-bound serverless traffic) and NoShim (no consensus), for shims
//! of 4 → 128 nodes.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_core::system::ShimProtocol;
use sbft_types::{RegionSet, SimDuration, SystemConfig};

fn main() {
    let mut points = Vec::new();
    let sizes = [4usize, 8, 16, 32, 64, 128];
    for &n_r in &sizes {
        // ServerlessBFT: PBFT shim + 3 executors + verifier.
        let config = SystemConfig::with_shim_size(n_r);
        let mut point = PointConfig::new("fig7", "SERVERLESSBFT", n_r as f64, config);
        point.clients = 400;
        point.duration = SimDuration::from_millis(300);
        points.push(point);

        // ServerlessCFT: crash-fault-tolerant shim, same serverless flow.
        let config = SystemConfig::with_shim_size(n_r);
        let mut point = PointConfig::new("fig7", "SERVERLESSCFT", n_r as f64, config);
        point.protocol = ShimProtocol::Cft;
        point.clients = 400;
        point.duration = SimDuration::from_millis(300);
        points.push(point);

        // PBFT: classic BFT replication where replicas execute locally.
        let mut config = SystemConfig::with_shim_size(n_r);
        config.fault = config.fault.with_executors(1);
        config.regions = RegionSet::home_only();
        let mut point = PointConfig::new("fig7", "PBFT", n_r as f64, config);
        point.clients = 400;
        point.duration = SimDuration::from_millis(300);
        point.bill_serverless = false;
        points.push(point);

        // NoShim: no consensus at all (constant in the shim size).
        let mut config = SystemConfig::with_shim_size(n_r);
        config.regions = RegionSet::first_n(3);
        let mut point = PointConfig::new("fig7", "NOSHIM", n_r as f64, config);
        point.protocol = ShimProtocol::NoShim;
        point.clients = 400;
        point.duration = SimDuration::from_millis(300);
        points.push(point);
    }
    run_sweep(points, FIGURE_COLUMNS);
}
