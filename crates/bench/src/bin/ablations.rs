//! Ablation experiments for design choices called out in DESIGN.md:
//!
//! * executor count under byzantine executors (2f+1 vs 3f+1),
//! * primary-only vs decentralized spawning under a delaying primary,
//! * conflict handling: unknown read-write sets vs the known-set planner.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_core::ShimAttack;
use sbft_types::{ConflictHandling, NodeId, SimDuration, SpawningMode, SystemConfig};

fn main() {
    let mut points = Vec::new();

    // Conflict handling: aborting (unknown rw-sets) vs planner (known).
    for (label, handling) in [
        ("UNKNOWN-RWSETS", ConflictHandling::UnknownRwSets),
        ("KNOWN-RWSETS-PLANNER", ConflictHandling::KnownRwSets),
    ] {
        let mut config = SystemConfig::servbft_8();
        config.conflict_handling = handling;
        config.workload.conflict_fraction = 0.3;
        let mut point = PointConfig::new("ablation-conflict", label, 30.0, config);
        point.clients = 400;
        points.push(point);
    }

    // Spawning mode under a primary that delays spawning to force aborts.
    for (label, mode) in [
        ("PRIMARY-ONLY", SpawningMode::PrimaryOnly),
        ("DECENTRALIZED", SpawningMode::Decentralized),
    ] {
        let mut config = SystemConfig::servbft_8();
        config.conflict_handling = ConflictHandling::UnknownRwSets;
        config.workload.conflict_fraction = 0.3;
        config.spawning = mode;
        let mut point = PointConfig::new("ablation-spawning", label, 0.0, config);
        point.clients = 400;
        point.attacks = vec![(
            NodeId(0),
            ShimAttack::DelaySpawning {
                delay: SimDuration::from_millis(150),
            },
        )];
        points.push(point);
    }

    // Executor count for conflicting workloads: 2f+1 vs 3f+1 executors.
    for (label, n_e) in [("2F+1-EXECUTORS", 3usize), ("3F+1-EXECUTORS", 4)] {
        let mut config = SystemConfig::servbft_8();
        config.conflict_handling = ConflictHandling::UnknownRwSets;
        config.workload.conflict_fraction = 0.2;
        config.fault = config.fault.with_executors(n_e).with_executor_faults(1);
        let mut point = PointConfig::new("ablation-executors", label, n_e as f64, config);
        point.clients = 400;
        points.push(point);
    }
    run_sweep(points, FIGURE_COLUMNS);
}
