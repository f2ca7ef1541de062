//! Live thread-based emulation: the same protocol roles as the simulator,
//! but running on real OS threads connected by channels (one thread per
//! shim node, plus the verifier and an executor pool). Demonstrates the
//! library outside the discrete-event simulator.
//!
//! ```bash
//! cargo run --release --example local_cluster
//! ```

use serverless_bft::core::SystemBuilder;
use serverless_bft::runtime::LocalCluster;
use serverless_bft::types::{RegionSet, SystemConfig};
use std::time::Duration;

fn main() {
    let mut config = SystemConfig::with_shim_size(4);
    config.workload.num_records = 10_000;
    config.workload.batch_size = 16;
    config.regions = RegionSet::home_only();

    let system = SystemBuilder::new(config).clients(64).build();
    println!("starting a live 4-node shim + verifier + executor pool on threads…");
    println!(
        "sha256 kernel          : {}",
        serverless_bft::crypto::sha256::kernel_name()
    );
    let report = LocalCluster::new(system)
        .clients(64)
        .target_txns(5_000)
        .deadline(Duration::from_secs(30))
        .run();

    println!("committed transactions : {}", report.committed);
    println!("aborted transactions   : {}", report.aborted);
    println!("batches committed      : {}", report.batches);
    println!("executor invocations   : {}", report.executor_invocations);
    println!(
        "wall-clock time        : {:.2} s",
        report.elapsed.as_secs_f64()
    );
    println!(
        "throughput             : {:.0} txn/s",
        report.throughput_tps()
    );
}
