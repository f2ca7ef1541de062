//! The CPU cost model.
//!
//! Each component (shim node, verifier, client) is modelled as a service
//! station with as many parallel servers as it has cores — the same
//! abstraction as ResilientDB's multi-threaded, pipelined node architecture
//! that the paper deploys on every shim node. Each received message has a
//! service time built from the cryptographic work it triggers (digital
//! signatures are markedly more expensive than MACs, which is why PBFT's
//! signed `COMMIT` phase and certificate validation dominate) plus a
//! per-byte serialisation/hashing term and a fixed dispatch overhead.
//!
//! The station model is what produces the saturation behaviour of Figure 5,
//! the batching sweet spot of Figure 6(iii), and the core-count scaling of
//! Figure 6(ix)–(x).

use sbft_types::{SimDuration, SimTime};

/// Per-message CPU cost parameters.
#[derive(Clone, Copy, Debug)]
pub struct CpuModel {
    /// Cost of creating or verifying one digital signature.
    pub signature_cost: SimDuration,
    /// Cost of creating or verifying one MAC.
    pub mac_cost: SimDuration,
    /// Per-request share of the primary's client-authentication work
    /// under aggregate verification: bookkeeping one request's slot in the
    /// batch's aggregate signature check (hash-and-accumulate), not a full
    /// verification. One full [`Self::signature_cost`] aggregate check is
    /// charged per released batch on top of these shares.
    pub request_share_cost: SimDuration,
    /// Cost per byte of serialisation / hashing work. The repo benchmark
    /// measures the real SHA-256 against it (`sim.model_ratio_per_byte`);
    /// `DESIGN.md` tabulates the model constants beside measured values.
    pub per_byte_ns: f64,
    /// Fixed dispatch overhead per message.
    pub base_cost: SimDuration,
    /// Storage access cost per read or write performed by the verifier or
    /// an executor.
    pub storage_access_cost: SimDuration,
    /// Cost at the spawning shim node of issuing one executor spawn (signed
    /// HTTPS request to the cloud provider via the invoker).
    pub spawn_cost: SimDuration,
    /// Per-key cost of the ordering-time shard routing (one Fibonacci
    /// hash plus the lane bookkeeping per declared key). Charged at the
    /// primary per client request when the shard planner is active.
    pub routing_ns_per_key: f64,
    /// Per-transaction overhead of the *probed* apply path: building the
    /// `BTreeSet` route set of each transaction. The verified
    /// ordering-time fast path skips it entirely.
    pub probe_ns_per_txn: f64,
    /// Per-access overhead of the probed path's key map (the cross-home
    /// fallback probe hashing every read/write key once more). Also
    /// skipped by the verified fast path.
    pub probe_ns_per_access: f64,
    /// Cost of one fsync on the write-ahead log (the durable-vote rule
    /// charges it before a synced record's message leaves the node). An
    /// edge device's flash commit latency, not a datacenter NVMe.
    pub fsync_cost: SimDuration,
    /// Per-byte cost of writing (or replaying) WAL records, on top of
    /// [`Self::fsync_cost`] for synced writes.
    pub wal_byte_ns: f64,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            signature_cost: SimDuration::from_micros(22),
            mac_cost: SimDuration::from_micros(2),
            request_share_cost: SimDuration::from_micros(2),
            per_byte_ns: 0.6,
            base_cost: SimDuration::from_micros(3),
            storage_access_cost: SimDuration::from_micros(1),
            spawn_cost: SimDuration::from_micros(45),
            routing_ns_per_key: 15.0,
            probe_ns_per_txn: 150.0,
            probe_ns_per_access: 40.0,
            fsync_cost: SimDuration::from_micros(80),
            wal_byte_ns: 0.3,
        }
    }
}

impl CpuModel {
    fn bytes_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros(((bytes as f64 * self.per_byte_ns) / 1000.0).round() as u64)
    }

    /// Service time for processing one received message of the given kind
    /// and size at a shim node, the verifier or a client.
    #[must_use]
    pub fn message_cost(&self, kind: &str, bytes: usize) -> SimDuration {
        let crypto = match kind {
            // A full per-request verification — the non-primary path (a
            // replica eagerly verifies before forwarding). The primary's
            // amortised aggregate path goes through
            // [`Self::client_request_cost`] /
            // [`Self::aggregate_batch_check_cost`] instead.
            "CLIENT-REQUEST" => self.signature_cost,
            // MAC check on receipt plus the MAC of the prepare we emit.
            "PREPREPARE" => self.mac_cost + self.mac_cost,
            "PREPARE" => self.mac_cost,
            // Verify the sender's commit signature; creating our own commit
            // signature is charged when we received the quorum-completing
            // prepare, folded in here for simplicity.
            "COMMIT" => self.signature_cost,
            "VIEWCHANGE" | "NEWVIEW" | "CHECKPOINT" => self.signature_cost,
            // Certificate validation at the executor: a quorum of commit
            // signatures plus the spawner's signature.
            "EXECUTE" => self.signature_cost.saturating_mul(4),
            // The verifier checks the executor signature and the embedded
            // certificate before counting the message.
            "VERIFY" => self.signature_cost.saturating_mul(4),
            // Clients verify the trusted verifier's signature.
            "RESPONSE" | "ABORT" => self.signature_cost,
            "ERROR" | "REPLACE" | "ACK" | "BATCH-VALIDATED" => self.signature_cost,
            _ => SimDuration::ZERO,
        };
        self.base_cost + crypto + self.bytes_cost(bytes)
    }

    /// Service time of admitting one client request at a shim node. At
    /// the primary the per-request crypto is the aggregate-verification
    /// *share* ([`Self::request_share_cost`]) — the full
    /// [`Self::signature_cost`] aggregate check is charged once per batch
    /// via [`Self::aggregate_batch_check_cost`] when the batch is
    /// released, which is how the implementation amortises client
    /// authentication (one aggregate signature per batch). Non-primary
    /// replicas still verify each request eagerly before forwarding and
    /// keep the full per-request cost.
    #[must_use]
    pub fn client_request_cost(&self, bytes: usize, at_primary: bool) -> SimDuration {
        let crypto = if at_primary {
            self.request_share_cost
        } else {
            self.signature_cost
        };
        self.base_cost + crypto + self.bytes_cost(bytes)
    }

    /// The once-per-batch aggregate signature check charged at the
    /// primary when a batch is released into ordering (and at commit time
    /// for the NoShim baseline, which validates client authentication as
    /// part of the protocol check).
    #[must_use]
    pub fn aggregate_batch_check_cost(&self) -> SimDuration {
        self.signature_cost
    }

    /// Service time of classifying one client request against the shard
    /// map at ordering time (`keys` declared read/write keys). Sub-micro
    /// per request; it accumulates with batch size like the hashing term.
    #[must_use]
    pub fn routing_cost(&self, keys: usize) -> SimDuration {
        SimDuration::from_micros(((keys as f64 * self.routing_ns_per_key) / 1000.0).round() as u64)
    }

    /// Service time of the concurrency-control check (`ccheck`) for a
    /// batch slice of `accesses` read/write-set entries on one execution
    /// shard: one storage access per validated read and applied write,
    /// plus the fixed dispatch overhead. This is the *pre-planned*
    /// (verified single-home fast path) cost — no per-transaction route
    /// sets, no probe key map.
    #[must_use]
    pub fn ccheck_cost(&self, accesses: usize) -> SimDuration {
        self.storage_access_cost.saturating_mul(accesses as u64) + self.base_cost
    }

    /// Service time of one write-ahead-log operation of `bytes` encoded
    /// bytes: the per-byte write (or replay) work, plus one
    /// [`Self::fsync_cost`] when the operation ends with an fsync. This
    /// is the durability axis of the cost model: synced votes and
    /// commits slow the pipeline down by a bounded, modelled amount
    /// instead of being free.
    #[must_use]
    pub fn persist_cost(&self, bytes: u64, fsync: bool) -> SimDuration {
        let write =
            SimDuration::from_micros(((bytes as f64 * self.wal_byte_ns) / 1000.0).ceil() as u64);
        if fsync {
            write + self.fsync_cost
        } else {
            write
        }
    }

    /// Service time of the *probed* ccheck for `txns` transactions with
    /// `accesses` total read/write-set entries: the planned cost plus the
    /// per-transaction `BTreeSet` routing and the probe's per-access key
    /// map the fast path skips. Always strictly dearer than
    /// [`Self::ccheck_cost`] for non-empty work (the fast-path gap the
    /// ROADMAP asked the model to reflect).
    #[must_use]
    pub fn ccheck_cost_probed(&self, txns: usize, accesses: usize) -> SimDuration {
        let probe_ns =
            txns as f64 * self.probe_ns_per_txn + accesses as f64 * self.probe_ns_per_access;
        self.ccheck_cost(accesses) + SimDuration::from_micros((probe_ns / 1000.0).ceil() as u64)
    }
}

/// A multi-core service station: picks the earliest available core and
/// returns when the work completes.
#[derive(Clone, Debug)]
pub struct ServiceStation {
    cores: Vec<SimTime>,
}

impl ServiceStation {
    /// Creates a station with `cores` parallel servers.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        ServiceStation {
            cores: vec![SimTime::ZERO; cores.max(1)],
        }
    }

    /// Schedules `work` arriving at `now`; returns the completion time.
    pub fn schedule(&mut self, now: SimTime, work: SimDuration) -> SimTime {
        let core = self
            .cores
            .iter_mut()
            .min_by_key(|t| t.as_micros())
            .expect("at least one core");
        let start = (*core).max(now);
        let end = start + work;
        *core = end;
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_messages_cost_more_than_mac_messages() {
        let cpu = CpuModel::default();
        assert!(cpu.message_cost("COMMIT", 220) > cpu.message_cost("PREPARE", 216));
        assert!(cpu.message_cost("VERIFY", 2_000) > cpu.message_cost("PREPARE", 216));
    }

    #[test]
    fn bigger_messages_cost_more() {
        let cpu = CpuModel::default();
        assert!(cpu.message_cost("PREPREPARE", 50_000) > cpu.message_cost("PREPREPARE", 5_000));
    }

    #[test]
    fn aggregate_verification_amortises_client_auth_at_the_primary() {
        let cpu = CpuModel::default();
        let bytes = 180;
        // The primary's per-request admission is much cheaper than the
        // eager per-request verification non-primaries still do.
        assert!(cpu.client_request_cost(bytes, true) < cpu.client_request_cost(bytes, false));
        assert_eq!(
            cpu.client_request_cost(bytes, false),
            cpu.message_cost("CLIENT-REQUEST", bytes)
        );
        // Across a batch of B requests the amortised primary path (B
        // shares + one aggregate check) undercuts B full verifications.
        let batch = 50u64;
        let amortised = cpu.client_request_cost(bytes, true).saturating_mul(batch)
            + cpu.aggregate_batch_check_cost();
        let eager = cpu
            .message_cost("CLIENT-REQUEST", bytes)
            .saturating_mul(batch);
        assert!(amortised < eager);
    }

    #[test]
    fn routing_cost_is_small_but_scales_with_keys() {
        let cpu = CpuModel::default();
        assert_eq!(
            cpu.routing_cost(1),
            SimDuration::ZERO,
            "sub-micro rounds down"
        );
        assert!(cpu.routing_cost(1_000) >= SimDuration::from_micros(10));
        assert!(cpu.routing_cost(1_000) < cpu.ccheck_cost(1_000));
    }

    #[test]
    fn probed_ccheck_costs_strictly_more_than_preplanned() {
        // Pins the fast-path gap: the planned cost is the pure
        // storage-access term, the probed cost adds exactly the
        // route-set and key-map overhead the verified fast path skips.
        let cpu = CpuModel::default();
        let accesses = 200; // a 100-txn batch of 1-read-1-write txns
        let txns = 100;
        let planned = cpu.ccheck_cost(accesses);
        let probed = cpu.ccheck_cost_probed(txns, accesses);
        assert_eq!(planned, SimDuration::from_micros(200 + 3));
        // 100 × 150 ns + 200 × 40 ns = 23 µs of skipped probe work.
        assert_eq!(probed, planned + SimDuration::from_micros(23));
        assert!(probed > planned);
        // Empty work costs the same either way (nothing to probe).
        assert_eq!(cpu.ccheck_cost_probed(0, 0), cpu.ccheck_cost(0));
    }

    #[test]
    fn synced_wal_writes_cost_an_fsync() {
        let cpu = CpuModel::default();
        // The fsync dominates small synced writes…
        assert!(cpu.persist_cost(256, true) >= cpu.fsync_cost);
        assert!(cpu.persist_cost(256, false) < cpu.persist_cost(256, true));
        // …and buffered writes scale with the encoded size only.
        assert!(cpu.persist_cost(1_000_000, false) > cpu.persist_cost(100, false));
    }

    #[test]
    fn station_serialises_work_on_one_core() {
        let mut station = ServiceStation::new(1);
        let t1 = station.schedule(SimTime::ZERO, SimDuration::from_micros(100));
        let t2 = station.schedule(SimTime::ZERO, SimDuration::from_micros(100));
        assert_eq!(t1, SimTime::from_micros(100));
        assert_eq!(t2, SimTime::from_micros(200));
    }

    #[test]
    fn station_parallelises_across_cores() {
        let mut station = ServiceStation::new(4);
        let ends: Vec<SimTime> = (0..4)
            .map(|_| station.schedule(SimTime::ZERO, SimDuration::from_micros(100)))
            .collect();
        assert!(ends.iter().all(|t| *t == SimTime::from_micros(100)));
        let fifth = station.schedule(SimTime::ZERO, SimDuration::from_micros(100));
        assert_eq!(fifth, SimTime::from_micros(200));
    }

    #[test]
    fn idle_station_starts_work_at_arrival_time() {
        let mut station = ServiceStation::new(2);
        let end = station.schedule(SimTime::from_millis(10), SimDuration::from_micros(50));
        assert_eq!(end, SimTime::from_micros(10_050));
    }

    #[test]
    fn zero_core_request_clamps_to_one() {
        assert_eq!(ServiceStation::new(0).cores.len(), 1);
    }
}
