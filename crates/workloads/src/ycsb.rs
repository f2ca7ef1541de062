//! The YCSB-style transaction generator.
//!
//! Transactions perform read and write operations against the key-value
//! table (Section IX, *Benchmark*). The generator controls everything the
//! evaluation sweeps:
//!
//! * operations per transaction and write fraction,
//! * key popularity (uniform or Zipfian),
//! * the **conflict rate**: with probability `conflict_fraction` a
//!   transaction is redirected to a small hot key set so that it conflicts
//!   with other in-flight transactions (Figure 6(xi)–(xii)),
//! * the modeled **execution cost** per transaction (Figure 6(v)–(vi) and
//!   Figure 8),
//! * whether transactions **declare their read-write sets** ahead of
//!   execution (Section VI-B vs VI-C).

use crate::zipf::{UniformKeys, ZipfianKeys};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbft_types::{Batch, ClientId, Key, Operation, Transaction, TxnId, Value, WorkloadConfig};

/// Number of keys in the hot set used to manufacture conflicts.
const CONFLICT_HOT_KEYS: u64 = 8;

/// Which key-popularity distribution to draw non-conflicting keys from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyDistribution {
    /// Uniform over the whole table.
    Uniform,
    /// Zipfian with the YCSB default exponent (θ = 0.99).
    Zipfian,
}

/// The YCSB transaction generator.
#[derive(Debug)]
pub struct YcsbWorkload {
    config: WorkloadConfig,
    distribution: KeyDistribution,
    declare_rwsets: bool,
    zipf: ZipfianKeys,
    uniform: UniformKeys,
    rng: StdRng,
    /// The next request counter of each client, by client index: sized
    /// for the configured population, grown for a client beyond it.
    counters: Vec<u64>,
}

impl YcsbWorkload {
    /// Creates a generator from a workload configuration and an RNG seed.
    #[must_use]
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        assert!(config.num_records > CONFLICT_HOT_KEYS, "table too small");
        YcsbWorkload {
            zipf: ZipfianKeys::new(config.num_records),
            uniform: UniformKeys::new(config.num_records),
            distribution: KeyDistribution::Uniform,
            declare_rwsets: false,
            rng: StdRng::seed_from_u64(seed),
            counters: vec![0; config.num_clients],
            config,
        }
    }

    /// Switches the key-popularity distribution.
    #[must_use]
    pub fn with_distribution(mut self, distribution: KeyDistribution) -> Self {
        self.distribution = distribution;
        self
    }

    /// Switches to a Zipfian distribution with an explicit exponent
    /// (θ = 0 degenerates to near-uniform; the YCSB default is 0.99).
    /// Used by the skew sweeps of the planner experiments.
    #[must_use]
    pub fn with_zipf_theta(mut self, theta: f64) -> Self {
        self.zipf = ZipfianKeys::with_theta(self.config.num_records, theta);
        self.distribution = KeyDistribution::Zipfian;
        self
    }

    /// Makes every generated transaction declare its read-write set
    /// (the known-read-write-set mode of Section VI-C).
    #[must_use]
    pub fn with_declared_rwsets(mut self, declare: bool) -> Self {
        self.declare_rwsets = declare;
        self
    }

    /// The workload configuration in use.
    #[must_use]
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    fn draw_key(&mut self) -> u64 {
        match self.distribution {
            KeyDistribution::Uniform => self.uniform.sample(&mut self.rng),
            KeyDistribution::Zipfian => self.zipf.sample(&mut self.rng),
        }
    }

    /// Generates the next transaction for `client`.
    pub fn next_transaction(&mut self, client: ClientId) -> Transaction {
        let slot = client.0 as usize;
        if slot >= self.counters.len() {
            self.counters.resize(slot + 1, 0);
        }
        let id = TxnId::new(client, self.counters[slot]);
        self.counters[slot] += 1;

        let conflicting = self.rng.gen_bool(self.config.conflict_fraction);
        let mut ops = Vec::with_capacity(self.config.ops_per_txn);
        for op_idx in 0..self.config.ops_per_txn {
            let key = if conflicting && op_idx == 0 {
                // Conflicting transactions contend on a small hot set.
                Key(self.rng.gen_range(0..CONFLICT_HOT_KEYS))
            } else {
                Key(self.draw_key())
            };
            let is_write = if conflicting && op_idx == 0 {
                // At least one access to the hot key must be a write for a
                // conflict to exist (Section VI definition).
                true
            } else {
                self.rng.gen_bool(self.config.write_fraction)
            };
            if is_write {
                ops.push(Operation::ReadModifyWrite(key, self.rng.gen()));
            } else {
                ops.push(Operation::Read(key));
            }
        }

        let mut txn = Transaction::new(id, ops).with_execution_cost(self.config.execution_cost);
        if self.declare_rwsets {
            txn = txn.with_inferred_rwset();
        }
        txn
    }

    /// Generates a batch of `size` transactions, spreading them round-robin
    /// over the configured client population (as the batching front-end at
    /// the primary would).
    fn next_batch(&mut self, size: usize) -> Batch {
        assert!(size > 0, "batch size must be positive");
        let n_clients = self.config.num_clients.max(1) as u32;
        let txns = (0..size)
            .map(|i| self.next_transaction(ClientId(i as u32 % n_clients)))
            .collect();
        Batch::new(txns)
    }

    /// Generates a batch using the configured batch size.
    pub fn next_default_batch(&mut self) -> Batch {
        self.next_batch(self.config.batch_size)
    }

    /// The initial value a read-modify-write would produce for `key` given
    /// `salt` — exposed so tests and executors can agree on outputs.
    #[must_use]
    pub fn rmw_value(key: Key, salt: u64, old: Value) -> Value {
        Value::with_len(
            old.data.wrapping_mul(31).wrapping_add(salt ^ key.0),
            old.logical_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> WorkloadConfig {
        WorkloadConfig {
            num_records: 10_000,
            num_clients: 4,
            batch_size: 10,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn txn_ids_are_per_client_monotonic() {
        let mut wl = YcsbWorkload::new(config(), 1);
        let a0 = wl.next_transaction(ClientId(0));
        let b0 = wl.next_transaction(ClientId(1));
        let a1 = wl.next_transaction(ClientId(0));
        assert_eq!(a0.id.counter, 0);
        assert_eq!(b0.id.counter, 0);
        assert_eq!(a1.id.counter, 1);
    }

    #[test]
    fn batch_respects_requested_size_and_spreads_clients() {
        let mut wl = YcsbWorkload::new(config(), 2);
        let batch = wl.next_batch(10);
        assert_eq!(batch.len(), 10);
        let clients: std::collections::HashSet<_> = batch.iter().map(|t| t.id.client).collect();
        assert_eq!(clients.len(), 4);
    }

    #[test]
    fn zero_conflict_fraction_avoids_hot_set_writes() {
        let mut cfg = config();
        cfg.conflict_fraction = 0.0;
        cfg.write_fraction = 0.0;
        let mut wl = YcsbWorkload::new(cfg, 3);
        for _ in 0..200 {
            let t = wl.next_transaction(ClientId(0));
            assert!(t.ops.iter().all(|op| !op.is_write()));
        }
    }

    #[test]
    fn full_conflict_fraction_always_writes_a_hot_key() {
        let mut cfg = config();
        cfg.conflict_fraction = 1.0;
        let mut wl = YcsbWorkload::new(cfg, 4);
        for _ in 0..100 {
            let t = wl.next_transaction(ClientId(0));
            let hot_write = t
                .ops
                .iter()
                .any(|op| op.is_write() && op.key().0 < CONFLICT_HOT_KEYS);
            assert!(hot_write, "conflicting txn must write a hot key: {t:?}");
        }
    }

    #[test]
    fn conflicting_transactions_actually_conflict_with_each_other() {
        let mut cfg = config();
        cfg.conflict_fraction = 1.0;
        cfg.ops_per_txn = 1;
        let mut wl = YcsbWorkload::new(cfg, 5);
        // With only 8 hot keys and writes, two batches of transactions must
        // contain many pairwise conflicts.
        let a: Vec<_> = (0..16).map(|_| wl.next_transaction(ClientId(0))).collect();
        let conflicts = a
            .iter()
            .enumerate()
            .flat_map(|(i, t)| a[i + 1..].iter().map(move |u| t.conflicts_with(u)))
            .filter(|c| *c)
            .count();
        assert!(conflicts > 0);
    }

    #[test]
    fn zipf_theta_skews_the_key_popularity() {
        // A strongly skewed generator hits the head of the key space far
        // more often than a flat one.
        let head_hits = |theta: f64| {
            let mut cfg = config();
            cfg.conflict_fraction = 0.0;
            let mut wl = YcsbWorkload::new(cfg, 9).with_zipf_theta(theta);
            (0..2_000)
                .filter(|_| wl.next_transaction(ClientId(0)).ops[0].key().0 < 100)
                .count()
        };
        let flat = head_hits(0.01);
        let skewed = head_hits(0.99);
        assert!(
            skewed > flat * 2,
            "θ=0.99 ({skewed}) must hit the head far more than θ=0.01 ({flat})"
        );
    }

    #[test]
    fn declared_rwsets_follow_flag() {
        let mut wl = YcsbWorkload::new(config(), 6).with_declared_rwsets(true);
        assert!(wl.next_transaction(ClientId(0)).rwset_known());
        let mut wl = YcsbWorkload::new(config(), 6);
        assert!(!wl.next_transaction(ClientId(0)).rwset_known());
    }

    #[test]
    fn execution_cost_propagates_from_config() {
        use sbft_types::SimDuration;
        let mut cfg = config();
        cfg.execution_cost = SimDuration::from_millis(250);
        let mut wl = YcsbWorkload::new(cfg, 7);
        assert_eq!(
            wl.next_transaction(ClientId(0)).execution_cost,
            SimDuration::from_millis(250)
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let mut a = YcsbWorkload::new(config(), 42);
        let mut b = YcsbWorkload::new(config(), 42);
        for _ in 0..50 {
            assert_eq!(
                a.next_transaction(ClientId(1)),
                b.next_transaction(ClientId(1))
            );
        }
    }

    #[test]
    fn default_batch_uses_configured_size() {
        let mut wl = YcsbWorkload::new(config(), 8);
        assert_eq!(wl.next_default_batch().len(), 10);
    }
}
