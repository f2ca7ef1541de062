//! System configuration: fault-tolerance parameters, timers and modes.
//!
//! The fault model of the paper (Section III): a shim of `n_R ≥ 3f_R + 1`
//! edge nodes of which at most `f_R` are byzantine, and `n_E ≥ 2f_E + 1`
//! spawned executors of which at most `f_E` are byzantine
//! (`n_E ≥ 3f_E + 1` when transactions conflict and read-write sets are
//! unknown, Theorem VI.2).

use crate::error::{SbftError, SbftResult};
use crate::ids::SeqNum;
use crate::region::RegionSet;
use crate::time::SimDuration;

/// Fault-tolerance parameters for the shim and the serverless executors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultParams {
    /// Number of shim (edge) nodes `n_R`.
    pub n_r: usize,
    /// Maximum number of byzantine shim nodes `f_R`.
    pub f_r: usize,
    /// Number of executors spawned per batch `n_E`.
    pub n_e: usize,
    /// Maximum number of byzantine executors `f_E`.
    pub f_e: usize,
}

impl FaultParams {
    /// Parameters for a shim of `n_r` nodes with the maximum tolerated
    /// `f_R = ⌊(n_R - 1)/3⌋` and the paper's default of three executors
    /// (`f_E = 1`).
    ///
    /// # Panics
    /// Panics if `n_r < 4` (a BFT shim needs at least `3·1 + 1` nodes).
    #[must_use]
    pub fn for_shim_size(n_r: usize) -> Self {
        assert!(n_r >= 4, "a BFT shim needs at least 4 nodes");
        FaultParams {
            n_r,
            f_r: (n_r - 1) / 3,
            n_e: 3,
            f_e: 1,
        }
    }

    /// Overrides the number of executors spawned per batch, deriving the
    /// maximum `f_E = ⌊(n_E - 1)/2⌋` (non-conflicting case).
    #[must_use]
    pub fn with_executors(mut self, n_e: usize) -> Self {
        assert!(n_e >= 1, "at least one executor must be spawned");
        self.n_e = n_e;
        self.f_e = if n_e >= 3 { (n_e - 1) / 2 } else { 0 };
        self
    }

    /// Overrides the executor fault bound explicitly.
    #[must_use]
    pub fn with_executor_faults(mut self, f_e: usize) -> Self {
        self.f_e = f_e;
        self
    }

    /// The shim quorum `2f_R + 1` needed to prepare/commit a request and to
    /// build an execution certificate.
    #[must_use]
    pub fn shim_quorum(&self) -> usize {
        2 * self.f_r + 1
    }

    /// Number of matching `VERIFY` messages the verifier waits for
    /// (`f_E + 1`).
    #[must_use]
    pub fn verify_quorum(&self) -> usize {
        self.f_e + 1
    }

    /// Number of `VERIFY` messages below which the verifier blames the
    /// primary when its abort timer fires (`2f_E + 1`, Section VI-B).
    #[must_use]
    pub fn verify_blame_threshold(&self) -> usize {
        2 * self.f_e + 1
    }

    /// Executors the primary must spawn when read-write sets are unknown and
    /// transactions may conflict: `3f_E + 1` (Theorem VI.2).
    #[must_use]
    pub fn executors_for_conflicts(&self) -> usize {
        3 * self.f_e + 1
    }

    /// View-change quorum (`2f_R + 1` VIEWCHANGE messages).
    #[must_use]
    pub fn view_change_quorum(&self) -> usize {
        2 * self.f_r + 1
    }

    /// Executors each shim node spawns under decentralized spawning,
    /// Equation (1) of the paper: `1` if `n_E ≤ n_R`, else
    /// `⌈n_E / (2f_R + 1)⌉`.
    #[must_use]
    pub fn decentralized_spawn_count(&self) -> usize {
        if self.n_e <= self.n_r {
            1
        } else {
            self.n_e.div_ceil(2 * self.f_r + 1)
        }
    }

    /// Checks the BFT resilience conditions `n_R ≥ 3f_R + 1` and
    /// `n_E ≥ 2f_E + 1`.
    pub fn validate(&self) -> SbftResult<()> {
        if self.n_r < 3 * self.f_r + 1 {
            return Err(SbftError::InvalidConfig(format!(
                "shim needs n_R ≥ 3f_R + 1 (got n_R={}, f_R={})",
                self.n_r, self.f_r
            )));
        }
        if self.n_e < 2 * self.f_e + 1 {
            return Err(SbftError::InvalidConfig(format!(
                "executors need n_E ≥ 2f_E + 1 (got n_E={}, f_E={})",
                self.n_e, self.f_e
            )));
        }
        Ok(())
    }
}

/// Protocol timers (Section V-A). All durations are virtual time.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimerConfig {
    /// Client timer `τ_m`: started before sending a request to the primary,
    /// stopped on receiving the verifier's `RESPONSE`.
    pub client_timeout: SimDuration,
    /// Node timer `τ_m`: started when a well-formed `PREPREPARE` is
    /// received, stopped when the request commits.
    pub node_timeout: SimDuration,
    /// Node re-transmission timer `Υ`: started when an `ERROR` message from
    /// the verifier is forwarded to the primary, stopped on the matching
    /// `ACK`.
    pub retransmit_timeout: SimDuration,
    /// Featherweight checkpoint period, in committed sequence numbers
    /// (non-zero).
    pub checkpoint_interval: u64,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            client_timeout: SimDuration::from_millis(2_000),
            node_timeout: SimDuration::from_millis(1_000),
            retransmit_timeout: SimDuration::from_millis(500),
            checkpoint_interval: 100,
        }
    }
}

/// The highest sequence number whose history may be dropped once every
/// batch up to `validated` has been validated, with featherweight
/// checkpoints every `interval` sequence numbers: the checkpoint one
/// closed interval behind the last stable one. The verifier's retry table
/// and the shim's duplicate-suppression table both truncate at it, so a
/// late retry inside the retained window is still recognised by both.
///
/// # Panics
/// Panics if `interval` is zero, which [`SystemConfig::validate`]
/// rejects.
#[must_use]
pub fn checkpoint_gc_cutoff(validated: SeqNum, interval: u64) -> SeqNum {
    let stable = validated.0 / interval * interval;
    SeqNum(stable.saturating_sub(interval))
}

/// Configuration of the durability subsystem (`sbft-durability`): the
/// write-ahead log each shim replica appends to and the featherweight
/// snapshot rhythm that truncates it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DurabilityConfig {
    /// Whether shim replicas keep a write-ahead log at all. Off by
    /// default: the paper's replicas are purely in-memory, and the WAL
    /// adds an fsync to the commit-vote path.
    pub enabled: bool,
    /// Snapshot period, in committed sequence numbers: every
    /// `snapshot_interval` commits the replica cuts a
    /// featherweight-snapshot mark and truncates its log below it.
    pub snapshot_interval: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            enabled: false,
            snapshot_interval: 8,
        }
    }
}

impl DurabilityConfig {
    /// Durability enabled with the default snapshot rhythm.
    #[must_use]
    pub fn enabled() -> Self {
        DurabilityConfig {
            enabled: true,
            ..DurabilityConfig::default()
        }
    }

    /// Overrides the snapshot period.
    #[must_use]
    pub fn with_snapshot_interval(mut self, interval: u64) -> Self {
        self.snapshot_interval = interval;
        self
    }

    /// Checks the snapshot rhythm is usable.
    pub fn validate(&self) -> SbftResult<()> {
        if self.enabled && self.snapshot_interval == 0 {
            return Err(SbftError::InvalidConfig(
                "durability needs a non-zero snapshot interval".into(),
            ));
        }
        Ok(())
    }
}

/// Who spawns serverless executors after a request commits (Section VI-B).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpawningMode {
    /// Only the primary of the current view spawns executors (default).
    PrimaryOnly,
    /// Every shim node spawns `e` executors on commit, preventing byzantine
    /// aborts at the cost of over-spawning (Equations (1)/(2)).
    Decentralized,
}

/// How transactional conflicts are handled (Section VI).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConflictHandling {
    /// Workload is non-conflicting; the verifier skips read-set validation.
    NonConflicting,
    /// Conflicts possible, read-write sets unknown before execution: spawn
    /// `3f_E + 1` executors, verifier validates read sets and may abort.
    UnknownRwSets,
    /// Read-write sets known: the primary runs the best-effort
    /// conflict-avoidance planner (deterministic-database style queueing).
    KnownRwSets,
}

/// Configuration of the sharded execution subsystem.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardingConfig {
    /// Number of execution shards the key space is partitioned into.
    pub num_shards: usize,
    /// Nothing reads it: the verifier applies every batch on its own
    /// thread, and the simulator prices that as one apply station. It
    /// stays only while the repo benchmark calls [`Self::with_workers`];
    /// ROADMAP direction 8(iii) deletes both.
    pub workers: usize,
    /// Whether the primary runs the **ordering-time shard planner**:
    /// with known read-write sets and more than one shard, the batcher
    /// assembles per-shard ordering lanes so single-home batches reach
    /// the verifier already conflict-free per shard. Disable to measure
    /// the PR 3 baseline where cross-home batches are only discovered at
    /// apply time.
    pub ordering_lanes: bool,
    /// Whether storage is **geo-partitioned**: every shard's partition
    /// lives in a home region (the deterministic
    /// [`crate::RegionPartition`] over the deployment's region set), and
    /// an executor pays inter-region latency whenever it fetches keys
    /// homed outside its own region. Off by default — the paper's setup
    /// keeps all storage at the home site.
    pub geo_partitioned: bool,
    /// Whether the invoker places executors by a batch's
    /// [`crate::ShardPlan`], which the spawner derives from the batch when
    /// ordering lanes run: a `SingleHome` batch's executors are pinned to
    /// its shard's home region (with deterministic round-robin fallback
    /// when that region is faulted or lacks spawn capacity); cross-home
    /// and unplanned batches keep the paper's round-robin rotation. Only
    /// meaningful when `geo_partitioned` is set — without partitioned
    /// storage there is nothing to be near. Placement is a pure
    /// performance hint: outcomes are proven identical either way.
    pub pinned_placement: bool,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        // One shard reproduces the paper's single verifier/storage funnel
        // exactly.
        ShardingConfig {
            num_shards: 1,
            workers: 1,
            ordering_lanes: true,
            geo_partitioned: false,
            pinned_placement: true,
        }
    }
}

impl ShardingConfig {
    /// A configuration with `num_shards` shards.
    #[must_use]
    pub fn with_shards(num_shards: usize) -> Self {
        ShardingConfig {
            num_shards,
            ..ShardingConfig::default()
        }
    }

    /// Overrides the worker count, which nothing reads (see
    /// [`Self::workers`]; ROADMAP direction 8(iii) deletes both).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables geo-partitioned storage (shard partitions homed across the
    /// deployment's regions).
    #[must_use]
    pub fn with_geo_partitioning(mut self) -> Self {
        self.geo_partitioned = true;
        self
    }

    /// Overrides plan-aware spawn placement (the round-robin baseline of
    /// the `placement_points` sweep sets this to `false`).
    #[must_use]
    pub fn with_pinned_placement(mut self, pinned: bool) -> Self {
        self.pinned_placement = pinned;
        self
    }

    /// Checks that the shard count is usable.
    pub fn validate(&self) -> SbftResult<()> {
        if self.num_shards == 0 {
            return Err(SbftError::InvalidConfig(
                "sharding needs at least one shard".into(),
            ));
        }
        if self.num_shards > crate::ShardSet::CAPACITY {
            return Err(SbftError::InvalidConfig(format!(
                "at most {} shards (the width of a route set), got {}",
                crate::ShardSet::CAPACITY,
                self.num_shards
            )));
        }
        Ok(())
    }
}

/// Workload parameters shared by the harnesses (full generators live in
/// `sbft-workloads`).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WorkloadConfig {
    /// Number of records in the YCSB store (600 k in the paper).
    pub num_records: u64,
    /// Number of concurrently issuing clients.
    pub num_clients: usize,
    /// Client transactions per consensus batch.
    pub batch_size: usize,
    /// Fraction of transactions that conflict with another in-flight
    /// transaction (0.0 – 0.5 in Figure 6(xi)).
    pub conflict_fraction: f64,
    /// Modeled per-transaction execution cost.
    pub execution_cost: SimDuration,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_records: 600_000,
            num_clients: 16_000,
            batch_size: 100,
            conflict_fraction: 0.0,
            execution_cost: SimDuration::from_micros(50),
            write_fraction: 0.5,
            ops_per_txn: 1,
        }
    }
}

/// Full configuration of a serverless-edge deployment.
#[derive(Clone, PartialEq, Debug)]
pub struct SystemConfig {
    /// Fault-tolerance parameters.
    pub fault: FaultParams,
    /// Regions in which executors may be spawned.
    pub regions: RegionSet,
    /// Protocol timer settings.
    pub timers: TimerConfig,
    /// Spawning mode (primary-only vs decentralized).
    pub spawning: SpawningMode,
    /// Conflict-handling mode.
    pub conflict_handling: ConflictHandling,
    /// Number of cores available on each shim node (Figure 6(ix)).
    pub shim_cores: usize,
    /// Number of cores available to the verifier.
    pub verifier_cores: usize,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// Sharded-execution parameters for the verifier's commit path.
    pub sharding: ShardingConfig,
    /// Write-ahead-log and snapshot parameters for shim replicas.
    pub durability: DurabilityConfig,
    /// Whether the primary proposes batches by digest (txn ids only)
    /// instead of shipping full bodies, with replicas
    /// reconstructing from their body caches and fetching only the bodies
    /// they miss. Bandwidth-frugal ordering; off by default.
    pub digest_proposals: bool,
}

impl SystemConfig {
    /// The paper's default medium configuration: SERVBFT-8 (8 shim nodes),
    /// 3 executors in 3 regions, batch size 100, 16-core shim nodes.
    #[must_use]
    pub fn servbft_8() -> Self {
        SystemConfig::with_shim_size(8)
    }

    /// The paper's large configuration: SERVBFT-32.
    #[must_use]
    pub fn servbft_32() -> Self {
        SystemConfig::with_shim_size(32)
    }

    /// A configuration with an arbitrary shim size and paper defaults for
    /// everything else.
    #[must_use]
    pub fn with_shim_size(n_r: usize) -> Self {
        SystemConfig {
            fault: FaultParams::for_shim_size(n_r),
            regions: RegionSet::first_n(3),
            timers: TimerConfig::default(),
            spawning: SpawningMode::PrimaryOnly,
            conflict_handling: ConflictHandling::NonConflicting,
            shim_cores: 16,
            verifier_cores: 8,
            workload: WorkloadConfig::default(),
            sharding: ShardingConfig::default(),
            durability: DurabilityConfig::default(),
            digest_proposals: false,
        }
    }

    /// A tiny configuration (4 nodes, 3 executors, single region, small
    /// batches) convenient for unit and integration tests.
    #[must_use]
    pub fn small_test() -> Self {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.regions = RegionSet::home_only();
        cfg.workload.batch_size = 5;
        cfg.workload.num_clients = 8;
        cfg.workload.num_records = 1_000;
        cfg
    }

    /// Number of executors the primary must spawn for each batch given the
    /// conflict-handling mode (`2f_E + 1` normally, `3f_E + 1` when
    /// read-write sets are unknown and conflicts are possible).
    #[must_use]
    pub fn executors_per_batch(&self) -> usize {
        match self.conflict_handling {
            ConflictHandling::UnknownRwSets => {
                self.fault.n_e.max(self.fault.executors_for_conflicts())
            }
            _ => self.fault.n_e,
        }
    }

    /// Total executors spawned per committed batch across the whole shim:
    /// what the primary spawns under [`SpawningMode::PrimaryOnly`], or the
    /// sum of every node's spawns under [`SpawningMode::Decentralized`]
    /// (each of the `n_R` nodes spawns `decentralized_spawn_count()`).
    /// The verifier uses this to know when every spawned executor has
    /// answered.
    #[must_use]
    pub fn spawned_per_batch(&self) -> usize {
        match self.spawning {
            SpawningMode::PrimaryOnly => self.executors_per_batch(),
            SpawningMode::Decentralized => self.fault.n_r * self.fault.decentralized_spawn_count(),
        }
    }

    /// The geo-partitioning of the execution shards over this
    /// deployment's regions, when [`ShardingConfig::geo_partitioned`] is
    /// set. Every component derives the identical map from the shared
    /// configuration — nothing about placement is ever communicated.
    #[must_use]
    pub fn region_partition(&self) -> Option<crate::RegionPartition> {
        self.sharding
            .geo_partitioned
            .then(|| crate::RegionPartition::new(self.regions.clone(), self.sharding.num_shards))
    }

    /// Validates fault parameters, regions, sharding and workload settings.
    pub fn validate(&self) -> SbftResult<()> {
        self.fault.validate()?;
        self.sharding.validate()?;
        self.durability.validate()?;
        if self.shim_cores == 0 || self.verifier_cores == 0 {
            return Err(SbftError::InvalidConfig(
                "shim and verifier need at least one core".into(),
            ));
        }
        if self.workload.batch_size == 0 {
            return Err(SbftError::InvalidConfig("batch size cannot be zero".into()));
        }
        if self.timers.checkpoint_interval == 0 {
            return Err(SbftError::InvalidConfig(
                "checkpoint interval cannot be zero".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.workload.conflict_fraction) {
            return Err(SbftError::InvalidConfig(
                "conflict fraction must lie in [0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.workload.write_fraction) {
            return Err(SbftError::InvalidConfig(
                "write fraction must lie in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_size_derives_max_faults() {
        assert_eq!(FaultParams::for_shim_size(4).f_r, 1);
        assert_eq!(FaultParams::for_shim_size(8).f_r, 2);
        assert_eq!(FaultParams::for_shim_size(32).f_r, 10);
        assert_eq!(FaultParams::for_shim_size(128).f_r, 42);
    }

    #[test]
    fn quorum_sizes_follow_paper() {
        let p = FaultParams::for_shim_size(8); // f_r = 2, n_e = 3, f_e = 1
        assert_eq!(p.shim_quorum(), 5);
        assert_eq!(p.verify_quorum(), 2);
        assert_eq!(p.verify_blame_threshold(), 3);
        assert_eq!(p.executors_for_conflicts(), 4);
        assert_eq!(p.view_change_quorum(), 5);
    }

    #[test]
    fn with_executors_derives_fe() {
        let p = FaultParams::for_shim_size(4).with_executors(11);
        assert_eq!(p.n_e, 11);
        assert_eq!(p.f_e, 5);
        let p1 = FaultParams::for_shim_size(4).with_executors(1);
        assert_eq!(p1.f_e, 0);
    }

    #[test]
    fn decentralized_spawn_equation_one() {
        // n_E ≤ n_R: one executor per node.
        let p = FaultParams::for_shim_size(8).with_executors(3);
        assert_eq!(p.decentralized_spawn_count(), 1);
        // n_E > n_R: ⌈n_E / (2f_R + 1)⌉.
        let p = FaultParams::for_shim_size(4).with_executors(9); // f_r=1, quorum=3
        assert_eq!(p.decentralized_spawn_count(), 3);
        let p = FaultParams::for_shim_size(4).with_executors(10);
        assert_eq!(p.decentralized_spawn_count(), 4);
    }

    #[test]
    fn validate_rejects_insufficient_replicas() {
        let mut p = FaultParams::for_shim_size(4);
        p.f_r = 2; // 4 < 3*2+1
        assert!(p.validate().is_err());
        let mut p = FaultParams::for_shim_size(4);
        p.n_e = 2;
        p.f_e = 1; // 2 < 3
        assert!(p.validate().is_err());
        assert!(FaultParams::for_shim_size(16).validate().is_ok());
    }

    #[test]
    fn default_configs_are_valid() {
        assert!(SystemConfig::servbft_8().validate().is_ok());
        assert!(SystemConfig::servbft_32().validate().is_ok());
        assert!(SystemConfig::small_test().validate().is_ok());
    }

    #[test]
    fn executors_per_batch_accounts_for_conflict_mode() {
        let mut cfg = SystemConfig::servbft_8();
        assert_eq!(cfg.executors_per_batch(), 3);
        cfg.conflict_handling = ConflictHandling::UnknownRwSets;
        assert_eq!(cfg.executors_per_batch(), 4); // 3·1 + 1
        cfg.fault = cfg.fault.with_executors(11); // f_e = 5 → 16
        assert_eq!(cfg.executors_per_batch(), 16);
    }

    #[test]
    fn spawned_per_batch_accounts_for_spawning_mode() {
        let mut cfg = SystemConfig::with_shim_size(4); // n_e = 3, f_e = 1
        assert_eq!(cfg.spawned_per_batch(), 3);
        cfg.conflict_handling = ConflictHandling::UnknownRwSets;
        assert_eq!(cfg.spawned_per_batch(), 4); // 3f_E + 1
        cfg.conflict_handling = ConflictHandling::NonConflicting;
        cfg.spawning = SpawningMode::Decentralized;
        // Every one of the 4 nodes spawns decentralized_spawn_count() = 1.
        assert_eq!(cfg.spawned_per_batch(), 4);
    }

    #[test]
    fn sharding_config_validates_and_defaults_to_one_shard() {
        assert_eq!(ShardingConfig::default().num_shards, 1);
        assert!(ShardingConfig::with_shards(8).validate().is_ok());
        assert!(ShardingConfig::with_shards(0).validate().is_err());
        assert!(ShardingConfig::with_shards(crate::ShardSet::CAPACITY)
            .validate()
            .is_ok());
        assert!(ShardingConfig::with_shards(crate::ShardSet::CAPACITY + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn geo_partitioning_is_off_by_default_and_derives_the_shared_map() {
        let mut cfg = SystemConfig::servbft_8();
        assert!(!cfg.sharding.geo_partitioned);
        assert!(cfg.sharding.pinned_placement);
        assert!(cfg.region_partition().is_none());
        cfg.sharding = ShardingConfig::with_shards(8).with_geo_partitioning();
        let part = cfg.region_partition().expect("geo map derived");
        assert_eq!(part.num_shards(), 8);
        assert_eq!(part.regions(), &cfg.regions);
        // The round-robin baseline keeps the partition but not the pin.
        cfg.sharding = cfg.sharding.with_pinned_placement(false);
        assert!(cfg.region_partition().is_some());
        assert!(!cfg.sharding.pinned_placement);
    }

    #[test]
    fn validate_rejects_bad_workload() {
        let mut cfg = SystemConfig::small_test();
        cfg.workload.conflict_fraction = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::small_test();
        cfg.workload.batch_size = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::small_test();
        cfg.shim_cores = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn durability_defaults_off_and_validates_interval() {
        let cfg = SystemConfig::servbft_8();
        assert!(!cfg.durability.enabled);
        assert!(DurabilityConfig::enabled().enabled);
        let mut cfg = SystemConfig::small_test();
        cfg.durability = DurabilityConfig::enabled().with_snapshot_interval(0);
        assert!(cfg.validate().is_err());
        cfg.durability = DurabilityConfig::enabled().with_snapshot_interval(4);
        assert!(cfg.validate().is_ok());
        // Disabled durability never rejects, whatever the interval.
        cfg.durability = DurabilityConfig {
            enabled: false,
            snapshot_interval: 0,
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_a_zero_checkpoint_interval() {
        let mut cfg = SystemConfig::small_test();
        cfg.timers.checkpoint_interval = 0;
        assert!(matches!(cfg.validate(), Err(SbftError::InvalidConfig(_))));
        cfg.timers.checkpoint_interval = 1;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn the_gc_cutoff_keeps_one_closed_interval_behind_the_last_checkpoint() {
        // Nothing is dropped before the second checkpoint.
        for validated in 0..8 {
            assert_eq!(checkpoint_gc_cutoff(SeqNum(validated), 4), SeqNum(0));
        }
        // Checkpoint 8 is stable: 1..=4 go, 5..=8 stay.
        assert_eq!(checkpoint_gc_cutoff(SeqNum(8), 4), SeqNum(4));
        assert_eq!(checkpoint_gc_cutoff(SeqNum(11), 4), SeqNum(4));
        assert_eq!(checkpoint_gc_cutoff(SeqNum(12), 4), SeqNum(8));
        assert_eq!(checkpoint_gc_cutoff(SeqNum(250), 100), SeqNum(100));
        // An interval of one keeps exactly the last validated batch.
        assert_eq!(checkpoint_gc_cutoff(SeqNum(9), 1), SeqNum(8));
    }

    #[test]
    fn default_timers_are_ordered_sensibly() {
        let t = TimerConfig::default();
        assert!(t.client_timeout > t.node_timeout);
        assert!(t.node_timeout > t.retransmit_timeout);
    }
}
