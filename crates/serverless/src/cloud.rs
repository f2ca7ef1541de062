//! The serverless cloud control plane.
//!
//! Models the part of AWS Lambda the protocol can observe: spawn requests
//! accepted or rejected (the provider's concurrency limit stopped the paper
//! at 21 parallel executors), per-region placement with cold-start latency,
//! unique executor identities (Section III-A, *Identity*), and the
//! assignment of byzantine behaviours to up to `f_E` executors per batch
//! (*lack of trust at the serverless cloud*).

use crate::faults::{ExecutorBehavior, RegionOutage};
use sbft_types::{ExecutorId, NodeId, Region, SbftError, SbftResult, SeqNum, SimDuration};
use std::collections::BTreeMap;

/// A request to spawn one executor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpawnRequest {
    /// The shim node spawning (and paying for) the executor.
    pub spawner: NodeId,
    /// The region to spawn in.
    pub region: Region,
    /// The batch (sequence number) this executor will work on.
    pub seq: SeqNum,
}

/// The cloud's answer to a successful spawn request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpawnOutcome {
    /// The unique identity assigned to the new executor.
    pub executor: ExecutorId,
    /// Where it runs.
    pub region: Region,
    /// Cold-start latency before the function begins executing.
    pub cold_start: SimDuration,
    /// The behaviour the (possibly untrusted) cloud gives this executor.
    pub behavior: ExecutorBehavior,
}

/// How many executors per batch the cloud corrupts, and how.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CloudFaultPlan {
    /// Number of byzantine executors among those spawned for each batch
    /// (at most `f_E` in the experiments).
    pub byzantine_per_batch: usize,
    /// The behaviour assigned to those executors.
    pub behavior: ExecutorBehavior,
}

/// The simulated serverless cloud.
#[derive(Debug)]
pub struct ServerlessCloud {
    next_id: u64,
    concurrency_limit: usize,
    active: usize,
    cold_start: SimDuration,
    fault_plan: CloudFaultPlan,
    /// Regions currently offline: spawns into them are rejected.
    outage: RegionOutage,
    /// Spawns per batch, used to apply the fault plan deterministically.
    spawns_by_seq: BTreeMap<SeqNum, usize>,
    total_spawned: u64,
    rejected: u64,
}

/// The default AWS Lambda account concurrency limit observed in the paper's
/// experiments ("could not scale further due to limits by cloud provider").
const DEFAULT_CONCURRENCY_LIMIT: usize = 21;

/// A typical warm-ish Lambda cold-start latency.
pub const DEFAULT_COLD_START: SimDuration = SimDuration::from_millis(25);

impl ServerlessCloud {
    /// Creates a cloud with the default concurrency limit and no faults.
    #[must_use]
    pub fn new() -> Self {
        Self::with_limits(DEFAULT_CONCURRENCY_LIMIT, DEFAULT_COLD_START)
    }

    /// Creates a cloud with an explicit concurrency limit and cold start.
    #[must_use]
    pub fn with_limits(concurrency_limit: usize, cold_start: SimDuration) -> Self {
        assert!(
            concurrency_limit > 0,
            "the cloud must allow at least one executor"
        );
        ServerlessCloud {
            next_id: 0,
            concurrency_limit,
            active: 0,
            cold_start,
            fault_plan: CloudFaultPlan::default(),
            outage: RegionOutage::none(),
            spawns_by_seq: BTreeMap::new(),
            total_spawned: 0,
            rejected: 0,
        }
    }

    /// Configures the byzantine-executor plan.
    pub fn set_fault_plan(&mut self, plan: CloudFaultPlan) {
        self.fault_plan = plan;
    }

    /// Applies a region-outage scenario: spawns into downed regions fail
    /// until the outage is lifted.
    pub fn set_region_outage(&mut self, outage: RegionOutage) {
        self.outage = outage;
    }

    /// Whether the active outage scenario takes `region` offline (what
    /// lets a runtime translate a rejected spawn into the reactive
    /// region-outage signal for the spawning node's invoker).
    #[must_use]
    pub fn region_is_down(&self, region: Region) -> bool {
        self.outage.affects(region)
    }

    /// Handles a spawn request. Fails if the target region is offline or
    /// the concurrency limit is reached.
    pub fn spawn(&mut self, req: SpawnRequest) -> SbftResult<SpawnOutcome> {
        if self.outage.affects(req.region) {
            self.rejected += 1;
            return Err(SbftError::SpawnRejected(format!(
                "region {} is offline",
                req.region
            )));
        }
        if self.active >= self.concurrency_limit {
            self.rejected += 1;
            return Err(SbftError::SpawnRejected(format!(
                "concurrency limit of {} parallel executors reached",
                self.concurrency_limit
            )));
        }
        let id = ExecutorId(self.next_id);
        self.next_id += 1;
        self.active += 1;
        self.total_spawned += 1;
        let ordinal = self.spawns_by_seq.entry(req.seq).or_insert(0);
        // The first `byzantine_per_batch` executors of each batch are the
        // corrupted ones — deterministic, so experiments are reproducible.
        let behavior = if *ordinal < self.fault_plan.byzantine_per_batch {
            self.fault_plan.behavior
        } else {
            ExecutorBehavior::Honest
        };
        *ordinal += 1;
        Ok(SpawnOutcome {
            executor: id,
            region: req.region,
            cold_start: self.cold_start,
            behavior,
        })
    }

    /// Marks an executor as finished, releasing its concurrency slot.
    pub fn release(&mut self, _executor: ExecutorId) {
        self.active = self.active.saturating_sub(1);
    }

    /// Total executors spawned so far.
    #[must_use]
    pub fn total_spawned(&self) -> u64 {
        self.total_spawned
    }

    /// Spawn requests rejected for any reason (concurrency limit or
    /// region outage).
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl Default for ServerlessCloud {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(spawner: u32, seq: u64) -> SpawnRequest {
        SpawnRequest {
            spawner: NodeId(spawner),
            region: Region::Oregon,
            seq: SeqNum(seq),
        }
    }

    #[test]
    fn spawns_get_unique_ids_and_are_accounted() {
        let mut cloud = ServerlessCloud::new();
        let a = cloud.spawn(req(0, 1)).unwrap();
        let b = cloud.spawn(req(0, 1)).unwrap();
        let c = cloud.spawn(req(1, 1)).unwrap();
        assert_ne!(a.executor, b.executor);
        assert_ne!(b.executor, c.executor);
        assert_eq!(cloud.spawns_by_seq.get(&SeqNum(1)), Some(&3));
        assert_eq!(cloud.total_spawned(), 3);
        assert_eq!(cloud.active, 3);
    }

    #[test]
    fn concurrency_limit_rejects_excess_spawns() {
        let mut cloud = ServerlessCloud::with_limits(2, SimDuration::ZERO);
        cloud.spawn(req(0, 1)).unwrap();
        cloud.spawn(req(0, 1)).unwrap();
        let err = cloud.spawn(req(0, 1)).unwrap_err();
        assert!(matches!(err, SbftError::SpawnRejected(_)));
        assert_eq!(cloud.rejected(), 1);
        // Releasing a slot allows spawning again.
        cloud.release(ExecutorId(0));
        assert!(cloud.spawn(req(0, 1)).is_ok());
    }

    #[test]
    fn paper_default_limit_is_21() {
        let mut cloud = ServerlessCloud::new();
        for _ in 0..21 {
            cloud.spawn(req(0, 1)).unwrap();
        }
        assert!(cloud.spawn(req(0, 1)).is_err());
    }

    #[test]
    fn fault_plan_corrupts_first_k_per_batch() {
        let mut cloud = ServerlessCloud::new();
        cloud.set_fault_plan(CloudFaultPlan {
            byzantine_per_batch: 1,
            behavior: ExecutorBehavior::WrongResult,
        });
        let outcomes: Vec<_> = (0..3).map(|_| cloud.spawn(req(0, 7)).unwrap()).collect();
        assert_eq!(outcomes[0].behavior, ExecutorBehavior::WrongResult);
        assert_eq!(outcomes[1].behavior, ExecutorBehavior::Honest);
        assert_eq!(outcomes[2].behavior, ExecutorBehavior::Honest);
        // A different batch gets its own byzantine executor.
        let fresh = cloud.spawn(req(0, 8)).unwrap();
        assert_eq!(fresh.behavior, ExecutorBehavior::WrongResult);
    }

    #[test]
    fn release_never_underflows() {
        let mut cloud = ServerlessCloud::new();
        cloud.release(ExecutorId(99));
        assert_eq!(cloud.active, 0);
    }

    #[test]
    fn region_outage_rejects_spawns_until_lifted() {
        use crate::faults::RegionOutage;
        let mut cloud = ServerlessCloud::new();
        cloud.set_region_outage(RegionOutage::of(Region::Oregon));
        let err = cloud.spawn(req(0, 1)).unwrap_err();
        assert!(matches!(err, SbftError::SpawnRejected(_)));
        assert_eq!(cloud.rejected(), 1);
        // Other regions are unaffected.
        let ok = cloud.spawn(SpawnRequest {
            spawner: NodeId(0),
            region: Region::Ohio,
            seq: SeqNum(1),
        });
        assert!(ok.is_ok());
        // Lifting the outage restores the region.
        cloud.set_region_outage(RegionOutage::none());
        assert!(cloud.spawn(req(0, 1)).is_ok());
    }

    #[test]
    fn cold_start_reported_in_outcome() {
        let mut cloud = ServerlessCloud::with_limits(4, SimDuration::from_millis(40));
        assert_eq!(
            cloud.spawn(req(0, 1)).unwrap().cold_start,
            SimDuration::from_millis(40)
        );
    }
}
