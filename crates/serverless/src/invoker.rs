//! The invoker deployed on every shim node.
//!
//! "At each shim node, we deploy an invoker to spawn `n_E` executors when
//! indicated by the node's consensus instance. […] our invoker does not
//! wait for the spawned executors to finish and proceeds to spawn the
//! executors for the next client request" (Section VIII). The invoker is a
//! pure planner: given a committed batch it decides how many executors to
//! spawn and in which regions, and the runtime turns the plan into
//! [`crate::cloud::SpawnRequest`]s.
//!
//! # Placement policy
//!
//! The paper spawns round-robin across the enabled regions (Section
//! IX-E). With geo-partitioned storage the invoker can do better: a batch
//! whose replicated [`ShardPlan`] tag says `SingleHome(s)` has its whole
//! read-write footprint in shard `s`'s partition, so its executors are
//! *pinned* to that shard's home region — every storage fetch becomes
//! local. Pinning falls back to the round-robin rotation, deterministically,
//! when the home region is not in the spawnable set or is marked faulted
//! (a [`crate::faults::RegionOutage`]). Cross-home and untagged batches
//! keep the paper's rotation. Placement is strictly a performance hint:
//! every executor runs the same deterministic function wherever it lands,
//! so outcomes, responses and final state are identical under any
//! placement — the equivalence proptests pin that down.

use crate::cloud::SpawnRequest;
use sbft_telemetry::{Counter, Registry};
use sbft_types::{NodeId, Region, RegionPartition, RegionSet, SeqNum, ShardPlan};
use std::collections::BTreeSet;

/// A plan for spawning the executors of one committed batch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpawnPlan {
    /// The batch these executors will execute.
    pub seq: SeqNum,
    /// One spawn request per executor, already placed in a region.
    pub requests: Vec<SpawnRequest>,
}

/// The per-node invoker.
#[derive(Clone, Debug)]
pub struct Invoker {
    node: NodeId,
    regions: RegionSet,
    /// Monotonic counter used to rotate the region round-robin across
    /// batches as well as within a batch. Advanced identically whether a
    /// batch is pinned or rotated, so the rotation state — and therefore
    /// every later placement decision — is independent of how earlier
    /// batches were placed.
    spawned_so_far: usize,
    /// The shard → home-region map of the geo-partitioned storage.
    /// `None` (the default) reproduces the paper's pure rotation.
    partition: Option<RegionPartition>,
    /// Regions currently believed faulted (region outages observed by
    /// this node); pinning never targets them.
    down_regions: BTreeSet<Region>,
    /// Executors placed by pinning (`shim.<node>.invoker.pinned_spawns`).
    pinned_spawns: Counter,
    /// Batches whose pin was refused (home region missing or faulted)
    /// and that fell back to the rotation
    /// (`shim.<node>.invoker.placement_fallbacks`).
    placement_fallbacks: Counter,
}

impl Invoker {
    /// Creates the invoker for a shim node (round-robin placement).
    #[must_use]
    pub fn new(node: NodeId, regions: RegionSet) -> Self {
        Invoker {
            node,
            regions,
            spawned_so_far: 0,
            partition: None,
            down_regions: BTreeSet::new(),
            pinned_spawns: Counter::new(),
            placement_fallbacks: Counter::new(),
        }
    }

    /// Enables plan-aware placement against a geo-partitioned store.
    #[must_use]
    pub fn with_partition(mut self, partition: RegionPartition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Marks a region as faulted: pinning avoids it until it recovers.
    pub fn mark_region_down(&mut self, region: Region) {
        self.down_regions.insert(region);
    }

    /// Marks a region as recovered.
    pub fn mark_region_up(&mut self, region: Region) {
        self.down_regions.remove(&region);
    }

    /// Whether `region` is currently marked down on this invoker.
    #[must_use]
    pub fn is_region_down(&self, region: Region) -> bool {
        self.down_regions.contains(&region)
    }

    /// Re-homes the placement counters into `registry` under
    /// `shim.<node>.invoker.*`.
    pub fn register_metrics(&mut self, registry: &Registry) {
        let node = self.node.0;
        self.pinned_spawns = registry.counter(&format!("shim.{node}.invoker.pinned_spawns"));
        self.placement_fallbacks =
            registry.counter(&format!("shim.{node}.invoker.placement_fallbacks"));
    }

    /// Plans the spawning of `count` executors for the batch at `seq`,
    /// assigning regions round-robin so the executors are spread as evenly
    /// as possible (the paper "tried to evenly split these executors across
    /// these regions").
    pub fn plan(&mut self, seq: SeqNum, count: usize) -> SpawnPlan {
        self.plan_placed(seq, count, ShardPlan::Unplanned)
    }

    /// Plans the spawning of `count` executors for the batch at `seq`,
    /// consulting the batch's replicated [`ShardPlan`] tag: a verified
    /// geo deployment pins a `SingleHome` batch's executors to its
    /// shard's home region, everything else rotates.
    pub fn plan_placed(&mut self, seq: SeqNum, count: usize, plan: ShardPlan) -> SpawnPlan {
        if count == 0 {
            return SpawnPlan {
                seq,
                requests: Vec::new(),
            };
        }
        if let Some(home) = self.pin_target(plan) {
            // Advance the rotation exactly as a rotated batch would have,
            // so later batches place identically either way.
            self.spawned_so_far += count;
            self.pinned_spawns.add(count as u64);
            return SpawnPlan {
                seq,
                requests: (0..count)
                    .map(|_| SpawnRequest {
                        spawner: self.node,
                        region: home,
                        seq,
                    })
                    .collect(),
            };
        }
        if self.partition.is_some() && plan.is_single_home() {
            self.placement_fallbacks.inc();
        }
        let requests = (0..count)
            .map(|i| SpawnRequest {
                spawner: self.node,
                region: self.round_robin_region(self.spawned_so_far + i),
                seq,
            })
            .collect();
        self.spawned_so_far += count;
        SpawnPlan { seq, requests }
    }

    /// The region a `SingleHome` batch would be pinned to, if pinning is
    /// possible: geo placement enabled, the home region spawnable and not
    /// faulted.
    fn pin_target(&self, plan: ShardPlan) -> Option<Region> {
        let partition = self.partition.as_ref()?;
        let home = partition.home_of(plan.home()?);
        let usable = self.regions.contains(home) && !self.down_regions.contains(&home);
        usable.then_some(home)
    }

    /// The rotation, skipping faulted regions (unless every region is
    /// down, in which case the plain rotation stands — the cloud will
    /// reject and the recovery path takes over).
    fn round_robin_region(&self, i: usize) -> Region {
        let candidate = self.regions.round_robin(i);
        if self.down_regions.contains(&candidate) {
            if let Some(up) = (0..self.regions.len())
                .map(|step| self.regions.round_robin(i + step))
                .find(|r| !self.down_regions.contains(r))
            {
                return up;
            }
        }
        candidate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{Region, RegionPartition, ShardId};

    fn geo_invoker(regions: usize, shards: usize) -> Invoker {
        let set = RegionSet::first_n(regions);
        Invoker::new(NodeId(0), set.clone()).with_partition(RegionPartition::new(set, shards))
    }

    #[test]
    fn plan_spawns_requested_count_for_the_right_batch() {
        let mut invoker = Invoker::new(NodeId(0), RegionSet::first_n(3));
        let plan = invoker.plan(SeqNum(5), 3);
        assert_eq!(plan.seq, SeqNum(5));
        assert_eq!(plan.requests.len(), 3);
        assert!(plan.requests.iter().all(|r| r.spawner == NodeId(0)));
        assert!(plan.requests.iter().all(|r| r.seq == SeqNum(5)));
    }

    #[test]
    fn regions_are_assigned_round_robin_within_a_batch() {
        let mut invoker = Invoker::new(NodeId(0), RegionSet::first_n(3));
        let plan = invoker.plan(SeqNum(1), 3);
        let regions: Vec<Region> = plan.requests.iter().map(|r| r.region).collect();
        assert_eq!(
            regions,
            vec![Region::NorthCalifornia, Region::Oregon, Region::Ohio]
        );
    }

    #[test]
    fn round_robin_continues_across_batches() {
        let mut invoker = Invoker::new(NodeId(0), RegionSet::first_n(3));
        let _ = invoker.plan(SeqNum(1), 2);
        let plan = invoker.plan(SeqNum(2), 2);
        assert_eq!(plan.requests[0].region, Region::Ohio);
        assert_eq!(plan.requests[1].region, Region::NorthCalifornia);
        assert_eq!(invoker.spawned_so_far, 4);
    }

    #[test]
    fn eleven_executors_over_seven_regions_split_evenly() {
        let mut invoker = Invoker::new(NodeId(2), RegionSet::first_n(7));
        let plan = invoker.plan(SeqNum(1), 11);
        let mut counts = std::collections::BTreeMap::new();
        for r in &plan.requests {
            *counts.entry(r.region).or_insert(0usize) += 1;
        }
        let max = counts.values().max().unwrap();
        let min = counts.values().min().unwrap();
        assert!(max - min <= 1, "{counts:?}");
    }

    #[test]
    fn zero_executors_is_an_empty_plan() {
        let mut invoker = Invoker::new(NodeId(0), RegionSet::home_only());
        assert!(invoker.plan(SeqNum(1), 0).requests.is_empty());
    }

    #[test]
    fn single_home_batches_are_pinned_to_their_shards_home_region() {
        let mut invoker = geo_invoker(3, 8);
        // Shard 1 is homed in the second region of the set.
        let plan = invoker.plan_placed(SeqNum(1), 3, ShardPlan::SingleHome(ShardId(1)));
        assert!(plan.requests.iter().all(|r| r.region == Region::Oregon));
        assert_eq!(invoker.pinned_spawns.get(), 3);
        assert_eq!(invoker.placement_fallbacks.get(), 0);
    }

    #[test]
    fn cross_home_and_untagged_batches_keep_the_rotation() {
        let mut invoker = geo_invoker(3, 8);
        let cross = invoker.plan_placed(SeqNum(1), 3, ShardPlan::CrossHome);
        let regions: Vec<Region> = cross.requests.iter().map(|r| r.region).collect();
        assert_eq!(
            regions,
            vec![Region::NorthCalifornia, Region::Oregon, Region::Ohio]
        );
        let untagged = invoker.plan_placed(SeqNum(2), 2, ShardPlan::Unplanned);
        assert_eq!(untagged.requests[0].region, Region::NorthCalifornia);
        assert_eq!(invoker.pinned_spawns.get(), 0);
        assert_eq!(invoker.placement_fallbacks.get(), 0);
    }

    #[test]
    fn pinning_advances_the_rotation_in_lockstep_with_round_robin() {
        // After one pinned batch of 2, the next rotated batch must start
        // exactly where a rotation-only invoker would have been.
        let mut pinned = geo_invoker(3, 8);
        let _ = pinned.plan_placed(SeqNum(1), 2, ShardPlan::SingleHome(ShardId(1)));
        let mut rotated = Invoker::new(NodeId(0), RegionSet::first_n(3));
        let _ = rotated.plan(SeqNum(1), 2);
        assert_eq!(
            pinned.plan(SeqNum(2), 3).requests,
            rotated.plan(SeqNum(2), 3).requests,
        );
    }

    #[test]
    fn faulted_home_region_falls_back_to_the_rotation() {
        let mut invoker = geo_invoker(3, 8);
        invoker.mark_region_down(Region::Oregon);
        let plan = invoker.plan_placed(SeqNum(1), 3, ShardPlan::SingleHome(ShardId(1)));
        assert!(
            plan.requests.iter().all(|r| r.region != Region::Oregon),
            "the rotation must skip the faulted region too: {plan:?}"
        );
        let distinct: BTreeSet<Region> = plan.requests.iter().map(|r| r.region).collect();
        assert!(distinct.len() > 1, "a refused pin must spread: {plan:?}");
        assert_eq!(invoker.placement_fallbacks.get(), 1);
        assert_eq!(invoker.pinned_spawns.get(), 0);
        // Recovery restores the pin.
        invoker.mark_region_up(Region::Oregon);
        let plan = invoker.plan_placed(SeqNum(2), 3, ShardPlan::SingleHome(ShardId(1)));
        assert!(plan.requests.iter().all(|r| r.region == Region::Oregon));
    }

    #[test]
    fn home_region_outside_the_spawnable_set_falls_back() {
        // 2 spawnable regions but 5 shards homed over a 5-region map:
        // shards homed in regions this invoker cannot spawn into rotate.
        let spawnable = RegionSet::first_n(2);
        let mut invoker = Invoker::new(NodeId(0), spawnable)
            .with_partition(RegionPartition::new(RegionSet::first_n(5), 5));
        let plan = invoker.plan_placed(SeqNum(1), 2, ShardPlan::SingleHome(ShardId(4)));
        assert_eq!(plan.requests[0].region, Region::NorthCalifornia);
        assert_eq!(plan.requests[1].region, Region::Oregon);
        assert_eq!(invoker.placement_fallbacks.get(), 1);
    }

    #[test]
    fn rotation_skips_faulted_regions_when_possible() {
        let mut invoker = Invoker::new(NodeId(0), RegionSet::first_n(3));
        invoker.mark_region_down(Region::Oregon);
        let plan = invoker.plan(SeqNum(1), 3);
        assert!(plan.requests.iter().all(|r| r.region != Region::Oregon));
        // With every region down the plain rotation stands (the cloud
        // rejects; recovery handles it).
        invoker.mark_region_down(Region::NorthCalifornia);
        invoker.mark_region_down(Region::Ohio);
        let plan = invoker.plan(SeqNum(2), 1);
        assert_eq!(plan.requests.len(), 1);
    }
}
