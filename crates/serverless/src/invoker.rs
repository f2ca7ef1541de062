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
//! The paper spawns round-robin across the enabled regions, splitting a
//! batch's executors "evenly" (Section IX-E). A rotation counter runs
//! across batches, so with `count = q·L + r` executors over `L` regions the
//! region that hosts a batch's `r` surplus executors changes from batch to
//! batch. Where the executors' storage sits at the verifier's site (the
//! default, [`Invoker::new`]), ordinals `0..q·L` keep that rotation and
//! the last `r` go to the `r` nearest regions that are up, by
//! [`Region::one_way_latency_ms_from_home`]. Every region still hosts `q`
//! or `q + 1` of the batch, but the `f_E + 1` quorum the verifier waits
//! for can form one hop away: 4 executors over North California, Oregon
//! and Ohio always put two in North California. With fewer executors than
//! regions (`q = 0`) or an exact multiple (`r = 0`) the rotation stands.
//!
//! With geo-partitioned storage ([`Invoker::geo`]) the data is not at the
//! verifier's site, so the nearest region buys nothing and the paper's
//! rotation stands for every count. The invoker can instead place by data:
//! a batch whose keys all route to shard `s` (its [`ShardPlan`], which the
//! spawner derives from the batch itself) has its whole read-write
//! footprint in shard `s`'s partition, so its executors
//! are *pinned* to that shard's home region — every storage fetch becomes
//! local. Pinning falls back to the round-robin rotation, deterministically,
//! when the home region is not in the spawnable set or is marked faulted
//! (a [`crate::faults::RegionOutage`]). Cross-home and unplanned batches
//! keep the paper's rotation.
//!
//! Every rule advances the rotation counter by the batch's count, so a
//! batch's rotated executors start where the paper's would. Placement is
//! strictly a performance hint: every executor runs the same deterministic
//! function wherever it lands, so outcomes, responses and final state are
//! identical under any placement — the equivalence proptests pin that
//! down.

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
    /// The spawnable regions nearest to the verifier first, where a
    /// batch's surplus executors go; `None` over geo-partitioned storage,
    /// which keeps the paper's rotation.
    nearest: Option<RegionSet>,
    /// The shard → home-region map of the geo-partitioned storage, when
    /// `SingleHome` batches are pinned; `None` never pins.
    partition: Option<RegionPartition>,
    /// Regions currently believed faulted (region outages observed by
    /// this node); placement avoids them while any region is up.
    down_regions: BTreeSet<Region>,
    /// Executors placed by pinning (`shim.<node>.invoker.pinned_spawns`).
    pinned_spawns: Counter,
    /// Batches whose pin was refused (home region missing or faulted)
    /// and that fell back to the rotation
    /// (`shim.<node>.invoker.placement_fallbacks`).
    placement_fallbacks: Counter,
}

impl Invoker {
    /// Creates the invoker for a shim node whose executors read storage at
    /// the verifier's site: the rotation, with a batch's surplus executors
    /// in the nearest regions.
    #[must_use]
    pub fn new(node: NodeId, regions: RegionSet) -> Self {
        Invoker {
            node,
            nearest: Some(regions.by_latency()),
            regions,
            spawned_so_far: 0,
            partition: None,
            down_regions: BTreeSet::new(),
            pinned_spawns: Counter::new(),
            placement_fallbacks: Counter::new(),
        }
    }

    /// Creates the invoker for a shim node over geo-partitioned storage:
    /// the paper's rotation, and with `pin` the plan-aware pinning of
    /// `SingleHome` batches to their shard's home region.
    #[must_use]
    pub fn geo(node: NodeId, regions: RegionSet, pin: Option<RegionPartition>) -> Self {
        Invoker {
            nearest: None,
            partition: pin,
            ..Self::new(node, regions)
        }
    }

    /// Whether [`Self::plan_placed`] reads its plan: only an invoker that
    /// pins `SingleHome` batches to their shard's home region does.
    #[must_use]
    pub fn pins(&self) -> bool {
        self.partition.is_some()
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
    /// spread as evenly as possible over the regions (the paper "tried to
    /// evenly split these executors across these regions").
    pub fn plan(&mut self, seq: SeqNum, count: usize) -> SpawnPlan {
        self.plan_placed(seq, count, ShardPlan::Unplanned)
    }

    /// Plans the spawning of `count` executors for the batch at `seq`,
    /// consulting the batch's [`ShardPlan`], which the caller derives
    /// from the batch: a geo deployment pins a `SingleHome` batch's
    /// executors to its shard's home region, everything else is placed
    /// by the module's rotation rule.
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
        let rotated = self.rotated_count(count);
        let requests = (0..count)
            .map(|i| SpawnRequest {
                spawner: self.node,
                region: if i < rotated {
                    self.round_robin_region(self.spawned_so_far + i)
                } else {
                    self.surplus_region(i - rotated)
                },
                seq,
            })
            .collect();
        self.spawned_so_far += count;
        SpawnPlan { seq, requests }
    }

    /// How many of a batch's `count` executors follow the rotation: the
    /// full rounds `q·L` of `count = q·L + r` when storage is at the
    /// verifier's site and `q ≥ 1`, otherwise all of them.
    fn rotated_count(&self, count: usize) -> usize {
        let l = self.regions.len();
        if self.nearest.is_some() && count > l {
            count - count % l
        } else {
            count
        }
    }

    /// The region of a batch's `j`-th surplus executor: the `j`-th nearest
    /// region that is up (cycling when fewer are up than there are surplus
    /// executors), or the `j`-th nearest when every region is down.
    fn surplus_region(&self, j: usize) -> Region {
        let nearest = self
            .nearest
            .as_ref()
            .expect("only storage at the verifier's site has surplus executors");
        nearest
            .regions()
            .iter()
            .copied()
            .filter(|r| !self.down_regions.contains(r))
            .cycle()
            .nth(j)
            .unwrap_or_else(|| nearest.round_robin(j))
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
        Invoker::geo(
            NodeId(0),
            set.clone(),
            Some(RegionPartition::new(set, shards)),
        )
    }

    fn regions_of(plan: &SpawnPlan) -> Vec<Region> {
        plan.requests.iter().map(|r| r.region).collect()
    }

    fn counts_of(plan: &SpawnPlan) -> std::collections::BTreeMap<Region, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for r in &plan.requests {
            *counts.entry(r.region).or_insert(0usize) += 1;
        }
        counts
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
    fn four_over_three_puts_the_fourth_in_north_california_on_every_batch() {
        let mut invoker = Invoker::new(NodeId(0), RegionSet::first_n(3));
        let rotation = [Region::NorthCalifornia, Region::Oregon, Region::Ohio];
        for b in 0..6 {
            let plan = invoker.plan(SeqNum(b + 1), 4);
            let regions = regions_of(&plan);
            // The full round keeps the paper's rotation across batches…
            for (i, region) in regions[..3].iter().enumerate() {
                assert_eq!(*region, rotation[(4 * b as usize + i) % 3], "batch {b}");
            }
            // …and the surplus executor is always the nearest one.
            assert_eq!(regions[3], Region::NorthCalifornia, "batch {b}");
            assert_eq!(counts_of(&plan)[&Region::NorthCalifornia], 2);
        }
    }

    #[test]
    fn surplus_executors_go_to_the_nearest_regions_by_latency() {
        let set = RegionSet::first_n(7);
        let by_latency = set.by_latency();
        // Every region hosts one executor of the batch, and exactly the
        // nearest `surplus` host a second: the split stays even.
        for (count, surplus) in [(11, 4), (13, 6)] {
            let mut invoker = Invoker::new(NodeId(2), set.clone());
            for b in 0..7 {
                let plan = invoker.plan(SeqNum(b + 1), count);
                let counts = counts_of(&plan);
                let doubled: BTreeSet<Region> = counts
                    .iter()
                    .filter(|(_, n)| **n == 2)
                    .map(|(r, _)| *r)
                    .collect();
                let nearest: BTreeSet<Region> =
                    by_latency.regions()[..surplus].iter().copied().collect();
                assert_eq!(doubled, nearest, "{count} executors, batch {b}");
                assert_eq!(counts.len(), 7, "{count} executors, batch {b}");
            }
        }
        // Thirteen over seven doubles London and Ireland, not Frankfurt,
        // which is enabled before them but is farther.
        let plan = Invoker::new(NodeId(0), set).plan(SeqNum(1), 13);
        let counts = counts_of(&plan);
        assert_eq!(counts[&Region::London], 2);
        assert_eq!(counts[&Region::Ireland], 2);
        assert_eq!(counts[&Region::Frankfurt], 1);
    }

    #[test]
    fn multiples_of_the_region_count_and_fewer_keep_the_rotation() {
        let set = RegionSet::first_n(3);
        let mut near = Invoker::new(NodeId(0), set.clone());
        let mut paper = Invoker::geo(NodeId(0), set, None);
        for (b, count) in [2, 3, 6, 1, 2, 9, 3, 2, 1].into_iter().enumerate() {
            let seq = SeqNum(b as u64 + 1);
            assert_eq!(
                near.plan(seq, count),
                paper.plan(seq, count),
                "{count} executors"
            );
        }
        // Fewer executors than regions: the rotation across batches
        // decides, as in Figure 6(vii).
        let set = RegionSet::first_n(7);
        let mut near = Invoker::new(NodeId(0), set.clone());
        let mut paper = Invoker::geo(NodeId(0), set, None);
        for b in 0..7 {
            assert_eq!(near.plan(SeqNum(b + 1), 3), paper.plan(SeqNum(b + 1), 3));
        }
    }

    #[test]
    fn a_down_nearest_region_passes_the_surplus_to_the_next() {
        let mut invoker = Invoker::new(NodeId(0), RegionSet::first_n(3));
        invoker.mark_region_down(Region::NorthCalifornia);
        let plan = invoker.plan(SeqNum(1), 4);
        assert_eq!(plan.requests[3].region, Region::Oregon);
        assert!(plan
            .requests
            .iter()
            .all(|r| r.region != Region::NorthCalifornia));
        // Two surplus executors and one region up: both land there.
        let mut invoker = Invoker::new(NodeId(0), RegionSet::first_n(3));
        invoker.mark_region_down(Region::NorthCalifornia);
        invoker.mark_region_down(Region::Oregon);
        let plan = invoker.plan(SeqNum(1), 5);
        assert!(plan.requests.iter().all(|r| r.region == Region::Ohio));
        // Every region down: the surplus falls back to the nearest, as the
        // rotation falls back to its own candidate.
        invoker.mark_region_down(Region::Ohio);
        let plan = invoker.plan(SeqNum(2), 4);
        assert_eq!(plan.requests[3].region, Region::NorthCalifornia);
    }

    #[test]
    fn geo_partitioned_invokers_keep_the_paper_rotation() {
        let paper = [
            Region::NorthCalifornia,
            Region::Oregon,
            Region::Ohio,
            Region::NorthCalifornia,
            Region::Oregon,
            Region::Ohio,
            Region::NorthCalifornia,
            Region::Oregon,
        ];
        for mut invoker in [
            Invoker::geo(NodeId(0), RegionSet::first_n(3), None),
            geo_invoker(3, 8),
        ] {
            let first = invoker.plan_placed(SeqNum(1), 4, ShardPlan::CrossHome);
            let second = invoker.plan(SeqNum(2), 4);
            assert_eq!(regions_of(&first), paper[..4]);
            assert_eq!(regions_of(&second), paper[4..]);
        }
    }

    #[test]
    fn surplus_placement_advances_the_rotation_by_the_count() {
        let mut invoker = Invoker::new(NodeId(0), RegionSet::first_n(3));
        let _ = invoker.plan(SeqNum(1), 4);
        assert_eq!(invoker.spawned_so_far, 4);
        let plan = invoker.plan(SeqNum(2), 4);
        assert_eq!(plan.requests[0].region, Region::Oregon);
        assert_eq!(invoker.spawned_so_far, 8);
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
    fn cross_home_and_unplanned_batches_keep_the_rotation() {
        let mut invoker = geo_invoker(3, 8);
        let cross = invoker.plan_placed(SeqNum(1), 3, ShardPlan::CrossHome);
        let regions: Vec<Region> = cross.requests.iter().map(|r| r.region).collect();
        assert_eq!(
            regions,
            vec![Region::NorthCalifornia, Region::Oregon, Region::Ohio]
        );
        let unplanned = invoker.plan_placed(SeqNum(2), 2, ShardPlan::Unplanned);
        assert_eq!(unplanned.requests[0].region, Region::NorthCalifornia);
        assert_eq!(invoker.pinned_spawns.get(), 0);
        assert_eq!(invoker.placement_fallbacks.get(), 0);
    }

    #[test]
    fn pinning_advances_the_rotation_in_lockstep_with_round_robin() {
        // After one pinned batch of 2, the next rotated batch must start
        // exactly where a rotation-only invoker would have been.
        let mut pinned = geo_invoker(3, 8);
        let _ = pinned.plan_placed(SeqNum(1), 2, ShardPlan::SingleHome(ShardId(1)));
        let mut rotated = Invoker::geo(NodeId(0), RegionSet::first_n(3), None);
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
        let mut invoker = Invoker::geo(
            NodeId(0),
            spawnable,
            Some(RegionPartition::new(RegionSet::first_n(5), 5)),
        );
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
