//! The cloud regions used in the evaluation.
//!
//! The paper spawns AWS Lambda executors in up to eleven regions, in the
//! order: North California, Oregon, Ohio, Canada, Frankfurt, Ireland,
//! London, Paris, Stockholm, Seoul and Singapore (Section IX, *Setup*). The
//! verifier and shim are deployed in North California, so regions further
//! down the list have a larger round-trip time to the verifier.

use crate::ids::ShardId;
use std::fmt;

/// One of the eleven cloud regions of the evaluation setup.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[allow(missing_docs)]
pub enum Region {
    NorthCalifornia,
    Oregon,
    Ohio,
    Canada,
    Frankfurt,
    Ireland,
    London,
    Paris,
    Stockholm,
    Seoul,
    Singapore,
}

/// An ordered set of regions used for a particular experiment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionSet {
    regions: Vec<Region>,
}

impl Region {
    /// All eleven regions in the order the paper enables them.
    const ALL: [Region; 11] = [
        Region::NorthCalifornia,
        Region::Oregon,
        Region::Ohio,
        Region::Canada,
        Region::Frankfurt,
        Region::Ireland,
        Region::London,
        Region::Paris,
        Region::Stockholm,
        Region::Seoul,
        Region::Singapore,
    ];

    /// Approximate one-way network latency from the verifier/shim site
    /// (North California) to this region, in milliseconds. Values follow
    /// public inter-region RTT measurements; only their relative ordering
    /// matters for reproducing Figure 6(vii)–(viii).
    #[must_use]
    pub fn one_way_latency_ms_from_home(self) -> f64 {
        match self {
            Region::NorthCalifornia => 1.0,
            Region::Oregon => 11.0,
            Region::Ohio => 25.0,
            Region::Canada => 38.0,
            Region::Frankfurt => 73.0,
            Region::Ireland => 68.0,
            Region::London => 66.0,
            Region::Paris => 70.0,
            Region::Stockholm => 82.0,
            Region::Seoul => 67.0,
            Region::Singapore => 88.0,
        }
    }

    /// Human-readable region name matching the paper's text.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Region::NorthCalifornia => "North California",
            Region::Oregon => "Oregon",
            Region::Ohio => "Ohio",
            Region::Canada => "Canada",
            Region::Frankfurt => "Frankfurt",
            Region::Ireland => "Ireland",
            Region::London => "London",
            Region::Paris => "Paris",
            Region::Stockholm => "Stockholm",
            Region::Seoul => "Seoul",
            Region::Singapore => "Singapore",
        }
    }
}

impl RegionSet {
    /// The first `n` regions in the paper's enablement order.
    ///
    /// # Panics
    /// Panics if `n` is zero or greater than eleven.
    #[must_use]
    pub fn first_n(n: usize) -> Self {
        assert!(n >= 1 && n <= Region::ALL.len(), "1..=11 regions supported");
        RegionSet {
            regions: Region::ALL[..n].to_vec(),
        }
    }

    /// A set containing only the home region (used for latency-free tests).
    #[must_use]
    pub fn home_only() -> Self {
        RegionSet {
            regions: vec![Region::NorthCalifornia],
        }
    }

    /// Number of regions in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the set is empty (never true for constructed sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The regions in order.
    #[must_use]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Round-robin assignment of the `i`-th spawned executor to a region,
    /// matching the primary's round-robin spawning policy (Section IX-E).
    #[must_use]
    pub fn round_robin(&self, i: usize) -> Region {
        self.regions[i % self.regions.len()]
    }

    /// Whether the set contains `region`.
    #[must_use]
    pub fn contains(&self, region: Region) -> bool {
        self.regions.contains(&region)
    }
}

/// The geo-partitioning of the execution shards across regions: every
/// shard has exactly one *home region* where its storage partition lives.
///
/// The map is a pure function of `(region set, shard count)` — shard `s`
/// is homed in `regions[s mod |regions|]` — so the shim's invoker, the
/// verifier's runtime, the simulator and the experiment binaries all
/// derive the identical placement without ever exchanging it. This is the
/// geo analogue of [`crate::ShardPlan`]'s trust-but-verify rule: because
/// everyone can re-derive the map, no component ever has to believe
/// another's claim about where a shard lives.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionPartition {
    regions: RegionSet,
    num_shards: usize,
}

impl RegionPartition {
    /// Builds the partition of `num_shards` shards over a region set.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    #[must_use]
    pub fn new(regions: RegionSet, num_shards: usize) -> Self {
        assert!(num_shards >= 1, "a partition needs at least one shard");
        RegionPartition {
            regions,
            num_shards,
        }
    }

    /// Number of shards being partitioned.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The regions the shards are spread over.
    #[must_use]
    pub fn regions(&self) -> &RegionSet {
        &self.regions
    }

    /// The home region of a shard. Deterministic round-robin over the
    /// region set; shards outside `0..num_shards` wrap the same way so a
    /// forged [`ShardId`] still maps somewhere stable.
    #[must_use]
    pub fn home_of(&self, shard: ShardId) -> Region {
        self.regions.round_robin(shard.0 as usize)
    }

    /// The home region of the partition holding `key` — the one place
    /// the key → shard → region composition lives, so the storage view,
    /// the invoker and the simulator can never drift apart.
    #[must_use]
    pub fn home_of_key(&self, key: crate::rwset::Key) -> Region {
        self.home_of(ShardId::of_key(key, self.num_shards))
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_regions_in_paper_order() {
        assert_eq!(Region::ALL.len(), 11);
        assert_eq!(Region::ALL[0], Region::NorthCalifornia);
        assert_eq!(Region::ALL[10], Region::Singapore);
    }

    #[test]
    fn home_region_is_closest() {
        let home = Region::NorthCalifornia.one_way_latency_ms_from_home();
        for r in Region::ALL.iter().skip(1) {
            assert!(
                r.one_way_latency_ms_from_home() > home,
                "{r} should be farther"
            );
        }
    }

    #[test]
    fn first_n_takes_prefix() {
        let set = RegionSet::first_n(5);
        assert_eq!(set.len(), 5);
        assert_eq!(set.regions()[4], Region::Frankfurt);
    }

    #[test]
    #[should_panic(expected = "1..=11")]
    fn first_n_rejects_zero() {
        let _ = RegionSet::first_n(0);
    }

    #[test]
    #[should_panic(expected = "1..=11")]
    fn first_n_rejects_more_than_eleven() {
        let _ = RegionSet::first_n(12);
    }

    #[test]
    fn round_robin_cycles() {
        let set = RegionSet::first_n(3);
        assert_eq!(set.round_robin(0), Region::NorthCalifornia);
        assert_eq!(set.round_robin(1), Region::Oregon);
        assert_eq!(set.round_robin(2), Region::Ohio);
        assert_eq!(set.round_robin(3), Region::NorthCalifornia);
    }

    #[test]
    fn names_are_human_readable() {
        assert_eq!(Region::NorthCalifornia.name(), "North California");
        assert_eq!(format!("{}", Region::Seoul), "Seoul");
    }

    #[test]
    fn contains_reports_membership() {
        let set = RegionSet::first_n(2);
        assert!(set.contains(Region::NorthCalifornia));
        assert!(set.contains(Region::Oregon));
        assert!(!set.contains(Region::Singapore));
    }

    #[test]
    fn partition_homes_every_shard_round_robin() {
        let part = RegionPartition::new(RegionSet::first_n(3), 8);
        assert_eq!(part.num_shards(), 8);
        assert_eq!(part.home_of(ShardId(0)), Region::NorthCalifornia);
        assert_eq!(part.home_of(ShardId(1)), Region::Oregon);
        assert_eq!(part.home_of(ShardId(2)), Region::Ohio);
        assert_eq!(part.home_of(ShardId(3)), Region::NorthCalifornia);
        // Out-of-range shards (a forged tag) still map deterministically.
        assert_eq!(part.home_of(ShardId(100)), part.home_of(ShardId(1)));
    }

    #[test]
    fn partition_is_a_pure_function_of_its_inputs() {
        let a = RegionPartition::new(RegionSet::first_n(4), 16);
        let b = RegionPartition::new(RegionSet::first_n(4), 16);
        for s in 0..16u32 {
            assert_eq!(a.home_of(ShardId(s)), b.home_of(ShardId(s)));
        }
    }

    #[test]
    fn home_of_key_composes_the_canonical_shard_map() {
        use crate::rwset::Key;
        let part = RegionPartition::new(RegionSet::first_n(3), 8);
        for k in 0..1_000u64 {
            assert_eq!(
                part.home_of_key(Key(k)),
                part.home_of(ShardId::of_key(Key(k), 8))
            );
        }
    }

    #[test]
    fn more_regions_than_shards_leaves_some_regions_empty() {
        let part = RegionPartition::new(RegionSet::first_n(5), 2);
        let homes = [part.home_of(ShardId(0)), part.home_of(ShardId(1))];
        assert_eq!(homes, [Region::NorthCalifornia, Region::Oregon]);
    }
}
