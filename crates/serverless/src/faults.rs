//! Byzantine executor behaviours and region-level fault scenarios.
//!
//! Up to `f_E` of the spawned executors may be byzantine (Section III-A):
//! they "can either provide incorrect result or ignore execution". The
//! verifier-flooding attack (Section V-C) adds a third behaviour: sending
//! duplicate `VERIFY` messages. Behaviours are assigned per executor by the
//! experiment configuration or by the attack-injection layer.
//!
//! [`RegionOutage`] is the geo-scale fault: a whole cloud region goes
//! dark, taking its spawn capacity (and, under geo-partitioned storage,
//! the locality advantage of the shards homed there) with it. The cloud
//! rejects spawns into downed regions and the invokers' plan-aware
//! placement deterministically falls back to the round-robin rotation —
//! liveness and the spawn margin are preserved, and the fault-injection
//! suite proves commit outcomes are unchanged.

use sbft_types::{NodeId, Region, SimDuration};
use std::collections::BTreeSet;

/// A multi-region fault scenario: one or more cloud regions offline.
///
/// The scenario is *placement-level* fault injection: it never corrupts
/// an executor (those are [`ExecutorBehavior`]s) — it removes spawn
/// capacity. Runtimes apply it in two places: the simulated cloud
/// rejects spawn requests into downed regions, and each shim node's
/// invoker is told so its placement avoids them.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RegionOutage {
    downed: BTreeSet<Region>,
}

impl RegionOutage {
    /// No outage.
    #[must_use]
    pub fn none() -> Self {
        RegionOutage::default()
    }

    /// A single-region outage.
    #[must_use]
    pub fn of(region: Region) -> Self {
        let mut outage = RegionOutage::default();
        outage.downed.insert(region);
        outage
    }

    /// Whether the scenario takes `region` offline.
    #[must_use]
    pub fn affects(&self, region: Region) -> bool {
        self.downed.contains(&region)
    }

    /// Whether any region is down at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.downed.is_empty()
    }

    /// The downed regions, in order.
    pub fn regions(&self) -> impl Iterator<Item = Region> + '_ {
        self.downed.iter().copied()
    }
}

/// A crash-restart fault on one shim node: the node's process dies at
/// `at` (losing its volatile state and the unsynced tail of its
/// write-ahead log), stays dark for `restart_after`, then restarts and
/// recovers via snapshot + log replay + peer state transfer.
///
/// Unlike the byzantine behaviours this is a *benign* fault — the node
/// follows the protocol before and after the crash — but it exercises
/// the entire durability subsystem: what was synced must be replayed,
/// what was in flight must be re-fetched from peers, and the committed
/// outcomes must be byte-identical to a run without the crash.
///
/// The simulator schedules crashes through its `FaultPlan`
/// (`sbft_sim::faults`), which composes any number of them — including
/// simultaneous, overlapping crashes — with link faults, partition
/// windows and disk-lag stragglers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CrashRestart {
    /// The shim node that crashes.
    pub node: NodeId,
    /// Simulated time at which the process dies.
    pub at: SimDuration,
    /// How long the node stays dark before restarting.
    pub restart_after: SimDuration,
}

impl CrashRestart {
    /// A crash of `node` at `at`, restarting after `restart_after`.
    #[must_use]
    pub fn of(node: NodeId, at: SimDuration, restart_after: SimDuration) -> Self {
        CrashRestart {
            node,
            at,
            restart_after,
        }
    }
}

/// How a spawned executor behaves.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecutorBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// Crashes / ignores execution: never sends a `VERIFY` message.
    Crash,
    /// Executes but reports an incorrect (corrupted) result.
    WrongResult,
    /// Executes correctly but floods the verifier with duplicate `VERIFY`
    /// messages (the duplicate-messages flooding attack).
    DuplicateVerify {
        /// How many copies of the `VERIFY` message to send.
        copies: u32,
    },
    /// Executes correctly but delays its `VERIFY` message (a straggler, or
    /// an executor spawned late by a byzantine primary trying to force
    /// aborts of conflicting transactions).
    Delayed {
        /// Extra delay in milliseconds before the `VERIFY` message is sent.
        delay_ms: u64,
    },
}

impl ExecutorBehavior {
    /// Whether this behaviour produces at least one `VERIFY` message.
    #[must_use]
    pub fn responds(self) -> bool {
        !matches!(self, ExecutorBehavior::Crash)
    }

    /// Whether the produced result is correct (matches honest execution).
    #[must_use]
    pub fn result_is_correct(self) -> bool {
        !matches!(self, ExecutorBehavior::WrongResult)
    }

    /// Number of `VERIFY` copies this behaviour emits.
    #[must_use]
    pub fn verify_copies(self) -> u32 {
        match self {
            ExecutorBehavior::Crash => 0,
            ExecutorBehavior::DuplicateVerify { copies } => copies.max(1),
            _ => 1,
        }
    }

    /// Extra delay before the `VERIFY` message is sent, in milliseconds.
    #[must_use]
    pub fn extra_delay_ms(self) -> u64 {
        match self {
            ExecutorBehavior::Delayed { delay_ms } => delay_ms,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_behaviour_is_the_default() {
        assert_eq!(ExecutorBehavior::default(), ExecutorBehavior::Honest);
        assert!(ExecutorBehavior::Honest.responds());
        assert!(ExecutorBehavior::Honest.result_is_correct());
        assert_eq!(ExecutorBehavior::Honest.verify_copies(), 1);
    }

    #[test]
    fn crash_never_responds() {
        assert!(!ExecutorBehavior::Crash.responds());
        assert_eq!(ExecutorBehavior::Crash.verify_copies(), 0);
    }

    #[test]
    fn wrong_result_still_responds() {
        assert!(ExecutorBehavior::WrongResult.responds());
        assert!(!ExecutorBehavior::WrongResult.result_is_correct());
    }

    #[test]
    fn duplicate_verify_sends_at_least_one_copy() {
        assert_eq!(
            ExecutorBehavior::DuplicateVerify { copies: 5 }.verify_copies(),
            5
        );
        assert_eq!(
            ExecutorBehavior::DuplicateVerify { copies: 0 }.verify_copies(),
            1
        );
    }

    #[test]
    fn delay_reported_only_for_delayed() {
        assert_eq!(
            ExecutorBehavior::Delayed { delay_ms: 30 }.extra_delay_ms(),
            30
        );
        assert_eq!(ExecutorBehavior::Honest.extra_delay_ms(), 0);
    }

    #[test]
    fn region_outage_tracks_the_downed_set() {
        assert!(!RegionOutage::none().is_active());
        let outage = RegionOutage::of(Region::Ohio);
        assert!(outage.is_active());
        assert!(outage.affects(Region::Ohio));
        assert!(!outage.affects(Region::Oregon));
        assert_eq!(outage.regions().count(), 1);
    }
}
