//! Composable fault plans: deterministic chaos for the simulator.
//!
//! A [`FaultPlan`] describes an adversarial environment declaratively —
//! per-link message loss / duplication / extra-delay distributions
//! ([`LinkRule`]), directed network partitions with a heal time
//! ([`PartitionWindow`]), per-node fsync-latency stragglers ([`DiskLag`])
//! and any number of (possibly simultaneous) [`CrashRestart`]s. The
//! harness consults the plan at its two physical boundaries — the
//! node-to-node `Send` fan-out and the durable `Persist` path — so the
//! role state machines stay pure and fault-oblivious.
//!
//! Every random draw comes from one [`rand::rngs::StdRng`] seeded from
//! the run seed, so two runs of the same seed and plan experience the
//! *byte-identical* fault schedule. Injected faults are surfaced as
//! `faults.*` registry counters (see OBSERVABILITY.md):
//!
//! | counter                     | meaning                                  |
//! |-----------------------------|------------------------------------------|
//! | `faults.messages_dropped`   | messages lost by a link loss rule        |
//! | `faults.messages_duplicated`| extra copies injected by duplication     |
//! | `faults.messages_delayed`   | copies that drew extra link delay        |
//! | `faults.partition_drops`    | messages cut by an active partition      |
//! | `faults.fsync_lags`         | fsyncs stretched by a disk-lag straggler |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbft_serverless::CrashRestart;
use sbft_telemetry::{Counter, Registry};
use sbft_types::{NodeId, SimDuration, SimTime};

/// Per-link fault distribution: probabilities of loss, duplication and
/// extra delay applied to every matching message.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a matching message is dropped.
    pub loss: f64,
    /// Probability that a delivered message is duplicated (one extra copy).
    pub duplicate: f64,
    /// Probability that a delivered copy draws extra delay — drawing
    /// different delays per copy is also what reorders messages relative
    /// to the FIFO base network.
    pub delay_prob: f64,
    /// Upper bound (exclusive) of the uniform extra-delay draw.
    pub max_extra_delay: SimDuration,
}

impl LinkFaults {
    /// A loss-only fault distribution.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        LinkFaults {
            loss,
            ..LinkFaults::default()
        }
    }

    /// Adds a duplication probability.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Adds an extra-delay distribution: with probability `p` a copy is
    /// delayed by a uniform draw from `[0, max)`.
    #[must_use]
    pub fn with_delay(mut self, p: f64, max: SimDuration) -> Self {
        self.delay_prob = p;
        self.max_extra_delay = max;
        self
    }
}

/// One link-matching rule. `None` endpoints are wildcards; the first
/// matching rule in [`FaultPlan::link_rules`] wins.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkRule {
    /// Sender filter (`None` matches every sender).
    pub from: Option<NodeId>,
    /// Receiver filter (`None` matches every receiver).
    pub to: Option<NodeId>,
    /// The fault distribution applied to matching messages.
    pub faults: LinkFaults,
}

impl LinkRule {
    /// A rule matching every node-to-node link.
    #[must_use]
    pub fn all(faults: LinkFaults) -> Self {
        LinkRule {
            from: None,
            to: None,
            faults,
        }
    }

    fn matches(&self, from: NodeId, to: NodeId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// A directed partition active over `[start, heal)`: messages from any
/// node in `from` to any node in `to` are dropped while active. Empty
/// endpoint sets are wildcards (every node).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionWindow {
    /// Senders cut by the partition (empty = all nodes).
    pub from: Vec<NodeId>,
    /// Receivers cut by the partition (empty = all nodes).
    pub to: Vec<NodeId>,
    /// Offset from run start at which the partition begins.
    pub start: SimDuration,
    /// Offset from run start at which the partition heals.
    pub heal: SimDuration,
}

impl PartitionWindow {
    /// A directed partition cutting `from → to` over `[start, heal)`.
    #[must_use]
    fn directed(from: &[NodeId], to: &[NodeId], start: SimDuration, heal: SimDuration) -> Self {
        PartitionWindow {
            from: from.to_vec(),
            to: to.to_vec(),
            start,
            heal,
        }
    }

    fn drops(&self, from: NodeId, to: NodeId, elapsed: SimDuration) -> bool {
        if elapsed < self.start || elapsed >= self.heal {
            return false;
        }
        let from_hit = self.from.is_empty() || self.from.contains(&from);
        let to_hit = self.to.is_empty() || self.to.contains(&to);
        from_hit && to_hit
    }
}

/// A per-node fsync-latency straggler: every fsync at `node` takes
/// `extra` plus a uniform jitter draw from `[0, jitter]` longer than the
/// CPU model's base cost. Replaces the fixed-latency disk assumption.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskLag {
    /// The straggling node.
    pub node: NodeId,
    /// Deterministic extra latency added to every fsync.
    pub extra: SimDuration,
    /// Upper bound (inclusive) of the per-fsync uniform jitter draw.
    pub jitter: SimDuration,
}

/// A declarative, composable chaos schedule. Build one with the fluent
/// helpers and attach it via `SimHarness::with_fault_plan`; everything
/// it injects is deterministic in the run seed.
///
/// ```
/// use sbft_sim::{DiskLag, FaultPlan, LinkFaults};
/// use sbft_types::{NodeId, SimDuration};
///
/// let plan = FaultPlan::new()
///     .lossy_node(NodeId(3), LinkFaults::lossy(0.15))
///     .isolate(
///         NodeId(0),
///         SimDuration::from_millis(200),
///         SimDuration::from_millis(260),
///     )
///     .disk_lag(DiskLag {
///         node: NodeId(1),
///         extra: SimDuration::from_micros(300),
///         jitter: SimDuration::from_micros(200),
///     });
/// assert!(!plan.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Link fault rules; first match wins.
    pub link_rules: Vec<LinkRule>,
    /// Directed partition windows (all active windows drop).
    pub partitions: Vec<PartitionWindow>,
    /// Per-node fsync stragglers (first match per node wins).
    pub disk_lags: Vec<DiskLag>,
    /// Crash-restart schedule; entries may overlap in time, crashing
    /// several nodes simultaneously.
    pub crashes: Vec<CrashRestart>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.link_rules.is_empty()
            && self.partitions.is_empty()
            && self.disk_lags.is_empty()
            && self.crashes.is_empty()
    }

    /// Appends a link rule.
    #[must_use]
    pub fn link(mut self, rule: LinkRule) -> Self {
        self.link_rules.push(rule);
        self
    }

    /// Applies `faults` to every link touching `node` (both directions).
    #[must_use]
    pub fn lossy_node(mut self, node: NodeId, faults: LinkFaults) -> Self {
        self.link_rules.push(LinkRule {
            from: Some(node),
            to: None,
            faults,
        });
        self.link_rules.push(LinkRule {
            from: None,
            to: Some(node),
            faults,
        });
        self
    }

    /// Isolates `node` in both directions over `[start, heal)`.
    #[must_use]
    pub fn isolate(mut self, node: NodeId, start: SimDuration, heal: SimDuration) -> Self {
        self.partitions
            .push(PartitionWindow::directed(&[node], &[], start, heal));
        self.partitions
            .push(PartitionWindow::directed(&[], &[node], start, heal));
        self
    }

    /// Appends a disk-lag straggler.
    #[must_use]
    pub fn disk_lag(mut self, lag: DiskLag) -> Self {
        self.disk_lags.push(lag);
        self
    }

    /// Appends a crash-restart (may overlap others in time).
    #[must_use]
    pub fn crash(mut self, crash: CrashRestart) -> Self {
        self.crashes.push(crash);
        self
    }

    fn rule_for(&self, from: NodeId, to: NodeId) -> Option<&LinkFaults> {
        self.link_rules
            .iter()
            .find(|r| r.matches(from, to))
            .map(|r| &r.faults)
    }

    fn partitioned(&self, from: NodeId, to: NodeId, elapsed: SimDuration) -> bool {
        self.partitions.iter().any(|w| w.drops(from, to, elapsed))
    }

    fn disk_lag_for(&self, node: NodeId) -> Option<&DiskLag> {
        self.disk_lags.iter().find(|l| l.node == node)
    }
}

/// What the plan lets through of one message: one extra delay per
/// delivered copy — none when it is dropped, two when it is duplicated.
/// Reads as a slice; nothing is allocated per message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Copies {
    delays: [SimDuration; 2],
    len: u8,
}

impl Copies {
    const DROPPED: Copies = Copies {
        delays: [SimDuration::ZERO; 2],
        len: 0,
    };

    fn one(delay: SimDuration) -> Self {
        Copies {
            delays: [delay, SimDuration::ZERO],
            len: 1,
        }
    }
}

impl std::ops::Deref for Copies {
    type Target = [SimDuration];

    fn deref(&self) -> &[SimDuration] {
        &self.delays[..self.len as usize]
    }
}

/// The runtime side of a [`FaultPlan`]: owns the seeded RNG and the
/// `faults.*` counters, and answers the harness's two questions — what
/// happens to this message, and how slow is this fsync.
pub struct FaultState {
    plan: FaultPlan,
    origin: SimTime,
    rng: StdRng,
    dropped: Counter,
    duplicated: Counter,
    delayed: Counter,
    partition_drops: Counter,
    fsync_lags: Counter,
}

impl FaultState {
    /// Instantiates a plan for one run: the RNG is derived from the run
    /// seed (so the fault schedule is reproducible) and counters are
    /// registered under `faults.*`. `origin` anchors partition windows,
    /// which are expressed as offsets from run start.
    #[must_use]
    pub fn new(plan: FaultPlan, seed: u64, origin: SimTime, registry: &Registry) -> Self {
        FaultState {
            plan,
            origin,
            // Decorrelate from workload generators sharing the run seed.
            rng: StdRng::seed_from_u64(seed ^ 0xfa17_91a9_5c4a_0b2d),
            dropped: registry.counter("faults.messages_dropped"),
            duplicated: registry.counter("faults.messages_duplicated"),
            delayed: registry.counter("faults.messages_delayed"),
            partition_drops: registry.counter("faults.partition_drops"),
            fsync_lags: registry.counter("faults.fsync_lags"),
        }
    }

    /// The crash-restart schedule carried by the plan.
    #[must_use]
    pub fn crashes(&self) -> &[CrashRestart] {
        &self.plan.crashes
    }

    /// Decides the fate of one node-to-node message: the returned
    /// [`Copies`] hold one extra-delay per delivered copy, so none means
    /// the message is dropped and two mean it was duplicated.
    ///
    /// Partitions are checked first and consume no randomness; loss,
    /// duplication and delay draw from the RNG only when their
    /// probability is non-zero, keeping the random stream minimal and
    /// stable when rules are partially disabled.
    pub fn deliveries(&mut self, from: NodeId, to: NodeId, now: SimTime) -> Copies {
        if self.plan.partitioned(from, to, now.since(self.origin)) {
            self.partition_drops.inc();
            return Copies::DROPPED;
        }
        let Some(faults) = self.plan.rule_for(from, to).copied() else {
            return Copies::one(SimDuration::ZERO);
        };
        if faults.loss > 0.0 && self.rng.gen_bool(faults.loss) {
            self.dropped.inc();
            return Copies::DROPPED;
        }
        let duplicated = faults.duplicate > 0.0 && self.rng.gen_bool(faults.duplicate);
        let mut copies = Copies::one(self.extra_delay(&faults));
        if duplicated {
            self.duplicated.inc();
            copies.delays[1] = self.extra_delay(&faults);
            copies.len = 2;
        }
        copies
    }

    fn extra_delay(&mut self, faults: &LinkFaults) -> SimDuration {
        if faults.delay_prob > 0.0
            && !faults.max_extra_delay.is_zero()
            && self.rng.gen_bool(faults.delay_prob)
        {
            self.delayed.inc();
            let bound = faults.max_extra_delay.as_micros().max(1);
            SimDuration::from_micros(self.rng.gen_range(0u64..bound))
        } else {
            SimDuration::ZERO
        }
    }

    /// Extra fsync latency for `node` — zero unless the plan declares a
    /// disk-lag straggler for it.
    pub fn fsync_extra(&mut self, node: NodeId) -> SimDuration {
        let Some(lag) = self.plan.disk_lag_for(node).copied() else {
            return SimDuration::ZERO;
        };
        self.fsync_lags.inc();
        let jitter = if lag.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(self.rng.gen_range(0u64..lag.jitter.as_micros() + 1))
        };
        lag.extra + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::new()
    }

    #[test]
    fn empty_plan_delivers_everything_untouched() {
        let reg = registry();
        let mut state = FaultState::new(FaultPlan::new(), 1, SimTime::ZERO, &reg);
        for _ in 0..100 {
            assert_eq!(
                *state.deliveries(NodeId(0), NodeId(1), SimTime::ZERO),
                [SimDuration::ZERO]
            );
        }
        assert_eq!(reg.counter_value("faults.messages_dropped"), 0);
    }

    #[test]
    fn loss_rule_drops_and_counts() {
        let reg = registry();
        let plan = FaultPlan::new().link(LinkRule::all(LinkFaults::lossy(1.0)));
        let mut state = FaultState::new(plan, 1, SimTime::ZERO, &reg);
        assert!(state
            .deliveries(NodeId(0), NodeId(1), SimTime::ZERO)
            .is_empty());
        assert_eq!(reg.counter_value("faults.messages_dropped"), 1);
    }

    #[test]
    fn first_matching_rule_wins() {
        let reg = registry();
        let plan = FaultPlan::new()
            .link(LinkRule {
                from: Some(NodeId(0)),
                to: Some(NodeId(1)),
                faults: LinkFaults::default(),
            })
            .link(LinkRule::all(LinkFaults::lossy(1.0)));
        let mut state = FaultState::new(plan, 1, SimTime::ZERO, &reg);
        // The specific clean rule shadows the catch-all loss rule.
        assert_eq!(
            *state.deliveries(NodeId(0), NodeId(1), SimTime::ZERO),
            [SimDuration::ZERO]
        );
        assert!(state
            .deliveries(NodeId(1), NodeId(0), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn partition_window_cuts_directed_links_and_heals() {
        let reg = registry();
        let mut plan = FaultPlan::new();
        plan.partitions.push(PartitionWindow::directed(
            &[NodeId(0)],
            &[NodeId(3)],
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
        ));
        let origin = SimTime::ZERO + SimDuration::from_millis(5);
        let mut state = FaultState::new(plan, 1, origin, &reg);
        let at = |ms| origin + SimDuration::from_millis(ms);
        // Before, during (directed only) and after heal.
        assert!(!state.deliveries(NodeId(0), NodeId(3), at(5)).is_empty());
        assert!(state.deliveries(NodeId(0), NodeId(3), at(15)).is_empty());
        assert!(!state.deliveries(NodeId(3), NodeId(0), at(15)).is_empty());
        assert!(!state.deliveries(NodeId(0), NodeId(3), at(25)).is_empty());
        assert_eq!(reg.counter_value("faults.partition_drops"), 1);
    }

    #[test]
    fn isolate_cuts_both_directions() {
        let reg = registry();
        let plan =
            FaultPlan::new().isolate(NodeId(2), SimDuration::ZERO, SimDuration::from_millis(10));
        let mut state = FaultState::new(plan, 1, SimTime::ZERO, &reg);
        assert!(state
            .deliveries(NodeId(2), NodeId(0), SimTime::ZERO)
            .is_empty());
        assert!(state
            .deliveries(NodeId(1), NodeId(2), SimTime::ZERO)
            .is_empty());
        assert!(!state
            .deliveries(NodeId(0), NodeId(1), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn duplication_and_delay_inject_extra_copies() {
        let reg = registry();
        let plan = FaultPlan::new().link(LinkRule::all(
            LinkFaults::default()
                .with_duplicate(1.0)
                .with_delay(1.0, SimDuration::from_millis(2)),
        ));
        let mut state = FaultState::new(plan, 7, SimTime::ZERO, &reg);
        let copies = state.deliveries(NodeId(0), NodeId(1), SimTime::ZERO);
        assert_eq!(copies.len(), 2);
        assert_eq!(reg.counter_value("faults.messages_duplicated"), 1);
        assert_eq!(reg.counter_value("faults.messages_delayed"), 2);
    }

    #[test]
    fn disk_lag_applies_only_to_the_straggler() {
        let reg = registry();
        let plan = FaultPlan::new().disk_lag(DiskLag {
            node: NodeId(1),
            extra: SimDuration::from_micros(300),
            jitter: SimDuration::from_micros(100),
        });
        let mut state = FaultState::new(plan, 3, SimTime::ZERO, &reg);
        assert_eq!(state.fsync_extra(NodeId(0)), SimDuration::ZERO);
        let lag = state.fsync_extra(NodeId(1));
        assert!(lag >= SimDuration::from_micros(300));
        assert!(lag <= SimDuration::from_micros(400));
        assert_eq!(reg.counter_value("faults.fsync_lags"), 1);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let run = || {
            let reg = registry();
            let plan = FaultPlan::new().link(LinkRule::all(
                LinkFaults::lossy(0.3)
                    .with_duplicate(0.3)
                    .with_delay(0.5, SimDuration::from_millis(1)),
            ));
            let mut state = FaultState::new(plan, 99, SimTime::ZERO, &reg);
            (0..200)
                .map(|_| state.deliveries(NodeId(0), NodeId(1), SimTime::ZERO))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
