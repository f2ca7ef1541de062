//! The ordering-time shard plan tag.
//!
//! The shard-aware planner classifies every batch against the shard
//! router's `key → shard` map *at ordering time* — before consensus —
//! and the resulting [`ShardPlan`] travels with the batch through the
//! whole pipeline: the batcher stamps it on the released batch, the
//! `PREPREPARE` (and the CFT accept) replicate it, the spawner copies it
//! into every `EXECUTE` (and, over geo-partitioned storage, places the
//! batch's executors by it), the executors echo it inside `VERIFY`, and
//! the verifier re-derives it for its plan counters.
//!
//! # Trust-but-verify
//!
//! The tag is an *optimisation hint*, not an authenticated claim: it is
//! covered by neither the batch digest nor any signature (a byzantine
//! primary holds the signing key, so signing it would prove nothing).
//! Every component that would change behaviour based on the tag must
//! **re-derive** it from data it already holds before relying on it, and
//! fall back deterministically to the unplanned path on mismatch. The
//! verifier does exactly that: a `SingleHome(s)` tag is only counted as
//! planned after checking that every observed read/write key of the
//! batch maps to shard `s`, and a lie is counted as a mismatch. The
//! verifier checks and applies every batch the same way whatever its
//! tag, on one thread in batch order, so a tag can never corrupt state
//! or break the equivalence with unrouted execution.

use crate::ids::ShardId;

/// The ordering-time classification of a batch (or one transaction)
/// against the shard map.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ShardPlan {
    /// No plan was computed at ordering time: unknown read-write sets,
    /// a deployment without ordering lanes, or a batch that touches no
    /// data at all.
    #[default]
    Unplanned,
    /// Every key the batch touches maps to this one shard. The verifier
    /// re-derives the claim before counting the batch as planned.
    SingleHome(ShardId),
    /// The batch spans shards (or contains a transaction that does): it
    /// was classified at batching time instead of being discovered late.
    CrossHome,
}

impl ShardPlan {
    /// The claimed home shard, if the plan is single-home.
    #[must_use]
    pub fn home(&self) -> Option<ShardId> {
        match self {
            ShardPlan::SingleHome(s) => Some(*s),
            _ => None,
        }
    }

    /// Whether the plan claims the batch lives on one shard.
    #[must_use]
    pub fn is_single_home(&self) -> bool {
        matches!(self, ShardPlan::SingleHome(_))
    }

    /// Folds a further key's shard into a running plan: the first shard
    /// makes an unplanned accumulator single-home, a second distinct
    /// shard makes it cross-home, and cross-home absorbs everything.
    #[must_use]
    pub fn merge_shard(self, shard: ShardId) -> ShardPlan {
        match self {
            ShardPlan::Unplanned => ShardPlan::SingleHome(shard),
            ShardPlan::SingleHome(s) if s == shard => self,
            _ => ShardPlan::CrossHome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unplanned() {
        assert_eq!(ShardPlan::default(), ShardPlan::Unplanned);
        assert!(!ShardPlan::Unplanned.is_single_home());
        assert_eq!(ShardPlan::Unplanned.home(), None);
    }

    #[test]
    fn single_home_exposes_its_shard() {
        let p = ShardPlan::SingleHome(ShardId(3));
        assert!(p.is_single_home());
        assert_eq!(p.home(), Some(ShardId(3)));
        assert_eq!(ShardPlan::CrossHome.home(), None);
    }

    #[test]
    fn merge_walks_unplanned_to_single_to_cross() {
        let p = ShardPlan::Unplanned.merge_shard(ShardId(2));
        assert_eq!(p, ShardPlan::SingleHome(ShardId(2)));
        assert_eq!(p.merge_shard(ShardId(2)), p, "same shard keeps the home");
        assert_eq!(p.merge_shard(ShardId(5)), ShardPlan::CrossHome);
        assert_eq!(
            ShardPlan::CrossHome.merge_shard(ShardId(2)),
            ShardPlan::CrossHome,
            "cross-home absorbs everything"
        );
    }
}
