//! The ordering-time shard plan: where a transaction or a batch lives.
//!
//! A [`ShardPlan`] classifies a key set against the shard router's
//! `key → shard` map. It is **derived where it is used**, never
//! replicated:
//!
//! * the primary's batcher classifies each transaction
//!   (`sbft_core::planner::home_shard`) to pick its ordering lane;
//! * a spawner running ordering lanes over geo-pinned storage classifies
//!   the committed batch (`sbft_core::planner::batch_home`) to place its
//!   executors;
//! * the verifier counts a batch single-home from the keys its executors
//!   observed.
//!
//! No message or log entry carries a plan (the write-ahead log's
//! `Committed` record keeps an unread placeholder), so there is no
//! unauthenticated tag for a byzantine primary, a new primary's
//! re-issue, a state-transfer peer or a spawner to rewrite: every
//! consumer computes the plan from the batch it already holds, whose
//! contents the batch digest and the commit certificate pin down.

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
    /// Every key the batch touches maps to this one shard.
    SingleHome(ShardId),
    /// The batch spans shards (or contains a transaction that does).
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
