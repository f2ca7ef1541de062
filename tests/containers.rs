//! Model tests for the containers that took the allocator off the
//! per-transaction path: the inline read/write lists of a
//! [`ReadWriteSet`] against a `Vec`, the [`ShardSet`] bit set against a
//! `BTreeSet<ShardId>`, and the reference-counted [`Transaction`] body
//! through the WAL codec. Whatever a container keeps inline or packs
//! into a word, every reader must see what the plain collection shows.

use proptest::prelude::*;
use serverless_bft::crypto::CommitCertificate;
use serverless_bft::durability::{codec, WalRecord};
use serverless_bft::sharding::ShardRouter;
use serverless_bft::types::rwset::INLINE_ACCESSES;
use serverless_bft::types::{
    Batch, ClientId, Digest, InlineVec, Key, Operation, ReadWriteSet, RwSetKeys, SeqNum, ShardId,
    ShardPlan, ShardSet, ShardingConfig, SimDuration, SystemConfig, Transaction, TxnId, Value,
    Version, ViewNumber,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One step against an inline list and its `Vec` model.
#[derive(Clone, Copy, Debug)]
enum ListStep {
    Push(u64),
    /// Overwrite the element at this position (modulo the length).
    Set(usize, u64),
}

fn list_step() -> impl Strategy<Value = ListStep> {
    prop_oneof![
        any::<u64>().prop_map(ListStep::Push),
        (0usize..16, any::<u64>()).prop_map(|(at, v)| ListStep::Set(at, v)),
    ]
}

/// One step against a shard set and its `BTreeSet` model.
#[derive(Clone, Copy, Debug)]
enum SetStep {
    Insert(u32),
    Query(u32),
}

fn set_step() -> impl Strategy<Value = SetStep> {
    let cap = ShardSet::CAPACITY as u32;
    prop_oneof![
        (0..cap).prop_map(SetStep::Insert),
        // The cap itself and beyond are never members.
        (0..cap + 8).prop_map(SetStep::Query),
    ]
}

fn arb_ops() -> impl Strategy<Value = Vec<Operation>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..50).prop_map(|k| Operation::Read(Key(k))),
            (0u64..50, any::<u64>(), 0u32..4_000)
                .prop_map(|(k, v, len)| Operation::Write(Key(k), Value::with_len(v, len))),
            (0u64..50, any::<u64>()).prop_map(|(k, s)| Operation::ReadModifyWrite(Key(k), s)),
        ],
        0..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pushes, overwrites and every way of reading an inline list agree
    /// with a `Vec`, across the spill past the inline capacity.
    #[test]
    fn inline_list_behaves_like_a_vec(steps in prop::collection::vec(list_step(), 0..24)) {
        let mut list: InlineVec<u64, 3> = InlineVec::new();
        let mut model: Vec<u64> = Vec::new();
        for step in steps {
            match step {
                ListStep::Push(v) => {
                    list.push(v);
                    model.push(v);
                }
                ListStep::Set(at, v) if !model.is_empty() => {
                    let at = at % model.len();
                    list[at] = v;
                    model[at] = v;
                }
                ListStep::Set(..) => {}
            }
            prop_assert_eq!(list.spilled(), model.len() > 3);
            prop_assert_eq!(&*list, model.as_slice());
            prop_assert_eq!(list.len(), model.len());
            prop_assert_eq!(list.iter().copied().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!((&list).into_iter().count(), model.len());
            prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
            let rebuilt: InlineVec<u64, 3> = model.iter().copied().collect();
            prop_assert_eq!(&rebuilt, &list);
            prop_assert_eq!(list.clone(), rebuilt);
        }
        for v in &mut list {
            *v = v.wrapping_add(1);
        }
        let bumped: Vec<u64> = model.iter().map(|v| v.wrapping_add(1)).collect();
        prop_assert_eq!(&*list, bumped.as_slice());
    }

    /// A read-write set built access by access equals one rebuilt from
    /// the same accesses, reports the sizes the plain lists imply, and
    /// routes to the shards a `BTreeSet` of its keys' shards holds.
    #[test]
    fn read_write_set_matches_its_plain_lists(
        reads in prop::collection::vec((0u64..200, 0u64..9), 0..7),
        writes in prop::collection::vec((0u64..200, any::<u64>(), 0u32..3_000), 0..7),
        shards in 1usize..ShardSet::CAPACITY + 1,
    ) {
        let mut rwset = ReadWriteSet::new();
        prop_assert!(rwset.is_empty());
        for (k, v) in &reads {
            rwset.record_read(Key(*k), Version(*v));
        }
        for (k, v, len) in &writes {
            rwset.record_write(Key(*k), Value::with_len(*v, *len));
        }
        let model_reads: Vec<(Key, Version)> =
            reads.iter().map(|(k, v)| (Key(*k), Version(*v))).collect();
        let model_writes: Vec<(Key, Value)> = writes
            .iter()
            .map(|(k, v, len)| (Key(*k), Value::with_len(*v, *len)))
            .collect();
        prop_assert_eq!(&*rwset.reads, model_reads.as_slice());
        prop_assert_eq!(&*rwset.writes, model_writes.as_slice());
        prop_assert_eq!(rwset.reads.spilled(), reads.len() > INLINE_ACCESSES);
        prop_assert_eq!(rwset.writes.spilled(), writes.len() > INLINE_ACCESSES);
        prop_assert_eq!(rwset.len(), reads.len() + writes.len());
        prop_assert_eq!(rwset.is_empty(), reads.is_empty() && writes.is_empty());
        let wire: usize = reads.len() * 16
            + writes.iter().map(|(_, _, len)| 8 + *len as usize).sum::<usize>();
        prop_assert_eq!(rwset.wire_size(), wire);
        prop_assert_eq!(
            rwset.keys(),
            RwSetKeys::new(
                model_reads.iter().map(|(k, _)| *k),
                model_writes.iter().map(|(k, _)| *k),
            )
        );

        let mut rebuilt = ReadWriteSet::new();
        for (k, v) in &model_reads {
            rebuilt.record_read(*k, *v);
        }
        prop_assert_eq!(rebuilt == rwset, writes.is_empty());
        for (k, v) in &model_writes {
            rebuilt.record_write(*k, *v);
        }
        prop_assert_eq!(&rebuilt, &rwset);
        prop_assert_eq!(format!("{rebuilt:?}"), format!("{rwset:?}"));

        let router = ShardRouter::new(shards);
        let routed = router.shards_of(&rwset);
        let model: BTreeSet<ShardId> = model_reads
            .iter()
            .map(|(k, _)| *k)
            .chain(model_writes.iter().map(|(k, _)| *k))
            .map(|k| router.shard_of(k))
            .collect();
        prop_assert_eq!(routed.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(router.plan_of(&rwset).is_single_home(), model.len() == 1);
    }

    /// Inserts, membership, size, the home shard and ascending iteration
    /// of a shard set agree with a `BTreeSet`, up to the last shard a
    /// deployment may configure.
    #[test]
    fn shard_set_behaves_like_a_btree_set(steps in prop::collection::vec(set_step(), 0..80)) {
        let mut set = ShardSet::EMPTY;
        let mut model: BTreeSet<ShardId> = BTreeSet::new();
        for step in steps {
            match step {
                SetStep::Insert(s) => {
                    prop_assert_eq!(set.insert(ShardId(s)), model.insert(ShardId(s)));
                }
                SetStep::Query(s) => {
                    prop_assert_eq!(set.contains(ShardId(s)), model.contains(&ShardId(s)));
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.first(), model.first().copied());
            prop_assert_eq!(
                set.iter().collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
            prop_assert_eq!(model.iter().copied().collect::<ShardSet>(), set);
        }
    }

    /// A logged batch comes back equal — operations, declared sets,
    /// execution cost, payload length — and encodes to the same bytes
    /// again, now that a transaction is decoded through its builders
    /// into one shared body.
    #[test]
    fn logged_transactions_round_trip_through_the_codec(
        bodies in prop::collection::vec(
            (arb_ops(), 0u8..3, 0u64..5_000, 0u32..10_000),
            1..8,
        ),
    ) {
        let txns: Vec<Transaction> = bodies
            .into_iter()
            .enumerate()
            .map(|(i, (ops, declare, cost, payload))| {
                let txn = Transaction::new(TxnId::new(ClientId(i as u32), 7), ops)
                    .with_execution_cost(SimDuration::from_micros(cost))
                    .with_payload_len(payload);
                match declare {
                    0 => txn,
                    1 => txn.with_inferred_rwset(),
                    _ => txn.with_declared_rwset(RwSetKeys::new([Key(1)], [Key(2), Key(3)])),
                }
            })
            .collect();
        let record = WalRecord::Committed {
            seq: SeqNum(3),
            view: ViewNumber(1),
            plan: ShardPlan::Unplanned,
            batch: Batch::new(txns.clone()),
            certificate: Arc::new(CommitCertificate::new(
                ViewNumber(1),
                SeqNum(3),
                Digest::from_bytes([5; 32]),
                vec![],
            )),
        };
        let bytes = codec::encode(&record);
        let decoded = codec::decode(&bytes).expect("decodes");
        prop_assert_eq!(&decoded, &record);
        prop_assert_eq!(codec::encode(&decoded), bytes);
        let WalRecord::Committed { batch, .. } = decoded else {
            panic!("wrong kind");
        };
        for (logged, original) in batch.iter().zip(&txns) {
            prop_assert_eq!(logged.payload_len, original.payload_len);
            prop_assert_eq!(logged.wire_size(), original.wire_size());
        }
    }
}

#[test]
fn a_deployment_may_configure_as_many_shards_as_a_route_set_names() {
    let mut config = SystemConfig::with_shim_size(4);
    config.sharding = ShardingConfig::with_shards(ShardSet::CAPACITY);
    config
        .validate()
        .expect("the cap itself is a valid shard count");
    // Every shard of the widest deployment is reachable and fits a set.
    let router = ShardRouter::new(ShardSet::CAPACITY);
    let all: ShardSet = (0..100_000).map(|k| router.shard_of(Key(k))).collect();
    assert_eq!(all.len(), ShardSet::CAPACITY);
    assert_eq!(
        all.iter().last(),
        Some(ShardId(ShardSet::CAPACITY as u32 - 1))
    );

    config.sharding = ShardingConfig::with_shards(ShardSet::CAPACITY + 1);
    let err = config.validate().expect_err("one past the cap is rejected");
    assert!(err.to_string().contains("at most 64 shards"), "{err}");
}
