//! Model equivalence of the compact sets every resident instance version
//! holds: a [`ServerSet`] is a `BTreeSet<ServerId>` and a [`Tally`] a
//! `BTreeMap<V, BTreeSet<ServerId>>`, after every step of a random run.
//!
//! Both keep their common case inline — members below 128 as bits, one
//! value in place — and spill the rest behind one pointer. The members
//! drawn here sit on both sides of the 128 threshold and at `u32::MAX`,
//! and a tally sees up to three values, so every run crosses into the
//! spills. Each step compares size, membership, counts, iteration, wire
//! bytes and a decode of those bytes against the model.

use std::collections::{BTreeMap, BTreeSet};

use dagbft_codec::{decode_from_slice, encode_to_vec};
use dagbft_core::ServerSet;
use dagbft_crypto::ServerId;
use dagbft_protocols::Tally;
use proptest::prelude::*;

/// Every index a run draws from: below, at and above the inline bits'
/// edge, and the largest.
const INDICES: [u32; 10] = [0, 1, 2, 3, 126, 127, 128, 129, 130, u32::MAX];

fn any_index() -> impl Strategy<Value = u32> {
    (0..INDICES.len()).prop_map(|at| INDICES[at])
}

/// One step on a `ServerSet`.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(u32),
    UnionWith(Vec<u32>),
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    let op = prop_oneof![
        any_index().prop_map(SetOp::Insert),
        proptest::collection::vec(any_index(), 0..6).prop_map(SetOp::UnionWith),
    ];
    proptest::collection::vec(op, 0..24)
}

/// Checks `set` against `model` on every observation it offers.
fn assert_set_is(set: &ServerSet, model: &BTreeSet<ServerId>) {
    assert_eq!(set.len(), model.len());
    assert_eq!(set.is_empty(), model.is_empty());
    for index in INDICES {
        let server = ServerId::new(index);
        assert_eq!(set.contains(server), model.contains(&server));
    }
    assert!(set.iter().eq(model.iter().copied()));
    let bytes = encode_to_vec(set);
    assert_eq!(&bytes, &encode_to_vec(model));
    assert_eq!(&decode_from_slice::<ServerSet>(&bytes).unwrap(), set);
}

/// Checks `tally` against `model` on every observation it offers.
fn assert_tally_is(tally: &Tally<u64>, model: &BTreeMap<u64, BTreeSet<ServerId>>) {
    for value in 0..4 {
        assert_eq!(
            tally.count(&value),
            model.get(&value).map_or(0, BTreeSet::len)
        );
    }
    let pairs = model
        .iter()
        .flat_map(|(value, senders)| senders.iter().map(move |sender| (value, *sender)));
    assert!(tally.iter().eq(pairs));
    let bytes = encode_to_vec(tally);
    assert_eq!(&bytes, &encode_to_vec(model));
    let decoded: Tally<u64> = decode_from_slice(&bytes).unwrap();
    assert!(decoded.iter().eq(tally.iter()));
    assert_eq!(encode_to_vec(&decoded), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn server_set_is_the_btree_set_at_every_step(ops in set_ops()) {
        let mut set = ServerSet::new();
        let mut model = BTreeSet::new();
        assert_set_is(&set, &model);
        for op in ops {
            match op {
                SetOp::Insert(index) => {
                    let server = ServerId::new(index);
                    prop_assert_eq!(set.insert(server), model.insert(server));
                }
                SetOp::UnionWith(indices) => {
                    let servers = indices.into_iter().map(ServerId::new);
                    let other: ServerSet = servers.clone().collect();
                    set.union_with(&other);
                    model.extend(servers);
                }
            }
            assert_set_is(&set, &model);
        }
    }

    #[test]
    fn tally_is_the_nested_map_at_every_step(
        records in proptest::collection::vec((0u64..3, any_index()), 0..32),
    ) {
        let mut tally: Tally<u64> = Tally::new();
        let mut model: BTreeMap<u64, BTreeSet<ServerId>> = BTreeMap::new();
        assert_tally_is(&tally, &model);
        for (value, sender) in records {
            let sender = ServerId::new(sender);
            let senders = model.entry(value).or_default();
            senders.insert(sender);
            prop_assert_eq!(tally.record(&value, sender), senders.len());
            assert_tally_is(&tally, &model);
        }
    }
}
