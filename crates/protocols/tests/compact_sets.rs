//! Model equivalence of the compact sets every resident instance version
//! holds: a [`ServerSet`] is a `BTreeSet<ServerId>`, a [`Tally`] a
//! `BTreeMap<V, BTreeSet<ServerId>>`, and each column of a two-column
//! `Tally<V, 2>` — one row per value, as `Brb`, `Fifo` and `Smr` keep
//! their two phases — one such map, after every step of a random run.
//!
//! All keep their common case inline — members below 128 as bits, one
//! value in place — and spill the rest behind one pointer. The members
//! drawn here sit on both sides of the 128 threshold and at `u32::MAX`,
//! and a tally sees up to three values, so every run crosses into the
//! spills. Each step compares size, membership, counts, iteration, wire
//! bytes and a decode of those bytes against the model.

use std::collections::{BTreeMap, BTreeSet};

use dagbft_codec::{decode_from_slice, encode_to_vec, Reader};
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

/// Checks each column of `votes` against its model, and its bytes
/// against a one-column tally of the same records.
fn assert_columns_are(votes: &Tally<u64, 2>, models: &[BTreeMap<u64, BTreeSet<ServerId>>; 2]) {
    for (column, model) in models.iter().enumerate() {
        for value in 0..4 {
            assert_eq!(
                votes.count_in(column, &value),
                model.get(&value).map_or(0, BTreeSet::len),
                "column {column}, value {value}"
            );
        }
        let pairs = model
            .iter()
            .flat_map(|(value, senders)| senders.iter().map(move |sender| (value, *sender)));
        assert!(votes.column(column).eq(pairs), "column {column}");
        let mut bytes = Vec::new();
        votes.encode_column(column, &mut bytes);
        let mut alone: Tally<u64> = Tally::new();
        for (value, sender) in votes.column(column) {
            alone.record(value, sender);
        }
        assert_eq!(bytes, encode_to_vec(&alone));
        assert_eq!(bytes, encode_to_vec(model));
    }
    // Both columns back to back, as `Brb` writes its state, and read back.
    let mut bytes = Vec::new();
    votes.encode_column(0, &mut bytes);
    votes.encode_column(1, &mut bytes);
    let mut reader = Reader::new(&bytes);
    let mut decoded: Tally<u64, 2> = Tally::new();
    decoded.decode_column(0, &mut reader).unwrap();
    decoded.decode_column(1, &mut reader).unwrap();
    assert_eq!(reader.remaining(), 0);
    for column in 0..2 {
        assert!(decoded.column(column).eq(votes.column(column)));
    }
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

    #[test]
    fn two_column_tally_is_two_nested_maps_at_every_step(
        records in proptest::collection::vec((0usize..2, 0u64..3, any_index()), 0..32),
    ) {
        let mut votes: Tally<u64, 2> = Tally::new();
        let mut models: [BTreeMap<u64, BTreeSet<ServerId>>; 2] = Default::default();
        assert_columns_are(&votes, &models);
        for (column, value, sender) in records {
            let sender = ServerId::new(sender);
            models[column].entry(value).or_default().insert(sender);
            let row = votes.record_in(column, &value, sender);
            for (at, model) in models.iter().enumerate() {
                prop_assert_eq!(row[at].len(), model.get(&value).map_or(0, BTreeSet::len));
            }
            assert_columns_are(&votes, &models);
        }
    }
}
