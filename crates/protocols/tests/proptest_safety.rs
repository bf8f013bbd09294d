//! Adversarial property tests: protocol safety survives *arbitrary*
//! byzantine message injections and schedules.
//!
//! The byzantine servers here are unconstrained message oracles — they can
//! inject any well-typed message at any point (strictly more powerful than
//! the structured adversaries in `dagbft-sim`, though unlike real
//! byzantine servers they cannot forge *identities*, which the signature
//! layer prevents). Safety must hold in every schedule.
//!
//! The last section is about bytes instead of schedules: what [`Tally`]
//! and [`Brb`] write into interpreter snapshots is what the nested
//! `BTreeMap<V, BTreeSet<ServerId>>` wrote, and what they read back from a
//! damaged disk is an error or a usable instance, never a panic.

use std::collections::{BTreeMap, BTreeSet};

use dagbft_codec::{decode_from_slice, encode_to_vec, Reader, WireEncode};
use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig, SnapshotProtocol};
use dagbft_crypto::ServerId;
use dagbft_protocols::{
    Brb, BrbIndication, BrbMessage, BrbRequest, Smr, SmrIndication, SmrMessage, SmrRequest, Tally,
};
use proptest::prelude::*;

/// A byzantine action: inject `message` claiming to come from the (single)
/// byzantine server, delivered to `target`.
#[derive(Debug, Clone)]
enum ByzAction {
    Echo(usize, u64),
    Ready(usize, u64),
}

fn byz_actions() -> impl Strategy<Value = Vec<ByzAction>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..3, 0u64..3).prop_map(|(t, v)| ByzAction::Echo(t, v)),
            (0usize..3, 0u64..3).prop_map(|(t, v)| ByzAction::Ready(t, v)),
        ],
        0..24,
    )
}

/// Drives 3 correct BRB instances plus one byzantine message oracle
/// (server 3). `lifo` flips the queue discipline, changing the schedule.
fn run_brb(broadcast: Option<u64>, actions: Vec<ByzAction>, lifo: bool) -> Vec<Option<u64>> {
    let config = ProtocolConfig::for_n(4);
    let mut instances: Vec<Brb<u64>> = (0..3)
        .map(|i| Brb::new(&config, Label::new(1), ServerId::new(i as u32)))
        .collect();
    let byz = ServerId::new(3);
    let mut queue: Vec<(usize, ServerId, BrbMessage<u64>)> = Vec::new();

    if let Some(value) = broadcast {
        let mut outbox = Outbox::new();
        instances[0].on_request(BrbRequest::Broadcast(value), &mut outbox);
        for (to, message) in outbox.into_messages() {
            if to.index() < 3 {
                queue.push((to.index(), ServerId::new(0), message));
            }
        }
    }
    for action in actions {
        match action {
            ByzAction::Echo(to, v) => queue.push((to, byz, BrbMessage::Echo(v))),
            ByzAction::Ready(to, v) => queue.push((to, byz, BrbMessage::Ready(v))),
        }
    }

    let mut delivered: Vec<Option<u64>> = vec![None; 3];
    while !queue.is_empty() {
        let (to, from, message) = if lifo {
            queue.pop().unwrap()
        } else {
            queue.remove(0)
        };
        let mut outbox = Outbox::new();
        instances[to].on_message(from, message, &mut outbox);
        for (next_to, next_message) in outbox.into_messages() {
            if next_to.index() < 3 {
                queue.push((next_to.index(), ServerId::new(to as u32), next_message));
            }
        }
        for BrbIndication::Deliver(value) in instances[to].drain_indications() {
            assert!(delivered[to].is_none(), "no duplication");
            delivered[to] = Some(value);
        }
    }
    delivered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn brb_consistency_under_arbitrary_byzantine_messages(
        actions in byz_actions(),
        lifo: bool,
    ) {
        // No correct broadcast: a lone byzantine server (f = 1) may or may
        // not cause delivery, but never two different values.
        let delivered = run_brb(None, actions, lifo);
        let values: BTreeSet<u64> = delivered.iter().flatten().copied().collect();
        prop_assert!(values.len() <= 1, "consistency: {values:?}");
    }

    #[test]
    fn brb_integrity_with_correct_broadcaster(
        actions in byz_actions(),
        lifo: bool,
    ) {
        // With a correct broadcaster of value 7 and byzantine values drawn
        // from 0..3 (disjoint), no correct server may deliver a byzantine
        // value once 7 is delivered anywhere (consistency), and any
        // delivered set is a single value.
        let delivered = run_brb(Some(7), actions, lifo);
        let values: BTreeSet<u64> = delivered.iter().flatten().copied().collect();
        prop_assert!(values.len() <= 1, "consistency: {values:?}");
        // Note: with f = 1 and 2f+1 = 3 quorums over {3 correct + 1 byz},
        // a byzantine value would need 2 correct echoes — impossible when
        // all correct echo 7 first in this schedule? Not guaranteed for
        // all schedules, but *agreement* (one value) always holds, which
        // is what we assert.
    }
}

/// SMR: a byzantine leader injects arbitrary pre-prepares/prepares/commits;
/// no slot may ever commit two different values at correct servers.
#[derive(Debug, Clone)]
enum SmrAction {
    PrePrepare(usize, u64, u64),
    Prepare(usize, u64, u64),
    Commit(usize, u64, u64),
}

fn smr_actions() -> impl Strategy<Value = Vec<SmrAction>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..3, 0u64..2, 0u64..3).prop_map(|(t, s, v)| SmrAction::PrePrepare(t, s, v)),
            (0usize..3, 0u64..2, 0u64..3).prop_map(|(t, s, v)| SmrAction::Prepare(t, s, v)),
            (0usize..3, 0u64..2, 0u64..3).prop_map(|(t, s, v)| SmrAction::Commit(t, s, v)),
        ],
        0..32,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn smr_agreement_under_byzantine_leader(actions in smr_actions(), lifo: bool) {
        // Label 0 → leader is server 0, which we make byzantine: it sends
        // arbitrary protocol messages. Correct servers 1..3 run the
        // protocol. Per slot, the set of committed values across correct
        // servers must be ≤ 1.
        let config = ProtocolConfig::for_n(4);
        let mut instances: Vec<Smr<u64>> = (1..4)
            .map(|i| Smr::new(&config, Label::new(0), ServerId::new(i)))
            .collect();
        let leader = ServerId::new(0);
        let mut queue: Vec<(usize, ServerId, SmrMessage<u64>)> = Vec::new();
        for action in actions {
            match action {
                SmrAction::PrePrepare(to, slot, v) => {
                    queue.push((to, leader, SmrMessage::PrePrepare(slot, v)))
                }
                SmrAction::Prepare(to, slot, v) => {
                    queue.push((to, leader, SmrMessage::Prepare(slot, v)))
                }
                SmrAction::Commit(to, slot, v) => {
                    queue.push((to, leader, SmrMessage::Commit(slot, v)))
                }
            }
        }
        // A correct proposer also forwards a proposal, exercising the
        // normal path interleaved with the attack.
        let mut outbox = Outbox::new();
        instances[0].on_request(SmrRequest::Propose(9), &mut outbox);
        for (to, message) in outbox.into_messages() {
            if (1..4).contains(&to.index()) {
                queue.push((to.index() - 1, ServerId::new(1), message));
            }
        }

        let mut committed: Vec<std::collections::BTreeMap<u64, u64>> =
            vec![Default::default(); 3];
        while !queue.is_empty() {
            let (to, from, message) = if lifo {
                queue.pop().unwrap()
            } else {
                queue.remove(0)
            };
            let mut outbox = Outbox::new();
            instances[to].on_message(from, message, &mut outbox);
            for (next_to, next_message) in outbox.into_messages() {
                if (1..4).contains(&next_to.index()) {
                    queue.push((next_to.index() - 1, ServerId::new(to as u32 + 1), next_message));
                }
            }
            for SmrIndication::Committed(slot, value) in instances[to].drain_indications() {
                let previous = committed[to].insert(slot, value);
                prop_assert!(previous.is_none(), "slot committed twice at one server");
            }
        }
        // Agreement per slot across correct servers.
        for slot in 0..2u64 {
            let values: BTreeSet<u64> = committed
                .iter()
                .filter_map(|log| log.get(&slot))
                .copied()
                .collect();
            prop_assert!(values.len() <= 1, "slot {slot} disagreement: {values:?}");
        }
    }
}

/// The collection [`Tally`] replaced, kept here as its model.
type TallyModel = BTreeMap<u64, BTreeSet<ServerId>>;

/// Senders on both sides of the 128-bit inline set, and the largest index.
fn any_sender() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..8, 120u32..136, Just(u32::MAX)]
}

/// One message into a `Brb<u64>`: `(sender, READY instead of ECHO, value)`.
/// Three values, so a byzantine sender's second and third are reached.
fn brb_events() -> impl Strategy<Value = Vec<(u32, bool, u64)>> {
    proptest::collection::vec((0u32..4, any::<bool>(), 0u64..3), 0..16)
}

fn brb_message(ready: bool, value: u64) -> BrbMessage<u64> {
    if ready {
        BrbMessage::Ready(value)
    } else {
        BrbMessage::Echo(value)
    }
}

/// Server 0's instance after `events`, its indications left undrained so
/// they are part of the state, and the two tallies as the model holds them.
fn reach(events: &[(u32, bool, u64)]) -> (Brb<u64>, TallyModel, TallyModel) {
    let config = ProtocolConfig::for_n(4);
    let mut instance: Brb<u64> = Brb::new(&config, Label::new(1), ServerId::new(0));
    let (mut echoes, mut readies) = (TallyModel::new(), TallyModel::new());
    let mut outbox = Outbox::new();
    for (sender, ready, value) in events {
        let sender = ServerId::new(*sender);
        instance.on_message(sender, brb_message(*ready, *value), &mut outbox);
        let model = if *ready { &mut readies } else { &mut echoes };
        model.entry(*value).or_default().insert(sender);
    }
    (instance, echoes, readies)
}

fn encode_state(instance: &Brb<u64>) -> Vec<u8> {
    let mut bytes = Vec::new();
    instance.encode_state(&mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tally_is_the_nested_map(
        records in proptest::collection::vec((0u64..4, any_sender()), 0..48),
    ) {
        let mut tally: Tally<u64> = Tally::new();
        let mut model = TallyModel::new();
        for (value, sender) in records {
            let sender = ServerId::new(sender);
            let senders = model.entry(value).or_default();
            senders.insert(sender);
            prop_assert_eq!(tally.record(&value, sender), senders.len());
        }
        for value in 0..5 {
            prop_assert_eq!(tally.count(&value), model.get(&value).map_or(0, BTreeSet::len));
        }
        let pairs = model.iter().flat_map(|(v, senders)| senders.iter().map(move |s| (v, *s)));
        prop_assert!(tally.iter().eq(pairs));
        let bytes = encode_to_vec(&tally);
        prop_assert_eq!(&bytes, &encode_to_vec(&model));
        let decoded: Tally<u64> = decode_from_slice(&bytes).unwrap();
        prop_assert!(decoded.iter().eq(tally.iter()));
        prop_assert_eq!(encode_to_vec(&decoded), bytes);
    }

    #[test]
    fn brb_state_bytes_are_the_nested_map_s(events in brb_events()) {
        let (instance, echoes, readies) = reach(&events);
        let mut expected = encode_to_vec(&(4u64, 1u64));
        for flag in [instance.echoed(), instance.readied(), instance.delivered()] {
            flag.encode(&mut expected);
        }
        echoes.encode(&mut expected);
        readies.encode(&mut expected);
        instance.clone().drain_indications().encode(&mut expected);
        let bytes = encode_state(&instance);
        prop_assert_eq!(&bytes, &expected);

        let mut reader = Reader::new(&bytes);
        let decoded = Brb::<u64>::decode_state(&mut reader).unwrap();
        prop_assert_eq!(reader.remaining(), 0);
        prop_assert_eq!(encode_state(&decoded), bytes);
    }

    #[test]
    fn brb_state_decoder_never_panics(
        events in brb_events(),
        flips in proptest::collection::vec((0usize..10_000, 1u8..=255), 1..4),
    ) {
        let (instance, ..) = reach(&events);
        let bytes = encode_state(&instance);

        // Every strict prefix is an error, never a panic or a success.
        for cut in 0..bytes.len() {
            prop_assert!(Brb::<u64>::decode_state(&mut Reader::new(&bytes[..cut])).is_err());
        }

        // Bit flips decode to a typed error or to an instance that takes a
        // message of each kind from every server.
        let mut flipped = bytes.clone();
        for (at, mask) in flips {
            let at = at % flipped.len();
            flipped[at] ^= mask;
        }
        let n = u64::from_le_bytes(flipped[..8].try_into().unwrap());
        if let Ok(mut decoded) = Brb::<u64>::decode_state(&mut Reader::new(&flipped)) {
            // A flipped `n` that still decodes is another, possibly
            // enormous, server set; a broadcast to it is as large. Drive
            // the ones a test can afford.
            if n <= 64 {
                let mut outbox = Outbox::new();
                for sender in (0..4).map(ServerId::new) {
                    decoded.on_message(sender, BrbMessage::Echo(1), &mut outbox);
                    decoded.on_message(sender, BrbMessage::Ready(1), &mut outbox);
                }
                decoded.drain_indications();
            }
        }
    }
}

/// A tally entry naming sender `u32::MAX` costs its four bytes: it decodes,
/// counts once, and re-encodes to the same bytes. (That the set behind it
/// holds one list slot for it, not a bit per index below it, is
/// `tally::tests::an_honest_tally_owns_no_heap`.)
#[test]
fn brb_state_naming_the_largest_sender_decodes() {
    let mut bytes = encode_to_vec(&(4u64, 1u64));
    bytes.extend([1, 0, 0]); // echoed
    let echoes: TallyModel = [(7, [0, 2, u32::MAX].map(ServerId::new).into())].into();
    echoes.encode(&mut bytes);
    TallyModel::new().encode(&mut bytes); // readies
    0u32.encode(&mut bytes); // pending
    let mut decoded = Brb::<u64>::decode_state(&mut Reader::new(&bytes)).unwrap();
    assert_eq!(decoded.echo_count(&7), 3);
    assert_eq!(encode_state(&decoded), bytes);
    let mut outbox = Outbox::new();
    decoded.on_message(ServerId::new(u32::MAX), BrbMessage::Echo(7), &mut outbox);
    assert_eq!(decoded.echo_count(&7), 3);
    assert!(decoded.readied(), "three ECHOs are a quorum of four");
}

#[test]
fn brb_state_with_an_impossible_configuration_is_rejected() {
    let state = |n: u64, f: u64| {
        let mut bytes = encode_to_vec(&(n, f));
        bytes.extend([0u8; 3 + 4 + 4 + 4]); // flags, two empty tallies, no indication
        Brb::<u64>::decode_state(&mut Reader::new(&bytes))
    };
    assert!(state(4, 1).is_ok());
    assert!(state(3, 1).is_err(), "n >= 3f + 1");
    assert!(state(4, u64::MAX).is_err(), "3f + 1 must not wrap");
    assert!(state(1 << 32, 1).is_err(), "servers are u32 identities");
}
