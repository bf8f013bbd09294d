//! The `is_terminal` contract for `Brb`: once an instance says it is
//! terminal, no request and no message, from any sender, in any number
//! and order, makes it send or indicate anything, and it stays terminal.
//! The interpreter drops every later input on a terminal instance's label
//! unread, so an instance that breaks the contract would change what a
//! DAG interprets to.
//!
//! Terminal states come two ways: reached through the handlers, and read
//! from snapshot bytes with any flags over any vote table, which is what a
//! snapshot on disk may hold. Handlers alone never deliver without having
//! readied (the `READY` quorum that delivers is past the plurality that
//! readies), so only the second way reaches a state that has echoed and
//! delivered but not readied.

use dagbft_codec::Reader;
use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
use dagbft_crypto::ServerId;
use dagbft_protocols::{Brb, BrbMessage, BrbRequest};
use proptest::prelude::*;

/// One input to a `Brb<u64>`: a request for a value, or an `ECHO` or
/// `READY` of a value from a sender.
#[derive(Debug, Clone)]
enum Input {
    Request(u64),
    Echo(u32, u64),
    Ready(u32, u64),
}

/// Inputs over three values from senders inside and outside the
/// configuration's four.
fn inputs(len: usize) -> impl Strategy<Value = Vec<Input>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..3).prop_map(Input::Request),
            (0u32..6, 0u64..3).prop_map(|(sender, value)| Input::Echo(sender, value)),
            (0u32..6, 0u64..3).prop_map(|(sender, value)| Input::Ready(sender, value)),
        ],
        0..len,
    )
}

fn config() -> ProtocolConfig {
    ProtocolConfig::for_n(4)
}

/// Feeds `input` to `instance`; whether it sent or indicated anything.
fn emits(instance: &mut Brb<u64>, input: &Input) -> bool {
    let mut outbox = Outbox::new(config());
    match *input {
        Input::Request(value) => instance.on_request(BrbRequest::Broadcast(value), &mut outbox),
        Input::Echo(sender, value) => {
            instance.on_message(ServerId::new(sender), BrbMessage::Echo(value), &mut outbox)
        }
        Input::Ready(sender, value) => {
            instance.on_message(ServerId::new(sender), BrbMessage::Ready(value), &mut outbox)
        }
    }
    let sent = !outbox.is_empty();
    sent || outbox.drain_indications().next().is_some()
}

/// Asserts the contract from `instance`, if it is terminal, over `rest`.
fn assert_absorbing(mut instance: Brb<u64>, rest: &[Input]) {
    if !instance.is_terminal() {
        return;
    }
    for input in rest {
        prop_assert!(
            !emits(&mut instance, input),
            "a terminal instance emits on {input:?}"
        );
        prop_assert!(instance.is_terminal(), "{input:?} ends a terminal state");
    }
}

/// The instance that `prefix` leaves, driven on to a delivery of `value`
/// when `complete`: a request and `READY`s from a quorum.
fn reached(prefix: &[Input], complete: bool, value: u64) -> Brb<u64> {
    let mut instance = Brb::new(&config(), Label::new(1), ServerId::new(0));
    for input in prefix {
        emits(&mut instance, input);
    }
    if complete {
        emits(&mut instance, &Input::Request(value));
        for sender in 0..3 {
            emits(&mut instance, &Input::Ready(sender, value));
        }
        assert!(
            instance.is_terminal(),
            "a request and 2f+1 READYs end an instance"
        );
    }
    instance
}

/// `instance`'s state as a snapshot holds it, with the flags replaced by
/// `echoed`, `readied` and `delivered`, read back.
fn with_flags(instance: &Brb<u64>, [echoed, readied, delivered]: [bool; 3]) -> Brb<u64> {
    let mut bytes = Vec::new();
    instance.encode_state(&mut bytes);
    bytes[..3].copy_from_slice(&[echoed, readied, delivered].map(u8::from));
    Brb::decode_state(&config(), &mut Reader::new(&bytes)).expect("any flags decode")
}

/// Every combination of the three flags.
fn every_flag_combination() -> impl Iterator<Item = [bool; 3]> {
    (0..8u8).map(|bits| [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_reached_terminal_state_absorbs_every_input(
        prefix in inputs(24),
        complete: bool,
        value in 0u64..3,
        rest in inputs(32),
    ) {
        let instance = reached(&prefix, complete, value);
        // Every terminal state along the way, not only the last.
        let mut walked = Brb::new(&config(), Label::new(1), ServerId::new(0));
        for (at, input) in prefix.iter().enumerate() {
            emits(&mut walked, input);
            let tail: Vec<Input> = prefix[at + 1..].iter().chain(&rest).cloned().collect();
            assert_absorbing(walked.clone(), &tail);
        }
        assert_absorbing(instance, &rest);
    }

    #[test]
    fn a_terminal_state_read_from_a_snapshot_absorbs_every_input(
        votes in inputs(24),
        rest in inputs(32),
    ) {
        let instance = reached(&votes, false, 0);
        for flags in every_flag_combination() {
            assert_absorbing(with_flags(&instance, flags), &rest);
        }
    }
}

#[test]
fn each_flag_is_needed() {
    // With any flag unset, some input still makes the instance emit, so
    // `is_terminal` must be false there. From no votes at all: a request
    // echoes, two READYs ready, and three deliver.
    let fresh = Brb::new(&config(), Label::new(1), ServerId::new(0));
    let echo = Input::Request(7);
    let deliver = [Input::Ready(1, 7), Input::Ready(2, 7), Input::Ready(3, 7)];
    for flags @ [echoed, readied, delivered] in every_flag_combination() {
        let instance = with_flags(&fresh, flags);
        assert_eq!(instance.is_terminal(), echoed && readied && delivered);
        if !echoed {
            assert!(emits(&mut instance.clone(), &echo), "{flags:?}");
        }
        if !readied {
            let mut instance = instance.clone();
            let emitted = deliver[..2].iter().any(|input| emits(&mut instance, input));
            assert!(emitted, "{flags:?}");
        }
        if !delivered {
            let mut instance = instance.clone();
            let emitted = deliver.iter().any(|input| emits(&mut instance, input));
            assert!(emitted, "{flags:?}");
        }
    }
}
