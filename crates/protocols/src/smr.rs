//! PBFT-lite state machine replication — the Blockmania use case.
//!
//! Blockmania (§6 of the paper) encodes "a simplified version of PBFT" in a
//! block DAG. This module provides that style of protocol as a deterministic
//! `P`: a three-phase commit (`PRE-PREPARE` → `PREPARE` → `COMMIT`) with a
//! **fixed leader per instance label** (`leader = ℓ mod n`). Running many
//! labels round-robin gives a rotating-leader system "for free" — precisely
//! the parallel-instances benefit the paper claims, and the same trick
//! Blockmania uses (one instance per block producer).
//!
//! Properties:
//!
//! * **Safety** (always, `n ≥ 3f + 1`): no two correct servers commit
//!   different values for the same slot — correct servers prepare at most
//!   one value per slot, and two 2f+1 quorums intersect in a correct
//!   server.
//! * **Liveness** (correct leader): every forwarded proposal commits.
//!   A byzantine leader can halt its own instance (never its safety);
//!   view-change requires timeouts, i.e. non-determinism, which the paper
//!   explicitly defers (§7 "partial synchrony" extension) — rotating labels
//!   provide the practical fallback.
//!
//! Committed slots are indicated **in slot order** per instance (total
//! order delivery).

use std::collections::{BTreeMap, BTreeSet};

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
use dagbft_crypto::ServerId;

use crate::tally::Tally;
use crate::value::Value;

/// A slot in the replicated log of one SMR instance.
pub type Slot = u64;

/// Requests: propose a value for the next free slot.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SmrRequest<V> {
    /// `propose(v)` — forwarded to the instance leader if necessary.
    Propose(V),
}

impl<V: WireEncode> WireEncode for SmrRequest<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SmrRequest::Propose(value) => {
                out.push(0);
                value.encode(out);
            }
        }
    }
}

impl<V: WireDecode> WireDecode for SmrRequest<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(SmrRequest::Propose(V::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "SmrRequest",
                value,
            }),
        }
    }
}

/// Protocol messages of the three-phase commit.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SmrMessage<V> {
    /// A non-leader forwards a proposal to the leader.
    Forward(V),
    /// The leader assigns a slot: `PRE-PREPARE(slot, v)`.
    PrePrepare(Slot, V),
    /// `PREPARE(slot, v)`.
    Prepare(Slot, V),
    /// `COMMIT(slot, v)`.
    Commit(Slot, V),
}

/// Indications: a slot committed (raised in slot order).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SmrIndication<V> {
    /// `committed(slot, v)`.
    Committed(Slot, V),
}

/// Per-slot consensus state.
#[derive(Debug, Clone)]
struct SlotState<V: Value> {
    /// The value accepted from the leader's first `PRE-PREPARE` — the
    /// prepare lock: a correct server prepares at most one value per slot.
    accepted: Option<V>,
    /// Per value, its `PREPARE` senders (column [`PREPARE`]) and its
    /// `COMMIT` senders (column [`COMMIT`]).
    votes: Tally<V, 2>,
    sent_commit: bool,
    committed: Option<V>,
}

/// The column of a [`SlotState`]'s vote table that counts `PREPARE`s.
const PREPARE: usize = 0;
/// The column of a [`SlotState`]'s vote table that counts `COMMIT`s.
const COMMIT: usize = 1;

impl<V: Value> Default for SlotState<V> {
    fn default() -> Self {
        SlotState {
            accepted: None,
            votes: Tally::new(),
            sent_commit: false,
            committed: None,
        }
    }
}

/// One process instance of PBFT-lite SMR with leader `ℓ mod n`.
///
/// # Examples
///
/// ```
/// use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
/// use dagbft_crypto::ServerId;
/// use dagbft_protocols::{Smr, SmrRequest};
///
/// let config = ProtocolConfig::for_n(4);
/// // Label 2 → leader is server 2; this instance runs as server 2.
/// let mut leader: Smr<u64> = Smr::new(&config, Label::new(2), ServerId::new(2));
/// let mut outbox = Outbox::new(config);
/// leader.on_request(SmrRequest::Propose(9), &mut outbox);
/// assert_eq!(outbox.len(), 4); // PRE-PREPARE(0, 9) to everyone
/// ```
#[derive(Debug, Clone)]
pub struct Smr<V: Value> {
    me: ServerId,
    leader: ServerId,
    /// Next slot the leader assigns.
    next_slot: Slot,
    /// Values the leader has already assigned a slot (at-most-once per
    /// distinct value per instance).
    assigned: BTreeSet<V>,
    slots: BTreeMap<Slot, SlotState<V>>,
    /// Lowest slot not yet delivered (ordered delivery).
    next_deliver: Slot,
}

impl<V: Value> Smr<V> {
    /// The leader of this instance (`ℓ mod n`).
    pub fn leader(&self) -> ServerId {
        self.leader
    }

    /// Whether this instance is the leader's.
    pub fn is_leader(&self) -> bool {
        self.me == self.leader
    }

    /// The committed value of `slot`, if any.
    pub fn committed(&self, slot: Slot) -> Option<&V> {
        self.slots.get(&slot).and_then(|s| s.committed.as_ref())
    }

    fn leader_assign(&mut self, value: V, outbox: &mut Outbox<SmrMessage<V>, SmrIndication<V>>) {
        if self.assigned.contains(&value) {
            return;
        }
        self.assigned.insert(value.clone());
        let slot = self.next_slot;
        self.next_slot += 1;
        outbox.broadcast(SmrMessage::PrePrepare(slot, value));
    }

    fn try_deliver(&mut self, outbox: &mut Outbox<SmrMessage<V>, SmrIndication<V>>) {
        while let Some(state) = self.slots.get(&self.next_deliver) {
            let Some(value) = state.committed.clone() else {
                break;
            };
            outbox.indicate(SmrIndication::Committed(self.next_deliver, value));
            self.next_deliver += 1;
        }
    }
}

impl<V: Value> DeterministicProtocol for Smr<V> {
    type Request = SmrRequest<V>;
    type Message = SmrMessage<V>;
    type Indication = SmrIndication<V>;

    fn new(config: &ProtocolConfig, label: Label, me: ServerId) -> Self {
        let leader = ServerId::new((label.id() % config.n as u64) as u32);
        Smr {
            me,
            leader,
            next_slot: 0,
            assigned: BTreeSet::new(),
            slots: BTreeMap::new(),
            next_deliver: 0,
        }
    }

    fn on_request(
        &mut self,
        request: Self::Request,
        outbox: &mut Outbox<Self::Message, Self::Indication>,
    ) {
        let SmrRequest::Propose(value) = request;
        if self.is_leader() {
            self.leader_assign(value, outbox);
        } else {
            outbox.send(self.leader, SmrMessage::Forward(value));
        }
    }

    fn on_message(
        &mut self,
        sender: ServerId,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message, Self::Indication>,
    ) {
        match message {
            SmrMessage::Forward(value) => {
                if self.is_leader() {
                    self.leader_assign(value, outbox);
                }
            }
            SmrMessage::PrePrepare(slot, value) => {
                // Accept only from the leader, at most once per slot.
                if sender != self.leader {
                    return;
                }
                let state = self.slots.entry(slot).or_default();
                if state.accepted.is_none() {
                    state.accepted = Some(value.clone());
                    outbox.broadcast(SmrMessage::Prepare(slot, value));
                }
            }
            SmrMessage::Prepare(slot, value) => {
                let quorum = outbox.config().quorum();
                let state = self.slots.entry(slot).or_default();
                let [prepares, _] = state.votes.record_in(PREPARE, &value, sender);
                let prepared = prepares.len() >= quorum;
                // Commit only for the value we accepted (the prepare lock):
                // a correct server never helps commit a value it did not
                // accept from the leader.
                let is_accepted = state.accepted.as_ref() == Some(&value);
                if prepared && is_accepted && !state.sent_commit {
                    state.sent_commit = true;
                    outbox.broadcast(SmrMessage::Commit(slot, value));
                }
            }
            SmrMessage::Commit(slot, value) => {
                let quorum = outbox.config().quorum();
                let state = self.slots.entry(slot).or_default();
                let [_, commits] = state.votes.record_in(COMMIT, &value, sender);
                if state.committed.is_none() && commits.len() >= quorum {
                    state.committed = Some(value);
                    self.try_deliver(outbox);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    struct Net {
        config: ProtocolConfig,
        instances: Vec<Smr<u64>>,
        /// Servers that drop all incoming traffic.
        silent: BTreeSet<usize>,
        /// Per server, the slots and values it committed, in order.
        committed: Vec<Vec<(Slot, u64)>>,
    }

    impl Net {
        fn new(n: usize, label: u64) -> Self {
            let config = ProtocolConfig::for_n(n);
            Net {
                config,
                instances: (0..n)
                    .map(|i| Smr::new(&config, Label::new(label), ServerId::new(i as u32)))
                    .collect(),
                silent: BTreeSet::new(),
                committed: vec![Vec::new(); n],
            }
        }

        fn propose(&mut self, origin: usize, value: u64) {
            let mut outbox = Outbox::new(self.config);
            self.instances[origin].on_request(SmrRequest::Propose(value), &mut outbox);
            let queue: VecDeque<(usize, ServerId, SmrMessage<u64>)> = outbox
                .into_messages()
                .into_iter()
                .map(|(to, m)| (to.index(), ServerId::new(origin as u32), m))
                .collect();
            self.pump(queue);
        }

        fn pump(&mut self, mut queue: VecDeque<(usize, ServerId, SmrMessage<u64>)>) {
            while let Some((to, from, message)) = queue.pop_front() {
                if self.silent.contains(&to) {
                    continue;
                }
                let mut outbox = Outbox::new(self.config);
                self.instances[to].on_message(from, message, &mut outbox);
                for SmrIndication::Committed(slot, value) in outbox.drain_indications() {
                    self.committed[to].push((slot, value));
                }
                for (next_to, next_message) in outbox.into_messages() {
                    queue.push_back((next_to.index(), ServerId::new(to as u32), next_message));
                }
            }
        }

        fn committed_logs(&mut self) -> Vec<Vec<(Slot, u64)>> {
            let n = self.instances.len();
            std::mem::replace(&mut self.committed, vec![Vec::new(); n])
        }
    }

    #[test]
    fn leader_derivation_from_label() {
        let config = ProtocolConfig::for_n(4);
        let instance: Smr<u64> = Smr::new(&config, Label::new(6), ServerId::new(0));
        assert_eq!(instance.leader(), ServerId::new(2));
        assert!(!instance.is_leader());
    }

    #[test]
    fn commit_via_leader_proposal() {
        let mut net = Net::new(4, 0); // leader = s0
        net.propose(0, 42);
        let logs = net.committed_logs();
        assert_eq!(logs, vec![vec![(0, 42)]; 4]);
    }

    #[test]
    fn commit_via_forwarded_proposal() {
        let mut net = Net::new(4, 1); // leader = s1
        net.propose(3, 9); // s3 forwards to s1
        let logs = net.committed_logs();
        assert_eq!(logs, vec![vec![(0, 9)]; 4]);
    }

    #[test]
    fn slots_assigned_in_order_and_delivered_in_order() {
        let mut net = Net::new(4, 0);
        net.propose(0, 10);
        net.propose(0, 20);
        net.propose(2, 30);
        let logs = net.committed_logs();
        for log in logs {
            assert_eq!(log, vec![(0, 10), (1, 20), (2, 30)]);
        }
    }

    #[test]
    fn duplicate_proposals_assigned_once() {
        let mut net = Net::new(4, 0);
        net.propose(0, 5);
        net.propose(1, 5); // forwarded duplicate
        let logs = net.committed_logs();
        assert_eq!(logs, vec![vec![(0, 5)]; 4]);
    }

    #[test]
    fn tolerates_f_silent_followers() {
        let mut net = Net::new(4, 0);
        net.silent.insert(3);
        net.propose(0, 7);
        let logs = net.committed_logs();
        for log in &logs[..3] {
            assert_eq!(log, &vec![(0, 7)]);
        }
        assert!(logs[3].is_empty());
    }

    #[test]
    fn halts_without_quorum() {
        let mut net = Net::new(4, 0);
        net.silent.insert(2);
        net.silent.insert(3);
        net.propose(0, 7);
        let logs = net.committed_logs();
        assert!(logs.iter().all(Vec::is_empty), "no quorum, no commit");
    }

    #[test]
    fn byzantine_leader_equivocation_is_safe() {
        // The "leader" (s0) sends PRE-PREPARE(0, 1) to {s1} and
        // PRE-PREPARE(0, 2) to {s2, s3}: prepares split 1:2 (+leader's own
        // choices), no value reaches quorum 3 among correct acceptors —
        // nothing commits, and certainly not two values.
        let config = ProtocolConfig::for_n(4);
        let mut instances: Vec<Smr<u64>> = (0..4)
            .map(|i| Smr::new(&config, Label::new(0), ServerId::new(i as u32)))
            .collect();
        let leader = ServerId::new(0);
        let mut queue: VecDeque<(usize, ServerId, SmrMessage<u64>)> = VecDeque::from(vec![
            (1, leader, SmrMessage::PrePrepare(0, 1)),
            (2, leader, SmrMessage::PrePrepare(0, 2)),
            (3, leader, SmrMessage::PrePrepare(0, 2)),
        ]);
        let mut committed = Vec::new();
        while let Some((to, from, message)) = queue.pop_front() {
            if to == 0 {
                continue; // byzantine leader ignores the protocol now
            }
            let mut outbox = Outbox::new(config);
            instances[to].on_message(from, message, &mut outbox);
            committed.extend(outbox.drain_indications());
            for (next_to, next_message) in outbox.into_messages() {
                queue.push_back((next_to.index(), ServerId::new(to as u32), next_message));
            }
        }
        // Value 2 gathers prepares from {2, 3} only (s1 is locked on 1):
        // 2 < quorum 3 → no commit anywhere.
        assert!(
            committed.is_empty(),
            "equivocation must not commit: {committed:?}"
        );
    }

    #[test]
    fn non_leader_preprepare_ignored() {
        let config = ProtocolConfig::for_n(4);
        let mut instance: Smr<u64> = Smr::new(&config, Label::new(0), ServerId::new(1));
        let mut outbox = Outbox::new(config);
        instance.on_message(ServerId::new(2), SmrMessage::PrePrepare(0, 5), &mut outbox);
        assert!(outbox.is_empty(), "only the leader may pre-prepare");
    }

    #[test]
    fn out_of_order_commits_delivered_in_order() {
        // Commit slot 1 first, then slot 0: indications must come out 0, 1.
        let config = ProtocolConfig::for_n(4);
        let mut instance: Smr<u64> = Smr::new(&config, Label::new(0), ServerId::new(1));
        let leader = ServerId::new(0);
        let mut sink = Outbox::new(config);
        for slot in [1u64, 0u64] {
            instance.on_message(leader, SmrMessage::PrePrepare(slot, slot + 10), &mut sink);
            for sender in 0..3 {
                instance.on_message(
                    ServerId::new(sender),
                    SmrMessage::Prepare(slot, slot + 10),
                    &mut sink,
                );
            }
            for sender in 0..3 {
                instance.on_message(
                    ServerId::new(sender),
                    SmrMessage::Commit(slot, slot + 10),
                    &mut sink,
                );
            }
        }
        let indications: Vec<_> = sink.drain_indications().collect();
        assert_eq!(
            indications,
            vec![
                SmrIndication::Committed(0, 10),
                SmrIndication::Committed(1, 11),
            ]
        );
    }

    #[test]
    fn request_wire_roundtrip() {
        let request: SmrRequest<u64> = SmrRequest::Propose(3);
        let bytes = dagbft_codec::encode_to_vec(&request);
        let decoded: SmrRequest<u64> = dagbft_codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, request);
    }
}
