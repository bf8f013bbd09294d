//! Byzantine Consistent Broadcast (authenticated echo broadcast).
//!
//! A second, cheaper deterministic protocol `P` after
//! Cachin–Guerraoui–Rodrigues Module 3.10, demonstrating that the block DAG
//! framework is parametric in `P`:
//!
//! ```text
//! broadcast(v):                        send SEND v to all
//! on SEND v, no echo sent yet:         send ECHO v to all
//! on ECHO v from 2f+1, not delivered:  deliver(v)
//! ```
//!
//! Compared with [`crate::brb`] it provides *consistency* (no two correct
//! servers deliver different values) but **not totality**: with a byzantine
//! broadcaster some correct servers may deliver while others never do.
//!
//! What is tested of that, and where:
//! * the unit test `no_totality_guarantee_documented` below drives bare
//!   instances with a byzantine sender's conflicting messages, and one
//!   honest server never delivers;
//! * `tests/byzantine.rs::bcb_consistency_but_not_totality_under_equivocation`
//!   embeds `Bcb` in the DAG with an equivocating *builder*, but injects
//!   its request at honest server 1, so the broadcaster is correct. It
//!   asserts consistency only;
//! * `tests/byzantine.rs::a_byzantine_broadcaster_is_delivered_by_every_honest_server`
//!   embeds `Bcb` with a byzantine broadcaster inside the DAG: it
//!   inscribes the request, then sends its blocks to one server only,
//!   repeats them, or forks at one of its first three. Over 16 seeds per
//!   role every honest server delivers — the embedding gives `Bcb`
//!   totality in those runs (a non-equivocating byzantine sender is
//!   interpreted as a correct one). An argument for every schedule is
//!   `ROADMAP.md` item 14(b).

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
use dagbft_crypto::ServerId;

use crate::tally::Tally;
use crate::value::Value;

/// Requests `{ broadcast(v) }`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BcbRequest<V> {
    /// `broadcast(v)`.
    Broadcast(V),
}

impl<V: WireEncode> WireEncode for BcbRequest<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BcbRequest::Broadcast(value) => {
                out.push(0);
                value.encode(out);
            }
        }
    }
}

impl<V: WireDecode> WireDecode for BcbRequest<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(BcbRequest::Broadcast(V::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "BcbRequest",
                value,
            }),
        }
    }
}

/// Messages `{ SEND v, ECHO v }`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BcbMessage<V> {
    /// The broadcaster's initial `SEND v`.
    Send(V),
    /// A witness's `ECHO v`.
    Echo(V),
}

/// Indications `{ deliver(v) }`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BcbIndication<V> {
    /// `deliver(v)`.
    Deliver(V),
}

/// One process instance of byzantine consistent broadcast.
///
/// # Examples
///
/// ```
/// use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
/// use dagbft_crypto::ServerId;
/// use dagbft_protocols::{Bcb, BcbRequest};
///
/// let config = ProtocolConfig::for_n(4);
/// let mut instance: Bcb<u64> = Bcb::new(&config, Label::new(1), ServerId::new(0));
/// let mut outbox = Outbox::new(config);
/// instance.on_request(BcbRequest::Broadcast(9), &mut outbox);
/// assert_eq!(outbox.len(), 4); // SEND 9 to everyone
/// ```
#[derive(Debug, Clone)]
pub struct Bcb<V: Value> {
    sent: bool,
    /// The value this instance echoed, if any (one echo, ever).
    echoed: Option<V>,
    delivered: bool,
    echoes: Tally<V>,
}

impl<V: Value> Bcb<V> {
    /// The value this instance echoed, if any.
    pub fn echoed(&self) -> Option<&V> {
        self.echoed.as_ref()
    }

    /// Whether this instance has delivered.
    pub fn delivered(&self) -> bool {
        self.delivered
    }

    /// Number of distinct `ECHO` senders recorded for `value`.
    pub fn echo_count(&self, value: &V) -> usize {
        self.echoes.count(value)
    }
}

impl<V: Value> DeterministicProtocol for Bcb<V> {
    type Request = BcbRequest<V>;
    type Message = BcbMessage<V>;
    type Indication = BcbIndication<V>;

    fn new(_config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
        Bcb {
            sent: false,
            echoed: None,
            delivered: false,
            echoes: Tally::new(),
        }
    }

    fn on_request(
        &mut self,
        request: Self::Request,
        outbox: &mut Outbox<Self::Message, Self::Indication>,
    ) {
        let BcbRequest::Broadcast(value) = request;
        if !self.sent {
            self.sent = true;
            outbox.broadcast(BcbMessage::Send(value));
        }
    }

    fn on_message(
        &mut self,
        sender: ServerId,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message, Self::Indication>,
    ) {
        match message {
            BcbMessage::Send(value) => {
                if self.echoed.is_none() {
                    self.echoed = Some(value.clone());
                    outbox.broadcast(BcbMessage::Echo(value));
                }
            }
            BcbMessage::Echo(value) => {
                let echoes = self.echoes.record(&value, sender);
                if !self.delivered && echoes >= outbox.config().quorum() {
                    self.delivered = true;
                    outbox.indicate(BcbIndication::Deliver(value));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn pump(
        instances: &mut [Bcb<u64>],
        mut queue: Vec<(usize, ServerId, BcbMessage<u64>)>,
    ) -> Vec<Option<u64>> {
        let mut delivered = vec![None; instances.len()];
        let config = ProtocolConfig::for_n(instances.len());
        while let Some((to, from, message)) = queue.pop() {
            let mut outbox = Outbox::new(config);
            instances[to].on_message(from, message, &mut outbox);
            for BcbIndication::Deliver(value) in outbox.drain_indications() {
                assert!(delivered[to].is_none(), "no duplication");
                delivered[to] = Some(value);
            }
            for (next_to, next_message) in outbox.into_messages() {
                queue.push((next_to.index(), ServerId::new(to as u32), next_message));
            }
        }
        delivered
    }

    fn fresh(n: usize) -> Vec<Bcb<u64>> {
        let config = ProtocolConfig::for_n(n);
        (0..n)
            .map(|i| Bcb::new(&config, Label::new(1), ServerId::new(i as u32)))
            .collect()
    }

    #[test]
    fn validity_with_correct_broadcaster() {
        let mut instances = fresh(4);
        let mut outbox = Outbox::new(ProtocolConfig::for_n(4));
        instances[0].on_request(BcbRequest::Broadcast(5), &mut outbox);
        let queue = outbox
            .into_messages()
            .into_iter()
            .map(|(to, m)| (to.index(), ServerId::new(0), m))
            .collect();
        let delivered = pump(&mut instances, queue);
        assert_eq!(delivered, vec![Some(5); 4]);
    }

    #[test]
    fn consistency_split_sends_cannot_deliver_two_values() {
        // Byzantine broadcaster sends SEND 1 to {0,1} and SEND 2 to {2}.
        // Echo quorums (3 of 4) for two different values would need 6
        // distinct echoers among 4 — impossible: at most one value delivers.
        let mut instances = fresh(4);
        let byz = ServerId::new(3);
        let queue = vec![
            (0, byz, BcbMessage::Send(1)),
            (1, byz, BcbMessage::Send(1)),
            (2, byz, BcbMessage::Send(2)),
        ];
        let delivered = pump(&mut instances, queue);
        let values: BTreeSet<u64> = delivered.iter().flatten().copied().collect();
        assert!(values.len() <= 1, "consistency violated: {values:?}");
    }

    #[test]
    fn no_totality_guarantee_documented() {
        // With the byzantine broadcaster echoing for itself, value 1 can
        // reach quorum {0, 1, 3} while server 2 (echoed 2) never delivers —
        // consistent but not total.
        let mut instances = fresh(4);
        let byz = ServerId::new(3);
        let queue = vec![
            (0, byz, BcbMessage::Send(1)),
            (1, byz, BcbMessage::Send(1)),
            (2, byz, BcbMessage::Send(2)),
            (0, byz, BcbMessage::Echo(1)),
            (1, byz, BcbMessage::Echo(1)),
        ];
        let delivered = pump(&mut instances, queue);
        assert_eq!(delivered[0], Some(1));
        assert_eq!(delivered[1], Some(1));
        assert_eq!(delivered[2], None, "no totality");
    }

    #[test]
    fn echo_only_once() {
        let config = ProtocolConfig::for_n(4);
        let mut instance: Bcb<u64> = Bcb::new(&config, Label::new(1), ServerId::new(0));
        let mut outbox = Outbox::new(config);
        instance.on_message(ServerId::new(1), BcbMessage::Send(1), &mut outbox);
        assert_eq!(outbox.len(), 4);
        let mut outbox = Outbox::new(config);
        instance.on_message(ServerId::new(2), BcbMessage::Send(2), &mut outbox);
        assert!(outbox.is_empty(), "echoes exactly once");
        assert_eq!(instance.echoed(), Some(&1));
    }

    #[test]
    fn request_wire_roundtrip() {
        let request: BcbRequest<String> = BcbRequest::Broadcast("pay".to_owned());
        let bytes = dagbft_codec::encode_to_vec(&request);
        let decoded: BcbRequest<String> = dagbft_codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, request);
    }
}
