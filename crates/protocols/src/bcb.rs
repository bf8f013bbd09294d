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
//! broadcaster some correct servers may deliver while others never do. The
//! difference is observable in the workspace's byzantine integration tests
//! — a nice illustration that the embedding preserves each protocol's exact
//! property set (Theorem 5.1), neither strengthening nor weakening it.

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
/// let mut outbox = Outbox::new();
/// instance.on_request(BcbRequest::Broadcast(9), &mut outbox);
/// assert_eq!(outbox.len(), 4); // SEND 9 to everyone
/// ```
#[derive(Debug, Clone)]
pub struct Bcb<V: Value> {
    config: ProtocolConfig,
    sent: bool,
    /// The value this instance echoed, if any (one echo, ever).
    echoed: Option<V>,
    delivered: bool,
    echoes: Tally<V>,
    pending: Vec<BcbIndication<V>>,
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

    fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
        Bcb {
            config: *config,
            sent: false,
            echoed: None,
            delivered: false,
            echoes: Tally::new(),
            pending: Vec::new(),
        }
    }

    fn on_request(&mut self, request: Self::Request, outbox: &mut Outbox<Self::Message>) {
        let BcbRequest::Broadcast(value) = request;
        if !self.sent {
            self.sent = true;
            outbox.broadcast(&self.config, BcbMessage::Send(value));
        }
    }

    fn on_message(
        &mut self,
        sender: ServerId,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message>,
    ) {
        match message {
            BcbMessage::Send(value) => {
                if self.echoed.is_none() {
                    self.echoed = Some(value.clone());
                    outbox.broadcast(&self.config, BcbMessage::Echo(value));
                }
            }
            BcbMessage::Echo(value) => {
                let echoes = self.echoes.record(&value, sender);
                if !self.delivered && echoes >= self.config.quorum() {
                    self.delivered = true;
                    self.pending.push(BcbIndication::Deliver(value));
                }
            }
        }
    }

    fn drain_indications(&mut self) -> Vec<Self::Indication> {
        std::mem::take(&mut self.pending)
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
        while let Some((to, from, message)) = queue.pop() {
            let mut outbox = Outbox::new();
            instances[to].on_message(from, message, &mut outbox);
            for (next_to, next_message) in outbox.into_messages() {
                queue.push((next_to.index(), ServerId::new(to as u32), next_message));
            }
            for BcbIndication::Deliver(value) in instances[to].drain_indications() {
                assert!(delivered[to].is_none(), "no duplication");
                delivered[to] = Some(value);
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
        let mut outbox = Outbox::new();
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
        let mut outbox = Outbox::new();
        instance.on_message(ServerId::new(1), BcbMessage::Send(1), &mut outbox);
        assert_eq!(outbox.len(), 4);
        let mut outbox = Outbox::new();
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
