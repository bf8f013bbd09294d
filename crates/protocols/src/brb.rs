//! Byzantine Reliable Broadcast — the paper's Algorithm 4.
//!
//! Authenticated double-echo broadcast after Cachin–Guerraoui–Rodrigues
//! (Module 3.12), transcribed from the paper's appendix:
//!
//! ```text
//! broadcast(v):                       echoed := true; send ECHO v to all
//! on ECHO v, not echoed:              echoed := true; send ECHO v to all
//! on ECHO v from 2f+1, not readied:   readied := true; send READY v to all
//! on READY v from f+1, not readied:   readied := true; send READY v to all
//! on READY v from 2f+1, not delivered: delivered := true; deliver(v)
//! ```
//!
//! Properties (with `n ≥ 3f + 1`, one broadcast per instance): *validity*,
//! *no duplication*, *integrity*, *consistency*, and *totality*. Embedded
//! in the block DAG, these are preserved by the paper's Theorem 5.1; the
//! workspace's integration tests exercise them under byzantine behaviour.
//!
//! One instance (one [`dagbft_core::Label`]) carries one broadcast; the
//! application assigns fresh labels per broadcast (as the payments layer
//! does). The request is self-contained and authenticated by the block
//! signature of the server that inscribed it (§5).

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig, SnapshotProtocol};
use dagbft_crypto::ServerId;

use crate::tally::Tally;
use crate::value::Value;

/// Requests `Rqsts_BRB = { broadcast(v) | v ∈ Vals }`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrbRequest<V> {
    /// `broadcast(v)`.
    Broadcast(V),
}

impl<V: WireEncode> WireEncode for BrbRequest<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BrbRequest::Broadcast(value) => {
                out.push(0);
                value.encode(out);
            }
        }
    }
}

impl<V: WireDecode> WireDecode for BrbRequest<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(BrbRequest::Broadcast(V::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "BrbRequest",
                value,
            }),
        }
    }
}

/// Messages `M_BRB = { ECHO v, READY v | v ∈ Vals }`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrbMessage<V> {
    /// First phase: `ECHO v`.
    Echo(V),
    /// Second phase: `READY v`.
    Ready(V),
}

/// Indications `Inds_BRB = { deliver(v) | v ∈ Vals }`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrbIndication<V> {
    /// `deliver(v)`.
    Deliver(V),
}

impl<V: WireEncode> WireEncode for BrbIndication<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        let BrbIndication::Deliver(value) = self;
        out.push(0);
        value.encode(out);
    }
}

impl<V: WireDecode> WireDecode for BrbIndication<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(BrbIndication::Deliver(V::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "BrbIndication",
                value,
            }),
        }
    }
}

/// One process instance of byzantine reliable broadcast (Algorithm 4).
///
/// # Examples
///
/// Driving an instance directly (outside the DAG):
///
/// ```
/// use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
/// use dagbft_crypto::ServerId;
/// use dagbft_protocols::{Brb, BrbMessage, BrbRequest};
///
/// let config = ProtocolConfig::for_n(4);
/// let mut instance: Brb<u64> = Brb::new(&config, Label::new(1), ServerId::new(0));
/// let mut outbox = Outbox::new();
/// instance.on_request(BrbRequest::Broadcast(42), &mut outbox);
/// // ECHO 42 to all four servers.
/// assert_eq!(outbox.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Brb<V: Value> {
    config: ProtocolConfig,
    echoed: bool,
    readied: bool,
    delivered: bool,
    /// `ECHO v` senders, per value.
    echoes: Tally<V>,
    /// `READY v` senders, per value.
    readies: Tally<V>,
    pending: Vec<BrbIndication<V>>,
}

impl<V: Value> Brb<V> {
    /// Whether this instance has already sent its `ECHO`.
    pub fn echoed(&self) -> bool {
        self.echoed
    }

    /// Whether this instance has already sent its `READY`.
    pub fn readied(&self) -> bool {
        self.readied
    }

    /// Whether this instance has delivered.
    pub fn delivered(&self) -> bool {
        self.delivered
    }

    /// Number of distinct `ECHO` senders recorded for `value`.
    pub fn echo_count(&self, value: &V) -> usize {
        self.echoes.count(value)
    }

    /// Number of distinct `READY` senders recorded for `value`.
    pub fn ready_count(&self, value: &V) -> usize {
        self.readies.count(value)
    }

    fn maybe_ready(&mut self, value: &V, outbox: &mut Outbox<BrbMessage<V>>) {
        // Lines 9–11: 2f+1 ECHOs. Lines 12–14: f+1 READYs (amplification).
        let echo_quorum = self.echo_count(value) >= self.config.quorum();
        let ready_plurality = self.ready_count(value) >= self.config.plurality();
        if !self.readied && (echo_quorum || ready_plurality) {
            self.readied = true;
            outbox.broadcast(&self.config, BrbMessage::Ready(value.clone()));
        }
    }

    fn maybe_deliver(&mut self, value: &V) {
        // Lines 15–17: 2f+1 READYs.
        if !self.delivered && self.ready_count(value) >= self.config.quorum() {
            self.delivered = true;
            self.pending.push(BrbIndication::Deliver(value.clone()));
        }
    }
}

impl<V: Value> DeterministicProtocol for Brb<V> {
    type Request = BrbRequest<V>;
    type Message = BrbMessage<V>;
    type Indication = BrbIndication<V>;

    fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
        Brb {
            config: *config,
            echoed: false,
            readied: false,
            delivered: false,
            echoes: Tally::new(),
            readies: Tally::new(),
            pending: Vec::new(),
        }
    }

    fn on_request(&mut self, request: Self::Request, outbox: &mut Outbox<Self::Message>) {
        let BrbRequest::Broadcast(value) = request;
        // Lines 3–5: the request is assumed authenticated (§5); echo once.
        if !self.echoed {
            self.echoed = true;
            outbox.broadcast(&self.config, BrbMessage::Echo(value));
        }
    }

    fn on_message(
        &mut self,
        sender: ServerId,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message>,
    ) {
        match message {
            BrbMessage::Echo(value) => {
                // Lines 6–8: echo amplification on first ECHO.
                if !self.echoed {
                    self.echoed = true;
                    outbox.broadcast(&self.config, BrbMessage::Echo(value.clone()));
                }
                self.echoes.record(&value, sender);
                self.maybe_ready(&value, outbox);
            }
            BrbMessage::Ready(value) => {
                self.readies.record(&value, sender);
                self.maybe_ready(&value, outbox);
                self.maybe_deliver(&value);
            }
        }
    }

    fn drain_indications(&mut self) -> Vec<Self::Indication> {
        std::mem::take(&mut self.pending)
    }
}

impl<V: Value> SnapshotProtocol for Brb<V> {
    fn encode_state(&self, out: &mut Vec<u8>) {
        (self.config.n as u64).encode(out);
        (self.config.f as u64).encode(out);
        out.push(u8::from(self.echoed));
        out.push(u8::from(self.readied));
        out.push(u8::from(self.delivered));
        self.echoes.encode(out);
        self.readies.encode(out);
        (self.pending.len() as u32).encode(out);
        for indication in &self.pending {
            indication.encode(out);
        }
    }

    fn decode_state(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u64::decode(reader)?;
        let f = u64::decode(reader)?;
        // `n ≥ 3f + 1` (§2) and every server has a `ServerId`: no quorum
        // arithmetic on a corrupt `f` can overflow.
        if n > u64::from(u32::MAX) || f.checked_mul(3).is_none_or(|faulty| faulty >= n) {
            return Err(DecodeError::Invalid {
                reason: "Brb configuration violates n >= 3f + 1",
            });
        }
        let config = ProtocolConfig {
            n: n as usize,
            f: f as usize,
        };
        let mut flags = [false; 3];
        for flag in &mut flags {
            *flag = match reader.read_u8()? {
                0 => false,
                1 => true,
                value => {
                    return Err(DecodeError::InvalidDiscriminant {
                        type_name: "Brb flag",
                        value,
                    })
                }
            };
        }
        let echoes = Tally::decode(reader)?;
        let readies = Tally::decode(reader)?;
        let pending_count = reader.read_len(2)?;
        let mut pending = Vec::with_capacity(pending_count);
        for _ in 0..pending_count {
            pending.push(BrbIndication::decode(reader)?);
        }
        Ok(Brb {
            config,
            echoed: flags[0],
            readied: flags[1],
            delivered: flags[2],
            echoes,
            readies,
            pending,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A tiny in-memory network of BRB instances with synchronous,
    /// in-order delivery. `byzantine_silent` servers never respond.
    struct Net {
        config: ProtocolConfig,
        instances: Vec<Brb<u64>>,
        silent: BTreeSet<usize>,
    }

    impl Net {
        fn new(n: usize) -> Self {
            let config = ProtocolConfig::for_n(n);
            Net {
                config,
                instances: (0..n)
                    .map(|i| Brb::new(&config, Label::new(1), ServerId::new(i as u32)))
                    .collect(),
                silent: BTreeSet::new(),
            }
        }

        fn silence(&mut self, server: usize) {
            self.silent.insert(server);
        }

        /// Runs `broadcast(value)` at `origin` and delivers all messages to
        /// quiescence. Returns per-server delivered values.
        fn run(&mut self, origin: usize, value: u64) -> Vec<Option<u64>> {
            let mut queue: Vec<(usize, ServerId, BrbMessage<u64>)> = Vec::new();
            let mut outbox = Outbox::new();
            self.instances[origin].on_request(BrbRequest::Broadcast(value), &mut outbox);
            for (to, message) in outbox.into_messages() {
                queue.push((to.index(), ServerId::new(origin as u32), message));
            }
            self.pump(queue)
        }

        fn pump(&mut self, mut queue: Vec<(usize, ServerId, BrbMessage<u64>)>) -> Vec<Option<u64>> {
            while let Some((to, from, message)) = queue.pop() {
                if self.silent.contains(&to) {
                    continue;
                }
                let mut outbox = Outbox::new();
                self.instances[to].on_message(from, message, &mut outbox);
                for (next_to, next_message) in outbox.into_messages() {
                    queue.push((next_to.index(), ServerId::new(to as u32), next_message));
                }
            }
            self.instances
                .iter_mut()
                .map(|instance| {
                    instance.drain_indications().pop().map(|indication| {
                        let BrbIndication::Deliver(value) = indication;
                        value
                    })
                })
                .collect()
        }

        fn config(&self) -> ProtocolConfig {
            self.config
        }
    }

    #[test]
    fn validity_all_correct_deliver() {
        let mut net = Net::new(4);
        let delivered = net.run(0, 42);
        assert_eq!(delivered, vec![Some(42); 4]);
    }

    #[test]
    fn totality_with_f_silent() {
        let mut net = Net::new(4);
        net.silence(3);
        let delivered = net.run(0, 7);
        assert_eq!(&delivered[..3], &[Some(7), Some(7), Some(7)]);
        assert_eq!(delivered[3], None);
    }

    #[test]
    fn no_progress_beyond_f_silent() {
        // With 2 of 4 silent (> f = 1), no correct server can reach the
        // 2f+1 READY quorum — safety over liveness.
        let mut net = Net::new(4);
        net.silence(2);
        net.silence(3);
        let delivered = net.run(0, 7);
        assert_eq!(delivered, vec![None, None, None, None]);
    }

    #[test]
    fn no_duplication_second_broadcast_ignored() {
        let mut net = Net::new(4);
        let first = net.run(0, 1);
        assert_eq!(first, vec![Some(1); 4]);
        // Same instance: a second broadcast finds `echoed` set everywhere.
        let second = net.run(0, 2);
        assert_eq!(second, vec![None; 4]);
    }

    #[test]
    fn consistency_under_equivocating_echoes() {
        // A byzantine broadcaster (server 3) sends ECHO 1 to {0} and
        // ECHO 2 to {1, 2} directly. No value can gather 2f+1 = 3 ECHOs
        // from distinct servers, because correct servers echo only their
        // first value... except amplification: 0 echoes 1; 1 and 2 echo 2.
        // ECHO 2 reaches {3(silent now), 1, 2} → count(2) = 3 including the
        // byzantine echo; so 2 may deliver — but crucially no correct server
        // delivers 1 as well: agreement on a single value.
        let config = ProtocolConfig::for_n(4);
        let mut instances: Vec<Brb<u64>> = (0..4)
            .map(|i| Brb::new(&config, Label::new(1), ServerId::new(i as u32)))
            .collect();
        let byz = ServerId::new(3);
        let mut queue: Vec<(usize, ServerId, BrbMessage<u64>)> = vec![
            (0, byz, BrbMessage::Echo(1)),
            (1, byz, BrbMessage::Echo(2)),
            (2, byz, BrbMessage::Echo(2)),
        ];
        let mut delivered: Vec<Option<u64>> = vec![None; 4];
        while let Some((to, from, message)) = queue.pop() {
            if to == 3 {
                continue; // byzantine stays silent from here on
            }
            let mut outbox = Outbox::new();
            instances[to].on_message(from, message, &mut outbox);
            for (next_to, next_message) in outbox.into_messages() {
                queue.push((next_to.index(), ServerId::new(to as u32), next_message));
            }
            for indication in instances[to].drain_indications() {
                let BrbIndication::Deliver(value) = indication;
                assert!(delivered[to].is_none(), "no duplication");
                delivered[to] = Some(value);
            }
        }
        let values: BTreeSet<u64> = delivered.iter().flatten().copied().collect();
        assert!(values.len() <= 1, "consistency violated: {values:?}");
    }

    #[test]
    fn ready_amplification_from_f_plus_1() {
        // A server that saw no ECHO quorum still sends READY after f+1
        // READYs (lines 12–14) — needed for totality.
        let config = ProtocolConfig::for_n(4);
        let mut instance: Brb<u64> = Brb::new(&config, Label::new(1), ServerId::new(0));
        let mut outbox = Outbox::new();
        instance.on_message(ServerId::new(1), BrbMessage::Ready(9), &mut outbox);
        assert!(outbox.is_empty());
        assert!(!instance.readied());
        let mut outbox = Outbox::new();
        instance.on_message(ServerId::new(2), BrbMessage::Ready(9), &mut outbox);
        assert!(instance.readied());
        let readies = outbox
            .into_messages()
            .into_iter()
            .filter(|(_, m)| matches!(m, BrbMessage::Ready(9)))
            .count();
        assert_eq!(readies, 4);
    }

    #[test]
    fn duplicate_senders_counted_once() {
        let config = ProtocolConfig::for_n(4);
        let mut instance: Brb<u64> = Brb::new(&config, Label::new(1), ServerId::new(0));
        let mut outbox = Outbox::new();
        for _ in 0..5 {
            instance.on_message(ServerId::new(1), BrbMessage::Ready(3), &mut outbox);
        }
        assert_eq!(instance.ready_count(&3), 1);
        assert!(!instance.readied());
    }

    #[test]
    fn larger_network_n_10() {
        let mut net = Net::new(10);
        // f = 3: silence exactly f servers.
        net.silence(7);
        net.silence(8);
        net.silence(9);
        let delivered = net.run(0, 100);
        for (server, value) in delivered.iter().enumerate().take(7) {
            assert_eq!(*value, Some(100), "server {server}");
        }
        let _ = net.config();
    }

    #[test]
    fn request_wire_roundtrip() {
        let request: BrbRequest<u64> = BrbRequest::Broadcast(77);
        let bytes = dagbft_codec::encode_to_vec(&request);
        let decoded: BrbRequest<u64> = dagbft_codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, request);
    }

    #[test]
    fn snapshot_state_roundtrip_is_canonical() {
        let config = ProtocolConfig::for_n(4);
        let mut instance: Brb<u64> = Brb::new(&config, Label::new(1), ServerId::new(0));
        let mut outbox = Outbox::new();
        instance.on_message(ServerId::new(1), BrbMessage::Echo(9), &mut outbox);
        instance.on_message(ServerId::new(2), BrbMessage::Ready(9), &mut outbox);
        instance.on_message(ServerId::new(3), BrbMessage::Ready(9), &mut outbox);

        let mut bytes = Vec::new();
        instance.encode_state(&mut bytes);
        let mut reader = Reader::new(&bytes);
        let decoded = Brb::<u64>::decode_state(&mut reader).unwrap();
        assert_eq!(reader.remaining(), 0, "snapshot must be self-delimiting");

        // Canonical: identical state re-encodes to identical bytes.
        let mut reencoded = Vec::new();
        decoded.encode_state(&mut reencoded);
        assert_eq!(reencoded, bytes);

        // Observationally identical.
        assert_eq!(decoded.echoed(), instance.echoed());
        assert_eq!(decoded.readied(), instance.readied());
        assert_eq!(decoded.delivered(), instance.delivered());
        assert_eq!(decoded.echo_count(&9), instance.echo_count(&9));
        assert_eq!(decoded.ready_count(&9), instance.ready_count(&9));
    }

    #[test]
    fn snapshot_decode_never_panics_on_garbage() {
        for len in 0..64usize {
            let bytes = vec![0xFFu8; len];
            let mut reader = Reader::new(&bytes);
            let _ = Brb::<u64>::decode_state(&mut reader);
        }
    }

    #[test]
    fn message_order_echo_before_ready() {
        // The derived total order is part of the protocol contract.
        assert!(BrbMessage::Echo(5u64) < BrbMessage::Ready(0u64));
    }
}
