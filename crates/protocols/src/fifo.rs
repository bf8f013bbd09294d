//! FIFO-ordered byzantine reliable broadcast.
//!
//! A *composite* deterministic protocol: each instance carries an
//! unbounded stream of broadcasts per sender, every `(origin, seq)` pair
//! running the double-echo logic of [`crate::brb`] as a sub-instance,
//! with delivery gated by per-origin sequence order (after
//! Cachin–Guerraoui–Rodrigues Module 3.9 layered over Module 3.12).
//!
//! Included to demonstrate that protocol *composition* embeds in the block
//! DAG unchanged: the framework only sees one more deterministic state
//! machine. One instance label can now serve a whole application stream
//! instead of one broadcast — the complementary point to the payments
//! app's one-label-per-transfer design.
//!
//! Properties: those of BRB per `(origin, seq)`, plus **FIFO delivery** —
//! if a correct server broadcasts `v1` before `v2`, no correct server
//! delivers `v2` before `v1`. A byzantine origin that skips a sequence
//! number stalls only *its own* stream.

use std::collections::BTreeMap;

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
use dagbft_crypto::ServerId;

use crate::tally::Tally;
use crate::value::Value;

/// Per-sender stream position.
pub type StreamSeq = u64;

/// Requests: broadcast the next value in this server's stream.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum FifoRequest<V> {
    /// `broadcast(v)` — sequenced automatically per sender.
    Broadcast(V),
}

impl<V: WireEncode> WireEncode for FifoRequest<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FifoRequest::Broadcast(value) => {
                out.push(0);
                value.encode(out);
            }
        }
    }
}

impl<V: WireDecode> WireDecode for FifoRequest<V> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(FifoRequest::Broadcast(V::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "FifoRequest",
                value,
            }),
        }
    }
}

/// Messages: double-echo phases tagged with the sub-instance `(origin, seq)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum FifoMessage<V> {
    /// `ECHO` for stream element `(origin, seq)`.
    Echo(ServerId, StreamSeq, V),
    /// `READY` for stream element `(origin, seq)`.
    Ready(ServerId, StreamSeq, V),
}

/// Indications: FIFO-ordered deliveries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FifoDeliver<V> {
    /// The broadcasting server.
    pub origin: ServerId,
    /// Position in the origin's stream.
    pub seq: StreamSeq,
    /// The delivered value.
    pub value: V,
}

/// Double-echo state of one `(origin, seq)` sub-instance.
#[derive(Debug, Clone)]
struct Sub<V: Value> {
    echoed: bool,
    readied: bool,
    delivered: bool,
    echoes: Tally<V>,
    readies: Tally<V>,
}

impl<V: Value> Default for Sub<V> {
    fn default() -> Self {
        Sub {
            echoed: false,
            readied: false,
            delivered: false,
            echoes: Tally::new(),
            readies: Tally::new(),
        }
    }
}

/// One process instance of FIFO reliable broadcast.
///
/// # Examples
///
/// ```
/// use dagbft_core::{DeterministicProtocol, Label, Outbox, ProtocolConfig};
/// use dagbft_crypto::ServerId;
/// use dagbft_protocols::fifo::{Fifo, FifoRequest};
///
/// let config = ProtocolConfig::for_n(4);
/// let mut instance: Fifo<u64> = Fifo::new(&config, Label::new(1), ServerId::new(0));
/// let mut outbox = Outbox::new();
/// instance.on_request(FifoRequest::Broadcast(1), &mut outbox);
/// instance.on_request(FifoRequest::Broadcast(2), &mut outbox);
/// assert_eq!(outbox.len(), 8); // two sequenced ECHO broadcasts
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<V: Value> {
    config: ProtocolConfig,
    me: ServerId,
    /// Next sequence number for own broadcasts.
    next_own_seq: StreamSeq,
    subs: BTreeMap<(ServerId, StreamSeq), Sub<V>>,
    /// Values whose sub-instance completed, awaiting FIFO release.
    staged: BTreeMap<(ServerId, StreamSeq), V>,
    /// Next deliverable position per origin.
    cursor: BTreeMap<ServerId, StreamSeq>,
    pending: Vec<FifoDeliver<V>>,
}

impl<V: Value> Fifo<V> {
    /// Number of completed-but-held-back stream elements (gaps ahead).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The next position expected from `origin`.
    pub fn cursor_of(&self, origin: ServerId) -> StreamSeq {
        self.cursor.get(&origin).copied().unwrap_or(0)
    }

    fn handle_echo(
        &mut self,
        sender: ServerId,
        origin: ServerId,
        seq: StreamSeq,
        value: V,
        outbox: &mut Outbox<FifoMessage<V>>,
    ) {
        let quorum = self.config.quorum();
        let config = self.config;
        let sub = self.subs.entry((origin, seq)).or_default();
        if !sub.echoed {
            sub.echoed = true;
            outbox.broadcast(&config, FifoMessage::Echo(origin, seq, value.clone()));
        }
        let echo_count = sub.echoes.record(&value, sender);
        if !sub.readied && echo_count >= quorum {
            sub.readied = true;
            outbox.broadcast(&config, FifoMessage::Ready(origin, seq, value));
        }
    }

    fn handle_ready(
        &mut self,
        sender: ServerId,
        origin: ServerId,
        seq: StreamSeq,
        value: V,
        outbox: &mut Outbox<FifoMessage<V>>,
    ) {
        let quorum = self.config.quorum();
        let plurality = self.config.plurality();
        let config = self.config;
        let sub = self.subs.entry((origin, seq)).or_default();
        let ready_count = sub.readies.record(&value, sender);
        if !sub.readied && ready_count >= plurality {
            sub.readied = true;
            outbox.broadcast(&config, FifoMessage::Ready(origin, seq, value.clone()));
        }
        if !sub.delivered && ready_count >= quorum {
            sub.delivered = true;
            self.staged.insert((origin, seq), value);
            self.release(origin);
        }
    }

    /// Releases staged values of `origin` in sequence order.
    fn release(&mut self, origin: ServerId) {
        let mut cursor = self.cursor_of(origin);
        while let Some(value) = self.staged.remove(&(origin, cursor)) {
            self.pending.push(FifoDeliver {
                origin,
                seq: cursor,
                value,
            });
            cursor += 1;
        }
        self.cursor.insert(origin, cursor);
    }
}

impl<V: Value> DeterministicProtocol for Fifo<V> {
    type Request = FifoRequest<V>;
    type Message = FifoMessage<V>;
    type Indication = FifoDeliver<V>;

    fn new(config: &ProtocolConfig, _label: Label, me: ServerId) -> Self {
        Fifo {
            config: *config,
            me,
            next_own_seq: 0,
            subs: BTreeMap::new(),
            staged: BTreeMap::new(),
            cursor: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    fn on_request(&mut self, request: Self::Request, outbox: &mut Outbox<Self::Message>) {
        let FifoRequest::Broadcast(value) = request;
        let seq = self.next_own_seq;
        self.next_own_seq += 1;
        let me = self.me;
        // Act as the origin's first echo (Algorithm 4 lines 3–5, per sub).
        self.handle_echo(me, me, seq, value, outbox);
    }

    fn on_message(
        &mut self,
        sender: ServerId,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message>,
    ) {
        match message {
            FifoMessage::Echo(origin, seq, value) => {
                self.handle_echo(sender, origin, seq, value, outbox)
            }
            FifoMessage::Ready(origin, seq, value) => {
                self.handle_ready(sender, origin, seq, value, outbox)
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

    struct Net {
        instances: Vec<Fifo<u64>>,
        /// Messages held back (not delivered) while `true`.
        hold: bool,
        held: Vec<(usize, ServerId, FifoMessage<u64>)>,
    }

    impl Net {
        fn new(n: usize) -> Self {
            let config = ProtocolConfig::for_n(n);
            Net {
                instances: (0..n)
                    .map(|i| Fifo::new(&config, Label::new(1), ServerId::new(i as u32)))
                    .collect(),
                hold: false,
                held: Vec::new(),
            }
        }

        fn broadcast(&mut self, origin: usize, value: u64) {
            let mut outbox = Outbox::new();
            self.instances[origin].on_request(FifoRequest::Broadcast(value), &mut outbox);
            let queue: Vec<_> = outbox
                .into_messages()
                .into_iter()
                .map(|(to, m)| (to.index(), ServerId::new(origin as u32), m))
                .collect();
            self.pump(queue);
        }

        fn pump(&mut self, mut queue: Vec<(usize, ServerId, FifoMessage<u64>)>) {
            while let Some((to, from, message)) = queue.pop() {
                if self.hold {
                    self.held.push((to, from, message));
                    continue;
                }
                let mut outbox = Outbox::new();
                self.instances[to].on_message(from, message, &mut outbox);
                for (next_to, next_message) in outbox.into_messages() {
                    queue.push((next_to.index(), ServerId::new(to as u32), next_message));
                }
            }
        }

        fn release_held(&mut self) {
            self.hold = false;
            let held = std::mem::take(&mut self.held);
            self.pump(held);
        }

        fn deliveries(&mut self) -> Vec<Vec<FifoDeliver<u64>>> {
            self.instances
                .iter_mut()
                .map(|i| i.drain_indications())
                .collect()
        }
    }

    #[test]
    fn stream_delivers_in_order() {
        let mut net = Net::new(4);
        net.broadcast(0, 10);
        net.broadcast(0, 11);
        net.broadcast(0, 12);
        for log in net.deliveries() {
            let values: Vec<u64> = log
                .iter()
                .filter(|d| d.origin == ServerId::new(0))
                .map(|d| d.value)
                .collect();
            assert_eq!(values, vec![10, 11, 12]);
        }
    }

    #[test]
    fn out_of_order_completion_still_fifo() {
        // Hold the network while seq 0 is broadcast, let seq 1 finish
        // first, then release: delivery must still be 0 before 1.
        let mut net = Net::new(4);
        net.hold = true;
        net.broadcast(0, 100); // seq 0 — all traffic held
        net.hold = false;
        net.broadcast(0, 101); // seq 1 — completes immediately
                               // seq 1 is staged everywhere, not delivered (cursor at 0).
        for instance in &net.instances {
            assert_eq!(instance.staged_len(), 1);
            assert_eq!(instance.cursor_of(ServerId::new(0)), 0);
        }
        assert!(net.deliveries().iter().all(Vec::is_empty));
        // Now let seq 0 finish: both deliver, in order.
        net.release_held();
        for log in net.deliveries() {
            let values: Vec<u64> = log.iter().map(|d| d.value).collect();
            assert_eq!(values, vec![100, 101]);
        }
    }

    #[test]
    fn origins_are_independent_streams() {
        let mut net = Net::new(4);
        net.broadcast(0, 1);
        net.broadcast(1, 2);
        net.broadcast(0, 3);
        for log in net.deliveries() {
            let from0: Vec<u64> = log
                .iter()
                .filter(|d| d.origin == ServerId::new(0))
                .map(|d| d.value)
                .collect();
            let from1: Vec<u64> = log
                .iter()
                .filter(|d| d.origin == ServerId::new(1))
                .map(|d| d.value)
                .collect();
            assert_eq!(from0, vec![1, 3]);
            assert_eq!(from1, vec![2]);
        }
    }

    #[test]
    fn byzantine_gap_stalls_only_that_stream() {
        // A byzantine origin starts its stream at seq 5: correct servers
        // complete the sub-instance but never deliver (cursor waits at 0),
        // while other origins' streams are unaffected.
        let mut net = Net::new(4);
        let byz = ServerId::new(3);
        let queue: Vec<_> = (0..3)
            .map(|to| (to, byz, FifoMessage::Echo(byz, 5, 999u64)))
            .collect();
        net.pump(queue);
        net.broadcast(0, 7); // an honest stream proceeds
        for (index, log) in net.deliveries().into_iter().enumerate() {
            if index == 3 {
                continue; // byzantine's own state is its own business
            }
            assert!(log.iter().all(|d| d.origin != byz), "gap must hold back");
            assert_eq!(
                log.iter().filter(|d| d.origin == ServerId::new(0)).count(),
                1
            );
        }
        // The completed-but-gapped element is staged.
        assert_eq!(net.instances[0].staged_len(), 1);
    }

    #[test]
    fn no_duplication_per_stream_element() {
        let mut net = Net::new(4);
        net.broadcast(0, 42);
        let first = net.deliveries();
        // Replay a full round of READYs for the same element.
        let queue: Vec<_> = (0..4)
            .flat_map(|to| {
                (0..4).map(move |from| {
                    (
                        to,
                        ServerId::new(from as u32),
                        FifoMessage::Ready(ServerId::new(0), 0, 42u64),
                    )
                })
            })
            .collect();
        net.pump(queue);
        let second = net.deliveries();
        assert!(first.iter().all(|log| log.len() == 1));
        assert!(second.iter().all(Vec::is_empty), "no re-delivery");
    }

    #[test]
    fn request_wire_roundtrip() {
        let request: FifoRequest<u64> = FifoRequest::Broadcast(5);
        let bytes = dagbft_codec::encode_to_vec(&request);
        let decoded: FifoRequest<u64> = dagbft_codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(decoded, request);
    }
}
