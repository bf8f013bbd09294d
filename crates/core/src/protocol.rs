//! The black-box abstraction of a deterministic BFT protocol `P`.
//!
//! The paper (§2, §4) treats `P` as a black box with a high-level interface
//! (requests `Rqsts_P`, indications `Inds_P`) and a low-level interface
//! (receive a message, immediately return triggered messages). This module
//! captures exactly that contract as [`DeterministicProtocol`]:
//!
//! * handlers are *synchronous* — a request or message immediately produces
//!   the triggered out-going messages and indications, both collected in an
//!   [`Outbox`], which also hands the handler the run's [`ProtocolConfig`];
//! * the implementation must be **deterministic**: state plus an ordered
//!   message sequence fully determine the next state and outputs. No clocks,
//!   no randomness, no global mutable state. The interpreter exploits this
//!   to recompute message contents instead of shipping them (the paper's
//!   message-compression claim);
//! * the required total order `<_M` on messages (§2) is the derived [`Ord`]
//!   on [`Envelope`].

use std::fmt::Debug;

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::ServerId;

use crate::Label;

/// Static configuration shared by all process instances of `P`.
///
/// The server set is fixed and known (§2): `n = |Srvrs|` with at most `f`
/// byzantine servers and `n ≥ 3f + 1`.
///
/// # Examples
///
/// ```
/// use dagbft_core::ProtocolConfig;
///
/// let config = ProtocolConfig::for_n(4);
/// assert_eq!(config.f, 1);
/// assert_eq!(config.quorum(), 3); // 2f + 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Total number of servers, `|Srvrs|`.
    pub n: usize,
    /// Maximum number of byzantine servers tolerated.
    pub f: usize,
}

impl ProtocolConfig {
    /// Configuration for `n` servers tolerating the maximum `f = ⌊(n−1)/3⌋`.
    pub fn for_n(n: usize) -> Self {
        ProtocolConfig {
            n,
            f: n.saturating_sub(1) / 3,
        }
    }

    /// Byzantine quorum size, `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Plurality guaranteeing at least one correct sender, `f + 1`.
    pub fn plurality(&self) -> usize {
        self.f + 1
    }

    /// Iterator over all server identities in this configuration.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + Clone {
        ServerId::all(self.n)
    }
}

/// A protocol message together with its addressing, `m.sender` and
/// `m.receiver` (§2).
///
/// The derived lexicographic [`Ord`] — sender, then receiver, then message —
/// is the arbitrary-but-fixed total order `<_M` the interpreter uses to feed
/// messages to process instances in a globally agreed order
/// (Algorithm 2, line 10).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Envelope<M> {
    /// The server whose process instance produced the message.
    pub sender: ServerId,
    /// The server whose process instance should receive the message.
    pub receiver: ServerId,
    /// The protocol-level message body.
    pub message: M,
}

impl<M: WireEncode> WireEncode for Envelope<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender.encode(out);
        self.receiver.encode(out);
        self.message.encode(out);
    }
}

impl<M: WireDecode> WireDecode for Envelope<M> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Envelope {
            sender: ServerId::decode(reader)?,
            receiver: ServerId::decode(reader)?,
            message: M::decode(reader)?,
        })
    }
}

/// A set of servers: indices below 128 as bits, the rest as a sorted list,
/// so memory follows the number of members and never the largest index.
///
/// The receivers of one [`Outbox`] entry and of one point-to-point
/// out-buffer entry of the [`crate::Interpreter`], and the senders a
/// `dagbft_protocols::Tally` counts. A set whose members all have an index
/// below 128 owns no heap, and the list of the rest sits behind one
/// pointer-sized field: on a 64-bit target a set takes 24 bytes, two words
/// of bits and the list's pointer. A block of broadcasts stores none beside
/// its out-buffer entries, and a `Brb` version holds two, one per column
/// of its vote table.
/// On the wire it is a `BTreeSet<ServerId>`: a `u32` count, then the
/// members ascending.
///
/// # Examples
///
/// ```
/// use dagbft_core::ServerSet;
/// use dagbft_crypto::ServerId;
///
/// let mut set: ServerSet = [3, 0, 200].map(ServerId::new).into_iter().collect();
/// assert!(!set.insert(ServerId::new(3)));
/// assert!(set.contains(ServerId::new(200)));
/// assert_eq!(set.iter().map(|server| server.index()).collect::<Vec<_>>(), [0, 3, 200]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerSet {
    /// Members below 128: index `i` is bit `i % 64` of word `i / 64`.
    low: [u64; 2],
    /// Members of 128 and up, ascending; `None` while there is none.
    #[expect(
        clippy::box_collection,
        reason = "one pointer instead of an inline `Vec` keeps the set at 24 B"
    )]
    high: Option<Box<Vec<u32>>>,
}

impl ServerSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set of servers `0..n`, every server of a configuration of `n`:
    /// two word masks, and the spill only when `n` is above 128. Equal,
    /// member for member and byte for byte, to `ServerId::all(n)`
    /// collected, at no cost per member below 128.
    pub fn all(n: usize) -> Self {
        let mask = |word: usize| match n.saturating_sub(64 * word) {
            0 => 0,
            bits if bits >= 64 => u64::MAX,
            bits => (1 << bits) - 1,
        };
        ServerSet {
            low: [mask(0), mask(1)],
            high: (n > 128).then(|| Box::new((128..n as u32).collect())),
        }
    }

    /// Adds `server`; returns whether it was new.
    pub fn insert(&mut self, server: ServerId) -> bool {
        let index = server.index() as u32;
        if index < 128 {
            let (word, bit) = (&mut self.low[index as usize / 64], 1 << (index % 64));
            let fresh = *word & bit == 0;
            *word |= bit;
            fresh
        } else {
            // An absent list holds no member, so the insert below fills it.
            let high = self.high.get_or_insert_default();
            match high.binary_search(&index) {
                Ok(_) => false,
                Err(at) => {
                    high.insert(at, index);
                    true
                }
            }
        }
    }

    /// Whether `server` is a member.
    pub fn contains(&self, server: ServerId) -> bool {
        let index = server.index() as u32;
        if index < 128 {
            self.low[index as usize / 64] & (1 << (index % 64)) != 0
        } else {
            self.high().binary_search(&index).is_ok()
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits().count_ones() as usize + self.high().len()
    }

    /// Returns `true` if the set has no member.
    pub fn is_empty(&self) -> bool {
        self.low == [0, 0] && self.high.is_none()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ServerId> + '_ {
        let mut bits = self.bits();
        std::iter::from_fn(move || {
            let index = (bits != 0).then(|| bits.trailing_zeros())?;
            bits &= bits - 1;
            Some(index)
        })
        .chain(self.high().iter().copied())
        .map(ServerId::new)
    }

    /// Adds every member of `other`.
    pub fn union_with(&mut self, other: &ServerSet) {
        self.low[0] |= other.low[0];
        self.low[1] |= other.low[1];
        for &index in other.high() {
            self.insert(ServerId::new(index));
        }
    }

    /// The members below 128 as one bit set.
    fn bits(&self) -> u128 {
        u128::from(self.low[1]) << 64 | u128::from(self.low[0])
    }

    /// The members of 128 and up, ascending.
    fn high(&self) -> &[u32] {
        self.high.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl FromIterator<ServerId> for ServerSet {
    fn from_iter<I: IntoIterator<Item = ServerId>>(servers: I) -> Self {
        let mut set = ServerSet::new();
        for server in servers {
            set.insert(server);
        }
        set
    }
}

impl WireEncode for ServerSet {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for server in self.iter() {
            server.encode(out);
        }
    }
}

/// Accepts members in any order and with repeats, so corrupt input costs
/// its own length and still yields a well-formed set.
impl WireDecode for ServerSet {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut set = ServerSet::new();
        for _ in 0..reader.read_len(4)? {
            set.insert(ServerId::decode(reader)?);
        }
        Ok(set)
    }
}

/// What a protocol handler is handed and what it emits: the run's
/// [`ProtocolConfig`], and a collector for the messages it sends and the
/// indications it raises.
///
/// The sender is implicit (the process instance being driven); the
/// interpreter stamps it when materializing [`Envelope`]s. A message is
/// queued once with the set of its receivers: a broadcast is one entry,
/// not `n` copies of the message. Counting and expanding are per receiver.
/// Indications are kept in the order raised. The configuration is read
/// here, so no instance keeps a copy of it.
///
/// # Examples
///
/// ```
/// use dagbft_core::{Outbox, ProtocolConfig};
/// use dagbft_crypto::ServerId;
///
/// let mut outbox: Outbox<&'static str, u8> = Outbox::new(ProtocolConfig::for_n(3));
/// outbox.send(ServerId::new(1), "hi");
/// outbox.broadcast("all");
/// outbox.indicate(7);
/// assert_eq!(outbox.len(), 4);
/// assert_eq!(outbox.config().quorum(), 1);
/// assert!(outbox.drain_indications().eq([7]));
/// ```
#[derive(Debug, Clone)]
pub struct Outbox<M, I> {
    /// The configuration every instance of the run shares.
    config: ProtocolConfig,
    /// Per queued message, in call order, the servers it is addressed to.
    messages: Vec<(ServerSet, M)>,
    /// Indications, in the order raised.
    indications: Vec<I>,
}

impl<M, I> Outbox<M, I> {
    /// Creates an empty outbox for handlers running under `config`.
    pub fn new(config: ProtocolConfig) -> Self {
        Outbox {
            config,
            messages: Vec::new(),
            indications: Vec::new(),
        }
    }

    /// The configuration the handlers run under.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Number of queued messages, one per receiver.
    pub fn len(&self) -> usize {
        self.messages
            .iter()
            .map(|(receivers, _)| receivers.len())
            .sum()
    }

    /// Returns `true` if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues `message` for `receiver`.
    pub fn send(&mut self, receiver: ServerId, message: M) {
        self.messages
            .push((ServerSet::from_iter([receiver]), message));
    }

    /// Queues `message` for every server in the configuration, including the
    /// sender itself (the usual "send to all" of broadcast protocols).
    pub fn broadcast(&mut self, message: M) {
        self.messages.push((ServerSet::all(self.config.n), message));
    }

    /// Raises `indication` to the user.
    pub fn indicate(&mut self, indication: I) {
        self.indications.push(indication);
    }

    /// Empties the outbox of messages, yielding each queued message with
    /// its receivers, and keeps its capacity: one outbox serves every
    /// handler call of a block.
    pub fn drain(&mut self) -> impl Iterator<Item = (ServerSet, M)> + '_ {
        self.messages.drain(..)
    }

    /// Empties the outbox of indications, yielding them in the order
    /// raised, and keeps its capacity.
    pub fn drain_indications(&mut self) -> impl Iterator<Item = I> + '_ {
        self.indications.drain(..)
    }
}

impl<M: Clone, I> Outbox<M, I> {
    /// Consumes the outbox, yielding one `(receiver, message)` pair per
    /// receiver: a broadcast expands to every server, in ascending order.
    /// Undrained indications are dropped.
    pub fn into_messages(self) -> Vec<(ServerId, M)> {
        let mut pairs = Vec::with_capacity(self.len());
        for (receivers, message) in self.messages {
            pairs.extend(receivers.iter().map(|receiver| (receiver, message.clone())));
        }
        pairs
    }

    /// Stamps `sender` on every queued message, producing one envelope per
    /// receiver.
    pub fn into_envelopes(self, sender: ServerId) -> impl Iterator<Item = Envelope<M>> {
        self.into_messages()
            .into_iter()
            .map(move |(receiver, message)| Envelope {
                sender,
                receiver,
                message,
            })
    }
}

/// A deterministic BFT protocol `P`, as required by the embedding (§2, §4).
///
/// # Determinism contract
///
/// Implementations **must** be pure state machines: identical sequences of
/// [`DeterministicProtocol::on_request`] / [`DeterministicProtocol::on_message`]
/// calls from a fresh instance must produce identical outputs and identical
/// subsequent behaviour. In particular:
///
/// * no randomness, clocks, thread identity, or I/O;
/// * iteration order over internal collections must be deterministic
///   (use `BTreeMap`/`BTreeSet`, not hash maps). For counting the distinct
///   senders of a value towards a quorum, `dagbft_protocols::Tally` is the
///   ordered collection that costs no heap block per instance copy;
/// * `Clone` must produce an observationally identical instance — the
///   interpreter clones instance state along DAG edges
///   (Algorithm 2, line 4).
///
/// An instance holds its own state and nothing else. The run's
/// [`ProtocolConfig`] reaches every handler through its [`Outbox`], and
/// every indication leaves through that same outbox the moment it is
/// raised, so neither is in an instance's memory, nor in any of the
/// versions the interpreter keeps resident. The interpreter surfaces a
/// block's indications label by label, each label's in the order raised
/// (Algorithm 2, lines 13–14).
///
/// Violating the contract does not corrupt the DAG, but different servers'
/// interpretations may diverge, which is precisely what the paper's
/// Lemma 4.2 excludes for deterministic `P`.
///
/// # Messages to itself
///
/// A message an instance sends its own server is delivered to it at the
/// block that sends it, not over a DAG edge: the interpreter delivers what
/// the block's handlers address to the builder, then what those deliveries
/// address to it, until nothing new is left (the in-block self-link, see
/// [`crate::interpret`]). So an implementation **must** send itself
/// finitely many messages per input — a request or a message from another
/// server — or interpreting one block never ends. Every shipped protocol
/// (`Brb`, `Bcb`, `Fifo`, `Smr`, `Beacon` in `dagbft_protocols`) meets
/// this through its once-flags: each sends a given `ECHO`, `READY`,
/// `PREPARE`, `COMMIT` or share at most once per instance, stream
/// position, slot or value, whatever it receives.
///
/// # Terminal instances
///
/// An instance may declare itself **terminal**
/// ([`DeterministicProtocol::is_terminal`]): from then on no request and
/// no message, from any sender, in any number and order, makes it send or
/// indicate anything, and it stays terminal. A BRB instance that has
/// echoed, readied and delivered is one: each of its handlers acts only
/// behind a flag it has already set. The interpreter **retires** an
/// instance that is terminal after a block drives it: it drops the
/// version, and every later request or message on that label in that
/// chain is dropped unread, which changes no out-buffer and no indication
/// exactly because the contract holds (see [`crate::interpret`],
/// "Retirement"). A `true` that breaks the contract changes what the DAG
/// interprets to. The default is `false`: never terminal, never retired.
///
/// # Snapshots
///
/// A server recovers by replaying its journal (§7: "persist enough
/// information … as part of P"). A protocol that sets
/// [`DeterministicProtocol::SNAPSHOTS`] and implements the state codec
/// lets the interpreter persist periodic state snapshots through a
/// [`crate::store::BlockStore`], so recovery replays only the block
/// suffix past the last one. The encoding must be **canonical**:
/// `decode_state` applied to `encode_state`'s output, under the same
/// [`ProtocolConfig`], must reproduce an observationally identical
/// instance (including its [`Label`], if behaviour depends on it), and
/// identical instances must encode to identical bytes — snapshots feed
/// determinism fingerprints. The configuration is in no instance's bytes,
/// as it is in no instance's memory: a snapshot writes it once, in its
/// header, and hands it to every `decode_state`, and the handlers read it
/// from their [`Outbox`]. A protocol that keeps the defaults keeps no
/// snapshots and always recovers by replay from genesis.
///
/// # Examples
///
/// See the crate-level docs for a complete miniature implementation.
pub trait DeterministicProtocol: Clone {
    /// User requests, `Rqsts_P`. They travel inside blocks, hence the wire
    /// bounds.
    type Request: Clone + Debug + WireEncode + WireDecode;
    /// Protocol messages, `M_P`. `Ord` supplies the total order `<_M`.
    /// Inside the DAG they are recomputed, never sent; the wire bounds are
    /// for a snapshot's out-buffers and the direct point-to-point baseline.
    type Message: Clone + Debug + Ord + WireEncode + WireDecode;
    /// Indications to the user, `Inds_P`.
    type Indication: Clone + Debug + PartialEq;

    /// Whether `encode_state` and `decode_state` are implemented, so the
    /// interpreter's state may be snapshotted (see [Snapshots](#snapshots)).
    const SNAPSHOTS: bool = false;

    /// Creates the process instance of this protocol for instance `label`,
    /// running *as* server `me` within the configured server set.
    fn new(config: &ProtocolConfig, label: Label, me: ServerId) -> Self;

    /// High-level interface: the user requests `request`; the messages it
    /// triggers and the indications it raises are returned immediately via
    /// `outbox`, which also holds the configuration (§4).
    fn on_request(
        &mut self,
        request: Self::Request,
        outbox: &mut Outbox<Self::Message, Self::Indication>,
    );

    /// Low-level interface: `message` from `sender` reaches this instance;
    /// the messages it triggers and the indications it raises are returned
    /// immediately via `outbox`, which also holds the configuration (§4).
    fn on_message(
        &mut self,
        sender: ServerId,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message, Self::Indication>,
    );

    /// Whether this instance is terminal: once `true`, no request or
    /// message ever makes it send or indicate again, and it stays `true`
    /// (see [Terminal instances](#terminal-instances)). The default is
    /// `false`.
    fn is_terminal(&self) -> bool {
        false
    }

    /// Appends this instance's state to `out`. The default writes nothing:
    /// the protocol keeps no snapshots.
    fn encode_state(&self, _out: &mut Vec<u8>) {}

    /// Rebuilds an instance running under `config` from bytes produced by
    /// [`DeterministicProtocol::encode_state`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed or truncated input;
    /// implementations must not panic. The default reads nothing and
    /// fails: the protocol keeps no snapshots.
    fn decode_state(
        _config: &ProtocolConfig,
        _reader: &mut Reader<'_>,
    ) -> Result<Self, DecodeError> {
        Err(DecodeError::Invalid {
            reason: "the protocol keeps no snapshots",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_for_n_maximizes_f() {
        assert_eq!(ProtocolConfig::for_n(1).f, 0);
        assert_eq!(ProtocolConfig::for_n(3).f, 0);
        assert_eq!(ProtocolConfig::for_n(4).f, 1);
        assert_eq!(ProtocolConfig::for_n(7).f, 2);
        assert_eq!(ProtocolConfig::for_n(10).f, 3);
    }

    #[test]
    fn quorum_and_plurality() {
        let config = ProtocolConfig::for_n(7);
        assert_eq!(config.quorum(), 5);
        assert_eq!(config.plurality(), 3);
    }

    #[test]
    fn envelope_total_order_is_sender_receiver_message() {
        let a = Envelope {
            sender: ServerId::new(0),
            receiver: ServerId::new(9),
            message: 5u8,
        };
        let b = Envelope {
            sender: ServerId::new(1),
            receiver: ServerId::new(0),
            message: 0u8,
        };
        assert!(a < b);
        let c = Envelope {
            sender: ServerId::new(0),
            receiver: ServerId::new(9),
            message: 6u8,
        };
        assert!(a < c);
    }

    #[test]
    fn outbox_broadcast_includes_self() {
        let mut outbox: Outbox<u8, ()> = Outbox::new(ProtocolConfig::for_n(4));
        outbox.broadcast(1u8);
        let receivers: Vec<_> = outbox
            .into_messages()
            .into_iter()
            .map(|(to, _)| to.index())
            .collect();
        assert_eq!(receivers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn outbox_envelopes_stamp_sender() {
        let mut outbox: Outbox<_, ()> = Outbox::new(ProtocolConfig::for_n(8));
        outbox.send(ServerId::new(2), "m");
        let envelopes: Vec<_> = outbox.into_envelopes(ServerId::new(7)).collect();
        assert_eq!(envelopes.len(), 1);
        assert_eq!(envelopes[0].sender, ServerId::new(7));
        assert_eq!(envelopes[0].receiver, ServerId::new(2));
    }

    #[test]
    fn outbox_drains_and_is_reusable() {
        let config = ProtocolConfig::for_n(4);
        let mut outbox = Outbox::new(config);
        outbox.send(ServerId::new(2), "m");
        outbox.broadcast("b");
        outbox.indicate(1u8);
        assert_eq!(outbox.len(), 5);
        let drained: Vec<_> = outbox.drain().collect();
        assert_eq!(drained.len(), 2, "a broadcast is one entry");
        assert!(drained[0].0.iter().eq([ServerId::new(2)]));
        assert!(drained[1].0.iter().eq(config.servers()));
        assert!(outbox.is_empty());
        outbox.send(ServerId::new(3), "n");
        outbox.indicate(2);
        assert_eq!(outbox.drain().count(), 1);
        assert!(outbox.drain_indications().eq([1, 2]), "in the order raised");
        assert_eq!(outbox.drain_indications().count(), 0);
    }

    #[test]
    fn outbox_expands_in_call_then_receiver_order() {
        let mut outbox: Outbox<_, ()> = Outbox::new(ProtocolConfig::for_n(3));
        outbox.send(ServerId::new(2), 'a');
        outbox.broadcast('b');
        outbox.send(ServerId::new(0), 'b');
        let pairs: Vec<(usize, char)> = outbox
            .into_messages()
            .into_iter()
            .map(|(to, message)| (to.index(), message))
            .collect();
        assert_eq!(pairs, [(2, 'a'), (0, 'b'), (1, 'b'), (2, 'b'), (0, 'b')]);
    }

    #[test]
    fn server_set_is_a_set_on_both_sides_of_the_inline_bits() {
        let mut set = ServerSet::new();
        assert!(set.is_empty());
        for index in [130, 5, 127, 128, u32::MAX, 5, 130] {
            set.insert(ServerId::new(index));
        }
        let members: Vec<usize> = set.iter().map(|server| server.index()).collect();
        assert_eq!(members, [5, 127, 128, 130, u32::MAX as usize]);
        assert_eq!(set.len(), 5);
        assert!(set.contains(ServerId::new(128)) && !set.contains(ServerId::new(129)));
        let mut other: ServerSet = [0, 129, 130].map(ServerId::new).into_iter().collect();
        other.union_with(&set);
        assert_eq!(other.len(), 7);
        assert!(other.iter().map(|server| server.index()).is_sorted());
    }

    #[test]
    fn server_set_below_128_owns_no_heap() {
        let set: ServerSet = ServerId::all(128).collect();
        assert_eq!(set.len(), 128);
        assert!(set.high.is_none());
        // The largest index costs one list slot, not a bit vector.
        let mut set = set;
        set.insert(ServerId::new(u32::MAX));
        assert_eq!(set.high(), [u32::MAX]);
    }

    #[test]
    fn the_full_set_is_every_server_collected() {
        use dagbft_codec::encode_to_vec;
        for n in [0, 1, 4, 63, 64, 65, 127, 128, 129, 300] {
            let all = ServerSet::all(n);
            let collected: ServerSet = ServerId::all(n).collect();
            assert!(all.iter().eq(ServerId::all(n)), "n = {n}");
            assert_eq!(all.len(), n);
            assert_eq!(all, collected, "n = {n}");
            assert_eq!(encode_to_vec(&all), encode_to_vec(&collected), "n = {n}");
            assert_eq!(all.high.is_some(), n > 128, "n = {n}");
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_server_set_is_three_words() {
        // Two words of bits and the spill's pointer: no `u128` alignment
        // padding, no inline `Vec` header.
        assert_eq!(std::mem::size_of::<ServerSet>(), 24);
    }

    #[test]
    fn server_set_wire_bytes_are_the_btree_set_s() {
        use dagbft_codec::{decode_from_slice, encode_to_vec};
        use std::collections::BTreeSet;
        let members = [300, 2, 0, 128, 77].map(ServerId::new);
        let set: ServerSet = members.into_iter().collect();
        let model: BTreeSet<ServerId> = members.into_iter().collect();
        let bytes = encode_to_vec(&set);
        assert_eq!(bytes, encode_to_vec(&model));
        assert_eq!(decode_from_slice::<ServerSet>(&bytes).unwrap(), set);
        // Any order and repeats decode to the same set.
        let sloppy = encode_to_vec(&vec![77u32, 300, 2, 77, 0, 128]);
        assert_eq!(decode_from_slice::<ServerSet>(&sloppy).unwrap(), set);
        for cut in 0..bytes.len() {
            assert!(decode_from_slice::<ServerSet>(&bytes[..cut]).is_err());
        }
    }
}
