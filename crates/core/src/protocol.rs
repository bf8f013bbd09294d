//! The black-box abstraction of a deterministic BFT protocol `P`.
//!
//! The paper (§2, §4) treats `P` as a black box with a high-level interface
//! (requests `Rqsts_P`, indications `Inds_P`) and a low-level interface
//! (receive a message, immediately return triggered messages). This module
//! captures exactly that contract as [`DeterministicProtocol`]:
//!
//! * handlers are *synchronous* — a request or message immediately produces
//!   the triggered out-going messages (collected in an [`Outbox`]);
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

/// Collector for the messages a protocol handler emits.
///
/// The sender is implicit (the process instance being driven); the
/// interpreter stamps it when materializing [`Envelope`]s.
///
/// # Examples
///
/// ```
/// use dagbft_core::{Outbox, ProtocolConfig};
/// use dagbft_crypto::ServerId;
///
/// let config = ProtocolConfig::for_n(3);
/// let mut outbox: Outbox<&'static str> = Outbox::new();
/// outbox.send(ServerId::new(1), "hi");
/// outbox.broadcast(&config, "all");
/// assert_eq!(outbox.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Outbox<M> {
    messages: Vec<(ServerId, M)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            messages: Vec::new(),
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Returns `true` if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Queues `message` for `receiver`.
    pub fn send(&mut self, receiver: ServerId, message: M) {
        self.messages.push((receiver, message));
    }

    /// Consumes the outbox, yielding `(receiver, message)` pairs.
    pub fn into_messages(self) -> Vec<(ServerId, M)> {
        self.messages
    }

    /// Stamps `sender` on every queued message, producing envelopes.
    pub fn into_envelopes(self, sender: ServerId) -> impl Iterator<Item = Envelope<M>> {
        self.messages
            .into_iter()
            .map(move |(receiver, message)| Envelope {
                sender,
                receiver,
                message,
            })
    }

    /// Empties the outbox, stamping `sender` on every queued message, and
    /// keeps its capacity: one outbox serves every handler call of a block.
    pub fn drain_envelopes(&mut self, sender: ServerId) -> impl Iterator<Item = Envelope<M>> + '_ {
        self.messages
            .drain(..)
            .map(move |(receiver, message)| Envelope {
                sender,
                receiver,
                message,
            })
    }
}

impl<M: Clone> Outbox<M> {
    /// Queues `message` for every server in the configuration, including the
    /// sender itself (the usual "send to all" of broadcast protocols).
    pub fn broadcast(&mut self, config: &ProtocolConfig, message: M) {
        for server in config.servers() {
            self.messages.push((server, message.clone()));
        }
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
/// Violating the contract does not corrupt the DAG, but different servers'
/// interpretations may diverge, which is precisely what the paper's
/// Lemma 4.2 excludes for deterministic `P`.
///
/// # Examples
///
/// See the crate-level docs for a complete miniature implementation.
pub trait DeterministicProtocol: Clone {
    /// User requests, `Rqsts_P`. They travel inside blocks, hence the wire
    /// bounds; everything else never touches the network.
    type Request: Clone + Debug + WireEncode + WireDecode;
    /// Protocol messages, `M_P`. `Ord` supplies the total order `<_M`.
    type Message: Clone + Debug + Ord;
    /// Indications to the user, `Inds_P`.
    type Indication: Clone + Debug + PartialEq;

    /// Creates the process instance of this protocol for instance `label`,
    /// running *as* server `me` within the configured server set.
    fn new(config: &ProtocolConfig, label: Label, me: ServerId) -> Self;

    /// High-level interface: the user requests `request`; messages
    /// triggered by it are returned immediately via `outbox` (§4).
    fn on_request(&mut self, request: Self::Request, outbox: &mut Outbox<Self::Message>);

    /// Low-level interface: `message` from `sender` reaches this instance;
    /// messages triggered by it are returned immediately via `outbox` (§4).
    fn on_message(
        &mut self,
        sender: ServerId,
        message: Self::Message,
        outbox: &mut Outbox<Self::Message>,
    );

    /// Removes and returns any pending indications `i ∈ Inds_P`.
    ///
    /// Called by the interpreter after each block interpretation
    /// (Algorithm 2, lines 13–14). Draining must be destructive so an
    /// indication is raised exactly once per occurrence.
    fn drain_indications(&mut self) -> Vec<Self::Indication>;
}

/// A [`DeterministicProtocol`] whose process-instance state can be
/// serialized into interpreter snapshots.
///
/// The interpreter persists periodic state snapshots through a
/// [`crate::store::BlockStore`] so crash recovery replays only the block
/// suffix past the last snapshot instead of from genesis. The encoding
/// must be **self-contained and canonical**: `decode_state` applied to
/// `encode_state`'s output must reproduce an observationally identical
/// instance (including its [`ProtocolConfig`] and [`Label`], if behaviour
/// depends on them), and identical instances must encode to identical
/// bytes — snapshots feed determinism fingerprints.
///
/// Messages additionally need wire bounds because a snapshot persists the
/// materialized out-message sets of every interpreted block.
pub trait SnapshotProtocol: DeterministicProtocol
where
    Self::Message: WireEncode + WireDecode,
{
    /// Appends this instance's complete state to `out`.
    fn encode_state(&self, out: &mut Vec<u8>);

    /// Rebuilds an instance from bytes produced by
    /// [`SnapshotProtocol::encode_state`].
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed or truncated input; implementations
    /// must not panic.
    fn decode_state(reader: &mut Reader<'_>) -> Result<Self, DecodeError>;
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
        let config = ProtocolConfig::for_n(4);
        let mut outbox = Outbox::new();
        outbox.broadcast(&config, 1u8);
        let receivers: Vec<_> = outbox
            .into_messages()
            .into_iter()
            .map(|(to, _)| to.index())
            .collect();
        assert_eq!(receivers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn outbox_envelopes_stamp_sender() {
        let mut outbox = Outbox::new();
        outbox.send(ServerId::new(2), "m");
        let envelopes: Vec<_> = outbox.into_envelopes(ServerId::new(7)).collect();
        assert_eq!(envelopes.len(), 1);
        assert_eq!(envelopes[0].sender, ServerId::new(7));
        assert_eq!(envelopes[0].receiver, ServerId::new(2));
    }

    #[test]
    fn outbox_drains_and_is_reusable() {
        let mut outbox = Outbox::new();
        outbox.send(ServerId::new(2), "m");
        let drained: Vec<_> = outbox.drain_envelopes(ServerId::new(7)).collect();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].sender, ServerId::new(7));
        assert_eq!(drained[0].receiver, ServerId::new(2));
        assert!(outbox.is_empty());
        outbox.send(ServerId::new(3), "n");
        assert_eq!(outbox.drain_envelopes(ServerId::new(7)).count(), 1);
    }
}
