//! Building the block DAG — Algorithm 1 of the paper.
//!
//! The networking component is deliberately simple: there is one core
//! message type, the block, plus the `FWD` request used to pull missing
//! predecessors from the server whose block referenced them
//! (lines 10–13). A correct server
//!
//! * buffers received blocks (`blks`, lines 4–5),
//! * promotes them into its DAG once valid (lines 6–9), appending a
//!   reference to each newly valid block to its *current block* `B`
//!   (line 8),
//! * serves `FWD` requests from its DAG (lines 12–13), and
//! * on `disseminate()` seals `B` with the pending user requests and its
//!   signature, sends it to everyone, and starts the next block with the
//!   parent reference (lines 14–18).
//!
//! The module is transport-agnostic: entry points consume [`NetMessage`]s
//! and return [`NetCommand`]s for the caller (simulator, tests, or a real
//! event loop) to execute. Time is passed in explicitly and is only used to
//! pace `FWD` retransmissions (the paper's timer `Δ_B'`).
//!
//! # `FWD` retries
//!
//! Line 11 asks again for a block that has not arrived after a per-block
//! wait `Δ_B'`. Here `Δ_B'` is a retransmission timeout learned from the
//! server's own answered requests ([`RoundTrip`], RFC 6298's estimator).
//! A request is sent again, to the next candidate, once it has waited
//! its turn: one timeout for each of the first retries, one per peer
//! that could hold the block, then twice the previous wait, never more
//! than the seal period ([`GossipConfig::seal_period_ms`]). The period is
//! the first and the longest wait: the DAG grows one layer per period, so
//! a server whose round trip exceeds it cannot keep up with the DAG
//! anyway. Retries ride the server's existing events: they go out at the
//! first retry sweep ([`Gossip::on_tick`], which the shim runs at every
//! slot of its seal grid, before it seals if it does) or the first ingest
//! that buffers a block at or after their turn, so the server keeps one
//! timer.
//!
//! The learned timeout takes over only once a request has gone a whole
//! period unanswered. On links that lose nothing every wait is the
//! period: a run in which every answer comes within a period is the run
//! a fixed one-period wait gives. The timeout never falls below the
//! longest round trip measured. A round-trip sample is taken only under
//! Karn's rule: from a still-missing block that arrives from the one
//! peer it was asked of, and was asked for exactly once. An unsolicited
//! block or an answer to a retried request measures nothing, so a peer
//! can only push the timeout up, and never above the period. The
//! estimate is volatile: a restarted server starts again at the period.
//!
//! Candidates are the builders of the blocks that cite the missing one;
//! a banned candidate is skipped, since its answer would be dropped at
//! the gate. An answer is a block we asked its deliverer for: a
//! still-missing one, or a late copy of one that has arrived since,
//! until the first sweep a period after its arrival. It is wanted, so it
//! passes the defense gate without spending the peer's tokens or score;
//! a late copy is excused once per peer asked.
//!
//! # Admission
//!
//! Every received block enters the DAG the same way, whether it arrived
//! alone ([`Gossip::on_message`]) or in a batch of messages
//! ([`Gossip::on_messages`]):
//!
//! 1. **Index on arrival.** Past the defense gate and dedup, a block
//!    claiming a builder outside the server set is rejected on the spot
//!    (decidable from the block alone). Any other block is buffered with
//!    the set of its predecessors not yet in the DAG; a reverse index —
//!    missing predecessor → waiting blocks — and the `FWD` view are
//!    updated in O(preds · log). A block with nothing missing is *ready*.
//! 2. **Cascade.** Once all messages of the call are indexed, ready
//!    blocks are settled smallest `ref(B)` first — the order the
//!    paper-literal rescan (the oracle in [`crate::reference`])
//!    produces, with the defense on or off: by Lemma 4.2 the order in
//!    which a server cites ready blocks changes nothing `P` sees, so a
//!    convicted builder's blocks settle in that order too. Settling a
//!    block verifies its signature over the cached `ref(B)` digest,
//!    once; a valid block is inserted, referenced from the current
//!    block, and its waiters are woken into the ready set.
//!
//! A multi-message call indexes everything before it promotes anything,
//! so `FWD` requests inside it are answered from the DAG as it stood
//! when the call began. The admitted set, the rejections and the
//! verification count do not depend on how a schedule is cut into calls
//! (the promotion fixed point is confluent); the order in which the
//! current block references newly admitted blocks, and `FWD` traffic for
//! gaps closed within one call, do.
//!
//! # Pending-buffer cap
//!
//! The `blks` buffer is bounded by [`GossipConfig::pending_cap`]: once
//! admission has settled, the buffer is trimmed to the cap by
//! deterministic eviction — oldest *never-promotable* block first (one
//! referencing an already rejected predecessor), then oldest overall.
//! Each eviction emits an [`EvictionEvent`] and re-lists the evicted
//! reference as missing for any surviving waiters, so the `FWD` path can
//! re-fetch a wanted block after byzantine flood pressure subsides —
//! eviction bounds memory, never safety.

use std::collections::{BTreeMap, BTreeSet};

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::{ServerId, Signer, Verifier};

use crate::block::{Block, BlockRef, LabeledRequest, SeqNum};
use crate::dag::BlockDag;
use crate::defense::{AdmitVerdict, DefenseConfig, Offense, PeerDefense};
use crate::error::InvalidBlockError;
use crate::TimeMs;

/// The messages servers exchange: blocks, and forward requests for missing
/// predecessor blocks (Algorithm 1).
///
/// Cloning is cheap by construction — a block is an `Arc`'d body with
/// cached wire bytes — so fanning one message out to `n − 1` peers never
/// deep-copies or re-encodes the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetMessage {
    /// A block being disseminated (line 17) or forwarded (line 13).
    Block(Block),
    /// `FWD ref(B)`: "please send me block `B`" (line 11).
    FwdRequest(BlockRef),
}

impl NetMessage {
    /// Size of this message on the wire, in bytes. O(1): one discriminant
    /// byte plus the cached payload length — no encoding happens.
    pub fn wire_len(&self) -> usize {
        let (_, payload) = self.payload_view();
        1 + payload.len()
    }

    /// The message as `(discriminant, canonical payload bytes)` without
    /// encoding anything: blocks expose their cached wire image,
    /// references their digest bytes. Frame writers emit the discriminant
    /// byte followed by the payload verbatim — the zero-copy send path.
    pub fn payload_view(&self) -> (u8, &[u8]) {
        match self {
            NetMessage::Block(block) => (0, block.wire_bytes()),
            NetMessage::FwdRequest(block_ref) => (1, block_ref.as_bytes()),
        }
    }
}

impl WireEncode for NetMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        let (discriminant, payload) = self.payload_view();
        out.push(discriminant);
        out.extend_from_slice(payload);
    }
}

impl WireDecode for NetMessage {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match reader.read_u8()? {
            0 => Ok(NetMessage::Block(Block::decode(reader)?)),
            1 => Ok(NetMessage::FwdRequest(BlockRef::decode(reader)?)),
            value => Err(DecodeError::InvalidDiscriminant {
                type_name: "NetMessage",
                value,
            }),
        }
    }
}

/// An instruction to the transport layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetCommand {
    /// Send `message` to a single server.
    SendTo {
        /// The destination server.
        to: ServerId,
        /// The message to deliver.
        message: NetMessage,
    },
    /// Send `message` to every *other* server (line 17; the sender already
    /// holds the block).
    Broadcast {
        /// The message to deliver to all peers.
        message: NetMessage,
    },
}

/// Default bound on the pending (`blks`) buffer — far above any honest
/// in-flight backlog, low enough that a byzantine flood of
/// never-promotable blocks cannot grow memory without bound.
pub const DEFAULT_PENDING_CAP: usize = 65_536;

/// Configuration for the gossip layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipConfig {
    /// Total number of servers `|Srvrs|`.
    pub n: usize,
    /// Maximum number of buffered, not-yet-valid blocks; exceeding it
    /// triggers deterministic eviction (see the module docs).
    pub pending_cap: usize,
    /// The adversarial peer-defense engine (scoring, rate limits, bans;
    /// disabled by default — see [`crate::defense`]).
    pub defense: DefenseConfig,
    /// The server's seal period, which is also the first and the longest
    /// per-block wait `Δ_B'`: every `FWD` request waits this long until
    /// one has gone this long unanswered, and none ever waits longer (see
    /// the module docs).
    pub seal_period_ms: TimeMs,
}

impl GossipConfig {
    /// Configuration for `n` servers.
    pub fn for_n(n: usize) -> Self {
        GossipConfig {
            n,
            pending_cap: DEFAULT_PENDING_CAP,
            defense: DefenseConfig::default(),
            seal_period_ms: 50,
        }
    }

    /// Bounds the pending buffer (must be at least 1).
    pub fn with_pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap.max(1);
        self
    }

    /// Configures the peer-defense engine.
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = defense;
        self
    }
}

/// Counters describing a gossip instance's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Blocks received from the network (before dedup).
    pub blocks_received: u64,
    /// Received blocks already present in the DAG or the pending buffer.
    pub duplicate_blocks: u64,
    /// Blocks rejected by the validity checks of Definition 3.3.
    pub invalid_blocks: u64,
    /// Blocks from other servers promoted into the DAG.
    pub blocks_validated: u64,
    /// Own blocks built and disseminated.
    pub blocks_built: u64,
    /// `FWD` requests sent.
    pub fwd_sent: u64,
    /// `FWD` requests received from peers.
    pub fwd_received: u64,
    /// Blocks re-sent in answer to `FWD` requests.
    pub fwd_answered: u64,
    /// Peak size of the pending (`blks`) buffer.
    pub pending_peak: usize,
    /// Pending blocks evicted by the buffer cap (see [`EvictionEvent`]).
    pub blocks_evicted: u64,
    /// The current `FWD` retransmission timeout ([`RoundTrip::rto`]).
    pub fwd_rto_ms: TimeMs,
}

/// The round-trip estimate that paces `FWD` retries: RFC 6298's smoothed
/// round-trip time and variation in integer form (`SRTT × 8`,
/// `RTTVAR × 4`; α = 1/8, β = 1/4, K = 4).
///
/// The timeout is `cap` until a request has gone a whole `cap`
/// unanswered ([`RoundTrip::time_out`]): on links that lose nothing
/// every wait is `cap`. After that it is `SRTT + max(1, 4·RTTVAR)`, never
/// below the longest round trip sampled, and clamped to `[1, cap]` ms.
/// [`Gossip`] and the oracle in [`crate::reference`] both keep one, fed
/// by the same samples and timeouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTrip {
    /// The longest timeout, and the timeout until the first time-out.
    cap: TimeMs,
    /// `(SRTT × 8, RTTVAR × 4)` once a sample has been taken.
    estimate: Option<(u64, u64)>,
    /// The longest round trip sampled.
    longest: TimeMs,
    /// Whether a request has gone `cap` unanswered.
    timed_out: bool,
}

impl RoundTrip {
    /// An estimator with no sample and no time-out yet, whose timeout is
    /// `cap`.
    pub fn new(cap: TimeMs) -> Self {
        RoundTrip {
            cap: cap.max(1),
            estimate: None,
            longest: 0,
            timed_out: false,
        }
    }

    /// Folds in one measured round trip of `rtt` ms.
    pub fn sample(&mut self, rtt: TimeMs) {
        let rtt8 = rtt.saturating_mul(8);
        self.estimate = Some(match self.estimate {
            None => (rtt8, rtt8 / 4),
            Some((srtt8, rttvar4)) => (
                (srtt8 - srtt8 / 8).saturating_add(rtt),
                (rttvar4 - rttvar4 / 4).saturating_add(srtt8.abs_diff(rtt8) / 8),
            ),
        });
        self.longest = self.longest.max(rtt);
    }

    /// A request is sent again because its wait ran out. The first time,
    /// that wait was a whole `cap`: something was lost, and the estimate
    /// paces retries from then on.
    pub fn time_out(&mut self) {
        self.timed_out = true;
    }

    /// The retransmission timeout, in ms.
    pub fn rto(&self) -> TimeMs {
        match self.estimate {
            Some((srtt8, rttvar4)) if self.timed_out => (srtt8 / 8 + rttvar4.max(1))
                .max(self.longest)
                .clamp(1, self.cap),
            _ => self.cap,
        }
    }

    /// How long a request already sent `attempts` times (at least once)
    /// waits before it is sent again, among `peers` peers that could
    /// answer it: one timeout for each of the first `peers` retries, then
    /// twice the previous wait, never more than the cap.
    pub fn retry_wait(&self, attempts: u32, peers: usize) -> TimeMs {
        let doublings = attempts.saturating_sub(peers as u32);
        let factor = 1u64.checked_shl(doublings).unwrap_or(u64::MAX);
        self.rto().saturating_mul(factor).min(self.cap)
    }
}

/// State of an outstanding forward request for one missing block.
#[derive(Debug, Clone, Default)]
struct FwdState {
    /// Builders of pending blocks that reference the missing block — the
    /// servers Algorithm 1 line 11 directs requests to.
    candidates: BTreeSet<ServerId>,
    /// When the last `FWD` was sent, if any.
    last_sent: Option<TimeMs>,
    /// Number of requests sent so far (used to rotate candidates).
    attempts: u32,
    /// The peers asked so far: an answer from one of them is solicited.
    asked: BTreeSet<ServerId>,
}

/// A buffered, not-yet-valid block plus its admission bookkeeping.
#[derive(Debug, Clone)]
struct PendingBlock {
    block: Block,
    /// The peer that delivered the block (for offense attribution — the
    /// claimed builder is unauthenticated until the signature verifies).
    from: ServerId,
    /// Predecessors not yet in the DAG; the block is ready once empty.
    missing: BTreeSet<BlockRef>,
    /// Receipt ordinal — the deterministic age the eviction policy sorts
    /// by ("oldest never-promotable first").
    arrival: u64,
    /// Whether the block is known never-promotable (references a
    /// rejected block, transitively).
    stranded: bool,
}

impl PendingBlock {
    /// The block's key in the eviction queue: never-promotable blocks
    /// first, then oldest arrival. Every change of `stranded` updates the
    /// queue with it, so the key can always be reconstructed exactly.
    fn eviction_key(&self, block_ref: BlockRef) -> (bool, u64, BlockRef) {
        (!self.stranded, self.arrival, block_ref)
    }
}

/// Accountability record for one pending-buffer eviction.
///
/// Eviction is a resource decision, not a validity verdict: the evicted
/// block re-enters the `FWD` missing set for any surviving waiters, so it
/// can be re-fetched and admitted later. The event names the builder
/// whose block was dropped — under a byzantine flood that is the flooding
/// server, the raw material the paper's §6 accountability discussion
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionEvent {
    /// The evicted block.
    pub block: BlockRef,
    /// Its claimed builder.
    pub builder: ServerId,
    /// The never-promotable predecessor (rejected, or itself stranded on
    /// a rejection) that doomed the block, when the policy picked it for
    /// that reason (`None`: evicted as oldest overall).
    pub stranded_on: Option<BlockRef>,
}

/// The gossip module of Algorithm 1: builds the local DAG `G` and the
/// current block `B`.
///
/// # Examples
///
/// ```
/// use dagbft_core::{Gossip, GossipConfig, NetCommand, NetMessage};
/// use dagbft_crypto::{KeyRegistry, ServerId};
///
/// let registry = KeyRegistry::generate(2, 1);
/// let mut alice = Gossip::new(
///     ServerId::new(0),
///     GossipConfig::for_n(2),
///     registry.signer(ServerId::new(0)).unwrap(),
///     registry.verifier(),
/// );
/// let (block, commands) = alice.disseminate(vec![], 0);
/// assert!(matches!(&commands[0], NetCommand::Broadcast { .. }));
/// assert!(alice.dag().contains(&block.block_ref()));
/// ```
#[derive(Debug)]
pub struct Gossip {
    me: ServerId,
    config: GossipConfig,
    signer: Signer,
    dag: BlockDag,
    /// Sequence number of the block currently under construction.
    next_seq: SeqNum,
    /// `B.preds` of the block currently under construction (line 8 appends
    /// here, line 18 re-initializes with the parent reference).
    current_preds: Vec<BlockRef>,
    /// The `blks` buffer of received, not-yet-valid blocks (line 3).
    pending: BTreeMap<BlockRef, PendingBlock>,
    /// Reverse dependency index: missing predecessor → pending blocks
    /// waiting on it.
    waiters: BTreeMap<BlockRef, BTreeSet<BlockRef>>,
    /// Missing predecessor → forward-request state.
    missing: BTreeMap<BlockRef, FwdState>,
    /// Block → when it arrived and the peers asked for it whose late copy
    /// is still excused, kept until the first sweep a period later: such
    /// a copy is a solicited duplicate.
    answered: BTreeMap<BlockRef, (TimeMs, BTreeSet<ServerId>)>,
    /// Peer → how many entries of `missing` and `answered` name it: the
    /// peers whose next block may be a solicited answer.
    outstanding: BTreeMap<ServerId, usize>,
    /// The round-trip estimate that paces `FWD` retries.
    round_trip: RoundTrip,
    /// Blocks rejected as permanently invalid, with the reason — kept for
    /// auditing (the paper notes accountability as an extension, §6).
    rejected: Vec<(BlockRef, InvalidBlockError)>,
    /// References known to be permanently un-admittable: rejected blocks
    /// plus, transitively, every buffered block that references one — the
    /// "never promotable" predicate the eviction policy sorts by.
    stranded_refs: BTreeSet<BlockRef>,
    stats: GossipStats,
    /// Checks each ready block's signature as the cascade settles it.
    verifier: Verifier,
    /// Receipt ordinal source for [`PendingBlock::arrival`].
    arrivals: u64,
    /// Eviction order over the pending buffer, by
    /// [`PendingBlock::eviction_key`]: known-stranded blocks (a rejected
    /// predecessor) sort first, then oldest arrival. Kept in lockstep
    /// with `pending` so enforcing the cap is O(log) per block.
    eviction_queue: BTreeSet<(bool, u64, BlockRef)>,
    /// Accountability log of cap evictions, in eviction order.
    evictions: Vec<EvictionEvent>,
    /// The adversarial peer-defense engine (see [`crate::defense`]).
    defense: PeerDefense,
    /// Logical time of the last timed entry point — what interior paths
    /// (settling, eviction) stamp defense offenses with, since they have
    /// no `now` parameter of their own.
    clock: TimeMs,
}

impl Gossip {
    /// Creates a gossip instance for server `me`.
    pub fn new(me: ServerId, config: GossipConfig, signer: Signer, verifier: Verifier) -> Self {
        debug_assert_eq!(signer.id(), me);
        let round_trip = RoundTrip::new(config.seal_period_ms);
        Gossip {
            me,
            config,
            signer,
            dag: BlockDag::new(),
            next_seq: SeqNum::ZERO,
            current_preds: Vec::new(),
            pending: BTreeMap::new(),
            waiters: BTreeMap::new(),
            missing: BTreeMap::new(),
            answered: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            round_trip,
            rejected: Vec::new(),
            stranded_refs: BTreeSet::new(),
            stats: GossipStats {
                fwd_rto_ms: round_trip.rto(),
                ..GossipStats::default()
            },
            verifier,
            arrivals: 0,
            eviction_queue: BTreeSet::new(),
            evictions: Vec::new(),
            defense: PeerDefense::new(config.defense),
            clock: 0,
        }
    }

    /// Resumes gossip over the DAG a server recovered from its store
    /// after a crash (§7 crash–recovery discussion). Over an empty DAG
    /// this is [`Gossip::new`].
    ///
    /// The next block continues this server's own chain: its sequence
    /// number follows the highest own block in `dag`, its predecessors are
    /// the own chain tip plus every block of `dag` the chain has not yet
    /// referenced (so messages received just before the crash still get
    /// delivered). Resuming from a *stale* DAG — one missing own blocks
    /// that already reached the network — would re-use sequence numbers,
    /// i.e. equivocate; making each own block durable before it is
    /// broadcast (what a durable [`crate::Shim::disseminate`] does)
    /// avoids this, as the paper prescribes ("assuming that they persist
    /// enough information").
    pub fn resume(
        me: ServerId,
        config: GossipConfig,
        signer: Signer,
        verifier: Verifier,
        dag: BlockDag,
    ) -> Self {
        let mut gossip = Gossip::new(me, config, signer, verifier);
        let height = dag.height_of(me);
        let own_tip = height.and_then(|height| {
            let at = dag.blocks_at(me, height);
            debug_assert_eq!(at.len(), 1, "own chain must not be forked");
            at.first().copied()
        });
        gossip.next_seq = height.map_or(SeqNum::ZERO, |height| height.next());
        // Everything the own chain has referenced is an ancestor of the
        // tip; reference the rest now, in topological order.
        let mut referenced = own_tip.map_or_else(BTreeSet::new, |tip| dag.ancestors(&tip));
        referenced.extend(own_tip);
        gossip.current_preds = own_tip
            .into_iter()
            .chain(dag.refs().filter(|r| !referenced.contains(r)).copied())
            .collect();
        // Re-derive the durable score component from the recovered DAG:
        // every equivocation provable from `G` before the crash is
        // provable from it now, so convicted builders stay convicted
        // across restarts. The volatile component is intentionally
        // transient — it models resource pressure on *this* process,
        // which a restart resets.
        for server in dag.known_servers().filter(|server| **server != me) {
            let extra: u64 = dag
                .equivocations(*server)
                .iter()
                .map(|(_, refs)| (refs.len() - 1) as u64)
                .sum();
            gossip.defense.seed_equivocations(*server, extra, 0);
        }
        gossip.dag = dag;
        gossip
    }

    /// The server this instance runs as.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// Read access to the local block DAG `G`.
    pub fn dag(&self) -> &BlockDag {
        &self.dag
    }

    /// Activity counters.
    pub fn stats(&self) -> &GossipStats {
        &self.stats
    }

    /// Number of buffered, not-yet-valid blocks.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Blocks rejected as permanently invalid, with their reasons — the raw
    /// material for accountability mechanisms (§6 of the paper).
    pub fn rejected(&self) -> &[(BlockRef, InvalidBlockError)] {
        &self.rejected
    }

    /// Pending-buffer evictions performed so far, in eviction order (the
    /// `FWD`-accountability trail of [`GossipConfig::pending_cap`]).
    pub fn evictions(&self) -> &[EvictionEvent] {
        &self.evictions
    }

    /// The peer-defense engine: scores, bans, and the `DefenseEvent`
    /// audit trail (inert unless [`GossipConfig::defense`] enables it).
    pub fn defense(&self) -> &PeerDefense {
        &self.defense
    }

    /// Sequence number the next disseminated block will carry.
    pub fn next_seq(&self) -> SeqNum {
        self.next_seq
    }

    /// `B.preds` of the block under construction: the own parent (none
    /// before the genesis block) and every block admitted since it was
    /// sealed, in admission order.
    pub fn current_preds(&self) -> &[BlockRef] {
        &self.current_preds
    }

    /// Handles a message from `from`, returning transport commands
    /// (block handling: lines 4–13 of Algorithm 1).
    pub fn on_message(
        &mut self,
        from: ServerId,
        message: NetMessage,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        self.on_messages(std::iter::once((from, message)), now)
    }

    /// Handles a received block (lines 4–11), taking the claimed builder
    /// as the delivering peer.
    pub fn on_block(&mut self, block: Block, now: TimeMs) -> Vec<NetCommand> {
        self.on_block_from(block.builder(), block, now)
    }

    /// [`Gossip::on_block`] with the delivering peer identified — the
    /// entry point the defense layer gates. `from` is the transport-level
    /// sender (authenticated by the connection), *not* the claimed
    /// builder: offenses that precede signature verification (floods,
    /// duplicates, junk) are charged to the deliverer, since a forged
    /// builder field must not let an attacker frame an honest server.
    pub fn on_block_from(&mut self, from: ServerId, block: Block, now: TimeMs) -> Vec<NetCommand> {
        self.on_message(from, NetMessage::Block(block), now)
    }

    /// [`Gossip::on_messages`] for a batch of blocks, each delivered by
    /// its claimed builder.
    pub fn on_block_burst(
        &mut self,
        blocks: impl IntoIterator<Item = Block>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let messages = blocks
            .into_iter()
            .map(|block| (block.builder(), NetMessage::Block(block)));
        self.on_messages(messages, now)
    }

    /// Handles a batch of messages in one admission pass, the one ingest
    /// body: everything is indexed in arrival order, `FWD` requests are
    /// answered from the DAG as it stood when the call began, then one
    /// cascade promotes the whole batch's ready set (see the module
    /// docs), the cap is enforced and due `FWD` requests go out.
    pub fn on_messages(
        &mut self,
        messages: impl IntoIterator<Item = (ServerId, NetMessage)>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        self.clock = self.clock.max(now);
        let arrivals = self.arrivals;
        let mut commands = Vec::new();
        let mut ready: BTreeSet<BlockRef> = BTreeSet::new();
        for (from, message) in messages {
            match message {
                NetMessage::Block(block) => ready.extend(self.receive_block(from, block, now)),
                // A banned peer's FWD requests are dropped too: answering
                // would hand it a block-sized reply per tiny request — an
                // amplification channel the ban exists to close.
                NetMessage::FwdRequest(_) if self.defense.is_banned(from, now) => {}
                NetMessage::FwdRequest(block_ref) => {
                    commands.extend(self.on_fwd_request(from, block_ref));
                }
            }
        }
        // Nothing new was buffered (duplicates, throttled or rejected
        // blocks, FWD requests): nothing can have become ready or due for
        // eviction, and `FWD` retries wait for the next slot's sweep — a
        // duplicate flood buys no promotion work.
        if self.arrivals == arrivals {
            return commands;
        }
        self.promote_cascade(ready);
        self.enforce_pending_cap();
        commands.extend(self.collect_fwd_commands(now));
        commands
    }

    /// Gates, counts, dedups and indexes one received block; returns its
    /// reference if it is ready.
    fn receive_block(&mut self, from: ServerId, block: Block, now: TimeMs) -> Option<BlockRef> {
        let solicited = from != self.me && self.is_solicited(from, &block);
        if from != self.me && !solicited {
            match self.defense.admit_block(from, block.wire_len() as u64, now) {
                AdmitVerdict::Admit => {}
                // Dropped before any hashing or verification: throttled
                // blocks are recoverable later via FWD; banned peers'
                // blocks are not wanted at all until the ban lapses.
                AdmitVerdict::Throttle | AdmitVerdict::Ban => return None,
            }
        }
        self.stats.blocks_received += 1;
        let block_ref = block.block_ref();
        if self.dag.contains(&block_ref) || self.pending.contains_key(&block_ref) {
            self.stats.duplicate_blocks += 1;
            if solicited {
                self.excuse_late_answer(from, &block_ref);
            } else {
                self.penalize(from, Offense::DuplicateFlood);
            }
            return None;
        }
        if solicited {
            self.sample_round_trip(from, &block_ref, now);
        }
        let builder = block.builder();
        if builder.index() >= self.config.n {
            // Decidable from the block alone, so it is never buffered:
            // its claimed builder must not become a `FWD` target.
            let reason = InvalidBlockError::UnknownBuilder { claimed: builder };
            self.reject(block_ref, from, reason);
            return None;
        }
        self.index_block(from, block_ref, block)
            .then_some(block_ref)
    }

    /// Whether `block` is a still-missing reference we asked `from` for,
    /// or a late answer to one that has arrived since. Such an answer is
    /// wanted, so it skips the defense gate: the peer is neither
    /// throttled nor scored for it. The block is hashed only when `from`
    /// has a request outstanding, so an unsolicited flood still meets the
    /// token bucket before any SHA-256.
    fn is_solicited(&self, from: ServerId, block: &Block) -> bool {
        if !self.outstanding.contains_key(&from) {
            return false;
        }
        let block_ref = block.block_ref();
        self.missing
            .get(&block_ref)
            .is_some_and(|state| state.asked.contains(&from))
            || self
                .answered
                .get(&block_ref)
                .is_some_and(|(_, asked)| asked.contains(&from))
    }

    /// Karn's rule: the answer to a request sent exactly once, by the
    /// peer it was sent to, measures one round trip.
    fn sample_round_trip(&mut self, from: ServerId, block_ref: &BlockRef, now: TimeMs) {
        if let Some(FwdState {
            attempts: 1,
            last_sent: Some(sent),
            asked,
            ..
        }) = self.missing.get(block_ref)
        {
            if asked.contains(&from) {
                self.round_trip.sample(now.saturating_sub(*sent));
                self.stats.fwd_rto_ms = self.round_trip.rto();
            }
        }
    }

    /// `from`'s late answer to a request another peer answered first:
    /// excused once, so a peer asked for a block cannot flood copies of
    /// it for free.
    fn excuse_late_answer(&mut self, from: ServerId, block_ref: &BlockRef) {
        if let Some((_, asked)) = self.answered.get_mut(block_ref) {
            if asked.remove(&from) {
                self.release([from]);
            }
        }
    }

    /// Charges one offense to `peer` at the current logical clock (no-op
    /// for our own actions and while the defense is disabled).
    fn penalize(&mut self, peer: ServerId, offense: Offense) {
        if peer == self.me {
            return;
        }
        let clock = self.clock;
        self.defense.note_offense(peer, offense, clock);
    }

    /// Handles `FWD ref(B)` from `from`: if `B ∈ G`, send it back
    /// (lines 12–13). The reply shares the stored block's body and cached
    /// wire bytes — no deep clone, no re-encode.
    pub fn on_fwd_request(&mut self, from: ServerId, block_ref: BlockRef) -> Vec<NetCommand> {
        self.stats.fwd_received += 1;
        match self.dag.get(&block_ref) {
            Some(block) => {
                self.stats.fwd_answered += 1;
                vec![NetCommand::SendTo {
                    to: from,
                    message: NetMessage::Block(block.clone()),
                }]
            }
            None => Vec::new(),
        }
    }

    /// The retry sweep, run at every slot ([`crate::Shim::wake`]):
    /// re-issues each `FWD` request whose wait is over (see the module
    /// docs), and stops excusing late answers to requests answered a
    /// period or more ago.
    pub fn on_tick(&mut self, now: TimeMs) -> Vec<NetCommand> {
        self.clock = self.clock.max(now);
        let period = self.config.seal_period_ms;
        let mut expired = Vec::new();
        self.answered.retain(|_, (at, asked)| {
            let keep = now.saturating_sub(*at) < period;
            if !keep {
                expired.push(std::mem::take(asked));
            }
            keep
        });
        for asked in expired {
            self.release(asked);
        }
        self.collect_fwd_commands(now)
    }

    /// Seals and disseminates the current block with `requests` injected
    /// into `B.rs` (lines 14–18). Returns the built block and the broadcast
    /// command. The block is encoded exactly once (at build); the broadcast
    /// command and the DAG share its body by reference count.
    pub fn disseminate(
        &mut self,
        requests: Vec<LabeledRequest>,
        _now: TimeMs,
    ) -> (Block, Vec<NetCommand>) {
        let preds = std::mem::take(&mut self.current_preds);
        let block = Block::build(self.me, self.next_seq, preds, requests, &self.signer);
        // Line 16: insert the own block. Valid by construction (Lemma A.4):
        // signed by us, parent is our previous block, preds all validated.
        self.dag
            .insert(block.clone())
            .expect("own block preds are in the DAG");
        self.stats.blocks_built += 1;
        // Line 18: next block starts from the parent reference.
        self.current_preds = vec![block.block_ref()];
        self.next_seq = self.next_seq.next();
        let commands = vec![NetCommand::Broadcast {
            message: NetMessage::Block(block.clone()),
        }];
        (block, commands)
    }

    /// Buffers `block` and indexes its missing predecessors (reverse
    /// dependency index plus `FWD` bookkeeping); returns whether the
    /// block is immediately ready for promotion.
    fn index_block(&mut self, from: ServerId, block_ref: BlockRef, block: Block) -> bool {
        // The block is no longer wanted from the network: it is now either
        // pending (indexed below) or about to be promoted. The peers asked
        // for it may still answer.
        if let Some(state) = self.missing.remove(&block_ref) {
            if !state.asked.is_empty() {
                let late = (self.clock, state.asked);
                if let Some((_, replaced)) = self.answered.insert(block_ref, late) {
                    self.release(replaced);
                }
            }
        }
        let missing: BTreeSet<BlockRef> = block
            .preds()
            .iter()
            .filter(|p| !self.dag.contains(p))
            .copied()
            .collect();
        let ready = missing.is_empty();
        for pred in &missing {
            self.waiters.entry(*pred).or_default().insert(block_ref);
            // Request the predecessor from the network unless it is already
            // buffered (then its own admission is what we're waiting for).
            if !self.pending.contains_key(pred) {
                self.missing
                    .entry(*pred)
                    .or_default()
                    .candidates
                    .insert(block.builder());
            }
        }
        let arrival = self.arrivals;
        self.arrivals += 1;
        let stranded = block.preds().iter().any(|p| self.stranded_refs.contains(p));
        let pending = PendingBlock {
            block,
            from,
            missing,
            arrival,
            stranded,
        };
        self.eviction_queue.insert(pending.eviction_key(block_ref));
        self.pending.insert(block_ref, pending);
        self.stats.pending_peak = self.stats.pending_peak.max(self.pending.len());
        if stranded {
            // Publish the doom (later arrivals citing this block strand
            // at insertion) and re-rank earlier-arrived waiters, which
            // are doomed too.
            self.mark_never_promotable(block_ref);
        }
        ready
    }

    /// Removes a block from the pending buffer and the eviction queue.
    fn take_pending(&mut self, block_ref: &BlockRef) -> PendingBlock {
        let entry = self.pending.remove(block_ref).expect("block pending");
        let removed = self.eviction_queue.remove(&entry.eviction_key(*block_ref));
        debug_assert!(removed, "eviction queue mirrors pending");
        entry
    }

    /// The one promotion loop (lines 6–9): settles `ready` and every
    /// pending block its admissions unblock, always taking the smallest
    /// reference first.
    fn promote_cascade(&mut self, mut ready: BTreeSet<BlockRef>) {
        while let Some(block_ref) = ready.pop_first() {
            let entry = self.take_pending(&block_ref);
            self.settle_ready(block_ref, entry, &mut ready);
        }
    }

    /// Applies Definition 3.3 to one ready block — (i) its signature
    /// verifies, (ii) genesis or exactly one parent; (iii) holds because
    /// all its preds are in the DAG and only valid blocks enter it — then
    /// inserts and references it, or rejects it. Blocks whose last missing
    /// dependency this settles join `ready`.
    fn settle_ready(
        &mut self,
        block_ref: BlockRef,
        entry: PendingBlock,
        ready: &mut BTreeSet<BlockRef>,
    ) {
        let PendingBlock { block, from, .. } = entry;
        let (builder, seq) = (block.builder(), block.seq());
        let checked = if block.verify_signature(&self.verifier) {
            block.parent_via(|r| self.dag.meta(r))
        } else {
            Err(InvalidBlockError::BadSignature { claimed: builder })
        };
        if let Err(reason) = checked {
            self.reject(block_ref, from, reason);
            return;
        }
        self.dag.insert(block).expect("every pred is in the DAG");
        self.note_admitted(builder, seq);
        // Line 8: B.preds := B.preds · [ref(B')]. Appending once per block
        // is Lemma A.6 (correct servers reference a block at most once).
        self.current_preds.push(block_ref);
        self.stats.blocks_validated += 1;
        self.drop_missing(&block_ref);
        // Wake the waiters: drop the satisfied dependency and queue any
        // block that just became fully satisfied.
        for waiter in self.waiters.remove(&block_ref).unwrap_or_default() {
            if let Some(pending) = self.pending.get_mut(&waiter) {
                pending.missing.remove(&block_ref);
                if pending.missing.is_empty() {
                    ready.insert(waiter);
                }
            }
        }
    }

    /// Records a permanently invalid block: the audit log, the counter,
    /// the offense (charged to the deliverer), and the never-promotable
    /// marking of everything buffered that references it. Those blocks
    /// keep waiting — the reference can never enter the DAG — so it
    /// counts as missing from the network again.
    fn reject(&mut self, block_ref: BlockRef, from: ServerId, reason: InvalidBlockError) {
        self.stats.invalid_blocks += 1;
        self.rejected.push((block_ref, reason));
        self.mark_never_promotable(block_ref);
        self.penalize(from, Offense::InvalidBlock);
        self.drop_missing(&block_ref);
        self.relist_missing(block_ref);
    }

    /// `block_ref` is no longer wanted from the network: no request for it
    /// is outstanding any more.
    fn drop_missing(&mut self, block_ref: &BlockRef) {
        if let Some(state) = self.missing.remove(block_ref) {
            self.release(state.asked);
        }
    }

    /// `peers` no longer have an answer outstanding for one block each.
    fn release(&mut self, peers: impl IntoIterator<Item = ServerId>) {
        for peer in peers {
            if let Some(count) = self.outstanding.get_mut(&peer) {
                *count -= 1;
                if *count == 0 {
                    self.outstanding.remove(&peer);
                }
            }
        }
    }

    /// `block_ref` left the buffer without entering the DAG (rejected or
    /// evicted): if pending blocks still reference it, it is wanted from
    /// the network again, with a fresh retry timer.
    fn relist_missing(&mut self, block_ref: BlockRef) {
        let Some(waiting) = self.waiters.get(&block_ref) else {
            return;
        };
        let candidates: BTreeSet<ServerId> = waiting
            .iter()
            .filter_map(|w| self.pending.get(w))
            .map(|p| p.block.builder())
            .collect();
        if !candidates.is_empty() {
            let fresh = FwdState {
                candidates,
                ..FwdState::default()
            };
            self.missing.insert(block_ref, fresh);
        }
    }

    /// Marks one buffered block never-promotable: flips its eviction
    /// rank and publishes its reference (dooming later arrivals that
    /// cite it). Returns whether this was a fresh marking — `false` for
    /// non-buffered references and already-marked blocks, so traversals
    /// can use it as their visited check.
    fn strand_pending(&mut self, block_ref: BlockRef) -> bool {
        let Some(pending) = self.pending.get_mut(&block_ref) else {
            return false;
        };
        if pending.stranded {
            return false;
        }
        self.eviction_queue.remove(&pending.eviction_key(block_ref));
        pending.stranded = true;
        self.eviction_queue.insert(pending.eviction_key(block_ref));
        self.stranded_refs.insert(block_ref);
        true
    }

    /// Post-admission equivocation check: if `builder` now has more than
    /// one block at `seq`, that is a proof of equivocation (Figure 3) —
    /// charge the durable offense.
    fn note_admitted(&mut self, builder: ServerId, seq: SeqNum) {
        if self.defense.is_enabled() && self.dag.blocks_at(builder, seq).len() > 1 {
            self.penalize(builder, Offense::Equivocation);
        }
    }

    /// Marks `root` — and, transitively along the reverse dependency
    /// index, every buffered block referencing it — as never-promotable,
    /// re-ranking affected pending blocks to the front of the eviction
    /// order. Later arrivals referencing a marked reference are stranded
    /// at insertion.
    fn mark_never_promotable(&mut self, root: BlockRef) {
        self.stranded_refs.insert(root);
        self.strand_pending(root);
        let mut stack = vec![root];
        while let Some(r) = stack.pop() {
            let waiting: Vec<BlockRef> = self
                .waiters
                .get(&r)
                .into_iter()
                .flatten()
                .copied()
                .collect();
            for waiter in waiting {
                if self.strand_pending(waiter) {
                    stack.push(waiter);
                }
            }
        }
    }

    /// Trims the pending buffer to [`GossipConfig::pending_cap`] by
    /// deterministic eviction — oldest never-promotable first (a block
    /// transitively referencing a rejected block), then oldest overall.
    fn enforce_pending_cap(&mut self) {
        while self.pending.len() > self.config.pending_cap {
            let Some(&(_, _, victim)) = self.eviction_queue.first() else {
                break;
            };
            self.evict_pending(victim);
        }
    }

    /// Evicts one pending block: un-indexes it, logs the accountability
    /// event, and re-lists its reference as missing for any surviving
    /// waiters so the `FWD` path can re-fetch it.
    fn evict_pending(&mut self, victim: BlockRef) {
        let entry = self.take_pending(&victim);
        self.stats.blocks_evicted += 1;
        let stranded_on = entry
            .stranded
            .then(|| {
                entry
                    .block
                    .preds()
                    .iter()
                    .find(|p| self.stranded_refs.contains(p))
                    .copied()
            })
            .flatten();
        self.evictions.push(EvictionEvent {
            block: victim,
            builder: entry.block.builder(),
            stranded_on,
        });
        // Un-index: the victim stops waiting on its missing preds, and
        // preds nobody else waits for stop being requested.
        for pred in &entry.missing {
            if let Some(waiting) = self.waiters.get_mut(pred) {
                waiting.remove(&victim);
                if waiting.is_empty() {
                    self.waiters.remove(pred);
                    self.drop_missing(pred);
                }
            }
        }
        // The victim counts as never-received again (same shape as the
        // rejected-block path, minus the permanence).
        self.relist_missing(victim);
    }

    /// Emits `FWD` requests for missing blocks never asked for, or whose
    /// retry wait ([`RoundTrip::retry_wait`]) is over.
    fn collect_fwd_commands(&mut self, now: TimeMs) -> Vec<NetCommand> {
        let mut commands = Vec::new();
        let mut retried = false;
        for (block_ref, state) in self.missing.iter_mut() {
            // Ask the builder of a block that referenced it (line 11);
            // rotate through candidates on retries. A banned peer's answer
            // would be dropped at the gate, so it is not asked: a block
            // whose candidates are all banned waits.
            let candidates: Vec<ServerId> = state
                .candidates
                .iter()
                .copied()
                .filter(|candidate| !self.defense.is_banned(*candidate, now))
                .collect();
            let due = state.last_sent.is_none_or(|last| {
                now.saturating_sub(last)
                    >= self.round_trip.retry_wait(state.attempts, candidates.len())
            });
            if !due || candidates.is_empty() {
                continue;
            }
            let target = candidates[state.attempts as usize % candidates.len()];
            retried |= state.attempts > 0;
            state.last_sent = Some(now);
            state.attempts += 1;
            if state.asked.insert(target) {
                *self.outstanding.entry(target).or_default() += 1;
            }
            self.stats.fwd_sent += 1;
            commands.push(NetCommand::SendTo {
                to: target,
                message: NetMessage::FwdRequest(*block_ref),
            });
        }
        if retried {
            self.round_trip.time_out();
            self.stats.fwd_rto_ms = self.round_trip.rto();
        }
        commands
    }
}

// --- Benchmark adapter only ----------------------------------------------
//
// `crates/bench/src/bin/benchmark/adapter.rs` names these; they go with
// ROADMAP item 9(j). Admission verifies each ready block on its own as the
// cascade settles it, so every verification pass is one block wide: the
// mean width is 1 once a block has been settled and 0 before.

impl Gossip {
    #[doc(hidden)]
    pub fn wave_stats(&self) -> &Self {
        self
    }

    #[doc(hidden)]
    pub fn mean_wave(&self) -> f64 {
        let rejected_when_settled = self
            .rejected
            .iter()
            .any(|(_, reason)| !matches!(reason, InvalidBlockError::UnknownBuilder { .. }));
        if self.stats.blocks_validated > 0 || rejected_when_settled {
            1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{AdmissionView, ReferenceGossip};
    use dagbft_codec::encode_to_vec;
    use dagbft_crypto::KeyRegistry;

    fn gossip_for(registry: &KeyRegistry, id: u32, n: usize) -> Gossip {
        Gossip::new(
            ServerId::new(id),
            GossipConfig::for_n(n),
            registry.signer(ServerId::new(id)).unwrap(),
            registry.verifier(),
        )
    }

    #[test]
    fn disseminate_builds_chain() {
        let registry = KeyRegistry::generate(2, 1);
        let mut gossip = gossip_for(&registry, 0, 2);
        let (b0, _) = gossip.disseminate(vec![], 0);
        let (b1, _) = gossip.disseminate(vec![], 10);
        assert!(b0.is_genesis());
        assert_eq!(b1.seq(), SeqNum::new(1));
        assert_eq!(b1.preds(), &[b0.block_ref()]);
        assert_eq!(gossip.dag().len(), 2);
        assert_eq!(gossip.stats().blocks_built, 2);
    }

    #[test]
    fn received_valid_block_inserted_and_referenced() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let (bob_block, _) = bob.disseminate(vec![], 0);

        let commands = alice.on_block(bob_block.clone(), 0);
        assert!(commands.is_empty());
        assert!(alice.dag().contains(&bob_block.block_ref()));
        assert_eq!(alice.stats().blocks_validated, 1);

        // Alice's next block references Bob's (line 8).
        let (alice_block, _) = alice.disseminate(vec![], 1);
        assert!(alice_block.preds().contains(&bob_block.block_ref()));
    }

    #[test]
    fn duplicate_blocks_counted_not_reinserted() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let (bob_block, _) = bob.disseminate(vec![], 0);
        alice.on_block(bob_block.clone(), 0);
        alice.on_block(bob_block.clone(), 1);
        assert_eq!(alice.stats().duplicate_blocks, 1);
        assert_eq!(alice.dag().len(), 1);
        // The reference is appended only once (Lemma A.6).
        let (alice_block, _) = alice.disseminate(vec![], 2);
        let count = alice_block
            .preds()
            .iter()
            .filter(|r| **r == bob_block.block_ref())
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn bad_signature_rejected() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let forged = Block::build_with_signature(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![],
            dagbft_crypto::Signature::NULL,
        );
        alice.on_block(forged.clone(), 0);
        assert_eq!(alice.stats().invalid_blocks, 1);
        assert!(!alice.dag().contains(&forged.block_ref()));
    }

    #[test]
    fn unknown_builder_rejected() {
        let registry = KeyRegistry::generate(4, 1);
        let mut alice = gossip_for(&registry, 0, 2); // only servers 0 and 1
        let outsider = Block::build(
            ServerId::new(3),
            SeqNum::ZERO,
            vec![],
            vec![],
            &registry.signer(ServerId::new(3)).unwrap(),
        );
        alice.on_block(outsider.clone(), 0);
        assert_eq!(alice.stats().invalid_blocks, 1);
        assert_eq!(
            alice.rejected(),
            &[(
                outsider.block_ref(),
                InvalidBlockError::UnknownBuilder {
                    claimed: ServerId::new(3)
                }
            )]
        );
    }

    #[test]
    fn outsider_block_with_unknown_pred_is_never_buffered_or_asked_after() {
        // A block naming a builder outside the server set, with a
        // predecessor nobody has: rejected on receipt (charged to the
        // deliverer), so no FWD is ever addressed to the outsider id.
        let registry = KeyRegistry::generate(4, 1);
        let mut alice = Gossip::new(
            ServerId::new(0),
            GossipConfig::for_n(2).with_defense(DefenseConfig::enabled()),
            registry.signer(ServerId::new(0)).unwrap(),
            registry.verifier(),
        );
        let unknown_pred = BlockRef::from_digest(dagbft_crypto::sha256(b"never built"));
        let outsider = Block::build(
            ServerId::new(3),
            SeqNum::new(1),
            vec![unknown_pred],
            vec![],
            &registry.signer(ServerId::new(3)).unwrap(),
        );
        let mut commands = alice.on_block_from(ServerId::new(1), outsider.clone(), 0);
        commands.extend(alice.on_block_burst([outsider.clone()], 50));
        for now in [100, 200, 1_000] {
            commands.extend(alice.on_tick(now));
        }
        assert_eq!(commands, vec![], "nothing is requested from anyone");
        assert_eq!(alice.pending_len(), 0);
        assert_eq!(alice.stats().pending_peak, 0);
        assert_eq!(alice.stats().invalid_blocks, 2);
        assert_eq!(alice.stats().fwd_sent, 0);
        assert!(matches!(
            alice.rejected()[0],
            (r, InvalidBlockError::UnknownBuilder { .. }) if r == outsider.block_ref()
        ));
        // The first copy was delivered by peer 1: that is who pays.
        assert_eq!(
            alice.defense().score(ServerId::new(1), 0),
            DefenseConfig::default().invalid_penalty
        );
    }

    #[test]
    fn missing_pred_triggers_fwd_to_builder() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let (bob_b0, _) = bob.disseminate(vec![], 0);
        let (bob_b1, _) = bob.disseminate(vec![], 1);

        // Alice receives b1 without b0: FWD to Bob (builder of b1).
        let commands = alice.on_block(bob_b1.clone(), 5);
        assert_eq!(
            commands,
            vec![NetCommand::SendTo {
                to: ServerId::new(1),
                message: NetMessage::FwdRequest(bob_b0.block_ref()),
            }]
        );
        assert_eq!(alice.pending_len(), 1);
        assert_eq!(alice.stats().fwd_sent, 1);

        // Bob answers the FWD with the block.
        let answers = bob.on_fwd_request(ServerId::new(0), bob_b0.block_ref());
        assert_eq!(
            answers,
            vec![NetCommand::SendTo {
                to: ServerId::new(0),
                message: NetMessage::Block(bob_b0.clone()),
            }]
        );

        // Delivery resolves the gap; both blocks are promoted.
        alice.on_block(bob_b0.clone(), 6);
        assert!(alice.dag().contains(&bob_b0.block_ref()));
        assert!(alice.dag().contains(&bob_b1.block_ref()));
        assert_eq!(alice.pending_len(), 0);
    }

    #[test]
    fn fwd_reply_shares_the_stored_block_body() {
        let registry = KeyRegistry::generate(2, 1);
        let mut bob = gossip_for(&registry, 1, 2);
        let (bob_b0, _) = bob.disseminate(vec![], 0);
        let answers = bob.on_fwd_request(ServerId::new(0), bob_b0.block_ref());
        let NetCommand::SendTo {
            message: NetMessage::Block(served),
            ..
        } = &answers[0]
        else {
            panic!("expected a block reply");
        };
        // Zero-copy reply: the served block's wire image is the same
        // allocation the DAG holds.
        assert!(served
            .wire_bytes()
            .shares_allocation_with(bob_b0.wire_bytes()));
    }

    #[test]
    fn fwd_retry_respects_interval() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let (_bob_b0, _) = bob.disseminate(vec![], 0);
        let (bob_b1, _) = bob.disseminate(vec![], 1);

        let first = alice.on_block(bob_b1, 0);
        assert_eq!(first.len(), 1);
        // Nothing measured yet: every wait is one seal period.
        assert_eq!(alice.stats().fwd_rto_ms, 50);
        for sent in [0, 50, 100] {
            assert!(
                alice.on_tick(sent + 49).is_empty(),
                "too early after {sent}"
            );
            assert_eq!(alice.on_tick(sent + 50).len(), 1, "due after {sent}");
        }
        assert_eq!(alice.stats().fwd_sent, 4);
    }

    #[test]
    fn the_round_trip_estimate_follows_rfc_6298_in_integers() {
        let mut round_trip = RoundTrip::new(50);
        // No sample: the cap, for every retry.
        assert_eq!(round_trip.rto(), 50);
        assert!((1..10).all(|attempts| round_trip.retry_wait(attempts, 3) == 50));
        // A sample alone moves nothing: until a request times out, every
        // wait is the cap.
        round_trip.sample(10);
        assert_eq!(round_trip.rto(), 50);
        // First sample R: SRTT = R, RTTVAR = R/2, RTO = R + 4·R/2.
        round_trip.time_out();
        assert_eq!(round_trip.rto(), 30);
        // Constant 20 ms round trips: RTTVAR decays to its integer floor.
        let mut steady = RoundTrip::new(50);
        steady.time_out();
        let rtos: Vec<TimeMs> = (0..14)
            .map(|_| {
                steady.sample(20);
                steady.rto()
            })
            .collect();
        assert_eq!(
            rtos,
            [50, 50, 43, 38, 34, 31, 29, 27, 26, 25, 24, 23, 23, 23]
        );
        // Slow answers cap the timeout at the period.
        let mut slow = RoundTrip::new(50);
        slow.time_out();
        for rtt in [200, 80, 400] {
            slow.sample(rtt);
            assert_eq!(slow.rto(), 50);
        }
        // A zero round trip still waits 1 ms.
        let mut instant = RoundTrip::new(50);
        instant.time_out();
        instant.sample(0);
        assert_eq!(instant.rto(), 1);
    }

    #[test]
    fn the_timeout_never_falls_below_the_longest_round_trip_sampled() {
        let (mut fast, mut once_slow) = (RoundTrip::new(50), RoundTrip::new(50));
        fast.time_out();
        once_slow.time_out();
        once_slow.sample(40);
        for _ in 0..30 {
            fast.sample(2);
            once_slow.sample(2);
        }
        assert_eq!(fast.rto(), 5);
        assert_eq!(once_slow.rto(), 40);
    }

    #[test]
    fn retries_wait_one_rto_per_peer_then_double_up_to_the_period() {
        let mut round_trip = RoundTrip::new(50);
        round_trip.sample(2);
        round_trip.time_out();
        assert_eq!(round_trip.rto(), 6);
        let waits: Vec<TimeMs> = (1..=8)
            .map(|attempts| round_trip.retry_wait(attempts, 3))
            .collect();
        assert_eq!(waits, [6, 6, 6, 12, 24, 48, 50, 50]);
        let alone: Vec<TimeMs> = (1..=5)
            .map(|attempts| round_trip.retry_wait(attempts, 1))
            .collect();
        assert_eq!(alone, [6, 12, 24, 48, 50]);
        assert_eq!(round_trip.retry_wait(u32::MAX, 3), 50);
    }

    /// Server 0 of 4 after one time-out and no sample: peer 2 was asked
    /// for its genesis at 0, asked again at 50, and answered at 51.
    fn timed_out(registry: &KeyRegistry, defense: DefenseConfig) -> Gossip {
        let mut alice = defended(registry, defense);
        let genesis = built(registry, 2, 0, vec![]);
        let child = built(registry, 2, 1, vec![genesis.block_ref()]);
        assert_eq!(alice.on_block(child, 0), vec![fwd(2, genesis.block_ref())]);
        assert_eq!(alice.on_tick(50), vec![fwd(2, genesis.block_ref())]);
        assert!(alice.on_block(genesis, 51).is_empty());
        assert_eq!(alice.stats().fwd_rto_ms, 50);
        alice
    }

    /// [`timed_out`], then one measured round trip of `rtt` ms: peer 1 was
    /// asked for its genesis at 100 and answered at `100 + rtt`.
    fn measured(registry: &KeyRegistry, defense: DefenseConfig, rtt: TimeMs) -> Gossip {
        let mut alice = timed_out(registry, defense);
        let genesis = built(registry, 1, 0, vec![]);
        let child = built(registry, 1, 1, vec![genesis.block_ref()]);
        assert_eq!(
            alice.on_block(child, 100),
            vec![fwd(1, genesis.block_ref())]
        );
        assert!(alice.on_block(genesis, 100 + rtt).is_empty());
        alice
    }

    #[test]
    fn until_a_request_times_out_every_wait_is_the_period() {
        let registry = KeyRegistry::generate(4, 1);
        // A round trip of 5 ms is measured on a link that has lost nothing.
        let mut alice = defended(&registry, DefenseConfig::default());
        let genesis = built(&registry, 1, 0, vec![]);
        let child = built(&registry, 1, 1, vec![genesis.block_ref()]);
        assert_eq!(alice.on_block(child, 0), vec![fwd(1, genesis.block_ref())]);
        assert!(alice.on_block(genesis, 5).is_empty());
        assert_eq!(alice.stats().fwd_rto_ms, 50);
        // A block cited by peers 1 and 2 is lost: its first retry waits
        // the period, and is the time-out after which the estimate counts.
        let lost = built(&registry, 3, 0, vec![]).block_ref();
        let citing = |id: u32| {
            let block = built(&registry, id, 2, vec![lost]);
            (ServerId::new(id), NetMessage::Block(block))
        };
        assert_eq!(
            alice.on_messages([citing(1), citing(2)], 10),
            vec![fwd(1, lost)]
        );
        assert!(alice.on_tick(59).is_empty());
        assert_eq!(alice.on_tick(60), vec![fwd(2, lost)]);
        assert_eq!(alice.stats().fwd_rto_ms, 15);
        assert!(alice.on_tick(74).is_empty());
        assert_eq!(alice.on_tick(75), vec![fwd(1, lost)]);
    }

    #[test]
    fn only_the_answer_to_a_request_sent_once_is_a_round_trip_sample() {
        let registry = KeyRegistry::generate(4, 1);
        // The positive case: asked once, answered by the peer asked.
        let alice = measured(&registry, DefenseConfig::default(), 5);
        assert_eq!(alice.stats().fwd_rto_ms, 15);
        let lost_block = built(&registry, 3, 0, vec![]);
        let lost = lost_block.block_ref();
        let citing = |id: u32| {
            let block = built(&registry, id, 2, vec![lost]);
            (ServerId::new(id), NetMessage::Block(block))
        };
        // An answer to a retried request: asked of 1, then of 2.
        for answerer in [1, 2] {
            let mut alice = timed_out(&registry, DefenseConfig::default());
            assert_eq!(
                alice.on_messages([citing(1), citing(2)], 200),
                vec![fwd(1, lost)]
            );
            assert_eq!(alice.on_tick(250), vec![fwd(2, lost)]);
            alice.on_block_from(ServerId::new(answerer), lost_block.clone(), 255);
            assert!(alice.dag().contains(&lost));
            assert_eq!(alice.stats().fwd_rto_ms, 50, "answered by {answerer}");
        }
        // An unsolicited copy of a block asked once: its builder, not
        // asked, delivers it.
        let mut alice = timed_out(&registry, DefenseConfig::default());
        assert_eq!(
            alice.on_messages([citing(1), citing(2)], 200),
            vec![fwd(1, lost)]
        );
        alice.on_block(lost_block.clone(), 205);
        assert!(alice.dag().contains(&lost));
        assert_eq!(alice.stats().fwd_rto_ms, 50);
        // A late answer to an answered request measures nothing either.
        alice.on_block_from(ServerId::new(1), lost_block, 206);
        assert_eq!(alice.stats().fwd_rto_ms, 50);
    }

    #[test]
    fn slow_answers_cap_the_retry_wait_at_the_period() {
        let registry = KeyRegistry::generate(4, 1);
        let mut alice = measured(&registry, DefenseConfig::default(), 120);
        assert_eq!(alice.stats().fwd_rto_ms, 50);
        let lost = built(&registry, 3, 0, vec![]).block_ref();
        let citing = built(&registry, 2, 2, vec![lost]);
        assert_eq!(alice.on_block(citing, 300), vec![fwd(2, lost)]);
        assert!(alice.on_tick(349).is_empty());
        assert_eq!(alice.on_tick(350), vec![fwd(2, lost)]);
    }

    #[test]
    fn an_unanswerable_request_costs_a_bounded_number_of_sends() {
        let period = 50;
        let registry = KeyRegistry::generate(4, 1);
        // Nobody holds it: cited by `citers` peers, swept every
        // millisecond for a second.
        let lost = BlockRef::from_digest(dagbft_crypto::sha256(b"never built"));
        for (citers, exact) in [(3u32, 24), (1, 23)] {
            let mut alice = measured(&registry, DefenseConfig::default(), 2);
            let rto = alice.stats().fwd_rto_ms;
            assert_eq!(rto, 6);
            let citing = (1..=citers).map(|id| {
                let block = built(&registry, id, 2, vec![lost]);
                (ServerId::new(id), NetMessage::Block(block))
            });
            let mut sends = alice.on_messages(citing, 110).len() as u64;
            for now in 111..=1_110 {
                sends += alice.on_tick(now).len() as u64;
            }
            // Three candidates: 0, 6, 12, 18 (one RTO each), +12, +24,
            // +48, then every period. One: 0, 6, +12, +24, +48, then
            // every period.
            assert_eq!(sends, exact, "{citers} candidates");
            let doublings = (period as f64 / rto as f64).log2().ceil() as u64;
            assert!(sends <= u64::from(citers) + doublings + 1_000 / period);
        }
    }

    #[test]
    fn a_late_answer_to_a_retried_request_is_not_charged() {
        let registry = KeyRegistry::generate(4, 1);
        let (first, second) = (ServerId::new(1), ServerId::new(2));
        let mut alice = defended(&registry, DefenseConfig::enabled());
        let lost_block = built(&registry, 3, 0, vec![]);
        let lost = lost_block.block_ref();
        let citing = |id: u32| {
            let block = built(&registry, id, 0, vec![lost]);
            (ServerId::new(id), NetMessage::Block(block))
        };
        // Asked of peer 1, then, a period later, of peer 2.
        assert_eq!(
            alice.on_messages([citing(1), citing(2)], 0),
            vec![fwd(1, lost)]
        );
        assert_eq!(alice.on_tick(50), vec![fwd(2, lost)]);
        // Peer 1's answer is admitted; peer 2's arrives late.
        alice.on_block_from(first, lost_block.clone(), 60);
        assert!(alice.dag().contains(&lost));
        alice.on_block_from(second, lost_block.clone(), 70);
        assert_eq!(alice.stats().duplicate_blocks, 1);
        assert_eq!(alice.defense().score(second, 70), 0);
        // Excused once: another copy from peer 2 is a flood.
        alice.on_block_from(second, lost_block.clone(), 71);
        assert!(alice.defense().score(second, 71) > 0);
        // Peer 1 may still answer its own request late, until the first
        // sweep a period after the block arrived.
        alice.on_tick(109);
        alice.on_block_from(first, lost_block.clone(), 109);
        assert_eq!(alice.defense().score(first, 109), 0);
        let mut other = defended(&registry, DefenseConfig::enabled());
        other.on_messages([citing(1), citing(2)], 0);
        other.on_tick(50);
        other.on_block_from(first, lost_block.clone(), 60);
        other.on_tick(110);
        other.on_block_from(second, lost_block, 110);
        assert!(other.defense().score(second, 110) > 0);
    }

    fn defended(registry: &KeyRegistry, defense: DefenseConfig) -> Gossip {
        Gossip::new(
            ServerId::new(0),
            GossipConfig::for_n(4).with_defense(defense),
            registry.signer(ServerId::new(0)).unwrap(),
            registry.verifier(),
        )
    }

    /// An empty block of server `id` at `seq`, signed under `registry`.
    fn built(registry: &KeyRegistry, id: u32, seq: u64, preds: Vec<BlockRef>) -> Block {
        let signer = registry.signer(ServerId::new(id)).unwrap();
        Block::build(ServerId::new(id), SeqNum::new(seq), preds, vec![], &signer)
    }

    fn fwd(to: u32, block_ref: BlockRef) -> NetCommand {
        NetCommand::SendTo {
            to: ServerId::new(to),
            message: NetMessage::FwdRequest(block_ref),
        }
    }

    #[test]
    fn answers_we_asked_for_are_neither_throttled_nor_scored() {
        let registry = KeyRegistry::generate(4, 1);
        let peer = ServerId::new(1);
        // Two block tokens, never refilled.
        let mut alice = defended(&registry, DefenseConfig::enabled().with_block_bucket(2, 0));
        let genesis: Vec<Block> = (1..4).map(|id| built(&registry, id, 0, vec![])).collect();
        let refs: Vec<BlockRef> = genesis.iter().map(Block::block_ref).collect();
        let top = built(&registry, 1, 1, refs.clone());
        // Every pred is missing, and peer 1 is the only one to ask.
        let asked: BTreeSet<BlockRef> = alice
            .on_block_from(peer, top.clone(), 0)
            .into_iter()
            .map(|command| match command {
                NetCommand::SendTo {
                    to,
                    message: NetMessage::FwdRequest(block_ref),
                } if to == peer => block_ref,
                other => panic!("expected a FWD to peer 1, got {other:?}"),
            })
            .collect();
        assert_eq!(asked, refs.iter().copied().collect());
        // Its three answers arrive in one burst, with one token left.
        let answers = genesis
            .iter()
            .map(|block| (peer, NetMessage::Block(block.clone())));
        assert!(alice.on_messages(answers, 10).is_empty());
        assert_eq!(alice.dag().len(), 4, "the answers and the block they free");
        assert_eq!(alice.defense().score(peer, 10), 0);
        assert_eq!(alice.defense().stats().throttled_blocks, 0);
        // Unsolicited blocks still meet the bucket: one passes, one is
        // throttled and scored.
        let next = built(&registry, 1, 2, vec![top.block_ref()]);
        let other = built(&registry, 2, 1, vec![refs[1]]);
        alice.on_block_from(peer, next.clone(), 20);
        alice.on_block_from(peer, other.clone(), 20);
        assert!(alice.dag().contains(&next.block_ref()));
        assert!(!alice.dag().contains(&other.block_ref()));
        assert_eq!(alice.defense().stats().throttled_blocks, 1);
        assert!(alice.defense().score(peer, 20) > 0);
    }

    #[test]
    fn fwd_skips_banned_candidates_and_waits_while_all_are_banned() {
        let registry = KeyRegistry::generate(4, 1);
        // One invalid block bans its deliverer for a second.
        let mut alice = defended(&registry, DefenseConfig::enabled().with_ban(20, 1_000));
        let forged = |seq| {
            let null = dagbft_crypto::Signature::NULL;
            Block::build_with_signature(ServerId::new(3), SeqNum::new(seq), vec![], vec![], null)
        };
        let lost = built(&registry, 3, 0, vec![]).block_ref();
        let citing = |id: u32| {
            let block = built(&registry, id, 0, vec![lost]);
            (ServerId::new(id), NetMessage::Block(block))
        };
        // Servers 1 and 2 both cite the lost block: it is asked of 1.
        assert_eq!(
            alice.on_messages([citing(1), citing(2)], 0),
            vec![fwd(1, lost)]
        );
        // Server 2 is banned until 1 010: the rotation passes it over.
        alice.on_block_from(ServerId::new(2), forged(1), 10);
        for now in [100, 200, 300] {
            assert_eq!(alice.on_tick(now), vec![fwd(1, lost)], "at {now}");
        }
        // Server 1 is banned too, until 1 310: the request waits.
        alice.on_block_from(ServerId::new(1), forged(2), 310);
        for now in [400, 700, 1_000] {
            assert!(alice.on_tick(now).is_empty(), "at {now}");
        }
        // Server 2's ban lapses first.
        assert_eq!(alice.on_tick(1_010), vec![fwd(2, lost)]);
        assert_eq!(alice.stats().fwd_sent, 5);
    }

    #[test]
    fn a_banned_peers_fwd_request_is_not_answered() {
        // Answering would hand a banned peer a block-sized reply per tiny
        // request. One invalid block bans its deliverer for a second.
        let registry = KeyRegistry::generate(4, 1);
        let mut alice = defended(&registry, DefenseConfig::enabled().with_ban(20, 1_000));
        let held = built(&registry, 1, 0, vec![]);
        alice.on_block(held.clone(), 0);
        let ask = |alice: &mut Gossip, now| {
            let request = NetMessage::FwdRequest(held.block_ref());
            alice.on_message(ServerId::new(2), request, now)
        };
        assert_eq!(ask(&mut alice, 5).len(), 1, "answered while in standing");
        let null = dagbft_crypto::Signature::NULL;
        let forged =
            Block::build_with_signature(ServerId::new(3), SeqNum::ZERO, vec![], vec![], null);
        alice.on_block_from(ServerId::new(2), forged, 10);
        assert!(ask(&mut alice, 20).is_empty(), "dropped while banned");
        assert_eq!(alice.stats().fwd_received, 1);
        assert_eq!(
            ask(&mut alice, 1_010).len(),
            1,
            "answered once the ban lapsed"
        );
    }

    #[test]
    fn fwd_request_for_unknown_block_ignored() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let bogus = BlockRef::from_digest(dagbft_crypto::Digest::ZERO);
        assert!(alice.on_fwd_request(ServerId::new(1), bogus).is_empty());
        assert_eq!(alice.stats().fwd_received, 1);
        assert_eq!(alice.stats().fwd_answered, 0);
    }

    #[test]
    fn equivocating_blocks_both_accepted() {
        // Figure 3: equivocation is *valid*; detection is the DAG's job,
        // tolerance is P's job.
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        let b3 = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let b4 = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        alice.on_block(b3.clone(), 0);
        alice.on_block(b4.clone(), 0);
        assert!(alice.dag().contains(&b3.block_ref()));
        assert!(alice.dag().contains(&b4.block_ref()));
        assert_eq!(alice.dag().equivocations(ServerId::new(1)).len(), 1);
    }

    #[test]
    fn block_with_two_distinct_parents_rejected() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        let g_a = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let g_b = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        let child = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![g_a.block_ref(), g_b.block_ref()],
            vec![],
            &signer1,
        );
        alice.on_block(g_a, 0);
        alice.on_block(g_b, 0);
        alice.on_block(child.clone(), 0);
        assert!(!alice.dag().contains(&child.block_ref()));
        assert_eq!(alice.stats().invalid_blocks, 1);
    }

    #[test]
    fn net_message_wire_roundtrip() {
        let registry = KeyRegistry::generate(1, 1);
        let signer = registry.signer(ServerId::new(0)).unwrap();
        let block = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signer);
        for message in [
            NetMessage::Block(block.clone()),
            NetMessage::FwdRequest(block.block_ref()),
        ] {
            let bytes = encode_to_vec(&message);
            assert_eq!(bytes.len(), message.wire_len());
            let (discriminant, payload) = message.payload_view();
            assert_eq!(bytes[0], discriminant);
            assert_eq!(&bytes[1..], payload);
            let decoded: NetMessage = dagbft_codec::decode_from_slice(&bytes).unwrap();
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn out_of_order_chain_promotes_in_one_pass() {
        let registry = KeyRegistry::generate(2, 1);
        let mut alice = gossip_for(&registry, 0, 2);
        let mut bob = gossip_for(&registry, 1, 2);
        let blocks: Vec<Block> = (0..5).map(|t| bob.disseminate(vec![], t).0).collect();
        // Deliver in reverse order: everything buffers, then promotes at
        // once.
        for block in blocks.iter().rev().take(4) {
            alice.on_block(block.clone(), 0);
        }
        assert_eq!(alice.dag().len(), 0);
        alice.on_block(blocks[0].clone(), 1);
        assert_eq!(alice.dag().len(), 5);
        assert_eq!(alice.pending_len(), 0);
        assert!(alice.dag().check_invariants());
    }

    /// Drives [`Gossip`] and the paper-literal [`ReferenceGossip`] through
    /// the same schedule — one call per `calls` entry — and asserts every
    /// observable of Algorithm 1 is identical: commands per call, the
    /// [`AdmissionView`] (promotion order, rejections, pending, stats) and
    /// the number of signature verifications. Each side counts on its own
    /// registry (same seed, same keys).
    fn assert_engine_matches_reference(calls: &[(Vec<Block>, TimeMs)], n: usize, seed: u64) {
        let engine_registry = KeyRegistry::generate(n, seed);
        let reference_registry = KeyRegistry::generate(n, seed);
        let mut engine = gossip_for(&engine_registry, 0, n);
        let mut reference =
            ReferenceGossip::new(GossipConfig::for_n(n), reference_registry.verifier());
        for (blocks, at) in calls {
            // A single delivery takes the per-message road, a longer call
            // the multi-message one.
            let commands = match blocks.as_slice() {
                [block] => engine.on_block(block.clone(), *at),
                _ => engine.on_block_burst(blocks.iter().cloned(), *at),
            };
            assert_eq!(
                commands,
                reference.on_blocks(blocks.iter().cloned(), *at),
                "commands diverged at t={at}"
            );
        }
        assert_eq!(AdmissionView::of(&engine), reference.view());
        assert_eq!(
            engine_registry.metrics().verifies(),
            reference_registry.metrics().verifies(),
            "verification count diverged"
        );
        // Exactly one check per block the cascade settled: each promoted
        // block, and each rejected after it was ready.
        let rejected_when_settled = engine
            .rejected()
            .iter()
            .filter(|(_, reason)| !matches!(reason, InvalidBlockError::UnknownBuilder { .. }))
            .count() as u64;
        assert_eq!(
            engine_registry.metrics().verifies(),
            engine.stats().blocks_validated + rejected_when_settled
        );
    }

    fn assert_engines_agree(deliveries: &[(Block, TimeMs)], n: usize, seed: u64) {
        let calls: Vec<(Vec<Block>, TimeMs)> = deliveries
            .iter()
            .map(|(block, at)| (vec![block.clone()], *at))
            .collect();
        assert_engine_matches_reference(&calls, n, seed);
    }

    fn assert_engines_agree_on_bursts(deliveries: &[Block], chunk: usize, n: usize, seed: u64) {
        let calls: Vec<(Vec<Block>, TimeMs)> = deliveries
            .chunks(chunk)
            .enumerate()
            .map(|(at, burst)| (burst.to_vec(), at as TimeMs))
            .collect();
        assert_engine_matches_reference(&calls, n, seed);
    }

    #[test]
    fn engines_agree_on_burst_ingest_of_hostile_soup() {
        let registry = KeyRegistry::generate(3, 1);
        let mut bob = gossip_for(&registry, 1, 3);
        let mut blocks: Vec<Block> = (0..12).map(|t| bob.disseminate(vec![], t).0).collect();
        blocks.reverse();
        // The whole soup in one call, and split into small calls.
        for chunk in [blocks.len(), 5] {
            assert_engines_agree_on_bursts(&blocks, chunk, 3, 1);
        }
    }

    #[test]
    fn burst_ingest_admits_what_per_message_ingest_admits() {
        // The promotion fixed point is confluent: deferring a burst can
        // reorder promotions but never change the admitted set, the
        // rejections, or the validation counts.
        let registry = KeyRegistry::generate(3, 1);
        let mut bob = gossip_for(&registry, 1, 3);
        let blocks: Vec<Block> = (0..9).map(|t| bob.disseminate(vec![], t).0).collect();
        let forged = Block::build_with_signature(
            ServerId::new(2),
            SeqNum::ZERO,
            vec![],
            vec![],
            dagbft_crypto::Signature::NULL,
        );
        let mut schedule: Vec<Block> = blocks.iter().rev().cloned().collect();
        schedule.insert(4, forged);
        let mut one_at_a_time = gossip_for(&registry, 0, 3);
        for (t, block) in schedule.iter().enumerate() {
            one_at_a_time.on_block(block.clone(), t as TimeMs);
        }
        let mut bursty = gossip_for(&registry, 0, 3);
        bursty.on_block_burst(schedule.iter().cloned(), 0);
        let set = |g: &Gossip| g.dag().refs().copied().collect::<BTreeSet<_>>();
        assert_eq!(set(&one_at_a_time), set(&bursty), "admitted set");
        assert_eq!(one_at_a_time.rejected(), bursty.rejected());
        assert_eq!(
            one_at_a_time.stats().blocks_validated,
            bursty.stats().blocks_validated
        );
        assert_eq!(
            one_at_a_time.stats().invalid_blocks,
            bursty.stats().invalid_blocks
        );
    }

    #[test]
    fn burst_and_per_message_ingest_verify_each_block_once() {
        // An in-order 4-builder soup: per-message ingest promotes each
        // block alone, one multi-message call promotes whole rounds; both
        // check each signature exactly once.
        let registry = KeyRegistry::generate(5, 9);
        let signers: Vec<_> = (1..5)
            .map(|i| registry.signer(ServerId::new(i)).unwrap())
            .collect();
        let mut blocks = Vec::new();
        let mut prev: Vec<BlockRef> = Vec::new();
        for round in 0..6u64 {
            let mut layer = Vec::new();
            for signer in &signers {
                let block = Block::build(
                    signer.id(),
                    SeqNum::new(round),
                    prev.clone(),
                    vec![],
                    signer,
                );
                layer.push(block.block_ref());
                blocks.push(block);
            }
            prev = layer;
        }
        let mut per_message = gossip_for(&registry, 0, 5);
        for block in &blocks {
            per_message.on_block(block.clone(), 0);
        }
        assert_eq!(per_message.dag().len(), blocks.len());
        assert_eq!(registry.metrics().verifies(), 24);
        let mut bursty = gossip_for(&registry, 0, 5);
        bursty.on_block_burst(blocks.iter().cloned(), 0);
        assert_eq!(bursty.dag().len(), blocks.len());
        assert_eq!(registry.metrics().verifies(), 48);
    }

    #[test]
    fn pending_cap_evicts_stranded_first_and_fwd_recovers() {
        let registry = KeyRegistry::generate(3, 1);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        // A rejected block (two distinct parents) with a flood of
        // stranded descendants, plus an honest gap: b1 arrives before b0.
        let g_a = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let g_b = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        let two_parents = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![g_a.block_ref(), g_b.block_ref()],
            vec![],
            &signer1,
        );
        let mut stranded_chain = Vec::new();
        let mut parent = two_parents.block_ref();
        for k in 2..8u64 {
            let child = Block::build(
                ServerId::new(1),
                SeqNum::new(k),
                vec![parent],
                vec![],
                &signer1,
            );
            parent = child.block_ref();
            stranded_chain.push(child);
        }
        let mut bob = gossip_for(&registry, 2, 3);
        let (bob_b0, _) = bob.disseminate(vec![], 0);
        let (bob_b1, _) = bob.disseminate(vec![], 1);

        let mut alice = Gossip::new(
            ServerId::new(0),
            GossipConfig::for_n(3).with_pending_cap(3),
            registry.signer(ServerId::new(0)).unwrap(),
            registry.verifier(),
        );
        alice.on_block(g_a.clone(), 0);
        alice.on_block(g_b.clone(), 0);
        alice.on_block(two_parents.clone(), 0); // rejected
        alice.on_block(bob_b1.clone(), 1); // honest, waits for b0
        for (t, block) in stranded_chain.iter().enumerate() {
            alice.on_block(block.clone(), 2 + t as TimeMs);
        }
        // The flood stayed within the cap; the honest waiter survived
        // because stranded blocks are evicted first.
        assert!(alice.pending_len() <= 3);
        assert!(alice.stats().blocks_evicted > 0);
        assert!(
            alice
                .evictions()
                .iter()
                .all(|e| e.builder == ServerId::new(1)),
            "only the flooder's blocks evicted"
        );
        assert!(
            alice
                .evictions()
                .iter()
                .any(|e| e.stranded_on == Some(two_parents.block_ref())),
            "eviction names the stranding rejection"
        );
        // FWD recovery still completes the honest chain.
        alice.on_block(bob_b0.clone(), 100);
        assert!(alice.dag().contains(&bob_b0.block_ref()));
        assert!(alice.dag().contains(&bob_b1.block_ref()));
    }

    #[test]
    fn evicted_block_can_be_refetched_and_admitted() {
        // Eviction is a resource decision: a wanted block dropped under
        // cap pressure is re-requested via FWD and admitted on re-delivery.
        let registry = KeyRegistry::generate(2, 1);
        let mut bob = gossip_for(&registry, 1, 2);
        let chain: Vec<Block> = (0..4).map(|t| bob.disseminate(vec![], t).0).collect();
        let mut alice = Gossip::new(
            ServerId::new(0),
            GossipConfig::for_n(2).with_pending_cap(2),
            registry.signer(ServerId::new(0)).unwrap(),
            registry.verifier(),
        );
        // Deliver b3, b2, b1: the cap (2) evicts the oldest (b3).
        for (t, block) in chain.iter().skip(1).rev().enumerate() {
            alice.on_block(block.clone(), t as TimeMs);
        }
        assert_eq!(alice.pending_len(), 2);
        assert_eq!(alice.stats().blocks_evicted, 1);
        assert_eq!(alice.evictions()[0].block, chain[3].block_ref());
        assert_eq!(alice.evictions()[0].stranded_on, None);
        // The gap closes: b0 promotes b1 and b2. The evicted tip b3 is
        // simply absent — until b4 references it, which triggers a FWD…
        alice.on_block(chain[0].clone(), 10);
        assert_eq!(alice.dag().len(), 3);
        let (b4, _) = bob.disseminate(vec![], 20);
        let commands = alice.on_block(b4.clone(), 30);
        assert!(
            commands.iter().any(|c| matches!(
                c,
                NetCommand::SendTo {
                    message: NetMessage::FwdRequest(r),
                    ..
                } if *r == chain[3].block_ref()
            )),
            "evicted block re-requested: {commands:?}"
        );
        // …and re-delivery admits the whole chain.
        alice.on_block(chain[3].clone(), 40);
        assert_eq!(alice.dag().len(), 5);
        assert_eq!(alice.pending_len(), 0);
    }

    #[test]
    fn late_stranding_reranks_existing_waiters() {
        // Regression: R is rejected; X (referencing unseen P) arrives and
        // ranks as honest; then P (referencing R) arrives and is stranded
        // at insertion. X must be re-ranked stranded too — under cap
        // pressure the doomed chain is evicted, never the honest backlog,
        // and the eviction queue stays exactly in sync with the buffer.
        let registry = KeyRegistry::generate(3, 1);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        let g_a = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let g_b = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        let rejected = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![g_a.block_ref(), g_b.block_ref()],
            vec![],
            &signer1,
        );
        let p = Block::build(
            ServerId::new(1),
            SeqNum::new(2),
            vec![rejected.block_ref()],
            vec![],
            &signer1,
        );
        let x = Block::build(
            ServerId::new(1),
            SeqNum::new(3),
            vec![p.block_ref()],
            vec![],
            &signer1,
        );
        let mut bob = gossip_for(&registry, 2, 3);
        let (bob_b0, _) = bob.disseminate(vec![], 0);
        let (bob_b1, _) = bob.disseminate(vec![], 1);
        for bursted in [false, true] {
            let mut alice = Gossip::new(
                ServerId::new(0),
                GossipConfig::for_n(3).with_pending_cap(2),
                registry.signer(ServerId::new(0)).unwrap(),
                registry.verifier(),
            );
            let schedule = [
                g_a.clone(),
                g_b.clone(),
                rejected.clone(),
                x.clone(), // arrives before its pred P — ranked honest
                p.clone(), // stranded at insertion; X is doomed too
                bob_b1.clone(),
            ];
            if bursted {
                alice.on_block_burst(schedule, 0);
            } else {
                for (t, block) in schedule.into_iter().enumerate() {
                    alice.on_block(block, t as TimeMs);
                }
            }
            // The cap evicted from the doomed chain (oldest stranded
            // first: X), never the honest waiter.
            assert_eq!(alice.pending_len(), 2, "burst={bursted}");
            assert_eq!(
                alice.evictions(),
                &[EvictionEvent {
                    block: x.block_ref(),
                    builder: ServerId::new(1),
                    stranded_on: Some(p.block_ref()),
                }],
                "burst={bursted}"
            );
            // The honest chain still completes.
            alice.on_block(bob_b0.clone(), 100);
            assert!(alice.dag().contains(&bob_b1.block_ref()));
        }
    }

    #[test]
    fn a_convicted_builders_ready_block_settles_in_ref_order() {
        // With the defense on, a ready set holding a convicted builder's
        // block among honest ones settles smallest `ref(B)` first, the
        // order of `ReferenceGossip` — in a multi-message call and in a
        // per-message cascade alike.
        let registry = KeyRegistry::generate(4, 1);
        let convict = ServerId::new(1);
        let convict_signer = registry.signer(convict).unwrap();
        let g_a = built(&registry, 1, 0, vec![]);
        let g_b = Block::build(
            convict,
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &convict_signer,
        );
        let root = built(&registry, 2, 0, vec![]);
        let g3 = built(&registry, 3, 0, vec![]);
        // Two honest children wait on `root`, the smaller one first.
        let mut honest = [
            built(&registry, 2, 1, vec![root.block_ref()]),
            built(&registry, 3, 1, vec![g3.block_ref(), root.block_ref()]),
        ];
        honest.sort_by_key(Block::block_ref);
        let [low, high] = honest;
        // The convict's child waits on `root` too; the nonce is searched
        // until its reference sorts between the honest two.
        let convict_child = (0u64..)
            .map(|nonce| {
                Block::build(
                    convict,
                    SeqNum::new(1),
                    vec![g_a.block_ref(), root.block_ref()],
                    vec![LabeledRequest::encode(crate::Label::new(7), &nonce)],
                    &convict_signer,
                )
            })
            .find(|block| (low.block_ref()..high.block_ref()).contains(&block.block_ref()))
            .unwrap();
        for batched in [false, true] {
            let mut alice = defended(&registry, DefenseConfig::enabled());
            alice.on_block(g_a.clone(), 0);
            alice.on_block(g_b.clone(), 0);
            alice.on_block(g3.clone(), 0);
            assert!(alice.defense().is_convicted(convict));
            let children = [high.clone(), convict_child.clone(), low.clone()];
            if batched {
                // One call whose ready set holds the three children.
                alice.on_block(root.clone(), 1);
                alice.on_block_burst(children, 2);
            } else {
                // One delivery whose cascade unlocks the three children.
                for child in children {
                    alice.on_block(child, 1);
                }
                alice.on_block(root.clone(), 2);
            }
            let order: Vec<BlockRef> = alice.dag().refs().copied().collect();
            assert_eq!(
                order[order.len() - 3..],
                [low.block_ref(), convict_child.block_ref(), high.block_ref()],
                "batched={batched}"
            );
        }
    }

    #[test]
    fn duplicate_flood_burst_skips_promotion_work() {
        // A call of pure duplicates must not pay a promotion pass.
        let registry = KeyRegistry::generate(2, 1);
        let mut bob = gossip_for(&registry, 1, 2);
        let (b0, _) = bob.disseminate(vec![], 0);
        let mut alice = gossip_for(&registry, 0, 2);
        alice.on_block(b0.clone(), 0);
        let verified = registry.metrics().verifies();
        alice.on_block_burst(std::iter::repeat_n(b0.clone(), 64), 1);
        assert_eq!(alice.stats().duplicate_blocks, 64);
        assert_eq!(alice.pending_len(), 0);
        assert_eq!(registry.metrics().verifies(), verified);
    }

    #[test]
    fn engines_agree_on_reverse_order_burst() {
        let registry = KeyRegistry::generate(3, 1);
        let mut bob = gossip_for(&registry, 1, 3);
        let blocks: Vec<Block> = (0..12).map(|t| bob.disseminate(vec![], t).0).collect();
        let deliveries: Vec<(Block, TimeMs)> = blocks
            .iter()
            .rev()
            .enumerate()
            .map(|(i, b)| (b.clone(), i as TimeMs))
            .collect();
        assert_engines_agree(&deliveries, 3, 1);
    }

    #[test]
    fn engines_agree_on_equivocation_with_invalid_children() {
        let registry = KeyRegistry::generate(3, 1);
        let signer1 = registry.signer(ServerId::new(1)).unwrap();
        // Equivocating genesis pair…
        let g_a = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signer1);
        let g_b = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &signer1,
        );
        // …an invalid child referencing both parents…
        let two_parents = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![g_a.block_ref(), g_b.block_ref()],
            vec![],
            &signer1,
        );
        // …and a grandchild of the invalid block: can never promote, keeps
        // FWD-ing the rejected ref.
        let grandchild = Block::build(
            ServerId::new(1),
            SeqNum::new(2),
            vec![two_parents.block_ref()],
            vec![],
            &signer1,
        );
        // Forged signature on a valid-shaped block, delivered out of order.
        let forged = Block::build_with_signature(
            ServerId::new(2),
            SeqNum::ZERO,
            vec![],
            vec![],
            dagbft_crypto::Signature::NULL,
        );
        let deliveries: Vec<(Block, TimeMs)> = [
            (grandchild, 0),
            (two_parents, 1),
            (forged, 2),
            (g_b, 3),
            (g_a, 4),
        ]
        .into_iter()
        .collect();
        assert_engines_agree(&deliveries, 3, 1);
    }
}
