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
//!    blocks are settled smallest key first, the key being
//!    `(builder is deprioritized, ref(B))` — a builder with a proven
//!    equivocation admits after every honest ready block, and with the
//!    defense disabled the order is plain `ref` order, the order the
//!    paper-literal rescan (the oracle in [`crate::reference`])
//!    produces. Settling a valid block inserts it, references it from the
//!    current block, and wakes its waiters, which join the ready set.
//! 3. **Batch-verify the unverified ready set.** Whenever the front of
//!    the ready set has no signature verdict yet, every not-yet-verified
//!    ready block is checked in one [`BatchVerifier`] pass — a *wave* —
//!    over the cached `ref(B)` digests (the paper's batch-signature
//!    economics, §4). Verdicts are a pure per-block function of cached
//!    bytes, so computing them early cannot change a promotion decision;
//!    each ready block is verified exactly once.
//!
//! A multi-message call indexes everything before it promotes anything,
//! so its waves are as wide as the whole call's ready set, and `FWD`
//! requests inside it are answered from the DAG as it stood when the call
//! began. The admitted set, the rejections and the verification count do
//! not depend on how a schedule is cut into calls (the promotion fixed
//! point is confluent); the order in which the current block references
//! newly admitted blocks, and `FWD` traffic for gaps closed within one
//! call, do.
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
use dagbft_crypto::{BatchVerifier, ServerId, SignedDigest, Signer, Verifier};

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
    /// Minimum time between repeated `FWD` requests for the same block
    /// (the paper's per-block wait `Δ_B'`, informed by the round-trip time).
    pub fwd_retry_ms: TimeMs,
    /// Maximum number of buffered, not-yet-valid blocks; exceeding it
    /// triggers deterministic eviction (see the module docs).
    pub pending_cap: usize,
    /// The adversarial peer-defense engine (scoring, rate limits, bans;
    /// disabled by default — see [`crate::defense`]).
    pub defense: DefenseConfig,
}

impl GossipConfig {
    /// Configuration for `n` servers with the default 100 ms `FWD` retry.
    pub fn for_n(n: usize) -> Self {
        GossipConfig {
            n,
            fwd_retry_ms: 100,
            pending_cap: DEFAULT_PENDING_CAP,
            defense: DefenseConfig::default(),
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
}

/// Eviction rank of a pending block known never-promotable (references a
/// rejected block, transitively) — evicted first.
const RANK_STRANDED: u8 = 0;
/// Eviction rank of a block claiming a deprioritized (caught-equivocating)
/// builder — evicted before honest backlog.
const RANK_DEPRIORITIZED: u8 = 1;
/// Eviction rank of an ordinary pending block — evicted last, oldest first.
const RANK_NORMAL: u8 = 2;

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
    /// The block's current eviction-queue rank ([`RANK_STRANDED`] /
    /// [`RANK_DEPRIORITIZED`] / [`RANK_NORMAL`]). Every re-rank updates
    /// this together with the queue, so the queue key can always be
    /// reconstructed exactly.
    rank: u8,
}

/// Position of a ready block in the promotion order: blocks of
/// deprioritized builders last, then by reference. The flag is evaluated
/// when the block becomes ready.
type ReadyKey = (bool, BlockRef);

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

/// Counters for wave-batched verification and multi-message ingest.
///
/// Deliberately *not* part of [`GossipStats`]: that struct is asserted
/// equal to the paper-literal oracle's by the equivalence tests, and
/// waves are an implementation property of batched verification, not an
/// observable of Algorithm 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Verification waves batched so far.
    pub waves: u64,
    /// Blocks signature-checked through batched waves.
    pub batched_blocks: u64,
    /// Size of the largest wave.
    pub largest_wave: usize,
    /// Size of the smallest wave (0 until the first wave is recorded).
    pub smallest_wave: usize,
    /// Multi-message ingest calls processed ([`Gossip::on_messages`],
    /// [`Gossip::on_block_burst`]); a single [`Gossip::on_message`] is
    /// not a burst.
    pub bursts: u64,
    /// Blocks buffered through those calls (received minus duplicates
    /// and blocks rejected on receipt).
    pub burst_blocks: u64,
    /// Wave-width histogram over power-of-two buckets: index `i` counts
    /// waves of width in `[2^i, 2^(i+1))`; the last bucket is open-ended.
    pub width_histogram: [u64; WAVE_WIDTH_BUCKETS],
}

/// Number of log₂ buckets in [`WaveStats::width_histogram`] (widths 1 up
/// to ≥ 2048).
pub const WAVE_WIDTH_BUCKETS: usize = 12;

impl WaveStats {
    fn record(&mut self, wave: usize) {
        debug_assert!(wave > 0, "empty waves are not recorded");
        self.waves += 1;
        self.batched_blocks += wave as u64;
        self.largest_wave = self.largest_wave.max(wave);
        self.smallest_wave = if self.waves == 1 {
            wave
        } else {
            self.smallest_wave.min(wave)
        };
        let bucket = (wave.ilog2() as usize).min(WAVE_WIDTH_BUCKETS - 1);
        self.width_histogram[bucket] += 1;
    }

    /// Mean wave width (0.0 before the first wave).
    pub fn mean_wave(&self) -> f64 {
        if self.waves == 0 {
            0.0
        } else {
            self.batched_blocks as f64 / self.waves as f64
        }
    }

    /// Folds another instance's counters into this one — how the
    /// simulator aggregates per-server wave statistics into a
    /// whole-deployment view.
    pub fn merge(&mut self, other: &WaveStats) {
        self.smallest_wave = match (self.waves, other.waves) {
            (_, 0) => self.smallest_wave,
            (0, _) => other.smallest_wave,
            _ => self.smallest_wave.min(other.smallest_wave),
        };
        self.waves += other.waves;
        self.batched_blocks += other.batched_blocks;
        self.largest_wave = self.largest_wave.max(other.largest_wave);
        self.bursts += other.bursts;
        self.burst_blocks += other.burst_blocks;
        for (mine, theirs) in self.width_histogram.iter_mut().zip(other.width_histogram) {
            *mine += theirs;
        }
    }
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
    /// Blocks rejected as permanently invalid, with the reason — kept for
    /// auditing (the paper notes accountability as an extension, §6).
    rejected: Vec<(BlockRef, InvalidBlockError)>,
    /// References known to be permanently un-admittable: rejected blocks
    /// plus, transitively, every buffered block that references one — the
    /// "never promotable" predicate the eviction policy sorts by.
    stranded_refs: BTreeSet<BlockRef>,
    stats: GossipStats,
    /// Verifies each wave of ready blocks in one pass.
    batch_verifier: BatchVerifier,
    wave_stats: WaveStats,
    /// Receipt ordinal source for [`PendingBlock::arrival`].
    arrivals: u64,
    /// Eviction order over the pending buffer:
    /// `(rank, arrival, ref)` — known-stranded blocks (a rejected
    /// predecessor) sort first, then blocks of deprioritized builders,
    /// then oldest arrival. Kept in lockstep with `pending` so enforcing
    /// the cap is O(log) per block.
    eviction_queue: BTreeSet<(u8, u64, BlockRef)>,
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
            rejected: Vec::new(),
            stranded_refs: BTreeSet::new(),
            stats: GossipStats::default(),
            batch_verifier: verifier.batch(),
            wave_stats: WaveStats::default(),
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
        // provable from it now, so convicted builders stay deprioritized
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

    /// Wave-batched verification and multi-message ingest counters.
    pub fn wave_stats(&self) -> &WaveStats {
        &self.wave_stats
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

    /// Reports `count` malformed frames from `peer` (fed by the
    /// transport's decode-error counters — a wire-level offense the
    /// gossip layer cannot observe itself).
    pub fn note_malformed_frames(&mut self, peer: ServerId, count: u64, now: TimeMs) {
        self.clock = self.clock.max(now);
        if peer == self.me {
            return;
        }
        for _ in 0..count {
            self.defense
                .note_offense(peer, Offense::MalformedFrame, now);
        }
    }

    /// Sequence number the next disseminated block will carry.
    pub fn next_seq(&self) -> SeqNum {
        self.next_seq
    }

    /// Handles a message from `from`, returning transport commands
    /// (block handling: lines 4–13 of Algorithm 1).
    pub fn on_message(
        &mut self,
        from: ServerId,
        message: NetMessage,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        self.ingest(std::iter::once((from, message)), now)
    }

    /// Handles a batch of messages in one admission pass: everything is
    /// indexed in arrival order, `FWD` requests are answered from the DAG
    /// as it stood when the call began, then one cascade promotes the
    /// whole batch's ready set (see the module docs). Counted as one
    /// burst in [`WaveStats`] and the crypto metrics.
    pub fn on_messages(
        &mut self,
        messages: impl IntoIterator<Item = (ServerId, NetMessage)>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let (arrivals, verified) = (self.arrivals, self.wave_stats.batched_blocks);
        let commands = self.ingest(messages, now);
        self.wave_stats.bursts += 1;
        self.wave_stats.burst_blocks += self.arrivals - arrivals;
        self.batch_verifier
            .note_burst(self.wave_stats.batched_blocks - verified);
        commands
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

    /// The one ingest body: index every message in arrival order, then
    /// one cascade over the ready set, cap enforcement and due `FWD`
    /// requests.
    fn ingest(
        &mut self,
        messages: impl IntoIterator<Item = (ServerId, NetMessage)>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        self.clock = self.clock.max(now);
        let arrivals = self.arrivals;
        let mut commands = Vec::new();
        let mut ready: BTreeSet<ReadyKey> = BTreeSet::new();
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
        // eviction, and `FWD` retries stay on the tick's schedule — a
        // duplicate flood buys no promotion work.
        if self.arrivals == arrivals {
            return commands;
        }
        self.promote_cascade(ready);
        self.enforce_pending_cap();
        self.enforce_deprioritized_allowance();
        commands.extend(self.collect_fwd_commands(now));
        commands
    }

    /// Gates, counts, dedups and indexes one received block; returns its
    /// promotion key if it is ready.
    fn receive_block(&mut self, from: ServerId, block: Block, now: TimeMs) -> Option<ReadyKey> {
        if from != self.me {
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
            self.penalize(from, Offense::DuplicateFlood);
            return None;
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
            .then(|| self.ready_key(builder, block_ref))
    }

    /// The promotion key of a block of `builder` that just became ready.
    fn ready_key(&self, builder: ServerId, block_ref: BlockRef) -> ReadyKey {
        (self.defense.is_deprioritized(builder), block_ref)
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

    /// Periodic timer: re-issues `FWD` requests whose retry interval has
    /// elapsed.
    pub fn on_tick(&mut self, now: TimeMs) -> Vec<NetCommand> {
        self.clock = self.clock.max(now);
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
        // pending (indexed below) or about to be promoted.
        self.missing.remove(&block_ref);
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
        let rank = if stranded {
            RANK_STRANDED
        } else if self.defense.is_deprioritized(block.builder()) {
            RANK_DEPRIORITIZED
        } else {
            RANK_NORMAL
        };
        self.eviction_queue.insert((rank, arrival, block_ref));
        self.pending.insert(
            block_ref,
            PendingBlock {
                block,
                from,
                missing,
                arrival,
                stranded,
                rank,
            },
        );
        self.stats.pending_peak = self.stats.pending_peak.max(self.pending.len());
        if stranded {
            // Publish the doom (later arrivals citing this block strand
            // at insertion) and re-rank earlier-arrived waiters, which
            // are doomed too.
            self.mark_never_promotable(block_ref);
        }
        ready
    }

    /// Removes a block from the pending buffer and the eviction queue
    /// (the stored `rank` reconstructs the queue key exactly).
    fn take_pending(&mut self, block_ref: &BlockRef) -> PendingBlock {
        let entry = self.pending.remove(block_ref).expect("block pending");
        let removed = self
            .eviction_queue
            .remove(&(entry.rank, entry.arrival, *block_ref));
        debug_assert!(removed, "eviction queue mirrors pending");
        entry
    }

    /// The one promotion loop (lines 6–9): settles `ready` and every
    /// pending block its admissions unblock, always taking the smallest
    /// [`ReadyKey`] first. A front without a signature verdict triggers
    /// one verification wave over the whole unverified ready set.
    fn promote_cascade(&mut self, mut ready: BTreeSet<ReadyKey>) {
        let mut verdicts: BTreeMap<BlockRef, bool> = BTreeMap::new();
        while let Some((_, block_ref)) = ready.pop_first() {
            let verdict = match verdicts.remove(&block_ref) {
                Some(verdict) => verdict,
                None => self.verify_wave(block_ref, &ready, &mut verdicts),
            };
            let entry = self.take_pending(&block_ref);
            self.settle_ready(block_ref, entry, verdict, &mut ready);
        }
    }

    /// Batch-verifies the signatures of `front` and of every ready block
    /// that has no verdict yet — one wave, one `BatchVerifier` pass.
    /// Returns `front`'s verdict and files the others under `verdicts`.
    fn verify_wave(
        &mut self,
        front: BlockRef,
        ready: &BTreeSet<ReadyKey>,
        verdicts: &mut BTreeMap<BlockRef, bool>,
    ) -> bool {
        let wave: Vec<BlockRef> = std::iter::once(front)
            .chain(ready.iter().map(|(_, block_ref)| *block_ref))
            .filter(|block_ref| !verdicts.contains_key(block_ref))
            .collect();
        let items: Vec<SignedDigest> = wave
            .iter()
            .map(|block_ref| self.pending[block_ref].block.signed_digest())
            .collect();
        self.wave_stats.record(items.len());
        let mut results = self.batch_verifier.verify_batch(&items).into_iter();
        let front_verdict = results.next().expect("one verdict per item");
        verdicts.extend(wave.into_iter().skip(1).zip(results));
        front_verdict
    }

    /// Applies Definition 3.3 to one ready block — (i) its signature
    /// verdict, (ii) genesis or exactly one parent; (iii) holds because
    /// all its preds are in the DAG and only valid blocks enter it — then
    /// inserts and references it, or rejects it. Blocks whose last missing
    /// dependency this settles join `ready`.
    fn settle_ready(
        &mut self,
        block_ref: BlockRef,
        entry: PendingBlock,
        signature_ok: bool,
        ready: &mut BTreeSet<ReadyKey>,
    ) {
        let PendingBlock { block, from, .. } = entry;
        let (builder, seq) = (block.builder(), block.seq());
        let checked = if signature_ok {
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
        self.missing.remove(&block_ref);
        // Wake the waiters: drop the satisfied dependency and queue any
        // block that just became fully satisfied.
        for waiter in self.waiters.remove(&block_ref).unwrap_or_default() {
            if let Some(pending) = self.pending.get_mut(&waiter) {
                pending.missing.remove(&block_ref);
                if pending.missing.is_empty() {
                    let builder = pending.block.builder();
                    ready.insert(self.ready_key(builder, waiter));
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
        self.missing.remove(&block_ref);
        self.relist_missing(block_ref);
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
        pending.stranded = true;
        let arrival = pending.arrival;
        let old_rank = pending.rank;
        pending.rank = RANK_STRANDED;
        self.eviction_queue.remove(&(old_rank, arrival, block_ref));
        self.eviction_queue
            .insert((RANK_STRANDED, arrival, block_ref));
        self.stranded_refs.insert(block_ref);
        true
    }

    /// Re-ranks every normally ranked pending block of a freshly
    /// deprioritized builder to [`RANK_DEPRIORITIZED`] — called once, on
    /// the builder's first proven equivocation, so the eviction queue and
    /// the stored ranks stay exact under mid-life transitions.
    fn requeue_builder(&mut self, builder: ServerId) {
        for (block_ref, pending) in &mut self.pending {
            if pending.rank == RANK_NORMAL && pending.block.builder() == builder {
                self.eviction_queue
                    .remove(&(RANK_NORMAL, pending.arrival, *block_ref));
                self.eviction_queue
                    .insert((RANK_DEPRIORITIZED, pending.arrival, *block_ref));
                pending.rank = RANK_DEPRIORITIZED;
            }
        }
    }

    /// Post-admission equivocation check: if `builder` now has more than
    /// one block at `seq`, that is a proof of equivocation (Figure 3) —
    /// charge the durable offense and, on the first conviction, re-rank
    /// the builder's buffered blocks.
    fn note_admitted(&mut self, builder: ServerId, seq: SeqNum) {
        if !self.defense.is_enabled() || builder == self.me {
            return;
        }
        if self.dag.blocks_at(builder, seq).len() > 1 {
            let first_conviction = !self.defense.is_deprioritized(builder);
            self.penalize(builder, Offense::Equivocation);
            if first_conviction {
                self.requeue_builder(builder);
            }
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

    /// Shrinks the pending footprint of deprioritized (caught
    /// equivocating) builders to
    /// [`DefenseConfig::deprioritized_allowance`] slots each, evicting
    /// oldest-first — a convicted flooder cannot hold honest blocks'
    /// buffer space hostage while it waits out its ban.
    fn enforce_deprioritized_allowance(&mut self) {
        if !self.defense.is_enabled() || !self.defense.any_deprioritized() {
            return;
        }
        let allowance = self.defense.config().deprioritized_allowance;
        let mut per_builder: BTreeMap<ServerId, Vec<(u64, BlockRef)>> = BTreeMap::new();
        for (block_ref, pending) in &self.pending {
            let builder = pending.block.builder();
            if self.defense.is_deprioritized(builder) {
                per_builder
                    .entry(builder)
                    .or_default()
                    .push((pending.arrival, *block_ref));
            }
        }
        for (_, mut entries) in per_builder {
            if entries.len() <= allowance {
                continue;
            }
            entries.sort_unstable();
            let excess = entries.len() - allowance;
            for (_, victim) in entries.into_iter().take(excess) {
                self.evict_pending(victim);
            }
        }
    }

    /// Evicts one pending block: un-indexes it, logs the accountability
    /// event, and re-lists its reference as missing for any surviving
    /// waiters so the `FWD` path can re-fetch it.
    fn evict_pending(&mut self, victim: BlockRef) {
        let entry = self.take_pending(&victim);
        self.stats.blocks_evicted += 1;
        // Charged to the deliverer, not the claimed builder: unverified
        // junk naming an honest builder must not damage that builder's
        // standing (the signature was never checked).
        self.penalize(entry.from, Offense::Eviction);
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
                    self.missing.remove(pred);
                }
            }
        }
        // The victim counts as never-received again (same shape as the
        // rejected-block path, minus the permanence).
        self.relist_missing(victim);
    }

    /// Emits `FWD` requests for missing blocks, respecting the retry timer.
    fn collect_fwd_commands(&mut self, now: TimeMs) -> Vec<NetCommand> {
        let retry = self.config.fwd_retry_ms;
        let mut commands = Vec::new();
        for (block_ref, state) in self.missing.iter_mut() {
            let due = match state.last_sent {
                None => true,
                Some(last) => now.saturating_sub(last) >= retry,
            };
            if !due || state.candidates.is_empty() {
                continue;
            }
            // Ask the builder of a block that referenced it (line 11);
            // rotate through candidates on retries.
            let candidates: Vec<ServerId> = state.candidates.iter().copied().collect();
            let target = candidates[state.attempts as usize % candidates.len()];
            state.last_sent = Some(now);
            state.attempts += 1;
            self.stats.fwd_sent += 1;
            commands.push(NetCommand::SendTo {
                to: target,
                message: NetMessage::FwdRequest(*block_ref),
            });
        }
        commands
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
        // Too early: no retry.
        assert!(alice.on_tick(50).is_empty());
        // After the interval: retried.
        let retried = alice.on_tick(100);
        assert_eq!(retried.len(), 1);
        assert_eq!(alice.stats().fwd_sent, 2);
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
        let mut reference = ReferenceGossip::new(n, reference_registry.verifier());
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
        // Every signature the engine checks goes through a batched wave:
        // one per promoted or rejected-after-verification block.
        let stats = engine.stats();
        assert!(engine.wave_stats().batched_blocks >= stats.blocks_validated);
        assert!(
            engine.wave_stats().batched_blocks <= stats.blocks_validated + stats.invalid_blocks
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
    fn burst_widens_waves_past_per_message_ingest() {
        // An in-order 4-builder soup: per-message ingest promotes each
        // block alone (waves of 1); one multi-message call promotes whole
        // rounds (waves of 4).
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
        assert_eq!(per_message.wave_stats().largest_wave, 1);
        let mut bursty = gossip_for(&registry, 0, 5);
        bursty.on_block_burst(blocks.iter().cloned(), 0);
        assert_eq!(bursty.dag().len(), blocks.len());
        assert_eq!(bursty.wave_stats().largest_wave, 4);
        assert_eq!(bursty.wave_stats().smallest_wave, 4);
        assert_eq!(bursty.wave_stats().waves, 6);
        assert_eq!(bursty.wave_stats().bursts, 1);
        assert_eq!(bursty.wave_stats().burst_blocks, blocks.len() as u64);
        // Histogram: six waves of width 4 land in the [4, 8) bucket.
        assert_eq!(bursty.wave_stats().width_histogram[2], 6);
        assert!((bursty.wave_stats().mean_wave() - 4.0).abs() < f64::EPSILON);
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
    fn convicted_builder_admits_last() {
        // With the defense on, a ready set holding a convicted builder's
        // block and an honest one promotes the honest block first even
        // though the convict's reference is the smaller — in a
        // multi-message call and in a per-message cascade alike.
        let registry = KeyRegistry::generate(3, 1);
        let (convict_id, honest_id) = (ServerId::new(1), ServerId::new(2));
        let convict_signer = registry.signer(convict_id).unwrap();
        let honest_signer = registry.signer(honest_id).unwrap();
        let g_a = Block::build(convict_id, SeqNum::ZERO, vec![], vec![], &convict_signer);
        let g_b = Block::build(
            convict_id,
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(crate::Label::new(1), &9u8)],
            &convict_signer,
        );
        let honest_genesis = Block::build(honest_id, SeqNum::ZERO, vec![], vec![], &honest_signer);
        let honest_child = Block::build(
            honest_id,
            SeqNum::new(1),
            vec![honest_genesis.block_ref()],
            vec![],
            &honest_signer,
        );
        // Both children wait on the honest genesis; the nonce is searched
        // until the convict's reference sorts first.
        let convict_child = (0u64..)
            .map(|nonce| {
                Block::build(
                    convict_id,
                    SeqNum::new(1),
                    vec![g_a.block_ref(), honest_genesis.block_ref()],
                    vec![LabeledRequest::encode(crate::Label::new(7), &nonce)],
                    &convict_signer,
                )
            })
            .find(|block| block.block_ref() < honest_child.block_ref())
            .unwrap();
        for batched in [false, true] {
            let mut alice = Gossip::new(
                ServerId::new(0),
                GossipConfig::for_n(3).with_defense(DefenseConfig::enabled()),
                registry.signer(ServerId::new(0)).unwrap(),
                registry.verifier(),
            );
            alice.on_block(g_a.clone(), 0);
            alice.on_block(g_b.clone(), 0);
            assert!(alice.defense().is_deprioritized(convict_id));
            if batched {
                // One call whose ready set holds both children.
                alice.on_block(honest_genesis.clone(), 1);
                alice.on_block_burst([convict_child.clone(), honest_child.clone()], 2);
            } else {
                // One delivery whose cascade unlocks both children.
                alice.on_block(convict_child.clone(), 1);
                alice.on_block(honest_child.clone(), 1);
                alice.on_block(honest_genesis.clone(), 2);
            }
            let order: Vec<BlockRef> = alice.dag().refs().copied().collect();
            assert_eq!(
                order[order.len() - 2..],
                [honest_child.block_ref(), convict_child.block_ref()],
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
        let waves_before = alice.wave_stats().waves;
        alice.on_block_burst(std::iter::repeat_n(b0.clone(), 64), 1);
        assert_eq!(alice.stats().duplicate_blocks, 64);
        assert_eq!(alice.wave_stats().waves, waves_before);
        assert_eq!(alice.wave_stats().bursts, 1);
        assert_eq!(alice.wave_stats().burst_blocks, 0);
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
