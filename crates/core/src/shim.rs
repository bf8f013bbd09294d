//! The shim — Algorithm 3 of the paper.
//!
//! `shim(P)` choreographs the external user of `P`, the [`crate::gossip`]
//! protocol and the [`crate::interpret`] protocol:
//!
//! * `request(ℓ, r)` buffers the request (lines 6–7); the next
//!   `disseminate()` writes buffered requests into the current block
//!   (Algorithm 1, line 15), and interpretation eventually feeds them to
//!   `P` (Lemma A.17);
//! * indications raised by the interpretation *for this server* are
//!   forwarded to the user (lines 8–9, Lemma A.18);
//! * `disseminate()` is requested repeatedly (lines 10–11) — here by the
//!   shim's own clock, on its seal grid ([`Shim::wake`]); the driver
//!   (simulator or event loop) only calls it at [`Shim::next_wake`]. A
//!   slot seals only when it has something to say: a buffered request, a
//!   message for this server in a block the next one cites, or a
//!   heartbeat about every [`HEARTBEAT_MS`]. A block with none of these
//!   touches no instance, so leaving it out changes no indication.
//!
//! Theorem 5.1: with these pieces, `shim(P)` implements `P`'s interface and
//! preserves every property of `P` whose proof relies on the reliable
//! point-to-point link abstraction.
//!
//! The paper runs `gossip` and `interpret` as concurrent processes; this
//! implementation steps the interpreter after every DAG change. The two are
//! equivalent: interpretation is a deterministic function of the DAG alone
//! (Lemma 4.2), so scheduling cannot change any outcome — only *when* it
//! becomes observable.

use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;

use dagbft_crypto::{KeyRegistry, ServerId};

use crate::block::{BlockRef, LabeledRequest};
use crate::dag::BlockDag;
use crate::defense::DefenseConfig;
use crate::gossip::{Gossip, GossipConfig, NetCommand, NetMessage};
use crate::interpret::{Indication, Interpreter, InterpreterFootprint, SnapshotError};
use crate::label::Label;
use crate::protocol::{DeterministicProtocol, ProtocolConfig};
use crate::schedule::Schedule;
use crate::store::{BlockStore, RecoverError, RecoveryReport, StoreContents, StoreError};
use crate::TimeMs;

/// Most messages in one [`Shim::on_message_burst`] call. The ingest rule
/// of every driver: a server takes one delivered message plus whatever is
/// already waiting behind it, up to this many, in one call — the node
/// from its channel, the simulator from the same-instant deliveries to the
/// same server. Nothing beyond the cap is dropped; it waits for the next
/// run. The cap bounds the latency a run adds under sustained load.
pub const INGEST_BURST_CAP: usize = 1024;

/// How often, in milliseconds, a server seals even with nothing to say:
/// slot `k` of [`Schedule::slot`] is a heartbeat slot when
/// `k % max(1, HEARTBEAT_MS / period) == 0` — every 8th slot at the
/// default 50 ms, every slot at a period of 400 ms or more — so the idle
/// cadence is a time, not a slot count. A block lost on the way to some
/// peer is cited, and so asked for with `FWD`, only once another block
/// cites it; the heartbeat bounds that wait on an idle cluster, which is
/// the eventual citation the liveness of Theorem 5.1 needs under loss.
pub const HEARTBEAT_MS: TimeMs = 400;

/// Most buffered requests one block carries (`rqsts.get()` returns "a
/// suitable number", Algorithm 3); the rest wait for the next seal.
pub const MAX_REQUESTS_PER_BLOCK: usize = 1024;

/// Why the slots a shim was woken in sealed a block, or did not
/// ([`Shim::seal_stats`]). Each slot counts once, under the first reason
/// that holds, in field order; a slot with none is idle. The counts are
/// volatile: a restarted shim starts from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealStats {
    /// Slots that sealed because requests were buffered.
    pub for_requests: u64,
    /// Slots that sealed because a block the new one cites holds a
    /// message for this server.
    pub for_messages: u64,
    /// Slots that sealed only because they were heartbeat slots
    /// ([`HEARTBEAT_MS`]).
    pub heartbeats: u64,
    /// Slots that sealed nothing.
    pub idle_slots: u64,
}

impl SealStats {
    /// Every slot the shim was woken in: seals plus idle slots.
    pub fn slots(&self) -> u64 {
        self.seals() + self.idle_slots
    }

    /// Slots that sealed a block (or would have, with a failed store).
    pub fn seals(&self) -> u64 {
        self.for_requests + self.for_messages + self.heartbeats
    }
}

/// Configuration for a [`Shim`] server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShimConfig {
    /// The embedded protocol's configuration (server count, fault bound).
    pub protocol: ProtocolConfig,
    /// Bound on gossip's pending buffer (see
    /// [`GossipConfig::pending_cap`]).
    pub pending_cap: usize,
    /// The adversarial peer-defense engine (see [`crate::defense`];
    /// disabled by default).
    pub defense: DefenseConfig,
    /// Interval between own seals, on [`Schedule::for_server`]'s grid (0
    /// is taken as 1 ms): the pacing that meets `P`'s network assumptions.
    /// It is also the first and the longest wait of a `FWD` request for
    /// its answer before it is sent again: once a request has gone a whole
    /// period unanswered, the wait shrinks to a round-trip timeout learned
    /// from answered requests ([`GossipConfig::seal_period_ms`]).
    pub disseminate_every_ms: TimeMs,
}

impl ShimConfig {
    /// Creates a configuration with default pacing parameters.
    pub fn new(protocol: ProtocolConfig) -> Self {
        ShimConfig {
            protocol,
            pending_cap: crate::gossip::DEFAULT_PENDING_CAP,
            defense: DefenseConfig::default(),
            disseminate_every_ms: 50,
        }
    }

    /// Sets the interval between own seals.
    pub fn with_disseminate_every_ms(mut self, period: TimeMs) -> Self {
        self.disseminate_every_ms = period;
        self
    }

    /// Bounds gossip's pending buffer (deterministic eviction past the
    /// cap; see the gossip module docs).
    pub fn with_pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap.max(1);
        self
    }

    /// Configures the peer-defense engine (scored admission, rate
    /// limits, time-decaying bans; see [`crate::defense`]).
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = defense;
        self
    }

    fn gossip(&self) -> GossipConfig {
        GossipConfig {
            n: self.protocol.n,
            pending_cap: self.pending_cap,
            defense: self.defense,
            seal_period_ms: self.disseminate_every_ms.max(1),
        }
    }
}

/// Error constructing a shim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupError {
    /// The server identity has no key in the registry.
    UnknownServer {
        /// The identity without key material.
        server: ServerId,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::UnknownServer { server } => {
                write!(f, "no signing key for server {server}")
            }
        }
    }
}

impl Error for SetupError {}

/// The [`BlockStore`] a durable shim was born from, plus the shim's
/// bookkeeping around it: how much of the DAG's insertion order has been
/// journaled, and the snapshot cadence.
#[derive(Debug)]
struct StoreBinding {
    store: Box<dyn BlockStore>,
    /// Prefix of the DAG's insertion order already appended to the store.
    synced_blocks: usize,
    /// Snapshot cadence in blocks, once [`Shim::enable_snapshots`] set it.
    snapshot_every: Option<u64>,
    /// Interpreted-block count at the last snapshot.
    last_snapshot_at: u64,
}

/// A complete block DAG server: `shim(P)` running as one member of `Srvrs`.
///
/// Drive it by delivering runs of network messages
/// ([`Shim::on_message_burst`]) and
/// waking it at [`Shim::next_wake`] ([`Shim::wake`]); it returns
/// [`NetCommand`]s for the transport. See the crate-level docs for a
/// runnable example.
///
/// A shim is either *volatile* ([`Shim::new`]: nothing outlives the
/// process) or *durable*, and a durable shim has one way into existence:
/// from its [`BlockStore`] ([`Shim::recover_from_store`]), whether the
/// store is empty (a fresh start, the same state `Shim::new` yields),
/// holds a journal, or a journal plus a snapshot. A crash is "everything
/// except the store is gone"; the restart is the same call again.
#[derive(Debug)]
pub struct Shim<P: DeterministicProtocol> {
    me: ServerId,
    config: ShimConfig,
    gossip: Gossip,
    interpreter: Interpreter<P>,
    /// The `rqsts` buffer shared between shim and gossip (Algorithm 3,
    /// line 2; ownership replaces sharing in this implementation).
    rqsts: VecDeque<LabeledRequest>,
    /// Indications raised since the last poll, for every simulated server.
    /// [`Shim::poll_indications`] hands out `me`'s (Algorithm 3 line 8
    /// requires `s' = s`), [`Shim::poll_raised`] all of them, for audits;
    /// either poll empties it.
    raised: Vec<Indication<P::Indication>>,
    /// Durable storage of a durable shim: every admitted block, buffered
    /// request, and periodic snapshot is journaled through it.
    store: Option<StoreBinding>,
    /// The write failure that detached the store. Storage must never
    /// panic or wedge consensus, so the server keeps admitting,
    /// interpreting and answering `FWD` — but it seals no further own
    /// block ([`Shim::disseminate`]): one it could not make durable
    /// first is one a restart would sign again.
    store_error: Option<StoreError>,
    /// The seal timer, armed by the first [`Shim::wake`].
    seal: Schedule,
    /// Why each slot woken so far sealed, or did not.
    seal_stats: SealStats,
}

impl<P: DeterministicProtocol> Shim<P> {
    /// Creates the volatile shim for server `me`.
    ///
    /// # Errors
    ///
    /// [`SetupError::UnknownServer`] if `registry` has no key for `me`.
    pub fn new(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
    ) -> Result<Self, SetupError> {
        let interpreter = Interpreter::new(config.protocol);
        Self::assemble(me, config, registry, BlockDag::new(), interpreter)
    }

    /// The one place a shim is put together, as a volatile one: gossip
    /// resumes the own chain over `dag` ([`Gossip::resume`]; over an empty
    /// DAG that is `Gossip::new`), and `interpreter` replays whatever part
    /// of `dag` it has not covered.
    fn assemble(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        dag: BlockDag,
        interpreter: Interpreter<P>,
    ) -> Result<Self, SetupError> {
        let signer = registry
            .signer(me)
            .ok_or(SetupError::UnknownServer { server: me })?;
        let mut shim = Shim {
            me,
            config,
            gossip: Gossip::resume(me, config.gossip(), signer, registry.verifier(), dag),
            interpreter,
            rqsts: VecDeque::new(),
            raised: Vec::new(),
            store: None,
            store_error: None,
            seal: Schedule::for_server(me, config.protocol.n, config.disseminate_every_ms),
            seal_stats: SealStats::default(),
        };
        shim.run_interpretation();
        Ok(shim)
    }

    /// The server this shim runs as.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// Read access to the local DAG.
    pub fn dag(&self) -> &BlockDag {
        self.gossip.dag()
    }

    /// Read access to the gossip layer (stats, pending buffer).
    pub fn gossip(&self) -> &Gossip {
        &self.gossip
    }

    /// Read access to the interpreter (per-block states, stats).
    pub fn interpreter(&self) -> &Interpreter<P> {
        &self.interpreter
    }

    /// The interpreter's memory footprint — total vs unique instances
    /// (the saving over clone-per-block) and out-envelopes. See
    /// [`Interpreter::footprint`].
    pub fn footprint(&self) -> InterpreterFootprint {
        self.interpreter.footprint()
    }

    /// `request(ℓ, r)`: buffer a user request for instance `ℓ`
    /// (Algorithm 3, lines 6–7).
    ///
    /// A durable shim also journals the request (write-ahead): recovery
    /// re-buffers every journaled request not yet sealed into an own
    /// block, so accepted-but-unsealed requests survive a crash.
    pub fn request(&mut self, label: Label, request: P::Request) {
        let labeled = LabeledRequest::encode(label, &request);
        self.journal(|_, binding| binding.store.append_request(&labeled));
        self.rqsts.push_back(labeled);
    }

    /// Number of buffered requests not yet written into a block.
    pub fn pending_requests(&self) -> usize {
        self.rqsts.len()
    }

    /// Delivers a run of network messages in one admission pass
    /// ([`Gossip::on_messages`]): blocks are indexed first and promoted
    /// in one cascade, `FWD` requests are answered from the DAG as it
    /// stood when the run began, and interpretation steps once for the
    /// whole run instead of once per message. Every driver ingests
    /// through here, by the rule of [`INGEST_BURST_CAP`].
    pub fn on_message_burst(
        &mut self,
        messages: impl IntoIterator<Item = (ServerId, NetMessage)>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let commands = self.gossip.on_messages(messages, now);
        self.run_interpretation();
        commands
    }

    /// The `FWD` retry sweep ([`Gossip::on_tick`]): sends again every
    /// request whose retry wait is over (at most one seal period).
    pub fn on_tick(&mut self, now: TimeMs) -> Vec<NetCommand> {
        self.gossip.on_tick(now)
    }

    /// Runs the slot when it is due at `now` ([`Schedule::fire`]): first
    /// the `FWD` retry sweep ([`Shim::on_tick`]), then
    /// [`Shim::disseminate`] if the slot has something to say. It seals
    /// when requests are buffered, when a block in the current preds other
    /// than the own parent holds an out-buffer entry addressed to this
    /// server, or on a heartbeat slot ([`HEARTBEAT_MS`]); otherwise the
    /// slot is idle, and the next own block cites what this one would
    /// have. The choice is a function of the DAG, the buffered requests
    /// and the slot index alone, so a server reborn from its journal
    /// chooses as its lost life would have. [`Shim::seal_stats`] counts
    /// the choices.
    ///
    /// The first wake arms the grid; a wake before [`Shim::next_wake`]
    /// does nothing. A request is therefore sent again at the first slot
    /// or the first ingest that buffers a block once its retry wait is
    /// over — one round-trip timeout, at most one period — and before that
    /// slot's block, if it seals one.
    pub fn wake(&mut self, now: TimeMs) -> Vec<NetCommand> {
        if !self.seal.fire(now) {
            return Vec::new();
        }
        let mut commands = self.on_tick(now);
        let requests = !self.rqsts.is_empty();
        let messages = !requests && self.messages_waiting();
        let heartbeat_slots = (HEARTBEAT_MS / self.config.disseminate_every_ms.max(1)).max(1);
        let heartbeat = self.seal.slot(now).is_multiple_of(heartbeat_slots);
        let stats = &mut self.seal_stats;
        if requests {
            stats.for_requests += 1;
        } else if messages {
            stats.for_messages += 1;
        } else if heartbeat {
            stats.heartbeats += 1;
        } else {
            stats.idle_slots += 1;
            return commands;
        }
        commands.extend(self.disseminate(now));
        commands
    }

    /// Whether a block the next own block would cite, other than the own
    /// parent, holds a message for this server: the edges that would
    /// drive an instance here. A block by this server carries nothing on
    /// its edges (its messages to itself are delivered where they are
    /// sent), and a block not yet interpreted counts as holding one.
    fn messages_waiting(&self) -> bool {
        let me = self.me;
        let dag = self.gossip.dag();
        self.gossip.current_preds().iter().any(|pred| {
            if dag.get(pred).is_some_and(|block| block.builder() == me) {
                return false;
            }
            self.interpreter
                .state(pred)
                .is_none_or(|state| state.sends_to(me))
        })
    }

    /// Why the slots woken so far sealed, or did not.
    pub fn seal_stats(&self) -> &SealStats {
        &self.seal_stats
    }

    /// When [`Shim::wake`] next has work: the next slot of the seal grid,
    /// whether or not it will seal (0 before the first wake).
    pub fn next_wake(&self) -> TimeMs {
        self.seal.deadline().unwrap_or(0)
    }

    /// Requests `gossip.disseminate()` (Algorithm 3, lines 10–11): seals
    /// the current block with up to [`MAX_REQUESTS_PER_BLOCK`] buffered
    /// requests.
    ///
    /// A durable shim journals the sealed block, syncs the journal, and
    /// durably advances the own-tip marker *before* the broadcast command
    /// is returned — so a crash can never lose an own block that other
    /// servers may already hold (the §7 equivocation caveat; see
    /// [`crate::store::RecoverError::OwnChainTruncated`]). It fails
    /// *closed*: if any of the three writes fails the block is not
    /// broadcast, and once a store error is latched
    /// ([`Shim::store_error`]) nothing further is sealed — the withheld
    /// block reached nobody, so whatever a restart seals at its sequence
    /// number collides with nothing. Restart the server onto healthy
    /// media to resume sealing.
    pub fn disseminate(&mut self, now: TimeMs) -> Vec<NetCommand> {
        if self.store_error.is_some() {
            return Vec::new();
        }
        let take = self.rqsts.len().min(MAX_REQUESTS_PER_BLOCK);
        let requests: Vec<LabeledRequest> = self.rqsts.drain(..take).collect();
        let (block, commands) = self.gossip.disseminate(requests, now);
        let sealed = block.seq();
        self.run_interpretation();
        // Journal sync first, then the own-tip marker: the marker must
        // never get ahead of a durable journal, or recovery would refuse
        // to resume after a crash that lost nothing observable.
        self.journal(|_, binding| {
            binding.store.sync()?;
            binding.store.mark_own_tip(sealed)
        });
        if self.store_error.is_some() {
            return Vec::new();
        }
        commands
    }

    /// Returns indications raised for this server since the last poll
    /// (Algorithm 3, lines 8–9); those raised for the other simulated
    /// servers since then are dropped.
    pub fn poll_indications(&mut self) -> Vec<(Label, P::Indication)> {
        let me = self.me;
        self.raised
            .drain(..)
            .filter(|raised| raised.server == me)
            .map(|raised| (raised.label, raised.indication))
            .collect()
    }

    /// Every indication raised since the last poll, for every simulated
    /// server, with the block that raised it, in the order raised: what
    /// [`Shim::poll_indications`] narrows to `me`'s. Either poll empties
    /// the queue. For audits of Lemma 4.2 across servers.
    pub fn poll_raised(&mut self) -> Vec<Indication<P::Indication>> {
        std::mem::take(&mut self.raised)
    }

    fn run_interpretation(&mut self) {
        self.interpreter.step(self.gossip.dag());
        self.raised.extend(self.interpreter.drain_indications());
        self.journal(Self::journal_admitted);
    }

    /// Runs one `write` against the store of a durable shim (no-op for a
    /// volatile one). The only place a failed store is detached: the
    /// error is latched in `store_error`, which [`Shim::disseminate`]
    /// reads.
    fn journal(&mut self, write: impl FnOnce(&Self, &mut StoreBinding) -> Result<(), StoreError>) {
        let Some(mut binding) = self.store.take() else {
            return;
        };
        match write(self, &mut binding) {
            Ok(()) => self.store = Some(binding),
            Err(err) => self.store_error = Some(err),
        }
    }

    /// Appends DAG blocks admitted since the last call to the store, and
    /// takes a snapshot when the cadence is due. Interpretation runs to a
    /// fixed point before this is called, so a due snapshot always
    /// captures a fully-interpreted DAG.
    fn journal_admitted(&self, binding: &mut StoreBinding) -> Result<(), StoreError> {
        let dag = self.gossip.dag();
        for block_ref in dag.refs().skip(binding.synced_blocks) {
            let block = dag.get(block_ref).expect("ref comes from the dag");
            binding.store.append_block(block)?;
            binding.synced_blocks += 1;
        }
        if let Some(every) = binding.snapshot_every {
            let covered = self.interpreter.interpreted_count() as u64;
            if covered.saturating_sub(binding.last_snapshot_at) >= every {
                // `enable_snapshots` sets a cadence only for a `P` that
                // keeps snapshots, so this always has bytes to write.
                if let Some(snapshot) = self.interpreter.snapshot() {
                    binding.store.append_snapshot(covered, &snapshot)?;
                }
                binding.last_snapshot_at = covered;
            }
        }
        Ok(())
    }

    /// Detaches and returns the store of a durable shim — what a crash
    /// leaves behind. The shim keeps running as a volatile one.
    pub fn detach_store(&mut self) -> Option<Box<dyn BlockStore>> {
        self.store.take().map(|binding| binding.store)
    }

    /// Whether a store is currently attached.
    pub fn store_attached(&self) -> bool {
        self.store.is_some()
    }

    /// The error that detached the store, if a write ever failed.
    pub fn store_error(&self) -> Option<&StoreError> {
        self.store_error.as_ref()
    }

    /// Enables periodic interpreter snapshots through the store of a
    /// durable shim: one snapshot every `every` interpreted blocks, so
    /// recovery ([`Shim::recover_from_store`]) replays only the suffix past
    /// the last snapshot. No-op on a volatile shim and for a `P` that keeps
    /// no snapshots ([`DeterministicProtocol::SNAPSHOTS`]).
    pub fn enable_snapshots(&mut self, every: u64) {
        let covered = self.interpreter.interpreted_count() as u64;
        if let Some(binding) = self.store.as_mut().filter(|_| P::SNAPSHOTS) {
            binding.snapshot_every = Some(every.max(1));
            binding.last_snapshot_at = covered;
        }
    }

    /// Brings a durable server into existence from its store. An empty
    /// store is a fresh start: the result is [`Shim::new`]'s state with
    /// the store attached.
    ///
    /// When `P` keeps snapshots ([`DeterministicProtocol::SNAPSHOTS`]) and
    /// the store holds one, interpreter state is restored from it and only
    /// the journal suffix past it replays; otherwise the whole journal
    /// replays from genesis. The snapshot is validated before use: its
    /// `(n, f)` configuration and covered block set must match the journal
    /// prefix exactly, otherwise a typed error is returned (never a
    /// divergent state). A snapshot in a format version this build does
    /// not read is skipped — recovery replays from genesis and
    /// [`RecoveryReport::snapshot_skipped_version`] says so.
    ///
    /// The journal's blocks are re-inserted in admission order (a
    /// topological order by construction), gossip resumes the own chain
    /// ([`Gossip::resume`]), interpretation replays — a pure function of
    /// the DAG (Lemma 4.2), so the recovered state is the lost one —
    /// journaled-but-unsealed requests are re-buffered, and journaling
    /// continues through the same store.
    ///
    /// Indications raised by the replay are delivered again; an
    /// application persisting its own progress deduplicates them (the
    /// paper's "persist enough information … as part of P"), and callers
    /// that must not re-deliver (the simulator's crash scenarios) discard
    /// the first poll.
    ///
    /// # Errors
    ///
    /// Any [`RecoverError`]; in particular
    /// [`RecoverError::OwnChainTruncated`] if the journal lost own blocks
    /// below the durable own-tip marker — resuming would equivocate (§7).
    pub fn recover_from_store(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        mut store: Box<dyn BlockStore>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let contents = store.contents()?;
        let (interpreter, snapshot_skipped_version) = Self::restore(config.protocol, &contents)?;
        let mut dag = BlockDag::new();
        for block in &contents.blocks {
            let block_ref = block.block_ref();
            if dag.insert(block.clone()).is_err() {
                return Err(RecoverError::BrokenTopology { block: block_ref });
            }
        }
        if let Some(marker) = contents.own_tip {
            let journal = dag.height_of(me);
            if journal.is_none_or(|height| height < marker) {
                return Err(RecoverError::OwnChainTruncated { journal, marker });
            }
        }
        let snapshot_covered = interpreter.interpreted_count();
        let consumed: usize = contents
            .blocks
            .iter()
            .filter(|block| block.builder() == me)
            .map(|block| block.requests().len())
            .sum();
        let rqsts: VecDeque<LabeledRequest> = contents
            .requests
            .get(consumed..)
            .unwrap_or_default()
            .iter()
            .cloned()
            .collect();
        let report = RecoveryReport {
            journal_blocks: contents.blocks.len(),
            replayed_blocks: contents.blocks.len() - snapshot_covered,
            snapshot_covered,
            requests_rebuffered: rqsts.len(),
            truncated_records: contents.truncated_records,
            snapshot_skipped_version,
        };
        let mut shim = Self::assemble(me, config, registry, dag, interpreter)?;
        shim.rqsts = rqsts;
        shim.store = Some(StoreBinding {
            store,
            synced_blocks: contents.blocks.len(),
            snapshot_every: None,
            last_snapshot_at: 0,
        });
        Ok((shim, report))
    }

    /// The interpreter recovery starts from: the store's snapshot, when `P`
    /// keeps snapshots and there is one, checked against the journal, and
    /// a fresh interpreter otherwise — with the version of a snapshot it
    /// had to skip.
    fn restore(
        protocol: ProtocolConfig,
        contents: &StoreContents,
    ) -> Result<(Interpreter<P>, Option<u8>), RecoverError> {
        let fresh = Interpreter::new(protocol);
        let Some((covered, payload)) = contents.snapshot.as_ref().filter(|_| P::SNAPSHOTS) else {
            return Ok((fresh, None));
        };
        let diverged = RecoverError::SnapshotDiverged { covered: *covered };
        let covered = *covered as usize;
        if covered > contents.blocks.len() {
            return Err(diverged);
        }
        match Interpreter::decode_snapshot(protocol, payload) {
            // A snapshot caches a pure function of the journal
            // (Lemma 4.2): one in a format this build does not read
            // costs a genesis replay, not the node.
            Err(SnapshotError::UnsupportedVersion(version)) => Ok((fresh, Some(version))),
            Err(err) => Err(err.into()),
            Ok(decoded) => {
                let prefix: HashSet<BlockRef> = contents.blocks[..covered]
                    .iter()
                    .map(|block| block.block_ref())
                    .collect();
                let matches = decoded.interpreted_count() == covered
                    && prefix.len() == covered
                    && decoded
                        .interpreted_order()
                        .iter()
                        .all(|block_ref| prefix.contains(block_ref));
                if matches {
                    Ok((decoded, None))
                } else {
                    Err(diverged)
                }
            }
        }
    }
}

// --- Benchmark adapter only ----------------------------------------------
//
// `crates/bench/src/bin/benchmark/adapter.rs:686` names this; it is
// `Shim::recover_from_store`, which restores a snapshot whenever `P` keeps
// them.

impl<P: DeterministicProtocol> Shim<P> {
    #[doc(hidden)]
    pub fn recover_from_store_with_snapshots(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        store: Box<dyn BlockStore>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_from_store(me, config, registry, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, SeqNum};
    use crate::protocol::Outbox;
    use crate::store::MemoryStore;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    /// Minimal deterministic broadcast: on request, send the value to all;
    /// indicate each distinct value once on receipt.
    #[derive(Debug, Clone)]
    struct Flood {
        seen: BTreeSet<u64>,
    }

    impl DeterministicProtocol for Flood {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(_config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Flood {
                seen: BTreeSet::new(),
            }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64, u64>) {
            outbox.broadcast(request);
        }

        fn on_message(&mut self, _sender: ServerId, message: u64, outbox: &mut Outbox<u64, u64>) {
            if self.seen.insert(message) {
                outbox.indicate(message);
            }
        }
    }

    fn network(n: usize) -> Vec<Shim<Flood>> {
        let registry = KeyRegistry::generate(n, 77);
        let config = ShimConfig::new(ProtocolConfig::for_n(n));
        (0..n)
            .map(|i| Shim::new(ServerId::new(i as u32), config, &registry).unwrap())
            .collect()
    }

    /// Executes commands from `origin` against all shims, synchronously, to
    /// quiescence.
    fn run_commands(
        shims: &mut [Shim<Flood>],
        origin: usize,
        commands: Vec<NetCommand>,
        now: TimeMs,
    ) {
        let mut queue: Vec<(usize, NetCommand)> =
            commands.into_iter().map(|c| (origin, c)).collect();
        while let Some((from, command)) = queue.pop() {
            match command {
                NetCommand::Broadcast { message } => {
                    for (target, shim) in shims.iter_mut().enumerate() {
                        if target != from {
                            let run = [(ServerId::new(from as u32), message.clone())];
                            let follow = shim.on_message_burst(run, now);
                            queue.extend(follow.into_iter().map(|c| (target, c)));
                        }
                    }
                }
                NetCommand::SendTo { to, message } => {
                    let run = [(ServerId::new(from as u32), message)];
                    let follow = shims[to.index()].on_message_burst(run, now);
                    queue.extend(follow.into_iter().map(|c| (to.index(), c)));
                }
            }
        }
    }

    #[test]
    fn request_travels_through_block_to_all_servers() {
        let mut shims = network(2);
        let label = Label::new(1);
        shims[0].request(label, 42);
        assert_eq!(shims[0].pending_requests(), 1);

        // s0 disseminates its genesis block with the request.
        let commands = shims[0].disseminate(0);
        assert_eq!(shims[0].pending_requests(), 0);
        run_commands(&mut shims, 0, commands, 0);

        // s1 must reference s0's block, then both deliver their own PING.
        let commands = shims[1].disseminate(1);
        run_commands(&mut shims, 1, commands, 1);
        let commands = shims[0].disseminate(2);
        run_commands(&mut shims, 0, commands, 2);

        assert_eq!(shims[1].poll_indications(), vec![(label, 42)]);
        assert_eq!(shims[0].poll_indications(), vec![(label, 42)]);
    }

    #[test]
    fn indications_only_for_own_simulation() {
        let mut shims = network(2);
        shims[0].request(Label::new(1), 5);
        let commands = shims[0].disseminate(0);
        run_commands(&mut shims, 0, commands, 0);
        let commands = shims[1].disseminate(1);
        run_commands(&mut shims, 1, commands, 1);

        // s0's interpreter raised the indication of s1's simulation too,
        // but s0 delivers only its own, raised at its genesis, which sent
        // s0 its PING, to its own user.
        assert_eq!(shims[0].interpreter().stats().indications, 2);
        assert_eq!(shims[0].poll_indications(), vec![(Label::new(1), 5)]);
        // s1 delivered for itself.
        assert_eq!(shims[1].poll_indications(), vec![(Label::new(1), 5)]);
    }

    #[test]
    fn request_cap_per_block() {
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1));
        let mut shim: Shim<Flood> = Shim::new(ServerId::new(0), config, &registry).unwrap();
        for value in 0..2 * MAX_REQUESTS_PER_BLOCK as u64 + 1 {
            shim.request(Label::new(value), value);
        }
        shim.disseminate(0);
        assert_eq!(shim.pending_requests(), MAX_REQUESTS_PER_BLOCK + 1);
        shim.disseminate(1);
        assert_eq!(shim.pending_requests(), 1);
        let dag = shim.dag();
        let mut per_block: Vec<usize> = dag.iter().map(|b| b.requests().len()).collect();
        per_block.sort();
        assert_eq!(
            per_block,
            vec![MAX_REQUESTS_PER_BLOCK, MAX_REQUESTS_PER_BLOCK]
        );
    }

    #[test]
    fn unknown_server_setup_error() {
        let registry = KeyRegistry::generate(2, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(2));
        let result: Result<Shim<Flood>, _> = Shim::new(ServerId::new(9), config, &registry);
        assert_eq!(
            result.err(),
            Some(SetupError::UnknownServer {
                server: ServerId::new(9)
            })
        );
    }

    /// A durable two-server network: every shim born from an empty
    /// [`MemoryStore`].
    fn durable_network() -> (KeyRegistry, ShimConfig, Vec<Shim<Flood>>) {
        let registry = KeyRegistry::generate(2, 77);
        let config = ShimConfig::new(ProtocolConfig::for_n(2));
        let shims = (0..2)
            .map(|i| {
                let store = Box::new(MemoryStore::new());
                Shim::recover_from_store(ServerId::new(i), config, &registry, store)
                    .unwrap()
                    .0
            })
            .collect();
        (registry, config, shims)
    }

    #[test]
    fn recover_resumes_chain_without_equivocation() {
        let (registry, config, mut shims) = durable_network();
        shims[0].request(Label::new(1), 42);
        let commands = shims[0].disseminate(0);
        run_commands(&mut shims, 0, commands, 0);
        let commands = shims[1].disseminate(1);
        run_commands(&mut shims, 1, commands, 1);
        let commands = shims[0].disseminate(2);
        run_commands(&mut shims, 0, commands, 2);
        // s0 delivered before the crash.
        assert_eq!(shims[0].poll_indications(), vec![(Label::new(1), 42)]);

        // Crash s0: all that is left is its store; a fresh shim is born
        // from it.
        let store = shims[0].detach_store().unwrap();
        let expected_seq = shims[0].dag().height_of(ServerId::new(0)).unwrap().next();
        let (mut recovered, report) =
            Shim::<Flood>::recover_from_store(ServerId::new(0), config, &registry, store).unwrap();
        assert_eq!(report.journal_blocks, shims[0].dag().len());

        // The replay re-derives the indication (application dedups).
        assert_eq!(recovered.poll_indications(), vec![(Label::new(1), 42)]);

        // The next disseminated block continues the chain: correct seq, no
        // second block at an already-used sequence number.
        recovered.disseminate(2);
        let own = recovered.me();
        let dag = recovered.dag();
        assert_eq!(dag.height_of(own), Some(expected_seq));
        for k in 0..=expected_seq.value() {
            assert_eq!(
                dag.blocks_at(own, crate::SeqNum::new(k)).len(),
                1,
                "no equivocation at k{k}"
            );
        }
        assert!(dag.check_invariants());
    }

    #[test]
    fn a_protocol_without_snapshots_replays_past_a_stored_snapshot() {
        // `Flood` keeps no snapshots, so its interpreter offers none. A
        // snapshot record in its store (here the bytes the hidden
        // `encode_snapshot` writes for any `P`, which `Flood` cannot
        // decode) is passed over: the journal replays from genesis,
        // without an error, and `enable_snapshots` writes no further
        // snapshot.
        let (registry, config, mut shims) = durable_network();
        shims[0].request(Label::new(1), 42);
        let commands = shims[0].disseminate(0);
        run_commands(&mut shims, 0, commands, 0);
        let commands = shims[1].disseminate(1);
        run_commands(&mut shims, 1, commands, 1);
        let mut store = shims[0].detach_store().unwrap();
        let covered = shims[0].interpreter().interpreted_count();
        assert_eq!(shims[0].interpreter().snapshot(), None);
        let snapshot = shims[0].interpreter().encode_snapshot();
        store.append_snapshot(covered as u64, &snapshot).unwrap();

        let (mut recovered, report) =
            Shim::<Flood>::recover_from_store(ServerId::new(0), config, &registry, store).unwrap();
        assert_eq!(report.journal_blocks, covered);
        assert_eq!(report.replayed_blocks, covered);
        assert_eq!(report.snapshot_covered, 0);
        assert_eq!(report.snapshot_skipped_version, None);
        assert_eq!(recovered.poll_indications(), vec![(Label::new(1), 42)]);

        recovered.enable_snapshots(1);
        recovered.disseminate(2);
        let contents = recovered.detach_store().unwrap().contents().unwrap();
        assert_eq!(contents.blocks.len(), covered + 1);
        assert_eq!(contents.snapshot, Some((covered as u64, snapshot)));
    }

    #[test]
    fn recover_references_unreferenced_blocks() {
        // s0 crashes having received a block from s1 it never referenced;
        // the recovery block must reference it, so its messages deliver.
        let (registry, config, mut shims) = durable_network();
        // s1 disseminates; s0 receives but crashes before disseminating.
        let commands = shims[1].disseminate(0);
        run_commands(&mut shims, 1, commands, 0);
        let store = shims[0].detach_store().unwrap();
        let s1_tip = shims[0]
            .dag()
            .blocks_at(ServerId::new(1), crate::SeqNum::ZERO)[0];

        let (mut recovered, _) =
            Shim::<Flood>::recover_from_store(ServerId::new(0), config, &registry, store).unwrap();
        recovered.disseminate(1);
        let own_genesis = recovered
            .dag()
            .blocks_at(recovered.me(), crate::SeqNum::ZERO)[0];
        let block = recovered.dag().get(&own_genesis).unwrap();
        assert!(
            block.preds().contains(&s1_tip),
            "recovered block must reference the pre-crash backlog"
        );
    }

    #[test]
    fn an_empty_store_yields_the_state_of_new() {
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1));
        let me = ServerId::new(0);
        let mut volatile: Shim<Flood> = Shim::new(me, config, &registry).unwrap();
        let (mut durable, report) =
            Shim::<Flood>::recover_from_store(me, config, &registry, Box::new(MemoryStore::new()))
                .unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert!(durable.store_attached() && !volatile.store_attached());
        for shim in [&mut volatile, &mut durable] {
            shim.request(Label::new(1), 7);
            shim.disseminate(0);
            shim.disseminate(1);
        }
        assert!(volatile.dag().refs().eq(durable.dag().refs()));
        assert_eq!(volatile.poll_indications(), durable.poll_indications());
    }

    /// The three writes a seal waits for.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Write {
        AppendBlock,
        Sync,
        MarkOwnTip,
    }

    /// A [`BlockStore`] over a medium that outlives it, whose `fail.0`
    /// writes err from the `fail.1`-th call on. A failed `sync` may or may
    /// not have lost the unsynced appends: `sync_loses` picks.
    #[derive(Debug)]
    struct FailingStore {
        medium: Arc<Mutex<MemoryStore>>,
        fail: (Write, usize),
        sync_loses: bool,
        calls: [usize; 3],
        unsynced: usize,
    }

    impl FailingStore {
        fn attempt(&mut self, write: Write) -> Result<(), StoreError> {
            self.calls[write as usize] += 1;
            if self.fail.0 == write && self.calls[write as usize] >= self.fail.1 {
                return Err(StoreError::Io(format!("{write:?} failed")));
            }
            Ok(())
        }
    }

    impl BlockStore for FailingStore {
        fn append_block(&mut self, block: &crate::Block) -> Result<(), StoreError> {
            self.attempt(Write::AppendBlock)?;
            self.unsynced += 1;
            self.medium.lock().unwrap().append_block(block)
        }
        fn append_request(&mut self, request: &LabeledRequest) -> Result<(), StoreError> {
            self.medium.lock().unwrap().append_request(request)
        }
        fn append_snapshot(&mut self, covered: u64, payload: &[u8]) -> Result<(), StoreError> {
            self.medium
                .lock()
                .unwrap()
                .append_snapshot(covered, payload)
        }
        fn mark_own_tip(&mut self, seq: SeqNum) -> Result<(), StoreError> {
            self.attempt(Write::MarkOwnTip)?;
            self.medium.lock().unwrap().mark_own_tip(seq)
        }
        fn sync(&mut self) -> Result<(), StoreError> {
            let synced = self.attempt(Write::Sync);
            if synced.is_err() && self.sync_loses {
                self.medium.lock().unwrap().truncate_tail(self.unsynced);
            }
            self.unsynced = 0;
            synced
        }
        fn contents(&mut self) -> Result<StoreContents, StoreError> {
            self.medium.lock().unwrap().contents()
        }
    }

    /// The own blocks `commands` put on the wire, as `(seq, ref)`.
    fn broadcast_own(commands: &[NetCommand]) -> Vec<(SeqNum, BlockRef)> {
        commands
            .iter()
            .filter_map(|command| match command {
                NetCommand::Broadcast {
                    message: NetMessage::Block(block),
                } => Some((block.seq(), block.block_ref())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_failed_seal_broadcasts_nothing_and_no_restart_forks_the_chain() {
        // §7 over every failure point: n = 1, five request + seal rounds
        // on a store whose k-th append / sync / marker write fails, then a
        // restart onto the same medium and one more seal. Every own block
        // that ever reached the wire must be the only one at its sequence
        // number.
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1));
        let me = ServerId::new(0);
        for write in [Write::AppendBlock, Write::Sync, Write::MarkOwnTip] {
            for (k, sync_loses) in (1..=6).flat_map(|k| [(k, false), (k, true)]) {
                let case = format!("{write:?} #{k}, sync_loses={sync_loses}");
                let medium = Arc::new(Mutex::new(MemoryStore::new()));
                let store = FailingStore {
                    medium: Arc::clone(&medium),
                    fail: (write, k),
                    sync_loses,
                    calls: [0; 3],
                    unsynced: 0,
                };
                let (mut shim, _) =
                    Shim::<Flood>::recover_from_store(me, config, &registry, Box::new(store))
                        .unwrap();
                let mut on_wire = Vec::new();
                for round in 0..5 {
                    shim.request(Label::new(round), round);
                    let commands = shim.disseminate(round);
                    let failed = shim.store_error().is_some();
                    assert_eq!(shim.store_attached(), !failed, "{case}");
                    assert!(
                        !failed || commands.is_empty(),
                        "{case}: sealed past a failure"
                    );
                    on_wire.extend(broadcast_own(&commands));
                }
                assert_eq!(shim.store_error().is_some(), k <= 5, "{case}");
                assert_eq!(
                    on_wire.len(),
                    (k - 1).min(5),
                    "{case}: seals before the failure"
                );
                drop(shim);

                let healthy = Arc::try_unwrap(medium).unwrap().into_inner().unwrap();
                let (mut restarted, _) =
                    Shim::<Flood>::recover_from_store(me, config, &registry, Box::new(healthy))
                        .expect("nothing durable was lost below the marker");
                on_wire.extend(broadcast_own(&restarted.disseminate(9)));
                assert_eq!(on_wire.len(), k.min(6), "{case}: the restart seals again");
                let seqs: BTreeSet<SeqNum> = on_wire.iter().map(|(seq, _)| *seq).collect();
                assert_eq!(seqs.len(), on_wire.len(), "{case}: forked: {on_wire:?}");
                assert!(restarted.dag().equivocations(me).is_empty(), "{case}");
            }
        }
    }

    #[test]
    fn footprint_surfaces_sharing() {
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1));
        let mut shim: Shim<Flood> = Shim::new(ServerId::new(0), config, &registry).unwrap();
        shim.request(Label::new(1), 7);
        // One request, then a long quiescent chain: activity dies out, so
        // instance state is shared across the tail blocks.
        for now in 0..12 {
            shim.disseminate(now);
        }
        let footprint = shim.footprint();
        assert_eq!(footprint.blocks, 12);
        assert!(
            footprint.unique_instances < footprint.instances,
            "structural sharing must be visible: {} unique of {}",
            footprint.unique_instances,
            footprint.instances
        );
    }

    #[test]
    fn single_server_roundtrip() {
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1));
        let mut shim: Shim<Flood> = Shim::new(ServerId::new(0), config, &registry).unwrap();
        shim.request(Label::new(1), 7);
        shim.disseminate(0); // request written into the genesis block
        shim.disseminate(1); // parent edge delivers the self-message
        assert_eq!(shim.poll_indications(), vec![(Label::new(1), 7)]);
    }

    /// Server 1 of 4 with the default 50 ms seal period: seals on
    /// `12 + 50k`.
    fn server_one() -> Shim<Flood> {
        network(4).swap_remove(1)
    }

    fn sealed(shim: &Shim<Flood>) -> u64 {
        shim.gossip().next_seq().value()
    }

    fn woken(shim: &Shim<Flood>) -> u64 {
        shim.seal_stats().slots()
    }

    #[test]
    fn the_first_wake_arms_the_seal_at_the_first_slot_at_or_after_it() {
        let mut shim = server_one();
        assert_eq!(shim.next_wake(), 0, "an unarmed shim wants a wake now");
        assert!(shim.wake(30).is_empty());
        assert_eq!((sealed(&shim), woken(&shim)), (0, 0));
        // Slot 62, not 12; it seals for the request buffered before it.
        assert_eq!(shim.next_wake(), 62);
        shim.request(Label::new(1), 1);
        assert!(!shim.wake(62).is_empty());
        assert_eq!((sealed(&shim), shim.next_wake()), (1, 112));
        shim.request(Label::new(2), 2);
        shim.wake(112);
        assert_eq!((sealed(&shim), shim.next_wake()), (2, 162));
        assert_eq!(woken(&shim), 2);

        // Armed on a slot, the timer fires at once: slot 0 is a heartbeat.
        let mut shim = server_one();
        assert!(!shim.wake(12).is_empty());
        assert_eq!(sealed(&shim), 1);
    }

    #[test]
    fn a_wake_three_periods_late_seals_once_and_rearms_on_the_next_slot() {
        let mut shim = server_one();
        shim.wake(12);
        assert_eq!(sealed(&shim), 1);
        shim.request(Label::new(1), 1);
        shim.wake(12 + 3 * 50 + 7);
        assert_eq!((sealed(&shim), woken(&shim)), (2, 2));
        assert_eq!(shim.next_wake(), 12 + 4 * 50);
    }

    #[test]
    fn an_idle_server_seals_only_on_heartbeat_slots() {
        let mut shim = server_one();
        for k in 0..=16 {
            shim.wake(12 + 50 * k);
        }
        // Slots 0, 8 and 16 seal; the 14 between them are idle.
        assert_eq!(sealed(&shim), 3);
        let expected = SealStats {
            heartbeats: 3,
            idle_slots: 14,
            ..SealStats::default()
        };
        assert_eq!(*shim.seal_stats(), expected);
        assert_eq!(woken(&shim), 17);
    }

    #[test]
    fn a_request_or_a_message_for_this_server_seals_its_slot() {
        let mut shims = network(4);
        // Server 0 seals for a request at its slot 0, a heartbeat slot too:
        // the first reason that holds is the one counted.
        shims[0].request(Label::new(1), 5);
        let from_0 = shims[0].wake(0);
        assert_eq!(shims[0].seal_stats().for_requests, 1);
        let [NetCommand::Broadcast { message }] = &from_0[..] else {
            panic!("one block: {from_0:?}");
        };
        let server_1 = &mut shims[1];
        server_1.wake(12);
        assert_eq!(sealed(server_1), 1, "a heartbeat");
        // Server 0's block holds a message for server 1: slot 62 seals.
        server_1.on_message_burst([(ServerId::new(0), message.clone())], 20);
        server_1.wake(62);
        assert_eq!(server_1.seal_stats().for_messages, 1);
        assert_eq!(server_1.poll_indications(), vec![(Label::new(1), 5)]);
        // Its own parent and an empty block of server 2 hold nothing for
        // it: slots 112 and 162 are idle.
        server_1.wake(112);
        let registry = KeyRegistry::generate(4, 77);
        let empty = Block::build(
            ServerId::new(2),
            SeqNum::ZERO,
            vec![],
            vec![],
            &registry.signer(ServerId::new(2)).unwrap(),
        );
        server_1.on_message_burst([(ServerId::new(2), NetMessage::Block(empty))], 120);
        assert!(server_1.wake(162).is_empty());
        let expected = SealStats {
            for_requests: 0,
            for_messages: 1,
            heartbeats: 1,
            idle_slots: 2,
        };
        assert_eq!(*server_1.seal_stats(), expected);
        assert_eq!(sealed(server_1), expected.seals());
    }

    #[test]
    fn a_wake_before_the_deadline_does_nothing() {
        let mut shim = server_one();
        shim.wake(12);
        shim.wake(13);
        shim.request(Label::new(1), 6);
        for now in [13, 40, 61] {
            assert!(shim.wake(now).is_empty());
            assert_eq!(sealed(&shim), 1);
            assert_eq!(shim.pending_requests(), 1);
            assert_eq!(shim.next_wake(), 62);
        }
    }

    /// Blocks of servers 0 and 2 that both cite server 3's genesis,
    /// which server 1 lacks: its two `FWD` candidates. Returns them and
    /// the missing reference.
    fn two_blocks_citing_a_missing_one() -> ([Block; 2], BlockRef) {
        let registry = KeyRegistry::generate(4, 77);
        let signer = |id: u32| registry.signer(ServerId::new(id)).unwrap();
        let lost = Block::build(ServerId::new(3), SeqNum::ZERO, vec![], vec![], &signer(3));
        let citing = |id: u32| {
            let preds = vec![lost.block_ref()];
            Block::build(ServerId::new(id), SeqNum::ZERO, preds, vec![], &signer(id))
        };
        ([citing(0), citing(2)], lost.block_ref())
    }

    fn fwd(to: u32, block_ref: BlockRef) -> NetCommand {
        NetCommand::SendTo {
            to: ServerId::new(to),
            message: NetMessage::FwdRequest(block_ref),
        }
    }

    #[test]
    fn next_wake_is_the_seal_deadline() {
        let mut shim = server_one();
        shim.wake(12);
        assert_eq!(shim.next_wake(), 62);
        // An ingest that sends a `FWD` arms no timer of its own.
        let (blocks, lost) = two_blocks_citing_a_missing_one();
        let run = blocks.map(|block| (block.builder(), NetMessage::Block(block)));
        assert_eq!(shim.on_message_burst(run, 20), vec![fwd(0, lost)]);
        assert_eq!(shim.next_wake(), 62);
        for now in 13..=200 {
            let before = shim.next_wake();
            shim.wake(now);
            let expected = if now >= before { before + 50 } else { before };
            assert_eq!(shim.next_wake(), expected, "after a wake at {now}");
        }
    }

    #[test]
    fn an_unanswered_fwd_goes_to_the_next_candidate_at_the_first_seal_a_period_later() {
        // With a request buffered before every slot each slot seals; with
        // none, the slots are idle and the sweep runs all the same.
        for busy in [true, false] {
            let mut shim = server_one();
            shim.wake(12);
            let wake = |shim: &mut Shim<Flood>, now: TimeMs| {
                if busy {
                    shim.request(Label::new(now), now);
                }
                let commands = shim.wake(now);
                let seals = commands
                    .iter()
                    .filter(|command| matches!(command, NetCommand::Broadcast { .. }))
                    .count();
                assert_eq!(seals, usize::from(busy), "at {now}");
                commands
            };
            let (blocks, lost) = two_blocks_citing_a_missing_one();
            let run = blocks.map(|block| (block.builder(), NetMessage::Block(block)));
            // Asked of server 0 at 20, between the slots at 12 and 62.
            assert_eq!(shim.on_message_burst(run, 20), vec![fwd(0, lost)]);
            // At 62 it has waited 42 ms, less than a period: the seal alone.
            let at_62 = wake(&mut shim, 62);
            assert_eq!(at_62.len(), usize::from(busy));
            // At 112 it has waited a period: asked of server 2, before the
            // seal's block.
            let at_112 = wake(&mut shim, 112);
            assert_eq!(at_112[0], fwd(2, lost));
            assert_eq!(at_112.len(), 1 + usize::from(busy));
            // Sent at a slot, it is sent again at the next one, to server 0.
            let at_162 = wake(&mut shim, 162);
            assert_eq!(at_162[0], fwd(0, lost));
            assert_eq!(shim.gossip().stats().fwd_sent, 3);
        }
    }

    #[test]
    fn after_one_measured_round_trip_a_retry_waits_one_rto_for_an_ingest_or_a_seal() {
        let registry = KeyRegistry::generate(4, 77);
        let block = |id: u32, seq: u64, preds: Vec<BlockRef>| {
            let signer = registry.signer(ServerId::new(id)).unwrap();
            Block::build(ServerId::new(id), SeqNum::new(seq), preds, vec![], &signer)
        };
        let run = |blocks: Vec<Block>| {
            blocks
                .into_iter()
                .map(|block| (block.builder(), NetMessage::Block(block)))
        };
        let (genesis0, genesis2) = (block(0, 0, vec![]), block(2, 0, vec![]));
        let child0 = block(0, 1, vec![genesis0.block_ref()]);
        let child2 = block(2, 1, vec![genesis2.block_ref()]);
        let lost = block(3, 0, vec![]).block_ref();
        let citers = vec![
            block(0, 2, vec![child0.block_ref(), lost]),
            block(2, 2, vec![child2.block_ref(), lost]),
        ];
        let (second, third) = (
            block(2, 3, vec![citers[1].block_ref()]),
            block(3, 1, vec![lost]),
        );
        for by_ingest in [true, false] {
            let mut shim = server_one();
            shim.wake(12);
            // Server 0 is asked for its genesis at 12 and answers only
            // the retry at the seal at 62: a time-out, and no sample.
            let asked = shim.on_message_burst(run(vec![child0.clone()]), 12);
            assert_eq!(asked, vec![fwd(0, genesis0.block_ref())]);
            let at_62 = shim.wake(62);
            assert_eq!(at_62[0], fwd(0, genesis0.block_ref()));
            assert!(shim
                .on_message_burst(run(vec![genesis0.clone()]), 63)
                .is_empty());
            assert_eq!(shim.gossip().stats().fwd_rto_ms, 50);
            // Server 2 is asked for its genesis at 64 and answers at 69:
            // one round trip of 5 ms, RTO = 5 + 4 · 5/2 = 15 ms.
            let asked = shim.on_message_burst(run(vec![child2.clone()]), 64);
            assert_eq!(asked, vec![fwd(2, genesis2.block_ref())]);
            assert!(shim
                .on_message_burst(run(vec![genesis2.clone()]), 69)
                .is_empty());
            assert_eq!(shim.gossip().stats().fwd_rto_ms, 15);
            // A block lost from servers 0 and 2 is asked of 0 at 70.
            assert_eq!(
                shim.on_message_burst(run(citers.clone()), 70),
                vec![fwd(0, lost)]
            );
            if by_ingest {
                // An ingest that buffers a block 14 ms later sends nothing;
                // one 15 ms later asks server 2, long before the seal at 112.
                assert!(shim
                    .on_message_burst(run(vec![second.clone()]), 84)
                    .is_empty());
                let retry = shim.on_message_burst(run(vec![third.clone()]), 85);
                assert_eq!(retry, vec![fwd(2, lost)]);
            } else {
                // No ingest: the seal at 112, for a request buffered
                // before it, sends it before its block.
                shim.request(Label::new(1), 1);
                let at_112 = shim.wake(112);
                assert_eq!(at_112[0], fwd(2, lost));
                assert!(matches!(at_112[1..], [NetCommand::Broadcast { .. }]));
            }
            assert_eq!(shim.gossip().stats().fwd_sent, 5);
        }
    }

    #[test]
    fn the_seal_period_is_a_shim_setting() {
        let registry = KeyRegistry::generate(4, 77);
        let config = ShimConfig::new(ProtocolConfig::for_n(4)).with_disseminate_every_ms(20);
        let mut shim: Shim<Flood> = Shim::new(ServerId::new(2), config, &registry).unwrap();
        let woken_at: Vec<TimeMs> = (0..100)
            .filter(|now| {
                let before = woken(&shim);
                shim.wake(*now);
                woken(&shim) > before
            })
            .collect();
        assert_eq!(woken_at, vec![10, 30, 50, 70, 90]);
    }
}
