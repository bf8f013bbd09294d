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
//!   caller (simulator or event loop), which controls pacing to meet `P`'s
//!   network assumptions.
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
use crate::interpret::{Interpreter, InterpreterFootprint, SnapshotError};
use crate::label::Label;
use crate::protocol::{DeterministicProtocol, ProtocolConfig, SnapshotProtocol};
use crate::store::{BlockStore, RecoverError, RecoveryReport, StoreContents, StoreError};
use crate::TimeMs;

/// Configuration for a [`Shim`] server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShimConfig {
    /// The embedded protocol's configuration (server count, fault bound).
    pub protocol: ProtocolConfig,
    /// `FWD` retransmission pacing (see [`GossipConfig`]).
    pub fwd_retry_ms: TimeMs,
    /// Maximum number of buffered requests injected per block
    /// (`rqsts.get()` returns "a suitable number", Algorithm 3).
    pub max_requests_per_block: usize,
    /// Bound on gossip's pending buffer (see
    /// [`GossipConfig::pending_cap`]).
    pub pending_cap: usize,
    /// The adversarial peer-defense engine (see [`crate::defense`];
    /// disabled by default).
    pub defense: DefenseConfig,
}

impl ShimConfig {
    /// Creates a configuration with default pacing parameters.
    pub fn new(protocol: ProtocolConfig) -> Self {
        ShimConfig {
            protocol,
            fwd_retry_ms: 100,
            max_requests_per_block: 1024,
            pending_cap: crate::gossip::DEFAULT_PENDING_CAP,
            defense: DefenseConfig::default(),
        }
    }

    /// Sets the `FWD` retry interval.
    pub fn with_fwd_retry_ms(mut self, fwd_retry_ms: TimeMs) -> Self {
        self.fwd_retry_ms = fwd_retry_ms;
        self
    }

    /// Sets the per-block request cap.
    pub fn with_max_requests_per_block(mut self, max: usize) -> Self {
        self.max_requests_per_block = max;
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
            fwd_retry_ms: self.fwd_retry_ms,
            pending_cap: self.pending_cap,
            defense: self.defense,
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

/// Encodes an interpreter into snapshot bytes — a plain function pointer
/// so [`StoreBinding`] stays protocol-generic without extra bounds.
type SnapshotEncodeFn<P> = fn(&Interpreter<P>) -> Vec<u8>;

/// The [`BlockStore`] a durable shim was born from, plus the shim's
/// bookkeeping around it: how much of the DAG's insertion order has been
/// journaled, and the snapshot cadence.
#[derive(Debug)]
struct StoreBinding<P: DeterministicProtocol> {
    store: Box<dyn BlockStore>,
    /// Prefix of the DAG's insertion order already appended to the store.
    synced_blocks: usize,
    /// Snapshot cadence in blocks and the encoder, once
    /// [`Shim::enable_snapshots`] installed them.
    snapshots: Option<(u64, SnapshotEncodeFn<P>)>,
    /// Interpreted-block count at the last snapshot.
    last_snapshot_at: u64,
}

/// A complete block DAG server: `shim(P)` running as one member of `Srvrs`.
///
/// Drive it by delivering network messages ([`Shim::on_message`]), ticking
/// timers ([`Shim::on_tick`]), and requesting dissemination
/// ([`Shim::disseminate`]); it returns [`NetCommand`]s for the transport.
/// See the crate-level docs for a runnable example.
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
    /// Indications for `me`, awaiting [`Shim::poll_indications`]; those of
    /// other servers' simulations are not kept (Algorithm 3 line 8 requires
    /// `s' = s`).
    delivered: VecDeque<(Label, P::Indication)>,
    /// Durable storage of a durable shim: every admitted block, buffered
    /// request, and periodic snapshot is journaled through it.
    store: Option<StoreBinding<P>>,
    /// The write failure that detached the store. Storage must never
    /// panic or wedge consensus, so the server keeps admitting,
    /// interpreting and answering `FWD` — but it seals no further own
    /// block ([`Shim::disseminate`]): one it could not make durable
    /// first is one a restart would sign again.
    store_error: Option<StoreError>,
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
            delivered: VecDeque::new(),
            store: None,
            store_error: None,
        };
        shim.run_interpretation();
        Ok(shim)
    }

    /// The server this shim runs as.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// The shim's configuration.
    pub fn config(&self) -> &ShimConfig {
        &self.config
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

    /// Delivers a network message to this server.
    pub fn on_message(
        &mut self,
        from: ServerId,
        message: NetMessage,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let commands = self.gossip.on_message(from, message, now);
        self.run_interpretation();
        commands
    }

    /// Delivers a whole ingest burst in one admission pass
    /// ([`Gossip::on_messages`]): blocks are indexed first and promoted
    /// in one cascade, `FWD` requests are answered from the DAG as it
    /// stood when the burst began, and interpretation steps once for the
    /// whole burst instead of once per message. This is the ingest path
    /// of the simulator's burst delivery and the transport's channel
    /// drain.
    pub fn on_message_burst(
        &mut self,
        messages: impl IntoIterator<Item = (ServerId, NetMessage)>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let commands = self.gossip.on_messages(messages, now);
        self.run_interpretation();
        commands
    }

    /// Advances timers (`FWD` retries).
    pub fn on_tick(&mut self, now: TimeMs) -> Vec<NetCommand> {
        self.gossip.on_tick(now)
    }

    /// Reports `count` malformed frames received from `peer` — the
    /// transport-level offense feed for the peer-defense engine (see
    /// [`crate::defense`]).
    pub fn note_malformed_frames(&mut self, peer: ServerId, count: u64, now: TimeMs) {
        self.gossip.note_malformed_frames(peer, count, now);
    }

    /// Requests `gossip.disseminate()` (Algorithm 3, lines 10–11): seals
    /// the current block with up to
    /// [`ShimConfig::max_requests_per_block`] buffered requests.
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
        let take = self.rqsts.len().min(self.config.max_requests_per_block);
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
    /// (Algorithm 3, lines 8–9).
    pub fn poll_indications(&mut self) -> Vec<(Label, P::Indication)> {
        self.delivered.drain(..).collect()
    }

    fn run_interpretation(&mut self) {
        self.interpreter.step(self.gossip.dag());
        for indication in self.interpreter.drain_indications() {
            if indication.server == self.me {
                self.delivered
                    .push_back((indication.label, indication.indication));
            }
        }
        self.journal(Self::journal_admitted);
    }

    /// Runs one `write` against the store of a durable shim (no-op for a
    /// volatile one). The only place a failed store is detached: the
    /// error is latched in `store_error`, which [`Shim::disseminate`]
    /// reads.
    fn journal(
        &mut self,
        write: impl FnOnce(&Self, &mut StoreBinding<P>) -> Result<(), StoreError>,
    ) {
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
    fn journal_admitted(&self, binding: &mut StoreBinding<P>) -> Result<(), StoreError> {
        let dag = self.gossip.dag();
        for block_ref in dag.refs().skip(binding.synced_blocks) {
            let block = dag.get(block_ref).expect("ref comes from the dag");
            binding.store.append_block(block)?;
            binding.synced_blocks += 1;
        }
        if let Some((every, encode)) = binding.snapshots {
            let covered = self.interpreter.interpreted_count() as u64;
            if covered.saturating_sub(binding.last_snapshot_at) >= every {
                binding
                    .store
                    .append_snapshot(covered, &encode(&self.interpreter))?;
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

    /// Brings a durable server into existence from its store, replaying
    /// the whole journal from genesis (any persisted snapshot is ignored
    /// — this is the oracle path; see
    /// [`Shim::recover_from_store_with_snapshots`] for snapshot catch-up).
    /// An empty store is a fresh start: the result is [`Shim::new`]'s
    /// state with the store attached.
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
        store: Box<dyn BlockStore>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_with(me, config, registry, store, |_| {
            Ok((Interpreter::new(config.protocol), None))
        })
    }

    /// The recovery body both public entry points share: read the store
    /// back, let `restore` produce the interpreter to start from (and the
    /// version of a snapshot it had to skip), rebuild the DAG, enforce
    /// the own-tip guard, assemble the shim, re-buffer unsealed requests,
    /// and bind the store it all came from.
    fn recover_with(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        store: Box<dyn BlockStore>,
        restore: impl FnOnce(&StoreContents) -> Result<(Interpreter<P>, Option<u8>), RecoverError>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let contents = store.contents()?;
        let (interpreter, snapshot_skipped_version) = restore(&contents)?;
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
            snapshots: None,
            last_snapshot_at: 0,
        });
        Ok((shim, report))
    }
}

impl<P: SnapshotProtocol> Shim<P>
where
    P::Message: dagbft_codec::WireEncode + dagbft_codec::WireDecode,
{
    /// Enables periodic interpreter snapshots through the store of a
    /// durable shim: one snapshot every `every` interpreted blocks, so
    /// recovery via [`Shim::recover_from_store_with_snapshots`] replays
    /// only the suffix past the last snapshot. No-op on a volatile shim.
    pub fn enable_snapshots(&mut self, every: u64) {
        let covered = self.interpreter.interpreted_count() as u64;
        if let Some(binding) = self.store.as_mut() {
            binding.snapshots = Some((every.max(1), |interpreter| interpreter.encode_snapshot()));
            binding.last_snapshot_at = covered;
        }
    }

    /// [`Shim::recover_from_store`] with snapshot catch-up: interpreter
    /// state is restored from the latest persisted snapshot (if any) and
    /// only the journal suffix past it replays.
    ///
    /// The snapshot is validated before use: its `(n, f)` configuration
    /// and covered block set must match the journal prefix exactly,
    /// otherwise a typed error is returned (never a divergent state). A
    /// snapshot in a format version this build does not read is skipped —
    /// recovery replays from genesis and
    /// [`RecoveryReport::snapshot_skipped_version`] says so. All other
    /// semantics match [`Shim::recover_from_store`].
    ///
    /// # Errors
    ///
    /// Any [`RecoverError`].
    pub fn recover_from_store_with_snapshots(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        store: Box<dyn BlockStore>,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        Self::recover_with(me, config, registry, store, |contents| {
            let fresh = Interpreter::new(config.protocol);
            let Some((covered, payload)) = &contents.snapshot else {
                return Ok((fresh, None));
            };
            let diverged = RecoverError::SnapshotDiverged { covered: *covered };
            let covered = *covered as usize;
            if covered > contents.blocks.len() {
                return Err(diverged);
            }
            match Interpreter::decode_snapshot(config.protocol, payload) {
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
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::SeqNum;
    use crate::protocol::Outbox;
    use crate::store::MemoryStore;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    /// Minimal deterministic broadcast: on request, send the value to all;
    /// indicate each distinct value once on receipt.
    #[derive(Debug, Clone)]
    struct Flood {
        config: ProtocolConfig,
        seen: BTreeSet<u64>,
        pending: Vec<u64>,
    }

    impl DeterministicProtocol for Flood {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Flood {
                config: *config,
                seen: BTreeSet::new(),
                pending: Vec::new(),
            }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64>) {
            outbox.broadcast(&self.config, request);
        }

        fn on_message(&mut self, _sender: ServerId, message: u64, _outbox: &mut Outbox<u64>) {
            if self.seen.insert(message) {
                self.pending.push(message);
            }
        }

        fn drain_indications(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.pending)
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
                            let follow =
                                shim.on_message(ServerId::new(from as u32), message.clone(), now);
                            queue.extend(follow.into_iter().map(|c| (target, c)));
                        }
                    }
                }
                NetCommand::SendTo { to, message } => {
                    let follow =
                        shims[to.index()].on_message(ServerId::new(from as u32), message, now);
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
        // but s0 does not deliver it to its own user.
        assert_eq!(shims[0].interpreter().stats().indications, 1);
        assert_eq!(shims[0].poll_indications(), vec![]);
        // s1 delivered for itself.
        assert_eq!(shims[1].poll_indications(), vec![(Label::new(1), 5)]);
    }

    #[test]
    fn request_cap_per_block() {
        let registry = KeyRegistry::generate(1, 3);
        let config = ShimConfig::new(ProtocolConfig::for_n(1)).with_max_requests_per_block(2);
        let mut shim: Shim<Flood> = Shim::new(ServerId::new(0), config, &registry).unwrap();
        for value in 0..5 {
            shim.request(Label::new(value), value);
        }
        shim.disseminate(0);
        assert_eq!(shim.pending_requests(), 3);
        shim.disseminate(1);
        assert_eq!(shim.pending_requests(), 1);
        let dag = shim.dag();
        let mut per_block: Vec<usize> = dag.iter().map(|b| b.requests().len()).collect();
        per_block.sort();
        assert_eq!(per_block, vec![2, 2]);
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
        fn contents(&self) -> Result<StoreContents, StoreError> {
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
}
