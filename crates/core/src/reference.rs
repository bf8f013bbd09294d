//! Paper-literal oracles, retained for tests and benches:
//! [`ReferenceInterpreter`] (Algorithm 2) and [`ReferenceGossip`]
//! (Algorithm 1's block admission).
//!
//! # The clone-per-block interpreter
//!
//! [`ReferenceInterpreter`] is the *literal* transcription of Algorithm 2:
//! line 4's `PIs := B_parent.PIs` is implemented as a deep clone of the
//! whole instance map, and every block retains its own full copy. That is
//! O(blocks × active labels × instance size) in memory and clone work —
//! exactly the cost the interpreter in [`crate::interpret`] eliminates by
//! moving one view along each chain and storing per-block deltas.
//!
//! It stays in the tree for two reasons:
//!
//! * **equivalence testing** — `crates/core/tests/reference_equivalence.rs`
//!   proptests that random DAGs (including equivocations and malformed
//!   requests) yield bit-identical per-block states, indications, and
//!   stats under both interpreters (Lemma 4.2 holds for either, so any
//!   divergence is an implementation bug, not a semantic choice);
//! * **retirement** — `tests/interpret_alloc_budget.rs` and
//!   `tests/retirement.rs` hold the interpreter, which drops a terminal
//!   instance's state, block by block to this one, which keeps it.
//!
//! # The rescanning admission oracle
//!
//! [`ReferenceGossip`] is lines 4–11 of Algorithm 1 as written: a `blks`
//! map rescanned to a fixed point, one signature check per candidate, the
//! `FWD` set rebuilt from `blks` after every call. It shares no indexing,
//! promotion or validation code with [`crate::gossip::Gossip`]; the
//! equivalence tests drive both with the same hostile schedules and
//! require the same [`AdmissionView`], the same commands per call and the
//! same number of verifications.
//!
//! It does share one piece: when a `FWD` request is sent again. Both
//! wait on production's [`RoundTrip`] estimator, fed the same samples, so
//! where the equivalence covers `FWD` retry timing it compares that
//! estimator with itself and can find no fault in it. What it checks
//! independently is the admitted set — the insertion order and the
//! rejections — and the commands each call returns; the estimator's own
//! tests in [`crate::gossip`] are what check its timeouts.
//!
//! Production code paths (`Shim`, the simulator) must use
//! [`crate::interpret::Interpreter`] and [`crate::gossip::Gossip`];
//! nothing outside tests and benches should instantiate
//! [`ReferenceInterpreter`] or [`ReferenceGossip`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dagbft_codec::decode_from_slice;
use dagbft_crypto::{ServerId, Verifier};

use crate::block::{Block, BlockRef};
use crate::dag::BlockDag;
use crate::error::InvalidBlockError;
use crate::gossip::{Gossip, GossipConfig, GossipStats, NetCommand, NetMessage, RoundTrip};
use crate::interpret::{Indication, InterpretError, InterpretStats};
use crate::label::Label;
use crate::protocol::{DeterministicProtocol, Envelope, Outbox, ProtocolConfig};
use crate::TimeMs;

/// Interpretation state attached to one block under the naive interpreter:
/// a full private copy of `B.PIs`, plus the `B.Ms[out/in, ·]` buffers.
#[derive(Debug, Clone)]
pub struct ReferenceBlockState<P: DeterministicProtocol> {
    /// `B.PIs[ℓ]`: a full, private copy per block.
    pis: BTreeMap<Label, P>,
    /// `B.Ms[out, ℓ]`.
    outs: BTreeMap<Label, BTreeSet<Envelope<P::Message>>>,
    /// `B.Ms[in, ℓ]`.
    ins: BTreeMap<Label, BTreeSet<Envelope<P::Message>>>,
    /// Labels requested at this block or any ancestor.
    active: BTreeSet<Label>,
}

impl<P: DeterministicProtocol> ReferenceBlockState<P> {
    /// The simulated instance of `label`, if started.
    pub fn instance(&self, label: Label) -> Option<&P> {
        self.pis.get(&label)
    }

    /// Labels with a started instance at this block.
    pub fn instance_labels(&self) -> impl Iterator<Item = &Label> {
        self.pis.keys()
    }

    /// Out-going messages `B.Ms[out, ℓ]` produced at this block.
    pub fn out_messages(&self, label: Label) -> impl Iterator<Item = &Envelope<P::Message>> {
        self.outs.get(&label).into_iter().flatten()
    }

    /// In-coming messages `B.Ms[in, ℓ]` delivered at this block.
    pub fn in_messages(&self, label: Label) -> impl Iterator<Item = &Envelope<P::Message>> {
        self.ins.get(&label).into_iter().flatten()
    }
}

/// Stamps sender `me` on the envelopes a handler of `label`'s instance put
/// in `outbox`, counts them, adds them to `B.Ms[out, ℓ]`, queues the ones
/// addressed to `me` on `to_me`, in the order sent, and appends the
/// indications it raised to `label`'s in `raised`.
fn send<M: Clone + Ord, I>(
    me: ServerId,
    label: Label,
    mut outbox: Outbox<M, I>,
    outs: &mut BTreeMap<Label, BTreeSet<Envelope<M>>>,
    to_me: &mut Vec<(Label, Envelope<M>)>,
    raised: &mut BTreeMap<Label, Vec<I>>,
    stats: &mut InterpretStats,
) {
    raised
        .entry(label)
        .or_default()
        .extend(outbox.drain_indications());
    let envelopes: Vec<_> = outbox.into_envelopes(me).collect();
    stats.messages_materialized += envelopes.len() as u64;
    to_me.extend(
        envelopes
            .iter()
            .filter(|e| e.receiver == me)
            .map(|e| (label, e.clone())),
    );
    outs.entry(label).or_default().extend(envelopes);
}

/// The clone-per-block `interpret(G, P)` oracle.
///
/// Semantically identical to [`crate::interpret::Interpreter`] (both
/// realize Algorithm 2); differs only in state representation and in
/// `eligible` performing the full O(V·E) rescan the original code used.
#[derive(Debug)]
pub struct ReferenceInterpreter<P: DeterministicProtocol> {
    config: ProtocolConfig,
    states: HashMap<BlockRef, ReferenceBlockState<P>>,
    order: Vec<BlockRef>,
    indications: Vec<Indication<P::Indication>>,
    stats: InterpretStats,
}

impl<P: DeterministicProtocol> ReferenceInterpreter<P> {
    /// Creates a reference interpreter for the given configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        ReferenceInterpreter {
            config,
            states: HashMap::new(),
            order: Vec::new(),
            indications: Vec::new(),
            stats: InterpretStats::default(),
        }
    }

    /// `I[B]`: whether `block` has been interpreted.
    pub fn is_interpreted(&self, block: &BlockRef) -> bool {
        self.states.contains_key(block)
    }

    /// Number of interpreted blocks.
    pub fn interpreted_count(&self) -> usize {
        self.states.len()
    }

    /// Work counters.
    pub fn stats(&self) -> &InterpretStats {
        &self.stats
    }

    /// Interpretation state attached to `block`, if interpreted.
    pub fn state(&self, block: &BlockRef) -> Option<&ReferenceBlockState<P>> {
        self.states.get(block)
    }

    /// Blocks interpreted so far, in interpretation order.
    pub fn interpreted_order(&self) -> &[BlockRef] {
        &self.order
    }

    /// The blocks currently eligible, by full DAG rescan.
    pub fn eligible(&self, dag: &BlockDag) -> Vec<BlockRef> {
        dag.refs()
            .filter(|r| !self.is_interpreted(r))
            .filter(|r| dag.preds_of(r).iter().all(|p| self.is_interpreted(p)))
            .copied()
            .collect()
    }

    /// Interprets every block of `dag` that is or becomes eligible, to a
    /// fixed point, by repeated rescans. Returns the number interpreted.
    pub fn step(&mut self, dag: &BlockDag) -> usize {
        let mut total = 0;
        loop {
            let eligible = self.eligible(dag);
            if eligible.is_empty() {
                return total;
            }
            for block_ref in eligible {
                self.interpret_block(dag, &block_ref)
                    .expect("eligible block interprets");
                total += 1;
            }
        }
    }

    /// Interprets a single eligible block (Algorithm 2, lines 4–12), with
    /// line 4 as a literal deep clone of the parent's `PIs`.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::interpret::Interpreter::interpret_block`].
    pub fn interpret_block(
        &mut self,
        dag: &BlockDag,
        block_ref: &BlockRef,
    ) -> Result<(), InterpretError> {
        let block = dag
            .get(block_ref)
            .ok_or(InterpretError::UnknownBlock { block: *block_ref })?;
        if self.is_interpreted(block_ref) {
            return Err(InterpretError::AlreadyInterpreted { block: *block_ref });
        }
        let preds = dag.preds_of(block_ref);
        let pending: Vec<BlockRef> = preds
            .iter()
            .filter(|p| !self.is_interpreted(p))
            .copied()
            .collect();
        if !pending.is_empty() {
            return Err(InterpretError::NotEligible { pending });
        }

        let me = block.builder();

        // Line 4: PIs := deep copy of the parent's PIs.
        let parent = block
            .parent_via(|r| dag.meta(r))
            .expect("blocks in the DAG satisfy the parent rule");
        let mut pis: BTreeMap<Label, P> = match parent {
            Some(parent_ref) => self.states[&parent_ref].pis.clone(),
            None => BTreeMap::new(),
        };

        let mut active: BTreeSet<Label> = BTreeSet::new();
        for pred in &preds {
            active.extend(self.states[pred].active.iter().copied());
        }

        let mut outs: BTreeMap<Label, BTreeSet<Envelope<P::Message>>> = BTreeMap::new();
        let mut ins: BTreeMap<Label, BTreeSet<Envelope<P::Message>>> = BTreeMap::new();
        // Every envelope sent to `me` at this block, in the order sent.
        let mut to_me: Vec<(Label, Envelope<P::Message>)> = Vec::new();
        // Per label, the indications its handlers raised, in that order.
        let mut raised: BTreeMap<Label, Vec<P::Indication>> = BTreeMap::new();
        let config = self.config;

        // Lines 5–6: feed the block's own requests to B.n's instances.
        for labeled in block.requests() {
            let label = labeled.label;
            match decode_from_slice::<P::Request>(&labeled.payload) {
                Ok(request) => {
                    let instance = pis
                        .entry(label)
                        .or_insert_with(|| P::new(&config, label, me));
                    let mut outbox = Outbox::new(config);
                    instance.on_request(request, &mut outbox);
                    send(
                        me,
                        label,
                        outbox,
                        &mut outs,
                        &mut to_me,
                        &mut raised,
                        &mut self.stats,
                    );
                    active.insert(label);
                    self.stats.requests_processed += 1;
                }
                Err(_) => {
                    self.stats.malformed_requests += 1;
                }
            }
        }

        // Lines 7–11: collect and deliver in-messages in the order <_M —
        // those of other senders: what `me` sent itself is delivered at the
        // block that sent it, below.
        for label in active.iter().copied() {
            let mut inbox: BTreeSet<Envelope<P::Message>> = BTreeSet::new();
            for pred in &preds {
                if let Some(out) = self.states[pred].outs.get(&label) {
                    inbox.extend(
                        out.iter()
                            .filter(|e| e.receiver == me && e.sender != me)
                            .cloned(),
                    );
                }
            }
            if inbox.is_empty() {
                continue;
            }
            let instance = pis
                .entry(label)
                .or_insert_with(|| P::new(&config, label, me));
            for envelope in &inbox {
                let mut outbox = Outbox::new(config);
                instance.on_message(envelope.sender, envelope.message.clone(), &mut outbox);
                send(
                    me,
                    label,
                    outbox,
                    &mut outs,
                    &mut to_me,
                    &mut raised,
                    &mut self.stats,
                );
                self.stats.messages_delivered += 1;
            }
            ins.insert(label, inbox);
        }

        // The in-block self-link: each envelope sent to `me` at this block
        // joins `B.Ms[in, ℓ]` and is delivered here, first come first
        // served, once — the buffer is a set — and so is each one those
        // deliveries send `me`.
        let mut next = 0;
        while let Some((label, envelope)) = to_me.get(next).cloned() {
            next += 1;
            if !ins.entry(label).or_default().insert(envelope.clone()) {
                continue;
            }
            let instance = pis.get_mut(&label).expect("a sending instance");
            let mut outbox = Outbox::new(config);
            instance.on_message(me, envelope.message, &mut outbox);
            send(
                me,
                label,
                outbox,
                &mut outs,
                &mut to_me,
                &mut raised,
                &mut self.stats,
            );
            self.stats.messages_delivered += 1;
        }

        // Lines 13–14: surface the indications the instances driven here
        // raised, label by label, each label's in the order raised.
        for (label, indications) in raised {
            for indication in indications {
                self.stats.indications += 1;
                self.indications.push(Indication {
                    label,
                    indication,
                    server: me,
                    block: *block_ref,
                });
            }
        }

        // Line 12: I[B] := true.
        self.states.insert(
            *block_ref,
            ReferenceBlockState {
                pis,
                outs,
                ins,
                active,
            },
        );
        self.order.push(*block_ref);
        self.stats.blocks_interpreted += 1;
        Ok(())
    }

    /// Removes and returns the indications raised since the last drain.
    pub fn drain_indications(&mut self) -> Vec<Indication<P::Indication>> {
        std::mem::take(&mut self.indications)
    }
}

/// What Algorithm 1 lets an observer see of an instance's admission
/// state — the unit on which [`Gossip`] must equal [`ReferenceGossip`]
/// after the same schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionView {
    /// The DAG's insertion order: the promotion order, which fixes the
    /// bytes of the next sealed own block.
    pub order: Vec<BlockRef>,
    /// Rejections, in the order they were decided.
    pub rejected: Vec<(BlockRef, InvalidBlockError)>,
    /// Size of the `blks` buffer.
    pub pending: usize,
    /// Activity counters, with `pending_peak` and `blocks_evicted` zeroed
    /// (the oracle has no cap and does not track its peak).
    pub stats: GossipStats,
}

impl AdmissionView {
    /// The view of a production gossip instance.
    pub fn of(gossip: &Gossip) -> Self {
        AdmissionView {
            order: gossip.dag().refs().copied().collect(),
            rejected: gossip.rejected().to_vec(),
            pending: gossip.pending_len(),
            stats: GossipStats {
                pending_peak: 0,
                blocks_evicted: 0,
                ..*gossip.stats()
            },
        }
    }
}

/// An outstanding `FWD` request of the oracle.
#[derive(Debug, Default)]
struct ReferenceFwd {
    /// Builders of the buffered blocks that reference the missing block.
    candidates: BTreeSet<ServerId>,
    last_sent: Option<TimeMs>,
    /// The peer the last request went to.
    last_to: Option<ServerId>,
    attempts: u32,
}

/// The paper-literal admission half of Algorithm 1 (lines 4–11).
///
/// Every [`ReferenceGossip::on_blocks`] call inserts its arrivals into
/// `blks`, then repeatedly takes the smallest buffered reference whose
/// predecessors are all in `G`, checks Definition 3.3 with one
/// [`Verifier::verify`], and inserts or rejects it, until no buffered
/// block is ready — O(|blks|²) on adversarial orders. The `FWD` set is
/// then rebuilt by rescanning `blks` (line 10), keeping the retry timers
/// of references that stay missing. Retries wait as [`Gossip`]'s do, on a
/// [`RoundTrip`] fed by the same samples. No pending cap, no peer
/// defense, no eviction; it neither builds blocks nor answers `FWD`
/// requests, and it takes each block as delivered by its builder.
#[derive(Debug)]
pub struct ReferenceGossip {
    n: usize,
    /// `Δ_B'`: paces `FWD` retries.
    round_trip: RoundTrip,
    verifier: Verifier,
    dag: BlockDag,
    /// `blks`: received, not yet valid (line 3).
    blks: BTreeMap<BlockRef, Block>,
    fwd: BTreeMap<BlockRef, ReferenceFwd>,
    rejected: Vec<(BlockRef, InvalidBlockError)>,
    stats: GossipStats,
}

impl ReferenceGossip {
    /// An oracle for [`GossipConfig::n`] servers, retrying `FWD` requests
    /// as [`Gossip`] does, at most [`GossipConfig::seal_period_ms`] apart.
    /// The pending cap and the defense are ignored.
    pub fn new(config: GossipConfig, verifier: Verifier) -> Self {
        let round_trip = RoundTrip::new(config.seal_period_ms);
        ReferenceGossip {
            n: config.n,
            round_trip,
            verifier,
            dag: BlockDag::new(),
            blks: BTreeMap::new(),
            fwd: BTreeMap::new(),
            rejected: Vec::new(),
            stats: GossipStats {
                fwd_rto_ms: round_trip.rto(),
                ..GossipStats::default()
            },
        }
    }

    /// The DAG `G` built so far.
    pub fn dag(&self) -> &BlockDag {
        &self.dag
    }

    /// The comparison unit against [`AdmissionView::of`]: promotion
    /// order, rejections in decision order, `blks` size, and the activity
    /// counters (`pending_peak` and `blocks_evicted` stay zero).
    pub fn view(&self) -> AdmissionView {
        AdmissionView {
            order: self.dag.refs().copied().collect(),
            rejected: self.rejected.clone(),
            pending: self.blks.len(),
            stats: self.stats,
        }
    }

    /// Receives `blocks` at time `now` and returns the `FWD` requests now
    /// due. A call that buffers nothing new (duplicates, blocks rejected
    /// on receipt) changes no promotion or `FWD` state.
    pub fn on_blocks(
        &mut self,
        blocks: impl IntoIterator<Item = Block>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let mut buffered = false;
        for block in blocks {
            self.stats.blocks_received += 1;
            let block_ref = block.block_ref();
            if self.dag.contains(&block_ref) || self.blks.contains_key(&block_ref) {
                self.stats.duplicate_blocks += 1;
                continue;
            }
            // Arrived: no longer requested. Karn's rule: a request sent
            // once, answered by the peer it went to, is one round trip.
            if let Some(ReferenceFwd {
                attempts: 1,
                last_sent: Some(sent),
                last_to,
                ..
            }) = self.fwd.remove(&block_ref)
            {
                if last_to == Some(block.builder()) {
                    self.round_trip.sample(now.saturating_sub(sent));
                    self.stats.fwd_rto_ms = self.round_trip.rto();
                }
            }
            if block.builder().index() >= self.n {
                let claimed = block.builder();
                self.reject(block_ref, InvalidBlockError::UnknownBuilder { claimed });
            } else {
                self.blks.insert(block_ref, block);
                buffered = true;
            }
        }
        if !buffered {
            return Vec::new();
        }
        // Lines 6–9: upon B ∈ blks where valid(B), to a fixed point.
        while let Some(block_ref) = self.smallest_ready() {
            let Some(block) = self.blks.remove(&block_ref) else {
                break;
            };
            match self.check(&block) {
                Ok(()) => {
                    self.dag
                        .insert(block)
                        .expect("candidate has every pred in G");
                    self.stats.blocks_validated += 1;
                    self.fwd.remove(&block_ref);
                }
                Err(reason) => self.reject(block_ref, reason),
            }
        }
        self.rescan_missing();
        self.due_fwd_requests(now)
    }

    /// The smallest buffered reference whose predecessors are all in `G`.
    fn smallest_ready(&self) -> Option<BlockRef> {
        self.blks
            .iter()
            .find(|(_, block)| block.preds().iter().all(|p| self.dag.contains(p)))
            .map(|(block_ref, _)| *block_ref)
    }

    /// Definition 3.3 for a block with every predecessor in `G`:
    /// (i) `verify(B.n, B.σ)`, (ii) genesis or exactly one parent;
    /// (iii) holds because only valid blocks enter `G`.
    fn check(&self, block: &Block) -> Result<(), InvalidBlockError> {
        let builder = block.builder();
        let digest = block.block_ref().digest();
        if !self
            .verifier
            .verify(builder, digest.as_bytes(), &block.signature())
        {
            return Err(InvalidBlockError::BadSignature { claimed: builder });
        }
        let Some(parent_seq) = block.seq().prev() else {
            return Ok(());
        };
        let mut parents: Vec<BlockRef> = Vec::new();
        for pred in block.preds() {
            if self.dag.meta(pred) == Some((builder, parent_seq)) && !parents.contains(pred) {
                parents.push(*pred);
            }
        }
        match parents.as_slice() {
            [_] => Ok(()),
            [] => Err(InvalidBlockError::MissingParent {
                builder,
                seq: block.seq(),
            }),
            [first, second, ..] => Err(InvalidBlockError::MultipleParents {
                builder,
                parents: (*first, *second),
            }),
        }
    }

    /// A judged block is no longer requested; if buffered blocks still
    /// reference a rejected one, the rescan lists it again, fresh.
    fn reject(&mut self, block_ref: BlockRef, reason: InvalidBlockError) {
        self.stats.invalid_blocks += 1;
        self.rejected.push((block_ref, reason));
        self.fwd.remove(&block_ref);
    }

    /// Line 10: `B ∈ B'.preds` with `B' ∈ blks`, `B ∉ blks`, `B ∉ G`.
    fn rescan_missing(&mut self) {
        let mut wanted: BTreeMap<BlockRef, BTreeSet<ServerId>> = BTreeMap::new();
        for block in self.blks.values() {
            for pred in block.preds() {
                if !self.dag.contains(pred) && !self.blks.contains_key(pred) {
                    wanted.entry(*pred).or_default().insert(block.builder());
                }
            }
        }
        self.fwd
            .retain(|block_ref, _| wanted.contains_key(block_ref));
        for (block_ref, candidates) in wanted {
            self.fwd
                .entry(block_ref)
                .or_default()
                .candidates
                .extend(candidates);
        }
    }

    /// Line 11: ask a builder of a referencing block, again once the
    /// retry wait is over, rotating through the candidates.
    fn due_fwd_requests(&mut self, now: TimeMs) -> Vec<NetCommand> {
        let mut commands = Vec::new();
        let mut retried = false;
        for (block_ref, request) in &mut self.fwd {
            let peers = request.candidates.len();
            if request.last_sent.is_some_and(|last| {
                now.saturating_sub(last) < self.round_trip.retry_wait(request.attempts, peers)
            }) {
                continue;
            }
            let rotation = request.attempts as usize % peers.max(1);
            let Some(to) = request.candidates.iter().nth(rotation) else {
                continue;
            };
            commands.push(NetCommand::SendTo {
                to: *to,
                message: NetMessage::FwdRequest(*block_ref),
            });
            retried |= request.attempts > 0;
            request.last_sent = Some(now);
            request.last_to = Some(*to);
            request.attempts += 1;
            self.stats.fwd_sent += 1;
        }
        if retried {
            self.round_trip.time_out();
            self.stats.fwd_rto_ms = self.round_trip.rto();
        }
        commands
    }
}
