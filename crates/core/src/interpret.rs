//! Interpreting a protocol on the block DAG — Algorithm 2 of the paper.
//!
//! Every server interprets the protocol `P` embedded in its local DAG `G`,
//! completely decoupled from building the DAG. To interpret one protocol
//! instance labeled `ℓ`, the server locally runs one process instance of
//! `P(ℓ)` for *every* server, and drives these simulations from the
//! structure of the DAG:
//!
//! * a request `(ℓ, r) ∈ B.rs` is fed to the instance of `B.n`
//!   (lines 5–6);
//! * an edge `B_i ⇀ B` materializes the delivery, to `B.n`'s instance, of
//!   every message in `B_i.Ms[out, ℓ]` addressed to `B.n` (lines 8–11), in
//!   the global total order `<_M`;
//! * the instance state `PIs` flows along parent edges (line 4).
//!
//! None of the materialized messages is ever sent over the network: they
//! are recomputed locally thanks to `P`'s determinism — the paper's
//! *message compression up to omission* (§4). Because interpretation only
//! reads `G` and `P` is deterministic, every server reaches exactly the
//! same states (Lemma 4.2), which is what makes the DAG an authenticated
//! perfect point-to-point link (Lemma 4.3).
//!
//! Interpretation order is admission order. Restrictive insertion
//! (Definition 2.1) admits a block only after all its predecessors, so a
//! DAG's insertion order is a topological order (Lemma 2.2) in which every
//! block is `eligible` when reached (Lemma A.10). [`Interpreter::step`] is
//! one pass over it from a cursor; the interpreter schedules nothing
//! itself, and its [`Interpreter::interpreted_order`] is the DAG's — on a
//! durable server the journal's — order, whether blocks arrived one at a
//! time, in a burst, or at recovery.
//!
//! # One arena, one moved view per chain, one delta per block
//!
//! Algorithm 2's line 4 says `PIs := B_parent.PIs` — a *copy* of the whole
//! instance map per block. Taken literally (see [`crate::reference`] for
//! that transcription), memory and clone cost grow as
//! O(blocks × labels ever seen × instance size), the unbounded-memory
//! limitation the paper itself flags in §7. This interpreter keeps
//! `B.PIs` in three pieces instead:
//!
//! * one append-only **arena** owns every instance version the
//!   interpreter has made, addressed by slot. It is a list of
//!   fixed-capacity chunks, so growing it never moves an instance;
//! * every interpreted block stores only its **delta**: the
//!   `Label → slot` entries Algorithm 2 drove *at* that block — a request
//!   for the label appears in `B.rs` (lines 5–6) or a predecessor's
//!   out-buffer delivers a message to `B.n` (lines 8–11);
//! * every **chain tip** (an interpreted block no interpreted block names
//!   as its parent) owns one mutable **view**, the full `Label → slot`
//!   map at that block, a hash map. Interpreting a child *moves* the
//!   parent's view to the child and repoints the touched entries, so a
//!   block costs the labels it touches, not the labels its chain has ever
//!   seen.
//!
//! Copy-on-write is one rule. A block notes the arena's length when it
//! starts; every slot below that mark belongs to an earlier block and is
//! never written again. The first touch of a label at a block pushes a
//! clone of the version its view names (or, on first contact, a new
//! instance) and repoints the view; later touches at the same block drive
//! that slot in place. Each touch is one probe of the view, and it returns
//! the slot it resolved: the block's delta is those `(label, slot)` pairs,
//! sorted and deduplicated.
//!
//! `B.PIs[ℓ]` at any block is the newest delta entry for `ℓ` on the
//! parent chain ending at `B` ([`Interpreter::instance_at`]). A block that
//! finds its parent's view gone — the second child of one parent (an
//! equivocation), out-of-band [`Interpreter::interpret_block`] calls, the
//! first block after a snapshot restore — rebuilds it by that same walk,
//! newest block first, where the first insert of a label wins:
//! O(touches on the chain), paid only on those paths.
//!
//! Labels are chosen by whoever inscribes a request, byzantine builders
//! included, so a view hashes with the standard library's randomly keyed
//! hasher, not a fixed-key one whose collisions could be precomputed. The
//! key differs per map and per run, and so does a view's iteration order:
//! nothing may iterate a view into an output. Views are only probed by
//! key, and the one reader that lists a view's labels,
//! [`Interpreter::instance_labels_at`], sorts them — so interpretation
//! stays a pure function of the DAG (Lemma 4.2).
//!
//! [`Interpreter::footprint`] makes the saving measurable from running
//! counters: `instances` sums the view size over all blocks (what the
//! literal interpreter would store), `unique_instances` sums the delta
//! sizes (what is actually resident).
//!
//! `B.Ms[in, ·]` is not stored at all: it is a pure function of the direct
//! predecessors' out-buffers ([`Interpreter::in_messages`]), assembled
//! when `B` is interpreted and derived again whenever someone asks.
//! Out-buffers, deltas and arena slots are never dropped: any future
//! block — including a byzantine server's — may still reference an old
//! block directly (§7). Nothing is shared, so nothing is counted: the
//! interpreter is the one owner, and dropping it frees every chunk.
//!
//! # A touch costs a touch
//!
//! A *touch* is one label driven at one block. Everything a touch writes
//! goes into flat storage that is sized by the block, not by the message:
//!
//! * `B.Ms[out, ·]` is one vector of **out-buffer entries** per block:
//!   `(label, (message, receivers))`, one entry per distinct message, with
//!   the [`ServerSet`] of every server it goes to. Every sender is `B.n`,
//!   stored once per block. A broadcast is one entry, not `n` envelopes.
//!   The handlers' messages are appended as they are produced — through
//!   **one** [`Outbox`] per block, drained after every handler call — and
//!   the vector is sorted by `(label, message)` once, when the block is
//!   done, merging the entries of one message into one with the union of
//!   their receivers. Algorithm 2's buffers are *sets* of envelopes: a
//!   handler that emits a value-equal envelope twice stores it once
//!   ([`InterpretStats::messages_materialized`] still counts both), and
//!   [`BlockState::out_messages`] expands the entries back into envelopes.
//!   A label whose instance was driven but sent nothing has no entry at
//!   all.
//! * `B.Ms[in, ·]` is one merged inbox per block: the entries whose
//!   receivers include `B.n` are picked from each predecessor's out-vector
//!   in one pass, as `(label, sender, message)` — at most |preds| runs,
//!   each already in that order, which is `(label, <_M)` — merged, and
//!   deduplicated **by value**: two predecessors by one builder (the
//!   parent and an older block, or two equivocating siblings) can hold
//!   value-equal messages, and the set union of lines 8–10 delivers one.
//!   The inbox is walked in label groups, one instance lookup per group.
//! * the delta is a label-sorted vector of `(label, slot)`, built from
//!   the slots the block's touches returned: no second view lookup.
//!
//! What is left per touch is the one instance copy that keeping per-block
//! versions makes inherent — written into the arena's current chunk, so
//! the heap sees one allocation per chunk, not one per touch — plus
//! whatever `P`'s clone itself allocates. `tests/interpret_alloc_budget.rs`
//! holds the total to a pinned budget of heap allocations per touch on a
//! BRB payments run, and a snapshot restore to a budget per stored
//! instance.
//!
//! A snapshot (format 3, [`Interpreter::encode_snapshot`]) writes the same
//! shapes: the [`ProtocolConfig`] once, then per block its parent, builder,
//! delta and out-buffer entries, each entry once with its receiver set.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::{Index, IndexMut};

use dagbft_codec::{decode_from_slice, DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::ServerId;

use crate::block::BlockRef;
use crate::dag::BlockDag;
use crate::label::Label;
use crate::protocol::{
    DeterministicProtocol, Envelope, Outbox, ProtocolConfig, ServerSet, SnapshotProtocol,
};

/// An indication `(ℓ, i, s)` raised while interpreting: instance `ℓ` of the
/// *simulated* server `s` indicated `i` (Algorithm 2, lines 13–14).
///
/// The shim forwards only indications with `s = me` to the user
/// (Algorithm 3, line 8); the rest are observable for auditing.
#[derive(Debug, Clone, PartialEq)]
pub struct Indication<I> {
    /// The protocol instance that indicated.
    pub label: Label,
    /// The indication `i ∈ Inds_P`.
    pub indication: I,
    /// The simulated server on whose behalf the indication was produced.
    pub server: ServerId,
}

/// Errors from explicit single-block interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpretError {
    /// The reference does not resolve in the provided DAG.
    UnknownBlock {
        /// The unresolved reference.
        block: BlockRef,
    },
    /// The block has uninterpreted predecessors (`eligible(B)` is false).
    NotEligible {
        /// The predecessors still awaiting interpretation.
        pending: Vec<BlockRef>,
    },
    /// `I[B]` already holds; a block is interpreted exactly once.
    AlreadyInterpreted {
        /// The block in question.
        block: BlockRef,
    },
    /// The block violates the parent rule (Definition 3.3 (ii)): it is not
    /// `valid`, so Algorithm 2 has no `B_parent.PIs` to start from. Gossip
    /// never admits such a block; a hand-built or tampered-journal DAG can
    /// still hold one.
    InvalidParent {
        /// The offending block.
        block: BlockRef,
    },
}

impl fmt::Display for InterpretError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpretError::UnknownBlock { block } => write!(f, "unknown block {block}"),
            InterpretError::NotEligible { pending } => {
                write!(
                    f,
                    "block not eligible: {} preds uninterpreted",
                    pending.len()
                )
            }
            InterpretError::AlreadyInterpreted { block } => {
                write!(f, "block {block} already interpreted")
            }
            InterpretError::InvalidParent { block } => {
                write!(f, "block {block} violates the parent rule")
            }
        }
    }
}

impl Error for InterpretError {}

/// The position of one instance version in the interpreter's [`Arena`].
type Slot = usize;

/// Instance versions per arena chunk. A chunk is allocated at this
/// capacity and never grows. `crates/core/tests/reference_equivalence.rs`
/// names the same figure to cross chunk boundaries on purpose.
const CHUNK: usize = 1024;

/// Every instance version an interpreter holds, owned in one place and
/// addressed by [`Slot`]: deltas and views store slots. Append-only, in
/// chunks of [`CHUNK`], so a push never moves an instance already there.
#[derive(Debug)]
struct Arena<P> {
    chunks: Vec<Vec<P>>,
}

impl<P> Arena<P> {
    fn new() -> Self {
        Arena { chunks: Vec::new() }
    }

    /// The slot the next push will fill.
    fn len(&self) -> Slot {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Stores `instance` in the next slot and returns that slot.
    fn push(&mut self, instance: P) -> Slot {
        let slot = self.len();
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(instance),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(instance);
                self.chunks.push(chunk);
            }
        }
        slot
    }
}

impl<P> Index<Slot> for Arena<P> {
    type Output = P;

    fn index(&self, slot: Slot) -> &P {
        &self.chunks[slot / CHUNK][slot % CHUNK]
    }
}

impl<P> IndexMut<Slot> for Arena<P> {
    fn index_mut(&mut self, slot: Slot) -> &mut P {
        &mut self.chunks[slot / CHUNK][slot % CHUNK]
    }
}

/// A chain tip's view of `B.PIs`: the full `Label → instance` map at that
/// block, as arena slots shared with the deltas of the blocks that wrote
/// them. Randomly keyed and only ever probed by key: its iteration order
/// differs between runs and must reach no output (see the module docs).
type Instances = HashMap<Label, Slot>;

/// `B.Ms[out, ·]`: one entry per distinct message with its label and every
/// server it is addressed to, sorted by `(label, message)` and free of
/// repeats. The sender of every entry is the block's builder. A label that
/// sent nothing has no entry.
type Buffer<M> = Vec<(Label, (M, ServerSet))>;

/// Puts a block's out-buffer into its stored form. `Ms[out, ℓ]` is a set of
/// envelopes: the entries of one message merge into one with the union of
/// their receivers, and an entry with no receiver is dropped.
fn normalize<M: Ord>(outs: &mut Buffer<M>) {
    outs.retain(|(_, (_, receivers))| !receivers.is_empty());
    outs.sort_unstable_by(|(a, (m, _)), (b, (n, _))| (a, m).cmp(&(b, n)));
    outs.dedup_by(
        |(label, (message, receivers)), (kept_label, (kept, into))| {
            let repeat = label == kept_label && message == kept;
            if repeat {
                into.union_with(receivers);
            }
            repeat
        },
    );
    outs.shrink_to_fit();
}

/// The number of envelopes `outs` holds: every entry once per receiver.
fn envelope_count<M>(outs: &Buffer<M>) -> usize {
    outs.iter().map(|(_, (_, receivers))| receivers.len()).sum()
}

/// The run of `label`'s entries in a label-sorted slice.
fn label_range<T>(entries: &[(Label, T)], label: Label) -> &[(Label, T)] {
    let start = entries.partition_point(|(held, _)| *held < label);
    let len = entries[start..].partition_point(|(held, _)| *held == label);
    &entries[start..start + len]
}

/// Interpretation state attached to one block `B`: the part of `B.PIs`
/// driven at `B`, plus `B.Ms[out, ·]` in the paper's notation. Both hold
/// only what was produced *at* this block; the rest of `B.PIs` is on the
/// parent chain, and `B.Ms[in, ·]` is derived from the predecessors'
/// out-buffers ([`Interpreter::in_messages`]; see the module docs).
#[derive(Debug, Clone)]
pub struct BlockState<P: DeterministicProtocol> {
    /// `B.parent`, by which [`Interpreter::instance_at`] and view rebuilds
    /// walk the chain. Always interpreted before `B`.
    parent: Option<BlockRef>,
    /// `B.n`: the sender of every message in `outs`.
    builder: ServerId,
    /// `B.PIs[ℓ]` for the labels touched here: the state of process
    /// instance `ℓ` of server `B.n` *after* interpreting `B`. Instances
    /// are created lazily on first request or message (the implementation
    /// refinement the paper notes in §4). Sorted by label, one entry each,
    /// naming the instance's arena slot.
    delta: Vec<(Label, Slot)>,
    /// `B.Ms[out, ℓ]`: messages sent by `B.n`'s instance at this block,
    /// each once with its receivers.
    outs: Buffer<P::Message>,
}

impl<P: DeterministicProtocol> BlockState<P> {
    /// Labels whose instance this block drove (fed a request or delivered
    /// a message to) — the block's delta, in label order.
    pub fn touched_labels(&self) -> impl Iterator<Item = &Label> {
        self.delta.iter().map(|(label, _)| label)
    }

    /// Out-going messages `B.Ms[out, ℓ]` produced at this block, one
    /// envelope per receiver, in the order `<_M`.
    pub fn out_messages(&self, label: Label) -> impl Iterator<Item = Envelope<P::Message>> {
        let sender = self.builder;
        let mut envelopes: Vec<_> = label_range(&self.outs, label)
            .iter()
            .flat_map(|(_, (message, receivers))| {
                receivers.iter().map(move |receiver| Envelope {
                    sender,
                    receiver,
                    message: message.clone(),
                })
            })
            .collect();
        envelopes.sort_unstable();
        envelopes.into_iter()
    }

    /// This block's delta entry for `label`, if it drove that instance.
    fn instance(&self, label: Label) -> Option<Slot> {
        label_range(&self.delta, label)
            .first()
            .map(|(_, slot)| *slot)
    }
}

/// Approximate memory footprint of an interpreter (see
/// [`Interpreter::footprint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpreterFootprint {
    /// Interpreted blocks with stored state.
    pub blocks: usize,
    /// Size of `B.PIs` summed across all interpreted blocks — what a
    /// clone-per-block interpreter would hold as full instance copies.
    pub instances: usize,
    /// Instance states actually resident: the per-block deltas, summed.
    /// This is ≪ `instances` on long DAGs: only blocks that *touch* a
    /// label store its instance.
    pub unique_instances: usize,
    /// Envelopes in out-buffers: every stored message once per receiver.
    pub out_envelopes: usize,
    /// Out-buffer entries: every stored message once, with its receiver
    /// set. A broadcast to `n` servers is one entry and `n` envelopes.
    pub out_entries: usize,
}

impl InterpreterFootprint {
    /// `instances / unique_instances`: how many blocks' `B.PIs` the average
    /// resident instance serves. 1.0 means no sharing.
    pub fn sharing_ratio(&self) -> f64 {
        if self.unique_instances == 0 {
            return 1.0;
        }
        self.instances as f64 / self.unique_instances as f64
    }
}

impl std::ops::AddAssign for InterpreterFootprint {
    /// Field-wise sum, for aggregating over several interpreters (e.g. all
    /// servers of a simulation).
    fn add_assign(&mut self, rhs: InterpreterFootprint) {
        self.blocks += rhs.blocks;
        self.instances += rhs.instances;
        self.unique_instances += rhs.unique_instances;
        self.out_envelopes += rhs.out_envelopes;
        self.out_entries += rhs.out_entries;
    }
}

/// Counters describing an interpreter's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpretStats {
    /// Blocks interpreted (`I[B]` set).
    pub blocks_interpreted: u64,
    /// Requests fed to instances (line 6).
    pub requests_processed: u64,
    /// Requests whose payload failed to decode as `P::Request` (byzantine
    /// garbage; skipped — `P` never sees them).
    pub malformed_requests: u64,
    /// Messages materialized into out-buffers. These messages were *never*
    /// sent over the network (the compression claim, §4).
    pub messages_materialized: u64,
    /// Messages delivered from in-buffers to instances (line 11).
    pub messages_delivered: u64,
    /// Indications raised across all simulated servers.
    pub indications: u64,
}

/// The `interpret(G, P)` module of Algorithm 2, with `B.PIs` kept as one
/// moved view per chain plus one delta per block (see the module docs).
///
/// The interpreter never mutates the DAG; it tracks which blocks it has
/// interpreted (`I[B]`, line 2) and owns the per-block protocol state. Feed
/// it a growing DAG via [`Interpreter::step`].
///
/// # Examples
///
/// See the crate-level docs; the interpreter is normally driven through
/// [`crate::Shim`].
#[derive(Debug)]
pub struct Interpreter<P: DeterministicProtocol> {
    config: ProtocolConfig,
    states: HashMap<BlockRef, BlockState<P>>,
    /// Every instance version the deltas and views name.
    arena: Arena<P>,
    /// The full `B.PIs` of every chain tip `B` that has one; moved to the
    /// child when a tip is extended, rebuilt from deltas when missing.
    views: HashMap<BlockRef, Instances>,
    /// Running totals behind [`Interpreter::footprint`].
    footprint: InterpreterFootprint,
    /// Interpretation order (for audits; any eligible-respecting order
    /// yields identical states, Lemma 4.2).
    order: Vec<BlockRef>,
    indications: Vec<Indication<P::Indication>>,
    stats: InterpretStats,
    /// [`Interpreter::step`]'s cursor into the DAG's insertion order.
    scanned: usize,
}

impl<P: DeterministicProtocol> Interpreter<P> {
    /// Creates an interpreter for the given protocol configuration.
    pub fn new(config: ProtocolConfig) -> Self {
        Interpreter {
            config,
            states: HashMap::new(),
            arena: Arena::new(),
            views: HashMap::new(),
            footprint: InterpreterFootprint::default(),
            order: Vec::new(),
            indications: Vec::new(),
            stats: InterpretStats::default(),
            scanned: 0,
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
    pub fn state(&self, block: &BlockRef) -> Option<&BlockState<P>> {
        self.states.get(block)
    }

    /// Blocks interpreted so far, in interpretation order.
    pub fn interpreted_order(&self) -> &[BlockRef] {
        &self.order
    }

    /// The interpreted blocks from `block` back to its chain's genesis:
    /// `block`, its parent, its parent's parent, …
    fn chain(&self, block: &BlockRef) -> impl Iterator<Item = &BlockState<P>> {
        std::iter::successors(self.states.get(block), |state| {
            state
                .parent
                .as_ref()
                .and_then(|parent| self.states.get(parent))
        })
    }

    /// `B.PIs[ℓ]`: the simulated instance of `label` for `block`'s builder
    /// after interpreting `block`, if it has been started — the newest
    /// delta entry on the parent chain. Walks the chain; for tests and
    /// audits.
    pub fn instance_at(&self, block: &BlockRef, label: Label) -> Option<&P> {
        self.chain(block)
            .find_map(|state| state.instance(label))
            .map(|slot| &self.arena[slot])
    }

    /// Labels with a started instance at `block` (the keys of `B.PIs`), in
    /// label order. Walks the chain; for tests and audits.
    pub fn instance_labels_at(&self, block: &BlockRef) -> Vec<Label> {
        let mut labels: Vec<Label> = self.view_at(block).into_keys().collect();
        labels.sort_unstable();
        labels
    }

    /// `B.PIs` in full, rebuilt from the chain's deltas: newest entry wins.
    /// The chain is walked newest block first, so the first insert of each
    /// label is the one.
    fn view_at(&self, block: &BlockRef) -> Instances {
        let mut view = Instances::new();
        for state in self.chain(block) {
            for &(label, slot) in &state.delta {
                view.entry(label).or_insert(slot);
            }
        }
        view
    }

    /// `B.Ms[in, ·]` for a block built by `me` with direct predecessors
    /// `preds` (Algorithm 2, lines 8–10): `(label, sender, message)` for
    /// every out-buffer entry of a predecessor whose receivers include
    /// `me` — of every label, or of `only` one — sorted by `(label, <_M)`.
    /// The union is a set: a message that two predecessors by one builder
    /// hold by value is delivered once.
    fn inbox<'a>(
        states: &'a HashMap<BlockRef, BlockState<P>>,
        preds: &[BlockRef],
        me: ServerId,
        only: Option<Label>,
    ) -> Vec<(Label, ServerId, &'a P::Message)> {
        let mut inbox: Vec<_> = preds
            .iter()
            .filter_map(|pred| states.get(pred))
            .flat_map(|state| {
                let outs = match only {
                    Some(label) => label_range(&state.outs, label),
                    None => &state.outs,
                };
                outs.iter()
                    .filter(move |(_, (_, receivers))| receivers.contains(me))
                    .map(|(label, (message, _))| (*label, state.builder, message))
            })
            .collect();
        // One sorted run per predecessor (its sender is fixed): the stable
        // sort finds the runs and merges them.
        inbox.sort();
        inbox.dedup();
        inbox
    }

    /// In-coming messages `B.Ms[in, ℓ]` of `block`: what interpreting it
    /// delivers (or delivered) to its builder's instance of `label`, in
    /// delivery order. Derived from the predecessors' out-buffers, not
    /// stored — so it reads the same on an interpreter restored from a
    /// snapshot. Empty for a block `dag` does not hold.
    pub fn in_messages(
        &self,
        dag: &BlockDag,
        block: &BlockRef,
        label: Label,
    ) -> impl Iterator<Item = Envelope<P::Message>> + '_ {
        let preds = dag.preds_of(block);
        dag.get(block)
            .map(|block| {
                let receiver = block.builder();
                Self::inbox(&self.states, &preds, receiver, Some(label))
                    .into_iter()
                    .map(move |(_, sender, message)| Envelope {
                        sender,
                        receiver,
                        message: message.clone(),
                    })
            })
            .into_iter()
            .flatten()
    }

    /// The blocks currently eligible — `I[B]` is false and `I[B_i]` holds
    /// for every `B_i ∈ B.preds` (Algorithm 2, line 3) — in insertion order,
    /// by a scan of the whole DAG: for tests and audits that drive
    /// [`Interpreter::interpret_block`] themselves. `step` never asks.
    pub fn eligible(&self, dag: &BlockDag) -> Vec<BlockRef> {
        dag.refs()
            .filter(|r| !self.is_interpreted(r))
            .filter(|r| dag.preds_of(r).iter().all(|p| self.is_interpreted(p)))
            .copied()
            .collect()
    }

    /// Interprets every block appended to `dag` since the last call, in
    /// the order the DAG admitted them, and returns how many. That order is
    /// topological (Definition 2.1), so one pass is the fixed point
    /// (Lemma A.10; see the module docs).
    ///
    /// Every call on one interpreter must pass the *same, append-only* DAG
    /// (or a grown copy of it, `G ≤ G'`): the cursor indexes its insertion
    /// order. A block already interpreted ([`Interpreter::interpret_block`])
    /// is passed over; one that breaks the parent rule (gossip admits none)
    /// is not `valid` and stays uninterpreted, with everything built on it.
    pub fn step(&mut self, dag: &BlockDag) -> usize {
        let mut total = 0;
        for block_ref in dag.refs().skip(self.scanned) {
            self.scanned += 1;
            if self.interpret_block(dag, block_ref).is_ok() {
                total += 1;
            }
        }
        total
    }

    /// The slot of `label`'s instance in `view`, and a mutable handle on
    /// it, for a block whose own versions start at slot `fresh`: a slot
    /// below `fresh` belongs to an earlier block, so it is cloned into a
    /// new slot and the view repointed; a slot at or above it is this
    /// block's and is driven in place; a label the view lacks starts a new
    /// instance.
    fn touch<'a>(
        arena: &'a mut Arena<P>,
        fresh: Slot,
        view: &mut Instances,
        config: &ProtocolConfig,
        label: Label,
        me: ServerId,
    ) -> (Slot, &'a mut P) {
        let slot = match view.entry(label) {
            Entry::Occupied(mut held) => {
                if *held.get() < fresh {
                    let copy = arena[*held.get()].clone();
                    held.insert(arena.push(copy));
                }
                *held.get()
            }
            Entry::Vacant(new) => *new.insert(arena.push(P::new(config, label, me))),
        };
        (slot, &mut arena[slot])
    }

    /// Interprets a single eligible block (Algorithm 2, lines 4–12).
    ///
    /// Line 4 (`PIs := B_parent.PIs`) moves the parent's view here; only
    /// labels touched at this block — requests fed (lines 5–6) or messages
    /// delivered (lines 8–11) — are cloned into the arena on first write
    /// and recorded as the block's delta.
    ///
    /// # Errors
    ///
    /// * [`InterpretError::UnknownBlock`] — `block` not in `dag`;
    /// * [`InterpretError::AlreadyInterpreted`] — `I[B]` already holds;
    /// * [`InterpretError::NotEligible`] — some predecessor uninterpreted;
    /// * [`InterpretError::InvalidParent`] — `block` breaks the parent rule.
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
        // The parent is one of the predecessors, hence interpreted.
        let parent = block
            .parent_via(|r| dag.meta(r))
            .map_err(|_| InterpretError::InvalidParent { block: *block_ref })?;

        let me = block.builder();

        // Line 4: PIs := the parent's PIs — its view, moved. Only a parent
        // that is no longer (or, after a restore, not yet) a tip with a
        // view pays for a rebuild. Genesis blocks (and, for lazily created
        // labels, first contact) start fresh instances.
        let mut view = match &parent {
            Some(parent) => match self.views.remove(parent) {
                Some(view) => view,
                None => self.view_at(parent),
            },
            None => Instances::new(),
        };

        let mut outs: Buffer<P::Message> = Vec::new();
        // Every touch's `(label, slot)`: sorted and deduplicated, the delta.
        let mut delta: Vec<(Label, Slot)> = Vec::new();
        let mut outbox = Outbox::new();
        let config = self.config;
        // Every slot from here on is this block's own.
        let fresh = self.arena.len();

        // Lines 5–6: feed the block's own requests to B.n's instances.
        for labeled in block.requests() {
            let label = labeled.label;
            match decode_from_slice::<P::Request>(&labeled.payload) {
                Ok(request) => {
                    let (slot, instance) =
                        Self::touch(&mut self.arena, fresh, &mut view, &config, label, me);
                    instance.on_request(request, &mut outbox);
                    outs.extend(outbox.drain().map(|(to, message)| (label, (message, to))));
                    delta.push((label, slot));
                    self.stats.requests_processed += 1;
                }
                Err(_) => {
                    // A byzantine builder inscribed bytes that are not a
                    // request of P. P assumes requests are authentic
                    // (§5); garbage never reaches it.
                    self.stats.malformed_requests += 1;
                }
            }
        }

        // Lines 7–11: collect the in-messages addressed to B.n from the
        // direct predecessors' out-buffers and deliver them label by
        // label, each label's in the total order <_M. Line 7 ranges over
        // every label requested at an ancestor, but only labels some
        // predecessor actually sent on can have a non-empty inbox, so
        // walking the merged inbox is observationally identical (the
        // retained reference interpreter iterates the full set; the
        // equivalence suite pins this) and keeps delivery cost
        // proportional to traffic, not to the lifetime label count.
        let inbox = Self::inbox(&self.states, &preds, me, None);
        for group in inbox.chunk_by(|a, b| a.0 == b.0) {
            let label = group[0].0;
            let (slot, instance) =
                Self::touch(&mut self.arena, fresh, &mut view, &config, label, me);
            for (_, sender, message) in group {
                instance.on_message(*sender, (*message).clone(), &mut outbox);
                outs.extend(outbox.drain().map(|(to, message)| (label, (message, to))));
            }
            delta.push((label, slot));
        }
        self.stats.messages_delivered += inbox.len() as u64;
        // The counter is of messages made; the buffer is a set.
        self.stats.messages_materialized += envelope_count(&outs) as u64;
        normalize(&mut outs);
        // Every touch of one label at this block returned the same slot.
        delta.sort_unstable_by_key(|(label, _)| *label);
        delta.dedup_by_key(|(label, _)| *label);

        // Lines 13–14: surface indications from the instances driven here,
        // label by label. Every delta slot is this block's own, so it is
        // drained in place.
        for &(label, slot) in &delta {
            for indication in self.arena[slot].drain_indications() {
                self.stats.indications += 1;
                self.indications.push(Indication {
                    label,
                    indication,
                    server: me,
                });
            }
        }

        // Line 12: I[B] := true.
        self.footprint.blocks += 1;
        self.footprint.instances += view.len();
        self.footprint.unique_instances += delta.len();
        self.footprint.out_envelopes += envelope_count(&outs);
        self.footprint.out_entries += outs.len();
        self.views.insert(*block_ref, view);
        self.states.insert(
            *block_ref,
            BlockState {
                parent,
                builder: me,
                delta,
                outs,
            },
        );
        self.order.push(*block_ref);
        self.stats.blocks_interpreted += 1;
        Ok(())
    }

    /// Approximate memory footprint: stored protocol instances (what the
    /// literal Algorithm 2 would hold *and* what is resident) and
    /// out-envelopes across all interpreted blocks. Used by the
    /// bounded-memory experiments. O(1): the totals are maintained as
    /// blocks are interpreted.
    ///
    /// `instances` is what a clone-per-block interpreter would store;
    /// `unique_instances` is what this interpreter actually keeps —
    /// their ratio is the saving.
    pub fn footprint(&self) -> InterpreterFootprint {
        self.footprint
    }

    /// Removes and returns the indications raised since the last drain.
    pub fn drain_indications(&mut self) -> Vec<Indication<P::Indication>> {
        std::mem::take(&mut self.indications)
    }
}

/// Errors decoding a persisted interpreter snapshot.
///
/// Corrupt snapshot bytes always map here — decoding never panics; recovery
/// can fall back to genesis replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot bytes do not decode.
    Corrupt(DecodeError),
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u8),
    /// The snapshot was taken under a different `(n, f)` configuration.
    ConfigMismatch {
        /// `n` recorded in the snapshot.
        n: u64,
        /// `f` recorded in the snapshot.
        f: u64,
    },
    /// The snapshot's interpretation order repeats a block, or a block's
    /// parent index does not point at an earlier block of it.
    BadIndex,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Corrupt(err) => write!(f, "corrupt snapshot: {err}"),
            SnapshotError::UnsupportedVersion(version) => {
                write!(f, "unsupported snapshot version {version}")
            }
            SnapshotError::ConfigMismatch { n, f: faults } => {
                write!(
                    f,
                    "snapshot taken under different config (n={n}, f={faults})"
                )
            }
            SnapshotError::BadIndex => write!(f, "snapshot block order or parent index invalid"),
        }
    }
}

impl Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(err: DecodeError) -> Self {
        SnapshotError::Corrupt(err)
    }
}

/// Snapshot format version written by [`Interpreter::encode_snapshot`].
/// Format 3 writes each out-buffer entry once with its receiver set, and
/// the protocol configuration once per snapshot; format 2 wrote one
/// envelope per receiver and the configuration in every instance.
const SNAPSHOT_VERSION: u8 = 3;

impl<P: SnapshotProtocol> Interpreter<P>
where
    P::Message: WireEncode + WireDecode,
{
    /// Serializes the complete interpretation state — order, counters, and
    /// per block its parent, builder, delta and out-buffer entries — so a
    /// snapshot costs what is actually resident, not blocks × labels. Tip
    /// views are not written: they are rebuilt from the deltas on first
    /// use.
    ///
    /// Must be called with [`Interpreter::drain_indications`] drained:
    /// undrained indications are not captured.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        debug_assert!(
            self.indications.is_empty(),
            "drain indications before snapshotting"
        );
        let mut out = vec![SNAPSHOT_VERSION];
        (self.config.n as u64).encode(&mut out);
        (self.config.f as u64).encode(&mut out);
        self.order.encode(&mut out);
        for counter in [
            self.stats.blocks_interpreted,
            self.stats.requests_processed,
            self.stats.malformed_requests,
            self.stats.messages_materialized,
            self.stats.messages_delivered,
            self.stats.indications,
            self.footprint.instances as u64,
        ] {
            counter.encode(&mut out);
        }
        // Per block, in interpretation order. The parent is written as its
        // 1-based position in that order (0 for a genesis block).
        let position: HashMap<&BlockRef, u64> = self.order.iter().zip(1..).collect();
        for block_ref in &self.order {
            let state = &self.states[block_ref];
            state
                .parent
                .as_ref()
                .map_or(0, |parent| position[parent])
                .encode(&mut out);
            state.builder.encode(&mut out);
            (state.delta.len() as u32).encode(&mut out);
            for (label, slot) in &state.delta {
                label.encode(&mut out);
                self.arena[*slot].encode_state(&mut out);
            }
            (state.outs.len() as u32).encode(&mut out);
            for (label, (message, receivers)) in &state.outs {
                label.encode(&mut out);
                message.encode(&mut out);
                receivers.encode(&mut out);
            }
        }
        out
    }

    /// Rebuilds an interpreter from [`Interpreter::encode_snapshot`] bytes.
    ///
    /// Its cursor stands after the first `interpreted_count()` blocks of
    /// the DAG's insertion order — feed it the same, grown DAG and
    /// [`Interpreter::step`] interprets only the suffix. The caller checks
    /// the covered prefix (see `Shim::recover_from_store_with_snapshots`).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; corrupt input never panics.
    pub fn decode_snapshot(config: ProtocolConfig, bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut reader = Reader::new(bytes);
        let version = reader.read_u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let n = reader.read_u64()?;
        let f = reader.read_u64()?;
        if n != config.n as u64 || f != config.f as u64 {
            return Err(SnapshotError::ConfigMismatch { n, f });
        }
        let covered = reader.read_len(32)?;
        let mut order = Vec::with_capacity(covered);
        for _ in 0..covered {
            order.push(BlockRef::decode(&mut reader)?);
        }
        let stats = InterpretStats {
            blocks_interpreted: reader.read_u64()?,
            requests_processed: reader.read_u64()?,
            malformed_requests: reader.read_u64()?,
            messages_materialized: reader.read_u64()?,
            messages_delivered: reader.read_u64()?,
            indications: reader.read_u64()?,
        };
        let mut footprint = InterpreterFootprint {
            blocks: covered,
            instances: reader.read_u64()? as usize,
            ..InterpreterFootprint::default()
        };

        let mut states: HashMap<BlockRef, BlockState<P>> = HashMap::with_capacity(covered);
        let mut arena = Arena::new();
        for (position, block_ref) in order.iter().enumerate() {
            // A parent strictly earlier in a repetition-free order keeps
            // every chain walk finite and inside `states`.
            let parent = match reader.read_u64()? as usize {
                0 => None,
                index if index <= position => Some(order[index - 1]),
                _ => return Err(SnapshotError::BadIndex),
            };
            let builder = ServerId::decode(&mut reader)?;
            let touched = reader.read_len(8)?;
            let mut delta = Vec::with_capacity(touched);
            for _ in 0..touched {
                let label = Label::decode(&mut reader)?;
                delta.push((label, arena.push(P::decode_state(&config, &mut reader)?)));
            }
            // Canonical bytes are sorted and repeat-free already; anything
            // else is normalized once per block. Of a repeated delta label
            // the last entry wins: reversed, the stable sort puts it first
            // of its run, which is the one `dedup` keeps. The losers' slots
            // stay in the arena, named by nothing.
            delta.reverse();
            delta.sort_by_key(|(label, _)| *label);
            delta.dedup_by_key(|(label, _)| *label);
            // An entry is at least its label and its receiver count.
            let entries = reader.read_len(12)?;
            let mut outs: Buffer<P::Message> = Vec::with_capacity(entries);
            for _ in 0..entries {
                let label = Label::decode(&mut reader)?;
                let message = P::Message::decode(&mut reader)?;
                outs.push((label, (message, ServerSet::decode(&mut reader)?)));
            }
            normalize(&mut outs);
            footprint.unique_instances += delta.len();
            footprint.out_envelopes += envelope_count(&outs);
            footprint.out_entries += outs.len();
            let state = BlockState {
                parent,
                builder,
                delta,
                outs,
            };
            if states.insert(*block_ref, state).is_some() {
                return Err(SnapshotError::BadIndex);
            }
        }
        if reader.remaining() != 0 {
            return Err(SnapshotError::Corrupt(DecodeError::TrailingBytes {
                remaining: reader.remaining(),
            }));
        }
        Ok(Interpreter {
            config,
            states,
            arena,
            views: HashMap::new(),
            footprint,
            scanned: covered,
            order,
            indications: Vec::new(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, LabeledRequest, SeqNum};
    use dagbft_crypto::{KeyRegistry, Signer};
    use std::collections::BTreeSet;

    /// A deterministic ping protocol: on request, send PING to everyone;
    /// on PING, indicate the value once.
    #[derive(Debug, Clone)]
    struct Ping {
        config: ProtocolConfig,
        seen: BTreeSet<u64>,
        pending: Vec<u64>,
    }

    impl DeterministicProtocol for Ping {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Ping {
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

    impl SnapshotProtocol for Ping {
        fn encode_state(&self, out: &mut Vec<u8>) {
            self.seen.encode(out);
            self.pending.encode(out);
        }

        fn decode_state(
            config: &ProtocolConfig,
            reader: &mut Reader<'_>,
        ) -> Result<Self, DecodeError> {
            Ok(Ping {
                config: *config,
                seen: WireDecode::decode(reader)?,
                pending: WireDecode::decode(reader)?,
            })
        }
    }

    /// Indicates every event in the order it arrived: a request `r` (which
    /// it also broadcasts) as `r`, a message `m` as `1000 + m`.
    #[derive(Debug, Clone)]
    struct Journal {
        config: ProtocolConfig,
        pending: Vec<u64>,
    }

    impl DeterministicProtocol for Journal {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Journal {
                config: *config,
                pending: Vec::new(),
            }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64>) {
            self.pending.push(request);
            outbox.broadcast(&self.config, request);
        }

        fn on_message(&mut self, _sender: ServerId, message: u64, _outbox: &mut Outbox<u64>) {
            self.pending.push(1000 + message);
        }

        fn drain_indications(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.pending)
        }
    }

    /// Interprets `dag` in insertion order with this interpreter and with
    /// the paper-literal oracle, checks that they agree on the counters,
    /// the indication sequence and `labels`' buffers at every block, and
    /// returns this one with its indications.
    fn interpret_like_the_oracle<P>(
        dag: &BlockDag,
        n: usize,
        labels: &[Label],
    ) -> (Interpreter<P>, Vec<Indication<P::Indication>>)
    where
        P: DeterministicProtocol,
        P::Indication: fmt::Debug,
    {
        let config = ProtocolConfig::for_n(n);
        let mut interpreter: Interpreter<P> = Interpreter::new(config);
        let mut oracle: crate::ReferenceInterpreter<P> = crate::ReferenceInterpreter::new(config);
        for block in dag.refs() {
            interpreter.interpret_block(dag, block).unwrap();
            oracle.interpret_block(dag, block).unwrap();
        }
        assert_eq!(interpreter.stats(), oracle.stats());
        let indications = interpreter.drain_indications();
        assert_eq!(indications, oracle.drain_indications());
        for block in dag.refs() {
            let (state, stored) = (
                interpreter.state(block).unwrap(),
                oracle.state(block).unwrap(),
            );
            for label in labels {
                assert!(state
                    .out_messages(*label)
                    .eq(stored.out_messages(*label).cloned()));
                assert!(interpreter
                    .in_messages(dag, block, *label)
                    .eq(stored.in_messages(*label).cloned()));
            }
        }
        (interpreter, indications)
    }

    fn setup(n: usize) -> (KeyRegistry, Vec<Signer>) {
        let registry = KeyRegistry::generate(n, 21);
        let signers = (0..n)
            .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
            .collect();
        (registry, signers)
    }

    /// Two servers; s0's genesis carries a request; both build follow-ups
    /// referencing each other's blocks.
    fn two_server_dag() -> (BlockDag, Vec<Block>) {
        let (_, signers) = setup(2);
        let label = Label::new(1);
        let b0 = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(label, &7u64)],
            &signers[0],
        );
        let b1 = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signers[1]);
        // s1 references both genesis blocks: receives s0's PING here.
        let b2 = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![b1.block_ref(), b0.block_ref()],
            vec![],
            &signers[1],
        );
        // s0 references its own genesis (self-delivery) and s1's chain.
        let b3 = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![b0.block_ref(), b2.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        for block in [&b0, &b1, &b2, &b3] {
            dag.insert(block.clone()).unwrap();
        }
        (dag, vec![b0, b1, b2, b3])
    }

    /// A single-server chain of `length` blocks; only the genesis carries a
    /// request, so blocks from index 2 on touch nothing (the PING
    /// self-delivers at index 1 and Ping replies with silence).
    fn single_chain(length: u64) -> (BlockDag, Vec<Block>) {
        let (_, signers) = setup(1);
        let mut dag = BlockDag::new();
        let mut blocks = Vec::new();
        let mut prev: Option<BlockRef> = None;
        for k in 0..length {
            let requests = if k == 0 {
                vec![LabeledRequest::encode(Label::new(1), &7u64)]
            } else {
                vec![]
            };
            let block = Block::build(
                ServerId::new(0),
                SeqNum::new(k),
                prev.into_iter().collect(),
                requests,
                &signers[0],
            );
            dag.insert(block.clone()).unwrap();
            prev = Some(block.block_ref());
            blocks.push(block);
        }
        (dag, blocks)
    }

    #[test]
    fn eligibility_respects_partial_order() {
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        let eligible = interpreter.eligible(&dag);
        // Only the two genesis blocks are eligible initially.
        assert_eq!(eligible.len(), 2);
        assert!(eligible.contains(&blocks[0].block_ref()));
        assert!(eligible.contains(&blocks[1].block_ref()));

        let err = interpreter
            .interpret_block(&dag, &blocks[2].block_ref())
            .unwrap_err();
        assert!(matches!(err, InterpretError::NotEligible { .. }));
    }

    #[test]
    fn eligible_tracks_incremental_progress() {
        // eligible() reflects interpret_block() progress: interpreting the
        // genesis blocks makes what is built on them eligible.
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        interpreter
            .interpret_block(&dag, &blocks[0].block_ref())
            .unwrap();
        interpreter
            .interpret_block(&dag, &blocks[1].block_ref())
            .unwrap();
        let eligible = interpreter.eligible(&dag);
        assert_eq!(eligible, vec![blocks[2].block_ref()]);
        interpreter
            .interpret_block(&dag, &blocks[2].block_ref())
            .unwrap();
        assert_eq!(interpreter.eligible(&dag), vec![blocks[3].block_ref()]);
        interpreter
            .interpret_block(&dag, &blocks[3].block_ref())
            .unwrap();
        assert!(interpreter.eligible(&dag).is_empty());
    }

    #[test]
    fn step_interprets_in_admission_order() {
        // Inserted as A, B (child of A), C (another chain's genesis): C is
        // eligible before B is, and still comes after it.
        let (mut dag, chain) = single_chain(2);
        let c = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![],
            &setup(2).1[1],
        );
        dag.insert(c.clone()).unwrap();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        assert_eq!(interpreter.step(&dag), 3);
        let inserted = [chain[0].block_ref(), chain[1].block_ref(), c.block_ref()];
        assert_eq!(interpreter.interpreted_order(), inserted);
    }

    #[test]
    fn request_materializes_broadcast_messages() {
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        interpreter.step(&dag);
        let state = interpreter.state(&blocks[0].block_ref()).unwrap();
        let outs: Vec<_> = state.out_messages(Label::new(1)).collect();
        // PING 7 to s0 and s1.
        assert_eq!(outs.len(), 2);
        assert!(outs.iter().all(|e| e.sender == ServerId::new(0)));
        assert!(outs.iter().all(|e| e.message == 7));
    }

    #[test]
    fn edges_deliver_messages_and_raise_indications() {
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        let interpreted = interpreter.step(&dag);
        assert_eq!(interpreted, 4);

        // b2 (by s1) received PING 7 via the edge b0 ⇀ b2.
        let ins: Vec<_> = interpreter
            .in_messages(&dag, &blocks[2].block_ref(), Label::new(1))
            .collect();
        assert_eq!(ins.len(), 1);
        assert_eq!(ins[0].receiver, ServerId::new(1));

        // b3 (by s0) received its own PING via b0 ⇀ b3 (self-delivery on
        // the next own block).
        let ins3: Vec<_> = interpreter
            .in_messages(&dag, &blocks[3].block_ref(), Label::new(1))
            .collect();
        assert_eq!(ins3.len(), 1);
        assert_eq!(ins3[0].receiver, ServerId::new(0));

        // Both simulated servers indicated 7 exactly once.
        let indications = interpreter.drain_indications();
        let mut by_server: Vec<_> = indications
            .iter()
            .map(|i| (i.server.index(), i.indication))
            .collect();
        by_server.sort();
        assert_eq!(by_server, vec![(0, 7), (1, 7)]);
    }

    #[test]
    fn interpretation_is_idempotent_per_block() {
        let (dag, blocks) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        interpreter.step(&dag);
        let err = interpreter
            .interpret_block(&dag, &blocks[0].block_ref())
            .unwrap_err();
        assert!(matches!(err, InterpretError::AlreadyInterpreted { .. }));
        // step() on an unchanged DAG does nothing.
        assert_eq!(interpreter.step(&dag), 0);
    }

    #[test]
    fn lemma_4_2_interpretation_order_independent() {
        let (dag, _) = two_server_dag();
        // Interpreter A: default (topological) order via step().
        let mut a: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        a.step(&dag);
        // Interpreter B: repeatedly pick the *last* eligible block.
        let mut b: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        loop {
            let eligible = b.eligible(&dag);
            let Some(pick) = eligible.last() else { break };
            b.interpret_block(&dag, pick).unwrap();
        }
        for r in dag.refs() {
            let state_a = a.state(r).unwrap();
            let state_b = b.state(r).unwrap();
            let label = Label::new(1);
            let outs_a: Vec<_> = state_a.out_messages(label).collect();
            let outs_b: Vec<_> = state_b.out_messages(label).collect();
            assert_eq!(outs_a, outs_b);
            let ins_a: Vec<_> = a.in_messages(&dag, r, label).collect();
            let ins_b: Vec<_> = b.in_messages(&dag, r, label).collect();
            assert_eq!(ins_a, ins_b);
        }
        assert_eq!(a.stats().messages_delivered, b.stats().messages_delivered);
    }

    #[test]
    fn growing_dag_extends_interpretation() {
        let (dag_full, blocks) = two_server_dag();
        let mut dag_partial = BlockDag::new();
        dag_partial.insert(blocks[0].clone()).unwrap();
        dag_partial.insert(blocks[1].clone()).unwrap();

        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        assert_eq!(interpreter.step(&dag_partial), 2);
        // Extend to the full DAG (G ≤ G'): previously interpreted state is
        // reused, only the new blocks are processed.
        assert_eq!(interpreter.step(&dag_full), 2);
        assert_eq!(interpreter.interpreted_count(), 4);
    }

    #[test]
    fn malformed_request_payload_skipped() {
        let (_, signers) = setup(1);
        let garbage = LabeledRequest {
            label: Label::new(1),
            payload: bytes::Bytes::from_static(&[0xff, 0x01]),
        };
        let block = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![garbage],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        dag.insert(block.clone()).unwrap();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);
        assert_eq!(interpreter.stats().malformed_requests, 1);
        assert_eq!(interpreter.stats().requests_processed, 0);
    }

    #[test]
    fn unknown_block_error() {
        let (dag, _) = two_server_dag();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        let bogus = BlockRef::from_digest(dagbft_crypto::Digest::ZERO);
        assert!(matches!(
            interpreter.interpret_block(&dag, &bogus),
            Err(InterpretError::UnknownBlock { .. })
        ));
    }

    #[test]
    fn equivocation_splits_instance_state() {
        // A byzantine s1 builds two k=0 blocks with different requests; the
        // interpreted instance state for s1 splits (Figure 3 discussion).
        let (_, signers) = setup(2);
        let label = Label::new(1);
        let b3 = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(label, &1u64)],
            &signers[1],
        );
        let b4 = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![LabeledRequest::encode(label, &2u64)],
            &signers[1],
        );
        let mut dag = BlockDag::new();
        dag.insert(b3.clone()).unwrap();
        dag.insert(b4.clone()).unwrap();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        interpreter.step(&dag);
        let out3: Vec<_> = interpreter
            .state(&b3.block_ref())
            .unwrap()
            .out_messages(label)
            .map(|e| e.message)
            .collect();
        let out4: Vec<_> = interpreter
            .state(&b4.block_ref())
            .unwrap()
            .out_messages(label)
            .map(|e| e.message)
            .collect();
        assert!(out3.iter().all(|m| *m == 1));
        assert!(out4.iter().all(|m| *m == 2));
        // Two chain tips, each with its own view and its own instance.
        assert_eq!(interpreter.views.len(), 2);
        assert_eq!(interpreter.footprint().unique_instances, 2);
    }

    #[test]
    fn parent_rule_violation_is_an_error_not_a_panic() {
        // A k=1 block without a k=0 predecessor of its builder is not
        // `valid`; gossip never admits it, but `BlockDag::insert` (fed by
        // journal recovery) does not check the parent rule.
        let (_, signers) = setup(2);
        let b0 = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signers[0]);
        let orphan = Block::build(
            ServerId::new(1),
            SeqNum::new(1),
            vec![b0.block_ref()],
            vec![],
            &signers[1],
        );
        let child = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![b0.block_ref(), orphan.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        for block in [&b0, &orphan, &child] {
            dag.insert(block.clone()).unwrap();
        }
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        // step() leaves the invalid block and what is built on it alone.
        assert_eq!(interpreter.step(&dag), 1);
        assert_eq!(
            interpreter.interpret_block(&dag, &orphan.block_ref()),
            Err(InterpretError::InvalidParent {
                block: orphan.block_ref()
            })
        );
        assert!(!interpreter.is_interpreted(&child.block_ref()));
        assert_eq!(interpreter.step(&dag), 0);
    }

    #[test]
    fn incremental_step_matches_batch_interpretation() {
        // Interleave manual interpret_block() calls with step() on a
        // growing DAG: the cursor must neither skip nor double-interpret.
        let (dag_full, blocks) = two_server_dag();
        let mut dag_partial = BlockDag::new();
        dag_partial.insert(blocks[0].clone()).unwrap();
        dag_partial.insert(blocks[1].clone()).unwrap();

        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(2));
        // Manually interpret one genesis, then step the partial DAG.
        interpreter
            .interpret_block(&dag_partial, &blocks[1].block_ref())
            .unwrap();
        assert_eq!(interpreter.step(&dag_partial), 1);
        // Grow the DAG and step again.
        assert_eq!(interpreter.step(&dag_full), 2);
        assert_eq!(interpreter.interpreted_count(), 4);
        // No block interpreted twice: order has unique entries.
        let unique: std::collections::BTreeSet<_> =
            interpreter.interpreted_order().iter().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn untouched_blocks_store_nothing() {
        // Chain of 6 blocks, one request at genesis: activity dies out
        // after index 1 (the self-delivered PING), so blocks 2.. have an
        // empty delta and read the label through the chain.
        let (dag, blocks) = single_chain(6);
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);

        let driven = interpreter.instance_at(&blocks[1].block_ref(), Label::new(1));
        for later in &blocks[2..] {
            let state = interpreter.state(&later.block_ref()).unwrap();
            assert_eq!(state.touched_labels().count(), 0, "quiescent block");
            let seen = interpreter.instance_at(&later.block_ref(), Label::new(1));
            assert!(std::ptr::eq(seen.unwrap(), driven.unwrap()));
            assert_eq!(
                interpreter.instance_labels_at(&later.block_ref()),
                vec![Label::new(1)]
            );
        }
        // One chain, one tip, one view.
        assert_eq!(interpreter.views.len(), 1);
        assert!(interpreter.views.contains_key(&blocks[5].block_ref()));
        // Genesis touched the label (request), block 1 touched it
        // (delivery): two unique instances; blocks 2.. add nothing.
        let footprint = interpreter.footprint();
        assert_eq!(footprint.blocks, 6);
        assert_eq!(footprint.instances, 6); // one label in every state
        assert_eq!(footprint.unique_instances, 2);
        assert!(footprint.sharing_ratio() > 2.9);
    }

    /// The structure the module docs promise: exactly one view per chain
    /// tip, naming the slots of the chain's deltas merged newest-first;
    /// one arena slot per touch, each named by exactly one delta entry;
    /// and footprint counters that say what the states hold.
    fn assert_structure(interpreter: &Interpreter<Ping>) {
        let states = &interpreter.states;
        let parents: BTreeSet<BlockRef> = states.values().filter_map(|s| s.parent).collect();
        let tips: BTreeSet<BlockRef> = states
            .keys()
            .filter(|block| !parents.contains(block))
            .copied()
            .collect();
        let viewed: BTreeSet<BlockRef> = interpreter.views.keys().copied().collect();
        assert_eq!(viewed, tips);
        for (tip, view) in &interpreter.views {
            assert_eq!(*view, interpreter.view_at(tip));
        }
        let footprint = interpreter.footprint();
        let named: BTreeSet<Slot> = states
            .values()
            .flat_map(|s| s.delta.iter().map(|(_, slot)| *slot))
            .collect();
        let deltas: usize = states.values().map(|s| s.delta.len()).sum();
        assert!(named.iter().copied().eq(0..interpreter.arena.len()));
        assert_eq!(deltas, interpreter.arena.len());
        let slots: usize = states.keys().map(|b| interpreter.view_at(b).len()).sum();
        assert_eq!(footprint.unique_instances, deltas);
        assert_eq!(footprint.instances, slots);
        assert_eq!(footprint.blocks, states.len());
    }

    #[test]
    fn one_view_per_chain_tip_in_any_interpretation_order() {
        // A 5-block chain plus a late equivocating branch forking off at
        // block 1 (a second k=2 block and its child), with fresh labels on
        // both branches.
        let (_, signers) = setup(1);
        let (mut dag, chain) = single_chain(5);
        let mut fork = Vec::new();
        let mut parent = chain[1].block_ref();
        for k in 2..4 {
            let block = Block::build(
                ServerId::new(0),
                SeqNum::new(k),
                vec![parent],
                vec![LabeledRequest::encode(Label::new(k), &k)],
                &signers[0],
            );
            dag.insert(block.clone()).unwrap();
            parent = block.block_ref();
            fork.push(block);
        }

        // Main chain first: the fork finds block 1's view long gone.
        let mut late: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        for block in chain.iter().chain(&fork) {
            late.interpret_block(&dag, &block.block_ref()).unwrap();
            assert_structure(&late);
        }
        assert_eq!(late.views.len(), 2);

        // Fork first: it takes block 1's view and the main chain rebuilds.
        let mut early: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        for block in chain[..2].iter().chain(&fork).chain(&chain[2..]) {
            early.interpret_block(&dag, &block.block_ref()).unwrap();
            assert_structure(&early);
        }
        assert_eq!(late.footprint(), early.footprint());
    }

    #[test]
    fn a_write_does_not_leak_into_ancestors() {
        // Moving the view must isolate descendants from ancestors: after
        // block 1 drives the instance (PING delivery mutates `seen`), the
        // genesis state still shows the pre-delivery instance.
        let (dag, blocks) = single_chain(3);
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);

        let genesis = interpreter.instance_at(&blocks[0].block_ref(), Label::new(1));
        let after = interpreter.instance_at(&blocks[1].block_ref(), Label::new(1));
        assert!(genesis.unwrap().seen.is_empty(), "ancestor unmodified");
        assert_eq!(after.unwrap().seen.len(), 1, "descendant advanced");
    }

    #[test]
    fn a_driven_but_silent_instance_leaves_no_out_entry() {
        // Block 1 delivers the self-addressed PING; Ping answers with
        // silence. The label is in block 1's delta and nowhere in its
        // out-buffer, so block 2 has nothing to look at.
        let (dag, blocks) = single_chain(3);
        let (interpreter, _) = interpret_like_the_oracle::<Ping>(&dag, 1, &[Label::new(1)]);
        let driven = interpreter.state(&blocks[1].block_ref()).unwrap();
        assert!(driven.touched_labels().eq([&Label::new(1)]));
        assert!(driven.outs.is_empty());
        assert_eq!(driven.out_messages(Label::new(1)).count(), 0);
        let successor = blocks[2].block_ref();
        assert_eq!(
            interpreter
                .in_messages(&dag, &successor, Label::new(1))
                .count(),
            0
        );
        assert_eq!(interpreter.footprint().out_envelopes, 1);
    }

    /// Builds the blocks described by `(builder, seq, preds, requests)`,
    /// `preds` indexing earlier entries, all requests on label 1.
    fn dag_of(n: usize, spec: &[(u32, u64, &[usize], &[u64])]) -> (BlockDag, Vec<Block>) {
        let (_, signers) = setup(n);
        let mut dag = BlockDag::new();
        let mut blocks: Vec<Block> = Vec::new();
        for (builder, seq, preds, requests) in spec {
            let block = Block::build(
                ServerId::new(*builder),
                SeqNum::new(*seq),
                preds.iter().map(|at| blocks[*at].block_ref()).collect(),
                requests
                    .iter()
                    .map(|value| LabeledRequest::encode(Label::new(1), value))
                    .collect(),
                &signers[*builder as usize],
            );
            dag.insert(block.clone()).unwrap();
            blocks.push(block);
        }
        (dag, blocks)
    }

    #[test]
    fn an_envelope_two_preds_hold_by_value_is_delivered_once() {
        // s0 requests 7 at its genesis and again at block 1: both blocks'
        // out-buffers hold PING 7 from s0 to s0. Block 2 references its
        // parent and, again, its parent's parent.
        let (dag, blocks) = dag_of(
            1,
            &[(0, 0, &[], &[7]), (0, 1, &[0], &[7]), (0, 2, &[1, 0], &[])],
        );
        let (interpreter, indications) =
            interpret_like_the_oracle::<Ping>(&dag, 1, &[Label::new(1)]);
        let tip = blocks[2].block_ref();
        assert_eq!(
            interpreter.in_messages(&dag, &tip, Label::new(1)).count(),
            1
        );
        // Block 1 and block 2 each deliver one PING 7; only the first is new.
        assert_eq!(interpreter.stats().messages_delivered, 2);
        assert_eq!(indications.len(), 1);

        // s0 equivocates at genesis — the same request, then that request
        // and another — and s1 references both siblings.
        let (dag, blocks) = dag_of(
            2,
            &[
                (0, 0, &[], &[7]),
                (0, 0, &[], &[7, 8]),
                (1, 0, &[], &[]),
                (1, 1, &[2, 0, 1], &[]),
            ],
        );
        let (interpreter, indications) =
            interpret_like_the_oracle::<Ping>(&dag, 2, &[Label::new(1)]);
        let joined: Vec<u64> = interpreter
            .in_messages(&dag, &blocks[3].block_ref(), Label::new(1))
            .map(|envelope| envelope.message)
            .collect();
        assert_eq!(joined, vec![7, 8]);
        assert_eq!(interpreter.stats().messages_delivered, 2);
        assert_eq!(indications.len(), 2);
    }

    #[test]
    fn a_repeated_emission_is_stored_once_and_counted_twice() {
        // Two equal requests in one block: the handler broadcasts PING 7
        // twice. `Ms[out, ℓ]` is a set; the counter counts work done.
        let (dag, blocks) = dag_of(2, &[(0, 0, &[], &[7, 7])]);
        let (interpreter, _) = interpret_like_the_oracle::<Ping>(&dag, 2, &[Label::new(1)]);
        let state = interpreter.state(&blocks[0].block_ref()).unwrap();
        assert_eq!(state.out_messages(Label::new(1)).count(), 2);
        assert_eq!(interpreter.footprint().out_envelopes, 2);
        assert_eq!(interpreter.footprint().out_entries, 1, "one message");
        assert_eq!(interpreter.stats().requests_processed, 2);
        assert_eq!(interpreter.stats().messages_materialized, 4);
    }

    #[test]
    fn a_label_sees_its_request_before_its_deliveries() {
        // Block 1 carries a request for the label its parent's PING is
        // delivered on.
        let (dag, _) = dag_of(1, &[(0, 0, &[], &[5]), (0, 1, &[0], &[6])]);
        let (_, indications) = interpret_like_the_oracle::<Journal>(&dag, 1, &[Label::new(1)]);
        let events: Vec<u64> = indications.iter().map(|i| i.indication).collect();
        assert_eq!(events, vec![5, 6, 1005]);
    }

    /// Snapshot bytes of `interpreter` as a writer other than
    /// `encode_snapshot` may have left them: per block a stale copy of the
    /// first delta entry ahead of the real entries; the out-buffer entries
    /// in descending order, each split into one entry per receiver; the
    /// first entry once more, whole; and a message with no receiver.
    fn sloppy_snapshot(interpreter: &Interpreter<Ping>) -> Vec<u8> {
        let mut out = vec![SNAPSHOT_VERSION];
        (interpreter.config.n as u64).encode(&mut out);
        (interpreter.config.f as u64).encode(&mut out);
        interpreter.order.encode(&mut out);
        let stats = interpreter.stats;
        for counter in [
            stats.blocks_interpreted,
            stats.requests_processed,
            stats.malformed_requests,
            stats.messages_materialized,
            stats.messages_delivered,
            stats.indications,
            interpreter.footprint.instances as u64,
        ] {
            counter.encode(&mut out);
        }
        for block in &interpreter.order {
            let state = &interpreter.states[block];
            let parent = state.parent.map_or(0, |parent| {
                1 + interpreter.order.iter().position(|r| *r == parent).unwrap()
            });
            (parent as u64).encode(&mut out);
            state.builder.encode(&mut out);
            let stale = state.delta.first().map(|(label, _)| {
                (
                    *label,
                    Ping::new(&interpreter.config, *label, ServerId::new(0)),
                )
            });
            ((state.delta.len() + stale.iter().len()) as u32).encode(&mut out);
            let real = state
                .delta
                .iter()
                .map(|(label, slot)| (label, &interpreter.arena[*slot]));
            for (label, ping) in stale.iter().map(|(label, ping)| (label, ping)).chain(real) {
                label.encode(&mut out);
                ping.encode_state(&mut out);
            }
            let mut entries: Vec<(Label, u64, ServerSet)> = Vec::new();
            for (label, (message, receivers)) in state.outs.iter().rev() {
                for receiver in receivers.iter() {
                    entries.push((*label, *message, ServerSet::from_iter([receiver])));
                }
            }
            if let Some((label, (message, receivers))) = state.outs.first() {
                entries.push((*label, *message, receivers.clone()));
                entries.push((*label, message + 100, ServerSet::new()));
            }
            (entries.len() as u32).encode(&mut out);
            for (label, message, receivers) in entries {
                label.encode(&mut out);
                message.encode(&mut out);
                receivers.encode(&mut out);
            }
        }
        out
    }

    #[test]
    fn a_sloppy_snapshot_decodes_to_the_canonical_state() {
        // s0's genesis requests on two labels; s1's block 1 is driven on
        // both in silence; the last two blocks lie past the snapshot.
        let (_, signers) = setup(2);
        let request = |label, value: u64| LabeledRequest::encode(Label::new(label), &value);
        let build = |builder: usize, seq, preds: &[&Block], requests| {
            Block::build(
                ServerId::new(builder as u32),
                SeqNum::new(seq),
                preds.iter().map(|block| block.block_ref()).collect(),
                requests,
                &signers[builder],
            )
        };
        let b0 = build(0, 0, &[], vec![request(2, 20), request(1, 10)]);
        let b1 = build(1, 0, &[], vec![]);
        let b2 = build(1, 1, &[&b1, &b0], vec![request(3, 30)]);
        let b3 = build(0, 1, &[&b0, &b2], vec![request(1, 11)]);
        let b4 = build(1, 2, &[&b2, &b3], vec![]);
        let (mut prefix, mut dag) = (BlockDag::new(), BlockDag::new());
        for (at, block) in [&b0, &b1, &b2, &b3, &b4].into_iter().enumerate() {
            dag.insert(block.clone()).unwrap();
            if at < 3 {
                prefix.insert(block.clone()).unwrap();
            }
        }
        let config = ProtocolConfig::for_n(2);
        let mut straight: Interpreter<Ping> = Interpreter::new(config);
        straight.step(&prefix);
        straight.drain_indications();
        let canonical = straight.encode_snapshot();
        let sloppy = sloppy_snapshot(&straight);
        assert!(sloppy.len() > canonical.len());

        let mut restored: Interpreter<Ping> =
            Interpreter::decode_snapshot(config, &sloppy).unwrap();
        assert_eq!(restored.encode_snapshot(), canonical);
        assert_eq!(restored.footprint(), straight.footprint());
        assert_eq!(straight.step(&dag), 2);
        assert_eq!(restored.step(&dag), 2);
        assert_eq!(restored.drain_indications(), straight.drain_indications());
        assert_eq!(restored.stats(), straight.stats());
        assert_eq!(restored.footprint(), straight.footprint());
        for block in dag.refs() {
            for label in (1..4).map(Label::new) {
                let seen = |interpreter: &Interpreter<Ping>| {
                    interpreter
                        .instance_at(block, label)
                        .map(|ping| ping.seen.clone())
                };
                assert_eq!(seen(&restored), seen(&straight));
            }
        }
    }

    #[test]
    fn instance_labels_come_in_label_order_whatever_the_view_holds() {
        // A thousand labels inscribed in descending order in one block, and
        // a child that is driven on all of them: views this wide iterate in
        // no particular order, so only the sort can make the list ascending.
        let (_, signers) = setup(1);
        let requests = (1..=1000u64)
            .rev()
            .map(|label| LabeledRequest::encode(Label::new(label), &label))
            .collect();
        let b0 = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            requests,
            &signers[0],
        );
        let b1 = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![b0.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        dag.insert(b0.clone()).unwrap();
        dag.insert(b1.clone()).unwrap();
        let config = ProtocolConfig::for_n(1);
        let mut interpreter: Interpreter<Ping> = Interpreter::new(config);
        let mut oracle: crate::ReferenceInterpreter<Ping> =
            crate::ReferenceInterpreter::new(config);
        interpreter.step(&dag);
        oracle.step(&dag);
        assert_eq!(interpreter.drain_indications(), oracle.drain_indications());
        let ascending: Vec<Label> = (1..=1000).map(Label::new).collect();
        for block in [b0.block_ref(), b1.block_ref()] {
            let labels = interpreter.instance_labels_at(&block);
            assert_eq!(labels, ascending);
            let reference: Vec<Label> = oracle
                .state(&block)
                .unwrap()
                .instance_labels()
                .copied()
                .collect();
            assert_eq!(labels, reference);
        }
    }

    #[test]
    fn parallel_labels_are_independent() {
        let (_, signers) = setup(1);
        let b0 = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![
                LabeledRequest::encode(Label::new(1), &10u64),
                LabeledRequest::encode(Label::new(2), &20u64),
            ],
            &signers[0],
        );
        let b1 = Block::build(
            ServerId::new(0),
            SeqNum::new(1),
            vec![b0.block_ref()],
            vec![],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        dag.insert(b0.clone()).unwrap();
        dag.insert(b1.clone()).unwrap();
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);

        let in1: Vec<_> = interpreter
            .in_messages(&dag, &b1.block_ref(), Label::new(1))
            .map(|e| e.message)
            .collect();
        let in2: Vec<_> = interpreter
            .in_messages(&dag, &b1.block_ref(), Label::new(2))
            .map(|e| e.message)
            .collect();
        assert_eq!(in1, vec![10]);
        assert_eq!(in2, vec![20]);

        let indications = interpreter.drain_indications();
        let labels: BTreeSet<_> = indications.iter().map(|i| i.label).collect();
        assert_eq!(labels.len(), 2);
    }
}
