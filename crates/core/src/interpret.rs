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
//! * an edge `B_i ⇀ B` from a block by another server materializes the
//!   delivery, to `B.n`'s instance, of every message in `B_i.Ms[out, ℓ]`
//!   addressed to `B.n` (lines 8–11), in the global total order `<_M`;
//! * then every message that `B`'s instances address to `B.n` is
//!   delivered to `B.n`'s instance at `B` itself — the **in-block
//!   self-link** — in the order it was emitted, with whatever those
//!   deliveries address to `B.n`, until none is left; a value-equal
//!   envelope is delivered once, because the buffers are sets. An edge
//!   from a block by `B.n` carries nothing: what it sent `B.n` was
//!   delivered there. `B.Ms[out, ℓ]` still records every message `B`
//!   sent, `B.n` among the receivers;
//! * the instance state `PIs` flows along parent edges (line 4).
//!
//! A server's channel to itself needs no DAG hop: the self-link is a
//! zero-delay schedule of the perfect link `P` assumes (Theorem 5.1),
//! each self-addressed message is delivered exactly once, at the block
//! that holds it in `Ms[out]` (Lemma 4.3), and it reads nothing but `B`'s
//! own handlers' output (Lemma 4.2). It ends because every
//! [`DeterministicProtocol`] sends itself finitely many messages per
//! input. Edge-borne, a BRB server's own `ECHO` would count one seal
//! period later, at its next block.
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
//! * one **arena** owns every instance version the interpreter holds,
//!   addressed by a key: a slot and that slot's generation. It is a list
//!   of fixed-capacity chunks, so growing it never moves an instance, and
//!   a retired version's slot is reused (see "Retirement");
//! * every interpreted block stores only its **delta**: the
//!   `Label → key` entries Algorithm 2 drove *at* that block — a request
//!   for the label appears in `B.rs` (lines 5–6) or a predecessor's
//!   out-buffer delivers a message to `B.n` (lines 8–11); a self-addressed
//!   delivery drives a label the block already touched;
//! * every **chain tip** (an interpreted block no interpreted block names
//!   as its parent) owns one mutable **view**, the full `Label → key`
//!   map at that block, a hash map. Interpreting a child *moves* the
//!   parent's view to the child and repoints the touched entries, so a
//!   block costs the labels it touches, not the labels its chain has ever
//!   seen.
//!
//! # Copy-on-write per segment
//!
//! A chain is cut into **segments** of at most `SEGMENT` = 16 blocks. A
//! segment opens at every block whose sequence number is a multiple of
//! `SEGMENT`, at a genesis block, and at every block whose parent's view
//! had to be rebuilt (see below). A view carries its segment's *mark*, the
//! number of pushes the arena had made when the segment opened, and every
//! version carries its birth, the number made before it. A version born
//! before the mark belongs to an earlier segment or to another chain and
//! is never written again: the first touch of a label in the segment
//! pushes a clone of the version the view names (or, on first contact, a
//! new instance) and repoints the view. A version born since is the
//! segment's own, and every later touch in the segment, at this block or a
//! later one, drives it in place. Each touch is one probe of the view, and
//! it returns the key it resolved: the block's delta is those
//! `(label, key)` pairs, sorted and deduplicated. A label driven at every
//! block of a segment costs one version, not sixteen.
//!
//! So a delta entry names its label's version as of the *last* block of
//! the segment that drove it. A block whose child moved its view on without
//! opening a segment is **continued**, and its exact `B.PIs` is recomputed
//! when someone needs it:
//!
//! * below the block's segment, by the delta walk of the next paragraph,
//!   which is exact there because a closed segment is never written again;
//! * then the segment's blocks up to `B` — at most `SEGMENT − 1`, since a
//!   continued block is never its segment's last — are **replayed**: their
//!   requests, and their inboxes from the stored out-buffers, drive owned
//!   copies, and the outs this makes are `debug_assert`ed equal to the
//!   stored ones. Replay and interpretation run one shared body.
//!
//! At a block that is not continued, `B.PIs[ℓ]` is the newest delta entry
//! for `ℓ` on the parent chain ([`Interpreter::instance_at`]). A block that
//! finds its parent's view gone — the second child of one parent (an
//! equivocation), out-of-band [`Interpreter::interpret_block`] calls, the
//! first block after a snapshot restore — rebuilds it by that same walk,
//! newest block first, where the first entry of a label wins. If the parent
//! is continued, the first rebuild there also replays the parent's segment
//! into fresh arena slots and records them as the parent's exact state.
//! They are born before every later segment's mark, so they stay exact; every
//! later rebuild at that parent, and every walk that reaches it, reads the
//! record and skips the replayed segment. A rebuild costs O(touches on the
//! chain), plus, once per continued parent, at most `SEGMENT − 1` replayed
//! blocks ([`Interpreter::blocks_replayed`]): an equivocator's `k` children
//! of one parent cost one replay, not `k`.
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
//! [`Interpreter::footprint`] keeps running counters: `instances` sums
//! the view size over all blocks (what the literal interpreter would
//! store), `unique_instances` sums the delta sizes (the touches). The
//! versions actually resident, at most one per label per segment plus
//! what rebuilds replayed, less the retired ones, are
//! [`Interpreter::resident_versions`].
//!
//! `B.Ms[in, ·]` is not stored at all: it is a pure function of the direct
//! predecessors' out-buffers and `B`'s own ([`Interpreter::in_messages`]),
//! assembled when `B` is interpreted and derived again whenever someone
//! asks.
//! Out-buffers and deltas are never dropped: any future block — including
//! a byzantine server's — may still reference an old block directly (§7).
//! Nothing is shared, so nothing is counted: the interpreter is the one
//! owner, and dropping it frees every chunk.
//!
//! # Retirement
//!
//! An instance that is terminal ([`DeterministicProtocol::is_terminal`]) —
//! a BRB instance that has echoed, readied and delivered — will never send
//! or indicate again, whatever reaches it. Once a block has driven a
//! label, its version is checked; a terminal one is **retired**: the tip's
//! view entry, and the block's delta entry, name the one shared
//! **tombstone**, and the version is dropped and its slot handed to the
//! next push. Every later request or message on the label in that chain
//! is dropped unread, with no clone and no handler call. That changes no
//! out-buffer and no indication, exactly because the instance would have
//! emitted nothing; the touch is still a touch, so deltas, views and the
//! footprint's counts are what they were. Only versions a tip owns retire:
//! a version of a closed segment stays, because [`Interpreter::instance_at`]
//! and rebuilds at that segment's blocks read it, and states exactly.
//!
//! A retired slot moves to its next generation before it is reused, and a
//! key holds the generation it was made under, so an entry that names a
//! reused slot — one a continued block of the segment still holds — reads
//! as retired. No walk stops at such an entry anyway: it stops at the
//! label's newest entry in the segment, which names the tombstone, and a
//! continued block is replayed. A rebuild's walk and replay treat the
//! tombstone as a version: a replay drops what reaches a retired label,
//! and a replayed copy that turns terminal is recorded as retired. So
//! [`Interpreter::instance_at`] answers [`InstanceAt::Retired`] exactly
//! when the state at that block is terminal, and the live state otherwise.
//! The versions resident are then the live ones only, plus the versions of
//! closed segments; views, deltas and out-buffers still grow with the
//! labels seen.
//!
//! # A touch costs a touch
//!
//! A *touch* is one label driven at one block. Everything a touch writes
//! goes into flat storage that is sized by the block, not by the message:
//!
//! * `B.Ms[out, ·]` is one vector of **out-buffer entries** per block,
//!   `(label, message)`, one entry per distinct message, and a
//!   **receivers column** beside it: empty when every entry goes to every
//!   server of the configuration, else the [`ServerSet`] of each entry's
//!   receivers. Every sender is `B.n`, stored once per block. A broadcast
//!   is one entry, not `n` envelopes, and a block of broadcasts stores no
//!   set at all. A handler's broadcast is queued with
//!   [`ServerSet::all`], two word masks built at no cost per server, and
//!   telling it from a send is one comparison of sets. The handlers'
//!   messages are appended as they are produced
//!   — through **one** [`Outbox`] per block, drained after every handler
//!   call, which also hands the handlers the [`ProtocolConfig`] and
//!   collects their indications, drained once a label is done — to a
//!   working vector of `(label, (message, receivers))`, which is sorted by
//!   `(label, message)` once, when the block is done, merging the entries
//!   of one message into one with the union of their receivers, and then
//!   split into the entries and the column. Algorithm 2's buffers are
//!   *sets* of envelopes: a handler that emits a value-equal envelope
//!   twice stores it once ([`InterpretStats::messages_materialized`]
//!   still counts both), and a message whose receivers make up the whole
//!   server set after the union is a broadcast, however it was sent.
//!   [`BlockState::out_messages`] expands the entries back into
//!   envelopes. A label whose instance was driven but sent nothing has no
//!   entry at all.
//! * `B.Ms[in, ·]` over the edges is one merged inbox per block: the
//!   entries whose receivers include `B.n` — for a block of broadcasts,
//!   every entry, with no set to probe — are picked from the out-vector
//!   of each predecessor by another builder in one pass, as
//!   `(label, sender, message)` — at most |preds| runs, each already in
//!   that order, which is `(label, <_M)` — merged, and deduplicated **by
//!   value**: two predecessors by one builder (two blocks of one chain,
//!   or two equivocating siblings) can hold value-equal messages, and the
//!   set union of lines 8–10 delivers one. The inbox is walked in label
//!   groups, one instance lookup per group. The block's requests are
//!   sorted by label, and each label is driven in one go: its requests,
//!   its inbox group, then its self-link, on the instance in hand, over
//!   the out-vector entries the label added, in rounds. A round's first
//!   message needs no check; otherwise a sort finds value-equal repeats,
//!   so no order of requests costs a shift per message.
//! * the delta is a label-sorted vector of `(label, slot)`, built from
//!   the slots the block's touches returned: no second view lookup.
//!
//! What is left per touch is at most one instance copy — one per label
//! per segment, written into a free slot or the arena's current chunk, so
//! the heap sees one allocation per chunk, not one per touch — plus
//! whatever `P`'s clone itself allocates. A version is protocol state
//! alone: no configuration, no buffer of indications not yet surfaced (see
//! [`DeterministicProtocol`]). `tests/interpret_alloc_budget.rs` holds a BRB
//! payments run to pinned counts of heap allocations and resident
//! versions, and its snapshot restore to a pinned count of allocations.
//!
//! Retirement makes a touch cheaper still: a touch on a retired label is
//! one probe of the view, which finds the tombstone, and nothing else. A
//! touch that retires its label costs one `is_terminal` call and drops the
//! version; the slot it frees is linked into the arena's free list, which
//! lives in the free slots themselves and so allocates nothing. On that
//! payments run, 42 versions stay resident where 1 600 did.
//!
//! A snapshot (format 7, [`Interpreter::snapshot`]) writes the same
//! shapes: the [`ProtocolConfig`] once, every live arena version once, then
//! per block its parent, builder, segment flags, delta (naming versions by
//! index, the tombstone by its own) and out-buffer entries, each entry once
//! and as the block stores it: a block with no receivers column, flagged,
//! writes label and message only and decodes straight back into that
//! form, and a block with a column writes every entry's set.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::ops::{Index, IndexMut, Range};

use dagbft_codec::{decode_from_slice, DecodeError, Reader, WireDecode, WireEncode};
use dagbft_crypto::ServerId;

use crate::block::{Block, BlockRef};
use crate::dag::BlockDag;
use crate::label::Label;
use crate::protocol::{DeterministicProtocol, Envelope, Outbox, ProtocolConfig, ServerSet};

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
    /// The block whose interpretation raised it, built by `server`.
    pub block: BlockRef,
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

/// The key of one instance version in the interpreter's [`Arena`]: the
/// slot that holds it in the low 32 bits, and that slot's generation when
/// the version was pushed in the high 32. A retired version's slot moves
/// to the next generation before a later push reuses it, so a key to a
/// retired version names none (see "Retirement" in the module docs).
type Slot = u64;

/// The key every retired label names: the one shared tombstone. No slot
/// has its index.
const RETIRED: Slot = Slot::MAX;

/// Instance versions per arena chunk. A chunk is allocated at this
/// capacity and never grows. `crates/core/tests/reference_equivalence.rs`
/// names the same figure to cross chunk boundaries on purpose.
const CHUNK: usize = 1024;

/// The key of the version `slot` holds under `generation`.
fn key_of(slot: usize, generation: u32) -> Slot {
    u64::from(generation) << 32 | slot as u64
}

/// The slot a key names.
fn slot_of(key: Slot) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

/// One arena slot: its generation, bumped each time its version retires,
/// and a version with the arena's push count when it was pushed or, once
/// that version retired, a link in the list of free slots.
#[derive(Debug)]
struct Held<P> {
    generation: u32,
    content: Content<P>,
}

#[derive(Debug)]
enum Content<P> {
    Live {
        born: u64,
        version: P,
    },
    /// The next free slot, `u32::MAX` for none.
    Free {
        next: u32,
    },
}

/// Every instance version an interpreter holds, owned in one place and
/// addressed by key ([`Slot`]): deltas and views store keys. In chunks of
/// [`CHUNK`], so a push never moves an instance already there. A retired
/// version's slot is handed to the next push under its next generation;
/// each push also stamps the slot with the number of pushes before it, so
/// a segment owns exactly the versions born since it opened, whichever
/// slots they reuse.
#[derive(Debug)]
struct Arena<P> {
    chunks: Vec<Vec<Held<P>>>,
    /// The free slot the next push takes, the last one retired; the others
    /// are linked from it. `u32::MAX` while none is free.
    free: u32,
    /// Free slots.
    freed: usize,
    /// Pushes so far: the birth of the next version.
    pushes: u64,
}

impl<P> Arena<P> {
    fn new() -> Self {
        Arena {
            chunks: Vec::new(),
            free: u32::MAX,
            freed: 0,
            pushes: 0,
        }
    }

    /// Slots made so far, live or free.
    fn slots(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// Slots that hold a version.
    fn live(&self) -> usize {
        self.slots() - self.freed
    }

    fn held(&self, slot: usize) -> &Held<P> {
        &self.chunks[slot / CHUNK][slot % CHUNK]
    }

    fn held_mut(&mut self, slot: usize) -> &mut Held<P> {
        &mut self.chunks[slot / CHUNK][slot % CHUNK]
    }

    /// Stores `instance` in the free slot retired last, or else in a new
    /// one, and returns its key.
    fn push(&mut self, instance: P) -> Slot {
        let content = Content::Live {
            born: self.pushes,
            version: instance,
        };
        self.pushes += 1;
        if self.free != u32::MAX {
            let slot = self.free as usize;
            let held = self.held_mut(slot);
            let Content::Free { next } = std::mem::replace(&mut held.content, content) else {
                unreachable!("a free slot holds no version");
            };
            let key = key_of(slot, held.generation);
            self.free = next;
            self.freed -= 1;
            return key;
        }
        let slot = self.slots();
        assert!(
            slot < u32::MAX as usize,
            "an arena holds fewer than 2^32 slots"
        );
        let held = Held {
            generation: 0,
            content,
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(held),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(held);
                self.chunks.push(chunk);
            }
        }
        key_of(slot, 0)
    }

    /// `key` if it names a live version, else [`RETIRED`]: the version it
    /// named retired, and its slot may hold another by now.
    fn current(&self, key: Slot) -> Slot {
        if key == RETIRED {
            return RETIRED;
        }
        let held = self.held(slot_of(key));
        let live = matches!(held.content, Content::Live { .. });
        if live && u64::from(held.generation) == key >> 32 {
            key
        } else {
            RETIRED
        }
    }

    /// Whether the version `key` names was pushed once the arena had made
    /// `mark` pushes: at or after the opening of the segment whose mark it
    /// is.
    fn born_since(&self, key: Slot, mark: u64) -> bool {
        matches!(self.held(slot_of(key)).content, Content::Live { born, .. } if born >= mark)
    }

    /// Drops the version `key` names and hands its slot, under its next
    /// generation, to a later push. A slot whose generations are spent is
    /// never reused, so no two versions ever share a key.
    fn retire(&mut self, key: Slot) {
        let slot = slot_of(key);
        let next = self.free;
        let held = self.held_mut(slot);
        held.content = Content::Free { next };
        if let Some(generation) = held.generation.checked_add(1) {
            held.generation = generation;
            self.free = slot as u32;
        }
        self.freed += 1;
    }

    /// Every live version with its key, in slot order.
    fn iter(&self) -> impl Iterator<Item = (Slot, &P)> {
        self.chunks
            .iter()
            .flatten()
            .enumerate()
            .filter_map(|(slot, held)| match &held.content {
                Content::Live { version, .. } => Some((key_of(slot, held.generation), version)),
                Content::Free { .. } => None,
            })
    }
}

impl<P> Index<Slot> for Arena<P> {
    type Output = P;

    fn index(&self, key: Slot) -> &P {
        debug_assert_eq!(
            self.current(key),
            key,
            "a key a view or delta names is live"
        );
        match &self.held(slot_of(key)).content {
            Content::Live { version, .. } => version,
            Content::Free { .. } => unreachable!("a key a view or delta names is live"),
        }
    }
}

impl<P> IndexMut<Slot> for Arena<P> {
    fn index_mut(&mut self, key: Slot) -> &mut P {
        debug_assert_eq!(
            self.current(key),
            key,
            "a key a view or delta names is live"
        );
        match &mut self.held_mut(slot_of(key)).content {
            Content::Live { version, .. } => version,
            Content::Free { .. } => unreachable!("a key a view or delta names is live"),
        }
    }
}

/// A chain tip's view of `B.PIs`: the full `Label → instance` map at that
/// block, as arena slots shared with the deltas of the blocks that wrote
/// them. Randomly keyed and only ever probed by key: its iteration order
/// differs between runs and must reach no output (see the module docs).
type Instances = HashMap<Label, Slot>;

/// Blocks per copy-on-write segment of a chain: a block whose sequence
/// number is a multiple of this opens a segment (see the module docs). A
/// constant, not a setting: it trades resident versions against the
/// blocks one rebuild may replay, at most `SEGMENT − 1`.
const SEGMENT: u64 = 16;

/// A chain tip's view and the mark of the segment the tip is in: the
/// arena's push count when that segment opened. The slots the view names
/// that were born since are the segment's own, driven in place.
#[derive(Debug)]
struct Tip {
    view: Instances,
    mark: u64,
}

/// The exact `B.PIs` of a continued block `B` that a rebuild needed, as far
/// as `B`'s segment reaches: that segment, replayed into fresh slots up to
/// `B`. Made once per block, by the first rebuild at it, and read by every
/// later rebuild and walk there.
#[derive(Debug)]
struct Replayed {
    /// The block that opened the replayed segment. Below the replayed
    /// entries, a walk goes on from what this block started from.
    from: BlockRef,
    /// Every label the replayed blocks drove, sorted, with the slot of its
    /// version at `B`, or the tombstone. Those slots are never written
    /// again.
    entries: Delta,
}

/// Where a walk of a chain starts: at a block, for its `B.PIs`, or before
/// a block that opened a segment, for what that block started from.
#[derive(Debug, Clone, Copy)]
enum Start {
    At(BlockRef),
    Before(BlockRef),
}

/// Where one block's touches find the versions they drive: the tip's view
/// over the arena while interpreting, or owned copies while replaying.
trait Versions<P> {
    /// What names a touched version again once the touches are done.
    type Key: Copy;

    /// The version of `label` to drive at this block, and its key; no
    /// version when the label is retired.
    fn touch(&mut self, label: Label) -> (Self::Key, Option<&mut P>);

    /// The version `touch` returned `key` for, unless the label is retired.
    fn get(&mut self, key: Self::Key) -> Option<&mut P>;

    /// Drops the terminal version of `label` that `key` names; returns the
    /// key that names the label retired.
    fn retire(&mut self, label: Label, key: Self::Key) -> Self::Key;

    /// The configuration the versions run under.
    fn config(&self) -> &ProtocolConfig;
}

/// A tip while a block is interpreted: the touches resolve into the arena
/// and repoint the tip's view.
struct Driven<'a, P> {
    arena: &'a mut Arena<P>,
    tip: &'a mut Tip,
    config: &'a ProtocolConfig,
    me: ServerId,
    /// Versions retired at this block.
    retired: usize,
}

impl<P: DeterministicProtocol> Versions<P> for Driven<'_, P> {
    type Key = Slot;

    /// A slot born before the mark is cloned into a new slot and the view
    /// repointed; one born since is driven in place; a label the view
    /// lacks starts a new instance, and a retired one has no version.
    fn touch(&mut self, label: Label) -> (Slot, Option<&mut P>) {
        let arena = &mut *self.arena;
        let slot = match self.tip.view.entry(label) {
            Entry::Occupied(held) if *held.get() == RETIRED => return (RETIRED, None),
            Entry::Occupied(mut held) => {
                if !arena.born_since(*held.get(), self.tip.mark) {
                    let copy = arena[*held.get()].clone();
                    held.insert(arena.push(copy));
                }
                *held.get()
            }
            Entry::Vacant(new) => *new.insert(arena.push(P::new(self.config, label, self.me))),
        };
        (slot, Some(&mut arena[slot]))
    }

    fn get(&mut self, slot: Slot) -> Option<&mut P> {
        (slot != RETIRED).then(|| &mut self.arena[slot])
    }

    fn retire(&mut self, label: Label, slot: Slot) -> Slot {
        self.arena.retire(slot);
        self.tip.view.insert(label, RETIRED);
        self.retired += 1;
        RETIRED
    }

    fn config(&self) -> &ProtocolConfig {
        self.config
    }
}

/// A replay's versions: owned copies, each cloned on first touch from the
/// version `base` names in the arena, which the replay only reads. A
/// retired label's copy is `None`.
struct Overlay<'a, P> {
    arena: &'a Arena<P>,
    base: &'a Instances,
    versions: BTreeMap<Label, Option<P>>,
    config: &'a ProtocolConfig,
    me: ServerId,
}

impl<P: DeterministicProtocol> Versions<P> for Overlay<'_, P> {
    type Key = Label;

    fn touch(&mut self, label: Label) -> (Label, Option<&mut P>) {
        let (arena, base, config, me) = (self.arena, self.base, self.config, self.me);
        let version = self
            .versions
            .entry(label)
            .or_insert_with(|| match base.get(&label) {
                Some(&RETIRED) => None,
                Some(&slot) => Some(arena[slot].clone()),
                None => Some(P::new(config, label, me)),
            });
        (label, version.as_mut())
    }

    fn get(&mut self, label: Label) -> Option<&mut P> {
        self.versions.get_mut(&label).and_then(Option::as_mut)
    }

    fn retire(&mut self, label: Label, _: Label) -> Label {
        self.versions.insert(label, None);
        label
    }

    fn config(&self) -> &ProtocolConfig {
        self.config
    }
}

/// What a block's handlers sent, in the order sent: per message its label
/// and receivers, repeats and empty receiver sets allowed. The working form
/// of `B.Ms[out, ·]` while the block is driven; [`Outs::normalize`] makes
/// the stored one.
type Buffer<M> = Vec<(Label, (M, ServerSet))>;

/// `(label, version)` entries, one per label, sorted by label: a block's
/// touches, or what a rebuild replayed. Stored ones name arena slots, or
/// the tombstone.
type Delta<K = Slot> = Vec<(Label, K)>;

/// `B.Ms[out, ·]` as a block stores it: one entry per distinct message
/// with its label, sorted by `(label, message)` and free of repeats, and a
/// receivers column beside them. The sender of every entry is the block's
/// builder. A label that sent nothing has no entry.
///
/// The column is empty when every entry goes to every server of the
/// configuration — a block of broadcasts, all BRB ever sends, stores no
/// set at all — and otherwise holds each entry's receivers, never an
/// empty set. That form is canonical: the entries of one message are
/// merged first, so a message sent to two complementary subsets, or both
/// broadcast and sent, is one broadcast entry.
#[derive(Debug, Clone)]
struct Outs<M> {
    /// `(label, message)`, sorted, each once.
    entries: Vec<(Label, M)>,
    /// Per entry, the servers it goes to; empty when each goes to all.
    receivers: Vec<ServerSet>,
    /// `n`: a broadcast entry goes to servers `0..n`.
    n: usize,
}

impl<M> Outs<M> {
    /// No entry yet, room for `len`, among `n` servers.
    fn with_capacity(len: usize, n: usize) -> Self {
        Outs {
            entries: Vec::with_capacity(len),
            receivers: Vec::new(),
            n,
        }
    }

    /// Appends `message` on `label` for `to`; the first entry that does
    /// not go to `all`, the configuration's servers, opens the column.
    fn push(&mut self, label: Label, message: M, to: ServerSet, all: &ServerSet) {
        let open = !self.receivers.is_empty();
        if open || to != *all {
            if !open {
                self.receivers.reserve_exact(self.entries.capacity());
                self.receivers.resize(self.entries.len(), all.clone());
            }
            self.receivers.push(to);
        }
        self.entries.push((label, message));
    }

    /// Number of entries: distinct messages.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of envelopes: every entry once per receiver.
    fn envelopes(&self) -> usize {
        if self.receivers.is_empty() {
            self.len() * self.n
        } else {
            self.receivers.iter().map(ServerSet::len).sum()
        }
    }

    /// The positions of `label`'s entries, or of every entry.
    fn span(&self, only: Option<Label>) -> Range<usize> {
        let Some(label) = only else {
            return 0..self.len();
        };
        let start = self.entries.partition_point(|(held, _)| *held < label);
        let len = self.entries[start..].partition_point(|(held, _)| *held == label);
        start..start + len
    }

    /// Whether entry `at` goes to `server`: a probe of its set, or for a
    /// broadcast a comparison with `n`.
    fn goes_to(&self, at: usize, server: ServerId) -> bool {
        match self.receivers.get(at) {
            Some(receivers) => receivers.contains(server),
            None => server.index() < self.n,
        }
    }

    /// The servers entry `at` goes to.
    fn receivers_of(&self, at: usize) -> ServerSet {
        match self.receivers.get(at) {
            Some(receivers) => receivers.clone(),
            None => ServerSet::all(self.n),
        }
    }

    /// The entries at `span`, each with its label, message and receivers.
    fn iter(&self, span: Range<usize>) -> impl DoubleEndedIterator<Item = (Label, &M, ServerSet)> {
        span.map(|at| {
            let (label, message) = &self.entries[at];
            (*label, message, self.receivers_of(at))
        })
    }
}

impl<M: Ord> Outs<M> {
    /// Puts what a block sent into its stored form. `Ms[out, ℓ]` is a set
    /// of envelopes: the entries of one message merge into one with the
    /// union of their receivers, and an entry with no receiver is dropped.
    /// Kept out of line: it runs once per block, and inlined into the
    /// per-message loop of `drive` it cost `sim_payments` about 7 % of its
    /// transfers per second.
    #[inline(never)]
    fn normalize(mut sent: Buffer<M>, n: usize) -> Self {
        sent.retain(|(_, (_, receivers))| !receivers.is_empty());
        sent.sort_unstable_by(|(a, (m, _)), (b, (n, _))| (a, m).cmp(&(b, n)));
        sent.dedup_by(
            |(label, (message, receivers)), (kept_label, (kept, into))| {
                let repeat = label == kept_label && message == kept;
                if repeat {
                    into.union_with(receivers);
                }
                repeat
            },
        );
        let all = ServerSet::all(n);
        let mut outs = Outs::with_capacity(sent.len(), n);
        for (label, (message, to)) in sent {
            outs.push(label, message, to, &all);
        }
        outs
    }

    /// Whether these entries are in the form [`Outs::normalize`] makes,
    /// given that [`Outs::push`] built them.
    fn is_canonical(&self) -> bool {
        let sorted = self.entries.windows(2).all(|pair| pair[0] < pair[1]);
        let addressed = if self.receivers.is_empty() {
            self.n > 0 || self.entries.is_empty()
        } else {
            self.receivers.iter().all(|receivers| !receivers.is_empty())
        };
        sorted && addressed
    }

    /// The stored form of entries [`Outs::push`] built in any order and
    /// with repeats.
    fn into_canonical(self) -> Self {
        if self.is_canonical() {
            return self;
        }
        let n = self.n;
        let all = || ServerSet::all(n);
        let mut receivers = self.receivers.into_iter();
        let sent = self
            .entries
            .into_iter()
            .map(|(label, message)| (label, (message, receivers.next().unwrap_or_else(all))));
        Outs::normalize(sent.collect(), n)
    }
}

/// The number of envelopes `sent` holds: every entry once per receiver.
fn envelope_count<M>(sent: &Buffer<M>) -> usize {
    sent.iter().map(|(_, (_, receivers))| receivers.len()).sum()
}

/// The in-block self-link of one label at one block (see the module
/// docs): delivers to `instance`, the builder `me`'s instance of `label`,
/// every message `outs` holds from `mark` on that is addressed to `me`, in
/// the order sent, each value once — `outs` grows as the deliveries send
/// — and returns how many it delivered. It goes by rounds, each the
/// messages the last one sent: a round costs a sort, never a shift per
/// message, whatever order a byzantine builder gave its requests. `link`
/// is a buffer reused across labels.
fn self_link<P: DeterministicProtocol>(
    instance: &mut P,
    me: ServerId,
    label: Label,
    outs: &mut Buffer<P::Message>,
    outbox: &mut Outbox<P::Message, P::Indication>,
    link: &mut Vec<usize>,
    mut mark: usize,
) -> usize {
    link.clear();
    // `link[..known]` is what was delivered, sorted by message.
    let mut known = 0;
    loop {
        let end = outs.len();
        link.extend((mark..end).filter(|&at| outs[at].1 .1.contains(me)));
        if link.len() == known {
            return known;
        }
        // The first message the label sends itself cannot be a repeat.
        if link.len() > 1 {
            let message = |at: usize| &outs[at].1 .0;
            // Of a message sent twice in this round the first is kept, and
            // one an earlier round delivered is dropped.
            link[known..].sort_unstable_by(|&a, &b| message(a).cmp(message(b)).then(a.cmp(&b)));
            let mut kept = known;
            for read in known..link.len() {
                let at = link[read];
                let repeat = kept > known && message(link[kept - 1]) == message(at)
                    || link[..known]
                        .binary_search_by(|&held| message(held).cmp(message(at)))
                        .is_ok();
                if !repeat {
                    link[kept] = at;
                    kept += 1;
                }
            }
            link.truncate(kept);
            link[known..].sort_unstable();
        }
        for &at in &link[known..] {
            instance.on_message(me, outs[at].1 .0.clone(), outbox);
            outs.extend(outbox.drain().map(|(to, message)| (label, (message, to))));
        }
        known = link.len();
        link.sort_unstable_by(|&a, &b| outs[a].1 .0.cmp(&outs[b].1 .0));
        mark = end;
    }
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
    /// Whether `B` opened a copy-on-write segment of its chain.
    opens: bool,
    /// Whether a child of `B` moved `B`'s view on without opening a
    /// segment, and so may have driven the slots of `delta` since.
    continued: bool,
    /// The labels touched here, each with the arena slot of its instance:
    /// `B.PIs[ℓ]`, the state of process instance `ℓ` of server `B.n`
    /// *after* interpreting `B` — or, once `B` is continued, after a later
    /// block of its segment. Instances are created lazily on first request
    /// or message (the implementation refinement the paper notes in §4).
    /// Sorted by label, one entry each.
    delta: Delta,
    /// `B.Ms[out, ℓ]`: messages sent by `B.n`'s instance at this block,
    /// each once, with a receivers column unless every one is a broadcast.
    outs: Outs<P::Message>,
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
        let mut envelopes = Vec::new();
        for (_, message, receivers) in self.outs.iter(self.outs.span(Some(label))) {
            envelopes.extend(receivers.iter().map(|receiver| Envelope {
                sender,
                receiver,
                message: message.clone(),
            }));
        }
        envelopes.sort_unstable();
        envelopes.into_iter()
    }

    /// `B.Ms[out, ·]`: one entry per distinct message with its label and
    /// receivers, sorted by `(label, message)`. A broadcast's receivers,
    /// which the block does not store, are made for it.
    pub fn out_entries(&self) -> impl Iterator<Item = (Label, &P::Message, ServerSet)> {
        self.outs.iter(self.outs.span(None))
    }

    /// Whether `B.Ms[out, ·]` holds a message for `server`. For a block of
    /// broadcasts: whether it holds one at all, and `server` is one of the
    /// configuration's.
    pub fn sends_to(&self, server: ServerId) -> bool {
        (0..self.outs.len()).any(|at| self.outs.goes_to(at, server))
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
    /// Delta entries, summed over the blocks: one per touch, a label
    /// driven at a block. This is ≪ `instances` on long DAGs: only blocks
    /// that *touch* a label name its instance. Within a segment the
    /// entries of one label share a version, so the versions actually
    /// resident are fewer still ([`Interpreter::resident_versions`]).
    pub unique_instances: usize,
    /// Envelopes in out-buffers: every stored message once per receiver.
    pub out_envelopes: usize,
    /// Out-buffer entries: every stored message once, with its receiver
    /// set. A broadcast to `n` servers is one entry and `n` envelopes.
    pub out_entries: usize,
    /// Instance versions resident now, each in one arena slot
    /// ([`Interpreter::resident_versions`]). Unlike the counts above, not a
    /// function of the DAG alone: a restore or an equivocation moves where
    /// segments open, and so how many versions the same blocks leave.
    pub live_versions: usize,
    /// Versions retired since this interpreter was made or restored: a
    /// label's instance on one chain that turned terminal, whose tip view
    /// names the tombstone since and whose slot went back to the arena.
    pub retired_instances: usize,
}

impl InterpreterFootprint {
    /// `instances / unique_instances`: how many blocks' `B.PIs` the average
    /// delta entry serves. 1.0 means no sharing.
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
        self.live_versions += rhs.live_versions;
        self.retired_instances += rhs.retired_instances;
    }
}

/// `B.PIs[ℓ]` of a started instance, as [`Interpreter::instance_at`]
/// reads it.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceAt<P> {
    /// The state of the instance after the block.
    Live(P),
    /// The instance was terminal after the block
    /// ([`DeterministicProtocol::is_terminal`]), so its version is retired
    /// and its state is not kept: nothing it receives changes what it
    /// sends or indicates.
    Retired,
}

impl<P> InstanceAt<P> {
    /// The state, unless the instance is retired.
    pub fn live(self) -> Option<P> {
        match self {
            InstanceAt::Live(instance) => Some(instance),
            InstanceAt::Retired => None,
        }
    }

    /// Whether the instance is retired.
    pub fn is_retired(&self) -> bool {
        matches!(self, InstanceAt::Retired)
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
    /// Every instance version the deltas, views and replays name.
    arena: Arena<P>,
    /// The full `B.PIs` of every chain tip `B` that has one, with its
    /// segment's mark; moved to the child when a tip is extended, rebuilt
    /// when missing.
    views: HashMap<BlockRef, Tip>,
    /// The replayed `B.PIs` of each continued block a rebuild started
    /// from.
    replays: HashMap<BlockRef, Replayed>,
    /// Blocks those replays drove.
    blocks_replayed: u64,
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
            replays: HashMap::new(),
            blocks_replayed: 0,
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

    /// Blocks that view rebuilds replayed: at most `SEGMENT − 1` = 15 per
    /// continued parent, once, however many children rebuild there (see
    /// the module docs). Not in [`InterpretStats`]: the clone-per-block
    /// oracle shares that type and never replays.
    pub fn blocks_replayed(&self) -> u64 {
        self.blocks_replayed
    }

    /// Instance versions held in the arena: at most one per label per
    /// chain segment, plus the versions rebuilds replayed, less every
    /// version that retired — the live slots.
    pub fn resident_versions(&self) -> usize {
        self.arena.live()
    }

    /// Interpretation state attached to `block`, if interpreted.
    pub fn state(&self, block: &BlockRef) -> Option<&BlockState<P>> {
        self.states.get(block)
    }

    /// Blocks interpreted so far, in interpretation order.
    pub fn interpreted_order(&self) -> &[BlockRef] {
        &self.order
    }

    /// `top` and its parent chain down to the block that opened `top`'s
    /// segment, newest first.
    fn segment(&self, top: &BlockRef) -> Vec<BlockRef> {
        let mut blocks = Vec::new();
        let mut at = *top;
        while let Some(state) = self.states.get(&at) {
            blocks.push(at);
            match state.parent {
                Some(parent) if !state.opens => at = parent,
                _ => break,
            }
        }
        blocks
    }

    /// Whether [`Interpreter::walk`] reads `block`'s exact `B.PIs`: it was
    /// never continued, or a rebuild replayed it.
    fn exact(&self, block: &BlockRef) -> bool {
        self.states
            .get(block)
            .is_some_and(|state| !state.continued || self.replays.contains_key(block))
    }

    /// Hands `visit` the entry lists that make up the `B.PIs` that `start`
    /// names, newest first, until it returns `false`; the first entry of a
    /// label is its version. Exact at a block that is
    /// [`Interpreter::exact`], which every parent of a segment's opener is
    /// (see the module docs).
    fn walk<'a>(&'a self, start: Start, mut visit: impl FnMut(&'a Delta) -> bool) {
        let mut next = Some(start);
        while let Some(start) = next {
            let opener = match start {
                Start::At(top) => match self.replays.get(&top) {
                    // A replayed block: its record, then below its segment.
                    Some(replayed) => {
                        if !visit(&replayed.entries) {
                            return;
                        }
                        replayed.from
                    }
                    None => {
                        let mut opener = top;
                        for block in self.segment(&top) {
                            if !visit(&self.states[&block].delta) {
                                return;
                            }
                            opener = block;
                        }
                        opener
                    }
                },
                Start::Before(opener) => opener,
            };
            // `opener` opened a segment: go on at its parent.
            next = self
                .states
                .get(&opener)
                .and_then(|state| state.parent)
                .map(Start::At);
        }
    }

    /// The full `Label → slot` map [`Interpreter::walk`] reads from
    /// `start`.
    fn view_of(&self, start: Start) -> Instances {
        let mut view = Instances::new();
        self.walk(start, |entries| {
            for &(label, slot) in entries {
                view.entry(label)
                    .or_insert_with(|| self.arena.current(slot));
            }
            true
        });
        view
    }

    /// Drives the blocks of `segment` (newest first, as
    /// [`Interpreter::segment`] lists them) once more, oldest first, on
    /// owned copies of the versions `base` names, and returns the copies:
    /// every label the blocks drove — or just `only`, skipping the blocks
    /// that did not drive it — at the newest block, `None` where the label
    /// is retired. The outs each block makes are the ones it stored.
    ///
    /// # Errors
    ///
    /// [`InterpretError::UnknownBlock`] for a block to replay that `dag`
    /// does not hold.
    fn replay(
        &self,
        dag: &BlockDag,
        segment: &[BlockRef],
        base: &Instances,
        only: Option<Label>,
    ) -> Result<BTreeMap<Label, Option<P>>, InterpretError> {
        let Some(me) = segment.first().and_then(|top| self.states.get(top)) else {
            return Ok(BTreeMap::new());
        };
        let mut overlay = Overlay {
            arena: &self.arena,
            base,
            versions: BTreeMap::new(),
            config: &self.config,
            me: me.builder,
        };
        let mut scratch = InterpretStats::default();
        for block_ref in segment.iter().rev() {
            // A block that did not drive `only` has nothing of it to replay.
            let delta = &self.states[block_ref].delta;
            if only.is_some_and(|label| label_range(delta, label).is_empty()) {
                continue;
            }
            let block = dag
                .get(block_ref)
                .ok_or(InterpretError::UnknownBlock { block: *block_ref })?;
            let preds = dag.preds_of(block_ref);
            let (outs, _) = Self::drive(
                &mut overlay,
                &self.states,
                block,
                &preds,
                only,
                &mut scratch,
                |_, _| {},
            );
            let stored = &self.states[block_ref].outs;
            debug_assert!(
                outs.iter(outs.span(None))
                    .eq(stored.iter(stored.span(only))),
                "a replayed block sends what it sent"
            );
        }
        Ok(overlay.versions)
    }

    /// `B.PIs[ℓ]`: the simulated instance of `label` for `block`'s builder
    /// after interpreting `block`, if it has been started — the newest
    /// delta entry on the parent chain, or, at a continued block that no
    /// rebuild replayed, the replay of its segment from `dag`. For tests
    /// and audits. [`InstanceAt::Retired`] exactly when that state is
    /// terminal ([`DeterministicProtocol::is_terminal`]): its version was
    /// retired, and no state is kept for it. `None` also when that replay
    /// needs a block `dag` does not hold.
    pub fn instance_at(
        &self,
        dag: &BlockDag,
        block: &BlockRef,
        label: Label,
    ) -> Option<InstanceAt<P>> {
        if !self.is_interpreted(block) {
            return None;
        }
        let segment = if self.exact(block) {
            Vec::new()
        } else {
            self.segment(block)
        };
        let start = match segment.last() {
            Some(opener) => Start::Before(*opener),
            None => Start::At(*block),
        };
        let mut base = Instances::new();
        self.walk(start, |entries| match label_range(entries, label).first() {
            Some(&(_, slot)) => {
                base.insert(label, self.arena.current(slot));
                false
            }
            None => true,
        });
        let mut replayed = self.replay(dag, &segment, &base, Some(label)).ok()?;
        let version = match replayed.remove(&label) {
            Some(version) => version,
            None => match *base.get(&label)? {
                RETIRED => None,
                slot => Some(self.arena[slot].clone()),
            },
        };
        Some(version.map_or(InstanceAt::Retired, InstanceAt::Live))
    }

    /// Labels with a started instance at `block` (the keys of `B.PIs`), in
    /// label order. Walks the chain; for tests and audits.
    pub fn instance_labels_at(&self, block: &BlockRef) -> Vec<Label> {
        let mut labels: Vec<Label> = self.view_of(Start::At(*block)).into_keys().collect();
        labels.sort_unstable();
        labels
    }

    /// What the edges deliver to a block built by `me` with direct
    /// predecessors `preds` (Algorithm 2, lines 8–10): `(label, sender,
    /// message)` for every out-buffer entry of a predecessor by another
    /// builder whose receivers include `me` — of every label, or of `only`
    /// one — sorted by `(label, <_M)`.
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
            // What `me` sent itself was delivered at the block that sent it.
            .filter(|state| state.builder != me)
            .flat_map(|state| {
                let outs = &state.outs;
                outs.span(only)
                    .filter(move |&at| outs.goes_to(at, me))
                    .map(|at| {
                        let (label, message) = &outs.entries[at];
                        (*label, state.builder, message)
                    })
            })
            .collect();
        // One sorted run per predecessor (its sender is fixed): the stable
        // sort finds the runs and merges them.
        inbox.sort();
        inbox.dedup();
        inbox
    }

    /// In-coming messages `B.Ms[in, ℓ]` of `block`: every envelope that
    /// interpreting it delivers (or delivered) to its builder's instance of
    /// `label`, in the order `<_M` — the edges' messages, and the ones the
    /// builder sent itself at `block`, once it is interpreted. Derived from
    /// the out-buffers of the predecessors and of `block`, not stored — so
    /// it reads the same on an interpreter restored from a snapshot. Empty
    /// for a block `dag` does not hold.
    ///
    /// The edges' messages are delivered in this order; the self-addressed
    /// ones after them, in the order they were sent, which the out-buffer,
    /// a set, does not keep (the in-block self-link, see the module docs).
    pub fn in_messages(
        &self,
        dag: &BlockDag,
        block: &BlockRef,
        label: Label,
    ) -> impl Iterator<Item = Envelope<P::Message>> + '_ {
        let preds = dag.preds_of(block);
        let own = self.states.get(block).map(|state| &state.outs);
        dag.get(block)
            .map(|block| {
                let receiver = block.builder();
                let mut inbox = Self::inbox(&self.states, &preds, receiver, Some(label));
                if let Some(outs) = own {
                    inbox.extend(
                        outs.span(Some(label))
                            .filter(|&at| outs.goes_to(at, receiver))
                            .map(|at| (label, receiver, &outs.entries[at].1)),
                    );
                }
                inbox.sort();
                inbox.into_iter().map(move |(_, sender, message)| Envelope {
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

    /// Drives `block`'s touches on `versions` (Algorithm 2, lines 5–11, the
    /// in-block self-link, and lines 13–14) — every label's, or `only`
    /// one's — counting the work into `stats` and handing each indication
    /// to `raise` as its label is done, and retiring each version that
    /// ends the label's drive terminal. Returns the block's out-buffer,
    /// normalized, and every touched label with its key, sorted. The one
    /// body that interpretation and replay share.
    fn drive<V: Versions<P>>(
        versions: &mut V,
        states: &HashMap<BlockRef, BlockState<P>>,
        block: &Block,
        preds: &[BlockRef],
        only: Option<Label>,
        stats: &mut InterpretStats,
        mut raise: impl FnMut(Label, P::Indication),
    ) -> (Outs<P::Message>, Delta<V::Key>) {
        let me = block.builder();
        // Every touched label with its key, in label order: the delta.
        let mut delta: Delta<V::Key> = Vec::new();
        let mut outbox = Outbox::new(*versions.config());
        // The block's requests by label, each label's in block order.
        let mut requests = Vec::with_capacity(block.requests().len());
        requests.extend(
            block
                .requests()
                .enumerate()
                .filter(|(_, labeled)| only.is_none_or(|only| only == labeled.label)),
        );
        requests.sort_unstable_by_key(|(at, labeled)| (labeled.label, *at));

        // Label by label, Algorithm 2's lines 5–11, then the in-block
        // self-link, then lines 13–14. Lines 5–6 feed the block's own
        // requests to B.n's instance; lines 7–11 deliver the in-messages addressed to B.n
        // in the direct predecessors' out-buffers, in the total order <_M.
        // Line 7 ranges over every label requested at an ancestor, but
        // only labels requested here or sent on by some predecessor can
        // drive an instance, so walking those is observationally
        // identical (the retained reference interpreter iterates the full
        // set; the equivalence suite pins this) and keeps delivery cost
        // proportional to traffic, not to the lifetime label count.
        // Then what the label's instance sent B.n is delivered to it here,
        // in the order sent, with what those deliveries send B.n in turn
        // (see the module docs). An instance sees only its own label's
        // messages, so it sees what one queue over the whole block would
        // hand it, in the same order. Lines 13–14 surface what the label's
        // handlers raised, in the order raised: one label is driven in one
        // go and labels in label order, so the block's indications come
        // out label by label.
        let inbox = Self::inbox(states, preds, me, only);
        // Room for a message per input; the self-link may add more.
        let mut outs: Buffer<P::Message> = Vec::with_capacity(requests.len() + inbox.len());
        let mut groups = inbox.chunk_by(|a, b| a.0 == b.0).peekable();
        let mut runs = requests
            .chunk_by(|(_, a), (_, b)| a.label == b.label)
            .peekable();
        let mut link = Vec::new();
        loop {
            let next_group = groups.peek().map(|group| group[0].0);
            let next_run = runs.peek().map(|run| run[0].1.label);
            let Some(label) = next_group.into_iter().chain(next_run).min() else {
                break;
            };
            let mark = outs.len();
            let mut key = None;
            let run = runs.next_if(|run| run[0].1.label == label);
            for (_, labeled) in run.unwrap_or_default() {
                match decode_from_slice::<P::Request>(&labeled.payload) {
                    Ok(request) => {
                        let (touched, instance) = versions.touch(label);
                        // A retired instance would ignore it.
                        if let Some(instance) = instance {
                            instance.on_request(request, &mut outbox);
                            outs.extend(outbox.drain().map(|(to, message)| (label, (message, to))));
                        }
                        key = Some(touched);
                        stats.requests_processed += 1;
                    }
                    Err(_) => {
                        // A byzantine builder inscribed bytes that are not a
                        // request of P. P assumes requests are authentic
                        // (§5); garbage never reaches it.
                        stats.malformed_requests += 1;
                    }
                }
            }
            if let Some(group) = groups.next_if(|group| group[0].0 == label) {
                let (touched, instance) = versions.touch(label);
                // A retired instance would ignore them: no clone is made.
                if let Some(instance) = instance {
                    for (_, sender, message) in group {
                        instance.on_message(*sender, (*message).clone(), &mut outbox);
                        outs.extend(outbox.drain().map(|(to, message)| (label, (message, to))));
                    }
                }
                key = Some(touched);
            }
            // Nothing drove the label: every request on it was garbage.
            let Some(mut key) = key else { continue };
            if let Some(instance) = versions.get(key) {
                let delivered =
                    self_link(instance, me, label, &mut outs, &mut outbox, &mut link, mark);
                stats.messages_delivered += delivered as u64;
                // A terminal instance sends and raises nothing again.
                if instance.is_terminal() {
                    key = versions.retire(label, key);
                }
            }
            delta.push((label, key));
            for indication in outbox.drain_indications() {
                stats.indications += 1;
                raise(label, indication);
            }
        }
        stats.messages_delivered += inbox.len() as u64;
        // The counter is of messages made; the buffer is a set.
        stats.messages_materialized += envelope_count(&outs) as u64;
        (Outs::normalize(outs, versions.config().n), delta)
    }

    /// `B.PIs` at `parent` for a child that found no view there: the walk,
    /// once `parent` is exact — a continued `parent` that no rebuild has
    /// replayed yet gets its segment replayed into fresh slots, recorded
    /// for every later child and walk.
    ///
    /// # Errors
    ///
    /// [`InterpretError::UnknownBlock`] if that replay needs a block `dag`
    /// does not hold.
    fn rebuild(&mut self, dag: &BlockDag, parent: BlockRef) -> Result<Instances, InterpretError> {
        if !self.exact(&parent) {
            let segment = self.segment(&parent);
            let from = *segment.last().expect("a segment holds its top");
            let base = self.view_of(Start::Before(from));
            let replayed = self.replay(dag, &segment, &base, None)?;
            self.blocks_replayed += segment.len() as u64;
            let entries: Delta = replayed
                .into_iter()
                .map(|(label, version)| (label, version.map_or(RETIRED, |v| self.arena.push(v))))
                .collect();
            self.replays.insert(parent, Replayed { from, entries });
        }
        Ok(self.view_of(Start::At(parent)))
    }

    /// Interprets a single eligible block (Algorithm 2, lines 4–12).
    ///
    /// Line 4 (`PIs := B_parent.PIs`) moves the parent's view here; only
    /// labels touched at this block — requests fed (lines 5–6) or messages
    /// delivered (lines 8–11) — are cloned into the arena, on their first
    /// write in the chain's segment, and recorded as the block's delta.
    ///
    /// # Errors
    ///
    /// * [`InterpretError::UnknownBlock`] — `block`, or a block its parent's
    ///   rebuild must replay, not in `dag`;
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

        // Line 4: PIs := the parent's PIs — its view, moved, in the same
        // segment unless this block's sequence number opens one. Only a
        // parent that is no longer (or, after a restore, not yet) a tip
        // with a view pays for a rebuild, which opens a segment too.
        // Genesis blocks (and, for lazily created labels, first contact)
        // start fresh instances.
        let opening = block.seq().value() % SEGMENT == 0;
        let (view, continued) = match parent {
            None => (Instances::new(), None),
            Some(parent) => match self.views.remove(&parent) {
                Some(tip) if !opening => {
                    if let Some(state) = self.states.get_mut(&parent) {
                        state.continued = true;
                    }
                    (tip.view, Some(tip.mark))
                }
                Some(tip) => (tip.view, None),
                None => (self.rebuild(dag, parent)?, None),
            },
        };
        let opens = continued.is_none();
        let mut tip = Tip {
            view,
            mark: continued.unwrap_or(self.arena.pushes),
        };

        let indications = &mut self.indications;
        let mut driven = Driven {
            arena: &mut self.arena,
            tip: &mut tip,
            config: &self.config,
            me,
            retired: 0,
        };
        let (outs, delta) = Self::drive(
            &mut driven,
            &self.states,
            block,
            &preds,
            None,
            &mut self.stats,
            |label, indication| {
                indications.push(Indication {
                    label,
                    indication,
                    server: me,
                    block: *block_ref,
                })
            },
        );

        self.footprint.retired_instances += driven.retired;

        // Line 12: I[B] := true.
        self.footprint.blocks += 1;
        self.footprint.instances += tip.view.len();
        self.footprint.unique_instances += delta.len();
        self.footprint.out_envelopes += outs.envelopes();
        self.footprint.out_entries += outs.len();
        self.views.insert(*block_ref, tip);
        self.states.insert(
            *block_ref,
            BlockState {
                parent,
                builder: me,
                opens,
                continued: false,
                delta,
                outs,
            },
        );
        self.order.push(*block_ref);
        self.stats.blocks_interpreted += 1;
        Ok(())
    }

    /// Approximate memory footprint: stored protocol instances (what the
    /// literal Algorithm 2 would hold, and the touches this one records)
    /// and out-envelopes across all interpreted blocks. Used by the
    /// bounded-memory experiments. O(1): the totals are maintained as
    /// blocks are interpreted.
    ///
    /// `instances` is what a clone-per-block interpreter would store;
    /// `unique_instances` is the delta entries this interpreter keeps —
    /// their ratio is the saving. [`Interpreter::resident_versions`]
    /// counts the versions those entries share, `live_versions` here.
    pub fn footprint(&self) -> InterpreterFootprint {
        InterpreterFootprint {
            live_versions: self.arena.live(),
            ..self.footprint
        }
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
    /// The snapshot's interpretation order repeats a block, a block's
    /// parent does not point at an earlier block of it or its replayed
    /// segment at it or an earlier one, or an entry names a version the
    /// snapshot does not hold.
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
            SnapshotError::BadIndex => {
                write!(
                    f,
                    "snapshot block order, block index or version index invalid"
                )
            }
        }
    }
}

impl Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(err: DecodeError) -> Self {
        SnapshotError::Corrupt(err)
    }
}

/// Snapshot format version written by [`Interpreter::snapshot`].
/// Format 7 writes each live arena version once and names versions by
/// index, [`RETIRED_INDEX`] for the tombstone of a retired label, with each
/// block's segment flags, and writes a block's out-buffer as it is stored:
/// a block with no receivers column sets [`BROADCASTS`] and writes its
/// entries without sets, any other writes every entry's set. Format 6 was
/// the case with that flag clear on every block: each entry's set written,
/// a broadcast's too. A format-6 build would reject the flag as a corrupt
/// snapshot and fail recovery, so the number moved, and this build
/// likewise replays over a format-6 snapshot. Format 5 had format 6's
/// layout but no tombstone: it wrote every version ever made, terminal
/// ones too. A build that predates retirement would read the tombstone's
/// index as a version it does not hold and fail recovery on a corrupt
/// snapshot; under its own number the snapshot is skipped there, and this
/// build likewise replays over a format-5 one. Format 4 had the same
/// layout too, but its instance states and out-buffers were computed with
/// a builder's messages to itself delivered at its next block, not at the
/// block that sent them (the in-block self-link, see the module docs), so
/// they are not this build's interpretation of the same blocks and must be
/// replayed. Format 3 wrote the version of every delta entry, and format 2
/// also one envelope per receiver and the configuration in every instance.
const SNAPSHOT_VERSION: u8 = 7;

/// The version of the interpretation rule: how an [`Interpreter`] turns a
/// DAG into executions of `P`. Servers on two rules compute two executions
/// from the same blocks, so Lemma 4.2's agreement holds only among servers
/// on one rule; the transport's handshake carries it and refuses a peer on
/// another. Rule 1 delivered a builder's messages to itself over the edge
/// from its block, at its next block; rule 2 delivers them at the block
/// that sends them (the in-block self-link, see the module docs).
pub const INTERPRETATION_RULE: u32 = 2;

/// A block's segment flags in a snapshot: it opened a segment, it was
/// continued, a rebuild replayed its segment up to it, and it has no
/// receivers column, so its out-buffer entries are written without sets.
const OPENS: u8 = 1;
const CONTINUED: u8 = 2;
const REPLAYED: u8 = 4;
const BROADCASTS: u8 = 8;

/// The version index a snapshot writes for the tombstone.
const RETIRED_INDEX: u32 = u32::MAX;

/// Writes `(label, key)` entries: their count, then each label with the
/// version index `index` gives its key.
fn encode_entries(entries: &[(Label, Slot)], index: impl Fn(Slot) -> u32, out: &mut Vec<u8>) {
    (entries.len() as u32).encode(out);
    for &(label, key) in entries {
        label.encode(out);
        index(key).encode(out);
    }
}

/// Reads what [`encode_entries`] wrote, each slot below `versions` or the
/// tombstone. Of a repeated label the last entry wins: reversed, the
/// stable sort puts it first of its run, which is the one `dedup` keeps.
fn decode_entries(reader: &mut Reader<'_>, versions: usize) -> Result<Delta, SnapshotError> {
    // An entry is a label and a version index.
    let count = reader.read_len(12)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let label = Label::decode(reader)?;
        let slot = match reader.read_u32()? {
            RETIRED_INDEX => RETIRED,
            index if (index as usize) < versions => Slot::from(index),
            _ => return Err(SnapshotError::BadIndex),
        };
        entries.push((label, slot));
    }
    // What `encode_entries` writes is strictly ascending already.
    if !entries.windows(2).all(|pair| pair[0].0 < pair[1].0) {
        entries.reverse();
        entries.sort_by_key(|(label, _)| *label);
        entries.dedup_by_key(|(label, _)| *label);
    }
    Ok(entries)
}

impl<P: DeterministicProtocol> Interpreter<P> {
    /// Serializes the complete interpretation state — order, counters,
    /// every instance version once, and per block its parent, builder,
    /// segment flags, delta and out-buffer entries — so a snapshot costs
    /// what is actually resident, not blocks × labels. Tip views are not
    /// written: they are rebuilt on first use.
    ///
    /// `None` when `P` keeps no snapshots
    /// ([`DeterministicProtocol::SNAPSHOTS`]): its instances write no
    /// state, so [`Interpreter::decode_snapshot`] could not read the
    /// bytes back.
    ///
    /// Must be called with [`Interpreter::drain_indications`] drained:
    /// undrained indications are not captured.
    pub fn snapshot(&self) -> Option<Vec<u8>> {
        P::SNAPSHOTS.then(|| self.write_snapshot())
    }

    /// The bytes of [`Interpreter::snapshot`], for any `P`.
    fn write_snapshot(&self) -> Vec<u8> {
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
        // The live versions in slot order, each named by its position. A
        // key to a retired version names the tombstone.
        let mut positions = vec![RETIRED_INDEX; self.arena.slots()];
        (self.arena.live() as u32).encode(&mut out);
        for ((key, version), position) in self.arena.iter().zip(0..) {
            positions[slot_of(key)] = position;
            version.encode_state(&mut out);
        }
        let index = |key| match self.arena.current(key) {
            RETIRED => RETIRED_INDEX,
            key => positions[slot_of(key)],
        };
        // Per block, in interpretation order. A block is written as its
        // 1-based position in that order (0 for no parent).
        let position: HashMap<&BlockRef, u64> = self.order.iter().zip(1..).collect();
        for block_ref in &self.order {
            let state = &self.states[block_ref];
            state
                .parent
                .as_ref()
                .map_or(0, |parent| position[parent])
                .encode(&mut out);
            state.builder.encode(&mut out);
            let replayed = self.replays.get(block_ref);
            let broadcasts = state.outs.receivers.is_empty();
            let flags = if state.opens { OPENS } else { 0 }
                | if state.continued { CONTINUED } else { 0 }
                | if replayed.is_some() { REPLAYED } else { 0 }
                | if broadcasts { BROADCASTS } else { 0 };
            flags.encode(&mut out);
            if let Some(replayed) = replayed {
                position[&replayed.from].encode(&mut out);
                encode_entries(&replayed.entries, index, &mut out);
            }
            encode_entries(&state.delta, index, &mut out);
            // The entries as the block stores them: with no receivers
            // column, no set written; with one, every entry's.
            (state.outs.len() as u32).encode(&mut out);
            for (at, (label, message)) in state.outs.entries.iter().enumerate() {
                label.encode(&mut out);
                message.encode(&mut out);
                if let Some(receivers) = state.outs.receivers.get(at) {
                    receivers.encode(&mut out);
                }
            }
        }
        out
    }

    /// Rebuilds an interpreter from [`Interpreter::snapshot`] bytes.
    ///
    /// Its cursor stands after the first `interpreted_count()` blocks of
    /// the DAG's insertion order — feed it the same, grown DAG and
    /// [`Interpreter::step`] interprets only the suffix. The caller checks
    /// the covered prefix (see `Shim::recover_from_store`).
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

        let mut arena = Arena::new();
        // A protocol's state may encode to no bytes at all, but a live
        // version is named by a delta or replay entry, 12 bytes at least:
        // so a corrupt count costs what the snapshot's length allows.
        for _ in 0..reader.read_len(12)? {
            arena.push(P::decode_state(&config, &mut reader)?);
        }
        let versions = arena.slots();
        // The receivers of a broadcast entry, which a block stores as none.
        let all = ServerSet::all(config.n);
        let mut states: HashMap<BlockRef, BlockState<P>> = HashMap::with_capacity(covered);
        let mut replays = HashMap::new();
        for (position, block_ref) in order.iter().enumerate() {
            // A block named strictly earlier in a repetition-free order
            // keeps every chain walk finite and inside `states`.
            let earlier = |index: u64| match index as usize {
                0 => Ok(None),
                index if index <= position => Ok(Some(order[index - 1])),
                _ => Err(SnapshotError::BadIndex),
            };
            let parent = earlier(reader.read_u64()?)?;
            let builder = ServerId::decode(&mut reader)?;
            let flags = reader.read_u8()?;
            if flags & !(OPENS | CONTINUED | REPLAYED | BROADCASTS) != 0 {
                return Err(SnapshotError::Corrupt(DecodeError::InvalidDiscriminant {
                    type_name: "segment flags",
                    value: flags,
                }));
            }
            if flags & REPLAYED != 0 {
                // A replayed segment opened at this block or an earlier one.
                let from = match reader.read_u64()? as usize {
                    index if index == position + 1 => *block_ref,
                    index => earlier(index as u64)?.ok_or(SnapshotError::BadIndex)?,
                };
                let entries = decode_entries(&mut reader, versions)?;
                replays.insert(*block_ref, Replayed { from, entries });
            }
            let delta = decode_entries(&mut reader, versions)?;
            // An entry is at least its label, and its receiver count if
            // the block has a column.
            let broadcasts = flags & BROADCASTS != 0;
            let entries = reader.read_len(if broadcasts { 8 } else { 12 })?;
            let mut outs = Outs::with_capacity(entries, config.n);
            for _ in 0..entries {
                let label = Label::decode(&mut reader)?;
                let message = P::Message::decode(&mut reader)?;
                if broadcasts {
                    // No column: the entry goes into the stored form as
                    // it is, with no set built or compared.
                    outs.entries.push((label, message));
                } else {
                    let receivers = ServerSet::decode(&mut reader)?;
                    outs.push(label, message, receivers, &all);
                }
            }
            // Canonical bytes are sorted and repeat-free already; anything
            // else is normalized once per block.
            let outs = outs.into_canonical();
            footprint.unique_instances += delta.len();
            footprint.out_envelopes += outs.envelopes();
            footprint.out_entries += outs.len();
            let state = BlockState {
                parent,
                builder,
                // A block without a parent starts a chain, so a segment.
                opens: flags & OPENS != 0 || parent.is_none(),
                continued: flags & CONTINUED != 0,
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
            replays,
            blocks_replayed: 0,
            footprint,
            scanned: covered,
            order,
            indications: Vec::new(),
            stats,
        })
    }
}

// --- Benchmark adapter only ----------------------------------------------
//
// `crates/bench/src/bin/benchmark/adapter.rs:646` names this; it is
// `Interpreter::snapshot` without the `P::SNAPSHOTS` check, so for a `P`
// that keeps no snapshots it writes bytes no decode reads.

impl<P: DeterministicProtocol> Interpreter<P> {
    #[doc(hidden)]
    pub fn encode_snapshot(&self) -> Vec<u8> {
        self.write_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, LabeledRequest, SeqNum};
    use dagbft_crypto::{KeyRegistry, Signer};
    use std::collections::{BTreeMap, BTreeSet};

    /// A deterministic ping protocol: on request, send PING to everyone;
    /// on PING, indicate the value once.
    #[derive(Debug, Clone)]
    struct Ping {
        seen: BTreeSet<u64>,
    }

    impl DeterministicProtocol for Ping {
        type Request = u64;
        type Message = u64;
        type Indication = u64;
        const SNAPSHOTS: bool = true;

        fn new(_config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Ping {
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

        fn encode_state(&self, out: &mut Vec<u8>) {
            self.seen.encode(out);
        }

        fn decode_state(
            _config: &ProtocolConfig,
            reader: &mut Reader<'_>,
        ) -> Result<Self, DecodeError> {
            Ok(Ping {
                seen: WireDecode::decode(reader)?,
            })
        }
    }

    /// Indicates every event in the order it arrived: a request `r` (which
    /// it also broadcasts) as `r`, a message `m` as `1000 + m`.
    #[derive(Debug, Clone)]
    struct Journal;

    impl DeterministicProtocol for Journal {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(_config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Journal
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64, u64>) {
            outbox.indicate(request);
            outbox.broadcast(request);
        }

        fn on_message(&mut self, _sender: ServerId, message: u64, outbox: &mut Outbox<u64, u64>) {
            outbox.indicate(1000 + message);
        }
    }

    /// Counts every delivery by sender and message and indicates each as it
    /// arrives. A request `r` sends its own server `10 r + 2`; a message
    /// whose last digit is not 0 sends it that message less one: a self
    /// chain three deep, request → self → self → self.
    #[derive(Debug, Clone, PartialEq)]
    struct Hops {
        me: ServerId,
        received: BTreeMap<(ServerId, u64), u32>,
    }

    impl DeterministicProtocol for Hops {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(_config: &ProtocolConfig, _label: Label, me: ServerId) -> Self {
            Hops {
                me,
                received: BTreeMap::new(),
            }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64, u64>) {
            outbox.send(self.me, 10 * request + 2);
        }

        fn on_message(&mut self, sender: ServerId, message: u64, outbox: &mut Outbox<u64, u64>) {
            *self.received.entry((sender, message)).or_default() += 1;
            outbox.indicate(message);
            if !message.is_multiple_of(10) {
                outbox.send(self.me, message - 1);
            }
        }
    }

    /// On a request `r`, indicates `r` and then `r + 1` and sends its own
    /// server `r + 2`; indicates every message it receives.
    #[derive(Debug, Clone)]
    struct Twice {
        me: ServerId,
    }

    impl DeterministicProtocol for Twice {
        type Request = u64;
        type Message = u64;
        type Indication = u64;

        fn new(_config: &ProtocolConfig, _label: Label, me: ServerId) -> Self {
            Twice { me }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64, u64>) {
            outbox.indicate(request);
            outbox.indicate(request + 1);
            outbox.send(self.me, request + 2);
        }

        fn on_message(&mut self, _sender: ServerId, message: u64, outbox: &mut Outbox<u64, u64>) {
            outbox.indicate(message);
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
        // s0 references its own genesis and s1's chain.
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
    /// request, so blocks from index 1 on touch nothing (the PING
    /// self-delivers at the genesis that sends it, and Ping replies with
    /// silence).
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

        // b0 (by s0) delivered its own PING at b0, the block that sent it,
        // so the edge b0 ⇀ b3 carries nothing to s0.
        let ins0: Vec<_> = interpreter
            .in_messages(&dag, &blocks[0].block_ref(), Label::new(1))
            .collect();
        assert_eq!(ins0.len(), 1);
        assert_eq!(ins0[0].sender, ServerId::new(0));
        assert_eq!(ins0[0].receiver, ServerId::new(0));
        let ins3 = interpreter.in_messages(&dag, &blocks[3].block_ref(), Label::new(1));
        assert_eq!(ins3.count(), 0);

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
        // there (the PING self-delivers at the block that sends it), so
        // blocks 1.. have an empty delta and read the label through the
        // chain.
        let (dag, blocks) = single_chain(6);
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);

        let at = |block: &Block| {
            interpreter
                .instance_at(&dag, &block.block_ref(), Label::new(1))
                .and_then(InstanceAt::live)
                .unwrap()
                .seen
        };
        for later in &blocks[1..] {
            let state = interpreter.state(&later.block_ref()).unwrap();
            assert_eq!(state.touched_labels().count(), 0, "quiescent block");
            assert_eq!(at(later), at(&blocks[0]));
            assert_eq!(
                interpreter.instance_labels_at(&later.block_ref()),
                vec![Label::new(1)]
            );
        }
        // One chain, one tip, one view.
        assert_eq!(interpreter.views.len(), 1);
        assert!(interpreter.views.contains_key(&blocks[5].block_ref()));
        // Genesis touched the label (request and self-delivery, one
        // touch); blocks 1.. add nothing.
        let footprint = interpreter.footprint();
        assert_eq!(footprint.blocks, 6);
        assert_eq!(footprint.instances, 6); // one label in every state
        assert_eq!(footprint.unique_instances, 1);
        assert!(footprint.sharing_ratio() > 5.9);
        // The touch fell in the chain's first segment: one version.
        assert_eq!(interpreter.resident_versions(), 1);
    }

    /// The structure the module docs promise: exactly one view per chain
    /// tip, naming the slots of the chain's walk; a block is continued
    /// exactly when a child moved its view on inside its segment; every
    /// live arena slot, and no other, is named by a delta entry or a
    /// replay; and footprint counters that say what the states hold.
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
        for (tip, held) in &interpreter.views {
            assert_eq!(held.view, interpreter.view_of(Start::At(*tip)));
        }
        for (block, state) in states {
            let continued = states
                .values()
                .any(|child| child.parent == Some(*block) && !child.opens);
            assert_eq!(state.continued, continued);
        }
        let footprint = interpreter.footprint();
        let named: BTreeSet<Slot> = states
            .values()
            .flat_map(|s| &s.delta)
            .chain(interpreter.replays.values().flat_map(|r| &r.entries))
            .map(|(_, key)| interpreter.arena.current(*key))
            .filter(|key| *key != RETIRED)
            .collect();
        let deltas: usize = states.values().map(|s| s.delta.len()).sum();
        assert!(named
            .iter()
            .copied()
            .eq(interpreter.arena.iter().map(|(slot, _)| slot)));
        let slots: usize = states
            .keys()
            .map(|b| interpreter.instance_labels_at(b).len())
            .sum();
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
        // block 1 drives the instance (its request's self-delivered PING
        // mutates `seen`), the genesis state still shows the instance as
        // its own PING left it.
        let (dag, blocks) = dag_of(
            1,
            &[(0, 0, &[], &[7]), (0, 1, &[0], &[8]), (0, 2, &[1], &[])],
        );
        let mut interpreter: Interpreter<Ping> = Interpreter::new(ProtocolConfig::for_n(1));
        interpreter.step(&dag);

        let seen = |at: usize| {
            let instance = interpreter.instance_at(&dag, &blocks[at].block_ref(), Label::new(1));
            let instance = instance.and_then(InstanceAt::live).unwrap();
            instance.seen.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(seen(0), [7], "ancestor unmodified");
        assert_eq!(seen(1), [7, 8], "descendant advanced");
    }

    #[test]
    fn a_driven_but_silent_instance_leaves_no_out_entry() {
        // s1's block 1 is delivered s0's PING; Ping answers with silence.
        // The label is in that block's delta and nowhere in its
        // out-buffer, so s1's block 2 has nothing to look at.
        let (dag, blocks) = dag_of(
            2,
            &[
                (0, 0, &[], &[7]),
                (1, 0, &[], &[]),
                (1, 1, &[1, 0], &[]),
                (1, 2, &[2], &[]),
            ],
        );
        let (interpreter, _) = interpret_like_the_oracle::<Ping>(&dag, 2, &[Label::new(1)]);
        let driven = interpreter.state(&blocks[2].block_ref()).unwrap();
        assert!(driven.touched_labels().eq([&Label::new(1)]));
        assert_eq!(driven.outs.len(), 0);
        assert_eq!(driven.out_messages(Label::new(1)).count(), 0);
        let successor = blocks[3].block_ref();
        assert_eq!(
            interpreter
                .in_messages(&dag, &successor, Label::new(1))
                .count(),
            0
        );
        assert_eq!(interpreter.footprint().out_envelopes, 2);
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
        // out-buffers hold PING 7 from s0 to s1. s1's block 1 references
        // both.
        let (dag, blocks) = dag_of(
            2,
            &[
                (0, 0, &[], &[7]),
                (0, 1, &[0], &[7]),
                (1, 0, &[], &[]),
                (1, 1, &[2, 1, 0], &[]),
            ],
        );
        let (interpreter, indications) =
            interpret_like_the_oracle::<Ping>(&dag, 2, &[Label::new(1)]);
        let tip = blocks[3].block_ref();
        assert_eq!(
            interpreter.in_messages(&dag, &tip, Label::new(1)).count(),
            1
        );
        // s0's two blocks each deliver their own PING 7, s1's block the one
        // both hold; s0 indicates once, and s1 once.
        assert_eq!(interpreter.stats().messages_delivered, 3);
        assert_eq!(indications.len(), 2);

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
        // Each sibling delivers its own PINGs (one, then two) to its own
        // instance, and s1's block both, once.
        assert_eq!(interpreter.stats().messages_delivered, 5);
        assert_eq!(indications.len(), 5);
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
        // s0's block 1 carries a request for the label that s1's PING is
        // delivered on over an edge: the request first, then the edge's
        // message, then what the request sent s0 itself.
        let (dag, _) = dag_of(
            2,
            &[(1, 0, &[], &[5]), (0, 0, &[], &[]), (0, 1, &[1, 0], &[6])],
        );
        let (_, indications) = interpret_like_the_oracle::<Journal>(&dag, 2, &[Label::new(1)]);
        let events: Vec<u64> = indications
            .iter()
            .filter(|i| i.server == ServerId::new(0))
            .map(|i| i.indication)
            .collect();
        assert_eq!(events, vec![6, 1005, 1006]);
    }

    /// What `Hops` received, by sender and message, at block `at`.
    fn hops_at(
        interpreter: &Interpreter<Hops>,
        dag: &BlockDag,
        blocks: &[Block],
        at: usize,
    ) -> Vec<((u32, u64), u32)> {
        let instance = interpreter.instance_at(dag, &blocks[at].block_ref(), Label::new(1));
        let received = instance
            .and_then(InstanceAt::live)
            .map(|hops| hops.received)
            .unwrap_or_default();
        received
            .into_iter()
            .map(|((sender, message), count)| ((sender.index() as u32, message), count))
            .collect()
    }

    #[test]
    fn a_self_addressed_envelope_is_delivered_once_at_the_sending_block() {
        // s0's genesis requests 1: the chain 12 → 11 → 10 runs at genesis,
        // each hop once; s1, which no hop is addressed to, never sees one.
        let (dag, blocks) = dag_of(
            2,
            &[(0, 0, &[], &[1]), (1, 0, &[0], &[]), (0, 1, &[0, 1], &[])],
        );
        let (interpreter, indications) =
            interpret_like_the_oracle::<Hops>(&dag, 2, &[Label::new(1)]);
        let once = vec![((0, 10), 1), ((0, 11), 1), ((0, 12), 1)];
        assert_eq!(hops_at(&interpreter, &dag, &blocks, 0), once);
        assert!(indications
            .iter()
            .all(|i| i.block == blocks[0].block_ref() && i.server == ServerId::new(0)));
        assert_eq!(indications.len(), 3);
        assert_eq!(hops_at(&interpreter, &dag, &blocks, 1), vec![]);
        assert_eq!(hops_at(&interpreter, &dag, &blocks, 2), once);
        assert_eq!(interpreter.stats().messages_delivered, 3);
        let genesis = interpreter.state(&blocks[0].block_ref()).unwrap();
        assert_eq!(genesis.out_messages(Label::new(1)).count(), 3);
    }

    #[test]
    fn a_three_deep_self_chain_completes_inside_one_block_in_fifo_order() {
        // Two chains on one label, started by two requests of one block,
        // the larger message first: every hop of both is delivered there,
        // first sent first delivered, not in the order `<_M`.
        let (dag, blocks) = dag_of(1, &[(0, 0, &[], &[2, 1])]);
        let (interpreter, indications) =
            interpret_like_the_oracle::<Hops>(&dag, 1, &[Label::new(1)]);
        let events: Vec<u64> = indications.iter().map(|i| i.indication).collect();
        assert_eq!(events, vec![22, 12, 21, 11, 20, 10]);
        let delivered: Vec<u64> = interpreter
            .in_messages(&dag, &blocks[0].block_ref(), Label::new(1))
            .map(|envelope| envelope.message)
            .collect();
        assert_eq!(delivered, vec![10, 11, 12, 20, 21, 22], "in <_M");
        assert_eq!(interpreter.stats().messages_delivered, 6);
    }

    #[test]
    fn a_value_equal_self_send_is_delivered_once_and_counted_twice() {
        // Two equal requests send 12 twice. `Ms[in, ℓ]` is a set: 12 is
        // delivered once, so 11 and 10 are sent once; the counter counts
        // the work done.
        let (dag, blocks) = dag_of(1, &[(0, 0, &[], &[1, 1])]);
        let (interpreter, indications) =
            interpret_like_the_oracle::<Hops>(&dag, 1, &[Label::new(1)]);
        let once = vec![((0, 10), 1), ((0, 11), 1), ((0, 12), 1)];
        assert_eq!(hops_at(&interpreter, &dag, &blocks, 0), once);
        assert_eq!(indications.len(), 3);
        assert_eq!(interpreter.stats().messages_materialized, 4);
        assert_eq!(interpreter.stats().messages_delivered, 3);
        assert_eq!(interpreter.footprint().out_entries, 3);
    }

    #[test]
    fn the_edge_from_an_own_block_redelivers_nothing() {
        // Block 1 names its parent; block 2 names its parent and, again,
        // its parent's parent. Both edges lead to blocks by s0 whose
        // out-buffers hold messages to s0: none of them is delivered again.
        let (dag, blocks) = dag_of(
            1,
            &[(0, 0, &[], &[1]), (0, 1, &[0], &[]), (0, 2, &[1, 0], &[])],
        );
        let (interpreter, indications) =
            interpret_like_the_oracle::<Hops>(&dag, 1, &[Label::new(1)]);
        assert_eq!(indications.len(), 3);
        assert_eq!(interpreter.stats().messages_delivered, 3);
        for at in 1..3 {
            let block = blocks[at].block_ref();
            let state = interpreter.state(&block).unwrap();
            assert_eq!(state.touched_labels().count(), 0, "block {at} is quiescent");
            assert_eq!(
                interpreter.in_messages(&dag, &block, Label::new(1)).count(),
                0
            );
            assert_eq!(
                hops_at(&interpreter, &dag, &blocks, at),
                hops_at(&interpreter, &dag, &blocks, 0)
            );
        }
    }

    #[test]
    fn in_messages_hold_what_the_block_delivered_its_own_included() {
        // s1's genesis broadcasts PING 9; s0's block 1 names it and
        // requests 7, which PINGs s0 itself. That block's `Ms[in, ℓ]` is
        // both — the edge's message and its own — in the order <_M, and
        // s0's genesis, which sent nothing, delivered nothing.
        let (dag, blocks) = dag_of(
            2,
            &[(1, 0, &[], &[9]), (0, 0, &[], &[]), (0, 1, &[1, 0], &[7])],
        );
        let (interpreter, indications) =
            interpret_like_the_oracle::<Ping>(&dag, 2, &[Label::new(1)]);
        let ins: Vec<(u32, u32, u64)> = interpreter
            .in_messages(&dag, &blocks[2].block_ref(), Label::new(1))
            .map(|e| {
                (
                    e.sender.index() as u32,
                    e.receiver.index() as u32,
                    e.message,
                )
            })
            .collect();
        assert_eq!(ins, vec![(0, 0, 7), (1, 0, 9)]);
        let own: Vec<(u32, u64)> = interpreter
            .in_messages(&dag, &blocks[0].block_ref(), Label::new(1))
            .map(|e| (e.sender.index() as u32, e.message))
            .collect();
        assert_eq!(own, vec![(1, 9)], "s1 delivered its own PING");
        assert_eq!(
            interpreter
                .in_messages(&dag, &blocks[1].block_ref(), Label::new(1))
                .count(),
            0
        );
        // s0 delivered both at block 1, the edge's first.
        let s0: Vec<u64> = indications
            .iter()
            .filter(|i| i.server == ServerId::new(0))
            .map(|i| i.indication)
            .collect();
        assert_eq!(s0, vec![9, 7]);
    }

    std::thread_local! {
        /// Comparisons between [`Counted`] messages on this thread.
        static COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A message whose comparisons, `==` and `cmp` alike, are counted in
    /// [`COMPARISONS`].
    #[derive(Debug, Clone, Eq)]
    struct Counted(u64);

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            COMPARISONS.with(|count| count.set(count.get() + 1));
            self.0 == other.0
        }
    }

    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            COMPARISONS.with(|count| count.set(count.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl WireEncode for Counted {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
    }

    impl WireDecode for Counted {
        fn decode(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
            Ok(Counted(u64::decode(reader)?))
        }
    }

    /// Sends its own server every request as a message, and indicates
    /// every message it receives.
    #[derive(Debug, Clone)]
    struct Loopback {
        me: ServerId,
    }

    impl DeterministicProtocol for Loopback {
        type Request = u64;
        type Message = Counted;
        type Indication = u64;

        fn new(_config: &ProtocolConfig, _label: Label, me: ServerId) -> Self {
            Loopback { me }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<Counted, u64>) {
            outbox.send(self.me, Counted(request));
        }

        fn on_message(
            &mut self,
            _sender: ServerId,
            message: Counted,
            outbox: &mut Outbox<Counted, u64>,
        ) {
            outbox.indicate(message.0);
        }
    }

    #[test]
    fn indications_surface_label_by_label_in_the_order_raised() {
        // s1's genesis block requests on label 2, then on label 1. Each
        // request raises two indications and sends s1 a message, whose
        // self-link delivery raises a third. The block's indications come
        // out label by label, each label's in the order raised, whatever
        // order the requests came in.
        let (_, signers) = setup(2);
        let request = |label, value: u64| LabeledRequest::encode(Label::new(label), &value);
        let b0 = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signers[0]);
        let b1 = Block::build(
            ServerId::new(1),
            SeqNum::ZERO,
            vec![],
            vec![request(2, 20), request(1, 10)],
            &signers[1],
        );
        let mut dag = BlockDag::new();
        dag.insert(b0).unwrap();
        dag.insert(b1.clone()).unwrap();
        let (interpreter, indications) =
            interpret_like_the_oracle::<Twice>(&dag, 2, &[Label::new(1), Label::new(2)]);
        let raised: Vec<(u64, u64)> = indications
            .iter()
            .map(|i| (i.label.id(), i.indication))
            .collect();
        assert_eq!(
            raised,
            [(1, 10), (1, 11), (1, 12), (2, 20), (2, 21), (2, 22)]
        );
        assert!(indications
            .iter()
            .all(|i| i.server == ServerId::new(1) && i.block == b1.block_ref()));
        assert_eq!(interpreter.stats().indications, 6);
    }

    #[test]
    fn many_self_sends_on_one_label_cost_sorts_not_a_scan_each() {
        // One block sends its builder 4 096 messages on one label: 2 048
        // values in descending order, then the same again. Each value is
        // delivered once, in the order first sent. Finding the repeats by
        // a scan of what was delivered before would cost 2 048 · 4 096 / 2
        // ≈ 4.2 million comparisons; the round's sorts and the out-buffer's
        // cost O(n log n): 144 635 here, bounded at 200 000.
        const VALUES: u64 = 2_048;
        let requests: Vec<u64> = (0..VALUES).rev().chain((0..VALUES).rev()).collect();
        let (dag, blocks) = dag_of(1, &[(0, 0, &[], &requests)]);
        let mut interpreter: Interpreter<Loopback> = Interpreter::new(ProtocolConfig::for_n(1));
        COMPARISONS.with(|count| count.set(0));
        interpreter
            .interpret_block(&dag, &blocks[0].block_ref())
            .unwrap();
        let comparisons = COMPARISONS.with(|count| count.get());
        let delivered: Vec<u64> = interpreter
            .drain_indications()
            .into_iter()
            .map(|indication| indication.indication)
            .collect();
        assert_eq!(delivered, (0..VALUES).rev().collect::<Vec<_>>());
        assert_eq!(interpreter.stats().messages_delivered, VALUES);
        assert_eq!(interpreter.stats().messages_materialized, 2 * VALUES);
        assert!(comparisons <= 200_000, "{comparisons} comparisons");
    }

    /// Snapshot bytes of `interpreter` as a writer other than
    /// `Interpreter::snapshot` may have left them: per block no segment
    /// flag on a genesis block, and a stale entry for the first delta
    /// label, naming the last version, ahead of the real entries; the
    /// out-buffer entries in descending order, each split into one entry
    /// per receiver; the first entry once more, whole; and a message with
    /// no receiver.
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
        // `Ping` never retires: every slot is live, and its own index.
        let slots = interpreter.arena.slots();
        assert_eq!(interpreter.arena.live(), slots);
        (slots as u32).encode(&mut out);
        for (_, version) in interpreter.arena.iter() {
            version.encode_state(&mut out);
        }
        assert!(interpreter.replays.is_empty());
        for block in &interpreter.order {
            let state = &interpreter.states[block];
            let parent = state.parent.map_or(0, |parent| {
                1 + interpreter.order.iter().position(|r| *r == parent).unwrap()
            });
            (parent as u64).encode(&mut out);
            state.builder.encode(&mut out);
            let opens = state.opens && state.parent.is_some();
            let continued = if state.continued { CONTINUED } else { 0 };
            (if opens { OPENS } else { 0 } | continued).encode(&mut out);
            let last = slots as Slot - 1;
            let stale = state.delta.first().map(|(label, _)| (*label, last));
            let entries: Delta = stale
                .into_iter()
                .chain(state.delta.iter().copied())
                .collect();
            encode_entries(&entries, |key| key as u32, &mut out);
            let mut entries: Vec<(Label, u64, ServerSet)> = Vec::new();
            let stored = || state.outs.iter(state.outs.span(None));
            for (label, message, receivers) in stored().rev() {
                for receiver in receivers.iter() {
                    entries.push((label, *message, ServerSet::from_iter([receiver])));
                }
            }
            if let Some((label, message, receivers)) = stored().next() {
                entries.push((label, *message, receivers));
                entries.push((label, message + 100, ServerSet::new()));
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
        let canonical = straight.snapshot().unwrap();
        let sloppy = sloppy_snapshot(&straight);
        assert!(sloppy.len() > canonical.len());

        let mut restored: Interpreter<Ping> =
            Interpreter::decode_snapshot(config, &sloppy).unwrap();
        assert_eq!(restored.snapshot().unwrap(), canonical);
        assert_eq!(restored.footprint(), straight.footprint());
        assert_eq!(straight.step(&dag), 2);
        assert_eq!(restored.step(&dag), 2);
        assert_eq!(restored.drain_indications(), straight.drain_indications());
        assert_eq!(restored.stats(), straight.stats());
        // Every count the DAG decides. The restored chains rebuilt the
        // views of b3's and b4's parents, so both opened a segment and
        // copied a label whose version the straight run drove in place.
        let of_the_dag = |footprint| InterpreterFootprint {
            live_versions: 0,
            ..footprint
        };
        assert_eq!(
            of_the_dag(restored.footprint()),
            of_the_dag(straight.footprint())
        );
        assert_eq!(
            restored.resident_versions(),
            straight.resident_versions() + 2
        );
        for block in dag.refs() {
            for label in (1..4).map(Label::new) {
                let seen = |interpreter: &Interpreter<Ping>| {
                    interpreter
                        .instance_at(&dag, block, label)
                        .and_then(InstanceAt::live)
                        .map(|ping| ping.seen)
                };
                assert_eq!(seen(&restored), seen(&straight));
            }
        }
    }

    /// On request 0, sends message 1 to servers {0, 1}, broadcasts
    /// message 2, sends message 1 to {2, 3} — the complement — and message
    /// 2 to server 1 once more; on any other request `r`, sends `r` to
    /// server 2 alone. Silent on delivery, and stateless.
    #[derive(Debug, Clone)]
    struct Scatter;

    impl DeterministicProtocol for Scatter {
        type Request = u64;
        type Message = u64;
        type Indication = u64;
        const SNAPSHOTS: bool = true;

        fn new(_config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
            Scatter
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64, u64>) {
            if request != 0 {
                outbox.send(ServerId::new(2), request);
                return;
            }
            outbox.send(ServerId::new(0), 1);
            outbox.send(ServerId::new(1), 1);
            outbox.broadcast(2);
            outbox.send(ServerId::new(2), 1);
            outbox.send(ServerId::new(3), 1);
            outbox.send(ServerId::new(1), 2);
        }

        fn on_message(&mut self, _sender: ServerId, _message: u64, _outbox: &mut Outbox<u64, u64>) {
        }

        fn decode_state(
            _config: &ProtocolConfig,
            _reader: &mut Reader<'_>,
        ) -> Result<Self, DecodeError> {
            Ok(Scatter)
        }
    }

    #[test]
    fn an_out_buffer_is_one_entry_per_message_and_a_column_only_for_point_to_point() {
        // s0's genesis sends message 1 to two complementary halves of the
        // four servers and message 2 by broadcast and by `send`: once
        // merged, both go to everyone, so the block stores one entry per
        // message and no receivers column. Its next block sends 5 to s2
        // alone, and keeps that set in its column. The oracle check
        // compares `out_messages` envelope for envelope.
        let (dag, blocks) = dag_of(4, &[(0, 0, &[], &[0]), (0, 1, &[0], &[5])]);
        let label = Label::new(1);
        let (interpreter, _) = interpret_like_the_oracle::<Scatter>(&dag, 4, &[label]);
        let all: ServerSet = ServerId::all(4).collect();
        let only_s2 = ServerSet::from_iter([ServerId::new(2)]);
        let state = |interpreter: &Interpreter<Scatter>, at: usize| {
            let state = interpreter.state(&blocks[at].block_ref()).unwrap();
            (state.outs.entries.clone(), state.outs.receivers.clone())
        };
        assert_eq!(
            state(&interpreter, 0),
            (vec![(label, 1), (label, 2)], vec![])
        );
        assert_eq!(
            state(&interpreter, 1),
            (vec![(label, 5)], vec![only_s2.clone()])
        );
        let first = interpreter.state(&blocks[0].block_ref()).unwrap();
        assert!(first
            .out_entries()
            .eq([(label, &1, all.clone()), (label, &2, all)]));
        assert!(first.sends_to(ServerId::new(3)) && !first.sends_to(ServerId::new(4)));
        let second = interpreter.state(&blocks[1].block_ref()).unwrap();
        assert!(second.out_entries().eq([(label, &5, only_s2)]));
        assert!(second.sends_to(ServerId::new(2)) && !second.sends_to(ServerId::new(0)));
        let footprint = interpreter.footprint();
        assert_eq!((footprint.out_entries, footprint.out_envelopes), (3, 9));

        // A restore reads the same stored form back and writes the same
        // bytes: the first block's entries without sets, the second's
        // with its column.
        let bytes = interpreter.snapshot().unwrap();
        let restored: Interpreter<Scatter> =
            Interpreter::decode_snapshot(ProtocolConfig::for_n(4), &bytes).unwrap();
        for at in 0..blocks.len() {
            assert_eq!(state(&restored, at), state(&interpreter, at));
        }
        assert_eq!(restored.snapshot().unwrap(), bytes);
        assert_eq!(restored.footprint(), footprint);
    }

    #[test]
    fn a_truncated_or_bit_flipped_snapshot_decodes_or_fails_typed() {
        // s0's genesis stores broadcasts only and its next block a
        // receivers column; an equivocating sibling of that block makes a
        // rebuild replay s0's genesis segment, and s1 then hears both. So
        // the snapshot holds every segment flag, both entry layouts and a
        // replay record. Every cut and every single-bit flip of it decodes
        // or is a `SnapshotError`, never a panic; a cut never decodes, and
        // what a flip decodes to snapshots again.
        let (dag, blocks) = dag_of(
            4,
            &[
                (0, 0, &[], &[0]),
                (1, 0, &[], &[]),
                (0, 1, &[0, 1], &[5]),
                (0, 1, &[0], &[7]),
                (1, 1, &[1, 2, 3], &[]),
            ],
        );
        let config = ProtocolConfig::for_n(4);
        let mut interpreter: Interpreter<Scatter> = Interpreter::new(config);
        assert_eq!(interpreter.step(&dag), blocks.len());
        interpreter.drain_indications();
        let column = |at: usize| {
            let state = interpreter.state(&blocks[at].block_ref()).unwrap();
            !state.outs.receivers.is_empty()
        };
        assert!(!column(0) && column(2) && column(3));
        assert!(interpreter.replays.contains_key(&blocks[0].block_ref()));
        let bytes = interpreter.snapshot().unwrap();
        let decode = |bytes: &[u8]| Interpreter::<Scatter>::decode_snapshot(config, bytes);
        assert_eq!(decode(&bytes).unwrap().snapshot().unwrap(), bytes);

        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut decoded = 0;
        for bit in 0..8 * bytes.len() {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(restored) = decode(&flipped) {
                decoded += 1;
                let again = restored.snapshot().unwrap();
                assert!(decode(&again).is_ok(), "bit {bit}");
            }
        }
        // Flips in labels, messages and counters still decode.
        assert!(decoded > 0);
    }

    #[test]
    fn a_protocol_without_snapshots_has_no_snapshot() {
        // `Journal` keeps the default codec, which writes nothing: the
        // interpreter offers no bytes for it, before and after a block,
        // while `Ping`'s codec gets a snapshot that decodes.
        let (_, signers) = setup(1);
        let request = LabeledRequest::encode(Label::new(1), &7u64);
        let block = Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![request],
            &signers[0],
        );
        let mut dag = BlockDag::new();
        dag.insert(block).unwrap();
        let config = ProtocolConfig::for_n(1);
        let mut journal: Interpreter<Journal> = Interpreter::new(config);
        assert_eq!(journal.snapshot(), None);
        assert_eq!(journal.step(&dag), 1);
        journal.drain_indications();
        assert_eq!(journal.snapshot(), None);
        let mut ping: Interpreter<Ping> = Interpreter::new(config);
        ping.step(&dag);
        ping.drain_indications();
        let bytes = ping.snapshot().expect("`Ping` keeps snapshots");
        let restored = Interpreter::<Ping>::decode_snapshot(config, &bytes).unwrap();
        assert_eq!(restored.interpreted_count(), 1);
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
            .in_messages(&dag, &b0.block_ref(), Label::new(1))
            .map(|e| e.message)
            .collect();
        let in2: Vec<_> = interpreter
            .in_messages(&dag, &b0.block_ref(), Label::new(2))
            .map(|e| e.message)
            .collect();
        assert_eq!(in1, vec![10]);
        assert_eq!(in2, vec![20]);

        let indications = interpreter.drain_indications();
        let labels: BTreeSet<_> = indications.iter().map(|i| i.label).collect();
        assert_eq!(labels.len(), 2);
    }

    /// Broadcasts the value of its first request and indicates the first
    /// message another server sends it; terminal once it has done both.
    #[derive(Debug, Clone, PartialEq)]
    struct Latch {
        me: ServerId,
        sent: bool,
        fired: bool,
    }

    impl DeterministicProtocol for Latch {
        type Request = u64;
        type Message = u64;
        type Indication = u64;
        const SNAPSHOTS: bool = true;

        fn new(_config: &ProtocolConfig, _label: Label, me: ServerId) -> Self {
            Latch {
                me,
                sent: false,
                fired: false,
            }
        }

        fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64, u64>) {
            if !self.sent {
                self.sent = true;
                outbox.broadcast(request);
            }
        }

        fn on_message(&mut self, sender: ServerId, message: u64, outbox: &mut Outbox<u64, u64>) {
            if sender != self.me && !self.fired {
                self.fired = true;
                outbox.indicate(message);
            }
        }

        fn is_terminal(&self) -> bool {
            self.sent && self.fired
        }

        fn encode_state(&self, out: &mut Vec<u8>) {
            self.me.encode(out);
            out.extend([u8::from(self.sent), u8::from(self.fired)]);
        }

        fn decode_state(
            _config: &ProtocolConfig,
            reader: &mut Reader<'_>,
        ) -> Result<Self, DecodeError> {
            Ok(Latch {
                me: ServerId::decode(reader)?,
                sent: reader.read_u8()? != 0,
                fired: reader.read_u8()? != 0,
            })
        }
    }

    #[test]
    fn a_retired_slot_is_reused_and_the_keys_to_it_read_as_retired() {
        // s0 sends on label 1 at b1 and retires it at b2, where s1's
        // message arrives; b1 is continued, so its delta still holds the
        // key to the version b2 retired. b3 starts label 2, whose version
        // takes the freed slot under its next generation.
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
        let b0 = build(1, 0, &[], vec![request(1, 10)]);
        let b1 = build(0, 0, &[], vec![request(1, 11)]);
        let b2 = build(0, 1, &[&b1, &b0], vec![]);
        let b3 = build(0, 2, &[&b2], vec![request(2, 20)]);
        let blocks = [&b0, &b1, &b2, &b3];
        let mut dag = BlockDag::new();
        for block in blocks {
            dag.insert(block.clone()).unwrap();
        }
        let labels = [Label::new(1), Label::new(2)];
        let (interpreter, indications) = interpret_like_the_oracle::<Latch>(&dag, 2, &labels);
        assert_eq!(indications.len(), 1, "s0 hears s1 at b2");
        assert_eq!(interpreter.footprint().retired_instances, 1);
        // Label 2 at b3 took the slot label 1 gave back at b2.
        let key = |block: &Block, label: u64| {
            let delta = &interpreter.states[&block.block_ref()].delta;
            label_range(delta, Label::new(label))[0].1
        };
        let (stale, fresh) = (key(&b1, 1), key(&b3, 2));
        assert_eq!(key(&b2, 1), RETIRED);
        assert_eq!(slot_of(stale), slot_of(fresh));
        assert_ne!(stale, fresh, "a reused slot is under its next generation");
        assert_eq!(interpreter.arena.current(stale), RETIRED);
        assert_eq!(interpreter.arena.current(fresh), fresh);
        assert_eq!(
            interpreter.resident_versions(),
            2,
            "s1's label 1, s0's label 2"
        );

        // Each block's state is the oracle's, or retired exactly when the
        // oracle's is terminal: b1's by a replay, past the stale key.
        let mut oracle: crate::ReferenceInterpreter<Latch> =
            crate::ReferenceInterpreter::new(ProtocolConfig::for_n(2));
        oracle.step(&dag);
        let states = |interpreter: &Interpreter<Latch>| {
            let mut states = Vec::new();
            for block in blocks {
                for label in labels {
                    let held = oracle.state(&block.block_ref()).unwrap().instance(label);
                    let read = interpreter.instance_at(&dag, &block.block_ref(), label);
                    match (held, &read) {
                        (Some(held), Some(InstanceAt::Retired)) => assert!(held.is_terminal()),
                        (held, read) => {
                            assert_eq!(held, read.clone().and_then(InstanceAt::live).as_ref())
                        }
                    }
                    states.push(read);
                }
            }
            states
        };
        let before = states(&interpreter);
        assert_eq!(
            before[2],
            Some(InstanceAt::Live(Latch {
                me: ServerId::new(0),
                sent: true,
                fired: false
            }))
        );
        assert_eq!(before[4], Some(InstanceAt::Retired));

        // A snapshot writes the stale key as the tombstone, and only the
        // two live versions.
        let bytes = interpreter.snapshot().unwrap();
        let restored: Interpreter<Latch> =
            Interpreter::decode_snapshot(ProtocolConfig::for_n(2), &bytes).unwrap();
        assert_eq!(restored.resident_versions(), 2);
        let delta = &restored.states[&b1.block_ref()].delta;
        assert_eq!(label_range(delta, Label::new(1))[0].1, RETIRED);
        assert_eq!(states(&restored), before);
        assert_eq!(restored.snapshot().unwrap(), bytes);
    }
}
