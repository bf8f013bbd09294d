//! Counted floors of the interpreter on one BRB payments DAG (400
//! transfers, n = 4): heap allocations to interpret it and to restore its
//! snapshot, resident instance versions, the bytes they and the
//! out-buffer entries take in place, out-buffer entries per envelope,
//! snapshot bytes, and the versions retired. Each prints its count per
//! touch (one label driven at one block) or per restored instance beside
//! the total. On the same DAG, the interpreter that retires terminal
//! instances is held block by block to the clone-per-block oracle that
//! keeps them.
//!
//! The floors are absolute counts on this one DAG, not shares of its
//! touches: a change that drives fewer labels at fewer blocks — as the
//! in-block self-link did, 5 343 → 4 780 touches, because a block no
//! longer touches a label only to deliver its builder's own message — must
//! not be able to spend what it saved.
//!
//! Counts, not timings: the same on every machine, and the gate that
//! keeps per-touch heap blocks, per-message tree nodes, per-label inboxes,
//! per-message outboxes and per-receiver message copies from coming back
//! (`docs/ARCHITECTURE.md`, "Interpreter state"). This file is its own
//! test binary because the counting allocator below replaces the global
//! one; it counts per thread, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use dagbft::prelude::*;

/// Heap allocations the interpreter may make on this DAG (measured: 633
/// over 4 780 touches, 0.13 per touch, since a terminal instance retires
/// and a touch on its label clones and allocates nothing; 634 since
/// `BlockDag::preds_of`
/// deduplicates a block's `preds` by sorting one vector instead of
/// building a `BTreeSet` and collecting it; 690, 0.14 per touch, since a
/// block's working out-buffer starts with room for one message per input;
/// 817, 0.17 per touch, while it grew from empty; 2 353, 0.49 per touch, while
/// each delivering instance pushed its indication into a buffer of its own;
/// with self-addressed messages delivered one block later it was 2 375
/// over 5 343 touches; with one arena version per touch, 2 380; with a
/// B-tree per tip view, 2 612; with one reference-counted heap block per
/// instance version, 7 947).
const INTERPRET_ALLOCATIONS: u64 = 633;

/// Heap allocations a snapshot restore of this DAG's interpretation may
/// make: per block and per arena chunk, not per instance (measured: 67
/// over 4 780 instances and 29 blocks, 0.014 per instance, since a
/// snapshot holds the live versions only; 68 before, and the floor
/// was 76 until it was brought down to that; with self-addressed messages
/// delivered one block later it was 76 over 5 343 instances and 32
/// blocks; with one arena version per touch, 81; with one heap block per
/// instance, 5 416).
const RESTORE_ALLOCATIONS: u64 = 67;

/// Instance versions resident on this DAG: the touches of one label in
/// one segment of a chain share a version, and a terminal one retires
/// (measured: 42 over 4 780 touches, the instances that had not delivered
/// when the DAG ends; 1 600 before retirement; 1 600 over 5 343 with
/// self-addressed messages delivered one block later; one version per
/// touch before segments).
const RESIDENT_VERSIONS: usize = 42;

/// Bytes the resident instance versions and out-buffer entries of this
/// DAG take in place, `size_of` each, heap spills aside (measured: 132 032,
/// 42 versions of 96 B — one two-column vote table — and 3 200 entries of
/// 40 B, every one a broadcast, so no block stores a receivers column; an
/// arena slot also holds its birth and generation beside the version;
/// 281 600 before retirement, with 1 600 versions; 422 400 with two
/// one-column tallies per version, 136 B, and a receiver set in every
/// entry, 64 B; 486 400 with 176 B per version while
/// each held the configuration and an indication buffer; with a
/// `ServerSet` of a `u128` and a `Vec`, 48 B, and a `Tally` whose spill
/// was an inline `Vec`, 742 400: 272 B per version and 96 B per entry). On
/// 64-bit targets, where those sizes hold.
#[cfg(target_pointer_width = "64")]
const RESIDENT_BYTES: usize = 132_032;

/// Bytes a snapshot of this DAG's interpretation may take: exactly what
/// format 6 writes, every live version once and a tombstone index for a
/// retired one (format 5 wrote every version ever made, 366 938 B; format
/// 4, that layout with self-addressed messages delivered one block later,
/// 374 213 B; format 3, one version per touch, 562 674 B; format 2, also
/// one envelope per receiver and `(n, f)` in every instance, 897 978 B).
const SNAPSHOT_BYTES: usize = 219_336;

thread_local! {
    /// `alloc` + `realloc` calls this thread made since it started.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every call is passed to `System` with its arguments unchanged, so
// `System`'s guarantees are this allocator's; the counter touches no memory
// the allocator hands out, and a const-initialized `Cell` needs neither an
// allocation nor a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TRANSFERS: u32 = 400;

/// Server 0's DAG of a seeded run in which four servers broadcast 400
/// transfers and all of them deliver every one.
fn payments_dag() -> &'static BlockDag {
    static DAG: OnceLock<BlockDag> = OnceLock::new();
    DAG.get_or_init(|| {
        let config = SimConfig::new(4).with_stop_after_deliveries(4 * TRANSFERS as usize);
        let mut sim: Simulation<Brb<Transfer>> = Simulation::new(config);
        for i in 0..TRANSFERS {
            let transfer = Transfer {
                from: AccountId(i),
                to: AccountId(i + 1),
                amount: 1,
                seq: 0,
            };
            sim.inject(Injection {
                at: u64::from(i / 2),
                server: i as usize % 4,
                label: transfer.label(),
                request: BrbRequest::Broadcast(transfer),
            });
        }
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4 * TRANSFERS as usize);
        outcome.shim(0).dag().clone()
    })
}

fn interpreted(dag: &BlockDag) -> Interpreter<Brb<Transfer>> {
    let mut interpreter = Interpreter::new(ProtocolConfig::for_n(4));
    assert_eq!(interpreter.step(dag), dag.len());
    interpreter.drain_indications();
    interpreter
}

#[test]
fn a_touch_costs_under_a_seventh_of_an_allocation() {
    let dag = payments_dag();
    let mut interpreter: Interpreter<Brb<Transfer>> = Interpreter::new(ProtocolConfig::for_n(4));
    let before = allocations();
    let interpreted = interpreter.step(dag);
    let allocations = allocations() - before;

    assert_eq!(interpreted, dag.len());
    let touches = interpreter.footprint().unique_instances;
    let delivered = interpreter.stats().messages_delivered;
    assert!(
        touches >= 4 * TRANSFERS as usize && delivered > touches as u64,
        "every server's instance of every transfer is driven: {touches} touches, {delivered} deliveries"
    );
    let per_touch = allocations as f64 / touches as f64;
    assert!(
        allocations <= INTERPRET_ALLOCATIONS,
        "{allocations} allocations over {touches} touches ({delivered} deliveries, \
         {interpreted} blocks) = {per_touch:.2} per touch, budget {INTERPRET_ALLOCATIONS}"
    );
    println!("{allocations} allocations / {touches} touches = {per_touch:.2} ({delivered} deliveries, {interpreted} blocks)");
}

#[test]
fn a_restore_allocates_per_block_not_per_instance() {
    let dag = payments_dag();
    let bytes = interpreted(dag).snapshot().unwrap();
    let config = ProtocolConfig::for_n(4);
    let before = allocations();
    let restored = Interpreter::<Brb<Transfer>>::decode_snapshot(config, &bytes).unwrap();
    let allocations = allocations() - before;

    let instances = restored.footprint().unique_instances;
    assert!(instances >= 4 * TRANSFERS as usize);
    let per_instance = allocations as f64 / instances as f64;
    assert!(
        allocations <= RESTORE_ALLOCATIONS,
        "{allocations} allocations restoring {instances} instances ({} blocks) = \
         {per_instance:.3} per instance, budget {RESTORE_ALLOCATIONS}",
        dag.len()
    );
    println!(
        "{allocations} allocations / {instances} restored instances = {per_instance:.3} ({} blocks)",
        dag.len()
    );
}

#[test]
fn a_segment_keeps_one_version_per_label() {
    let interpreter = interpreted(payments_dag());
    let touches = interpreter.footprint().unique_instances;
    let resident = interpreter.resident_versions();
    let per_touch = resident as f64 / touches as f64;
    assert!(
        resident <= RESIDENT_VERSIONS,
        "{resident} resident versions over {touches} touches = {per_touch:.3} per touch, \
         budget {RESIDENT_VERSIONS}"
    );
    println!("{resident} resident versions / {touches} touches = {per_touch:.3}");
}

#[test]
#[cfg(target_pointer_width = "64")]
fn a_resident_version_costs_what_it_holds() {
    use std::mem::size_of;
    // A stored out-buffer entry: the label and the message. A block of
    // broadcasts stores no receiver set beside it.
    type Entry = (Label, BrbMessage<Transfer>);
    let interpreter = interpreted(payments_dag());
    let versions = interpreter.resident_versions();
    let entries = interpreter.footprint().out_entries;
    let (version_size, entry_size) = (size_of::<Brb<Transfer>>(), size_of::<Entry>());
    let bytes = versions * version_size + entries * entry_size;
    assert!(
        version_size <= 96 && entry_size <= 40,
        "{version_size} B per version, {entry_size} B per out-buffer entry"
    );
    assert!(
        bytes <= RESIDENT_BYTES,
        "{versions} versions × {version_size} B + {entries} entries × {entry_size} B = \
         {bytes} B, budget {RESIDENT_BYTES}"
    );
    println!(
        "{bytes} resident bytes: {versions} versions × {version_size} B + \
         {entries} out-buffer entries × {entry_size} B"
    );
}

#[test]
fn a_broadcast_is_one_out_buffer_entry() {
    // Every BRB message is an ECHO or READY to all four servers: one entry
    // each, counted as four envelopes.
    let footprint = interpreted(payments_dag()).footprint();
    assert!(footprint.out_entries >= 2 * 4 * TRANSFERS as usize);
    assert_eq!(footprint.out_entries * 4, footprint.out_envelopes);
    println!(
        "{} out-buffer entries, {} envelopes",
        footprint.out_entries, footprint.out_envelopes
    );
}

#[test]
fn a_snapshot_stays_inside_its_byte_budget() {
    let interpreter = interpreted(payments_dag());
    let bytes = interpreter.snapshot().unwrap();
    assert!(
        bytes.len() <= SNAPSHOT_BYTES,
        "{} snapshot bytes, budget {SNAPSHOT_BYTES}",
        bytes.len()
    );
    println!("{} snapshot bytes", bytes.len());
}

/// Versions retired on this DAG: one per label per chain whose instance
/// echoed, readied and delivered inside it (measured: 1 558 of the 1 600
/// instances, 400 labels on four chains; the other 42 are the resident
/// versions).
const RETIRED_INSTANCES: usize = 1_558;

#[test]
fn every_delivered_instance_gives_its_version_back() {
    let interpreter = interpreted(payments_dag());
    let footprint = interpreter.footprint();
    assert_eq!(footprint.retired_instances, RETIRED_INSTANCES);
    assert_eq!(footprint.live_versions, interpreter.resident_versions());
    println!(
        "{} versions retired, {} live",
        footprint.retired_instances, footprint.live_versions
    );
}

#[test]
fn retirement_changes_no_output_and_no_live_state() {
    // The clone-per-block oracle keeps every state, terminal ones too.
    // Block by block, the out-buffers and the indications are its own;
    // every state it holds as not terminal is the one `instance_at`
    // reads, and every terminal one reads as retired.
    let dag = payments_dag();
    let mut interpreter: Interpreter<Brb<Transfer>> = Interpreter::new(ProtocolConfig::for_n(4));
    let mut oracle: ReferenceInterpreter<Brb<Transfer>> =
        ReferenceInterpreter::new(ProtocolConfig::for_n(4));
    let bytes = |instance: &Brb<Transfer>| {
        let mut out = Vec::new();
        instance.encode_state(&mut out);
        out
    };
    let (mut live, mut retired) = (0, 0);
    for block in dag.refs() {
        interpreter.interpret_block(dag, block).unwrap();
        oracle.interpret_block(dag, block).unwrap();
        assert_eq!(interpreter.drain_indications(), oracle.drain_indications());
        let (state, stored) = (
            interpreter.state(block).unwrap(),
            oracle.state(block).unwrap(),
        );
        let labels: Vec<Label> = stored.instance_labels().copied().collect();
        assert_eq!(labels, interpreter.instance_labels_at(block));
        for label in labels {
            assert!(state
                .out_messages(label)
                .eq(stored.out_messages(label).cloned()));
            let held = stored.instance(label).unwrap();
            match interpreter.instance_at(dag, block, label).unwrap() {
                InstanceAt::Live(instance) => {
                    assert!(!held.is_terminal(), "{label} at {block} is retired");
                    assert_eq!(bytes(&instance), bytes(held), "{label} at {block}");
                    live += 1;
                }
                InstanceAt::Retired => {
                    assert!(held.is_terminal(), "{label} at {block} is live");
                    retired += 1;
                }
            }
        }
    }
    assert_eq!(interpreter.stats(), oracle.stats());
    assert!(live > 0 && retired > 0);
    println!("{live} live and {retired} retired states, each as the oracle's");
}
