//! Counted floors of the interpreter on one BRB payments DAG (400
//! transfers, n = 4): heap allocations per touch (one label driven at one
//! block) and per restored instance, out-buffer entries per envelope, and
//! snapshot bytes.
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

/// Heap allocations per touch the interpreter may make on this DAG
/// (measured: 2 380 over 5 343 touches, 0.45; with a B-tree per tip view
/// it was 2 612, 0.49; with one reference-counted heap block per instance
/// version, 7 947, 1.49).
const ALLOCATIONS_PER_TOUCH: f64 = 0.50;

/// Heap allocations per stored instance a snapshot restore of this DAG's
/// interpretation may make: per block and per arena chunk, not per
/// instance (measured: 81 over 5 343 instances and 32 blocks, 0.015; with
/// one heap block per instance it was 5 416).
const ALLOCATIONS_PER_RESTORED_INSTANCE: f64 = 0.05;

/// Bytes a snapshot of this DAG's interpretation may take: exactly what
/// format 3 writes (format 2, one envelope per receiver and `(n, f)` in
/// every instance, wrote 897 978 B).
const SNAPSHOT_BYTES: usize = 562_674;

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
fn a_touch_costs_about_half_an_allocation() {
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
        per_touch <= ALLOCATIONS_PER_TOUCH,
        "{allocations} allocations over {touches} touches ({delivered} deliveries, \
         {interpreted} blocks) = {per_touch:.2} per touch, budget {ALLOCATIONS_PER_TOUCH}"
    );
    println!("{allocations} allocations / {touches} touches = {per_touch:.2} ({delivered} deliveries, {interpreted} blocks)");
}

#[test]
fn a_restore_allocates_per_block_not_per_instance() {
    let dag = payments_dag();
    let bytes = interpreted(dag).encode_snapshot();
    let config = ProtocolConfig::for_n(4);
    let before = allocations();
    let restored = Interpreter::<Brb<Transfer>>::decode_snapshot(config, &bytes).unwrap();
    let allocations = allocations() - before;

    let instances = restored.footprint().unique_instances;
    assert!(instances >= 4 * TRANSFERS as usize);
    let per_instance = allocations as f64 / instances as f64;
    assert!(
        per_instance <= ALLOCATIONS_PER_RESTORED_INSTANCE,
        "{allocations} allocations restoring {instances} instances ({} blocks) = \
         {per_instance:.3} per instance, budget {ALLOCATIONS_PER_RESTORED_INSTANCE}",
        dag.len()
    );
    println!(
        "{allocations} allocations / {instances} restored instances = {per_instance:.3} ({} blocks)",
        dag.len()
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
    let bytes = interpreter.encode_snapshot();
    assert!(
        bytes.len() <= SNAPSHOT_BYTES,
        "{} snapshot bytes, budget {SNAPSHOT_BYTES}",
        bytes.len()
    );
    println!("{} snapshot bytes", bytes.len());
}
