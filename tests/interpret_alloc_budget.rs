//! Allocation budget of the interpreter: at most two heap allocations per
//! touch (one label driven at one block) on a BRB payments DAG.
//!
//! A count, not a timing: the same on every machine, and the gate that
//! keeps per-message tree nodes, per-label inboxes and per-message
//! outboxes from coming back (`docs/ARCHITECTURE.md`, "Interpreter
//! state"). This file is its own test binary because the counting
//! allocator below replaces the global one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dagbft::prelude::*;

/// `alloc` + `realloc` calls since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is passed to `System` with its arguments unchanged, so
// `System`'s guarantees are this allocator's; the counter touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_touch_costs_at_most_two_allocations() {
    const TRANSFERS: u32 = 400;
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
    let dag = outcome.shim(0).dag();

    let mut interpreter: Interpreter<Brb<Transfer>> = Interpreter::new(ProtocolConfig::for_n(4));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let interpreted = interpreter.step(dag);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(interpreted, dag.len());
    let touches = interpreter.footprint().unique_instances;
    let delivered = interpreter.stats().messages_delivered;
    assert!(
        touches >= 4 * TRANSFERS as usize && delivered > touches as u64,
        "every server's instance of every transfer is driven: {touches} touches, {delivered} deliveries"
    );
    let per_touch = allocations as f64 / touches as f64;
    assert!(
        per_touch <= 2.0,
        "{allocations} allocations over {touches} touches ({delivered} deliveries, \
         {interpreted} blocks) = {per_touch:.2} per touch, budget 2.0"
    );
    println!("{allocations} allocations / {touches} touches = {per_touch:.2} ({delivered} deliveries, {interpreted} blocks)");
}
