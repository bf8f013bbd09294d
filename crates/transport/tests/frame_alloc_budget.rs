//! Counted floor of the receive path: heap allocations per frame that
//! `frame::read_net_message` makes, for a `FWD` request, an empty block
//! and a block of eight requests, whether the decoded message is dropped
//! at once (a duplicate flood) or kept (an admitted block).
//!
//! Each frame is read into a buffer of exactly its length, which moves
//! into shared `Bytes`; a block's wire image is a slice of it, and its
//! requests are read from that slice in place: 2 / 3 / 3 allocations per
//! frame, dropped or kept — the frame's buffer, its shared handle and
//! the block's header, however many requests the block carries. While a
//! decoded block kept its requests in a vector of their own, the
//! eight-request block cost 4. The pooled reader this replaced, a
//! per-connection arena of 64 buffers that recycled a frame's buffer
//! once every other handle to it dropped,
//! measured 2 / 3 / 4 on these frames when the message was dropped and
//! 2 / 4.06 / 5.06 when it was kept: each read swept the arena into a
//! fresh list of lent handles, which spent again the buffer a recycled
//! frame saved, and a kept block saved none. Counts, not timings: the
//! same on every machine. This file is its own test binary because the
//! counting allocator below replaces the global one; it counts per
//! thread, so the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use bytes::Bytes;
use dagbft_core::{Block, Label, LabeledRequest, NetMessage, SeqNum};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_transport::frame::{read_net_message, write_net_message};

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

/// Frames read before counting starts.
const WARM_UP: usize = 100;
/// Frames counted.
const FRAMES: usize = 1_000;

/// A block of server 0 at sequence number 0 carrying `requests`
/// requests of 16 payload bytes each.
fn block(requests: u8) -> Block {
    let registry = KeyRegistry::generate(1, 5);
    let signer = registry.signer(ServerId::new(0)).unwrap();
    let requests = (0..requests)
        .map(|i| LabeledRequest {
            label: Label::new(u64::from(i)),
            payload: Bytes::from(vec![i; 16]),
        })
        .collect();
    Block::build(ServerId::new(0), SeqNum::ZERO, vec![], requests, &signer)
}

/// Reads `WARM_UP + FRAMES` copies of `message` off one stream and returns
/// the allocations per counted frame; with `keep`, every decoded message
/// stays alive until the count is taken.
fn allocations_per_frame(message: &NetMessage, keep: bool) -> f64 {
    let mut wire = Vec::new();
    for _ in 0..WARM_UP + FRAMES {
        write_net_message(&mut wire, message).unwrap();
    }
    let mut stream = Cursor::new(wire);
    for _ in 0..WARM_UP {
        assert_eq!(&read_net_message(&mut stream).unwrap(), message);
    }
    let mut kept = Vec::with_capacity(if keep { FRAMES } else { 0 });
    let before = allocations();
    for _ in 0..FRAMES {
        let received = read_net_message(&mut stream).unwrap();
        if keep {
            kept.push(received);
        }
    }
    let allocations = allocations() - before;
    assert_eq!(kept.len(), if keep { FRAMES } else { 0 });
    assert!(kept.iter().all(|received| received == message));
    allocations as f64 / FRAMES as f64
}

/// Pins `message`'s frame size and its allocations per frame, dropped
/// and kept.
fn assert_budget(message: &NetMessage, frame_bytes: usize, budget: f64) {
    assert_eq!(message.wire_len(), frame_bytes);
    for keep in [false, true] {
        let per_frame = allocations_per_frame(message, keep);
        assert!(
            per_frame <= budget,
            "a {frame_bytes}-byte frame, kept: {keep}, costs {per_frame} allocations, \
             budget {budget}"
        );
        println!("{frame_bytes}-byte frame, kept: {keep}: {per_frame:.2} allocations per frame");
    }
}

#[test]
fn a_fwd_request_costs_two_allocations() {
    assert_budget(&NetMessage::FwdRequest(block(0).block_ref()), 33, 2.0);
}

#[test]
fn an_empty_block_costs_three_allocations() {
    assert_budget(&NetMessage::Block(block(0)), 85, 3.0);
}

#[test]
fn an_eight_request_block_costs_three_allocations() {
    assert_budget(&NetMessage::Block(block(8)), 309, 3.0);
}
