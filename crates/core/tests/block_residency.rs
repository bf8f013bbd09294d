//! A block round-trips through both decoders, and a resident block costs
//! its wire bytes.
//!
//! A block is built, decoded from shared `Bytes` (the socket path: the
//! wire image is a slice of the frame), and decoded from a borrowed slice
//! (the journal path: one copy of the wire). All three must agree on the
//! wire bytes, `ref(B)`, the signature, `preds` and every request, for
//! no requests, empty payloads and `MAX_REQUESTS_PER_BLOCK` requests.
//!
//! A counting allocator then weighs each block: the heap bytes it keeps
//! are its wire bytes, its boxed `preds` and a constant, whatever its
//! request count. Requests are read from the wire in place, so none of
//! them owns a vector, a payload buffer or a reference count of its own.
//! This file is its own test binary because the counting allocator below
//! replaces the global one; it counts per thread, so the tests may run
//! side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use dagbft_codec::{decode_from_bytes, decode_from_slice};
use dagbft_core::{Block, BlockRef, Label, LabeledRequest, SeqNum, MAX_REQUESTS_PER_BLOCK};
use dagbft_crypto::{sha256, KeyRegistry, ServerId, Signer};

thread_local! {
    /// Bytes this thread allocated minus the bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

struct Counting;

// SAFETY: every call is passed to `System` with its arguments unchanged, so
// `System`'s guarantees are this allocator's; the counter touches no memory
// the allocator hands out, and a const-initialized `Cell` needs neither an
// allocation nor a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes a block keeps besides its wire bytes and its `preds`, on
/// 64-bit targets: the `Arc`'d header (`n`, `k`, the boxed `preds`, the
/// cached `ref(B)` and the wire handle, 104 B with the counts) and the
/// shared buffer's `Arc` (40 B). Measured: exactly this on every block
/// below. Before requests were read in place, the eight-request block
/// (404 wire bytes) kept 1 360 B built and 1 444 B decoded from a slice,
/// against 644 B now, and the `MAX_REQUESTS_PER_BLOCK` one (24 756 wire
/// bytes) 82 256 B and 111 108 B, against 24 996 B: a 40 B entry per
/// request in a vector of its own, a buffer and a 40 B `Arc` per payload,
/// the signature a second time, and the slack of the wire vector's
/// doubling growth.
const HEADER_BYTES: usize = 144;

/// Wire bytes of one predecessor reference.
const REF_BYTES: usize = 32;

/// Request lists to build blocks from: none, one empty payload, payloads
/// of 0, 1 and 100 bytes, eight of 16 bytes, and `MAX_REQUESTS_PER_BLOCK`
/// requests on several labels, every fourth payload empty.
fn request_lists() -> Vec<Vec<LabeledRequest>> {
    let request = |label: u64, len: usize| LabeledRequest {
        label: Label::new(label),
        payload: Bytes::from(vec![label as u8; len]),
    };
    vec![
        vec![],
        vec![request(0, 0)],
        vec![request(7, 0), request(3, 1), request(u64::MAX, 100)],
        (0..8).map(|i| request(i, 16)).collect(),
        (0..MAX_REQUESTS_PER_BLOCK as u64)
            .map(|i| request(i % 5, if i % 4 == 0 { 0 } else { 16 }))
            .collect(),
    ]
}

/// Three predecessor references, one repeated.
fn preds() -> Vec<BlockRef> {
    let a = BlockRef::from_digest(sha256(b"a"));
    let b = BlockRef::from_digest(sha256(b"b"));
    vec![a, b, a]
}

fn signer() -> Signer {
    let registry = KeyRegistry::generate(2, 49);
    let signer = registry.signer(ServerId::new(1)).unwrap();
    // The first signature builds this thread's fixed-base table: warm it
    // before anything is weighed.
    let _ = Block::build(signer.id(), SeqNum::ZERO, vec![], vec![], &signer);
    signer
}

fn build(signer: &Signer, requests: Vec<LabeledRequest>) -> Block {
    Block::build(signer.id(), SeqNum::new(3), preds(), requests, signer)
}

/// `block` is `built` field by field, and carries `requests`.
fn assert_same(block: &Block, built: &Block, requests: &[LabeledRequest]) {
    assert_eq!(block.wire_bytes(), built.wire_bytes());
    assert_eq!(block.wire_len(), built.wire_len());
    assert_eq!(block.block_ref(), built.block_ref());
    assert_eq!(block.signature(), built.signature());
    assert_eq!(block.signed_digest(), built.signed_digest());
    assert_eq!(block.builder(), built.builder());
    assert_eq!(block.seq(), built.seq());
    assert_eq!(block.preds(), built.preds());
    assert_eq!(block.requests().len(), requests.len());
    assert!(block.requests().eq(requests.iter().cloned()));
    assert_eq!(block, built);
}

#[test]
fn a_block_decodes_to_itself_from_shared_bytes_and_from_a_slice() {
    let signer = signer();
    let verifier = KeyRegistry::generate(2, 49).verifier();
    for requests in request_lists() {
        let built = build(&signer, requests.clone());
        assert_same(&built, &built, &requests);
        assert_eq!(built.preds(), preds().as_slice());
        assert!(built.verify_signature(&verifier));

        let buffer = Bytes::from(built.wire_bytes().to_vec());
        let shared: Block = decode_from_bytes(&buffer).unwrap();
        assert_same(&shared, &built, &requests);
        assert!(shared.verify_signature(&verifier));
        // The wire image and every payload are slices of the receive
        // buffer.
        assert!(shared.wire_bytes().shares_allocation_with(&buffer));
        assert!(shared
            .requests()
            .all(|labeled| labeled.payload.shares_allocation_with(&buffer)));

        let sliced: Block = decode_from_slice(built.wire_bytes()).unwrap();
        assert_same(&sliced, &built, &requests);
        assert!(sliced.verify_signature(&verifier));
        // One copy of the wire, and every payload a slice of it.
        assert!(!sliced
            .wire_bytes()
            .shares_allocation_with(built.wire_bytes()));
        assert!(sliced
            .requests()
            .all(|labeled| labeled.payload.shares_allocation_with(sliced.wire_bytes())));
    }
}

#[test]
fn a_resident_block_owns_its_wire_bytes_and_a_constant() {
    let signer = signer();
    for requests in request_lists() {
        let wire = build(&signer, requests.clone()).wire_bytes().to_vec();
        let budget = wire.len() + REF_BYTES * preds().len() + HEADER_BYTES;

        // Built: the requests and `preds` it was handed are made inside
        // the window, so what the window keeps is what the block keeps.
        let before = live();
        let built = build(&signer, requests.clone());
        let built_owns = live() - before;

        // Decoded from shared bytes that only the block keeps.
        let before = live();
        let shared: Block = decode_from_bytes(&Bytes::from(wire.clone())).unwrap();
        shared.block_ref();
        let shared_owns = live() - before;

        // Decoded from a slice, as the journal reads a record.
        let before = live();
        let sliced: Block = decode_from_slice(&wire).unwrap();
        sliced.block_ref();
        let sliced_owns = live() - before;

        for (path, owns) in [
            ("built", built_owns),
            ("decoded from shared bytes", shared_owns),
            ("decoded from a slice", sliced_owns),
        ] {
            println!(
                "{} requests, {} wire bytes, {path}: owns {owns} B, budget {budget} B",
                requests.len(),
                wire.len()
            );
            assert!(
                owns as usize <= budget,
                "a block of {} requests and {} wire bytes, {path}, owns {owns} B, \
                 budget {budget} B",
                requests.len(),
                wire.len()
            );
        }
        assert_eq!(built, shared);
        assert_eq!(built, sliced);
    }
}
