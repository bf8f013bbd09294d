//! Recovery reads its journal once: `open` verifies the whole image, and
//! the first `contents()` after it returns that verified parse instead of
//! reading and parsing the medium a second time.
//!
//! Two witnesses, both counts rather than timings:
//!
//! * a [`Media`] wrapper counts `journal_bytes` calls — `open` plus the
//!   first `contents()` is one read, and any later `contents()` (after an
//!   append, or a second one with nothing appended) reads again;
//! * a counting global allocator bounds the bytes `open` + `contents()`
//!   allocate by one image, one copy of the latest snapshot, and a small
//!   allowance per record. A second pass, a copied checksum preimage, or
//!   a copy of every superseded snapshot each exceeds it.
//!
//! This file is its own test binary because the counting allocator below
//! replaces the global one. It counts per thread, so tests running in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use dagbft_core::{Block, BlockStore, Label, LabeledRequest, SeqNum, StoreContents, StoreError};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_store::{JournalStore, Media, MemMedia, MemStore};

thread_local! {
    /// Bytes this thread asked the allocator for: every `alloc` size plus
    /// every `realloc`'s new size.
    static ALLOCATED: AtomicU64 = const { AtomicU64::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: never panic inside the allocator, even at thread exit.
    let _ = ALLOCATED.try_with(|allocated| allocated.fetch_add(bytes as u64, Ordering::Relaxed));
}

fn allocated() -> u64 {
    ALLOCATED.with(|allocated| allocated.load(Ordering::Relaxed))
}

struct Counting;

// SAFETY: every call is passed to `System` with its arguments unchanged, so
// `System`'s guarantees are this allocator's; the counter is a
// const-initialised thread-local without a destructor, so touching it
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// In-memory media that counts how often the journal is read back.
#[derive(Debug)]
struct CountingMedia {
    inner: MemMedia,
    reads: AtomicUsize,
}

impl CountingMedia {
    fn new(journal: Vec<u8>) -> Self {
        CountingMedia {
            inner: MemMedia::from_journal(journal),
            reads: AtomicUsize::new(0),
        }
    }

    fn reads(&self) -> usize {
        self.reads.load(Ordering::Relaxed)
    }
}

impl Media for CountingMedia {
    fn journal_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.journal_bytes()
    }

    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.append_journal(bytes)
    }

    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError> {
        self.inner.truncate_journal(len)
    }

    fn sync_journal(&mut self) -> Result<(), StoreError> {
        self.inner.sync_journal()
    }

    fn tip_bytes(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.tip_bytes()
    }

    fn write_tip(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.write_tip(offset, bytes)
    }
}

/// Blocks in the reference image.
const BLOCKS: u64 = 16;
/// The superseded snapshot's payload, written after half the blocks.
const SUPERSEDED: usize = 300 * 1024;
/// The latest snapshot's payload, written after every block.
const LATEST: usize = 600 * 1024;

/// A chain of `len` blocks from one builder, each referencing its
/// predecessor and carrying one request.
fn chain(len: u64) -> Vec<Block> {
    let registry = KeyRegistry::generate(1, 77);
    let signer = registry.signer(ServerId::new(0)).unwrap();
    let mut blocks: Vec<Block> = Vec::new();
    for seq in 0..len {
        let preds = blocks.last().map(Block::block_ref).into_iter().collect();
        let requests = vec![LabeledRequest::encode(Label::new(seq), &seq)];
        blocks.push(Block::build(
            ServerId::new(0),
            SeqNum::new(seq),
            preds,
            requests,
            &signer,
        ));
    }
    blocks
}

/// A journal image shaped like a snapshotting server's: the chain's
/// blocks, each preceded by its request's WAL record, a superseded
/// snapshot half way, and the latest snapshot at the end.
fn reference_image(blocks: &[Block]) -> Vec<u8> {
    let mut store = MemStore::in_memory();
    for (index, block) in blocks.iter().enumerate() {
        let request = block.requests().next().expect("one request per block");
        store.append_request(&request).unwrap();
        store.append_block(block).unwrap();
        if index + 1 == blocks.len() / 2 {
            store
                .append_snapshot(index as u64 + 1, &[0x5A; SUPERSEDED])
                .unwrap();
        }
    }
    store
        .append_snapshot(blocks.len() as u64, &[0xA5; LATEST])
        .unwrap();
    store.into_media().journal().to_vec()
}

fn assert_reads_back(contents: &StoreContents, blocks: &[Block]) {
    assert_eq!(contents.blocks, blocks);
    assert_eq!(contents.requests.len(), blocks.len());
    assert_eq!(
        contents.snapshot,
        Some((BLOCKS, vec![0xA5; LATEST])),
        "the latest snapshot, not the superseded one"
    );
    assert_eq!(contents.truncated_records, 0);
}

#[test]
fn open_then_contents_reads_the_journal_once() {
    let blocks = chain(BLOCKS);
    let mut store = JournalStore::open(CountingMedia::new(reference_image(&blocks))).unwrap();
    assert_eq!(store.media().reads(), 1, "open reads the image");
    assert_reads_back(&store.contents().unwrap(), &blocks);
    assert_eq!(
        store.media().reads(),
        1,
        "the first contents() is served from open's verified parse"
    );
}

#[test]
fn contents_after_an_append_reads_again_and_sees_it() {
    let blocks = chain(BLOCKS + 1);
    let (old, new) = blocks.split_at(BLOCKS as usize);
    let mut store = JournalStore::open(CountingMedia::new(reference_image(old))).unwrap();
    store.append_block(&new[0]).unwrap();
    let contents = store.contents().unwrap();
    assert_eq!(store.media().reads(), 2, "an append drops open's parse");
    assert_eq!(contents.blocks, blocks);
}

#[test]
fn a_second_contents_reads_again() {
    let blocks = chain(BLOCKS);
    let mut store = JournalStore::open(CountingMedia::new(reference_image(&blocks))).unwrap();
    assert_reads_back(&store.contents().unwrap(), &blocks);
    assert_reads_back(&store.contents().unwrap(), &blocks);
    assert_eq!(store.media().reads(), 2, "open's parse is handed out once");
}

#[test]
fn open_and_contents_allocate_one_image_and_one_snapshot() {
    /// Bytes allowed per block or request record: its decoded form and
    /// its share of the growing `Vec`s.
    const PER_RECORD: u64 = 1024;
    let blocks = chain(BLOCKS);
    let image = reference_image(&blocks);
    let records = 2 * BLOCKS;
    let budget = image.len() as u64 + LATEST as u64 + PER_RECORD * records;
    let media = CountingMedia::new(image.clone());

    let before = allocated();
    let mut store = JournalStore::open(media).unwrap();
    let contents = store.contents().unwrap();
    let bytes = allocated() - before;

    assert_reads_back(&contents, &blocks);
    println!(
        "open + contents: {bytes} B allocated; image {} B, latest snapshot {LATEST} B, \
         {records} records; budget {budget} B",
        image.len()
    );
    assert!(
        bytes <= budget,
        "{bytes} B allocated by open + contents(), budget {budget} B = image {} B \
         + latest snapshot {LATEST} B + {PER_RECORD} B x {records} records",
        image.len()
    );
}
