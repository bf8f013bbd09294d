//! Durable block storage behind the [`BlockStore`] trait.
//!
//! The paper's §7 observes that crash–recovery is "a great match for the
//! block DAG approach": the DAG *is* the log, and interpretation is a pure
//! function of it (Lemma 4.2). This module defines the storage seam the
//! rest of the workspace shares, and the one persistence format: a
//! durable shim is born from its `BlockStore`
//! ([`crate::Shim::recover_from_store`], the one recovery front for every
//! protocol and driver, from whatever the store returns — nothing, a
//! journal, or a journal plus a snapshot, which it restores when the
//! protocol keeps snapshots), journals every admitted block (its
//! already-canonical wire bytes), every buffered user request, and
//! periodic interpreter snapshots through it, crashes back to it, and is
//! born from it again.
//!
//! Two families of implementations exist:
//!
//! * [`MemoryStore`] (here) — the in-memory oracle: loss-free, used by
//!   tests and as the store of the simulator's restarting servers, to pin
//!   the recovery semantics independent of any file format;
//! * `dagbft_store::JournalStore` — the log-structured on-disk journal
//!   with checksummed records, torn-tail truncation, and fault-injected
//!   recovery matrices.
//!
//! Every failure mode maps to a typed [`StoreError`] / [`RecoverError`];
//! recovery never panics on corrupt input, and — the §7 equivocation
//! caveat — never resumes a builder's chain below the highest sequence
//! number it durably marked ([`BlockStore::mark_own_tip`]).

use std::error::Error;
use std::fmt;

use crate::block::{Block, BlockRef, LabeledRequest, SeqNum};
use crate::interpret::SnapshotError;
use crate::shim::SetupError;

/// Errors surfaced by a [`BlockStore`] implementation.
///
/// Corruption is always *typed*: implementations must never panic on
/// malformed persisted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(String),
    /// The journal's magic header is present but wrong — this is not a
    /// block journal (or a foreign format version).
    BadMagic,
    /// A size-complete record's checksum does not match its bytes: on-disk
    /// corruption that is *not* a torn tail write.
    ChecksumMismatch {
        /// Zero-based index of the corrupt record.
        record: usize,
    },
    /// A record's payload failed strict decoding.
    Decode {
        /// Zero-based index of the malformed record.
        record: usize,
        /// The underlying codec error, rendered.
        error: String,
    },
    /// A block record's recomputed `ref(B)` differs from the reference the
    /// record claims — the stored wire image is not the block that was
    /// admitted.
    RefMismatch {
        /// Zero-based index of the mismatching record.
        record: usize,
    },
    /// A record carries an unknown kind tag.
    UnknownKind {
        /// Zero-based index of the record.
        record: usize,
        /// The unrecognized kind byte.
        kind: u8,
    },
    /// A snapshot record claims to cover more blocks than precede it in
    /// the journal.
    SnapshotCoversFuture {
        /// Blocks the snapshot claims to cover.
        covered: u64,
        /// Blocks actually journaled before the snapshot record.
        blocks: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store i/o error: {err}"),
            StoreError::BadMagic => write!(f, "not a block journal (bad magic)"),
            StoreError::ChecksumMismatch { record } => {
                write!(f, "record {record}: checksum mismatch")
            }
            StoreError::Decode { record, error } => {
                write!(f, "record {record}: payload does not decode: {error}")
            }
            StoreError::RefMismatch { record } => {
                write!(f, "record {record}: recomputed ref(B) differs from stored")
            }
            StoreError::UnknownKind { record, kind } => {
                write!(f, "record {record}: unknown record kind {kind}")
            }
            StoreError::SnapshotCoversFuture { covered, blocks } => {
                write!(
                    f,
                    "snapshot covers {covered} blocks but only {blocks} precede it"
                )
            }
        }
    }
}

impl Error for StoreError {}

/// Everything a [`BlockStore`] recovered from its durable medium.
///
/// `blocks` preserves journal (= admission) order, which is a topological
/// order of the DAG: the journal only ever appends blocks *after* their
/// predecessors were admitted.
#[derive(Debug, Clone, Default)]
pub struct StoreContents {
    /// Admitted blocks, in admission order.
    pub blocks: Vec<Block>,
    /// User requests buffered via `request()`, in arrival order — the
    /// write-ahead log that lets recovery re-buffer requests not yet
    /// sealed into an own block.
    pub requests: Vec<LabeledRequest>,
    /// The most recent interpreter snapshot, as
    /// `(covered_blocks, opaque payload)`.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Highest own-chain sequence number ever durably marked
    /// ([`BlockStore::mark_own_tip`]); recovery refuses to resume below it.
    pub own_tip: Option<SeqNum>,
    /// Records dropped as an incomplete (torn) tail while reading. A clean
    /// shutdown reads back 0; a crash mid-append reads back at most 1.
    pub truncated_records: usize,
}

/// A durable, append-only store for one server's DAG history.
///
/// The shim appends every admitted block (in admission order), every
/// buffered request, and periodic interpreter snapshots;
/// [`BlockStore::sync`] makes previous appends durable. Reading back
/// via [`BlockStore::contents`] must tolerate arbitrarily corrupt media:
/// torn tails are truncated, everything else maps to a typed
/// [`StoreError`].
pub trait BlockStore: fmt::Debug + Send {
    /// Appends one admitted block. Implementations persist the block's
    /// cached canonical wire bytes verbatim.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    fn append_block(&mut self, block: &Block) -> Result<(), StoreError>;

    /// Appends one buffered user request (the request WAL).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    fn append_request(&mut self, request: &LabeledRequest) -> Result<(), StoreError>;

    /// Appends an interpreter snapshot covering the first `covered`
    /// journaled blocks. Only the latest snapshot is ever read back.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    fn append_snapshot(&mut self, covered: u64, payload: &[u8]) -> Result<(), StoreError>;

    /// Durably records that this server sealed an own block at `seq`.
    /// Must be persistent *before* the block is broadcast — the §7
    /// equivocation guard: recovery refuses to resume below the marker
    /// even if the journal tail (the block itself) was lost.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write failure.
    fn mark_own_tip(&mut self, seq: SeqNum) -> Result<(), StoreError>;

    /// Makes all previous appends durable.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on sync failure.
    fn sync(&mut self) -> Result<(), StoreError>;

    /// Reads everything back from the durable medium.
    ///
    /// The first read after opening may be served from the verification
    /// pass the store made when it opened (hence `&mut self`: that pass
    /// is handed out once); any later read, and any read after an
    /// append, re-reads the medium.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`]; implementations must not panic on corrupt
    /// input.
    fn contents(&mut self) -> Result<StoreContents, StoreError>;
}

/// The in-memory oracle [`BlockStore`]: loss-free and infallible, used to
/// pin recovery semantics independent of any on-disk format, and as the
/// store of the simulator's restarting servers.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blocks: Vec<Block>,
    requests: Vec<LabeledRequest>,
    snapshot: Option<(u64, Vec<u8>)>,
    own_tip: Option<SeqNum>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// Number of blocks stored.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Test helper: drops the last `records` block records, simulating a
    /// torn tail that lost fully-written blocks (e.g. an unsynced page).
    /// The own-tip marker is *not* touched — exactly the situation the
    /// §7 equivocation guard must catch when an own block is lost.
    pub fn truncate_tail(&mut self, records: usize) {
        let keep = self.blocks.len().saturating_sub(records);
        self.blocks.truncate(keep);
    }
}

impl BlockStore for MemoryStore {
    fn append_block(&mut self, block: &Block) -> Result<(), StoreError> {
        self.blocks.push(block.clone());
        Ok(())
    }

    fn append_request(&mut self, request: &LabeledRequest) -> Result<(), StoreError> {
        self.requests.push(request.clone());
        Ok(())
    }

    fn append_snapshot(&mut self, covered: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.snapshot = Some((covered, payload.to_vec()));
        Ok(())
    }

    fn mark_own_tip(&mut self, seq: SeqNum) -> Result<(), StoreError> {
        if self.own_tip.is_none_or(|tip| tip < seq) {
            self.own_tip = Some(seq);
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    fn contents(&mut self) -> Result<StoreContents, StoreError> {
        Ok(StoreContents {
            blocks: self.blocks.clone(),
            requests: self.requests.clone(),
            snapshot: self.snapshot.clone(),
            own_tip: self.own_tip,
            truncated_records: 0,
        })
    }
}

/// What a [`crate::Shim::recover_from_store`] call actually did — the
/// counters the snapshot-catch-up acceptance criteria assert on. All zero
/// for a fresh start from an empty store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Blocks read back from the journal.
    pub journal_blocks: usize,
    /// Blocks actually re-interpreted during recovery. Without a snapshot
    /// this equals `journal_blocks`; with one it is only the suffix past
    /// the snapshot's coverage.
    pub replayed_blocks: usize,
    /// Blocks whose interpretation the snapshot restored without replay.
    pub snapshot_covered: usize,
    /// Buffered requests re-queued (journaled but never sealed into an
    /// own block before the crash).
    pub requests_rebuffered: usize,
    /// Torn-tail records the store dropped while reading.
    pub truncated_records: usize,
    /// Format version of a persisted snapshot that was skipped because this
    /// build does not read it; `snapshot_covered` is 0 and the whole
    /// journal replayed instead.
    pub snapshot_skipped_version: Option<u8>,
}

/// Errors recovering a server from a [`BlockStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// Reading the store back failed.
    Store(StoreError),
    /// A journaled block references a predecessor that does not precede it
    /// in the journal — the journal is not a topological admission log.
    BrokenTopology {
        /// The offending block.
        block: BlockRef,
    },
    /// The journal's own chain ends below the highest own-block sequence
    /// number ever durably marked: resuming would rebuild — and re-sign —
    /// an already-broadcast sequence number, i.e. equivocate (§7).
    OwnChainTruncated {
        /// Highest own sequence number found in the journal, if any.
        journal: Option<SeqNum>,
        /// The durably marked own tip.
        marker: SeqNum,
    },
    /// The persisted interpreter snapshot is unusable.
    Snapshot(SnapshotError),
    /// The snapshot covers a block set that is not the journal prefix it
    /// claims — snapshot and journal are from different histories.
    SnapshotDiverged {
        /// Blocks the snapshot claims to cover.
        covered: u64,
    },
    /// Shim construction failed (no key material for this server).
    Setup(SetupError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Store(err) => write!(f, "reading store: {err}"),
            RecoverError::BrokenTopology { block } => {
                write!(f, "journal is not topological at block {block}")
            }
            RecoverError::OwnChainTruncated { journal, marker } => match journal {
                Some(journal) => write!(
                    f,
                    "own chain truncated: journal ends at {journal}, marker at {marker} \
                     (resuming would equivocate)"
                ),
                None => write!(
                    f,
                    "own chain truncated: journal has no own blocks, marker at {marker} \
                     (resuming would equivocate)"
                ),
            },
            RecoverError::Snapshot(err) => write!(f, "interpreter snapshot: {err}"),
            RecoverError::SnapshotDiverged { covered } => {
                write!(
                    f,
                    "snapshot covers {covered} blocks that are not the journal prefix"
                )
            }
            RecoverError::Setup(err) => write!(f, "{err}"),
        }
    }
}

impl Error for RecoverError {}

impl From<StoreError> for RecoverError {
    fn from(err: StoreError) -> Self {
        RecoverError::Store(err)
    }
}

impl From<SnapshotError> for RecoverError {
    fn from(err: SnapshotError) -> Self {
        RecoverError::Snapshot(err)
    }
}

impl From<SetupError> for RecoverError {
    fn from(err: SetupError) -> Self {
        RecoverError::Setup(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use dagbft_crypto::{KeyRegistry, ServerId};

    fn block(seq: u64) -> Block {
        let registry = KeyRegistry::generate(1, 5);
        let signer = registry.signer(ServerId::new(0)).unwrap();
        Block::build(ServerId::new(0), SeqNum::new(seq), vec![], vec![], &signer)
    }

    #[test]
    fn memory_store_roundtrip() {
        let mut store = MemoryStore::new();
        let b = block(0);
        store.append_block(&b).unwrap();
        store
            .append_request(&LabeledRequest::encode(Label::new(1), &7u64))
            .unwrap();
        store.append_snapshot(1, &[1, 2, 3]).unwrap();
        store.mark_own_tip(SeqNum::ZERO).unwrap();
        store.sync().unwrap();
        let contents = store.contents().unwrap();
        assert_eq!(contents.blocks, vec![b]);
        assert_eq!(contents.requests.len(), 1);
        assert_eq!(contents.snapshot, Some((1, vec![1, 2, 3])));
        assert_eq!(contents.own_tip, Some(SeqNum::ZERO));
        assert_eq!(contents.truncated_records, 0);
    }

    #[test]
    fn memory_store_tip_is_monotonic() {
        let mut store = MemoryStore::new();
        store.mark_own_tip(SeqNum::new(3)).unwrap();
        store.mark_own_tip(SeqNum::new(1)).unwrap();
        assert_eq!(store.contents().unwrap().own_tip, Some(SeqNum::new(3)));
    }

    #[test]
    fn truncate_tail_drops_blocks_not_marker() {
        let mut store = MemoryStore::new();
        store.append_block(&block(0)).unwrap();
        store.mark_own_tip(SeqNum::ZERO).unwrap();
        store.truncate_tail(1);
        let contents = store.contents().unwrap();
        assert!(contents.blocks.is_empty());
        assert_eq!(contents.own_tip, Some(SeqNum::ZERO));
    }

    #[test]
    fn errors_render() {
        let cases: Vec<StoreError> = vec![
            StoreError::Io("disk".into()),
            StoreError::BadMagic,
            StoreError::ChecksumMismatch { record: 3 },
            StoreError::Decode {
                record: 1,
                error: "eof".into(),
            },
            StoreError::RefMismatch { record: 2 },
            StoreError::UnknownKind { record: 0, kind: 9 },
            StoreError::SnapshotCoversFuture {
                covered: 5,
                blocks: 2,
            },
        ];
        for case in cases {
            assert!(!case.to_string().is_empty());
            assert!(!RecoverError::Store(case).to_string().is_empty());
        }
        assert!(!RecoverError::OwnChainTruncated {
            journal: None,
            marker: SeqNum::new(4)
        }
        .to_string()
        .is_empty());
    }
}
