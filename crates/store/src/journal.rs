//! The log-structured journal: record framing, strict verifying parser,
//! and the [`JournalStore`] that implements [`dagbft_core::BlockStore`]
//! over any [`Media`].
//!
//! Each journal byte is read and verified once per recovery:
//! [`JournalStore::open`] parses the whole image (it must, to find a torn
//! tail before truncating), and the first `contents()` after it returns
//! that parse instead of reading the medium again. Once anything has
//! been appended, or the parse has been handed out, `contents()` reads
//! and parses the medium afresh.
//!
//! # Journal format
//!
//! ```text
//! journal.log := MAGIC record*
//! MAGIC       := "DAGBFTJ2"                              (8 bytes)
//! record      := len:u32le kind:u8 payload:[u8; len] checksum:u64le
//! checksum    := xxh64(payload, seed = kind << 32 | len)
//! ```
//!
//! The checksum catches torn writes and at-rest bit flips; it is unkeyed
//! and stored beside the bytes it covers, so it authenticates nothing and
//! need not be cryptographic. `ref(B)` is what names a block, and it stays
//! SHA-256 (Definition 3.1). The seed binds `kind` and `len` into the
//! checksum without hashing them as bytes. There is one format: a journal
//! written under the `DAGBFTJ1` magic (whose checksum was
//! `sha256(kind ‖ len ‖ payload)[..8]`) is refused with
//! [`StoreError::BadMagic`].
//!
//! Record kinds:
//!
//! * `1` (block): `ref(B):[u8; 32]` followed by the block's canonical
//!   wire bytes verbatim — the exact bytes that were admitted. The parser
//!   strictly decodes the wire image and recomputes `ref(B)`; any
//!   mismatch is [`StoreError::RefMismatch`].
//! * `2` (request): the wire encoding of a [`LabeledRequest`] (the
//!   request WAL).
//! * `3` (snapshot): `covered:u64le` followed by an opaque interpreter
//!   snapshot payload. Every snapshot record is verified (checksum and
//!   coverage); only the latest one is copied out and read back.
//!
//! # Torn tails vs corruption
//!
//! A crash mid-append leaves a record whose framing extends past
//! end-of-file. That — and only that — is treated as a *torn tail*:
//! [`parse`] drops it (at most one record), and [`JournalStore::open`]
//! physically truncates it so appends resume from the valid prefix. A
//! record whose framing is size-complete but whose bytes are wrong is
//! *corruption* and maps to a typed [`StoreError`] — never a panic,
//! never a silently-altered block.
//!
//! # Own-tip sidecar
//!
//! `tip.bin` holds two 16-byte slots, each `seq:u64le` followed by
//! `sha256("DAGBFTT1" ‖ seq)[..8]`. The writer alternates slots so a torn
//! slot write can never destroy the previous marker; the reader takes the
//! highest valid slot. This is the §7 equivocation guard's durable
//! high-water mark, written *after* the journal sync that makes the
//! corresponding own block durable. Its format is the one `DAGBFTJ1`
//! stores wrote, so a server whose old journal was refused still reads
//! the marker and refuses to resume below it.

use std::path::Path;

use dagbft_codec::decode_from_slice;
use dagbft_core::{Block, BlockStore, LabeledRequest, SeqNum, StoreContents, StoreError};
use dagbft_crypto::sha256;

use crate::media::{FileMedia, Media, MemMedia};
use crate::xxh64::xxh64;

/// Journal file magic: format name + version.
pub const MAGIC: [u8; 8] = *b"DAGBFTJ2";

/// Record kind: an admitted block (`ref(B)` + wire bytes).
pub const KIND_BLOCK: u8 = 1;
/// Record kind: a buffered user request.
pub const KIND_REQUEST: u8 = 2;
/// Record kind: an interpreter snapshot.
pub const KIND_SNAPSHOT: u8 = 3;

/// Bytes of record framing before the payload (`len:u32le kind:u8`).
const HEADER_LEN: usize = 5;
/// Bytes of checksum after the payload.
const CHECKSUM_LEN: usize = 8;

/// Domain prefix for tip-slot checksums (distinct from record checksums).
const TIP_DOMAIN: &[u8; 8] = b"DAGBFTT1";
/// Bytes per tip slot (`seq:u64le` + 8-byte checksum).
const TIP_SLOT_LEN: usize = 16;

/// The checksum of one record: XXH64 of the payload, hashed in place,
/// seeded with the record's kind and length. The one place that knows
/// the algorithm.
fn record_checksum(kind: u8, payload: &[u8]) -> [u8; 8] {
    let seed = u64::from(kind) << 32 | u64::from(payload.len() as u32);
    xxh64(payload, seed).to_le_bytes()
}

/// Frames one record (`len kind payload checksum`) ready to append.
pub fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    out.extend_from_slice(&record_checksum(kind, payload));
    out
}

/// What [`parse`] recovered from a journal image.
#[derive(Debug, Default)]
pub struct ParsedJournal {
    /// Admitted blocks, in journal (= admission) order.
    pub blocks: Vec<Block>,
    /// Buffered requests, in arrival order.
    pub requests: Vec<LabeledRequest>,
    /// The latest snapshot record, as `(covered, payload)`.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Records dropped as an incomplete tail (0 or 1).
    pub truncated_records: usize,
    /// Length in bytes of the valid prefix — everything past it is the
    /// torn tail the store physically truncates.
    pub valid_len: usize,
}

/// Strictly parses a journal image.
///
/// Pure function of the bytes — the fault-injection matrices call it
/// directly over every possible truncation and bit flip. Guarantees:
/// never panics; a record extending past end-of-input is dropped as a
/// torn tail (`truncated_records = 1`, `valid_len` marks the cut); every
/// other malformation is a typed [`StoreError`].
///
/// # Errors
///
/// [`StoreError::BadMagic`] if 8+ bytes are present but are not the
/// journal magic; [`StoreError::ChecksumMismatch`],
/// [`StoreError::Decode`], [`StoreError::RefMismatch`],
/// [`StoreError::UnknownKind`], or [`StoreError::SnapshotCoversFuture`]
/// for size-complete records whose contents are wrong.
pub fn parse(bytes: &[u8]) -> Result<ParsedJournal, StoreError> {
    let mut parsed = ParsedJournal::default();
    if bytes.is_empty() {
        return Ok(parsed);
    }
    if bytes.len() < MAGIC.len() {
        // A crash during the very first write tore the magic itself.
        parsed.truncated_records = 1;
        return Ok(parsed);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::BadMagic);
    }

    let mut offset = MAGIC.len();
    parsed.valid_len = offset;
    let mut record = 0usize;
    // Every snapshot record is verified in place; only the last one
    // survives the walk to be copied out.
    let mut latest_snapshot: Option<(u64, &[u8])> = None;
    while offset < bytes.len() {
        let Some((len, &[kind, ref body @ ..])) = bytes[offset..].split_first_chunk::<4>() else {
            parsed.truncated_records = 1;
            break;
        };
        let len = u32::from_le_bytes(*len) as usize;
        let Some((payload, stored)) = body
            .split_at_checked(len)
            .and_then(|(payload, rest)| Some((payload, rest.first_chunk::<CHECKSUM_LEN>()?)))
        else {
            // Framing runs past end-of-file: the torn tail. (A bit flip
            // that enlarged `len` is indistinguishable from a torn write
            // by construction; both resolve to a clean prefix.)
            parsed.truncated_records = 1;
            break;
        };
        if record_checksum(kind, payload) != *stored {
            return Err(StoreError::ChecksumMismatch { record });
        }
        match kind {
            KIND_BLOCK => {
                if payload.len() < 32 {
                    return Err(StoreError::Decode {
                        record,
                        error: "block record shorter than its ref prefix".into(),
                    });
                }
                // One copy of the wire per record: the block keeps it as
                // its one buffer and reads its requests from it in place.
                let block: Block =
                    decode_from_slice(&payload[32..]).map_err(|err| StoreError::Decode {
                        record,
                        error: err.to_string(),
                    })?;
                if block.block_ref().as_bytes()[..] != payload[..32] {
                    return Err(StoreError::RefMismatch { record });
                }
                parsed.blocks.push(block);
            }
            KIND_REQUEST => {
                let request: LabeledRequest =
                    decode_from_slice(payload).map_err(|err| StoreError::Decode {
                        record,
                        error: err.to_string(),
                    })?;
                parsed.requests.push(request);
            }
            KIND_SNAPSHOT => {
                let Some((covered, state)) = payload.split_first_chunk::<8>() else {
                    return Err(StoreError::Decode {
                        record,
                        error: "snapshot record shorter than its coverage prefix".into(),
                    });
                };
                let covered = u64::from_le_bytes(*covered);
                if covered > parsed.blocks.len() as u64 {
                    return Err(StoreError::SnapshotCoversFuture {
                        covered,
                        blocks: parsed.blocks.len() as u64,
                    });
                }
                latest_snapshot = Some((covered, state));
            }
            other => {
                return Err(StoreError::UnknownKind {
                    record,
                    kind: other,
                });
            }
        }
        offset += HEADER_LEN + len + CHECKSUM_LEN;
        parsed.valid_len = offset;
        record += 1;
    }
    parsed.snapshot = latest_snapshot.map(|(covered, state)| (covered, state.to_vec()));
    Ok(parsed)
}

/// Reads the tip sidecar: highest valid slot wins; returns the marker and
/// the slot index the *next* write should use (always the other slot, so
/// a torn write can only damage the older marker).
fn parse_tip(bytes: &[u8]) -> (Option<SeqNum>, u64) {
    let mut best: Option<(SeqNum, usize)> = None;
    for slot in 0..2 {
        let start = slot * TIP_SLOT_LEN;
        let Some(raw) = bytes.get(start..start + TIP_SLOT_LEN) else {
            continue;
        };
        if raw.iter().all(|b| *b == 0) {
            // Never written (fresh file reads back zeros).
            continue;
        }
        let Some((seq, sum)) = raw.split_first_chunk::<8>() else {
            continue;
        };
        let seq = u64::from_le_bytes(*seq);
        if tip_checksum(seq) != *sum {
            continue;
        }
        let seq = SeqNum::new(seq);
        if best.is_none_or(|(tip, _)| tip < seq) {
            best = Some((seq, slot));
        }
    }
    match best {
        Some((tip, slot)) => (Some(tip), (slot ^ 1) as u64),
        None => (None, 0),
    }
}

fn tip_checksum(seq: u64) -> [u8; 8] {
    let mut preimage = [0u8; 16];
    preimage[..8].copy_from_slice(TIP_DOMAIN);
    preimage[8..].copy_from_slice(&seq.to_le_bytes());
    let digest = sha256(preimage);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&digest.as_bytes()[..8]);
    sum
}

/// The log-structured [`BlockStore`]: appends checksummed records through
/// a [`Media`], verifies everything once on open, and truncates torn
/// tails.
#[derive(Debug)]
pub struct JournalStore<M: Media> {
    media: M,
    /// Torn-tail records dropped (and physically truncated) at open.
    truncated_at_open: usize,
    /// Highest own-tip marker; mirrors the sidecar.
    tip: Option<SeqNum>,
    /// Sidecar slot the next marker write goes to.
    tip_slot: u64,
    /// The verified parse `open` made, still equal to the medium: the
    /// first `contents()` takes it, and any append drops it.
    read_back: Option<ParsedJournal>,
}

impl<M: Media> JournalStore<M> {
    /// Opens a journal over `media`: parses and verifies the full image,
    /// physically truncates a torn tail (at most one record), and reads
    /// the own-tip sidecar. Never panics on corrupt media. The parse is
    /// kept, so the first [`BlockStore::contents`] reads nothing again.
    ///
    /// # Errors
    ///
    /// Any typed [`StoreError`] from [`parse`] or the media.
    pub fn open(mut media: M) -> Result<Self, StoreError> {
        let bytes = media.journal_bytes()?;
        let mut parsed = parse(&bytes)?;
        if parsed.valid_len < bytes.len() {
            media.truncate_journal(parsed.valid_len as u64)?;
        }
        if parsed.valid_len == 0 {
            media.append_journal(&MAGIC)?;
        }
        let (tip, tip_slot) = parse_tip(&media.tip_bytes()?);
        Ok(JournalStore {
            media,
            // The torn tail is gone from the medium now, so a read-back
            // reports it through this counter alone.
            truncated_at_open: std::mem::take(&mut parsed.truncated_records),
            tip,
            tip_slot,
            read_back: Some(parsed),
        })
    }

    /// Records dropped as a torn tail when this store was opened.
    pub fn truncated_at_open(&self) -> usize {
        self.truncated_at_open
    }

    /// The underlying media (tests inspect raw bytes through this).
    pub fn media(&self) -> &M {
        &self.media
    }

    /// Consumes the store, returning its media.
    pub fn into_media(self) -> M {
        self.media
    }
}

impl JournalStore<FileMedia> {
    /// Opens (creating if needed) an on-disk journal under `dir`.
    ///
    /// # Errors
    ///
    /// Any typed [`StoreError`] from the filesystem or from verifying an
    /// existing journal.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        JournalStore::open(FileMedia::open(dir)?)
    }
}

impl JournalStore<MemMedia> {
    /// An empty in-memory journal.
    ///
    /// # Panics
    ///
    /// Never — in-memory media is infallible.
    pub fn in_memory() -> Self {
        JournalStore::open(MemMedia::new()).expect("in-memory media is infallible")
    }
}

impl<M: Media> BlockStore for JournalStore<M> {
    fn append_block(&mut self, block: &Block) -> Result<(), StoreError> {
        self.read_back = None;
        let wire = block.wire_bytes();
        let mut payload = Vec::with_capacity(32 + wire.len());
        payload.extend_from_slice(block.block_ref().as_bytes());
        payload.extend_from_slice(wire);
        self.media
            .append_journal(&encode_record(KIND_BLOCK, &payload))
    }

    fn append_request(&mut self, request: &LabeledRequest) -> Result<(), StoreError> {
        self.read_back = None;
        let payload = dagbft_codec::encode_to_vec(request);
        self.media
            .append_journal(&encode_record(KIND_REQUEST, &payload))
    }

    fn append_snapshot(&mut self, covered: u64, payload: &[u8]) -> Result<(), StoreError> {
        self.read_back = None;
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&covered.to_le_bytes());
        framed.extend_from_slice(payload);
        self.media
            .append_journal(&encode_record(KIND_SNAPSHOT, &framed))
    }

    fn mark_own_tip(&mut self, seq: SeqNum) -> Result<(), StoreError> {
        if self.tip.is_some_and(|tip| seq <= tip) {
            return Ok(());
        }
        let mut slot = [0u8; TIP_SLOT_LEN];
        slot[..8].copy_from_slice(&seq.value().to_le_bytes());
        slot[8..].copy_from_slice(&tip_checksum(seq.value()));
        self.media
            .write_tip(self.tip_slot * TIP_SLOT_LEN as u64, &slot)?;
        self.tip = Some(seq);
        self.tip_slot ^= 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.media.sync_journal()
    }

    fn contents(&mut self) -> Result<StoreContents, StoreError> {
        let parsed = match self.read_back.take() {
            Some(parsed) => parsed,
            None => parse(&self.media.journal_bytes()?)?,
        };
        Ok(StoreContents {
            blocks: parsed.blocks,
            requests: parsed.requests,
            snapshot: parsed.snapshot,
            own_tip: self.tip,
            truncated_records: self.truncated_at_open + parsed.truncated_records,
        })
    }
}
