//! Durable, log-structured block journal for the DAG-BFT workspace.
//!
//! The paper's §7 observes that the block DAG *is* the log: because
//! interpretation is a pure function of the DAG (Lemma 4.2), a server
//! that persists every admitted block can recover its entire protocol
//! state by replay. This crate supplies the on-disk half of that story —
//! [`JournalStore`] implements [`dagbft_core::BlockStore`] by appending
//! each admitted block's cached canonical wire bytes verbatim as
//! checksummed, length-prefixed records, and verifies everything
//! (checksum, strict decode plus `ref(B)` recheck) once, when the journal
//! is re-opened. Recovery reads back that verified parse rather than a
//! second read of the medium.
//!
//! Robustness guarantees, enforced by the fault matrices in
//! `tests/journal_faults.rs`:
//!
//! * a crash mid-append (torn tail) truncates *exactly* the incomplete
//!   record — the surviving prefix is byte-identical to what was synced;
//! * every other corruption (bit flips, wrong magic, bad framing) maps to
//!   a typed [`StoreError`](dagbft_core::StoreError) — never a panic;
//! * the own-tip sidecar survives torn writes by slot alternation, so the
//!   §7 equivocation guard (never rebuild a sequence number that was
//!   already broadcast) holds even when the journal tail is lost.
//!
//! Periodic interpreter snapshots (kind-3 records) bound recovery work:
//! replay touches only the suffix of blocks past the latest snapshot's
//! coverage. Every snapshot record is verified; only the latest one is
//! copied out.
//!
//! The [`Media`] abstraction separates the journal logic from its
//! storage: [`FileMedia`] persists to a directory, [`MemMedia`] backs
//! tests, and [`FaultyMedia`] injects short writes at exact byte budgets
//! and at-rest bit flips.

mod journal;
mod media;

pub use journal::{
    encode_record, parse, JournalStore, ParsedJournal, KIND_BLOCK, KIND_REQUEST, KIND_SNAPSHOT,
    MAGIC,
};
pub use media::{FaultyMedia, FileMedia, Media, MemMedia};

/// On-disk journal store (directory-backed).
pub type FileStore = JournalStore<FileMedia>;
/// In-memory journal store (same format, no filesystem).
pub type MemStore = JournalStore<MemMedia>;

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_core::{Block, BlockStore, Label, LabeledRequest, SeqNum, StoreError};
    use dagbft_crypto::{KeyRegistry, ServerId};

    fn registry() -> KeyRegistry {
        KeyRegistry::generate(1, 77)
    }

    fn block(registry: &KeyRegistry, seq: u64) -> Block {
        let signer = registry.signer(ServerId::new(0)).unwrap();
        Block::build(ServerId::new(0), SeqNum::new(seq), vec![], vec![], &signer)
    }

    #[test]
    fn roundtrip_through_memory_journal() {
        let registry = registry();
        let mut store = MemStore::in_memory();
        let b0 = block(&registry, 0);
        store.append_block(&b0).unwrap();
        store
            .append_request(&LabeledRequest::encode(Label::new(9), &42u64))
            .unwrap();
        store.append_snapshot(1, &[7, 7, 7]).unwrap();
        store.mark_own_tip(SeqNum::ZERO).unwrap();
        store.sync().unwrap();

        let contents = store.contents().unwrap();
        assert_eq!(contents.blocks, vec![b0.clone()]);
        assert_eq!(contents.requests.len(), 1);
        assert_eq!(contents.snapshot, Some((1, vec![7, 7, 7])));
        assert_eq!(contents.own_tip, Some(SeqNum::ZERO));
        assert_eq!(contents.truncated_records, 0);

        // Reopening over the same bytes reads back the same history.
        let mut reopened = JournalStore::open(store.into_media()).unwrap();
        let contents = reopened.contents().unwrap();
        assert_eq!(contents.blocks, vec![b0]);
        assert_eq!(contents.own_tip, Some(SeqNum::ZERO));
    }

    #[test]
    fn roundtrip_through_files() {
        let dir = std::env::temp_dir().join(format!("dagbft-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = registry();
        let b0 = block(&registry, 0);
        {
            let mut store = FileStore::open_dir(&dir).unwrap();
            store.append_block(&b0).unwrap();
            store.mark_own_tip(SeqNum::ZERO).unwrap();
            store.sync().unwrap();
        }
        let mut store = FileStore::open_dir(&dir).unwrap();
        let contents = store.contents().unwrap();
        assert_eq!(contents.blocks, vec![b0]);
        assert_eq!(contents.own_tip, Some(SeqNum::ZERO));
        assert_eq!(contents.truncated_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_nested_directory_that_does_not_exist_yet_opens_and_reopens() {
        let root = std::env::temp_dir().join(format!("dagbft-store-nested-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = root.join("a").join("b");
        let b0 = block(&registry(), 0);
        {
            let mut store = FileStore::open_dir(&dir).unwrap();
            store.append_block(&b0).unwrap();
            store.mark_own_tip(SeqNum::ZERO).unwrap();
            store.sync().unwrap();
        }
        let contents = FileStore::open_dir(&dir).unwrap().contents().unwrap();
        assert_eq!(contents.blocks, vec![b0]);
        assert_eq!(contents.own_tip, Some(SeqNum::ZERO));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The framing spelled out: `len ‖ kind ‖ payload ‖ checksum`, with
    /// `checksum = sha256(kind ‖ len ‖ payload)[..8]`, from one copied
    /// preimage.
    fn reference_record(kind: u8, payload: &[u8]) -> Vec<u8> {
        let len = (payload.len() as u32).to_le_bytes();
        let mut preimage = vec![kind];
        preimage.extend_from_slice(&len);
        preimage.extend_from_slice(payload);
        let mut record = len.to_vec();
        record.push(kind);
        record.extend_from_slice(payload);
        record.extend_from_slice(&dagbft_crypto::sha256(&preimage).as_bytes()[..8]);
        record
    }

    #[test]
    fn encode_record_matches_the_reference_framing() {
        for kind in [KIND_BLOCK, KIND_REQUEST, KIND_SNAPSHOT] {
            for len in 0..=130usize {
                let payload: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
                assert_eq!(
                    encode_record(kind, &payload),
                    reference_record(kind, &payload),
                    "kind={kind} len={len}"
                );
            }
        }
        let mib: Vec<u8> = (0..1usize << 20).map(|i| (i >> 3) as u8).collect();
        assert_eq!(
            encode_record(KIND_SNAPSHOT, &mib),
            reference_record(KIND_SNAPSHOT, &mib)
        );
    }

    #[test]
    fn two_snapshots_read_back_the_later_one() {
        let registry = registry();
        let mut store = MemStore::in_memory();
        store.append_block(&block(&registry, 0)).unwrap();
        store.append_snapshot(1, &[1; 300]).unwrap();
        store.append_block(&block(&registry, 1)).unwrap();
        store.append_snapshot(2, &[2; 600]).unwrap();
        let later = Some((2, vec![2; 600]));
        assert_eq!(store.contents().unwrap().snapshot, later);
        assert_eq!(parse(store.media().journal()).unwrap().snapshot, later);
        // Through the parse `open` hands over, and through a re-read.
        let mut reopened = JournalStore::open(store.into_media()).unwrap();
        assert_eq!(reopened.contents().unwrap().snapshot, later);
        assert_eq!(reopened.contents().unwrap().snapshot, later);
    }

    #[test]
    fn a_superseded_snapshot_is_still_verified() {
        let registry = registry();
        let b0 = block(&registry, 0);
        let block_record = {
            let mut payload = b0.block_ref().as_bytes().to_vec();
            payload.extend_from_slice(b0.wire_bytes());
            encode_record(KIND_BLOCK, &payload)
        };
        let snapshot = |covered: u64| {
            let mut payload = covered.to_le_bytes().to_vec();
            payload.extend_from_slice(&[5; 64]);
            encode_record(KIND_SNAPSHOT, &payload)
        };

        // The first of two snapshots claims a block not yet journaled.
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&snapshot(1));
        image.extend_from_slice(&block_record);
        image.extend_from_slice(&snapshot(1));
        assert_eq!(
            parse(&image).unwrap_err(),
            StoreError::SnapshotCoversFuture {
                covered: 1,
                blocks: 0
            }
        );

        // The first of two snapshots has a flipped payload byte.
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&block_record);
        let first = image.len();
        image.extend_from_slice(&snapshot(1));
        image.extend_from_slice(&snapshot(1));
        assert!(parse(&image).is_ok());
        image[first + 20] ^= 1;
        assert_eq!(
            parse(&image).unwrap_err(),
            StoreError::ChecksumMismatch { record: 1 }
        );
    }

    #[test]
    fn tip_survives_and_stays_monotonic() {
        let mut store = MemStore::in_memory();
        store.mark_own_tip(SeqNum::new(2)).unwrap();
        store.mark_own_tip(SeqNum::new(5)).unwrap();
        store.mark_own_tip(SeqNum::new(3)).unwrap();
        assert_eq!(store.contents().unwrap().own_tip, Some(SeqNum::new(5)));

        let mut reopened = JournalStore::open(store.into_media()).unwrap();
        assert_eq!(reopened.contents().unwrap().own_tip, Some(SeqNum::new(5)));
    }

    #[test]
    fn torn_tail_is_truncated_exactly() {
        let registry = registry();
        let mut store = MemStore::in_memory();
        store.append_block(&block(&registry, 0)).unwrap();
        let clean_len = store.media().journal().len();
        store.append_block(&block(&registry, 1)).unwrap();

        // Crash lost the tail of the second record.
        let mut bytes = store.into_media().journal_bytes().unwrap();
        bytes.truncate(clean_len + 9);
        let mut reopened = JournalStore::open(MemMedia::from_journal(bytes)).unwrap();
        assert_eq!(reopened.truncated_at_open(), 1);
        let contents = reopened.contents().unwrap();
        assert_eq!(contents.blocks.len(), 1);
        assert_eq!(contents.truncated_records, 1);
        // The surviving prefix is byte-identical to the synced image.
        assert_eq!(reopened.media().journal().len(), clean_len);
        // A second read comes from the medium and reports the same cut.
        assert_eq!(reopened.contents().unwrap().truncated_records, 1);
    }

    #[test]
    fn wrong_magic_is_typed() {
        let err = JournalStore::open(MemMedia::from_journal(b"NOTAJRNL".to_vec())).unwrap_err();
        assert_eq!(err, StoreError::BadMagic);
    }

    #[test]
    fn snapshot_covering_future_is_typed() {
        let mut store = MemStore::in_memory();
        store.append_snapshot(3, &[]).unwrap();
        let err = store.contents().unwrap_err();
        assert_eq!(
            err,
            StoreError::SnapshotCoversFuture {
                covered: 3,
                blocks: 0
            }
        );
    }
}
