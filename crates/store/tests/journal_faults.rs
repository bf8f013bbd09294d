//! Crash-fault-injection matrices for the journal.
//!
//! Three exhaustive matrices plus randomized property tests, all pinning
//! the same contract: opening a damaged journal never panics; a torn
//! tail is truncated *exactly* (at most one record, surviving prefix
//! byte-identical to what was synced); every other corruption maps to a
//! typed [`StoreError`].
//!
//! * truncate-at-every-byte — every possible crash point in an existing
//!   image;
//! * crash-at-every-write-budget — a live [`JournalStore`] over
//!   [`FaultyMedia`] whose writes tear at an exact byte budget, then a
//!   "restart" over the surviving bytes;
//! * flip-every-bit — at-rest corruption of each bit in the image.
//!
//! A fourth matrix pins the checksum's strength where it matters: every
//! single-bit flip inside a request record and inside a 4 KiB snapshot
//! payload is a [`StoreError::ChecksumMismatch`], never merely "typed or
//! clean".
//!
//! The truncation matrix cuts inside every record's `len`, `kind` and
//! checksum fields. Two header fields it cannot reach get explicit
//! cases: a snapshot record's coverage prefix (behind a valid checksum)
//! and the tip sidecar's slots.

use dagbft_core::{Block, BlockStore, Label, LabeledRequest, SeqNum, StoreError};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_store::{
    encode_record, parse, FaultyMedia, JournalStore, Media, MemMedia, MemStore, KIND_REQUEST,
    KIND_SNAPSHOT, MAGIC,
};
use proptest::prelude::*;

/// A short chain of valid blocks (each referencing its predecessor) from
/// one builder, with a request in every other block.
fn chain(len: u64) -> Vec<Block> {
    let registry = KeyRegistry::generate(2, 77);
    let signer = registry.signer(ServerId::new(0)).unwrap();
    let mut blocks: Vec<Block> = Vec::new();
    for seq in 0..len {
        let preds = blocks.last().map(|b| b.block_ref()).into_iter().collect();
        let requests = if seq % 2 == 0 {
            vec![LabeledRequest::encode(Label::new(seq), &seq)]
        } else {
            vec![]
        };
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

/// Writes the reference workload into a fresh in-memory journal and
/// returns `(image bytes, record boundary offsets, blocks written)`.
/// Boundaries include the magic (offset of record 0) and end-of-image.
fn reference_image(blocks: &[Block]) -> (Vec<u8>, Vec<usize>) {
    let mut store = MemStore::in_memory();
    let mut boundaries = vec![store.media().journal().len()];
    for (index, block) in blocks.iter().enumerate() {
        store.append_block(block).unwrap();
        boundaries.push(store.media().journal().len());
        if index == 1 {
            store
                .append_request(&LabeledRequest::encode(Label::new(99), &(index as u64)))
                .unwrap();
            boundaries.push(store.media().journal().len());
        }
        if index == 2 {
            store
                .append_snapshot(index as u64 + 1, &[0xAB; 40])
                .unwrap();
            boundaries.push(store.media().journal().len());
        }
    }
    store.sync().unwrap();
    let media = store.into_media();
    (media.journal().to_vec(), boundaries)
}

/// The invariant every truncation must satisfy: parse succeeds, keeps a
/// byte-identical prefix ending on the last record boundary at or below
/// the cut, drops at most one record, and reproduces a block prefix.
fn assert_clean_truncation(image: &[u8], cut: usize, boundaries: &[usize], blocks: &[Block]) {
    let parsed = parse(&image[..cut]).expect("truncation is never a typed error");
    assert!(parsed.truncated_records <= 1, "cut={cut}");
    let expected_valid = boundaries
        .iter()
        .copied()
        .filter(|b| *b <= cut)
        .max()
        .unwrap_or(0);
    assert_eq!(parsed.valid_len, expected_valid, "cut={cut}");
    assert_eq!(
        parsed.truncated_records,
        usize::from(cut != expected_valid),
        "cut={cut}"
    );
    // The surviving prefix is byte-identical to the uncorrupted image.
    assert_eq!(&image[..parsed.valid_len], &image[..expected_valid]);
    assert_eq!(
        parsed.blocks,
        blocks[..parsed.blocks.len()],
        "cut={cut}: surviving blocks must be an exact prefix"
    );

    // The store-level open physically truncates to the same point and
    // reads back the same prefix.
    let mut store = JournalStore::open(MemMedia::from_journal(image[..cut].to_vec()))
        .expect("open never fails on truncation");
    assert_eq!(store.truncated_at_open(), parsed.truncated_records);
    let journal = store.media().journal();
    // A fully empty valid prefix re-seeds the magic; otherwise the media
    // holds exactly the valid prefix.
    if expected_valid == 0 {
        assert_eq!(journal, MAGIC);
    } else {
        assert_eq!(journal, &image[..expected_valid]);
    }
    assert_eq!(store.contents().unwrap().blocks, parsed.blocks);
}

#[test]
fn truncate_at_every_byte_is_clean() {
    let blocks = chain(6);
    let (image, boundaries) = reference_image(&blocks);
    for cut in 0..=image.len() {
        assert_clean_truncation(&image, cut, &boundaries, &blocks);
    }
}

#[test]
fn crash_at_every_write_budget_recovers_a_prefix() {
    let blocks = chain(5);
    let (clean_image, _) = reference_image(&blocks);
    for budget in 0..=clean_image.len() {
        // Run the workload against media that tears at `budget` bytes.
        let media = FaultyMedia::new(MemMedia::new()).crash_after(budget);
        let mut store = JournalStore::open(media).expect("fresh open");
        for (index, block) in blocks.iter().enumerate() {
            store.append_block(block).unwrap();
            if index == 1 {
                store
                    .append_request(&LabeledRequest::encode(Label::new(99), &(index as u64)))
                    .unwrap();
            }
            if index == 2 {
                store
                    .append_snapshot(index as u64 + 1, &[0xAB; 40])
                    .unwrap();
            }
            store.sync().unwrap();
            store.mark_own_tip(SeqNum::new(index as u64)).unwrap();
        }

        // "Restart": reopen over whatever survived the crash.
        let surviving = store.into_media().into_surviving();
        let mut restarted = JournalStore::open(surviving).expect("restart never fails");
        assert!(restarted.truncated_at_open() <= 1, "budget={budget}");
        let contents = restarted.contents().unwrap();
        assert_eq!(
            contents.blocks,
            blocks[..contents.blocks.len()],
            "budget={budget}: recovered blocks must be an exact prefix"
        );
        // The tip marker is durable independently of the journal tail,
        // but never runs ahead of what the workload marked.
        if let Some(tip) = contents.own_tip {
            assert!(
                tip <= SeqNum::new(blocks.len() as u64 - 1),
                "budget={budget}"
            );
        }
    }
}

#[test]
fn flip_every_bit_is_typed_or_clean() {
    let blocks = chain(4);
    let (image, boundaries) = reference_image(&blocks);
    for byte in 0..image.len() {
        for bit in 0..8u8 {
            let mut media = FaultyMedia::new(MemMedia::from_journal(image.clone()));
            media.flip_journal_bit(byte, bit);
            let corrupted = media.into_surviving();
            let corrupted_bytes = corrupted.journal().to_vec();
            match parse(&corrupted_bytes) {
                Err(
                    StoreError::BadMagic
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Decode { .. }
                    | StoreError::RefMismatch { .. }
                    | StoreError::UnknownKind { .. }
                    | StoreError::SnapshotCoversFuture { .. },
                ) => {
                    // Typed corruption. The store-level open surfaces the
                    // same error instead of panicking.
                    assert!(
                        JournalStore::open(corrupted).is_err(),
                        "byte={byte} bit={bit}"
                    );
                }
                Err(other) => panic!("byte={byte} bit={bit}: unexpected error {other:?}"),
                Ok(parsed) => {
                    // Clean truncation (a flip in the length field can only
                    // present as a torn tail): the surviving prefix must be
                    // byte-identical to the uncorrupted image and end on a
                    // record boundary at or before the flipped byte.
                    assert!(parsed.truncated_records <= 1, "byte={byte} bit={bit}");
                    assert!(
                        boundaries.contains(&parsed.valid_len),
                        "byte={byte} bit={bit}: valid_len {} off-boundary",
                        parsed.valid_len
                    );
                    if parsed.valid_len < image.len() {
                        assert!(byte >= parsed.valid_len, "byte={byte} bit={bit}");
                    }
                    assert_eq!(
                        &corrupted_bytes[..parsed.valid_len],
                        &image[..parsed.valid_len],
                        "byte={byte} bit={bit}"
                    );
                    assert_eq!(parsed.blocks, blocks[..parsed.blocks.len()]);
                }
            }
        }
    }
}

#[test]
fn every_bit_flip_inside_a_request_or_a_4_kib_snapshot_is_a_checksum_mismatch() {
    // The matrix above accepts "typed or clean" and flips a 40-byte
    // snapshot. Here the checksum alone must catch every flip: in a
    // request record's kind, payload and checksum, and in a 4 KiB
    // snapshot payload. (A flip in `len` can read as a torn tail, which
    // the matrix above covers.)
    let request = dagbft_codec::encode_to_vec(&LabeledRequest::encode(Label::new(7), &7u64));
    let mut snapshot = 0u64.to_le_bytes().to_vec();
    snapshot.extend((0..4096u32).map(|i| ((i * 131) >> 3) as u8));
    let mut image = MAGIC.to_vec();
    let request_at = image.len();
    image.extend_from_slice(&encode_record(KIND_REQUEST, &request));
    let snapshot_at = image.len();
    image.extend_from_slice(&encode_record(KIND_SNAPSHOT, &snapshot));
    assert!(parse(&image).is_ok());

    // `len:u32le` is the first 4 bytes of a record, the payload starts
    // after the kind byte.
    let request_span = request_at + 4..snapshot_at;
    let snapshot_payload = snapshot_at + 5..snapshot_at + 5 + snapshot.len();
    for (record, span) in [(0, request_span), (1, snapshot_payload)] {
        for byte in span {
            for bit in 0..8 {
                let mut corrupted = image.clone();
                corrupted[byte] ^= 1 << bit;
                assert_eq!(
                    parse(&corrupted).unwrap_err(),
                    StoreError::ChecksumMismatch { record },
                    "byte={byte} bit={bit}"
                );
            }
        }
    }
}

#[test]
fn lost_own_tip_marker_never_resurrects_higher_seq() {
    // Marker writes after the crash budget are lost entirely; the
    // surviving marker must be one the workload actually issued, never a
    // torn hybrid — slot alternation plus the slot checksum guarantee it.
    let blocks = chain(3);
    // Size the budget so block 0 (and its marker) land, and the crash
    // tears block 1's record.
    let block0_len = {
        let mut probe = MemStore::in_memory();
        probe.append_block(&blocks[0]).unwrap();
        probe.media().journal().len()
    };
    let media = FaultyMedia::new(MemMedia::new()).crash_after(block0_len + 5);
    let mut store = JournalStore::open(media).expect("fresh open");
    for (index, block) in blocks.iter().enumerate() {
        store.append_block(block).unwrap();
        store.sync().unwrap();
        store.mark_own_tip(SeqNum::new(index as u64)).unwrap();
    }
    let mut restarted = JournalStore::open(store.into_media().into_surviving()).unwrap();
    let contents = restarted.contents().unwrap();
    assert_eq!(contents.blocks, vec![blocks[0].clone()]);
    assert_eq!(
        contents.own_tip,
        Some(SeqNum::ZERO),
        "pre-crash marker survives"
    );
}

#[test]
fn snapshot_record_shorter_than_its_coverage_prefix_is_typed() {
    // Size-complete and checksummed, so neither a torn tail nor a
    // checksum mismatch: the 8-byte coverage prefix itself is short.
    for payload_len in 0..8 {
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&encode_record(KIND_SNAPSHOT, &[0xAB; 8][..payload_len]));
        match parse(&image) {
            Err(StoreError::Decode { record: 0, .. }) => {}
            other => panic!("payload_len={payload_len}: {other:?}"),
        }
    }
}

#[test]
fn tip_sidecar_cut_inside_a_slot_falls_back_to_the_older_marker() {
    let blocks = chain(2);
    let mut store = MemStore::in_memory();
    for (index, block) in blocks.iter().enumerate() {
        store.append_block(block).unwrap();
        store.sync().unwrap();
        store.mark_own_tip(SeqNum::new(index as u64)).unwrap();
    }
    let media = store.into_media();
    let (journal, tip) = (media.journal().to_vec(), media.tip().to_vec());
    assert_eq!(tip.len(), 32, "two 16-byte slots: seq + checksum each");
    for cut in 0..=tip.len() {
        let mut damaged = MemMedia::from_journal(journal.clone());
        damaged.write_tip(0, &tip[..cut]).unwrap();
        let contents = JournalStore::open(damaged).unwrap().contents().unwrap();
        let expected = match cut {
            0..=15 => None,
            16..=31 => Some(SeqNum::ZERO),
            _ => Some(SeqNum::new(1)),
        };
        assert_eq!(contents.own_tip, expected, "cut={cut}");
        assert_eq!(contents.blocks, blocks, "cut={cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random chain length + random cut point: same clean-truncation
    /// invariant as the exhaustive matrix, over varied content.
    #[test]
    fn random_truncation_is_clean(len in 1u64..8, cut_seed in any::<usize>()) {
        let blocks = chain(len);
        let (image, boundaries) = reference_image(&blocks);
        let cut = cut_seed % (image.len() + 1);
        assert_clean_truncation(&image, cut, &boundaries, &blocks);
    }

    /// Random single-bit corruption: exact typed error, or clean
    /// truncation with a byte-identical surviving prefix.
    #[test]
    fn random_bit_flip_is_typed_or_clean(
        len in 1u64..8,
        byte_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let blocks = chain(len);
        let (image, boundaries) = reference_image(&blocks);
        let byte = byte_seed % image.len();
        let mut corrupted = image.clone();
        corrupted[byte] ^= 1 << bit;
        match parse(&corrupted) {
            Err(err) => {
                // Typed, renders, and open() agrees without panicking.
                prop_assert!(!err.to_string().is_empty());
                prop_assert!(JournalStore::open(MemMedia::from_journal(corrupted)).is_err());
            }
            Ok(parsed) => {
                prop_assert!(parsed.truncated_records <= 1);
                prop_assert!(boundaries.contains(&parsed.valid_len));
                prop_assert_eq!(&corrupted[..parsed.valid_len], &image[..parsed.valid_len]);
                prop_assert_eq!(&parsed.blocks, &blocks[..parsed.blocks.len()]);
            }
        }
    }
}
