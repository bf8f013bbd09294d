//! The journal format changed once, from `DAGBFTJ1` (record checksum
//! `sha256(kind ‖ len ‖ payload)[..8]`) to `DAGBFTJ2` (XXH64). There is
//! no J1 reader and no in-place migration, so an old store must fail
//! closed:
//!
//! * a J1 journal opens to [`StoreError::BadMagic`] — never a panic, and
//!   never a misread of its records under the new checksum;
//! * the own-tip sidecar did not change, so once the refused journal is
//!   cleared, the old `tip.bin` still stops a restart from re-sealing its
//!   own chain from sequence number 0 (§7).
//!
//! The fixture below writes J1 bytes the way the old format defined them,
//! independently of the current encoder.

use std::fs;

use dagbft_core::{
    Block, Label, LabeledRequest, ProtocolConfig, RecoverError, SeqNum, Shim, ShimConfig,
    StoreError,
};
use dagbft_crypto::{sha256, KeyRegistry, ServerId};
use dagbft_protocols::Brb;
use dagbft_store::{parse, FileStore, JournalStore, MemMedia, KIND_BLOCK, KIND_REQUEST, MAGIC};

/// One J1 record: `len:u32le ‖ kind ‖ payload ‖ sha256(kind ‖ len ‖
/// payload)[..8]`, from one copied preimage.
fn j1_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = (payload.len() as u32).to_le_bytes();
    let mut preimage = vec![kind];
    preimage.extend_from_slice(&len);
    preimage.extend_from_slice(payload);
    let mut record = len.to_vec();
    record.push(kind);
    record.extend_from_slice(payload);
    record.extend_from_slice(&sha256(&preimage).as_bytes()[..8]);
    record
}

/// The J1 journal of a server that admitted `blocks`, journaling each
/// block's requests before it.
fn j1_image(blocks: &[Block]) -> Vec<u8> {
    let mut image = b"DAGBFTJ1".to_vec();
    for block in blocks {
        for request in block.requests() {
            let payload = dagbft_codec::encode_to_vec(&request);
            image.extend_from_slice(&j1_record(KIND_REQUEST, &payload));
        }
        let mut payload = block.block_ref().as_bytes().to_vec();
        payload.extend_from_slice(block.wire_bytes());
        image.extend_from_slice(&j1_record(KIND_BLOCK, &payload));
    }
    image
}

/// A J1-era `tip.bin` holding `seq` in slot 0: `seq:u64le ‖
/// sha256("DAGBFTT1" ‖ seq)[..8]`, slot 1 never written.
fn j1_tip(seq: u64) -> Vec<u8> {
    let mut preimage = b"DAGBFTT1".to_vec();
    preimage.extend_from_slice(&seq.to_le_bytes());
    let mut tip = seq.to_le_bytes().to_vec();
    tip.extend_from_slice(&sha256(&preimage).as_bytes()[..8]);
    tip.resize(32, 0);
    tip
}

/// Server 0's own chain of `len` blocks, each carrying one request.
fn own_chain(registry: &KeyRegistry, len: u64) -> Vec<Block> {
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

#[test]
fn a_j1_journal_is_refused_with_bad_magic() {
    let image = j1_image(&own_chain(&KeyRegistry::generate(1, 77), 3));
    assert_ne!(image[..8], MAGIC);

    // Every cut that still holds the whole J1 magic is refused, by the
    // parser and by the store; shorter cuts are a torn magic, which is a
    // prefix of either format and reads as an empty journal.
    for cut in 0..=image.len() {
        let prefix = image[..cut].to_vec();
        if cut >= 8 {
            assert_eq!(
                parse(&prefix).unwrap_err(),
                StoreError::BadMagic,
                "cut={cut}"
            );
            assert_eq!(
                JournalStore::open(MemMedia::from_journal(prefix)).unwrap_err(),
                StoreError::BadMagic,
                "cut={cut}"
            );
        } else {
            let parsed = parse(&prefix).unwrap();
            assert!(parsed.blocks.is_empty(), "cut={cut}");
            assert_eq!(parsed.valid_len, 0, "cut={cut}");
        }
    }

    // Were the magic rewritten, a J1 record still fails the new checksum:
    // the old bytes are never read as valid J2 records.
    let mut relabeled = MAGIC.to_vec();
    relabeled.extend_from_slice(&image[8..]);
    assert_eq!(
        parse(&relabeled).unwrap_err(),
        StoreError::ChecksumMismatch { record: 0 }
    );
}

#[test]
fn the_j1_tip_sidecar_still_guards_the_own_chain_after_the_upgrade() {
    let registry = KeyRegistry::generate(4, 77);
    let chain = own_chain(&registry, 3);
    let marker = SeqNum::new(2);
    let dir = std::env::temp_dir().join(format!("dagbft-j1-upgrade-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("journal.log"), j1_image(&chain)).unwrap();
    fs::write(dir.join("tip.bin"), j1_tip(marker.value())).unwrap();

    // The new build refuses the old journal outright.
    assert_eq!(FileStore::open_dir(&dir).unwrap_err(), StoreError::BadMagic);

    // Clearing the journal is no way around §7: the sidecar reads as
    // before, and recovery refuses to seal from sequence number 0 again.
    fs::write(dir.join("journal.log"), []).unwrap();
    let config = ShimConfig::new(ProtocolConfig::for_n(4));
    let store = FileStore::open_dir(&dir).unwrap();
    let err =
        Shim::<Brb<u64>>::recover_from_store(ServerId::new(0), config, &registry, Box::new(store))
            .expect_err("an empty journal below a durable own tip must be refused");
    assert_eq!(
        err,
        RecoverError::OwnChainTruncated {
            journal: None,
            marker
        }
    );
    let _ = fs::remove_dir_all(&dir);
}
