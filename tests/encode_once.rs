//! Encode-once dissemination: a block is canonically encoded exactly
//! once — at build — however many peers it is framed for.
//!
//! A count, not a timing. `Block::canonical_encodes()` is process-global,
//! so this file is its own test binary with a single `#[test]`: nothing
//! else builds blocks in this process and the delta is exact (the unit
//! test in `block.rs` shares its process and can only assert slack).

use dagbft::prelude::*;
use dagbft::transport::frame::write_net_message;

#[test]
fn broadcast_costs_one_canonical_encode_per_block() {
    const BLOCKS: u64 = 64;
    let registry = KeyRegistry::generate(1, 7);
    let signer = registry.signer(ServerId::new(0)).unwrap();
    for fan_out in [3usize, 7, 15] {
        let before = Block::canonical_encodes();
        let mut prev: Vec<BlockRef> = Vec::new();
        let mut frame = Vec::new();
        let mut framed_bytes = 0;
        for k in 0..BLOCKS {
            let block = Block::build(
                ServerId::new(0),
                SeqNum::new(k),
                std::mem::take(&mut prev),
                vec![LabeledRequest::encode(Label::new(k), &k)],
                &signer,
            );
            prev = vec![block.block_ref()];
            // The send path: one `NetMessage` per block, cloned per peer
            // (a reference-count bump) and framed by the transport's
            // frame writer off the cached wire image.
            let message = NetMessage::Block(block);
            for _ in 0..fan_out {
                frame.clear();
                write_net_message(&mut frame, &message.clone()).expect("writing to a Vec");
                framed_bytes += frame.len();
            }
        }
        assert!(framed_bytes > 0);
        assert_eq!(
            Block::canonical_encodes() - before,
            BLOCKS,
            "fan-out {fan_out}: framing must serve the cached wire image"
        );
    }
}
