//! Property tests at the gossip/DAG level:
//!
//! * delivery-order invariance — a gossip instance receiving the same
//!   block set in any permutation builds the same DAG (the fixed point of
//!   Algorithm 1's promotion loop, Lemma A.5);
//! * reference-once — correct servers reference each received block
//!   exactly once (Lemma A.6), regardless of arrival order;
//! * block wire fuzz — arbitrary bytes never panic the block decoder;
//! * tampered-wave rejection — a delivery wave containing one
//!   forged-signature block rejects exactly that block, promotes every
//!   honest block not depending on it, and leaves its dependents pending,
//!   identically under `Gossip` and the paper-literal `ReferenceGossip`;
//! * encode-once cache — a block's cached wire bytes are bit-identical to
//!   a fresh field-by-field encoding across build → encode → decode
//!   round-trips, `ref(B)` from the cached preimage equals the recomputed
//!   reference, and tampered bytes fail validation instead of being
//!   vouched for by the cache.

use dagbft_core::{
    AdmissionView, Block, Gossip, GossipConfig, Label, LabeledRequest, NetMessage, ReferenceGossip,
    SeqNum,
};
use dagbft_crypto::{KeyRegistry, ServerId, Signature};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Builds a set of valid blocks: `builders` servers × `rounds` rounds,
/// each block referencing the whole previous round.
fn block_soup(builders: usize, rounds: u64, with_requests: bool) -> Vec<Block> {
    let registry = KeyRegistry::generate(builders + 1, 17);
    let signers: Vec<_> = (1..=builders)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut blocks = Vec::new();
    let mut prev: Vec<_> = Vec::new();
    for round in 0..rounds {
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let requests = if with_requests && round == 0 {
                vec![LabeledRequest::encode(Label::new(index as u64), &round)]
            } else {
                vec![]
            };
            let block = Block::build(
                signer.id(),
                SeqNum::new(round),
                prev.clone(),
                requests,
                signer,
            );
            layer.push(block.block_ref());
            blocks.push(block);
        }
        prev = layer;
    }
    blocks
}

/// Feeds `blocks` to a fresh receiver (server 0) in the given order and
/// returns (dag block count, refs of the receiver's next block).
fn receive_in_order(blocks: &[Block], order: &[usize], builders: usize) -> (usize, Vec<String>) {
    let registry = KeyRegistry::generate(builders + 1, 17);
    let mut receiver = Gossip::new(
        ServerId::new(0),
        GossipConfig::for_n(builders + 1),
        registry.signer(ServerId::new(0)).unwrap(),
        registry.verifier(),
    );
    for index in order {
        receiver.on_block(blocks[*index].clone(), 0);
    }
    let received = receiver.dag().len(); // before the own block is added
    let (own, _) = receiver.disseminate(vec![], 1);
    let mut refs: Vec<String> = own.preds().iter().map(|r| r.to_string()).collect();
    refs.sort();
    (received, refs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gossip_is_delivery_order_invariant(
        builders in 2usize..4,
        rounds in 1u64..4,
        seed_a in 0u64..10_000,
        seed_b in 0u64..10_000,
    ) {
        let blocks = block_soup(builders, rounds, true);
        let mut order_a: Vec<usize> = (0..blocks.len()).collect();
        let mut order_b = order_a.clone();
        order_a.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed_a));
        order_b.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed_b));

        let (len_a, refs_a) = receive_in_order(&blocks, &order_a, builders);
        let (len_b, refs_b) = receive_in_order(&blocks, &order_b, builders);
        // Same DAG regardless of arrival order (Lemma A.5 fixed point)…
        prop_assert_eq!(len_a, blocks.len());
        prop_assert_eq!(len_a, len_b);
        // …and the own block references every received block exactly once
        // (Lemma A.6), as a set.
        prop_assert_eq!(refs_a.len(), blocks.len());
        prop_assert_eq!(refs_a, refs_b);
    }

    /// Forges one block's signature inside a full delivery wave and checks
    /// that exactly the tampered block is rejected, its round-mates promote,
    /// and its dependents stay pending — with commands, promotion order,
    /// stats and verification count equal to the paper-literal oracle's.
    #[test]
    fn tampered_block_in_wave_rejected_exactly(
        builders in 2usize..5,
        rounds in 2u64..5,
        tamper in 0usize..16,
        seed in 0u64..10_000,
    ) {
        let mut blocks = block_soup(builders, rounds, true);
        let tamper = tamper % blocks.len();
        // Forge the signature of one block. `ref(B)` excludes `σ`
        // (Definition 3.1), so the twin keeps the reference its
        // dependents committed to — the wave sees a correctly shaped,
        // badly signed block.
        let victim = &blocks[tamper];
        let forged = Block::build_with_signature(
            victim.builder(),
            victim.seq(),
            victim.preds().to_vec(),
            victim.requests().to_vec(),
            Signature::NULL,
        );
        prop_assert_eq!(forged.block_ref(), victim.block_ref());
        let forged_ref = forged.block_ref();
        blocks[tamper] = forged;

        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));

        // Expectations from the soup's shape (each block references the
        // whole previous round): rounds before the victim's promote in
        // full, the victim's round-mates promote, every later round
        // depends on the victim and must stay pending.
        let tamper_round = tamper / builders;
        let expected_promoted = tamper_round * builders + (builders - 1);
        let expected_pending = (rounds as usize - tamper_round - 1) * builders;

        let registry = KeyRegistry::generate(builders + 1, 17);
        let mut receiver = Gossip::new(
            ServerId::new(0),
            GossipConfig::for_n(builders + 1),
            registry.signer(ServerId::new(0)).unwrap(),
            registry.verifier(),
        );
        // Same seed, same keys; its own verification counter.
        let oracle_registry = KeyRegistry::generate(builders + 1, 17);
        let mut oracle =
            ReferenceGossip::new(GossipConfig::for_n(builders + 1), oracle_registry.verifier());
        for index in &order {
            prop_assert_eq!(
                receiver.on_block(blocks[*index].clone(), 0),
                oracle.on_blocks([blocks[*index].clone()], 0)
            );
        }
        prop_assert_eq!(receiver.dag().len(), expected_promoted);
        prop_assert_eq!(receiver.pending_len(), expected_pending);
        prop_assert_eq!(receiver.rejected().len(), 1);
        let (rejected_ref, reason) = &receiver.rejected()[0];
        prop_assert_eq!(*rejected_ref, forged_ref);
        prop_assert!(
            matches!(reason, dagbft_core::InvalidBlockError::BadSignature { .. }),
            "wrong rejection reason {reason:?}"
        );
        prop_assert!(!receiver.dag().contains(&forged_ref));
        prop_assert_eq!(receiver.stats().invalid_blocks, 1);
        prop_assert_eq!(AdmissionView::of(&receiver), oracle.view());
        prop_assert_eq!(
            registry.metrics().verifies(),
            oracle_registry.metrics().verifies()
        );
    }

    #[test]
    fn duplicate_deliveries_change_nothing(
        builders in 2usize..4,
        rounds in 1u64..4,
        dup_factor in 2usize..4,
        seed in 0u64..10_000,
    ) {
        let blocks = block_soup(builders, rounds, false);
        let mut order: Vec<usize> = (0..blocks.len())
            .flat_map(|i| std::iter::repeat_n(i, dup_factor))
            .collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let (len, refs) = receive_in_order(&blocks, &order, builders);
        prop_assert_eq!(len, blocks.len());
        // Each block referenced once despite duplicate deliveries.
        prop_assert_eq!(refs.len(), blocks.len());
    }

    #[test]
    fn block_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = dagbft_codec::decode_from_slice::<Block>(&bytes);
        let _ = dagbft_codec::decode_from_slice::<NetMessage>(&bytes);
    }

    #[test]
    fn block_wire_roundtrip(
        builder in 0u32..4,
        seq in 0u64..100,
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..5),
    ) {
        let registry = KeyRegistry::generate(4, 3);
        let signer = registry.signer(ServerId::new(builder)).unwrap();
        let requests: Vec<LabeledRequest> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| LabeledRequest {
                label: Label::new(i as u64),
                payload: bytes::Bytes::from(payload),
            })
            .collect();
        let block = Block::build(ServerId::new(builder), SeqNum::new(seq), vec![], requests, &signer);
        let bytes = dagbft_codec::encode_to_vec(&block);
        let decoded: Block = dagbft_codec::decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(decoded.block_ref(), block.block_ref());
        prop_assert_eq!(decoded, block);
    }

    #[test]
    fn cached_wire_bytes_bit_identical_across_roundtrips(
        builder in 0u32..4,
        seq in 0u64..100,
        with_pred in any::<bool>(),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..5),
    ) {
        let registry = KeyRegistry::generate(4, 3);
        let signer = registry.signer(ServerId::new(builder)).unwrap();
        let preds = if with_pred {
            let parent = Block::build(ServerId::new(builder), SeqNum::ZERO, vec![], vec![], &signer);
            vec![parent.block_ref()]
        } else {
            vec![]
        };
        let requests: Vec<LabeledRequest> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| LabeledRequest {
                label: Label::new(i as u64),
                payload: bytes::Bytes::from(payload),
            })
            .collect();
        let block = Block::build(ServerId::new(builder), SeqNum::new(seq), preds, requests, &signer);

        // The cache equals a fresh encoding at every stage of the
        // build → encode → decode → re-encode pipeline.
        let fresh = dagbft_codec::encode_to_vec(&block);
        prop_assert_eq!(block.wire_bytes().as_ref(), fresh.as_slice());

        let decoded: Block = dagbft_codec::decode_from_slice(&fresh).unwrap();
        prop_assert_eq!(decoded.wire_bytes().as_ref(), fresh.as_slice());
        prop_assert_eq!(dagbft_codec::encode_to_vec(&decoded), fresh.clone());

        // The zero-copy path produces the same cache, as a slice of the
        // receive buffer.
        let buffer = bytes::Bytes::from(fresh.clone());
        let sliced: Block = dagbft_codec::decode_from_bytes(&buffer).unwrap();
        prop_assert_eq!(sliced.wire_bytes().as_ref(), fresh.as_slice());
        prop_assert!(sliced.wire_bytes().shares_allocation_with(&buffer));

        // ref(B) from the cached preimage equals the reference recomputed
        // from a fresh field-by-field encoding of the decoded block.
        let recomputed = Block::build_with_signature(
            decoded.builder(),
            decoded.seq(),
            decoded.preds().to_vec(),
            decoded.requests().to_vec(),
            *decoded.signature(),
        );
        prop_assert_eq!(recomputed.block_ref(), block.block_ref());
        prop_assert_eq!(
            dagbft_crypto::sha256(decoded.signing_preimage()),
            block.block_ref().digest()
        );
    }

    #[test]
    fn tampered_wire_bytes_fail_validation(
        builder in 0u32..4,
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..4),
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let registry = KeyRegistry::generate(4, 3);
        let signer = registry.signer(ServerId::new(builder)).unwrap();
        let requests: Vec<LabeledRequest> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| LabeledRequest {
                label: Label::new(i as u64),
                payload: bytes::Bytes::from(payload),
            })
            .collect();
        let block = Block::build(ServerId::new(builder), SeqNum::ZERO, vec![], requests, &signer);
        let mut tampered = dagbft_codec::encode_to_vec(&block);
        let index = flip_at % tampered.len();
        tampered[index] ^= 1 << flip_bit;

        // A tampered byte either breaks decoding outright, or yields a
        // block whose cached reference no longer matches the signature —
        // the cache is derived from the actual bytes, never trusted.
        let buffer = bytes::Bytes::from(tampered.clone());
        if let Ok(decoded) = dagbft_codec::decode_from_bytes::<Block>(&buffer) {
            prop_assert_eq!(decoded.wire_bytes().as_ref(), tampered.as_slice());
            prop_assert!(
                decoded.block_ref() != block.block_ref()
                    || !decoded.verify_signature(&registry.verifier()),
                "tampered block must not keep the original ref AND verify"
            );
        }
    }
}
