//! Property tests for multi-message ingest and the pending-buffer cap:
//!
//! * **any partition ≡ per-message** — delivering a hostile schedule
//!   (shuffled honest rounds, an equivocation, a permanently invalid
//!   block with stranded descendants, one tampered signature per call)
//!   through `on_block_burst` calls cut at arbitrary points admits the
//!   *byte-identical DAG*, rejects the same set and verifies the same
//!   number of signatures as one-at-a-time `on_block`;
//! * **engine ≡ oracle** — on both roads `Gossip` equals the
//!   paper-literal `ReferenceGossip` on every observable of Algorithm 1:
//!   commands per call, promotion order, rejections, pending, stats and
//!   verification count;
//! * **reverse chain** — one builder's deep chain delivered newest
//!   first, the schedule that buffers every block until the last call
//!   and then promotes them all in one cascade, equals the oracle too;
//! * **singleton bursts ≡ per-message** — `on_block_from` and
//!   `on_block_burst` of one block are byte-identical, the next own
//!   block included;
//! * **flood stays capped** — a byzantine flood of never-promotable
//!   blocks is held at the configured pending cap by stranded-first
//!   eviction, with no change to the admitted-set bytes and an
//!   accountability event per eviction.

use std::collections::BTreeSet;

use dagbft_core::{
    AdmissionView, Block, BlockRef, Gossip, GossipConfig, Label, LabeledRequest, NetCommand,
    ReferenceGossip, SeqNum,
};
use dagbft_crypto::{sha256, Digest, KeyRegistry, ServerId, Signature};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Seed of every registry in this file: same seed, same keys, so blocks
/// built under one verify under another — while each registry counts its
/// own verifications.
const KEYS: u64 = 17;

fn receiver(registry: &KeyRegistry, n: usize, cap: usize) -> Gossip {
    Gossip::new(
        ServerId::new(0),
        GossipConfig::for_n(n).with_pending_cap(cap),
        registry.signer(ServerId::new(0)).unwrap(),
        registry.verifier(),
    )
}

/// Delivers `calls` to a fresh `Gossip` — a one-block call through
/// `on_block`, a longer one through `on_block_burst` — and to a fresh
/// `ReferenceGossip`, asserting identical commands per call, identical
/// [`AdmissionView`]s and identical verification counts. Returns the
/// engine and the number of signatures it verified.
fn run_against_oracle(calls: &[&[Block]], n: usize) -> (Gossip, u64) {
    let engine_keys = KeyRegistry::generate(n, KEYS);
    let oracle_keys = KeyRegistry::generate(n, KEYS);
    let mut engine = receiver(&engine_keys, n, usize::MAX);
    let mut oracle = ReferenceGossip::new(n, oracle_keys.verifier());
    for (t, call) in calls.iter().enumerate() {
        let commands = match call {
            [block] => engine.on_block(block.clone(), t as u64),
            _ => engine.on_block_burst(call.iter().cloned(), t as u64),
        };
        let expected = oracle.on_blocks(call.iter().cloned(), t as u64);
        assert_eq!(commands, expected, "commands of call {t}");
    }
    assert_eq!(AdmissionView::of(&engine), oracle.view());
    let verified = engine_keys.metrics().verifies();
    assert_eq!(verified, oracle_keys.metrics().verifies());
    (engine, verified)
}

/// A hostile soup: `builders` honest chained rounds, an equivocating
/// `k = 0` pair for the last builder, a permanently invalid two-parent
/// child, and a stranded grandchild.
fn hostile_soup(builders: usize, rounds: u64, registry: &KeyRegistry) -> Vec<Block> {
    let signers: Vec<_> = (1..=builders)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut blocks = Vec::new();
    let mut prev: Vec<BlockRef> = Vec::new();
    for round in 0..rounds {
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let block = Block::build(
                signer.id(),
                SeqNum::new(round),
                prev.clone(),
                vec![LabeledRequest::encode(
                    Label::new(index as u64),
                    &(round * 10),
                )],
                signer,
            );
            layer.push(block.block_ref());
            blocks.push(block);
        }
        prev = layer;
    }
    let signer = &signers[builders - 1];
    let equivocation = Block::build(
        signer.id(),
        SeqNum::ZERO,
        vec![],
        vec![LabeledRequest::encode(Label::new(99), &7u8)],
        signer,
    );
    let two_parents = Block::build(
        signer.id(),
        SeqNum::new(1),
        vec![blocks[builders - 1].block_ref(), equivocation.block_ref()],
        vec![],
        signer,
    );
    let grandchild = Block::build(
        signer.id(),
        SeqNum::new(2),
        vec![two_parents.block_ref()],
        vec![],
        signer,
    );
    blocks.push(equivocation);
    blocks.push(two_parents);
    blocks.push(grandchild);
    blocks
}

/// Hash of the admitted DAG as a *set*: sorted refs plus each block's
/// canonical wire bytes — the burst-vs-incremental comparison unit (the
/// promotion fixed point is confluent, so the set must match even where
/// reference order may not).
fn dag_set_digest(gossip: &Gossip) -> Digest {
    let refs: BTreeSet<BlockRef> = gossip.dag().refs().copied().collect();
    let mut transcript = Vec::new();
    for block_ref in refs {
        let block = gossip.dag().get(&block_ref).expect("ref resolves");
        transcript.extend_from_slice(block_ref.as_bytes());
        transcript.extend_from_slice(block.wire_bytes());
    }
    sha256(&transcript)
}

/// One builder's chain delivered newest first, one block per call: every
/// block waits in the pending index until the genesis block arrives, and
/// that one call promotes the whole chain in the oracle's order.
#[test]
fn reverse_ordered_chain_promotes_in_the_oracles_order() {
    const DEPTH: u64 = 512;
    let registry = KeyRegistry::generate(2, KEYS);
    let signer = registry.signer(ServerId::new(1)).unwrap();
    let mut prev: Vec<BlockRef> = Vec::new();
    let mut chain: Vec<Block> = (0..DEPTH)
        .map(|k| {
            let block = Block::build(
                signer.id(),
                SeqNum::new(k),
                std::mem::take(&mut prev),
                vec![],
                &signer,
            );
            prev = vec![block.block_ref()];
            block
        })
        .collect();
    chain.reverse();
    let singles: Vec<&[Block]> = chain.chunks(1).collect();
    let (engine, verified) = run_against_oracle(&singles, 2);
    assert_eq!(engine.dag().len() as u64, DEPTH);
    assert_eq!(engine.pending_len(), 0);
    assert_eq!(verified, DEPTH);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// *Any* partition of a hostile schedule into calls (one tampered
    /// signature per call) admits the byte-identical DAG, rejects the
    /// same set and verifies as many signatures as one-at-a-time ingest —
    /// and on both roads the engine equals the oracle.
    #[test]
    fn burst_and_per_message_admit_identical_dags(
        builders in 2usize..5,
        rounds in 2u64..6,
        // Chance, in percent, that a call ends after any given block:
        // from one call for the whole schedule to mostly singletons.
        cut_pct in 0u32..80,
        seed in 0u64..10_000,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let registry = KeyRegistry::generate(builders + 1, KEYS);
        let mut schedule = hostile_soup(builders, rounds, &registry);
        schedule.shuffle(&mut rng);
        let mut cuts = vec![0];
        cuts.extend((1..schedule.len()).filter(|_| rng.gen_range(0u32..100) < cut_pct));
        cuts.push(schedule.len());
        // One tampered signature per call: same shape, forged σ. The
        // twin keeps the ref its dependents committed to, so dependents
        // strand exactly as under per-message ingest.
        for start in &cuts[..cuts.len() - 1] {
            let victim = &schedule[*start];
            schedule[*start] = Block::build_with_signature(
                victim.builder(),
                victim.seq(),
                victim.preds().to_vec(),
                victim.requests().to_vec(),
                Signature::NULL,
            );
        }
        let singles: Vec<&[Block]> = schedule.chunks(1).collect();
        let calls: Vec<&[Block]> = cuts.windows(2).map(|w| &schedule[w[0]..w[1]]).collect();
        let (one_at_a_time, verified_singly) = run_against_oracle(&singles, builders + 1);
        let (bursty, verified_in_calls) = run_against_oracle(&calls, builders + 1);

        prop_assert_eq!(dag_set_digest(&one_at_a_time), dag_set_digest(&bursty));
        let rejected = |g: &Gossip| {
            g.rejected()
                .iter()
                .map(|(r, e)| (*r, format!("{e:?}")))
                .collect::<BTreeSet<_>>()
        };
        prop_assert_eq!(rejected(&one_at_a_time), rejected(&bursty));
        prop_assert_eq!(verified_singly, verified_in_calls);
        prop_assert_eq!(
            one_at_a_time.stats().blocks_validated,
            bursty.stats().blocks_validated
        );
        prop_assert_eq!(
            one_at_a_time.stats().invalid_blocks,
            bursty.stats().invalid_blocks
        );
        prop_assert_eq!(one_at_a_time.pending_len(), bursty.pending_len());
    }

    /// The benchmark's `Admitter` delivers singleton `on_block_burst`s,
    /// the simulator `on_block_from`: the two roads are byte-identical —
    /// commands per call, every admission observable, evictions under a
    /// tight cap, and the next sealed own block.
    #[test]
    fn singleton_bursts_are_per_message_ingest(
        builders in 2usize..5,
        rounds in 2u64..6,
        cap in 2usize..40,
        seed in 0u64..10_000,
    ) {
        let registry = KeyRegistry::generate(builders + 1, KEYS);
        let mut schedule = hostile_soup(builders, rounds, &registry);
        schedule.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut per_message = receiver(&registry, builders + 1, cap);
        let mut singletons = receiver(&registry, builders + 1, cap);
        for (t, block) in schedule.iter().enumerate() {
            let one: Vec<NetCommand> =
                per_message.on_block_from(block.builder(), block.clone(), t as u64);
            let other = singletons.on_block_burst([block.clone()], t as u64);
            prop_assert_eq!(one, other, "commands of delivery {}", t);
        }
        prop_assert_eq!(AdmissionView::of(&per_message), AdmissionView::of(&singletons));
        prop_assert_eq!(per_message.stats(), singletons.stats());
        prop_assert_eq!(per_message.evictions(), singletons.evictions());
        let (own, _) = per_message.disseminate(vec![], 1_000_000);
        let (other, _) = singletons.disseminate(vec![], 1_000_000);
        prop_assert_eq!(own.wire_bytes(), other.wire_bytes());
    }

    /// A byzantine flood of never-promotable blocks stays within the
    /// pending cap — honest admission unchanged byte-for-byte, one
    /// accountability event per eviction. Honest traffic and the flood
    /// arrive in causal order (the cap bounds *memory*; out-of-order
    /// honest gaps are the FWD path's job, pinned by the gossip unit
    /// tests).
    #[test]
    fn byzantine_flood_stays_within_cap(
        cap in 4usize..12,
        flood in 16usize..48,
        chain_flood in any::<bool>(),
        rounds in 2u64..6,
    ) {
        let registry = KeyRegistry::generate(3, 23);
        let honest = hostile_soup(2, rounds, &registry);
        // The flood hangs off the permanently invalid two-parent block
        // (third from the end of the soup): either a deep chain or a wide
        // fan of direct children — both never-promotable.
        let flooder = registry.signer(ServerId::new(2)).unwrap();
        let rejected_root = honest[honest.len() - 2].block_ref();
        let mut flood_blocks = Vec::new();
        let mut parent = rejected_root;
        for k in 0..flood as u64 {
            let block = Block::build(
                ServerId::new(2),
                SeqNum::new(10 + k),
                vec![if chain_flood { parent } else { rejected_root }],
                vec![LabeledRequest::encode(Label::new(777), &k)],
                &flooder,
            );
            parent = block.block_ref();
            flood_blocks.push(block);
        }
        let mut baseline = receiver(&registry, 3, usize::MAX);
        for (t, block) in honest.iter().enumerate() {
            baseline.on_block(block.clone(), t as u64);
        }
        let baseline_digest = dag_set_digest(&baseline);

        let mut capped = receiver(&registry, 3, cap);
        for (t, block) in honest.iter().enumerate() {
            capped.on_block(block.clone(), t as u64);
            prop_assert!(capped.pending_len() <= cap, "honest phase");
        }
        for (t, block) in flood_blocks.iter().enumerate() {
            capped.on_block(block.clone(), 1_000 + t as u64);
            prop_assert!(capped.pending_len() <= cap, "flood phase");
        }
        // The flood changed nothing about what was admitted.
        prop_assert_eq!(baseline_digest, dag_set_digest(&capped));
        // Every eviction is logged, and evictions only ever hit the
        // flooder's stranded blocks (the honest soup's own stranded
        // grandchild is older than every flood block, so it may be
        // evicted too — but it belongs to the equivocator, builder 2).
        prop_assert_eq!(
            capped.stats().blocks_evicted as usize,
            capped.evictions().len()
        );
        for event in capped.evictions() {
            prop_assert!(
                event.stranded_on.is_some(),
                "only never-promotable blocks evicted under flood"
            );
        }
    }
}
