//! Executable reproductions of the paper's figures (experiments E1–E3).
//!
//! * Figure 2 — a block DAG with three blocks.
//! * Figure 3 — the same DAG plus an equivocating block.
//! * Figure 4 — the `Ms[in/out, ℓ1]` buffers of BRB `broadcast(42)`.

use std::collections::BTreeSet;

use dagbft::prelude::*;

fn signers(n: usize, seed: u64) -> (KeyRegistry, Vec<dagbft::crypto::Signer>) {
    let registry = KeyRegistry::generate(n, seed);
    let signers = (0..n)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    (registry, signers)
}

/// Figure 2: `B1 = ⟨s1, k0⟩`, `B2 = ⟨s2, k0⟩`,
/// `B3 = ⟨s1, k1, preds = [B1, B2]⟩`.
fn figure_2() -> (BlockDag, Block, Block, Block) {
    let (_, signers) = signers(2, 1);
    let b1 = Block::build(ServerId::new(0), SeqNum::ZERO, vec![], vec![], &signers[0]);
    let b2 = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &signers[1]);
    let b3 = Block::build(
        ServerId::new(0),
        SeqNum::new(1),
        vec![b1.block_ref(), b2.block_ref()],
        vec![],
        &signers[0],
    );
    let mut dag = BlockDag::new();
    dag.insert(b1.clone()).unwrap();
    dag.insert(b2.clone()).unwrap();
    dag.insert(b3.clone()).unwrap();
    (dag, b1, b2, b3)
}

#[test]
fn fig2_structure_matches_paper() {
    let (dag, b1, b2, b3) = figure_2();
    assert_eq!(dag.len(), 3);
    // parent(B3) = B1 (same builder, k−1).
    assert_eq!(
        b3.parent_via(|r| dag.meta(r)).unwrap(),
        Some(b1.block_ref())
    );
    // Happened-before: B1 ⇀ B3 and B2 ⇀ B3, but B1 and B2 are concurrent.
    assert!(dag.reaches(&b1.block_ref(), &b3.block_ref()));
    assert!(dag.reaches(&b2.block_ref(), &b3.block_ref()));
    assert!(!dag.reaches(&b1.block_ref(), &b2.block_ref()));
    assert!(!dag.reaches(&b2.block_ref(), &b1.block_ref()));
    assert!(dag.check_invariants());
}

#[test]
fn fig3_equivocation_two_valid_conflicting_blocks() {
    let (mut dag, b1, b2, b3) = figure_2();
    let (registry, signers) = signers(2, 1);
    // B4: same builder and sequence number as B3, different content.
    let b4 = Block::build(
        ServerId::new(0),
        SeqNum::new(1),
        vec![b1.block_ref(), b2.block_ref()],
        vec![LabeledRequest::encode(Label::new(1), &1u8)],
        &signers[0],
    );
    assert_ne!(b3.block_ref(), b4.block_ref());
    // Both carry valid signatures: equivocation is *valid* (Example 3.5).
    assert!(b3.verify_signature(&registry.verifier()));
    assert!(b4.verify_signature(&registry.verifier()));
    dag.insert(b4.clone()).unwrap();

    let equivocations = dag.equivocations(ServerId::new(0));
    assert_eq!(equivocations.len(), 1);
    let (seq, blocks) = &equivocations[0];
    assert_eq!(*seq, SeqNum::new(1));
    let expected: BTreeSet<BlockRef> = [b3.block_ref(), b4.block_ref()].into_iter().collect();
    let actual: BTreeSet<BlockRef> = blocks.iter().copied().collect();
    assert_eq!(actual, expected);
}

#[test]
fn fig3_successors_of_equivocating_blocks_stay_split() {
    // Definition 3.3 (ii): s1 cannot later "join" the two branches — a
    // block referencing both B3 and B4 has two distinct parents and is
    // invalid.
    let (mut dag, b1, b2, b3) = figure_2();
    let (_, signers) = signers(2, 1);
    let b4 = Block::build(
        ServerId::new(0),
        SeqNum::new(1),
        vec![b1.block_ref(), b2.block_ref()],
        vec![LabeledRequest::encode(Label::new(1), &1u8)],
        &signers[0],
    );
    dag.insert(b4.clone()).unwrap();
    let joiner = Block::build(
        ServerId::new(0),
        SeqNum::new(2),
        vec![b3.block_ref(), b4.block_ref()],
        vec![],
        &signers[0],
    );
    let result = joiner.parent_via(|r| dag.meta(r));
    assert!(
        matches!(
            result,
            Err(dagbft::dag::InvalidBlockError::MultipleParents { .. })
        ),
        "joining split chains must be invalid"
    );
}

/// Builds the Figure 4 scenario: 4 servers, fully-connected rounds,
/// `(ℓ1, broadcast(42))` in server 0's genesis block. Returns the DAG and
/// the blocks by `[round][server]`.
fn figure_4(rounds: u64) -> (BlockDag, Vec<Vec<Block>>) {
    let n = 4;
    let (_, signers) = signers(n, 4);
    let mut dag = BlockDag::new();
    let mut layers: Vec<Vec<Block>> = Vec::new();
    for round in 0..rounds {
        let preds: Vec<BlockRef> = layers
            .last()
            .map(|layer| layer.iter().map(Block::block_ref).collect())
            .unwrap_or_default();
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let requests = if round == 0 && index == 0 {
                vec![LabeledRequest::encode(
                    Label::new(1),
                    &BrbRequest::Broadcast(42u64),
                )]
            } else {
                vec![]
            };
            let block = Block::build(
                ServerId::new(index as u32),
                SeqNum::new(round),
                preds.clone(),
                requests,
                signer,
            );
            dag.insert(block.clone()).unwrap();
            layer.push(block);
        }
        layers.push(layer);
    }
    (dag, layers)
}

fn in_senders(
    interpreter: &Interpreter<Brb<u64>>,
    dag: &BlockDag,
    block: &Block,
    expect_echo: bool,
) -> BTreeSet<usize> {
    interpreter
        .in_messages(dag, &block.block_ref(), Label::new(1))
        .filter(|e| matches!(e.message, BrbMessage::Echo(_)) == expect_echo)
        .map(|e| e.sender.index())
        .collect()
}

fn out_kinds(interpreter: &Interpreter<Brb<u64>>, block: &Block) -> (usize, usize) {
    let state = interpreter.state(&block.block_ref()).unwrap();
    let echoes = state
        .out_messages(Label::new(1))
        .filter(|e| matches!(e.message, BrbMessage::Echo(_)))
        .count();
    let readies = state
        .out_messages(Label::new(1))
        .filter(|e| matches!(e.message, BrbMessage::Ready(_)))
        .count();
    (echoes, readies)
}

#[test]
fn fig4_buffers_round_by_round() {
    let (dag, layers) = figure_4(4);
    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(ProtocolConfig::for_n(4));
    interpreter.step(&dag);

    // A server's own ECHO or READY is delivered to it at the block that
    // sends it, so it sits in that block's in-buffer, and no edge carries
    // it again.

    // Round 0: B1 (s0) has out = ECHO 42 to {s0..s3}; in = its own ECHO.
    // Others: ∅/∅.
    let b1 = &layers[0][0];
    assert_eq!(out_kinds(&interpreter, b1), (4, 0));
    assert_eq!(
        in_senders(&interpreter, &dag, b1, true),
        [0].into_iter().collect()
    );
    for block in &layers[0][1..] {
        assert_eq!(out_kinds(&interpreter, block), (0, 0));
        assert!(in_senders(&interpreter, &dag, block, true).is_empty());
    }

    // Round 1: the amplifiers (s1–s3) have in = ECHO 42 from {s0} and
    // their own, and out = ECHO 42 to all (the figure's "ECHO 42 from
    // {s1}" wave); s0 already echoed and heard its own echo, so it has
    // in = out = ∅.
    for (index, block) in layers[1].iter().enumerate() {
        let (expected_in, expected_out) = if index == 0 {
            (BTreeSet::new(), (0, 0))
        } else {
            ([0, index].into_iter().collect(), (4, 0))
        };
        assert_eq!(
            in_senders(&interpreter, &dag, block, true),
            expected_in,
            "round 1 in-buffer of s{index}"
        );
        assert_eq!(out_kinds(&interpreter, block), expected_out, "s{index}");
    }

    // Round 2: in = ECHO 42 from the amplifiers other than itself — with
    // the echoes it already heard, the 2f+1 quorum — so out = READY 42 to
    // all (the figure's READY wave), and in = its own READY.
    for (index, block) in layers[2].iter().enumerate() {
        let amplifiers: BTreeSet<usize> = [1, 2, 3].into_iter().filter(|&s| s != index).collect();
        assert_eq!(
            in_senders(&interpreter, &dag, block, true),
            amplifiers,
            "round 2 in-buffer of s{index}"
        );
        assert_eq!(
            in_senders(&interpreter, &dag, block, false),
            [index].into_iter().collect(),
            "round 2 own READY of s{index}"
        );
        assert_eq!(out_kinds(&interpreter, block), (0, 4), "s{index}");
    }

    // Round 3: in = READY 42 from everyone else, which with its own makes
    // 2f+1 READYs ⇒ deliver(42) at every simulated server.
    for (index, block) in layers[3].iter().enumerate() {
        assert_eq!(
            in_senders(&interpreter, &dag, block, false),
            (0..4).filter(|&s| s != index).collect(),
            "round 3 in-buffer of s{index}"
        );
        assert!(in_senders(&interpreter, &dag, block, true).is_empty());
    }
    let indications = interpreter.drain_indications();
    for indication in &indications {
        let server = indication.server.index();
        assert_eq!(indication.block, layers[3][server].block_ref(), "s{server}");
    }
    let mut delivered: Vec<(usize, u64)> = indications
        .into_iter()
        .map(|i| {
            let BrbIndication::Deliver(v) = i.indication;
            (i.server.index(), v)
        })
        .collect();
    delivered.sort();
    assert_eq!(delivered, vec![(0, 42), (1, 42), (2, 42), (3, 42)]);
}

#[test]
fn fig4_no_message_ever_sent() {
    // The crucial claim: the 32 materialized ECHO/READY messages exist
    // only inside the interpretation. The DAG's 16 blocks are the only
    // network objects.
    let (dag, _) = figure_4(4);
    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(ProtocolConfig::for_n(4));
    interpreter.step(&dag);
    let stats = interpreter.stats();
    assert_eq!(stats.blocks_interpreted, 16);
    assert_eq!(stats.messages_materialized, 32);
    assert_eq!(stats.requests_processed, 1);
}

#[test]
fn fig4_long_tail_shares_interpreter_state() {
    // Extend Figure 4 past the delivery round: BRB goes quiescent after
    // round 3, so every later block touches no label and stores an empty
    // delta, and the interpreter's resident state stops growing even as
    // blocks keep flowing.
    let (dag, layers) = figure_4(8);
    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(ProtocolConfig::for_n(4));
    interpreter.step(&dag);

    for layer in &layers[5..8] {
        for (server, block) in layer.iter().enumerate() {
            let state = interpreter.state(&block.block_ref()).unwrap();
            assert_eq!(
                state.touched_labels().count(),
                0,
                "quiescent block of s{server} must store no instance"
            );
            assert_eq!(interpreter.instance_labels_at(&block.block_ref()).len(), 1);
        }
    }

    let footprint = interpreter.footprint();
    assert_eq!(footprint.blocks, 32);
    assert!(
        footprint.unique_instances < footprint.instances,
        "sharing must be visible: {} unique of {} total",
        footprint.unique_instances,
        footprint.instances
    );
}

#[test]
fn fig4_more_requests_materialize_on_same_blocks() {
    // §5: "B1.rs may hold more requests such as broadcast(21) for ℓ2" —
    // additional instances cost zero additional blocks.
    let n = 4;
    let (_, signers) = signers(n, 4);
    let mut dag = BlockDag::new();
    let mut prev: Vec<BlockRef> = Vec::new();
    for round in 0..4u64 {
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let requests = if round == 0 && index == 0 {
                vec![
                    LabeledRequest::encode(Label::new(1), &BrbRequest::Broadcast(42u64)),
                    LabeledRequest::encode(Label::new(2), &BrbRequest::Broadcast(21u64)),
                ]
            } else if round == 0 && index == 2 {
                // §5: "also B3 holds such requests", e.g. ℓ3.
                vec![LabeledRequest::encode(
                    Label::new(3),
                    &BrbRequest::Broadcast(25u64),
                )]
            } else {
                vec![]
            };
            let block = Block::build(
                ServerId::new(index as u32),
                SeqNum::new(round),
                prev.clone(),
                requests,
                signer,
            );
            dag.insert(block.clone()).unwrap();
            layer.push(block.block_ref());
        }
        prev = layer;
    }

    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(ProtocolConfig::for_n(n));
    interpreter.step(&dag);
    let mut per_label: std::collections::BTreeMap<Label, BTreeSet<usize>> = Default::default();
    for indication in interpreter.drain_indications() {
        per_label
            .entry(indication.label)
            .or_default()
            .insert(indication.server.index());
    }
    // All three instances delivered at all four servers — same 16 blocks.
    for label in [1, 2, 3] {
        assert_eq!(
            per_label[&Label::new(label)].len(),
            4,
            "instance ℓ{label} delivered everywhere"
        );
    }
    assert_eq!(dag.len(), 16);
}
