//! Retirement under equivocation: a terminal `Brb` instance gives its
//! version back, and a fork that must be rebuilt from a block before the
//! retirement still reads the state that block had.
//!
//! The DAG is Figure 4's (n = 4, four rounds, `broadcast(42)` on label 1
//! at `s0`'s first block): every server delivers in the last round, and
//! its instance retires there. `s3` then equivocates: a second block at
//! sequence number 2 whose parent is `s3`'s round-1 block. That parent was
//! continued by the first fork, in whose segment label 1 later retired, so
//! the second fork's view is rebuilt by replaying the parent's segment.

use dagbft::prelude::*;

/// `(label, value)` as a `broadcast(value)` request.
fn broadcast(label: u64, value: u64) -> LabeledRequest {
    LabeledRequest::encode(Label::new(label), &BrbRequest::Broadcast(value))
}

/// Figure 4's four rounds, then `s3`'s two extra blocks at sequence
/// number 2 on its round-1 block, each with a broadcast on a fresh label.
/// Returns the DAG, the rounds, and the extra blocks.
fn forked_figure_4() -> (BlockDag, Vec<Vec<BlockRef>>, Vec<BlockRef>) {
    let registry = KeyRegistry::generate(4, 4);
    let signer = |builder: u32| registry.signer(ServerId::new(builder)).unwrap();
    let mut dag = BlockDag::new();
    let mut rounds: Vec<Vec<BlockRef>> = Vec::new();
    for seq in 0..4u64 {
        let preds = rounds.last().cloned().unwrap_or_default();
        let round = (0..4)
            .map(|builder| {
                let requests = match (seq, builder) {
                    (0, 0) => vec![broadcast(1, 42)],
                    _ => vec![],
                };
                let block = Block::build(
                    ServerId::new(builder),
                    SeqNum::new(seq),
                    preds.clone(),
                    requests,
                    &signer(builder),
                );
                dag.insert(block.clone()).unwrap();
                block.block_ref()
            })
            .collect();
        rounds.push(round);
    }
    let forks = (2..4)
        .map(|label| {
            let block = Block::build(
                ServerId::new(3),
                SeqNum::new(2),
                rounds[1].clone(),
                vec![broadcast(label, 7)],
                &signer(3),
            );
            dag.insert(block.clone()).unwrap();
            block.block_ref()
        })
        .collect();
    (dag, rounds, forks)
}

fn state_bytes(instance: &Brb<u64>) -> Vec<u8> {
    let mut bytes = Vec::new();
    instance.encode_state(&mut bytes);
    bytes
}

/// Asserts that `interpreter` reads every instance of every block of
/// `dag` as the oracle holds it, or as retired exactly where the oracle's
/// is terminal; returns how many it read as retired.
fn assert_like_the_oracle(
    interpreter: &Interpreter<Brb<u64>>,
    oracle: &ReferenceInterpreter<Brb<u64>>,
    dag: &BlockDag,
) -> usize {
    let mut retired = 0;
    for block in dag.refs() {
        let stored = oracle.state(block).unwrap();
        let state = interpreter.state(block).unwrap();
        for label in stored.instance_labels().copied() {
            assert!(state
                .out_messages(label)
                .eq(stored.out_messages(label).cloned()));
            let held = stored.instance(label).unwrap();
            match interpreter.instance_at(dag, block, label).unwrap() {
                InstanceAt::Live(instance) => {
                    assert!(!held.is_terminal(), "{label} at {block}");
                    assert_eq!(
                        state_bytes(&instance),
                        state_bytes(held),
                        "{label} at {block}"
                    );
                }
                InstanceAt::Retired => {
                    assert!(held.is_terminal(), "{label} at {block}");
                    retired += 1;
                }
            }
        }
    }
    retired
}

#[test]
fn a_fork_below_a_retirement_rebuilds_the_state_before_it() {
    let (dag, rounds, forks) = forked_figure_4();
    let label = Label::new(1);
    let parent = rounds[1][3];
    let config = ProtocolConfig::for_n(4);
    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(config);
    let mut oracle: ReferenceInterpreter<Brb<u64>> = ReferenceInterpreter::new(config);

    // The four rounds: every instance of label 1 retires in the last.
    for block in rounds.iter().flatten() {
        interpreter.interpret_block(&dag, block).unwrap();
        oracle.interpret_block(&dag, block).unwrap();
    }
    assert_eq!(interpreter.drain_indications(), oracle.drain_indications());
    for block in &rounds[3] {
        let read = interpreter.instance_at(&dag, block, label).unwrap();
        assert!(read.is_retired(), "{block}");
    }
    assert_eq!(interpreter.footprint().retired_instances, 4);
    assert_eq!(interpreter.resident_versions(), 0);
    // The parent, continued by the first fork, reads as it was: echoed,
    // with s0's ECHO and its own, and not yet readied.
    let before = interpreter.instance_at(&dag, &parent, label).unwrap();
    let before = before.live().expect("s3 had not delivered at round 1");
    assert!(before.echoed() && !before.readied());
    assert_eq!(before.echo_count(&42), 2);

    // The second fork rebuilds the parent's view by replaying its
    // segment; the third reads that replay.
    for (at, fork) in forks.iter().enumerate() {
        interpreter.interpret_block(&dag, fork).unwrap();
        oracle.interpret_block(&dag, fork).unwrap();
        assert_eq!(interpreter.blocks_replayed(), 2, "after fork {at}");
    }
    assert_eq!(interpreter.drain_indications(), oracle.drain_indications());
    assert_eq!(interpreter.stats(), oracle.stats());
    let after = interpreter.instance_at(&dag, &parent, label).unwrap();
    assert_eq!(state_bytes(&after.live().unwrap()), state_bytes(&before));
    for fork in &forks {
        let instance = interpreter.instance_at(&dag, fork, label).unwrap();
        let instance = instance
            .live()
            .expect("a fork readies but delivers nothing");
        assert!(instance.readied() && !instance.delivered());
    }
    assert_eq!(assert_like_the_oracle(&interpreter, &oracle, &dag), 4);

    // A restore reads every block the same, the replayed parent too.
    let bytes = interpreter.snapshot().unwrap();
    let restored = Interpreter::<Brb<u64>>::decode_snapshot(config, &bytes).unwrap();
    assert_eq!(
        restored.resident_versions(),
        interpreter.resident_versions()
    );
    assert_eq!(assert_like_the_oracle(&restored, &oracle, &dag), 4);
    assert_eq!(restored.snapshot().unwrap(), bytes);
}
