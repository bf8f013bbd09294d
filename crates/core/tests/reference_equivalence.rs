//! View-plus-delta ≡ clone-per-block: the two interpreters are
//! observationally identical.
//!
//! [`dagbft_core::Interpreter`] keeps `B.PIs` as one view per chain tip,
//! moved from parent to child, plus the touched entries per block;
//! [`dagbft_core::ReferenceInterpreter`] is the literal Algorithm 2
//! transcription that deep-clones `PIs` at every block. Lemma 4.2 makes
//! interpretation a pure function of the DAG, so the two must agree on
//! *everything* observable: per-block instance states, in/out buffers,
//! indications (including order, when driven in the same block order),
//! and work counters.
//!
//! The property runs both interpreters in lockstep over random DAGs that
//! include the hostile shapes: equivocating builders (two valid blocks at
//! the same sequence number, at the tip and forking off deep behind it),
//! malformed request payloads (byzantine bytes that fail to decode),
//! servers skipping rounds, and multi-label traffic. A second property
//! cuts the same DAGs at a random fixed point, round-trips a snapshot,
//! and continues: nothing observable may differ from never having
//! stopped.

use std::collections::{BTreeMap, BTreeSet};

use dagbft_codec::{DecodeError, Reader, WireDecode, WireEncode};
use dagbft_core::{
    Block, BlockDag, BlockRef, DeterministicProtocol, Interpreter, Label, LabeledRequest, Outbox,
    ProtocolConfig, ReferenceInterpreter, SeqNum, SnapshotError, SnapshotProtocol,
};
use dagbft_crypto::{KeyRegistry, ServerId};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A deterministic protocol with enough internal state to catch sharing
/// bugs: it counts every received (sender, value) pair, relays odd values
/// back once (second-hop traffic), and indicates every receipt.
#[derive(Debug, Clone, PartialEq)]
struct Relay {
    config: ProtocolConfig,
    received: BTreeMap<(ServerId, u64), u32>,
    relayed: BTreeSet<u64>,
    pending: Vec<(ServerId, u64)>,
}

impl DeterministicProtocol for Relay {
    type Request = u64;
    type Message = u64;
    type Indication = (ServerId, u64);

    fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
        Relay {
            config: *config,
            received: BTreeMap::new(),
            relayed: BTreeSet::new(),
            pending: Vec::new(),
        }
    }

    fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64>) {
        outbox.broadcast(&self.config, request);
    }

    fn on_message(&mut self, sender: ServerId, message: u64, outbox: &mut Outbox<u64>) {
        *self.received.entry((sender, message)).or_default() += 1;
        self.pending.push((sender, message));
        if message % 2 == 1 && self.relayed.insert(message) {
            outbox.send(sender, message + 1);
        }
    }

    fn drain_indications(&mut self) -> Vec<(ServerId, u64)> {
        std::mem::take(&mut self.pending)
    }
}

impl SnapshotProtocol for Relay {
    fn encode_state(&self, out: &mut Vec<u8>) {
        (self.config.n as u64, self.config.f as u64).encode(out);
        self.received.encode(out);
        self.relayed.encode(out);
        self.pending.encode(out);
    }

    fn decode_state(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let (n, f) = <(u64, u64)>::decode(reader)?;
        Ok(Relay {
            config: ProtocolConfig {
                n: n as usize,
                f: f as usize,
            },
            received: WireDecode::decode(reader)?,
            relayed: WireDecode::decode(reader)?,
            pending: WireDecode::decode(reader)?,
        })
    }
}

/// Per server and round: whether it produces a block, whether it
/// *equivocates* (a second valid block at the same sequence number), and
/// which payload kind the block carries (0 = none, 1 = valid request,
/// 2 = malformed garbage, 3 = valid + garbage). `fork` picks a server and
/// how far behind its tip a late equivocating branch forks off.
#[derive(Debug, Clone)]
struct DagSpec {
    n: usize,
    rounds: Vec<Vec<(bool, bool, u8, u64)>>,
    fork: (usize, usize),
}

fn dag_spec() -> impl Strategy<Value = DagSpec> {
    (2usize..5)
        .prop_flat_map(|n| {
            let entry = (any::<bool>(), any::<bool>(), 0u8..4, 0u64..100);
            let round = proptest::collection::vec(entry, n..=n);
            let rounds = proptest::collection::vec(round, 1..5);
            (Just(n), rounds, (0..n, 0usize..4))
        })
        .prop_map(|(n, rounds, fork)| DagSpec { n, rounds, fork })
}

fn requests_for(kind: u8, value: u64) -> Vec<LabeledRequest> {
    let label = Label::new(value % 3);
    let valid = LabeledRequest::encode(label, &value);
    let garbage = LabeledRequest {
        label,
        // Too short to decode as u64: the interpreter must count it as
        // malformed and never show it to P.
        payload: bytes::Bytes::from_static(&[0xde, 0xad]),
    };
    match kind {
        0 => vec![],
        1 => vec![valid],
        2 => vec![garbage],
        _ => vec![valid, garbage],
    }
}

/// Builds a block DAG from the spec. Every produced block references the
/// previous layer's blocks of *other* builders (both branches of an
/// equivocator — correct servers may see and reference both) plus its own
/// parent; an equivocating builder continues its chain from the first
/// branch only (Definition 3.3 (ii) forbids joining them).
///
/// The last two blocks of the DAG are the deep fork, when the forking
/// server's chain is long enough to have an interior: a block whose parent
/// lies `1 + spec.fork.1` blocks (mod the interior) behind that server's
/// tip, and a child of it. Interpreting them finds the parent's view long gone,
/// or — interpreted early — takes it from the main branch. Returns the
/// DAG and the fork's parent.
fn build_dag(spec: &DagSpec) -> (BlockDag, Option<BlockRef>) {
    let registry = KeyRegistry::generate(spec.n, 5);
    let signers: Vec<_> = (0..spec.n)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut dag = BlockDag::new();
    let mut seqs = vec![0u64; spec.n];
    let mut parents: Vec<Option<BlockRef>> = vec![None; spec.n];
    let mut chains: Vec<Vec<BlockRef>> = vec![Vec::new(); spec.n];
    let mut last_layer: Vec<(usize, BlockRef)> = Vec::new();

    for round in &spec.rounds {
        let mut this_layer = Vec::new();
        for (server, (produce, equivocate, kind, value)) in round.iter().enumerate() {
            if !produce {
                continue;
            }
            let mut preds: Vec<BlockRef> = last_layer
                .iter()
                .filter(|(builder, _)| *builder != server)
                .map(|(_, r)| *r)
                .collect();
            if let Some(parent) = parents[server] {
                preds.push(parent);
            }
            let block = Block::build(
                ServerId::new(server as u32),
                SeqNum::new(seqs[server]),
                preds.clone(),
                requests_for(*kind, *value),
                &signers[server],
            );
            dag.insert(block.clone()).unwrap();
            this_layer.push((server, block.block_ref()));
            if *equivocate {
                // Same builder, same sequence number, same preds — but
                // different content: a *valid* equivocation (Example 3.5).
                let twin = Block::build(
                    ServerId::new(server as u32),
                    SeqNum::new(seqs[server]),
                    preds,
                    requests_for(1, value + 1000),
                    &signers[server],
                );
                dag.insert(twin.clone()).unwrap();
                this_layer.push((server, twin.block_ref()));
            }
            // The builder's own chain continues from the first branch.
            parents[server] = Some(block.block_ref());
            chains[server].push(block.block_ref());
            seqs[server] += 1;
        }
        if !this_layer.is_empty() {
            last_layer = this_layer;
        }
    }

    let (server, behind) = spec.fork;
    let interior = chains[server].len().saturating_sub(1);
    if interior == 0 {
        return (dag, None);
    }
    let at = interior - 1 - behind % interior;
    let mut parent = chains[server][at];
    for (step, value) in [(1, 2001u64), (2, 2002)] {
        let mut preds = vec![parent];
        preds.extend(
            last_layer
                .iter()
                .filter(|(b, _)| *b != server)
                .map(|(_, r)| *r),
        );
        let block = Block::build(
            ServerId::new(server as u32),
            SeqNum::new((at + step) as u64),
            preds,
            requests_for(1, value),
            &signers[server],
        );
        dag.insert(block.clone()).unwrap();
        parent = block.block_ref();
    }
    (dag, Some(chains[server][at]))
}

/// Drives both interpreters over `dag` in the *same* (seed-shuffled)
/// eligible order and asserts observational equality block by block.
fn assert_equivalent(dag: &BlockDag, pick_seed: u64) {
    let n = dag.known_servers().count().max(1);
    let config = ProtocolConfig::for_n(n);
    let mut reference: ReferenceInterpreter<Relay> = ReferenceInterpreter::new(config);
    let mut real: Interpreter<Relay> = Interpreter::new(config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(pick_seed);

    loop {
        let mut eligible = reference.eligible(dag);
        // Both answer line 3 by the same scan, in insertion order.
        assert_eq!(real.eligible(dag), eligible);
        if eligible.is_empty() {
            break;
        }
        eligible.shuffle(&mut rng);
        let pick = eligible[0];
        reference.interpret_block(dag, &pick).expect("eligible");
        real.interpret_block(dag, &pick).expect("eligible");
    }

    // Same work counters and the same indication *sequence* (both were
    // driven in the same block order).
    assert_eq!(reference.stats(), real.stats());
    assert_eq!(reference.drain_indications(), real.drain_indications());
    assert_eq!(reference.interpreted_count(), dag.len());
    assert_eq!(real.interpreted_count(), dag.len());

    for r in dag.refs() {
        let naive = reference.state(r).expect("interpreted");
        let shared = real.state(r).expect("interpreted");

        let labels_naive: Vec<Label> = naive.instance_labels().copied().collect();
        assert_eq!(
            labels_naive,
            real.instance_labels_at(r),
            "instance labels at {r}"
        );
        for label in labels_naive {
            // Bit-identical instance state: Relay derives PartialEq over
            // its entire state.
            assert_eq!(
                naive.instance(label),
                real.instance_at(r, label),
                "instance {label} at {r}"
            );
        }
        for label in (0..3).map(Label::new) {
            let outs_naive: Vec<_> = naive.out_messages(label).collect();
            let outs_shared: Vec<_> = shared.out_messages(label).collect();
            assert_eq!(outs_naive, outs_shared, "out buffers {} at {}", label, r);
            let ins_naive: Vec<_> = naive.in_messages(label).collect();
            let ins_shared: Vec<_> = real.in_messages(dag, r, label).collect();
            assert_eq!(ins_naive, ins_shared, "in buffers {} at {}", label, r);
        }
    }

    // The running footprint counters say what the states say: the naive
    // interpreter's total map size, and one stored instance per touch.
    let footprint = real.footprint();
    let naive_slots: usize = dag
        .refs()
        .map(|r| reference.state(r).unwrap().instance_labels().count())
        .sum();
    let touches: usize = dag
        .refs()
        .map(|r| real.state(r).unwrap().touched_labels().count())
        .sum();
    assert_eq!(footprint.instances, naive_slots);
    assert_eq!(footprint.unique_instances, touches);
}

/// Interprets the first `cut` blocks of `dag`, round-trips a snapshot,
/// continues on the whole DAG, and asserts the result is indistinguishable
/// from an interpreter that was never interrupted.
fn assert_snapshot_transparent(dag: &BlockDag, cut: usize) {
    let n = dag.known_servers().count().max(1);
    let config = ProtocolConfig::for_n(n);
    let mut prefix = BlockDag::new();
    for block in dag.iter().take(cut) {
        prefix.insert(block.clone()).unwrap();
    }

    let mut straight: Interpreter<Relay> = Interpreter::new(config);
    straight.step(&prefix);
    let mut stopped: Interpreter<Relay> = Interpreter::new(config);
    stopped.step(&prefix);
    assert_eq!(straight.drain_indications(), stopped.drain_indications());
    let bytes = stopped.encode_snapshot();
    let mut restored: Interpreter<Relay> = Interpreter::decode_snapshot(config, &bytes).unwrap();
    assert_eq!(restored.encode_snapshot(), bytes, "snapshot is canonical");
    assert_eq!(restored.stats(), straight.stats());

    assert_eq!(straight.step(dag), dag.len() - cut);
    assert_eq!(restored.step(dag), dag.len() - cut);
    assert_eq!(straight.drain_indications(), restored.drain_indications());
    assert_eq!(straight.stats(), restored.stats());
    assert_eq!(straight.interpreted_order(), restored.interpreted_order());
    assert_eq!(straight.footprint(), restored.footprint());
    // `Ms[in]` is derived, so the restored interpreter answers it like the
    // oracle that stores it — for blocks under the snapshot too.
    let mut reference: ReferenceInterpreter<Relay> = ReferenceInterpreter::new(config);
    reference.step(dag);
    for r in dag.refs() {
        let (a, b) = (straight.state(r).unwrap(), restored.state(r).unwrap());
        let stored = reference.state(r).unwrap();
        assert!(a.touched_labels().eq(b.touched_labels()), "delta at {r}");
        for label in straight.instance_labels_at(r) {
            assert_eq!(
                straight.instance_at(r, label),
                restored.instance_at(r, label),
                "instance {label} at {r}"
            );
            assert!(
                a.out_messages(label).eq(b.out_messages(label)),
                "outs at {r}"
            );
            assert!(
                stored
                    .in_messages(label)
                    .eq(restored.in_messages(dag, r, label)),
                "ins at {r}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interpreter_equals_reference_on_random_dags(
        spec in dag_spec(),
        pick_seed in 0u64..10_000,
    ) {
        let (dag, _) = build_dag(&spec);
        assert!(dag.check_invariants());
        assert_equivalent(&dag, pick_seed);
    }

    #[test]
    fn snapshot_roundtrip_at_a_random_fixed_point_is_transparent(
        spec in dag_spec(),
        cut_seed in 0usize..10_000,
    ) {
        let (dag, fork_parent) = build_dag(&spec);
        // With a deep fork, keep its parent inside the covered prefix and
        // the fork itself (the DAG's last two blocks) outside.
        let (low, high) = match fork_parent {
            Some(parent) => (
                dag.refs().position(|r| *r == parent).unwrap() + 1,
                dag.len() - 2,
            ),
            None => (0, dag.len()),
        };
        assert_snapshot_transparent(&dag, low + cut_seed % (high - low + 1));
    }

    #[test]
    fn snapshot_decoder_never_panics(
        spec in dag_spec(),
        flips in proptest::collection::vec((0usize..10_000, 1u8..=255), 1..4),
        keep in 0usize..10_000,
    ) {
        let (dag, _) = build_dag(&spec);
        let config = ProtocolConfig::for_n(dag.known_servers().count().max(1));
        let mut interpreter: Interpreter<Relay> = Interpreter::new(config);
        interpreter.step(&dag);
        interpreter.drain_indications();
        let bytes = interpreter.encode_snapshot();

        // Every strict prefix is an error, never a panic or a success.
        let truncated = &bytes[..keep % bytes.len()];
        prop_assert!(Interpreter::<Relay>::decode_snapshot(config, truncated).is_err());
        // Bit flips decode to a typed error or to *some* interpreter that
        // can still be walked.
        let mut flipped = bytes.clone();
        for (at, mask) in flips {
            let at = at % flipped.len();
            flipped[at] ^= mask;
        }
        if let Ok(decoded) = Interpreter::<Relay>::decode_snapshot(config, &flipped) {
            for r in decoded.interpreted_order() {
                decoded.instance_labels_at(r);
            }
        }
    }
}

/// A fixed, maximally hostile scenario kept as a plain test so it runs
/// even with `PROPTEST_CASES=0`: every server equivocates at round 0 with
/// garbage alongside valid requests.
#[test]
fn equivalence_under_full_equivocation() {
    let spec = DagSpec {
        n: 4,
        rounds: vec![
            vec![
                (true, true, 3, 1),
                (true, true, 3, 2),
                (true, true, 3, 3),
                (true, true, 3, 4),
            ],
            vec![
                (true, false, 0, 0),
                (true, false, 0, 0),
                (true, false, 0, 0),
                (true, false, 0, 0),
            ],
            vec![
                (true, false, 1, 50),
                (false, false, 0, 0),
                (true, false, 2, 60),
                (true, false, 0, 0),
            ],
        ],
        fork: (0, 1),
    };
    let (dag, fork_parent) = build_dag(&spec);
    assert!(dag.check_invariants());
    assert!(fork_parent.is_some());
    assert_equivalent(&dag, 7);
    assert_snapshot_transparent(&dag, dag.len() - 2);
}

#[test]
fn snapshot_header_errors_are_typed() {
    let config = ProtocolConfig::for_n(4);
    let bytes = Interpreter::<Relay>::new(config).encode_snapshot();
    let decode = |config, bytes: &[u8]| Interpreter::<Relay>::decode_snapshot(config, bytes).err();

    assert_eq!(decode(config, &bytes), None);
    let mut v1 = bytes.clone();
    v1[0] = 1;
    assert_eq!(
        decode(config, &v1),
        Some(SnapshotError::UnsupportedVersion(1))
    );
    assert_eq!(
        decode(ProtocolConfig::for_n(7), &bytes),
        Some(SnapshotError::ConfigMismatch { n: 4, f: 1 })
    );
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert!(matches!(
        decode(config, &trailing),
        Some(SnapshotError::Corrupt(DecodeError::TrailingBytes {
            remaining: 1
        }))
    ));
}
