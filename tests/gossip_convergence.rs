//! Lemma 3.6/3.7: eventual convergence of correct servers' DAGs — under
//! clean networks, loss, and healed partitions (experiment E10's
//! functional side) — plus the gossip-burst admission regression: the
//! batched reverse-dependency index must promote exactly what the
//! paper-literal rescan promotes, in the same deterministic order, on
//! hostile out-of-order and equivocating deliveries.

use dagbft::dag::{AdmissionView, ReferenceGossip};
use dagbft::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs a sim and returns per-correct-server DAG block counts plus the
/// outcome.
fn converged_sizes(outcome: &SimOutcome<Brb<u64>>) -> Vec<usize> {
    outcome
        .correct_servers()
        .into_iter()
        .map(|i| outcome.shim(i).dag().len())
        .collect()
}

/// Checks all correct servers' DAGs agree up to in-flight blocks: the
/// symmetric difference between any two is bounded by what can still be on
/// the wire at the cutoff instant (a couple of blocks per server).
fn dags_agree(outcome: &SimOutcome<Brb<u64>>, n: usize) -> bool {
    let correct = outcome.correct_servers();
    let sets: Vec<std::collections::BTreeSet<BlockRef>> = correct
        .iter()
        .map(|i| outcome.shim(*i).dag().refs().copied().collect())
        .collect();
    sets.windows(2).all(|pair| {
        let diff = pair[0].symmetric_difference(&pair[1]).count();
        diff <= 2 * n
    })
}

#[test]
fn clean_network_converges() {
    let config = SimConfig::new(4).with_max_time(2_000);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(1),
    });
    let outcome = sim.run();
    let sizes = converged_sizes(&outcome);
    // Within one dissemination interval of each other.
    let min = sizes.iter().min().unwrap();
    let max = sizes.iter().max().unwrap();
    assert!(max - min <= 4, "sizes {sizes:?}");
    assert!(dags_agree(&outcome, 4));
}

#[test]
fn lossy_network_converges_via_fwd() {
    for drop_rate in [0.1, 0.3, 0.5] {
        let config = SimConfig::new(4)
            .with_max_time(30_000)
            .with_network(NetworkModel::default().with_drop_rate(drop_rate))
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(Injection {
            at: 0,
            server: 0,
            label: Label::new(1),
            request: BrbRequest::Broadcast(9),
        });
        let outcome = sim.run();
        assert_eq!(
            outcome.deliveries.len(),
            4,
            "drop rate {drop_rate}: delivery failed"
        );
        assert!(outcome.net.messages_dropped > 0);
        if drop_rate >= 0.3 {
            assert!(
                outcome.net.fwd_sent > 0,
                "drop rate {drop_rate}: recovery should need FWDs"
            );
        }
    }
}

#[test]
fn partition_heals_and_converges() {
    // Split {0,1} | {2,3} for 2 seconds, then heal. Liveness resumes:
    // a broadcast injected *during* the partition delivers after healing.
    let partition = Partition {
        a: [0, 1].into_iter().collect(),
        b: [2, 3].into_iter().collect(),
        from: 0,
        until: 2_000,
    };
    let config = SimConfig::new(4)
        .with_max_time(60_000)
        .with_network(NetworkModel::default().with_partition(partition))
        .with_stop_after_deliveries(4);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 100,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(5),
    });
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), 4, "post-heal delivery");
    // Deliveries on the far side happen only after the heal.
    for delivery in &outcome.deliveries {
        if delivery.server.index() >= 2 {
            assert!(
                delivery.at >= 2_000,
                "server {} delivered during partition",
                delivery.server
            );
        }
    }
}

#[test]
fn all_dags_verify_invariants_after_chaos() {
    let config = SimConfig::new(7)
        .with_max_time(10_000)
        .with_network(NetworkModel::default().with_drop_rate(0.2))
        .with_role(5, Role::Equivocate { at_seq: 2 })
        .with_role(6, Role::Silent);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    for i in 0..5 {
        sim.inject(Injection {
            at: i * 100,
            server: (i % 5) as usize,
            label: Label::new(i),
            request: BrbRequest::Broadcast(i),
        });
    }
    let outcome = sim.run();
    for index in outcome.correct_servers() {
        assert!(
            outcome.shim(index).dag().check_invariants(),
            "server {index} DAG invariants"
        );
    }
}

/// Builds a hostile block soup: three builders × `rounds` rounds, each
/// block referencing the whole previous round, plus an equivocation pair
/// (builder 3, k = 0) and a child committing to both halves of it.
fn hostile_soup(rounds: u64) -> (KeyRegistry, Vec<Block>) {
    let registry = KeyRegistry::generate(4, 23);
    let signers: Vec<_> = (1..4)
        .map(|i| registry.signer(ServerId::new(i)).unwrap())
        .collect();
    let mut blocks = Vec::new();
    let mut prev: Vec<BlockRef> = Vec::new();
    for round in 0..rounds {
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let requests = vec![LabeledRequest::encode(
                Label::new(index as u64),
                &(round * 10 + index as u64),
            )];
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
    // Equivocation: a second k=0 block by builder 3 with different content,
    // and a k=1 child referencing *both* — permanently invalid
    // (MultipleParents), so its own children can never promote either.
    let signer3 = registry.signer(ServerId::new(3)).unwrap();
    let equivocation = Block::build(
        ServerId::new(3),
        SeqNum::ZERO,
        vec![],
        vec![LabeledRequest::encode(Label::new(99), &1u8)],
        &signer3,
    );
    let first_k0 = blocks[2].block_ref();
    let two_parents = Block::build(
        ServerId::new(3),
        SeqNum::new(1),
        vec![first_k0, equivocation.block_ref()],
        vec![],
        &signer3,
    );
    let orphan_child = Block::build(
        ServerId::new(3),
        SeqNum::new(2),
        vec![two_parents.block_ref()],
        vec![],
        &signer3,
    );
    blocks.push(equivocation);
    blocks.push(two_parents);
    blocks.push(orphan_child);
    (registry, blocks)
}

#[test]
fn gossip_burst_admission_matches_scan_engine() {
    let (registry, blocks) = hostile_soup(6);
    let reversed: Vec<Block> = blocks.iter().rev().cloned().collect();
    let mut schedules = vec![("reverse", reversed)];
    for seed in [1u64, 7, 42] {
        let mut shuffled = blocks.clone();
        shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        schedules.push(("shuffled", shuffled));
    }
    for (name, schedule) in schedules {
        let mut receiver = Gossip::new(
            ServerId::new(0),
            GossipConfig::for_n(4),
            registry.signer(ServerId::new(0)).unwrap(),
            registry.verifier(),
        );
        let mut scan = ReferenceGossip::new(4, registry.verifier());
        for (t, block) in schedule.iter().enumerate() {
            assert_eq!(
                receiver.on_block(block.clone(), t as u64),
                scan.on_blocks([block.clone()], t as u64),
                "{name}: FWD/command traffic diverged at delivery {t}"
            );
        }
        // Promotion order — which fixes the bytes of the next sealed own
        // block — pending buffer, rejections and stats all agree.
        let view = AdmissionView::of(&receiver);
        assert_eq!(view, scan.view(), "{name}");
        // The permanently-invalid chain stays buffered/rejected, never
        // promoted.
        assert_eq!(
            view.rejected.len(),
            1,
            "{name}: the two-parent block is rejected"
        );
        assert_eq!(view.pending, 1, "{name}: its child stays pending forever");
        // Every admitted block is referenced by the next own block, in
        // promotion order.
        let (own, _) = receiver.disseminate(vec![], 10_000);
        assert_eq!(own.preds(), view.order.as_slice(), "{name}");
    }
}

#[test]
fn sequence_numbers_form_chains_per_correct_server() {
    let config = SimConfig::new(4).with_max_time(3_000);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(1),
    });
    let outcome = sim.run();
    let dag = outcome.shim(0).dag();
    for server in 0..4u32 {
        let server = ServerId::new(server);
        let Some(height) = dag.height_of(server) else {
            continue;
        };
        // Every sequence number 0..=height is present exactly once.
        for k in 0..=height.value() {
            assert_eq!(
                dag.blocks_at(server, SeqNum::new(k)).len(),
                1,
                "{server} at k{k}"
            );
        }
    }
}
