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
        let mut scan = ReferenceGossip::new(GossipConfig::for_n(4), registry.verifier());
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

/// The schedules above with deliveries 20 ms apart, so one run spans
/// several seal periods (`Δ_B'`): the engine and the rescan must send the
/// same `FWD` retries at the same deliveries, to the same candidates.
#[test]
fn gossip_fwd_retries_match_scan_engine_across_seal_periods() {
    let (registry, blocks) = hostile_soup(6);
    let config = GossipConfig::for_n(4);
    let spacing: TimeMs = 20;
    assert!(spacing * blocks.len() as TimeMs > 2 * config.seal_period_ms);
    for seed in [1u64, 7, 42] {
        let mut schedule = blocks.clone();
        schedule.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let mut receiver = Gossip::new(
            ServerId::new(0),
            config,
            registry.signer(ServerId::new(0)).unwrap(),
            registry.verifier(),
        );
        let mut scan = ReferenceGossip::new(config, registry.verifier());
        let mut asked = std::collections::BTreeSet::new();
        for (t, block) in schedule.iter().enumerate() {
            let now = t as TimeMs * spacing;
            let commands = receiver.on_block(block.clone(), now);
            assert_eq!(
                commands,
                scan.on_blocks([block.clone()], now),
                "seed {seed}: FWD traffic diverged at delivery {t}"
            );
            for command in commands {
                if let NetCommand::SendTo {
                    message: NetMessage::FwdRequest(block_ref),
                    ..
                } = command
                {
                    asked.insert(block_ref);
                }
            }
        }
        let view = AdmissionView::of(&receiver);
        assert_eq!(view, scan.view(), "seed {seed}");
        assert!(
            view.stats.fwd_sent > asked.len() as u64,
            "seed {seed}: some request was sent again"
        );
    }
}

/// A schedule in which blocks answer the `FWD`s they were asked for: the
/// rounds of [`hostile_soup`] arrive newest first, one builder's blocks
/// at a time, 2, 5, 8 and 11 ms apart in turn, so each builder is asked
/// for its own older blocks and answers them after varying round trips.
/// Some request goes a period unanswered, so both engines time out alike,
/// learn the same moving round trip from the answers, and send the same
/// retries on it.
#[test]
fn gossip_round_trip_samples_match_scan_engine() {
    let (registry, blocks) = hostile_soup(6);
    let config = GossipConfig::for_n(4);
    let mut schedule: Vec<Block> = blocks.iter().rev().cloned().collect();
    schedule.sort_by_key(|block| block.builder());
    let mut receiver = Gossip::new(
        ServerId::new(0),
        config,
        registry.signer(ServerId::new(0)).unwrap(),
        registry.verifier(),
    );
    let mut scan = ReferenceGossip::new(config, registry.verifier());
    let mut rtos = std::collections::BTreeSet::new();
    let mut now = 0;
    for (t, block) in schedule.iter().enumerate() {
        now += 2 + 3 * (t as TimeMs % 4);
        assert_eq!(
            receiver.on_block(block.clone(), now),
            scan.on_blocks([block.clone()], now),
            "FWD traffic diverged at delivery {t}"
        );
        assert_eq!(
            AdmissionView::of(&receiver),
            scan.view(),
            "after delivery {t}"
        );
        rtos.insert(receiver.stats().fwd_rto_ms);
    }
    assert!(rtos.len() > 2, "the estimate moved: {rtos:?}");
    assert!(*rtos.first().unwrap() < config.seal_period_ms);
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

/// What [`broadcasts`] measured: the p50 from injection to the last
/// server's delivery, the `FWD` requests and messages sent, and the
/// blocks that reached a server already holding them.
struct Recovery {
    p50: TimeMs,
    fwd_sent: u64,
    messages_sent: u64,
    duplicates: u64,
}

/// 100 broadcasts, one every 50 ms round robin, on n = 4 servers over
/// `network`, until every server has delivered every broadcast.
fn broadcasts(network: NetworkModel, seed: u64) -> Recovery {
    let config = SimConfig::new(4)
        .with_seed(seed)
        .with_network(network)
        .with_max_time(60_000)
        .with_stop_after_deliveries(400);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    for i in 0..100u64 {
        sim.inject(Injection {
            at: i * 50,
            server: (i % 4) as usize,
            label: Label::new(i),
            request: BrbRequest::Broadcast(i),
        });
    }
    let outcome = sim.run();
    assert_eq!(
        outcome.deliveries.len(),
        400,
        "seed {seed}: every server delivers"
    );
    let mut last = std::collections::BTreeMap::new();
    for delivery in &outcome.deliveries {
        let at = last.entry(delivery.label).or_insert(0);
        *at = delivery.at.max(*at);
    }
    let mut latencies: Vec<TimeMs> = last
        .iter()
        .map(|(label, at)| at - label.id() * 50)
        .collect();
    latencies.sort_unstable();
    Recovery {
        p50: latencies[latencies.len() / 2],
        fwd_sent: outcome.net.fwd_sent,
        messages_sent: outcome.net.messages_sent,
        duplicates: (0..4)
            .map(|server| outcome.shim(server).gossip().stats().duplicate_blocks)
            .sum(),
    }
}

/// Constant 10 ms links that drop `rate` of messages.
fn lossy(rate: f64) -> NetworkModel {
    NetworkModel::reliable_constant(10).with_drop_rate(rate)
}

/// The floor of the learned `FWD` wait Δ_B' on [`broadcasts`] over
/// 10 ms links that drop 20 %. With Δ_B' fixed at the 50 ms seal
/// period, seed 7 reads a p50 of 300 ms and 390 `FWD`s; learned from
/// answered requests it reads 225 ms and 393. Over seeds 1–20 every
/// seed's p50 falls (`PERIOD_P50`), and the `FWD`s go 7 691 → 7 567, but
/// not on every seed: seeds 5, 7 and 18 send 1, 3 and 29 more. No run of
/// either wait re-asks a block whose answer is still on its way (that
/// answer would arrive as a duplicate block), so each extra `FWD` re-asks
/// a request or an answer the network dropped, and which messages it
/// drops moves with the schedule.
/// (When a server's messages to itself were delivered one block later,
/// the fixed wait read 312 ms and 394 `FWD`s at seed 7, and 7 720 `FWD`s
/// over the seeds; the learned one 237 ms, 393 and 7 616.)
#[test]
fn a_learned_fwd_wait_shortens_recovery_on_lossy_links() {
    const PERIOD_P50: [TimeMs; 20] = [
        300, 275, 250, 275, 275, 287, 300, 300, 337, 300, 250, 262, 250, 287, 250, 237, 262, 312,
        262, 237,
    ];
    let seven = broadcasts(lossy(0.2), 7);
    assert!(seven.p50 <= 225, "seed 7: {} ms", seven.p50);
    let mut total_fwd = 0;
    for (seed, period_p50) in (1..).zip(PERIOD_P50) {
        let run = broadcasts(lossy(0.2), seed);
        assert!(
            run.p50 < period_p50,
            "seed {seed}: {} ms, was {period_p50}",
            run.p50
        );
        assert_eq!(
            run.duplicates, 0,
            "seed {seed}: an answer came after a retry"
        );
        total_fwd += run.fwd_sent;
    }
    assert!(
        total_fwd <= 7_567,
        "{total_fwd} FWDs over seeds 1-20, was 7 691"
    );
}

/// The same at 40 % loss, where E10's one broadcast over 5 seeds reads
/// slower with the learned wait than with the fixed one: over 100
/// broadcasts and seeds 1–20 the sum of the p50s goes 18 021 → 16 571 ms
/// and the `FWD`s 30 858 → 30 312 (18 183 → 16 721 ms and 30 871 →
/// 30 319 when a server's messages to itself were delivered one block
/// later).
#[test]
fn a_learned_fwd_wait_shortens_recovery_at_40_percent_loss() {
    let (mut p50s, mut fwds) = (0, 0);
    for seed in 1..=20 {
        let run = broadcasts(lossy(0.4), seed);
        p50s += run.p50;
        fwds += run.fwd_sent;
    }
    assert!(
        p50s <= 16_571 && fwds <= 30_312,
        "{p50s} ms, {fwds} FWDs over seeds 1-20, was 18 021 ms, 30 858"
    );
}

/// Round trips that spread across the seal period, on the default
/// network's 5–30 ms links, and no loss: the learned wait is the fixed
/// one. Over seeds 1–20 of [`broadcasts`] the sums read exactly what a
/// fixed one-period wait gives: p50s 3 036 ms, 538 `FWD`s, 25 621
/// messages (3 048, 590 and 25 831 when every slot sealed a block, idle
/// or not; 3 357, 592 and 25 924 when a server's messages to itself were
/// delivered one block later).
#[test]
fn a_learned_fwd_wait_is_the_period_on_lossless_links_with_spread_round_trips() {
    let (mut p50s, mut fwds, mut messages) = (0, 0, 0);
    for seed in 1..=20 {
        let run = broadcasts(NetworkModel::default(), seed);
        p50s += run.p50;
        fwds += run.fwd_sent;
        messages += run.messages_sent;
    }
    assert_eq!((p50s, fwds, messages), (3_036, 538, 25_621));
}
