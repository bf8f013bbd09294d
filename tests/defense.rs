//! Adversarial peer-defense scenarios: the scored-admission layer under
//! attack.
//!
//! Three attack shapes drive the graduated response end to end over the
//! full simulator:
//!
//! * **slow-loris** — a peer re-broadcasting protocol-valid duplicates
//!   soaks the token bucket and accumulates duplicate-flood score, while
//!   honest dissemination keeps flowing;
//! * **flood-then-behave** — forged blocks earn a ban; once the flood
//!   stops, the volatile score decays and the reformed peer's valid
//!   blocks are admitted again;
//! * **colluding equivocator cliques** — provable forks convict every
//!   member (§6 accountability, surfaced on [`SimOutcome`]), deprioritize
//!   their blocks, and leave honest liveness intact.
//!
//! Determinism is pinned alongside: identical runs produce byte-identical
//! defense-event trajectories under both signature schemes, and a
//! crash/restart replays to the same durable score.

use dagbft::prelude::*;
use proptest::prelude::*;

/// Defense knobs for the attack scenarios: the default scoring with a
/// tighter block bucket (capacity 16, refill 4 per 100 ms — twice the
/// honest dissemination rate, far under a flooder's).
fn attack_defense() -> DefenseConfig {
    DefenseConfig::enabled().with_block_bucket(16, 4)
}

fn broadcast(at: TimeMs, server: usize, label: u64, value: u64) -> Injection<Brb<u64>> {
    Injection {
        at,
        server,
        label: Label::new(label),
        request: BrbRequest::Broadcast(value),
    }
}

// ---------------------------------------------------------------------
// Scenario 1: slow-loris duplicate flood.
// ---------------------------------------------------------------------

#[test]
fn slow_loris_is_throttled_and_scored_while_honest_liveness_holds() {
    let loris = ServerId::new(3);
    let config = SimConfig::new(4)
        .with_max_time(3_000)
        .with_defense(attack_defense())
        .with_role(3, Role::SlowLoris { repeat: 6 });
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(broadcast(0, 0, 1, 42));
    let outcome = sim.run();

    // Liveness: every correct server delivers despite the flood.
    let delivered = outcome.deliveries_for(Label::new(1));
    assert_eq!(delivered.len(), 3, "honest servers all delivered");
    assert!(delivered
        .iter()
        .all(|d| d.indication == BrbIndication::Deliver(42)));

    for server in outcome.correct_servers() {
        let defense = outcome.shim(server).gossip().defense();
        let stats = defense.stats();
        // The token bucket bit: surplus copies were dropped pre-admission.
        assert!(stats.throttled_blocks > 0, "server {server} throttled");
        // Duplicate copies that did pass the bucket were scored.
        assert!(
            defense.events().iter().any(|e| matches!(
                e,
                DefenseEvent::Scored {
                    peer,
                    offense: Offense::DuplicateFlood,
                    ..
                } if *peer == loris
            )),
            "server {server} scored the duplicate flood"
        );
        assert!(defense.score(loris, outcome.finished_at) > 0);
        // Honest peers kept a clean-enough record to stay un-banned.
        for honest in outcome.correct_servers() {
            if honest != server {
                assert!(!defense.is_banned(ServerId::new(honest as u32), outcome.finished_at));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Scenario 2: flood, get banned, reform, recover standing.
// ---------------------------------------------------------------------

#[test]
fn flood_then_behave_earns_a_ban_then_decays_back_to_standing() {
    let flooder = ServerId::new(3);
    let config = SimConfig::new(4)
        .with_max_time(30_000)
        .with_defense(attack_defense())
        .with_role(
            3,
            Role::FloodThenBehave {
                until: 2_000,
                per_round: 3,
            },
        );
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(broadcast(100, 0, 1, 7)); // during the flood
    sim.inject(broadcast(20_000, 1, 2, 8)); // after the reform
    let outcome = sim.run();

    // Liveness through both phases.
    assert_eq!(outcome.deliveries_for(Label::new(1)).len(), 3);
    assert_eq!(outcome.deliveries_for(Label::new(2)).len(), 3);

    for server in outcome.correct_servers() {
        let defense = outcome.shim(server).gossip().defense();
        let stats = defense.stats();
        // Forged blocks were scored as invalid and escalated to a ban;
        // flood traffic arriving during the ban was dropped unscored.
        assert!(stats.bans >= 1, "server {server} banned the flooder");
        assert!(
            stats.banned_blocks > 0,
            "server {server} dropped banned traffic"
        );
        assert!(defense.events().iter().any(|e| matches!(
            e,
            DefenseEvent::Scored {
                peer,
                offense: Offense::InvalidBlock,
                ..
            } if *peer == flooder
        )));
        assert!(defense
            .events()
            .iter()
            .any(|e| matches!(e, DefenseEvent::Banned { peer, .. } if *peer == flooder)));
        // The ban lapsed and was observed lifting on a later admission.
        assert!(
            defense
                .events()
                .iter()
                .any(|e| matches!(e, DefenseEvent::BanLifted { peer, .. } if *peer == flooder)),
            "server {server} saw the ban lift"
        );
        assert!(!defense.is_banned(flooder, outcome.finished_at));
        // Score recovery: decay brought the flooder well under its peak.
        let peak = defense
            .events()
            .iter()
            .filter_map(|e| match e {
                DefenseEvent::Scored { peer, score, .. } if *peer == flooder => Some(*score),
                _ => None,
            })
            .max()
            .expect("flooder was scored");
        let settled = defense.score(flooder, outcome.finished_at);
        assert!(
            settled < peak / 2,
            "server {server}: score {settled} did not decay from peak {peak}"
        );
        // Standing recovered: the reformed peer's valid blocks are in.
        let dag = outcome.shim(server).dag();
        assert!(
            dag.refs()
                .any(|r| dag.get(r).is_some_and(|block| block.builder() == flooder)),
            "server {server} admitted the reformed flooder's blocks"
        );
    }
}

/// A flood that never stops (8 forged blocks per 50 ms round at n = 5)
/// against a tight bucket (4 blocks + 2 per 100 ms), beside the same
/// workload attack-free. All on the simulated clock and in counts: honest
/// mean latency stays within 2× the baseline, what the attacker pushes
/// past the gate stays within the bucket's budget over the run, and the
/// throttle, the ban and the audit trail all engaged.
#[test]
fn sustained_flood_stays_inside_the_bucket_budget_and_costs_under_2x_latency() {
    const N: usize = 5;
    const INSTANCES: usize = 4;
    let defense = DefenseConfig::enabled().with_block_bucket(4, 2);
    let run = |attacked: bool| {
        let correct = if attacked { N - 1 } else { N };
        let mut config = SimConfig::new(N)
            .with_seed(23)
            .with_defense(defense)
            .with_stop_after_deliveries(INSTANCES * correct);
        if attacked {
            config = config.with_role(
                N - 1,
                Role::FloodThenBehave {
                    until: u64::MAX,
                    per_round: 8,
                },
            );
        }
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        for i in 0..INSTANCES {
            sim.inject(broadcast(i as u64, i % correct, i as u64, i as u64));
        }
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), INSTANCES * correct);
        let latencies: Vec<TimeMs> = (0..INSTANCES as u64)
            .flat_map(|label| outcome.latencies_for(Label::new(label)))
            .collect();
        let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
        (outcome, mean)
    };
    let (_, baseline_latency) = run(false);
    let (attack, attack_latency) = run(true);
    assert!(
        attack_latency <= 2.0 * baseline_latency,
        "honest latency {attack_latency} ms under attack, {baseline_latency} ms without"
    );

    let budget = defense.bucket_blocks
        + defense.refill_blocks * (attack.finished_at / defense.refill_interval_ms);
    let (mut throttled, mut bans, mut events) = (0, 0, 0);
    for server in attack.correct_servers() {
        let gossip = attack.shim(server).gossip();
        // Honest servers never emit an invalid block: every one that
        // reached verification is the attacker's.
        let admitted = gossip.stats().invalid_blocks;
        assert!(
            admitted <= budget,
            "server {server}: {admitted} forged blocks passed the gate, budget {budget}"
        );
        throttled += gossip.defense().stats().throttled_blocks;
        bans += gossip.defense().stats().bans;
        events += gossip.defense().events().len();
    }
    assert!(throttled > 0, "the token bucket never engaged");
    assert!(bans > 0, "scoring never escalated to a ban");
    assert!(events > 0, "no DefenseEvent was recorded");
}

// ---------------------------------------------------------------------
// Scenario 3: colluding equivocator clique.
// ---------------------------------------------------------------------

#[test]
fn equivocator_clique_is_convicted_deprioritized_and_outlived() {
    let n = 7; // f = 2: the clique is exactly at the fault budget.
    let clique = [ServerId::new(5), ServerId::new(6)];
    let config = SimConfig::new(n)
        .with_max_time(20_000)
        .with_defense(DefenseConfig::enabled())
        .with_role(5, Role::Equivocate { at_seq: 0 })
        .with_role(6, Role::Equivocate { at_seq: 0 })
        .with_stop_after_deliveries(5);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(broadcast(0, 0, 1, 99));
    let outcome = sim.run();

    // Liveness and consistency for the five correct servers.
    let delivered = outcome.deliveries_for(Label::new(1));
    assert_eq!(delivered.len(), 5, "all correct servers delivered");
    assert!(delivered
        .iter()
        .all(|d| d.indication == BrbIndication::Deliver(99)));

    // §6 accountability, surfaced on the outcome: both clique members
    // are convicted by transferable proofs.
    for member in clique {
        assert!(outcome.accused.contains(&member), "{member} convicted");
    }
    assert!(outcome.equivocation_proofs >= clique.len());

    // At least one correct server caught each member live and
    // deprioritized it (catching requires both fork versions in one DAG,
    // which FWD spreads but the early-stop may truncate for some).
    for member in clique {
        assert!(
            outcome.correct_servers().iter().any(|server| {
                let defense = outcome.shim(*server).gossip().defense();
                defense.is_deprioritized(member)
                    && defense.events().iter().any(|e| {
                        matches!(
                            e,
                            DefenseEvent::Deprioritized { builder, .. } if *builder == member
                        )
                    })
            }),
            "{member} deprioritized somewhere"
        );
    }
}

// ---------------------------------------------------------------------
// Crash/restart: the durable score component replays exactly.
// ---------------------------------------------------------------------

#[test]
fn durable_crash_replays_equivocation_scores() {
    let equivocator = ServerId::new(0);
    let config = SimConfig::new(4)
        .with_max_time(10_000)
        .with_defense(DefenseConfig::enabled())
        .with_role(0, Role::Equivocate { at_seq: 0 });
    let mut sim: Simulation<Brb<u64>> =
        Simulation::new(config).with_durable_store(1, Box::new(MemoryStore::new()), 5_000);
    sim.inject(broadcast(0, 1, 1, 11));
    let outcome = sim.run();
    assert_eq!(
        outcome.recoveries.len(),
        1,
        "server 1 crashed and recovered"
    );

    // The recovered server re-derived the conviction from its DAG: same
    // durable (equivocation) score component as a server that never
    // crashed, and the audit trail records the recovered conviction.
    let recovered = outcome.shim(1).gossip().defense();
    let witness = outcome.shim(2).gossip().defense();
    assert!(recovered.is_deprioritized(equivocator));
    assert!(witness.is_deprioritized(equivocator));
    let durable = |defense: &PeerDefense| {
        defense
            .snapshots(outcome.finished_at)
            .into_iter()
            .find(|(peer, _)| *peer == equivocator)
            .map(|(_, snapshot)| snapshot.equivocations)
            .unwrap_or(0)
    };
    assert_eq!(durable(recovered), durable(witness));
    assert!(durable(recovered) >= 1);
    assert!(
        recovered.score(equivocator, outcome.finished_at)
            >= recovered.config().equivocation_penalty
    );
    assert!(recovered.events().iter().any(|e| matches!(
        e,
        DefenseEvent::Deprioritized { builder, .. } if *builder == equivocator
    )));
}

// ---------------------------------------------------------------------
// Determinism: trajectories and DAGs across schemes.
// ---------------------------------------------------------------------

/// Runs the slow-loris scenario and returns per-correct-server defense
/// trajectories plus a whole-run fingerprint (deliveries, wire counters,
/// DAG block hashes).
fn defended_run(
    seed: u64,
    scheme: SchemeKind,
    repeat: usize,
    drop_rate: f64,
) -> (Vec<Vec<u8>>, Vec<u8>) {
    let config = SimConfig::new(4)
        .with_seed(seed)
        .with_max_time(4_000)
        .with_network(NetworkModel::default().with_drop_rate(drop_rate))
        .with_scheme(scheme)
        .with_defense(attack_defense())
        .with_role(3, Role::SlowLoris { repeat });
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(broadcast(0, 0, 1, 1000 + seed));
    let outcome = sim.run();
    let trajectories: Vec<Vec<u8>> = outcome
        .correct_servers()
        .into_iter()
        .map(|server| outcome.shim(server).gossip().defense().trajectory_bytes())
        .collect();
    let mut fingerprint = Vec::new();
    for delivery in &outcome.deliveries {
        fingerprint.extend_from_slice(
            format!(
                "d:{}:{}:{:?}\n",
                delivery.at, delivery.server, delivery.indication
            )
            .as_bytes(),
        );
    }
    fingerprint.extend_from_slice(
        format!(
            "net:{}:{} clock:{}\n",
            outcome.net.messages_sent, outcome.net.bytes_sent, outcome.finished_at
        )
        .as_bytes(),
    );
    for server in outcome.correct_servers() {
        if let Some(dag) = outcome.dag(server) {
            let mut refs: Vec<_> = dag.refs().copied().collect();
            refs.sort();
            for r in refs {
                let block = dag.get(&r).expect("listed ref present");
                fingerprint.extend_from_slice(
                    dagbft::crypto::sha256(block.wire_bytes())
                        .to_hex()
                        .as_bytes(),
                );
                fingerprint.push(b'\n');
            }
        }
    }
    (trajectories, fingerprint)
}

#[test]
fn defense_trajectories_are_scheme_independent() {
    // Signatures have one wire size for every scheme, so the defense
    // layer's byte buckets, scores, and event timestamps must not move
    // when the scheme swaps — only block content bytes (hence the DAG
    // hashes) may.
    for seed in [0, 42] {
        let hmac = defended_run(seed, SchemeKind::Hmac, 5, 0.05);
        let ed25519 = defended_run(seed, SchemeKind::Ed25519, 5, 0.05);
        assert_eq!(hmac.0, ed25519.0, "seed {seed}: trajectories moved");
        assert_ne!(
            hmac.1, ed25519.1,
            "seed {seed}: schemes gave identical block bytes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Identical offense sequences produce byte-identical score
    /// trajectories run after run and whichever signature scheme signs
    /// the blocks.
    #[test]
    fn score_trajectories_identical_across_engines_and_schemes(
        seed in 0u64..500,
        repeat in 2usize..6,
        drop_pct in 0usize..20,
    ) {
        let drop_rate = drop_pct as f64 / 100.0;
        let (hmac, _) = defended_run(seed, SchemeKind::Hmac, repeat, drop_rate);
        let (again, _) = defended_run(seed, SchemeKind::Hmac, repeat, drop_rate);
        prop_assert_eq!(&hmac, &again, "same run twice");
        let (ed25519, _) = defended_run(seed, SchemeKind::Ed25519, repeat, drop_rate);
        prop_assert_eq!(&hmac, &ed25519, "hmac vs ed25519");
        // The trajectories are non-trivial: the loris actually offended.
        prop_assert!(hmac.iter().any(|t| !t.is_empty()), "no defensive action at all");
    }
}
