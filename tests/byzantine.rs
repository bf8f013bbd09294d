//! Experiment E12: safety of the embedded protocols under byzantine
//! behaviour mixes at `f ≤ ⌊(n−1)/3⌋`, and graceful degradation beyond.

use std::collections::BTreeSet;

use dagbft::prelude::*;

fn values_delivered(outcome: &SimOutcome<Brb<u64>>) -> BTreeSet<u64> {
    outcome
        .deliveries
        .iter()
        .map(|d| {
            let BrbIndication::Deliver(v) = d.indication;
            v
        })
        .collect()
}

#[test]
fn silent_servers_at_f_do_not_block() {
    let config = SimConfig::new(4)
        .with_max_time(30_000)
        .with_role(3, Role::Silent)
        .with_stop_after_deliveries(3);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 1,
        label: Label::new(1),
        request: BrbRequest::Broadcast(8),
    });
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), 3);
    assert_eq!(values_delivered(&outcome), [8].into_iter().collect());
}

#[test]
fn selective_broadcaster_starves_no_one() {
    // s0 sends its blocks only to s1; s2/s3 must still converge via the
    // references in s1's blocks + FWD recovery (Algorithm 1 lines 10–13).
    let config = SimConfig::new(4)
        .with_max_time(60_000)
        .with_role(
            0,
            Role::SelectiveBroadcast {
                targets: [1].into_iter().collect(),
            },
        )
        .with_stop_after_deliveries(3);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 1,
        label: Label::new(1),
        request: BrbRequest::Broadcast(3),
    });
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), 3, "correct servers delivered");
    // FWD requests actually happened (the starved servers pulled blocks).
    assert!(outcome.net.fwd_sent > 0, "selective sending forced FWDs");
}

#[test]
fn equivocator_visible_in_all_correct_dags_eventually() {
    let config = SimConfig::new(4)
        .with_max_time(20_000)
        .with_role(2, Role::Equivocate { at_seq: 1 });
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(1),
    });
    let outcome = sim.run();
    for index in outcome.correct_servers() {
        let equivocations = outcome.shim(index).dag().equivocations(ServerId::new(2));
        assert_eq!(
            equivocations.len(),
            1,
            "server {index} did not record the equivocation"
        );
        assert_eq!(equivocations[0].0, SeqNum::new(1));
    }
}

#[test]
fn mixed_adversary_at_n_10() {
    // n = 10, f = 3: silent + equivocator + selective — the full zoo.
    let config = SimConfig::new(10)
        .with_max_time(60_000)
        .with_role(7, Role::Silent)
        .with_role(8, Role::Equivocate { at_seq: 0 })
        .with_role(
            9,
            Role::SelectiveBroadcast {
                targets: [0, 1, 2].into_iter().collect(),
            },
        )
        .with_stop_after_deliveries(7);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(10),
    });
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), 7, "all correct servers deliver");
    assert_eq!(values_delivered(&outcome), [10].into_iter().collect());
}

#[test]
fn beyond_f_silent_safety_preserved_liveness_lost() {
    // 2 silent of 4 (> f = 1): BRB cannot reach quorums — nothing may be
    // delivered (safety over liveness), and nothing may be delivered
    // *inconsistently*.
    let config = SimConfig::new(4)
        .with_max_time(10_000)
        .with_role(2, Role::Silent)
        .with_role(3, Role::Silent);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(4),
    });
    let outcome = sim.run();
    assert!(
        outcome.deliveries.is_empty(),
        "2f+1 quorum unreachable with n−f−1 = 2 correct echoes"
    );
}

#[test]
fn crash_recovery_of_the_rest() {
    // One crash mid-run: remaining servers keep building and delivering
    // later instances.
    let config = SimConfig::new(4)
        .with_max_time(60_000)
        .with_role(3, Role::Crash { at: 500 })
        // Instance 1 may deliver at all 4 servers before the crash at
        // t=500; instance 2 delivers at the 3 survivors.
        .with_stop_after_deliveries(7);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(1),
    });
    sim.inject(Injection {
        at: 2_000, // after the crash
        server: 1,
        label: Label::new(2),
        request: BrbRequest::Broadcast(2),
    });
    let outcome = sim.run();
    let late: Vec<_> = outcome
        .deliveries
        .iter()
        .filter(|d| d.label == Label::new(2))
        .collect();
    assert_eq!(late.len(), 3, "post-crash instance delivered by survivors");
}

#[test]
fn bcb_consistency_but_not_totality_under_equivocation() {
    // The framework preserves each P's *exact* property set: consistent
    // broadcast keeps consistency under an equivocating builder, but
    // unlike BRB it never promises totality. The request goes to honest
    // server 1, so the broadcaster is correct; we assert only consistency.
    let config = SimConfig::new(4)
        .with_max_time(20_000)
        .with_role(0, Role::Equivocate { at_seq: 0 });
    let mut sim: Simulation<Bcb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 1,
        label: Label::new(1),
        request: BcbRequest::Broadcast(6),
    });
    let outcome = sim.run();
    let values: BTreeSet<u64> = outcome
        .deliveries
        .iter()
        .map(|d| {
            let BcbIndication::Deliver(v) = d.indication;
            v
        })
        .collect();
    assert!(values.len() <= 1, "BCB consistency violated");
}

#[test]
fn smr_byzantine_leader_halts_safely() {
    // Label 0 → leader s0, which is byzantine-silent: its instance makes
    // no progress, but a different label with a correct leader commits.
    let config = SimConfig::new(4)
        .with_max_time(30_000)
        .with_role(0, Role::Silent)
        .with_stop_after_deliveries(3);
    let mut sim: Simulation<Smr<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 1,
        label: Label::new(0), // leader s0: will never commit
        request: SmrRequest::Propose(111),
    });
    sim.inject(Injection {
        at: 0,
        server: 1,
        label: Label::new(1), // leader s1: commits
        request: SmrRequest::Propose(222),
    });
    let outcome = sim.run();
    for delivery in &outcome.deliveries {
        assert_eq!(
            delivery.label,
            Label::new(1),
            "only the correct leader commits"
        );
        assert_eq!(delivery.indication, SmrIndication::Committed(0, 222));
    }
    assert_eq!(outcome.deliveries.len(), 3);
}

#[test]
fn equivocation_yields_transferable_proofs() {
    // §6 accountability: every correct server can extract a self-contained
    // proof convicting the equivocator, verifiable by any third party.
    let config = SimConfig::new(4)
        .with_max_time(20_000)
        .with_role(1, Role::Equivocate { at_seq: 0 });
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(3),
    });
    let outcome = sim.run();
    let registry = KeyRegistry::generate(4, 42); // same seed as SimConfig::new
    let verifier = registry.verifier();
    for index in outcome.correct_servers() {
        let proofs = dagbft::dag::accountability::collect_proofs(outcome.shim(index).dag());
        assert_eq!(proofs.len(), 1, "server {index} extracts one proof");
        let proof = &proofs[0];
        assert_eq!(proof.accused(), ServerId::new(1));
        assert!(proof.verify(&verifier), "proof convinces a third party");
        // Transferable: survives the wire.
        let bytes = dagbft::codec::encode_to_vec(proof);
        let decoded: dagbft::dag::EquivocationProof =
            dagbft::codec::decode_from_slice(&bytes).unwrap();
        assert!(decoded.verify(&verifier));
    }
}

#[test]
fn outsider_builder_flood_is_rejected_on_receipt() {
    // s3 floods blocks naming a builder outside the server set, each
    // citing a predecessor nobody holds. They are rejected on receipt —
    // never buffered, so no `FWD` is ever addressed to the phantom server
    // (which the simulator could not route) — and the run completes.
    let config = SimConfig::new(4)
        .with_max_time(10_000)
        .with_role(3, Role::OutsiderFlood { per_round: 2 })
        .with_stop_after_deliveries(3);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 1,
        label: Label::new(1),
        request: BrbRequest::Broadcast(5),
    });
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), 3);
    assert_eq!(values_delivered(&outcome), [5].into_iter().collect());
    for index in outcome.correct_servers() {
        let gossip = outcome.shim(index).gossip();
        assert!(
            gossip.stats().invalid_blocks > 0,
            "the flood reached s{index}"
        );
        assert!(gossip.rejected().iter().all(|(_, reason)| matches!(
            reason,
            dagbft::dag::InvalidBlockError::UnknownBuilder { claimed } if claimed.index() == 4
        )));
    }
}

#[test]
fn forged_signature_blocks_never_enter_dags() {
    // Inject a block with a forged signature directly through the runner's
    // network: every correct server must reject it. We emulate by running
    // a normal sim then checking the gossip rejection counters are zero
    // (no forgery happened) — and separately, at the unit level, that a
    // forged block is rejected (covered in core). Here we assert the
    // aggregate invariant: every block in every correct DAG verifies.
    let config = SimConfig::new(4)
        .with_max_time(10_000)
        .with_role(0, Role::Equivocate { at_seq: 0 })
        .with_stop_after_deliveries(3);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 1,
        label: Label::new(1),
        request: BrbRequest::Broadcast(2),
    });
    let outcome = sim.run();
    let registry = KeyRegistry::generate(4, 42); // same seed as SimConfig::new
    let verifier = registry.verifier();
    for index in outcome.correct_servers() {
        for block in outcome.shim(index).dag().iter() {
            assert!(block.verify_signature(&verifier));
        }
    }
}

/// One run with byzantine server 3 of four as the broadcaster: `request`
/// is injected at it, and its role decides where the block that
/// inscribes it goes.
fn byzantine_requester<P: DeterministicProtocol>(
    role: &Role,
    seed: u64,
    request: P::Request,
) -> SimOutcome<P> {
    let config = SimConfig::new(4)
        .with_seed(seed)
        .with_max_time(30_000)
        .with_role(3, role.clone())
        .with_stop_after_deliveries(3);
    let mut sim: Simulation<P> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 3,
        label: Label::new(1),
        request,
    });
    sim.run()
}

/// Each of the three honest servers delivered `value`, once.
fn each_honest_server_delivered<P: DeterministicProtocol>(
    outcome: &SimOutcome<P>,
    value: &P::Indication,
    run: &str,
) {
    let servers: BTreeSet<usize> = outcome
        .deliveries
        .iter()
        .map(|d| d.server.index())
        .collect();
    assert_eq!(outcome.deliveries.len(), 3, "{run}");
    assert_eq!(servers, [0, 1, 2].into_iter().collect(), "{run}");
    assert!(
        outcome.deliveries.iter().all(|d| d.indication == *value),
        "{run}"
    );
}

#[test]
fn a_byzantine_broadcaster_is_delivered_by_every_honest_server() {
    // The broadcaster itself is byzantine: it inscribes the request, then
    // sends the block that carries it to one server only, repeats it, or
    // forks at its first, second or third block. A chain that does not
    // fork is interpreted as a correct sender's, and one that forks is
    // convicted — either way every honest server delivers, for `Brb` and
    // for `Bcb` alike.
    let roles = [
        Role::SelectiveBroadcast {
            targets: [0].into_iter().collect(),
        },
        Role::SlowLoris { repeat: 3 },
        Role::Equivocate { at_seq: 0 },
        Role::Equivocate { at_seq: 1 },
        Role::Equivocate { at_seq: 2 },
    ];
    for role in &roles {
        for seed in 0..16 {
            let run = format!("{role:?}, seed {seed}");
            let brb = byzantine_requester::<Brb<u64>>(role, seed, BrbRequest::Broadcast(seed));
            each_honest_server_delivered(&brb, &BrbIndication::Deliver(seed), &run);
            let bcb = byzantine_requester::<Bcb<u64>>(role, seed, BcbRequest::Broadcast(seed));
            each_honest_server_delivered(&bcb, &BcbIndication::Deliver(seed), &run);
            if *role == (Role::Equivocate { at_seq: 0 }) {
                // The fork at the block that carries the request is in
                // the honest DAGs by the time all three delivered.
                for accused in [&brb.accused, &bcb.accused] {
                    assert!(accused.contains(&ServerId::new(3)), "{run}");
                }
            }
        }
    }
}
