//! Crash–recovery end to end (§7): a server crashes mid-run — everything
//! except its store is gone — is born again from that store, catches up
//! through gossip, and keeps participating, without ever equivocating.

use std::collections::BTreeSet;

use dagbft::prelude::*;

#[test]
fn restarted_server_catches_up_and_delivers() {
    // The §7 restart scenario: crash mid-run, rejoin, catch up through
    // gossip, never equivocate.
    let n = 4;
    let config = SimConfig::new(n)
        .with_max_time(60_000)
        .with_role(
            3,
            Role::Restart {
                crash_at: 500,
                rejoin_at: 2_000,
            },
        )
        // Instance 1 delivers everywhere pre-crash (4); instance 2 is
        // injected while s3 is down and must deliver at all 4 after the
        // rejoin (another 4). Replayed indications are discarded by the
        // runner, so 8 total.
        .with_stop_after_deliveries(8);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 0,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(10),
    });
    sim.inject(Injection {
        at: 1_000, // while s3 is down
        server: 1,
        label: Label::new(2),
        request: BrbRequest::Broadcast(20),
    });
    let outcome = sim.run();

    // The restarted server delivered the instance injected during its
    // downtime.
    let late_deliverers: BTreeSet<usize> = outcome
        .deliveries_for(Label::new(2))
        .iter()
        .map(|d| d.server.index())
        .collect();
    assert!(
        late_deliverers.contains(&3),
        "restarted server must catch up: {late_deliverers:?}"
    );
    assert_eq!(late_deliverers.len(), 4);

    // No equivocation: in every correct DAG, s3 has at most one block per
    // sequence number.
    for index in outcome.correct_servers() {
        let dag = outcome.shim(index).dag();
        assert!(
            dag.equivocations(ServerId::new(3)).is_empty(),
            "restart must not equivocate (observer {index})"
        );
    }
    // The restarted server is a correct server at the end.
    assert!(outcome.correct_servers().contains(&3));
}

#[test]
fn restart_is_transparent_to_other_servers() {
    // Other servers' delivered values are unaffected by the churn.
    let n = 4;
    let config = SimConfig::new(n)
        .with_max_time(60_000)
        .with_role(
            2,
            Role::Restart {
                crash_at: 300,
                rejoin_at: 1_500,
            },
        )
        .with_stop_after_deliveries(8);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    for i in 0..2u64 {
        sim.inject(Injection {
            at: i * 700, // one before, one during the outage
            server: 0,
            label: Label::new(i),
            request: BrbRequest::Broadcast(100 + i),
        });
    }
    let outcome = sim.run();
    for label in 0..2u64 {
        let values: BTreeSet<u64> = outcome
            .deliveries_for(Label::new(label))
            .iter()
            .map(|d| {
                let BrbIndication::Deliver(v) = d.indication;
                v
            })
            .collect();
        assert_eq!(values, [100 + label].into_iter().collect());
    }
}

#[test]
fn repeated_outages_still_converge() {
    // A flappy server: two restart cycles happen to the same index via a
    // long downtime window; the rest of the cluster never stalls.
    let n = 7; // f = 2: even counting the flapper as faulty, quorums hold
    let config = SimConfig::new(n)
        .with_max_time(90_000)
        .with_role(
            6,
            Role::Restart {
                crash_at: 200,
                rejoin_at: 5_000,
            },
        )
        .with_stop_after_deliveries(3 * 7);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    for i in 0..3u64 {
        sim.inject(Injection {
            at: i * 2_000,
            server: (i as usize) % 5,
            label: Label::new(i),
            request: BrbRequest::Broadcast(i),
        });
    }
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), 21, "all instances everywhere");
    for index in outcome.correct_servers() {
        assert!(outcome.shim(index).dag().check_invariants());
    }
}

/// One request accepted by server 0 at t = 10, ahead of its next seal at
/// t = 50, with server 0 under `role`.
fn request_accepted_before_a_crash(role: Role) -> SimOutcome<Brb<u64>> {
    let config = SimConfig::new(4)
        .with_max_time(2_000)
        .with_network(NetworkModel::reliable_constant(5))
        .with_role(0, role);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    sim.inject(Injection {
        at: 10,
        server: 0,
        label: Label::new(1),
        request: BrbRequest::Broadcast(7),
    });
    sim.run()
}

#[test]
fn restart_keeps_accepted_requests() {
    // The request was accepted (journaled write-ahead) but not yet sealed
    // when the server went down: recovery re-buffers it, and it delivers
    // everywhere once the server is back.
    let outcome = request_accepted_before_a_crash(Role::Restart {
        crash_at: 20,
        rejoin_at: 45,
    });
    let [(at, who, report)] = outcome.recoveries[..] else {
        panic!("expected one recovery: {:?}", outcome.recoveries);
    };
    assert_eq!((at, who), (45, ServerId::new(0)));
    assert_eq!(report.requests_rebuffered, 1);
    assert_eq!(outcome.deliveries.len(), 4, "the accepted request survived");
}

#[test]
fn restart_with_an_empty_window_still_crashes() {
    // None of server 0's own events falls inside [20, 21): the crash is an
    // event of its own, not something its next timer notices.
    let outcome = request_accepted_before_a_crash(Role::Restart {
        crash_at: 20,
        rejoin_at: 21,
    });
    assert_eq!(outcome.recoveries.len(), 1);
    assert_eq!(outcome.recoveries[0].0, 21);
    assert_eq!(outcome.deliveries.len(), 4);
}

#[test]
fn crash_stops_a_server_for_good() {
    let outcome = request_accepted_before_a_crash(Role::Crash { at: 20 });
    assert!(outcome.recoveries.is_empty());
    assert!(!outcome.correct_servers().contains(&0));
    assert_eq!(outcome.deliveries.len(), 0, "the request died with s0");
    let seen_by_s1 = outcome.dag(1).expect("s1 is up");
    let sealed = seen_by_s1
        .iter()
        .filter(|b| b.builder() == ServerId::new(0));
    assert_eq!(sealed.count(), 1, "s0 sealed at t = 0 and never again");
}
