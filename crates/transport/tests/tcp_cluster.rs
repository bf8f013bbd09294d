//! End-to-end over real TCP: the same unmodified `shim(P)` that runs under
//! the deterministic simulator delivers over actual sockets.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use dagbft_core::{Label, ProtocolConfig, ShimConfig};
use dagbft_protocols::{Brb, BrbIndication, BrbRequest};
use dagbft_transport::{spawn_local_cluster, NodeConfig};

fn shim_config(n: usize) -> ShimConfig {
    ShimConfig::new(ProtocolConfig::for_n(n)).with_disseminate_every_ms(20)
}

#[test]
fn brb_broadcast_over_real_tcp() {
    let n = 4;
    let (nodes, _registry) =
        spawn_local_cluster::<Brb<u64>>(n, shim_config(n), NodeConfig::default(), 9)
            .expect("cluster binds");

    nodes[0].request(Label::new(1), BrbRequest::Broadcast(42));

    // Collect one delivery per node, with a generous deadline.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut delivered: BTreeSet<usize> = BTreeSet::new();
    while delivered.len() < n && Instant::now() < deadline {
        for (index, node) in nodes.iter().enumerate() {
            if let Ok((label, indication)) = node.indications().try_recv() {
                assert_eq!(label, Label::new(1));
                assert_eq!(indication, BrbIndication::Deliver(42));
                delivered.insert(index);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(delivered.len(), n, "all nodes deliver over TCP");

    // Clean shutdown; inspect the final DAGs.
    for node in nodes {
        let shim = node.stop();
        assert!(shim.dag().len() >= 3, "DAG actually grew over TCP");
        assert!(shim.dag().check_invariants());
    }
}

#[test]
fn parallel_instances_over_real_tcp() {
    let n = 4;
    let instances = 5;
    let (nodes, _registry) =
        spawn_local_cluster::<Brb<u64>>(n, shim_config(n), NodeConfig::default(), 11)
            .expect("cluster binds");

    for i in 0..instances {
        nodes[i % n].request(Label::new(i as u64), BrbRequest::Broadcast(100 + i as u64));
    }

    let expected = instances * n;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut deliveries = 0usize;
    let mut values: BTreeSet<(usize, u64, u64)> = BTreeSet::new();
    while deliveries < expected && Instant::now() < deadline {
        for (index, node) in nodes.iter().enumerate() {
            while let Ok((label, BrbIndication::Deliver(value))) = node.indications().try_recv() {
                assert_eq!(value, 100 + label.id(), "integrity per instance");
                assert!(
                    values.insert((index, label.id(), value)),
                    "no duplication at node {index}"
                );
                deliveries += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(deliveries, expected, "all instances at all nodes");
    for node in nodes {
        node.stop();
    }
}

#[test]
fn a_node_seals_at_most_once_per_slot() {
    let n = 4;
    let period = 20;
    let started = Instant::now();
    let (nodes, _registry) = spawn_local_cluster::<Brb<u64>>(
        n,
        shim_config(n).with_disseminate_every_ms(period),
        NodeConfig::default(),
        13,
    )
    .expect("cluster binds");
    for (i, node) in nodes.iter().enumerate() {
        node.request(Label::new(i as u64), BrbRequest::Broadcast(i as u64));
    }
    std::thread::sleep(Duration::from_secs(1));
    let shims: Vec<_> = nodes.into_iter().map(|node| node.stop()).collect();
    // Every node lived at most this long; its grid has at most one slot
    // per period in it, each run once, sealing or not. No lower bound:
    // that depends on the host.
    let slots = started.elapsed().as_millis() as u64 / period + 1;
    for shim in shims {
        let built = shim.gossip().stats().blocks_built;
        let woken = shim.seal_stats().slots();
        assert!(
            built <= woken && woken <= slots,
            "{} built {built} blocks in {woken} woken of {slots} slots",
            shim.me()
        );
    }
}
