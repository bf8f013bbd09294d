//! A live 4-server cluster over real TCP sockets.
//!
//! The same unmodified `shim(P)` that the deterministic simulator drives
//! runs here over localhost TCP: threads, length-prefixed frames, lazy
//! reconnects — with gossip's `FWD` mechanism covering any frames lost
//! across reconnections.
//!
//! Run with: `cargo run --release --example tcp_cluster`

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use dagbft::prelude::*;
use dagbft::transport::{spawn_local_cluster, NodeConfig};

fn main() {
    let n = 4;
    let config = ShimConfig::new(ProtocolConfig::for_n(n)).with_disseminate_every_ms(25);
    let (nodes, _registry) =
        spawn_local_cluster::<Brb<u64>>(n, config, NodeConfig::default(), 2026)
            .expect("bind localhost cluster");
    println!("=== {n}-server BRB cluster over real TCP (localhost) ===\n");

    let started = Instant::now();
    nodes[0].request(Label::new(1), BrbRequest::Broadcast(42));

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut delivered: BTreeSet<usize> = BTreeSet::new();
    while delivered.len() < n && Instant::now() < deadline {
        for (index, node) in nodes.iter().enumerate() {
            if let Ok((label, BrbIndication::Deliver(value))) = node.indications().try_recv() {
                println!(
                    "t={:>4}ms  {} delivered {} on {}",
                    started.elapsed().as_millis(),
                    node.me(),
                    value,
                    label
                );
                delivered.insert(index);
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    assert_eq!(delivered.len(), n, "all nodes must deliver");
    println!("\n--- final DAGs after clean shutdown ---");
    for node in nodes {
        let me = node.me();
        let shim = node.stop();
        println!(
            "{}: {} blocks, {} edges, interpreter materialized {} messages",
            me,
            shim.dag().len(),
            shim.dag().edge_count(),
            shim.interpreter().stats().messages_materialized
        );
        assert!(shim.dag().check_invariants());
    }
    println!("\nOK: BRB delivered on a real network, wall-clock end to end.");
}
