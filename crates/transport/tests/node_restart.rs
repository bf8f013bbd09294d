//! Durable node restart over real TCP: a node journals to disk, crashes
//! (process-level stop), recovers from its journal on respawn, and keeps
//! participating — catching up on what it missed through gossip's `FWD`
//! path, without ever equivocating.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use dagbft_core::{BlockStore, Label, ProtocolConfig, ShimConfig};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_protocols::{Brb, BrbIndication, BrbRequest};
use dagbft_store::FileStore;
use dagbft_transport::{spawn_node, spawn_node_with_store, NodeConfig, NodeHandle, TcpTransport};

fn shim_config(n: usize) -> ShimConfig {
    ShimConfig::new(ProtocolConfig::for_n(n)).with_disseminate_every_ms(20)
}

/// Reserves `n` localhost ports by binding and releasing probe listeners.
fn reserve_ports(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    listeners
        .iter()
        .map(|listener| listener.local_addr().unwrap())
        .collect()
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dagbft-node-restart-{tag}-{}", std::process::id()))
}

#[test]
fn durable_node_recovers_journal_and_rejoins_cluster() {
    let n = 4;
    let registry = KeyRegistry::generate(n, 23);
    let addrs = reserve_ports(n);
    let dir = unique_dir("a");
    let _ = std::fs::remove_dir_all(&dir);

    // Nodes 0..3 are plain; node 3 journals to disk.
    let mut nodes = Vec::new();
    for index in 0..n - 1 {
        let transport =
            TcpTransport::bind(ServerId::new(index as u32), addrs[index], addrs.clone()).unwrap();
        nodes.push(
            spawn_node::<Brb<u64>>(shim_config(n), NodeConfig::default(), &registry, transport)
                .unwrap(),
        );
    }
    let durable = {
        let transport = TcpTransport::bind(ServerId::new(3), addrs[3], addrs.clone()).unwrap();
        let store = Box::new(FileStore::open_dir(&dir).unwrap());
        let (handle, report) = spawn_node_with_store::<Brb<u64>>(
            shim_config(n),
            NodeConfig::default(),
            &registry,
            transport,
            store,
        )
        .unwrap();
        assert_eq!(report.journal_blocks, 0, "fresh journal");
        handle
    };

    // Instance 1 delivers everywhere (including the durable node).
    nodes[0].request(Label::new(1), BrbRequest::Broadcast(10));
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut delivered: BTreeSet<usize> = BTreeSet::new();
    while delivered.len() < n && Instant::now() < deadline {
        for (index, node) in nodes.iter().chain([&durable]).enumerate() {
            if let Ok((label, BrbIndication::Deliver(value))) = node.indications().try_recv() {
                assert_eq!((label, value), (Label::new(1), 10));
                delivered.insert(index);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(delivered.len(), n, "instance 1 delivers everywhere");

    // "Crash": stop the durable node. Its journal survives on disk.
    let crashed_shim = durable.stop();
    let journaled_pre_crash = crashed_shim.dag().len();
    assert!(journaled_pre_crash >= 3, "DAG grew before the crash");
    drop(crashed_shim);

    // Inject instance 2 while the node is down; the other three form a
    // quorum and deliver without it.
    nodes[1].request(Label::new(2), BrbRequest::Broadcast(20));
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut live_delivered: BTreeSet<usize> = BTreeSet::new();
    while live_delivered.len() < n - 1 && Instant::now() < deadline {
        for (index, node) in nodes.iter().enumerate() {
            if let Ok((label, BrbIndication::Deliver(value))) = node.indications().try_recv() {
                assert_eq!((label, value), (Label::new(2), 20));
                live_delivered.insert(index);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(live_delivered.len(), n - 1, "quorum delivers during outage");

    // Restart from the journal on the same port.
    let restarted = {
        let transport = TcpTransport::bind(ServerId::new(3), addrs[3], addrs.clone()).unwrap();
        let store = Box::new(FileStore::open_dir(&dir).unwrap());
        let (handle, report) = spawn_node_with_store::<Brb<u64>>(
            shim_config(n),
            NodeConfig::default(),
            &registry,
            transport,
            store,
        )
        .unwrap();
        assert!(report.journal_blocks > 0, "journal replayed: {report:?}");
        handle
    };

    // The restarted node catches up on instance 2 (missed while down) via
    // gossip, and re-raises instance 1 from the replay (at-least-once).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut caught_up = false;
    let mut replayed = false;
    while !(caught_up && replayed) && Instant::now() < deadline {
        if let Ok((label, BrbIndication::Deliver(value))) = restarted.indications().try_recv() {
            match (label, value) {
                (label, 10) if label == Label::new(1) => replayed = true,
                (label, 20) if label == Label::new(2) => caught_up = true,
                other => panic!("unexpected delivery {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(replayed, "replay re-raises the pre-crash delivery");
    assert!(
        caught_up,
        "restarted node catches up on the missed instance"
    );

    // No equivocation anywhere: the recovered builder never reused a
    // sequence number (§7's caveat).
    let restarted_shim = restarted.stop();
    assert!(restarted_shim.dag().len() >= journaled_pre_crash);
    assert!(restarted_shim
        .dag()
        .equivocations(ServerId::new(3))
        .is_empty());
    for node in nodes {
        let shim = node.stop();
        assert!(
            shim.dag().equivocations(ServerId::new(3)).is_empty(),
            "restart must not equivocate"
        );
        assert!(shim.dag().check_invariants());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_node_restarts_from_the_snapshot_its_store_holds() {
    let n = 4;
    let registry = KeyRegistry::generate(n, 29);
    let addrs = reserve_ports(n);
    let dir = unique_dir("snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    let durable_node = |store: Box<dyn BlockStore>| {
        let transport = TcpTransport::bind(ServerId::new(3), addrs[3], addrs.clone()).unwrap();
        spawn_node_with_store::<Brb<u64>>(
            shim_config(n),
            NodeConfig::default(),
            &registry,
            transport,
            store,
        )
        .unwrap()
    };
    let await_delivery = |node: &NodeHandle<Brb<u64>>, label: Label, value: u64| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(delivered) = node.indications().try_recv() {
                assert_eq!(delivered, (label, BrbIndication::Deliver(value)));
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("no delivery of {label}");
    };

    let nodes: Vec<_> = (0..n - 1)
        .map(|index| {
            let me = ServerId::new(index as u32);
            let transport = TcpTransport::bind(me, addrs[index], addrs.clone()).unwrap();
            spawn_node::<Brb<u64>>(shim_config(n), NodeConfig::default(), &registry, transport)
                .unwrap()
        })
        .collect();
    let (durable, _) = durable_node(Box::new(FileStore::open_dir(&dir).unwrap()));
    nodes[0].request(Label::new(1), BrbRequest::Broadcast(10));
    await_delivery(&durable, Label::new(1), 10);

    // Stop the durable node and leave a snapshot of everything it
    // interpreted in its journal, as a snapshotting embedder would have.
    let mut stopped = durable.stop();
    let covered = stopped.interpreter().interpreted_count();
    let snapshot = stopped.interpreter().snapshot().unwrap();
    let mut store = stopped.detach_store().expect("the store is attached");
    store.append_snapshot(covered as u64, &snapshot).unwrap();
    store.sync().unwrap();
    drop((store, stopped));

    let (restarted, report) = durable_node(Box::new(FileStore::open_dir(&dir).unwrap()));
    assert!(report.snapshot_covered > 0, "{report:?}");
    assert!(report.replayed_blocks < report.journal_blocks, "{report:?}");
    // The snapshot holds instance 1 delivered, so nothing re-raises it,
    // and the restarted node goes on to deliver a new instance.
    nodes[1].request(Label::new(2), BrbRequest::Broadcast(20));
    await_delivery(&restarted, Label::new(2), 20);

    let restarted = restarted.stop();
    assert!(restarted.dag().equivocations(ServerId::new(3)).is_empty());
    for node in nodes {
        assert!(node.stop().dag().check_invariants());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
