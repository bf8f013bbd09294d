//! Live metrics endpoint over real TCP: a cluster of nodes each serving
//! JSON snapshots over HTTP while consensus runs, scraped mid-run by an
//! ordinary HTTP/1.0 client. Exercises the full path the operator docs
//! describe — `NodeConfig::metrics_addr` → event-loop mirror publish →
//! `dagbft_metrics::scrape`.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use dagbft_core::{Label, ProtocolConfig, ShimConfig};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_metrics::{scrape, SCHEMA_VERSION};
use dagbft_protocols::{Brb, BrbIndication, BrbRequest};
use dagbft_transport::{spawn_node, NodeConfig, TcpTransport};

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

/// Pulls `"field":<u64>` out of a flat JSON snapshot without a parser —
/// the snapshot format is deterministic enough (no whitespace, no nested
/// objects under counters/gauges) for exact-match extraction in a test.
fn json_u64(snapshot: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let at = snapshot.find(&needle)? + needle.len();
    let digits: String = snapshot[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn live_nodes_serve_metrics_over_http() {
    let n = 3;
    let registry = KeyRegistry::generate(n, 71);
    let addrs = reserve_ports(n);
    let metrics_endpoint: SocketAddr = "127.0.0.1:0".parse().unwrap();
    let node_config = NodeConfig::default().with_metrics_addr(metrics_endpoint);
    let shim_config = ShimConfig::new(ProtocolConfig::for_n(n)).with_disseminate_every_ms(20);

    let nodes: Vec<_> = (0..n)
        .map(|index| {
            let transport =
                TcpTransport::bind(ServerId::new(index as u32), addrs[index], addrs.clone())
                    .unwrap();
            spawn_node::<Brb<u64>>(shim_config, node_config, &registry, transport).unwrap()
        })
        .collect();
    let endpoints: Vec<SocketAddr> = nodes
        .iter()
        .map(|node| node.metrics_addr().expect("metrics endpoint bound"))
        .collect();
    // Ephemeral binding resolved to distinct real ports.
    assert_eq!(
        endpoints.iter().collect::<BTreeSet<_>>().len(),
        n,
        "each node owns its own endpoint"
    );

    // Drive a few broadcasts so gossip counters move while we scrape.
    for label in 1..=5u64 {
        nodes[(label as usize) % n].request(Label::new(label), BrbRequest::Broadcast(label * 11));
    }

    // Scrape every node mid-run until all of them report validated
    // blocks and a non-trivial DAG — proving the endpoint serves *live*
    // state, not a boot-time snapshot.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut live: BTreeSet<usize> = BTreeSet::new();
    while live.len() < n && Instant::now() < deadline {
        for (index, endpoint) in endpoints.iter().enumerate() {
            let Ok(snapshot) = scrape(*endpoint) else {
                continue;
            };
            assert_eq!(
                json_u64(&snapshot, "schema_version"),
                Some(SCHEMA_VERSION),
                "snapshot carries the schema version"
            );
            let validated = json_u64(&snapshot, "gossip_blocks_validated").unwrap_or(0);
            let dag_blocks = json_u64(&snapshot, "node_dag_blocks").unwrap_or(0);
            if validated > 0 && dag_blocks > 0 {
                live.insert(index);
            }
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    assert_eq!(live.len(), n, "every node served live metrics mid-run");

    // Deliveries actually happened (the counters weren't fiction).
    let mut delivered = 0;
    let drain_deadline = Instant::now() + Duration::from_secs(20);
    while delivered == 0 && Instant::now() < drain_deadline {
        for node in &nodes {
            while let Ok((_, BrbIndication::Deliver { .. })) = node.indications().try_recv() {
                delivered += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(delivered > 0, "cluster made progress while being scraped");

    // Two scrapes of one node: monotonic counters never regress, and the
    // endpoint counts its own requests into the registry it serves.
    let first = scrape(endpoints[0]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let second = scrape(endpoints[0]).unwrap();
    for field in [
        "gossip_blocks_received",
        "gossip_blocks_validated",
        "crypto_verifies",
        "peer1_sent_msgs",
    ] {
        let before = json_u64(&first, field).unwrap();
        let after = json_u64(&second, field).unwrap();
        assert!(after >= before, "{field} regressed: {before} -> {after}");
    }
    // Traffic flowed both ways on at least one peer slot.
    assert!(
        json_u64(&second, "peer1_sent_bytes").unwrap() > 0
            || json_u64(&second, "peer2_sent_bytes").unwrap() > 0,
        "per-peer transport counters are live"
    );
    assert!(
        json_u64(&second, "metrics_http_requests").unwrap() >= 2,
        "the endpoint observes itself"
    );

    // Stopping a node tears its endpoint down with it.
    let mut nodes = nodes;
    let last = nodes.pop().unwrap();
    let endpoint = endpoints[n - 1];
    last.stop();
    assert!(
        scrape(endpoint).is_err(),
        "stopped node's endpoint is closed"
    );
    for node in nodes {
        node.stop();
    }
}

#[test]
fn dropping_the_handle_stops_the_node() {
    let n = 3;
    let registry = KeyRegistry::generate(n, 73);
    let addrs = reserve_ports(n);
    let transport = TcpTransport::bind(ServerId::new(0), addrs[0], addrs.clone()).unwrap();
    let node = spawn_node::<Brb<u64>>(
        ShimConfig::new(ProtocolConfig::for_n(n)),
        NodeConfig::default().with_metrics_addr("127.0.0.1:0".parse().unwrap()),
        &registry,
        transport,
    )
    .unwrap();
    let endpoint = node.metrics_addr().expect("metrics endpoint bound");
    assert!(
        scrape(endpoint).is_ok(),
        "the endpoint serves while the node runs"
    );
    drop(node);
    let deadline = Instant::now() + Duration::from_secs(2);
    while scrape(endpoint).is_ok() {
        assert!(
            Instant::now() < deadline,
            "a dropped handle left its node running"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn metrics_endpoint_is_opt_in() {
    let n = 3;
    let registry = KeyRegistry::generate(n, 72);
    let addrs = reserve_ports(n);
    let transport = TcpTransport::bind(ServerId::new(0), addrs[0], addrs.clone()).unwrap();
    let node = spawn_node::<Brb<u64>>(
        ShimConfig::new(ProtocolConfig::for_n(n)),
        NodeConfig::default(),
        &registry,
        transport,
    )
    .unwrap();
    assert_eq!(node.metrics_addr(), None, "no endpoint unless asked");
    node.stop();
}
