//! The node event loop: a [`Shim`] driven by a [`TcpTransport`].

use std::iter::{from_fn, once};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dagbft_core::{
    shim::SetupError, BlockStore, DeterministicProtocol, Label, NetCommand, RecoverError,
    RecoveryReport, Shim, ShimConfig, TimeMs, INGEST_BURST_CAP,
};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_metrics::{publish, MetricsRegistry, MetricsServer};

use crate::tcp::TcpTransport;

/// What a node runs beside its shim (which keeps its own clock:
/// [`ShimConfig::disseminate_every_ms`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeConfig {
    /// When set, the node serves a live JSON metrics snapshot over HTTP
    /// from this address (port 0 binds ephemerally — read the bound
    /// address back via [`NodeHandle::metrics_addr`]). The event loop
    /// mirrors every counter documented in `docs/METRICS.md` into the
    /// endpoint's registry after each wake that ran a timer, off the hot
    /// path. `None` (the default) spawns no endpoint and costs nothing.
    pub metrics_addr: Option<SocketAddr>,
}

impl NodeConfig {
    /// Serves live metrics over HTTP from `addr` (see
    /// [`NodeConfig::metrics_addr`]).
    pub fn with_metrics_addr(mut self, addr: SocketAddr) -> Self {
        self.metrics_addr = Some(addr);
        self
    }
}

/// Control handle for a running node thread.
///
/// Dropping the handle without [`NodeHandle::stop`] stops the node as
/// `stop` does (transport and metrics endpoint shut down) and drops its
/// final shim.
#[derive(Debug)]
pub struct NodeHandle<P: DeterministicProtocol> {
    me: ServerId,
    requests_tx: Sender<(Label, P::Request)>,
    indications_rx: Receiver<(Label, P::Indication)>,
    stop_tx: Sender<()>,
    metrics_addr: Option<SocketAddr>,
    thread: Option<JoinHandle<Shim<P>>>,
}

impl<P: DeterministicProtocol> NodeHandle<P> {
    /// The server this node runs as.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// The bound address of this node's live metrics endpoint (`None`
    /// unless [`NodeConfig::metrics_addr`] was set). Scrape it with
    /// [`dagbft_metrics::scrape`] or any HTTP client.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Submits `request(label, request)` to the node's shim.
    pub fn request(&self, label: Label, request: P::Request) {
        let _ = self.requests_tx.send((label, request));
    }

    /// The channel of indications the node's user receives.
    pub fn indications(&self) -> &Receiver<(Label, P::Indication)> {
        &self.indications_rx
    }

    /// Stops the node and returns its final shim (DAG, stats) for
    /// inspection.
    pub fn stop(mut self) -> Shim<P> {
        let _ = self.stop_tx.send(());
        self.thread
            .take()
            .expect("stop called once")
            .join()
            .expect("node thread exits cleanly")
    }
}

/// Spawns a node: a [`Shim<P>`] event loop over an already-bound
/// transport.
///
/// Each drain of the inbound channel is handed to the shim as one
/// `Shim::on_message_burst` call, so the blocks of a drain are indexed
/// together and their signatures verified as they settle, on the event
/// loop's own thread.
///
/// # Errors
///
/// [`SetupError::UnknownServer`] if `registry` lacks a key for
/// `transport.me()`.
pub fn spawn_node<P>(
    config: ShimConfig,
    node_config: NodeConfig,
    registry: &KeyRegistry,
    transport: TcpTransport,
) -> Result<NodeHandle<P>, SetupError>
where
    P: DeterministicProtocol + Send + Sync + 'static,
    P::Request: Send,
    P::Message: Send,
    P::Indication: Send,
{
    let shim: Shim<P> = Shim::new(transport.me(), config, registry)?;
    Ok(spawn_with_shim(
        shim,
        node_config,
        registry.clone(),
        None,
        transport,
    ))
}

/// Spawns a node with a durable [`BlockStore`]: the shim is **born from**
/// whatever the store holds ([`Shim::recover_from_store`]; empty store →
/// fresh start) before the event loop begins, and every block admitted
/// from then on is journaled through the same store.
///
/// On restart after a crash interpretation resumes from the store's
/// latest snapshot, when `P` keeps snapshots and the store holds one, and
/// replays only the journal suffix past it
/// ([`RecoveryReport::snapshot_covered`] says how much it skipped);
/// otherwise the whole journal replays from genesis. Gossip resumes from
/// the recovered frontier. The node itself writes no snapshots.
///
/// Blocks lost to a torn journal tail come back through the normal `FWD`
/// path, one block at a time: `FWD` names a single block, so each lost
/// block is requested by reference once a block naming it arrives, and
/// the re-admitted blocks are re-journaled. The
/// recovered builder never reuses a sequence number (§7's equivocation
/// caveat): recovery refuses to resume below the highest self-built
/// record ever synced, and a node whose store fails at runtime stops
/// sealing own blocks (see [`Shim::disseminate`]).
///
/// Indications raised by the replay are delivered to the (restarted)
/// user through the normal channel — restart semantics are at-least-once.
///
/// # Errors
///
/// Any [`RecoverError`]: an unreadable or corrupted journal, a broken
/// topology, an own chain truncated below its durable marker, or a
/// registry missing `transport.me()`'s key.
pub fn spawn_node_with_store<P>(
    config: ShimConfig,
    node_config: NodeConfig,
    registry: &KeyRegistry,
    transport: TcpTransport,
    store: Box<dyn BlockStore>,
) -> Result<(NodeHandle<P>, RecoveryReport), RecoverError>
where
    P: DeterministicProtocol + Send + Sync + 'static,
    P::Request: Send,
    P::Message: Send,
    P::Indication: Send,
{
    let (shim, report) = Shim::recover_from_store(transport.me(), config, registry, store)?;
    let handle = spawn_with_shim(shim, node_config, registry.clone(), Some(report), transport);
    Ok((handle, report))
}

fn spawn_with_shim<P>(
    mut shim: Shim<P>,
    node_config: NodeConfig,
    registry: KeyRegistry,
    recovery: Option<RecoveryReport>,
    transport: TcpTransport,
) -> NodeHandle<P>
where
    P: DeterministicProtocol + Send + Sync + 'static,
    P::Request: Send,
    P::Message: Send,
    P::Indication: Send,
{
    let me = transport.me();
    let (requests_tx, requests_rx) = unbounded::<(Label, P::Request)>();
    let (indications_tx, indications_rx) = unbounded();
    let (stop_tx, stop_rx) = unbounded::<()>();

    // The observability side-car: bind the endpoint before the event
    // loop starts so the caller learns the resolved address, then hand
    // the server to the loop thread for shutdown. A bind failure is
    // reported by running without an endpoint rather than killing the
    // node — metrics must never wedge consensus.
    let (metrics, metrics_server) = match node_config.metrics_addr {
        Some(addr) => {
            let registry_metrics = Arc::new(MetricsRegistry::new());
            match MetricsServer::serve(registry_metrics.clone(), addr) {
                Ok(server) => (Some(registry_metrics), Some(server)),
                Err(_) => (None, None),
            }
        }
        None => (None, None),
    };
    let metrics_addr = metrics_server.as_ref().map(MetricsServer::local_addr);
    if let (Some(metrics), Some(report)) = (metrics.as_ref(), recovery.as_ref()) {
        publish::publish_recovery(metrics, report);
    }

    let thread = std::thread::spawn(move || {
        let start = Instant::now();
        let now_ms = |start: Instant| -> TimeMs { start.elapsed().as_millis() as TimeMs };
        loop {
            // The shim's clock, on this node's clock from its start.
            let now = now_ms(start);
            if now >= shim.next_wake() {
                route(&transport, shim.wake(now));
                if let Some(metrics) = metrics.as_ref() {
                    publish_node_metrics(metrics, &shim, &transport, &registry, now);
                }
            }
            for indication in shim.poll_indications() {
                let _ = indications_tx.send(indication);
            }

            // Wait for the next message, request, or timer deadline.
            let wait = shim.next_wake().saturating_sub(now_ms(start)).clamp(1, 50);
            crossbeam::channel::select! {
                recv(transport.incoming()) -> incoming => {
                    if let Ok(first) = incoming {
                        // The first message and whatever already waits
                        // behind it, as one run (`INGEST_BURST_CAP`).
                        let waiting = || transport.incoming().try_recv().ok();
                        let run = once(first).chain(from_fn(waiting)).take(INGEST_BURST_CAP);
                        route(&transport, shim.on_message_burst(run, now_ms(start)));
                    }
                }
                // Polled before the requests: once the handle is dropped
                // both channels disconnect, and a disconnected arm fires
                // on every turn, so this one must be the one that does.
                recv(stop_rx) -> _ => {
                    if let Some(server) = metrics_server {
                        server.shutdown();
                    }
                    transport.shutdown();
                    return shim;
                }
                recv(requests_rx) -> request => {
                    if let Ok((label, request)) = request {
                        shim.request(label, request);
                    }
                }
                default(Duration::from_millis(wait)) => {}
            }
        }
    });

    NodeHandle {
        me,
        requests_tx,
        indications_rx,
        stop_tx,
        metrics_addr,
        thread: Some(thread),
    }
}

/// Mirrors every live counter the node owns into the endpoint's
/// registry: gossip admission, why slots sealed, interpreter footprint, crypto totals, store health, per-peer
/// transport traffic, and node-level liveness gauges. Runs after each
/// wake that ran a slot, sealing or not, off the admission hot path.
fn publish_node_metrics<P>(
    metrics: &MetricsRegistry,
    shim: &Shim<P>,
    transport: &TcpTransport,
    registry: &KeyRegistry,
    now: TimeMs,
) where
    P: DeterministicProtocol,
{
    publish::publish_gossip(metrics, shim.gossip().stats());
    publish::publish_seals(metrics, shim.seal_stats());
    publish::publish_defense(metrics, shim.gossip().defense(), now);
    publish::publish_footprint(metrics, &shim.footprint());
    publish::publish_crypto(metrics, registry.metrics());
    publish::publish_store_health(metrics, shim.store_attached(), shim.store_error().is_some());
    publish::publish_node(
        metrics,
        now,
        shim.dag().len() as u64,
        shim.pending_requests() as u64,
    );
    for (peer, traffic) in transport.peer_traffic().iter().enumerate() {
        publish::publish_peer(
            metrics,
            peer,
            traffic.sent_msgs,
            traffic.sent_bytes,
            traffic.recv_msgs,
            traffic.recv_bytes,
        );
        publish::publish_peer_refusals(metrics, peer, traffic.refused_hellos);
    }
}

fn route(transport: &TcpTransport, commands: Vec<NetCommand>) {
    for command in commands {
        match command {
            NetCommand::Broadcast { message } => transport.broadcast(message),
            NetCommand::SendTo { to, message } => transport.send(to, message),
        }
    }
}

/// Spawns `n` nodes on localhost (ephemeral ports) running `shim(P)` over
/// TCP, all sharing one deterministic key registry.
///
/// # Errors
///
/// Propagates listener bind failures.
pub fn spawn_local_cluster<P>(
    n: usize,
    config: ShimConfig,
    node_config: NodeConfig,
    seed: u64,
) -> std::io::Result<(Vec<NodeHandle<P>>, KeyRegistry)>
where
    P: DeterministicProtocol + Send + Sync + 'static,
    P::Request: Send,
    P::Message: Send,
    P::Indication: Send,
{
    let registry = KeyRegistry::generate(n, seed);
    // Bind all listeners to learn the port assignment, then hand each to
    // its transport with the full peer table: no port is ever released.
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(std::net::TcpListener::local_addr)
        .collect::<std::io::Result<_>>()?;
    let mut handles = Vec::with_capacity(n);
    for (index, listener) in listeners.into_iter().enumerate() {
        let me = ServerId::new(index as u32);
        let transport = TcpTransport::from_listener(me, listener, addrs.clone())?;
        let handle = spawn_node::<P>(config, node_config, &registry, transport)
            .expect("registry covers all servers");
        handles.push(handle);
    }
    Ok((handles, registry))
}
