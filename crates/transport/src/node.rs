//! The node event loop: a [`Shim`] driven by a [`TcpTransport`].

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use dagbft_core::{
    shim::SetupError, BlockStore, DeterministicProtocol, Label, NetCommand, RecoverError,
    RecoveryReport, Shim, ShimConfig, TimeMs,
};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_metrics::{publish, MetricsRegistry, MetricsServer};

use crate::tcp::TcpTransport;

/// Pacing configuration for a node's event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeConfig {
    /// Interval between `disseminate()` calls (Algorithm 3, lines 10–11).
    pub disseminate_every_ms: u64,
    /// Interval between `FWD` retry ticks.
    pub tick_every_ms: u64,
    /// When set, the node serves a live JSON metrics snapshot over HTTP
    /// from this address (port 0 binds ephemerally — read the bound
    /// address back via [`NodeHandle::metrics_addr`]). The event loop
    /// mirrors every counter documented in `docs/METRICS.md` into the
    /// endpoint's registry on each tick (`tick_every_ms` cadence), off
    /// the hot path. `None` (the default) spawns no endpoint and costs
    /// nothing.
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

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            disseminate_every_ms: 50,
            tick_every_ms: 100,
            metrics_addr: None,
        }
    }
}

/// Control handle for a running node thread.
///
/// Dropping the handle without [`NodeHandle::stop`] detaches the node.
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
/// together and their signatures verified in batched waves on the event
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
/// On restart after a crash the whole journal replays from genesis and
/// gossip resumes from the recovered frontier. The node neither writes
/// nor reads interpreter snapshots — it is generic over any
/// [`DeterministicProtocol`] — so [`RecoveryReport::snapshot_covered`]
/// is always 0 here; an embedder whose protocol implements
/// `SnapshotProtocol` and who wants suffix-only catch-up drives the shim
/// itself via `Shim::recover_from_store_with_snapshots` +
/// `Shim::enable_snapshots`.
///
/// Blocks lost to a torn journal tail come back through the normal `FWD`
/// path: peers' newer blocks reference them, the shim requests the
/// missing range, and the re-admitted blocks are re-journaled. The
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

/// Most messages of one channel drain handed to the shim as one ingest
/// call: bounds the latency draining adds under sustained load.
const INGEST_BURST_CAP: usize = 1024;

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
    let pacing = node_config;

    // The observability side-car: bind the endpoint before the event
    // loop starts so the caller learns the resolved address, then hand
    // the server to the loop thread for shutdown. A bind failure is
    // reported by running without an endpoint rather than killing the
    // node — metrics must never wedge consensus.
    let (metrics, metrics_server) = match pacing.metrics_addr {
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
        let mut next_disseminate = 0;
        let mut next_tick = pacing.tick_every_ms;
        // Per-peer decode-error counts already charged to the defense
        // layer, so each tick feeds only the delta.
        let mut charged_decode_errors = vec![0u64; transport.peer_traffic().len()];
        loop {
            // Run timers that are due.
            let now = now_ms(start);
            if now >= next_disseminate {
                let commands = shim.disseminate(now);
                route(&transport, commands);
                next_disseminate = now + pacing.disseminate_every_ms;
            }
            if now >= next_tick {
                let commands = shim.on_tick(now);
                route(&transport, commands);
                next_tick = now + pacing.tick_every_ms;
                sync_defense(&mut shim, &transport, &mut charged_decode_errors, now);
                if let Some(metrics) = metrics.as_ref() {
                    publish_node_metrics(metrics, &shim, &transport, &registry, now);
                }
            }
            for indication in shim.poll_indications() {
                let _ = indications_tx.send(indication);
            }

            // Wait for the next message, request, or timer deadline.
            let wait = next_disseminate
                .min(next_tick)
                .saturating_sub(now_ms(start))
                .clamp(1, 50);
            crossbeam::channel::select! {
                recv(transport.incoming()) -> incoming => {
                    if let Ok(first) = incoming {
                        // Drain whatever else already queued up behind the
                        // first message and admit the whole run as one
                        // burst: blocks are indexed first, then verified
                        // in batched waves and interpreted once.
                        let mut batch = vec![first];
                        while batch.len() < INGEST_BURST_CAP {
                            match transport.incoming().try_recv() {
                                Ok(message) => batch.push(message),
                                Err(_) => break,
                            }
                        }
                        let now = now_ms(start);
                        let commands = shim.on_message_burst(batch, now);
                        route(&transport, commands);
                    }
                }
                recv(requests_rx) -> request => {
                    if let Ok((label, request)) = request {
                        shim.request(label, request);
                    }
                }
                recv(stop_rx) -> _ => {
                    if let Some(server) = metrics_server {
                        server.shutdown();
                    }
                    transport.shutdown();
                    return shim;
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

/// Couples the shim's defense layer to the transport, on the tick
/// cadence: malformed frames counted by the reader threads are charged
/// to their peers as [`dagbft_core::Offense::MalformedFrame`] offenses
/// (delta since the last tick — the reader only counts, the defense
/// layer scores), and every active ban the scoring engine holds is
/// mirrored into the transport's connection-level ban table so a banned
/// peer's reconnects are refused at the socket, before any frame is
/// decoded.
fn sync_defense<P>(
    shim: &mut Shim<P>,
    transport: &TcpTransport,
    charged_decode_errors: &mut [u64],
    now: TimeMs,
) where
    P: DeterministicProtocol,
{
    if !shim.gossip().defense().is_enabled() {
        return;
    }
    for (peer, traffic) in transport.peer_traffic().iter().enumerate() {
        let seen = traffic.recv_decode_errors;
        let charged = &mut charged_decode_errors[peer];
        if seen > *charged {
            shim.note_malformed_frames(ServerId::new(peer as u32), seen - *charged, now);
            *charged = seen;
        }
    }
    for (peer, until) in shim.gossip().defense().bans(now) {
        transport.ban_peer(peer, Duration::from_millis(until.saturating_sub(now)));
    }
}

/// Mirrors every live counter the node owns into the endpoint's
/// registry: gossip admission, wave/burst shape, interpreter footprint,
/// crypto totals, store health, per-peer transport traffic, and
/// node-level liveness gauges. Runs on the tick cadence, off the
/// admission hot path.
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
    publish::publish_waves(metrics, shim.gossip().wave_stats());
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
