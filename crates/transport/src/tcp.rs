//! The threaded TCP transport.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dagbft_core::{NetMessage, INTERPRETATION_RULE};
use dagbft_crypto::ServerId;

use crate::frame::{is_corrupt_payload, read_net_message, write_frame, write_net_message, Hello};

const POLL: Duration = Duration::from_millis(25);
/// First reconnect delay; doubles per failed attempt up to [`BACKOFF_MAX`].
const BACKOFF_INITIAL: Duration = Duration::from_millis(50);
/// Backoff ceiling, also the cool-down before a peer marked down is probed
/// again by the sender loop.
const BACKOFF_MAX: Duration = Duration::from_millis(1_600);
/// Connect attempts per [`connect_with_hello`] burst (50 → 800 ms sleeps).
const CONNECT_ATTEMPTS: u32 = 6;
/// Maximum reconnect jitter (exclusive); see [`reconnect_jitter`].
const JITTER_SPREAD_MS: u64 = 40;
/// Maximum concurrent inbound reader threads. Connections accepted past
/// the cap are dropped immediately — an unauthenticated churner must not
/// grow the thread count (or the `JoinHandle` list) without bound.
const MAX_INBOUND_READERS: usize = 256;

/// Deterministic per-link reconnect jitter, derived from the two server
/// identities rather than wall clock or randomness: when a whole cluster
/// restarts at once, every sender backing off toward the same recovering
/// peer would otherwise wake in lockstep (they share `BACKOFF_INITIAL`)
/// and thundering-herd its accept queue. Spreading each directed link by
/// a stable 0–39 ms keeps reconnect storms apart while remaining fully
/// reproducible.
fn reconnect_jitter(me: ServerId, peer_index: usize) -> Duration {
    let spread = (me.index() as u64 * 31 + peer_index as u64 * 17 + 7) % JITTER_SPREAD_MS;
    Duration::from_millis(spread)
}

/// Per-peer traffic counters, updated lock-free by the sender and reader
/// threads. Bytes count the message's canonical wire encoding
/// (`NetMessage::wire_len`), excluding frame headers — the same currency
/// the simulator's `NetMetrics` reports, so live and simulated traffic
/// numbers are comparable.
#[derive(Debug, Default)]
struct PeerTraffic {
    sent_msgs: AtomicU64,
    sent_bytes: AtomicU64,
    recv_msgs: AtomicU64,
    recv_bytes: AtomicU64,
    /// Frames from this peer that were fully read but failed to decode.
    recv_decode_errors: AtomicU64,
    /// Connections refused because this peer's `Hello` named another
    /// interpretation rule.
    refused_hellos: AtomicU64,
}

/// A point-in-time copy of one peer's [`TcpTransport`] traffic counters
/// (see [`TcpTransport::peer_traffic`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerTrafficSnapshot {
    /// Messages successfully written to this peer.
    pub sent_msgs: u64,
    /// Wire bytes of those messages.
    pub sent_bytes: u64,
    /// Messages received from this peer.
    pub recv_msgs: u64,
    /// Wire bytes of those messages.
    pub recv_bytes: u64,
    /// Frames from this peer that read completely but failed to decode.
    pub recv_decode_errors: u64,
    /// Connections refused because this peer's `Hello` named another
    /// [`dagbft_core::INTERPRETATION_RULE`] than this build's.
    pub refused_hellos: u64,
}

/// A TCP transport endpoint for one server.
///
/// Owns an accept loop, one reader thread per inbound connection, and one
/// sender thread per peer (lazy connect, reconnect on failure). Incoming
/// messages from all peers fan into a single channel.
///
/// Dropping the transport (or calling [`TcpTransport::shutdown`]) stops
/// all threads.
#[derive(Debug)]
pub struct TcpTransport {
    me: ServerId,
    local_addr: SocketAddr,
    outboxes: Vec<Sender<NetMessage>>,
    incoming_rx: Receiver<(ServerId, NetMessage)>,
    traffic: Arc<Vec<PeerTraffic>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl TcpTransport {
    /// Binds `listen` for server `me` and wires sender queues for `peers`
    /// (indexed by server id; the own entry is ignored).
    ///
    /// # Errors
    ///
    /// Propagates the listener bind error.
    pub fn bind(me: ServerId, listen: SocketAddr, peers: Vec<SocketAddr>) -> io::Result<Self> {
        Self::from_listener(me, TcpListener::bind(listen)?, peers)
    }

    /// [`TcpTransport::bind`] over a listener the caller already holds —
    /// for a cluster that must learn every port before any transport can
    /// be given its peer table, without releasing a port in between.
    ///
    /// # Errors
    ///
    /// Propagates the listener's configuration errors.
    pub fn from_listener(
        me: ServerId,
        listener: TcpListener,
        peers: Vec<SocketAddr>,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (incoming_tx, incoming_rx) = unbounded();
        let traffic: Arc<Vec<PeerTraffic>> =
            Arc::new((0..peers.len()).map(|_| PeerTraffic::default()).collect());
        let mut threads = Vec::new();

        // Accept loop: spawns a reader thread per connection.
        {
            let shutdown = shutdown.clone();
            let incoming_tx = incoming_tx.clone();
            let traffic = traffic.clone();
            threads.push(std::thread::spawn(move || {
                accept_loop(me, listener, incoming_tx, traffic, shutdown);
            }));
        }

        // Per-peer sender threads.
        let mut outboxes = Vec::with_capacity(peers.len());
        for (index, peer) in peers.iter().enumerate() {
            let (tx, rx) = unbounded::<NetMessage>();
            outboxes.push(tx);
            if index == me.index() {
                continue; // no thread for self; sends to self are dropped
            }
            let peer = *peer;
            let shutdown = shutdown.clone();
            let traffic = traffic.clone();
            threads.push(std::thread::spawn(move || {
                sender_loop(me, index, peer, rx, traffic, shutdown);
            }));
        }

        Ok(TcpTransport {
            me,
            local_addr,
            outboxes,
            incoming_rx,
            traffic,
            shutdown,
            threads,
        })
    }

    /// The server this transport belongs to.
    pub fn me(&self) -> ServerId {
        self.me
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Queues `message` for `to`. Sends to self are ignored (the shim
    /// already holds its own blocks).
    pub fn send(&self, to: ServerId, message: NetMessage) {
        if to == self.me {
            return;
        }
        if let Some(outbox) = self.outboxes.get(to.index()) {
            let _ = outbox.send(message);
        }
    }

    /// Queues `message` for every peer except self.
    pub fn broadcast(&self, message: NetMessage) {
        for index in 0..self.outboxes.len() {
            if index != self.me.index() {
                let _ = self.outboxes[index].send(message.clone());
            }
        }
    }

    /// The fan-in channel of incoming `(sender, message)` pairs.
    pub fn incoming(&self) -> &Receiver<(ServerId, NetMessage)> {
        &self.incoming_rx
    }

    /// Point-in-time per-peer traffic counters, indexed by server id (the
    /// own slot stays zero). Readable from any thread while the transport
    /// runs — this is what the node event loop publishes to the metrics
    /// endpoint as `peer<i>_*`.
    pub fn peer_traffic(&self) -> Vec<PeerTrafficSnapshot> {
        self.traffic
            .iter()
            .map(|peer| PeerTrafficSnapshot {
                sent_msgs: peer.sent_msgs.load(Ordering::Relaxed),
                sent_bytes: peer.sent_bytes.load(Ordering::Relaxed),
                recv_msgs: peer.recv_msgs.load(Ordering::Relaxed),
                recv_bytes: peer.recv_bytes.load(Ordering::Relaxed),
                recv_decode_errors: peer.recv_decode_errors.load(Ordering::Relaxed),
                refused_hellos: peer.refused_hellos.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Stops all transport threads and waits for them.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Threads observe the flag within one poll interval; detaching is
        // acceptable on drop (shutdown() offers the joining variant).
    }
}

fn accept_loop(
    me: ServerId,
    listener: TcpListener,
    incoming_tx: Sender<(ServerId, NetMessage)>,
    traffic: Arc<Vec<PeerTraffic>>,
    shutdown: Arc<AtomicBool>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Reap finished readers first: a connect/disconnect
                // churner must not grow the handle list unboundedly.
                readers.retain(|reader| !reader.is_finished());
                if readers.len() >= MAX_INBOUND_READERS {
                    drop(stream);
                    continue;
                }
                let incoming_tx = incoming_tx.clone();
                let shutdown = shutdown.clone();
                let traffic = traffic.clone();
                readers.push(std::thread::spawn(move || {
                    reader_loop(me, stream, incoming_tx, traffic, shutdown);
                }));
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

fn reader_loop(
    me: ServerId,
    stream: TcpStream,
    incoming_tx: Sender<(ServerId, NetMessage)>,
    traffic: Arc<Vec<PeerTraffic>>,
    shutdown: Arc<AtomicBool>,
) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    // The first frame authenticates nothing — it merely names the peer;
    // blocks carry their own signatures (Definition 3.3 (i)).
    let hello = match read_retry(&mut stream, &shutdown, crate::frame::read_frame::<_, Hello>) {
        Some(hello) => hello,
        None => return,
    };
    let from = hello.from;
    // An id outside the server set, or our own, names no peer: drop it. Another peer's id still passes,
    // as `Hello` authenticates nothing: `ROADMAP.md` item 15's problem.
    let peer = match traffic.get(from.index()) {
        Some(peer) if from != me => peer,
        _ => return,
    };
    // A server on another interpretation rule computes other executions of
    // `P` from the same blocks (`dagbft_core::INTERPRETATION_RULE`): it is
    // refused, not admitted to disagree.
    if hello.rule != INTERPRETATION_RULE {
        peer.refused_hellos.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // Each frame is read into a buffer of exactly its length, and a
    // decoded block's wire image and payloads are slices of it (zero-copy
    // receive): see `frame::read_net_message`.
    while !shutdown.load(Ordering::SeqCst) {
        match read_net_message(&mut stream) {
            Ok(message) => {
                peer.recv_msgs.fetch_add(1, Ordering::Relaxed);
                peer.recv_bytes
                    .fetch_add(message.wire_len() as u64, Ordering::Relaxed);
                if incoming_tx.send((from, message)).is_err() {
                    return;
                }
            }
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(err) if is_corrupt_payload(&err) => {
                // The bad payload was fully drained — the stream is still
                // frame-synced, so count it and keep reading rather than
                // handing the peer a free reconnect cycle.
                peer.recv_decode_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Reads one frame via `read_one`, retrying on read timeouts until shutdown.
fn read_retry<T>(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    mut read_one: impl FnMut(&mut TcpStream) -> io::Result<T>,
) -> Option<T> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        match read_one(stream) {
            Ok(value) => return Some(value),
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return None,
        }
    }
}

fn sender_loop(
    me: ServerId,
    peer_index: usize,
    peer: SocketAddr,
    outbox: Receiver<NetMessage>,
    traffic: Arc<Vec<PeerTraffic>>,
    shutdown: Arc<AtomicBool>,
) {
    let mut connection: Option<TcpStream> = None;
    // Deterministic per-link jitter added to every backoff wait (see
    // `reconnect_jitter`).
    let jitter = reconnect_jitter(me, peer_index);
    // After a full failed connect burst the peer is marked down until this
    // deadline: queued messages drain (dropped — gossip's FWD mechanism
    // recovers missing blocks) without each one paying a connect burst.
    let mut down_until: Option<std::time::Instant> = None;
    while !shutdown.load(Ordering::SeqCst) {
        let message = match outbox.recv_timeout(POLL) {
            Ok(message) => message,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        // Ensure a connection; on failure, drop the message — gossip's FWD
        // mechanism recovers missing blocks, as under the lossy simulator.
        if connection.is_none() {
            let now = std::time::Instant::now();
            if down_until.is_none_or(|deadline| now >= deadline) {
                connection = connect_with_hello(me, peer, jitter, &shutdown);
                down_until = match connection {
                    Some(_) => None,
                    None => Some(now + BACKOFF_MAX + jitter),
                };
            }
        }
        // The zero-copy write path: a block's cached wire bytes stream
        // straight into the frame, no per-send re-encode.
        let mut written = false;
        if let Some(stream) = connection.as_mut() {
            written = write_net_message(stream, &message).is_ok();
            if !written {
                // Reconnect once and retry this message.
                connection = connect_with_hello(me, peer, jitter, &shutdown);
                if let Some(stream) = connection.as_mut() {
                    written = write_net_message(stream, &message).is_ok();
                    if !written {
                        connection = None;
                    }
                }
                if connection.is_none() {
                    down_until = Some(std::time::Instant::now() + BACKOFF_MAX + jitter);
                }
            }
        }
        if written {
            if let Some(counters) = traffic.get(peer_index) {
                counters.sent_msgs.fetch_add(1, Ordering::Relaxed);
                counters
                    .sent_bytes
                    .fetch_add(message.wire_len() as u64, Ordering::Relaxed);
            }
        }
    }
}

/// One bounded reconnect burst: [`CONNECT_ATTEMPTS`] attempts with
/// exponential backoff from [`BACKOFF_INITIAL`] capped at [`BACKOFF_MAX`],
/// each wait stretched by the link's deterministic `jitter` (see
/// [`reconnect_jitter`]), abandoning promptly on shutdown.
fn connect_with_hello(
    me: ServerId,
    peer: SocketAddr,
    jitter: Duration,
    shutdown: &AtomicBool,
) -> Option<TcpStream> {
    let mut backoff = BACKOFF_INITIAL;
    for attempt in 0..CONNECT_ATTEMPTS {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if let Ok(mut stream) = TcpStream::connect_timeout(&peer, Duration::from_millis(500)) {
            if stream.set_nodelay(true).is_err() {
                return None;
            }
            if write_frame(&mut stream, &Hello::new(me)).is_ok() {
                return Some(stream);
            }
        }
        if attempt + 1 < CONNECT_ATTEMPTS {
            sleep_interruptible(backoff + jitter, shutdown);
            backoff = (backoff * 2).min(BACKOFF_MAX);
        }
    }
    None
}

/// Sleeps `duration` in [`POLL`]-sized slices, returning early on shutdown
/// so backoff waits never delay teardown.
fn sleep_interruptible(duration: Duration, shutdown: &AtomicBool) {
    let deadline = std::time::Instant::now() + duration;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return;
        }
        std::thread::sleep(POLL.min(remaining));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_core::{Block, SeqNum};
    use dagbft_crypto::KeyRegistry;
    use std::io::Write;

    fn sample_message() -> NetMessage {
        let registry = KeyRegistry::generate(1, 1);
        let signer = registry.signer(ServerId::new(0)).unwrap();
        NetMessage::Block(Block::build(
            ServerId::new(0),
            SeqNum::ZERO,
            vec![],
            vec![],
            &signer,
        ))
    }

    fn localhost() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn two_endpoints_exchange_messages() {
        // Bind both with placeholder peer tables, then rebind with real
        // addresses: easiest is to bind A first, then B knowing A.
        let a = TcpTransport::bind(
            ServerId::new(0),
            localhost(),
            vec![localhost(), localhost()],
        )
        .unwrap();
        let b = TcpTransport::bind(
            ServerId::new(1),
            localhost(),
            vec![a.local_addr(), localhost()],
        )
        .unwrap();
        // Rebuild A with B's address so A can reply.
        let a_addr = a.local_addr();
        a.shutdown();
        let a = TcpTransport::bind(ServerId::new(0), a_addr, vec![localhost(), b.local_addr()])
            .unwrap();

        let message = sample_message();
        a.send(ServerId::new(1), message.clone());
        let (from, received) = b
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .expect("delivery");
        assert_eq!(from, ServerId::new(0));
        assert_eq!(received, message);

        b.send(ServerId::new(0), message.clone());
        let (from, received) = a
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .expect("reply delivery");
        assert_eq!(from, ServerId::new(1));
        assert_eq!(received, message);

        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn sender_backs_off_and_reconnects_when_peer_appears_late() {
        // Reserve a port, release it, and point A at it before anything
        // listens there.
        let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
        let b_addr = placeholder.local_addr().unwrap();
        drop(placeholder);
        let a =
            TcpTransport::bind(ServerId::new(0), localhost(), vec![localhost(), b_addr]).unwrap();
        // The first send exhausts a full backoff burst against the dead
        // address and is dropped (FWD recovery covers losses in the real
        // system); the peer is marked down.
        a.send(ServerId::new(1), sample_message());
        // Now the peer comes up on that port; a later send must get
        // through once the down cool-down expires.
        let b = TcpTransport::bind(ServerId::new(1), b_addr, vec![a.local_addr(), localhost()])
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let mut delivered = false;
        while std::time::Instant::now() < deadline {
            a.send(ServerId::new(1), sample_message());
            if b.incoming()
                .recv_timeout(Duration::from_millis(500))
                .is_ok()
            {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "sender must reconnect after peer comes up");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_hello_naming_no_peer_is_dropped() {
        let transport = TcpTransport::bind(
            ServerId::new(1),
            localhost(),
            vec![localhost(), localhost(), localhost()],
        )
        .unwrap();
        // The writes may fail: the transport closes a rejected connection.
        let connect = |claimed: u32| {
            let mut stream = TcpStream::connect(transport.local_addr()).unwrap();
            let from = ServerId::new(claimed);
            let _ = write_frame(&mut stream, &Hello::new(from));
            let _ = write_net_message(&mut stream, &sample_message());
            stream
        };
        // Out of range, then the transport's own id.
        let _streams = [connect(9), connect(1)];
        assert!(transport
            .incoming()
            .recv_timeout(Duration::from_millis(500))
            .is_err());
        // A peer's name gets through the same way.
        let _peer = connect(0);
        let (from, _) = transport
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .expect("a peer's message");
        assert_eq!(from, ServerId::new(0));
        transport.shutdown();
    }

    #[test]
    fn a_peer_on_another_interpretation_rule_is_refused_and_counted() {
        let transport = TcpTransport::bind(
            ServerId::new(1),
            localhost(),
            vec![localhost(), localhost()],
        )
        .unwrap();
        // The writes may fail: the transport closes a refused connection.
        let connect = |hello: Vec<u8>| {
            let mut stream = TcpStream::connect(transport.local_addr()).unwrap();
            let _ = stream.write_all(&hello);
            let _ = write_net_message(&mut stream, &sample_message());
            stream
        };
        fn framed(hello: &impl dagbft_codec::WireEncode) -> Vec<u8> {
            let mut frame = Vec::new();
            write_frame(&mut frame, hello).unwrap();
            frame
        }
        let from = ServerId::new(0);
        // The rule before this one, then a `Hello` without the rule field,
        // as a build from before it wrote.
        let earlier = Hello {
            from,
            rule: INTERPRETATION_RULE - 1,
        };
        let _refused = [connect(framed(&earlier)), connect(framed(&from))];
        assert!(transport
            .incoming()
            .recv_timeout(Duration::from_millis(500))
            .is_err());
        let traffic = transport.peer_traffic()[0];
        assert_eq!((traffic.refused_hellos, traffic.recv_msgs), (2, 0));
        // The same peer on this build's rule gets through.
        let _admitted = connect(framed(&Hello::new(from)));
        let (sender, _) = transport
            .incoming()
            .recv_timeout(Duration::from_secs(5))
            .expect("a peer's message");
        assert_eq!(sender, from);
        assert_eq!(transport.peer_traffic()[0].refused_hellos, 2);
        transport.shutdown();
    }

    #[test]
    fn send_to_self_is_dropped() {
        let transport =
            TcpTransport::bind(ServerId::new(0), localhost(), vec![localhost()]).unwrap();
        transport.send(ServerId::new(0), sample_message());
        assert!(transport
            .incoming()
            .recv_timeout(Duration::from_millis(200))
            .is_err());
        transport.shutdown();
    }
}
