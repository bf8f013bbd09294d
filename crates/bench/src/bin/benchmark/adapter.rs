//! The one file that calls into the program under test.
//!
//! Workloads, stage replays and checks see only the plain data defined
//! here; every function of the program they need is wrapped below, with
//! default configurations (`ShimConfig::new`, `NodeConfig::default`,
//! `SimConfig::new`, `GossipConfig::for_n`) and ed25519 keys. An API
//! change in the program is a change to this file alone.

use std::io::Cursor;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dagbft_baseline::{BaselineConfig, BaselineSimulation, DirectInjection};
use dagbft_codec::decode_from_slice;
use dagbft_core::{
    BlockDag, BlockStore, Gossip, GossipConfig, Interpreter, NetMessage, ProtocolConfig,
    RecoveryReport, SeqNum, Shim, ShimConfig,
};
use dagbft_crypto::{sha256, BatchVerifier, KeyRegistry, SchemeKind, ServerId, Signer, Verifier};
use dagbft_metrics::{publish, MetricsRegistry};
use dagbft_protocols::{Brb, BrbIndication, BrbRequest, Ledger};
use dagbft_sim::{Injection, NetworkModel, SimConfig, SimOutcome, Simulation};
use dagbft_store::FileStore;
use dagbft_transport::frame::{read_net_message_pooled, write_net_message, FrameArena};
use dagbft_transport::{spawn_node_with_store, NodeConfig, NodeHandle, TcpTransport};

pub use dagbft_core::{Block, Label};
pub use dagbft_crypto::SignedDigest;
pub use dagbft_protocols::Transfer;

/// The embedded protocol of every workload: one reliable broadcast per
/// payment.
type Payments = Brb<Transfer>;

/// A block's identity, for comparing DAGs.
pub type BlockId = [u8; 32];

/// Accounts of the zipfian payments workload.
const ACCOUNTS: usize = 10_000;

/// One request of a workload: `transfer` is due at server `server`,
/// `due_us` after the run starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub due_us: u64,
    pub server: usize,
    pub transfer: Transfer,
}

/// Zipfian transfers (10 000 accounts, exponent 1.0) for `seed`.
pub fn zipf_transfers(count: usize, seed: u64) -> Vec<Transfer> {
    dagbft_bench::workload::zipf_transfers(&workload_config(count, seed))
}

fn workload_config(transfers: usize, seed: u64) -> dagbft_bench::workload::WorkloadConfig {
    dagbft_bench::workload::WorkloadConfig {
        accounts: ACCOUNTS,
        transfers,
        exponent: 1.0,
        seed,
    }
}

/// SHA-256 of `bytes`, as lowercase hex.
pub fn sha256_hex(bytes: &[u8]) -> String {
    sha256(bytes).to_hex()
}

/// Whether a ledger with the workload's opening balances applies every
/// one of `delivered` (and exactly `expected` of them).
pub fn settles_completely(delivered: Vec<Transfer>, expected: usize) -> bool {
    let config = workload_config(expected, 0);
    let mut ledger = Ledger::new(dagbft_bench::workload::initial_balances(&config));
    let supply = ledger.total_supply();
    let leftover = ledger.settle(delivered);
    leftover.is_empty() && ledger.applied().len() == expected && ledger.total_supply() == supply
}

/// The ed25519 key set of an `n`-server deployment. The simulator derives
/// its keys the same way from its seed, so a registry built here verifies
/// the blocks of a simulation run with the same `(n, seed)`.
pub fn key_registry(n: usize, seed: u64) -> KeyRegistry {
    KeyRegistry::generate_kind(SchemeKind::Ed25519, n, seed)
}

fn shim_config(n: usize) -> ShimConfig {
    ShimConfig::new(ProtocolConfig::for_n(n))
}

// ---------------------------------------------------------------------
// What a finished run leaves behind.

/// One indication as the servers' users saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    pub at_ms: u64,
    pub server: usize,
    pub label: Label,
    pub transfer: Transfer,
}

/// Gossip counters of one server.
#[derive(Debug, Clone, Copy, Default)]
pub struct GossipCounts {
    pub blocks_received: u64,
    pub duplicate_blocks: u64,
    pub blocks_built: u64,
    pub fwd_sent: u64,
    pub fwd_answered: u64,
    pub pending_peak: u64,
}

/// One server's final state.
#[derive(Debug, Clone)]
pub struct ServerEnd {
    /// The final DAG, in insertion (a topological) order.
    pub blocks: Vec<Block>,
    pub invariants_hold: bool,
    pub next_seq: u64,
    pub gossip: GossipCounts,
    pub wave_mean_width: f64,
}

impl ServerEnd {
    fn of(shim: &Shim<Payments>) -> ServerEnd {
        let stats = shim.gossip().stats();
        ServerEnd {
            blocks: shim.dag().iter().cloned().collect(),
            invariants_hold: shim.dag().check_invariants(),
            next_seq: shim.gossip().next_seq().value(),
            gossip: GossipCounts {
                blocks_received: stats.blocks_received,
                duplicate_blocks: stats.duplicate_blocks,
                blocks_built: stats.blocks_built,
                fwd_sent: stats.fwd_sent,
                fwd_answered: stats.fwd_answered,
                pending_peak: stats.pending_peak as u64,
            },
            wave_mean_width: shim.gossip().wave_stats().mean_wave(),
        }
    }

    /// Bytes of the messages this server put on the wire for its own
    /// blocks: each built block goes once to each of the `n − 1` peers.
    pub fn broadcast_bytes(&self, me: usize, n: usize) -> u64 {
        self.blocks
            .iter()
            .filter(|block| block.builder().index() == me)
            .map(|block| NetMessage::Block(block.clone()).wire_len() as u64 * (n as u64 - 1))
            .sum()
    }
}

pub fn block_id(block: &Block) -> BlockId {
    *block.block_ref().as_bytes()
}

pub fn block_builder(block: &Block) -> usize {
    block.builder().index()
}

pub fn block_seq(block: &Block) -> u64 {
    block.seq().value()
}

// ---------------------------------------------------------------------
// sim: the seeded simulator.

/// The simulated network of a workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimNet {
    pub latency_ms: u64,
    pub drop_rate: f64,
}

/// Everything the simulator gets: the deployment, its randomness (keys
/// and drops) and the injections.
#[derive(Debug, Clone, Copy)]
pub struct SimPlan<'a> {
    pub n: usize,
    pub seed: u64,
    pub net: SimNet,
    pub requests: &'a [Request],
}

/// A configured simulation, ready to run.
pub struct PreparedSim(Simulation<Payments>);

pub fn prepare_sim(plan: SimPlan<'_>) -> PreparedSim {
    let config = SimConfig::new(plan.n)
        .with_seed(plan.seed)
        .with_scheme(SchemeKind::Ed25519)
        .with_network(
            NetworkModel::reliable_constant(plan.net.latency_ms).with_drop_rate(plan.net.drop_rate),
        )
        .with_max_time(3_600_000)
        .with_stop_after_deliveries(plan.requests.len() * plan.n);
    let mut sim: Simulation<Payments> = Simulation::new(config);
    for request in plan.requests {
        sim.inject(Injection {
            at: request.due_us / 1000,
            server: request.server,
            label: request.transfer.label(),
            request: BrbRequest::Broadcast(request.transfer.clone()),
        });
    }
    PreparedSim(sim)
}

impl PreparedSim {
    /// Journals server 0 into a fresh on-disk store under `dir`, with an
    /// interpreter snapshot every `snapshot_every` blocks. The crash the
    /// API asks for is scheduled after the run's hard stop: it never fires.
    pub fn journal_server0(self, dir: &Path, snapshot_every: u64) -> Result<PreparedSim, String> {
        let store = FileStore::open_dir(dir).map_err(|e| format!("journal {dir:?}: {e}"))?;
        Ok(PreparedSim(
            self.0
                .with_durable_store(0, Box::new(store), u64::MAX / 2)
                .with_durable_snapshots(snapshot_every),
        ))
    }

    pub fn run(self) -> SimEnd {
        SimEnd::of(self.0.run())
    }
}

/// What one simulation run produced.
#[derive(Debug, Clone)]
pub struct SimEnd {
    pub deliveries: Vec<Delivered>,
    pub finished_at_ms: u64,
    pub messages_sent: u64,
    pub bytes_sent: u64,
    pub verifications: u64,
    pub verify_batches: u64,
    pub batched_verifications: u64,
    pub servers: Vec<ServerEnd>,
}

impl SimEnd {
    /// Blocks admitted cluster-wide: the sizes of the final DAGs.
    pub fn blocks(&self) -> usize {
        self.servers.iter().map(|server| server.blocks.len()).sum()
    }

    fn of(outcome: SimOutcome<Payments>) -> SimEnd {
        let deliveries = outcome
            .deliveries
            .iter()
            .map(|delivery| {
                let BrbIndication::Deliver(transfer) = &delivery.indication;
                Delivered {
                    at_ms: delivery.at,
                    server: delivery.server.index(),
                    label: delivery.label,
                    transfer: transfer.clone(),
                }
            })
            .collect();
        let servers = outcome
            .correct_servers()
            .into_iter()
            .map(|index| ServerEnd::of(outcome.shim(index)))
            .collect();
        SimEnd {
            deliveries,
            finished_at_ms: outcome.finished_at,
            messages_sent: outcome.net.messages_sent,
            bytes_sent: outcome.net.bytes_sent,
            verifications: outcome.verifications,
            verify_batches: outcome.verify_batches,
            batched_verifications: outcome.batched_verifications,
            servers,
        }
    }
}

// ---------------------------------------------------------------------
// baseline / protocols: the same injections as direct messages.

#[derive(Debug, Clone, Copy)]
pub struct DirectEnd {
    pub deliveries: usize,
    pub messages_sent: u64,
}

/// A configured direct point-to-point run of the same requests.
pub struct PreparedDirect(BaselineSimulation<Payments>);

pub fn prepare_direct(plan: SimPlan<'_>) -> PreparedDirect {
    let config = BaselineConfig::new(plan.n)
        .with_seed(plan.seed)
        .with_network(NetworkModel::reliable_constant(plan.net.latency_ms))
        .with_max_time(3_600_000)
        .with_stop_after_deliveries(plan.requests.len() * plan.n);
    let mut sim: BaselineSimulation<Payments> = BaselineSimulation::new(config);
    for request in plan.requests {
        sim.inject(DirectInjection {
            at: request.due_us / 1000,
            server: request.server,
            label: request.transfer.label(),
            request: BrbRequest::Broadcast(request.transfer.clone()),
        });
    }
    PreparedDirect(sim)
}

impl PreparedDirect {
    pub fn run(self) -> DirectEnd {
        let outcome = self.0.run();
        DirectEnd {
            deliveries: outcome.deliveries.len(),
            messages_sent: outcome.net.messages_sent,
        }
    }
}

// ---------------------------------------------------------------------
// transport: a live cluster over localhost TCP.

/// `n` nodes over localhost TCP, each journaling into its own on-disk
/// store under `dir`.
pub struct Cluster {
    nodes: Vec<NodeHandle<Payments>>,
}

impl Cluster {
    pub fn spawn(n: usize, key_seed: u64, dir: &Path) -> Result<Cluster, String> {
        let registry = key_registry(n, key_seed);
        let mut nodes = Vec::with_capacity(n);
        for (index, transport) in bind_local(n)?.into_iter().enumerate() {
            let store_dir = dir.join(format!("node{index}"));
            let store = FileStore::open_dir(&store_dir)
                .map_err(|e| format!("journal {store_dir:?}: {e}"))?;
            let (node, _report) = spawn_node_with_store::<Payments>(
                shim_config(n),
                NodeConfig::default(),
                &registry,
                transport,
                Box::new(store),
            )
            .map_err(|e| format!("node {index}: {e}"))?;
            nodes.push(node);
        }
        Ok(Cluster { nodes })
    }

    pub fn request(&self, server: usize, transfer: &Transfer) {
        self.nodes[server].request(transfer.label(), BrbRequest::Broadcast(transfer.clone()));
    }

    /// The next indication `server`'s user has waiting, if any.
    pub fn poll(&self, server: usize) -> Option<(Label, Transfer)> {
        self.nodes[server]
            .indications()
            .try_recv()
            .ok()
            .map(|(label, BrbIndication::Deliver(transfer))| (label, transfer))
    }

    /// Stops every node (joining its threads) and returns the final states.
    pub fn stop(self) -> Vec<ServerEnd> {
        self.nodes
            .into_iter()
            .map(|node| ServerEnd::of(&node.stop()))
            .collect()
    }
}

/// Binds `n` transports that know each other on free localhost ports:
/// asks the OS for the ports, releases them, and binds the transports
/// there (the peer table must be known before any of them binds). One
/// caller at a time, so two clusters coming up in one process cannot be
/// handed each other's ports between the release and the bind.
fn bind_local(n: usize) -> Result<Vec<TcpTransport>, String> {
    static BINDING: Mutex<()> = Mutex::new(());
    let _one_at_a_time = BINDING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let probes: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probe bind: {e}"))?;
    let addrs: Vec<SocketAddr> = probes
        .iter()
        .map(|probe| probe.local_addr().map_err(|e| format!("probe addr: {e}")))
        .collect::<Result<_, _>>()?;
    drop(probes);
    addrs
        .iter()
        .enumerate()
        .map(|(index, addr)| {
            TcpTransport::bind(ServerId::new(index as u32), *addr, addrs.clone())
                .map_err(|e| format!("bind {addr}: {e}"))
        })
        .collect()
}

/// Two transports on localhost bouncing one block message back and forth.
pub struct Loopback {
    a: TcpTransport,
    b: TcpTransport,
    message: NetMessage,
}

impl Loopback {
    pub fn open(block: &Block) -> Result<Loopback, String> {
        let mut pair = bind_local(2)?.into_iter();
        match (pair.next(), pair.next()) {
            (Some(a), Some(b)) => Ok(Loopback {
                a,
                b,
                message: NetMessage::Block(block.clone()),
            }),
            _ => Err("bind_local(2) did not return two transports".to_owned()),
        }
    }

    /// One round trip a → b → a; `None` if a message got lost for a second.
    pub fn round_trip(&self) -> Option<Duration> {
        let patience = Duration::from_secs(1);
        let start = Instant::now();
        self.a.send(ServerId::new(1), self.message.clone());
        let (_, echoed) = self.b.incoming().recv_timeout(patience).ok()?;
        self.b.send(ServerId::new(0), echoed);
        self.a.incoming().recv_timeout(patience).ok()?;
        Some(start.elapsed())
    }

    pub fn close(self) {
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// The framed wire image of `block` as a peer would receive it.
pub fn frame_of(block: &Block) -> Vec<u8> {
    let mut frame = Vec::new();
    frame_write(&mut frame, block);
    frame
}

/// Appends `block`, framed, to `out`.
pub fn frame_write(out: &mut Vec<u8>, block: &Block) {
    write_net_message(out, &NetMessage::Block(block.clone())).expect("writing to memory");
}

/// Pooled frame reader over in-memory frames.
pub struct FrameReader(FrameArena);

impl FrameReader {
    pub fn new() -> Self {
        FrameReader(FrameArena::new(
            dagbft_transport::frame::DEFAULT_ARENA_BUFFERS,
        ))
    }

    /// Reads and decodes one frame; `true` if it held a block.
    pub fn read(&mut self, frame: &[u8]) -> bool {
        matches!(
            read_net_message_pooled(&mut Cursor::new(frame), &mut self.0),
            Ok(NetMessage::Block(_))
        )
    }
}

// ---------------------------------------------------------------------
// codec

/// The unframed message bytes of `block` (discriminant + canonical bytes).
pub fn message_bytes(block: &Block) -> Vec<u8> {
    let mut bytes = vec![0u8];
    bytes.extend_from_slice(block.wire_bytes());
    bytes
}

/// Strictly decodes message bytes; `true` if they held a block.
pub fn decode_message(bytes: &[u8]) -> bool {
    matches!(
        decode_from_slice::<NetMessage>(bytes),
        Ok(NetMessage::Block(_))
    )
}

// ---------------------------------------------------------------------
// crypto

/// Signing and verification handles of one deployment.
pub struct Crypto {
    signer: Signer,
    verifier: Verifier,
    batch: BatchVerifier,
}

impl Crypto {
    pub fn new(registry: &KeyRegistry) -> Crypto {
        Crypto {
            signer: registry
                .signer(ServerId::new(0))
                .expect("server 0 has a key"),
            verifier: registry.verifier(),
            batch: registry.batch_verifier(),
        }
    }

    pub fn sign(&self, message: &[u8]) -> [u8; 64] {
        *self.signer.sign(message).as_bytes()
    }

    pub fn verify_single(&self, item: &SignedDigest) -> bool {
        self.verifier
            .verify(item.claimed, item.digest.as_bytes(), &item.signature)
    }

    /// Verifies `items` as one batch; the number that verified.
    pub fn verify_batch(&self, items: &[SignedDigest]) -> usize {
        self.batch
            .verify_batch(items)
            .into_iter()
            .filter(|ok| *ok)
            .count()
    }
}

pub fn signed_digest(block: &Block) -> SignedDigest {
    block.signed_digest()
}

/// `ref(B)`'s hash function over `bytes`.
pub fn ref_hash(bytes: &[u8]) -> [u8; 32] {
    *sha256(bytes).as_bytes()
}

// ---------------------------------------------------------------------
// core.gossip

/// A fresh gossip instance for server 0 of an `n`-server deployment.
pub struct Admitter(Gossip);

impl Admitter {
    pub fn new(registry: &KeyRegistry, n: usize) -> Admitter {
        let me = ServerId::new(0);
        Admitter(Gossip::new(
            me,
            GossipConfig::for_n(n),
            registry.signer(me).expect("server 0 has a key"),
            registry.verifier(),
        ))
    }

    /// Delivers `block` as a burst of one.
    pub fn admit(&mut self, block: &Block, now_ms: u64) {
        self.0
            .on_block_burst(std::iter::once(block.clone()), now_ms);
    }

    pub fn admitted(&self) -> usize {
        self.0.dag().len()
    }

    /// One full sweep of the metrics publishers over this instance plus
    /// the snapshot render; the snapshot's size in bytes.
    pub fn publish_metrics(&self, registry: &KeyRegistry, interpreter: &Replay, n: usize) -> usize {
        let metrics = MetricsRegistry::new();
        publish::publish_gossip(&metrics, self.0.stats());
        publish::publish_waves(&metrics, self.0.wave_stats());
        publish::publish_defense(&metrics, self.0.defense(), 0);
        publish::publish_footprint(&metrics, &interpreter.0.footprint());
        publish::publish_crypto(&metrics, registry.metrics());
        publish::publish_store_health(&metrics, true, false);
        publish::publish_node(&metrics, 0, self.0.dag().len() as u64, 0);
        for peer in 0..n {
            publish::publish_peer(&metrics, peer, 0, 0, 0, 0);
        }
        metrics.snapshot_json().len()
    }
}

// ---------------------------------------------------------------------
// core.interpret

/// `blocks` (in a topological order) as a DAG.
pub struct Dag(BlockDag);

impl Dag {
    pub fn of(blocks: &[Block]) -> Result<Dag, String> {
        let mut dag = BlockDag::new();
        for block in blocks {
            dag.insert(block.clone())
                .map_err(|e| format!("block {} does not insert: {e}", block.block_ref()))?;
        }
        Ok(Dag(dag))
    }
}

/// A fresh interpreter stepped over a finished DAG.
pub struct Replay(Interpreter<Payments>);

#[derive(Debug, Clone, Copy)]
pub struct Footprint {
    pub resident_slots: usize,
    pub unique_instances: usize,
    pub sharing_ratio: f64,
    pub messages_materialized: u64,
}

impl Replay {
    pub fn new(n: usize) -> Replay {
        Replay(Interpreter::new(ProtocolConfig::for_n(n)))
    }

    /// Interprets `dag` to its fixed point; the number of blocks done.
    pub fn run(&mut self, dag: &Dag) -> usize {
        self.0.step(&dag.0)
    }

    /// Drains the indications raised so far, keeping those of `server`.
    pub fn indications_of(&mut self, server: usize) -> Vec<(Label, Transfer)> {
        self.0
            .drain_indications()
            .into_iter()
            .filter(|indication| indication.server.index() == server)
            .map(|indication| {
                let BrbIndication::Deliver(transfer) = indication.indication;
                (indication.label, transfer)
            })
            .collect()
    }

    pub fn footprint(&self) -> Footprint {
        let footprint = self.0.footprint();
        Footprint {
            resident_slots: footprint.instances,
            unique_instances: footprint.unique_instances,
            sharing_ratio: footprint.sharing_ratio(),
            messages_materialized: self.0.stats().messages_materialized,
        }
    }

    /// Must follow [`Replay::indications_of`]: a snapshot is taken at a
    /// drained fixed point.
    pub fn encode_snapshot(&self) -> Vec<u8> {
        self.0.encode_snapshot()
    }

    /// Decodes a snapshot; the number of blocks it covers.
    pub fn decode_snapshot(n: usize, bytes: &[u8]) -> Result<usize, String> {
        Interpreter::<Payments>::decode_snapshot(ProtocolConfig::for_n(n), bytes)
            .map(|interpreter| interpreter.interpreted_count())
            .map_err(|e| format!("snapshot does not decode: {e}"))
    }
}

// ---------------------------------------------------------------------
// store and core.shim: the journal and recovery from it.

/// An open on-disk journal.
pub struct Journal(Box<dyn BlockStore>);

impl Journal {
    pub fn open(dir: &Path) -> Result<Journal, String> {
        FileStore::open_dir(dir)
            .map(|store| Journal(Box::new(store)))
            .map_err(|e| format!("journal {dir:?}: {e}"))
    }

    pub fn append(&mut self, block: &Block) -> Result<(), String> {
        self.0.append_block(block).map_err(|e| e.to_string())
    }

    /// What a seal waits for before it may broadcast: the journal synced
    /// and the own-chain tip durably marked.
    pub fn sync_and_mark(&mut self, own_seq: u64) -> Result<(), String> {
        self.0.sync().map_err(|e| e.to_string())?;
        self.0
            .mark_own_tip(SeqNum::new(own_seq))
            .map_err(|e| e.to_string())
    }

    /// Recovers server 0's shim from this journal, restoring the latest
    /// snapshot and replaying the suffix past it.
    pub fn recover(self, registry: &KeyRegistry, n: usize) -> Result<RecoveredShim, String> {
        Shim::<Payments>::recover_from_store_with_snapshots(
            ServerId::new(0),
            shim_config(n),
            registry,
            self.0,
        )
        .map(|(shim, report)| RecoveredShim(shim, report))
        .map_err(|e| format!("recovery: {e}"))
    }
}

/// A shim just recovered from a journal, and the report of its recovery.
pub struct RecoveredShim(Shim<Payments>, RecoveryReport);

impl RecoveredShim {
    /// What the checks and the stage replays look at. Drops the shim, so
    /// at most one recovered shim is alive at a time.
    pub fn into_summary(self) -> Recovered {
        let RecoveredShim(shim, report) = self;
        let blocks: Vec<Block> = shim.dag().iter().cloned().collect();
        let mut ids: Vec<BlockId> = blocks.iter().map(block_id).collect();
        ids.sort_unstable();
        Recovered {
            journal_blocks: report.journal_blocks,
            replayed_blocks: report.replayed_blocks,
            snapshot_covered: report.snapshot_covered,
            requests_rebuffered: report.requests_rebuffered,
            truncated_records: report.truncated_records,
            blocks,
            ids,
            invariants_hold: shim.dag().check_invariants(),
            next_seq: shim.gossip().next_seq().value(),
        }
    }
}

/// What a recovery restored.
#[derive(Debug, Clone)]
pub struct Recovered {
    pub journal_blocks: usize,
    pub replayed_blocks: usize,
    pub snapshot_covered: usize,
    pub requests_rebuffered: usize,
    pub truncated_records: usize,
    /// The recovered DAG, in insertion (a topological) order.
    pub blocks: Vec<Block>,
    /// The recovered DAG's block identities, sorted.
    pub ids: Vec<BlockId>,
    pub invariants_hold: bool,
    pub next_seq: u64,
}

/// Size in bytes of the journal file under `dir`.
pub fn journal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("journal.log"))
        .map(|meta| meta.len())
        .unwrap_or(0)
}
