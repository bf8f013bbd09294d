//! The simulation runner: `n` servers running `shim(P)` over the simulated
//! network, with a workload and optional byzantine roles.
//!
//! The runner realizes the deployment of Figure 1: every correct server is
//! a [`Shim<P>`] whose [`NetCommand`]s are routed through the
//! [`NetworkModel`]; byzantine servers are [`ByzServer`]s. Dissemination is
//! requested on a per-server timer (Algorithm 3, lines 10–11), `FWD`
//! retries on another. Everything — keys, latencies, drops, event order —
//! derives from the seed, so runs are exactly reproducible.

use std::collections::{BTreeSet, HashMap};

use dagbft_codec::{WireDecode, WireEncode};
use dagbft_core::{
    accountability, BlockStore, DefenseConfig, DeterministicProtocol, Label, MemoryStore,
    NetCommand, NetMessage, ProtocolConfig, RecoverError, RecoveryReport, Shim, ShimConfig,
    SnapshotProtocol, TimeMs,
};
use dagbft_crypto::{KeyRegistry, SchemeKind, ServerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::{ByzServer, Role};
use crate::metrics::{Delivery, NetMetrics};
use crate::net::NetworkModel;
use crate::sched::EventQueue;

/// One request injection: at time `at`, server `server` receives
/// `request(label, request)` from its user.
#[derive(Debug, Clone)]
pub struct Injection<P: DeterministicProtocol> {
    /// Injection time.
    pub at: TimeMs,
    /// Index of the receiving server.
    pub server: usize,
    /// The protocol instance label.
    pub label: Label,
    /// The request handed to `shim(P)`.
    pub request: P::Request,
}

/// How the runner hands deliveries to a correct server's shim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IngestMode {
    /// One [`Shim::on_message`] call per delivered message (the
    /// historical behavior; `tests/golden/cross_seed.txt` is pinned on
    /// it).
    #[default]
    PerMessage,
    /// Coalesce a run of same-instant deliveries to the same server into
    /// one [`Shim::on_message_burst`] call (up to `max` messages): all of
    /// them are indexed first, then verified and promoted in one cascade
    /// — what a live node's channel drain does. Protocol outcomes are
    /// unchanged; block bytes may differ from [`IngestMode::PerMessage`]
    /// because a call promotes its whole ready set smallest key first
    /// rather than message by message, so the current block can reference
    /// newly admitted blocks in another order.
    Burst {
        /// Maximum messages folded into one call.
        max: usize,
    },
}

/// Interval between a server's `FWD`-retry timer ticks.
const TICK_EVERY: TimeMs = 100;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of servers.
    pub n: usize,
    /// Randomness seed (keys, latencies, drops).
    pub seed: u64,
    /// The embedded protocol's fault configuration.
    pub protocol: ProtocolConfig,
    /// Interval between a server's `disseminate()` calls.
    pub disseminate_every: TimeMs,
    /// Hard stop time.
    pub max_time: TimeMs,
    /// Early stop once this many deliveries were observed (`None`: run to
    /// `max_time`).
    pub stop_after_deliveries: Option<usize>,
    /// The network model.
    pub network: NetworkModel,
    /// Per-server roles; missing entries default to [`Role::Correct`].
    pub roles: HashMap<usize, Role>,
    /// Delivery hand-off shape for correct servers (see [`IngestMode`]).
    pub ingest: IngestMode,
    /// Bound on each correct server's gossip pending buffer (see
    /// `dagbft_core::GossipConfig::pending_cap`).
    pub pending_cap: usize,
    /// Signature scheme for the whole server set: the HMAC stand-in
    /// (default — cheap, the determinism oracle) or real ed25519 with
    /// multi-scalar batch verification. Promotion orders and delivery
    /// sequences are identical under both; only signature bytes and
    /// per-operation cost differ.
    pub scheme: SchemeKind,
    /// Peer-defense configuration for every correct server (scored
    /// admission, rate limits, bans — see `dagbft_core::DefenseConfig`).
    /// Disabled by default: every pinned fingerprint predates the defense
    /// layer and must stay byte-identical without it.
    pub defense: DefenseConfig,
}

impl SimConfig {
    /// A default configuration for `n` servers: seed 42, 50 ms
    /// dissemination, default latency, no faults, 60 simulated seconds.
    pub fn new(n: usize) -> Self {
        SimConfig {
            n,
            seed: 42,
            protocol: ProtocolConfig::for_n(n),
            disseminate_every: 50,
            max_time: 60_000,
            stop_after_deliveries: None,
            network: NetworkModel::default(),
            roles: HashMap::new(),
            ingest: IngestMode::default(),
            pending_cap: dagbft_core::DEFAULT_PENDING_CAP,
            scheme: SchemeKind::default(),
            defense: DefenseConfig::default(),
        }
    }

    /// Sets the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network model.
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the dissemination interval.
    pub fn with_disseminate_every(mut self, interval: TimeMs) -> Self {
        self.disseminate_every = interval;
        self
    }

    /// Sets the hard stop time.
    pub fn with_max_time(mut self, max_time: TimeMs) -> Self {
        self.max_time = max_time;
        self
    }

    /// Stops the run early after `count` deliveries.
    pub fn with_stop_after_deliveries(mut self, count: usize) -> Self {
        self.stop_after_deliveries = Some(count);
        self
    }

    /// Assigns a role to one server.
    pub fn with_role(mut self, server: usize, role: Role) -> Self {
        self.roles.insert(server, role);
        self
    }

    /// Selects the delivery hand-off shape for correct servers.
    pub fn with_ingest(mut self, ingest: IngestMode) -> Self {
        self.ingest = ingest;
        self
    }

    /// Bounds each correct server's gossip pending buffer.
    pub fn with_pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap.max(1);
        self
    }

    /// Selects the signature scheme for the whole server set.
    pub fn with_scheme(mut self, scheme: SchemeKind) -> Self {
        self.scheme = scheme;
        self
    }

    /// Configures the peer-defense layer on every correct server.
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = defense;
        self
    }
}

/// A server slot in the simulation.
enum Server<P: DeterministicProtocol> {
    Correct(Box<Shim<P>>),
    Byzantine(Box<ByzServer>),
    /// A crashed volatile server, nothing to come back from; kept for index stability.
    Crashed,
    /// A crashed durable server: everything except its store is gone.
    Down(Box<dyn BlockStore>),
}

/// What happened in a run.
#[derive(Debug)]
pub struct SimOutcome<P: DeterministicProtocol> {
    /// All user-facing deliveries, in time order.
    pub deliveries: Vec<Delivery<P::Indication>>,
    /// Wire traffic counters.
    pub net: NetMetrics,
    /// Signature operations (from the shared key registry).
    pub signatures: u64,
    /// Verification operations (a batch of `k` counts `k`).
    pub verifications: u64,
    /// Batched verification passes performed by the admission pipeline.
    pub verify_batches: u64,
    /// Verifications that went through batched waves — the share of
    /// `verifications` on the amortized path.
    pub batched_verifications: u64,
    /// Multi-message ingest calls accounted by the crypto layer (zero
    /// unless servers ingest via [`IngestMode::Burst`]).
    pub verify_bursts: u64,
    /// Verifications that belonged to those bursts.
    pub burst_verifications: u64,
    /// Wave statistics aggregated over all correct servers: widths
    /// (min/mean/max plus a log₂ histogram), wave and burst counts.
    pub wave_stats: dagbft_core::WaveStats,
    /// Simulation time at stop.
    pub finished_at: TimeMs,
    /// Injection times by label (first injection wins), for latency math.
    pub injected_at: HashMap<Label, TimeMs>,
    /// Crash–recoveries performed during the run, in time order:
    /// `(at, server, report)` per rejoin.
    pub recoveries: Vec<(TimeMs, ServerId, RecoveryReport)>,
    /// Transferable equivocation proofs extractable from the correct
    /// servers' final DAGs (§6 accountability;
    /// `accountability::collect_proofs` aggregated and deduplicated by
    /// `(accused, seq)` across servers).
    pub equivocation_proofs: usize,
    /// Builders convicted by at least one of those proofs.
    pub accused: BTreeSet<ServerId>,
    /// The servers, for post-run inspection (DAGs, interpreter stats).
    servers: Vec<ServerView<P>>,
}

/// Post-run view of one server.
#[derive(Debug)]
pub enum ServerView<P: DeterministicProtocol> {
    /// A correct server's final shim.
    Correct(Box<Shim<P>>),
    /// A byzantine server's final state.
    Byzantine(Box<ByzServer>),
    /// The server crashed during the run.
    Crashed,
}

impl<P: DeterministicProtocol> SimOutcome<P> {
    /// The final shim of a correct server.
    ///
    /// # Panics
    ///
    /// Panics if `index` was not a correct server.
    pub fn shim(&self, index: usize) -> &Shim<P> {
        match &self.servers[index] {
            ServerView::Correct(shim) => shim,
            _ => panic!("server {index} is not correct"),
        }
    }

    /// The final DAG of any non-crashed server.
    pub fn dag(&self, index: usize) -> Option<&dagbft_core::BlockDag> {
        match &self.servers[index] {
            ServerView::Correct(shim) => Some(shim.dag()),
            ServerView::Byzantine(server) => Some(server.dag()),
            ServerView::Crashed => None,
        }
    }

    /// Deliveries for one label, in time order.
    pub fn deliveries_for(&self, label: Label) -> Vec<&Delivery<P::Indication>> {
        self.deliveries
            .iter()
            .filter(|d| d.label == label)
            .collect()
    }

    /// Delivery latencies (per delivery) for one label.
    pub fn latencies_for(&self, label: Label) -> Vec<TimeMs> {
        let Some(injected) = self.injected_at.get(&label) else {
            return Vec::new();
        };
        self.deliveries_for(label)
            .iter()
            .map(|d| d.latency_from(*injected))
            .collect()
    }

    /// Indices of servers that were correct for the whole run.
    pub fn correct_servers(&self) -> Vec<usize> {
        self.servers
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, ServerView::Correct(_)).then_some(i))
            .collect()
    }

    /// Aggregated interpreter memory footprint over all correct servers:
    /// total vs unique protocol instances (the saving over clone-per-block)
    /// and envelope counts.
    pub fn interpreter_footprint(&self) -> dagbft_core::InterpreterFootprint {
        let mut total = dagbft_core::InterpreterFootprint::default();
        for server in &self.servers {
            if let ServerView::Correct(shim) = server {
                total += shim.footprint();
            }
        }
        total
    }
}

/// What a recovery returns.
type Recovered<P> = Result<(Shim<P>, RecoveryReport), RecoverError>;

/// Recovery with snapshot catch-up at a cadence, as
/// [`Simulation::with_durable_snapshots`] installs it. A plain `fn`
/// pointer so [`Simulation`] itself needs no snapshot bounds.
type SnapshotRecoverFn<P> =
    fn(ServerId, ShimConfig, &KeyRegistry, Box<dyn BlockStore>, u64) -> Recovered<P>;

enum Event<P: DeterministicProtocol> {
    /// Everything of `server` except its store is gone.
    Crash {
        server: usize,
    },
    /// `server` is born again from the store its crash left behind.
    Rejoin {
        server: usize,
    },
    Deliver {
        to: usize,
        from: ServerId,
        message: NetMessage,
    },
    Disseminate {
        server: usize,
    },
    Tick {
        server: usize,
    },
    Inject(Injection<P>),
}

/// A configured simulation, ready to run.
///
/// # Examples
///
/// See the crate-level docs.
pub struct Simulation<P: DeterministicProtocol> {
    config: SimConfig,
    /// What every correct server runs under, derived from `config`.
    shim_config: ShimConfig,
    registry: KeyRegistry,
    servers: Vec<Server<P>>,
    queue: EventQueue<Event<P>>,
    rng: StdRng,
    net: NetMetrics,
    deliveries: Vec<Delivery<P::Indication>>,
    injected_at: HashMap<Label, TimeMs>,
    /// Set by [`Simulation::with_durable_snapshots`]: the snapshot cadence
    /// and the recovery that catches up from snapshots and re-enables it.
    /// `None`: durable servers come back via [`Shim::recover_from_store`].
    snapshots: Option<(u64, SnapshotRecoverFn<P>)>,
    recoveries: Vec<(TimeMs, ServerId, RecoveryReport)>,
}

impl<P: DeterministicProtocol> Simulation<P> {
    /// Builds the simulation: generates keys, instantiates servers per
    /// role, and schedules the recurring dissemination and tick timers.
    ///
    /// # Panics
    ///
    /// Panics if a configured role index is out of range.
    pub fn new(config: SimConfig) -> Self {
        let registry = KeyRegistry::generate_kind(config.scheme, config.n, config.seed);
        let shim_config = ShimConfig::new(config.protocol)
            .with_pending_cap(config.pending_cap)
            .with_defense(config.defense);
        let mut servers = Vec::with_capacity(config.n);
        for index in 0..config.n {
            let role = config.roles.get(&index).cloned().unwrap_or(Role::Correct);
            let server = match role {
                Role::Correct | Role::Crash { .. } | Role::Restart { .. } => {
                    Server::Correct(Box::new(
                        Shim::new(ServerId::new(index as u32), shim_config, &registry)
                            .expect("key exists for every server"),
                    ))
                }
                byzantine => Server::Byzantine(Box::new(ByzServer::new(
                    ServerId::new(index as u32),
                    config.n,
                    byzantine,
                    &registry,
                ))),
            };
            servers.push(server);
        }

        let mut queue = EventQueue::new();
        for index in 0..config.n {
            // Phase-shift the timers so servers do not act in lockstep.
            let phase = (index as TimeMs * config.disseminate_every) / config.n as TimeMs;
            queue.schedule(phase, Event::Disseminate { server: index });
            queue.schedule(phase + 1, Event::Tick { server: index });
        }

        let mut sim = Simulation {
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(1)),
            shim_config,
            registry,
            servers,
            queue,
            net: NetMetrics::default(),
            deliveries: Vec::new(),
            injected_at: HashMap::new(),
            snapshots: None,
            recoveries: Vec::new(),
            config,
        };
        for server in 0..sim.config.n {
            match sim.config.roles.get(&server) {
                Some(&Role::Crash { at }) => sim.queue.schedule_first(at, Event::Crash { server }),
                Some(&Role::Restart {
                    crash_at,
                    rejoin_at,
                }) => sim.durable(server, Box::new(MemoryStore::new()), crash_at, rejoin_at),
                _ => {}
            }
        }
        sim
    }

    /// Brings `server` into existence from `store` — the one way a
    /// durable server starts, at construction and after every crash.
    /// Indications re-raised by the replay are discarded: the modeled
    /// application persisted its own progress.
    fn boot(&self, server: usize, store: Box<dyn BlockStore>) -> (Shim<P>, RecoveryReport) {
        let me = ServerId::new(server as u32);
        let (mut shim, report) = match self.snapshots {
            Some((every, recover)) => recover(me, self.shim_config, &self.registry, store, every),
            None => Shim::recover_from_store(me, self.shim_config, &self.registry, store),
        }
        .expect("a server recovers from its own store");
        let _replayed = shim.poll_indications();
        (shim, report)
    }

    /// Makes `server` a durable one, born from `store`, and schedules its
    /// crash and its rejoin — `schedule_first`, like injections, crash
    /// ahead of rejoin: at one instant `t` the order is crash, rejoin,
    /// injections, then timers and deliveries.
    fn durable(
        &mut self,
        server: usize,
        store: Box<dyn BlockStore>,
        crash_at: TimeMs,
        rejoin_at: TimeMs,
    ) {
        assert!(
            matches!(self.servers[server], Server::Correct(_)),
            "server {server} is not correct"
        );
        self.servers[server] = Server::Correct(Box::new(self.boot(server, store).0));
        self.queue.schedule_first(crash_at, Event::Crash { server });
        self.queue
            .schedule_first(rejoin_at, Event::Rejoin { server });
    }

    /// Makes `server` a durable one over the caller's [`BlockStore`], with a
    /// crash-at-instant at `crash_at`. The server is born from the store
    /// right away — an empty one is a fresh start, one holding a journal is
    /// recovered from — and journals through it; at `crash_at` everything
    /// except the store is dropped and the server is born from it again.
    ///
    /// Recovery replays the journal from genesis unless
    /// [`Simulation::with_durable_snapshots`] is also configured.
    ///
    /// # Panics
    ///
    /// Panics if `server` is not a correct server, or if it does not
    /// recover from `store`.
    pub fn with_durable_store(
        mut self,
        server: usize,
        store: Box<dyn BlockStore>,
        crash_at: TimeMs,
    ) -> Self {
        self.durable(server, store, crash_at, crash_at);
        self
    }

    /// Schedules a request injection.
    pub fn inject(&mut self, injection: Injection<P>) {
        assert!(injection.server < self.config.n, "server index in range");
        self.injected_at
            .entry(injection.label)
            .or_insert(injection.at);
        // `schedule_first`: an injection at time `t` must reach the shim
        // before a dissemination firing at the same `t` builds its block.
        self.queue
            .schedule_first(injection.at, Event::Inject(injection));
    }

    /// Schedules many injections.
    pub fn inject_all<I: IntoIterator<Item = Injection<P>>>(&mut self, injections: I) {
        for injection in injections {
            self.inject(injection);
        }
    }

    /// Runs to completion (`max_time`, early-stop, or quiescence) and
    /// returns the outcome.
    pub fn run(mut self) -> SimOutcome<P> {
        self.registry.metrics().reset();
        while let Some((now, event)) = self.queue.pop() {
            if now > self.config.max_time {
                break;
            }
            self.handle(now, event);
            if let Some(stop) = self.config.stop_after_deliveries {
                if self.deliveries.len() >= stop {
                    break;
                }
            }
        }
        let finished_at = self.queue.now();
        let mut wave_stats = dagbft_core::WaveStats::default();
        // Aggregate §6 accountability over the correct servers: every
        // proof any of them can extract, deduplicated by (accused, seq)
        // — the same fork seen by two servers is one conviction.
        let mut convictions: BTreeSet<(ServerId, dagbft_core::SeqNum)> = BTreeSet::new();
        let mut accused: BTreeSet<ServerId> = BTreeSet::new();
        for server in &self.servers {
            if let Server::Correct(shim) = server {
                wave_stats.merge(shim.gossip().wave_stats());
                for proof in accountability::collect_proofs(shim.dag()) {
                    convictions.insert((proof.accused(), proof.blocks().0.seq()));
                    accused.insert(proof.accused());
                }
            }
        }
        SimOutcome {
            deliveries: self.deliveries,
            net: self.net,
            signatures: self.registry.metrics().signs(),
            verifications: self.registry.metrics().verifies(),
            verify_batches: self.registry.metrics().batches(),
            batched_verifications: self.registry.metrics().batched_verifies(),
            verify_bursts: self.registry.metrics().bursts(),
            burst_verifications: self.registry.metrics().burst_verifies(),
            wave_stats,
            finished_at,
            injected_at: self.injected_at,
            recoveries: self.recoveries,
            equivocation_proofs: convictions.len(),
            accused,
            servers: self
                .servers
                .into_iter()
                .map(|server| match server {
                    Server::Correct(shim) => ServerView::Correct(shim),
                    Server::Byzantine(byz) => ServerView::Byzantine(byz),
                    Server::Crashed | Server::Down(_) => ServerView::Crashed,
                })
                .collect(),
        }
    }

    fn handle(&mut self, now: TimeMs, event: Event<P>) {
        match event {
            Event::Crash { server } => {
                if let Server::Correct(shim) = &mut self.servers[server] {
                    let left = shim.detach_store();
                    self.servers[server] = left.map_or(Server::Crashed, Server::Down);
                }
            }
            Event::Rejoin { server } => {
                match std::mem::replace(&mut self.servers[server], Server::Crashed) {
                    Server::Down(store) => {
                        let (shim, report) = self.boot(server, store);
                        self.servers[server] = Server::Correct(Box::new(shim));
                        self.recoveries
                            .push((now, ServerId::new(server as u32), report));
                    }
                    up => self.servers[server] = up,
                }
            }
            Event::Inject(injection) => {
                if let Server::Correct(shim) = &mut self.servers[injection.server] {
                    shim.request(injection.label, injection.request);
                }
            }
            Event::Disseminate { server } => {
                match &mut self.servers[server] {
                    Server::Correct(shim) => {
                        let commands = shim.disseminate(now);
                        self.route_commands(server, commands, now);
                        self.collect_deliveries(server, now);
                    }
                    Server::Byzantine(byz) => {
                        let sends = byz.disseminate(now);
                        for (to, message) in sends {
                            self.send(server, to.index(), message, now);
                        }
                    }
                    // A down server's timers keep their schedule for its
                    // rejoin; a crashed one's lapse for good.
                    Server::Down(_) => {}
                    Server::Crashed => return,
                }
                self.queue.schedule(
                    now + self.config.disseminate_every,
                    Event::Disseminate { server },
                );
            }
            Event::Tick { server } => {
                match &mut self.servers[server] {
                    Server::Correct(shim) => {
                        let commands = shim.on_tick(now);
                        self.route_commands(server, commands, now);
                    }
                    // Byzantine servers skip retries.
                    Server::Byzantine(_) | Server::Down(_) => {}
                    Server::Crashed => return,
                }
                self.queue
                    .schedule(now + TICK_EVERY, Event::Tick { server });
            }
            Event::Deliver { to, from, message } => {
                match &mut self.servers[to] {
                    Server::Correct(shim) => {
                        let commands = match self.config.ingest {
                            IngestMode::PerMessage => shim.on_message(from, message, now),
                            IngestMode::Burst { max } => {
                                // Coalesce the run of deliveries queued for
                                // this server at this instant into one
                                // ingest call.
                                let mut batch = vec![(from, message)];
                                while batch.len() < max.max(1) {
                                    let coalesced = self.queue.pop_if(|at, event| {
                                        at == now
                                            && matches!(
                                                event,
                                                Event::Deliver { to: next, .. } if *next == to
                                            )
                                    });
                                    match coalesced {
                                        Some((_, Event::Deliver { from, message, .. })) => {
                                            batch.push((from, message));
                                        }
                                        Some(_) => unreachable!("pop_if matched a delivery"),
                                        None => break,
                                    }
                                }
                                shim.on_message_burst(batch, now)
                            }
                        };
                        self.route_commands(to, commands, now);
                        self.collect_deliveries(to, now);
                    }
                    Server::Byzantine(byz) => {
                        let commands = byz.on_message(from, message, now);
                        self.route_commands(to, commands, now);
                    }
                    Server::Crashed | Server::Down(_) => {}
                }
            }
        }
    }

    fn route_commands(&mut self, origin: usize, commands: Vec<NetCommand>, now: TimeMs) {
        for command in commands {
            match command {
                NetCommand::Broadcast { message } => {
                    for target in 0..self.config.n {
                        if target != origin {
                            self.send(origin, target, message.clone(), now);
                        }
                    }
                }
                NetCommand::SendTo { to, message } => {
                    self.send(origin, to.index(), message, now);
                }
            }
        }
    }

    fn send(&mut self, from: usize, to: usize, message: NetMessage, now: TimeMs) {
        let is_block = matches!(message, NetMessage::Block(_));
        let is_fwd = matches!(message, NetMessage::FwdRequest(_));
        // `wire_len` is O(1) off the cached block bytes, and the message
        // clone behind us (broadcast fan-out) was a reference-count bump —
        // the simulated wire path never re-encodes a block.
        self.net.record_send(message.wire_len(), is_block, is_fwd);
        let dropped = self.config.network.drops(&mut self.rng, from, to, now);
        self.net.record_outcome(dropped);
        if dropped {
            return;
        }
        let delay = self.config.network.delay(&mut self.rng);
        self.queue.schedule(
            now + delay,
            Event::Deliver {
                to,
                from: ServerId::new(from as u32),
                message,
            },
        );
    }

    fn collect_deliveries(&mut self, server: usize, now: TimeMs) {
        if let Server::Correct(shim) = &mut self.servers[server] {
            for (label, indication) in shim.poll_indications() {
                self.deliveries.push(Delivery {
                    at: now,
                    server: ServerId::new(server as u32),
                    label,
                    indication,
                });
            }
        }
    }
}

impl<P> Simulation<P>
where
    P: SnapshotProtocol,
    P::Message: WireEncode + WireDecode,
{
    /// Enables periodic interpreter snapshots (one every `every`
    /// interpreted blocks) on every durable server, and switches their
    /// recovery to the snapshot catch-up path: a rejoining server restores
    /// interpreter state from the latest snapshot and replays only the
    /// journal suffix past it.
    ///
    /// Call after [`Simulation::with_durable_store`].
    pub fn with_durable_snapshots(mut self, every: u64) -> Self {
        for server in &mut self.servers {
            if let Server::Correct(shim) = server {
                shim.enable_snapshots(every);
            }
        }
        self.snapshots = Some((every, Self::recover_snapshotting));
        self
    }

    fn recover_snapshotting(
        me: ServerId,
        config: ShimConfig,
        registry: &KeyRegistry,
        store: Box<dyn BlockStore>,
        every: u64,
    ) -> Recovered<P> {
        let (mut shim, report) =
            Shim::recover_from_store_with_snapshots(me, config, registry, store)?;
        shim.enable_snapshots(every);
        Ok((shim, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_protocols::{Brb, BrbIndication, BrbRequest};

    fn broadcast_injection(
        at: TimeMs,
        server: usize,
        label: u64,
        value: u64,
    ) -> Injection<Brb<u64>> {
        Injection {
            at,
            server,
            label: Label::new(label),
            request: BrbRequest::Broadcast(value),
        }
    }

    #[test]
    fn injection_at_rejoin_instant_reaches_recovered_server() {
        // A request injected at exactly `rejoin_at` must land on the
        // recovered shim, not on the still-down server: the rejoin event
        // precedes same-instant injections in the queue.
        let config = SimConfig::new(4)
            .with_max_time(60_000)
            .with_role(
                0,
                Role::Restart {
                    crash_at: 100,
                    rejoin_at: 500,
                },
            )
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(500, 0, 1, 9));
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4, "request survived the rejoin");
        for delivery in &outcome.deliveries {
            assert_eq!(delivery.indication, BrbIndication::Deliver(9));
        }
    }

    #[test]
    fn brb_all_deliver_over_dag() {
        let config = SimConfig::new(4)
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 42));
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4);
        for delivery in &outcome.deliveries {
            assert_eq!(delivery.indication, BrbIndication::Deliver(42));
        }
        // One delivery per server.
        let servers: std::collections::BTreeSet<_> =
            outcome.deliveries.iter().map(|d| d.server).collect();
        assert_eq!(servers.len(), 4);
    }

    #[test]
    fn runs_are_reproducible() {
        let run = || {
            let config = SimConfig::new(4)
                .with_max_time(3_000)
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 2, 9, 7));
            let outcome = sim.run();
            (
                outcome.finished_at,
                outcome.net.messages_sent,
                outcome.net.bytes_sent,
                outcome
                    .deliveries
                    .iter()
                    .map(|d| (d.at, d.server.index()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seed_different_schedule() {
        let run = |seed| {
            let config = SimConfig::new(4)
                .with_seed(seed)
                .with_network(NetworkModel {
                    latency: crate::net::Latency::Uniform { min: 5, max: 200 },
                    ..NetworkModel::default()
                })
                .with_max_time(5_000)
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 7));
            let outcome = sim.run();
            (
                outcome.deliveries.iter().map(|d| d.at).collect::<Vec<_>>(),
                outcome.net.messages_sent,
                outcome.net.bytes_sent,
            )
        };
        // Latencies are sampled differently; the trace shifts.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn silent_byzantine_does_not_stop_brb() {
        let config = SimConfig::new(4)
            .with_max_time(10_000)
            .with_role(3, Role::Silent)
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 5));
        let outcome = sim.run();
        // The three correct servers deliver.
        assert_eq!(outcome.deliveries.len(), 3);
        assert!(outcome
            .deliveries
            .iter()
            .all(|d| d.indication == BrbIndication::Deliver(5)));
    }

    #[test]
    fn crash_after_start_retains_other_deliveries() {
        let config = SimConfig::new(4)
            .with_max_time(10_000)
            .with_role(3, Role::Crash { at: 1 })
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 5));
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 3);
        assert!(outcome.dag(3).is_none(), "crashed server view");
    }

    #[test]
    fn lossy_network_still_delivers_via_fwd() {
        let config = SimConfig::new(4)
            .with_max_time(30_000)
            .with_network(NetworkModel::default().with_drop_rate(0.3))
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 11));
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4, "FWD recovery failed");
        assert!(outcome.net.messages_dropped > 0, "loss actually happened");
    }

    #[test]
    fn equivocator_cannot_break_brb_consistency() {
        let config = SimConfig::new(4)
            .with_max_time(10_000)
            .with_role(0, Role::Equivocate { at_seq: 0 })
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        // A correct server broadcasts; the equivocator splits the DAG view.
        sim.inject(broadcast_injection(0, 1, 1, 99));
        let outcome = sim.run();
        let values: std::collections::BTreeSet<u64> = outcome
            .deliveries
            .iter()
            .map(|d| match &d.indication {
                BrbIndication::Deliver(v) => *v,
            })
            .collect();
        assert!(values.len() <= 1, "consistency violated");
        // Correct servers detected the equivocation in their DAGs.
        let correct = outcome.correct_servers();
        let detected = correct.iter().any(|i| {
            !outcome
                .shim(*i)
                .dag()
                .equivocations(ServerId::new(0))
                .is_empty()
        });
        assert!(detected, "equivocation visible in some correct DAG");
    }

    #[test]
    fn injections_recorded_for_latency() {
        let config = SimConfig::new(4)
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(100, 0, 1, 1));
        let outcome = sim.run();
        let latencies = outcome.latencies_for(Label::new(1));
        assert_eq!(latencies.len(), 4);
        assert!(latencies.iter().all(|l| *l > 0));
    }

    #[test]
    fn interpreter_footprint_aggregates_correct_servers() {
        let config = SimConfig::new(4)
            .with_max_time(5_000)
            .with_role(3, Role::Crash { at: 1 })
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 42));
        let outcome = sim.run();
        let total = outcome.interpreter_footprint();
        // Only the three correct servers contribute.
        let per_server: usize = outcome
            .correct_servers()
            .iter()
            .map(|i| outcome.shim(*i).footprint().blocks)
            .sum();
        assert_eq!(total.blocks, per_server);
        assert!(total.blocks > 0);
        assert!(total.unique_instances <= total.instances);
    }

    #[test]
    fn every_signature_is_verified_in_a_batched_wave() {
        let config = SimConfig::new(4)
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 6));
        let outcome = sim.run();
        // Admission verifies every signature through a batched wave.
        assert!(outcome.verify_batches > 0);
        assert_eq!(outcome.batched_verifications, outcome.verifications);
        assert_eq!(outcome.wave_stats.batched_blocks, outcome.verifications);
    }

    #[test]
    fn burst_ingest_reaches_same_protocol_outcomes() {
        // Burst delivery may reorder how blocks get referenced, but the
        // protocol-level outcome — who delivers what — is unchanged, on
        // clean and lossy networks.
        for drop_rate in [0.0, 0.3] {
            let run = |ingest: IngestMode| {
                let config = SimConfig::new(4)
                    .with_max_time(30_000)
                    .with_network(NetworkModel::default().with_drop_rate(drop_rate))
                    .with_ingest(ingest)
                    .with_stop_after_deliveries(4);
                let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
                sim.inject(broadcast_injection(0, 0, 1, 77));
                sim.run()
            };
            let per_message = run(IngestMode::PerMessage);
            let bursty = run(IngestMode::Burst { max: 1024 });
            assert_eq!(per_message.deliveries.len(), bursty.deliveries.len());
            for outcome in [&per_message, &bursty] {
                assert!(outcome
                    .deliveries
                    .iter()
                    .all(|d| d.indication == BrbIndication::Deliver(77)));
                for index in outcome.correct_servers() {
                    assert!(outcome.shim(index).dag().check_invariants());
                }
            }
            // Burst ingest actually made multi-message calls.
            assert!(bursty.wave_stats.bursts > 0, "drop {drop_rate}");
            assert_eq!(per_message.wave_stats.bursts, 0);
        }
    }

    #[test]
    fn burst_ingest_is_engine_equivalent_and_reproducible() {
        let run = || {
            let config = SimConfig::new(4)
                .with_max_time(10_000)
                .with_ingest(IngestMode::Burst { max: 256 })
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 6));
            sim.run()
        };
        let outcome = run();
        // Every multi-message call is one burst to gossip and, when it
        // verified anything, one to the crypto layer.
        assert!(outcome.verify_bursts > 0);
        assert!(outcome.verify_bursts <= outcome.wave_stats.bursts);
        assert_eq!(outcome.burst_verifications, outcome.verifications);
        // Reproducibility: same seed, same burst trace.
        let again = run();
        assert_eq!(outcome.net.bytes_sent, again.net.bytes_sent);
        assert_eq!(outcome.wave_stats, again.wave_stats);
        assert_eq!(
            outcome.deliveries.iter().map(|d| d.at).collect::<Vec<_>>(),
            again.deliveries.iter().map(|d| d.at).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hostile_burst_scenarios_stay_safe_under_burst_ingest() {
        // Equivocation + loss + a capped pending buffer, delivered in
        // bursts: BRB consistency and DAG invariants must hold.
        let config = SimConfig::new(4)
            .with_max_time(20_000)
            .with_network(NetworkModel::default().with_drop_rate(0.2))
            .with_role(0, Role::Equivocate { at_seq: 0 })
            .with_ingest(IngestMode::Burst { max: 64 })
            .with_pending_cap(8)
            .with_stop_after_deliveries(3);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 1, 1, 99));
        let outcome = sim.run();
        let values: std::collections::BTreeSet<u64> = outcome
            .deliveries
            .iter()
            .map(|d| match &d.indication {
                BrbIndication::Deliver(v) => *v,
            })
            .collect();
        assert!(values.len() <= 1, "consistency violated");
        for index in outcome.correct_servers() {
            assert!(outcome.shim(index).dag().check_invariants());
            assert!(outcome.shim(index).gossip().pending_len() <= 8);
        }
    }

    #[test]
    fn durable_crash_replays_journal_and_keeps_delivering() {
        let config = SimConfig::new(4).with_max_time(2_000);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config).with_durable_store(
            1,
            Box::new(dagbft_core::MemoryStore::new()),
            250,
        );
        sim.inject(broadcast_injection(0, 0, 1, 42));
        let outcome = sim.run();
        assert_eq!(outcome.recoveries.len(), 1);
        let (at, server, report) = outcome.recoveries[0];
        assert_eq!(at, 250);
        assert_eq!(server, ServerId::new(1));
        // Genesis replay: no snapshot, the whole journal re-interprets.
        assert_eq!(report.snapshot_covered, 0);
        assert_eq!(report.replayed_blocks, report.journal_blocks);
        assert!(report.journal_blocks > 0, "blocks were journaled pre-crash");
        // All four servers (including the crashed one) deliver exactly once.
        let deliveries: Vec<_> = outcome
            .deliveries
            .iter()
            .filter(|d| d.indication == BrbIndication::Deliver(42))
            .collect();
        assert_eq!(deliveries.len(), 4);
        let servers: std::collections::BTreeSet<_> = deliveries.iter().map(|d| d.server).collect();
        assert_eq!(servers.len(), 4);
        // The store stayed attached through recovery and kept journaling.
        assert!(outcome.shim(1).store_attached());
        assert!(outcome.shim(1).store_error().is_none());
    }

    #[test]
    fn durable_crash_with_snapshots_replays_only_the_suffix() {
        let config = SimConfig::new(4).with_max_time(2_000);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config)
            .with_durable_store(2, Box::new(dagbft_core::MemoryStore::new()), 600)
            .with_durable_snapshots(4);
        sim.inject(broadcast_injection(0, 0, 1, 7));
        let outcome = sim.run();
        assert_eq!(outcome.recoveries.len(), 1);
        let (_, server, report) = outcome.recoveries[0];
        assert_eq!(server, ServerId::new(2));
        // Snapshot catch-up: only the suffix past the snapshot replays.
        assert!(report.snapshot_covered > 0, "snapshot restored");
        assert!(
            report.replayed_blocks < report.journal_blocks,
            "replayed {} of {}",
            report.replayed_blocks,
            report.journal_blocks
        );
        assert_eq!(
            report.snapshot_covered + report.replayed_blocks,
            report.journal_blocks
        );
        assert_eq!(outcome.deliveries.len(), 4);
    }

    #[test]
    fn wire_traffic_is_blocks_and_fwds_only() {
        let config = SimConfig::new(4)
            .with_max_time(2_000)
            .with_stop_after_deliveries(4);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 42));
        let outcome = sim.run();
        assert_eq!(
            outcome.net.messages_sent,
            outcome.net.blocks_sent + outcome.net.fwd_sent,
            "no protocol messages ever touch the wire"
        );
    }
}
