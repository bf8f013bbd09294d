//! The simulation runner: `n` servers running `shim(P)` over the simulated
//! network, with a workload and optional byzantine roles.
//!
//! The runner realizes the deployment of Figure 1: every server is a
//! [`Shim<P>`] whose [`NetCommand`]s are routed through the
//! [`NetworkModel`], after its [`Role`] rewrote them — a byzantine server
//! is a shim that lies about what it sends ([`Role::rewrite`],
//! [`Role::answer`]). Each server keeps its own clock (Algorithm 3, lines
//! 10–11: seals and `FWD` retries, on the grids a live node uses too); the
//! runner only wakes it at its [`Shim::next_wake`], and hands it each
//! delivery by the node's ingest rule ([`INGEST_BURST_CAP`]). Everything —
//! keys, latencies, drops, event order — derives from the seed, so runs
//! are exactly reproducible.

use std::collections::{BTreeSet, HashMap};
use std::iter::{from_fn, once};

use dagbft_core::{
    accountability, BlockRef, BlockStore, DefenseConfig, DeterministicProtocol, Indication, Label,
    MemoryStore, NetCommand, NetMessage, ProtocolConfig, RecoveryReport, Shim, ShimConfig, TimeMs,
    INGEST_BURST_CAP,
};
use dagbft_crypto::{KeyRegistry, SchemeKind, ServerId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adversary::Role;
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

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of servers.
    pub n: usize,
    /// Randomness seed (keys, latencies, drops).
    pub seed: u64,
    /// The embedded protocol's fault configuration.
    pub protocol: ProtocolConfig,
    /// Interval between a server's seals, forwarded into every server's
    /// [`ShimConfig::disseminate_every_ms`] (0 is taken as 1 ms).
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
    /// Bound on each correct server's gossip pending buffer (see
    /// `dagbft_core::GossipConfig::pending_cap`); byzantine servers keep
    /// the default.
    pub pending_cap: usize,
    /// Peer-defense configuration for every correct server (scored
    /// admission, rate limits, bans — see `dagbft_core::DefenseConfig`);
    /// byzantine servers run without one. Disabled by default: every
    /// pinned fingerprint predates the defense layer and must stay
    /// byte-identical without it.
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
            pending_cap: dagbft_core::DEFAULT_PENDING_CAP,
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

    /// Bounds each correct server's gossip pending buffer.
    pub fn with_pending_cap(mut self, cap: usize) -> Self {
        self.pending_cap = cap.max(1);
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
    /// A running server, and the role that rewrites what it sends.
    Up(Box<Shim<P>>, Role),
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
    /// Verification operations: one per block a server's admission
    /// settled.
    pub verifications: u64,
    // Benchmark adapter only (see the block after `impl Simulation`).
    #[doc(hidden)]
    pub verify_batches: u64,
    #[doc(hidden)]
    pub batched_verifications: u64,
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
    /// What each server's interpretation raised, block by block.
    raised: Raised<P::Indication>,
}

/// Per server, every indication each block it interpreted raised, for every
/// simulated server, in the order raised: the record behind
/// [`SimOutcome::check_interpretation_agrees`]. Filled from
/// [`Shim::poll_raised`] after every step, in debug builds only — in
/// release builds it stays empty, so the benchmarks' memory is the
/// servers' own.
type Raised<I> = Vec<HashMap<BlockRef, Vec<Indication<I>>>>;

/// Two honest servers that interpreted one block differently — a
/// violation of Lemma 4.2, found by
/// [`SimOutcome::check_interpretation_agrees`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disagreement {
    /// The block both servers hold.
    pub block: BlockRef,
    /// The first label on which their interpretations differ.
    pub label: Label,
    /// The two servers, the lower index first.
    pub servers: (ServerId, ServerId),
    /// What differs: `"out-buffer"` or `"indications"`.
    pub what: &'static str,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (a, b) = self.servers;
        write!(
            f,
            "servers {a} and {b} interpreted block {} to different {} on label {}",
            self.block, self.what, self.label
        )
    }
}

/// The label of the first position at which `a` and `b` differ, if any.
fn first_difference<T: PartialEq>(a: &[T], b: &[T], label: impl Fn(&T) -> Label) -> Option<Label> {
    let at = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    a.get(at).or(b.get(at)).map(label)
}

/// Post-run view of one server.
#[derive(Debug)]
pub enum ServerView<P: DeterministicProtocol> {
    /// A correct server's final shim.
    Correct(Box<Shim<P>>),
    /// A byzantine server's final shim: its own, honestly kept view.
    Byzantine(Box<Shim<P>>),
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
            ServerView::Correct(shim) | ServerView::Byzantine(shim) => Some(shim.dag()),
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

    /// Lemma 4.2 across servers: every block that two or more honest
    /// servers hold was interpreted by each to the same out-buffer entries
    /// and — in debug builds, where the simulation recorded what each step
    /// raised, for every block both recorded — the same indications.
    /// Release builds compare out-buffer entries only. Returns how many
    /// (block, server pair) comparisons were made, or the first
    /// disagreement, in server order and then in the lower-indexed
    /// server's interpretation order. [`Simulation::run`] calls it in
    /// debug builds and panics on a disagreement.
    ///
    /// # Errors
    ///
    /// The first [`Disagreement`] found.
    pub fn check_interpretation_agrees(&self) -> Result<usize, Disagreement> {
        let honest: Vec<(ServerId, &Shim<P>)> = self
            .servers
            .iter()
            .enumerate()
            .filter_map(|(index, server)| match server {
                ServerView::Correct(shim) => Some((ServerId::new(index as u32), &**shim)),
                _ => None,
            })
            .collect();
        let mut compared = 0;
        for (at, (a, first)) in honest.iter().enumerate() {
            for (b, second) in &honest[at + 1..] {
                for block in first.interpreter().interpreted_order() {
                    let Some(theirs) = second.interpreter().state(block) else {
                        continue;
                    };
                    let ours = first.interpreter().state(block).expect("interpreted");
                    let disagree = |label, what| Disagreement {
                        block: *block,
                        label,
                        servers: (*a, *b),
                        what,
                    };
                    let ours: Vec<_> = ours.out_entries().collect();
                    let theirs: Vec<_> = theirs.out_entries().collect();
                    if let Some(label) = first_difference(&ours, &theirs, |entry| entry.0) {
                        return Err(disagree(label, "out-buffer"));
                    }
                    if let (Some(ours), Some(theirs)) = (
                        self.raised[a.index()].get(block),
                        self.raised[b.index()].get(block),
                    ) {
                        if let Some(label) = first_difference(ours, theirs, |raised| raised.label) {
                            return Err(disagree(label, "indications"));
                        }
                    }
                    compared += 1;
                }
            }
        }
        Ok(compared)
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
    /// `server`'s clock is due: see [`Shim::wake`].
    Wake {
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
    /// every durable server keeps, also after a rejoin.
    snapshot_every: Option<u64>,
    recoveries: Vec<(TimeMs, ServerId, RecoveryReport)>,
    raised: Raised<P::Indication>,
    /// Per server, how much of its interpreter's order `raised` covers.
    audited: Vec<usize>,
}

impl<P: DeterministicProtocol> Simulation<P> {
    /// Builds the simulation: generates keys, instantiates servers per
    /// role, and schedules every server's first wake, at 0 — but a
    /// [`Role::Silent`] one's: it is never woken, so it seals nothing.
    ///
    /// # Panics
    ///
    /// Panics if a configured role index is out of range.
    pub fn new(config: SimConfig) -> Self {
        if let Some(index) = config.roles.keys().find(|&&index| index >= config.n) {
            panic!(
                "a role for server {index}, out of range for n = {}",
                config.n
            );
        }
        let registry = KeyRegistry::generate(config.n, config.seed);
        let shim_config = ShimConfig::new(config.protocol)
            .with_pending_cap(config.pending_cap)
            .with_defense(config.defense)
            .with_disseminate_every_ms(config.disseminate_every);
        // Byzantine servers run the defaults: no defense, the default
        // pending cap.
        let byzantine_config =
            ShimConfig::new(config.protocol).with_disseminate_every_ms(config.disseminate_every);
        let mut servers = Vec::with_capacity(config.n);
        let mut queue = EventQueue::new();
        for index in 0..config.n {
            let role = config.roles.get(&index).cloned().unwrap_or(Role::Correct);
            if role != Role::Silent {
                queue.schedule_timer(0, Event::Wake { server: index });
            }
            let own_config = if role.is_byzantine() {
                byzantine_config
            } else {
                shim_config
            };
            let shim = Shim::new(ServerId::new(index as u32), own_config, &registry)
                .expect("key exists for every server");
            servers.push(Server::Up(Box::new(shim), role));
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
            snapshot_every: None,
            recoveries: Vec::new(),
            raised: (0..config.n).map(|_| HashMap::new()).collect(),
            audited: vec![0; config.n],
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
    /// application persisted its own progress. The audit record of the
    /// blocks recovery interpreted again stays the one made before.
    fn boot(&mut self, server: usize, store: Box<dyn BlockStore>) -> (Shim<P>, RecoveryReport) {
        let me = ServerId::new(server as u32);
        let (mut shim, report) =
            Shim::recover_from_store(me, self.shim_config, &self.registry, store)
                .expect("a server recovers from its own store");
        if let Some(every) = self.snapshot_every {
            shim.enable_snapshots(every);
        }
        let _replayed = shim.poll_raised();
        self.audited[server] = shim.interpreter().interpreted_count();
        (shim, report)
    }

    /// Makes `server` a durable one, born from `store`, and schedules its
    /// crash and its rejoin — `schedule_first`, like injections, crash
    /// ahead of rejoin: at one instant `t` the order is crash, rejoin,
    /// injections, then wakes, then deliveries.
    fn durable(
        &mut self,
        server: usize,
        store: Box<dyn BlockStore>,
        crash_at: TimeMs,
        rejoin_at: TimeMs,
    ) {
        let role = self.role(server);
        assert!(!role.is_byzantine(), "server {server} is not correct");
        self.servers[server] = Server::Up(Box::new(self.boot(server, store).0), role);
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
    /// Recovery restores the store's latest snapshot, if `P` keeps
    /// snapshots and the store holds one ([`Shim::recover_from_store`]),
    /// and replays the journal from genesis otherwise; the server writes
    /// snapshots once [`Simulation::with_durable_snapshots`] is configured.
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

    /// Enables periodic interpreter snapshots (one every `every`
    /// interpreted blocks) on every durable server, so a rejoining server
    /// restores interpreter state from the latest snapshot and replays
    /// only the journal suffix past it. No-op for a `P` that keeps no
    /// snapshots ([`DeterministicProtocol::SNAPSHOTS`]).
    ///
    /// Call after [`Simulation::with_durable_store`].
    pub fn with_durable_snapshots(mut self, every: u64) -> Self {
        for server in &mut self.servers {
            if let Server::Up(shim, _) = server {
                shim.enable_snapshots(every);
            }
        }
        self.snapshot_every = Some(every);
        self
    }

    /// Queues a request injection.
    pub fn inject(&mut self, injection: Injection<P>) {
        assert!(injection.server < self.config.n, "server index in range");
        self.injected_at
            .entry(injection.label)
            .or_insert(injection.at);
        // `schedule_first`: an injection at time `t` must reach the shim
        // before a wake at the same `t` seals its block.
        self.queue
            .schedule_first(injection.at, Event::Inject(injection));
    }

    /// Queues many injections.
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
        let servers: Vec<ServerView<P>> = self
            .servers
            .into_iter()
            .map(|server| match server {
                Server::Up(shim, role) if role.is_byzantine() => ServerView::Byzantine(shim),
                Server::Up(shim, _) => ServerView::Correct(shim),
                Server::Crashed | Server::Down(_) => ServerView::Crashed,
            })
            .collect();
        // Aggregate §6 accountability over the correct servers: every
        // proof any of them can extract, deduplicated by (accused, seq)
        // — the same fork seen by two servers is one conviction.
        let mut convictions: BTreeSet<(ServerId, dagbft_core::SeqNum)> = BTreeSet::new();
        let mut accused: BTreeSet<ServerId> = BTreeSet::new();
        for server in &servers {
            if let ServerView::Correct(shim) = server {
                for proof in accountability::collect_proofs(shim.dag()) {
                    convictions.insert((proof.accused(), proof.blocks().0.seq()));
                    accused.insert(proof.accused());
                }
            }
        }
        let outcome = SimOutcome {
            deliveries: self.deliveries,
            net: self.net,
            signatures: self.registry.metrics().signs(),
            verifications: self.registry.metrics().verifies(),
            verify_batches: self.registry.metrics().verifies(),
            batched_verifications: self.registry.metrics().verifies(),
            finished_at,
            injected_at: self.injected_at,
            recoveries: self.recoveries,
            raised: self.raised,
            equivocation_proofs: convictions.len(),
            accused,
            servers,
        };
        if cfg!(debug_assertions) {
            if let Err(disagreement) = outcome.check_interpretation_agrees() {
                panic!("Lemma 4.2 does not hold across servers: {disagreement}");
            }
        }
        outcome
    }

    fn handle(&mut self, now: TimeMs, event: Event<P>) {
        match event {
            Event::Crash { server } => {
                if let Server::Up(shim, _) = &mut self.servers[server] {
                    let left = shim.detach_store();
                    self.servers[server] = left.map_or(Server::Crashed, Server::Down);
                }
            }
            Event::Rejoin { server } => {
                match std::mem::replace(&mut self.servers[server], Server::Crashed) {
                    Server::Down(store) => {
                        let (shim, report) = self.boot(server, store);
                        self.servers[server] = Server::Up(Box::new(shim), self.role(server));
                        self.recoveries
                            .push((now, ServerId::new(server as u32), report));
                        self.queue.schedule_timer(now, Event::Wake { server });
                    }
                    up => self.servers[server] = up,
                }
            }
            Event::Inject(injection) => {
                if let Server::Up(shim, _) = &mut self.servers[injection.server] {
                    shim.request(injection.label, injection.request);
                }
            }
            Event::Wake { server } => {
                // Down: the chain ends, and a rejoin starts a new one.
                // Before the deadline: a crash and rejoin in one slot left
                // two chains, and the other already ran at this instant.
                let (commands, next) = match &mut self.servers[server] {
                    Server::Up(shim, role) if now >= shim.next_wake() => {
                        let me = ServerId::new(server as u32);
                        let commands = shim.wake(now);
                        let commands =
                            role.rewrite(me, self.config.n, &self.registry, commands, now);
                        (commands, shim.next_wake())
                    }
                    _ => return,
                };
                self.route_commands(server, commands, now);
                self.collect_deliveries(server, now);
                self.queue.schedule_timer(next, Event::Wake { server });
            }
            Event::Deliver { to, from, message } => {
                let Server::Up(shim, role) = &mut self.servers[to] else {
                    return;
                };
                // The delivery and the ones waiting behind it — due now,
                // to this server — as one run, the node's rule
                // (`INGEST_BURST_CAP`); the rest stay queued.
                let waiting = || {
                    let (_, event) = self.queue.pop_if(|at, event| {
                        at == now && matches!(event, Event::Deliver { to: next, .. } if *next == to)
                    })?;
                    let Event::Deliver { from, message, .. } = event else {
                        unreachable!("pop_if matched a delivery");
                    };
                    Some((from, message))
                };
                let run = once((from, message))
                    .chain(from_fn(waiting))
                    .take(INGEST_BURST_CAP);
                let commands = role.answer(shim.on_message_burst(run, now));
                self.route_commands(to, commands, now);
                self.collect_deliveries(to, now);
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

    /// The role `server` was configured with.
    fn role(&self, server: usize) -> Role {
        self.config
            .roles
            .get(&server)
            .cloned()
            .unwrap_or(Role::Correct)
    }

    /// Takes what `server`'s interpretation raised: a correct server's
    /// own indications are deliveries, a byzantine one's are no user's.
    fn collect_deliveries(&mut self, server: usize, now: TimeMs) {
        let Server::Up(shim, role) = &mut self.servers[server] else {
            return;
        };
        let raised = shim.poll_raised();
        if role.is_byzantine() {
            return;
        }
        let me = ServerId::new(server as u32);
        if cfg!(debug_assertions) {
            let record = &mut self.raised[server];
            let order = shim.interpreter().interpreted_order();
            for block in &order[self.audited[server]..] {
                record.insert(*block, Vec::new());
            }
            self.audited[server] = order.len();
            for indication in &raised {
                if let Some(at) = record.get_mut(&indication.block) {
                    at.push(indication.clone());
                }
            }
        }
        for indication in raised {
            if indication.server == me {
                self.deliveries.push(Delivery {
                    at: now,
                    server: me,
                    label: indication.label,
                    indication: indication.indication,
                });
            }
        }
    }
}

// --- Benchmark adapter only ----------------------------------------------
//
// `crates/bench/src/bin/benchmark/adapter.rs` names these. `with_scheme`
// goes with ROADMAP item 9(g): every simulation signs with ed25519 keys,
// the only scheme, so it returns `self`. `SimOutcome`'s `verify_batches`
// and `batched_verifications` go with 9(j); both equal `verifications`:
// admission verifies each block on its own, so every check is a pass of
// one.

impl SimConfig {
    #[doc(hidden)]
    pub fn with_scheme(self, _: SchemeKind) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_core::{InvalidBlockError, SealStats};
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
    fn a_crash_and_rejoin_inside_one_seal_slot_keeps_one_wake_chain() {
        // Server 1 seals on 12 + 50k; it crashes and rejoins between its slots 112 and 162, so the wake its
        // previous life armed for 162 is still queued when it rejoins.
        let config = SimConfig::new(4).with_role(
            1,
            Role::Restart {
                crash_at: 130,
                rejoin_at: 140,
            },
        );
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 1, 1, 3));
        // What the first life sealed and was woken for, read as it crashes.
        let mut first_life = SealStats::default();
        while sim.queue.peek_time().is_some_and(|at| at <= 1_000) {
            let (now, event) = sim.queue.pop().expect("peeked");
            if let (Event::Crash { server: 1 }, Server::Up(shim, _)) = (&event, &sim.servers[1]) {
                first_life = *shim.seal_stats();
            }
            sim.handle(now, event);
        }
        let Server::Up(shim, _) = &sim.servers[1] else {
            panic!("server 1 is up again");
        };
        // One woken slot per slot 12, 62, …, 962 over both lives — none
        // lost, none doubled — and one block per seal.
        let second_life = shim.seal_stats();
        assert_eq!((first_life.slots(), second_life.slots()), (3, 17));
        assert_eq!(
            shim.gossip().next_seq().value(),
            first_life.seals() + second_life.seals()
        );
        assert_eq!(shim.next_wake(), 1_012);
        let pending = std::iter::from_fn(|| sim.queue.pop());
        let mut chains = vec![0; 4];
        for (_, event) in pending {
            if let Event::Wake { server } = event {
                chains[server] += 1;
            }
        }
        assert_eq!(chains, vec![1; 4]);
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
    fn honest_servers_interpret_every_shared_block_alike() {
        // Server 3 equivocates at its third block, so honest chains fork
        // in their views of it. Every block two honest servers hold must
        // read the same on both.
        let config = SimConfig::new(4)
            .with_max_time(3_000)
            .with_role(3, Role::Equivocate { at_seq: 2 });
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        // Broadcasts all through the run, not only in its first quarter
        // second: an idle slot seals no block to compare.
        for label in 0..20 {
            sim.inject(broadcast_injection(
                label * 140,
                label as usize % 3,
                label,
                label,
            ));
        }
        let outcome = sim.run();
        let compared = outcome.check_interpretation_agrees().unwrap();
        // Three honest pairs, each over (almost) every block of the run.
        assert!(compared > 3 * 100, "{compared} comparisons");
    }

    #[test]
    fn a_recorded_indication_that_differs_is_reported() {
        let mut sim: Simulation<Brb<u64>> = Simulation::new(SimConfig::new(4).with_max_time(2_000));
        sim.inject(broadcast_injection(0, 0, 7, 7));
        let mut outcome = sim.run();
        if !cfg!(debug_assertions) {
            // Release builds record no indications to compare.
            assert!(outcome.raised.iter().all(HashMap::is_empty));
            return;
        }
        assert!(outcome.raised.iter().all(|record| record.len() > 10));
        // A block both server 0 and server 1 recorded indications for.
        let (block, raised) = outcome.raised[0]
            .iter()
            .filter(|(block, raised)| !raised.is_empty() && outcome.raised[1].contains_key(block))
            .map(|(block, raised)| (*block, raised.clone()))
            .min_by_key(|(block, _)| *block)
            .expect("a shared block raised indications");
        assert_eq!(outcome.raised[1][&block], raised);
        outcome.raised[1].get_mut(&block).unwrap().pop();
        let disagreement = outcome.check_interpretation_agrees().unwrap_err();
        assert_eq!(disagreement.block, block);
        assert_eq!(disagreement.label, raised.last().unwrap().label);
        assert_eq!(disagreement.servers, (ServerId::new(0), ServerId::new(1)));
        assert_eq!(disagreement.what, "indications");
    }

    #[test]
    fn a_zero_seal_period_runs_to_completion() {
        // A zero period wakes every millisecond instead of rescheduling
        // one instant forever.
        let config = SimConfig::new(4)
            .with_disseminate_every(0)
            .with_max_time(300);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 1, 1, 5));
        let outcome = sim.run();
        assert!(outcome.finished_at > 300, "the clock ran past max_time");
        let servers: std::collections::BTreeSet<_> =
            outcome.deliveries.iter().map(|d| d.server).collect();
        assert_eq!(servers.len(), 4);
        for delivery in &outcome.deliveries {
            assert_eq!(delivery.indication, BrbIndication::Deliver(5));
        }
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
    #[should_panic(expected = "a role for server 7, out of range for n = 4")]
    fn a_role_out_of_range_is_refused() {
        let _: Simulation<Brb<u64>> = Simulation::new(SimConfig::new(4).with_role(7, Role::Silent));
    }

    #[test]
    fn a_silent_server_builds_no_block() {
        let config = SimConfig::new(4)
            .with_max_time(2_000)
            .with_role(3, Role::Silent);
        let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
        sim.inject(broadcast_injection(0, 0, 1, 5));
        // Reaches the silent server's shim, which never seals it.
        sim.inject(broadcast_injection(0, 3, 2, 6));
        let outcome = sim.run();
        let silent = ServerId::new(3);
        let dag = outcome.dag(3).expect("a silent server keeps its view");
        assert!(dag.iter().count() > 0, "it stored the others' blocks");
        assert!(dag.iter().all(|block| block.builder() != silent));
        assert!(outcome.deliveries_for(Label::new(2)).is_empty());
        assert_eq!(outcome.deliveries_for(Label::new(1)).len(), 3);
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

    /// Admission checks each signature exactly once: one verification
    /// per block a correct server's cascade settled — admitted, or
    /// rejected once it was ready — on clean and lossy networks alike.
    #[test]
    fn each_settled_block_is_verified_exactly_once() {
        // 34 and 40 are also what wave-batched admission verified on
        // these runs.
        for (drop_rate, verified) in [(0.0, 34), (0.3, 40)] {
            let config = SimConfig::new(4)
                .with_seed(11)
                .with_max_time(30_000)
                .with_network(NetworkModel::default().with_drop_rate(drop_rate))
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 6));
            let outcome = sim.run();
            let settled: u64 = outcome
                .correct_servers()
                .into_iter()
                .map(|index| {
                    let gossip = outcome.shim(index).gossip();
                    let rejected = gossip
                        .rejected()
                        .iter()
                        .filter(|(_, reason)| {
                            !matches!(reason, InvalidBlockError::UnknownBuilder { .. })
                        })
                        .count() as u64;
                    gossip.stats().blocks_validated + rejected
                })
                .sum();
            assert_eq!(outcome.verifications, settled, "drop {drop_rate}");
            assert_eq!(outcome.verifications, verified, "drop {drop_rate}");
        }
    }

    #[test]
    fn deliveries_are_ingested_in_runs_on_clean_and_lossy_networks() {
        // The simulator ingests the way the node does, with no setting:
        // every delivery goes to the shim as a run, and runs verify the
        // signatures — on clean and lossy networks alike.
        for drop_rate in [0.0, 0.3] {
            let config = SimConfig::new(4)
                .with_max_time(30_000)
                .with_network(NetworkModel::default().with_drop_rate(drop_rate))
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 77));
            let outcome = sim.run();
            let servers: BTreeSet<_> = outcome.deliveries.iter().map(|d| d.server).collect();
            assert_eq!(servers.len(), 4, "drop {drop_rate}: every server delivers");
            assert!(outcome
                .deliveries
                .iter()
                .all(|d| d.indication == BrbIndication::Deliver(77)));
            for index in outcome.correct_servers() {
                assert!(outcome.shim(index).dag().check_invariants());
            }
        }
    }

    #[test]
    fn burst_ingest_is_engine_equivalent_and_reproducible() {
        let run = || {
            let config = SimConfig::new(4)
                .with_max_time(10_000)
                .with_stop_after_deliveries(4);
            let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
            sim.inject(broadcast_injection(0, 0, 1, 6));
            sim.run()
        };
        let outcome = run();
        // Reproducibility: same seed, same burst trace.
        let again = run();
        assert_eq!(outcome.net.bytes_sent, again.net.bytes_sent);
        assert_eq!(outcome.verifications, again.verifications);
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
