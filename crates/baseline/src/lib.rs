//! Direct point-to-point baseline.
//!
//! The paper (§1) contrasts block DAG systems with "traditional protocols
//! that materialize point-to-point messages as direct network messages".
//! This crate implements that traditional deployment for the *same*
//! protocols `P`, so the experiments can compare like with like:
//!
//! * every server runs one local instance of `P` per label — no
//!   simulation of other servers;
//! * every protocol message crosses the network as an individual,
//!   **individually signed and verified** message (the cost the paper's
//!   batch-signature claim, §4, eliminates);
//! * no blocks, no DAG, no interpretation — and also no batching: requests
//!   go out immediately, which is why the baseline *wins on latency* while
//!   losing on message and signature counts (experiments E5–E7, E9).
//!
//! The runner mirrors [`dagbft_sim`]'s event loop and reuses its scheduler,
//! network models, and metrics so numbers are directly comparable.
//!
//! # Examples
//!
//! ```
//! use dagbft_core::Label;
//! use dagbft_protocols::{Brb, BrbRequest};
//! use dagbft_baseline::{BaselineConfig, BaselineSimulation, DirectInjection};
//!
//! let config = BaselineConfig::new(4).with_max_time(5_000);
//! let mut sim: BaselineSimulation<Brb<u64>> = BaselineSimulation::new(config);
//! sim.inject(DirectInjection {
//!     at: 0,
//!     server: 0,
//!     label: Label::new(1),
//!     request: BrbRequest::Broadcast(42),
//! });
//! let outcome = sim.run();
//! assert_eq!(outcome.deliveries.len(), 4); // all four deliver
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;

pub use server::DirectServer;

use std::collections::{BTreeSet, HashMap};

use dagbft_codec::encode_to_vec;
use dagbft_core::{DeterministicProtocol, Label, ProtocolConfig, TimeMs};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_sim::metrics::{Delivery, NetMetrics};
use dagbft_sim::net::NetworkModel;
use dagbft_sim::sched::EventQueue;
use rand::rngs::StdRng;
use rand::SeedableRng;

use server::OutMessage;

/// One request injection for the baseline.
#[derive(Debug, Clone)]
pub struct DirectInjection<P: DeterministicProtocol> {
    /// Injection time.
    pub at: TimeMs,
    /// Index of the receiving server.
    pub server: usize,
    /// The protocol instance label.
    pub label: Label,
    /// The request.
    pub request: P::Request,
}

/// Baseline simulation parameters.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Number of servers.
    pub n: usize,
    /// Randomness seed.
    pub seed: u64,
    /// Fault configuration for `P`.
    pub protocol: ProtocolConfig,
    /// Hard stop time.
    pub max_time: TimeMs,
    /// Early stop after this many deliveries.
    pub stop_after_deliveries: Option<usize>,
    /// The network model (shared with the DAG simulator for comparability).
    pub network: NetworkModel,
    /// Servers that never send (crash/byzantine-silent comparators).
    pub silent: BTreeSet<usize>,
}

impl BaselineConfig {
    /// Defaults mirroring [`dagbft_sim::SimConfig::new`].
    pub fn new(n: usize) -> Self {
        BaselineConfig {
            n,
            seed: 42,
            protocol: ProtocolConfig::for_n(n),
            max_time: 60_000,
            stop_after_deliveries: None,
            network: NetworkModel::default(),
            silent: BTreeSet::new(),
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

    /// Marks a server as silent (receives, never sends).
    pub fn with_silent(mut self, server: usize) -> Self {
        self.silent.insert(server);
        self
    }
}

/// Outcome of a baseline run; field meanings match
/// [`dagbft_sim::SimOutcome`].
#[derive(Debug)]
pub struct BaselineOutcome<P: DeterministicProtocol> {
    /// All deliveries in time order.
    pub deliveries: Vec<Delivery<P::Indication>>,
    /// Wire traffic.
    pub net: NetMetrics,
    /// Signing operations.
    pub signatures: u64,
    /// Verification operations.
    pub verifications: u64,
    /// Stop time.
    pub finished_at: TimeMs,
    /// First injection time per label.
    pub injected_at: HashMap<Label, TimeMs>,
}

impl<P: DeterministicProtocol> BaselineOutcome<P> {
    /// Delivery latencies for one label.
    pub fn latencies_for(&self, label: Label) -> Vec<TimeMs> {
        let Some(injected) = self.injected_at.get(&label) else {
            return Vec::new();
        };
        self.deliveries
            .iter()
            .filter(|d| d.label == label)
            .map(|d| d.latency_from(*injected))
            .collect()
    }
}

enum Event<P: DeterministicProtocol> {
    Inject(DirectInjection<P>),
    Deliver {
        to: usize,
        from: ServerId,
        /// Wire bytes of a signed protocol message.
        bytes: Vec<u8>,
    },
}

/// The baseline event loop: direct sends, no blocks.
pub struct BaselineSimulation<P: DeterministicProtocol> {
    config: BaselineConfig,
    registry: KeyRegistry,
    servers: Vec<DirectServer<P>>,
    queue: EventQueue<Event<P>>,
    rng: StdRng,
    net: NetMetrics,
    deliveries: Vec<Delivery<P::Indication>>,
    injected_at: HashMap<Label, TimeMs>,
}

impl<P: DeterministicProtocol> BaselineSimulation<P> {
    /// Builds the baseline: keys and one [`DirectServer`] per index.
    pub fn new(config: BaselineConfig) -> Self {
        let registry = KeyRegistry::generate(config.n, config.seed);
        let servers = (0..config.n)
            .map(|i| DirectServer::new(ServerId::new(i as u32), config.protocol, &registry))
            .collect();
        BaselineSimulation {
            rng: StdRng::seed_from_u64(config.seed.wrapping_add(1)),
            registry,
            servers,
            queue: EventQueue::new(),
            net: NetMetrics::default(),
            deliveries: Vec::new(),
            injected_at: HashMap::new(),
            config,
        }
    }

    /// Schedules a request injection.
    pub fn inject(&mut self, injection: DirectInjection<P>) {
        assert!(injection.server < self.config.n);
        self.injected_at
            .entry(injection.label)
            .or_insert(injection.at);
        self.queue.schedule(injection.at, Event::Inject(injection));
    }

    /// Schedules many injections.
    pub fn inject_all<I: IntoIterator<Item = DirectInjection<P>>>(&mut self, injections: I) {
        for injection in injections {
            self.inject(injection);
        }
    }

    /// Runs to completion and returns the outcome.
    pub fn run(mut self) -> BaselineOutcome<P> {
        self.registry.metrics().reset();
        while let Some((now, event)) = self.queue.pop() {
            if now > self.config.max_time {
                break;
            }
            match event {
                Event::Inject(injection) => {
                    let outgoing = self.servers[injection.server]
                        .on_request(injection.label, injection.request);
                    self.route(injection.server, outgoing, now);
                    self.collect(injection.server, now);
                }
                Event::Deliver { to, from, bytes } => {
                    let outgoing = self.servers[to].on_wire_message(from, &bytes);
                    self.route(to, outgoing, now);
                    self.collect(to, now);
                }
            }
            if let Some(stop) = self.config.stop_after_deliveries {
                if self.deliveries.len() >= stop {
                    break;
                }
            }
        }
        BaselineOutcome {
            deliveries: self.deliveries,
            net: self.net,
            signatures: self.registry.metrics().signs(),
            verifications: self.registry.metrics().verifies(),
            finished_at: self.queue.now(),
            injected_at: self.injected_at,
        }
    }

    fn route(&mut self, origin: usize, outgoing: Vec<OutMessage>, now: TimeMs) {
        if self.config.silent.contains(&origin) {
            return;
        }
        for message in outgoing {
            let to = message.to.index();
            let bytes = encode_to_vec(&message.signed);
            self.net.record_send(bytes.len(), false, false);
            if to == origin {
                // Self-delivery: loopback without the network.
                self.net.record_outcome(false);
                self.queue.schedule(
                    now,
                    Event::Deliver {
                        to,
                        from: ServerId::new(origin as u32),
                        bytes,
                    },
                );
                continue;
            }
            let dropped = self.config.network.drops(&mut self.rng, origin, to, now);
            self.net.record_outcome(dropped);
            if dropped {
                continue;
            }
            let delay = self.config.network.delay(&mut self.rng);
            self.queue.schedule(
                now + delay,
                Event::Deliver {
                    to,
                    from: ServerId::new(origin as u32),
                    bytes,
                },
            );
        }
    }

    fn collect(&mut self, server: usize, now: TimeMs) {
        for (label, indication) in self.servers[server].poll_indications() {
            self.deliveries.push(Delivery {
                at: now,
                server: ServerId::new(server as u32),
                label,
                indication,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_protocols::{Brb, BrbIndication, BrbRequest, Smr, SmrIndication, SmrRequest};

    #[test]
    fn brb_all_deliver_directly() {
        let config = BaselineConfig::new(4)
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: BaselineSimulation<Brb<u64>> = BaselineSimulation::new(config);
        sim.inject(DirectInjection {
            at: 0,
            server: 0,
            label: Label::new(1),
            request: BrbRequest::Broadcast(42),
        });
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4);
        assert!(outcome
            .deliveries
            .iter()
            .all(|d| d.indication == BrbIndication::Deliver(42)));
    }

    #[test]
    fn every_message_is_signed_and_verified() {
        let config = BaselineConfig::new(4)
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: BaselineSimulation<Brb<u64>> = BaselineSimulation::new(config);
        sim.inject(DirectInjection {
            at: 0,
            server: 0,
            label: Label::new(1),
            request: BrbRequest::Broadcast(7),
        });
        let outcome = sim.run();
        // One signature per sent message: the cost batching removes.
        assert_eq!(outcome.signatures, outcome.net.messages_sent);
        assert!(outcome.verifications > 0);
    }

    #[test]
    fn brb_tolerates_f_silent() {
        let config = BaselineConfig::new(4)
            .with_max_time(10_000)
            .with_silent(3)
            .with_stop_after_deliveries(3);
        let mut sim: BaselineSimulation<Brb<u64>> = BaselineSimulation::new(config);
        sim.inject(DirectInjection {
            at: 0,
            server: 0,
            label: Label::new(1),
            request: BrbRequest::Broadcast(5),
        });
        let outcome = sim.run();
        let correct: Vec<_> = outcome
            .deliveries
            .iter()
            .filter(|d| d.server.index() != 3)
            .collect();
        assert_eq!(correct.len(), 3);
    }

    #[test]
    fn smr_commits_directly() {
        let config = BaselineConfig::new(4)
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: BaselineSimulation<Smr<u64>> = BaselineSimulation::new(config);
        sim.inject(DirectInjection {
            at: 0,
            server: 1, // forwards to leader 0 (label 0)
            label: Label::new(0),
            request: SmrRequest::Propose(33),
        });
        let outcome = sim.run();
        assert_eq!(outcome.deliveries.len(), 4);
        assert!(outcome
            .deliveries
            .iter()
            .all(|d| d.indication == SmrIndication::Committed(0, 33)));
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let config = BaselineConfig::new(4)
                .with_max_time(5_000)
                .with_stop_after_deliveries(4);
            let mut sim: BaselineSimulation<Brb<u64>> = BaselineSimulation::new(config);
            sim.inject(DirectInjection {
                at: 0,
                server: 0,
                label: Label::new(1),
                request: BrbRequest::Broadcast(1),
            });
            let outcome = sim.run();
            (
                outcome.net.messages_sent,
                outcome.net.bytes_sent,
                outcome.finished_at,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn latency_is_constant_network_bound() {
        // With constant latency L and immediate processing, BRB needs two
        // network hops after the initial echo: deliveries land well under
        // 4 * L.
        let config = BaselineConfig::new(4)
            .with_network(NetworkModel::reliable_constant(10))
            .with_max_time(5_000)
            .with_stop_after_deliveries(4);
        let mut sim: BaselineSimulation<Brb<u64>> = BaselineSimulation::new(config);
        sim.inject(DirectInjection {
            at: 0,
            server: 0,
            label: Label::new(1),
            request: BrbRequest::Broadcast(9),
        });
        let outcome = sim.run();
        for latency in outcome.latencies_for(Label::new(1)) {
            assert!(latency <= 40, "latency {latency}");
        }
    }
}
