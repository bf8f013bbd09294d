//! Lemma 4.3: interpreting the block DAG implements an *authenticated
//! perfect point-to-point link* — reliable delivery, no duplication,
//! authenticity.
//!
//! These tests drive real `Gossip` instances (so DAGs are built exactly as
//! Algorithm 1 prescribes), then check the link properties on independent
//! interpretations, including across *different* servers' DAGs at
//! different stages of convergence (`G ≤ G'`).

use std::collections::BTreeMap;

use dagbft::prelude::*;

/// The probe protocol: every request broadcasts a tagged value; deliveries
/// record (sender, value) pairs exactly as received.
#[derive(Debug, Clone)]
struct Probe {
    config: ProtocolConfig,
    received: Vec<(ServerId, u64)>,
    pending: Vec<(ServerId, u64)>,
}

impl DeterministicProtocol for Probe {
    type Request = u64;
    type Message = u64;
    type Indication = (ServerId, u64);

    fn new(config: &ProtocolConfig, _label: Label, _me: ServerId) -> Self {
        Probe {
            config: *config,
            received: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn on_request(&mut self, request: u64, outbox: &mut Outbox<u64>) {
        outbox.broadcast(&self.config, request);
    }

    fn on_message(&mut self, sender: ServerId, message: u64, _outbox: &mut Outbox<u64>) {
        self.received.push((sender, message));
        self.pending.push((sender, message));
    }

    fn drain_indications(&mut self) -> Vec<(ServerId, u64)> {
        std::mem::take(&mut self.pending)
    }
}

/// A tiny synchronous network of gossip instances: delivers every command
/// immediately, in order.
struct GossipNet {
    gossips: Vec<Gossip>,
}

impl GossipNet {
    fn new(n: usize, seed: u64) -> Self {
        let registry = KeyRegistry::generate(n, seed);
        GossipNet {
            gossips: (0..n)
                .map(|i| {
                    Gossip::new(
                        ServerId::new(i as u32),
                        GossipConfig::for_n(n),
                        registry.signer(ServerId::new(i as u32)).unwrap(),
                        registry.verifier(),
                    )
                })
                .collect(),
        }
    }

    /// Server `origin` disseminates with `requests`; all resulting traffic
    /// is fully delivered before returning.
    fn disseminate(&mut self, origin: usize, requests: Vec<LabeledRequest>) {
        let (_, commands) = self.gossips[origin].disseminate(requests, 0);
        let mut queue: Vec<(usize, NetCommand)> =
            commands.into_iter().map(|c| (origin, c)).collect();
        while let Some((from, command)) = queue.pop() {
            match command {
                NetCommand::Broadcast { message } => {
                    for target in 0..self.gossips.len() {
                        if target != from {
                            let more = self.gossips[target].on_message(
                                ServerId::new(from as u32),
                                message.clone(),
                                0,
                            );
                            queue.extend(more.into_iter().map(|c| (target, c)));
                        }
                    }
                }
                NetCommand::SendTo { to, message } => {
                    let more =
                        self.gossips[to.index()].on_message(ServerId::new(from as u32), message, 0);
                    queue.extend(more.into_iter().map(|c| (to.index(), c)));
                }
            }
        }
    }

    fn dag(&self, index: usize) -> &BlockDag {
        self.gossips[index].dag()
    }
}

/// Runs `rounds` of all-servers-disseminate with a request injected at
/// round 0 by server 0.
fn build_network(n: usize, rounds: usize, value: u64) -> GossipNet {
    let mut net = GossipNet::new(n, 11);
    for round in 0..rounds {
        for server in 0..n {
            let requests = if round == 0 && server == 0 {
                vec![LabeledRequest::encode(Label::new(1), &value)]
            } else {
                vec![]
            };
            net.disseminate(server, requests);
        }
    }
    net
}

#[test]
fn reliable_delivery_lemma_4_3_1() {
    // s0 broadcasts 7 on ℓ1. In the interpretation, every message m sent
    // by instance s_i to s_j is eventually received: with enough rounds,
    // each simulated server receives n copies (one per broadcaster after
    // echo amplification in Probe there is none — Probe only sends on
    // request, so exactly the n deliveries of s0's broadcast).
    let n = 4;
    let net = build_network(n, 3, 7);
    for observer in 0..n {
        let mut interpreter: Interpreter<Probe> = Interpreter::new(ProtocolConfig::for_n(n));
        interpreter.step(net.dag(observer));
        let mut received: BTreeMap<usize, Vec<(ServerId, u64)>> = BTreeMap::new();
        for indication in interpreter.drain_indications() {
            received
                .entry(indication.server.index())
                .or_default()
                .push(indication.indication);
        }
        // Every simulated server received s0's message exactly once.
        for server in 0..n {
            assert_eq!(
                received.get(&server).map(Vec::as_slice),
                Some(&[(ServerId::new(0), 7)][..]),
                "observer {observer}, simulated server {server}"
            );
        }
    }
}

#[test]
fn no_duplication_lemma_4_3_2() {
    // Even after many more rounds (many more blocks referencing the same
    // history), no message is received twice by any correct simulated
    // server.
    let n = 4;
    let net = build_network(n, 6, 9);
    let mut interpreter: Interpreter<Probe> = Interpreter::new(ProtocolConfig::for_n(n));
    interpreter.step(net.dag(0));
    let mut counts: BTreeMap<(usize, ServerId, u64), usize> = BTreeMap::new();
    for indication in interpreter.drain_indications() {
        *counts
            .entry((
                indication.server.index(),
                indication.indication.0,
                indication.indication.1,
            ))
            .or_default() += 1;
    }
    for ((receiver, sender, value), count) in counts {
        assert_eq!(
            count, 1,
            "server {receiver} received {value} from {sender} {count} times"
        );
    }
}

#[test]
fn authenticity_lemma_4_3_3() {
    // Every received message's claimed sender actually sent it: with the
    // Probe protocol, only s0 issued a request, so every received message
    // must claim sender s0 — and the chain of custody is the signature on
    // s0's block.
    let n = 4;
    let net = build_network(n, 3, 5);
    let mut interpreter: Interpreter<Probe> = Interpreter::new(ProtocolConfig::for_n(n));
    interpreter.step(net.dag(1));
    let indications = interpreter.drain_indications();
    assert!(!indications.is_empty());
    for indication in indications {
        assert_eq!(
            indication.indication.0,
            ServerId::new(0),
            "message claims a sender that never sent"
        );
    }
}

#[test]
fn agreement_across_observers_lemma_4_2() {
    // Lemma 4.2: interpretation state is a function of the DAG alone. Two
    // observers with converged DAGs agree on every block's buffers.
    let n = 4;
    let net = build_network(n, 4, 3);
    let mut interpreters: Vec<Interpreter<Probe>> = (0..2)
        .map(|_| Interpreter::new(ProtocolConfig::for_n(n)))
        .collect();
    interpreters[0].step(net.dag(0));
    interpreters[1].step(net.dag(2));

    // Both DAGs contain the same blocks after full synchronous exchange.
    let refs0: Vec<BlockRef> = net.dag(0).refs().copied().collect();
    for r in &refs0 {
        assert!(net.dag(2).contains(r));
        let state0 = interpreters[0].state(r).unwrap();
        let state1 = interpreters[1].state(r).unwrap();
        let outs0: Vec<_> = state0.out_messages(Label::new(1)).collect();
        let outs1: Vec<_> = state1.out_messages(Label::new(1)).collect();
        assert_eq!(outs0, outs1, "out buffers diverged at {r}");
        let ins0: Vec<_> = interpreters[0]
            .in_messages(net.dag(0), r, Label::new(1))
            .collect();
        let ins1: Vec<_> = interpreters[1]
            .in_messages(net.dag(2), r, Label::new(1))
            .collect();
        assert_eq!(ins0, ins1, "in buffers diverged at {r}");
    }
}

#[test]
fn extension_monotonicity_g_le_g_prime() {
    // Lemma A.16 flavour: everything sent in the interpretation of G is
    // sent in the interpretation of any G' ≥ G.
    let n = 4;
    // Stage 1: two rounds only.
    let short = build_network(n, 2, 8);
    // Stage 2: same seed/workload, more rounds — a strict extension.
    let long = build_network(n, 5, 8);
    assert!(short.dag(0).le(long.dag(0)), "G ≤ G'");

    let mut interpreter_short: Interpreter<Probe> = Interpreter::new(ProtocolConfig::for_n(n));
    interpreter_short.step(short.dag(0));
    let mut interpreter_long: Interpreter<Probe> = Interpreter::new(ProtocolConfig::for_n(n));
    interpreter_long.step(long.dag(0));

    for r in short.dag(0).refs() {
        let state_short = interpreter_short.state(r).unwrap();
        let state_long = interpreter_long.state(r).unwrap();
        let outs_short: Vec<_> = state_short.out_messages(Label::new(1)).collect();
        let outs_long: Vec<_> = state_long.out_messages(Label::new(1)).collect();
        assert_eq!(outs_short, outs_long);
    }
}

#[test]
fn joint_dag_lemma_3_7() {
    // Two servers gossip, each also holding private blocks the other has
    // not seen (we cut the network between them by only disseminating to
    // subsets). After exchanging everything, each holds a DAG ≥ the union.
    let n = 2;
    let mut net = GossipNet::new(n, 13);
    // Both disseminate twice in full view.
    for _ in 0..2 {
        net.disseminate(0, vec![]);
        net.disseminate(1, vec![]);
    }
    let dag0 = net.dag(0).clone();
    let dag1 = net.dag(1).clone();
    let union = dag0.union(&dag1);
    // Continued gossip only grows the DAGs above the union.
    net.disseminate(0, vec![]);
    net.disseminate(1, vec![]);
    assert!(union.le(net.dag(0)), "G'_0 ≥ G_0 ∪ G_1");
    assert!(union.le(net.dag(1)), "G'_1 ≥ G_0 ∪ G_1");
    assert!(net.dag(0).check_invariants());
}
