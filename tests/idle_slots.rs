//! A slot with nothing to say seals no block (`Shim::wake`): a server
//! seals for a buffered request, for a message addressed to it in a block
//! it has not cited yet, or on a heartbeat slot, every
//! `HEARTBEAT_MS / PERIOD`th slot of its grid.
//!
//! Two properties, on four shims over constant-latency links driven by
//! the small event loop below:
//!
//! * on lossless links the rule changes no indication — not its label,
//!   its server or its instant — against an oracle cluster that seals at
//!   every slot (the rule before it), and the blocks it leaves out are
//!   exactly the oracle's blocks that touched no instance, heartbeat
//!   slots apart;
//! * a point-to-point message whose block is lost on the way to its only
//!   receiver, after which the cluster goes idle, is still delivered: a
//!   heartbeat block cites the lost one, the receiver asks for it with
//!   `FWD`, and delivers within 8 slots and one `FWD` round trip.

use std::collections::{BTreeMap, BTreeSet};

use dagbft::dag::{Schedule, HEARTBEAT_MS};
use dagbft::prelude::*;

const N: usize = 4;
/// The seal period (the default).
const PERIOD: TimeMs = 50;
/// One-way link latency, the same for every message.
const LATENCY: TimeMs = 10;

/// A request of [`Relay`]: `to` (`BROADCAST` for everyone) in bits
/// 56–63, the hops left in bits 48–55, the value below.
fn relay(to: u64, hops: u64, value: u64) -> u64 {
    (to << 56) | (hops << 48) | value
}

const BROADCAST: u64 = 0xff;

/// A test protocol with point-to-point messages: a request sends its
/// value to one server, or to all, and a server that receives a value
/// with hops left passes it on to the next server. Every receipt is an
/// indication `(sender, value)`.
#[derive(Debug, Clone)]
struct Relay {
    me: ServerId,
}

impl DeterministicProtocol for Relay {
    type Request = u64;
    type Message = (u64, u64);
    type Indication = (u32, u64);

    fn new(_config: &ProtocolConfig, _label: Label, me: ServerId) -> Self {
        Relay { me }
    }

    fn on_request(&mut self, request: u64, outbox: &mut Outbox<(u64, u64), (u32, u64)>) {
        let (to, hops, value) = (
            request >> 56,
            (request >> 48) & 0xff,
            request & ((1 << 48) - 1),
        );
        if to == BROADCAST {
            outbox.broadcast((0, value));
        } else {
            outbox.send(ServerId::new(to as u32), (hops, value));
        }
    }

    fn on_message(
        &mut self,
        sender: ServerId,
        (hops, value): (u64, u64),
        outbox: &mut Outbox<(u64, u64), (u32, u64)>,
    ) {
        outbox.indicate((sender.index() as u32, value));
        if hops > 0 {
            let next = (self.me.index() + 1) % outbox.config().n;
            outbox.send(ServerId::new(next as u32), (hops - 1, value));
        }
    }
}

/// How a cluster's servers are paced.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Drive {
    /// `Shim::wake` at `Shim::next_wake`: the rule under test.
    Wake,
    /// The `FWD` sweep and `Shim::disseminate` at every slot of each
    /// server's grid: a block per slot, whatever it carries.
    EverySlot,
}

#[derive(Debug)]
enum Event {
    Request {
        server: usize,
        label: Label,
        request: u64,
    },
    Slot {
        server: usize,
    },
    Deliver {
        to: usize,
        from: usize,
        message: NetMessage,
    },
}

/// Whether to lose a message from `from` to `to`, sent as part of a
/// broadcast or not.
type Loss = fn(usize, usize, &NetMessage, bool) -> bool;

/// Four shims, constant latency, one event queue ordered by time, then
/// requests before slots before deliveries, then insertion.
struct Cluster {
    drive: Drive,
    shims: Vec<Shim<Relay>>,
    grids: Vec<Schedule>,
    queue: BTreeMap<(TimeMs, u8, u64), Event>,
    inserted: u64,
    loss: Loss,
    /// Every indication, as `(at, server, label, indication)`.
    indications: Vec<(TimeMs, usize, Label, (u32, u64))>,
    /// Every sealed block by `(server, slot index)`.
    sealed: BTreeMap<(usize, u64), BlockRef>,
}

impl Cluster {
    fn new(drive: Drive, loss: Loss) -> Self {
        let registry = KeyRegistry::generate(N, 7);
        let config = ShimConfig::new(ProtocolConfig::for_n(N)).with_disseminate_every_ms(PERIOD);
        let servers = ServerId::all(N);
        let mut cluster = Cluster {
            drive,
            shims: servers
                .clone()
                .map(|me| Shim::new(me, config, &registry).unwrap())
                .collect(),
            grids: servers
                .map(|me| Schedule::for_server(me, N, PERIOD))
                .collect(),
            queue: BTreeMap::new(),
            inserted: 0,
            loss,
            indications: Vec::new(),
            sealed: BTreeMap::new(),
        };
        for server in 0..N {
            cluster.push(0, Event::Slot { server });
        }
        cluster
    }

    fn push(&mut self, at: TimeMs, event: Event) {
        let class = match event {
            Event::Request { .. } => 0,
            Event::Slot { .. } => 1,
            Event::Deliver { .. } => 2,
        };
        self.inserted += 1;
        self.queue.insert((at, class, self.inserted), event);
    }

    fn request(&mut self, at: TimeMs, server: usize, label: u64, request: u64) {
        let label = Label::new(label);
        self.push(
            at,
            Event::Request {
                server,
                label,
                request,
            },
        );
    }

    fn run_until(&mut self, until: TimeMs) {
        while let Some(entry) = self.queue.first_entry() {
            let (now, _, _) = *entry.key();
            if now > until {
                return;
            }
            let event = entry.remove();
            let (server, commands) = match event {
                Event::Request {
                    server,
                    label,
                    request,
                } => {
                    self.shims[server].request(label, request);
                    (server, Vec::new())
                }
                Event::Slot { server } => (server, self.slot(server, now)),
                Event::Deliver { to, from, message } => {
                    let run = [(ServerId::new(from as u32), message)];
                    (to, self.shims[to].on_message_burst(run, now))
                }
            };
            self.route(server, commands, now);
            for (label, indication) in self.shims[server].poll_indications() {
                self.indications.push((now, server, label, indication));
            }
        }
    }

    /// Runs one slot of `server`'s grid and schedules its next one.
    fn slot(&mut self, server: usize, now: TimeMs) -> Vec<NetCommand> {
        let shim = &mut self.shims[server];
        let before = shim.gossip().next_seq();
        let (commands, next) = match self.drive {
            Drive::Wake => {
                let commands = shim.wake(now);
                (commands, shim.next_wake())
            }
            Drive::EverySlot => {
                let grid = &mut self.grids[server];
                let mut commands = Vec::new();
                if grid.fire(now) {
                    commands = shim.on_tick(now);
                    commands.extend(shim.disseminate(now));
                }
                (commands, grid.deadline().expect("armed"))
            }
        };
        if shim.gossip().next_seq() != before {
            let own = shim.dag().blocks_at(ServerId::new(server as u32), before)[0];
            let slot = self.grids[server].slot(now);
            assert!(self.sealed.insert((server, slot), own).is_none());
        }
        self.push(next, Event::Slot { server });
        commands
    }

    fn route(&mut self, from: usize, commands: Vec<NetCommand>, now: TimeMs) {
        for command in commands {
            let (broadcast, sends): (bool, Vec<(usize, NetMessage)>) = match command {
                NetCommand::Broadcast { message } => (
                    true,
                    (0..N)
                        .filter(|to| *to != from)
                        .map(|to| (to, message.clone()))
                        .collect(),
                ),
                NetCommand::SendTo { to, message } => (false, vec![(to.index(), message)]),
            };
            for (to, message) in sends {
                if !(self.loss)(from, to, &message, broadcast) {
                    self.push(now + LATENCY, Event::Deliver { to, from, message });
                }
            }
        }
    }
}

fn lossless(_: usize, _: usize, _: &NetMessage, _: bool) -> bool {
    false
}

/// Broadcasts and relay chains in bursts with idle gaps longer than the
/// heartbeat between them, two requests in one slot among them.
fn workload(cluster: &mut Cluster) {
    cluster.request(0, 0, 1, relay(BROADCAST, 0, 11));
    cluster.request(130, 2, 2, relay(1, 3, 22));
    cluster.request(140, 3, 3, relay(0, 0, 33));
    cluster.request(700, 1, 4, relay(BROADCAST, 0, 44));
    cluster.request(1_500, 0, 5, relay(3, 5, 55));
    cluster.request(1_501, 0, 6, relay(BROADCAST, 0, 66));
    cluster.request(2_300, 3, 7, relay(2, 1, 77));
    cluster.run_until(3_000);
}

#[test]
fn on_lossless_links_skipping_idle_slots_moves_no_indication() {
    let mut sealing = Cluster::new(Drive::Wake, lossless);
    let mut oracle = Cluster::new(Drive::EverySlot, lossless);
    workload(&mut sealing);
    workload(&mut oracle);

    // 3 broadcasts at 4 servers, relays of 4, 1, 6 and 2 receipts.
    assert_eq!(sealing.indications.len(), 3 * 4 + 4 + 1 + 6 + 2);
    assert_eq!(sealing.indications, oracle.indications);

    // The oracle seals at every slot; the rule keeps exactly its blocks
    // that touched an instance, and the heartbeat slots.
    let touched = |server: usize, block: &BlockRef| {
        let state = oracle.shims[server].interpreter().state(block).unwrap();
        state.touched_labels().next().is_some()
    };
    let kept: BTreeSet<(usize, u64)> = oracle
        .sealed
        .iter()
        .filter(|((server, slot), block)| {
            slot.is_multiple_of(HEARTBEAT_MS / PERIOD) || touched(*server, block)
        })
        .map(|(key, _)| *key)
        .collect();
    let sealed: BTreeSet<(usize, u64)> = sealing.sealed.keys().copied().collect();
    assert_eq!(sealed, kept);
    let skipped = oracle.sealed.len() - sealed.len();
    assert!(
        skipped > oracle.sealed.len() / 2,
        "{skipped} of {} skipped",
        oracle.sealed.len()
    );

    // The counts: one per slot woken, seals as sealed.
    for (server, shim) in sealing.shims.iter().enumerate() {
        let stats = shim.seal_stats();
        let oracle_blocks = oracle.sealed.keys().filter(|(at, _)| *at == server).count();
        let blocks = sealing
            .sealed
            .keys()
            .filter(|(at, _)| *at == server)
            .count();
        assert_eq!(stats.slots(), oracle_blocks as u64, "server {server}");
        assert_eq!(stats.seals(), blocks as u64, "server {server}");
        assert!(stats.for_requests > 0 && stats.for_messages > 0 && stats.heartbeats > 0);
    }
}

/// Loses the broadcast copy of server 0's block with a request on the
/// link to server 2; the `FWD` answer, sent to server 2 alone, arrives.
fn lose_the_request_block_to_server_2(
    from: usize,
    to: usize,
    message: &NetMessage,
    broadcast: bool,
) -> bool {
    let NetMessage::Block(block) = message else {
        return false;
    };
    broadcast && (from, to) == (0, 2) && block.requests().next().is_some()
}

#[test]
fn a_heartbeat_cites_a_lost_block_so_an_idle_cluster_still_delivers() {
    let mut cluster = Cluster::new(Drive::Wake, lose_the_request_block_to_server_2);
    // Server 0's slot 2, at 100: a message for server 2 alone, lost on
    // the way there. Nobody else has anything to say afterwards.
    cluster.request(60, 0, 9, relay(2, 0, 99));
    cluster.run_until(3_000);
    let sealed_at = 100;
    assert!(cluster.sealed.contains_key(&(0, 2)));

    let [(delivered_at, 2, label, (0, 99))] = cluster.indications[..] else {
        panic!("one delivery at server 2: {:?}", cluster.indications);
    };
    assert_eq!(label, Label::new(9));
    // Not before the next heartbeat slot, 8 slots on, cited the block.
    assert!(delivered_at > HEARTBEAT_MS / PERIOD * PERIOD);
    // Within 8 slots and one `FWD` round trip of the seal: the heartbeat
    // blocks of servers 0 and 1 reach server 2 before its own next slot,
    // which it seals for the message once the answer is in.
    assert!(
        delivered_at <= sealed_at + HEARTBEAT_MS / PERIOD * PERIOD + 2 * LATENCY,
        "delivered at {delivered_at}"
    );
    assert!(cluster.shims[2].gossip().stats().fwd_sent >= 1);
    // The cluster was idle in between: slots 3–7 sealed nothing anywhere.
    let idle: Vec<u64> = cluster
        .shims
        .iter()
        .map(|shim| shim.seal_stats().idle_slots)
        .collect();
    assert!(idle.iter().all(|slots| *slots >= 5), "{idle:?}");
}
