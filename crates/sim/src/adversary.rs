//! Byzantine server behaviours.
//!
//! §4 of the paper enumerates how byzantine servers can influence the DAG:
//! equivocating blocks (Figure 3), referencing a block multiple times,
//! never referencing a block, or staying silent — and argues the embedded
//! BFT protocol absorbs all of it. This module implements those behaviours
//! so the integration tests and experiment E12 can exercise them.
//!
//! A byzantine server is a correct [`Shim`](dagbft_core::Shim) whose
//! [`Role`] rewrites what it sends. It validates, stores and interprets
//! like any server, and seals every request injected at it into its own
//! blocks; [`Role::rewrite`] decides where each sealed own block goes (or
//! what goes out instead), and [`Role::answer`] whether it answers
//! deliveries at all. Those are the block-layer moves §4 leaves a
//! byzantine builder: equivocate, choose whom to send to, and choose which
//! requests to inscribe.

use std::collections::BTreeSet;

use dagbft_core::{Block, BlockRef, Label, LabeledRequest, NetCommand, NetMessage, SeqNum, TimeMs};
use dagbft_crypto::{KeyRegistry, ServerId, Signature};

/// The behaviour of one server in a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// A correct server running `shim(P)`.
    Correct,
    /// A volatile server: correct until `at`, then stops for good
    /// (crash-stop; there is no store to come back from).
    Crash {
        /// Crash time.
        at: TimeMs,
    },
    /// A durable server: correct until `crash_at`, when everything except
    /// its store is gone; down until `rejoin_at`, then recovered from its
    /// store (§7 crash–recovery; `Shim::recover_from_store`).
    Restart {
        /// Crash time.
        crash_at: TimeMs,
        /// Recovery time.
        rejoin_at: TimeMs,
    },
    /// Byzantine: receives, validates and interprets, but never sends
    /// anything — it is never woken, so it seals no block, and it answers
    /// no delivery, not even a `FWD`.
    Silent,
    /// Byzantine: at its block with sequence number `at_seq`, builds two
    /// conflicting blocks (same `(n, k)`, different content) and sends one
    /// to the lower half of the servers, the other to the upper half —
    /// the paper's Figure 3.
    Equivocate {
        /// The sequence number at which to fork.
        at_seq: u64,
    },
    /// Byzantine: disseminates its own blocks only to `targets`, starving
    /// the rest (they must recover via `FWD` through third parties).
    SelectiveBroadcast {
        /// Servers that receive this server's blocks directly.
        targets: BTreeSet<usize>,
    },
    /// Byzantine: builds protocol-valid blocks but re-broadcasts each one
    /// `repeat` times per round — a slow-loris-style resource hold that
    /// stays just inside validity, soaking honest dedup and ingest
    /// capacity with traffic that can never advance the DAG.
    SlowLoris {
        /// Copies of each block sent per round (clamped to at least 1).
        repeat: usize,
    },
    /// Byzantine: until `until`, withholds its own block each round and
    /// floods `per_round` forged blocks (null signatures, distinct
    /// contents) instead, then switches to fully correct behaviour — the
    /// probe for score decay: a reformed peer must regain standing once
    /// its offenses age out. Its first block after `until` cites the
    /// withheld chain, which honest servers then pull with `FWD`.
    FloodThenBehave {
        /// First round time at which the server behaves honestly.
        until: TimeMs,
        /// Forged blocks sent per flooding round (clamped to at least 1).
        per_round: usize,
    },
    /// Byzantine: every round withholds its own block and floods
    /// `per_round` blocks that can never be valid instead — each names a
    /// builder outside the server set and cites a predecessor nobody
    /// holds. A receiver that buffered them would address `FWD` requests
    /// to a server that does not exist.
    OutsiderFlood {
        /// Blocks sent per round (clamped to at least 1).
        per_round: usize,
    },
}

impl Role {
    /// Whether this role is byzantine (not merely crashed).
    pub fn is_byzantine(&self) -> bool {
        matches!(
            self,
            Role::Silent
                | Role::Equivocate { .. }
                | Role::SelectiveBroadcast { .. }
                | Role::SlowLoris { .. }
                | Role::FloodThenBehave { .. }
                | Role::OutsiderFlood { .. }
        )
    }

    /// What this role sends of a delivery's outputs: nothing if
    /// [`Role::Silent`], everything otherwise (answering `FWD`s only helps
    /// a byzantine server's own blocks spread).
    pub fn answer(&self, commands: Vec<NetCommand>) -> Vec<NetCommand> {
        match self {
            Role::Silent => Vec::new(),
            _ => commands,
        }
    }

    /// What this role sends of `Shim::wake`'s outputs at `now`, as server
    /// `me` of `n`: the identity for the roles that are not byzantine.
    /// Only the sealed own block's `Broadcast` is rewritten — split into
    /// two forks, sent to targets only, repeated, replaced with junk or
    /// withheld; `FWD` retries pass unchanged. `registry` signs the
    /// equivocation twin.
    pub fn rewrite(
        &self,
        me: ServerId,
        n: usize,
        registry: &KeyRegistry,
        commands: Vec<NetCommand>,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        if !self.is_byzantine() {
            return commands;
        }
        let mut out = Vec::new();
        for command in commands {
            match command {
                NetCommand::Broadcast {
                    message: NetMessage::Block(block),
                } if block.builder() == me => self.send_own(block, n, registry, now, &mut out),
                retry => out.push(retry),
            }
        }
        out
    }

    /// Pushes what a byzantine role sends in place of broadcasting its
    /// freshly sealed `block`.
    fn send_own(
        &self,
        block: Block,
        n: usize,
        registry: &KeyRegistry,
        now: TimeMs,
        out: &mut Vec<NetCommand>,
    ) {
        let me = block.builder();
        match self {
            Role::Equivocate { at_seq } if block.seq().value() == *at_seq => {
                // The conflicting twin: same builder and sequence number,
                // different content (one junk request).
                let signer = registry.signer(me).expect("byzantine server has a key");
                let twin = Block::build(
                    me,
                    block.seq(),
                    block.preds().to_vec(),
                    vec![junk(Label::new(u64::MAX), b"equivocation")],
                    &signer,
                );
                out.extend(
                    (0..n)
                        .filter(|to| *to != me.index())
                        .map(|to| send(to, if to < n / 2 { &block } else { &twin })),
                );
            }
            Role::SelectiveBroadcast { targets } => {
                out.extend(
                    targets
                        .iter()
                        .filter(|to| **to != me.index())
                        .map(|to| send(*to, &block)),
                );
            }
            Role::SlowLoris { repeat } => {
                out.extend(std::iter::repeat_n(broadcast(block), (*repeat).max(1)));
            }
            Role::FloodThenBehave { until, per_round } if now < *until => {
                // Forged genesis blocks: null signatures over distinct
                // contents, so every copy costs the receiver a failed
                // verification before it can be rejected.
                for i in 0..(*per_round).max(1) as u64 {
                    let label = Label::new(now.wrapping_mul(1_000_003).wrapping_add(i));
                    out.push(broadcast(Block::build_with_signature(
                        me,
                        SeqNum::ZERO,
                        vec![],
                        vec![junk(label, b"flood")],
                        Signature::NULL,
                    )));
                }
            }
            Role::OutsiderFlood { per_round } => {
                for i in 0..(*per_round).max(1) as u64 {
                    let nonce = now.wrapping_mul(1_000_003).wrapping_add(i);
                    let nobody_has = dagbft_crypto::sha256(nonce.to_le_bytes());
                    out.push(broadcast(Block::build_with_signature(
                        ServerId::new(n as u32),
                        SeqNum::new(1),
                        vec![BlockRef::from_digest(nobody_has)],
                        vec![],
                        Signature::NULL,
                    )));
                }
            }
            Role::Silent => {}
            Role::Equivocate { .. }
            | Role::FloodThenBehave { .. }
            | Role::Correct
            | Role::Crash { .. }
            | Role::Restart { .. } => out.push(broadcast(block)),
        }
    }
}

fn send(to: usize, block: &Block) -> NetCommand {
    NetCommand::SendTo {
        to: ServerId::new(to as u32),
        message: NetMessage::Block(block.clone()),
    }
}

fn broadcast(block: Block) -> NetCommand {
    NetCommand::Broadcast {
        message: NetMessage::Block(block),
    }
}

fn junk(label: Label, payload: &'static [u8]) -> LabeledRequest {
    LabeledRequest {
        label,
        payload: bytes::Bytes::from_static(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagbft_core::{ProtocolConfig, Shim, ShimConfig};
    use dagbft_protocols::Brb;

    /// Server 0 of four, fresh, and the registry it signs from.
    fn server() -> (KeyRegistry, Shim<Brb<u64>>) {
        let registry = KeyRegistry::generate(4, 9);
        let config = ShimConfig::new(ProtocolConfig::for_n(4));
        let shim = Shim::new(ServerId::new(0), config, &registry).expect("server 0 has a key");
        (registry, shim)
    }

    /// What `role` sends of one seal, as `(destination, message)` pairs.
    fn routed(
        role: &Role,
        shim: &mut Shim<Brb<u64>>,
        registry: &KeyRegistry,
        now: TimeMs,
    ) -> Vec<(ServerId, NetMessage)> {
        let me = shim.me();
        let sealed = shim.disseminate(now);
        let mut out = Vec::new();
        for command in role.rewrite(me, 4, registry, sealed, now) {
            match command {
                NetCommand::Broadcast { message } => out.extend(
                    (0..4)
                        .map(ServerId::new)
                        .filter(|to| *to != me)
                        .map(|to| (to, message.clone())),
                ),
                NetCommand::SendTo { to, message } => out.push((to, message)),
            }
        }
        out
    }

    /// A `FWD` request for a block nobody holds, as a seal's retry sweep
    /// would send it.
    fn fwd_retry() -> NetCommand {
        NetCommand::SendTo {
            to: ServerId::new(2),
            message: NetMessage::FwdRequest(BlockRef::from_digest(dagbft_crypto::sha256(b"x"))),
        }
    }

    fn block(message: &NetMessage) -> &Block {
        match message {
            NetMessage::Block(block) => block,
            NetMessage::FwdRequest(_) => panic!("expected block"),
        }
    }

    #[test]
    fn role_classification() {
        assert!(!Role::Correct.is_byzantine());
        assert!(!Role::Crash { at: 5 }.is_byzantine());
        assert!(!Role::Restart {
            crash_at: 5,
            rejoin_at: 10
        }
        .is_byzantine());
        assert!(Role::Silent.is_byzantine());
        assert!(Role::Equivocate { at_seq: 0 }.is_byzantine());
        assert!(Role::SelectiveBroadcast {
            targets: BTreeSet::new()
        }
        .is_byzantine());
    }

    #[test]
    fn roles_that_are_not_byzantine_pass_outputs_through_unchanged() {
        let retry = fwd_retry();
        for role in [
            Role::Correct,
            Role::Crash { at: 5 },
            Role::Restart {
                crash_at: 5,
                rejoin_at: 10,
            },
        ] {
            let (registry, mut shim) = server();
            let mut sealed = shim.disseminate(0);
            sealed.push(retry.clone());
            let rewritten = role.rewrite(shim.me(), 4, &registry, sealed.clone(), 0);
            assert_eq!(rewritten, sealed, "{role:?}");
            assert_eq!(role.answer(sealed.clone()), sealed, "{role:?}");
        }
    }

    #[test]
    fn byzantine_roles_pass_fwd_retries_through() {
        let retry = fwd_retry();
        let (registry, _) = server();
        for role in [
            Role::Equivocate { at_seq: 0 },
            Role::SlowLoris { repeat: 3 },
            Role::OutsiderFlood { per_round: 2 },
        ] {
            let rewritten = role.rewrite(ServerId::new(0), 4, &registry, vec![retry.clone()], 0);
            assert_eq!(rewritten, vec![retry.clone()], "{role:?}");
        }
    }

    #[test]
    fn silent_server_sends_nothing() {
        let (registry, mut shim) = server();
        assert!(routed(&Role::Silent, &mut shim, &registry, 0).is_empty());
        // Even FWD answers are suppressed.
        let other = registry.signer(ServerId::new(1)).unwrap();
        let block = Block::build(ServerId::new(1), SeqNum::ZERO, vec![], vec![], &other);
        let stored =
            shim.on_message_burst([(ServerId::new(1), NetMessage::Block(block.clone()))], 0);
        assert!(Role::Silent.answer(stored).is_empty());
        let asked = NetMessage::FwdRequest(block.block_ref());
        let answer = shim.on_message_burst([(ServerId::new(2), asked)], 0);
        assert!(!answer.is_empty(), "a correct server would answer");
        assert!(Role::Silent.answer(answer).is_empty());
        // But it did validate and store the block.
        assert!(shim.dag().contains(&block.block_ref()));
    }

    #[test]
    fn equivocator_sends_conflicting_blocks_to_halves() {
        let (registry, mut shim) = server();
        let sends = routed(&Role::Equivocate { at_seq: 0 }, &mut shim, &registry, 0);
        assert_eq!(sends.len(), 3);
        let blocks: Vec<&Block> = sends.iter().map(|(_, m)| block(m)).collect();
        // Same (builder, seq), at least two distinct refs.
        assert!(blocks.iter().all(|b| b.builder() == ServerId::new(0)));
        assert!(blocks.iter().all(|b| b.seq() == SeqNum::ZERO));
        let distinct: BTreeSet<_> = blocks.iter().map(|b| b.block_ref()).collect();
        assert_eq!(distinct.len(), 2, "two conflicting versions");
        // Both versions carry valid signatures — equivocation is *valid*.
        for block in blocks {
            assert!(block.verify_signature(&registry.verifier()));
        }
    }

    #[test]
    fn equivocator_honest_after_fork() {
        let (registry, mut shim) = server();
        let role = Role::Equivocate { at_seq: 0 };
        let _fork = routed(&role, &mut shim, &registry, 0);
        let after = routed(&role, &mut shim, &registry, 10);
        let distinct: BTreeSet<_> = after.iter().map(|(_, m)| block(m).block_ref()).collect();
        assert_eq!(distinct.len(), 1, "single chain after the fork");
    }

    #[test]
    fn slow_loris_repeats_valid_blocks() {
        let (registry, mut shim) = server();
        let sends = routed(&Role::SlowLoris { repeat: 5 }, &mut shim, &registry, 0);
        // 5 copies × 3 targets, all the same valid block.
        assert_eq!(sends.len(), 15);
        let distinct: BTreeSet<_> = sends.iter().map(|(_, m)| block(m).block_ref()).collect();
        assert_eq!(distinct.len(), 1, "one block, many copies");
        for (_, message) in &sends {
            assert!(block(message).verify_signature(&registry.verifier()));
        }
    }

    #[test]
    fn flood_then_behave_switches_to_honesty() {
        let (registry, mut shim) = server();
        let role = Role::FloodThenBehave {
            until: 1_000,
            per_round: 4,
        };
        let flood = routed(&role, &mut shim, &registry, 0);
        // 4 forged blocks × 3 targets, none of them verifiable.
        assert_eq!(flood.len(), 12);
        let mut refs = BTreeSet::new();
        for (_, message) in &flood {
            assert!(!block(message).verify_signature(&registry.verifier()));
            refs.insert(block(message).block_ref());
        }
        assert_eq!(refs.len(), 4, "distinct contents per forged block");
        // The block it sealed was withheld, not skipped.
        assert_eq!(shim.gossip().next_seq(), SeqNum::new(1));
        assert!(refs.iter().all(|r| !shim.dag().contains(r)));
        // Past `until`: honest dissemination, one valid block to everyone.
        let honest = routed(&role, &mut shim, &registry, 1_000);
        assert_eq!(honest.len(), 3);
        for (_, message) in &honest {
            assert!(block(message).verify_signature(&registry.verifier()));
        }
    }

    #[test]
    fn selective_broadcast_restricts_targets() {
        let (registry, mut shim) = server();
        let role = Role::SelectiveBroadcast {
            targets: [1].into_iter().collect(),
        };
        let sends = routed(&role, &mut shim, &registry, 0);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, ServerId::new(1));
    }
}
