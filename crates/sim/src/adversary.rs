//! Byzantine server behaviours.
//!
//! §4 of the paper enumerates how byzantine servers can influence the DAG:
//! equivocating blocks (Figure 3), referencing a block multiple times,
//! never referencing a block, or staying silent — and argues the embedded
//! BFT protocol absorbs all of it. This module implements those behaviours
//! so the integration tests and experiment E12 can exercise them.
//!
//! Byzantine servers here still *validate* and store blocks (a byzantine
//! server gains nothing from corrupting its own view), but misbehave in
//! what they send. They run the raw [`Gossip`] layer without any
//! interpretation — they have no honest user to serve.

use std::collections::BTreeSet;

use dagbft_core::{Block, Gossip, GossipConfig, LabeledRequest, NetCommand, NetMessage, TimeMs};
use dagbft_crypto::{KeyRegistry, ServerId, Signature, Signer};

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
    /// Byzantine: receives and validates but never sends anything.
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
    /// Byzantine: until `until`, floods `per_round` forged blocks (null
    /// signatures, distinct contents) per round, then switches to fully
    /// correct behaviour — the probe for score decay: a reformed peer
    /// must regain standing once its offenses age out.
    FloodThenBehave {
        /// First round time at which the server behaves honestly.
        until: TimeMs,
        /// Forged blocks sent per flooding round (clamped to at least 1).
        per_round: usize,
    },
    /// Byzantine: every round floods `per_round` blocks that can never be
    /// valid — each names a builder outside the server set and cites a
    /// predecessor nobody holds. A receiver that buffered them would
    /// address `FWD` requests to a server that does not exist.
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
}

/// A byzantine server: honest gossip state, dishonest sending.
#[derive(Debug)]
pub struct ByzServer {
    gossip: Gossip,
    signer: Signer,
    role: Role,
    n: usize,
}

impl ByzServer {
    /// Creates a byzantine server with the given role.
    ///
    /// # Panics
    ///
    /// Panics if `role` is [`Role::Correct`] or [`Role::Crash`] (those run
    /// a real shim), or if `me` has no key in the registry.
    pub fn new(me: ServerId, n: usize, role: Role, registry: &KeyRegistry) -> Self {
        assert!(role.is_byzantine(), "ByzServer requires a byzantine role");
        let signer = registry.signer(me).expect("byzantine server has a key");
        ByzServer {
            gossip: Gossip::new(
                me,
                GossipConfig::for_n(n),
                signer.clone(),
                registry.verifier(),
            ),
            signer,
            role,
            n,
        }
    }

    /// The server identity.
    pub fn me(&self) -> ServerId {
        self.gossip.me()
    }

    /// Read access to the byzantine server's (honest) DAG.
    pub fn dag(&self) -> &dagbft_core::BlockDag {
        self.gossip.dag()
    }

    /// Handles an incoming message. Silent servers swallow everything;
    /// others take part in gossip (including answering `FWD`s, which only
    /// helps their blocks spread).
    pub fn on_message(
        &mut self,
        from: ServerId,
        message: NetMessage,
        now: TimeMs,
    ) -> Vec<NetCommand> {
        let commands = self.gossip.on_message(from, message, now);
        match self.role {
            Role::Silent => Vec::new(),
            _ => commands,
        }
    }

    /// Produces this round's dissemination, per role. Returns pre-routed
    /// `(destination, message)` pairs because byzantine sending is not a
    /// uniform broadcast.
    pub fn disseminate(&mut self, now: TimeMs) -> Vec<(ServerId, NetMessage)> {
        match self.role.clone() {
            Role::Silent => Vec::new(),
            Role::Equivocate { at_seq } => {
                let seq = self.gossip.next_seq();
                let (block_a, _) = self.gossip.disseminate(vec![], now);
                if seq.value() == at_seq {
                    // Build the conflicting twin: same builder and sequence
                    // number, different content (an extra junk request).
                    let twin = Block::build(
                        self.me(),
                        block_a.seq(),
                        block_a.preds().to_vec(),
                        vec![LabeledRequest {
                            label: dagbft_core::Label::new(u64::MAX),
                            payload: bytes_lit(b"equivocation"),
                        }],
                        &self.signer,
                    );
                    let mut out = Vec::new();
                    for target in 0..self.n {
                        let target_id = ServerId::new(target as u32);
                        if target_id == self.me() {
                            continue;
                        }
                        let block = if target < self.n / 2 { &block_a } else { &twin };
                        out.push((target_id, NetMessage::Block(block.clone())));
                    }
                    out
                } else {
                    self.broadcast_to_all(block_a)
                }
            }
            Role::SelectiveBroadcast { targets } => {
                let (block, _) = self.gossip.disseminate(vec![], now);
                targets
                    .iter()
                    .filter(|t| **t != self.me().index())
                    .map(|t| (ServerId::new(*t as u32), NetMessage::Block(block.clone())))
                    .collect()
            }
            Role::SlowLoris { repeat } => {
                let (block, _) = self.gossip.disseminate(vec![], now);
                let mut out = Vec::new();
                for _ in 0..repeat.max(1) {
                    out.extend(self.broadcast_to_all(block.clone()));
                }
                out
            }
            Role::FloodThenBehave { until, per_round } => {
                if now < until {
                    // Forged junk: null signatures over distinct contents,
                    // so every copy costs the receiver a failed verification
                    // before it can be rejected.
                    let seq = self.gossip.next_seq();
                    let mut out = Vec::new();
                    for i in 0..per_round.max(1) {
                        let forged = Block::build_with_signature(
                            self.me(),
                            seq,
                            vec![],
                            vec![LabeledRequest {
                                label: dagbft_core::Label::new(
                                    now.wrapping_mul(1_000_003).wrapping_add(i as u64),
                                ),
                                payload: bytes_lit(b"flood"),
                            }],
                            Signature::NULL,
                        );
                        out.extend(self.broadcast_to_all(forged));
                    }
                    out
                } else {
                    let (block, _) = self.gossip.disseminate(vec![], now);
                    self.broadcast_to_all(block)
                }
            }
            Role::OutsiderFlood { per_round } => {
                let mut out = Vec::new();
                for i in 0..per_round.max(1) as u64 {
                    let nonce = now.wrapping_mul(1_000_003).wrapping_add(i);
                    let nobody_has = dagbft_crypto::sha256(nonce.to_le_bytes());
                    let outsider = Block::build_with_signature(
                        ServerId::new(self.n as u32),
                        dagbft_core::SeqNum::new(1),
                        vec![dagbft_core::BlockRef::from_digest(nobody_has)],
                        vec![],
                        Signature::NULL,
                    );
                    out.extend(self.broadcast_to_all(outsider));
                }
                out
            }
            Role::Correct | Role::Crash { .. } | Role::Restart { .. } => {
                unreachable!("checked in new()")
            }
        }
    }

    fn broadcast_to_all(&self, block: Block) -> Vec<(ServerId, NetMessage)> {
        (0..self.n)
            .map(|i| ServerId::new(i as u32))
            .filter(|id| *id != self.me())
            .map(|id| (id, NetMessage::Block(block.clone())))
            .collect()
    }
}

fn bytes_lit(data: &'static [u8]) -> bytes::Bytes {
    bytes::Bytes::from_static(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(n: usize) -> KeyRegistry {
        KeyRegistry::generate(n, 9)
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
    #[should_panic(expected = "byzantine role")]
    fn correct_role_rejected() {
        let registry = registry(4);
        let _ = ByzServer::new(ServerId::new(0), 4, Role::Correct, &registry);
    }

    #[test]
    fn silent_server_sends_nothing() {
        let registry = registry(4);
        let mut server = ByzServer::new(ServerId::new(0), 4, Role::Silent, &registry);
        assert!(server.disseminate(0).is_empty());
        // Even FWD answers are suppressed.
        let other = registry.signer(ServerId::new(1)).unwrap();
        let block = Block::build(
            ServerId::new(1),
            dagbft_core::SeqNum::ZERO,
            vec![],
            vec![],
            &other,
        );
        let commands = server.on_message(ServerId::new(1), NetMessage::Block(block.clone()), 0);
        assert!(commands.is_empty());
        // But it did validate and store the block.
        assert!(server.dag().contains(&block.block_ref()));
    }

    #[test]
    fn equivocator_sends_conflicting_blocks_to_halves() {
        let registry = registry(4);
        let mut server = ByzServer::new(
            ServerId::new(0),
            4,
            Role::Equivocate { at_seq: 0 },
            &registry,
        );
        let sends = server.disseminate(0);
        assert_eq!(sends.len(), 3);
        let blocks: Vec<&Block> = sends
            .iter()
            .map(|(_, m)| match m {
                NetMessage::Block(b) => b,
                _ => panic!("expected block"),
            })
            .collect();
        // Same (builder, seq), at least two distinct refs.
        assert!(blocks.iter().all(|b| b.builder() == ServerId::new(0)));
        assert!(blocks.iter().all(|b| b.seq() == dagbft_core::SeqNum::ZERO));
        let distinct: BTreeSet<_> = blocks.iter().map(|b| b.block_ref()).collect();
        assert_eq!(distinct.len(), 2, "two conflicting versions");
        // Both versions carry valid signatures — equivocation is *valid*.
        for block in blocks {
            assert!(block.verify_signature(&registry.verifier()));
        }
    }

    #[test]
    fn equivocator_honest_after_fork() {
        let registry = registry(4);
        let mut server = ByzServer::new(
            ServerId::new(0),
            4,
            Role::Equivocate { at_seq: 0 },
            &registry,
        );
        let _fork = server.disseminate(0);
        let after = server.disseminate(10);
        let distinct: BTreeSet<_> = after
            .iter()
            .map(|(_, m)| match m {
                NetMessage::Block(b) => b.block_ref(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(distinct.len(), 1, "single chain after the fork");
    }

    #[test]
    fn slow_loris_repeats_valid_blocks() {
        let registry = registry(4);
        let mut server = ByzServer::new(
            ServerId::new(0),
            4,
            Role::SlowLoris { repeat: 5 },
            &registry,
        );
        let sends = server.disseminate(0);
        // 5 copies × 3 targets, all the same valid block.
        assert_eq!(sends.len(), 15);
        let distinct: BTreeSet<_> = sends
            .iter()
            .map(|(_, m)| match m {
                NetMessage::Block(b) => b.block_ref(),
                _ => panic!("expected block"),
            })
            .collect();
        assert_eq!(distinct.len(), 1, "one block, many copies");
        for (_, message) in &sends {
            let NetMessage::Block(block) = message else {
                panic!("expected block");
            };
            assert!(block.verify_signature(&registry.verifier()));
        }
    }

    #[test]
    fn flood_then_behave_switches_to_honesty() {
        let registry = registry(4);
        let mut server = ByzServer::new(
            ServerId::new(0),
            4,
            Role::FloodThenBehave {
                until: 1_000,
                per_round: 4,
            },
            &registry,
        );
        let flood = server.disseminate(0);
        // 4 forged blocks × 3 targets, none of them verifiable.
        assert_eq!(flood.len(), 12);
        let mut refs = BTreeSet::new();
        for (_, message) in &flood {
            let NetMessage::Block(block) = message else {
                panic!("expected block");
            };
            assert!(!block.verify_signature(&registry.verifier()));
            refs.insert(block.block_ref());
        }
        assert_eq!(refs.len(), 4, "distinct contents per forged block");
        // Past `until`: honest dissemination, one valid block to everyone.
        let honest = server.disseminate(1_000);
        assert_eq!(honest.len(), 3);
        for (_, message) in &honest {
            let NetMessage::Block(block) = message else {
                panic!("expected block");
            };
            assert!(block.verify_signature(&registry.verifier()));
        }
    }

    #[test]
    fn selective_broadcast_restricts_targets() {
        let registry = registry(4);
        let targets: BTreeSet<usize> = [1].into_iter().collect();
        let mut server = ByzServer::new(
            ServerId::new(0),
            4,
            Role::SelectiveBroadcast { targets },
            &registry,
        );
        let sends = server.disseminate(0);
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, ServerId::new(1));
    }
}
