//! Adversarial peer defense: deterministic scoring, rate limiting, and
//! time-decaying bans.
//!
//! The paper assumes well-behaved dissemination and treats accountability
//! as an extension (§6). A node serving open networks cannot: peers may
//! flood duplicates, drip garbage, or equivocate. [`PeerDefense`] turns
//! the admission outcomes the gossip layer already computes — invalid
//! signatures, duplicate floods, pending-cap evictions, equivocations —
//! into a **graduated, fully deterministic** response:
//!
//! 1. **Scoring** — every offense adds a configured penalty to the
//!    offender's score. Transient offenses decay with (logical) time;
//!    equivocations are durable — they are provable from the DAG
//!    ([`crate::accountability`]) and are re-derived on crash recovery.
//! 2. **Token-bucket rate limits** — per-peer blocks/bytes buckets gate
//!    ingest; a flooding peer's surplus is dropped before it buys any
//!    verification work.
//! 3. **Deprioritization** — a caught equivocator's blocks admit last in
//!    every ready set and its pending allowance shrinks
//!    ([`DefenseConfig::deprioritized_allowance`]).
//! 4. **Bans** — a score crossing [`DefenseConfig::ban_threshold`]
//!    triggers a time-bounded ban: gossip drops the peer's traffic, and
//!    the TCP transport refuses its reconnects until the ban decays.
//!
//! Every state change emits a typed [`DefenseEvent`] — the auditable
//! trail next to gossip's `EvictionEvent` log — and everything is keyed
//! on the logical [`TimeMs`] the caller supplies, so identical event
//! sequences produce byte-identical score trajectories across runs,
//! signature schemes, and restarts.

use std::collections::BTreeMap;

use dagbft_crypto::ServerId;

use crate::TimeMs;

/// Configuration of the peer-defense engine. `enabled: false` (the
/// default) turns the whole subsystem into a no-op so deployments opt in
/// explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseConfig {
    /// Master switch; all other knobs are inert when `false`.
    pub enabled: bool,
    /// Score added per block rejected as permanently invalid (forged
    /// signature, unknown builder, malformed parent structure).
    pub invalid_penalty: u64,
    /// Score added per received block already held (duplicate flood).
    pub duplicate_penalty: u64,
    /// Score added per pending-cap eviction attributed to the peer that
    /// delivered the victim.
    pub eviction_penalty: u64,
    /// Score added per malformed frame reported by the transport.
    pub malformed_penalty: u64,
    /// Score added per throttled block (sustained flooding escalates
    /// from throttling to a ban).
    pub throttle_penalty: u64,
    /// Durable score per proven equivocation (counted from the DAG, so
    /// it survives crash/restart).
    pub equivocation_penalty: u64,
    /// Volatile score decays by [`DefenseConfig::decay_step`] once per
    /// this many logical milliseconds.
    pub decay_interval_ms: u64,
    /// Volatile score subtracted per elapsed decay interval.
    pub decay_step: u64,
    /// Total score at or above which an offense triggers a ban.
    pub ban_threshold: u64,
    /// Ban duration in logical milliseconds.
    pub ban_ms: u64,
    /// Token-bucket capacity, in blocks, per peer.
    pub bucket_blocks: u64,
    /// Blocks refilled per refill interval.
    pub refill_blocks: u64,
    /// Token-bucket capacity, in wire bytes, per peer.
    pub bucket_bytes: u64,
    /// Wire bytes refilled per refill interval.
    pub refill_bytes: u64,
    /// Refill cadence in logical milliseconds.
    pub refill_interval_ms: u64,
    /// Maximum pending-buffer slots a deprioritized (equivocating)
    /// builder may occupy; excess blocks are evicted oldest-first.
    pub deprioritized_allowance: usize,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            enabled: false,
            invalid_penalty: 40,
            duplicate_penalty: 2,
            eviction_penalty: 5,
            malformed_penalty: 20,
            throttle_penalty: 3,
            equivocation_penalty: 120,
            decay_interval_ms: 1_000,
            decay_step: 10,
            ban_threshold: 240,
            ban_ms: 10_000,
            bucket_blocks: 64,
            refill_blocks: 32,
            bucket_bytes: 1 << 20,
            refill_bytes: 512 << 10,
            refill_interval_ms: 100,
            deprioritized_allowance: 16,
        }
    }
}

impl DefenseConfig {
    /// The default knobs with the subsystem switched on.
    pub fn enabled() -> Self {
        DefenseConfig {
            enabled: true,
            ..DefenseConfig::default()
        }
    }

    /// Sets the ban threshold and duration.
    pub fn with_ban(mut self, threshold: u64, ban_ms: u64) -> Self {
        self.ban_threshold = threshold;
        self.ban_ms = ban_ms;
        self
    }

    /// Sets the per-peer block bucket (capacity and per-interval refill).
    pub fn with_block_bucket(mut self, capacity: u64, refill: u64) -> Self {
        self.bucket_blocks = capacity.max(1);
        self.refill_blocks = refill;
        self
    }

    /// Sets the per-peer byte bucket (capacity and per-interval refill).
    pub fn with_byte_bucket(mut self, capacity: u64, refill: u64) -> Self {
        self.bucket_bytes = capacity.max(1);
        self.refill_bytes = refill;
        self
    }

    /// Sets the volatile-score decay (subtract `step` every `interval_ms`).
    pub fn with_decay(mut self, interval_ms: u64, step: u64) -> Self {
        self.decay_interval_ms = interval_ms.max(1);
        self.decay_step = step;
        self
    }
}

/// The admission outcomes the scoring engine consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Offense {
    /// A block rejected as permanently invalid (Definition 3.3).
    InvalidBlock,
    /// A received block already present (duplicate flood).
    DuplicateFlood,
    /// A pending-cap eviction attributed to the delivering peer.
    Eviction,
    /// A malformed frame reported by the transport layer.
    MalformedFrame,
    /// A block dropped by the token bucket (flood pressure).
    Throttled,
    /// A proven equivocation (durable; convicts the builder).
    Equivocation,
}

impl Offense {
    fn penalty(self, config: &DefenseConfig) -> u64 {
        match self {
            Offense::InvalidBlock => config.invalid_penalty,
            Offense::DuplicateFlood => config.duplicate_penalty,
            Offense::Eviction => config.eviction_penalty,
            Offense::MalformedFrame => config.malformed_penalty,
            Offense::Throttled => config.throttle_penalty,
            Offense::Equivocation => config.equivocation_penalty,
        }
    }

    fn code(self) -> u8 {
        match self {
            Offense::InvalidBlock => 0,
            Offense::DuplicateFlood => 1,
            Offense::Eviction => 2,
            Offense::MalformedFrame => 3,
            Offense::Throttled => 4,
            Offense::Equivocation => 5,
        }
    }
}

/// Verdict of the per-peer ingest gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitVerdict {
    /// Within budget: hand the block to admission.
    Admit,
    /// Token bucket empty: drop the block (recoverable via `FWD`).
    Throttle,
    /// The peer is banned: drop without charging the bucket.
    Ban,
}

/// One auditable defensive action — the defense layer's analogue of
/// gossip's `EvictionEvent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseEvent {
    /// An offense changed a peer's score.
    Scored {
        /// The penalized peer.
        peer: ServerId,
        /// What it did.
        offense: Offense,
        /// Its total score after the penalty.
        score: u64,
        /// Logical time of the offense.
        at: TimeMs,
    },
    /// The token bucket dropped a block.
    Throttled {
        /// The throttled peer.
        peer: ServerId,
        /// Wire length of the dropped block.
        wire_len: u64,
        /// Logical time of the drop.
        at: TimeMs,
    },
    /// A score crossing the threshold triggered a ban.
    Banned {
        /// The banned peer.
        peer: ServerId,
        /// Logical time the ban lapses.
        until: TimeMs,
        /// The score that triggered it.
        score: u64,
        /// Logical time of the ban.
        at: TimeMs,
    },
    /// A previously imposed ban lapsed (noted on the peer's next
    /// admission attempt).
    BanLifted {
        /// The reinstated peer.
        peer: ServerId,
        /// Logical time the lapse was observed.
        at: TimeMs,
    },
    /// A builder was (or remains, after recovery) deprioritized for
    /// proven equivocation.
    Deprioritized {
        /// The convicted builder.
        builder: ServerId,
        /// Total proven equivocations so far.
        equivocations: u64,
        /// Logical time of conviction.
        at: TimeMs,
    },
}

/// Aggregate counters of one [`PeerDefense`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefenseStats {
    /// Offenses scored (all kinds, all peers).
    pub offenses: u64,
    /// Blocks dropped by the token bucket.
    pub throttled_blocks: u64,
    /// Blocks dropped because their sender was banned.
    pub banned_blocks: u64,
    /// Bans imposed.
    pub bans: u64,
    /// Builders currently deprioritized for proven equivocation.
    pub deprioritized: u64,
}

/// Point-in-time view of one peer's defense state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerScoreSnapshot {
    /// Decaying score component from transient offenses.
    pub volatile: u64,
    /// Proven equivocations (durable; re-derived from the DAG on
    /// recovery).
    pub equivocations: u64,
    /// Total score: `volatile + equivocations · equivocation_penalty`.
    pub total: u64,
    /// Whether the peer is currently banned.
    pub banned: bool,
    /// Blocks of this peer dropped by the token bucket.
    pub throttled_blocks: u64,
    /// Blocks of this peer dropped while it was banned.
    pub banned_blocks: u64,
}

/// Per-peer defense state. Buckets start full; decay and refill are
/// applied lazily from the stored timestamps, in whole intervals, so the
/// state is a pure function of the offense/admission sequence.
#[derive(Debug, Clone, Copy)]
struct PeerState {
    volatile: u64,
    decayed_to: TimeMs,
    equivocations: u64,
    block_tokens: u64,
    byte_tokens: u64,
    refilled_to: TimeMs,
    /// `0` — not banned; otherwise the logical lapse time.
    banned_until: TimeMs,
    throttled_blocks: u64,
    banned_blocks: u64,
}

impl PeerState {
    fn fresh(config: &DefenseConfig, now: TimeMs) -> Self {
        PeerState {
            volatile: 0,
            decayed_to: now,
            equivocations: 0,
            block_tokens: config.bucket_blocks,
            byte_tokens: config.bucket_bytes,
            refilled_to: now,
            banned_until: 0,
            throttled_blocks: 0,
            banned_blocks: 0,
        }
    }

    /// Applies pending decay and refill up to `now` (whole intervals
    /// only, remainder carried in the timestamps — lossless and
    /// deterministic).
    fn advance(&mut self, config: &DefenseConfig, now: TimeMs) {
        let decay_steps = now.saturating_sub(self.decayed_to) / config.decay_interval_ms;
        if decay_steps > 0 {
            self.volatile = self
                .volatile
                .saturating_sub(decay_steps.saturating_mul(config.decay_step));
            self.decayed_to += decay_steps * config.decay_interval_ms;
        }
        let refill_steps = now.saturating_sub(self.refilled_to) / config.refill_interval_ms;
        if refill_steps > 0 {
            self.block_tokens = self
                .block_tokens
                .saturating_add(refill_steps.saturating_mul(config.refill_blocks))
                .min(config.bucket_blocks);
            self.byte_tokens = self
                .byte_tokens
                .saturating_add(refill_steps.saturating_mul(config.refill_bytes))
                .min(config.bucket_bytes);
            self.refilled_to += refill_steps * config.refill_interval_ms;
        }
    }

    fn total(&self, config: &DefenseConfig) -> u64 {
        self.volatile.saturating_add(
            self.equivocations
                .saturating_mul(config.equivocation_penalty),
        )
    }
}

/// The deterministic per-peer defense engine (see the module docs).
///
/// All entry points take the caller's logical clock: the simulator's
/// event time or a node's milliseconds-since-start. Nothing here reads
/// wall-clock time, so a run's defensive behaviour — scores, throttles,
/// bans, and the full [`DefenseEvent`] trajectory — is reproducible from
/// the event sequence alone.
#[derive(Debug, Clone)]
pub struct PeerDefense {
    config: DefenseConfig,
    peers: BTreeMap<ServerId, PeerState>,
    events: Vec<DefenseEvent>,
    stats: DefenseStats,
}

impl PeerDefense {
    /// Creates an engine with the given configuration.
    pub fn new(config: DefenseConfig) -> Self {
        PeerDefense {
            config,
            peers: BTreeMap::new(),
            events: Vec::new(),
            stats: DefenseStats::default(),
        }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &DefenseConfig {
        &self.config
    }

    /// Whether the subsystem is active at all.
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// Aggregate counters.
    pub fn stats(&self) -> DefenseStats {
        self.stats
    }

    /// The auditable trail of every defensive action, in order.
    pub fn events(&self) -> &[DefenseEvent] {
        &self.events
    }

    /// Gates one block from `peer` (`wire_len` canonical bytes) through
    /// the ban check and the token buckets. Call only for remote peers;
    /// a disabled engine always admits.
    pub fn admit_block(&mut self, peer: ServerId, wire_len: u64, now: TimeMs) -> AdmitVerdict {
        if !self.config.enabled {
            return AdmitVerdict::Admit;
        }
        let config = self.config;
        let state = self
            .peers
            .entry(peer)
            .or_insert_with(|| PeerState::fresh(&config, now));
        state.advance(&config, now);
        if state.banned_until > now {
            state.banned_blocks += 1;
            self.stats.banned_blocks += 1;
            return AdmitVerdict::Ban;
        }
        if state.banned_until != 0 {
            state.banned_until = 0;
            self.events.push(DefenseEvent::BanLifted { peer, at: now });
        }
        if state.block_tokens >= 1 && state.byte_tokens >= wire_len {
            state.block_tokens -= 1;
            state.byte_tokens -= wire_len;
            return AdmitVerdict::Admit;
        }
        state.throttled_blocks += 1;
        self.stats.throttled_blocks += 1;
        self.events.push(DefenseEvent::Throttled {
            peer,
            wire_len,
            at: now,
        });
        self.score_offense(peer, Offense::Throttled, now);
        AdmitVerdict::Throttle
    }

    /// Records one offense by `peer`, emitting the score event and — if
    /// the total crosses [`DefenseConfig::ban_threshold`] — a ban.
    pub fn note_offense(&mut self, peer: ServerId, offense: Offense, now: TimeMs) {
        if !self.config.enabled {
            return;
        }
        self.score_offense(peer, offense, now);
    }

    fn score_offense(&mut self, peer: ServerId, offense: Offense, now: TimeMs) {
        let config = self.config;
        let state = self
            .peers
            .entry(peer)
            .or_insert_with(|| PeerState::fresh(&config, now));
        state.advance(&config, now);
        if offense == Offense::Equivocation {
            state.equivocations += 1;
            let equivocations = state.equivocations;
            if equivocations == 1 {
                self.stats.deprioritized += 1;
            }
            self.events.push(DefenseEvent::Deprioritized {
                builder: peer,
                equivocations,
                at: now,
            });
        } else {
            state.volatile = state.volatile.saturating_add(offense.penalty(&config));
        }
        let score = state.total(&config);
        self.stats.offenses += 1;
        self.events.push(DefenseEvent::Scored {
            peer,
            offense,
            score,
            at: now,
        });
        let state = self.peers.get_mut(&peer).expect("just inserted");
        if score >= config.ban_threshold && state.banned_until <= now {
            let until = now + config.ban_ms;
            state.banned_until = until;
            self.stats.bans += 1;
            self.events.push(DefenseEvent::Banned {
                peer,
                until,
                score,
                at: now,
            });
        }
    }

    /// Restores the durable score component after crash recovery: sets
    /// `builder`'s proven-equivocation count as re-derived from the
    /// recovered DAG. Idempotent; emits a [`DefenseEvent::Deprioritized`]
    /// record so the audit trail shows the recovered conviction.
    pub fn seed_equivocations(&mut self, builder: ServerId, count: u64, now: TimeMs) {
        if !self.config.enabled || count == 0 {
            return;
        }
        let config = self.config;
        let state = self
            .peers
            .entry(builder)
            .or_insert_with(|| PeerState::fresh(&config, now));
        if state.equivocations == 0 {
            self.stats.deprioritized += 1;
        }
        state.equivocations = state.equivocations.max(count);
        let equivocations = state.equivocations;
        self.events.push(DefenseEvent::Deprioritized {
            builder,
            equivocations,
            at: now,
        });
    }

    /// Whether `builder` has at least one proven equivocation (its
    /// blocks admit last and its pending allowance shrinks).
    pub fn is_deprioritized(&self, builder: ServerId) -> bool {
        self.config.enabled
            && self
                .peers
                .get(&builder)
                .is_some_and(|state| state.equivocations > 0)
    }

    /// Whether any builder is deprioritized (cheap guard for allowance
    /// enforcement).
    pub fn any_deprioritized(&self) -> bool {
        self.stats.deprioritized > 0
    }

    /// Whether `peer` is banned at `now`.
    pub fn is_banned(&self, peer: ServerId, now: TimeMs) -> bool {
        self.config.enabled
            && self
                .peers
                .get(&peer)
                .is_some_and(|state| state.banned_until > now)
    }

    /// Active bans at `now`: `(peer, lapse time)` — what a transport
    /// syncs into its reconnect gate.
    pub fn bans(&self, now: TimeMs) -> Vec<(ServerId, TimeMs)> {
        self.peers
            .iter()
            .filter(|(_, state)| state.banned_until > now)
            .map(|(peer, state)| (*peer, state.banned_until))
            .collect()
    }

    /// `peer`'s current score with decay applied virtually (the stored
    /// state is not mutated).
    pub fn score(&self, peer: ServerId, now: TimeMs) -> u64 {
        match self.peers.get(&peer) {
            Some(state) => {
                let mut copy = *state;
                copy.advance(&self.config, now);
                copy.total(&self.config)
            }
            None => 0,
        }
    }

    /// Point-in-time snapshots for every peer the engine has seen, in
    /// `ServerId` order — the metrics mirror-publisher's source.
    pub fn snapshots(&self, now: TimeMs) -> Vec<(ServerId, PeerScoreSnapshot)> {
        self.peers
            .iter()
            .map(|(peer, state)| {
                let mut copy = *state;
                copy.advance(&self.config, now);
                (
                    *peer,
                    PeerScoreSnapshot {
                        volatile: copy.volatile,
                        equivocations: copy.equivocations,
                        total: copy.total(&self.config),
                        banned: copy.banned_until > now,
                        throttled_blocks: copy.throttled_blocks,
                        banned_blocks: copy.banned_blocks,
                    },
                )
            })
            .collect()
    }

    /// Canonical byte encoding of the full event trajectory — what the
    /// determinism tests compare across runs and signature schemes.
    pub fn trajectory_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.events.len() * 24);
        for event in &self.events {
            match *event {
                DefenseEvent::Scored {
                    peer,
                    offense,
                    score,
                    at,
                } => {
                    out.push(b'S');
                    out.extend_from_slice(&peer.index().to_le_bytes());
                    out.push(offense.code());
                    out.extend_from_slice(&score.to_le_bytes());
                    out.extend_from_slice(&at.to_le_bytes());
                }
                DefenseEvent::Throttled { peer, wire_len, at } => {
                    out.push(b'T');
                    out.extend_from_slice(&peer.index().to_le_bytes());
                    out.extend_from_slice(&wire_len.to_le_bytes());
                    out.extend_from_slice(&at.to_le_bytes());
                }
                DefenseEvent::Banned {
                    peer,
                    until,
                    score,
                    at,
                } => {
                    out.push(b'B');
                    out.extend_from_slice(&peer.index().to_le_bytes());
                    out.extend_from_slice(&until.to_le_bytes());
                    out.extend_from_slice(&score.to_le_bytes());
                    out.extend_from_slice(&at.to_le_bytes());
                }
                DefenseEvent::BanLifted { peer, at } => {
                    out.push(b'L');
                    out.extend_from_slice(&peer.index().to_le_bytes());
                    out.extend_from_slice(&at.to_le_bytes());
                }
                DefenseEvent::Deprioritized {
                    builder,
                    equivocations,
                    at,
                } => {
                    out.push(b'D');
                    out.extend_from_slice(&builder.index().to_le_bytes());
                    out.extend_from_slice(&equivocations.to_le_bytes());
                    out.extend_from_slice(&at.to_le_bytes());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(i: u32) -> ServerId {
        ServerId::new(i)
    }

    #[test]
    fn disabled_engine_is_inert() {
        let mut defense = PeerDefense::new(DefenseConfig::default());
        assert_eq!(
            defense.admit_block(peer(1), 10_000_000, 0),
            AdmitVerdict::Admit
        );
        defense.note_offense(peer(1), Offense::InvalidBlock, 0);
        defense.note_offense(peer(1), Offense::Equivocation, 0);
        assert_eq!(defense.score(peer(1), 0), 0);
        assert!(defense.events().is_empty());
        assert!(!defense.is_deprioritized(peer(1)));
        assert_eq!(defense.stats(), DefenseStats::default());
    }

    #[test]
    fn scores_accumulate_and_decay() {
        let config = DefenseConfig::enabled().with_decay(1_000, 10);
        let mut defense = PeerDefense::new(config);
        defense.note_offense(peer(1), Offense::InvalidBlock, 0);
        assert_eq!(defense.score(peer(1), 0), config.invalid_penalty);
        // After 2 intervals, two decay steps have been subtracted.
        assert_eq!(
            defense.score(peer(1), 2_000),
            config.invalid_penalty - 2 * config.decay_step
        );
        // Decay is lazy but lossless: an offense later sees the same total.
        defense.note_offense(peer(1), Offense::DuplicateFlood, 2_000);
        assert_eq!(
            defense.score(peer(1), 2_000),
            config.invalid_penalty - 2 * config.decay_step + config.duplicate_penalty
        );
        // Eventually the volatile component reaches zero.
        assert_eq!(defense.score(peer(1), 1_000_000), 0);
    }

    #[test]
    fn token_bucket_throttles_floods_and_refills() {
        let config = DefenseConfig::enabled().with_block_bucket(2, 1);
        let mut defense = PeerDefense::new(config);
        assert_eq!(defense.admit_block(peer(1), 100, 0), AdmitVerdict::Admit);
        assert_eq!(defense.admit_block(peer(1), 100, 0), AdmitVerdict::Admit);
        assert_eq!(defense.admit_block(peer(1), 100, 0), AdmitVerdict::Throttle);
        assert_eq!(defense.stats().throttled_blocks, 1);
        // One refill interval restores one token.
        let later = config.refill_interval_ms;
        assert_eq!(
            defense.admit_block(peer(1), 100, later),
            AdmitVerdict::Admit
        );
        assert_eq!(
            defense.admit_block(peer(1), 100, later),
            AdmitVerdict::Throttle
        );
    }

    #[test]
    fn byte_bucket_bounds_large_blocks() {
        let config = DefenseConfig::enabled().with_byte_bucket(1_000, 100);
        let mut defense = PeerDefense::new(config);
        assert_eq!(defense.admit_block(peer(1), 900, 0), AdmitVerdict::Admit);
        assert_eq!(defense.admit_block(peer(1), 900, 0), AdmitVerdict::Throttle);
        assert_eq!(defense.admit_block(peer(1), 50, 0), AdmitVerdict::Admit);
    }

    #[test]
    fn crossing_threshold_bans_and_ban_decays() {
        let config = DefenseConfig::enabled().with_ban(80, 5_000);
        let mut defense = PeerDefense::new(config);
        defense.note_offense(peer(1), Offense::InvalidBlock, 0);
        assert!(!defense.is_banned(peer(1), 0), "below threshold");
        defense.note_offense(peer(1), Offense::InvalidBlock, 0);
        assert!(defense.is_banned(peer(1), 0), "threshold crossed");
        assert_eq!(defense.stats().bans, 1);
        assert_eq!(defense.bans(0), vec![(peer(1), 5_000)]);
        // Banned traffic is dropped without charging the bucket.
        assert_eq!(defense.admit_block(peer(1), 100, 1_000), AdmitVerdict::Ban);
        assert_eq!(defense.stats().banned_blocks, 1);
        // After the lapse the peer is readmitted (and the lift is logged).
        assert!(!defense.is_banned(peer(1), 5_000));
        assert_eq!(
            defense.admit_block(peer(1), 100, 6_000),
            AdmitVerdict::Admit
        );
        assert!(defense
            .events()
            .iter()
            .any(|e| matches!(e, DefenseEvent::BanLifted { .. })));
    }

    #[test]
    fn equivocation_is_durable_and_deprioritizes() {
        let mut defense = PeerDefense::new(DefenseConfig::enabled());
        defense.note_offense(peer(2), Offense::Equivocation, 100);
        assert!(defense.is_deprioritized(peer(2)));
        assert!(defense.any_deprioritized());
        assert!(!defense.is_deprioritized(peer(1)));
        // Equivocation score never decays.
        let config = defense.config();
        assert_eq!(
            defense.score(peer(2), 10_000_000),
            config.equivocation_penalty
        );
        assert_eq!(defense.stats().deprioritized, 1);
    }

    #[test]
    fn seeding_matches_live_conviction_scores() {
        let mut live = PeerDefense::new(DefenseConfig::enabled());
        live.note_offense(peer(2), Offense::Equivocation, 50);
        live.note_offense(peer(2), Offense::Equivocation, 60);

        let mut recovered = PeerDefense::new(DefenseConfig::enabled());
        recovered.seed_equivocations(peer(2), 2, 0);
        assert_eq!(
            live.score(peer(2), 100_000),
            recovered.score(peer(2), 100_000),
            "durable component identical after recovery"
        );
        assert!(recovered.is_deprioritized(peer(2)));
        // Seeding twice is idempotent.
        recovered.seed_equivocations(peer(2), 2, 0);
        assert_eq!(recovered.score(peer(2), 0), live.score(peer(2), 100_000));
    }

    #[test]
    fn trajectories_are_a_pure_function_of_the_event_sequence() {
        let run = || {
            let mut defense = PeerDefense::new(DefenseConfig::enabled());
            defense.note_offense(peer(1), Offense::InvalidBlock, 10);
            defense.admit_block(peer(1), 500, 20);
            defense.note_offense(peer(3), Offense::Equivocation, 30);
            defense.note_offense(peer(1), Offense::DuplicateFlood, 40);
            defense.trajectory_bytes()
        };
        assert_eq!(run(), run());
        assert!(!run().is_empty());
    }

    #[test]
    fn sustained_throttling_escalates_to_a_ban() {
        let config = DefenseConfig::enabled()
            .with_block_bucket(1, 0)
            .with_ban(9, 1_000);
        let mut defense = PeerDefense::new(config);
        assert_eq!(defense.admit_block(peer(1), 1, 0), AdmitVerdict::Admit);
        for _ in 0..3 {
            assert_eq!(defense.admit_block(peer(1), 1, 0), AdmitVerdict::Throttle);
        }
        // 3 × throttle_penalty(3) = 9 ≥ threshold: the next block is
        // dropped by the ban, not the bucket.
        assert_eq!(defense.admit_block(peer(1), 1, 0), AdmitVerdict::Ban);
    }
}
