//! # dagbft — Embedding a Deterministic BFT Protocol in a Block DAG
//!
//! A Rust reproduction of Schett & Danezis, PODC 2021
//! (arXiv:2102.09594): servers jointly build a **block DAG** — blocks
//! cryptographically referencing previously received blocks — and each
//! server *locally interprets* the DAG as the execution of any
//! deterministic BFT protocol `P`, preserving `P`'s interface, safety and
//! liveness (Theorem 5.1). Protocol messages are never sent: they are
//! recomputed from `P`'s determinism (message compression, §4), one block
//! signature covers arbitrarily many messages (signature batching), and
//! any number of protocol instances ride the same blocks in parallel.
//!
//! This crate is the facade over the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`dag`] | the framework: blocks, DAG, `gossip`, `interpret`, `shim` |
//! | [`protocols`] | deterministic `P`s: BRB, consistent broadcast, PBFT-lite SMR, payments |
//! | [`sim`] | discrete-event network, byzantine adversaries, metrics |
//! | [`store`] | durable block journal: checksummed records, crash recovery, snapshots |
//! | [`metrics`] | live observability: metrics registry, JSON snapshots, HTTP endpoint |
//! | [`baseline`] | the direct point-to-point comparator deployment |
//! | [`transport`] | real TCP transport (threads, framing) for live clusters |
//! | [`crypto`] | SHA-256, HMAC signatures, identities |
//! | [`codec`] | the deterministic wire format |
//!
//! # Quickstart
//!
//! Broadcast a value to four servers over a block DAG:
//!
//! ```
//! use dagbft::prelude::*;
//!
//! let config = SimConfig::new(4).with_stop_after_deliveries(4);
//! let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
//! sim.inject(Injection {
//!     at: 0,
//!     server: 0,
//!     label: Label::new(1),
//!     request: BrbRequest::Broadcast(42),
//! });
//! let outcome = sim.run();
//! assert_eq!(outcome.deliveries.len(), 4);
//! // Only blocks and FWDs ever crossed the wire:
//! assert_eq!(outcome.net.messages_sent,
//!            outcome.net.blocks_sent + outcome.net.fwd_sent);
//! ```
//!
//! See `examples/` for runnable scenarios (quickstart, the paper's
//! figures, payments, consensus) and `EXPERIMENTS.md` for the full
//! experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dagbft_baseline as baseline;
pub use dagbft_codec as codec;
pub use dagbft_core as dag;
pub use dagbft_crypto as crypto;
pub use dagbft_metrics as metrics;
pub use dagbft_protocols as protocols;
pub use dagbft_sim as sim;
pub use dagbft_store as store;
pub use dagbft_transport as transport;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use dagbft_baseline::{BaselineConfig, BaselineSimulation, DirectInjection};
    pub use dagbft_core::{
        AdmitVerdict, Block, BlockDag, BlockRef, BlockStore, DefenseConfig, DefenseEvent,
        DefenseStats, DeterministicProtocol, Envelope, Gossip, GossipConfig, GossipStats,
        Indication, InterpretStats, Interpreter, InterpreterFootprint, Label, LabeledRequest,
        MemoryStore, NetCommand, NetMessage, Offense, Outbox, PeerDefense, PeerScoreSnapshot,
        ProtocolConfig, RecoverError, RecoveryReport, ReferenceInterpreter, SeqNum, Shim,
        ShimConfig, SnapshotProtocol, StoreContents, StoreError, TimeMs,
    };
    pub use dagbft_crypto::{KeyRegistry, SchemeKind, ServerId};
    pub use dagbft_protocols::{
        AccountId, Bcb, BcbIndication, BcbMessage, BcbRequest, Brb, BrbIndication, BrbMessage,
        BrbRequest, Ledger, Smr, SmrIndication, SmrMessage, SmrRequest, Transfer,
    };
    pub use dagbft_sim::{
        Delivery, Injection, Latency, NetMetrics, NetworkModel, Partition, Role, SimConfig,
        SimOutcome, Simulation,
    };
    pub use dagbft_store::{FileStore, JournalStore, MemStore};
}
