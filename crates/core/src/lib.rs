//! Block DAG framework for embedding deterministic BFT protocols.
//!
//! This crate implements the core contribution of *"Embedding a
//! Deterministic BFT Protocol in a Block DAG"* (Schett & Danezis,
//! PODC 2021): a framework that lets servers run any deterministic
//! Byzantine fault tolerant protocol `P` on top of a jointly built block
//! DAG instead of a point-to-point network, preserving `P`'s interface,
//! safety, and liveness (the paper's Theorem 5.1).
//!
//! The components follow the paper's Figure 1:
//!
//! * [`block`] — blocks and their validity (Definitions 3.1 and 3.3);
//! * [`dag`] — the block DAG itself (Definitions 2.1 and 3.4);
//! * [`gossip`] — Algorithm 1: building and exchanging blocks;
//! * [`interpret`] — Algorithm 2: off-line interpretation of `P` over the
//!   DAG, materializing messages without sending them;
//! * [`shim`] — Algorithm 3: the user-facing choreography of the above;
//! * [`schedule`] — when each server seals (Algorithm 3, lines 10–11)
//!   and sends unanswered `FWD` requests again: the shim's one timer,
//!   which every driver only wakes;
//! * [`protocol`] — the black-box abstraction of a deterministic `P`.
//!
//! # Quickstart
//!
//! ```
//! use dagbft_core::{
//!     Label, ProtocolConfig, Shim, ShimConfig,
//!     protocol::{DeterministicProtocol, Outbox},
//! };
//! use dagbft_crypto::{KeyRegistry, ServerId};
//!
//! // A trivial deterministic protocol: indicate every received request.
//! // It has no state: indications leave through the outbox as they are
//! // raised, and the configuration reaches it there too.
//! #[derive(Clone, Debug)]
//! struct Echo;
//! impl DeterministicProtocol for Echo {
//!     type Request = u64;
//!     type Message = u64;
//!     type Indication = u64;
//!     fn new(_: &ProtocolConfig, _: Label, _: ServerId) -> Self {
//!         Echo
//!     }
//!     fn on_request(&mut self, req: u64, out: &mut Outbox<u64, u64>) {
//!         out.indicate(req);
//!     }
//!     fn on_message(&mut self, _from: ServerId, _msg: u64, _out: &mut Outbox<u64, u64>) {}
//! }
//!
//! let registry = KeyRegistry::generate(1, 7);
//! let config = ShimConfig::new(ProtocolConfig::for_n(1));
//! let mut shim: Shim<Echo> = Shim::new(ServerId::new(0), config, &registry).unwrap();
//! shim.request(Label::new(1), 42);
//! shim.disseminate(0); // a single server needs no network
//! assert_eq!(shim.poll_indications(), vec![(Label::new(1), 42)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accountability;
pub mod block;
pub mod dag;
pub mod defense;
pub mod digraph;
mod error;
pub mod gossip;
pub mod interpret;
mod label;
pub mod protocol;
pub mod reference;
pub mod schedule;
pub mod shim;
pub mod store;

pub use accountability::EquivocationProof;
pub use block::{Block, BlockRef, LabeledRequest, SeqNum};
pub use dag::BlockDag;
pub use defense::{
    AdmitVerdict, DefenseConfig, DefenseEvent, DefenseStats, Offense, PeerDefense,
    PeerScoreSnapshot,
};
pub use error::{DagError, InvalidBlockError};
pub use gossip::{
    EvictionEvent, Gossip, GossipConfig, GossipStats, NetCommand, NetMessage, RoundTrip,
    DEFAULT_PENDING_CAP,
};
pub use interpret::{
    Indication, InstanceAt, InterpretStats, Interpreter, InterpreterFootprint, SnapshotError,
    INTERPRETATION_RULE,
};
pub use label::Label;
pub use protocol::{DeterministicProtocol, Envelope, Outbox, ProtocolConfig, ServerSet};
pub use reference::{AdmissionView, ReferenceGossip, ReferenceInterpreter};
pub use schedule::Schedule;
pub use shim::{
    SealStats, SetupError, Shim, ShimConfig, HEARTBEAT_MS, INGEST_BURST_CAP, MAX_REQUESTS_PER_BLOCK,
};
pub use store::{BlockStore, MemoryStore, RecoverError, RecoveryReport, StoreContents, StoreError};

/// Simulation / wall-clock time in milliseconds.
///
/// The core is time-agnostic: callers (the simulator or a real event loop)
/// pass the current time into [`Gossip`] and [`Shim`] entry points, which
/// only use it to pace `FWD` retransmissions (Algorithm 1, lines 10–11).
pub type TimeMs = u64;
