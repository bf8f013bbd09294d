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
//! #[derive(Clone, Debug)]
//! struct Echo { pending: Vec<u64> }
//! impl DeterministicProtocol for Echo {
//!     type Request = u64;
//!     type Message = u64;
//!     type Indication = u64;
//!     fn new(_: &ProtocolConfig, _: Label, _: ServerId) -> Self {
//!         Echo { pending: Vec::new() }
//!     }
//!     fn on_request(&mut self, req: u64, _out: &mut Outbox<u64>) {
//!         self.pending.push(req);
//!     }
//!     fn on_message(&mut self, _from: ServerId, _msg: u64, _out: &mut Outbox<u64>) {}
//!     fn drain_indications(&mut self) -> Vec<u64> {
//!         std::mem::take(&mut self.pending)
//!     }
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
    EvictionEvent, Gossip, GossipConfig, GossipStats, NetCommand, NetMessage, WaveStats,
    DEFAULT_PENDING_CAP, WAVE_WIDTH_BUCKETS,
};
pub use interpret::{Indication, InterpretStats, Interpreter, InterpreterFootprint, SnapshotError};
pub use label::Label;
pub use protocol::{DeterministicProtocol, Envelope, Outbox, ProtocolConfig, SnapshotProtocol};
pub use reference::{AdmissionView, ReferenceGossip, ReferenceInterpreter};
pub use shim::{SetupError, Shim, ShimConfig};
pub use store::{BlockStore, MemoryStore, RecoverError, RecoveryReport, StoreContents, StoreError};

/// Simulation / wall-clock time in milliseconds.
///
/// The core is time-agnostic: callers (the simulator or a real event loop)
/// pass the current time into [`Gossip`] and [`Shim`] entry points, which
/// only use it to pace `FWD` retransmissions (Algorithm 1, lines 10–11).
pub type TimeMs = u64;
