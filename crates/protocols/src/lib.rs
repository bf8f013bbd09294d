//! Deterministic BFT protocols `P` for the block DAG framework.
//!
//! The embedding of Schett & Danezis is parametric in a *deterministic* BFT
//! protocol `P` (any implementation of
//! [`dagbft_core::DeterministicProtocol`]). This crate provides the
//! protocols used throughout the reproduction:
//!
//! * [`brb`] — **Byzantine Reliable Broadcast**, the paper's running
//!   example (§5, Algorithm 4: authenticated double-echo broadcast after
//!   Cachin–Guerraoui–Rodrigues, Module 3.12);
//! * [`bcb`] — **Byzantine Consistent Broadcast** (authenticated echo
//!   broadcast, CGR Module 3.10): a second, cheaper `P` demonstrating the
//!   framework's generality;
//! * [`smr`] — **PBFT-lite state machine replication**: a deterministic
//!   three-phase commit with one leader per instance label, the
//!   "Blockmania encodes a simplified PBFT" use case (§6);
//! * [`payments`] / [`settlement`] — a FastPay-style settlement layer
//!   *using* BRB instances, the application domain the paper's
//!   introduction motivates [2, 13];
//! * [`beacon`] — the §7 de-randomization recipe as a protocol: coin flips
//!   drawn outside `P` travel inside blocks;
//! * [`fifo`] — FIFO-ordered reliable broadcast: a *composite* protocol
//!   (per-sender streams of double-echo sub-instances) embedding
//!   unchanged.
//!
//! All protocols are pure state machines: no clocks, no randomness, ordered
//! internal collections — see the determinism contract on
//! [`dagbft_core::DeterministicProtocol`]. They count quorums with
//! [`Tally`], the sender-per-value collection whose copy costs no heap
//! block in an honest run (the interpreter copies an instance every time
//! a block first touches it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bcb;
pub mod beacon;
pub mod brb;
pub mod fifo;
pub mod payments;
pub mod settlement;
pub mod smr;
mod tally;
mod value;
mod wire_msgs;

pub use bcb::{Bcb, BcbIndication, BcbMessage, BcbRequest};
pub use beacon::{Beacon, BeaconOutput, BeaconRequest};
pub use brb::{Brb, BrbIndication, BrbMessage, BrbRequest};
pub use fifo::{Fifo, FifoDeliver, FifoMessage, FifoRequest};
pub use payments::{AccountId, Ledger, Transfer, TransferError};
pub use settlement::SettlementNode;
pub use smr::{Smr, SmrIndication, SmrMessage, SmrRequest};
pub use tally::Tally;
pub use value::Value;
