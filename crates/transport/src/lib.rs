//! Real TCP transport for `dagbft` servers.
//!
//! The core framework is transport-agnostic — `gossip` consumes
//! [`dagbft_core::NetMessage`]s and emits [`dagbft_core::NetCommand`]s.
//! The simulator drives it deterministically; this crate drives it over
//! actual TCP sockets with OS threads, demonstrating that the same
//! unmodified `shim(P)` runs on a real network:
//!
//! * [`frame`] — length-prefixed message framing with a hello handshake;
//! * [`TcpTransport`] — per-peer outbound queues with lazy
//!   connect/reconnect, an accept loop, and a single fan-in channel of
//!   incoming `(sender, message)` pairs. Frames lost across a reconnect
//!   are *not* retransmitted by the transport — gossip's `FWD` mechanism
//!   recovers missing blocks, exactly as under the lossy simulator;
//! * [`NodeHandle`] / [`spawn_node`] — an event-loop thread around a
//!   [`dagbft_core::Shim`], with channels for user requests and
//!   indications;
//! * [`spawn_node_with_store`] — the same loop over a durable
//!   [`dagbft_core::BlockStore`]: the shim recovers from the journal on
//!   start and journals every admitted block from then on;
//! * [`spawn_local_cluster`] — `n` nodes on localhost, for tests, examples
//!   and demos.
//!
//! With [`NodeConfig::metrics_addr`] set, every spawned node also serves
//! a live JSON metrics snapshot over HTTP (see [`dagbft_metrics`]): the
//! event loop mirrors gossip/seal/interpreter/crypto/store counters and
//! the transport's per-peer traffic into a [`dagbft_metrics::MetricsRegistry`]
//! after each wake of the shim that ran a timer.
//!
//! # Examples
//!
//! See `examples/tcp_cluster.rs` in the workspace root and this crate's
//! integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod node;
mod tcp;

pub use node::{spawn_local_cluster, spawn_node, spawn_node_with_store, NodeConfig, NodeHandle};
pub use tcp::{PeerTrafficSnapshot, TcpTransport};
