//! Discrete-event simulation substrate for the block DAG framework.
//!
//! The paper assumes only *reliable delivery* between correct servers
//! (Assumption 1) and evaluates nothing empirically; this crate supplies
//! the testbed the reproduction runs on:
//!
//! * [`sched`] — a deterministic discrete-event scheduler (seeded, so every
//!   run is exactly reproducible);
//! * [`net`] — latency and loss models; with loss, eventual delivery is
//!   re-established by gossip's `FWD` mechanism, keeping Assumption 1;
//! * [`adversary`] — server roles: crashes, and byzantine behaviours
//!   (silence, equivocation (Figure 3), selective sending, floods) as
//!   rewrites of what a correct shim sends;
//! * [`metrics`] — the measurement plane: wire messages and bytes,
//!   signature operations, delivery latencies;
//! * [`runner`] — [`runner::Simulation`]: `n` servers running
//!   `shim(P)` over the simulated network, plus the workload driving them.
//!
//! # Examples
//!
//! Run byzantine reliable broadcast over a 4-server block DAG:
//!
//! ```
//! use dagbft_core::Label;
//! use dagbft_protocols::{Brb, BrbRequest};
//! use dagbft_sim::{Injection, SimConfig, Simulation};
//!
//! let config = SimConfig::new(4).with_max_time(10_000);
//! let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
//! sim.inject(Injection {
//!     at: 0,
//!     server: 0,
//!     label: Label::new(1),
//!     request: BrbRequest::Broadcast(42),
//! });
//! let outcome = sim.run();
//! // All four servers deliver 42.
//! assert_eq!(outcome.deliveries.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod metrics;
pub mod net;
pub mod runner;
pub mod sched;

pub use adversary::Role;
pub use metrics::{Delivery, NetMetrics};
pub use net::{Latency, NetworkModel, Partition};
pub use runner::{Disagreement, Injection, SimConfig, SimOutcome, Simulation};
