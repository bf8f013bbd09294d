//! Live observability for dagbft nodes.
//!
//! Three pieces, all std-only (no new dependencies, matching the
//! vendored-shim policy):
//!
//! * [`MetricsRegistry`] — a lock-light registry of named atomic
//!   counters, gauges and fixed-bucket log₂ histograms. Registration
//!   (rare) takes a mutex; every update on an already-registered metric
//!   is a single relaxed atomic operation on an `Arc`'d cell, so
//!   publishing from hot paths costs nanoseconds and never blocks the
//!   event loop. [`MetricsRegistry::snapshot_json`] serializes the whole
//!   registry to one deterministic, versioned JSON object
//!   ([`SCHEMA_VERSION`]) — the shape `docs/METRICS.md` documents and
//!   is checked against.
//! * [`MetricsServer`] — a minimal JSON-over-HTTP/1.0 responder on a
//!   spawned thread: any `GET` returns the current snapshot. This is what
//!   `dagbft_transport::NodeConfig::metrics_addr` exposes from a running
//!   TCP node, and what the transport's `node_metrics` test scrapes
//!   mid-run.
//! * [`publish`] — adapters that mirror the counters the workspace
//!   already keeps (`GossipStats`, `InterpreterFootprint`,
//!   `CryptoMetrics`, `RecoveryReport`, per-peer transport traffic) into
//!   a registry under the documented field names.
//!
//! The registry deliberately *mirrors* existing counters instead of
//! instrumenting hot paths with new ones: every admission, verification
//! and interpretation counter in the workspace is already maintained
//! (and determinism-tested) where the work happens, so the live surface
//! is a periodic, lock-free copy — overhead is bounded by the publish
//! cadence, not by traffic (the benchmark reports one publish as
//! `metrics.publish_us`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
pub mod publish;
mod registry;

pub use http::{scrape, MetricsServer};
pub use registry::{Counter, Gauge, MetricsRegistry, SCHEMA_VERSION};
