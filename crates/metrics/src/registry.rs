//! The lock-light metrics registry and its JSON snapshot format.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Version of the snapshot JSON schema. Bump when the *shape* of
/// [`MetricsRegistry::snapshot_json`] changes (new or removed top-level
/// sections, a value's encoding, …) — adding or removing registered
/// fields is not a schema change, it is a field-set change gated by
/// `docs/METRICS.md`. Version 1 also had a `"histograms"` section, which
/// nothing published into.
pub const SCHEMA_VERSION: u64 = 2;

/// A monotonic counter handle: updates are single relaxed atomic
/// operations, safe to call from any thread.
///
/// [`Counter::set`] exists for the mirror-publish pattern: the workspace's
/// source counters (`GossipStats`, `CryptoMetrics`, …) are themselves
/// monotonic, and publishing copies their current totals.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the value (mirroring an external monotonic source).
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous gauge handle (resident instances, pending requests,
/// uptime, …). Same atomic cell as [`Counter`]; the distinction is
/// semantic and kept in the snapshot so readers know which fields may go
/// down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
}

/// The registry: named metrics, deterministic JSON snapshots.
///
/// Lock discipline: the mutex guards only the name→handle maps.
/// Registration (`counter`/`gauge`) locks briefly; returned
/// handles update lock-free, and the `set_*` conveniences re-use the
/// registered handle, so steady-state publishing takes the lock once per
/// metric per publish — a few nanoseconds of uncontended `Mutex` plus one
/// relaxed store. [`MetricsRegistry::snapshot_json`] locks for the
/// duration of one serialization pass.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

/// Metric names must be snake_case identifiers: they are embedded
/// unescaped as JSON keys and matched literally against the
/// `docs/METRICS.md` field table.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter `name`, registering it at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a snake_case identifier.
    pub fn counter(&self, name: &str) -> Counter {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut inner = self.inner.lock().expect("registry lock");
        inner.counters.entry(name.to_owned()).or_default().clone()
    }

    /// Returns the gauge `name`, registering it at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a snake_case identifier.
    pub fn gauge(&self, name: &str) -> Gauge {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut inner = self.inner.lock().expect("registry lock");
        inner.gauges.entry(name.to_owned()).or_default().clone()
    }

    /// Registers (if needed) and overwrites counter `name`.
    pub fn set_counter(&self, name: &str, value: u64) {
        self.counter(name).set(value);
    }

    /// Registers (if needed) and overwrites gauge `name`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauge(name).set(value);
    }

    /// Every registered metric name (counters and gauges),
    /// sorted — the exported field set `docs/METRICS.md` is verified
    /// against.
    pub fn field_names(&self) -> BTreeSet<String> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .counters
            .keys()
            .chain(inner.gauges.keys())
            .cloned()
            .collect()
    }

    /// Serializes the registry to one JSON object:
    ///
    /// ```json
    /// {"schema_version":2,
    ///  "counters":{"name":value,...},
    ///  "gauges":{"name":value,...}}
    /// ```
    ///
    /// Keys are sorted, values are decimal `u64`s — the output is a
    /// deterministic function of the registered names and their current
    /// values, so equal registries snapshot to identical bytes (relied on
    /// by the cross-engine determinism test).
    pub fn snapshot_json(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"schema_version\":{SCHEMA_VERSION},\"counters\":{{");
        for (index, (name, counter)) in inner.counters.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", counter.get());
        }
        out.push_str("},\"gauges\":{");
        for (index, (name, gauge)) in inner.gauges.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", gauge.get());
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("blocks");
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);
        // A second lookup returns the same cell.
        assert_eq!(registry.counter("blocks").get(), 5);
        registry.set_counter("blocks", 9);
        assert_eq!(counter.get(), 9);
        let gauge = registry.gauge("resident");
        gauge.set(17);
        assert_eq!(registry.gauge("resident").get(), 17);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let build = || {
            let registry = MetricsRegistry::new();
            registry.set_counter("zeta", 1);
            registry.set_counter("alpha", 2);
            registry.set_gauge("mid", 3);
            registry.snapshot_json()
        };
        let first = build();
        assert_eq!(first, build(), "equal registries must snapshot equal");
        let alpha = first.find("\"alpha\"").unwrap();
        let zeta = first.find("\"zeta\"").unwrap();
        assert!(alpha < zeta, "counter keys must be sorted");
        assert_eq!(
            first,
            format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\"counters\":{{\"alpha\":2,\"zeta\":1}},\
                 \"gauges\":{{\"mid\":3}}}}"
            )
        );
    }

    #[test]
    fn field_names_cover_all_sections() {
        let registry = MetricsRegistry::new();
        registry.counter("c");
        registry.gauge("g");
        let names: Vec<String> = registry.field_names().into_iter().collect();
        assert_eq!(names, ["c", "g"]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        MetricsRegistry::new().counter("not a name");
    }
}
