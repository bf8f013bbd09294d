//! Mirror-publishers: copy the workspace's existing counters into a
//! [`MetricsRegistry`] under the documented field names.
//!
//! Every function overwrites absolute values (the sources are themselves
//! monotonic counters or instantaneous footprints), so publishing is
//! idempotent and safe on any cadence. `docs/METRICS.md` documents each
//! field emitted here; the unit test
//! `publishers_register_documented_fields` fails when the two drift.

use dagbft_core::{
    GossipStats, InterpreterFootprint, PeerDefense, RecoveryReport, TimeMs, WaveStats,
};
use dagbft_crypto::CryptoMetrics;

use crate::registry::MetricsRegistry;

/// Publishes [`GossipStats`] — the admission observables of Algorithm 1.
pub fn publish_gossip(registry: &MetricsRegistry, stats: &GossipStats) {
    registry.set_counter("gossip_blocks_received", stats.blocks_received);
    registry.set_counter("gossip_duplicate_blocks", stats.duplicate_blocks);
    registry.set_counter("gossip_invalid_blocks", stats.invalid_blocks);
    registry.set_counter("gossip_blocks_validated", stats.blocks_validated);
    registry.set_counter("gossip_blocks_built", stats.blocks_built);
    registry.set_counter("gossip_fwd_sent", stats.fwd_sent);
    registry.set_counter("gossip_fwd_received", stats.fwd_received);
    registry.set_counter("gossip_fwd_answered", stats.fwd_answered);
    registry.set_counter("gossip_blocks_evicted", stats.blocks_evicted);
    registry.set_gauge("gossip_pending_peak", stats.pending_peak as u64);
}

/// Publishes [`WaveStats`] — the verification-pipeline shape (waves,
/// bursts, and the wave-width log₂ histogram): properties of how
/// admission batches signature checks, not observables of Algorithm 1.
pub fn publish_waves(registry: &MetricsRegistry, stats: &WaveStats) {
    registry.set_counter("wave_count", stats.waves);
    registry.set_counter("wave_batched_blocks", stats.batched_blocks);
    registry.set_gauge("wave_largest", stats.largest_wave as u64);
    registry.set_gauge("wave_smallest", stats.smallest_wave as u64);
    registry.set_counter("wave_bursts", stats.bursts);
    registry.set_counter("wave_burst_blocks", stats.burst_blocks);
    registry.histogram("wave_width").store(
        &stats.width_histogram,
        stats.waves,
        stats.batched_blocks,
    );
}

/// Publishes an [`InterpreterFootprint`] — resident memory shape of the
/// interpreter (unique vs total instances is the saving over
/// clone-per-block).
pub fn publish_footprint(registry: &MetricsRegistry, footprint: &InterpreterFootprint) {
    registry.set_gauge("interp_blocks", footprint.blocks as u64);
    registry.set_gauge("interp_instances", footprint.instances as u64);
    registry.set_gauge("interp_unique_instances", footprint.unique_instances as u64);
    registry.set_gauge("interp_out_envelopes", footprint.out_envelopes as u64);
}

/// Publishes [`CryptoMetrics`] — sign/verify totals and the batched /
/// burst-amortized shares (the source counters are atomics shared by
/// every handle of one `KeyRegistry`, so these are live even while a
/// verification pool is running).
pub fn publish_crypto(registry: &MetricsRegistry, metrics: &CryptoMetrics) {
    registry.set_counter("crypto_signs", metrics.signs());
    registry.set_counter("crypto_verifies", metrics.verifies());
    registry.set_counter("crypto_batches", metrics.batches());
    registry.set_counter("crypto_batched_verifies", metrics.batched_verifies());
    registry.set_gauge("crypto_largest_batch", metrics.largest_batch());
    registry.set_counter("crypto_bursts", metrics.bursts());
    registry.set_counter("crypto_burst_verifies", metrics.burst_verifies());
    registry.set_gauge("crypto_largest_burst", metrics.largest_burst());
}

/// Publishes a [`RecoveryReport`] — what the durable store replayed when
/// this node last recovered (all zero for a fresh start).
pub fn publish_recovery(registry: &MetricsRegistry, report: &RecoveryReport) {
    registry.set_counter("recovery_journal_blocks", report.journal_blocks as u64);
    registry.set_counter("recovery_replayed_blocks", report.replayed_blocks as u64);
    registry.set_counter("recovery_snapshot_covered", report.snapshot_covered as u64);
    registry.set_counter(
        "recovery_requests_rebuffered",
        report.requests_rebuffered as u64,
    );
    registry.set_counter(
        "recovery_truncated_records",
        report.truncated_records as u64,
    );
}

/// Publishes store health: whether a durable store is attached, and
/// whether one was detached by a write failure (the shim's
/// fail-open-but-report policy — see `Shim::store_error`).
pub fn publish_store_health(registry: &MetricsRegistry, attached: bool, failed: bool) {
    registry.set_gauge("store_attached", attached as u64);
    registry.set_gauge("store_failed", failed as u64);
}

/// Publishes one peer's transport traffic under `peer<index>_*` names
/// (documented as `peer<i>_*` in `docs/METRICS.md`; the drift gate
/// normalizes the index).
pub fn publish_peer(
    registry: &MetricsRegistry,
    peer: usize,
    sent_msgs: u64,
    sent_bytes: u64,
    recv_msgs: u64,
    recv_bytes: u64,
) {
    registry.set_counter(&format!("peer{peer}_sent_msgs"), sent_msgs);
    registry.set_counter(&format!("peer{peer}_sent_bytes"), sent_bytes);
    registry.set_counter(&format!("peer{peer}_recv_msgs"), recv_msgs);
    registry.set_counter(&format!("peer{peer}_recv_bytes"), recv_bytes);
}

/// Publishes the defense layer's observables: aggregate counters
/// ([`dagbft_core::DefenseStats`] plus the audit-trail length) and, for
/// every peer the scoring engine has touched, a live score gauge with
/// throttle / ban counters (`peer<index>_*` names, normalized to
/// `peer<i>_*` by the drift gate like the transport-traffic fields).
/// Publishing nothing per-peer while the defense layer is disabled is
/// intentional — untouched peers have no row.
pub fn publish_defense(registry: &MetricsRegistry, defense: &PeerDefense, now: TimeMs) {
    let stats = defense.stats();
    registry.set_counter("defense_offenses", stats.offenses);
    registry.set_counter("defense_throttled_blocks", stats.throttled_blocks);
    registry.set_counter("defense_banned_blocks", stats.banned_blocks);
    registry.set_counter("defense_bans", stats.bans);
    registry.set_counter("defense_deprioritized", stats.deprioritized);
    registry.set_counter("defense_events", defense.events().len() as u64);
    for (peer, snapshot) in defense.snapshots(now) {
        let peer = peer.index();
        registry.set_gauge(&format!("peer{peer}_score"), snapshot.total);
        registry.set_counter(
            &format!("peer{peer}_throttled_blocks"),
            snapshot.throttled_blocks,
        );
        registry.set_counter(&format!("peer{peer}_banned_blocks"), snapshot.banned_blocks);
        registry.set_gauge(&format!("peer{peer}_banned"), snapshot.banned as u64);
    }
}

/// Publishes node-level liveness gauges: uptime, DAG size, and the
/// request backlog not yet sealed into a block.
pub fn publish_node(
    registry: &MetricsRegistry,
    uptime_ms: u64,
    dag_blocks: u64,
    pending_requests: u64,
) {
    registry.set_gauge("node_uptime_ms", uptime_ms);
    registry.set_gauge("node_dag_blocks", dag_blocks);
    registry.set_gauge("node_pending_requests", pending_requests);
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// Replaces a `peer<digits>_` prefix with the documented `peer<i>_`.
    fn normalize_field(field: &str) -> String {
        if let Some(rest) = field.strip_prefix("peer") {
            let digits = rest.chars().take_while(char::is_ascii_digit).count();
            if digits > 0 && rest[digits..].starts_with('_') {
                return format!("peer<i>{}", &rest[digits..]);
            }
        }
        field.to_owned()
    }

    /// No drift between the registry and `docs/METRICS.md`, in either
    /// direction: every field the workspace can publish is a back-ticked
    /// name in one of the document's tables, and every table row's
    /// first back-ticked name is a field some publisher registers — so
    /// neither an undocumented gauge nor a documented ghost survives.
    #[test]
    fn publishers_register_documented_fields() {
        let registry = MetricsRegistry::new();
        publish_gossip(&registry, &GossipStats::default());
        publish_waves(&registry, &WaveStats::default());
        publish_footprint(&registry, &InterpreterFootprint::default());
        publish_crypto(&registry, &CryptoMetrics::default());
        publish_recovery(&registry, &RecoveryReport::default());
        publish_store_health(&registry, false, false);
        publish_peer(&registry, 0, 0, 0, 0, 0);
        publish_node(&registry, 0, 0, 0);
        // The defense publisher only emits per-peer rows for touched
        // peers, so touch one to surface the `peer<i>_*` defense family.
        let mut defense = PeerDefense::new(dagbft_core::DefenseConfig::enabled());
        defense.note_offense(
            dagbft_crypto::ServerId::new(0),
            dagbft_core::Offense::DuplicateFlood,
            0,
        );
        publish_defense(&registry, &defense, 0);
        // Registered by the HTTP responder itself on its first request.
        registry.counter("metrics_http_requests");
        let published: BTreeSet<String> = registry
            .field_names()
            .iter()
            .map(|field| normalize_field(field))
            .collect();

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/METRICS.md");
        let doc = std::fs::read_to_string(path).expect("docs/METRICS.md");
        // Per table row: every back-ticked name, and the first of them
        // (the row's own field).
        let mut documented = BTreeSet::new();
        let mut row_fields = BTreeSet::new();
        for line in doc.lines().filter(|line| line.starts_with('|')) {
            let names: Vec<String> = line
                .split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_owned)
                .collect();
            row_fields.extend(names.first().cloned());
            documented.extend(names);
        }

        let undocumented: Vec<_> = published.difference(&documented).collect();
        assert!(
            undocumented.is_empty(),
            "published but missing from docs/METRICS.md: {undocumented:?}"
        );
        let stale: Vec<_> = row_fields.difference(&published).collect();
        assert!(
            stale.is_empty(),
            "documented in docs/METRICS.md but published by nothing: {stale:?}"
        );
    }

    #[test]
    fn wave_histogram_mirrors_source() {
        let registry = MetricsRegistry::new();
        let mut histogram_source = [0; dagbft_core::WAVE_WIDTH_BUCKETS];
        histogram_source[2] = 3;
        let stats = WaveStats {
            waves: 3,
            batched_blocks: 12,
            width_histogram: histogram_source,
            ..WaveStats::default()
        };
        publish_waves(&registry, &stats);
        let histogram = registry.histogram("wave_width");
        assert_eq!(histogram.count(), 3);
        assert_eq!(histogram.sum(), 12);
        assert_eq!(histogram.buckets()[2], 3);
    }

    #[test]
    fn publishing_is_idempotent_overwrite() {
        let registry = MetricsRegistry::new();
        let mut stats = GossipStats {
            blocks_received: 5,
            ..GossipStats::default()
        };
        publish_gossip(&registry, &stats);
        publish_gossip(&registry, &stats);
        assert_eq!(registry.counter("gossip_blocks_received").get(), 5);
        stats.blocks_received = 9;
        publish_gossip(&registry, &stats);
        assert_eq!(registry.counter("gossip_blocks_received").get(), 9);
    }
}
