//! The benchmark's contract: workloads, metric names, units, directions,
//! bounds, and which end-to-end metric each layer metric should move.
//! `BENCHMARK.json` at the repository root is rendered from this file
//! (`benchmark --print-benchmark-json`) and a test keeps the two equal.

use crate::json;

/// How long one run measures when `--seconds` is not given, and the
/// `run_seconds` recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "live_steady",
        why: "4 nodes over localhost TCP, open loop 100 req/s: the user-facing latency, set by seal timers, hops, journal sync and the node loop; interpreter and crypto changes must show nothing here",
    },
    Workload {
        name: "sim_payments",
        why: "seeded sim, n=4, 4000 transfers at 2000/s: wide label space and few blocks, so the interpreter is ~65% of the work (half of it the per-block label-map copy) and crypto ~5%",
    },
    Workload {
        name: "sim_trickle",
        why: "seeded sim, n=7, 60 transfers at 20/s: many mostly-empty blocks and few live labels, so per-block fixed cost (sign, verify, admit, insert) dominates; crypto is ~80%",
    },
    Workload {
        name: "sim_lossy",
        why: "seeded sim, n=4, 400 transfers at 20/s with 20% message drop, 8 drop schedules: out-of-order arrival, pending index and FWD retries; the fault-injected run",
    },
    Workload {
        name: "recover",
        why: "reopen server 0's journal of a sim_payments run and recover a shim from it: store read path, snapshot decode and suffix replay; time without service after a restart",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const LATENCY_P50_MS: &str = "latency_p50_ms";
pub const LATENCY_P90_MS: &str = "latency_p90_ms";
pub const TRANSFERS_PER_S: &str = "transfers_per_s";
pub const MSGS_PER_TRANSFER: &str = "msgs_per_transfer";
pub const BYTES_PER_TRANSFER: &str = "bytes_per_transfer";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Every workload reports every one of these; README.md says what each
/// means on each workload. None rewards sealing more blocks: blocks per
/// second is a layer metric (`sim.blocks_per_s`), because a seal that
/// emits fewer empty blocks must not read as a regression.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: LATENCY_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: LATENCY_P90_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: TRANSFERS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: MSGS_PER_TRANSFER,
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: BYTES_PER_TRANSFER,
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Whether two runs of the same code on the same seed must agree on
/// `metric` exactly: everything counted on the simulated clock or read
/// from the journal, as opposed to timed on the wall clock.
pub fn is_exact(metric: &str, workload: &str) -> bool {
    let counted = matches!(metric, MSGS_PER_TRANSFER | BYTES_PER_TRANSFER);
    let simulated_clock = matches!(metric, LATENCY_P50_MS | LATENCY_P90_MS);
    match workload {
        "live_steady" => false,
        "recover" => counted,
        _ => counted || simulated_clock,
    }
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`: the layer is the crate or module measured.
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this metric is expected to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const TRICKLE: &str = "transfers_per_s@sim_trickle";
const PAYMENTS: &str = "transfers_per_s@sim_payments";
const LOSSY: &str = "transfers_per_s, latency_p50_ms, msgs_per_transfer@sim_lossy";
const INTERPRET: &str =
    "transfers_per_s, peak_rss_mb@sim_payments; latency_p50_ms@recover; nothing@live_steady";
const RECOVER: &str = "latency_p50_ms@recover";
const LIVE: &str = "latency_p50_ms, latency_p90_ms@live_steady";
const CONTEXT: &str = "msgs_per_transfer@sim_payments (context)";
const NOTHING: &str = "nothing (endpoint off by default)";
const HARNESS: &str = "nothing (health of the benchmark itself)";

pub const PER_LAYER: [PerLayer; 52] = [
    layer("codec.decode_us_per_block", "us", Lower, PAYMENTS),
    layer("codec.decode_mb_per_s", "MB/s", Higher, PAYMENTS),
    layer("crypto.sign_us", "us", Lower, TRICKLE),
    layer("crypto.verify_single_us", "us", Lower, TRICKLE),
    layer("crypto.verify_batch_us_per_item", "us", Lower, TRICKLE),
    layer("crypto.ref_hash_mb_per_s", "MB/s", Higher, TRICKLE),
    layer("crypto.verifies_per_block", "count", Lower, TRICKLE),
    layer("crypto.batch_mean_width", "count", Higher, TRICKLE),
    layer("core.gossip.admit_us_per_block", "us", Lower, TRICKLE),
    layer("core.gossip.admit_ooo_us_per_block", "us", Lower, LOSSY),
    layer("core.gossip.self_us_per_block", "us", Lower, TRICKLE),
    layer("core.gossip.wave_mean_width", "count", Higher, TRICKLE),
    layer("core.gossip.pending_peak", "count", Lower, LOSSY),
    layer("core.gossip.fwd_per_transfer", "count", Lower, LOSSY),
    layer("core.gossip.duplicate_share", "ratio", Lower, LOSSY),
    layer("core.interpret.us_per_block", "us", Lower, INTERPRET),
    layer("core.interpret.us_per_transfer", "us", Lower, INTERPRET),
    layer("core.interpret.resident_slots", "count", Lower, INTERPRET),
    layer("core.interpret.unique_instances", "count", Lower, INTERPRET),
    layer("core.interpret.sharing_ratio", "ratio", Lower, INTERPRET),
    layer(
        "core.interpret.msgs_materialized_per_transfer",
        "count",
        Lower,
        INTERPRET,
    ),
    layer("core.interpret.snapshot_encode_ms", "ms", Lower, INTERPRET),
    layer("core.interpret.snapshot_decode_ms", "ms", Lower, RECOVER),
    layer("core.interpret.snapshot_bytes", "B", Lower, RECOVER),
    layer("core.shim.replayed_blocks", "count", Lower, RECOVER),
    layer(
        "core.shim.snapshot_covered_blocks",
        "count",
        Higher,
        RECOVER,
    ),
    layer("core.shim.requests_rebuffered", "count", Lower, RECOVER),
    layer("store.append_us_per_block", "us", Lower, LIVE),
    layer("store.sync_us", "us", Lower, LIVE),
    layer("store.open_ms", "ms", Lower, RECOVER),
    layer("store.journal_bytes_per_block", "B", Lower, RECOVER),
    layer("transport.frame_write_us", "us", Lower, LIVE),
    layer("transport.frame_read_us", "us", Lower, LIVE),
    layer("transport.loopback_hop_us", "us", Lower, LIVE),
    layer("transport.node.latency_p99_ms", "ms", Lower, LIVE),
    layer("transport.node.latency_max_ms", "ms", Lower, LIVE),
    layer("transport.node.indication_spread_p50_ms", "ms", Lower, LIVE),
    layer("transport.node.blocks_per_s", "1/s", Higher, LIVE),
    layer("transport.node.over_timer_floor_ms", "ms", Lower, LIVE),
    layer("sim.timer_floor_p50_ms", "ms", Lower, LIVE),
    layer("sim.unattributed_share", "ratio", Lower, PAYMENTS),
    layer("sim.blocks_per_s", "1/s", Higher, TRICKLE),
    layer("protocols.direct_us_per_transfer", "us", Lower, CONTEXT),
    layer("baseline.direct_msgs_per_transfer", "count", Lower, CONTEXT),
    layer("baseline.compression_ratio", "ratio", Higher, CONTEXT),
    layer("metrics.publish_us", "us", Lower, NOTHING),
    layer("metrics.snapshot_bytes", "B", Lower, NOTHING),
    layer("bench.generator_late_p99_ms", "ms", Lower, HARNESS),
    layer("bench.generator_late_max_ms", "ms", Lower, HARNESS),
    layer("bench.repeat_iqr_share", "ratio", Lower, HARNESS),
    layer("bench.trace_overhead_share", "ratio", Lower, HARNESS),
    layer("bench.reference_ms", "ms", Lower, HARNESS),
];

/// Where the package's own manifest lives, relative to the repository
/// root; the benchmark's only directory.
pub const PATH: &str = "crates/bench/src/bin/benchmark";

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str()),
                json::number(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json::quote(m.name),
                json::quote(m.unit),
                json::quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"{PATH}/Cargo.toml\", \"--\"],\n  \"paths\": [\"{PATH}\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
