//! Cross-seed determinism smoke test: the seeded discrete-event
//! scheduler's core promise is that a `(SimConfig, injections)` pair
//! fully determines the outcome. For several seeds, run the same
//! `theorem_5_1`-style BRB workload twice and assert the outcomes are
//! byte-identical — deliveries, wire metrics, crypto counters, the final
//! clock, and every block's canonical wire bytes all included.
//!
//! The same fingerprints are pinned across commits by
//! `tests/golden/cross_seed.txt`: a change that moves any of those bytes
//! — promotion order, block encoding, event ordering, RNG call order —
//! fails `golden_fingerprints_hold` and has to regenerate the file on
//! purpose (`DAGBFT_FP_OUT=tests/golden/cross_seed.txt cargo test --test
//! cross_seed_determinism fingerprint_digest_export`).

use dagbft::prelude::*;

/// Seeds of the pinned corpus.
const SEEDS: [u64; 5] = [0, 1, 7, 42, 1337];

/// Runs the standard lossy BRB workload (three broadcasts across
/// servers).
fn run_outcome(seed: u64) -> SimOutcome<Brb<u64>> {
    let n = 4;
    let values = [7u64, 1000 + seed, 13];
    let expected = values.len() * n;
    let config = SimConfig::new(n)
        .with_seed(seed)
        .with_max_time(120_000)
        .with_network(NetworkModel::default().with_drop_rate(0.05))
        .with_stop_after_deliveries(expected);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    for (i, value) in values.iter().enumerate() {
        sim.inject(Injection {
            at: 17 * i as u64,
            server: i % n,
            label: Label::new(i as u64),
            request: BrbRequest::Broadcast(*value),
        });
    }
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), expected, "seed {seed} delivered");
    outcome
}

/// Fingerprints everything observable about one run's outcome.
fn run_fingerprint(seed: u64) -> Vec<u8> {
    let outcome = run_outcome(seed);
    let mut fingerprint = Vec::new();
    for delivery in &outcome.deliveries {
        fingerprint.extend_from_slice(
            format!(
                "d:{}:{}:{}:{:?}\n",
                delivery.at, delivery.server, delivery.label, delivery.indication
            )
            .as_bytes(),
        );
    }
    fingerprint.extend_from_slice(
        format!(
            "net:{}:{}:{}:{}\n",
            outcome.net.messages_sent,
            outcome.net.blocks_sent,
            outcome.net.fwd_sent,
            outcome.net.bytes_sent
        )
        .as_bytes(),
    );
    fingerprint.extend_from_slice(
        format!(
            "crypto:{}:{} clock:{}\n",
            outcome.signatures, outcome.verifications, outcome.finished_at
        )
        .as_bytes(),
    );
    // The DAGs themselves must agree too — down to the canonical wire
    // bytes every block caches (which are what the network ever carries).
    for server in outcome.correct_servers() {
        if let Some(dag) = outcome.dag(server) {
            let mut refs: Vec<_> = dag.refs().copied().collect();
            refs.sort();
            fingerprint.extend_from_slice(format!("dag:{server}:{}\n", refs.len()).as_bytes());
            for r in refs {
                let block = dag.get(&r).expect("listed ref present");
                fingerprint.extend_from_slice(r.to_string().as_bytes());
                fingerprint.push(b':');
                fingerprint.extend_from_slice(
                    dagbft::crypto::sha256(block.wire_bytes())
                        .to_hex()
                        .as_bytes(),
                );
                fingerprint.push(b'\n');
            }
        }
    }
    fingerprint
}

#[test]
fn same_seed_twice_is_byte_identical() {
    for seed in SEEDS {
        let first = run_fingerprint(seed);
        let second = run_fingerprint(seed);
        assert_eq!(first, second, "seed {seed} not reproducible");
    }
}

#[test]
fn different_seeds_give_different_schedules() {
    // Not a protocol requirement, but if every seed produced identical
    // wire traffic the seeding would plainly be inert — guard the knob.
    let a = run_fingerprint(2);
    let b = run_fingerprint(3);
    assert_ne!(a, b, "seeds 2 and 3 produced identical outcomes");
}

/// The golden corpus: one `ed25519:seed:sha256(run_fingerprint)` line
/// per pinned run.
fn golden_corpus() -> String {
    let mut corpus = String::new();
    for seed in SEEDS {
        let digest = dagbft::crypto::sha256(run_fingerprint(seed)).to_hex();
        corpus.push_str(&format!("ed25519:{seed}:{digest}\n"));
    }
    corpus
}

#[test]
fn golden_fingerprints_hold() {
    // Byte identity across commits: deliveries, wire and crypto counters,
    // the final clock and every block's wire bytes of every pinned run
    // hash to what `tests/golden/cross_seed.txt` recorded.
    assert_eq!(
        golden_corpus(),
        include_str!("golden/cross_seed.txt"),
        "a fingerprint moved (lines are ed25519:seed:sha256)"
    );
}

/// Publishes the observables of a finished run into a fresh metrics
/// registry — server 0's gossip admission counters and interpreter
/// footprint, plus the global sign/verify totals — and returns the JSON
/// snapshot.
fn metrics_snapshot(seed: u64) -> String {
    use dagbft::metrics::{publish, MetricsRegistry};
    let outcome = run_outcome(seed);
    let shim = outcome.shim(0);
    let registry = MetricsRegistry::new();
    publish::publish_gossip(&registry, shim.gossip().stats());
    publish::publish_footprint(&registry, &shim.footprint());
    registry.set_counter("crypto_signs", outcome.signatures);
    registry.set_counter("crypto_verifies", outcome.verifications);
    registry.set_counter("deliveries", outcome.deliveries.len() as u64);
    registry.set_gauge("finished_at_ms", outcome.finished_at);
    registry.snapshot_json()
}

#[test]
fn metrics_snapshot_is_reproducible() {
    // The observability layer adds no nondeterminism of its own: for one
    // seed, the published snapshot is byte-identical run to run.
    for seed in [0, 42] {
        assert_eq!(
            metrics_snapshot(seed),
            metrics_snapshot(seed),
            "seed {seed}: same run, different snapshot bytes"
        );
    }
}

/// Regenerates the golden file: when `DAGBFT_FP_OUT` is set, the corpus
/// `golden_fingerprints_hold` asserts is written to that path.
#[test]
fn fingerprint_digest_export() {
    let Ok(path) = std::env::var("DAGBFT_FP_OUT") else {
        return;
    };
    std::fs::write(&path, golden_corpus()).expect("golden fingerprints written");
}
