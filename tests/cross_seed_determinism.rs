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

/// Seeds of the HMAC corpus.
const HMAC_SEEDS: [u64; 5] = [0, 1, 7, 42, 1337];
/// Seeds of the ed25519 corpus — a subset, real signatures are far
/// costlier than the HMAC stand-in.
const ED25519_SEEDS: [u64; 2] = [0, 42];

/// Runs the standard lossy BRB workload (three broadcasts across
/// servers) under the given signature scheme.
fn run_outcome(seed: u64, scheme: SchemeKind) -> SimOutcome<Brb<u64>> {
    let n = 4;
    let values = [7u64, 1000 + seed, 13];
    let expected = values.len() * n;
    let config = SimConfig::new(n)
        .with_seed(seed)
        .with_max_time(120_000)
        .with_network(NetworkModel::default().with_drop_rate(0.05))
        .with_scheme(scheme)
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
fn run_fingerprint_scheme(seed: u64, scheme: SchemeKind) -> Vec<u8> {
    let outcome = run_outcome(seed, scheme);
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

fn run_fingerprint(seed: u64) -> Vec<u8> {
    run_fingerprint_scheme(seed, SchemeKind::Hmac)
}

#[test]
fn same_seed_twice_is_byte_identical() {
    for seed in HMAC_SEEDS {
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

/// The golden corpus: one `scheme:seed:sha256(run_fingerprint)` line per
/// pinned run, HMAC seeds first.
fn golden_corpus() -> String {
    let runs = HMAC_SEEDS
        .iter()
        .map(|seed| ("hmac", SchemeKind::Hmac, *seed))
        .chain(
            ED25519_SEEDS
                .iter()
                .map(|seed| ("ed25519", SchemeKind::Ed25519, *seed)),
        );
    let mut corpus = String::new();
    for (name, scheme, seed) in runs {
        let digest = dagbft::crypto::sha256(run_fingerprint_scheme(seed, scheme)).to_hex();
        corpus.push_str(&format!("{name}:{seed}:{digest}\n"));
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
        "a fingerprint moved (lines are scheme:seed:sha256)"
    );
}

/// The fingerprint up to the per-block content hashes — the subset that
/// must be scheme-independent. `ref(B)` excludes `σ` (Definition 3.1)
/// and `Signature` has one wire size for every scheme, so swapping
/// schemes may only change the signature bytes inside blocks; the
/// schedule, deliveries, wire metrics, and crypto counters must not move.
fn schedule_prefix(fingerprint: &[u8]) -> &[u8] {
    let text = std::str::from_utf8(fingerprint).expect("fingerprint is utf8");
    match text.find("dag:") {
        Some(at) => &fingerprint[..at],
        None => fingerprint,
    }
}

#[test]
fn ed25519_engines_byte_identical_and_schedule_matches_hmac() {
    // The whole schedule under real ed25519 is identical to the HMAC
    // run — only the signature bytes inside the blocks (hence the
    // block-content hashes) differ.
    for seed in ED25519_SEEDS {
        let ed25519 = run_fingerprint_scheme(seed, SchemeKind::Ed25519);
        let hmac = run_fingerprint(seed);
        assert_eq!(
            schedule_prefix(&ed25519),
            schedule_prefix(&hmac),
            "seed {seed}: swapping the signature scheme moved the schedule"
        );
        assert_ne!(
            ed25519, hmac,
            "seed {seed}: schemes produced identical block bytes"
        );
    }
}

/// Publishes the scheme-*independent* observables of a finished run into
/// a fresh metrics registry — server 0's gossip admission counters and
/// interpreter footprint, plus the global sign/verify totals — and
/// returns the JSON snapshot.
fn metrics_snapshot(seed: u64, scheme: SchemeKind) -> String {
    use dagbft::metrics::{publish, MetricsRegistry};
    let outcome = run_outcome(seed, scheme);
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
fn metrics_snapshot_is_mode_and_scheme_independent() {
    // The observability layer must not leak the signature scheme: for one
    // seed, the published snapshot is byte-identical run to run and
    // across HMAC vs real ed25519 — so operators can compare metrics
    // between heterogeneous deployments.
    for seed in ED25519_SEEDS {
        let base = metrics_snapshot(seed, SchemeKind::Hmac);
        assert_eq!(
            base,
            metrics_snapshot(seed, SchemeKind::Hmac),
            "seed {seed}: same run, different snapshot bytes"
        );
        assert_eq!(
            base,
            metrics_snapshot(seed, SchemeKind::Ed25519),
            "seed {seed}: the signature scheme leaked into the snapshot"
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
