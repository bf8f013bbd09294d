//! Signature-scheme experiment: amortized ed25519 batch verification,
//! counted in curve operations.
//!
//! For each wave width the bin signs one `ref(B)`-style digest per
//! server and verifies the wave twice: serially (one cofactored
//! verification equation per item — what per-message admission pays) and
//! as one `BatchVerifier` pass (a single random-linear-combination
//! multi-scalar multiplication over the whole wave — what burst
//! admission pays). The cost unit is *elliptic-curve group operations*
//! (point doublings + additions, `dagbft_crypto::curve::ops_snapshot`),
//! not wall-clock: the Straus/Pippenger sharing that makes batching win
//! is a property of the algorithm, so the `--check` floors — batched
//! verification ≥1.5× cheaper per item than serial at wave width ≥32,
//! and a serial verification within 350 group operations (the one-pass
//! signed-window double-base multiplication takes ~337; the generic MSM
//! over the same two points, building the basepoint's table per call,
//! takes ~360) — hold on any machine, including single-core CI runners.
//!
//! Wall-clock for both paths is reported alongside for context, and the
//! active MSM engine (`straus` below the Pippenger point threshold,
//! `pippenger` above) is recorded per row.
//!
//! The final stdout line is a machine-readable JSON object
//! (`BENCH_sig.json` is a checked-in snapshot). `--check` re-runs the
//! experiment, enforces the op-count floor, re-asserts batch ⟺ serial
//! verdict identity, and diffs the JSON schema against the snapshot.
//!
//! Run with: `cargo run --release -p dagbft-bench --bin report_sig`

use std::time::Instant;

use dagbft_bench::{check_snapshot_schema, cores, f2};
use dagbft_crypto::curve::msm::msm_engine;
use dagbft_crypto::curve::ops_snapshot;
use dagbft_crypto::{sha256, KeyRegistry, ServerId, Signature, SignedDigest};

const SEED: u64 = 13;
/// Wave widths: around break-even, typical rounds, and past the
/// Pippenger threshold (the batch MSM sees `2·width + 1` points).
const WIDTHS: [usize; 4] = [8, 32, 128, 256];
/// Repetitions of each timed pass (best-of; op counts are identical
/// across repetitions by construction).
const ROUNDS: usize = 3;
/// Ceiling on group operations per serial verification: the double-base
/// pass (~253 doublings, 8 + ~43 + ~29 additions, R and the cofactor)
/// fits, a fall-back to the generic MSM does not.
const SERIAL_OPS_CEILING: f64 = 350.0;

struct Row {
    width: usize,
    engine: &'static str,
    serial_ops_per_item: f64,
    batch_ops_per_item: f64,
    serial_seconds: f64,
    batch_seconds: f64,
}

impl Row {
    fn ops_ratio(&self) -> f64 {
        self.serial_ops_per_item / self.batch_ops_per_item
    }

    fn json(&self) -> String {
        format!(
            "{{\"width\":{},\"engine\":\"{}\",\"serial_ops_per_item\":{:.1},\
             \"batch_ops_per_item\":{:.1},\"ops_ratio\":{:.2},\
             \"serial_seconds\":{:.6},\"batch_seconds\":{:.6}}}",
            self.width,
            self.engine,
            self.serial_ops_per_item,
            self.batch_ops_per_item,
            self.ops_ratio(),
            self.serial_seconds,
            self.batch_seconds,
        )
    }
}

/// One honest signed digest per server: the shape of a full admission
/// wave (`width` distinct builders, one block each).
fn wave(registry: &KeyRegistry, width: usize) -> Vec<SignedDigest> {
    (0..width)
        .map(|i| {
            let id = ServerId::new(i as u32);
            let digest = sha256((i as u64).to_le_bytes());
            SignedDigest {
                claimed: id,
                digest,
                signature: registry.signer(id).unwrap().sign(digest.as_bytes()),
            }
        })
        .collect()
}

fn measure(width: usize) -> Row {
    let registry = KeyRegistry::generate_ed25519(width, SEED);
    let items = wave(&registry, width);
    let verifier = registry.verifier();
    let batch_verifier = registry.batch_verifier();

    let serial = |items: &[SignedDigest]| -> Vec<bool> {
        items
            .iter()
            .map(|item| verifier.verify(item.claimed, item.digest.as_bytes(), &item.signature))
            .collect()
    };

    // Warm-up: builds the lazy basepoint table and faults in every code
    // path, so the measured op counts cover only the verification work.
    let warm_serial = serial(&items);
    let warm_batch = batch_verifier.verify_batch(&items);
    assert!(warm_serial.iter().all(|ok| *ok), "honest wave must verify");
    assert_eq!(warm_serial, warm_batch, "batch and serial verdicts");

    let mut serial_seconds = f64::INFINITY;
    let mut serial_ops = 0u64;
    for _ in 0..ROUNDS {
        let before = ops_snapshot();
        let start = Instant::now();
        let verdicts = serial(&items);
        serial_seconds = serial_seconds.min(start.elapsed().as_secs_f64());
        serial_ops = (ops_snapshot() - before).total();
        assert!(verdicts.iter().all(|ok| *ok));
    }

    let mut batch_seconds = f64::INFINITY;
    let mut batch_ops = 0u64;
    for _ in 0..ROUNDS {
        let before = ops_snapshot();
        let start = Instant::now();
        let verdicts = batch_verifier.verify_batch(&items);
        batch_seconds = batch_seconds.min(start.elapsed().as_secs_f64());
        batch_ops = (ops_snapshot() - before).total();
        assert!(verdicts.iter().all(|ok| *ok));
    }

    // One forged item must not change any honest verdict (the binary
    // split finds it) — asserted here so the committed trajectory always
    // comes from a bin that also exercised the fallback.
    let mut tampered = items.clone();
    tampered[width / 2].signature = Signature::NULL;
    let verdicts = batch_verifier.verify_batch(&tampered);
    for (i, ok) in verdicts.iter().enumerate() {
        assert_eq!(*ok, i != width / 2, "binary split must isolate item {i}");
    }

    Row {
        width,
        engine: msm_engine(2 * width + 1),
        serial_ops_per_item: serial_ops as f64 / width as f64,
        batch_ops_per_item: batch_ops as f64 / width as f64,
        serial_seconds,
        batch_seconds,
    }
}

fn run() -> (Vec<Row>, String) {
    let rows: Vec<Row> = WIDTHS.into_iter().map(measure).collect();
    let json = format!(
        "{{\"experiment\":\"sig_batch\",\"scheme\":\"ed25519\",\"seed\":{},\"cores\":{},\
         \"rows\":[{}]}}",
        SEED,
        cores(),
        rows.iter().map(Row::json).collect::<Vec<_>>().join(","),
    );
    (rows, json)
}

fn check(rows: &[Row], json: &str) -> Result<(), String> {
    for row in rows {
        if row.serial_ops_per_item <= 0.0 || row.batch_ops_per_item <= 0.0 {
            return Err(format!("width {}: zero op counts", row.width));
        }
        if row.serial_seconds <= 0.0 || row.batch_seconds <= 0.0 {
            return Err(format!("width {}: zero wall-clock", row.width));
        }
        if row.serial_ops_per_item > SERIAL_OPS_CEILING {
            return Err(format!(
                "width {}: serial verification takes {:.1} group ops per item (ceiling {})",
                row.width, row.serial_ops_per_item, SERIAL_OPS_CEILING
            ));
        }
        // The machine-independent floor: one wave-wide MSM must amortize
        // to ≥1.5× fewer group operations per item than one equation per
        // item, at every wave width the burst pipeline actually batches.
        if row.width >= 32 && row.ops_ratio() < 1.5 {
            return Err(format!(
                "width {}: batch only {:.2}x serial in group ops (floor 1.5x)",
                row.width,
                row.ops_ratio()
            ));
        }
    }
    if !rows.iter().any(|row| row.engine == "straus") {
        return Err("no Straus row — width sweep lost its small-wave coverage".into());
    }
    if !rows.iter().any(|row| row.engine == "pippenger") {
        return Err("no Pippenger row — width sweep no longer crosses the threshold".into());
    }
    check_snapshot_schema("BENCH_sig.json", json)
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");

    println!("# Signature batch verification — ed25519, costs in curve group ops (seed {SEED})\n");
    let (rows, json) = run();

    println!(
        "| {:>5} | {:>9} | {:>12} | {:>12} | {:>9} | {:>9} | {:>9} |",
        "width", "engine", "serial ops/i", "batch ops/i", "ops ratio", "serial ms", "batch ms"
    );
    println!("|{}|", "-".repeat(85));
    for row in &rows {
        println!(
            "| {:>5} | {:>9} | {:>12} | {:>12} | {:>8}x | {:>9} | {:>9} |",
            row.width,
            row.engine,
            f2(row.serial_ops_per_item),
            f2(row.batch_ops_per_item),
            f2(row.ops_ratio()),
            f2(row.serial_seconds * 1000.0),
            f2(row.batch_seconds * 1000.0),
        );
    }

    println!(
        "\nReading: serial verification pays a fresh doubling chain per item\n\
         (one signed-window pass over both of its points); the batch path\n\
         folds the whole wave into one multi-scalar multiplication whose\n\
         doubling chain is shared across all points\n\
         (Straus) or amortized into buckets (Pippenger past {} points), so\n\
         group ops per item fall as the wave widens — the paper's §4 batch\n\
         economics in the unit that survives any CPU.\n",
        dagbft_crypto::curve::msm::PIPPENGER_THRESHOLD_POINTS
    );

    // Machine-readable trajectory line (snapshot: BENCH_sig.json).
    println!("{json}");

    if check_mode {
        match check(&rows, &json) {
            Ok(()) => println!("CHECK OK"),
            Err(reason) => {
                eprintln!("CHECK FAILED: {reason}");
                std::process::exit(1);
            }
        }
    }
}
