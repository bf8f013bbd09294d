//! The per-layer stage replay of a traced run.
//!
//! The run's artefacts — server 0's final DAG and its blocks' wire bytes
//! — are pushed through one layer at a time, each pass inside a span of
//! its own. The numbers say what each layer costs on exactly the blocks
//! this workload produced; a layer's self time is its span minus the
//! separately replayed child (gossip admission minus signature checks).

use std::path::Path;

use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

use crate::adapter::{self, Admitter, Block, Crypto, Journal, Loopback, SignedDigest};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Artefact, Metrics};

/// Most fsyncs one replay waits for (each seal syncs before it
/// broadcasts; a trickle DAG holds a thousand seals of server 0 alone).
const MAX_SYNCS: usize = 100;
const SIGN_SAMPLES: usize = 200;
const LOOPBACK_ROUND_TRIPS: usize = 200;
const PUBLISH_SWEEPS: usize = 50;

const MICROS: f64 = 1e6;

fn per_item_us(seconds: f64, items: usize) -> f64 {
    seconds * MICROS / items.max(1) as f64
}

/// Replays `artefact` through every layer. `scratch` holds the journal
/// the store pass writes.
pub fn replay(
    artefact: &Artefact,
    seed: u64,
    scratch: &Path,
    tracer: &mut Tracer,
    run: SpanId,
) -> Result<Metrics, String> {
    let blocks = &artefact.blocks;
    let n = artefact.servers;
    let count = blocks.len();
    if count == 0 {
        return Err("the run left no blocks to replay".to_owned());
    }
    let transfers = artefact.requests.len().max(1);
    let registry = adapter::key_registry(n, artefact.key_seed);
    let mut metrics = Metrics::new();

    // codec: strict decode of every block message.
    let images: Vec<Vec<u8>> = blocks.iter().map(adapter::message_bytes).collect();
    let image_bytes: usize = images.iter().map(Vec::len).sum();
    let (decoded, _, decode_s) = tracer.time("codec.decode", run, count as u64, || {
        images
            .iter()
            .filter(|image| adapter::decode_message(image))
            .count()
    });
    expect_all("codec.decode", decoded, count)?;
    metrics.insert("codec.decode_us_per_block", per_item_us(decode_s, count));
    metrics.insert("codec.decode_mb_per_s", image_bytes as f64 / 1e6 / decode_s);

    // crypto: sign, verify one by one, verify in batches of n − 1 (what
    // one round of peers' blocks makes), hash.
    let crypto = Crypto::new(&registry);
    let digests: Vec<SignedDigest> = blocks.iter().map(adapter::signed_digest).collect();
    let (_, _, sign_s) = tracer.time("crypto.sign", run, SIGN_SAMPLES as u64, || {
        for digest in digests.iter().cycle().take(SIGN_SAMPLES) {
            std::hint::black_box(crypto.sign(digest.digest.as_bytes()));
        }
    });
    metrics.insert("crypto.sign_us", per_item_us(sign_s, SIGN_SAMPLES));
    let (verified, _, verify_s) = tracer.time("crypto.verify_single", run, count as u64, || {
        digests
            .iter()
            .filter(|item| crypto.verify_single(item))
            .count()
    });
    expect_all("crypto.verify_single", verified, count)?;
    metrics.insert("crypto.verify_single_us", per_item_us(verify_s, count));
    let width = n.saturating_sub(1).max(1);
    let (verified, _, batch_s) = tracer.time("crypto.verify_batch", run, count as u64, || {
        digests
            .chunks(width)
            .map(|batch| crypto.verify_batch(batch))
            .sum::<usize>()
    });
    expect_all("crypto.verify_batch", verified, count)?;
    metrics.insert(
        "crypto.verify_batch_us_per_item",
        per_item_us(batch_s, count),
    );
    let (_, _, hash_s) = tracer.time("crypto.ref_hash", run, count as u64, || {
        for image in &images {
            std::hint::black_box(adapter::ref_hash(image));
        }
    });
    metrics.insert(
        "crypto.ref_hash_mb_per_s",
        image_bytes as f64 / 1e6 / hash_s,
    );

    // core.gossip: admission in causal order, then in a seeded shuffle
    // (every block waits in the pending index for its predecessors).
    let mut in_order = Admitter::new(&registry, n);
    let (_, admit_span, admit_s) = tracer.time("core.gossip.admit", run, count as u64, || {
        for (now, block) in blocks.iter().enumerate() {
            in_order.admit(block, now as u64);
        }
    });
    expect_all("core.gossip.admit", in_order.admitted(), count)?;
    // The child of admission, replayed at the width admission used: each
    // burst of one verifies a batch of one.
    let (_, _, child_s) = tracer.time("crypto.verify_batch", admit_span, count as u64, || {
        digests
            .chunks(1)
            .map(|batch| crypto.verify_batch(batch))
            .sum::<usize>()
    });
    metrics.insert(
        "core.gossip.admit_us_per_block",
        per_item_us(admit_s, count),
    );
    metrics.insert(
        "core.gossip.self_us_per_block",
        per_item_us((admit_s - child_s).max(0.0), count),
    );
    let mut shuffled: Vec<&Block> = blocks.iter().collect();
    shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut out_of_order = Admitter::new(&registry, n);
    let (_, _, ooo_s) = tracer.time("core.gossip.admit_ooo", run, count as u64, || {
        for (now, block) in shuffled.iter().enumerate() {
            out_of_order.admit(block, now as u64);
        }
    });
    expect_all("core.gossip.admit_ooo", out_of_order.admitted(), count)?;
    metrics.insert(
        "core.gossip.admit_ooo_us_per_block",
        per_item_us(ooo_s, count),
    );

    // core.interpret: a fresh interpreter to the fixed point, its
    // footprint, and a snapshot of it out and back in.
    let dag = adapter::Dag::of(blocks)?;
    let mut interpreter = adapter::Replay::new(n);
    let (interpreted, _, interpret_s) =
        tracer.time("core.interpret.step", run, count as u64, || {
            interpreter.run(&dag)
        });
    expect_all("core.interpret.step", interpreted, count)?;
    interpreter.indications_of(0);
    let footprint = interpreter.footprint();
    metrics.insert(
        "core.interpret.us_per_block",
        per_item_us(interpret_s, count),
    );
    metrics.insert(
        "core.interpret.us_per_transfer",
        per_item_us(interpret_s, transfers),
    );
    metrics.insert(
        "core.interpret.resident_slots",
        footprint.resident_slots as f64,
    );
    metrics.insert(
        "core.interpret.unique_instances",
        footprint.unique_instances as f64,
    );
    metrics.insert("core.interpret.sharing_ratio", footprint.sharing_ratio);
    metrics.insert(
        "core.interpret.msgs_materialized_per_transfer",
        footprint.messages_materialized as f64 / transfers as f64,
    );
    let (snapshot, _, encode_s) =
        tracer.time("core.interpret.snapshot_encode", run, count as u64, || {
            interpreter.encode_snapshot()
        });
    let (covered, _, decode_s) =
        tracer.time("core.interpret.snapshot_decode", run, count as u64, || {
            adapter::Replay::decode_snapshot(n, &snapshot)
        });
    expect_all("core.interpret.snapshot_decode", covered?, count)?;
    metrics.insert("core.interpret.snapshot_encode_ms", encode_s * 1e3);
    metrics.insert("core.interpret.snapshot_decode_ms", decode_s * 1e3);
    metrics.insert("core.interpret.snapshot_bytes", snapshot.len() as f64);
    drop(snapshot);

    // metrics: one full publisher sweep plus the snapshot render.
    let mut snapshot_bytes = 0;
    let (_, _, publish_s) = tracer.time("metrics.publish", run, PUBLISH_SWEEPS as u64, || {
        for _ in 0..PUBLISH_SWEEPS {
            snapshot_bytes = in_order.publish_metrics(&registry, &interpreter, n);
        }
    });
    metrics.insert("metrics.publish_us", per_item_us(publish_s, PUBLISH_SWEEPS));
    metrics.insert("metrics.snapshot_bytes", snapshot_bytes as f64);
    drop(interpreter);

    // store and core.shim: journal the DAG as server 0 would have, then
    // reopen the directory and recover from it.
    let dir = scratch.join("replay-journal");
    let mut journal = Journal::open(&dir)?;
    let mut append_s = 0.0;
    let mut sync_us = Vec::new();
    for block in blocks {
        let (appended, _, seconds) = tracer.time("store.append", run, 1, || journal.append(block));
        appended?;
        append_s += seconds;
        if adapter::block_builder(block) == 0 && sync_us.len() < MAX_SYNCS {
            let own_seq = adapter::block_seq(block);
            let (synced, _, seconds) =
                tracer.time("store.sync", run, 1, || journal.sync_and_mark(own_seq));
            synced?;
            sync_us.push(seconds * MICROS);
        }
    }
    drop(journal);
    metrics.insert("store.append_us_per_block", per_item_us(append_s, count));
    metrics.insert("store.sync_us", stats::median(&sync_us));
    metrics.insert(
        "store.journal_bytes_per_block",
        adapter::journal_bytes(&dir) as f64 / count as f64,
    );
    let (journal, open_span, open_s) =
        tracer.time("store.open", run, count as u64, || Journal::open(&dir));
    let (recovered, _, _) = tracer.time("core.shim.recover", open_span, count as u64, || {
        journal?.recover(&registry, n)
    });
    let recovered = recovered?.into_summary();
    expect_all("core.shim.recover", recovered.ids.len(), count)?;
    metrics.insert("store.open_ms", open_s * 1e3);
    metrics.insert(
        "core.shim.replayed_blocks",
        recovered.replayed_blocks as f64,
    );
    metrics.insert(
        "core.shim.snapshot_covered_blocks",
        recovered.snapshot_covered as f64,
    );
    metrics.insert(
        "core.shim.requests_rebuffered",
        recovered.requests_rebuffered as f64,
    );

    // transport: framing through memory, then a real localhost hop.
    let mut wire = Vec::new();
    let (_, _, write_s) = tracer.time("transport.frame_write", run, count as u64, || {
        for block in blocks {
            wire.clear();
            adapter::frame_write(&mut wire, block);
        }
    });
    metrics.insert("transport.frame_write_us", per_item_us(write_s, count));
    let frames: Vec<Vec<u8>> = blocks.iter().map(adapter::frame_of).collect();
    let mut reader = adapter::FrameReader::new();
    let (read, _, read_s) = tracer.time("transport.frame_read", run, count as u64, || {
        frames.iter().filter(|frame| reader.read(frame)).count()
    });
    expect_all("transport.frame_read", read, count)?;
    metrics.insert("transport.frame_read_us", per_item_us(read_s, count));
    let largest = blocks
        .iter()
        .zip(&images)
        .max_by_key(|(_, image)| image.len())
        .map(|(block, _)| block)
        .expect("count > 0");
    let loopback = Loopback::open(largest)?;
    let mut hops_us = Vec::with_capacity(LOOPBACK_ROUND_TRIPS);
    tracer.time(
        "transport.loopback",
        run,
        LOOPBACK_ROUND_TRIPS as u64,
        || {
            for _ in 0..LOOPBACK_ROUND_TRIPS {
                if let Some(round_trip) = loopback.round_trip() {
                    hops_us.push(round_trip.as_secs_f64() * MICROS / 2.0);
                }
            }
        },
    );
    loopback.close();
    if hops_us.len() < LOOPBACK_ROUND_TRIPS / 2 {
        return Err(format!(
            "transport.loopback: only {} of {LOOPBACK_ROUND_TRIPS} round trips came back",
            hops_us.len()
        ));
    }
    metrics.insert("transport.loopback_hop_us", stats::median(&hops_us));

    // baseline / protocols: the same requests as direct signed messages.
    let plan = adapter::SimPlan {
        n,
        seed: artefact.key_seed,
        net: artefact.net,
        requests: &artefact.requests,
    };
    let direct = adapter::prepare_direct(plan);
    let (end, _, direct_s) = tracer.time("baseline.direct_run", run, transfers as u64, || {
        direct.run()
    });
    expect_all("baseline.direct_run", end.deliveries, transfers * n)?;
    metrics.insert(
        "protocols.direct_us_per_transfer",
        per_item_us(direct_s, transfers),
    );
    metrics.insert(
        "baseline.direct_msgs_per_transfer",
        end.messages_sent as f64 / transfers as f64,
    );
    metrics.insert(
        "baseline.compression_ratio",
        end.messages_sent as f64 / artefact.messages_sent.max(1) as f64,
    );

    // sim: what the seal timers alone make of a live run's schedule (the
    // same requests on the simulated clock with an instant network), or
    // what the layers replayed above leave unexplained of a simulated
    // run, where every server admits and interprets the whole DAG.
    match artefact.live_p50_ms {
        Some(live_p50_ms) => {
            let floor = adapter::prepare_sim(plan);
            let (end, _, _) = tracer.time("sim.timer_floor", run, transfers as u64, || floor.run());
            let latencies =
                crate::workloads::sim_latencies_ms(&end.deliveries, &artefact.requests, n);
            expect_all("sim.timer_floor", latencies.len(), transfers)?;
            let floor_p50_ms = stats::binned_quantile_ms(&latencies, 0.5);
            metrics.insert("sim.timer_floor_p50_ms", floor_p50_ms);
            metrics.insert(
                "transport.node.over_timer_floor_ms",
                live_p50_ms - floor_p50_ms,
            );
        }
        None => {
            metrics.insert(
                "sim.unattributed_share",
                1.0 - n as f64 * (admit_s + interpret_s) / artefact.run_wall_s,
            );
        }
    }
    Ok(metrics)
}

fn expect_all(stage: &str, done: usize, expected: usize) -> Result<(), String> {
    if done == expected {
        Ok(())
    } else {
        Err(format!("{stage}: {done} of {expected} items went through"))
    }
}
