//! Durable-store crash determinism (§7: the DAG is the log): a server
//! that crashes at an instant and is born again purely from its journal
//! must be *invisible* in the run's fingerprint — deliveries, wire traffic,
//! crypto counters, the final clock, and every block's canonical bytes
//! are byte-identical to the same seed run without the crash. The same
//! holds when recovery goes through the real journal format
//! ([`MemStore`]/[`FileStore`]) and through snapshot catch-up, which must
//! additionally replay only the post-snapshot suffix. Either way, and
//! whether messages are ingested one at a time or in bursts, the
//! recovered interpreter visited the blocks in the order the DAG admitted
//! them, as its never-crashed twin did. There is one crash
//! model: a `Role::Restart` with no downtime and a caller-supplied store
//! crashed at the same instant are the same run, byte for byte, and a
//! store that already holds a journal is recovered from, not overwritten.
//!
//! Also here, at the shim level:
//!
//! * a journal that lost a *peer* block off its tail recovers to a valid
//!   prefix, and the first later block referencing the lost one makes
//!   gossip re-fetch it via `FWD` — durability degrades to catch-up,
//!   never to a stuck server;
//! * a journal that lost an *own* block below the durable tip marker is
//!   refused outright ([`RecoverError::OwnChainTruncated`]) — resuming
//!   would re-sign an already-broadcast sequence number, i.e. equivocate
//!   (the paper's §7 caveat).

use dagbft::prelude::*;
use dagbft::sim::IngestMode;

const INGEST_MODES: [IngestMode; 2] = [IngestMode::PerMessage, IngestMode::Burst { max: 64 }];

/// The determinism-smoke seed set (mirrors `cross_seed_determinism`).
const SEEDS: [u64; 5] = [0, 1, 7, 42, 1337];

const N: usize = 4;
/// Three broadcasts, spread so seed-derived crash instants land mid-run.
const INJECT_AT: [TimeMs; 3] = [0, 300, 600];

/// The default network's seeded 5–30 ms latencies, not a constant one: in
/// lockstep every DAG grows layer by layer, an order any topological
/// traversal reproduces, and the interpretation-order checks see nothing.
fn config(seed: u64) -> SimConfig {
    SimConfig::new(N)
        .with_seed(seed)
        .with_max_time(3_000)
        .with_network(NetworkModel::default())
}

/// The server that crashes and the instant it does, derived from the seed
/// so every smoke seed exercises a different (server, boundary) pair.
fn crash_point(seed: u64) -> (usize, TimeMs) {
    (seed as usize % N, 200 + (seed % 5) * 110)
}

/// Runs the workload, applying `durable` to the freshly built simulation
/// (identity for the uncrashed baseline), and fingerprints everything
/// observable — the same format as `cross_seed_determinism`.
fn run_fingerprint(
    ingest: IngestMode,
    seed: u64,
    durable: impl FnOnce(Simulation<Brb<u64>>) -> Simulation<Brb<u64>>,
) -> (Vec<u8>, SimOutcome<Brb<u64>>) {
    let sim = Simulation::new(config(seed).with_ingest(ingest));
    run_fingerprint_of(durable(sim), seed)
}

fn run_fingerprint_of(mut sim: Simulation<Brb<u64>>, seed: u64) -> (Vec<u8>, SimOutcome<Brb<u64>>) {
    for (i, at) in INJECT_AT.iter().enumerate() {
        sim.inject(Injection {
            at: *at,
            server: i % N,
            label: Label::new(i as u64),
            request: BrbRequest::Broadcast(100 + i as u64),
        });
    }
    let outcome = sim.run();
    assert_eq!(
        outcome.deliveries.len(),
        INJECT_AT.len() * N,
        "seed {seed}: every instance delivers everywhere"
    );

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
    (fingerprint, outcome)
}

/// Interpretation order is admission order, and a crash changes neither:
/// `server`'s recovered interpreter visited its DAG front to back, which
/// is what its never-crashed `twin` did.
fn assert_interpreted_as_admitted(
    server: usize,
    recovered: &SimOutcome<Brb<u64>>,
    twin: &SimOutcome<Brb<u64>>,
    context: &str,
) {
    let order = recovered.shim(server).interpreter().interpreted_order();
    let admitted: Vec<BlockRef> = recovered.dag(server).unwrap().refs().copied().collect();
    assert!(order == admitted, "{context}: not the DAG's order");
    let twin = twin.shim(server).interpreter().interpreted_order();
    assert!(order == twin, "{context}: not the twin's order");
}

#[test]
fn crash_and_restart_is_invisible_in_the_fingerprint() {
    for (seed, ingest) in SEEDS.into_iter().flat_map(|s| INGEST_MODES.map(|i| (s, i))) {
        let (baseline, twin) = run_fingerprint(ingest, seed, |sim| sim);

        let (server, crash_at) = crash_point(seed);
        let (crashed, outcome) = run_fingerprint(ingest, seed, |sim| {
            sim.with_durable_store(server, Box::new(MemoryStore::new()), crash_at)
        });

        let [(at, who, report)] = outcome.recoveries[..] else {
            panic!("seed {seed}: expected exactly one recovery");
        };
        assert_eq!((at, who.index()), (crash_at, server));
        assert!(
            report.journal_blocks > 0,
            "seed {seed}: crash found a journal"
        );
        assert_eq!(
            report.replayed_blocks, report.journal_blocks,
            "seed {seed}: genesis replay covers the whole journal"
        );
        assert_eq!(report.snapshot_covered, 0);
        assert!(outcome.shim(server).store_attached());
        assert!(outcome.shim(server).store_error().is_none());

        assert_eq!(
            baseline, crashed,
            "seed {seed}, {ingest:?}: crash at t={crash_at} on server {server} leaked into the fingerprint"
        );
        let context = format!("seed {seed}, {ingest:?}, genesis replay");
        assert_interpreted_as_admitted(server, &outcome, &twin, &context);
    }
}

#[test]
fn one_crash_model_one_fingerprint() {
    // `Role::Restart` with no downtime is `with_durable_store` over a
    // `MemoryStore` crashed at the same instant: the same crash event,
    // the same rejoin, the same bytes — which are the uncrashed run's.
    for seed in SEEDS {
        let (baseline, _) = run_fingerprint(IngestMode::PerMessage, seed, |sim| sim);
        let (server, crash_at) = crash_point(seed);
        let (stored, by_store) = run_fingerprint(IngestMode::PerMessage, seed, |sim| {
            sim.with_durable_store(server, Box::new(MemoryStore::new()), crash_at)
        });
        let role = Role::Restart {
            crash_at,
            rejoin_at: crash_at,
        };
        let (restarted, by_role) =
            run_fingerprint_of(Simulation::new(config(seed).with_role(server, role)), seed);
        assert_eq!(by_role.recoveries, by_store.recoveries, "seed {seed}");
        assert_eq!(by_role.recoveries.len(), 1, "seed {seed}: it did crash");
        assert_eq!(restarted, stored, "seed {seed}: two crash models");
        assert_eq!(restarted, baseline, "seed {seed}: the restart leaked");
    }
}

#[test]
fn a_store_that_holds_a_journal_is_recovered_from() {
    // The server's store already holds its first three own blocks (and
    // the marker for them) when the simulation is built over it: the
    // server is born from that journal — its chain continues at seq 3 —
    // instead of sealing a second seq 0 beside a journal that no longer
    // mirrors its DAG.
    let seed = 7;
    let server = 1;
    let me = ServerId::new(server as u32);
    let dir = std::env::temp_dir().join(format!("dagbft-preloaded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = own_chain(&KeyRegistry::generate(N, seed), server as u32, 3);
    let mut store = FileStore::open_dir(&dir).expect("journal dir opens");
    for block in &journal {
        store.append_block(block).unwrap();
    }
    store.sync().unwrap();
    store.mark_own_tip(SeqNum::new(2)).unwrap();

    let (_, outcome) = run_fingerprint(IngestMode::PerMessage, seed, |sim| {
        sim.with_durable_store(server, Box::new(store), 450)
    });
    let [(_, _, report)] = outcome.recoveries[..] else {
        panic!("expected exactly one recovery");
    };
    assert!(report.journal_blocks > journal.len(), "journaling went on");
    for observer in outcome.correct_servers() {
        let dag = outcome.dag(observer).unwrap();
        assert!(dag.equivocations(me).is_empty(), "observer {observer}");
        for block in &journal {
            assert_eq!(dag.blocks_at(me, block.seq()), [block.block_ref()]);
        }
        assert!(dag.height_of(me) > Some(SeqNum::new(2)));
    }
    // The journal still mirrors the server's DAG, block for block.
    let final_dag: Vec<BlockRef> = outcome.dag(server).unwrap().refs().copied().collect();
    drop(outcome); // release the journal file handles
    let reopened = FileStore::open_dir(&dir).expect("journal reopens after the run");
    let journaled: Vec<BlockRef> = reopened
        .contents()
        .expect("journal reads back")
        .blocks
        .iter()
        .map(Block::block_ref)
        .collect();
    assert_eq!(journaled, final_dag);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_backed_snapshot_recovery_is_also_invisible_and_replays_the_suffix() {
    // Same property through the real journal format plus snapshot
    // catch-up: the restarted interpreter starts from the persisted
    // snapshot, replays only the suffix, and still lands on the same
    // bytes. The suffix is shorter than the snapshot cadence whatever
    // the journal's length — a count, the same on every machine.
    for (seed, ingest) in [1, 7, 42]
        .into_iter()
        .flat_map(|s| INGEST_MODES.map(|i| (s, i)))
    {
        let (baseline, twin) = run_fingerprint(ingest, seed, |sim| sim);
        let (server, crash_at) = crash_point(seed);
        for cadence in [4, 16] {
            let (crashed, outcome) = run_fingerprint(ingest, seed, |sim| {
                sim.with_durable_store(server, Box::new(MemStore::in_memory()), crash_at)
                    .with_durable_snapshots(cadence)
            });
            let [(_, _, report)] = outcome.recoveries[..] else {
                panic!("seed {seed}: expected exactly one recovery");
            };
            assert!(report.snapshot_covered > 0, "seed {seed}: {report:?}");
            assert!(
                (report.replayed_blocks as u64) < cadence,
                "seed {seed}, cadence {cadence}: replay is the suffix past the last snapshot: {report:?}"
            );
            assert_eq!(
                report.snapshot_covered + report.replayed_blocks,
                report.journal_blocks
            );
            assert_eq!(baseline, crashed, "seed {seed}: snapshot recovery leaked");
            let context = format!("seed {seed}, {ingest:?}, snapshot every {cadence}");
            assert_interpreted_as_admitted(server, &outcome, &twin, &context);
        }
    }
}

#[test]
fn file_backed_journal_crash_survives_on_disk() {
    // One seed goes through an actual on-disk journal: the fingerprint
    // still matches, and reopening the directory after the run reads back
    // exactly the recovered server's DAG, with no torn records.
    let seed = 1337;
    let dir = std::env::temp_dir().join(format!("dagbft-crash-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (baseline, _) = run_fingerprint(IngestMode::PerMessage, seed, |sim| sim);
    let (server, crash_at) = crash_point(seed);
    let store = Box::new(FileStore::open_dir(&dir).expect("journal dir opens"));
    let (crashed, outcome) = run_fingerprint(IngestMode::PerMessage, seed, |sim| {
        sim.with_durable_store(server, store, crash_at)
            .with_durable_snapshots(6)
    });
    assert_eq!(baseline, crashed, "file-backed recovery leaked");
    assert_eq!(outcome.recoveries.len(), 1);
    let dag_len = outcome
        .dag(server)
        .expect("recovered server has a DAG")
        .len();
    drop(outcome); // release the journal file handles

    let reopened = FileStore::open_dir(&dir).expect("journal reopens after the run");
    let contents = reopened.contents().expect("journal reads back");
    assert_eq!(
        contents.blocks.len(),
        dag_len,
        "journal holds the whole DAG"
    );
    assert_eq!(contents.truncated_records, 0);
    assert!(contents.snapshot.is_some(), "a snapshot was persisted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chain of `len` blocks by `builder`, each referencing the previous.
fn own_chain(registry: &KeyRegistry, builder: u32, len: u64) -> Vec<Block> {
    let signer = registry.signer(ServerId::new(builder)).unwrap();
    let mut blocks: Vec<Block> = Vec::new();
    for seq in 0..len {
        let preds = blocks
            .last()
            .map(|b| vec![b.block_ref()])
            .unwrap_or_default();
        blocks.push(Block::build(
            ServerId::new(builder),
            SeqNum::new(seq),
            preds,
            vec![],
            &signer,
        ));
    }
    blocks
}

#[test]
fn truncated_peer_tail_is_refetched_via_fwd() {
    let registry = KeyRegistry::generate(N, 9);
    let chain = own_chain(&registry, 0, 5);

    // The journal a crashed observer left behind — minus its tail: the
    // newest peer block (seq 3) was lost with the torn tail.
    let mut store = MemoryStore::new();
    for block in &chain[..4] {
        store.append_block(block).unwrap();
    }
    store.truncate_tail(1);

    let config = ShimConfig::new(ProtocolConfig::for_n(N));
    let (mut shim, report) =
        Shim::<Brb<u64>>::recover_from_store(ServerId::new(3), config, &registry, Box::new(store))
            .expect("a truncated PEER tail is a valid (shorter) journal");
    assert_eq!(report.journal_blocks, 3);
    assert!(!shim.dag().contains(&chain[3].block_ref()));

    // The builder's next block references the lost one: it parks as
    // pending and the recovered server asks for the hole over FWD.
    let commands = shim.on_message(ServerId::new(0), NetMessage::Block(chain[4].clone()), 1_000);
    assert!(
        !shim.dag().contains(&chain[4].block_ref()),
        "parked pending"
    );
    let mut fwd_targets = Vec::new();
    for command in commands.into_iter().chain(shim.on_tick(1_001)) {
        if let NetCommand::SendTo {
            to,
            message: NetMessage::FwdRequest(wanted),
        } = command
        {
            assert_eq!(wanted, chain[3].block_ref(), "asks for exactly the hole");
            fwd_targets.push(to);
        }
    }
    assert_eq!(
        fwd_targets,
        vec![ServerId::new(0)],
        "one FWD, to the builder"
    );

    // The FWD response fills the hole, the pending block cascades in, and
    // both land back in the journal.
    shim.on_message(ServerId::new(0), NetMessage::Block(chain[3].clone()), 1_002);
    assert_eq!(shim.dag().len(), 5, "caught back up past the lost tail");
    assert!(shim.store_error().is_none());
    let store = shim.detach_store().expect("store stays attached");
    assert_eq!(store.contents().unwrap().blocks.len(), 5, "re-journaled");
}

#[test]
fn recovery_refuses_to_resume_below_own_tip() {
    // §7 regression: the journal lost the server's own newest block but
    // the durable tip marker survived. Recovering anyway would rebuild —
    // and re-sign — sequence number 1, equivocating against whatever the
    // rest of the cluster already holds. The shim must refuse.
    let registry = KeyRegistry::generate(N, 9);
    let chain = own_chain(&registry, 3, 2);

    let mut store = MemoryStore::new();
    for block in &chain {
        store.append_block(block).unwrap();
    }
    store.mark_own_tip(SeqNum::new(1)).unwrap();
    store.truncate_tail(1); // the tip marker is deliberately NOT rolled back

    let config = ShimConfig::new(ProtocolConfig::for_n(N));
    let err =
        Shim::<Brb<u64>>::recover_from_store(ServerId::new(3), config, &registry, Box::new(store))
            .expect_err("resuming below the own tip must be refused");
    match err {
        RecoverError::OwnChainTruncated { journal, marker } => {
            assert_eq!(journal, Some(SeqNum::ZERO));
            assert_eq!(marker, SeqNum::new(1));
        }
        other => panic!("expected OwnChainTruncated, got {other:?}"),
    }

    // Control: the intact journal recovers, and the next built block takes
    // seq 2 — sequence numbers are never reused across the restart.
    let mut store = MemoryStore::new();
    for block in &chain {
        store.append_block(block).unwrap();
    }
    store.mark_own_tip(SeqNum::new(1)).unwrap();
    let config = ShimConfig::new(ProtocolConfig::for_n(N));
    let (mut shim, _) =
        Shim::<Brb<u64>>::recover_from_store(ServerId::new(3), config, &registry, Box::new(store))
            .expect("intact journal recovers");
    shim.disseminate(2_000);
    let top = shim
        .dag()
        .iter()
        .filter(|b| b.builder() == ServerId::new(3))
        .map(|b| b.seq())
        .max();
    assert_eq!(top, Some(SeqNum::new(2)), "resumes past the tip, no reuse");
    assert!(shim.dag().equivocations(ServerId::new(3)).is_empty());
}

#[test]
fn an_old_format_snapshot_costs_a_genesis_replay_not_the_node() {
    // The latest snapshot in the journal was written by a build with
    // snapshot format 1. This build reads only format 2 — but a snapshot
    // is a cache of a pure function of the journal (Lemma 4.2), so the
    // server comes back by replaying from genesis, and says why.
    let registry = KeyRegistry::generate(N, 9);
    let chain = own_chain(&registry, 0, 5);
    let config = ShimConfig::new(ProtocolConfig::for_n(N));
    let recover = |covered: u64, payload: &[u8]| {
        let mut store = MemoryStore::new();
        for block in &chain {
            store.append_block(block).unwrap();
        }
        store.append_snapshot(covered, payload).unwrap();
        let me = ServerId::new(3);
        Shim::<Brb<u64>>::recover_from_store_with_snapshots(me, config, &registry, Box::new(store))
    };

    // Format 1's header: version, covered, n, f.
    let mut v1 = vec![1u8];
    for field in [4u64, N as u64, 1] {
        v1.extend(field.to_le_bytes());
    }
    let (shim, report) = recover(4, &v1).expect("an unreadable cache is not fatal");
    assert_eq!(report.snapshot_covered, 0);
    assert_eq!(report.replayed_blocks, 5);
    assert_eq!(report.snapshot_skipped_version, Some(1));
    assert_eq!(shim.interpreter().interpreted_count(), 5);

    // Only the version is forgiven: a corrupt current-format snapshot and
    // one that covers more than the journal keep their typed errors.
    assert!(matches!(
        recover(4, &[2, 0xff]),
        Err(RecoverError::Snapshot(dagbft::dag::SnapshotError::Corrupt(
            _
        )))
    ));
    assert!(matches!(
        recover(6, &v1),
        Err(RecoverError::SnapshotDiverged { covered: 6 })
    ));
}
