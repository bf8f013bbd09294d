//! Durable-store crash determinism (§7: the DAG is the log): a server
//! that crashes at an instant and is born again purely from its journal
//! must be *invisible* in the run's fingerprint — deliveries, wire traffic,
//! crypto counters, the final clock, and every block's canonical bytes
//! are byte-identical to the same seed run without the crash. The same
//! holds when recovery goes through the real journal format
//! ([`MemStore`]/[`FileStore`]) and through snapshot catch-up, which must
//! additionally replay only the post-snapshot suffix. Either way the
//! recovered interpreter visited the blocks in the order the DAG admitted
//! them, as its never-crashed twin did. There is one crash
//! model: a `Role::Restart` with no downtime and a caller-supplied store
//! crashed at the same instant are the same run, byte for byte, and a
//! store that already holds a journal is recovered from, not overwritten.
//!
//! That promise is for lossless links. Under loss a crash is visible
//! ([`under_loss_a_crash_changes_when_not_what_is_delivered`] pins how
//! often): the pending buffer, the `FWD` requests and the learned `FWD`
//! timeout die with the process.
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

/// The determinism-smoke seed set (mirrors `cross_seed_determinism`).
const SEEDS: [u64; 5] = [0, 1, 7, 42, 1337];

const N: usize = 4;
/// Five broadcasts, spread so seed-derived crash instants land mid-run,
/// with enough traffic before the earliest crash (310 ms) that the
/// journal holds more blocks than the snapshot cadence of 16: an idle
/// slot seals no block.
const INJECT_AT: [TimeMs; 5] = [0, 100, 200, 300, 600];

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
    seed: u64,
    durable: impl FnOnce(Simulation<Brb<u64>>) -> Simulation<Brb<u64>>,
) -> (Vec<u8>, SimOutcome<Brb<u64>>) {
    let sim = Simulation::new(config(seed));
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
    for seed in SEEDS {
        let (baseline, twin) = run_fingerprint(seed, |sim| sim);

        let (server, crash_at) = crash_point(seed);
        let (crashed, outcome) = run_fingerprint(seed, |sim| {
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
            "seed {seed}: crash at t={crash_at} on server {server} leaked into the fingerprint"
        );
        let context = format!("seed {seed}, genesis replay");
        assert_interpreted_as_admitted(server, &outcome, &twin, &context);
    }
}

#[test]
fn one_crash_model_one_fingerprint() {
    // `Role::Restart` with no downtime is `with_durable_store` over a
    // `MemoryStore` crashed at the same instant: the same crash event,
    // the same rejoin, the same bytes — which are the uncrashed run's.
    for seed in SEEDS {
        let (baseline, _) = run_fingerprint(seed, |sim| sim);
        let (server, crash_at) = crash_point(seed);
        let (stored, by_store) = run_fingerprint(seed, |sim| {
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

/// The same workload over 10 ms links that drop 20 %, seeds 0–19: a
/// crash still changes no delivered indication, but it leaks into the
/// fingerprint on 19 seeds; with a fixed one-period `FWD` wait, 10
/// leaked. The pending buffer and the `FWD` requests die with the
/// process, and a shorter wait lets that show on more seeds. The bound
/// keeps the count from growing.
#[test]
fn under_loss_a_crash_changes_when_not_what_is_delivered() {
    let lossy =
        |seed| config(seed).with_network(NetworkModel::reliable_constant(10).with_drop_rate(0.2));
    let delivered = |outcome: &SimOutcome<Brb<u64>>| {
        let mut delivered: Vec<_> = outcome
            .deliveries
            .iter()
            .map(|delivery| (delivery.server, delivery.label, delivery.indication.clone()))
            .collect();
        delivered.sort();
        delivered
    };
    let mut leaks = 0;
    for seed in 0..20 {
        let (baseline, twin) = run_fingerprint_of(Simulation::new(lossy(seed)), seed);
        let (server, crash_at) = crash_point(seed);
        let sim = Simulation::new(lossy(seed)).with_durable_store(
            server,
            Box::new(MemoryStore::new()),
            crash_at,
        );
        let (crashed, outcome) = run_fingerprint_of(sim, seed);
        assert_eq!(outcome.recoveries.len(), 1, "seed {seed}: it did crash");
        assert_eq!(delivered(&outcome), delivered(&twin), "seed {seed}");
        leaks += usize::from(crashed != baseline);
    }
    assert!(leaks <= 19, "{leaks} of 20 crashes leaked, was 19");
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

    let (_, outcome) = run_fingerprint(seed, |sim| {
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
    let mut reopened = FileStore::open_dir(&dir).expect("journal reopens after the run");
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
    for seed in [1, 7, 42] {
        let (baseline, twin) = run_fingerprint(seed, |sim| sim);
        let (server, crash_at) = crash_point(seed);
        for cadence in [4, 16] {
            let (crashed, outcome) = run_fingerprint(seed, |sim| {
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
            let context = format!("seed {seed}, snapshot every {cadence}");
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

    let (baseline, _) = run_fingerprint(seed, |sim| sim);
    let (server, crash_at) = crash_point(seed);
    let store = Box::new(FileStore::open_dir(&dir).expect("journal dir opens"));
    let (crashed, outcome) = run_fingerprint(seed, |sim| {
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

    let mut reopened = FileStore::open_dir(&dir).expect("journal reopens after the run");
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
    let run = [(ServerId::new(0), NetMessage::Block(chain[4].clone()))];
    let commands = shim.on_message_burst(run, 1_000);
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
    shim.on_message_burst(
        [(ServerId::new(0), NetMessage::Block(chain[3].clone()))],
        1_002,
    );
    assert_eq!(shim.dag().len(), 5, "caught back up past the lost tail");
    assert!(shim.store_error().is_none());
    let mut store = shim.detach_store().expect("store stays attached");
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

/// Snapshot format 2 of `interpreter` over `dag`, byte for byte as the
/// format-2 encoder wrote it: the configuration, order and counters as in
/// format 3; per block its parent, its delta with `(n, f)` ahead of every
/// instance, and its out-buffer as label groups of one envelope per
/// receiver. Format 2 kept every state; `interpreter` retires a terminal
/// one, so the states come from the clone-per-block oracle, and each is
/// checked against `interpreter`: equal, or retired exactly when terminal.
fn snapshot_v2(interpreter: &Interpreter<Brb<u64>>, dag: &BlockDag) -> Vec<u8> {
    use dagbft::codec::WireEncode;
    let config = ProtocolConfig::for_n(N);
    let mut oracle: ReferenceInterpreter<Brb<u64>> = ReferenceInterpreter::new(config);
    oracle.step(dag);
    let order = interpreter.interpreted_order();
    let mut out = vec![2u8];
    (config.n as u64, config.f as u64).encode(&mut out);
    order.to_vec().encode(&mut out);
    let stats = interpreter.stats();
    for counter in [
        stats.blocks_interpreted,
        stats.requests_processed,
        stats.malformed_requests,
        stats.messages_materialized,
        stats.messages_delivered,
        stats.indications,
        interpreter.footprint().instances as u64,
    ] {
        counter.encode(&mut out);
    }
    for block_ref in order {
        let parent = dag.get(block_ref).unwrap().parent_via(|r| dag.meta(r));
        let position = |parent: BlockRef| 1 + order.iter().position(|r| *r == parent).unwrap();
        (parent.unwrap().map_or(0, position) as u64).encode(&mut out);
        let state = interpreter.state(block_ref).unwrap();
        let touched: Vec<Label> = state.touched_labels().copied().collect();
        (touched.len() as u32).encode(&mut out);
        for label in &touched {
            label.encode(&mut out);
            (config.n as u64, config.f as u64).encode(&mut out);
            let state = oracle.state(block_ref).unwrap().instance(*label).unwrap();
            let mut bytes = Vec::new();
            state.encode_state(&mut bytes);
            match interpreter.instance_at(dag, block_ref, *label).unwrap() {
                InstanceAt::Live(instance) => {
                    assert!(!state.is_terminal());
                    let mut live = Vec::new();
                    instance.encode_state(&mut live);
                    assert_eq!(live, bytes, "{label} at {block_ref}");
                }
                InstanceAt::Retired => assert!(state.is_terminal(), "{label} at {block_ref}"),
            }
            out.extend(bytes);
        }
        let groups: Vec<(Label, Vec<Envelope<BrbMessage<u64>>>)> = touched
            .iter()
            .map(|label| (*label, state.out_messages(*label).collect::<Vec<_>>()))
            .filter(|(_, envelopes)| !envelopes.is_empty())
            .collect();
        (groups.len() as u32).encode(&mut out);
        for (label, envelopes) in groups {
            label.encode(&mut out);
            (envelopes.len() as u32).encode(&mut out);
            envelopes
                .iter()
                .for_each(|envelope| envelope.encode(&mut out));
        }
    }
    out
}

#[test]
fn an_old_format_snapshot_costs_a_genesis_replay_not_the_node() {
    // The latest snapshot in the journal was written by a build with an
    // older snapshot format. This build reads only format 7 — but a
    // snapshot is a cache of a pure function of the journal (Lemma 4.2), so
    // the server comes back by replaying from genesis, and says why.
    let registry = KeyRegistry::generate(N, 9);
    let chain = own_chain(&registry, 0, 5);
    let config = ShimConfig::new(ProtocolConfig::for_n(N));
    let me = ServerId::new(3);
    let recover = |blocks: &[Block], covered: u64, payload: &[u8]| {
        let mut store = MemoryStore::new();
        for block in blocks {
            store.append_block(block).unwrap();
        }
        store.append_snapshot(covered, payload).unwrap();
        Shim::<Brb<u64>>::recover_from_store(me, config, &registry, Box::new(store))
    };

    // Format 1's header: version, covered, n, f.
    let mut v1 = vec![1u8];
    for field in [4u64, N as u64, 1] {
        v1.extend(field.to_le_bytes());
    }
    let (shim, report) = recover(&chain, 4, &v1).expect("an unreadable cache is not fatal");
    assert_eq!(report.snapshot_covered, 0);
    assert_eq!(report.replayed_blocks, 5);
    assert_eq!(report.snapshot_skipped_version, Some(1));
    assert_eq!(shim.interpreter().interpreted_count(), 5);
    // Format 3, one version per delta entry, is skipped the same way.
    let (_, report) = recover(&chain, 4, &[3, 0xff]).expect("a format-3 cache");
    assert_eq!(report.snapshot_skipped_version, Some(3));
    assert_eq!(report.replayed_blocks, 5);

    // Format 2: a real snapshot of the first half of server 3's journal of
    // three broadcasts, as the previous format wrote it.
    let (_, outcome) = run_fingerprint(7, |sim| sim);
    let dag = outcome.dag(me.index()).unwrap();
    let blocks: Vec<Block> = dag.iter().cloned().collect();
    let covered = blocks.len() / 2;
    let mut prefix = BlockDag::new();
    for block in &blocks[..covered] {
        prefix.insert(block.clone()).unwrap();
    }
    let mut snapshotted: Interpreter<Brb<u64>> = Interpreter::new(config.protocol);
    snapshotted.step(&prefix);
    snapshotted.drain_indications();
    let v2 = snapshot_v2(&snapshotted, &prefix);
    let (mut shim, report) = recover(&blocks, covered as u64, &v2).expect("a format-2 cache");
    assert_eq!(report.snapshot_skipped_version, Some(2));
    assert_eq!(report.snapshot_covered, 0);
    assert_eq!(report.replayed_blocks, blocks.len());
    // It indicates what a fresh interpreter of the journal indicates.
    let mut fresh: Interpreter<Brb<u64>> = Interpreter::new(config.protocol);
    fresh.step(dag);
    let expected: Vec<(Label, BrbIndication<u64>)> = fresh
        .drain_indications()
        .into_iter()
        .filter(|indication| indication.server == me)
        .map(|indication| (indication.label, indication.indication))
        .collect();
    assert_eq!(expected.len(), INJECT_AT.len());
    assert_eq!(shim.poll_indications(), expected);
    // The same prefix in format 7 is read, and only the suffix replays.
    let v7 = snapshotted.snapshot().unwrap();
    assert!(v7.len() < v2.len());
    let (_, report) = recover(&blocks, covered as u64, &v7).expect("a format-7 cache");
    assert_eq!(report.snapshot_skipped_version, None);
    assert_eq!(report.snapshot_covered, covered);
    assert_eq!(report.replayed_blocks, blocks.len() - covered);

    // Only the version is forgiven: a corrupt current-format snapshot and
    // one that covers more than the journal keep their typed errors.
    assert!(matches!(
        recover(&chain, 4, &[7, 0xff]),
        Err(RecoverError::Snapshot(dagbft::dag::SnapshotError::Corrupt(
            _
        )))
    ));
    assert!(matches!(
        recover(&chain, 6, &v1),
        Err(RecoverError::SnapshotDiverged { covered: 6 })
    ));
}

#[test]
fn a_format_4_snapshot_replays_from_genesis_to_the_same_state() {
    // Format 4 wrote format 7's layout with every receiver set written,
    // but its states were computed with a server's messages to itself
    // delivered one block late, over the edge from its parent. They are not this build's interpretation of the
    // blocks they cover, so the snapshot is skipped however well it
    // decodes, and recovery lands where a genesis replay does. The bytes
    // here are this build's, under format 4's number: this pins the version
    // gate on a whole run. `a_format_4_snapshot_holds_the_old_rules_states`
    // shows, on bytes the older build wrote, why the gate is needed.
    an_older_format_replays_from_genesis_to_the_same_state(4);
}

#[test]
fn a_format_5_snapshot_replays_from_genesis_to_the_same_state() {
    // Format 5 wrote format 6's layout with no tombstone: every version the
    // interpreter ever made, terminal ones included. A build that predates
    // retirement must skip a format-6 snapshot by its number rather than
    // fail on the tombstone's index, so the number moved, and this build
    // reads only its own: a format-5 snapshot is skipped, and recovery
    // lands where a genesis replay does. The bytes here are this build's,
    // under format 5's number.
    an_older_format_replays_from_genesis_to_the_same_state(5);
}

#[test]
fn a_format_6_snapshot_replays_from_genesis_to_the_same_state() {
    // Format 6 wrote every out-buffer entry with its receiver set, a
    // broadcast's too; format 7 writes a block with no receivers column
    // without sets, under a segment flag a format-6 build would reject as
    // corrupt. So the number moved, and this build reads only its own: a
    // format-6 snapshot is skipped, and recovery lands where a genesis
    // replay does. The bytes here are this build's, under format 6's
    // number.
    an_older_format_replays_from_genesis_to_the_same_state(6);
}

/// Recovers server 3 of seed 7's run from its journal and a snapshot of
/// the first half, this build's bytes under the older format `version`,
/// and checks that the snapshot is skipped for a genesis replay that lands
/// where a fresh interpreter does.
fn an_older_format_replays_from_genesis_to_the_same_state(version: u8) {
    let (_, outcome) = run_fingerprint(7, |sim| sim);
    let me = ServerId::new(3);
    let dag = outcome.dag(me.index()).unwrap();
    let blocks: Vec<Block> = dag.iter().cloned().collect();
    let covered = blocks.len() / 2;
    let mut prefix = BlockDag::new();
    for block in &blocks[..covered] {
        prefix.insert(block.clone()).unwrap();
    }
    let protocol = ProtocolConfig::for_n(N);
    let mut snapshotted: Interpreter<Brb<u64>> = Interpreter::new(protocol);
    snapshotted.step(&prefix);
    snapshotted.drain_indications();
    let mut older = snapshotted.snapshot().unwrap();
    older[0] = version;

    let registry = KeyRegistry::generate(N, config(7).seed);
    let mut store = MemoryStore::new();
    for block in &blocks {
        store.append_block(block).unwrap();
    }
    store.append_snapshot(covered as u64, &older).unwrap();
    let (mut shim, report) = Shim::<Brb<u64>>::recover_from_store(
        me,
        ShimConfig::new(protocol),
        &registry,
        Box::new(store),
    )
    .expect("an older format's cache is not fatal");
    assert_eq!(report.snapshot_skipped_version, Some(version));
    assert_eq!(report.snapshot_covered, 0);
    assert_eq!(report.replayed_blocks, blocks.len());

    let mut fresh: Interpreter<Brb<u64>> = Interpreter::new(protocol);
    assert_eq!(fresh.step(dag), blocks.len());
    let expected: Vec<(Label, BrbIndication<u64>)> = fresh
        .drain_indications()
        .into_iter()
        .filter(|indication| indication.server == me)
        .map(|indication| (indication.label, indication.indication))
        .collect();
    assert_eq!(expected.len(), INJECT_AT.len());
    assert_eq!(shim.poll_indications(), expected);
    let recovered = shim.interpreter();
    assert_eq!(recovered.stats(), fresh.stats());
    assert_eq!(recovered.footprint(), fresh.footprint());
    assert_eq!(recovered.interpreted_order(), fresh.interpreted_order());
    assert_eq!(recovered.snapshot().unwrap(), fresh.snapshot().unwrap());
}

/// The DAG of Figure 4: n = 4, four rounds, every block naming the whole
/// round before it, and `broadcast(42)` on label 1 at `s0`'s first block.
fn figure_4() -> (KeyRegistry, BlockDag) {
    let registry = KeyRegistry::generate(4, 4);
    let mut dag = BlockDag::new();
    let mut round: Vec<BlockRef> = Vec::new();
    for seq in 0..4 {
        round = (0..4)
            .map(|builder| {
                let requests = match (seq, builder) {
                    (0, 0) => vec![LabeledRequest::encode(
                        Label::new(1),
                        &BrbRequest::Broadcast(42u64),
                    )],
                    _ => vec![],
                };
                let server = ServerId::new(builder);
                let signer = registry.signer(server).unwrap();
                let block =
                    Block::build(server, SeqNum::new(seq), round.clone(), requests, &signer);
                dag.insert(block.clone()).unwrap();
                block.block_ref()
            })
            .collect();
    }
    (registry, dag)
}

#[test]
fn a_format_4_snapshot_holds_the_old_rules_states() {
    // `golden/fig4_two_rounds_format_4.hex` is what the build before the
    // in-block self-link wrote, in format 4, after interpreting Figure 4's
    // first two rounds. Format 7 reads its layout as the case where no
    // block sets the broadcasts flag, which format 4 never wrote, so it
    // decodes as format 7, but its states are the old rule's: each
    // server's round-1 ECHO still waits for an edge from its own block,
    // which this build never delivers. Taken as a cache, it would leave every server one ECHO
    // short of what the blocks say.
    let v4: Vec<u8> = {
        let hex: Vec<u8> = include_str!("golden/fig4_two_rounds_format_4.hex")
            .bytes()
            .filter(u8::is_ascii_hexdigit)
            .collect();
        hex.chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    };
    assert_eq!(v4[0], 4);
    let (registry, dag) = figure_4();
    let protocol = ProtocolConfig::for_n(4);
    let mut fresh: Interpreter<Brb<u64>> = Interpreter::new(protocol);
    assert_eq!(fresh.step(&dag), 16);
    let indications = fresh.drain_indications();

    let mut as_v7 = v4.clone();
    as_v7[0] = 7;
    let mut old = Interpreter::<Brb<u64>>::decode_snapshot(protocol, &as_v7)
        .expect("format 4's layout is format 7's with every set written");
    assert_eq!(old.interpreted_order(), &fresh.interpreted_order()[..8]);
    assert_eq!(old.step(&dag), 8);
    // Carried on over the third round by this build, the old states end
    // one ECHO short at s1–s3, whose round-1 ECHO to themselves is never
    // delivered; s0's own round-0 ECHO came over its edge inside the
    // snapshot. Brb's quorums have the slack to deliver anyway, in the
    // last round, where every instance is terminal and so retired.
    let label = Label::new(1);
    let round = |at: usize| -> Vec<BlockRef> { dag.refs().skip(4 * at).take(4).copied().collect() };
    let echoes = |interpreter: &Interpreter<Brb<u64>>| -> Vec<usize> {
        round(2)
            .iter()
            .map(|block| {
                let instance = interpreter.instance_at(&dag, block, label).unwrap();
                instance.live().expect("not yet delivered").echo_count(&42)
            })
            .collect()
    };
    let retired = |interpreter: &Interpreter<Brb<u64>>| {
        round(3).iter().all(|block| {
            let instance = interpreter.instance_at(&dag, block, label);
            instance.is_some_and(|instance| instance.is_retired())
        })
    };
    assert_eq!(echoes(&fresh), [4, 4, 4, 4]);
    assert_eq!(echoes(&old), [4, 3, 3, 3]);
    assert!(retired(&fresh) && retired(&old));
    assert_eq!(old.drain_indications(), indications);

    // So recovery skips the format-4 snapshot and replays from genesis.
    let me = ServerId::new(1);
    let mut store = MemoryStore::new();
    for block in dag.iter() {
        store.append_block(block).unwrap();
    }
    store.append_snapshot(8, &v4).unwrap();
    let (mut shim, report) = Shim::<Brb<u64>>::recover_from_store(
        me,
        ShimConfig::new(protocol),
        &registry,
        Box::new(store),
    )
    .expect("a format-4 cache is not fatal");
    assert_eq!(report.snapshot_skipped_version, Some(4));
    assert_eq!(report.snapshot_covered, 0);
    assert_eq!(report.replayed_blocks, 16);
    assert_eq!(echoes(shim.interpreter()), [4, 4, 4, 4]);
    assert!(retired(shim.interpreter()));
    let delivered: Vec<(Label, BrbIndication<u64>)> = indications
        .into_iter()
        .filter(|indication| indication.server == me)
        .map(|indication| (indication.label, indication.indication))
        .collect();
    assert_eq!(delivered.len(), 1);
    assert_eq!(shim.poll_indications(), delivered);
}

/// Everything observable of a `Bcb` run: deliveries, wire and crypto
/// counters, the final clock and every correct server's blocks.
fn bcb_fingerprint(outcome: &SimOutcome<Bcb<u64>>) -> String {
    let mut fingerprint = format!(
        "{:?}\nnet:{:?}\ncrypto:{}:{} clock:{}\n",
        outcome.deliveries,
        outcome.net,
        outcome.signatures,
        outcome.verifications,
        outcome.finished_at
    );
    for server in outcome.correct_servers() {
        let dag = outcome.dag(server).unwrap();
        let mut blocks: Vec<_> = dag
            .iter()
            .map(|block| block.wire_bytes().to_vec())
            .collect();
        blocks.sort();
        fingerprint.push_str(&format!("dag:{server}:{blocks:?}\n"));
    }
    fingerprint
}

#[test]
fn a_protocol_without_snapshots_recovers_by_replay_under_a_snapshot_cadence() {
    // `Bcb` keeps no snapshots: a snapshot cadence on its durable server
    // writes none, the server recovers from its journal by replay from
    // genesis, and the crash is as invisible as under `Brb`.
    for seed in SEEDS {
        let run = |durable: bool| {
            let mut sim: Simulation<Bcb<u64>> = Simulation::new(config(seed));
            if durable {
                let (server, crash_at) = crash_point(seed);
                sim = sim
                    .with_durable_store(server, Box::new(MemoryStore::new()), crash_at)
                    .with_durable_snapshots(6);
            }
            for (i, at) in INJECT_AT.iter().enumerate() {
                sim.inject(Injection {
                    at: *at,
                    server: i % N,
                    label: Label::new(i as u64),
                    request: BcbRequest::Broadcast(100 + i as u64),
                });
            }
            sim.run()
        };
        let baseline = run(false);
        let crashed = run(true);
        assert_eq!(
            baseline.deliveries.len(),
            INJECT_AT.len() * N,
            "seed {seed}"
        );
        assert_eq!(crashed.recoveries.len(), 1, "seed {seed}: it did crash");
        for (_, _, report) in &crashed.recoveries {
            assert!(report.journal_blocks > 6, "seed {seed}: {report:?}");
            assert_eq!(report.snapshot_covered, 0, "seed {seed}");
            assert_eq!(report.replayed_blocks, report.journal_blocks);
        }
        assert_eq!(
            bcb_fingerprint(&baseline),
            bcb_fingerprint(&crashed),
            "seed {seed}: the crash leaked into the fingerprint"
        );
    }
}
