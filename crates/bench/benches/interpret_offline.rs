//! Experiment E8: off-line interpretation throughput.
//!
//! The paper (§1, §7) claims maintaining the DAG can be fully decoupled
//! from "later or off-line interpretation of instances of protocol P".
//! This bench interprets pre-built DAGs from scratch — no network, no IO —
//! and reports blocks/second, sweeping DAG size and instance counts.
//! Throughput is reported in blocks (elements).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dagbft_bench::build_offline_dag;
use dagbft_core::{Interpreter, ReferenceInterpreter};
use dagbft_protocols::Brb;

fn bench_interpret_blocks(c: &mut Criterion) {
    let n = 4;
    let mut group = c.benchmark_group("interpret_offline/blocks");
    for rounds in [16u64, 64, 256] {
        let (dag, config) = build_offline_dag(n, rounds, 4);
        group.throughput(Throughput::Elements(dag.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(dag.len()),
            &(dag, config),
            |b, (dag, config)| {
                b.iter(|| {
                    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(*config);
                    let interpreted = interpreter.step(dag);
                    assert_eq!(interpreted, dag.len());
                    interpreter
                });
            },
        );
    }
    group.finish();
}

fn bench_interpret_instances(c: &mut Criterion) {
    // Same number of blocks, growing instance counts: the marginal cost of
    // "parallel instances for free".
    let n = 4;
    let rounds = 32;
    let mut group = c.benchmark_group("interpret_offline/instances");
    for instances in [1usize, 10, 100, 500] {
        let (dag, config) = build_offline_dag(n, rounds, instances);
        group.throughput(Throughput::Elements(instances as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(instances),
            &(dag, config),
            |b, (dag, config)| {
                b.iter(|| {
                    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(*config);
                    interpreter.step(dag);
                    interpreter
                });
            },
        );
    }
    group.finish();
}

fn bench_interpret_server_counts(c: &mut Criterion) {
    // Interpretation cost grows with n (one simulated instance per
    // server): quantify the slope.
    let mut group = c.benchmark_group("interpret_offline/servers");
    for n in [4usize, 7, 10] {
        let (dag, config) = build_offline_dag(n, 24, 4);
        group.throughput(Throughput::Elements(dag.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &(dag, config),
            |b, (dag, config)| {
                b.iter(|| {
                    let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(*config);
                    interpreter.step(dag);
                    interpreter
                });
            },
        );
    }
    group.finish();
}

fn bench_interpret_sharing(c: &mut Criterion) {
    // Moved view + per-block delta vs the clone-per-block reference
    // transcription, on an identical DAG: the cost line 4 of Algorithm 2
    // stops paying.
    let n = 4;
    let rounds = 64;
    let labels = 16;
    let (dag, config) = build_offline_dag(n, rounds, labels);
    let mut group = c.benchmark_group("interpret_offline/sharing");
    group.throughput(Throughput::Elements(dag.len() as u64));
    group.bench_with_input(
        BenchmarkId::new("view-delta", dag.len()),
        &(dag.clone(), config),
        |b, (dag, config)| {
            b.iter(|| {
                let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(*config);
                interpreter.step(dag);
                interpreter
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("clone-per-block", dag.len()),
        &(dag, config),
        |b, (dag, config)| {
            b.iter(|| {
                let mut interpreter: ReferenceInterpreter<Brb<u64>> =
                    ReferenceInterpreter::new(*config);
                interpreter.step(dag);
                interpreter
            });
        },
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_interpret_blocks, bench_interpret_instances,
        bench_interpret_server_counts, bench_interpret_sharing
}
criterion_main!(benches);
