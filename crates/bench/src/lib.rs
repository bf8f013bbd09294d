//! Shared workload builders and measurement helpers for the dagbft
//! benchmark harness.
//!
//! Every experiment in `EXPERIMENTS.md` (E5–E12) is regenerated by either
//! a Criterion bench (`benches/`, wall-clock measurements) or a report
//! binary (`src/bin/report_*.rs`, the paper-style tables of wire messages,
//! bytes, signatures, and simulated latency). Both are built from the
//! helpers in this crate so the DAG embedding and the direct baseline run
//! *identical* workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workload;

use dagbft_baseline::{BaselineConfig, BaselineOutcome, BaselineSimulation, DirectInjection};
use dagbft_core::{
    Block, BlockDag, BlockRef, Label, LabeledRequest, ProtocolConfig, SeqNum, TimeMs,
};
use dagbft_crypto::{KeyRegistry, ServerId};
use dagbft_protocols::{Brb, BrbRequest, Smr, SmrRequest};
use dagbft_sim::{Injection, NetworkModel, Role, SimConfig, SimOutcome, Simulation};

/// Cost summary of one run, common to both deployments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Costs {
    /// Wire messages sent.
    pub messages: u64,
    /// Wire bytes sent.
    pub bytes: u64,
    /// Signing operations.
    pub signatures: u64,
    /// Verification operations.
    pub verifications: u64,
    /// Deliveries observed.
    pub deliveries: usize,
    /// Simulated time at stop (ms).
    pub finished_at: TimeMs,
    /// Mean delivery latency (ms) over all deliveries with known injection.
    pub mean_latency: f64,
}

fn mean(values: &[TimeMs]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// Extracts [`Costs`] from a DAG-simulation outcome.
pub fn dag_costs(outcome: &SimOutcome<Brb<u64>>, labels: &[Label]) -> Costs {
    let latencies: Vec<TimeMs> = labels
        .iter()
        .flat_map(|l| outcome.latencies_for(*l))
        .collect();
    Costs {
        messages: outcome.net.messages_sent,
        bytes: outcome.net.bytes_sent,
        signatures: outcome.signatures,
        verifications: outcome.verifications,
        deliveries: outcome.deliveries.len(),
        finished_at: outcome.finished_at,
        mean_latency: mean(&latencies),
    }
}

/// Extracts [`Costs`] from a baseline outcome.
pub fn direct_costs(outcome: &BaselineOutcome<Brb<u64>>, labels: &[Label]) -> Costs {
    let latencies: Vec<TimeMs> = labels
        .iter()
        .flat_map(|l| outcome.latencies_for(*l))
        .collect();
    Costs {
        messages: outcome.net.messages_sent,
        bytes: outcome.net.bytes_sent,
        signatures: outcome.signatures,
        verifications: outcome.verifications,
        deliveries: outcome.deliveries.len(),
        finished_at: outcome.finished_at,
        mean_latency: mean(&latencies),
    }
}

/// Standard BRB workload labels: `instances` broadcasts.
pub fn brb_labels(instances: usize) -> Vec<Label> {
    (0..instances as u64).map(Label::new).collect()
}

/// Runs `instances` parallel BRB broadcasts over the block DAG until every
/// correct server delivered every instance.
pub fn run_dag_brb(
    n: usize,
    instances: usize,
    network: NetworkModel,
    disseminate_every: TimeMs,
) -> SimOutcome<Brb<u64>> {
    let expected = instances * n;
    let config = SimConfig::new(n)
        .with_max_time(600_000)
        .with_network(network)
        .with_disseminate_every(disseminate_every)
        .with_stop_after_deliveries(expected);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    for i in 0..instances {
        sim.inject(Injection {
            at: (i as u64) % 40,
            server: i % n,
            label: Label::new(i as u64),
            request: BrbRequest::Broadcast(i as u64),
        });
    }
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), expected, "dag run incomplete");
    outcome
}

/// The same workload on the direct point-to-point baseline.
pub fn run_direct_brb(
    n: usize,
    instances: usize,
    network: NetworkModel,
) -> BaselineOutcome<Brb<u64>> {
    let expected = instances * n;
    let config = BaselineConfig::new(n)
        .with_max_time(600_000)
        .with_network(network)
        .with_stop_after_deliveries(expected);
    let mut sim: BaselineSimulation<Brb<u64>> = BaselineSimulation::new(config);
    for i in 0..instances {
        sim.inject(DirectInjection {
            at: (i as u64) % 40,
            server: i % n,
            label: Label::new(i as u64),
            request: BrbRequest::Broadcast(i as u64),
        });
    }
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), expected, "direct run incomplete");
    outcome
}

/// Runs `proposals` SMR proposals across `leaders` labels over the DAG.
pub fn run_dag_smr(n: usize, proposals: usize, leaders: usize) -> SimOutcome<Smr<u64>> {
    let expected = proposals * n;
    let config = SimConfig::new(n)
        .with_max_time(600_000)
        .with_stop_after_deliveries(expected);
    let mut sim: Simulation<Smr<u64>> = Simulation::new(config);
    for i in 0..proposals {
        sim.inject(Injection {
            at: (i as u64) * 3,
            server: i % n,
            label: Label::new((i % leaders) as u64),
            request: SmrRequest::Propose(1000 + i as u64),
        });
    }
    let outcome = sim.run();
    assert_eq!(outcome.deliveries.len(), expected, "smr run incomplete");
    outcome
}

/// Runs a DAG BRB workload with one byzantine role installed on the last
/// server; requests originate at correct servers only.
pub fn run_dag_brb_with_role(n: usize, instances: usize, role: Role) -> SimOutcome<Brb<u64>> {
    let byzantine = n - 1;
    let correct = n - 1;
    let expected = instances * correct;
    let config = SimConfig::new(n)
        .with_max_time(600_000)
        .with_role(byzantine, role)
        .with_stop_after_deliveries(expected);
    let mut sim: Simulation<Brb<u64>> = Simulation::new(config);
    for i in 0..instances {
        sim.inject(Injection {
            at: (i as u64) % 40,
            server: i % correct,
            label: Label::new(i as u64),
            request: BrbRequest::Broadcast(i as u64),
        });
    }
    sim.run()
}

/// Builds a fully-connected `rounds × n` block DAG carrying `instances`
/// BRB broadcasts in the first round — the input for off-line
/// interpretation benchmarks (experiment E8).
pub fn build_offline_dag(n: usize, rounds: u64, instances: usize) -> (BlockDag, ProtocolConfig) {
    let registry = KeyRegistry::generate(n, 7);
    let signers: Vec<_> = (0..n)
        .map(|i| registry.signer(ServerId::new(i as u32)).unwrap())
        .collect();
    let mut dag = BlockDag::new();
    let mut prev: Vec<BlockRef> = Vec::new();
    for round in 0..rounds {
        let mut layer = Vec::new();
        for (index, signer) in signers.iter().enumerate() {
            let requests = if round == 0 {
                // Spread the instances across the genesis blocks.
                (0..instances)
                    .filter(|i| i % n == index)
                    .map(|i| {
                        LabeledRequest::encode(
                            Label::new(i as u64),
                            &BrbRequest::Broadcast(i as u64),
                        )
                    })
                    .collect()
            } else {
                vec![]
            };
            let block = Block::build(
                ServerId::new(index as u32),
                SeqNum::new(round),
                prev.clone(),
                requests,
                signer,
            );
            dag.insert(block.clone()).expect("preds present");
            layer.push(block.block_ref());
        }
        prev = layer;
    }
    (dag, ProtocolConfig::for_n(n))
}

/// Formats a float with two decimals.
pub fn f2(value: f64) -> String {
    format!("{value:.2}")
}

/// Usable hardware parallelism, recorded in every `BENCH_*.json`
/// snapshot so wall-clock numbers committed from small machines stay
/// interpretable (and hardware-conditional `--check` gates can key on
/// it).
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Every distinct `"key":` token of a JSON string — a cheap structural
/// schema for bench-trajectory snapshot diffing (no JSON parser in the
/// tree). Shared by every `report_*` binary's `--check` mode, so all
/// committed `BENCH_*.json` snapshots are schema-validated the same way.
pub fn json_keys(json: &str) -> std::collections::BTreeSet<String> {
    let mut keys = std::collections::BTreeSet::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if let Some(end) = json[i + 1..].find('"') {
                let end = i + 1 + end;
                if bytes.get(end + 1) == Some(&b':') {
                    keys.insert(json[i + 1..end].to_owned());
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    keys
}

/// Compares the key schema of a freshly produced trajectory line against
/// a committed `BENCH_*.json` snapshot. Every snapshot must carry a
/// `cores` key — wall-clock rows without the recording machine's
/// parallelism are uninterpretable.
///
/// # Errors
///
/// A human-readable reason when the snapshot is unreadable, the key sets
/// differ, or `cores` is missing.
pub fn check_snapshot_schema(snapshot_path: &str, json: &str) -> Result<(), String> {
    let snapshot = std::fs::read_to_string(snapshot_path)
        .map_err(|e| format!("{snapshot_path} unreadable: {e}"))?;
    let expected = json_keys(&snapshot);
    let actual = json_keys(json);
    if expected != actual {
        return Err(format!(
            "JSON schema drifted from {snapshot_path}: snapshot keys {expected:?}, run keys {actual:?}"
        ));
    }
    if !actual.contains("cores") {
        return Err(format!(
            "{snapshot_path}: trajectory JSON must record the machine's `cores`"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keys_extracts_only_keys() {
        let keys = json_keys("{\"a\":1,\"b\":{\"c\":[\"not_a_key\"]},\"d\":\"x\"}");
        let expected: std::collections::BTreeSet<String> =
            ["a", "b", "c", "d"].map(str::to_owned).into();
        assert_eq!(keys, expected);
    }

    #[test]
    fn dag_and_direct_runs_complete() {
        let dag = run_dag_brb(4, 2, NetworkModel::default(), 50);
        assert_eq!(dag.deliveries.len(), 8);
        let direct = run_direct_brb(4, 2, NetworkModel::default());
        assert_eq!(direct.deliveries.len(), 8);
    }

    #[test]
    fn offline_dag_shape() {
        let (dag, _) = build_offline_dag(4, 5, 8);
        assert_eq!(dag.len(), 20);
        assert!(dag.check_invariants());
    }

    #[test]
    fn offline_interpretation_shares_instances() {
        // The E8 workload: BRB traffic dies out after the delivery waves,
        // so the per-block deltas (`unique_instances`) hold far fewer
        // instances than the clone-per-block count (`instances`).
        use dagbft_core::Interpreter;
        let (dag, config) = build_offline_dag(4, 64, 10);
        let mut interpreter: Interpreter<Brb<u64>> = Interpreter::new(config);
        assert_eq!(interpreter.step(&dag), 256);
        let footprint = interpreter.footprint();
        assert_eq!(footprint.blocks, 256);
        assert!(
            footprint.unique_instances * 4 <= footprint.instances,
            "sharing must dominate on the quiescent tail: {} unique of {}",
            footprint.unique_instances,
            footprint.instances
        );
    }

    #[test]
    fn smr_run_completes() {
        let outcome = run_dag_smr(4, 4, 4);
        assert_eq!(outcome.deliveries.len(), 16);
    }

    #[test]
    fn byzantine_run_completes() {
        let outcome = run_dag_brb_with_role(4, 2, Role::Silent);
        assert_eq!(outcome.deliveries.len(), 6);
    }

    #[test]
    fn costs_extraction() {
        let outcome = run_dag_brb(4, 1, NetworkModel::default(), 50);
        let costs = dag_costs(&outcome, &brb_labels(1));
        assert_eq!(costs.deliveries, 4);
        assert!(costs.messages > 0);
        assert!(costs.mean_latency > 0.0);
    }
}
