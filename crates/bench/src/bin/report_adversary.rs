//! Experiment E12 (cost side): what byzantine behaviour costs the correct
//! servers, compared with a clean run of the same workload.
//!
//! Run with: `cargo run --release -p dagbft-bench --bin report_adversary`

use dagbft_bench::{f2, run_dag_brb, run_dag_brb_with_role};
use dagbft_core::Label;
use dagbft_sim::{NetworkModel, Role};

fn main() {
    let n = 4;
    let instances = 4;

    println!("# E12 — cost of byzantine roles (n = {n}, {instances} BRB instances)\n");
    println!(
        "| {:>12} | {:>10} | {:>9} | {:>10} | {:>8} | {:>9} |",
        "role", "deliveries", "sim time", "wire msgs", "FWDs", "mean lat."
    );
    println!("|{}|", "-".repeat(75));

    // Clean reference: all four servers correct.
    let clean = run_dag_brb(n, instances, NetworkModel::default(), 50);
    print_row(
        "clean",
        &clean.deliveries,
        clean.finished_at,
        clean.net.messages_sent,
        clean.net.fwd_sent,
        mean_latency(&clean),
    );

    for (name, role) in [
        ("silent", Role::Silent),
        ("equivocate", Role::Equivocate { at_seq: 0 }),
        (
            "selective",
            Role::SelectiveBroadcast {
                targets: [0].into_iter().collect(),
            },
        ),
        (
            "restart",
            Role::Restart {
                crash_at: 200,
                rejoin_at: 1_000,
            },
        ),
    ] {
        let outcome = run_dag_brb_with_role(n, instances, role);
        print_row(
            name,
            &outcome.deliveries,
            outcome.finished_at,
            outcome.net.messages_sent,
            outcome.net.fwd_sent,
            mean_latency(&outcome),
        );
    }

    println!(
        "\nReading: a silent server only removes its own deliveries; an\n\
         equivocator costs extra blocks on one fork; a selective sender forces\n\
         FWD recovery traffic; a restarting server is recovered from its\n\
         store — the journal replays, requests it had accepted are buffered\n\
         again — and rejoins at full speed. Safety held in all runs\n\
         (asserted by the corresponding integration tests)."
    );
}

fn mean_latency(outcome: &dagbft_sim::SimOutcome<dagbft_protocols::Brb<u64>>) -> f64 {
    let latencies: Vec<u64> = (0..1000u64)
        .map(Label::new)
        .flat_map(|l| outcome.latencies_for(l))
        .collect();
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
}

fn print_row(
    name: &str,
    deliveries: &[dagbft_sim::Delivery<dagbft_protocols::BrbIndication<u64>>],
    finished_at: u64,
    messages: u64,
    fwds: u64,
    latency: f64,
) {
    println!(
        "| {:>12} | {:>10} | {:>9} | {:>10} | {:>8} | {:>9} |",
        name,
        deliveries.len(),
        finished_at,
        messages,
        fwds,
        f2(latency)
    );
}
