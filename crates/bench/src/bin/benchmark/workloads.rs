//! The five workloads: set-up, the measured part, and the correctness
//! checks that run on every run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Block, Cluster, Delivered, Journal, Label, Request, ServerEnd, SimEnd, SimNet, SimPlan,
    Transfer,
};
use crate::inputs::{self, Arrivals, Traffic};
use crate::json;
use crate::reference::Pacer;
use crate::schema;
use crate::stats::{self, Summary};
use crate::trace::{SpanId, Tracer, ROOT};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Full size, or the ~1/20 size the smoke tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    pub scale: Scale,
    /// A directory for journals that no other measured part uses (a node
    /// started over an old journal recovers from it); removed by the caller.
    pub scratch: PathBuf,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Live,
    Sim(SimNet),
    Recover(SimNet),
}

/// One workload's definition; `schema::WORKLOADS` holds the reasons.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: Kind,
    traffic: Traffic,
    /// SHA-256 of the default seed's requests at full size.
    pinned_inputs: &'static str,
}

const RELIABLE: SimNet = SimNet {
    latency_ms: 10,
    drop_rate: 0.0,
};

/// The payments shape: `sim_payments` measures it, `recover` journals it.
const PAYMENTS_TRAFFIC: Traffic = Traffic {
    servers: 4,
    requests: 4000,
    rate_per_s: 2000.0,
    arrivals: Arrivals::Poisson,
};

/// Rate of the live generator, requests per second.
const LIVE_RATE: f64 = 100.0;
/// How long after its last request is due the live run waits for
/// stragglers; a request not indicated everywhere by then has failed.
const LIVE_GRACE: Duration = Duration::from_secs(2);
/// Blocks between interpreter snapshots in the journaled run: its ~170
/// blocks leave a snapshot at 128 and a suffix of ~40 to replay.
const SNAPSHOT_EVERY: u64 = 64;

fn spec(workload: &str, seconds: f64) -> Option<Spec> {
    Some(match workload {
        "live_steady" => Spec {
            kind: Kind::Live,
            traffic: Traffic {
                servers: 4,
                requests: (LIVE_RATE * seconds).round().max(1.0) as usize,
                rate_per_s: LIVE_RATE,
                arrivals: Arrivals::Paced,
            },
            pinned_inputs: "6a80373abda4d07237efe3d776034fe8751194a2624f5621ec2aafd208ce7f38",
        },
        "sim_payments" => Spec {
            kind: Kind::Sim(RELIABLE),
            traffic: PAYMENTS_TRAFFIC,
            pinned_inputs: "2975e3356f1291a46af3a4f46cfde7c507e9cf7bbae01fb99fb5fe970d108d61",
        },
        "sim_trickle" => Spec {
            kind: Kind::Sim(RELIABLE),
            traffic: Traffic {
                servers: 7,
                requests: 60,
                rate_per_s: 20.0,
                arrivals: Arrivals::Poisson,
            },
            pinned_inputs: "c220d791c9b77109e88773428bed6ebc51ae3ea357557aa5b57d20354e876f93",
        },
        "sim_lossy" => Spec {
            kind: Kind::Sim(SimNet {
                latency_ms: 10,
                drop_rate: 0.2,
            }),
            traffic: Traffic {
                servers: 4,
                requests: 400,
                rate_per_s: 20.0,
                arrivals: Arrivals::Poisson,
            },
            pinned_inputs: "d062c2bea3d16601ff157818dab53ccf1e3596f76aa783d340ddccb75cbaac60",
        },
        "recover" => Spec {
            kind: Kind::Recover(RELIABLE),
            traffic: PAYMENTS_TRAFFIC,
            pinned_inputs: "2975e3356f1291a46af3a4f46cfde7c507e9cf7bbae01fb99fb5fe970d108d61",
        },
        _ => return None,
    })
}

/// One set of samples behind a reported number: printed with its median,
/// quartiles and count.
#[derive(Debug, Clone)]
pub struct Timing {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// What the measured part of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Every end-to-end metric except `setup_s` and `peak_rss_mb`.
    pub end_to_end: Metrics,
    /// Layer metrics only this workload's own run can supply.
    pub per_layer: Metrics,
    /// The timing `bench.trace_overhead_share` compares between the
    /// traced and the untraced half of a traced run.
    pub primary: f64,
    pub setup_s: Vec<f64>,
    /// The process's peak resident set when the measured part ended.
    pub peak_rss_mb: f64,
    pub timings: Vec<Timing>,
    pub attempted: u64,
    pub failed: u64,
    /// Broken correctness checks, in words. Empty means correct.
    pub violations: Vec<String>,
    pub artefact: Artefact,
}

/// What a run leaves for the checks and the stage replays.
#[derive(Debug, Clone, Default)]
pub struct Artefact {
    pub servers: usize,
    pub key_seed: u64,
    /// Server 0's final DAG, in insertion order.
    pub blocks: Vec<Block>,
    /// What server 0's user was handed.
    pub indicated: Vec<(Label, Transfer)>,
    pub requests: Vec<Request>,
    /// The simulated network the requests ran over (an instant, lossless
    /// one stands in for localhost).
    pub net: SimNet,
    /// The measured median latency, if the run was live.
    pub live_p50_ms: Option<f64>,
    /// Wall-clock seconds of one run of the workload.
    pub run_wall_s: f64,
    /// Cluster-wide messages the run put on the wire.
    pub messages_sent: u64,
}

/// The key and drop-schedule randomness of a run's `deployment`-th
/// deployment: derived from the seed here, meaningless to the program.
fn deployment_seed(seed: u64, deployment: usize) -> u64 {
    (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef).wrapping_add(deployment as u64)
}

/// One measured part to run: the traffic, how long, and at what scale.
struct Job<'a> {
    traffic: Traffic,
    pinned_inputs: &'static str,
    options: &'a Options,
    seconds: f64,
}

impl Job<'_> {
    /// Makes the requests from the seed and checks them against the pin.
    /// Part of every set-up round, so input generation is on the clock of
    /// `setup_s`.
    fn requests(&self) -> Result<Vec<Request>, String> {
        let requests = inputs::generate(self.traffic, self.options.seed);
        let pinned_size =
            self.options.scale == Scale::Full && self.seconds == schema::RUN_SECONDS as f64;
        inputs::check_pinned(
            self.pinned_inputs,
            self.options.seed,
            pinned_size,
            &requests,
        )?;
        Ok(requests)
    }

    fn smoke(&self) -> bool {
        self.options.scale == Scale::Smoke
    }

    /// One of the two half-length parts of a traced run.
    fn half(&self) -> bool {
        self.seconds < self.options.seconds
    }

    /// Set-up rounds and samples to take: `full` of them, or one when the
    /// run is a smoke test or a traced half.
    fn rounds(&self, full: usize) -> usize {
        if self.smoke() || self.half() {
            1
        } else {
            full
        }
    }
}

/// Runs the measured part of `workload` once. `seconds` may be a share of
/// `options.seconds`: a traced run measures twice at half length.
pub fn measure(
    workload: &str,
    options: &Options,
    seconds: f64,
    tracer: &mut Tracer,
    run: SpanId,
) -> Result<Measured, String> {
    let spec = spec(workload, seconds).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let mut traffic = spec.traffic;
    if options.scale == Scale::Smoke && !matches!(spec.kind, Kind::Live) {
        traffic.requests /= 20;
    }
    let job = Job {
        traffic,
        pinned_inputs: spec.pinned_inputs,
        options,
        seconds,
    };
    let mut measured = match spec.kind {
        Kind::Live => live(&job, tracer, run)?,
        Kind::Sim(net) => sim(&job, net, tracer, run)?,
        Kind::Recover(net) => recover(&job, net, tracer, run)?,
    };
    // Read before the check below builds an interpreter of its own.
    measured.peak_rss_mb = peak_rss_mb()?;
    check_run(&mut measured, tracer, run)?;
    Ok(measured)
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_owned())
}

// ---------------------------------------------------------------------
// live_steady

/// How often the generator looks at the servers' indication channels.
const POLL_EVERY: Duration = Duration::from_micros(500);
/// Times the cluster is set up; the last one is used.
const LIVE_SETUPS: usize = 5;
/// Idle time between the cluster coming up and the first request, so
/// connections are dialled and the first empty blocks exchanged. Part
/// of the set-up: a run waits this long before it can measure.
const LIVE_WARMUP: Duration = Duration::from_millis(400);

struct Pending<'a> {
    due: Instant,
    requested: &'a Transfer,
    indicated_at: Vec<Option<Instant>>,
    value_ok: bool,
}

fn live(job: &Job, tracer: &mut Tracer, run: SpanId) -> Result<Measured, String> {
    let n = job.traffic.servers;
    let key_seed = deployment_seed(job.options.seed, 0);
    let mut measured = Measured::default();

    let mut set_up = None;
    let mut spawned_at = Instant::now();
    for round in 0..job.rounds(LIVE_SETUPS) {
        if let Some((_, previous)) = set_up.take() {
            Cluster::stop(previous);
        }
        let dir = job.options.scratch.join(format!("live{round}"));
        spawned_at = Instant::now();
        let (made, _, seconds) = tracer.time("setup", run, n as u64, || {
            let made = (job.requests()?, Cluster::spawn(n, key_seed, &dir)?);
            std::thread::sleep(LIVE_WARMUP);
            Ok::<_, String>(made)
        });
        set_up = Some(made?);
        measured.setup_s.push(seconds);
    }
    let (requests, cluster) = set_up.expect("set up at least once");
    let requests = &requests[..];

    // The open loop: one thread submits each request when it is due —
    // whatever the cluster is doing — and polls the indication channels.
    let start = Instant::now();
    let mut pending: BTreeMap<Label, Pending> = BTreeMap::new();
    let mut order: Vec<Label> = Vec::with_capacity(requests.len());
    let mut lateness_ms = Vec::with_capacity(requests.len());
    let mut indicated0 = Vec::new();
    let mut stray = 0u64;
    let mut next = 0;
    let mut complete = 0;
    let last_due = start + Duration::from_micros(requests.last().map_or(0, |r| r.due_us));
    let deadline = last_due + LIVE_GRACE;
    loop {
        let now = Instant::now();
        while next < requests.len() {
            let request = &requests[next];
            let due = start + Duration::from_micros(request.due_us);
            if due > now {
                break;
            }
            cluster.request(request.server, &request.transfer);
            let submitted = Instant::now();
            lateness_ms.push(submitted.duration_since(due).as_secs_f64() * 1e3);
            let label = request.transfer.label();
            order.push(label);
            pending.insert(
                label,
                Pending {
                    due,
                    requested: &request.transfer,
                    indicated_at: vec![None; n],
                    value_ok: true,
                },
            );
            next += 1;
        }
        for server in 0..n {
            while let Some((label, transfer)) = cluster.poll(server) {
                let at = Instant::now();
                if server == 0 {
                    indicated0.push((label, transfer.clone()));
                }
                match pending.get_mut(&label) {
                    Some(entry) if entry.indicated_at[server].is_none() => {
                        entry.indicated_at[server] = Some(at);
                        entry.value_ok &= transfer == *entry.requested;
                        if entry.indicated_at.iter().all(Option::is_some) {
                            complete += 1;
                        }
                    }
                    // Indicated twice, or never requested.
                    _ => stray += 1,
                }
            }
        }
        if (next == requests.len() && complete == requests.len()) || now >= deadline {
            break;
        }
        std::thread::sleep(POLL_EVERY);
    }
    let ends = cluster.stop();
    let wall_s = spawned_at.elapsed().as_secs_f64();

    // Account for every request: completed in time, or failed.
    let mut latency_ms = Vec::with_capacity(order.len());
    let mut spread_ms = Vec::with_capacity(order.len());
    let mut last_completion = start;
    let mut wrong_value = 0u64;
    for (label, request) in order.iter().zip(requests) {
        let entry = &pending[label];
        let stamps: Vec<Instant> = entry.indicated_at.iter().flatten().copied().collect();
        if stamps.len() < n {
            continue;
        }
        let first = *stamps.iter().min().expect("n ≥ 1");
        let last = *stamps.iter().max().expect("n ≥ 1");
        if !entry.value_ok {
            wrong_value += 1;
        }
        last_completion = last_completion.max(last);
        latency_ms.push(last.duration_since(entry.due).as_secs_f64() * 1e3);
        spread_ms.push(last.duration_since(first).as_secs_f64() * 1e3);
        tracer.record("request", run, entry.due, last, request.server as u64);
    }
    let completed = latency_ms.len();
    measured.attempted = requests.len() as u64;
    measured.failed = (requests.len() - completed) as u64;
    if stray > 0 {
        measured.violations.push(format!(
            "{stray} indications for a label twice or never requested"
        ));
    }
    if wrong_value > 0 {
        measured.violations.push(format!(
            "{wrong_value} labels indicated with a value other than the one requested"
        ));
    }
    if completed == 0 {
        return Err("live_steady: no request completed at every server".to_owned());
    }

    let window_s = last_completion.duration_since(start).as_secs_f64();
    let blocks: usize = ends.iter().map(|end| end.blocks.len()).sum();
    let messages: u64 = ends
        .iter()
        .map(|end| {
            end.gossip.blocks_built * (n as u64 - 1) + end.gossip.fwd_sent + end.gossip.fwd_answered
        })
        .sum();
    let bytes: u64 = ends
        .iter()
        .enumerate()
        .map(|(me, end)| end.broadcast_bytes(me, n))
        .sum();
    let e2e = &mut measured.end_to_end;
    e2e.insert(schema::LATENCY_P50_MS, stats::quantile(&latency_ms, 0.5));
    e2e.insert(schema::LATENCY_P90_MS, stats::quantile(&latency_ms, 0.9));
    e2e.insert(schema::TRANSFERS_PER_S, completed as f64 / window_s);
    e2e.insert(
        schema::MSGS_PER_TRANSFER,
        messages as f64 / completed as f64,
    );
    e2e.insert(schema::BYTES_PER_TRANSFER, bytes as f64 / completed as f64);
    measured.primary = stats::quantile(&latency_ms, 0.5);

    let layer = &mut measured.per_layer;
    layer.insert(
        "transport.node.latency_p99_ms",
        stats::quantile(&latency_ms, 0.99),
    );
    layer.insert(
        "transport.node.latency_max_ms",
        stats::quantile(&latency_ms, 1.0),
    );
    layer.insert(
        "transport.node.indication_spread_p50_ms",
        stats::quantile(&spread_ms, 0.5),
    );
    layer.insert(
        "transport.node.blocks_per_s",
        blocks as f64 / wall_s / n as f64,
    );
    layer.insert(
        "bench.generator_late_p99_ms",
        stats::quantile(&lateness_ms, 0.99),
    );
    layer.insert(
        "bench.generator_late_max_ms",
        stats::quantile(&lateness_ms, 1.0),
    );
    layer.extend(gossip_counts(&ends, completed));

    measured.timings.push(Timing {
        name: "request → indicated at all servers",
        unit: "ms",
        summary: stats::summarize(&latency_ms),
    });
    measured.timings.push(Timing {
        name: "generator lateness",
        unit: "ms",
        summary: stats::summarize(&lateness_ms),
    });
    check_servers(&ends, &mut measured.violations);
    measured.artefact = Artefact {
        servers: n,
        key_seed,
        blocks: ends
            .into_iter()
            .next()
            .map(|end| end.blocks)
            .unwrap_or_default(),
        indicated: indicated0,
        requests: requests.to_vec(),
        net: SimNet::default(),
        live_p50_ms: Some(stats::quantile(&latency_ms, 0.5)),
        run_wall_s: wall_s,
        messages_sent: messages,
    };
    Ok(measured)
}

/// The gossip counters every workload's run supplies.
fn gossip_counts(ends: &[ServerEnd], transfers: usize) -> Metrics {
    let sum = |field: fn(&ServerEnd) -> u64| ends.iter().map(field).sum::<u64>() as f64;
    let received = sum(|end| end.gossip.blocks_received);
    let mut metrics = Metrics::new();
    metrics.insert(
        "core.gossip.wave_mean_width",
        ends.iter().map(|end| end.wave_mean_width).sum::<f64>() / ends.len().max(1) as f64,
    );
    metrics.insert(
        "core.gossip.pending_peak",
        ends.iter()
            .map(|end| end.gossip.pending_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    metrics.insert(
        "core.gossip.fwd_per_transfer",
        sum(|end| end.gossip.fwd_sent) / transfers.max(1) as f64,
    );
    metrics.insert(
        "core.gossip.duplicate_share",
        if received > 0.0 {
            sum(|end| end.gossip.duplicate_blocks) / received
        } else {
            0.0
        },
    );
    metrics
}

fn check_servers(ends: &[ServerEnd], violations: &mut Vec<String>) {
    for (index, end) in ends.iter().enumerate() {
        if !end.invariants_hold {
            violations.push(format!("server {index}'s final DAG breaks its invariants"));
        }
    }
}

// ---------------------------------------------------------------------
// sim_payments, sim_trickle, sim_lossy

/// Deployments a simulated workload cycles through, one per repeat: the
/// same requests under different keys and — where the network drops
/// messages — different drop schedules. Latency under 20% loss differs by
/// 10–15% from one drop schedule to the next; pooled over eight it is a
/// property of the workload again. A full-length run makes at least one
/// repeat per deployment.
const DEPLOYMENTS: usize = 8;

/// Set-up rounds of a simulated workload; the last one's inputs are used.
const SIM_SETUPS: usize = 5;

fn sim(job: &Job, net: SimNet, tracer: &mut Tracer, run: SpanId) -> Result<Measured, String> {
    let n = job.traffic.servers;
    let mut measured = Measured::default();
    // Set-up is everything before the first counted repeat: the inputs,
    // the simulation built from them, and one uncounted run of it, which
    // grows the heap to the workload's size and pays for whatever the
    // program initialises on first use. Set-up rounds and repeats are
    // timed on the wall clock and put on the clock of a machine at
    // nominal speed by the reference kernel timed around each of them.
    let mut pacer = Pacer::start();
    let mut requests = Vec::new();
    for _ in 0..job.rounds(SIM_SETUPS) {
        let (made, _, seconds) = tracer.time("setup", run, job.traffic.requests as u64, || {
            let requests = job.requests()?;
            let plan = SimPlan {
                n,
                seed: deployment_seed(job.options.seed, 0),
                net,
                requests: &requests,
            };
            drop(adapter::prepare_sim(plan).run());
            Ok::<_, String>(requests)
        });
        requests = made?;
        measured.setup_s.push(pacer.at_nominal(seconds));
    }
    let requests = &requests[..];
    let transfers = requests.len();

    // Runs repeat until the time is used up.
    let mut paced = Vec::new();
    let mut ends: Vec<Option<SimEnd>> = vec![None; job.rounds(DEPLOYMENTS)];
    let mut walls = Vec::new();
    let mut blocks_per_s = Vec::new();
    let budget_s = if job.smoke() { 0.0 } else { job.seconds };
    while walls.len() < ends.len() || walls.iter().sum::<f64>() < budget_s {
        let deployment = walls.len() % ends.len();
        let plan = SimPlan {
            n,
            seed: deployment_seed(job.options.seed, deployment),
            net,
            requests,
        };
        let prepared = adapter::prepare_sim(plan);
        let (end, _, wall_s) = tracer.time("sim.run", run, transfers as u64, || prepared.run());
        let paced_s = pacer.at_nominal(wall_s);
        walls.push(wall_s);
        paced.push(paced_s);
        blocks_per_s.push(end.blocks() as f64 / paced_s);
        match &ends[deployment] {
            None => {
                measured.attempted += transfers as u64;
                measured.failed +=
                    check_deliveries(&end.deliveries, requests, n, &mut measured.violations);
                check_servers(&end.servers, &mut measured.violations);
                ends[deployment] = Some(end);
            }
            Some(first) => {
                let same = first.messages_sent == end.messages_sent
                    && first.bytes_sent == end.bytes_sent
                    && first.finished_at_ms == end.finished_at_ms
                    && first.deliveries == end.deliveries;
                if !same {
                    measured.violations.push(format!(
                        "two runs of deployment {deployment} of the same simulation differ"
                    ));
                }
            }
        }
    }
    let ends: Vec<SimEnd> = ends.into_iter().flatten().collect();

    // Counts and simulated latencies: exact, pooled over the deployments.
    let latencies: Vec<u64> = ends
        .iter()
        .flat_map(|end| sim_latencies_ms(&end.deliveries, requests, n))
        .collect();
    let pooled_transfers = (transfers * ends.len()) as f64;
    let sum = |field: fn(&SimEnd) -> u64| ends.iter().map(field).sum::<u64>() as f64;
    let wall = stats::summarize(&walls);
    let at_nominal = stats::summarize(&paced);
    let e2e = &mut measured.end_to_end;
    e2e.insert(
        schema::LATENCY_P50_MS,
        stats::binned_quantile_ms(&latencies, 0.5),
    );
    e2e.insert(
        schema::LATENCY_P90_MS,
        stats::binned_quantile_ms(&latencies, 0.9),
    );
    e2e.insert(
        schema::TRANSFERS_PER_S,
        transfers as f64 / at_nominal.median,
    );
    e2e.insert(
        schema::MSGS_PER_TRANSFER,
        sum(|end| end.messages_sent) / pooled_transfers,
    );
    e2e.insert(
        schema::BYTES_PER_TRANSFER,
        sum(|end| end.bytes_sent) / pooled_transfers,
    );
    measured.primary = at_nominal.median;

    let first = ends.first().ok_or("no simulation run finished")?;
    let layer = &mut measured.per_layer;
    layer.extend(gossip_counts(&first.servers, transfers));
    layer.insert(
        "crypto.verifies_per_block",
        first.verifications as f64 / first.blocks().max(1) as f64,
    );
    layer.insert(
        "crypto.batch_mean_width",
        if first.verify_batches > 0 {
            first.batched_verifications as f64 / first.verify_batches as f64
        } else {
            0.0
        },
    );
    layer.insert("sim.blocks_per_s", stats::median(&blocks_per_s));
    layer.insert("bench.repeat_iqr_share", at_nominal.iqr_share());
    for (name, summary) in [
        ("Simulation::run", wall),
        ("Simulation::run at reference speed", at_nominal),
    ] {
        measured.timings.push(Timing {
            name,
            unit: "s",
            summary,
        });
    }
    measured.artefact = Artefact {
        servers: n,
        key_seed: deployment_seed(job.options.seed, 0),
        blocks: first
            .servers
            .first()
            .map(|s| s.blocks.clone())
            .unwrap_or_default(),
        indicated: indications_of(&first.deliveries, 0),
        requests: requests.to_vec(),
        net,
        live_p50_ms: None,
        run_wall_s: wall.median,
        messages_sent: first.messages_sent,
    };
    Ok(measured)
}

fn indications_of(deliveries: &[Delivered], server: usize) -> Vec<(Label, Transfer)> {
    deliveries
        .iter()
        .filter(|delivery| delivery.server == server)
        .map(|delivery| (delivery.label, delivery.transfer.clone()))
        .collect()
}

/// Simulated milliseconds from each request to the last server's
/// indication of it, for the requests every server indicated.
pub fn sim_latencies_ms(deliveries: &[Delivered], requests: &[Request], n: usize) -> Vec<u64> {
    let mut last: BTreeMap<Label, (usize, u64)> = BTreeMap::new();
    for delivery in deliveries {
        let entry = last.entry(delivery.label).or_insert((0, 0));
        entry.0 += 1;
        entry.1 = entry.1.max(delivery.at_ms);
    }
    requests
        .iter()
        .filter_map(|request| {
            let (count, at_ms) = *last.get(&request.transfer.label())?;
            (count >= n).then(|| at_ms.saturating_sub(request.due_us / 1000))
        })
        .collect()
}

/// Every label indicated exactly once per server, with the requested
/// value everywhere; the delivered set settles completely. Records what
/// broke and returns how many requests some server never indicated.
fn check_deliveries(
    deliveries: &[Delivered],
    requests: &[Request],
    n: usize,
    violations: &mut Vec<String>,
) -> u64 {
    let mut slots: BTreeMap<Label, Vec<Option<&Transfer>>> = requests
        .iter()
        .map(|request| (request.transfer.label(), vec![None; n]))
        .collect();
    let mut broken: BTreeSet<Label> = BTreeSet::new();
    for delivery in deliveries {
        match slots.get_mut(&delivery.label) {
            Some(slot) if delivery.server < n && slot[delivery.server].is_none() => {
                slot[delivery.server] = Some(&delivery.transfer);
            }
            _ => {
                broken.insert(delivery.label);
            }
        }
    }
    let mut missing = 0u64;
    for request in requests {
        let slot = &slots[&request.transfer.label()];
        if slot.iter().any(Option::is_none) {
            missing += 1;
        } else if slot.iter().any(|value| *value != Some(&request.transfer)) {
            broken.insert(request.transfer.label());
        }
    }
    if !broken.is_empty() {
        violations.push(format!(
            "{} labels indicated twice, unrequested, or with a value other than the one requested",
            broken.len()
        ));
    }
    if missing == 0 {
        let at_zero: Vec<Transfer> = indications_of(deliveries, 0)
            .into_iter()
            .map(|(_, transfer)| transfer)
            .collect();
        if !adapter::settles_completely(at_zero, requests.len()) {
            violations.push("the delivered transfers do not all settle".to_owned());
        }
    }
    missing
}

// ---------------------------------------------------------------------
// recover

/// Times the journaled run is set up; the last journal is recovered from.
const RECOVER_SETUPS: usize = 5;
/// Fewest recoveries a full-length run takes its median over.
const MIN_RECOVERIES: usize = 7;
/// What the journaled run writes beside the journal, for its parent.
const JOURNALED_FILE: &str = "journaled.json";

/// What the journaled run leaves for the recoveries that follow, beside
/// the journal itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Journaled {
    /// Broken correctness checks of the journaled run, in words.
    pub violations: Vec<String>,
    /// Requests some server never indicated.
    pub undelivered: u64,
    /// Server 0's final DAG: its size and [`dag_digest`].
    pub dag_blocks: usize,
    pub dag_digest: String,
    pub next_seq: u64,
    /// The run's [`gossip_counts`].
    pub gossip: Metrics,
    pub run_wall_s: f64,
    pub messages_sent: u64,
}

/// SHA-256 over a DAG's sorted block identities.
fn dag_digest(sorted_ids: &[adapter::BlockId]) -> String {
    adapter::sha256_hex(&sorted_ids.concat())
}

impl Journaled {
    pub fn to_json(&self) -> String {
        let violations: Vec<String> = self.violations.iter().map(|v| json::quote(v)).collect();
        let gossip: Vec<String> = self
            .gossip
            .iter()
            .map(|(name, value)| format!("{}: {}", json::quote(name), json::number(*value)))
            .collect();
        format!(
            "{{\"violations\": [{}], \"undelivered\": {}, \"dag_blocks\": {}, \"dag_digest\": {}, \
             \"next_seq\": {}, \"gossip\": {{{}}}, \"run_wall_s\": {}, \"messages_sent\": {}}}\n",
            violations.join(", "),
            self.undelivered,
            self.dag_blocks,
            json::quote(&self.dag_digest),
            self.next_seq,
            gossip.join(", "),
            json::number(self.run_wall_s),
            self.messages_sent,
        )
    }

    pub fn from_json(text: &str) -> Result<Journaled, String> {
        let value = json::parse(text)?;
        let field = |name: &str| value.get(name).ok_or(format!("no {name:?}"));
        let number = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or(format!("{name:?} is not a number"))
        };
        let violations = field("violations")?
            .as_array()
            .ok_or("\"violations\" is not a list")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or("a violation is not text")
            })
            .collect::<Result<_, _>>()?;
        let gossip = field("gossip")?;
        Ok(Journaled {
            violations,
            undelivered: number("undelivered")? as u64,
            dag_blocks: number("dag_blocks")? as usize,
            dag_digest: field("dag_digest")?
                .as_str()
                .ok_or("\"dag_digest\" is not text")?
                .to_owned(),
            next_seq: number("next_seq")? as u64,
            gossip: schema::PER_LAYER
                .iter()
                .filter_map(|m| Some((m.name, gossip.get(m.name)?.as_f64()?)))
                .collect(),
            run_wall_s: number("run_wall_s")?,
            messages_sent: number("messages_sent")? as u64,
        })
    }
}

/// The set-up of `recover`: runs the payments simulation with server 0
/// journaling into `dir`, checks the run, and writes what it found to
/// `dir/journaled.json`.
fn write_journal(job: &Job, net: SimNet, dir: &Path) -> Result<Journaled, String> {
    let n = job.traffic.servers;
    let requests = job.requests()?;
    let plan = SimPlan {
        n,
        seed: deployment_seed(job.options.seed, 0),
        net,
        requests: &requests,
    };
    let prepared = adapter::prepare_sim(plan).journal_server0(dir, SNAPSHOT_EVERY)?;
    let run_start = Instant::now();
    let end = prepared.run();
    let run_wall_s = run_start.elapsed().as_secs_f64();

    let server0 = end
        .servers
        .first()
        .ok_or("recover: server 0 did not survive")?;
    let mut ids: Vec<_> = server0.blocks.iter().map(adapter::block_id).collect();
    ids.sort_unstable();
    let mut checked = Measured::default();
    checked.failed = check_deliveries(&end.deliveries, &requests, n, &mut checked.violations);
    check_servers(&end.servers, &mut checked.violations);
    checked.artefact = Artefact {
        servers: n,
        blocks: server0.blocks.clone(),
        indicated: indications_of(&end.deliveries, 0),
        requests: requests.clone(),
        ..Artefact::default()
    };
    check_run(&mut checked, &mut Tracer::new(false), ROOT)?;
    let journaled = Journaled {
        violations: checked.violations,
        undelivered: checked.failed,
        dag_blocks: ids.len(),
        dag_digest: dag_digest(&ids),
        next_seq: server0.next_seq,
        gossip: gossip_counts(&end.servers, requests.len()),
        run_wall_s,
        messages_sent: end.messages_sent,
    };
    let path = dir.join(JOURNALED_FILE);
    std::fs::write(&path, journaled.to_json()).map_err(|e| format!("{path:?}: {e}"))?;
    Ok(journaled)
}

/// `benchmark --workload recover … --journal-into DIR`: the set-up of
/// `recover` as a process of its own, journaling into `options.scratch`.
pub fn journal_child(options: &Options) -> Result<(), String> {
    let Some(Spec {
        kind: Kind::Recover(net),
        traffic,
        pinned_inputs,
    }) = spec("recover", options.seconds)
    else {
        return Err("recover is not a journaled workload".to_owned());
    };
    let job = Job {
        traffic,
        pinned_inputs,
        options,
        seconds: options.seconds,
    };
    write_journal(&job, net, &options.scratch).map(drop)
}

/// Runs [`write_journal`] in a child process, so that the simulator's
/// heap (larger than anything recovery allocates) never counts towards
/// this process's peak memory. A smoke test runs it in place: the test
/// binary is not the benchmark and cannot be started as one.
fn journal_in_child(job: &Job, net: SimNet, dir: &Path) -> Result<Journaled, String> {
    if job.smoke() {
        return write_journal(job, net, dir);
    }
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", "recover"])
        .args(["--seed", &job.options.seed.to_string()])
        .args(["--seconds", &job.options.seconds.to_string()])
        .arg("--journal-into")
        .arg(dir)
        .status()
        .map_err(|e| format!("starting the journaled run: {e}"))?;
    if !status.success() {
        return Err(format!("the journaled run ended with {status}"));
    }
    let path = dir.join(JOURNALED_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
    Journaled::from_json(&text).map_err(|e| format!("{path:?}: {e}"))
}

fn recover(job: &Job, net: SimNet, tracer: &mut Tracer, run: SpanId) -> Result<Measured, String> {
    let n = job.traffic.servers;
    let seed = deployment_seed(job.options.seed, 0);
    let mut measured = Measured::default();

    // Set-up: the run that writes server 0's journal.
    let mut set_up = None;
    for round in 0..job.rounds(RECOVER_SETUPS) {
        let dir = job.options.scratch.join(format!("journal{round}"));
        let (made, _, seconds) = tracer.time("setup", run, job.traffic.requests as u64, || {
            Ok::<_, String>((job.requests()?, journal_in_child(job, net, &dir)?))
        });
        let (requests, journaled) = made?;
        measured.setup_s.push(seconds);
        set_up = Some((requests, journaled, dir));
    }
    let (requests, journaled, dir) = set_up.expect("set up at least once");
    if journaled.undelivered > 0 {
        return Err(format!(
            "recover: the journaled run left {} requests undelivered",
            journaled.undelivered
        ));
    }
    measured.violations.extend(journaled.violations.clone());
    let journal_bytes = adapter::journal_bytes(&dir);
    let registry = adapter::key_registry(n, seed);

    // Measured: reopen the directory and recover a shim from it.
    let mut open_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut total_ms = Vec::new();
    let mut last = None;
    let min = job.rounds(MIN_RECOVERIES);
    let budget_ms = if job.smoke() { 0.0 } else { job.seconds * 1e3 };
    while total_ms.len() < min || total_ms.iter().sum::<f64>() < budget_ms {
        let blocks = journaled.dag_blocks as u64;
        let (journal, open_span, opened_in) =
            tracer.time("store.open", run, blocks, || Journal::open(&dir));
        let journal = journal?;
        let (recovered, _, recovered_in) =
            tracer.time("core.shim.recover", open_span, blocks, || {
                journal.recover(&registry, n)
            });
        measured.attempted += 1;
        open_s.push(opened_in);
        recover_s.push(recovered_in);
        total_ms.push((opened_in + recovered_in) * 1e3);
        match recovered.map(adapter::RecoveredShim::into_summary) {
            Ok(recovered) => {
                let sound = dag_digest(&recovered.ids) == journaled.dag_digest
                    && recovered.invariants_hold
                    && recovered.next_seq >= journaled.next_seq
                    && recovered.journal_blocks == journaled.dag_blocks
                    && recovered.snapshot_covered + recovered.replayed_blocks
                        == recovered.journal_blocks
                    && recovered.truncated_records == 0
                    && adapter::journal_bytes(&dir) == journal_bytes;
                if !sound {
                    measured.failed += 1;
                    measured.violations.push(format!(
                        "recovery {}: DAG of {} blocks (journaled {}), next_seq {} (was {}), \
                         {} covered + {} replayed",
                        total_ms.len(),
                        recovered.ids.len(),
                        journaled.dag_blocks,
                        recovered.next_seq,
                        journaled.next_seq,
                        recovered.snapshot_covered,
                        recovered.replayed_blocks,
                    ));
                }
                last = Some(recovered);
            }
            Err(reason) => {
                measured.failed += 1;
                measured.violations.push(reason);
            }
        }
    }
    let recovered = last.ok_or("recover: no recovery succeeded")?;
    let transfers = requests.len() as f64;
    let median_s = stats::median(&total_ms) / 1e3;
    let e2e = &mut measured.end_to_end;
    e2e.insert(schema::LATENCY_P50_MS, stats::quantile(&total_ms, 0.5));
    e2e.insert(schema::LATENCY_P90_MS, stats::quantile(&total_ms, 0.9));
    e2e.insert(schema::TRANSFERS_PER_S, transfers / median_s);
    e2e.insert(
        schema::MSGS_PER_TRANSFER,
        recovered.journal_blocks as f64 / transfers,
    );
    e2e.insert(schema::BYTES_PER_TRANSFER, journal_bytes as f64 / transfers);
    measured.primary = median_s;

    let layer = &mut measured.per_layer;
    layer.extend(journaled.gossip.clone());
    layer.insert(
        "core.shim.replayed_blocks",
        recovered.replayed_blocks as f64,
    );
    layer.insert(
        "core.shim.snapshot_covered_blocks",
        recovered.snapshot_covered as f64,
    );
    layer.insert(
        "core.shim.requests_rebuffered",
        recovered.requests_rebuffered as f64,
    );
    layer.insert("store.open_ms", stats::median(&open_s) * 1e3);
    layer.insert(
        "store.journal_bytes_per_block",
        journal_bytes as f64 / recovered.journal_blocks.max(1) as f64,
    );
    layer.insert(
        "bench.repeat_iqr_share",
        stats::summarize(&total_ms).iqr_share(),
    );
    for (name, unit, samples) in [
        ("open + recover", "ms", &total_ms),
        ("FileStore::open_dir", "s", &open_s),
        ("recover_from_store_with_snapshots", "s", &recover_s),
    ] {
        measured.timings.push(Timing {
            name,
            unit,
            summary: stats::summarize(samples),
        });
    }
    // The journaled run indicated every request exactly once, as
    // requested, at every server (or `journaled.violations` says not): so
    // that is what server 0's user was handed, and what re-interpreting
    // the *recovered* DAG has to reproduce.
    measured.artefact = Artefact {
        servers: n,
        key_seed: seed,
        blocks: recovered.blocks,
        indicated: requests
            .iter()
            .map(|request| (request.transfer.label(), request.transfer.clone()))
            .collect(),
        requests,
        net,
        live_p50_ms: None,
        run_wall_s: journaled.run_wall_s,
        messages_sent: journaled.messages_sent,
    };
    Ok(measured)
}

// ---------------------------------------------------------------------
// Checks common to every workload.

/// Lemma 4.2 on the run's artefact: a fresh interpreter stepped over
/// server 0's final DAG indicates, for server 0, exactly what that
/// server's user was handed.
fn check_run(measured: &mut Measured, tracer: &mut Tracer, run: SpanId) -> Result<(), String> {
    let artefact = &measured.artefact;
    let dag = adapter::Dag::of(&artefact.blocks)?;
    let mut replay = adapter::Replay::new(artefact.servers);
    let (interpreted, _, _) = tracer.time(
        "check.reinterpret",
        run,
        artefact.blocks.len() as u64,
        || replay.run(&dag),
    );
    if interpreted != artefact.blocks.len() {
        measured.violations.push(format!(
            "re-interpretation covered {interpreted} of {} blocks",
            artefact.blocks.len()
        ));
    }
    let mut replayed: BTreeMap<Label, Transfer> = BTreeMap::new();
    let mut twice = 0;
    for (label, transfer) in replay.indications_of(0) {
        if replayed.insert(label, transfer).is_some() {
            twice += 1;
        }
    }
    let requested: BTreeMap<Label, &Transfer> = artefact
        .requests
        .iter()
        .map(|request| (request.transfer.label(), &request.transfer))
        .collect();
    let unrequested = replayed
        .iter()
        .filter(|(label, transfer)| requested.get(label) != Some(transfer))
        .count();
    let unexplained = artefact
        .indicated
        .iter()
        .filter(|(label, transfer)| replayed.get(label) != Some(transfer))
        .count();
    // A live server may raise its last indications between the
    // generator's final poll and the stop; the simulator hands over all.
    let unseen = replayed.len().saturating_sub(artefact.indicated.len());
    let all_seen = artefact.live_p50_ms.is_some() || measured.failed > 0 || unseen == 0;
    if twice > 0 || unrequested > 0 || unexplained > 0 || !all_seen {
        measured.violations.push(format!(
            "re-interpreting server 0's DAG: {twice} labels indicated twice, {unrequested} not as \
             requested, {unexplained} handed to the user but not reproduced, {unseen} reproduced \
             but never handed over"
        ));
    }
    Ok(())
}

/// Where a run writes — journals while it runs, `trace.<workload>.json`
/// when it ends: a directory beside the executable, so inside the build
/// directory, which is inside the checkout and already ignored by git.
pub fn output_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let beside = exe.parent().ok_or("the executable has no directory")?;
    Ok(beside.join("benchmark-output"))
}

/// A fresh directory for one run's journals.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = output_dir()?.join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir:?}: {e}"))?;
    Ok(dir)
}
