//! The repository's single benchmark: request → indication over TCP,
//! seeded-sim capacity, recovery, and a per-layer stage replay.
//!
//! `benchmark --workload W --seed S --seconds T --trace 0|1` runs one
//! workload in this process and prints, as its last line, one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Without `--workload` it runs every workload,
//! each in a child process of its own so peak memory and allocator state
//! do not leak between them; `--repeat 2` runs that set twice and fails
//! if the sets disagree by more than the bounds. See README.md.

mod adapter;
mod inputs;
mod json;
mod reference;
mod schema;
mod stages;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use schema::{END_TO_END, PER_LAYER, WORKLOADS};
use trace::{Tracer, ROOT};
use workloads::{Measured, Metrics, Options, Scale, Timing};

#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    print_benchmark_json: bool,
    /// `recover`'s set-up, started by `recover` itself as a child process:
    /// journal the run into this directory and exit.
    journal_into: Option<PathBuf>,
}

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
                     [--repeat N] [--print-benchmark-json]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: inputs::DEFAULT_SEED,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
        print_benchmark_json: false,
        journal_into: None,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--repeat: not a positive count")?
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                cli.trace = match args.peek().map(|next| next.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            "--journal-into" => cli.journal_into = Some(value("a directory")?.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(name) = &cli.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name:?}; one of {names:?}"));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(reason) => {
            eprintln!("{reason}");
            return ExitCode::from(2);
        }
    };
    if cli.print_benchmark_json {
        print!("{}", schema::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = &cli.journal_into {
        let options = Options {
            seed: cli.seed,
            seconds: cli.seconds,
            scale: Scale::Full,
            scratch: dir.clone(),
        };
        return match workloads::journal_child(&options) {
            Ok(()) => ExitCode::SUCCESS,
            Err(reason) => {
                eprintln!("benchmark: {reason}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = match &cli.workload {
        Some(workload) => run_one(workload, &cli, Scale::Full).map(|report| {
            print!("{}", report.render());
            report.correct()
        }),
        None => run_all(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(reason) => {
            eprintln!("benchmark: {reason}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// One workload, in this process.

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
struct Report {
    workload: String,
    seed: u64,
    seconds: f64,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    timings: Vec<Timing>,
    end_to_end: Metrics,
    /// Empty unless traced.
    per_layer: Metrics,
    /// Where the spans went: set exactly when the run was traced.
    trace_file: Option<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    fn traced(&self) -> bool {
        self.trace_file.is_some()
    }

    /// The human-readable listing, ending in the one-line JSON result.
    fn render(&self) -> String {
        let mut out = format!(
            "# {} — seed {}, {} s measured, trace {}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.traced() as u8
        );
        for timing in &self.timings {
            let s = &timing.summary;
            out += &format!(
                "  timing  {:<44} n={:<6} q1={:<12.6} median={:<12.6} q3={:<12.6} {}\n",
                timing.name, s.n, s.q1, s.median, s.q3, timing.unit
            );
        }
        for metric in &END_TO_END {
            if let Some(value) = self.end_to_end.get(metric.name) {
                out += &format!("  {:<48} {:>16.6} {}\n", metric.name, value, metric.unit);
            }
        }
        for metric in &PER_LAYER {
            if let Some(value) = self.per_layer.get(metric.name) {
                out += &format!(
                    "  {:<48} {:>16.6} {:<6} moves {}\n",
                    metric.name, value, metric.unit, metric.moves
                );
            }
        }
        out += &format!(
            "  attempted {}  failed {}  correct {}\n",
            self.attempted,
            self.failed,
            self.correct()
        );
        for violation in &self.violations {
            out += &format!("  INCORRECT: {violation}\n");
        }
        if let Some(file) = &self.trace_file {
            out += &format!("  spans written to {file}\n");
        }
        out += &self.result_line();
        out.push('\n');
        out
    }

    /// The contract's last line: end-to-end metrics of an untraced run,
    /// per-layer metrics of a traced one.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = if self.traced() {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, self.per_layer.get(m.name)))
                .map(metric_json)
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, self.end_to_end.get(m.name)))
                .map(metric_json)
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_json((name, unit, value): (&str, &str, Option<&f64>)) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::quote(name),
        json::number(value.copied().unwrap_or(0.0)),
        json::quote(unit)
    )
}

fn run_one(workload: &str, cli: &Cli, scale: Scale) -> Result<Report, String> {
    let scratch = workloads::scratch_dir(workload)?;
    let options = Options {
        seed: cli.seed,
        seconds: cli.seconds,
        scale,
        scratch: scratch.clone(),
    };
    let report = run_in(workload, cli, &options);
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

fn run_in(workload: &str, cli: &Cli, options: &Options) -> Result<Report, String> {
    let mut tracer = Tracer::new(cli.trace);
    let run = tracer.open("run", ROOT);
    let mut per_layer = Metrics::new();
    let measured: Measured = if cli.trace {
        // A traced run measures twice at half length — spans off, spans
        // on — so the cost of tracing is itself a number, then replays
        // the traced half's artefacts through each layer.
        let half = options.seconds / 2.0;
        let part = |name: &str| Options {
            scratch: options.scratch.join(name),
            ..options.clone()
        };
        let untraced = workloads::measure(
            workload,
            &part("untraced"),
            half,
            &mut Tracer::new(false),
            ROOT,
        )?;
        let traced = workloads::measure(workload, &part("traced"), half, &mut tracer, run)?;
        per_layer.extend(PER_LAYER.iter().map(|m| (m.name, 0.0)));
        per_layer.extend(stages::replay(
            &traced.artefact,
            options.seed,
            &options.scratch,
            &mut tracer,
            run,
        )?);
        per_layer.extend(traced.per_layer.clone());
        // How fast the machine was while this ran: 25 ms in a calm minute.
        let reference_ms: Vec<f64> = (0..5).map(|_| reference::seconds() * 1e3).collect();
        per_layer.insert("bench.reference_ms", stats::median(&reference_ms));
        per_layer.insert(
            "bench.trace_overhead_share",
            (traced.primary - untraced.primary) / untraced.primary,
        );
        let mut merged = traced;
        merged.violations.extend(untraced.violations);
        merged.attempted += untraced.attempted;
        merged.failed += untraced.failed;
        merged
    } else {
        workloads::measure(workload, options, options.seconds, &mut tracer, run)?
    };
    tracer.close(run);

    let mut end_to_end = measured.end_to_end.clone();
    end_to_end.insert(schema::SETUP_S, stats::median(&measured.setup_s));
    end_to_end.insert(schema::PEAK_RSS_MB, measured.peak_rss_mb);
    let mut timings = measured.timings.clone();
    timings.push(Timing {
        name: "set-up",
        unit: "s",
        summary: stats::summarize(&measured.setup_s),
    });
    let trace_file = if cli.trace {
        let path = workloads::output_dir()?.join(format!("trace.{workload}.json"));
        std::fs::write(&path, tracer.to_json(workload, options.seed))
            .map_err(|e| format!("{path:?}: {e}"))?;
        Some(path.display().to_string())
    } else {
        None
    };
    Ok(Report {
        workload: workload.to_owned(),
        seed: options.seed,
        seconds: options.seconds,
        attempted: measured.attempted,
        failed: measured.failed,
        violations: measured.violations,
        timings,
        end_to_end,
        per_layer,
        trace_file,
    })
}

// ---------------------------------------------------------------------
// Every workload, each in a child process.

/// The result line of one child, parsed back.
#[derive(Debug, Clone, Default)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let value = json::parse(line)?;
    let field = |name: &str| value.get(name).ok_or(format!("result line lacks {name:?}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, metric)| {
            metric
                .get("value")
                .and_then(json::Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric {name:?} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(ChildResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
    })
}

fn run_child(workload: &str, cli: &Cli, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let last = stdout.lines().last().unwrap_or_default();
    parse_result_line(last).map_err(|e| format!("{workload} ({}): {e}", output.status))
}

/// Runs every workload `cli.repeat` times (untraced), once more traced if
/// asked, and checks repeated sets against each other. `Ok(false)` when a
/// run was incorrect or the sets disagree.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<BTreeMap<&str, ChildResult>> = Vec::new();
    for set in 0..cli.repeat {
        if cli.repeat > 1 {
            println!("## set {} of {}", set + 1, cli.repeat);
        }
        let mut results = BTreeMap::new();
        for workload in &WORKLOADS {
            let result = run_child(workload.name, cli, false)?;
            ok &= result.correct;
            results.insert(workload.name, result);
        }
        sets.push(results);
    }
    if cli.trace {
        println!("## traced");
        for workload in &WORKLOADS {
            ok &= run_child(workload.name, cli, true)?.correct;
        }
    }
    print!("{}", render_summary(&sets[0]));
    for (index, set) in sets.iter().enumerate().skip(1) {
        let disagreements = compare_sets(&sets[0], set);
        for line in &disagreements {
            println!("REPEAT FAILED (set 1 vs set {}): {line}", index + 1);
        }
        ok &= disagreements.is_empty();
    }
    if cli.repeat > 1 && ok {
        println!("REPEAT OK: {} sets agree within the bounds", cli.repeat);
    }
    Ok(ok)
}

fn render_summary(set: &BTreeMap<&str, ChildResult>) -> String {
    let mut out = format!("## end to end\n{:<28}", "metric");
    for workload in &WORKLOADS {
        out += &format!(" {:>14}", workload.name);
    }
    out.push('\n');
    for metric in &END_TO_END {
        out += &format!("{:<28}", format!("{} [{}]", metric.name, metric.unit));
        for workload in &WORKLOADS {
            let value = set[workload.name].metrics.get(metric.name).copied();
            out += &format!(" {:>14.4}", value.unwrap_or(f64::NAN));
        }
        out.push('\n');
    }
    out += &format!("{:<28}", "failed_share");
    for workload in &WORKLOADS {
        let result = &set[workload.name];
        out += &format!(
            " {:>14.4}",
            result.failed as f64 / result.attempted.max(1) as f64
        );
    }
    out.push('\n');
    out
}

/// Every end-to-end metric on which the two sets differ, in either
/// direction, by more than the metric's bound (exact metrics: at all).
/// Both sets ran the same code, so a large swing towards better is the
/// same noise as one towards worse.
fn compare_sets(
    first: &BTreeMap<&str, ChildResult>,
    second: &BTreeMap<&str, ChildResult>,
) -> Vec<String> {
    let mut disagreements = Vec::new();
    for workload in &WORKLOADS {
        let (a, b) = (&first[workload.name], &second[workload.name]);
        if (a.failed, a.attempted) != (b.failed, b.attempted) && a.failed + b.failed > 0 {
            disagreements.push(format!(
                "failed_share on {}: {}/{} then {}/{}",
                workload.name, a.failed, a.attempted, b.failed, b.attempted
            ));
        }
        for metric in &END_TO_END {
            let (Some(&x), Some(&y)) = (a.metrics.get(metric.name), b.metrics.get(metric.name))
            else {
                disagreements.push(format!("{} on {}: missing", metric.name, workload.name));
                continue;
            };
            let exact = schema::is_exact(metric.name, workload.name);
            let apart = (y - x).abs();
            let disagrees = if exact {
                x != y
            } else {
                apart > metric.bound * x.abs()
            };
            if disagrees {
                disagreements.push(format!(
                    "{} on {}: {x} then {y} {} (bound {}%{})",
                    metric.name,
                    workload.name,
                    metric.unit,
                    metric.bound * 100.0,
                    if exact { ", exact" } else { "" }
                ));
            }
        }
    }
    disagreements
}
