//! Smoke tests: every workload at ~1/20 size, the printed schema against
//! `BENCHMARK.json`, and the trace file. No timing is asserted.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, Value};
use crate::schema::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::{Journaled, Scale};
use crate::{compare_sets, parse_cli, parse_result_line, run_one, ChildResult, Cli};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

fn smoke_cli(trace: bool) -> Cli {
    Cli {
        workload: None,
        seed: 7,
        // One second of live traffic: 100 requests, 1/20 of the issue's 2000.
        seconds: 1.0,
        trace,
        repeat: 1,
        print_benchmark_json: false,
        journal_into: None,
    }
}

fn metric_names(line: &str) -> Vec<String> {
    let value = json::parse(line).expect("result line is JSON");
    let keys: Vec<&str> = value
        .as_object()
        .expect("result is an object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    value
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics is an object")
        .iter()
        .map(|(name, metric)| {
            let fields: Vec<&str> = metric
                .as_object()
                .expect("a metric is an object")
                .iter()
                .map(|(key, _)| key.as_str())
                .collect();
            assert_eq!(fields, ["value", "unit"], "{name}");
            assert!(
                metric.get("value").and_then(Value::as_f64).is_some(),
                "{name}"
            );
            name.clone()
        })
        .collect()
}

#[test]
fn every_workload_runs_small_and_passes_its_checks() {
    let cli = smoke_cli(false);
    for workload in &WORKLOADS {
        let report = run_one(workload.name, &cli, Scale::Smoke)
            .unwrap_or_else(|reason| panic!("{}: {reason}", workload.name));
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name,
            report.violations
        );
        assert_eq!(report.failed, 0, "{}", workload.name);
        assert!(report.attempted >= 1, "{}", workload.name);
        for metric in &END_TO_END {
            let value = report.end_to_end.get(metric.name).copied();
            assert!(
                value.is_some_and(|v| v.is_finite() && v > 0.0),
                "{} on {}: {value:?}",
                metric.name,
                workload.name
            );
        }
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&report.result_line()), expected);
        assert!(parse_result_line(&report.result_line()).unwrap().correct);
        // Every timing prints its median, quartiles and sample count.
        let rendered = report.render();
        assert!(
            rendered.contains("median=") && rendered.contains("q1=") && rendered.contains("n=")
        );
        assert_eq!(rendered.lines().last(), Some(report.result_line().as_str()));
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_a_well_formed_trace() {
    let cli = smoke_cli(true);
    for workload in &WORKLOADS {
        let report = run_one(workload.name, &cli, Scale::Smoke)
            .unwrap_or_else(|reason| panic!("{}: {reason}", workload.name));
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name,
            report.violations
        );
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&report.result_line()), expected);
        for metric in &PER_LAYER {
            let value = report.per_layer.get(metric.name).copied();
            assert!(
                value.is_some_and(f64::is_finite),
                "{}: {value:?}",
                metric.name
            );
        }

        let path = report
            .trace_file
            .as_deref()
            .expect("a traced run writes its spans");
        let trace = json::parse(&std::fs::read_to_string(path).unwrap()).expect("trace parses");
        assert_eq!(
            trace.get("workload").and_then(Value::as_str),
            Some(workload.name)
        );
        let spans = trace.get("spans").and_then(Value::as_array).unwrap();
        let ids: BTreeSet<u64> = spans
            .iter()
            .map(|span| span.get("id").and_then(Value::as_f64).unwrap() as u64)
            .collect();
        assert_eq!(ids.len(), spans.len(), "span ids are unique");
        let mut roots = 0;
        for span in spans {
            match span.get("parent").unwrap() {
                Value::Null => roots += 1,
                parent => assert!(ids.contains(&(parent.as_f64().unwrap() as u64))),
            }
            let start = span.get("start_us").and_then(Value::as_f64).unwrap();
            let end = span.get("end_us").and_then(Value::as_f64).unwrap();
            assert!(end >= start);
            assert!(span.get("name").and_then(Value::as_str).is_some());
        }
        assert_eq!(roots, 1, "one run span");
        // Every layer has at least one span of its own.
        let names: BTreeSet<&str> = spans
            .iter()
            .filter_map(|span| span.get("name").and_then(Value::as_str))
            .collect();
        for layer in [
            "codec.",
            "crypto.",
            "core.gossip.",
            "core.interpret.",
            "core.shim.",
            "store.",
            "transport.",
            "baseline.",
            "metrics.",
        ] {
            assert!(
                names.iter().any(|name| name.starts_with(layer)),
                "no span of {layer}"
            );
        }
    }
}

fn is_name(text: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    text.len() <= 64
        && text.starts_with(|c: char| c.is_ascii_alphanumeric())
        && text.chars().all(ok)
}

fn is_unit(text: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !text.is_empty() && text.len() <= 16 && text.chars().all(ok)
}

fn keys_of(value: &Value) -> Vec<&str> {
    value
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_is_the_schema_and_within_the_contract() {
    assert_eq!(
        BENCHMARK_JSON,
        schema::benchmark_json(),
        "BENCHMARK.json drifted: regenerate it with `benchmark --print-benchmark-json`"
    );
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let document = json::parse(BENCHMARK_JSON).unwrap();
    assert_eq!(
        keys_of(&document),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = document.get("command").and_then(Value::as_array).unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    let paths = document.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::String(schema::PATH.to_owned())]);
    let seconds = document.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let mut names = BTreeSet::new();
    let workloads = document.get("workloads").and_then(Value::as_array).unwrap();
    assert_eq!(workloads.len(), 5);
    for workload in workloads {
        assert_eq!(keys_of(workload), ["name", "why"]);
        let name = workload.get("name").and_then(Value::as_str).unwrap();
        let why = workload.get("why").and_then(Value::as_str).unwrap();
        assert!(is_name(name) && names.insert(name.to_owned()), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: {} chars",
            why.len()
        );
    }

    let end_to_end = document
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    assert!((1..=16).contains(&end_to_end.len()));
    for metric in end_to_end {
        assert_eq!(keys_of(metric), ["name", "unit", "better", "bound"]);
        let name = metric.get("name").and_then(Value::as_str).unwrap();
        assert!(is_name(name) && names.insert(name.to_owned()), "{name}");
        assert!(
            is_unit(metric.get("unit").and_then(Value::as_str).unwrap()),
            "{name}"
        );
        assert!(matches!(
            metric.get("better").and_then(Value::as_str),
            Some("lower" | "higher")
        ));
        let bound = metric.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));

    let per_layer = document.get("per_layer").and_then(Value::as_array).unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    for metric in per_layer {
        assert_eq!(keys_of(metric), ["name", "unit", "better"]);
        let name = metric.get("name").and_then(Value::as_str).unwrap();
        assert!(is_name(name) && names.insert(name.to_owned()), "{name}");
        assert!(
            is_unit(metric.get("unit").and_then(Value::as_str).unwrap()),
            "{name}"
        );
    }
    // Every layer metric names its layer and what it should move.
    for metric in &PER_LAYER {
        assert!(
            metric.name.contains('.') && !metric.moves.is_empty(),
            "{}",
            metric.name
        );
    }
}

#[test]
fn command_line_takes_the_drivers_and_the_readmes_forms() {
    let args = |line: &str| {
        line.split_whitespace()
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let driver = parse_cli(&args(
        "--workload sim_lossy --seed 41 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(driver.workload.as_deref(), Some("sim_lossy"));
    assert_eq!(
        (driver.seed, driver.seconds, driver.trace),
        (41, 10.0, true)
    );
    assert!(!parse_cli(&args("--trace 0 --seed 3")).unwrap().trace);
    let child = parse_cli(&args("--workload recover --seed 3 --journal-into some/dir")).unwrap();
    assert_eq!(child.journal_into, Some("some/dir".into()));
    let bare = parse_cli(&args("--trace --repeat 2")).unwrap();
    assert!(bare.trace && bare.repeat == 2 && bare.seed == 7 && bare.workload.is_none());
    for bad in [
        "--workload nope",
        "--seed x",
        "--seconds 0",
        "--repeat 0",
        "--frobnicate",
        "--seed",
    ] {
        assert!(parse_cli(&args(bad)).is_err(), "{bad}");
    }
}

#[test]
fn repeat_check_names_what_disagrees() {
    let set = |tweak: &dyn Fn(&str, &str, f64) -> f64| -> BTreeMap<&'static str, ChildResult> {
        WORKLOADS
            .iter()
            .map(|workload| {
                let metrics = END_TO_END
                    .iter()
                    .map(|m| (m.name.to_owned(), tweak(workload.name, m.name, 100.0)))
                    .collect();
                let result = ChildResult {
                    correct: true,
                    attempted: 10,
                    failed: 0,
                    metrics,
                };
                (workload.name, result)
            })
            .collect()
    };
    let base = set(&|_, _, v| v);
    assert!(compare_sets(&base, &base).is_empty());

    // Within the bound, towards worse or towards better: fine.
    let wobble = set(&|_, metric, v| match metric {
        "transfers_per_s" => v * 0.93,
        "peak_rss_mb" => v * 0.9,
        _ => v,
    });
    assert_eq!(compare_sets(&base, &wobble), Vec::<String>::new());

    // The same code twice as good is as much a disagreement as twice as bad.
    let halved = set(&|workload, metric, v| {
        if (workload, metric) == ("recover", "peak_rss_mb") {
            v * 0.5
        } else {
            v
        }
    });
    let found = compare_sets(&base, &halved);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("peak_rss_mb on recover"));

    // Worse than the bound on one workload: named.
    let slow = set(&|workload, metric, v| {
        if (workload, metric) == ("live_steady", "latency_p90_ms") {
            v * 1.3
        } else {
            v
        }
    });
    let found = compare_sets(&base, &slow);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("latency_p90_ms on live_steady"));

    // Exact metrics may not move at all — in either direction.
    let drift = set(&|workload, metric, v| {
        if (workload, metric) == ("sim_lossy", "msgs_per_transfer") {
            v * 0.999
        } else {
            v
        }
    });
    let found = compare_sets(&base, &drift);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains("msgs_per_transfer on sim_lossy") && found[0].contains("exact"));
}

#[test]
fn journaled_run_reads_back_what_it_wrote() {
    let journaled = Journaled {
        violations: vec!["server 2's final DAG breaks its \"invariants\"".to_owned()],
        undelivered: 3,
        dag_blocks: 171,
        dag_digest: "ab".repeat(32),
        next_seq: 44,
        gossip: [
            ("core.gossip.wave_mean_width", 2.0 / 3.0),
            ("core.gossip.pending_peak", 5.0),
        ]
        .into(),
        run_wall_s: 1.0376219,
        messages_sent: 2052,
    };
    assert_eq!(Journaled::from_json(&journaled.to_json()), Ok(journaled));
    assert!(Journaled::from_json("{\"violations\": []}").is_err());
}

/// The names in `[dependencies]` of a manifest, with the directory each
/// `path = "…"` leads to, made absolute from the manifest's own.
fn path_dependencies(
    manifest: &std::path::Path,
    table: &str,
) -> BTreeMap<String, std::path::PathBuf> {
    let text = std::fs::read_to_string(manifest).unwrap();
    let from = manifest.parent().unwrap();
    text.split("\n[")
        .find(|section| section.starts_with(&format!("{table}]")))
        .unwrap_or_else(|| panic!("{manifest:?} has no [{table}]"))
        .lines()
        .skip(1)
        .filter_map(|line| {
            let (name, rest) = line.split_once('=')?;
            let path = rest.split_once("path = \"")?.1.split_once('"')?.0;
            Some((
                name.trim().to_owned(),
                from.join(path).canonicalize().unwrap(),
            ))
        })
        .collect()
}

/// The driver builds the benchmark as the package of its own in this
/// directory; `cargo test` builds it as a bin of `dagbft-bench`. This is
/// what keeps the two builds the same program: every crate the package
/// names is the workspace's crate of that name, and the workspace sets no
/// release profile or patch the package would not see.
#[test]
fn the_package_of_its_own_builds_what_the_workspace_builds() {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // Either build runs this test: find the workspace root from here.
    let root = here
        .ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .expect("a checkout has BENCHMARK.json at its root");
    let own = path_dependencies(&root.join(schema::PATH).join("Cargo.toml"), "dependencies");
    let workspace = path_dependencies(&root.join("Cargo.toml"), "workspace.dependencies");
    assert!(own.len() >= 10, "{own:?}");
    for (name, path) in &own {
        assert_eq!(workspace.get(name), Some(path), "{name}");
    }
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    for table in ["[profile.release", "[profile.bench", "[patch"] {
        assert!(
            !root_manifest.contains(table),
            "the workspace now has a {table}…] table: copy it into {}/Cargo.toml",
            schema::PATH
        );
    }
}
