//! Drives the real `gfdbench` binary at smoke size (sizes ÷ 20, minimum
//! rounds, no timing asserted) and holds it to `BENCHMARK.json`: every
//! workload and metric named there is emitted with a finite value and
//! the declared unit, nothing fails, the ledger covers the operation,
//! and counts repeat exactly for one seed — alone or under `--all`.

use gfdbench::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_gfdbench");
const SEED: &str = "42";

/// `count` rows that depend on thread scheduling (steals, TTL splits,
/// ΔEq batches in flight) or on the clock, and so need not repeat.
const SCHEDULING_DEPENDENT: &[&str] = &[
    "core.delta_ops_broadcast",
    "runtime.units_dispatched",
    "runtime.units_stolen",
    "runtime.units_split",
    "trace.events",
    "trace.dropped",
    "e2e.samples",
];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric section of `BENCHMARK.json`.
fn declared(doc: &Json, section: &str) -> BTreeMap<String, String> {
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{section} array"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(doc: &Json) -> Vec<String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// A scratch working directory under the test target dir: the binary
/// writes its span files relative to where it runs.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run the binary; returns its last stdout line parsed, and whether it
/// exited 0.
fn gfdbench(cwd: &Path, args: &[&str]) -> (Json, bool) {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn gfdbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(last).unwrap_or(Json::Null);
    (json, out.status.success())
}

fn smoke_run(cwd: &Path, workload: &str, trace: &str) -> Json {
    let (result, ok) = gfdbench(
        cwd,
        &[
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ],
    );
    assert!(ok, "{workload} trace {trace} exited non-zero: {result}");
    result
}

/// `name → (value, unit)` of a result object.
fn metrics(result: &Json) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect()
}

/// The rows that must repeat exactly for one seed.
fn exact_counts(result: &Json) -> BTreeMap<String, f64> {
    metrics(result)
        .into_iter()
        .filter(|(name, (_, unit))| {
            unit == "count" && !SCHEDULING_DEPENDENT.contains(&name.as_str())
        })
        .map(|(name, (value, _))| (name, value))
        .collect()
}

fn assert_clean(result: &Json, what: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{what}: {result}"
    );
    assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{what}");
    let attempted = result
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted");
    assert!(
        attempted >= 1.0 && attempted.fract() == 0.0,
        "{what}: attempted {attempted}"
    );
    let keys: Vec<&str> = result
        .as_obj()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
}

#[test]
fn every_declared_metric_is_emitted() {
    let doc = benchmark_json();
    let cwd = scratch("declared");
    let names = workloads(&doc);
    assert_eq!(names.len(), 5, "five workloads: {names:?}");
    for workload in &names {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let what = format!("{workload} trace {trace}");
            let result = smoke_run(&cwd, workload, trace);
            assert_clean(&result, &what);
            let got = metrics(&result);
            let want = declared(&doc, section);
            assert_eq!(
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>(),
                "{what}: metric names differ from BENCHMARK.json {section}"
            );
            for (name, (value, unit)) in &got {
                assert!(value.is_finite(), "{what}: {name} = {value}");
                assert_eq!(unit, &want[name], "{what}: unit of {name}");
            }
            if trace == "0" {
                for (name, (value, _)) in &got {
                    assert!(*value > 0.0, "{what}: end-to-end {name} must never read 0");
                }
            } else {
                let coverage = got["ledger.coverage"].0;
                assert!(coverage >= 0.90, "{what}: ledger.coverage {coverage}");
                let spans = cwd.join(format!("target/benchmark/{workload}.spans.json"));
                let text = std::fs::read_to_string(&spans).expect("span file written");
                let parsed = Json::parse(&text).expect("span file parses");
                let first = &parsed.as_arr().expect("span array")[0];
                for key in ["name", "start_us", "end_us", "parent", "op"] {
                    assert!(first.get(key).is_some(), "{what}: span without {key}");
                }
            }
        }
    }
}

#[test]
fn counts_repeat_alone_and_under_all() {
    let doc = benchmark_json();
    let cwd = scratch("repeat");
    // `--all` runs every workload in a child process of its own, one
    // after the other; the value table being process-global, that
    // isolation is what keeps `graph.value_strs` (and every other count)
    // of a workload independent of what ran before it.
    let (_, ok) = gfdbench(&cwd, &["--all", "--seed", SEED, "--smoke"]);
    assert!(ok, "--all --smoke exited non-zero");
    let summary = std::fs::read_to_string(cwd.join("target/benchmark/summary.json"))
        .expect("summary written");
    let summary = Json::parse(&summary).expect("summary parses");
    for workload in workloads(&doc) {
        let alone_a = exact_counts(&smoke_run(&cwd, &workload, "1"));
        let alone_b = exact_counts(&smoke_run(&cwd, &workload, "1"));
        assert!(alone_a.contains_key("graph.value_strs"));
        assert_eq!(
            alone_a, alone_b,
            "{workload}: counts differ between two runs of one seed"
        );
        let under_all = summary
            .get("workloads")
            .and_then(|w| w.get(&workload))
            .and_then(|w| w.get("per_layer"))
            .unwrap_or_else(|| panic!("{workload} in summary"));
        assert_eq!(
            alone_a,
            exact_counts(under_all),
            "{workload}: counts differ between a lone run and --all"
        );
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    let cwd = scratch("bad");
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "sat_dbpedia", "--trace", "2"],
        &["--all", "--workload", "sat_dbpedia"],
        &[],
    ] {
        let (result, ok) = gfdbench(&cwd, args);
        assert!(!ok, "{args:?} exited 0");
        assert_eq!(result, Json::Null, "{args:?} printed a result");
    }
}
