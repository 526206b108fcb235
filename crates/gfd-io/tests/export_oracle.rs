//! Oracle for the two observability documents: the Chrome trace and the
//! `--metrics-json` run report of one fixed, hand-built run must parse to
//! the recorded JSON values below, key order and event order included.
//! The pretty printer's bytes are pinned too, since the graph and Σ
//! interchange files and `BENCH_paper.json` are written with it.

use gfd_io::jsonval::{self, Json};
use gfd_io::report;
use gfd_runtime::RunMetrics;
use gfd_trace::{EventKind, Trace, TraceEvent, CONTROL_WORKER};
use std::time::Duration;

fn ev(
    kind: EventKind,
    worker: u32,
    id: u32,
    t0_ns: u64,
    dur_ns: u64,
    a: u64,
    b: u64,
) -> TraceEvent {
    TraceEvent {
        kind,
        worker,
        id,
        t0_ns,
        dur_ns,
        a,
        b,
    }
}

/// Events in record order, not timeline order: the exporter sorts them
/// per worker. Covers spans and instants, a tie on `(worker, t0)`, a
/// sub-microsecond span, an out-of-range rule id and the control track.
fn fixed_trace() -> Trace {
    use EventKind::*;
    Trace {
        events: vec![
            ev(RuleEval, 0, 1, 5_000, 2_000, 3, 1),
            ev(UnitExec, 0, 0, 1_000, 9_000, 0, 0),
            ev(Split, 0, 0, 1_000, 0, 4, 0),
            ev(Steal, 1, 0, 3_000, 0, 2, 0),
            ev(RuleEval, 1, 0, 3_500, 1_500, 7, 0),
            ev(RuleEval, 1, 2, 6_000, 999, 1, 1),
            ev(RuleEval, 1, 7, 8_000, 2_500, 0, 0),
            ev(BudgetCut, 0, 0, 9_000, 0, 11, 1),
            ev(ChaseRound, CONTROL_WORKER, 0, 0, 12_000, 12, 3),
            ev(ApplyCommit, CONTROL_WORKER, 0, 10_000, 1_500, 5, 2),
            ev(UnitExec, CONTROL_WORKER, 0, 200, 300, 0, 0),
            ev(Batch, CONTROL_WORKER, 2, 13_000, 4_000, 6, 1),
        ],
        dropped: 5,
    }
}

fn rule_names() -> Vec<String> {
    ["q\"uote", "back\\slash", "new\nline"]
        .map(String::from)
        .to_vec()
}

fn fixed_metrics() -> RunMetrics {
    RunMetrics {
        elapsed: Duration::from_nanos(12_345_678),
        workers: 2,
        units_generated: 4,
        units_dispatched: 9,
        units_split: 4,
        units_stolen: 2,
        matches: 10,
        branches: 1,
        pending: 3,
        rechecks: 2,
        delta_ops_broadcast: 6,
        units_panicked: 1,
        deadline_slack_ms: Some(-7),
        worker_busy: vec![Duration::from_nanos(1_500_999), Duration::from_micros(200)],
        worker_idle: vec![Duration::from_micros(30), Duration::ZERO],
        early_terminated: true,
        trace: fixed_trace(),
    }
}

/// The Chrome trace of [`fixed_trace`], byte for byte as recorded from
/// the hand-assembled exporter `gfd-trace` had before the document moved
/// to `gfd_io::report`.
const CHROME_TRACE: &str = r#"{
  "displayTimeUnit": "ms",
  "otherData": {"dropped_events": 5},
  "traceEvents": [
    {"ph": "i", "s": "t", "name": "Split", "cat": "gfd", "pid": 1, "tid": 1, "ts": 1, "args": {"id": 0, "units": 4}},
    {"ph": "X", "dur": 9, "name": "UnitExec", "cat": "gfd", "pid": 1, "tid": 1, "ts": 1, "args": {"id": 0}},
    {"ph": "X", "dur": 2, "name": "RuleEval:back\\slash", "cat": "gfd", "pid": 1, "tid": 1, "ts": 5, "args": {"id": 1, "matches": 3, "violations": 1}},
    {"ph": "i", "s": "t", "name": "BudgetCut", "cat": "gfd", "pid": 1, "tid": 1, "ts": 9, "args": {"id": 0, "units_executed": 11, "cause": 1}},
    {"ph": "i", "s": "t", "name": "Steal", "cat": "gfd", "pid": 1, "tid": 2, "ts": 3, "args": {"id": 0, "claimed": 2, "victim": 0}},
    {"ph": "X", "dur": 1, "name": "RuleEval:q\"uote", "cat": "gfd", "pid": 1, "tid": 2, "ts": 3, "args": {"id": 0, "matches": 7, "violations": 0}},
    {"ph": "X", "dur": 0, "name": "RuleEval:new\u000aline", "cat": "gfd", "pid": 1, "tid": 2, "ts": 6, "args": {"id": 2, "matches": 1, "violations": 1}},
    {"ph": "X", "dur": 2, "name": "RuleEval:rule7", "cat": "gfd", "pid": 1, "tid": 2, "ts": 8, "args": {"id": 7, "matches": 0, "violations": 0}},
    {"ph": "X", "dur": 12, "name": "ChaseRound", "cat": "gfd", "pid": 1, "tid": 0, "ts": 0, "args": {"id": 0, "firings": 12, "rules": 3}},
    {"ph": "X", "dur": 0, "name": "UnitExec", "cat": "gfd", "pid": 1, "tid": 0, "ts": 0, "args": {"id": 0}},
    {"ph": "X", "dur": 1, "name": "ApplyCommit", "cat": "gfd", "pid": 1, "tid": 0, "ts": 10, "args": {"id": 0, "committed": 5, "realized": 2}},
    {"ph": "X", "dur": 4, "name": "Batch", "cat": "gfd", "pid": 1, "tid": 0, "ts": 13, "args": {"id": 2, "ops": 6, "rerun_pivots": 1}}
  ]
}
"#;

/// The run report of [`fixed_metrics`], recorded the same way from the
/// exporter `gfd-runtime` had.
const RUN_REPORT: &str = r#"{
  "workers": 2,
  "elapsed_us": 12345,
  "units_generated": 4, "units_dispatched": 9, "units_split": 4, "units_stolen": 2,
  "matches": 10, "branches": 1, "pending": 3, "rechecks": 2, "delta_ops_broadcast": 6,
  "units_panicked": 1,
  "deadline_slack_ms": -7,
  "early_terminated": true,
  "worker_busy_us": [1500, 200],
  "worker_idle_us": [30, 0],
  "profile": {
    "dropped": 5,
    "rules": [{"rule": "q\"uote", "id": 0, "evals": 1, "time_ns": 1500, "matches": 7, "violations": 0}, {"rule": "back\\slash", "id": 1, "evals": 1, "time_ns": 2000, "matches": 3, "violations": 1}, {"rule": "new\u000aline", "id": 2, "evals": 1, "time_ns": 999, "matches": 1, "violations": 1}, {"rule": "rule7", "id": 7, "evals": 1, "time_ns": 2500, "matches": 0, "violations": 0}],
    "workers": [{"worker": 0, "units": 1, "exec_ns": 9000, "steals": 0, "stolen": 0, "splits": 1}, {"worker": 1, "units": 0, "exec_ns": 0, "steals": 1, "stolen": 2, "splits": 0}, {"worker": -1, "units": 1, "exec_ns": 300, "steals": 0, "stolen": 0, "splits": 0}],
    "phases": [{"kind": "ChaseRound", "id": 0, "count": 1, "time_ns": 12000, "a": 12, "b": 3}, {"kind": "ApplyCommit", "id": 0, "count": 1, "time_ns": 1500, "a": 5, "b": 2}, {"kind": "Batch", "id": 2, "count": 1, "time_ns": 4000, "a": 6, "b": 1}]
  }
}
"#;

#[test]
fn exports_parse_to_the_recorded_documents() {
    let names = rule_names();
    let chrome = report::chrome_trace(&fixed_trace(), &names);
    let report = report::run_report(&fixed_metrics(), &names);
    let parsed = |text: &str| jsonval::parse(text).expect("well-formed JSON");
    assert_eq!(parsed(&chrome), parsed(CHROME_TRACE));
    assert_eq!(parsed(&report), parsed(RUN_REPORT));
    assert!(chrome.len() <= CHROME_TRACE.len(), "{chrome}");
}

/// A nested document exercising every value kind, escapes and empty
/// containers.
fn nested_document() -> Json {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    obj(vec![
        ("name", Json::Str("a \"q\" b\\c\nd\te\u{1}f ☃".into())),
        ("n", Json::Int(-42)),
        (
            "flags",
            Json::Array(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
        ),
        ("empty_array", Json::Array(vec![])),
        ("empty_object", obj(vec![])),
        (
            "rows",
            Json::Array(vec![
                obj(vec![
                    ("id", Json::Int(0)),
                    ("tags", Json::Array(vec![Json::Str("x".into())])),
                ]),
                obj(vec![
                    ("id", Json::Int(i64::MAX)),
                    (
                        "inner",
                        obj(vec![("deep", Json::Array(vec![Json::Array(vec![])]))]),
                    ),
                ]),
            ]),
        ),
    ])
}

/// `Json::pretty` of [`nested_document`], recorded before the printer
/// gained its compact mode.
const PRETTY: &str = r#"{
  "name": "a \"q\" b\\c\nd\te\u0001f ☃",
  "n": -42,
  "flags": [
    true,
    false,
    null
  ],
  "empty_array": [],
  "empty_object": {},
  "rows": [
    {
      "id": 0,
      "tags": [
        "x"
      ]
    },
    {
      "id": 9223372036854775807,
      "inner": {
        "deep": [
          []
        ]
      }
    }
  ]
}"#;

#[test]
fn pretty_printer_bytes_are_pinned() {
    assert_eq!(nested_document().pretty(), PRETTY);
}
