//! The two observability documents a run exports, built as [`Json`]
//! trees and printed with [`jsonval`](crate::jsonval)'s one writer:
//!
//! * [`chrome_trace`] — a [`Trace`] as a Chrome trace-event document
//!   (`gfd ... --trace FILE`), loadable in `chrome://tracing` and
//!   Perfetto and checked by `gfd trace-check`;
//! * [`run_report`] — a [`RunMetrics`] record and its aggregated trace
//!   [`Profile`] (`gfd ... --metrics-json FILE`).
//!
//! Every number is an integer: the interchange parser rejects floats.

use crate::jsonval::Json;
use gfd_runtime::RunMetrics;
use gfd_trace::{rule_label, EventKind, Profile, Trace, CONTROL_WORKER};
use std::time::Duration;

/// `trace` as a Chrome trace-event document (the `traceEvents` object
/// form), printed compact.
///
/// `rule_names[i]` labels `RuleEval` events with `id == i`; out-of-range
/// ids fall back to `rule<id>`. Events are sorted by `(worker, start)`, so
/// timestamps are monotone per `tid` — the property `gfd trace-check`
/// validates. The control track is `tid` 0 and worker `w` is `tid w + 1`.
/// Timestamps and durations are integer microseconds (the format's unit).
pub fn chrome_trace(trace: &Trace, rule_names: &[String]) -> String {
    let mut events = trace.events.clone();
    events.sort_by_key(|e| (e.worker, e.t0_ns, e.dur_ns));
    let events = events.iter().map(|e| {
        let name = match e.kind {
            EventKind::RuleEval => format!("RuleEval:{}", rule_label(rule_names, e.id)),
            kind => kind.name().to_string(),
        };
        let tid = match e.worker {
            CONTROL_WORKER => 0,
            worker => u64::from(worker) + 1,
        };
        let (a_name, b_name) = e.kind.payload_names();
        let mut args = vec![("id", Json::int(e.id))];
        for (key, value) in [(a_name, e.a), (b_name, e.b)] {
            if !key.is_empty() {
                args.push((key, Json::int(value)));
            }
        }
        let mut fields = match e.dur_ns {
            0 => vec![("ph", Json::string("i")), ("s", Json::string("t"))],
            dur => vec![("ph", Json::string("X")), ("dur", Json::int(dur / 1_000))],
        };
        fields.extend([
            ("name", Json::string(name)),
            ("cat", Json::string("gfd")),
            ("pid", Json::Int(1)),
            ("tid", Json::int(tid)),
            ("ts", Json::int(e.t0_ns / 1_000)),
            ("args", Json::object(args)),
        ]);
        Json::object(fields)
    });
    let other_data = Json::object([("dropped_events", Json::int(trace.dropped))]);
    Json::object([
        ("displayTimeUnit", Json::string("ms")),
        ("otherData", other_data),
        ("traceEvents", Json::Array(events.collect())),
    ])
    .compact()
}

/// `metrics` as the run report: every counter, the per-worker timings in
/// integer microseconds and the trace's aggregated profile (`rule_names`
/// label its rule rows), pretty-printed.
pub fn run_report(metrics: &RunMetrics, rule_names: &[String]) -> String {
    let m = metrics;
    let micros = |v: &[Duration]| Json::Array(v.iter().map(|d| Json::int(d.as_micros())).collect());
    let slack = m.deadline_slack_ms.map_or(Json::Null, Json::Int);
    Json::object([
        ("workers", Json::int(m.workers)),
        ("elapsed_us", Json::int(m.elapsed.as_micros())),
        ("units_generated", Json::int(m.units_generated)),
        ("units_dispatched", Json::int(m.units_dispatched)),
        ("units_split", Json::int(m.units_split)),
        ("units_stolen", Json::int(m.units_stolen)),
        ("matches", Json::int(m.matches)),
        ("branches", Json::int(m.branches)),
        ("pending", Json::int(m.pending)),
        ("rechecks", Json::int(m.rechecks)),
        ("delta_ops_broadcast", Json::int(m.delta_ops_broadcast)),
        ("units_panicked", Json::int(m.units_panicked)),
        ("deadline_slack_ms", slack),
        ("early_terminated", Json::Bool(m.early_terminated)),
        ("worker_busy_us", micros(&m.worker_busy)),
        ("worker_idle_us", micros(&m.worker_idle)),
        ("profile", profile(&m.trace.profile(), rule_names)),
    ])
    .pretty()
}

/// The per-rule, per-worker and per-phase rows of `p`. A worker id reads
/// as a signed 32-bit number, so the control track is worker -1.
fn profile(p: &Profile, rule_names: &[String]) -> Json {
    let rules = p.rules.iter().map(|r| {
        Json::object([
            ("rule", Json::string(rule_label(rule_names, r.id))),
            ("id", Json::int(r.id)),
            ("evals", Json::int(r.evals)),
            ("time_ns", Json::int(r.time_ns)),
            ("matches", Json::int(r.matches)),
            ("violations", Json::int(r.violations)),
        ])
    });
    let workers = p.workers.iter().map(|w| {
        Json::object([
            ("worker", Json::int(w.worker as i32)),
            ("units", Json::int(w.units)),
            ("exec_ns", Json::int(w.exec_ns)),
            ("steals", Json::int(w.steals)),
            ("stolen", Json::int(w.stolen)),
            ("splits", Json::int(w.splits)),
        ])
    });
    let phases = p.phases.iter().map(|ph| {
        Json::object([
            ("kind", Json::string(ph.kind.name())),
            ("id", Json::int(ph.id)),
            ("count", Json::int(ph.count)),
            ("time_ns", Json::int(ph.time_ns)),
            ("a", Json::int(ph.a)),
            ("b", Json::int(ph.b)),
        ])
    });
    Json::object([
        ("dropped", Json::int(p.dropped)),
        ("rules", Json::Array(rules.collect())),
        ("workers", Json::Array(workers.collect())),
        ("phases", Json::Array(phases.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonval::parse;
    use gfd_trace::TraceEvent;

    fn event(kind: EventKind, worker: u32, id: u32, t0_ns: u64, dur_ns: u64, a: u64) -> TraceEvent {
        TraceEvent {
            kind,
            worker,
            id,
            t0_ns,
            dur_ns,
            a,
            b: 0,
        }
    }

    #[test]
    fn chrome_export_sorts_per_worker_and_distinguishes_spans() {
        // Worker 0's events recorded out of t0 order (inner span ends
        // before its enclosing UnitExec is pushed).
        let t = Trace {
            events: vec![
                event(EventKind::RuleEval, 0, 1, 5_000, 2_000, 3),
                event(EventKind::UnitExec, 0, 0, 1_000, 9_000, 0),
                event(EventKind::Steal, 1, 0, 3_000, 0, 2),
            ],
            dropped: 0,
        };
        let doc = parse(&chrome_trace(&t, &["r0".into(), "r1".into()])).unwrap();
        let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap().to_string();
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        // Emitted order is (worker, t0): UnitExec(ts=1µs) before
        // RuleEval(ts=5µs), then worker 1's Steal.
        let names: Vec<String> = events.iter().map(|e| field(e, "name")).collect();
        assert_eq!(names, ["UnitExec", "RuleEval:r1", "Steal"]);
        let phases: Vec<String> = events.iter().map(|e| field(e, "ph")).collect();
        assert_eq!(phases, ["X", "X", "i"]);
        let dropped = doc.get("otherData").and_then(|o| o.get("dropped_events"));
        assert_eq!(dropped, Some(&Json::Int(0)));
    }

    #[test]
    fn run_report_is_integer_only_and_complete() {
        let m = RunMetrics {
            workers: 2,
            units_dispatched: 3,
            deadline_slack_ms: Some(-7),
            worker_busy: vec![Duration::from_micros(1500), Duration::from_micros(200)],
            trace: Trace {
                events: vec![event(EventKind::RuleEval, 0, 2, 0, 100, 5)],
                dropped: 0,
            },
            ..Default::default()
        };
        let doc = parse(&run_report(&m, &[])).unwrap();
        assert_eq!(doc.get("workers"), Some(&Json::Int(2)));
        assert_eq!(doc.get("deadline_slack_ms"), Some(&Json::Int(-7)));
        let busy = doc.get("worker_busy_us").and_then(Json::as_array).unwrap();
        assert_eq!(busy, [Json::Int(1500), Json::Int(200)]);
        let rule = doc
            .get("profile")
            .and_then(|p| p.get("rules"))
            .and_then(Json::as_array);
        assert_eq!(
            rule.unwrap()[0].get("rule").and_then(Json::as_str),
            Some("rule2")
        );
        let none = parse(&run_report(&RunMetrics::default(), &[])).unwrap();
        assert_eq!(none.get("deadline_slack_ms"), Some(&Json::Null));
    }
}
