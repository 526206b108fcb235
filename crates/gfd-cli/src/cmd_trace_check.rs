//! `gfd trace-check FILE` — validate a Chrome trace-event JSON file.
//!
//! The emitter (`--trace FILE`) promises three things CI leans on: the
//! document is well-formed integer-only JSON, every event carries the
//! fields the Chrome trace viewer requires, and timestamps are monotone
//! non-decreasing per `tid` (the exporter sorts per worker). This command
//! re-checks all three — the required fields from a built-in copy of the
//! checked-in schema's list (`schemas/chrome-trace.schema.json`), or from
//! the schema named by `--schema` — so a regression in the exporter fails
//! fast instead of producing a file Perfetto silently mis-renders.

use crate::args::{ArgError, Parsed};
use gfd_io::jsonval::{self, Json};
use std::io::Write;

const HELP: &str = "\
gfd trace-check FILE [--schema PATH] [--quiet]

Validates a Chrome trace-event JSON file written by `--trace FILE`:
well-formed JSON, the required fields on every event (per the schema),
legal phase types, and monotone non-decreasing timestamps per tid.
  --schema PATH  read the required event fields from this schema
                 (e.g. schemas/chrome-trace.schema.json); without it the
                 built-in copy of that schema's field list is used
  --quiet        print nothing on success
Exit code: 0 valid, 2 invalid or unreadable.
";

/// The field list the built-in check enforces when no schema file is
/// given: a copy of `schemas/chrome-trace.schema.json`'s list, kept equal
/// by a test.
const REQUIRED_FIELDS: &[&str] = &["name", "cat", "ph", "pid", "tid", "ts"];

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{HELP}");
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let schema_path = args.opt_str("schema")?.map(str::to_string);
    let quiet = args.flag("quiet");
    args.finish()?;

    let required = match &schema_path {
        Some(p) => {
            let src = std::fs::read_to_string(p)
                .map_err(|e| ArgError::new(format!("cannot read schema {p}: {e}")))?;
            required_fields_from_schema(&src)
                .map_err(|e| ArgError::new(format!("bad schema {p}: {e}")))?
        }
        None => REQUIRED_FIELDS.iter().map(|s| s.to_string()).collect(),
    };

    let src = std::fs::read_to_string(&path)
        .map_err(|e| ArgError::new(format!("cannot read {path}: {e}")))?;
    let doc = jsonval::parse(&src)
        .map_err(|e| ArgError::new(format!("{path}: not well-formed JSON: {e}")))?;
    let summary = validate(&doc, &required).map_err(|e| ArgError::new(format!("{path}: {e}")))?;
    if !quiet {
        let _ = writeln!(
            out,
            "{path}: valid — {} event(s) on {} tid(s), {} dropped",
            summary.events, summary.tids, summary.dropped
        );
    }
    Ok(0)
}

/// Extract the `required` field names from the checked-in schema document
/// (`properties.traceEvents.items.required` in its JSON-Schema shape).
fn required_fields_from_schema(src: &str) -> Result<Vec<String>, String> {
    let doc = jsonval::parse(src).map_err(|e| e.to_string())?;
    let required = doc
        .get("properties")
        .and_then(|p| p.get("traceEvents"))
        .and_then(|t| t.get("items"))
        .and_then(|i| i.get("required"))
        .and_then(Json::as_array)
        .ok_or("no properties.traceEvents.items.required array")?;
    required
        .iter()
        .map(|f| {
            f.as_str()
                .map(str::to_string)
                .ok_or_else(|| "non-string entry in required".to_string())
        })
        .collect()
}

/// What a valid file contained, for the success line.
#[derive(Debug)]
struct Summary {
    events: usize,
    tids: usize,
    dropped: i64,
}

/// The structural checks behind [`run`], separated for unit testing.
fn validate(doc: &Json, required: &[String]) -> Result<Summary, String> {
    let events = doc
        .get("traceEvents")
        .ok_or("missing top-level \"traceEvents\"")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Json::as_int)
        .unwrap_or(0);
    // (tid, last ts seen) pairs; traces have a handful of tids, so a
    // linear scan beats pulling in a map.
    let mut tids: Vec<(i64, i64)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let fail = |msg: String| Err(format!("event {i}: {msg}"));
        if !matches!(e, Json::Object(_)) {
            return fail("not an object".into());
        }
        for field in required {
            if e.get(field).is_none() {
                return fail(format!("missing required field \"{field}\""));
            }
        }
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: \"ph\" is not a string"))?;
        match ph {
            "X" => {
                let dur = e.get("dur").and_then(Json::as_int);
                if dur.is_none_or(|d| d < 0) {
                    return fail("complete event (ph=X) needs an integer dur >= 0".into());
                }
            }
            "i" => {}
            other => return fail(format!("unsupported phase type \"{other}\"")),
        }
        let tid = e
            .get("tid")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("event {i}: \"tid\" is not an integer"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_int)
            .ok_or_else(|| format!("event {i}: \"ts\" is not an integer"))?;
        if ts < 0 {
            return fail(format!("negative timestamp {ts}"));
        }
        match tids.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, last)) => {
                if ts < *last {
                    return fail(format!(
                        "timestamp {ts} goes backwards on tid {tid} (last {last})"
                    ));
                }
                *last = ts;
            }
            None => tids.push((tid, ts)),
        }
    }
    Ok(Summary {
        events: events.len(),
        tids: tids.len(),
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> Vec<String> {
        REQUIRED_FIELDS.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn accepts_a_minimal_valid_trace() {
        let doc = jsonval::parse(
            r#"{"otherData": {"dropped_events": 2}, "traceEvents": [
                {"name": "UnitExec", "cat": "gfd", "ph": "X", "pid": 1,
                 "tid": 1, "ts": 5, "dur": 3, "args": {"id": 0}},
                {"name": "Steal", "cat": "gfd", "ph": "i", "s": "t",
                 "pid": 1, "tid": 1, "ts": 9, "args": {"id": 0}}
            ]}"#,
        )
        .unwrap();
        let s = validate(&doc, &req()).unwrap();
        assert_eq!((s.events, s.tids, s.dropped), (2, 1, 2));
    }

    #[test]
    fn rejects_backwards_timestamps_per_tid() {
        let doc = jsonval::parse(
            r#"{"traceEvents": [
                {"name": "a", "cat": "gfd", "ph": "i", "pid": 1, "tid": 2, "ts": 9},
                {"name": "b", "cat": "gfd", "ph": "i", "pid": 1, "tid": 2, "ts": 4}
            ]}"#,
        )
        .unwrap();
        let err = validate(&doc, &req()).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
        // The same timestamps on different tids are fine.
        let doc = jsonval::parse(
            r#"{"traceEvents": [
                {"name": "a", "cat": "gfd", "ph": "i", "pid": 1, "tid": 2, "ts": 9},
                {"name": "b", "cat": "gfd", "ph": "i", "pid": 1, "tid": 3, "ts": 4}
            ]}"#,
        )
        .unwrap();
        assert!(validate(&doc, &req()).is_ok());
    }

    #[test]
    fn rejects_missing_fields_and_bad_phases() {
        let doc = jsonval::parse(
            r#"{"traceEvents": [{"name": "a", "ph": "i", "pid": 1, "tid": 0, "ts": 1}]}"#,
        )
        .unwrap();
        let err = validate(&doc, &req()).unwrap_err();
        assert!(err.contains("\"cat\""), "{err}");
        let doc = jsonval::parse(
            r#"{"traceEvents": [
                {"name": "a", "cat": "gfd", "ph": "B", "pid": 1, "tid": 0, "ts": 1}
            ]}"#,
        )
        .unwrap();
        let err = validate(&doc, &req()).unwrap_err();
        assert!(err.contains("unsupported phase"), "{err}");
        // A complete event without dur is rejected.
        let doc = jsonval::parse(
            r#"{"traceEvents": [
                {"name": "a", "cat": "gfd", "ph": "X", "pid": 1, "tid": 0, "ts": 1}
            ]}"#,
        )
        .unwrap();
        assert!(validate(&doc, &req()).unwrap_err().contains("dur"));
    }

    #[test]
    fn schema_required_list_parses() {
        let schema = r#"{
            "properties": {"traceEvents": {"items": {
                "required": ["name", "ph", "ts"]
            }}}
        }"#;
        assert_eq!(
            required_fields_from_schema(schema).unwrap(),
            vec!["name", "ph", "ts"]
        );
        assert!(required_fields_from_schema("{}").is_err());
    }

    #[test]
    fn built_in_fields_equal_the_checked_in_schema() {
        let schema = include_str!("../../../schemas/chrome-trace.schema.json");
        assert_eq!(required_fields_from_schema(schema).unwrap(), req());
    }
}
