//! `gfd detect FILE` — violation detection over the file's graphs.

use crate::args::{load_document, parse_budget, refuse_unread, ArgError, Parsed, Unread};
use crate::cmd_sat::interrupted;
use crate::output::fmt_duration;
use crate::traceopt::{rule_names, TraceArgs, TRACE_HELP};
use gfd_detect::{detect, suggest_repairs, DetectConfig};
use gfd_runtime::{EventKind, RunMetrics, TraceBuf, CONTROL_WORKER};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

const HELP: &str = "\
gfd detect FILE [--graph NAME] [--limit N] [--workers N] [--ttl-ms T]
               [--repair] [--quiet] [--metrics]
               [--deadline-ms T] [--max-units N]
               [--trace FILE] [--profile] [--metrics-json FILE]
               [--stream DELTALOG] [--compact-frac F]
               [--checkpoint PATH] [--checkpoint-every N] [--skip-corrupt]

Runs the rules in FILE against the graph(s) declared in FILE (the paper's
error-detection application, ϕ1–ϕ4 of Example 1). FILE may mix `gfd` and
`ggd` blocks: an unsatisfied generating consequence is reported as a
violation with a witness of the missing subgraph.
  --graph NAME  only check the named graph (default: all graphs)
  --limit N     stop after N violations (default: all)
  --workers N   parallel workers (default 4; 0 = one worker per CPU)
  --ttl-ms T    straggler TTL in milliseconds (default 100)
  --repair      print minimal repair suggestions per violation
  --quiet       summary only, no per-violation explanations
  --metrics     print scheduler metrics (units, splits, steals, idle time)
  --deadline-ms T  wall-clock budget; an interrupted detection exits 2
                   (any violations already found are printed first)
  --max-units N    scheduler work-unit budget; exhaustion exits 2
{TRACE}
Streaming mode (requires exactly one selected graph):
  --stream DELTALOG  replay the delta log batch by batch, keeping the
                     violation set live incrementally (gfd-incr) instead
                     of re-detecting from scratch; prints per-batch stats
                     (and per-batch scheduler metrics under --metrics,
                     followed by accumulated whole-stream totals)
  --compact-frac F   overlay compaction threshold as a fraction of the
                     base edge count (default 0.25; 0.0 compacts after
                     every batch; must be non-negative and finite)
  --checkpoint PATH  write a resumable checkpoint (graph + violation
                     cache + batch cursor) after applying batches; if
                     PATH already exists the run resumes from it instead
                     of replaying from the start
  --checkpoint-every N  checkpoint every N batches (default 1)
  --skip-corrupt     tolerate corrupt delta-log lines: skip them, report
                     each skipped line number, and replay the rest
Exit code: 0 clean, 1 violations found, 2 error.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{}", HELP.replace("{TRACE}", TRACE_HELP));
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let graph_name = args.opt_str("graph")?.map(str::to_string);
    let limit = args.opt_usize("limit", usize::MAX)?;
    let workers = args.opt_usize("workers", 4)?;
    let ttl = Duration::from_millis(args.opt_u64("ttl-ms", 100)?);
    let repair = args.flag("repair");
    let quiet = args.flag("quiet");
    let show_metrics = args.flag("metrics");
    let budget = parse_budget(&args)?;
    let stream = args.opt_str("stream")?.map(str::to_string);
    let checkpoint = args.opt_str("checkpoint")?.map(PathBuf::from);
    let checkpoint_every = args.opt_usize("checkpoint-every", 1)?;
    if checkpoint_every == 0 {
        return Err(ArgError::new("--checkpoint-every must be positive"));
    }
    let skip_corrupt = args.flag("skip-corrupt");
    let tracing = TraceArgs::parse(&args)?;
    let compact_frac = match args.opt_str("compact-frac")? {
        None => 0.25,
        Some(v) => {
            let f = v.parse::<f64>().map_err(|_| {
                ArgError::new(format!("--compact-frac expects a number, got `{v}`"))
            })?;
            // One source of truth for the accepted range: the library
            // validator (whose failure mode there is a panic, not an
            // error the CLI could surface).
            let probe = gfd_incr::IncrConfig {
                compact_fraction: f,
                ..gfd_incr::IncrConfig::default()
            };
            probe
                .validate()
                .map_err(|msg| ArgError::new(format!("--compact-frac: {msg}")))?;
            f
        }
    };
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    refuse_unread(&doc, &path, "detect", Unread::Ged)?;
    if doc.deps.is_empty() {
        return Err(ArgError::new(format!("{path} contains no rules")));
    }
    if doc.graphs.is_empty() {
        return Err(ArgError::new(format!(
            "{path} declares no graphs — detection needs data (add `graph NAME {{ ... }}`)"
        )));
    }
    let config = DetectConfig {
        workers,
        ttl,
        max_violations: limit,
        budget,
        trace: tracing.spec(),
        ..DetectConfig::default()
    };

    if stream.is_none() {
        for (flag, set) in [
            ("--checkpoint", checkpoint.is_some()),
            ("--skip-corrupt", skip_corrupt),
        ] {
            if set {
                return Err(ArgError::new(format!(
                    "{flag} only applies to streaming mode (--stream DELTALOG)"
                )));
            }
        }
    }
    if let Some(log_path) = stream {
        if repair {
            return Err(ArgError::new(
                "--repair is not supported with --stream (repair against the \
                 final graph with a plain `gfd detect` run)",
            ));
        }
        if limit != usize::MAX {
            return Err(ArgError::new(
                "--limit is not supported with --stream: the incremental \
                 cache must hold the complete violation set",
            ));
        }
        let stream_opts = StreamOptions {
            compact_frac,
            show_metrics,
            quiet,
            checkpoint,
            checkpoint_every,
            skip_corrupt,
            budget,
        };
        return run_stream(
            &doc,
            graph_name.as_deref(),
            &log_path,
            &mut vocab,
            config,
            &stream_opts,
            &tracing,
            out,
        );
    }

    // Accumulate across graphs so one exporter call covers the whole
    // invocation (multi-graph files merge their per-graph runs).
    let mut totals = RunMetrics::default();
    let mut dirty = false;
    for (name, graph) in &doc.graphs {
        if graph_name.as_deref().is_some_and(|g| g != name) {
            continue;
        }
        let report = detect(graph, &doc.deps, &config);
        totals.merge(&report.metrics);
        let _ = writeln!(
            out,
            "graph {name}: {} node(s), {} edge(s) — {} violation(s) in {}",
            graph.node_count(),
            graph.edge_count(),
            report.violations.len(),
            fmt_duration(report.metrics.elapsed),
        );
        // The violations below are real even when the run was cut short;
        // print them, then fail with the interrupt so scripts see exit 2.
        if let Some(i) = &report.interrupted {
            if !report.is_clean() && !quiet {
                let _ = write!(out, "{}", report.summary(&doc.deps, &vocab));
            }
            return Err(interrupted(i, &report.metrics));
        }
        if show_metrics {
            let _ = write!(out, "{}", crate::output::fmt_metrics(&report.metrics));
        }
        if !report.is_clean() {
            dirty = true;
            let _ = write!(out, "{}", report.summary(&doc.deps, &vocab));
            if !quiet {
                for v in &report.violations {
                    let _ = write!(out, "{}", v.explain(graph, &doc.deps, &vocab));
                    if repair {
                        for r in suggest_repairs(graph, &doc.deps, v, &vocab) {
                            let _ = writeln!(out, "  repair: {}", r.description);
                        }
                    }
                }
            }
        }
    }
    tracing.emit(&totals, &rule_names(&doc.deps), out)?;
    Ok(if dirty { 1 } else { 0 })
}

/// Streaming-mode options beyond the shared [`DetectConfig`].
struct StreamOptions {
    compact_frac: f64,
    show_metrics: bool,
    quiet: bool,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    skip_corrupt: bool,
    budget: gfd_core::Budget,
}

/// Replay a delta log against one graph, keeping the violation set live
/// through the incremental engine. With `--checkpoint` the run persists
/// its state as it goes and resumes from an existing checkpoint file.
#[allow(clippy::too_many_arguments)]
fn run_stream(
    doc: &gfd_dsl::Document,
    graph_name: Option<&str>,
    log_path: &str,
    vocab: &mut gfd_graph::Vocab,
    config: DetectConfig,
    opts: &StreamOptions,
    tracing: &TraceArgs,
    out: &mut dyn Write,
) -> Result<i32, ArgError> {
    let selected: Vec<&(String, gfd_graph::Graph)> = doc
        .graphs
        .iter()
        .filter(|(name, _)| graph_name.is_none_or(|g| g == name))
        .collect();
    let (name, graph) = match selected.as_slice() {
        [one] => (&one.0, &one.1),
        [] => return Err(ArgError::new("--stream: no graph selected")),
        _ => {
            return Err(ArgError::new(
                "--stream needs exactly one graph (use --graph NAME)",
            ))
        }
    };
    let log_src = std::fs::read_to_string(log_path)
        .map_err(|e| ArgError::new(format!("cannot read {log_path}: {e}")))?;
    // The bounded parse rejects references to nodes that will not exist
    // at that point of the replay, with the offending line number — the
    // library panics on bad ids; the CLI reports a normal exit-2 error.
    let batches = if opts.skip_corrupt {
        let lenient = gfd_io::parse_delta_log_lenient(&log_src, vocab, Some(graph.node_count()))
            .map_err(|e| ArgError::new(format!("bad delta log {log_path}: {e}")))?;
        for (line, reason) in &lenient.skipped {
            let _ = writeln!(out, "skipped corrupt line {line}: {reason}");
        }
        if !lenient.skipped.is_empty() {
            let _ = writeln!(
                out,
                "skipped {} corrupt line(s) in {log_path}",
                lenient.skipped.len()
            );
        }
        lenient.batches
    } else {
        gfd_io::parse_delta_log_for(&log_src, vocab, graph.node_count())
            .map_err(|e| ArgError::new(format!("bad delta log {log_path}: {e}")))?
    };

    let trace_spec = config.trace;
    let incr_config = gfd_incr::IncrConfig {
        detect: config,
        compact_fraction: opts.compact_frac,
    };
    // Resume from the checkpoint when one exists: rebuild the detector
    // from the persisted graph + violation cache and skip the batches it
    // already applied. Otherwise seed from the document's graph.
    let mut applied = 0usize;
    let mut incr = match &opts.checkpoint {
        Some(path) if path.exists() => {
            let ckpt = gfd_io::load_checkpoint(path, vocab)
                .map_err(|e| ArgError::new(format!("bad checkpoint {}: {e}", path.display())))?;
            if ckpt.batches_applied > batches.len() {
                return Err(ArgError::new(format!(
                    "checkpoint {} is ahead of the log: {} batch(es) applied, \
                     but {log_path} has only {}",
                    path.display(),
                    ckpt.batches_applied,
                    batches.len()
                )));
            }
            applied = ckpt.batches_applied;
            let _ = writeln!(
                out,
                "resumed from {} at batch {} ({} violation(s) cached)",
                path.display(),
                applied,
                ckpt.violations.len()
            );
            gfd_incr::IncrementalDetector::from_parts(
                ckpt.graph,
                doc.deps.clone(),
                ckpt.violations,
                incr_config,
            )
        }
        _ => gfd_incr::IncrementalDetector::new(graph.clone(), doc.deps.clone(), incr_config),
    };
    let _ = writeln!(
        out,
        "graph {name}: {} node(s), {} edge(s) — {} violation(s) before the stream",
        incr.graph().node_count(),
        incr.graph().edge_count(),
        incr.violations().len(),
    );

    // Whole-stream totals: per-batch metrics print live, but steals,
    // splits and idle would otherwise reset every batch — the merged
    // accumulator is what `--metrics` summarizes at end of stream and
    // what the exporters consume.
    let mut totals = RunMetrics::default();
    // Checkpoint writes happen outside any scheduler run; record them on
    // the control track, stitched into the same timeline.
    let mut ctl = TraceBuf::new(trace_spec.control(), CONTROL_WORKER);
    for (i, batch) in batches.iter().enumerate().skip(applied) {
        // Cooperative batch-boundary deadline check: finish the current
        // batch, persist it, and stop — the checkpoint makes an
        // interrupted replay resumable instead of wasted.
        if opts.budget.expired() {
            return Err(interrupted(
                &gfd_core::Interrupt::Deadline,
                &gfd_runtime::RunMetrics {
                    deadline_slack_ms: opts.budget.deadline_slack_ms(),
                    ..Default::default()
                },
            ));
        }
        let rep = incr.apply(batch);
        totals.merge(&rep.metrics);
        let _ = writeln!(
            out,
            "batch {}: {} op(s), {} dirty node(s), {} pivot(s) re-run, \
             {} evicted, {} found — {} violation(s) live{}",
            i + 1,
            batch.len(),
            rep.dirty_nodes,
            rep.rerun_pivots,
            rep.evicted,
            rep.found,
            rep.violations_total,
            if rep.compacted { " [compacted]" } else { "" },
        );
        if opts.show_metrics {
            let _ = write!(out, "{}", crate::output::fmt_metrics(&rep.metrics));
        }
        if let Some(path) = &opts.checkpoint {
            let due =
                (i + 1 - applied).is_multiple_of(opts.checkpoint_every) || i + 1 == batches.len();
            if due {
                let span = ctl.start();
                let ckpt = gfd_io::Checkpoint {
                    batches_applied: i + 1,
                    graph: incr.graph().clone(),
                    violations: incr.violations().to_vec(),
                };
                gfd_io::save_checkpoint(path, &ckpt, vocab).map_err(|e| {
                    ArgError::new(format!("cannot write checkpoint {}: {e}", path.display()))
                })?;
                ctl.span(
                    EventKind::Checkpoint,
                    (i + 1) as u32,
                    span,
                    (i + 1) as u64,
                    0,
                );
            }
        }
    }
    totals.trace.absorb_buf(ctl);

    // The end-of-stream totals (the per-batch lines above reset every
    // batch); printed before the summary line so scripts that parse the
    // `after N batch(es)` tail are unaffected.
    if opts.show_metrics {
        let _ = writeln!(out, "stream totals:");
        let _ = write!(out, "{}", crate::output::fmt_metrics(&totals));
    }

    let _ = writeln!(
        out,
        "after {} batch(es): {} node(s), {} edge(s) — {} violation(s)",
        batches.len(),
        incr.graph().node_count(),
        incr.graph().edge_count(),
        incr.violations().len(),
    );
    if !incr.is_clean() && !opts.quiet {
        for v in incr.violations() {
            let _ = write!(out, "{}", v.explain(incr.graph(), incr.sigma(), vocab));
        }
    }
    tracing.emit(&totals, &rule_names(incr.sigma()), out)?;
    Ok(if incr.is_clean() { 0 } else { 1 })
}
