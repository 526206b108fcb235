//! `gfd ged-sat`, `gfd ged-imp`, `gfd resolve` — the GED extension
//! commands (§IX of the paper).

use crate::args::{load_document, parse_budget, refuse_unread, ArgError, Parsed, Unread};
use crate::cmd_sat::interrupted;
use crate::output::{fmt_duration, fmt_metrics};
use crate::traceopt::{TraceArgs, TRACE_HELP};
use gfd_ged::{
    ged_implies_with_config, ged_sat_with_config, resolve_entities, Ged, GedImpOutcome,
    GedReasonConfig, GedSatOutcome, Key,
};
use std::io::Write;
use std::time::{Duration, Instant};

/// Parse the scheduler flags shared by `ged-sat` and `ged-imp`.
fn reason_config(args: &Parsed, tracing: &TraceArgs) -> Result<GedReasonConfig, ArgError> {
    let workers = args.opt_usize("workers", 1)?;
    let ttl = Duration::from_millis(args.opt_u64("ttl-ms", 100)?);
    let max_branches = args.opt_usize("max-branches", 1_000_000)?;
    if max_branches == 0 {
        return Err(ArgError::new("--max-branches must be positive"));
    }
    let budget = parse_budget(args)?;
    let mut cfg = GedReasonConfig::with_workers(workers.max(1))
        .with_ttl(ttl)
        .with_max_branches(max_branches)
        .with_budget(budget);
    cfg.trace = tracing.spec();
    Ok(cfg)
}

/// Render an inconclusive GED run as the uniform exit-2 diagnostic: the
/// branch budget keeps its historical `raise --max-branches` hint, every
/// other interrupt reads as in `sat`/`imp` ([`interrupted`]).
fn ged_interrupted(
    interrupt: &gfd_core::Interrupt,
    cfg: &GedReasonConfig,
    metrics: &gfd_runtime::RunMetrics,
) -> ArgError {
    match interrupt {
        gfd_core::Interrupt::Branches => ArgError::new(format!(
            "branch budget ({}) exhausted before the search completed; \
             raise --max-branches",
            cfg.max_branches
        )),
        i => interrupted(i, metrics),
    }
}

const SAT_HELP: &str = "\
gfd ged-sat FILE [--witness] [--workers N] [--ttl-ms T] [--max-branches B]
                 [--metrics] [--deadline-ms T] [--max-units N]
                 [--trace FILE] [--profile] [--metrics-json FILE]

Checks whether the rules in FILE (both `ged` and `gfd` blocks, the latter
lifted) have a common model, using the GED chase with order predicates,
id literals and disjunction. The branch search runs on the shared
work-stealing scheduler; the first model found cancels the run.
  --witness        print the extracted model when one exists
  --workers N      parallel workers (default 1 = the sequential search)
  --ttl-ms T       straggler-splitting TTL in milliseconds (default 100)
  --max-branches B branch budget (default 1000000); exhaustion exits 2
  --deadline-ms T  wall-clock budget; expiry degrades to unknown (exit 2)
  --max-units N    scheduler work-unit budget; exhaustion exits 2
  --metrics        print scheduler metrics (branches, splits, steals, idle)
{TRACE}\
Exit code: 0 satisfiable, 1 unsatisfiable, 2 error or budget exhausted.
";

pub(crate) fn run_sat(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{}", SAT_HELP.replace("{TRACE}", TRACE_HELP));
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let witness = args.flag("witness");
    let show_metrics = args.flag("metrics");
    let tracing = TraceArgs::parse(&args)?;
    let cfg = reason_config(&args, &tracing)?;
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    refuse_unread(&doc, &path, "ged-sat", Unread::Ggd)?;
    let sigma = doc.all_as_geds().expect("`ggd` blocks were refused");
    if sigma.is_empty() {
        return Err(ArgError::new(format!("{path} contains no rules")));
    }
    let _ = writeln!(
        out,
        "{}: {} rule(s) (as GEDs), {} worker(s)",
        path,
        sigma.len(),
        cfg.workers
    );
    let run = ged_sat_with_config(&sigma, &cfg);
    let outcome = run.outcome;
    if let GedSatOutcome::Unknown(i) = &outcome {
        return Err(ged_interrupted(i, &cfg, &run.metrics));
    }
    let verdict = if outcome.is_satisfiable() {
        "SATISFIABLE"
    } else {
        "UNSATISFIABLE"
    };
    let _ = writeln!(out, "{verdict} ({})", fmt_duration(run.metrics.elapsed));
    if show_metrics {
        let _ = write!(out, "{}", fmt_metrics(&run.metrics));
    }
    // GED rule ids don't label RuleEval events (the search traces
    // GedBranch spans), so the exporters take an empty name table.
    tracing.emit(&run.metrics, &[], out)?;
    if witness {
        match outcome.witness() {
            Some(w) => {
                let _ = write!(out, "{}", gfd_dsl::print_graph("witness", w, &vocab));
            }
            None if outcome.is_satisfiable() => {
                let _ = writeln!(
                    out,
                    "witness: not extractable (non-integer order constraints)"
                );
            }
            None => {}
        }
    }
    Ok(if outcome.is_satisfiable() { 0 } else { 1 })
}

const IMP_HELP: &str = "\
gfd ged-imp FILE --phi NAME [--workers N] [--ttl-ms T] [--max-branches B]
                 [--metrics] [--deadline-ms T] [--max-units N]
                 [--trace FILE] [--profile] [--metrics-json FILE]

Checks whether the other rules in FILE imply rule NAME, under GED
semantics (order predicates, id literals, disjunction). The branch
search runs on the shared work-stealing scheduler; the first
counterexample found cancels the run.
  --workers N      parallel workers (default 1 = the sequential search)
  --ttl-ms T       straggler-splitting TTL in milliseconds (default 100)
  --max-branches B branch budget (default 1000000); exhaustion exits 2
  --deadline-ms T  wall-clock budget; expiry degrades to unknown (exit 2)
  --max-units N    scheduler work-unit budget; exhaustion exits 2
  --metrics        print scheduler metrics (branches, splits, steals, idle)
{TRACE}\
Exit code: 0 implied, 1 not implied, 2 error or budget exhausted.
";

pub(crate) fn run_imp(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{}", IMP_HELP.replace("{TRACE}", TRACE_HELP));
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let phi_name = args
        .opt_str("phi")?
        .ok_or_else(|| ArgError::new("ged-imp requires --phi NAME"))?
        .to_string();
    let show_metrics = args.flag("metrics");
    let tracing = TraceArgs::parse(&args)?;
    let cfg = reason_config(&args, &tracing)?;
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    refuse_unread(&doc, &path, "ged-imp", Unread::Ggd)?;
    let all = doc.all_as_geds().expect("`ggd` blocks were refused");
    let mut sigma = gfd_ged::GedSet::new();
    let mut phi: Option<Ged> = None;
    for (_, ged) in all.iter() {
        if ged.name == phi_name {
            phi = Some(ged.clone());
        } else {
            sigma.push(ged.clone());
        }
    }
    let phi = phi.ok_or_else(|| ArgError::new(format!("no rule named `{phi_name}` in {path}")))?;
    let _ = writeln!(
        out,
        "Σ: {} rule(s); ψ = {}; {} worker(s)",
        sigma.len(),
        phi.display(&vocab),
        cfg.workers
    );
    let run = ged_implies_with_config(&sigma, &phi, &cfg);
    if let GedImpOutcome::Unknown(i) = &run.outcome {
        return Err(ged_interrupted(i, &cfg, &run.metrics));
    }
    let implied = run.outcome.is_implied();
    let verdict = if implied { "IMPLIED" } else { "NOT IMPLIED" };
    let _ = writeln!(out, "{verdict} ({})", fmt_duration(run.metrics.elapsed));
    if show_metrics {
        let _ = write!(out, "{}", fmt_metrics(&run.metrics));
    }
    tracing.emit(&run.metrics, &[], out)?;
    Ok(if implied { 0 } else { 1 })
}

const RESOLVE_HELP: &str = "\
gfd resolve FILE [--graph NAME] [--out PATH]

Entity resolution with recursively-defined keys: every GED in FILE whose
consequence is a single id literal conjunction acts as a key; the named
graph is resolved to a fixpoint (merges may enable further merges).
  --graph NAME  resolve the named graph (default: the first graph)
  --out PATH    write the resolved graph (DSL) to PATH
Exit code: 0 (prints merge statistics), 2 on error.
";

pub(crate) fn run_resolve(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{RESOLVE_HELP}");
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let graph_name = args.opt_str("graph")?.map(str::to_string);
    let out_path = args.opt_str("out")?.map(str::to_string);
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    refuse_unread(&doc, &path, "resolve", Unread::Ggd)?;
    let graph = match &graph_name {
        Some(n) => doc
            .graphs
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, g)| g)
            .ok_or_else(|| ArgError::new(format!("no graph named `{n}` in {path}")))?,
        None => {
            &doc.graphs
                .first()
                .ok_or_else(|| ArgError::new(format!("{path} declares no graphs")))?
                .1
        }
    };
    let keys: Vec<Key> = doc
        .geds
        .iter()
        .filter_map(|(_, g)| Key::new(g.clone()))
        .collect();
    if keys.is_empty() {
        return Err(ArgError::new(format!(
            "{path} contains no keys (GEDs whose consequence is `x.id = y.id`)"
        )));
    }
    let _ = writeln!(
        out,
        "resolving {} node(s) with {} key(s)",
        graph.node_count(),
        keys.len()
    );
    let start = Instant::now();
    let r = resolve_entities(graph, &keys);
    let elapsed = start.elapsed();
    let _ = writeln!(
        out,
        "{} merge(s) in {} round(s); {} node(s) remain ({})",
        r.merges,
        r.rounds,
        r.resolved.node_count(),
        fmt_duration(elapsed),
    );
    for c in &r.conflicts {
        let _ = writeln!(
            out,
            "  attribute conflict at n{}.{}: kept {:?}, dropped {:?}",
            c.node.index(),
            vocab.attr_name(c.attr),
            c.kept,
            c.dropped,
        );
    }
    if let Some(p) = out_path {
        std::fs::write(&p, gfd_dsl::print_graph("resolved", &r.resolved, &vocab))
            .map_err(|e| ArgError::new(format!("cannot write {p}: {e}")))?;
        let _ = writeln!(out, "wrote {p}");
    }
    Ok(0)
}
