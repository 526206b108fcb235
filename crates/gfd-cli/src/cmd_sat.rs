//! `gfd sat FILE` — satisfiability checking.

use crate::args::{load_document, parse_budget, refuse_unread, ArgError, Parsed, Unread};
use crate::output::{fmt_chase_stats, fmt_duration, fmt_metrics};
use crate::traceopt::{rule_names, TraceArgs, TRACE_HELP};
use gfd_core::{Interrupt, SatOutcome};
use std::io::Write;
use std::time::{Duration, Instant};

const HELP: &str = "\
gfd sat FILE [--workers N] [--ttl-ms T] [--seq] [--model] [--metrics]
             [--gen-budget B] [--deadline-ms T] [--max-units N]
             [--trace FILE] [--profile] [--metrics-json FILE]

Checks whether the rule set in FILE has a model (§IV–V of the paper).
FILE may mix `gfd` and `ggd` blocks: literal-only sets run the
SeqSat/ParSat driver, sets with generating rules the GGD chase.
  --workers N    workers (default 4; 0 or 1 = the sequential algorithm)
  --seq          shorthand for --workers 1
  --ttl-ms T     straggler TTL in milliseconds (default 2000)
  --model        on satisfiable sets, print the extracted model
  --metrics      print scheduler metrics (units, splits, steals, idle)
  --gen-budget B fresh-node budget of the GGD chase (default 100000);
                 exhaustion exits 2
  --deadline-ms T wall-clock budget; an expired run degrades to unknown
                 (exit 2), never to a wrong definite verdict
  --max-units N  scheduler work-unit budget; exhaustion exits 2
{TRACE}\
Exit code: 0 satisfiable, 1 unsatisfiable, 2 error or budget exhausted.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{}", HELP.replace("{TRACE}", TRACE_HELP));
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let workers = args.opt_usize("workers", 4)?;
    // One door: SeqSat is the same call as ParSat, at one worker.
    let workers = if args.flag("seq") { 1 } else { workers };
    let ttl = Duration::from_millis(args.opt_u64("ttl-ms", 2000)?);
    let show_model = args.flag("model");
    let show_metrics = args.flag("metrics");
    let gen_budget = args.opt_u64("gen-budget", 100_000)?;
    let budget = parse_budget(&args)?;
    let tracing = TraceArgs::parse(&args)?;
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    refuse_unread(&doc, &path, "sat", Unread::Ged)?;
    if doc.deps.is_empty() {
        return Err(ArgError::new(format!("{path} contains no rules")));
    }
    let sigma = doc.deps;
    let start = Instant::now();
    let generating = sigma.iter().filter(|(_, d)| d.is_generating()).count();
    let (rules, size) = (sigma.len(), sigma.total_size());
    let _ = if generating == 0 {
        writeln!(out, "{path}: {rules} rule(s), total size {size}")
    } else {
        writeln!(
            out,
            "{path}: {rules} rule(s) ({generating} generating), total size {size} — GGD chase"
        )
    };
    // `dep_sat_with_config` routes: a literal Σ runs the enforcement
    // driver; a Σ with generating rules the chase over `GΣ` (scan units,
    // realization checks included, on the shared scheduler, generation committed in
    // order between rounds) under a fresh-node termination budget. An
    // interrupted run has no verdict: that is checked before the yes/no
    // split, so a timeout cannot masquerade as UNSATISFIABLE.
    let cfg = gfd_chase::ChaseConfig {
        workers,
        ttl,
        max_generated_nodes: gen_budget,
        budget,
        trace: tracing.spec(),
        ..gfd_chase::ChaseConfig::default()
    };
    let r = gfd_chase::dep_sat_with_config(&sigma, &cfg);
    let model = match r.outcome {
        SatOutcome::Unknown(i) => return Err(chase_unknown(&i, &r.stats, &r.metrics, gen_budget)),
        SatOutcome::Satisfiable(m) => Some(m),
        SatOutcome::Unsatisfiable(_) => None,
    };
    let elapsed = start.elapsed();

    // The model comes back exactly when Σ is satisfiable.
    let satisfiable = model.is_some();
    let verdict = if satisfiable {
        "SATISFIABLE"
    } else {
        "UNSATISFIABLE"
    };
    let _ = writeln!(out, "{verdict} ({})", fmt_duration(elapsed));
    if show_metrics {
        let _ = write!(out, "{}", fmt_metrics(&r.metrics));
        if generating > 0 {
            let _ = write!(out, "{}", fmt_chase_stats(&r.stats));
        }
    }
    tracing.emit(&r.metrics, &rule_names(&sigma), out)?;
    if let Some(model) = model.filter(|_| show_model) {
        let _ = writeln!(
            out,
            "model: {} nodes, {} edges, {} attributes",
            model.node_count(),
            model.edge_count(),
            model.attr_count()
        );
        let _ = write!(out, "{}", gfd_dsl::print_graph("model", &model, &vocab));
    }
    Ok(if satisfiable { 0 } else { 1 })
}

/// Render an interrupted run as the uniform exit-2 diagnostic, with the
/// budget context (panics, deadline slack) that explains it.
pub(crate) fn interrupted(i: &Interrupt, m: &gfd_runtime::RunMetrics) -> ArgError {
    let mut msg = format!("run interrupted: {i}");
    if let Some(slack) = m.deadline_slack_ms {
        msg.push_str(&format!(" (deadline slack {slack}ms)"));
    }
    if m.units_panicked > 0 {
        msg.push_str(&format!("; {} unit(s) panicked", m.units_panicked));
    }
    msg.push_str("; raise --deadline-ms/--max-units to keep going");
    ArgError::new(msg)
}

/// Render a `sat`/`imp` run without a verdict: the chase's fresh-node
/// budget names its own flag, every other interrupt is [`interrupted`].
pub(crate) fn chase_unknown(
    i: &Interrupt,
    stats: &gfd_chase::ChaseStats,
    m: &gfd_runtime::RunMetrics,
    gen_budget: u64,
) -> ArgError {
    if *i != Interrupt::FreshNodes {
        return interrupted(i, m);
    }
    ArgError::new(format!(
        "generation budget ({gen_budget}) exhausted after materializing {} node(s); \
         the set may have no finite chase — raise --gen-budget to keep going",
        stats.generated_nodes
    ))
}
