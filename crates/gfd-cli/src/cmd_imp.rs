//! `gfd imp FILE` — implication checking.

use crate::args::{load_document, parse_budget, refuse_unread, ArgError, Parsed, Unread};
use crate::cmd_sat::chase_unknown;
use crate::output::{fmt_chase_stats, fmt_duration, fmt_metrics};
use crate::traceopt::{rule_names, TraceArgs, TRACE_HELP};
use gfd_core::{DepSet, ImpOutcome};
use std::io::Write;
use std::time::{Duration, Instant};

const HELP: &str = "\
gfd imp FILE --phi NAME [--workers N] [--ttl-ms T] [--seq] [--metrics]
             [--gen-budget B] [--deadline-ms T] [--max-units N]
             [--trace FILE] [--profile] [--metrics-json FILE]

Checks whether the other rules in FILE imply rule NAME (§VI). FILE may
mix `gfd` and `ggd` blocks: a generating candidate against literal rules
runs on the unified driver (realization early-exit); a generating Σ runs
the GGD chase over the candidate's canonical graph.
  --phi NAME     the candidate rule ϕ (by its name in the file)
  --workers N    workers (default 4; 0 or 1 = the sequential algorithm)
  --seq          shorthand for --workers 1
  --ttl-ms T     straggler TTL in milliseconds (default 2000)
  --metrics      print scheduler metrics (units, splits, steals, idle)
  --gen-budget B fresh-node budget of the GGD chase (default 100000);
                 exhaustion exits 2
  --deadline-ms T wall-clock budget; an expired run degrades to unknown
                 (exit 2), never to a wrong definite verdict
  --max-units N  scheduler work-unit budget; exhaustion exits 2
{TRACE}\
Exit code: 0 implied, 1 not implied, 2 error or budget exhausted.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{}", HELP.replace("{TRACE}", TRACE_HELP));
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let phi_name = args
        .opt_str("phi")?
        .ok_or_else(|| ArgError::new("imp requires --phi NAME"))?
        .to_string();
    let workers = args.opt_usize("workers", 4)?;
    // One door: SeqImp is the same call as ParImp, at one worker.
    let workers = if args.flag("seq") { 1 } else { workers };
    let ttl = Duration::from_millis(args.opt_u64("ttl-ms", 2000)?);
    let show_metrics = args.flag("metrics");
    let gen_budget = args.opt_u64("gen-budget", 100_000)?;
    let budget = parse_budget(&args)?;
    let tracing = TraceArgs::parse(&args)?;
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    refuse_unread(&doc, &path, "imp", Unread::Ged)?;
    // Split ϕ from Σ: the last rule of that name, none of which stays in Σ.
    let mut sigma = DepSet::new();
    let mut phi = None;
    for dep in doc.deps.into_vec() {
        if dep.name == phi_name {
            phi = Some(dep);
        } else {
            sigma.push(dep);
        }
    }
    let phi = phi.ok_or_else(|| ArgError::new(format!("no rule named `{phi_name}` in {path}")))?;

    let _ = writeln!(
        out,
        "Σ: {} rule(s); ϕ = {}",
        sigma.len(),
        phi.display(&vocab)
    );
    let start = Instant::now();

    // `dep_imp_with_config` routes: a literal Σ runs the enforcement
    // driver, whether ϕ's consequence generates or not; a generating Σ
    // needs the chase.
    let cfg = gfd_chase::ChaseConfig {
        workers,
        ttl,
        max_generated_nodes: gen_budget,
        budget,
        trace: tracing.spec(),
        ..gfd_chase::ChaseConfig::default()
    };
    let r = gfd_chase::dep_imp_with_config(&sigma, &phi, &cfg);
    // Check the unknown arm before the yes/no split: a deadline expiry
    // must exit 2, not report NOT IMPLIED.
    if let ImpOutcome::Unknown(i) = &r.outcome {
        return Err(chase_unknown(i, &r.stats, &r.metrics, gen_budget));
    }
    let implied = r.is_implied();
    let elapsed = start.elapsed();

    let verdict = if implied { "IMPLIED" } else { "NOT IMPLIED" };
    let _ = writeln!(out, "{verdict} ({})", fmt_duration(elapsed));
    if show_metrics {
        let _ = write!(out, "{}", fmt_metrics(&r.metrics));
        if sigma.has_generating() {
            let _ = write!(out, "{}", fmt_chase_stats(&r.stats));
        }
    }
    tracing.emit(&r.metrics, &rule_names(&sigma), out)?;
    Ok(if implied { 0 } else { 1 })
}
