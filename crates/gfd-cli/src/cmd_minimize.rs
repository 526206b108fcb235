//! `gfd minimize FILE` — cover computation via implication.
//!
//! The paper's motivating use of the implication analysis: "eliminates
//! redundant GFDs that are entailed by others … an optimization strategy
//! to speed up, e.g., error detection" (§I). The greedy algorithm scans
//! rules in file order and drops each rule implied by the remaining set —
//! the classical cover construction.

use crate::args::{load_document, refuse_unread, ArgError, Parsed, Unread};
use crate::output::fmt_duration;
use gfd_core::{DepSet, ReasonConfig};
use std::io::Write;
use std::time::{Duration, Instant};

const HELP: &str = "\
gfd minimize FILE [--workers N] [--ttl-ms T] [--seq] [--out PATH]

Removes rules implied by the rest of the set (a cover). Order-dependent
but always sound: the reduced set is equivalent to the original.
  --out PATH    write the reduced set (DSL) to PATH
  --workers N   workers for each implication check (default 4;
                0 or 1 = sequential SeqImp)
  --seq         shorthand for --workers 1
Exit code: 0 (prints how many rules were removed), 2 on error.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{HELP}");
        return Ok(0);
    }
    let path = args.positional(0, "FILE")?.to_string();
    let workers = args.opt_usize("workers", 4)?;
    let workers = if args.flag("seq") { 1 } else { workers };
    let ttl = Duration::from_millis(args.opt_u64("ttl-ms", 2000)?);
    let out_path = args.opt_str("out")?.map(str::to_string);
    args.finish()?;

    let mut vocab = gfd_graph::Vocab::new();
    let doc = load_document(&path, &mut vocab)?;
    refuse_unread(&doc, &path, "minimize", Unread::Ged)?;
    if doc.deps.has_generating() {
        return Err(ArgError::new(
            "minimize supports literal GFD rules only (GGD implication is \
             chase-based and a cover under it may not round-trip; drop the \
             `ggd` blocks or minimize them separately)",
        ));
    }
    let total = doc.deps.len();
    if total == 0 {
        return Err(ArgError::new(format!("{path} contains no GFDs")));
    }

    let cfg = ReasonConfig::with_workers(workers).with_ttl(ttl);
    let start = Instant::now();
    // One owned set: each candidate in turn is taken out, tested against
    // what is left — every rule still kept, except it — and put back at
    // its place unless the rest implies it.
    let mut kept = doc.deps.into_vec();
    let mut i = 0;
    while i < kept.len() {
        let candidate = kept.remove(i);
        let rest = DepSet::from_vec(kept);
        let implied =
            !rest.is_empty() && gfd_core::imp_with_config(&rest, &candidate, &cfg).is_implied();
        kept = rest.into_vec();
        if implied {
            let _ = writeln!(out, "removed {} (implied by the rest)", candidate.name);
        } else {
            kept.insert(i, candidate);
            i += 1;
        }
    }
    let elapsed = start.elapsed();

    let reduced = DepSet::from_vec(kept);
    let _ = writeln!(
        out,
        "cover: kept {} of {total} rule(s), removed {} ({})",
        reduced.len(),
        total - reduced.len(),
        fmt_duration(elapsed),
    );
    if let Some(out_path) = out_path {
        std::fs::write(&out_path, gfd_dsl::print_dep_set(&reduced, &vocab))
            .map_err(|e| ArgError::new(format!("cannot write {out_path}: {e}")))?;
        let _ = writeln!(out, "wrote {out_path}");
    }
    Ok(0)
}
