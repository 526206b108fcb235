//! `gfd gen` — reproducible synthetic rule sets (the paper's generator).

use crate::args::{ArgError, Parsed};
use gfd_gen::{real_life_workload, synthetic_workload, Dataset};
use std::io::Write;

const HELP: &str = "\
gfd gen [--rules N] [--k K] [--l L] [--seed S] [--dataset NAME]
        [--unsat-chain D] [--out PATH]

Generates a rule set with the paper's generator (§VII: |Σ| up to 10000,
k ≤ 10 pattern nodes, l ≤ 5 literals) and prints it as DSL.
  --rules N       number of rules (default 20)
  --k K           max pattern nodes (default 4; synthetic only)
  --l L           max literals per side (default 3; synthetic only)
  --seed S        RNG seed (default 42)
  --dataset NAME  dbpedia | yago2 | pokec | tiny | synthetic (default)
  --unsat-chain D append an Example-4-style conflict chain of depth D
  --out PATH      write to PATH instead of stdout
Exit code: 0, or 2 on error.
";

pub(crate) fn run(args: Parsed, out: &mut dyn Write) -> Result<i32, ArgError> {
    if args.flag("help") {
        let _ = write!(out, "{HELP}");
        return Ok(0);
    }
    let rules = args.opt_usize("rules", 20)?;
    let k = args.opt_usize("k", 4)?;
    let l = args.opt_usize("l", 3)?;
    let seed = args.opt_u64("seed", 42)?;
    let dataset = args.opt_str("dataset")?.unwrap_or("synthetic").to_string();
    let unsat_chain =
        match args.opt_str("unsat-chain")? {
            None => None,
            Some(v) => Some(v.parse::<usize>().map_err(|_| {
                ArgError::new(format!("--unsat-chain expects an integer, got `{v}`"))
            })?),
        };
    let out_path = args.opt_str("out")?.map(str::to_string);
    args.finish()?;

    let workload = match dataset.as_str() {
        "synthetic" => {
            let mut w = synthetic_workload(rules, k, l, seed);
            if let Some(_d) = unsat_chain {
                // Regenerate through the real-life path which supports
                // chain injection on the same schema family.
                w = real_life_workload(Dataset::DBpedia, rules, seed, unsat_chain);
            }
            w
        }
        "dbpedia" => real_life_workload(Dataset::DBpedia, rules, seed, unsat_chain),
        "yago2" => real_life_workload(Dataset::Yago2, rules, seed, unsat_chain),
        "pokec" => real_life_workload(Dataset::Pokec, rules, seed, unsat_chain),
        "tiny" => real_life_workload(Dataset::Tiny, rules, seed, unsat_chain),
        other => {
            return Err(ArgError::new(format!(
                "unknown dataset `{other}` (dbpedia|yago2|pokec|tiny|synthetic)"
            )))
        }
    };

    let text = gfd_dsl::print_dep_set(&workload.sigma, &workload.vocab);
    match out_path {
        Some(p) => {
            std::fs::write(&p, &text)
                .map_err(|e| ArgError::new(format!("cannot write {p}: {e}")))?;
            let _ = writeln!(out, "wrote {} rule(s) to {p}", workload.sigma.len());
        }
        None => {
            let _ = write!(out, "{text}");
        }
    }
    Ok(0)
}
