//! Ablations beyond the paper's `*np` / `*nb` variants: the design
//! choices DESIGN.md §5 calls out.
//!
//! * **dependency-graph ordering** (§V-B "Dependency graph"): process
//!   work units in topological order of the attribute-dependency graph vs
//!   input order. Ordering front-loads `∅ → Y` units, so premises are
//!   instantiated before the units that watch them — fewer pending
//!   re-checks and earlier conflicts.
//! * **component pruning** (the canonical graph is a disjoint union, so
//!   a unit whose pivot component lacks a required label can be skipped
//!   wholesale before any matching).
//!
//! Both knobs live in `ReasonConfig`, the one configuration behind the
//! sequential (`workers = 1`) and parallel rows; each is toggled
//! independently, everything else at defaults.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{imp_with_config, sat_with_config, ReasonConfig};
use gfd_gen::{real_life_workload, Dataset};

fn main() {
    let scale = scale();
    banner(
        "Ablations: dependency ordering & component pruning",
        "DESIGN.md §5 (paper §V-B optimizations beyond the np/nb variants)",
    );

    // A satisfiable mined-style set and an unsatisfiable chain variant:
    // ordering matters most when conflicts exist to find early.
    let sat_w = real_life_workload(Dataset::DBpedia, scale.exp1_sigma / 2, 42, None);
    let unsat_w = real_life_workload(Dataset::DBpedia, scale.exp1_sigma / 2, 42, Some(3));
    let probes: Vec<_> = sat_w.probes.iter().take(scale.imp_probes).collect();

    let knobs = |workers: usize, dep: bool, prune: bool| ReasonConfig {
        use_dependency_order: dep,
        prune_components: prune,
        ..ReasonConfig::with_workers(workers).with_ttl(scale.default_ttl)
    };
    let variants = [
        ("both on", true, true),
        ("no dep-order", false, true),
        ("no pruning", true, false),
        ("both off", false, false),
    ];

    println!("\nSeqSat (satisfiable set) and SeqSat (unsat chain set):");
    let mut table = Table::new(&["variant", "sat set", "unsat set"]);
    for (name, dep, prune) in variants {
        let cfg = knobs(1, dep, prune);
        let t_sat = time_median(scale.repeats, || {
            assert!(sat_with_config(&sat_w.sigma, &cfg).is_satisfiable());
        });
        let t_unsat = time_median(scale.repeats, || {
            assert!(!sat_with_config(&unsat_w.sigma, &cfg).is_satisfiable());
        });
        table.row(vec![
            name.to_string(),
            fmt_duration(t_sat),
            fmt_duration(t_unsat),
        ]);
    }
    table.print();

    println!("\nSeqImp over {} probes:", probes.len());
    let mut table = Table::new(&["variant", "time"]);
    for (name, dep, prune) in variants {
        let cfg = knobs(1, dep, prune);
        let t = time_median(scale.repeats, || {
            for p in &probes {
                let r = imp_with_config(&sat_w.sigma, &p.phi, &cfg);
                assert_eq!(r.is_implied(), p.expect_implied);
            }
        });
        table.row(vec![name.to_string(), fmt_duration(t)]);
    }
    table.print();

    println!("\nParSat (p=4), same knobs:");
    let mut table = Table::new(&["variant", "sat set", "unsat set"]);
    for (name, dep, prune) in variants {
        let cfg = knobs(4, dep, prune);
        let t_sat = time_median(scale.repeats, || {
            assert!(sat_with_config(&sat_w.sigma, &cfg).is_satisfiable());
        });
        let t_unsat = time_median(scale.repeats, || {
            assert!(!sat_with_config(&unsat_w.sigma, &cfg).is_satisfiable());
        });
        table.row(vec![
            name.to_string(),
            fmt_duration(t_sat),
            fmt_duration(t_unsat),
        ]);
    }
    table.print();

    println!(
        "\nexpected shape: dependency ordering pays on the unsat set (conflicts surface\n\
         early); component pruning pays everywhere the canonical graph has many disjoint\n\
         patterns (units die before matching). Neither should ever hurt correctness."
    );
}
