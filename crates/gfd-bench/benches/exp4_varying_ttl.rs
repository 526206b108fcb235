//! Fig. 6(k)/(l) — impact of the straggler threshold TTL on ParSat and
//! ParImp (p = 4).
//!
//! Paper's shape: a U-curve — tiny TTLs over-split (communication), large
//! TTLs under-split (imbalance); the optimum sat at TTL = 2 s on their
//! hardware. The workload here mixes mined-style rules with a few
//! "straggler" wildcard rules whose units have very uneven match counts,
//! which is what makes splitting matter.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{imp_with_config, sat_with_config, ReasonConfig};
use gfd_core::{DepSet, Dependency, Literal};
use gfd_gen::{real_life_workload, Dataset};
use gfd_graph::{LabelId, Pattern, VarId};

/// Add heavy-tailed rules: wildcard chains whose pivot units explode on
/// hub nodes of the canonical graph.
fn add_stragglers(sigma: &mut DepSet, count: usize) {
    let attr = gfd_graph::AttrId::new(0);
    for i in 0..count {
        let mut p = Pattern::new();
        let n = 4 + (i % 2);
        let vars: Vec<VarId> = (0..n)
            .map(|j| p.add_node(LabelId::WILDCARD, format!("w{j}")))
            .collect();
        for w in vars.windows(2) {
            p.add_edge(w[0], LabelId::WILDCARD, w[1]);
        }
        sigma.push(Dependency::new(
            format!("straggler{i}"),
            p,
            vec![Literal::eq_const(vars[0], attr, 1i64)],
            vec![Literal::eq_attr(vars[0], attr, vars[n - 1], attr)],
        ));
    }
}

fn main() {
    let scale = scale();
    banner(
        "Exp-4 (Fig. 6k, 6l): varying TTL (p=4)",
        "U-shaped cost curve; the paper's optimum is TTL = 2s on their cluster",
    );

    let base = real_life_workload(Dataset::DBpedia, scale.exp1_sigma / 2, 42, None);
    let mut sigma = base.sigma.clone();
    add_stragglers(&mut sigma, 3);
    let probes: Vec<_> = base.probes.iter().take(scale.imp_probes).collect();

    println!("\nFig. 6(k) — ParSat vs ParSatnp, varying TTL:");
    let mut table = Table::new(&["TTL", "ParSat", "np", "splits", "imbalance"]);
    for &ttl in &scale.ttls {
        let cfg = ReasonConfig::with_workers(4).with_ttl(ttl);
        let mut splits = 0u64;
        let mut imbalance = f64::NAN;
        let t = time_median(scale.repeats, || {
            let r = sat_with_config(&sigma, &cfg);
            assert!(r.is_satisfiable());
            splits = r.stats.units_split;
            imbalance = r.stats.imbalance().unwrap_or(f64::NAN);
        });
        let t_np = time_median(scale.repeats, || {
            assert!(sat_with_config(&sigma, &cfg.clone().without_pipeline()).is_satisfiable());
        });
        table.row(vec![
            format!("{ttl:?}"),
            fmt_duration(t),
            fmt_duration(t_np),
            splits.to_string(),
            format!("{imbalance:.2}"),
        ]);
    }
    table.print();

    println!("\nFig. 6(l) — ParImp vs ParImpnp, varying TTL:");
    let mut table = Table::new(&["TTL", "ParImp", "np"]);
    for &ttl in &scale.ttls {
        let cfg = ReasonConfig::with_workers(4).with_ttl(ttl);
        let t = time_median(scale.repeats, || {
            for p in &probes {
                let r = imp_with_config(&sigma, &p.phi, &cfg);
                assert_eq!(r.is_implied(), p.expect_implied);
            }
        });
        let t_np = time_median(scale.repeats, || {
            for p in &probes {
                let r = imp_with_config(&sigma, &p.phi, &cfg.clone().without_pipeline());
                assert_eq!(r.is_implied(), p.expect_implied);
            }
        });
        table.row(vec![
            format!("{ttl:?}"),
            fmt_duration(t),
            fmt_duration(t_np),
        ]);
    }
    table.print();
    println!(
        "\nexpected shape: cost falls as TTL grows (less split traffic), then flattens/rises\n\
         once stragglers stop being split (higher imbalance) — the paper's U-curve."
    );
}
