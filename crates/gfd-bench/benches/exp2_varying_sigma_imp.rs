//! Fig. 6(f) — implication scalability with |Σ| (synthetic GFDs, k = 6,
//! l = 5, p = 4): SeqImp, ParImp, ParImpnp, ParImpnb and the chase
//! baseline ParImpRDF.
//!
//! Paper's shape: all grow with |Σ|; ParImp ≈ 3.1× faster than SeqImp and
//! ≈ 4.8× faster than ParImpRDF on average; SeqImp/ParImp are less
//! sensitive to |Σ| when Σ |= ϕ (early termination).

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{imp_with_config, ReasonConfig};
use gfd_gen::synthetic_workload;

fn main() {
    let scale = scale();
    banner(
        "Exp-2 (Fig. 6f): implication, varying |Σ| (k=6, l=5, p=4)",
        "SeqImp 982s / ParImp 342s at |Σ|=10000; ParImp 3.1x vs SeqImp, 4.8x vs ParImpRDF",
    );

    let cfg = ReasonConfig::with_workers(4).with_ttl(scale.default_ttl);
    let mut table = Table::new(&[
        "|Σ|",
        "SeqImp",
        "ParImp",
        "np",
        "nb",
        "ParImpRDF",
        "rdf/seq",
    ]);
    for &size in &scale.exp2_sigmas {
        let w = synthetic_workload(size, 6, 5, 42);
        let probes: Vec<_> = w.probes.iter().take(scale.imp_probes).collect();
        let run_all = |f: &dyn Fn(&gfd_core::Dependency) -> bool| {
            for p in &probes {
                assert_eq!(f(&p.phi), p.expect_implied);
            }
        };
        let t_seq = time_median(scale.repeats, || {
            run_all(&|phi| gfd_core::seq_imp(&w.sigma, phi).is_implied())
        });
        let t_par = time_median(scale.repeats, || {
            run_all(&|phi| imp_with_config(&w.sigma, phi, &cfg).is_implied())
        });
        let t_np = time_median(scale.repeats, || {
            run_all(&|phi| {
                imp_with_config(&w.sigma, phi, &cfg.clone().without_pipeline()).is_implied()
            })
        });
        let t_nb = time_median(scale.repeats, || {
            run_all(&|phi| {
                imp_with_config(&w.sigma, phi, &cfg.clone().without_split()).is_implied()
            })
        });
        let t_rdf = time_median(scale.repeats.min(2), || {
            run_all(&|phi| gfd_chase::chase_imp(&w.sigma, phi).is_implied())
        });
        table.row(vec![
            size.to_string(),
            fmt_duration(t_seq),
            fmt_duration(t_par),
            fmt_duration(t_np),
            fmt_duration(t_nb),
            fmt_duration(t_rdf),
            format!(
                "{:.2}x",
                t_rdf.as_secs_f64() / t_seq.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    table.print();
    println!(
        "\nexpected shape: all grow with |Σ|; the chase re-scans each round and trails SeqImp;\n\
         implied probes terminate early, damping the growth of SeqImp/ParImp."
    );
}
