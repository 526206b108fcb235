//! Fig. 6(c)/(d) — parallel scalability of implication checking:
//! ParImp vs ParImpnp vs ParImpnb, varying p, on DBpedia-like and
//! YAGO2-like rule sets.
//!
//! Paper's shape: ParImp ~3×/3.1× faster as p goes 4→20; beats `nb` by
//! ~4.1× and `np` by 1.7–1.8× on average.

use gfd_bench::{banner, fmt_duration, scale, time_median, Table};
use gfd_core::{imp_with_config, ReasonConfig};
use gfd_gen::{real_life_workload, Dataset};
use std::time::Duration;

fn main() {
    let scale = scale();
    banner(
        "Exp-1 (Fig. 6c, 6d): ParImp scalability, varying p",
        "ParImp 3.6x faster from p=4 to 20; vs nb 4.1x, vs np 1.7-1.8x",
    );

    for dataset in [Dataset::DBpedia, Dataset::Yago2] {
        let w = real_life_workload(dataset, scale.exp1_sigma, 42, None);
        let probes: Vec<_> = w.probes.iter().take(scale.imp_probes).collect();
        let seq = time_median(scale.repeats, || {
            for p in &probes {
                assert_eq!(
                    gfd_core::seq_imp(&w.sigma, &p.phi).is_implied(),
                    p.expect_implied
                );
            }
        });
        println!(
            "\n[{}] |Σ| = {}, {} probes, SeqImp reference: {}",
            w.name,
            w.sigma.len(),
            probes.len(),
            fmt_duration(seq)
        );

        let mut table = Table::new(&[
            "p",
            "ParImp wall",
            "makespan",
            "np wall",
            "nb wall",
            "speedup(mk)",
        ]);
        let mut first_makespan: Option<Duration> = None;
        for &p in &scale.workers {
            let base = ReasonConfig::with_workers(p).with_ttl(scale.default_ttl);
            let mut makespan = Duration::ZERO;
            let t = time_median(scale.repeats, || {
                let mut mk = Duration::ZERO;
                for probe in &probes {
                    let r = imp_with_config(&w.sigma, &probe.phi, &base);
                    assert_eq!(r.is_implied(), probe.expect_implied);
                    mk += r.stats.makespan().unwrap_or(r.stats.elapsed);
                }
                makespan = mk;
            });
            let t_np = time_median(scale.repeats, || {
                for probe in &probes {
                    let r = imp_with_config(&w.sigma, &probe.phi, &base.clone().without_pipeline());
                    assert_eq!(r.is_implied(), probe.expect_implied);
                }
            });
            let t_nb = time_median(scale.repeats, || {
                for probe in &probes {
                    let r = imp_with_config(&w.sigma, &probe.phi, &base.clone().without_split());
                    assert_eq!(r.is_implied(), probe.expect_implied);
                }
            });
            let speedup = first_makespan.get_or_insert(makespan).as_secs_f64()
                / makespan.as_secs_f64().max(1e-9);
            table.row(vec![
                p.to_string(),
                fmt_duration(t),
                fmt_duration(makespan),
                fmt_duration(t_np),
                fmt_duration(t_nb),
                format!("{speedup:.2}x"),
            ]);
        }
        table.print();
    }
    println!(
        "\nexpected shape: makespan shrinks with p; implied probes terminate early\n\
         (Y ⊆ EqH), so ParImp stays well under ParSat for the same Σ (cf. Fig. 5)."
    );
}
