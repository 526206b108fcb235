//! Experiment harness utilities behind `benches/paper.rs`: workload
//! scale, wall-clock timing, the text table, and the one JSON emitter
//! (with its self-check) that writes `BENCH_paper.json`.
//!
//! Every reported time is **wall-clock**. Where a run hands back
//! [`RunMetrics`], its max per-worker busy time rides along under the key
//! `simulated_makespan_us` — what dedicated processors would achieve: a
//! simulation, never the headline. No ratio is stored.
//!
//! `GFD_SCALE=quick` (the default) sizes the table for a laptop or CI —
//! seconds, with the paper's *shapes* (who wins, crossovers) preserved;
//! `GFD_SCALE=full` selects the paper's parameters (|Σ| up to 10000).

#![warn(missing_docs)]

use gfd_io::jsonval::{self, Json};
use gfd_runtime::RunMetrics;
use std::time::{Duration, Instant};

/// Workload sizes for one run of the suite.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Human-readable scale name.
    pub name: &'static str,
    /// |Σ| of the "real-life" sets of Fig. 5 and Exp-1.
    pub mined_sigma: usize,
    /// Worker counts swept in Exp-1 (paper: 4..20).
    pub workers: Vec<u64>,
    /// |Σ| values swept in Exp-2 (paper: 2000..10000).
    pub exp2_sigmas: Vec<u64>,
    /// |Σ| for Exp-3 (paper: 5000).
    pub exp3_sigma: usize,
    /// TTL values swept in Exp-4 (paper: 0.1s..8s), bracketed by 0 (split
    /// always) and 10 s (never).
    pub ttls: Vec<Duration>,
    /// Default TTL for the other experiments (paper: 2s).
    pub default_ttl: Duration,
    /// Number of implication probes averaged per measurement.
    pub imp_probes: usize,
}

/// Read the scale from `GFD_SCALE` (`quick` default, `full` for
/// paper-sized runs).
pub fn scale() -> Scale {
    let millis = |ms: &[u64]| ms.iter().copied().map(Duration::from_millis).collect();
    match std::env::var("GFD_SCALE").as_deref() {
        Ok("full") => Scale {
            name: "full",
            mined_sigma: 8000,
            workers: vec![4, 8, 12, 16, 20],
            exp2_sigmas: vec![2000, 4000, 6000, 8000, 10000],
            exp3_sigma: 5000,
            ttls: millis(&[0, 100, 500, 1000, 2000, 4000, 8000, 10_000]),
            default_ttl: Duration::from_secs(2),
            imp_probes: 6,
        },
        _ => Scale {
            name: "quick",
            mined_sigma: 600,
            workers: vec![1, 2, 4, 8, 12, 16, 20],
            exp2_sigmas: vec![200, 400, 600, 800, 1000],
            exp3_sigma: 400,
            ttls: millis(&[0, 1, 2, 5, 10, 20, 50, 10_000]),
            default_ttl: Duration::from_millis(5),
            imp_probes: 4,
        },
    }
}

/// Time one closure invocation.
pub fn time_once<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Median wall time of `repeats` invocations (one extra warm-up).
pub fn time_median<T>(repeats: usize, mut f: impl FnMut() -> T) -> Duration {
    let _ = f(); // warm-up
    let mut times: Vec<Duration> = (0..repeats.max(1)).map(|_| time_once(&mut f).0).collect();
    times.sort();
    times[times.len() / 2]
}

/// Render a duration compactly (ms with 2 decimals, or s).
pub fn fmt_duration(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 10_000.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else {
        format!("{ms:.2}ms")
    }
}

/// A fixed-width text table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Print with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Cores available to this process — recorded with every report, since
/// a parallel wall time means something only while `p` ≤ this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Print the run's banner: the scale, and how far this host can test a
/// scalability claim.
pub fn banner(scale: &Scale) {
    let (scale, cores) = (scale.name, nproc());
    println!("GFD_SCALE={scale}, host: {cores} core(s). Every time below is wall-clock;");
    println!("a row with more workers than cores is oversubscribed: it cannot show a speedup.");
}

/// One measured cell of an experiment.
pub struct Sample {
    /// Wall-clock time of the measured region.
    pub wall: Duration,
    /// The run's scheduler metrics, when the variant returns them.
    pub metrics: Option<RunMetrics>,
    /// Variant-specific counters (`_us`-suffixed names are microseconds).
    pub counters: Vec<(&'static str, u64)>,
}

/// A [`Sample`] placed on its experiment's grid.
pub struct Row {
    /// Name of the workload the cell ran on.
    pub dataset: String,
    /// The swept axis value: an integer, or a name where it indexes one.
    pub x: Json,
    /// The algorithm or setting measured.
    pub variant: &'static str,
    /// The measurement.
    pub sample: Sample,
}

/// All rows of one experiment under its table entry's descriptive fields.
pub struct Report {
    /// Experiment id (the positional filter matches on it).
    pub id: &'static str,
    /// The paper figure it regenerates.
    pub figure: &'static str,
    /// The shape the paper reports for it.
    pub paper_shape: &'static str,
    /// Name (and unit) of the swept axis.
    pub axis: &'static str,
    /// The measured cells.
    pub rows: Vec<Row>,
}

/// The one emitter: every experiment of a run as one JSON document —
/// integer microseconds (the interchange parser is integer-only, as in
/// `gfd_io::report::run_report`), `wall_us` first in every row, host core count
/// and scale at the top, and no derived ratio anywhere.
pub fn report_json(scale: &str, reports: &[Report]) -> Json {
    let row = |r: &Row| {
        let mut fields = vec![
            ("wall_us", Json::int(r.sample.wall.as_micros())),
            ("dataset", Json::string(&r.dataset)),
            ("x", r.x.clone()),
            ("variant", Json::string(r.variant)),
        ];
        if let Some(m) = &r.sample.metrics {
            let makespan = m.makespan().unwrap_or_default();
            fields.push(("simulated_makespan_us", Json::int(makespan.as_micros())));
            fields.push(("units_dispatched", Json::int(m.units_dispatched)));
            fields.push(("units_split", Json::int(m.units_split)));
            fields.push(("units_stolen", Json::int(m.units_stolen)));
        }
        fields.extend(r.sample.counters.iter().map(|&(k, n)| (k, Json::int(n))));
        Json::object(fields)
    };
    let experiment = |e: &Report| {
        Json::object([
            ("id", Json::string(e.id)),
            ("figure", Json::string(e.figure)),
            ("paper_shape", Json::string(e.paper_shape)),
            ("axis", Json::string(e.axis)),
            ("rows", Json::Array(e.rows.iter().map(row).collect())),
        ])
    };
    let experiments = Json::Array(reports.iter().map(experiment).collect());
    Json::object([
        ("benchmark", Json::string("paper")),
        ("scale", Json::string(scale)),
        ("nproc", Json::int(nproc())),
        ("experiments", experiments),
    ])
}

/// The runner's self-check, on the text it is about to write: it parses,
/// experiment ids are unique, every experiment has a row, every row has
/// `wall_us > 0`, and no object anywhere has a key `speedup` or
/// `makespan_ms` (a simulated time may appear only under a name that says
/// so). Returns the number of rows.
pub fn check_report(text: &str) -> Result<usize, String> {
    fn has_banned_key(v: &Json) -> bool {
        match v {
            Json::Object(fields) => fields
                .iter()
                .any(|(k, v)| k == "speedup" || k == "makespan_ms" || has_banned_key(v)),
            Json::Array(items) => items.iter().any(has_banned_key),
            _ => false,
        }
    }
    let doc = jsonval::parse(text).map_err(|e| e.to_string())?;
    if has_banned_key(&doc) {
        return Err("a key is named `speedup` or `makespan_ms`".to_string());
    }
    let experiments = doc.get("experiments").and_then(Json::as_array);
    let (mut ids, mut total) = (Vec::new(), 0);
    for e in experiments.ok_or("no `experiments` array")? {
        let id = e.get("id").and_then(Json::as_str).ok_or("no `id`")?;
        let rows = e.get("rows").and_then(Json::as_array).unwrap_or(&[]);
        let wall = |r: &Json| r.get("wall_us").and_then(Json::as_int);
        if ids.contains(&id) {
            return Err(format!("duplicate experiment id `{id}`"));
        } else if rows.is_empty() || !rows.iter().all(|r| wall(r) > Some(0)) {
            return Err(format!("`{id}`: no rows, or a row without `wall_us > 0`"));
        }
        ids.push(id);
        total += rows.len();
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_default() {
        // Note: assumes GFD_SCALE is unset in the test environment.
        if std::env::var("GFD_SCALE").is_err() {
            assert_eq!(scale().name, "quick");
        }
    }

    #[test]
    fn median_of_constant_work() {
        let d = time_median(3, || std::hint::black_box(1 + 1));
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn table_renders_all_rows() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        t.print();
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1500.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(11)), "11.00s");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    fn report(id: &'static str, walls: &[u64], counter: &'static str) -> Report {
        let metrics = RunMetrics {
            worker_busy: vec![Duration::from_micros(7), Duration::from_micros(9)],
            ..Default::default()
        };
        let sample = |&us: &u64| Sample {
            wall: Duration::from_micros(us),
            metrics: Some(metrics.clone()),
            counters: vec![(counter, 8)],
        };
        let row = |us| Row {
            dataset: "DBpedia".to_string(),
            x: Json::Int(4),
            variant: "ParSat",
            sample: sample(us),
        };
        Report {
            id,
            figure: "Fig. 6(a)",
            paper_shape: "3.4x from p = 4 to 20",
            axis: "workers",
            rows: walls.iter().map(row).collect(),
        }
    }

    #[test]
    fn emitter_round_trips_through_the_self_check() {
        let render = |reports: &[Report]| report_json("quick", reports).pretty();
        let text = render(&[report("exp1_sat", &[1500, 900], "rounds")]);
        assert_eq!(check_report(&text), Ok(2));
        let doc = jsonval::parse(&text).unwrap();
        let nproc = doc.get("nproc").and_then(Json::as_int);
        assert_eq!(nproc, Some(super::nproc() as i64));
        let experiments = doc.get("experiments").and_then(Json::as_array).unwrap();
        let row = &experiments[0].get("rows").and_then(Json::as_array).unwrap()[1];
        let Json::Object(fields) = row else {
            panic!("a row is an object")
        };
        assert_eq!(fields[0], ("wall_us".to_string(), Json::Int(900)));
        let field = |k: &str| row.get(k).and_then(Json::as_int);
        assert_eq!(field("x"), Some(4));
        assert_eq!(field("simulated_makespan_us"), Some(9));
        assert_eq!(field("rounds"), Some(8));

        // What the self-check promises to reject.
        let twice = render(&[report("e", &[5], "rounds"), report("e", &[5], "rounds")]);
        assert!(check_report(&twice).unwrap_err().contains("duplicate"));
        let (empty, untimed) = (report("e", &[], "rounds"), report("e", &[0], "rounds"));
        for bad in [empty, untimed, report("e", &[5], "speedup")] {
            assert!(check_report(&render(&[bad])).is_err());
        }
        assert!(check_report("{").is_err());
    }
}
