//! `gfdbench` — wall-clock benchmark of the GFD reasoning stack.
//!
//! ```text
//! gfdbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! gfdbench --all [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! One invocation measures one workload in its own process (the value
//! table is process-global and append-only, and `VmHWM` is per process);
//! `--all` re-executes this binary once per workload and kind of run,
//! one after the other. The last line on stdout is the result object.
//! See `README.md` for the workloads, metrics and what each should move.

mod harness;
mod probe;
mod workloads;

use gfdbench::Json;
use harness::{Outcome, Workload, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::{Command, ExitCode};
use workloads::chase::ChaseGgd;
use workloads::detect::DetectHub;
use workloads::reason::{ImpDbpedia, SatDbpedia};
use workloads::stream::StreamDeltas;

/// Workload names, in the order `--all` runs them.
const WORKLOADS: &[&str] = &[
    SatDbpedia::NAME,
    ImpDbpedia::NAME,
    DetectHub::NAME,
    ChaseGgd::NAME,
    StreamDeltas::NAME,
];

/// Where the span files and the `--all` summary go, relative to the
/// working directory.
const OUT_DIR: &str = "target/benchmark";

const USAGE: &str =
    "usage: gfdbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n       \
                     gfdbench --all [--seed N] [--seconds S] [--smoke]";

struct Args {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        all: false,
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if args.smoke {
        // Smoke runs make the minimum rounds and stop: no timing is asserted.
        args.seconds = 0.0;
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --all and --workload".into());
    }
    Ok(args)
}

fn run<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        harness::traced::<W>(args.seed, args.seconds, args.smoke)
    } else {
        harness::end_to_end::<W>(args.seed, args.seconds, args.smoke)
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("every reported metric is in the catalogue")
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|&(name, value)| {
                (
                    name,
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit_of(name).into())),
                    ]),
                )
            })),
        ),
    ])
}

fn print_metric(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload:<14} {name:<30} {value:>16.4} {unit}");
}

fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let outcome = match name {
        SatDbpedia::NAME => run::<SatDbpedia>(args),
        ImpDbpedia::NAME => run::<ImpDbpedia>(args),
        DetectHub::NAME => run::<DetectHub>(args),
        ChaseGgd::NAME => run::<ChaseGgd>(args),
        StreamDeltas::NAME => run::<StreamDeltas>(args),
        other => return Err(format!("unknown workload {other}; known: {WORKLOADS:?}")),
    };
    if let Some(spans) = &outcome.spans {
        let path = Path::new(OUT_DIR).join(format!("{name}.spans.json"));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, spans.to_json().to_string()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "host: nproc = {}, workers on the parallel side n = {}",
        probe::nproc(),
        probe::parallel_workers()
    );
    for &(metric, value) in &outcome.metrics {
        print_metric(name, metric, value, unit_of(metric));
    }
    for (ratio, r) in &outcome.ratios {
        println!("{name:<14} {ratio} = {r}");
    }
    println!("{}", result_json(&outcome));
    Ok(outcome.correct)
}

/// Re-execute this binary for one workload and kind of run; passes its
/// metric table through and returns its parsed result object.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    // Everything before the result object is the child's metric table.
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{name} (trace {}): wrong result: {last}",
            u8::from(trace)
        ));
    }
    Ok(result)
}

fn run_all(args: &Args) -> Result<bool, String> {
    println!(
        "gfdbench: seed {}, {} s per run, nproc = {}, n = {}",
        args.seed,
        args.seconds,
        probe::nproc(),
        probe::parallel_workers()
    );
    let mut summary = Vec::new();
    for &name in WORKLOADS {
        let mut fields = Vec::new();
        for trace in [false, true] {
            let result = run_child(args, name, trace)?;
            fields.push((if trace { "per_layer" } else { "end_to_end" }, result));
        }
        summary.push((name, Json::obj(fields)));
    }
    let path = Path::new(OUT_DIR).join("summary.json");
    let doc = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(probe::nproc() as f64)),
        ("workers_n", Json::Num(probe::parallel_workers() as f64)),
        ("workloads", Json::obj(summary)),
    ]);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, doc.to_string()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("gfdbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("gfdbench: a result was wrong");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("gfdbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
