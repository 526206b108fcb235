//! Fault-injection suite: every failpoint site (DESIGN.md §11.3) fired
//! on purpose, proving the failure semantics each layer promises.
//!
//! * the scheduler isolates unit panics — `RunOutcome::Aborted`, all
//!   workers joined, no hang, no poisoned state, at every worker count
//!   (`GFD_EQ_WORKERS` pins one; CI sweeps 2 and 8);
//! * the reasoning drivers map an abort to their unknown arm, never to a
//!   wrong definite verdict;
//! * parsers fail with structured errors, the compactor defers work, and
//!   a crash between batches is recoverable from a checkpoint with a
//!   byte-identical final state.
//!
//! The failpoint registry is process-global, so every test here holds
//! the `SERIAL` lock and disarms on entry and exit.

use gfd::chase::{dep_sat_with_config, ChaseConfig};
use gfd::core::{imp_with_config, sat_with_config, Budget, Interrupt, ReasonConfig, SatOutcome};
use gfd::detect::{detect, DetectConfig};
use gfd::ged::{ged_sat_with_config, GedReasonConfig, GedSatOutcome};
use gfd::incr::{IncrConfig, IncrementalDetector};
use gfd::io::{checkpoint_to_string, parse_checkpoint, Checkpoint};
use gfd::prelude::*;
use gfd::runtime::{failpoint, run_scheduler, RunOutcome, SchedOptions, SchedRun, Task, WorkerCtx};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Process-global failpoint registry ⇒ the suite must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::disarm_all();
    g
}

/// Worker counts to sweep: `GFD_EQ_WORKERS=n` pins one (the CI matrix),
/// the default covers a small and a large pool.
fn worker_counts() -> Vec<usize> {
    match std::env::var("GFD_EQ_WORKERS") {
        Ok(v) => vec![v.parse().expect("GFD_EQ_WORKERS must be an integer")],
        Err(_) => vec![2, 8],
    }
}

/// A minimal workload: each unit sleeps briefly (long enough that idle
/// workers reach their steal path) and bumps a counter.
struct SleepTask {
    executed: AtomicU64,
}

impl SleepTask {
    fn new() -> Self {
        SleepTask {
            executed: AtomicU64::new(0),
        }
    }
}

impl Task for SleepTask {
    type Unit = u32;
    type Worker = ();

    fn worker(&self, _id: usize) -> Self::Worker {}

    fn run_unit(&self, _w: &mut Self::Worker, _unit: u32, _ctx: &WorkerCtx<'_, u32>) {
        std::thread::sleep(Duration::from_millis(2));
        self.executed.fetch_add(1, Ordering::SeqCst);
    }
}

fn run_sleep_task(task: &SleepTask, units: usize, workers: usize) -> SchedRun<()> {
    let stop = AtomicBool::new(false);
    run_scheduler(
        task,
        (0..units as u32).collect(),
        workers,
        &stop,
        SchedOptions::default(),
    )
}

#[test]
fn forced_unit_panic_aborts_cleanly_at_every_worker_count() {
    let _g = serial();
    for p in worker_counts() {
        failpoint::arm("sched/unit=1").unwrap();
        let task = SleepTask::new();
        // Returning at all proves every worker joined (no hang); the
        // other units may or may not have run before cancellation.
        let run = run_sleep_task(&task, 16, p);
        let RunOutcome::Aborted(info) = &run.outcome else {
            panic!("p={p}: expected Aborted, got {:?}", run.outcome);
        };
        assert_eq!(info.site, "unit", "{info}");
        assert!(info.payload.contains("sched/unit"), "{info}");
        assert_eq!(run.units_panicked, 1, "p={p}: the failpoint fires once");
        // The first unit panics before any helper starts: worker 0's
        // state alone comes back.
        assert_eq!(run.workers.len(), 1, "p={p}: partial states returned");
        failpoint::disarm_all();

        // The scheduler state is not poisoned: a fresh run at the same
        // width completes every unit.
        let task = SleepTask::new();
        let run = run_sleep_task(&task, 16, p);
        assert_eq!(run.outcome, RunOutcome::Completed, "p={p}");
        assert_eq!(task.executed.load(Ordering::SeqCst), 16, "p={p}");
    }
}

#[test]
fn dispatch_and_steal_failpoints_abort_cleanly() {
    let _g = serial();
    // A panic while *acquiring* a unit (outside any unit envelope) must
    // still cancel the run and join every worker.
    failpoint::arm("sched/dispatch=1").unwrap();
    let task = SleepTask::new();
    let run = run_sleep_task(&task, 16, 2);
    let RunOutcome::Aborted(info) = &run.outcome else {
        panic!("expected Aborted, got {:?}", run.outcome);
    };
    assert_eq!(info.site, "<dispatch>", "{info}");
    assert!(info.payload.contains("sched/dispatch"), "{info}");
    failpoint::disarm_all();

    // Same for the steal path: with more workers than units, idle
    // workers must attempt steals while the slow units run.
    failpoint::arm("sched/steal=~1:7").unwrap();
    let task = SleepTask::new();
    let run = run_sleep_task(&task, 4, 8);
    let RunOutcome::Aborted(info) = &run.outcome else {
        panic!("expected Aborted, got {:?}", run.outcome);
    };
    assert!(info.payload.contains("sched/steal"), "{info}");
    failpoint::disarm_all();
}

/// Steal storm on the raw scheduler: instant units at eight workers, so
/// the pool spends most of the run stealing from each other's queues.
/// Every unit must execute exactly once per round — no loss, no
/// duplication across racing steals — which is counted per unit, not
/// inferred from `units_stolen` (loot waits on the thief's own queue and
/// can be stolen again, so steals may outnumber units).
#[test]
fn steal_storm_executes_every_unit_exactly_once() {
    let _g = serial();

    /// The first unit to run sleeps past the scheduler's 100 µs helper
    /// grace, so the helpers start with the other units still queued and
    /// the storm happens in a release build too.
    struct CountTask {
        executed: Vec<AtomicU8>,
        warmed: AtomicBool,
    }
    impl Task for CountTask {
        type Unit = u32;
        type Worker = ();
        fn worker(&self, _id: usize) -> Self::Worker {}
        fn run_unit(&self, _w: &mut Self::Worker, unit: u32, _ctx: &WorkerCtx<'_, u32>) {
            if !self.warmed.swap(true, Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            self.executed[unit as usize].fetch_add(1, Ordering::SeqCst);
        }
    }

    let mut total_stolen = 0u64;
    for _round in 0..8 {
        let task = CountTask {
            executed: (0..512).map(|_| AtomicU8::new(0)).collect(),
            warmed: AtomicBool::new(false),
        };
        let stop = AtomicBool::new(false);
        let run = run_scheduler(
            &task,
            (0..512u32).collect(),
            8,
            &stop,
            SchedOptions::default(),
        );
        assert_eq!(run.outcome, RunOutcome::Completed);
        let runs = |unit: &AtomicU8| unit.load(Ordering::SeqCst);
        let off = task.executed.iter().position(|unit| runs(unit) != 1);
        assert_eq!(
            off.map(|u| (u, runs(&task.executed[u]))),
            None,
            "(unit, runs)"
        );
        assert_eq!(run.units_executed, 512);
        total_stolen += run.units_stolen;
    }
    assert!(
        total_stolen > 0,
        "eight rounds at p=8 must steal at least once"
    );
}

/// Steal storm through the chase: the conflict-heavy workload at eight
/// workers with TTL zero and singleton batches (maximal splitting). A
/// seeded `sched/steal` failpoint mid-storm maps to a clean unknown;
/// disarmed, the same storm lands on the serial fixpoint bit for bit.
/// Helpers start only once a scheduler run outlasts `HELPER_GRACE`, so
/// the chain is deep enough (≈ 6 000 generated nodes) that its later
/// scan rounds run several times the grace in a release build.
#[test]
fn steal_storm_chase_stays_invariant_under_failpoints() {
    let _g = serial();
    let mut vocab = Vocab::new();
    let deps = gfd::gen::ggd_overlap_workload(
        &gfd::gen::GgdGenConfig {
            chain_depth: 5,
            gen_per_tier: 2,
            fanout: 3,
            literal_rules: 2,
            seed: 23,
        },
        &mut vocab,
    );
    let storm_cfg = ChaseConfig {
        workers: 8,
        ttl: Duration::ZERO,
        batch: 1,
        ..ChaseConfig::default()
    };

    failpoint::arm("sched/steal=~1:10").unwrap();
    let r = dep_sat_with_config(&deps, &storm_cfg);
    failpoint::disarm_all();
    match &r.outcome {
        SatOutcome::Unknown(Interrupt::Aborted(msg)) => {
            assert!(msg.contains("sched/steal"), "{msg}")
        }
        other => panic!("expected an interrupted chase, got {other:?}"),
    }
    assert!(r.is_unknown(), "an aborted storm has no verdict");

    let base = dep_sat_with_config(&deps, &ChaseConfig::default());
    assert!(base.is_satisfiable());
    let r = dep_sat_with_config(&deps, &storm_cfg);
    assert!(r.is_satisfiable(), "no sticky state after disarm");
    assert_eq!(r.stats.rounds, base.stats.rounds);
    assert_eq!(r.stats.generated_nodes, base.stats.generated_nodes);
}

#[test]
fn reasoning_driver_maps_a_unit_panic_to_unknown() {
    let _g = serial();
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(
        "gfd a { pattern { node x: t } then { x.v = 1 } }\n\
         gfd b { pattern { node y: u } then { y.w = 2 } }\n\
         gfd c { pattern { node z: t } then { z.u = 3 } }\n",
        &mut vocab,
    )
    .unwrap()
    .deps;
    for p in worker_counts() {
        failpoint::arm("sched/unit=1").unwrap();
        let r = sat_with_config(&sigma, &ReasonConfig::with_workers(p));
        match r.interrupt() {
            Some(Interrupt::Aborted(msg)) => {
                assert!(msg.contains("sched/unit"), "p={p}: {msg}")
            }
            other => panic!("p={p}: expected an abort interrupt, got {other:?}"),
        }
        assert!(r.stats.units_panicked >= 1, "p={p}");
        failpoint::disarm_all();

        // Disarmed, the same set gets its real verdict — no sticky state.
        let r = sat_with_config(&sigma, &ReasonConfig::with_workers(p));
        assert!(r.is_satisfiable(), "p={p}");
    }
}

/// Every driver wraps its scheduler run in the same prologue/epilogue
/// (`gfd_core::run_task`), so each must land the same two degraded runs —
/// a `sched/unit` panic and an already-expired deadline — in its own
/// unknown arm, with the right [`Interrupt`] and the panic count resp. a
/// negative deadline slack on its metrics. One row per driver.
#[test]
fn every_driver_lands_degraded_runs_in_its_unknown_arm() {
    let _g = serial();
    let mut vocab = Vocab::new();
    let doc = gfd::dsl::parse_document(
        "graph g { node n0: t { v = 2 } node n1: t { v = 1 } node n2: u }\n\
         gfd a { pattern { node x: t } then { x.v = 1 } }\n\
         gfd b { pattern { node y: u } then { y.w = 2 } }\n\
         gfd phi { pattern { node x: t } then { x.q = 9 } }\n\
         ggd has_team { pattern { node x: t } \
         create { node m: team edge x -memberOf-> m } }\n\
         ged lo { pattern { node x: _ } then { x.a < 5 } }\n\
         ged hi { pattern { node x: _ } then { x.a > 7 } }\n",
        &mut vocab,
    )
    .unwrap();
    let (graph, geds) = (&doc.graphs[0].1, &doc.geds);
    let phi = doc.deps.as_slice()[2].clone();
    let sigma = DepSet::from_vec(doc.deps.as_slice()[..2].to_vec());

    type Degraded = (Option<Interrupt>, gfd::runtime::RunMetrics);
    type Driver<'a> = (&'a str, Box<dyn Fn(usize, Budget) -> Degraded + 'a>);
    let drivers: Vec<Driver<'_>> = vec![
        (
            "sat",
            Box::new(|p, b| {
                let r = sat_with_config(&sigma, &ReasonConfig::with_workers(p).with_budget(b));
                (r.interrupt().cloned(), r.stats)
            }),
        ),
        (
            "imp",
            Box::new(|p, b| {
                let cfg = ReasonConfig::with_workers(p).with_budget(b);
                let r = imp_with_config(&sigma, &phi, &cfg);
                (r.interrupt().cloned(), r.stats)
            }),
        ),
        (
            "detect",
            Box::new(|p, b| {
                let r = detect(graph, &sigma, &DetectConfig::with_workers(p).with_budget(b));
                (r.interrupted, r.metrics)
            }),
        ),
        (
            "ged-sat",
            Box::new(|p, b| {
                let r = ged_sat_with_config(geds, &GedReasonConfig::with_workers(p).with_budget(b));
                let interrupt = match r.outcome {
                    GedSatOutcome::Unknown(i) => Some(i),
                    _ => None,
                };
                (interrupt, r.metrics)
            }),
        ),
        (
            "dep chase",
            Box::new(|p, b| {
                let r =
                    dep_sat_with_config(&doc.deps, &ChaseConfig::with_workers(p).with_budget(b));
                let interrupt = match r.outcome {
                    SatOutcome::Unknown(i) => Some(i),
                    _ => None,
                };
                (interrupt, r.metrics)
            }),
        ),
    ];

    for (name, run) in &drivers {
        for p in worker_counts() {
            failpoint::arm("sched/unit=1").unwrap();
            let (interrupt, metrics) = run(p, Budget::unlimited());
            failpoint::disarm_all();
            match interrupt {
                Some(Interrupt::Aborted(msg)) => {
                    assert!(msg.contains("sched/unit"), "{name} p={p}: {msg}")
                }
                other => panic!("{name} p={p}: expected an abort, got {other:?}"),
            }
            assert!(metrics.units_panicked >= 1, "{name} p={p}");
            assert_eq!(metrics.workers, p, "{name}");

            let expired = Instant::now() - Duration::from_millis(5);
            let (interrupt, metrics) = run(p, Budget::unlimited().with_deadline(expired));
            assert_eq!(interrupt, Some(Interrupt::Deadline), "{name} p={p}");
            let slack = metrics.deadline_slack_ms.expect("a deadline was set");
            assert!(slack < 0, "{name} p={p}: slack {slack}ms");

            // Disarmed and unbudgeted, the same input gets a verdict.
            let (interrupt, metrics) = run(p, Budget::unlimited());
            assert_eq!(interrupt, None, "{name} p={p}: sticky state");
            assert_eq!(metrics.units_panicked, 0, "{name} p={p}");
            assert_eq!(metrics.deadline_slack_ms, None, "{name} p={p}");
        }
    }
}

#[test]
fn chase_apply_failpoint_interrupts_the_chase() {
    let _g = serial();
    let mut vocab = Vocab::new();
    let sigma = gfd::dsl::parse_document(
        "ggd has_team { pattern { node x: person } \
         create { node m: team edge x -memberOf-> m } }\n",
        &mut vocab,
    )
    .unwrap()
    .deps;
    failpoint::arm("chase/apply=1").unwrap();
    let r = dep_sat_with_config(&sigma, &ChaseConfig::default());
    failpoint::disarm_all();
    match &r.outcome {
        SatOutcome::Unknown(Interrupt::Aborted(msg)) => {
            assert!(msg.contains("chase/apply"), "{msg}")
        }
        other => panic!("expected an interrupted chase, got {other:?}"),
    }
    assert!(r.is_unknown(), "an interrupted chase has no verdict");

    // Disarmed, the chase terminates with a model.
    let r = dep_sat_with_config(&sigma, &ChaseConfig::default());
    assert!(r.is_satisfiable());
}

#[test]
fn deltalog_failpoint_is_a_structured_error() {
    let _g = serial();
    failpoint::arm("io/deltalog=1").unwrap();
    let mut vocab = Vocab::new();
    let e = gfd::io::parse_delta_log("batch\nnode t\n", &mut vocab).unwrap_err();
    assert!(e.to_string().contains("failpoint io/deltalog"), "{e}");
    failpoint::disarm_all();
    assert!(gfd::io::parse_delta_log("batch\nnode t\n", &mut vocab).is_ok());
}

#[test]
fn cli_surfaces_a_deltalog_fault_as_exit_2() {
    let _g = serial();
    let dir = std::env::temp_dir().join("gfd-fault-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let rules = dir.join("rules.gfd");
    std::fs::write(
        &rules,
        "graph g { node a: t { v = 1 } }\n\
         gfd r { pattern { node x: t } then { x.v = 1 } }\n",
    )
    .unwrap();
    let log = dir.join("log.delta");
    std::fs::write(&log, "batch\nattr 0 v=2\n").unwrap();
    let argv: Vec<String> = [
        "detect",
        rules.to_str().unwrap(),
        "--stream",
        log.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    failpoint::arm("io/deltalog=1").unwrap();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = gfd_cli::run_with_err(&argv, &mut out, &mut err);
    failpoint::disarm_all();
    assert_eq!(code, 2);
    let err = String::from_utf8(err).unwrap();
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("failpoint io/deltalog"), "{err}");

    // Disarmed, the same invocation replays the log and finds the
    // injected violation (exit 1 = violations, not an error).
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = gfd_cli::run_with_err(&argv, &mut out, &mut err);
    assert_eq!(code, 1, "{}", String::from_utf8_lossy(&out));
}

/// Shared streaming fixture: a two-node graph, one cross-edge equality
/// rule, and a three-batch delta log that breaks it, extends it with a
/// new node, then partially heals it.
fn stream_fixture(vocab: &mut Vocab) -> (gfd::dsl::Document, Vec<gfd::graph::DeltaBatch>) {
    let doc = gfd::dsl::parse_document(
        "graph g {\n\
           node a: t { v = 1 }\n\
           node b: t { v = 1 }\n\
           edge a -e-> b\n\
         }\n\
         gfd same {\n\
           pattern { node x: t node y: t edge x -e-> y }\n\
           then { x.v = y.v }\n\
         }\n",
        vocab,
    )
    .unwrap();
    let log = "batch\nattr 1 v=2\nbatch\nnode t\nattr 2 v=1\nedge 1 e 2\nbatch\ndel 0 e 1\n";
    let n = doc.graphs[0].1.node_count();
    let batches = gfd::io::parse_delta_log_for(log, vocab, n).unwrap();
    (doc, batches)
}

#[test]
fn compact_failpoint_defers_compaction_without_changing_answers() {
    let _g = serial();
    let mut vocab = Vocab::new();
    let (doc, batches) = stream_fixture(&mut vocab);
    let graph = doc.graphs[0].1.clone();
    let config = IncrConfig {
        compact_fraction: 0.0, // compact after every batch with an overlay
        ..IncrConfig::default()
    };
    let mut faulted = IncrementalDetector::new(graph.clone(), doc.deps.clone(), config.clone());
    let mut clean = IncrementalDetector::new(graph, doc.deps.clone(), config);

    // Batch 1 is attribute-only: no overlay, nothing to compact.
    faulted.apply(&batches[0]);
    clean.apply(&batches[0]);

    // Batch 2 adds topology; the fired failpoint defers the re-freeze on
    // the faulted detector while the clean twin compacts on schedule —
    // and both report the same violations (the fault degrades locality,
    // never answers).
    failpoint::arm("incr/compact=1").unwrap();
    let rep = faulted.apply(&batches[1]);
    failpoint::disarm_all();
    assert!(!rep.compacted, "the fired failpoint defers the re-freeze");
    let rep = clean.apply(&batches[1]);
    assert!(rep.compacted, "the clean twin compacts on schedule");
    assert_eq!(faulted.violations(), clean.violations());

    // The deferred fold happens on the next batch with overlay work.
    let rep = faulted.apply(&batches[2]);
    assert!(rep.compacted, "deferred work runs one batch later");
    clean.apply(&batches[2]);
    assert_eq!(faulted.violations(), clean.violations());
}

/// String-attribute streaming fixture for the interning change: the
/// delta stream carries unicode strings, an empty string, and an
/// attr-overwrite, so a resumed process must re-intern checkpointed
/// values (the GFDCKPT `value` section) before replaying the tail.
fn string_stream_fixture(vocab: &mut Vocab) -> (gfd::dsl::Document, Vec<gfd::graph::DeltaBatch>) {
    let doc = gfd::dsl::parse_document(
        "graph g {\n\
           node a: t { city = \"León\" }\n\
           node b: t { city = \"León\" }\n\
           edge a -e-> b\n\
         }\n\
         gfd same_city {\n\
           pattern { node x: t node y: t edge x -e-> y }\n\
           then { x.city = y.city }\n\
         }\n",
        vocab,
    )
    .unwrap();
    let log = "batch\nattr 1 city=\"Zürich\"\nbatch\nnode t\nattr 2 city=\"\"\nedge 1 e 2\n\
               batch\nattr 1 city=\"León\"\n";
    let n = doc.graphs[0].1.node_count();
    let batches = gfd::io::parse_delta_log_for(log, vocab, n).unwrap();
    (doc, batches)
}

/// The interning variant of the crash-recovery test: kill between
/// batches of a string-heavy delta stream, resume from the checkpoint in
/// a fresh process (fresh `Vocab`, global `ValueTable` already warm with
/// unrelated ids), and require the final checkpoint bytes to match the
/// uninterrupted run exactly.
#[test]
fn crash_recovery_with_string_attrs_stays_byte_identical() {
    let _g = serial();

    let mut vocab = Vocab::new();
    let (doc, batches) = string_stream_fixture(&mut vocab);
    let mut full = IncrementalDetector::new(
        doc.graphs[0].1.clone(),
        doc.deps.clone(),
        IncrConfig::default(),
    );
    for b in &batches {
        full.apply(b);
    }
    let reference = checkpoint_to_string(
        &Checkpoint {
            batches_applied: batches.len(),
            graph: full.graph().clone(),
            violations: full.violations().to_vec(),
        },
        &vocab,
    );
    assert!(
        reference.contains("value \"León\"") && reference.contains("value \"\""),
        "checkpoint must persist the interned strings (unicode and empty):\n{reference}"
    );

    // Crashed process: killed between batch 2 and batch 3.
    let saved = {
        let mut vocab = Vocab::new();
        let (doc, batches) = string_stream_fixture(&mut vocab);
        let mut incr = IncrementalDetector::new(
            doc.graphs[0].1.clone(),
            doc.deps.clone(),
            IncrConfig::default(),
        );
        failpoint::arm("test/kill=3").unwrap();
        let mut persisted = None;
        for (i, b) in batches.iter().enumerate() {
            if failpoint::triggered("test/kill") {
                break;
            }
            incr.apply(b);
            persisted = Some(checkpoint_to_string(
                &Checkpoint {
                    batches_applied: i + 1,
                    graph: incr.graph().clone(),
                    violations: incr.violations().to_vec(),
                },
                &vocab,
            ));
        }
        failpoint::disarm_all();
        persisted.expect("two batches applied before the kill")
    };

    // Recovery process: the checkpoint's `value` section re-interns the
    // strings before the attrs bind them, then the tail replays.
    let mut vocab = Vocab::new();
    let (doc, batches) = string_stream_fixture(&mut vocab);
    let ckpt = parse_checkpoint(&saved, &mut vocab).unwrap();
    assert_eq!(ckpt.batches_applied, 2, "killed before batch 3");
    let applied = ckpt.batches_applied;
    let mut resumed = IncrementalDetector::from_parts(
        ckpt.graph,
        doc.deps.clone(),
        ckpt.violations,
        IncrConfig::default(),
    );
    for b in batches.iter().skip(applied) {
        resumed.apply(b);
    }
    let recovered = checkpoint_to_string(
        &Checkpoint {
            batches_applied: batches.len(),
            graph: resumed.graph().clone(),
            violations: resumed.violations().to_vec(),
        },
        &vocab,
    );
    assert_eq!(recovered, reference, "resume must be byte-identical");
}

#[test]
fn crash_between_batches_resumes_byte_identical_from_checkpoint() {
    let _g = serial();

    // Reference: the uninterrupted replay, rendered as checkpoint bytes.
    let mut vocab = Vocab::new();
    let (doc, batches) = stream_fixture(&mut vocab);
    let mut full = IncrementalDetector::new(
        doc.graphs[0].1.clone(),
        doc.deps.clone(),
        IncrConfig::default(),
    );
    for b in &batches {
        full.apply(b);
    }
    let reference = checkpoint_to_string(
        &Checkpoint {
            batches_applied: batches.len(),
            graph: full.graph().clone(),
            violations: full.violations().to_vec(),
        },
        &vocab,
    );

    // Crashed process: the `test/kill` failpoint models a kill between
    // batch 2 and batch 3; only the persisted checkpoint survives.
    let saved = {
        let mut vocab = Vocab::new();
        let (doc, batches) = stream_fixture(&mut vocab);
        let mut incr = IncrementalDetector::new(
            doc.graphs[0].1.clone(),
            doc.deps.clone(),
            IncrConfig::default(),
        );
        failpoint::arm("test/kill=3").unwrap();
        let mut persisted = None;
        for (i, b) in batches.iter().enumerate() {
            if failpoint::triggered("test/kill") {
                break;
            }
            incr.apply(b);
            persisted = Some(checkpoint_to_string(
                &Checkpoint {
                    batches_applied: i + 1,
                    graph: incr.graph().clone(),
                    violations: incr.violations().to_vec(),
                },
                &vocab,
            ));
        }
        failpoint::disarm_all();
        persisted.expect("two batches applied before the kill")
    };

    // Recovery process: fresh vocabulary, re-parsed rules and log, state
    // rebuilt from the checkpoint, remaining batches replayed.
    let mut vocab = Vocab::new();
    let (doc, batches) = stream_fixture(&mut vocab);
    let ckpt = parse_checkpoint(&saved, &mut vocab).unwrap();
    assert_eq!(ckpt.batches_applied, 2, "killed before batch 3");
    let applied = ckpt.batches_applied;
    let mut resumed = IncrementalDetector::from_parts(
        ckpt.graph,
        doc.deps.clone(),
        ckpt.violations,
        IncrConfig::default(),
    );
    for b in batches.iter().skip(applied) {
        resumed.apply(b);
    }
    let recovered = checkpoint_to_string(
        &Checkpoint {
            batches_applied: batches.len(),
            graph: resumed.graph().clone(),
            violations: resumed.violations().to_vec(),
        },
        &vocab,
    );
    assert_eq!(recovered, reference, "resume must be byte-identical");
}
