//! The checked-in counterexample corpus (DESIGN.md §14.4): schedules
//! captured from bounded-exhaustive runs against deliberately weakened
//! orderings, replayed deterministically. Each entry pins the failing
//! interleaving itself — if the quiescence protocol, the shim, or the
//! detector drifts so that the schedule diverges or the
//! verdict changes, these fail long before a fresh exploration would.
//!
//! To regenerate after an intentional protocol change: run the
//! corresponding `explore(Config::exhaustive(2).weaken(..), ..)` and
//! paste `failure.schedule` / `failure.kind` from its report.

use gfd_model::{explore, scenarios, Config, Failure, FailureKind, Schedule};
use gfd_runtime::atomics::Weaken;

fn replay(
    schedule: &str,
    weaken: Option<Weaken>,
    scenario: fn(&gfd_model::Env),
) -> Option<Failure> {
    let schedule: Schedule = schedule.parse().expect("corpus schedule must parse");
    let mut config = Config::replay(schedule);
    if let Some(site) = weaken {
        config = config.weaken(site);
    }
    explore(config, scenario).failure
}

/// Publish-before-count split order: a sibling drains the child unit
/// and sees the counter hit zero while the seed is still in flight,
/// taking the quiescent exit with work outstanding. Captured from
/// `Config::exhaustive(2)`.
#[test]
fn corpus_split_order_early_exit() {
    let failure = replay(
        "1.1.1.1.1.1.1.2.2.2.2.2.2.2.2.2.2.2",
        Some(Weaken::QuiesceSplitPublish),
        scenarios::quiesce_split_protocol,
    )
    .expect("corpus schedule must still fail");
    assert_eq!(failure.kind, FailureKind::Assertion, "{failure}");
    assert!(failure.message.contains("early exit"), "{failure}");
}

/// Verdict read gated only by a relaxed stop-flag poll: no acquire
/// edge orders it after the canceller's write. This one needs no
/// weaken knob — the scenario itself is the bug. Captured from
/// `Config::exhaustive(2)`.
#[test]
fn corpus_relaxed_poll_verdict_race() {
    let failure = replay("1.1.1.1.2.2.1", None, scenarios::stop_flag_poll_read)
        .expect("corpus schedule must still fail");
    assert_eq!(failure.kind, FailureKind::DataRace, "{failure}");
}

/// Passing entries: the default deterministic schedule (empty replay
/// prefix, run-to-completion) must stay clean on the correct
/// orderings. Guards against detector false positives creeping into
/// the common path.
#[test]
fn corpus_default_schedules_stay_clean() {
    for scenario in [
        scenarios::quiesce_split_protocol,
        scenarios::late_helper_quiescence,
        scenarios::stop_flag_handshake,
    ] {
        if let Some(failure) = replay("", None, scenario) {
            panic!("default schedule must be clean: {failure}");
        }
    }
}
