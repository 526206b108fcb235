//! Model-checking the scheduler's quiescence and cancellation
//! protocols (DESIGN.md §14.5): the count-first split order explores
//! clean, also when worker 0 splits alone before it starts its helper,
//! the flipped order is caught as an early-exit assertion, and
//! the stop-flag handshake demonstrates both the sound (join-edge) and
//! unsound (relaxed-poll read) verdict paths.

use gfd_model::{explore, scenarios, Config, FailureKind, MSlot};
use gfd_runtime::atomics::Weaken;

#[test]
fn quiesce_split_protocol_explores_clean() {
    let report = explore(Config::exhaustive(2), scenarios::quiesce_split_protocol);
    assert!(report.complete, "exploration did not drain the space");
    assert!(
        report.explored > 100,
        "suspiciously small space: {} schedules",
        report.explored
    );
    report.assert_clean();
}

#[test]
fn flipped_split_order_exits_early_and_replays() {
    let report = explore(
        Config::exhaustive(2).weaken(Weaken::QuiesceSplitPublish),
        scenarios::quiesce_split_protocol,
    );
    let failure = report
        .failure
        .expect("publish-before-count split order must be caught");
    assert_eq!(failure.kind, FailureKind::Assertion, "{failure}");
    assert!(failure.message.contains("early exit"), "{failure}");
    let re = explore(
        Config::replay(failure.schedule.clone()).weaken(Weaken::QuiesceSplitPublish),
        scenarios::quiesce_split_protocol,
    );
    let re_failure = re.failure.expect("replay must reproduce the failure");
    assert_eq!(re_failure.kind, FailureKind::Assertion);
    assert_eq!(re_failure.schedule, failure.schedule);
}

#[test]
fn late_helper_quiescence_explores_clean() {
    let report = explore(Config::exhaustive(2), scenarios::late_helper_quiescence);
    assert!(report.complete, "exploration did not drain the space");
    assert!(
        report.explored > 100,
        "suspiciously small space: {} schedules",
        report.explored
    );
    report.assert_clean();
}

#[test]
fn late_helper_with_flipped_split_order_exits_early() {
    let report = explore(
        Config::exhaustive(2).weaken(Weaken::QuiesceSplitPublish),
        scenarios::late_helper_quiescence,
    );
    let failure = report
        .failure
        .expect("a split published before it is counted must be caught after the helper starts");
    assert_eq!(failure.kind, FailureKind::Assertion, "{failure}");
    assert!(failure.message.contains("early exit"), "{failure}");
}

#[test]
fn stop_flag_handshake_explores_clean() {
    let report = explore(Config::exhaustive(2), scenarios::stop_flag_handshake);
    assert!(report.complete);
    report.assert_clean();
}

#[test]
fn verdict_read_through_relaxed_poll_is_a_race() {
    let report = explore(Config::exhaustive(2), scenarios::stop_flag_poll_read);
    let failure = report
        .failure
        .expect("reading the verdict off a relaxed poll must race");
    assert_eq!(failure.kind, FailureKind::DataRace, "{failure}");
}

#[test]
fn read_of_uninitialized_slot_is_flagged() {
    // Drive the detector directly: a read of a vacant slot must be
    // flagged before any bits are read.
    let report = explore(Config::exhaustive(0), |_env| {
        let slot = MSlot::<usize>::vacant();
        // SAFETY: the VM fails the execution before the read happens.
        let _ = unsafe { slot.read() };
    });
    let failure = report.failure.expect("uninit read must be flagged");
    assert_eq!(failure.kind, FailureKind::UninitRead);
}

#[test]
#[ignore = "deep exploration; run via `cargo test -p gfd-model -- --ignored`"]
fn deep_quiesce_split_protocol_explores_clean() {
    let bound = std::env::var("GFD_MODEL_BOUND")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let report = explore(Config::exhaustive(bound), scenarios::quiesce_split_protocol);
    assert!(report.complete);
    report.assert_clean();
}

#[test]
#[ignore = "deep exploration; run via `cargo test -p gfd-model -- --ignored`"]
fn deep_late_helper_quiescence_explores_clean() {
    let bound = std::env::var("GFD_MODEL_BOUND")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let report = explore(Config::exhaustive(bound), scenarios::late_helper_quiescence);
    assert!(report.complete);
    report.assert_clean();
}
