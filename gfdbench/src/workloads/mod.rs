//! The five workloads, and the layer probes they share.

use crate::harness::{ms_since, Recorder};
use gfd_graph::{Graph, MatchIndex, NodeId, Pattern};
use gfd_match::{HomSearch, IntersectStrategy, MatchPlan, SearchLimits};
use gfd_runtime::RunMetrics;
use std::ops::ControlFlow;
use std::time::Instant;

pub mod chase;
pub mod detect;
pub mod reason;
pub mod stream;

/// Book the `gfd-runtime` rows from one operation's [`RunMetrics`]: the
/// `workers = 1` side contributes the busy-time base, the `workers = n`
/// side everything else. `busy_p1` carries the latest base across calls
/// so `runtime.cpu_inflation` (busy at n ÷ busy at 1) pairs neighbours.
pub fn record_runtime(rec: &mut Recorder, workers: usize, m: &RunMetrics, busy_p1: &mut f64) {
    let busy = m.total_busy().as_secs_f64() * 1e3;
    if workers == 1 {
        *busy_p1 = busy;
        rec.sample("runtime.busy_ms_p1", busy);
        return;
    }
    rec.sample("runtime.busy_ms", busy);
    rec.sample("runtime.idle_ms", m.total_idle().as_secs_f64() * 1e3);
    rec.sample(
        "runtime.makespan_ms",
        m.makespan().unwrap_or_default().as_secs_f64() * 1e3,
    );
    rec.sample("runtime.units_dispatched", m.units_dispatched as f64);
    rec.sample("runtime.units_stolen", m.units_stolen as f64);
    rec.sample("runtime.units_split", m.units_split as f64);
    if m.units_dispatched > 0 {
        rec.sample(
            "runtime.steal_share",
            m.units_stolen as f64 / m.units_dispatched as f64,
        );
    }
    if *busy_p1 > 0.0 {
        rec.sample("runtime.cpu_inflation", busy / *busy_p1);
    }
}

/// The `gfd-match` rows: plan every pattern against `index`, then
/// enumerate all its matches on one thread with no literals evaluated —
/// the matcher alone, over whichever view (`LabelIndex` or the
/// `DeltaIndex` overlay) the workload's operations search. Times are
/// booked as samples; the counts are returned, exact for a fixed graph.
pub fn match_probe<'p, I: MatchIndex>(
    rec: &mut Recorder,
    graph: &Graph,
    index: &I,
    patterns: impl IntoIterator<Item = &'p Pattern>,
) -> MatchCounts {
    let patterns: Vec<&Pattern> = patterns.into_iter().collect();
    let t = Instant::now();
    let plans: Vec<MatchPlan> = patterns
        .iter()
        .map(|p| MatchPlan::build(p, None, Some(index)))
        .collect();
    rec.sample("match.plan_ms", ms_since(t));
    let bitset_steps = plans
        .iter()
        .flat_map(|p| p.steps())
        .filter(|s| s.strategy == IntersectStrategy::Bitset)
        .count();

    let t = Instant::now();
    let mut matches = 0u64;
    for (pattern, plan) in patterns.iter().zip(&plans) {
        HomSearch::new(graph, index, pattern, plan).run(
            |m| {
                std::hint::black_box(&m);
                matches += 1;
                ControlFlow::Continue(())
            },
            SearchLimits::none(),
        );
    }
    let enum_ms = ms_since(t);
    rec.sample("match.enum_ms", enum_ms);
    rec.sample("match.matches_per_s", matches as f64 / (enum_ms / 1e3));
    MatchCounts {
        matches,
        bitset_steps,
    }
}

/// What [`match_probe`] counted.
pub struct MatchCounts {
    matches: u64,
    bitset_steps: usize,
}

impl MatchCounts {
    /// Book the counts as exact rows (the probed graph does not change
    /// between probes, or this is the one probe that counts).
    pub fn book(&self, rec: &mut Recorder) {
        rec.exact("match.matches", self.matches as f64);
        rec.exact("match.bitset_steps", self.bitset_steps as f64);
    }
}

/// An order-insensitive FNV-1a digest of a violation set given as
/// `(rule, match)` pairs: keys are sorted first, so neither worker
/// scheduling nor the detector's report order can move it.
pub fn fingerprint<'a>(violations: impl Iterator<Item = (usize, &'a [NodeId])>) -> u64 {
    let mut keys: Vec<Vec<u64>> = violations
        .map(|(rule, m)| {
            let mut k = vec![rule as u64];
            k.extend(m.iter().map(|n| n.index() as u64));
            k
        })
        .collect();
    keys.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in keys.iter().flatten() {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
