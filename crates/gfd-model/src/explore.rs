//! Schedule exploration (DESIGN.md §14.4): bounded-exhaustive DFS with
//! a preemption bound, seeded PCT-style randomized scheduling, and
//! deterministic replay of recorded schedules.

use crate::vm::{run_one, Controller, Env, Failure, Schedule};
use crate::Tid;
use gfd_runtime::atomics::Weaken;
use rand::{Rng, SeedableRng, StdRng};
use std::sync::{Arc, Mutex};

/// How to drive the schedule space.
#[derive(Clone, Debug)]
pub enum Mode {
    /// Depth-first enumeration of every schedule within the preemption
    /// bound. Complete (up to the bound) for bounded scenarios.
    Exhaustive,
    /// PCT-style randomized priority scheduling: each iteration assigns
    /// random thread priorities and lowers the running thread's
    /// priority at a few random change points. Cheap probabilistic
    /// coverage for state spaces too large to enumerate.
    Pct {
        /// Base seed; iteration `i` runs with `seed + i`.
        seed: u64,
        /// Number of randomized executions.
        iters: usize,
        /// Priority change points per execution.
        change_points: usize,
    },
    /// Replay one recorded schedule exactly, then (if the schedule is a
    /// prefix) continue with the deterministic default policy.
    Replay(Schedule),
}

/// An exploration configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum preemptions (involuntary context switches) per schedule
    /// in exhaustive mode. Most concurrency bugs need very few; 2–3
    /// keeps bounded scenarios enumerable.
    pub preemption_bound: usize,
    /// Per-execution step budget (schedule points); exceeding it is a
    /// [`crate::FailureKind::StepBudget`] failure.
    pub max_steps: usize,
    /// Cap on explored schedules; hitting it ends exploration with
    /// `complete = false`.
    pub max_schedules: usize,
    /// Deliberately weaken one named ordering site
    /// ([`gfd_runtime::atomics::Weaken`]) — used to prove the checker
    /// catches the bug the site prevents.
    pub weaken: Option<Weaken>,
    /// The exploration strategy.
    pub mode: Mode,
}

impl Config {
    /// Bounded-exhaustive exploration with the given preemption bound.
    pub fn exhaustive(preemption_bound: usize) -> Config {
        Config {
            preemption_bound,
            max_steps: 20_000,
            max_schedules: 500_000,
            weaken: None,
            mode: Mode::Exhaustive,
        }
    }

    /// Seeded randomized (PCT-style) exploration.
    pub fn pct(seed: u64, iters: usize) -> Config {
        Config {
            preemption_bound: usize::MAX,
            max_steps: 20_000,
            max_schedules: iters,
            weaken: None,
            mode: Mode::Pct {
                seed,
                iters,
                change_points: 3,
            },
        }
    }

    /// Deterministic replay of a recorded schedule.
    pub fn replay(schedule: Schedule) -> Config {
        Config {
            preemption_bound: usize::MAX,
            max_steps: 20_000,
            max_schedules: 1,
            weaken: None,
            mode: Mode::Replay(schedule),
        }
    }

    /// Weaken one ordering site for this exploration.
    pub fn weaken(mut self, site: Weaken) -> Config {
        self.weaken = Some(site);
        self
    }

    /// Override the per-execution step budget.
    pub fn max_steps(mut self, steps: usize) -> Config {
        self.max_steps = steps;
        self
    }

    /// Override the explored-schedule cap.
    pub fn max_schedules(mut self, n: usize) -> Config {
        self.max_schedules = n;
        self
    }
}

/// The outcome of an exploration.
#[derive(Debug)]
pub struct Report {
    /// Number of schedules executed.
    pub explored: usize,
    /// Did the strategy finish (exhaustive space drained / all PCT
    /// iterations run) without hitting `max_schedules`?
    pub complete: bool,
    /// The first counterexample found, if any. Exploration stops at the
    /// first failure.
    pub failure: Option<Failure>,
}

impl Report {
    /// Assert the exploration found nothing, with the full
    /// counterexample (replay schedule + trace) as the panic message.
    pub fn assert_clean(&self) {
        if let Some(f) = &self.failure {
            panic!("model exploration found a counterexample:\n{f}");
        }
    }
}

/// Explore `scenario` under `config`. Each execution runs the scenario
/// from scratch on fresh virtual threads; exploration stops at the
/// first failure (whose [`Failure::schedule`] replays it
/// deterministically) or when the strategy completes.
pub fn explore<F>(config: Config, scenario: F) -> Report
where
    F: Fn(&Env) + Send + Sync + 'static,
{
    let scenario: Arc<dyn Fn(&Env) + Send + Sync> = Arc::new(scenario);
    match &config.mode {
        Mode::Exhaustive => {
            let dfs = Arc::new(Mutex::new(DfsState::new(config.preemption_bound)));
            let mut explored = 0usize;
            loop {
                dfs.lock().unwrap().depth = 0;
                let ctrl = Box::new(DfsController {
                    state: Arc::clone(&dfs),
                });
                let failure = run_one(config.weaken, config.max_steps, ctrl, Arc::clone(&scenario));
                explored += 1;
                if failure.is_some() {
                    return Report {
                        explored,
                        complete: false,
                        failure,
                    };
                }
                if !dfs.lock().unwrap().advance() {
                    return Report {
                        explored,
                        complete: true,
                        failure: None,
                    };
                }
                if explored >= config.max_schedules {
                    return Report {
                        explored,
                        complete: false,
                        failure: None,
                    };
                }
            }
        }
        Mode::Pct {
            seed,
            iters,
            change_points,
        } => {
            for i in 0..*iters {
                let ctrl = Box::new(PctController::new(
                    seed.wrapping_add(i as u64),
                    *change_points,
                ));
                let failure = run_one(config.weaken, config.max_steps, ctrl, Arc::clone(&scenario));
                if failure.is_some() {
                    return Report {
                        explored: i + 1,
                        complete: false,
                        failure,
                    };
                }
            }
            Report {
                explored: *iters,
                complete: true,
                failure: None,
            }
        }
        Mode::Replay(schedule) => {
            let ctrl = Box::new(ReplayController {
                sched: schedule.0.clone(),
                next: 0,
            });
            let failure = run_one(config.weaken, config.max_steps, ctrl, scenario);
            Report {
                explored: 1,
                complete: true,
                failure,
            }
        }
    }
}

// ---- DFS ------------------------------------------------------------------

struct Frame {
    /// The choices allowed at this decision, in exploration order
    /// (current thread first — run-to-completion is the base schedule).
    choices: Vec<Tid>,
    /// Which choice the current execution takes.
    next: usize,
}

pub(crate) struct DfsState {
    frames: Vec<Frame>,
    /// Decision depth within the current execution.
    pub(crate) depth: usize,
    bound: usize,
}

impl DfsState {
    pub(crate) fn new(bound: usize) -> DfsState {
        DfsState {
            frames: Vec::new(),
            depth: 0,
            bound,
        }
    }

    pub(crate) fn choose(&mut self, current: Tid, enabled: &[Tid], preemptions: usize) -> Tid {
        let d = self.depth;
        self.depth += 1;
        if d < self.frames.len() {
            // Replaying the committed prefix of this branch.
            let f = &self.frames[d];
            return f.choices[f.next];
        }
        let cur_enabled = enabled.contains(&current);
        let choices = if cur_enabled && preemptions >= self.bound {
            // Out of preemption budget: the running thread must keep
            // the baton (a switch away from a blocked/finished thread
            // is not a preemption and stays allowed below).
            vec![current]
        } else {
            let mut v = Vec::with_capacity(enabled.len());
            if cur_enabled {
                v.push(current);
            }
            v.extend(enabled.iter().copied().filter(|&t| t != current));
            v
        };
        self.frames.push(Frame { choices, next: 0 });
        self.frames[d].choices[0]
    }

    /// Move to the next unexplored branch: advance the deepest frame
    /// with remaining choices, dropping exhausted deeper frames.
    /// Returns false when the space is drained.
    pub(crate) fn advance(&mut self) -> bool {
        self.depth = 0;
        while let Some(f) = self.frames.last_mut() {
            if f.next + 1 < f.choices.len() {
                f.next += 1;
                return true;
            }
            self.frames.pop();
        }
        false
    }
}

struct DfsController {
    state: Arc<Mutex<DfsState>>,
}

impl Controller for DfsController {
    fn choose(&mut self, current: Tid, enabled: &[Tid], preemptions: usize) -> Tid {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .choose(current, enabled, preemptions)
    }
}

// ---- PCT ------------------------------------------------------------------

struct PctController {
    rng: StdRng,
    prio: Vec<i64>,
    change: Vec<usize>,
    decision: usize,
    low: i64,
}

impl PctController {
    fn new(seed: u64, change_points: usize) -> PctController {
        let mut rng = StdRng::seed_from_u64(seed);
        let change = (0..change_points)
            .map(|_| rng.random_range(1usize..128))
            .collect();
        PctController {
            rng,
            prio: Vec::new(),
            change,
            decision: 0,
            low: 0,
        }
    }
}

impl Controller for PctController {
    fn choose(&mut self, current: Tid, enabled: &[Tid], _preemptions: usize) -> Tid {
        self.decision += 1;
        let max_tid = enabled.iter().copied().max().unwrap_or(0);
        while self.prio.len() <= max_tid {
            // High random band; change points move threads into the
            // (strictly lower) `low` band.
            self.prio.push((self.rng.next_u64() >> 33) as i64 + 1_000);
        }
        if self.change.contains(&self.decision) && current < self.prio.len() {
            self.low -= 1;
            self.prio[current] = self.low;
        }
        *enabled
            .iter()
            .max_by_key(|&&t| self.prio[t])
            .expect("enabled set is never empty here")
    }
}

// ---- Replay ---------------------------------------------------------------

struct ReplayController {
    sched: Vec<Tid>,
    next: usize,
}

impl Controller for ReplayController {
    fn choose(&mut self, current: Tid, enabled: &[Tid], _preemptions: usize) -> Tid {
        if self.next < self.sched.len() {
            let t = self.sched[self.next];
            self.next += 1;
            return t;
        }
        // Past the recorded prefix: deterministic default policy.
        if enabled.contains(&current) {
            current
        } else {
            enabled[0]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_enumerates_a_two_choice_tree() {
        // Depth-2 tree with 2 choices each => 4 paths.
        let mut dfs = DfsState::new(usize::MAX);
        let mut paths = Vec::new();
        loop {
            dfs.depth = 0;
            let a = dfs.choose(0, &[0, 1], 0);
            let b = dfs.choose(a, &[0, 1], 0);
            paths.push((a, b));
            if !dfs.advance() {
                break;
            }
        }
        // Exploration order is current-first: once branch (1, _) is
        // taken, thread 1 is `current` at the second decision, so its
        // run-to-completion child (1, 1) comes before the switch (1, 0).
        assert_eq!(paths, vec![(0, 0), (0, 1), (1, 1), (1, 0)]);
    }

    #[test]
    fn dfs_preemption_bound_pins_the_running_thread() {
        let mut dfs = DfsState::new(0);
        // With zero budget and the current thread enabled, the only
        // choice is to keep running it.
        assert_eq!(dfs.choose(1, &[0, 1], 0), 1);
        // A necessary switch (current not enabled) is not a preemption.
        let mut dfs = DfsState::new(0);
        assert_eq!(dfs.choose(2, &[0, 1], 0), 0);
    }

    #[test]
    fn replay_follows_then_defaults() {
        let mut r = ReplayController {
            sched: vec![1, 0],
            next: 0,
        };
        assert_eq!(r.choose(0, &[0, 1], 0), 1);
        assert_eq!(r.choose(1, &[0, 1], 0), 0);
        // Prefix exhausted: run-to-completion default.
        assert_eq!(r.choose(0, &[0, 1], 0), 0);
        assert_eq!(r.choose(9, &[0, 1], 0), 0);
    }

    #[test]
    fn pct_is_deterministic_per_seed() {
        let run = || {
            let mut p = PctController::new(42, 3);
            (0..10)
                .map(|_| p.choose(0, &[0, 1, 2], 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
