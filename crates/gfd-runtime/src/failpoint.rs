//! Deterministic failpoint injection (DESIGN.md §11.3).
//!
//! A *failpoint* is a named site in the runtime where a fault can be
//! injected on demand: the scheduler's dispatch and steal paths, the
//! chase's serial apply phase, the delta-log parser, the incremental
//! detector's compaction step. Production code calls [`triggered`] (or
//! [`maybe_panic`]) at each site; with no failpoints armed this is a
//! single relaxed atomic load — effectively free — so the sites stay in
//! release builds and the fault-injection suite exercises the exact
//! binary users run.
//!
//! Arming is programmatic only ([`arm`], used by `tests/fault_injection.rs`);
//! no environment variable or flag reaches it, so nothing outside the
//! program can make a release binary fail on purpose:
//!
//! ```text
//! arm("sched/unit=3,io/deltalog=1")   // fire on the Nth hit
//! arm("sched/steal=~8:42")            // seeded: each hit fires with
//!                                     // prob 1/8 (LCG seed 42)
//! ```
//!
//! Each site decides what "firing" means: the scheduler panics (to prove
//! panic isolation), parsers return their structured error type, the
//! compactor defers work to the next batch. A failpoint never changes
//! what a run *computes* — only whether it completes, degrades, or
//! defers — which is exactly the property the fault-injection suite
//! pins.
//!
//! The registry is global, so tests that arm failpoints must serialize
//! (see the `serial` guard in `tests/fault_injection.rs`) and call
//! [`disarm_all`] when done.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// When an armed site fires.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Trigger {
    /// Fire exactly once, on the `n`-th hit (1-based).
    OnHit(u64),
    /// Fire on each hit with probability `1/denom`, driven by a seeded
    /// LCG — deterministic for a given seed, "random" across sites.
    Seeded {
        /// Inverse firing probability.
        denom: u64,
        /// Current LCG state.
        state: u64,
    },
}

struct Site {
    trigger: Trigger,
    hits: u64,
    fired: u64,
}

/// Fast-path gate: false ⇒ no site is armed and [`triggered`] returns
/// immediately.
static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn parse_entry(entry: &str) -> Result<(String, Trigger), String> {
    let (site, spec) = entry
        .split_once('=')
        .ok_or_else(|| format!("`{entry}`: expected SITE=SPEC"))?;
    let site = site.trim();
    let spec = spec.trim();
    if site.is_empty() {
        return Err(format!("`{entry}`: empty site name"));
    }
    let trigger = if let Some(rest) = spec.strip_prefix('~') {
        let (denom, seed) = rest
            .split_once(':')
            .ok_or_else(|| format!("`{entry}`: seeded spec is ~DENOM:SEED"))?;
        let denom: u64 = denom
            .parse()
            .map_err(|_| format!("`{entry}`: bad denominator `{denom}`"))?;
        if denom == 0 {
            return Err(format!("`{entry}`: denominator must be positive"));
        }
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("`{entry}`: bad seed `{seed}`"))?;
        Trigger::Seeded { denom, state: seed }
    } else {
        let n: u64 = spec
            .parse()
            .map_err(|_| format!("`{entry}`: bad hit count `{spec}`"))?;
        if n == 0 {
            return Err(format!("`{entry}`: hit count is 1-based"));
        }
        Trigger::OnHit(n)
    };
    Ok((site.to_string(), trigger))
}

/// Arm failpoints from a spec string: comma-separated `SITE=N` (fire on
/// the `N`-th hit) or `SITE=~DENOM:SEED` (fire with probability
/// `1/DENOM`, seeded). Entries add to — and override — whatever is
/// already armed. A spec with a bad entry arms none of its entries.
pub fn arm(spec: &str) -> Result<(), String> {
    let entries = spec
        .split(',')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
        .map(parse_entry)
        .collect::<Result<Vec<_>, _>>()?;
    let mut guard = registry().lock();
    for (site, trigger) in entries {
        guard.insert(
            site,
            Site {
                trigger,
                hits: 0,
                fired: 0,
            },
        );
    }
    if !guard.is_empty() {
        ARMED.store(true, Ordering::Release);
    }
    Ok(())
}

/// Disarm every failpoint and reset hit counters. Restores the zero-cost
/// fast path.
pub fn disarm_all() {
    let reg = registry();
    let mut guard = reg.lock();
    guard.clear();
    ARMED.store(false, Ordering::Release);
}

/// Number of times the named site has actually fired (for test
/// assertions); 0 when the site is not armed.
pub fn fired(site: &str) -> u64 {
    registry().lock().get(site).map_or(0, |s| s.fired)
}

/// Record a hit on `site` and report whether the armed trigger fires.
///
/// Always false when nothing is armed (one relaxed atomic load). The
/// caller decides the failure semantics: panic, structured error, or
/// deferred work.
#[inline]
pub fn triggered(site: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    triggered_slow(site)
}

#[cold]
fn triggered_slow(site: &str) -> bool {
    let reg = registry();
    let mut guard = reg.lock();
    let Some(s) = guard.get_mut(site) else {
        return false;
    };
    s.hits += 1;
    let fire = match &mut s.trigger {
        Trigger::OnHit(n) => s.hits == *n,
        Trigger::Seeded { denom, state } => {
            // Numerical Recipes LCG: full-period, deterministic per seed.
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) % *denom == 0
        }
    };
    if fire {
        s.fired += 1;
    }
    fire
}

/// Panic with a recognizable payload when the armed trigger for `site`
/// fires. The scheduler sites use this inside their `catch_unwind`
/// envelope, so a firing failpoint surfaces as a structured
/// `RunOutcome::Aborted`, never a process abort.
#[inline]
pub fn maybe_panic(site: &str) {
    if triggered(site) {
        panic!("failpoint {site} fired");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; these tests must not interleave.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disarmed_sites_never_fire() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        for _ in 0..100 {
            assert!(!triggered("nothing/here"));
        }
    }

    #[test]
    fn fires_on_the_nth_hit_exactly_once() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm("t/site=3").unwrap();
        assert!(!triggered("t/site"));
        assert!(!triggered("t/site"));
        assert!(triggered("t/site"));
        assert!(!triggered("t/site"));
        assert_eq!(fired("t/site"), 1);
        // Other sites are unaffected.
        assert!(!triggered("t/other"));
        disarm_all();
    }

    #[test]
    fn seeded_trigger_is_deterministic() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm("t/seeded=~4:99").unwrap();
        let a: Vec<bool> = (0..64).map(|_| triggered("t/seeded")).collect();
        disarm_all();
        arm("t/seeded=~4:99").unwrap();
        let b: Vec<bool> = (0..64).map(|_| triggered("t/seeded")).collect();
        assert_eq!(a, b, "same seed ⇒ same firing sequence");
        assert!(a.iter().any(|&x| x), "1/4 over 64 hits should fire");
        assert!(!a.iter().all(|&x| x));
        disarm_all();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        for bad in ["nosep", "x=0", "x=abc", "=3", "x=~0:1", "x=~2", "x=~a:b"] {
            assert!(arm(bad).is_err(), "{bad}");
        }
        // A rejected spec arms nothing.
        assert!(!triggered("x"));
    }

    #[test]
    fn a_rejected_spec_arms_none_of_its_entries() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm("t/ok=5").unwrap();
        assert!(arm("t/partial=1,bad").is_err());
        let fired = triggered("t/partial");
        disarm_all();
        assert!(!fired, "an entry of a rejected spec fired");
    }

    #[test]
    fn maybe_panic_panics_with_site_name() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm("t/panic=1").unwrap();
        let r = std::panic::catch_unwind(|| maybe_panic("t/panic"));
        disarm_all();
        let payload = r.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("t/panic"), "{msg}");
    }
}
