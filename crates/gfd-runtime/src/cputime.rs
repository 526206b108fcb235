//! Per-thread CPU time, used for worker busy accounting.
//!
//! A worker's *busy* time is its thread's CPU time over its non-idle
//! stretches: from the first unit popped after start (or after an idle
//! wait) to the next wait or the end of the run. Running units, the
//! dispatch between them (pop / steal) and `on_idle` work are inside a
//! stretch; the yield/sleep waits between stretches are not (those are
//! booked, in wall time, as idle). CPU rather than wall time because the
//! workers are threads, possibly on fewer cores than workers (CI
//! containers often expose a single core): wall-clock busy time would be
//! inflated by time-sharing. The clock is read once per stretch end, not
//! per unit — each read is a system call.

use std::time::Duration;

/// Cumulative on-CPU time of the calling thread.
///
/// Unix: `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` — precise and updated
/// continuously (unlike `/proc/.../schedstat`, which only refreshes on
/// scheduler ticks). Returns `None` where unavailable; callers then use
/// wall time.
#[cfg(unix)]
pub fn thread_cpu_time() -> Option<Duration> {
    #[cfg(test)]
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; the clock id is a constant.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return None;
    }
    Some(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// Non-Unix fallback: unavailable.
#[cfg(not(unix))]
pub fn thread_cpu_time() -> Option<Duration> {
    None
}

#[cfg(test)]
thread_local! {
    /// Clock reads made by this thread: lets the scheduler's tests count
    /// stretches instead of timing them.
    pub(crate) static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A stopwatch measuring thread CPU time, falling back to wall time.
pub struct BusyTimer {
    cpu_start: Option<Duration>,
    wall_start: std::time::Instant,
}

impl BusyTimer {
    /// Start timing on the current thread.
    pub fn start() -> Self {
        BusyTimer {
            cpu_start: thread_cpu_time(),
            wall_start: std::time::Instant::now(),
        }
    }

    /// Elapsed busy time: CPU time when measurable, else wall time.
    pub fn elapsed(&self) -> Duration {
        match (self.cpu_start, thread_cpu_time()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => self.wall_start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_monotone_under_work() {
        let timer = BusyTimer::start();
        // Spin a little to accrue CPU time.
        let mut acc = 0u64;
        for i in 0..3_000_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let busy = timer.elapsed();
        assert!(busy > Duration::ZERO);
    }

    #[test]
    fn sleeping_accrues_little_cpu_time() {
        // Only meaningful when schedstat is available.
        if thread_cpu_time().is_none() {
            return;
        }
        let timer = BusyTimer::start();
        std::thread::sleep(Duration::from_millis(50));
        let busy = timer.elapsed();
        assert!(
            busy < Duration::from_millis(40),
            "sleep counted as busy: {busy:?}"
        );
    }
}
