//! Process- and host-level readings taken from outside the program: CPU
//! time, peak resident set, core count, and the reference kernel that
//! says how loaded the host is.

use std::time::Duration;

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of this process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: libc::clockid_t = 2;

/// CPU time this process has consumed so far (all threads, user + sys).
pub fn process_cpu() -> Duration {
    let mut ts = libc::timespec::default();
    // SAFETY: `ts` is a valid, writable `timespec`; the clock id is a
    // constant the kernel either knows or rejects with an error code.
    let rc = unsafe { libc::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The parallel side's worker count `n`: as many workers as cores, at
/// most 4, and at least 2 so the multi-worker path (threads, stealing,
/// ΔEq broadcast) is exercised even on a one-core host.
pub fn parallel_workers() -> usize {
    nproc().clamp(2, 4)
}

/// The reference kernel's two tables, in `u64` words: 8 MB and 16 MB.
/// Both are past L2 and inside a quiet host's last-level cache — the
/// level this program's hash-map-heavy working sets live at, and the one
/// neighbours take away.
const TABLE_WORDS: [usize; 2] = [1 << 20, 1 << 21];
/// Random read-modify-writes per reading and table: about 4.5 ms each on
/// the calibration host when it is quiet.
const TABLE_STEPS: [usize; 2] = [600_000, 500_000];

/// What the reference kernel takes on the calibration host when no
/// neighbour is active, ms. Compensated times are scaled by this over
/// the reading taken beside them, so on a quiet host they read as plain
/// milliseconds.
pub const REFERENCE_NOMINAL_MS: f64 = 9.0;

/// The host-load reference kernel: a fixed piece of work, owned by the
/// benchmark and never touched by the program under test, whose running
/// time says how fast this host is *right now*.
///
/// The calibration host is a 2-core microVM on shared hardware whose
/// neighbours slow it, in episodes lasting seconds to many minutes, by
/// 20–50 %. Several candidate kernels were logged beside the five
/// workloads through such episodes (dependent loads over 32 MB, a
/// streaming copy, register-only arithmetic, a high-IPC loop over L1,
/// random read-modify-writes over tables of 1–64 MB): the workloads'
/// slow-down was tracked best, on every workload, by random
/// read-modify-writes over last-level-cache-sized tables, so that is the
/// kernel — two tables, one reading is the time for a fixed number of
/// updates to each. It allocates nothing after construction, so the
/// program's heap state cannot move it.
pub struct Reference {
    tables: [Vec<u64>; 2],
    rng: u64,
}

impl Reference {
    /// Allocate and touch both tables (they stay resident).
    pub fn new() -> Self {
        Reference {
            tables: TABLE_WORDS.map(|words| vec![1; words]),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Resident size of the kernel's tables, MB: subtracted from the
    /// process's peak RSS, which they would otherwise pad.
    pub fn resident_mb(&self) -> f64 {
        let bytes: usize = self.tables.iter().map(|t| t.len() * 8).sum();
        bytes as f64 / (1 << 20) as f64
    }

    /// Run the kernel once; its wall time in ms.
    pub fn reading_ms(&mut self) -> f64 {
        let t = std::time::Instant::now();
        let mut x = self.rng;
        for (table, steps) in self.tables.iter_mut().zip(TABLE_STEPS) {
            let mask = table.len() - 1;
            for _ in 0..steps {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut table[x as usize & mask];
                *slot = slot.wrapping_add(x);
            }
        }
        self.rng = x;
        std::hint::black_box(&self.tables);
        t.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu();
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        assert!(process_cpu() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn reference_kernel_takes_time_and_updates_its_tables() {
        let mut r = Reference::new();
        assert_eq!(r.resident_mb(), 24.0);
        assert!(r.reading_ms() > 0.0);
        // Every step adds a non-zero word somewhere: the tables changed.
        assert!(r.tables.iter().all(|t| t.iter().any(|&w| w != 1)));
    }

    #[test]
    fn parallel_side_has_two_to_four_workers() {
        assert!((2..=4).contains(&parallel_workers()));
    }
}
