//! Measurements the benchmark takes of its own process: CPU time, peak
//! resident memory, percentiles, the host's current speed, and the span
//! ledger of traced runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Nanoseconds on CPU of every live thread of this process, summed from
/// the first field of `/proc/self/task/*/schedstat`.
///
/// A thread that exits takes its time with it, so every window the
/// benchmark reads closes while the threads it covers still live: the
/// pool's workers are persistent, and a serve replay reads its end mark
/// before any connection closes.
pub fn cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("reading /proc/self/task")
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_ascii_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Lower the peak-RSS mark to the current RSS, so [`peak_rss_mb`] covers
/// only what follows. Returns whether the kernel accepted the reset;
/// without it the mark also covers input generation.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A point in wall-clock and process CPU time.
#[derive(Clone, Copy)]
pub struct Mark {
    at: Instant,
    cpu: u64,
}

impl Mark {
    pub fn now() -> Mark {
        let cpu = cpu_ns();
        Mark {
            at: Instant::now(),
            cpu,
        }
    }

    /// Wall and CPU seconds since the mark.
    pub fn elapsed(&self) -> (f64, f64) {
        let wall = self.at.elapsed().as_secs_f64();
        (wall, cpu_ns().saturating_sub(self.cpu) as f64 * 1e-9)
    }
}

/// Confine every thread of this process, and every thread they start from
/// now on, to the first CPU the process may run on, and return that CPU;
/// `None` if the kernel refused. Called first thing, it puts the whole
/// benchmark — client, server and pool threads alike — on one CPU, so the
/// reference kernel below runs on the very core whose speed it is meant
/// to gauge, and no round trip depends on which vCPU the scheduler woke a
/// thread on.
pub fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t`: one bit per CPU.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: each call reads or writes exactly one `CpuSet` of `size`
    // bytes; pid 0 names the calling thread, any other a thread of ours.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..64 * allowed.len()).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_str()?.parse().ok())
    {
        if unsafe { sched_setaffinity(tid, size, &one) } != 0 {
            return None;
        }
    }
    Some(cpu)
}

/// A fixed piece of work, independent of the program under test, that
/// gauges how fast the host runs the benchmark's CPU right now.
///
/// The benchmark's host is a small VM on a shared machine: its core runs
/// at about half speed for seconds at a time while another tenant loads
/// the same physical core or its caches. The kernel — filtered scans over
/// a record array, collecting the matches, about 10⁷ records a pass —
/// slows with it. Timed just before and after an operation, it gives the
/// factor that turns the operation's time into time at quiet-host speed,
/// which a change to the program moves and a change of the host's load
/// largely does not. How much a slow spell slows code depends on where
/// its data lives, so the array is sized like the workload's hot data.
pub struct Reference {
    records: Vec<(u32, u32, u32)>,
    /// What one timing takes on a quiet core of the 2-vCPU host (Xeon,
    /// 2 MiB L2 per core) the benchmark was written on, in seconds.
    quiet_s: f64,
    /// Every timing taken, for the run's stamp.
    timings: RefCell<Vec<f64>>,
}

/// An operation's wall and CPU seconds as measured, and the factor that
/// scales them, or any time taken inside the operation, to quiet-host speed.
#[derive(Clone, Copy)]
pub struct Timed {
    pub wall: f64,
    pub cpu: f64,
    pub scale: f64,
}

impl Timed {
    pub fn ref_wall(&self) -> f64 {
        self.wall * self.scale
    }

    pub fn ref_cpu(&self) -> f64 {
        self.cpu * self.scale
    }
}

impl Reference {
    /// A 1.2 MB array, which stays in a core's private L2 as the audit's
    /// ST and the served index's hot containers do.
    pub fn cache_sized() -> Reference {
        Reference::new(100_000, 0.005)
    }

    /// A 48 MB array, past every private cache, as the sharded engine's
    /// table, runs and page buffers are.
    pub fn memory_sized() -> Reference {
        Reference::new(4_000_000, 0.012)
    }

    fn new(len: u32, quiet_s: f64) -> Reference {
        let mut state = 0x5EED;
        let records = (0..len)
            .map(|i| (i / 10, (splitmix64(&mut state) % 50) as u32, i))
            .collect();
        Reference {
            records,
            quiet_s,
            timings: RefCell::new(Vec::new()),
        }
    }

    /// Seconds one kernel pass takes now, as the mean of three.
    pub fn now(&self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..3 {
            for g in 0..(10_000_000 / self.records.len()) as u32 {
                let hits: Vec<_> = self.records.iter().filter(|r| r.0 == g * 97).collect();
                sum += hits.iter().map(|r| u64::from(r.1)).sum::<u64>();
            }
        }
        std::hint::black_box(sum);
        let s = start.elapsed().as_secs_f64() / 3.0;
        self.timings.borrow_mut().push(s);
        s
    }

    /// The factor that scales a time measured between kernel timings
    /// `before` and `after` to quiet-host speed.
    pub fn scale(&self, before: f64, after: f64) -> f64 {
        2.0 * self.quiet_s / (before + after)
    }

    /// Run `op` between two kernel timings.
    pub fn time<R>(&self, op: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.now();
        let mark = Mark::now();
        let out = op();
        let (wall, cpu) = mark.elapsed();
        let scale = self.scale(before, self.now());
        (out, Timed { wall, cpu, scale })
    }

    pub fn quiet_s(&self) -> f64 {
        self.quiet_s
    }

    /// The median of the run's kernel timings, in seconds.
    pub fn median_s(&self) -> f64 {
        percentile(&self.timings.borrow(), 0.5)
    }

    /// The kernel array's size, which the process's peak RSS includes.
    pub fn mib(&self) -> f64 {
        std::mem::size_of_val(&self.records[..]) as f64 / (1024.0 * 1024.0)
    }
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Set-ups per run, spread over its measured time so that a slow spell
/// of the host lands on a few of them, not on all; `setup_s` is their
/// median.
pub const SETUP_REPS: usize = 16;

/// Summed cost of one span name.
#[derive(Default, Clone, Copy)]
pub struct Cost {
    pub calls: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl Cost {
    pub fn mean_wall(&self) -> f64 {
        self.wall_s / self.calls.max(1) as f64
    }

    pub fn mean_cpu(&self) -> f64 {
        self.cpu_s / self.calls.max(1) as f64
    }
}

/// The traced run's span recorder: each public call the benchmark makes
/// runs inside a named span that records its wall time and the process's
/// CPU time over it. Switched off, a span is the bare call.
#[derive(Default)]
pub struct Ledger {
    on: bool,
    spans: BTreeMap<&'static str, Cost>,
}

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            spans: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn span<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        if !self.on {
            return call();
        }
        let mark = Mark::now();
        let out = call();
        let (wall, cpu) = mark.elapsed();
        let cost = self.spans.entry(name).or_default();
        cost.calls += 1;
        cost.wall_s += wall;
        cost.cpu_s += cpu;
        out
    }

    pub fn cost(&self, name: &str) -> Cost {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        assert_eq!(percentile(&xs, 0.2), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn process_probes_read_this_process() {
        // The kernel folds running time into schedstat at ticks and
        // switches, so spin until it shows rather than for a fixed count.
        let before = cpu_ns();
        let start = Instant::now();
        let mut x = 0u64;
        while cpu_ns() <= before && start.elapsed() < Duration::from_secs(5) {
            for i in 0..200_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
        }
        assert!(cpu_ns() > before, "spinning used no CPU ({x})");
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn switched_off_ledger_records_nothing() {
        let mut ledger = Ledger::new(false);
        assert_eq!(ledger.span("a", || 3), 3);
        assert_eq!(ledger.cost("a").calls, 0);
        ledger.set_on(true);
        ledger.span("a", || ());
        ledger.span("a", || ());
        assert_eq!(ledger.cost("a").calls, 2);
    }

    #[test]
    fn reference_scales_to_quiet_host_speed() {
        let reference = Reference::cache_sized();
        let quiet = reference.quiet_s();
        assert_eq!(reference.scale(quiet, quiet), 1.0);
        assert_eq!(reference.scale(2.0 * quiet, 2.0 * quiet), 0.5);
        let (out, t) = reference.time(|| 7);
        assert_eq!(out, 7);
        assert!(t.scale > 0.0 && t.scale.is_finite());
        assert_eq!(t.ref_wall(), t.wall * t.scale);
        assert_eq!(
            reference.timings.borrow().len(),
            2,
            "one timing before, one after"
        );
        assert!(reference.median_s() > 0.0);
        assert_eq!(reference.mib(), 100_000.0 * 12.0 / (1024.0 * 1024.0));
    }
}
