//! Clocks, `/proc` readers and order statistics.
//!
//! Everything here is Linux-only: CPU time comes from `clock_gettime`,
//! host steal from `/proc/stat`, peak memory from `/proc/self/status`.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn cpu_clock(id: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) and clock_gettime writes nothing but it; the two clock ids used
    // here exist on every Linux kernel.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used by every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Thread CPU milliseconds of a fixed, dependent integer loop: how fast the
/// host runs right now. Recorded at the start and end of every run, so a
/// run on a slowed host can be told apart from a slower program.
pub fn host_ref_ms() -> f64 {
    let start = thread_cpu_s();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    (thread_cpu_s() - start) * 1e3
}

/// Host-wide CPU counters from the aggregate `cpu` line of `/proc/stat`,
/// in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else while this host wanted a CPU.
    pub steal: u64,
}

/// Parses the first (`cpu `) line of a `/proc/stat` text.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

/// The host's CPU counters now.
pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| parse_proc_stat(&text))
        .expect("/proc/stat has a cpu line")
}

/// Share of host CPU time stolen between two readings (0 when no tick
/// elapsed).
pub fn steal_share(before: CpuTicks, after: CpuTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Parses `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status`
/// text.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_whitespace().skip(1);
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Restarts the peak resident set (`VmHWM`) from the current one, so the
/// peak a run reports leaves out the benchmark's own input generation.
pub fn reset_rss_peak() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// This process's peak resident set in MB.
pub fn rss_peak_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&text).expect("/proc/self/status has a VmHWM line") as f64 / 1024.0
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle sample, or the mean of the two middle ones.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of possibly no samples, 0 when empty (a layer the workload never
/// entered).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// One high quantile of a latency sample: its value, and how many samples
/// lie strictly above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TailPoint {
    pub value: f64,
    pub beyond: usize,
}

/// The latency summary printed for every workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub count: usize,
    pub p50: f64,
    pub p99: TailPoint,
    pub p999: TailPoint,
}

impl Tail {
    pub fn of(samples: &[f64]) -> Tail {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let point = |q| {
            let value = quantile(&sorted, q);
            TailPoint {
                value,
                beyond: sorted.iter().filter(|&&s| s > value).count(),
            }
        };
        Tail {
            count: sorted.len(),
            p50: median(&sorted),
            p99: point(0.99),
            p999: point(0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 0.999), 100.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn tail_counts_samples_beyond_each_point() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let tail = Tail::of(&samples);
        assert_eq!(tail.count, 1000);
        assert_eq!(tail.p50, 500.5);
        assert_eq!(tail.p99.value, 990.0);
        assert_eq!(tail.p99.beyond, 10);
        assert_eq!(tail.p999.value, 999.0);
        assert_eq!(tail.p999.beyond, 1);
    }

    #[test]
    fn proc_stat_cpu_line_parses() {
        let text = "cpu  100 5 50 800 10 0 5 30 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        let ticks = parse_proc_stat(text).unwrap();
        assert_eq!(ticks.total, 1000);
        assert_eq!(ticks.steal, 30);
        assert_eq!(parse_proc_stat("cpu0 1 2\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
    }

    #[test]
    fn steal_share_is_a_delta_ratio() {
        let before = CpuTicks {
            total: 1000,
            steal: 30,
        };
        let after = CpuTicks {
            total: 1200,
            steal: 70,
        };
        assert_eq!(steal_share(before, after), 0.2);
        assert_eq!(steal_share(after, after), 0.0);
    }

    #[test]
    fn vm_hwm_parses_from_status() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1796 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kb(text), Some(1796));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s() > p0);
        std::hint::black_box(x);
    }
}
