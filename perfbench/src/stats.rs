//! Exact order statistics over the benchmark's own `Instant` stamps.

/// One latency percentile: its value, the sample count it was taken from
/// and how many samples lie strictly above its rank.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub us: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of nanosecond samples, which
/// this sorts in place. No interpolation and no bucketing.
pub fn percentile(samples_ns: &mut [u64], q: f64) -> Percentile {
    let n = samples_ns.len();
    assert!(n > 0, "percentile of an empty sample");
    samples_ns.sort_unstable();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        us: samples_ns[rank - 1] as f64 / 1e3,
        n,
        beyond: n - rank,
    }
}

/// Median of `values`, averaging the two middle values of an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread the process
/// has run, exited ones included. Time the hypervisor steals from a
/// virtual CPU is not charged to it.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the process has used so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and the
    // clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let mut v: Vec<u64> = (1..=1000).map(|x| x * 1000).collect();
        let p99 = percentile(&mut v, 0.99);
        assert_eq!(p99.us, 990.0);
        assert_eq!(p99.beyond, 10);
        let p50 = percentile(&mut v, 0.5);
        assert_eq!(p50.us, 500.0);
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
