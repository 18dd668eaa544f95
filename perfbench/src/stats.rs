//! Order statistics, interval arithmetic and the clocks behind the
//! reported metrics.

use crate::counted::PowSpan;
use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// The median of `values` (the mean of the two middle values for an even
/// count, as Python's `statistics.median`). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values`, `q` in `(0, 1]`. Panics on
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, over consecutive chunks of `chunk` samples, of the rate
/// `work` per second, where each sample did `work_per_sample` in the
/// given seconds. When there are fewer than `chunk` samples, the rate of
/// them all. Panics on an empty slice.
pub fn chunked_rate(seconds: &[f64], work_per_sample: f64, chunk: usize) -> f64 {
    let rate =
        |samples: &[f64]| samples.len() as f64 * work_per_sample / samples.iter().sum::<f64>();
    if seconds.len() < chunk {
        return rate(seconds);
    }
    let rates: Vec<f64> = seconds.chunks_exact(chunk).map(rate).collect();
    median(&rates)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistics of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A wall-clock window `[start, end]` of one benchmark phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Phase start.
    pub start: Instant,
    /// Phase end.
    pub end: Instant,
}

impl Window {
    /// The window's length in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The spans that started inside this window.
    pub fn spans<'a>(&self, spans: &'a [PowSpan]) -> impl Iterator<Item = &'a PowSpan> + 'a {
        let (start, end) = (self.start, self.end);
        spans
            .iter()
            .filter(move |s| s.start >= start && s.start <= end)
    }

    /// Seconds of this window during which at least one span was running
    /// on any thread (the union of the span intervals, clipped).
    pub fn covered_seconds(&self, spans: &[PowSpan]) -> f64 {
        let mut intervals: Vec<(Instant, Instant)> = spans
            .iter()
            .map(|s| (s.start.max(self.start), s.end.min(self.end)))
            .filter(|(a, b)| a < b)
            .collect();
        intervals.sort();
        let mut covered = 0.0;
        let mut current: Option<(Instant, Instant)> = None;
        for (a, b) in intervals {
            match current {
                Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
                _ => {
                    if let Some((ca, cb)) = current {
                        covered += (cb - ca).as_secs_f64();
                    }
                    current = Some((a, b));
                }
            }
        }
        if let Some((ca, cb)) = current {
            covered += (cb - ca).as_secs_f64();
        }
        covered
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

/// CPU seconds every thread of this process has run so far, exited
/// threads included (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The end-to-end timings use this clock, not the wall clock. On a
/// virtual machine shared with other tenants the wall time of a fixed
/// piece of work varies by more than 2× from one run to the next, as the
/// host deschedules the machine's CPUs (steal time) and other processes
/// take turns on them. Neither is counted here: the kernel charges a
/// thread only for the time it ran, and, with paravirtualised steal-time
/// accounting, not for time the host took away. Time spent waiting —
/// for `fsync`, for a lock, for a sleeping peer — is not counted either;
/// the traced runs report wall-clock figures beside it.
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec`, and
    // `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Bytes this process has passed to `write`-family system calls so far
/// (`wchar` of `/proc/self/io`); 0 where the file is unavailable.
pub fn bytes_written() -> u64 {
    proc_field("/proc/self/io", "wchar:")
}

/// The process's peak resident set in MB (`VmHWM` of
/// `/proc/self/status`); 0 where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:") as f64 / 1024.0
}

fn proc_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn median_and_quantile_match_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        // Nearest rank: 10 samples lie beyond the 190th of 200.
        assert_eq!(quantile(&values, 0.95), 190.0);
        assert_eq!(quantile(&[5.0], 0.95), 5.0);
    }

    #[test]
    fn chunked_rate_is_the_median_chunk_rate() {
        // Chunks of two: rates 4/2, 4/1 and 4/4 per second; the trailing
        // sample is dropped.
        let seconds = [1.0, 1.0, 0.5, 0.5, 2.0, 2.0, 9.0];
        assert_eq!(chunked_rate(&seconds, 2.0, 2), 2.0);
        assert_eq!(chunked_rate(&[1.0, 3.0], 2.0, 4), 1.0);
    }

    #[test]
    fn cpu_seconds_counts_work_not_sleep() {
        let before = cpu_seconds();
        thread::sleep(Duration::from_millis(50));
        let slept = cpu_seconds() - before;
        let started = Instant::now();
        let mut x = 1u64;
        while started.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005));
        }
        let worked = cpu_seconds() - before - slept;
        assert!(slept < 0.02, "sleeping used {slept} CPU seconds");
        assert!(worked > 0.005, "spinning used only {worked} CPU seconds");
    }

    #[test]
    fn covered_seconds_is_the_clipped_union() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let span = |a, b| PowSpan {
            thread: thread::current().id(),
            start: at(a),
            end: at(b),
            evaluations: 1,
        };
        let window = Window {
            start: at(10),
            end: at(100),
        };
        // [0,20) clipped to [10,20), [15,30) overlaps it, [50,60), and
        // [90,200) clipped to [90,100): 20 + 10 + 10 = 40 ms covered.
        let spans = [span(0, 20), span(15, 30), span(50, 60), span(90, 200)];
        assert!((window.covered_seconds(&spans) - 0.040).abs() < 1e-9);
        assert_eq!(window.spans(&spans).count(), 3);
    }
}
