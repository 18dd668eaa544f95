//! Host-speed calibration.
//!
//! The end-to-end timings are CPU times ([`cpu_seconds`]), which leaves
//! out the time other tenants of a shared host take the CPU away. It does
//! not leave out how fast the CPU runs while this process has it: a
//! busy hyperthread sibling, a shared cache or a lower clock slows every
//! instruction, and on the host this benchmark was built on that moves
//! the CPU time of a fixed piece of work by ±20% within minutes.
//!
//! A [`SpeedProbe`] measures that speed while a workload runs: between
//! pieces of the workload it runs a fixed calibration kernel — integer
//! mixing and data-dependent loads and branches over a 64 KiB table,
//! code of this package that calls nothing in the repository's crates, so
//! no change to them can move it — and records the kernel's CPU time.
//! [`SpeedProbe::factor`] is [`KERNEL_REFERENCE_S`] over the kernel's mean
//! CPU time; a CPU time multiplied by it is the time the work would have
//! taken on a CPU that runs the kernel in exactly [`KERNEL_REFERENCE_S`].
//! Every end-to-end time is reported that way, in seconds of that
//! reference CPU.

use crate::stats::cpu_seconds;
use std::hint::black_box;

/// Iterations of one calibration kernel run (about 2 ms).
const KERNEL_ITERATIONS: u64 = 200_000;
/// Entries of the kernel's table (64 KiB).
const TABLE_LEN: usize = 8_192;
/// CPU seconds of one kernel run on the reference CPU: the median on the
/// 2-CPU Xeon virtual machine described in `README.md` ("Host record").
/// It sets the unit of the reported times only; comparisons between two
/// builds do not depend on it.
pub const KERNEL_REFERENCE_S: f64 = 2.0e-3;

/// The calibration kernel: a fixed amount of xorshift mixing, table loads
/// and stores at data-dependent indices, and data-dependent branches.
fn kernel(seed: u64) -> u64 {
    let mut table = [0u64; TABLE_LEN];
    let mut x = seed | 1;
    for _ in 0..KERNEL_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) % TABLE_LEN;
        table[j] = table[j].wrapping_add(x).rotate_left(7);
        if table[j] & 1 == 0 {
            x = x.wrapping_add(table[(j + 1) % TABLE_LEN]);
        }
    }
    table.iter().fold(x, |acc, v| acc ^ v)
}

/// CPU seconds of one calibration kernel run.
pub fn kernel_seconds() -> f64 {
    let started = cpu_seconds();
    black_box(kernel(black_box(0x9e37_79b9_7f4a_7c15)));
    cpu_seconds() - started
}

/// Calibration kernel runs gathered over one stretch of a workload.
#[derive(Debug, Clone, Default)]
pub struct SpeedProbe {
    seconds: f64,
    runs: u32,
}

impl SpeedProbe {
    /// An empty probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the calibration kernel `runs` times and records its CPU time.
    pub fn sample(&mut self, runs: u32) {
        for _ in 0..runs {
            self.seconds += kernel_seconds();
        }
        self.runs += runs;
    }

    /// Kernel runs recorded so far.
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// [`KERNEL_REFERENCE_S`] over the mean kernel CPU time: above 1 when
    /// the CPU ran faster than the reference. Panics on an empty probe.
    pub fn factor(&self) -> f64 {
        assert!(self.runs > 0, "speed factor of an empty probe");
        KERNEL_REFERENCE_S * f64::from(self.runs) / self.seconds
    }

    /// Clears the probe for the next stretch of the workload.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Runs `work` between two sets of `runs` calibration kernel runs and
/// returns its result and its CPU time in reference-CPU seconds.
pub fn timed<T>(runs: u32, work: impl FnOnce() -> T) -> (T, f64) {
    let mut probe = SpeedProbe::new();
    probe.sample(runs);
    let started = cpu_seconds();
    let value = work();
    let cpu = cpu_seconds() - started;
    probe.sample(runs);
    (value, cpu * probe.factor())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_seed_dependent() {
        assert_eq!(kernel(1), kernel(1));
        assert_ne!(kernel(1), kernel(2));
    }

    #[test]
    fn factor_is_reference_over_mean_kernel_time() {
        let probe = SpeedProbe {
            seconds: 4.0 * KERNEL_REFERENCE_S,
            runs: 2,
        };
        assert_eq!(probe.factor(), 0.5);
        let mut measured = SpeedProbe::new();
        measured.sample(3);
        assert_eq!(measured.runs(), 3);
        assert!(measured.factor() > 0.0);
    }
}
