//! The HashCore end-to-end and per-layer benchmark.
//!
//! Three workloads, each run by `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` (see `README.md` in this directory):
//!
//! - [`mine`] — `mine-8k`: one miner thread scanning nonces;
//! - [`sync`] — `sync-128k`: a fresh full node catching up, relaying and
//!   restarting from its store;
//! - [`sim`] — `sim-64`: a 64-node discrete-event network simulation.
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics, timing the calls into
//! each crate's public functions from this package's own code (nothing
//! inside the crates is instrumented). [`counted::Counted`] is the PoW
//! adaptor the traced runs wrap around each node's PoW function.

pub mod alloc;
pub mod calib;
pub mod counted;
pub mod mine;
pub mod report;
pub mod sim;
pub mod stages;
pub mod stats;
pub mod sync;

/// A PoW function a simulated node can run.
pub trait NodePow:
    hashcore_baselines::PreparedPow<Scratch: std::fmt::Debug> + Sync + std::fmt::Debug + Clone
{
}
impl<P> NodePow for P where
    P: hashcore_baselines::PreparedPow<Scratch: std::fmt::Debug> + Sync + std::fmt::Debug + Clone
{
}

/// Logical CPUs of the host (1 when the count is unavailable). Every
/// workload keeps to this many threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the deterministic generator every workload derives its
/// inputs from, so the same `--seed` always gives the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed` and a per-use `stream` tag, so two
    /// inputs drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut state = seed;
        for byte in stream.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        Self(state)
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `low..high` (`high > low`).
    pub fn range(&mut self, low: u64, high: u64) -> u64 {
        low + self.next_u64() % (high - low)
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}
