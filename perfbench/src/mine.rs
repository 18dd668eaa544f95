//! `mine-8k`: one miner thread scanning nonces with `MiningSession::step`
//! against an unreachable target, `leela_like` profile at 8,000 dynamic
//! instructions per widget. Closed loop, one thread.
//!
//! The seed gives the header bytes and the first nonce. The unit of work
//! is one `step` over one lane batch of `NONCE_LANES` nonces: the
//! latency metrics are the CPU time of each step, the throughput is
//! nonces per CPU second (the median over chunks of [`CHUNK_STEPS`]
//! steps), both in reference-CPU seconds (see [`crate::calib`]).

use crate::alloc::thread_allocations;
use crate::calib::{self, SpeedProbe};
use crate::report::Outcome;
use crate::stages::StageRunner;
use crate::stats::{chunked_rate, cpu_seconds, median, peak_rss_mb, quantile};
use crate::{nproc, SplitMix};
use hashcore::{HashCore, HashScratch, MiningInput, MiningSession, Target, NONCE_LANES};
use hashcore_profile::PerformanceProfile;
use std::time::{Duration, Instant};

/// Dynamic instructions per widget.
const TARGET_INSTRUCTIONS: u64 = 8_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Steps per chunk of the throughput's median (about a second).
const CHUNK_STEPS: u64 = 256;
/// Steps between two calibration kernel runs (about 4% of the scan).
const CALIBRATE_EVERY: u64 = 16;
/// Timed-scan steps between two oracle samples.
const ORACLE_EVERY: u64 = 256;
/// Nonces each `mine_parallel` call scans in the speedup probe.
const PARALLEL_NONCES: u64 = 96;
const LANES: u64 = NONCE_LANES as u64;
/// Nonces each set-up scans before timing starts (`bench_mining`'s warm-up
/// batch).
const WARM_NONCES: u64 = 32;

/// A target no digest meets: every nonce of the range is evaluated.
fn unreachable_target() -> Target {
    Target::from_leading_zero_bits(255)
}

/// The HashCore instance of a workload: `leela_like` at `instructions`.
pub fn hashcore(instructions: u64) -> HashCore {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = instructions;
    HashCore::new(profile)
}

struct Miner {
    pow: HashCore,
    header: Vec<u8>,
    start: u64,
    session: MiningSession,
}

impl Miner {
    /// Builds the generator and the session and scans [`WARM_NONCES`], so
    /// every scratch buffer has its steady-state size and the caches are
    /// warm before timing.
    fn set_up(seed: u64) -> Result<Self, String> {
        let mut rng = SplitMix::new(seed, "mine-8k");
        let header = rng.bytes(80);
        let start = rng.next_u64() >> 8;
        let pow = hashcore(TARGET_INSTRUCTIONS);
        let mut session = MiningSession::new(&header, unreachable_target(), start);
        match session.step(&pow, WARM_NONCES) {
            Ok(None) => Ok(Self {
                pow,
                header,
                start,
                session,
            }),
            other => Err(format!("warm-up step returned {other:?}")),
        }
    }

    /// The next nonce the session will evaluate.
    fn next_nonce(&self) -> u64 {
        self.start.wrapping_add(self.session.attempts())
    }
}

fn set_up(seed: u64, out: &mut Outcome) -> Option<Miner> {
    let mut times = Vec::new();
    let mut miner = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous miner first, so that two never coexist.
        drop(miner.take());
        let (built, seconds) = calib::timed(1, || Miner::set_up(seed));
        times.push(seconds);
        miner = Some(built);
    }
    out.set("setup_s", median(&times));
    match miner.expect("at least one set-up") {
        Ok(miner) => Some(miner),
        Err(error) => {
            out.check(format!("set-up: {error}"), false);
            None
        }
    }
}

/// What the timed scan measured.
struct Scan {
    /// Reference-CPU seconds per `step` call.
    latencies: Vec<f64>,
    nonces: u64,
    /// Wall seconds of the scan, calibration left out.
    wall: f64,
    /// Heap operations inside the `step` calls.
    allocations: u64,
    /// Nonces sampled for the oracle.
    samples: Vec<u64>,
}

/// The timed scan: `step` over one lane batch at a time until `budget`
/// has passed, with a calibration kernel run every [`CALIBRATE_EVERY`]
/// steps; each chunk of [`CHUNK_STEPS`] steps is scaled by its own speed
/// factor.
fn scan(miner: &mut Miner, budget: Duration, out: &mut Outcome) -> Scan {
    let mut latencies = Vec::new();
    let mut samples = Vec::new();
    let mut allocations = 0;
    let (mut probe, mut factors) = (SpeedProbe::new(), Vec::new());
    let mut calibrating = Duration::ZERO;
    let started = Instant::now();
    let deadline = started + budget;
    let mut steps = 0u64;
    loop {
        let nonce = miner.next_nonce();
        let allocs_before = thread_allocations();
        let t0 = cpu_seconds();
        let result = miner.session.step(&miner.pow, LANES);
        let t1 = cpu_seconds();
        allocations += thread_allocations() - allocs_before;
        latencies.push(t1 - t0);
        out.attempted += LANES;
        if !matches!(result, Ok(None)) {
            // An unreachable target cannot be met; an `Err` is a widget
            // that failed to execute. Either way the batch failed.
            out.failed += LANES;
        }
        if steps.is_multiple_of(ORACLE_EVERY) {
            samples.push(nonce);
        }

        steps += 1;
        if steps.is_multiple_of(CALIBRATE_EVERY) {
            let t = Instant::now();
            probe.sample(1);
            calibrating += t.elapsed();
        }
        if steps.is_multiple_of(CHUNK_STEPS) {
            factors.push(probe.factor());
            probe.reset();
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall = (started.elapsed() - calibrating).as_secs_f64();
    if probe.runs() == 0 {
        probe.sample(1);
    }
    factors.push(probe.factor());
    for (k, latency) in latencies.iter_mut().enumerate() {
        *latency *= factors[k / CHUNK_STEPS as usize];
    }
    Scan {
        latencies,
        nonces: steps * LANES,
        wall,
        allocations,
        samples,
    }
}

/// The scan oracle: each sampled nonce, re-hashed by the naive
/// `HashCore::hash`, must be exactly what the session's batch scan
/// computes — a session whose target sits one above that digest must hit
/// at that very nonce with that very digest.
fn check_scan(miner: &Miner, samples: &[u64], out: &mut Outcome) {
    let mut mismatches = 0;
    for &nonce in samples {
        let naive = miner
            .pow
            .hash(&HashCore::mining_input(&miner.header, nonce))
            .map(|o| o.digest);
        let ok = naive.is_ok_and(|digest| {
            let target = Target::from_threshold(one_above(digest));
            let mut session = MiningSession::new(&miner.header, target, nonce);
            matches!(session.step(&miner.pow, LANES),
                Ok(Some(hit)) if hit.nonce == nonce && hit.digest == digest)
        });
        if !ok {
            mismatches += 1;
        }
    }
    out.failed += mismatches;
    out.check(
        format!(
            "scan digests of {} sampled nonces equal HashCore::hash",
            samples.len()
        ),
        mismatches == 0 && !samples.is_empty(),
    );
}

/// `digest + 1` as a big-endian number (saturating at all-ones).
fn one_above(mut digest: [u8; 32]) -> [u8; 32] {
    for byte in digest.iter_mut().rev() {
        let (next, carry) = byte.overflowing_add(1);
        *byte = next;
        if !carry {
            return digest;
        }
    }
    [0xff; 32]
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let Some(mut miner) = set_up(seed, out) else {
        return;
    };
    let scan = scan(&mut miner, Duration::from_secs_f64(seconds), out);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "throughput_per_s",
        chunked_rate(&scan.latencies, LANES as f64, CHUNK_STEPS as usize),
    );
    out.set("latency_p50_ms", median(&scan.latencies) * 1e3);
    out.set("latency_p95_ms", quantile(&scan.latencies, 0.95) * 1e3);
    out.check(
        format!(
            "{} step latencies, at least 10 beyond p95",
            scan.latencies.len()
        ),
        scan.latencies.len() >= 200,
    );
    check_scan(&miner, &scan.samples, out);
}

/// The traced run: half the budget on the plain scan (allocations per
/// hash, reference throughput), half on the stage runner over the same
/// nonce stream, then the `mine_parallel` speedup probe.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) {
    let Some(mut miner) = set_up(seed, out) else {
        return;
    };
    let half = Duration::from_secs_f64(seconds / 2.0);
    let first = miner.next_nonce();

    let plain = scan(&mut miner, half, out);
    let plain_rate = plain.nonces as f64 / plain.wall;
    out.set("bench.wall_throughput_per_s", plain_rate);
    out.set(
        "core.allocations_per_hash",
        plain.allocations as f64 / plain.nonces as f64,
    );
    check_scan(&miner, &plain.samples, out);

    // The stage runner, over the nonces the plain scan started with.
    let mut runner = StageRunner::new(&miner.pow);
    let mut digests: Vec<(u64, [u8; 32])> = Vec::with_capacity(plain.nonces as usize * 2);
    let header = miner.header.clone();
    let started = Instant::now();
    let mut base = first;
    loop {
        let nonces: [u64; NONCE_LANES] = std::array::from_fn(|i| base.wrapping_add(i as u64));
        let bytes = nonces.map(u64::to_le_bytes);
        let parts: [[&[u8]; 2]; NONCE_LANES] = std::array::from_fn(|i| [&header[..], &bytes[i]]);
        match runner.lanes(std::array::from_fn(|i| &parts[i][..])) {
            Ok(lane_digests) => digests.extend(nonces.into_iter().zip(lane_digests)),
            Err(error) => {
                out.check(format!("stage runner: {error}"), false);
                out.failed += LANES;
                return;
            }
        }
        base = base.wrapping_add(LANES);
        if started.elapsed() >= half {
            break;
        }
    }
    let traced_wall = started.elapsed().as_secs_f64();
    let totals = runner.totals;
    totals.report(out);
    out.set(
        "bench.trace_coverage",
        totals.seconds_per_hash() * plain_rate,
    );
    out.set(
        "bench.trace_overhead",
        plain_rate / (totals.hashes as f64 / traced_wall),
    );

    // The stage-runner oracle: every traced digest equals the pipeline's.
    let mut scratch = HashScratch::new();
    let mut input = MiningInput::new(&header);
    let mismatches = digests
        .iter()
        .filter(|(nonce, digest)| {
            miner
                .pow
                .hash_with_scratch(input.with_nonce(*nonce), &mut scratch)
                .map_or(true, |o| o.digest != *digest)
        })
        .count() as u64;
    out.attempted += digests.len() as u64;
    out.failed += mismatches;
    out.check(
        format!(
            "{} stage-runner digests equal hash_with_scratch",
            digests.len()
        ),
        mismatches == 0,
    );

    parallel_speedup(&miner, out);
}

/// `mine_parallel` over a fixed range at `nproc` threads against one
/// thread (median of three pairs). Context only: it shows what the host
/// gives a multi-threaded miner.
fn parallel_speedup(miner: &Miner, out: &mut Outcome) {
    let threads = nproc();
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let mut times = [0.0; 2];
        for (slot, t) in [1, threads].into_iter().enumerate() {
            let started = Instant::now();
            let result = miner.pow.mine_parallel(
                &miner.header,
                unreachable_target(),
                miner.start,
                PARALLEL_NONCES,
                t,
            );
            times[slot] = started.elapsed().as_secs_f64();
            out.attempted += PARALLEL_NONCES;
            if !matches!(result, Ok(None)) {
                out.failed += PARALLEL_NONCES;
            }
        }
        ratios.push(times[0] / times[1]);
    }
    out.set("core.parallel_speedup", median(&ratios));
}
