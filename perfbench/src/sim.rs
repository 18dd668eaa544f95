//! `sim-64`: [`Simulation::run`] over 64 honest nodes mining with
//! [`Sha256dPow`] — `sim_scale`'s defended overlay (fan-out 8, 8 s anchor
//! rotation, 1.5 s request timeout) and 14 leading-zero bits, so about
//! one block in eight goes stale. Timed runs use one scheduler thread;
//! `nproc` threads replay some of them (see [`run`]).
//!
//! No HashCore widget runs here: the scheduler, the handlers, the fork
//! tree, gossip and the miners' SHA-256d nonce scans do the work. A run
//! simulates one `SimConfig::seed` after another, each drawn from
//! `--seed`, so its medians average over many networks.
//! `throughput_per_s` is events per CPU second; the latency metrics are
//! each network's CPU time per 1,000 events, so they do not depend on how
//! many events a seed's network happens to produce. Both are in reference-CPU seconds: calibration
//! kernel runs before and after each `run()` give it its speed factor
//! (see [`crate::calib`]).

use crate::calib;
use crate::counted::{Counted, Recorder};
use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, quantile, Window};
use crate::{nproc, NodePow, SplitMix};
use hashcore_baselines::Sha256dPow;
use hashcore_net::{SimConfig, SimReport, Simulation, TopologyConfig};
use std::time::{Duration, Instant};

/// Nodes in the network.
const NODES: usize = 64;
/// Simulated seconds per run.
const DURATION_S: u64 = 30;
/// Timed batches of set-ups per run; `setup_s` is the median over
/// batches of the time per set-up.
const SETUP_BATCHES: usize = 15;
/// Set-ups per timed batch (one takes about 0.03 ms).
const SETUPS_PER_BATCH: usize = 64;
/// Calibration kernel runs before and after each `run()`.
const CALIBRATION_RUNS: u32 = 3;
/// Every this many networks, the run replays one at `nproc` threads.
const REPLAY_EVERY: u64 = 4;
/// Networks per run at least.
const MIN_RUNS: usize = 3;
/// The run fails when more than one network in this many ends with nodes
/// off the common tip.
const MAX_UNCONVERGED_IN: usize = 10;

/// The workload's configuration at `threads` scheduler threads.
fn config(seed: u64, threads: usize) -> SimConfig {
    SimConfig {
        nodes: NODES,
        seed,
        difficulty_bits: 14,
        attempts_per_slice: 32,
        slice_ms: 100,
        fan_out: 8,
        duration_ms: DURATION_S * 1_000,
        sync_threads: threads,
        request_timeout_ms: Some(1_500),
        topology: Some(TopologyConfig {
            rotation_interval_ms: Some(8_000),
            ..TopologyConfig::defended()
        }),
        threads,
        ..SimConfig::default()
    }
}

/// One finished simulation.
struct Run {
    report: SimReport,
    wall: Window,
    /// Reference-CPU seconds of `run()`, all threads together.
    cpu: f64,
}

fn simulate<P: NodePow + Send>(sim: &mut Simulation<P>) -> Run {
    let mut wall = None;
    let (report, cpu) = calib::timed(CALIBRATION_RUNS, || {
        let start = Instant::now();
        let report = sim.run();
        wall = Some(Window {
            start,
            end: Instant::now(),
        });
        report
    });
    let wall = wall.expect("run() returned");
    Run { report, wall, cpu }
}

/// Counts a network whose replays must match `expected` as one attempted
/// operation, failed when they do not.
fn check_replay(out: &mut Outcome, what: &str, expected: &str, replays: &[&Run]) {
    let identical = replays
        .iter()
        .all(|run| run.report.fingerprint_extended() == expected);
    out.attempted += 1;
    out.failed += u64::from(!identical);
    out.check(what, identical);
}

/// Builds the run's first simulation, at one thread, in timed batches.
fn set_up(seed: u64, out: &mut Outcome) -> Simulation<Sha256dPow> {
    let mut times = Vec::new();
    let mut sim = None;
    for _ in 0..SETUP_BATCHES {
        let ((), seconds) = calib::timed(1, || {
            for _ in 0..SETUPS_PER_BATCH {
                drop(sim.take());
                sim = Some(Simulation::new(config(sim_seed(seed, 0), 1), |_| {
                    Sha256dPow
                }));
            }
        });
        times.push(seconds / SETUPS_PER_BATCH as f64);
    }
    out.set("setup_s", median(&times));
    sim.expect("at least one set-up")
}

/// The simulation seed of the `index`-th simulation of a run.
fn sim_seed(seed: u64, index: u64) -> u64 {
    let mut rng = SplitMix::new(seed, "sim-64");
    (0..=index)
        .map(|_| rng.next_u64())
        .last()
        .expect("one draw")
}

/// The end-to-end run: networks with seeds drawn from `--seed`, one after
/// another until the budget is spent. Each is simulated, and timed, at one
/// scheduler thread; every [`REPLAY_EVERY`]th is simulated again at
/// `nproc` threads, which must replay it exactly. The timed runs keep to
/// one thread because the CPU time of two threads on a shared host
/// depends on how the host places them (`net.parallel_speedup` in the
/// traced run reports the parallel scheduler's effect).
///
/// A network can end with a few nodes off the common tip: an
/// announcement dropped on an evicted link is never re-sent, and after
/// the last block nothing makes the straggler catch up. That is protocol
/// behaviour the run reports, not a simulator fault; the check fails only
/// when more than one network in [`MAX_UNCONVERGED_IN`] ends that way.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let mut first = Some(set_up(seed, out));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut rates, mut per_kilo_event) = (Vec::new(), Vec::new());
    let (mut unconverged, mut off_tip) = (0, 0);
    for index in 0.. {
        let sim_seed = sim_seed(seed, index);
        let mut sim = first
            .take()
            .unwrap_or_else(|| Simulation::new(config(sim_seed, 1), |_| Sha256dPow));
        let a = simulate(&mut sim);
        if index % REPLAY_EVERY == 0 {
            let b = simulate(&mut Simulation::new(config(sim_seed, nproc()), |_| {
                Sha256dPow
            }));
            check_replay(
                out,
                "1-thread and nproc-thread runs of a network are identical",
                &a.report.fingerprint_extended(),
                &[&b],
            );
        } else {
            out.attempted += 1;
        }
        if !a.report.converged {
            unconverged += 1;
            off_tip += sim
                .nodes()
                .iter()
                .filter(|n| n.tip() != a.report.tip)
                .count();
        }
        let events = a.report.events_processed as f64;
        rates.push(events / a.cpu);
        per_kilo_event.push(a.cpu * 1e3 / events);
        if rates.len() >= MIN_RUNS && Instant::now() >= deadline {
            break;
        }
    }
    let networks = rates.len();
    println!(
        "sim-64: {unconverged} of {networks} networks ended unconverged, \
         {off_tip} node tips off the common tip in all"
    );
    out.check(
        format!("at most one network in {MAX_UNCONVERGED_IN} ends unconverged"),
        unconverged * MAX_UNCONVERGED_IN <= networks,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("throughput_per_s", median(&rates));
    out.set("latency_p50_ms", median(&per_kilo_event) * 1e3);
    out.set("latency_p95_ms", quantile(&per_kilo_event, 0.95) * 1e3);
}

/// The traced run: the report's counts at `nproc` threads, then pairs of
/// 1-thread runs until the budget is spent — one bare (the speedup's
/// base) and one with [`Sha256dPow`] wrapped in [`Counted`] (the PoW
/// share). Every run must be identical.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) {
    let seed = sim_seed(seed, 0);
    let parallel = simulate(&mut Simulation::new(config(seed, nproc()), |_| Sha256dPow));
    let fingerprint = parallel.report.fingerprint_extended();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let rate = |run: &Run| run.report.events_processed as f64 / run.wall.seconds();
    let (mut single_rates, mut traced_rates, mut pow_shares) = (Vec::new(), Vec::new(), Vec::new());
    let mut evaluations;
    loop {
        let single = simulate(&mut Simulation::new(config(seed, 1), |_| Sha256dPow));
        let recorder = Recorder::new();
        let counted = Counted::new(Sha256dPow, recorder.clone());
        let traced = simulate(&mut Simulation::new(config(seed, 1), |_| counted.clone()));
        let spans = recorder.take();
        check_replay(
            out,
            "nproc-thread, 1-thread and traced runs are identical",
            &fingerprint,
            &[&single, &traced],
        );
        single_rates.push(rate(&single));
        traced_rates.push(rate(&traced));
        pow_shares.push(spans.iter().map(|s| s.seconds()).sum::<f64>() / traced.wall.seconds());
        evaluations = spans.iter().map(|s| s.evaluations).sum::<u64>();
        if Instant::now() >= deadline {
            break;
        }
    }

    let r = &parallel.report;
    let blocks = r.blocks_mined.max(1) as f64;
    let single_rate = median(&single_rates);
    out.set("net.events", r.events_processed as f64);
    out.set("net.blocks_mined", r.blocks_mined as f64);
    out.set("net.tip_height", r.tip_height as f64);
    out.set("net.reorgs", r.reorg_depths.len() as f64);
    out.set("net.max_reorg_depth", r.max_reorg_depth as f64);
    out.set("net.segments_synced", r.segments_synced as f64);
    out.set("net.segment_blocks", r.segment_blocks as f64);
    out.set("net.rejections", r.rejections.total() as f64);
    out.set("net.peer_evictions", r.peer_evictions as f64);
    out.set("net.anchor_rotations", r.anchor_rotations as f64);
    out.set(
        "net.stale_share",
        (r.blocks_mined - r.tip_height) as f64 / blocks,
    );
    out.set("net.messages_per_block", r.messages_sent as f64 / blocks);
    out.set("net.bytes_per_block", r.bytes_sent as f64 / blocks);
    out.set("bench.wall_throughput_per_s", rate(&parallel));
    out.set("net.events_per_s_1t", single_rate);
    out.set("net.parallel_speedup", rate(&parallel) / single_rate);
    out.set(
        "net.sync_wall_share",
        r.sync_wall_seconds / parallel.wall.seconds(),
    );
    out.set("core.pow_share", median(&pow_shares));
    out.set(
        "core.pow_evals_per_event",
        evaluations as f64 / r.events_processed as f64,
    );
    out.set("bench.trace_overhead", single_rate / median(&traced_rates));
}
