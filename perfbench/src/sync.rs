//! `sync-128k`: the verifier side of the hash pipeline.
//!
//! Set-up: a serving [`Node`] pre-mines a HashCore chain with
//! `mine_slice` — 128k-instruction widgets under
//! [`DifficultyRule::CostAware`], block times drawn from the seed.
//!
//! Timed, once per cycle, with a fresh full node that has an attached
//! [`ChainStore`] (fsync per append, a snapshot every
//! [`SNAPSHOT_INTERVAL`] blocks) and `sync_threads = nproc`:
//!
//! - (a) initial block download: the server announces block
//!   [`IBD_BLOCKS`]; the fresh node requests the segment behind it and
//!   validates and stores it. Messages between the two nodes are routed
//!   by this benchmark through [`Node::handle`] (`Outgoing::To` only);
//! - (b) relay: the next [`RELAY_BLOCKS`] blocks arrive one
//!   `Message::Block` at a time, as gossip would deliver them;
//! - (c) restart: [`Node::crash_restart`] rebuilds the tree from the store.
//!
//! Closed loop, one peer. `throughput_per_s` is blocks stored per CPU
//! second of phase (a), all threads together (median over cycles); the
//! latency metrics are the CPU time of each relayed block in phase (b).
//! Both are in reference-CPU seconds: calibration kernel runs before (a),
//! between (a) and (b) and during (b) give each cycle its speed factor
//! (see [`crate::calib`]).

use crate::alloc::process_allocations;
use crate::calib::SpeedProbe;
use crate::counted::{Counted, PowSpan, Recorder};
use crate::mine::hashcore;
use crate::report::Outcome;
use crate::stages::StageRunner;
use crate::stats::{bytes_written, cpu_seconds, median, peak_rss_mb, quantile, Window};
use crate::{nproc, NodePow, SplitMix};
use hashcore::{HashScratch, Target};
use hashcore_baselines::{HashCorePow, PreparedPow};
use hashcore_chain::{Block, CostAwareRetarget, DifficultyRule, EmaRetarget};
use hashcore_net::{Message, Node, Outgoing};
use hashcore_store::ChainStore;
use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Dynamic instructions per widget.
const TARGET_INSTRUCTIONS: u64 = 128_000;
/// Blocks the fresh node downloads as one segment in phase (a).
const IBD_BLOCKS: usize = 64;
/// Blocks relayed one by one in phase (b).
const RELAY_BLOCKS: usize = 64;
/// Stored blocks between two store snapshots.
const SNAPSHOT_INTERVAL: u64 = 16;
/// Simulated milliseconds one pre-mining slice stands for (plus a
/// seed-drawn jitter of up to a quarter).
const SLICE_MS: u64 = 1_000;
/// The difficulty rule's block time: a quarter slice, so the time step
/// always eases and the expected target stays near the easiest one the
/// cost factor allows — a few hashes per block.
const BLOCK_MS: u64 = SLICE_MS / 4;
/// Nonces per `mine_slice` call while pre-mining.
const SLICE_ATTEMPTS: u64 = hashcore::NONCE_LANES as u64;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Cycles per run at least, so phase (b) gives 10 samples beyond p95.
const MIN_CYCLES: usize = 4;
/// Blocks between two calibration kernel runs, in pre-mining and in
/// phase (b).
const CALIBRATE_EVERY: usize = 16;
/// Chain blocks the traced run also drives through the stage runner.
const STAGE_BLOCKS: usize = 16;

const SERVER: usize = 0;
const CLIENT: usize = 1;

/// The consensus rule of both nodes: cost-aware retargeting (cost gain
/// 0.5, response 1) over an EMA time step (gain 0.5) from a one-bit
/// target, the easiest one `Target::scale` produces. (From `Target::MAX`,
/// `ForkTree` and the segment walk expect different targets of a genesis
/// child, and every segment sync from genesis is rejected.)
fn rule() -> DifficultyRule {
    let time = EmaRetarget::new(Target::from_leading_zero_bits(1), BLOCK_MS as f64, 0.5);
    DifficultyRule::CostAware(CostAwareRetarget::new(time, 0.5, 1.0))
}

fn node<P: NodePow>(id: usize, pow: P) -> Node<P> {
    let rule = rule();
    Node::new(id, pow, rule.genesis_target(), nproc()).with_difficulty(rule, None)
}

/// The serving node and the chain it mined.
struct Server<P: NodePow> {
    node: Node<P>,
    blocks: Vec<Block>,
    /// Simulated time after the last block.
    now_ms: u64,
}

/// Pre-mines the seed's chain; returns the server and the CPU seconds the
/// mining took, with a calibration kernel run into `probe` after every
/// [`CALIBRATE_EVERY`] blocks (not counted in those seconds).
fn mine_chain<P: NodePow>(
    pow: P,
    seed: u64,
    probe: &mut SpeedProbe,
) -> Result<(Server<P>, f64), String> {
    let started = cpu_seconds();
    let mut calibrating = 0.0;
    let mut rng = SplitMix::new(seed, "sync-128k");
    let mut now_ms = rng.range(1 << 20, 1 << 40);
    let mut server = node(SERVER, pow);
    let mut blocks = Vec::with_capacity(IBD_BLOCKS + RELAY_BLOCKS);
    while blocks.len() < IBD_BLOCKS + RELAY_BLOCKS {
        let mut slices = 0;
        let block = loop {
            now_ms += SLICE_MS + rng.range(0, SLICE_MS / 4);
            let mined = server.mine_slice(now_ms, SLICE_ATTEMPTS);
            if let Some(block) = mined.into_iter().find_map(|o| match o {
                Outgoing::Broadcast(Message::Block(block)) => Some(block),
                _ => None,
            }) {
                break block;
            }
            slices += 1;
            if slices > 1_000 {
                return Err(format!("no block after {slices} slices"));
            }
        };
        blocks.push(block);
        if blocks.len() % CALIBRATE_EVERY == 0 {
            let t = cpu_seconds();
            probe.sample(1);
            calibrating += cpu_seconds() - t;
        }
    }
    let seconds = cpu_seconds() - started - calibrating;
    let server = Server {
        node: server,
        blocks,
        now_ms,
    };
    Ok((server, seconds))
}

/// Pre-mines the chain [`SETUP_REPS`] times (the same chain each time),
/// reports the median, in reference-CPU seconds, as `setup_s` and keeps
/// the last server.
fn set_up<P: NodePow>(pow: &P, seed: u64, out: &mut Outcome) -> Option<Server<P>> {
    let mut times = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let mut probe = SpeedProbe::new();
        probe.sample(1);
        let mined = mine_chain(pow.clone(), seed, &mut probe).map(|(server, seconds)| {
            times.push(seconds * probe.factor());
            server
        });
        server = Some(mined);
    }
    match server.expect("at least one set-up") {
        Ok(server) => {
            out.set("setup_s", median(&times));
            Some(server)
        }
        Err(error) => {
            out.check(format!("pre-mining: {error}"), false);
            None
        }
    }
}

/// What one cycle measured.
struct Cycle {
    ibd: Window,
    /// Reference-CPU seconds of phase (a), all threads together.
    ibd_cpu: f64,
    relay: Window,
    restart: Window,
    /// Reference-CPU seconds of each relayed block.
    relay_latencies: Vec<f64>,
    ibd_messages: u64,
    ibd_wire_bytes: u64,
    ibd_allocations: u64,
    store_bytes_written: u64,
    /// The synced tree's fingerprint before the restart.
    fingerprint: [u8; 32],
}

/// A per-process scratch directory inside this package's `work/`
/// directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `work/<pid>-<label>/` next to this package's manifest.
    fn new(label: &str) -> std::io::Result<Self> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{}-{label}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory's path.
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leave `work/` itself only while another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Delivers `first` to the client and routes every `Outgoing::To` the two
/// nodes send each other until the exchange is quiet. Returns the messages
/// delivered and their wire bytes.
fn exchange<S: NodePow, C: NodePow>(
    server: &mut Node<S>,
    client: &mut Node<C>,
    now_ms: u64,
    first: Message,
) -> (u64, u64) {
    let (mut messages, mut bytes) = (0, 0);
    let mut queue = VecDeque::from([(CLIENT, SERVER, first)]);
    while let Some((to, from, message)) = queue.pop_front() {
        messages += 1;
        bytes += message.wire_size();
        let sent = if to == CLIENT {
            client.handle(now_ms, from, message)
        } else {
            server.handle(now_ms, from, message)
        };
        for outgoing in sent {
            if let Outgoing::To(peer, message) = outgoing {
                queue.push_back((peer, to, message));
            }
        }
    }
    (messages, bytes)
}

/// One fresh node through phases (a), (b) and (c). Failures are counted
/// into `out`; `copy_to` receives a copy of the store directory as it
/// stood before the restart.
fn cycle<S: NodePow, C: NodePow>(
    server: &mut Server<S>,
    pow: C,
    dir: &Path,
    copy_to: Option<&Path>,
    out: &mut Outcome,
) -> Option<Cycle> {
    let store = match ChainStore::create(dir) {
        Ok(store) => store,
        Err(error) => {
            out.check(format!("store create: {error}"), false);
            return None;
        }
    };
    let mut client = node(CLIENT, pow).with_persistence(store, SNAPSHOT_INTERVAL);
    let now_ms = server.now_ms;
    let (ibd_blocks, relay_blocks) = server.blocks.split_at(IBD_BLOCKS);
    let announce = Message::Block(ibd_blocks[IBD_BLOCKS - 1].clone());

    let mut probe = SpeedProbe::new();
    probe.sample(2);

    // (a) Initial block download.
    let written_before = bytes_written();
    let allocs_before = process_allocations();
    let start = Instant::now();
    let cpu_start = cpu_seconds();
    let (ibd_messages, ibd_wire_bytes) = exchange(&mut server.node, &mut client, now_ms, announce);
    let ibd_cpu = cpu_seconds() - cpu_start;
    let ibd = Window {
        start,
        end: Instant::now(),
    };
    let ibd_allocations = process_allocations() - allocs_before;
    out.attempted += IBD_BLOCKS as u64;
    if client.tree().tip_block() != ibd_blocks.last() || client.tip_height() != IBD_BLOCKS as u64 {
        out.failed += IBD_BLOCKS as u64;
        out.check("segment sync stores the announced chain", false);
        return None;
    }

    probe.sample(2);

    // (b) Relay, one block at a time.
    let mut relay_latencies = Vec::with_capacity(RELAY_BLOCKS);
    let start = Instant::now();
    for (k, block) in relay_blocks.iter().enumerate() {
        let message = Message::Block(block.clone());
        let t0 = cpu_seconds();
        let _gossip = client.handle(now_ms, SERVER, message);
        relay_latencies.push(cpu_seconds() - t0);
        out.attempted += 1;
        if client.tree().tip_block() != Some(block) {
            out.failed += 1;
        }
        if (k + 1) % CALIBRATE_EVERY == 0 {
            probe.sample(1);
        }
    }
    let relay = Window {
        start,
        end: Instant::now(),
    };
    let speed = probe.factor();
    let ibd_cpu = ibd_cpu * speed;
    for latency in &mut relay_latencies {
        *latency *= speed;
    }
    let store_bytes_written = bytes_written() - written_before;
    let synced = client.tip() == server.node.tip();
    out.check("synced tip equals the server's tip", synced);
    if !synced {
        return None;
    }
    if let Some(copy) = copy_to {
        if let Err(error) = copy_dir(dir, copy) {
            out.check(format!("store copy: {error}"), false);
            return None;
        }
    }

    // (c) Crash and restart from the store.
    let fingerprint = client.tree().fingerprint();
    let identical_before = client.stats().recoveries_identical;
    let start = Instant::now();
    let restarted = client.crash_restart();
    let restart = Window {
        start,
        end: Instant::now(),
    };
    out.attempted += 1;
    let recovered = restarted.is_ok()
        && client.stats().recoveries_identical == identical_before + 1
        && client.tree().fingerprint() == fingerprint;
    if !recovered {
        out.failed += 1;
    }
    out.check("restart recovers an identical tree", recovered);

    Some(Cycle {
        ibd,
        ibd_cpu,
        relay,
        restart,
        relay_latencies,
        ibd_messages,
        ibd_wire_bytes,
        ibd_allocations,
        store_bytes_written,
        fingerprint,
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn work_dir(out: &mut Outcome) -> Option<WorkDir> {
    WorkDir::new("sync")
        .map_err(|error| out.check(format!("work directory: {error}"), false))
        .ok()
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let pow = HashCorePow::new(hashcore(TARGET_INSTRUCTIONS));
    let Some(mut server) = set_up(&pow, seed, out) else {
        return;
    };
    let Some(work) = work_dir(out) else {
        return;
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut ibd_rates, mut latencies) = (Vec::new(), Vec::new());
    for k in 0.. {
        let dir = work.path().join(format!("cycle-{k}"));
        let Some(cycle) = cycle(&mut server, pow.clone(), &dir, None, out) else {
            return;
        };
        let _ = fs::remove_dir_all(&dir);
        ibd_rates.push(IBD_BLOCKS as f64 / cycle.ibd_cpu);
        latencies.extend(cycle.relay_latencies);
        if k + 1 >= MIN_CYCLES && Instant::now() >= deadline {
            break;
        }
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("throughput_per_s", median(&ibd_rates));
    out.set("latency_p50_ms", median(&latencies) * 1e3);
    out.set("latency_p95_ms", quantile(&latencies, 0.95) * 1e3);
}

/// The traced run: pairs of cycles until the budget is spent, one with
/// bare PoW and one with both nodes' PoW wrapped in [`Counted`]. The
/// first traced cycle gives the per-layer figures and a copy of its store
/// on which `ChainStore::open` and `hashcore_store::rebuild` are timed;
/// the stage runner then runs over part of the chain at 128k
/// instructions.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) {
    let recorder = Recorder::new();
    let bare = HashCorePow::new(hashcore(TARGET_INSTRUCTIONS));
    let counted = Counted::new(bare.clone(), recorder.clone());
    let Some(mut server) = set_up(&counted, seed, out) else {
        return;
    };
    let Some(work) = work_dir(out) else {
        return;
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut plain_ibd, mut traced_ibd, mut restarts) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0.. {
        let dir = work.path().join(format!("plain-{k}"));
        let Some(plain) = cycle(&mut server, bare.clone(), &dir, None, out) else {
            return;
        };
        let _ = fs::remove_dir_all(&dir);

        let dir = work.path().join(format!("traced-{k}"));
        let copy = work.path().join("copy");
        recorder.take();
        let Some(traced) = cycle(
            &mut server,
            counted.clone(),
            &dir,
            (k == 0).then_some(&*copy),
            out,
        ) else {
            return;
        };
        let spans = recorder.take();
        let _ = fs::remove_dir_all(&dir);
        if k == 0 {
            report_cycle(&traced, &spans, thread::current().id(), out);
            recover_copy(&copy, &bare, traced.fingerprint, out);
        }
        plain_ibd.push(plain.ibd.seconds());
        traced_ibd.push(traced.ibd.seconds());
        restarts.push(plain.restart.seconds());
        if Instant::now() >= deadline {
            break;
        }
    }
    out.set("node.restart_s", median(&restarts));
    out.set(
        "bench.wall_throughput_per_s",
        IBD_BLOCKS as f64 / median(&plain_ibd),
    );
    out.set(
        "bench.trace_overhead",
        median(&traced_ibd) / median(&plain_ibd),
    );
    stages(&bare, &server, out);
}

fn report_cycle(cycle: &Cycle, spans: &[PowSpan], caller: thread::ThreadId, out: &mut Outcome) {
    let ibd_blocks = IBD_BLOCKS as f64;
    let evaluations = |window: &Window| window.spans(spans).map(|s| s.evaluations).sum::<u64>();
    let busy_ms = |on_caller: bool| {
        cycle
            .ibd
            .spans(spans)
            .filter(|s| (s.thread == caller) == on_caller)
            .map(PowSpan::seconds)
            .sum::<f64>()
            * 1e3
    };
    let ibd_evals = evaluations(&cycle.ibd);
    out.set(
        "core.ibd_pow_evals_per_block",
        ibd_evals as f64 / ibd_blocks,
    );
    println!(
        "sync-128k: {ibd_evals} PoW evaluations for B = {IBD_BLOCKS} downloaded blocks (2B+2 = {})",
        2 * IBD_BLOCKS + 2
    );
    out.set(
        "chain.ibd_worker_pow_ms_per_block",
        busy_ms(false) / ibd_blocks,
    );
    out.set(
        "net.ibd_caller_pow_ms_per_block",
        busy_ms(true) / ibd_blocks,
    );
    let ibd_spans: Vec<PowSpan> = cycle.ibd.spans(spans).copied().collect();
    out.set(
        "net.ibd_non_pow_share",
        1.0 - cycle.ibd.covered_seconds(&ibd_spans) / cycle.ibd.seconds(),
    );
    out.set(
        "core.relay_pow_evals_per_block",
        evaluations(&cycle.relay) as f64 / RELAY_BLOCKS as f64,
    );
    out.set(
        "core.restart_pow_evals_per_block",
        evaluations(&cycle.restart) as f64 / (IBD_BLOCKS + RELAY_BLOCKS) as f64,
    );
    let all: Vec<f64> = [cycle.ibd, cycle.relay, cycle.restart]
        .iter()
        .flat_map(|w| w.spans(spans).map(PowSpan::seconds).collect::<Vec<_>>())
        .collect();
    out.set(
        "core.pow_ms",
        all.iter().sum::<f64>() / all.len() as f64 * 1e3,
    );
    out.set(
        "net.messages_per_ibd_block",
        cycle.ibd_messages as f64 / ibd_blocks,
    );
    out.set(
        "net.wire_bytes_per_ibd_block",
        cycle.ibd_wire_bytes as f64 / ibd_blocks,
    );
    out.set(
        "store.bytes_written_per_block",
        cycle.store_bytes_written as f64 / (IBD_BLOCKS + RELAY_BLOCKS) as f64,
    );
    out.set(
        "core.allocations_per_ibd_block",
        cycle.ibd_allocations as f64 / ibd_blocks,
    );
}

/// Times `ChainStore::open` and `hashcore_store::rebuild` on the copy of
/// the synced node's store; the rebuilt tree must match the live one.
fn recover_copy(copy: &Path, pow: &HashCorePow, fingerprint: [u8; 32], out: &mut Outcome) {
    let started = Instant::now();
    let opened = ChainStore::open(copy);
    let opened_at = Instant::now();
    let Ok((_store, recovered)) = opened else {
        out.check("store copy reopens", false);
        return;
    };
    let rebuilt = hashcore_store::rebuild(pow.clone(), Some(rule()), &recovered);
    let rebuilt_at = Instant::now();
    out.set("store.open_ms", (opened_at - started).as_secs_f64() * 1e3);
    out.set(
        "chain.restore_ms",
        (rebuilt_at - opened_at).as_secs_f64() * 1e3,
    );
    out.check(
        "rebuild from the store copy gives the synced tree",
        rebuilt.is_ok_and(|(tree, skipped)| skipped == 0 && tree.fingerprint() == fingerprint),
    );
}

/// The stage runner over the first [`STAGE_BLOCKS`] blocks' headers: each
/// stage-by-stage digest must be the block's digest as the pipeline
/// computes it, and a block the server stored.
fn stages<S: NodePow>(pow: &HashCorePow, server: &Server<S>, out: &mut Outcome) {
    let inputs: Vec<Vec<u8>> = server.blocks[..STAGE_BLOCKS]
        .iter()
        .map(|b| b.header.bytes())
        .collect();
    let mut runner = StageRunner::new(pow.inner());
    let mut scratch = HashScratch::new();
    let mut mismatches = 0u64;
    for chunk in inputs.chunks_exact(hashcore::NONCE_LANES) {
        let parts: [[&[u8]; 1]; hashcore::NONCE_LANES] = std::array::from_fn(|i| [&chunk[i][..]]);
        let Ok(digests) = runner.lanes(std::array::from_fn(|i| &parts[i][..])) else {
            mismatches += chunk.len() as u64;
            continue;
        };
        for (input, digest) in chunk.iter().zip(digests) {
            let expected = pow.pow_hash_scratch(input, &mut scratch);
            if digest != expected || !server.node.tree().contains(&digest) {
                mismatches += 1;
            }
        }
    }
    out.attempted += STAGE_BLOCKS as u64;
    out.failed += mismatches;
    out.check(
        format!("{STAGE_BLOCKS} stage-runner block digests equal the pipeline's"),
        mismatches == 0,
    );
    runner.totals.report(out);
}
