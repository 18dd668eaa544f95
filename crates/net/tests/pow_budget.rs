//! Per-node PoW budget: how many proof-of-work evaluations each node path
//! pays, counted by a [`PreparedPow`] wrapper around double SHA-256.
//!
//! A HashCore evaluation is a full widget run, so every evaluation a
//! verifying node repeats doubles its bill. The budget pinned here:
//!
//! | path | evaluations |
//! |---|---|
//! | segment sync of B blocks | B + 2 (orphan announcement, terminal digest, one per block) |
//! | relayed block | 1 |
//! | locally mined block | the nonce scan + 1 (the winning seed's cost observation) |
//! | `crash_restart` | 1 per replayed block |

use hashcore::{MiningInput, Target, VerifyCost};
use hashcore_baselines::{PowFunction, PreparedPow, ResourceClass, Sha256dPow};
use hashcore_chain::{Block, CostAwareRetarget, DifficultyRule, EmaRetarget};
use hashcore_crypto::Digest256;
use hashcore_net::{Message, Node, Outgoing};
use hashcore_store::{tempdir::TempDir, ChainStore};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Evaluations one [`Counting`] adaptor (and its clones) performed.
#[derive(Debug, Default)]
struct Counts {
    /// Single-header evaluations (`pow_hash*` calls).
    single: AtomicU64,
    /// Nonces evaluated by scans.
    scanned: AtomicU64,
}

/// Double SHA-256 with every evaluation counted.
#[derive(Debug, Clone, Default)]
struct Counting {
    counts: Arc<Counts>,
}

impl Counting {
    fn single(&self) -> u64 {
        self.counts.single.load(Ordering::Relaxed)
    }

    fn scanned(&self) -> u64 {
        self.counts.scanned.load(Ordering::Relaxed)
    }

    fn count_single(&self) {
        self.counts.single.fetch_add(1, Ordering::Relaxed);
    }
}

impl PowFunction for Counting {
    fn name(&self) -> &'static str {
        "counting-sha256d"
    }

    fn pow_hash(&self, input: &[u8]) -> Digest256 {
        self.count_single();
        Sha256dPow.pow_hash(input)
    }

    fn dominant_resource(&self) -> ResourceClass {
        Sha256dPow.dominant_resource()
    }
}

impl PreparedPow for Counting {
    type Scratch = ();

    fn pow_hash_scratch(&self, input: &[u8], scratch: &mut ()) -> Digest256 {
        self.count_single();
        Sha256dPow.pow_hash_scratch(input, scratch)
    }

    fn scan_nonces(
        &self,
        input: &mut MiningInput,
        target: Target,
        start: u64,
        attempts: u64,
        scratch: &mut (),
    ) -> Option<(u64, Digest256)> {
        let hit = Sha256dPow.scan_nonces(input, target, start, attempts, scratch);
        let scanned = hit.map_or(attempts, |(nonce, _)| nonce.wrapping_sub(start) + 1);
        self.counts.scanned.fetch_add(scanned, Ordering::Relaxed);
        hit
    }

    fn pow_hash_cost_scratch(&self, input: &[u8], scratch: &mut ()) -> (Digest256, VerifyCost) {
        self.count_single();
        Sha256dPow.pow_hash_cost_scratch(input, scratch)
    }
}

fn cost_aware() -> DifficultyRule {
    let time = EmaRetarget::new(Target::from_leading_zero_bits(4), 1_000.0, 0.5);
    DifficultyRule::CostAware(CostAwareRetarget::new(time, 0.5, 1.0))
}

/// A node under `rule` (`None`: the fixed default at 4 leading zero bits).
fn node(
    id: usize,
    pow: Counting,
    sync_threads: usize,
    rule: Option<DifficultyRule>,
) -> Node<Counting> {
    let node = Node::new(id, pow, Target::from_leading_zero_bits(4), sync_threads);
    match rule {
        Some(rule) => node.with_difficulty(rule, None),
        None => node,
    }
}

/// Mines one block on `node` at `now_ms`, returning it.
fn mine_one(node: &mut Node<Counting>, now_ms: u64) -> Block {
    for _ in 0..10_000 {
        let out = node.mine_slice(now_ms, 64);
        if let Some(block) = out.into_iter().find_map(|o| match o {
            Outgoing::Broadcast(Message::Block(block)) => Some(block),
            _ => None,
        }) {
            return block;
        }
    }
    panic!("no block found at 4 leading zero bits");
}

/// Delivers `first` to `client` and routes every `Outgoing::To` the two
/// nodes send each other until the exchange is quiet.
fn exchange(server: &mut Node<Counting>, client: &mut Node<Counting>, now_ms: u64, first: Message) {
    let (server_id, client_id) = (server.id(), client.id());
    let mut queue = VecDeque::from([(client_id, server_id, first)]);
    while let Some((to, from, message)) = queue.pop_front() {
        let sent = if to == client_id {
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
}

/// A server that mined `blocks` blocks, one per simulated second; returns
/// it with the time after its last block.
fn server_with(blocks: usize, rule: Option<DifficultyRule>) -> (Node<Counting>, u64) {
    let mut server = node(0, Counting::default(), 1, rule);
    let mut now_ms = 1_000;
    for _ in 0..blocks {
        mine_one(&mut server, now_ms);
        now_ms += 1_000;
    }
    (server, now_ms)
}

#[test]
fn segment_sync_costs_one_evaluation_per_block_plus_two() {
    const B: usize = 12;
    for rule in [None, Some(cost_aware())] {
        let (mut server, now_ms) = server_with(B, rule);
        let announce = Message::Block(server.tree().tip_block().cloned().expect("mined"));
        for threads in [1, 2, 3] {
            let pow = Counting::default();
            let mut client = node(1, pow.clone(), threads, rule);
            exchange(&mut server, &mut client, now_ms, announce.clone());
            assert_eq!(
                client.tip(),
                server.tip(),
                "rule {rule:?}, {threads} threads"
            );
            assert_eq!(client.stats().segments_synced, 1);
            // The orphan announcement, the terminal digest, then one
            // verifier evaluation per block — the tree reuses the
            // verifier's observations instead of hashing again.
            assert_eq!(
                pow.single(),
                B as u64 + 2,
                "rule {rule:?}, {threads} threads"
            );
            assert_eq!(pow.scanned(), 0, "a syncing node never scans");
        }
    }
}

#[test]
fn relayed_block_costs_one_evaluation() {
    for rule in [None, Some(cost_aware())] {
        let (mut server, mut now_ms) = server_with(4, rule);
        let pow = Counting::default();
        let mut client = node(1, pow.clone(), 2, rule);
        let announce = Message::Block(server.tree().tip_block().cloned().expect("mined"));
        exchange(&mut server, &mut client, now_ms, announce);
        for _ in 0..5 {
            let block = mine_one(&mut server, now_ms);
            now_ms += 1_000;
            let before = pow.single();
            client.handle(now_ms, 0, Message::Block(block.clone()));
            assert_eq!(client.tree().tip_block(), Some(&block));
            assert_eq!(pow.single() - before, 1, "rule {rule:?}");
        }
    }
}

#[test]
fn mined_block_costs_its_scan_plus_one_evaluation() {
    // The fixed rule admits every seed that meets the target, so each
    // scan hit is re-derived exactly once and then stored with that
    // same observation.
    let pow = Counting::default();
    let mut miner = node(0, pow.clone(), 1, None);
    for k in 1..=6u64 {
        let scanned_before = pow.scanned();
        mine_one(&mut miner, 1_000 * k);
        assert_eq!(miner.tip_height(), k);
        assert_eq!(pow.single(), k, "one re-derivation per mined block");
        assert!(pow.scanned() > scanned_before, "the block came from a scan");
    }

    // Under the cost-aware rule a scan hit can be inadmissible; every
    // re-derivation is either such a rejected seed or the mined block.
    let pow = Counting::default();
    let mut miner = node(0, pow.clone(), 1, Some(cost_aware()));
    for k in 1..=6u64 {
        mine_one(&mut miner, 1_000 * k);
    }
    assert_eq!(miner.stats().blocks_mined, 6);
    assert_eq!(pow.single(), 6 + miner.stats().seeds_inadmissible);
}

#[test]
fn crash_restart_costs_one_evaluation_per_replayed_block() {
    for snapshot_interval in [0, 4] {
        let dir = TempDir::new("pow-budget").expect("temp dir");
        let store = ChainStore::create(dir.path()).expect("store");
        let pow = Counting::default();
        let mut node =
            node(0, pow.clone(), 1, Some(cost_aware())).with_persistence(store, snapshot_interval);
        for k in 1..=10u64 {
            mine_one(&mut node, 1_000 * k);
        }
        let fingerprint = node.tree().fingerprint();
        let (single, scanned) = (pow.single(), pow.scanned());
        node.crash_restart().expect("restart");
        assert_eq!(node.tree().fingerprint(), fingerprint);
        assert_eq!(
            pow.single() - single,
            10,
            "snapshot interval {snapshot_interval}"
        );
        assert_eq!(pow.scanned(), scanned, "restart never scans");
    }
}
