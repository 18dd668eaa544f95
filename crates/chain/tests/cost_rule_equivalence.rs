//! Full-node / light-client equivalence under the cost-aware rule: a
//! [`ForkTree`] and a [`HeaderChain`] enforcing the same
//! [`DifficultyRule::CostAware`] accept and reject *exactly* the same
//! header sequence — valid extensions, forks, wrong commitments, wrong
//! targets, and expensive-but-inadmissible seeds alike — and agree on the
//! tip after every step.
//!
//! Both types wrap one `HeaderIndex` and run one child-rule step
//! ([`DifficultyRule::check_child`]), so they agree by construction; this
//! suite is the end-to-end oracle for that sharing. It drives both public
//! entry points — `ForkTree::apply` hashing a block, `HeaderChain` fed the
//! `(digest, cost ratio)` observation of one hash evaluation — so a change
//! that lets the two paths diverge again (a check moved into one wrapper,
//! an observation read differently) fails here.

use hashcore::Target;
use hashcore_baselines::Sha256dPow;
use hashcore_chain::{
    ApplyOutcome, Block, BlockHeader, CostAwareRetarget, DifficultyRule, EmaRetarget, ForkError,
    ForkTree, HeaderChain, HeaderOutcome, GENESIS_HASH,
};
use hashcore_crypto::Digest256;

fn cost_rule() -> DifficultyRule {
    DifficultyRule::CostAware(CostAwareRetarget::new(
        EmaRetarget {
            initial: Target::from_leading_zero_bits(2),
            target_block_time: 1_000.0,
            gain: 0.5,
        },
        0.5,
        2.0,
    ))
}

/// The shared shape of one validator's verdict, for cross-checking.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    AlreadyKnown,
    SideChain,
    TipChanged { reorg_depth: u64 },
    Rejected(ForkError),
}

fn tree_verdict(outcome: Result<ApplyOutcome, ForkError>) -> Verdict {
    match outcome {
        Ok(ApplyOutcome::AlreadyKnown { .. }) => Verdict::AlreadyKnown,
        Ok(ApplyOutcome::SideChain { .. }) => Verdict::SideChain,
        Ok(ApplyOutcome::TipChanged { reorg, .. }) => Verdict::TipChanged {
            reorg_depth: reorg.depth() as u64,
        },
        Err(err) => Verdict::Rejected(err),
    }
}

fn header_verdict(outcome: Result<HeaderOutcome, ForkError>) -> Verdict {
    match outcome {
        Ok(HeaderOutcome::AlreadyKnown) => Verdict::AlreadyKnown,
        Ok(HeaderOutcome::SideChain) => Verdict::SideChain,
        Ok(HeaderOutcome::TipChanged { reorg_depth }) => Verdict::TipChanged { reorg_depth },
        Err(err) => Verdict::Rejected(err),
    }
}

/// Both validators under the same cost-aware rule, stepped in lockstep.
struct Twins {
    tree: ForkTree<Sha256dPow>,
    headers: HeaderChain,
}

impl Twins {
    fn new() -> Self {
        Self {
            tree: ForkTree::with_rule(Sha256dPow, cost_rule()),
            headers: HeaderChain::with_rule(cost_rule()),
        }
    }

    /// Feeds one header to both validators and asserts they agree on the
    /// verdict and on the resulting tip. `expect` pins the verdict where
    /// the scenario makes it deterministic by construction; `None` checks
    /// equivalence alone (fork-choice work under a cost-aware rule depends
    /// on the mined cost factors, which this test does not script).
    /// Returns the header's digest.
    fn feed(&mut self, header: BlockHeader, expect: Option<Verdict>) -> Digest256 {
        let observation = self.tree.observe(&header);
        let (digest, cost_ratio) = (observation.digest(), observation.cost_ratio());
        let from_tree = tree_verdict(self.tree.apply(Block {
            header: header.clone(),
            transactions: Vec::new(),
        }));
        let from_headers = header_verdict(self.headers.accept_observed(header, digest, cost_ratio));
        assert_eq!(from_tree, from_headers, "validators disagree on a header");
        if let Some(expect) = expect {
            assert_eq!(from_tree, expect, "unexpected verdict");
        }
        assert_eq!(self.tree.tip(), self.headers.tip(), "tips diverge");
        assert_eq!(self.tree.tip_height(), self.headers.tip_height());
        digest
    }

    /// Mines a rule-consistent child of `parent`: the expected version and
    /// target from the full node's branch state (which `feed` asserts the
    /// light chain shares), with the nonce search skipping seeds the
    /// admission bound rejects.
    fn mine_admissible_child(&mut self, parent: Digest256, timestamp: u64) -> BlockHeader {
        let version = self
            .tree
            .expected_child_version(&parent)
            .expect("cost-aware rules always expect a version");
        let expected = self
            .tree
            .expected_child_target(&parent, timestamp)
            .expect("parent is stored");
        let rule = cost_rule();
        let mut header = BlockHeader {
            version,
            prev_hash: parent,
            merkle_root: Block::merkle_root(&[]),
            timestamp,
            target: *expected.threshold(),
            nonce: 0,
        };
        loop {
            let observation = self.tree.observe(&header);
            let (digest, cost_ratio) = (observation.digest(), observation.cost_ratio());
            if expected.is_met_by(&digest) && rule.admits(expected, &digest, cost_ratio) {
                return header;
            }
            header.nonce += 1;
        }
    }

    /// Mines a child that meets the expected target but *fails* the
    /// admission bound — an expensive-to-verify seed a steering miner
    /// would publish. Both validators must reject it identically.
    fn mine_inadmissible_child(&mut self, parent: Digest256, timestamp: u64) -> BlockHeader {
        let version = self
            .tree
            .expected_child_version(&parent)
            .expect("cost-aware rules always expect a version");
        let expected = self
            .tree
            .expected_child_target(&parent, timestamp)
            .expect("parent is stored");
        let rule = cost_rule();
        let mut header = BlockHeader {
            version,
            prev_hash: parent,
            merkle_root: Block::merkle_root(&[]),
            timestamp,
            target: *expected.threshold(),
            nonce: 0,
        };
        loop {
            let observation = self.tree.observe(&header);
            let (digest, cost_ratio) = (observation.digest(), observation.cost_ratio());
            if expected.is_met_by(&digest) && !rule.admits(expected, &digest, cost_ratio) {
                return header;
            }
            header.nonce += 1;
        }
    }
}

#[test]
fn fork_tree_and_header_chain_agree_on_a_cost_aware_chain() {
    let mut twins = Twins::new();

    // A linear chain with uneven gaps, so targets and commitments move.
    let mut parent = GENESIS_HASH;
    for (i, gap) in [900u64, 2_400, 300, 1_100, 1_000].iter().enumerate() {
        let timestamp = (i as u64 + 1) * 1_000 + gap;
        let header = twins.mine_admissible_child(parent, timestamp);
        parent = twins.feed(header, Some(Verdict::TipChanged { reorg_depth: 0 }));
    }
    let main_tip = parent;

    // Replaying the tip is AlreadyKnown on both sides.
    let replay = twins
        .tree
        .block(&main_tip)
        .expect("tip is stored")
        .header
        .clone();
    twins.feed(replay, Some(Verdict::AlreadyKnown));

    // A fork two blocks back, growing its own commitments: whether each
    // fork block lands as a side chain or reorgs the tip depends on the
    // mined cost factors, so the pin here is pure equivalence — both
    // validators hand down the same verdict and the same tip at every
    // step (which `feed` asserts).
    let fork_base = twins
        .tree
        .block(&main_tip)
        .map(|b| b.header.prev_hash)
        .and_then(|d| twins.tree.block(&d).map(|b| b.header.prev_hash))
        .expect("chain is 5 long");
    let fork_a = twins.mine_admissible_child(fork_base, 9_000);
    let fork_a_digest = twins.feed(fork_a, None);
    let fork_b = twins.mine_admissible_child(fork_a_digest, 10_500);
    let fork_b_digest = twins.feed(fork_b, None);
    let fork_c = twins.mine_admissible_child(fork_b_digest, 11_000);
    let fork_c_digest = twins.feed(fork_c, None);
    assert!(twins.tree.contains(&fork_c_digest));
    assert!(twins.headers.contains(&fork_c_digest));
}

#[test]
fn fork_tree_and_header_chain_reject_the_same_invalid_headers() {
    let mut twins = Twins::new();
    let mut parent = GENESIS_HASH;
    for i in 0..3u64 {
        let header = twins.mine_admissible_child(parent, (i + 1) * 1_000);
        parent = twins.feed(header, Some(Verdict::TipChanged { reorg_depth: 0 }));
    }

    // A wrong cost commitment (right base version, wrong high bits) is a
    // Target rejection before the expected-target comparison runs. The
    // version word is hashed, so re-mine the PoW against the embedded
    // target to make the failure unambiguously the commitment.
    let mut wrong_commit = twins.mine_admissible_child(parent, 4_000);
    wrong_commit.version = wrong_commit.version.wrapping_add(1 << 16);
    let embedded = Target::from_threshold(wrong_commit.target);
    loop {
        let digest = twins.tree.observe(&wrong_commit).digest();
        if embedded.is_met_by(&digest) {
            break;
        }
        wrong_commit.nonce += 1;
    }
    twins.feed(
        wrong_commit,
        Some(Verdict::Rejected(ForkError::InvalidBlock {
            reason: hashcore_chain::InvalidReason::Target,
        })),
    );

    // A stale embedded target (the parent's instead of the expected one)
    // is a Target rejection on both sides — if its digest still meets it.
    let expected = twins
        .tree
        .expected_child_target(&parent, 4_000)
        .expect("parent is stored");
    let stale = twins
        .tree
        .block(&parent)
        .expect("parent is stored")
        .header
        .target;
    if stale != *expected.threshold() {
        let mut wrong_target = twins.mine_admissible_child(parent, 4_000);
        wrong_target.target = stale;
        // Re-mine the PoW against the (stale) embedded target so the
        // failure is unambiguously the policy, not the hash.
        loop {
            let digest = twins.tree.observe(&wrong_target).digest();
            if Target::from_threshold(stale).is_met_by(&digest) {
                break;
            }
            wrong_target.nonce += 1;
        }
        twins.feed(
            wrong_target,
            Some(Verdict::Rejected(ForkError::InvalidBlock {
                reason: hashcore_chain::InvalidReason::Target,
            })),
        );
    }

    // An expensive seed that meets the target but fails the admission
    // bound is a Pow rejection on both sides.
    let inadmissible = twins.mine_inadmissible_child(parent, 4_000);
    twins.feed(
        inadmissible,
        Some(Verdict::Rejected(ForkError::InvalidBlock {
            reason: hashcore_chain::InvalidReason::Pow,
        })),
    );

    // An orphan (unknown parent) reports the same digests from both.
    let orphan = BlockHeader {
        version: 1,
        prev_hash: [0x77; 32],
        merkle_root: Block::merkle_root(&[]),
        timestamp: 5_000,
        target: [0xFF; 32],
        nonce: 0,
    };
    let digest = twins.tree.observe(&orphan).digest();
    twins.feed(
        orphan,
        Some(Verdict::Rejected(ForkError::UnknownParent {
            digest,
            prev_hash: [0x77; 32],
        })),
    );

    // The valid chain still extends after every rejection.
    let next = twins.mine_admissible_child(parent, 4_000);
    twins.feed(next, Some(Verdict::TipChanged { reorg_depth: 0 }));
}
