//! The segment verifiers' PoW observations against their oracles.
//!
//! Segment sync stores each block with the `(digest, cost ratio)` the
//! verifier already computed instead of hashing it again, so the
//! observations themselves become consensus inputs. Over random segments —
//! valid, or carrying one [`Corruption`] at a random height — with and
//! without a cost-aware rule (whose initial target is a power of two or
//! not), at 1, 2 and 3 threads:
//!
//! - the verdict equals the naive one: [`validate_segment`] without a
//!   rule, block-by-block [`ForkTree::apply`] with one;
//! - sequential and parallel observations are bit-identical;
//! - a tree filled through [`ForkTree::apply_observed`] has the same
//!   fingerprint and per-block cost ratios as one filled through `apply`;
//! - an observation made for a different header is refused.

use hashcore::Target;
use hashcore_baselines::{PowFunction, Sha256dPow};
use hashcore_chain::{
    cost_commitment_of, validate_segment, validate_segment_parallel_with_rule,
    validate_segment_with_rule, Block, BlockHeader, BranchState, ChainError, CostAwareRetarget,
    DifficultyRule, EmaRetarget, ForkError, ForkTree, InvalidReason, PowObservation, RuleContext,
    GENESIS_HASH,
};
use hashcore_crypto::Digest256;
use hashcore_net::Corruption;
use proptest::prelude::*;
use std::panic::{self, AssertUnwindSafe};

fn ema(initial: Target) -> EmaRetarget {
    EmaRetarget::new(initial, 1_000.0, 0.5)
}

/// The rule under test: plain EMA, or cost-aware over a power-of-two or a
/// non-power-of-two initial target. The latter is the case where scaling
/// the genesis target by a factor of 1.0 through `f64` changes it.
fn rule(pick: usize) -> DifficultyRule {
    let pow2 = Target::from_leading_zero_bits(4);
    let mut uneven = [0xFF; 32];
    uneven[0] = 0x0F;
    match pick {
        0 => DifficultyRule::Ema(ema(pow2)),
        1 => DifficultyRule::CostAware(CostAwareRetarget::new(ema(pow2), 0.5, 1.0)),
        _ => DifficultyRule::CostAware(CostAwareRetarget::new(
            ema(Target::from_threshold(uneven)),
            0.5,
            1.0,
        )),
    }
}

/// Mines a rule-consistent chain of `gaps.len()` blocks, one transaction
/// each, with the given timestamp gaps.
fn mine_chain(rule: DifficultyRule, gaps: &[u64]) -> Vec<Block> {
    let mut tree = ForkTree::with_rule(Sha256dPow, rule);
    let (mut parent, mut timestamp) = (GENESIS_HASH, 1_000_000);
    let mut blocks = Vec::new();
    for (i, gap) in gaps.iter().enumerate() {
        timestamp += gap;
        let expected = tree
            .expected_child_target(&parent, timestamp)
            .expect("the parent is stored");
        let transactions = vec![format!("tx-{i}").into_bytes()];
        let mut header = BlockHeader {
            version: tree.expected_child_version(&parent).unwrap_or(1),
            prev_hash: parent,
            merkle_root: Block::merkle_root(&transactions),
            timestamp,
            target: *expected.threshold(),
            nonce: 0,
        };
        loop {
            let observation = tree.observe(&header);
            let digest = observation.digest();
            if expected.is_met_by(&digest)
                && rule.admits(expected, &digest, observation.cost_ratio())
            {
                break;
            }
            header.nonce += 1;
        }
        let block = Block {
            header,
            transactions,
        };
        parent = tree
            .apply(block.clone())
            .expect("mined to the rule")
            .digest();
        blocks.push(block);
    }
    blocks
}

fn digest(header: &BlockHeader) -> Digest256 {
    Sha256dPow.pow_hash(&header.bytes())
}

fn meets_target(header: &BlockHeader) -> bool {
    Target::from_threshold(header.target).is_met_by(&digest(header))
}

/// Applies `class` to `segment[at]`. Header corruptions other than
/// `BadPow` re-grind the nonce so the block still meets its own target,
/// as an adversary would, so each block breaks exactly one check.
fn corrupt(segment: &mut [Block], at: usize, class: Corruption) {
    let header = &mut segment[at].header;
    match class {
        Corruption::BadPow => {
            while meets_target(header) {
                header.nonce += 1;
            }
            return;
        }
        Corruption::BrokenPrevLink => header.prev_hash = [0xBB; 32],
        Corruption::WrongTarget => header.target = [0xFF; 32],
        Corruption::BadMerkle => {
            segment[at].transactions[0].push(b'!');
            return;
        }
    }
    while !meets_target(header) {
        header.nonce += 1;
    }
}

/// A tree holding `prefix`, applied block by block.
fn tree_with(rule: DifficultyRule, prefix: &[Block]) -> ForkTree<Sha256dPow> {
    let mut tree = ForkTree::with_rule(Sha256dPow, rule);
    for block in prefix {
        tree.apply(block.clone()).expect("the prefix is valid");
    }
    tree
}

/// The naive rule-aware verdict: the blocks applied one at a time, each
/// hashed by the tree itself. An unknown parent is a broken link.
fn apply_verdict(tree: &mut ForkTree<Sha256dPow>, segment: &[Block]) -> Result<(), ChainError> {
    for (height, block) in segment.iter().enumerate() {
        let reason = match tree.apply(block.clone()) {
            Ok(_) => continue,
            Err(ForkError::UnknownParent { .. }) => InvalidReason::Linkage,
            Err(ForkError::InvalidBlock { reason }) => reason,
        };
        return Err(ChainError::InvalidBlock { height, reason });
    }
    Ok(())
}

fn bits(observations: &[PowObservation]) -> Vec<(Digest256, u64)> {
    observations
        .iter()
        .map(|o| (o.digest(), o.cost_ratio().to_bits()))
        .collect()
}

/// `true` when `f` returns `Err` or panics; the panic's message is kept
/// off the test output.
fn refused(f: impl FnOnce() -> Result<(), ForkError>) -> bool {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    panic::set_hook(hook);
    !matches!(outcome, Ok(Ok(())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn verifier_observations_match_their_oracles(
        rule_pick in 0usize..3,
        gaps in prop::collection::vec(700u64..1_400, 3..18),
        prefix_pick in 0usize..64,
        class_pick in 0usize..5,
        at_pick in 0usize..64,
    ) {
        let rule = rule(rule_pick);
        let cost_aware = rule.cost_aware().is_some();
        let chain = mine_chain(rule, &gaps);
        let prefix_len = prefix_pick % (chain.len() / 2 + 1);
        let (prefix, segment) = chain.split_at(prefix_len);
        let mut segment = segment.to_vec();
        if let Some(&class) = Corruption::ALL.get(class_pick) {
            let at = at_pick % segment.len();
            corrupt(&mut segment, at, class);
        }

        let tree = tree_with(rule, prefix);
        let anchor = prefix.last().map_or(GENESIS_HASH, |b| digest(&b.header));
        let ctx = cost_aware.then(|| RuleContext {
            rule: &rule,
            anchor: prefix.last().map(|b| BranchState {
                target: Target::from_threshold(b.header.target),
                timestamp: b.header.timestamp,
                commitment: cost_commitment_of(b.header.version),
                cost_ratio: tree.cost_ratio_of(&anchor),
            }),
        });

        let sequential = validate_segment_with_rule(&Sha256dPow, &segment, anchor, ctx);
        let naive = if cost_aware {
            apply_verdict(&mut tree_with(rule, prefix), &segment)
        } else {
            validate_segment(&Sha256dPow, &segment, anchor)
        };
        prop_assert_eq!(sequential.clone().map(drop), naive);
        for threads in 1..=3 {
            let parallel =
                validate_segment_parallel_with_rule(&Sha256dPow, &segment, threads, anchor, ctx);
            prop_assert_eq!(
                parallel.as_ref().map(|o| bits(o)).map_err(Clone::clone),
                sequential.as_ref().map(|o| bits(o)).map_err(Clone::clone)
            );
        }

        let Ok(observations) = sequential else {
            return Ok(());
        };
        prop_assert_eq!(observations.len(), segment.len());
        let mut observed = tree_with(rule, prefix);
        let mut hashed = tree_with(rule, prefix);
        for (block, observation) in segment.iter().zip(&observations) {
            let via_observation = observed.apply_observed(block.clone(), observation.clone());
            prop_assert_eq!(via_observation, hashed.apply(block.clone()));
        }
        prop_assert_eq!(observed.fingerprint(), hashed.fingerprint());
        for observation in &observations {
            let digest = observation.digest();
            prop_assert_eq!(
                observed.cost_ratio_of(&digest).to_bits(),
                hashed.cost_ratio_of(&digest).to_bits()
            );
        }

        if segment.len() >= 2 {
            let mut tree = tree_with(rule, prefix);
            let foreign = observations[1].clone();
            let block = segment[0].clone();
            prop_assert!(
                refused(|| tree.apply_observed(block, foreign).map(drop)),
                "an observation of another header must be refused"
            );
        }
    }
}
