//! Cross-rule differential properties of the difficulty rules: for
//! arbitrary header sequences, every [`DifficultyRule`] variant satisfies
//! the shared invariants — per-step saturation bounds, the equivalence of
//! [`DifficultyRule::segment_targets_valid`] with a per-block
//! [`DifficultyRule::committed_child_target`] replay, and the guarantee
//! that `Fixed` and `Ema` are bit-identical to their pre-cost-aware
//! behaviour (version words ignored, admission vacuous).
//!
//! The vendored proptest shim has integer strategies only, so fractional
//! parameters (gains, responses, cost ratios) are drawn as integer
//! percentages and divided down in the body.

use hashcore::Target;
use hashcore_chain::{
    cost_commitment_of, cost_dequantize, cost_quantize, pack_cost_commitment, Block, BlockHeader,
    BranchState, CostAwareRetarget, DifficultyRule, EmaRetarget, COST_COMMIT_ONE,
};
use proptest::prelude::*;

/// Simulated milliseconds between blocks — the unit every generated
/// timestamp gap uses.
const BLOCK_TIME: f64 = 1_000.0;

/// The shared parameter draw for the three rules: `(bits, gain %,
/// cost gain %, response %)`.
type RuleParams = (u32, u32, u32, u32);

fn rule_params() -> (
    std::ops::Range<u32>,
    std::ops::Range<u32>,
    std::ops::Range<u32>,
    std::ops::Range<u32>,
) {
    (4u32..16, 0u32..101, 0u32..101, 50u32..301)
}

fn ema(bits: u32, gain: f64) -> EmaRetarget {
    EmaRetarget {
        initial: Target::from_leading_zero_bits(bits),
        target_block_time: BLOCK_TIME,
        gain,
    }
}

/// The three rule variants built over the same time step, so their
/// behaviours are directly comparable.
fn rules(params: RuleParams) -> [DifficultyRule; 3] {
    let (bits, gain_pct, cost_gain_pct, response_pct) = params;
    let time = ema(bits, f64::from(gain_pct) / 100.0);
    [
        DifficultyRule::Fixed(time.initial),
        DifficultyRule::Ema(time),
        DifficultyRule::CostAware(CostAwareRetarget::new(
            time,
            f64::from(cost_gain_pct) / 100.0,
            f64::from(response_pct) / 100.0,
        )),
    ]
}

fn block_with(version: u32, timestamp: u64, target: Target) -> Block {
    Block {
        header: BlockHeader {
            version,
            prev_hash: [0u8; 32],
            merkle_root: [0u8; 32],
            timestamp,
            target: *target.threshold(),
            nonce: 0,
        },
        transactions: Vec::new(),
    }
}

/// Builds the rule-consistent chain for a sequence of `(gap, cost ratio %)`
/// steps: each block embeds exactly the target the rule expects of it and
/// (under `CostAware`) the commitment the recurrence demands, with each
/// block's observed cost ratio feeding its successor's commitment.
fn build_rule_chain(rule: &DifficultyRule, steps: &[(u64, u32)]) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut parent: Option<BranchState> = None;
    let mut timestamp = 0u64;
    for &(gap, ratio_pct) in steps {
        timestamp += gap;
        let version = rule.expected_child_version(parent.as_ref()).unwrap_or(1);
        let prev = parent.map(|p| (p.target, p.timestamp));
        let expected = rule.committed_child_target(prev, timestamp, version);
        blocks.push(block_with(version, timestamp, expected));
        parent = Some(BranchState {
            target: expected,
            timestamp,
            commitment: cost_commitment_of(version),
            cost_ratio: f64::from(ratio_pct) / 100.0,
        });
    }
    blocks
}

/// Replays [`DifficultyRule::committed_child_target`] block by block — the
/// specification `segment_targets_valid` must agree with.
fn replay_targets_valid(
    rule: &DifficultyRule,
    anchor: Option<(Target, u64)>,
    blocks: &[Block],
) -> bool {
    let mut prev = anchor;
    for block in blocks {
        let expected =
            rule.committed_child_target(prev, block.header.timestamp, block.header.version);
        if block.header.target != *expected.threshold() {
            return false;
        }
        prev = Some((expected, block.header.timestamp));
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every rule accepts the chain built from its own expectations — from
    /// genesis and from any mid-chain anchor — and rejects the same chain
    /// with any one embedded target flipped by a single bit.
    #[test]
    fn every_rule_validates_its_own_chain_and_rejects_a_corrupted_target(
        params in rule_params(),
        steps in prop::collection::vec((0u64..5_000, 0u32..800), 1..10),
        corrupt_at in 0usize..10,
        corrupt_byte in 0usize..32,
    ) {
        for rule in rules(params) {
            let blocks = build_rule_chain(&rule, &steps);
            prop_assert!(rule.segment_targets_valid(None, &blocks));
            // Any suffix validates from its anchor block's (target,
            // timestamp) — the state a synced node hands the verifier.
            for split in 1..blocks.len() {
                let anchor = Some((
                    Target::from_threshold(blocks[split - 1].header.target),
                    blocks[split - 1].header.timestamp,
                ));
                prop_assert!(rule.segment_targets_valid(anchor, &blocks[split..]));
            }
            // Corrupt one embedded target by one bit: the walk must fail.
            let mut bad = blocks.clone();
            let at = corrupt_at % bad.len();
            bad[at].header.target[corrupt_byte] ^= 1;
            prop_assert!(!rule.segment_targets_valid(None, &bad));
        }
    }

    /// `segment_targets_valid` is exactly the per-block
    /// `committed_child_target` replay — on valid chains, corrupted
    /// chains, and arbitrary anchors alike, for every rule.
    #[test]
    fn segment_walk_agrees_with_the_per_block_replay(
        params in rule_params(),
        steps in prop::collection::vec((0u64..5_000, 0u32..800), 1..10),
        corrupt in (any::<bool>(), 0usize..10, 1u8..255),
        anchor in (any::<bool>(), 4u32..16),
    ) {
        for rule in rules(params) {
            let mut blocks = build_rule_chain(&rule, &steps);
            let (do_corrupt, at, bit) = corrupt;
            if do_corrupt {
                let at = at % blocks.len();
                blocks[at].header.target[usize::from(bit) % 32] ^= bit;
            }
            let anchor = anchor.0.then(|| (Target::from_leading_zero_bits(anchor.1), 0u64));
            prop_assert_eq!(
                rule.segment_targets_valid(anchor, &blocks),
                replay_targets_valid(&rule, anchor, &blocks),
            );
        }
    }

    /// Per-step saturation: a child target never moves more than the
    /// clamped factor product away from its parent — ×[1/4, 4] for the
    /// time step alone, ×[1/16, 16] once the cost factor compounds — and
    /// the admission target never leaves `[expected/16, expected]`.
    #[test]
    fn child_and_admission_targets_respect_the_saturation_bounds(
        params in rule_params(),
        parent_bits in 4u32..32,
        parent_ts in 0u64..1_000_000,
        gap in 0u64..100_000,
        q in 1u32..65_536,
        own_ratio_pct in 0u32..100_000,
    ) {
        let parent = Target::from_leading_zero_bits(parent_bits);
        let child_ts = parent_ts + gap;
        let q = q as u16;
        let own_ratio = f64::from(own_ratio_pct) / 100.0;
        let [_, ema_rule, cost_rule] = rules(params);

        let stepped = ema_rule.committed_child_target(Some((parent, parent_ts)), child_ts, 1);
        prop_assert!(*stepped.threshold() >= *parent.scale(0.25).threshold());
        prop_assert!(*stepped.threshold() <= *parent.scale(4.0).threshold());

        let committed = cost_rule.committed_child_target(
            Some((parent, parent_ts)),
            child_ts,
            pack_cost_commitment(q),
        );
        prop_assert!(*committed.threshold() >= *parent.scale(0.25).scale(0.25).threshold());
        prop_assert!(*committed.threshold() <= *parent.scale(4.0).scale(4.0).threshold());

        let cost = cost_rule.cost_aware().expect("built cost-aware");
        let admission = cost.admission_target(committed, own_ratio);
        prop_assert!(*admission.threshold() <= *committed.threshold());
        prop_assert!(
            *admission.threshold()
                >= *committed.scale(CostAwareRetarget::ADMISSION_FLOOR).threshold()
        );
    }

    /// Admission is monotone: a digest admitted at some cost ratio is
    /// admitted at every cheaper ratio, and at ratios ≤ 1 admission is
    /// exactly the expected-target check (no bonus for cheap blocks).
    #[test]
    fn admission_is_monotone_in_the_cost_ratio(
        params in rule_params(),
        expected_bits in 2u32..20,
        digest in prop::array::uniform32(any::<u8>()),
        ratio_a_pct in 0u32..400,
        ratio_b_pct in 0u32..400,
    ) {
        let [_, _, cost_rule] = rules(params);
        let expected = Target::from_leading_zero_bits(expected_bits);
        let (lo, hi) = (
            f64::from(ratio_a_pct.min(ratio_b_pct)) / 100.0,
            f64::from(ratio_a_pct.max(ratio_b_pct)) / 100.0,
        );
        if cost_rule.admits(expected, &digest, hi) {
            prop_assert!(cost_rule.admits(expected, &digest, lo));
        }
        prop_assert_eq!(
            cost_rule.admits(expected, &digest, lo.min(1.0)),
            expected.is_met_by(&digest),
        );
    }

    /// `Fixed` and `Ema` are bit-identical to their pre-cost-aware
    /// behaviour: the version word never feeds their expectations, no
    /// version is ever expected of a child, and admission is vacuous. A
    /// `CostAware` chain pinned at the nominal commitment reproduces the
    /// `Ema` targets exactly.
    #[test]
    fn fixed_and_ema_ignore_the_cost_machinery(
        params in rule_params(),
        parent_bits in 4u32..32,
        parent_ts in 0u64..1_000_000,
        gap in 0u64..100_000,
        version in any::<u32>(),
        digest in prop::array::uniform32(any::<u8>()),
        ratio_pct in 0u32..100_000,
    ) {
        let parent = Target::from_leading_zero_bits(parent_bits);
        let prev = Some((parent, parent_ts));
        let child_ts = parent_ts + gap;
        let ratio = f64::from(ratio_pct) / 100.0;
        let [fixed, ema_rule, cost_rule] = rules(params);
        for rule in [&fixed, &ema_rule] {
            // The embedded version word is dead weight for these rules.
            prop_assert_eq!(
                rule.committed_child_target(prev, child_ts, version),
                rule.committed_child_target(prev, child_ts, 1),
            );
            let nominal_parent = BranchState {
                target: parent,
                timestamp: parent_ts,
                commitment: COST_COMMIT_ONE,
                cost_ratio: ratio,
            };
            prop_assert_eq!(rule.expected_child_version(None), None);
            prop_assert_eq!(rule.expected_child_version(Some(&nominal_parent)), None);
            prop_assert!(rule.admits(parent, &digest, ratio));
        }
        prop_assert_eq!(
            fixed.committed_child_target(prev, child_ts, version),
            Target::from_leading_zero_bits(params.0),
        );
        // CostAware at the nominal commitment is exactly the Ema step.
        prop_assert_eq!(
            cost_rule.committed_child_target(
                prev,
                child_ts,
                pack_cost_commitment(COST_COMMIT_ONE),
            ),
            ema_rule.committed_child_target(prev, child_ts, 1).scale(1.0),
        );
    }

    /// The commitment recurrence stays on the Q8.8 grid: every child
    /// commitment is a valid (non-zero) quantized value, and replaying a
    /// step from its quantized result is bit-exact — the property light
    /// validation relies on.
    #[test]
    fn commitment_recurrence_is_quantized_and_replayable(
        params in rule_params(),
        q in 1u32..65_536,
        ratio_pct in 0u32..25_600,
    ) {
        let [_, _, cost_rule] = rules(params);
        let cost = cost_rule.cost_aware().expect("built cost-aware");
        let q = q as u16;
        let ratio = f64::from(ratio_pct) / 100.0;
        let child = cost.child_commitment(q, ratio);
        prop_assert!(child >= 1);
        prop_assert_eq!(cost_quantize(cost_dequantize(child)), child);
        prop_assert_eq!(cost.child_commitment(q, ratio), child);
    }
}
