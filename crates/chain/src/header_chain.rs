//! Header-only fork choice for light clients.
//!
//! A [`HeaderChain`] keeps bare [`BlockHeader`]s in the same
//! [`HeaderIndex`] a [`ForkTree`](crate::ForkTree) keeps its blocks in, so
//! a light client and a full node holding the same headers run the same
//! fork choice and difficulty rule and select the same tip — the property
//! the light-sync proptest in `hashcore-net` pins down. The caller supplies
//! each header's PoW digest and cost ratio (one hash evaluation, e.g.
//! [`ForkTree::observe`](crate::ForkTree::observe)), which keeps verify CPU
//! per header at one hash plus policy arithmetic.

use crate::block::BlockHeader;
use crate::difficulty::DifficultyRule;
use crate::fork::ForkError;
use crate::index::{HeaderIndex, Inserted};
use hashcore_crypto::Digest256;

/// What [`HeaderChain::accept`] did with a header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderOutcome {
    /// The digest was already stored; nothing changed.
    AlreadyKnown,
    /// Stored on a branch that did not overtake the best tip.
    SideChain,
    /// The header extended or switched the best tip.
    TipChanged {
        /// How many headers left the best chain (0 for a plain extension).
        reorg_depth: u64,
    },
}

/// The state a light client maintains instead of a full
/// [`ForkTree`](crate::ForkTree): a [`HeaderIndex`] of bare headers. Bodies
/// are never seen, so there is no Merkle check here; light clients verify
/// individual transactions against `merkle_root` with batched inclusion
/// proofs.
pub type HeaderChain = HeaderIndex<BlockHeader>;

impl HeaderIndex<BlockHeader> {
    /// Creates an empty chain whose tip is
    /// [`GENESIS_HASH`](crate::GENESIS_HASH). Embedded targets are trusted;
    /// use [`HeaderChain::with_rule`] to enforce a difficulty policy along
    /// every branch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty chain that enforces `rule` along every branch,
    /// exactly as [`ForkTree::with_rule`](crate::ForkTree::with_rule) does
    /// for full blocks.
    pub fn with_rule(rule: DifficultyRule) -> Self {
        let mut chain = Self::default();
        chain.reset(Some(rule));
        chain
    }

    /// Validates and stores a header, advancing the tip if its branch now
    /// carries the most cumulative work. `digest` must be the header's PoW
    /// digest, evaluated by the caller.
    ///
    /// Fork choice is the lexicographic order on `(cumulative work,
    /// digest)`, the same index order
    /// [`ForkTree::apply`](crate::ForkTree::apply) uses, so a light client
    /// and a full node holding the same header set agree on the tip.
    ///
    /// # Errors
    ///
    /// [`ForkError::UnknownParent`] when the parent is not stored (the
    /// client should request the connecting headers), or
    /// [`ForkError::InvalidBlock`] when the digest misses the embedded
    /// target ([`InvalidReason::Pow`](crate::InvalidReason::Pow)) or — on a
    /// rule-enforcing chain — the header fails the [`DifficultyRule`] at
    /// this branch position.
    pub fn accept(
        &mut self,
        header: BlockHeader,
        digest: Digest256,
    ) -> Result<HeaderOutcome, ForkError> {
        self.accept_observed(header, digest, 1.0)
    }

    /// [`HeaderChain::accept`] with the header's observed verifier-cost
    /// ratio (from the same hash evaluation that produced `digest`, e.g.
    /// [`ForkTree::observe`](crate::ForkTree::observe)). Under a cost-aware
    /// rule the ratio drives the commitment recurrence and the per-block
    /// admission bound; other rules ignore it.
    ///
    /// # Errors
    ///
    /// As [`HeaderChain::accept`].
    pub fn accept_observed(
        &mut self,
        header: BlockHeader,
        digest: Digest256,
        cost_ratio: f64,
    ) -> Result<HeaderOutcome, ForkError> {
        Ok(match self.insert(header, digest, cost_ratio)? {
            Inserted::AlreadyKnown => HeaderOutcome::AlreadyKnown,
            Inserted::SideChain => HeaderOutcome::SideChain,
            Inserted::TipChanged { detached, .. } => HeaderOutcome::TipChanged {
                reorg_depth: detached.len() as u64,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::InvalidReason;
    use crate::index::GENESIS_HASH;
    use hashcore::Target;
    use hashcore_baselines::{PowFunction, Sha256dPow};

    /// Mines a header over `prev` that meets an easy (8 leading zero bits)
    /// target, returning the header and its digest.
    fn mine_header(prev: Digest256, timestamp: u64, salt: u8) -> (BlockHeader, Digest256) {
        let mut target = [0u8; 32];
        target[1..].fill(0xff);
        let mut header = BlockHeader {
            version: 1,
            prev_hash: prev,
            merkle_root: [salt; 32],
            timestamp,
            target,
            nonce: 0,
        };
        loop {
            let digest = Sha256dPow.pow_hash(&header.bytes());
            if Target::from_threshold(target).is_met_by(&digest) {
                return (header, digest);
            }
            header.nonce += 1;
        }
    }

    #[test]
    fn accepts_a_linear_chain_and_tracks_the_tip() {
        let mut chain = HeaderChain::new();
        assert!(chain.is_empty());
        assert_eq!(chain.tip(), GENESIS_HASH);
        let mut prev = GENESIS_HASH;
        for height in 1..=5u64 {
            let (header, digest) = mine_header(prev, height * 1_000, height as u8);
            let outcome = chain.accept(header, digest).expect("valid header");
            assert_eq!(outcome, HeaderOutcome::TipChanged { reorg_depth: 0 });
            assert_eq!(chain.tip(), digest);
            assert_eq!(chain.tip_height(), height);
            prev = digest;
        }
        assert_eq!(chain.len(), 5);
        let (repeat, repeat_digest) = mine_header(GENESIS_HASH, 1_000, 1);
        assert_eq!(
            chain.accept(repeat, repeat_digest),
            Ok(HeaderOutcome::AlreadyKnown)
        );
    }

    #[test]
    fn rejects_bad_pow_and_unknown_parents() {
        let mut chain = HeaderChain::new();
        let (header, digest) = mine_header(GENESIS_HASH, 1_000, 1);
        // A digest that misses the embedded target is a PoW failure.
        assert_eq!(
            chain.accept(header.clone(), [0xff; 32]),
            Err(ForkError::InvalidBlock {
                reason: InvalidReason::Pow
            })
        );
        // A child of an unseen parent is an orphan carrying both digests.
        let (orphan, orphan_digest) = mine_header([42u8; 32], 2_000, 2);
        assert_eq!(
            chain.accept(orphan, orphan_digest),
            Err(ForkError::UnknownParent {
                digest: orphan_digest,
                prev_hash: [42u8; 32],
            })
        );
        assert_eq!(
            chain.accept(header, digest).unwrap(),
            HeaderOutcome::TipChanged { reorg_depth: 0 }
        );
    }

    #[test]
    fn fork_choice_is_order_independent_and_reports_reorg_depth() {
        // Two branches over a common first header: a 1-header branch now,
        // a 2-header branch later — applying the longer branch reorgs with
        // depth 1.
        let (root, root_digest) = mine_header(GENESIS_HASH, 1_000, 1);
        let (short, short_digest) = mine_header(root_digest, 2_000, 2);
        let (long_a, long_a_digest) = mine_header(root_digest, 2_500, 3);
        let (long_b, long_b_digest) = mine_header(long_a_digest, 3_000, 4);

        let mut chain = HeaderChain::new();
        chain.accept(root.clone(), root_digest).unwrap();
        chain.accept(short.clone(), short_digest).unwrap();
        assert_eq!(chain.tip(), short_digest);
        assert_eq!(
            chain.accept(long_a.clone(), long_a_digest).unwrap(),
            HeaderOutcome::SideChain
        );
        assert_eq!(
            chain.accept(long_b.clone(), long_b_digest).unwrap(),
            HeaderOutcome::TipChanged { reorg_depth: 1 }
        );
        assert_eq!(chain.tip(), long_b_digest);
        assert_eq!(chain.tip_height(), 3);

        // The same set in a different order selects the same tip.
        let mut other = HeaderChain::new();
        other.accept(root, root_digest).unwrap();
        other.accept(long_a, long_a_digest).unwrap();
        other.accept(long_b, long_b_digest).unwrap();
        other.accept(short, short_digest).unwrap();
        assert_eq!(other.tip(), chain.tip());
        assert_eq!(other.tip_work(), chain.tip_work());
    }

    #[test]
    fn median_time_past_and_locator_match_full_node_shapes() {
        let mut chain = HeaderChain::new();
        let mut prev = GENESIS_HASH;
        let mut digests = Vec::new();
        for height in 1..=9u64 {
            let (header, digest) = mine_header(prev, height * 100, height as u8);
            chain.accept(header, digest).unwrap();
            digests.push(digest);
            prev = digest;
        }
        // MTP over a window of 5 ending at the tip: median of
        // {500,600,700,800,900}.
        assert_eq!(chain.median_time_past(&prev, 5), Some(700));
        assert_eq!(chain.median_time_past(&GENESIS_HASH, 5), None);
        let timestamps = chain.ancestor_timestamps(&prev, 3);
        assert_eq!(timestamps, vec![700, 800, 900]);
        // The locator starts at the tip, ends at genesis, and is sparse.
        let locator = chain.locator();
        assert_eq!(locator.first(), Some(&prev));
        assert_eq!(locator.last(), Some(&GENESIS_HASH));
        assert!(locator.len() < 10);
        assert!(locator.contains(&digests[0]) || locator.len() >= 2);
    }

    #[test]
    fn enforces_a_fixed_rule_on_embedded_targets() {
        let mut easy = [0u8; 32];
        easy[1..].fill(0xff);
        let mut chain = HeaderChain::with_rule(DifficultyRule::Fixed(Target::from_threshold(easy)));
        // The miner in `mine_header` embeds exactly this target.
        let (header, digest) = mine_header(GENESIS_HASH, 1_000, 1);
        chain
            .accept(header, digest)
            .expect("target matches the rule");
        // A header embedding a different (easier) target is rejected by the
        // flat-target policy before any parent lookup.
        let wrong = BlockHeader {
            version: 1,
            prev_hash: chain.tip(),
            merkle_root: [2u8; 32],
            timestamp: 2_000,
            target: [0xff; 32],
            nonce: 0,
        };
        let digest = Sha256dPow.pow_hash(&wrong.bytes());
        assert_eq!(
            chain.accept(wrong, digest),
            Err(ForkError::InvalidBlock {
                reason: InvalidReason::Target
            })
        );
    }
}
