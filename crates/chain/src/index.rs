//! The digest-keyed header index under both fork-choice stores.
//!
//! [`ForkTree`](crate::ForkTree) keeps full blocks in a [`HeaderIndex`],
//! [`HeaderChain`](crate::HeaderChain) bare headers, so fork choice, the
//! reorg walk, the per-child [`DifficultyRule`] step, the timestamp window,
//! locators and the retention root have one implementation for full and
//! light nodes. Callers evaluate proof of work; the index checks the
//! digest they report.

use crate::block::{Block, BlockHeader};
use crate::chain::InvalidReason;
use crate::difficulty::{BranchState, DifficultyRule};
use crate::fork::ForkError;
use hashcore::Target;
use hashcore_crypto::Digest256;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The digest a chain's first block links to: the all-zero "genesis" parent.
pub const GENESIS_HASH: Digest256 = [0u8; 32];

/// Errors returned by [`HeaderIndex::segment_to`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The wanted block is not stored in this tree.
    UnknownBlock {
        /// The digest that was requested.
        want: Digest256,
    },
    /// Every digest the requester knows lies below this tree's pruned
    /// retention window: the connecting segment no longer exists here. The
    /// requester must sync from a peer with deeper history (or from the
    /// retention root itself).
    Pruned {
        /// The oldest block this tree still stores (its retention root).
        root: Digest256,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::UnknownBlock { want } => {
                write!(
                    f,
                    "segment target {} is not stored",
                    hashcore_crypto::hex::encode(want)
                )
            }
            SegmentError::Pruned { root } => {
                write!(
                    f,
                    "segment history below retention root {} has been pruned",
                    hashcore_crypto::hex::encode(root)
                )
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// What a [`HeaderIndex`] stores per digest: a header, with or without the
/// block body it commits to.
pub trait Indexed: Clone {
    /// The stored header.
    fn header(&self) -> &BlockHeader;

    /// `true` when the body matches the header's Merkle commitment —
    /// vacuously for a bare header, whose body is never seen.
    fn body_consistent(&self) -> bool;
}

impl Indexed for Block {
    fn header(&self) -> &BlockHeader {
        &self.header
    }

    fn body_consistent(&self) -> bool {
        self.merkle_consistent()
    }
}

impl Indexed for BlockHeader {
    fn header(&self) -> &BlockHeader {
        self
    }

    fn body_consistent(&self) -> bool {
        true
    }
}

/// One stored item plus its position in the index.
#[derive(Debug, Clone)]
pub(crate) struct Entry<T> {
    pub(crate) item: T,
    pub(crate) height: u64,
    /// Cumulative expected hash attempts from genesis through this item.
    pub(crate) work: f64,
    /// The header's own observed verifier-cost ratio (1.0 for PoW
    /// functions reporting nominal cost). A pure function of the header
    /// bytes, cached from the evaluation the item was inserted with, so
    /// commitment checks and reports never re-execute widgets.
    pub(crate) cost_ratio: f64,
}

/// What [`HeaderIndex::insert`] did with an item. Reorg segments are
/// digests in ascending height; `ForkTree` and `HeaderChain` turn them
/// into what their callers need.
#[derive(Debug)]
pub(crate) enum Inserted {
    /// The digest was already stored; nothing changed.
    AlreadyKnown,
    /// Stored on a branch that did not overtake the best tip.
    SideChain,
    /// The item extended or switched the best tip.
    TipChanged {
        /// Digests that left the best chain (old branch).
        detached: Vec<Digest256>,
        /// Digests that joined it (new branch, ending at the new tip).
        attached: Vec<Digest256>,
    },
}

/// A header store keyed by PoW digest, with cumulative-work fork choice
/// and per-branch [`DifficultyRule`] enforcement. Over bare headers it is
/// the light client's [`HeaderChain`](crate::HeaderChain); over blocks, the
/// read-only view a [`ForkTree`](crate::ForkTree) dereferences to.
///
/// Fork choice is the strict total order on `(cumulative work, digest)`,
/// so the tip depends only on the *set* of stored headers, never on
/// arrival order. Inserting checks, in order: the body against its Merkle
/// commitment (blocks only), a fixed rule's flat target (before the parent
/// lookup, so a wrong-target orphan never triggers a sync), the reported
/// digest against the embedded target, the parent (stored or
/// [`GENESIS_HASH`]), then [`DifficultyRule::check_child`] from the
/// parent's [`BranchState`]. Without a rule, embedded targets are trusted.
#[derive(Debug, Clone)]
pub struct HeaderIndex<T> {
    pub(crate) entries: HashMap<Digest256, Entry<T>>,
    tip: Digest256,
    /// The oldest item every stored branch descends from: [`GENESIS_HASH`]
    /// until the first prune, then the best-chain item at the pruning
    /// cutoff. Backward walks stop here instead of genesis.
    root: Digest256,
    /// Difficulty policy enforced per branch; `None` trusts embedded
    /// targets.
    rule: Option<DifficultyRule>,
}

impl<T> Default for HeaderIndex<T> {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            tip: GENESIS_HASH,
            root: GENESIS_HASH,
            rule: None,
        }
    }
}

impl<T: Indexed> HeaderIndex<T> {
    /// Drops every item and installs `rule`, keeping the map's capacity.
    pub(crate) fn reset(&mut self, rule: Option<DifficultyRule>) {
        self.entries.clear();
        self.tip = GENESIS_HASH;
        self.root = GENESIS_HASH;
        self.rule = rule;
    }

    /// The difficulty rule enforced along every branch, if one was set.
    pub fn rule(&self) -> Option<&DifficultyRule> {
        self.rule.as_ref()
    }

    /// The oldest stored item every branch descends from: [`GENESIS_HASH`]
    /// until the index has been pruned, then the retention root.
    pub fn root(&self) -> Digest256 {
        self.root
    }

    /// Height of the retention root (0 until the index has been pruned).
    pub fn root_height(&self) -> u64 {
        self.height_of(&self.root)
    }

    /// Number of items stored, across every branch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Digest of the best tip ([`GENESIS_HASH`] while empty).
    pub fn tip(&self) -> Digest256 {
        self.tip
    }

    /// Height of the best tip (number of items on the best chain).
    pub fn tip_height(&self) -> u64 {
        self.height_of(&self.tip)
    }

    /// Cumulative expected work of the best chain.
    pub fn tip_work(&self) -> f64 {
        self.work_of(&self.tip)
    }

    /// `true` when an item with this digest is stored.
    pub fn contains(&self, digest: &Digest256) -> bool {
        self.entries.contains_key(digest)
    }

    /// The stored item with this digest, if any.
    pub fn get(&self, digest: &Digest256) -> Option<&T> {
        self.entries.get(digest).map(|e| &e.item)
    }

    /// Height of a stored item (0 for [`GENESIS_HASH`], which "stores" the
    /// empty chain).
    pub fn height_of(&self, digest: &Digest256) -> u64 {
        self.entries.get(digest).map_or(0, |e| e.height)
    }

    /// Cumulative expected work through a stored item (0.0 when the digest
    /// is not stored).
    pub fn work_of(&self, digest: &Digest256) -> f64 {
        self.entries.get(digest).map_or(0.0, |e| e.work)
    }

    /// The observed verifier-cost ratio of a stored item (1.0 when the
    /// digest is not stored).
    pub fn cost_ratio_of(&self, digest: &Digest256) -> f64 {
        self.entries.get(digest).map_or(1.0, |e| e.cost_ratio)
    }

    /// The branch state a child of `digest` is checked against — what
    /// segment verifiers anchor their rule walk at. `None` for
    /// [`GENESIS_HASH`] (a genesis child has no parent state) and for
    /// digests not stored.
    pub fn branch_state(&self, digest: &Digest256) -> Option<BranchState> {
        self.entries
            .get(digest)
            .map(|e| BranchState::of(e.item.header(), e.cost_ratio))
    }

    /// Validates and stores an item whose header's PoW evaluation gave
    /// `digest` and `cost_ratio` (checks as documented on [`HeaderIndex`]),
    /// advancing the tip if its branch now carries the most work.
    pub(crate) fn insert(
        &mut self,
        item: T,
        digest: Digest256,
        cost_ratio: f64,
    ) -> Result<Inserted, ForkError> {
        let invalid = |reason| Err(ForkError::InvalidBlock { reason });
        if self.entries.contains_key(&digest) {
            return Ok(Inserted::AlreadyKnown);
        }
        if !item.body_consistent() {
            return invalid(InvalidReason::Merkle);
        }
        let header = item.header();
        // The branch-independent half of the difficulty policy: a fixed
        // rule's expectation needs no parent, so a wrong-target item is
        // rejected before the orphan path could trigger a segment sync.
        if let Some(flat) = self.rule.as_ref().and_then(DifficultyRule::flat_target) {
            if header.target != *flat.threshold() {
                return invalid(InvalidReason::Target);
            }
        }
        let target = Target::from_threshold(header.target);
        if !target.is_met_by(&digest) {
            return invalid(InvalidReason::Pow);
        }
        let prev = header.prev_hash;
        let parent = if prev == GENESIS_HASH {
            None
        } else {
            match self.entries.get(&prev) {
                Some(parent) => Some(parent),
                None => {
                    return Err(ForkError::UnknownParent {
                        digest,
                        prev_hash: prev,
                    })
                }
            }
        };
        // The branch-aware half: with the parent resolved, the rule's
        // expectation at this exact branch position is computable from
        // headers alone.
        if let Some(rule) = &self.rule {
            let state = parent.map(|p| BranchState::of(p.item.header(), p.cost_ratio));
            if let Err(reason) = rule.check_child(state.as_ref(), header, &digest, cost_ratio) {
                return invalid(reason);
            }
        }
        let (parent_height, parent_work) = parent.map_or((0, 0.0), |p| (p.height, p.work));
        let work = parent_work + target.expected_attempts();
        self.entries.insert(
            digest,
            Entry {
                item,
                height: parent_height + 1,
                work,
                cost_ratio,
            },
        );

        if self.prefers(&digest, work) {
            let (detached, attached) = self.reorg_path(self.tip, digest);
            self.tip = digest;
            Ok(Inserted::TipChanged { detached, attached })
        } else {
            Ok(Inserted::SideChain)
        }
    }

    /// Stores a pruned snapshot's root in an empty index, unchecked, at
    /// its recorded position.
    pub(crate) fn insert_root(
        &mut self,
        digest: Digest256,
        item: T,
        height: u64,
        work: f64,
        cost_ratio: f64,
    ) {
        debug_assert!(self.entries.is_empty(), "the root is stored first");
        self.entries.insert(
            digest,
            Entry {
                item,
                height,
                work,
                cost_ratio,
            },
        );
        self.root = digest;
        self.tip = digest;
    }

    /// The target the [`DifficultyRule`] expects of a child of `parent`
    /// reporting `child_timestamp` — what a miner extending that branch
    /// must embed (and meet). `None` when no rule is enforced or `parent`
    /// is neither stored nor [`GENESIS_HASH`].
    pub fn expected_child_target(
        &self,
        parent: &Digest256,
        child_timestamp: u64,
    ) -> Option<Target> {
        let (rule, state) = self.rule_and_state(parent)?;
        Some(rule.expected_child_target(state.as_ref(), child_timestamp))
    }

    /// The version word the rule expects of a child of `parent` — `Some`
    /// only under a cost-aware rule, where the version carries the branch's
    /// cost commitment; `None` means the plain version 1 (no rule, a rule
    /// without commitments, or `parent` neither stored nor
    /// [`GENESIS_HASH`]).
    pub fn expected_child_version(&self, parent: &Digest256) -> Option<u32> {
        let (rule, state) = self.rule_and_state(parent)?;
        rule.expected_child_version(state.as_ref())
    }

    /// The enforced rule and the branch state of `parent` (`None` state for
    /// [`GENESIS_HASH`]); `None` without a rule or when `parent` is not
    /// stored.
    fn rule_and_state(&self, parent: &Digest256) -> Option<(&DifficultyRule, Option<BranchState>)> {
        let rule = self.rule.as_ref()?;
        if *parent == GENESIS_HASH {
            return Some((rule, None));
        }
        Some((rule, Some(self.branch_state(parent)?)))
    }

    /// Reported timestamps of up to `window` items ending at `digest` (the
    /// item itself and its nearest stored ancestors), oldest first — the
    /// window the median-time-past timestamp-validity rule is computed
    /// over. Empty when `digest` is not stored; the walk stops at the
    /// retention root.
    pub fn ancestor_timestamps(&self, digest: &Digest256, window: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cursor = *digest;
        while out.len() < window {
            let Some(entry) = self.entries.get(&cursor) else {
                break;
            };
            out.push(entry.item.header().timestamp);
            if cursor == self.root {
                break;
            }
            cursor = entry.item.header().prev_hash;
        }
        out.reverse();
        out
    }

    /// Median-time-past: the median of the up-to-`window` reported
    /// timestamps ending at `digest` — the lower bound the
    /// timestamp-validity rule holds children strictly above, so a miner
    /// cannot rewind reported time to re-harden (or re-ease) a branch
    /// retroactively. `None` when `digest` is not stored (a genesis child
    /// has no history to bound).
    pub fn median_time_past(&self, digest: &Digest256, window: usize) -> Option<u64> {
        let mut timestamps = self.ancestor_timestamps(digest, window);
        if timestamps.is_empty() {
            return None;
        }
        timestamps.sort_unstable();
        Some(timestamps[(timestamps.len() - 1) / 2])
    }

    /// `true` when `(work, digest)` beats the current tip in the fork-choice
    /// order.
    fn prefers(&self, digest: &Digest256, work: f64) -> bool {
        if self.tip == GENESIS_HASH {
            return true;
        }
        let tip_work = self.tip_work();
        work > tip_work || (work == tip_work && *digest < self.tip)
    }

    /// Parent digest of a stored item ([`GENESIS_HASH`] stays genesis).
    fn parent_of(&self, digest: &Digest256) -> Digest256 {
        self.entries
            .get(digest)
            .map_or(GENESIS_HASH, |e| e.item.header().prev_hash)
    }

    /// The detached/attached digests of a tip switch from `old` to `new`,
    /// found by walking both branches back to their common ancestor; both
    /// in ascending height.
    fn reorg_path(&self, old: Digest256, new: Digest256) -> (Vec<Digest256>, Vec<Digest256>) {
        let mut detached = Vec::new();
        let mut attached = Vec::new();
        let (mut a, mut b) = (old, new);
        while self.height_of(&a) > self.height_of(&b) {
            detached.push(a);
            a = self.parent_of(&a);
        }
        while self.height_of(&b) > self.height_of(&a) {
            attached.push(b);
            b = self.parent_of(&b);
        }
        while a != b {
            detached.push(a);
            a = self.parent_of(&a);
            attached.push(b);
            b = self.parent_of(&b);
        }
        detached.reverse();
        attached.reverse();
        (detached, attached)
    }

    /// Height of the highest stored item *not* on the best chain — how
    /// close the best runner-up branch gets to the tip. 0 when every stored
    /// item is on the best chain. The adversary harness reports
    /// `tip_height - max_side_branch_height` as the honest tip's safety
    /// margin.
    pub fn max_side_branch_height(&self) -> u64 {
        let on_best: HashSet<Digest256> = self.best_chain_digests().into_iter().collect();
        self.entries
            .iter()
            .filter(|(digest, _)| !on_best.contains(*digest))
            .map(|(_, entry)| entry.height)
            .max()
            .unwrap_or(0)
    }

    /// Best-chain digests from the tip down to the genesis child or the
    /// retention root.
    fn best_chain_digests(&self) -> Vec<Digest256> {
        let mut digests = Vec::new();
        let mut cursor = self.tip;
        while cursor != GENESIS_HASH {
            digests.push(cursor);
            if cursor == self.root {
                break;
            }
            cursor = self.parent_of(&cursor);
        }
        digests
    }

    /// The best chain, oldest first: from the genesis child, or — once the
    /// index has been pruned — from the retention root.
    pub fn best_chain(&self) -> Vec<T> {
        self.best_chain_digests()
            .into_iter()
            .rev()
            .map(|d| self.entries[&d].item.clone())
            .collect()
    }

    /// A Bitcoin-style block locator for the best chain: the tip, then
    /// ancestors at exponentially increasing depth, ending with
    /// [`GENESIS_HASH`]. A peer serving a segment walks back from the wanted
    /// block until it hits one of these digests, so catch-up sync ships
    /// `O(missing)` blocks with an `O(log height)`-sized request.
    pub fn locator(&self) -> Vec<Digest256> {
        let mut out = Vec::new();
        let mut cursor = self.tip;
        let mut step = 1u64;
        while cursor != GENESIS_HASH && cursor != self.root {
            out.push(cursor);
            if out.len() >= 4 {
                step *= 2;
            }
            for _ in 0..step {
                cursor = self.parent_of(&cursor);
                if cursor == GENESIS_HASH || cursor == self.root {
                    break;
                }
            }
        }
        // A pruned index's history bottoms out at its retention root; the
        // trailing genesis digest stays for compatibility (every peer
        // conceptually "knows" the empty chain).
        if cursor == self.root && self.root != GENESIS_HASH {
            out.push(self.root);
        }
        out.push(GENESIS_HASH);
        out
    }

    /// The contiguous segment ending at `want`, walking back until a digest
    /// the requester already `known`s (or genesis), ascending height.
    ///
    /// Returns an empty segment when the requester already knows `want`.
    ///
    /// # Errors
    ///
    /// [`SegmentError::UnknownBlock`] when `want` is not stored;
    /// [`SegmentError::Pruned`] when the connecting segment would have to
    /// reach below the retention root — everything the requester knows lies
    /// under pruned history, so the range is no longer servable. A requester
    /// that knows the root itself *or the root's parent digest* is still
    /// served (the retained history anchors at that parent).
    pub fn segment_to(&self, want: Digest256, known: &[Digest256]) -> Result<Vec<T>, SegmentError> {
        if !self.entries.contains_key(&want) {
            return Err(SegmentError::UnknownBlock { want });
        }
        let mut out = Vec::new();
        let mut cursor = want;
        while cursor != GENESIS_HASH && !known.contains(&cursor) {
            let item = &self.entries[&cursor].item;
            out.push(item.clone());
            let parent = item.header().prev_hash;
            if cursor == self.root && self.root != GENESIS_HASH {
                // The walk hit the retention root. The full retained chain
                // is exactly servable iff the requester knows the root's
                // parent; anything older is gone.
                if known.contains(&parent) {
                    break;
                }
                return Err(SegmentError::Pruned { root: self.root });
            }
            cursor = parent;
        }
        out.reverse();
        Ok(out)
    }

    /// See [`ForkTree::prune`](crate::ForkTree::prune).
    pub(crate) fn prune(&mut self, keep_depth: u64) -> usize {
        let tip_height = self.tip_height();
        if tip_height <= keep_depth || self.tip == GENESIS_HASH {
            return 0;
        }
        let cutoff = tip_height - keep_depth;
        // A widened window cannot bring pruned history back: walking for a
        // root below the current one would step through pruned parents and
        // land on a phantom digest.
        if cutoff <= self.root_height() && self.root != GENESIS_HASH {
            return 0;
        }
        // The new root: the best-chain item at the cutoff height.
        let mut root = self.tip;
        while self.height_of(&root) > cutoff {
            root = self.parent_of(&root);
        }
        // Keep exactly the items whose ancestry stays above the cutoff all
        // the way to the new root; everything else (older history, branches
        // forked below the cutoff) is evicted.
        let mut keep: HashSet<Digest256> = HashSet::with_capacity(self.entries.len());
        keep.insert(root);
        let mut path = Vec::new();
        for digest in self.entries.keys() {
            let mut cursor = *digest;
            path.clear();
            let connected = loop {
                if keep.contains(&cursor) {
                    break true;
                }
                match self.entries.get(&cursor) {
                    Some(entry) if entry.height > cutoff => {
                        path.push(cursor);
                        cursor = entry.item.header().prev_hash;
                    }
                    // Reached the cutoff (or a hole) on a digest that is not
                    // the root: this branch forked below the window.
                    _ => break false,
                }
            };
            if connected {
                keep.extend(path.iter().copied());
            }
        }
        let before = self.entries.len();
        self.entries.retain(|digest, _| keep.contains(digest));
        self.root = root;
        before - self.entries.len()
    }
}
