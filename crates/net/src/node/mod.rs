//! A simulated node: fork tree, resumable miner, gossip and segment sync —
//! with behaviour delegated to a [`Strategy`](crate::strategy::Strategy)
//! and hardened against the adversarial ones.
//!
//! Split by concern: [`core`](self) holds the node state machine, builders
//! and hardening policy; `miner` the resumable nonce-scanning loop; `sync`
//! the orphan/segment request machinery; `serve` the responder paths
//! (segments, headers and batched Merkle proofs); `light` the header-first
//! light-client role; and `stats` the per-node counters every report
//! aggregates.

use hashcore_chain::Block;
use hashcore_crypto::Digest256;

mod core;
mod light;
mod miner;
mod serve;
mod stats;
mod sync;
#[cfg(test)]
mod tests;

pub use self::core::Node;
pub use light::LightConfig;
pub use stats::{NodeStats, RejectionCounts, SyncReorg};

/// Most headers a full node packs into one `Headers` response. A light
/// client receiving a full batch immediately requests the next one, so a
/// deep catch-up streams in bounded messages instead of one unbounded
/// reply.
pub const MAX_HEADERS_PER_MSG: usize = 256;

/// What a node does on the network: full validation or header-first light
/// sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// Mines, validates bodies, serves segments, headers and proofs.
    #[default]
    Full,
    /// Maintains a header chain only: syncs headers first, verifies
    /// transactions of interest against batched Merkle inclusion proofs
    /// served by full nodes, and never executes block bodies.
    Light,
}

/// Re-requests a node attempts after its first segment request stalls
/// before it abandons the orphan.
const MAX_SYNC_RETRIES: u32 = 3;

/// Easiest embedded target an unknown-parent (orphan) announcement may
/// claim, relative to the local tip's target, before an adaptive-rule node
/// refuses to spend sync effort on it: three retarget clamp steps
/// (4³ = 64×). Spam minted at a near-free target fails the floor and is
/// dropped instead of buying a PoW evaluation plus a request/timeout/retry
/// cycle per message. The drop is deliberately *penalty-free*: after a
/// long partition an honest side's branch can legitimately ease beyond
/// the slack, and its re-announcements must not get honest relayers
/// banned — ignoring them is convergence-safe because a heavier
/// (harder-target) competing chain always passes the floor, so the
/// heavier side's chain still propagates and the easier side reorgs onto
/// it. Fixed-rule nodes need no floor: any non-consensus target is
/// rejected outright.
const ORPHAN_EASING_SLACK: f64 = 64.0;

/// Header-timestamp validity rule honest nodes enforce on incoming blocks
/// and segments — the defence that bounds timestamp-skew difficulty
/// manipulation once difficulty is adaptive:
///
/// * **future drift** — a block's reported timestamp may sit at most
///   `max_future_drift_ms` past the receiver's clock at delivery time, and
/// * **median-time-past** — it must be strictly greater than the median of
///   the `mtp_window` reported timestamps ending at its parent, so time
///   (and with it the retarget rule's elapsed observations) cannot be
///   rewound.
///
/// Locally mined blocks are not self-checked — an adversary would not
/// police itself — so a skewing miner's blocks are rejected at every
/// *honest* node's edge instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimestampRule {
    /// Maximum simulated milliseconds a block timestamp may lie in the
    /// receiving node's future.
    pub max_future_drift_ms: u64,
    /// Number of trailing ancestor timestamps the median-time-past lower
    /// bound is computed over.
    pub mtp_window: usize,
}

impl Default for TimestampRule {
    fn default() -> Self {
        Self {
            max_future_drift_ms: 5_000,
            mtp_window: 11,
        }
    }
}

/// A message exchanged between simulated nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A full block, gossiped as it spreads through the network.
    Block(Block),
    /// Request for the segment ending at `want`, carrying the requester's
    /// block locator so the responder ships only the missing suffix.
    GetSegment {
        /// PoW digest of the block whose ancestry the requester is missing.
        want: Digest256,
        /// The requester's best-chain locator (see `HeaderIndex::locator`).
        locator: Vec<Digest256>,
    },
    /// Response to `GetSegment`: a contiguous segment, ascending height.
    Segment(Vec<Block>),
    /// Light-client request for headers above the requester's locator.
    GetHeaders {
        /// The requester's best-header-chain locator (same shape as
        /// `HeaderIndex::locator`).
        locator: Vec<Digest256>,
    },
    /// Response to `GetHeaders`: consecutive headers ascending height, at
    /// most [`MAX_HEADERS_PER_MSG`] per message. Also how a block
    /// announcement reaches a light subscriber (a single-header message).
    Headers(Vec<hashcore_chain::BlockHeader>),
    /// Light-client request for a batched Merkle inclusion proof of the
    /// transactions at `indices` in the block with digest `block`.
    GetProof {
        /// PoW digest of the block whose transactions are requested.
        block: Digest256,
        /// Leaf indices of the transactions of interest.
        indices: Vec<u32>,
    },
    /// Response to `GetProof`: the requested transactions with one batched
    /// inclusion proof against the block's committed Merkle root.
    Proof {
        /// PoW digest of the proven block.
        block: Digest256,
        /// Leaf count of the block's transaction tree (fixes the verifier's
        /// traversal shape).
        leaf_count: u32,
        /// The proven `(leaf index, raw transaction)` pairs.
        items: Vec<(u32, Vec<u8>)>,
        /// Shared sibling nodes, deterministic traversal order.
        nodes: Vec<Digest256>,
    },
}

impl Message {
    /// Exact serialized size of this message in bytes, under the canonical
    /// wire layout: a 1-byte variant tag, 4-byte little-endian length
    /// prefixes for every list and payload, 32-byte digests, and the
    /// 116-byte header encoding of `BlockHeader::bytes` (4 version + 32
    /// prev + 32 merkle + 8 timestamp + 32 target + 8 nonce). This is the
    /// substrate for the simulator's per-node bandwidth accounting — what
    /// traffic *costs*, not how many messages it took.
    pub fn wire_size(&self) -> u64 {
        /// Length-prefixed payload: 4-byte length + the bytes themselves.
        fn payload(bytes: &[u8]) -> u64 {
            4 + bytes.len() as u64
        }
        /// One serialized block: header + transaction list.
        fn block(b: &Block) -> u64 {
            HEADER_WIRE_BYTES + 4 + b.transactions.iter().map(|tx| payload(tx)).sum::<u64>()
        }
        const TAG: u64 = 1;
        const DIGEST: u64 = 32;
        const HEADER_WIRE_BYTES: u64 = 116;
        match self {
            Message::Block(b) => TAG + block(b),
            Message::GetSegment { locator, .. } => TAG + DIGEST + 4 + DIGEST * locator.len() as u64,
            Message::Segment(blocks) => TAG + 4 + blocks.iter().map(block).sum::<u64>(),
            Message::GetHeaders { locator } => TAG + 4 + DIGEST * locator.len() as u64,
            Message::Headers(headers) => TAG + 4 + HEADER_WIRE_BYTES * headers.len() as u64,
            Message::GetProof { indices, .. } => TAG + DIGEST + 4 + 4 * indices.len() as u64,
            Message::Proof { items, nodes, .. } => {
                TAG + DIGEST
                    + 4
                    + 4
                    + items.iter().map(|(_, tx)| 4 + payload(tx)).sum::<u64>()
                    + 4
                    + DIGEST * nodes.len() as u64
            }
        }
    }
}

/// A send a node wants performed after handling an event. The scheduler
/// owns the peer list and the RNG, so fan-out sampling happens there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outgoing {
    /// Send to one specific peer (sync requests and responses).
    To(usize, Message),
    /// Relay to a gossip sample of `fan_out` peers.
    Gossip(Message),
    /// Announce to every reachable peer (freshly mined blocks).
    Broadcast(Message),
    /// Send to one peer after an extra delay (a stalling responder).
    DelayedTo {
        /// The destination peer.
        to: usize,
        /// Extra simulated milliseconds before the send leaves the node.
        after_ms: u64,
        /// The delayed message.
        message: Message,
    },
    /// Ask the scheduler to call [`Node::on_timer`] with `token` after
    /// `after_ms` simulated milliseconds — the request-timeout clock.
    Timer {
        /// Opaque token handed back to the node (the awaited digest).
        token: Digest256,
        /// Simulated milliseconds until the timer fires.
        after_ms: u64,
    },
}
