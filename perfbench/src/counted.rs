//! A counting and timing PoW adaptor.
//!
//! [`Counted`] wraps any [`PreparedPow`] and forwards every trait method to
//! it unchanged — digests, cost figures and scan hits are the inner
//! function's own, so admission verdicts and fork choice cannot move —
//! while appending one [`PowSpan`] per call to a shared [`Recorder`]: the
//! thread that ran it, its wall interval and how many nonces it evaluated.
//! Traced runs read per-phase counts, busy time and thread shares out of
//! the recorder; untraced runs use the bare PoW function.

use hashcore::{MiningInput, Target, VerifyCost};
use hashcore_baselines::{PowFunction, PreparedPow, ResourceClass};
use hashcore_crypto::Digest256;
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// One PoW call: which thread ran it, when, and how many nonces it
/// evaluated (1 for a single digest; the scanned count for a nonce scan).
#[derive(Debug, Clone, Copy)]
pub struct PowSpan {
    /// The thread the call ran on.
    pub thread: ThreadId,
    /// Call entry.
    pub start: Instant,
    /// Call exit.
    pub end: Instant,
    /// PoW evaluations the call performed.
    pub evaluations: u64,
}

impl PowSpan {
    /// The call's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The span sink every clone of a [`Counted`] adaptor shares.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Mutex<Vec<PowSpan>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<PowSpan> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("recorder lock poisoned by a panicking thread"),
        )
    }

    fn push(&self, span: PowSpan) {
        self.spans
            .lock()
            .expect("recorder lock poisoned by a panicking thread")
            .push(span);
    }
}

/// A [`PreparedPow`] that records every call into a [`Recorder`].
#[derive(Debug, Clone)]
pub struct Counted<P> {
    inner: P,
    recorder: Arc<Recorder>,
}

impl<P> Counted<P> {
    /// Wraps `inner`, recording into `recorder`.
    pub fn new(inner: P, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }

    fn timed<R>(&self, evaluations: impl FnOnce(&R) -> u64, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        self.recorder.push(PowSpan {
            thread: thread::current().id(),
            start,
            end,
            evaluations: evaluations(&result),
        });
        result
    }
}

/// Nonces a scan over `start..start + attempts` evaluated: up to and
/// including the hit, or the whole range.
fn scanned(start: u64, attempts: u64, hit: &Option<(u64, Digest256)>) -> u64 {
    hit.map_or(attempts, |(nonce, _)| nonce.wrapping_sub(start) + 1)
}

impl<P: PowFunction> PowFunction for Counted<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pow_hash(&self, input: &[u8]) -> Digest256 {
        self.timed(|_| 1, || self.inner.pow_hash(input))
    }

    fn dominant_resource(&self) -> ResourceClass {
        self.inner.dominant_resource()
    }

    fn mine(&self, header: &[u8], target: Target, max_attempts: u64) -> Option<(u64, Digest256)> {
        self.timed(
            |hit| scanned(0, max_attempts, hit),
            || self.inner.mine(header, target, max_attempts),
        )
    }
}

impl<P: PreparedPow> PreparedPow for Counted<P> {
    type Scratch = P::Scratch;

    fn pow_hash_scratch(&self, input: &[u8], scratch: &mut Self::Scratch) -> Digest256 {
        self.timed(|_| 1, || self.inner.pow_hash_scratch(input, scratch))
    }

    fn scan_nonces(
        &self,
        input: &mut MiningInput,
        target: Target,
        start: u64,
        attempts: u64,
        scratch: &mut Self::Scratch,
    ) -> Option<(u64, Digest256)> {
        self.timed(
            |hit| scanned(start, attempts, hit),
            || {
                self.inner
                    .scan_nonces(input, target, start, attempts, scratch)
            },
        )
    }

    fn scan_nonce_batch(
        &self,
        input: &mut MiningInput,
        target: Target,
        start: u64,
        attempts: u64,
        scratch: &mut Self::Scratch,
    ) -> Option<(u64, Digest256)> {
        self.timed(
            |hit| scanned(start, attempts, hit),
            || {
                self.inner
                    .scan_nonce_batch(input, target, start, attempts, scratch)
            },
        )
    }

    fn nominal_cost(&self) -> VerifyCost {
        self.inner.nominal_cost()
    }

    fn pow_hash_cost_scratch(
        &self,
        input: &[u8],
        scratch: &mut Self::Scratch,
    ) -> (Digest256, VerifyCost) {
        self.timed(|_| 1, || self.inner.pow_hash_cost_scratch(input, scratch))
    }
}
