//! The PoW hot path allocates nothing after its first call.
//!
//! A counting global allocator tallies the heap operations of the current
//! thread. Each entry point — `hash_with_scratch`,
//! `hash_nonce_batch_with_scratch` and `MiningSession::step` — is called
//! once to prime its scratch, and every later call, over nonces whose
//! widgets differ in shape, must perform zero allocations. The first call
//! sizes every buffer from the generator's worst-case `GenerationBounds`,
//! so this holds for any seed, not only after a warm-up that happened to
//! visit the largest widget: the first call hashes the nonce with the
//! smallest widget of a sample, later calls the larger ones. Besides the
//! two benchmark widget sizes, a high-noise generator, whose widget sizes
//! vary several-fold from seed to seed, makes the later widgets outgrow
//! anything sized by the first one.

use hashcore::{
    HashCore, HashCoreConfig, HashScratch, MiningInput, MiningSession, Target, NONCE_LANES,
};
use hashcore_crypto::sha256;
use hashcore_profile::{HashSeed, NoiseConfig, PerformanceProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap operations (alloc, alloc_zeroed, realloc) of the current
    /// thread; thread-local so tests running in parallel do not mix counts.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter update allocates
// nothing (const-initialised thread-local `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

const HEADER: &[u8] = b"zero-allocation-header";

/// The PoW instances under test, with a label: the two widget sizes the
/// benchmarks mine and verify at, and the high-noise generator at 8k.
fn pows() -> [(&'static str, HashCore); 3] {
    let profile = |target_dynamic_instructions| PerformanceProfile {
        target_dynamic_instructions,
        ..PerformanceProfile::leela_like()
    };
    let mut high_noise = HashCoreConfig::new(profile(8_000));
    high_noise.generator.noise = NoiseConfig {
        max_relative_count_noise: 3.0,
        ..NoiseConfig::default()
    };
    [
        ("8k", HashCore::new(profile(8_000))),
        ("128k", HashCore::new(profile(128_000))),
        ("8k high-noise", HashCore::with_config(high_noise)),
    ]
}

/// Nonces `0..count`, ordered by the size of their widget, smallest first.
fn nonces_by_widget_size(pow: &HashCore, count: u64) -> Vec<u64> {
    let mut nonces: Vec<u64> = (0..count).collect();
    nonces.sort_by_cached_key(|&nonce| {
        let seed = HashSeed::new(sha256(&HashCore::mining_input(HEADER, nonce)));
        pow.generator().generate(&seed).program.pc_slot_count()
    });
    nonces
}

#[test]
fn hash_with_scratch_allocates_nothing_after_the_first_call() {
    for (name, pow) in pows() {
        let nonces = nonces_by_widget_size(&pow, 16);
        let mut scratch = HashScratch::new();
        let mut input = MiningInput::new(HEADER);
        pow.hash_with_scratch(input.with_nonce(nonces[0]), &mut scratch)
            .unwrap();
        let before = allocations();
        for &nonce in &nonces[1..] {
            pow.hash_with_scratch(input.with_nonce(nonce), &mut scratch)
                .unwrap();
        }
        assert_eq!(allocations() - before, 0, "{name}");
    }
}

#[test]
fn hash_nonce_batch_with_scratch_allocates_nothing_after_the_first_call() {
    for (name, pow) in pows() {
        let nonces = nonces_by_widget_size(&pow, 4 * NONCE_LANES as u64);
        let batches: Vec<[u64; NONCE_LANES]> = nonces
            .chunks_exact(NONCE_LANES)
            .map(|chunk| chunk.try_into().unwrap())
            .collect();
        let mut scratch = HashScratch::new();
        for result in pow.hash_nonce_batch_with_scratch(HEADER, batches[0], &mut scratch) {
            result.unwrap();
        }
        let before = allocations();
        for &batch in &batches[1..] {
            for result in pow.hash_nonce_batch_with_scratch(HEADER, batch, &mut scratch) {
                result.unwrap();
            }
        }
        assert_eq!(allocations() - before, 0, "{name}");
    }
}

#[test]
fn mining_session_step_allocates_nothing_after_the_first_call() {
    // An unreachable target: every step scans its whole budget, through
    // one lane batch and a scalar tail.
    let unreachable = Target::from_leading_zero_bits(255);
    let budget = NONCE_LANES as u64 + 2;
    for (name, pow) in pows() {
        let mut session = MiningSession::new(HEADER, unreachable, 0);
        assert_eq!(session.step(&pow, budget).unwrap(), None);
        let before = allocations();
        for _ in 0..3 {
            assert_eq!(session.step(&pow, budget).unwrap(), None);
        }
        assert_eq!(allocations() - before, 0, "{name}");
        assert_eq!(session.attempts(), 4 * budget);
    }
}
