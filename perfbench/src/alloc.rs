//! A counting global allocator: every allocation and reallocation bumps a
//! per-thread and a process-wide counter. It feeds
//! `core.allocations_per_hash` (one miner thread) and
//! `core.allocations_per_ibd_block` (the syncing node plus its validation
//! workers), the way `bench_mining` proves the mining loop allocation-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus two counters.
pub struct CountingAlloc;

fn count() {
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread's local storage may already be gone while it
    // frees during teardown; those operations are not measured anyway.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates directly to `System`; the counter updates allocate
// nothing (an atomic and a const-initialised thread-local `Cell`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap operations performed by the calling thread so far.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Heap operations performed by every thread of the process so far.
pub fn process_allocations() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
}
