//! A counting global allocator. Allocation calls (alloc, zeroed, realloc)
//! are counted only inside [`counted`], which the traced fit wraps around
//! each Gibbs sweep to report allocations per sweep; everywhere else an
//! allocation costs one relaxed load of the switch more than `System`'s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

/// Run `f` with counting switched on; its result and the allocation calls
/// made meanwhile, by any thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[inline]
fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as-is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as-is; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as-is; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded as-is; `ptr` came from `System` via this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_allocations_inside_counted_are_counted() {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        std::hint::black_box(vec![1u8; 64]);
        assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), before);
        let (v, n) = counted(|| std::hint::black_box(vec![1u8; 64]));
        assert_eq!(v.len(), 64);
        assert!(n >= 1);
    }
}
