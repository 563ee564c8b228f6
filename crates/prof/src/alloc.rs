//! Counting global allocator.
//!
//! [`CountingAlloc`] wraps the system allocator and, when counting is
//! switched on, maintains process-wide allocation statistics
//! (allocations, frees, bytes allocated, live bytes, peak live bytes)
//! plus per-thread running totals that the tracer samples at span
//! begin/end to attribute allocation to the innermost active span
//! (inclusive of children). When counting is off — the default — every
//! hook is a single relaxed atomic load on top of the system allocator.
//!
//! This crate installs the wrapper as the process `#[global_allocator]`,
//! so any binary that links `x2v-prof` (the `exp_*` harness, `bench_suite`)
//! can profile allocation without per-binary setup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The process-wide counting allocator (wraps [`System`]).
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes; signed because blocks allocated before counting was enabled
/// may be freed after, driving the running balance below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    static T_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Switches allocation counting on or off (process-wide). Counts
/// accumulate across on-periods; see [`alloc_snapshot`].
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Whether allocation counting is currently on.
pub fn alloc_counting_enabled() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// A point-in-time view of the allocation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations observed (incl. the alloc half of each realloc).
    pub allocs: u64,
    /// Frees observed (incl. the free half of each realloc).
    pub frees: u64,
    /// Total bytes handed out.
    pub bytes: u64,
    /// Peak of the live-byte balance since counting began.
    pub peak_bytes: u64,
}

/// Snapshots the process-wide allocation counters.
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Running totals for the calling thread: `(bytes, allocs)`. Sampled by
/// the tracer at span boundaries; deltas between two samples are the
/// allocations the thread performed in between.
pub fn thread_alloc_totals() -> (u64, u64) {
    (
        T_BYTES.try_with(Cell::get).unwrap_or(0),
        T_ALLOCS.try_with(Cell::get).unwrap_or(0),
    )
}

#[inline]
fn count_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
    // try_with: never panic inside the allocator during TLS teardown.
    let _ = T_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
    let _ = T_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
}

#[inline]
fn count_free(size: usize) {
    FREES.fetch_add(1, Ordering::Relaxed);
    LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

// SAFETY: delegates every allocation verbatim to `System`; the counting
// side-channel touches only atomics and `const`-initialised thread-locals
// (no allocation, no re-entry).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            count_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Ordering::Relaxed) {
            count_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            count_free(layout.size());
            count_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `COUNTING` is process-global: the tests that flip it take turns.
    static COUNTING_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        COUNTING_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn counting_observes_a_vec_allocation() {
        let _serial = serial();
        set_alloc_counting(true);
        let before = alloc_snapshot();
        let (t_bytes0, t_allocs0) = thread_alloc_totals();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let after = alloc_snapshot();
        let (t_bytes1, t_allocs1) = thread_alloc_totals();
        drop(v);
        let freed = alloc_snapshot();
        set_alloc_counting(false);

        assert!(after.allocs > before.allocs);
        assert!(after.bytes >= before.bytes + 4096);
        // Peak is a process-global high-water mark; with parallel test
        // threads all that is guaranteed is monotonicity.
        assert!(after.peak_bytes >= before.peak_bytes);
        // Thread-local deltas are race-free: exactly our Vec (plus any
        // incidental allocation this thread performed in between).
        assert!(t_bytes1 - t_bytes0 >= 4096);
        assert!(t_allocs1 > t_allocs0);
        assert!(freed.frees > after.frees, "the drop must be counted");
    }

    #[test]
    fn disabled_counting_is_inert() {
        let _serial = serial();
        set_alloc_counting(false);
        let before = alloc_snapshot();
        let _v: Vec<u64> = vec![0; 512];
        assert!(!alloc_counting_enabled());
        let after = alloc_snapshot();
        assert_eq!(before.allocs, after.allocs);
    }
}
