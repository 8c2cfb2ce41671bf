//! The counting global allocator shared by the allocation-accounting
//! tests. Each test binary installs it with
//! `#[global_allocator] static COUNTER: CountingAlloc = CountingAlloc;`
//! and holds exactly one `#[test]`, so the process-wide counters belong
//! to that test alone.

#![allow(dead_code)] // each test binary uses the counters it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through to the system allocator that counts what is asked for
/// (bytes requested, cumulative) and what is held (live bytes, with
/// their high-water mark).
pub struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through — every pointer handed out comes from
// `System.alloc` with the caller's layout, and `dealloc` returns the
// same pointer/layout pair straight to `System.dealloc`; the counters
// are lock-free atomics and themselves allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System.alloc` with the caller's layout
    // unchanged, so `System`'s guarantees (alignment, size, null on
    // failure) carry over verbatim; the counter updates cannot fail or
    // allocate.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as u64;
        BYTES.fetch_add(size, Ordering::Relaxed);
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds the `alloc`
        // layout contract.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: every pointer this allocator hands out comes from
    // `System.alloc`, so returning it to `System.dealloc` with the
    // caller's (identical) layout satisfies `dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was produced by `System.alloc` in `alloc`
        // above with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Restart the cumulative count of bytes requested.
pub fn reset_bytes_allocated() {
    BYTES.store(0, Ordering::Relaxed);
}

/// Bytes requested since the last [`reset_bytes_allocated`].
pub fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restart the live-bytes high-water mark from the current level.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Highest [`live_bytes`] since the last [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
