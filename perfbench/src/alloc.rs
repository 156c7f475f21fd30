//! Counting global allocator: allocation count, live bytes and peak live
//! bytes, read by the benchmark around every measured span.
//!
//! The binary installs [`CountingAlloc`] as its `#[global_allocator]`.
//! [`self_test`] proves the install took: a library linked into a binary
//! without it reads zero forever, and every `allocs_per_*` figure would
//! silently read 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus three counters.
pub struct CountingAlloc;

fn note_grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            note_grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            note_grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A realloc is one more trip to the allocator.
            ALLOCS.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                note_grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Heap allocations (including reallocations) since process start.
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes currently allocated.
pub fn live_bytes() -> usize {
    LIVE.load(Relaxed)
}

/// Highest [`live_bytes`] seen since process start or [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Restarts the peak from the current live bytes.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Checks that a known allocation registers in all three counters. Fails
/// when [`CountingAlloc`] is not the global allocator.
pub fn self_test() -> Result<(), String> {
    const BYTES: usize = 1 << 20;
    let before = allocs();
    let v: Vec<u8> = Vec::with_capacity(BYTES);
    let v = std::hint::black_box(v);
    let (after, live, peak) = (allocs(), live_bytes(), peak_bytes());
    drop(v);
    if after <= before {
        return Err(format!(
            "counting allocator not installed: a {BYTES}-byte Vec moved the allocation count {before} -> {after}"
        ));
    }
    if live < BYTES || peak < live {
        return Err(format!(
            "counting allocator inconsistent: live {live} B, peak {peak} B after a {BYTES}-byte allocation"
        ));
    }
    Ok(())
}
