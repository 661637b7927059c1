//! A counting allocator over [`std::alloc::System`].
//!
//! The benchmark binary installs [`Counting`] as its
//! `#[global_allocator]`. Counting is off until [`set_enabled`] turns
//! it on, so the untraced runs that give the end-to-end metrics pay one
//! relaxed load per allocation and nothing more. The counters are
//! process-wide: allocations made by worker threads (the explore pool,
//! threaded codegen) are attributed to the span that spawned them.
//! Each thread counts into its own cache-line shard, so two threads
//! allocating at once do not contend on one counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

const SHARDS: usize = 16;
static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates, so the allocator itself may use it.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The counting allocator; a unit struct so it can be a `static`.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters are plain statistics and take no
// part in the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let i = SHARD
            .try_with(|s| {
                if s.get() == usize::MAX {
                    s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
                }
                s.get()
            })
            .unwrap_or(0);
        COUNTS[i].allocs.fetch_add(1, Ordering::Relaxed);
        COUNTS[i].bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Turn counting on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far; a `realloc` counts
/// as one allocation of its new size.
pub fn snapshot() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}
