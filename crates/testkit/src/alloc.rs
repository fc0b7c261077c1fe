//! The allocator probe: what one thread asks of the allocator.
//!
//! A `GlobalAlloc` needs `unsafe impl`; this module is the workspace's
//! one exception to its `unsafe_code` deny. A test binary opts in with
//! `#[global_allocator] static ALLOC: dcpi_testkit::Probe = dcpi_testkit::Probe;`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the measuring thread asked of the allocator during [`measure`].
/// Other threads are not counted: the test harness runs tests, and
/// allocates for them, on threads of its own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// `alloc` and `realloc` calls.
    pub calls: u64,
    /// Bytes requested: each `alloc`'s size plus each `realloc`'s new size.
    pub bytes: u64,
    /// The most bytes held at once beyond what was live when measuring began.
    pub peak: u64,
}

#[derive(Clone, Copy)]
struct Tally {
    calls: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

const ZERO: Tally = Tally {
    calls: 0,
    bytes: 0,
    live: 0,
    peak: 0,
};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static TALLY: Cell<Tally> = const { Cell::new(ZERO) };
}

/// Tallies a call on an armed thread. `try_with` keeps the hook safe
/// during thread teardown, when the slots may already be gone.
fn note(call: bool, grew: usize, freed: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = TALLY.try_with(|tally| {
                let mut t = tally.get();
                t.calls += u64::from(call);
                t.bytes += grew as u64;
                t.live += grew as i64 - freed as i64;
                t.peak = t.peak.max(t.live);
                tally.set(t);
            });
        }
    });
}

/// The system allocator, tallying what armed threads ask of it.
pub struct Probe;

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only updates thread-local counters and
// never allocates.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(true, layout.size(), 0);
        // SAFETY: the caller's guarantees for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(false, 0, layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(true, new_size, layout.size());
        // SAFETY: the caller's guarantees for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` on this thread, returning its result and what it asked of
/// the allocator. Panics unless [`Probe`] is the global allocator, so a
/// bound can never hold because nothing was counted.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    ARMED.with(|armed| armed.set(true));
    drop(std::hint::black_box(Box::new(0u8)));
    let installed = TALLY.with(|tally| tally.replace(ZERO)).calls > 0;
    assert!(installed, "dcpi_testkit::Probe is not the global allocator");
    let out = f();
    ARMED.with(|armed| armed.set(false));
    let t = TALLY.with(|tally| tally.replace(ZERO));
    let allocs = Allocs {
        calls: t.calls,
        bytes: t.bytes,
        peak: t.peak.max(0) as u64,
    };
    (out, allocs)
}
