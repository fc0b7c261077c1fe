//! Allocation guards for the intern path and the DCST decoder.
//!
//! The canonical-stack cache sits inside the sample-interrupt handler;
//! its hot path (re-interning an already-seen stack) must not touch the
//! allocator. This test wraps the global allocator in a counter and
//! proves the warm path allocation-free, and that decoding a sidecar
//! reserves no more than its input could hold. Only the measuring
//! thread's allocations count (libtest's main thread allocates whenever
//! it likes), the way `crates/machine/tests/zero_alloc.rs` does it. The
//! counting allocator needs `unsafe impl GlobalAlloc`, so this one test
//! file opts out of the workspace `unsafe_code` deny.
#![allow(unsafe_code)]

use dcpi_stacks::{StackProfile, StackTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Wraps the system allocator and counts what threads that opted in via
/// [`COUNTING`] request. `try_with` keeps the hook safe during thread
/// teardown, when the TLS slot may already be gone.
struct CountingAlloc;

fn note(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOC_COUNT.try_with(|n| n.set(n.get() + 1));
            let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many times, and for how many bytes, this
/// thread went to the allocator meanwhile.
fn allocations_during(f: impl FnOnce()) -> (u64, u64) {
    ALLOC_COUNT.with(|n| n.set(0));
    ALLOC_BYTES.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    (ALLOC_COUNT.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

#[test]
fn warm_intern_path_is_allocation_free() {
    let mut table: StackTable<u64> = StackTable::new();
    // Warm up: intern a family of stacks (recursion depths 1..=64 over a
    // shared spine, plus a disjoint chain), letting the table and its
    // index reach their final capacity.
    let spine: Vec<u64> = (0..64).map(|i| 0x1_0000 + i * 4).collect();
    for depth in 1..=spine.len() {
        table.intern(&spine[..depth]);
    }
    let other: Vec<u64> = (0..16).map(|i| 0x7000_0000 + i * 8).collect();
    table.intern_leaf_first(&other);
    let nodes = table.len();

    let (allocated, _) = allocations_during(|| {
        for _ in 0..10_000 {
            for depth in 1..=spine.len() {
                std::hint::black_box(table.intern(&spine[..depth]));
            }
            std::hint::black_box(table.intern_leaf_first(&other));
        }
    });
    assert_eq!(allocated, 0, "warm intern path allocated {allocated} times");

    // Two deep stacks that part ways near the root, alternating: the
    // remembered stack shrinks to the shared prefix and regrows each time.
    let fork: Vec<u64> = spine[..8]
        .iter()
        .copied()
        .chain((0..40).map(|i| 0x2_0000 + i * 4))
        .collect();
    let fork_id = table.intern(&fork);
    let spine_id = table.intern(&spine);
    let nodes = nodes + 40;
    let (allocated, _) = allocations_during(|| {
        for _ in 0..10_000 {
            assert_eq!(table.intern(&fork), fork_id);
            assert_eq!(table.intern(&spine), spine_id);
            assert_eq!(table.intern(&spine[..3]), 3);
        }
    });
    assert_eq!(
        allocated, 0,
        "alternating stacks allocated {allocated} times"
    );
    assert_eq!(table.len(), nodes, "warm path must not grow the table");

    // An 8-byte sidecar whose header claims 2^20 nodes: what the decoder
    // reserves is bounded by the bytes that follow, not by the claim.
    let header_only = b"DCST\x01\x80\x80\x40";
    let (_, reserved) = allocations_during(|| {
        assert!(StackProfile::from_bytes(header_only).is_err());
    });
    assert!(reserved < 1024, "header-only decode allocated {reserved} B");
}
