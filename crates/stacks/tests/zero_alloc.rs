//! Allocation guards for the intern path and the DCST decoder.
//!
//! The canonical-stack cache sits inside the sample-interrupt handler;
//! its hot path (re-interning an already-seen stack) must not touch the
//! allocator. This test wraps the global allocator in a counter and
//! proves the warm path allocation-free, and that decoding a sidecar
//! reserves no more than its input could hold. The counter is global to
//! the process and the harness runs tests on parallel threads, so the
//! guards are sections of one `#[test]`. The counting allocator needs
//! `unsafe impl GlobalAlloc`, so this one test file opts out of the
//! workspace `unsafe_code` deny.
#![allow(unsafe_code)]

use dcpi_stacks::{StackProfile, StackTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
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

    let allocated = allocations_during(|| {
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
    let allocated = allocations_during(|| {
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
    let before = BYTES.load(Ordering::Relaxed);
    assert!(StackProfile::from_bytes(header_only).is_err());
    let reserved = BYTES.load(Ordering::Relaxed) - before;
    assert!(reserved < 1024, "header-only decode allocated {reserved} B");
}
