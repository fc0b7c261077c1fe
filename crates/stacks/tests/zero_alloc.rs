//! Allocation guards for the intern path and the DCST decoder.
//!
//! The canonical-stack cache sits inside the sample-interrupt handler;
//! its hot path (re-interning an already-seen stack) must not touch the
//! allocator. This test wraps the global allocator in a counter and
//! proves the warm path allocation-free, and that decoding a sidecar
//! reserves no more than its input could hold. Only the measuring
//! thread's allocations count (libtest's main thread allocates whenever
//! it likes); `dcpi_testkit::measure` does the counting.

use dcpi_stacks::{StackProfile, StackTable};
use dcpi_testkit::{measure, Allocs, Probe};

#[global_allocator]
static ALLOC: Probe = Probe;

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

    let (
        (),
        Allocs {
            calls: allocated, ..
        },
    ) = measure(|| {
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
    let (
        (),
        Allocs {
            calls: allocated, ..
        },
    ) = measure(|| {
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
    let (
        (),
        Allocs {
            bytes: reserved, ..
        },
    ) = measure(|| {
        assert!(StackProfile::from_bytes(header_only).is_err());
    });
    assert!(reserved < 1024, "header-only decode allocated {reserved} B");
}
