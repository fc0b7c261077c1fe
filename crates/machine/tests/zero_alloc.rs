//! Guards the simulator hot loop against allocation creep.
//!
//! The paper's profiler keeps collection overhead at 1-3% partly by
//! never allocating on the interrupt path; our simulated hot loop makes
//! the same promise. With observability disabled (the default) and a
//! non-recording sample sink, the steady-state step loop — fetch,
//! issue, counters, sample delivery — must not touch the heap at all.
//! A disabled obs probe is a single relaxed atomic-bool load, so this
//! test also pins the "obs off costs nothing" claim from the design.

// The counting allocator needs `unsafe impl GlobalAlloc`; the workspace
// denies unsafe_code, so opt this test binary out explicitly.
#![allow(unsafe_code)]

use dcpi_isa::asm::Asm;
use dcpi_isa::image::Image;
use dcpi_isa::reg::Reg;
use dcpi_machine::counters::CounterConfig;
use dcpi_machine::machine::{Machine, SampleSink};
use dcpi_machine::{DispatchMode, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Wraps the system allocator and counts allocations made on threads
/// that opted in via [`COUNTING`]. `try_with` keeps the hook safe
/// during thread teardown, when the TLS slot may already be gone.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOC_COUNT.try_with(|n| n.set(n.get() + 1));
            }
        });
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOC_COUNT.try_with(|n| n.set(n.get() + 1));
            }
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting enabled and returns how many
/// allocations it performed on this thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOC_COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOC_COUNT.with(|n| n.get())
}

/// A sink that models a fixed-cost interrupt handler without recording
/// anything — the delivery path itself is what's under test.
struct NopSink;

impl SampleSink for NopSink {
    fn counter_overflow(
        &mut self,
        _cpu: dcpi_core::CpuId,
        _sample: dcpi_core::Sample,
        _at: u64,
    ) -> u64 {
        300
    }
}

fn countdown_image(n: i64) -> Image {
    let mut a = Asm::new("/bin/countdown");
    a.proc("main");
    a.li(Reg::T0, n);
    let top = a.here();
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.halt();
    a.finish()
}

#[test]
fn steady_state_stepping_does_not_allocate_with_obs_disabled() {
    // One-group walks pay the walk's entry and exit per group — cloning
    // the chain's `Arc`, detaching and reattaching the ground-truth
    // counts and edges — and none of that may allocate either.
    for dispatch in [DispatchMode::Superblock, DispatchMode::Classic] {
        let mut cfg = MachineConfig::with_counters(CounterConfig::cycles_only((5_000, 5_400)));
        cfg.dispatch = dispatch;
        // No reschedule inside the measured window: context switches may
        // legitimately allocate (scheduler queues, OS events).
        cfg.timeslice = 1_000_000_000;
        let mut m = Machine::new(cfg, NopSink);
        let img = m.register_image(countdown_image(20_000_000));
        m.spawn(0, img, &[], |_| {});

        // Warm up: process install, page tables, TLB fills, and the first
        // few sample deliveries all get their lazy allocations out of the
        // way here.
        m.run_all_until(2_000_000);
        assert!(m.total_samples() > 10, "sampling must be live");
        let warm_samples = m.total_samples();

        // Steady state: a few million cycles of fetch/issue/counter
        // overflow/delivery must stay off the heap entirely.
        let allocs = count_allocs(|| m.run_all_until(6_000_000));
        assert!(
            m.total_samples() > warm_samples + 100,
            "window must contain many deliveries"
        );
        assert_eq!(
            allocs, 0,
            "{dispatch:?}: hot loop allocated {allocs} times with obs disabled"
        );
    }
}
