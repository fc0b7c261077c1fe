//! Guards the simulator hot loop against allocation creep.
//!
//! The paper's profiler keeps collection overhead at 1-3% partly by
//! never allocating on the interrupt path; our simulated hot loop makes
//! the same promise. With observability disabled (the default) and a
//! non-recording sample sink, the steady-state step loop — fetch,
//! issue, counters, sample delivery — must not touch the heap at all.
//! A disabled obs probe is a single relaxed atomic-bool load, so this
//! test also pins the "obs off costs nothing" claim from the design.

use dcpi_isa::asm::Asm;
use dcpi_isa::image::Image;
use dcpi_isa::reg::Reg;
use dcpi_machine::counters::CounterConfig;
use dcpi_machine::machine::{Machine, SampleSink};
use dcpi_machine::{DispatchMode, MachineConfig};
use dcpi_testkit::{measure, Probe};

#[global_allocator]
static ALLOC: Probe = Probe;

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
        let ((), allocs) = measure(|| m.run_all_until(6_000_000));
        let allocs = allocs.calls;
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
