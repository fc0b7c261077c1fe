//! The machine facade: CPUs + OS + ground truth + the sample sink.

use crate::config::MachineConfig;
use crate::cpu::{CpuState, Outcome};
use crate::dispatch::{chain_step, DispatchStats};
use crate::os::{default_kernel, Os};
use crate::stats::GroundTruth;
use dcpi_core::{Addr, CpuId, ImageId, Pid};
use dcpi_isa::image::Image;
use dcpi_obs::Published;

pub use crate::cpu::{NullSink, SampleSink};

/// A complete simulated machine.
///
/// The type parameter is the [`SampleSink`] receiving performance-counter
/// overflow samples — [`NullSink`] for unprofiled (`base`) runs, or the
/// device driver from `dcpi-collect` for profiled runs.
#[derive(Debug)]
pub struct Machine<S: SampleSink> {
    /// Configuration (immutable after construction).
    pub cfg: MachineConfig,
    /// The operating system model.
    pub os: Os,
    /// Per-processor state.
    pub cpus: Vec<CpuState>,
    /// Exact retirement counts (the pixie/dcpix role).
    pub gt: GroundTruth,
    /// The overflow-sample consumer.
    pub sink: S,
    /// Cycle at which the most recent process exit (halt or fault)
    /// occurred — the workload's true completion time, unquantized by
    /// run-quantum idle tails.
    pub last_exit: u64,
}

impl<S: SampleSink + 'static> Machine<S> {
    /// Attaches an observability handle to every CPU (the machine is the
    /// simulated-cycle source for the obs clock). With obs disabled this
    /// leaves the hot path untouched: probes gate on one `AtomicBool`.
    pub fn set_obs(&mut self, obs: &dcpi_obs::Obs) {
        for cpu in &mut self.cpus {
            cpu.obs = obs.clone();
        }
    }

    /// What the machine publishes: interrupts delivered, the handler
    /// cycles they cost, and context switches, summed over the CPUs.
    pub const PUBLISHED: Published<Machine<S>> = Published {
        counters: &[
            ("machine.samples", Machine::total_samples),
            ("machine.handler_cycles", Machine::total_handler_cycles),
            ("machine.ctx_switches", |m| {
                m.cpus.iter().map(|c| c.ctx_switches).sum()
            }),
        ],
        ..Published::NONE
    };
}

impl<S: SampleSink> Machine<S> {
    /// Builds a machine with the default kernel image.
    #[must_use]
    pub fn new(cfg: MachineConfig, sink: S) -> Machine<S> {
        Machine::with_kernel(cfg, default_kernel(), sink)
    }

    /// Builds a machine with a custom kernel image (must contain an
    /// `_idle_loop` procedure).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.page_bytes` is not a power of two: address
    /// translation is shift/mask throughout.
    #[must_use]
    pub fn with_kernel(cfg: MachineConfig, kernel: Image, sink: S) -> Machine<S> {
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page_bytes must be a power of two, got {}",
            cfg.page_bytes
        );
        let page_seed = cfg
            .page_alloc_random
            .then_some(cfg.seed.wrapping_mul(7919).max(1));
        let os = Os::new(
            cfg.cpus,
            cfg.page_bytes,
            kernel,
            page_seed,
            cfg.model.clone(),
        );
        let mut gt = GroundTruth::new();
        for li in os.images() {
            gt.register_image(li.id, li.image.words().len());
        }
        let cpus = (0..cfg.cpus)
            .map(|i| CpuState::new(CpuId(i as u32), &cfg))
            .collect();
        Machine {
            cfg,
            os,
            cpus,
            gt,
            sink,
            last_exit: 0,
        }
    }

    /// Registers an image with the OS and the ground-truth recorder.
    pub fn register_image(&mut self, image: Image) -> ImageId {
        let words = image.words().len();
        let id = self.os.register_image(image);
        self.gt.register_image(id, words);
        id
    }

    /// Hot-swaps a registered image's contents in place (the PGO loop:
    /// same id, rewritten text). Decoded side tables and handler chains
    /// are rebuilt immediately, and every CPU's cached chain pointers are
    /// invalidated through the OS image epoch, so no stale metadata can
    /// execute. See [`Os::replace_image`].
    pub fn replace_image(&mut self, id: ImageId, image: Image) {
        let words = image.words().len();
        self.os.replace_image(id, image);
        self.gt.resize_image(id, words);
    }

    /// Spawns a process on `cpu` running `main`; see [`Os::spawn`].
    pub fn spawn(
        &mut self,
        cpu: usize,
        main: ImageId,
        extra: &[(ImageId, Addr)],
        setup: impl FnOnce(&mut crate::proc::Process),
    ) -> Pid {
        self.os.spawn(cpu, main, extra, setup)
    }

    /// Runs one CPU until its clock reaches `target` cycles (or slightly
    /// past: issue groups are atomic).
    pub fn run_cpu_until(&mut self, cpu: usize, target: u64) {
        let cfg = &self.cfg;
        let cpu_state = &mut self.cpus[cpu];
        while cpu_state.now() < target {
            if cpu_state.current.is_none() {
                match self.os.take_next(cpu) {
                    Some(p) => cpu_state.install(p, cfg),
                    None => {
                        // Idle process already running elsewhere is
                        // impossible; nothing to do means the CPU sleeps.
                        cpu_state.prev_issue = target;
                        break;
                    }
                }
            }
            let outcome = chain_step(
                cpu_state,
                &mut self.os,
                &mut self.gt,
                &mut self.sink,
                cfg,
                target,
            );
            match outcome {
                Outcome::Ran => {
                    if cpu_state.slice_expired() {
                        if self.os.has_runnable(cpu) {
                            let p = cpu_state.deschedule().expect("running process");
                            self.os.yield_back(cpu, p);
                        } else {
                            // Nothing else to run: extend the slice
                            // without paying a context switch.
                            cpu_state.slice_end = cpu_state.now() + cfg.timeslice;
                        }
                    }
                }
                Outcome::Yielded => {
                    let p = cpu_state.deschedule().expect("running process");
                    self.os.yield_back(cpu, p);
                }
                Outcome::Halted | Outcome::Fault => {
                    let p = cpu_state.deschedule().expect("running process");
                    self.os.exit(p);
                    self.last_exit = self.last_exit.max(cpu_state.now());
                }
                Outcome::NoProcess => unreachable!("installed above"),
            }
        }
    }

    /// Runs every CPU to `target` cycles.
    pub fn run_all_until(&mut self, target: u64) {
        for cpu in 0..self.cpus.len() {
            self.run_cpu_until(cpu, target);
        }
    }

    /// Runs in `quantum`-sized strides until all spawned processes have
    /// exited or `limit` cycles elapse. Returns the final machine time
    /// (max over CPUs).
    pub fn run_to_completion(&mut self, quantum: u64, limit: u64) -> u64 {
        let mut target = quantum;
        while self.os.live_processes() > 0 && target <= limit {
            self.run_all_until(target);
            target += quantum;
        }
        self.time()
    }

    /// Charges external work (e.g. the profiling daemon's processing) to a
    /// CPU as busy time.
    pub fn charge_cycles(&mut self, cpu: usize, cycles: u64) {
        let c = &mut self.cpus[cpu];
        c.resume_at = c.now() + cycles;
    }

    /// Machine time: the maximum cycle count over the CPUs.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.cpus.iter().map(CpuState::now).max().unwrap_or(0)
    }

    /// The sampling-period range currently programmed into the counters
    /// (uniform across CPUs; reads CPU 0).
    #[must_use]
    pub fn sampling_period(&self) -> (u64, u64) {
        self.cpus[0].counters.period()
    }

    /// Reprograms the sampling-period range on every CPU's counters — the
    /// lever driver backpressure pulls when overflow buffers are dropping
    /// samples. Takes effect from each counter's next drawn period.
    pub fn set_sampling_period(&mut self, period: (u64, u64)) {
        for cpu in &mut self.cpus {
            cpu.counters.set_period(period);
        }
    }

    /// Total samples delivered to the sink across CPUs.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.cpus.iter().map(|c| c.samples_taken).sum()
    }

    /// Total cycles spent in the interrupt handler across CPUs.
    #[must_use]
    pub fn total_handler_cycles(&self) -> u64 {
        self.cpus.iter().map(|c| c.handler_cycles).sum()
    }

    /// Total cycles spent walking call stacks across CPUs (a subset of
    /// [`Machine::total_handler_cycles`]).
    #[must_use]
    pub fn total_walk_cycles(&self) -> u64 {
        self.cpus.iter().map(|c| c.walk_cycles).sum()
    }

    /// Total instructions retired across CPUs.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.cpus.iter().map(|c| c.insns_retired).sum()
    }

    /// Aggregated dispatch-path accounting across CPUs.
    #[must_use]
    pub fn dispatch_stats(&self) -> DispatchStats {
        let mut total = DispatchStats::default();
        for c in &self.cpus {
            total.merge(&c.dstats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DispatchMode;
    use crate::counters::CounterConfig;
    use crate::os::MAIN_BASE;
    use dcpi_core::{Event, Sample};
    use dcpi_isa::asm::Asm;
    use dcpi_isa::insn::{Instruction, PalFunc};
    use dcpi_isa::reg::Reg;

    /// A sink that records every sample at a fixed handler cost.
    #[derive(Default)]
    struct RecordingSink {
        samples: Vec<(CpuId, Sample, u64)>,
        cost: u64,
    }

    impl SampleSink for RecordingSink {
        fn counter_overflow(&mut self, cpu: CpuId, sample: Sample, at: u64) -> u64 {
            self.samples.push((cpu, sample, at));
            self.cost
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

    fn small_machine(counters: CounterConfig) -> Machine<RecordingSink> {
        small_machine_in(DispatchMode::default(), counters)
    }

    fn small_machine_in(dispatch: DispatchMode, counters: CounterConfig) -> Machine<RecordingSink> {
        let mut cfg = MachineConfig::with_counters(counters);
        cfg.timeslice = 100_000;
        cfg.dispatch = dispatch;
        Machine::new(cfg, RecordingSink::default())
    }

    #[test]
    fn countdown_runs_to_completion() {
        let mut m = small_machine(CounterConfig::off());
        let img = m.register_image(countdown_image(1000));
        m.spawn(0, img, &[], |_| {});
        m.run_to_completion(10_000, 10_000_000);
        assert_eq!(m.os.live_processes(), 0);
        // li(1000) is one lda; loop body is 2 insns × 1000; plus halt.
        assert_eq!(m.gt.insn_count(img, 4), 1000, "subq executed n times");
        assert_eq!(m.gt.insn_count(img, 8), 1000, "bne executed n times");
        assert_eq!(m.gt.insn_count(img, 0), 1, "li once");
        assert_eq!(m.gt.insn_count(img, 12), 1, "halt once");
    }

    #[test]
    fn ground_truth_edges_recorded() {
        let mut m = small_machine(CounterConfig::off());
        let img = m.register_image(countdown_image(10));
        m.spawn(0, img, &[], |_| {});
        m.run_to_completion(10_000, 1_000_000);
        // bne at offset 8: taken back to 4 nine times, falls through once.
        assert_eq!(m.gt.edge_count(img, 8, 4), 9);
        assert_eq!(m.gt.edge_count(img, 8, 12), 1);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = |seed: u32| {
            let mut cfg = MachineConfig::with_counters(CounterConfig::cycles_only((600, 700)));
            cfg.seed = seed;
            let mut m = Machine::new(cfg, RecordingSink::default());
            let img = m.register_image(countdown_image(20_000));
            m.spawn(0, img, &[], |_| {});
            m.run_to_completion(100_000, 100_000_000);
            (m.time(), m.total_samples())
        };
        assert_eq!(run(7), run(7));
        let (t1, _) = run(7);
        let (t2, _) = run(8);
        // Different seeds shift sampling times but the workload is the
        // same; times may differ slightly but both complete.
        assert!(t1 > 0 && t2 > 0);
    }

    #[test]
    fn sampling_attributes_to_loop_pcs() {
        let mut m = small_machine(CounterConfig::cycles_only((500, 600)));
        let img = m.register_image(countdown_image(100_000));
        let pid = m.spawn(0, img, &[], |_| {});
        m.run_to_completion(100_000, 1_000_000_000);
        let sink = &m.sink;
        assert!(
            sink.samples.len() > 50,
            "expected many samples, got {}",
            sink.samples.len()
        );
        // All samples from the countdown process must land in the loop
        // (offsets 4 or 8 from MAIN_BASE) — the only long-running code.
        let in_proc: Vec<_> = sink
            .samples
            .iter()
            .filter(|(_, s, _)| s.pid == pid)
            .collect();
        assert!(!in_proc.is_empty());
        // li(100_000) expands to ldah+lda, so the loop body is at offsets
        // 8 (subq) and 12 (bne). A few samples may land on the entry
        // instructions (interrupts deferred across the context switch are
        // delivered there), but the overwhelming majority must hit the
        // loop.
        let mut in_loop = 0usize;
        for (_, s, _) in &in_proc {
            let off = s.pc.0 - MAIN_BASE.0;
            assert!(off <= 16, "sample at unexpected offset {off}");
            assert_eq!(s.event, Event::Cycles);
            if off == 8 || off == 12 {
                in_loop += 1;
            }
        }
        assert!(
            in_loop * 10 >= in_proc.len() * 9,
            "loop samples {in_loop} of {}",
            in_proc.len()
        );
    }

    #[test]
    fn handler_cost_slows_execution() {
        let run = |cost: u64| {
            let mut m = small_machine(CounterConfig::cycles_only((500, 600)));
            m.sink.cost = cost;
            let img = m.register_image(countdown_image(100_000));
            m.spawn(0, img, &[], |_| {});
            m.run_to_completion(100_000, 1_000_000_000);
            (m.time(), m.total_handler_cycles())
        };
        let (t_free, h_free) = run(0);
        let (t_cost, h_cost) = run(400);
        assert_eq!(h_free, 0);
        assert!(h_cost > 0);
        assert!(
            t_cost > t_free + h_cost / 2,
            "handler cycles should lengthen the run: {t_free} vs {t_cost}"
        );
    }

    #[test]
    fn idle_process_runs_when_no_work() {
        let mut m = small_machine(CounterConfig::cycles_only((500, 600)));
        let kernel = m.os.kernel_image();
        m.run_all_until(200_000);
        // Samples exist and are attributed to the kernel idle loop.
        assert!(!m.sink.samples.is_empty());
        let idle_base = m.os.kernel_proc_addr("_idle_loop").unwrap();
        for (_, s, _) in &m.sink.samples {
            assert!(s.pc.0 >= idle_base.0 && s.pc.0 < idle_base.0 + 12);
        }
        assert!(m.gt.insn_count(kernel, 0) > 0);
    }

    #[test]
    fn two_processes_share_a_cpu() {
        let mut m = small_machine(CounterConfig::off());
        // 20_000 fits in an i16, so li is a single lda and the loop body
        // sits at offsets 4 (subq) and 8 (bne).
        let img = m.register_image(countdown_image(20_000));
        let p1 = m.spawn(0, img, &[], |_| {});
        let p2 = m.spawn(0, img, &[], |_| {});
        assert_ne!(p1, p2);
        m.run_to_completion(50_000, 1_000_000_000);
        assert_eq!(m.os.live_processes(), 0);
        assert_eq!(m.gt.insn_count(img, 4), 40_000, "both ran fully");
    }

    #[test]
    fn processes_on_different_cpus_run_independently() {
        let mut cfg = MachineConfig::with_counters(CounterConfig::off());
        cfg.cpus = 2;
        let mut m = Machine::new(cfg, RecordingSink::default());
        let img = m.register_image(countdown_image(10_000));
        m.spawn(0, img, &[], |_| {});
        m.spawn(1, img, &[], |_| {});
        m.run_to_completion(50_000, 100_000_000);
        assert_eq!(m.os.live_processes(), 0);
        assert!(m.cpus[0].insns_retired > 10_000);
        assert!(m.cpus[1].insns_retired > 10_000);
    }

    /// Everything a run of [`pal_image`] lets a test observe.
    type PalRun = (
        u64,
        u64,
        u64,
        Vec<u64>,
        Vec<(u64, u64, u64)>,
        Vec<(CpuId, Sample, u64)>,
    );

    /// A loop with every `call_pal` function between straight-line runs,
    /// in even slots (a senior that must not take a junior) and odd ones
    /// (a junior that must not be taken).
    fn pal_image() -> Image {
        let pal = |a: &mut Asm, func| a.emit(Instruction::CallPal { func });
        let mut a = Asm::new("/bin/pals");
        a.proc("main");
        a.li(Reg::T0, 200); // w0
        let top = a.here();
        for _ in 0..3 {
            a.addq_lit(Reg::T1, 1, Reg::T1); // w1-w3
        }
        pal(&mut a, PalFunc::Noop); // w4, even slot
        for _ in 0..2 {
            a.addq_lit(Reg::T2, 1, Reg::T2); // w5-w6
        }
        a.syscall(); // w7, odd slot
        for _ in 0..3 {
            a.addq_lit(Reg::T3, 1, Reg::T3); // w8-w10
        }
        a.yield_(); // w11, odd slot
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt(); // w14, even slot
        a.finish()
    }

    #[test]
    fn yield_rotates_processes() {
        let run = |dispatch: DispatchMode| -> (PalRun, DispatchStats) {
            let mut m = small_machine_in(dispatch, CounterConfig::cycles_only((500, 600)));
            m.sink.cost = 120;
            let img = m.register_image(pal_image());
            m.spawn(0, img, &[], |_| {});
            m.spawn(0, img, &[], |_| {});
            m.run_to_completion(100_000, 1_000_000_000);
            assert_eq!(m.os.live_processes(), 0);
            let counts = (0..15).map(|w| m.gt.insn_count(img, w * 4)).collect();
            let observed = (
                m.time(),
                m.last_exit,
                m.total_retired(),
                counts,
                m.gt.edges_of(img),
                std::mem::take(&mut m.sink.samples),
            );
            (observed, m.dispatch_stats())
        };
        let (superblock, sstats) = run(DispatchMode::Superblock);
        let (classic, cstats) = run(DispatchMode::Classic);
        assert_eq!(superblock, classic);
        assert_eq!((sstats.classic_groups, cstats.chain_groups), (0, 0));
        // The walker got past the PAL calls without handing each group
        // back: fewer walks than `noop`s and `syscall`s retired.
        assert!(sstats.chain_entries < 2 * 2 * 200, "{sstats:?}");

        let (time, _, _, counts, _, samples) = superblock;
        assert_eq!(
            counts[4..=14],
            [400, 400, 400, 400, 400, 400, 400, 400, 400, 400, 2]
        );
        // Every yield handed the CPU to the other process, and every
        // syscall charged the kernel's time.
        let cfg = MachineConfig::default();
        assert!(time >= 400 * (cfg.ctx_switch_cost + crate::cpu::SYSCALL_COST));
        assert!(samples.len() > 1_000, "{} samples", samples.len());
    }

    /// A countdown whose body opens with an aligned pair of adds:
    /// independent, or — the twin — the second reading the first's
    /// result, which can never share its cycle.
    fn pair_loop_image(independent: bool) -> Image {
        let mut a = Asm::new("/bin/pairs");
        a.proc("main");
        a.li(Reg::T0, 30_000); // w0
        a.align_even(); // w1
        let top = a.here();
        a.addq_lit(Reg::T1, 1, Reg::T1);
        a.addq_lit(if independent { Reg::T2 } else { Reg::T1 }, 1, Reg::T2);
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top); // reads the subq's result: no pair
        a.halt();
        a.finish()
    }

    #[test]
    fn dual_issue_happens() {
        // (dual issues, iterations begun, time, retired) after 40 000
        // cycles — mid-loop, so the kernel idle loop's own aligned pair
        // never enters the count.
        let run = |independent: bool, dispatch: DispatchMode| {
            let mut m = small_machine_in(dispatch, CounterConfig::off());
            let img = m.register_image(pair_loop_image(independent));
            m.spawn(0, img, &[], |_| {});
            m.run_cpu_until(0, 40_000);
            assert_eq!(m.os.live_processes(), 1, "still inside the loop");
            (
                m.cpus[0].dual_issues,
                m.gt.insn_count(img, 8),
                m.time(),
                m.total_retired(),
            )
        };
        let pairs = run(true, DispatchMode::Superblock);
        let twin = run(false, DispatchMode::Superblock);
        assert_eq!(pairs, run(true, DispatchMode::Classic));
        assert_eq!(twin, run(false, DispatchMode::Classic));
        assert!(pairs.1 > 5_000, "{pairs:?}");
        assert!(twin.0 <= 1, "only `li` and its padding can pair: {twin:?}");
        assert!(
            pairs.0 >= twin.0 + pairs.1,
            "one dual issue per iteration: {pairs:?} against {twin:?}"
        );
    }

    #[test]
    #[should_panic(expected = "page_bytes must be a power of two, got 12288")]
    fn non_power_of_two_pages_are_rejected() {
        let cfg = MachineConfig {
            page_bytes: 12_288,
            ..MachineConfig::default()
        };
        let _ = Machine::new(cfg, NullSink);
    }

    #[test]
    fn memory_program_touches_caches() {
        let mut a = Asm::new("/bin/memtouch");
        a.proc("main");
        a.li(Reg::T1, 0x1000_0000); // data base
        a.li(Reg::T0, 4096);
        let top = a.here();
        a.ldq(Reg::T2, 0, Reg::T1);
        a.lda(Reg::T1, 64, Reg::T1);
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let mut m = small_machine(CounterConfig::off());
        let img = m.register_image(a.finish());
        m.spawn(0, img, &[], |_| {});
        m.run_to_completion(1_000_000, 1_000_000_000);
        assert_eq!(m.os.live_processes(), 0);
        let cpu = &m.cpus[0];
        // Each load strides a full 32-byte L1 line: many misses.
        assert!(cpu.dcache.misses() >= 4096, "{}", cpu.dcache.misses());
        assert!(cpu.dtb.misses() >= 4096 * 64 / 8192, "{}", cpu.dtb.misses());
        assert!(cpu.counters.total(Event::DMiss) >= 4096);
    }

    #[test]
    fn store_heavy_program_exercises_write_buffer() {
        let mut a = Asm::new("/bin/stores");
        a.proc("main");
        a.li(Reg::T1, 0x1000_0000);
        a.li(Reg::T0, 10_000);
        let top = a.here();
        a.stq(Reg::T0, 0, Reg::T1);
        a.stq(Reg::T0, 8, Reg::T1);
        a.stq(Reg::T0, 16, Reg::T1);
        a.stq(Reg::T0, 24, Reg::T1);
        a.lda(Reg::T1, 32, Reg::T1);
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let mut m = small_machine(CounterConfig::off());
        let img = m.register_image(a.finish());
        m.spawn(0, img, &[], |_| {});
        let base = m.run_to_completion(1_000_000, 10_000_000_000);
        // 4 stores retiring at 18 cycles each with a 6-entry buffer must
        // throttle the loop far below its best-case ~4 cycles/iteration.
        assert!(
            base > 10_000 * 4 * m.cfg.model.write_retire_cycles / 2,
            "write buffer should dominate: {base}"
        );
    }

    #[test]
    fn fault_on_wild_jump_kills_process() {
        let mut a = Asm::new("/bin/wild");
        a.proc("main");
        a.li(Reg::T0, 0x0ead_0000);
        a.jsr(Reg::RA, Reg::T0);
        a.halt();
        let mut m = small_machine(CounterConfig::off());
        let img = m.register_image(a.finish());
        m.spawn(0, img, &[], |_| {});
        m.run_to_completion(10_000, 10_000_000);
        assert_eq!(m.os.live_processes(), 0, "faulted process was killed");
    }

    #[test]
    fn itb_misses_on_page_crossing_text() {
        // Text spanning several 8KB pages: sequential execution crosses
        // page boundaries and takes ITB misses.
        let mut m = small_machine(CounterConfig::off());
        let mut a = Asm::new("/bin/bigpages");
        a.proc("main");
        for i in 0..5000 {
            a.addq_lit(Reg::T0, (i % 9) as u8 + 1, Reg::T0);
        }
        a.halt();
        let img = m.register_image(a.finish());
        m.spawn(0, img, &[], |_| {});
        m.run_to_completion(100_000, 100_000_000);
        // 5000 insns = ~20KB of text = 3 pages: at least 2 boundary
        // crossings beyond the first fill.
        assert!(m.cpus[0].itb.misses() >= 3, "{}", m.cpus[0].itb.misses());
    }

    #[test]
    fn random_page_placement_perturbs_board_cache_timing() {
        // A program streaming a working set comparable to the 2MB
        // direct-mapped board cache: with sequential first-touch
        // placement no physical pages collide, while randomized placement
        // produces seed-dependent conflict misses (the §3.3 wave5
        // mechanism).
        let run = |random: bool, seed: u32| {
            let mut cfg = MachineConfig::with_counters(CounterConfig::off());
            cfg.page_alloc_random = random;
            cfg.seed = seed;
            let mut m = Machine::new(cfg, RecordingSink::default());
            let mut a = Asm::new("/bin/stream");
            a.proc("main");
            a.li(Reg::S0, 3);
            let outer = a.here();
            a.li(Reg::T1, 0x1000_0000);
            a.li(Reg::T0, 24_000); // 24K lines × 64B = 1.5MB
            let top = a.here();
            a.ldq(Reg::T4, 0, Reg::T1);
            a.lda(Reg::T1, 64, Reg::T1);
            a.subq_lit(Reg::T0, 1, Reg::T0);
            a.bne(Reg::T0, top);
            a.subq_lit(Reg::S0, 1, Reg::S0);
            a.bne(Reg::S0, outer);
            a.halt();
            let img = m.register_image(a.finish());
            m.spawn(0, img, &[], |_| {});
            m.run_to_completion(1_000_000, 10_000_000_000);
            m.last_exit
        };
        let seq1 = run(false, 1);
        let seq2 = run(false, 2);
        assert_eq!(seq1, seq2, "sequential placement is seed-independent");
        let rnd: Vec<u64> = (1..=4).map(|s| run(true, s)).collect();
        let min = *rnd.iter().min().unwrap();
        let max = *rnd.iter().max().unwrap();
        assert!(max > min, "random placement must vary: {rnd:?}");
        // Random placement collides pages the sequential layout keeps
        // apart, so it is never faster.
        assert!(min >= seq1, "random {min} vs sequential {seq1}");
    }

    #[test]
    fn default_config_counts_imiss_samples() {
        let mut m = small_machine(CounterConfig::default_config((300, 400)));
        // A large program with poor I-cache locality: many procedures
        // called in sequence, text > I-cache.
        let mut a = Asm::new("/bin/bigtext");
        a.proc("main");
        a.li(Reg::S0, 300);
        let top = a.here();
        // Long straight-line body (1024 instructions ≈ 4KB text).
        for i in 0..1024 {
            a.addq_lit(Reg::T0, (i % 7) as u8 + 1, Reg::T0);
        }
        a.subq_lit(Reg::S0, 1, Reg::S0);
        a.bne(Reg::S0, top);
        a.halt();
        let img = m.register_image(a.finish());
        m.spawn(0, img, &[], |_| {});
        m.run_to_completion(1_000_000, 1_000_000_000);
        assert!(m.cpus[0].counters.total(Event::IMiss) > 0);
    }
}
