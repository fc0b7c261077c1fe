//! The experiment driver: runs a workload under one of the paper's four
//! profiling configurations and collects everything the benchmark harness
//! needs.
//!
//! Configurations (§5): `base` (no profiling at all), `cycles` (CYCLES
//! only), `default` (CYCLES + IMISS), and `mux` (CYCLES on one counter,
//! the second multiplexing IMISS/DMISS/BRANCHMP).

use crate::programs::{self, KernelAddrs, QueryKind, StreamKind};
use dcpi_collect::daemon::DaemonStats;
use dcpi_collect::driver::DriverStats;
use dcpi_collect::faults::LossLedger;
use dcpi_collect::session::{ProfiledRun, SessionConfig};
use dcpi_core::{EdgeProfiles, ImageId, ProfileSet, Sample};
use dcpi_isa::image::Image;
use dcpi_machine::counters::CounterConfig;
use dcpi_machine::machine::{Machine, NullSink, SampleSink};
use dcpi_machine::{DispatchMode, DispatchStats, GroundTruth, MachineConfig};
use dcpi_obs::{ObsConfig, OverheadLedger, Snapshot};
use dcpi_stacks::StackProfile;
use std::path::PathBuf;
use std::sync::Arc;

/// The paper's workloads (Table 2), as synthetic equivalents.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Workload {
    /// One of the four McCalpin STREAM loops.
    McCalpin(StreamKind),
    /// The x11perf-like server.
    X11Perf,
    /// gcc: many short-lived compiler processes.
    Gcc,
    /// wave5: FP program with page-mapping-sensitive `smooth_`.
    Wave5,
    /// AltaVista-like search (4 CPUs, 8 outstanding queries).
    AltaVista,
    /// DSS query (8 CPUs).
    Dss,
    /// Parallel SPECfp (4 CPUs).
    ParallelFp,
    /// Timesharing mix (4 CPUs, uneven load, idle tails).
    Timesharing,
    /// Deep self-recursion (calling-context stress: long chains).
    DeepRecursion,
    /// Mutual even/odd recursion (alternating-procedure stacks).
    MutualRecursion,
    /// Dispatch-heavy server: indirect `jsr` fan-out to handlers.
    DispatchServer,
}

impl Workload {
    /// All workloads: Table 2's in order, then the calling-context trio.
    pub const ALL: [Workload; 14] = [
        Workload::McCalpin(StreamKind::Copy),
        Workload::McCalpin(StreamKind::Scale),
        Workload::McCalpin(StreamKind::Sum),
        Workload::McCalpin(StreamKind::Saxpy),
        Workload::X11Perf,
        Workload::Gcc,
        Workload::Wave5,
        Workload::AltaVista,
        Workload::Dss,
        Workload::ParallelFp,
        Workload::Timesharing,
        Workload::DeepRecursion,
        Workload::MutualRecursion,
        Workload::DispatchServer,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            Workload::McCalpin(k) => format!("mccalpin-{}", k.name()),
            Workload::X11Perf => "x11perf".into(),
            Workload::Gcc => "gcc".into(),
            Workload::Wave5 => "wave5".into(),
            Workload::AltaVista => "altavista".into(),
            Workload::Dss => "dss".into(),
            Workload::ParallelFp => "parallel-specfp".into(),
            Workload::Timesharing => "timesharing".into(),
            Workload::DeepRecursion => "deep-recursion".into(),
            Workload::MutualRecursion => "mutual-recursion".into(),
            Workload::DispatchServer => "dispatch-server".into(),
        }
    }

    /// A per-workload scale multiplier that brings every workload to a
    /// comparable 15-60M-cycle base run at `RunOptions::scale == 1` —
    /// long enough for overhead and eviction effects to be measurable.
    #[must_use]
    pub fn default_scale(self) -> u32 {
        match self {
            Workload::McCalpin(_) => 2,
            Workload::X11Perf => 8,
            Workload::Gcc => 15,
            Workload::Wave5 => 4,
            Workload::AltaVista => 25,
            Workload::Dss => 20,
            Workload::ParallelFp => 15,
            Workload::Timesharing => 12,
            Workload::DeepRecursion => 10,
            Workload::MutualRecursion => 8,
            Workload::DispatchServer => 10,
        }
    }

    /// Processor count, mirroring Table 2's platforms.
    #[must_use]
    pub fn cpus(self) -> usize {
        match self {
            Workload::AltaVista | Workload::ParallelFp | Workload::Timesharing => 4,
            Workload::Dss => 8,
            Workload::DispatchServer => 2,
            _ => 1,
        }
    }
}

/// Profiling configuration (§5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProfConfig {
    /// No monitoring.
    Base,
    /// CYCLES only.
    Cycles,
    /// CYCLES + IMISS (the shipped default).
    Default,
    /// CYCLES + multiplexed IMISS/DMISS/BRANCHMP.
    Mux,
}

impl ProfConfig {
    /// All configurations, in Table 3 column order.
    pub const ALL: [ProfConfig; 4] = [
        ProfConfig::Base,
        ProfConfig::Cycles,
        ProfConfig::Default,
        ProfConfig::Mux,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProfConfig::Base => "base",
            ProfConfig::Cycles => "cycles",
            ProfConfig::Default => "default",
            ProfConfig::Mux => "mux",
        }
    }

    fn counters(self, period: (u64, u64)) -> CounterConfig {
        match self {
            ProfConfig::Base => CounterConfig::off(),
            ProfConfig::Cycles => CounterConfig::cycles_only(period),
            ProfConfig::Default => CounterConfig::default_config(period),
            ProfConfig::Mux => CounterConfig::mux_config(period, 1_000_000),
        }
    }
}

/// Options for one run.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RunOptions {
    /// Master seed (sampling periods, page placement, index layout).
    pub seed: u32,
    /// Work multiplier.
    pub scale: u32,
    /// Sampling period range (the paper's default is 60K–64K cycles);
    /// `(p, p)` samples at the fixed period `p`.
    pub period: (u64, u64),
    /// Collect up to this many raw samples for trace-driven analysis.
    pub trace_limit: usize,
    /// Write profiles to an on-disk database here.
    pub db_path: Option<PathBuf>,
    /// Cycle budget; runs are cut off beyond this.
    pub limit: u64,
    /// Override the interrupt skid (cycles between counter overflow and
    /// delivery); `None` keeps the model's default of 6.
    pub skid: Option<u64>,
    /// Enable self-observability: metrics, trace rings, and the
    /// overhead/sample ledgers ([`RunResult::obs`]). No effect on
    /// `base` runs (nothing to observe).
    pub obs: bool,
    /// Execution-core dispatch mode. `Superblock` (the default) and
    /// `Classic` produce bit-identical results; the parity suite runs
    /// every workload under both.
    pub dispatch: DispatchMode,
    /// Walk the call stack at every sample delivery (the calling-context
    /// extension). Off by default: the walk charges real handler cycles,
    /// so it perturbs timing-sensitive golden outputs.
    pub stack_walk: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            seed: 1,
            scale: 1,
            period: (60 * 1024, 64 * 1024),
            trace_limit: 0,
            db_path: None,
            limit: 4_000_000_000,
            skid: None,
            obs: false,
            dispatch: DispatchMode::default(),
            stack_walk: false,
        }
    }
}

/// Everything a run produced.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The workload.
    pub workload: Workload,
    /// The profiling configuration.
    pub config: ProfConfig,
    /// Final machine time in cycles (the "running time").
    pub cycles: u64,
    /// Samples delivered to the driver.
    pub samples: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Driver statistics (absent for `base`).
    pub driver: Option<DriverStats>,
    /// Daemon statistics (absent for `base`).
    pub daemon: Option<DaemonStats>,
    /// Kernel memory held by the driver, bytes (absent for `base`).
    pub driver_kernel_bytes: u64,
    /// Accumulated profiles.
    pub profiles: ProfileSet,
    /// Interpreted branch-direction samples (§7 extension).
    pub edge_profiles: EdgeProfiles,
    /// Registered images (for symbolization).
    pub images: Vec<(ImageId, Arc<Image>)>,
    /// The kernel image id.
    pub kernel_image: ImageId,
    /// Exact execution counts.
    pub gt: GroundTruth,
    /// Logged raw samples (when `trace_limit > 0`).
    pub trace: Vec<Sample>,
    /// Database size on disk, bytes (0 without a database).
    pub disk_bytes: u64,
    /// End-to-end sample ledger (absent for `base`).
    pub ledger: Option<LossLedger>,
    /// Calling-context profile, merged across epochs and CPUs (empty
    /// unless `RunOptions::stack_walk` was set on a profiled run).
    pub stacks: StackProfile,
    /// Collection-overhead ledger (absent for `base`).
    pub overhead: Option<OverheadLedger>,
    /// Full observability snapshot (present when `RunOptions::obs`).
    pub obs: Option<Snapshot>,
    /// Dispatch-path accounting (chain vs. classic issue groups),
    /// aggregated across CPUs.
    pub dispatch: DispatchStats,
}

fn kernel_addrs<S: SampleSink>(m: &Machine<S>) -> KernelAddrs {
    KernelAddrs {
        bcopy: m.os.kernel_proc_addr("bcopy").expect("kernel proc"),
        in_checksum: m.os.kernel_proc_addr("in_checksum").expect("kernel proc"),
        dispatch: m.os.kernel_proc_addr("Dispatch").expect("kernel proc"),
    }
}

/// Spawns a workload's processes, optionally substituting the workload
/// image (e.g. a PGO-rewritten copy) for the default one. The override
/// replaces the single user image every workload registers; kernel code
/// is untouched.
pub fn spawn_with<S: SampleSink>(
    w: Workload,
    m: &mut Machine<S>,
    opts: &RunOptions,
    image_override: Option<&Image>,
) {
    let scale = opts.scale.max(1);
    let pick = |default: Image| -> Image { image_override.cloned().unwrap_or(default) };
    match w {
        Workload::McCalpin(kind) => {
            let img = m.register_image(pick(programs::mccalpin_image(kind, 256 * 1024, 2 * scale)));
            m.spawn(0, img, &[], |_| {});
        }
        Workload::X11Perf => {
            let k = kernel_addrs(m);
            let img = m.register_image(pick(programs::x11_image(&k, 40 * scale)));
            m.spawn(0, img, &[], |_| {});
        }
        Workload::Gcc => {
            let img = m.register_image(pick(programs::compile_image(3 * scale)));
            for _ in 0..14 {
                m.spawn(0, img, &[], |_| {});
            }
        }
        Workload::Wave5 => {
            let img = m.register_image(pick(programs::wave5_image(scale)));
            m.spawn(0, img, &[], |_| {});
        }
        Workload::AltaVista => {
            let k = kernel_addrs(m);
            let img = m.register_image(pick(programs::query_image(
                QueryKind::Search,
                &k,
                30 * scale,
            )));
            let seed = opts.seed;
            for q in 0..8usize {
                let s = u64::from(seed) * 31 + q as u64;
                m.spawn(q % 4, img, &[], move |p| {
                    programs::init_index(p, 2048, s.max(1));
                });
            }
        }
        Workload::Dss => {
            let k = kernel_addrs(m);
            let img = m.register_image(pick(programs::query_image(QueryKind::Dss, &k, 20 * scale)));
            for cpu in 0..8 {
                m.spawn(cpu, img, &[], |_| {});
            }
        }
        Workload::ParallelFp => {
            let img = m.register_image(pick(programs::fp_kernel_image(4 * scale)));
            for cpu in 0..4 {
                m.spawn(cpu, img, &[], |_| {});
            }
        }
        Workload::DeepRecursion => {
            let img = m.register_image(pick(programs::recursion_image(scale)));
            m.spawn(0, img, &[], |_| {});
        }
        Workload::MutualRecursion => {
            let img = m.register_image(pick(programs::mutual_image(scale)));
            m.spawn(0, img, &[], |_| {});
        }
        Workload::DispatchServer => {
            let img = m.register_image(pick(programs::server_image(scale)));
            for cpu in 0..2 {
                m.spawn(cpu, img, &[], |_| {});
            }
        }
        Workload::Timesharing => {
            let img = m.register_image(pick(programs::shell_image()));
            // Uneven load: CPU 0 gets the most jobs, CPU 3 the fewest, so
            // idle time appears on some processors.
            for cpu in 0..4usize {
                for j in 0..(8 - 2 * cpu) {
                    let work = i64::from(scale) * (30_000 + 9_000 * j as i64);
                    m.spawn(cpu, img, &[], move |p| {
                        p.set_reg(dcpi_isa::reg::Reg::A1, work as u64);
                    });
                }
            }
        }
    }
}

/// Runs a workload under a configuration.
#[must_use]
pub fn run_workload(w: Workload, prof: ProfConfig, opts: &RunOptions) -> RunResult {
    run_with(w, prof, opts, None).0
}

/// [`run_workload`] with `image_override` standing in for the workload
/// image ([`spawn_with`]); the flag says whether any process exited
/// before `opts.limit`.
pub(crate) fn run_with(
    w: Workload,
    prof: ProfConfig,
    opts: &RunOptions,
    image_override: Option<&Image>,
) -> (RunResult, bool) {
    // The run's seed and dispatch mode, and random physical page
    // placement for wave5 alone (the board-cache conflicts of §3.3).
    let mut mc = MachineConfig {
        cpus: w.cpus(),
        seed: opts.seed,
        page_alloc_random: w == Workload::Wave5,
        dispatch: opts.dispatch,
        counters: prof.counters(opts.period),
        stack_walk: opts.stack_walk,
        ..MachineConfig::default()
    };
    if let Some(skid) = opts.skid {
        mc.model.interrupt_skid = skid;
    }
    if prof == ProfConfig::Base {
        let mut m = Machine::new(mc, NullSink);
        spawn_with(w, &mut m, opts, image_override);
        m.run_to_completion(500_000, opts.limit);
        return finish(w, prof, &mut m);
    }
    let scfg = SessionConfig {
        machine: mc,
        trace_limit: opts.trace_limit,
        daemon: dcpi_collect::daemon::DaemonConfig {
            db_path: opts.db_path.clone(),
            ..dcpi_collect::daemon::DaemonConfig::default()
        },
        obs: if opts.obs {
            ObsConfig::on()
        } else {
            ObsConfig::default()
        },
        ..SessionConfig::default()
    };
    let mut run = ProfiledRun::new(scfg).expect("session setup");
    spawn_with(w, &mut run.machine, opts, image_override);
    run.run_to_completion(opts.limit);
    let ledger = run.ledger();
    let overhead = run.overhead_ledger();
    let obs = opts.obs.then(|| run.obs_snapshot());
    let disk_bytes = run
        .daemon
        .db()
        .and_then(|db| db.disk_usage().ok())
        .unwrap_or(0);
    let profiles = match run.daemon.db() {
        Some(db) => db.read_all().unwrap_or_default(),
        None => run.daemon.profiles().clone(),
    };
    // Stack counts flushed to the database's epoch sidecars were
    // cleared from daemon memory at flush time, so read them back and
    // fold in whatever is still buffered (nothing double-counts).
    let mut stacks = match run.daemon.db() {
        Some(db) => dcpi_collect::daemon::read_all_stacks(db).unwrap_or_default(),
        None => StackProfile::new(),
    };
    stacks.merge(run.stack_profile());
    let edge_profiles = run.daemon.edge_profiles().clone();
    let m = &mut run.machine;
    let (machine, exited) = finish(w, prof, m);
    let result = RunResult {
        edge_profiles,
        driver: Some(m.sink.total_stats()),
        daemon: Some(run.daemon.stats),
        driver_kernel_bytes: m
            .sink
            .per_cpu
            .iter()
            .map(dcpi_collect::driver::CpuDriver::kernel_memory_bytes)
            .sum(),
        profiles,
        trace: std::mem::take(&mut m.sink.trace),
        disk_bytes,
        stacks,
        ledger: Some(ledger),
        overhead: Some(overhead),
        obs,
        ..machine
    };
    (result, exited)
}

/// What every run reads off its stopped machine — its images, cycles,
/// retirements, dispatch counts and ground truth, with the collection
/// fields empty (a `base` run's whole result) — and whether any process
/// exited.
fn finish<S: SampleSink>(w: Workload, prof: ProfConfig, m: &mut Machine<S>) -> (RunResult, bool) {
    let exited = m.last_exit > 0;
    let result = RunResult {
        workload: w,
        config: prof,
        cycles: if exited { m.last_exit } else { m.time() },
        samples: m.total_samples(),
        retired: m.total_retired(),
        driver: None,
        daemon: None,
        driver_kernel_bytes: 0,
        profiles: ProfileSet::new(),
        edge_profiles: EdgeProfiles::new(),
        images: m
            .os
            .images()
            .map(|li| (li.id, Arc::clone(&li.image)))
            .collect(),
        kernel_image: m.os.kernel_image(),
        gt: std::mem::take(&mut m.gt),
        trace: Vec::new(),
        disk_bytes: 0,
        stacks: StackProfile::new(),
        ledger: None,
        overhead: None,
        obs: None,
        dispatch: m.dispatch_stats(),
    };
    (result, exited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::Event;

    fn quick_opts() -> RunOptions {
        RunOptions {
            scale: 1,
            period: (6_000, 6_400),
            limit: 400_000_000,
            ..RunOptions::default()
        }
    }

    #[test]
    fn mccalpin_copy_runs_and_profiles() {
        let r = run_workload(
            Workload::McCalpin(StreamKind::Copy),
            ProfConfig::Cycles,
            &quick_opts(),
        );
        assert!(r.cycles > 1_000_000, "cycles = {}", r.cycles);
        assert!(r.samples > 100, "samples = {}", r.samples);
        assert!(r.profiles.event_total(Event::Cycles) > 0);
        // The copy image should hold nearly all samples.
        let copy_img = r
            .images
            .iter()
            .find(|(_, img)| img.name().contains("mccalpin_copy"))
            .map(|(id, _)| *id)
            .unwrap();
        let p = r.profiles.get(copy_img, Event::Cycles).unwrap();
        assert!(p.total() * 10 >= r.samples * 8);
    }

    #[test]
    fn base_config_is_faster_than_profiled() {
        let w = Workload::McCalpin(StreamKind::Sum);
        let mut opts = quick_opts();
        opts.period = (800, 900); // dense sampling exaggerates overhead
        let base = run_workload(w, ProfConfig::Base, &opts);
        let prof = run_workload(w, ProfConfig::Cycles, &opts);
        assert!(base.samples == 0 && prof.samples > 0);
        assert!(
            prof.cycles > base.cycles,
            "profiling must cost cycles: {} vs {}",
            base.cycles,
            prof.cycles
        );
        // The workload image's retirement counts are identical: profiling
        // does not change the executed work (total counts differ only by
        // idle-loop tails).
        let image_total = |r: &RunResult| -> u64 {
            let (id, img) = r
                .images
                .iter()
                .find(|(_, img)| img.name().contains("mccalpin"))
                .expect("workload image");
            (0..img.words().len() as u64)
                .map(|w| r.gt.insn_count(*id, w * 4))
                .sum()
        };
        assert_eq!(image_total(&base), image_total(&prof));
    }

    #[test]
    fn gcc_has_higher_eviction_rate_than_x11() {
        let mut opts = quick_opts();
        opts.period = (3_000, 3_400);
        let gcc = run_workload(Workload::Gcc, ProfConfig::Cycles, &opts);
        let x11 = run_workload(Workload::X11Perf, ProfConfig::Cycles, &opts);
        let g = gcc.driver.unwrap().miss_rate();
        let x = x11.driver.unwrap().miss_rate();
        assert!(
            g > x,
            "gcc ({g:.3}) must evict more than x11 ({x:.3}) — the §5.1 effect"
        );
    }

    #[test]
    fn multiprocessor_workloads_use_all_cpus() {
        let r = run_workload(Workload::ParallelFp, ProfConfig::Cycles, &quick_opts());
        assert_eq!(r.workload.cpus(), 4);
        assert!(r.samples > 0);
        assert!(r.retired > 100_000);
    }

    #[test]
    fn x11_profile_lands_in_kernel_too() {
        let mut opts = quick_opts();
        opts.period = (2_000, 2_200);
        let r = run_workload(Workload::X11Perf, ProfConfig::Cycles, &opts);
        let k = r.profiles.get(r.kernel_image, Event::Cycles);
        assert!(
            k.is_some_and(|p| p.total() > 0),
            "bcopy/in_checksum time should appear under /vmunix"
        );
    }

    #[test]
    fn wave5_varies_across_seeds() {
        let mut opts = quick_opts();
        let mut times = Vec::new();
        for seed in 1..=4 {
            opts.seed = seed;
            let r = run_workload(Workload::Wave5, ProfConfig::Base, &opts);
            times.push(r.cycles);
        }
        let min = *times.iter().min().unwrap();
        let max = *times.iter().max().unwrap();
        assert!(
            (max - min) as f64 / min as f64 > 0.01,
            "page placement should induce >1% variance: {times:?}"
        );
    }

    #[test]
    fn default_config_collects_imiss() {
        let mut opts = quick_opts();
        opts.period = (2_000, 2_200);
        let r = run_workload(Workload::Gcc, ProfConfig::Default, &opts);
        assert!(
            r.profiles.event_total(Event::IMiss) > 0,
            "gcc thrashes the I-cache; IMISS samples must appear"
        );
    }

    #[test]
    fn obs_run_yields_conserving_ledgers() {
        let opts = RunOptions {
            obs: true,
            limit: 400_000_000,
            ..RunOptions::default()
        };
        let r = run_workload(
            Workload::McCalpin(StreamKind::Copy),
            ProfConfig::Cycles,
            &opts,
        );
        let ledger = r.ledger.expect("ledger");
        assert!(ledger.conserves(), "{}", ledger.render());
        let oh = r.overhead.expect("overhead ledger");
        assert!(oh.consistent());
        assert!(oh.samples > 0);
        // At the paper's default 60K–64K period the overhead sits in the
        // low single digits (Table 3's 1–3% band, with the obs audit's
        // slack for the shortened run).
        let (lo, hi) = dcpi_check::AUDIT_BAND;
        assert!(
            oh.in_band(lo, hi),
            "overhead fraction {:.4} out of range",
            oh.fraction()
        );
        let snap = r.obs.expect("snapshot");
        assert!(!snap.metrics.counters.is_empty());
        assert_eq!(snap.samples.map(|s| s.generated), Some(ledger.generated));
        // base runs carry no observability state at all.
        let base = run_workload(
            Workload::McCalpin(StreamKind::Copy),
            ProfConfig::Base,
            &opts,
        );
        assert!(base.ledger.is_none() && base.obs.is_none());
    }

    #[test]
    fn deep_recursion_stack_walk_conserves_and_captures_depth() {
        let opts = RunOptions {
            stack_walk: true,
            period: (4_000, 4_400),
            limit: 400_000_000,
            ..RunOptions::default()
        };
        let r = run_workload(Workload::DeepRecursion, ProfConfig::Cycles, &opts);
        assert!(r.samples > 200, "samples = {}", r.samples);
        // One stack per delivered sample: walks bypass the driver hash
        // table, so the profile conserves exactly.
        assert_eq!(r.stacks.total(), r.samples);
        assert!(r.stacks.table.check_bijective().is_ok());
        let max_depth = r
            .stacks
            .counts
            .keys()
            .map(|&(_, _, id)| r.stacks.table.frames(id).len())
            .max()
            .unwrap();
        assert!(
            max_depth as i64 >= programs::RECURSION_DEPTH - 4,
            "recursion chains must be recovered nearly in full: max depth {max_depth}"
        );
    }

    #[test]
    fn dispatch_server_stacks_reach_through_indirect_calls() {
        let opts = RunOptions {
            stack_walk: true,
            period: (3_000, 3_300),
            limit: 400_000_000,
            ..RunOptions::default()
        };
        let r = run_workload(Workload::DispatchServer, ProfConfig::Cycles, &opts);
        assert_eq!(r.stacks.total(), r.samples);
        // Leaf samples in `svc_csum` must see csum < handler < main.
        let max_depth = r
            .stacks
            .counts
            .keys()
            .map(|&(_, _, id)| r.stacks.table.frames(id).len())
            .max()
            .unwrap();
        assert!(max_depth >= 3, "jsr-through-t12 frames lost: {max_depth}");
    }

    #[test]
    fn stack_walk_off_leaves_profile_empty() {
        let r = run_workload(Workload::MutualRecursion, ProfConfig::Cycles, &quick_opts());
        assert!(r.samples > 0);
        assert!(r.stacks.is_empty());
    }

    #[test]
    fn timesharing_finishes_with_idle_tails() {
        let r = run_workload(Workload::Timesharing, ProfConfig::Cycles, &quick_opts());
        assert!(r.samples > 0);
        // Kernel idle loop must have accumulated samples on the
        // lightly-loaded CPUs.
        let k = r.profiles.get(r.kernel_image, Event::Cycles);
        assert!(k.is_some_and(|p| p.total() > 0));
    }
}
