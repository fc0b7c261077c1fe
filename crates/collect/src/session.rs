//! A profiled run: machine + driver + daemon wired together.
//!
//! The experiment harness uses [`ProfiledRun`] to execute a workload under
//! profiling: the machine delivers counter-overflow samples to the driver
//! (charging handler cycles to the interrupted CPU), and between run
//! quanta the daemon consumes loader notifications, drains full overflow
//! buffers, performs the periodic full flush, and has its processing cost
//! charged to CPU 0 — reproducing both components of the paper's overhead
//! (§5.2).

use crate::daemon::{Daemon, DaemonConfig, DaemonStats};
use crate::driver::{CostModel, CpuDriver, Driver, DriverConfig, DriverStats};
use crate::faults::{Backpressure, CrashFault, FaultInjector, FaultPlan, LossLedger};
use dcpi_core::db::ProfileDb;
use dcpi_core::{Addr, UNKNOWN_IMAGE};
use dcpi_core::{ImageId, Pid, Profile, ProfileKey, ProfileSet, Result};
use dcpi_isa::image::Image;
use dcpi_machine::machine::Machine;
use dcpi_machine::MachineConfig;
use dcpi_obs::{Component, Obs, ObsConfig, OverheadLedger, Published, Snapshot};

/// Configuration of a profiled run.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// The machine (including the counter configuration: `cycles`,
    /// `default`, or `mux`).
    pub machine: MachineConfig,
    /// Driver tuning.
    pub driver: DriverConfig,
    /// Handler cost model.
    pub cost: CostModel,
    /// Daemon tuning.
    pub daemon: DaemonConfig,
    /// Cycles between daemon polls of the driver and OS.
    pub poll_quantum: u64,
    /// Cycles between full hash-table flushes (the paper's 5-minute
    /// drain, scaled to simulation time).
    pub flush_interval: u64,
    /// Log up to this many raw samples for trace-driven analysis.
    pub trace_limit: usize,
    /// Fault schedule to inject ([`FaultPlan::none`] for a clean run —
    /// the default, which costs nothing on the pump path).
    pub faults: FaultPlan,
    /// Driver backpressure: raise the sampling period when the drop
    /// rate crosses a threshold (`None` = fixed period).
    pub backpressure: Option<Backpressure>,
    /// Self-observability: metrics, trace rings, and the overhead
    /// ledger. Disabled by default — a disabled probe is a single
    /// atomic-bool load on every hook point.
    pub obs: ObsConfig,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            machine: MachineConfig::default(),
            driver: DriverConfig::default(),
            cost: CostModel::default(),
            daemon: DaemonConfig::default(),
            poll_quantum: 200_000,
            flush_interval: 20_000_000,
            trace_limit: 0,
            faults: FaultPlan::none(),
            backpressure: None,
            obs: ObsConfig::default(),
        }
    }
}

/// A machine being profiled by the full collection subsystem.
#[derive(Debug)]
pub struct ProfiledRun {
    /// The machine, with the driver installed as its sample sink.
    pub machine: Machine<Driver>,
    /// The user-mode daemon.
    pub daemon: Daemon,
    /// The fault injector applying the configured [`FaultPlan`] (empty
    /// plan = every check short-circuits).
    pub injector: FaultInjector,
    /// Disk flushes that failed (the error is surfaced here instead of
    /// being swallowed; the samples stay in daemon memory).
    pub flush_failures: u64,
    /// Times backpressure raised the sampling period.
    pub backpressure_raises: u64,
    /// The observability handle shared by every component of the run.
    pub obs: Obs,
    /// The stats of every daemon a crash replaced, oldest first.
    retired_daemons: Vec<DaemonStats>,
    daemon_cfg: DaemonConfig,
    backpressure: Option<Backpressure>,
    cfg_poll: u64,
    cfg_flush: u64,
    next_flush: u64,
    last_disk_flush: u64,
    mid_flush: bool,
    bp_last_dropped: u64,
    bp_last_interrupts: u64,
}

impl ProfiledRun {
    /// Builds the profiled machine and performs the daemon's startup scan.
    ///
    /// # Errors
    ///
    /// Returns an error if the daemon's database cannot be created.
    pub fn new(cfg: SessionConfig) -> Result<ProfiledRun> {
        let obs = Obs::new(&cfg.obs);
        let cpus = cfg.machine.cpus;
        let mut driver = Driver::new(cpus, cfg.driver.clone(), cfg.cost);
        driver.set_obs(&obs);
        driver.trace_limit = cfg.trace_limit;
        let mut machine = Machine::new(cfg.machine.clone(), driver);
        machine.set_obs(&obs);
        let mut daemon = Daemon::new(cfg.daemon.clone())?;
        daemon.attach_obs(&obs);
        daemon.startup_scan(&machine.os);
        let mut injector = FaultInjector::new(cfg.faults);
        injector.attach_obs(&obs);
        Ok(ProfiledRun {
            machine,
            daemon,
            injector,
            flush_failures: 0,
            backpressure_raises: 0,
            obs,
            retired_daemons: Vec::new(),
            daemon_cfg: cfg.daemon,
            backpressure: cfg.backpressure,
            cfg_poll: cfg.poll_quantum.max(1),
            cfg_flush: cfg.flush_interval.max(1),
            next_flush: cfg.flush_interval.max(1),
            last_disk_flush: 0,
            mid_flush: false,
            bp_last_dropped: 0,
            bp_last_interrupts: 0,
        })
    }

    /// Registers an image (see [`Machine::register_image`]), refreshing
    /// the daemon's image records (names + saved executables).
    pub fn register_image(&mut self, image: Image) -> ImageId {
        let id = self.machine.register_image(image);
        self.daemon.startup_scan(&self.machine.os);
        id
    }

    /// Spawns a process (see [`Machine::spawn`]).
    pub fn spawn(
        &mut self,
        cpu: usize,
        main: ImageId,
        extra: &[(ImageId, Addr)],
        setup: impl FnOnce(&mut dcpi_machine::proc::Process),
    ) -> Pid {
        self.machine.spawn(cpu, main, extra, setup)
    }

    /// One daemon service pass: consume OS events, drain full buffers (or
    /// everything when the flush timer fires), and charge daemon cost.
    /// Injected faults act here: a stalled daemon services nothing, a
    /// scheduled crash replaces it (restarting against the same database
    /// and re-running the §4.3.2 startup scan), and a torn flush leaves
    /// the §4.2.3 bypass window open until the next pump.
    pub fn pump(&mut self) {
        let now = self.machine.time();
        self.obs.advance_cycle(now);
        self.obs.begin(Component::Session, "session.pump");
        self.pump_inner(now);
        self.obs.end(Component::Session, "session.pump", now, 0);
    }

    fn pump_inner(&mut self, now: u64) {
        if self.injector.stalled(now) {
            // The daemon is wedged: notifications queue in the OS and
            // the kernel-side buffers fill until samples drop (§4.2.1).
            return;
        }
        if let Some(crash) = self.injector.crash_due(now) {
            self.crash(now, &crash);
        }
        let drained = self.machine.os.drain_events();
        let events = self.injector.admit_events(now, drained);
        self.daemon.handle_events(events);
        if self.mid_flush {
            // Close the flush window torn open at the previous pump: the
            // overflow buffers caught everything the bypass path wrote.
            for cpu in &mut self.machine.sink.per_cpu {
                let entries = cpu.end_flush();
                self.daemon.process_entries(&entries);
            }
            self.mid_flush = false;
        }
        let full_flush = now >= self.next_flush;
        if full_flush {
            self.next_flush = now + self.cfg_flush;
        }
        let torn = self.injector.torn_flush_due(now);
        for cpu in &mut self.machine.sink.per_cpu {
            drain_side_samples(cpu, &mut self.daemon);
            let entries = if torn {
                // Tear the flush: drain the table but leave the flag up;
                // interrupts bypass to the buffers until the next pump.
                cpu.begin_flush()
            } else if full_flush {
                cpu.flush()
            } else if cpu.buffer_full {
                cpu.drain_overflow()
            } else {
                continue;
            };
            self.daemon.process_entries(&entries);
        }
        if torn {
            self.mid_flush = true;
        }
        if full_flush {
            self.daemon.reap();
            self.daemon.update_memory(&self.machine.os);
            // The paper's periodic database merge (§4.3.3): after it, a
            // daemon crash can lose at most one flush interval of data.
            self.flush_to_disk(now);
        }
        self.apply_backpressure();
        self.charge_daemon_cost();
    }

    /// Writes the daemon's profiles to its database, stamped `at`. A
    /// failure leaves the samples in daemon memory and is counted in
    /// [`ProfiledRun::flush_failures`] (published as
    /// `session.flush_failures`).
    fn flush_to_disk(&mut self, at: u64) {
        if self.daemon.flush_to_disk().is_err() {
            self.flush_failures += 1;
        } else {
            self.last_disk_flush = at;
        }
    }

    /// Charges the daemon's modeled processing cycles to CPU 0 (§5.2).
    fn charge_daemon_cost(&mut self) {
        let cost = self.daemon.take_accrued_cycles();
        if cost > 0 {
            self.machine.charge_cycles(0, cost);
        }
    }

    /// Raises the sampling period when the drop rate since the previous
    /// pump crosses the configured threshold: shedding interrupt load is
    /// the graceful alternative to losing an unbounded sample stream.
    fn apply_backpressure(&mut self) {
        let Some(bp) = self.backpressure else { return };
        let s = self.machine.sink.total_stats();
        let d_dropped = s.dropped - self.bp_last_dropped;
        let d_interrupts = s.interrupts - self.bp_last_interrupts;
        self.bp_last_dropped = s.dropped;
        self.bp_last_interrupts = s.interrupts;
        if d_interrupts == 0 || (d_dropped as f64) < bp.drop_threshold * (d_interrupts as f64) {
            return;
        }
        let (lo, hi) = self.machine.sampling_period();
        let new = (
            lo.saturating_mul(bp.factor).min(bp.max_period),
            hi.saturating_mul(bp.factor).min(bp.max_period),
        );
        if new != (lo, hi) {
            self.machine.set_sampling_period(new);
            self.backpressure_raises += 1;
        }
    }

    /// A scheduled daemon crash: whatever lived only in daemon memory —
    /// profiles, loadmaps — is gone; the on-disk database may be torn.
    /// The crashed daemon's stats stay with the session, so
    /// [`ProfiledRun::daemon_stats`] covers every incarnation. The
    /// replacement daemon reopens the database where it left off and
    /// re-runs the startup scan, the paper's recovery sequence
    /// (§4.3.2–§4.3.3). A flush window left open by the crash is closed
    /// (and its samples recovered) by the next pump: the flag and the
    /// buffers are kernel state and survive the daemon.
    fn crash(&mut self, now: u64, crash: &CrashFault) {
        let lost = self.daemon.profiles().total_samples();
        self.injector
            .record_crash(now, lost, now - self.last_disk_flush);
        if let Some(root) = &self.daemon_cfg.db_path {
            self.injector.apply_corruption(root, crash);
        }
        let mut fresh = Daemon::reopen(self.daemon_cfg.clone()).expect("daemon restart");
        fresh.attach_obs(&self.obs);
        fresh.startup_scan(&self.machine.os);
        let crashed = std::mem::replace(&mut self.daemon, fresh);
        self.retired_daemons.push(crashed.stats);
    }

    /// Runs the machine until all spawned processes exit (or `limit`
    /// machine cycles), pumping the daemon every poll quantum. Returns the
    /// final machine time.
    pub fn run_to_completion(&mut self, limit: u64) -> u64 {
        let mut target = self.cfg_poll;
        while self.machine.os.live_processes() > 0 && target <= limit {
            self.machine.run_all_until(target);
            self.pump();
            target += self.cfg_poll;
        }
        self.finish();
        self.machine.time()
    }

    /// Runs for a fixed duration regardless of process exits (for
    /// timesharing/idle experiments).
    pub fn run_for(&mut self, cycles: u64) -> u64 {
        let end = self.machine.time() + cycles;
        let mut target = self.machine.time() + self.cfg_poll;
        while target < end {
            self.machine.run_all_until(target);
            self.pump();
            target += self.cfg_poll;
        }
        self.machine.run_all_until(end);
        self.finish();
        self.machine.time()
    }

    /// Final drain: flush every driver, process remaining entries, write
    /// the database. Delayed loader notifications are delivered late
    /// rather than never, and a torn-open flush window is closed so its
    /// bypassed samples are recovered.
    pub fn finish(&mut self) {
        let now = self.machine.time();
        let mut events = self.machine.os.drain_events();
        events = self.injector.admit_events(now, events);
        events.extend(self.injector.drain_pending());
        self.daemon.handle_events(events);
        // Late-registered images (spawned directly on the machine) still
        // get their names and executables recorded with the database.
        self.daemon.startup_scan(&self.machine.os);
        for cpu in &mut self.machine.sink.per_cpu {
            drain_side_samples(cpu, &mut self.daemon);
            // flush() begins and ends a window, so it also closes one
            // left open by a torn flush and drains what bypassed into
            // the buffers.
            let entries = cpu.flush();
            self.daemon.process_entries(&entries);
        }
        self.mid_flush = false;
        self.charge_daemon_cost();
        self.daemon.update_memory(&self.machine.os);
        self.flush_to_disk(self.machine.time());
        self.obs.advance_cycle(self.machine.time());
        self.obs
            .event(Component::Session, "session.finish", self.machine.time(), 0);
    }

    /// The accumulated profiles (valid when no database is configured;
    /// with a database use [`Daemon::db`]).
    #[must_use]
    pub fn profiles(&self) -> &ProfileSet {
        self.daemon.profiles()
    }

    /// The daemon's accumulated calling-context profile (empty unless
    /// `machine.stack_walk` was enabled; with a database, flushed epochs
    /// live in per-epoch sidecars — see
    /// [`crate::daemon::read_all_stacks`]).
    #[must_use]
    pub fn stack_profile(&self) -> &dcpi_stacks::StackProfile {
        self.daemon.stack_profile()
    }

    /// The end-to-end sample ledger. Call after [`ProfiledRun::finish`]
    /// (which `run_to_completion`/`run_for` do): the driver must be
    /// drained so no sample is in flight between kernel and daemon.
    /// Conservation — `generated = attributed + unknown + dropped +
    /// crash-lost + quarantined` — holds under every fault plan. Each
    /// bucket is read from the component that counts it; crash-lost and
    /// quarantined samples are the injector's.
    #[must_use]
    pub fn ledger(&self) -> LossLedger {
        // [attributed, unknown]
        let slot = |key: ProfileKey| usize::from(key.image == UNKNOWN_IMAGE);
        // Whatever a failed flush (or the lack of a database) left in
        // daemon memory still counts — those samples are not lost.
        let mut held = [0u64; 2];
        for (&key, p) in self.daemon.profiles().iter() {
            held[slot(key)] += p.total();
        }
        // A database that cannot be read through contributes nothing.
        let read = |db: &ProfileDb| {
            let mut sums = [0u64; 2];
            let add = |_, key, p: Profile| sums[slot(key)] += p.total();
            db.scan(db.epochs().ok()?, |_| true, add).ok()?;
            Some(sums)
        };
        let on_disk = self.daemon.db().and_then(read).unwrap_or_default();
        let [attributed, unknown] = [held[0] + on_disk[0], held[1] + on_disk[1]];
        LossLedger {
            generated: self.machine.total_samples(),
            attributed,
            unknown,
            driver_dropped: self.machine.sink.total_stats().dropped,
            crash_lost: self.injector.crashes.iter().map(|c| c.lost).sum(),
            quarantined: self.injector.quarantined_samples,
        }
    }

    /// The overhead ledger: cycles charged to collection (interrupt
    /// handlers plus modeled daemon processing, the daemons' own count
    /// over every incarnation) reconciled against the total simulated
    /// cycles. At the paper's default sampling period the fraction lands
    /// in the 1–3% band of its Table 3.
    #[must_use]
    pub fn overhead_ledger(&self) -> OverheadLedger {
        OverheadLedger {
            total_cycles: self.machine.time(),
            handler_cycles: self.machine.total_handler_cycles(),
            daemon_cycles: self.daemon_stats().cycles,
            walk_cycles: self.machine.total_walk_cycles(),
            samples: self.machine.total_samples(),
        }
    }

    /// The daemon's stats over every incarnation a crash ended: counts
    /// sum, memory is the live daemon's, and the peak is the highest any
    /// incarnation reached.
    #[must_use]
    pub fn daemon_stats(&self) -> DaemonStats {
        let live = self.daemon.stats;
        let mut total = live;
        for s in &self.retired_daemons {
            total.merge(s);
        }
        total.memory_bytes = live.memory_bytes;
        total.peak_memory_bytes = self
            .retired_daemons
            .iter()
            .map(|s| s.peak_memory_bytes)
            .fold(live.peak_memory_bytes, u64::max);
        total
    }

    /// What the session itself publishes: disk flushes that failed.
    pub const PUBLISHED: Published<ProfiledRun> = Published {
        incidents: &[("session.flush_failures", |r| r.flush_failures)],
        ..Published::NONE
    };

    /// A full observability snapshot: the run's published counts (the
    /// machine's, the driver's summed over CPUs, the daemon's over every
    /// incarnation, the injector's and the session's own), the trace
    /// rings, and both ledgers. Call after [`ProfiledRun::finish`]
    /// so the sample ledger conserves. With observability off nothing is
    /// published and the rings are empty; the ledgers are still there.
    #[must_use]
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut snap = self.obs.snapshot();
        if self.obs.is_enabled() {
            let m = &mut snap.metrics;
            m.publish(&Machine::PUBLISHED, &self.machine);
            m.publish(&DriverStats::PUBLISHED, &self.machine.sink.total_stats());
            m.publish(&DaemonStats::PUBLISHED, &self.daemon_stats());
            m.publish(&FaultInjector::PUBLISHED, &self.injector);
            m.publish(&ProfiledRun::PUBLISHED, self);
        }
        snap.overhead = Some(self.overhead_ledger());
        snap.samples = Some(self.ledger());
        snap
    }

    /// One-line session summary: the ledger plus the failure counters
    /// the run accumulated, over every daemon incarnation.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = self.ledger().render();
        let iw = self.daemon_stats().image_write_failures;
        if iw > 0 {
            s.push_str(&format!("; image-record write failures: {iw}"));
        }
        if self.flush_failures > 0 {
            s.push_str(&format!("; failed disk flushes: {}", self.flush_failures));
        }
        if !self.injector.crashes.is_empty() {
            s.push_str(&format!(
                "; daemon crashes: {}",
                self.injector.crashes.len()
            ));
        }
        s
    }
}

/// Hands one CPU's edge, path and stack samples to the daemon. These
/// bypass the driver's hash table, so they move on every pump, not only
/// at a flush.
fn drain_side_samples(cpu: &mut CpuDriver, daemon: &mut Daemon) {
    let edges = cpu.drain_edges();
    if !edges.is_empty() {
        daemon.process_edge_samples(&edges);
    }
    let paths = cpu.drain_paths();
    if !paths.is_empty() {
        daemon.process_path_samples(&paths);
    }
    if !cpu.stack_counts.is_empty() {
        let stacks = cpu.drain_stacks();
        daemon.process_stack_samples(&stacks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::Event;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;
    use dcpi_machine::counters::CounterConfig;
    use dcpi_machine::os::MAIN_BASE;
    use dcpi_testkit::TempRoot;
    use std::path::PathBuf;

    fn loop_image(n: i64) -> Image {
        let mut a = Asm::new("/bin/loop");
        a.proc("main");
        a.li(Reg::T0, n);
        let top = a.here();
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        a.finish()
    }

    fn session(period: (u64, u64)) -> ProfiledRun {
        let mut cfg = SessionConfig::default();
        cfg.machine.counters = CounterConfig::cycles_only(period);
        cfg.poll_quantum = 50_000;
        cfg.flush_interval = 500_000;
        ProfiledRun::new(cfg).unwrap()
    }

    #[test]
    fn end_to_end_profile_lands_on_loop() {
        let mut run = session((2000, 2500));
        let img = run.register_image(loop_image(300_000));
        run.spawn(0, img, &[], |_| {});
        run.run_to_completion(10_000_000_000);
        let profiles = run.profiles();
        let p = profiles.get(img, Event::Cycles).expect("loop profiled");
        // li(300_000) → ldah+lda; loop at offsets 8 (subq), 12 (bne).
        let loop_samples = p.get(8) + p.get(12);
        assert!(
            loop_samples * 10 >= p.total() * 8,
            "loop should dominate: {} of {}",
            loop_samples,
            p.total()
        );
        assert!(run.daemon.unknown_fraction() < 0.01);
    }

    #[test]
    fn samples_conserved_driver_to_daemon() {
        let mut run = session((1000, 1200));
        let img = run.register_image(loop_image(200_000));
        run.spawn(0, img, &[], |_| {});
        run.run_to_completion(10_000_000_000);
        let taken = run.machine.total_samples();
        let stats = run.machine.sink.total_stats();
        assert_eq!(stats.interrupts, taken);
        assert_eq!(
            run.daemon.stats.samples + stats.dropped,
            taken,
            "every interrupt's sample reaches the daemon or is dropped"
        );
        assert!(taken > 100, "expected a healthy sample count: {taken}");
    }

    #[test]
    fn idle_time_attributes_to_kernel() {
        let mut run = session((1500, 2000));
        run.run_for(2_000_000);
        let kernel = run.machine.os.kernel_image();
        let profiles = run.profiles();
        let k = profiles.get(kernel, Event::Cycles).expect("idle profiled");
        assert!(k.total() > 100);
        assert_eq!(run.daemon.stats.unknown_samples, 0);
    }

    #[test]
    fn overhead_grows_with_sampling_rate() {
        let run_with = |period: (u64, u64)| {
            let mut run = session(period);
            let img = run.register_image(loop_image(400_000));
            run.spawn(0, img, &[], |_| {});
            run.run_to_completion(10_000_000_000)
        };
        let fast = run_with((500, 600));
        let slow = run_with((60_000, 64_000));
        assert!(
            fast > slow * 102 / 100,
            "dense sampling must cost more: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn trace_logging_captures_samples() {
        let mut cfg = SessionConfig::default();
        cfg.machine.counters = CounterConfig::cycles_only((800, 1000));
        cfg.trace_limit = 1000;
        let mut run = ProfiledRun::new(cfg).unwrap();
        let img = run.register_image(loop_image(100_000));
        run.spawn(0, img, &[], |_| {});
        run.run_to_completion(10_000_000_000);
        let trace = &run.machine.sink.trace;
        assert!(!trace.is_empty());
        assert!(trace.len() <= 1000);
        assert!(trace
            .iter()
            .any(|s| s.pc.0 >= MAIN_BASE.0 && s.pc.0 < MAIN_BASE.0 + 64));
    }

    #[test]
    fn database_written_on_finish() {
        let dir = TempRoot::new("session");
        let mut cfg = SessionConfig::default();
        cfg.machine.counters = CounterConfig::cycles_only((1000, 1200));
        cfg.daemon.db_path = Some(dir.to_path_buf());
        let mut run = ProfiledRun::new(cfg).unwrap();
        let img = run.register_image(loop_image(200_000));
        run.spawn(0, img, &[], |_| {});
        run.run_to_completion(10_000_000_000);
        let db = run.daemon.db().unwrap();
        let set = db.read_all().unwrap();
        assert!(set.get(img, Event::Cycles).is_some());
        assert!(db.disk_usage().unwrap() > 0);
    }

    fn obs_session(period: (u64, u64), faults: FaultPlan) -> ProfiledRun {
        let mut cfg = SessionConfig::default();
        cfg.machine.counters = CounterConfig::cycles_only(period);
        cfg.poll_quantum = 50_000;
        cfg.flush_interval = 500_000;
        cfg.obs = ObsConfig::on();
        cfg.faults = faults;
        ProfiledRun::new(cfg).unwrap()
    }

    #[test]
    fn obs_snapshots_are_deterministic() {
        let dir = TempRoot::new("session-obs");
        let run_once = |db: Option<PathBuf>| {
            let mut cfg = SessionConfig::default();
            cfg.machine.counters = CounterConfig::cycles_only((1200, 1500));
            cfg.poll_quantum = 50_000;
            cfg.flush_interval = 500_000;
            cfg.obs = ObsConfig::on();
            cfg.daemon.db_path = db;
            let mut run = ProfiledRun::new(cfg).unwrap();
            let img = run.register_image(loop_image(200_000));
            run.spawn(0, img, &[], |_| {});
            run.run_to_completion(10_000_000_000);
            let mut snap = run.obs_snapshot();
            snap.mask_wall();
            snap
        };
        // With a database every flush span is stamped in host
        // nanoseconds, which masking must hide too.
        let a = run_once(Some(dir.subdir("a")));
        let b = run_once(Some(dir.subdir("b")));
        assert!(a.metrics.counters["daemon.flushes"] > 0);
        assert_eq!(a, b, "runs with a database must mask to the same snapshot");
        let a = run_once(None);
        let b = run_once(None);
        assert_eq!(a, b, "fixed-seed runs must produce identical snapshots");
        assert_eq!(a.to_json(), b.to_json());
        let parsed = Snapshot::parse(&a.to_json()).unwrap();
        assert_eq!(parsed, a, "JSON roundtrip preserves the snapshot");
        // The cycle-stamped trace sequences themselves must match, ring
        // by ring, event by event.
        for (ra, rb) in a.rings.iter().zip(&b.rings) {
            assert_eq!(ra.component, rb.component);
            assert_eq!(ra.events, rb.events, "ring {} diverged", ra.component);
        }
    }

    #[test]
    fn obs_ledgers_and_fault_events_recorded() {
        let horizon = 20_000_000;
        let plan = FaultPlan {
            stalls: vec![crate::faults::StallWindow {
                from: 2_000_000,
                until: 3_000_000,
            }],
            crashes: vec![CrashFault {
                at_cycle: 8_000_000,
                corrupt: None,
                victim_pick: 7,
                stray_tmp: false,
            }],
            notif_drop_period: 0,
            notif_delay: 0,
            torn_flushes: vec![5_000_000],
        };
        let mut run = obs_session((1000, 1200), plan);
        let img = run.register_image(loop_image(2_000_000));
        run.spawn(0, img, &[], |_| {});
        run.run_for(horizon);
        let snap = run.obs_snapshot();
        let samples = snap.samples.expect("sample ledger present");
        assert!(samples.conserves(), "ledger must conserve under faults");
        let overhead = snap.overhead.expect("overhead ledger present");
        assert!(overhead.consistent());
        assert!(overhead.samples > 0);
        assert!(overhead.fraction() > 0.0);
        let faults = snap
            .rings
            .iter()
            .find(|r| r.component == "faults")
            .expect("faults ring");
        let names: Vec<&str> = faults.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"fault.stall"), "stall visible: {names:?}");
        assert!(names.contains(&"fault.crash"), "crash visible: {names:?}");
        assert!(
            names.contains(&"fault.torn_flush"),
            "torn flush visible: {names:?}"
        );
        // Cycle stamps within each ring never run backwards.
        for ring in &snap.rings {
            let mut last = 0;
            for ev in &ring.events {
                assert!(
                    ev.cycle >= last,
                    "{}: {} < {last}",
                    ring.component,
                    ev.cycle
                );
                last = ev.cycle;
            }
        }
    }

    #[test]
    fn disabled_obs_changes_nothing() {
        let run_with = |obs: ObsConfig| {
            let mut cfg = SessionConfig::default();
            cfg.machine.counters = CounterConfig::cycles_only((1500, 1800));
            cfg.obs = obs;
            let mut run = ProfiledRun::new(cfg).unwrap();
            let img = run.register_image(loop_image(150_000));
            run.spawn(0, img, &[], |_| {});
            run.run_to_completion(10_000_000_000);
            (run.machine.time(), run.ledger())
        };
        let (t_off, l_off) = run_with(ObsConfig::default());
        let (t_on, l_on) = run_with(ObsConfig::on());
        assert_eq!(t_off, t_on, "observation must not perturb the simulation");
        assert_eq!(l_off, l_on);
    }

    fn recursion_image(outer: i64, depth: i64, spin: i64) -> Image {
        let mut a = Asm::new("/bin/recurse");
        a.proc("main");
        let recurse = a.label();
        a.li(Reg::S0, outer);
        let main_loop = a.here();
        a.li(Reg::A0, depth);
        a.bsr(Reg::RA, recurse);
        a.subq_lit(Reg::S0, 1, Reg::S0);
        a.bne(Reg::S0, main_loop);
        a.halt();
        a.proc("recurse");
        a.bind(recurse);
        a.lda(Reg::SP, -16, Reg::SP);
        a.stq(Reg::RA, 0, Reg::SP);
        a.li(Reg::T0, spin);
        let spin_top = a.here();
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, spin_top);
        let done = a.label();
        a.beq(Reg::A0, done);
        a.subq_lit(Reg::A0, 1, Reg::A0);
        a.bsr(Reg::RA, recurse);
        a.bind(done);
        a.ldq(Reg::RA, 0, Reg::SP);
        a.lda(Reg::SP, 16, Reg::SP);
        a.ret(Reg::RA);
        a.finish()
    }

    #[test]
    fn stack_walking_end_to_end_conserves_samples() {
        let mut cfg = SessionConfig::default();
        cfg.machine.counters = CounterConfig::cycles_only((800, 1000));
        cfg.machine.stack_walk = true;
        cfg.poll_quantum = 50_000;
        cfg.flush_interval = 500_000;
        let mut run = ProfiledRun::new(cfg).unwrap();
        let img = run.register_image(recursion_image(200, 5, 80));
        let pid = run.spawn(0, img, &[], |_| {});
        run.run_to_completion(10_000_000_000);
        let generated = run.machine.total_samples();
        assert!(generated > 100, "got {generated} samples");
        // Stacks bypass the driver hash table and overflow buffers (like
        // edge samples), so every delivered sample's stack reaches the
        // daemon: the dcpicheck conservation identity.
        assert_eq!(run.daemon.stats.stack_samples, generated);
        let stacks = run.stack_profile();
        assert_eq!(stacks.total(), generated);
        stacks.table.check_bijective().unwrap();
        assert_eq!(run.daemon.stats.unknown_stack_frames, 0);
        // Deep stacks from the profiled process were canonicalized: some
        // interned stack for our pid has > 2 frames.
        let deep = stacks
            .counts
            .keys()
            .filter(|(_, p, _)| *p == pid.0)
            .map(|&(_, _, id)| stacks.table.depth(id))
            .max()
            .expect("stacks for the profiled pid");
        assert_eq!(deep, 7, "full recursion depth canonicalized");
        // Walk cycles were metered and flow into the overhead ledger as
        // a subset of handler time.
        let oh = run.overhead_ledger();
        assert!(oh.walk_cycles > 0);
        assert!(oh.consistent());
        assert!(run.ledger().conserves());
    }

    #[test]
    fn stack_walking_off_yields_empty_stack_profile() {
        let mut run = session((1000, 1200));
        let img = run.register_image(recursion_image(50, 3, 50));
        run.spawn(0, img, &[], |_| {});
        run.run_to_completion(10_000_000_000);
        assert!(run.stack_profile().is_empty());
        assert_eq!(run.overhead_ledger().walk_cycles, 0);
        assert_eq!(run.daemon.stats.stack_samples, 0);
    }

    #[test]
    fn a_failed_final_flush_is_counted_in_summary_and_obs() {
        let dir = TempRoot::new("session-final");
        let mut cfg = SessionConfig::default();
        cfg.machine.counters = CounterConfig::cycles_only((1000, 1200));
        cfg.daemon.db_path = Some(dir.to_path_buf());
        cfg.obs = ObsConfig::on();
        let mut run = ProfiledRun::new(cfg).unwrap();
        let img = run.register_image(loop_image(200_000));
        run.spawn(0, img, &[], |_| {});
        run.machine.run_all_until(1_000_000);
        run.pump();
        // A plain file where the current epoch's directory was: the final
        // merge cannot land a profile in it.
        let db = run.daemon.db().unwrap();
        let epoch = db.epoch_path(db.current_epoch());
        std::fs::remove_dir_all(&epoch).unwrap();
        std::fs::write(&epoch, b"not a directory").unwrap();
        run.finish();
        assert_eq!(run.flush_failures, 1);
        assert!(
            run.summary().contains("failed disk flushes: 1"),
            "{}",
            run.summary()
        );
        let snap = run.obs_snapshot();
        assert_eq!(
            snap.metrics.counters.get("session.flush_failures"),
            Some(&1)
        );
    }
}
