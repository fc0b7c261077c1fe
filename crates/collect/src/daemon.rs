//! The user-mode daemon (§4.3): maps samples to images and maintains the
//! profile database.
//!
//! The daemon learns where images are loaded from loader notifications and
//! a startup scan (§4.3.2), converts each aggregated sample entry's
//! `(PID, PC)` to an `(image, offset)` pair, bumps that pair's count in a
//! hash map, and periodically writes the counts, sorted into one run per
//! `(image, event)`, to the on-disk database (§4.3.3). Samples it cannot
//! attribute are aggregated into the special *unknown* profile; the paper
//! reports these are well under 1% (typically 0.05%).
//!
//! *Hash while hot, sort when cold.* Nearly every entry bumps an offset
//! that is already there, so the accumulator is a hash map and nothing is
//! ordered until somebody asks for a [`ProfileSet`]: the flush, the memory
//! model and [`Daemon::profiles`] share one sorted view ([`Tally`]), built
//! on demand and dropped by the next mutation.
//!
//! Processing costs are modeled in cycles and reported so experiment
//! harnesses can charge them to the simulated machine (the daemon's
//! per-sample cost column of Table 4).

use dcpi_core::db::{EpochId, ProfileDb};
use dcpi_core::hash::FastMap;
use dcpi_core::{
    codec, Addr, EdgeProfiles, Error, Event, ImageId, PathProfiles, Pid, ProfileKey, ProfileSet,
    Result, SampleEntry, UNKNOWN_IMAGE,
};
use dcpi_machine::os::OsEvent;
use dcpi_machine::proc::Mapping;
use dcpi_machine::Os;
use dcpi_obs::{Component, Obs, Published};
use dcpi_stacks::{Frame, RawStackSample, StackProfile};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::path::PathBuf;

/// Daemon tuning parameters.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// On-disk database directory (`None` = in-memory only).
    pub db_path: Option<PathBuf>,
    /// Modeled cycles to process one overflow-buffer entry (three hash
    /// lookups, image association, profile merge; §5.4 estimates these
    /// could be halved).
    pub cycles_per_entry: u64,
    /// Modeled extra cycles per aggregated sample within an entry.
    pub cycles_per_sample: u64,
    /// Modeled cycles to canonicalize one stack frame (loadmap lookup +
    /// intern step) when processing calling-context samples.
    pub cycles_per_frame: u64,
    /// PIDs for which separate per-process profiles are kept (§4.3).
    pub per_process: Vec<Pid>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            db_path: None,
            cycles_per_entry: 800,
            cycles_per_sample: 10,
            cycles_per_frame: 40,
            per_process: Vec::new(),
        }
    }
}

/// Daemon statistics (Table 4's daemon columns and Table 5's memory
/// accounting).
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonStats {
    /// Overflow/hash entries processed.
    pub entries: u64,
    /// Total samples those entries carried.
    pub samples: u64,
    /// Samples that could not be mapped to an image.
    pub unknown_samples: u64,
    /// Modeled processing cycles accrued (drain with
    /// [`Daemon::take_accrued_cycles`]).
    pub cycles: u64,
    /// Current modeled resident memory in bytes.
    pub memory_bytes: u64,
    /// Peak modeled resident memory in bytes.
    pub peak_memory_bytes: u64,
    /// Failed writes of image names or saved executables. These were once
    /// silently swallowed; a database that cannot say which binary image
    /// 3 was is damaged, so the failures are counted and surfaced in
    /// session summaries.
    pub image_write_failures: u64,
    /// Calling-context samples processed (sum of raw stack-sample
    /// counts). In fault-free runs this equals the machine's delivered
    /// sample count when stack walking is on — the `dcpicheck stacks`
    /// conservation cross-check.
    pub stack_samples: u64,
    /// Stack frames that could not be attributed to an image (folded
    /// into the unknown pseudo-image frame instead of dropped, so the
    /// sample count above is conserved).
    pub unknown_stack_frames: u64,
    /// Profile sets merged into the database (the paper's periodic
    /// flushes); a flush that fails is not counted.
    pub flushes: u64,
}

impl DaemonStats {
    /// Average daemon cycles per sample (Table 4's `daemon cost`).
    #[must_use]
    pub fn cost_per_sample(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.cycles as f64 / self.samples as f64
        }
    }

    /// Aggregation quality: samples per processed entry (§4.2.1's
    /// "factor of 20 or more" for most workloads).
    #[must_use]
    pub fn aggregation_factor(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.samples as f64 / self.entries as f64
        }
    }

    /// Merges another run's stats. Counts sum; the memory figures also
    /// sum, because merged runs model daemons running concurrently (one
    /// per `Machine` in the grid experiments), so the combined footprint
    /// is the total across instances.
    pub fn merge(&mut self, other: &DaemonStats) {
        use crate::faults::ledger_add;
        ledger_add(&mut self.entries, other.entries);
        ledger_add(&mut self.samples, other.samples);
        ledger_add(&mut self.unknown_samples, other.unknown_samples);
        ledger_add(&mut self.cycles, other.cycles);
        ledger_add(&mut self.memory_bytes, other.memory_bytes);
        ledger_add(&mut self.peak_memory_bytes, other.peak_memory_bytes);
        ledger_add(&mut self.image_write_failures, other.image_write_failures);
        ledger_add(&mut self.stack_samples, other.stack_samples);
        ledger_add(&mut self.unknown_stack_frames, other.unknown_stack_frames);
        ledger_add(&mut self.flushes, other.flushes);
    }

    /// What the daemon publishes: its sample throughput, its database
    /// flushes and Table 5's memory figures.
    pub const PUBLISHED: Published<DaemonStats> = Published {
        counters: &[
            ("daemon.entries", |s| s.entries),
            ("daemon.samples", |s| s.samples),
            ("daemon.unknown_samples", |s| s.unknown_samples),
            ("daemon.flushes", |s| s.flushes),
        ],
        gauges: &[
            ("daemon.memory_bytes", |s| s.memory_bytes),
            ("daemon.peak_memory_bytes", |s| s.peak_memory_bytes),
        ],
        ..Published::NONE
    };
}

/// Sample counts keyed `(image, event, offset)`, with the sorted-run
/// [`ProfileSet`] of the same counts as a memoised view.
///
/// The keys are Fx-hashed: PIDs, PCs and offsets reach the daemon only from
/// the local driver, never from a file or the wire (`dcpi_core::hash`).
/// The view is what every reader wants and what the database merges;
/// [`Tally::counts_mut`] is the only way to the map and drops it, so it can
/// never be stale.
#[derive(Debug, Default)]
struct Tally {
    counts: FastMap<(ImageId, Event, u64), u64>,
    view: OnceCell<ProfileSet>,
}

impl Tally {
    fn counts_mut(&mut self) -> &mut FastMap<(ImageId, Event, u64), u64> {
        self.view.take();
        &mut self.counts
    }

    /// The counts as profiles: one sort of the distinct keys, then each
    /// `(image, event)` group moves into the set as a ready run.
    fn view(&self) -> &ProfileSet {
        self.view.get_or_init(|| {
            let mut cells: Vec<_> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
            cells.sort_unstable();
            let mut set = ProfileSet::new();
            for run in cells.chunk_by(|a, b| (a.0 .0, a.0 .1) == (b.0 .0, b.0 .1)) {
                let (image, event, _) = run[0].0;
                let run = run.iter().map(|&((_, _, offset), count)| (offset, count));
                set.insert(ProfileKey { image, event }, run.collect());
            }
            set
        })
    }
}

/// The user-mode daemon.
#[derive(Debug)]
pub struct Daemon {
    cfg: DaemonConfig,
    loadmaps: FastMap<Pid, Vec<Mapping>>,
    exited: Vec<Pid>,
    /// Samples since the last successful flush.
    totals: Tally,
    edge_profiles: EdgeProfiles,
    path_profiles: PathProfiles,
    stacks: StackProfile,
    frame_scratch: Vec<Frame>,
    per_process: FastMap<Pid, Tally>,
    db: Option<ProfileDb>,
    /// Statistics.
    pub stats: DaemonStats,
    accrued_cycles: u64,
    /// Observability handle (disabled unless attached; re-attach after
    /// [`Daemon::reopen`] — a restarted daemon starts unobserved).
    obs: Obs,
}

impl Daemon {
    /// Creates the daemon, opening/creating the database if configured.
    ///
    /// # Errors
    ///
    /// Returns an error if the database directory cannot be created.
    pub fn new(cfg: DaemonConfig) -> Result<Daemon> {
        let db = match &cfg.db_path {
            Some(p) => Some(ProfileDb::create(p.clone(), codec::Format::V2)?),
            None => None,
        };
        Ok(Daemon::with_db(cfg, db))
    }

    /// Restarts the daemon after a crash: reopens the database where it
    /// left off — resuming the newest epoch and sweeping any `.tmp` file
    /// the crash tore mid-merge — instead of resetting to epoch 0. The
    /// caller must follow with [`Daemon::startup_scan`] to relearn
    /// loadmaps (§4.3.2), exactly the paper's recovery sequence. In-memory
    /// profiles, stats, and loadmaps of the crashed instance are gone:
    /// that bounded loss is what the periodic flush epochs are for.
    ///
    /// # Errors
    ///
    /// Returns an error if the database cannot be reopened (a missing or
    /// empty directory falls back to creating a fresh one).
    pub fn reopen(cfg: DaemonConfig) -> Result<Daemon> {
        let db = match &cfg.db_path {
            Some(p) => Some(ProfileDb::open_or_create(p.clone(), codec::Format::V2)?),
            None => None,
        };
        Ok(Daemon::with_db(cfg, db))
    }

    fn with_db(cfg: DaemonConfig, db: Option<ProfileDb>) -> Daemon {
        Daemon {
            cfg,
            loadmaps: FastMap::default(),
            exited: Vec::new(),
            totals: Tally::default(),
            edge_profiles: EdgeProfiles::new(),
            path_profiles: PathProfiles::new(),
            stacks: StackProfile::new(),
            frame_scratch: Vec::new(),
            per_process: FastMap::default(),
            db,
            stats: DaemonStats::default(),
            accrued_cycles: 0,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle. Must be called again on the
    /// fresh instance after a crash/restart via [`Daemon::reopen`].
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }

    /// Startup scan (§4.3.2): learn the mappings of already-active
    /// processes.
    pub fn startup_scan(&mut self, os: &Os) {
        self.obs.begin(Component::Daemon, "daemon.startup_scan");
        for (pid, map) in os.snapshot_loadmaps() {
            self.loadmaps.entry(pid).or_insert(map);
        }
        self.record_image_names(os);
        self.update_memory(os);
        self.obs.end(
            Component::Daemon,
            "daemon.startup_scan",
            self.loadmaps.len() as u64,
            0,
        );
    }

    fn record_image_names(&mut self, os: &Os) {
        if let Some(db) = &mut self.db {
            let names = os.images().map(|li| (li.id, li.image.name()));
            if db.record_image_names(names).is_err() {
                self.stats.image_write_failures += 1;
            }
            for li in os.images() {
                if db.save_image(li.id, || li.image.to_bytes()).is_err() {
                    self.stats.image_write_failures += 1;
                }
            }
        }
    }

    /// Consumes OS loader/exec/exit notifications.
    pub fn handle_events(&mut self, events: Vec<OsEvent>) {
        for ev in events {
            match ev {
                OsEvent::ImageLoaded {
                    pid,
                    image,
                    base,
                    size,
                    ..
                } => {
                    let maps = self.loadmaps.entry(pid).or_default();
                    let at = maps.partition_point(|m| m.base.0 <= base.0);
                    maps.insert(at, Mapping { base, size, image });
                }
                OsEvent::ProcessCreated { pid } => {
                    let maps = self.loadmaps.entry(pid).or_default();
                    // A PID still awaiting the reap names a new process
                    // now: it starts from an empty loadmap, and the reap
                    // must not take the live process's mappings with it.
                    let awaiting = self.exited.len();
                    self.exited.retain(|&p| p != pid);
                    if self.exited.len() != awaiting {
                        maps.clear();
                    }
                }
                OsEvent::ProcessExited { pid } => {
                    // Keep the loadmap until the periodic reap so late
                    // samples still attribute correctly.
                    self.exited.push(pid);
                }
            }
        }
    }

    /// Processes a batch of aggregated sample entries from one CPU's
    /// driver.
    pub fn process_entries(&mut self, entries: &[SampleEntry]) {
        let totals = self.totals.counts_mut();
        for e in entries {
            self.stats.entries += 1;
            self.stats.samples += e.count;
            let cost = self.cfg.cycles_per_entry + self.cfg.cycles_per_sample * e.count;
            self.accrued_cycles += cost;
            self.stats.cycles += cost;
            let s = &e.sample;
            let (image, offset) = match resolve(&self.loadmaps, s.pid, s.pc) {
                Some(t) => t,
                None => {
                    self.stats.unknown_samples += e.count;
                    (UNKNOWN_IMAGE, s.pc.0)
                }
            };
            let key = (image, s.event, offset);
            *totals.entry(key).or_insert(0) += e.count;
            if self.cfg.per_process.contains(&s.pid) {
                let own = self.per_process.entry(s.pid).or_default().counts_mut();
                *own.entry(key).or_insert(0) += e.count;
            }
        }
    }

    /// Drains the modeled processing cost since the last call, for the
    /// harness to charge to a simulated CPU.
    pub fn take_accrued_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.accrued_cycles)
    }

    /// Reaps state for exited processes (the paper's periodic reap).
    pub fn reap(&mut self) {
        for pid in self.exited.drain(..) {
            self.loadmaps.remove(&pid);
        }
    }

    /// Updates the modeled memory footprint (Table 5): loadmaps, profile
    /// entries, and the flush staging buffer.
    pub fn update_memory(&mut self, os: &Os) {
        let loadmap_bytes: u64 = self
            .loadmaps
            .values()
            .map(|m| 64 + 48 * m.len() as u64)
            .sum();
        let profile_bytes: u64 = self
            .totals
            .view()
            .iter()
            .map(|(_, p)| 64 + 24 * p.len() as u64)
            .sum();
        let image_bytes = 256 * os.images().count() as u64;
        // Baseline: daemon text+static data plus one staging buffer.
        let baseline = 1_400_000;
        self.stats.memory_bytes = baseline + loadmap_bytes + profile_bytes + image_bytes;
        self.stats.peak_memory_bytes = self.stats.peak_memory_bytes.max(self.stats.memory_bytes);
    }

    /// The accumulated in-memory profiles (sorted on first use after a
    /// change; see [`Tally`]).
    #[must_use]
    pub fn profiles(&self) -> &ProfileSet {
        self.totals.view()
    }

    /// Processes interpreted branch-direction samples (§7 extension),
    /// attributing each to its image like ordinary samples.
    pub fn process_edge_samples(&mut self, entries: &[((Pid, Addr, bool), u64)]) {
        for &((pid, pc, taken), count) in entries {
            // Unattributable direction samples are simply dropped: the
            // matching CYCLES sample already landed in the unknown
            // profile.
            if let Some((image, offset)) = resolve(&self.loadmaps, pid, pc) {
                self.edge_profiles.add(image, offset, taken, count);
            }
        }
    }

    /// The accumulated edge samples.
    #[must_use]
    pub fn edge_profiles(&self) -> &EdgeProfiles {
        &self.edge_profiles
    }

    /// Processes double-sample PC pairs (§7), attributing both ends.
    pub fn process_path_samples(&mut self, entries: &[((Pid, Addr, Addr), u64)]) {
        for &((pid, pc1, pc2), count) in entries {
            let (Some((i1, o1)), Some((i2, o2))) = (
                resolve(&self.loadmaps, pid, pc1),
                resolve(&self.loadmaps, pid, pc2),
            ) else {
                continue;
            };
            self.path_profiles.add(i1, o1, i2, o2, count);
        }
    }

    /// The accumulated path samples.
    #[must_use]
    pub fn path_profiles(&self) -> &PathProfiles {
        &self.path_profiles
    }

    /// Processes drained calling-context samples: resolves each raw
    /// frame PC to an `(image, offset)` frame through the loadmaps and
    /// interns the canonical stack into the daemon's [`StackProfile`].
    /// Frames that cannot be attributed become `(UNKNOWN_IMAGE, pc)`
    /// frames — the stack keeps its shape and its count, so the
    /// stack-total == sample-total conservation identity survives
    /// loadmap gaps.
    pub fn process_stack_samples(&mut self, batch: &[RawStackSample]) {
        for raw in batch {
            self.frame_scratch.clear();
            for &pc in &raw.frames {
                let frame = match resolve(&self.loadmaps, raw.pid, Addr(pc)) {
                    Some((image, offset)) => Frame { image, offset },
                    None => {
                        self.stats.unknown_stack_frames += 1;
                        Frame {
                            image: UNKNOWN_IMAGE,
                            offset: pc,
                        }
                    }
                };
                self.frame_scratch.push(frame);
            }
            self.stacks
                .record(raw.event, raw.pid, &self.frame_scratch, raw.count);
            self.stats.stack_samples += raw.count;
            let cost = self.cfg.cycles_per_frame * raw.frames.len() as u64;
            self.accrued_cycles += cost;
            self.stats.cycles += cost;
        }
    }

    /// The accumulated calling-context profile (since the last flush;
    /// the intern table persists across flushes).
    #[must_use]
    pub fn stack_profile(&self) -> &StackProfile {
        &self.stacks
    }

    /// Per-process profiles, if requested for `pid`.
    #[must_use]
    pub fn per_process_profiles(&self, pid: Pid) -> Option<&ProfileSet> {
        self.per_process.get(&pid).map(Tally::view)
    }

    /// Merges in-memory profiles to disk (the paper's 10-minute flush) and
    /// clears them. No-op without a database.
    ///
    /// # Errors
    ///
    /// Returns an error if a profile file cannot be written.
    pub fn flush_to_disk(&mut self) -> Result<()> {
        if let Some(db) = &mut self.db {
            self.obs.begin(Component::Daemon, "daemon.flush");
            let profiles = self.totals.view();
            let flushed = profiles.len() as u64;
            db.merge(profiles)?;
            self.totals.counts_mut().clear();
            if !self.stacks.is_empty() {
                write_epoch_stacks(db, db.current_epoch(), &self.stacks)?;
                // Counts flushed; the intern table stays warm so stack
                // IDs remain stable across epochs within this daemon.
                self.stacks.clear_counts();
            }
            self.stats.flushes += 1;
            self.obs.end(Component::Daemon, "daemon.flush", flushed, 0);
            Ok(())
        } else {
            Ok(())
        }
    }

    /// Starts a new database epoch (§4.3.3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] without a database, or the underlying
    /// I/O error.
    pub fn new_epoch(&mut self) -> Result<()> {
        match &mut self.db {
            Some(db) => db.new_epoch().map(|_| ()),
            None => Err(Error::NotFound("no database configured".into())),
        }
    }

    /// The database, if configured.
    #[must_use]
    pub fn db(&self) -> Option<&ProfileDb> {
        self.db.as_ref()
    }

    /// Number of live loadmaps tracked.
    #[must_use]
    pub fn tracked_processes(&self) -> usize {
        self.loadmaps.len()
    }

    /// Fraction of samples that could not be attributed (paper: typically
    /// 0.05%, always well under 1%; §4.3.2).
    #[must_use]
    pub fn unknown_fraction(&self) -> f64 {
        if self.stats.samples == 0 {
            0.0
        } else {
            self.stats.unknown_samples as f64 / self.stats.samples as f64
        }
    }
}

/// Read-modify-writes the calling-context sidecar of `epoch` (the `DCST`
/// serialization of a [`StackProfile`]), merging `stacks` into whatever
/// is already there, as durably as the profile files. A corrupt existing
/// sidecar is replaced rather than poisoning the write. Shared by the
/// daemon's flush and the fleet server's merge.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_epoch_stacks(db: &ProfileDb, epoch: EpochId, stacks: &StackProfile) -> Result<()> {
    // A fresh sidecar is the incoming profile as it stands: IDs are
    // assigned in node order, so re-interning it into an empty table
    // would write the same bytes.
    let bytes = match db.read_sidecar(epoch)? {
        Some(old) => {
            let mut merged = StackProfile::from_bytes(&old).unwrap_or_default();
            merged.merge(stacks);
            merged.to_bytes()
        }
        None => stacks.to_bytes(),
    };
    db.write_sidecar(epoch, bytes)
}

/// Reads one epoch's calling-context sidecar from the database, if the
/// epoch recorded one. Corrupt sidecars are reported as errors — the
/// audit tool wants to see them, unlike the lenient flush path.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] if the sidecar exists but cannot be
/// decoded, or the underlying I/O error.
pub fn read_epoch_stacks(db: &ProfileDb, epoch: EpochId) -> Result<Option<StackProfile>> {
    db.read_sidecar(epoch)?
        .map(|data| StackProfile::from_bytes(&data).map_err(Error::Corrupt))
        .transpose()
}

/// Reads and merges the calling-context sidecars of every epoch, in
/// epoch order (so the merged table's ID assignment is deterministic).
///
/// # Errors
///
/// Propagates sidecar corruption and I/O errors.
pub fn read_all_stacks(db: &ProfileDb) -> Result<StackProfile> {
    let mut merged = StackProfile::new();
    for epoch in db.epochs()? {
        if let Some(p) = read_epoch_stacks(db, epoch)? {
            merged.merge(&p);
        }
    }
    Ok(merged)
}

/// Resolves one image id for a `(pid, pc)` against a loadmap table — a
/// free function so tools and tests can share the daemon's mapping rule.
#[must_use]
pub fn resolve<S: BuildHasher>(
    loadmaps: &HashMap<Pid, Vec<Mapping>, S>,
    pid: Pid,
    pc: dcpi_core::Addr,
) -> Option<(ImageId, u64)> {
    let maps = loadmaps.get(&pid)?;
    let idx = maps.partition_point(|m| m.base.0 <= pc.0).checked_sub(1)?;
    let m = &maps[idx];
    m.contains(pc).then(|| (m.image, pc.0 - m.base.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::{Addr, Event, Sample};
    use dcpi_machine::os::default_kernel;
    use dcpi_testkit::TempRoot;

    fn entry(pid: u32, pc: u64, count: u64) -> SampleEntry {
        SampleEntry {
            sample: Sample {
                pid: Pid(pid),
                pc: Addr(pc),
                event: Event::Cycles,
            },
            count,
        }
    }

    fn daemon_with_map() -> Daemon {
        let mut d = Daemon::new(DaemonConfig::default()).unwrap();
        d.handle_events(vec![
            OsEvent::ProcessCreated { pid: Pid(7) },
            OsEvent::ImageLoaded {
                pid: Pid(7),
                image: ImageId(3),
                base: Addr(0x10000),
                size: 0x1000,
                path: "/bin/app".into(),
            },
            OsEvent::ImageLoaded {
                pid: Pid(7),
                image: ImageId(9),
                base: Addr(0x50000),
                size: 0x2000,
                path: "/lib/libm.so".into(),
            },
        ]);
        d
    }

    #[test]
    fn samples_map_to_image_offsets() {
        let mut d = daemon_with_map();
        d.process_entries(&[entry(7, 0x10010, 5), entry(7, 0x50004, 2)]);
        let p = d.profiles().get(ImageId(3), Event::Cycles).unwrap();
        assert_eq!(p.get(0x10), 5);
        let q = d.profiles().get(ImageId(9), Event::Cycles).unwrap();
        assert_eq!(q.get(4), 2);
        assert_eq!(d.stats.unknown_samples, 0);
    }

    #[test]
    fn unmappable_samples_go_to_unknown_profile() {
        let mut d = daemon_with_map();
        d.process_entries(&[
            entry(7, 0xdead_0000, 3), // outside all mappings
            entry(99, 0x10010, 4),    // unknown pid
        ]);
        assert_eq!(d.stats.unknown_samples, 7);
        let u = d.profiles().get(UNKNOWN_IMAGE, Event::Cycles).unwrap();
        assert_eq!(u.total(), 7);
        assert!(d.unknown_fraction() > 0.99);
    }

    #[test]
    fn mapping_boundaries_are_half_open() {
        let mut d = daemon_with_map();
        d.process_entries(&[entry(7, 0x10000, 1), entry(7, 0x11000, 1)]);
        assert_eq!(d.stats.unknown_samples, 1, "end address is exclusive");
    }

    #[test]
    fn exit_then_reap_keeps_late_samples_until_reap() {
        let mut d = daemon_with_map();
        d.handle_events(vec![OsEvent::ProcessExited { pid: Pid(7) }]);
        // Late sample before the reap still attributes.
        d.process_entries(&[entry(7, 0x10000, 1)]);
        assert_eq!(d.stats.unknown_samples, 0);
        d.reap();
        d.process_entries(&[entry(7, 0x10000, 1)]);
        assert_eq!(d.stats.unknown_samples, 1);
    }

    #[test]
    fn pid_reused_before_the_reap_starts_a_fresh_loadmap() {
        let mut d = daemon_with_map();
        d.handle_events(vec![
            OsEvent::ProcessExited { pid: Pid(7) },
            OsEvent::ProcessCreated { pid: Pid(7) },
            OsEvent::ImageLoaded {
                pid: Pid(7),
                image: ImageId(4),
                base: Addr(0x10000),
                size: 0x1000,
                path: "/bin/other".into(),
            },
        ]);
        assert_eq!(d.tracked_processes(), 1);
        d.process_entries(&[entry(7, 0x10010, 2)]);
        // The pending reap belongs to the dead process, not this one.
        d.reap();
        assert_eq!(d.tracked_processes(), 1);
        d.process_entries(&[entry(7, 0x10010, 3)]);
        assert_eq!(d.stats.unknown_samples, 0);
        let new = d.profiles().get(ImageId(4), Event::Cycles).unwrap();
        assert_eq!(new.get(0x10), 5);
        assert!(d.profiles().get(ImageId(3), Event::Cycles).is_none());
        // libm was the old process's mapping; the new one never loaded it.
        d.process_entries(&[entry(7, 0x50004, 1)]);
        assert!(d.profiles().get(ImageId(9), Event::Cycles).is_none());
        assert_eq!(d.stats.unknown_samples, 1);
    }

    #[test]
    fn image_loads_keep_the_loadmap_sorted_by_base() {
        let mut d = Daemon::new(DaemonConfig::default()).unwrap();
        let load = |image, base| OsEvent::ImageLoaded {
            pid: Pid(1),
            image: ImageId(image),
            base: Addr(base),
            size: 0x100,
            path: String::new(),
        };
        d.handle_events(vec![load(1, 0x3000), load(2, 0x1000), load(3, 0x2000)]);
        let bases: Vec<u64> = d.loadmaps[&Pid(1)].iter().map(|m| m.base.0).collect();
        assert_eq!(bases, [0x1000, 0x2000, 0x3000]);
        d.process_entries(&[
            entry(1, 0x2010, 1),
            entry(1, 0x1010, 1),
            entry(1, 0x3010, 1),
        ]);
        assert_eq!(d.stats.unknown_samples, 0);
    }

    #[test]
    fn startup_scan_learns_idle_processes() {
        let os = Os::new(
            2,
            8192,
            default_kernel(),
            None,
            dcpi_isa::pipeline::PipelineModel::default(),
        );
        let mut d = Daemon::new(DaemonConfig::default()).unwrap();
        d.startup_scan(&os);
        assert_eq!(d.tracked_processes(), 2);
        // A sample in the idle loop attributes to the kernel image.
        let idle_pc = os.kernel_proc_addr("_idle_loop").unwrap();
        d.process_entries(&[SampleEntry {
            sample: Sample {
                pid: Pid(0),
                pc: idle_pc,
                event: Event::Cycles,
            },
            count: 10,
        }]);
        assert_eq!(d.stats.unknown_samples, 0);
        assert!(d.profiles().get(os.kernel_image(), Event::Cycles).is_some());
    }

    #[test]
    fn cost_model_accrues_and_drains() {
        let mut d = daemon_with_map();
        d.process_entries(&[entry(7, 0x10000, 20)]);
        let c = d.take_accrued_cycles();
        assert_eq!(c, 800 + 10 * 20);
        assert_eq!(d.take_accrued_cycles(), 0, "drained");
        assert!((d.stats.cost_per_sample() - c as f64 / 20.0).abs() < 1e-9);
        assert_eq!(d.stats.aggregation_factor(), 20.0);
    }

    #[test]
    fn per_process_profiles_when_requested() {
        let cfg = DaemonConfig {
            per_process: vec![Pid(7)],
            ..DaemonConfig::default()
        };
        let mut d = Daemon::new(cfg).unwrap();
        d.handle_events(vec![OsEvent::ImageLoaded {
            pid: Pid(7),
            image: ImageId(3),
            base: Addr(0x10000),
            size: 0x1000,
            path: "/bin/app".into(),
        }]);
        d.process_entries(&[entry(7, 0x10000, 2), entry(8, 0x10000, 9)]);
        let pp = d.per_process_profiles(Pid(7)).unwrap();
        assert_eq!(pp.event_total(Event::Cycles), 2);
        assert!(d.per_process_profiles(Pid(8)).is_none());
    }

    #[test]
    fn flush_to_disk_and_read_back() {
        let dir = TempRoot::new("daemon");
        let cfg = DaemonConfig {
            db_path: Some(dir.to_path_buf()),
            ..DaemonConfig::default()
        };
        let mut d = Daemon::new(cfg).unwrap();
        d.handle_events(vec![OsEvent::ImageLoaded {
            pid: Pid(7),
            image: ImageId(3),
            base: Addr(0x10000),
            size: 0x1000,
            path: "/bin/app".into(),
        }]);
        d.process_entries(&[entry(7, 0x10008, 6)]);
        d.flush_to_disk().unwrap();
        assert!(d.profiles().is_empty(), "cleared after flush");
        assert_eq!(d.stats.flushes, 1);
        let db = d.db().unwrap();
        let set = db.read_all().unwrap();
        assert_eq!(set.get(ImageId(3), Event::Cycles).unwrap().get(8), 6);
        assert!(db.disk_usage().unwrap() > 0);
    }

    #[test]
    fn reopen_resumes_newest_epoch_with_names() {
        let dir = TempRoot::new("daemon-reopen");
        let cfg = DaemonConfig {
            db_path: Some(dir.to_path_buf()),
            ..DaemonConfig::default()
        };
        {
            let mut d = Daemon::new(cfg.clone()).unwrap();
            d.handle_events(vec![OsEvent::ImageLoaded {
                pid: Pid(7),
                image: ImageId(3),
                base: Addr(0x10000),
                size: 0x1000,
                path: "/bin/app".into(),
            }]);
            d.process_entries(&[entry(7, 0x10008, 6)]);
            d.flush_to_disk().unwrap();
            d.new_epoch().unwrap();
            // Crash here: the daemon is dropped mid-epoch.
        }
        let d = Daemon::reopen(cfg).unwrap();
        let db = d.db().unwrap();
        assert_eq!(db.current_epoch().0, 1, "resumes the newest epoch");
        let set = db.read_all().unwrap();
        assert_eq!(set.get(ImageId(3), Event::Cycles).unwrap().get(8), 6);
    }

    #[test]
    fn reopen_without_prior_database_creates_one() {
        let dir = TempRoot::new("daemon-fresh");
        let db = dir.join("db");
        let cfg = DaemonConfig {
            db_path: Some(db.clone()),
            ..DaemonConfig::default()
        };
        let d = Daemon::reopen(cfg).unwrap();
        assert!(d.db().is_some());
        assert!(db.is_dir(), "reopen created the missing database");
    }

    #[test]
    fn image_write_failures_are_counted() {
        let dir = TempRoot::new("daemon-iofail");
        let cfg = DaemonConfig {
            db_path: Some(dir.to_path_buf()),
            ..DaemonConfig::default()
        };
        let mut d = Daemon::new(cfg).unwrap();
        // Occupy the `images` directory name with a file: saving the
        // profiled executables must now fail, and the failure must be
        // counted rather than swallowed.
        std::fs::write(dir.join("images"), b"not a directory").unwrap();
        let os = Os::new(
            1,
            8192,
            default_kernel(),
            None,
            dcpi_isa::pipeline::PipelineModel::default(),
        );
        d.startup_scan(&os);
        assert!(d.stats.image_write_failures > 0);
    }

    #[test]
    fn memory_accounting_tracks_peak() {
        let os = Os::new(
            1,
            8192,
            default_kernel(),
            None,
            dcpi_isa::pipeline::PipelineModel::default(),
        );
        let mut d = daemon_with_map();
        d.update_memory(&os);
        let first = d.stats.memory_bytes;
        assert!(first > 1_000_000);
        for i in 0..1000 {
            d.process_entries(&[entry(7, 0x10000 + i * 4, 1)]);
        }
        d.update_memory(&os);
        assert!(d.stats.memory_bytes > first);
        assert_eq!(d.stats.peak_memory_bytes, d.stats.memory_bytes);
    }

    fn raw(pid: u32, frames: &[u64], count: u64) -> RawStackSample {
        RawStackSample {
            pid: Pid(pid),
            event: 0,
            frames: frames.to_vec(),
            count,
        }
    }

    #[test]
    fn stack_samples_canonicalize_through_loadmaps() {
        let mut d = daemon_with_map();
        // Outermost-first raw frames: main in image 3, callee in image 9.
        d.process_stack_samples(&[raw(7, &[0x10010, 0x50004], 4)]);
        assert_eq!(d.stats.stack_samples, 4);
        assert_eq!(d.stats.unknown_stack_frames, 0);
        let p = d.stack_profile();
        assert_eq!(p.total(), 4);
        let (&(_, pid, id), &count) = p.counts.iter().next().unwrap();
        assert_eq!((pid, count), (7, 4));
        assert_eq!(
            p.table.frames(id),
            vec![
                Frame {
                    image: ImageId(3),
                    offset: 0x10
                },
                Frame {
                    image: ImageId(9),
                    offset: 4
                }
            ]
        );
    }

    #[test]
    fn unresolvable_frames_fold_into_unknown_but_conserve_counts() {
        let mut d = daemon_with_map();
        d.process_stack_samples(&[raw(7, &[0x10010, 0xdead_0000], 3)]);
        assert_eq!(d.stats.stack_samples, 3);
        assert_eq!(d.stats.unknown_stack_frames, 1);
        assert_eq!(d.stack_profile().total(), 3, "count survives bad frames");
        let (&(_, _, id), _) = d.stack_profile().counts.iter().next().unwrap();
        let frames = d.stack_profile().table.frames(id);
        assert_eq!(frames[1].image, UNKNOWN_IMAGE);
        assert_eq!(frames[1].offset, 0xdead_0000, "raw pc kept for forensics");
    }

    #[test]
    fn stack_processing_accrues_cycles() {
        let mut d = daemon_with_map();
        d.process_stack_samples(&[raw(7, &[0x10010, 0x50004], 1)]);
        assert_eq!(d.take_accrued_cycles(), 2 * 40);
    }

    #[test]
    fn stacks_flush_to_epoch_sidecar_and_read_back() {
        let dir = TempRoot::new("daemon-stacks");
        let cfg = DaemonConfig {
            db_path: Some(dir.to_path_buf()),
            ..DaemonConfig::default()
        };
        let mut d = Daemon::new(cfg).unwrap();
        d.handle_events(vec![OsEvent::ImageLoaded {
            pid: Pid(7),
            image: ImageId(3),
            base: Addr(0x10000),
            size: 0x1000,
            path: "/bin/app".into(),
        }]);
        d.process_stack_samples(&[raw(7, &[0x10010], 5)]);
        d.flush_to_disk().unwrap();
        assert!(d.stack_profile().is_empty(), "counts cleared after flush");
        // Second flush into the same epoch merges on disk.
        d.process_stack_samples(&[raw(7, &[0x10010], 2)]);
        d.flush_to_disk().unwrap();
        let db = d.db().unwrap();
        let epoch0 = read_epoch_stacks(db, EpochId(0)).unwrap().unwrap();
        assert_eq!(epoch0.total(), 7, "both flushes merged");
        epoch0.table.check_bijective().unwrap();
        // New epoch: the sidecar is per-epoch.
        d.new_epoch().unwrap();
        d.process_stack_samples(&[raw(7, &[0x10020], 1)]);
        d.flush_to_disk().unwrap();
        let all = read_all_stacks(d.db().unwrap()).unwrap();
        assert_eq!(all.total(), 8);
        assert!(read_epoch_stacks(d.db().unwrap(), EpochId(1))
            .unwrap()
            .is_some());
    }

    #[test]
    fn missing_stack_sidecar_reads_as_none() {
        let dir = TempRoot::new("daemon-nostacks");
        let cfg = DaemonConfig {
            db_path: Some(dir.to_path_buf()),
            ..DaemonConfig::default()
        };
        let d = Daemon::new(cfg).unwrap();
        assert!(read_epoch_stacks(d.db().unwrap(), EpochId(0))
            .unwrap()
            .is_none());
        assert!(read_all_stacks(d.db().unwrap()).unwrap().is_empty());
    }

    #[test]
    fn new_epoch_without_db_errors() {
        let mut d = Daemon::new(DaemonConfig::default()).unwrap();
        assert!(d.new_epoch().is_err());
    }

    #[test]
    fn resolve_free_function_matches_daemon() {
        let d = daemon_with_map();
        let r = resolve(&d.loadmaps, Pid(7), Addr(0x10020));
        assert_eq!(r, Some((ImageId(3), 0x20)));
        assert_eq!(resolve(&d.loadmaps, Pid(7), Addr(0x9)), None);
    }
}
