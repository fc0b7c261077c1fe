//! Differential oracle for the daemon's accumulate → view → flush cycle.
//!
//! The daemon counts into a hash map and sorts only when somebody asks
//! for a `ProfileSet`. Here a model kept in `BTreeMap`s — loadmaps with
//! the exit/reap/PID-reuse rules, counts keyed `(image, event, offset)`
//! since the last successful flush and on disk, and the cost and memory
//! formulae — runs beside it through random interleavings of loader
//! events, entry batches, reads of the view, flushes (some made to fail),
//! reaps and restarts, and the two are compared after every step. Seeded,
//! so a failure reproduces from the case and step in the message.

use dcpi::collect::daemon::{Daemon, DaemonConfig};
use dcpi::core::prng::CartaRng;
use dcpi::core::{Addr, Event, ImageId, Pid, ProfileSet, Sample, SampleEntry, UNKNOWN_IMAGE};
use dcpi::isa::pipeline::PipelineModel;
use dcpi::machine::os::{default_kernel, Os, OsEvent};
use dcpi_testkit::TempRoot;
use std::collections::{BTreeMap, BTreeSet};

type Cells = BTreeMap<(ImageId, Event, u64), u64>;

const EVENTS: [Event; 3] = [Event::Cycles, Event::IMiss, Event::DMiss];
const IMAGE_SIZE: u64 = 0x4000;

/// Image `k` loads at `k << 16` in every process that maps it.
fn base_of(image: u32) -> u64 {
    u64::from(image) << 16
}

#[derive(Default)]
struct Model {
    /// `pid → (base, size, image)`, in load order.
    loadmaps: BTreeMap<u32, Vec<(u64, u64, u32)>>,
    exited: Vec<u32>,
    /// Counts since the last successful flush. A zero-count entry leaves a
    /// zero cell: its `(image, event)` profile exists and is empty.
    pending: Cells,
    on_disk: Cells,
    entries: u64,
    samples: u64,
    unknown: u64,
    cycles: u64,
    peak_memory: u64,
}

impl Model {
    fn handle(&mut self, ev: &OsEvent) {
        match ev {
            OsEvent::ProcessCreated { pid } => {
                let maps = self.loadmaps.entry(pid.0).or_default();
                if self.exited.contains(&pid.0) {
                    self.exited.retain(|p| *p != pid.0);
                    maps.clear();
                }
            }
            OsEvent::ImageLoaded {
                pid,
                image,
                base,
                size,
                ..
            } => self
                .loadmaps
                .entry(pid.0)
                .or_default()
                .push((base.0, *size, image.0)),
            OsEvent::ProcessExited { pid } => self.exited.push(pid.0),
        }
    }

    fn reap(&mut self) {
        for pid in self.exited.drain(..) {
            self.loadmaps.remove(&pid);
        }
    }

    fn resolve(&self, pid: u32, pc: u64) -> Option<(ImageId, u64)> {
        let maps = self.loadmaps.get(&pid)?;
        let &(base, _, image) = maps
            .iter()
            .find(|&&(base, size, _)| base <= pc && pc < base + size)?;
        Some((ImageId(image), pc - base))
    }

    fn process(&mut self, batch: &[SampleEntry]) {
        for e in batch {
            self.entries += 1;
            self.samples += e.count;
            self.cycles += 800 + 10 * e.count;
            let s = e.sample;
            let (image, offset) = self.resolve(s.pid.0, s.pc.0).unwrap_or_else(|| {
                self.unknown += e.count;
                (UNKNOWN_IMAGE, s.pc.0)
            });
            *self.pending.entry((image, s.event, offset)).or_insert(0) += e.count;
        }
    }

    /// Table 5's model: 1.4 MB of text and staging buffer, 64 + 48 B per
    /// mapping list and mapping, 64 + 24 B per profile and entry, 256 B
    /// per image the OS knows.
    fn memory(&self, os_images: u64) -> u64 {
        let loadmaps: u64 = self
            .loadmaps
            .values()
            .map(|m| 64 + 48 * m.len() as u64)
            .sum();
        let profiles: BTreeSet<_> = self.pending.keys().map(|&(i, e, _)| (i, e)).collect();
        let live = self.pending.values().filter(|&&c| c > 0).count() as u64;
        1_400_000 + loadmaps + 64 * profiles.len() as u64 + 24 * live + 256 * os_images
    }
}

fn live(cells: &Cells) -> Cells {
    cells
        .iter()
        .filter(|(_, &c)| c > 0)
        .map(|(&k, &c)| (k, c))
        .collect()
}

/// Flattens a set, checking the sorted-run invariant on the way.
fn cells_of(set: &ProfileSet, what: &str) -> Cells {
    let mut out = Cells::new();
    for (key, p) in set.iter() {
        let mut prev = None;
        for (offset, count) in p.iter() {
            assert!(prev < Some(offset), "{what}: run not strictly increasing");
            assert!(count > 0, "{what}: zero count in a run");
            prev = Some(offset);
            out.insert((key.image, key.event, offset), count);
        }
    }
    out
}

fn check(d: &Daemon, m: &Model, what: &str) {
    let view = d.profiles();
    assert_eq!(cells_of(view, what), live(&m.pending), "{what}: profiles()");
    let profiles: BTreeSet<_> = m.pending.keys().map(|&(i, e, _)| (i, e)).collect();
    assert_eq!(view.len(), profiles.len(), "{what}: number of profiles");
    let db = d.db().expect("database configured");
    let disk = db.read_all().expect("read back");
    assert!(db.damage().is_clean(), "{what}: database damaged");
    assert_eq!(cells_of(&disk, what), live(&m.on_disk), "{what}: database");
    assert_eq!(
        disk.total_samples() + view.total_samples(),
        m.on_disk.values().chain(m.pending.values()).sum::<u64>(),
        "{what}: a sample was lost or counted twice"
    );
    let s = d.stats;
    assert_eq!(
        (s.entries, s.samples, s.unknown_samples, s.cycles),
        (m.entries, m.samples, m.unknown, m.cycles),
        "{what}: stats"
    );
}

fn random_event(rng: &mut CartaRng) -> OsEvent {
    let pid = Pid(rng.uniform(1, 6) as u32);
    match rng.uniform(0, 5) {
        0 => OsEvent::ProcessCreated { pid },
        1 => OsEvent::ProcessExited { pid },
        _ => {
            let image = rng.uniform(1, 4) as u32;
            OsEvent::ImageLoaded {
                pid,
                image: ImageId(image),
                base: Addr(base_of(image)),
                size: IMAGE_SIZE,
                path: format!("/bin/image{image}"),
            }
        }
    }
}

/// Mostly hot word-aligned PCs inside the four images, some past an
/// image's end or in the gaps, some from PIDs nobody announced.
fn random_entry(rng: &mut CartaRng) -> SampleEntry {
    let image = rng.uniform(1, 4) as u32;
    let pc = match rng.uniform(0, 19) {
        0 => base_of(image) + IMAGE_SIZE + rng.uniform(0, 64) * 4,
        1 => rng.uniform(0, 1 << 20),
        _ => base_of(image) + rng.uniform(0, 40) * 4,
    };
    SampleEntry {
        sample: Sample {
            pid: Pid(rng.uniform(1, 7) as u32),
            pc: Addr(pc),
            event: EVENTS[rng.uniform(0, 2) as usize],
        },
        count: rng.uniform(0, 30),
    }
}

fn os() -> Os {
    Os::new(1, 8192, default_kernel(), None, PipelineModel::default())
}

#[test]
fn random_interleavings_match_the_btreemap_oracle() {
    let os = os();
    let os_images = os.images().count() as u64;
    let mut rng = CartaRng::new(0xdae3017);
    let mut failed_flushes = 0;
    for case in 0..12 {
        let dir = TempRoot::new(&format!("daemon-oracle-case{case}"));
        let cfg = DaemonConfig {
            db_path: Some(dir.to_path_buf()),
            ..DaemonConfig::default()
        };
        let mut d = Daemon::new(cfg.clone()).unwrap();
        let mut m = Model::default();
        for step in 0..rng.uniform(40, 90) {
            let what = format!("case {case} step {step}");
            match rng.uniform(0, 19) {
                0..=3 => {
                    let events: Vec<_> = (0..rng.uniform(1, 5))
                        .map(|_| random_event(&mut rng))
                        .collect();
                    events.iter().for_each(|ev| m.handle(ev));
                    d.handle_events(events);
                }
                4..=11 => {
                    let n = [0, 1, 7, 7, 8192][rng.uniform(0, 4) as usize];
                    let batch: Vec<_> = (0..n).map(|_| random_entry(&mut rng)).collect();
                    m.process(&batch);
                    d.process_entries(&batch);
                }
                12 => {
                    m.reap();
                    d.reap();
                    assert_eq!(d.tracked_processes(), m.loadmaps.len(), "{what}: reap");
                }
                13 | 14 => {
                    d.update_memory(&os);
                    let expect = m.memory(os_images);
                    m.peak_memory = m.peak_memory.max(expect);
                    assert_eq!(d.stats.memory_bytes, expect, "{what}: memory");
                    assert_eq!(d.stats.peak_memory_bytes, m.peak_memory, "{what}: peak");
                }
                15 | 16 => {
                    d.flush_to_disk().expect("flush");
                    for (k, c) in std::mem::take(&mut m.pending) {
                        *m.on_disk.entry(k).or_insert(0) += c;
                    }
                }
                17 | 18 if !m.pending.is_empty() => {
                    // A directory squatting on the first profile's `.tmp`
                    // name: the merge fails before it renames anything.
                    let first = d.profiles().sorted_keys()[0];
                    let db = d.db().unwrap();
                    let squatter = db.epoch_path(db.current_epoch()).join(format!(
                        "{:08x}.{}.tmp",
                        first.image.0,
                        first.event.name()
                    ));
                    std::fs::create_dir(&squatter).unwrap();
                    assert!(d.flush_to_disk().is_err(), "{what}: flush must fail");
                    failed_flushes += 1;
                    check(&d, &m, &format!("{what} after the failed flush"));
                    std::fs::remove_dir(&squatter).unwrap();
                    if rng.uniform(0, 1) == 0 {
                        d.flush_to_disk().expect("retry");
                        for (k, c) in std::mem::take(&mut m.pending) {
                            *m.on_disk.entry(k).or_insert(0) += c;
                        }
                    }
                }
                17 | 18 => {}
                _ => {
                    // Crash and restart: memory is gone, the disk is not.
                    d = Daemon::reopen(cfg.clone()).unwrap();
                    m = Model {
                        on_disk: std::mem::take(&mut m.on_disk),
                        ..Model::default()
                    };
                }
            }
            check(&d, &m, &what);
        }
    }
    assert!(failed_flushes >= 5, "only {failed_flushes} failed flushes");
}

/// 200 000 first touches of one profile in random order. With a sorted
/// run as the accumulator each one shifted half the run — 10^10 entries
/// moved in all, five seconds under this workspace's test profile;
/// hashing them and sorting once takes 65 ms.
#[test]
fn random_first_touches_scale() {
    const OFFSETS: u64 = 200_000;
    let mut rng = CartaRng::new(0x5ca1e);
    let mut order: Vec<u64> = (0..OFFSETS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.uniform(0, i as u64) as usize);
    }
    let mut d = Daemon::new(DaemonConfig::default()).unwrap();
    d.handle_events(vec![OsEvent::ImageLoaded {
        pid: Pid(1),
        image: ImageId(1),
        base: Addr(0x10_0000),
        size: OFFSETS * 4,
        path: "/bin/big".into(),
    }]);
    let batch: Vec<_> = order
        .iter()
        .map(|&i| SampleEntry {
            sample: Sample {
                pid: Pid(1),
                pc: Addr(0x10_0000 + i * 4),
                event: Event::Cycles,
            },
            count: i + 1,
        })
        .collect();
    let started = std::time::Instant::now();
    for chunk in batch.chunks(8192) {
        d.process_entries(chunk);
    }
    let p = d.profiles().get(ImageId(1), Event::Cycles).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(p.len() as u64, OFFSETS);
    assert!(p.iter().eq((0..OFFSETS).map(|i| (i * 4, i + 1))));
    assert_eq!(d.stats.unknown_samples, 0);
    assert!(elapsed.as_millis() < 1000, "took {elapsed:?}");
}
