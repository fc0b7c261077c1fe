//! The on-disk profile database (§4.3.3).
//!
//! Samples are organized into non-overlapping *epochs*, each of which holds
//! all samples collected during a given time interval. Each epoch occupies
//! a separate subdirectory of the database, and a separate file stores the
//! profile for a given image and event combination. A new epoch can be
//! initiated at any time; the daemon merges in-memory profile data into the
//! current epoch periodically.
//!
//! A file holds one sorted run and decodes straight into a
//! [`Profile`], which is the same run in memory. Reads therefore move
//! whole decoded profiles into the [`ProfileSet`] and merges are
//! merge-joins of two runs; nothing here works entry by entry.
//!
//! One file per (image, event) per epoch exists so that a tool opens only
//! the profiles it is asked about: [`ProfileDb::scan`] is the one
//! directory walk under every reader, and it refuses a file by its name
//! before opening it. A reader that reports a sum keeps each visited
//! profile's total and builds no merged set.
//!
//! Layout on disk:
//!
//! ```text
//! <root>/
//!   images.tsv                 # image id → pathname map (database-wide)
//!   epoch_0000/
//!     00000003.cycles.prof     # image 3, CYCLES event
//!     00000003.imiss.prof
//!   epoch_0001/
//!     ...
//! ```

use crate::codec::{decode_profile, encode_profile, Format};
use crate::error::{Error, Result};
use crate::profile::{Profile, ProfileKey, ProfileSet};
use crate::types::{Event, ImageId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::thread;

/// Identifies one epoch in a database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EpochId(pub u32);

/// Files one [`ProfileDb::merge`] writes, syncs and renames as a group;
/// bounds the descriptors and threads a large flush holds at once.
const SYNC_BATCH: usize = 16;

/// `sync_all` on every file, issued concurrently and all finished on
/// return. A journaling filesystem commits concurrent syncs together, so
/// a batch waits for the device about once instead of once per file; that
/// wait is the slowest and least repeatable step of a flush.
fn sync_together(files: &[fs::File]) -> io::Result<()> {
    if let [one] = files {
        return one.sync_all();
    }
    thread::scope(|s| {
        let started: Vec<_> = files
            .iter()
            .map(|f| thread::Builder::new().spawn_scoped(s, || f.sync_all()))
            .collect();
        started
            .into_iter()
            .zip(files)
            .map(|(handle, f)| match handle {
                Ok(h) => h.join().expect("sync_all does not panic"),
                // No thread to be had: sync on this one.
                Err(_) => f.sync_all(),
            })
            .fold(Ok(()), io::Result::and)
    })
}

/// Damage discovered — and contained — while recovering or reading a
/// database: torn merges swept at [`ProfileDb::open`] and corrupt profile
/// files quarantined instead of aborting a read. Each entry names the
/// original profile path.
#[derive(Clone, Debug, Default)]
pub struct DbDamage {
    /// Stale `.tmp` files removed at open (a crash interrupted the
    /// write-then-rename merge protocol; the durable file is intact).
    pub swept_tmp: Vec<PathBuf>,
    /// Profile files that failed framing/checksum/decode validation and
    /// were renamed aside with a `.quar` extension.
    pub quarantined: Vec<PathBuf>,
}

impl DbDamage {
    /// True when no damage has been observed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.swept_tmp.is_empty() && self.quarantined.is_empty()
    }

    /// Number of quarantined profile files.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

/// A profile database rooted at a directory, holding epochs of profiles
/// plus an image-name map.
#[derive(Debug)]
pub struct ProfileDb {
    root: PathBuf,
    current: EpochId,
    format: Format,
    image_names: BTreeMap<u32, String>,
    // Interior mutability: reads take `&self` (tools hold shared
    // references) but must still be able to record the damage they
    // contained.
    damage: RefCell<DbDamage>,
}

impl ProfileDb {
    /// Creates a database at `root` (creating directories as needed) with
    /// an initial epoch 0, writing profiles in `format`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directories cannot be created.
    pub fn create(root: impl Into<PathBuf>, format: Format) -> Result<ProfileDb> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let db = ProfileDb {
            root,
            current: EpochId(0),
            format,
            image_names: BTreeMap::new(),
            damage: RefCell::new(DbDamage::default()),
        };
        fs::create_dir_all(db.epoch_dir(db.current))?;
        Ok(db)
    }

    /// Opens an existing database, resuming at its newest epoch. Stale
    /// `.tmp` files left by a merge interrupted mid-write are swept (the
    /// rename never happened, so the durable profile is intact) and
    /// recorded in [`ProfileDb::damage`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if `root` exists but contains no epochs,
    /// or an I/O error if it cannot be read.
    pub fn open(root: impl Into<PathBuf>, format: Format) -> Result<ProfileDb> {
        let root = root.into();
        let epochs = list_epochs(&root)?;
        let current = *epochs
            .last()
            .ok_or_else(|| Error::NotFound(format!("no epochs in {}", root.display())))?;
        let mut db = ProfileDb {
            root,
            current,
            format,
            image_names: BTreeMap::new(),
            damage: RefCell::default(),
        };
        let mut swept = Vec::new();
        for epoch in epochs {
            for file in fs::read_dir(db.epoch_dir(epoch))? {
                let path = file?.path();
                if path.extension().is_some_and(|e| e == "tmp") {
                    fs::remove_file(&path)?;
                    swept.push(path);
                }
            }
        }
        swept.sort();
        db.damage.get_mut().swept_tmp = swept;
        db.load_image_names()?;
        Ok(db)
    }

    /// The damage contained so far: `.tmp` files swept at open plus
    /// profile files quarantined during reads and merges.
    #[must_use]
    pub fn damage(&self) -> DbDamage {
        self.damage.borrow().clone()
    }

    /// Moves a corrupt profile file aside (appending `.quar`, never
    /// clobbering an earlier quarantine) and records it. Best-effort: if
    /// even the rename fails the file is removed so readers and merges
    /// cannot trip over it again.
    fn quarantine(&self, path: &Path) {
        let mut dst = path.with_extension("prof.quar");
        let mut n = 1;
        while dst.exists() {
            n += 1;
            dst = path.with_extension(format!("prof.quar{n}"));
        }
        if fs::rename(path, &dst).is_err() {
            let _ = fs::remove_file(path);
        }
        self.damage
            .borrow_mut()
            .quarantined
            .push(path.to_path_buf());
    }

    /// The directory this database lives in.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The epoch new samples are merged into.
    #[must_use]
    pub fn current_epoch(&self) -> EpochId {
        self.current
    }

    /// Lists all epochs present on disk, sorted.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the root directory cannot be read.
    pub fn epochs(&self) -> Result<Vec<EpochId>> {
        list_epochs(&self.root)
    }

    /// Starts a new epoch; subsequent merges go to it (§4.3.3: "a new epoch
    /// can be initiated by a user-level command").
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the epoch directory cannot be created.
    pub fn new_epoch(&mut self) -> Result<EpochId> {
        let next = EpochId(self.current.0 + 1);
        fs::create_dir_all(self.epoch_dir(next))?;
        self.current = next;
        Ok(next)
    }

    /// Records the pathname for an image id, persisting the map.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the map file cannot be written.
    pub fn record_image_name(&mut self, image: ImageId, name: &str) -> Result<()> {
        if self
            .image_names
            .insert(image.0, name.to_string())
            .as_deref()
            != Some(name)
        {
            self.save_image_names()?;
        }
        Ok(())
    }

    /// Looks up the recorded pathname for an image.
    #[must_use]
    pub fn image_name(&self, image: ImageId) -> Option<&str> {
        self.image_names.get(&image.0).map(String::as_str)
    }

    /// Merges a set of in-memory profiles into the current epoch,
    /// read-modify-writing each affected file. Writes are crash-safe
    /// (write `.tmp`, sync, rename), [`SYNC_BATCH`] files at a time: a
    /// batch's temporaries are all written, synced together, then renamed,
    /// so no file is renamed before its bytes are durable. An existing file
    /// that fails validation is quarantined and the merge proceeds from
    /// empty rather than aborting the flush.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if an existing file cannot be read or a new
    /// one cannot be written.
    pub fn merge(&mut self, set: &ProfileSet) -> Result<()> {
        for batch in set.sorted_keys().chunks(SYNC_BATCH) {
            let (mut files, mut paths) = (Vec::new(), Vec::new());
            for &key in batch {
                let incoming = set
                    .get(key.image, key.event)
                    .expect("sorted_keys returned a missing key");
                let path = self.profile_path(self.current, key);
                // A corrupt or mislabeled old file is quarantined and this
                // flush's samples kept; the lost counts stay recoverable
                // from the quarantined copy.
                let existing = if path.exists() {
                    self.load(&path, key.event)?
                } else {
                    None
                };
                // A fresh file is the incoming run as it stands.
                let bytes = match existing {
                    Some(mut merged) => {
                        merged.merge(incoming);
                        encode_profile(&merged, key.event, self.format)
                    }
                    None => encode_profile(incoming, key.event, self.format),
                };
                let tmp = path.with_extension("tmp");
                let mut f = fs::File::create(&tmp)?;
                f.write_all(&bytes)?;
                files.push(f);
                paths.push((tmp, path));
            }
            sync_together(&files)?;
            drop(files);
            for (tmp, path) in paths {
                fs::rename(&tmp, &path)?;
            }
        }
        Ok(())
    }

    /// Reads one profile from an epoch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if no such profile file exists, or a
    /// corruption error if it cannot be decoded.
    pub fn read_profile(&self, epoch: EpochId, key: ProfileKey) -> Result<Profile> {
        let path = self.profile_path(epoch, key);
        if !path.exists() {
            return Err(Error::NotFound(path.display().to_string()));
        }
        let data = fs::read(&path)?;
        let (profile, _) = decode_profile(&data)?;
        Ok(profile)
    }

    /// Streams profile files to `visit`, one whole decoded [`Profile`] per
    /// file: every file of `epochs` (in the order given; within an epoch
    /// in directory order, which is arbitrary) whose name parses as a
    /// profile key that `want` accepts. This is the one directory walk
    /// under every reader. A file is refused *by its name*, before it is
    /// opened — sidecars, `.tmp` and `.quar` names are not profile names,
    /// and a key `want` declines costs no read. A file that is opened and
    /// fails framing/checksum validation, or whose encoded event
    /// contradicts its name, is quarantined and counted in
    /// [`ProfileDb::damage`], not visited and not fatal: a single corrupt
    /// file must never cost the rest of the database. A visitor may
    /// assume each (epoch, key) arrives at most once, checksummed, with
    /// the event its key names.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for a missing epoch, or an I/O error
    /// naming the directory or file that could not be read. Files visited
    /// before the error stay visited: a caller that reports a sum must
    /// discard it on `Err`.
    pub fn scan(
        &self,
        epochs: impl IntoIterator<Item = EpochId>,
        want: impl Fn(ProfileKey) -> bool,
        mut visit: impl FnMut(EpochId, ProfileKey, Profile),
    ) -> Result<()> {
        for epoch in epochs {
            let dir = self.epoch_dir(epoch);
            for entry in fs::read_dir(&dir).map_err(|e| unreadable(&dir, e))? {
                let name = entry?.file_name();
                let Some(key) = name.to_str().and_then(parse_profile_name) else {
                    continue;
                };
                if !want(key) {
                    continue;
                }
                if let Some(profile) = self.load(&dir.join(&name), key.event)? {
                    visit(epoch, key, profile);
                }
            }
        }
        Ok(())
    }

    /// Reads and validates the profile file at `path`, which its name says
    /// holds `event`. A file that fails framing/checksum validation, or
    /// whose encoded event contradicts its name, is quarantined and `None`.
    fn load(&self, path: &Path, event: Event) -> Result<Option<Profile>> {
        let data = fs::read(path).map_err(|e| unreadable(path, e))?;
        match decode_profile(&data) {
            Ok((profile, ev)) if ev == event => Ok(Some(profile)),
            Ok(_) | Err(Error::Corrupt(_)) | Err(Error::UnsupportedVersion(_)) => {
                self.quarantine(path);
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Loads every profile in an epoch into a [`ProfileSet`]; corrupt
    /// files are quarantined, never fatal (see [`ProfileDb::scan`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for a missing epoch or an I/O error if
    /// the directory cannot be read.
    pub fn read_epoch(&self, epoch: EpochId) -> Result<ProfileSet> {
        self.read_merged([epoch])
    }

    /// Loads and merges the profiles of *all* epochs; corrupt files are
    /// quarantined, never fatal (see [`ProfileDb::scan`]).
    ///
    /// # Errors
    ///
    /// Propagates only I/O-level epoch read failures.
    pub fn read_all(&self) -> Result<ProfileSet> {
        self.read_merged(self.epochs()?)
    }

    /// Moves (or, for a key already present, merge-joins) each whole
    /// profile of `epochs` into one set.
    fn read_merged(&self, epochs: impl IntoIterator<Item = EpochId>) -> Result<ProfileSet> {
        let mut set = ProfileSet::new();
        self.scan(epochs, |_| true, |_, key, profile| set.insert(key, profile))?;
        Ok(set)
    }

    /// Total bytes of profile data on disk across all epochs (Table 5's
    /// "Disk usage" column).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if directory metadata cannot be read.
    pub fn disk_usage(&self) -> Result<u64> {
        let mut total = 0;
        for epoch in self.epochs()? {
            for entry in fs::read_dir(self.epoch_dir(epoch))? {
                let entry = entry?;
                // Count live profiles only — not quarantined or stale
                // temporary files.
                if entry.path().extension().is_some_and(|e| e == "prof") {
                    total += entry.metadata()?.len();
                }
            }
        }
        Ok(total)
    }

    /// Directory holding one epoch's files. Public so sidecar artifacts
    /// keyed to an epoch — the calling-context stack tables, which use
    /// their own `DCST` format rather than the `.prof` codec — can live
    /// next to the profiles they annotate. Only `.prof` files are read
    /// by the profile loaders, so sidecars never confuse them.
    #[must_use]
    pub fn epoch_path(&self, epoch: EpochId) -> PathBuf {
        self.epoch_dir(epoch)
    }

    fn epoch_dir(&self, epoch: EpochId) -> PathBuf {
        self.root.join(format!("epoch_{:04}", epoch.0))
    }

    fn profile_path(&self, epoch: EpochId, key: ProfileKey) -> PathBuf {
        self.epoch_dir(epoch)
            .join(format!("{:08x}.{}.prof", key.image.0, key.event.name()))
    }

    fn image_map_path(&self) -> PathBuf {
        self.root.join("images.tsv")
    }

    fn save_image_names(&self) -> Result<()> {
        let mut out = String::new();
        for (id, name) in &self.image_names {
            out.push_str(&format!("{id}\t{name}\n"));
        }
        fs::write(self.image_map_path(), out)?;
        Ok(())
    }

    fn load_image_names(&mut self) -> Result<()> {
        let path = self.image_map_path();
        if !path.exists() {
            return Ok(());
        }
        let text = fs::read_to_string(path)?;
        for line in text.lines() {
            if let Some((id, name)) = line.split_once('\t') {
                if let Ok(id) = id.parse::<u32>() {
                    self.image_names.insert(id, name.to_string());
                }
            }
        }
        Ok(())
    }
}

/// A read failure that names what could not be read.
fn unreadable(path: &Path, e: io::Error) -> Error {
    match e.kind() {
        io::ErrorKind::NotFound => Error::NotFound(path.display().to_string()),
        kind => Error::Io(io::Error::new(kind, format!("{}: {e}", path.display()))),
    }
}

/// The epochs under `root`, sorted.
fn list_epochs(root: &Path) -> Result<Vec<EpochId>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root)? {
        if let Some(id) = parse_epoch_dir(&entry?.file_name().to_string_lossy()) {
            out.push(id);
        }
    }
    out.sort_unstable();
    Ok(out)
}

fn parse_epoch_dir(name: &str) -> Option<EpochId> {
    name.strip_prefix("epoch_")?.parse().ok().map(EpochId)
}

fn parse_profile_name(name: &str) -> Option<ProfileKey> {
    let stem = name.strip_suffix(".prof")?;
    let (image_hex, event_name) = stem.split_once('.')?;
    let image = u32::from_str_radix(image_hex, 16).ok()?;
    let event = Event::ALL.into_iter().find(|e| e.name() == event_name)?;
    Some(ProfileKey {
        image: ImageId(image),
        event,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_root(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let p =
            std::env::temp_dir().join(format!("dcpi-db-test-{}-{}-{}", std::process::id(), tag, n));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn sample_set() -> ProfileSet {
        let mut set = ProfileSet::new();
        set.add(ImageId(3), Event::Cycles, 0, 10);
        set.add(ImageId(3), Event::Cycles, 8, 5);
        set.add(ImageId(3), Event::IMiss, 0, 2);
        set.add(ImageId(7), Event::Cycles, 400, 1);
        set
    }

    #[test]
    fn create_merge_read_roundtrip() {
        let root = temp_root("roundtrip");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        db.merge(&sample_set()).unwrap();
        let back = db.read_epoch(EpochId(0)).unwrap();
        assert_eq!(back.event_total(Event::Cycles), 16);
        assert_eq!(back.event_total(Event::IMiss), 2);
        assert_eq!(back.get(ImageId(3), Event::Cycles).unwrap().get(8), 5);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn repeated_merges_accumulate() {
        let root = temp_root("accumulate");
        let mut db = ProfileDb::create(&root, Format::V1).unwrap();
        db.merge(&sample_set()).unwrap();
        db.merge(&sample_set()).unwrap();
        let back = db.read_epoch(EpochId(0)).unwrap();
        assert_eq!(back.get(ImageId(3), Event::Cycles).unwrap().get(0), 20);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_spanning_sync_batches_lands_every_file() {
        let root = temp_root("batches");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        let mut set = ProfileSet::new();
        let images = 2 * SYNC_BATCH as u32 + 3;
        for i in 0..images {
            set.add(
                ImageId(i),
                Event::Cycles,
                u64::from(i) * 4,
                u64::from(i) + 1,
            );
        }
        db.merge(&set).unwrap();
        db.merge(&set).unwrap();
        let names: Vec<String> = fs::read_dir(db.epoch_path(EpochId(0)))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), images as usize);
        assert!(names.iter().all(|n| n.ends_with(".prof")), "{names:?}");
        let back = db.read_epoch(EpochId(0)).unwrap();
        for i in 0..images {
            let p = back.get(ImageId(i), Event::Cycles).unwrap();
            assert_eq!(p.get(u64::from(i) * 4), 2 * (u64::from(i) + 1));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn new_epoch_separates_samples() {
        let root = temp_root("epochs");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        db.merge(&sample_set()).unwrap();
        let e1 = db.new_epoch().unwrap();
        assert_eq!(e1, EpochId(1));
        let mut late = ProfileSet::new();
        late.add(ImageId(3), Event::Cycles, 0, 100);
        db.merge(&late).unwrap();
        let ep0 = db.read_epoch(EpochId(0)).unwrap();
        let ep1 = db.read_epoch(EpochId(1)).unwrap();
        assert_eq!(ep0.get(ImageId(3), Event::Cycles).unwrap().get(0), 10);
        assert_eq!(ep1.get(ImageId(3), Event::Cycles).unwrap().get(0), 100);
        let all = db.read_all().unwrap();
        assert_eq!(all.get(ImageId(3), Event::Cycles).unwrap().get(0), 110);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_resumes_newest_epoch_and_names() {
        let root = temp_root("open");
        {
            let mut db = ProfileDb::create(&root, Format::V2).unwrap();
            db.record_image_name(ImageId(3), "/usr/shlib/X11/libos.so")
                .unwrap();
            db.new_epoch().unwrap();
            db.merge(&sample_set()).unwrap();
        }
        let db = ProfileDb::open(&root, Format::V2).unwrap();
        assert_eq!(db.current_epoch(), EpochId(1));
        assert_eq!(db.image_name(ImageId(3)), Some("/usr/shlib/X11/libos.so"));
        assert_eq!(db.epochs().unwrap(), vec![EpochId(0), EpochId(1)]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_empty_dir_is_not_found() {
        let root = temp_root("empty");
        fs::create_dir_all(&root).unwrap();
        assert!(matches!(
            ProfileDb::open(&root, Format::V2),
            Err(Error::NotFound(_))
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn read_missing_profile_is_not_found() {
        let root = temp_root("missing");
        let db = ProfileDb::create(&root, Format::V2).unwrap();
        let key = ProfileKey {
            image: ImageId(42),
            event: Event::Cycles,
        };
        assert!(matches!(
            db.read_profile(EpochId(0), key),
            Err(Error::NotFound(_))
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn disk_usage_counts_bytes() {
        let root = temp_root("disk");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        assert_eq!(db.disk_usage().unwrap(), 0);
        db.merge(&sample_set()).unwrap();
        assert!(db.disk_usage().unwrap() > 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let root = temp_root("sweep");
        {
            let mut db = ProfileDb::create(&root, Format::V2).unwrap();
            db.merge(&sample_set()).unwrap();
        }
        // A crash between the `.tmp` write and the rename leaves both the
        // durable file and the stale temporary behind.
        let stale = root.join("epoch_0000/00000003.cycles.tmp");
        fs::write(&stale, b"torn half-written merge").unwrap();
        let db = ProfileDb::open(&root, Format::V2).unwrap();
        assert!(!stale.exists(), "stale tmp swept at open");
        assert_eq!(db.damage().swept_tmp, vec![stale]);
        // The durable profile still reads back intact.
        let back = db.read_epoch(EpochId(0)).unwrap();
        assert_eq!(back.get(ImageId(3), Event::Cycles).unwrap().get(0), 10);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_profile_is_quarantined_not_fatal() {
        let root = temp_root("truncated");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        db.merge(&sample_set()).unwrap();
        let victim = root.join("epoch_0000/00000003.cycles.prof");
        let data = fs::read(&victim).unwrap();
        fs::write(&victim, &data[..data.len() / 2]).unwrap();
        let back = db.read_all().unwrap();
        // The torn file's samples are gone, the rest of the epoch is not.
        assert!(back.get(ImageId(3), Event::Cycles).is_none());
        assert_eq!(back.get(ImageId(7), Event::Cycles).unwrap().get(400), 1);
        assert_eq!(db.damage().quarantined, vec![victim.clone()]);
        assert!(victim.with_extension("prof.quar").exists());
        assert!(!victim.exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bit_flipped_profile_is_quarantined() {
        let root = temp_root("bitflip");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        db.merge(&sample_set()).unwrap();
        let victim = root.join("epoch_0000/00000003.imiss.prof");
        let mut data = fs::read(&victim).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x40;
        fs::write(&victim, &data).unwrap();
        let back = db.read_all().unwrap();
        assert!(back.get(ImageId(3), Event::IMiss).is_none());
        assert_eq!(db.damage().quarantined_count(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn merge_onto_corrupt_file_quarantines_and_proceeds() {
        let root = temp_root("merge-corrupt");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        db.merge(&sample_set()).unwrap();
        let victim = root.join("epoch_0000/00000003.cycles.prof");
        fs::write(&victim, b"DCPI garbage").unwrap();
        db.merge(&sample_set()).unwrap();
        // The second flush survives; the first flush's samples sit in the
        // quarantined copy.
        let back = db.read_epoch(EpochId(0)).unwrap();
        assert_eq!(back.get(ImageId(3), Event::Cycles).unwrap().get(0), 10);
        assert_eq!(db.damage().quarantined_count(), 1);
        assert!(victim.with_extension("prof.quar").exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn repeated_quarantines_never_clobber() {
        let root = temp_root("quar-seq");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        let victim = root.join("epoch_0000/00000003.cycles.prof");
        for _ in 0..2 {
            fs::write(&victim, b"DCPI nonsense").unwrap();
            db.merge(&sample_set()).unwrap();
        }
        assert!(victim.with_extension("prof.quar").exists());
        assert!(victim.with_extension("prof.quar2").exists());
        assert_eq!(db.damage().quarantined_count(), 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn interrupted_new_epoch_opens_cleanly() {
        let root = temp_root("interrupted-epoch");
        {
            let mut db = ProfileDb::create(&root, Format::V2).unwrap();
            db.merge(&sample_set()).unwrap();
            // Crash right after `new_epoch` created the directory: the
            // newest epoch exists but holds nothing.
            db.new_epoch().unwrap();
        }
        let db = ProfileDb::open(&root, Format::V2).unwrap();
        assert_eq!(db.current_epoch(), EpochId(1));
        assert!(db.read_epoch(EpochId(1)).unwrap().is_empty());
        let all = db.read_all().unwrap();
        assert_eq!(all.get(ImageId(3), Event::Cycles).unwrap().get(0), 10);
        assert!(db.damage().is_clean());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scan_errors_name_what_could_not_be_read() {
        let root = temp_root("scan-errors");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        db.merge(&sample_set()).unwrap();
        let gone = db.scan([EpochId(9)], |_| true, |_, _, _| {});
        assert!(matches!(gone, Err(Error::NotFound(p)) if p.ends_with("epoch_0009")));
        // A directory under a profile's name cannot be read as one.
        let blocked = root.join("epoch_0000/00000003.cycles.prof");
        fs::remove_file(&blocked).unwrap();
        fs::create_dir(&blocked).unwrap();
        let err = db.read_all().unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert!(err.to_string().contains(blocked.to_str().unwrap()), "{err}");
        // A reader whose filter declines that name never meets it.
        let mut total = 0;
        db.scan(
            [EpochId(0)],
            |key| key.image == ImageId(7),
            |_, _, p| total += p.total(),
        )
        .unwrap();
        assert_eq!(total, 1);
        assert!(db.damage().is_clean());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn profile_name_parsing() {
        let key = parse_profile_name("0000002a.cycles.prof").unwrap();
        assert_eq!(key.image, ImageId(42));
        assert_eq!(key.event, Event::Cycles);
        assert!(parse_profile_name("junk.prof").is_none());
        assert!(parse_profile_name("0000002a.bogus.prof").is_none());
        assert!(parse_profile_name("0000002a.cycles.txt").is_none());
    }

    #[test]
    fn epoch_dir_parsing() {
        assert_eq!(parse_epoch_dir("epoch_0007"), Some(EpochId(7)));
        assert_eq!(parse_epoch_dir("epoch_"), None);
        assert_eq!(parse_epoch_dir("images.tsv"), None);
    }
}
