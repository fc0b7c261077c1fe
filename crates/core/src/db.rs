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
//! whole decoded profiles into the [`ProfileSet`], and merging into a
//! file that exists is one merge-join of two runs. A writer holding many
//! runs of one key (the fleet server's merge group) sums them first
//! ([`ProfileSet::sum`]), so each file is read and written once per
//! merge. Nothing here works entry by entry.
//!
//! One file per (image, event) per epoch exists so that a tool opens only
//! the profiles it is asked about: [`ProfileDb::scan`] is the one
//! directory walk under every reader, and it refuses a file by its name
//! before opening it. A reader that reports a sum keeps each visited
//! profile's total and builds no merged set.
//!
//! This module is the only code that names, lists or lands a file in a
//! database. The whole tree:
//!
//! ```text
//! <root>/
//!   images.tsv                   # image id → pathname, one escaped line each
//!   images/
//!     00000003.img               # the executable profiled as image 3
//!   epoch_0000/
//!     00000003.cycles.prof       # image 3, CYCLES event
//!     00000003.imiss.prof
//!     stacks.dcst                # calling-context sidecar, opaque bytes here
//!     00000003.cycles.prof.quar  # failed validation on a read; moved aside
//!   epoch_0001/
//!     ...
//!   **/*.tmp                     # a write that never reached its rename
//! ```
//!
//! Every name has exactly one meaning, an [`Entry`], which the readers
//! here and the callers that must look at a directory too damaged to open
//! ([`list`]) share. Every file enters by one routine: written under its
//! temporary name, renamed into place, so a reader sees the old bytes or
//! the new, never a torn file. Profiles and the sidecar are synced before
//! the rename; the name map and the saved executables are not (a process
//! crash cannot tear them, a power cut can). [`ProfileDb::open`] removes
//! the temporaries a crash left.

use crate::codec::{decode_profile, encode_profile, Format};
use crate::error::{Error, Result};
use crate::profile::{Profile, ProfileKey, ProfileSet};
use crate::types::{Event, ImageId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ffi::OsString;
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

/// The name a file is written under until `land` renames it to `path`.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    path.with_extension("tmp")
}

/// The one way a file enters a database: every `(path, bytes)` is written
/// under its temporary name and only then renamed into place, so a crash
/// leaves the old file or the new one and a temporary for
/// [`ProfileDb::open`] to sweep. With `durable`, the temporaries are all
/// synced together before the first rename, so no file is renamed before
/// its bytes are on the device.
fn land(files: &[(PathBuf, Vec<u8>)], durable: bool) -> io::Result<()> {
    let mut written = Vec::with_capacity(files.len());
    for (path, bytes) in files {
        let mut f = fs::File::create(tmp_path(path))?;
        f.write_all(bytes)?;
        written.push(f);
    }
    if durable {
        sync_together(&written)?;
    }
    drop(written);
    for (path, _) in files {
        fs::rename(tmp_path(path), path)?;
    }
    Ok(())
}

/// Damage discovered — and contained — while recovering or reading a
/// database: torn writes swept at [`ProfileDb::open`] and corrupt profile
/// files quarantined instead of aborting a read.
#[derive(Clone, Debug, Default)]
pub struct DbDamage {
    /// Stale temporaries removed at open, anywhere in the tree (a crash
    /// came between a write and its rename; the file itself is intact).
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
    image_names: BTreeMap<ImageId, String>,
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
        fs::create_dir_all(db.epoch_path(db.current))?;
        Ok(db)
    }

    /// Opens an existing database, resuming at its newest epoch. Stale
    /// temporaries left by a write interrupted before its rename — beside
    /// the profiles, the name map or the saved executables — are swept
    /// (the rename never happened, so the file itself is intact) and
    /// recorded in [`ProfileDb::damage`]. A name-map line that does not
    /// parse is skipped (`dcpicheck db` reports it).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] if `root` is missing or contains no
    /// epochs, or an I/O error if it cannot be read.
    pub fn open(root: impl Into<PathBuf>, format: Format) -> Result<ProfileDb> {
        let root = root.into();
        let entries = list(&root).map_err(|e| unreadable(&root, e))?;
        let current = epochs_of(&entries)
            .max()
            .ok_or_else(|| Error::NotFound(format!("no epochs in {}", root.display())))?;
        let mut swept = Vec::new();
        let mut image_names = BTreeMap::new();
        for (name, entry) in entries {
            let path = root.join(name);
            match entry {
                Entry::StaleTmp => swept.push(path),
                // A file squatting on the directory's name holds nothing.
                Entry::Images if !path.is_dir() => {}
                Entry::Epoch(_) | Entry::Images => {
                    let stale = list(&path)?
                        .into_iter()
                        .filter(|(_, e)| *e == Entry::StaleTmp);
                    swept.extend(stale.map(|(name, _)| path.join(name)));
                }
                Entry::NameMap => {
                    image_names.extend(parse_image_names(&fs::read(path)?).flatten());
                }
                _ => {}
            }
        }
        swept.sort();
        for path in &swept {
            fs::remove_file(path)?;
        }
        Ok(ProfileDb {
            root,
            current,
            format,
            image_names,
            damage: RefCell::new(DbDamage {
                swept_tmp: swept,
                quarantined: Vec::new(),
            }),
        })
    }

    /// [`ProfileDb::open`], or [`ProfileDb::create`] where there is no
    /// database yet: a missing directory, or one without an epoch.
    ///
    /// # Errors
    ///
    /// As `open` (other than `NotFound`) and `create`.
    pub fn open_or_create(root: impl Into<PathBuf>, format: Format) -> Result<ProfileDb> {
        let root = root.into();
        match ProfileDb::open(&root, format) {
            Err(Error::NotFound(_)) => ProfileDb::create(root, format),
            opened => opened,
        }
    }

    /// The damage contained so far: temporaries swept at open plus
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
        let mut epochs: Vec<EpochId> = epochs_of(&list(&self.root)?).collect();
        epochs.sort_unstable();
        Ok(epochs)
    }

    /// Starts a new epoch; subsequent merges go to it (§4.3.3: "a new epoch
    /// can be initiated by a user-level command").
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the epoch directory cannot be created.
    pub fn new_epoch(&mut self) -> Result<EpochId> {
        let next = EpochId(self.current.0 + 1);
        fs::create_dir_all(self.epoch_path(next))?;
        self.current = next;
        Ok(next)
    }

    /// Records the pathname for an image id, persisting the map.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the map file cannot be written.
    pub fn record_image_name(&mut self, image: ImageId, name: &str) -> Result<()> {
        self.record_image_names([(image, name)])
    }

    /// Records a pathname for each image id and persists the map once, if
    /// any of them was news.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the map file cannot be written.
    pub fn record_image_names<'a>(
        &mut self,
        names: impl IntoIterator<Item = (ImageId, &'a str)>,
    ) -> Result<()> {
        let mut changed = false;
        for (image, name) in names {
            changed |= self.image_names.insert(image, name.to_string()).as_deref() != Some(name);
        }
        if changed {
            let lines: String = self
                .image_names
                .iter()
                .map(|(&image, name)| image_name_line(image, name))
                .collect();
            land(&[(self.root.join(NAME_MAP), lines.into_bytes())], false)?;
        }
        Ok(())
    }

    /// Looks up the recorded pathname for an image.
    #[must_use]
    pub fn image_name(&self, image: ImageId) -> Option<&str> {
        self.image_names.get(&image).map(String::as_str)
    }

    /// Merges a set of in-memory profiles into the current epoch,
    /// read-modify-writing each affected file. Writes are crash-safe
    /// (temporary, sync, rename), `SYNC_BATCH` files at a time: a
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
            let mut files = Vec::with_capacity(batch.len());
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
                files.push((path, bytes));
            }
            land(&files, true)?;
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
        let data = fs::read(&path).map_err(|e| unreadable(&path, e))?;
        let (profile, _) = decode_profile(&data)?;
        Ok(profile)
    }

    /// Streams profile files to `visit`, one whole decoded [`Profile`] per
    /// file: every file of `epochs` (in the order given; within an epoch
    /// in directory order, which is arbitrary) whose name is an
    /// [`Entry::Profile`] with a key that `want` accepts. This is the one
    /// directory walk under every reader. A file is refused *by its
    /// name*, before it is opened — nothing but a profile name is a
    /// profile, and a key `want` declines costs no read. A file that is
    /// opened and fails framing/checksum validation, or whose encoded event
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
            let dir = self.epoch_path(epoch);
            for (name, entry) in list(&dir).map_err(|e| unreadable(&dir, e))? {
                let Entry::Profile(key) = entry else {
                    continue;
                };
                if !want(key) {
                    continue;
                }
                if let Some(profile) = self.load(&dir.join(name), key.event)? {
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
            // Exactly the files `scan` would open.
            let dir = self.epoch_path(epoch);
            for (name, entry) in list(&dir)? {
                if matches!(entry, Entry::Profile(_)) {
                    total += fs::metadata(dir.join(name))?.len();
                }
            }
        }
        Ok(total)
    }

    /// The epoch's calling-context sidecar ([`STACKS_FILE`]), if it
    /// recorded one: bytes this module stores and does not interpret.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn read_sidecar(&self, epoch: EpochId) -> Result<Option<Vec<u8>>> {
        if_present(fs::read(self.epoch_path(epoch).join(STACKS_FILE)))
    }

    /// Replaces the epoch's sidecar, as durably as a profile.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_sidecar(&self, epoch: EpochId, bytes: Vec<u8>) -> Result<()> {
        let path = self.epoch_path(epoch).join(STACKS_FILE);
        Ok(land(&[(path, bytes)], true)?)
    }

    /// Keeps the executable profiled as `image` beside the profiles, so the
    /// offline tools can symbolize without the original build tree. A
    /// saved image is whole (it was renamed into place) and an id never
    /// changes its image, so one that is already there is left alone.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save_image(&self, image: ImageId, bytes: impl FnOnce() -> Vec<u8>) -> Result<()> {
        let dir = self.root.join(IMAGES_DIR);
        let path = dir.join(format!("{:08x}.img", image.0));
        if !path.exists() {
            fs::create_dir_all(dir)?;
            land(&[(path, bytes())], false)?;
        }
        Ok(())
    }

    /// Every saved executable and the image id its name carries.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the directory exists and cannot be read.
    pub fn saved_images(&self) -> Result<Vec<(ImageId, PathBuf)>> {
        let dir = self.root.join(IMAGES_DIR);
        let found = if_present(list(&dir))?.into_iter().flatten();
        let saved = found.filter_map(|(name, entry)| match entry {
            Entry::Image(id) => Some((id, dir.join(name))),
            _ => None,
        });
        Ok(saved.collect())
    }

    /// Directory holding one epoch's files.
    #[must_use]
    pub fn epoch_path(&self, epoch: EpochId) -> PathBuf {
        self.root.join(epoch_dir_name(epoch))
    }

    fn profile_path(&self, epoch: EpochId, key: ProfileKey) -> PathBuf {
        let name = format!("{:08x}.{}.prof", key.image.0, key.event.name());
        self.epoch_path(epoch).join(name)
    }
}

/// `None` for what is not there; any other failure is the error.
fn if_present<T>(read: io::Result<T>) -> Result<Option<T>> {
    match read {
        Ok(found) => Ok(Some(found)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// A read failure that names what could not be read.
fn unreadable(path: &Path, e: io::Error) -> Error {
    match e.kind() {
        io::ErrorKind::NotFound => Error::NotFound(path.display().to_string()),
        kind => Error::Io(io::Error::new(kind, format!("{}: {e}", path.display()))),
    }
}

/// File name of the per-epoch calling-context sidecar.
pub const STACKS_FILE: &str = "stacks.dcst";
/// File name of the image id → pathname map, in the root.
pub const NAME_MAP: &str = "images.tsv";
const IMAGES_DIR: &str = "images";

/// What a name in a database is. A name has one meaning wherever it is
/// found; each directory's reader acts on the kinds that belong there and
/// treats the rest as foreign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Entry {
    /// `epoch_NNNN`, in the root: one epoch's directory.
    Epoch(EpochId),
    /// `images.tsv`, in the root: the image id → pathname map.
    NameMap,
    /// `images`, in the root: the directory of saved executables.
    Images,
    /// `<imagehex>.img`, in `images/`: one saved executable.
    Image(ImageId),
    /// `<imagehex>.<event>.prof`, in an epoch: the only files a profile
    /// reader opens.
    Profile(ProfileKey),
    /// [`STACKS_FILE`], in an epoch.
    Sidecar,
    /// A write that never reached its rename.
    StaleTmp,
    /// A profile that failed validation, moved aside.
    Quarantined,
    /// Ends in `.prof` and is not a profile name: no reader will open it.
    Misnamed,
    /// Nothing this module writes.
    Foreign,
}

impl Entry {
    /// Classifies `name`. The parsed kinds are the writer's spelling only
    /// (`epoch_7` and `3.cycles.prof` are foreign and misnamed), so no two
    /// names mean the same thing. Profiles first: they are nearly every
    /// name a reader lists.
    #[must_use]
    pub fn of(name: &str) -> Entry {
        if let Some(key) = parse_profile_name(name) {
            Entry::Profile(key)
        } else if name.ends_with(".prof") {
            Entry::Misnamed
        } else if name.ends_with(".tmp") {
            Entry::StaleTmp
        } else if name.contains(".prof.quar") {
            Entry::Quarantined
        } else if name == NAME_MAP {
            Entry::NameMap
        } else if name == IMAGES_DIR {
            Entry::Images
        } else if name == STACKS_FILE {
            Entry::Sidecar
        } else if let Some(epoch) = parse_epoch_dir(name) {
            Entry::Epoch(epoch)
        } else if let Some(image) = name.strip_suffix(".img").and_then(hex8) {
            Entry::Image(ImageId(image))
        } else {
            Entry::Foreign
        }
    }
}

/// Lists `dir` without opening a database: every name in it, in directory
/// order, with what it is. The one directory listing under this module,
/// and for callers that must look at a database too damaged for
/// [`ProfileDb::open`].
///
/// # Errors
///
/// Returns the I/O error if `dir` cannot be read.
pub fn list(dir: &Path) -> io::Result<Vec<(OsString, Entry)>> {
    let entries = fs::read_dir(dir)?.map(|entry| {
        let name = entry?.file_name();
        // A name that is not UTF-8 is none of ours, and stays none lossily.
        let kind = Entry::of(&name.to_string_lossy());
        Ok((name, kind))
    });
    entries.collect()
}

fn epochs_of(entries: &[(OsString, Entry)]) -> impl Iterator<Item = EpochId> + '_ {
    entries.iter().filter_map(|(_, entry)| match entry {
        Entry::Epoch(id) => Some(*id),
        _ => None,
    })
}

fn epoch_dir_name(epoch: EpochId) -> String {
    format!("epoch_{:04}", epoch.0)
}

/// `name` as the name map spells it: backslash, tab, newline and carriage
/// return escaped, so a name — which arrives from fleet agents unvetted —
/// stays within its line and its field, on disk and in a listing.
#[must_use]
pub fn escape_image_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// One name-map line for `image`, newline included.
#[must_use]
pub fn image_name_line(image: ImageId, name: &str) -> String {
    format!("{}\t{}\n", image.0, escape_image_name(name))
}

/// Parses a name map line by line: `Some` for a line that is exactly what
/// [`image_name_line`] writes for its value, `None` for any other —
/// including a last line without its newline, which is a torn write.
pub fn parse_image_names(text: &[u8]) -> impl Iterator<Item = Option<(ImageId, String)>> + '_ {
    text.split_inclusive(|&b| b == b'\n').map(|line| {
        let line = std::str::from_utf8(line).ok()?;
        let (id, escaped) = line.strip_suffix('\n')?.split_once('\t')?;
        let image = ImageId(id.parse().ok()?);
        let mut name = String::with_capacity(escaped.len());
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            name.push(match c {
                '\\' => match chars.next()? {
                    '\\' => '\\',
                    't' => '\t',
                    'n' => '\n',
                    'r' => '\r',
                    _ => return None,
                },
                c => c,
            });
        }
        (image_name_line(image, &name) == line).then_some((image, name))
    })
}

/// The epoch `name` is the directory of, if it is the writer's spelling.
fn parse_epoch_dir(name: &str) -> Option<EpochId> {
    let id = EpochId(name.strip_prefix("epoch_")?.parse().ok()?);
    (epoch_dir_name(id) == name).then_some(id)
}

/// `{:08x}` read back: eight lowercase hex digits and nothing else.
fn hex8(digits: &str) -> Option<u32> {
    let spelled = digits.len() == 8
        && digits
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    u32::from_str_radix(digits, 16).ok().filter(|_| spelled)
}

/// The key `name` is the profile of, if it is the writer's spelling: the
/// one profile-name grammar.
fn parse_profile_name(name: &str) -> Option<ProfileKey> {
    let (image_hex, event_name) = name.strip_suffix(".prof")?.split_once('.')?;
    let image = ImageId(hex8(image_hex)?);
    let event = Event::ALL.into_iter().find(|e| e.name() == event_name)?;
    Some(ProfileKey { image, event })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_testkit::TempRoot;

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
        let root = TempRoot::new("db-roundtrip");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        db.merge(&sample_set()).unwrap();
        let back = db.read_epoch(EpochId(0)).unwrap();
        assert_eq!(back.event_total(Event::Cycles), 16);
        assert_eq!(back.event_total(Event::IMiss), 2);
        assert_eq!(back.get(ImageId(3), Event::Cycles).unwrap().get(8), 5);
    }

    #[test]
    fn repeated_merges_accumulate() {
        let root = TempRoot::new("db-accumulate");
        let mut db = ProfileDb::create(&root, Format::V1).unwrap();
        db.merge(&sample_set()).unwrap();
        db.merge(&sample_set()).unwrap();
        let back = db.read_epoch(EpochId(0)).unwrap();
        assert_eq!(back.get(ImageId(3), Event::Cycles).unwrap().get(0), 20);
    }

    #[test]
    fn merge_spanning_sync_batches_lands_every_file() {
        let root = TempRoot::new("db-batches");
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
    }

    #[test]
    fn new_epoch_separates_samples() {
        let root = TempRoot::new("db-epochs");
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
    }

    #[test]
    fn open_resumes_newest_epoch_and_names() {
        let root = TempRoot::new("db-open");
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
    }

    #[test]
    fn open_empty_dir_is_not_found() {
        let root = TempRoot::new("db-empty");
        fs::create_dir_all(&root).unwrap();
        assert!(matches!(
            ProfileDb::open(&root, Format::V2),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn read_missing_profile_is_not_found() {
        let root = TempRoot::new("db-missing");
        let db = ProfileDb::create(&root, Format::V2).unwrap();
        let key = ProfileKey {
            image: ImageId(42),
            event: Event::Cycles,
        };
        assert!(matches!(
            db.read_profile(EpochId(0), key),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn disk_usage_counts_bytes() {
        let root = TempRoot::new("db-disk");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        assert_eq!(db.disk_usage().unwrap(), 0);
        db.merge(&sample_set()).unwrap();
        assert!(db.disk_usage().unwrap() > 0);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let root = TempRoot::new("db-sweep");
        {
            let mut db = ProfileDb::create(&root, Format::V2).unwrap();
            db.merge(&sample_set()).unwrap();
            db.record_image_name(ImageId(3), "/bin/app").unwrap();
            db.save_image(ImageId(3), || b"image".to_vec()).unwrap();
        }
        // A crash between the temporary's write and the rename leaves both
        // the durable file and the stale temporary behind, wherever the
        // write was headed.
        let stale = [
            root.join("epoch_0000/00000003.cycles.tmp"),
            root.join("images/00000003.tmp"),
            root.join("images.tmp"),
        ];
        for tmp in &stale {
            fs::write(tmp, b"torn half-written merge").unwrap();
        }
        let db = ProfileDb::open(&root, Format::V2).unwrap();
        assert!(stale.iter().all(|tmp| !tmp.exists()), "swept at open");
        assert_eq!(db.damage().swept_tmp, stale);
        // The durable files still read back intact.
        let back = db.read_epoch(EpochId(0)).unwrap();
        assert_eq!(back.get(ImageId(3), Event::Cycles).unwrap().get(0), 10);
        assert_eq!(db.image_name(ImageId(3)), Some("/bin/app"));
        let saved = db.saved_images().unwrap();
        assert_eq!(saved, [(ImageId(3), root.join("images/00000003.img"))]);
    }

    #[test]
    fn truncated_profile_is_quarantined_not_fatal() {
        let root = TempRoot::new("db-truncated");
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
    }

    #[test]
    fn bit_flipped_profile_is_quarantined() {
        let root = TempRoot::new("db-bitflip");
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
    }

    #[test]
    fn merge_onto_corrupt_file_quarantines_and_proceeds() {
        let root = TempRoot::new("db-merge-corrupt");
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
    }

    #[test]
    fn repeated_quarantines_never_clobber() {
        let root = TempRoot::new("db-quar-seq");
        let mut db = ProfileDb::create(&root, Format::V2).unwrap();
        let victim = root.join("epoch_0000/00000003.cycles.prof");
        for _ in 0..2 {
            fs::write(&victim, b"DCPI nonsense").unwrap();
            db.merge(&sample_set()).unwrap();
        }
        assert!(victim.with_extension("prof.quar").exists());
        assert!(victim.with_extension("prof.quar2").exists());
        assert_eq!(db.damage().quarantined_count(), 2);
    }

    #[test]
    fn interrupted_new_epoch_opens_cleanly() {
        let root = TempRoot::new("db-interrupted-epoch");
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
    }

    #[test]
    fn scan_errors_name_what_could_not_be_read() {
        let root = TempRoot::new("db-scan-errors");
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
