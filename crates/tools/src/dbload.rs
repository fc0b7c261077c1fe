//! Loading what the command-line tools read, one loader per artifact
//! kind: a profile database directory ([`load_db`] — the merged profiles
//! of all epochs plus an [`ImageRegistry`] built from the executables the
//! daemon saved alongside, `<db>/images/*.img`), its calling-context
//! sidecars ([`load_stacks`]), one analyzed procedure of it
//! ([`analyze_named`]), and an observability export ([`load_snapshot`]).
//! A tool that wants every sufficiently sampled procedure of a loaded
//! database rather than one by name walks [`LoadedDb::registry`] through
//! `dcpi_analyze::analysis::analyze_sampled`.

use crate::registry::ImageRegistry;
use dcpi_analyze::analysis::{analyze_procedure, AnalysisOptions, ProcAnalysis};
use dcpi_core::codec::Format;
use dcpi_core::db::ProfileDb;
use dcpi_core::{Error, ImageId, ProfileSet, Result};
use dcpi_isa::image::Image;
use dcpi_isa::pipeline::PipelineModel;
use dcpi_obs::Snapshot;
use std::path::Path;
use std::sync::Arc;

/// Everything a tool needs from one database directory.
#[derive(Debug)]
pub struct LoadedDb {
    /// Merged profiles of every epoch.
    pub profiles: ProfileSet,
    /// Images saved by the daemon, for symbolization.
    pub registry: ImageRegistry,
}

/// Loads `dir` (a daemon database directory).
///
/// # Errors
///
/// Returns an error if the database cannot be opened; corrupt profile
/// files are quarantined by `read_all` rather than failing the load
/// (`dcpicheck db` surfaces them), and unreadable image files are
/// skipped (their samples fall back to hex-offset symbolization).
pub fn load_db(dir: impl AsRef<Path>) -> Result<LoadedDb> {
    let db = ProfileDb::open(dir.as_ref(), Format::V2)?;
    let profiles = db.read_all()?;
    let mut registry = ImageRegistry::new();
    for (id, path) in db.saved_images()? {
        match Image::from_bytes(&std::fs::read(&path)?) {
            Ok(image) => registry.insert(id, Arc::new(image)),
            Err(e) => eprintln!("warning: skipping {}: {e}", path.display()),
        }
    }
    Ok(LoadedDb { profiles, registry })
}

/// Loads the merged calling-context profile of every epoch in `dir`
/// (the `stacks.dcst` sidecars written by a stack-walking daemon or the
/// fleet server). Empty when the run never walked stacks.
///
/// # Errors
///
/// Returns an error if the database cannot be opened or a sidecar is
/// corrupt (`dcpicheck stacks` localizes which one).
pub fn load_stacks(dir: impl AsRef<Path>) -> Result<dcpi_stacks::StackProfile> {
    let db = ProfileDb::open(dir.as_ref(), Format::V2)?;
    dcpi_collect::daemon::read_all_stacks(&db)
}

/// Symbolizes a stack frame for call trees and flamegraphs:
/// `proc [image-basename]`, with hex-offset fallbacks on both sides.
/// Identical symbolizations collapse into one flamegraph cell, which is
/// the point — per-image disambiguation without full pathname noise.
#[must_use]
pub fn stack_frame_name(registry: &ImageRegistry, f: dcpi_stacks::Frame) -> String {
    let image = registry.name(f.image);
    let short = image
        .rsplit('/')
        .next()
        .filter(|s| !s.is_empty())
        .unwrap_or(image);
    format!("{} [{short}]", registry.proc_name(f.image, f.offset))
}

/// Finds the image and symbol for a procedure name across a registry;
/// a name that several images define resolves to the lowest image id.
///
/// # Errors
///
/// Returns [`Error::NotFound`] if no saved image defines the procedure.
pub fn find_procedure(
    registry: &ImageRegistry,
    name: &str,
) -> Result<(ImageId, Arc<Image>, dcpi_isa::image::Symbol)> {
    for (id, image) in registry.iter() {
        if let Some(sym) = image.symbol_named(name) {
            return Ok((id, Arc::clone(image), sym.clone()));
        }
    }
    Err(Error::NotFound(format!("procedure {name}")))
}

/// Loads `dir` and analyzes the procedure called `name` under the default
/// pipeline model and options: the shared front half of `dcpicalc`,
/// `dcpisumm` and `dcpicfg`.
///
/// # Errors
///
/// As [`load_db`], [`find_procedure`] and
/// [`analyze_procedure`].
pub fn analyze_named(dir: impl AsRef<Path>, name: &str) -> Result<ProcAnalysis> {
    let db = load_db(dir)?;
    let (id, image, sym) = find_procedure(&db.registry, name)?;
    analyze_procedure(
        &image,
        &sym,
        &db.profiles,
        id,
        &PipelineModel::default(),
        &AnalysisOptions::default(),
    )
}

/// Reads the observability export at `path` (`profile --obs`,
/// `dcpifleet run --obs`) for `dcpistat` and `dcpitrace`.
///
/// # Errors
///
/// A message naming `path` if it cannot be read or is not an export.
pub fn load_snapshot(path: &str) -> std::result::Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Snapshot::parse(&text).map_err(|e| format!("{path} is not an observability export: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::codec::Format;
    use dcpi_core::{Event, ProfileKey};
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;
    use dcpi_testkit::TempRoot;

    fn sample_image() -> Image {
        let mut a = Asm::new("/bin/app");
        a.proc("hot");
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.halt();
        a.finish()
    }

    #[test]
    fn load_db_with_saved_images() {
        let dir = TempRoot::new("dbload-ok");
        let mut db = ProfileDb::create(&dir, Format::V2).unwrap();
        let mut set = ProfileSet::new();
        set.add(ImageId(3), Event::Cycles, 0, 42);
        db.merge(&set).unwrap();
        let img = sample_image();
        std::fs::create_dir_all(dir.join("images")).unwrap();
        std::fs::write(dir.join("images/00000003.img"), img.to_bytes()).unwrap();
        let loaded = load_db(&dir).unwrap();
        assert_eq!(loaded.profiles.event_total(Event::Cycles), 42);
        assert_eq!(loaded.registry.name(ImageId(3)), "/bin/app");
        assert_eq!(loaded.registry.proc_name(ImageId(3), 0), "hot");
        let (id, _, sym) = find_procedure(&loaded.registry, "hot").unwrap();
        assert_eq!(id, ImageId(3));
        assert_eq!(sym.offset, 0);
    }

    #[test]
    fn corrupt_image_files_are_skipped() {
        let dir = TempRoot::new("dbload-corrupt");
        let mut db = ProfileDb::create(&dir, Format::V2).unwrap();
        let mut set = ProfileSet::new();
        set.insert(
            ProfileKey {
                image: ImageId(1),
                event: Event::Cycles,
            },
            [(0u64, 1u64)].into_iter().collect(),
        );
        db.merge(&set).unwrap();
        std::fs::create_dir_all(dir.join("images")).unwrap();
        std::fs::write(dir.join("images/00000001.img"), b"garbage").unwrap();
        std::fs::write(dir.join("images/not-an-image.txt"), b"x").unwrap();
        let loaded = load_db(&dir).unwrap();
        assert_eq!(loaded.registry.name(ImageId(1)), "?", "skipped");
        assert_eq!(loaded.profiles.event_total(Event::Cycles), 1);
    }

    #[test]
    fn missing_db_errors() {
        assert!(load_db("/nonexistent/dcpi-db").is_err());
        assert!(matches!(
            find_procedure(&ImageRegistry::new(), "nope"),
            Err(Error::NotFound(_))
        ));
    }
}
