//! dcpicheck: static analysis and invariant verification over a profile
//! database (see the `dcpi-check` crate for the checks themselves).

use crate::registry::ImageRegistry;
use dcpi_analyze::analysis::{analyze_sampled, AnalysisOptions};
use dcpi_check::{Category, Loc, Report, Severity};
use dcpi_collect::daemon::read_epoch_stacks;
use dcpi_core::codec::Format;
use dcpi_core::db::{self, Entry, ProfileDb, STACKS_FILE};
use dcpi_core::{codec, Event, ImageId, ProfileSet, UNKNOWN_IMAGE};
use dcpi_isa::image::Image;
use dcpi_isa::AddressMap;
use dcpi_stacks::{speedscope, CallTree, StackProfile};
use std::collections::BTreeSet;
use std::path::Path;

/// Runs every check over every image in the registry: the image and CFG
/// layers on all procedures, plus the estimate layer on procedures that
/// have CYCLES samples (those are the only ones with estimates to audit).
#[must_use]
pub fn dcpicheck_report(set: &ProfileSet, registry: &ImageRegistry) -> Report {
    let mut report = Report::new();
    let aopts = AnalysisOptions::default();
    for (id, image) in registry.iter() {
        report.merge(dcpi_check::check_image(image));
        for (sym, _, pa) in analyze_sampled(image, set, id, 1, &aopts) {
            match pa {
                Ok(pa) => report.merge(dcpi_check::check_analysis(&pa)),
                Err(e) => report.flag(
                    Category::BlockStructure,
                    Loc::at(&sym.name).pc(sym.offset),
                    format!("analysis failed: {e}"),
                ),
            }
        }
    }
    report
}

/// The CLI text: every diagnostic plus the closing tally.
#[must_use]
pub fn dcpicheck(set: &ProfileSet, registry: &ImageRegistry) -> String {
    dcpicheck_report(set, registry).render()
}

/// Audits a profile database *directory* (`dcpicheck db <path>`): every
/// profile file must pass its length/checksum framing and carry the
/// event its filename claims, epoch directories must be contiguous and
/// free of foreign files, stale temporaries and quarantined files are
/// surfaced, and every profiled image should have a name record in the
/// name map. Runs on `dcpi_core::db`'s raw listing, which classifies
/// each name exactly as the readers do — a database too damaged for
/// `ProfileDb::open` still gets a report instead of an error.
#[must_use]
pub fn dcpicheck_db(root: &Path) -> Report {
    let mut report = Report::new();
    let ctx = root.display().to_string();
    let entries = match db::list(root) {
        Ok(e) => e,
        Err(e) => {
            report.flag(
                Category::EpochStructure,
                &ctx,
                format!("cannot read database directory: {e}"),
            );
            return report;
        }
    };
    let mut epochs = Vec::new();
    for (name, entry) in entries {
        let path = root.join(&name);
        let name = name.to_string_lossy();
        let why = match (entry, path.is_dir()) {
            (Entry::Epoch(id), true) => {
                epochs.push((id, path));
                continue;
            }
            (Entry::Images, true) | (Entry::NameMap, false) => continue,
            (_, true) => format!("unexpected directory `{name}`"),
            (_, false) => format!("unexpected file `{name}` in database root"),
        };
        report.flag_as(Severity::Warning, Category::EpochStructure, &ctx, why);
    }
    epochs.sort();
    if epochs.is_empty() {
        report.flag(Category::EpochStructure, &ctx, "no epoch directories");
        return report;
    }
    if let Some((want, (got, _))) = (0..).zip(&epochs).find(|(want, (got, _))| got.0 != *want) {
        report.flag(
            Category::EpochStructure,
            &ctx,
            format!(
                "epoch numbering has a gap: expected epoch_{want:04}, found epoch_{:04}",
                got.0
            ),
        );
    }
    let mut profiled_images = BTreeSet::new();
    for (_, dir) in &epochs {
        audit_epoch_dir(dir, &mut report, &mut profiled_images);
    }
    audit_image_names(root, &profiled_images, &mut report);
    report
}

/// Audits an exported observability snapshot (`dcpicheck obs <path>`):
/// the JSON must parse, ring stamps must be monotonic, ring overwrites
/// must balance, spans must pair, trace chains must match their lags,
/// series ticks must rise, the sample ledger must conserve, and the
/// overhead fraction must sit within [`dcpi_check::AUDIT_BAND`].
#[must_use]
pub fn dcpicheck_obs(path: &Path) -> Report {
    match std::fs::read_to_string(path) {
        Ok(text) => dcpi_check::check_obs_export(&text),
        Err(e) => {
            let mut report = Report::new();
            report.flag(
                Category::ObsExport,
                &path.display().to_string(),
                format!("cannot read observability export: {e}"),
            );
            report
        }
    }
}

/// Reads a serialized image; a failure is an error under `category`.
fn load_image(path: &Path, category: Category, report: &mut Report) -> Option<Image> {
    let loaded = std::fs::read(path)
        .map_err(|e| e.to_string())
        .and_then(|bytes| Image::from_bytes(&bytes));
    match loaded {
        Ok(image) => Some(image),
        Err(e) => {
            let ctx = path.display().to_string();
            report.flag(category, &ctx, format!("cannot load image: {e}"));
            None
        }
    }
}

/// Reads a PGO rewrite's artifacts (`old.img`, `new.img`, `map.json`).
/// All three are attempted, so one report names every unreadable one.
fn load_rewrite(
    [old, new, map]: [&Path; 3],
    report: &mut Report,
) -> Option<(Image, Image, AddressMap)> {
    let old = load_image(old, Category::TvStructure, report);
    let new = load_image(new, Category::TvStructure, report);
    let parsed = std::fs::read_to_string(map)
        .map_err(|e| e.to_string())
        .and_then(|text| AddressMap::parse(&text));
    match parsed {
        Ok(parsed) => Some((old?, new?, parsed)),
        Err(e) => {
            let ctx = map.display().to_string();
            report.flag(
                Category::TvStructure,
                &ctx,
                format!("cannot load address map: {e}"),
            );
            None
        }
    }
}

/// Runs the dataflow lint family over a serialized image (`dcpicheck
/// dataflow <image>`): liveness-based dead stores, reaching-definition
/// uninitialized reads, value-range constant branches, and
/// stack-discipline violations, per procedure.
#[must_use]
pub fn dcpicheck_dataflow(path: &Path) -> Report {
    let mut report = Report::new();
    if let Some(image) = load_image(path, Category::Undecodable, &mut report) {
        let lint = dcpi_check::dataflow::check_procedure_dataflow;
        dcpi_check::for_each_cfg(&image, &mut report, lint);
    }
    report
}

/// Statically proves a PGO rewrite equivalent from its on-disk artifacts
/// (`dcpicheck tv <old.img> <new.img> <map.json>`): the `dcpi-check`
/// translation validator, with no simulator in the loop. Returns the
/// per-segment tallies alongside the report.
#[must_use]
pub fn dcpicheck_tv(old_path: &Path, new_path: &Path, map_path: &Path) -> dcpi_check::TvResult {
    let mut report = Report::new();
    let paths = [old_path, new_path, map_path];
    match load_rewrite(paths, &mut report) {
        Some((old, new, map)) => {
            dcpi_check::validate_with(&old, &new, &map, &dcpi_check::TvOptions::default())
        }
        None => dcpi_check::TvResult {
            report,
            segments: 0,
            proved: 0,
        },
    }
}

/// Audits the calling-context sidecars of a profile database
/// (`dcpicheck stacks <path>`): every `stacks.dcst` must decode, its
/// interning table must be a bijection (which also proves acyclicity —
/// parents precede children by construction), every event's call tree
/// must conserve (inclusive = exclusive + Σ children inclusive, root
/// inclusive = event total), and the merged profile must export a
/// schema-clean speedscope document. Stack totals are cross-checked
/// against the flat profiles at Warning severity: equality holds in
/// fault-free single-machine runs, but driver drops (stacks recorded,
/// flat hash overflowed) and stack-less fleet agents (flat samples
/// without stacks) both legitimately break it.
#[must_use]
pub fn dcpicheck_stacks(root: &Path) -> Report {
    let mut report = Report::new();
    let ctx = root.display().to_string();
    let db = match ProfileDb::open(root, Format::V2) {
        Ok(db) => db,
        Err(e) => {
            report.flag(
                Category::StackStructure,
                &ctx,
                format!("cannot open database: {e}"),
            );
            return report;
        }
    };
    let epochs = match db.epochs() {
        Ok(e) => e,
        Err(e) => {
            report.flag(
                Category::StackStructure,
                &ctx,
                format!("cannot enumerate epochs: {e}"),
            );
            return report;
        }
    };
    let mut merged = StackProfile::new();
    let mut sidecars = 0usize;
    for epoch in epochs {
        let ectx = db.epoch_path(epoch).join(STACKS_FILE).display().to_string();
        let stacks = match read_epoch_stacks(&db, epoch) {
            Ok(Some(s)) => s,
            Ok(None) => continue,
            Err(e) => {
                report.flag(
                    Category::StackStructure,
                    &ectx,
                    format!("stack sidecar rejected: {e}"),
                );
                continue;
            }
        };
        sidecars += 1;
        audit_stack_profile(&stacks, &ectx, &mut report);
        // Warning-level cross-check against the flat profiles: a stack
        // sample and a flat sample are recorded by the same overflow,
        // so per-event totals agree unless one side dropped.
        let mut flat = [0u64; Event::ALL.len()];
        let read = db.scan(
            [epoch],
            |_| true,
            |_, key, p| flat[usize::from(key.event.code())] += p.total(),
        );
        if read.is_ok() {
            for event in Event::ALL {
                let stacked = stacks.event_total(event);
                if stacked == 0 {
                    continue;
                }
                let flat_total = flat[usize::from(event.code())];
                if stacked != flat_total {
                    report.flag_as(
                        Severity::Warning,
                        Category::StackConservation,
                        &ectx,
                        format!(
                            "event {}: {stacked} stack samples vs {flat_total} flat samples \
                             (expected under driver drops or stack-less agents)",
                            event.name()
                        ),
                    );
                }
            }
        }
        merged.merge(&stacks);
    }
    if sidecars == 0 {
        report.flag_as(
            Severity::Warning,
            Category::StackStructure,
            &ctx,
            "no calling-context sidecars: the run was collected without stack walking",
        );
        return report;
    }
    // The merged view is what the tools render; it must hold the same
    // invariants and export cleanly.
    let mctx = format!("{ctx} (merged)");
    audit_stack_profile(&merged, &mctx, &mut report);
    for event in Event::ALL {
        if merged.event_total(event) == 0 {
            continue;
        }
        let doc = speedscope::export(&merged, event, "dcpicheck", &|f| {
            format!("{:08x}+{:x}", f.image.0, f.offset)
        });
        if let Err(e) = speedscope::check_schema(&doc) {
            report.flag(
                Category::StackExport,
                &mctx,
                format!(
                    "event {}: speedscope export fails its schema: {e}",
                    event.name()
                ),
            );
        }
    }
    report
}

/// The per-profile invariants shared by the per-epoch and merged audits:
/// table bijectivity and per-event call-tree conservation.
fn audit_stack_profile(stacks: &StackProfile, ctx: &str, report: &mut Report) {
    if let Err(e) = stacks.table.check_bijective() {
        report.flag(
            Category::StackStructure,
            ctx,
            format!("interning table is not bijective: {e}"),
        );
    }
    for event in Event::ALL {
        let total = stacks.event_total(event);
        if total == 0 {
            continue;
        }
        let tree = CallTree::build(stacks, event);
        if let Err(e) = tree.check_conservation() {
            report.flag(
                Category::StackConservation,
                ctx,
                format!("event {}: {e}", event.name()),
            );
        }
        if tree.total() != total {
            report.flag(
                Category::StackConservation,
                ctx,
                format!(
                    "event {}: root inclusive {} != event total {total}",
                    event.name(),
                    tree.total()
                ),
            );
        }
    }
}

/// One epoch directory: decode every profile and the sidecar, say what
/// every other name is, and collect the image ids seen in filenames.
fn audit_epoch_dir(dir: &Path, report: &mut Report, profiled_images: &mut BTreeSet<ImageId>) {
    let Ok(mut entries) = db::list(dir) else {
        let ctx = dir.display().to_string();
        return report.flag(
            Category::EpochStructure,
            &ctx,
            "cannot read epoch directory",
        );
    };
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, entry) in entries {
        let path = dir.join(name);
        let read = || std::fs::read(&path).map_err(|e| e.to_string());
        let (category, msg) = match entry {
            Entry::Profile(key) => {
                if key.image != UNKNOWN_IMAGE {
                    profiled_images.insert(key.image);
                }
                let msg = match read().and_then(|b| Ok(codec::decode_profile(&b)?)) {
                    Ok((_, event)) if event == key.event => continue,
                    Ok((_, event)) => format!(
                        "filename claims event `{}` but the record holds `{}`",
                        key.event.name(),
                        event.name()
                    ),
                    Err(e) => format!("profile record rejected: {e}"),
                };
                (Category::FileChecksum, msg)
            }
            // The calling-context sidecar is first-class, not foreign; it
            // must at least decode here (`dcpicheck stacks` goes deeper).
            Entry::Sidecar => match read().and_then(|b| StackProfile::from_bytes(&b)) {
                Ok(_) => continue,
                Err(e) => (
                    Category::StackStructure,
                    format!("stack sidecar rejected: {e}"),
                ),
            },
            Entry::StaleTmp => (
                Category::StaleTemp,
                "stale temporary from an interrupted merge; reopen the database to sweep it".into(),
            ),
            Entry::Quarantined => (
                Category::QuarantinedFile,
                "quarantined profile file: its samples are counted as lost".into(),
            ),
            Entry::Misnamed => (
                Category::EpochStructure,
                "profile filename is not `<imagehex>.<event>.prof`".into(),
            ),
            _ => {
                report.flag_as(
                    Severity::Warning,
                    Category::EpochStructure,
                    &path.display().to_string(),
                    "foreign file in epoch directory",
                );
                continue;
            }
        };
        report.flag(category, &path.display().to_string(), msg);
    }
}

/// Every line of the name map must parse, and every image with profile
/// data should have a name record (the daemon writes them on its startup
/// scan).
fn audit_image_names(root: &Path, profiled_images: &BTreeSet<ImageId>, report: &mut Report) {
    let tsv = root.join(db::NAME_MAP);
    let ctx = tsv.display().to_string();
    let mut named = BTreeSet::new();
    match std::fs::read(&tsv) {
        Ok(text) => {
            for (lineno, line) in db::parse_image_names(&text).enumerate() {
                match line {
                    Some((id, _)) => drop(named.insert(id)),
                    None => {
                        report.flag_as(
                            Severity::Error,
                            Category::ImageNameRecord,
                            &ctx,
                            format!("line {}: not `<id>\\t<name>`", lineno + 1),
                        );
                    }
                }
            }
        }
        Err(_) if profiled_images.is_empty() => {}
        Err(e) => {
            report.flag(
                Category::ImageNameRecord,
                &ctx,
                format!("cannot read image-name records: {e}"),
            );
        }
    }
    for id in profiled_images.difference(&named) {
        report.flag(
            Category::ImageNameRecord,
            &ctx,
            format!("image {:#010x} has profile data but no name record", id.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::codec::Format;
    use dcpi_core::db::ProfileDb;
    use dcpi_core::ImageId;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;
    use dcpi_testkit::TempRoot;
    use std::sync::Arc;

    fn seed_db(root: &Path) {
        let mut db = ProfileDb::create(root, Format::V2).unwrap();
        db.record_image_name(ImageId(7), "/bin/app").unwrap();
        let mut set = ProfileSet::new();
        set.add(ImageId(7), Event::Cycles, 0x40, 12);
        set.add(ImageId(7), Event::IMiss, 0x44, 3);
        db.merge(&set).unwrap();
    }

    #[test]
    fn db_audit_passes_on_a_clean_database() {
        let root = TempRoot::new("dcpicheck-clean");
        seed_db(&root);
        let report = dcpicheck_db(&root);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warnings(), 0, "{}", report.render());
    }

    #[test]
    fn db_audit_flags_damage_without_aborting() {
        let root = TempRoot::new("dcpicheck-damaged");
        seed_db(&root);
        let epoch = root.join("epoch_0000");
        // Truncate one profile mid-record: a checksum error.
        let victim = epoch.join("00000007.cycles.prof");
        let data = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &data[..data.len() / 2]).unwrap();
        // Leave an interrupted-merge temporary and a quarantined file.
        std::fs::write(epoch.join("00000007.imiss.tmp"), b"partial").unwrap();
        std::fs::rename(
            epoch.join("00000007.imiss.prof"),
            epoch.join("00000007.imiss.prof.quar"),
        )
        .unwrap();
        // An image with samples but no name record.
        let mut db = ProfileDb::open(&root, Format::V2).unwrap();
        let mut set = ProfileSet::new();
        set.add(ImageId(9), Event::Cycles, 0x10, 5);
        db.merge(&set).unwrap();

        let report = dcpicheck_db(&root);
        let text = report.render();
        assert!(!report.is_clean(), "{text}");
        let has = |cat: Category| report.diags.iter().any(|d| d.category == cat);
        assert!(has(Category::FileChecksum), "{text}");
        // ProfileDb::open swept the stale tmp we planted above, so plant
        // another one after it to exercise the audit path.
        std::fs::write(epoch.join("00000009.cycles.tmp"), b"partial").unwrap();
        let report = dcpicheck_db(&root);
        let text = report.render();
        let has = |cat: Category| report.diags.iter().any(|d| d.category == cat);
        assert!(has(Category::StaleTemp), "{text}");
        assert!(has(Category::QuarantinedFile), "{text}");
        assert!(has(Category::ImageNameRecord), "{text}");
    }

    #[test]
    fn db_audit_flags_structure_problems() {
        let root = TempRoot::new("dcpicheck-structure");
        seed_db(&root);
        // A gap in epoch numbering and a foreign file in the root.
        std::fs::create_dir(root.join("epoch_0005")).unwrap();
        std::fs::write(root.join("notes.txt"), b"scratch").unwrap();
        std::fs::write(root.join("epoch_0000/readme"), b"?").unwrap();
        let report = dcpicheck_db(&root);
        let text = report.render();
        assert!(!report.is_clean(), "{text}");
        assert!(text.contains("gap"), "{text}");
        assert!(text.contains("notes.txt"), "{text}");
        assert!(text.contains("foreign file"), "{text}");
    }

    #[test]
    fn db_audit_flags_malformed_name_records() {
        let root = TempRoot::new("dcpicheck-names");
        seed_db(&root);
        std::fs::write(root.join("images.tsv"), "7\t/bin/app\nbogus line\n").unwrap();
        let report = dcpicheck_db(&root);
        assert!(!report.is_clean(), "{}", report.render());
        assert!(report
            .diags
            .iter()
            .any(|d| d.category == Category::ImageNameRecord && d.severity == Severity::Error));
    }

    #[test]
    fn db_audit_on_missing_directory_is_an_error() {
        let report = dcpicheck_db(Path::new("/nonexistent/dcpi-db"));
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_image_with_samples_reports_no_errors() {
        let mut a = Asm::new("/bin/app");
        a.proc("loop");
        a.li(Reg::T0, 8);
        let top = a.here();
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.ret(Reg::RA);
        let image = a.finish();
        let id = ImageId(7);
        let mut registry = ImageRegistry::new();
        registry.insert(id, Arc::new(image));
        let mut set = ProfileSet::new();
        for off in [4u64, 8] {
            set.add(id, Event::Cycles, off, 800);
        }
        let report = dcpicheck_report(&set, &registry);
        assert!(report.is_clean(), "{}", report.render());
        let text = dcpicheck(&set, &registry);
        assert!(text.contains("0 error(s)"), "{text}");
    }

    fn seed_stacks(root: &Path, count: u64) {
        let db = ProfileDb::open(root, Format::V2).unwrap();
        let mut stacks = StackProfile::new();
        let f = |off| dcpi_stacks::Frame {
            image: ImageId(7),
            offset: off,
        };
        stacks.record(
            Event::Cycles.code(),
            dcpi_core::Pid(1),
            &[f(0), f(0x40)],
            count,
        );
        dcpi_collect::daemon::write_epoch_stacks(&db, db.current_epoch(), &stacks).unwrap();
    }

    #[test]
    fn stacks_audit_passes_when_stack_and_flat_totals_agree() {
        let root = TempRoot::new("dcpicheck-stacks-clean");
        seed_db(&root); // 12 cycles samples at one pc
        seed_stacks(&root, 12); // 12 stacked cycles samples
        let report = dcpicheck_stacks(&root);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warnings(), 0, "{}", report.render());
        // The sidecar is first-class to the db audit too, not foreign.
        let db_report = dcpicheck_db(&root);
        assert!(db_report.is_clean(), "{}", db_report.render());
        assert_eq!(db_report.warnings(), 0, "{}", db_report.render());
    }

    #[test]
    fn stacks_audit_warns_on_flat_total_mismatch() {
        let root = TempRoot::new("dcpicheck-stacks-skew");
        seed_db(&root); // 12 cycles samples
        seed_stacks(&root, 9); // fewer stacked samples: driver-drop shape
        let report = dcpicheck_stacks(&root);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warnings(), 1, "{}", report.render());
        assert!(report
            .render()
            .contains("9 stack samples vs 12 flat samples"));
    }

    #[test]
    fn stacks_audit_flags_a_corrupt_sidecar() {
        let root = TempRoot::new("dcpicheck-stacks-corrupt");
        seed_db(&root);
        seed_stacks(&root, 12);
        let sidecar = root.join("epoch_0000").join(STACKS_FILE);
        let bytes = std::fs::read(&sidecar).unwrap();
        std::fs::write(&sidecar, &bytes[..bytes.len() - 3]).unwrap();
        let report = dcpicheck_stacks(&root);
        assert!(!report.is_clean(), "{}", report.render());
        assert!(report
            .diags
            .iter()
            .any(|d| d.category == Category::StackStructure && d.severity == Severity::Error));
        // dcpicheck db flags the same corruption at decode level.
        let db_report = dcpicheck_db(&root);
        assert!(!db_report.is_clean(), "{}", db_report.render());
    }

    #[test]
    fn stacks_audit_on_a_stackless_database_is_a_warning_not_an_error() {
        let root = TempRoot::new("dcpicheck-stacks-none");
        seed_db(&root);
        let report = dcpicheck_stacks(&root);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warnings(), 1, "{}", report.render());
        assert!(report.render().contains("without stack walking"));
    }

    #[test]
    fn corrupted_image_reports_errors() {
        let mut a = Asm::new("/bin/bad");
        a.proc("f");
        a.addq_lit(Reg::A0, 1, Reg::V0);
        a.ret(Reg::RA);
        let good = a.finish();
        let mut words = good.words().to_vec();
        words[0] = 0x0000_00ff;
        let image =
            dcpi_isa::image::Image::new(good.name().to_string(), words, good.symbols().to_vec());
        let mut registry = ImageRegistry::new();
        registry.insert(ImageId(1), Arc::new(image));
        let report = dcpicheck_report(&ProfileSet::new(), &registry);
        assert!(!report.is_clean());
    }
}
