//! The database directory: one owner, one meaning per name, and the same
//! bytes on disk as before `db.rs` became that owner.
//!
//! `tests/golden/db-tree.txt` holds one `path length fnv64` line per
//! file of three fixed-seed trees — a machine database with every event
//! of the default configuration, one with calling-context sidecars, and
//! the `db/` of a faulted six-agent fleet — as the code wrote them when
//! the file was recorded. A change to who names, lists or lands a file
//! in a database must leave every line alone: same names, same lengths,
//! same bytes. Regenerate with `DCPI_BLESS=1` only when moving a byte on
//! disk is the point of the PR.

use dcpi::check::{Category, Severity};
use dcpi::collect::daemon::{write_epoch_stacks, Daemon, DaemonConfig};
use dcpi::collect::faults::LossLedger;
use dcpi::collect::wire::{encode_msg, EpochBatch, Msg};
use dcpi::core::codec::Format;
use dcpi::core::db::{Entry, EpochId, ProfileDb};
use dcpi::core::{golden, Event, ImageId, Pid, ProfileKey, ProfileSet};
use dcpi::isa::asm::Asm;
use dcpi::isa::pipeline::PipelineModel;
use dcpi::isa::reg::Reg;
use dcpi::machine::os::default_kernel;
use dcpi::machine::Os;
use dcpi::server::{run_fleet, FleetConfig, IngestServer, ServerConfig};
use dcpi::tools::{dcpicheck_db, dcpifleet_top, load_db};
use dcpi::workloads::fingerprint::fnv64;
use dcpi::workloads::{run_workload, ProfConfig, RunOptions, Workload};
use dcpi_obs::Obs;
use dcpi_stacks::{Frame, StackProfile};
use dcpi_testkit::{snapshot, TempRoot};
use std::fmt::Write as _;
use std::path::Path;

/// Every file under `dir`, depth first in name order, as
/// `label/relative/path length hash` lines (an empty directory is a
/// line too: epochs exist before anything lands in them).
fn tree_lines(label: &str, dir: &Path, out: &mut String) {
    let snap = snapshot(dir);
    if snap.is_empty() {
        let _ = writeln!(out, "{label}/ empty");
    }
    for (i, (path, bytes)) in snap.iter().enumerate() {
        let label = format!("{label}/{}", path.display());
        let holds_more = || {
            snap.get(i + 1)
                .is_some_and(|(next, _)| next.starts_with(path))
        };
        match bytes {
            Some(bytes) => {
                let _ = writeln!(out, "{label} {} {:016x}", bytes.len(), fnv64(bytes));
            }
            None if !holds_more() => {
                let _ = writeln!(out, "{label}/ empty");
            }
            None => {}
        }
    }
}

fn machine_tree(tag: &str, w: Workload, prof: ProfConfig, stack_walk: bool) -> TempRoot {
    let dir = TempRoot::new(&format!("db-layout-{tag}"));
    let opts = RunOptions {
        seed: 7,
        period: (6_000, 6_400),
        limit: 200_000_000,
        db_path: Some(dir.to_path_buf()),
        stack_walk,
        ..RunOptions::default()
    };
    let r = run_workload(w, prof, &opts);
    assert!(r.samples > 0, "{tag}: no samples");
    dir
}

#[test]
fn the_trees_on_disk_are_the_recorded_ones() {
    let mut now = String::new();
    let gcc = machine_tree("gcc-default", Workload::Gcc, ProfConfig::Default, false);
    tree_lines("gcc-default", &gcc, &mut now);
    let deep = machine_tree(
        "deep-recursion-stacks",
        Workload::DeepRecursion,
        ProfConfig::Cycles,
        true,
    );
    tree_lines("deep-recursion-stacks", &deep, &mut now);
    let fleet = TempRoot::new("db-layout-fleet6");
    let report = run_fleet(&FleetConfig::new(&fleet, 6, 11), &Obs::disabled()).expect("fleet run");
    assert!(report.conserves(), "the fleet run must conserve");
    tree_lines("fleet6-db", &fleet.join("db"), &mut now);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/db-tree.txt");
    let moved = golden::check(&golden, &now, None).expect("write the golden file");
    assert!(
        moved.is_empty(),
        "the database tree moved:\n{}",
        moved.join("\n")
    );
}

fn key(image: u32, event: Event) -> ProfileKey {
    ProfileKey {
        image: ImageId(image),
        event,
    }
}

#[test]
fn every_name_has_one_meaning() {
    for (name, meaning) in [
        ("epoch_0000", Entry::Epoch(EpochId(0))),
        ("epoch_12345", Entry::Epoch(EpochId(12345))),
        ("images.tsv", Entry::NameMap),
        ("images", Entry::Images),
        ("00000003.img", Entry::Image(ImageId(3))),
        (
            "00000003.cycles.prof",
            Entry::Profile(key(3, Event::Cycles)),
        ),
        (
            "ffffffff.imiss.prof",
            Entry::Profile(key(u32::MAX, Event::IMiss)),
        ),
        ("stacks.dcst", Entry::Sidecar),
        ("00000003.cycles.tmp", Entry::StaleTmp),
        ("stacks.tmp", Entry::StaleTmp),
        ("images.tmp", Entry::StaleTmp),
        ("00000003.cycles.prof.quar", Entry::Quarantined),
        ("00000003.cycles.prof.quar2", Entry::Quarantined),
        // One spelling per value, the writer's.
        ("00000003.bogus.prof", Entry::Misnamed),
        ("3.cycles.prof", Entry::Misnamed),
        ("0000000A.cycles.prof", Entry::Misnamed),
        ("junk.prof", Entry::Misnamed),
        ("epoch_7", Entry::Foreign),
        ("epoch_+007", Entry::Foreign),
        ("epoch_", Entry::Foreign),
        ("3.img", Entry::Foreign),
        ("wal.log", Entry::Foreign),
    ] {
        assert_eq!(Entry::of(name), meaning, "{name}");
    }
}

/// One of everything an epoch directory can hold: the reader, the size
/// accounting and the auditor agree on which one file is a profile.
#[test]
fn one_of_each_is_read_counted_and_audited_alike() {
    let root = TempRoot::new("db-layout-one-of-each");
    let mut db = ProfileDb::create(&root, Format::V2).expect("create");
    db.record_image_name(ImageId(3), "/bin/app").expect("name");
    let mut set = ProfileSet::new();
    set.add(ImageId(3), Event::Cycles, 0x40, 12);
    db.merge(&set).expect("merge");
    let epoch = db.epoch_path(EpochId(0));
    let profile = epoch.join("00000003.cycles.prof");
    let bytes = std::fs::read(&profile).expect("the profile");
    // The same valid record under names no reader will open.
    for name in [
        "00000003.bogus.prof",
        "00000003.imiss.tmp",
        "00000003.imiss.prof.quar2",
        "notes.txt",
    ] {
        std::fs::write(epoch.join(name), &bytes).expect("plant");
    }
    let mut stacks = StackProfile::new();
    let frame = Frame {
        image: ImageId(3),
        offset: 0x40,
    };
    stacks.record(Event::Cycles.code(), Pid(1), &[frame], 12);
    write_epoch_stacks(&db, EpochId(0), &stacks).expect("sidecar");

    let mut visited = Vec::new();
    db.scan(
        [EpochId(0)],
        |_| true,
        |_, k, p| visited.push((k, p.total())),
    )
    .expect("scan");
    assert_eq!(visited, [(key(3, Event::Cycles), 12)]);
    assert_eq!(db.disk_usage().expect("disk usage"), bytes.len() as u64);
    assert!(
        db.damage().is_clean(),
        "nothing was opened that is not a profile"
    );

    let report = dcpicheck_db(&root);
    let said: Vec<(Severity, Category, String)> = report
        .diags
        .iter()
        .map(|d| {
            let file = d.context.rsplit('/').next().expect("a path").to_owned();
            (d.severity, d.category, file)
        })
        .collect();
    let expected = [
        (
            Severity::Error,
            Category::EpochStructure,
            "00000003.bogus.prof",
        ),
        (
            Severity::Warning,
            Category::QuarantinedFile,
            "00000003.imiss.prof.quar2",
        ),
        (Severity::Warning, Category::StaleTemp, "00000003.imiss.tmp"),
        (Severity::Warning, Category::EpochStructure, "notes.txt"),
    ]
    .map(|(s, c, f)| (s, c, f.to_owned()));
    assert_eq!(said, expected, "{}", report.render());
}

/// A name is whatever an agent uploaded. One that ends its line and starts
/// another image's used to forge that image's name in the fleet database.
#[test]
fn an_uploaded_name_cannot_forge_another_images() {
    let root = TempRoot::new("db-layout-forged-name");
    let hostile = "/bin/app\n9\t/bin/forged";
    let five = LossLedger {
        generated: 5,
        attributed: 5,
        ..LossLedger::default()
    };
    let batch = EpochBatch {
        profiles: vec![(ImageId(3), Event::Cycles, [(0x40, 5)].into_iter().collect())],
        image_names: vec![(ImageId(3), hostile.to_owned())],
        ledger: five,
        ..EpochBatch::default()
    };
    let upload = encode_msg(&Msg::Upload {
        agent: 1,
        incarnation: 1,
        seq: 1,
        batch,
    });
    let mut server = IngestServer::create(ServerConfig::new(&root)).expect("create");
    assert_eq!(server.on_frame(0, &upload).len(), 1, "acked");
    server.merge_queue(1).expect("merge");
    drop(server);
    let server = IngestServer::reopen(ServerConfig::new(&root), 2).expect("reopen");
    assert_eq!(server.db().image_name(ImageId(3)), Some(hostile));
    assert_eq!(server.db().image_name(ImageId(9)), None);
    let top = dcpifleet_top(&root, 5).expect("top");
    assert_eq!(top.lines().count(), 3, "{top}");
    assert!(top.ends_with("  /bin/app\\n9\\t/bin/forged\n"), "{top}");
    let report = dcpicheck_db(&root.join("db"));
    assert!(report.diags.is_empty(), "{}", report.render());
}

/// A crash between the write of a saved executable and its rename leaves
/// only the temporary. The restarted daemon sweeps it and saves the image
/// again; the tools symbolize it.
#[test]
fn a_crash_mid_save_costs_no_image() {
    let root = TempRoot::new("db-layout-torn-image");
    let mut os = Os::new(1, 8192, default_kernel(), None, PipelineModel::default());
    let mut ids = Vec::new();
    for name in ["/bin/first", "/bin/second"] {
        let mut a = Asm::new(name);
        a.proc("entry");
        a.li(Reg::T0, 1);
        a.ret(Reg::RA);
        ids.push(os.register_image(a.finish()));
    }
    assert_eq!(ids[1], ImageId(3));
    let cfg = DaemonConfig {
        db_path: Some(root.to_path_buf()),
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(cfg.clone()).expect("daemon");
    daemon.startup_scan(&os);
    assert_eq!(daemon.stats.image_write_failures, 0);
    drop(daemon);
    let saved = root.join("images/00000003.img");
    let whole = std::fs::read(&saved).expect("saved image");
    let tmp = root.join("images/00000003.tmp");
    std::fs::write(&tmp, &whole[..whole.len() / 2]).expect("plant the temporary");
    std::fs::remove_file(&saved).expect("un-rename");

    let mut daemon = Daemon::reopen(cfg).expect("restart");
    assert_eq!(daemon.db().expect("db").damage().swept_tmp, [tmp]);
    daemon.startup_scan(&os);
    assert_eq!(daemon.stats.image_write_failures, 0);
    assert_eq!(std::fs::read(&saved).expect("saved again"), whole);
    let loaded = load_db(&root).expect("load");
    assert_eq!(loaded.registry.proc_name(ImageId(3), 0), "entry");
}
