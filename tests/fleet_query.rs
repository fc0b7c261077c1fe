//! Fleet queries read what they report: `dcpifleet top` opens every
//! profile file once, `dcpifleet image` only the files named for its
//! image, and both print exactly what a merged `read_all()` would have
//! summed to — over a fleet root built through a real `IngestServer`.

use dcpi::collect::wire::{encode_msg, Msg};
use dcpi::core::codec::Format;
use dcpi::core::db::{EpochId, ProfileDb};
use dcpi::core::{Event, ImageId, ProfileKey, ProfileSet, UNKNOWN_IMAGE};
use dcpi::server::{AgentScript, IngestServer, ServerConfig, FLEET_IMAGES};
use dcpi::tools::{dcpifleet_image, dcpifleet_top};
use dcpi_testkit::{tree, TempRoot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const AGENTS: u32 = 3;
const EPOCHS: u32 = 4;

/// Three agents upload four epochs each; the server merges after every
/// round, so the fleet database holds four epochs.
fn fleet_root(tag: &str) -> TempRoot {
    let root = TempRoot::new(&format!("fleet-query-{tag}"));
    let scripts: Vec<AgentScript> = (0..AGENTS)
        .map(|agent| AgentScript::generate(agent, 23, EPOCHS, 256))
        .collect();
    let mut server = IngestServer::create(ServerConfig::new(&root)).unwrap();
    for round in 0..EPOCHS as usize {
        for script in &scripts {
            let frame = encode_msg(&Msg::Upload {
                agent: script.agent,
                incarnation: 1,
                seq: round as u64 + 1,
                batch: script.epochs[round].clone(),
            });
            assert_eq!(server.on_frame(round as u64, &frame).len(), 1);
        }
        server.merge_queue(round as u64).unwrap();
    }
    server.finish(u64::from(EPOCHS)).unwrap();
    assert!(server.ledger().conserves());
    drop(server);
    root
}

fn open(root: &Path) -> ProfileDb {
    ProfileDb::open(root.join("db"), Format::V2).unwrap()
}

fn label(db: &ProfileDb, image: ImageId) -> String {
    if image == UNKNOWN_IMAGE {
        "<unknown>".to_owned()
    } else {
        db.image_name(image)
            .map_or_else(|| format!("image#{}", image.0), ToOwned::to_owned)
    }
}

/// `dcpifleet top` as the merged set would have it rendered.
fn top_text(db: &ProfileDb, set: &ProfileSet, n: usize) -> String {
    let mut by_image: BTreeMap<ImageId, u64> = BTreeMap::new();
    for (key, p) in set.iter() {
        *by_image.entry(key.image).or_default() += p.total();
    }
    let total = set.total_samples();
    let unknown = by_image.get(&UNKNOWN_IMAGE).copied().unwrap_or(0);
    let mut rows: Vec<(ImageId, u64)> = by_image.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    let mut out = format!(
        "fleet database: {} epoch(s), {total} sample(s) ({unknown} unknown)\n",
        db.epochs().unwrap().len()
    );
    let _ = writeln!(out, "{:>12}  {:>6}  image", "samples", "%");
    for (image, samples) in rows.into_iter().take(n) {
        let pct = samples as f64 * 100.0 / total as f64;
        let _ = writeln!(out, "{samples:>12}  {pct:>5.1}%  {}", label(db, image));
    }
    out
}

/// `dcpifleet image` as the merged set would have it rendered.
fn image_text(db: &ProfileDb, set: &ProfileSet, image: ImageId) -> String {
    let mut out = format!("{} across the fleet:\n", label(db, image));
    let mut any = false;
    for event in Event::ALL {
        if let Some(p) = set.get(image, event) {
            let _ = writeln!(out, "{:>12}  {event:?}", p.total());
            any = true;
        }
    }
    if !any {
        out.push_str("  no samples\n");
    }
    out
}

/// Every file under the database whose name ends `suffix`, sorted.
fn files_ending(root: &Path, suffix: &str) -> Vec<PathBuf> {
    let db = root.join("db");
    let files = tree(&db).into_iter().map(|path| db.join(path));
    files
        .filter(|path| path.to_string_lossy().ends_with(suffix))
        .collect()
}

#[test]
fn queries_print_what_the_merged_set_sums_to() {
    let root = fleet_root("text");
    let db = open(&root);
    assert!(db.epochs().unwrap().len() >= 3);
    let set = db.read_all().unwrap();
    assert!(set.total_samples() > 0);
    for n in [1, 3, 10] {
        assert_eq!(dcpifleet_top(&root, n).unwrap(), top_text(&db, &set, n));
    }
    // Every image of the universe, the unknown image, and one nobody has.
    let ids = FLEET_IMAGES.iter().map(|&(id, _)| ImageId(id));
    for image in ids.chain([UNKNOWN_IMAGE, ImageId(77)]) {
        assert_eq!(
            dcpifleet_image(&root, image.0).unwrap(),
            image_text(&db, &set, image),
            "image {}",
            image.0
        );
    }
    assert!(dcpifleet_image(&root, 77).unwrap().contains("no samples"));
}

#[test]
fn a_file_is_quarantined_by_the_query_that_opens_it_and_no_other() {
    let root = fleet_root("quarantine");
    let healthy = open(&root).read_all().unwrap();
    // Image 1 is fleet-hot: every epoch has its file. Tear epoch 1's.
    let key = ProfileKey {
        image: ImageId(1),
        event: Event::Cycles,
    };
    let lost = open(&root).read_profile(EpochId(1), key).unwrap().total();
    assert!(lost > 0);
    let victim = root.join("db/epoch_0001/00000001.cycles.prof");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();

    // Another image's query never opens it: nothing moves, and the
    // answer is the healthy one.
    let other = healthy
        .sorted_keys()
        .into_iter()
        .map(|k| k.image)
        .find(|&i| i != ImageId(1) && i != UNKNOWN_IMAGE)
        .unwrap();
    let before = open(&root);
    assert_eq!(
        dcpifleet_image(&root, other.0).unwrap(),
        image_text(&before, &healthy, other)
    );
    assert!(victim.exists());
    assert!(files_ending(&root, ".quar").is_empty());

    // The full pass does, once, and reports what is left.
    let top = dcpifleet_top(&root, 10).unwrap();
    assert!(!victim.exists());
    assert_eq!(
        files_ending(&root, ".quar"),
        vec![victim.with_extension("prof.quar")]
    );
    let db = open(&root);
    let left = db.read_all().unwrap();
    assert_eq!(left.total_samples(), healthy.total_samples() - lost);
    assert!(db.damage().is_clean(), "nothing left to quarantine");
    assert_eq!(top, top_text(&db, &left, 10));
    assert_eq!(dcpifleet_top(&root, 10).unwrap(), top);
    assert_eq!(
        dcpifleet_image(&root, 1).unwrap(),
        image_text(&db, &left, ImageId(1))
    );
    assert_eq!(files_ending(&root, ".quar").len(), 1);
}

#[test]
fn scan_visits_each_profile_file_once_and_nothing_else() {
    let root = fleet_root("scan");
    let db = open(&root);
    // Names a reader must refuse without opening: were any of these
    // opened, its garbage would be quarantined.
    let epoch = db.epoch_path(EpochId(2));
    let junk = [
        "stacks.dcst",
        "00000001.cycles.tmp",
        "00000001.cycles.prof.quar",
        "00000001.cycles.prof.quar2",
        "00000001.bogus.prof",
        "notes.txt",
    ];
    for name in junk {
        std::fs::write(epoch.join(name), b"not a profile").unwrap();
    }
    let mut seen = Vec::new();
    let mut scanned = 0u64;
    db.scan(
        db.epochs().unwrap(),
        |_| true,
        |epoch, key, profile| {
            let name = format!("{:08x}.{}.prof", key.image.0, key.event.name());
            seen.push(db.epoch_path(epoch).join(name));
            scanned += profile.total();
        },
    )
    .unwrap();
    seen.sort();
    let on_disk: Vec<PathBuf> = files_ending(&root, ".prof")
        .into_iter()
        .filter(|p| !p.ends_with("00000001.bogus.prof"))
        .collect();
    assert_eq!(seen, on_disk);
    assert!(db.damage().is_clean());
    assert!(junk.iter().all(|name| epoch.join(name).exists()));
    assert_eq!(scanned, db.read_all().unwrap().total_samples());

    // A filter is applied to the name: only image 1's files arrive, and
    // a torn file of another image is left where it lies.
    let other = on_disk
        .iter()
        .find(|p| !p.ends_with("00000001.cycles.prof"))
        .unwrap();
    std::fs::write(other, b"DCPI torn").unwrap();
    let mut images = Vec::new();
    db.scan(
        db.epochs().unwrap(),
        |key| key.image == ImageId(1),
        |_, key, _| images.push(key.image),
    )
    .unwrap();
    assert_eq!(images, vec![ImageId(1); db.epochs().unwrap().len()]);
    assert!(other.exists() && db.damage().is_clean());
}
