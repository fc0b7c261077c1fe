//! The database directory, held to what was on disk before `db.rs`
//! became its only owner.
//!
//! `tests/golden/db-tree.txt` holds one `path length fnv64` line per
//! file of three fixed-seed trees — a machine database with every event
//! of the default configuration, one with calling-context sidecars, and
//! the `db/` of a faulted six-agent fleet — as the code wrote them when
//! the file was recorded. A change to who names, lists or lands a file
//! in a database must leave every line alone: same names, same lengths,
//! same bytes. Regenerate with `DCPI_BLESS=1` only when moving a byte on
//! disk is the point of the PR.

use dcpi::server::{run_fleet, FleetConfig};
use dcpi::workloads::{run_workload, ProfConfig, RunOptions, Workload};
use dcpi_obs::Obs;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The hash `classic-fingerprints.txt` uses, over a file's bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh directory under the target's scratch space.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("db_layout")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, depth first in name order, as
/// `label/relative/path length hash` lines (an empty directory is a
/// line too: epochs exist before anything lands in them).
fn tree_lines(label: &str, dir: &Path, out: &mut String) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    if entries.is_empty() {
        let _ = writeln!(out, "{label}/ empty");
    }
    for path in entries {
        let name = path.file_name().expect("named").to_string_lossy();
        let label = format!("{label}/{name}");
        if path.is_dir() {
            tree_lines(&label, &path, out);
        } else {
            let bytes = std::fs::read(&path).expect("readable file");
            let _ = writeln!(out, "{label} {} {:016x}", bytes.len(), fnv64(&bytes));
        }
    }
}

fn machine_tree(tag: &str, w: Workload, prof: ProfConfig, stack_walk: bool) -> PathBuf {
    let dir = scratch(tag);
    let opts = RunOptions {
        seed: 7,
        period: (6_000, 6_400),
        limit: 200_000_000,
        db_path: Some(dir.clone()),
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
    let fleet = scratch("fleet6");
    let report = run_fleet(&FleetConfig::new(&fleet, 6, 11), &Obs::disabled()).expect("fleet run");
    assert!(report.conserves(), "the fleet run must conserve");
    tree_lines("fleet6-db", &fleet.join("db"), &mut now);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/db-tree.txt");
    if std::env::var("DCPI_BLESS").is_ok() {
        std::fs::write(&golden, &now).expect("write the golden file");
    }
    let recorded = std::fs::read_to_string(&golden).expect("committed golden file");
    let first = recorded
        .lines()
        .zip(now.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| recorded.lines().count().min(now.lines().count()));
    assert!(
        recorded == now,
        "the database tree moved at line {}:\n  recorded {:?}\n  on disk  {:?}",
        first + 1,
        recorded.lines().nth(first),
        now.lines().nth(first)
    );
    for dir in [gcc, deep, fleet] {
        std::fs::remove_dir_all(dir).expect("clean up");
    }
}
