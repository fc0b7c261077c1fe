//! Dispatch parity: both dispatch modes reproduce the recorded reference.
//!
//! Every Table 2 workload, at several seeds and under every profiling
//! configuration, must produce **bit-identical** observable output under
//! `Classic` and `Superblock` dispatch: profiles, ground-truth counts and
//! edges, driver statistics, the end-to-end loss ledger, the overhead
//! ledger and the stack profile. The two modes may differ only in
//! wall-clock time and in the dispatch-path accounting itself.
//!
//! Both modes are also held to `tests/golden/classic-fingerprints.txt`:
//! one FNV-64 per run of [`dcpi_workloads::fingerprint`], recorded from
//! the classic single-step interpreter before it was deleted. Agreement
//! between two modes of one walker proves little on its own; the recorded
//! lines are what keep every behaviour the old reference path pinned still
//! pinned.
//!
//! Set `DCPI_QUICK` to trim to one seed (and the extra configurations to a
//! few workloads) for CI wall-time budgets. Regenerate the golden — only
//! for an intended change of simulated behaviour — with
//! `DCPI_BLESS=1 cargo test --release -p dcpi-workloads --test dispatch_parity`.

use dcpi_machine::DispatchMode;
use dcpi_workloads::fingerprint::{fnv64, golden_path, recorded_cases, recorded_hashes};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The first line at which two fingerprints part, for a failure message
/// that names the delta instead of dumping two megabyte strings.
fn first_difference(a: &str, b: &str) -> String {
    let clip = |s: &str| s.chars().take(240).collect::<String>();
    match a.lines().zip(b.lines()).find(|(x, y)| x != y) {
        Some((x, y)) => format!("\n  classic    {}\n  superblock {}", clip(x), clip(y)),
        None => format!("\n  lengths {} vs {}", a.len(), b.len()),
    }
}

#[test]
fn all_workloads_are_bit_identical_across_dispatch_modes() {
    let bless = dcpi_core::golden::blessing();
    let quick = std::env::var("DCPI_QUICK").is_ok() && !bless;
    let golden: BTreeMap<String, String> = if bless {
        BTreeMap::new()
    } else {
        recorded_hashes()
    };
    let mut blessed = String::new();
    for (label, run) in recorded_cases(quick) {
        let (classic, cstats, _) = run(DispatchMode::Classic);
        let (superblock, sstats, _) = run(DispatchMode::Superblock);
        // The two modes really are different walks of the same program:
        // one group per walk against runs of them, nothing in between.
        assert_eq!(cstats.chain_groups, 0, "{label}: classic walked chains");
        assert_eq!(
            sstats.classic_groups, 0,
            "{label}: superblock retired one-group walks ({sstats:?})"
        );
        assert!(
            sstats.chain_groups > sstats.chain_entries,
            "{label}: superblock walks never got past one group ({sstats:?})"
        );
        assert!(
            classic == superblock,
            "{label}: dispatch mode changed observable output{}",
            first_difference(&classic, &superblock)
        );
        let hash = format!("{:016x}", fnv64(&classic));
        if bless {
            let _ = writeln!(blessed, "{label}: {hash}");
            continue;
        }
        // Equal to each other, so one comparison holds both modes to the
        // recorded classic interpreter.
        assert_eq!(
            golden.get(&label),
            Some(&hash),
            "{label}: both modes agree with each other but not with the recorded classic \
             fingerprint; if simulated behaviour was meant to change, regenerate with DCPI_BLESS=1"
        );
    }
    if bless {
        std::fs::write(golden_path(), blessed).expect("write golden");
    }
}
