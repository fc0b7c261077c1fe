//! Claims as code, in Tier-1. The registry's sub-second experiments run
//! at `--quick`: every claim they make must hold, and their text must
//! equal their sections of `tests/golden/experiments.txt` (regenerate
//! with `DCPI_BLESS=1`, or `experiments --all --quick --check` under it).
//! EXPERIMENTS.md is then held to that golden in both directions: every
//! claim it cites is a claim line there, every claim line is cited, and
//! every ✓ paragraph cites one.

use dcpi_bench::{check_golden, golden_path, Invocation, EXPERIMENTS};
use dcpi_core::cli::Args;
use std::collections::BTreeSet;

/// About a third of a second each in release.
const FAST: [&str; 4] = [
    "figure4",
    "ablation_period",
    "ablation_skid",
    "extension_double",
];

#[test]
fn the_fast_experiments_hold_their_claims_and_match_the_golden() {
    let ran: Vec<(&str, String)> = std::thread::scope(|s| {
        let runs: Vec<_> = FAST
            .into_iter()
            .map(|name| {
                s.spawn(move || {
                    let inv = Invocation::parse(Args::new([name, "--quick", "--check"]))
                        .expect("a command line the golden was recorded with");
                    let out = inv.run(inv.selected[0]);
                    if let Some(c) = out.claims.iter().find(|c| !c.holds) {
                        panic!("{name}: {c}");
                    }
                    (name, out.text)
                })
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("experiment thread"))
            .collect()
    });
    let moved = check_golden(&golden_path(), &ran).expect("golden readable");
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn experiments_md_cites_exactly_the_golden_claims() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden");
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md");
    let mut recorded = BTreeSet::new();
    for line in golden.lines().filter(|l| l.starts_with("claim ")) {
        assert!(
            line.ends_with(" -- ok"),
            "the golden records a failed claim: {line}"
        );
        recorded.insert(line["claim ".len()..].split(':').next().unwrap_or(""));
    }
    // A citation is a backticked `<experiment>.<claim>`.
    let is_claim = |span: &&str| {
        EXPERIMENTS.iter().any(|e| {
            span.strip_prefix(e.name)
                .is_some_and(|rest| rest.starts_with('.'))
        })
    };
    let cited: BTreeSet<&str> = doc.split('`').skip(1).step_by(2).filter(is_claim).collect();
    let uncited: Vec<_> = recorded.difference(&cited).collect();
    let unknown: Vec<_> = cited.difference(&recorded).collect();
    assert!(
        uncited.is_empty() && unknown.is_empty(),
        "claims in the golden that EXPERIMENTS.md never cites: {uncited:?}; \
         citations with no claim line in the golden: {unknown:?}"
    );
    for para in doc.split("\n\n").filter(|p| p.contains('✓')) {
        assert!(
            para.split('`').skip(1).step_by(2).any(|s| is_claim(&s)),
            "a ✓ that cites no claim:\n{para}"
        );
    }
}

/// `ablation_freq`'s `clustered` row is Figure 8's estimator over Figure
/// 8's runs, scored by the same rows, so the golden must print the same
/// within-5/10/15 % shares for both.
#[test]
fn the_clustered_ablation_row_is_figure8() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden");
    let section = |name: &str| {
        golden
            .split("# experiment ")
            .find(|s| s.starts_with(&format!("{name}\n")))
            .unwrap_or_else(|| panic!("no {name} section in the golden"))
    };
    fn share(s: &str) -> &str {
        let (_, rest) = s.split_once(':').expect("a share after its threshold");
        rest.split('%').next().unwrap_or_default().trim()
    }
    let figure8: Vec<&str> = section("figure8")
        .lines()
        .filter(|l| l.starts_with("within "))
        .map(share)
        .collect();
    let clustered: Vec<&str> = section("ablation_freq")
        .lines()
        .find(|l| l.starts_with("clustered "))
        .expect("the clustered row")
        .split("within")
        .skip(1)
        .map(share)
        .collect();
    assert_eq!(figure8.len(), 3, "{figure8:?}");
    assert_eq!(
        clustered, figure8,
        "ablation_freq's clustered row vs figure8"
    );
}
