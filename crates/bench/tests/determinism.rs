//! Determinism guarantees the fast lane must preserve:
//!
//! 1. The simulator's outputs at fixed seeds are golden — the decoded
//!    side table, translation caches, and any future hot-loop work must
//!    not shift a single cycle, sample, or retire count.
//! 2. A merged multi-run experiment is bit-identical for any size of
//!    the run table's pool.
//!
//! Set `DCPI_QUICK` to trim the heavier cases for CI wall-time budgets.

use dcpi_bench::Runs;
use dcpi_workloads::fingerprint::fingerprint;
use dcpi_workloads::programs::StreamKind;
use dcpi_workloads::{ProfConfig, RunOptions, Workload};

fn quick() -> bool {
    std::env::var("DCPI_QUICK").is_ok()
}

/// Golden `(cycles, samples, retired)` triples for the speedtest
/// workloads, recorded from the pre-optimization simulator. These pin the
/// fast path to the exact behaviour of the straightforward
/// classify-per-step implementation.
#[test]
fn simulator_outputs_match_golden_values() {
    let cases: &[(Workload, u32, (u64, u64, u64))] = &[
        (Workload::Gcc, 8, (14_180_366, 682, 6_127_577)),
        (Workload::Wave5, 4, (19_021_501, 922, 2_675_616)),
        (
            Workload::McCalpin(StreamKind::Copy),
            8,
            (77_991_836, 3750, 13_640_730),
        ),
    ];
    // Quick mode drops the McCalpin case (the longest run).
    let n = if quick() { 2 } else { cases.len() };
    for (w, scale, want) in &cases[..n] {
        let ro = RunOptions {
            scale: *scale,
            period: (20_000, 21_600),
            ..RunOptions::default()
        };
        let r = dcpi_workloads::run_workload(*w, ProfConfig::Cycles, &ro);
        assert_eq!(
            (r.cycles, r.samples, r.retired),
            *want,
            "{} scale {scale} drifted from golden values",
            w.name()
        );
    }
}

/// A merged result is bit-identical whether the run table runs its cells
/// serially or on four workers: for gcc, and for a stack-walking
/// recursion whose per-machine stack tables merge too.
#[test]
fn merged_runs_are_identical_across_thread_counts() {
    let runs = if quick() { 2 } else { 4 };
    let gcc = RunOptions {
        scale: 4,
        period: (20_000, 21_600),
        ..RunOptions::default()
    };
    let stacks = RunOptions {
        stack_walk: true,
        period: (5_000, 5_400),
        limit: 200_000_000,
        ..RunOptions::default()
    };
    for (w, ro) in [(Workload::Gcc, gcc), (Workload::MutualRecursion, stacks)] {
        let cell = (w, ProfConfig::Cycles, ro);
        let serial = Runs::new(1).merged(cell.clone(), runs);
        let parallel = Runs::new(4).merged(cell.clone(), runs);
        assert!(serial.samples > 0, "{}: no samples", w.name());
        if cell.2.stack_walk {
            assert!(!serial.stacks.is_empty());
            assert_eq!(
                serial.stacks.total(),
                serial.samples,
                "one stack per sample"
            );
        }
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&parallel),
            "{}: thread count changed the merged result",
            w.name()
        );
    }
}
