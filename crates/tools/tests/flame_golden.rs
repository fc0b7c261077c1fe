//! The flamegraph-export contract: a fixed-seed stack-walking run must
//! produce a byte-identical speedscope document every time — across
//! reruns, across worker-thread counts, and across checkouts (the
//! committed golden file). Byte stability is what makes the export
//! diffable in CI and cacheable by downstream viewers.
//!
//! Regenerate the golden after an intentional format change with
//! `DCPI_BLESS=1 cargo test -p dcpi-tools --test flame_golden`.

use dcpi_core::{golden, Event};
use dcpi_stacks::speedscope;
use dcpi_tools::{dcpitop_flame, stack_frame_name, ImageRegistry};
use dcpi_workloads::{run_indexed, run_workload, ProfConfig, RunOptions, Workload};
use std::path::PathBuf;

fn opts() -> RunOptions {
    RunOptions {
        stack_walk: true,
        period: (8_000, 8_800),
        limit: 400_000_000,
        ..RunOptions::default()
    }
}

fn registry(r: &dcpi_workloads::RunResult) -> ImageRegistry {
    let mut reg = ImageRegistry::new();
    for (id, image) in &r.images {
        reg.insert(*id, std::sync::Arc::clone(image));
    }
    reg
}

fn export(r: &dcpi_workloads::RunResult) -> String {
    dcpitop_flame(&r.stacks, &registry(r), Event::Cycles, "deep-recursion")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/deep-recursion.speedscope.json")
}

#[test]
fn fixed_seed_flamegraph_matches_the_committed_golden() {
    let r = run_workload(Workload::DeepRecursion, ProfConfig::Cycles, &opts());
    assert!(r.samples > 200, "samples = {}", r.samples);
    assert_eq!(r.stacks.total(), r.samples, "one stack per sample");
    let doc = export(&r);
    speedscope::check_schema(&doc).unwrap();
    let moved = golden::check(&golden_path(), &doc, None).expect("write the golden file");
    assert!(moved.is_empty(), "the export moved:\n{}", moved.join("\n"));
}

#[test]
fn flamegraph_is_identical_across_reruns_and_thread_counts() {
    // Two independent fixed-seed runs export the same bytes.
    let a = run_workload(Workload::MutualRecursion, ProfConfig::Cycles, &opts());
    let b = run_workload(Workload::MutualRecursion, ProfConfig::Cycles, &opts());
    assert!(!a.stacks.is_empty());
    assert_eq!(export(&a), export(&b), "rerun changed the export");
    // A 4-run merge exports the same bytes whether the runs executed
    // serially or on four workers: stacks merge in index order, and the
    // exporter orders frames by first use over ascending stack IDs.
    let merged = |threads: usize| {
        let results = run_indexed(4, threads, |k| {
            let mut ro = opts();
            ro.seed += k as u32 * 97;
            run_workload(Workload::MutualRecursion, ProfConfig::Cycles, &ro)
        });
        let mut it = results.into_iter();
        let mut acc = it.next().unwrap();
        for r in it {
            acc.stacks.merge(&r.stacks);
        }
        acc
    };
    let serial = merged(1);
    let threaded = merged(4);
    let doc = export(&serial);
    assert_eq!(doc, export(&threaded), "thread count changed the export");
    speedscope::check_schema(&doc).unwrap();
    // The symbolizer resolved real procedure names, not hex fallbacks.
    let named = serial
        .stacks
        .counts
        .keys()
        .flat_map(|&(_, _, id)| serial.stacks.table.frames(id))
        .any(|f| stack_frame_name(&registry(&serial), f).starts_with("mut_"));
    assert!(named || doc.contains("main"), "symbolization lost: {doc}");
}
