//! The analysis-listing contract: a fixed-seed gcc + x11perf run must
//! render byte-identical `dcpicalc` and `dcpisumm` text for every sampled
//! procedure, and the analyzer phases behind them (`frequency_classes`,
//! `estimate_frequencies`, `find_culprits`) must produce the same values,
//! fingerprinted here from their `Debug` text so product types need no
//! `PartialEq`. The committed golden pins all of it across refactors of
//! the analyzer and the renderers.
//!
//! Regenerate after an intentional change to a rendered byte with
//! `DCPI_BLESS=1 cargo test -p dcpi-tools --test calc_golden`.

use dcpi_analyze::analysis::{analyze_procedure, AnalysisOptions};
use dcpi_analyze::equiv::frequency_classes;
use dcpi_core::{golden, Event};
use dcpi_isa::pipeline::PipelineModel;
use dcpi_machine::os::MAIN_BASE;
use dcpi_tools::{dcpicalc, dcpisumm};
use dcpi_workloads::fingerprint::fnv64;
use dcpi_workloads::{run_workload, ProfConfig, RunOptions, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Every sampled procedure of one fixed-seed run: a header, the three
/// phase fingerprints, then the two listings.
fn listings(w: Workload, out: &mut String) -> usize {
    let opts = RunOptions {
        seed: 11,
        period: (6_000, 6_400),
        limit: 400_000_000,
        ..RunOptions::default()
    };
    let r = run_workload(w, ProfConfig::Default, &opts);
    let model = PipelineModel::default();
    let mut procs = 0;
    for (id, image) in &r.images {
        let Some(profile) = r.profiles.get(*id, Event::Cycles) else {
            continue;
        };
        for sym in image.symbols() {
            if profile.range_total(sym.offset, sym.offset + sym.size) == 0 {
                continue;
            }
            let pa = analyze_procedure(
                image,
                sym,
                &r.profiles,
                *id,
                &model,
                &AnalysisOptions::default(),
            )
            .expect("sampled procedure analyses");
            let eq = frequency_classes(&pa.cfg);
            let classes = format!("{:?}{:?}{}", eq.block_class, eq.edge_class, eq.n_classes);
            let culprits: Vec<_> = pa.insns.iter().map(|ia| &ia.culprits).collect();
            let _ = writeln!(out, "=== {} {} {}", w.name(), image.name(), sym.name);
            let _ = writeln!(
                out,
                "=== classes {:016x} frequencies {:016x} culprits {:016x}",
                fnv64(&classes),
                fnv64(format!("{:?}", pa.frequencies)),
                fnv64(format!("{culprits:?}")),
            );
            out.push_str(&dcpicalc(&pa, MAIN_BASE.0));
            out.push_str(&dcpisumm(&pa));
            procs += 1;
        }
    }
    procs
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/calc-gcc-x11perf.txt")
}

#[test]
fn fixed_seed_listings_match_the_committed_golden() {
    let mut text = String::new();
    let gcc = listings(Workload::Gcc, &mut text);
    let x11 = listings(Workload::X11Perf, &mut text);
    assert!(gcc >= 10 && x11 >= 5, "gcc {gcc} procs, x11perf {x11}");
    let moved = golden::check(&golden_path(), &text, Some("=== ")).expect("write the golden file");
    assert!(
        moved.is_empty(),
        "the listings moved:\n{}",
        moved.join("\n")
    );
}
