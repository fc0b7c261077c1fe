//! What a simulated run is, as text — the one definition the recorded
//! simulator fingerprints are taken over.
//!
//! [`fingerprint`] flattens everything observable about a [`RunResult`]
//! except the dispatch accounting: scalar totals, every profile, the edge
//! samples, the ground truth's counts and edges, the driver statistics,
//! the loss and overhead ledgers and the stack profile. Its FNV-64
//! ([`fnv64`]) per scenario is what `tests/golden/classic-fingerprints.txt`
//! records: 92 lines taken from the instruction-level interpreter the
//! dispatch walker replaced, one per scenario of [`recorded_cases`]. The
//! dispatch-parity suite reproduces all of them under both dispatch modes;
//! Tier-1 (`tests/sim_fingerprints.rs` at the root) reproduces a subset.

use crate::driver::{run_workload, ProfConfig, RunOptions, RunResult, Workload};
use crate::programs::{interp_image, interp_setup};
use dcpi_collect::session::{ProfiledRun, SessionConfig};
use dcpi_machine::counters::CounterConfig;
use dcpi_machine::{DispatchMode, DispatchStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Workloads that also run the three extra configurations when the
/// matrix is trimmed: single- and multi-CPU, process churn, deep stacks.
const QUICK_EXTRA: [Workload; 3] = [Workload::Gcc, Workload::Dss, Workload::DeepRecursion];

/// FNV-1a, 64-bit, of `text`: the hash the golden file records.
#[must_use]
pub fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Flattens everything observable about a run — everything except the
/// dispatch accounting itself — into a comparable form.
#[must_use]
pub fn fingerprint(r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "cycles={} samples={} retired={}",
        r.cycles, r.samples, r.retired
    );
    for key in r.profiles.sorted_keys() {
        let p = r.profiles.get(key.image, key.event).expect("keyed profile");
        let _ = writeln!(
            s,
            "profile {:?} {:?}: {:?}",
            key.image,
            key.event,
            p.iter().collect::<Vec<_>>()
        );
    }
    let mut edges: Vec<_> = r.edge_profiles.iter().map(|(k, v)| (*k, *v)).collect();
    edges.sort_unstable();
    let _ = writeln!(s, "edge profiles: {edges:?}");
    for (id, image) in &r.images {
        let counts: Vec<u64> = (0..image.words().len())
            .map(|w| r.gt.insn_count(*id, w as u64 * 4))
            .collect();
        let _ = writeln!(s, "gt {id:?}: {counts:?} {:?}", r.gt.edges_of(*id));
    }
    // The driver's counts in the form the fingerprints were recorded
    // with; spilled samples were counted only after the recording.
    let _ = match r.driver {
        Some(d) => writeln!(
            s,
            "driver: Some(DriverStats {{ interrupts: {}, hits: {}, misses: {}, \
             flush_bypass: {}, dropped: {}, handler_cycles: {} }})",
            d.interrupts, d.hits, d.misses, d.flush_bypass, d.dropped, d.handler_cycles
        ),
        None => writeln!(s, "driver: None"),
    };
    let _ = writeln!(s, "ledger: {:?}", r.ledger);
    let _ = writeln!(s, "overhead: {:?}", r.overhead);
    let _ = writeln!(s, "stacks: {:?}", r.stacks.to_bytes());
    s
}

/// The recorded hashes, `label → fnv64`, read from the golden file.
///
/// # Panics
///
/// Panics if the file is missing or a line is not `label: hash`.
#[must_use]
pub fn recorded_hashes() -> BTreeMap<String, String> {
    std::fs::read_to_string(golden_path())
        .expect("committed golden file")
        .lines()
        .map(|l| {
            let (label, hash) = l.rsplit_once(": ").expect("`label: hash` line");
            (label.to_owned(), hash.to_owned())
        })
        .collect()
}

/// Where the recorded hashes live.
#[must_use]
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/classic-fingerprints.txt")
}

/// One recorded scenario: its golden-file label, and a run of it under a
/// chosen dispatch mode returning its fingerprint and accounting.
pub type Case = (String, Box<dyn Fn(DispatchMode) -> (String, DispatchStats)>);

/// The recorded matrix, in golden-file order: every workload × seeds 1–3
/// under `cycles`, the other three configurations at seed 1, and the
/// double-sampling scenario. `quick` trims it to seed 1, with the extra
/// configurations for gcc, dss and deep-recursion only.
#[must_use]
pub fn recorded_cases(quick: bool) -> Vec<Case> {
    let mut v: Vec<Case> = Vec::new();
    let seeds: &[u32] = if quick { &[1] } else { &[1, 2, 3] };
    for w in Workload::ALL {
        let mut runs: Vec<_> = seeds.iter().map(|&s| (s, ProfConfig::Cycles)).collect();
        if !quick || QUICK_EXTRA.contains(&w) {
            runs.extend([ProfConfig::Default, ProfConfig::Mux, ProfConfig::Base].map(|p| (1, p)));
        }
        for (seed, prof) in runs {
            let config = if prof == ProfConfig::Mux {
                "mux+stacks"
            } else {
                prof.name()
            };
            v.push((
                format!("{} {seed} {config}", w.name()),
                Box::new(move |d| recorded_run(w, seed, prof, d)),
            ));
        }
    }
    for seed in [1u32, 5] {
        for every in [1u32, 2] {
            for timeslice in [500_000u64, 20_000] {
                v.push((
                    format!("interp-x2 {seed} double{every}-slice{timeslice}"),
                    Box::new(move |d| double_sampling_run(seed, every, timeslice, d)),
                ));
            }
        }
    }
    v
}

/// One run of a Table 2 workload as the matrix records it; returns its
/// fingerprint and accounting.
fn recorded_run(
    w: Workload,
    seed: u32,
    prof: ProfConfig,
    dispatch: DispatchMode,
) -> (String, DispatchStats) {
    let opts = RunOptions {
        seed,
        scale: 1,
        period: (6_000, 6_400),
        limit: 200_000_000,
        obs: true,
        dispatch,
        // The mux leg doubles as the calling-context leg.
        stack_walk: prof == ProfConfig::Mux,
        ..RunOptions::default()
    };
    let r = run_workload(w, prof, &opts);
    assert!(r.retired > 0, "{} seed {seed} ran nothing", w.name());
    (fingerprint(&r), r.dispatch)
}

/// Two interpreter processes sharing one CPU with §7 double sampling on:
/// every `every`-th delivery arms a second sample that the next executed
/// PC resolves — or that a context switch in between discards, which the
/// short timeslice makes common.
fn double_sampling_run(
    seed: u32,
    every: u32,
    timeslice: u64,
    dispatch: DispatchMode,
) -> (String, DispatchStats) {
    let mut cfg = SessionConfig::default();
    cfg.machine.counters = CounterConfig::default_config((3_000, 3_300));
    cfg.machine.double_sample_every = every;
    cfg.machine.timeslice = timeslice;
    cfg.machine.seed = seed;
    cfg.machine.dispatch = dispatch;
    let mut run = ProfiledRun::new(cfg).expect("session");
    let image = interp_image(1);
    let id = run.register_image(image.clone());
    for _ in 0..2 {
        let img = image.clone();
        run.spawn(0, id, &[], move |p| interp_setup(p, &img));
    }
    run.run_to_completion(2_000_000_000);
    let mut paths: Vec<_> = run.daemon.path_profiles().iter().collect();
    paths.sort_unstable();
    assert!(!paths.is_empty(), "double sampling must be live");
    let mut edges: Vec<_> = run.daemon.edge_profiles().iter().collect();
    edges.sort_unstable();
    let text = format!(
        "cycles={} samples={}\npaths: {paths:?}\nedges: {edges:?}\nledger: {:?}\n",
        run.machine.time(),
        run.machine.total_samples(),
        run.ledger()
    );
    (text, run.machine.dispatch_stats())
}
