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
//! one FNV-64 per run, recorded from the classic single-step interpreter
//! before it was deleted. Agreement between two modes of one walker proves
//! little on its own; the recorded lines are what keep every behaviour the
//! old reference path pinned still pinned.
//!
//! Set `DCPI_QUICK` to trim to one seed (and the extra configurations to a
//! few workloads) for CI wall-time budgets. Regenerate the golden — only
//! for an intended change of simulated behaviour — with
//! `DCPI_BLESS=1 cargo test --release -p dcpi-workloads --test dispatch_parity`.

use dcpi_collect::session::{ProfiledRun, SessionConfig};
use dcpi_machine::counters::CounterConfig;
use dcpi_machine::{DispatchMode, DispatchStats};
use dcpi_workloads::programs::{interp_image, interp_setup};
use dcpi_workloads::{run_workload, ProfConfig, RunOptions, RunResult, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Workloads that also run the three extra configurations under
/// `DCPI_QUICK`: single- and multi-CPU, process churn, deep stacks.
const QUICK_EXTRA: [Workload; 3] = [Workload::Gcc, Workload::Dss, Workload::DeepRecursion];

fn fnv64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/classic-fingerprints.txt")
}

/// Flattens everything observable about a run — everything except the
/// dispatch accounting itself — into a comparable form.
fn fingerprint(r: &RunResult) -> String {
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
    let _ = writeln!(s, "driver: {:?}", r.driver);
    let _ = writeln!(s, "ledger: {:?}", r.ledger);
    let _ = writeln!(s, "overhead: {:?}", r.overhead);
    let _ = writeln!(s, "stacks: {:?}", r.stacks.to_bytes());
    s
}

/// One run of a Table 2 workload; returns its fingerprint and accounting.
fn run(
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
fn run_double(
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

/// A labelled run, deferred so the caller picks the dispatch mode.
type Case = (String, Box<dyn Fn(DispatchMode) -> (String, DispatchStats)>);

/// The recorded matrix, in golden-file order: every workload × seeds 1–3
/// under `cycles`, the other three configurations at seed 1, and the
/// double-sampling scenario. `quick` trims it as the module doc says.
fn cases(quick: bool) -> Vec<Case> {
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
                Box::new(move |d| run(w, seed, prof, d)),
            ));
        }
    }
    for seed in [1u32, 5] {
        for every in [1u32, 2] {
            for timeslice in [500_000u64, 20_000] {
                v.push((
                    format!("interp-x2 {seed} double{every}-slice{timeslice}"),
                    Box::new(move |d| run_double(seed, every, timeslice, d)),
                ));
            }
        }
    }
    v
}

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
    let bless = std::env::var("DCPI_BLESS").is_ok();
    let quick = std::env::var("DCPI_QUICK").is_ok() && !bless;
    let golden: BTreeMap<String, String> = if bless {
        BTreeMap::new()
    } else {
        std::fs::read_to_string(golden_path())
            .expect("committed golden file")
            .lines()
            .map(|l| {
                let (label, hash) = l.rsplit_once(": ").expect("`label: hash` line");
                (label.to_owned(), hash.to_owned())
            })
            .collect()
    };
    let mut blessed = String::new();
    for (label, run) in cases(quick) {
        let (classic, cstats) = run(DispatchMode::Classic);
        let (superblock, sstats) = run(DispatchMode::Superblock);
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
