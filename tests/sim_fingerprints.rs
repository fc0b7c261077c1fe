//! Simulator bit-identity in Tier-1: a fixed subset of the 92 recorded
//! fingerprints (`crates/workloads/tests/golden/classic-fingerprints.txt`,
//! taken from the instruction-level interpreter the dispatch walker
//! replaced) reproduced under the default `Superblock` dispatch — every
//! workload at seed 1 under `cycles`, single- and multi-CPU alike, one
//! `mux+stacks` run (multiplexed counters and the stack walker) and one
//! double-sampling run. The full matrix under both dispatch modes is
//! `dcpi-workloads`' `dispatch_parity` suite.
//!
//! Also here, because only this crate sees both the ISA and the
//! workloads: every workload image compiles the static pairing rule into
//! its micro-ops exactly.

use dcpi::isa::pipeline::may_pair;
use dcpi::machine::{DispatchMode, Machine, MachineConfig, NullSink};
use dcpi::workloads::driver::spawn_with;
use dcpi::workloads::fingerprint::{fnv64, recorded_cases, recorded_hashes};
use dcpi::workloads::{RunOptions, Workload};

/// The recorded labels this test reproduces.
fn in_subset(label: &str) -> bool {
    label.ends_with(" 1 cycles")
        || label == "deep-recursion 1 mux+stacks"
        || label == "interp-x2 1 double1-slice20000"
}

#[test]
fn a_subset_of_the_recorded_fingerprints_reproduces() {
    let golden = recorded_hashes();
    let mut ran = Vec::new();
    for (label, run) in recorded_cases(false) {
        if !in_subset(&label) {
            continue;
        }
        let (text, _) = run(DispatchMode::Superblock);
        let hash = format!("{:016x}", fnv64(&text));
        assert_eq!(
            golden.get(&label),
            Some(&hash),
            "{label}: the simulator no longer reproduces the recorded fingerprint"
        );
        ran.push(label);
    }
    assert_eq!(ran.len(), Workload::ALL.len() + 2, "{ran:?}");
}

#[test]
fn every_workload_image_compiles_the_static_pairing_rule() {
    for w in Workload::ALL {
        let cfg = MachineConfig {
            cpus: w.cpus(),
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, NullSink);
        spawn_with(w, &mut m, &RunOptions::default(), None);
        for li in m.os.images() {
            for (k, pair) in li.insns.windows(2).enumerate() {
                assert_eq!(
                    li.uops[k].pairs(),
                    may_pair(&pair[0], &pair[1]),
                    "{} {} word {k}: {} ; {}",
                    w.name(),
                    li.image.name(),
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}
