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
//! its micro-ops exactly, and every edge those runs took leaves a word
//! whose static [`Flow`] permits it.

use dcpi::isa::pipeline::may_pair;
use dcpi::isa::Flow;
use dcpi::machine::{DispatchMode, Machine, MachineConfig, NullSink};
use dcpi::workloads::driver::spawn_with;
use dcpi::workloads::fingerprint::{fnv64, recorded_cases, recorded_hashes};
use dcpi::workloads::{RunOptions, RunResult, Workload};

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
        let (text, _, result) = run(DispatchMode::Superblock);
        let hash = format!("{:016x}", fnv64(&text));
        assert_eq!(
            golden.get(&label),
            Some(&hash),
            "{label}: the simulator no longer reproduces the recorded fingerprint"
        );
        if let Some(r) = result {
            edges_follow_flow(&label, &r);
        }
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

/// Every edge the simulator recorded in `r`'s ground truth leaves a word
/// whose static reading permits it: a conditional branch goes to its
/// target or the next word, a jump or a direct call to its target, an
/// indirect transfer anywhere, and nothing else leaves by an edge.
fn edges_follow_flow(label: &str, r: &RunResult) {
    for (id, image) in &r.images {
        for (from, to, _) in r.gt.edges_of(*id) {
            let insn = image.insn_at(from).expect("an executed word decodes");
            let flow = insn.flow();
            let (at, to) = ((from / 4) as u32, (to / 4) as i64);
            let permitted = match flow {
                Flow::CondBranch { .. } => flow.target(at) == Some(to) || to == i64::from(at) + 1,
                Flow::Jump { .. } | Flow::Call { .. } => flow.target(at) == Some(to),
                Flow::Return | Flow::IndirectJump { .. } | Flow::IndirectCall { .. } => true,
                Flow::Next | Flow::Pal(_) => false,
            };
            assert!(
                permitted,
                "{label} {}: edge {from:#x} -> {:#x} leaves `{insn}`, read as {flow:?}",
                image.name(),
                to * 4
            );
        }
    }
}
