//! Property-style tests: random structured CFGs survive layout → fixup →
//! re-execution with identical architectural results.
//!
//! Programs are generated from a seeded PRNG (std-only, deterministic):
//! a counted outer loop guarantees termination, forward conditional
//! branches and straight-line segments give the optimizer real diamonds
//! and chains to rearrange, and random exported frequencies — including
//! adversarial ones bearing no relation to real execution — drive the
//! layout. Whatever the frequencies claim, the rewritten image must
//! retire every original instruction exactly as many times as the
//! original did.

use dcpi_core::prng::CartaRng;
use dcpi_isa::insn::BrCond;
use dcpi_isa::{AddressMap, Asm, Image, Reg};
use dcpi_machine::counters::CounterConfig;
use dcpi_machine::machine::{Machine, NullSink};
use dcpi_machine::MachineConfig;
use dcpi_pgo::{optimize, PgoOptions};

fn run(image: Image) -> (u64, dcpi_machine::stats::GroundTruth, dcpi_core::ImageId) {
    let cfg = MachineConfig::with_counters(CounterConfig::off());
    let mut m = Machine::new(cfg, NullSink);
    let id = m.register_image(image);
    m.spawn(0, id, &[], |_| {});
    m.run_to_completion(1_000_000, u64::MAX / 2);
    assert!(m.last_exit > 0, "program must run to completion");
    (m.last_exit, std::mem::take(&mut m.gt), id)
}

/// Both images must retire every *original* instruction the same number
/// of times, with new positions found through the address map.
fn assert_equivalent(old: Image, new: Image, map: &AddressMap) {
    let n = old.words().len();
    let (_, gt_old, id_old) = run(old);
    let (_, gt_new, id_new) = run(new);
    if let Err(off) =
        gt_old.counts_match_through(id_old, n, &gt_new, id_new, |off| map.remap_byte(off))
    {
        let new_off = map.remap_byte(off).expect("map is total");
        panic!(
            "retirement count diverged at old byte {off}: {} != {} (new byte {new_off})",
            gt_old.insn_count(id_old, off),
            gt_new.insn_count(id_new, new_off),
        );
    }
}

/// Random frequencies for every block and edge of the program, attached
/// to a parsed export so `optimize` sees plausible (or adversarial)
/// estimates.
fn random_estimates(image: &Image, rng: &mut CartaRng) -> Vec<dcpi_analyze::export::ExportedProc> {
    use dcpi_analyze::cfg::Cfg;
    use dcpi_analyze::export::{ExportedBlock, ExportedEdge, ExportedProc};
    image
        .symbols()
        .iter()
        .filter_map(|sym| {
            let cfg = Cfg::build(image, sym).ok()?;
            Some(ExportedProc {
                image: 1,
                image_name: image.name().to_string(),
                name: sym.name.clone(),
                start_word: (sym.offset / 4) as u32,
                len_words: (sym.size / 4) as u32,
                missing_edges: cfg.missing_edges,
                total_samples: rng.uniform(0, 1000),
                blocks: cfg
                    .blocks
                    .iter()
                    .map(|b| ExportedBlock {
                        start_word: b.start_word,
                        len: b.len,
                        freq: rng.uniform(0, 500) as f64,
                    })
                    .collect(),
                edges: cfg
                    .edges
                    .iter()
                    .map(|e| ExportedEdge {
                        from: e.from.0,
                        to: e.to.0,
                        kind: e.kind,
                        freq: rng.uniform(0, 500) as f64,
                    })
                    .collect(),
                insns: Vec::new(),
            })
        })
        .collect()
}

/// A random single-procedure program: counted outer loop, forward
/// diamonds, straight-line arithmetic, stack traffic, and an occasional
/// inner self-loop. Always terminates; always halts.
fn random_program(seed: u32) -> Image {
    let mut rng = CartaRng::new(seed);
    let mut a = Asm::new(format!("/t/rand{seed}"));
    a.proc("main");
    let temps = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4];
    let iters = rng.uniform(3, 9) as i16;
    a.lda(Reg::S0, iters, Reg::ZERO);
    let top = a.here();
    let segments = rng.uniform(2, 5);
    for _ in 0..segments {
        // Straight-line work.
        for _ in 0..rng.uniform(1, 6) {
            let x = temps[rng.uniform(0, 4) as usize];
            let y = temps[rng.uniform(0, 4) as usize];
            let z = temps[rng.uniform(0, 4) as usize];
            match rng.uniform(0, 5) {
                0 => a.addq(x, y, z),
                1 => a.subq(x, y, z),
                2 => a.xor(x, y, z),
                3 => a.s8addq(x, y, z),
                4 => a.stq(x, (rng.uniform(0, 4) * 8) as i16, Reg::SP),
                _ => a.ldq(x, (rng.uniform(0, 4) * 8) as i16, Reg::SP),
            }
        }
        // Forward diamond: conditionally skip a short cold run.
        if rng.uniform(0, 2) == 0 {
            let skip = a.label();
            let cond = if rng.uniform(0, 2) == 0 {
                BrCond::Beq
            } else {
                BrCond::Bne
            };
            a.condbr(cond, temps[rng.uniform(0, 4) as usize], skip);
            for _ in 0..rng.uniform(1, 4) {
                let x = temps[rng.uniform(0, 4) as usize];
                a.addq_lit(x, rng.uniform(1, 7) as u8, x);
            }
            a.bind(skip);
        }
        // Occasional bounded inner self-loop.
        if rng.uniform(0, 3) == 0 {
            a.lda(Reg::T5, rng.uniform(1, 4) as i16, Reg::ZERO);
            let inner = a.here();
            a.addq(Reg::T6, Reg::T5, Reg::T6);
            a.subq_lit(Reg::T5, 1, Reg::T5);
            a.condbr(BrCond::Bne, Reg::T5, inner);
        }
    }
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.condbr(BrCond::Bne, Reg::S0, top);
    // Fold the temps into v0 so the work is architecturally observable.
    for t in temps {
        a.addq(Reg::V0, t, Reg::V0);
    }
    a.stq(Reg::V0, 0, Reg::SP);
    a.halt();
    a.finish()
}

#[test]
fn random_cfgs_survive_rewrite_with_identical_results() {
    for seed in 1..=25u32 {
        let image = random_program(seed);
        let mut rng = CartaRng::new(seed.wrapping_mul(7919));
        let est = random_estimates(&image, &mut rng);
        let opts = PgoOptions {
            validate: true,
            ..PgoOptions::default()
        };
        let r = optimize(&image, &est, &opts)
            .unwrap_or_else(|s| panic!("seed {seed}: unexpected skip: {s}"));
        assert!(r.report.validated, "seed {seed}");
        assert!(r.map.check_bijective().is_ok(), "seed {seed}");
        assert!(
            r.image.decode_all().is_ok(),
            "seed {seed}: rewritten text must decode"
        );
        assert_equivalent(image, r.image, &r.map);
    }
}

#[test]
fn no_estimates_is_still_safe() {
    for seed in [3u32, 11, 19] {
        let image = random_program(seed);
        let r = optimize(&image, &[], &PgoOptions::default()).expect("rewrite");
        assert_equivalent(image, r.image, &r.map);
    }
}

#[test]
fn single_block_image_roundtrips() {
    let mut a = Asm::new("/t/one");
    a.proc("main");
    a.addq(Reg::T0, Reg::T0, Reg::T1);
    a.stq(Reg::T1, 0, Reg::SP);
    a.halt();
    let image = a.finish();
    let r = optimize(&image, &[], &PgoOptions::default()).expect("rewrite");
    assert_eq!(r.report.blocks_moved, 0);
    assert_equivalent(image, r.image, &r.map);
}

#[test]
fn self_loop_block_survives() {
    let mut a = Asm::new("/t/selfloop");
    a.proc("main");
    a.lda(Reg::T0, 50, Reg::ZERO);
    let top = a.here();
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.condbr(BrCond::Bne, Reg::T0, top);
    a.stq(Reg::T0, 0, Reg::SP);
    a.halt();
    let image = a.finish();
    let mut rng = CartaRng::new(42);
    let est = random_estimates(&image, &mut rng);
    let r = optimize(&image, &est, &PgoOptions::default()).expect("rewrite");
    assert_equivalent(image, r.image, &r.map);
}

/// The hot path falls through into a cold block; layout must move the
/// cold block out of line and stitch the fallthrough back together with
/// an inserted branch.
#[test]
fn fallthrough_into_cold_is_stitched_correctly() {
    use dcpi_analyze::cfg::EdgeKind;
    let mut a = Asm::new("/t/coldfall");
    a.proc("main");
    let hot = a.label();
    let join = a.label();
    a.lda(Reg::S0, 100, Reg::ZERO);
    let top = a.here();
    a.condbr(BrCond::Bne, Reg::S0, hot); // almost always taken
    a.addq_lit(Reg::T1, 1, Reg::T1); // cold fallthrough block
    a.addq_lit(Reg::T1, 2, Reg::T1);
    a.br(join);
    a.bind(hot);
    a.addq_lit(Reg::T2, 3, Reg::T2);
    a.bind(join);
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.condbr(BrCond::Bne, Reg::S0, top);
    a.stq(Reg::T1, 0, Reg::SP);
    a.stq(Reg::T2, 8, Reg::SP);
    a.halt();
    let image = a.finish();

    // Hand-build estimates that mark the taken edge hot and the
    // fallthrough cold.
    let sym = image.symbols()[0].clone();
    let cfg = dcpi_analyze::cfg::Cfg::build(&image, &sym).unwrap();
    let est = vec![dcpi_analyze::export::ExportedProc {
        image: 1,
        image_name: image.name().to_string(),
        name: sym.name.clone(),
        start_word: 0,
        len_words: (sym.size / 4) as u32,
        missing_edges: false,
        total_samples: 500,
        blocks: cfg
            .blocks
            .iter()
            .map(|b| dcpi_analyze::export::ExportedBlock {
                start_word: b.start_word,
                len: b.len,
                freq: 100.0,
            })
            .collect(),
        edges: cfg
            .edges
            .iter()
            .map(|e| dcpi_analyze::export::ExportedEdge {
                from: e.from.0,
                to: e.to.0,
                kind: e.kind,
                freq: if e.kind == EdgeKind::Taken { 99.0 } else { 1.0 },
            })
            .collect(),
        insns: Vec::new(),
    }];
    let r = optimize(&image, &est, &PgoOptions::default()).expect("rewrite");
    assert!(
        r.report.blocks_moved > 0 || r.report.branches_inverted > 0,
        "hot-taken layout should change something: {:?}",
        r.report
    );
    assert_equivalent(image, r.image, &r.map);
}

/// Multi-procedure image with indirect calls through `li`/`jsr` units:
/// packing moves the procedures, and the re-pointed address units must
/// keep every call landing on the right entry.
#[test]
fn procedure_packing_repoints_calls() {
    let code_base = PgoOptions::default().code_base;
    let mut a = Asm::new("/t/calls");
    a.proc("main");
    let helper_off = 7 * 4; // computed below; see assert
    a.lda(Reg::S0, 20, Reg::ZERO);
    let top = a.here();
    a.li(Reg::T12, (code_base + helper_off) as i64);
    a.jsr(Reg::RA, Reg::T12);
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.condbr(BrCond::Bne, Reg::S0, top);
    a.halt();
    a.proc("helper");
    assert_eq!(a.offset(), helper_off, "keep the literal in sync");
    a.addq_lit(Reg::V0, 1, Reg::V0);
    a.addq_lit(Reg::V0, 2, Reg::V0);
    a.addq_lit(Reg::V0, 3, Reg::V0);
    a.ret(Reg::RA);
    let image = a.finish();

    // Mark helper much hotter than main so packing reorders them.
    let mut est = {
        let mut rng = CartaRng::new(7);
        random_estimates(&image, &mut rng)
    };
    for e in &mut est {
        e.total_samples = if e.name == "helper" { 1000 } else { 1 };
    }
    let r = optimize(&image, &est, &PgoOptions::default()).expect("rewrite");
    assert!(r.report.packed, "helper should be packed first");
    assert_eq!(r.report.call_patches, 1);
    // helper's entry moved to the front of the image.
    let helper_new = r.image.symbol_named("helper").unwrap().offset;
    let main_new = r.image.symbol_named("main").unwrap().offset;
    assert!(helper_new < main_new);
    assert_equivalent(image, r.image, &r.map);
}

#[test]
fn unresolved_indirect_jump_is_skipped() {
    let mut a = Asm::new("/t/computed");
    a.proc("main");
    a.addq(Reg::T0, Reg::T1, Reg::T0); // target computed, not a li unit
    a.jsr(Reg::RA, Reg::T0);
    a.halt();
    let image = a.finish();
    let err = optimize(&image, &[], &PgoOptions::default()).unwrap_err();
    assert!(matches!(err, dcpi_pgo::Skip::UnresolvedIndirect { .. }));
}

#[test]
fn external_kernel_calls_are_left_alone() {
    let ext = PgoOptions::default().external_floor;
    let mut a = Asm::new("/t/kcall");
    a.proc("main");
    a.li(Reg::T12, (ext + 0x40) as i64);
    a.jsr(Reg::RA, Reg::T12);
    a.halt();
    let image = a.finish();
    let r = optimize(&image, &[], &PgoOptions::default()).expect("rewrite");
    assert_eq!(r.report.call_patches, 0);
    // The materialized external address is unchanged in the new text.
    let insns = r.image.decode_all().unwrap();
    let found = (0..insns.len()).any(|i| {
        dcpi_isa::rewrite::li_value_at(&insns, i, Reg::T12)
            .is_some_and(|(_, v)| v == (ext + 0x40) as i64)
    });
    assert!(found, "kernel call address must survive verbatim");
}
