//! Cross-crate randomized tests on the system's key invariants.
//!
//! These were property tests; without a property-testing dependency they
//! run as deterministic seeded sweeps, so every failure reproduces exactly
//! from the seed printed in the assertion message.

use dcpi::collect::driver::{CostModel, CpuDriver, DriverConfig, EvictPolicy, HashKind};
use dcpi::core::codec::{decode_profile, encode_profile, Format};
use dcpi::core::db::ProfileDb;
use dcpi::core::prng::CartaRng;
use dcpi::core::{Addr, Event, ImageId, Pid, Profile, ProfileSet, Sample};
use dcpi::isa::asm::Asm;
use dcpi::isa::pipeline::PipelineModel;
use dcpi::isa::reg::Reg;
use dcpi_testkit::TempRoot;
use std::collections::BTreeMap;

/// Draws a u64 with 62 bits of entropy from two generator steps.
fn wide(rng: &mut CartaRng) -> u64 {
    (u64::from(rng.next_u31()) << 31) | u64::from(rng.next_u31())
}

/// Any profile survives both codec formats exactly.
#[test]
fn codec_roundtrip_arbitrary_profiles() {
    let mut rng = CartaRng::new(0xc0dec);
    for case in 0..200 {
        let len = rng.uniform(0, 199) as usize;
        let mut entries: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..len {
            let off = wide(&mut rng) % (1 << 33);
            let cnt = 1 + wide(&mut rng) % ((1 << 32) - 1);
            entries.insert(off, cnt);
        }
        let profile: Profile = entries.iter().map(|(&o, &c)| (o, c)).collect();
        for fmt in [Format::V1, Format::V2] {
            // V1 stores 32-bit offsets; skip when out of range.
            if fmt == Format::V1 && entries.keys().any(|&o| o > u64::from(u32::MAX)) {
                continue;
            }
            let bytes = encode_profile(&profile, Event::Cycles, fmt);
            let (back, ev) = decode_profile(&bytes).unwrap();
            assert_eq!(back, profile, "case {case} format {fmt:?}");
            assert_eq!(ev, Event::Cycles);
        }
    }
}

/// Driver conservation: across arbitrary sample streams interleaved with
/// flushes and drains, every sample is either counted out or explicitly
/// dropped.
#[test]
fn driver_conserves_samples() {
    let mut rng = CartaRng::new(0xd21fe2);
    for case in 0..200 {
        let policy = if rng.uniform(0, 1) == 0 {
            EvictPolicy::SwapToFront
        } else {
            EvictPolicy::ModCounter
        };
        let mut d = CpuDriver::new(
            DriverConfig {
                buckets: 8,
                associativity: 4,
                overflow_entries: 32,
                policy,
                hash: HashKind::Multiplicative,
            },
            CostModel::default(),
        );
        let mut recorded = 0u64;
        let mut drained = 0u64;
        let n_ops = rng.uniform(1, 799);
        for _ in 0..n_ops {
            let op = rng.uniform(0, 9);
            if op == 0 {
                drained += d.flush().iter().map(|e| e.count).sum::<u64>();
            } else if op == 1 {
                drained += d.drain_overflow().iter().map(|e| e.count).sum::<u64>();
            } else {
                let _ = d.record(Sample {
                    pid: Pid(rng.uniform(0, 5) as u32),
                    pc: Addr(rng.uniform(0, 63) * 4),
                    event: Event::Cycles,
                });
                recorded += 1;
            }
        }
        drained += d.flush().iter().map(|e| e.count).sum::<u64>();
        assert_eq!(drained + d.stats.dropped, recorded, "case {case}");
    }
}

/// The static scheduler is total and self-consistent on random
/// straight-line code: M sums to the block's span, every junior has
/// M = 0, and static stalls account exactly for M − M_ideal.
#[test]
fn scheduler_invariants() {
    let mut rng = CartaRng::new(0x5ced);
    for case in 0..300 {
        let base_word = rng.uniform(0, 3);
        let mut a = Asm::new("/prop");
        a.proc("p");
        for _ in 0..rng.uniform(1, 39) {
            let kind = rng.uniform(0, 4);
            let r1 = Reg::int(rng.uniform(0, 7) as u8);
            let r2 = Reg::int(rng.uniform(0, 7) as u8);
            let lit = rng.uniform(1, 29) as u8;
            match kind {
                0 => a.addq_lit(r1, lit, r2),
                1 => a.ldq(r1, i16::from(lit) * 8, r2),
                2 => a.stq(r1, i16::from(lit) * 8, r2),
                3 => a.mulq(r1, r2, Reg::T7),
                _ => a.mult(Reg::fp(lit % 30), Reg::fp(2), Reg::fp(3)),
            }
        }
        let image = a.finish();
        let insns = image.decode_all().unwrap();
        let model = PipelineModel::default();
        let sched = model.schedule_block(base_word, &insns);
        assert_eq!(sched.entries.len(), insns.len());
        let sum_m: u64 = sched.entries.iter().map(|e| e.m).sum();
        let last_issue = sched.entries.last().unwrap().issue_cycle;
        assert_eq!(sum_m, last_issue + 1, "case {case}: ΣM spans issue time");
        for (i, e) in sched.entries.iter().enumerate() {
            if e.dual_with_prev {
                assert_eq!(e.m, 0);
                assert!(i > 0);
                assert_eq!(sched.entries[i - 1].issue_cycle, e.issue_cycle);
            }
            let stall_sum: u64 = e.stalls.iter().map(|s| s.cycles).sum();
            assert_eq!(
                stall_sum,
                e.m.saturating_sub(e.m_ideal),
                "case {case}: stalls must account for M - M_ideal at insn {i}"
            );
            for s in &e.stalls {
                if let Some(c) = s.culprit {
                    assert!(c < i, "culprit precedes the stalled insn");
                }
            }
        }
        // Determinism.
        let again = model.schedule_block(base_word, &insns);
        let ms: Vec<u64> = sched.entries.iter().map(|e| e.m).collect();
        let ms2: Vec<u64> = again.entries.iter().map(|e| e.m).collect();
        assert_eq!(ms, ms2);
    }
}

/// Random programs execute deterministically under the same seed, and
/// profiled executions retire exactly the same instructions as
/// unprofiled ones.
#[test]
fn machine_profiling_is_transparent() {
    use dcpi::machine::counters::CounterConfig;
    use dcpi::machine::machine::{Machine, NullSink};
    use dcpi::machine::MachineConfig;

    for (seed, n) in [
        (1u32, 1u32),
        (17, 3),
        (42, 7),
        (99, 12),
        (123, 20),
        (250, 33),
        (333, 45),
        (499, 59),
    ] {
        let build = || {
            let mut a = Asm::new("/prop");
            a.proc("main");
            a.li(Reg::T0, i64::from(n) * 50);
            let top = a.here();
            a.ldq(Reg::T4, 0, Reg::T1);
            a.addq(Reg::T4, Reg::T0, Reg::T5);
            a.stq(Reg::T5, 8, Reg::T1);
            a.lda(Reg::T1, 16, Reg::T1);
            a.subq_lit(Reg::T0, 1, Reg::T0);
            a.bne(Reg::T0, top);
            a.halt();
            a.finish()
        };
        let run = |counters: CounterConfig| {
            let mut cfg = MachineConfig::with_counters(counters);
            cfg.seed = seed;
            let mut m = Machine::new(cfg, NullSink);
            let img = m.register_image(build());
            m.spawn(0, img, &[], |p| p.set_reg(Reg::T1, 0x1000_0000));
            m.run_to_completion(100_000, 200_000_000);
            let mut per_insn = Vec::new();
            if let Some(li) = m.os.image(img) {
                for w in 0..li.image.words().len() as u64 {
                    per_insn.push(m.gt.insn_count(img, w * 4));
                }
            }
            (m.last_exit, per_insn)
        };
        let (t1, c1) = run(CounterConfig::off());
        let (t1b, c1b) = run(CounterConfig::off());
        assert_eq!(t1, t1b, "seed {seed}: deterministic timing");
        assert_eq!(c1, c1b);
        // Profiling (with a zero-cost sink) must not change retirement.
        let (_, c2) = run(CounterConfig::cycles_only((500, 600)));
        assert_eq!(c1, c2, "seed {seed}: profiling transparency");
    }
}

/// Every reader sees the same database: over random multi-epoch
/// databases the totals `scan` streams sum to `read_all()`'s, and
/// `read_all()` is the pointwise sum of `read_epoch` over `epochs()`.
#[test]
fn readers_agree_on_random_multi_epoch_databases() {
    let mut rng = CartaRng::new(0x5ca9);
    let root = TempRoot::new("prop-readers");
    for case in 0..24 {
        let base = root.subdir("db");
        let mut db = ProfileDb::create(&base, Format::V2).unwrap();
        // offset → count per key, summed over every merge of every epoch.
        let mut want: BTreeMap<(u32, Event, u64), u64> = BTreeMap::new();
        for epoch in 0..rng.uniform(1, 5) {
            if epoch > 0 {
                db.new_epoch().unwrap();
            }
            for _ in 0..rng.uniform(0, 3) {
                let mut set = ProfileSet::new();
                for _ in 0..rng.uniform(0, 40) {
                    let image = rng.uniform(1, 4) as u32;
                    let event = Event::ALL[rng.uniform(0, 2) as usize];
                    let (offset, count) = (rng.uniform(0, 31) * 4, rng.uniform(1, 1000));
                    set.add(ImageId(image), event, offset, count);
                    *want.entry((image, event, offset)).or_default() += count;
                }
                db.merge(&set).unwrap();
            }
        }
        let all = db.read_all().unwrap();
        let flat = |set: &ProfileSet| -> BTreeMap<(u32, Event, u64), u64> {
            let mut out = BTreeMap::new();
            for (key, p) in set.iter() {
                for (offset, count) in p.iter() {
                    out.insert((key.image.0, key.event, offset), count);
                }
            }
            out
        };
        assert_eq!(flat(&all), want, "case {case}: read_all");
        let mut summed = ProfileSet::new();
        for epoch in db.epochs().unwrap() {
            summed.merge(&db.read_epoch(epoch).unwrap());
        }
        assert_eq!(flat(&summed), want, "case {case}: Σ read_epoch");
        let mut scanned = 0u64;
        let mut files = 0usize;
        db.scan(
            db.epochs().unwrap(),
            |_| true,
            |_, _, p| {
                scanned += p.total();
                files += 1;
            },
        )
        .unwrap();
        assert_eq!(scanned, all.total_samples(), "case {case}: Σ scan");
        assert_eq!(scanned, want.values().sum::<u64>(), "case {case}");
        let on_disk: usize = db
            .epochs()
            .unwrap()
            .into_iter()
            .map(|e| std::fs::read_dir(db.epoch_path(e)).unwrap().count())
            .sum();
        assert_eq!(files, on_disk, "case {case}: one visit per file");
    }
}
