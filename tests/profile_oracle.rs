//! Differential oracle for the sorted-run [`Profile`].
//!
//! Random `add`/`merge`/`get`/`range_total`/`iter`/encode→decode
//! sequences run against a `BTreeMap<u64, u64>` kept here, the
//! representation `Profile` had before it became one sorted run. Seeded,
//! so a failure reproduces from the case number in the message.

use dcpi::core::codec::{decode_profile, encode_profile, Format};
use dcpi::core::prng::CartaRng;
use dcpi::core::{Event, Profile};
use std::collections::BTreeMap;

type Oracle = BTreeMap<u64, u64>;

/// Offsets cluster on a small word-aligned universe (so adds and merges
/// collide often) with an occasional unaligned or far-away one.
fn offset(rng: &mut CartaRng) -> u64 {
    match rng.uniform(0, 9) {
        0 => rng.uniform(0, 1 << 20),
        1 => (1 << 40) + rng.uniform(0, 63),
        _ => rng.uniform(0, 255) * 4,
    }
}

fn random_run(rng: &mut CartaRng) -> (Profile, Oracle) {
    let (mut p, mut o) = (Profile::new(), Oracle::new());
    for _ in 0..rng.uniform(0, 80) {
        let (off, cnt) = (offset(rng), rng.uniform(1, 1000));
        p.add(off, cnt);
        *o.entry(off).or_insert(0) += cnt;
    }
    (p, o)
}

fn assert_same(p: &Profile, o: &Oracle, what: &str) {
    assert!(p.iter().eq(o.iter().map(|(&k, &v)| (k, v))), "{what}: iter");
    assert_eq!(p.len(), o.len(), "{what}: len");
    assert_eq!(p.is_empty(), o.is_empty(), "{what}: is_empty");
    assert_eq!(p.total(), o.values().sum::<u64>(), "{what}: total");
}

fn merged(runs: &[&Profile]) -> Profile {
    let mut out = Profile::new();
    for run in runs {
        out.merge(run);
    }
    out
}

#[test]
fn random_operations_match_the_btreemap_oracle() {
    let mut rng = CartaRng::new(0x50f7ed);
    for case in 0..300 {
        let (mut p, mut o) = (Profile::new(), Oracle::new());
        for step in 0..rng.uniform(1, 120) {
            let what = format!("case {case} step {step}");
            match rng.uniform(0, 9) {
                // In-order appends and bumps of the last entry: the O(1)
                // fast path of `add`.
                0 | 1 => {
                    let last = o.keys().next_back().copied().unwrap_or(0);
                    let off = last + rng.uniform(0, 2) * 4;
                    let cnt = rng.uniform(0, 5);
                    p.add(off, cnt);
                    if cnt > 0 {
                        *o.entry(off).or_insert(0) += cnt;
                    }
                }
                2..=4 => {
                    let (off, cnt) = (offset(&mut rng), rng.uniform(0, 1000));
                    p.add(off, cnt);
                    if cnt > 0 {
                        *o.entry(off).or_insert(0) += cnt;
                    }
                }
                5 => {
                    let (q, qo) = random_run(&mut rng);
                    p.merge(&q);
                    for (k, v) in qo {
                        *o.entry(k).or_insert(0) += v;
                    }
                }
                6 => {
                    let off = offset(&mut rng);
                    assert_eq!(p.get(off), o.get(&off).copied().unwrap_or(0), "{what}");
                    if let Some((&k, &v)) = o.iter().next() {
                        assert_eq!(p.get(k), v, "{what}: first key");
                    }
                }
                7 => {
                    let (a, b) = (offset(&mut rng), offset(&mut rng));
                    let (lo, hi) = (a.min(b), a.max(b));
                    let want: u64 = o.range(lo..hi).map(|(_, &c)| c).sum();
                    assert_eq!(p.range_total(lo, hi), want, "{what}: [{lo}, {hi})");
                    assert_eq!(p.range_total(0, u64::MAX), p.total(), "{what}");
                }
                _ => {
                    let fmt = if o.keys().all(|&k| k <= u64::from(u32::MAX))
                        && o.values().all(|&c| c <= u64::from(u32::MAX))
                        && rng.uniform(0, 1) == 0
                    {
                        Format::V1
                    } else {
                        Format::V2
                    };
                    let bytes = encode_profile(&p, Event::Cycles, fmt);
                    let (back, _) = decode_profile(&bytes).expect("own bytes decode");
                    assert_eq!(back, p, "{what}: {fmt:?} roundtrip");
                    p = back;
                }
            }
            assert_same(&p, &o, &what);
        }
    }
}

#[test]
fn merge_is_commutative_associative_and_encodes_identically() {
    let mut rng = CartaRng::new(0xacc01ade);
    for case in 0..200 {
        let (a, ao) = random_run(&mut rng);
        let (b, bo) = random_run(&mut rng);
        let (c, co) = random_run(&mut rng);
        let mut want = ao;
        for (k, v) in bo.into_iter().chain(co) {
            *want.entry(k).or_insert(0) += v;
        }
        let abc = merged(&[&a, &b, &c]);
        assert_same(&abc, &want, &format!("case {case}"));
        // (a + b) + c == a + (b + c).
        let a_bc = merged(&[&a, &merged(&[&b, &c])]);
        assert_eq!(a_bc, abc, "case {case}: associativity");
        // Every other order of the three runs gives the same run and bytes.
        let bytes = encode_profile(&abc, Event::IMiss, Format::V2);
        for order in [
            [&a, &c, &b],
            [&b, &a, &c],
            [&b, &c, &a],
            [&c, &a, &b],
            [&c, &b, &a],
        ] {
            let m = merged(&order);
            assert_eq!(m, abc, "case {case}: commutativity");
            assert_eq!(
                encode_profile(&m, Event::IMiss, Format::V2),
                bytes,
                "case {case}: bytes depend on merge order"
            );
        }
    }
}
