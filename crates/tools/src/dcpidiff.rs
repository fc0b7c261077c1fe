//! dcpidiff: highlight the differences between two profiles of the same
//! program (one of the auxiliary tools of §3), plus a `--pgo` mode that
//! compares a pre- and post-optimization profile pair by per-procedure
//! CPI and stall culprits.

use crate::registry::ImageRegistry;
use dcpi_analyze::analysis::{analyze_sampled, AnalysisOptions};
use dcpi_core::{Event, ProfileSet};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One row of dcpidiff output.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Procedure name.
    pub name: String,
    /// Samples in the first profile.
    pub before: u64,
    /// Samples in the second profile.
    pub after: u64,
    /// `after/total_after - before/total_before` in percentage points.
    pub delta_pp: f64,
}

/// Computes per-procedure share deltas between two profile sets.
#[must_use]
pub fn dcpidiff_rows(
    before: &ProfileSet,
    after: &ProfileSet,
    registry: &ImageRegistry,
    event: Event,
) -> Vec<DiffRow> {
    let collect = |set: &ProfileSet| -> HashMap<String, u64> {
        let mut m = HashMap::new();
        for (key, profile) in set.iter() {
            if key.event != event {
                continue;
            }
            for (off, count) in profile.iter() {
                *m.entry(registry.proc_name(key.image, off)).or_insert(0) += count;
            }
        }
        m
    };
    let b = collect(before);
    let a = collect(after);
    let tb: u64 = b.values().sum();
    let ta: u64 = a.values().sum();
    let mut names: Vec<String> = b.keys().chain(a.keys()).cloned().collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<DiffRow> = names
        .into_iter()
        .map(|name| {
            let x = b.get(&name).copied().unwrap_or(0);
            let y = a.get(&name).copied().unwrap_or(0);
            let pb = if tb > 0 {
                x as f64 / tb as f64 * 100.0
            } else {
                0.0
            };
            let pa = if ta > 0 {
                y as f64 / ta as f64 * 100.0
            } else {
                0.0
            };
            DiffRow {
                name,
                before: x,
                after: y,
                delta_pp: pa - pb,
            }
        })
        .collect();
    rows.sort_by(|p, q| {
        q.delta_pp
            .abs()
            .partial_cmp(&p.delta_pp.abs())
            .expect("finite")
            .then(p.name.cmp(&q.name))
    });
    rows
}

/// Renders the diff report.
#[must_use]
pub fn dcpidiff(
    before: &ProfileSet,
    after: &ProfileSet,
    registry: &ImageRegistry,
    event: Event,
    limit: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Differences in {event} sample shares (positive = grew in the second profile)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>9}  procedure",
        "before", "after", "Δshare"
    );
    for r in dcpidiff_rows(before, after, registry, event)
        .iter()
        .take(limit)
    {
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>+8.2}pp  {}",
            r.before, r.after, r.delta_pp, r.name
        );
    }
    out
}

/// Per-procedure analysis results for one side of a PGO comparison.
#[derive(Clone, Debug)]
pub struct PgoSide {
    /// Procedure name → (aggregate CPI, dominant culprit letters,
    /// CYCLES samples). CPI is samples per estimated execution over the
    /// instructions whose frequency could be estimated.
    pub procs: HashMap<String, (f64, String, u64)>,
}

/// Analyzes every sufficiently-sampled procedure on one side. Image
/// names ending in `.pgo` are treated the same as their originals, so
/// the two sides pair up by procedure name; a name that several images
/// define keeps its first usable analysis in image-id order, so it
/// resolves like [`find_procedure`] on every run.
///
/// [`find_procedure`]: crate::dbload::find_procedure
#[must_use]
pub fn pgo_side(set: &ProfileSet, registry: &ImageRegistry, min_samples: u64) -> PgoSide {
    let aopts = AnalysisOptions::default();
    let mut procs = HashMap::new();
    for (id, image) in registry.iter() {
        for (sym, samples, pa) in analyze_sampled(image, set, id, min_samples, &aopts) {
            let Ok(pa) = pa else { continue };
            let mut s_sum = 0.0;
            let mut f_sum = 0.0;
            let mut weights: HashMap<char, u64> = HashMap::new();
            for ia in &pa.insns {
                if ia.freq > 0.0 {
                    s_sum += ia.samples as f64;
                    f_sum += ia.freq;
                }
                for c in &ia.culprits {
                    *weights.entry(c.cause.letter()).or_insert(0) += ia.samples;
                }
            }
            if f_sum <= 0.0 {
                continue;
            }
            let mut letters: Vec<(char, u64)> = weights.into_iter().collect();
            letters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let culprits: String = letters.iter().take(3).map(|&(c, _)| c).collect();
            procs
                .entry(sym.name.clone())
                .or_insert((s_sum / f_sum, culprits, samples));
        }
    }
    PgoSide { procs }
}

/// Renders the `--pgo` comparison: per-procedure CPI and culprit deltas
/// between a pre-optimization profile and a profile of the rewritten
/// program, hottest movers first.
#[must_use]
pub fn dcpidiff_pgo(
    before: (&ProfileSet, &ImageRegistry),
    after: (&ProfileSet, &ImageRegistry),
    min_samples: u64,
    limit: usize,
) -> String {
    let b = pgo_side(before.0, before.1, min_samples);
    let a = pgo_side(after.0, after.1, min_samples);
    let mut names: Vec<&String> = b.procs.keys().chain(a.procs.keys()).collect();
    names.sort_unstable();
    names.dedup();
    struct Row<'n> {
        name: &'n str,
        cb: Option<f64>,
        ca: Option<f64>,
        kb: String,
        ka: String,
    }
    let mut rows: Vec<Row<'_>> = names
        .into_iter()
        .map(|name| {
            let x = b.procs.get(name);
            let y = a.procs.get(name);
            Row {
                name,
                cb: x.map(|v| v.0),
                ca: y.map(|v| v.0),
                kb: x.map(|v| v.1.clone()).unwrap_or_default(),
                ka: y.map(|v| v.1.clone()).unwrap_or_default(),
            }
        })
        .collect();
    let delta = |r: &Row<'_>| match (r.cb, r.ca) {
        (Some(x), Some(y)) => (y - x).abs(),
        _ => f64::INFINITY, // procedures that appear on one side lead
    };
    rows.sort_by(|p, q| {
        delta(q)
            .total_cmp(&delta(p))
            .then_with(|| p.name.cmp(q.name))
    });
    let fmt_cpi = |c: Option<f64>| c.map_or_else(|| "      -".into(), |v| format!("{v:7.2}"));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "PGO comparison: per-procedure CPI and culprits (before -> after)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>7} {:>7} {:>7}  {:<10} procedure",
        "cpi", "cpi'", "Δcpi", "culprits"
    );
    for r in rows.iter().take(limit) {
        let d = match (r.cb, r.ca) {
            (Some(x), Some(y)) => format!("{:+7.2}", y - x),
            _ => "      -".into(),
        };
        let k = format!(
            "{}->{}",
            if r.kb.is_empty() { "-" } else { &r.kb },
            if r.ka.is_empty() { "-" } else { &r.ka }
        );
        let _ = writeln!(
            out,
            "{} {} {}  {:<10} {}",
            fmt_cpi(r.cb),
            fmt_cpi(r.ca),
            d,
            k,
            r.name
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::ImageId;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;
    use std::sync::Arc;

    fn registry() -> ImageRegistry {
        let mut a = Asm::new("/bin/app");
        a.proc("hot");
        for _ in 0..2 {
            a.addq_lit(Reg::T0, 1, Reg::T0);
        }
        a.proc("cold");
        for _ in 0..2 {
            a.addq_lit(Reg::T0, 1, Reg::T0);
        }
        let mut r = ImageRegistry::new();
        r.insert(ImageId(1), Arc::new(a.finish()));
        r
    }

    #[test]
    fn detects_share_shift() {
        let mut before = ProfileSet::new();
        before.add(ImageId(1), Event::Cycles, 0, 900);
        before.add(ImageId(1), Event::Cycles, 8, 100);
        let mut after = ProfileSet::new();
        after.add(ImageId(1), Event::Cycles, 0, 500);
        after.add(ImageId(1), Event::Cycles, 8, 500);
        let rows = dcpidiff_rows(&before, &after, &registry(), Event::Cycles);
        assert_eq!(rows.len(), 2);
        let hot = rows.iter().find(|r| r.name == "hot").unwrap();
        let cold = rows.iter().find(|r| r.name == "cold").unwrap();
        assert!((hot.delta_pp - -40.0).abs() < 1e-9);
        assert!((cold.delta_pp - 40.0).abs() < 1e-9);
    }

    #[test]
    fn procedures_missing_from_one_side() {
        let mut before = ProfileSet::new();
        before.add(ImageId(1), Event::Cycles, 0, 100);
        let after = ProfileSet::new();
        let rows = dcpidiff_rows(&before, &after, &registry(), Event::Cycles);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].after, 0);
        assert!((rows[0].delta_pp - -100.0).abs() < 1e-9);
    }

    #[test]
    fn pgo_mode_pairs_procedures_by_name() {
        let build = |name: &str| {
            let mut a = Asm::new(name);
            a.proc("loop");
            a.li(Reg::T0, 8);
            let top = a.here();
            a.subq_lit(Reg::T0, 1, Reg::T0);
            a.bne(Reg::T0, top);
            a.ret(Reg::RA);
            a.finish()
        };
        let mut reg_b = ImageRegistry::new();
        reg_b.insert(ImageId(1), Arc::new(build("/bin/app")));
        let mut reg_a = ImageRegistry::new();
        reg_a.insert(ImageId(2), Arc::new(build("/bin/app.pgo")));
        let mut before = ProfileSet::new();
        let mut after = ProfileSet::new();
        // Before: a heavy stall on the subq concentrates samples there
        // (high CPI). After: the stall is gone and samples flatten to
        // the issue rate, so the aggregate CPI drops.
        before.add(ImageId(1), Event::Cycles, 4, 1800);
        before.add(ImageId(1), Event::Cycles, 8, 200);
        after.add(ImageId(2), Event::Cycles, 4, 600);
        after.add(ImageId(2), Event::Cycles, 8, 600);
        let b = pgo_side(&before, &reg_b, 10);
        let a = pgo_side(&after, &reg_a, 10);
        assert!(b.procs.contains_key("loop") && a.procs.contains_key("loop"));
        assert!(b.procs["loop"].0 > a.procs["loop"].0, "CPI must drop");
        let text = dcpidiff_pgo((&before, &reg_b), (&after, &reg_a), 10, 20);
        assert!(text.contains("loop"), "{text}");
        assert!(text.contains("Δcpi"), "{text}");
    }

    #[test]
    fn rendered_output() {
        let mut before = ProfileSet::new();
        before.add(ImageId(1), Event::Cycles, 0, 100);
        let mut after = ProfileSet::new();
        after.add(ImageId(1), Event::Cycles, 8, 100);
        let text = dcpidiff(&before, &after, &registry(), Event::Cycles, 10);
        assert!(text.contains("hot"));
        assert!(text.contains("cold"));
        assert!(text.contains("Δshare"));
    }
}
