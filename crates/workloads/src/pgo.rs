//! The end-to-end PGO harness: profile → optimize → re-profile.
//!
//! The paper's §1 framing is that profiles are a means to an end: "the
//! ultimate goal is to use the profiles to improve performance". This
//! module closes that loop on the Table 2 workloads. It runs a workload
//! under the shipped default configuration (CYCLES + IMISS), analyzes the
//! hottest user image, exports per-instruction estimates over the
//! `dcpi-analyze` → `dcpi-pgo` contract, rewrites the image, and then
//! measures both the original and rewritten images *unprofiled*,
//! verifying two things at once:
//!
//! * **equivalence** — every old instruction retires exactly as often in
//!   the rewritten image (through the old→new address map), so the
//!   optimizer changed layout and scheduling, never behavior;
//! * **speedup** — the rewritten image completes in fewer simulated
//!   cycles, which is end-to-end evidence that the analyzer's frequency
//!   and culprit estimates describe the machine accurately.
//!
//! The rewrite is additionally *statically validated*: `optimize` runs
//! `dcpi-check`'s translation validator, which proves equivalence
//! symbolically before the re-measurement runs (its report carries the
//! segment tallies), so the dynamic count comparison cross-checks a
//! proof rather than standing alone.

use crate::driver::{run_with, run_workload, ProfConfig, RunOptions, Workload};
use dcpi_analyze::analysis::{analyze_sampled, AnalysisOptions, ProcAnalysis};
use dcpi_analyze::export;
use dcpi_core::{Event, ImageId};
use dcpi_isa::image::Image;
use dcpi_machine::os::{KERNEL_BASE, MAIN_BASE};
use dcpi_machine::GroundTruth;
use dcpi_pgo::{optimize, AddressMap, PgoOptions, PgoReport};

/// Why the harness could not produce an optimized run.
#[derive(Debug)]
pub enum PgoError {
    /// No user image accumulated CYCLES samples.
    NoProfile,
    /// No procedure of the hottest image cleared the sample threshold.
    NoEstimates,
    /// The estimate export did not parse back (contract violation).
    Export(String),
    /// The rewriter declined the image as unsafe to transform.
    Skip(dcpi_pgo::Skip),
    /// A measurement run hit the cycle limit before every process
    /// exited, so end-to-end cycles are not comparable.
    Unfinished(&'static str),
    /// The measurement machine did not register the expected image.
    MissingImage(String),
}

impl std::fmt::Display for PgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PgoError::NoProfile => write!(f, "no user image has cycles samples"),
            PgoError::NoEstimates => write!(f, "no procedure cleared the sample threshold"),
            PgoError::Export(e) => write!(f, "estimate export roundtrip failed: {e}"),
            PgoError::Skip(s) => write!(f, "rewriter skipped the image: {s}"),
            PgoError::Unfinished(which) => {
                write!(f, "{which} run hit the cycle limit before finishing")
            }
            PgoError::MissingImage(name) => write!(f, "measurement run lost image {name}"),
        }
    }
}

impl std::error::Error for PgoError {}

/// Everything the profile → optimize → re-profile loop produced.
#[derive(Debug)]
pub struct PgoOutcome {
    /// The workload.
    pub workload: Workload,
    /// Name of the image that was optimized.
    pub image_name: String,
    /// The serialized estimate export fed to the rewriter.
    pub estimates: String,
    /// Procedures that were analyzed and exported.
    pub procs_analyzed: usize,
    /// The original image.
    pub old_image: Image,
    /// The rewritten image (named `<old>.pgo`).
    pub new_image: Image,
    /// Total old→new address map.
    pub map: AddressMap,
    /// Transform counters.
    pub report: PgoReport,
    /// Unprofiled end-to-end cycles with the original image.
    pub base_cycles: u64,
    /// Unprofiled end-to-end cycles with the rewritten image.
    pub opt_cycles: u64,
    /// True when every old instruction's retirement count is preserved
    /// through the address map.
    pub equivalent: bool,
}

impl PgoOutcome {
    /// Cycle reduction as a percentage of the base run (negative for a
    /// slowdown).
    #[must_use]
    pub fn speedup_pct(&self) -> f64 {
        if self.base_cycles == 0 {
            return 0.0;
        }
        let base = self.base_cycles as f64;
        100.0 * (base - self.opt_cycles as f64) / base
    }
}

struct Measured {
    cycles: u64,
    gt: GroundTruth,
    id: ImageId,
}

/// Runs the workload unprofiled (the `base` configuration) with `image`
/// in place of its own, returning end-to-end cycles, exact execution
/// counts, and the id `image` was registered under.
fn measure(
    w: Workload,
    opts: &RunOptions,
    image: &Image,
    which: &'static str,
) -> Result<Measured, PgoError> {
    let (r, exited) = run_with(w, ProfConfig::Base, opts, Some(image));
    if !exited {
        return Err(PgoError::Unfinished(which));
    }
    let id = r
        .images
        .iter()
        .find(|(_, img)| img.name() == image.name())
        .map(|&(id, _)| id)
        .ok_or_else(|| PgoError::MissingImage(image.name().to_string()))?;
    Ok(Measured {
        cycles: r.cycles,
        gt: r.gt,
        id,
    })
}

/// True when every old instruction retires exactly as often at its
/// remapped address.
fn counts_preserved(old_words: usize, base: &Measured, opt: &Measured, map: &AddressMap) -> bool {
    base.gt
        .counts_match_through(base.id, old_words, &opt.gt, opt.id, |off| {
            map.remap_byte(off)
        })
        .is_ok()
}

/// Profiles `w`, optimizes its hottest user image from the exported
/// estimates, and re-measures. Procedures need `min_samples` CYCLES
/// samples to be analyzed (the same gate the benchmark harness uses).
///
/// # Errors
///
/// See [`PgoError`]; a *slower or non-equivalent* rewrite is **not** an
/// error — it is reported in the outcome for the caller to judge.
pub fn pgo_workload(
    w: Workload,
    opts: &RunOptions,
    min_samples: u64,
) -> Result<PgoOutcome, PgoError> {
    let r = run_workload(w, ProfConfig::Default, opts);

    // Hottest non-kernel image.
    let mut best: Option<(ImageId, u64)> = None;
    for (id, _) in &r.images {
        if *id == r.kernel_image {
            continue;
        }
        let total = r.profiles.get(*id, Event::Cycles).map_or(0, |p| p.total());
        if total > 0 && best.is_none_or(|(_, t)| total > t) {
            best = Some((*id, total));
        }
    }
    let Some((id, _)) = best else {
        return Err(PgoError::NoProfile);
    };
    let image = r
        .images
        .iter()
        .find(|(i, _)| *i == id)
        .map(|(_, img)| img.as_ref())
        .expect("image of chosen id");

    // Analyze every procedure above the sample gate.
    let aopts = AnalysisOptions::default();
    let analyses: Vec<ProcAnalysis> = analyze_sampled(image, &r.profiles, id, min_samples, &aopts)
        .filter_map(|(_, _, pa)| pa.ok())
        .collect();
    if analyses.is_empty() {
        return Err(PgoError::NoEstimates);
    }
    let items: Vec<(ImageId, &str, &ProcAnalysis)> =
        analyses.iter().map(|pa| (id, image.name(), pa)).collect();
    let estimates = export::export(&items);
    // The serialized form is the contract: optimize from the parse, not
    // the in-memory analyses, so the roundtrip is exercised end to end.
    let parsed = export::parse(&estimates).map_err(PgoError::Export)?;

    let popts = PgoOptions {
        code_base: MAIN_BASE.0,
        external_floor: KERNEL_BASE.0,
        validate: true,
    };
    let rw = optimize(image, &parsed, &popts).map_err(PgoError::Skip)?;

    let base = measure(w, opts, image, "base")?;
    let opt = measure(w, opts, &rw.image, "optimized")?;
    let equivalent = counts_preserved(image.words().len(), &base, &opt, &rw.map);

    Ok(PgoOutcome {
        workload: w,
        image_name: image.name().to_string(),
        estimates,
        procs_analyzed: analyses.len(),
        old_image: image.clone(),
        new_image: rw.image,
        map: rw.map,
        report: rw.report,
        base_cycles: base.cycles,
        opt_cycles: opt.cycles,
        equivalent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> RunOptions {
        RunOptions {
            scale: 1,
            period: (2_000, 2_200),
            limit: 400_000_000,
            ..RunOptions::default()
        }
    }

    #[test]
    fn gcc_pgo_is_equivalent_and_faster() {
        let out = pgo_workload(Workload::Gcc, &quick_opts(), 25).expect("pgo harness");
        assert!(out.equivalent, "rewrite must preserve architecture");
        assert!(out.report.validated, "validator must prove the rewrite");
        assert_eq!(out.report.tv_proved, out.report.tv_segments);
        assert!(out.report.tv_segments > 0);
        assert!(
            out.speedup_pct() > 0.0,
            "expected a speedup, got {:.2}% ({} -> {} cycles)\n{}",
            out.speedup_pct(),
            out.base_cycles,
            out.opt_cycles,
            out.report.render()
        );
        assert!(!out.report.is_noop(), "estimates must drive transforms");
        assert!(out.procs_analyzed > 0);
        assert!(out.new_image.name().ends_with(dcpi_pgo::PGO_SUFFIX));
    }

    #[test]
    fn x11_pgo_is_equivalent_and_faster() {
        let out = pgo_workload(Workload::X11Perf, &quick_opts(), 25).expect("pgo harness");
        assert!(out.equivalent, "rewrite must preserve architecture");
        assert!(
            out.speedup_pct() > 0.0,
            "expected a speedup, got {:.2}% ({} -> {})",
            out.speedup_pct(),
            out.base_cycles,
            out.opt_cycles
        );
    }

    #[test]
    fn estimates_export_is_parseable_and_nonempty() {
        let out = pgo_workload(
            Workload::McCalpin(crate::programs::StreamKind::Copy),
            &quick_opts(),
            25,
        )
        .expect("pgo harness");
        let parsed = dcpi_analyze::export::parse(&out.estimates).expect("roundtrip");
        assert_eq!(parsed.len(), out.procs_analyzed);
        assert!(out.map.check_bijective().is_ok());
    }
}
