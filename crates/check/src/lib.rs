//! `dcpi-check`: static analysis and invariant verification for DCPI
//! images, CFGs, and analysis outputs.
//!
//! The analysis pipeline of §6 rests on a chain of derived artifacts —
//! decoded text, control-flow graphs, cycle-equivalence classes,
//! frequency estimates, culprits, and the Figure 4 summary. Each step
//! has invariants the next step silently assumes. This crate re-verifies
//! them from the outside, in three layers:
//!
//! 1. **Image / ISA lints** ([`image_lints`]) — decode/encode
//!    round-trips, symbol-table sanity, branch targets escaping their
//!    procedure, unreachable basic blocks, and a liveness pass flagging
//!    registers read before any definition.
//! 2. **CFG audits** ([`cfg_audit`]) — blocks must partition the text,
//!    edges must land on block heads and agree with their terminators,
//!    and the cycle-equivalence classes of §6.1.2 are re-derived by brute
//!    force (connectivity counting instead of the analyzer's bracket
//!    lists) and compared.
//! 3. **Estimate audits** ([`estimate_audit`]) — flow conservation at
//!    each block (§6.1.4), confidence-label invariants (§6.1.5), culprit
//!    completeness against the dynamic-stall threshold (§6.3), and an
//!    independent reconciliation of the Figure 4 books.
//! 4. **Observability audits** ([`obs_audit`]) — the profiler's own
//!    metrics/trace exports: monotonic cycle stamps, ring overwrite
//!    accounting, span pairing, histogram totals, sample-ledger
//!    conservation, and the overhead fraction against the paper's band.
//! 5. **PGO rewrite audits** ([`pgo_audit`]) — a rewritten image against
//!    its original and address map: the map is a bijection over live
//!    words, every mapped instruction is an allowed variant of its
//!    original, branch targets follow the map and land on live
//!    instructions, and unmapped words are inert padding or glue.
//! 6. **Dataflow analyses** ([`dataflow`]) — a generic worklist solver
//!    over the CFG with liveness, reaching-definitions, value-range, and
//!    stack-discipline passes, powering the `dead-store`, `uninit-read`,
//!    `const-branch`, and `stack-discipline` lints.
//! 7. **Translation validation** ([`tv`]) — a symbolic, per-segment
//!    equivalence proof that a PGO rewrite preserves the old image's
//!    observable behaviour, with no simulator in the loop.
//!
//! Diagnostics are typed ([`Diagnostic`]) and carry a severity: errors
//! are invariant violations, warnings are suspicious-but-possibly-benign
//! findings (dead padding blocks, registers read before definition on
//! some path). A healthy pipeline produces **zero errors** on every
//! built-in workload; the `dcpicheck` CLI exits nonzero otherwise.

pub mod cfg_audit;
pub mod dataflow;
pub mod diag;
pub mod estimate_audit;
pub mod image_lints;
pub mod obs_audit;
pub mod pgo_audit;
pub mod tv;

pub use diag::{Category, Diagnostic, Layer, Report, Severity};
pub use obs_audit::{check_obs_export, check_snapshot, ObsCheckConfig};
pub use pgo_audit::check_rewrite;
pub use tv::{validate, validate_with, TvOptions, TvResult};

use dcpi_analyze::analysis::ProcAnalysis;
use dcpi_analyze::cfg::Cfg;
use dcpi_analyze::culprit::CulpritConfig;
use dcpi_isa::image::{Image, Symbol};

/// Tuning for the checks.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Brute-force equivalence re-derivation is cubic in split-graph
    /// edges; procedures with more blocks than this skip it.
    pub max_bruteforce_blocks: usize,
    /// Flow sums below this frequency carry too few samples to compare.
    pub min_flow_freq: f64,
    /// Relative in/out-flow error above this warns.
    pub flow_warn_rel: f64,
    /// Relative in/out-flow error above this (between solidly-estimated
    /// quantities) is an error.
    pub flow_error_rel: f64,
    /// The culprit analyzer's dynamic-stall threshold (must match the
    /// [`CulpritConfig`] used for the analysis).
    pub dyn_stall_threshold: f64,
    /// Absolute tolerance when reconciling summary percentages.
    pub books_tolerance: f64,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            max_bruteforce_blocks: 64,
            min_flow_freq: 2.0,
            flow_warn_rel: 0.35,
            flow_error_rel: 0.9,
            dyn_stall_threshold: CulpritConfig::default().dyn_stall_threshold,
            books_tolerance: 1e-6,
        }
    }
}

/// Runs layers 1 and 2 over every procedure of an image.
#[must_use]
pub fn check_image(image: &Image, config: &CheckConfig) -> Report {
    let mut report = Report::new();
    image_lints::check_image_words(image, &mut report);
    for sym in image.symbols() {
        match Cfg::build(image, sym) {
            Ok(cfg) => {
                image_lints::check_procedure(image, sym, &cfg, &mut report);
                dataflow::check_procedure_dataflow(sym, &cfg, &mut report);
                cfg_audit::check_cfg(sym, &cfg, config, &mut report);
            }
            Err(e) => report.push(
                Severity::Error,
                Category::BlockStructure,
                &sym.name,
                Some(sym.offset),
                None,
                format!("CFG construction failed: {e}"),
            ),
        }
    }
    report
}

/// Runs layers 1 and 2 over a single procedure with an already-built CFG
/// (useful for auditing CFGs that were constructed with path samples).
#[must_use]
pub fn check_procedure(image: &Image, sym: &Symbol, cfg: &Cfg, config: &CheckConfig) -> Report {
    let mut report = Report::new();
    image_lints::check_procedure(image, sym, cfg, &mut report);
    dataflow::check_procedure_dataflow(sym, cfg, &mut report);
    cfg_audit::check_cfg(sym, cfg, config, &mut report);
    report
}

/// Runs the layer-3 audits over one procedure's analysis output (plus
/// the layer-2 audits on its embedded CFG, which the estimates depend
/// on).
#[must_use]
pub fn check_analysis(pa: &ProcAnalysis, config: &CheckConfig) -> Report {
    let mut report = Report::new();
    let sym = Symbol {
        name: pa.name.clone(),
        offset: pa.start_offset,
        size: (pa.cfg.insns.len() as u64) * 4,
    };
    cfg_audit::check_cfg(&sym, &pa.cfg, config, &mut report);
    estimate_audit::check_analysis(pa, config, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;

    #[test]
    fn check_image_covers_all_procedures() {
        let mut a = Asm::new("/app");
        a.proc("alpha");
        a.li(Reg::T0, 3);
        let top = a.here();
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.ret(Reg::RA);
        a.proc("beta");
        a.addq_lit(Reg::A0, 1, Reg::V0);
        a.ret(Reg::RA);
        let image = a.finish();
        let report = check_image(&image, &CheckConfig::default());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn default_threshold_matches_the_analyzer() {
        let c = CheckConfig::default();
        assert!(
            (c.dyn_stall_threshold - CulpritConfig::default().dyn_stall_threshold).abs() < 1e-12
        );
    }
}
