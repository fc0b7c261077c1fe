//! `dcpi-check`: static analysis and invariant verification for DCPI
//! images, CFGs, analysis outputs, and the stores built on them.
//!
//! The analysis pipeline of §6 rests on a chain of derived artifacts —
//! decoded text, control-flow graphs, cycle-equivalence classes,
//! frequency estimates, culprits, and the Figure 4 summary. Each step
//! has invariants the next step silently assumes. This crate re-verifies
//! them from the outside. Every finding belongs to one of eight
//! [`Layer`]s:
//!
//! 1. **image** ([`image_lints`], [`dataflow`]) — decode/encode
//!    round-trips, symbol-table sanity, branch targets escaping their
//!    procedure, unreachable basic blocks, registers read before any
//!    definition, and a worklist dataflow solver's `dead-store`,
//!    `uninit-read`, `const-branch` and `stack-discipline` lints.
//! 2. **cfg** ([`cfg_audit`]) — blocks must partition the text, edges
//!    must land on block heads and agree with their terminators, and the
//!    cycle-equivalence classes of §6.1.2 are re-derived by brute force
//!    (connectivity counting instead of the analyzer's bracket lists) and
//!    compared.
//! 3. **estimate** ([`estimate_audit`]) — flow conservation at each block
//!    (§6.1.4), confidence-label invariants (§6.1.5), culprit
//!    completeness against the dynamic-stall threshold (§6.3), and an
//!    independent reconciliation of the Figure 4 books.
//! 4. **db** — the on-disk profile database: checksums, epoch structure,
//!    stale temporaries, quarantined files, image-name records (audited
//!    by `dcpi-tools`' `dcpicheck db`).
//! 5. **obs** ([`obs_audit`]) — the profiler's own metrics/trace exports:
//!    monotonic cycle stamps, ring overwrite accounting, span pairing,
//!    sample-ledger conservation, pipeline span chains, and the overhead
//!    fraction against the paper's band.
//! 6. **tv** ([`tv`]) — a symbolic, per-segment equivalence proof that a
//!    PGO rewrite preserves the old image's observable behaviour, with no
//!    simulator in the loop. It is the one static check of a rewrite.
//! 7. **fleet** — a fleet server root: WAL structure, per-agent sequence
//!    contiguity, merge intents, database agreement and sample
//!    conservation (audited by `dcpi-server`'s `check_fleet`).
//! 8. **stacks** — calling-context sidecars: decoding, interning-table
//!    bijectivity, call-tree conservation and the flamegraph export
//!    (audited by `dcpi-tools`' `dcpicheck stacks`).
//!
//! Diagnostics are typed ([`Diagnostic`]). [`Category`]'s table gives
//! each finding its layer, stable name and severity: errors are
//! invariant violations, warnings are suspicious-but-possibly-benign
//! findings (dead padding blocks, registers read before definition on
//! some path). A healthy pipeline produces **zero errors** on every
//! built-in workload; the `dcpicheck` CLI exits nonzero otherwise.

pub mod cfg_audit;
pub mod dataflow;
pub mod diag;
pub mod estimate_audit;
pub mod image_lints;
pub mod obs_audit;
pub mod tv;

pub use diag::{Category, Diagnostic, Layer, Loc, Report, Severity};
pub use obs_audit::{check_obs_export, check_snapshot, AUDIT_BAND};
pub use tv::{validate, validate_with, TvOptions, TvResult};

use dcpi_analyze::analysis::ProcAnalysis;
use dcpi_analyze::cfg::Cfg;
use dcpi_isa::image::{Image, Symbol};

/// Runs layers 1 and 2 over every procedure of an image.
#[must_use]
pub fn check_image(image: &Image) -> Report {
    let mut report = Report::new();
    image_lints::check_image_words(image, &mut report);
    for_each_cfg(image, &mut report, |sym, cfg, report| {
        report.merge(check_procedure(image, sym, cfg));
    });
    report
}

/// Builds each procedure's CFG and hands it to `audit`; a procedure
/// whose CFG cannot be built is a `block-structure` error instead.
pub fn for_each_cfg(
    image: &Image,
    report: &mut Report,
    mut audit: impl FnMut(&Symbol, &Cfg, &mut Report),
) {
    for sym in image.symbols() {
        match Cfg::build(image, sym) {
            Ok(cfg) => audit(sym, &cfg, report),
            Err(e) => report.flag(
                Category::BlockStructure,
                Loc::at(&sym.name).pc(sym.offset),
                format!("CFG construction failed: {e}"),
            ),
        }
    }
}

/// Runs layers 1 and 2 over a single procedure with an already-built CFG
/// (useful for auditing CFGs that were constructed with path samples).
#[must_use]
pub fn check_procedure(image: &Image, sym: &Symbol, cfg: &Cfg) -> Report {
    let mut report = Report::new();
    image_lints::check_procedure(image, sym, cfg, &mut report);
    dataflow::check_procedure_dataflow(sym, cfg, &mut report);
    cfg_audit::check_cfg(sym, cfg, &mut report);
    report
}

/// Runs the layer-3 audits over one procedure's analysis output (plus
/// the layer-2 audits on its embedded CFG, which the estimates depend
/// on).
#[must_use]
pub fn check_analysis(pa: &ProcAnalysis) -> Report {
    let mut report = Report::new();
    let sym = Symbol {
        name: pa.name.clone(),
        offset: pa.start_offset,
        size: (pa.cfg.insns.len() as u64) * 4,
    };
    cfg_audit::check_cfg(&sym, &pa.cfg, &mut report);
    estimate_audit::check_analysis(pa, &mut report);
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
        let report = check_image(&image);
        assert!(report.is_clean(), "{}", report.render());
    }
}
