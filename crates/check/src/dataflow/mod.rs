//! A small dataflow / abstract-interpretation engine over the toy ISA.
//!
//! The generic piece is [`solver`]: a worklist fixpoint over the
//! existing [`Cfg`], parameterized by a [`solver::Pass`] that supplies
//! the lattice (join, boundary, optional widening) and the per-block
//! transfer function. On top of it sit four concrete passes:
//!
//! * [`liveness`] — backward register liveness (a `u64` bitmask over
//!   the unified integer+FP register file), driving the `dead-store`
//!   lint;
//! * [`reaching`] — forward reaching definitions (sets of def sites),
//!   driving the `uninit-read` lint;
//! * [`values`] — forward constant/value-range propagation with
//!   widening, driving the `const-branch` lint;
//! * [`stack`] — forward stack-discipline verification: balanced frame
//!   push/pop, callee-save respect, and bounded frame depth.

pub mod liveness;
pub mod reaching;
pub mod solver;
pub mod stack;
pub mod values;

use crate::diag::Report;
use dcpi_analyze::cfg::Cfg;
use dcpi_isa::image::Symbol;

pub use solver::{solve, Direction, Pass, Solution};
pub use values::AbsVal;

/// Runs every dataflow lint over one procedure's CFG, appending
/// warnings to `report`. All findings here are warnings: the code is
/// suspicious, not inconsistent.
pub fn check_procedure_dataflow(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    liveness::check_dead_stores(sym, cfg, report);
    reaching::check_uninit_reads(sym, cfg, report);
    values::check_const_branches(sym, cfg, report);
    stack::check_stack_discipline(sym, cfg, report);
}
