//! The DCPI analysis subsystem (§6 of the paper) — the paper's primary
//! intellectual contribution.
//!
//! Given the time-biased CYCLES samples collected by `dcpi-collect`, these
//! modules recover, for every instruction:
//!
//! * a **frequency** (how many times it executed),
//! * a **CPI** (average cycles spent at the head of the issue queue per
//!   execution), and
//! * a set of **culprits** — possible explanations for its stall cycles.
//!
//! The pipeline is: build a control-flow graph ([`mod@cfg`]); group blocks and
//! edges into frequency-equivalence classes via cycle equivalence
//! ([`equiv`]); estimate each class's frequency from the sample counts of
//! its *issue points* using the S_i/M_i ratio-clustering heuristic and
//! propagate estimates around the CFG with flow constraints
//! ([`frequency`]); and explain stalls with the static schedule plus
//! "guilty until proven innocent" dynamic-culprit elimination
//! ([`culprit`]). [`summary`] aggregates instruction-level results into
//! the procedure summaries of Figure 4, and [`analysis`] is the top-level
//! entry point tying everything together: [`sampled_procedures`] is the
//! one CYCLES sample gate and [`analyze_sampled`] the one fan-out from a
//! profile set to analyzed procedures.

pub mod analysis;
pub mod cfg;
pub mod culprit;
pub mod equiv;
pub mod export;
pub mod frequency;
pub mod summary;

pub use analysis::{
    analyze_procedure, analyze_procedure_extended, analyze_sampled, procedure_samples,
    sampled_procedures, InsnAnalysis, ProcAnalysis,
};
pub use cfg::{BlockId, Cfg, EdgeKind};
pub use culprit::{Culprit, DynamicCause};
pub use export::{ExportedBlock, ExportedEdge, ExportedInsn, ExportedProc};
pub use frequency::{Confidence, FrequencyEstimate};
pub use summary::ProcSummary;
