//! Synthetic workloads and the profiling experiment driver.
//!
//! The paper evaluates on production workloads (Table 2): SPEC95, x11perf,
//! McCalpin STREAMS, AltaVista, a TPC-D-style DSS query, parallel SPECfp,
//! and a week of timesharing. We cannot run those binaries on a simulated
//! toy ISA, so each is replaced by a synthetic program engineered to
//! reproduce the *profile-relevant property* the paper attributes to it
//! (see DESIGN.md §2):
//!
//! * [`programs::mccalpin_image`] — the four STREAM loops; `copy` is the
//!   unrolled loop of Figure 2 verbatim.
//! * [`programs::x11_image`] — a server with a skewed procedure mix plus
//!   kernel calls (Figure 1's shape).
//! * [`programs::compile_image`] — gcc: many short-lived processes with
//!   large text, driving driver hash-table evictions (§5.1).
//! * [`programs::wave5_image`] — FP program whose `smooth_` procedure's
//!   board-cache conflicts depend on the physical page mapping (§3.3).
//! * [`programs::query_image`] — AltaVista/DSS-style index scans.
//! * [`programs::fp_kernel_image`] — parallel SPECfp per-CPU FP kernels.
//! * [`programs::shell_image`] — small timesharing jobs.
//!
//! [`driver`] runs any workload under the paper's four configurations
//! (`base`, `cycles`, `default`, `mux`) and returns everything the
//! benchmark harness needs to regenerate the tables and figures;
//! [`fingerprint`] is the one text form of a run the recorded simulator
//! fingerprints hash.

pub mod driver;
pub mod fingerprint;
pub mod pgo;
pub mod pool;
pub mod programs;

pub use driver::{run_workload, spawn_with, ProfConfig, RunOptions, RunResult, Workload};
pub use pgo::{pgo_workload, PgoError, PgoOutcome};
pub use pool::{default_threads, run_indexed};
