//! The DCPI analysis tools (§3 of the paper).
//!
//! Each tool is a library function producing the same report the paper
//! shows, as a `String`:
//!
//! * [`dcpiprof()`](dcpiprof::dcpiprof) — samples per procedure or per
//!   image (Figure 1),
//! * [`dcpicalc()`](dcpicalc::dcpicalc) — per-instruction CPI and stall
//!   bubbles (Figure 2),
//! * [`dcpistats()`](dcpistats::dcpistats) — variance across multiple
//!   runs (Figure 3),
//! * [`dcpisumm()`](dcpisumm::dcpisumm) — the where-have-the-cycles-gone
//!   summary (Figure 4),
//! * [`dcpidiff()`](dcpidiff::dcpidiff) — side-by-side comparison of two
//!   profiles of the same program,
//! * [`dcpicfg()`](dcpicfg::dcpicfg) — annotated control-flow graphs
//!   (Graphviz DOT; the paper emitted PostScript),
//! * [`dcpicheck()`](dcpicheck::dcpicheck) — static analysis and
//!   invariant verification of images, CFGs, and estimates (the
//!   `dcpi-check` crate driven over a whole database),
//! * [`dcpistat()`](dcpistat::dcpistat) — the one renderer of an
//!   observability export: profiler status (rates, drops, flush
//!   latencies, ledgers) and, for a fleet server's export, the ingestion
//!   pipeline (epochs, backlog, I/O, rates, the run's ingest lag); the
//!   binary repaints it with `--watch`,
//! * [`dcpitrace()`](dcpitrace::dcpitrace) — cycle-ordered dump of the
//!   trace rings of one export, or of agent- and server-side exports
//!   interleaved into one pipeline timeline, under one
//!   [`Filter`] (component, epoch span),
//! * [`dcpitop_flame()`](dcpitop::dcpitop_flame) — the calling-context
//!   profile as a speedscope flamegraph document (`dcpitop --flame`),
//! * [`dcpiprof_tree()`](dcpiprof::dcpiprof_tree) — the call tree of a
//!   calling-context profile, inclusive counts down the indentation,
//!   audited by [`dcpicheck_stacks()`](dcpicheck::dcpicheck_stacks),
//! * [`dcpipgo`] — the profile → optimize → re-profile loop: rewrite a
//!   workload's hottest image from exported estimates, re-measure, and
//!   audit the rewrite (the paper's "ultimate goal" made executable).
//!
//! Each also ships as a CLI binary of the same name ([`TOOL_NAMES`])
//! that reads its arguments through `dcpi_core::cli` and its input
//! through [`dbload`]'s one loader per artifact kind: [`load_db`],
//! [`load_stacks`], [`analyze_named`], [`load_snapshot`].
//!
//! Tools consume the on-disk profile database via `dcpi-core` and the
//! analysis results of `dcpi-analyze`; they only format. Every tool that
//! analyzes many procedures (`dcpicheck`, `dcpidiff --pgo`) goes through
//! `dcpi_analyze::analysis::analyze_sampled`, the one CYCLES sample gate
//! and analysis fan-out, over an [`ImageRegistry`] walked in image-id
//! order.

pub mod dbload;
pub mod dcpicalc;
pub mod dcpicfg;
pub mod dcpicheck;
pub mod dcpidiff;
pub mod dcpifleet;
pub mod dcpipgo;
pub mod dcpiprof;
pub mod dcpistat;
pub mod dcpistats;
pub mod dcpisumm;
pub mod dcpitop;
pub mod dcpitrace;
pub mod registry;
mod text;

pub use dbload::{
    analyze_named, find_procedure, load_db, load_snapshot, load_stacks, stack_frame_name, LoadedDb,
};
pub use dcpicalc::dcpicalc;
pub use dcpicfg::dcpicfg;
pub use dcpicheck::{
    dcpicheck, dcpicheck_dataflow, dcpicheck_db, dcpicheck_obs, dcpicheck_report, dcpicheck_stacks,
    dcpicheck_tv,
};
pub use dcpidiff::{dcpidiff, dcpidiff_pgo, pgo_side, PgoSide};
pub use dcpifleet::{dcpifleet_agents, dcpifleet_image, dcpifleet_top};
pub use dcpiprof::{dcpiprof, dcpiprof_images, dcpiprof_tree, ProfRow};
pub use dcpistat::dcpistat;
pub use dcpistats::{dcpistats, StatsRow};
pub use dcpisumm::dcpisumm;
pub use dcpitop::dcpitop_flame;
pub use dcpitrace::{dcpitrace, dcpitrace_json, timeline, Filter, TraceLine};
pub use registry::{ImageRegistry, TOOL_NAMES};
