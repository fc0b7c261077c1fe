//! DCPI-RS: a Rust reproduction of the DIGITAL Continuous Profiling
//! Infrastructure (*Continuous Profiling: Where Have All the Cycles Gone?*,
//! SOSP 1997).
//!
//! This umbrella crate re-exports the workspace crates under short module
//! names so examples and downstream users can depend on a single crate:
//!
//! * [`core`] — shared types, profiles, and the on-disk database.
//! * [`isa`] — the Alpha-like instruction set, assembler, and the static
//!   pipeline model.
//! * [`machine`] — the cycle-level simulated machine and miniature OS.
//! * [`collect`] — the data-collection subsystem (driver + daemon).
//! * [`analyze`] — the analysis subsystem (frequency, CPI, culprits).
//! * [`check`] — static analysis and invariant verification of images,
//!   CFGs, and analysis outputs (`dcpicheck`).
//! * [`pgo`] — profile-guided optimization: rewrite an image from the
//!   analysis estimates and measure the speedup (`dcpipgo`).
//! * [`server`] — the fleet ingestion server: checkpointed WAL, sessions,
//!   and the fleet-wide database (`dcpifleet`).
//! * [`tools`] — dcpiprof / dcpicalc / dcpistats / dcpisumm / dcpidiff /
//!   dcpicfg / dcpicheck / dcpistat / dcpitop / dcpitrace / dcpipgo /
//!   dcpifleet.
//! * [`workloads`] — synthetic workloads and the experiment driver.

pub use dcpi_analyze as analyze;
pub use dcpi_check as check;
pub use dcpi_collect as collect;
pub use dcpi_core as core;
pub use dcpi_isa as isa;
pub use dcpi_machine as machine;
pub use dcpi_pgo as pgo;
pub use dcpi_server as server;
pub use dcpi_tools as tools;
pub use dcpi_workloads as workloads;
