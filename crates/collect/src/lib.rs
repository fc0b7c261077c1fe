//! The DCPI data-collection subsystem (§4 of the paper).
//!
//! * [`driver`] — the device driver: per-CPU four-way-associative hash
//!   tables that aggregate samples by `(PID, PC, EVENT)`, a pair of
//!   overflow buffers per CPU, the eviction policies of §4.2.1/§5.4, and
//!   the flush protocol of §4.2.3. The driver implements the machine's
//!   `SampleSink`, returning a per-interrupt handler cost so profiling
//!   overhead arises in the simulation exactly where it did on hardware.
//! * [`daemon`] — the user-mode daemon: maintains image maps from loader
//!   notifications and startup scans (§4.3.2), associates samples with
//!   images, accumulates per-`(image, event)` profiles, and periodically
//!   merges them into the on-disk database (§4.3.3).
//! * [`faults`] — deterministic fault injection: seeded plans of daemon
//!   stalls, crashes (with on-disk corruption), dropped/delayed loader
//!   notifications, and torn flush windows, plus the `LossLedger` that
//!   proves samples are conserved end-to-end under all of them, and the
//!   fleet-wide `FleetLedger`. Network faults live with the transport
//!   that applies them, in `dcpi-server`.
//! * [`htsim`] — the trace-driven hash-table design simulator the paper
//!   used to evaluate associativity, replacement policy, table size, and
//!   hash function alternatives (§5.4).
//! * [`session`] — glue: a profiled machine run combining all the pieces.
//! * [`wire`] — the CRC-framed fleet upload protocol shared by the
//!   agent-side uploader and `dcpi-server`.
//! * [`uploader`] — the agent-side upload state machine: durable spool,
//!   monotonic sequence numbers, capped seeded backoff, and
//!   backpressure response.

pub mod daemon;
pub mod driver;
pub mod faults;
pub mod htsim;
pub mod session;
pub mod uploader;
pub mod wire;

pub use daemon::{Daemon, DaemonConfig, DaemonStats};
pub use driver::{CostModel, Driver, DriverConfig, DriverStats, EvictPolicy, HashKind};
pub use faults::{Backpressure, CrashRecord, FaultInjector, FaultPlan, FleetLedger, LossLedger};
pub use session::{ProfiledRun, SessionConfig};
pub use uploader::{Uploader, UploaderConfig, UploaderStats};
pub use wire::{EpochBatch, Msg};
