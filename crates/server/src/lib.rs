//! Fleet-scale profile ingestion for DCPI-RS.
//!
//! The paper's deployment (§4.1) runs its daemon on every machine in
//! the building and ships profiles to a central repository. This crate
//! is that repository's server side, grown onto the simulated stack:
//!
//! * [`journal`] — the checkpointed WAL. Accepted uploads are journaled
//!   *before* they are acked, so an ack is a durability promise that
//!   survives a crash of the server process at any point; every merge
//!   rotates the log down to one checkpoint record, so recovery reads
//!   what is unmerged, not the history.
//! * [`server`] — [`server::IngestServer`]: per-agent sessions
//!   (registration, leases, incarnation-based crash detection),
//!   sequence-number dedup, a bounded ingest queue with backpressure,
//!   and periodic merges into the fleet-wide `ProfileDb` under
//!   `root/db`.
//! * [`transport`] — [`transport::SimNet`], the deterministic
//!   simulated network. It applies its own seeded
//!   [`transport::NetFaultPlan`] (drop, duplicate, reorder, truncate,
//!   stall, and partition) as frames are sent, with delivery order fixed
//!   by `(tick, send order)` so whole fleet runs are bit-reproducible.
//! * [`fleet`] — [`fleet::run_fleet`], the chaos harness: hundreds of
//!   agents replaying seeded [`fleet::AgentScript`]s, seeded
//!   agent/server crashes and partitions in one run, drained to quiesce
//!   and checked against the fleet-wide sample-conservation identity
//!   (see [`FleetLedger`](dcpi_collect::faults::FleetLedger)).
//!
//! The wire protocol itself ([`dcpi_collect::wire`]) and the agent-side
//! uploader ([`dcpi_collect::uploader`]) live in `dcpi-collect`, next
//! to the daemon that produces the epochs.

pub mod fleet;
pub mod fleet_audit;
pub mod journal;
pub mod server;
pub mod transport;

pub use fleet::{
    run_fleet, AgentScript, FleetConfig, FleetFaultPlan, FleetLag, FleetReport, FLEET_IMAGES,
};
pub use fleet_audit::check_fleet;
pub use journal::{scan, Journal, WalRecord, WalScan, WAL_FILE};
pub use server::{
    image_event_totals, image_totals, AgentSession, ImageTotals, IngestServer, ServerConfig,
    ServerStats,
};
pub use transport::{Endpoint, NetFaultPlan, Partition, SimNet};
