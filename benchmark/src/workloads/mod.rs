//! The four workloads, one per stage of the paper's pipeline:
//! `sim` → `collect` → `ingest` → `query`. Each builds its inputs in
//! set-up with the real upstream code, then times only its own stage.

pub mod collect;
pub mod ingest;
pub mod query;
pub mod sim;
