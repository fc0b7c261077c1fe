//! Shared types and the profile data model for DCPI-RS.
//!
//! This crate holds everything that both halves of the system — the data
//! collection subsystem (`dcpi-collect`) and the analysis subsystem
//! (`dcpi-analyze`) — need to agree on:
//!
//! * primitive identifiers ([`Pid`], [`CpuId`], [`Addr`], [`ImageId`]),
//! * the performance-counter event vocabulary ([`Event`]),
//! * raw and aggregated sample records ([`Sample`], [`SampleEntry`]),
//! * in-memory profiles keyed by image offset ([`Profile`], [`ProfileKey`]),
//! * the compact on-disk profile database ([`db::ProfileDb`]) with its
//!   varint-delta codec ([`codec`]),
//! * the one JSON reader and writer every artifact and offline tool
//!   shares ([`json`]),
//! * the one command-line reader and exit-code rule every binary shares
//!   ([`cli`]),
//! * the one golden-file comparison and bless switch ([`golden`]),
//! * the Carta minimal-standard pseudo-random number generator used by the
//!   paper to randomize sampling periods ([`prng::CartaRng`]).
//!
//! The paper this reproduces is *Continuous Profiling: Where Have All the
//! Cycles Gone?* (SOSP 1997). Section references in doc comments throughout
//! the workspace refer to that paper.

pub mod cli;
pub mod codec;
pub mod db;
pub mod error;
pub mod golden;
pub mod hash;
pub mod json;
pub mod prng;
pub mod profile;
pub mod types;

pub use error::{Error, Result};
pub use hash::{FastMap, FastSet};
pub use profile::{EdgeProfiles, PathProfiles, Profile, ProfileKey, ProfileSet};
pub use types::{Addr, CpuId, Event, ImageId, Pid, Sample, SampleEntry, UNKNOWN_IMAGE};

#[cfg(test)]
#[global_allocator]
static ALLOC: dcpi_testkit::Probe = dcpi_testkit::Probe;
