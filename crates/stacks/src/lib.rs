//! Calling-context profiles: the canonical-stack cache, call trees, and
//! flamegraph export.
//!
//! DCPI proper attributes samples to bare PCs. This crate adds the
//! ProfileMe-style calling-context dimension (ROADMAP item 3): at sample
//! delivery the simulated OS walks the toy-ISA call stack, the driver
//! interns the frame list into a [`StackTable`] — a parent-pointer tree
//! handing out stable small integer stack IDs, O(depth) and
//! allocation-free on the hot path once warm — and the daemon resolves
//! raw frames into canonical `(image, offset)` [`Frame`]s aggregated in a
//! [`StackProfile`].
//!
//! Downstream, [`CallTree`] folds stack counts into a merged call tree
//! with inclusive/exclusive estimates, and [`speedscope`] serializes a
//! profile to the speedscope JSON schema (written and, for the schema
//! audit, read through `dcpi_core::json`), so any stack profile
//! opens directly in <https://www.speedscope.app>.
//!
//! The design invariants the `dcpicheck stacks` audit enforces live here:
//!
//! * **Bijectivity** — the intern index and the node list are inverse
//!   maps ([`StackTable::check_bijective`]).
//! * **Acyclicity** — every node's parent has a strictly smaller ID, so
//!   parent chains terminate at the root by construction.
//! * **Conservation** — exclusive counts sum to inclusive counts at every
//!   tree node, and the virtual root's inclusive count equals the total
//!   number of stack samples.

pub mod calltree;
pub mod profile;
pub mod speedscope;
pub mod table;

pub use calltree::CallTree;
pub use profile::{RawStackSample, StackProfile};
pub use table::{Frame, StackTable, ROOT};
