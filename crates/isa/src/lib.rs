//! The Alpha-like instruction set used by DCPI-RS, together with the
//! assembler, binary encoder/decoder, executable image model, and the
//! *static pipeline model* of the simulated processor.
//!
//! The paper's analysis subsystem schedules basic blocks "using a model of
//! the processor on which it was run" (§6.1.3) to obtain each instruction's
//! minimum head-of-issue-queue time `M_i`, and the simulator must issue
//! instructions with exactly the same rules for "best-case CPI" to be the
//! true no-dynamic-stall bound. Both therefore share [`pipeline`], the
//! single source of truth for issue slotting and latencies.

pub mod asm;
pub mod encode;
pub mod image;
pub mod insn;
pub mod meta;
pub mod pipeline;
pub mod reg;
pub mod rewrite;
pub mod uop;

pub use asm::Asm;
pub use image::{Image, Symbol};
pub use insn::{BrCond, Flow, FpOp, Instruction, IntOp, PalFunc, Reads, RegOrLit};
pub use meta::InsnMeta;
pub use pipeline::{BlockSchedule, InsnClass, Pipe, PipelineModel, StaticCause};
pub use reg::Reg;
pub use rewrite::AddressMap;
pub use uop::{compile_uops, Uop, UopKind};
