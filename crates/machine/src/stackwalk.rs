//! The sample-time call-stack walker.
//!
//! At interrupt delivery the simulated OS captures the interrupted
//! process's calling context by walking the toy-ISA call stack. The ISA
//! has no frame pointers, so the walk uses the stack-discipline calling
//! conventions (the same ones `dcpi-check`'s dataflow pass verifies
//! statically): `bsr`/`jsr` write the return address `old_pc + 4` into a
//! link register, prologues push it with `lda sp,-k(sp); stq ra,0(sp)`,
//! and `ret` is a `jmp` through the link register.
//!
//! The walk is a *scan*: frame 0 is the sampled PC, an optional frame
//! comes from the live `ra` register, and the rest come from scanning
//! stack words from `sp` toward [`STACK_TOP`], keeping exactly the
//! values that look like return addresses — 4-aligned, inside mapped
//! text, and preceded by a linking call instruction. Two heuristics
//! suppress the classic scan artifacts:
//!
//! * **Stale `ra`.** After a call returns, `ra` still holds the old
//!   return address. A direct-call (`bsr`) candidate is accepted only if
//!   the call's static target is the procedure being sampled; an
//!   indirect-call (`jsr`) candidate only if it points *outside* the
//!   sampled procedure. Both reject the common stale case (executing
//!   past a returned call site in the same procedure) while keeping live
//!   callers, including direct recursion.
//! * **Double-counted `ra`.** Prologues save `ra` immediately, so the
//!   register and the top stack slot usually hold the same address for
//!   one real frame. The first scanned slot equal to an accepted `ra` is
//!   skipped once; deeper equal values are genuine recursive frames.
//!
//! The walker is perturbation-free: it reads registers and memory
//! through [`Process::read_u64`] (which leaves the page memo as it found
//! it) and never touches the translation caches, so enabling it changes
//! no simulated state except the cycles it is charged. Cost is metered as
//! [`WALK_BASE_COST`] + [`WALK_WORD_COST`] per scanned word +
//! [`WALK_FRAME_COST`] per captured frame, flows into the interrupted
//! CPU's handler time like any interrupt work, and is tracked separately
//! in [`CpuState::walk_cycles`](crate::cpu::CpuState::walk_cycles) so
//! the OverheadLedger can report the walk's share of the 1–3% band.

use crate::config::MachineConfig;
use crate::os::{Os, STACK_TOP};
use crate::proc::Process;
use dcpi_core::{Addr, ImageId};
use dcpi_isa::insn::{Flow, Instruction};
use dcpi_isa::reg::Reg;

/// Fixed cost of taking a stack walk (register reads, setup).
pub const WALK_BASE_COST: u64 = 60;
/// Cost per stack word examined during the scan.
pub const WALK_WORD_COST: u64 = 3;
/// Cost per frame captured (plausibility decode + store).
pub const WALK_FRAME_COST: u64 = 12;
/// Maximum stack words the walk scans between `sp` and the stack top;
/// bounds the walk's cost on deep or garbage-filled stacks.
const STACK_SCAN_WORDS: u64 = 256;

/// Identity of the procedure containing `addr`: the image plus the
/// covering symbol's start offset (`u64::MAX` for a symbol-table gap).
fn proc_key(proc: &Process, os: &Os, addr: u64) -> Option<(ImageId, u64)> {
    let m = proc.mapping_at(Addr(addr))?;
    let li = os.image(m.image)?;
    let off = addr - m.base.0;
    Some((
        m.image,
        li.image.symbol_at(off).map_or(u64::MAX, |s| s.offset),
    ))
}

/// The instruction at `addr`, if it lies in mapped text.
fn insn_at(proc: &Process, os: &Os, addr: u64) -> Option<Instruction> {
    let m = proc.mapping_at(Addr(addr))?;
    let li = os.image(m.image)?;
    li.insns.get(((addr - m.base.0) / 4) as usize).copied()
}

/// True if `v` is a plausible return address: 4-aligned, in mapped
/// text, and immediately preceded by a linking call (`bsr`/`jsr` with a
/// non-zero link register).
fn is_return_addr(proc: &Process, os: &Os, v: u64) -> bool {
    if !v.is_multiple_of(4) || v < 4 {
        return false;
    }
    matches!(
        insn_at(proc, os, v - 4).map(|i| i.flow()),
        Some(Flow::Call { .. } | Flow::IndirectCall { .. })
    )
}

/// Walks the call stack of `proc` at sampled PC `pc`, appending frames
/// leaf-first (sampled PC, then callers outward) into `out` (cleared
/// first; its capacity is reused, so a warm walk allocates nothing).
/// Returns the number of stack words scanned, for cost metering.
pub fn walk(proc: &Process, os: &Os, pc: Addr, cfg: &MachineConfig, out: &mut Vec<Addr>) -> u64 {
    out.clear();
    out.push(pc);
    let here = proc_key(proc, os, pc.0);

    // The live link register, filtered through the staleness rules.
    let ra_val = proc.reg(Reg::RA);
    let mut accepted_ra = None;
    if out.len() < cfg.stack_max_frames && is_return_addr(proc, os, ra_val) {
        let call = ra_val - 4;
        let accept = match insn_at(proc, os, call).map(|i| i.flow()) {
            Some(flow @ Flow::Call { .. }) => {
                // Direct call: live iff its static target is the sampled
                // procedure (covers straight calls and direct recursion).
                let target = u32::try_from(call / 4).ok().and_then(|w| flow.target(w));
                let target = target.and_then(|t| u64::try_from(t).ok());
                here.is_some() && target.is_some_and(|t| proc_key(proc, os, t * 4) == here)
            }
            Some(Flow::IndirectCall { .. }) => {
                // Indirect call: the target is dynamic, so fall back to
                // "the return address lies outside the sampled
                // procedure" — stale values point back into it.
                proc_key(proc, os, ra_val) != here
            }
            _ => false,
        };
        if accept {
            out.push(Addr(ra_val));
            accepted_ra = Some(ra_val);
        }
    }

    // Scan saved return addresses from sp toward the stack top.
    let sp = proc.reg(Reg::SP);
    let mut addr = sp.next_multiple_of(8);
    let mut scanned = 0u64;
    let mut dedup_pending = accepted_ra.is_some();
    while addr < STACK_TOP && scanned < STACK_SCAN_WORDS && out.len() < cfg.stack_max_frames {
        let v = proc.read_u64(addr);
        scanned += 1;
        addr += 8;
        if !is_return_addr(proc, os, v) {
            continue;
        }
        if dedup_pending && Some(v) == accepted_ra {
            // The prologue's saved copy of the live `ra`: same frame.
            dedup_pending = false;
            continue;
        }
        dedup_pending = false;
        out.push(Addr(v));
    }
    scanned
}

/// The metered cost of a walk that scanned `words` and produced
/// `frames` frames.
#[must_use]
pub fn walk_cost(words: u64, frames: usize) -> u64 {
    WALK_BASE_COST + WALK_WORD_COST * words + WALK_FRAME_COST * frames as u64
}
