//! A small assembler for building executable images in code.
//!
//! Workloads and tests construct programs through this builder: emit
//! instructions, bind labels for branch targets, and group instructions
//! into named procedures that become the image's symbol table.
//!
//! # Examples
//!
//! ```
//! use dcpi_isa::asm::Asm;
//! use dcpi_isa::reg::Reg;
//!
//! let mut a = Asm::new("/bin/countdown");
//! a.proc("main");
//! a.li(Reg::T0, 10);
//! let top = a.here();
//! a.subq_lit(Reg::T0, 1, Reg::T0);
//! a.bne(Reg::T0, top);
//! a.halt();
//! let image = a.finish();
//! assert_eq!(image.symbols().len(), 1);
//! ```

use crate::encode::encode;
use crate::image::{Image, Symbol};
use crate::insn::{BrCond, FpOp, Instruction, IntOp, PalFunc, RegOrLit};
use crate::reg::Reg;

/// A branch-target label. Create with [`Asm::label`] (forward reference) or
/// [`Asm::here`] (bound at the current position).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(usize);

enum Pending {
    Done(u32),
    CondBr {
        cond: BrCond,
        ra: Reg,
        target: Label,
    },
    Br {
        ra: Reg,
        target: Label,
    },
}

/// The assembler/builder. See the module docs for an example.
pub struct Asm {
    name: String,
    words: Vec<Pending>,
    labels: Vec<Option<usize>>,
    procs: Vec<(String, usize)>,
}

impl Asm {
    /// Starts assembling an image with the given pathname.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Asm {
        Asm {
            name: name.into(),
            words: Vec::new(),
            labels: Vec::new(),
            procs: Vec::new(),
        }
    }

    /// Current position as a word index.
    #[must_use]
    pub fn position(&self) -> usize {
        self.words.len()
    }

    /// Byte offset of the current position from the start of the text.
    #[must_use]
    pub fn offset(&self) -> u64 {
        (self.words.len() * 4) as u64
    }

    /// Creates a fresh, unbound label for a forward branch target.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].replace(self.words.len()).is_none(),
            "label bound twice"
        );
    }

    /// Creates a label bound at the current position (for backward
    /// branches).
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Starts a new named procedure at the current position. The previous
    /// procedure (if any) ends here.
    pub fn proc(&mut self, name: impl Into<String>) {
        self.procs.push((name.into(), self.words.len()));
    }

    /// The `(name, byte offset)` of every procedure started so far —
    /// useful for emitting indirect calls to already-assembled
    /// procedures.
    #[must_use]
    pub fn proc_offsets(&self) -> Vec<(String, i64)> {
        self.procs
            .iter()
            .map(|(n, w)| (n.clone(), (*w as i64) * 4))
            .collect()
    }

    /// Emits an already-constructed instruction.
    pub fn emit(&mut self, insn: Instruction) {
        self.words.push(Pending::Done(encode(insn)));
    }

    // --- memory format -----------------------------------------------------

    /// `lda ra, disp(rb)` — `ra = rb + disp`.
    pub fn lda(&mut self, ra: Reg, disp: i16, rb: Reg) {
        self.emit(Instruction::Lda { ra, rb, disp });
    }

    /// `ldah ra, disp(rb)` — `ra = rb + disp*65536`.
    pub fn ldah(&mut self, ra: Reg, disp: i16, rb: Reg) {
        self.emit(Instruction::Ldah { ra, rb, disp });
    }

    /// `ldq ra, disp(rb)`.
    pub fn ldq(&mut self, ra: Reg, disp: i16, rb: Reg) {
        self.emit(Instruction::Ldq { ra, rb, disp });
    }

    /// `ldl ra, disp(rb)`.
    pub fn ldl(&mut self, ra: Reg, disp: i16, rb: Reg) {
        self.emit(Instruction::Ldl { ra, rb, disp });
    }

    /// `ldt fa, disp(rb)`.
    pub fn ldt(&mut self, fa: Reg, disp: i16, rb: Reg) {
        self.emit(Instruction::Ldt { fa, rb, disp });
    }

    /// `stq ra, disp(rb)`.
    pub fn stq(&mut self, ra: Reg, disp: i16, rb: Reg) {
        self.emit(Instruction::Stq { ra, rb, disp });
    }

    /// `stl ra, disp(rb)`.
    pub fn stl(&mut self, ra: Reg, disp: i16, rb: Reg) {
        self.emit(Instruction::Stl { ra, rb, disp });
    }

    /// `stt fa, disp(rb)`.
    pub fn stt(&mut self, fa: Reg, disp: i16, rb: Reg) {
        self.emit(Instruction::Stt { fa, rb, disp });
    }

    // --- operate format ----------------------------------------------------

    /// Three-register integer operate: `rc = op(ra, rb)`.
    pub fn intop(&mut self, op: IntOp, ra: Reg, rb: Reg, rc: Reg) {
        self.emit(Instruction::IntOp {
            op,
            ra,
            rb: RegOrLit::Reg(rb),
            rc,
        });
    }

    /// Literal-operand integer operate: `rc = op(ra, lit)`.
    pub fn intop_lit(&mut self, op: IntOp, ra: Reg, lit: u8, rc: Reg) {
        self.emit(Instruction::IntOp {
            op,
            ra,
            rb: RegOrLit::Lit(lit),
            rc,
        });
    }

    /// `addq ra, rb, rc`.
    pub fn addq(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.intop(IntOp::Addq, ra, rb, rc);
    }

    /// `addq ra, lit, rc`.
    pub fn addq_lit(&mut self, ra: Reg, lit: u8, rc: Reg) {
        self.intop_lit(IntOp::Addq, ra, lit, rc);
    }

    /// `subq ra, rb, rc`.
    pub fn subq(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.intop(IntOp::Subq, ra, rb, rc);
    }

    /// `subq ra, lit, rc`.
    pub fn subq_lit(&mut self, ra: Reg, lit: u8, rc: Reg) {
        self.intop_lit(IntOp::Subq, ra, lit, rc);
    }

    /// `mulq ra, rb, rc` (uses the IMUL unit).
    pub fn mulq(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.intop(IntOp::Mulq, ra, rb, rc);
    }

    /// `s8addq ra, rb, rc` — `rc = 8*ra + rb`.
    pub fn s8addq(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.intop(IntOp::S8Addq, ra, rb, rc);
    }

    /// `cmpult ra, rb, rc`.
    pub fn cmpult(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.intop(IntOp::Cmpult, ra, rb, rc);
    }

    /// `cmpeq ra, lit, rc`.
    pub fn cmpeq_lit(&mut self, ra: Reg, lit: u8, rc: Reg) {
        self.intop_lit(IntOp::Cmpeq, ra, lit, rc);
    }

    /// `cmplt ra, rb, rc`.
    pub fn cmplt(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.intop(IntOp::Cmplt, ra, rb, rc);
    }

    /// Register move (`bis zero, rb, rc`).
    pub fn mov(&mut self, src: Reg, dst: Reg) {
        self.intop(IntOp::Bis, Reg::ZERO, src, dst);
    }

    /// A true no-op ([`Instruction::NOP`]).
    pub fn nop(&mut self) {
        self.emit(Instruction::NOP);
    }

    /// Pads with a `nop` if needed so the next instruction sits at an
    /// even word index (the start of an aligned dual-issue pair).
    pub fn align_even(&mut self) {
        if self.words.len() % 2 == 1 {
            self.nop();
        }
    }

    /// `sll ra, lit, rc`.
    pub fn sll_lit(&mut self, ra: Reg, lit: u8, rc: Reg) {
        self.intop_lit(IntOp::Sll, ra, lit, rc);
    }

    /// `and ra, rb, rc`.
    pub fn and(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.intop(IntOp::And, ra, rb, rc);
    }

    /// `and ra, lit, rc`.
    pub fn and_lit(&mut self, ra: Reg, lit: u8, rc: Reg) {
        self.intop_lit(IntOp::And, ra, lit, rc);
    }

    /// `xor ra, rb, rc`.
    pub fn xor(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.intop(IntOp::Xor, ra, rb, rc);
    }

    /// `srl ra, lit, rc`.
    pub fn srl_lit(&mut self, ra: Reg, lit: u8, rc: Reg) {
        self.intop_lit(IntOp::Srl, ra, lit, rc);
    }

    /// Loads a signed immediate into `r`, emitting one `lda` or an
    /// `ldah`+`lda` pair.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the `ldah`+`lda` reachable range
    /// `[-0x8000_0000, 0x7FFF_7FFF]` (the same constraint real Alpha
    /// assemblers have for this idiom).
    pub fn li(&mut self, r: Reg, value: i64) {
        let v = i64::from(i32::try_from(value).expect("immediate exceeds 32 bits"));
        let lo = v as i16;
        let hi =
            i16::try_from((v - i64::from(lo)) >> 16).expect("immediate unreachable by ldah+lda");
        if hi != 0 {
            self.ldah(r, hi, Reg::ZERO);
            if lo != 0 {
                self.lda(r, lo, r);
            }
        } else {
            self.lda(r, lo, Reg::ZERO);
        }
    }

    // --- floating point ----------------------------------------------------

    /// FP operate: `fc = op(fa, fb)`.
    pub fn fpop(&mut self, op: FpOp, fa: Reg, fb: Reg, fc: Reg) {
        self.emit(Instruction::FpOp { op, fa, fb, fc });
    }

    /// `addt fa, fb, fc`.
    pub fn addt(&mut self, fa: Reg, fb: Reg, fc: Reg) {
        self.fpop(FpOp::Addt, fa, fb, fc);
    }

    /// `mult fa, fb, fc`.
    pub fn mult(&mut self, fa: Reg, fb: Reg, fc: Reg) {
        self.fpop(FpOp::Mult, fa, fb, fc);
    }

    /// `divt fa, fb, fc` (uses the FDIV unit).
    pub fn divt(&mut self, fa: Reg, fb: Reg, fc: Reg) {
        self.fpop(FpOp::Divt, fa, fb, fc);
    }

    // --- control flow ------------------------------------------------------

    /// Conditional branch to `target`.
    pub fn condbr(&mut self, cond: BrCond, ra: Reg, target: Label) {
        self.words.push(Pending::CondBr { cond, ra, target });
    }

    /// `bne ra, target`.
    pub fn bne(&mut self, ra: Reg, target: Label) {
        self.condbr(BrCond::Bne, ra, target);
    }

    /// `beq ra, target`.
    pub fn beq(&mut self, ra: Reg, target: Label) {
        self.condbr(BrCond::Beq, ra, target);
    }

    /// `blt ra, target`.
    pub fn blt(&mut self, ra: Reg, target: Label) {
        self.condbr(BrCond::Blt, ra, target);
    }

    /// `bge ra, target`.
    pub fn bge(&mut self, ra: Reg, target: Label) {
        self.condbr(BrCond::Bge, ra, target);
    }

    /// Unconditional branch to `target`.
    pub fn br(&mut self, target: Label) {
        self.words.push(Pending::Br {
            ra: Reg::ZERO,
            target,
        });
    }

    /// Branch-subroutine: `ra` receives the return address.
    pub fn bsr(&mut self, ra: Reg, target: Label) {
        self.words.push(Pending::Br { ra, target });
    }

    /// Indirect jump through `rb`, writing the return address to `ra`.
    pub fn jsr(&mut self, ra: Reg, rb: Reg) {
        self.emit(Instruction::Jmp { ra, rb });
    }

    /// Return through `rb` (conventionally `ra`).
    pub fn ret(&mut self, rb: Reg) {
        self.emit(Instruction::Jmp { ra: Reg::ZERO, rb });
    }

    /// `call_pal halt` — terminate the process.
    pub fn halt(&mut self) {
        self.emit(Instruction::CallPal {
            func: PalFunc::Halt,
        });
    }

    /// `call_pal yield` — yield the CPU.
    pub fn yield_(&mut self) {
        self.emit(Instruction::CallPal {
            func: PalFunc::Yield,
        });
    }

    /// `call_pal syscall` — a synchronous kernel service.
    pub fn syscall(&mut self) {
        self.emit(Instruction::CallPal {
            func: PalFunc::Syscall,
        });
    }

    /// Finalizes the image: resolves branch targets and closes procedure
    /// sizes.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    #[must_use]
    pub fn finish(self) -> Image {
        let n = self.words.len();
        let resolve = |label: Label, at: usize| -> i32 {
            let target = self.labels[label.0].expect("branch to unbound label");
            i32::try_from(target as i64 - (at as i64 + 1)).expect("branch out of range")
        };
        let words: Vec<u32> = self
            .words
            .iter()
            .enumerate()
            .map(|(idx, p)| match *p {
                Pending::Done(w) => w,
                Pending::CondBr { cond, ra, target } => encode(Instruction::CondBr {
                    cond,
                    ra,
                    disp: resolve(target, idx),
                }),
                Pending::Br { ra, target } => encode(Instruction::Br {
                    ra,
                    disp: resolve(target, idx),
                }),
            })
            .collect();
        let mut symbols = Vec::with_capacity(self.procs.len());
        for (i, (name, start)) in self.procs.iter().enumerate() {
            let end = self
                .procs
                .get(i + 1)
                .map_or(n, |(_, next_start)| *next_start);
            symbols.push(Symbol {
                name: name.clone(),
                offset: (*start * 4) as u64,
                size: ((end - start) * 4) as u64,
            });
        }
        Image::new(self.name, words, symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Instruction;

    #[test]
    fn backward_branch_resolves() {
        let mut a = Asm::new("/t");
        a.proc("main");
        let top = a.here();
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let img = a.finish();
        // bne is at word 1; target word 0; disp = 0 - (1+1) = -2.
        match img.insn_at(4).unwrap() {
            Instruction::CondBr { disp, .. } => assert_eq!(disp, -2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forward_branch_resolves() {
        let mut a = Asm::new("/t");
        a.proc("main");
        let out = a.label();
        a.beq(Reg::T0, out);
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.bind(out);
        a.halt();
        let img = a.finish();
        match img.insn_at(0).unwrap() {
            Instruction::CondBr { disp, .. } => assert_eq!(disp, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn procedures_become_symbols_with_sizes() {
        let mut a = Asm::new("/t");
        a.proc("first");
        a.halt();
        a.halt();
        a.proc("second");
        a.halt();
        let img = a.finish();
        let syms = img.symbols();
        assert_eq!(syms.len(), 2);
        assert_eq!((syms[0].offset, syms[0].size), (0, 8));
        assert_eq!((syms[1].offset, syms[1].size), (8, 4));
    }

    #[test]
    fn li_small_uses_single_lda() {
        let mut a = Asm::new("/t");
        a.proc("p");
        a.li(Reg::T0, 100);
        assert_eq!(a.position(), 1);
        a.halt();
        let _ = a.finish();
    }

    #[test]
    fn li_large_values_roundtrip_semantics() {
        // Verify the ldah/lda decomposition reproduces the value.
        for v in [
            0i64,
            1,
            -1,
            100,
            -100,
            32767,
            -32768,
            32768,
            65536,
            1 << 22,
            0x1234_5678,
            -0x1234_5678,
            0x7fff_7fff,
            i32::MIN as i64,
        ] {
            let mut a = Asm::new("/t");
            a.proc("p");
            a.li(Reg::T0, v);
            a.halt();
            let img = a.finish();
            // Interpret the emitted lda/ldah sequence by hand.
            let mut r: i64 = 0;
            for insn in img.decode_all().unwrap() {
                match insn {
                    Instruction::Lda { rb, disp, .. } => {
                        let base = if rb.is_zero() { 0 } else { r };
                        r = base + i64::from(disp);
                    }
                    Instruction::Ldah { rb, disp, .. } => {
                        let base = if rb.is_zero() { 0 } else { r };
                        r = base + (i64::from(disp) << 16);
                    }
                    Instruction::CallPal { .. } => {}
                    other => panic!("unexpected {other}"),
                }
            }
            assert_eq!(r, v, "li({v})");
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new("/t");
        a.proc("p");
        let l = a.label();
        a.br(l);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new("/t");
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn offset_tracks_words() {
        let mut a = Asm::new("/t");
        a.proc("p");
        assert_eq!(a.offset(), 0);
        a.halt();
        assert_eq!(a.offset(), 4);
    }

    #[test]
    fn bsr_and_ret_encode() {
        let mut a = Asm::new("/t");
        a.proc("main");
        let callee = a.label();
        a.bsr(Reg::RA, callee);
        a.halt();
        a.proc("callee");
        a.bind(callee);
        a.ret(Reg::RA);
        let img = a.finish();
        match img.insn_at(0).unwrap() {
            Instruction::Br { ra, disp } => {
                assert_eq!(ra, Reg::RA);
                assert_eq!(disp, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match img.insn_at(8).unwrap() {
            Instruction::Jmp { ra, rb } => {
                assert!(ra.is_zero());
                assert_eq!(rb, Reg::RA);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
