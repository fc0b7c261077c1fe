//! Translation validation for PGO rewrites: a static, per-rewrite proof
//! that the new image preserves the old image's observable behaviour,
//! with **no** simulator in the loop.
//!
//! The old text is cut into *segments* — straight-line runs ending at a
//! control transfer or at any word that can be entered by address
//! (symbol starts, branch targets, materialized call targets). The
//! [`AddressMap`] sends each segment to a contiguous *region* of the new
//! text; both sides are then executed symbolically from a common entry
//! state and must agree on
//!
//! * every register value at the segment exit,
//! * the ordered stream of stores (width, address, value), and
//! * the control transfer out of the segment: same terminator kind,
//!   corresponding targets, and a continuation that resumes exactly at
//!   the region of the old successor segment (chasing inserted glue
//!   branches and padding on the way).
//!
//! Code pointers are the one place where old and new values may differ
//! legitimately: a return address saved by a call is `old_pc + 4` in
//! one image and `new_pc + 4` in the other. The correspondence relation
//! accepts a pair of constants when the old one is a segment head and
//! the new one reaches that segment's region start — and nothing else.
//! This is sound for every branch condition in the ISA because both
//! values are then positive, word-aligned text addresses: `beq`/`bne`,
//! the signed compares, and the low-bit tests all decide identically on
//! any such pair. Arithmetic on corresponding-but-unequal pointers
//! stays strict and is conservatively rejected.

use crate::diag::{Category, Loc, Report};
use dcpi_isa::image::{Image, TEXT_BASE};
use dcpi_isa::insn::{Flow, Instruction, IntOp, PalFunc, RegOrLit};
use dcpi_isa::reg::Reg;
use dcpi_isa::rewrite::{branch_target, invert_cond, li_value_at, AddressMap};
use std::fmt::Write as _;
use std::rc::Rc;

/// Knobs for validation.
pub struct TvOptions {
    /// Virtual address where word 0 of the text is loaded; needed to
    /// recognize materialized code pointers.
    pub code_base: u64,
}

impl Default for TvOptions {
    fn default() -> Self {
        TvOptions {
            code_base: TEXT_BASE,
        }
    }
}

/// The outcome of a validation run.
pub struct TvResult {
    /// All findings; [`Report::is_clean`] means the rewrite is proved.
    pub report: Report,
    /// Old-text segments examined.
    pub segments: usize,
    /// Segments whose equivalence proof went through.
    pub proved: usize,
}

impl TvResult {
    /// What `dcpicheck tv` prints: the segment tally, then the report.
    #[must_use]
    pub fn render(&self) -> String {
        let (proved, segments) = (self.proved, self.segments);
        let tally = format!("dcpicheck tv: proved {proved}/{segments} segment(s)");
        format!("{tally}\n{}", self.report.render())
    }

    /// What `dcpicheck tv --json` prints: the report with the segment
    /// tallies.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.report.json(Some((self.segments, self.proved)))
    }
}

/// Validates a rewrite with default options and returns the report.
#[must_use]
pub fn validate(old: &Image, new: &Image, map: &AddressMap) -> Report {
    validate_with(old, new, map, &TvOptions::default()).report
}

/// One old-text segment and the new-text region the map sends it to.
struct Segment {
    /// First old word (inclusive).
    start: u32,
    /// Last old word (exclusive).
    end: u32,
    /// Smallest mapped new word — where execution enters the region.
    lo: u32,
    /// Largest mapped new word.
    hi: u32,
    /// Starts a procedure: the OS may dispatch here by symbol offset,
    /// so the map itself (not just every incoming edge) must put the
    /// head at the region start.
    sym_start: bool,
}

struct Ctx<'a> {
    base: u64,
    old_i: &'a [Instruction],
    new_i: &'a [Instruction],
    /// Total old → new word map.
    m2n: Vec<u32>,
    /// Reverse map; `None` for inserted words.
    origin: Vec<Option<u32>>,
    seg_of: Vec<usize>,
    segments: Vec<Segment>,
    context: String,
}

impl Ctx<'_> {
    /// Follows inserted glue (nops and unconditional `br zero`) from new
    /// word `q` until a mapped word is reached.
    fn resolve(&self, q: u32) -> Option<u32> {
        let n = self.new_i.len() as u32;
        let mut q = q;
        let mut steps = 0u32;
        while q < n {
            if self.origin[q as usize].is_some() {
                return Some(q);
            }
            let insn = self.new_i[q as usize];
            if insn == Instruction::NOP {
                q += 1;
            } else if let flow @ Flow::Jump { .. } = insn.flow() {
                let t = flow.target(q)?;
                if t < 0 || t >= i64::from(n) {
                    return None;
                }
                q = t as u32;
            } else {
                return None;
            }
            steps += 1;
            if steps > n {
                return None; // glue cycle
            }
        }
        None
    }

    /// Where execution must land to continue at old word `w`: the region
    /// start of `w`'s segment.
    fn entry_of(&self, w: usize) -> u32 {
        self.segments[self.seg_of[w]].lo
    }

    /// True when constants `x` (old) and `y` (new) denote the same code
    /// location: equal, or `x` is an old segment head whose region start
    /// the new address reaches.
    fn const_corresponds(&self, x: u64, y: u64) -> bool {
        if x == y {
            return true;
        }
        let (Some(ox), Some(oy)) = (x.checked_sub(self.base), y.checked_sub(self.base)) else {
            return false;
        };
        if ox % 4 != 0 || oy % 4 != 0 {
            return false;
        }
        let (w, q) = (ox / 4, oy / 4);
        if w >= self.old_i.len() as u64 || q >= self.new_i.len() as u64 {
            return false;
        }
        let seg = &self.segments[self.seg_of[w as usize]];
        u64::from(seg.start) == w && self.resolve(q as u32) == Some(seg.lo)
    }

    fn corresponds(&self, a: &Rc<Expr>, b: &Rc<Expr>) -> bool {
        if a == b {
            return true;
        }
        match (a.as_ref(), b.as_ref()) {
            (Expr::Const(x), Expr::Const(y)) => self.const_corresponds(*x, *y),
            _ => false,
        }
    }
}

/// Memory access width, part of a load/store's observable identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Width {
    L,
    Q,
    T,
}

/// A symbolic value: a term over the segment's entry state.
#[derive(PartialEq, Eq, Debug)]
enum Expr {
    /// Register `r`'s value at segment entry.
    Init(u8),
    Const(u64),
    Op(IntOp, Rc<Expr>, Rc<Expr>),
    FOp(dcpi_isa::insn::FpOp, Rc<Expr>, Rc<Expr>),
    /// A load: width, number of stores issued before it (its position in
    /// the memory order), and address.
    Load(Width, usize, Rc<Expr>),
}

fn brief_into(e: &Expr, out: &mut String, depth: usize) {
    if depth > 4 {
        out.push('_');
        return;
    }
    match e {
        Expr::Init(r) => {
            let _ = write!(out, "{:?}@entry", Reg::from_index(*r));
        }
        Expr::Const(c) => {
            let _ = write!(out, "{c:#x}");
        }
        Expr::Op(op, a, b) => {
            let _ = write!(out, "({op:?} ");
            brief_into(a, out, depth + 1);
            out.push(' ');
            brief_into(b, out, depth + 1);
            out.push(')');
        }
        Expr::FOp(op, a, b) => {
            let _ = write!(out, "({op:?} ");
            brief_into(a, out, depth + 1);
            out.push(' ');
            brief_into(b, out, depth + 1);
            out.push(')');
        }
        Expr::Load(w, ver, a) => {
            let _ = write!(out, "(ld{w:?}#{ver} ");
            brief_into(a, out, depth + 1);
            out.push(')');
        }
    }
}

fn brief(e: &Expr) -> String {
    let mut s = String::new();
    brief_into(e, &mut s, 0);
    if s.len() > 72 {
        s.truncate(69);
        s.push_str("...");
    }
    s
}

/// The symbolic machine state of one segment execution.
struct SymState {
    regs: Vec<Rc<Expr>>,
    /// Ordered stores: width, address, value.
    stores: Vec<(Width, Rc<Expr>, Rc<Expr>)>,
}

fn init_state() -> SymState {
    SymState {
        regs: (0..Reg::COUNT as u8)
            .map(|r| Rc::new(Expr::Init(r)))
            .collect(),
        stores: Vec::new(),
    }
}

fn read(st: &SymState, r: Reg) -> Rc<Expr> {
    if r.is_zero() {
        Rc::new(Expr::Const(0))
    } else {
        st.regs[r.index()].clone()
    }
}

fn write(st: &mut SymState, r: Reg, v: Rc<Expr>) {
    if !r.is_zero() {
        st.regs[r.index()] = v;
    }
}

/// Constant-folds a binary op (both-const operands collapse).
fn fold(op: IntOp, a: Rc<Expr>, b: Rc<Expr>) -> Rc<Expr> {
    if let (Expr::Const(x), Expr::Const(y)) = (a.as_ref(), b.as_ref()) {
        return Rc::new(Expr::Const(op.eval(*x, *y)));
    }
    Rc::new(Expr::Op(op, a, b))
}

fn add_disp(e: Rc<Expr>, k: i64) -> Rc<Expr> {
    if k == 0 {
        return e;
    }
    fold(IntOp::Addq, e, Rc::new(Expr::Const(k as u64)))
}

/// Applies one non-control instruction to the state.
fn step(st: &mut SymState, insn: &Instruction) {
    match *insn {
        Instruction::Lda { ra, rb, disp } => {
            let v = add_disp(read(st, rb), i64::from(disp));
            write(st, ra, v);
        }
        Instruction::Ldah { ra, rb, disp } => {
            let v = add_disp(read(st, rb), i64::from(disp) * 65536);
            write(st, ra, v);
        }
        Instruction::Ldq { ra, rb, disp } => load(st, Width::Q, ra, rb, disp),
        Instruction::Ldl { ra, rb, disp } => load(st, Width::L, ra, rb, disp),
        Instruction::Ldt { fa, rb, disp } => load(st, Width::T, fa, rb, disp),
        Instruction::Stq { ra, rb, disp } => store(st, Width::Q, ra, rb, disp),
        Instruction::Stl { ra, rb, disp } => store(st, Width::L, ra, rb, disp),
        Instruction::Stt { fa, rb, disp } => store(st, Width::T, fa, rb, disp),
        Instruction::IntOp { op, ra, rb, rc } => {
            let b = match rb {
                RegOrLit::Reg(r) => read(st, r),
                RegOrLit::Lit(l) => Rc::new(Expr::Const(u64::from(l))),
            };
            let v = fold(op, read(st, ra), b);
            write(st, rc, v);
        }
        Instruction::FpOp { op, fa, fb, fc } => {
            let v = Rc::new(Expr::FOp(op, read(st, fa), read(st, fb)));
            write(st, fc, v);
        }
        Instruction::CondBr { .. }
        | Instruction::Br { .. }
        | Instruction::Jmp { .. }
        | Instruction::CallPal { .. } => {
            debug_assert!(false, "terminators are handled by the caller");
        }
    }
}

fn load(st: &mut SymState, w: Width, ra: Reg, rb: Reg, disp: i16) {
    let addr = add_disp(read(st, rb), i64::from(disp));
    let v = Rc::new(Expr::Load(w, st.stores.len(), addr));
    write(st, ra, v);
}

fn store(st: &mut SymState, w: Width, ra: Reg, rb: Reg, disp: i16) {
    let addr = add_disp(read(st, rb), i64::from(disp));
    let val = read(st, ra);
    st.stores.push((w, addr, val));
}

/// Validates that `new` is an observably equivalent rewrite of `old`
/// under `map`, purely statically.
#[must_use]
pub fn validate_with(old: &Image, new: &Image, map: &AddressMap, opts: &TvOptions) -> TvResult {
    let mut report = Report::new();
    let context = new.name().to_string();
    let empty = |report| TvResult {
        report,
        segments: 0,
        proved: 0,
    };
    let old_i = match old.decode_all() {
        Ok(v) => v,
        Err(e) => {
            report.flag(
                Category::TvStructure,
                &context,
                format!("old image does not decode: {e:?}"),
            );
            return empty(report);
        }
    };
    let new_i = match new.decode_all() {
        Ok(v) => v,
        Err(e) => {
            report.flag(
                Category::TvStructure,
                &context,
                format!("new image does not decode: {e:?}"),
            );
            return empty(report);
        }
    };
    let on = old_i.len();
    let nn = new_i.len();
    if map.len() != on || map.new_words as usize != nn {
        report.flag(
            Category::TvStructure,
            &context,
            format!(
                "map shape ({} old, {} new words) does not match the images ({on} old, {nn} new)",
                map.len(),
                map.new_words
            ),
        );
        return empty(report);
    }
    if let Err(w) = map.check_bijective() {
        report.flag(
            Category::TvStructure,
            Loc::at(&context).pc(u64::from(w) * 4),
            "map is not injective: two old words share a new word",
        );
        return empty(report);
    }
    let mut m2n = vec![0u32; on];
    let mut origin: Vec<Option<u32>> = vec![None; nn];
    for (w, slot) in m2n.iter_mut().enumerate() {
        let q = map.get(w as u32).filter(|&q| (q as usize) < nn);
        let Some(q) = q else {
            report.flag(
                Category::TvStructure,
                Loc::at(&context).pc(w as u64 * 4),
                "old word is unmapped or maps outside the new text",
            );
            return empty(report);
        };
        *slot = q;
        origin[q as usize] = Some(w as u32);
    }
    if on == 0 {
        return empty(report);
    }

    // Cut the old text into segments.
    let mut leader = vec![false; on];
    let mut sym_start = vec![false; on];
    leader[0] = true;
    for sym in old.symbols() {
        let s = (sym.offset / 4) as usize;
        if s < on {
            leader[s] = true;
            sym_start[s] = true;
        }
        let e = ((sym.offset + sym.size) / 4) as usize;
        if e < on {
            leader[e] = true;
        }
    }
    for (w, insn) in old_i.iter().enumerate() {
        let flow = insn.flow();
        if flow != Flow::Next && w + 1 < on {
            leader[w + 1] = true;
        }
        if let Some(t) = flow.target(w as u32) {
            if (0..on as i64).contains(&t) {
                leader[t as usize] = true;
            }
        }
        if let Flow::IndirectJump { rb } | Flow::IndirectCall { rb } = flow {
            // A materialized call target is enterable by address.
            let unit = (w > 0).then(|| li_value_at(&old_i, w - 1, rb)).flatten();
            if let Some((_, v)) = unit {
                if let Some(off) = u64::try_from(v)
                    .ok()
                    .and_then(|v| v.checked_sub(opts.code_base))
                {
                    if off % 4 == 0 && off / 4 < on as u64 {
                        leader[(off / 4) as usize] = true;
                    }
                }
            }
        }
    }
    let mut bounds = Vec::new();
    let mut start = 0usize;
    for (w, &l) in leader.iter().enumerate().skip(1) {
        if l {
            bounds.push((start, w));
            start = w;
        }
    }
    bounds.push((start, on));
    let mut segments = Vec::with_capacity(bounds.len());
    let mut seg_of = vec![0usize; on];
    for (i, &(s, e)) in bounds.iter().enumerate() {
        let lo = (s..e).map(|w| m2n[w]).min().unwrap_or(0);
        let hi = (s..e).map(|w| m2n[w]).max().unwrap_or(0);
        segments.push(Segment {
            start: s as u32,
            end: e as u32,
            lo,
            hi,
            sym_start: sym_start[s],
        });
        seg_of[s..e].fill(i);
    }
    let ctx = Ctx {
        base: opts.code_base,
        old_i: &old_i,
        new_i: &new_i,
        m2n,
        origin,
        seg_of,
        segments,
        context,
    };

    let total = ctx.segments.len();
    let mut proved = 0usize;
    for i in 0..total {
        let before = report.errors();
        validate_segment(&ctx, i, &mut report);
        if report.errors() == before {
            proved += 1;
        }
    }

    // Every new word outside all regions must be inert padding or glue
    // that reaches mapped code.
    let mut in_region = vec![false; nn];
    for seg in &ctx.segments {
        for q in seg.lo..=seg.hi {
            in_region[q as usize] = true;
        }
    }
    for (q, insn) in new_i.iter().enumerate() {
        if in_region[q] || ctx.origin[q].is_some() {
            continue;
        }
        let ok = *insn == Instruction::NOP
            || (matches!(insn.flow(), Flow::Jump { .. }) && ctx.resolve(q as u32).is_some());
        if !ok {
            report.flag(
                Category::TvStructure,
                Loc::at(&ctx.context).pc(q as u64 * 4),
                format!("inserted word at new word {q} is neither padding nor resolvable glue"),
            );
        }
    }

    TvResult {
        report,
        segments: total,
        proved,
    }
}

/// Checks one segment: region purity, terminator correspondence,
/// continuation, and symbolic state equivalence.
#[allow(clippy::too_many_lines)]
fn validate_segment(ctx: &Ctx<'_>, i: usize, report: &mut Report) {
    let seg = &ctx.segments[i];
    let (s, e) = (seg.start as usize, seg.end as usize);
    let at = Loc::at(&ctx.context).pc(seg.start as u64 * 4).block(i);
    let on = ctx.old_i.len();

    // The region may interleave only with inserted (unmapped) words.
    for q in seg.lo..=seg.hi {
        if let Some(ow) = ctx.origin[q as usize] {
            if ctx.seg_of[ow as usize] != i {
                report.flag(
                    Category::TvStructure,
                    at,
                    format!(
                        "region {}..={} interleaves with another segment (new word {q} is old word {ow})",
                        seg.lo, seg.hi
                    ),
                );
                return;
            }
        }
    }

    // A procedure entry must sit exactly at the region start: the OS
    // dispatches there by symbol offset, bypassing every checked edge.
    if seg.sym_start && ctx.m2n[s] != seg.lo {
        report.flag(
            Category::TvControl,
            at,
            format!(
                "procedure entry at old word {s} maps to new word {} instead of its region start {}",
                ctx.m2n[s], seg.lo
            ),
        );
    }

    let old_term = ctx.old_i[e - 1].is_control().then(|| ctx.old_i[e - 1]);
    if old_term.is_some() && ctx.m2n[e - 1] != seg.hi {
        report.flag(
            Category::TvStructure,
            at,
            format!(
                "old terminator at word {} maps to new word {}, inside its region (end {})",
                e - 1,
                ctx.m2n[e - 1],
                seg.hi
            ),
        );
        return;
    }

    // Symbolic execution of both sides from a common entry state.
    let mut ost = init_state();
    let body_end = if old_term.is_some() { e - 1 } else { e };
    for w in s..body_end {
        step(&mut ost, &ctx.old_i[w]);
    }
    let mut nst = init_state();
    let mut new_term = None;
    for q in seg.lo..=seg.hi {
        let insn = ctx.new_i[q as usize];
        if insn.is_control() {
            if q != seg.hi || old_term.is_none() {
                report.flag(
                    Category::TvStructure,
                    at,
                    format!("control transfer at new word {q} has no old counterpart"),
                );
                return;
            }
            new_term = Some(insn);
        } else {
            step(&mut nst, &insn);
        }
    }
    if old_term.is_some() && new_term.is_none() {
        report.flag(
            Category::TvControl,
            at,
            format!(
                "old terminator {} was dropped from the rewrite",
                ctx.old_i[e - 1]
            ),
        );
        return;
    }

    // The continuation out of new word `from` must resume at old word
    // `to`'s region start.
    let check_cont = |report: &mut Report, from: i64, to: usize, what: &str| -> bool {
        let want = ctx.entry_of(to);
        let got = u32::try_from(from).ok().and_then(|q| ctx.resolve(q));
        if got == Some(want) {
            true
        } else {
            report.flag(
                Category::TvControl,
                at,
                format!(
                    "{what} from new word {from} reaches {got:?}, but old execution continues \
                     at word {to} (region start {want})"
                ),
            );
            false
        }
    };

    match (old_term, new_term) {
        (None, None) => {
            if e < on {
                check_cont(report, i64::from(seg.hi) + 1, e, "fallthrough");
            }
        }
        (
            Some(Instruction::CondBr { cond, ra, disp }),
            Some(Instruction::CondBr {
                cond: nc,
                ra: nra,
                disp: ndisp,
            }),
        ) => {
            if nra != ra {
                report.flag(
                    Category::TvControl,
                    at,
                    format!("branch tests {nra} instead of {ra}"),
                );
                return;
            }
            let (tv_old, tv_new) = (read(&ost, ra), read(&nst, nra));
            if tv_old != tv_new {
                report.flag(
                    Category::TvState,
                    at,
                    format!(
                        "branch test value changed: {} vs {}",
                        brief(&tv_old),
                        brief(&tv_new)
                    ),
                );
                return;
            }
            let t = branch_target((e - 1) as u32, disp);
            if !(0..on as i64).contains(&t) {
                report.flag(
                    Category::TvControl,
                    at,
                    format!("old branch target {t} escapes the text"),
                );
                return;
            }
            let (t, nt) = (t as usize, branch_target(seg.hi, ndisp));
            if nc == cond {
                check_cont(report, nt, t, "taken branch");
                if e < on {
                    check_cont(report, i64::from(seg.hi) + 1, e, "branch fallthrough");
                }
            } else if nc == invert_cond(cond) {
                if e >= on {
                    report.flag(
                        Category::TvControl,
                        at,
                        "inverted branch at the end of the text has no fallthrough",
                    );
                    return;
                }
                check_cont(report, nt, e, "inverted taken branch");
                check_cont(report, i64::from(seg.hi) + 1, t, "inverted fallthrough");
            } else {
                report.flag(
                    Category::TvControl,
                    at,
                    format!("branch condition changed from {cond:?} to {nc:?}"),
                );
                return;
            }
        }
        (
            Some(Instruction::Br { ra, disp }),
            Some(Instruction::Br {
                ra: nra,
                disp: ndisp,
            }),
        ) => {
            if nra != ra {
                report.flag(
                    Category::TvControl,
                    at,
                    format!("branch writes {nra} instead of {ra}"),
                );
                return;
            }
            let t = branch_target((e - 1) as u32, disp);
            if !(0..on as i64).contains(&t) {
                report.flag(
                    Category::TvControl,
                    at,
                    format!("old branch target {t} escapes the text"),
                );
                return;
            }
            check_cont(report, branch_target(seg.hi, ndisp), t as usize, "branch");
            if !ra.is_zero() {
                write(&mut ost, ra, Rc::new(Expr::Const(ctx.base + e as u64 * 4)));
                write(
                    &mut nst,
                    ra,
                    Rc::new(Expr::Const(ctx.base + (u64::from(seg.hi) + 1) * 4)),
                );
                if e < on {
                    check_cont(report, i64::from(seg.hi) + 1, e, "return continuation");
                }
            }
        }
        (Some(Instruction::Jmp { ra, rb }), Some(Instruction::Jmp { ra: nra, rb: nrb })) => {
            if nra != ra || nrb != rb {
                report.flag(
                    Category::TvControl,
                    at,
                    format!("indirect jump operands changed ({ra},{rb}) -> ({nra},{nrb})"),
                );
                return;
            }
            let (to, tn) = (read(&ost, rb), read(&nst, nrb));
            if !ctx.corresponds(&to, &tn) {
                report.flag(
                    Category::TvControl,
                    at,
                    format!(
                        "indirect target value changed: {} vs {}",
                        brief(&to),
                        brief(&tn)
                    ),
                );
                return;
            }
            if !ra.is_zero() {
                write(&mut ost, ra, Rc::new(Expr::Const(ctx.base + e as u64 * 4)));
                write(
                    &mut nst,
                    ra,
                    Rc::new(Expr::Const(ctx.base + (u64::from(seg.hi) + 1) * 4)),
                );
                if e < on {
                    check_cont(report, i64::from(seg.hi) + 1, e, "return continuation");
                }
            }
        }
        (Some(Instruction::CallPal { func }), Some(Instruction::CallPal { func: nf })) => {
            if nf != func {
                report.flag(
                    Category::TvControl,
                    at,
                    format!("PAL call changed from {func:?} to {nf:?}"),
                );
                return;
            }
            if func != PalFunc::Halt && e < on {
                check_cont(report, i64::from(seg.hi) + 1, e, "PAL continuation");
            }
        }
        (Some(a), Some(b)) => {
            report.flag(
                Category::TvControl,
                at,
                format!("terminator kind changed from `{a}` to `{b}`"),
            );
            return;
        }
        (None, Some(_)) | (Some(_), None) => unreachable!("handled above"),
    }

    // Observable state: store streams, then every register.
    if ost.stores.len() != nst.stores.len() {
        report.flag(
            Category::TvState,
            at,
            format!(
                "store count changed: {} vs {}",
                ost.stores.len(),
                nst.stores.len()
            ),
        );
        return;
    }
    for (k, ((wo, ao, vo), (wn, an, vn))) in ost.stores.iter().zip(nst.stores.iter()).enumerate() {
        if wo != wn || ao != an {
            report.flag(
                Category::TvState,
                at,
                format!(
                    "store {k} changed width or address: {} vs {}",
                    brief(ao),
                    brief(an)
                ),
            );
            return;
        }
        if !ctx.corresponds(vo, vn) {
            report.flag(
                Category::TvState,
                at,
                format!("store {k} value changed: {} vs {}", brief(vo), brief(vn)),
            );
            return;
        }
    }
    for r in 0..Reg::COUNT {
        let (a, b) = (&ost.regs[r], &nst.regs[r]);
        if !ctx.corresponds(a, b) {
            report.flag(
                Category::TvState,
                at,
                format!(
                    "{:?} differs at segment exit: {} vs {}",
                    Reg::from_index(r as u8),
                    brief(a),
                    brief(b)
                ),
            );
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::encode::encode;
    use dcpi_isa::image::Symbol;
    use dcpi_isa::insn::BrCond;

    fn image(name: &str, insns: Vec<Instruction>, syms: Vec<Symbol>) -> Image {
        let words: Vec<u32> = insns.into_iter().map(encode).collect();
        Image::new(name.into(), words, syms)
    }

    fn sym(name: &str, off: u64, words: u64) -> Symbol {
        Symbol {
            name: name.into(),
            offset: off,
            size: words * 4,
        }
    }

    /// bne t0, +1; addq t1,t1,t1; halt
    fn small() -> Image {
        image(
            "/t/small",
            vec![
                Instruction::CondBr {
                    cond: BrCond::Bne,
                    ra: Reg::T0,
                    disp: 1,
                },
                Instruction::IntOp {
                    op: IntOp::Addq,
                    ra: Reg::T1,
                    rb: RegOrLit::Reg(Reg::T1),
                    rc: Reg::T1,
                },
                Instruction::CallPal {
                    func: PalFunc::Halt,
                },
            ],
            vec![sym("main", 0, 3)],
        )
    }

    #[test]
    fn identity_rewrite_is_proved() {
        let img = small();
        let map = AddressMap::identity(img.name(), img.name(), img.words().len());
        let res = validate_with(&img, &img, &map, &TvOptions::default());
        assert!(res.report.is_clean(), "{}", res.report.render());
        assert_eq!(res.segments, 3);
        assert_eq!(res.proved, 3);
    }

    #[test]
    fn flipped_branch_sense_without_retarget_is_rejected() {
        let img = small();
        let mut words = img.words().to_vec();
        words[0] = encode(Instruction::CondBr {
            cond: BrCond::Beq, // inverted sense, same layout
            ra: Reg::T0,
            disp: 1,
        });
        let bad = Image::new(img.name().into(), words, img.symbols().to_vec());
        let map = AddressMap::identity(img.name(), img.name(), img.words().len());
        let r = validate(&img, &bad, &map);
        assert!(!r.is_clean());
        assert!(r.render().contains("tv-control"), "{}", r.render());
    }

    #[test]
    fn cli_output_leads_with_the_segment_tally() {
        let img = small();
        let mut words = img.words().to_vec();
        words[0] = encode(Instruction::CondBr {
            cond: BrCond::Beq,
            ra: Reg::T0,
            disp: 1,
        });
        let bad = Image::new(img.name().into(), words, img.symbols().to_vec());
        let map = AddressMap::identity(img.name(), img.name(), img.words().len());
        let res = validate_with(&img, &bad, &map, &TvOptions::default());
        assert_eq!((res.proved, res.segments), (2, 3));
        let report = res.report.render();
        assert_eq!(
            res.render(),
            format!("dcpicheck tv: proved 2/3 segment(s)\n{report}")
        );
        // The tallies sit right after the schema line, as a splice into
        // the plain report's JSON would put them.
        let spliced = res.report.to_json().replacen(
            "\"schema\": 1,",
            "\"schema\": 1,\n  \"segments\": 3,\n  \"proved\": 2,",
            1,
        );
        assert_eq!(res.to_json(), spliced);
    }

    #[test]
    fn dropped_or_changed_instruction_is_rejected() {
        let img = small();
        let subq = Instruction::IntOp {
            op: IntOp::Subq,
            ra: Reg::T1,
            rb: RegOrLit::Reg(Reg::T1),
            rc: Reg::T1,
        };
        for insn in [Instruction::NOP, subq] {
            let mut words = img.words().to_vec();
            words[1] = encode(insn); // was addq t1, t1, t1
            let bad = Image::new(img.name().into(), words, img.symbols().to_vec());
            let map = AddressMap::identity(img.name(), img.name(), img.words().len());
            let r = validate(&img, &bad, &map);
            assert!(r.render().contains("tv-state"), "{insn}: {}", r.render());
        }
    }

    #[test]
    fn wrong_displacement_is_rejected() {
        let img = small();
        let mut words = img.words().to_vec();
        words[0] = encode(Instruction::CondBr {
            cond: BrCond::Bne,
            ra: Reg::T0,
            disp: 0, // off by one
        });
        let bad = Image::new(img.name().into(), words, img.symbols().to_vec());
        let map = AddressMap::identity(img.name(), img.name(), img.words().len());
        let r = validate(&img, &bad, &map);
        assert!(r.render().contains("tv-control"), "{}", r.render());
    }

    #[test]
    fn non_bijective_map_is_rejected() {
        let img = small();
        let mut map = AddressMap::identity(img.name(), img.name(), img.words().len());
        map.set(1, 0); // two old words land on new word 0
        let r = validate(&img, &img, &map);
        assert!(r.render().contains("tv-structure"), "{}", r.render());
    }

    /// `small()` with its successor blocks swapped and the branch
    /// inverted (`beq` aimed at new word `1 + disp`), glued back to the
    /// halt.
    fn swapped(disp: i32) -> (Image, Image, AddressMap) {
        let img = small();
        let new = Image::new(
            "/t/small.pgo".into(),
            vec![
                encode(Instruction::CondBr {
                    cond: BrCond::Beq,
                    ra: Reg::T0,
                    disp,
                }),
                img.words()[2], // halt
                img.words()[1], // add
                encode(Instruction::Br {
                    ra: Reg::ZERO,
                    disp: -3, // glue back to the halt
                }),
            ],
            vec![sym("main", 0, 4)],
        );
        let mut map = AddressMap::identity(img.name(), "/t/small.pgo", 3);
        map.new_words = 4;
        map.set(1, 2);
        map.set(2, 1);
        (img, new, map)
    }

    #[test]
    fn inverted_branch_with_glue_is_proved_only_at_the_old_fallthrough() {
        let (old, new, map) = swapped(1); // the add: the old fallthrough
        let res = validate_with(&old, &new, &map, &TvOptions::default());
        assert!(res.report.is_clean(), "{}", res.report.render());
        assert_eq!(res.proved, res.segments);
        let (old, new, map) = swapped(0); // the halt: the old taken target
        let r = validate(&old, &new, &map);
        assert!(r.render().contains("tv-control"), "{}", r.render());
    }

    #[test]
    fn reachable_nop_padding_is_proved() {
        // A nop on the branch's fallthrough path changes no state, so the
        // rewrite is equivalent however often the pad runs.
        let img = small();
        let new = Image::new(
            "/t/small.pgo".into(),
            vec![
                encode(Instruction::CondBr {
                    cond: BrCond::Bne,
                    ra: Reg::T0,
                    disp: 2, // -> new word 3 (the halt)
                }),
                encode(Instruction::NOP),
                img.words()[1], // add
                img.words()[2], // halt
            ],
            vec![sym("main", 0, 4)],
        );
        let mut map = AddressMap::identity(img.name(), "/t/small.pgo", 3);
        map.new_words = 4;
        map.set(1, 2);
        map.set(2, 3);
        let res = validate_with(&img, &new, &map, &TvOptions::default());
        assert!(res.report.is_clean(), "{}", res.report.render());
        assert_eq!(res.proved, res.segments);
    }

    #[test]
    fn an_inserted_word_that_is_not_padding_is_rejected() {
        // br +1 skips the add; the new text puts a word on the dead path.
        let old = image(
            "/t/pad",
            vec![
                Instruction::Br {
                    ra: Reg::ZERO,
                    disp: 1,
                },
                Instruction::IntOp {
                    op: IntOp::Addq,
                    ra: Reg::T1,
                    rb: RegOrLit::Reg(Reg::T1),
                    rc: Reg::T1,
                },
                Instruction::CallPal {
                    func: PalFunc::Halt,
                },
            ],
            vec![sym("main", 0, 3)],
        );
        let with_pad = |pad: Instruction| {
            let words = vec![
                encode(Instruction::Br {
                    ra: Reg::ZERO,
                    disp: 2, // -> new word 3 (the halt)
                }),
                old.words()[1],
                encode(pad),
                old.words()[2],
            ];
            Image::new("/t/pad.pgo".into(), words, vec![sym("main", 0, 4)])
        };
        let mut map = AddressMap::identity(old.name(), "/t/pad.pgo", 3);
        map.new_words = 4;
        map.set(2, 3);
        let r = validate(&old, &with_pad(Instruction::NOP), &map);
        assert!(r.is_clean(), "{}", r.render());
        // An `lda` with no `ldah` before it writes t0.
        let stray = Instruction::Lda {
            ra: Reg::T0,
            rb: Reg::T0,
            disp: 8,
        };
        let r = validate(&old, &with_pad(stray), &map);
        assert!(r.render().contains("tv-structure"), "{}", r.render());
    }

    #[test]
    fn an_inserted_lda_is_proved_by_the_address_it_builds() {
        // f: ret. main: ldah t12, 1(zero) (f's address); jsr; halt. The
        // rewrite moves f after main, so the call unit gains an unmapped
        // `lda` that must finish f's new address, and nothing else.
        let old = image(
            "/t/unit",
            vec![
                Instruction::Jmp {
                    ra: Reg::ZERO,
                    rb: Reg::RA,
                },
                Instruction::Ldah {
                    ra: Reg::T12,
                    rb: Reg::ZERO,
                    disp: 1,
                },
                Instruction::Jmp {
                    ra: Reg::RA,
                    rb: Reg::T12,
                },
                Instruction::CallPal {
                    func: PalFunc::Halt,
                },
            ],
            vec![sym("f", 0, 1), sym("main", 4, 3)],
        );
        let with_lda = |disp: i16| {
            let w = old.words();
            let lda = encode(Instruction::Lda {
                ra: Reg::T12,
                rb: Reg::T12,
                disp,
            });
            let words = vec![w[1], lda, w[2], w[3], w[0]];
            Image::new(
                "/t/unit.pgo".into(),
                words,
                vec![sym("main", 0, 4), sym("f", 16, 1)],
            )
        };
        let mut map = AddressMap::identity(old.name(), "/t/unit.pgo", 4);
        map.new_words = 5;
        for (w, q) in [(0, 4), (1, 0), (2, 2), (3, 3)] {
            map.set(w, q);
        }
        let res = validate_with(&old, &with_lda(16), &map, &TvOptions::default());
        assert!(res.report.is_clean(), "{}", res.report.render());
        assert_eq!(res.proved, res.segments);
        // Aimed at the `jsr` instead of f: the call goes elsewhere.
        let r = validate(&old, &with_lda(8), &map);
        assert!(r.render().contains("tv-control"), "{}", r.render());
    }

    #[test]
    fn call_return_addresses_correspond_across_moves() {
        // main: bsr f; halt. f: stq ra,0(sp); ret — the spilled return
        // address differs between images once padding shifts the call.
        let old = image(
            "/t/call",
            vec![
                Instruction::Br {
                    ra: Reg::RA,
                    disp: 1, // -> f at word 2
                },
                Instruction::CallPal {
                    func: PalFunc::Halt,
                },
                Instruction::Stq {
                    ra: Reg::RA,
                    rb: Reg::SP,
                    disp: 0,
                },
                Instruction::Jmp {
                    ra: Reg::ZERO,
                    rb: Reg::RA,
                },
            ],
            vec![sym("main", 0, 2), sym("f", 8, 2)],
        );
        // Insert a nop pad before f: every f word shifts by one.
        let nop = Instruction::IntOp {
            op: IntOp::Bis,
            ra: Reg::ZERO,
            rb: RegOrLit::Reg(Reg::ZERO),
            rc: Reg::ZERO,
        };
        let new = image(
            "/t/call.pgo",
            vec![
                Instruction::Br {
                    ra: Reg::RA,
                    disp: 2, // -> f at word 3
                },
                Instruction::CallPal {
                    func: PalFunc::Halt,
                },
                nop,
                Instruction::Stq {
                    ra: Reg::RA,
                    rb: Reg::SP,
                    disp: 0,
                },
                Instruction::Jmp {
                    ra: Reg::ZERO,
                    rb: Reg::RA,
                },
            ],
            vec![sym("main", 0, 2), sym("f", 12, 2)],
        );
        let mut map = AddressMap::identity(old.name(), new.name(), 4);
        map.new_words = 5;
        map.set(2, 3);
        map.set(3, 4);
        let res = validate_with(&old, &new, &map, &TvOptions::default());
        assert!(res.report.is_clean(), "{}", res.report.render());
        assert_eq!(res.proved, res.segments);
    }

    #[test]
    fn moved_procedure_entry_must_sit_at_its_region_start() {
        // Map f's two words swapped: the entry no longer leads.
        let old = image(
            "/t/swap",
            vec![
                Instruction::Lda {
                    ra: Reg::T0,
                    rb: Reg::ZERO,
                    disp: 1,
                },
                Instruction::CallPal {
                    func: PalFunc::Halt,
                },
            ],
            vec![sym("main", 0, 2)],
        );
        // Identity image but a map claiming the entry moved.
        let mut map = AddressMap::identity(old.name(), old.name(), 2);
        map.set(0, 1);
        map.set(1, 0);
        let r = validate(&old, &old, &map);
        assert!(!r.is_clean(), "{}", r.render());
    }
}
