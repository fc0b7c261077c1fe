//! The rewrite engine: safety scan, per-procedure planning, position
//! assignment, and final encoding with a total old→new address map.
//!
//! The engine is deliberately conservative. It refuses to rewrite an
//! image it cannot prove it understands (an indirect jump with no
//! recognizable address unit, a branch out of the text, a branch into
//! the middle of an address unit), and it demotes individual procedures
//! to *identity* layout — original instruction order, re-encoded
//! branches only — when moving their blocks could change behavior (a
//! procedure that can fall off its own end, or one entered mid-block by
//! another procedure). Nothing is ever deleted: every original
//! instruction appears exactly once in the rewritten image, which is
//! what makes the address map total and old profiles attributable.

use crate::layout;
use crate::report::PgoReport;
use crate::sched;
use dcpi_analyze::cfg::Cfg;
use dcpi_analyze::export::ExportedProc;
use dcpi_isa::encode::encode;
use dcpi_isa::image::TEXT_BASE;
use dcpi_isa::pipeline::PipelineModel;
use dcpi_isa::rewrite::{disp_for, invert_cond, li_split, li_value_at, retarget};
use dcpi_isa::{AddressMap, Flow, Image, Instruction, Reg, Symbol};
use std::collections::{BTreeMap, BTreeSet};

/// Suffix appended to the pathname of a rewritten image, so the OS
/// loader (which dedupes images by name) treats it as distinct.
pub const PGO_SUFFIX: &str = ".pgo";

/// I-cache line size in words, for alignment of I-cache-miss-culprit
/// blocks.
const ICACHE_LINE_WORDS: u32 = 8;

/// Minimum estimated block frequency (S/M units) for padding to be
/// considered worth the bytes.
const HOT_FREQ: f64 = 0.05;

/// Where the image lives, and whether to prove the rewrite. Every
/// transform always runs: hot/cold block layout, hot-first procedure
/// packing, branch sense inversion, dead alignment padding and
/// intra-block rescheduling against the default pipeline model.
#[derive(Clone, Debug)]
pub struct PgoOptions {
    /// Virtual address the image text is mapped at ([`TEXT_BASE`]);
    /// needed to recognize and re-point absolute call addresses
    /// materialized by `ldah`/`lda` units.
    pub code_base: u64,
    /// Addresses at or above this are external (kernel) and never
    /// re-pointed (the machine's `KERNEL_BASE`).
    pub external_floor: u64,
    /// Statically prove the rewrite equivalent with `dcpi-check`'s
    /// translation validator before returning it; a rewrite that cannot
    /// be proved is refused ([`Skip::ValidationFailed`]).
    pub validate: bool,
}

impl Default for PgoOptions {
    fn default() -> PgoOptions {
        PgoOptions {
            code_base: TEXT_BASE,
            external_floor: 0x7000_0000,
            validate: false,
        }
    }
}

/// Why an image was left untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Skip {
    /// The image has no text.
    NoText,
    /// The image has no symbols, so there are no safe entry points.
    NoSymbols,
    /// The text failed to decode.
    Undecodable(String),
    /// An indirect jump whose target register is not produced by a
    /// recognizable immediately-preceding address unit.
    UnresolvedIndirect {
        /// Word index of the jump.
        word: u32,
    },
    /// A branch targets an address outside the image text.
    BranchOutOfText {
        /// Word index of the branch.
        word: u32,
    },
    /// A call-address unit is malformed: misaligned target, a branch
    /// into the middle of the unit, or a unit straddling an emission
    /// boundary.
    BadCallTarget {
        /// Word index of the offending instruction.
        word: u32,
    },
    /// A symbol is not word-aligned or overlaps its neighbor.
    BadSymbol {
        /// Name of the offending symbol.
        name: String,
    },
    /// The translation validator could not prove the finished rewrite
    /// equivalent to the original (only with [`PgoOptions::validate`]).
    ValidationFailed {
        /// Error-severity findings in the validator's report.
        errors: usize,
    },
}

impl std::fmt::Display for Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skip::NoText => write!(f, "image has no text"),
            Skip::NoSymbols => write!(f, "image has no symbols"),
            Skip::Undecodable(e) => write!(f, "text does not decode: {e}"),
            Skip::UnresolvedIndirect { word } => {
                write!(f, "unresolved indirect jump at word {word}")
            }
            Skip::BranchOutOfText { word } => {
                write!(f, "branch out of text at word {word}")
            }
            Skip::BadCallTarget { word } => {
                write!(f, "bad call-address unit near word {word}")
            }
            Skip::BadSymbol { name } => write!(f, "bad symbol {name}"),
            Skip::ValidationFailed { errors } => {
                write!(f, "translation validation failed with {errors} error(s)")
            }
        }
    }
}

/// The result of a successful rewrite.
#[derive(Clone, Debug)]
pub struct Rewritten {
    /// The rewritten image, named `<old>.pgo`.
    pub image: Image,
    /// Total old-word → new-word map.
    pub map: AddressMap,
    /// What was done.
    pub report: PgoReport,
}

/// A recognized call-address unit: the `ldah`/`lda` word(s) immediately
/// preceding an indirect jump, materializing an in-text code address.
#[derive(Clone, Copy, Debug)]
struct Patch {
    unit_start: u32,
    unit_len: u32,
    reg: Reg,
    target_word: u32,
}

/// One emitted word of the plan.
#[derive(Clone, Copy, Debug)]
enum Item {
    /// An original instruction (branches re-encoded via the map).
    Old(u32),
    /// High half of a re-pointed call-address unit.
    PatchHi { patch: usize, old: u32 },
    /// Low half; `old` is `None` when the original unit was one word.
    PatchLo { patch: usize, old: Option<u32> },
    /// Original conditional branch with inverted sense, targeting the
    /// old fallthrough block head (old word index).
    Invert { old: u32, target: u32 },
    /// Inserted unconditional branch to an old word's new position.
    NewBr { target: u32 },
}

struct BlockPlan {
    items: Vec<Item>,
    freq: f64,
    icache_hot: bool,
    reschedulable: bool,
    falls_through: bool,
    pad_before: u32,
    start_pos: u32,
}

struct UnitPlan {
    sym: Option<usize>,
    samples: u64,
    blocks: Vec<BlockPlan>,
}

/// Finds every indirect jump's address unit, classifying targets as
/// external (left alone) or in-text (re-pointed).
fn scan_calls(insns: &[Instruction], opts: &PgoOptions) -> Result<Vec<Patch>, Skip> {
    let text_end = opts.code_base + 4 * insns.len() as u64;
    let mut patches = Vec::new();
    for (i, insn) in insns.iter().enumerate() {
        // A return's target is a runtime value by design.
        let (Flow::IndirectJump { rb } | Flow::IndirectCall { rb }) = insn.flow() else {
            continue;
        };
        let unit = (i > 0).then(|| li_value_at(insns, i - 1, rb)).flatten();
        let Some((first, v)) = unit else {
            return Err(Skip::UnresolvedIndirect { word: i as u32 });
        };
        if v < 0 || (v as u64) < opts.code_base || (v as u64) >= text_end {
            continue; // external (kernel or data) — the value still holds
        }
        let rel = v as u64 - opts.code_base;
        if !rel.is_multiple_of(4) {
            return Err(Skip::BadCallTarget { word: i as u32 });
        }
        patches.push(Patch {
            unit_start: first as u32,
            unit_len: (i - first) as u32,
            reg: rb,
            target_word: (rel / 4) as u32,
        });
    }
    Ok(patches)
}

/// Every statically-known control target in the text: branch targets,
/// call targets, and re-pointed unit targets.
fn control_targets(insns: &[Instruction], patches: &[Patch]) -> Result<BTreeSet<u32>, Skip> {
    let n = insns.len() as i64;
    let mut targets = BTreeSet::new();
    for (i, insn) in insns.iter().enumerate() {
        let Some(t) = insn.flow().target(i as u32) else {
            continue;
        };
        if t < 0 || t >= n {
            return Err(Skip::BranchOutOfText { word: i as u32 });
        }
        targets.insert(t as u32);
    }
    for p in patches {
        targets.insert(p.target_word);
    }
    Ok(targets)
}

/// Emits the words of `[start, end)` in original order, substituting
/// re-pointed call units.
fn walk_items(
    start: u32,
    end: u32,
    patch_at: &BTreeMap<u32, usize>,
    patches: &[Patch],
) -> Result<Vec<Item>, Skip> {
    let mut items = Vec::with_capacity((end - start) as usize);
    let mut w = start;
    while w < end {
        if let Some(&pi) = patch_at.get(&w) {
            let p = &patches[pi];
            if w + p.unit_len > end {
                return Err(Skip::BadCallTarget { word: w });
            }
            items.push(Item::PatchHi { patch: pi, old: w });
            items.push(Item::PatchLo {
                patch: pi,
                old: (p.unit_len == 2).then_some(w + 1),
            });
            w += p.unit_len;
        } else {
            items.push(Item::Old(w));
            w += 1;
        }
    }
    Ok(items)
}

/// The instruction an item will (approximately) encode to — displacement
/// values are placeholders, which is fine for schedule costing.
fn item_insn(item: &Item, insns: &[Instruction], patches: &[Patch]) -> Instruction {
    match *item {
        Item::Old(w) => insns[w as usize],
        Item::PatchHi { patch, .. } => Instruction::Ldah {
            ra: patches[patch].reg,
            rb: Reg::ZERO,
            disp: 0,
        },
        Item::PatchLo { patch, .. } => Instruction::Lda {
            ra: patches[patch].reg,
            rb: patches[patch].reg,
            disp: 0,
        },
        Item::Invert { old, .. } => match insns[old as usize] {
            Instruction::CondBr { cond, ra, disp } => Instruction::CondBr {
                cond: invert_cond(cond),
                ra,
                disp,
            },
            other => other,
        },
        Item::NewBr { .. } => Instruction::Br {
            ra: Reg::ZERO,
            disp: 0,
        },
    }
}

/// Carves the text into procedure and gap ranges.
fn unit_ranges(image: &Image, n: u32) -> Result<Vec<(Option<usize>, u32, u32)>, Skip> {
    let mut ranges = Vec::new();
    let mut cursor = 0u32;
    for (si, s) in image.symbols().iter().enumerate() {
        if !s.offset.is_multiple_of(4) || !s.size.is_multiple_of(4) {
            return Err(Skip::BadSymbol {
                name: s.name.clone(),
            });
        }
        if s.size == 0 {
            continue;
        }
        let (sw, ew) = ((s.offset / 4) as u32, ((s.offset + s.size) / 4) as u32);
        if sw < cursor {
            return Err(Skip::BadSymbol {
                name: s.name.clone(),
            });
        }
        if sw > cursor {
            ranges.push((None, cursor, sw));
        }
        ranges.push((Some(si), sw, ew));
        cursor = ew;
    }
    if cursor < n {
        ranges.push((None, cursor, n));
    }
    Ok(ranges)
}

/// Plans one procedure with full layout; `None` demotes it to identity.
#[allow(clippy::too_many_arguments)]
fn plan_procedure(
    image: &Image,
    sym: &Symbol,
    insns: &[Instruction],
    est: Option<&ExportedProc>,
    targets: &BTreeSet<u32>,
    patch_at: &BTreeMap<u32, usize>,
    patches: &[Patch],
    report: &mut PgoReport,
) -> Option<Vec<BlockPlan>> {
    let (sw, ew) = (
        (sym.offset / 4) as u32,
        ((sym.offset + sym.size) / 4) as u32,
    );
    if insns[(ew - 1) as usize].flow().falls_through() {
        return None; // could fall off its own end into whatever follows
    }
    let cfg = Cfg::build(image, sym).ok()?;
    let starts: BTreeSet<u32> = cfg.blocks.iter().map(|b| b.start_word).collect();
    // Every known entry into this procedure must land on a block head,
    // or moving blocks would change what executes after the target.
    if targets
        .iter()
        .any(|&t| t >= sw && t < ew && !starts.contains(&t))
    {
        return None;
    }

    // Frequencies from the export, matched by absolute block start.
    let block_freq: Vec<f64> = cfg
        .blocks
        .iter()
        .map(|b| {
            est.and_then(|e| e.block_freq_at(b.start_word))
                .unwrap_or(-1.0)
        })
        .collect();
    let edge_key =
        |from: usize, to: usize, kind: dcpi_analyze::cfg::EdgeKind| (from, to, kind as usize);
    let est_edges: BTreeMap<(usize, usize, usize), f64> = est
        .map(|e| {
            e.edges
                .iter()
                .map(|x| (edge_key(x.from, x.to, x.kind), x.freq))
                .collect()
        })
        .unwrap_or_default();
    let edge_freq: Vec<f64> = cfg
        .edges
        .iter()
        .map(|e| {
            est_edges
                .get(&edge_key(e.from.0, e.to.0, e.kind))
                .copied()
                .unwrap_or(-1.0)
        })
        .collect();

    let order = layout::order_blocks(&cfg, &block_freq, &edge_freq);
    report.blocks_moved += order.iter().enumerate().filter(|&(k, &b)| k != b).count();

    let start_of = |b: usize| cfg.blocks[b].start_word;
    let mut plans = Vec::with_capacity(order.len());
    for (k, &b) in order.iter().enumerate() {
        let blk = &cfg.blocks[b];
        let mut items = walk_items(blk.start_word, blk.end_word(), patch_at, patches).ok()?;
        let next_new_start = order.get(k + 1).map(|&nb| start_of(nb));
        let last = blk.end_word() - 1;
        let flow = insns[last as usize].flow();
        let mut falls_through = false;
        match flow {
            Flow::CondBranch { .. } => {
                let t_abs = flow.target(last).expect("a branch has a target") as u32;
                let f_abs = blk.end_word(); // in-proc: last insn of the proc is hard
                if next_new_start == Some(f_abs) {
                    falls_through = true;
                } else if next_new_start == Some(t_abs) && t_abs != f_abs {
                    let w = match items.pop() {
                        Some(Item::Old(w)) => w,
                        _ => unreachable!("terminator is an original instruction"),
                    };
                    items.push(Item::Invert {
                        old: w,
                        target: f_abs,
                    });
                    falls_through = true;
                    report.branches_inverted += 1;
                } else {
                    items.push(Item::NewBr { target: f_abs });
                    report.branches_added += 1;
                }
            }
            _ if !flow.falls_through() => {}
            _ => {
                // Plain fallthrough, or a call that returns to the next
                // word: preserve the successor.
                let f_abs = blk.end_word();
                if next_new_start == Some(f_abs) {
                    falls_through = true;
                } else {
                    items.push(Item::NewBr { target: f_abs });
                    report.branches_added += 1;
                }
            }
        }
        let byte_range = (u64::from(blk.start_word) * 4)..(u64::from(blk.end_word()) * 4);
        let icache_hot = est.is_some_and(|e| {
            e.insns
                .iter()
                .any(|i| byte_range.contains(&i.offset) && i.culprits.contains('i'))
        });
        plans.push(BlockPlan {
            items,
            freq: block_freq[b],
            icache_hot,
            reschedulable: true,
            falls_through,
            pad_before: 0,
            start_pos: 0,
        });
    }
    report.procs_laid_out += 1;
    Some(plans)
}

/// Rewrites `image` using the exported `estimates`.
///
/// # Errors
///
/// Returns a [`Skip`] describing why the image was left untouched.
///
/// # Panics
///
/// Panics only on internal invariant violations (the produced map
/// failing its own bijectivity check).
pub fn optimize(
    image: &Image,
    estimates: &[ExportedProc],
    opts: &PgoOptions,
) -> Result<Rewritten, Skip> {
    let insns = image
        .decode_all()
        .map_err(|e| Skip::Undecodable(format!("{e:?}")))?;
    let n = insns.len() as u32;
    if n == 0 {
        return Err(Skip::NoText);
    }
    if image.symbols().is_empty() {
        return Err(Skip::NoSymbols);
    }
    let patches = scan_calls(&insns, opts)?;
    let targets = control_targets(&insns, &patches)?;
    let patch_at: BTreeMap<u32, usize> = patches
        .iter()
        .enumerate()
        .map(|(pi, p)| (p.unit_start, pi))
        .collect();
    // A branch into the interior of an address unit would execute a
    // half-rewritten constant; refuse.
    for p in &patches {
        if p.unit_len == 2 && targets.contains(&(p.unit_start + 1)) {
            return Err(Skip::BadCallTarget {
                word: p.unit_start + 1,
            });
        }
    }

    let ranges = unit_ranges(image, n)?;
    let mut report = PgoReport {
        procs: ranges.iter().filter(|(s, _, _)| s.is_some()).count(),
        call_patches: patches.len(),
        old_words: n as usize,
        ..PgoReport::default()
    };

    let find_est = |sym: &Symbol| {
        estimates
            .iter()
            .find(|e| e.name == sym.name && u64::from(e.start_word) * 4 == sym.offset)
    };

    // Plan every unit: full layout where provably safe, identity
    // otherwise.
    let mut units = Vec::with_capacity(ranges.len());
    for &(si, start, end) in &ranges {
        let sym = si.map(|i| &image.symbols()[i]);
        let est = sym.and_then(&find_est);
        let planned = sym.and_then(|s| {
            plan_procedure(
                image,
                s,
                &insns,
                est,
                &targets,
                &patch_at,
                &patches,
                &mut report,
            )
        });
        let blocks = match planned {
            Some(blocks) => blocks,
            None => {
                if si.is_some() {
                    report.procs_identity += 1;
                }
                let items = walk_items(start, end, &patch_at, &patches)?;
                let falls_through = insns[(end - 1) as usize].flow().falls_through();
                vec![BlockPlan {
                    items,
                    freq: -1.0,
                    icache_hot: false,
                    reschedulable: false,
                    falls_through,
                    pad_before: 0,
                    start_pos: 0,
                }]
            }
        };
        units.push(UnitPlan {
            sym: si,
            samples: est.map_or(0, |e| e.total_samples),
            blocks,
        });
    }

    // Hot-first procedure packing: safe only when the image declares its
    // entry point, nothing falls across unit boundaries, and there are
    // no anonymous gaps whose relative position might matter.
    let can_pack = image.symbol_named("main").is_some()
        && units.iter().all(|u| u.sym.is_some())
        && units
            .iter()
            .all(|u| !u.blocks.last().is_some_and(|b| b.falls_through));
    if can_pack {
        let mut idx: Vec<usize> = (0..units.len()).collect();
        idx.sort_by(|&a, &b| units[b].samples.cmp(&units[a].samples).then(a.cmp(&b)));
        if idx.windows(2).any(|w| w[0] > w[1]) {
            report.packed = true;
        }
        let mut packed = Vec::with_capacity(units.len());
        for i in idx {
            packed.push(std::mem::replace(
                &mut units[i],
                UnitPlan {
                    sym: None,
                    samples: 0,
                    blocks: Vec::new(),
                },
            ));
        }
        units = packed;
    }

    // Assign positions, inserting dead padding at non-fallthrough
    // boundaries where the static model says parity or line alignment
    // pays.
    let model = PipelineModel::default();
    let mut pos = 0u32;
    let mut prev_falls = false;
    for unit in &mut units {
        for blk in &mut unit.blocks {
            if !prev_falls && blk.freq >= HOT_FREQ {
                let bi: Vec<Instruction> = blk
                    .items
                    .iter()
                    .map(|it| item_insn(it, &insns, &patches))
                    .collect();
                if blk.icache_hot {
                    blk.pad_before = pos.next_multiple_of(ICACHE_LINE_WORDS) - pos;
                } else {
                    let c0 = model.schedule_block(u64::from(pos), &bi).total_cycles;
                    let c1 = model.schedule_block(u64::from(pos) + 1, &bi).total_cycles;
                    if c1 < c0 {
                        blk.pad_before = 1;
                    }
                }
                report.pad_words += blk.pad_before as usize;
            }
            pos += blk.pad_before;
            blk.start_pos = pos;
            pos += blk.items.len() as u32;
            prev_falls = blk.falls_through;
        }
    }
    let total = pos;

    // Reschedule within blocks now that issue parity is known.
    for unit in &mut units {
        for blk in &mut unit.blocks {
            if !blk.reschedulable {
                continue;
            }
            let bi: Vec<Instruction> = blk
                .items
                .iter()
                .map(|it| item_insn(it, &insns, &patches))
                .collect();
            // The block head stays pinned: incoming branches are
            // retargeted at the *mapped* head word, so letting it
            // drift would land them mid-block.
            let movable: Vec<bool> = blk
                .items
                .iter()
                .zip(&bi)
                .enumerate()
                .map(|(k, (it, insn))| k > 0 && matches!(it, Item::Old(_)) && !insn.is_control())
                .collect();
            if let Some(perm) = sched::reschedule(&model, u64::from(blk.start_pos), &bi, &movable) {
                blk.items = perm.iter().map(|&o| blk.items[o]).collect();
                report.blocks_rescheduled += 1;
            }
        }
    }

    // Build the total map.
    let new_name = format!("{}{PGO_SUFFIX}", image.name());
    let mut map = AddressMap::identity(image.name(), &new_name, n as usize);
    map.new_words = total;
    for unit in &units {
        for blk in &unit.blocks {
            for (k, item) in blk.items.iter().enumerate() {
                let p = blk.start_pos + k as u32;
                match *item {
                    Item::Old(w) | Item::PatchHi { old: w, .. } | Item::Invert { old: w, .. } => {
                        map.set(w, p);
                    }
                    Item::PatchLo { old: Some(w), .. } => map.set(w, p),
                    Item::PatchLo { old: None, .. } | Item::NewBr { .. } => {}
                }
            }
        }
    }
    assert!(
        map.check_bijective().is_ok(),
        "rewrite produced a non-injective address map"
    );

    // Encode.
    let mapped = |w: u32| map.get(w).expect("map is total over old words");
    let mut words = vec![encode(Instruction::NOP); total as usize];
    for unit in &units {
        for blk in &unit.blocks {
            for (k, item) in blk.items.iter().enumerate() {
                let p = blk.start_pos + k as u32;
                let insn = match *item {
                    Item::Old(w) => {
                        let old = insns[w as usize];
                        match old.flow().target(w) {
                            Some(t) => retarget(old, p, mapped(t as u32))
                                .expect("a direct transfer is a branch"),
                            None => old,
                        }
                    }
                    Item::PatchHi { patch, .. } => {
                        let p = &patches[patch];
                        let v = opts.code_base + 4 * u64::from(mapped(p.target_word));
                        let (hi, _) = li_split(v as i64);
                        Instruction::Ldah {
                            ra: p.reg,
                            rb: Reg::ZERO,
                            disp: hi,
                        }
                    }
                    Item::PatchLo { patch, .. } => {
                        let p = &patches[patch];
                        let v = opts.code_base + 4 * u64::from(mapped(p.target_word));
                        let (_, lo) = li_split(v as i64);
                        Instruction::Lda {
                            ra: p.reg,
                            rb: p.reg,
                            disp: lo,
                        }
                    }
                    Item::Invert { old, target } => match insns[old as usize] {
                        Instruction::CondBr { cond, ra, .. } => Instruction::CondBr {
                            cond: invert_cond(cond),
                            ra,
                            disp: disp_for(p, mapped(target)),
                        },
                        _ => unreachable!("Invert always wraps a conditional branch"),
                    },
                    Item::NewBr { target } => Instruction::Br {
                        ra: Reg::ZERO,
                        disp: disp_for(p, mapped(target)),
                    },
                };
                words[p as usize] = encode(insn);
            }
        }
    }

    // Rebuild the symbol table in emission order.
    let mut symbols = Vec::new();
    for unit in &units {
        let Some(si) = unit.sym else { continue };
        let first = unit.blocks.first().expect("procedure units have blocks");
        let last = unit.blocks.last().expect("procedure units have blocks");
        let start = first.start_pos;
        let end = last.start_pos + last.items.len() as u32;
        symbols.push(Symbol {
            name: image.symbols()[si].name.clone(),
            offset: u64::from(start) * 4,
            size: u64::from(end - start) * 4,
        });
    }
    symbols.sort_by_key(|s| s.offset);

    report.new_words = total as usize;
    let new_image = Image::new(new_name, words, symbols);
    if opts.validate {
        let tv = dcpi_check::tv::validate_with(
            image,
            &new_image,
            &map,
            &dcpi_check::tv::TvOptions {
                code_base: opts.code_base,
            },
        );
        let errors = tv.report.errors();
        if errors > 0 {
            return Err(Skip::ValidationFailed { errors });
        }
        report.validated = true;
        report.tv_segments = tv.segments;
        report.tv_proved = tv.proved;
    }
    Ok(Rewritten {
        image: new_image,
        map,
        report,
    })
}
