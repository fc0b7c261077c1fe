//! Control-flow graph construction (§6.1.1).
//!
//! The CFG for a procedure is built by decoding its text and splitting at
//! basic-block boundaries: control-transfer instructions and branch
//! targets. Calls (`bsr`/`jsr` with a live return-address register) do
//! *not* end blocks — control returns to the next instruction, so
//! intra-procedure execution frequencies flow straight through them.
//! Returns and indirect jumps leave the procedure; an indirect jump whose
//! target cannot be determined marks the CFG as *missing edges*, in which
//! case the frequency analysis falls back to per-block equivalence
//! classes, exactly as the paper does.

use dcpi_core::Error;
use dcpi_isa::image::{Image, Symbol};
use dcpi_isa::insn::{Flow, Instruction};

/// Index of a basic block within its [`Cfg`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub usize);

/// Kind of a CFG edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Sequential flow into the next block.
    FallThrough,
    /// A taken conditional or unconditional branch.
    Taken,
    /// A resolved indirect jump.
    Indirect,
}

/// A basic block: a run of instructions with one entry and one exit.
#[derive(Clone, Debug)]
pub struct Block {
    /// Word index (within the image) of the first instruction.
    pub start_word: u32,
    /// Number of instructions.
    pub len: u32,
    /// True if control can leave the procedure from this block (return,
    /// halt, branch out of the procedure, or fall off its end).
    pub is_exit: bool,
}

impl Block {
    /// Word index one past the last instruction.
    #[must_use]
    pub fn end_word(&self) -> u32 {
        self.start_word + self.len
    }

    /// True if the block covers `word`.
    #[must_use]
    pub fn contains(&self, word: u32) -> bool {
        (self.start_word..self.end_word()).contains(&word)
    }
}

/// A CFG edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// How control flows.
    pub kind: EdgeKind,
}

/// Items grouped by a small integer key, in input order within a group:
/// one counting sort into two flat vectors (compressed sparse rows).
#[derive(Clone, Debug)]
pub(crate) struct Grouped<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> Grouped<T> {
    pub(crate) fn new(n_keys: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        let mut start = vec![0; n_keys + 1];
        for (key, _) in pairs.clone() {
            start[key + 1] += 1;
        }
        for key in 0..n_keys {
            start[key + 1] += start[key];
        }
        let mut items = vec![T::default(); start[n_keys]];
        // `start[key]` is the fill cursor of group `key`; once every item
        // is placed it has advanced to the start of group `key + 1`, so
        // shifting the vector one place right restores the starts.
        for (key, item) in pairs {
            items[start[key]] = item;
            start[key] += 1;
        }
        start.rotate_right(1);
        start[0] = 0;
        Grouped { start, items }
    }

    /// The items of group `key`.
    pub(crate) fn of(&self, key: usize) -> &[T] {
        &self.items[self.start[key]..self.start[key + 1]]
    }
}

/// The control-flow graph of one procedure.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Procedure name.
    pub name: String,
    /// Word index of the procedure start within the image.
    pub start_word: u32,
    /// Decoded instructions (`insns[i]` is at word `start_word + i`).
    pub insns: Vec<Instruction>,
    /// Basic blocks, sorted by start word.
    pub blocks: Vec<Block>,
    /// Edges between blocks. [`Cfg::in_edges`] and [`Cfg::out_edges`]
    /// index them as they stood when the graph was built.
    pub edges: Vec<Edge>,
    /// The entry block (always `BlockId(0)`).
    pub entry: BlockId,
    /// True if some indirect jump's targets could not be resolved; the
    /// frequency analysis then degrades to per-block classes (§6.1.2).
    pub missing_edges: bool,
    /// Edge indices by endpoint: group `2b` enters block `b`, `2b + 1` leaves it.
    adjacency: Grouped<usize>,
    exits: Vec<BlockId>,
}

impl Cfg {
    /// Builds the CFG for `sym` in `image`, resolving indirect jumps with
    /// double-sample path profiles (§7): observed `(jump, target)` PC
    /// pairs become `Indirect` edges (and their targets become block
    /// leaders), clearing the *missing edges* degradation when every
    /// indirect jump has observed targets.
    ///
    /// # Errors
    ///
    /// As [`Cfg::build`].
    pub fn build_with_paths(
        image: &Image,
        sym: &Symbol,
        image_id: dcpi_core::ImageId,
        paths: &dcpi_core::PathProfiles,
    ) -> Result<Cfg, Error> {
        // Collect observed in-procedure successors of indirect jumps.
        let mut resolved: Vec<(usize, Vec<usize>)> = Vec::new();
        let n = (sym.size / 4) as usize;
        for i in 0..n {
            let off = sym.offset + (i as u64) * 4;
            let Some(Flow::IndirectJump { .. }) = image.insn_at(off).map(|i| i.flow()) else {
                continue; // calls and returns are not CFG-internal
            };
            let targets: Vec<usize> = paths
                .successors(image_id, off)
                .into_iter()
                .filter_map(|(t, _)| {
                    (t >= sym.offset && t < sym.offset + sym.size && t.is_multiple_of(4))
                        .then_some(((t - sym.offset) / 4) as usize)
                })
                .collect();
            if !targets.is_empty() {
                resolved.push((i, targets));
            }
        }
        Cfg::build_inner(image, sym, &resolved)
    }

    /// Builds the CFG for `sym` in `image`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the procedure text fails to decode or
    /// the symbol is degenerate.
    pub fn build(image: &Image, sym: &Symbol) -> Result<Cfg, Error> {
        Cfg::build_inner(image, sym, &[])
    }

    fn build_inner(
        image: &Image,
        sym: &Symbol,
        indirect_targets: &[(usize, Vec<usize>)],
    ) -> Result<Cfg, Error> {
        if sym.size == 0 || !sym.offset.is_multiple_of(4) {
            return Err(Error::Corrupt(format!("degenerate symbol {}", sym.name)));
        }
        let start_word = (sym.offset / 4) as u32;
        let n = (sym.size / 4) as usize;
        let mut insns = Vec::with_capacity(n);
        for i in 0..n {
            let off = sym.offset + (i as u64) * 4;
            let insn = image
                .insn_at(off)
                .ok_or_else(|| Error::Corrupt(format!("undecodable word at {off:#x}")))?;
            insns.push(insn);
        }

        // Leaders: word 0, targets of in-procedure branches, and the
        // instruction after each block terminator.
        let mut leader = vec![false; n];
        leader[0] = true;
        for (_, targets) in indirect_targets {
            for &t in targets {
                if t < n {
                    leader[t] = true;
                }
            }
        }
        let mut missing_edges = false;
        // A direct target as an index into the procedure, if it is inside.
        let in_proc = |t: Option<i64>| t.and_then(|t| usize::try_from(t).ok()).filter(|&t| t < n);
        for (i, insn) in insns.iter().enumerate() {
            let flow = insn.flow();
            if let Flow::CondBranch { .. } | Flow::Jump { .. } = flow {
                if let Some(t) = in_proc(flow.target(i as u32)) {
                    leader[t] = true;
                }
            } else if flow.falls_through() {
                continue; // calls return here, so they do not end a block
            }
            if i + 1 < n {
                leader[i + 1] = true;
            }
        }

        // Blocks from leaders.
        let mut blocks = Vec::with_capacity(leader.iter().filter(|&&l| l).count());
        let mut block_of_idx = vec![0usize; n];
        for i in 0..n {
            if leader[i] {
                blocks.push(Block {
                    start_word: start_word + i as u32,
                    len: 0,
                    is_exit: false,
                });
            }
            let b = blocks.len() - 1;
            block_of_idx[i] = b;
            blocks[b].len += 1;
        }

        // Edges from terminators.
        let nb = blocks.len();
        let mut edges = Vec::with_capacity(2 * nb);
        for (b, block) in blocks.iter_mut().enumerate() {
            let last_idx = (block.end_word() - start_word - 1) as usize;
            let push = |edges: &mut Vec<Edge>, to: usize, kind: EdgeKind| {
                edges.push(Edge {
                    from: BlockId(b),
                    to: BlockId(to),
                    kind,
                })
            };
            let flow = insns[last_idx].flow();
            match flow {
                Flow::CondBranch { .. } | Flow::Jump { .. } => {
                    match in_proc(flow.target(last_idx as u32)) {
                        Some(t) => push(&mut edges, block_of_idx[t], EdgeKind::Taken),
                        None => block.is_exit = true, // branches out of the procedure
                    }
                }
                Flow::IndirectJump { .. } => {
                    // Unseen targets may always exist, so the block is an exit.
                    block.is_exit = true;
                    match indirect_targets.iter().find(|(at, _)| *at == last_idx) {
                        // Resolved by path samples (§7): one Indirect edge
                        // per observed target.
                        Some((_, targets)) => {
                            for &t in targets {
                                push(&mut edges, block_of_idx[t], EdgeKind::Indirect);
                            }
                        }
                        // Statically unknown targets: note the missing
                        // edges (§6.1.1).
                        None => missing_edges = true,
                    }
                }
                // Returns and halts leave the procedure.
                _ => block.is_exit |= !flow.falls_through(),
            }
            if flow.falls_through() {
                // Sequential flow, or falling off the end of the procedure.
                if b + 1 < nb {
                    push(&mut edges, b + 1, EdgeKind::FallThrough);
                } else {
                    block.is_exit = true;
                }
            }
        }

        let ends = edges.iter().enumerate();
        Ok(Cfg {
            name: sym.name.clone(),
            start_word,
            insns,
            adjacency: Grouped::new(
                2 * nb,
                ends.flat_map(|(e, edge)| [(2 * edge.to.0, e), (2 * edge.from.0 + 1, e)]),
            ),
            exits: (0..nb)
                .filter(|&b| blocks[b].is_exit)
                .map(BlockId)
                .collect(),
            blocks,
            edges,
            entry: BlockId(0),
            missing_edges,
        })
    }

    /// The block containing an image word index.
    #[must_use]
    pub fn block_of_word(&self, word: u32) -> Option<BlockId> {
        let idx = self
            .blocks
            .partition_point(|b| b.start_word <= word)
            .checked_sub(1)?;
        self.blocks[idx].contains(word).then_some(BlockId(idx))
    }

    /// The instructions of a block.
    #[must_use]
    pub fn block_insns(&self, b: BlockId) -> &[Instruction] {
        let blk = &self.blocks[b.0];
        let s = (blk.start_word - self.start_word) as usize;
        &self.insns[s..s + blk.len as usize]
    }

    /// Incoming edge indices of a block, ascending.
    #[must_use]
    pub fn in_edges(&self, b: BlockId) -> &[usize] {
        self.adjacency.of(2 * b.0)
    }

    /// Outgoing edge indices of a block, ascending.
    #[must_use]
    pub fn out_edges(&self, b: BlockId) -> &[usize] {
        self.adjacency.of(2 * b.0 + 1)
    }

    /// Blocks from which the procedure can be left, ascending.
    #[must_use]
    pub fn exit_blocks(&self) -> &[BlockId] {
        &self.exits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;

    fn build(asm: Asm) -> Cfg {
        let image = asm.finish();
        let sym = image.symbols()[0].clone();
        Cfg::build(&image, &sym).unwrap()
    }

    /// A simple counted loop: three blocks (preheader, body, exit).
    fn loop_cfg() -> Cfg {
        let mut a = Asm::new("/t");
        a.proc("main");
        a.li(Reg::T0, 10);
        let top = a.here();
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        build(a)
    }

    #[test]
    fn loop_has_three_blocks() {
        let cfg = loop_cfg();
        assert_eq!(cfg.blocks.len(), 3);
        assert_eq!(cfg.blocks[0].len, 1, "preheader: li");
        assert_eq!(cfg.blocks[1].len, 2, "body: subq+bne");
        assert_eq!(cfg.blocks[2].len, 1, "halt");
        assert!(!cfg.missing_edges);
        // Edges: pre→body (fall), body→body (taken), body→exit (fall).
        assert_eq!(cfg.edges.len(), 3);
        assert!(cfg.edges.contains(&Edge {
            from: BlockId(1),
            to: BlockId(1),
            kind: EdgeKind::Taken
        }));
        assert!(cfg.blocks[2].is_exit);
        assert_eq!(cfg.exit_blocks(), vec![BlockId(2)]);
    }

    #[test]
    fn diamond_shape() {
        let mut a = Asm::new("/t");
        a.proc("main");
        let else_l = a.label();
        let join = a.label();
        a.beq(Reg::T0, else_l); // b0
        a.addq_lit(Reg::T1, 1, Reg::T1); // b1 (then)
        a.br(join);
        a.bind(else_l);
        a.addq_lit(Reg::T1, 2, Reg::T1); // b2 (else)
        a.bind(join);
        a.halt(); // b3
        let cfg = build(a);
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(cfg.edges.len(), 4);
        let kinds: Vec<_> = cfg.edges.iter().map(|e| (e.from.0, e.to.0)).collect();
        assert!(kinds.contains(&(0, 1)));
        assert!(kinds.contains(&(0, 2)));
        assert!(kinds.contains(&(1, 3)));
        assert!(kinds.contains(&(2, 3)));
    }

    #[test]
    fn call_does_not_split_blocks() {
        let mut a = Asm::new("/t");
        a.proc("main");
        let callee = a.label();
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.bsr(Reg::RA, callee);
        a.addq_lit(Reg::T0, 2, Reg::T0);
        a.halt();
        a.proc("callee");
        a.bind(callee);
        a.ret(Reg::RA);
        let cfg = build(a);
        assert_eq!(cfg.blocks.len(), 1, "bsr does not end a block");
        assert_eq!(cfg.blocks[0].len, 4);
        assert!(!cfg.missing_edges);
    }

    #[test]
    fn return_is_exit_not_missing() {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.addq_lit(Reg::T0, 1, Reg::V0);
        a.ret(Reg::RA);
        let cfg = build(a);
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].is_exit);
        assert!(!cfg.missing_edges);
        assert!(cfg.edges.is_empty());
    }

    #[test]
    fn indirect_jump_marks_missing_edges() {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.jsr(Reg::ZERO, Reg::T3); // jmp (t3): unknown targets
        let cfg = build(a);
        assert!(cfg.missing_edges);
    }

    #[test]
    fn infinite_loop_has_no_exit() {
        let mut a = Asm::new("/t");
        a.proc("idle");
        let top = a.here();
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.br(top);
        let cfg = build(a);
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.exit_blocks().is_empty());
        assert_eq!(cfg.edges.len(), 1);
        assert_eq!(cfg.edges[0].from, cfg.edges[0].to);
    }

    #[test]
    fn block_of_word_and_insns() {
        let cfg = loop_cfg();
        let w0 = cfg.start_word;
        assert_eq!(cfg.block_of_word(w0), Some(BlockId(0)));
        assert_eq!(cfg.block_of_word(w0 + 1), Some(BlockId(1)));
        assert_eq!(cfg.block_of_word(w0 + 2), Some(BlockId(1)));
        assert_eq!(cfg.block_of_word(w0 + 3), Some(BlockId(2)));
        assert_eq!(cfg.block_of_word(w0 + 4), None);
        assert_eq!(cfg.block_insns(BlockId(1)).len(), 2);
    }

    #[test]
    fn in_out_edges() {
        let cfg = loop_cfg();
        assert_eq!(cfg.out_edges(BlockId(0)).len(), 1);
        assert_eq!(cfg.in_edges(BlockId(1)).len(), 2, "fall-in + back edge");
        assert_eq!(cfg.out_edges(BlockId(1)).len(), 2);
    }

    #[test]
    fn branch_out_of_procedure_is_exit() {
        // A conditional branch whose target lies outside the symbol: the
        // taken side exits the procedure.
        let mut a = Asm::new("/t");
        a.proc("f");
        let out = a.label();
        a.beq(Reg::T0, out);
        a.halt();
        a.proc("g");
        a.bind(out);
        a.halt();
        let image = a.finish();
        let sym = image.symbol_named("f").unwrap().clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        assert!(cfg.blocks[0].is_exit, "taken edge leaves the procedure");
        assert_eq!(cfg.edges.len(), 1, "only the fall-through edge remains");
    }

    #[test]
    fn degenerate_symbol_is_an_error() {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.halt();
        let image = a.finish();
        let bad = Symbol {
            name: "zero".into(),
            offset: 0,
            size: 0,
        };
        assert!(Cfg::build(&image, &bad).is_err());
    }
}
