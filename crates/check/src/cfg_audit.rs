//! Layer 2: CFG structural audits and an independent re-derivation of
//! the cycle-equivalence classes.
//!
//! Structure: blocks must partition the procedure text contiguously,
//! every edge must land on a block head and agree with its source block's
//! terminator, and fall-through/exit flags must be mutually consistent.
//!
//! Equivalence: `dcpi-analyze` computes frequency-equivalence classes
//! with the linear-time bracket-list algorithm of Johnson, Pearson and
//! Pingali (§6.1.2): one depth-first search, never deleting an edge. Here
//! cycle equivalence is evaluated *from scratch* from its cut-pair
//! characterisation — two edges of a bridgeless graph are cycle
//! equivalent iff deleting both disconnects it — by plain
//! connected-component counting on the split graph, and the resulting
//! partition is compared against [`frequency_classes`]. The two share no
//! mechanism, so agreement is evidence for both; the brute force is cubic
//! in the edges, about a millisecond for a 27-block procedure, and runs
//! on procedures of up to 64 blocks.

use crate::diag::{Category, Loc, Report};
use dcpi_analyze::cfg::{BlockId, Cfg, EdgeKind};
use dcpi_analyze::equiv::frequency_classes;
use dcpi_isa::image::Symbol;
use dcpi_isa::insn::Flow;

/// Brute-force equivalence re-derivation is cubic in split-graph edges;
/// procedures with more blocks than this skip it.
const MAX_BRUTEFORCE_BLOCKS: usize = 64;

/// Runs every layer-2 audit on one procedure's CFG.
pub fn check_cfg(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    check_block_partition(sym, cfg, report);
    check_edges(sym, cfg, report);
    check_equivalence(sym, cfg, report);
}

/// Blocks must be a contiguous, ordered partition of the procedure text
/// with the entry at index 0.
fn check_block_partition(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let name = &sym.name;
    if cfg.entry != BlockId(0) {
        report.flag(
            Category::BlockStructure,
            Loc::at(name).block(cfg.entry.0),
            "entry block is not block 0",
        );
    }
    if cfg.blocks.is_empty() {
        report.flag(
            Category::BlockStructure,
            name,
            "procedure has no basic blocks",
        );
        return;
    }
    let mut expect = cfg.start_word;
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if blk.len == 0 {
            report.flag(
                Category::BlockStructure,
                Loc::at(name).pc(u64::from(blk.start_word) * 4).block(b),
                "empty basic block",
            );
        }
        if blk.start_word != expect {
            report.flag(
                Category::BlockStructure,
                Loc::at(name).pc(u64::from(blk.start_word) * 4).block(b),
                format!(
                    "block starts at word {} but the previous block ends at word {}",
                    blk.start_word, expect
                ),
            );
        }
        expect = blk.end_word();
    }
    let end = cfg.start_word + cfg.insns.len() as u32;
    if expect != end {
        report.flag(
            Category::BlockStructure,
            Loc::at(name).block(cfg.blocks.len() - 1),
            format!("blocks cover words up to {expect} but the procedure ends at {end}"),
        );
    }
}

/// Every edge must land on a block head and agree with the terminator of
/// its source block; blocks without outgoing edges must be exits.
fn check_edges(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let name = &sym.name;
    let nb = cfg.blocks.len();
    let end = i64::from(cfg.start_word) + cfg.insns.len() as i64;
    for (idx, e) in cfg.edges.iter().enumerate() {
        if e.from.0 >= nb || e.to.0 >= nb {
            report.flag(
                Category::EdgeTarget,
                name,
                format!("edge {idx} references a nonexistent block"),
            );
            continue;
        }
        let from = &cfg.blocks[e.from.0];
        let last_idx = (from.end_word() - cfg.start_word - 1) as usize;
        let flow = cfg.insns[last_idx].flow();
        let at = Loc::at(name)
            .pc(sym.offset + (last_idx as u64) * 4)
            .block(e.from.0);
        let to_head = cfg.blocks[e.to.0].start_word;
        match e.kind {
            EdgeKind::Taken => {
                let target = match flow {
                    Flow::CondBranch { .. } | Flow::Jump { .. } => flow.target(from.end_word() - 1),
                    _ => None,
                };
                match target {
                    None => report.flag(
                        Category::EdgeTarget,
                        at,
                        "taken edge from a block whose terminator is not a branch",
                    ),
                    Some(t) => {
                        if !(i64::from(cfg.start_word)..end).contains(&t) || t != i64::from(to_head)
                        {
                            report.flag(
                                Category::EdgeTarget,
                                at,
                                format!(
                                    "taken edge lands on block {} (word {to_head}) but the branch targets word {t}",
                                    e.to.0
                                ),
                            );
                        }
                    }
                }
            }
            EdgeKind::FallThrough => {
                if e.to.0 != e.from.0 + 1 {
                    report.flag(
                        Category::FallThrough,
                        at,
                        format!("fall-through edge skips to block {}", e.to.0),
                    );
                }
                if !flow.falls_through() {
                    report.flag(
                        Category::FallThrough,
                        at,
                        "fall-through edge from a terminator that cannot fall through",
                    );
                }
            }
            EdgeKind::Indirect => {
                if !matches!(flow, Flow::IndirectJump { .. }) {
                    report.flag(
                        Category::EdgeTarget,
                        at,
                        "indirect edge from a block not ending in an indirect jump",
                    );
                }
            }
        }
    }
    for b in 0..nb {
        let has_out = cfg.edges.iter().any(|e| e.from.0 == b);
        if !has_out && !cfg.blocks[b].is_exit {
            report.flag(
                Category::FallThrough,
                Loc::at(name).block(b),
                "block has no outgoing edges but is not marked as an exit",
            );
        }
    }
}

/// Cross-checks [`frequency_classes`] against the brute-force
/// re-derivation (small procedures only, per [`MAX_BRUTEFORCE_BLOCKS`]).
fn check_equivalence(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let nb = cfg.blocks.len();
    let ne = cfg.edges.len();
    let eq = frequency_classes(cfg);
    if eq.block_class.len() != nb || eq.edge_class.len() != ne {
        report.flag(
            Category::EquivMismatch,
            &sym.name,
            "equivalence classes have the wrong cardinality",
        );
        return;
    }
    if cfg.missing_edges {
        // The analyzer must degrade to trivial per-block/per-edge classes.
        let trivial = eq.n_classes == nb + ne;
        if !trivial {
            report.flag(
                Category::EquivMismatch,
                &sym.name,
                format!(
                    "CFG has missing edges but classes are not trivial ({} of {})",
                    eq.n_classes,
                    nb + ne
                ),
            );
        }
        return;
    }
    if nb > MAX_BRUTEFORCE_BLOCKS {
        return; // brute force is cubic in edges; skip big procedures
    }
    let edges: Vec<(usize, usize)> = cfg.edges.iter().map(|e| (e.from.0, e.to.0)).collect();
    let exits: Vec<usize> = cfg.exit_blocks().iter().map(|b| b.0).collect();
    let brute = brute_force_classes(nb, &edges, cfg.entry.0, &exits);
    // Compare the partitions over blocks ∪ edges (ids are arbitrary, so
    // compare the same-class relation pairwise).
    let fast: Vec<usize> = eq
        .block_class
        .iter()
        .chain(eq.edge_class.iter())
        .copied()
        .collect();
    let total = nb + ne;
    for i in 0..total {
        for j in i + 1..total {
            if (fast[i] == fast[j]) != (brute[i] == brute[j]) {
                let describe = |x: usize| {
                    if x < nb {
                        format!("block {x}")
                    } else {
                        let e = &cfg.edges[x - nb];
                        format!("edge {}→{}", e.from.0, e.to.0)
                    }
                };
                report.flag(
                    Category::EquivMismatch,
                    &sym.name,
                    format!(
                        "{} and {} are {} by the analyzer but {} by brute force",
                        describe(i),
                        describe(j),
                        if fast[i] == fast[j] {
                            "equivalent"
                        } else {
                            "inequivalent"
                        },
                        if brute[i] == brute[j] {
                            "equivalent"
                        } else {
                            "inequivalent"
                        },
                    ),
                );
                return; // one witness is enough
            }
        }
    }
}

/// Brute-force cycle-equivalence over the split graph: class ids for the
/// `n_blocks` blocks followed by the CFG edges.
///
/// Two active non-bridge edges are cycle equivalent iff deleting both
/// disconnects the graph; equivalence is decided by counting connected
/// components with union-find, with no depth-first search and no bracket
/// lists, so the result is derived independently of `dcpi-analyze`'s
/// implementation (whose differential tests call this too).
pub fn brute_force_classes(
    n_blocks: usize,
    edges: &[(usize, usize)],
    entry: usize,
    exits: &[usize],
) -> Vec<usize> {
    assert!(n_blocks > 0);
    // Reachability from the entry.
    let mut succ = vec![Vec::new(); n_blocks];
    let mut pred = vec![Vec::new(); n_blocks];
    for &(f, t) in edges {
        succ[f].push(t);
        pred[t].push(f);
    }
    let reachable = flood(n_blocks, &[entry], &succ);
    // The infinite-loop extension (§6.1.2): repeatedly give the
    // highest-numbered reachable block that cannot reach an exit a pseudo
    // edge to EXIT.
    let mut pseudo_exits: Vec<usize> = Vec::new();
    loop {
        let mut seeds: Vec<usize> = exits.to_vec();
        seeds.extend_from_slice(&pseudo_exits);
        let can_exit = flood(n_blocks, &seeds, &pred);
        match (0..n_blocks)
            .filter(|&b| reachable[b] && !can_exit[b])
            .max()
        {
            Some(bad) => pseudo_exits.push(bad),
            None => break,
        }
    }
    // Split graph: in-node 2b, out-node 2b+1, virtual ENTRY/EXIT.
    let entry_node = 2 * n_blocks;
    let exit_node = 2 * n_blocks + 1;
    let n_nodes = 2 * n_blocks + 2;
    let mut g: Vec<(usize, usize)> = Vec::new();
    for b in 0..n_blocks {
        g.push((2 * b, 2 * b + 1)); // internal edge = the block itself
    }
    for &(f, t) in edges {
        g.push((2 * f + 1, 2 * t));
    }
    g.push((entry_node, 2 * entry));
    for &x in exits.iter().chain(&pseudo_exits) {
        g.push((2 * x + 1, exit_node));
    }
    g.push((exit_node, entry_node));
    let live = |node: usize| node >= 2 * n_blocks || reachable[node / 2];
    let active: Vec<bool> = g.iter().map(|&(u, v)| live(u) && live(v)).collect();
    let nodes: Vec<usize> = (0..n_nodes)
        .filter(|&v| {
            g.iter()
                .enumerate()
                .any(|(id, &(a, b))| active[id] && (a == v || b == v))
        })
        .collect();

    // Connected-component count excluding up to two edges.
    let components = |skip1: usize, skip2: usize| -> usize {
        let mut uf = UnionFind::new(n_nodes);
        for (id, &(u, v)) in g.iter().enumerate() {
            if active[id] && id != skip1 && id != skip2 {
                uf.union(u, v);
            }
        }
        let mut roots: Vec<usize> = nodes.iter().map(|&v| uf.find(v)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    };
    let base = components(usize::MAX, usize::MAX);
    let is_bridge: Vec<bool> = (0..g.len())
        .map(|e| active[e] && components(e, usize::MAX) > base)
        .collect();
    let mut uf = UnionFind::new(g.len());
    for e1 in 0..g.len() {
        if !active[e1] || is_bridge[e1] {
            continue;
        }
        for e2 in e1 + 1..g.len() {
            if !active[e2] || is_bridge[e2] {
                continue;
            }
            if components(e1, e2) > base {
                uf.union(e1, e2); // {e1, e2} is a cut pair
            }
        }
    }
    (0..n_blocks + edges.len()).map(|x| uf.find(x)).collect()
}

fn flood(n: usize, starts: &[usize], next: &[Vec<usize>]) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for &s in starts {
        if !seen[s] {
            seen[s] = true;
            stack.push(s);
        }
    }
    while let Some(x) = stack.pop() {
        for &y in &next[x] {
            if !seen[y] {
                seen[y] = true;
                stack.push(y);
            }
        }
    }
    seen
}

/// A minimal iterative union-find (no recursion, no ranks: the graphs
/// here are tiny).
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use dcpi_analyze::equiv::classes_raw;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;

    fn partitions_agree(n: usize, edges: &[(usize, usize)], exits: &[usize]) -> bool {
        let fast = classes_raw(n, edges, 0, exits);
        let flat: Vec<usize> = fast
            .block_class
            .iter()
            .chain(fast.edge_class.iter())
            .copied()
            .collect();
        let brute = brute_force_classes(n, edges, 0, exits);
        let total = n + edges.len();
        (0..total).all(|i| (0..total).all(|j| (flat[i] == flat[j]) == (brute[i] == brute[j])))
    }

    #[test]
    fn brute_force_agrees_on_canonical_shapes() {
        // Straight line.
        assert!(partitions_agree(3, &[(0, 1), (1, 2)], &[2]));
        // Diamond.
        assert!(partitions_agree(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], &[3]));
        // Loop with preheader and exit.
        assert!(partitions_agree(3, &[(0, 1), (1, 1), (1, 2)], &[2]));
        // Nested loops.
        assert!(partitions_agree(
            4,
            &[(0, 1), (1, 2), (2, 2), (2, 1), (1, 3)],
            &[3]
        ));
        // Infinite loop (pseudo-exit extension).
        assert!(partitions_agree(3, &[(0, 1), (1, 2), (2, 1)], &[]));
        // Unreachable block.
        assert!(partitions_agree(3, &[(0, 1)], &[1]));
    }

    #[test]
    fn brute_force_agrees_on_random_graphs() {
        let mut state = 0x5eedu64;
        let mut rnd = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        for _ in 0..150 {
            let n = 2 + rnd(7);
            let mut edges = Vec::new();
            let mut exits = Vec::new();
            for b in 0..n {
                match rnd(4) {
                    0 if b + 1 < n => edges.push((b, b + 1)),
                    1 => {
                        edges.push((b, rnd(n)));
                        edges.push((b, rnd(n)));
                    }
                    2 => {
                        edges.push((b, rnd(n)));
                        exits.push(b);
                    }
                    _ => exits.push(b),
                }
            }
            if exits.is_empty() {
                exits.push(n - 1);
            }
            assert!(
                partitions_agree(n, &edges, &exits),
                "n={n} edges={edges:?} exits={exits:?}"
            );
        }
    }

    fn audit(asm_body: impl FnOnce(&mut Asm)) -> (Report, Cfg, Symbol) {
        let mut a = Asm::new("/t");
        asm_body(&mut a);
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let mut r = Report::new();
        check_cfg(&sym, &cfg, &mut r);
        (r, cfg, sym)
    }

    #[test]
    fn well_formed_cfg_is_clean() {
        let (r, _, _) = audit(|a| {
            a.proc("f");
            a.li(Reg::T0, 4);
            let top = a.here();
            a.subq_lit(Reg::T0, 1, Reg::T0);
            a.bne(Reg::T0, top);
            a.halt();
        });
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn missing_edges_cfg_must_have_trivial_classes() {
        let (r, cfg, _) = audit(|a| {
            a.proc("f");
            a.addq_lit(Reg::T0, 1, Reg::T0);
            a.jsr(Reg::ZERO, Reg::T3);
        });
        assert!(cfg.missing_edges);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn corrupted_edge_is_caught() {
        let (mut r, mut cfg, sym) = audit(|a| {
            a.proc("f");
            let skip = a.label();
            a.beq(Reg::T0, skip);
            a.addq_lit(Reg::T1, 1, Reg::T1);
            a.bind(skip);
            a.halt();
        });
        assert!(r.is_clean());
        // Retarget the taken edge mid-block: must be flagged.
        let taken = cfg
            .edges
            .iter()
            .position(|e| e.kind == EdgeKind::Taken)
            .unwrap();
        cfg.edges[taken].to = BlockId(1);
        r = Report::new();
        check_cfg(&sym, &cfg, &mut r);
        assert!(r
            .diags
            .iter()
            .any(|d| d.category == Category::EdgeTarget && d.severity == Severity::Error));
    }

    #[test]
    fn corrupted_block_partition_is_caught() {
        let (mut r, mut cfg, sym) = audit(|a| {
            a.proc("f");
            a.addq_lit(Reg::T0, 1, Reg::T0);
            a.halt();
        });
        assert!(r.is_clean());
        cfg.blocks[0].len += 1; // now overlaps the next block / overruns
        r = Report::new();
        check_cfg(&sym, &cfg, &mut r);
        assert!(!r.is_clean());
    }
}
