//! Frequency-equivalence classes via cycle equivalence (§6.1.2).
//!
//! Blocks and edges guaranteed to execute the same number of times are
//! grouped into classes. Following the standard construction, each block
//! is split into an in-node and an out-node joined by an *internal edge*
//! representing the block; the CFG edges connect out-nodes to in-nodes; a
//! virtual ENTRY feeds the procedure entry, every exit block feeds a
//! virtual EXIT, and an EXIT→ENTRY edge closes the graph. Two edges of the
//! resulting undirected multigraph are *cycle equivalent* — every cycle
//! contains both or neither — exactly when their execution counts must be
//! equal on every complete walk.
//!
//! The paper's extension for CFGs with infinite loops (e.g. an OS idle
//! loop, §6.1.2) connects one block of each exit-free terminal region to
//! EXIT with a pseudo edge: scanning blocks from the highest index down,
//! a reachable block that cannot yet reach EXIT gets one. Blocks the
//! entry cannot reach, and the edges touching them, are left out of the
//! graph and get singleton classes.
//!
//! **Algorithm.** The linear-time bracket-list algorithm of Johnson,
//! Pearson and Pingali \[14\]. One depth-first search of the undirected
//! graph makes every non-tree edge a *backedge* between a node and one of
//! its ancestors; a backedge is a *bracket* of each tree edge it spans.
//! Two tree edges are cycle equivalent iff their bracket sets are equal,
//! and a backedge is equivalent to a tree edge iff it is that edge's only
//! bracket. Visiting nodes in reverse preorder, a node's bracket list is
//! the concatenation of its children's, minus the backedges that end at
//! the node, plus those that start there; a set is named in O(1) by its
//! topmost bracket and its size, which identify it among the sets on one
//! root path. Where two subtrees join, brackets of the subtree that
//! reaches less high would sit below the other's and go unnoticed, so a
//! *capping backedge* is pushed from the node to that subtree's highest
//! target (`hi`) and deleted there. Lists are doubly linked through one
//! index arena, so concatenate, delete and push are O(1).
//!
//! **No bridges.** A tree edge that no backedge spans would have an empty
//! list. That cannot happen: every edge kept in the graph lies on a
//! directed ENTRY→…→EXIT→ENTRY cycle, because its blocks are reachable
//! from the entry and, after the pseudo edges, reach EXIT.
//!
//! **Multi-edges.** A branch to its own fall-through gives parallel CFG
//! edges, and a self-looping block an edge parallel to its internal edge.
//! Edges are told apart by id, never by endpoints: the search skips only
//! the parent *edge*, so a parallel edge is an ordinary backedge (and the
//! split graph has no self-loops).
//!
//! **Complexity.** O(blocks + edges) time and space: two floods, one
//! search and one reverse sweep, each touching every adjacency entry a
//! constant number of times.

use crate::cfg::{Cfg, Grouped};

const NONE: usize = usize::MAX;

/// The computed equivalence classes.
#[derive(Clone, Debug)]
pub struct EquivClasses {
    /// Class id per block index.
    pub block_class: Vec<usize>,
    /// Class id per CFG edge index.
    pub edge_class: Vec<usize>,
    /// Total number of classes.
    pub n_classes: usize,
    members: Grouped<usize>,
}

impl EquivClasses {
    fn new(block_class: Vec<usize>, edge_class: Vec<usize>, n_classes: usize) -> EquivClasses {
        let members = Grouped::new(n_classes, block_class.iter().copied().zip(0..));
        EquivClasses {
            block_class,
            edge_class,
            n_classes,
            members,
        }
    }

    /// Blocks belonging to `class`, in index order.
    #[must_use]
    pub fn blocks_in(&self, class: usize) -> &[usize] {
        self.members.of(class)
    }
}

/// Computes frequency-equivalence classes for a CFG. If the CFG has
/// missing edges, every block and edge gets its own class (§6.1.2).
#[must_use]
pub fn frequency_classes(cfg: &Cfg) -> EquivClasses {
    let nb = cfg.blocks.len();
    let ne = cfg.edges.len();
    if cfg.missing_edges {
        return EquivClasses::new((0..nb).collect(), (nb..nb + ne).collect(), nb + ne);
    }
    let edges: Vec<(usize, usize)> = cfg.edges.iter().map(|e| (e.from.0, e.to.0)).collect();
    let exits: Vec<usize> = cfg.exit_blocks().iter().map(|b| b.0).collect();
    classes_raw(nb, &edges, 0, &exits)
}

/// DFS state of a split-graph node, and its bracket list.
#[derive(Clone, Copy)]
struct Node {
    /// Preorder number (`NONE` until visited).
    num: usize,
    /// The tree edge to the parent (`NONE` at the root).
    parent_edge: usize,
    /// Lowest preorder number a backedge from this subtree reaches.
    hi: usize,
    top: usize,
    bottom: usize,
    size: usize,
    /// Head of the chain of capping backedges that end here.
    caps: usize,
}

/// A split-graph edge or capping backedge, as a bracket-list element.
#[derive(Clone, Copy)]
struct Bracket {
    above: usize,
    below: usize,
    /// Size of the last list this bracket topped, and that list's class.
    recent_size: usize,
    recent_class: usize,
    class: usize,
    next_cap: usize,
}

fn push(list: &mut Node, brackets: &mut [Bracket], b: usize) {
    (brackets[b].above, brackets[b].below) = (NONE, list.top);
    match list.top {
        NONE => list.bottom = b,
        top => brackets[top].above = b,
    }
    list.top = b;
    list.size += 1;
}

fn delete(list: &mut Node, brackets: &mut [Bracket], b: usize) {
    let Bracket { above, below, .. } = brackets[b];
    match above {
        NONE => list.top = below,
        a => brackets[a].below = below,
    }
    match below {
        NONE => list.bottom = above,
        w => brackets[w].above = above,
    }
    list.size -= 1;
}

/// Appends `child`'s list underneath `list`.
fn concat(list: &mut Node, brackets: &mut [Bracket], child: &Node) {
    if child.size == 0 {
        return;
    }
    match list.bottom {
        NONE => list.top = child.top,
        bottom => (brackets[bottom].below, brackets[child.top].above) = (child.top, bottom),
    }
    list.bottom = child.bottom;
    list.size += child.size;
}

/// Computes classes for a raw block graph: `edges` are directed block
/// pairs, `entry` the entry block, `exits` the blocks that can leave the
/// procedure. Class ids are numbered by first appearance over the blocks,
/// then the edges.
#[must_use]
pub fn classes_raw(
    n_blocks: usize,
    edges: &[(usize, usize)],
    entry: usize,
    exits: &[usize],
) -> EquivClasses {
    assert!(n_blocks > 0, "graph needs at least one block");
    // --- split graph ---------------------------------------------------------
    // Nodes: 2b (in), 2b+1 (out) per block; then ENTRY and EXIT. Edge ids:
    // block b's internal edge is b, CFG edge e is n_blocks + e, block b's
    // edge to EXIT (live only for exits and pseudo exits) is exit_edge + b;
    // then ENTRY→in(entry) and EXIT→ENTRY.
    let (entry_node, exit_node, n_nodes) = (2 * n_blocks, 2 * n_blocks + 1, 2 * n_blocks + 2);
    let exit_edge = n_blocks + edges.len();
    let mut g: Vec<(usize, usize)> = Vec::with_capacity(exit_edge + n_blocks + 2);
    g.extend((0..n_blocks).map(|b| (2 * b, 2 * b + 1)));
    g.extend(edges.iter().map(|&(f, t)| (2 * f + 1, 2 * t)));
    g.extend((0..n_blocks).map(|b| (2 * b + 1, exit_node)));
    g.extend([(entry_node, 2 * entry), (exit_node, entry_node)]);
    let mut live = vec![true; g.len()];
    live[exit_edge..exit_edge + n_blocks].fill(false);
    for &x in exits {
        live[exit_edge + x] = true;
    }
    let ends = g.iter().enumerate();
    let adj = Grouped::new(
        n_nodes,
        ends.flat_map(|(id, &(u, v))| [(u, (v, id)), (v, (u, id))]),
    );

    // --- reachability and the infinite-loop extension ----------------------
    let flood = |from: usize, forwards: bool, seen: &mut [bool]| {
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(x) = stack.pop() {
            for &(y, id) in adj.of(x) {
                if live[id] && (g[id].0 == x) == forwards && !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
    };
    let mut reachable = vec![false; n_nodes];
    flood(entry_node, true, &mut reachable);
    reachable[exit_node] = true; // through a real or a pseudo exit
    let mut can_exit = vec![false; n_nodes];
    flood(exit_node, false, &mut can_exit);
    let mut pseudo_exits = Vec::new();
    for b in (0..n_blocks).rev() {
        if reachable[2 * b] && !can_exit[2 * b] {
            pseudo_exits.push(b);
            flood(2 * b + 1, false, &mut can_exit);
        }
    }
    for b in pseudo_exits {
        live[exit_edge + b] = true;
    }
    // Drop edges touching unreachable blocks: they get their own classes.
    for (id, &(u, v)) in g.iter().enumerate() {
        live[id] &= reachable[u] && reachable[v];
    }

    // --- depth-first search --------------------------------------------------
    let unvisited = Node {
        num: NONE,
        parent_edge: NONE,
        hi: NONE,
        top: NONE,
        bottom: NONE,
        size: 0,
        caps: NONE,
    };
    let mut nodes = vec![unvisited; n_nodes];
    let mut order = vec![entry_node];
    nodes[entry_node].num = 0;
    // (node, how many of its adjacency entries have been tried)
    let mut stack = vec![(entry_node, 0)];
    while let Some(&mut (u, ref mut tried)) = stack.last_mut() {
        let Some(&(v, id)) = adj.of(u).get(*tried) else {
            stack.pop();
            continue;
        };
        *tried += 1;
        if live[id] && nodes[v].num == NONE {
            (nodes[v].num, nodes[v].parent_edge) = (order.len(), id);
            order.push(v);
            stack.push((v, 0));
        }
    }

    // --- bracket lists, in reverse preorder ----------------------------------
    // Bracket ids: the edge ids, then node n's capping backedge g.len() + n.
    let fresh = Bracket {
        above: NONE,
        below: NONE,
        recent_size: 0,
        recent_class: NONE,
        class: NONE,
        next_cap: NONE,
    };
    let mut brackets = vec![fresh; g.len() + n_nodes];
    let mut n_raw = 0;
    let mut new_class = || {
        n_raw += 1;
        n_raw - 1
    };
    for &n in order.iter().rev() {
        let mut me = nodes[n];
        // hi0: own backedges; hi1, hi2: the two highest-reaching children.
        let (mut hi0, mut hi1, mut hi2) = (NONE, NONE, NONE);
        for &(v, id) in adj.of(n) {
            let other = nodes[v];
            if !live[id] || id == me.parent_edge {
            } else if other.parent_edge == id {
                hi2 = hi2.min(other.hi.max(hi1));
                hi1 = hi1.min(other.hi);
                concat(&mut me, &mut brackets, &other);
            } else if other.num < me.num {
                hi0 = hi0.min(other.num);
            }
        }
        me.hi = hi0.min(hi1);
        let mut cap = me.caps;
        while cap != NONE {
            delete(&mut me, &mut brackets, cap);
            cap = brackets[cap].next_cap;
        }
        for &(v, id) in adj.of(n) {
            let other = nodes[v];
            if !live[id] || id == me.parent_edge || other.parent_edge == id {
            } else if other.num < me.num {
                push(&mut me, &mut brackets, id);
            } else {
                delete(&mut me, &mut brackets, id);
                if brackets[id].class == NONE {
                    brackets[id].class = new_class();
                }
            }
        }
        if hi2 < hi0 {
            let (cap, target) = (g.len() + n, order[hi2]);
            push(&mut me, &mut brackets, cap);
            brackets[cap].next_cap = nodes[target].caps;
            nodes[target].caps = cap;
        }
        if me.parent_edge != NONE {
            assert!(me.top != NONE, "the live split graph has no bridges");
            let top = &mut brackets[me.top];
            if top.recent_size != me.size {
                (top.recent_size, top.recent_class) = (me.size, new_class());
            }
            let class = top.recent_class;
            if me.size == 1 {
                top.class = class;
            }
            brackets[me.parent_edge].class = class;
        }
        nodes[n] = me;
    }

    // --- map back ------------------------------------------------------------
    let mut canonical = vec![NONE; n_raw];
    let mut next = 0;
    let mut id_of = |x: usize| {
        // An element outside the live graph is alone in a class of its own.
        if live[x] && canonical[brackets[x].class] != NONE {
            return canonical[brackets[x].class];
        }
        if live[x] {
            canonical[brackets[x].class] = next;
        }
        next += 1;
        next - 1
    };
    let block_class = (0..n_blocks).map(&mut id_of).collect();
    let edge_class = (n_blocks..exit_edge).map(&mut id_of).collect();
    EquivClasses::new(block_class, edge_class, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;

    fn loop_cfg() -> Cfg {
        let mut a = Asm::new("/t");
        a.proc("main");
        a.li(Reg::T0, 10);
        let top = a.here();
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        Cfg::build(&image, &sym).unwrap()
    }

    #[test]
    fn loop_classes() {
        let cfg = loop_cfg();
        let eq = frequency_classes(&cfg);
        // Preheader and exit block run once per invocation: same class.
        assert_eq!(eq.block_class[0], eq.block_class[2]);
        // The body runs n times: different class.
        assert_ne!(eq.block_class[0], eq.block_class[1]);
        // Entry fall-through edge and loop-exit edge run once: same class
        // as the preheader.
        let e_pre_body = cfg
            .edges
            .iter()
            .position(|e| e.from.0 == 0 && e.to.0 == 1)
            .unwrap();
        let e_body_exit = cfg
            .edges
            .iter()
            .position(|e| e.from.0 == 1 && e.to.0 == 2)
            .unwrap();
        let e_back = cfg
            .edges
            .iter()
            .position(|e| e.from.0 == 1 && e.to.0 == 1)
            .unwrap();
        assert_eq!(eq.edge_class[e_pre_body], eq.block_class[0]);
        assert_eq!(eq.edge_class[e_body_exit], eq.block_class[0]);
        // The back edge runs n-1 times: its own class.
        assert_ne!(eq.edge_class[e_back], eq.block_class[0]);
        assert_ne!(eq.edge_class[e_back], eq.block_class[1]);
    }

    #[test]
    fn diamond_classes() {
        // 0 → {1, 2} → 3.
        let eq = classes_raw(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], 0, &[3]);
        assert_eq!(eq.block_class[0], eq.block_class[3]);
        assert_ne!(eq.block_class[1], eq.block_class[2]);
        assert_ne!(eq.block_class[0], eq.block_class[1]);
        // Each arm's two edges are equivalent to the arm's block.
        assert_eq!(eq.edge_class[0], eq.block_class[1]);
        assert_eq!(eq.edge_class[2], eq.block_class[1]);
        assert_eq!(eq.edge_class[1], eq.block_class[2]);
        assert_eq!(eq.edge_class[3], eq.block_class[2]);
    }

    #[test]
    fn straight_line_single_class() {
        let eq = classes_raw(3, &[(0, 1), (1, 2)], 0, &[2]);
        assert_eq!(eq.block_class[0], eq.block_class[1]);
        assert_eq!(eq.block_class[1], eq.block_class[2]);
        assert_eq!(eq.edge_class[0], eq.block_class[0]);
        assert_eq!(eq.edge_class[1], eq.block_class[0]);
        assert_eq!(eq.n_classes, 1);
    }

    #[test]
    fn infinite_loop_extension() {
        // 0 → 1 → 2 → 1 forever (no exits at all).
        let eq = classes_raw(3, &[(0, 1), (1, 2), (2, 1)], 0, &[]);
        // Blocks 1 and 2 loop together: same class.
        assert_eq!(eq.block_class[1], eq.block_class[2]);
        assert_ne!(eq.block_class[0], eq.block_class[1]);
    }

    #[test]
    fn missing_edges_fall_back_to_trivial_classes() {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.jsr(Reg::ZERO, Reg::T3);
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let eq = frequency_classes(&cfg);
        assert_eq!(eq.n_classes, cfg.blocks.len() + cfg.edges.len());
    }

    #[test]
    fn nested_loop_classes_differ() {
        // 0 → 1 (outer head) → 2 (inner) → 2 | 2 → 1 | 1 → 3 exit.
        let eq = classes_raw(4, &[(0, 1), (1, 2), (2, 2), (2, 1), (1, 3)], 0, &[3]);
        assert_eq!(eq.block_class[0], eq.block_class[3]);
        assert_ne!(eq.block_class[1], eq.block_class[2]);
        assert_ne!(eq.block_class[0], eq.block_class[1]);
    }

    #[test]
    fn unreachable_blocks_get_own_classes() {
        // Block 2 is unreachable.
        let eq = classes_raw(3, &[(0, 1)], 0, &[1]);
        assert_ne!(eq.block_class[2], eq.block_class[0]);
        assert_ne!(eq.block_class[2], eq.block_class[1]);
    }

    /// Random-walk validation: on random CFGs, same-class members must
    /// have identical counts over any set of complete entry→exit walks.
    fn random_cfg(n: usize, seed: u64) -> (Vec<(usize, usize)>, Vec<usize>) {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut rnd = move |m: usize| {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 33) as usize) % m
        };
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
        (edges, exits)
    }

    /// Random-walk validation over a deterministic sweep of seeds and
    /// sizes: same-class members must have identical counts over any set
    /// of complete entry→exit walks.
    #[test]
    fn same_class_means_same_counts() {
        for seed in 0u64..60 {
            for n in 2usize..10 {
                same_class_case(seed * 167 + 13, n);
            }
        }
    }

    fn same_class_case(seed: u64, n: usize) {
        let (edges, exits) = random_cfg(n, seed);
        let eq = classes_raw(n, &edges, 0, &exits);
        // Walk the graph: many complete entry→exit traversals with
        // pseudo-random branch choices.
        let mut succ: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (i, &(f, t)) in edges.iter().enumerate() {
            succ[f].push((t, i));
        }
        let mut bcount = vec![0u64; n];
        let mut ecount = vec![0u64; edges.len()];
        let mut state = seed.wrapping_add(12345);
        let mut rnd = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let mut walks = 0;
        'outer: for _ in 0..2000 {
            if walks >= 50 {
                break;
            }
            let mut at = 0usize;
            let mut trail_b = Vec::new();
            let mut trail_e = Vec::new();
            for _ in 0..10_000 {
                trail_b.push(at);
                let can_exit_here = exits.contains(&at);
                let outs = &succ[at];
                if can_exit_here && (outs.is_empty() || rnd(2) == 0) {
                    // Complete walk: commit counts.
                    for &b in &trail_b {
                        bcount[b] += 1;
                    }
                    for &e in &trail_e {
                        ecount[e] += 1;
                    }
                    walks += 1;
                    continue 'outer;
                }
                if outs.is_empty() {
                    continue 'outer; // dead end that is not an exit
                }
                let (t, e) = outs[rnd(outs.len())];
                trail_e.push(e);
                at = t;
            }
            // Non-terminating walk: discard.
        }
        if walks < 10 {
            return; // degenerate graph: too few complete walks to check
        }
        // Same class ⇒ equal counts (blocks and edges).
        for a in 0..n {
            for b in 0..n {
                if eq.block_class[a] == eq.block_class[b] {
                    assert_eq!(
                        bcount[a], bcount[b],
                        "seed {seed}: blocks {a} and {b} share class {}",
                        eq.block_class[a]
                    );
                }
            }
        }
        for i in 0..edges.len() {
            for j in 0..edges.len() {
                if eq.edge_class[i] == eq.edge_class[j] {
                    assert_eq!(ecount[i], ecount[j], "seed {seed}: edges {i} vs {j}");
                }
            }
            for (b, &bc) in bcount.iter().enumerate().take(n) {
                if eq.edge_class[i] == eq.block_class[b] {
                    assert_eq!(ecount[i], bc, "seed {seed}: edge {i} vs block {b}");
                }
            }
        }
    }
}
