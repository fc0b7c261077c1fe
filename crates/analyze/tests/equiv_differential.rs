//! Differential, adversarial and scaling tests of the linear-time
//! cycle-equivalence classes (`dcpi_analyze::equiv`).
//!
//! Random CFGs of 2–200 blocks, shaped like what `Cfg::build` can emit and
//! then some: parallel edges (a branch whose target is its fall-through),
//! self-looping blocks, irreducible loops (branches into the middle of
//! other loops), exit-less regions (the pseudo-exit extension), dead ends
//! and unreachable blocks. On every graph the class ids must be canonical
//! and complete random walks must count same-class members equally; on
//! every graph of at most 40 blocks the partition must equal the one
//! `dcpi-check` derives by brute-force component counting, which shares
//! no mechanism with the analyzer.

use dcpi_analyze::equiv::{classes_raw, EquivClasses};
use dcpi_check::cfg_audit::brute_force_classes;
use dcpi_core::prng::CartaRng;

struct Graph {
    n: usize,
    edges: Vec<(usize, usize)>,
    exits: Vec<usize>,
}

fn pick(rng: &mut CartaRng, n: usize) -> usize {
    rng.uniform(0, n as u64 - 1) as usize
}

/// One random CFG. `exit_pct` is the chance that a block is an exit (low
/// values leave whole regions exit-less), `wild_pct` the chance that a
/// branch goes anywhere rather than a few blocks away.
fn random_graph(rng: &mut CartaRng, n: usize, exit_pct: usize, wild_pct: usize) -> Graph {
    let mut g = Graph {
        n,
        edges: Vec::new(),
        exits: Vec::new(),
    };
    for b in 0..n {
        let next = (b + 1).min(n - 1);
        let target = if pick(rng, 100) < wild_pct {
            pick(rng, n)
        } else {
            (b + pick(rng, 7)).saturating_sub(3).min(n - 1)
        };
        if pick(rng, 100) < exit_pct {
            g.exits.push(b);
        }
        match pick(rng, 10) {
            0..=2 => g.edges.push((b, next)),                  // fall through
            3..=5 => g.edges.extend([(b, target), (b, next)]), // conditional branch
            6 => g.edges.push((b, target)),                    // unconditional branch
            7 => g.edges.extend([(b, next), (b, next)]),       // branch to the fall-through
            8 => g.edges.extend([(b, b), (b, next)]),          // self-loop
            _ => {}                                            // return, or a dead end
        }
    }
    g
}

fn reachable_blocks(g: &Graph) -> Vec<bool> {
    let mut succ = vec![Vec::new(); g.n];
    for &(f, t) in &g.edges {
        succ[f].push(t);
    }
    let mut seen = vec![false; g.n];
    let mut stack = vec![0];
    seen[0] = true;
    while let Some(x) = stack.pop() {
        for &t in &succ[x] {
            if !seen[t] {
                seen[t] = true;
                stack.push(t);
            }
        }
    }
    seen
}

fn flat_ids(eq: &EquivClasses) -> Vec<usize> {
    eq.block_class
        .iter()
        .chain(&eq.edge_class)
        .copied()
        .collect()
}

/// Ids are numbered by first appearance over the blocks, then the edges,
/// and anything touching an unreachable block is alone in its class.
fn assert_canonical(g: &Graph, eq: &EquivClasses, what: &str) {
    assert_eq!(eq.block_class.len(), g.n, "{what}");
    assert_eq!(eq.edge_class.len(), g.edges.len(), "{what}");
    let mut members = vec![0usize; eq.n_classes];
    let mut next = 0;
    for id in flat_ids(eq) {
        assert!(id <= next, "{what}: id {id} appears before {next}");
        next = next.max(id + 1);
        members[id] += 1;
    }
    assert_eq!(next, eq.n_classes, "{what}");
    let reachable = reachable_blocks(g);
    for b in 0..g.n {
        if !reachable[b] {
            assert_eq!(members[eq.block_class[b]], 1, "{what}: block {b}");
        }
        assert!(eq.blocks_in(eq.block_class[b]).contains(&b), "{what}");
    }
    for (e, &(f, t)) in g.edges.iter().enumerate() {
        if !reachable[f] || !reachable[t] {
            assert_eq!(members[eq.edge_class[e]], 1, "{what}: edge {e}");
        }
    }
}

/// The brute-force partition, renumbered by first appearance, must be the
/// analyzer's classes exactly.
fn assert_matches_brute_force(g: &Graph, eq: &EquivClasses, what: &str) {
    let brute = brute_force_classes(g.n, &g.edges, 0, &g.exits);
    // Brute-force ids are union-find roots, possibly virtual edges.
    let mut renumbered = vec![usize::MAX; brute.iter().max().map_or(0, |&m| m + 1)];
    let mut next = 0;
    let canonical: Vec<usize> = brute
        .iter()
        .map(|&root| {
            if renumbered[root] == usize::MAX {
                renumbered[root] = next;
                next += 1;
            }
            renumbered[root]
        })
        .collect();
    assert_eq!(
        flat_ids(eq),
        canonical,
        "{what}: edges {:?} exits {:?}",
        g.edges,
        g.exits
    );
}

/// Same class ⇒ same count over complete entry→exit walks with random
/// branch choices (walks that dead-end or never leave are discarded).
fn assert_same_class_same_counts(g: &Graph, eq: &EquivClasses, rng: &mut CartaRng, what: &str) {
    let mut succ: Vec<Vec<(usize, usize)>> = vec![Vec::new(); g.n];
    for (e, &(f, t)) in g.edges.iter().enumerate() {
        succ[f].push((t, e));
    }
    let mut is_exit = vec![false; g.n];
    for &x in &g.exits {
        is_exit[x] = true;
    }
    // Per element (blocks, then edges) its count over the committed walks.
    let mut count = vec![0u64; g.n + g.edges.len()];
    let mut walks = 0;
    let mut trail = Vec::new();
    for _ in 0..200 {
        trail.clear();
        let mut at = 0;
        for _ in 0..20 * g.n {
            trail.push(at);
            if is_exit[at] && (succ[at].is_empty() || pick(rng, 3) == 0) {
                for &x in &trail {
                    count[x] += 1;
                }
                walks += 1;
                break;
            }
            if succ[at].is_empty() {
                break;
            }
            let (t, e) = succ[at][pick(rng, succ[at].len())];
            trail.push(g.n + e);
            at = t;
        }
    }
    if walks < 5 {
        return; // too few complete walks to say anything
    }
    let mut class_count = vec![None; eq.n_classes];
    for (x, id) in flat_ids(eq).into_iter().enumerate() {
        let expected = *class_count[id].get_or_insert(count[x]);
        assert_eq!(count[x], expected, "{what}: element {x} of class {id}");
    }
}

#[test]
fn random_cfgs_match_brute_force_and_random_walks() {
    let mut rng = CartaRng::new(0x1997);
    let (mut cross_checked, mut walked) = (0, 0);
    for round in 0..5200 {
        // Three in four graphs are small enough to cross-check.
        let n = match round % 4 {
            0 => 2 + pick(&mut rng, 10),
            1 => 2 + pick(&mut rng, 24),
            2 => 2 + pick(&mut rng, 39),
            _ => 41 + pick(&mut rng, 160),
        };
        let exit_pct = [0, 4, 15, 40][(round / 4) % 4];
        let wild_pct = [5, 30, 100][(round / 16) % 3];
        let g = random_graph(&mut rng, n, exit_pct, wild_pct);
        let what = format!("graph {round} ({n} blocks, exits {exit_pct}%, wild {wild_pct}%)");
        let eq = classes_raw(g.n, &g.edges, 0, &g.exits);
        assert_canonical(&g, &eq, &what);
        if n <= 40 {
            assert_matches_brute_force(&g, &eq, &what);
            cross_checked += 1;
        }
        assert_same_class_same_counts(&g, &eq, &mut rng, &what);
        walked += 1;
    }
    assert!(walked >= 5000 && cross_checked >= 3500);
}

/// Runs `f` on a thread whose stack a 50 000-deep recursion would overflow.
fn on_a_small_stack(f: impl FnOnce() + Send + 'static) {
    let thread = std::thread::Builder::new().stack_size(256 * 1024);
    thread.spawn(f).unwrap().join().unwrap();
}

#[test]
fn fifty_thousand_block_diamond_chain_is_linear() {
    on_a_small_stack(|| {
        // head 4i → arms 4i+1, 4i+2 → join 4i+3 → next head.
        let diamonds = 12_500;
        let n = 4 * diamonds;
        let mut edges = Vec::new();
        for i in 0..diamonds {
            let h = 4 * i;
            edges.extend([(h, h + 1), (h, h + 2), (h + 1, h + 3), (h + 2, h + 3)]);
            if i + 1 < diamonds {
                edges.push((h + 3, h + 4));
            }
        }
        let started = std::time::Instant::now();
        let eq = classes_raw(n, &edges, 0, &[n - 1]);
        let elapsed = started.elapsed();
        // The spine is one class; every arm (block and its two edges) its own.
        assert_eq!(eq.n_classes, 1 + 2 * diamonds);
        for i in 0..diamonds {
            let h = 4 * i;
            assert_eq!((eq.block_class[h], eq.block_class[h + 3]), (0, 0));
            assert_eq!(eq.block_class[h + 1], 2 * i + 1);
            assert_eq!(eq.block_class[h + 2], 2 * i + 2);
        }
        assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
    });
}

#[test]
fn fifty_thousand_deep_loop_nest_is_linear() {
    on_a_small_stack(|| {
        // A chain 0 → 1 → … → n-1 where block n-1-k loops back to block k:
        // loop k spans blocks k..=n-1-k, each nested in the one before.
        let n = 50_000;
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|b| (b, b + 1)).collect();
        edges.extend((0..n / 2).map(|k| (n - 1 - k, k)));
        let started = std::time::Instant::now();
        let eq = classes_raw(n, &edges, 0, &[n - 1]);
        let elapsed = started.elapsed();
        // Head k and latch n-1-k run equally often, once per trip of loop
        // k; every level differs, and each back edge is alone.
        assert_eq!(eq.n_classes, n);
        for k in 0..n / 2 {
            assert_eq!(eq.block_class[k], k);
            assert_eq!(eq.block_class[n - 1 - k], k);
            assert_eq!(eq.edge_class[n - 1 + k], n / 2 + k);
        }
        assert!(elapsed.as_secs() < 10, "took {elapsed:?}");
    });
}
