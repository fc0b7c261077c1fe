//! Property tests for the dataflow solver: on seeded random CFGs, the
//! worklist fixpoint must agree exactly with a brute-force enumeration
//! of paths.
//!
//! Both liveness and reaching definitions are distributive bit-vector
//! problems, so the fixpoint solution equals the meet-over-paths
//! solution — which this file recomputes the slow way:
//!
//! * a register is live at a block entry iff some (simple) path from
//!   there reads it before any write;
//! * a def site reaches a block entry iff some path from the procedure
//!   entry executes the def and no later write to that register; such a
//!   witness visits no block more than twice (once before the def, once
//!   after), which bounds the enumeration.

use dcpi_analyze::cfg::{BlockId, Cfg};
use dcpi_check::dataflow::liveness::Liveness;
use dcpi_check::dataflow::reaching::{DefSites, ReachingDefs, ENTRY_DEF};
use dcpi_check::dataflow::{solve, Solution};
use dcpi_isa::asm::Asm;
use dcpi_isa::image::Image;
use dcpi_isa::reg::Reg;

/// Deterministic xorshift64*; the same generator the rest of the
/// workspace uses for seeded tests.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A small register pool so defs and uses collide often.
const POOL: [Reg; 6] = [Reg::T0, Reg::T1, Reg::T2, Reg::A0, Reg::A1, Reg::V0];

/// Emits a random procedure: `nb` straight-line groups separated by
/// random conditional/unconditional branches between group heads, so
/// the CFG has joins, loops, and unreachable corners.
fn random_image(seed: u64) -> Image {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let nb = 3 + rng.below(5) as usize;
    let mut a = Asm::new("/prop");
    a.proc("f");
    let heads: Vec<_> = (0..nb).map(|_| a.label()).collect();
    for (g, head) in heads.iter().enumerate() {
        a.bind(*head);
        for _ in 0..=rng.below(3) {
            let rc = POOL[rng.below(POOL.len() as u64) as usize];
            match rng.below(3) {
                0 => a.li(rc, rng.below(100) as i64),
                1 => a.addq(
                    POOL[rng.below(POOL.len() as u64) as usize],
                    POOL[rng.below(POOL.len() as u64) as usize],
                    rc,
                ),
                _ => a.subq(
                    POOL[rng.below(POOL.len() as u64) as usize],
                    POOL[rng.below(POOL.len() as u64) as usize],
                    rc,
                ),
            }
        }
        let target = heads[rng.below(nb as u64) as usize];
        let last = g + 1 == nb;
        match rng.below(4) {
            // Conditional branch plus fallthrough (the last group must
            // not fall off the end of the procedure).
            0 if !last => a.bne(POOL[rng.below(POOL.len() as u64) as usize], target),
            1 if !last => a.beq(POOL[rng.below(POOL.len() as u64) as usize], target),
            2 => a.br(target),
            _ => a.ret(Reg::RA),
        }
    }
    // A trailing return so a final conditional/branchless group still
    // ends the procedure cleanly.
    a.ret(Reg::RA);
    a.finish()
}

fn bit(r: Reg) -> u64 {
    1u64 << r.index()
}

fn successors(cfg: &Cfg, b: usize) -> Vec<usize> {
    cfg.out_edges(BlockId(b))
        .iter()
        .map(|&e| cfg.edges[e].to.0)
        .collect()
}

/// Brute force: is `r` read before any write on some simple path of
/// blocks starting at `b`? (Simple paths suffice: cutting a cycle from
/// a witness prefix only removes instructions, none of which wrote `r`.)
fn brute_live(cfg: &Cfg, b: usize, r: Reg, visited: &mut [bool]) -> bool {
    for insn in cfg.block_insns(BlockId(b)) {
        if insn.reads().contains(&r) {
            return true;
        }
        if insn.writes() == Some(r) {
            return false;
        }
    }
    for s in successors(cfg, b) {
        if !visited[s] {
            visited[s] = true;
            let hit = brute_live(cfg, s, r, visited);
            visited[s] = false;
            if hit {
                return true;
            }
        }
    }
    false
}

/// Brute force reaching defs: walks every path from the entry that
/// visits no block more than twice, carrying the per-register current
/// def site, and records what it sees at each block entry.
fn brute_reaching(cfg: &Cfg, entry_regs: u64) -> Vec<DefSites> {
    let nb = cfg.blocks.len();
    let mut reach: Vec<DefSites> = vec![DefSites::new(); nb];
    let mut cur: Vec<Option<u32>> = (0..Reg::COUNT as u8)
        .map(|r| (entry_regs & (1 << r) != 0).then_some(ENTRY_DEF))
        .collect();
    let mut visits = vec![0u8; nb];
    walk(cfg, cfg.entry.0, &mut cur, &mut visits, &mut reach);
    reach
}

fn walk(
    cfg: &Cfg,
    b: usize,
    cur: &mut Vec<Option<u32>>,
    visits: &mut [u8],
    reach: &mut [DefSites],
) {
    for (r, site) in cur.iter().enumerate() {
        if let Some(site) = site {
            reach[b].insert((r as u8, *site));
        }
    }
    visits[b] += 1;
    let saved = cur.clone();
    let base = (cfg.blocks[b].start_word - cfg.start_word) as usize;
    for (i, insn) in cfg.block_insns(BlockId(b)).iter().enumerate() {
        if let Some(w) = insn.writes() {
            cur[w.index()] = Some((base + i) as u32);
        }
    }
    for s in successors(cfg, b) {
        if visits[s] < 2 {
            walk(cfg, s, cur, visits, reach);
        }
    }
    *cur = saved;
    visits[b] -= 1;
}

/// Blocks reachable from the CFG entry (forward).
fn forward_reachable(cfg: &Cfg) -> Vec<bool> {
    let mut seen = vec![false; cfg.blocks.len()];
    let mut stack = vec![cfg.entry.0];
    seen[cfg.entry.0] = true;
    while let Some(b) = stack.pop() {
        for s in successors(cfg, b) {
            if !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    seen
}

#[test]
fn solver_liveness_matches_per_path_enumeration() {
    for seed in 0..30u64 {
        let image = random_image(seed);
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).expect("random image must build a CFG");
        let sol: Solution<u64> = solve(&cfg, &Liveness::closed());
        for b in 0..cfg.blocks.len() {
            let mut brute = 0u64;
            for r in POOL.iter().chain([Reg::RA, Reg::T3].iter()) {
                let mut visited = vec![false; cfg.blocks.len()];
                visited[b] = true;
                if brute_live(&cfg, b, *r, &mut visited) {
                    brute |= bit(*r);
                }
            }
            let mask: u64 = POOL
                .iter()
                .chain([Reg::RA, Reg::T3].iter())
                .map(|r| bit(*r))
                .sum();
            assert_eq!(
                sol.entry[b] & mask,
                brute,
                "seed {seed}: live-in of block {b} diverges from the path enumeration"
            );
        }
    }
}

#[test]
fn solver_reaching_defs_match_per_path_enumeration() {
    for seed in 0..30u64 {
        let image = random_image(seed);
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).expect("random image must build a CFG");
        let pass = ReachingDefs::abi();
        let brute = brute_reaching(&cfg, pass.entry_regs);
        let sol: Solution<DefSites> = solve(&cfg, &pass);
        let reachable = forward_reachable(&cfg);
        for b in 0..cfg.blocks.len() {
            if !reachable[b] {
                continue;
            }
            assert_eq!(
                sol.entry[b],
                brute[b],
                "seed {seed}: reaching defs at block {b} diverge from the path enumeration\n\
                 solver-only: {:?}\nbrute-only: {:?}\nedges: {:?}",
                sol.entry[b].difference(&brute[b]).collect::<Vec<_>>(),
                brute[b].difference(&sol.entry[b]).collect::<Vec<_>>(),
                cfg.edges
                    .iter()
                    .map(|e| (e.from.0, e.to.0))
                    .collect::<Vec<_>>(),
            );
        }
    }
}

#[test]
fn random_cfgs_exercise_joins_and_loops() {
    // The generator must actually produce interesting shapes, or the
    // properties above are vacuous.
    let mut multi_block = 0;
    let mut has_back_edge = 0;
    for seed in 0..30u64 {
        let image = random_image(seed);
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        if cfg.blocks.len() > 2 {
            multi_block += 1;
        }
        if cfg.edges.iter().any(|e| e.to.0 <= e.from.0) {
            has_back_edge += 1;
        }
    }
    assert!(multi_block >= 20, "only {multi_block}/30 multi-block CFGs");
    assert!(has_back_edge >= 10, "only {has_back_edge}/30 CFGs loop");
}
