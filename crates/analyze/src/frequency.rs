//! Frequency and CPI estimation (§6.1).
//!
//! The crux: a sample count `S_i` is proportional to the product of
//! instruction `i`'s execution frequency `F` and its average head-of-queue
//! time `C_i`; the estimator factors that product. For each frequency
//! equivalence class it collects the *issue points* (instructions with
//! statically nonzero minimum head time `M_i`), forms the ratios
//! `S_i / M_i` — which equal `F` wherever no dynamic stall occurred — and
//! averages a cluster of the smallest ratios (§6.1.3). Classes that got no
//! estimate receive one by local propagation of CFG flow constraints
//! (§6.1.4), and every estimate carries a predicted confidence (§6.1.5).
//!
//! Refinement from §6.1.3: when issue point `i` stalls on a dependency on
//! an earlier instruction `j`, dynamic stalls of intervening instructions
//! can *shorten* `i`'s observed head time; the ratio
//! `Σ_{k=j+1..i} S_k / Σ_{k=j+1..i} M_k` is used instead, which is immune
//! to that overlap.

use crate::cfg::Cfg;
use crate::equiv::EquivClasses;
use dcpi_isa::pipeline::BlockSchedule;

/// Predicted accuracy of an estimate (§6.1.5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Confidence {
    /// Probably poor: few issue points, loose cluster, or long
    /// propagation chains.
    Low,
    /// Reasonable.
    Medium,
    /// Tight cluster over several issue points with plenty of samples.
    High,
}

/// How an estimate was obtained.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EstimateSource {
    /// Averaged from a cluster of issue-point ratios.
    IssuePoints,
    /// `ΣS / ΣM` over the whole class (few samples).
    ClassSum,
    /// Derived from flow constraints.
    Propagated,
    /// Split from a branch block's frequency using interpreted
    /// direction samples (§7 extension).
    EdgeSamples,
}

/// A frequency estimate in `S/M` units (multiply by the mean sampling
/// period to get an execution count).
#[derive(Clone, Copy, Debug)]
pub struct FrequencyEstimate {
    /// The estimated frequency.
    pub value: f64,
    /// Predicted accuracy.
    pub confidence: Confidence,
    /// Provenance.
    pub source: EstimateSource,
}

/// Estimator tuning knobs, defaulted to the paper's rough descriptions.
#[derive(Clone, Copy, Debug)]
pub struct EstimatorConfig {
    /// Classes with fewer total samples use `ΣS/ΣM` instead of
    /// clustering.
    pub min_class_samples: u64,
    /// Cluster growth bound: max ratio ≤ this × min ratio.
    pub cluster_spread: f64,
    /// Minimum fraction of a class's issue points a cluster must contain.
    pub min_cluster_frac: f64,
    /// A candidate `F` implying a per-execution stall longer than this
    /// (cycles) for some class member is deemed anomalous.
    pub unreasonable_stall: f64,
}

impl Default for EstimatorConfig {
    fn default() -> EstimatorConfig {
        EstimatorConfig {
            min_class_samples: 100,
            cluster_spread: 1.5,
            min_cluster_frac: 0.15,
            unreasonable_stall: 2000.0,
        }
    }
}

/// Frequencies for one procedure.
#[derive(Clone, Debug)]
pub struct ProcFrequencies {
    /// Estimate per equivalence class.
    pub class_freq: Vec<Option<FrequencyEstimate>>,
    /// Estimate per block (its class's).
    pub block_freq: Vec<Option<FrequencyEstimate>>,
    /// Estimate per CFG edge (its class's).
    pub edge_freq: Vec<Option<FrequencyEstimate>>,
    /// Frequency per instruction (block value, 0.0 when unknown).
    pub insn_freq: Vec<f64>,
}

/// Interpreted branch-direction counts for one procedure: per
/// instruction index, `(taken, fall-through)` edge samples (the §7
/// instruction-interpretation extension).
pub type BranchDirections = std::collections::HashMap<usize, (u64, u64)>;

/// Estimates frequencies for a procedure.
///
/// `schedules[b]` is the static schedule of block `b`; `samples[i]` the
/// CYCLES sample count of instruction `i` (indexed from the procedure
/// start).
#[must_use]
pub fn estimate_frequencies(
    cfg: &Cfg,
    classes: &EquivClasses,
    schedules: &[BlockSchedule],
    samples: &[u64],
    cfg_est: &EstimatorConfig,
) -> ProcFrequencies {
    estimate_frequencies_with_edges(cfg, classes, schedules, samples, None, cfg_est)
}

/// Like [`estimate_frequencies`], but additionally consumes interpreted
/// branch-direction samples: before flow propagation, a conditional
/// branch with direction samples splits its block's frequency between its
/// taken and fall-through edges in the observed proportion — giving the
/// edges *direct* estimates where the plain analysis had to rely on
/// propagation alone (the improvement the paper anticipated from edge
/// samples, §7).
#[must_use]
pub fn estimate_frequencies_with_edges(
    cfg: &Cfg,
    classes: &EquivClasses,
    schedules: &[BlockSchedule],
    samples: &[u64],
    directions: Option<&BranchDirections>,
    cfg_est: &EstimatorConfig,
) -> ProcFrequencies {
    let nc = classes.n_classes;
    let mut class_freq: Vec<Option<FrequencyEstimate>> = vec![None; nc];

    // --- per-class direct estimates -----------------------------------------
    let mut ratios: Vec<f64> = Vec::new();
    for (class, slot) in class_freq.iter_mut().enumerate() {
        let blocks = classes.blocks_in(class);
        if blocks.is_empty() {
            continue; // edge-only classes are filled by propagation
        }
        ratios.clear();
        let mut sum_s = 0u64;
        let mut sum_m = 0u64;
        for &b in blocks {
            let sched = &schedules[b];
            let base = (cfg.blocks[b].start_word - cfg.start_word) as usize;
            for (k, e) in sched.entries.iter().enumerate() {
                let i = base + k;
                sum_s += samples[i];
                sum_m += e.m;
                if e.m == 0 {
                    continue;
                }
                // Dependent-pair refinement: average over the span from
                // the culprit instruction (exclusive) through i.
                let span_start = e
                    .stalls
                    .iter()
                    .find_map(|s| s.culprit)
                    .map(|j| j + 1)
                    .filter(|&j| j <= k);
                let ratio = match span_start {
                    Some(j) => {
                        let s: u64 = (j..=k).map(|x| samples[base + x]).sum();
                        let m: u64 = (j..=k).map(|x| sched.entries[x].m).sum();
                        if m == 0 {
                            continue;
                        }
                        s as f64 / m as f64
                    }
                    None => samples[i] as f64 / e.m as f64,
                };
                ratios.push(ratio);
            }
        }
        // A class with no samples at all has frequency ≈ 0 (fewer than
        // one execution per sampling period): a usable low-confidence
        // estimate, and essential for unblocking flow propagation of the
        // surrounding edges (§6.1.4).
        let class_sum = || {
            (sum_m > 0).then_some(FrequencyEstimate {
                value: sum_s as f64 / sum_m as f64,
                confidence: Confidence::Low,
                source: EstimateSource::ClassSum,
            })
        };
        if ratios.is_empty() || sum_s < cfg_est.min_class_samples {
            *slot = class_sum();
            continue;
        }
        *slot = cluster_estimate(&mut ratios, sum_s, cfg_est, blocks, schedules, samples, cfg)
            .or_else(class_sum);
    }

    if let Some(dirs) = directions {
        apply_branch_directions(cfg, classes, dirs, &mut class_freq);
    }
    propagate(cfg, classes, &mut class_freq);

    // --- fan out to blocks, edges, instructions ------------------------------
    let block_freq: Vec<Option<FrequencyEstimate>> =
        classes.block_class.iter().map(|&c| class_freq[c]).collect();
    let edge_freq: Vec<Option<FrequencyEstimate>> =
        classes.edge_class.iter().map(|&c| class_freq[c]).collect();
    let mut insn_freq = vec![0.0; cfg.insns.len()];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let f = block_freq[b].map_or(0.0, |e| e.value);
        let base = (blk.start_word - cfg.start_word) as usize;
        for x in insn_freq.iter_mut().skip(base).take(blk.len as usize) {
            *x = f;
        }
    }
    ProcFrequencies {
        class_freq,
        block_freq,
        edge_freq,
        insn_freq,
    }
}

/// The ratio-clustering heuristic of §6.1.3. Sorts `ratios` in place.
fn cluster_estimate(
    ratios: &mut [f64],
    class_samples: u64,
    cfg_est: &EstimatorConfig,
    blocks: &[usize],
    schedules: &[BlockSchedule],
    samples: &[u64],
    cfg: &Cfg,
) -> Option<FrequencyEstimate> {
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let sorted = &*ratios;
    let n = sorted.len();
    let min_size = ((n as f64 * cfg_est.min_cluster_frac).ceil() as usize).max(1);
    // Greedy clusters over the sorted ratios.
    let mut start = 0;
    for i in 1..=n {
        let open_new = i == n
            || (sorted[start] > 0.0 && sorted[i] > sorted[start] * cfg_est.cluster_spread)
            || (sorted[start] == 0.0 && sorted[i] > 0.0);
        if !open_new {
            continue;
        }
        let cluster = &sorted[start..i];
        start = i;
        if cluster.len() < min_size {
            continue;
        }
        let f = cluster.iter().sum::<f64>() / cluster.len() as f64;
        if f <= 0.0 {
            continue;
        }
        // Anomaly check: would this F imply an unreasonably large stall
        // for some instruction in the class?
        let mut anomalous = false;
        for &b in blocks {
            let base = (cfg.blocks[b].start_word - cfg.start_word) as usize;
            for (k, e) in schedules[b].entries.iter().enumerate() {
                let stall = samples[base + k] as f64 / f - e.m as f64;
                if stall > cfg_est.unreasonable_stall {
                    anomalous = true;
                }
            }
        }
        if anomalous {
            continue;
        }
        let spread = cluster.last().expect("nonempty") / cluster.first().expect("nonempty");
        let confidence = if cluster.len() >= 3 && spread <= 1.3 && class_samples >= 500 {
            Confidence::High
        } else if cluster.len() >= 2 && class_samples >= 100 {
            Confidence::Medium
        } else {
            Confidence::Low
        };
        return Some(FrequencyEstimate {
            value: f,
            confidence,
            source: EstimateSource::IssuePoints,
        });
    }
    None
}

/// Splits branch-block frequencies onto taken/fall-through edges using
/// interpreted direction samples (§7 extension). Only fills classes that
/// lack an estimate or hold a low-confidence non-issue-point one.
fn apply_branch_directions(
    cfg: &Cfg,
    classes: &EquivClasses,
    dirs: &BranchDirections,
    class_freq: &mut [Option<FrequencyEstimate>],
) {
    /// Direction samples below this are too noisy to split with.
    const MIN_DIRECTION_SAMPLES: u64 = 8;
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let last_idx = (blk.end_word() - cfg.start_word - 1) as usize;
        if !matches!(
            cfg.insns[last_idx],
            dcpi_isa::insn::Instruction::CondBr { .. }
        ) {
            continue;
        }
        let Some(&(taken, fall)) = dirs.get(&last_idx) else {
            continue;
        };
        if taken + fall < MIN_DIRECTION_SAMPLES {
            continue;
        }
        let Some(block_est) = class_freq[classes.block_class[b]] else {
            continue;
        };
        let frac_taken = taken as f64 / (taken + fall) as f64;
        for &e in cfg.out_edges(crate::cfg::BlockId(b)) {
            let share = match cfg.edges[e].kind {
                crate::cfg::EdgeKind::Taken => frac_taken,
                crate::cfg::EdgeKind::FallThrough => 1.0 - frac_taken,
                crate::cfg::EdgeKind::Indirect => continue,
            };
            let ec = classes.edge_class[e];
            // Direction samples are direct measurements; they beat any
            // low-confidence inference (including single-issue-point
            // ratios polluted by mispredict stalls at branch targets).
            let replaceable = class_freq[ec].is_none_or(|est| est.confidence == Confidence::Low);
            if replaceable {
                class_freq[ec] = Some(FrequencyEstimate {
                    value: block_est.value * share,
                    confidence: block_est.confidence.min(Confidence::Medium),
                    source: EstimateSource::EdgeSamples,
                });
            }
        }
    }
}

/// Local propagation of flow constraints (§6.1.4): the frequency of a
/// block equals the sum of its incoming edges and the sum of its outgoing
/// edges; estimates are copied class-wide and never negative.
fn propagate(cfg: &Cfg, classes: &EquivClasses, class_freq: &mut [Option<FrequencyEstimate>]) {
    let nb = cfg.blocks.len();
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 4 * (nb + cfg.edges.len()).max(4) {
        changed = false;
        rounds += 1;
        for b in 0..nb {
            let bc = classes.block_class[b];
            for (edges, boundary) in [
                (cfg.in_edges(crate::cfg::BlockId(b)), b == cfg.entry.0),
                (cfg.out_edges(crate::cfg::BlockId(b)), cfg.blocks[b].is_exit),
            ] {
                if boundary {
                    // Flow can enter/leave the procedure here: the edge
                    // sum need not match the block.
                    continue;
                }
                let mut known_sum = 0.0;
                let mut lowest = Confidence::High;
                // Several incident edges may share one unknown class; the
                // class value then appears `multiplicity` times in the
                // flow sum.
                let (mut unknown, mut multiplicity, mut one_class) = (None, 0.0, true);
                for &e in edges {
                    let ec = classes.edge_class[e];
                    match class_freq[ec] {
                        Some(est) => {
                            known_sum += est.value;
                            lowest = lowest.min(est.confidence);
                        }
                        None => {
                            one_class &= unknown.is_none_or(|u| u == ec);
                            unknown = Some(ec);
                            multiplicity += 1.0;
                        }
                    }
                }
                match (class_freq[bc], unknown) {
                    (None, None) if !edges.is_empty() => {
                        class_freq[bc] = Some(FrequencyEstimate {
                            value: known_sum.max(0.0),
                            confidence: demote(lowest),
                            source: EstimateSource::Propagated,
                        });
                        changed = true;
                    }
                    (Some(bf), Some(ec)) if one_class => {
                        let missing = ((bf.value - known_sum) / multiplicity).max(0.0);
                        class_freq[ec] = Some(FrequencyEstimate {
                            value: missing,
                            confidence: demote(bf.confidence.min(lowest)),
                            source: EstimateSource::Propagated,
                        });
                        changed = true;
                    }
                    _ => {}
                }
            }
        }
    }
}

fn demote(c: Confidence) -> Confidence {
    match c {
        Confidence::High => Confidence::Medium,
        _ => Confidence::Low,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::equiv::frequency_classes;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::pipeline::PipelineModel;
    use dcpi_isa::reg::Reg;

    fn schedules_for(cfg: &Cfg, model: &PipelineModel) -> Vec<BlockSchedule> {
        cfg.blocks
            .iter()
            .map(|b| {
                let s = (b.start_word - cfg.start_word) as usize;
                model.schedule_block(u64::from(b.start_word), &cfg.insns[s..s + b.len as usize])
            })
            .collect()
    }

    /// The paper's Figure 2/7 copy loop with its published sample counts;
    /// the heuristic should land near the true frequency 1575.
    #[test]
    fn copy_loop_frequency_matches_figure_7() {
        use dcpi_isa::insn::Instruction;
        let mut a = Asm::new("/t");
        // Two-word pad keeps the loop's aligned-pair parity the same as
        // the figure's 0x9810 start.
        a.proc("pad");
        a.halt();
        a.halt();
        a.proc("copy");
        let r = Reg::T1;
        let w = Reg::T2;
        let top = a.here();
        a.ldq(Reg::T4, 0, r);
        a.addq_lit(Reg::T0, 4, Reg::T0);
        a.ldq(Reg::T5, 8, r);
        a.ldq(Reg::T6, 16, r);
        a.ldq(Reg::A0, 24, r);
        a.lda(r, 32, r);
        a.stq(Reg::T4, 0, w);
        a.emit(Instruction::IntOp {
            op: dcpi_isa::insn::IntOp::Cmpult,
            ra: Reg::T0,
            rb: dcpi_isa::insn::RegOrLit::Reg(Reg::V0),
            rc: Reg::T4,
        });
        a.stq(Reg::T5, 8, w);
        a.stq(Reg::T6, 16, w);
        a.stq(Reg::A0, 24, w);
        a.lda(w, 32, w);
        a.bne(Reg::T4, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbol_named("copy").unwrap().clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        assert_eq!(cfg.blocks.len(), 2, "loop body + halt");
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        assert_eq!(
            schedules[0].entries.iter().map(|e| e.m).collect::<Vec<_>>(),
            vec![1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1]
        );
        let classes = frequency_classes(&cfg);
        // Figure 2's sample counts.
        let samples = vec![
            3126, 0, 1636, 390, 1482, 0, 27766, 0, 1493, 174_727, 1548, 0, 1586, 0,
        ];
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let f = freqs.block_freq[0].expect("estimated").value;
        assert!(
            (1480.0..=1650.0).contains(&f),
            "estimate {f} should be near the true 1575 (paper computed 1527)"
        );
    }

    #[test]
    fn straight_line_estimates_s_over_m() {
        let mut a = Asm::new("/t");
        a.proc("f");
        for _ in 0..4 {
            a.addq_lit(Reg::T0, 1, Reg::T0);
        }
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        let classes = frequency_classes(&cfg);
        let samples = vec![1000, 1010, 990, 1000, 0];
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let f = freqs.insn_freq[0];
        assert!((950.0..=1050.0).contains(&f), "f = {f}");
    }

    #[test]
    fn dynamic_stall_outlier_is_excluded_by_clustering() {
        let mut a = Asm::new("/t");
        a.proc("f");
        for _ in 0..8 {
            a.addq_lit(Reg::T0, 1, Reg::T0);
        }
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        let classes = frequency_classes(&cfg);
        // One instruction has a massive dynamic stall.
        let samples = vec![500, 510, 490, 50_000, 505, 495, 500, 500, 0];
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let f = freqs.insn_freq[0];
        assert!(
            (450.0..=600.0).contains(&f),
            "outlier must not inflate the estimate: {f}"
        );
    }

    #[test]
    fn small_classes_use_class_sum() {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        let classes = frequency_classes(&cfg);
        let samples = vec![3, 5, 0];
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let est = freqs.block_freq[0].unwrap();
        assert_eq!(est.source, EstimateSource::ClassSum);
        assert_eq!(est.confidence, Confidence::Low);
        // The single block holds both addqs and the halt (M = 1 each):
        // ΣS/ΣM = 8/3.
        assert!((est.value - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn loop_back_edge_frequency_propagates() {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.li(Reg::T0, 100);
        let top = a.here();
        a.addq_lit(Reg::T1, 3, Reg::T1);
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        let classes = frequency_classes(&cfg);
        let mut samples = vec![0u64; cfg.insns.len()];
        samples[0] = 10;
        for s in samples.iter_mut().take(4).skip(1) {
            *s = 1000;
        }
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let body = cfg.block_of_word(cfg.start_word + 1).unwrap();
        let f_body = freqs.block_freq[body.0].unwrap().value;
        assert!(f_body > 100.0);
        // The back edge must be estimated by propagation: body in-flow =
        // preheader edge + back edge.
        let e_back = cfg
            .edges
            .iter()
            .position(|e| e.from == body && e.to == body)
            .unwrap();
        let back = freqs.edge_freq[e_back].expect("propagated");
        assert_eq!(back.source, EstimateSource::Propagated);
        let f_pre = freqs.block_freq[0].unwrap().value;
        assert!(
            (back.value - (f_body - f_pre)).abs() < 1e-6,
            "back {} vs body {} - pre {}",
            back.value,
            f_body,
            f_pre
        );
    }

    #[test]
    fn diamond_missing_arm_derived_from_flow() {
        let mut a = Asm::new("/t");
        a.proc("f");
        let else_l = a.label();
        let join = a.label();
        a.beq(Reg::T3, else_l); // b0
        a.addq_lit(Reg::T1, 1, Reg::T1); // b1 then-arm
        a.addq_lit(Reg::T2, 1, Reg::T2);
        a.br(join);
        a.bind(else_l); // b2 else-arm
        a.addq_lit(Reg::T1, 2, Reg::T1);
        a.addq_lit(Reg::T2, 2, Reg::T2);
        a.bind(join); // b3
        a.addq_lit(Reg::T4, 1, Reg::T4);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        let classes = frequency_classes(&cfg);
        let mut samples = vec![0u64; cfg.insns.len()];
        samples[0] = 1000;
        samples[1] = 800;
        samples[2] = 800;
        let join_base = (cfg.blocks[3].start_word - cfg.start_word) as usize;
        samples[join_base] = 1000;
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let f0 = freqs.block_freq[0].unwrap().value;
        let f1 = freqs.block_freq[1].unwrap().value;
        assert!(f0 > 900.0);
        assert!((700.0..=900.0).contains(&f1));
        // The unsampled else-arm gets a direct near-zero estimate (its
        // zero samples are evidence of near-zero frequency), and its
        // edges inherit it rather than being left unknown.
        let f2 = freqs.block_freq[2].expect("estimated").value;
        assert!(f2 < 1.0, "else-arm {f2} should be ~0 with zero samples");
        let e_to_else = cfg
            .edges
            .iter()
            .position(|e| e.from.0 == 0 && e.to.0 == 2)
            .unwrap();
        assert!(freqs.edge_freq[e_to_else].expect("edge estimated").value < 1.0);
        // The then-arm's edges carry its full frequency.
        let e_to_then = cfg
            .edges
            .iter()
            .position(|e| e.from.0 == 0 && e.to.0 == 1)
            .unwrap();
        let et = freqs.edge_freq[e_to_then].expect("edge estimated").value;
        assert!((et - f1).abs() < 1e-6, "then edge {et} vs arm {f1}");
    }

    #[test]
    fn no_samples_yields_no_estimate() {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        let classes = frequency_classes(&cfg);
        let samples = vec![0u64; cfg.insns.len()];
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        assert!(freqs.insn_freq.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn confidence_tracks_cluster_quality() {
        // Many tight issue points with plenty of samples → High; the
        // same shape with scarce samples → Low (class-sum path).
        let build = |samples: &[u64]| {
            let mut a = Asm::new("/t");
            a.proc("f");
            for _ in 0..samples.len() - 1 {
                a.addq_lit(Reg::T0, 1, Reg::T0);
            }
            a.halt();
            let image = a.finish();
            let sym = image.symbols()[0].clone();
            let cfg = Cfg::build(&image, &sym).unwrap();
            let model = PipelineModel::default();
            let schedules = schedules_for(&cfg, &model);
            let classes = frequency_classes(&cfg);
            estimate_frequencies(
                &cfg,
                &classes,
                &schedules,
                samples,
                &EstimatorConfig::default(),
            )
            .block_freq[0]
                .expect("estimated")
        };
        let high = build(&[800, 805, 810, 795, 790, 805, 0]);
        assert_eq!(high.confidence, Confidence::High);
        assert_eq!(high.source, EstimateSource::IssuePoints);
        let low = build(&[3, 4, 3, 2, 4, 3, 0]);
        assert_eq!(low.confidence, Confidence::Low);
        assert_eq!(low.source, EstimateSource::ClassSum);
    }

    #[test]
    fn propagated_estimates_are_demoted() {
        // The loop back edge from loop_back_edge_frequency_propagates is
        // Propagated; its confidence must sit below the body's.
        let mut a = Asm::new("/t");
        a.proc("f");
        a.li(Reg::T0, 100);
        let top = a.here();
        a.addq_lit(Reg::T1, 3, Reg::T1);
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        let classes = frequency_classes(&cfg);
        let mut samples = vec![0u64; cfg.insns.len()];
        samples[0] = 10;
        for s in samples.iter_mut().take(4).skip(1) {
            *s = 1000;
        }
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let body = cfg.block_of_word(cfg.start_word + 1).unwrap();
        let body_conf = freqs.block_freq[body.0].unwrap().confidence;
        let e_back = cfg
            .edges
            .iter()
            .position(|e| e.from == body && e.to == body)
            .unwrap();
        let back = freqs.edge_freq[e_back].unwrap();
        assert_eq!(back.source, EstimateSource::Propagated);
        assert!(back.confidence < body_conf, "propagation demotes");
    }

    #[test]
    fn estimates_never_negative() {
        // Flow constraints that would produce a negative edge estimate
        // are clamped (§6.1.4).
        let mut a = Asm::new("/t");
        a.proc("f");
        a.li(Reg::T0, 5);
        let top = a.here();
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules = schedules_for(&cfg, &model);
        let classes = frequency_classes(&cfg);
        // Noise: preheader sampled MORE than body (sampling error).
        let mut samples = vec![0u64; cfg.insns.len()];
        samples[0] = 5000;
        samples[1] = 120;
        samples[2] = 130;
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        for e in freqs.edge_freq.iter().flatten() {
            assert!(e.value >= 0.0);
        }
    }
}
