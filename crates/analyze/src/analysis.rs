//! Top-level per-procedure analysis: ties the CFG, equivalence classes,
//! frequency estimation, and culprit identification together into the
//! data the tools render.

use crate::cfg::Cfg;
use crate::culprit::{find_culprits, Culprit, CulpritConfig, EventSamples};
use crate::equiv::frequency_classes;
use crate::frequency::{
    estimate_frequencies_with_edges, BranchDirections, Confidence, EstimatorConfig, ProcFrequencies,
};
use crate::summary::{summarize, ProcSummary};
use dcpi_core::{EdgeProfiles, PathProfiles};
use dcpi_core::{Error, Event, ImageId, Profile, ProfileSet};
use dcpi_isa::image::{Image, Symbol};
use dcpi_isa::insn::Instruction;
use dcpi_isa::pipeline::{BlockSchedule, PipelineModel, StaticStall};

/// Everything the analysis derived about one instruction.
#[derive(Clone, Debug)]
pub struct InsnAnalysis {
    /// Byte offset within the image.
    pub offset: u64,
    /// The instruction.
    pub insn: Instruction,
    /// CYCLES samples observed.
    pub samples: u64,
    /// Static minimum head-of-queue cycles (`M_i`).
    pub m: u64,
    /// Ideal-machine head cycles (1 for pair seniors, 0 for juniors).
    pub m_ideal: u64,
    /// True if the static schedule dual-issues this instruction with its
    /// predecessor.
    pub dual_with_prev: bool,
    /// Estimated frequency (`S/M` units; 0 when unknown).
    pub freq: f64,
    /// Confidence of the frequency estimate, when one exists.
    pub confidence: Option<Confidence>,
    /// Estimated average cycles at the head of the issue queue per
    /// execution (`S_i / F_i`).
    pub cpi: f64,
    /// Attributed static stalls.
    pub static_stalls: Vec<StaticStall>,
    /// Surviving dynamic-stall culprits.
    pub culprits: Vec<Culprit>,
}

impl InsnAnalysis {
    /// Dynamic stall cycles per execution (`cpi - M`, clamped at zero).
    #[must_use]
    pub fn dynamic_stall(&self) -> f64 {
        (self.cpi - self.m as f64).max(0.0)
    }
}

/// The complete analysis of one procedure.
#[derive(Debug)]
pub struct ProcAnalysis {
    /// Procedure name.
    pub name: String,
    /// Byte offset of the procedure within its image.
    pub start_offset: u64,
    /// Per-instruction results, in program order.
    pub insns: Vec<InsnAnalysis>,
    /// The control-flow graph.
    pub cfg: Cfg,
    /// Frequency estimates (classes, blocks, edges).
    pub frequencies: ProcFrequencies,
    /// Static schedules per block.
    pub schedules: Vec<BlockSchedule>,
    /// The Figure 4 summary.
    pub summary: ProcSummary,
}

impl ProcAnalysis {
    /// Frequency-weighted best-case CPI (`ΣF·M / ΣF`), the first line of
    /// dcpicalc output.
    #[must_use]
    pub fn best_case_cpi(&self) -> f64 {
        let num: f64 = self.insns.iter().map(|i| i.freq * i.m as f64).sum();
        let den: f64 = self.insns.iter().map(|i| i.freq).sum();
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Frequency-weighted actual CPI (`ΣS / ΣF`).
    #[must_use]
    pub fn actual_cpi(&self) -> f64 {
        let num: f64 = self
            .insns
            .iter()
            .filter(|i| i.freq > 0.0)
            .map(|i| i.samples as f64)
            .sum();
        let den: f64 = self.insns.iter().map(|i| i.freq).sum();
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    /// Total CYCLES samples in the procedure.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.insns.iter().map(|i| i.samples).sum()
    }
}

/// Analysis options.
#[derive(Clone, Debug, Default)]
pub struct AnalysisOptions {
    /// Frequency-estimator knobs.
    pub estimator: EstimatorConfig,
    /// Culprit-analysis knobs.
    pub culprit: CulpritConfig,
    /// Observability handle; each analysis phase (CFG build, scheduling,
    /// equivalence classes, frequency propagation, culprit elimination)
    /// records a span when enabled. Default: disabled.
    pub obs: dcpi_obs::Obs,
}

/// Analyzes one procedure of `image` against the profiles in `set`.
///
/// `set` must contain a CYCLES profile for `image_id`; other event
/// profiles (IMISS, DMISS, BRANCHMP, DTB/ITB miss) are used for culprit
/// bounds when present.
///
/// # Errors
///
/// Returns an error if the symbol is unknown or its text cannot be
/// decoded.
pub fn analyze_procedure(
    image: &Image,
    sym: &Symbol,
    set: &ProfileSet,
    image_id: ImageId,
    model: &PipelineModel,
    opts: &AnalysisOptions,
) -> Result<ProcAnalysis, Error> {
    analyze_procedure_extended(image, sym, set, None, None, image_id, model, opts)
}

/// The full-featured entry point: consumes the two §7 extensions, each
/// optional — edge samples (branch directions, which improve
/// edge-frequency estimates) and path samples (double sampling, which
/// resolves indirect-jump targets in the CFG).
///
/// # Errors
///
/// As [`analyze_procedure`].
#[allow(clippy::too_many_arguments)]
pub fn analyze_procedure_extended(
    image: &Image,
    sym: &Symbol,
    set: &ProfileSet,
    edge_samples: Option<&EdgeProfiles>,
    path_samples: Option<&PathProfiles>,
    image_id: ImageId,
    model: &PipelineModel,
    opts: &AnalysisOptions,
) -> Result<ProcAnalysis, Error> {
    use dcpi_obs::Component;
    let obs = &opts.obs;
    obs.begin(Component::Analyze, "analyze.cfg");
    let cfg = match path_samples {
        Some(paths) => Cfg::build_with_paths(image, sym, image_id, paths)?,
        None => Cfg::build(image, sym)?,
    };
    obs.end(
        Component::Analyze,
        "analyze.cfg",
        cfg.blocks.len() as u64,
        cfg.insns.len() as u64,
    );
    let n = cfg.insns.len();
    // One walk over the procedure's slice of the profile's sorted run.
    let extract = |p: Option<&Profile>| -> Vec<u64> {
        let mut v = vec![0u64; n];
        let end = sym.offset + (n as u64) * 4;
        for (offset, count) in p.into_iter().flat_map(|p| p.range(sym.offset, end)) {
            if offset.is_multiple_of(4) {
                v[((offset - sym.offset) / 4) as usize] = count;
            }
        }
        v
    };
    let samples = extract(set.get(image_id, Event::Cycles));
    // A per-event vector exists only when that event was monitored (its
    // profile is present, possibly empty).
    let event_vec = |ev: Event| set.get(image_id, ev).map(|p| extract(Some(p)));
    let imiss = event_vec(Event::IMiss);
    let dmiss = event_vec(Event::DMiss);
    let branchmp = event_vec(Event::BranchMp);
    let dtbmiss = event_vec(Event::DtbMiss);
    let itbmiss = event_vec(Event::ItbMiss);

    obs.begin(Component::Analyze, "analyze.schedule");
    let schedules: Vec<BlockSchedule> = cfg
        .blocks
        .iter()
        .map(|b| {
            let s = (b.start_word - cfg.start_word) as usize;
            model.schedule_block(u64::from(b.start_word), &cfg.insns[s..s + b.len as usize])
        })
        .collect();
    obs.end(
        Component::Analyze,
        "analyze.schedule",
        schedules.len() as u64,
        0,
    );
    obs.begin(Component::Analyze, "analyze.equiv");
    let classes = frequency_classes(&cfg);
    obs.end(
        Component::Analyze,
        "analyze.equiv",
        classes.n_classes as u64,
        0,
    );
    // Convert image-level edge samples to procedure instruction indices.
    let directions: Option<BranchDirections> = edge_samples.map(|es| {
        let mut map = BranchDirections::new();
        for (&(img, off), &(t, f)) in es.iter() {
            if img == image_id && off >= sym.offset && off < sym.offset + sym.size {
                map.insert(((off - sym.offset) / 4) as usize, (t, f));
            }
        }
        map
    });
    obs.begin(Component::Analyze, "analyze.propagate");
    let freqs = estimate_frequencies_with_edges(
        &cfg,
        &classes,
        &schedules,
        &samples,
        directions.as_ref(),
        &opts.estimator,
    );
    obs.end(
        Component::Analyze,
        "analyze.propagate",
        freqs.block_freq.iter().filter(|f| f.is_some()).count() as u64,
        freqs.block_freq.len() as u64,
    );
    let events = EventSamples {
        imiss: imiss.as_deref(),
        dmiss: dmiss.as_deref(),
        branchmp: branchmp.as_deref(),
        dtbmiss: dtbmiss.as_deref(),
        itbmiss: itbmiss.as_deref(),
    };
    obs.begin(Component::Analyze, "analyze.culprit");
    let mut culprits = find_culprits(
        &cfg,
        &schedules,
        &freqs,
        &samples,
        &events,
        model,
        &opts.culprit,
    );
    obs.end(
        Component::Analyze,
        "analyze.culprit",
        culprits.iter().map(|c| c.len() as u64).sum(),
        0,
    );

    // Blocks partition the text in address order: this is program order.
    let mut insns = Vec::with_capacity(n);
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let base = (blk.start_word - cfg.start_word) as usize;
        for (k, entry) in schedules[b].entries.iter().enumerate() {
            let i = base + k;
            let f = freqs.insn_freq[i];
            insns.push(InsnAnalysis {
                offset: sym.offset + (i as u64) * 4,
                insn: cfg.insns[i],
                samples: samples[i],
                m: entry.m,
                m_ideal: entry.m_ideal,
                dual_with_prev: entry.dual_with_prev,
                freq: f,
                confidence: freqs.block_freq[b].map(|e| e.confidence),
                cpi: if f > 0.0 { samples[i] as f64 / f } else { 0.0 },
                static_stalls: entry.stalls.clone(),
                culprits: std::mem::take(&mut culprits[i]),
            });
        }
    }
    let summary = summarize(&insns);
    Ok(ProcAnalysis {
        name: sym.name.clone(),
        start_offset: sym.offset,
        insns,
        cfg,
        frequencies: freqs,
        schedules,
        summary,
    })
}

/// The `event` samples `set` holds inside procedure `sym` of image
/// `image_id`, or `None` when `set` has no `event` profile for the image.
#[must_use]
pub fn procedure_samples(
    set: &ProfileSet,
    image_id: ImageId,
    event: Event,
    sym: &Symbol,
) -> Option<u64> {
    set.get(image_id, event)
        .map(|p| p.range_total(sym.offset, sym.offset + sym.size))
}

/// The procedures of `image` that hold at least `min_samples` CYCLES
/// samples in `set`, each with that count, in symbol-table order. This is
/// the one sample gate every consumer of analyzed procedures goes
/// through; an image without a CYCLES profile yields nothing.
pub fn sampled_procedures<'a>(
    image: &'a Image,
    set: &'a ProfileSet,
    image_id: ImageId,
    min_samples: u64,
) -> impl Iterator<Item = (&'a Symbol, u64)> + 'a {
    image.symbols().iter().filter_map(move |sym| {
        let samples = procedure_samples(set, image_id, Event::Cycles, sym)?;
        (samples >= min_samples).then_some((sym, samples))
    })
}

/// Analyzes each of [`sampled_procedures`] under the default pipeline
/// model and `opts`, yielding `(symbol, samples, analysis)`: the one
/// fan-out from a profile set to analyzed procedures.
pub fn analyze_sampled<'a>(
    image: &'a Image,
    set: &'a ProfileSet,
    image_id: ImageId,
    min_samples: u64,
    opts: &'a AnalysisOptions,
) -> impl Iterator<Item = (&'a Symbol, u64, Result<ProcAnalysis, Error>)> + 'a {
    let model = PipelineModel::default();
    sampled_procedures(image, set, image_id, min_samples).map(move |(sym, samples)| {
        let pa = analyze_procedure(image, sym, set, image_id, &model, opts);
        (sym, samples, pa)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;

    fn copy_image() -> Image {
        use dcpi_isa::insn::{Instruction, IntOp, RegOrLit};
        let mut a = Asm::new("/t");
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
            op: IntOp::Cmpult,
            ra: Reg::T0,
            rb: RegOrLit::Reg(Reg::V0),
            rc: Reg::T4,
        });
        a.stq(Reg::T5, 8, w);
        a.stq(Reg::T6, 16, w);
        a.stq(Reg::A0, 24, w);
        a.lda(w, 32, w);
        a.bne(Reg::T4, top);
        a.halt();
        a.finish()
    }

    fn copy_profiles(image_id: ImageId, base: u64) -> ProfileSet {
        let mut set = ProfileSet::new();
        let counts = [
            3126, 0, 1636, 390, 1482, 0, 27766, 0, 1493, 174_727, 1548, 0, 1586, 0,
        ];
        for (i, &c) in counts.iter().enumerate() {
            set.add(image_id, Event::Cycles, base + (i as u64) * 4, c);
        }
        set
    }

    /// End-to-end reproduction of Figure 2's headline numbers: best-case
    /// CPI 0.62, actual CPI ~10.8 for the copy loop.
    #[test]
    fn figure_2_headline_cpis() {
        let image = copy_image();
        let sym = image.symbol_named("copy").unwrap().clone();
        let set = copy_profiles(ImageId(1), sym.offset);
        let model = PipelineModel::default();
        let pa = analyze_procedure(
            &image,
            &sym,
            &set,
            ImageId(1),
            &model,
            &AnalysisOptions::default(),
        )
        .unwrap();
        // The loop body dominates; the halt block has no samples.
        let best = pa.best_case_cpi();
        assert!(
            (0.55..=0.70).contains(&best),
            "best-case CPI {best}, paper: 0.62"
        );
        let actual = pa.actual_cpi();
        assert!(
            (9.0..=12.5).contains(&actual),
            "actual CPI {actual}, paper: 10.77"
        );
    }

    #[test]
    fn analysis_phases_record_spans() {
        use dcpi_obs::{EventKind, Obs, ObsConfig};
        let image = copy_image();
        let sym = image.symbol_named("copy").unwrap().clone();
        let set = copy_profiles(ImageId(1), sym.offset);
        let model = PipelineModel::default();
        let opts = AnalysisOptions {
            obs: Obs::new(&ObsConfig::on()),
            ..AnalysisOptions::default()
        };
        analyze_procedure(&image, &sym, &set, ImageId(1), &model, &opts).unwrap();
        let snap = opts.obs.snapshot();
        let ring = snap
            .rings
            .iter()
            .find(|r| r.component == "analyze")
            .expect("analyze ring");
        let phases = [
            "analyze.cfg",
            "analyze.schedule",
            "analyze.equiv",
            "analyze.propagate",
            "analyze.culprit",
        ];
        for phase in phases {
            let begins = ring
                .events
                .iter()
                .filter(|e| e.name == phase && e.kind == EventKind::Begin)
                .count();
            let ends = ring
                .events
                .iter()
                .filter(|e| e.name == phase && e.kind == EventKind::End)
                .count();
            assert_eq!((begins, ends), (1, 1), "span for {phase}");
        }
    }

    #[test]
    fn per_instruction_cpi_shapes_match_figure_2() {
        let image = copy_image();
        let sym = image.symbol_named("copy").unwrap().clone();
        let set = copy_profiles(ImageId(1), sym.offset);
        let model = PipelineModel::default();
        let pa = analyze_procedure(
            &image,
            &sym,
            &set,
            ImageId(1),
            &model,
            &AnalysisOptions::default(),
        )
        .unwrap();
        // Figure 2's per-instruction cycle annotations: ldq t4 ≈ 2.0cy,
        // stq t4 ≈ 18cy, stq t6 ≈ 114.5cy.
        let cpi = |i: usize| pa.insns[i].cpi;
        assert!((1.5..=2.6).contains(&cpi(0)), "ldq t4: {}", cpi(0));
        assert!((15.0..=21.0).contains(&cpi(6)), "stq t4: {}", cpi(6));
        assert!((100.0..=125.0).contains(&cpi(9)), "stq t6: {}", cpi(9));
        // Dual-issued instructions have M=0 and no samples.
        assert_eq!(pa.insns[1].m, 0);
        assert!(pa.insns[1].dual_with_prev);
    }

    #[test]
    fn summary_books_balance() {
        let image = copy_image();
        let sym = image.symbol_named("copy").unwrap().clone();
        let set = copy_profiles(ImageId(1), sym.offset);
        let model = PipelineModel::default();
        let pa = analyze_procedure(
            &image,
            &sym,
            &set,
            ImageId(1),
            &model,
            &AnalysisOptions::default(),
        )
        .unwrap();
        let s = &pa.summary;
        let total = s.execution_pct
            + s.subtotal_static_pct
            + s.subtotal_dynamic_pct
            + s.unexplained_gain_pct
            + s.net_error_pct;
        assert!((total - 100.0).abs() < 1e-6);
        // Memory effects dominate this loop: the D-cache + write-buffer +
        // DTB ranges must cover most of the stall time.
        let d = s.dynamic_range(crate::culprit::DynamicCause::DCacheMiss);
        assert!(d.max > 50.0, "d-cache max {}", d.max);
    }

    #[test]
    fn unknown_symbol_fails_cleanly() {
        let image = copy_image();
        let bad = Symbol {
            name: "nope".into(),
            offset: 0,
            size: 0,
        };
        let set = ProfileSet::new();
        let model = PipelineModel::default();
        assert!(analyze_procedure(
            &image,
            &bad,
            &set,
            ImageId(1),
            &model,
            &AnalysisOptions::default()
        )
        .is_err());
    }

    #[test]
    fn empty_profile_gives_zero_frequencies() {
        let image = copy_image();
        let sym = image.symbol_named("copy").unwrap().clone();
        let set = ProfileSet::new();
        let model = PipelineModel::default();
        let pa = analyze_procedure(
            &image,
            &sym,
            &set,
            ImageId(1),
            &model,
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert_eq!(pa.total_samples(), 0);
        assert!(pa.insns.iter().all(|i| i.freq == 0.0));
        assert_eq!(pa.best_case_cpi(), 0.0);
    }

    #[test]
    fn the_gate_yields_sampled_procedures_with_their_counts() {
        let image = copy_image();
        let sym = image.symbol_named("copy").unwrap();
        let set = copy_profiles(ImageId(1), sym.offset);
        let total = set.event_total(Event::Cycles);
        let names = |min| -> Vec<(String, u64)> {
            sampled_procedures(&image, &set, ImageId(1), min)
                .map(|(s, n)| (s.name.clone(), n))
                .collect()
        };
        assert_eq!(names(0), [("pad".into(), 0), ("copy".into(), total)]);
        assert_eq!(names(1), [("copy".into(), total)]);
        assert!(names(total + 1).is_empty());
        // No CYCLES profile for the image: nothing passes, not even at 0.
        assert_eq!(sampled_procedures(&image, &set, ImageId(2), 0).count(), 0);
        let opts = AnalysisOptions::default();
        let fanned: Vec<_> = analyze_sampled(&image, &set, ImageId(1), 1, &opts).collect();
        assert_eq!(fanned.len(), 1);
        let (s, n, pa) = &fanned[0];
        assert_eq!((s.name.as_str(), *n), ("copy", total));
        assert_eq!(pa.as_ref().unwrap().total_samples(), total);
    }

    #[test]
    fn insns_are_in_program_order() {
        let image = copy_image();
        let sym = image.symbol_named("copy").unwrap().clone();
        let set = copy_profiles(ImageId(1), sym.offset);
        let model = PipelineModel::default();
        let pa = analyze_procedure(
            &image,
            &sym,
            &set,
            ImageId(1),
            &model,
            &AnalysisOptions::default(),
        )
        .unwrap();
        assert!(pa.insns.windows(2).all(|w| w[0].offset < w[1].offset));
        assert_eq!(pa.insns.len(), 14);
    }
}
