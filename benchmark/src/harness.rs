//! The rep loop shared by the four workloads.
//!
//! A workload is a list of *phases* (one program, one replay, one
//! session…). The harness runs them round-robin, one rep each per round,
//! until the horizon passes, so slow drift of the host hits every phase
//! alike. Closed loop, one thread: the next rep starts when the previous
//! one returns.

use crate::estimator::{estimate, Estimate};
use crate::results::Metric;
use crate::sys::Scratch;
use crate::trace::{self, Tracer};
use std::time::{Duration, Instant};

/// Rounds run even when the horizon is shorter than one round, so the
/// across-rep correctness checks always compare something.
const MIN_ROUNDS: usize = 3;

/// Set-ups per run; `setup_s` is the fastest, like every host-time metric.
pub const SETUPS: usize = 5;

/// What one rep did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted (program runs, epochs ingested, procedures
    /// analysed…).
    pub ops: u64,
    /// Operations whose own correctness check failed.
    pub failed: u64,
    /// Units of work the throughput metric counts (instructions, samples,
    /// epochs, procedures).
    pub work: u64,
    /// FNV-64 of everything the rep produced; must repeat across reps.
    pub digest: u64,
}

/// One rep in progress. The phase's closure calls [`Rep::timed`] exactly
/// once, around the calls into the system under test; whatever it does
/// before (emptying a directory) and after (reading results back to check
/// them) stays off the clock and out of the trace.
pub struct Rep<'t> {
    tracer: &'t mut Tracer,
    name: &'static str,
    wall: Option<f64>,
}

impl Rep<'_> {
    /// Runs `f` on the clock, under the rep's root span.
    ///
    /// # Panics
    ///
    /// Panics on a second call in one rep: a workload bug.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        assert!(
            self.wall.is_none(),
            "{}: one timed region per rep",
            self.name
        );
        let clock = Instant::now();
        let root = self.tracer.enter(self.name);
        let out = f(self.tracer);
        self.tracer.exit(root);
        self.wall = Some(clock.elapsed().as_secs_f64());
        out
    }
}

/// Runs a rep's body once outside the loop, untraced: a set-up's warm-up
/// or audit rep.
pub fn once(name: &'static str, body: impl FnOnce(&mut Rep<'_>) -> Outcome) -> Outcome {
    body(&mut Rep {
        tracer: &mut Tracer::off(),
        name,
        wall: None,
    })
}

/// One phase of a workload.
pub struct Phase<'a> {
    /// Name; also the rep's root span.
    pub name: &'static str,
    /// Record spans for this phase.
    pub traced: bool,
    /// Runs one rep.
    pub run: Box<dyn FnMut(&mut Rep<'_>) -> Outcome + 'a>,
}

impl<'a> Phase<'a> {
    /// An untraced phase.
    pub fn new(name: &'static str, run: impl FnMut(&mut Rep<'_>) -> Outcome + 'a) -> Phase<'a> {
        Phase {
            name,
            traced: false,
            run: Box::new(run),
        }
    }

    /// A phase whose reps record spans.
    pub fn traced(name: &'static str, run: impl FnMut(&mut Rep<'_>) -> Outcome + 'a) -> Phase<'a> {
        Phase {
            traced: true,
            ..Phase::new(name, run)
        }
    }
}

/// What the loop measured for one phase.
#[derive(Clone, Debug)]
pub struct PhaseResult {
    /// Phase name.
    pub name: &'static str,
    /// Wall seconds of each rep's timed region, in order.
    pub walls: Vec<f64>,
    /// Tracer rep ids, parallel to `walls` (empty for untraced phases).
    pub reps: Vec<u32>,
    /// The first rep's outcome; later reps must reproduce its digest.
    pub first: Outcome,
    /// Operations attempted over all reps.
    pub ops: u64,
    /// Operations failed over all reps (a rep whose digest differs from
    /// the first's fails all its operations).
    pub failed: u64,
}

impl PhaseResult {
    /// Fastest / p5 / median of the rep times.
    #[must_use]
    pub fn est(&self) -> Estimate {
        estimate(&self.walls)
    }

    /// The fastest rep, seconds.
    #[must_use]
    pub fn fastest(&self) -> f64 {
        self.est().fastest
    }
}

/// Runs `phases` round-robin for `horizon`.
pub fn run_phases(
    phases: &mut [Phase<'_>],
    horizon: Duration,
    tracer: &mut Tracer,
) -> Vec<PhaseResult> {
    let mut results: Vec<Option<PhaseResult>> = phases.iter().map(|_| None).collect();
    let mut off = Tracer::off();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed() < horizon {
        for (phase, slot) in phases.iter_mut().zip(&mut results) {
            let (t, id) = if phase.traced && tracer.is_on() {
                let id = tracer.next_rep();
                (&mut *tracer, Some(id))
            } else {
                (&mut off, None)
            };
            let mut rep = Rep {
                tracer: t,
                name: phase.name,
                wall: None,
            };
            let out = (phase.run)(&mut rep);
            let wall = rep
                .wall
                .unwrap_or_else(|| panic!("{} never called Rep::timed", phase.name));
            let r = slot.get_or_insert_with(|| PhaseResult {
                name: phase.name,
                walls: Vec::new(),
                reps: Vec::new(),
                first: out,
                ops: 0,
                failed: 0,
            });
            r.walls.push(wall);
            r.reps.extend(id);
            r.ops += out.ops;
            r.failed += if out.digest == r.first.digest && out.work == r.first.work {
                out.failed
            } else {
                out.ops
            };
        }
        round += 1;
    }
    results.into_iter().flatten().collect()
}

/// Runs `build` [`SETUPS`] times, keeping the last fixture; returns it
/// with each set-up's wall seconds.
pub fn timed_setups<F>(mut build: impl FnMut() -> F) -> (F, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), times)
}

/// What every workload receives.
pub struct Ctx<'a> {
    /// `--seed`.
    pub seed: u32,
    /// `--seconds`.
    pub horizon: Duration,
    /// True for the traced (per-layer) run.
    pub traced: bool,
    /// Scratch directory for stores and databases.
    pub scratch: &'a Scratch,
}

/// What every workload returns.
#[derive(Debug, Default)]
pub struct StageReport {
    /// Wall seconds of each set-up.
    pub setups: Vec<f64>,
    /// `work_per_s`: units of work per host second, from fastest reps.
    pub work_per_s: f64,
    /// `aux_phase_ms`: fastest rep of the workload's second code path.
    pub aux_phase_ms: f64,
    /// `stage_cost`: the workload's deterministic cost count.
    pub stage_cost: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Per-layer rows of this workload's group (traced run only).
    pub layers: Vec<(&'static str, f64)>,
    /// Informational lines.
    pub info: Vec<Metric>,
}

impl StageReport {
    /// Adds an informational line.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push(Metric::new(name, value, unit));
    }

    /// Adds a per-layer row.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Folds the phases' operation counts in and notes each phase's
    /// fastest / p5 / median and rep count.
    pub fn absorb(&mut self, results: &[PhaseResult]) {
        for r in results {
            self.attempted += r.ops;
            self.failed += r.failed;
            let e = r.est();
            self.note(&format!("{}.fastest", r.name), e.fastest * 1e3, "ms");
            self.note(&format!("{}.p5", r.name), e.p5 * 1e3, "ms");
            self.note(&format!("{}.median", r.name), e.median * 1e3, "ms");
            self.note(&format!("{}.reps", r.name), e.n as f64, "count");
        }
    }

    /// The tracing self-check: per traced rep, the spans' self times must
    /// sum to the wall time the harness measured on its own clock within
    /// 2%. The two readings are an `enter` apart, so one rep preempted
    /// right there can miss by more; a hole in the accounting would show
    /// on every rep, so the run fails on the median deviation and prints
    /// the worst.
    pub fn audit_trace(&mut self, tracer: &Tracer, results: &[PhaseResult]) {
        let sums = trace::self_sum_per_rep(tracer.spans());
        let mut devs: Vec<f64> = Vec::new();
        for r in results {
            for (&rep, &wall) in r.reps.iter().zip(&r.walls) {
                if let Some(&sum) = sums.get(&rep) {
                    devs.push((sum as f64 / 1e9 - wall).abs() / wall);
                }
            }
        }
        let (median, worst) = if devs.is_empty() {
            (0.0, 0.0)
        } else {
            (
                estimate(&devs).median,
                devs.iter().copied().fold(0.0, f64::max),
            )
        };
        self.note("trace.self_sum_median_dev_pct", median * 100.0, "%");
        self.note("trace.self_sum_max_dev_pct", worst * 100.0, "%");
        self.note("trace.spans", tracer.spans().len() as f64, "count");
        self.note("trace.spans_dropped", tracer.dropped() as f64, "count");
        if median > 0.02 || tracer.dropped() > 0 {
            // Not an operation of the system under test, but a run whose
            // breakdown does not add up must not report success.
            self.attempted += 1;
            self.failed += 1;
        }
    }

    /// Prints each span name's share of the traced reps' self time.
    pub fn note_self_shares(&mut self, tracer: &Tracer, results: &[PhaseResult]) {
        let reps: std::collections::BTreeSet<u32> = results
            .iter()
            .flat_map(|r| r.reps.iter().copied())
            .collect();
        let by = trace::self_by_name(tracer.spans(), &reps);
        let total: u64 = by.values().map(|&(_, ns)| ns).sum();
        for (name, (calls, ns)) in by {
            self.note(
                &format!("self.{name}.pct"),
                ns as f64 * 100.0 / total.max(1) as f64,
                "%",
            );
            self.note(&format!("self.{name}.calls"), calls as f64, "count");
        }
    }
}

/// Finds a phase's result by name.
///
/// # Panics
///
/// Panics if no such phase ran — a typo in a workload, not a run-time
/// condition.
#[must_use]
pub fn phase<'r>(results: &'r [PhaseResult], name: &str) -> &'r PhaseResult {
    results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no phase named {name}"))
}

/// Fastest per-rep total of the spans called `span`, over `of`'s reps, in
/// seconds (0 when the span never ran there).
#[must_use]
pub fn fastest_span(tracer: &Tracer, of: &PhaseResult, span: &str) -> f64 {
    let totals = trace::total_per_rep(tracer.spans(), span);
    of.reps
        .iter()
        .filter_map(|rep| totals.get(rep))
        .min()
        .map_or(0.0, |&ns| ns as f64 / 1e9)
}

/// Percentage by which the traced phase's fastest rep exceeds the
/// untraced one's.
#[must_use]
pub fn trace_overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(digest: u64) -> Outcome {
        Outcome {
            ops: 2,
            failed: 0,
            work: 10,
            digest,
        }
    }

    #[test]
    fn round_robin_runs_every_phase_equally_and_counts_ops() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut phases = vec![
            Phase::new("a", |rep| {
                rep.timed(|_| order.borrow_mut().push('a'));
                outcome(1)
            }),
            Phase::new("b", |rep| {
                rep.timed(|_| order.borrow_mut().push('b'));
                outcome(2)
            }),
        ];
        let res = run_phases(&mut phases, Duration::ZERO, &mut Tracer::off());
        drop(phases);
        assert_eq!(order.into_inner(), ['a', 'b', 'a', 'b', 'a', 'b']);
        assert_eq!(res.len(), 2);
        for r in &res {
            assert_eq!((r.walls.len(), r.ops, r.failed), (MIN_ROUNDS, 6, 0));
            assert!(r.reps.is_empty());
        }
        assert_eq!(phase(&res, "b").first.digest, 2);
    }

    #[test]
    fn a_rep_that_diverges_from_the_first_fails_all_its_ops() {
        let mut n = 0;
        let mut phases = vec![Phase::new("flaky", |rep| {
            n += 1;
            rep.timed(|_| ());
            outcome(if n == 2 { 99 } else { 1 })
        })];
        let res = run_phases(&mut phases, Duration::ZERO, &mut Tracer::off());
        assert_eq!((res[0].ops, res[0].failed), (6, 2));
    }

    #[test]
    fn traced_phases_get_rep_ids_and_a_root_span_that_matches_the_wall() {
        let mut tracer = Tracer::with_capacity(64);
        let mut phases = vec![
            Phase::traced("t", |rep| {
                // Off the clock and out of the trace.
                std::thread::sleep(Duration::from_millis(20));
                rep.timed(|t| {
                    let s = t.enter("inner");
                    std::thread::sleep(Duration::from_millis(2));
                    t.exit(s);
                });
                outcome(1)
            }),
            Phase::new("u", |rep| {
                rep.timed(|t| {
                    let s = t.enter("never-recorded");
                    t.exit(s);
                });
                outcome(1)
            }),
        ];
        let res = run_phases(&mut phases, Duration::ZERO, &mut tracer);
        drop(phases);
        assert_eq!(phase(&res, "t").reps, [1, 2, 3]);
        assert!(phase(&res, "u").reps.is_empty());
        assert_eq!(tracer.spans().len(), 2 * MIN_ROUNDS);
        assert!(fastest_span(&tracer, phase(&res, "t"), "inner") >= 0.002);
        assert!(
            phase(&res, "t").fastest() < 0.020,
            "the sleep before `timed` is off the clock"
        );
        let mut report = StageReport::default();
        report.audit_trace(&tracer, &res);
        assert_eq!(report.failed, 0, "{:?}", report.info);
    }

    #[test]
    fn timed_setups_builds_several_and_keeps_the_last() {
        let mut n = 0;
        let (last, times) = timed_setups(|| {
            n += 1;
            n
        });
        assert_eq!((last, times.len()), (SETUPS, SETUPS));
    }
}
