//! Search traces: quality-of-results versus cost, per run and averaged.
//!
//! The paper's Figures 3–7 plot the best objective value of the population
//! against either the generation number or the cumulative number of designs
//! evaluated, averaged over 20–40 runs. [`SearchOutcome`] records one run's
//! curve; [`average_traces`] and [`ReachStats`] provide the aggregations the
//! figures and the in-text convergence claims need.

use nautilus_ga::{Direction, FaultStats, Genome, StopReason, SuperviseStats};
use nautilus_synth::JobStats;

/// One point of a search trace (one generation, or one budget step for
/// non-generational strategies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Generation number (or step index for random search).
    pub generation: u32,
    /// Cumulative distinct designs evaluated (synthesis jobs) so far.
    pub evals: u64,
    /// Best objective value inside the current population/window.
    pub best_in_gen: f64,
    /// Mean objective value over the current population's feasible members.
    pub mean_in_gen: f64,
    /// Best objective value found so far in the run.
    pub best_so_far: f64,
}

/// The result of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Strategy label ("baseline", "nautilus-strong", ...).
    pub strategy: String,
    /// Per-generation curve.
    pub trace: Vec<TracePoint>,
    /// Best design point found.
    pub best_genome: Genome,
    /// Its objective value.
    pub best_value: f64,
    /// Synthesis-job accounting for the whole run.
    pub jobs: JobStats,
    /// Evaluation-failure accounting: retries, recoveries and quarantines.
    /// All-zero unless the run used a fallible evaluator (e.g. a
    /// [`nautilus_synth::FaultyEvaluator`] installed with
    /// [`crate::Nautilus::with_fault_plan`]).
    pub faults: FaultStats,
    /// Supervision health accounting: watchdog firings, hedges and circuit
    /// breaker activity. All-zero unless the run was supervised (a
    /// [`nautilus_ga::SupervisePolicy`] installed with
    /// [`crate::Nautilus::with_supervision`]).
    pub health: SuperviseStats,
    /// Why the search stopped. [`StopReason::Completed`] for a run that
    /// exhausted its configured generations (and for the non-generational
    /// baselines, which always spend their full budget); any other value
    /// means a [`nautilus_ga::RunBudget`] halted the run at a generation
    /// boundary and `trace` covers only the generations scored so far.
    pub stop: StopReason,
}

impl SearchOutcome {
    /// Total distinct designs evaluated by the run.
    #[must_use]
    pub fn total_evals(&self) -> u64 {
        self.jobs.jobs
    }

    /// Cumulative evaluations needed until `best_so_far` reached
    /// `threshold`, or `None` if the run never reached it.
    #[must_use]
    pub fn evals_to_reach(&self, direction: Direction, threshold: f64) -> Option<u64> {
        self.trace
            .iter()
            .find(|p| p.best_so_far.is_finite() && !direction.is_better(threshold, p.best_so_far))
            .map(|p| p.evals)
    }

    /// Generation at which `best_so_far` reached `threshold`.
    #[must_use]
    pub fn generations_to_reach(&self, direction: Direction, threshold: f64) -> Option<u32> {
        self.trace
            .iter()
            .find(|p| p.best_so_far.is_finite() && !direction.is_better(threshold, p.best_so_far))
            .map(|p| p.generation)
    }
}

/// One point of an averaged trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgTracePoint {
    /// Generation number.
    pub generation: u32,
    /// Mean cumulative evaluations at this generation.
    pub mean_evals: f64,
    /// Mean best-so-far objective value.
    pub mean_best_so_far: f64,
    /// Sample standard deviation of best-so-far.
    pub std_best_so_far: f64,
    /// Mean of the per-generation population mean ("average fitness").
    pub mean_of_means: f64,
}

/// Averages runs point-wise by generation index (the paper's averaging of
/// 20–40 runs per experiment).
///
/// All runs must have equal-length traces (they do, for a fixed generation
/// budget).
///
/// # Panics
///
/// Panics if `outcomes` is empty or trace lengths differ.
#[must_use]
pub fn average_traces(outcomes: &[SearchOutcome]) -> Vec<AvgTracePoint> {
    assert!(!outcomes.is_empty(), "cannot average zero runs");
    let len = outcomes[0].trace.len();
    assert!(outcomes.iter().all(|o| o.trace.len() == len), "trace lengths differ across runs");
    (0..len)
        .map(|i| {
            let n = outcomes.len() as f64;
            let evals: f64 = outcomes.iter().map(|o| o.trace[i].evals as f64).sum::<f64>() / n;
            let bests: Vec<f64> = outcomes.iter().map(|o| o.trace[i].best_so_far).collect();
            let mean_best = bests.iter().sum::<f64>() / n;
            let var = if outcomes.len() < 2 {
                0.0
            } else {
                bests.iter().map(|b| (b - mean_best).powi(2)).sum::<f64>() / (n - 1.0)
            };
            let mean_of_means: f64 = outcomes
                .iter()
                .map(|o| {
                    let m = o.trace[i].mean_in_gen;
                    if m.is_finite() {
                        m
                    } else {
                        o.trace[i].best_so_far
                    }
                })
                .sum::<f64>()
                / n;
            AvgTracePoint {
                generation: outcomes[0].trace[i].generation,
                mean_evals: evals,
                mean_best_so_far: mean_best,
                std_best_so_far: var.sqrt(),
                mean_of_means,
            }
        })
        .collect()
}

/// Convergence-cost statistics over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReachStats {
    /// Runs that reached the threshold.
    pub reached: usize,
    /// Total runs.
    pub total: usize,
    /// Mean evaluations among runs that reached it (None if none did).
    ///
    /// Beware survivorship bias when few runs reach the threshold: the
    /// lucky ones reached it early. Prefer
    /// [`ReachStats::censored_mean_evals`] for cross-strategy cost
    /// comparisons.
    pub mean_evals: Option<f64>,
    /// Mean generations among runs that reached it.
    pub mean_generations: Option<f64>,
    /// Censored mean evaluations: runs that never reached the threshold
    /// contribute their full evaluation budget. A conservative (biased-low)
    /// estimate of the true expected cost, robust to survivorship bias.
    pub censored_mean_evals: Option<f64>,
    /// Censored mean generations (unreached runs contribute their full
    /// generation budget).
    pub censored_mean_generations: Option<f64>,
}

impl ReachStats {
    /// Computes reach statistics of `outcomes` against a quality threshold.
    #[must_use]
    pub fn compute(outcomes: &[SearchOutcome], direction: Direction, threshold: f64) -> Self {
        let evals: Vec<u64> =
            outcomes.iter().filter_map(|o| o.evals_to_reach(direction, threshold)).collect();
        let gens: Vec<u32> =
            outcomes.iter().filter_map(|o| o.generations_to_reach(direction, threshold)).collect();
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                None
            } else {
                Some(xs.iter().sum::<f64>() / xs.len() as f64)
            }
        };
        let censored_evals: Vec<f64> = outcomes
            .iter()
            .map(|o| o.evals_to_reach(direction, threshold).unwrap_or(o.total_evals()) as f64)
            .collect();
        let censored_gens: Vec<f64> = outcomes
            .iter()
            .map(|o| {
                o.generations_to_reach(direction, threshold).map_or_else(
                    || o.trace.last().map_or(0.0, |p| f64::from(p.generation)),
                    f64::from,
                )
            })
            .collect();
        ReachStats {
            reached: evals.len(),
            total: outcomes.len(),
            mean_evals: mean(&evals.iter().map(|&e| e as f64).collect::<Vec<_>>()),
            mean_generations: mean(&gens.iter().map(|&g| f64::from(g)).collect::<Vec<_>>()),
            censored_mean_evals: mean(&censored_evals),
            censored_mean_generations: mean(&censored_gens),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(bests: &[f64], evals_step: u64) -> SearchOutcome {
        SearchOutcome {
            strategy: "test".into(),
            trace: bests
                .iter()
                .enumerate()
                .map(|(i, &b)| TracePoint {
                    generation: i as u32,
                    evals: (i as u64 + 1) * evals_step,
                    best_in_gen: b,
                    mean_in_gen: b + 1.0,
                    best_so_far: b,
                })
                .collect(),
            best_genome: Genome::from_genes(vec![0]),
            best_value: *bests.last().unwrap(),
            jobs: JobStats { jobs: bests.len() as u64 * evals_step, ..JobStats::default() },
            faults: FaultStats::default(),
            health: SuperviseStats::default(),
            stop: StopReason::Completed,
        }
    }

    #[test]
    fn evals_to_reach_finds_first_crossing() {
        let o = outcome(&[100.0, 80.0, 50.0, 50.0, 20.0], 10);
        assert_eq!(o.evals_to_reach(Direction::Minimize, 60.0), Some(30));
        assert_eq!(o.generations_to_reach(Direction::Minimize, 60.0), Some(2));
        assert_eq!(o.evals_to_reach(Direction::Minimize, 100.0), Some(10));
        assert_eq!(o.evals_to_reach(Direction::Minimize, 10.0), None);
    }

    #[test]
    fn maximize_thresholds_work() {
        let o = outcome(&[1.0, 2.0, 5.0], 5);
        assert_eq!(o.evals_to_reach(Direction::Maximize, 2.0), Some(10));
        assert_eq!(o.evals_to_reach(Direction::Maximize, 6.0), None);
    }

    #[test]
    fn averaging_means_and_stds() {
        let a = outcome(&[10.0, 4.0], 10);
        let b = outcome(&[20.0, 8.0], 20);
        let avg = average_traces(&[a, b]);
        assert_eq!(avg.len(), 2);
        assert_eq!(avg[0].mean_best_so_far, 15.0);
        assert_eq!(avg[1].mean_best_so_far, 6.0);
        assert_eq!(avg[0].mean_evals, 15.0);
        assert!((avg[0].std_best_so_far - (50.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(avg[1].mean_of_means, 7.0);
    }

    #[test]
    #[should_panic(expected = "zero runs")]
    fn averaging_empty_panics() {
        let _ = average_traces(&[]);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn averaging_ragged_panics() {
        let a = outcome(&[1.0], 1);
        let b = outcome(&[1.0, 2.0], 1);
        let _ = average_traces(&[a, b]);
    }

    #[test]
    fn averaging_single_run_falls_back_on_infeasible_means() {
        // A generation whose population was entirely infeasible records a
        // NaN mean; averaging must fall back to best-so-far, not poison the
        // whole curve.
        let mut a = outcome(&[5.0, 3.0], 10);
        a.trace[1].mean_in_gen = f64::NAN;
        let avg = average_traces(&[a]);
        assert_eq!(avg.len(), 2);
        assert_eq!(avg[0].std_best_so_far, 0.0, "single run has no spread");
        assert_eq!(avg[0].mean_of_means, 6.0);
        assert_eq!(avg[1].mean_of_means, 3.0, "NaN mean falls back to best_so_far");
        assert!(avg.iter().all(|p| p.mean_best_so_far.is_finite()));
    }

    #[test]
    fn reach_stats_when_no_run_reaches_threshold() {
        let a = outcome(&[100.0, 90.0], 10);
        let b = outcome(&[80.0, 70.0], 5);
        let stats = ReachStats::compute(&[a, b], Direction::Minimize, 1.0);
        assert_eq!(stats.reached, 0);
        assert_eq!(stats.total, 2);
        // Survivor-only means are undefined when nobody reached it...
        assert_eq!(stats.mean_evals, None);
        assert_eq!(stats.mean_generations, None);
        // ...but censored means still are: each run contributes its budget.
        assert_eq!(stats.censored_mean_evals, Some(15.0));
        assert_eq!(stats.censored_mean_generations, Some(1.0));
    }

    #[test]
    fn reach_stats_aggregate_partial_success() {
        let fast = outcome(&[100.0, 10.0], 10);
        let slow = outcome(&[100.0, 90.0], 10);
        let stats = ReachStats::compute(&[fast, slow], Direction::Minimize, 50.0);
        assert_eq!(stats.reached, 1);
        assert_eq!(stats.total, 2);
        assert_eq!(stats.mean_evals, Some(20.0));
        assert_eq!(stats.mean_generations, Some(1.0));
        // Censored: the unreached run contributes its full 20 evals /
        // final generation, removing survivorship bias.
        assert_eq!(stats.censored_mean_evals, Some(20.0));
        assert_eq!(stats.censored_mean_generations, Some(1.0));
        let none = ReachStats::compute(&[], Direction::Minimize, 1.0);
        assert_eq!(none.mean_evals, None);
        assert_eq!(none.censored_mean_evals, None);
    }
}
