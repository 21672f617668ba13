//! Multi-strategy, multi-run experiment harness.
//!
//! The paper's figures compare the baseline GA against one or two Nautilus
//! variants (and sometimes random sampling), averaging each strategy over
//! 20–40 runs. [`compare`] executes that matrix in parallel, producing
//! averaged traces and the convergence-cost ratios quoted in the text
//! ("the baseline GA requires about 2.8x ... the number of synthesis
//! jobs").

use nautilus_ga::rng::derive_seed;
use nautilus_ga::{Direction, GaSettings};
use nautilus_obs::SearchObserver;
use nautilus_synth::CostModel;

use crate::error::Result;
use crate::hint::{Confidence, HintSet};
use crate::query::Query;
use crate::trace::{average_traces, AvgTracePoint, ReachStats, SearchOutcome};
use crate::Nautilus;

/// How one compared strategy searches.
#[derive(Debug, Clone)]
pub enum StrategyKind {
    /// The oblivious baseline GA.
    Baseline,
    /// Nautilus with a hint set (optionally overriding its confidence).
    Guided {
        /// The IP author's hints.
        hints: HintSet,
        /// Confidence override (None keeps the hint set's own).
        confidence: Option<Confidence>,
    },
    /// Uniform random sampling with a distinct-evaluation budget.
    Random {
        /// Distinct feasible evaluations to spend.
        budget: u64,
    },
    /// Nautilus with guided mutation *and* guided crossover (extension).
    GuidedFull {
        /// The IP author's hints.
        hints: HintSet,
        /// Confidence override (None keeps the hint set's own).
        confidence: Option<Confidence>,
    },
    /// Simulated annealing (single-point Metropolis search).
    Anneal(crate::local::AnnealConfig),
    /// Stochastic hill climbing with random restarts.
    HillClimb {
        /// Distinct feasible evaluations to spend.
        budget: u64,
        /// Consecutive rejected proposals before a restart.
        patience: u32,
    },
}

/// A named strategy entering a comparison.
#[derive(Debug, Clone)]
pub struct Strategy {
    name: String,
    kind: StrategyKind,
}

impl Strategy {
    /// The baseline GA.
    #[must_use]
    pub fn baseline() -> Self {
        Strategy { name: "baseline".into(), kind: StrategyKind::Baseline }
    }

    /// A guided strategy with an explicit display name.
    #[must_use]
    pub fn guided(name: impl Into<String>, hints: HintSet, confidence: Option<Confidence>) -> Self {
        Strategy { name: name.into(), kind: StrategyKind::Guided { hints, confidence } }
    }

    /// Uniform random sampling with `budget` distinct evaluations.
    #[must_use]
    pub fn random(budget: u64) -> Self {
        Strategy { name: "random".into(), kind: StrategyKind::Random { budget } }
    }

    /// Guided mutation plus guided crossover (extension beyond the paper).
    #[must_use]
    pub fn guided_full(
        name: impl Into<String>,
        hints: HintSet,
        confidence: Option<Confidence>,
    ) -> Self {
        Strategy { name: name.into(), kind: StrategyKind::GuidedFull { hints, confidence } }
    }

    /// Simulated annealing with the given configuration.
    #[must_use]
    pub fn anneal(config: crate::local::AnnealConfig) -> Self {
        Strategy { name: "simulated-annealing".into(), kind: StrategyKind::Anneal(config) }
    }

    /// Stochastic hill climbing with random restarts.
    #[must_use]
    pub fn hill_climb(budget: u64, patience: u32) -> Self {
        Strategy { name: "hill-climb".into(), kind: StrategyKind::HillClimb { budget, patience } }
    }

    /// The strategy's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The strategy's kind.
    #[must_use]
    pub fn kind(&self) -> &StrategyKind {
        &self.kind
    }
}

/// Scalar configuration of a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Runs per strategy (paper: 40, or 20 for Figure 3).
    pub runs: usize,
    /// Base seed; per-run seeds are derived deterministically.
    pub seed: u64,
    /// GA settings shared by all GA strategies.
    pub settings: GaSettings,
    /// Worker threads (clamped to at least 1).
    pub threads: usize,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            runs: 40,
            seed: 0xDAC_2015,
            settings: GaSettings::default(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// All runs of one strategy, with their average.
#[derive(Debug, Clone)]
pub struct StrategyResult {
    /// Strategy display name.
    pub name: String,
    /// One outcome per run.
    pub outcomes: Vec<SearchOutcome>,
    /// Generation-aligned average of the runs.
    pub averaged: Vec<AvgTracePoint>,
}

impl StrategyResult {
    /// Convergence statistics against a quality threshold.
    #[must_use]
    pub fn reach_stats(&self, direction: Direction, threshold: f64) -> ReachStats {
        ReachStats::compute(&self.outcomes, direction, threshold)
    }

    /// Mean final best objective value across runs.
    #[must_use]
    pub fn mean_best(&self) -> f64 {
        self.outcomes.iter().map(|o| o.best_value).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Mean distinct evaluations per run.
    #[must_use]
    pub fn mean_evals(&self) -> f64 {
        self.outcomes.iter().map(|o| o.total_evals() as f64).sum::<f64>()
            / self.outcomes.len() as f64
    }
}

/// Result of comparing several strategies on one query.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The compared query's name.
    pub query_name: String,
    /// The query's direction (for threshold queries on the result).
    pub direction: Direction,
    /// Per-strategy results, in input order.
    pub results: Vec<StrategyResult>,
}

impl Comparison {
    /// Finds a strategy's result by name.
    #[must_use]
    pub fn result(&self, name: &str) -> Option<&StrategyResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Ratio of censored mean evaluations-to-threshold: `slow / fast` (the
    /// paper's headline speedups). Censored means charge unreached runs
    /// their full budget, avoiding survivorship bias when few runs reach
    /// the threshold. `None` if either strategy never reaches it at all.
    #[must_use]
    pub fn evals_ratio(&self, slow: &str, fast: &str, threshold: f64) -> Option<f64> {
        let s_stats = self.result(slow)?.reach_stats(self.direction, threshold);
        let f_stats = self.result(fast)?.reach_stats(self.direction, threshold);
        if s_stats.reached == 0 || f_stats.reached == 0 {
            return None;
        }
        Some(s_stats.censored_mean_evals? / f_stats.censored_mean_evals?)
    }

    /// CSV of the averaged traces: one row per generation, one
    /// `(evals, best)` column pair per strategy.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("generation");
        for r in &self.results {
            out.push_str(&format!(",{}_evals,{}_best", r.name, r.name));
        }
        out.push('\n');
        let rows = self.results.iter().map(|r| r.averaged.len()).max().unwrap_or(0);
        for i in 0..rows {
            out.push_str(&i.to_string());
            for r in &self.results {
                match r.averaged.get(i) {
                    Some(p) => {
                        out.push_str(&format!(",{:.2},{:.6}", p.mean_evals, p.mean_best_so_far))
                    }
                    None => out.push_str(",,"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// A fixed-width text table of the averaged traces, sampled every
    /// `every` generations.
    #[must_use]
    pub fn render_table(&self, every: usize) -> String {
        let every = every.max(1);
        let mut out = format!("{:>6} ", "gen");
        for r in &self.results {
            out.push_str(&format!("| {:>24} ", r.name));
        }
        out.push('\n');
        out.push_str(&format!("{:>6} ", ""));
        for _ in &self.results {
            out.push_str(&format!("| {:>11} {:>12} ", "evals", "best"));
        }
        out.push('\n');
        let rows = self.results.iter().map(|r| r.averaged.len()).max().unwrap_or(0);
        let mut i = 0;
        while i < rows {
            out.push_str(&format!("{i:>6} "));
            for r in &self.results {
                match r.averaged.get(i) {
                    Some(p) => out.push_str(&format!(
                        "| {:>11.1} {:>12.4} ",
                        p.mean_evals, p.mean_best_so_far
                    )),
                    None => out.push_str(&format!("| {:>11} {:>12} ", "-", "-")),
                }
            }
            out.push('\n');
            i += every;
        }
        out
    }
}

/// Runs every `(strategy, run)` pair in parallel and averages per strategy.
///
/// Seeds are derived from `config.seed` so results are independent of
/// thread count and strategy order.
///
/// # Errors
///
/// Propagates the first error any run produces.
pub fn compare(
    model: &dyn CostModel,
    query: &Query,
    strategies: &[Strategy],
    config: &CompareConfig,
) -> Result<Comparison> {
    compare_observed(model, query, strategies, config, nautilus_obs::noop())
}

/// [`compare`], streaming every GA run's telemetry to `observer`.
///
/// The observer sees one `RunStart`/`RunEnd` event pair per `(GA strategy,
/// run)` cell; because cells execute in parallel, events from different
/// runs interleave on the stream. For per-run separation prefer
/// [`crate::Nautilus::run_baseline_reported`] / `run_guided_reported` on
/// individual runs. The non-GA strategies (random, annealing, hill
/// climbing) are not event-instrumented.
///
/// # Errors
///
/// As [`compare`].
pub fn compare_observed<'a>(
    model: &'a dyn CostModel,
    query: &Query,
    strategies: &[Strategy],
    config: &CompareConfig,
    observer: &'a dyn SearchObserver,
) -> Result<Comparison> {
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for s in 0..strategies.len() {
        for r in 0..config.runs {
            jobs.push((s, r));
        }
    }
    let threads = config.threads.clamp(1, 64);
    let chunks: Vec<&[(usize, usize)]> = jobs.chunks(jobs.len().div_ceil(threads)).collect();

    let run_one = |s_idx: usize, run: usize| -> Result<SearchOutcome> {
        let seed = derive_seed(config.seed, (s_idx as u64) << 32 | run as u64);
        let strategy = &strategies[s_idx];
        match strategy.kind() {
            StrategyKind::Baseline => Nautilus::new(model)
                .with_settings(config.settings)
                .with_observer(observer)
                .run_baseline(query, seed),
            StrategyKind::Guided { hints, confidence } => Nautilus::new(model)
                .with_settings(config.settings)
                .with_observer(observer)
                .run_guided(query, hints, *confidence, seed),
            StrategyKind::GuidedFull { hints, confidence } => Nautilus::new(model)
                .with_settings(config.settings)
                .with_observer(observer)
                .with_guided_crossover(true)
                .run_guided(query, hints, *confidence, seed),
            StrategyKind::Random { budget } => crate::baselines::random_search(
                model,
                query,
                *budget,
                config.settings.population as u64,
                seed,
            ),
            StrategyKind::Anneal(cfg) => {
                crate::local::simulated_annealing(model, query, *cfg, seed)
            }
            StrategyKind::HillClimb { budget, patience } => {
                crate::local::hill_climb(model, query, *budget, *patience, seed)
            }
        }
    };

    let mut collected: Vec<(usize, usize, SearchOutcome)> = Vec::with_capacity(jobs.len());
    let mut first_error: Option<crate::error::NautilusError> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for &(s, r) in *chunk {
                        match run_one(s, r) {
                            Ok(o) => out.push((s, r, o)),
                            Err(e) => return Err(e),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        for h in handles {
            match h.join().expect("comparison worker panicked") {
                Ok(mut v) => collected.append(&mut v),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
    });
    if let Some(e) = first_error {
        return Err(e);
    }
    collected.sort_by_key(|(s, r, _)| (*s, *r));

    let results = strategies
        .iter()
        .enumerate()
        .map(|(s_idx, strategy)| {
            let outcomes: Vec<SearchOutcome> = collected
                .iter()
                .filter(|(s, _, _)| *s == s_idx)
                .map(|(_, _, o)| o.clone())
                .collect();
            // Random-search traces have budget-dependent lengths; pad to the
            // longest so averaging stays generation-aligned.
            let padded = pad_traces(outcomes);
            let averaged = average_traces(&padded);
            StrategyResult { name: strategy.name().to_owned(), outcomes: padded, averaged }
        })
        .collect();

    Ok(Comparison { query_name: query.name().to_owned(), direction: query.direction(), results })
}

/// Extends every trace to the longest length by repeating its final point.
fn pad_traces(mut outcomes: Vec<SearchOutcome>) -> Vec<SearchOutcome> {
    let max_len = outcomes.iter().map(|o| o.trace.len()).max().unwrap_or(0);
    for o in &mut outcomes {
        if let Some(&last) = o.trace.last() {
            while o.trace.len() < max_len {
                let mut p = last;
                p.generation = o.trace.len() as u32;
                o.trace.push(p);
            }
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_ga::{Genome, ParamSpace};
    use nautilus_synth::{MetricCatalog, MetricExpr, MetricSet};

    #[derive(Debug)]
    struct Slope {
        space: ParamSpace,
        catalog: MetricCatalog,
    }

    impl Slope {
        fn new() -> Self {
            Slope {
                space: ParamSpace::builder()
                    .int("x", 0, 20, 1)
                    .int("y", 0, 20, 1)
                    .int("z", 0, 20, 1)
                    .build()
                    .unwrap(),
                catalog: MetricCatalog::new([("cost", "u")]).unwrap(),
            }
        }
    }

    impl CostModel for Slope {
        fn name(&self) -> &str {
            "slope"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn catalog(&self) -> &MetricCatalog {
            &self.catalog
        }
        fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
            let v = g.genes().iter().map(|&x| f64::from(x)).sum::<f64>();
            Some(self.catalog.set(vec![v + 1.0]).unwrap())
        }
    }

    fn fixture() -> (Slope, Query, HintSet) {
        let model = Slope::new();
        let q = Query::minimize("cost", MetricExpr::metric(model.catalog.require("cost").unwrap()));
        let hints = HintSet::for_metric("cost")
            .bias("x", 1.0)
            .unwrap()
            .bias("y", 1.0)
            .unwrap()
            .bias("z", 1.0)
            .unwrap()
            .build();
        (model, q, hints)
    }

    fn small_config(runs: usize) -> CompareConfig {
        CompareConfig {
            runs,
            seed: 99,
            settings: GaSettings { generations: 25, ..GaSettings::default() },
            threads: 4,
        }
    }

    #[test]
    fn comparison_runs_all_strategies_and_averages() {
        let (model, q, hints) = fixture();
        let strategies = [
            Strategy::baseline(),
            Strategy::guided("nautilus-strong", hints, Some(Confidence::STRONG)),
            Strategy::random(120),
        ];
        let cmp = compare(&model, &q, &strategies, &small_config(6)).unwrap();
        assert_eq!(cmp.results.len(), 3);
        for r in &cmp.results {
            assert_eq!(r.outcomes.len(), 6);
            assert!(!r.averaged.is_empty());
        }
        // Guided beats baseline in mean final quality on this biased slope.
        let base = cmp.result("baseline").unwrap().mean_best();
        let strong = cmp.result("nautilus-strong").unwrap().mean_best();
        assert!(strong <= base + 1.0, "strong {strong} vs base {base}");
    }

    #[test]
    fn comparison_is_thread_count_invariant() {
        let (model, q, hints) = fixture();
        let strategies = [Strategy::baseline(), Strategy::guided("g", hints, None)];
        let mut c1 = small_config(4);
        c1.threads = 1;
        let mut c8 = small_config(4);
        c8.threads = 8;
        let a = compare(&model, &q, &strategies, &c1).unwrap();
        let b = compare(&model, &q, &strategies, &c8).unwrap();
        for (ra, rb) in a.results.iter().zip(&b.results) {
            assert_eq!(ra.outcomes, rb.outcomes);
        }
    }

    #[test]
    fn evals_ratio_compares_convergence_cost() {
        let (model, q, hints) = fixture();
        let strategies =
            [Strategy::baseline(), Strategy::guided("strong", hints, Some(Confidence::STRONG))];
        let cmp = compare(&model, &q, &strategies, &small_config(8)).unwrap();
        let ratio = cmp.evals_ratio("baseline", "strong", 6.0);
        if let Some(r) = ratio {
            assert!(r > 0.0);
        }
        assert!(cmp.evals_ratio("nope", "strong", 6.0).is_none());
    }

    #[test]
    fn csv_and_table_render() {
        let (model, q, hints) = fixture();
        let strategies = [Strategy::baseline(), Strategy::guided("g", hints, None)];
        let cmp = compare(&model, &q, &strategies, &small_config(3)).unwrap();
        let csv = cmp.to_csv();
        assert!(csv.starts_with("generation,baseline_evals,baseline_best,g_evals,g_best"));
        assert_eq!(csv.lines().count(), 1 + 26);
        let table = cmp.render_table(5);
        assert!(table.contains("baseline"));
        assert!(table.contains("evals"));
    }

    #[test]
    fn observed_comparison_streams_every_ga_run() {
        use nautilus_obs::{InMemorySink, SearchEvent};

        let (model, q, hints) = fixture();
        let strategies =
            [Strategy::baseline(), Strategy::guided("g", hints, Some(Confidence::STRONG))];
        let sink = InMemorySink::new();
        let cmp = compare_observed(&model, &q, &strategies, &small_config(3), &sink).unwrap();

        let events = sink.events();
        let run_starts =
            events.iter().filter(|e| matches!(e, SearchEvent::RunStart { .. })).count();
        let run_ends = events.iter().filter(|e| matches!(e, SearchEvent::RunEnd { .. })).count();
        assert_eq!(run_starts, 2 * 3, "one RunStart per (GA strategy, run) cell");
        assert_eq!(run_ends, run_starts);

        // Per-lookup events across all interleaved runs reconcile with the
        // summed job accounting of the outcomes.
        let evals =
            events.iter().filter(|e| matches!(e, SearchEvent::EvalCompleted { .. })).count() as u64;
        let lookups: u64 = cmp
            .results
            .iter()
            .flat_map(|r| r.outcomes.iter())
            .map(|o| o.jobs.total_lookups())
            .sum();
        assert_eq!(evals, lookups);

        // Observation must not perturb the comparison.
        let plain = compare(&model, &q, &strategies, &small_config(3)).unwrap();
        for (ra, rb) in cmp.results.iter().zip(&plain.results) {
            assert_eq!(ra.outcomes, rb.outcomes);
        }
    }

    #[test]
    fn random_traces_are_padded_for_averaging() {
        let (model, q, _) = fixture();
        let strategies = [Strategy::random(50)];
        let cmp = compare(&model, &q, &strategies, &small_config(5)).unwrap();
        let r = &cmp.results[0];
        let len = r.outcomes[0].trace.len();
        assert!(r.outcomes.iter().all(|o| o.trace.len() == len));
    }

    #[test]
    fn extended_strategy_kinds_run_in_comparisons() {
        let (model, q, hints) = fixture();
        let strategies = [
            Strategy::guided_full("full", hints, Some(Confidence::STRONG)),
            Strategy::anneal(crate::local::AnnealConfig {
                budget: 80,
                ..crate::local::AnnealConfig::default()
            }),
            Strategy::hill_climb(80, 20),
        ];
        let cmp = compare(&model, &q, &strategies, &small_config(3)).unwrap();
        assert_eq!(cmp.results.len(), 3);
        for r in &cmp.results {
            assert_eq!(r.outcomes.len(), 3);
            for o in &r.outcomes {
                assert!(o.best_value.is_finite());
                assert!(o.total_evals() > 0);
            }
        }
        // Budgeted strategies respect their budgets.
        for name in ["simulated-annealing", "hill-climb"] {
            for o in &cmp.result(name).unwrap().outcomes {
                assert!(o.total_evals() <= 80, "{name} overspent: {}", o.total_evals());
            }
        }
    }
}
