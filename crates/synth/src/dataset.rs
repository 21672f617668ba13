//! Pre-characterized design-space datasets.
//!
//! The paper's methodology first maps a large swept sub-space offline
//! ("a dedicated cluster with 200+ cores running non-stop for about 2
//! weeks") and then replays search strategies against the resulting dataset.
//! [`Dataset::characterize`] performs the same sweep against a surrogate
//! model — multi-threaded, seconds instead of weeks — and offers the rank
//! and percentile queries the evaluation needs ("within the top 1%",
//! "within 1% of the best").
//!
//! A characterized sub-space is a dense lattice, so point lookup is an
//! index, not a hash: each design point's mixed-radix rank (the
//! [`ParamSpace::flat_index`] order the sweep walks) indexes a table of
//! entry positions. At [`CHARACTERIZE_LIMIT`] points the table is 8 MB.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use nautilus_ga::{Direction, Genome, ParamSpace};

use crate::error::{Result, SynthError};
use crate::expr::MetricExpr;
use crate::metric::{MetricCatalog, MetricSet};
use crate::model::CostModel;

/// Exhaustive-sweep safety limit (design points).
pub const CHARACTERIZE_LIMIT: u128 = 2_000_000;

/// Lattice-table marker for a point with no entry (infeasible).
const NO_ENTRY: u32 = u32::MAX;

/// Indices claimed per steal; amortizes the atomic increment without
/// letting a slow block starve the other workers.
const STEAL_BLOCK: u64 = 256;

/// One objective column sorted best-first, memoized per
/// (expression, direction) pair so rank queries bisect instead of
/// re-sorting the whole dataset on every call.
#[derive(Debug)]
struct SortedColumn {
    /// Finite objective values, best value first.
    values: Vec<f64>,
}

/// A fully characterized (feasible) design-space sub-region.
#[derive(Debug, Clone)]
pub struct Dataset {
    space: ParamSpace,
    catalog: MetricCatalog,
    name: String,
    entries: Vec<(Genome, MetricSet)>,
    /// Per-gene domain cardinalities: the radix of each lattice digit.
    radix: Vec<u32>,
    /// Entry position of every point of the space by mixed-radix rank,
    /// [`NO_ENTRY`] where the point is infeasible.
    lattice: Vec<u32>,
    /// Lazily built per-objective sorted columns. Shared across clones:
    /// entries are immutable after construction, so a memoized column is
    /// valid for every clone of the dataset.
    sorted: Arc<RwLock<HashMap<String, Arc<SortedColumn>>>>,
}

impl Dataset {
    /// Characterizes every point of `model`'s space with `threads` workers.
    ///
    /// Pass `threads == 0` to use every core the host offers
    /// (`std::thread::available_parallelism`); any non-zero count is used
    /// as given — there is no hidden cap. Workers pull
    /// `STEAL_BLOCK`-sized (256) index blocks from a shared atomic cursor, so
    /// an expensive region of the space cannot strand one statically
    /// chunked worker with most of the work. Results are merged in flat
    /// index order: entry order (and hence every rank query) is identical
    /// at any thread count.
    ///
    /// Infeasible points are probed (so they are *known* infeasible) but not
    /// stored.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::SpaceTooLarge`] if the space exceeds
    /// [`CHARACTERIZE_LIMIT`] points and [`SynthError::EmptyDataset`] if no
    /// point is feasible.
    pub fn characterize(model: &dyn CostModel, threads: usize) -> Result<Dataset> {
        let space = model.space().clone();
        let total = space.cardinality();
        if total > CHARACTERIZE_LIMIT {
            return Err(SynthError::SpaceTooLarge {
                cardinality: total,
                limit: CHARACTERIZE_LIMIT,
            });
        }
        let total = total as u64;
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        } as u64;
        let threads = threads.min(total.div_ceil(STEAL_BLOCK)).max(1);

        let cursor = AtomicU64::new(0);
        let mut indexed: Vec<(u64, Genome, MetricSet)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let space = &space;
                let cursor = &cursor;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let lo = cursor.fetch_add(STEAL_BLOCK, Ordering::Relaxed);
                        if lo >= total {
                            break;
                        }
                        for i in lo..(lo + STEAL_BLOCK).min(total) {
                            let g = space.genome_at(u128::from(i));
                            if let Some(m) = model.evaluate(&g) {
                                out.push((i, g, m));
                            }
                        }
                    }
                    out
                }));
            }
            for h in handles {
                indexed.extend(h.join().expect("characterization worker panicked"));
            }
        });

        // Deterministic entry order regardless of steal interleaving.
        indexed.sort_unstable_by_key(|(i, _, _)| *i);
        if indexed.is_empty() {
            return Err(SynthError::EmptyDataset);
        }
        // `total` is at most CHARACTERIZE_LIMIT, so ranks, entry positions
        // and every per-gene cardinality fit in u32.
        let radix = space.params().iter().map(|p| p.cardinality() as u32).collect();
        let mut lattice = vec![NO_ENTRY; total as usize];
        for (pos, (i, _, _)) in indexed.iter().enumerate() {
            lattice[*i as usize] = pos as u32;
        }
        let entries = indexed.into_iter().map(|(_, g, m)| (g, m)).collect();
        Ok(Dataset {
            space,
            catalog: model.catalog().clone(),
            name: model.name().to_owned(),
            entries,
            radix,
            lattice,
            sorted: Arc::new(RwLock::new(HashMap::new())),
        })
    }

    /// The generator name this dataset was characterized from.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The swept parameter space.
    #[must_use]
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// The metric catalog.
    #[must_use]
    pub fn catalog(&self) -> &MetricCatalog {
        &self.catalog
    }

    /// Number of feasible characterized points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dataset is empty (never true for a built dataset).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(genome, metrics)` entries.
    pub fn iter(&self) -> impl Iterator<Item = &(Genome, MetricSet)> {
        self.entries.iter()
    }

    /// The metrics of one design point, if feasible and in the sweep.
    ///
    /// A genome of the wrong length or with a gene outside its domain is
    /// not in the sweep.
    #[must_use]
    pub fn metrics_for(&self, genome: &Genome) -> Option<&MetricSet> {
        let genes = genome.genes();
        if genes.len() != self.radix.len() {
            return None;
        }
        let mut rank = 0usize;
        for (&gene, &radix) in genes.iter().zip(&self.radix) {
            if gene >= radix {
                return None;
            }
            rank = rank * radix as usize + gene as usize;
        }
        match self.lattice[rank] {
            NO_ENTRY => None,
            pos => Some(&self.entries[pos as usize].1),
        }
    }

    /// Evaluates `expr` for every entry, in entry order.
    #[must_use]
    pub fn eval_all(&self, expr: &MetricExpr) -> Vec<f64> {
        self.entries.iter().map(|(_, m)| expr.eval(m)).collect()
    }

    /// The best entry under (`expr`, `direction`): `(genome, value)`.
    ///
    /// Non-finite objective values are skipped.
    #[must_use]
    pub fn best(&self, expr: &MetricExpr, direction: Direction) -> (&Genome, f64) {
        self.extreme(expr, direction, true)
    }

    /// The worst entry under (`expr`, `direction`): `(genome, value)`.
    #[must_use]
    pub fn worst(&self, expr: &MetricExpr, direction: Direction) -> (&Genome, f64) {
        self.extreme(expr, direction, false)
    }

    fn extreme(&self, expr: &MetricExpr, direction: Direction, best: bool) -> (&Genome, f64) {
        let mut out: Option<(&Genome, f64)> = None;
        for (g, m) in &self.entries {
            let v = expr.eval(m);
            if !v.is_finite() {
                continue;
            }
            let replace = match &out {
                None => true,
                Some((_, cur)) => {
                    if best {
                        direction.is_better(v, *cur)
                    } else {
                        direction.is_better(*cur, v)
                    }
                }
            };
            if replace {
                out = Some((g, v));
            }
        }
        out.expect("dataset has at least one finite entry")
    }

    /// The memoized best-first sorted objective column for
    /// (`expr`, `direction`), built on first use.
    fn sorted_column(&self, expr: &MetricExpr, direction: Direction) -> Arc<SortedColumn> {
        let key = format!("{expr:?}|{direction:?}");
        if let Some(col) = self.sorted.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
            return Arc::clone(col);
        }
        let mut values: Vec<f64> =
            self.eval_all(expr).into_iter().filter(|v| v.is_finite()).collect();
        values.sort_by(|a, b| {
            if direction.is_better(*a, *b) {
                std::cmp::Ordering::Less
            } else if direction.is_better(*b, *a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        let col = Arc::new(SortedColumn { values });
        // A concurrent builder may have raced us; either result is
        // identical, so keep whichever landed first.
        let mut sorted = self.sorted.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(sorted.entry(key).or_insert(col))
    }

    /// Quality percentile of `value` under (`expr`, `direction`):
    /// the percentage of dataset entries that `value` ties or beats.
    ///
    /// The dataset optimum scores 100; "within the top 1%" means
    /// `quality_pct >= 99`.
    #[must_use]
    pub fn quality_pct(&self, expr: &MetricExpr, direction: Direction, value: f64) -> f64 {
        let col = self.sorted_column(expr, direction);
        let finite = col.values.len();
        if finite == 0 {
            return 0.0;
        }
        // Strictly-better values form a prefix of the best-first column.
        let better = col.values.partition_point(|&v| direction.is_better(v, value));
        100.0 * (finite - better) as f64 / finite as f64
    }

    /// Normalized 0–100 score of `value` between the dataset's worst (0) and
    /// best (100) objective values — the paper's Figure 3 y-axis.
    #[must_use]
    pub fn normalized_score(&self, expr: &MetricExpr, direction: Direction, value: f64) -> f64 {
        let (_, best) = self.best(expr, direction);
        let (_, worst) = self.worst(expr, direction);
        if (best - worst).abs() < f64::EPSILON {
            return 100.0;
        }
        (100.0 * (value - worst) / (best - worst)).clamp(0.0, 100.0)
    }

    /// The objective value at the boundary of the top `frac` of the dataset
    /// (e.g. `frac = 0.01` gives the top-1% threshold).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is outside `(0, 1]`.
    #[must_use]
    pub fn top_fraction_threshold(
        &self,
        expr: &MetricExpr,
        direction: Direction,
        frac: f64,
    ) -> f64 {
        assert!(frac > 0.0 && frac <= 1.0, "frac {frac} outside (0, 1]");
        let col = self.sorted_column(expr, direction);
        let k = ((col.values.len() as f64 * frac).ceil() as usize).clamp(1, col.values.len());
        col.values[k - 1]
    }

    /// How many entries meet or beat `threshold` under the direction.
    #[must_use]
    pub fn count_reaching(&self, expr: &MetricExpr, direction: Direction, threshold: f64) -> usize {
        let col = self.sorted_column(expr, direction);
        // Values tying-or-beating the threshold form a prefix.
        col.values.partition_point(|&v| !direction.is_better(threshold, v))
    }

    /// Expected number of uniform random draws (with replacement) needed to
    /// hit an entry meeting `threshold` — the paper's "if random sampling
    /// was used, it would take on average 11,921 synthesis runs" comparison.
    ///
    /// Returns `None` if no entry meets the threshold.
    #[must_use]
    pub fn expected_random_draws(
        &self,
        expr: &MetricExpr,
        direction: Direction,
        threshold: f64,
    ) -> Option<f64> {
        let hits = self.count_reaching(expr, direction, threshold);
        if hits == 0 {
            None
        } else {
            Some(self.entries.len() as f64 / hits as f64)
        }
    }

    /// Wraps the dataset as a replayable [`CostModel`]: evaluation is a table
    /// lookup, and points outside the dataset are infeasible.
    #[must_use]
    pub fn as_model(&self) -> DatasetModel<'_> {
        DatasetModel { dataset: self }
    }

    /// Serializes the dataset as tab-separated text: one header row with
    /// parameter names then metric names, one row per feasible design.
    /// The format plots directly in gnuplot/pandas.
    #[cfg(test)]
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for p in self.space.params() {
            out.push_str(p.name());
            out.push('\t');
        }
        let names: Vec<&str> = self.catalog.defs().iter().map(|d| d.name()).collect();
        out.push_str(&names.join("\t"));
        out.push('\n');
        for (g, m) in &self.entries {
            for (p, &gene) in self.space.params().iter().zip(g.genes()) {
                out.push_str(&p.domain().value(gene as usize).to_string());
                out.push('\t');
            }
            let values: Vec<String> = m.values().iter().map(|v| format!("{v}")).collect();
            out.push_str(&values.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// A [`CostModel`] that replays a characterized [`Dataset`].
///
/// Produced by [`Dataset::as_model`]; this is the paper's evaluation mode
/// (searches run against the offline-characterized datasets).
#[derive(Debug, Clone, Copy)]
pub struct DatasetModel<'d> {
    dataset: &'d Dataset,
}

impl CostModel for DatasetModel<'_> {
    fn name(&self) -> &str {
        self.dataset.name()
    }

    fn space(&self) -> &ParamSpace {
        self.dataset.space()
    }

    fn catalog(&self) -> &MetricCatalog {
        self.dataset.catalog()
    }

    fn evaluate(&self, genome: &Genome) -> Option<MetricSet> {
        self.dataset.metrics_for(genome).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::testing::BowlModel;
    use nautilus_ga::ParamValue;

    fn dataset() -> Dataset {
        let model = BowlModel::new(0.0).unwrap();
        Dataset::characterize(&model, 4).unwrap()
    }

    #[test]
    fn characterization_covers_feasible_space() {
        let d = dataset();
        // 20x20 space minus the 20-point infeasible stripe at x == 7.
        assert_eq!(d.len(), 380);
        assert_eq!(d.space().num_params(), 2);
    }

    #[test]
    fn characterization_is_thread_count_invariant() {
        let model = BowlModel::new(0.07).unwrap();
        let a = Dataset::characterize(&model, 1).unwrap();
        let b = Dataset::characterize(&model, 7).unwrap();
        assert_eq!(a.len(), b.len());
        let ea: Vec<_> = a.iter().collect();
        let eb: Vec<_> = b.iter().collect();
        assert_eq!(ea, eb, "entry order must not depend on thread count");
    }

    #[test]
    fn characterization_auto_threads_and_large_counts_are_equivalent() {
        let model = BowlModel::new(0.07).unwrap();
        let serial = Dataset::characterize(&model, 1).unwrap();
        // threads == 0: auto-detect; 128: formerly silently capped at 64,
        // now honored (and bounded by the number of steal blocks).
        for threads in [0usize, 128] {
            let d = Dataset::characterize(&model, threads).unwrap();
            let ea: Vec<_> = serial.iter().collect();
            let eb: Vec<_> = d.iter().collect();
            assert_eq!(ea, eb, "threads={threads} changed the entries");
        }
    }

    #[test]
    fn indexed_queries_match_linear_scans() {
        let d = dataset();
        let cost = MetricExpr::metric(d.catalog().require("cost").unwrap());
        for direction in [Direction::Minimize, Direction::Maximize] {
            for threshold in [-1.0, 0.0, 1.0, 1.5, 50.0, 200.0, 378.0, 1000.0] {
                let linear_count = d
                    .iter()
                    .map(|(_, m)| cost.eval(m))
                    .filter(|v| v.is_finite() && !direction.is_better(threshold, *v))
                    .count();
                assert_eq!(
                    d.count_reaching(&cost, direction, threshold),
                    linear_count,
                    "count_reaching({direction:?}, {threshold})"
                );
                let (not_better, finite) = d
                    .iter()
                    .map(|(_, m)| cost.eval(m))
                    .filter(|v| v.is_finite())
                    .fold((0usize, 0usize), |(nb, n), v| {
                        (nb + usize::from(!direction.is_better(v, threshold)), n + 1)
                    });
                let linear_pct = 100.0 * not_better as f64 / finite as f64;
                let pct = d.quality_pct(&cost, direction, threshold);
                assert!(
                    (pct - linear_pct).abs() < 1e-12,
                    "quality_pct({direction:?}, {threshold}): {pct} vs {linear_pct}"
                );
            }
        }
    }

    #[test]
    fn cloned_datasets_share_memoized_columns() {
        let d = dataset();
        let cost = MetricExpr::metric(d.catalog().require("cost").unwrap());
        let t = d.top_fraction_threshold(&cost, Direction::Minimize, 0.10);
        let clone = d.clone();
        assert_eq!(clone.top_fraction_threshold(&cost, Direction::Minimize, 0.10), t);
        assert_eq!(d.sorted.read().unwrap().len(), clone.sorted.read().unwrap().len());
        assert_eq!(
            d.sorted.read().unwrap().len(),
            1,
            "one memoized column for one (expr, direction)"
        );
    }

    #[test]
    fn best_and_worst_match_known_optimum() {
        let d = dataset();
        let cost = MetricExpr::metric(d.catalog().require("cost").unwrap());
        let (g, v) = d.best(&cost, Direction::Minimize);
        let dp = d.space().decode(g);
        assert_eq!(dp.get("x"), Some(&ParamValue::Int(3)));
        assert_eq!(dp.get("y"), Some(&ParamValue::Int(11)));
        assert_eq!(v, 1.0);
        let (_, w) = d.worst(&cost, Direction::Minimize);
        // Farthest feasible corner is (19, 0): 16^2 + 11^2 + 1 = 378.
        assert_eq!(w, 378.0, "worst bowl cost {w}");
    }

    #[test]
    fn quality_pct_is_100_at_best_and_low_at_worst() {
        let d = dataset();
        let cost = MetricExpr::metric(d.catalog().require("cost").unwrap());
        let (_, best) = d.best(&cost, Direction::Minimize);
        let (_, worst) = d.worst(&cost, Direction::Minimize);
        assert_eq!(d.quality_pct(&cost, Direction::Minimize, best), 100.0);
        let wq = d.quality_pct(&cost, Direction::Minimize, worst);
        assert!(wq <= 1.0, "worst quality {wq}");
        let mid = d.quality_pct(&cost, Direction::Minimize, 50.0);
        assert!(mid > 10.0 && mid < 90.0, "mid quality {mid}");
    }

    #[test]
    fn normalized_score_endpoints() {
        let d = dataset();
        let cost = MetricExpr::metric(d.catalog().require("cost").unwrap());
        let (_, best) = d.best(&cost, Direction::Minimize);
        let (_, worst) = d.worst(&cost, Direction::Minimize);
        assert_eq!(d.normalized_score(&cost, Direction::Minimize, best), 100.0);
        assert_eq!(d.normalized_score(&cost, Direction::Minimize, worst), 0.0);
    }

    #[test]
    fn top_fraction_threshold_brackets_the_best() {
        let d = dataset();
        let cost = MetricExpr::metric(d.catalog().require("cost").unwrap());
        let t1 = d.top_fraction_threshold(&cost, Direction::Minimize, 0.01);
        let t10 = d.top_fraction_threshold(&cost, Direction::Minimize, 0.10);
        let (_, best) = d.best(&cost, Direction::Minimize);
        assert!(t1 >= best);
        assert!(t10 >= t1);
        // Counting entries that reach the top-10% threshold gives ~10%.
        let n = d.count_reaching(&cost, Direction::Minimize, t10);
        let frac = n as f64 / d.len() as f64;
        assert!((0.08..=0.12).contains(&frac), "frac {frac}");
    }

    #[test]
    fn expected_random_draws_inverse_of_hit_rate() {
        let d = dataset();
        let cost = MetricExpr::metric(d.catalog().require("cost").unwrap());
        let (_, best) = d.best(&cost, Direction::Minimize);
        let draws = d.expected_random_draws(&cost, Direction::Minimize, best).unwrap();
        assert_eq!(draws, d.len() as f64); // unique optimum
        assert_eq!(d.expected_random_draws(&cost, Direction::Minimize, best - 1.0), None);
    }

    #[test]
    fn dataset_model_replays_and_rejects_unknown_points() {
        let d = dataset();
        let m = d.as_model();
        let (g, _) =
            d.best(&MetricExpr::metric(d.catalog().require("cost").unwrap()), Direction::Minimize);
        let g = g.clone();
        assert_eq!(m.evaluate(&g), d.metrics_for(&g).cloned());
        // The infeasible stripe is absent from the dataset.
        let bad = d
            .space()
            .genome_from_values([("x", ParamValue::Int(7)), ("y", ParamValue::Int(1))])
            .unwrap();
        assert_eq!(m.evaluate(&bad), None);
        assert_eq!(m.name(), "bowl");
    }

    /// A three-gene model with unequal domain sizes (so a mixed-radix
    /// digit mix-up shows) and a scattered infeasible set.
    #[derive(Debug)]
    struct LatticeModel {
        space: ParamSpace,
        catalog: MetricCatalog,
    }

    impl LatticeModel {
        fn new() -> LatticeModel {
            LatticeModel {
                space: ParamSpace::builder()
                    .int("a", 0, 2, 1)
                    .choices("b", ["p", "q", "r", "s", "t"])
                    .int("c", 0, 3, 1)
                    .build()
                    .unwrap(),
                catalog: MetricCatalog::new([("v", "")]).unwrap(),
            }
        }
    }

    impl CostModel for LatticeModel {
        fn name(&self) -> &str {
            "lattice"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn catalog(&self) -> &MetricCatalog {
            &self.catalog
        }
        fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
            let [a, b, c] = [g.gene_at(0), g.gene_at(1), g.gene_at(2)];
            if (a + 2 * b + 3 * c) % 4 == 1 {
                return None;
            }
            let v = f64::from(100 * a + 10 * b + c);
            Some(self.catalog.set(vec![v]).unwrap())
        }
    }

    #[test]
    fn every_lattice_point_agrees_with_the_model() {
        let model = LatticeModel::new();
        for threads in [1usize, 3] {
            let d = Dataset::characterize(&model, threads).unwrap();
            let replay = d.as_model();
            let (mut feasible, mut infeasible) = (0, 0);
            for g in model.space().iter_genomes() {
                let expect = model.evaluate(&g);
                if expect.is_some() {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
                assert_eq!(d.metrics_for(&g), expect.as_ref(), "point {g} at {threads} threads");
                assert_eq!(replay.evaluate(&g), expect, "replayed point {g}");
            }
            assert_eq!(feasible + infeasible, 60);
            assert!(infeasible > 0, "the model must exercise infeasible points");
            assert_eq!(d.len(), feasible);
        }
    }

    #[test]
    fn malformed_genomes_are_not_in_the_sweep() {
        let model = LatticeModel::new();
        let d = Dataset::characterize(&model, 2).unwrap();
        let replay = d.as_model();
        assert!(d.metrics_for(&Genome::from_genes(vec![0, 0, 0])).is_some());
        for genes in [
            vec![],
            vec![0, 0],
            vec![0, 0, 0, 0],
            vec![3, 0, 0],
            vec![0, 5, 0],
            vec![0, 0, 4],
            vec![u32::MAX, u32::MAX, u32::MAX],
        ] {
            let g = Genome::from_genes(genes);
            assert_eq!(d.metrics_for(&g), None, "{g} must miss");
            assert_eq!(replay.evaluate(&g), None, "{g} must replay as infeasible");
        }
    }

    #[test]
    fn tsv_export_round_trips_structure() {
        let d = dataset();
        let tsv = d.to_tsv();
        let mut lines = tsv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, "x\ty\tcost\tgain");
        assert_eq!(tsv.lines().count(), d.len() + 1);
        // Every row has the same column count and parses numerically.
        for line in tsv.lines().skip(1).take(20) {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 4);
            for c in cols {
                let _: f64 = c.parse().expect("numeric cell");
            }
        }
    }

    #[test]
    fn maximize_direction_queries_work() {
        let d = dataset();
        let gain = MetricExpr::metric(d.catalog().require("gain").unwrap());
        let (g, v) = d.best(&gain, Direction::Maximize);
        let dp = d.space().decode(g);
        // gain = x + 2y + 1 is maximized at x=19, y=19 -> 58.
        assert_eq!(dp.get("x"), Some(&ParamValue::Int(19)));
        assert_eq!(dp.get("y"), Some(&ParamValue::Int(19)));
        assert_eq!(v, 58.0);
    }
}
