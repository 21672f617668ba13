//! Parent-selection strategies.

use std::sync::{Mutex, PoisonError};

use crate::genome::Genome;
use crate::rng::SearchRng;

/// A genome together with its (direction-normalized) score.
///
/// Scores are always *higher-is-better* inside the engine; see
/// [`crate::Direction::to_score`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredGenome {
    /// The design point.
    pub genome: Genome,
    /// Higher-is-better score (`f64::NEG_INFINITY` for infeasible points).
    pub score: f64,
}

/// A parent-selection strategy.
///
/// `ranked` is sorted best-first; implementations return the index of the
/// chosen parent.
pub trait Selector: Send + Sync {
    /// Picks one parent index from the best-first `ranked` population.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `ranked` is empty.
    fn select(&self, ranked: &[ScoredGenome], rng: &mut SearchRng) -> usize;

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "selector"
    }
}

/// Tournament selection: draw `k` candidates uniformly, keep the best.
///
/// `k = 2` (binary tournament) gives mild selection pressure and is the
/// engine default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tournament {
    /// Tournament size (at least 1).
    pub k: usize,
}

impl Tournament {
    /// Creates a tournament of size `k` (raised to at least 1).
    #[must_use]
    pub fn new(k: usize) -> Self {
        Tournament { k: k.max(1) }
    }
}

impl Default for Tournament {
    fn default() -> Self {
        Tournament { k: 2 }
    }
}

impl Selector for Tournament {
    fn select(&self, ranked: &[ScoredGenome], rng: &mut SearchRng) -> usize {
        assert!(!ranked.is_empty(), "cannot select from an empty population");
        // `ranked` is best-first, so the winner is the *smallest* drawn index.
        (0..self.k).map(|_| rng.below(ranked.len() as u64) as usize).min().expect("k >= 1")
    }

    fn name(&self) -> &str {
        "tournament"
    }
}

/// Linear-ranking roulette selection.
///
/// Probability decreases linearly from the best to the worst individual.
/// `pressure` in `[1, 2]` controls the slope: 1.0 is uniform, 2.0 gives the
/// worst individual probability zero. This mirrors PyEvolve's rank-based
/// roulette used by the paper's baseline.
///
/// The rank probabilities depend only on the population size and the
/// pressure, so they are computed once per size and read by every draw.
#[derive(Debug)]
pub struct RankRoulette {
    /// Selection pressure in `[1, 2]`.
    pub pressure: f64,
    /// Rank probabilities for the last population size and pressure drawn
    /// with.
    table: Mutex<RankTable>,
}

/// [`RankRoulette`]'s per-size probabilities and the pressure they hold
/// for.
#[derive(Debug, Default)]
struct RankTable {
    pressure: f64,
    probs: Vec<f64>,
}

impl RankRoulette {
    /// Creates the selector; `pressure` is clamped to `[1, 2]`.
    #[must_use]
    pub fn new(pressure: f64) -> Self {
        RankRoulette { pressure: pressure.clamp(1.0, 2.0), table: Mutex::default() }
    }
}

impl Default for RankRoulette {
    fn default() -> Self {
        RankRoulette::new(1.7)
    }
}

impl Clone for RankRoulette {
    fn clone(&self) -> Self {
        RankRoulette { pressure: self.pressure, table: Mutex::default() }
    }
}

impl PartialEq for RankRoulette {
    fn eq(&self, other: &Self) -> bool {
        self.pressure == other.pressure
    }
}

impl Selector for RankRoulette {
    fn select(&self, ranked: &[ScoredGenome], rng: &mut SearchRng) -> usize {
        assert!(!ranked.is_empty(), "cannot select from an empty population");
        // An empty table is stale for every population, and the refill
        // empties it first, so a guard recovered from a poisoned lock is
        // never read half-written.
        let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        let s = self.pressure;
        if table.probs.len() != ranked.len() || table.pressure.to_bits() != s.to_bits() {
            let len = ranked.len();
            let n = len as f64;
            table.probs.clear();
            table.pressure = s;
            // Linear ranking: p(rank r, best r=0) = (s - 2(s-1) r/(n-1)) / n.
            table.probs.extend((0..len).map(|r| {
                let frac = if len == 1 { 0.0 } else { r as f64 / (n - 1.0) };
                (s - 2.0 * (s - 1.0) * frac) / n
            }));
        }
        let mut u = rng.unit();
        for (r, &p) in table.probs.iter().enumerate() {
            if u < p {
                return r;
            }
            u -= p;
        }
        ranked.len() - 1
    }

    fn name(&self) -> &str {
        "rank-roulette"
    }
}

/// Classic fitness-proportional ("roulette wheel") selection with linear
/// scaling, as in PyEvolve — the GA framework the paper modified.
///
/// Scores are shifted so the worst individual gets weight 0 and then
/// raised by `floor` (a fraction of the score range) so it keeps a small
/// chance; selection probability is proportional to the scaled score.
/// Degenerates to uniform selection when all scores are equal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessProportional {
    /// Weight floor as a fraction of the score range, in `[0, 1]`.
    pub floor: f64,
}

impl FitnessProportional {
    /// Creates the selector; `floor` is clamped to `[0, 1]`.
    #[must_use]
    pub fn new(floor: f64) -> Self {
        FitnessProportional { floor: floor.clamp(0.0, 1.0) }
    }
}

impl Default for FitnessProportional {
    fn default() -> Self {
        FitnessProportional { floor: 0.1 }
    }
}

impl Selector for FitnessProportional {
    fn select(&self, ranked: &[ScoredGenome], rng: &mut SearchRng) -> usize {
        assert!(!ranked.is_empty(), "cannot select from an empty population");
        // Infeasible members (score -inf) get zero weight.
        let finite: Vec<f64> =
            ranked.iter().map(|s| if s.score.is_finite() { s.score } else { f64::NAN }).collect();
        let lo = finite.iter().copied().filter(|v| !v.is_nan()).fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().filter(|v| !v.is_nan()).fold(f64::NEG_INFINITY, f64::max);
        if !lo.is_finite() || !hi.is_finite() || (hi - lo).abs() < f64::EPSILON {
            return rng.below(ranked.len() as u64) as usize;
        }
        let range = hi - lo;
        let weights: Vec<f64> = finite
            .iter()
            .map(|v| if v.is_nan() { 0.0 } else { (v - lo) + self.floor * range })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut u = rng.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        ranked.len() - 1
    }

    fn name(&self) -> &str {
        "fitness-proportional"
    }
}

/// Truncation selection: parents are drawn uniformly from the top fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Truncation {
    /// Fraction of the population eligible as parents, in `(0, 1]`.
    pub fraction: f64,
}

impl Truncation {
    /// Creates the selector; `fraction` is clamped to `(0, 1]`.
    #[must_use]
    pub fn new(fraction: f64) -> Self {
        Truncation { fraction: fraction.clamp(f64::EPSILON, 1.0) }
    }
}

impl Default for Truncation {
    fn default() -> Self {
        Truncation { fraction: 0.5 }
    }
}

impl Selector for Truncation {
    fn select(&self, ranked: &[ScoredGenome], rng: &mut SearchRng) -> usize {
        assert!(!ranked.is_empty(), "cannot select from an empty population");
        let cutoff = ((ranked.len() as f64 * self.fraction).ceil() as usize).clamp(1, ranked.len());
        rng.below(cutoff as u64) as usize
    }

    fn name(&self) -> &str {
        "truncation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(n: usize) -> Vec<ScoredGenome> {
        (0..n)
            .map(|i| ScoredGenome {
                genome: Genome::from_genes(vec![i as u32]),
                score: -(i as f64), // best-first
            })
            .collect()
    }

    fn histogram(sel: &dyn Selector, n: usize, draws: usize, seed: u64) -> Vec<usize> {
        let pop = ranked(n);
        let mut rng = SearchRng::seed_from_u64(seed);
        let mut h = vec![0usize; n];
        for _ in 0..draws {
            let idx = sel.select(&pop, &mut rng);
            h[idx] += 1;
        }
        h
    }

    #[test]
    fn tournament_prefers_better_ranks() {
        let h = histogram(&Tournament::new(2), 10, 50_000, 1);
        assert!(h[0] > h[5], "best should beat median: {h:?}");
        assert!(h[5] > h[9], "median should beat worst: {h:?}");
        // Binary tournament over n=10: P(best) = 1 - (9/10)^2 = 0.19.
        let p0 = h[0] as f64 / 50_000.0;
        assert!((p0 - 0.19).abs() < 0.01, "P(best)={p0}");
    }

    #[test]
    fn tournament_k1_is_uniform() {
        let h = histogram(&Tournament::new(1), 5, 50_000, 2);
        for &c in &h {
            let p = c as f64 / 50_000.0;
            assert!((p - 0.2).abs() < 0.01, "not uniform: {h:?}");
        }
    }

    #[test]
    fn rank_roulette_is_monotone_in_rank() {
        let h = histogram(&RankRoulette::new(2.0), 8, 80_000, 3);
        for w in h.windows(2) {
            assert!(w[0] >= w[1], "selection not monotone: {h:?}");
        }
        // With pressure 2 the worst rank has probability 0.
        assert!(h[7] < 80, "worst rank should be ~never selected: {h:?}");
    }

    #[test]
    fn rank_roulette_pressure_one_is_uniform() {
        let h = histogram(&RankRoulette::new(1.0), 4, 40_000, 4);
        for &c in &h {
            let p = c as f64 / 40_000.0;
            assert!((p - 0.25).abs() < 0.015, "not uniform: {h:?}");
        }
    }

    #[test]
    fn one_rank_roulette_across_sizes_draws_as_fresh_ones() {
        let shared = RankRoulette::new(1.7);
        let mut rng = SearchRng::seed_from_u64(40);
        let mut fresh_rng = SearchRng::seed_from_u64(40);
        let mut check = |sel: &RankRoulette, n: usize| {
            let pop = ranked(n);
            for _ in 0..200 {
                let fresh = RankRoulette::new(sel.pressure);
                assert_eq!(sel.select(&pop, &mut rng), fresh.select(&pop, &mut fresh_rng), "n={n}");
            }
        };
        for n in [10, 3, 10, 1, 7, 10, 2] {
            check(&shared, n);
        }
        // A pressure changed through the public field is honored too.
        let mut shared = shared;
        shared.pressure = 1.2;
        check(&shared, 10);
        assert_eq!(rng, fresh_rng, "the shared selector drew a different number of words");
    }

    #[test]
    fn fitness_proportional_weights_by_score() {
        // Scores 3, 2, 1, 0 with floor 0 -> probabilities 1/2, 1/3, 1/6, 0.
        let pop: Vec<ScoredGenome> = (0..4)
            .map(|i| ScoredGenome {
                genome: Genome::from_genes(vec![i]),
                score: 3.0 - f64::from(i),
            })
            .collect();
        let sel = FitnessProportional::new(0.0);
        let mut rng = SearchRng::seed_from_u64(8);
        let mut h = [0usize; 4];
        let draws = 60_000;
        for _ in 0..draws {
            h[sel.select(&pop, &mut rng)] += 1;
        }
        let p: Vec<f64> = h.iter().map(|&c| c as f64 / f64::from(draws)).collect();
        assert!((p[0] - 0.5).abs() < 0.01, "{p:?}");
        assert!((p[1] - 1.0 / 3.0).abs() < 0.01, "{p:?}");
        assert!(p[3] < 0.002, "worst should almost never win: {p:?}");
    }

    #[test]
    fn fitness_proportional_handles_equal_and_infinite_scores() {
        let equal: Vec<ScoredGenome> = (0..4)
            .map(|i| ScoredGenome { genome: Genome::from_genes(vec![i]), score: 2.0 })
            .collect();
        let sel = FitnessProportional::default();
        let mut rng = SearchRng::seed_from_u64(9);
        let mut h = [0usize; 4];
        for _ in 0..40_000 {
            h[sel.select(&equal, &mut rng)] += 1;
        }
        for &c in &h {
            let p = c as f64 / 40_000.0;
            assert!((p - 0.25).abs() < 0.015, "not uniform on ties: {h:?}");
        }
        // Infeasible members are never selected when feasible ones exist.
        let mixed = vec![
            ScoredGenome { genome: Genome::from_genes(vec![0]), score: 5.0 },
            ScoredGenome { genome: Genome::from_genes(vec![1]), score: 1.0 },
            ScoredGenome { genome: Genome::from_genes(vec![2]), score: f64::NEG_INFINITY },
        ];
        let floor0 = FitnessProportional::new(0.0);
        for _ in 0..5_000 {
            assert_ne!(floor0.select(&mixed, &mut rng), 2);
        }
    }

    #[test]
    fn truncation_only_selects_top_fraction() {
        let h = histogram(&Truncation::new(0.3), 10, 10_000, 5);
        assert!(h[3..].iter().all(|&c| c == 0), "selected below cutoff: {h:?}");
        assert!(h[..3].iter().all(|&c| c > 0));
    }

    #[test]
    fn selectors_work_on_single_individual() {
        let pop = ranked(1);
        let mut rng = SearchRng::seed_from_u64(6);
        assert_eq!(Tournament::default().select(&pop, &mut rng), 0);
        assert_eq!(RankRoulette::default().select(&pop, &mut rng), 0);
        assert_eq!(Truncation::default().select(&pop, &mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        let mut rng = SearchRng::seed_from_u64(7);
        Tournament::default().select(&[], &mut rng);
    }
}
