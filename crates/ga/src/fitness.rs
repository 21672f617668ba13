//! Fitness functions and optimization direction.

use crate::genome::Genome;

/// Whether a query wants the metric pushed up or down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Larger metric values are better (e.g. frequency, throughput/LUT).
    Maximize,
    /// Smaller metric values are better (e.g. LUTs, area-delay product).
    Minimize,
}

impl Direction {
    /// Whether `a` is strictly better than `b` under this direction.
    ///
    /// ```
    /// use nautilus_ga::Direction;
    /// assert!(Direction::Maximize.is_better(2.0, 1.0));
    /// assert!(Direction::Minimize.is_better(1.0, 2.0));
    /// ```
    #[must_use]
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Direction::Maximize => a > b,
            Direction::Minimize => a < b,
        }
    }

    /// Maps a raw metric value into higher-is-better score space.
    #[must_use]
    pub fn to_score(self, value: f64) -> f64 {
        match self {
            Direction::Maximize => value,
            Direction::Minimize => -value,
        }
    }

    /// Inverse of [`Direction::to_score`].
    #[must_use]
    pub fn from_score(self, score: f64) -> f64 {
        match self {
            Direction::Maximize => score,
            Direction::Minimize => -score,
        }
    }

    /// The worst-possible raw value under this direction.
    #[must_use]
    pub fn worst_value(self) -> f64 {
        match self {
            Direction::Maximize => f64::NEG_INFINITY,
            Direction::Minimize => f64::INFINITY,
        }
    }
}

/// A fitness function over genomes.
///
/// In IP optimization each evaluation corresponds to a (simulated) synthesis
/// job; the engine always evaluates through a cache so revisited design
/// points are free, exactly as in the paper's methodology.
///
/// Returning `None` marks the design point *infeasible* (the generator
/// rejects that parameter combination); the engine assigns it the worst
/// possible score so it cannot survive selection.
pub trait FitnessFn: Send + Sync {
    /// The optimization direction of [`FitnessFn::fitness`] values.
    fn direction(&self) -> Direction;

    /// Evaluates the raw metric value for `genome`, or `None` if infeasible.
    fn fitness(&self, genome: &Genome) -> Option<f64>;
}

/// A borrowed view over genomes: `len()` rows of `gene_len()` genes packed
/// back to back in one contiguous slice.
///
/// No search builds one. It is the argument of
/// `nautilus_synth::CostModel::evaluate_rows`, which stays only for the
/// benchmark's cost-model shims.
#[derive(Debug, Clone, Copy)]
pub struct GeneRows<'a> {
    genes: &'a [u32],
    gene_len: usize,
}

impl<'a> GeneRows<'a> {
    /// Wraps a flat gene buffer.
    ///
    /// # Panics
    ///
    /// Panics if `gene_len` is zero or does not divide `genes.len()`.
    #[must_use]
    pub fn new(genes: &'a [u32], gene_len: usize) -> GeneRows<'a> {
        assert!(gene_len > 0, "gene_len must be positive");
        assert_eq!(genes.len() % gene_len, 0, "flat buffer must hold whole rows");
        GeneRows { genes, gene_len }
    }

    /// Genes per row.
    #[must_use]
    pub fn gene_len(&self) -> usize {
        self.gene_len
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.genes.len() / self.gene_len
    }

    /// Whether the view holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// The `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &'a [u32] {
        &self.genes[i * self.gene_len..(i + 1) * self.gene_len]
    }

    /// Iterates rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [u32]> {
        self.genes.chunks_exact(self.gene_len)
    }
}

/// Adapter turning a closure into a [`FitnessFn`].
///
/// ```
/// use nautilus_ga::{FnFitness, Direction, FitnessFn, Genome};
/// let f = FnFitness::new(Direction::Maximize, |g: &Genome| {
///     Some(g.genes().iter().map(|&x| f64::from(x)).sum())
/// });
/// assert_eq!(f.fitness(&Genome::from_genes(vec![1, 2])), Some(3.0));
/// ```
pub struct FnFitness<F> {
    direction: Direction,
    f: F,
}

impl<F> FnFitness<F>
where
    F: Fn(&Genome) -> Option<f64> + Send + Sync,
{
    /// Wraps `f` with the given optimization direction.
    pub fn new(direction: Direction, f: F) -> Self {
        FnFitness { direction, f }
    }
}

impl<F> FitnessFn for FnFitness<F>
where
    F: Fn(&Genome) -> Option<f64> + Send + Sync,
{
    fn direction(&self) -> Direction {
        self.direction
    }

    fn fitness(&self, genome: &Genome) -> Option<f64> {
        (self.f)(genome)
    }
}

impl<F> std::fmt::Debug for FnFitness<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnFitness").field("direction", &self.direction).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_comparisons() {
        assert!(Direction::Maximize.is_better(3.0, 2.0));
        assert!(!Direction::Maximize.is_better(2.0, 2.0));
        assert!(Direction::Minimize.is_better(2.0, 3.0));
    }

    #[test]
    fn score_mapping_round_trips() {
        for d in [Direction::Maximize, Direction::Minimize] {
            for v in [-2.5, 0.0, 7.0] {
                assert_eq!(d.from_score(d.to_score(v)), v);
            }
        }
        // Score space is always higher-is-better.
        for d in [Direction::Maximize, Direction::Minimize] {
            let (good, bad) = match d {
                Direction::Maximize => (10.0, 1.0),
                Direction::Minimize => (1.0, 10.0),
            };
            assert!(d.to_score(good) > d.to_score(bad));
        }
    }

    #[test]
    fn worst_values_lose_to_everything() {
        assert!(Direction::Maximize.is_better(0.0, Direction::Maximize.worst_value()));
        assert!(Direction::Minimize.is_better(0.0, Direction::Minimize.worst_value()));
    }

    #[test]
    fn fn_fitness_reports_infeasible() {
        let f = FnFitness::new(Direction::Minimize, |g: &Genome| {
            if g.gene_at(0) == 0 {
                None
            } else {
                Some(f64::from(g.gene_at(0)))
            }
        });
        assert_eq!(f.fitness(&Genome::from_genes(vec![0])), None);
        assert_eq!(f.fitness(&Genome::from_genes(vec![4])), Some(4.0));
        assert_eq!(f.direction(), Direction::Minimize);
    }
}
