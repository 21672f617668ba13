//! Crossover (recombination) operators.

use crate::genome::Genome;
use crate::ops::OpCtx;
use crate::rng::SearchRng;
use crate::space::ParamSpace;

/// A crossover operator: combines two parents into two children.
///
/// In IP-parameter terms, crossover mixes the parameter settings of two
/// design points ("breeding" in the paper's description).
pub trait CrossoverOp: Send + Sync {
    /// Recombines `a` and `b` in place: they enter as copies of the two
    /// parents and leave as the two children, so breeding reuses the
    /// engine's two scratch genomes instead of allocating children.
    fn crossover(
        &self,
        a: &mut Genome,
        b: &mut Genome,
        space: &ParamSpace,
        ctx: &OpCtx,
        rng: &mut SearchRng,
    );

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "crossover"
    }
}

/// Uniform crossover: each gene is swapped between the children with
/// probability `swap_prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformCrossover {
    /// Per-gene swap probability in `[0, 1]`.
    pub swap_prob: f64,
}

impl UniformCrossover {
    /// Creates the operator; `swap_prob` is clamped to `[0, 1]`.
    #[must_use]
    pub fn new(swap_prob: f64) -> Self {
        UniformCrossover { swap_prob: swap_prob.clamp(0.0, 1.0) }
    }
}

impl Default for UniformCrossover {
    fn default() -> Self {
        UniformCrossover { swap_prob: 0.5 }
    }
}

impl CrossoverOp for UniformCrossover {
    fn crossover(
        &self,
        a: &mut Genome,
        b: &mut Genome,
        _space: &ParamSpace,
        _ctx: &OpCtx,
        rng: &mut SearchRng,
    ) {
        for i in 0..a.len() {
            if rng.chance(self.swap_prob) {
                a.swap_gene_at(b, i);
            }
        }
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

/// Single-point crossover: children exchange all genes after a random cut.
///
/// This is the classic operator of PyEvolve-style GAs and the default of the
/// paper's baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnePointCrossover;

impl CrossoverOp for OnePointCrossover {
    fn crossover(
        &self,
        a: &mut Genome,
        b: &mut Genome,
        _space: &ParamSpace,
        _ctx: &OpCtx,
        rng: &mut SearchRng,
    ) {
        let n = a.len();
        if n < 2 {
            return;
        }
        let cut = 1 + rng.below(n as u64 - 1) as usize;
        for i in cut..n {
            a.swap_gene_at(b, i);
        }
    }

    fn name(&self) -> &str {
        "one-point"
    }
}

/// Two-point crossover: children exchange the gene segment between two cuts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoPointCrossover;

impl CrossoverOp for TwoPointCrossover {
    fn crossover(
        &self,
        a: &mut Genome,
        b: &mut Genome,
        _space: &ParamSpace,
        _ctx: &OpCtx,
        rng: &mut SearchRng,
    ) {
        let n = a.len();
        if n < 2 {
            return;
        }
        let x = rng.below(n as u64) as usize;
        let y = rng.below(n as u64) as usize;
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        for i in lo..=hi {
            a.swap_gene_at(b, i);
        }
    }

    fn name(&self) -> &str {
        "two-point"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(n: usize) -> ParamSpace {
        let mut b = ParamSpace::builder();
        for i in 0..n {
            b = b.int(format!("p{i}"), 0, 9, 1);
        }
        b.build().unwrap()
    }

    /// Runs `op` on copies of the parents and returns the children.
    fn children(
        op: &dyn CrossoverOp,
        a: &Genome,
        b: &Genome,
        s: &ParamSpace,
        rng: &mut SearchRng,
    ) -> (Genome, Genome) {
        let (mut ca, mut cb) = (a.clone(), b.clone());
        op.crossover(&mut ca, &mut cb, s, &OpCtx::new(0, 1), rng);
        (ca, cb)
    }

    /// Children of any crossover must be a gene-wise permutation of the
    /// parents: at each position, {child_a, child_b} == {parent_a, parent_b}.
    fn assert_children_conserve_genes(op: &dyn CrossoverOp, seed: u64) {
        let s = space(8);
        let mut rng = SearchRng::seed_from_u64(seed);
        for _ in 0..200 {
            let a = s.random_genome(&mut rng);
            let b = s.random_genome(&mut rng);
            let (ca, cb) = children(op, &a, &b, &s, &mut rng);
            for i in 0..a.len() {
                let parents = [a.gene_at(i), b.gene_at(i)];
                let kids = [ca.gene_at(i), cb.gene_at(i)];
                assert!(
                    kids == parents || kids == [parents[1], parents[0]],
                    "gene {i} not conserved"
                );
            }
        }
    }

    #[test]
    fn uniform_conserves_genes() {
        assert_children_conserve_genes(&UniformCrossover::default(), 10);
    }

    #[test]
    fn one_point_conserves_genes() {
        assert_children_conserve_genes(&OnePointCrossover, 11);
    }

    #[test]
    fn two_point_conserves_genes() {
        assert_children_conserve_genes(&TwoPointCrossover, 12);
    }

    #[test]
    fn one_point_exchanges_contiguous_suffix() {
        let s = space(6);
        let a = Genome::from_genes(vec![0; 6]);
        let b = Genome::from_genes(vec![9; 6]);
        let mut rng = SearchRng::seed_from_u64(13);
        for _ in 0..100 {
            let (ca, _) = children(&OnePointCrossover, &a, &b, &s, &mut rng);
            // ca must be 0...0 9...9 (a prefix of a's genes then b's suffix).
            let genes = ca.genes();
            let first_nine = genes.iter().position(|&g| g == 9).unwrap();
            assert!(first_nine >= 1, "cut must leave at least one leading gene");
            assert!(genes[first_nine..].iter().all(|&g| g == 9));
            assert!(genes[..first_nine].iter().all(|&g| g == 0));
        }
    }

    #[test]
    fn uniform_swap_prob_zero_is_identity() {
        let s = space(5);
        let mut rng = SearchRng::seed_from_u64(14);
        let a = s.random_genome(&mut rng);
        let b = s.random_genome(&mut rng);
        let (ca, cb) = children(&UniformCrossover::new(0.0), &a, &b, &s, &mut rng);
        assert_eq!(ca, a);
        assert_eq!(cb, b);
    }

    #[test]
    fn uniform_swap_prob_one_swaps_everything() {
        let s = space(5);
        let mut rng = SearchRng::seed_from_u64(15);
        let a = s.random_genome(&mut rng);
        let b = s.random_genome(&mut rng);
        let (ca, cb) = children(&UniformCrossover::new(1.0), &a, &b, &s, &mut rng);
        assert_eq!(ca, b);
        assert_eq!(cb, a);
    }

    #[test]
    fn single_gene_genomes_pass_through() {
        let s = space(1);
        let a = Genome::from_genes(vec![1]);
        let b = Genome::from_genes(vec![2]);
        let mut rng = SearchRng::seed_from_u64(16);
        let (ca, cb) = children(&OnePointCrossover, &a, &b, &s, &mut rng);
        assert_eq!((ca, cb), (a.clone(), b.clone()));
        let (ca, cb) = children(&TwoPointCrossover, &a, &b, &s, &mut rng);
        assert_eq!((ca, cb), (a, b));
    }
}
