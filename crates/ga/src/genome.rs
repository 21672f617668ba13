//! Genomes: the genetic representation of a design point.

use std::fmt;

use crate::param::ParamId;
use crate::rng::hash_genes;

/// A design point encoded as one gene (domain value index) per parameter.
///
/// A genome is only meaningful relative to the [`crate::ParamSpace`] that
/// produced it: gene `i` is an index into the domain of parameter `i`.
/// Genomes are small, cheap to clone, hashable (they key the synthesis
/// cache), and totally ordered (lexicographic) so they can live in sorted
/// collections deterministically.
///
/// ```
/// use nautilus_ga::Genome;
/// let g = Genome::from_genes(vec![0, 2, 1]);
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.gene_at(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Genome {
    genes: Vec<u32>,
}

impl Genome {
    /// Builds a genome from raw gene indices.
    #[must_use]
    pub fn from_genes(genes: Vec<u32>) -> Self {
        Genome { genes }
    }

    /// Number of genes (parameters).
    #[must_use]
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Whether the genome has no genes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// All gene indices, in parameter order.
    #[must_use]
    pub fn genes(&self) -> &[u32] {
        &self.genes
    }

    /// The gene for parameter `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this genome.
    #[must_use]
    pub fn gene(&self, id: ParamId) -> u32 {
        self.genes[id.index()]
    }

    /// The gene at raw position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[must_use]
    pub fn gene_at(&self, idx: usize) -> u32 {
        self.genes[idx]
    }

    /// Overwrites the gene for parameter `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this genome.
    pub fn set_gene(&mut self, id: ParamId, value: u32) {
        self.genes[id.index()] = value;
    }

    /// Overwrites the gene at raw position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn set_gene_at(&mut self, idx: usize, value: u32) {
        self.genes[idx] = value;
    }

    /// Exchanges the gene at raw position `idx` with `other`'s: the step
    /// every crossover operator recombines with.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for either genome.
    pub fn swap_gene_at(&mut self, other: &mut Genome, idx: usize) {
        std::mem::swap(&mut self.genes[idx], &mut other.genes[idx]);
    }

    /// Number of positions at which `self` and `other` differ.
    ///
    /// ```
    /// use nautilus_ga::Genome;
    /// let a = Genome::from_genes(vec![0, 1, 2]);
    /// let b = Genome::from_genes(vec![0, 3, 2]);
    /// assert_eq!(a.hamming_distance(&b), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the genomes have different lengths.
    #[must_use]
    pub fn hamming_distance(&self, other: &Genome) -> usize {
        assert_eq!(self.len(), other.len(), "genomes from different spaces");
        self.genes.iter().zip(&other.genes).filter(|(a, b)| a != b).count()
    }

    /// A stable 64-bit hash of the genome, salted by `salt`.
    ///
    /// Used by surrogate cost models for deterministic per-design noise.
    #[must_use]
    pub fn stable_hash(&self, salt: u64) -> u64 {
        hash_genes(&self.genes, salt)
    }

    /// Overwrites this genome's genes from a slice, reusing the existing
    /// allocation when capacities allow.
    ///
    /// The hot evaluation path stores populations as flat
    /// structure-of-arrays rows and rehydrates one scratch `Genome` per
    /// worker instead of allocating a fresh genome per point.
    pub fn copy_from_slice(&mut self, genes: &[u32]) {
        self.genes.clear();
        self.genes.extend_from_slice(genes);
    }
}

/// Genomes borrow as their gene slice, so `HashMap<Genome, _>` keys can be
/// probed with a `&[u32]` row from a structure-of-arrays population
/// without allocating. Sound for hashing because `Genome`'s derived
/// `Hash` hashes exactly its `Vec<u32>`, which hashes identically to the
/// equivalent `[u32]` slice, and `Eq` compares the same genes.
impl std::borrow::Borrow<[u32]> for Genome {
    fn borrow(&self) -> &[u32] {
        &self.genes
    }
}

impl fmt::Display for Genome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, g) in self.genes.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{g}")?;
        }
        f.write_str("]")
    }
}

impl FromIterator<u32> for Genome {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        Genome { genes: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let g: Genome = [1u32, 0, 4].into_iter().collect();
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.genes(), &[1, 0, 4]);
        assert_eq!(g.gene(ParamId(2)), 4);
    }

    #[test]
    fn mutation_of_genes() {
        let mut g = Genome::from_genes(vec![0, 0]);
        g.set_gene(ParamId(1), 3);
        g.set_gene_at(0, 2);
        assert_eq!(g.genes(), &[2, 3]);
        let mut h = Genome::from_genes(vec![7, 8]);
        g.swap_gene_at(&mut h, 1);
        assert_eq!((g.genes(), h.genes()), (&[2, 8][..], &[7, 3][..]));
    }

    #[test]
    fn hamming_distance_counts_differences() {
        let a = Genome::from_genes(vec![0, 1, 2, 3]);
        let b = Genome::from_genes(vec![0, 9, 2, 8]);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a), 0);
    }

    #[test]
    #[should_panic(expected = "different spaces")]
    fn hamming_distance_rejects_length_mismatch() {
        let a = Genome::from_genes(vec![0]);
        let b = Genome::from_genes(vec![0, 1]);
        let _ = a.hamming_distance(&b);
    }

    #[test]
    fn display_lists_genes() {
        assert_eq!(Genome::from_genes(vec![3, 0, 7]).to_string(), "[3,0,7]");
        assert_eq!(Genome::from_genes(vec![]).to_string(), "[]");
    }

    #[test]
    fn stable_hash_depends_on_salt_and_genes() {
        let g = Genome::from_genes(vec![1, 2, 3]);
        assert_eq!(g.stable_hash(5), g.stable_hash(5));
        assert_ne!(g.stable_hash(5), g.stable_hash(6));
        assert_ne!(g.stable_hash(5), Genome::from_genes(vec![1, 2, 4]).stable_hash(5));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Genome::from_genes(vec![0, 5]);
        let b = Genome::from_genes(vec![1, 0]);
        assert!(a < b);
    }
}
