//! Structure-of-arrays population storage.
//!
//! The generational loop used to carry its population as `Vec<Genome>` —
//! one heap allocation per member, cloned on every breed, and moved by
//! value into the batch dispatcher. [`PopArena`] flattens the population
//! into two reusable gene buffers (current and next generation) so the
//! hot path moves *row indices*, not owned genomes:
//!
//! * scoring reads `row(i)` slices straight out of the arena (zero-copy,
//!   zero-alloc — cache lookups go through `Borrow<[u32]>`),
//! * breeding writes child genes into the *next* buffer, then
//!   [`PopArena::swap`] flips the buffers without freeing either
//!   allocation (a bump arena that resets instead of reallocating),
//! * only API boundaries (operators, selectors, checkpoints) rehydrate
//!   full [`Genome`] values, and populations are small there.
//!
//! Determinism is unaffected: the arena stores exactly the genes a
//! `Vec<Genome>` population stored, in the same order.

use crate::genome::Genome;

/// A double-buffered, flat gene arena holding one generation's population
/// (`len()` rows of `gene_len()` genes each) plus the next generation
/// under construction.
#[derive(Debug, Clone, Default)]
pub struct PopArena {
    gene_len: usize,
    cur: Vec<u32>,
    next: Vec<u32>,
}

impl PopArena {
    /// Creates an empty arena for genomes of `gene_len` genes.
    #[must_use]
    pub fn new(gene_len: usize) -> PopArena {
        assert!(gene_len > 0, "gene_len must be positive");
        PopArena { gene_len, cur: Vec::new(), next: Vec::new() }
    }

    /// Builds an arena from an existing population (checkpoint resume,
    /// initial population).
    ///
    /// # Panics
    ///
    /// Panics if `genomes` is empty or rows disagree on length.
    #[must_use]
    pub fn from_genomes(genomes: &[Genome]) -> PopArena {
        let first = genomes.first().expect("population must be non-empty");
        let mut arena = PopArena::new(first.len());
        for g in genomes {
            arena.push(g.genes());
        }
        arena
    }

    /// Genes per row.
    #[must_use]
    pub fn gene_len(&self) -> usize {
        self.gene_len
    }

    /// Rows in the current generation.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cur.len() / self.gene_len
    }

    /// Whether the current generation holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cur.is_empty()
    }

    /// The `i`-th row of the current generation.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cur[i * self.gene_len..(i + 1) * self.gene_len]
    }

    /// Iterates the current generation's rows in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.cur.chunks_exact(self.gene_len)
    }

    /// Appends a row to the *current* generation.
    ///
    /// # Panics
    ///
    /// Panics if `genes` has the wrong length.
    pub fn push(&mut self, genes: &[u32]) {
        assert_eq!(genes.len(), self.gene_len, "row length mismatch");
        self.cur.extend_from_slice(genes);
    }

    /// Appends a row to the *next* generation under construction.
    ///
    /// # Panics
    ///
    /// Panics if `genes` has the wrong length.
    pub fn push_next(&mut self, genes: &[u32]) {
        assert_eq!(genes.len(), self.gene_len, "row length mismatch");
        self.next.extend_from_slice(genes);
    }

    /// Rows accumulated in the next generation so far.
    #[must_use]
    pub fn next_len(&self) -> usize {
        self.next.len() / self.gene_len
    }

    /// Promotes the next generation to current. The old current buffer is
    /// cleared and retained as the new next-generation scratch, so steady
    /// state never allocates.
    pub fn swap(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        self.next.clear();
    }

    /// Rehydrates the current generation as owned genomes (checkpoint
    /// boundaries, API edges).
    #[must_use]
    pub fn to_genomes(&self) -> Vec<Genome> {
        self.rows().map(|r| Genome::from_genes(r.to_vec())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_population() {
        let pop: Vec<Genome> =
            (0..4u32).map(|i| Genome::from_genes(vec![i, i + 1, i * 2])).collect();
        let arena = PopArena::from_genomes(&pop);
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.gene_len(), 3);
        assert_eq!(arena.row(2), &[2, 3, 4]);
        assert_eq!(arena.to_genomes(), pop);
        assert_eq!(arena.rows().count(), 4);
    }

    #[test]
    fn swap_promotes_next_and_reuses_buffers() {
        let mut arena = PopArena::new(2);
        arena.push(&[1, 2]);
        arena.push_next(&[3, 4]);
        arena.push_next(&[5, 6]);
        assert_eq!(arena.next_len(), 2);
        let cap_before = arena.cur.capacity();
        arena.swap();
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.row(0), &[3, 4]);
        assert_eq!(arena.row(1), &[5, 6]);
        assert_eq!(arena.next_len(), 0);
        // The old current buffer became the next-generation scratch.
        arena.push_next(&[7, 8]);
        arena.swap();
        assert_eq!(arena.row(0), &[7, 8]);
        assert!(arena.next.capacity() >= cap_before.min(2));
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn rejects_wrong_row_length() {
        let mut arena = PopArena::new(3);
        arena.push(&[1, 2]);
    }
}
