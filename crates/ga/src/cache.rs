//! Evaluation cache: the accounting heart of the reproduction.
//!
//! The paper measures search cost as the number of **distinct** design
//! points evaluated, "since each evaluation requires running computationally
//! expensive CAD tools"; a GA that revisits a previously synthesized point
//! pays nothing. Every search strategy in this workspace evaluates through
//! an [`EvalCache`] so those counts are directly comparable.

use std::collections::{HashMap, HashSet};

use crate::genome::Genome;
use crate::rng::RowBuildHasher;

/// Memoizes fitness evaluations and counts distinct evaluations.
///
/// `None` entries record *infeasible* points (the generator refused the
/// parameter combination); these are tracked separately because a failed
/// generator run is typically much cheaper than a full synthesis job.
/// Quarantined genomes (every evaluation attempt failed) are also stored
/// as `None` — they score like infeasible points and are never
/// re-evaluated — but counted on their own ledger.
///
/// Keys hash with [`RowHasher`](crate::rng::RowHasher), so a lookup by a
/// borrowed `&[u32]` row costs a few multiplies, not a SipHash pass.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    map: HashMap<Genome, Option<f64>, RowBuildHasher>,
    quarantined: HashSet<Genome, RowBuildHasher>,
    hits: u64,
    feasible_misses: u64,
    infeasible_misses: u64,
}

impl EvalCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Creates an empty cache with room for `entries` memoized genomes
    /// before its table first grows.
    #[must_use]
    pub fn with_capacity(entries: usize) -> Self {
        EvalCache {
            map: HashMap::with_capacity_and_hasher(entries, RowBuildHasher::default()),
            ..EvalCache::default()
        }
    }

    /// Looks `genome` up, evaluating and memoizing with `eval` on a miss.
    pub fn get_or_eval(
        &mut self,
        genome: &Genome,
        eval: impl FnOnce(&Genome) -> Option<f64>,
    ) -> Option<f64> {
        if let Some(v) = self.map.get(genome) {
            self.hits += 1;
            return *v;
        }
        let v = eval(genome);
        match v {
            Some(_) => self.feasible_misses += 1,
            None => self.infeasible_misses += 1,
        }
        self.map.insert(genome.clone(), v);
        v
    }

    /// Returns the cached value of the genome with these genes without
    /// evaluating or counting a lookup.
    #[must_use]
    pub fn peek(&self, genes: &[u32]) -> Option<Option<f64>> {
        self.map.get(genes).copied()
    }

    /// Looks the genome with these genes up, counting a cache hit when
    /// present.
    ///
    /// This is the lookup half of [`EvalCache::get_or_eval`]: it updates
    /// the hit counter exactly as `get_or_eval` would on a hit, but never
    /// evaluates. The engine's scoring loop uses it (together with
    /// [`EvalCache::insert_evaluated`]) whether a miss is evaluated inline
    /// or was prefetched on worker threads.
    pub fn lookup(&mut self, genes: &[u32]) -> Option<Option<f64>> {
        let v = self.map.get(genes).copied();
        if v.is_some() {
            self.hits += 1;
        }
        v
    }

    /// Memoizes an externally computed evaluation, counting the miss
    /// exactly as [`EvalCache::get_or_eval`] would have.
    ///
    /// A prefetched value is computed off-cache (on a worker thread) and
    /// inserted by the scoring loop in deterministic first-occurrence
    /// order; an already present genome is left untouched (no counter
    /// changes), since the loop never evaluates a cached genome.
    /// The owning [`Genome`] key is only allocated on an actual insert.
    pub fn insert_evaluated(&mut self, genes: &[u32], value: Option<f64>) {
        if self.map.contains_key(genes) {
            return;
        }
        match value {
            Some(_) => self.feasible_misses += 1,
            None => self.infeasible_misses += 1,
        }
        self.map.insert(Genome::from_genes(genes.to_vec()), value);
    }

    /// Quarantines the genome with these genes: every evaluation attempt
    /// failed, so it is memoized as infeasible-scoring (`None`) and never
    /// re-evaluated, but counted on its own ledger — a quarantined point
    /// consumed retry attempts, not a completed generator run.
    ///
    /// Idempotent: a genome already present (evaluated or quarantined) is
    /// left untouched.
    pub fn insert_quarantined(&mut self, genes: &[u32]) {
        if self.map.contains_key(genes) {
            return;
        }
        let genome = Genome::from_genes(genes.to_vec());
        self.map.insert(genome.clone(), None);
        self.quarantined.insert(genome);
    }

    /// Whether the genome with these genes was quarantined.
    #[must_use]
    pub fn is_quarantined(&self, genes: &[u32]) -> bool {
        self.quarantined.contains(genes)
    }

    /// Number of quarantined genomes.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Number of distinct *feasible* design points evaluated so far.
    ///
    /// This is the paper's "# designs evaluated" x-axis: each one stands for
    /// a synthesis job costing minutes to hours of EDA time.
    #[must_use]
    pub fn distinct_evals(&self) -> u64 {
        self.feasible_misses
    }

    /// Number of distinct infeasible points encountered.
    #[must_use]
    pub fn infeasible_evals(&self) -> u64 {
        self.infeasible_misses
    }

    /// Number of lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups (hits plus misses of both kinds).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.feasible_misses + self.infeasible_misses
    }

    /// Number of memoized entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing has been evaluated yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// An immutable snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            distinct_evals: self.feasible_misses,
            infeasible_evals: self.infeasible_misses,
            quarantined: self.quarantined.len() as u64,
        }
    }

    /// A complete, deterministic snapshot of the cache: every memoized
    /// entry, the quarantine set, and all counters.
    ///
    /// Entries are sorted by genome so the same cache state always
    /// produces the same snapshot regardless of `HashMap` iteration
    /// order — checkpoints of identical runs must be byte-identical.
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut entries: Vec<(Genome, Option<f64>)> =
            self.map.iter().map(|(g, v)| (g.clone(), *v)).collect();
        entries.sort_by(|a, b| a.0.genes().cmp(b.0.genes()));
        let mut quarantined: Vec<Genome> = self.quarantined.iter().cloned().collect();
        quarantined.sort_by(|a, b| a.genes().cmp(b.genes()));
        CacheSnapshot {
            entries,
            quarantined,
            hits: self.hits,
            feasible_misses: self.feasible_misses,
            infeasible_misses: self.infeasible_misses,
        }
    }

    /// Rebuilds a cache from a [`CacheSnapshot`], restoring entries,
    /// quarantine membership and counters exactly.
    #[must_use]
    pub fn restore(snapshot: &CacheSnapshot) -> EvalCache {
        EvalCache {
            map: snapshot.entries.iter().cloned().collect(),
            quarantined: snapshot.quarantined.iter().cloned().collect(),
            hits: snapshot.hits,
            feasible_misses: snapshot.feasible_misses,
            infeasible_misses: snapshot.infeasible_misses,
        }
    }
}

/// A deterministic, order-stable dump of an [`EvalCache`], used by the
/// checkpoint subsystem.
///
/// `entries` and `quarantined` are sorted by genome; counters are carried
/// verbatim so `EvalCache::restore(&c.snapshot())` reproduces `c` exactly
/// (same `stats()`, same memoized values, same quarantine behavior).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheSnapshot {
    /// Memoized `(genome, fitness)` pairs, sorted by genome; `None` marks
    /// infeasible or quarantined points.
    pub entries: Vec<(Genome, Option<f64>)>,
    /// Quarantined genomes (a subset of `entries` keys), sorted.
    pub quarantined: Vec<Genome>,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Distinct feasible evaluations.
    pub feasible_misses: u64,
    /// Distinct infeasible evaluations (excluding quarantines).
    pub infeasible_misses: u64,
}

/// Snapshot of [`EvalCache`] counters, attached to run results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without an evaluation.
    pub hits: u64,
    /// Distinct feasible design points evaluated (synthesis jobs).
    pub distinct_evals: u64,
    /// Distinct infeasible design points encountered.
    pub infeasible_evals: u64,
    /// Genomes quarantined after every evaluation attempt failed.
    pub quarantined: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(x: u32) -> Genome {
        Genome::from_genes(vec![x])
    }

    #[test]
    fn second_lookup_is_a_hit_and_does_not_reevaluate() {
        let mut c = EvalCache::new();
        let mut calls = 0;
        let v1 = c.get_or_eval(&g(1), |_| {
            calls += 1;
            Some(5.0)
        });
        let v2 = c.get_or_eval(&g(1), |_| {
            calls += 1;
            Some(99.0)
        });
        assert_eq!(v1, Some(5.0));
        assert_eq!(v2, Some(5.0));
        assert_eq!(calls, 1);
        assert_eq!(c.distinct_evals(), 1);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.lookups(), 2);
    }

    #[test]
    fn infeasible_points_are_memoized_and_counted_separately() {
        let mut c = EvalCache::new();
        assert_eq!(c.get_or_eval(&g(7), |_| None), None);
        assert_eq!(c.get_or_eval(&g(7), |_| Some(1.0)), None, "memoized as infeasible");
        assert_eq!(c.distinct_evals(), 0);
        assert_eq!(c.infeasible_evals(), 1);
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn distinct_counting_over_many_points() {
        let mut c = EvalCache::new();
        for i in 0..10 {
            for _ in 0..3 {
                c.get_or_eval(&g(i), |_| Some(f64::from(i)));
            }
        }
        assert_eq!(c.distinct_evals(), 10);
        assert_eq!(c.hits(), 20);
        assert_eq!(c.len(), 10);
        assert!(!c.is_empty());
    }

    #[test]
    fn peek_does_not_count_as_lookup() {
        let mut c = EvalCache::new();
        assert_eq!(c.peek(&[0]), None);
        c.get_or_eval(&g(0), |_| Some(2.0));
        assert_eq!(c.peek(&[0]), Some(Some(2.0)));
        assert_eq!(c.lookups(), 1);
    }

    #[test]
    fn stats_snapshot_matches_counters() {
        let mut c = EvalCache::new();
        c.get_or_eval(&g(0), |_| Some(1.0));
        c.get_or_eval(&g(0), |_| Some(1.0));
        c.get_or_eval(&g(1), |_| None);
        let s = c.stats();
        assert_eq!(
            s,
            CacheStats { hits: 1, distinct_evals: 1, infeasible_evals: 1, quarantined: 0 }
        );
    }

    #[test]
    fn quarantined_genomes_score_infeasible_and_are_never_reevaluated() {
        let mut c = EvalCache::new();
        c.insert_quarantined(&[9]);
        assert!(c.is_quarantined(&[9]));
        assert_eq!(c.peek(&[9]), Some(None), "quarantine memoizes an infeasible score");
        assert_eq!(c.quarantined(), 1);
        // Quarantine is a separate ledger, not an infeasible generator run.
        assert_eq!(c.infeasible_evals(), 0);
        assert_eq!(c.distinct_evals(), 0);
        // Re-quarantining or re-evaluating is a no-op.
        c.insert_quarantined(&[9]);
        c.insert_evaluated(&[9], Some(5.0));
        assert_eq!(c.peek(&[9]), Some(None));
        assert_eq!(c.quarantined(), 1);
        // A later lookup is an ordinary cache hit.
        assert_eq!(c.lookup(&[9]), Some(None));
        assert_eq!(c.hits(), 1);
        // An evaluated genome cannot be retroactively quarantined.
        c.insert_evaluated(&[1], Some(2.0));
        c.insert_quarantined(&[1]);
        assert!(!c.is_quarantined(&[1]));
        assert_eq!(c.peek(&[1]), Some(Some(2.0)));
        assert_eq!(c.stats().quarantined, 1);
    }

    #[test]
    fn snapshot_restore_round_trips_entries_quarantine_and_counters() {
        let mut c = EvalCache::new();
        c.get_or_eval(&g(3), |_| Some(7.5));
        c.get_or_eval(&g(3), |_| Some(99.0)); // hit
        c.get_or_eval(&g(1), |_| None);
        c.insert_quarantined(&[2]);
        let snap = c.snapshot();
        // Sorted by genome regardless of HashMap iteration order.
        let keys: Vec<u32> = snap.entries.iter().map(|(g, _)| g.gene_at(0)).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(snap.quarantined.len(), 1);

        let r = EvalCache::restore(&snap);
        assert_eq!(r.stats(), c.stats());
        assert_eq!(r.peek(&[3]), Some(Some(7.5)));
        assert_eq!(r.peek(&[1]), Some(None));
        assert!(r.is_quarantined(&[2]));
        assert!(!r.is_quarantined(&[1]));
        assert_eq!(r.snapshot(), snap, "snapshot of a restore is identical");
    }

    #[test]
    fn genome_keys_are_found_by_row_and_snapshots_ignore_insertion_order() {
        use crate::rng::{RowBuildHasher, SearchRng};
        use std::hash::BuildHasher;

        // 300 distinct rows of 3 genes (an odd byte count, so the hasher's
        // tail path runs), a third of them infeasible.
        let rows: Vec<Vec<u32>> = (0..300u32).map(|i| vec![i % 7, i / 7, i * 31 % 11]).collect();
        let value = |r: &[u32]| (!r[1].is_multiple_of(3)).then(|| f64::from(r[0] + r[2]));
        let fill = |mut cache: EvalCache, order: &[usize]| {
            for &i in order {
                let g = Genome::from_genes(rows[i].clone());
                cache.get_or_eval(&g, |g| value(g.genes()));
                if i % 50 == 0 {
                    cache.insert_quarantined(&[1000 + i as u32]);
                }
            }
            cache
        };
        let forward: Vec<usize> = (0..rows.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        let mut shuffled = forward.clone();
        let mut rng = SearchRng::seed_from_u64(17);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.below(i as u64 + 1) as usize);
        }

        let mut a = fill(EvalCache::new(), &forward);
        let b = fill(EvalCache::with_capacity(4), &backward);
        let c = fill(EvalCache::with_capacity(1 << 12), &shuffled);
        assert_eq!(a.snapshot(), b.snapshot(), "reverse insertion changed the snapshot");
        assert_eq!(a.snapshot(), c.snapshot(), "shuffled insertion changed the snapshot");

        let build = RowBuildHasher::default();
        for r in &rows {
            let g = Genome::from_genes(r.clone());
            assert_eq!(build.hash_one(&g), build.hash_one(r.as_slice()), "{g} hashes apart");
            assert_eq!(a.peek(r), Some(value(r)), "row {r:?} not found");
            assert_eq!(a.lookup(r), Some(value(r)));
        }
        assert_eq!(a.hits(), rows.len() as u64);
        assert_eq!(a.peek(&[99, 99, 99]), None);
    }

    #[test]
    fn lookup_accounting_identity_holds() {
        // Every lookup is exactly one of: hit, feasible miss, infeasible
        // miss. Quarantine inserts are not lookups (they come from the
        // retry pipeline), so they must not disturb the identity.
        let mut c = EvalCache::new();
        let mut expected_lookups = 0u64;
        for i in 0..50u32 {
            for _ in 0..=(i % 3) {
                c.get_or_eval(&g(i % 17), |_| if i % 5 == 0 { None } else { Some(f64::from(i)) });
                expected_lookups += 1;
            }
            if i % 7 == 0 {
                c.insert_quarantined(&[1000 + i]);
            }
        }
        let s = c.stats();
        assert_eq!(c.lookups(), expected_lookups);
        assert_eq!(s.hits + s.distinct_evals + s.infeasible_evals, expected_lookups);
    }
}
