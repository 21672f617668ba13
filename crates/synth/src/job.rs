//! The synthesis-job runner: an accounting front-end to a cost model.
//!
//! Every search strategy evaluates through a [`SynthJobRunner`]. The runner
//! accounts both the number of distinct synthesis jobs and the *simulated*
//! EDA tool time they would have cost, and emits one `EvalCompleted` event
//! per lookup.
//!
//! Whether the runner also memoizes depends on its caller:
//!
//! * [`SynthJobRunner::new`] memoizes (re-visiting a previously synthesized
//!   design is free, as in the paper's methodology) in one locked map. The
//!   lock is never held while the model runs, so two threads that miss on
//!   the same point both evaluate it; the second to insert loses the race
//!   and is charged a cache hit plus one contention. Callers with no memo
//!   of their own need it — random search, hill climbing, simulated
//!   annealing, hint estimation — and so do GA runs behind a fallible
//!   evaluator, where retries, hedges and lost races can present a genome
//!   twice.
//! * [`SynthJobRunner::without_memo`] keeps no memo and only counts. The
//!   plain GA engine path uses it: the engine's own `EvalCache` answers
//!   every repeat and its prefetch deduplicates misses, so each
//!   genome reaches the runner exactly once and a second memo would only
//!   cost time. Debug builds check that contract and panic on a genome
//!   charged twice.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use nautilus_ga::Genome;
use nautilus_obs::{SearchEvent, SearchObserver};

use crate::metric::MetricSet;
use crate::model::CostModel;

/// Counter snapshot of a [`SynthJobRunner`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Distinct feasible design points synthesized.
    pub jobs: u64,
    /// Distinct infeasible design points attempted.
    pub infeasible: u64,
    /// Lookups served from the cache.
    pub cache_hits: u64,
    /// Accumulated simulated EDA tool time for all jobs, in seconds.
    pub simulated_tool_secs: u64,
}

impl JobStats {
    /// Simulated tool time as a [`Duration`].
    #[must_use]
    pub fn simulated_tool_time(&self) -> Duration {
        Duration::from_secs(self.simulated_tool_secs)
    }

    /// Every evaluation request seen: jobs + infeasible + cache hits.
    #[must_use]
    pub fn total_lookups(&self) -> u64 {
        self.jobs + self.infeasible + self.cache_hits
    }

    /// Fraction of lookups served from the cache (0 when nothing was
    /// looked up yet).
    #[cfg(test)]
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_lookups();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Memoized results by genome; `None` marks an infeasible point.
type Memo = Mutex<HashMap<Genome, Option<MetricSet>>>;

/// A thread-safe accounting evaluator over a [`CostModel`], memoizing
/// unless built with [`SynthJobRunner::without_memo`].
///
/// ```
/// use nautilus_synth::{SynthJobRunner, CostModel};
/// # use nautilus_ga::{ParamSpace, Genome};
/// # struct M { space: ParamSpace, catalog: nautilus_synth::MetricCatalog }
/// # impl CostModel for M {
/// #     fn name(&self) -> &str { "m" }
/// #     fn space(&self) -> &ParamSpace { &self.space }
/// #     fn catalog(&self) -> &nautilus_synth::MetricCatalog { &self.catalog }
/// #     fn evaluate(&self, g: &Genome) -> Option<nautilus_synth::MetricSet> {
/// #         Some(self.catalog.set(vec![f64::from(g.gene_at(0))]).unwrap())
/// #     }
/// # }
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let model = M {
/// #     space: ParamSpace::builder().int("x", 0, 3, 1).build()?,
/// #     catalog: nautilus_synth::MetricCatalog::new([("v", "")])?,
/// # };
/// let runner = SynthJobRunner::new(&model);
/// let g = Genome::from_genes(vec![2]);
/// runner.evaluate(&g);
/// runner.evaluate(&g); // cache hit: no new job
/// assert_eq!(runner.stats().jobs, 1);
/// assert_eq!(runner.stats().cache_hits, 1);
/// # Ok(()) }
/// ```
pub struct SynthJobRunner<'m> {
    model: &'m dyn CostModel,
    /// `None` for a runner built [without a memo](SynthJobRunner::without_memo).
    memo: Option<Memo>,
    counters: Counters,
    observer: &'m dyn SearchObserver,
}

/// Job counters, shared by runners with and without a memo.
///
/// Every lookup charges exactly one of `jobs`, `infeasible` and
/// `cache_hits`, so for any interleaving of concurrent lookups their sum
/// is the number of lookups, and with a memo `jobs + infeasible` is the
/// number of memoized points. `contentions` counts lost insert races, a
/// subcount of `cache_hits`.
#[derive(Default)]
struct Counters {
    jobs: AtomicU64,
    infeasible: AtomicU64,
    cache_hits: AtomicU64,
    tool_secs: AtomicU64,
    contentions: AtomicU64,
    /// Every genome a memo-less runner charged so far: the at-most-once
    /// contract's check.
    #[cfg(debug_assertions)]
    charged: Mutex<std::collections::HashSet<Genome>>,
}

/// Locks the memo. It is never held while a cost model runs.
fn lock(memo: &Memo) -> MutexGuard<'_, HashMap<Genome, Option<MetricSet>>> {
    memo.lock().expect("synthesis memo lock poisoned")
}

impl<'m> SynthJobRunner<'m> {
    /// Creates a memoizing runner with an empty cache.
    #[must_use]
    pub fn new(model: &'m dyn CostModel) -> Self {
        SynthJobRunner {
            model,
            memo: Some(Memo::default()),
            counters: Counters::default(),
            observer: nautilus_obs::noop(),
        }
    }

    /// Creates a runner that keeps no memo: every lookup runs the model and
    /// is charged as a new job (or infeasible probe), with the same
    /// counters and `EvalCompleted { cached: false, .. }` events a memo
    /// miss produces.
    ///
    /// The caller must present each genome at most once, as a GA engine
    /// whose own cache answers every repeat does; a repeat would be
    /// charged twice. Debug builds check this and panic on a second
    /// charge of the same genome.
    #[must_use]
    pub fn without_memo(model: &'m dyn CostModel) -> Self {
        SynthJobRunner {
            model,
            memo: None,
            counters: Counters::default(),
            observer: nautilus_obs::noop(),
        }
    }

    /// Routes one [`SearchEvent::EvalCompleted`] per lookup to `observer`
    /// (plus a [`SearchEvent::CacheShardContended`] on lost insert races).
    #[must_use]
    pub fn with_observer(mut self, observer: &'m dyn SearchObserver) -> Self {
        self.observer = observer;
        self
    }

    /// The underlying cost model.
    #[must_use]
    pub fn model(&self) -> &'m dyn CostModel {
        self.model
    }

    /// Charges `genome` as a new job (or infeasible probe) and reports it
    /// as a memo miss.
    fn charge(&self, genome: &Genome, result: &Option<MetricSet>) {
        let c = &self.counters;
        let tool_secs = match result {
            Some(_) => {
                let secs = self.model.synth_time(genome).as_secs();
                c.jobs.fetch_add(1, Ordering::Relaxed);
                c.tool_secs.fetch_add(secs, Ordering::Relaxed);
                secs
            }
            None => {
                c.infeasible.fetch_add(1, Ordering::Relaxed);
                0
            }
        };
        self.emit(false, result.is_some(), tool_secs);
    }

    /// Charges a memo-less lookup as a new job.
    fn charge_unmemoized(&self, genome: &Genome, result: &Option<MetricSet>) {
        #[cfg(debug_assertions)]
        assert!(
            self.counters.charged.lock().expect("charged-genome set lock").insert(genome.clone()),
            "memo-less runner charged {genome} twice: its caller must present each genome at \
             most once"
        );
        self.charge(genome, result);
    }

    /// Charges a lookup served from the memo and reports it.
    fn hit(&self, cached: &Option<MetricSet>) {
        self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.emit(true, cached.is_some(), 0);
    }

    /// Memoizes the freshly evaluated `result` of a miss on `genome` and
    /// charges it as a new job — unless another thread inserted `genome`
    /// while this one was evaluating. Then this thread lost the race: its
    /// result is dropped, the lookup is charged as a cache hit plus one
    /// contention, and the winner's result is returned.
    fn insert_or_lose(
        &self,
        memo: &Memo,
        genome: &Genome,
        result: Option<MetricSet>,
    ) -> Option<MetricSet> {
        let winner = match lock(memo).entry(genome.clone()) {
            Entry::Occupied(winner) => Some(winner.get().clone()),
            Entry::Vacant(slot) => {
                slot.insert(result.clone());
                None
            }
        };
        let Some(winner) = winner else {
            self.charge(genome, &result);
            return result;
        };
        self.counters.contentions.fetch_add(1, Ordering::Relaxed);
        if self.observer.enabled() {
            self.observer.on_event(&SearchEvent::CacheShardContended);
        }
        self.hit(&winner);
        winner
    }

    /// Evaluates `genome`, synthesizing on a cache miss (on every call for
    /// a memo-less runner).
    ///
    /// Returns `None` for infeasible design points.
    pub fn evaluate(&self, genome: &Genome) -> Option<MetricSet> {
        let Some(memo) = &self.memo else {
            let result = self.model.evaluate(genome);
            self.charge_unmemoized(genome, &result);
            return result;
        };
        let cached = lock(memo).get(genome).cloned();
        if let Some(cached) = cached {
            self.hit(&cached);
            return cached;
        }
        let result = self.model.evaluate(genome);
        self.insert_or_lose(memo, genome, result)
    }

    /// Emits one `EvalCompleted` event when the observer is enabled.
    fn emit(&self, cached: bool, feasible: bool, tool_secs: u64) {
        if self.observer.enabled() {
            self.observer.on_event(&SearchEvent::EvalCompleted { cached, feasible, tool_secs });
        }
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> JobStats {
        let c = &self.counters;
        JobStats {
            jobs: c.jobs.load(Ordering::Relaxed),
            infeasible: c.infeasible.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            simulated_tool_secs: c.tool_secs.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct feasible jobs run so far (the paper's
    /// "# designs evaluated").
    #[must_use]
    pub fn distinct_jobs(&self) -> u64 {
        self.stats().jobs
    }

    /// Number of memoized entries (feasible and infeasible); zero without
    /// a memo.
    #[cfg(test)]
    #[must_use]
    pub fn cached_points(&self) -> usize {
        self.memo.as_ref().map_or(0, |memo| lock(memo).len())
    }

    /// Insert races lost: lookups that missed, evaluated, and then found
    /// the point already inserted by another thread. Zero without a memo.
    #[must_use]
    pub fn contentions(&self) -> u64 {
        self.counters.contentions.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SynthJobRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthJobRunner")
            .field("model", &self.model.name())
            .field("memoized", &self.memo.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricCatalog;
    use crate::model::testing::BowlModel;
    use nautilus_ga::ParamSpace;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn distinct_jobs_counted_once() {
        let model = BowlModel::new(0.0).unwrap();
        let runner = SynthJobRunner::new(&model);
        let g = Genome::from_genes(vec![2, 3]);
        for _ in 0..5 {
            assert!(runner.evaluate(&g).is_some());
        }
        let s = runner.stats();
        assert_eq!(s.jobs, 1);
        assert_eq!(s.cache_hits, 4);
        assert_eq!(runner.cached_points(), 1);
    }

    #[test]
    fn infeasible_points_tracked_separately_and_cost_no_tool_time() {
        let model = BowlModel::new(0.0).unwrap();
        let runner = SynthJobRunner::new(&model);
        let bad = Genome::from_genes(vec![7, 0]);
        assert!(runner.evaluate(&bad).is_none());
        assert!(runner.evaluate(&bad).is_none());
        let s = runner.stats();
        assert_eq!(s.jobs, 0);
        assert_eq!(s.infeasible, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.simulated_tool_secs, 0);
    }

    #[test]
    fn simulated_tool_time_accumulates() {
        let model = BowlModel::new(0.0).unwrap();
        let runner = SynthJobRunner::new(&model);
        for x in 0..5u32 {
            runner.evaluate(&Genome::from_genes(vec![x, x]));
        }
        let s = runner.stats();
        assert_eq!(s.jobs, 5);
        // Each job simulates 5-45 minutes of tool time.
        assert!(s.simulated_tool_time() >= Duration::from_secs(5 * 5 * 60));
        assert!(s.simulated_tool_time() <= Duration::from_secs(5 * 45 * 60));
    }

    #[test]
    fn total_lookups_and_hit_rate_reconcile() {
        let empty = JobStats::default();
        assert_eq!(empty.total_lookups(), 0);
        assert_eq!(empty.hit_rate(), 0.0, "zero lookups must not divide by zero");

        let model = BowlModel::new(0.0).unwrap();
        let runner = SynthJobRunner::new(&model);
        let good = Genome::from_genes(vec![2, 3]);
        let bad = Genome::from_genes(vec![7, 0]);
        runner.evaluate(&good);
        runner.evaluate(&good);
        runner.evaluate(&good);
        runner.evaluate(&bad);
        let s = runner.stats();
        assert_eq!(s.total_lookups(), 4);
        assert_eq!(s.jobs + s.infeasible + s.cache_hits, s.total_lookups());
        assert!((s.hit_rate() - 0.5).abs() < 1e-12, "2 hits of 4 lookups: {}", s.hit_rate());
    }

    #[test]
    fn observed_runner_emits_one_event_per_lookup() {
        let model = BowlModel::new(0.0).unwrap();
        let sink = nautilus_obs::InMemorySink::new();
        let runner = SynthJobRunner::new(&model).with_observer(&sink);
        let good = Genome::from_genes(vec![1, 1]);
        let bad = Genome::from_genes(vec![7, 0]);
        runner.evaluate(&good); // miss, feasible
        runner.evaluate(&good); // hit
        runner.evaluate(&bad); // miss, infeasible
        let events = sink.events();
        assert_eq!(events.len(), 3);
        match &events[0] {
            SearchEvent::EvalCompleted { cached, feasible, tool_secs } => {
                assert!(!cached && *feasible);
                assert!(*tool_secs >= 5 * 60, "feasible misses charge tool time");
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(
            events[1],
            SearchEvent::EvalCompleted { cached: true, feasible: true, tool_secs: 0 }
        );
        assert_eq!(
            events[2],
            SearchEvent::EvalCompleted { cached: false, feasible: false, tool_secs: 0 }
        );
        // Event tallies reconcile with the runner's own counters.
        let s = runner.stats();
        assert_eq!(events.len() as u64, s.total_lookups());
    }

    #[test]
    fn concurrent_evaluation_counts_each_point_once() {
        let model = BowlModel::new(0.05).unwrap();
        let runner = SynthJobRunner::new(&model);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let runner = &runner;
                scope.spawn(move || {
                    for i in 0..100u32 {
                        // All threads hammer the same 20 points.
                        let g = Genome::from_genes(vec![(i + t) % 5, i % 4]);
                        runner.evaluate(&g);
                    }
                });
            }
        });
        let s = runner.stats();
        // 5 x values x 4 y values = 20 distinct points.
        assert_eq!(s.jobs, 20);
        assert_eq!(
            u64::from(runner.cached_points() as u32),
            20,
            "cache holds exactly the distinct points"
        );
        assert_eq!(s.cache_hits, 8 * 100 - 20);
    }

    /// A [`CostModel`] that counts every real evaluation it performs.
    struct CountingModel {
        space: ParamSpace,
        catalog: MetricCatalog,
        evals: AtomicU64,
    }

    impl CountingModel {
        fn new() -> CountingModel {
            CountingModel {
                space: ParamSpace::builder().int("x", 0, 4, 1).int("y", 0, 3, 1).build().unwrap(),
                catalog: MetricCatalog::new([("cost", "")]).unwrap(),
                evals: AtomicU64::new(0),
            }
        }
    }

    impl CostModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }

        fn space(&self) -> &ParamSpace {
            &self.space
        }

        fn catalog(&self) -> &MetricCatalog {
            &self.catalog
        }

        fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
            self.evals.fetch_add(1, Ordering::Relaxed);
            // One infeasible stripe so both result kinds race.
            if g.gene_at(0) == 3 {
                return None;
            }
            let cost = f64::from(g.gene_at(0)) + 10.0 * f64::from(g.gene_at(1));
            Some(self.catalog.set(vec![cost]).unwrap())
        }
    }

    /// N real threads hammering the same 20 points: the memo must run
    /// exactly one synthesis job per distinct point, and the stats must
    /// reconcile exactly with the lookups issued.
    #[test]
    fn memo_hammer_runs_one_job_per_distinct_point() {
        const THREADS: u32 = 8;
        const ITERS: u32 = 100;
        let model = CountingModel::new();
        let runner = SynthJobRunner::new(&model);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let runner = &runner;
                scope.spawn(move || {
                    for i in 0..ITERS {
                        // Every thread walks the full 5x4 grid, offset by
                        // its id so first touches interleave across points.
                        let g = Genome::from_genes(vec![(i + t) % 5, i % 4]);
                        runner.evaluate(&g);
                    }
                });
            }
        });
        let s = runner.stats();
        // 5 x values x 4 y values = 20 distinct points; x == 3 stripe
        // (4 points) is infeasible.
        assert_eq!(s.jobs, 16, "one job per distinct feasible point");
        assert_eq!(s.infeasible, 4, "one probe per distinct infeasible point");
        assert_eq!(runner.cached_points(), 20);
        // The model ran once per distinct point, plus once per lost insert
        // race (the loser evaluated before discovering the winner's entry).
        let contentions = runner.contentions();
        assert_eq!(
            model.evals.load(Ordering::Relaxed),
            20 + contentions,
            "model invocations reconcile with jobs + lost races"
        );
        // Every one of the 800 lookups is accounted exactly once.
        assert_eq!(s.total_lookups(), u64::from(THREADS * ITERS));
        assert_eq!(s.cache_hits, u64::from(THREADS * ITERS) - 20);
        // Infeasible jobs charge no tool time; feasible ones charge some.
        assert!(s.simulated_tool_secs > 0);
    }

    #[test]
    fn memo_less_runner_accounts_like_memo_misses() {
        let model = BowlModel::new(0.03).unwrap();
        // Distinct points only, one of them infeasible: every memo lookup
        // is a miss, which is all a memo-less runner may ever see.
        let rows: Vec<[u32; 2]> = vec![[1, 2], [7, 0], [3, 11], [5, 5], [2, 2]];

        let memo_sink = nautilus_obs::InMemorySink::new();
        let memo = SynthJobRunner::new(&model).with_observer(&memo_sink);
        let memo_out: Vec<Option<MetricSet>> =
            rows.iter().map(|r| memo.evaluate(&Genome::from_genes(r.to_vec()))).collect();

        let sink = nautilus_obs::InMemorySink::new();
        let runner = SynthJobRunner::without_memo(&model).with_observer(&sink);
        let out: Vec<Option<MetricSet>> =
            rows.iter().map(|r| runner.evaluate(&Genome::from_genes(r.to_vec()))).collect();

        assert_eq!(out, memo_out, "results must match the memo path");
        assert_eq!(runner.stats(), memo.stats(), "counters must match the memo path");
        assert_eq!(sink.events(), memo_sink.events(), "events must match the memo path");
        assert_eq!(runner.cached_points(), 0);
        assert_eq!(memo.stats().jobs, 4);
        assert_eq!(memo.stats().infeasible, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "charged [2,3] twice")]
    fn memo_less_runner_rejects_a_second_charge_in_debug_builds() {
        let model = BowlModel::new(0.0).unwrap();
        let runner = SynthJobRunner::without_memo(&model);
        let g = Genome::from_genes(vec![2, 3]);
        runner.evaluate(&g);
        runner.evaluate(&g);
    }

    /// A [`CostModel`] whose `evaluate` returns only once two callers are
    /// inside it, so two threads that miss on the same point always both
    /// evaluate it.
    struct RendezvousModel {
        inner: CountingModel,
        barrier: Barrier,
    }

    impl CostModel for RendezvousModel {
        fn name(&self) -> &str {
            "rendezvous"
        }

        fn space(&self) -> &ParamSpace {
            self.inner.space()
        }

        fn catalog(&self) -> &MetricCatalog {
            self.inner.catalog()
        }

        fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
            self.barrier.wait();
            self.inner.evaluate(g)
        }
    }

    #[test]
    fn contended_inserts_surface_as_events_and_counters() {
        let model = RendezvousModel { inner: CountingModel::new(), barrier: Barrier::new(2) };
        let sink = nautilus_obs::InMemorySink::new();
        let runner = SynthJobRunner::new(&model).with_observer(&sink);
        let g = Genome::from_genes(vec![1, 2]);
        // Both lookups miss: neither thread can insert before the other
        // has entered the model. The second insert loses the race.
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| runner.evaluate(&g));
            let b = scope.spawn(|| runner.evaluate(&g));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "the loser returns the winner's result");
        assert!(a.is_some());
        assert_eq!(model.inner.evals.load(Ordering::Relaxed), 2, "both threads ran the model");
        let s = runner.stats();
        assert_eq!((s.jobs, s.infeasible, s.cache_hits), (1, 0, 1));
        assert_eq!(runner.contentions(), 1);
        assert_eq!(runner.cached_points(), 1);
        let contended = |events: &[SearchEvent]| {
            events.iter().filter(|e| matches!(e, SearchEvent::CacheShardContended)).count()
        };
        let events = sink.events();
        assert_eq!(events.len(), 3, "one miss, one hit, one contention: {events:?}");
        assert_eq!(contended(&events), 1);

        // A serial re-lookup is a plain hit, never a contention.
        assert_eq!(runner.evaluate(&g), a);
        assert_eq!(runner.stats().cache_hits, 2);
        assert_eq!(runner.contentions(), 1);
        assert_eq!(contended(&sink.events()), 1);
    }
}
