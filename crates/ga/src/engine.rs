//! The generational GA engine.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nautilus_obs::{capture_events, Phase, SearchEvent, SearchObserver, SpanRecorder, Tracer};

use crate::arena::PopArena;
use crate::budget::{RunBudget, StopReason};
use crate::cache::{CacheStats, EvalCache};
use crate::checkpoint::{CheckpointStore, SearchState, WriteBehind};
use crate::error::{GaError, Result};
use crate::fallible::{
    evaluate_with_retries, EvalRecord, FallibleEvaluator, FaultStats, RetryPolicy,
};
use crate::fitness::FitnessFn;
use crate::genome::Genome;
use crate::ops::{CrossoverOp, MutationOp, OnePointCrossover, OpCtx, UniformMutation};
use crate::pool::EvalPool;
use crate::rng::{RowBuildHasher, SearchRng};
use crate::select::{ScoredGenome, Selector, Tournament};
use crate::space::ParamSpace;
use crate::supervise::{Admission, AttemptOutcome, SuperviseSession, SuperviseStats, Supervisor};

/// Checkpoint aux-blob key carrying the supervision session (circuit
/// breaker state plus whole-run health counters) across a resume.
pub const AUX_BREAKER: &str = "ga.breaker";

/// The most entries a run reserves up front, for its history and for its
/// evaluation cache alike. Both are sized from `generations`, which a
/// daemon client chooses: past this bound they grow on demand instead.
const RESERVE_LIMIT: usize = 4096;

/// Callback producing auxiliary blobs to embed in every checkpoint (the
/// `nautilus` crate uses it to carry its report snapshot and synthesis-job
/// counters across a resume).
pub type AuxSnapshotFn<'a> = &'a (dyn Fn() -> Vec<(String, Vec<u8>)> + Send + Sync);

/// Scalar knobs of a GA run.
///
/// Defaults reproduce the paper's methodology: "an initial population of 10
/// samples, a mutation rate of 0.1 ... and run for 80 generations".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaSettings {
    /// Population size (paper: 10).
    pub population: usize,
    /// Number of breeding generations (paper: 80).
    pub generations: u32,
    /// Probability that a selected pair recombines (vs. cloning).
    pub crossover_rate: f64,
    /// Number of best individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// Attempts per slot when sampling a feasible initial population.
    pub init_retries: usize,
    /// Worker threads for evaluating cache misses.
    ///
    /// `1` (the default) evaluates every miss inline on the search
    /// thread, as the scoring loop meets it. `0` derives the count from
    /// [`std::thread::available_parallelism`]. Any other value
    /// prefetches each generation's distinct cache misses, and each
    /// initial-population round's, over that many workers: the search
    /// thread plus `workers - 1` persistent pool helpers that stay
    /// parked between batches. Every setting produces bit-for-bit
    /// identical runs per seed: the RNG is never touched during
    /// evaluation, and the scoring loop takes prefetched results into
    /// the cache in first-occurrence order, exactly where it would
    /// have evaluated them.
    pub eval_workers: usize,
}

impl Default for GaSettings {
    fn default() -> Self {
        GaSettings {
            population: 10,
            generations: 80,
            crossover_rate: 0.9,
            elitism: 2,
            init_retries: 200,
            eval_workers: 1,
        }
    }
}

impl GaSettings {
    fn validate(&self) -> Result<()> {
        if self.population == 0 {
            return Err(GaError::InvalidConfig("population must be at least 1".into()));
        }
        if self.elitism >= self.population {
            return Err(GaError::InvalidConfig(format!(
                "elitism {} must be smaller than population {}",
                self.elitism, self.population
            )));
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) {
            return Err(GaError::InvalidConfig(format!(
                "crossover_rate {} outside [0, 1]",
                self.crossover_rate
            )));
        }
        if self.init_retries == 0 {
            return Err(GaError::InvalidConfig("init_retries must be at least 1".into()));
        }
        Ok(())
    }
}

/// Per-generation statistics recorded by [`GaEngine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct GenStats {
    /// Generation number; 0 is the initial random population.
    pub generation: u32,
    /// Cumulative distinct feasible evaluations (synthesis jobs) so far.
    pub distinct_evals: u64,
    /// Best raw metric value among feasible members of this generation
    /// (NaN if the generation has no feasible member).
    pub best_value: f64,
    /// Mean raw metric value over feasible members (NaN if none).
    pub mean_value: f64,
    /// Best raw metric value seen in any generation up to this one.
    pub best_so_far: f64,
}

/// Result of one GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaRun {
    /// Per-generation history (`generations + 1` entries; entry 0 is the
    /// initial population).
    pub history: Vec<GenStats>,
    /// The best genome found across the whole run.
    pub best_genome: Genome,
    /// Its raw metric value.
    pub best_value: f64,
    /// Evaluation-cache counters for the run.
    pub cache: CacheStats,
    /// Failure/retry/quarantine counters (all zero unless a fallible
    /// evaluator was installed and faults actually occurred).
    pub faults: FaultStats,
    /// Supervision health counters (all zero unless a [`Supervisor`] was
    /// installed): watchdog firings, hedge outcomes, breaker transitions
    /// and shed evaluations.
    pub health: SuperviseStats,
    /// Why the run stopped: [`StopReason::Completed`] for a full run, any
    /// other value when a [`RunBudget`] halted it at a generation boundary
    /// (in which case `history` covers only the generations scored so far).
    pub stop: StopReason,
}

impl GaRun {
    /// Cumulative distinct evaluations at the end of the run.
    #[must_use]
    pub fn total_evals(&self) -> u64 {
        self.cache.distinct_evals
    }

    /// First generation whose `best_so_far` meets `pred`, with its
    /// cumulative evaluation count.
    pub fn first_generation_where(&self, mut pred: impl FnMut(f64) -> bool) -> Option<(u32, u64)> {
        self.history
            .iter()
            .find(|g| g.best_so_far.is_finite() && pred(g.best_so_far))
            .map(|g| (g.generation, g.distinct_evals))
    }
}

/// A generational genetic algorithm over a [`ParamSpace`].
///
/// The engine is deliberately oblivious (the paper's "baseline GA"): genes
/// mutate uniformly and nothing biases value choice. Guided behaviour comes
/// from swapping the operators — see the `nautilus` crate.
///
/// ```
/// use nautilus_ga::{GaEngine, FnFitness, Direction, ParamSpace};
/// # fn main() -> Result<(), nautilus_ga::GaError> {
/// let space = ParamSpace::builder().int("x", 0, 31, 1).int("y", 0, 31, 1).build()?;
/// // Minimize x^2 + y^2: optimum at (0, 0).
/// let fitness = FnFitness::new(Direction::Minimize, |g: &nautilus_ga::Genome| {
///     let (x, y) = (f64::from(g.gene_at(0)), f64::from(g.gene_at(1)));
///     Some(x * x + y * y)
/// });
/// let run = GaEngine::new(&space, &fitness).run(42)?;
/// assert!(run.best_value <= 2.0);
/// # Ok(()) }
/// ```
pub struct GaEngine<'a> {
    space: &'a ParamSpace,
    fitness: &'a dyn FitnessFn,
    settings: GaSettings,
    mutation: Box<dyn MutationOp>,
    crossover: Box<dyn CrossoverOp>,
    selector: Box<dyn Selector>,
    observer: &'a dyn SearchObserver,
    run_label: String,
    fallible: Option<&'a dyn FallibleEvaluator>,
    retry: RetryPolicy,
    budget: RunBudget,
    checkpoints: Option<CheckpointStore>,
    aux: Option<AuxSnapshotFn<'a>>,
    supervisor: Option<&'a Supervisor<'a>>,
    tracer: Option<&'a Tracer>,
}

impl<'a> GaEngine<'a> {
    /// Creates an engine with the paper's baseline defaults.
    #[must_use]
    pub fn new(space: &'a ParamSpace, fitness: &'a dyn FitnessFn) -> Self {
        GaEngine {
            space,
            fitness,
            settings: GaSettings::default(),
            mutation: Box::new(UniformMutation::default()),
            crossover: Box::new(OnePointCrossover),
            selector: Box::new(Tournament::default()),
            observer: nautilus_obs::noop(),
            run_label: "ga".to_owned(),
            fallible: None,
            retry: RetryPolicy::default(),
            budget: RunBudget::new(),
            checkpoints: None,
            aux: None,
            supervisor: None,
            tracer: None,
        }
    }

    /// Attaches a [`Tracer`]: the run records phase spans (scoring,
    /// breeding operators, cache lookups, miss evaluations, batch
    /// dispatch/merge, checkpoint I/O) onto per-thread tracks.
    ///
    /// Tracing is determinism-safe by construction — recorders never touch
    /// the RNG or the event stream, and workers buffer spans locally until
    /// the generation merge point — so a traced run is bit-for-bit
    /// identical to an untraced one.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &'a Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Replaces the scalar settings.
    #[must_use]
    pub fn with_settings(mut self, settings: GaSettings) -> Self {
        self.settings = settings;
        self
    }

    /// Replaces the mutation operator (how Nautilus installs guidance).
    #[must_use]
    pub fn with_mutation(mut self, op: Box<dyn MutationOp>) -> Self {
        self.mutation = op;
        self
    }

    /// Replaces the crossover operator.
    #[must_use]
    pub fn with_crossover(mut self, op: Box<dyn CrossoverOp>) -> Self {
        self.crossover = op;
        self
    }

    /// Replaces the parent selector.
    #[must_use]
    pub fn with_selector(mut self, sel: Box<dyn Selector>) -> Self {
        self.selector = sel;
        self
    }

    /// Routes run telemetry ([`SearchEvent`]s) to `observer`.
    ///
    /// The default is the disabled no-op observer, whose cost is one
    /// predictable branch per emission site.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a dyn SearchObserver) -> Self {
        self.observer = observer;
        self
    }

    /// Sets the strategy label reported in [`SearchEvent::RunStart`]
    /// (default `"ga"`).
    #[must_use]
    pub fn with_run_label(mut self, label: impl Into<String>) -> Self {
        self.run_label = label.into();
        self
    }

    /// Routes every evaluation through a fallible boundary instead of the
    /// plain [`FitnessFn`].
    ///
    /// Failed attempts are retried per the [`RetryPolicy`]; a genome whose
    /// retries are exhausted (or whose failure is not retryable) is
    /// *quarantined* — memoized with penalized (infeasible) fitness so the
    /// generation proceeds without it and it is never evaluated again.
    /// The installed [`FitnessFn`] still supplies the optimization
    /// direction; it is no longer called for values.
    #[must_use]
    pub fn with_fallible_evaluator(mut self, eval: &'a dyn FallibleEvaluator) -> Self {
        self.fallible = Some(eval);
        self
    }

    /// Replaces the retry policy used with a fallible evaluator.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Installs a [`Supervisor`]: every generation's misses are
    /// prefetched under supervision (watchdog deadlines, straggler
    /// hedging, circuit breaker) at every `eval_workers` setting, and the
    /// breaker state rides every checkpoint under the [`AUX_BREAKER`] aux
    /// key.
    ///
    /// The initial population stays unsupervised — supervision is a
    /// property of the generational loop. It is scored through the
    /// fallible evaluator (if one is installed) or the plain fitness
    /// function, inline at one worker and prefetched at two or more.
    #[must_use]
    pub fn with_supervisor(mut self, supervisor: &'a Supervisor<'a>) -> Self {
        self.supervisor = Some(supervisor);
        self
    }

    /// Installs a [`RunBudget`]: the run is checked at every generation
    /// boundary and halts (cleanly, with a final checkpoint when a store
    /// is configured) as soon as any limit is exceeded. The reason lands
    /// in [`GaRun::stop`].
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Writes a durable checkpoint into `store` at every generation
    /// boundary, so the run can be resumed after a crash or budget stop
    /// with [`GaEngine::resume`].
    ///
    /// Writes run behind the search on one writer thread per run, one
    /// at a time: each boundary's fsyncs overlap the next generation's
    /// evaluations. The engine waits for the write at the next boundary,
    /// before acting on a budget stop, and before the run returns, so a
    /// failed write still ends the run with [`GaError::Checkpoint`], at
    /// most one generation later.
    #[must_use]
    pub fn with_checkpoints(mut self, store: CheckpointStore) -> Self {
        self.checkpoints = Some(store);
        self
    }

    /// Installs a callback whose blobs are embedded (keyed) in every
    /// checkpoint, letting higher layers persist their own state alongside
    /// the engine's. Blobs come back verbatim via
    /// [`SearchState::aux_blob`] after recovery.
    #[must_use]
    pub fn with_checkpoint_aux(mut self, aux: AuxSnapshotFn<'a>) -> Self {
        self.aux = Some(aux);
        self
    }

    /// The engine's scalar settings.
    #[must_use]
    pub fn settings(&self) -> &GaSettings {
        &self.settings
    }

    /// The parameter space being searched.
    #[must_use]
    pub fn space(&self) -> &ParamSpace {
        self.space
    }

    /// Executes one full run with the given seed.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::InvalidConfig`] for inconsistent settings and
    /// [`GaError::NoFeasibleGenome`] if the initial population cannot find
    /// any feasible design point within the retry budget.
    pub fn run(&self, seed: u64) -> Result<GaRun> {
        self.drive(seed, None)
    }

    /// Continues a run from a checkpointed [`SearchState`].
    ///
    /// The resumed run produces the same [`GaRun`] (history, best genome,
    /// cache counters) as the uninterrupted run would have, at any
    /// `eval_workers` setting: the state carries the exact RNG stream
    /// position and evaluation cache of the original process.
    ///
    /// # Errors
    ///
    /// Returns [`GaError::Checkpoint`] when the engine's settings are
    /// incompatible with the checkpointed ones (`eval_workers` is exempt —
    /// worker count never affects results), plus everything
    /// [`GaEngine::run`] can return.
    pub fn resume(&self, state: SearchState) -> Result<GaRun> {
        let theirs = state.settings;
        let ours = self.settings;
        let compatible = ours.population == theirs.population
            && ours.generations == theirs.generations
            && ours.crossover_rate == theirs.crossover_rate
            && ours.elitism == theirs.elitism
            && ours.init_retries == theirs.init_retries;
        if !compatible {
            return Err(GaError::Checkpoint(format!(
                "engine settings {ours:?} incompatible with checkpointed {theirs:?}"
            )));
        }
        if state.generation == 0 || state.generation > self.settings.generations {
            return Err(GaError::Checkpoint(format!(
                "checkpoint generation {} outside run's 1..={}",
                state.generation, self.settings.generations
            )));
        }
        if state.population.len() != self.settings.population {
            return Err(GaError::Checkpoint(format!(
                "checkpoint population {} does not match settings {}",
                state.population.len(),
                self.settings.population
            )));
        }
        let seed = state.seed;
        self.drive(seed, Some(state))
    }

    /// Shared run loop behind [`GaEngine::run`] (fresh start) and
    /// [`GaEngine::resume`] (continue from a checkpointed boundary).
    fn drive(&self, seed: u64, resume: Option<SearchState>) -> Result<GaRun> {
        self.settings.validate()?;
        self.retry.validate().map_err(GaError::InvalidConfig)?;
        let mut session: Option<SuperviseSession> = match self.supervisor {
            Some(sup) => {
                sup.policy().validate().map_err(GaError::InvalidConfig)?;
                Some(SuperviseSession::new(*sup.policy()))
            }
            None => None,
        };
        let direction = self.fitness.direction();
        let obs = self.observer;
        let run_clock = std::time::Instant::now();
        let timer = self.budget.start_timer();
        let workers = resolve_eval_workers(self.settings.eval_workers);
        // Persistent helper pool for the whole run: the merge thread is
        // worker slot 0 and `workers - 1` parked helpers fill slots
        // `1..workers`, so per-generation dispatch no longer pays thread
        // spawn/join. `workers == 1` keeps the pool threadless and free.
        let pool = EvalPool::new(workers.saturating_sub(1));
        // Merge-thread span recorder; the root `Run` span makes per-phase
        // self times telescope to the run's wall clock.
        let mut rec = self.tracer.map(|t| t.recorder("merge"));
        let run_span = rec.as_ref().map(SpanRecorder::begin);
        // Write-behind checkpoints: each boundary's record is committed
        // on this writer while the next generation evaluates. Dropping it
        // waits for the last write, so it never outlives `drive`.
        let mut writer = self.checkpoints.as_ref().map(WriteBehind::spawn).transpose()?;
        // Run-scoped scoring buffer: each initial-population round is
        // drawn into its first slots, each generation copied into all.
        let mut scored: Vec<ScoredGenome> = (0..self.settings.population)
            .map(|_| ScoredGenome {
                genome: Genome::from_genes(Vec::with_capacity(self.space.num_params())),
                score: f64::NEG_INFINITY,
            })
            .collect();

        let mut rng;
        let mut cache;
        let mut faults;
        let mut population: PopArena;
        let mut history: Vec<GenStats>;
        let mut best_genome: Option<Genome>;
        let mut best_value;
        let mut attempts;
        let start_generation;
        // Best value already pinned to `best.nckpt`; avoids rewriting the
        // pin at boundaries where the best did not improve.
        let mut pinned_best: Option<f64>;

        if let Some(state) = resume {
            // Restore supervision state (breaker + health counters) from
            // the aux blob before the state's fields are moved out.
            if let Some(sup) = self.supervisor {
                if let Some(bytes) = state.aux_blob(AUX_BREAKER) {
                    session =
                        Some(SuperviseSession::restore_bytes(*sup.policy(), bytes).map_err(
                            |e| GaError::Checkpoint(format!("supervision snapshot: {e}")),
                        )?);
                }
            }
            rng = SearchRng::from_state(state.rng);
            cache = EvalCache::restore(&state.cache);
            faults = state.faults;
            population = PopArena::from_genomes(&state.population);
            history = state.history;
            best_genome = state.best_genome;
            best_value =
                if best_genome.is_some() { state.best_value } else { direction.worst_value() };
            attempts = state.init_attempts;
            start_generation = state.generation;
            pinned_best = best_genome.is_some().then_some(best_value);
            if obs.enabled() {
                obs.on_event(&SearchEvent::RunResumed {
                    strategy: self.run_label.clone(),
                    seed,
                    generation: start_generation,
                });
            }
        } else {
            // Scored generations, the initial population's included.
            let scorings = (self.settings.generations as usize).saturating_add(1);
            rng = SearchRng::seed_from_u64(seed);
            let rows = scorings.saturating_mul(self.settings.population);
            cache = EvalCache::with_capacity(rows.min(RESERVE_LIMIT));
            faults = FaultStats::default();
            best_genome = None;
            best_value = direction.worst_value();
            start_generation = 0;
            pinned_best = None;
            if obs.enabled() {
                obs.on_event(&SearchEvent::RunStart {
                    strategy: self.run_label.clone(),
                    seed,
                    params: self
                        .space
                        .param_ids()
                        .map(|id| self.space.param(id).name().to_owned())
                        .collect(),
                    population: self.settings.population,
                    generations: self.settings.generations,
                });
            }

            // --- Initial population ---------------------------------------
            let mut init_pop: Vec<Genome> = Vec::with_capacity(self.settings.population);
            let max_attempts = self.settings.population * self.settings.init_retries;
            attempts = 0;
            let init_start = rec.as_ref().map(SpanRecorder::begin);
            while init_pop.len() < self.settings.population {
                if attempts >= max_attempts {
                    if init_pop.is_empty() {
                        return Err(GaError::NoFeasibleGenome { attempts });
                    }
                    fill_partial(&mut init_pop, self.settings.population);
                    break;
                }
                // A round of the draws a one-at-a-time loop would make: a
                // draw adds at most one feasible genome, so that loop
                // would keep drawing through the whole round, and scoring
                // never touches the RNG. The round is unsupervised.
                let round_len =
                    (self.settings.population - init_pop.len()).min(max_attempts - attempts);
                attempts += round_len;
                let round = &mut scored[..round_len];
                for member in round.iter_mut() {
                    member.genome = self.space.random_genome(&mut rng);
                }
                self.score(
                    round,
                    None,
                    &mut cache,
                    &mut faults,
                    None,
                    &pool,
                    &mut rec,
                    |m, raw| {
                        init_pop.extend(raw.map(|_| m.genome.clone()));
                    },
                );
            }
            if let (Some(r), Some(start)) = (rec.as_mut(), init_start) {
                r.end(Phase::InitPopulation, start);
            }
            population = PopArena::from_genomes(&init_pop);
            history = Vec::with_capacity(scorings.min(RESERVE_LIMIT));
        }

        // --- Generational loop --------------------------------------------
        let mut stop = StopReason::Completed;
        // The two children are overwritten in place every generation.
        let scratch = || Genome::from_genes(Vec::with_capacity(population.gene_len()));
        let (mut ca, mut cb) = (scratch(), scratch());

        for generation in start_generation..=self.settings.generations {
            if obs.enabled() {
                obs.on_event(&SearchEvent::GenerationStart { generation });
            }
            // Score the population (cache makes revisits free).
            let scoring_start = rec.as_ref().map(SpanRecorder::begin);
            for (member, row) in scored.iter_mut().zip(population.rows()) {
                member.genome.copy_from_slice(row);
            }
            self.score(
                &mut scored,
                Some(generation),
                &mut cache,
                &mut faults,
                session.as_mut(),
                &pool,
                &mut rec,
                |member, raw| {
                    member.score = raw.map_or(f64::NEG_INFINITY, |v| direction.to_score(v))
                },
            );
            // Best-first, deterministic tie-break on the genome itself.
            scored.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.genome.cmp(&b.genome))
            });
            if let (Some(r), Some(start)) = (rec.as_mut(), scoring_start) {
                r.end(Phase::Scoring, start);
            }

            let feasible = || {
                scored.iter().filter(|s| s.score.is_finite()).map(|s| direction.from_score(s.score))
            };
            let gen_best = feasible().next().unwrap_or(f64::NAN);
            let gen_mean = match feasible().count() {
                0 => f64::NAN,
                count => feasible().sum::<f64>() / count as f64,
            };
            if let Some(first) = scored.first() {
                if first.score.is_finite() {
                    let raw = direction.from_score(first.score);
                    if best_genome.is_none() || direction.is_better(raw, best_value) {
                        best_value = raw;
                        best_genome = Some(first.genome.clone());
                    }
                }
            }
            history.push(GenStats {
                generation,
                distinct_evals: cache.distinct_evals(),
                best_value: gen_best,
                mean_value: gen_mean,
                best_so_far: if best_genome.is_some() { best_value } else { f64::NAN },
            });
            if obs.enabled() {
                obs.on_event(&SearchEvent::GenerationEnd {
                    generation,
                    best: gen_best,
                    mean: gen_mean,
                    best_so_far: if best_genome.is_some() { best_value } else { f64::NAN },
                    distinct_evals: cache.distinct_evals(),
                    cache_hits: cache.hits(),
                    infeasible: cache.infeasible_evals(),
                });
            }

            if generation == self.settings.generations {
                break;
            }

            // Breed the next generation.
            let ctx = OpCtx::with_observer(generation, self.settings.generations, obs);
            // Children are written into the arena's next-generation buffer
            // and promoted by one allocation-free swap at the end.
            for s in scored.iter().take(self.settings.elitism) {
                population.push_next(s.genome.genes());
            }
            while population.next_len() < self.settings.population {
                let ia =
                    timed(&mut rec, Phase::Selection, || self.selector.select(&scored, &mut rng));
                let ib =
                    timed(&mut rec, Phase::Selection, || self.selector.select(&scored, &mut rng));
                ca.copy_from_slice(scored[ia].genome.genes());
                cb.copy_from_slice(scored[ib].genome.genes());
                if obs.enabled() {
                    let kind = self.selector.name().to_owned();
                    obs.on_event(&SearchEvent::SelectionInvoked { generation, kind: kind.clone() });
                    obs.on_event(&SearchEvent::SelectionInvoked { generation, kind });
                }
                if rng.chance(self.settings.crossover_rate) {
                    if obs.enabled() {
                        obs.on_event(&SearchEvent::CrossoverApplied {
                            generation,
                            kind: self.crossover.name().to_owned(),
                        });
                    }
                    timed(&mut rec, Phase::Crossover, || {
                        self.crossover.crossover(&mut ca, &mut cb, self.space, &ctx, &mut rng);
                    });
                }
                timed(&mut rec, Phase::Mutation, || {
                    self.mutation.mutate(&mut ca, self.space, &ctx, &mut rng);
                });
                population.push_next(ca.genes());
                if population.next_len() < self.settings.population {
                    timed(&mut rec, Phase::Mutation, || {
                        self.mutation.mutate(&mut cb, self.space, &ctx, &mut rng);
                    });
                    population.push_next(cb.genes());
                }
            }
            population.swap();

            // --- Generation boundary: checkpoint, then budget check -------
            let next_generation = generation + 1;
            if let Some(writer) = writer.as_mut() {
                let improved = best_genome.is_some()
                    && pinned_best.is_none_or(|pinned| direction.is_better(best_value, pinned));
                let mut aux = self.aux.map_or_else(Vec::new, |f| f());
                if let Some(session) = &session {
                    aux.push((AUX_BREAKER.to_owned(), session.snapshot_bytes()));
                }
                let state = SearchState {
                    seed,
                    run_label: self.run_label.clone(),
                    settings: self.settings,
                    generation: next_generation,
                    rng: rng.state(),
                    population: population.to_genomes(),
                    history: history.clone(),
                    best_genome: best_genome.clone(),
                    best_value,
                    init_attempts: attempts,
                    cache: cache.snapshot(),
                    faults,
                    aux,
                };
                // Waits for the previous boundary's write, then encodes
                // and reserves this one's write points here, so the
                // durable index sequence and the event below keep their
                // synchronous order; the I/O runs on the writer.
                let receipt =
                    timed(&mut rec, Phase::CheckpointIo, || writer.submit(&state, improved))?;
                if improved {
                    pinned_best = Some(best_value);
                }
                if obs.enabled() {
                    obs.on_event(&SearchEvent::CheckpointWritten {
                        generation: next_generation,
                        bytes: receipt.bytes,
                        write_nanos: receipt.write_nanos,
                        path: receipt.path.display().to_string(),
                    });
                }
            }
            // Generation boundary is the deterministic flush point for the
            // merge thread's span buffer.
            if let Some(r) = rec.as_mut() {
                r.flush();
            }
            let reason =
                self.budget.stop_reason(next_generation, cache.distinct_evals(), timer.elapsed());
            if reason.is_interrupted() {
                stop = reason;
                break;
            }
        }

        // The last boundary's write lands before the run reports a stop
        // or returns its result.
        if let Some(writer) = writer.as_mut() {
            timed(&mut rec, Phase::CheckpointIo, || writer.wait())?;
        }
        let best_genome = best_genome.ok_or(GaError::NoFeasibleGenome { attempts })?;
        if obs.enabled() {
            if stop.is_interrupted() {
                obs.on_event(&SearchEvent::RunInterrupted {
                    generation: history.last().map_or(0, |h| h.generation + 1),
                    reason: stop.as_str().to_owned(),
                });
            } else {
                obs.on_event(&SearchEvent::RunEnd {
                    best_value,
                    distinct_evals: cache.distinct_evals(),
                    wall_nanos: u64::try_from(run_clock.elapsed().as_nanos()).unwrap_or(u64::MAX),
                });
            }
        }
        if let (Some(r), Some(start)) = (rec.as_mut(), run_span) {
            r.end(Phase::Run, start);
            r.flush();
        }
        Ok(GaRun {
            history,
            best_genome,
            best_value,
            cache: cache.stats(),
            faults,
            health: session.as_ref().map_or_else(SuperviseStats::default, SuperviseSession::stats),
            stop,
        })
    }

    /// The one scoring loop, for every initial-population round
    /// (`generation` is `None`) and every generation, at every worker
    /// count, supervised or not: each member gets one cache lookup, then
    /// `on_scored` with its raw value.
    ///
    /// A miss takes the next entry [`GaEngine::prefetch`] made for the
    /// batch, or is evaluated inline when there is none, and enters the
    /// cache at once, so a later repeat in the same population is an
    /// ordinary hit. Counters, lanes and events therefore come out the
    /// same whether a miss was prefetched or not. Prefetching runs at two
    /// or more workers and under supervision (`session`), whose watchdog,
    /// hedging and breaker need the batch up front.
    #[allow(clippy::too_many_arguments)]
    fn score(
        &self,
        members: &mut [ScoredGenome],
        generation: Option<u32>,
        cache: &mut EvalCache,
        faults: &mut FaultStats,
        mut session: Option<&mut SuperviseSession>,
        pool: &EvalPool,
        rec: &mut Option<SpanRecorder<'_>>,
        mut on_scored: impl FnMut(&mut ScoredGenome, Option<f64>),
    ) {
        let mut prefetched = if pool.helpers() > 0 || session.is_some() {
            self.prefetch(members, generation, cache, session.as_deref_mut(), pool, rec)
        } else {
            Vec::new()
        }
        .into_iter();
        for member in members.iter_mut() {
            let genes = member.genome.genes();
            let raw = match timed(rec, Phase::CacheLookup, || cache.lookup(genes)) {
                Some(raw) => raw,
                None => self.score_miss(
                    &member.genome,
                    prefetched.next(),
                    cache,
                    faults,
                    session.as_deref_mut(),
                    rec,
                ),
            };
            on_scored(member, raw);
        }
    }

    /// Scores one cache miss from its prefetched entry, or inline at lane
    /// `cache.len()` (the run's evaluation ordinal: this miss is the
    /// cache's next entry), and memoizes the result.
    fn score_miss(
        &self,
        genome: &Genome,
        prefetched: Option<Prefetched>,
        cache: &mut EvalCache,
        faults: &mut FaultStats,
        session: Option<&mut SuperviseSession>,
        rec: &mut Option<SpanRecorder<'_>>,
    ) -> Option<f64> {
        let genes = genome.genes();
        let record = match (prefetched, self.fallible) {
            (Some(Prefetched::Done(record, events)), _) => timed(rec, Phase::BatchMerge, || {
                for e in &events {
                    self.observer.on_event(e);
                }
                record
            }),
            (Some(Prefetched::Precomputed(outcomes, probe)), _) => {
                let sup = self.supervisor.expect("only supervised batches precompute");
                let session = session.expect("only supervised batches precompute");
                timed(rec, Phase::BatchMerge, || {
                    session.resolve(
                        sup.evaluator(),
                        &self.retry,
                        genome,
                        &outcomes,
                        probe,
                        self.observer,
                    )
                })
            }
            // A plain fitness value goes straight into the cache.
            (None, None) => {
                let value = timed(rec, Phase::MissEval, || self.fitness.fitness(genome));
                cache.insert_evaluated(genes, value);
                return value;
            }
            (None, Some(eval)) => {
                let lane = Some(cache.len() as u64);
                timed(rec, Phase::MissEval, || {
                    evaluate_with_retries(eval, genome, &self.retry, lane)
                })
            }
        };
        self.note_record(&record, faults);
        match record.value {
            Some(value) => {
                cache.insert_evaluated(genes, value);
                value
            }
            None => {
                cache.insert_quarantined(genes);
                None
            }
        }
    }

    /// Folds one finished evaluation record into the fault counters and
    /// the event stream. Clean records are free.
    ///
    /// The scoring loop calls it in first-occurrence miss order whether
    /// the miss was prefetched or evaluated inline, so observed streams
    /// stay bit-identical at any worker count.
    fn note_record(&self, record: &EvalRecord, faults: &mut FaultStats) {
        if record.failures.is_empty() {
            return;
        }
        faults.record(record);
        let obs = self.observer;
        if !obs.enabled() {
            return;
        }
        for (i, failure) in record.failures.iter().enumerate() {
            obs.on_event(&SearchEvent::EvalAttemptFailed {
                kind: failure.kind(),
                attempt: i as u32 + 1,
                retryable: failure.is_retryable(),
            });
        }
        for (i, nanos) in record.backoffs_nanos.iter().enumerate() {
            obs.on_event(&SearchEvent::EvalRetried {
                attempt: i as u32 + 1,
                backoff_nanos: *nanos,
            });
        }
        match record.value {
            Some(_) => obs.on_event(&SearchEvent::EvalRecovered {
                failed_attempts: record.failures.len() as u32,
            }),
            None => obs.on_event(&SearchEvent::GenomeQuarantined {
                attempts: record.failures.len() as u32,
                kind: record.failures.last().expect("failures checked non-empty").kind(),
            }),
        }
    }

    /// Evaluates a batch's distinct cache misses on the persistent
    /// [`EvalPool`] ahead of the scoring loop, and returns one entry per
    /// distinct miss in first-occurrence order, the order the loop meets
    /// them.
    ///
    /// 1. Under supervision, breaker admission is frozen in that order
    ///    before anything runs. A shed miss gets an empty quarantined
    ///    record (degraded cache-only mode costs no retry budget), and a
    ///    trip while the loop resolves affects the next batch, never
    ///    this one. A generation's batch then emits its
    ///    [`SearchEvent::EvalBatch`]; an initial-population round emits
    ///    none.
    /// 2. Workers pull miss indices from one atomic cursor and take one
    ///    step per miss: the plain fitness function, the fallible
    ///    evaluator's retry loop at lane `cache.len() + i` (the lane the
    ///    inline path gives miss `i`), or the supervisor's attempt
    ///    precomputation. The RNG is never touched, and telemetry a step
    ///    emits is captured per miss instead of racing into the shared
    ///    observer.
    /// 3. A finished record carries its captured events, which the loop
    ///    replays right before the record. A supervised miss's events
    ///    are all replayed here instead, before the loop's first resolve
    ///    (hedges and post-hedge retries run inline in the loop).
    fn prefetch(
        &self,
        members: &[ScoredGenome],
        generation: Option<u32>,
        cache: &EvalCache,
        mut session: Option<&mut SuperviseSession>,
        pool: &EvalPool,
        rec: &mut Option<SpanRecorder<'_>>,
    ) -> Vec<Prefetched> {
        let obs = self.observer;
        let mut seen: HashSet<&[u32], RowBuildHasher> = HashSet::default();
        let mut misses: Vec<(&Genome, Admission)> = Vec::new();
        timed(rec, Phase::CacheLookup, || {
            for member in members {
                let genes = member.genome.genes();
                if cache.peek(genes).is_none() && seen.insert(genes) {
                    misses.push((&member.genome, Admission::Evaluate));
                }
            }
        });
        if let Some(session) = session.as_deref_mut() {
            session.begin_batch();
            for (_, admission) in &mut misses {
                *admission = session.admit(obs);
            }
        }
        let size = misses.iter().filter(|&&(_, admission)| admission != Admission::Shed).count();
        let workers = pool.helpers() + 1;
        if let (Some(generation), true) = (generation, obs.enabled()) {
            obs.on_event(&SearchEvent::EvalBatch {
                generation,
                size,
                workers: workers.min(size.max(1)),
            });
        }
        let n = misses.len();
        if n == 0 {
            return Vec::new();
        }
        let supervisor = self.supervisor.filter(|_| session.is_some());
        let fitness = self.fitness;
        let fallible = self.fallible;
        let retry = self.retry;
        let tracer = self.tracer;
        let capture = obs.enabled();
        let first_lane = cache.len() as u64;
        let misses = &misses;
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, Prefetched, Vec<SearchEvent>)>> = Mutex::new(Vec::new());
        // Every worker (the merge thread runs slot 0 itself) drains miss
        // indices off the cursor into a local buffer.
        let job = |slot: usize| {
            let mut wrec = tracer.map(|t| t.recorder(&format!("worker-{slot}")));
            let mut local = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (genome, admission) = misses[i];
                let step = || match (supervisor, fallible) {
                    (Some(sup), _) => Prefetched::Precomputed(
                        sup.precompute(&retry, genome),
                        admission == Admission::Probe,
                    ),
                    (None, Some(eval)) => {
                        let lane = Some(first_lane + i as u64);
                        let record = evaluate_with_retries(eval, genome, &retry, lane);
                        Prefetched::Done(record, Vec::new())
                    }
                    (None, None) => {
                        Prefetched::Done(EvalRecord::evaluated(fitness.fitness(genome)), Vec::new())
                    }
                };
                let (entry, events) = if admission == Admission::Shed {
                    // Quarantined without evaluation: an empty record.
                    let shed = EvalRecord { value: None, ..EvalRecord::evaluated(None) };
                    (Prefetched::Done(shed, Vec::new()), Vec::new())
                } else {
                    timed(&mut wrec, Phase::MissEval, || {
                        if capture {
                            capture_events(step)
                        } else {
                            (step(), Vec::new())
                        }
                    })
                };
                local.push((i, entry, events));
            }
            if !local.is_empty() {
                results.lock().expect("batch results lock").extend(local);
            }
        };
        // Dispatch is the O(1) publish alone. The wake is billed to
        // `batch_wait` along with the drain: on a single-core host
        // `notify_all` preempts this thread in favor of the woken
        // helpers, so the wake call blocks for helper compute time.
        let ticket =
            timed(rec, Phase::BatchDispatch, || pool.publish(&job, workers.min(size.max(1)) - 1));
        timed(rec, Phase::BatchWait, || ticket.wake());
        job(0);
        timed(rec, Phase::BatchWait, || ticket.wait());
        let mut results = results.into_inner().expect("batch results lock");
        timed(rec, Phase::BatchMerge, || {
            results.sort_unstable_by_key(|r| r.0);
            results
                .into_iter()
                .map(|(_, mut entry, events)| {
                    match &mut entry {
                        Prefetched::Done(_, own) => *own = events,
                        Prefetched::Precomputed(..) => {
                            for e in &events {
                                obs.on_event(e);
                            }
                        }
                    }
                    entry
                })
                .collect()
        })
    }
}

/// One distinct cache miss as [`GaEngine::prefetch`] hands it to the
/// scoring loop.
enum Prefetched {
    /// A finished evaluation (a plain fitness value, a retry loop's
    /// record, or an empty quarantined record for a shed miss) and the
    /// events it emitted, replayed right before the record.
    Done(EvalRecord, Vec<SearchEvent>),
    /// A supervised miss's attempt outcomes, flagged when breaker
    /// admission made it a probe; the loop resolves them.
    Precomputed(Vec<AttemptOutcome>, bool),
}

/// Fills an initial population that ended short of `population` by
/// cycling through the feasible genomes it found, in the order found.
fn fill_partial(init_pop: &mut Vec<Genome>, population: usize) {
    let found = init_pop.len();
    for k in found..population {
        init_pop.push(init_pop[k % found].clone());
    }
}

/// Runs `f` inside a `phase` span when a recorder is attached; with
/// tracing off the cost is one branch on a `None`.
fn timed<R>(rec: &mut Option<SpanRecorder<'_>>, phase: Phase, f: impl FnOnce() -> R) -> R {
    match rec.as_mut() {
        Some(r) => r.time(phase, f),
        None => f(),
    }
}

/// Maps the [`GaSettings::eval_workers`] setting to a concrete worker
/// count (`0` → available parallelism, minimum 1).
fn resolve_eval_workers(setting: usize) -> usize {
    if setting == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        setting
    }
}

impl std::fmt::Debug for GaEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaEngine")
            .field("settings", &self.settings)
            .field("mutation", &self.mutation.name())
            .field("crossover", &self.crossover.name())
            .field("selector", &self.selector.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::{Direction, FnFitness};

    fn space() -> ParamSpace {
        ParamSpace::builder()
            .int("x", 0, 31, 1)
            .int("y", 0, 31, 1)
            .int("z", 0, 31, 1)
            .build()
            .unwrap()
    }

    fn sphere() -> FnFitness<impl Fn(&Genome) -> Option<f64> + Send + Sync> {
        FnFitness::new(Direction::Minimize, |g: &Genome| {
            Some(g.genes().iter().map(|&v| f64::from(v) * f64::from(v)).sum())
        })
    }

    /// Drops `EvalBatch` markers and zeroes the run's wall time, which
    /// legitimately differs between runs; everything else must be
    /// byte-identical.
    fn normalize(events: Vec<SearchEvent>) -> Vec<SearchEvent> {
        events
            .into_iter()
            .filter(|e| !matches!(e, SearchEvent::EvalBatch { .. }))
            .map(|e| match e {
                SearchEvent::RunEnd { best_value, distinct_evals, .. } => {
                    SearchEvent::RunEnd { best_value, distinct_evals, wall_nanos: 0 }
                }
                other => other,
            })
            .collect()
    }

    #[test]
    fn converges_on_separable_minimization() {
        let s = space();
        let f = sphere();
        let run = GaEngine::new(&s, &f).run(1).unwrap();
        assert!(run.best_value <= 10.0, "GA failed to converge: {}", run.best_value);
        assert_eq!(run.history.len(), 81);
        assert_eq!(run.history[0].generation, 0);
        assert_eq!(run.history[80].generation, 80);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let s = space();
        let f = sphere();
        let e = GaEngine::new(&s, &f);
        let a = e.run(7).unwrap();
        let b = e.run(7).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.best_genome, b.best_genome);
        let c = e.run(8).unwrap();
        assert_ne!(a.history, c.history, "different seeds should differ");
    }

    #[test]
    fn best_so_far_is_monotone_and_matches_result() {
        let s = space();
        let f = sphere();
        let run = GaEngine::new(&s, &f).run(3).unwrap();
        for w in run.history.windows(2) {
            assert!(w[1].best_so_far <= w[0].best_so_far, "best_so_far worsened: {w:?}");
        }
        assert_eq!(run.history.last().unwrap().best_so_far, run.best_value);
    }

    #[test]
    fn distinct_evals_are_monotone_and_bounded() {
        let s = space();
        let f = sphere();
        let run = GaEngine::new(&s, &f).run(4).unwrap();
        for w in run.history.windows(2) {
            assert!(w[1].distinct_evals >= w[0].distinct_evals);
        }
        // At most pop + pop * generations evaluations (usually far fewer
        // because the cache absorbs revisits).
        assert!(run.total_evals() <= 10 + 10 * 80);
        assert!(run.total_evals() >= 10);
    }

    #[test]
    fn infeasible_regions_are_avoided() {
        let s = space();
        // Half the space (x < 16) is infeasible.
        let f = FnFitness::new(Direction::Minimize, |g: &Genome| {
            if g.gene_at(0) < 16 {
                None
            } else {
                Some(f64::from(g.gene_at(0)) + f64::from(g.gene_at(1)))
            }
        });
        let run = GaEngine::new(&s, &f).run(5).unwrap();
        assert!(run.best_genome.gene_at(0) >= 16);
        assert!(run.best_value >= 16.0);
        assert!(run.cache.infeasible_evals > 0, "should have probed infeasible region");
    }

    #[test]
    fn fully_infeasible_space_errors() {
        let s = space();
        let f = FnFitness::new(Direction::Minimize, |_: &Genome| None);
        let err = GaEngine::new(&s, &f).run(6).unwrap_err();
        assert!(matches!(err, GaError::NoFeasibleGenome { .. }));
    }

    #[test]
    fn invalid_settings_are_rejected() {
        let s = space();
        let f = sphere();
        let bad_pop = GaSettings { population: 0, ..GaSettings::default() };
        assert!(matches!(
            GaEngine::new(&s, &f).with_settings(bad_pop).run(0).unwrap_err(),
            GaError::InvalidConfig(_)
        ));
        let bad_elite = GaSettings { population: 4, elitism: 4, ..GaSettings::default() };
        assert!(matches!(
            GaEngine::new(&s, &f).with_settings(bad_elite).run(0).unwrap_err(),
            GaError::InvalidConfig(_)
        ));
        let bad_rate = GaSettings { crossover_rate: 1.5, ..GaSettings::default() };
        assert!(matches!(
            GaEngine::new(&s, &f).with_settings(bad_rate).run(0).unwrap_err(),
            GaError::InvalidConfig(_)
        ));
    }

    #[test]
    fn maximization_works_too() {
        let s = space();
        let f = FnFitness::new(Direction::Maximize, |g: &Genome| {
            Some(g.genes().iter().map(|&v| f64::from(v)).sum())
        });
        let run = GaEngine::new(&s, &f).run(9).unwrap();
        assert!(run.best_value >= 85.0, "maximization too weak: {}", run.best_value);
    }

    #[test]
    fn elitism_preserves_the_best_member() {
        let s = space();
        let f = sphere();
        let run = GaEngine::new(&s, &f).run(10).unwrap();
        // With elitism, per-generation best must never regress once found.
        for w in run.history.windows(2) {
            assert!(
                w[1].best_value <= w[0].best_value + 1e-9,
                "elite lost: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn first_generation_where_finds_threshold_crossing() {
        let s = space();
        let f = sphere();
        let run = GaEngine::new(&s, &f).run(11).unwrap();
        let hit = run.first_generation_where(|v| v <= 50.0);
        assert!(hit.is_some());
        let (generation, evals) = hit.unwrap();
        assert!(evals >= 10);
        assert!(u64::from(generation) <= 80);
        assert!(run.first_generation_where(|v| v < -1.0).is_none());
    }

    #[test]
    fn observed_run_emits_a_consistent_event_stream() {
        use nautilus_obs::SearchEvent as E;
        let s = space();
        let f = sphere();
        let sink = nautilus_obs::InMemorySink::new();
        let settings = GaSettings { generations: 10, ..GaSettings::default() };
        let run = GaEngine::new(&s, &f)
            .with_settings(settings)
            .with_observer(&sink)
            .with_run_label("baseline")
            .run(7)
            .unwrap();
        // Telemetry must not perturb the search itself.
        let unobserved = GaEngine::new(&s, &f).with_settings(settings).run(7).unwrap();
        assert_eq!(run.history, unobserved.history);

        let events = sink.events();
        assert!(
            matches!(&events[0], E::RunStart { strategy, params, .. }
                if strategy == "baseline" && params.len() == 3),
            "first event should be run_start: {:?}",
            events[0]
        );
        assert!(matches!(events.last().unwrap(), E::RunEnd { .. }));
        let starts = events.iter().filter(|e| matches!(e, E::GenerationStart { .. })).count();
        let ends = events.iter().filter(|e| matches!(e, E::GenerationEnd { .. })).count();
        assert_eq!(starts, 11, "one generation_start per scored generation");
        assert_eq!(ends, 11);
        // Cumulative counters in the last generation_end match the result.
        let final_evals = events
            .iter()
            .rev()
            .find_map(|e| match e {
                E::GenerationEnd { distinct_evals, .. } => Some(*distinct_evals),
                _ => None,
            })
            .unwrap();
        assert_eq!(final_evals, run.total_evals());
        // Mutation telemetry references real parameter indices.
        let mut mutations = 0;
        for e in &events {
            if let E::MutationHintApplied { param, .. } = e {
                assert!((*param as usize) < s.num_params());
                mutations += 1;
            }
        }
        assert!(mutations > 0, "a 10-generation run should mutate something");
        assert!(events.iter().any(|e| matches!(e, E::SelectionInvoked { .. })));
        assert!(events.iter().any(|e| matches!(e, E::CrossoverApplied { .. })));
    }

    #[test]
    fn batched_evaluation_matches_serial_at_any_worker_count() {
        let s = space();
        let f = sphere();
        let serial = GaEngine::new(&s, &f).run(21).unwrap();
        for workers in [0, 2, 8] {
            let settings = GaSettings { eval_workers: workers, ..GaSettings::default() };
            let run = GaEngine::new(&s, &f).with_settings(settings).run(21).unwrap();
            assert_eq!(run.history, serial.history, "history diverged at workers={workers}");
            assert_eq!(run.best_genome, serial.best_genome);
            assert_eq!(run.best_value, serial.best_value);
            assert_eq!(run.cache, serial.cache, "cache counters diverged at workers={workers}");
        }
    }

    #[test]
    fn batched_evaluation_handles_infeasible_points_identically() {
        let s = space();
        let f = FnFitness::new(Direction::Minimize, |g: &Genome| {
            if g.gene_at(0).is_multiple_of(3) {
                None
            } else {
                Some(g.genes().iter().map(|&v| f64::from(v)).sum())
            }
        });
        let serial = GaEngine::new(&s, &f).run(33).unwrap();
        let settings = GaSettings { eval_workers: 8, ..GaSettings::default() };
        let parallel = GaEngine::new(&s, &f).with_settings(settings).run(33).unwrap();
        assert_eq!(serial.history, parallel.history);
        assert_eq!(serial.cache, parallel.cache);
        assert!(serial.cache.infeasible_evals > 0);
    }

    #[test]
    fn batched_runs_emit_batch_events_without_perturbing_results() {
        use nautilus_obs::SearchEvent as E;
        let s = space();
        let f = sphere();
        let settings = GaSettings { generations: 10, eval_workers: 4, ..GaSettings::default() };
        let sink = nautilus_obs::InMemorySink::new();
        let observed =
            GaEngine::new(&s, &f).with_settings(settings).with_observer(&sink).run(9).unwrap();
        let unobserved = GaEngine::new(&s, &f).with_settings(settings).run(9).unwrap();
        assert_eq!(observed.history, unobserved.history, "telemetry must not perturb the run");

        let events = sink.events();
        let batches: Vec<(u32, usize, usize)> = events
            .iter()
            .filter_map(|e| match e {
                E::EvalBatch { generation, size, workers } => Some((*generation, *size, *workers)),
                _ => None,
            })
            .collect();
        assert_eq!(batches.len(), 11, "one batch event per scored generation");
        // Generation 0 re-scores the cached initial population: empty batch.
        assert_eq!(batches[0].1, 0);
        assert!(batches.iter().all(|&(_, _, w)| (1..=4).contains(&w)));
        let batched_total: usize = batches.iter().map(|&(_, size, _)| size).sum();
        let fresh_after_init = observed.cache.distinct_evals + observed.cache.infeasible_evals;
        assert!(
            (batched_total as u64) <= fresh_after_init,
            "batches can only cover post-init misses"
        );
    }

    #[test]
    fn tracing_does_not_perturb_results_and_records_phases() {
        let s = space();
        let f = sphere();
        let baseline = GaEngine::new(&s, &f).run(17).unwrap();
        for workers in [1, 4] {
            let settings = GaSettings { eval_workers: workers, ..GaSettings::default() };
            let tracer = Tracer::new();
            let run =
                GaEngine::new(&s, &f).with_settings(settings).with_tracer(&tracer).run(17).unwrap();
            assert_eq!(run.history, baseline.history, "tracing changed results at {workers}");
            assert_eq!(run.best_genome, baseline.best_genome);
            assert_eq!(run.cache, baseline.cache);
            let stats = tracer.phase_stats();
            for phase in [
                Phase::Run,
                Phase::InitPopulation,
                Phase::Scoring,
                Phase::Selection,
                Phase::Crossover,
                Phase::Mutation,
                Phase::CacheLookup,
                Phase::MissEval,
            ] {
                assert!(stats.contains_key(&phase), "missing {phase:?} at workers={workers}");
            }
            assert_eq!(stats[&Phase::Run].count, 1);
            if workers > 1 {
                assert!(
                    tracer.tracks().iter().any(|t| t.starts_with("worker-")),
                    "batched runs should record worker tracks: {:?}",
                    tracer.tracks()
                );
                assert!(stats.contains_key(&Phase::BatchDispatch));
                assert!(stats.contains_key(&Phase::BatchMerge));
            }
            // Merge-track phases nest under the root span, so no phase can
            // outgrow the run's own wall clock.
            let run_total = stats[&Phase::Run].total_nanos;
            assert!(stats[&Phase::Scoring].total_nanos <= run_total);
        }
    }

    #[test]
    fn batched_worker_telemetry_replays_identically_to_serial() {
        use nautilus_obs::{BatchEventBuffer, InMemorySink, SearchEvent as E};

        // Runs a GA whose fitness function itself emits telemetry through
        // a capture-aware observer (the way `nautilus`'s synthesis runner
        // does), and returns the observed stream.
        fn run(workers: usize) -> (Vec<GenStats>, Vec<E>) {
            let s = ParamSpace::builder()
                .int("x", 0, 31, 1)
                .int("y", 0, 31, 1)
                .int("z", 0, 31, 1)
                .build()
                .unwrap();
            let sink = InMemorySink::new();
            let buffered = BatchEventBuffer::new(&sink);
            let f = FnFitness::new(Direction::Minimize, |g: &Genome| {
                buffered.on_event(&E::ParetoUpdated { size: g.gene_at(0) as usize });
                Some(g.genes().iter().map(|&v| f64::from(v) * f64::from(v)).sum())
            });
            let settings =
                GaSettings { generations: 8, eval_workers: workers, ..GaSettings::default() };
            let run =
                GaEngine::new(&s, &f).with_settings(settings).with_observer(&sink).run(13).unwrap();
            (run.history, sink.events())
        }

        let (serial_history, serial_events) = run(1);
        assert!(
            serial_events.iter().any(|e| matches!(e, E::ParetoUpdated { .. })),
            "fitness telemetry should reach the sink"
        );
        let serial_events = normalize(serial_events);
        for workers in [2, 8] {
            let (history, events) = run(workers);
            assert_eq!(history, serial_history, "results diverged at workers={workers}");
            // The batched stream is the serial stream plus its EvalBatch
            // markers: worker-side events are captured per miss and
            // replayed at the merge point in first-occurrence order.
            assert_eq!(
                normalize(events),
                serial_events,
                "event stream diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn traced_observed_runs_are_byte_identical_across_worker_counts() {
        use nautilus_obs::{InMemorySink, SearchEvent as E, Tracer};

        // The tentpole invariant: with tracing AND observation both on,
        // worker count changes wall-clock only — outcomes and the
        // normalized event stream are byte-identical at 1, 2 and 8
        // workers.
        fn run(workers: usize) -> (GaRun, Vec<E>) {
            let s = ParamSpace::builder()
                .int("x", 0, 31, 1)
                .int("y", 0, 31, 1)
                .int("z", 0, 31, 1)
                .build()
                .unwrap();
            let f = FnFitness::new(Direction::Minimize, |g: &Genome| {
                if g.gene_at(1) == 7 {
                    None // exercise the infeasible merge path too
                } else {
                    Some(g.genes().iter().map(|&v| f64::from(v) * f64::from(v)).sum())
                }
            });
            let sink = InMemorySink::new();
            let tracer = Tracer::new();
            let settings =
                GaSettings { generations: 12, eval_workers: workers, ..GaSettings::default() };
            let run = GaEngine::new(&s, &f)
                .with_settings(settings)
                .with_observer(&sink)
                .with_tracer(&tracer)
                .run(29)
                .unwrap();
            (run, sink.events())
        }

        let (base, base_events) = run(1);
        let base_events = normalize(base_events);
        for workers in [2, 8] {
            let (r, events) = run(workers);
            assert_eq!(r.history, base.history, "history diverged at workers={workers}");
            assert_eq!(r.best_genome, base.best_genome);
            assert_eq!(r.best_value, base.best_value);
            assert_eq!(r.cache, base.cache, "cache counters diverged at workers={workers}");
            assert_eq!(r.faults, base.faults);
            assert_eq!(
                normalize(events),
                base_events,
                "event stream diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn batched_init_rounds_replay_the_serial_init() {
        use crate::fallible::{EvalFailure, FnFallible};
        use nautilus_obs::{InMemorySink, SearchEvent as E};

        // One genome in 8 is feasible, so ten slots at two draws each
        // find only a few: the partial-fill branch runs, and on seed 1 the
        // attempt cap cuts the last round short. Some first attempts fail
        // transiently (and recover), some genomes are rejected
        // persistently (and quarantined).
        fn value(g: &Genome) -> Option<f64> {
            let sum: u32 = g.genes().iter().sum();
            sum.is_multiple_of(8).then(|| f64::from(sum))
        }
        fn run(workers: usize, feasible: bool) -> (Result<GaRun>, Vec<E>) {
            let s = space();
            let f = FnFitness::new(Direction::Minimize, value);
            let eval = FnFallible::new(|g: &Genome, attempt: u32| match g.stable_hash(0) % 8 {
                0 if attempt == 1 => Err(EvalFailure::Transient("flaky".into())),
                1 => Err(EvalFailure::Persistent("rejected".into())),
                _ => Ok(if feasible { value(g) } else { None }),
            });
            let sink = InMemorySink::new();
            let settings = GaSettings {
                generations: 6,
                init_retries: 2,
                eval_workers: workers,
                ..GaSettings::default()
            };
            let run = GaEngine::new(&s, &f)
                .with_settings(settings)
                .with_fallible_evaluator(&eval)
                .with_observer(&sink)
                .run(1);
            (run, sink.events())
        }
        let (serial, serial_events) = run(1, true);
        let serial = serial.unwrap();
        assert!(serial.history[0].distinct_evals < 10, "init must end in a partial fill");
        assert!(serial.faults.retries_recovered > 0 && serial.faults.quarantined > 0);
        for workers in [2, 8] {
            let (batched, events) = run(workers, true);
            assert_eq!(batched.unwrap(), serial, "run diverged at workers={workers}");
            assert_eq!(
                normalize(events.clone()),
                normalize(serial_events.clone()),
                "event stream diverged at workers={workers}"
            );
            // Init rounds emit no batch event: the first one belongs to
            // generation 0 and follows its start.
            let first_batch = events.iter().position(|e| matches!(e, E::EvalBatch { .. }));
            let gen0 =
                events.iter().position(|e| matches!(e, E::GenerationStart { generation: 0 }));
            assert!(first_batch > gen0, "an EvalBatch preceded generation 0 at workers={workers}");
            assert!(matches!(events[first_batch.unwrap()], E::EvalBatch { generation: 0, .. }));
        }

        for workers in [1, 2, 8] {
            let (err, _) = run(workers, false);
            assert_eq!(
                err.unwrap_err(),
                GaError::NoFeasibleGenome { attempts: 20 },
                "all-infeasible init at workers={workers}"
            );
        }
    }

    #[test]
    fn partial_init_cycles_through_the_genomes_found() {
        let a = Genome::from_genes(vec![1, 2, 3]);
        let b = Genome::from_genes(vec![4, 5, 6]);
        let mut init_pop = vec![a.clone(), b.clone()];
        fill_partial(&mut init_pop, 10);
        let expected: Vec<Genome> = (0..10).map(|k| [&a, &b][k % 2].clone()).collect();
        assert_eq!(init_pop, expected);
    }

    #[test]
    fn huge_generation_counts_reserve_nothing_up_front() {
        // `generations` is caller-chosen (a daemon client can submit
        // u32::MAX): the run must not reserve memory in proportion to it.
        let s = space();
        let f = sphere();
        let settings = GaSettings { generations: u32::MAX, ..GaSettings::default() };
        let run = GaEngine::new(&s, &f)
            .with_settings(settings)
            .with_budget(RunBudget::new().with_max_generations(1))
            .run(3)
            .unwrap();
        assert_eq!(run.stop, StopReason::GenerationBudget);
        assert_eq!(run.history.len(), 2, "generations 0 and 1 scored");
    }

    #[test]
    fn debug_output_names_operators() {
        let s = space();
        let f = sphere();
        let text = format!("{:?}", GaEngine::new(&s, &f));
        assert!(text.contains("uniform"));
        assert!(text.contains("one-point"));
        assert!(text.contains("tournament"));
    }
}
