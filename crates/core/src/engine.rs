//! The Nautilus search engine: baseline or hint-guided GA over a cost model.

use std::path::{Path, PathBuf};
use std::time::Duration;

use nautilus_ga::{
    CheckpointStore, Direction, DurableIo, FitnessFn, GaEngine, GaError, GaSettings, Genome,
    Journal, ParamSpace, RankRoulette, RetryPolicy, RunBudget, SupervisePolicy, Supervisor,
};
use nautilus_obs::{
    BatchEventBuffer, Fanout, ReportBuilder, RunReport, SearchObserver, Tracer, WireReader,
    WireWriter,
};
use nautilus_proc::{StashModel, SubprocessConfig, SubprocessEvaluator};
use nautilus_synth::{
    CostModel, FaultPlan, FaultyEvaluator, MetricCatalog, MetricSet, SynthJobRunner,
};

use crate::error::{NautilusError, Result};
use crate::guided::{GuidedCrossover, GuidedMutation};
use crate::hint::{Confidence, HintBook, HintSet};
use crate::query::Query;
use crate::trace::{SearchOutcome, TracePoint};

/// The paper's per-gene mutation rate, for both the baseline and the
/// guided mutation.
const MUTATION_RATE: f64 = 0.1;

/// Fitness adapter: query objective (with constraints) through a
/// synthesis-job runner.
struct QueryOverRunner<'r, 'm> {
    runner: &'r SynthJobRunner<'m>,
    query: &'r Query,
}

impl FitnessFn for QueryOverRunner<'_, '_> {
    fn direction(&self) -> Direction {
        self.query.direction()
    }

    fn fitness(&self, genome: &Genome) -> Option<f64> {
        let metrics = self.runner.evaluate(genome)?;
        self.query.objective(&metrics)
    }
}

/// The run's cost model with its replies journaled (see
/// [`nautilus_ga::checkpoint`]): a reply an earlier incarnation recorded
/// is answered from the journal, with no model call and no delay, and a
/// live one is recorded. It sits below the synthesis-job runner, so every
/// reply is still charged and reported there.
struct JournaledModel<'m> {
    inner: &'m dyn CostModel,
    journal: &'m Journal,
}

impl JournaledModel<'_> {
    fn encode(metrics: Option<&MetricSet>) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.bool(metrics.is_some());
        if let Some(metrics) = metrics {
            w.usize(metrics.len());
            for &v in metrics.values() {
                w.f64(v);
            }
        }
        w.into_bytes()
    }

    /// A journaled reply, or `None` when it does not decode into this
    /// model's catalog (the reply then goes to the model again).
    fn decode(&self, reply: &[u8]) -> Option<Option<MetricSet>> {
        let mut r = WireReader::new(reply);
        let metrics = if r.bool().ok()? {
            let n = r.len_prefix().ok()?;
            let values = (0..n).map(|_| r.f64().ok()).collect::<Option<Vec<f64>>>()?;
            Some(self.inner.catalog().set(values).ok()?)
        } else {
            None
        };
        r.finish().ok()?;
        Some(metrics)
    }
}

impl CostModel for JournaledModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn catalog(&self) -> &MetricCatalog {
        self.inner.catalog()
    }

    fn evaluate(&self, genome: &Genome) -> Option<MetricSet> {
        if let Some(replayed) = self.journal.reply(genome, 0).and_then(|r| self.decode(r)) {
            return replayed;
        }
        let live = self.inner.evaluate(genome);
        self.journal.record(genome, 0, Self::encode(live.as_ref()));
        live
    }

    fn synth_time(&self, genome: &Genome) -> Duration {
        self.inner.synth_time(genome)
    }
}

/// The Nautilus design-space-exploration engine over one IP generator.
///
/// Defaults follow the paper's methodology (population 10, mutation rate
/// 0.1, 80 generations). A run is *baseline* (oblivious GA) or *guided* by
/// an IP author [`HintSet`].
///
/// ```no_run
/// use nautilus::{Nautilus, Query, HintSet, Confidence};
/// use nautilus_synth::{CostModel, MetricExpr};
/// # fn demo(model: &dyn CostModel, hints: &HintSet) -> Result<(), nautilus::NautilusError> {
/// let fmax = MetricExpr::metric(model.catalog().require("fmax")?);
/// let query = Query::maximize("fmax", fmax);
///
/// let engine = Nautilus::new(model);
/// let baseline = engine.run_baseline(&query, 1)?;
/// let guided = engine.run_guided(&query, hints, Some(Confidence::STRONG), 1)?;
/// assert!(guided.total_evals() > 0 && baseline.total_evals() > 0);
/// # Ok(()) }
/// ```
pub struct Nautilus<'m> {
    model: &'m dyn CostModel,
    settings: GaSettings,
    guided_crossover: bool,
    observer: &'m dyn SearchObserver,
    retry: RetryPolicy,
    fault_plan: Option<FaultPlan>,
    subprocess: Option<SubprocessConfig>,
    supervision: Option<SupervisePolicy>,
    budget: RunBudget,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_io: DurableIo,
    tracer: Option<&'m Tracer>,
}

impl std::fmt::Debug for Nautilus<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nautilus")
            .field("model", &self.model.name())
            .field("settings", &self.settings)
            .field("guided_crossover", &self.guided_crossover)
            .field("observer_enabled", &self.observer.enabled())
            .field("retry", &self.retry)
            .field("fault_plan", &self.fault_plan)
            .field("subprocess", &self.subprocess)
            .field("supervision", &self.supervision)
            .field("budget", &self.budget)
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("checkpoint_io_instrumented", &self.checkpoint_io.is_instrumented())
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl<'m> Nautilus<'m> {
    /// Creates an engine over `model` with the paper's default settings.
    #[must_use]
    pub fn new(model: &'m dyn CostModel) -> Self {
        // The paper's PyEvolve baseline uses weak roulette selection with a
        // single elite; stronger selection would make the oblivious GA
        // unrealistically greedy and mask the value of guidance.
        let settings = GaSettings { elitism: 1, ..GaSettings::default() };
        Nautilus {
            model,
            settings,
            guided_crossover: false,
            observer: nautilus_obs::noop(),
            retry: RetryPolicy::default(),
            fault_plan: None,
            subprocess: None,
            supervision: None,
            budget: RunBudget::new(),
            checkpoint_dir: None,
            checkpoint_io: DurableIo::real(),
            tracer: None,
        }
    }

    /// Routes the telemetry of every subsequent run to `observer`: GA
    /// engine events, guided-operator hint events, and the synthesis-job
    /// runner's per-lookup events all arrive on the same stream.
    #[must_use]
    pub fn with_observer(mut self, observer: &'m dyn SearchObserver) -> Self {
        self.observer = observer;
        self
    }

    /// Also installs the importance-aware [`GuidedCrossover`] operator on
    /// guided runs (an extension beyond the paper's mutation-only
    /// guidance; see the ablation experiments).
    #[must_use]
    pub fn with_guided_crossover(mut self, enabled: bool) -> Self {
        self.guided_crossover = enabled;
        self
    }

    /// Replaces the GA scalar settings.
    #[must_use]
    pub fn with_settings(mut self, settings: GaSettings) -> Self {
        self.settings = settings;
        self
    }

    /// Sets the number of worker threads for per-generation batch
    /// evaluation (default 1 = serial; 0 = one per available core).
    ///
    /// Batched evaluation is an implementation detail: runs are
    /// bit-for-bit identical at every worker count.
    #[must_use]
    pub fn with_eval_workers(mut self, workers: usize) -> Self {
        self.settings.eval_workers = workers;
        self
    }

    /// Replaces the retry policy used when evaluations can fail (default:
    /// [`RetryPolicy::default`], three attempts with exponential backoff).
    ///
    /// The policy only takes effect on runs with a fallible evaluation
    /// path — today that means a fault plan installed with
    /// [`Nautilus::with_fault_plan`]; real flaky backends plug in the same
    /// way. An invalid policy is rejected when the run starts.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Injects deterministic evaluation faults per `plan` on every
    /// subsequent run (chaos testing; see `nautilus_synth::FaultPlan`).
    ///
    /// Failed attempts are retried per the engine's [`RetryPolicy`];
    /// genomes whose retries exhaust are quarantined with infinitely bad
    /// fitness and the search continues. Because the plan is keyed off
    /// genome content alone, runs stay bit-for-bit deterministic at every
    /// `eval_workers` setting.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Evaluates every design through an external tool process per
    /// `config` on subsequent runs (see [`nautilus_proc::SubprocessEvaluator`]):
    /// a pool of warm children speaking the `NAUTPROC` framing over
    /// stdin/stdout, with kill-on-timeout, respawn-with-backoff, and the
    /// engine's full retry/quarantine taxonomy mapped over the process
    /// boundary.
    ///
    /// Determinism is preserved: a clean run through a faithful tool
    /// produces the byte-identical outcome, `RunReport`, and logical
    /// event stream of the same search run in-process, at any
    /// [`Nautilus::with_eval_workers`] setting. Child crashes, hangs and
    /// garbage surface as [`EvalFailure`](nautilus_ga::EvalFailure)s
    /// exactly like a [`Nautilus::with_fault_plan`] run — and for that
    /// reason the two are mutually exclusive: combining them is rejected
    /// at run start (drive chaos from the tool side instead, e.g.
    /// `mock-synth --plan-seed`).
    #[must_use]
    pub fn with_subprocess_evaluator(mut self, config: SubprocessConfig) -> Self {
        self.subprocess = Some(config);
        self
    }

    /// Supervises every subsequent evaluation with a watchdog deadline,
    /// straggler hedging, and a circuit breaker per `policy` (see
    /// [`nautilus_ga::SupervisePolicy`]). The outcome's
    /// [`SearchOutcome::health`](crate::SearchOutcome) counters account for
    /// every intervention; the breaker runs in virtual time, so a resumed
    /// run rebuilds its health state on the way.
    ///
    /// Like [`Nautilus::with_retry_policy`], supervision takes effect on
    /// runs with a supervisable evaluation path — today that means a fault
    /// plan installed with [`Nautilus::with_fault_plan`] (whose injected
    /// hangs only a supervised run survives); real slow or hanging backends
    /// plug in the same way. An invalid policy is rejected at run start.
    #[must_use]
    pub fn with_supervision(mut self, policy: SupervisePolicy) -> Self {
        self.supervision = Some(policy);
        self
    }

    /// Caps every subsequent run with `budget` (generations, distinct
    /// evaluations, wall-clock deadline, cooperative cancel flag).
    ///
    /// A budgeted run stops cleanly at the next generation boundary: the
    /// outcome's trace covers only the generations actually scored and
    /// [`SearchOutcome::stop`](crate::SearchOutcome) records why. With
    /// checkpointing enabled the run's journal is durably on disk before
    /// the run returns, so running it again over the same directory (or
    /// [`Nautilus::resume_from`]) picks it up.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Journals the tool replies of subsequent runs into `dir`: the cost
    /// model's replies, or each round trip of a subprocess evaluator (see
    /// [`nautilus_ga::checkpoint`]).
    ///
    /// This makes runs crash-safe and every run a resume-or-start: after a
    /// `SIGKILL`, power loss, or budget stop, running the same search
    /// again over `dir` answers the journaled replies from it, with no
    /// tool call and no delay, rebuilds everything else, and produces
    /// bit-for-bit the outcome, report and event stream of an
    /// uninterrupted run. A journal of another search is refused.
    #[must_use]
    pub fn with_checkpoints(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Records per-phase span timelines of every subsequent run into
    /// `tracer` (see [`nautilus_obs::Tracer`]): GA phases on the merge
    /// thread and per-worker evaluation spans.
    ///
    /// Tracing is determinism-safe: span buffers flush only at generation
    /// boundaries and never touch the search RNG or event stream, so
    /// outcomes are bit-for-bit identical with tracing on or off.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &'m Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Routes journal writes through `io`, the deterministic
    /// fault-injection / census handle of [`nautilus_ga::durable`]. The
    /// default is the pass-through real-filesystem handle; a hostile-
    /// environment harness arms it with an [`nautilus_ga::IoFaultPlan`]
    /// to fail chosen write points and prove recovery stays byte-exact.
    #[must_use]
    pub fn with_checkpoint_io(mut self, io: DurableIo) -> Self {
        self.checkpoint_io = io;
        self
    }

    /// The cost model being searched.
    #[must_use]
    pub fn model(&self) -> &'m dyn CostModel {
        self.model
    }

    /// The engine's GA settings.
    #[must_use]
    pub fn settings(&self) -> &GaSettings {
        &self.settings
    }

    /// Runs the oblivious baseline GA (paper Section 2).
    ///
    /// # Errors
    ///
    /// Propagates GA configuration and feasibility errors.
    pub fn run_baseline(&self, query: &Query, seed: u64) -> Result<SearchOutcome> {
        self.run_inner(query, None, seed, "baseline")
    }

    /// Runs the guided GA with `hints` (paper Section 3).
    ///
    /// `confidence` overrides the hint set's own confidence — this is how
    /// the paper's "weakly guided" and "strongly guided" variants are
    /// produced from a single hint set (its footnote 2).
    ///
    /// # Errors
    ///
    /// Returns hint-validation errors and propagates GA errors.
    pub fn run_guided(
        &self,
        query: &Query,
        hints: &HintSet,
        confidence: Option<Confidence>,
        seed: u64,
    ) -> Result<SearchOutcome> {
        self.run_inner(query, Some((hints, confidence)), seed, guided_label(confidence))
    }

    /// [`Nautilus::run_baseline`], additionally aggregating the run's
    /// telemetry into a [`RunReport`].
    ///
    /// The report captures what the plain outcome cannot: per-generation
    /// mutation/hint dynamics, cache behaviour over time, and span timings.
    /// Any observer installed with [`Nautilus::with_observer`] still
    /// receives the event stream.
    ///
    /// # Errors
    ///
    /// As [`Nautilus::run_baseline`].
    pub fn run_baseline_reported(
        &self,
        query: &Query,
        seed: u64,
    ) -> Result<(SearchOutcome, RunReport)> {
        let report = ReportBuilder::new();
        let fan = Fanout::pair(self.observer, &report);
        let dir = self.checkpoint_dir.as_deref();
        let outcome = self.drive(query, None, seed, "baseline", &fan, dir, Some(&report))?;
        Ok((outcome, report.finish()))
    }

    /// [`Nautilus::run_guided`], additionally aggregating the run's
    /// telemetry into a [`RunReport`].
    ///
    /// # Errors
    ///
    /// As [`Nautilus::run_guided`].
    pub fn run_guided_reported(
        &self,
        query: &Query,
        hints: &HintSet,
        confidence: Option<Confidence>,
        seed: u64,
    ) -> Result<(SearchOutcome, RunReport)> {
        let report = ReportBuilder::new();
        let fan = Fanout::pair(self.observer, &report);
        let outcome = self.drive(
            query,
            Some((hints, confidence)),
            seed,
            guided_label(confidence),
            &fan,
            self.checkpoint_dir.as_deref(),
            Some(&report),
        )?;
        Ok((outcome, report.finish()))
    }

    /// Runs with whatever the IP's packaged [`HintBook`] offers for this
    /// query, looked up by the query's name.
    ///
    /// This is the paper's intended deployment: "these hints are
    /// calibrated by the IP author during the IP development phase and are
    /// packaged and provided along with Nautilus as part of the IP ... if
    /// it lacks sufficient hint information, Nautilus will fall back to
    /// using default values or employ the baseline GA." A missing or empty
    /// hint set therefore degrades to [`Nautilus::run_baseline`].
    ///
    /// # Errors
    ///
    /// Propagates hint-resolution and GA errors.
    pub fn run_with_book(
        &self,
        query: &Query,
        book: &HintBook,
        confidence: Option<Confidence>,
        seed: u64,
    ) -> Result<SearchOutcome> {
        match book.get(query.name()) {
            Some(hints) if !hints.is_empty() => self.run_guided(query, hints, confidence, seed),
            _ => self.run_baseline(query, seed),
        }
    }

    /// Resumes the run whose journal is in `dir`, continuing to
    /// completion (or to the engine's budget): the same search as running
    /// it again over `dir` with [`Nautilus::with_checkpoints`], for a
    /// caller that does not have the seed at hand (the journal's header
    /// holds it).
    ///
    /// The engine must be configured like the original run: same cost
    /// model, settings (except [`Nautilus::with_eval_workers`], which
    /// never affects results), query, and — for guided runs — the same
    /// hints and confidence, passed as `hints`. The strategy label stored
    /// in the journal is validated against that configuration. A damaged
    /// journal tail is never silently accepted: it is dropped, reported to
    /// the observer as a `checkpoint_corrupt_skipped` event, and its
    /// replies are asked of the tool again.
    ///
    /// # Errors
    ///
    /// Returns a checkpoint error when `dir` holds no intact journal or
    /// the journaled run is incompatible with this configuration, plus
    /// anything [`Nautilus::run_baseline`] can return.
    pub fn resume_from(
        &self,
        query: &Query,
        hints: Option<(&HintSet, Option<Confidence>)>,
        dir: impl AsRef<Path>,
    ) -> Result<SearchOutcome> {
        let dir = dir.as_ref();
        let store = CheckpointStore::create(dir).map_err(journal_error)?;
        let Some(header) = store.header() else {
            return Err(NautilusError::Ga(GaError::Checkpoint(format!(
                "no intact checkpoint found in {}",
                dir.display()
            ))));
        };
        let expected = match hints {
            Some((_, c)) => guided_label(c),
            None => "baseline",
        };
        if header.run_label != expected {
            return Err(NautilusError::Ga(GaError::Checkpoint(format!(
                "checkpoint belongs to a `{}` run but resume is configured as `{expected}`",
                header.run_label
            ))));
        }
        self.drive(query, hints, header.seed, expected, self.observer, Some(dir), None)
    }

    /// True when `dir` holds a journal with at least one reply, i.e. a
    /// run over it would answer something from the journal instead of
    /// the tool. A damaged journal counts for its intact prefix; a
    /// directory without one answers `false`. A daemon re-adopting
    /// orphaned runs reports this.
    #[must_use]
    pub fn has_resumable_checkpoint(dir: impl AsRef<Path>) -> bool {
        CheckpointStore::create(dir.as_ref()).is_ok_and(|store| store.journal().replies() > 0)
    }

    fn run_inner(
        &self,
        query: &Query,
        guidance: Option<(&HintSet, Option<Confidence>)>,
        seed: u64,
        label: &str,
    ) -> Result<SearchOutcome> {
        self.drive(
            query,
            guidance,
            seed,
            label,
            self.observer,
            self.checkpoint_dir.as_deref(),
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        query: &Query,
        guidance: Option<(&HintSet, Option<Confidence>)>,
        seed: u64,
        label: &str,
        observer: &dyn SearchObserver,
        checkpoint_dir: Option<&Path>,
        report: Option<&ReportBuilder>,
    ) -> Result<SearchOutcome> {
        // The runner's per-lookup events go through a capture-aware buffer:
        // when a worker thread evaluates misses under `capture_events`, the
        // events queue in that worker's frame and the GA engine replays them
        // at the deterministic merge point, so the stream is byte-identical
        // at every worker count. Outside a capture frame (the merge thread,
        // serial runs) the buffer forwards straight through.
        if self.subprocess.is_some() && self.fault_plan.is_some() {
            return Err(NautilusError::Subprocess(
                "a fault plan and a subprocess evaluator are mutually exclusive: drive chaos \
                 from the tool side instead (e.g. mock-synth --plan-seed)"
                    .to_owned(),
            ));
        }
        let buffered = BatchEventBuffer::new(observer);
        let store = match checkpoint_dir {
            Some(dir) => Some(
                CheckpointStore::create(dir)
                    .map_err(journal_error)?
                    .with_io(self.checkpoint_io.clone()),
            ),
            None => None,
        };
        let journal = store.as_ref().map(CheckpointStore::journal);
        // With a subprocess evaluator installed, the job runner charges
        // and caches over a stand-in model that serves the child tool's
        // stashed replies — so job accounting, cache behaviour, and
        // EvalCompleted telemetry are identical to an in-process run. The
        // evaluator journals its round trips itself; otherwise the model
        // below the runner is what a journal answers for.
        let stash_model = self.subprocess.as_ref().map(|_| StashModel::new(self.model));
        let journaled = match (&journal, &stash_model) {
            (Some(journal), None) => Some(JournaledModel { inner: self.model, journal }),
            _ => None,
        };
        let model: &dyn CostModel = match (&stash_model, &journaled) {
            (Some(stash), _) => stash,
            (None, Some(journaled)) => journaled,
            (None, None) => self.model,
        };
        // With nothing fallible between the GA's EvalCache and the runner,
        // that cache answers every repeat and the prefetch dedupes
        // misses, so each genome reaches the runner exactly once and a
        // second memo would only cost time. A fallible evaluator can
        // present a genome again (an attempt charged and then rejected, a
        // hedge, a lost race), so fault-plan and subprocess runs keep it.
        let runner = if self.fault_plan.is_some() || self.subprocess.is_some() {
            SynthJobRunner::new(model)
        } else {
            SynthJobRunner::without_memo(model)
        }
        .with_observer(&buffered);
        let fitness = QueryOverRunner { runner: &runner, query };
        let faulty = self.fault_plan.map(|plan| FaultyEvaluator::new(&fitness, plan));
        let subproc = match &self.subprocess {
            Some(config) => {
                let eval =
                    SubprocessEvaluator::spawn(config.clone(), self.model, &fitness, &buffered)
                        .map_err(|e| NautilusError::Subprocess(e.to_string()))?;
                Some(match &journal {
                    Some(journal) => eval.with_journal(journal),
                    None => eval,
                })
            }
            None => None,
        };
        // Supervision wraps the supervisable evaluation path; without one
        // (no fault plan or subprocess pool) there is nothing to hang or
        // trip, so the policy is inert by design — mirroring the retry
        // policy's contract.
        let supervisor = match (&faulty, &subproc, self.supervision) {
            (Some(f), _, Some(policy)) => Some(Supervisor::new(f).with_policy(policy)),
            (None, Some(s), Some(policy)) => Some(Supervisor::new(s).with_policy(policy)),
            _ => None,
        };
        let mut engine = GaEngine::new(self.model.space(), &fitness)
            .with_settings(self.settings)
            .with_selector(Box::new(RankRoulette::new(1.10)))
            .with_mutation(Box::new(nautilus_ga::UniformMutation::new(MUTATION_RATE)))
            .with_observer(observer)
            .with_retry_policy(self.retry)
            .with_run_label(label)
            .with_budget(self.budget.clone());
        if let Some(store) = store {
            engine = engine.with_checkpoints(store);
        }
        if let Some(faulty) = &faulty {
            engine = engine.with_fallible_evaluator(faulty);
        }
        if let Some(sub) = &subproc {
            engine = engine.with_fallible_evaluator(sub);
        }
        if let Some(sup) = &supervisor {
            engine = engine.with_supervisor(sup);
        }
        if let Some((hints, confidence)) = guidance {
            let mut guided = GuidedMutation::resolve(hints, self.model.space(), query.direction())?
                .with_rate(MUTATION_RATE);
            if let Some(c) = confidence {
                guided = guided.with_confidence(c.get());
            }
            engine = engine.with_mutation(Box::new(guided));
            if self.guided_crossover {
                let mut xover = GuidedCrossover::resolve(hints, self.model.space())?;
                if let Some(c) = confidence {
                    xover = xover.with_confidence(c.get());
                }
                engine = engine.with_crossover(Box::new(xover));
            }
        }
        if let Some(tracer) = self.tracer {
            engine = engine.with_tracer(tracer);
        }
        let run = engine.run(seed)?;
        if let (Some(tracer), Some(builder)) = (self.tracer, report) {
            builder.attach_phases(tracer.phase_stats());
        }
        Ok(SearchOutcome {
            strategy: label.to_owned(),
            trace: run
                .history
                .iter()
                .map(|g| TracePoint {
                    generation: g.generation,
                    evals: g.distinct_evals,
                    best_in_gen: g.best_value,
                    mean_in_gen: g.mean_value,
                    best_so_far: g.best_so_far,
                })
                .collect(),
            best_genome: run.best_genome,
            best_value: run.best_value,
            jobs: runner.stats(),
            faults: run.faults,
            health: run.health,
            stop: run.stop,
        })
    }
}

/// A checkpoint directory that cannot be read.
fn journal_error(e: std::io::Error) -> GaError {
    GaError::Checkpoint(format!("i/o failure: {e}"))
}

/// Strategy label for a guided run, matching the paper's footnote-2 naming
/// of the weakly / strongly guided variants.
fn guided_label(confidence: Option<Confidence>) -> &'static str {
    match confidence {
        Some(c) if c >= Confidence::STRONG => "nautilus-strong",
        Some(c) if c <= Confidence::WEAK => "nautilus-weak",
        _ => "nautilus",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hint::HintSet;
    use crate::query::Query;
    use nautilus_ga::{ParamSpace, ParamValue};
    use nautilus_obs::Phase;
    use nautilus_synth::{MetricCatalog, MetricExpr, MetricSet};

    /// A 4-parameter model with strong structure for guidance tests:
    /// cost = x*y + z_penalty + w, where only x and y matter much.
    #[derive(Debug)]
    struct StructuredModel {
        space: ParamSpace,
        catalog: MetricCatalog,
    }

    impl StructuredModel {
        fn new() -> Self {
            StructuredModel {
                space: ParamSpace::builder()
                    .int("x", 0, 15, 1)
                    .int("y", 0, 15, 1)
                    .int("z", 0, 15, 1)
                    .choices("mode", ["slow", "medium", "fast"])
                    .build()
                    .unwrap(),
                catalog: MetricCatalog::new([("cost", "units")]).unwrap(),
            }
        }
    }

    impl CostModel for StructuredModel {
        fn name(&self) -> &str {
            "structured"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn catalog(&self) -> &MetricCatalog {
            &self.catalog
        }
        fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
            let x = f64::from(g.gene_at(0));
            let y = f64::from(g.gene_at(1));
            let z = f64::from(g.gene_at(2));
            let mode_penalty = match g.gene_at(3) {
                0 => 40.0,
                1 => 15.0,
                _ => 0.0,
            };
            let cost = x * y * 4.0 + z * 0.5 + mode_penalty + 1.0;
            Some(self.catalog.set(vec![cost]).unwrap())
        }
    }

    fn query(model: &StructuredModel) -> Query {
        Query::minimize("cost", MetricExpr::metric(model.catalog.require("cost").unwrap()))
    }

    fn hints() -> HintSet {
        HintSet::for_metric("cost")
            .importance("x", 95)
            .unwrap()
            .bias("x", 0.9)
            .unwrap()
            .importance("y", 95)
            .unwrap()
            .bias("y", 0.9)
            .unwrap()
            .importance("z", 5)
            .unwrap()
            .target("mode", ParamValue::Sym("fast".into()))
            .unwrap()
            .importance("mode", 70)
            .unwrap()
            .build()
    }

    #[test]
    fn baseline_and_guided_reach_good_solutions() {
        let model = StructuredModel::new();
        let q = query(&model);
        let engine = Nautilus::new(&model);
        let base = engine.run_baseline(&q, 11).unwrap();
        let guided = engine.run_guided(&q, &hints(), Some(Confidence::STRONG), 11).unwrap();
        // Optimum: x=0, y=0, z=0, mode=fast -> 1.0.
        assert!(base.best_value <= 12.0, "baseline too weak: {}", base.best_value);
        assert!(guided.best_value <= 6.0, "guided too weak: {}", guided.best_value);
        assert_eq!(base.strategy, "baseline");
        assert_eq!(guided.strategy, "nautilus-strong");
    }

    #[test]
    fn guided_converges_with_fewer_evaluations_on_average() {
        let model = StructuredModel::new();
        let q = query(&model);
        let engine = Nautilus::new(&model);
        let h = hints();
        let runs = 12;
        let threshold = 5.0; // near-optimal cost
        let mut base_evals = 0.0;
        let mut guided_evals = 0.0;
        let mut base_hits = 0;
        let mut guided_hits = 0;
        for s in 0..runs {
            let b = engine.run_baseline(&q, 100 + s).unwrap();
            if let Some(e) = b.evals_to_reach(Direction::Minimize, threshold) {
                base_evals += e as f64;
                base_hits += 1;
            } else {
                base_evals += b.total_evals() as f64;
            }
            let g = engine.run_guided(&q, &h, Some(Confidence::STRONG), 100 + s).unwrap();
            if let Some(e) = g.evals_to_reach(Direction::Minimize, threshold) {
                guided_evals += e as f64;
                guided_hits += 1;
            } else {
                guided_evals += g.total_evals() as f64;
            }
        }
        assert!(guided_hits >= base_hits, "guided should not reach less often");
        assert!(
            guided_evals < base_evals,
            "guided should be cheaper: guided={guided_evals} baseline={base_evals}"
        );
    }

    #[test]
    fn outcomes_are_deterministic_per_seed() {
        let model = StructuredModel::new();
        let q = query(&model);
        let engine = Nautilus::new(&model);
        let h = hints();
        let a = engine.run_guided(&q, &h, Some(Confidence::WEAK), 5).unwrap();
        let b = engine.run_guided(&q, &h, Some(Confidence::WEAK), 5).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.strategy, "nautilus-weak");
    }

    #[test]
    fn eval_workers_do_not_change_outcomes_or_job_stats() {
        let model = StructuredModel::new();
        let q = query(&model);
        let h = hints();
        let serial = Nautilus::new(&model);
        let base = serial.run_baseline(&q, 17).unwrap();
        let guided = serial.run_guided(&q, &h, Some(Confidence::STRONG), 17).unwrap();
        for workers in [0usize, 2, 8] {
            let engine = Nautilus::new(&model).with_eval_workers(workers);
            let b = engine.run_baseline(&q, 17).unwrap();
            assert_eq!(b, base, "baseline diverged at {workers} workers");
            let g = engine.run_guided(&q, &h, Some(Confidence::STRONG), 17).unwrap();
            assert_eq!(g, guided, "guided diverged at {workers} workers");
            // JobStats equality is part of the outcome comparison above,
            // but spell out the load-bearing counter: the GA cache still
            // absorbs every revisit before it reaches the synthesis runner.
            assert_eq!(b.jobs.cache_hits, 0);
        }
    }

    #[test]
    fn tracing_preserves_outcomes_and_attributes_phases() {
        let model = StructuredModel::new();
        let q = query(&model);
        let h = hints();
        let plain = Nautilus::new(&model).run_guided(&q, &h, Some(Confidence::STRONG), 17).unwrap();
        for workers in [1usize, 2, 8] {
            let tracer = Tracer::new();
            let engine = Nautilus::new(&model).with_eval_workers(workers).with_tracer(&tracer);
            let g = engine.run_guided(&q, &h, Some(Confidence::STRONG), 17).unwrap();
            assert_eq!(g, plain, "tracing perturbed the outcome at {workers} workers");
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
                assert!(stats.contains_key(&phase), "missing {phase:?} at {workers} workers");
            }
            if workers > 1 {
                assert!(stats.contains_key(&Phase::BatchDispatch));
                assert!(stats.contains_key(&Phase::BatchMerge));
            }
            assert_eq!(stats[&Phase::Run].count, 1);
            // The tracer alone times the init and per-generation scoring.
            let scorings = u64::from(engine.settings().generations) + 1;
            assert_eq!(stats[&Phase::InitPopulation].count, 1, "at {workers} workers");
            assert_eq!(stats[&Phase::Scoring].count, scorings, "at {workers} workers");

            // A zero-rate fault plan keeps the runner memo without
            // changing the search.
            let tracer = Tracer::new();
            let engine = Nautilus::new(&model)
                .with_eval_workers(workers)
                .with_tracer(&tracer)
                .with_fault_plan(FaultPlan::new(3));
            let g = engine.run_guided(&q, &h, Some(Confidence::STRONG), 17).unwrap();
            assert_eq!(g, plain, "memoized tracing perturbed the outcome at {workers} workers");
        }
    }

    /// The logical-stream contract: timing payloads legitimately differ
    /// between runs; batch-shape, memo-contention, and child-lifecycle
    /// events are worker-count (or scheduling) artifacts the event
    /// contract explicitly exempts. Everything else must match.
    fn normalize(events: Vec<nautilus_obs::SearchEvent>) -> Vec<nautilus_obs::SearchEvent> {
        use nautilus_obs::SearchEvent as E;
        events
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    E::EvalBatch { .. }
                        | E::CacheShardContended
                        | E::ChildSpawned { .. }
                        | E::ChildKilled { .. }
                        | E::ChildRespawned { .. }
                        | E::ChildProtocolError { .. }
                )
            })
            .map(|e| match e {
                E::RunEnd { best_value, distinct_evals, .. } => {
                    E::RunEnd { best_value, distinct_evals, wall_nanos: 0 }
                }
                other => other,
            })
            .collect()
    }

    /// `report` with its wall-clock payload zeroed.
    fn untimed(mut report: RunReport) -> RunReport {
        report.wall_nanos = 0;
        report
    }

    #[test]
    fn memo_less_plain_runs_match_the_memoized_path() {
        let model = StructuredModel::new();
        let q = query(&model);
        let h = hints();
        // A zero-rate fault plan injects nothing, but installing a fallible
        // evaluator keeps the job runner's memo: the two runs differ only
        // in where each distinct evaluation is remembered.
        let run = |workers: usize, guidance: Option<Confidence>, memo: bool| {
            let sink = nautilus_obs::InMemorySink::new();
            let mut engine = Nautilus::new(&model).with_eval_workers(workers).with_observer(&sink);
            if memo {
                engine = engine.with_fault_plan(FaultPlan::new(41));
            }
            let (outcome, report) = match guidance {
                None => engine.run_baseline_reported(&q, 23),
                Some(c) => engine.run_guided_reported(&q, &h, Some(c), 23),
            }
            .unwrap();
            (outcome, untimed(report), normalize(sink.events()))
        };
        for guidance in [None, Some(Confidence::WEAK), Some(Confidence::STRONG)] {
            for workers in [1usize, 2, 8] {
                let (outcome, report, events) = run(workers, guidance, false);
                let (memo_outcome, memo_report, memo_events) = run(workers, guidance, true);
                let what = format!("{} at {workers} workers", outcome.strategy);
                assert_eq!(outcome, memo_outcome, "outcome (with JobStats) diverged: {what}");
                assert_eq!(report, memo_report, "run report diverged: {what}");
                assert_eq!(events, memo_events, "event stream diverged: {what}");
                assert_eq!(outcome.jobs.cache_hits, 0, "{what}");
                assert_eq!(report.evals.total_lookups(), outcome.jobs.total_lookups(), "{what}");
            }
        }
    }

    #[test]
    fn telemetry_streams_are_logically_identical_across_workers() {
        use nautilus_obs::InMemorySink;

        let model = StructuredModel::new();
        let q = query(&model);
        let h = hints();
        let run = |workers: usize| {
            let sink = InMemorySink::new();
            let tracer = Tracer::new();
            let engine = Nautilus::new(&model)
                .with_eval_workers(workers)
                .with_observer(&sink)
                .with_tracer(&tracer);
            engine.run_guided(&q, &h, Some(Confidence::STRONG), 29).unwrap();
            normalize(sink.events())
        };
        let serial = run(1);
        assert!(!serial.is_empty());
        for workers in [2usize, 8] {
            assert_eq!(run(workers), serial, "stream diverged at {workers} workers");
        }
    }

    #[test]
    fn reported_traced_runs_carry_phase_attribution() {
        let model = StructuredModel::new();
        let q = query(&model);
        let tracer = Tracer::new();
        let engine = Nautilus::new(&model).with_tracer(&tracer);
        let (outcome, report) = engine.run_baseline_reported(&q, 13).unwrap();
        assert!(!report.phases.is_empty(), "traced reported run must carry attribution");
        let run = &report.phases[&Phase::Run];
        assert_eq!(run.count, 1);
        assert!(run.total_nanos > 0);
        // On a serial run every span nests under `Run` on the merge track,
        // so per-phase self times telescope to the run's wall clock.
        let self_sum: u64 = report.phases.values().map(|s| s.self_nanos).sum();
        assert_eq!(self_sum, run.total_nanos);
        // Tracing must not perturb the reported search either.
        let (plain, plain_report) = engine_untraced_baseline(&model, &q);
        assert_eq!(outcome, plain);
        assert_eq!(report.distinct_evals, plain_report.distinct_evals);
        assert!(plain_report.phases.is_empty(), "untraced run must not carry attribution");
    }

    fn engine_untraced_baseline(model: &StructuredModel, q: &Query) -> (SearchOutcome, RunReport) {
        Nautilus::new(model).run_baseline_reported(q, 13).unwrap()
    }

    #[test]
    fn constraints_are_respected_by_search() {
        let model = StructuredModel::new();
        let cost = MetricExpr::metric(model.catalog.require("cost").unwrap());
        // Keep cost >= 100: the optimum region becomes infeasible.
        let q = Query::minimize("cost", cost.clone()).with_constraint(
            cost,
            crate::query::ConstraintOp::Ge,
            100.0,
        );
        let engine = Nautilus::new(&model);
        let run = engine.run_baseline(&q, 3).unwrap();
        assert!(run.best_value >= 100.0, "constraint violated: {}", run.best_value);
    }

    #[test]
    fn trace_accounting_matches_job_stats() {
        let model = StructuredModel::new();
        let q = query(&model);
        let run = Nautilus::new(&model).run_baseline(&q, 7).unwrap();
        assert_eq!(run.trace.last().unwrap().evals, run.jobs.jobs);
        assert_eq!(run.trace.len(), 81);
        // The GA's own evaluation cache absorbs revisits before they reach
        // the synthesis runner, so the runner sees each point exactly once.
        assert_eq!(run.jobs.cache_hits, 0);
        assert!(run.jobs.jobs < 10 + 10 * 80, "cache should absorb revisits");
    }

    #[test]
    fn reported_runs_reconcile_with_job_stats() {
        let model = StructuredModel::new();
        let q = query(&model);
        let engine = Nautilus::new(&model);

        let (outcome, report) = engine.run_baseline_reported(&q, 13).unwrap();
        // The report's whole-run eval tally is rebuilt from the event stream
        // alone; it must reconcile with the runner's own counters.
        assert_eq!(report.evals.total_lookups(), outcome.jobs.total_lookups());
        assert_eq!(report.evals.feasible, outcome.jobs.jobs);
        assert_eq!(report.evals.cached, outcome.jobs.cache_hits);
        assert_eq!(report.evals.infeasible, outcome.jobs.infeasible);
        assert_eq!(report.evals.tool_secs, outcome.jobs.simulated_tool_secs);
        assert_eq!(report.strategy, outcome.strategy);
        assert_eq!(report.distinct_evals, outcome.jobs.jobs);
        assert_eq!(report.best_value, outcome.best_value);
        assert_eq!(report.generations.len(), 81);

        // Attaching the report observer must not perturb the search itself.
        let plain = engine.run_baseline(&q, 13).unwrap();
        assert_eq!(outcome, plain);

        let (guided, guided_report) =
            engine.run_guided_reported(&q, &hints(), Some(Confidence::STRONG), 13).unwrap();
        assert_eq!(guided_report.strategy, "nautilus-strong");
        assert_eq!(guided_report.evals.total_lookups(), guided.jobs.total_lookups());
        assert!(guided_report.importance_decays > 0, "guided runs decay importance");
    }

    #[test]
    fn sink_events_reconstruct_per_generation_mutation_telemetry() {
        use std::collections::BTreeMap;

        use nautilus_obs::{HintKind, InMemorySink, SearchEvent};

        let model = StructuredModel::new();
        let q = query(&model);
        let sink = InMemorySink::new();
        let engine = Nautilus::new(&model).with_observer(&sink);
        let (_, report) =
            engine.run_guided_reported(&q, &hints(), Some(Confidence::STRONG), 29).unwrap();

        // Rebuild mutations-per-parameter and per-kind tallies for every
        // generation straight from the raw event stream.
        let num_params = report.params.len();
        assert_eq!(num_params, 4);
        let mut per_param: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        let mut per_kind: BTreeMap<u32, [u64; HintKind::ALL.len()]> = BTreeMap::new();
        for event in sink.events() {
            if let SearchEvent::MutationHintApplied { generation, param, hint_kind, .. } = event {
                let row = per_param.entry(generation).or_insert_with(|| vec![0; num_params]);
                row[param as usize] += 1;
                let kinds = per_kind.entry(generation).or_default();
                let idx = HintKind::ALL.iter().position(|k| *k == hint_kind).unwrap();
                kinds[idx] += 1;
            }
        }

        // The reconstruction must agree with the aggregated report row by row.
        let mut total_slots = 0;
        for row in &report.generations {
            let rebuilt_params =
                per_param.remove(&row.generation).unwrap_or_else(|| vec![0; num_params]);
            assert_eq!(rebuilt_params, row.mutations_per_param, "gen {}", row.generation);
            let rebuilt_kinds = per_kind.remove(&row.generation).unwrap_or_default();
            assert_eq!(rebuilt_kinds, row.hints.counts, "gen {}", row.generation);
            total_slots += row.hints.total();
        }
        assert!(per_param.is_empty(), "sink saw generations the report missed");
        assert_eq!(total_slots, report.hints.total());

        // A strongly guided run exercises the guided hint kinds: biased
        // draws on x/y and target-rank draws on mode.
        assert!(report.hints.count_of(HintKind::Bias) > 0);
        assert!(report.hints.count_of(HintKind::Target) > 0);
        assert!(report.hints.total() > 0);
    }

    #[test]
    fn fault_plans_degrade_gracefully_and_stay_deterministic() {
        let model = StructuredModel::new();
        let q = query(&model);
        let plan = FaultPlan::new(99).with_transient_rate(0.2).with_persistent_rate(0.02);
        let engine = Nautilus::new(&model).with_fault_plan(plan);
        let faulted = engine.run_baseline(&q, 31).unwrap();
        assert!(faulted.faults.evals_failed > 0, "plan should have injected failures");
        assert!(faulted.faults.reconciles());
        // Same plan, same seed, workers on: bit-for-bit identical.
        for workers in [2usize, 8] {
            let parallel = Nautilus::new(&model)
                .with_fault_plan(plan)
                .with_eval_workers(workers)
                .run_baseline(&q, 31)
                .unwrap();
            assert_eq!(parallel, faulted, "faulted run diverged at {workers} workers");
        }
        // A clean run has all-zero fault accounting.
        let clean = Nautilus::new(&model).run_baseline(&q, 31).unwrap();
        assert_eq!(clean.faults, nautilus_ga::FaultStats::default());
    }

    #[test]
    fn reported_fault_runs_reconcile_report_and_outcome() {
        let model = StructuredModel::new();
        let q = query(&model);
        let plan = FaultPlan::new(7).with_transient_rate(0.25);
        let engine =
            Nautilus::new(&model).with_fault_plan(plan).with_retry_policy(RetryPolicy::default());
        let (outcome, report) = engine.run_baseline_reported(&q, 41).unwrap();
        assert!(outcome.faults.evals_failed > 0);
        // The report rebuilds failure accounting from the event stream
        // alone; it must agree with the engine's own ledger exactly.
        assert_eq!(report.faults.evals_failed(), outcome.faults.evals_failed);
        assert_eq!(report.faults.retries_recovered, outcome.faults.retries_recovered);
        assert_eq!(report.faults.quarantined, outcome.faults.quarantined);
        assert_eq!(report.faults.retries, outcome.faults.retries);
        for (i, kind) in nautilus_obs::FailureKind::ALL.iter().enumerate() {
            assert_eq!(
                report.faults.failed_attempts_of(*kind),
                outcome.faults.failed_attempts[i],
                "failed-attempt tally for {kind} diverged"
            );
        }
        assert_eq!(report.evals.total_lookups(), outcome.jobs.total_lookups());
    }

    #[test]
    fn retries_disabled_quarantines_first_failures() {
        let model = StructuredModel::new();
        let q = query(&model);
        let plan = FaultPlan::new(3).with_transient_rate(0.3);
        let engine = Nautilus::new(&model).with_fault_plan(plan);
        let no_retry = engine.with_retry_policy(RetryPolicy::none());
        let run = no_retry.run_baseline(&q, 53).unwrap();
        assert_eq!(run.faults.retries, 0, "RetryPolicy::none must never retry");
        assert_eq!(run.faults.retries_recovered, 0);
        assert_eq!(run.faults.evals_failed, run.faults.quarantined);
        assert!(run.faults.quarantined > 0);
    }

    #[test]
    fn invalid_hints_error_cleanly() {
        let model = StructuredModel::new();
        let q = query(&model);
        let bad = HintSet::for_metric("cost").importance("nope", 10).unwrap().build();
        let err = Nautilus::new(&model).run_guided(&q, &bad, None, 0);
        assert!(err.is_err());
    }

    #[test]
    fn supervised_hang_storms_complete_and_stay_deterministic() {
        let model = StructuredModel::new();
        let q = query(&model);
        // 15% of attempts hang and 10% crash transiently; only supervision
        // keeps a run over this plan from waiting forever on the hangs.
        let plan = FaultPlan::new(17).with_hang_rate(0.15).with_transient_rate(0.10);
        let engine = Nautilus::new(&model)
            .with_fault_plan(plan)
            .with_supervision(SupervisePolicy::default());
        let run = engine.run_baseline(&q, 61).unwrap();
        assert!(run.health.watchdog_fired > 0, "hangs should fire the watchdog: {:?}", run.health);
        assert!(run.health.reconciles(), "hedge identity broken: {:?}", run.health);
        assert!(run.faults.reconciles());
        assert!(run.best_value.is_finite());
        for workers in [2usize, 8] {
            let parallel = Nautilus::new(&model)
                .with_fault_plan(plan)
                .with_supervision(SupervisePolicy::default())
                .with_eval_workers(workers)
                .run_baseline(&q, 61)
                .unwrap();
            assert_eq!(parallel, run, "supervised run diverged at {workers} workers");
        }
    }

    #[test]
    fn supervision_without_a_fault_plan_is_inert() {
        let model = StructuredModel::new();
        let q = query(&model);
        let plain = Nautilus::new(&model).run_baseline(&q, 23).unwrap();
        let supervised = Nautilus::new(&model)
            .with_supervision(SupervisePolicy::default())
            .run_baseline(&q, 23)
            .unwrap();
        assert_eq!(supervised, plain);
        assert_eq!(supervised.health, nautilus_ga::SuperviseStats::default());
    }

    #[test]
    fn reported_supervised_runs_reconcile_health_tallies() {
        let model = StructuredModel::new();
        let q = query(&model);
        let plan = FaultPlan::new(29).with_hang_rate(0.20).with_transient_rate(0.05);
        let engine = Nautilus::new(&model)
            .with_fault_plan(plan)
            .with_supervision(SupervisePolicy::default());
        let (outcome, report) = engine.run_baseline_reported(&q, 43).unwrap();
        assert!(outcome.health.watchdog_fired > 0);
        // The report rebuilds health accounting from the event stream
        // alone; it must agree with the engine's own ledger exactly.
        assert_eq!(report.health.watchdog_fired, outcome.health.watchdog_fired);
        assert_eq!(report.health.late_results_discarded, outcome.health.late_results_discarded);
        assert_eq!(report.health.hedges_issued, outcome.health.hedges_issued);
        assert_eq!(report.health.hedges_won, outcome.health.hedges_won);
        assert_eq!(report.health.hedges_wasted, outcome.health.hedges_wasted);
        assert_eq!(report.health.breaker_trips, outcome.health.breaker_trips);
        assert_eq!(report.health.breaker_recoveries, outcome.health.breaker_recoveries);
        assert_eq!(report.health.evals_shed, outcome.health.evals_shed);
        assert!(report.health.hedges_reconcile());
        // Attaching the report observer must not perturb the search.
        let plain = engine.run_baseline(&q, 43).unwrap();
        assert_eq!(outcome, plain);
    }

    #[test]
    fn subprocess_and_fault_plan_are_mutually_exclusive() {
        let model = StructuredModel::new();
        let q = query(&model);
        let err = Nautilus::new(&model)
            .with_fault_plan(FaultPlan::new(1).with_transient_rate(0.1))
            .with_subprocess_evaluator(SubprocessConfig::new("/bin/true"))
            .run_baseline(&q, 1)
            .expect_err("fault plan + subprocess accepted");
        assert!(matches!(err, NautilusError::Subprocess(_)), "{err:?}");
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn unspawnable_subprocess_tool_fails_the_run_cleanly() {
        let model = StructuredModel::new();
        let q = query(&model);
        let err = Nautilus::new(&model)
            .with_subprocess_evaluator(SubprocessConfig::new("/nonexistent/mock-synth"))
            .run_baseline(&q, 1)
            .expect_err("run over a nonexistent tool succeeded");
        assert!(matches!(err, NautilusError::Subprocess(_)), "{err:?}");
        assert!(err.to_string().contains("failed to spawn"), "{err}");
    }

    #[test]
    fn hint_book_dispatch_falls_back_to_baseline() {
        let model = StructuredModel::new();
        let q = query(&model);
        let engine = Nautilus::new(&model);

        // Empty book: identical to a baseline run.
        let empty = crate::hint::HintBook::new();
        let via_book = engine.run_with_book(&q, &empty, None, 21).unwrap();
        let baseline = engine.run_baseline(&q, 21).unwrap();
        assert_eq!(via_book, baseline);

        // Book with hints for this query: identical to a guided run.
        let mut book = crate::hint::HintBook::new();
        book.insert(hints());
        let via_book = engine.run_with_book(&q, &book, Some(Confidence::STRONG), 21).unwrap();
        let guided = engine.run_guided(&q, &hints(), Some(Confidence::STRONG), 21).unwrap();
        assert_eq!(via_book, guided);

        // A hint set with zero entries also falls back.
        let mut hollow = crate::hint::HintBook::new();
        hollow.insert(crate::hint::HintSet::for_metric("cost").build());
        let via_hollow = engine.run_with_book(&q, &hollow, None, 21).unwrap();
        assert_eq!(via_hollow.strategy, "baseline");
    }
}
