//! Engine-level supervision tests: cross-worker determinism of the
//! watchdog/hedging/breaker path, equivalence with the unsupervised
//! pipeline on a clean backend, and breaker state across a resume.

use std::path::PathBuf;

use nautilus_ga::rng::{hash_combine, mix_to_unit, splitmix64};
use nautilus_ga::{
    AttemptOutcome, BreakerPolicy, CacheStats, CheckpointStore, Direction, EvalFailure, FnFallible,
    FnFitness, GaEngine, GaError, GaSettings, Genome, NeverHangs, ParamSpace, RunBudget,
    StopReason, SupervisableEvaluator, SupervisePolicy, SuperviseStats, Supervisor, WatchdogPolicy,
    HEDGE_ATTEMPT_BIT,
};
use nautilus_obs::{BatchEventBuffer, HealthState, InMemorySink, SearchEvent, SearchObserver};

fn space() -> ParamSpace {
    ParamSpace::builder().int("x", 0, 31, 1).int("y", 0, 31, 1).int("z", 0, 31, 1).build().unwrap()
}

fn sphere() -> FnFitness<impl Fn(&Genome) -> Option<f64> + Send + Sync> {
    FnFitness::new(Direction::Minimize, |g: &Genome| {
        Some(g.genes().iter().map(|&v| f64::from(v) * f64::from(v)).sum())
    })
}

fn sphere_value(g: &Genome) -> f64 {
    g.genes().iter().map(|&v| f64::from(v) * f64::from(v)).sum()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nautilus-sup-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic chaos evaluator: hangs, transient crashes, stragglers
/// and successes are all pure functions of (genome, attempt) — the same
/// discipline `FaultPlan` uses, reproduced locally because `nautilus-ga`
/// cannot depend on `nautilus-synth`.
struct ChaoticEval {
    seed: u64,
    hang_rate: f64,
    fail_rate: f64,
    /// Success durations are uniform over `50..50 + cost_span` ms.
    cost_span: u64,
}

impl ChaoticEval {
    fn draw(&self, genome: &Genome, attempt: u32) -> u64 {
        let g = genome.stable_hash(splitmix64(self.seed));
        hash_combine(g, splitmix64(u64::from(attempt)))
    }
}

impl SupervisableEvaluator for ChaoticEval {
    fn attempt(&self, genome: &Genome, attempt: u32) -> AttemptOutcome {
        let a = self.draw(genome, attempt);
        if mix_to_unit(hash_combine(a, 1)) < self.hang_rate {
            return AttemptOutcome::Hang;
        }
        if mix_to_unit(hash_combine(a, 2)) < self.fail_rate {
            return AttemptOutcome::Finished {
                result: Err(EvalFailure::Transient("injected: worker crashed".into())),
                cost_ms: 50 + hash_combine(a, 3) % 300,
            };
        }
        AttemptOutcome::Finished {
            result: Ok(Some(sphere_value(genome))),
            cost_ms: 50 + hash_combine(a, 4) % self.cost_span,
        }
    }
}

fn chaos_policy() -> SupervisePolicy {
    SupervisePolicy {
        watchdog: WatchdogPolicy { deadline_ms: 1_000 },
        ..SupervisePolicy::default()
    }
}

/// Reports every attempt through a capture-aware observer, the way the
/// synthesis runner reports through its `BatchEventBuffer`. The payload
/// names the (genome, attempt) pair, so any reordering shows.
struct Reporting<'a> {
    inner: &'a ChaoticEval,
    obs: &'a BatchEventBuffer<'a>,
}

impl SupervisableEvaluator for Reporting<'_> {
    fn attempt(&self, genome: &Genome, attempt: u32) -> AttemptOutcome {
        let size = genome.stable_hash(u64::from(attempt)) as usize;
        self.obs.on_event(&SearchEvent::ParetoUpdated { size });
        self.inner.attempt(genome, attempt)
    }
}

/// Zeroes what legitimately differs between runs: wall-clock payloads and
/// the worker count a batch reports.
fn normalize(events: Vec<SearchEvent>) -> Vec<SearchEvent> {
    events
        .into_iter()
        .map(|e| match e {
            SearchEvent::RunEnd { best_value, distinct_evals, .. } => {
                SearchEvent::RunEnd { best_value, distinct_evals, wall_nanos: 0 }
            }
            SearchEvent::EvalBatch { generation, size, .. } => {
                SearchEvent::EvalBatch { generation, size, workers: 0 }
            }
            other => other,
        })
        .collect()
}

#[test]
fn supervised_runs_are_identical_at_any_worker_count() {
    let s = space();
    let f = sphere();
    // Success durations spread over 50..=1550ms against a 1000ms
    // deadline, so some clean results arrive late and are discarded.
    let eval = ChaoticEval { seed: 0xC4405, hang_rate: 0.10, fail_rate: 0.10, cost_span: 1_501 };
    let run = |workers: usize| {
        let sink = InMemorySink::new();
        let buffered = BatchEventBuffer::new(&sink);
        let reporting = Reporting { inner: &eval, obs: &buffered };
        let sup = Supervisor::new(&reporting).with_policy(chaos_policy());
        let settings = GaSettings { generations: 20, eval_workers: workers, ..Default::default() };
        let run = GaEngine::new(&s, &f)
            .with_settings(settings)
            .with_supervisor(&sup)
            .with_observer(&sink)
            .run(0xFEED)
            .unwrap();
        (run, normalize(sink.events()))
    };

    let (baseline, baseline_events) = run(1);
    assert!(
        baseline.health.watchdog_fired > 0,
        "a 10% hang rate over 20 generations should fire the watchdog: {:?}",
        baseline.health
    );
    assert!(baseline.health.reconciles(), "hedge identity broken: {:?}", baseline.health);
    for kind in ["pareto_updated", "watchdog_fired", "eval_attempt_failed", "eval_batch"] {
        assert!(
            baseline_events.iter().any(|e| e.kind() == kind),
            "the supervised stream should carry {kind} events"
        );
    }

    for workers in [2usize, 8] {
        let (run, events) = run(workers);
        assert_eq!(run, baseline, "supervised run diverged at workers={workers}");
        assert_eq!(
            events, baseline_events,
            "supervised event stream diverged at workers={workers}"
        );
    }
}

#[test]
fn supervision_of_a_clean_backend_matches_the_plain_fallible_path() {
    let s = space();
    let f = sphere();
    let inner = FnFallible::new(|g: &Genome, _| Ok(Some(sphere_value(g))));
    let adapter = NeverHangs(&inner);
    let sup = Supervisor::new(&adapter);

    let plain = GaEngine::new(&s, &f).with_fallible_evaluator(&inner).run(0xAB).unwrap();
    let supervised = GaEngine::new(&s, &f)
        .with_fallible_evaluator(&inner)
        .with_supervisor(&sup)
        .run(0xAB)
        .unwrap();
    assert_eq!(supervised.history, plain.history);
    assert_eq!(supervised.best_genome, plain.best_genome);
    assert_eq!(supervised.cache, plain.cache);
    assert_eq!(supervised.faults, plain.faults);
    // On a clean backend supervision only observes: no watchdog firings,
    // hedges (all durations are 0), trips or sheds.
    let h = supervised.health;
    assert!(h.attempts_supervised > 0);
    assert_eq!(
        (h.watchdog_fired, h.hedges_issued, h.breaker_trips, h.evals_shed),
        (0, 0, 0, 0),
        "clean backend tripped supervision: {h:?}"
    );
}

#[test]
fn invalid_supervise_policies_are_rejected_at_run_start() {
    let s = space();
    let f = sphere();
    let inner = FnFallible::new(|g: &Genome, _| Ok(Some(sphere_value(g))));
    let adapter = NeverHangs(&inner);
    let mut policy = SupervisePolicy::default();
    policy.watchdog.deadline_ms = 0;
    let sup = Supervisor::new(&adapter).with_policy(policy);
    let err = GaEngine::new(&s, &f).with_supervisor(&sup).run(1).unwrap_err();
    assert!(matches!(err, GaError::InvalidConfig(msg) if msg.contains("deadline_ms")));
}

/// An evaluator that fails persistently for every genome while `broken`
/// genomes exist — used to trip the breaker deterministically.
struct StormEval {
    seed: u64,
    persist_rate: f64,
}

impl SupervisableEvaluator for StormEval {
    fn attempt(&self, genome: &Genome, _attempt: u32) -> AttemptOutcome {
        let g = genome.stable_hash(splitmix64(self.seed));
        if mix_to_unit(hash_combine(g, 7)) < self.persist_rate {
            return AttemptOutcome::Finished {
                result: Err(EvalFailure::Persistent("injected: backend storm".into())),
                cost_ms: 100,
            };
        }
        AttemptOutcome::Finished { result: Ok(Some(sphere_value(genome))), cost_ms: 100 }
    }
}

/// A breaker that trips after four samples at a 70% failure rate and
/// half-opens after six sheds.
fn storm_policy() -> SupervisePolicy {
    SupervisePolicy {
        breaker: BreakerPolicy {
            window: 8,
            min_samples: 4,
            trip_failure_rate: 0.7,
            cooldown_sheds: 6,
            probe_quota: 2,
            probes_to_close: 2,
        },
        ..SupervisePolicy::default()
    }
}

#[test]
fn breaker_state_and_health_counters_survive_checkpoint_and_resume() {
    let s = space();
    let f = sphere();
    let eval = StormEval { seed: 0x57012, persist_rate: 0.85 };
    let sup = Supervisor::new(&eval).with_policy(storm_policy());
    let settings = GaSettings { generations: 16, ..Default::default() };
    let seed = 0x0DD;

    let straight =
        GaEngine::new(&s, &f).with_settings(settings).with_supervisor(&sup).run(seed).unwrap();
    assert!(straight.health.breaker_trips > 0, "storm never tripped: {:?}", straight.health);
    assert!(straight.health.evals_shed > 0, "open breaker never shed: {:?}", straight.health);

    let dir = tempdir("breaker-resume");
    let interrupted = GaEngine::new(&s, &f)
        .with_settings(settings)
        .with_supervisor(&sup)
        .with_budget(RunBudget::new().with_max_generations(6))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(seed)
        .unwrap();
    assert_eq!(interrupted.stop, StopReason::GenerationBudget);

    // The supervisor runs in virtual time, so running again over the same
    // store rebuilds the breaker state and health counters on the way.
    let resumed = GaEngine::new(&s, &f)
        .with_settings(settings)
        .with_supervisor(&sup)
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(seed)
        .unwrap();
    assert_eq!(
        resumed, straight,
        "resumed run (incl. health counters) must equal the uninterrupted one"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over the JSONL lines of a stream's `generation_end` events.
fn generation_end_digest(events: &[SearchEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in events.iter().filter(|e| matches!(e, SearchEvent::GenerationEnd { .. })) {
        for b in e.to_json().bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn cache_and_health_counters_hold_their_recorded_values_at_every_worker_count() {
    // The worker-count tests compare a run with itself at another count,
    // so a change that moves every count alike passes them. These
    // literals do not move: a plain run whose generations revisit
    // genomes and cross an infeasible region, and a storm that trips the
    // breaker and sheds.
    let s = space();
    let f = FnFitness::new(Direction::Minimize, |g: &Genome| {
        (!g.gene_at(1).is_multiple_of(5)).then(|| sphere_value(g))
    });
    let eval = StormEval { seed: 0x57012, persist_rate: 0.85 };
    let sup = Supervisor::new(&eval).with_policy(storm_policy());
    for workers in [1usize, 2, 8] {
        let settings = GaSettings { generations: 16, eval_workers: workers, ..Default::default() };

        let sink = InMemorySink::new();
        let plain =
            GaEngine::new(&s, &f).with_settings(settings).with_observer(&sink).run(0x0DD).unwrap();
        assert_eq!(
            plain.cache,
            CacheStats { hits: 132, distinct_evals: 45, infeasible_evals: 10, quarantined: 0 },
            "plain cache counters at workers={workers}"
        );
        assert_eq!(plain.health, SuperviseStats::default());
        assert_eq!(
            generation_end_digest(&sink.events()),
            0x3f5f_0df9_a865_cc37,
            "plain stream at workers={workers}"
        );

        let sink = InMemorySink::new();
        let storm = GaEngine::new(&s, &f)
            .with_settings(settings)
            .with_supervisor(&sup)
            .with_observer(&sink)
            .run(0x0DD)
            .unwrap();
        assert_eq!(
            storm.cache,
            CacheStats { hits: 128, distinct_evals: 12, infeasible_evals: 7, quarantined: 40 },
            "storm cache counters at workers={workers}"
        );
        assert_eq!(
            storm.health,
            SuperviseStats {
                attempts_supervised: 14,
                watchdog_fired: 0,
                late_results_discarded: 0,
                hedges_issued: 0,
                hedges_won: 0,
                hedges_wasted: 0,
                breaker_trips: 5,
                breaker_recoveries: 0,
                breaker_probes: 6,
                evals_shed: 28,
            },
            "storm health counters at workers={workers}"
        );
        assert_eq!(
            generation_end_digest(&sink.events()),
            0xf5c3_c0bb_d8a3_cdb0,
            "storm stream at workers={workers}"
        );
    }
}

#[test]
fn hedges_carry_the_hedge_attempt_bit() {
    // A straggling primary whose hedge succeeds instantly: the engine
    // must reach the evaluator with the tagged attempt number.
    use std::sync::atomic::{AtomicU64, Ordering};
    let s = space();
    let f = sphere();
    let hedge_calls = AtomicU64::new(0);
    struct TaggedEval<'c> {
        calls: &'c AtomicU64,
    }
    impl SupervisableEvaluator for TaggedEval<'_> {
        fn attempt(&self, genome: &Genome, attempt: u32) -> AttemptOutcome {
            if attempt & HEDGE_ATTEMPT_BIT != 0 {
                self.calls.fetch_add(1, Ordering::Relaxed);
                return AttemptOutcome::Finished {
                    result: Ok(Some(sphere_value(genome))),
                    cost_ms: 10,
                };
            }
            // Primaries straggle on a deterministic subset of genomes.
            let slow = genome.stable_hash(0x517).is_multiple_of(8);
            AttemptOutcome::Finished {
                result: Ok(Some(sphere_value(genome))),
                cost_ms: if slow { 900 } else { 60 },
            }
        }
    }
    let eval = TaggedEval { calls: &hedge_calls };
    // Per-generation batches are small, so relax the hedge warm-up:
    // trust the median after 2 samples and a quarter of the batch.
    let mut policy = chaos_policy();
    policy.hedge.min_samples = 2;
    policy.hedge.completion_threshold = 0.25;
    let sup = Supervisor::new(&eval).with_policy(policy);
    let run = GaEngine::new(&s, &f)
        .with_settings(GaSettings { population: 20, generations: 20, ..Default::default() })
        .with_supervisor(&sup)
        .run(0x8ED6E)
        .unwrap();
    assert!(run.health.hedges_issued > 0, "stragglers never hedged: {:?}", run.health);
    assert_eq!(run.health.hedges_won, run.health.hedges_issued, "instant hedges must all win");
    assert_eq!(hedge_calls.load(Ordering::Relaxed), run.health.hedges_issued);
    assert!(run.health.reconciles());
}

#[test]
fn health_state_is_closed_after_a_clean_supervised_run() {
    let s = space();
    let f = sphere();
    // Every duration is well under the deadline: genuinely clean.
    let eval = ChaoticEval { seed: 1, hang_rate: 0.0, fail_rate: 0.0, cost_span: 500 };
    let sup = Supervisor::new(&eval).with_policy(chaos_policy());
    let run = GaEngine::new(&s, &f).with_supervisor(&sup).run(2).unwrap();
    assert_eq!(run.health.breaker_trips, 0);
    // HealthState is re-exported for downstream consumers of the report.
    assert_eq!(HealthState::Closed.as_str(), "closed");
}
