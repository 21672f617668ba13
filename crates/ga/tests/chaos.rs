//! Chaos tests for the engine's fault-tolerant evaluation path.
//!
//! These drive [`GaEngine`] through a deterministic fallible evaluator and
//! prove the headline guarantees: fault storms never panic, outcomes stay
//! bit-for-bit identical at any worker count, and the failure accounting
//! reconciles exactly.

use nautilus_ga::rng::{hash_combine, mix_to_unit};
use nautilus_ga::{
    Direction, EvalFailure, FaultStats, FnFallible, FnFitness, GaEngine, GaError, GaSettings,
    Genome, ParamSpace, RetryPolicy,
};

fn space() -> ParamSpace {
    ParamSpace::builder().int("x", 0, 31, 1).int("y", 0, 31, 1).int("z", 0, 31, 1).build().unwrap()
}

fn sphere_value(g: &Genome) -> f64 {
    g.genes().iter().map(|&v| f64::from(v) * f64::from(v)).sum()
}

fn sphere() -> FnFitness<impl Fn(&Genome) -> Option<f64> + Send + Sync> {
    FnFitness::new(Direction::Minimize, |g: &Genome| Some(sphere_value(g)))
}

/// Deterministic per-(genome, attempt) coin flip in [0, 1).
fn draw(genome: &Genome, attempt: u32, salt: u64) -> f64 {
    mix_to_unit(hash_combine(genome.stable_hash(salt), u64::from(attempt)))
}

#[test]
fn fault_storm_never_panics_and_reconciles() {
    let s = space();
    let f = sphere();
    // 30% transient + 5% persistent: a storm, but recoverable.
    let eval = FnFallible::new(|g: &Genome, attempt: u32| {
        if draw(g, 0, 0xDEAD) < 0.05 {
            return Err(EvalFailure::Persistent("injected".into()));
        }
        if draw(g, attempt, 0xBEEF) < 0.30 {
            return Err(EvalFailure::Transient("injected".into()));
        }
        Ok(Some(sphere_value(g)))
    });
    let run = GaEngine::new(&s, &f).with_fallible_evaluator(&eval).run(42).unwrap();
    assert!(run.faults.evals_failed > 0, "storm should have injected failures");
    assert!(run.faults.reconciles(), "evals_failed must equal recovered + quarantined");
    assert_eq!(run.cache.quarantined, run.faults.quarantined);
    assert!(run.best_value.is_finite());
}

#[test]
fn faulty_runs_are_bit_identical_across_worker_counts() {
    let s = space();
    let f = sphere();
    let eval = FnFallible::new(|g: &Genome, attempt: u32| {
        if draw(g, attempt, 0xFA11) < 0.25 {
            Err(EvalFailure::Transient("injected".into()))
        } else {
            Ok(Some(sphere_value(g)))
        }
    });
    let serial = GaEngine::new(&s, &f).with_fallible_evaluator(&eval).run(7).unwrap();
    for workers in [2, 8] {
        let settings = GaSettings { eval_workers: workers, ..GaSettings::default() };
        let run = GaEngine::new(&s, &f)
            .with_settings(settings)
            .with_fallible_evaluator(&eval)
            .run(7)
            .unwrap();
        assert_eq!(run.history, serial.history, "history diverged at workers={workers}");
        assert_eq!(run.best_genome, serial.best_genome);
        assert_eq!(run.cache, serial.cache);
        assert_eq!(run.faults, serial.faults, "fault counters diverged at workers={workers}");
    }
}

#[test]
fn faulty_runs_emit_identical_event_streams_across_worker_counts() {
    let s = space();
    let f = sphere();
    let eval = FnFallible::new(|g: &Genome, attempt: u32| {
        if draw(g, attempt, 0x57EA) < 0.2 {
            Err(EvalFailure::Transient("injected".into()))
        } else {
            Ok(Some(sphere_value(g)))
        }
    });
    let settings = GaSettings { generations: 10, ..GaSettings::default() };
    let strip_timing = |events: Vec<nautilus_obs::SearchEvent>| -> Vec<String> {
        events
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    nautilus_obs::SearchEvent::RunEnd { .. }
                        | nautilus_obs::SearchEvent::EvalBatch { .. }
                )
            })
            .map(|e| e.to_json())
            .collect()
    };
    let serial_sink = nautilus_obs::InMemorySink::new();
    GaEngine::new(&s, &f)
        .with_settings(settings)
        .with_fallible_evaluator(&eval)
        .with_observer(&serial_sink)
        .run(5)
        .unwrap();
    let serial_events = strip_timing(serial_sink.events());
    assert!(
        serial_events.iter().any(|e| e.contains("eval_attempt_failed")),
        "expected failure events in the stream"
    );
    let sink = nautilus_obs::InMemorySink::new();
    GaEngine::new(&s, &f)
        .with_settings(GaSettings { eval_workers: 8, ..settings })
        .with_fallible_evaluator(&eval)
        .with_observer(&sink)
        .run(5)
        .unwrap();
    assert_eq!(strip_timing(sink.events()), serial_events, "event order diverged under workers");
}

#[test]
fn infallible_adapter_matches_plain_fitness_exactly() {
    let s = space();
    let f = sphere();
    let eval = FnFallible::new(|g: &Genome, _| Ok(Some(sphere_value(g))));
    let plain = GaEngine::new(&s, &f).run(11).unwrap();
    let wrapped = GaEngine::new(&s, &f).with_fallible_evaluator(&eval).run(11).unwrap();
    assert_eq!(plain.history, wrapped.history);
    assert_eq!(plain.best_genome, wrapped.best_genome);
    assert_eq!(plain.cache, wrapped.cache);
    assert_eq!(wrapped.faults, FaultStats::default());
}

#[test]
fn quarantined_genomes_never_win_and_are_not_reevaluated() {
    let s = space();
    let f = sphere();
    // Quarantine the global optimum's whole basin: anything with x == 0.
    let eval = FnFallible::new(|g: &Genome, _| {
        if g.gene_at(0) == 0 {
            Err(EvalFailure::Persistent("injected".into()))
        } else {
            Ok(Some(sphere_value(g)))
        }
    });
    let run = GaEngine::new(&s, &f).with_fallible_evaluator(&eval).run(13).unwrap();
    assert_ne!(run.best_genome.gene_at(0), 0, "a quarantined genome must not win");
    assert!(run.faults.quarantined > 0);
    // Persistent failures must not consume retries.
    assert_eq!(
        run.faults.failed_attempts_of(nautilus_obs::FailureKind::Persistent),
        run.faults.quarantined
    );
    assert!(run.faults.reconciles());
}

#[test]
fn total_failure_degrades_to_no_feasible_genome_error() {
    let s = space();
    let f = sphere();
    let eval = FnFallible::new(|_: &Genome, _| Err(EvalFailure::Persistent("dead farm".into())));
    let err = GaEngine::new(&s, &f).with_fallible_evaluator(&eval).run(17).unwrap_err();
    assert!(matches!(err, GaError::NoFeasibleGenome { .. }), "graceful error, not a panic: {err}");
}

#[test]
fn invalid_retry_policy_is_rejected_up_front() {
    let s = space();
    let f = sphere();
    let bad = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
    let err = GaEngine::new(&s, &f).with_retry_policy(bad).run(19).unwrap_err();
    assert!(matches!(err, GaError::InvalidConfig(_)));
}

#[test]
fn corrupted_metrics_are_quarantined_not_cached_as_fitness() {
    let s = space();
    let f = FnFitness::new(Direction::Maximize, |g: &Genome| Some(sphere_value(g)));
    // A slice of the space reports NaN "metrics".
    let eval = FnFallible::new(|g: &Genome, _| {
        if g.gene_at(1) == 5 {
            Ok(Some(f64::NAN))
        } else {
            Ok(Some(sphere_value(g)))
        }
    });
    let run = GaEngine::new(&s, &f).with_fallible_evaluator(&eval).run(23).unwrap();
    assert!(run.best_value.is_finite(), "NaN must never become a best value");
    assert_ne!(run.best_genome.gene_at(1), 5);
    if run.faults.quarantined > 0 {
        assert_eq!(
            run.faults.failed_attempts_of(nautilus_obs::FailureKind::Corrupted),
            run.faults.quarantined
        );
    }
}
