//! Deterministic fault injection for chaos-testing the evaluation
//! pipeline.
//!
//! A [`FaultPlan`] decides, from nothing but its seed, a genome's stable
//! hash and the attempt number, whether an evaluation attempt fails and
//! how. Because no clock, RNG stream or thread identity is consulted, the
//! same plan injects the same faults at every `eval_workers` setting —
//! which is what lets the chaos suite assert bit-for-bit determinism
//! across worker counts.
//!
//! [`FaultyEvaluator`] wraps any [`FitnessFn`] (e.g. a query objective
//! over a `SynthJobRunner`, or a dataset-backed evaluator) as a
//! [`FallibleEvaluator`]: injected transient/timeout/persistent faults
//! simulate the backend dying *without* invoking it, while injected
//! corruption runs the backend and then garbles its report.

use std::sync::atomic::{AtomicU64, Ordering};

use nautilus_ga::rng::{hash_combine, mix_to_unit, splitmix64};
use nautilus_ga::{
    AttemptOutcome, EvalFailure, FallibleEvaluator, FitnessFn, Genome, SupervisableEvaluator,
};
use nautilus_obs::FailureKind;

/// Salts separating the per-kind fault draws (and this module's hashing
/// from every other `stable_hash` consumer).
const SALT_PLAN: u64 = 0x6661_756c_7421; // "fault!"
const SALT_PERSISTENT: u64 = 0x01;
const SALT_TRANSIENT: u64 = 0x02;
const SALT_TIMEOUT: u64 = 0x03;
const SALT_CORRUPT: u64 = 0x04;
const SALT_HANG: u64 = 0x05;
const SALT_COST: u64 = 0x06;

/// Everything a [`FaultPlan`] can inject into one evaluation attempt.
///
/// The first four kinds map 1:1 onto [`FailureKind`]; [`InjectedFault::Hang`]
/// is the supervision-only kind: the attempt never returns and only a
/// watchdog deadline ends it. Under the legacy (unsupervised)
/// [`FallibleEvaluator`] path a hang degrades to an injected timeout, so
/// fault plans stay usable — if blunter — without a supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Simulated worker crash; retryable.
    Transient,
    /// Simulated tool timeout; retryable.
    Timeout,
    /// The tool ran but its report is garbage.
    Corrupted,
    /// The design deterministically kills the generator; never retryable.
    Persistent,
    /// The attempt hangs forever (supervised runs only).
    Hang,
}

/// A seeded, rate-configured fault-injection plan.
///
/// Per-kind rates are probabilities in `[0, 1]`, drawn independently in
/// priority order persistent → transient → timeout → corrupted.
/// Persistent faults are keyed off the genome alone (no attempt number),
/// so a persistently failing design fails *every* retry — exactly the
/// deterministic quarantine case. The retryable kinds mix the attempt
/// number in, so retries can recover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient: f64,
    timeout: f64,
    corrupt: f64,
    persistent: f64,
    hang: f64,
}

impl FaultPlan {
    /// A plan with the given seed and all rates at zero.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, transient: 0.0, timeout: 0.0, corrupt: 0.0, persistent: 0.0, hang: 0.0 }
    }

    /// Sets the transient-failure rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the timeout rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_timeout_rate(mut self, rate: f64) -> Self {
        self.timeout = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the corrupted-metrics rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the persistent-failure rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_persistent_rate(mut self, rate: f64) -> Self {
        self.persistent = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the hang rate (clamped to `[0, 1]`). Hangs mix the attempt
    /// number in, so a retry (or a hedged duplicate, which carries a
    /// different attempt tag) can recover.
    #[must_use]
    pub fn with_hang_rate(mut self, rate: f64) -> Self {
        self.hang = rate.clamp(0.0, 1.0);
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decides the fate of one (genome, attempt) pair: `None` means the
    /// attempt proceeds normally.
    ///
    /// This is the legacy (unsupervised) view: an injected hang degrades
    /// to [`FailureKind::Timeout`], because without a watchdog the only
    /// honest approximation of "never returns" is "took too long".
    #[must_use]
    pub fn decide(&self, genome: &Genome, attempt: u32) -> Option<FailureKind> {
        self.decide_full(genome, attempt).map(|fault| match fault {
            InjectedFault::Transient => FailureKind::Transient,
            InjectedFault::Timeout | InjectedFault::Hang => FailureKind::Timeout,
            InjectedFault::Corrupted => FailureKind::Corrupted,
            InjectedFault::Persistent => FailureKind::Persistent,
        })
    }

    /// Decides the fate of one (genome, attempt) pair including the
    /// supervision-only [`InjectedFault::Hang`] kind.
    ///
    /// Hangs draw last: a genome/attempt already fated to fail some
    /// other way keeps that fate, so enabling a hang rate never *removes*
    /// faults from an existing plan.
    #[must_use]
    pub fn decide_full(&self, genome: &Genome, attempt: u32) -> Option<InjectedFault> {
        let g = genome.stable_hash(splitmix64(self.seed) ^ SALT_PLAN);
        if self.persistent > 0.0 && mix_to_unit(hash_combine(g, SALT_PERSISTENT)) < self.persistent
        {
            return Some(InjectedFault::Persistent);
        }
        let a = hash_combine(g, splitmix64(u64::from(attempt)));
        if self.transient > 0.0 && mix_to_unit(hash_combine(a, SALT_TRANSIENT)) < self.transient {
            return Some(InjectedFault::Transient);
        }
        if self.timeout > 0.0 && mix_to_unit(hash_combine(a, SALT_TIMEOUT)) < self.timeout {
            return Some(InjectedFault::Timeout);
        }
        if self.corrupt > 0.0 && mix_to_unit(hash_combine(a, SALT_CORRUPT)) < self.corrupt {
            return Some(InjectedFault::Corrupted);
        }
        if self.hang > 0.0 && mix_to_unit(hash_combine(a, SALT_HANG)) < self.hang {
            return Some(InjectedFault::Hang);
        }
        None
    }

    /// Deterministic virtual duration for one attempt, in milliseconds
    /// (uniform over `100..=2000`). Supervised runs use this as the
    /// attempt's wall-clock stand-in, so straggler hedging and watchdog
    /// decisions replay identically at every worker count.
    #[must_use]
    pub fn attempt_cost_ms(&self, genome: &Genome, attempt: u32) -> u64 {
        let g = genome.stable_hash(splitmix64(self.seed) ^ SALT_PLAN);
        let a = hash_combine(g, splitmix64(u64::from(attempt)));
        100 + hash_combine(a, SALT_COST) % 1901
    }
}

/// Wraps an infallible evaluator with plan-driven fault injection.
///
/// Injection semantics per kind:
///
/// * **Transient / timeout / persistent** — the simulated backend died
///   before producing anything: the inner evaluator is *not* invoked, so
///   runner job accounting sees nothing.
/// * **Corrupted** — the backend ran to completion (the inner evaluator
///   *is* invoked and charged) but its report is garbage: the wrapper
///   returns `Ok(Some(NaN))`, which the engine's retry loop converts to
///   [`EvalFailure::Corrupted`] and quarantines.
///
/// Injection counters are exposed per kind for exact reconciliation in
/// chaos tests. A fate depends on the genome and attempt alone, so the
/// evaluation's lane is ignored.
pub struct FaultyEvaluator<'a> {
    inner: &'a dyn FitnessFn,
    plan: FaultPlan,
    injected: [AtomicU64; FailureKind::ALL.len()],
    /// Hangs tracked separately: they are not a [`FailureKind`] (under
    /// supervision they surface as watchdog timeouts, unsupervised as
    /// injected timeouts).
    hangs: AtomicU64,
}

impl<'a> FaultyEvaluator<'a> {
    /// Wraps `inner` with `plan`.
    #[must_use]
    pub fn new(inner: &'a dyn FitnessFn, plan: FaultPlan) -> Self {
        FaultyEvaluator { inner, plan, injected: Default::default(), hangs: AtomicU64::new(0) }
    }

    /// The active fault plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many faults of `kind` have been injected so far.
    #[must_use]
    pub fn injected(&self, kind: FailureKind) -> u64 {
        self.injected[Self::kind_index(kind)].load(Ordering::Relaxed)
    }

    /// How many hangs have been injected so far.
    #[cfg(test)]
    #[must_use]
    pub fn injected_hangs(&self) -> u64 {
        self.hangs.load(Ordering::Relaxed)
    }

    /// Total injected faults across all kinds, hangs included.
    #[cfg(test)]
    #[must_use]
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum::<u64>()
            + self.hangs.load(Ordering::Relaxed)
    }

    fn kind_index(kind: FailureKind) -> usize {
        FailureKind::ALL.iter().position(|k| *k == kind).unwrap_or(0)
    }

    fn count(&self, kind: FailureKind) {
        self.injected[Self::kind_index(kind)].fetch_add(1, Ordering::Relaxed);
    }
}

impl FallibleEvaluator for FaultyEvaluator<'_> {
    fn try_fitness(
        &self,
        genome: &Genome,
        attempt: u32,
        _lane: Option<u64>,
    ) -> Result<Option<f64>, EvalFailure> {
        match self.plan.decide_full(genome, attempt) {
            Some(InjectedFault::Transient) => {
                self.count(FailureKind::Transient);
                Err(EvalFailure::Transient("injected: synthesis worker crashed".into()))
            }
            Some(InjectedFault::Timeout) => {
                self.count(FailureKind::Timeout);
                Err(EvalFailure::Timeout { elapsed_ms: 1_001, limit_ms: 1_000 })
            }
            Some(InjectedFault::Hang) => {
                // Without a watchdog the closest honest rendering of
                // "never returns" is an injected timeout.
                self.hangs.fetch_add(1, Ordering::Relaxed);
                Err(EvalFailure::Timeout { elapsed_ms: 1_001, limit_ms: 1_000 })
            }
            Some(InjectedFault::Persistent) => {
                self.count(FailureKind::Persistent);
                Err(EvalFailure::Persistent("injected: generator rejects this design".into()))
            }
            Some(InjectedFault::Corrupted) => {
                self.count(FailureKind::Corrupted);
                // The tool ran (and is charged by the runner) but its
                // report is garbage.
                let _ = self.inner.fitness(genome);
                Ok(Some(f64::NAN))
            }
            None => Ok(self.inner.fitness(genome)),
        }
    }
}

impl SupervisableEvaluator for FaultyEvaluator<'_> {
    fn attempt(&self, genome: &Genome, attempt: u32) -> AttemptOutcome {
        if self.plan.decide_full(genome, attempt) == Some(InjectedFault::Hang) {
            self.hangs.fetch_add(1, Ordering::Relaxed);
            return AttemptOutcome::Hang;
        }
        AttemptOutcome::Finished {
            result: self.try_fitness(genome, attempt, None),
            cost_ms: self.plan.attempt_cost_ms(genome, attempt),
        }
    }
}

impl std::fmt::Debug for FaultyEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyEvaluator").field("plan", &self.plan).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_ga::{Direction, FnFitness};

    fn g(x: u32) -> Genome {
        Genome::from_genes(vec![x])
    }

    fn value_fn() -> FnFitness<impl Fn(&Genome) -> Option<f64> + Send + Sync> {
        FnFitness::new(Direction::Maximize, |g: &Genome| Some(f64::from(g.gene_at(0))))
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let f = value_fn();
        let eval = FaultyEvaluator::new(&f, FaultPlan::new(1));
        for x in 0..50 {
            assert_eq!(eval.try_fitness(&g(x), 1, None), Ok(Some(f64::from(x))));
        }
        assert_eq!(eval.total_injected(), 0);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan_a = FaultPlan::new(1).with_transient_rate(0.5);
        let plan_b = FaultPlan::new(2).with_transient_rate(0.5);
        let decisions_a: Vec<_> = (0..64).map(|x| plan_a.decide(&g(x), 1)).collect();
        let decisions_b: Vec<_> = (0..64).map(|x| plan_b.decide(&g(x), 1)).collect();
        assert_eq!(decisions_a, (0..64).map(|x| plan_a.decide(&g(x), 1)).collect::<Vec<_>>());
        assert_ne!(decisions_a, decisions_b, "different seeds should inject differently");
        let injected = decisions_a.iter().filter(|d| d.is_some()).count();
        assert!((16..=48).contains(&injected), "50% rate wildly off: {injected}/64");
    }

    #[test]
    fn persistent_faults_ignore_the_attempt_number() {
        let plan = FaultPlan::new(3).with_persistent_rate(0.3).with_transient_rate(0.5);
        for x in 0..64 {
            if plan.decide(&g(x), 1) == Some(FailureKind::Persistent) {
                for attempt in 2..6 {
                    assert_eq!(
                        plan.decide(&g(x), attempt),
                        Some(FailureKind::Persistent),
                        "persistent fault must survive retries"
                    );
                }
            }
        }
    }

    #[test]
    fn transient_faults_can_clear_on_retry() {
        let plan = FaultPlan::new(4).with_transient_rate(0.5);
        let recovered = (0..64).any(|x| {
            plan.decide(&g(x), 1) == Some(FailureKind::Transient) && plan.decide(&g(x), 2).is_none()
        });
        assert!(recovered, "at 50% some first-attempt failure should clear on attempt 2");
    }

    #[test]
    fn rates_are_clamped() {
        let plan = FaultPlan::new(5).with_transient_rate(7.0).with_corrupt_rate(-1.0);
        assert_eq!(plan, FaultPlan::new(5).with_transient_rate(1.0).with_corrupt_rate(0.0));
        assert!(plan.decide(&g(0), 1).is_some(), "rate 1.0 must always inject");
    }

    #[test]
    fn hangs_draw_last_and_never_displace_other_faults() {
        let base = FaultPlan::new(7)
            .with_transient_rate(0.2)
            .with_timeout_rate(0.1)
            .with_corrupt_rate(0.1)
            .with_persistent_rate(0.1);
        let hanging = base.with_hang_rate(0.3);
        let mut hangs = 0;
        for x in 0..256 {
            let before = base.decide_full(&g(x), 1);
            let after = hanging.decide_full(&g(x), 1);
            match before {
                Some(fault) => assert_eq!(after, Some(fault), "hang rate displaced a fault"),
                None => {
                    assert!(matches!(after, None | Some(InjectedFault::Hang)));
                    if after == Some(InjectedFault::Hang) {
                        hangs += 1;
                    }
                }
            }
        }
        assert!(hangs > 0, "30% hang rate injected nothing over 256 genomes");
    }

    #[test]
    fn hangs_mix_the_attempt_number_so_retries_can_recover() {
        let plan = FaultPlan::new(8).with_hang_rate(0.5);
        let recovered = (0..64).any(|x| {
            plan.decide_full(&g(x), 1) == Some(InjectedFault::Hang)
                && plan.decide_full(&g(x), 2).is_none()
        });
        assert!(recovered, "at 50% some first-attempt hang should clear on attempt 2");
    }

    #[test]
    fn attempt_costs_are_deterministic_and_in_range() {
        let plan = FaultPlan::new(9);
        for x in 0..64 {
            for attempt in 1..4 {
                let cost = plan.attempt_cost_ms(&g(x), attempt);
                assert_eq!(cost, plan.attempt_cost_ms(&g(x), attempt));
                assert!((100..=2000).contains(&cost), "cost {cost} outside 100..=2000");
            }
        }
        let spread: std::collections::HashSet<u64> =
            (0..64).map(|x| plan.attempt_cost_ms(&g(x), 1)).collect();
        assert!(spread.len() > 32, "costs should vary across genomes: {}", spread.len());
    }

    #[test]
    fn supervised_attempts_hang_where_the_plan_says_and_finish_elsewhere() {
        let f = value_fn();
        let plan = FaultPlan::new(10).with_hang_rate(0.4);
        let eval = FaultyEvaluator::new(&f, plan);
        let mut saw_hang = false;
        let mut saw_finish = false;
        for x in 0..64 {
            match eval.attempt(&g(x), 1) {
                AttemptOutcome::Hang => {
                    assert_eq!(plan.decide_full(&g(x), 1), Some(InjectedFault::Hang));
                    saw_hang = true;
                }
                AttemptOutcome::Finished { result, cost_ms } => {
                    assert_eq!(result, Ok(Some(f64::from(x))));
                    assert_eq!(cost_ms, plan.attempt_cost_ms(&g(x), 1));
                    saw_finish = true;
                }
            }
        }
        assert!(saw_hang && saw_finish, "40% hang rate should split 64 genomes both ways");
        assert_eq!(eval.injected_hangs(), eval.total_injected());
    }

    #[test]
    fn unsupervised_hangs_degrade_to_injected_timeouts() {
        let f = value_fn();
        let plan = FaultPlan::new(10).with_hang_rate(1.0);
        let eval = FaultyEvaluator::new(&f, plan);
        assert_eq!(
            eval.try_fitness(&g(1), 1, None),
            Err(EvalFailure::Timeout { elapsed_ms: 1_001, limit_ms: 1_000 })
        );
        assert_eq!(eval.injected_hangs(), 1);
        assert_eq!(eval.injected(FailureKind::Timeout), 0, "a hang is not a timeout injection");
        assert_eq!(eval.total_injected(), 1);
    }

    #[test]
    fn crash_faults_skip_the_backend_but_corruption_charges_it() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let f = FnFitness::new(Direction::Maximize, |g: &Genome| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some(f64::from(g.gene_at(0)))
        });
        let crash = FaultyEvaluator::new(&f, FaultPlan::new(6).with_transient_rate(1.0));
        assert!(crash.try_fitness(&g(1), 1, None).is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 0, "crashed backend must not be charged");
        assert_eq!(crash.injected(FailureKind::Transient), 1);

        let corrupt = FaultyEvaluator::new(&f, FaultPlan::new(6).with_corrupt_rate(1.0));
        let out = corrupt.try_fitness(&g(1), 1, None).unwrap().unwrap();
        assert!(out.is_nan(), "corruption should return garbage, not an error");
        assert_eq!(calls.load(Ordering::Relaxed), 1, "corrupted run still charged the backend");
        assert_eq!(corrupt.injected(FailureKind::Corrupted), 1);
    }
}
