//! Fault-tolerant evaluation: failure kinds, retry policy, and the
//! fallible-evaluator boundary.
//!
//! Real IP-generator backends crash, hang and emit garbage; the paper's
//! assumption that every synthesis run completes with trustworthy metrics
//! does not survive contact with production EDA farms. This module gives
//! the engine a `Result`-shaped evaluation boundary ([`FallibleEvaluator`]),
//! a deterministic [`RetryPolicy`] (exponential backoff with seeded
//! jitter), and the bookkeeping ([`EvalRecord`], [`FaultStats`]) the engine
//! uses to retry, recover, or quarantine a genome with penalized fitness
//! instead of crashing the run.
//!
//! Determinism guarantee: nothing in this module draws from the run RNG.
//! Backoff jitter is derived from the genome's stable hash and the attempt
//! number, so retry behaviour — and therefore the whole search trajectory —
//! is bit-for-bit identical at any `eval_workers` setting.

use std::error::Error;
use std::fmt;

use nautilus_obs::FailureKind;

use crate::genome::Genome;
use crate::rng::{hash_combine, mix_to_unit};

/// Salt separating backoff-jitter hashing from every other consumer of
/// [`Genome::stable_hash`].
const JITTER_SALT: u64 = 0x6a69_7474_6572_u64; // "jitter"

/// Why one evaluation attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EvalFailure {
    /// A transient backend fault (crashed worker, lost connection, flaky
    /// filesystem); a retry may succeed.
    Transient(String),
    /// The attempt exceeded its deadline. Retryable: the next attempt may
    /// land on a less loaded backend.
    Timeout {
        /// Milliseconds the attempt ran before being abandoned.
        elapsed_ms: u64,
        /// The deadline it exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The backend completed but returned garbage metrics (non-finite
    /// values, inconsistent reports). Not retryable: a deterministic
    /// backend reproduces the same garbage.
    Corrupted(String),
    /// The backend rejects this design permanently (unsupported parameter
    /// combination, licensing); retrying cannot help.
    Persistent(String),
}

impl EvalFailure {
    /// The observability-side kind label for this failure.
    #[must_use]
    pub fn kind(&self) -> FailureKind {
        match self {
            EvalFailure::Transient(_) => FailureKind::Transient,
            EvalFailure::Timeout { .. } => FailureKind::Timeout,
            EvalFailure::Corrupted(_) => FailureKind::Corrupted,
            EvalFailure::Persistent(_) => FailureKind::Persistent,
        }
    }

    /// Whether the retry policy is allowed to try again after this
    /// failure. Only transient faults and timeouts are worth retrying;
    /// corrupted and persistent failures quarantine immediately.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, EvalFailure::Transient(_) | EvalFailure::Timeout { .. })
    }
}

impl fmt::Display for EvalFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalFailure::Transient(msg) => write!(f, "transient evaluation failure: {msg}"),
            EvalFailure::Timeout { elapsed_ms, limit_ms } => {
                write!(f, "evaluation timed out after {elapsed_ms} ms (limit {limit_ms} ms)")
            }
            EvalFailure::Corrupted(msg) => write!(f, "corrupted evaluation result: {msg}"),
            EvalFailure::Persistent(msg) => write!(f, "persistent evaluation failure: {msg}"),
        }
    }
}

impl Error for EvalFailure {}

/// How the engine retries failed evaluation attempts.
///
/// Backoff for the retry after attempt `n` (1-based) is
/// `base_backoff_ms * backoff_multiplier^(n-1)`, clamped to
/// `max_backoff_ms`, then scaled by a deterministic jitter factor in
/// `[1 - jitter, 1 + jitter]` derived from the genome hash and attempt
/// number — seeded jitter, not wall-clock randomness, so runs replay
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per evaluation, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds. The default is 0:
    /// the simulated substrate fails instantly, so sleeping would only
    /// slow tests down. Real backends want a nonzero base.
    pub base_backoff_ms: u64,
    /// Multiplier applied to the backoff per additional retry (>= 1).
    pub backoff_multiplier: f64,
    /// Upper clamp on any single backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Jitter fraction in `[0, 1]`; 0 disables jitter.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 0,
            backoff_multiplier: 2.0,
            max_backoff_ms: 1_000,
            jitter: 0.5,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: every failure quarantines immediately.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// Checks the policy's invariants, returning a description of the
    /// first violation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if `max_attempts` is 0, the
    /// multiplier is below 1, or the jitter fraction leaves `[0, 1]`.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        if self.backoff_multiplier < 1.0 || self.backoff_multiplier.is_nan() {
            return Err(format!("backoff_multiplier {} must be >= 1", self.backoff_multiplier));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(format!("jitter {} outside [0, 1]", self.jitter));
        }
        Ok(())
    }

    /// The jittered backoff before the retry that follows failed attempt
    /// `attempt` (1-based), in nanoseconds.
    ///
    /// `genome_hash` should be [`Genome::stable_hash`] output; the same
    /// (genome, attempt) pair always produces the same backoff.
    #[must_use]
    pub fn backoff_nanos(&self, genome_hash: u64, attempt: u32) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp =
            self.backoff_multiplier.powi(attempt.saturating_sub(1).min(i32::MAX as u32) as i32);
        // `powi` overflows to infinity well before attempt 64 for large
        // multipliers (and a pathological multiplier can yield NaN); a
        // non-finite product must land on the cap, never poison the cast
        // below into 0.
        let raw = self.base_backoff_ms as f64 * exp;
        let capped = if raw.is_finite() {
            raw.min(self.max_backoff_ms as f64)
        } else {
            self.max_backoff_ms as f64
        };
        let unit = mix_to_unit(hash_combine(genome_hash ^ JITTER_SALT, u64::from(attempt)));
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * unit;
        let ms = (capped * factor).max(0.0);
        (ms * 1e6).min(u64::MAX as f64 / 2.0) as u64
    }
}

/// The backoff [`evaluate_with_retries`] would apply after failed attempt
/// `attempt` (1-based) of `genome`, in nanoseconds.
///
/// Exposed so the supervised (virtual-time) retry loop,
/// [`SuperviseSession::resolve`](crate::SuperviseSession::resolve),
/// reports backoff telemetry identical to the wall-clock loop's without
/// duplicating the jitter derivation.
#[must_use]
pub fn retry_backoff(policy: &RetryPolicy, genome: &Genome, attempt: u32) -> u64 {
    policy.backoff_nanos(genome.stable_hash(JITTER_SALT), attempt)
}

/// An evaluator whose attempts can fail.
///
/// This is the fault-tolerant sibling of [`crate::FitnessFn`]:
/// `Ok(Some(v))` is a feasible metric value, `Ok(None)` an infeasible
/// design point (the generator cleanly refused the combination), and
/// `Err` a failed attempt the engine may retry. The 1-based `attempt`
/// number lets deterministic fault injectors decide per-attempt outcomes
/// independent of scheduling.
pub trait FallibleEvaluator: Send + Sync {
    /// Evaluates `genome`, or reports why this attempt failed.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalFailure`] describing the failed attempt.
    fn try_fitness(&self, genome: &Genome, attempt: u32) -> Result<Option<f64>, EvalFailure>;
}

/// Adapts a closure into a [`FallibleEvaluator`] (handy in tests).
pub struct FnFallible<F> {
    f: F,
}

impl<F> FnFallible<F>
where
    F: Fn(&Genome, u32) -> Result<Option<f64>, EvalFailure> + Send + Sync,
{
    /// Wraps `f` as a fallible evaluator.
    pub fn new(f: F) -> Self {
        FnFallible { f }
    }
}

impl<F> FallibleEvaluator for FnFallible<F>
where
    F: Fn(&Genome, u32) -> Result<Option<f64>, EvalFailure> + Send + Sync,
{
    fn try_fitness(&self, genome: &Genome, attempt: u32) -> Result<Option<f64>, EvalFailure> {
        (self.f)(genome, attempt)
    }
}

impl<F> fmt::Debug for FnFallible<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnFallible").finish_non_exhaustive()
    }
}

/// The full outcome of evaluating one genome through the retry loop.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// `Some(value)` once an attempt succeeded (inner `None` = infeasible);
    /// `None` when every attempt failed and the genome is quarantined.
    pub value: Option<Option<f64>>,
    /// One entry per failed attempt, in attempt order.
    pub failures: Vec<EvalFailure>,
    /// Backoff applied before each retry, in nanoseconds (one entry per
    /// retry; always `failures.len()` or `failures.len() - 1` entries).
    pub backoffs_nanos: Vec<u64>,
}

impl EvalRecord {
    /// A record for an evaluation that succeeded first try.
    #[must_use]
    pub fn evaluated(value: Option<f64>) -> Self {
        EvalRecord { value: Some(value), failures: Vec::new(), backoffs_nanos: Vec::new() }
    }

    /// Whether every attempt failed.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        self.value.is_none()
    }
}

/// Runs the retry loop for one genome.
///
/// Semantics, in order:
///
/// 1. `Ok(Some(v))` with non-finite `v` is treated as
///    [`EvalFailure::Corrupted`] — garbage metrics must never enter the
///    cache as fitness.
/// 2. A retryable failure with attempts remaining records a backoff
///    (sleeping only if nonzero) and tries again.
/// 3. A non-retryable failure, or retry exhaustion, quarantines.
///
/// Nothing here reads a clock: a per-attempt deadline belongs to the
/// evaluator (the supervised watchdog, or a tool boundary's I/O timeout),
/// which reports an overrun as [`EvalFailure::Timeout`].
#[must_use]
pub fn evaluate_with_retries(
    eval: &dyn FallibleEvaluator,
    genome: &Genome,
    policy: &RetryPolicy,
) -> EvalRecord {
    let max_attempts = policy.max_attempts.max(1);
    let genome_hash = genome.stable_hash(JITTER_SALT);
    let mut failures = Vec::new();
    let mut backoffs_nanos = Vec::new();
    for attempt in 1..=max_attempts {
        let mut result = eval.try_fitness(genome, attempt);
        if let Ok(Some(v)) = result {
            if !v.is_finite() {
                result = Err(EvalFailure::Corrupted(format!("non-finite fitness {v}")));
            }
        }
        match result {
            Ok(value) => return EvalRecord { value: Some(value), failures, backoffs_nanos },
            Err(failure) => {
                let retryable = failure.is_retryable();
                failures.push(failure);
                if !retryable || attempt == max_attempts {
                    return EvalRecord { value: None, failures, backoffs_nanos };
                }
                let nanos = policy.backoff_nanos(genome_hash, attempt);
                backoffs_nanos.push(nanos);
                if nanos > 0 {
                    std::thread::sleep(std::time::Duration::from_nanos(nanos));
                }
            }
        }
    }
    unreachable!("retry loop returns on success, exhaustion, or non-retryable failure")
}

/// Whole-run fault counters attached to run results.
///
/// Invariant: `evals_failed == retries_recovered + quarantined` — every
/// evaluation that saw at least one failure either recovered or was
/// quarantined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Distinct evaluations that saw at least one failed attempt.
    pub evals_failed: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Distinct evaluations that failed and then succeeded on a retry.
    pub retries_recovered: u64,
    /// Distinct evaluations abandoned after retry exhaustion (or a
    /// non-retryable failure); their genomes carry penalized fitness.
    pub quarantined: u64,
    /// Failed attempts indexed in `FailureKind::ALL` order
    /// (transient, timeout, corrupted, persistent).
    pub failed_attempts: [u64; 4],
}

impl FaultStats {
    /// Folds one finished [`EvalRecord`] into the counters. Records with
    /// no failures are free: they leave everything untouched.
    pub fn record(&mut self, record: &EvalRecord) {
        if record.failures.is_empty() {
            return;
        }
        self.evals_failed += 1;
        self.retries += record.backoffs_nanos.len() as u64;
        for failure in &record.failures {
            let idx = FailureKind::ALL.iter().position(|k| *k == failure.kind()).unwrap_or(0);
            self.failed_attempts[idx] += 1;
        }
        if record.is_quarantined() {
            self.quarantined += 1;
        } else {
            self.retries_recovered += 1;
        }
    }

    /// Failed attempts of one kind.
    #[must_use]
    pub fn failed_attempts_of(&self, kind: FailureKind) -> u64 {
        let idx = FailureKind::ALL.iter().position(|k| *k == kind).unwrap_or(0);
        self.failed_attempts[idx]
    }

    /// Total failed attempts across all kinds.
    #[must_use]
    pub fn total_failed_attempts(&self) -> u64 {
        self.failed_attempts.iter().sum()
    }

    /// Whether the failed/recovered/quarantined accounting reconciles.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.evals_failed == self.retries_recovered + self.quarantined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::check_cases;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn g(x: u32) -> Genome {
        Genome::from_genes(vec![x])
    }

    #[test]
    fn failure_kinds_and_retryability_line_up() {
        let cases: [(EvalFailure, FailureKind, bool); 4] = [
            (EvalFailure::Transient("boom".into()), FailureKind::Transient, true),
            (EvalFailure::Timeout { elapsed_ms: 1500, limit_ms: 1000 }, FailureKind::Timeout, true),
            (EvalFailure::Corrupted("NaN".into()), FailureKind::Corrupted, false),
            (EvalFailure::Persistent("unsupported".into()), FailureKind::Persistent, false),
        ];
        for (failure, kind, retryable) in cases {
            assert_eq!(failure.kind(), kind);
            assert_eq!(failure.is_retryable(), retryable, "{failure}");
        }
    }

    #[test]
    fn display_messages_cover_every_variant() {
        assert_eq!(
            EvalFailure::Transient("worker died".into()).to_string(),
            "transient evaluation failure: worker died"
        );
        assert_eq!(
            EvalFailure::Timeout { elapsed_ms: 1500, limit_ms: 1000 }.to_string(),
            "evaluation timed out after 1500 ms (limit 1000 ms)"
        );
        assert_eq!(
            EvalFailure::Corrupted("non-finite fitness NaN".into()).to_string(),
            "corrupted evaluation result: non-finite fitness NaN"
        );
        assert_eq!(
            EvalFailure::Persistent("license".into()).to_string(),
            "persistent evaluation failure: license"
        );
    }

    #[test]
    fn eval_failure_is_a_source_free_error() {
        let failure: Box<dyn Error> = Box::new(EvalFailure::Transient("x".into()));
        assert!(failure.source().is_none());
        assert!(!failure.to_string().is_empty());
    }

    #[test]
    fn default_policy_is_valid_and_none_disables_retries() {
        assert!(RetryPolicy::default().validate().is_ok());
        let none = RetryPolicy::none();
        assert_eq!(none.max_attempts, 1);
        assert!(none.validate().is_ok());
    }

    #[test]
    fn invalid_policies_are_described() {
        let zero = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert!(zero.validate().unwrap_err().contains("max_attempts"));
        let shrink = RetryPolicy { backoff_multiplier: 0.5, ..RetryPolicy::default() };
        assert!(shrink.validate().unwrap_err().contains("backoff_multiplier"));
        let wild = RetryPolicy { jitter: 1.5, ..RetryPolicy::default() };
        assert!(wild.validate().unwrap_err().contains("jitter"));
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy {
            base_backoff_ms: 10,
            backoff_multiplier: 2.0,
            max_backoff_ms: 1_000,
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let hash = g(3).stable_hash(0);
        for attempt in 1..=10 {
            let a = policy.backoff_nanos(hash, attempt);
            let b = policy.backoff_nanos(hash, attempt);
            assert_eq!(a, b, "backoff must be deterministic");
            // Raw backoff clamped to 1s, jitter at most +50%.
            assert!(a <= 1_500_000_000, "backoff {a} above jittered clamp");
        }
        // Without jitter the schedule is exactly exponential then clamped.
        let flat = RetryPolicy { jitter: 0.0, ..policy };
        assert_eq!(flat.backoff_nanos(hash, 1), 10_000_000);
        assert_eq!(flat.backoff_nanos(hash, 2), 20_000_000);
        assert_eq!(flat.backoff_nanos(hash, 8), 1_000_000_000);
    }

    #[test]
    fn jitter_varies_with_genome_but_not_with_repetition() {
        let policy = RetryPolicy { base_backoff_ms: 100, ..RetryPolicy::default() };
        let a = policy.backoff_nanos(g(1).stable_hash(0), 1);
        let b = policy.backoff_nanos(g(2).stable_hash(0), 1);
        assert_ne!(a, b, "different genomes should jitter differently");
    }

    #[test]
    fn zero_base_backoff_never_sleeps() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_nanos(12345, 1), 0);
    }

    #[test]
    fn transient_failures_recover_within_budget() {
        let calls = AtomicU32::new(0);
        let eval = FnFallible::new(|_: &Genome, attempt: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            if attempt < 3 {
                Err(EvalFailure::Transient("flaky".into()))
            } else {
                Ok(Some(7.0))
            }
        });
        let record = evaluate_with_retries(&eval, &g(1), &RetryPolicy::default());
        assert_eq!(record.value, Some(Some(7.0)));
        assert_eq!(record.failures.len(), 2);
        assert_eq!(record.backoffs_nanos.len(), 2);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert!(!record.is_quarantined());
    }

    #[test]
    fn exhausted_retries_quarantine() {
        let eval = FnFallible::new(|_: &Genome, _| Err(EvalFailure::Transient("down".into())));
        let record = evaluate_with_retries(&eval, &g(2), &RetryPolicy::default());
        assert!(record.is_quarantined());
        assert_eq!(record.failures.len(), 3, "one failure per attempt");
        assert_eq!(record.backoffs_nanos.len(), 2, "no backoff after the final attempt");
    }

    #[test]
    fn persistent_failures_skip_retries() {
        let calls = AtomicU32::new(0);
        let eval = FnFallible::new(|_: &Genome, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(EvalFailure::Persistent("rejected".into()))
        });
        let record = evaluate_with_retries(&eval, &g(3), &RetryPolicy::default());
        assert!(record.is_quarantined());
        assert_eq!(calls.load(Ordering::Relaxed), 1, "persistent failures must not retry");
        assert!(record.backoffs_nanos.is_empty());
    }

    #[test]
    fn non_finite_success_is_corrupted_and_quarantines() {
        let eval = FnFallible::new(|_: &Genome, _| Ok(Some(f64::NAN)));
        let record = evaluate_with_retries(&eval, &g(4), &RetryPolicy::default());
        assert!(record.is_quarantined());
        assert_eq!(record.failures.len(), 1);
        assert_eq!(record.failures[0].kind(), FailureKind::Corrupted);
    }

    #[test]
    fn infeasible_is_a_success_not_a_failure() {
        let eval = FnFallible::new(|_: &Genome, _| Ok(None));
        let record = evaluate_with_retries(&eval, &g(5), &RetryPolicy::default());
        assert_eq!(record.value, Some(None));
        assert!(record.failures.is_empty());
    }

    #[test]
    fn backoff_survives_extreme_multipliers_without_overflow() {
        // multiplier^63 overflows f64 to infinity; the clamp must land on
        // the cap instead of poisoning the cast.
        let policy = RetryPolicy {
            base_backoff_ms: 10,
            backoff_multiplier: 1e9,
            max_backoff_ms: 1_000,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let hash = g(3).stable_hash(0);
        assert_eq!(policy.backoff_nanos(hash, 64), 1_000_000_000);
        assert_eq!(policy.backoff_nanos(hash, u32::MAX), 1_000_000_000);
    }

    #[test]
    fn backoff_is_monotone_and_finite_up_to_attempt_64() {
        check_cases("backoff_is_monotone_and_finite_up_to_attempt_64", 256, |rng| {
            let base = rng.below(10_000);
            let mult = 1.0 + (1e9 - 1.0) * rng.unit();
            let max = rng.below(10_000_000);
            let hash = rng.next_u64();
            let policy = RetryPolicy {
                base_backoff_ms: base,
                backoff_multiplier: mult,
                max_backoff_ms: max,
                jitter: 0.0,
                ..RetryPolicy::default()
            };
            let cap_nanos = max.saturating_mul(1_000_000);
            let mut prev = 0u64;
            for attempt in 1..=64u32 {
                let nanos = policy.backoff_nanos(hash, attempt);
                assert!(nanos >= prev, "backoff shrank at attempt {attempt}: {nanos} < {prev}");
                assert!(
                    nanos <= cap_nanos,
                    "backoff {nanos} above cap {cap_nanos} at attempt {attempt}"
                );
                prev = nanos;
            }
        });
    }

    #[test]
    fn jittered_backoff_stays_within_the_jittered_cap() {
        check_cases("jittered_backoff_stays_within_the_jittered_cap", 256, |rng| {
            let base = 1 + rng.below(10_000 - 1);
            let mult = 1.0 + (1e9 - 1.0) * rng.unit();
            let max = 1 + rng.below(10_000_000 - 1);
            let jitter = rng.unit();
            let hash = rng.next_u64();
            let policy = RetryPolicy {
                base_backoff_ms: base,
                backoff_multiplier: mult,
                max_backoff_ms: max,
                jitter,
                ..RetryPolicy::default()
            };
            // +1 absorbs f64 rounding at the boundary.
            let bound = ((max as f64) * (1.0 + jitter) * 1e6) as u64 + 1;
            for attempt in [1u32, 2, 7, 33, 64] {
                let nanos = policy.backoff_nanos(hash, attempt);
                assert!(
                    nanos <= bound,
                    "backoff {nanos} above jittered bound {bound} at attempt {attempt}"
                );
            }
        });
    }

    #[test]
    fn fault_stats_reconcile_over_mixed_records() {
        let mut stats = FaultStats::default();
        stats.record(&EvalRecord::evaluated(Some(1.0))); // clean: no-op
        stats.record(&EvalRecord {
            value: Some(Some(2.0)),
            failures: vec![EvalFailure::Transient("a".into())],
            backoffs_nanos: vec![0],
        });
        stats.record(&EvalRecord {
            value: None,
            failures: vec![
                EvalFailure::Timeout { elapsed_ms: 2, limit_ms: 1 },
                EvalFailure::Persistent("b".into()),
            ],
            backoffs_nanos: vec![0],
        });
        assert_eq!(stats.evals_failed, 2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.retries_recovered, 1);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.total_failed_attempts(), 3);
        assert_eq!(stats.failed_attempts_of(FailureKind::Transient), 1);
        assert_eq!(stats.failed_attempts_of(FailureKind::Timeout), 1);
        assert_eq!(stats.failed_attempts_of(FailureKind::Persistent), 1);
        assert!(stats.reconciles());
    }
}
