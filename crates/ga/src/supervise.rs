//! Supervised evaluation: watchdog-enforced deadlines, straggler hedging,
//! and a circuit breaker with cache-only degraded mode.
//!
//! The retry layer in [`crate::fallible`] reads no clock: it sees an
//! attempt only once it returns, so a hung backend wedges an eval worker
//! forever. This module adds preemptive supervision around the engine's
//! prefetched evaluation of each generation's misses:
//!
//! * **Watchdog** — every attempt carries a hard deadline
//!   ([`WatchdogPolicy::deadline_ms`]). An attempt that hangs, or
//!   finishes only after the deadline, is abandoned and surfaced as
//!   [`EvalFailure::Timeout`], feeding the existing retry/quarantine
//!   machinery. A late result is *discarded*, never cached.
//! * **Straggler hedging** — once a batch is mostly complete
//!   ([`HedgePolicy::completion_threshold`]) and an attempt has run
//!   longer than [`HedgePolicy::straggler_multiplier`] × the batch's
//!   running median, a hedged duplicate is dispatched and the first
//!   completion wins. The loser is charged to `hedges_wasted`, keeping
//!   the identity `hedges_issued == hedges_won + hedges_wasted`.
//! * **Circuit breaker** — a Closed→Open→HalfOpen health state machine
//!   over the backend. A sustained failure rate trips it open; while
//!   open the engine degrades to cache-only operation (misses are shed:
//!   quarantined without consuming retry budget). Half-open probes
//!   recover the breaker once the backend heals.
//!
//! # Determinism contract
//!
//! Supervision decisions never consult a wall clock. Each attempt
//! reports a deterministic *virtual* duration
//! ([`AttemptOutcome::Finished`]`::cost_ms`, derived by the fault plan
//! from the genome hash), or hangs symbolically
//! ([`AttemptOutcome::Hang`]). Watchdog conversion, hedge triggering
//! (first-completion-wins is decided purely by virtual completion
//! times) and breaker transitions (counter-driven, never clock-driven)
//! are therefore bit-for-bit identical at every `eval_workers` setting.
//! A real tool that hangs is a process boundary's problem: the NAUTPROC
//! evaluator (`nautilus-proc`) kills and respawns a child that misses its
//! I/O timeout and reports the attempt as a timeout.

use std::collections::VecDeque;

use nautilus_obs::{HealthState, SearchEvent, SearchObserver, WireError, WireReader, WireWriter};

use crate::fallible::{retry_backoff, EvalFailure, EvalRecord, FallibleEvaluator, RetryPolicy};
use crate::genome::Genome;

/// Bit OR-ed into the attempt number of a hedged duplicate, so
/// deterministic fault injectors draw a *different* fate for the hedge
/// than for its straggling primary.
pub const HEDGE_ATTEMPT_BIT: u32 = 1 << 30;

/// The outcome of one supervised evaluation attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt produced a result after `cost_ms` of (virtual or
    /// measured) wall-clock work.
    Finished {
        /// The attempt's result, in [`FallibleEvaluator`] terms.
        result: Result<Option<f64>, EvalFailure>,
        /// How long the attempt ran, in milliseconds. Durations above
        /// the watchdog deadline mean the result arrived too late and
        /// will be discarded.
        cost_ms: u64,
    },
    /// The attempt never completes: only the watchdog deadline ends it.
    Hang,
}

/// An evaluator whose attempts can hang, supervised per attempt.
///
/// This is the supervision-aware sibling of [`FallibleEvaluator`]: in
/// addition to failing, an attempt may report its (virtual) duration or
/// hang outright. Implementations must be deterministic in
/// `(genome, attempt)` for the engine's cross-worker determinism
/// guarantee to hold.
pub trait SupervisableEvaluator: Send + Sync {
    /// Runs attempt `attempt` (1-based; hedges carry
    /// [`HEDGE_ATTEMPT_BIT`]) for `genome`.
    fn attempt(&self, genome: &Genome, attempt: u32) -> AttemptOutcome;
}

/// Adapts any [`FallibleEvaluator`] into a [`SupervisableEvaluator`]
/// that never hangs and completes instantly (virtual duration 0).
pub struct NeverHangs<'a>(pub &'a dyn FallibleEvaluator);

impl std::fmt::Debug for NeverHangs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeverHangs").finish_non_exhaustive()
    }
}

impl SupervisableEvaluator for NeverHangs<'_> {
    fn attempt(&self, genome: &Genome, attempt: u32) -> AttemptOutcome {
        AttemptOutcome::Finished { result: self.0.try_fitness(genome, attempt, None), cost_ms: 0 }
    }
}

/// Hard per-attempt deadline enforced by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Wall-clock (or virtual) milliseconds an attempt may run before it
    /// is abandoned as [`EvalFailure::Timeout`].
    pub deadline_ms: u64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy { deadline_ms: 10_000 }
    }
}

/// When to dispatch a hedged duplicate for a straggling attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Fraction of the batch that must already be resolved before any
    /// hedge is considered (the median is meaningless early on).
    pub completion_threshold: f64,
    /// An attempt is a straggler once it has run longer than this
    /// multiple of the batch's running median attempt duration.
    pub straggler_multiplier: f64,
    /// Minimum completed-attempt duration samples before the running
    /// median is trusted.
    pub min_samples: usize,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy { completion_threshold: 0.5, straggler_multiplier: 2.0, min_samples: 5 }
    }
}

/// Circuit-breaker trip, cooldown and recovery thresholds.
///
/// The breaker is counter-driven, never clock-driven: cooldown is
/// measured in shed evaluations, not elapsed time, so transitions replay
/// identically at any worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Sliding window length over recent effective attempts.
    pub window: usize,
    /// Minimum window occupancy before the failure rate is evaluated.
    pub min_samples: usize,
    /// Failure fraction within the window that trips Closed → Open.
    pub trip_failure_rate: f64,
    /// Evaluations shed while Open before the breaker half-opens.
    pub cooldown_sheds: u64,
    /// Probe evaluations admitted per batch while HalfOpen.
    pub probe_quota: u64,
    /// Consecutive probe successes that close the breaker.
    pub probes_to_close: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            window: 16,
            min_samples: 8,
            trip_failure_rate: 0.6,
            cooldown_sheds: 8,
            probe_quota: 3,
            probes_to_close: 3,
        }
    }
}

/// All supervision knobs in one bundle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SupervisePolicy {
    /// Per-attempt watchdog deadline.
    pub watchdog: WatchdogPolicy,
    /// Straggler-hedging thresholds.
    pub hedge: HedgePolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerPolicy,
}

impl SupervisePolicy {
    /// Checks the policy's invariants, returning a description of the
    /// first violation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when any threshold is outside
    /// its meaningful range.
    pub fn validate(&self) -> Result<(), String> {
        if self.watchdog.deadline_ms == 0 {
            return Err("watchdog deadline_ms must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.hedge.completion_threshold) {
            return Err(format!(
                "hedge completion_threshold {} outside [0, 1]",
                self.hedge.completion_threshold
            ));
        }
        if !self.hedge.straggler_multiplier.is_finite() || self.hedge.straggler_multiplier < 1.0 {
            return Err(format!(
                "hedge straggler_multiplier {} must be finite and >= 1",
                self.hedge.straggler_multiplier
            ));
        }
        if self.hedge.min_samples == 0 {
            return Err("hedge min_samples must be at least 1".into());
        }
        let b = &self.breaker;
        if b.window == 0 {
            return Err("breaker window must be at least 1".into());
        }
        if b.min_samples == 0 || b.min_samples > b.window {
            return Err(format!(
                "breaker min_samples {} must be in 1..={}",
                b.min_samples, b.window
            ));
        }
        if !(b.trip_failure_rate > 0.0 && b.trip_failure_rate <= 1.0) {
            return Err(format!(
                "breaker trip_failure_rate {} outside (0, 1]",
                b.trip_failure_rate
            ));
        }
        if b.probe_quota == 0 {
            return Err("breaker probe_quota must be at least 1".into());
        }
        if b.probes_to_close == 0 {
            return Err("breaker probes_to_close must be at least 1".into());
        }
        Ok(())
    }
}

/// Whole-run supervision counters.
///
/// Invariant: `hedges_issued == hedges_won + hedges_wasted` — every hedge
/// resolves exactly once ([`SuperviseStats::reconciles`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Primary attempts run under supervision.
    pub attempts_supervised: u64,
    /// Attempts abandoned at the watchdog deadline.
    pub watchdog_fired: u64,
    /// Watchdog firings where the attempt completed late and its result
    /// was discarded.
    pub late_results_discarded: u64,
    /// Hedged duplicates dispatched.
    pub hedges_issued: u64,
    /// Hedges that beat their straggling primary.
    pub hedges_won: u64,
    /// Hedges that lost the completion race.
    pub hedges_wasted: u64,
    /// Breaker transitions into Open.
    pub breaker_trips: u64,
    /// Breaker recoveries (HalfOpen → Closed).
    pub breaker_recoveries: u64,
    /// Probe evaluations run while HalfOpen.
    pub breaker_probes: u64,
    /// Evaluations shed (quarantined on miss) while Open.
    pub evals_shed: u64,
}

impl SuperviseStats {
    /// Whether the hedging identity reconciles.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.hedges_issued == self.hedges_won + self.hedges_wasted
    }
}

/// How the breaker disposed of one admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Evaluate normally (breaker Closed).
    Evaluate,
    /// Evaluate as a half-open probe: the final record's success or
    /// failure drives recovery.
    Probe,
    /// Do not evaluate: quarantine the miss without consuming retry
    /// budget (breaker Open, or HalfOpen with the probe quota spent).
    Shed,
}

/// The Closed→Open→HalfOpen health state machine over the backend.
///
/// Counter-driven by design: the failure window advances per effective
/// attempt, cooldown per shed, recovery per probe — never per clock
/// tick — so the same event sequence replays the same transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: HealthState,
    /// Recent effective-attempt outcomes while Closed (`true` = failed).
    window: VecDeque<bool>,
    sheds_in_open: u64,
    probe_successes: u64,
    probes_admitted_this_batch: u64,
}

impl CircuitBreaker {
    /// A closed breaker with an empty window.
    #[must_use]
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: HealthState::Closed,
            window: VecDeque::new(),
            sheds_in_open: 0,
            probe_successes: 0,
            probes_admitted_this_batch: 0,
        }
    }

    /// Current health state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Resets per-batch admission state (the probe quota).
    pub fn begin_batch(&mut self) {
        self.probes_admitted_this_batch = 0;
    }

    /// Decides the fate of one cache miss, advancing cooldown/probe
    /// counters. Returns the admission plus any state transition taken
    /// at admission time (Open → HalfOpen once the cooldown elapses).
    pub fn admit(&mut self) -> (Admission, Option<(HealthState, HealthState)>) {
        let mut transition = None;
        if self.state == HealthState::Open && self.sheds_in_open >= self.policy.cooldown_sheds {
            self.state = HealthState::HalfOpen;
            self.probe_successes = 0;
            transition = Some((HealthState::Open, HealthState::HalfOpen));
        }
        let admission = match self.state {
            HealthState::Closed => Admission::Evaluate,
            HealthState::Open => {
                self.sheds_in_open += 1;
                Admission::Shed
            }
            HealthState::HalfOpen => {
                if self.probes_admitted_this_batch < self.policy.probe_quota {
                    self.probes_admitted_this_batch += 1;
                    Admission::Probe
                } else {
                    Admission::Shed
                }
            }
        };
        (admission, transition)
    }

    /// Records one effective attempt's outcome into the failure window.
    /// Only meaningful while Closed; returns the Closed → Open
    /// transition when the failure rate trips.
    pub fn record_outcome(&mut self, failed: bool) -> Option<(HealthState, HealthState)> {
        if self.state != HealthState::Closed {
            return None;
        }
        self.window.push_back(failed);
        while self.window.len() > self.policy.window {
            self.window.pop_front();
        }
        let failures = self.window.iter().filter(|f| **f).count();
        if self.window.len() >= self.policy.min_samples
            && failures as f64 / self.window.len() as f64 >= self.policy.trip_failure_rate
        {
            self.window.clear();
            self.sheds_in_open = 0;
            self.state = HealthState::Open;
            return Some((HealthState::Closed, HealthState::Open));
        }
        None
    }

    /// Records one probe result while HalfOpen: enough consecutive
    /// successes close the breaker, any failure re-opens it.
    pub fn record_probe(&mut self, success: bool) -> Option<(HealthState, HealthState)> {
        if self.state != HealthState::HalfOpen {
            return None;
        }
        if success {
            self.probe_successes += 1;
            if self.probe_successes >= self.policy.probes_to_close {
                self.state = HealthState::Closed;
                self.window.clear();
                return Some((HealthState::HalfOpen, HealthState::Closed));
            }
            None
        } else {
            self.state = HealthState::Open;
            self.sheds_in_open = 0;
            self.probe_successes = 0;
            Some((HealthState::HalfOpen, HealthState::Open))
        }
    }
}

/// Immutable supervision front-end the engine borrows: the evaluator
/// plus the policy bundle. Mutable per-run state lives in
/// [`SuperviseSession`], which the engine creates (or restores from a
/// checkpoint aux blob) inside each run.
pub struct Supervisor<'a> {
    eval: &'a dyn SupervisableEvaluator,
    policy: SupervisePolicy,
}

impl<'a> Supervisor<'a> {
    /// Supervises `eval` with the default policy.
    #[must_use]
    pub fn new(eval: &'a dyn SupervisableEvaluator) -> Self {
        Supervisor { eval, policy: SupervisePolicy::default() }
    }

    /// Replaces the policy bundle.
    #[must_use]
    pub fn with_policy(mut self, policy: SupervisePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active policy bundle.
    #[must_use]
    pub fn policy(&self) -> &SupervisePolicy {
        &self.policy
    }

    /// The supervised evaluator.
    #[must_use]
    pub fn evaluator(&self) -> &'a dyn SupervisableEvaluator {
        self.eval
    }

    /// Worker-side precomputation: runs attempts `1..=max_attempts` for
    /// `genome`, stopping at the first terminal outcome (a success that
    /// beats the deadline, or a non-retryable failure).
    ///
    /// The merge loop ([`SuperviseSession::resolve`]) replays these
    /// outcomes in deterministic first-occurrence order; hedges and
    /// post-hedge retries beyond the precomputed slice are evaluated
    /// inline there.
    #[must_use]
    pub fn precompute(&self, retry: &RetryPolicy, genome: &Genome) -> Vec<AttemptOutcome> {
        let max_attempts = retry.max_attempts.max(1);
        let deadline = self.policy.watchdog.deadline_ms;
        let mut out = Vec::new();
        for attempt in 1..=max_attempts {
            let outcome = self.eval.attempt(genome, attempt);
            let terminal = match &outcome {
                AttemptOutcome::Hang => false,
                AttemptOutcome::Finished { result, cost_ms } => match result {
                    Ok(_) => *cost_ms <= deadline,
                    Err(e) => !e.is_retryable(),
                },
            };
            out.push(outcome);
            if terminal {
                break;
            }
        }
        out
    }
}

impl std::fmt::Debug for Supervisor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor").field("policy", &self.policy).finish_non_exhaustive()
    }
}

/// Version tag for the [`SuperviseSession::snapshot_bytes`] wire format.
const SESSION_SNAPSHOT_VERSION: u32 = 1;

/// Mutable per-run supervision state: the circuit breaker, whole-run
/// counters, and per-batch hedging state.
///
/// The engine drives it per scoring batch: [`SuperviseSession::begin_batch`],
/// then one [`SuperviseSession::admit`] per distinct cache miss (in
/// first-occurrence order), then one [`SuperviseSession::resolve`] per
/// admitted miss (same order). All observer events are emitted here, on
/// the merge thread, so streams replay identically at any worker count.
#[derive(Debug)]
pub struct SuperviseSession {
    policy: SupervisePolicy,
    breaker: CircuitBreaker,
    stats: SuperviseStats,
    // Per-batch hedging state (reset by `begin_batch`; deliberately not
    // persisted — checkpoints land on generation boundaries, between
    // batches).
    admitted_total: usize,
    resolved_genomes: usize,
    /// Sorted effective-attempt durations observed this batch.
    durations: Vec<u64>,
}

impl SuperviseSession {
    /// A fresh session (breaker Closed, all counters zero).
    #[must_use]
    pub fn new(policy: SupervisePolicy) -> Self {
        SuperviseSession {
            breaker: CircuitBreaker::new(policy.breaker),
            policy,
            stats: SuperviseStats::default(),
            admitted_total: 0,
            resolved_genomes: 0,
            durations: Vec::new(),
        }
    }

    /// Whole-run supervision counters so far.
    #[must_use]
    pub fn stats(&self) -> SuperviseStats {
        self.stats
    }

    /// Current breaker health state.
    #[must_use]
    pub fn health(&self) -> HealthState {
        self.breaker.state()
    }

    /// Starts a new scoring batch, resetting hedging state and the probe
    /// quota.
    pub fn begin_batch(&mut self) {
        self.admitted_total = 0;
        self.resolved_genomes = 0;
        self.durations.clear();
        self.breaker.begin_batch();
    }

    /// Decides the fate of one cache miss at batch start. Emits breaker
    /// transitions and [`SearchEvent::EvalShed`] on the spot; the caller
    /// quarantines shed genomes without evaluating them.
    pub fn admit(&mut self, obs: &dyn SearchObserver) -> Admission {
        let (admission, transition) = self.breaker.admit();
        if let Some((from, to)) = transition {
            self.note_transition(from, to, obs);
        }
        match admission {
            Admission::Shed => {
                self.stats.evals_shed += 1;
                if obs.enabled() {
                    obs.on_event(&SearchEvent::EvalShed);
                }
            }
            Admission::Evaluate | Admission::Probe => self.admitted_total += 1,
        }
        admission
    }

    /// Runs the supervised (virtual-time) retry loop for one admitted
    /// miss, consuming worker-precomputed outcomes and evaluating hedges
    /// and post-hedge retries inline.
    ///
    /// Mirrors [`crate::fallible::evaluate_with_retries`] except that
    /// (a) each attempt runs under the watchdog deadline — a late success
    /// is discarded as a timeout, because the watchdog already abandoned
    /// the attempt — and (b) backoffs are recorded but never slept:
    /// supervised time is virtual.
    pub fn resolve(
        &mut self,
        eval: &dyn SupervisableEvaluator,
        retry: &RetryPolicy,
        genome: &Genome,
        precomputed: &[AttemptOutcome],
        probe: bool,
        obs: &dyn SearchObserver,
    ) -> EvalRecord {
        let deadline = self.policy.watchdog.deadline_ms;
        let max_attempts = retry.max_attempts.max(1);
        let mut failures = Vec::new();
        let mut backoffs_nanos = Vec::new();
        let mut value: Option<Option<f64>> = None;
        for attempt in 1..=max_attempts {
            self.stats.attempts_supervised += 1;
            let outcome = precomputed
                .get(attempt as usize - 1)
                .cloned()
                .unwrap_or_else(|| eval.attempt(genome, attempt));
            let (mut dur, mut result, mut fired) = watchdog_convert(outcome, deadline);

            // Straggler hedging: first completion wins, decided purely
            // by virtual completion times (a hedge issued at `t_trig`
            // finishing after `t_trig + dur_hedge` beats a primary
            // finishing after `dur`). A hedge that hangs can never win:
            // its completion time is at least `t_trig + deadline`, and
            // the primary's is capped at `deadline`.
            let hedged = self.hedge_trigger(dur);
            if let Some(t_trig) = hedged {
                self.stats.hedges_issued += 1;
                if obs.enabled() {
                    obs.on_event(&SearchEvent::HedgeIssued { attempt });
                }
                let hedge = eval.attempt(genome, attempt | HEDGE_ATTEMPT_BIT);
                let (dur_h, result_h, fired_h) = watchdog_convert(hedge, deadline);
                let won = t_trig.saturating_add(dur_h) < dur;
                if won {
                    self.stats.hedges_won += 1;
                    dur = t_trig.saturating_add(dur_h);
                    result = result_h;
                    fired = fired_h;
                } else {
                    self.stats.hedges_wasted += 1;
                }
                if let Some(late) = fired {
                    self.stats.watchdog_fired += 1;
                    if late {
                        self.stats.late_results_discarded += 1;
                    }
                    if obs.enabled() {
                        obs.on_event(&SearchEvent::WatchdogFired {
                            attempt,
                            limit_ms: deadline,
                            late_result_discarded: late,
                        });
                    }
                }
                if obs.enabled() {
                    obs.on_event(&SearchEvent::HedgeResolved { won });
                }
            } else if let Some(late) = fired {
                self.stats.watchdog_fired += 1;
                if late {
                    self.stats.late_results_discarded += 1;
                }
                if obs.enabled() {
                    obs.on_event(&SearchEvent::WatchdogFired {
                        attempt,
                        limit_ms: deadline,
                        late_result_discarded: late,
                    });
                }
            }

            // Mirror the wall-clock loop: garbage metrics never enter
            // the cache as fitness.
            if let Ok(Some(v)) = result {
                if !v.is_finite() {
                    result = Err(EvalFailure::Corrupted(format!("non-finite fitness {v}")));
                }
            }

            self.note_duration(dur);
            if let Some((from, to)) = self.breaker.record_outcome(result.is_err()) {
                self.note_transition(from, to, obs);
            }

            match result {
                Ok(v) => {
                    value = Some(v);
                    break;
                }
                Err(failure) => {
                    let retryable = failure.is_retryable();
                    failures.push(failure);
                    if !retryable || attempt == max_attempts {
                        break;
                    }
                    backoffs_nanos.push(retry_backoff(retry, genome, attempt));
                }
            }
        }
        self.resolved_genomes += 1;
        let record = EvalRecord { value, failures, backoffs_nanos };
        if probe {
            self.stats.breaker_probes += 1;
            let success = record.value.is_some();
            if let Some((from, to)) = self.breaker.record_probe(success) {
                self.note_transition(from, to, obs);
            }
        }
        record
    }

    /// Serializes the breaker state and whole-run counters for the
    /// checkpoint aux blob. Per-batch hedging state is excluded:
    /// checkpoints land on generation boundaries, between batches.
    #[must_use]
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(SESSION_SNAPSHOT_VERSION);
        w.u32(match self.breaker.state {
            HealthState::Closed => 0,
            HealthState::Open => 1,
            HealthState::HalfOpen => 2,
        });
        w.usize(self.breaker.window.len());
        for failed in &self.breaker.window {
            w.bool(*failed);
        }
        w.u64(self.breaker.sheds_in_open);
        w.u64(self.breaker.probe_successes);
        let s = &self.stats;
        w.u64(s.attempts_supervised);
        w.u64(s.watchdog_fired);
        w.u64(s.late_results_discarded);
        w.u64(s.hedges_issued);
        w.u64(s.hedges_won);
        w.u64(s.hedges_wasted);
        w.u64(s.breaker_trips);
        w.u64(s.breaker_recoveries);
        w.u64(s.breaker_probes);
        w.u64(s.evals_shed);
        w.into_bytes()
    }

    /// Reconstructs a session from [`SuperviseSession::snapshot_bytes`]
    /// output, under the given policy.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated, malformed or
    /// unknown-version input.
    pub fn restore_bytes(policy: SupervisePolicy, bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let version = r.u32()?;
        if version != SESSION_SNAPSHOT_VERSION {
            return Err(WireError(format!("unknown supervise snapshot version {version}")));
        }
        let state = match r.u32()? {
            0 => HealthState::Closed,
            1 => HealthState::Open,
            2 => HealthState::HalfOpen,
            other => return Err(WireError(format!("unknown breaker state tag {other}"))),
        };
        let n = r.len_prefix()?;
        let mut window = VecDeque::with_capacity(n.min(1024));
        for _ in 0..n {
            window.push_back(r.bool()?);
        }
        let sheds_in_open = r.u64()?;
        let probe_successes = r.u64()?;
        let stats = SuperviseStats {
            attempts_supervised: r.u64()?,
            watchdog_fired: r.u64()?,
            late_results_discarded: r.u64()?,
            hedges_issued: r.u64()?,
            hedges_won: r.u64()?,
            hedges_wasted: r.u64()?,
            breaker_trips: r.u64()?,
            breaker_recoveries: r.u64()?,
            breaker_probes: r.u64()?,
            evals_shed: r.u64()?,
        };
        r.finish()?;
        Ok(SuperviseSession {
            breaker: CircuitBreaker {
                policy: policy.breaker,
                state,
                window,
                sheds_in_open,
                probe_successes,
                probes_admitted_this_batch: 0,
            },
            policy,
            stats,
            admitted_total: 0,
            resolved_genomes: 0,
            durations: Vec::new(),
        })
    }

    /// Updates trip/recovery counters and emits the transition event.
    fn note_transition(&mut self, from: HealthState, to: HealthState, obs: &dyn SearchObserver) {
        if to == HealthState::Open {
            self.stats.breaker_trips += 1;
        }
        if from == HealthState::HalfOpen && to == HealthState::Closed {
            self.stats.breaker_recoveries += 1;
        }
        if obs.enabled() {
            obs.on_event(&SearchEvent::BreakerTransition { from, to });
        }
    }

    /// Whether to hedge an attempt of effective duration `dur`; returns
    /// the virtual hedge-issue time `straggler_multiplier × median`.
    fn hedge_trigger(&self, dur: u64) -> Option<u64> {
        let h = &self.policy.hedge;
        if self.admitted_total == 0 || self.durations.len() < h.min_samples {
            return None;
        }
        if (self.resolved_genomes as f64) < h.completion_threshold * self.admitted_total as f64 {
            return None;
        }
        let median = self.durations[self.durations.len() / 2] as f64;
        let threshold = h.straggler_multiplier * median;
        ((dur as f64) > threshold).then_some(threshold as u64)
    }

    /// Records one effective attempt duration into the sorted batch
    /// sample set.
    fn note_duration(&mut self, dur: u64) {
        let idx = self.durations.partition_point(|&d| d <= dur);
        self.durations.insert(idx, dur);
    }
}

/// Converts a raw attempt outcome under the watchdog deadline into
/// `(effective duration, result, watchdog_fired)`, where the firing
/// flag carries `late_result_discarded`.
///
/// Every effective duration is capped at the deadline: a hang or a late
/// completion both end — for supervision purposes — exactly when the
/// watchdog fires.
fn watchdog_convert(
    outcome: AttemptOutcome,
    deadline_ms: u64,
) -> (u64, Result<Option<f64>, EvalFailure>, Option<bool>) {
    match outcome {
        AttemptOutcome::Hang => (
            deadline_ms,
            Err(EvalFailure::Timeout { elapsed_ms: deadline_ms, limit_ms: deadline_ms }),
            Some(false),
        ),
        AttemptOutcome::Finished { cost_ms, .. } if cost_ms > deadline_ms => (
            deadline_ms,
            Err(EvalFailure::Timeout { elapsed_ms: cost_ms, limit_ms: deadline_ms }),
            Some(true),
        ),
        AttemptOutcome::Finished { result, cost_ms } => (cost_ms, result, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fallible::FnFallible;
    use nautilus_obs::InMemorySink;

    fn g(x: u32) -> Genome {
        Genome::from_genes(vec![x])
    }

    /// A scripted evaluator: outcome per (genome gene, attempt).
    struct Scripted<F: Fn(u32, u32) -> AttemptOutcome + Send + Sync>(F);

    impl<F: Fn(u32, u32) -> AttemptOutcome + Send + Sync> SupervisableEvaluator for Scripted<F> {
        fn attempt(&self, genome: &Genome, attempt: u32) -> AttemptOutcome {
            (self.0)(genome.gene_at(0), attempt)
        }
    }

    fn ok(v: f64, cost_ms: u64) -> AttemptOutcome {
        AttemptOutcome::Finished { result: Ok(Some(v)), cost_ms }
    }

    fn fail_transient(cost_ms: u64) -> AttemptOutcome {
        AttemptOutcome::Finished { result: Err(EvalFailure::Transient("boom".into())), cost_ms }
    }

    fn policy() -> SupervisePolicy {
        SupervisePolicy {
            watchdog: WatchdogPolicy { deadline_ms: 1_000 },
            ..SupervisePolicy::default()
        }
    }

    #[test]
    fn default_policy_is_valid() {
        assert!(SupervisePolicy::default().validate().is_ok());
    }

    #[test]
    fn invalid_policies_are_described() {
        let mut p = SupervisePolicy::default();
        p.watchdog.deadline_ms = 0;
        assert!(p.validate().unwrap_err().contains("deadline_ms"));
        let mut p = SupervisePolicy::default();
        p.hedge.straggler_multiplier = 0.5;
        assert!(p.validate().unwrap_err().contains("straggler_multiplier"));
        let mut p = SupervisePolicy::default();
        p.breaker.min_samples = 100;
        assert!(p.validate().unwrap_err().contains("min_samples"));
        let mut p = SupervisePolicy::default();
        p.breaker.trip_failure_rate = 0.0;
        assert!(p.validate().unwrap_err().contains("trip_failure_rate"));
    }

    #[test]
    fn watchdog_converts_hangs_and_late_results_to_timeouts() {
        let (dur, result, fired) = watchdog_convert(AttemptOutcome::Hang, 500);
        assert_eq!(dur, 500);
        assert_eq!(result, Err(EvalFailure::Timeout { elapsed_ms: 500, limit_ms: 500 }));
        assert_eq!(fired, Some(false));

        let (dur, result, fired) = watchdog_convert(ok(1.0, 700), 500);
        assert_eq!(dur, 500, "effective duration is capped at the deadline");
        assert_eq!(result, Err(EvalFailure::Timeout { elapsed_ms: 700, limit_ms: 500 }));
        assert_eq!(fired, Some(true), "a late completion is a discarded result");

        let (dur, result, fired) = watchdog_convert(ok(1.0, 500), 500);
        assert_eq!(dur, 500);
        assert_eq!(result, Ok(Some(1.0)));
        assert_eq!(fired, None, "finishing exactly at the deadline is in time");
    }

    #[test]
    fn never_hangs_adapter_is_transparent() {
        let inner = FnFallible::new(|g: &Genome, _| Ok(Some(f64::from(g.gene_at(0)))));
        let eval = NeverHangs(&inner);
        assert_eq!(eval.attempt(&g(7), 1), ok(7.0, 0));
    }

    #[test]
    fn resolve_retries_hangs_as_timeouts_until_exhaustion() {
        let eval = Scripted(|_, _| AttemptOutcome::Hang);
        let mut session = SuperviseSession::new(policy());
        session.begin_batch();
        let obs = nautilus_obs::noop();
        assert_eq!(session.admit(obs), Admission::Evaluate);
        let pre = Supervisor::new(&eval).with_policy(policy());
        let outcomes = pre.precompute(&RetryPolicy::default(), &g(1));
        assert_eq!(outcomes.len(), 3, "hangs are retryable: all attempts precomputed");
        let record = session.resolve(&eval, &RetryPolicy::default(), &g(1), &outcomes, false, obs);
        assert!(record.is_quarantined());
        assert_eq!(record.failures.len(), 3);
        assert!(record
            .failures
            .iter()
            .all(|f| matches!(f, EvalFailure::Timeout { elapsed_ms: 1_000, limit_ms: 1_000 })));
        let stats = session.stats();
        assert_eq!(stats.watchdog_fired, 3);
        assert_eq!(stats.late_results_discarded, 0);
        assert_eq!(stats.attempts_supervised, 3);
    }

    #[test]
    fn resolve_discards_a_late_result_and_recovers_on_retry() {
        let eval = Scripted(|_, attempt| if attempt == 1 { ok(5.0, 2_000) } else { ok(5.0, 10) });
        let mut session = SuperviseSession::new(policy());
        session.begin_batch();
        let obs = nautilus_obs::noop();
        assert_eq!(session.admit(obs), Admission::Evaluate);
        let record = session.resolve(&eval, &RetryPolicy::default(), &g(1), &[], false, obs);
        assert_eq!(record.value, Some(Some(5.0)));
        assert_eq!(record.failures.len(), 1, "the late attempt is a recorded timeout");
        let stats = session.stats();
        assert_eq!(stats.watchdog_fired, 1);
        assert_eq!(stats.late_results_discarded, 1);
    }

    #[test]
    fn hedging_rescues_a_straggler_and_reconciles() {
        // Gene 9 straggles on its primary attempt but its hedge (attempt
        // tagged with HEDGE_ATTEMPT_BIT) completes instantly.
        let eval = Scripted(|gene, attempt| {
            if gene == 9 && attempt & HEDGE_ATTEMPT_BIT == 0 {
                ok(1.0, 900)
            } else {
                ok(1.0, 10)
            }
        });
        let mut p = policy();
        p.hedge =
            HedgePolicy { completion_threshold: 0.5, straggler_multiplier: 2.0, min_samples: 3 };
        let mut session = SuperviseSession::new(p);
        session.begin_batch();
        let sink = InMemorySink::new();
        let retry = RetryPolicy::default();
        // 8 fast genomes build the median, then the straggler.
        for _ in 1..=9 {
            assert_eq!(session.admit(&sink), Admission::Evaluate);
        }
        for x in 1..=8u32 {
            let r = session.resolve(&eval, &retry, &g(x), &[], false, &sink);
            assert_eq!(r.value, Some(Some(1.0)));
        }
        let r = session.resolve(&eval, &retry, &g(9), &[], false, &sink);
        assert_eq!(r.value, Some(Some(1.0)));
        let stats = session.stats();
        assert_eq!(stats.hedges_issued, 1);
        assert_eq!(stats.hedges_won, 1, "the fast hedge must win the race");
        assert_eq!(stats.hedges_wasted, 0);
        assert!(stats.reconciles());
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(e, SearchEvent::HedgeIssued { attempt: 1 })));
        assert!(events.iter().any(|e| matches!(e, SearchEvent::HedgeResolved { won: true })));
    }

    #[test]
    fn a_losing_hedge_is_charged_as_wasted() {
        // The straggler's hedge is just as slow: the primary wins.
        let eval = Scripted(|gene, _| if gene == 9 { ok(1.0, 900) } else { ok(1.0, 100) });
        let mut p = policy();
        p.hedge =
            HedgePolicy { completion_threshold: 0.5, straggler_multiplier: 2.0, min_samples: 3 };
        let mut session = SuperviseSession::new(p);
        session.begin_batch();
        let obs = nautilus_obs::noop();
        let retry = RetryPolicy::default();
        for _ in 1..=9 {
            assert_eq!(session.admit(obs), Admission::Evaluate);
        }
        for x in 1..=8u32 {
            let _ = session.resolve(&eval, &retry, &g(x), &[], false, obs);
        }
        let r = session.resolve(&eval, &retry, &g(9), &[], false, obs);
        assert_eq!(r.value, Some(Some(1.0)));
        let stats = session.stats();
        assert_eq!(stats.hedges_issued, 1);
        assert_eq!(stats.hedges_won, 0);
        assert_eq!(stats.hedges_wasted, 1);
        assert!(stats.reconciles());
    }

    #[test]
    fn no_hedge_before_the_completion_threshold_or_median_warmup() {
        let eval = Scripted(|_, _| ok(1.0, 900));
        let mut session = SuperviseSession::new(policy());
        session.begin_batch();
        let obs = nautilus_obs::noop();
        let retry = RetryPolicy::default();
        for _ in 0..4 {
            assert_eq!(session.admit(obs), Admission::Evaluate);
        }
        for x in 0..4u32 {
            let _ = session.resolve(&eval, &retry, &g(x), &[], false, obs);
        }
        assert_eq!(session.stats().hedges_issued, 0, "uniform durations never straggle");
    }

    #[test]
    fn breaker_trips_sheds_and_recovers() {
        let p = SupervisePolicy {
            breaker: BreakerPolicy {
                window: 4,
                min_samples: 4,
                trip_failure_rate: 0.75,
                cooldown_sheds: 2,
                probe_quota: 2,
                probes_to_close: 2,
            },
            ..SupervisePolicy::default()
        };
        let failing = Scripted(|_, _| AttemptOutcome::Finished {
            result: Err(EvalFailure::Persistent("down".into())),
            cost_ms: 10,
        });
        let healthy = Scripted(|_, _| ok(2.0, 10));
        let mut session = SuperviseSession::new(p);
        let sink = InMemorySink::new();
        let retry = RetryPolicy::none();

        // Batch 1: four persistent failures trip the breaker.
        session.begin_batch();
        for x in 0..4u32 {
            assert_eq!(session.admit(&sink), Admission::Evaluate);
            let r = session.resolve(&failing, &retry, &g(x), &[], false, &sink);
            assert!(r.is_quarantined());
        }
        assert_eq!(session.health(), HealthState::Open);
        assert_eq!(session.stats().breaker_trips, 1);

        // Batch 2: everything is shed (cooldown_sheds = 2).
        session.begin_batch();
        assert_eq!(session.admit(&sink), Admission::Shed);
        assert_eq!(session.admit(&sink), Admission::Shed);
        assert_eq!(session.stats().evals_shed, 2);

        // Batch 3: cooldown elapsed → half-open, probes admitted up to
        // the quota, the rest shed.
        session.begin_batch();
        assert_eq!(session.admit(&sink), Admission::Probe);
        assert_eq!(session.admit(&sink), Admission::Probe);
        assert_eq!(session.admit(&sink), Admission::Shed);
        assert_eq!(session.health(), HealthState::HalfOpen);
        // Both probes succeed against the healed backend → Closed.
        let r = session.resolve(&healthy, &retry, &g(10), &[], true, &sink);
        assert_eq!(r.value, Some(Some(2.0)));
        assert_eq!(session.health(), HealthState::HalfOpen);
        let r = session.resolve(&healthy, &retry, &g(11), &[], true, &sink);
        assert_eq!(r.value, Some(Some(2.0)));
        assert_eq!(session.health(), HealthState::Closed);
        let stats = session.stats();
        assert_eq!(stats.breaker_recoveries, 1);
        assert_eq!(stats.breaker_probes, 2);

        let transitions: Vec<(HealthState, HealthState)> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                SearchEvent::BreakerTransition { from, to } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                (HealthState::Closed, HealthState::Open),
                (HealthState::Open, HealthState::HalfOpen),
                (HealthState::HalfOpen, HealthState::Closed),
            ]
        );
    }

    #[test]
    fn a_failing_probe_reopens_the_breaker() {
        let p = SupervisePolicy {
            breaker: BreakerPolicy {
                window: 2,
                min_samples: 2,
                trip_failure_rate: 1.0,
                cooldown_sheds: 1,
                probe_quota: 1,
                probes_to_close: 1,
            },
            ..SupervisePolicy::default()
        };
        let failing = Scripted(|_, _| AttemptOutcome::Finished {
            result: Err(EvalFailure::Persistent("down".into())),
            cost_ms: 10,
        });
        let mut session = SuperviseSession::new(p);
        let obs = nautilus_obs::noop();
        let retry = RetryPolicy::none();
        session.begin_batch();
        for x in 0..2u32 {
            assert_eq!(session.admit(obs), Admission::Evaluate);
            let _ = session.resolve(&failing, &retry, &g(x), &[], false, obs);
        }
        assert_eq!(session.health(), HealthState::Open);
        session.begin_batch();
        assert_eq!(session.admit(obs), Admission::Shed);
        session.begin_batch();
        assert_eq!(session.admit(obs), Admission::Probe);
        let _ = session.resolve(&failing, &retry, &g(9), &[], true, obs);
        assert_eq!(session.health(), HealthState::Open, "a failing probe re-opens");
        assert_eq!(session.stats().breaker_trips, 2);
        assert_eq!(session.stats().breaker_recoveries, 0);
    }

    #[test]
    fn session_snapshot_round_trips() {
        let mut p = SupervisePolicy::default();
        p.breaker =
            BreakerPolicy { window: 4, min_samples: 2, trip_failure_rate: 0.5, ..p.breaker };
        let failing = Scripted(|_, _| AttemptOutcome::Finished {
            result: Err(EvalFailure::Persistent("down".into())),
            cost_ms: 10,
        });
        let mut session = SuperviseSession::new(p);
        let obs = nautilus_obs::noop();
        session.begin_batch();
        for x in 0..3u32 {
            if session.admit(obs) == Admission::Evaluate {
                let _ = session.resolve(&failing, &RetryPolicy::none(), &g(x), &[], false, obs);
            }
        }
        let bytes = session.snapshot_bytes();
        let restored = SuperviseSession::restore_bytes(p, &bytes).expect("snapshot restores");
        assert_eq!(restored.snapshot_bytes(), bytes, "round-trip is byte-identical");
        assert_eq!(restored.health(), session.health());
        assert_eq!(restored.stats(), session.stats());
        // Truncations and version garbage are rejected.
        for cut in 0..bytes.len() {
            assert!(
                SuperviseSession::restore_bytes(p, &bytes[..cut]).is_err(),
                "truncation at {cut} silently restored"
            );
        }
        let mut versioned = bytes.clone();
        versioned[0] = 0xFF;
        assert!(SuperviseSession::restore_bytes(p, &versioned).is_err());
    }

    #[test]
    fn precompute_stops_at_the_first_terminal_outcome() {
        let eval =
            Scripted(|_, attempt| if attempt == 1 { fail_transient(10) } else { ok(1.0, 10) });
        let sup = Supervisor::new(&eval).with_policy(policy());
        let outcomes = sup.precompute(&RetryPolicy::default(), &g(1));
        assert_eq!(outcomes.len(), 2, "success on attempt 2 is terminal");

        let persistent = Scripted(|_, _| AttemptOutcome::Finished {
            result: Err(EvalFailure::Persistent("no".into())),
            cost_ms: 10,
        });
        let sup = Supervisor::new(&persistent).with_policy(policy());
        assert_eq!(sup.precompute(&RetryPolicy::default(), &g(1)).len(), 1);

        // A late success is NOT terminal: the watchdog discards it.
        let late = Scripted(|_, attempt| if attempt == 1 { ok(1.0, 5_000) } else { ok(1.0, 10) });
        let sup = Supervisor::new(&late).with_policy(policy());
        assert_eq!(sup.precompute(&RetryPolicy::default(), &g(1)).len(), 2);
    }
}
