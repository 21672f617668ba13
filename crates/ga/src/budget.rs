//! Run budgets and graceful shutdown.
//!
//! Long searches need to stop *cleanly*: at a generation boundary, with a
//! final checkpoint written and the partial history intact, rather than
//! mid-generation via `SIGKILL` or a panic. [`RunBudget`] expresses the
//! stopping rules — generation cap, distinct-evaluation cap, wall-clock
//! deadline, cooperative cancellation — and the engine consults it once
//! per generation boundary. The reason a run stopped is reported as a
//! [`StopReason`] on [`GaRun`](crate::GaRun) (and surfaced by the core
//! crate on `SearchOutcome`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a run returned.
///
/// [`StopReason::Completed`] is the ordinary case: every generation in
/// [`GaSettings::generations`](crate::GaSettings::generations) was scored.
/// Every other variant means the run was interrupted at a generation
/// boundary by its [`RunBudget`]; the outcome then holds a *partial*
/// history (shorter trace) and, when checkpointing is enabled, a final
/// checkpoint from which the run can be resumed to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The run scored all configured generations.
    #[default]
    Completed,
    /// `max_generations` boundaries were reached.
    GenerationBudget,
    /// The distinct-evaluation cap was reached.
    EvalBudget,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The cooperative cancel flag was raised (e.g. from a SIGINT handler).
    Cancelled,
}

impl StopReason {
    /// Stable snake_case label (used in telemetry and digests).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::GenerationBudget => "generation_budget",
            StopReason::EvalBudget => "eval_budget",
            StopReason::DeadlineExceeded => "deadline_exceeded",
            StopReason::Cancelled => "cancelled",
        }
    }

    /// Whether the run stopped early (anything but [`StopReason::Completed`]).
    #[must_use]
    pub fn is_interrupted(self) -> bool {
        self != StopReason::Completed
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Injectable monotonic clock: elapsed time since an origin of the
/// caller's choosing. Tests substitute a fake so deadline behaviour is
/// deterministic; the default samples [`std::time::Instant`].
pub type SharedClock = Arc<dyn Fn() -> Duration + Send + Sync>;

/// Stopping rules for a run, checked at each generation boundary.
///
/// The default budget is unlimited. Limits compose; the first one hit (in
/// the order cancel > deadline > evaluations > generations) names the
/// [`StopReason`]. The deadline is measured from the moment the run (or a
/// resume) starts, via the injectable clock.
///
/// ```
/// use nautilus_ga::{RunBudget, StopReason};
/// use std::time::Duration;
/// let budget = RunBudget::new().with_max_generations(2);
/// assert_eq!(budget.stop_reason(2, 0, Duration::ZERO), StopReason::Completed);
/// assert_eq!(budget.stop_reason(3, 0, Duration::ZERO), StopReason::GenerationBudget);
/// ```
#[derive(Clone, Default)]
pub struct RunBudget {
    max_generations: Option<u32>,
    max_evaluations: Option<u64>,
    deadline: Option<Duration>,
    clock: Option<SharedClock>,
    cancel: Option<Arc<AtomicBool>>,
}

impl RunBudget {
    /// An unlimited budget (never stops a run early).
    #[must_use]
    pub fn new() -> RunBudget {
        RunBudget::default()
    }

    /// Stops once `n` breeding generations have been scored: the outcome
    /// then holds generations `0..=n` and a resume continues at `n + 1`.
    #[must_use]
    pub fn with_max_generations(mut self, n: u32) -> Self {
        self.max_generations = Some(n);
        self
    }

    /// Stops at the first boundary where the cache holds at least `n`
    /// distinct feasible evaluations (synthesis jobs).
    #[must_use]
    pub fn with_max_evaluations(mut self, n: u64) -> Self {
        self.max_evaluations = Some(n);
        self
    }

    /// Stops at the first boundary after `deadline` of wall-clock time.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Substitutes the clock used to measure the deadline (elapsed time
    /// since run start). Intended for deterministic tests.
    #[must_use]
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Installs a cooperative cancel flag. Any thread (or a signal
    /// handler) storing `true` stops the run at the next boundary with
    /// [`StopReason::Cancelled`].
    #[must_use]
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Starts measuring elapsed time for this run's deadline.
    #[must_use]
    pub fn start_timer(&self) -> BudgetTimer {
        match &self.clock {
            Some(clock) => BudgetTimer::Injected { clock: Arc::clone(clock), origin: clock() },
            None => BudgetTimer::Real(std::time::Instant::now()),
        }
    }

    /// Decides whether the run should stop before scoring
    /// `next_generation`, given `distinct_evals` feasible evaluations so
    /// far and `elapsed` run time. Returns [`StopReason::Completed`] when
    /// every limit still has room.
    #[must_use]
    pub fn stop_reason(
        &self,
        next_generation: u32,
        distinct_evals: u64,
        elapsed: Duration,
    ) -> StopReason {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Acquire) {
                return StopReason::Cancelled;
            }
        }
        if let Some(deadline) = self.deadline {
            if elapsed >= deadline {
                return StopReason::DeadlineExceeded;
            }
        }
        if let Some(max) = self.max_evaluations {
            if distinct_evals >= max {
                return StopReason::EvalBudget;
            }
        }
        if let Some(max) = self.max_generations {
            if next_generation > max {
                return StopReason::GenerationBudget;
            }
        }
        StopReason::Completed
    }
}

impl std::fmt::Debug for RunBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunBudget")
            .field("max_generations", &self.max_generations)
            .field("max_evaluations", &self.max_evaluations)
            .field("deadline", &self.deadline)
            .field("injected_clock", &self.clock.is_some())
            .field("cancellable", &self.cancel.is_some())
            .finish()
    }
}

/// Elapsed-time source for one run, created by [`RunBudget::start_timer`].
#[derive(Clone)]
pub enum BudgetTimer {
    /// Real wall clock.
    Real(std::time::Instant),
    /// Injected clock with its origin sample.
    Injected {
        /// The substituted clock.
        clock: SharedClock,
        /// Clock reading at run start.
        origin: Duration,
    },
}

impl BudgetTimer {
    /// Time elapsed since the run (or resume) started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        match self {
            BudgetTimer::Real(start) => start.elapsed(),
            BudgetTimer::Injected { clock, origin } => clock().saturating_sub(*origin),
        }
    }
}

impl std::fmt::Debug for BudgetTimer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetTimer::Real(start) => f.debug_tuple("Real").field(start).finish(),
            BudgetTimer::Injected { origin, .. } => {
                f.debug_struct("Injected").field("origin", origin).finish()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn unlimited_budget_never_stops() {
        let b = RunBudget::new();
        assert_eq!(b.stop_reason(u32::MAX, u64::MAX, Duration::MAX), StopReason::Completed);
    }

    #[test]
    fn generation_budget_stops_strictly_after_the_cap() {
        let b = RunBudget::new().with_max_generations(5);
        assert_eq!(b.stop_reason(5, 0, Duration::ZERO), StopReason::Completed);
        assert_eq!(b.stop_reason(6, 0, Duration::ZERO), StopReason::GenerationBudget);
    }

    #[test]
    fn eval_budget_stops_at_or_past_the_cap() {
        let b = RunBudget::new().with_max_evaluations(100);
        assert_eq!(b.stop_reason(1, 99, Duration::ZERO), StopReason::Completed);
        assert_eq!(b.stop_reason(1, 100, Duration::ZERO), StopReason::EvalBudget);
        assert_eq!(b.stop_reason(1, 250, Duration::ZERO), StopReason::EvalBudget);
    }

    #[test]
    fn deadline_uses_the_injected_clock() {
        let now = Arc::new(Mutex::new(Duration::from_secs(100)));
        let reader = Arc::clone(&now);
        let clock: SharedClock = Arc::new(move || *reader.lock().unwrap());
        let b = RunBudget::new().with_deadline(Duration::from_secs(10)).with_clock(clock);
        let timer = b.start_timer();
        assert_eq!(b.stop_reason(1, 0, timer.elapsed()), StopReason::Completed);
        *now.lock().unwrap() = Duration::from_secs(109);
        assert_eq!(b.stop_reason(1, 0, timer.elapsed()), StopReason::Completed);
        *now.lock().unwrap() = Duration::from_secs(110);
        assert_eq!(b.stop_reason(1, 0, timer.elapsed()), StopReason::DeadlineExceeded);
    }

    #[test]
    fn deadline_landing_exactly_on_a_generation_boundary_stops() {
        // elapsed == deadline at the boundary check is a stop, not a
        // keep-going: the comparison is `>=`, so a run whose clock lands
        // exactly on the deadline at a boundary never sneaks in another
        // generation.
        let now = Arc::new(Mutex::new(Duration::ZERO));
        let reader = Arc::clone(&now);
        let clock: SharedClock = Arc::new(move || *reader.lock().unwrap());
        let b = RunBudget::new().with_deadline(Duration::from_secs(10)).with_clock(clock);
        let timer = b.start_timer();
        *now.lock().unwrap() = Duration::from_secs(10);
        assert_eq!(timer.elapsed(), Duration::from_secs(10), "clock landed exactly on deadline");
        assert_eq!(b.stop_reason(3, 0, timer.elapsed()), StopReason::DeadlineExceeded);
        // One nanosecond earlier the run continues.
        *now.lock().unwrap() = Duration::from_secs(10) - Duration::from_nanos(1);
        assert_eq!(b.stop_reason(3, 0, timer.elapsed()), StopReason::Completed);
    }

    #[test]
    fn restarted_timer_measures_from_the_resume_not_the_original_origin() {
        // A resumed run calls start_timer() afresh: the deadline budgets
        // the *resumed* process, so a run stopped by DeadlineExceeded does
        // not instantly re-stop on resume.
        let now = Arc::new(Mutex::new(Duration::from_secs(50)));
        let reader = Arc::clone(&now);
        let clock: SharedClock = Arc::new(move || *reader.lock().unwrap());
        let b = RunBudget::new().with_deadline(Duration::from_secs(10)).with_clock(clock);

        let first = b.start_timer();
        *now.lock().unwrap() = Duration::from_secs(60);
        assert_eq!(b.stop_reason(1, 0, first.elapsed()), StopReason::DeadlineExceeded);

        // The "resume": a fresh timer against the same (advanced) clock.
        let resumed = b.start_timer();
        assert_eq!(resumed.elapsed(), Duration::ZERO);
        assert_eq!(b.stop_reason(1, 0, resumed.elapsed()), StopReason::Completed);
        *now.lock().unwrap() = Duration::from_secs(69);
        assert_eq!(b.stop_reason(1, 0, resumed.elapsed()), StopReason::Completed);
        *now.lock().unwrap() = Duration::from_secs(70);
        assert_eq!(b.stop_reason(1, 0, resumed.elapsed()), StopReason::DeadlineExceeded);
    }

    #[test]
    fn cancel_flag_takes_priority_over_every_other_limit() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = RunBudget::new()
            .with_max_generations(0)
            .with_max_evaluations(0)
            .with_cancel_flag(Arc::clone(&flag));
        assert_eq!(b.stop_reason(1, 1, Duration::ZERO), StopReason::EvalBudget);
        flag.store(true, Ordering::Release);
        assert_eq!(b.stop_reason(1, 1, Duration::ZERO), StopReason::Cancelled);
    }

    #[test]
    fn stop_reason_labels_are_stable() {
        let all = [
            StopReason::Completed,
            StopReason::GenerationBudget,
            StopReason::EvalBudget,
            StopReason::DeadlineExceeded,
            StopReason::Cancelled,
        ];
        let labels: Vec<&str> = all.iter().map(|r| r.as_str()).collect();
        assert_eq!(
            labels,
            ["completed", "generation_budget", "eval_budget", "deadline_exceeded", "cancelled"]
        );
        assert!(!StopReason::Completed.is_interrupted());
        assert!(all[1..].iter().all(|r| r.is_interrupted()));
        assert_eq!(StopReason::default(), StopReason::Completed);
        assert_eq!(format!("{}", StopReason::Cancelled), "cancelled");
    }

    #[test]
    fn real_timer_elapsed_is_monotone() {
        let b = RunBudget::new();
        let timer = b.start_timer();
        let a = timer.elapsed();
        let c = timer.elapsed();
        assert!(c >= a);
        assert!(format!("{timer:?}").contains("Real"));
    }
}
