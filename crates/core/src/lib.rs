//! # nautilus — guided genetic-algorithm IP design-space exploration
//!
//! A from-scratch reproduction of *"Nautilus: Fast Automated IP Design Space
//! Search Using Guided Genetic Algorithms"* (Papamichael, Milder, Hoe —
//! DAC 2015). Nautilus embeds a genetic algorithm into a hardware IP
//! generator and lets the IP **author** ship domain knowledge ("hints")
//! that steers the search, reaching the same quality of results as an
//! oblivious GA with up to an order of magnitude fewer synthesis jobs.
//!
//! ## Pieces
//!
//! * [`HintSet`] / [`HintBook`] — the paper's hint taxonomy: importance,
//!   importance decay, bias xor target per parameter, plus auxiliary value
//!   orderings and stepping limits, under a global [`Confidence`] knob.
//! * [`GuidedMutation`] — the guided genetic operator: importance-weighted
//!   gene selection (with decay scheduling) and bias/target-steered value
//!   assignment, confidence-gated so the search stays stochastic.
//! * [`Query`] — what the IP user asks for: maximize/minimize a raw or
//!   composite [`nautilus_synth::MetricExpr`], with optional constraints.
//! * [`Nautilus`] — the engine: baseline or guided runs over any
//!   [`nautilus_synth::CostModel`], every evaluation accounted as a
//!   synthesis job.
//! * [`estimate_hints`] — the paper's non-expert path: estimate hints by
//!   synthesizing a small sample (default 80 designs) and observing trends.
//! * [`compare`] — the evaluation harness: strategies × runs in parallel,
//!   averaged traces, convergence-cost ratios.
//! * [`random_search`] / [`brute_force`] — the naive baselines.
//! * [`obs`] (re-exported `nautilus-obs`) — search telemetry: install a
//!   [`SearchObserver`] via [`Nautilus::with_observer`], stream JSONL with
//!   [`JsonlSink`], or aggregate a per-run [`RunReport`] with
//!   [`Nautilus::run_guided_reported`].
//!
//! ## Example
//!
//! ```
//! use nautilus::{Confidence, HintSet, Nautilus, Query};
//! use nautilus_ga::{Genome, ParamSpace};
//! use nautilus_synth::{CostModel, MetricCatalog, MetricExpr, MetricSet};
//!
//! // A toy IP generator: one metric ("cost"), two parameters.
//! #[derive(Debug)]
//! struct ToyIp {
//!     space: ParamSpace,
//!     catalog: MetricCatalog,
//! }
//! impl CostModel for ToyIp {
//!     fn name(&self) -> &str { "toy" }
//!     fn space(&self) -> &ParamSpace { &self.space }
//!     fn catalog(&self) -> &MetricCatalog { &self.catalog }
//!     fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
//!         let cost = f64::from(g.gene_at(0)) * 10.0 + f64::from(g.gene_at(1));
//!         Some(self.catalog.set(vec![cost + 1.0]).unwrap())
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ip = ToyIp {
//!     space: ParamSpace::builder().int("a", 0, 15, 1).int("b", 0, 15, 1).build()?,
//!     catalog: MetricCatalog::new([("cost", "units")])?,
//! };
//!
//! // The IP author ships hints: `a` dominates and correlates positively.
//! let hints = HintSet::for_metric("cost")
//!     .importance("a", 90)?
//!     .bias("a", 1.0)?
//!     .bias("b", 1.0)?
//!     .build();
//!
//! let query = Query::minimize("cost", MetricExpr::metric(ip.catalog().require("cost")?));
//! let outcome = Nautilus::new(&ip).run_guided(&query, &hints, Some(Confidence::STRONG), 7)?;
//! println!("best cost {} after {} synthesis jobs", outcome.best_value, outcome.total_evals());
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baselines;
mod compare;
mod engine;
mod error;
mod estimate;
mod guided;
mod hint;
mod local;
mod pareto;
mod query;
mod trace;

pub use baselines::{brute_force, random_search};
pub use compare::{
    compare, compare_observed, CompareConfig, Comparison, Strategy, StrategyKind, StrategyResult,
};
pub use engine::Nautilus;
pub use error::{NautilusError, Result};
pub use estimate::{estimate_hints, EstimateConfig, EstimatedHints};
pub use guided::{GuidedCrossover, GuidedMutation};
pub use hint::{
    Bias, Confidence, Decay, HintBook, HintSet, HintSetBuilder, Importance, ParamHint, ValueHint,
};
pub use local::{hill_climb, simulated_annealing, AnnealConfig};
pub use pareto::{
    dataset_front, dominance_filter, dominates, epsilon_constraint_front,
    epsilon_constraint_front_observed, Objective, ParetoPoint,
};
pub use query::{Constraint, ConstraintOp, Query};
pub use trace::{average_traces, AvgTracePoint, ReachStats, SearchOutcome, TracePoint};

/// The observability layer, re-exported so downstream users need not
/// depend on `nautilus-obs` directly: install a [`SearchObserver`] with
/// [`Nautilus::with_observer`], stream events with [`JsonlSink`] or
/// [`InMemorySink`], and aggregate with [`ReportBuilder`] / [`RunReport`].
pub use nautilus_obs as obs;
pub use nautilus_obs::{
    FailureKind, Fanout, FaultTally, InMemorySink, JsonlSink, ReportBuilder, RunReport,
    SearchEvent, SearchObserver,
};

/// Fault-tolerant evaluation, re-exported from `nautilus-ga` /
/// `nautilus-synth`: configure retries with
/// [`Nautilus::with_retry_policy`], inject deterministic chaos with
/// [`Nautilus::with_fault_plan`], and read the run's [`FaultStats`] off
/// [`SearchOutcome::faults`](SearchOutcome).
pub use nautilus_ga::{EvalFailure, FallibleEvaluator, FaultStats, RetryPolicy};
pub use nautilus_synth::{FaultPlan, FaultyEvaluator, InjectedFault};

pub use nautilus_obs::SubprocessTally;
/// Out-of-process evaluation, re-exported from `nautilus-proc`: point
/// [`Nautilus::with_subprocess_evaluator`] at any binary speaking the
/// `NAUTPROC` framing (see [`proc`]) and every design is synthesized by
/// an external tool process — with kill-on-timeout, respawn-with-backoff,
/// and child failures mapped onto the engine's [`EvalFailure`] taxonomy.
/// The run's child-lifecycle tallies surface in
/// [`RunReport::subprocess`](RunReport) ([`SubprocessTally`]).
pub use nautilus_proc as proc;
pub use nautilus_proc::{ProcError, SubprocessConfig, SubprocessEvaluator, SubprocessStats};

/// Supervised evaluation, re-exported from `nautilus-ga` / `nautilus-obs`:
/// enable a watchdog deadline, straggler hedging and a circuit breaker with
/// [`Nautilus::with_supervision`], and read the intervention counters off
/// [`SearchOutcome::health`](SearchOutcome). [`HealthState`] names the
/// breaker states surfaced in telemetry and [`RunReport`]s.
pub use nautilus_ga::{
    BreakerPolicy, HedgePolicy, SupervisePolicy, SuperviseStats, WatchdogPolicy,
};
pub use nautilus_obs::{HealthState, HealthTally};

/// Time-attribution profiling, re-exported from `nautilus-obs`: attach a
/// [`Tracer`] with [`Nautilus::with_tracer`], export a Chrome/Perfetto
/// timeline with [`TraceSink`], and read per-[`Phase`] [`PhaseStat`]
/// attribution off a reported run's [`RunReport::phases`](RunReport).
pub use nautilus_obs::{Phase, PhaseStat, TraceSink, Tracer};

/// Crash-safe search, re-exported from `nautilus-ga`: cap runs with
/// [`Nautilus::with_budget`], journal tool replies with
/// [`Nautilus::with_checkpoints`] (running again over the same directory
/// resumes), and read why a run stopped off
/// [`SearchOutcome::stop`](SearchOutcome).
pub use nautilus_ga::{BudgetTimer, CheckpointStore, RunBudget, SharedClock, StopReason};

/// Hostile-environment hardening, re-exported from `nautilus-ga`: route
/// durable writes through a [`DurableIo`] handle armed with a seeded
/// [`IoFaultPlan`] (via [`Nautilus::with_checkpoint_io`]) to inject
/// ENOSPC, fsync, rename, torn-write and dir-fsync failures at chosen
/// write points and prove typed-error-or-byte-exact-recovery behavior.
pub use nautilus_ga::{DurableIo, IoFaultKind, IoFaultPlan, WritePoint};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HintSet>();
        assert_send_sync::<HintBook>();
        assert_send_sync::<GuidedMutation>();
        assert_send_sync::<Query>();
        assert_send_sync::<SearchOutcome>();
        assert_send_sync::<NautilusError>();
        assert_send_sync::<Strategy>();
    }
}
