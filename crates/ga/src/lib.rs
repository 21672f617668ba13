//! # nautilus-ga — baseline genetic algorithm over IP parameter spaces
//!
//! This crate is the GA substrate of the Nautilus (DAC 2015) reproduction.
//! It provides everything the paper's Section 2 ("Background: Genetic
//! Algorithms") requires:
//!
//! * **Genetic representation** — [`ParamSpace`] describes a hardware IP's
//!   discrete parameter lattice (integer ranges, power-of-two ranges,
//!   categorical choices, feature flags); a [`Genome`] stores one domain
//!   index per parameter.
//! * **Genetic operators** — per-gene [`UniformMutation`] and localized
//!   [`StepMutation`]; [`OnePointCrossover`], [`TwoPointCrossover`] and
//!   [`UniformCrossover`]; [`Tournament`], [`RankRoulette`] and
//!   [`Truncation`] parent selection. All are trait objects so the
//!   `nautilus` crate can substitute *guided* operators.
//! * **Fitness** — [`FitnessFn`] with an explicit optimization
//!   [`Direction`] and infeasibility support.
//! * **The engine** — [`GaEngine`] runs the generational loop with elitism
//!   and records per-generation [`GenStats`]. All evaluations go through an
//!   [`EvalCache`], whose distinct-miss count is the paper's "# designs
//!   evaluated" cost metric.
//!
//! ## Example
//!
//! ```
//! use nautilus_ga::{Direction, FnFitness, GaEngine, Genome, ParamSpace};
//! # fn main() -> Result<(), nautilus_ga::GaError> {
//! let space = ParamSpace::builder()
//!     .int_list("buffer_depth", [1, 2, 4, 8, 16])
//!     .pow2("flit_width", 5, 7)
//!     .choices("allocator", ["round_robin", "matrix", "wavefront"])
//!     .build()?;
//!
//! // A toy "synthesis model": LUTs grow with depth * width.
//! let luts = FnFitness::new(Direction::Minimize, move |g: &Genome| {
//!     Some((g.gene_at(0) as f64 + 1.0) * (g.gene_at(1) as f64 + 1.0) * 100.0)
//! });
//!
//! let run = GaEngine::new(&space, &luts).run(0xC0FFEE)?;
//! println!("best {} after {} synthesis jobs", run.best_value, run.total_evals());
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod budget;
mod cache;
pub mod checkpoint;
pub mod durable;
mod engine;
mod error;
mod fallible;
mod fitness;
mod genome;
pub mod ops;
mod param;
pub mod pool;
pub mod rng;
mod select;
mod space;
mod stats;
mod supervise;

pub use arena::PopArena;
pub use budget::{BudgetTimer, RunBudget, SharedClock, StopReason};
pub use cache::{CacheStats, EvalCache};
pub use checkpoint::{CheckpointStore, Journal, JournalHeader};
pub use durable::{fault_label, DurableIo, IoFaultKind, IoFaultPlan, WritePoint};
pub use engine::{GaEngine, GaRun, GaSettings, GenStats};
pub use error::{GaError, Result};
pub use fallible::{
    evaluate_with_retries, retry_backoff, EvalFailure, EvalRecord, FallibleEvaluator, FaultStats,
    FnFallible, RetryPolicy,
};
pub use fitness::{Direction, FitnessFn, FnFitness, GeneRows};
pub use genome::Genome;
pub use ops::{
    CrossoverOp, MutationOp, OnePointCrossover, OpCtx, StepMutation, TwoPointCrossover,
    UniformCrossover, UniformMutation,
};
pub use param::{ParamDef, ParamDomain, ParamId};
pub use pool::{BatchTicket, EvalPool};
pub use select::{
    FitnessProportional, RankRoulette, ScoredGenome, Selector, Tournament, Truncation,
};
pub use space::{DesignPoint, FullSweep, ParamSpace, ParamSpaceBuilder};
pub use stats::{pearson, spearman, Summary};
pub use supervise::{
    Admission, AttemptOutcome, BreakerPolicy, CircuitBreaker, HedgePolicy, NeverHangs,
    SupervisableEvaluator, SupervisePolicy, SuperviseSession, SuperviseStats, Supervisor,
    WatchdogPolicy, HEDGE_ATTEMPT_BIT,
};
pub use value::ParamValue;

mod value;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParamSpace>();
        assert_send_sync::<Genome>();
        assert_send_sync::<EvalCache>();
        assert_send_sync::<GaSettings>();
        assert_send_sync::<GaError>();
        assert_send_sync::<Box<dyn MutationOp>>();
        assert_send_sync::<Box<dyn CrossoverOp>>();
        assert_send_sync::<Box<dyn Selector>>();
        assert_send_sync::<EvalFailure>();
        assert_send_sync::<RetryPolicy>();
        assert_send_sync::<FaultStats>();
        assert_send_sync::<Box<dyn FallibleEvaluator>>();
        assert_send_sync::<Box<dyn SupervisableEvaluator>>();
        assert_send_sync::<SupervisePolicy>();
        assert_send_sync::<SuperviseStats>();
        assert_send_sync::<CircuitBreaker>();
        assert_send_sync::<DurableIo>();
        assert_send_sync::<IoFaultPlan>();
    }
}
