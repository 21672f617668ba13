//! # nautilus-synth — the simulated EDA substrate
//!
//! The Nautilus paper evaluates design points by running FPGA synthesis
//! (Xilinx XST 14.7 targeting a Virtex-6) for minutes to hours per point.
//! This crate is the reproduction's stand-in for that toolchain:
//!
//! * [`MetricCatalog`] / [`MetricSet`] — what a characterization run reports
//!   (area in LUTs, Fmax, power, SNR, ...).
//! * [`MetricExpr`] — the objective language for queries, covering raw and
//!   composite metrics (throughput-per-LUT, area-delay product).
//! * [`CostModel`] — an IP generator's backend: parameter space in, metric
//!   set (or infeasible) out, with deterministic hash-based synthesis noise
//!   from [`noise`] making the landscape as rugged as real synthesis data.
//! * [`SynthJobRunner`] — the accounting front-end every search strategy
//!   evaluates through; counts distinct synthesis jobs and accumulates
//!   simulated tool time. It memoizes in one locked map for callers
//!   without a memo of their own (random search, local search, hint
//!   estimation) and behind fallible evaluators; the plain GA engine path
//!   builds it [without a memo](SynthJobRunner::without_memo), because the
//!   GA's own `EvalCache` already answers every repeat.
//! * [`Dataset`] — the paper's offline characterization artifact: an
//!   exhaustive multi-threaded sweep of a swept sub-space, with the rank and
//!   percentile queries the evaluation section needs (top-1% thresholds,
//!   normalized scores, expected random-sampling cost). Point lookup is a
//!   dense lattice index over the swept space, not a hash.
//!
//! ## Example
//!
//! ```
//! use nautilus_ga::Direction;
//! use nautilus_synth::{Dataset, MetricExpr};
//! # use nautilus_ga::{Genome, ParamSpace};
//! # use nautilus_synth::{CostModel, MetricCatalog, MetricSet};
//! # struct Toy { space: ParamSpace, catalog: MetricCatalog }
//! # impl CostModel for Toy {
//! #     fn name(&self) -> &str { "toy" }
//! #     fn space(&self) -> &ParamSpace { &self.space }
//! #     fn catalog(&self) -> &MetricCatalog { &self.catalog }
//! #     fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
//! #         Some(self.catalog.set(vec![f64::from(g.gene_at(0)) + 1.0]).unwrap())
//! #     }
//! # }
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let model = Toy {
//! #     space: ParamSpace::builder().int("x", 0, 15, 1).build()?,
//! #     catalog: MetricCatalog::new([("luts", "LUTs")])?,
//! # };
//! let dataset = Dataset::characterize(&model, 4)?;
//! let luts = MetricExpr::metric(dataset.catalog().require("luts")?);
//! let (best, value) = dataset.best(&luts, Direction::Minimize);
//! println!("best design {best} uses {value} LUTs");
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dataset;
mod error;
mod expr;
mod faults;
mod job;
mod metric;
mod model;
pub mod noise;

pub use dataset::{Dataset, DatasetModel, CHARACTERIZE_LIMIT};
pub use error::{Result, SynthError};
pub use expr::{ExprDisplay, MetricExpr};
pub use faults::{FaultPlan, FaultyEvaluator, InjectedFault};
pub use job::{JobStats, SynthJobRunner};
pub use metric::{MetricCatalog, MetricDef, MetricId, MetricSet};
pub use model::{CostModel, SlowModel};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricCatalog>();
        assert_send_sync::<MetricSet>();
        assert_send_sync::<MetricExpr>();
        assert_send_sync::<Dataset>();
        assert_send_sync::<SynthJobRunner<'static>>();
        assert_send_sync::<SynthError>();
        assert_send_sync::<FaultPlan>();
        assert_send_sync::<FaultyEvaluator<'static>>();
    }
}
