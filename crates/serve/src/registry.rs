//! The daemon's model registry: every model a [`crate::job::JobSpec`] may
//! name, each with its canonical query and non-expert hint set.
//!
//! A spec names *what* to search; this module decides what that means, so
//! two tenants (or two daemon incarnations) resolving the same spec always
//! build the identical search. That invariant is what makes crash recovery
//! provable: the re-adopting daemon reconstructs the engine purely from
//! the persisted spec.

use std::thread;
use std::time::Duration;

use nautilus::{Confidence, HintSet, Query};
use nautilus_ga::{Genome, ParamSpace, ParamValue};
use nautilus_noc::hints::fmax_hints;
use nautilus_noc::router::RouterModel;
use nautilus_synth::{CostModel, MetricCatalog, MetricExpr, MetricSet};

use crate::quota::Backpressure;

/// A resolved job: the model to search, the query over its catalog, and
/// the hint set its guided strategies use.
pub struct ResolvedModel {
    /// The cost model (possibly wrapped in an artificial-latency shim).
    pub model: Box<dyn CostModel>,
    /// The model's canonical query.
    pub query: Query,
    /// Non-expert hints for the canonical query's metric.
    pub hints: HintSet,
}

impl std::fmt::Debug for ResolvedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedModel").field("model", &self.model.name()).finish()
    }
}

/// Guidance configuration a strategy string resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The oblivious baseline GA.
    Baseline,
    /// Hint-guided search at [`Confidence::WEAK`].
    GuidedWeak,
    /// Hint-guided search at [`Confidence::STRONG`].
    GuidedStrong,
}

impl Strategy {
    /// Parses a spec's strategy string.
    ///
    /// # Errors
    ///
    /// [`Backpressure::UnknownStrategy`] for anything unrecognized.
    pub fn parse(name: &str) -> Result<Strategy, Backpressure> {
        match name {
            "baseline" => Ok(Strategy::Baseline),
            "guided-weak" => Ok(Strategy::GuidedWeak),
            "guided-strong" => Ok(Strategy::GuidedStrong),
            other => Err(Backpressure::UnknownStrategy { name: other.to_owned() }),
        }
    }

    /// The confidence this strategy passes to guided runs; `None` means
    /// baseline (no guidance at all).
    #[must_use]
    pub fn confidence(self) -> Option<Confidence> {
        match self {
            Strategy::Baseline => None,
            Strategy::GuidedWeak => Some(Confidence::WEAK),
            Strategy::GuidedStrong => Some(Confidence::STRONG),
        }
    }
}

/// Model names the registry resolves, in stable order.
pub const MODELS: &[&str] = &["bowl", "ridge", "router", "barren", "poison"];

/// Resolves `name` into a model + query + hints, applying an artificial
/// per-evaluation latency of `eval_delay_us` microseconds when nonzero.
///
/// # Errors
///
/// [`Backpressure::UnknownModel`] for anything not in [`MODELS`].
pub fn resolve(name: &str, eval_delay_us: u64) -> Result<ResolvedModel, Backpressure> {
    let resolved = match name {
        "bowl" => bowl(),
        "ridge" => ridge(),
        "router" => router(),
        "barren" => barren(),
        "poison" => poison(),
        other => return Err(Backpressure::UnknownModel { name: other.to_owned() }),
    };
    if eval_delay_us == 0 {
        return Ok(resolved);
    }
    Ok(ResolvedModel {
        model: Box::new(SlowModel {
            inner: resolved.model,
            delay: Duration::from_micros(eval_delay_us),
        }),
        query: resolved.query,
        hints: resolved.hints,
    })
}

fn minimize_cost(catalog: &MetricCatalog) -> Query {
    Query::minimize(
        "cost",
        MetricExpr::metric(catalog.require("cost").expect("registry models define `cost`")),
    )
}

/// Quadratic bowl over a 3-D integer space: smooth, unimodal, fast — the
/// workhorse for daemon tests and latency probes.
fn bowl() -> ResolvedModel {
    #[derive(Debug)]
    struct Bowl {
        space: ParamSpace,
        catalog: MetricCatalog,
    }
    impl CostModel for Bowl {
        fn name(&self) -> &str {
            "bowl"
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
            let cost = (x - 5.0).powi(2) + (y - 9.0).powi(2) + (z - 2.0).powi(2) + 1.0;
            Some(self.catalog.set(vec![cost]).expect("one metric"))
        }
    }
    let model = Bowl {
        space: ParamSpace::builder()
            .int("x", 0, 31, 1)
            .int("y", 0, 31, 1)
            .int("z", 0, 31, 1)
            .build()
            .expect("static space"),
        catalog: MetricCatalog::new([("cost", "units")]).expect("static catalog"),
    };
    let query = minimize_cost(&model.catalog);
    let hints = HintSet::for_metric("cost")
        .importance("x", 70)
        .expect("static hint")
        .bias("x", -0.5)
        .expect("static hint")
        .importance("y", 60)
        .expect("static hint")
        .bias("y", -0.3)
        .expect("static hint")
        .build();
    ResolvedModel { model: Box::new(model), query, hints }
}

/// Ridge with a categorical mode switch — exercises symbolic parameters
/// and target hints.
fn ridge() -> ResolvedModel {
    #[derive(Debug)]
    struct Ridge {
        space: ParamSpace,
        catalog: MetricCatalog,
    }
    impl CostModel for Ridge {
        fn name(&self) -> &str {
            "ridge"
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
            let mode = if g.gene_at(2) == 0 { 25.0 } else { 0.0 };
            let cost = (x - 3.0).powi(2) + y * 2.0 + mode + 1.0;
            Some(self.catalog.set(vec![cost]).expect("one metric"))
        }
    }
    let model = Ridge {
        space: ParamSpace::builder()
            .int("x", 0, 15, 1)
            .int("y", 0, 15, 1)
            .choices("mode", ["slow", "fast"])
            .build()
            .expect("static space"),
        catalog: MetricCatalog::new([("cost", "units")]).expect("static catalog"),
    };
    let query = minimize_cost(&model.catalog);
    let hints = HintSet::for_metric("cost")
        .importance("x", 90)
        .expect("static hint")
        .bias("x", 0.3)
        .expect("static hint")
        .target("mode", ParamValue::Sym("fast".into()))
        .expect("static hint")
        .importance("mode", 80)
        .expect("static hint")
        .build();
    ResolvedModel { model: Box::new(model), query, hints }
}

/// The paper's VC router over its swept 9-parameter sub-space, searched
/// for maximum Fmax with the NoC crate's non-expert hints.
fn router() -> ResolvedModel {
    let model = RouterModel::swept();
    let query = Query::maximize(
        "fmax",
        MetricExpr::metric(model.catalog().require("fmax").expect("router defines fmax")),
    );
    ResolvedModel { model: Box::new(model), query, hints: fmax_hints() }
}

/// Every point infeasible: jobs against it fail cleanly with
/// `NoFeasibleGenome`, exercising the failure path and the breaker.
fn barren() -> ResolvedModel {
    #[derive(Debug)]
    struct Barren {
        space: ParamSpace,
        catalog: MetricCatalog,
    }
    impl CostModel for Barren {
        fn name(&self) -> &str {
            "barren"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn catalog(&self) -> &MetricCatalog {
            &self.catalog
        }
        fn evaluate(&self, _g: &Genome) -> Option<MetricSet> {
            None
        }
    }
    let model = Barren {
        space: ParamSpace::builder().int("x", 0, 7, 1).build().expect("static space"),
        catalog: MetricCatalog::new([("cost", "units")]).expect("static catalog"),
    };
    let query = minimize_cost(&model.catalog);
    let hints = HintSet::for_metric("cost").build();
    ResolvedModel { model: Box::new(model), query, hints }
}

/// Panics on every evaluation — the scheduler's panic-containment tests
/// submit it (with one eval worker, so the panic unwinds through the
/// runner) and assert the slot survives.
fn poison() -> ResolvedModel {
    #[derive(Debug)]
    struct Poison {
        space: ParamSpace,
        catalog: MetricCatalog,
    }
    impl CostModel for Poison {
        fn name(&self) -> &str {
            "poison"
        }
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn catalog(&self) -> &MetricCatalog {
            &self.catalog
        }
        fn evaluate(&self, _g: &Genome) -> Option<MetricSet> {
            panic!("poison model evaluated")
        }
    }
    let model = Poison {
        space: ParamSpace::builder().int("x", 0, 7, 1).build().expect("static space"),
        catalog: MetricCatalog::new([("cost", "units")]).expect("static catalog"),
    };
    let query = minimize_cost(&model.catalog);
    let hints = HintSet::for_metric("cost").build();
    ResolvedModel { model: Box::new(model), query, hints }
}

/// Wraps a model with a fixed per-evaluation sleep: a stand-in for slow
/// EDA tools, so interruption and chaos tests reliably land mid-run.
/// Results (including simulated tool time) are bit-identical to the
/// wrapped model's — only wall-clock changes.
struct SlowModel {
    inner: Box<dyn CostModel>,
    delay: Duration,
}

impl CostModel for SlowModel {
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
        thread::sleep(self.delay);
        self.inner.evaluate(genome)
    }
    fn synth_time(&self, genome: &Genome) -> Duration {
        self.inner.synth_time(genome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_model_resolves() {
        for name in MODELS {
            let resolved = resolve(name, 0).expect("listed models resolve");
            // Registry keys are service-facing; the underlying cost model
            // may carry its own name (e.g. `router` -> "vc-router").
            assert!(!resolved.model.name().is_empty());
        }
        assert!(matches!(resolve("warp-core", 0), Err(Backpressure::UnknownModel { .. })));
    }

    #[test]
    fn strategies_parse_and_unknowns_are_typed() {
        assert_eq!(Strategy::parse("baseline").unwrap(), Strategy::Baseline);
        assert_eq!(Strategy::parse("guided-weak").unwrap(), Strategy::GuidedWeak);
        assert_eq!(Strategy::parse("guided-strong").unwrap(), Strategy::GuidedStrong);
        assert!(Strategy::Baseline.confidence().is_none());
        assert!(Strategy::GuidedStrong.confidence().is_some());
        assert!(matches!(Strategy::parse("psychic"), Err(Backpressure::UnknownStrategy { .. })));
    }

    #[test]
    fn slow_wrapper_changes_wall_clock_not_results() {
        let plain = resolve("bowl", 0).unwrap();
        let slow = resolve("bowl", 100).unwrap();
        let g = Genome::from_genes(vec![5, 9, 2]);
        assert_eq!(
            plain.model.evaluate(&g).unwrap().values(),
            slow.model.evaluate(&g).unwrap().values()
        );
        assert_eq!(plain.model.synth_time(&g), slow.model.synth_time(&g));
    }
}
