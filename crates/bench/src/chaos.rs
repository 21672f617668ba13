//! Chaos-run digests: deterministic fingerprints of faulted searches.
//!
//! `scripts/check.sh` runs the `chaos` binary across a seed matrix at
//! several `eval_workers` settings and diffs the outputs: any divergence
//! means the parallel evaluation pipeline leaked nondeterminism into the
//! fault-handling path. The digest therefore contains everything
//! outcome-shaped — best genome, objective value, job and fault counters —
//! and nothing timing-shaped. The worker count deliberately does not
//! appear in the digest.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use nautilus::{
    Confidence, FaultPlan, Nautilus, Query, RetryPolicy, RunBudget, SearchOutcome, SupervisePolicy,
};
use nautilus_noc::hints::fmax_hints;
use nautilus_obs::json::JsonObj;
use nautilus_synth::{CostModel, MetricCatalog, MetricExpr, SlowModel};

use crate::data::router_dataset;

/// Transient-failure rate of the standard chaos run (the acceptance
/// criterion's "10% injected transient faults").
pub const CHAOS_TRANSIENT_RATE: f64 = 0.10;

/// Hang rate of the hang-storm digest (the acceptance criterion's "10% of
/// distinct genomes hang").
pub const STORM_HANG_RATE: f64 = 0.10;

pub(crate) fn outcome_json(outcome: &SearchOutcome) -> String {
    let f = &outcome.faults;
    let h = &outcome.health;
    let mut o = JsonObj::new();
    o.str("strategy", &outcome.strategy)
        .str("stop", outcome.stop.as_str())
        .str("best_genome", &outcome.best_genome.to_string())
        .f64("best_value", outcome.best_value)
        .u64("trace_points", outcome.trace.len() as u64)
        .u64("jobs", outcome.jobs.jobs)
        .u64("infeasible", outcome.jobs.infeasible)
        .u64("cache_hits", outcome.jobs.cache_hits)
        .u64("tool_secs", outcome.jobs.simulated_tool_secs)
        .u64("evals_failed", f.evals_failed)
        .u64("retries", f.retries)
        .u64("retries_recovered", f.retries_recovered)
        .u64("quarantined", f.quarantined)
        .arr_u64("failed_attempts", &f.failed_attempts)
        .u64("attempts_supervised", h.attempts_supervised)
        .u64("watchdog_fired", h.watchdog_fired)
        .u64("late_results_discarded", h.late_results_discarded)
        .u64("hedges_issued", h.hedges_issued)
        .u64("hedges_won", h.hedges_won)
        .u64("hedges_wasted", h.hedges_wasted)
        .u64("breaker_trips", h.breaker_trips)
        .u64("breaker_recoveries", h.breaker_recoveries)
        .u64("breaker_probes", h.breaker_probes)
        .u64("evals_shed", h.evals_shed);
    o.finish()
}

/// Runs the standard chaos pair — baseline and strongly guided searches of
/// the router *maximize Fmax* query under a 10% transient fault storm —
/// and returns a deterministic JSON digest of both outcomes.
///
/// Digests for the same `seed` must be byte-identical at every `workers`
/// setting; that is exactly what the check-script gate diffs.
///
/// # Panics
///
/// Panics if a search fails outright, which the packaged router dataset
/// cannot cause at this fault rate with retries enabled.
#[must_use]
pub fn chaos_digest(seed: u64, workers: usize) -> String {
    let d = router_dataset();
    let model = d.as_model();
    let query = router_query(d.catalog());
    let engine = chaos_engine(&model, seed, workers);
    let baseline = engine.run_baseline(&query, seed).expect("chaos baseline run");
    let guided = engine
        .run_guided(&query, &fmax_hints(), Some(Confidence::STRONG), seed)
        .expect("chaos guided run");
    digest_pair(seed, &baseline, &guided)
}

/// The standard chaos engine over `model` (10% transient storm keyed on
/// `seed`, default retries, `workers` evaluator threads).
fn chaos_engine<'m>(model: &'m dyn CostModel, seed: u64, workers: usize) -> Nautilus<'m> {
    let plan = FaultPlan::new(seed).with_transient_rate(CHAOS_TRANSIENT_RATE);
    Nautilus::new(model)
        .with_fault_plan(plan)
        .with_retry_policy(RetryPolicy::default())
        .with_eval_workers(workers)
}

/// Runs the supervised hang-storm pair — baseline and strongly guided
/// searches of the router *maximize Fmax* query where 10% of attempts
/// hang (plus the standard 10% transient storm) — under watchdog /
/// hedging / circuit-breaker supervision, and returns a deterministic
/// JSON digest of both outcomes, health counters included.
///
/// Without supervision this plan would wedge a real evaluation pipeline;
/// here every hang is abandoned at the watchdog deadline and surfaced as
/// a timeout. Digests for the same `seed` must be byte-identical at every
/// `workers` setting.
///
/// # Panics
///
/// Panics if a search fails outright or the run's hedging identity
/// (`hedges_issued == hedges_won + hedges_wasted`) does not reconcile.
#[must_use]
pub fn hang_storm_digest(seed: u64, workers: usize) -> String {
    let d = router_dataset();
    let model = d.as_model();
    let query = router_query(d.catalog());
    let engine = storm_engine(&model, seed, workers);
    let baseline = engine.run_baseline(&query, seed).expect("hang-storm baseline run");
    let guided = engine
        .run_guided(&query, &fmax_hints(), Some(Confidence::STRONG), seed)
        .expect("hang-storm guided run");
    storm_pair(seed, &baseline, &guided)
}

/// Digest assembly for a supervised hang-storm pair — shared with the
/// subprocess digests so the process boundary can be diffed byte for
/// byte. Asserts the hedging identity of both outcomes.
pub(crate) fn storm_pair(seed: u64, baseline: &SearchOutcome, guided: &SearchOutcome) -> String {
    for outcome in [baseline, guided] {
        assert!(outcome.health.reconciles(), "hedge identity broken: {:?}", outcome.health);
    }
    let mut o = JsonObj::new();
    o.u64("storm_seed", seed)
        .f64("hang_rate", STORM_HANG_RATE)
        .f64("transient_rate", CHAOS_TRANSIENT_RATE)
        .raw("baseline", &outcome_json(baseline))
        .raw("guided", &outcome_json(guided));
    o.finish()
}

/// The supervised hang-storm engine over `model`: the standard chaos plan
/// plus a 10% hang rate, watched by the default [`SupervisePolicy`].
fn storm_engine<'m>(model: &'m dyn CostModel, seed: u64, workers: usize) -> Nautilus<'m> {
    let plan = FaultPlan::new(seed)
        .with_transient_rate(CHAOS_TRANSIENT_RATE)
        .with_hang_rate(STORM_HANG_RATE);
    Nautilus::new(model)
        .with_fault_plan(plan)
        .with_retry_policy(RetryPolicy::default())
        .with_supervision(SupervisePolicy::default())
        .with_eval_workers(workers)
}

pub(crate) fn router_query(catalog: &MetricCatalog) -> Query {
    let fmax = MetricExpr::metric(catalog.require("fmax").expect("router metric"));
    Query::maximize("fmax", fmax)
}

pub(crate) fn digest_pair(seed: u64, baseline: &SearchOutcome, guided: &SearchOutcome) -> String {
    let mut o = JsonObj::new();
    o.u64("chaos_seed", seed)
        .f64("transient_rate", CHAOS_TRANSIENT_RATE)
        .raw("baseline", &outcome_json(baseline))
        .raw("guided", &outcome_json(guided));
    o.finish()
}

/// Runs the standard chaos pair interrupted-then-resumed and returns the
/// final digest, which must be byte-identical to [`chaos_digest`] for the
/// same seed at every worker count.
///
/// Each search first runs under a `budget_generations` cap, journaling
/// its replies in a subdirectory of `dir` (`baseline/`, `guided/`), then
/// is resumed from that journal to completion by a second engine
/// instance — the same replay a crash-and-restart performs.
///
/// # Panics
///
/// Panics if a search or resume fails, which intact journals cannot
/// cause.
#[must_use]
pub fn chaos_resume_digest(
    seed: u64,
    workers: usize,
    dir: &Path,
    budget_generations: u32,
) -> String {
    let d = router_dataset();
    let model = d.as_model();
    let query = router_query(d.catalog());
    let hints = fmax_hints();
    let budget = RunBudget::new().with_max_generations(budget_generations);

    let base_dir = dir.join("baseline");
    let cut = chaos_engine(&model, seed, workers)
        .with_checkpoints(&base_dir)
        .with_budget(budget.clone())
        .run_baseline(&query, seed)
        .expect("chaos baseline (interrupted) run");
    assert!(cut.stop.is_interrupted(), "budget {budget_generations} should interrupt the run");
    let baseline = chaos_engine(&model, seed, workers)
        .resume_from(&query, None, &base_dir)
        .expect("chaos baseline resume");

    let guided_dir = dir.join("guided");
    chaos_engine(&model, seed, workers)
        .with_checkpoints(&guided_dir)
        .with_budget(budget)
        .run_guided(&query, &hints, Some(Confidence::STRONG), seed)
        .expect("chaos guided (interrupted) run");
    let guided = chaos_engine(&model, seed, workers)
        .resume_from(&query, Some((&hints, Some(Confidence::STRONG))), &guided_dir)
        .expect("chaos guided resume");

    digest_pair(seed, &baseline, &guided)
}

/// Recovers whatever a killed [`chaos_victim`] process left in `dir` and
/// drives both searches to completion, returning the final digest.
///
/// Each search runs again over its journal (`baseline/`, `guided/`):
/// the replies the victim journaled are answered from it, and a search
/// the victim never reached simply starts. Either way the digest must
/// match [`chaos_digest`] byte for byte — a `SIGKILL` at an arbitrary
/// point may cost the tool calls in flight, never a different answer.
///
/// # Panics
///
/// Panics if a search fails outright.
#[must_use]
pub fn chaos_recover_digest(seed: u64, workers: usize, dir: &Path) -> String {
    let d = router_dataset();
    let model = d.as_model();
    let query = router_query(d.catalog());
    let hints = fmax_hints();

    let baseline = chaos_engine(&model, seed, workers)
        .with_checkpoints(dir.join("baseline"))
        .run_baseline(&query, seed)
        .expect("chaos baseline recovery");
    let guided = chaos_engine(&model, seed, workers)
        .with_checkpoints(dir.join("guided"))
        .run_guided(&query, &hints, Some(Confidence::STRONG), seed)
        .expect("chaos guided recovery");
    digest_pair(seed, &baseline, &guided)
}

/// Runs the full chaos pair journaling into `dir`, with an artificial
/// `eval_delay` per evaluation — the designated victim of the
/// kill-and-resume gate. A parent process SIGKILLs it partway; if it
/// survives, it returns the same digest [`chaos_digest`] produces.
///
/// `cancel` cooperatively stops each search at the next generation
/// boundary (with its journal synced) when raised — wire it to SIGINT so
/// an interactive Ctrl-C also degrades into a clean resumable stop.
///
/// # Panics
///
/// Panics if a search fails outright.
#[must_use]
pub fn chaos_victim(
    seed: u64,
    workers: usize,
    dir: &Path,
    eval_delay: Duration,
    cancel: Arc<AtomicBool>,
) -> String {
    let d = router_dataset();
    let model = SlowModel::new(Box::new(d.as_model()), eval_delay);
    let query = router_query(d.catalog());
    let hints = fmax_hints();
    let budget = RunBudget::new().with_cancel_flag(cancel);

    let baseline = chaos_engine(&model, seed, workers)
        .with_checkpoints(dir.join("baseline"))
        .with_budget(budget.clone())
        .run_baseline(&query, seed)
        .expect("chaos victim baseline run");
    let guided = chaos_engine(&model, seed, workers)
        .with_checkpoints(dir.join("guided"))
        .with_budget(budget)
        .run_guided(&query, &hints, Some(Confidence::STRONG), seed)
        .expect("chaos victim guided run");
    digest_pair(seed, &baseline, &guided)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_seed_sensitive_and_fault_bearing() {
        let a = chaos_digest(1, 1);
        assert_eq!(a, chaos_digest(1, 1), "same seed must reproduce byte-identically");
        assert_ne!(a, chaos_digest(2, 1), "different seeds must inject differently");
        assert!(nautilus::obs::json::parse_json(&a).is_ok());
        assert!(a.contains("\"evals_failed\""));
        assert!(!a.contains("\"evals_failed\":0"), "10% storm should record failures");
        assert!(!a.contains("workers"), "digest must not leak the worker count");
    }
}
