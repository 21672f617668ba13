//! Subprocess-run digests: the process-boundary determinism gate.
//!
//! The chaos digests in [`crate::chaos`] prove the *in-process* fault
//! pipeline deterministic across worker counts. This module extends the
//! same gate across a process boundary: the identical searches are routed
//! through [`nautilus::SubprocessEvaluator`] to a `mock-synth` child (or
//! pool of children) speaking the `NAUTPROC` protocol, and the digests
//! must come back **byte-identical** to their in-process counterparts —
//! clean, under the standard 10% transient storm, and under the
//! supervised hang storm. `scripts/check.sh` diffs exactly that.
//!
//! Two rules keep the comparison honest:
//!
//! * the digest never mentions the worker count, the pool size, or the
//!   tool path — only outcome-shaped facts;
//! * fault chaos is driven from the **tool side** (`mock-synth
//!   --plan-seed`), because an in-process fault plan and a subprocess
//!   evaluator are mutually exclusive by construction.

use std::path::Path;
use std::time::{Duration, Instant};

use nautilus::{
    Confidence, Nautilus, RetryPolicy, SearchOutcome, SubprocessConfig, SupervisePolicy,
};
use nautilus_ga::GaSettings;
use nautilus_noc::hints::fmax_hints;
use nautilus_obs::json::JsonObj;

use crate::chaos::{
    digest_pair, outcome_json, router_query, storm_pair, CHAOS_TRANSIENT_RATE, STORM_HANG_RATE,
};
use crate::data::router_dataset;

/// Warm-child pool size of every subprocess digest. Deliberately neither
/// 1 nor the eval-worker count: routing is keyed on the genome, so the
/// pool size must never show up in any outcome.
pub const DIGEST_POOL: usize = 2;

/// Child I/O deadline of the hang-storm digests. Every injected hang
/// costs the parent one real wait of this length before the kill, so the
/// deadline is tuned for test wall-clock, not for realism.
pub const STORM_IO_TIMEOUT: Duration = Duration::from_millis(200);

/// The standard `mock-synth` invocation serving the swept router model
/// (whose replies match the router dataset point for point) with no
/// fault knobs.
#[must_use]
pub fn router_tool_config(tool: &Path) -> SubprocessConfig {
    SubprocessConfig::new(tool).args(["--model", "router"]).with_pool_size(DIGEST_POOL)
}

/// The `mock-synth` invocation mirroring the in-process chaos plan: the
/// same seeded 10% transient storm, decided child-side.
#[must_use]
pub fn chaos_tool_config(tool: &Path, seed: u64) -> SubprocessConfig {
    SubprocessConfig::new(tool)
        .args(["--model", "router", "--plan-seed"])
        .arg(seed.to_string())
        .arg("--transient-rate")
        .arg(CHAOS_TRANSIENT_RATE.to_string())
        .with_pool_size(DIGEST_POOL)
}

/// The `mock-synth` invocation mirroring the in-process hang-storm plan
/// (10% transients plus 10% hangs), with the short [`STORM_IO_TIMEOUT`]
/// so every real hang is abandoned quickly.
#[must_use]
pub fn storm_tool_config(tool: &Path, seed: u64) -> SubprocessConfig {
    chaos_tool_config(tool, seed)
        .arg("--hang-rate")
        .arg(STORM_HANG_RATE.to_string())
        .with_io_timeout(STORM_IO_TIMEOUT)
}

fn clean_pair(seed: u64, baseline: &SearchOutcome, guided: &SearchOutcome) -> String {
    let mut o = JsonObj::new();
    o.u64("clean_seed", seed)
        .raw("baseline", &outcome_json(baseline))
        .raw("guided", &outcome_json(guided));
    o.finish()
}

fn run_pair(engine: &Nautilus<'_>, seed: u64) -> (SearchOutcome, SearchOutcome) {
    let d = router_dataset();
    let query = router_query(d.catalog());
    let baseline = engine.run_baseline(&query, seed).expect("baseline run");
    let guided = engine
        .run_guided(&query, &fmax_hints(), Some(Confidence::STRONG), seed)
        .expect("guided run");
    (baseline, guided)
}

/// The fault-free in-process reference digest: baseline and strongly
/// guided searches of the router *maximize Fmax* query.
///
/// # Panics
///
/// Panics if a search fails, which the packaged router dataset cannot
/// cause.
#[must_use]
pub fn clean_digest(seed: u64, workers: usize) -> String {
    let d = router_dataset();
    let model = d.as_model();
    let engine = Nautilus::new(&model).with_eval_workers(workers);
    let (baseline, guided) = run_pair(&engine, seed);
    clean_pair(seed, &baseline, &guided)
}

/// [`clean_digest`] with every evaluation served by a `mock-synth` child
/// pool at `tool`. Must be byte-identical to the in-process digest at
/// every `workers` setting.
///
/// # Panics
///
/// Panics if the tool cannot be spawned or a search fails.
#[must_use]
pub fn subprocess_clean_digest(seed: u64, workers: usize, tool: &Path) -> String {
    let d = router_dataset();
    let model = d.as_model();
    let engine = Nautilus::new(&model)
        .with_eval_workers(workers)
        .with_subprocess_evaluator(router_tool_config(tool));
    let (baseline, guided) = run_pair(&engine, seed);
    clean_pair(seed, &baseline, &guided)
}

/// [`crate::chaos_digest`] with the storm decided *child-side*: the
/// `mock-synth` pool carries the same seeded 10% transient plan, every
/// injected crash is a real process death (dying gasp, then nonzero
/// exit), and the parent respawns as it retries. Must be byte-identical
/// to the in-process chaos digest for the same seed at every `workers`
/// setting.
///
/// # Panics
///
/// Panics if the tool cannot be spawned or a search fails.
#[must_use]
pub fn subprocess_chaos_digest(seed: u64, workers: usize, tool: &Path) -> String {
    let d = router_dataset();
    let model = d.as_model();
    let engine = Nautilus::new(&model)
        .with_retry_policy(RetryPolicy::default())
        .with_eval_workers(workers)
        .with_subprocess_evaluator(chaos_tool_config(tool, seed));
    let (baseline, guided) = run_pair(&engine, seed);
    digest_pair(seed, &baseline, &guided)
}

/// [`crate::hang_storm_digest`] across the process boundary: hangs are
/// real child silence abandoned at [`STORM_IO_TIMEOUT`] (then the child
/// is killed and the slot respawned), transients are real child deaths.
/// Must be byte-identical to the in-process hang-storm digest for the
/// same seed at every `workers` setting.
///
/// # Panics
///
/// Panics if the tool cannot be spawned, a search fails, or the hedging
/// identity does not reconcile.
#[must_use]
pub fn subprocess_storm_digest(seed: u64, workers: usize, tool: &Path) -> String {
    let d = router_dataset();
    let model = d.as_model();
    let engine = Nautilus::new(&model)
        .with_retry_policy(RetryPolicy::default())
        .with_supervision(SupervisePolicy::default())
        .with_eval_workers(workers)
        .with_subprocess_evaluator(storm_tool_config(tool, seed));
    let (baseline, guided) = run_pair(&engine, seed);
    storm_pair(seed, &baseline, &guided)
}

/// One dispatch-overhead measurement: the same short router search run
/// in-process and through a single `mock-synth` child.
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// Wall-clock of the in-process run, milliseconds.
    pub inprocess_ms: f64,
    /// Wall-clock of the subprocess run, milliseconds (includes the one
    /// child's spawn, handshake and shutdown).
    pub subprocess_ms: f64,
    /// Backend synthesis jobs the search dispatched (identical in both
    /// runs, or the measurement panics).
    pub jobs: u64,
    /// Mean per-job overhead of crossing the process boundary, in
    /// microseconds: `(subprocess_ms - inprocess_ms) / jobs`.
    pub overhead_us_per_job: f64,
}

/// Measures the per-evaluation cost of the process boundary with a short
/// (20-generation) router search at one eval worker against a one-child
/// pool, verifying bit-identical outcomes along the way.
///
/// # Panics
///
/// Panics if the tool cannot be spawned, a search fails, or the two
/// outcomes differ — a perf number for a wrong answer is worthless.
#[must_use]
pub fn measure_subprocess_dispatch(tool: &Path) -> DispatchReport {
    let d = router_dataset();
    let model = d.as_model();
    let query = router_query(d.catalog());
    let settings = GaSettings { generations: 20, ..GaSettings::default() };

    let start = Instant::now();
    let inprocess = Nautilus::new(&model)
        .with_settings(settings)
        .run_baseline(&query, 42)
        .expect("in-process dispatch run");
    let inprocess_ms = start.elapsed().as_secs_f64() * 1e3;

    let config = SubprocessConfig::new(tool).args(["--model", "router"]).with_pool_size(1);
    let start = Instant::now();
    let subprocess = Nautilus::new(&model)
        .with_settings(settings)
        .with_subprocess_evaluator(config)
        .run_baseline(&query, 42)
        .expect("subprocess dispatch run");
    let subprocess_ms = start.elapsed().as_secs_f64() * 1e3;

    assert_eq!(subprocess, inprocess, "the process boundary must not change outcomes");
    let jobs = inprocess.jobs.jobs;
    DispatchReport {
        inprocess_ms,
        subprocess_ms,
        jobs,
        overhead_us_per_job: (subprocess_ms - inprocess_ms) * 1e3 / jobs as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_digest_is_deterministic_and_worker_invariant() {
        let a = clean_digest(5, 1);
        assert_eq!(a, clean_digest(5, 2), "clean digest must not depend on workers");
        assert_ne!(a, clean_digest(6, 1), "clean digest must depend on the seed");
        assert!(nautilus::obs::json::parse_json(&a).is_ok());
        assert!(!a.contains("workers"), "digest must not leak the worker count");
    }
}
