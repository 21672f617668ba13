//! Executes one job on a scheduler slot: resolve the spec, run the
//! journaled search (which resumes whatever an earlier incarnation left),
//! and compose crash-stable artifacts.
//!
//! The artifacts are built to one invariant: **a run that was interrupted
//! any number of times produces byte-identical artifacts to a run that was
//! never interrupted.** Two pieces make that hold:
//!
//! * The search journals its tool replies in the job's checkpoint
//!   directory, and a run over a journal replays it: it re-runs from the
//!   seed, answers the journaled replies without the tool, and rebuilds
//!   the outcome, the report and the whole event stream
//!   ([`nautilus::Nautilus::with_checkpoints`]). The run collects that
//!   stream in memory and builds its artifacts from it, as [`straight`]
//!   does.
//! * Reports and event streams are normalized the same way the engine's
//!   own resume tests normalize them: wall-clock, span timings, and
//!   durability-only events are excluded; everything else must match.
//!
//! Each incarnation also writes the raw stream to the job's live log
//! ([`JobDir::event_log`]) for operators to tail. The log is an output,
//! not state: nothing reads it back, and a log that cannot be created or
//! written costs the job nothing.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, PoisonError};

use nautilus::StopReason;
use nautilus::{InMemorySink, Nautilus, NautilusError, RunBudget, RunReport, SearchOutcome};
use nautilus_ga::{GaError, GaSettings};
use nautilus_obs::json::JsonObj;
use nautilus_obs::{noop, Fanout, SearchEvent, SearchObserver};

use crate::job::{JobDir, JobSpec};
use crate::registry::{resolve, Strategy};

/// What kind of thing failed, which decides who pays for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The model/strategy/search itself misbehaved — counts against the
    /// model's circuit breaker.
    Model,
    /// The environment failed a durable write (disk full, fsync error,
    /// ...) — never trips a breaker; the daemon requeues or parks the
    /// job, and the rerun replays the journal's intact records.
    Durable,
}

/// A typed execution failure: the class drives breaker accounting, and
/// `site` names the durable write that failed (empty for model faults).
#[derive(Debug, Clone)]
pub struct RunFault {
    /// Who pays: the model's breaker, or nobody.
    pub class: FaultClass,
    /// Durable-write site label (`ckpt`); empty for model faults.
    pub site: String,
    /// Human-readable failure message.
    pub message: String,
}

impl RunFault {
    pub(crate) fn model(message: impl Into<String>) -> RunFault {
        RunFault { class: FaultClass::Model, site: String::new(), message: message.into() }
    }

    pub(crate) fn durable(site: &str, message: impl Into<String>) -> RunFault {
        RunFault { class: FaultClass::Durable, site: site.to_owned(), message: message.into() }
    }
}

impl std::fmt::Display for RunFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.class {
            FaultClass::Model => write!(f, "{}", self.message),
            FaultClass::Durable => write!(f, "durable fault at {}: {}", self.site, self.message),
        }
    }
}

/// Everything a finished run leaves behind.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// How the search stopped.
    pub stop: StopReason,
    /// Deterministic outcome digest.
    pub outcome_json: String,
    /// Normalized [`RunReport`] JSON.
    pub report_json: String,
    /// Normalized event stream, one JSON object per line.
    pub events_jsonl: String,
}

/// Runs `spec` inside `dir`, replaying the job's journal when an earlier
/// incarnation left one. `cancel` is the cooperative stop flag: raising it
/// halts the run at the next generation boundary with its journal synced.
///
/// # Errors
///
/// A typed [`RunFault`]: model faults (unknown strategy/model, engine
/// error) count against the model's breaker; durable faults (a failed
/// journal write) never do — the caller requeues the job or parks it.
pub fn execute(
    spec: &JobSpec,
    dir: &JobDir,
    cancel: &Arc<AtomicBool>,
) -> Result<RunArtifacts, RunFault> {
    let strategy = Strategy::parse(&spec.strategy).map_err(|b| RunFault::model(b.detail()))?;
    let resolved =
        resolve(&spec.model, spec.eval_delay_us).map_err(|b| RunFault::model(b.detail()))?;
    let sink = InMemorySink::new();
    // The artifacts come from `sink`, so a job whose live log cannot be
    // created runs without one.
    let live = EventLog::create(&dir.event_log()).ok();
    let live: &dyn SearchObserver = match &live {
        Some(log) => log,
        None => noop(),
    };
    let observer = Fanout::pair(&sink, live);

    let mut budget = RunBudget::new().with_cancel_flag(Arc::clone(cancel));
    if spec.max_evals > 0 {
        budget = budget.with_max_evaluations(spec.max_evals);
    }
    if spec.deadline_ms > 0 {
        budget = budget.with_deadline(std::time::Duration::from_millis(spec.deadline_ms));
    }

    let engine = Nautilus::new(resolved.model.as_ref())
        .with_observer(&observer)
        .with_settings(settings_for(spec))
        .with_budget(budget)
        .with_checkpoints(dir.checkpoint_dir())
        .with_checkpoint_io(dir.io().clone());
    let run = match strategy.confidence() {
        Some(c) => engine.run_guided_reported(&resolved.query, &resolved.hints, Some(c), spec.seed),
        None => engine.run_baseline_reported(&resolved.query, spec.seed),
    };
    let (outcome, report) = run.map_err(classify_engine_error)?;
    Ok(artifacts(&outcome, report, &sink.events()))
}

/// A journal-write failure aborted the engine mid-run: the journal's
/// intact records still replay bit-for-bit, so a rerun loses nothing.
/// Everything else is the model's problem.
fn classify_engine_error(e: NautilusError) -> RunFault {
    match &e {
        NautilusError::Ga(GaError::Checkpoint(_)) => RunFault::durable("ckpt", e.to_string()),
        _ => RunFault::model(e.to_string()),
    }
}

/// Runs `spec` start-to-finish in-process with no journal and no daemon:
/// the uninterrupted comparator the chaos gates diff against.
///
/// # Errors
///
/// As [`execute`].
pub fn straight(spec: &JobSpec) -> Result<RunArtifacts, String> {
    let strategy = Strategy::parse(&spec.strategy).map_err(|b| b.detail())?;
    let resolved = resolve(&spec.model, spec.eval_delay_us).map_err(|b| b.detail())?;
    let sink = InMemorySink::new();
    let mut budget = RunBudget::new();
    if spec.max_evals > 0 {
        budget = budget.with_max_evaluations(spec.max_evals);
    }
    let engine = Nautilus::new(resolved.model.as_ref())
        .with_observer(&sink)
        .with_settings(settings_for(spec))
        .with_budget(budget);
    let (outcome, report) = match strategy.confidence() {
        Some(c) => engine
            .run_guided_reported(&resolved.query, &resolved.hints, Some(c), spec.seed)
            .map_err(|e| e.to_string())?,
        None => {
            engine.run_baseline_reported(&resolved.query, spec.seed).map_err(|e| e.to_string())?
        }
    };
    Ok(artifacts(&outcome, report, &sink.events()))
}

fn settings_for(spec: &JobSpec) -> GaSettings {
    let defaults = GaSettings::default();
    GaSettings {
        generations: spec.generations,
        eval_workers: if spec.eval_workers == 0 {
            defaults.eval_workers
        } else {
            spec.eval_workers as usize
        },
        // Mirror `Nautilus::new`'s paper-default single elite.
        elitism: 1,
        ..defaults
    }
}

fn artifacts(outcome: &SearchOutcome, report: RunReport, events: &[SearchEvent]) -> RunArtifacts {
    let mut stream = String::new();
    for event in events.iter().filter(|e| !is_durability_event(e)) {
        stream.push_str(&event.to_json());
        stream.push('\n');
    }
    RunArtifacts {
        stop: outcome.stop,
        outcome_json: outcome_json(outcome),
        report_json: normalize_report(report).to_json(),
        events_jsonl: stream,
    }
}

/// The event kinds a resume is allowed to differ in: the run's timing and
/// the durability machinery itself. Mirrors the engine's resume tests.
fn is_durability_event(event: &SearchEvent) -> bool {
    matches!(
        event,
        SearchEvent::RunEnd { .. }
            | SearchEvent::EvalBatch { .. }
            | SearchEvent::CheckpointWritten { .. }
            | SearchEvent::CheckpointRestored { .. }
            | SearchEvent::CheckpointCorruptSkipped { .. }
            | SearchEvent::RunInterrupted { .. }
    )
}

/// Blanks the report fields a resume is allowed to differ in.
fn normalize_report(mut report: RunReport) -> RunReport {
    report.wall_nanos = 0;
    report.durability = Default::default();
    report
}

/// Deterministic single-line digest of a [`SearchOutcome`] — the same
/// shape the bench chaos gates use, so daemon digests diff cleanly
/// against straight-run digests.
#[must_use]
pub fn outcome_json(outcome: &SearchOutcome) -> String {
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
        .u64("breaker_trips", h.breaker_trips)
        .u64("evals_shed", h.evals_shed);
    o.finish()
}

/// A [`SearchObserver`] that appends every event to a JSONL file, one
/// unbuffered write per line, so a reader tailing it (or a SIGKILL) sees
/// whole lines up to at most one torn last line.
///
/// It writes through the real filesystem, outside the
/// [`nautilus::DurableIo`] census: a job's live log and the daemon's
/// service log are outputs for operators, not recovery state, and a
/// failed write costs the run nothing.
#[derive(Debug)]
pub struct EventLog {
    file: Mutex<fs::File>,
}

impl EventLog {
    /// Creates (or truncates) the log at `path`: each incarnation starts
    /// a job's live log over.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &Path) -> std::io::Result<EventLog> {
        Ok(EventLog { file: Mutex::new(fs::File::create(path)?) })
    }

    /// Opens the log at `path` for appending, creating it if missing —
    /// the daemon's own lifecycle log spans incarnations this way.
    ///
    /// # Errors
    ///
    /// Propagates file-open failures.
    pub fn append(path: &Path) -> std::io::Result<EventLog> {
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog { file: Mutex::new(file) })
    }
}

impl SearchObserver for EventLog {
    fn on_event(&self, event: &SearchEvent) {
        let mut line = event.to_json();
        line.push('\n');
        // A poisoned lock still guards a valid file, and a failed write
        // costs only the log line: nothing reads the log back.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = file.write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("nautilus-serve-runner-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(model: &str, strategy: &str) -> JobSpec {
        JobSpec {
            tenant: "t".into(),
            model: model.into(),
            strategy: strategy.into(),
            seed: 7,
            generations: 8,
            eval_workers: 1,
            max_evals: 0,
            deadline_ms: 0,
            eval_delay_us: 0,
            dedupe_key: String::new(),
        }
    }

    #[test]
    fn fresh_execute_matches_straight_run() {
        for strategy in ["baseline", "guided-weak", "guided-strong"] {
            let root = tempdir(&format!("fresh-{strategy}"));
            let dir = JobDir::create(&root, 1).unwrap();
            let s = spec("bowl", strategy);
            let cancel = Arc::new(AtomicBool::new(false));
            let daemon_side = execute(&s, &dir, &cancel).unwrap();
            let straight_side = straight(&s).unwrap();
            assert_eq!(daemon_side.stop, StopReason::Completed);
            assert_eq!(daemon_side.outcome_json, straight_side.outcome_json);
            assert_eq!(daemon_side.report_json, straight_side.report_json);
            assert_eq!(daemon_side.events_jsonl, straight_side.events_jsonl);
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn cancelled_then_reexecuted_job_matches_straight_run() {
        let root = tempdir("cancel-resume");
        let dir = JobDir::create(&root, 1).unwrap();
        let s = spec("ridge", "guided-strong");

        // First incarnation: cancel immediately, so the budget fires at
        // the first boundary with the journal synced.
        let cancel = Arc::new(AtomicBool::new(true));
        let first = execute(&s, &dir, &cancel).unwrap();
        assert_eq!(first.stop, StopReason::Cancelled);

        let cancel = Arc::new(AtomicBool::new(false));
        let second = execute(&s, &dir, &cancel).unwrap();
        assert_eq!(second.stop, StopReason::Completed);

        let straight_side = straight(&s).unwrap();
        assert_eq!(second.outcome_json, straight_side.outcome_json);
        assert_eq!(second.report_json, straight_side.report_json);
        assert_eq!(second.events_jsonl, straight_side.events_jsonl);

        // The second incarnation started the live log over: it holds one
        // run, the replayed and the live part of it.
        let log = fs::read_to_string(dir.event_log()).unwrap();
        assert_eq!(log.matches("\"type\":\"run_start\"").count(), 1, "{log}");
        assert_eq!(log.matches("\"type\":\"run_end\"").count(), 1, "{log}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failures_surface_as_typed_model_faults_not_panics() {
        let root = tempdir("failures");
        let dir = JobDir::create(&root, 1).unwrap();
        let cancel = Arc::new(AtomicBool::new(false));
        let err = execute(&spec("warp-core", "baseline"), &dir, &cancel).unwrap_err();
        assert_eq!(err.class, FaultClass::Model);
        assert!(err.message.contains("unknown model"), "{err}");
        let err = execute(&spec("bowl", "psychic"), &dir, &cancel).unwrap_err();
        assert!(err.message.contains("unknown strategy"), "{err}");
        let err = execute(&spec("barren", "baseline"), &dir, &cancel).unwrap_err();
        assert_eq!(err.class, FaultClass::Model);
        assert!(err.message.contains("no feasible genome"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn an_unwritable_live_log_costs_the_job_nothing() {
        let root = tempdir("unwritable-log");
        let dir = JobDir::create(&root, 1).unwrap();
        fs::create_dir(dir.event_log()).unwrap();
        let s = spec("bowl", "guided-strong");
        let cancel = Arc::new(AtomicBool::new(false));
        let daemon_side = execute(&s, &dir, &cancel).unwrap();
        let straight_side = straight(&s).unwrap();
        assert_eq!(daemon_side.stop, StopReason::Completed);
        assert_eq!(daemon_side.outcome_json, straight_side.outcome_json);
        assert_eq!(daemon_side.report_json, straight_side.report_json);
        assert_eq!(daemon_side.events_jsonl, straight_side.events_jsonl);
        let _ = fs::remove_dir_all(&root);
    }
}
