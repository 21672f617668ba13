//! Executes one job on a scheduler slot: resolve the spec, resume or
//! start the checkpointed search, and compose crash-stable artifacts.
//!
//! The artifacts are built to one invariant: **a run that was interrupted
//! any number of times produces byte-identical artifacts to a run that was
//! never interrupted.** Three pieces make that hold:
//!
//! * The engine's checkpoint/resume discipline replays the search
//!   bit-for-bit ([`nautilus::Nautilus::resume_or_start_reported`]).
//! * Every incarnation streams raw events to its own per-line-flushed
//!   `events-NNN.jsonl`; [`compose_events`] splices the logs at checkpoint
//!   boundaries, discarding exactly the generation fragments the resumed
//!   incarnation re-executed.
//! * Reports and event streams are normalized the same way the engine's
//!   own resume tests normalize them: wall-clock, span timings, and
//!   durability-only events are excluded; everything else must match.

use std::fs;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

use nautilus::{DurableIo, StopReason};
use nautilus::{InMemorySink, Nautilus, NautilusError, RunBudget, RunReport, SearchOutcome};
use nautilus_ga::{GaError, GaSettings};
use nautilus_obs::json::{is_valid_json, parse_json, JsonObj, JsonValue};
use nautilus_obs::{SearchEvent, SearchObserver};

use crate::job::{JobDir, JobSpec};
use crate::registry::{resolve, Strategy};

/// What kind of thing failed, which decides who pays for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The model/strategy/search itself misbehaved — counts against the
    /// model's circuit breaker.
    Model,
    /// The environment failed a durable write (disk full, fsync error,
    /// ...) — never trips a breaker; the daemon retries or parks the job.
    Durable,
}

/// A typed execution failure: the class drives breaker accounting, the
/// `recoverable` flag drives requeue-vs-terminal handling, and `site`
/// names the durable write that failed (empty for model faults).
#[derive(Debug, Clone)]
pub struct RunFault {
    /// Who pays: the model's breaker, or nobody.
    pub class: FaultClass,
    /// Durable-write site label (`job.events`, `ckpt`, ...); empty for
    /// model faults.
    pub site: String,
    /// True when a retry from the surviving on-disk state can succeed
    /// without losing history. Event-log damage is *not* recoverable:
    /// replaying would drop already-logged lines and break the
    /// byte-identical artifact invariant.
    pub recoverable: bool,
    /// Human-readable failure message.
    pub message: String,
}

impl RunFault {
    pub(crate) fn model(message: impl Into<String>) -> RunFault {
        RunFault {
            class: FaultClass::Model,
            site: String::new(),
            recoverable: false,
            message: message.into(),
        }
    }

    pub(crate) fn durable(site: &str, recoverable: bool, message: impl Into<String>) -> RunFault {
        RunFault {
            class: FaultClass::Durable,
            site: site.to_owned(),
            recoverable,
            message: message.into(),
        }
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

/// Runs `spec` inside `dir`, resuming from the job's checkpoints when an
/// earlier incarnation left any. `cancel` is the cooperative stop flag:
/// raising it halts the run at the next generation boundary with a final
/// checkpoint on disk.
///
/// # Errors
///
/// A typed [`RunFault`]: model faults (unknown strategy/model, engine
/// error) count against the model's breaker; durable faults (a failed
/// checkpoint, event-log, or spec write) never do — the caller requeues
/// recoverable ones and parks the rest.
pub fn execute(
    spec: &JobSpec,
    dir: &JobDir,
    cancel: &Arc<AtomicBool>,
) -> Result<RunArtifacts, RunFault> {
    let strategy = Strategy::parse(&spec.strategy).map_err(|b| RunFault::model(b.detail()))?;
    let resolved =
        resolve(&spec.model, spec.eval_delay_us).map_err(|b| RunFault::model(b.detail()))?;
    // A create failure loses nothing: the engine never ran, so a fresh
    // incarnation replays from the surviving checkpoints.
    let log = EventLog::create(&dir.next_event_log(), dir.io().clone())
        .map_err(|e| RunFault::durable("job.events", true, e.to_string()))?;

    let mut budget = RunBudget::new().with_cancel_flag(Arc::clone(cancel));
    if spec.max_evals > 0 {
        budget = budget.with_max_evaluations(spec.max_evals);
    }
    if spec.deadline_ms > 0 {
        budget = budget.with_deadline(std::time::Duration::from_millis(spec.deadline_ms));
    }

    let engine = Nautilus::new(resolved.model.as_ref())
        .with_observer(&log)
        .with_settings(settings_for(spec))
        .with_budget(budget)
        .with_checkpoints(dir.checkpoint_dir())
        .with_checkpoint_io(dir.io().clone());
    let guidance = strategy.confidence().map(|c| (&resolved.hints, Some(c)));
    let run = engine.resume_or_start_reported(&resolved.query, guidance, spec.seed);
    drop(engine);
    let (outcome, report) = run.map_err(classify_engine_error)?;

    // Event-log damage is terminal: some already-emitted lines may be
    // missing from disk, and a replay incarnation would splice a stream
    // that silently dropped them.
    log.sync().map_err(|m| RunFault::durable("job.events", false, m))?;

    let events =
        compose_events(dir).map_err(|e| RunFault::durable("job.events", true, e.to_string()))?;
    Ok(artifacts(&outcome, report, events))
}

/// A checkpoint-write failure aborted the engine mid-run: the last intact
/// checkpoint still replays bit-for-bit, so the fault is recoverable.
/// Everything else is the model's problem.
fn classify_engine_error(e: NautilusError) -> RunFault {
    match &e {
        NautilusError::Ga(GaError::Checkpoint(_)) => RunFault::durable("ckpt", true, e.to_string()),
        _ => RunFault::model(e.to_string()),
    }
}

/// Runs `spec` start-to-finish in-process with no checkpoints and no
/// daemon: the uninterrupted comparator the chaos gates diff against.
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
    let events: Vec<String> = sink.events().iter().map(SearchEvent::to_json).collect();
    Ok(artifacts(&outcome, report, events))
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

fn artifacts(outcome: &SearchOutcome, report: RunReport, events: Vec<String>) -> RunArtifacts {
    let mut stream = String::new();
    for line in events.iter().filter(|l| !is_durability_event(l)) {
        stream.push_str(line);
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
fn is_durability_event(line: &str) -> bool {
    let Ok(value) = parse_json(line) else { return false };
    let Some(kind) = value.get("type").and_then(JsonValue::as_str) else { return false };
    matches!(
        kind,
        "run_end"
            | "eval_batch"
            | "checkpoint_written"
            | "checkpoint_restored"
            | "checkpoint_corrupt_skipped"
            | "run_interrupted"
            | "run_resumed"
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

/// Splices the job's per-incarnation event logs into the single stream an
/// uninterrupted run would have produced (before normalization).
///
/// For every incarnation that was followed by another: if the successor
/// resumed from checkpoint generation `G`, the predecessor's log is cut
/// just after its `checkpoint_written` line for `G` — everything past
/// that point belongs to generation work the successor re-executed. If
/// the successor started fresh (no intact checkpoint survived), the
/// predecessor's events are discarded wholesale. Lines truncated mid-write
/// by a kill are dropped.
///
/// # Errors
///
/// Propagates I/O failures reading the logs.
pub fn compose_events(dir: &JobDir) -> std::io::Result<Vec<String>> {
    let mut spliced: Vec<String> = Vec::new();
    let logs = dir.event_logs();
    for path in &logs {
        let lines = read_complete_lines(path)?;
        match restored_generation(&lines) {
            Restore::Fresh => spliced.clear(),
            Restore::FromCheckpoint(generation) => {
                truncate_at_checkpoint(&mut spliced, generation);
            }
        }
        spliced.extend(lines);
    }
    Ok(spliced)
}

enum Restore {
    /// The incarnation started (or restarted) the search from scratch.
    Fresh,
    /// The incarnation resumed from this checkpoint generation.
    FromCheckpoint(u64),
}

/// What the incarnation's opening events say about how it started. The
/// recovery replay emits `checkpoint_restored` before any run event, so
/// scanning for the first run-ish event terminates the search early.
fn restored_generation(lines: &[String]) -> Restore {
    for line in lines {
        let Ok(value) = parse_json(line) else { continue };
        match value.get("type").and_then(JsonValue::as_str) {
            Some("checkpoint_restored") => {
                if let Some(generation) = value.get("generation").and_then(JsonValue::as_u64) {
                    return Restore::FromCheckpoint(generation);
                }
            }
            Some("checkpoint_corrupt_skipped") | None => continue,
            Some(_) => break,
        }
    }
    Restore::Fresh
}

/// Cuts `spliced` just after the `checkpoint_written` line for
/// `generation`. When the line is absent the kill raced the event flush:
/// the log already ends at (or before) that checkpoint boundary, so the
/// whole prefix stands.
fn truncate_at_checkpoint(spliced: &mut Vec<String>, generation: u64) {
    for (idx, line) in spliced.iter().enumerate().rev() {
        let Ok(value) = parse_json(line) else { continue };
        if value.get("type").and_then(JsonValue::as_str) == Some("checkpoint_written")
            && value.get("generation").and_then(JsonValue::as_u64) == Some(generation)
        {
            spliced.truncate(idx + 1);
            return;
        }
    }
}

fn read_complete_lines(path: &Path) -> std::io::Result<Vec<String>> {
    let raw = fs::read_to_string(path)?;
    let mut lines: Vec<String> = Vec::new();
    let ends_clean = raw.ends_with('\n');
    let mut it = raw.lines().peekable();
    while let Some(line) = it.next() {
        let last = it.peek().is_none();
        // A kill mid-write can strand a torn final line; never let it
        // masquerade as an event.
        if last && (!ends_clean || !is_valid_json(line)) {
            break;
        }
        lines.push(line.to_owned());
    }
    Ok(lines)
}

/// A [`SearchObserver`] that appends every event to a JSONL file and
/// flushes per line, so a SIGKILL can lose at most one torn trailing
/// line — never a flushed prefix.
///
/// Write failures **poison** the log: the first error is recorded, every
/// later event is dropped without touching the file (and without
/// consuming fault-injection write points), and [`EventLog::sync`]
/// surfaces the stored fault. A half-written log never silently
/// masquerades as a complete one.
#[derive(Debug)]
pub struct EventLog {
    inner: Mutex<LogInner>,
}

#[derive(Debug)]
struct LogInner {
    file: fs::File,
    io: DurableIo,
    site: &'static str,
    fault: Option<String>,
}

impl EventLog {
    /// Creates (or truncates) the log at `path`, routing appends and
    /// syncs through `io` under the `job.events` site label.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures (including injected ones).
    pub fn create(path: &Path, io: DurableIo) -> std::io::Result<EventLog> {
        let file = io.create(path, "job.events")?;
        Ok(EventLog { inner: Mutex::new(LogInner { file, io, site: "job.events", fault: None }) })
    }

    /// Opens the log at `path` for appending, creating it if missing —
    /// the daemon's own lifecycle log spans incarnations this way. The
    /// service log is advisory telemetry, not recovery-critical state,
    /// so it always writes through the real filesystem: its appends race
    /// across connection threads and must not perturb the deterministic
    /// write-point sequence of the durable job state.
    ///
    /// # Errors
    ///
    /// Propagates file-open failures.
    pub fn append(path: &Path) -> std::io::Result<EventLog> {
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog {
            inner: Mutex::new(LogInner {
                file,
                io: DurableIo::real(),
                site: "daemon.service_log",
                fault: None,
            }),
        })
    }

    /// Fsyncs everything written so far, surfacing the first append
    /// failure recorded by [`SearchObserver::on_event`] if there was one.
    ///
    /// # Errors
    ///
    /// The stored append fault, or the sync failure itself.
    pub fn sync(&self) -> Result<(), String> {
        let inner = self.inner.lock().expect("event log lock");
        if let Some(fault) = &inner.fault {
            return Err(fault.clone());
        }
        inner.io.sync(&inner.file, inner.site).map_err(|e| e.to_string())
    }

    /// The first append failure, if any event write has failed so far.
    #[must_use]
    pub fn fault(&self) -> Option<String> {
        self.inner.lock().expect("event log lock").fault.clone()
    }
}

impl SearchObserver for EventLog {
    fn enabled(&self) -> bool {
        true
    }

    fn on_event(&self, event: &SearchEvent) {
        let mut line = event.to_json();
        line.push('\n');
        let Ok(mut inner) = self.inner.lock() else { return };
        if inner.fault.is_some() {
            return;
        }
        let LogInner { file, io, site, fault } = &mut *inner;
        if let Err(e) = io.append(file, line.as_bytes(), site) {
            *fault = Some(format!("event log append failed: {e}"));
        }
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

        // First incarnation: cancel before it starts a single generation
        // boundary... too racy. Instead cancel immediately: the budget
        // fires at the first boundary, leaving a checkpoint behind.
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
        assert!(!err.recoverable);
        assert!(err.message.contains("no feasible genome"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_poisoned_event_log_is_a_terminal_durable_fault() {
        use nautilus_ga::{IoFaultKind, IoFaultPlan};
        let root = tempdir("poisoned-log");
        // Write point 0 is the event-log create; point 3 lands mid-run on
        // an event append, poisoning the log.
        let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(3, IoFaultKind::WriteEnospc));
        let dir = JobDir::create(&root, 1).unwrap().with_io(io);
        let cancel = Arc::new(AtomicBool::new(false));
        let err = execute(&spec("bowl", "baseline"), &dir, &cancel).unwrap_err();
        assert_eq!(err.class, FaultClass::Durable);
        assert_eq!(err.site, "job.events");
        assert!(!err.recoverable, "event-log damage must not be retried: {err}");
        assert!(err.message.contains("enospc"), "{err}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_trailing_lines_are_dropped() {
        let root = tempdir("torn");
        let dir = JobDir::create(&root, 1).unwrap();
        fs::write(
            dir.path().join("events-000.jsonl"),
            "{\"type\":\"run_start\",\"label\":\"baseline\"}\n{\"type\":\"span_st",
        )
        .unwrap();
        let lines = compose_events(&dir).unwrap();
        assert_eq!(lines.len(), 1, "torn tail dropped: {lines:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
