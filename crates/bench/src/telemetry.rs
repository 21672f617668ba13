//! Telemetry capture for the experiments binary.
//!
//! The figures aggregate thousands of runs and keep only averaged curves;
//! this module does the opposite for a *pair* of exemplar runs (baseline
//! vs. strongly guided on the router Fmax query): it streams every
//! [`nautilus::SearchEvent`] to a JSONL file and writes the aggregated
//! [`RunReport`] next to it, so the per-generation hint/mutation/cache
//! dynamics behind the averaged figures can be inspected offline.
//!
//! Wired to `experiments --telemetry <dir>` (or the `NAUTILUS_TELEMETRY`
//! environment variable).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use nautilus::{
    Confidence, FaultPlan, JsonlSink, Nautilus, Query, RunReport, SearchOutcome, TraceSink, Tracer,
};
use nautilus_noc::hints::fmax_hints;
use nautilus_synth::MetricExpr;

use crate::data::router_dataset;

/// Artifacts of one captured telemetry run.
#[derive(Debug)]
pub struct TelemetryArtifacts {
    /// Strategy label of the captured run.
    pub strategy: String,
    /// Path of the JSONL event stream (one `SearchEvent` per line).
    pub events_path: PathBuf,
    /// Path of the aggregated run-report JSON.
    pub report_path: PathBuf,
    /// The run's outcome, for reconciliation against the report.
    pub outcome: SearchOutcome,
    /// The aggregated report.
    pub report: RunReport,
}

/// Captures the exemplar telemetry pair into `dir` (created if missing):
/// a baseline and a strongly guided run of the paper's *maximize Fmax*
/// router query, both from `seed`.
///
/// Returns one [`TelemetryArtifacts`] per run.
///
/// # Errors
///
/// Returns any error creating the directory or writing the artifacts.
///
/// # Panics
///
/// Panics if the search itself fails, which the packaged router dataset
/// and hints cannot cause.
pub fn capture_telemetry(dir: &Path, seed: u64) -> io::Result<Vec<TelemetryArtifacts>> {
    capture_inner(dir, seed, None)
}

/// [`capture_telemetry`] against a *faulting* runner: every evaluation
/// goes through deterministic fault injection per `plan`, so the captured
/// stream also carries the failure/retry/quarantine events and the report
/// carries a non-trivial `faults` block. File names gain a `chaos-`
/// prefix to keep the clean and faulted artifacts apart.
///
/// # Errors
///
/// Returns any error creating the directory or writing the artifacts.
///
/// # Panics
///
/// Panics if the search fails outright; keep the plan's rates storm-sized,
/// not apocalypse-sized.
pub fn capture_chaos_telemetry(
    dir: &Path,
    seed: u64,
    plan: FaultPlan,
) -> io::Result<Vec<TelemetryArtifacts>> {
    capture_inner(dir, seed, Some(plan))
}

/// Artifacts of one traced profiling run.
#[derive(Debug)]
pub struct TraceArtifacts {
    /// Strategy label of the traced run.
    pub strategy: String,
    /// Path of the Chrome/Perfetto trace-event JSON (load at
    /// `ui.perfetto.dev`).
    pub trace_path: PathBuf,
    /// Path of the JSONL event stream captured alongside the trace.
    pub events_path: PathBuf,
    /// Path of the aggregated run-report JSON (schema 6: carries the
    /// per-phase `phases` attribution block).
    pub report_path: PathBuf,
    /// The run's outcome, for reconciliation.
    pub outcome: SearchOutcome,
    /// The aggregated report.
    pub report: RunReport,
}

/// Captures the exemplar *traced* run pair into `dir` (created if
/// missing): a baseline and a strongly guided run of the paper's
/// *maximize Fmax* router query, both from `seed`, each with a span
/// [`Tracer`] attached. Per run it writes a Perfetto-loadable
/// `*.trace.json`, the `*.events.jsonl` stream, and the schema-6
/// `*.report.json` whose `phases` block attributes the run's wall clock.
///
/// Tracing is determinism-safe, so two same-seed captures must agree on
/// every logical artifact — the `nautilus-trace diff` CI gate relies on
/// exactly that.
///
/// # Errors
///
/// Returns any error creating the directory or writing the artifacts.
///
/// # Panics
///
/// Panics if the search itself fails, which the packaged router dataset
/// and hints cannot cause.
pub fn capture_traced(dir: &Path, seed: u64) -> io::Result<Vec<TraceArtifacts>> {
    fs::create_dir_all(dir)?;
    let d = router_dataset();
    let model = d.as_model();
    let fmax = MetricExpr::metric(d.catalog().require("fmax").expect("router metric"));
    let query = Query::maximize("fmax", fmax);
    let hints = fmax_hints();

    let mut artifacts = Vec::new();
    for guided in [false, true] {
        let tag = if guided { "guided-strong" } else { "baseline" };
        let trace_path = dir.join(format!("{tag}-seed{seed}.trace.json"));
        let events_path = dir.join(format!("{tag}-seed{seed}.events.jsonl"));
        let report_path = dir.join(format!("{tag}-seed{seed}.report.json"));
        let sink = JsonlSink::create(&events_path)?;
        let tracer = Tracer::new();
        let engine = Nautilus::new(&model).with_observer(&sink).with_tracer(&tracer);
        let (outcome, report) = if guided {
            engine.run_guided_reported(&query, &hints, Some(Confidence::STRONG), seed)
        } else {
            engine.run_baseline_reported(&query, seed)
        }
        .expect("traced run over the packaged dataset");
        sink.flush()?;
        TraceSink::new(&trace_path).write(&tracer)?;
        fs::write(&report_path, report.to_json())?;
        artifacts.push(TraceArtifacts {
            strategy: outcome.strategy.clone(),
            trace_path,
            events_path,
            report_path,
            outcome,
            report,
        });
    }
    Ok(artifacts)
}

fn capture_inner(
    dir: &Path,
    seed: u64,
    plan: Option<FaultPlan>,
) -> io::Result<Vec<TelemetryArtifacts>> {
    fs::create_dir_all(dir)?;
    let d = router_dataset();
    let model = d.as_model();
    let fmax = MetricExpr::metric(d.catalog().require("fmax").expect("router metric"));
    let query = Query::maximize("fmax", fmax);
    let hints = fmax_hints();

    let mut artifacts = Vec::new();
    for guided in [false, true] {
        let tag = if guided { "guided-strong" } else { "baseline" };
        let prefix = if plan.is_some() { "chaos-" } else { "" };
        let events_path = dir.join(format!("{prefix}{tag}-seed{seed}.events.jsonl"));
        let report_path = dir.join(format!("{prefix}{tag}-seed{seed}.report.json"));
        let sink = JsonlSink::create(&events_path)?;
        let mut engine = Nautilus::new(&model).with_observer(&sink);
        if let Some(plan) = plan {
            engine = engine.with_fault_plan(plan);
        }
        let (outcome, report) = if guided {
            engine.run_guided_reported(&query, &hints, Some(Confidence::STRONG), seed)
        } else {
            engine.run_baseline_reported(&query, seed)
        }
        .expect("telemetry run over the packaged dataset");
        sink.flush()?;
        fs::write(&report_path, report.to_json())?;
        artifacts.push(TelemetryArtifacts {
            strategy: outcome.strategy.clone(),
            events_path,
            report_path,
            outcome,
            report,
        });
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_artifacts_reconcile_and_parse() {
        let dir = std::env::temp_dir().join("nautilus-telemetry-unit");
        let artifacts = capture_telemetry(&dir, 9).unwrap();
        assert_eq!(artifacts.len(), 2);
        assert_eq!(artifacts[0].strategy, "baseline");
        assert_eq!(artifacts[1].strategy, "nautilus-strong");
        for a in &artifacts {
            assert_eq!(a.report.strategy, a.strategy);
            assert_eq!(a.report.evals.total_lookups(), a.outcome.jobs.total_lookups());
            let events = fs::read_to_string(&a.events_path).unwrap();
            assert!(events.lines().count() > 0, "event stream not empty");
            let report = fs::read_to_string(&a.report_path).unwrap();
            assert!(nautilus::obs::json::parse_json(&report).is_ok());
            let _ = fs::remove_file(&a.events_path);
            let _ = fs::remove_file(&a.report_path);
        }
    }

    #[test]
    fn traced_capture_attributes_wall_clock_and_is_deterministic() {
        use crate::traceview;

        let dir = std::env::temp_dir().join("nautilus-trace-unit-a");
        let dir2 = std::env::temp_dir().join("nautilus-trace-unit-b");
        let artifacts = capture_traced(&dir, 27).unwrap();
        let again = capture_traced(&dir2, 27).unwrap();
        assert_eq!(artifacts.len(), 2);
        for (a, b) in artifacts.iter().zip(&again) {
            // The trace file parses and its per-phase self times sum to
            // the run's wall clock within the 5% acceptance band.
            let text = fs::read_to_string(&a.trace_path).unwrap();
            let summary = traceview::summarize(&traceview::parse_trace(&text).unwrap());
            // Serial runs put every span on the merge track, so self
            // times telescope to the wall clock.
            let attributed: f64 = summary.phases.iter().map(|p| p.self_us).sum();
            let drift = (attributed - summary.wall_us).abs() / summary.wall_us;
            assert!(
                drift < 0.05,
                "{}: attribution drifts {:.1}% off wall",
                a.strategy,
                drift * 100.0
            );

            // Schema-6 report carries the same attribution.
            assert!(!a.report.phases.is_empty(), "{}: report without phases", a.strategy);
            let report_json = fs::read_to_string(&a.report_path).unwrap();
            assert!(report_json.contains("\"phases\""));

            // Same-seed captures are logically identical: traces digest
            // equal, event streams normalize equal.
            let text_b = fs::read_to_string(&b.trace_path).unwrap();
            let diff = traceview::diff_artifacts(&text, &text_b).unwrap();
            assert!(diff.differences.is_empty(), "{}: {:?}", a.strategy, diff.differences);
            let ev_a = fs::read_to_string(&a.events_path).unwrap();
            let ev_b = fs::read_to_string(&b.events_path).unwrap();
            let diff = traceview::diff_artifacts(&ev_a, &ev_b).unwrap();
            assert!(diff.differences.is_empty(), "{}: {:?}", a.strategy, diff.differences);
            assert_eq!(a.outcome, b.outcome);

            for p in [&a.trace_path, &a.events_path, &a.report_path] {
                let _ = fs::remove_file(p);
            }
            for p in [&b.trace_path, &b.events_path, &b.report_path] {
                let _ = fs::remove_file(p);
            }
        }
    }

    #[test]
    fn chaos_capture_records_failures_and_still_reconciles() {
        let dir = std::env::temp_dir().join("nautilus-telemetry-chaos-unit");
        let plan = FaultPlan::new(17).with_transient_rate(0.15);
        let artifacts = capture_chaos_telemetry(&dir, 17, plan).unwrap();
        assert_eq!(artifacts.len(), 2);
        for a in &artifacts {
            assert!(
                a.outcome.faults.evals_failed > 0,
                "{}: a 15% storm should record failures",
                a.strategy
            );
            assert!(a.outcome.faults.reconciles());
            // The report is rebuilt from the event stream alone; its
            // failure ledger must agree with the engine's exactly.
            assert_eq!(a.report.faults.evals_failed(), a.outcome.faults.evals_failed);
            assert_eq!(a.report.faults.retries, a.outcome.faults.retries);
            assert_eq!(a.report.faults.quarantined, a.outcome.faults.quarantined);
            assert_eq!(a.report.evals.total_lookups(), a.outcome.jobs.total_lookups());
            let events = fs::read_to_string(&a.events_path).unwrap();
            assert!(
                events.contains("eval_attempt_failed"),
                "failure events must reach the JSONL stream"
            );
            let file_name = a.events_path.file_name().unwrap().to_string_lossy().into_owned();
            assert!(file_name.starts_with("chaos-"), "chaos artifacts are prefixed: {file_name}");
            let report = fs::read_to_string(&a.report_path).unwrap();
            assert!(report.contains("\"faults\""));
            let _ = fs::remove_file(&a.events_path);
            let _ = fs::remove_file(&a.report_path);
        }
        // Injection must not perturb which artifacts get captured: the
        // clean capture still produces its unprefixed pair independently.
        let clean = capture_telemetry(&dir, 17).unwrap();
        assert_eq!(clean.len(), 2);
        assert_eq!(clean[0].outcome.faults, nautilus::FaultStats::default());
        for a in &clean {
            let _ = fs::remove_file(&a.events_path);
            let _ = fs::remove_file(&a.report_path);
        }
    }
}
