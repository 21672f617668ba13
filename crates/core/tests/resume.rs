//! Crash-safe search at the Nautilus level: a budget-interrupted run that
//! journals its replies, run again over its journal (or resumed with
//! [`Nautilus::resume_from`]), must reproduce the uninterrupted run
//! bit-for-bit — outcome, report (modulo the durability block and
//! wall-clock timings), and the whole telemetry stream — at every worker
//! count, while the model answers only what the journal lacks.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use nautilus::{
    BreakerPolicy, Confidence, FaultPlan, HintSet, InMemorySink, Nautilus, Query, RunBudget,
    RunReport, SearchEvent, StopReason, SupervisePolicy,
};
use nautilus_ga::{Genome, ParamSpace, ParamValue};
use nautilus_synth::{CostModel, MetricCatalog, MetricExpr, MetricSet};

#[derive(Debug)]
struct RidgeModel {
    space: ParamSpace,
    catalog: MetricCatalog,
}

impl RidgeModel {
    fn new() -> Self {
        RidgeModel {
            space: ParamSpace::builder()
                .int("x", 0, 15, 1)
                .int("y", 0, 15, 1)
                .choices("mode", ["slow", "fast"])
                .build()
                .unwrap(),
            catalog: MetricCatalog::new([("cost", "units")]).unwrap(),
        }
    }
}

impl CostModel for RidgeModel {
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
        Some(self.catalog.set(vec![(x - 3.0).powi(2) + y * 2.0 + mode + 1.0]).unwrap())
    }
}

/// A model that counts the evaluations it is asked for: the tool calls.
struct Counting<'m> {
    inner: &'m RidgeModel,
    calls: AtomicU64,
}

impl<'m> Counting<'m> {
    fn new(inner: &'m RidgeModel) -> Self {
        Counting { inner, calls: AtomicU64::new(0) }
    }

    fn take(&self) -> u64 {
        self.calls.swap(0, Ordering::Relaxed)
    }
}

impl CostModel for Counting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn catalog(&self) -> &MetricCatalog {
        self.inner.catalog()
    }
    fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(g)
    }
}

fn query(model: &RidgeModel) -> Query {
    Query::minimize("cost", MetricExpr::metric(model.catalog.require("cost").unwrap()))
}

fn hints() -> HintSet {
    HintSet::for_metric("cost")
        .importance("x", 90)
        .unwrap()
        .bias("x", 0.3)
        .unwrap()
        .target("mode", ParamValue::Sym("fast".into()))
        .unwrap()
        .importance("mode", 80)
        .unwrap()
        .build()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nautilus-core-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Event-stream digest ignoring the run's wall time, batch shapes and
/// the durability events that only journaled runs emit.
fn strip(events: &[SearchEvent]) -> Vec<String> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                SearchEvent::EvalBatch { .. }
                    | SearchEvent::CheckpointWritten { .. }
                    | SearchEvent::CheckpointRestored { .. }
                    | SearchEvent::CheckpointCorruptSkipped { .. }
            )
        })
        .map(|e| match e {
            SearchEvent::RunEnd { best_value, distinct_evals, .. } => SearchEvent::RunEnd {
                best_value: *best_value,
                distinct_evals: *distinct_evals,
                wall_nanos: 0,
            },
            other => other.clone(),
        })
        .map(|e| e.to_json())
        .collect()
}

/// Blanks out the fields a resume is allowed to differ in: wall-clock
/// time and the durability block itself.
fn normalize(mut report: RunReport) -> RunReport {
    report.wall_nanos = 0;
    report.durability = Default::default();
    report
}

#[test]
fn interrupted_then_resumed_guided_run_matches_straight_run() {
    let ridge = RidgeModel::new();
    let model = Counting::new(&ridge);
    let q = query(&ridge);
    let h = hints();

    for workers in [1usize, 2, 8] {
        let straight_sink = InMemorySink::new();
        let (straight, straight_report) = Nautilus::new(&model)
            .with_eval_workers(workers)
            .with_observer(&straight_sink)
            .run_guided_reported(&q, &h, Some(Confidence::STRONG), 77)
            .unwrap();
        assert_eq!(straight.stop, StopReason::Completed);
        let straight_calls = model.take();

        let dir = tempdir(&format!("guided-w{workers}"));
        let (cut, _cut_report) = Nautilus::new(&model)
            .with_eval_workers(workers)
            .with_checkpoints(&dir)
            .with_budget(RunBudget::new().with_max_generations(5))
            .run_guided_reported(&q, &h, Some(Confidence::STRONG), 77)
            .unwrap();
        assert_eq!(cut.stop, StopReason::GenerationBudget);
        assert_eq!(cut.trace.len(), 6, "budget run holds generations 0..=5");
        let cut_calls = model.take();

        let resumed_sink = InMemorySink::new();
        let (resumed, resumed_report) = Nautilus::new(&model)
            .with_eval_workers(workers)
            .with_observer(&resumed_sink)
            .with_checkpoints(&dir)
            .run_guided_reported(&q, &h, Some(Confidence::STRONG), 77)
            .unwrap();
        let resumed_calls = model.take();

        assert_eq!(resumed, straight, "resumed outcome diverged at {workers} workers");
        assert_eq!(resumed.stop, StopReason::Completed);
        assert_eq!(
            normalize(resumed_report.clone()),
            normalize(straight_report.clone()),
            "resumed report diverged at {workers} workers"
        );
        // The resumed run alone re-emits the straight run's whole stream.
        assert_eq!(
            strip(&resumed_sink.events()),
            strip(&straight_sink.events()),
            "stream diverged at {workers} workers"
        );
        // It asked the model only for what the cut run had not.
        assert!(cut_calls > 0 && resumed_calls > 0, "{cut_calls} + {resumed_calls}");
        assert_eq!(cut_calls + resumed_calls, straight_calls, "at {workers} workers");
        assert_eq!(resumed_report.durability.checkpoints_restored, 1);
        assert_eq!(resumed_report.durability.resumed_from_generation, 6);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_carries_job_accounting_across_the_restart() {
    let model = RidgeModel::new();
    let q = query(&model);

    let straight = Nautilus::new(&model).run_baseline(&q, 9).unwrap();

    let dir = tempdir("jobs");
    let cut = Nautilus::new(&model)
        .with_checkpoints(&dir)
        .with_budget(RunBudget::new().with_max_generations(3))
        .run_baseline(&q, 9)
        .unwrap();
    assert!(cut.jobs.jobs > 0 && cut.jobs.jobs < straight.jobs.jobs);

    let resumed = Nautilus::new(&model).resume_from(&q, None, &dir).unwrap();
    // JobStats cover the whole run: the replay charges every journaled
    // reply through the job runner again.
    assert_eq!(resumed.jobs, straight.jobs);
    assert_eq!(resumed, straight);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_budget_and_checkpointed_resume_compose() {
    let model = RidgeModel::new();
    let q = query(&model);
    let dir = tempdir("evalbudget");

    let cut = Nautilus::new(&model)
        .with_checkpoints(&dir)
        .with_budget(RunBudget::new().with_max_evaluations(40))
        .run_baseline(&q, 4)
        .unwrap();
    assert_eq!(cut.stop, StopReason::EvalBudget);
    assert!(cut.total_evals() >= 40);

    let straight = Nautilus::new(&model).run_baseline(&q, 4).unwrap();
    let resumed = Nautilus::new(&model).resume_from(&q, None, &dir).unwrap();
    assert_eq!(resumed, straight);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_validates_strategy_against_checkpoint_label() {
    let model = RidgeModel::new();
    let q = query(&model);
    let h = hints();
    let dir = tempdir("label");

    Nautilus::new(&model)
        .with_checkpoints(&dir)
        .with_budget(RunBudget::new().with_max_generations(2))
        .run_guided(&q, &h, Some(Confidence::STRONG), 5)
        .unwrap();

    // A guided checkpoint must not silently continue as a baseline search,
    // whether resumed as one or run as one over the same journal.
    let err = Nautilus::new(&model).resume_from(&q, None, &dir).unwrap_err();
    assert!(err.to_string().contains("nautilus-strong"), "unexpected error: {err}");
    let err = Nautilus::new(&model).with_checkpoints(&dir).run_baseline(&q, 5).unwrap_err();
    assert!(err.to_string().contains("nautilus-strong"), "unexpected error: {err}");

    // The matching configuration resumes fine.
    let resumed =
        Nautilus::new(&model).resume_from(&q, Some((&h, Some(Confidence::STRONG))), &dir).unwrap();
    let straight = Nautilus::new(&model).run_guided(&q, &h, Some(Confidence::STRONG), 5).unwrap();
    assert_eq!(resumed, straight);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_storm_resumes_with_health_counters_intact() {
    let model = RidgeModel::new();
    let q = query(&model);
    // A storm heavy enough to trip the circuit breaker mid-run: most
    // attempts fail persistently, a slice of the rest hang.
    let plan = FaultPlan::new(31).with_persistent_rate(0.8).with_hang_rate(0.1);
    let policy = SupervisePolicy {
        breaker: BreakerPolicy {
            window: 8,
            min_samples: 4,
            trip_failure_rate: 0.7,
            cooldown_sheds: 6,
            probe_quota: 2,
            probes_to_close: 2,
        },
        ..SupervisePolicy::default()
    };
    let build = || Nautilus::new(&model).with_fault_plan(plan).with_supervision(policy);

    let straight = build().run_baseline(&q, 19).unwrap();
    assert!(straight.health.breaker_trips > 0, "storm never tripped: {:?}", straight.health);
    assert!(straight.health.evals_shed > 0, "open breaker never shed: {:?}", straight.health);

    let dir = tempdir("supervised");
    let cut = build()
        .with_checkpoints(&dir)
        .with_budget(RunBudget::new().with_max_generations(5))
        .run_baseline(&q, 19)
        .unwrap();
    assert_eq!(cut.stop, StopReason::GenerationBudget);

    // The resumed run rebuilds the breaker state on its way through the
    // journal, and its outcome — health counters included — matches the
    // uninterrupted run.
    let resumed = build().resume_from(&q, None, &dir).unwrap();
    assert_eq!(resumed, straight, "supervised resume diverged (incl. health counters)");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_empty_directory_errors_cleanly() {
    let model = RidgeModel::new();
    let q = query(&model);
    let dir = tempdir("empty");
    let err = Nautilus::new(&model).resume_from(&q, None, &dir).unwrap_err();
    assert!(err.to_string().contains("no intact checkpoint"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_or_start_is_idempotent_across_interruptions() {
    let model = RidgeModel::new();
    let q = query(&model);
    let h = hints();
    let seed = 4242;
    let run = |dir: &std::path::Path, budget: RunBudget| {
        Nautilus::new(&model)
            .with_checkpoints(dir)
            .with_budget(budget)
            .run_guided_reported(&q, &h, Some(Confidence::STRONG), seed)
            .unwrap()
    };

    let (straight, straight_report) =
        Nautilus::new(&model).run_guided_reported(&q, &h, Some(Confidence::STRONG), seed).unwrap();

    // Empty directory: nothing to resume, so the run starts fresh and
    // journals into the same directory.
    let dir = tempdir("resume-or-start");
    assert!(!Nautilus::has_resumable_checkpoint(&dir));
    let (first, first_report) = run(&dir, RunBudget::new());
    assert_eq!(first, straight, "fresh start must match a plain guided run");
    assert_eq!(normalize(first_report), normalize(straight_report.clone()));
    assert!(Nautilus::has_resumable_checkpoint(&dir));
    // Running a finished run again replays it whole.
    let (again, again_report) = run(&dir, RunBudget::new());
    assert_eq!(again, straight, "a finished run replays to the same outcome");
    assert_eq!(normalize(again_report), normalize(straight_report.clone()));

    // Interrupt a run twice, then let it finish: each run resumes (not
    // restarts) and the last still lands on the straight result.
    let cut_dir = tempdir("resume-or-start-cut");
    for generations in [2, 3] {
        let (cut, _) = run(&cut_dir, RunBudget::new().with_max_generations(generations));
        assert_eq!(cut.stop, StopReason::GenerationBudget);
        assert!(Nautilus::has_resumable_checkpoint(&cut_dir));
    }
    let (resumed, resumed_report) = run(&cut_dir, RunBudget::new());
    assert_eq!(resumed, straight, "adopted run must replay the uninterrupted one");
    assert_eq!(normalize(resumed_report), normalize(straight_report));

    // A directory of foreign files holds no journal, so nothing resumes.
    let junk_dir = tempdir("resume-or-start-junk");
    std::fs::write(junk_dir.join("ckpt-00000001.nckpt"), b"not a checkpoint").unwrap();
    assert!(!Nautilus::has_resumable_checkpoint(&junk_dir));

    for dir in [dir, cut_dir, junk_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn journal_bytes_per_boundary_do_not_grow_with_the_generation_count() {
    // What a boundary makes durable is bounded by the replies scored since
    // the previous boundary, not by how long the run has been going: at
    // boundary 200 it is no more than at boundary 2 plus one population of
    // reply records.
    let model = RidgeModel::new();
    let q = query(&model);
    let sink = InMemorySink::new();
    let dir = tempdir("bounded-bytes");
    let settings = nautilus_ga::GaSettings { generations: 210, elitism: 1, ..Default::default() };
    Nautilus::new(&model)
        .with_settings(settings)
        .with_observer(&sink)
        .with_checkpoints(&dir)
        .run_baseline(&q, 31)
        .unwrap();
    let bytes: Vec<(u32, u64)> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            SearchEvent::CheckpointWritten { generation, bytes, .. } => Some((*generation, *bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(bytes.len(), 210, "one checkpoint_written per boundary");
    let at = |g: u32| bytes.iter().find(|(generation, _)| *generation == g).unwrap().1;
    // A ridge reply record: 24 envelope bytes, then a tag (1), three
    // genes (8 + 12), the attempt (4) and the reply (8 + 1 + 8 + 8).
    let record = 24 + 1 + 8 + 12 + 4 + (8 + 1 + 8 + 8);
    let population = settings.population as u64;
    assert!(
        at(200) <= at(2) + population * record,
        "boundary 200 wrote {} bytes, boundary 2 wrote {}",
        at(200),
        at(2)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
