//! Crash-safety integration tests: budget stops, resume by replaying the
//! journal byte-identically, and recovery from damaged journals at the
//! engine level.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nautilus_ga::{
    CheckpointStore, Direction, DurableIo, FitnessFn, FnFitness, GaEngine, GaError, GaRun,
    GaSettings, Genome, IoFaultKind, IoFaultPlan, Journal, ParamSpace, RunBudget, SharedClock,
    StopReason, UniformMutation,
};
use nautilus_obs::{InMemorySink, SearchEvent};

fn space() -> ParamSpace {
    ParamSpace::builder().int("x", 0, 31, 1).int("y", 0, 31, 1).int("z", 0, 31, 1).build().unwrap()
}

fn sphere_value(g: &Genome) -> f64 {
    g.genes().iter().map(|&v| f64::from(v) * f64::from(v)).sum()
}

fn sphere() -> FnFitness<impl Fn(&Genome) -> Option<f64> + Send + Sync> {
    FnFitness::new(Direction::Minimize, |g: &Genome| Some(sphere_value(g)))
}

/// The sphere behind a journal, the way a tool wrapper uses one: a reply
/// the journal holds is answered from it, a live one is recorded. `calls`
/// counts the live ones: the tool calls.
struct JournaledSphere {
    journal: Arc<Journal>,
    calls: AtomicU64,
}

impl FitnessFn for JournaledSphere {
    fn direction(&self) -> Direction {
        Direction::Minimize
    }

    fn fitness(&self, g: &Genome) -> Option<f64> {
        if let Some(reply) = self.journal.reply(g, 0) {
            return Some(f64::from_le_bytes(reply.try_into().expect("8-byte reply")));
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let value = sphere_value(g);
        self.journal.record(g, 0, value.to_le_bytes().to_vec());
        Some(value)
    }
}

/// A store over `dir` and the sphere journaled in it.
fn journaled(dir: &Path, io: DurableIo) -> (CheckpointStore, JournaledSphere) {
    let store = CheckpointStore::create(dir).unwrap().with_io(io);
    let fitness = JournaledSphere { journal: store.journal(), calls: AtomicU64::new(0) };
    (store, fitness)
}

/// Runs the journaled sphere over `dir` and returns the run with its tool
/// calls.
fn run_journaled(
    dir: &Path,
    settings: GaSettings,
    budget: RunBudget,
    seed: u64,
    sink: &InMemorySink,
) -> (Result<GaRun, GaError>, u64) {
    let s = space();
    let (store, f) = journaled(dir, DurableIo::real());
    let run = GaEngine::new(&s, &f)
        .with_settings(settings)
        .with_observer(sink)
        .with_budget(budget)
        .with_checkpoints(store)
        .run(seed);
    (run, f.calls.load(Ordering::Relaxed))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nautilus-ckpt-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn journal_path(dir: &Path) -> PathBuf {
    CheckpointStore::create(dir).unwrap().path()
}

/// Event-stream digest stripped of the run's wall time, batch shapes and
/// the durability events only journaled runs emit: what must be identical
/// between a straight run and a resumed one.
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
            }
            .to_json(),
            other => other.to_json(),
        })
        .collect()
}

#[test]
fn resumed_runs_are_byte_identical_at_any_worker_count() {
    let seed = 0xD1CE;
    for workers in [1usize, 2, 8] {
        let settings = GaSettings { generations: 12, eval_workers: workers, ..Default::default() };
        let straight_dir = tempdir(&format!("identity-straight-w{workers}"));
        let straight_sink = InMemorySink::new();
        let (straight, straight_calls) =
            run_journaled(&straight_dir, settings, RunBudget::new(), seed, &straight_sink);
        let straight = straight.unwrap();
        assert_eq!(straight.stop, StopReason::Completed);

        let dir = tempdir(&format!("identity-w{workers}"));
        let budget = RunBudget::new().with_max_generations(5);
        let (interrupted, cut_calls) =
            run_journaled(&dir, settings, budget, seed, &InMemorySink::new());
        let interrupted = interrupted.unwrap();
        assert_eq!(interrupted.stop, StopReason::GenerationBudget);
        assert_eq!(interrupted.history.len(), 6, "generations 0..=5 scored");

        let resume_sink = InMemorySink::new();
        let (resumed, resumed_calls) =
            run_journaled(&dir, settings, RunBudget::new(), seed, &resume_sink);
        assert_eq!(resumed.unwrap(), straight, "resumed GaRun must equal the uninterrupted one");
        // The resumed run alone re-emits the straight run's whole stream,
        // and asks the tool only for what the interrupted run had not.
        assert_eq!(
            strip(&resume_sink.events()),
            strip(&straight_sink.events()),
            "event streams diverged at workers={workers}"
        );
        assert_eq!(cut_calls + resumed_calls, straight_calls, "tool calls at workers={workers}");
        assert!(resume_sink
            .events()
            .iter()
            .any(|e| matches!(e, SearchEvent::CheckpointRestored { generation: 6, .. })));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&straight_dir).ok();
    }
}

#[test]
fn resuming_a_completed_runs_terminal_checkpoint_returns_its_outcome() {
    // Running a completed run again over its journal replays the whole run
    // without one tool call and returns the finished run — so crash
    // recovery never has to care whether the victim died mid-run or right
    // at the end.
    let settings = GaSettings { generations: 7, ..Default::default() };
    let dir = tempdir("terminal");
    let sink = InMemorySink::new();
    let (straight, calls) = run_journaled(&dir, settings, RunBudget::new(), 41, &sink);
    let straight = straight.unwrap();
    assert_eq!(straight.stop, StopReason::Completed);
    assert!(calls > 0);

    let sink = InMemorySink::new();
    let (resumed, calls) = run_journaled(&dir, settings, RunBudget::new(), 41, &sink);
    assert_eq!(resumed.unwrap(), straight);
    assert_eq!(calls, 0, "a finished journal answers every reply");
    assert!(sink
        .events()
        .iter()
        .any(|e| matches!(e, SearchEvent::CheckpointRestored { generation: 8, .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_works_across_different_worker_counts() {
    // A journal written by a serial run must resume identically under 8
    // workers (and vice versa): worker count is not part of run identity.
    let s = space();
    let f = sphere();
    let seed = 77;
    let straight = GaEngine::new(&s, &f)
        .with_settings(GaSettings { generations: 10, ..Default::default() })
        .run(seed)
        .unwrap();

    let dir = tempdir("xworkers");
    let serial = GaSettings { generations: 10, eval_workers: 1, ..Default::default() };
    let budget = RunBudget::new().with_max_generations(4);
    run_journaled(&dir, serial, budget, seed, &InMemorySink::new()).0.unwrap();
    let parallel = GaSettings { generations: 10, eval_workers: 8, ..Default::default() };
    let (resumed, _) = run_journaled(&dir, parallel, RunBudget::new(), seed, &InMemorySink::new());
    let resumed = resumed.unwrap();
    assert_eq!(resumed.history, straight.history);
    assert_eq!(resumed.best_genome, straight.best_genome);
    assert_eq!(resumed.cache, straight.cache);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_stops_are_clean_and_reported() {
    let s = space();
    let f = sphere();

    // Generation budget: history covers 0..=2, never a partial generation.
    let run =
        GaEngine::new(&s, &f).with_budget(RunBudget::new().with_max_generations(2)).run(3).unwrap();
    assert_eq!(run.stop, StopReason::GenerationBudget);
    let gens: Vec<u32> = run.history.iter().map(|h| h.generation).collect();
    assert_eq!(gens, vec![0, 1, 2]);

    // Eval budget.
    let run =
        GaEngine::new(&s, &f).with_budget(RunBudget::new().with_max_evaluations(5)).run(3).unwrap();
    assert_eq!(run.stop, StopReason::EvalBudget);
    assert!(run.cache.distinct_evals >= 5);
    assert!(run.history.len() < 81);

    // Deadline with an injected clock that advances 1s per sample: origin
    // is sample 1, so a 3s deadline passes at the boundary after the
    // third generation's check.
    let ticks = Arc::new(AtomicU64::new(0));
    let reader = Arc::clone(&ticks);
    let clock: SharedClock =
        Arc::new(move || Duration::from_secs(reader.fetch_add(1, Ordering::Relaxed)));
    let run = GaEngine::new(&s, &f)
        .with_budget(RunBudget::new().with_deadline(Duration::from_secs(3)).with_clock(clock))
        .run(3)
        .unwrap();
    assert_eq!(run.stop, StopReason::DeadlineExceeded);
    assert_eq!(run.history.len(), 3, "clock samples 1s and 2s pass; the 3s sample stops");

    // Pre-raised cancel flag stops at the very first boundary.
    let flag = Arc::new(AtomicBool::new(true));
    let run =
        GaEngine::new(&s, &f).with_budget(RunBudget::new().with_cancel_flag(flag)).run(3).unwrap();
    assert_eq!(run.stop, StopReason::Cancelled);
    assert_eq!(run.history.len(), 1, "generation 0 scored, then cancelled at the boundary");
}

#[test]
fn interrupted_run_emits_run_interrupted_instead_of_run_end() {
    let sink = InMemorySink::new();
    let dir = tempdir("events");
    let budget = RunBudget::new().with_max_generations(2);
    let (run, _) = run_journaled(&dir, GaSettings::default(), budget, 11, &sink);
    let run = run.unwrap();
    assert_eq!(run.stop, StopReason::GenerationBudget);
    let events = sink.events();
    assert!(!events.iter().any(|e| matches!(e, SearchEvent::RunEnd { .. })));
    let interrupted: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            SearchEvent::RunInterrupted { generation, reason } => {
                Some((*generation, reason.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(interrupted, vec![(3, "generation_budget".to_owned())]);
    let written: Vec<(u32, u64)> = events
        .iter()
        .filter_map(|e| match e {
            SearchEvent::CheckpointWritten { generation, bytes, .. } => Some((*generation, *bytes)),
            _ => None,
        })
        .collect();
    let generations: Vec<u32> = written.iter().map(|w| w.0).collect();
    assert_eq!(generations, vec![1, 2, 3], "one checkpoint per boundary");
    // Every byte the run wrote is announced at some boundary.
    let announced: u64 = written.iter().map(|w| w.1).sum();
    assert_eq!(announced, std::fs::metadata(journal_path(&dir)).unwrap().len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_falls_back_past_a_corrupt_newest_checkpoint() {
    let seed = 5;
    let settings = GaSettings { generations: 9, ..Default::default() };
    let straight = GaEngine::new(&space(), &sphere()).with_settings(settings).run(seed).unwrap();

    let dir = tempdir("fallback");
    let budget = RunBudget::new().with_max_generations(4);
    let (_, cut_calls) = run_journaled(&dir, settings, budget, seed, &InMemorySink::new());
    // Corrupt the newest record by flipping one bit of its body.
    let path = journal_path(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 10;
    bytes[at] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let store = CheckpointStore::create(&dir).unwrap();
    assert!(store.damage().is_some_and(|d| d.contains("checksum")), "{:?}", store.damage());
    assert_eq!(store.journal().replies() as u64, cut_calls - 1, "only the newest is dropped");

    // Resuming reports the corruption, never silently, asks the tool
    // again for the dropped reply only, and converges to the same run.
    let sink = InMemorySink::new();
    let (resumed, calls) = run_journaled(&dir, settings, RunBudget::new(), seed, &sink);
    assert_eq!(resumed.unwrap(), straight);
    let events = sink.events();
    assert!(
        events.iter().any(|e| matches!(e, SearchEvent::CheckpointCorruptSkipped { reason, .. }
            if reason.contains("checksum"))),
        "corruption must be reported, never silent"
    );
    let straight_calls = straight.cache.distinct_evals + straight.cache.infeasible_evals;
    assert_eq!(calls, straight_calls - (cut_calls - 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_tmp_file_from_a_crashed_write_is_ignored_and_cleaned() {
    let settings = GaSettings { generations: 6, ..Default::default() };
    let straight = GaEngine::new(&space(), &sphere()).with_settings(settings).run(21).unwrap();
    // Simulate a crash while the journal was being created: its temporary
    // is there, the rename that publishes it never happened.
    let dir = tempdir("stray-tmp");
    let stray = journal_path(&dir).with_file_name(".journal.nckpt.tmp");
    std::fs::write(&stray, b"half a record").unwrap();
    let store = CheckpointStore::create(&dir).unwrap();
    assert!(store.header().is_none() && store.damage().is_none(), "a tmp file is no journal");
    let (run, _) = run_journaled(&dir, settings, RunBudget::new(), 21, &InMemorySink::new());
    assert_eq!(run.unwrap(), straight);
    assert!(!stray.exists(), "the new journal's creation swept the stray tmp");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_final_file_falls_back_at_every_cut_length() {
    let seed = 9;
    let settings = GaSettings { generations: 6, ..Default::default() };
    let straight = GaEngine::new(&space(), &sphere()).with_settings(settings).run(seed).unwrap();
    let dir = tempdir("truncation");
    let budget = RunBudget::new().with_max_generations(3);
    run_journaled(&dir, settings, budget, seed, &InMemorySink::new()).0.unwrap();
    let path = journal_path(&dir);
    let intact = std::fs::read(&path).unwrap();
    // Cut the journal at a spread of prefix lengths (every 37th byte plus
    // the edges): the run over it always converges on the straight run,
    // and a torn tail (a cut off a record boundary) is always reported.
    let cuts: Vec<usize> = (0..intact.len()).step_by(37).chain([intact.len() - 1]).collect();
    let mut torn_cuts = 0;
    for &cut in &cuts {
        std::fs::write(&path, &intact[..cut]).unwrap();
        let torn = CheckpointStore::create(&dir).unwrap().damage().is_some();
        torn_cuts += usize::from(torn);
        let sink = InMemorySink::new();
        let (run, _) = run_journaled(&dir, settings, RunBudget::new(), seed, &sink);
        assert_eq!(run.unwrap(), straight, "cut at {cut} diverged");
        let reported =
            sink.events().iter().any(|e| matches!(e, SearchEvent::CheckpointCorruptSkipped { .. }));
        assert_eq!(reported, torn, "cut at {cut}");
    }
    assert!(torn_cuts * 2 > cuts.len(), "most cuts tear a record: {torn_cuts}/{}", cuts.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_incompatible_settings_and_bad_states() {
    let dir = tempdir("compat");
    let budget = RunBudget::new().with_max_generations(2);
    run_journaled(&dir, GaSettings::default(), budget, 1, &InMemorySink::new()).0.unwrap();
    let sink = InMemorySink::new();

    // Different population: rejected.
    let bad = GaSettings { population: 7, ..Default::default() };
    let err = run_journaled(&dir, bad, RunBudget::new(), 1, &sink).0.unwrap_err();
    assert!(matches!(err, GaError::Checkpoint(_)), "{err}");
    assert!(err.to_string().contains("checkpoint"), "{err}");

    // Another seed, or another strategy label: rejected.
    let err = run_journaled(&dir, GaSettings::default(), RunBudget::new(), 2, &sink).0.unwrap_err();
    assert!(err.to_string().contains("seed 1"), "{err}");
    let s = space();
    let (store, f) = journaled(&dir, DurableIo::real());
    let err = GaEngine::new(&s, &f).with_run_label("guided").with_checkpoints(store).run(1);
    assert!(err.unwrap_err().to_string().contains("`ga`"), "labels must match");

    // eval_workers is exempt: same run, different parallelism, accepted.
    let ok = GaSettings { eval_workers: 4, ..Default::default() };
    assert!(run_journaled(&dir, ok, RunBudget::new(), 1, &sink).0.is_ok());

    // A journal whose header is garbage belongs to no run: it is reported
    // and the run starts over from scratch.
    std::fs::write(journal_path(&dir), b"NAUTCKPT but not a record").unwrap();
    let sink = InMemorySink::new();
    let (run, _) = run_journaled(&dir, GaSettings::default(), RunBudget::new(), 1, &sink);
    let straight = GaEngine::new(&s, &sphere()).run(1).unwrap();
    assert_eq!(run.unwrap(), straight);
    assert!(sink
        .events()
        .iter()
        .any(|e| matches!(e, SearchEvent::CheckpointCorruptSkipped { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_deadline_exceeded_honors_a_fresh_deadline() {
    // A wall-clock deadline is measured from the start of the *resumed*
    // process: a run stopped by DeadlineExceeded must not instantly
    // re-stop on resume, and with the clock quiet it must finish and
    // match the uninterrupted run exactly.
    use std::sync::Mutex;
    let settings = GaSettings { generations: 10, ..Default::default() };
    let seed = 0xDEAD11;
    let straight = GaEngine::new(&space(), &sphere()).with_settings(settings).run(seed).unwrap();

    // A self-advancing clock: every read moves time forward by `step`,
    // so the deadline blows mid-run without any cross-thread choreography.
    let step = Arc::new(Mutex::new(Duration::from_secs(61)));
    let now = Arc::new(Mutex::new(Duration::ZERO));
    let clock: SharedClock = {
        let step = Arc::clone(&step);
        let now = Arc::clone(&now);
        Arc::new(move || {
            let mut t = now.lock().unwrap();
            *t += *step.lock().unwrap();
            *t
        })
    };
    let budget =
        RunBudget::new().with_deadline(Duration::from_secs(60)).with_clock(Arc::clone(&clock));

    let dir = tempdir("deadline-resume");
    let sink = InMemorySink::new();
    let (interrupted, _) = run_journaled(&dir, settings, budget.clone(), seed, &sink);
    let interrupted = interrupted.unwrap();
    assert_eq!(interrupted.stop, StopReason::DeadlineExceeded);
    assert_eq!(interrupted.history.len(), 1, "stopped at the first boundary");

    // Freeze the clock, then resume with the SAME budget: the fresh
    // timer origin grants a fresh 60s window that never elapses.
    *step.lock().unwrap() = Duration::ZERO;
    let (resumed, _) = run_journaled(&dir, settings, budget, seed, &sink);
    let resumed = resumed.unwrap();
    assert_eq!(resumed.stop, StopReason::Completed, "fresh deadline must not re-stop");
    assert_eq!(resumed, straight, "resumed run must match the uninterrupted one");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_dir_going_read_only_mid_run_is_a_clean_error_not_a_corrupt_store() {
    // The disk starts refusing writes mid-run: the append of generation
    // 4's replies fails as if the disk were full. (Permission bits alone
    // do not stop root, so the test injects the fault at the write.)
    let seed = 0xFA17;
    let settings = GaSettings { generations: 10, ..Default::default() };
    let points = census_points("midrun-census", RunBudget::new(), "ckpt.append");
    let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(points[4], IoFaultKind::WriteEnospc));
    let dir = tempdir("midrun-fault");
    let run = run_with_io(&dir, RunBudget::new(), io, &InMemorySink::new());
    let err = run.expect_err("a failed journal write must stop the run");
    assert!(matches!(err, GaError::Checkpoint(_)), "expected a checkpoint error, got {err:?}");
    assert!(err.to_string().contains("enospc"), "{err}");

    // The failed write left no temporary and every earlier record is
    // intact: the store reopens without damage, and a run over it
    // completes byte-identical to an uninterrupted one.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "stray temporary {name} after failed write");
    }
    let store = CheckpointStore::create(&dir).unwrap();
    assert!(store.damage().is_none(), "no corrupt records: {:?}", store.damage());
    assert!(store.journal().replies() > 0, "generations before the fault recoverable");
    let resumed = run_with_io(&dir, RunBudget::new(), DurableIo::real(), &InMemorySink::new());
    let resumed = resumed.unwrap();
    assert_eq!(resumed.stop, StopReason::Completed);
    let straight = GaEngine::new(&space(), &sphere())
        .with_settings(settings)
        .with_mutation(Box::new(UniformMutation::new(1.0)))
        .run(seed)
        .unwrap();
    assert_eq!(resumed, straight, "recovery after the fault stays byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the write-behind fixture (seed 0xFA17, 10 generations, every
/// gene redrawn by mutation so each generation calls the tool) over the
/// journal in `dir`, its writes routed through `io`, recording events
/// into `sink`.
fn run_with_io(
    dir: &Path,
    budget: RunBudget,
    io: DurableIo,
    sink: &InMemorySink,
) -> Result<GaRun, GaError> {
    let s = space();
    let (store, f) = journaled(dir, io);
    GaEngine::new(&s, &f)
        .with_settings(GaSettings { generations: 10, ..Default::default() })
        .with_mutation(Box::new(UniformMutation::new(1.0)))
        .with_observer(sink)
        .with_budget(budget)
        .with_checkpoints(store)
        .run(0xFA17)
}

/// The write-point indices at `site` of a clean fixture run, in order.
fn census_points(tag: &str, budget: RunBudget, site: &str) -> Vec<u64> {
    let io = DurableIo::census();
    let dir = tempdir(tag);
    run_with_io(&dir, budget, io.clone(), &InMemorySink::new()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    io.write_points().into_iter().filter(|p| p.site == site).map(|p| p.index).collect()
}

#[test]
fn a_failed_final_checkpoint_write_is_never_lost() {
    // The last boundary's sync is still in flight when the final
    // generation (or a budget stop) is reached; its failure must still
    // come back as the run's result.
    let budgets =
        [("complete", RunBudget::new()), ("budget", RunBudget::new().with_max_generations(4))];
    for (label, budget) in budgets {
        let points = census_points(&format!("last-census-{label}"), budget.clone(), "ckpt.sync");
        let last = *points.last().expect("the run syncs its journal");
        for kind in [IoFaultKind::SyncFail, IoFaultKind::DirSyncFail] {
            let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(last, kind));
            let tag = format!("last-{label}-{}", kind.label());
            let dir = tempdir(&tag);
            let run = run_with_io(&dir, budget.clone(), io.clone(), &InMemorySink::new());
            let err = run.expect_err("a failed final write must not return Ok");
            assert!(matches!(err, GaError::Checkpoint(_)), "{tag}: {err:?}");
            assert!(err.to_string().contains(kind.label()), "{tag}: {err}");
            assert_eq!(io.injected_faults(), 1, "{tag}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn a_failed_middle_checkpoint_write_stops_the_run_by_the_next_boundary() {
    let points = census_points("middle-census", RunBudget::new(), "ckpt.sync");
    assert_eq!(points.len(), 10, "one sync per boundary 1..=10");
    for failed in [1u32, 4, 7] {
        let io = DurableIo::with_plan(
            IoFaultPlan::new().fail_at(points[failed as usize - 1], IoFaultKind::SyncFail),
        );
        let sink = InMemorySink::new();
        let dir = tempdir(&format!("middle-{failed}"));
        let run = run_with_io(&dir, RunBudget::new(), io, &sink);
        let err = run.expect_err("a failed write must stop the run");
        assert!(matches!(err, GaError::Checkpoint(_)), "generation {failed}: {err:?}");
        let events = sink.events();
        // Generation `failed` may still be scored while its sync is in
        // flight; the boundary after it must not be crossed.
        let last_started = events
            .iter()
            .filter_map(|e| match e {
                SearchEvent::GenerationStart { generation } => Some(*generation),
                _ => None,
            })
            .max();
        assert!(last_started <= Some(failed), "ran generation {last_started:?} past {failed}");
        let announced: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                SearchEvent::CheckpointWritten { generation, .. } => Some(*generation),
                _ => None,
            })
            .collect();
        assert_eq!(announced, (1..=failed).collect::<Vec<_>>(), "generation {failed}");
        // Only the sync failed: every appended record is intact, and a
        // run over the journal completes.
        assert!(CheckpointStore::create(&dir).unwrap().damage().is_none());
        let resumed = run_with_io(&dir, RunBudget::new(), DurableIo::real(), &sink);
        assert_eq!(resumed.unwrap().stop, StopReason::Completed, "generation {failed}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_returned_run_has_its_final_checkpoint_on_disk() {
    // No write may still be in flight once `run` returns: every reply the
    // run asked the tool for is in the journal, and a run over it asks
    // for none.
    let budgets = [RunBudget::new(), RunBudget::new().with_max_generations(2)];
    for round in 0..5 {
        for (b, budget) in budgets.clone().into_iter().enumerate() {
            let tag = format!("returned-{b}-{round}");
            let s = space();
            let dir = tempdir(&tag);
            let (store, f) = journaled(&dir, DurableIo::real());
            let settings = GaSettings { generations: 10, ..Default::default() };
            GaEngine::new(&s, &f)
                .with_settings(settings)
                .with_budget(budget.clone())
                .with_checkpoints(store)
                .run(0x5EED)
                .unwrap();
            let calls = f.calls.load(Ordering::Relaxed);
            let store = CheckpointStore::create(&dir).unwrap();
            assert_eq!(store.journal().replies() as u64, calls, "{tag}");
            assert!(store.damage().is_none(), "{tag}");
            let (rerun, calls) =
                run_journaled(&dir, settings, budget, 0x5EED, &InMemorySink::new());
            rerun.unwrap();
            assert_eq!(calls, 0, "{tag}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
