//! Crash-safety integration tests: budget stops, checkpoint/resume
//! byte-identity, and corruption recovery at the engine level.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nautilus_ga::{
    CheckpointStore, Direction, DurableIo, FnFitness, GaEngine, GaError, GaRun, GaSettings, Genome,
    IoFaultKind, IoFaultPlan, ParamSpace, RunBudget, SearchState, SharedClock, StopReason,
};
use nautilus_obs::{InMemorySink, SearchEvent};

fn space() -> ParamSpace {
    ParamSpace::builder().int("x", 0, 31, 1).int("y", 0, 31, 1).int("z", 0, 31, 1).build().unwrap()
}

fn sphere() -> FnFitness<impl Fn(&Genome) -> Option<f64> + Send + Sync> {
    FnFitness::new(Direction::Minimize, |g: &Genome| {
        Some(g.genes().iter().map(|&v| f64::from(v) * f64::from(v)).sum())
    })
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nautilus-ckpt-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Event-stream digest stripped of timing-dependent and durability-only
/// events: what must be identical between a straight run and an
/// interrupted+resumed pair.
fn strip(events: &[SearchEvent]) -> Vec<String> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                SearchEvent::RunEnd { .. }
                    | SearchEvent::EvalBatch { .. }
                    | SearchEvent::CheckpointWritten { .. }
                    | SearchEvent::CheckpointRestored { .. }
                    | SearchEvent::CheckpointCorruptSkipped { .. }
                    | SearchEvent::RunInterrupted { .. }
                    | SearchEvent::RunResumed { .. }
            )
        })
        .map(SearchEvent::to_json)
        .collect()
}

#[test]
fn resumed_runs_are_byte_identical_at_any_worker_count() {
    let s = space();
    let f = sphere();
    let seed = 0xD1CE;
    for workers in [1usize, 2, 8] {
        let settings = GaSettings { generations: 12, eval_workers: workers, ..Default::default() };
        let straight_sink = InMemorySink::new();
        let straight = GaEngine::new(&s, &f)
            .with_settings(settings)
            .with_observer(&straight_sink)
            .run(seed)
            .unwrap();
        assert_eq!(straight.stop, StopReason::Completed);

        let dir = tempdir(&format!("identity-w{workers}"));
        let part_sink = InMemorySink::new();
        let interrupted = GaEngine::new(&s, &f)
            .with_settings(settings)
            .with_observer(&part_sink)
            .with_budget(RunBudget::new().with_max_generations(5))
            .with_checkpoints(CheckpointStore::create(&dir).unwrap())
            .run(seed)
            .unwrap();
        assert_eq!(interrupted.stop, StopReason::GenerationBudget);
        assert_eq!(interrupted.history.len(), 6, "generations 0..=5 scored");

        let recovery = CheckpointStore::create(&dir).unwrap().recover().unwrap();
        let state = recovery.state.expect("final checkpoint present");
        assert!(recovery.skipped.is_empty());
        assert_eq!(state.generation, 6);

        let resume_sink = InMemorySink::new();
        let resumed = GaEngine::new(&s, &f)
            .with_settings(settings)
            .with_observer(&resume_sink)
            .resume(state)
            .unwrap();
        assert_eq!(resumed, straight, "resumed GaRun must equal the uninterrupted one");

        // Concatenated (interrupted + resumed) event stream, minus timing
        // and durability events, must equal the straight stream.
        let mut spliced = part_sink.events();
        spliced.extend(resume_sink.events());
        assert_eq!(
            strip(&spliced),
            strip(&straight_sink.events()),
            "event streams diverged at workers={workers}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resuming_a_completed_runs_terminal_checkpoint_returns_its_outcome() {
    // The newest checkpoint of a completed run sits at the last boundary
    // (generation = generations, bred but not yet scored). Resuming it
    // re-scores the final generation and returns the finished run — so
    // crash recovery never has to care whether the victim died mid-run or
    // right at the end.
    let s = space();
    let f = sphere();
    let settings = GaSettings { generations: 7, ..Default::default() };
    let dir = tempdir("terminal");
    let straight = GaEngine::new(&s, &f)
        .with_settings(settings)
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(41)
        .unwrap();
    assert_eq!(straight.stop, StopReason::Completed);

    let state = CheckpointStore::create(&dir).unwrap().recover().unwrap().state.unwrap();
    assert_eq!(state.generation, 7, "newest checkpoint sits at the final boundary");
    let resumed = GaEngine::new(&s, &f).with_settings(settings).resume(state).unwrap();
    assert_eq!(resumed, straight);
    assert_eq!(resumed.stop, StopReason::Completed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_works_across_different_worker_counts() {
    // A checkpoint written by a serial run must resume identically under 8
    // workers (and vice versa): worker count is not part of run identity.
    let s = space();
    let f = sphere();
    let seed = 77;
    let straight = GaEngine::new(&s, &f)
        .with_settings(GaSettings { generations: 10, ..Default::default() })
        .run(seed)
        .unwrap();

    let dir = tempdir("xworkers");
    GaEngine::new(&s, &f)
        .with_settings(GaSettings { generations: 10, eval_workers: 1, ..Default::default() })
        .with_budget(RunBudget::new().with_max_generations(4))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(seed)
        .unwrap();
    let state = CheckpointStore::create(&dir).unwrap().recover().unwrap().state.unwrap();
    let resumed = GaEngine::new(&s, &f)
        .with_settings(GaSettings { generations: 10, eval_workers: 8, ..Default::default() })
        .resume(state)
        .unwrap();
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
    let s = space();
    let f = sphere();
    let sink = InMemorySink::new();
    let dir = tempdir("events");
    let run = GaEngine::new(&s, &f)
        .with_observer(&sink)
        .with_budget(RunBudget::new().with_max_generations(2))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(11)
        .unwrap();
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
    let written: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            SearchEvent::CheckpointWritten { generation, bytes, .. } => {
                assert!(*bytes > 0);
                Some(*generation)
            }
            _ => None,
        })
        .collect();
    assert_eq!(written, vec![1, 2, 3], "one checkpoint per boundary");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_falls_back_past_a_corrupt_newest_checkpoint() {
    let s = space();
    let f = sphere();
    let seed = 5;
    let settings = GaSettings { generations: 9, ..Default::default() };
    let straight = GaEngine::new(&s, &f).with_settings(settings).run(seed).unwrap();

    let dir = tempdir("fallback");
    GaEngine::new(&s, &f)
        .with_settings(settings)
        .with_budget(RunBudget::new().with_max_generations(4))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap().with_keep_last(4))
        .run(seed)
        .unwrap();
    // Corrupt the newest checkpoint (gen 5) by flipping one body bit.
    let newest = dir.join("ckpt-00000005.nckpt");
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();

    let sink = InMemorySink::new();
    let recovery = CheckpointStore::create(&dir).unwrap().recover_observed(&sink).unwrap();
    assert_eq!(recovery.skipped.len(), 1);
    let state = recovery.state.unwrap();
    assert_eq!(state.generation, 4, "fell back to the previous intact checkpoint");
    let events = sink.events();
    assert!(
        events.iter().any(|e| matches!(e, SearchEvent::CheckpointCorruptSkipped { reason, .. }
            if reason.contains("checksum"))),
        "corruption must be reported, never silent"
    );
    assert!(events
        .iter()
        .any(|e| matches!(e, SearchEvent::CheckpointRestored { generation: 4, .. })));

    // Resuming from the older checkpoint still converges to the same run.
    let resumed = GaEngine::new(&s, &f).with_settings(settings).resume(state).unwrap();
    assert_eq!(resumed, straight);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stray_tmp_file_from_a_crashed_write_is_ignored_and_cleaned() {
    let s = space();
    let f = sphere();
    let dir = tempdir("stray-tmp");
    GaEngine::new(&s, &f)
        .with_budget(RunBudget::new().with_max_generations(3))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(21)
        .unwrap();
    // Simulate a crash mid-write: temp file present, rename never happened.
    let stray = dir.join(".ckpt-00000009.nckpt.tmp");
    std::fs::write(&stray, b"half a record").unwrap();
    let recovery = CheckpointStore::create(&dir).unwrap().recover().unwrap();
    assert_eq!(recovery.state.unwrap().generation, 4);
    assert!(recovery.skipped.is_empty(), "a tmp file is not a checkpoint candidate");
    assert!(!stray.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_final_file_falls_back_at_every_cut_length() {
    let s = space();
    let f = sphere();
    let dir = tempdir("truncation");
    GaEngine::new(&s, &f)
        .with_budget(RunBudget::new().with_max_generations(3))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap().with_keep_last(3))
        .run(9)
        .unwrap();
    let newest = dir.join("ckpt-00000004.nckpt");
    let intact = std::fs::read(&newest).unwrap();
    // Cut the newest checkpoint at a spread of prefix lengths (every 37th
    // byte plus the edges): recovery must always fall back to gen 3.
    let cuts: Vec<usize> = (0..intact.len()).step_by(37).chain([intact.len() - 1]).collect();
    for cut in cuts {
        std::fs::write(&newest, &intact[..cut]).unwrap();
        let recovery = CheckpointStore::create(&dir).unwrap().recover().unwrap();
        assert_eq!(
            recovery.state.as_ref().map(|s| s.generation),
            Some(3),
            "cut at {cut} did not fall back"
        );
        assert_eq!(recovery.skipped.len(), 1, "cut at {cut} not reported");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_incompatible_settings_and_bad_states() {
    let s = space();
    let f = sphere();
    let dir = tempdir("compat");
    GaEngine::new(&s, &f)
        .with_budget(RunBudget::new().with_max_generations(2))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(1)
        .unwrap();
    let state = CheckpointStore::create(&dir).unwrap().recover().unwrap().state.unwrap();

    // Different population: rejected.
    let bad = GaSettings { population: 7, ..Default::default() };
    let err = GaEngine::new(&s, &f).with_settings(bad).resume(state.clone()).unwrap_err();
    assert!(err.to_string().contains("checkpoint"), "{err}");

    // eval_workers is exempt: same run, different parallelism, accepted.
    let ok = GaSettings { eval_workers: 4, ..Default::default() };
    assert!(GaEngine::new(&s, &f).with_settings(ok).resume(state.clone()).is_ok());

    // Generation outside the run's range: rejected.
    let mut out_of_range = state;
    out_of_range.generation = 1000;
    assert!(GaEngine::new(&s, &f).resume(out_of_range).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aux_blobs_ride_in_checkpoints_verbatim() {
    let s = space();
    let f = sphere();
    let dir = tempdir("aux");
    let aux = || vec![("layer.state".to_owned(), vec![0xAB, 0xCD]), ("empty".to_owned(), vec![])];
    GaEngine::new(&s, &f)
        .with_budget(RunBudget::new().with_max_generations(2))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .with_checkpoint_aux(&aux)
        .run(2)
        .unwrap();
    let state: SearchState =
        CheckpointStore::create(&dir).unwrap().recover().unwrap().state.unwrap();
    assert_eq!(state.aux_blob("layer.state"), Some(&[0xAB, 0xCD][..]));
    assert_eq!(state.aux_blob("empty"), Some(&[][..]));
    assert_eq!(state.aux_blob("nope"), None);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn best_checkpoint_is_pinned_across_retention() {
    let s = space();
    let f = sphere();
    let dir = tempdir("pin-best");
    GaEngine::new(&s, &f)
        .with_budget(RunBudget::new().with_max_generations(10))
        .with_checkpoints(CheckpointStore::create(&dir).unwrap().with_keep_last(1))
        .run(4)
        .unwrap();
    let files = CheckpointStore::create(&dir).unwrap().checkpoint_files().unwrap();
    assert_eq!(files.len(), 1, "keep-last-1 retention");
    let best_path = dir.join("best.nckpt");
    assert!(best_path.exists(), "best-so-far checkpoint pinned outside retention");
    let best = CheckpointStore::create(&dir).unwrap().load(&best_path).unwrap();
    assert!(best.best_genome.is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_after_deadline_exceeded_honors_a_fresh_deadline() {
    // A wall-clock deadline is measured from the start of the *resumed*
    // process: a run stopped by DeadlineExceeded must not instantly
    // re-stop on resume, and with the clock quiet it must finish and
    // match the uninterrupted run exactly.
    use std::sync::Mutex;
    let s = space();
    let f = sphere();
    let settings = GaSettings { generations: 10, ..Default::default() };
    let seed = 0xDEAD11;
    let straight = GaEngine::new(&s, &f).with_settings(settings).run(seed).unwrap();

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
    let interrupted = GaEngine::new(&s, &f)
        .with_settings(settings)
        .with_budget(budget.clone())
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(seed)
        .unwrap();
    assert_eq!(interrupted.stop, StopReason::DeadlineExceeded);
    assert_eq!(interrupted.history.len(), 1, "stopped at the first boundary");

    // Freeze the clock, then resume with the SAME budget: the fresh
    // timer origin grants a fresh 60s window that never elapses.
    *step.lock().unwrap() = Duration::ZERO;
    let state = CheckpointStore::create(&dir).unwrap().recover().unwrap().state.unwrap();
    let resumed =
        GaEngine::new(&s, &f).with_settings(settings).with_budget(budget).resume(state).unwrap();
    assert_eq!(resumed.stop, StopReason::Completed, "fresh deadline must not re-stop");
    assert_eq!(resumed, straight, "resumed run must match the uninterrupted one");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_dir_going_read_only_mid_run_is_a_clean_error_not_a_corrupt_store() {
    let s = space();
    let f = sphere();
    let seed = 0xFA17;
    let settings = GaSettings { generations: 10, ..Default::default() };

    // Simulate the checkpoint directory becoming unwritable between
    // generations: pre-block generation 4's final path with a non-empty
    // directory so the publishing rename fails. (Permission bits alone do
    // not stop root, so the test injects the fault at the rename instead.)
    let dir = tempdir("midrun-fault");
    let blocked = dir.join("ckpt-00000004.nckpt");
    std::fs::create_dir(&blocked).unwrap();
    std::fs::write(blocked.join("occupied"), b"x").unwrap();

    let err = GaEngine::new(&s, &f)
        .with_settings(settings)
        .with_checkpoints(CheckpointStore::create(&dir).unwrap())
        .run(seed)
        .expect_err("checkpoint write failure must stop the run");
    assert!(matches!(err, GaError::Checkpoint(_)), "expected a checkpoint error, got {err:?}");
    assert!(err.to_string().contains("i/o failure"), "{err}");

    // The failed write left no temporary and every earlier checkpoint is
    // intact: recovery lands on the last generation written before the
    // fault, and a resumed run completes normally.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "stray temporary {name} after failed write");
    }
    std::fs::remove_file(blocked.join("occupied")).unwrap();
    std::fs::remove_dir(&blocked).unwrap();
    let recovery = CheckpointStore::create(&dir).unwrap().recover().unwrap();
    assert!(recovery.skipped.is_empty(), "no corrupt files: {:?}", recovery.skipped);
    let state = recovery.state.expect("generations before the fault recoverable");
    assert_eq!(state.generation, 3, "newest intact checkpoint is the pre-fault one");

    let resumed = GaEngine::new(&s, &f).with_settings(settings).resume(state).unwrap();
    assert_eq!(resumed.stop, StopReason::Completed);
    let straight = GaEngine::new(&s, &f).with_settings(settings).run(seed).unwrap();
    assert_eq!(resumed, straight, "recovery after the fault stays byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the write-behind fixture (seed 0x5EED, 10 generations) with its
/// checkpoints routed through `io`, recording events into `sink`.
fn run_with_io(
    tag: &str,
    budget: RunBudget,
    io: DurableIo,
    sink: &InMemorySink,
) -> (Result<GaRun, GaError>, PathBuf) {
    let s = space();
    let f = sphere();
    let dir = tempdir(tag);
    let run = GaEngine::new(&s, &f)
        .with_settings(GaSettings { generations: 10, ..Default::default() })
        .with_observer(sink)
        .with_budget(budget)
        .with_checkpoints(CheckpointStore::create(&dir).unwrap().with_io(io))
        .run(0x5EED);
    (run, dir)
}

/// The `ckpt.gen` write-point indices of a clean fixture run, in boundary
/// order: entry `n` writes the checkpoint for generation `n + 1`.
fn generation_points(tag: &str, budget: RunBudget) -> Vec<u64> {
    let io = DurableIo::census();
    let (run, dir) = run_with_io(tag, budget, io.clone(), &InMemorySink::new());
    run.unwrap();
    std::fs::remove_dir_all(&dir).ok();
    io.write_points().into_iter().filter(|p| p.site == "ckpt.gen").map(|p| p.index).collect()
}

#[test]
fn a_failed_final_checkpoint_write_is_never_lost() {
    // The last boundary's write is still in flight when the final
    // generation (or a budget stop) is reached; its failure must still
    // come back as the run's result.
    let budgets =
        [("complete", RunBudget::new()), ("budget", RunBudget::new().with_max_generations(4))];
    for (label, budget) in budgets {
        let points = generation_points(&format!("last-census-{label}"), budget.clone());
        let last = *points.last().expect("the run writes checkpoints");
        for kind in [IoFaultKind::SyncFail, IoFaultKind::RenameFail] {
            let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(last, kind));
            let tag = format!("last-{label}-{}", kind.label());
            let (run, dir) = run_with_io(&tag, budget.clone(), io.clone(), &InMemorySink::new());
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
    let points = generation_points("middle-census", RunBudget::new());
    assert_eq!(points.len(), 10, "one checkpoint per boundary 1..=10");
    for failed in [1u32, 4, 7] {
        let io = DurableIo::with_plan(
            IoFaultPlan::new().fail_at(points[failed as usize - 1], IoFaultKind::SyncFail),
        );
        let sink = InMemorySink::new();
        let (run, dir) = run_with_io(&format!("middle-{failed}"), RunBudget::new(), io, &sink);
        let err = run.expect_err("a failed write must stop the run");
        assert!(matches!(err, GaError::Checkpoint(_)), "generation {failed}: {err:?}");
        let events = sink.events();
        // Generation `failed` may still be scored while its checkpoint
        // is in flight; the boundary after it must not be crossed.
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
        // The boundary before the failed one is the newest intact state.
        let recovery = CheckpointStore::create(&dir).unwrap().recover().unwrap();
        assert!(recovery.skipped.is_empty(), "{:?}", recovery.skipped);
        let newest = recovery.state.map(|state| state.generation);
        assert_eq!(newest, (failed > 1).then(|| failed - 1), "generation {failed}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_returned_run_has_its_final_checkpoint_on_disk() {
    // No write may still be in flight once `run` returns: the newest
    // generation file is already there, intact, at the final boundary.
    let budgets = [(10, RunBudget::new()), (3, RunBudget::new().with_max_generations(2))];
    for round in 0..5 {
        for (final_boundary, budget) in budgets.clone() {
            let tag = format!("returned-{final_boundary}-{round}");
            let (run, dir) = run_with_io(&tag, budget, DurableIo::real(), &InMemorySink::new());
            run.unwrap();
            let store = CheckpointStore::create(&dir).unwrap();
            let files = store.checkpoint_files().unwrap();
            let (newest, generation) = files.last().expect("checkpoints written").clone();
            assert_eq!(generation, final_boundary, "{tag}");
            assert_eq!(store.load(&newest).unwrap().generation, final_boundary, "{tag}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
