//! The disk-fault battery: enumerate every durable write point in a
//! daemon job's lifetime with a census run, then fail each in turn and
//! prove the daemon either surfaces a typed error or recovers to a
//! byte-identical result.
//!
//! A census [`DurableIo`] records the `(index, site)` of every durable
//! operation an uninterrupted lifecycle performs. The battery then
//! replays the same lifecycle under one-shot [`IoFaultPlan`]s aimed at
//! those indices. Expected outcomes per site:
//!
//! * `daemon.endpoint` — startup fails with a typed error; no daemon.
//! * `job.spec` — submission gets a typed `Error` reply, the half-born
//!   job dir is removed, and the daemon keeps serving.
//! * `ckpt.*` (the journal's creation, its appends and its syncs) and
//!   `job.result` — the job is requeued in-incarnation, replays the
//!   journal's intact records, and finishes with artifacts
//!   byte-identical to an uninterrupted run. The full battery fails
//!   every journal write point.
//!
//! The job's live event log has no write point: it is written outside
//! the census, and a failed write there costs the job nothing.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use nautilus::{DurableIo, IoFaultKind, IoFaultPlan, WritePoint};
use nautilus_serve::job::{JobDir, JobPhase, JobSpec};
use nautilus_serve::proto::{Reply, Request};
use nautilus_serve::quota::TenantQuota;
use nautilus_serve::{runner, Daemon, DaemonConfig, ServeClient};

/// A fresh state directory. Tests run in parallel in one process and
/// several run a census at the same worker count, so a per-call serial
/// keeps two daemons from ever sharing a directory.
fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let serial = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("nautilus-fault-{tag}-{}-{serial}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(workers: u32) -> JobSpec {
    JobSpec {
        tenant: "acme".into(),
        model: "bowl".into(),
        strategy: "guided-strong".into(),
        seed: 11,
        generations: 8,
        eval_workers: workers,
        max_evals: 0,
        deadline_ms: 0,
        eval_delay_us: 0,
        dedupe_key: String::new(),
    }
}

fn cfg(dir: &Path, io: DurableIo) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(dir);
    cfg.slots = 1;
    // Trip on the first model failure, so "submission still admitted
    // after a durable failure" proves the breaker was NOT touched.
    cfg.breaker_trip = 1;
    cfg.io = io;
    cfg
}

fn digest(reply: &Reply) -> (String, String, String) {
    match reply {
        Reply::Result { outcome_json, report_json, events_jsonl, phase, .. } => {
            assert_eq!(*phase, JobPhase::Done);
            (outcome_json.clone(), report_json.clone(), events_jsonl.clone())
        }
        other => panic!("expected a Done result, got {other:?}"),
    }
}

/// The straight-run artifacts an undisturbed daemon must reproduce.
fn baseline(workers: u32) -> (String, String, String) {
    let mut clamped = spec(workers);
    clamped.max_evals = TenantQuota::default().max_evals;
    let run = runner::straight(&clamped).unwrap();
    (run.outcome_json, run.report_json, run.events_jsonl)
}

/// Run one uninterrupted lifecycle under a census handle and return the
/// ordered write points it recorded.
fn census(workers: u32) -> Vec<WritePoint> {
    let dir = tempdir(&format!("census-w{workers}"));
    let io = DurableIo::census();
    let daemon = Daemon::start(cfg(&dir, io.clone())).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let job = client.submit(&spec(workers)).unwrap().expect("admitted");
    let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();
    assert_eq!(digest(&reply), baseline(workers), "census run must match the straight run");
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
    let points = io.write_points();
    assert!(!points.is_empty(), "census recorded nothing");
    points
}

/// Indices of every point at `site`, in lifecycle order.
fn site_indices(points: &[WritePoint], site: &str) -> Vec<u64> {
    points.iter().filter(|p| p.site == site).map(|p| p.index).collect()
}

/// What one faulted lifecycle is expected to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// `Daemon::start` itself returns the injected error.
    StartFails,
    /// Submission gets a typed `Error` reply; no job dir survives.
    SubmitRefused,
    /// The job is requeued and completes byte-identically.
    Survives,
}

/// Replay the lifecycle with one write point failed and check `expect`.
fn run_faulted(tag: &str, workers: u32, index: u64, kind: IoFaultKind, expect: Expect) {
    let dir = tempdir(tag);
    let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(index, kind));
    let started = Daemon::start(cfg(&dir, io.clone()));
    if expect == Expect::StartFails {
        let err = started.err().unwrap_or_else(|| panic!("{tag}: start should fail"));
        assert!(err.to_string().contains("injected"), "{tag}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let daemon = started.unwrap_or_else(|e| panic!("{tag}: start failed: {e}"));
    let client = ServeClient::from_state_dir(&dir).unwrap();

    match expect {
        Expect::StartFails => unreachable!(),
        Expect::SubmitRefused => {
            let reply = client.call(Request::Submit { spec: spec(workers) }).unwrap();
            match reply {
                Reply::Error { message } => {
                    assert!(message.contains("injected"), "{tag}: {message}")
                }
                other => panic!("{tag}: expected a typed Error reply, got {other:?}"),
            }
            // No spec-less orphan for the next incarnation to adopt.
            let orphans = std::fs::read_dir(dir.join("jobs")).unwrap().count();
            assert_eq!(orphans, 0, "{tag}: refused submission left a job dir");
            assert_eq!(daemon.edge_tally().durable_write_failures, 1, "{tag}");
            // The daemon is still healthy: the retried submission lands
            // (the one-shot fault is spent) and runs to completion.
            let job = client.submit(&spec(workers)).unwrap().expect("retry admitted");
            let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();
            assert_eq!(digest(&reply), baseline(workers), "{tag}: retry result");
        }
        Expect::Survives => {
            let job = client.submit(&spec(workers)).unwrap().expect("admitted");
            let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();
            assert_eq!(digest(&reply), baseline(workers), "{tag}: recovered result");
            let edge = daemon.edge_tally();
            assert!(edge.durable_write_failures >= 1, "{tag}: {edge:?}");
            assert!(io.injected_faults() >= 1, "{tag}: fault never fired");
            let tally = daemon.service_tally();
            assert!(tally.reconciles(), "{tag}: {tally:?}");
        }
    }
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The faults to inject at a site, each with a kind valid for the
/// durable op the site performs: the first occurrence of a one-shot
/// site, and every occurrence of a journal site.
fn scenarios_for(site: &str, indices: &[u64]) -> Vec<(u64, IoFaultKind, Expect)> {
    let first = indices[0];
    let every = |kinds: &[IoFaultKind]| -> Vec<(u64, IoFaultKind, Expect)> {
        indices
            .iter()
            .flat_map(|&index| kinds.iter().map(move |&kind| (index, kind, Expect::Survives)))
            .collect()
    };
    match site {
        "daemon.endpoint" => vec![(first, IoFaultKind::WriteEnospc, Expect::StartFails)],
        "job.spec" => vec![(first, IoFaultKind::WriteEnospc, Expect::SubmitRefused)],
        // The journal: created with the full atomic discipline, then one
        // append per scoring batch and one sync per boundary. Any failure
        // stops the run with a checkpoint error, and the requeued run
        // replays whatever intact records the journal holds.
        "ckpt.create" => every(&[IoFaultKind::Torn, IoFaultKind::DirSyncFail]),
        "ckpt.append" => every(&[IoFaultKind::Torn, IoFaultKind::WriteEnospc]),
        "ckpt.sync" => every(&[IoFaultKind::SyncFail]),
        // The result record is written atomically; a failure there is
        // recoverable.
        "job.result" => vec![(first, IoFaultKind::RenameFail, Expect::Survives)],
        other => panic!("unexpected durable site in census: {other}"),
    }
}

#[test]
fn census_write_point_sequences_repeat_exactly() {
    // The battery aims each fault at an index taken from a census, so the
    // same lifecycle must put the same site at every index, every time —
    // even though checkpoint I/O runs on the engine's writer thread while
    // the engine keeps appending events.
    for workers in [1u32, 2] {
        assert_eq!(census(workers), census(workers), "census diverged at {workers} worker(s)");
    }
}

#[test]
fn every_first_write_point_fault_is_survived_or_typed() {
    let workers = 1;
    let points = census(workers);
    let mut sites: Vec<String> = points.iter().map(|p| p.site.clone()).collect();
    sites.dedup();
    sites.sort();
    sites.dedup();
    // The census must see every durable surface of a job's lifetime.
    for required in
        ["daemon.endpoint", "job.spec", "ckpt.create", "ckpt.append", "ckpt.sync", "job.result"]
    {
        assert!(sites.iter().any(|s| s == required), "census missed {required}: {sites:?}");
    }
    for site in &sites {
        let indices = site_indices(&points, site);
        // Lean battery: first occurrence per site.
        if let Some((index, kind, expect)) = scenarios_for(site, &indices).into_iter().next() {
            let tag = format!("lean-{}", site.replace('.', "_"));
            run_faulted(&tag, workers, index, kind, expect);
        }
    }
}

/// Full battery: every journal write point, and the first point of each
/// other site, at every supported eval-worker count.
#[test]
fn full_battery_every_journal_write_point_all_worker_counts() {
    for workers in [1u32, 2, 8] {
        let points = census(workers);
        let mut sites: Vec<String> = points.iter().map(|p| p.site.clone()).collect();
        sites.sort();
        sites.dedup();
        for site in &sites {
            let indices = site_indices(&points, site);
            for (n, (index, kind, expect)) in scenarios_for(site, &indices).into_iter().enumerate()
            {
                let tag = format!("full-w{workers}-{}-{n}", site.replace('.', "_"));
                run_faulted(&tag, workers, index, kind, expect);
            }
        }
    }
}

#[test]
fn exhausted_requeues_park_the_job_for_the_next_incarnation() {
    let workers = 1;
    let points = census(workers);
    let ckpt = site_indices(&points, "ckpt.sync");

    // Incarnation one: zero requeue budget, so the first journal sync
    // fault parks the job Queued-but-not-enqueued instead of retrying.
    let dir = tempdir("park");
    let io = DurableIo::with_plan(IoFaultPlan::new().fail_at(ckpt[0], IoFaultKind::SyncFail));
    let mut one = cfg(&dir, io);
    one.env_requeue_limit = 0;
    let daemon = Daemon::start(one).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let job = client.submit(&spec(workers)).unwrap().expect("admitted");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (phase, detail) = client.status(job).unwrap();
        if phase == JobPhase::Queued && detail.contains("parked after durable fault") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never parked: {phase:?} {detail}");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(daemon.edge_tally().durable_write_failures, 1);
    // An environment fault must not trip the model breaker: with
    // breaker_trip=1, the next submission of the same model is admitted
    // only if the breaker stayed closed. A requeued job could not show
    // this, because its own success closes the breaker again.
    let next = client.submit(&spec(workers)).unwrap().expect("breaker stayed closed");
    let reply = client.wait_result(next, Duration::from_secs(60)).unwrap();
    assert_eq!(digest(&reply), baseline(workers), "post-fault run");
    daemon.drain_and_join();

    // Incarnation two, healthy disk: the parked job is adopted and
    // finishes byte-identically to an undisturbed run.
    let daemon = Daemon::start(cfg(&dir, DurableIo::real())).unwrap();
    assert_eq!(daemon.service_tally().adopted, 1);
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();
    assert_eq!(digest(&reply), baseline(workers));
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_cancel_marker_is_a_typed_error_and_cancel_is_retryable() {
    // The cancel marker's write-point index is racy against a running
    // engine's checkpoint stream, so this site is exercised at the
    // JobDir layer: spec is point 0, the marker is point 1.
    let root = tempdir("cancel-marker");
    let plan = IoFaultPlan::new().fail_at(1, IoFaultKind::RenameFail);
    let dir = JobDir::create(&root, 1).unwrap().with_io(DurableIo::with_plan(plan));
    dir.write_spec(&spec(1)).unwrap();
    let err = dir.mark_cancel_requested().unwrap_err();
    assert!(err.to_string().contains("injected rename_fail"), "{err}");
    assert!(!dir.cancel_requested(), "a failed marker must not read as cancelled");
    // The fault is spent; the retried cancel lands durably.
    dir.mark_cancel_requested().unwrap();
    assert!(dir.cancel_requested());
    // The failed rename left no stray tmp behind the battery's back.
    assert_eq!(dir.clean_stray_tmps(), 0);
    let _ = std::fs::remove_dir_all(&root);
}
