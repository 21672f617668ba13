//! SIGKILL chaos battery for the daemon: submit searches, kill the
//! daemon process mid-run (twice), restart it, and require the recovered
//! results — outcome, normalized report, normalized event stream — to be
//! byte-identical to uninterrupted in-process runs of the same specs, at
//! eval worker counts 1, 2, and 8.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nautilus_serve::job::{JobDir, JobPhase, JobSpec};
use nautilus_serve::proto::Reply;
use nautilus_serve::quota::TenantQuota;
use nautilus_serve::{runner, ServeClient};

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nautilus-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// Every caller kills the returned child (SIGKILL or SIGTERM) and reaps
// it with `wait`; the only unreaped path is a failing assertion, where
// the test process is exiting anyway.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(dir: &Path) -> (Child, ServeClient) {
    let child = Command::new(env!("CARGO_BIN_EXE_nautilus-serve"))
        .arg("--dir")
        .arg(dir)
        .arg("--slots")
        .arg("2")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nautilus-serve");
    // The previous incarnation's endpoint file may still be on disk; keep
    // re-reading and pinging until the new incarnation answers.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(client) = ServeClient::from_state_dir(dir) {
            if client.ping().is_ok() {
                return (child, client);
            }
        }
        assert!(Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Journal progress across every job under `dir`: the
/// `checkpoint_written` lines in each job's live event log. A run over a
/// journal re-emits one per boundary it crosses, replayed or live, so
/// the sum grows only as the jobs get further.
fn boundaries_crossed(dir: &Path) -> usize {
    let Ok(jobs) = std::fs::read_dir(dir.join("jobs")) else { return 0 };
    jobs.flatten()
        .filter_map(|job| std::fs::read_to_string(JobDir::open(job.path()).event_log()).ok())
        .map(|text| text.matches("\"type\":\"checkpoint_written\"").count())
        .sum()
}

/// The `events-*.jsonl` files in each job directory under `dir`.
fn event_logs_per_job(dir: &Path) -> Vec<usize> {
    let jobs = std::fs::read_dir(dir.join("jobs")).unwrap();
    jobs.flatten()
        .map(|job| {
            std::fs::read_dir(job.path())
                .unwrap()
                .flatten()
                .filter(|f| {
                    let name = f.file_name().to_string_lossy().into_owned();
                    name.starts_with("events-") && name.ends_with(".jsonl")
                })
                .count()
        })
        .collect()
}

/// Waits until the daemon has made durable progress worth losing: at
/// least `want` generation boundaries crossed.
fn wait_for_checkpoints(dir: &Path, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while boundaries_crossed(dir) < want {
        assert!(Instant::now() < deadline, "no durable progress to destroy");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn sigkill(mut child: Child) {
    child.kill().expect("SIGKILL daemon");
    let _ = child.wait();
}

#[test]
fn killing_the_daemon_twice_mid_run_changes_nothing() {
    let dir = tempdir("battery");
    let quota = TenantQuota::default();

    // One search per eval-worker count the acceptance gate cares about.
    // Slowed evals keep each run alive long enough to die twice.
    let specs: Vec<JobSpec> =
        [(1u32, "bowl", "guided-strong"), (2, "ridge", "guided-strong"), (8, "bowl", "baseline")]
            .into_iter()
            .map(|(workers, model, strategy)| JobSpec {
                tenant: "chaos".into(),
                model: model.into(),
                strategy: strategy.into(),
                seed: 9000 + u64::from(workers),
                generations: 10,
                eval_workers: workers,
                max_evals: 0,
                deadline_ms: 0,
                eval_delay_us: 700,
                dedupe_key: String::new(),
            })
            .collect();

    let (child, client) = spawn_daemon(&dir);
    let jobs: Vec<u64> =
        specs.iter().map(|s| client.submit(s).unwrap().expect("admitted")).collect();

    // First kill: after the first durable checkpoints appear.
    wait_for_checkpoints(&dir, 2);
    sigkill(child);

    // Second incarnation re-adopts; kill it again once it has progressed
    // further (more boundaries crossed than when we killed the first one).
    let before = boundaries_crossed(&dir);
    let (child, _client) = spawn_daemon(&dir);
    wait_for_checkpoints(&dir, before + 2);
    sigkill(child);

    // Third incarnation runs everything to completion.
    let (child, client) = spawn_daemon(&dir);
    for (spec, job) in specs.iter().zip(&jobs) {
        let reply = client.wait_result(*job, Duration::from_secs(120)).unwrap();
        let Reply::Result { phase, outcome_json, report_json, events_jsonl, .. } = reply else {
            panic!("expected a result reply");
        };
        assert_eq!(phase, JobPhase::Done, "job {job} did not complete");

        let mut clamped = spec.clone();
        clamped.max_evals = quota.max_evals;
        let straight = runner::straight(&clamped).unwrap();
        let w = spec.eval_workers;
        assert_eq!(outcome_json, straight.outcome_json, "outcome diverged at workers={w}");
        assert_eq!(report_json, straight.report_json, "report diverged at workers={w}");
        assert_eq!(events_jsonl, straight.events_jsonl, "events diverged at workers={w}");
    }
    // However many incarnations ran a job, each started its live log
    // over rather than adding one.
    assert_eq!(event_logs_per_job(&dir), [1, 1, 1]);

    // Graceful goodbye for the survivor.
    let _ = client.drain();
    sigkill(child);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_drain_frame_makes_the_binary_exit_cleanly() {
    let dir = tempdir("drain-frame");
    let (mut child, client) = spawn_daemon(&dir);
    // The reply can race the process exit, so only the exit is asserted.
    let _ = client.drain();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait daemon") {
            break status;
        }
        if Instant::now() >= deadline {
            sigkill(child);
            panic!("daemon did not exit within 10 s of a drain frame");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "drained daemon exited with {status}");
    assert!(!dir.join("endpoint").exists(), "drain did not clean up the endpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_and_the_next_incarnation_finishes_the_job() {
    let dir = tempdir("sigterm");
    let quota = TenantQuota::default();
    let spec = JobSpec {
        tenant: "chaos".into(),
        model: "ridge".into(),
        strategy: "guided-weak".into(),
        seed: 31337,
        generations: 10,
        eval_workers: 2,
        max_evals: 0,
        deadline_ms: 0,
        eval_delay_us: 700,
        dedupe_key: String::new(),
    };

    let (child, client) = spawn_daemon(&dir);
    let job = client.submit(&spec).unwrap().expect("admitted");
    wait_for_checkpoints(&dir, 1);

    // SIGTERM: the daemon parks the run at a generation boundary with its
    // journal synced and exits cleanly on its own.
    unsafe {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        assert_eq!(kill(child.id() as i32, 15), 0);
    }
    let mut child = child;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if child.try_wait().expect("wait daemon").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "daemon ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(10));
    }
    // A graceful exit removes the endpoint file; a crash would leave it.
    assert!(!dir.join("endpoint").exists(), "drain did not clean up the endpoint");

    let (child, client) = spawn_daemon(&dir);
    let reply = client.wait_result(job, Duration::from_secs(120)).unwrap();
    let Reply::Result { phase, outcome_json, report_json, events_jsonl, .. } = reply else {
        panic!("expected a result reply");
    };
    assert_eq!(phase, JobPhase::Done);

    let mut clamped = spec;
    clamped.max_evals = quota.max_evals;
    let straight = runner::straight(&clamped).unwrap();
    assert_eq!(outcome_json, straight.outcome_json);
    assert_eq!(report_json, straight.report_json);
    assert_eq!(events_jsonl, straight.events_jsonl);
    assert_eq!(event_logs_per_job(&dir), [1]);

    let _ = client.drain();
    sigkill(child);
    let _ = std::fs::remove_dir_all(&dir);
}
