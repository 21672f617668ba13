//! In-process daemon integration tests: admission, scheduling, typed
//! backpressure, cancel, drain/park/re-adopt, panic containment, and the
//! per-model circuit breaker — all over real localhost TCP.

use std::path::PathBuf;
use std::time::Duration;

use nautilus_serve::job::{JobPhase, JobSpec};
use nautilus_serve::proto::Reply;
use nautilus_serve::quota::{Backpressure, TenantQuota};
use nautilus_serve::{runner, Daemon, DaemonConfig, ServeClient};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nautilus-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(model: &str, strategy: &str, seed: u64, workers: u32) -> JobSpec {
    JobSpec {
        tenant: "acme".into(),
        model: model.into(),
        strategy: strategy.into(),
        seed,
        generations: 8,
        eval_workers: workers,
        max_evals: 0,
        deadline_ms: 0,
        eval_delay_us: 0,
        dedupe_key: String::new(),
    }
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

#[test]
fn daemon_results_match_straight_runs_at_every_worker_count() {
    let dir = tempdir("identity");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();
    assert_eq!(client.addr(), daemon.addr());

    // Straight runs use the spec's own budget-clamp semantics: the daemon
    // clamps max_evals==0 to the tenant ceiling before persisting, so the
    // comparator must run with the same clamped budget.
    let quota = TenantQuota::default();
    for workers in [1u32, 2, 8] {
        for strategy in ["baseline", "guided-weak", "guided-strong"] {
            let s = spec("bowl", strategy, 42 + u64::from(workers), workers);
            let job = client.submit(&s).unwrap().expect("admitted");
            let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();
            let mut clamped = s.clone();
            clamped.max_evals = quota.max_evals;
            let straight = runner::straight(&clamped).unwrap();
            let (outcome, report, events) = digest(&reply);
            assert_eq!(outcome, straight.outcome_json, "outcome w={workers} {strategy}");
            assert_eq!(report, straight.report_json, "report w={workers} {strategy}");
            assert_eq!(events, straight.events_jsonl, "events w={workers} {strategy}");
        }
    }

    let tally = daemon.service_tally();
    assert!(tally.reconciles(), "{tally:?}");
    assert_eq!(tally.finished, 9);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_quota_violation_gets_its_own_typed_refusal() {
    let dir = tempdir("quota");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.quota = TenantQuota { max_active: 1, max_evals: 10_000, max_deadline_ms: 60_000 };
    let daemon = Daemon::start(cfg).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();

    let mut s = spec("bowl", "baseline", 1, 1);
    s.model = "no-such-model".into();
    assert!(matches!(client.submit(&s).unwrap().unwrap_err(), Backpressure::UnknownModel { .. }));

    let mut s = spec("bowl", "baseline", 1, 1);
    s.strategy = "psychic".into();
    assert!(matches!(
        client.submit(&s).unwrap().unwrap_err(),
        Backpressure::UnknownStrategy { .. }
    ));

    let mut s = spec("bowl", "baseline", 1, 1);
    s.max_evals = 10_001;
    assert!(matches!(
        client.submit(&s).unwrap().unwrap_err(),
        Backpressure::EvalBudgetTooLarge { requested: 10_001, limit: 10_000 }
    ));

    let mut s = spec("bowl", "baseline", 1, 1);
    s.deadline_ms = 120_000;
    assert!(matches!(
        client.submit(&s).unwrap().unwrap_err(),
        Backpressure::DeadlineTooLong { requested_ms: 120_000, limit_ms: 60_000 }
    ));

    // Occupy the tenant's single active slot with a slow job, then watch
    // the next submission bounce with queue_full.
    let mut slow = spec("bowl", "baseline", 2, 1);
    slow.generations = 50;
    slow.eval_delay_us = 2_000;
    let held = client.submit(&slow).unwrap().expect("admitted");
    assert!(matches!(
        client.submit(&spec("bowl", "baseline", 3, 1)).unwrap().unwrap_err(),
        Backpressure::QueueFull { queued: 1, limit: 1 }
    ));
    client.cancel(held).unwrap();

    // Draining daemons refuse everything, also typed.
    assert!(client.drain().is_ok());
    assert!(matches!(
        client.submit(&spec("bowl", "baseline", 4, 1)).unwrap().unwrap_err(),
        Backpressure::Draining
    ));

    let tally = daemon.service_tally();
    assert!(tally.reconciles(), "{tally:?}");
    assert_eq!(tally.rejected, 6);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelling_a_running_job_parks_it_as_cancelled() {
    let dir = tempdir("cancel");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();

    let mut slow = spec("bowl", "guided-strong", 5, 1);
    slow.generations = 200;
    slow.eval_delay_us = 1_000;
    let job = client.submit(&slow).unwrap().expect("admitted");

    // Wait until a slot claims it, then cancel mid-run.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (phase, _) = client.status(job).unwrap();
        if phase == JobPhase::Running {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.cancel(job).unwrap();

    let reply = client.wait_result(job, Duration::from_secs(30)).unwrap();
    match reply {
        Reply::Result { phase, .. } => assert_eq!(phase, JobPhase::Cancelled),
        other => panic!("expected cancelled result, got {other:?}"),
    }
    let (phase, _) = client.status(job).unwrap();
    assert_eq!(phase, JobPhase::Cancelled);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_huge_generation_count_runs_to_its_deadline_and_the_daemon_lives_on() {
    // Nothing in admission bounds `generations`, so the engine must not
    // reserve memory in proportion to it: the job ends at its deadline.
    let dir = tempdir("huge-generations");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let mut s = spec("bowl", "baseline", 1, 1);
    s.generations = u32::MAX;
    s.deadline_ms = 300;
    let job = client.submit(&s).unwrap().expect("admitted");
    let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();
    let (outcome, _, _) = digest(&reply);
    assert!(outcome.contains(r#""stop":"deadline_exceeded""#), "{outcome}");
    let (phase, detail) = client.status(job).unwrap();
    assert_eq!((phase, detail.as_str()), (JobPhase::Done, "stop: deadline_exceeded"));
    assert_eq!(client.ping().unwrap(), 1, "the daemon must still answer");
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_job_with_no_deadline_runs_under_the_tenant_deadline_ceiling() {
    // Asking for no deadline must not escape `max_deadline_ms`: this job
    // would otherwise hold its slot for practically ever.
    let dir = tempdir("no-deadline");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.quota.max_deadline_ms = 300;
    let daemon = Daemon::start(cfg).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let mut s = spec("bowl", "baseline", 1, 1);
    s.generations = u32::MAX;
    s.deadline_ms = 0;
    let job = client.submit(&s).unwrap().expect("admitted");
    let reply = client.wait_result(job, Duration::from_secs(20)).unwrap();
    let (outcome, _, _) = digest(&reply);
    assert!(outcome.contains(r#""stop":"deadline_exceeded""#), "{outcome}");
    assert_eq!(client.ping().unwrap(), 1, "the daemon must still answer");
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drained_jobs_are_adopted_and_finish_byte_identically() {
    let dir = tempdir("drain-park");
    let quota = TenantQuota::default();

    // Incarnation one: accept a slow-ish job, drain while it runs.
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let mut s = spec("ridge", "guided-strong", 77, 2);
    s.generations = 12;
    s.eval_delay_us = 500;
    let job = client.submit(&s).unwrap().expect("admitted");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (phase, _) = client.status(job).unwrap();
        if phase == JobPhase::Running {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.drain_and_join();

    // Incarnation two: the job is re-adopted and runs to completion.
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let tally = daemon.service_tally();
    assert_eq!(tally.adopted, 1, "{tally:?}");
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();

    let mut clamped = s;
    clamped.max_evals = quota.max_evals;
    let straight = runner::straight(&clamped).unwrap();
    let (outcome, report, events) = digest(&reply);
    assert_eq!(outcome, straight.outcome_json);
    assert_eq!(report, straight.report_json);
    assert_eq!(events, straight.events_jsonl);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panics_are_contained_and_trip_the_breaker() {
    let dir = tempdir("breaker");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.slots = 1;
    cfg.breaker_trip = 2;
    cfg.breaker_cooldown = 2;
    let daemon = Daemon::start(cfg).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();

    // Two consecutive panicking runs: both contained (daemon keeps
    // serving), both reported as Failed, breaker trips on the second.
    for seed in [1u64, 2] {
        let job = client.submit(&spec("poison", "baseline", seed, 1)).unwrap().expect("admitted");
        let reply = client.wait_result(job, Duration::from_secs(30)).unwrap();
        match reply {
            Reply::Result { phase, outcome_json, .. } => {
                assert_eq!(phase, JobPhase::Failed);
                assert!(outcome_json.contains("error"), "{outcome_json}");
            }
            other => panic!("expected failed result, got {other:?}"),
        }
    }

    // Open breaker sheds with a typed reply (shed #1 of cooldown 2)...
    assert!(matches!(
        client.submit(&spec("poison", "baseline", 3, 1)).unwrap().unwrap_err(),
        Backpressure::BreakerOpen { .. }
    ));
    // ...then half-opens: the next submission is admitted as the probe.
    let probe = client.submit(&spec("poison", "baseline", 4, 1)).unwrap().expect("probe admitted");
    // While the probe is outstanding (or after it fails), more poison
    // submissions keep shedding.
    let reply = client.wait_result(probe, Duration::from_secs(30)).unwrap();
    assert!(matches!(reply, Reply::Result { phase: JobPhase::Failed, .. }));
    assert!(matches!(
        client.submit(&spec("poison", "baseline", 5, 1)).unwrap().unwrap_err(),
        Backpressure::BreakerOpen { .. }
    ));

    // Panic containment means other models still run fine on the same slot.
    let ok = client.submit(&spec("bowl", "baseline", 6, 1)).unwrap().expect("admitted");
    let reply = client.wait_result(ok, Duration::from_secs(60)).unwrap();
    assert!(matches!(reply, Reply::Result { phase: JobPhase::Done, .. }));

    let tally = daemon.service_tally();
    assert!(tally.reconciles(), "{tally:?}");
    assert_eq!(tally.rejected, 2);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_garbage_gets_a_typed_error_reply() {
    use std::io::{Read as _, Write as _};
    let dir = tempdir("garbage");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();

    let mut stream = std::net::TcpStream::connect(daemon.addr()).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    // The daemon answers with a well-formed Error reply frame.
    match nautilus_serve::proto::Frame::decode(&buf).unwrap() {
        nautilus_serve::proto::Frame::Reply(Reply::Error { message }) => {
            assert!(message.contains("protocol error"), "{message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    // And it is still alive afterwards.
    let client = ServeClient::from_state_dir(&dir).unwrap();
    assert_eq!(client.ping().unwrap(), 0);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
