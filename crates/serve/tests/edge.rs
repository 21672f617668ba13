//! Hostile-client tests for the service edge: protocol fuzz flood,
//! stalled connections, connection-cap shedding, idempotent
//! resubmission, and transparent client retry.

use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nautilus_ga::rng::SearchRng;
use nautilus_serve::job::{JobPhase, JobSpec};
use nautilus_serve::proto::{Frame, Reply, Request, MAGIC, MAX_BODY_LEN, VERSION};
use nautilus_serve::quota::Backpressure;
use nautilus_serve::{Daemon, DaemonConfig, ServeClient};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nautilus-edge-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        tenant: "acme".into(),
        model: "bowl".into(),
        strategy: "baseline".into(),
        seed,
        generations: 6,
        eval_workers: 1,
        max_evals: 0,
        deadline_ms: 0,
        eval_delay_us: 0,
        dedupe_key: String::new(),
    }
}

/// Sixty connections of garbage — random bytes, truncated frames,
/// oversized length prefixes — against a live daemon. Every socket gets
/// a well-formed typed `Error` reply, nothing hangs, and the daemon
/// still runs real jobs afterwards.
#[test]
fn fuzz_flood_gets_typed_replies_and_never_wedges_the_daemon() {
    let dir = tempdir("fuzz");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.conn_read_timeout = Duration::from_millis(500);
    cfg.conn_write_timeout = Duration::from_millis(500);
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr();

    let mut rng = SearchRng::seed_from_u64(0x5EED_CAFE);
    for round in 0..60u32 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
        let payload: Vec<u8> = match round % 3 {
            0 => {
                // Random garbage: bad magic (or truncated, when short).
                let n = 1 + rng.below(256);
                (0..n).map(|_| rng.next_u64() as u8).collect()
            }
            1 => {
                // A valid Ping frame cut mid-stream: always truncated.
                let full = Frame::Request(Request::Ping).encode();
                let cut = 1 + rng.below(full.len() as u64 - 1) as usize;
                full[..cut].to_vec()
            }
            _ => {
                // A header whose body_len would drive an OOM if trusted.
                let mut h = Vec::with_capacity(20);
                h.extend_from_slice(MAGIC);
                h.extend_from_slice(&VERSION.to_le_bytes());
                h.extend_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
                h
            }
        };
        let _ = stream.write_all(&payload);
        let _ = stream.shutdown(Shutdown::Write);
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        assert!(!buf.is_empty(), "fuzz round {round}: no reply at all");
        match Frame::decode(&buf) {
            Ok(Frame::Reply(Reply::Error { message })) => {
                assert!(message.contains("protocol error"), "round {round}: {message}");
            }
            other => panic!("fuzz round {round}: expected a typed error, got {other:?}"),
        }
    }

    // The daemon is unharmed: a real job still runs end to end.
    let client = ServeClient::from_state_dir(&dir).unwrap();
    assert_eq!(client.ping().unwrap(), 0);
    let job = client.submit(&spec(1)).unwrap().expect("admitted");
    let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();
    assert!(matches!(reply, Reply::Result { phase: JobPhase::Done, .. }));
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that connects and goes silent is bounded by the read
/// deadline and — crucially — does not slow anyone else down while it
/// stalls: the daemon handles each connection independently.
#[test]
fn a_stalled_client_cannot_delay_unrelated_work() {
    let dir = tempdir("stall");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.conn_read_timeout = Duration::from_millis(300);
    let daemon = Daemon::start(cfg).unwrap();

    let mut stalled = TcpStream::connect(daemon.addr()).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // While the stall is in progress, unrelated traffic proceeds at full
    // speed: a ping round-trips far inside the stalled peer's deadline,
    // and a submit→result cycle completes normally.
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let t0 = Instant::now();
    assert_eq!(client.ping().unwrap(), 0);
    assert!(t0.elapsed() < Duration::from_millis(250), "ping serialized behind a stalled peer");
    let job = client.submit(&spec(2)).unwrap().expect("admitted");
    let reply = client.wait_result(job, Duration::from_secs(60)).unwrap();
    assert!(matches!(reply, Reply::Result { phase: JobPhase::Done, .. }));

    // The stalled connection itself gets a typed deadline reply.
    let mut buf = Vec::new();
    let _ = stalled.read_to_end(&mut buf);
    match Frame::decode(&buf) {
        Ok(Frame::Reply(Reply::Error { message })) => {
            assert!(message.contains("connection deadline exceeded"), "{message}");
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    assert!(daemon.edge_tally().conn_stalls >= 1);
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The read deadline bounds the whole request frame, not each read: a
/// client trickling a valid request one byte at a time, every byte well
/// inside the deadline, is still cut off once the deadline has passed.
#[test]
fn a_trickled_request_is_cut_off_at_the_frame_deadline() {
    let dir = tempdir("trickle");
    let timeout = Duration::from_millis(300);
    let mut cfg = DaemonConfig::new(&dir);
    cfg.conn_read_timeout = timeout;
    let daemon = Daemon::start(cfg).unwrap();

    let started = Instant::now();
    let mut stream = TcpStream::connect(daemon.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let trickler = std::thread::spawn(move || {
        for byte in Frame::Request(Request::Ping).encode() {
            if writer.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(timeout * 3 / 5);
        }
    });
    // The daemon closes the connection at the deadline. Whether the
    // deadline reply arrives or the close resets the socket first depends
    // on when the next byte lands, so only the close is asserted.
    let _ = stream.read_to_end(&mut Vec::new());
    let held = started.elapsed();
    assert!(held < timeout * 2, "a trickling client held its connection for {held:?}");
    assert_eq!(daemon.edge_tally().conn_stalls, 1);
    trickler.join().unwrap();
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Beyond `max_connections`, new connections are shed on the accept
/// thread with a typed `TooManyConnections` refusal instead of queueing
/// behind stalled handlers; capacity returns once the holders drain.
#[test]
fn connections_over_the_cap_are_shed_with_a_typed_refusal() {
    let dir = tempdir("cap");
    let mut cfg = DaemonConfig::new(&dir);
    cfg.max_connections = 2;
    cfg.conn_read_timeout = Duration::from_secs(2);
    let daemon = Daemon::start(cfg).unwrap();
    let addr = daemon.addr();

    // Two silent holders occupy every slot (until their read deadline).
    let holders: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();

    // Probe until both holders are counted; then the probe is shed.
    let deadline = Instant::now() + Duration::from_secs(10);
    let shed = loop {
        assert!(Instant::now() < deadline, "no connection was ever shed");
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = probe.shutdown(Shutdown::Write);
        let mut buf = Vec::new();
        let _ = probe.read_to_end(&mut buf);
        match Frame::decode(&buf) {
            Ok(Frame::Reply(Reply::Rejected { reason })) => break reason,
            // The probe raced ahead of a holder into a free slot (or got
            // no reply at all); try again.
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    match shed {
        Backpressure::TooManyConnections { active, limit } => {
            assert_eq!(limit, 2);
            assert!(active >= 2, "shed below the cap: {active}");
        }
        other => panic!("expected too_many_connections, got {other:?}"),
    }
    assert!(daemon.edge_tally().conns_shed >= 1);

    // Capacity comes back once the holders are gone.
    drop(holders);
    let client = ServeClient::from_state_dir(&dir).unwrap().with_timeout(Duration::from_secs(5));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if client.ping().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "capacity never recovered after the flood");
        std::thread::sleep(Duration::from_millis(20));
    }
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resubmission carrying the same `(tenant, dedupe_key)` answers with
/// the original job id — in the same incarnation and, because the key is
/// persisted inside the job spec, across a daemon restart.
#[test]
fn duplicate_submits_return_the_original_job_id_even_across_restart() {
    let dir = tempdir("dedupe");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();

    let mut keyed = spec(3);
    keyed.dedupe_key = "retry-1".into();
    let original = client.submit(&keyed).unwrap().expect("admitted");
    let duplicate = client.submit(&keyed).unwrap().expect("deduped");
    assert_eq!(duplicate, original);
    assert_eq!(daemon.edge_tally().dedupe_hits, 1);
    let reply = client.wait_result(original, Duration::from_secs(60)).unwrap();
    assert!(matches!(reply, Reply::Result { phase: JobPhase::Done, .. }));
    daemon.drain_and_join();

    // Incarnation two recovers the finished job — and its key — from
    // disk, so a late retry still maps to the original id.
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let client = ServeClient::from_state_dir(&dir).unwrap();
    let late = client.submit(&keyed).unwrap().expect("deduped after restart");
    assert_eq!(late, original);
    assert_eq!(daemon.edge_tally().dedupe_hits, 1);

    // A different key is genuinely new work.
    let mut fresh = keyed.clone();
    fresh.dedupe_key = "retry-2".into();
    let other = client.submit(&fresh).unwrap().expect("admitted");
    assert_ne!(other, original);
    let reply = client.wait_result(other, Duration::from_secs(60)).unwrap();
    assert!(matches!(reply, Reply::Result { phase: JobPhase::Done, .. }));
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Client retry against a flaky endpoint: idempotent requests ride
/// through dropped connections transparently; an unkeyed submit gives
/// up on the first transport fault (it cannot prove the first attempt
/// never landed), while a keyed submit retries safely.
#[test]
fn client_retry_is_transparent_for_idempotent_requests_only() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // 1: dropped before any reply — a retryable transport fault.
        let (s, _) = listener.accept().unwrap();
        drop(s);
        // 2: the ping retry lands and is answered.
        let (mut s, _) = listener.accept().unwrap();
        match Frame::read_from(&mut s).unwrap() {
            Frame::Request(Request::Ping) => {
                Frame::Reply(Reply::Pong { jobs: 7 }).write_to(&mut s).unwrap();
            }
            other => panic!("expected a ping retry, got {other:?}"),
        }
        // 3: dropped again — the unkeyed submit must NOT retry past it.
        let (s, _) = listener.accept().unwrap();
        drop(s);
        // 4: the keyed submit's first attempt, also dropped.
        let (s, _) = listener.accept().unwrap();
        drop(s);
        // 5: the keyed submit's retry.
        let (mut s, _) = listener.accept().unwrap();
        match Frame::read_from(&mut s).unwrap() {
            Frame::Request(Request::Submit { spec }) => {
                assert_eq!(spec.dedupe_key, "idem");
                Frame::Reply(Reply::Submitted { job: 42 }).write_to(&mut s).unwrap();
            }
            other => panic!("expected a submit retry, got {other:?}"),
        }
    });

    let client = ServeClient::new(addr)
        .with_timeout(Duration::from_secs(5))
        .with_retries(3, Duration::from_millis(10));
    assert_eq!(client.ping().unwrap(), 7, "ping did not retry through the drop");
    assert!(client.submit(&spec(4)).is_err(), "unkeyed submit must not retry");
    let mut keyed = spec(4);
    keyed.dedupe_key = "idem".into();
    assert_eq!(client.submit(&keyed).unwrap().unwrap(), 42);
    server.join().unwrap();
}
