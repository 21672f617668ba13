//! The daemon: listener, submission queue, scheduler slots, per-model
//! circuit breakers, graceful drain, and crash recovery.
//!
//! # Supervision model
//!
//! * Every job runs on one of a fixed pool of *slots* (worker threads).
//!   A panicking run is contained by the slot — the panic is caught, the
//!   job fails with a typed message, and the slot keeps serving.
//! * Each model has a consecutive-failure circuit breaker. A tripped
//!   breaker sheds new submissions for that model with a typed
//!   [`Backpressure::BreakerOpen`] reply (never a silent drop), then
//!   half-opens after a fixed number of sheds and admits one probe.
//! * Admission control is per-tenant ([`TenantQuota`]): active-job count,
//!   evaluation budget, and deadline are all checked before anything is
//!   queued, each with its own typed refusal.
//!
//! # Crash recovery
//!
//! All authority lives in the state directory, never in memory. On
//! startup the daemon scans `jobs/`, re-adopts every job with a spec but
//! no result record, and re-queues it; the run replays the job's journal
//! of tool replies and ends bit-for-bit where an uninterrupted one would.
//! A SIGKILL at any moment therefore loses at most wall-clock time and
//! the tool calls of the batch in flight. Graceful drain (SIGTERM or a
//! [`Request::Drain`] frame) is the cheap version: it stops admissions,
//! raises every running run's cancel flag, and waits for each to park at
//! a generation boundary with its journal synced before exiting.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nautilus::{DurableIo, Nautilus};
use nautilus_ga::fault_label;
use nautilus_obs::{EdgeTally, SearchEvent, SearchObserver, ServiceTally};

use crate::job::{JobDir, JobPhase, JobSpec};
use crate::proto::{Frame, ProtoError, Reply, Request};
use crate::quota::{Backpressure, TenantQuota};
use crate::registry::{Strategy, MODELS};
use crate::runner::{self, EventLog, FaultClass, RunFault};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root of the daemon's durable state (`endpoint`, `jobs/`,
    /// `service.jsonl`).
    pub state_dir: PathBuf,
    /// Scheduler slots: searches that may run concurrently.
    pub slots: usize,
    /// Per-tenant admission limits.
    pub quota: TenantQuota,
    /// Consecutive failures that trip a model's breaker.
    pub breaker_trip: u32,
    /// Shed submissions an open breaker absorbs before half-opening.
    pub breaker_cooldown: u32,
    /// Durable-write handle every piece of daemon state (endpoint file,
    /// job records, journals) writes through. Real
    /// filesystem by default; the disk-fault battery arms it with a
    /// deterministic [`nautilus_ga::IoFaultPlan`].
    pub io: DurableIo,
    /// Concurrent connections served at once; arrivals beyond the cap
    /// are shed with a typed [`Backpressure::TooManyConnections`] reply.
    pub max_connections: usize,
    /// How long a connection may take to deliver its whole request frame
    /// before being closed (a stalled or trickling client must not pin a
    /// thread). One deadline covers every read of the frame.
    pub conn_read_timeout: Duration,
    /// How long a reply write may block before the connection is closed.
    pub conn_write_timeout: Duration,
    /// In-incarnation retries a job gets after a durable fault (a failed
    /// journal or result write) before it is parked for the next
    /// incarnation.
    pub env_requeue_limit: u32,
}

impl DaemonConfig {
    /// Defaults rooted at `state_dir`: 2 slots, default quota, trip after
    /// 3 consecutive failures, half-open after 2 sheds, 64 connections,
    /// 10-second connection deadlines, 2 durable-fault requeues.
    #[must_use]
    pub fn new(state_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            state_dir: state_dir.into(),
            slots: 2,
            quota: TenantQuota::default(),
            breaker_trip: 3,
            breaker_cooldown: 2,
            io: DurableIo::real(),
            max_connections: 64,
            conn_read_timeout: Duration::from_secs(10),
            conn_write_timeout: Duration::from_secs(10),
            env_requeue_limit: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open { sheds: u32 },
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    consecutive_failures: u32,
    state: BreakerState,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker { consecutive_failures: 0, state: BreakerState::Closed }
    }
}

struct JobEntry {
    spec: JobSpec,
    phase: JobPhase,
    detail: String,
    cancel: Arc<AtomicBool>,
    user_cancel: bool,
    dir: JobDir,
    /// Durable faults absorbed by requeueing this job in this
    /// incarnation.
    env_requeues: u32,
}

struct State {
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    next_id: u64,
    breakers: HashMap<String, Breaker>,
    tally: ServiceTally,
    edge: EdgeTally,
}

struct Shared {
    cfg: DaemonConfig,
    state: Mutex<State>,
    work: Condvar,
    drain: AtomicBool,
    shutdown: AtomicBool,
    /// Connections currently being served (accept-side admission gate).
    conns: AtomicUsize,
    /// Daemon-lifecycle event log, appended across incarnations.
    events: EventLog,
}

impl Shared {
    fn emit(&self, event: &SearchEvent) {
        self.events.on_event(event);
    }
}

/// A running daemon instance (in-process API; the `nautilus-serve` binary
/// is a thin wrapper).
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon").field("addr", &self.addr).finish()
    }
}

impl Daemon {
    /// Creates the state directory if needed, re-adopts orphaned jobs,
    /// binds a localhost listener, publishes the endpoint file, and
    /// starts the scheduler slots.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures preparing state or binding the socket.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        let jobs_root = cfg.state_dir.join("jobs");
        fs::create_dir_all(&jobs_root)?;
        let events = EventLog::append(&cfg.state_dir.join("service.jsonl"))?;

        let mut state = State {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            next_id: 1,
            breakers: HashMap::new(),
            tally: ServiceTally::default(),
            edge: EdgeTally::default(),
        };
        let mut adopted: Vec<SearchEvent> = Vec::new();
        recover(&jobs_root, &cfg.io, &mut state, &mut adopted)?;

        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        publish_endpoint(&cfg.state_dir, &addr, &cfg.io)?;

        let slots = cfg.slots.max(1);
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(state),
            work: Condvar::new(),
            drain: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            events,
        });
        for event in &adopted {
            shared.emit(event);
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let mut workers = Vec::with_capacity(slots);
        for slot in 0..slots {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-slot-{slot}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(Daemon { shared, addr, acceptor: Some(acceptor), workers })
    }

    /// The bound listener address (also published in the `endpoint` file).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the job-lifecycle tally for this incarnation.
    #[must_use]
    pub fn service_tally(&self) -> ServiceTally {
        self.shared.state.lock().expect("daemon state lock").tally.clone()
    }

    /// Snapshot of the hostile-environment tally (durable-write
    /// failures, shed connections, stalls, dedupe hits) for this
    /// incarnation.
    #[must_use]
    pub fn edge_tally(&self) -> EdgeTally {
        self.shared.state.lock().expect("daemon state lock").edge.clone()
    }

    /// Initiates a graceful drain: admissions stop, running jobs halt at
    /// their next generation boundary (journal synced), queued
    /// jobs stay queued for the next incarnation.
    pub fn drain(&self) {
        initiate_drain(&self.shared);
    }

    /// Whether a drain has begun, by [`Daemon::drain`] or by a
    /// [`Request::Drain`] frame.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.drain.load(Ordering::Acquire)
    }

    /// [`Daemon::drain`] then blocks until every slot has parked and the
    /// listener has closed; removes the endpoint file on the way out.
    pub fn drain_and_join(mut self) {
        self.drain();
        self.join_threads();
        let _ = fs::remove_file(self.shared.cfg.state_dir.join("endpoint"));
    }

    fn join_threads(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work.notify_all();
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn publish_endpoint(
    state_dir: &std::path::Path,
    addr: &SocketAddr,
    io: &DurableIo,
) -> std::io::Result<()> {
    io.write_atomic(state_dir, "endpoint", addr.to_string().as_bytes(), "daemon.endpoint")
}

/// Scans `jobs/` and rebuilds the in-memory table: terminal jobs from
/// their result records, orphans re-adopted into the queue. Residue of
/// atomic writes interrupted by the previous incarnation's death (stray
/// dot-tmp files) is swept first, so a torn write never survives as a
/// half-file next to the intact state.
fn recover(
    jobs_root: &std::path::Path,
    io: &DurableIo,
    state: &mut State,
    events: &mut Vec<SearchEvent>,
) -> std::io::Result<()> {
    let mut ids: Vec<u64> = fs::read_dir(jobs_root)?
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(|n| n.parse::<u64>().ok()))
        .collect();
    ids.sort_unstable();
    for id in ids {
        let dir = JobDir::open(jobs_root.join(format!("{id:08}"))).with_io(io.clone());
        dir.clean_stray_tmps();
        let Ok(spec) = dir.read_spec() else {
            // A corrupt spec is unrunnable and unreportable; leave the
            // directory for post-mortem but keep it out of the table.
            continue;
        };
        state.next_id = state.next_id.max(id + 1);
        let (phase, detail) = match dir.read_result() {
            Ok(Some(Reply::Result { phase, .. })) => (phase, String::new()),
            Ok(Some(_)) | Ok(None) | Err(_) => {
                // No (intact) result: unfinished work. A durable cancel
                // marker means the user already decided its fate.
                if dir.cancel_requested() {
                    let reply = Reply::Result {
                        job: id,
                        phase: JobPhase::Cancelled,
                        outcome_json: String::new(),
                        report_json: String::new(),
                        events_jsonl: String::new(),
                    };
                    let _ = dir.write_result(&reply);
                    events.push(SearchEvent::JobCancelled { job: id });
                    state.tally.cancelled += 1;
                    (JobPhase::Cancelled, "cancelled before completion".to_owned())
                } else {
                    let resumable = Nautilus::has_resumable_checkpoint(dir.checkpoint_dir());
                    events.push(SearchEvent::JobAdopted { job: id, resumable });
                    state.tally.adopted += 1;
                    state.queue.push_back(id);
                    (JobPhase::Queued, String::new())
                }
            }
        };
        state.jobs.insert(
            id,
            JobEntry {
                spec,
                phase,
                detail,
                cancel: Arc::new(AtomicBool::new(false)),
                user_cancel: false,
                dir,
                env_requeues: 0,
            },
        );
    }
    Ok(())
}

fn initiate_drain(shared: &Arc<Shared>) {
    if shared.drain.swap(true, Ordering::AcqRel) {
        return;
    }
    let state = shared.state.lock().expect("daemon state lock");
    for entry in state.jobs.values() {
        if entry.phase == JobPhase::Running {
            entry.cancel.store(true, Ordering::Release);
        }
    }
    drop(state);
    shared.work.notify_all();
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut consecutive_errors: u32 = 0;
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let stream = match conn {
            Ok(stream) => {
                consecutive_errors = 0;
                stream
            }
            Err(_) => {
                // accept(2) errors like EMFILE tend to persist; spinning
                // on them burns the core the searches need. Back off
                // exponentially, capped at a second, and say so.
                consecutive_errors = consecutive_errors.saturating_add(1);
                let backoff_ms = (10u64 << consecutive_errors.min(7).saturating_sub(1)).min(1000);
                {
                    let mut state = shared.state.lock().expect("daemon state lock");
                    state.edge.accept_backoffs += 1;
                }
                shared.emit(&SearchEvent::AcceptBackoff {
                    errors: u64::from(consecutive_errors),
                    backoff_ms,
                });
                std::thread::sleep(Duration::from_millis(backoff_ms));
                continue;
            }
        };
        let active = shared.conns.load(Ordering::Acquire);
        if active >= shared.cfg.max_connections {
            shed_connection(stream, shared, active);
            continue;
        }
        shared.conns.fetch_add(1, Ordering::AcqRel);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new().name("serve-conn".into()).spawn(move || {
            handle_connection(stream, &conn_shared);
            conn_shared.conns.fetch_sub(1, Ordering::AcqRel);
        });
        if spawned.is_err() {
            shared.conns.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Refuses a connection over the cap with a typed reply. The write uses
/// a short fixed timeout (not the configured one): this runs on the
/// accept thread, and a peer that won't read a 50-byte reply must not
/// stall admission for everyone else.
fn shed_connection(mut stream: TcpStream, shared: &Arc<Shared>, active: usize) {
    let limit = shared.cfg.max_connections as u64;
    {
        let mut state = shared.state.lock().expect("daemon state lock");
        state.edge.conns_shed += 1;
    }
    shared.emit(&SearchEvent::ConnShed { active: active as u64, limit });
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let reply = Reply::Rejected {
        reason: Backpressure::TooManyConnections { active: active as u64, limit },
    };
    let _ = Frame::Reply(reply).write_to(&mut stream);
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn note_stall(shared: &Arc<Shared>, phase: &str) {
    {
        let mut state = shared.state.lock().expect("daemon state lock");
        state.edge.conn_stalls += 1;
    }
    shared.emit(&SearchEvent::ConnStalled { phase: phase.to_owned() });
}

/// Reads a connection's request under one deadline for the whole frame.
/// A socket read timeout bounds each `read` call alone, so before every
/// read it is set to the time left: a client that trickles its request a
/// byte at a time cannot hold the connection past the deadline.
struct FrameDeadline<'a> {
    stream: &'a TcpStream,
    /// `None` when the deadline is too far off to represent.
    deadline: Option<Instant>,
}

impl Read for FrameDeadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left =
            self.deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Deadlines on both directions: a client that connects and goes
    // silent, trickles its request, or stops reading its reply is closed,
    // not serviced forever.
    let _ = stream.set_write_timeout(Some(shared.cfg.conn_write_timeout));
    let deadline = Instant::now().checked_add(shared.cfg.conn_read_timeout);
    let read = Frame::read_from(&mut FrameDeadline { stream: &stream, deadline });
    let request = match read {
        Ok(Frame::Request(req)) => req,
        Ok(Frame::Reply(_)) => {
            let reply = Reply::Error { message: "expected a request frame".into() };
            let _ = Frame::Reply(reply).write_to(&mut stream);
            return;
        }
        Err(ProtoError::CleanEof) => return,
        Err(ProtoError::Io(e)) if is_timeout(&e) => {
            note_stall(shared, "read");
            let reply = Reply::Error { message: "connection deadline exceeded".into() };
            let _ = Frame::Reply(reply).write_to(&mut stream);
            return;
        }
        Err(err) => {
            // Framing faults still get a typed reply when the socket is
            // writable; a garbage-spewing client just sees the close.
            let reply = Reply::Error { message: format!("protocol error: {err}") };
            let _ = Frame::Reply(reply).write_to(&mut stream);
            return;
        }
    };
    let reply = serve_request(shared, request);
    if let Err(ProtoError::Io(e)) = Frame::Reply(reply).write_to(&mut stream) {
        if is_timeout(&e) {
            note_stall(shared, "write");
        }
    }
}

fn serve_request(shared: &Arc<Shared>, request: Request) -> Reply {
    match request {
        Request::Ping => {
            let state = shared.state.lock().expect("daemon state lock");
            Reply::Pong { jobs: state.jobs.len() as u64 }
        }
        Request::Submit { spec } => submit(shared, spec),
        Request::Status { job } => {
            let state = shared.state.lock().expect("daemon state lock");
            match state.jobs.get(&job) {
                Some(entry) => {
                    Reply::Status { job, phase: entry.phase, detail: entry.detail.clone() }
                }
                None => Reply::Error { message: format!("unknown job {job}") },
            }
        }
        Request::Result { job } => {
            let state = shared.state.lock().expect("daemon state lock");
            let Some(entry) = state.jobs.get(&job) else {
                return Reply::Error { message: format!("unknown job {job}") };
            };
            match entry.dir.read_result() {
                Ok(Some(reply)) => reply,
                // Not finished yet: answer with a status frame so pollers
                // can tell "pending" apart from a real fault.
                Ok(None) => Reply::Status { job, phase: entry.phase, detail: entry.detail.clone() },
                Err(err) => Reply::Error { message: format!("result record unreadable: {err}") },
            }
        }
        Request::Cancel { job } => cancel(shared, job),
        Request::Drain => {
            initiate_drain(shared);
            let state = shared.state.lock().expect("daemon state lock");
            let pending = state
                .jobs
                .values()
                .filter(|e| matches!(e.phase, JobPhase::Queued | JobPhase::Running))
                .count() as u64;
            Reply::Draining { pending }
        }
    }
}

/// Counts the refusal, emits the lifecycle event, and builds the reply.
fn reject(shared: &Arc<Shared>, tenant: &str, reason: Backpressure) -> Reply {
    {
        let mut state = shared.state.lock().expect("daemon state lock");
        state.tally.rejected += 1;
    }
    shared.emit(&SearchEvent::JobRejected {
        tenant: tenant.to_owned(),
        reason: reason.label().to_owned(),
    });
    Reply::Rejected { reason }
}

/// Bumps the durable-failure counters and returns the deterministic
/// fault label for the telemetry event. Caller still holds the state
/// lock; emit after dropping it.
fn note_durable_failure(state: &mut State, message: &str) -> String {
    let label = fault_label(message).to_owned();
    state.edge.durable_write_failures += 1;
    if label.contains("sync") {
        state.edge.fsync_failures += 1;
    }
    label
}

fn submit(shared: &Arc<Shared>, mut spec: JobSpec) -> Reply {
    // Idempotent resubmission first, even while draining: a client that
    // lost its `Submitted` reply retries with the same dedupe key and
    // must get the original id back — the work was already accepted.
    if !spec.dedupe_key.is_empty() {
        let mut state = shared.state.lock().expect("daemon state lock");
        let original = state
            .jobs
            .iter()
            .find(|(_, e)| e.spec.tenant == spec.tenant && e.spec.dedupe_key == spec.dedupe_key)
            .map(|(&id, _)| id);
        if let Some(id) = original {
            state.edge.dedupe_hits += 1;
            drop(state);
            shared.emit(&SearchEvent::DuplicateSubmit { job: id, tenant: spec.tenant.clone() });
            return Reply::Submitted { job: id };
        }
    }
    if shared.drain.load(Ordering::Acquire) {
        return reject(shared, &spec.tenant, Backpressure::Draining);
    }
    if let Err(reason) = Strategy::parse(&spec.strategy) {
        return reject(shared, &spec.tenant, reason);
    }
    if !MODELS.contains(&spec.model.as_str()) {
        let tenant = spec.tenant.clone();
        return reject(shared, &tenant, Backpressure::UnknownModel { name: spec.model });
    }
    let quota = shared.cfg.quota;
    if spec.max_evals > quota.max_evals {
        return reject(
            shared,
            &spec.tenant,
            Backpressure::EvalBudgetTooLarge { requested: spec.max_evals, limit: quota.max_evals },
        );
    }
    if spec.max_evals == 0 {
        // "Unlimited" admits as the tenant's ceiling; the clamped value is
        // what gets persisted, so recovery replays the same budget.
        spec.max_evals = quota.max_evals;
    }
    if spec.deadline_ms > quota.max_deadline_ms {
        return reject(
            shared,
            &spec.tenant,
            Backpressure::DeadlineTooLong {
                requested_ms: spec.deadline_ms,
                limit_ms: quota.max_deadline_ms,
            },
        );
    }

    let mut state = shared.state.lock().expect("daemon state lock");
    let active = state
        .jobs
        .values()
        .filter(|e| e.spec.tenant == spec.tenant && !e.phase.is_terminal())
        .count();
    if active >= quota.max_active {
        state.tally.rejected += 1;
        drop(state);
        let reason =
            Backpressure::QueueFull { queued: active as u64, limit: quota.max_active as u64 };
        shared.emit(&SearchEvent::JobRejected {
            tenant: spec.tenant.clone(),
            reason: reason.label().to_owned(),
        });
        return Reply::Rejected { reason };
    }
    let shed = {
        let breaker = state.breakers.entry(spec.model.clone()).or_default();
        match breaker.state {
            BreakerState::Closed => false,
            BreakerState::HalfOpen => true,
            BreakerState::Open { sheds } => {
                if sheds + 1 >= shared.cfg.breaker_cooldown {
                    // This submission is the probe: admit it half-open.
                    breaker.state = BreakerState::HalfOpen;
                    false
                } else {
                    breaker.state = BreakerState::Open { sheds: sheds + 1 };
                    true
                }
            }
        }
    };
    if shed {
        state.tally.rejected += 1;
        drop(state);
        let reason = Backpressure::BreakerOpen { model: spec.model.clone() };
        shared.emit(&SearchEvent::JobRejected {
            tenant: spec.tenant.clone(),
            reason: reason.label().to_owned(),
        });
        return Reply::Rejected { reason };
    }

    let id = state.next_id;
    state.next_id += 1;
    let jobs_root = shared.cfg.state_dir.join("jobs");
    let dir = match JobDir::create(&jobs_root, id) {
        Ok(dir) => dir.with_io(shared.cfg.io.clone()),
        Err(e) => return Reply::Error { message: format!("cannot create job dir: {e}") },
    };
    if let Err(e) = dir.write_spec(&spec) {
        // An unrecorded job must not exist: remove the directory so the
        // next incarnation never adopts a spec-less orphan.
        let _ = fs::remove_dir_all(dir.path());
        let label = note_durable_failure(&mut state, &e.to_string());
        drop(state);
        shared.emit(&SearchEvent::DurableWriteFailed { site: "job.spec".into(), detail: label });
        return Reply::Error { message: format!("cannot persist job spec: {e}") };
    }
    let tenant = spec.tenant.clone();
    state.jobs.insert(
        id,
        JobEntry {
            spec,
            phase: JobPhase::Queued,
            detail: String::new(),
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancel: false,
            dir,
            env_requeues: 0,
        },
    );
    state.queue.push_back(id);
    state.tally.queued += 1;
    drop(state);
    shared.emit(&SearchEvent::JobQueued { job: id, tenant });
    shared.work.notify_all();
    Reply::Submitted { job: id }
}

fn cancel(shared: &Arc<Shared>, job: u64) -> Reply {
    let mut state = shared.state.lock().expect("daemon state lock");
    let Some(entry) = state.jobs.get_mut(&job) else {
        return Reply::Error { message: format!("unknown job {job}") };
    };
    if entry.phase.is_terminal() {
        return Reply::Cancelled { job };
    }
    let marker = entry.dir.mark_cancel_requested();
    if let Err(e) = marker {
        // Without a durable marker a crash would resurrect the job; a
        // cancel the daemon cannot prove later is a cancel it must not
        // half-apply in memory.
        let label = note_durable_failure(&mut state, &e.to_string());
        drop(state);
        shared.emit(&SearchEvent::DurableWriteFailed { site: "job.cancel".into(), detail: label });
        return Reply::Error { message: format!("cannot persist cancel marker: {e}") };
    }
    let entry = state.jobs.get_mut(&job).expect("entry present above");
    entry.user_cancel = true;
    entry.cancel.store(true, Ordering::Release);
    if entry.phase == JobPhase::Queued {
        let reply = Reply::Result {
            job,
            phase: JobPhase::Cancelled,
            outcome_json: String::new(),
            report_json: String::new(),
            events_jsonl: String::new(),
        };
        let _ = entry.dir.write_result(&reply);
        entry.phase = JobPhase::Cancelled;
        entry.detail = "cancelled while queued".into();
        state.queue.retain(|&id| id != job);
        state.tally.cancelled += 1;
        drop(state);
        shared.emit(&SearchEvent::JobCancelled { job });
    }
    Reply::Cancelled { job }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let claimed = {
            let mut state = shared.state.lock().expect("daemon state lock");
            loop {
                if shared.shutdown.load(Ordering::Acquire) || shared.drain.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = state.queue.pop_front() {
                    let Some(entry) = state.jobs.get_mut(&id) else { continue };
                    if entry.phase != JobPhase::Queued {
                        continue;
                    }
                    entry.phase = JobPhase::Running;
                    let claim =
                        (id, entry.spec.clone(), entry.dir.clone(), Arc::clone(&entry.cancel));
                    state.tally.started += 1;
                    break Some(claim);
                }
                state = shared.work.wait(state).expect("daemon state lock");
            }
        };
        let Some((id, mut spec, dir, cancel)) = claimed else { return };
        shared.emit(&SearchEvent::JobStarted { job: id });
        // A job that asked for no deadline runs under the tenant's
        // ceiling; the persisted spec keeps what was submitted.
        if spec.deadline_ms == 0 {
            spec.deadline_ms = shared.cfg.quota.max_deadline_ms;
        }
        let result = catch_unwind(AssertUnwindSafe(|| runner::execute(&spec, &dir, &cancel)));
        finish_job(shared, id, &spec, &dir, result);
    }
}

type RunResult = std::thread::Result<Result<runner::RunArtifacts, RunFault>>;

fn finish_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec, dir: &JobDir, result: RunResult) {
    let verdict = match result {
        Ok(Ok(artifacts)) => {
            if artifacts.stop == nautilus::StopReason::Cancelled {
                let user = dir.cancel_requested();
                if user {
                    Verdict::Cancelled
                } else {
                    // Drain stop: the journal is synced; park the job for
                    // the next incarnation to re-adopt.
                    Verdict::Parked
                }
            } else {
                Verdict::Done(artifacts)
            }
        }
        Ok(Err(fault)) => match fault.class {
            FaultClass::Model => Verdict::Failed(fault.message),
            FaultClass::Durable => Verdict::EnvFault(fault),
        },
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            Verdict::Failed(format!("panicked: {message}"))
        }
    };

    let mut state = shared.state.lock().expect("daemon state lock");
    let mut events: Vec<SearchEvent> = Vec::new();
    let mut requeued = false;
    match verdict {
        Verdict::Done(artifacts) => {
            let reply = Reply::Result {
                job: id,
                phase: JobPhase::Done,
                outcome_json: artifacts.outcome_json,
                report_json: artifacts.report_json,
                events_jsonl: artifacts.events_jsonl,
            };
            let mut write_err = None;
            if let Some(entry) = state.jobs.get_mut(&id) {
                match entry.dir.write_result(&reply) {
                    Ok(()) => {
                        entry.phase = JobPhase::Done;
                        entry.detail = format!("stop: {}", artifacts.stop.as_str());
                    }
                    Err(e) => write_err = Some(e),
                }
            }
            match write_err {
                None => {
                    state.tally.finished += 1;
                    events.push(SearchEvent::JobFinished { job: id, outcome: "done".into() });
                    breaker_success(&mut state, &spec.model);
                }
                Some(e) => {
                    // The run finished but its artifacts are not durable.
                    // Requeue (the rerun replays the whole journal and
                    // rewrites the result) or, when out of retries, park
                    // adoptable rather than lie.
                    let label = note_durable_failure(&mut state, &e.to_string());
                    events.push(SearchEvent::DurableWriteFailed {
                        site: "job.result".into(),
                        detail: label,
                    });
                    requeued = requeue_or_park(
                        &mut state,
                        &mut events,
                        shared.cfg.env_requeue_limit,
                        id,
                        &format!("result persist failed: {e}"),
                    );
                }
            }
        }
        Verdict::EnvFault(fault) => {
            // The environment broke, not the search: the model's breaker
            // is untouched, and the rerun replays the journal.
            let label = note_durable_failure(&mut state, &fault.message);
            events
                .push(SearchEvent::DurableWriteFailed { site: fault.site.clone(), detail: label });
            requeued = requeue_or_park(
                &mut state,
                &mut events,
                shared.cfg.env_requeue_limit,
                id,
                &fault.to_string(),
            );
        }
        Verdict::Failed(message) => {
            let reply = Reply::Result {
                job: id,
                phase: JobPhase::Failed,
                outcome_json: format!("{{\"error\":{:?}}}", message),
                report_json: String::new(),
                events_jsonl: String::new(),
            };
            let mut present = false;
            if let Some(entry) = state.jobs.get_mut(&id) {
                let _ = entry.dir.write_result(&reply);
                entry.phase = JobPhase::Failed;
                entry.detail = message;
                present = true;
            }
            if present {
                state.tally.finished += 1;
                events.push(SearchEvent::JobFinished { job: id, outcome: "failed".into() });
                breaker_failure(&mut state, &spec.model, shared.cfg.breaker_trip);
            }
        }
        Verdict::Cancelled => {
            let reply = Reply::Result {
                job: id,
                phase: JobPhase::Cancelled,
                outcome_json: String::new(),
                report_json: String::new(),
                events_jsonl: String::new(),
            };
            let mut present = false;
            if let Some(entry) = state.jobs.get_mut(&id) {
                let _ = entry.dir.write_result(&reply);
                entry.phase = JobPhase::Cancelled;
                entry.detail = "cancelled while running".into();
                present = true;
            }
            if present {
                state.tally.cancelled += 1;
                events.push(SearchEvent::JobCancelled { job: id });
            }
        }
        Verdict::Parked => {
            if let Some(entry) = state.jobs.get_mut(&id) {
                entry.phase = JobPhase::Queued;
                entry.detail = "parked by drain".into();
            }
        }
    }
    drop(state);
    for event in &events {
        shared.emit(event);
    }
    if requeued {
        shared.work.notify_all();
    }
}

/// After a durable fault: requeue the job for another
/// in-incarnation attempt while it has retries left, otherwise park it
/// `Queued`-but-not-enqueued so the *next* incarnation re-adopts it.
/// Returns true when the job went back on the live queue.
fn requeue_or_park(
    state: &mut State,
    events: &mut Vec<SearchEvent>,
    limit: u32,
    id: u64,
    detail: &str,
) -> bool {
    let retry = state.jobs.get(&id).is_some_and(|e| e.env_requeues < limit);
    let mut resumable = false;
    {
        let Some(entry) = state.jobs.get_mut(&id) else { return false };
        entry.phase = JobPhase::Queued;
        if retry {
            entry.env_requeues += 1;
            entry.detail = format!("requeued after durable fault: {detail}");
            resumable = Nautilus::has_resumable_checkpoint(entry.dir.checkpoint_dir());
        } else {
            entry.detail = format!("parked after durable fault: {detail}");
        }
    }
    if retry {
        state.queue.push_back(id);
        // Accounting-wise a requeue is a re-adoption: `started` will be
        // bumped again on the next claim, and `queued + adopted` must
        // keep pace for the tally to reconcile.
        state.tally.adopted += 1;
        events.push(SearchEvent::JobAdopted { job: id, resumable });
    }
    retry
}

enum Verdict {
    Done(runner::RunArtifacts),
    Failed(String),
    EnvFault(RunFault),
    Cancelled,
    Parked,
}

fn breaker_success(state: &mut State, model: &str) {
    let breaker = state.breakers.entry(model.to_owned()).or_default();
    breaker.consecutive_failures = 0;
    breaker.state = BreakerState::Closed;
}

fn breaker_failure(state: &mut State, model: &str, trip: u32) {
    let breaker = state.breakers.entry(model.to_owned()).or_default();
    breaker.consecutive_failures += 1;
    if breaker.state == BreakerState::HalfOpen || breaker.consecutive_failures >= trip {
        breaker.state = BreakerState::Open { sheds: 0 };
    }
}
