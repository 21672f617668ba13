//! The parent side: a pooled subprocess evaluator.
//!
//! [`SubprocessEvaluator`] keeps N warm child processes (spawned from a
//! [`SubprocessConfig`]), routes every request to a deterministic slot
//! (see [Routing](#routing)), and speaks the [`crate::protocol`] framing
//! over each child's stdin/stdout. It implements both engine
//! boundaries — `FallibleEvaluator` for retry/quarantine runs and
//! `SupervisableEvaluator` for watchdog/hedging runs — mapping child
//! behavior onto the engine's failure taxonomy:
//!
//! | child behavior                   | surfaced as                      |
//! |----------------------------------|----------------------------------|
//! | classified `Fault` reply         | the same `EvalFailure` kind      |
//! | garbled `Metrics` reply          | `Ok(Some(NaN))` → `Corrupted`    |
//! | death without a reply            | transparent respawn + retry, then `Transient` |
//! | garbage bytes / bad CRC / desync | kill + respawn, `Corrupted`      |
//! | silence past the I/O deadline    | SIGKILL + respawn; `Hang` (supervised) or `Timeout` |
//! | unspawnable slot                 | `Persistent`                     |
//!
//! ## Bring-up and teardown
//!
//! [`SubprocessEvaluator::spawn`] launches every child before it waits
//! on any of them, then takes the `Hello`s in slot order against one
//! shared deadline, so a pool starts in about one child's start-up time
//! rather than the sum of them. Dropping the evaluator likewise asks
//! every child to shut down first, then reaps each one as soon as its
//! stdout closes, all under one shared grace period.
//!
//! ## Routing
//!
//! The first attempt of an evaluation the engine numbered goes to slot
//! `lane % pool`. Lanes are the run's evaluation ordinals, so a batch's
//! misses are dealt round-robin over the children and no child waits on
//! a busy sibling while another idles. Everything else (retries, and
//! every supervised attempt, which carries no lane) goes to slot
//! `stable_hash(ROUTE_SALT) % pool`. Both keys are functions of the run
//! alone, so each child's request set is the same at every engine worker
//! count and across a checkpoint resume.
//!
//! ## Determinism and the stash
//!
//! Backend accounting (job counts, cache hits, simulated tool seconds,
//! `EvalCompleted` telemetry) must be byte-identical to an in-process
//! run. The evaluator therefore never bypasses the synthesis job
//! runner: after a successful round-trip it *stashes* the child's
//! metric values in a thread-local and re-enters the normal scoring
//! path, where a [`StashModel`] standing in for the real cost model
//! serves the stashed reply. The runner charges jobs, caches, and emits
//! telemetry exactly as if it had computed the metrics itself.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use nautilus_ga::{
    AttemptOutcome, EvalFailure, FallibleEvaluator, FitnessFn, Genome, Journal,
    SupervisableEvaluator,
};
use nautilus_obs::{SearchEvent, SearchObserver, WireReader, WireWriter};
use nautilus_synth::{CostModel, MetricCatalog, MetricSet};

use crate::protocol::{
    Frame, ProtoError, WireOutcome, WIRE_FAULT_PERSISTENT, WIRE_FAULT_TIMEOUT, WIRE_FAULT_TRANSIENT,
};

/// Salt for the genome → slot routing hash that places retries and
/// supervised attempts; a numbered evaluation's first attempt goes by its
/// lane instead (module docs, Routing). Routing must not correlate with
/// any fault-plan hash, so it gets its own salt.
const ROUTE_SALT: u64 = 0x726f_7574_6532;

/// Respawn backoff: `BACKOFF_BASE_MS << (failures - 1)`, capped.
const BACKOFF_BASE_MS: u64 = 1;
const BACKOFF_CAP_MS: u64 = 64;

/// How long a dropped pool waits, in total, for its children to close
/// their stdout after `Shutdown` before killing the rest.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(200);

std::thread_local! {
    static STASH: std::cell::RefCell<Option<Stash>> = const { std::cell::RefCell::new(None) };
}

/// One child reply parked for the scoring path to consume.
#[derive(Debug, Clone)]
struct Stash {
    hash: u64,
    tool_secs: u64,
    values: Option<Vec<f64>>,
}

/// A [`CostModel`] that serves the calling thread's stashed subprocess
/// reply instead of computing anything.
///
/// The search's job runner is constructed over this model when a
/// subprocess evaluator is installed; every metric it "computes" is the
/// value the child tool reported for the same genome. Calling
/// [`StashModel::evaluate`] without a stashed reply (or for a different
/// genome than was stashed) is a contract violation and panics — it
/// means something evaluated the model outside the subprocess path.
pub struct StashModel<'m> {
    inner: &'m dyn CostModel,
}

impl<'m> StashModel<'m> {
    /// Wraps the real model, delegating space/catalog/name to it.
    #[must_use]
    pub fn new(inner: &'m dyn CostModel) -> StashModel<'m> {
        StashModel { inner }
    }
}

impl std::fmt::Debug for StashModel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StashModel").field("inner", &self.inner.name()).finish()
    }
}

fn with_stash<R>(genome: &Genome, f: impl FnOnce(&Stash) -> R) -> R {
    STASH.with(|cell| {
        let borrowed = cell.borrow();
        let stash =
            borrowed.as_ref().expect("StashModel invoked outside the subprocess evaluation path");
        assert_eq!(
            stash.hash,
            genome.stable_hash(0),
            "StashModel invoked for a different genome than the stashed subprocess reply"
        );
        f(stash)
    })
}

impl CostModel for StashModel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> &nautilus_ga::ParamSpace {
        self.inner.space()
    }

    fn catalog(&self) -> &MetricCatalog {
        self.inner.catalog()
    }

    fn evaluate(&self, genome: &Genome) -> Option<MetricSet> {
        with_stash(genome, |stash| {
            stash.values.as_ref().map(|values| {
                self.inner
                    .catalog()
                    .set(values.clone())
                    .expect("metric arity validated before stashing")
            })
        })
    }

    fn synth_time(&self, genome: &Genome) -> Duration {
        with_stash(genome, |stash| Duration::from_secs(stash.tool_secs))
    }
}

/// How to launch and operate the child-process pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubprocessConfig {
    program: PathBuf,
    args: Vec<String>,
    pool_size: usize,
    io_timeout: Duration,
    handshake_timeout: Duration,
    transport_retries: u32,
}

impl SubprocessConfig {
    /// A single-child pool running `program` with no arguments, a 10 s
    /// I/O deadline, a 30 s handshake deadline, and 2 transparent
    /// transport retries.
    #[must_use]
    pub fn new(program: impl Into<PathBuf>) -> SubprocessConfig {
        SubprocessConfig {
            program: program.into(),
            args: Vec::new(),
            pool_size: 1,
            io_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(30),
            transport_retries: 2,
        }
    }

    /// Appends one command-line argument.
    #[must_use]
    pub fn arg(mut self, arg: impl Into<String>) -> Self {
        self.args.push(arg.into());
        self
    }

    /// Appends several command-line arguments.
    #[must_use]
    pub fn args<S: Into<String>>(mut self, args: impl IntoIterator<Item = S>) -> Self {
        self.args.extend(args.into_iter().map(Into::into));
        self
    }

    /// Number of warm children to keep (clamped to at least 1). A
    /// numbered evaluation's first attempt routes to `lane % pool_size`,
    /// and retries and supervised attempts to `stable_hash % pool_size`.
    /// Both keys depend on the run alone, so every child's request set is
    /// independent of engine worker count.
    #[must_use]
    pub fn with_pool_size(mut self, n: usize) -> Self {
        self.pool_size = n.max(1);
        self
    }

    /// Wall-clock deadline for a child to answer one request. A silent
    /// child is SIGKILLed and respawned when it expires.
    #[must_use]
    pub fn with_io_timeout(mut self, d: Duration) -> Self {
        self.io_timeout = d;
        self
    }

    /// Wall-clock deadline for a freshly spawned child's `Hello`. Kept
    /// separate from [`with_io_timeout`](Self::with_io_timeout) because
    /// startup legitimately includes expensive one-time setup (loading a
    /// dataset, licensing a tool) that a tight per-request hang deadline
    /// must not race — a lost race would kill the respawn, dead-end the
    /// slot, and turn scheduling jitter into outcome divergence.
    #[must_use]
    pub fn with_handshake_timeout(mut self, d: Duration) -> Self {
        self.handshake_timeout = d;
        self
    }

    /// How many times a request is transparently re-sent after the child
    /// dies *without replying* (crash mid-eval, clean exit without a
    /// reply). Transparent retries keep innocent genomes from absorbing
    /// failures that depend on scheduling, which would break cross-worker
    /// determinism; only after exhaustion does the request surface as
    /// [`EvalFailure::Transient`].
    #[must_use]
    pub fn with_transport_retries(mut self, n: u32) -> Self {
        self.transport_retries = n;
        self
    }

    /// The configured program path.
    #[must_use]
    pub fn program(&self) -> &std::path::Path {
        &self.program
    }

    /// The configured pool size.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// The configured I/O deadline.
    #[must_use]
    pub fn io_timeout(&self) -> Duration {
        self.io_timeout
    }

    /// The configured handshake deadline.
    #[must_use]
    pub fn handshake_timeout(&self) -> Duration {
        self.handshake_timeout
    }
}

/// Errors constructing a subprocess evaluator.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProcError {
    /// A child failed to launch.
    Spawn {
        /// Pool slot that failed.
        slot: usize,
        /// Launch failure detail.
        reason: String,
    },
    /// A child launched but its handshake was wrong or never arrived.
    Handshake {
        /// Pool slot that failed.
        slot: usize,
        /// Handshake failure detail.
        reason: String,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Spawn { slot, reason } => {
                write!(f, "subprocess slot {slot} failed to spawn: {reason}")
            }
            ProcError::Handshake { slot, reason } => {
                write!(f, "subprocess slot {slot} failed its handshake: {reason}")
            }
        }
    }
}

impl std::error::Error for ProcError {}

/// Child-lifecycle counters, exact under fault storms.
///
/// The eager-respawn invariant: every involuntary child departure
/// (crash, kill, dying gasp) is immediately followed by a respawn, so
/// `killed == respawned` whenever every slot is still serviceable.
/// Shutdown kills at drop time are deliberately uncounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubprocessStats {
    /// Children spawned eagerly at pool construction.
    pub spawned: u64,
    /// Children that left service involuntarily (killed or reaped).
    pub killed: u64,
    /// Children respawned to replace a killed one.
    pub respawned: u64,
    /// Undecodable or out-of-protocol replies.
    pub protocol_errors: u64,
    /// Requests transparently re-sent after a child died mid-request.
    pub transport_retries: u64,
}

impl SubprocessStats {
    /// Whether every kill was matched by a respawn.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.killed == self.respawned
    }
}

/// What the parent and child agreed the tool looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expectation {
    model: String,
    gene_len: u32,
    metric_len: u32,
}

/// A live connection to one child.
struct Conn {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<Result<Frame, ProtoError>>,
}

/// One pool slot. Guarded by a mutex: a slot serves one request at a
/// time, and every lifecycle transition happens while the affected
/// request holds the lock — which is what pins lifecycle telemetry to a
/// deterministic position in the event stream for plan-driven faults.
struct Slot {
    conn: Option<Conn>,
    dead: bool,
    failures: u32,
    next_id: u64,
}

/// How one wire round-trip ended, before failure mapping.
enum Roundtrip {
    Outcome(WireOutcome),
    HungKilled,
    TransportLost,
    Garbage(String),
    DeadSlot,
}

impl Roundtrip {
    /// The journal form: a tag, then the reply frame or the garbage label.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Roundtrip::Outcome(outcome) => {
                w.u8(0);
                w.bytes(&Frame::Result { id: 0, outcome: outcome.clone() }.encode());
            }
            Roundtrip::HungKilled => w.u8(1),
            Roundtrip::TransportLost => w.u8(2),
            Roundtrip::Garbage(label) => {
                w.u8(3);
                w.str(label);
            }
            Roundtrip::DeadSlot => w.u8(4),
        }
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Option<Roundtrip> {
        let mut r = WireReader::new(bytes);
        let roundtrip = match r.u8().ok()? {
            0 => match Frame::decode(r.bytes().ok()?).ok()? {
                Frame::Result { outcome, .. } => Roundtrip::Outcome(outcome),
                _ => return None,
            },
            1 => Roundtrip::HungKilled,
            2 => Roundtrip::TransportLost,
            3 => Roundtrip::Garbage(r.str().ok()?),
            4 => Roundtrip::DeadSlot,
            _ => return None,
        };
        r.finish().ok()?;
        Some(roundtrip)
    }
}

/// A pooled out-of-process evaluator over the `NAUTPROC` protocol.
///
/// See the [module docs](self) for the failure mapping and the stash
/// mechanism that keeps backend accounting identical to in-process runs.
pub struct SubprocessEvaluator<'a> {
    score: &'a dyn FitnessFn,
    observer: &'a dyn SearchObserver,
    journal: Option<&'a Journal>,
    config: SubprocessConfig,
    expect: Expectation,
    slots: Vec<Mutex<Slot>>,
    spawned: AtomicU64,
    killed: AtomicU64,
    respawned: AtomicU64,
    protocol_errors: AtomicU64,
    transport_retries: AtomicU64,
}

impl std::fmt::Debug for SubprocessEvaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubprocessEvaluator")
            .field("config", &self.config)
            .field("expect", &self.expect)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<'a> SubprocessEvaluator<'a> {
    /// Spawns the warm-child pool and validates every handshake against
    /// `model` (name, parameter count, metric arity).
    ///
    /// Every child is launched before any handshake is awaited, so the
    /// children start up concurrently. The `Hello`s are then taken in
    /// slot order against one deadline, the launch time plus the
    /// configured handshake timeout; `ChildSpawned` telemetry and the
    /// `spawned` counter follow that slot order.
    ///
    /// `score` is the scoring path re-entered after each successful
    /// round-trip (normally the engine's query-over-runner fitness over a
    /// [`StashModel`]); `observer` receives child lifecycle telemetry.
    ///
    /// # Errors
    ///
    /// Fails if any child cannot be launched or its handshake disagrees
    /// with `model`. The error names the lowest failing slot, and every
    /// child launched so far is killed and reaped before it returns.
    pub fn spawn(
        config: SubprocessConfig,
        model: &dyn CostModel,
        score: &'a dyn FitnessFn,
        observer: &'a dyn SearchObserver,
    ) -> Result<SubprocessEvaluator<'a>, ProcError> {
        let expect = Expectation {
            model: model.name().to_owned(),
            gene_len: model.space().num_params() as u32,
            metric_len: model.catalog().len() as u32,
        };
        let mut eval = SubprocessEvaluator {
            score,
            observer,
            journal: None,
            config,
            expect,
            slots: Vec::new(),
            spawned: AtomicU64::new(0),
            killed: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            transport_retries: AtomicU64::new(0),
        };
        let deadline = eval.handshake_deadline();
        let mut launched = Vec::with_capacity(eval.config.pool_size());
        for slot in 0..eval.config.pool_size() {
            match eval.launch(slot) {
                Ok(conn) => launched.push(conn),
                Err(e) => {
                    kill_all(launched);
                    return Err(e);
                }
            }
        }
        let mut ready = Vec::with_capacity(launched.len());
        let mut launched = launched.into_iter().enumerate();
        while let Some((slot, conn)) = launched.next() {
            match eval.handshake(slot, conn, deadline) {
                Ok(conn) => {
                    ready.push(conn);
                    eval.spawned.fetch_add(1, Ordering::Relaxed);
                    eval.emit(|| SearchEvent::ChildSpawned { slot: slot as u32 });
                }
                Err(e) => {
                    kill_all(ready.into_iter().chain(launched.map(|(_, conn)| conn)));
                    return Err(e);
                }
            }
        }
        eval.slots = ready
            .into_iter()
            .map(|conn| Mutex::new(Slot { conn: Some(conn), dead: false, failures: 0, next_id: 0 }))
            .collect();
        Ok(eval)
    }

    /// Journals every round trip's outcome in `journal`, keyed by genome
    /// and attempt, and answers from it the ones an earlier incarnation
    /// recorded, without a request (see `nautilus_ga::checkpoint`). A
    /// journaled metrics or infeasible reply is still charged through the
    /// scoring path, so job accounting and telemetry are rebuilt.
    #[must_use]
    pub fn with_journal(mut self, journal: &'a Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Current lifecycle counters.
    #[must_use]
    pub fn stats(&self) -> SubprocessStats {
        SubprocessStats {
            spawned: self.spawned.load(Ordering::Relaxed),
            killed: self.killed.load(Ordering::Relaxed),
            respawned: self.respawned.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            transport_retries: self.transport_retries.load(Ordering::Relaxed),
        }
    }

    fn emit(&self, event: impl FnOnce() -> SearchEvent) {
        if self.observer.enabled() {
            self.observer.on_event(&event());
        }
    }

    /// The handshake deadline of children launched now; `None` when the
    /// configured timeout is too large to add to the clock.
    fn handshake_deadline(&self) -> Option<Instant> {
        Instant::now().checked_add(self.config.handshake_timeout)
    }

    /// Launches one child and starts the thread that reads its frames.
    fn launch(&self, slot: usize) -> Result<Conn, ProcError> {
        let mut child = Command::new(&self.config.program)
            .args(&self.config.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| ProcError::Spawn { slot, reason: e.to_string() })?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || loop {
            match Frame::read_from(&mut stdout) {
                Ok(frame) => {
                    if tx.send(Ok(frame)).is_err() {
                        // Parent dropped the slot: drain to EOF so the
                        // child never blocks on a full stdout pipe.
                        let mut sink = Vec::new();
                        let _ = stdout.read_to_end(&mut sink);
                        return;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        });
        Ok(Conn { child, stdin, rx })
    }

    /// Consumes a launched child's `Hello`, waiting until `deadline`
    /// (forever if `None`). A child that fails is killed and reaped.
    fn handshake(
        &self,
        slot: usize,
        conn: Conn,
        deadline: Option<Instant>,
    ) -> Result<Conn, ProcError> {
        let wait = deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
        let reason = match conn.rx.recv_timeout(wait) {
            Ok(Ok(Frame::Hello { model, gene_len, metric_len })) => {
                let got = Expectation { model, gene_len, metric_len };
                if got == self.expect {
                    return Ok(conn);
                }
                format!("tool identifies as {got:?}, expected {:?}", self.expect)
            }
            Ok(Ok(other)) => format!("expected Hello, got {other:?}"),
            Ok(Err(e)) => format!("handshake failed: {e}"),
            Err(_) => "handshake timed out".to_owned(),
        };
        kill_all([conn]);
        Err(ProcError::Handshake { slot, reason })
    }

    /// Reaps (or kills) the slot's child and eagerly respawns it.
    ///
    /// Runs while the triggering request holds the slot lock, so the
    /// kill/respawn telemetry lands at that request's deterministic
    /// position in the event stream.
    fn replace_child(&self, idx: usize, slot: &mut Slot, reason: &'static str) {
        if let Some(mut conn) = slot.conn.take() {
            let _ = conn.child.kill();
            let _ = conn.child.wait();
            self.killed.fetch_add(1, Ordering::Relaxed);
            self.emit(|| SearchEvent::ChildKilled { slot: idx as u32, reason: reason.to_owned() });
        }
        slot.failures = slot.failures.saturating_add(1);
        let backoff_ms = (BACKOFF_BASE_MS << (slot.failures - 1).min(16)).min(BACKOFF_CAP_MS);
        std::thread::sleep(Duration::from_millis(backoff_ms));
        let deadline = self.handshake_deadline();
        match self.launch(idx).and_then(|conn| self.handshake(idx, conn, deadline)) {
            Ok(conn) => {
                slot.conn = Some(conn);
                self.respawned.fetch_add(1, Ordering::Relaxed);
                self.emit(|| SearchEvent::ChildRespawned { slot: idx as u32, backoff_ms });
            }
            Err(_) => {
                slot.dead = true;
                self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                self.emit(|| SearchEvent::ChildProtocolError {
                    slot: idx as u32,
                    detail: "respawn_failed".to_owned(),
                });
            }
        }
    }

    /// One evaluation round-trip, including transparent transport
    /// retries and all kill/respawn bookkeeping.
    fn roundtrip(&self, genome: &Genome, attempt: u32, lane: Option<u64>) -> Roundtrip {
        // A first attempt with a lane goes by the lane, anything else by
        // the genome's hash (module docs, Routing).
        let key = match lane {
            Some(lane) if attempt == 1 => lane,
            _ => genome.stable_hash(ROUTE_SALT),
        };
        let idx = (key % self.slots.len() as u64) as usize;
        let mut slot = match self.slots[idx].lock() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        let max_sends = u64::from(self.config.transport_retries) + 1;
        let mut sends = 0u64;
        while sends < max_sends {
            if slot.dead {
                return Roundtrip::DeadSlot;
            }
            if slot.conn.is_none() {
                self.replace_child(idx, &mut slot, "exited");
                continue;
            }
            sends += 1;
            slot.next_id += 1;
            let id = slot.next_id;
            let request = Frame::Eval { id, attempt, genes: genome.genes().to_vec() };
            let conn = slot.conn.as_mut().expect("live connection");
            if request.write_to(&mut conn.stdin).is_err() {
                // EPIPE: the child is gone; retry on a fresh one.
                self.transport_retries.fetch_add(1, Ordering::Relaxed);
                self.replace_child(idx, &mut slot, "exited");
                continue;
            }
            match conn.rx.recv_timeout(self.config.io_timeout) {
                Ok(Ok(Frame::Result { id: reply_id, outcome })) if reply_id == id => {
                    if matches!(outcome, WireOutcome::Fault { dying: true, .. }) {
                        // Dying gasp: the reply is good but the child is
                        // exiting right now. Replace it before releasing
                        // the slot.
                        self.replace_child(idx, &mut slot, "exited");
                    } else {
                        slot.failures = 0;
                    }
                    return Roundtrip::Outcome(outcome);
                }
                Ok(Ok(_)) => {
                    self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    self.emit(|| SearchEvent::ChildProtocolError {
                        slot: idx as u32,
                        detail: "unexpected_frame".to_owned(),
                    });
                    self.replace_child(idx, &mut slot, "protocol_error");
                    return Roundtrip::Garbage("unexpected_frame".to_owned());
                }
                Ok(Err(e)) => match e {
                    ProtoError::CleanEof | ProtoError::Truncated | ProtoError::Io(_) => {
                        // Died without replying (SIGKILL, crash, clean
                        // exit): transparently retry on a fresh child.
                        self.transport_retries.fetch_add(1, Ordering::Relaxed);
                        self.replace_child(idx, &mut slot, "exited");
                        continue;
                    }
                    garbage => {
                        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        let label = garbage.label();
                        self.emit(|| SearchEvent::ChildProtocolError {
                            slot: idx as u32,
                            detail: label.to_owned(),
                        });
                        self.replace_child(idx, &mut slot, "protocol_error");
                        return Roundtrip::Garbage(label.to_owned());
                    }
                },
                Err(RecvTimeoutError::Timeout) => {
                    self.replace_child(idx, &mut slot, "io_timeout");
                    return Roundtrip::HungKilled;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.transport_retries.fetch_add(1, Ordering::Relaxed);
                    self.replace_child(idx, &mut slot, "exited");
                    continue;
                }
            }
        }
        Roundtrip::TransportLost
    }

    /// Re-enters the scoring path with the child's reply stashed, so the
    /// job runner charges and caches exactly as in-process.
    fn charge(&self, genome: &Genome, values: Option<Vec<f64>>, tool_secs: u64) -> Option<f64> {
        STASH.with(|cell| {
            *cell.borrow_mut() = Some(Stash { hash: genome.stable_hash(0), tool_secs, values });
        });
        let value = self.score.fitness(genome);
        STASH.with(|cell| cell.borrow_mut().take());
        value
    }

    /// One round trip, answered from the journal when an earlier
    /// incarnation recorded it, and recorded there otherwise.
    fn exchange(&self, genome: &Genome, attempt: u32, lane: Option<u64>) -> Roundtrip {
        let Some(journal) = self.journal else { return self.roundtrip(genome, attempt, lane) };
        if let Some(replayed) = journal.reply(genome, attempt).and_then(Roundtrip::from_bytes) {
            return replayed;
        }
        let live = self.roundtrip(genome, attempt, lane);
        journal.record(genome, attempt, live.to_bytes());
        live
    }

    /// The full attempt: round-trip, charge, failure mapping.
    fn run_attempt(&self, genome: &Genome, attempt: u32, lane: Option<u64>) -> AttemptOutcome {
        match self.exchange(genome, attempt, lane) {
            Roundtrip::Outcome(WireOutcome::Metrics { garbled, tool_secs, cost_ms, values }) => {
                if values.len() != self.expect.metric_len as usize {
                    return AttemptOutcome::Finished {
                        result: Err(EvalFailure::Corrupted(format!(
                            "subprocess replied {} metric values for a {}-metric catalog",
                            values.len(),
                            self.expect.metric_len
                        ))),
                        cost_ms,
                    };
                }
                let value = self.charge(genome, Some(values), tool_secs);
                let result = if garbled { Ok(Some(f64::NAN)) } else { Ok(value) };
                AttemptOutcome::Finished { result, cost_ms }
            }
            Roundtrip::Outcome(WireOutcome::Infeasible { cost_ms }) => {
                let value = self.charge(genome, None, 0);
                debug_assert!(value.is_none(), "infeasible reply scored feasible");
                AttemptOutcome::Finished { result: Ok(value), cost_ms }
            }
            Roundtrip::Outcome(WireOutcome::Fault {
                kind,
                elapsed_ms,
                limit_ms,
                message,
                cost_ms,
                dying: _,
            }) => {
                let failure = match kind {
                    WIRE_FAULT_TRANSIENT => EvalFailure::Transient(message),
                    WIRE_FAULT_TIMEOUT => EvalFailure::Timeout { elapsed_ms, limit_ms },
                    WIRE_FAULT_PERSISTENT => EvalFailure::Persistent(message),
                    other => EvalFailure::Corrupted(format!("unknown wire fault kind {other}")),
                };
                AttemptOutcome::Finished { result: Err(failure), cost_ms }
            }
            Roundtrip::HungKilled => AttemptOutcome::Hang,
            Roundtrip::TransportLost => AttemptOutcome::Finished {
                result: Err(EvalFailure::Transient("subprocess died without replying".to_owned())),
                cost_ms: 0,
            },
            Roundtrip::Garbage(label) => AttemptOutcome::Finished {
                result: Err(EvalFailure::Corrupted(format!("subprocess protocol error: {label}"))),
                cost_ms: 0,
            },
            Roundtrip::DeadSlot => AttemptOutcome::Finished {
                result: Err(EvalFailure::Persistent("subprocess worker slot is dead".to_owned())),
                cost_ms: 0,
            },
        }
    }
}

impl FallibleEvaluator for SubprocessEvaluator<'_> {
    fn try_fitness(
        &self,
        genome: &Genome,
        attempt: u32,
        lane: Option<u64>,
    ) -> Result<Option<f64>, EvalFailure> {
        match self.run_attempt(genome, attempt, lane) {
            AttemptOutcome::Finished { result, .. } => result,
            AttemptOutcome::Hang => {
                // Unsupervised view of a hung child: the I/O deadline is
                // the only clock, so the hang degrades to a timeout —
                // mirroring how an unsupervised fault plan degrades
                // injected hangs.
                let limit_ms = self.config.io_timeout.as_millis() as u64;
                Err(EvalFailure::Timeout { elapsed_ms: limit_ms + 1, limit_ms })
            }
        }
    }
}

impl SupervisableEvaluator for SubprocessEvaluator<'_> {
    fn attempt(&self, genome: &Genome, attempt: u32) -> AttemptOutcome {
        self.run_attempt(genome, attempt, None)
    }
}

/// Kills every child first, then reaps them all.
fn kill_all(conns: impl IntoIterator<Item = Conn>) {
    let mut children: Vec<Child> = conns.into_iter().map(|conn| conn.child).collect();
    for child in &mut children {
        let _ = child.kill();
    }
    for child in &mut children {
        let _ = child.wait();
    }
}

impl Drop for SubprocessEvaluator<'_> {
    /// Writes `Shutdown` to every child and closes its stdin, then reaps
    /// each child as soon as its stdout reaches EOF. Children still open
    /// when the shared `SHUTDOWN_GRACE` (200 ms) runs out are killed, so a
    /// wedged pool costs one grace period in total. Shutdown kills are
    /// uncounted.
    fn drop(&mut self) {
        let mut pending = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            if let Some(Conn { child, mut stdin, rx }) = slot.conn.take() {
                let _ = Frame::Shutdown.write_to(&mut stdin);
                pending.push((child, rx));
            }
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for (mut child, rx) in pending {
            // No request is in flight, so the next message is the reader's
            // EOF report; a stray frame from a misbehaving child also ends
            // the wait.
            let _ = rx.recv_timeout(deadline.saturating_duration_since(Instant::now()));
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmodel::TestModel;
    use nautilus_ga::{Direction, FnFitness};
    use nautilus_obs::{InMemorySink, NoopObserver};

    fn score() -> FnFitness<impl Fn(&Genome) -> Option<f64> + Send + Sync> {
        FnFitness::new(Direction::Minimize, |_g: &Genome| Some(1.0))
    }

    /// A per-test temp path.
    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nautproc-{tag}-{}", std::process::id()))
    }

    /// Writes [`TestModel`]'s valid `Hello` to a per-test temp file.
    fn hello_file(tag: &str) -> PathBuf {
        let model = TestModel::new();
        let hello = Frame::Hello {
            model: model.name().into(),
            gene_len: model.space().num_params() as u32,
            metric_len: model.catalog().len() as u32,
        };
        let path = temp(tag);
        std::fs::write(&path, hello.encode()).unwrap();
        path
    }

    /// The pids that children appended to `path` (`echo $$ >> path`),
    /// after removing the file.
    fn take_pids(path: &std::path::Path) -> Vec<u32> {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        std::fs::remove_file(path).ok();
        text.lines().map(|l| l.trim().parse().expect("a pid per line")).collect()
    }

    fn assert_reaped(pids: &[u32]) {
        for pid in pids {
            assert!(
                !std::path::Path::new(&format!("/proc/{pid}")).exists(),
                "child {pid} outlived its pool"
            );
        }
    }

    #[test]
    fn unspawnable_program_is_a_spawn_error() {
        let model = TestModel::new();
        let score = score();
        let err = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/nonexistent/mock-synth-binary"),
            &model,
            &score,
            &NoopObserver,
        )
        .expect_err("spawned a nonexistent program");
        assert!(matches!(err, ProcError::Spawn { slot: 0, .. }), "{err:?}");
    }

    #[test]
    fn immediate_exit_fails_the_handshake() {
        let model = TestModel::new();
        let score = score();
        let err = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh").args(["-c", "exit 0"]),
            &model,
            &score,
            &NoopObserver,
        )
        .expect_err("handshake with a dead child succeeded");
        assert!(matches!(err, ProcError::Handshake { slot: 0, .. }), "{err:?}");
    }

    #[test]
    fn garbage_handshake_is_rejected() {
        let model = TestModel::new();
        let score = score();
        let err = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh")
                .args(["-c", "printf 'XXXXXXXXXXXXXXXXXXXXXXXX'; sleep 5"]),
            &model,
            &score,
            &NoopObserver,
        )
        .expect_err("garbage handshake accepted");
        match err {
            ProcError::Handshake { slot: 0, reason } => {
                assert!(reason.contains("bad magic"), "{reason}");
            }
            other => panic!("expected handshake failure, got {other:?}"),
        }
    }

    #[test]
    fn silent_child_times_out_the_handshake() {
        let model = TestModel::new();
        let score = score();
        let err = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh")
                .args(["-c", "sleep 30"])
                .with_io_timeout(Duration::from_millis(200)),
            &model,
            &score,
            &NoopObserver,
        )
        .expect_err("silent handshake accepted");
        match err {
            ProcError::Handshake { slot: 0, reason } => {
                assert!(reason.contains("timed out"), "{reason}");
            }
            other => panic!("expected handshake timeout, got {other:?}"),
        }
    }

    #[test]
    fn wrong_tool_identity_is_rejected() {
        // A child that speaks the protocol but identifies as a different
        // model: feed it a pre-encoded Hello via a temp file.
        let hello = Frame::Hello { model: "impostor".into(), gene_len: 2, metric_len: 2 };
        let path = std::env::temp_dir().join(format!("nautproc-hello-{}.bin", std::process::id()));
        std::fs::write(&path, hello.encode()).unwrap();
        let model = TestModel::new();
        let score = score();
        let err = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh")
                .args(["-c", &format!("cat {}; sleep 5", path.display())]),
            &model,
            &score,
            &NoopObserver,
        )
        .expect_err("impostor tool accepted");
        std::fs::remove_file(&path).ok();
        match err {
            ProcError::Handshake { slot: 0, reason } => {
                assert!(reason.contains("impostor"), "{reason}");
            }
            other => panic!("expected identity mismatch, got {other:?}"),
        }
    }

    #[test]
    fn hello_with_wrong_version_is_a_clean_protocol_error() {
        // A tool built against a future protocol: its Hello is structurally
        // fine but carries version 99. The version field is vetted before
        // the checksum, so no CRC fixup is needed — and the reader must
        // reject it outright instead of guessing at the layout.
        let mut bytes =
            Frame::Hello { model: "proc-test-bowl".into(), gene_len: 2, metric_len: 2 }.encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let path =
            std::env::temp_dir().join(format!("nautproc-hello-v99-{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let model = TestModel::new();
        let score = score();
        let err = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh")
                .args(["-c", &format!("cat {}; sleep 5", path.display())]),
            &model,
            &score,
            &NoopObserver,
        )
        .expect_err("future-versioned tool accepted");
        std::fs::remove_file(&path).ok();
        match err {
            ProcError::Handshake { slot: 0, reason } => {
                assert!(reason.contains("unsupported protocol version 99"), "{reason}");
            }
            other => panic!("expected handshake failure, got {other:?}"),
        }
    }

    #[test]
    fn mid_run_version_mismatch_is_killed_and_respawned_without_hanging() {
        // The child handshakes correctly, then replies to the first eval
        // with a version-99 frame. That must surface as one clean protocol
        // error — accounted, child killed and respawned — never a hang or
        // a panic.
        let hello =
            Frame::Hello { model: "proc-test-bowl".into(), gene_len: 2, metric_len: 2 }.encode();
        let mut bad =
            Frame::Result { id: 1, outcome: WireOutcome::Infeasible { cost_ms: 0 } }.encode();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        let mut replay = hello;
        replay.extend_from_slice(&bad);
        let path =
            std::env::temp_dir().join(format!("nautproc-midrun-v99-{}.bin", std::process::id()));
        std::fs::write(&path, &replay).unwrap();

        let model = TestModel::new();
        let score = score();
        let evaluator = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh")
                .args(["-c", &format!("cat {}; sleep 5", path.display())]),
            &model,
            &score,
            &NoopObserver,
        )
        .expect("handshake itself is valid");

        let err = evaluator
            .try_fitness(&Genome::from_genes(vec![1, 2]), 0, None)
            .expect_err("version-99 reply scored");
        match err {
            EvalFailure::Corrupted(reason) => {
                assert!(reason.contains("unsupported_version"), "{reason}");
            }
            other => panic!("expected a corrupted-reply failure, got {other:?}"),
        }

        let stats = evaluator.stats();
        assert_eq!(stats.protocol_errors, 1, "{stats:?}");
        assert_eq!(stats.killed, 1, "{stats:?}");
        assert_eq!(stats.respawned, 1, "{stats:?}");
        assert!(stats.reconciles(), "{stats:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slow_starting_children_come_up_concurrently() {
        // Every child spends 300 ms starting up, six times the I/O
        // deadline: only the handshake deadline may govern that wait, and
        // the four start-ups must overlap (one after another they take at
        // least 1.2 s).
        let hello = hello_file("slow-start");
        let model = TestModel::new();
        let score = score();
        let sink = InMemorySink::new();
        let start = Instant::now();
        let pool = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh")
                .args(["-c", &format!("sleep 0.3; cat {}; exec sleep 5", hello.display())])
                .with_pool_size(4)
                .with_io_timeout(Duration::from_millis(50)),
            &model,
            &score,
            &sink,
        )
        .expect("slow but valid handshakes");
        let took = start.elapsed();
        std::fs::remove_file(&hello).ok();
        assert!(took < Duration::from_millis(900), "four slow children took {took:?} to come up");
        assert_eq!(pool.stats().spawned, 4);
        let spawned: Vec<SearchEvent> =
            (0..4).map(|slot| SearchEvent::ChildSpawned { slot }).collect();
        assert_eq!(sink.events(), spawned, "spawn telemetry must stay in slot order");
    }

    #[test]
    fn failed_bring_up_kills_and_reaps_every_launched_child() {
        let pid_file = temp("silent-pids");
        let model = TestModel::new();
        let score = score();
        let start = Instant::now();
        let err = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh")
                .args(["-c", &format!("echo $$ >> {}; exec sleep 30", pid_file.display())])
                .with_pool_size(3)
                .with_handshake_timeout(Duration::from_millis(200)),
            &model,
            &score,
            &NoopObserver,
        )
        .expect_err("a silent pool came up");
        let took = start.elapsed();
        assert!(matches!(err, ProcError::Handshake { slot: 0, .. }), "{err:?}");
        assert!(took < Duration::from_millis(500), "a failed bring-up took {took:?}");
        let pids = take_pids(&pid_file);
        assert_eq!(pids.len(), 3, "every child starts before the deadline: {pids:?}");
        assert_reaped(&pids);
    }

    #[test]
    fn dropping_a_wedged_pool_costs_one_grace_period() {
        // Children that never read their Shutdown keep stdout open until
        // killed; the pool must wait for them together, not in turn.
        let hello = hello_file("wedged-hello");
        let pid_file = temp("wedged-pids");
        let model = TestModel::new();
        let score = score();
        let pool = SubprocessEvaluator::spawn(
            SubprocessConfig::new("/bin/sh")
                .args([
                    "-c",
                    &format!(
                        "echo $$ >> {}; cat {}; exec sleep 5",
                        pid_file.display(),
                        hello.display()
                    ),
                ])
                .with_pool_size(4),
            &model,
            &score,
            &NoopObserver,
        )
        .expect("valid handshakes");
        std::fs::remove_file(&hello).ok();
        let start = Instant::now();
        drop(pool);
        let took = start.elapsed();
        assert!(took < Duration::from_millis(600), "dropping four wedged children took {took:?}");
        let pids = take_pids(&pid_file);
        assert_eq!(pids.len(), 4, "{pids:?}");
        assert_reaped(&pids);
    }

    #[test]
    fn config_builder_accumulates() {
        let cfg = SubprocessConfig::new("tool")
            .arg("--model")
            .args(["router", "--plan-seed", "7"])
            .with_pool_size(0)
            .with_io_timeout(Duration::from_millis(123))
            .with_handshake_timeout(Duration::from_secs(2))
            .with_transport_retries(5);
        assert_eq!(cfg.pool_size(), 1, "pool size clamps to 1");
        assert_eq!(cfg.io_timeout(), Duration::from_millis(123));
        assert_eq!(cfg.handshake_timeout(), Duration::from_secs(2));
        assert_eq!(
            SubprocessConfig::new("tool")
                .with_io_timeout(Duration::from_millis(1))
                .handshake_timeout(),
            Duration::from_secs(30),
            "tightening the per-request deadline must not tighten the handshake"
        );
        assert_eq!(cfg.program(), std::path::Path::new("tool"));
    }

    #[test]
    fn stats_reconcile_when_untouched() {
        let stats = SubprocessStats::default();
        assert!(stats.reconciles());
        let skewed = SubprocessStats { killed: 2, respawned: 1, ..SubprocessStats::default() };
        assert!(!skewed.reconciles());
    }
}
