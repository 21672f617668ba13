//! Job descriptions, lifecycle phases, and their on-disk records.
//!
//! Everything a daemon restart must reconstruct lives under the job's own
//! directory (`<state>/jobs/<id>/`) as CRC-trailed `NAUTSRVC` frames —
//! the same records that travel the wire:
//!
//! * `spec` — the submitted [`JobSpec`], encoded as its `Submit` frame.
//! * `result` — the terminal [`crate::proto::Reply::Result`] frame, written
//!   atomically once the job reaches `Done` / `Failed` / `Cancelled`.
//! * `cancel` — empty marker recording a user cancel request, so a cancel
//!   that raced a daemon crash is honoured after restart.
//! * `ckpt/` — the engine's `NAUTCKPT` journal of tool replies.
//!
//! Next to them sits `events-live.jsonl`, the raw event stream of the
//! incarnation that ran the job last ([`JobDir::event_log`]). It is not
//! a record: the result carries the normalized stream, and each
//! incarnation starts the log over.
//!
//! A job with a `spec` but no `result` is *orphaned* work: the recovery
//! scan re-adopts it, and replaying the journal guarantees the resumed
//! search ends bit-for-bit where an uninterrupted one would.

use std::fs;
use std::path::{Path, PathBuf};

use nautilus_ga::DurableIo;
use nautilus_obs::{WireError, WireReader, WireWriter};

use crate::proto::{Frame, ProtoError, Reply, Request};

/// Full description of one search job, as submitted by a client.
///
/// The daemon derives the query, hint set, and GA settings from the model
/// registry ([`crate::registry`]) — a spec names *what* to search and how
/// much budget it gets, never raw engine configuration, so two tenants
/// submitting the same spec always run the same search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Tenant identity the submission is accounted against.
    pub tenant: String,
    /// Registry model name (`bowl`, `ridge`, `router`, ...).
    pub model: String,
    /// Search strategy: `baseline`, `guided-weak`, or `guided-strong`.
    pub strategy: String,
    /// GA seed; identical specs with identical seeds reproduce exactly.
    pub seed: u64,
    /// Generations to run.
    pub generations: u32,
    /// Evaluation worker threads (0 = engine default). Never affects
    /// results, only wall-clock.
    pub eval_workers: u32,
    /// Distinct-evaluation budget; 0 = unlimited (subject to quota).
    pub max_evals: u64,
    /// Wall-clock deadline in milliseconds; 0 = none.
    pub deadline_ms: u64,
    /// Artificial per-evaluation latency in microseconds — stands in for
    /// a slow EDA tool so interruption tests can land mid-run.
    pub eval_delay_us: u64,
    /// Client-supplied idempotency key (empty = none). A resubmission
    /// carrying the same `(tenant, dedupe_key)` as an already-accepted
    /// job returns the original job id instead of enqueueing a
    /// duplicate — so a client that lost a `Submitted` reply can safely
    /// retry. Persisted in the spec record, so dedupe survives daemon
    /// restarts.
    pub dedupe_key: String,
}

impl JobSpec {
    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        w.str(&self.tenant);
        w.str(&self.model);
        w.str(&self.strategy);
        w.u64(self.seed);
        w.u32(self.generations);
        w.u32(self.eval_workers);
        w.u64(self.max_evals);
        w.u64(self.deadline_ms);
        w.u64(self.eval_delay_us);
        w.str(&self.dedupe_key);
    }

    pub(crate) fn decode_from(r: &mut WireReader<'_>) -> Result<JobSpec, WireError> {
        Ok(JobSpec {
            tenant: r.str()?,
            model: r.str()?,
            strategy: r.str()?,
            seed: r.u64()?,
            generations: r.u32()?,
            eval_workers: r.u32()?,
            max_evals: r.u64()?,
            deadline_ms: r.u64()?,
            eval_delay_us: r.u64()?,
            dedupe_key: r.str()?,
        })
    }
}

/// Lifecycle phase of a job, as reported over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted and waiting for a scheduler slot.
    Queued,
    /// Executing on a slot right now.
    Running,
    /// Finished successfully; artifacts are available.
    Done,
    /// Finished with an error (model fault, panic, checkpoint failure).
    Failed,
    /// Terminated by a user cancel request.
    Cancelled,
}

impl JobPhase {
    /// Stable one-byte wire code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            JobPhase::Queued => 0,
            JobPhase::Running => 1,
            JobPhase::Done => 2,
            JobPhase::Failed => 3,
            JobPhase::Cancelled => 4,
        }
    }

    /// Inverse of [`JobPhase::code`].
    pub(crate) fn from_code(code: u8) -> Result<JobPhase, WireError> {
        Ok(match code {
            0 => JobPhase::Queued,
            1 => JobPhase::Running,
            2 => JobPhase::Done,
            3 => JobPhase::Failed,
            4 => JobPhase::Cancelled,
            other => return Err(WireError(format!("unknown job phase {other}"))),
        })
    }

    /// Stable lowercase label used in status output and telemetry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// True for phases no scheduler will ever move a job out of.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled)
    }
}

/// On-disk layout of one job's directory.
#[derive(Debug, Clone)]
pub struct JobDir {
    root: PathBuf,
    io: DurableIo,
}

impl JobDir {
    /// Directory for job `id` under `jobs_root`, created on demand.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(jobs_root: &Path, id: u64) -> std::io::Result<JobDir> {
        let root = jobs_root.join(format!("{id:08}"));
        fs::create_dir_all(&root)?;
        Ok(JobDir { root, io: DurableIo::real() })
    }

    /// Opens an existing job directory without creating anything.
    #[must_use]
    pub fn open(root: PathBuf) -> JobDir {
        JobDir { root, io: DurableIo::real() }
    }

    /// Routes this job's durable writes (spec, result, cancel marker,
    /// checkpoints) through `io` — the fault-injection / census handle of
    /// [`nautilus_ga::durable`].
    #[must_use]
    pub fn with_io(mut self, io: DurableIo) -> JobDir {
        self.io = io;
        self
    }

    /// The durable-write handle this job was opened with.
    #[must_use]
    pub fn io(&self) -> &DurableIo {
        &self.io
    }

    /// Sweeps residue of interrupted atomic writes (stray dot-`.tmp`
    /// files) out of the job directory; returns how many were removed.
    pub fn clean_stray_tmps(&self) -> usize {
        DurableIo::clean_stray_tmps(&self.root).len()
    }

    /// The job directory itself.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The engine's checkpoint directory (its journal) for this job.
    #[must_use]
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.root.join("ckpt")
    }

    /// Persists the spec record (atomically; survives any crash).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed write leaves no partial file.
    pub fn write_spec(&self, spec: &JobSpec) -> std::io::Result<()> {
        let record = Frame::Request(Request::Submit { spec: spec.clone() }).encode();
        self.io.write_atomic(&self.root, "spec", &record, "job.spec")
    }

    /// Loads and validates the spec record.
    ///
    /// # Errors
    ///
    /// I/O failures plus every framing/CRC violation from decode.
    pub fn read_spec(&self) -> Result<JobSpec, ProtoError> {
        let record = fs::read(self.root.join("spec")).map_err(ProtoError::Io)?;
        match Frame::decode(&record)? {
            Frame::Request(Request::Submit { spec }) => Ok(spec),
            other => Err(ProtoError::Malformed(format!("spec file holds {other:?}"))),
        }
    }

    /// Persists the terminal result reply (atomically). Presence of this
    /// record is what marks a job finished across restarts.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed write leaves no partial file.
    pub fn write_result(&self, reply: &Reply) -> std::io::Result<()> {
        let record = Frame::Reply(reply.clone()).encode();
        self.io.write_atomic(&self.root, "result", &record, "job.result")
    }

    /// Loads the terminal result reply, if the job has one.
    ///
    /// # Errors
    ///
    /// I/O failures plus every framing/CRC violation from decode.
    pub fn read_result(&self) -> Result<Option<Reply>, ProtoError> {
        let path = self.root.join("result");
        if !path.exists() {
            return Ok(None);
        }
        let record = fs::read(path).map_err(ProtoError::Io)?;
        match Frame::decode(&record)? {
            Frame::Reply(reply @ Reply::Result { .. }) => Ok(Some(reply)),
            other => Err(ProtoError::Malformed(format!("result file holds {other:?}"))),
        }
    }

    /// Records a user cancel request durably.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn mark_cancel_requested(&self) -> std::io::Result<()> {
        self.io.write_atomic(&self.root, "cancel", b"", "job.cancel")
    }

    /// True when a user cancel was recorded (possibly by a previous
    /// daemon incarnation).
    #[must_use]
    pub fn cancel_requested(&self) -> bool {
        self.root.join("cancel").exists()
    }

    /// The job's live event log: the raw stream of the incarnation that
    /// ran the job last, one line per event, for operators to tail.
    #[must_use]
    pub fn event_log(&self) -> PathBuf {
        self.root.join("events-live.jsonl")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nautilus-serve-job-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn job_dir_records_round_trip() {
        let root = tempdir("roundtrip");
        let dir = JobDir::create(&root, 3).unwrap();
        assert!(dir.path().ends_with("00000003"));

        let spec = JobSpec {
            tenant: "t".into(),
            model: "bowl".into(),
            strategy: "baseline".into(),
            seed: 1,
            generations: 4,
            eval_workers: 1,
            max_evals: 0,
            deadline_ms: 0,
            eval_delay_us: 0,
            dedupe_key: String::new(),
        };
        dir.write_spec(&spec).unwrap();
        assert_eq!(dir.read_spec().unwrap(), spec);

        assert!(dir.read_result().unwrap().is_none());
        let reply = Reply::Result {
            job: 3,
            phase: JobPhase::Done,
            outcome_json: "{}".into(),
            report_json: "{}".into(),
            events_jsonl: String::new(),
        };
        dir.write_result(&reply).unwrap();
        assert_eq!(dir.read_result().unwrap(), Some(reply));

        assert!(!dir.cancel_requested());
        dir.mark_cancel_requested().unwrap();
        assert!(dir.cancel_requested());

        // perfbench and check.sh find the live log by `events-*.jsonl`.
        let log = dir.event_log();
        assert_eq!(log.parent(), Some(dir.path()));
        let name = log.file_name().unwrap().to_str().unwrap();
        assert!(name.starts_with("events-") && name.ends_with(".jsonl"), "{name}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_spec_is_rejected_not_misread() {
        let root = tempdir("corrupt");
        let dir = JobDir::create(&root, 1).unwrap();
        let spec = JobSpec {
            tenant: "t".into(),
            model: "bowl".into(),
            strategy: "baseline".into(),
            seed: 1,
            generations: 4,
            eval_workers: 1,
            max_evals: 0,
            deadline_ms: 0,
            eval_delay_us: 0,
            dedupe_key: String::new(),
        };
        dir.write_spec(&spec).unwrap();
        let path = dir.path().join("spec");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(dir.read_spec().is_err(), "flipped bit must not decode");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn phase_codes_round_trip_and_labels_are_stable() {
        for phase in [
            JobPhase::Queued,
            JobPhase::Running,
            JobPhase::Done,
            JobPhase::Failed,
            JobPhase::Cancelled,
        ] {
            assert_eq!(JobPhase::from_code(phase.code()).unwrap(), phase);
        }
        assert!(JobPhase::from_code(9).is_err());
        assert_eq!(JobPhase::Done.label(), "done");
        assert!(JobPhase::Failed.is_terminal());
        assert!(!JobPhase::Running.is_terminal());
    }
}
