//! nautilus-serve: a supervised, crash-recovering multi-tenant search daemon.
//!
//! This crate turns the in-process Nautilus search engine into a small
//! service. A daemon ([`Daemon`]) listens on localhost, accepts search
//! submissions over a length-prefixed CRC-trailed wire protocol
//! ([`proto`]), schedules them across a fixed pool of worker slots, and
//! persists every job's spec, journal of tool replies, and result under
//! a state directory so that a `SIGKILL` at any instant loses at
//! most the tool calls in flight: the next incarnation re-adopts orphaned
//! jobs and replays their journals, producing byte-identical outcomes.
//!
//! Layers, bottom up:
//!
//! * [`proto`] — the `NAUTSRVC` frame format and request/reply types.
//!   One request, one reply, one connection; the daemon holds no
//!   connection state, which is what makes restarts invisible.
//! * [`job`] — on-disk layout of a job: spec and result stored as the
//!   same CRC-protected wire frames that cross the network, plus the
//!   engine's journal and a live event log.
//! * [`quota`] — per-tenant admission limits and the typed
//!   [`Backpressure`] taxonomy returned on refusal.
//! * [`registry`] — named cost models and strategies, so a persisted
//!   spec resolves to an identical search in every incarnation.
//! * [`runner`] — executes one job over its journal (a run there resumes
//!   or starts), collects its event stream in memory, and mirrors it to
//!   the job's live log line by line.
//! * [`daemon`] — the supervisor: queue, worker slots, per-model circuit
//!   breakers, drain, and crash recovery.
//! * [`client`] — a small blocking client used by `nautilus-cli` and
//!   the integration tests; optional retry/backoff with idempotency
//!   gating ([`ServeClient::with_retries`]).
//!
//! # Hostile environments
//!
//! Every durable write (endpoint file, job specs/results/cancel markers,
//! the journal) goes through a [`nautilus::DurableIo`]
//! handle ([`DaemonConfig::io`]), so the disk-fault battery can fail any
//! single write deterministically and prove the daemon either surfaces a
//! typed error or recovers byte-identically. The service edge sheds
//! overload instead of queueing it: connection caps
//! ([`Backpressure::TooManyConnections`]), per-connection read/write
//! deadlines, bounded accept-error backoff, and dedupe-keyed idempotent
//! submission.

#![forbid(unsafe_code)]

pub mod client;
pub mod daemon;
pub mod job;
pub mod proto;
pub mod quota;
pub mod registry;
pub mod runner;

pub use client::ServeClient;
pub use daemon::{Daemon, DaemonConfig};
pub use job::{JobDir, JobPhase, JobSpec};
pub use proto::{Frame, ProtoError, Reply, Request};
pub use quota::{Backpressure, TenantQuota};
pub use runner::{FaultClass, RunArtifacts, RunFault};
