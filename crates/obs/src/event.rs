//! Typed search-telemetry events and their JSONL schema.
//!
//! Every event serializes to one JSON object with a `"type"` discriminator
//! (snake_case of the variant name); a run's event stream is one event per
//! line (JSONL). The schema is documented field-by-field on each variant
//! and exercised round-trip by the crate's tests.

use crate::json::JsonObj;

/// Which steering mechanism drove one mutation slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintKind {
    /// Unguided uniform redraw (the baseline operator, or a parameter
    /// without any value hint).
    Uniform,
    /// Unguided local step (the `StepMutation` operator).
    Step,
    /// A directional bias hint steered the new value.
    Bias,
    /// A target hint pulled the new value.
    Target,
    /// A value hint exists but the confidence gate fell back to uniform.
    Fallback,
}

impl HintKind {
    /// Stable lowercase label used in the JSON schema.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HintKind::Uniform => "uniform",
            HintKind::Step => "step",
            HintKind::Bias => "bias",
            HintKind::Target => "target",
            HintKind::Fallback => "fallback",
        }
    }

    /// All kinds, in schema order.
    pub const ALL: [HintKind; 5] =
        [HintKind::Uniform, HintKind::Step, HintKind::Bias, HintKind::Target, HintKind::Fallback];
}

impl std::fmt::Display for HintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why one evaluation attempt failed.
///
/// This is the observability-side mirror of the GA crate's `EvalFailure`
/// payload: events carry only the kind so the schema stays flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// A transient backend fault (crashed worker, lost connection); a
    /// retry may succeed.
    Transient,
    /// The attempt exceeded its deadline.
    Timeout,
    /// The backend returned garbage metrics (non-finite values).
    Corrupted,
    /// The backend rejects this design permanently; retrying cannot help.
    Persistent,
}

impl FailureKind {
    /// Stable lowercase label used in the JSON schema.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Transient => "transient",
            FailureKind::Timeout => "timeout",
            FailureKind::Corrupted => "corrupted",
            FailureKind::Persistent => "persistent",
        }
    }

    /// All kinds, in schema order.
    pub const ALL: [FailureKind; 4] = [
        FailureKind::Transient,
        FailureKind::Timeout,
        FailureKind::Corrupted,
        FailureKind::Persistent,
    ];
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Health state of the evaluation backend's circuit breaker.
///
/// This is the observability-side mirror of the GA crate's breaker state
/// machine: `Closed` (normal operation) → `Open` (sustained failures;
/// the engine sheds evaluations and serves the cache only) → `HalfOpen`
/// (probe evaluations test whether the backend recovered) → `Closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Normal operation: every evaluation is admitted.
    Closed,
    /// Tripped: evaluations are shed; only the cache answers lookups.
    Open,
    /// Probing: a limited number of evaluations test the backend.
    HalfOpen,
}

impl HealthState {
    /// Stable lowercase label used in the JSON schema.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Closed => "closed",
            HealthState::Open => "open",
            HealthState::HalfOpen => "half_open",
        }
    }

    /// All states, in schema order.
    pub const ALL: [HealthState; 3] =
        [HealthState::Closed, HealthState::Open, HealthState::HalfOpen];
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured telemetry event emitted during a search run.
///
/// Events are emitted in wall-clock order on the thread executing the run,
/// so a sink may attribute [`SearchEvent::EvalCompleted`] events to the
/// generation opened by the latest [`SearchEvent::GenerationStart`].
#[derive(Debug, Clone, PartialEq)]
pub enum SearchEvent {
    /// A search run began.
    RunStart {
        /// Strategy label ("baseline", "nautilus-strong", ...).
        strategy: String,
        /// The run's RNG seed.
        seed: u64,
        /// Parameter names, in gene order; `param` indices in later events
        /// refer to this list.
        params: Vec<String>,
        /// Population size.
        population: usize,
        /// Generation budget.
        generations: u32,
    },
    /// A generation's scoring phase began.
    GenerationStart {
        /// Zero-based generation number.
        generation: u32,
    },
    /// A generation finished scoring.
    GenerationEnd {
        /// Zero-based generation number.
        generation: u32,
        /// Best raw objective value among feasible members (NaN → null).
        best: f64,
        /// Mean raw objective value over feasible members (NaN → null).
        mean: f64,
        /// Best raw objective value seen so far in the run.
        best_so_far: f64,
        /// Cumulative distinct feasible evaluations.
        distinct_evals: u64,
        /// Cumulative evaluation-cache hits.
        cache_hits: u64,
        /// Cumulative distinct infeasible attempts.
        infeasible: u64,
    },
    /// One evaluation (synthesis-job lookup) completed.
    EvalCompleted {
        /// Whether the result came from the cache.
        cached: bool,
        /// Whether the design point was feasible.
        feasible: bool,
        /// Simulated EDA tool seconds charged (0 for cache hits and
        /// infeasible attempts).
        tool_secs: u64,
    },
    /// A generation's cache misses were evaluated as one parallel batch.
    ///
    /// Emitted by the engine's prefetch, which runs at two or more
    /// workers and under supervision; a one-worker unsupervised run
    /// evaluates every miss inline and emits nothing. Batching never touches the
    /// RNG, so observed and unobserved outcomes stay identical.
    EvalBatch {
        /// Generation whose population was being scored.
        generation: u32,
        /// Number of distinct cache misses evaluated in the batch.
        size: usize,
        /// Worker threads the batch was spread over.
        workers: usize,
    },
    /// A synthesis-job memo lost an insert race: two threads evaluated the
    /// same point concurrently and the second to insert found the entry
    /// already present. The name and its JSONL kind stay as they were so
    /// report consumers see no change.
    CacheShardContended,
    /// One evaluation attempt failed.
    ///
    /// Emitted once per failed attempt, before the engine decides between
    /// retrying and quarantining. Attribution to a generation follows the
    /// [`SearchEvent::EvalCompleted`] convention (latest
    /// [`SearchEvent::GenerationStart`]).
    EvalAttemptFailed {
        /// Why the attempt failed.
        kind: FailureKind,
        /// 1-based attempt number that failed.
        attempt: u32,
        /// Whether the retry policy is allowed to try again for this kind.
        retryable: bool,
    },
    /// The engine scheduled a retry after a failed attempt.
    EvalRetried {
        /// 1-based attempt number that failed and is being retried.
        attempt: u32,
        /// Backoff applied before the next attempt, in nanoseconds.
        backoff_nanos: u64,
    },
    /// A previously failing evaluation succeeded on a retry.
    EvalRecovered {
        /// Failed attempts absorbed before the success.
        failed_attempts: u32,
    },
    /// Retries were exhausted (or the failure was not retryable): the
    /// genome is quarantined with penalized fitness and the generation
    /// proceeds without it.
    GenomeQuarantined {
        /// Total attempts made, all failed.
        attempts: u32,
        /// Kind of the final failure.
        kind: FailureKind,
    },
    /// One mutation slot fired on a gene.
    MutationHintApplied {
        /// Generation whose offspring are being bred.
        generation: u32,
        /// Gene index (see `params` in [`SearchEvent::RunStart`]).
        param: u32,
        /// Which steering mechanism drove the new value.
        hint_kind: HintKind,
        /// Whether the gene actually changed value.
        accepted: bool,
    },
    /// The importance-decay schedule produced this generation's
    /// gene-selection weights.
    ImportanceDecayed {
        /// Generation the weights apply to.
        generation: u32,
        /// Smallest effective weight.
        min_weight: f64,
        /// Largest effective weight.
        max_weight: f64,
        /// Mean effective weight.
        mean_weight: f64,
    },
    /// A crossover operator recombined two parents.
    CrossoverApplied {
        /// Generation whose offspring are being bred.
        generation: u32,
        /// Operator name ("one-point", "nautilus-guided-crossover", ...).
        kind: String,
    },
    /// A parent-selection operator was invoked.
    SelectionInvoked {
        /// Generation whose offspring are being bred.
        generation: u32,
        /// Selector name ("tournament", "rank-roulette", ...).
        kind: String,
    },
    /// A Pareto front was recomputed.
    ParetoUpdated {
        /// Number of non-dominated points in the updated front.
        size: usize,
    },
    /// The run finished.
    RunEnd {
        /// Best objective value found.
        best_value: f64,
        /// Total distinct feasible evaluations spent.
        distinct_evals: u64,
        /// Run wall-clock nanoseconds.
        wall_nanos: u64,
    },
    /// A checkpoint record was handed to the run's writer (fsync +
    /// atomic rename, behind the search). Emitted at the boundary, before
    /// the write lands.
    CheckpointWritten {
        /// Generation the checkpoint resumes at (next to be scored).
        generation: u32,
        /// Size of the record on disk, in bytes.
        bytes: u64,
        /// Wall-clock nanoseconds the engine thread spent at this
        /// boundary: encoding the record plus waiting for the previous
        /// boundary's write. The write itself overlaps the next
        /// generation.
        write_nanos: u64,
        /// Path of the checkpoint file. It is durable once the engine
        /// reaches the next boundary or the run returns; a failed write
        /// surfaces there as a checkpoint error.
        path: String,
    },
    /// A checkpoint was loaded and validated for a resume.
    CheckpointRestored {
        /// Generation the resumed run continues at.
        generation: u32,
        /// Path of the checkpoint file that was restored.
        path: String,
    },
    /// A checkpoint file failed validation (truncated, bad CRC, bad
    /// magic/version) and recovery fell back to an older record.
    CheckpointCorruptSkipped {
        /// Path of the rejected file.
        path: String,
        /// Human-readable validation failure.
        reason: String,
    },
    /// The run stopped early at a generation boundary (budget exhausted or
    /// cancelled). Emitted *instead of* [`SearchEvent::RunEnd`].
    RunInterrupted {
        /// Generation the run would have scored next (where a resume
        /// continues).
        generation: u32,
        /// Stable stop-reason label ("generation_budget", "cancelled", ...).
        reason: String,
    },
    /// A run continued from a checkpoint. Emitted *instead of*
    /// [`SearchEvent::RunStart`].
    RunResumed {
        /// Strategy label persisted in the checkpoint.
        strategy: String,
        /// The original run's RNG seed.
        seed: u64,
        /// Generation the run continues at.
        generation: u32,
    },
    /// The supervision watchdog abandoned an attempt that exceeded its
    /// hard wall-clock deadline.
    WatchdogFired {
        /// Attempt number the watchdog reclaimed (1-based; hedge
        /// attempts carry the hedge tag bit).
        attempt: u32,
        /// The deadline that was enforced, in milliseconds.
        limit_ms: u64,
        /// True when the attempt *did* finish but only after the
        /// deadline — its result was discarded rather than cached.
        late_result_discarded: bool,
    },
    /// A straggling attempt was duplicated onto a hedge evaluation.
    HedgeIssued {
        /// Attempt number of the straggling primary (1-based).
        attempt: u32,
    },
    /// A hedged pair resolved: exactly one of the primary and the
    /// hedge won (first completion), the other was wasted.
    HedgeResolved {
        /// True when the hedge finished before the straggling primary.
        won: bool,
    },
    /// The evaluation circuit breaker changed health state.
    BreakerTransition {
        /// State before the transition.
        from: HealthState,
        /// State after the transition.
        to: HealthState,
    },
    /// An evaluation was shed because the breaker was open: the genome
    /// was quarantined without consuming any retry budget.
    EvalShed,
    /// A subprocess evaluator launched a warm child into a pool slot.
    ChildSpawned {
        /// Pool slot index the child occupies.
        slot: u32,
    },
    /// A subprocess evaluator's child left service involuntarily
    /// (killed by the parent, crashed, or exited on its own).
    ChildKilled {
        /// Pool slot index the child occupied.
        slot: u32,
        /// Deterministic reason label: `"exited"`, `"io_timeout"`, or
        /// `"protocol_error"`.
        reason: String,
    },
    /// A killed child's pool slot was refilled with a fresh child.
    ChildRespawned {
        /// Pool slot index that was refilled.
        slot: u32,
        /// Backoff applied before the respawn, in milliseconds.
        backoff_ms: u64,
    },
    /// A child produced bytes that violate the wire protocol (garbage,
    /// bad CRC, unexpected frame), or could not be respawned.
    ChildProtocolError {
        /// Pool slot index of the offending child.
        slot: u32,
        /// Deterministic error label (e.g. `"bad_magic"`, `"bad_crc"`,
        /// `"truncated"`, `"respawn_failed"`).
        detail: String,
    },
    /// A search-service daemon accepted a job into its submission queue.
    JobQueued {
        /// Daemon-assigned job id.
        job: u64,
        /// Tenant the job was submitted under.
        tenant: String,
    },
    /// A queued job was claimed by a run slot and began executing.
    JobStarted {
        /// Daemon-assigned job id.
        job: u64,
    },
    /// A job reached a terminal state and its result was persisted.
    JobFinished {
        /// Daemon-assigned job id.
        job: u64,
        /// Terminal outcome label: `"done"`, `"failed"`, or
        /// `"cancelled"`.
        outcome: String,
    },
    /// A cancel request was accepted for a queued or running job.
    JobCancelled {
        /// Daemon-assigned job id.
        job: u64,
    },
    /// A submission was refused with a typed backpressure reply (the job
    /// was never enqueued; nothing was silently dropped).
    JobRejected {
        /// Tenant whose submission was refused.
        tenant: String,
        /// Deterministic backpressure label (e.g. `"queue_full"`,
        /// `"deadline_too_long"`, `"breaker_open"`, `"draining"`).
        reason: String,
    },
    /// A restarted daemon found an orphaned job on disk and re-adopted
    /// it into the queue.
    JobAdopted {
        /// Daemon-assigned job id (preserved across the restart).
        job: u64,
        /// True when an intact checkpoint lets the run resume mid-search
        /// rather than restart from generation zero.
        resumable: bool,
    },
    /// A durable write (checkpoint, job spec, result record, event log,
    /// cancel marker, endpoint file) failed — disk full, fsync error,
    /// blocked rename. Durable-state writers never swallow these; the
    /// event names what broke so operators can tell a hostile
    /// environment from a software fault.
    DurableWriteFailed {
        /// Stable write-site label (`ckpt.gen`, `job.spec`,
        /// `job.events`, `job.result`, `job.cancel`,
        /// `daemon.endpoint`, ...).
        site: String,
        /// Deterministic failure label (`enospc`, `sync_fail`,
        /// `rename_fail`, `torn_write`, `dir_sync_fail`, or `io` for an
        /// unclassified filesystem error).
        detail: String,
    },
    /// The daemon refused a connection because its concurrent-connection
    /// cap was reached; the socket got a typed backpressure reply and
    /// was closed without spawning a handler thread.
    ConnShed {
        /// Connections being served when the cap fired.
        active: u64,
        /// The configured cap.
        limit: u64,
    },
    /// A connection hit its read or write deadline and was closed so it
    /// could not pin a serve thread.
    ConnStalled {
        /// Which direction stalled: `"read"` or `"write"`.
        phase: String,
    },
    /// The accept loop saw an `accept(2)` error (e.g. EMFILE) and backed
    /// off with a bounded sleep instead of hot-spinning.
    AcceptBackoff {
        /// Consecutive accept errors so far.
        errors: u64,
        /// The sleep applied before the next accept attempt.
        backoff_ms: u64,
    },
    /// A submission carried a dedupe key the daemon had already
    /// accepted; the original job id was returned instead of enqueueing
    /// a duplicate.
    DuplicateSubmit {
        /// The job id of the original submission.
        job: u64,
        /// Tenant the duplicate arrived under.
        tenant: String,
    },
}

impl SearchEvent {
    /// The event's `"type"` discriminator.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SearchEvent::RunStart { .. } => "run_start",
            SearchEvent::GenerationStart { .. } => "generation_start",
            SearchEvent::GenerationEnd { .. } => "generation_end",
            SearchEvent::EvalCompleted { .. } => "eval_completed",
            SearchEvent::EvalBatch { .. } => "eval_batch",
            SearchEvent::CacheShardContended => "cache_shard_contended",
            SearchEvent::EvalAttemptFailed { .. } => "eval_attempt_failed",
            SearchEvent::EvalRetried { .. } => "eval_retried",
            SearchEvent::EvalRecovered { .. } => "eval_recovered",
            SearchEvent::GenomeQuarantined { .. } => "genome_quarantined",
            SearchEvent::MutationHintApplied { .. } => "mutation_hint_applied",
            SearchEvent::ImportanceDecayed { .. } => "importance_decayed",
            SearchEvent::CrossoverApplied { .. } => "crossover_applied",
            SearchEvent::SelectionInvoked { .. } => "selection_invoked",
            SearchEvent::ParetoUpdated { .. } => "pareto_updated",
            SearchEvent::RunEnd { .. } => "run_end",
            SearchEvent::CheckpointWritten { .. } => "checkpoint_written",
            SearchEvent::CheckpointRestored { .. } => "checkpoint_restored",
            SearchEvent::CheckpointCorruptSkipped { .. } => "checkpoint_corrupt_skipped",
            SearchEvent::RunInterrupted { .. } => "run_interrupted",
            SearchEvent::RunResumed { .. } => "run_resumed",
            SearchEvent::WatchdogFired { .. } => "watchdog_fired",
            SearchEvent::HedgeIssued { .. } => "hedge_issued",
            SearchEvent::HedgeResolved { .. } => "hedge_resolved",
            SearchEvent::BreakerTransition { .. } => "breaker_transition",
            SearchEvent::EvalShed => "eval_shed",
            SearchEvent::ChildSpawned { .. } => "child_spawned",
            SearchEvent::ChildKilled { .. } => "child_killed",
            SearchEvent::ChildRespawned { .. } => "child_respawned",
            SearchEvent::ChildProtocolError { .. } => "child_protocol_error",
            SearchEvent::JobQueued { .. } => "job_queued",
            SearchEvent::JobStarted { .. } => "job_started",
            SearchEvent::JobFinished { .. } => "job_finished",
            SearchEvent::JobCancelled { .. } => "job_cancelled",
            SearchEvent::JobRejected { .. } => "job_rejected",
            SearchEvent::JobAdopted { .. } => "job_adopted",
            SearchEvent::DurableWriteFailed { .. } => "durable_write_failed",
            SearchEvent::ConnShed { .. } => "conn_shed",
            SearchEvent::ConnStalled { .. } => "conn_stalled",
            SearchEvent::AcceptBackoff { .. } => "accept_backoff",
            SearchEvent::DuplicateSubmit { .. } => "duplicate_submit",
        }
    }

    /// Serializes the event as one JSON object (one JSONL line, without
    /// the trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("type", self.kind());
        match self {
            SearchEvent::RunStart { strategy, seed, params, population, generations } => {
                o.str("strategy", strategy)
                    .u64("seed", *seed)
                    .arr_str("params", params)
                    .u64("population", *population as u64)
                    .u64("generations", u64::from(*generations));
            }
            SearchEvent::GenerationStart { generation } => {
                o.u64("generation", u64::from(*generation));
            }
            SearchEvent::GenerationEnd {
                generation,
                best,
                mean,
                best_so_far,
                distinct_evals,
                cache_hits,
                infeasible,
            } => {
                o.u64("generation", u64::from(*generation))
                    .f64("best", *best)
                    .f64("mean", *mean)
                    .f64("best_so_far", *best_so_far)
                    .u64("distinct_evals", *distinct_evals)
                    .u64("cache_hits", *cache_hits)
                    .u64("infeasible", *infeasible);
            }
            SearchEvent::EvalCompleted { cached, feasible, tool_secs } => {
                o.bool("cached", *cached).bool("feasible", *feasible).u64("tool_secs", *tool_secs);
            }
            SearchEvent::EvalBatch { generation, size, workers } => {
                o.u64("generation", u64::from(*generation))
                    .u64("size", *size as u64)
                    .u64("workers", *workers as u64);
            }
            SearchEvent::CacheShardContended => {}
            SearchEvent::EvalAttemptFailed { kind, attempt, retryable } => {
                o.str("kind", kind.as_str())
                    .u64("attempt", u64::from(*attempt))
                    .bool("retryable", *retryable);
            }
            SearchEvent::EvalRetried { attempt, backoff_nanos } => {
                o.u64("attempt", u64::from(*attempt)).u64("backoff_nanos", *backoff_nanos);
            }
            SearchEvent::EvalRecovered { failed_attempts } => {
                o.u64("failed_attempts", u64::from(*failed_attempts));
            }
            SearchEvent::GenomeQuarantined { attempts, kind } => {
                o.u64("attempts", u64::from(*attempts)).str("kind", kind.as_str());
            }
            SearchEvent::MutationHintApplied { generation, param, hint_kind, accepted } => {
                o.u64("generation", u64::from(*generation))
                    .u64("param", u64::from(*param))
                    .str("hint_kind", hint_kind.as_str())
                    .bool("accepted", *accepted);
            }
            SearchEvent::ImportanceDecayed { generation, min_weight, max_weight, mean_weight } => {
                o.u64("generation", u64::from(*generation))
                    .f64("min_weight", *min_weight)
                    .f64("max_weight", *max_weight)
                    .f64("mean_weight", *mean_weight);
            }
            SearchEvent::CrossoverApplied { generation, kind } => {
                o.u64("generation", u64::from(*generation)).str("kind", kind);
            }
            SearchEvent::SelectionInvoked { generation, kind } => {
                o.u64("generation", u64::from(*generation)).str("kind", kind);
            }
            SearchEvent::ParetoUpdated { size } => {
                o.u64("size", *size as u64);
            }
            SearchEvent::RunEnd { best_value, distinct_evals, wall_nanos } => {
                o.f64("best_value", *best_value)
                    .u64("distinct_evals", *distinct_evals)
                    .u64("wall_nanos", *wall_nanos);
            }
            SearchEvent::CheckpointWritten { generation, bytes, write_nanos, path } => {
                o.u64("generation", u64::from(*generation))
                    .u64("bytes", *bytes)
                    .u64("write_nanos", *write_nanos)
                    .str("path", path);
            }
            SearchEvent::CheckpointRestored { generation, path } => {
                o.u64("generation", u64::from(*generation)).str("path", path);
            }
            SearchEvent::CheckpointCorruptSkipped { path, reason } => {
                o.str("path", path).str("reason", reason);
            }
            SearchEvent::RunInterrupted { generation, reason } => {
                o.u64("generation", u64::from(*generation)).str("reason", reason);
            }
            SearchEvent::RunResumed { strategy, seed, generation } => {
                o.str("strategy", strategy)
                    .u64("seed", *seed)
                    .u64("generation", u64::from(*generation));
            }
            SearchEvent::WatchdogFired { attempt, limit_ms, late_result_discarded } => {
                o.u64("attempt", u64::from(*attempt))
                    .u64("limit_ms", *limit_ms)
                    .bool("late_result_discarded", *late_result_discarded);
            }
            SearchEvent::HedgeIssued { attempt } => {
                o.u64("attempt", u64::from(*attempt));
            }
            SearchEvent::HedgeResolved { won } => {
                o.bool("won", *won);
            }
            SearchEvent::BreakerTransition { from, to } => {
                o.str("from", from.as_str()).str("to", to.as_str());
            }
            SearchEvent::EvalShed => {}
            SearchEvent::ChildSpawned { slot } => {
                o.u64("slot", u64::from(*slot));
            }
            SearchEvent::ChildKilled { slot, reason } => {
                o.u64("slot", u64::from(*slot)).str("reason", reason);
            }
            SearchEvent::ChildRespawned { slot, backoff_ms } => {
                o.u64("slot", u64::from(*slot)).u64("backoff_ms", *backoff_ms);
            }
            SearchEvent::ChildProtocolError { slot, detail } => {
                o.u64("slot", u64::from(*slot)).str("detail", detail);
            }
            SearchEvent::JobQueued { job, tenant } => {
                o.u64("job", *job).str("tenant", tenant);
            }
            SearchEvent::JobStarted { job } => {
                o.u64("job", *job);
            }
            SearchEvent::JobFinished { job, outcome } => {
                o.u64("job", *job).str("outcome", outcome);
            }
            SearchEvent::JobCancelled { job } => {
                o.u64("job", *job);
            }
            SearchEvent::JobRejected { tenant, reason } => {
                o.str("tenant", tenant).str("reason", reason);
            }
            SearchEvent::JobAdopted { job, resumable } => {
                o.u64("job", *job).bool("resumable", *resumable);
            }
            SearchEvent::DurableWriteFailed { site, detail } => {
                o.str("site", site).str("detail", detail);
            }
            SearchEvent::ConnShed { active, limit } => {
                o.u64("active", *active).u64("limit", *limit);
            }
            SearchEvent::ConnStalled { phase } => {
                o.str("phase", phase);
            }
            SearchEvent::AcceptBackoff { errors, backoff_ms } => {
                o.u64("errors", *errors).u64("backoff_ms", *backoff_ms);
            }
            SearchEvent::DuplicateSubmit { job, tenant } => {
                o.u64("job", *job).str("tenant", tenant);
            }
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::is_valid_json;

    fn samples() -> Vec<SearchEvent> {
        vec![
            SearchEvent::RunStart {
                strategy: "nautilus-strong".into(),
                seed: 7,
                params: vec!["depth".into(), "width".into()],
                population: 10,
                generations: 80,
            },
            SearchEvent::GenerationStart { generation: 0 },
            SearchEvent::GenerationEnd {
                generation: 0,
                best: 10.0,
                mean: f64::NAN,
                best_so_far: 10.0,
                distinct_evals: 10,
                cache_hits: 0,
                infeasible: 2,
            },
            SearchEvent::EvalCompleted { cached: false, feasible: true, tool_secs: 300 },
            SearchEvent::EvalBatch { generation: 2, size: 7, workers: 4 },
            SearchEvent::CacheShardContended,
            SearchEvent::EvalAttemptFailed {
                kind: FailureKind::Transient,
                attempt: 1,
                retryable: true,
            },
            SearchEvent::EvalRetried { attempt: 1, backoff_nanos: 2_000_000 },
            SearchEvent::EvalRecovered { failed_attempts: 1 },
            SearchEvent::GenomeQuarantined { attempts: 3, kind: FailureKind::Persistent },
            SearchEvent::MutationHintApplied {
                generation: 3,
                param: 1,
                hint_kind: HintKind::Bias,
                accepted: true,
            },
            SearchEvent::ImportanceDecayed {
                generation: 3,
                min_weight: 1.0,
                max_weight: 95.0,
                mean_weight: 31.5,
            },
            SearchEvent::CrossoverApplied { generation: 3, kind: "one-point".into() },
            SearchEvent::SelectionInvoked { generation: 3, kind: "tournament".into() },
            SearchEvent::ParetoUpdated { size: 4 },
            SearchEvent::RunEnd { best_value: 1.5, distinct_evals: 204, wall_nanos: 1 },
            SearchEvent::CheckpointWritten {
                generation: 12,
                bytes: 4096,
                write_nanos: 150_000,
                path: "ckpt/ckpt-00000012.nckpt".into(),
            },
            SearchEvent::CheckpointRestored {
                generation: 12,
                path: "ckpt/ckpt-00000012.nckpt".into(),
            },
            SearchEvent::CheckpointCorruptSkipped {
                path: "ckpt/ckpt-00000013.nckpt".into(),
                reason: "crc mismatch".into(),
            },
            SearchEvent::RunInterrupted { generation: 13, reason: "deadline_exceeded".into() },
            SearchEvent::RunResumed { strategy: "baseline".into(), seed: 7, generation: 13 },
            SearchEvent::WatchdogFired {
                attempt: 2,
                limit_ms: 10_000,
                late_result_discarded: true,
            },
            SearchEvent::HedgeIssued { attempt: 1 },
            SearchEvent::HedgeResolved { won: true },
            SearchEvent::BreakerTransition { from: HealthState::Closed, to: HealthState::Open },
            SearchEvent::EvalShed,
            SearchEvent::ChildSpawned { slot: 0 },
            SearchEvent::ChildKilled { slot: 1, reason: "io_timeout".into() },
            SearchEvent::ChildRespawned { slot: 1, backoff_ms: 2 },
            SearchEvent::ChildProtocolError { slot: 0, detail: "bad_crc".into() },
            SearchEvent::JobQueued { job: 1, tenant: "acme".into() },
            SearchEvent::JobStarted { job: 1 },
            SearchEvent::JobFinished { job: 1, outcome: "done".into() },
            SearchEvent::JobCancelled { job: 2 },
            SearchEvent::JobRejected { tenant: "acme".into(), reason: "queue_full".into() },
            SearchEvent::JobAdopted { job: 3, resumable: true },
            SearchEvent::DurableWriteFailed { site: "ckpt.gen".into(), detail: "enospc".into() },
            SearchEvent::ConnShed { active: 64, limit: 64 },
            SearchEvent::ConnStalled { phase: "read".into() },
            SearchEvent::AcceptBackoff { errors: 3, backoff_ms: 40 },
            SearchEvent::DuplicateSubmit { job: 1, tenant: "acme".into() },
        ]
    }

    #[test]
    fn every_event_serializes_to_valid_json_with_type_tag() {
        for e in samples() {
            let json = e.to_json();
            assert!(is_valid_json(&json), "invalid: {json}");
            assert!(
                json.starts_with(&format!("{{\"type\":\"{}\"", e.kind())),
                "missing type tag: {json}"
            );
        }
    }

    #[test]
    fn nan_fields_become_null() {
        let e = SearchEvent::GenerationEnd {
            generation: 1,
            best: f64::NAN,
            mean: f64::NAN,
            best_so_far: f64::NAN,
            distinct_evals: 0,
            cache_hits: 0,
            infeasible: 0,
        };
        let json = e.to_json();
        assert!(json.contains("\"best\":null"), "{json}");
        assert!(is_valid_json(&json));
    }

    #[test]
    fn hint_kind_labels_are_stable() {
        let labels: Vec<&str> = HintKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(labels, ["uniform", "step", "bias", "target", "fallback"]);
        assert_eq!(HintKind::Bias.to_string(), "bias");
    }

    #[test]
    fn failure_kind_labels_are_stable() {
        let labels: Vec<&str> = FailureKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(labels, ["transient", "timeout", "corrupted", "persistent"]);
        assert_eq!(FailureKind::Timeout.to_string(), "timeout");
    }

    #[test]
    fn health_state_labels_are_stable() {
        let labels: Vec<&str> = HealthState::ALL.iter().map(|s| s.as_str()).collect();
        assert_eq!(labels, ["closed", "open", "half_open"]);
        assert_eq!(HealthState::HalfOpen.to_string(), "half_open");
    }

    #[test]
    fn supervision_event_kinds_are_stable() {
        let e =
            SearchEvent::BreakerTransition { from: HealthState::Open, to: HealthState::HalfOpen };
        assert_eq!(e.kind(), "breaker_transition");
        assert!(e.to_json().contains("\"from\":\"open\""), "{}", e.to_json());
        assert!(e.to_json().contains("\"to\":\"half_open\""), "{}", e.to_json());
        assert_eq!(SearchEvent::EvalShed.to_json(), "{\"type\":\"eval_shed\"}");
    }

    #[test]
    fn subprocess_event_kinds_are_stable() {
        let e = SearchEvent::ChildKilled { slot: 3, reason: "io_timeout".into() };
        assert_eq!(e.kind(), "child_killed");
        assert!(e.to_json().contains("\"reason\":\"io_timeout\""), "{}", e.to_json());
        assert_eq!(
            SearchEvent::ChildSpawned { slot: 0 }.to_json(),
            "{\"type\":\"child_spawned\",\"slot\":0}"
        );
        let e = SearchEvent::ChildRespawned { slot: 1, backoff_ms: 4 };
        assert!(e.to_json().contains("\"backoff_ms\":4"), "{}", e.to_json());
        let e = SearchEvent::ChildProtocolError { slot: 0, detail: "bad_crc".into() };
        assert!(e.to_json().contains("\"detail\":\"bad_crc\""), "{}", e.to_json());
    }

    #[test]
    fn job_lifecycle_event_kinds_are_stable() {
        assert_eq!(
            SearchEvent::JobQueued { job: 7, tenant: "acme".into() }.to_json(),
            "{\"type\":\"job_queued\",\"job\":7,\"tenant\":\"acme\"}"
        );
        assert_eq!(
            SearchEvent::JobStarted { job: 7 }.to_json(),
            "{\"type\":\"job_started\",\"job\":7}"
        );
        let e = SearchEvent::JobFinished { job: 7, outcome: "cancelled".into() };
        assert!(e.to_json().contains("\"outcome\":\"cancelled\""), "{}", e.to_json());
        let e = SearchEvent::JobRejected { tenant: "acme".into(), reason: "queue_full".into() };
        assert!(e.to_json().contains("\"reason\":\"queue_full\""), "{}", e.to_json());
        let e = SearchEvent::JobAdopted { job: 3, resumable: false };
        assert!(e.to_json().contains("\"resumable\":false"), "{}", e.to_json());
        assert_eq!(
            SearchEvent::JobCancelled { job: 2 }.to_json(),
            "{\"type\":\"job_cancelled\",\"job\":2}"
        );
    }

    #[test]
    fn hostile_environment_event_kinds_are_stable() {
        assert_eq!(
            SearchEvent::DurableWriteFailed { site: "job.result".into(), detail: "enospc".into() }
                .to_json(),
            "{\"type\":\"durable_write_failed\",\"site\":\"job.result\",\"detail\":\"enospc\"}"
        );
        assert_eq!(
            SearchEvent::ConnShed { active: 8, limit: 8 }.to_json(),
            "{\"type\":\"conn_shed\",\"active\":8,\"limit\":8}"
        );
        assert_eq!(
            SearchEvent::ConnStalled { phase: "read".into() }.to_json(),
            "{\"type\":\"conn_stalled\",\"phase\":\"read\"}"
        );
        assert_eq!(
            SearchEvent::AcceptBackoff { errors: 2, backoff_ms: 20 }.to_json(),
            "{\"type\":\"accept_backoff\",\"errors\":2,\"backoff_ms\":20}"
        );
        assert_eq!(
            SearchEvent::DuplicateSubmit { job: 4, tenant: "acme".into() }.to_json(),
            "{\"type\":\"duplicate_submit\",\"job\":4,\"tenant\":\"acme\"}"
        );
    }
}
