//! Per-run report aggregation: a [`ReportBuilder`] observer folds the
//! event stream into a machine-readable [`RunReport`] summary.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::event::{FailureKind, HealthState, HintKind, SearchEvent};
use crate::json::JsonObj;
use crate::observer::SearchObserver;
use crate::span::{Phase, PhaseStat};

/// Mutation counts broken down by [`HintKind`], plus how many actually
/// changed the gene.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintTally {
    /// Counts indexed in [`HintKind::ALL`] order.
    pub counts: [u64; HintKind::ALL.len()],
    /// Mutations that changed the gene's value.
    pub accepted: u64,
}

impl HintTally {
    /// Count for one kind.
    #[must_use]
    pub fn count_of(&self, kind: HintKind) -> u64 {
        let idx = HintKind::ALL.iter().position(|k| *k == kind).unwrap_or(0);
        self.counts[idx]
    }

    /// Total mutation slots tallied.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Records one mutation slot.
    pub fn record(&mut self, kind: HintKind, accepted: bool) {
        let idx = HintKind::ALL.iter().position(|k| *k == kind).unwrap_or(0);
        self.counts[idx] += 1;
        if accepted {
            self.accepted += 1;
        }
    }

    /// Serializes as `{"uniform":n, ..., "accepted":n}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        for (kind, n) in HintKind::ALL.iter().zip(self.counts.iter()) {
            o.u64(kind.as_str(), *n);
        }
        o.u64("accepted", self.accepted);
        o.finish()
    }
}

/// Evaluation-failure, retry and quarantine counts folded from the
/// fault-tolerance events.
///
/// The invariant `evals_failed() == retries_recovered + quarantined` holds
/// by construction: every evaluation that saw at least one failed attempt
/// either eventually succeeded (recovered) or was quarantined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Failed attempts indexed in [`FailureKind::ALL`] order.
    pub failed_attempts: [u64; FailureKind::ALL.len()],
    /// Retry attempts scheduled ([`SearchEvent::EvalRetried`]).
    pub retries: u64,
    /// Evaluations that failed at least once and then succeeded.
    pub retries_recovered: u64,
    /// Evaluations abandoned after exhausting retries (or a non-retryable
    /// failure); their genomes carry penalized fitness.
    pub quarantined: u64,
}

impl FaultTally {
    /// Distinct evaluations that saw at least one failed attempt.
    #[must_use]
    pub fn evals_failed(&self) -> u64 {
        self.retries_recovered + self.quarantined
    }

    /// Failed attempts of one kind.
    #[must_use]
    pub fn failed_attempts_of(&self, kind: FailureKind) -> u64 {
        let idx = FailureKind::ALL.iter().position(|k| *k == kind).unwrap_or(0);
        self.failed_attempts[idx]
    }

    /// Total failed attempts across all kinds.
    #[must_use]
    pub fn total_failed_attempts(&self) -> u64 {
        self.failed_attempts.iter().sum()
    }

    /// Serializes as `{"evals_failed":n, ..., "failed_attempts":{...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut by_kind = JsonObj::new();
        for (kind, n) in FailureKind::ALL.iter().zip(self.failed_attempts.iter()) {
            by_kind.u64(kind.as_str(), *n);
        }
        let mut o = JsonObj::new();
        o.u64("evals_failed", self.evals_failed())
            .u64("retries", self.retries)
            .u64("retries_recovered", self.retries_recovered)
            .u64("quarantined", self.quarantined)
            .raw("failed_attempts", &by_kind.finish());
        o.finish()
    }
}

/// Evaluation-lookup counts, split the same way [`SearchEvent::EvalCompleted`]
/// is flagged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalTally {
    /// Distinct feasible evaluations (cache misses that produced metrics).
    pub feasible: u64,
    /// Cache hits.
    pub cached: u64,
    /// Distinct infeasible attempts.
    pub infeasible: u64,
    /// Simulated EDA tool seconds charged.
    pub tool_secs: u64,
}

impl EvalTally {
    /// Every lookup: feasible + infeasible + cached.
    ///
    /// Reconciles with `JobStats::total_lookups()` on the synthesis-job
    /// runner that emitted the events.
    #[must_use]
    pub fn total_lookups(&self) -> u64 {
        self.feasible + self.infeasible + self.cached
    }

    /// Records one lookup with [`SearchEvent::EvalCompleted`] semantics.
    pub fn record(&mut self, cached: bool, feasible: bool, tool_secs: u64) {
        if cached {
            self.cached += 1;
        } else if feasible {
            self.feasible += 1;
        } else {
            self.infeasible += 1;
        }
        self.tool_secs += tool_secs;
    }

    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("feasible", self.feasible)
            .u64("cached", self.cached)
            .u64("infeasible", self.infeasible)
            .u64("tool_secs", self.tool_secs)
            .u64("total_lookups", self.total_lookups());
        o.finish()
    }
}

/// One generation's slice of the run telemetry.
///
/// Scoring fields (`best`, `mean`, cumulative cache counters, `evals`)
/// describe the generation's *scoring* phase; breeding fields
/// (`mutations_per_param`, `hints`, `crossovers`, `selections`) describe
/// the offspring bred *from* this generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenerationTelemetry {
    /// Zero-based generation number.
    pub generation: u32,
    /// Best raw objective value among feasible members this generation.
    pub best: f64,
    /// Mean raw objective value over feasible members this generation.
    pub mean: f64,
    /// Best raw objective value seen so far in the run.
    pub best_so_far: f64,
    /// Cumulative distinct feasible evaluations at generation end.
    pub distinct_evals: u64,
    /// Cumulative evaluation-cache hits at generation end.
    pub cache_hits: u64,
    /// Cumulative distinct infeasible attempts at generation end.
    pub infeasible: u64,
    /// Synthesis-job lookups performed while scoring this generation
    /// (generation 0 also absorbs initial-population feasibility probes).
    pub evals: EvalTally,
    /// Mutation slots per parameter (gene order; see `params` on the
    /// report) while breeding this generation's offspring.
    pub mutations_per_param: Vec<u64>,
    /// Mutation slots by hint kind while breeding this generation's
    /// offspring.
    pub hints: HintTally,
    /// Crossover invocations while breeding.
    pub crossovers: u64,
    /// Selection invocations while breeding.
    pub selections: u64,
}

impl GenerationTelemetry {
    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("generation", u64::from(self.generation))
            .f64("best", self.best)
            .f64("mean", self.mean)
            .f64("best_so_far", self.best_so_far)
            .u64("distinct_evals", self.distinct_evals)
            .u64("cache_hits", self.cache_hits)
            .u64("infeasible", self.infeasible)
            .raw("evals", &self.evals.to_json())
            .arr_u64("mutations_per_param", &self.mutations_per_param)
            .raw("hints", &self.hints.to_json())
            .u64("crossovers", self.crossovers)
            .u64("selections", self.selections);
        o.finish()
    }
}

/// Checkpoint-journal and interruption tallies folded from the
/// durability events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityTally {
    /// Generation boundaries whose journal writes were handed to the
    /// run's writer ([`SearchEvent::CheckpointWritten`]).
    pub checkpoints_written: u64,
    /// Journal bytes written across those boundaries.
    pub checkpoint_bytes_total: u64,
    /// Most journal bytes written at one boundary.
    pub checkpoint_max_bytes: u64,
    /// Runs that replayed an earlier incarnation's journal
    /// ([`SearchEvent::CheckpointRestored`]).
    pub checkpoints_restored: u64,
    /// Damaged journal tails dropped when the journal was opened.
    pub corrupt_skipped: u64,
    /// Early stops at a generation boundary ([`SearchEvent::RunInterrupted`]).
    pub interruptions: u64,
    /// Resumes: since v11 a resume is a replay, so this equals
    /// `checkpoints_restored`.
    pub resumes: u64,
    /// Generation whose scoring first called the tool after the latest
    /// replay (the run's next generation when the journal answered
    /// everything; 0 when the run never replayed).
    pub resumed_from_generation: u64,
    /// Stable label of the latest stop reason ("completed" unless the run
    /// was interrupted).
    pub stop_reason: String,
}

impl Default for DurabilityTally {
    fn default() -> Self {
        DurabilityTally {
            checkpoints_written: 0,
            checkpoint_bytes_total: 0,
            checkpoint_max_bytes: 0,
            checkpoints_restored: 0,
            corrupt_skipped: 0,
            interruptions: 0,
            resumes: 0,
            resumed_from_generation: 0,
            stop_reason: "completed".to_owned(),
        }
    }
}

impl DurabilityTally {
    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("checkpoints_written", self.checkpoints_written)
            .u64("checkpoint_bytes_total", self.checkpoint_bytes_total)
            .u64("checkpoint_max_bytes", self.checkpoint_max_bytes)
            .u64("checkpoints_restored", self.checkpoints_restored)
            .u64("corrupt_skipped", self.corrupt_skipped)
            .u64("interruptions", self.interruptions)
            .u64("resumes", self.resumes)
            .u64("resumed_from_generation", self.resumed_from_generation)
            .str("stop_reason", &self.stop_reason);
        o.finish()
    }
}

/// Supervision tallies folded from the watchdog / hedging / circuit-breaker
/// events.
///
/// The hedging identity `hedges_issued == hedges_won + hedges_wasted`
/// holds by construction: every hedge resolves exactly once, either
/// beating its straggling primary (won) or losing the race (wasted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTally {
    /// Attempts abandoned by the watchdog deadline.
    pub watchdog_fired: u64,
    /// Watchdog firings where the attempt *did* complete, but late — the
    /// result was discarded instead of cached.
    pub late_results_discarded: u64,
    /// Hedged duplicate evaluations dispatched for stragglers.
    pub hedges_issued: u64,
    /// Hedges that finished before their straggling primary.
    pub hedges_won: u64,
    /// Hedges that lost the race (their work was wasted).
    pub hedges_wasted: u64,
    /// Circuit-breaker trips into the `Open` state.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries (`HalfOpen` probe succeeded → `Closed`).
    pub breaker_recoveries: u64,
    /// Evaluations shed while the breaker was open (quarantined without
    /// consuming retry budget).
    pub evals_shed: u64,
    /// Final observed breaker state label ("closed" / "open" /
    /// "half_open"; "closed" when no transition was ever observed).
    pub breaker_state: String,
}

impl Default for HealthTally {
    fn default() -> Self {
        HealthTally {
            watchdog_fired: 0,
            late_results_discarded: 0,
            hedges_issued: 0,
            hedges_won: 0,
            hedges_wasted: 0,
            breaker_trips: 0,
            breaker_recoveries: 0,
            evals_shed: 0,
            breaker_state: "closed".to_owned(),
        }
    }
}

impl HealthTally {
    /// Whether the hedging identity reconciles.
    #[must_use]
    pub fn hedges_reconcile(&self) -> bool {
        self.hedges_issued == self.hedges_won + self.hedges_wasted
    }

    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("watchdog_fired", self.watchdog_fired)
            .u64("late_results_discarded", self.late_results_discarded)
            .u64("hedges_issued", self.hedges_issued)
            .u64("hedges_won", self.hedges_won)
            .u64("hedges_wasted", self.hedges_wasted)
            .u64("breaker_trips", self.breaker_trips)
            .u64("breaker_recoveries", self.breaker_recoveries)
            .u64("evals_shed", self.evals_shed)
            .str("breaker_state", &self.breaker_state);
        o.finish()
    }
}

/// Subprocess-evaluator child lifecycle tallies (schema v7).
///
/// Folded from the `ChildSpawned` / `ChildKilled` / `ChildRespawned` /
/// `ChildProtocolError` events emitted by an out-of-process evaluator
/// pool. All zero on in-process runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubprocessTally {
    /// Child processes spawned (initial pool fills and respawns alike).
    pub spawned: u64,
    /// Children killed by the parent (hang, protocol error, or death
    /// detected mid-request).
    pub killed: u64,
    /// Children respawned after a kill.
    pub respawned: u64,
    /// Protocol-level violations observed on child pipes (bad magic,
    /// CRC mismatch, truncation, desynchronized reply ids).
    pub protocol_errors: u64,
}

impl SubprocessTally {
    /// Whether the kill/respawn identity reconciles: every kill the
    /// parent performed was followed by a respawn attempt.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.killed == self.respawned
    }

    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("spawned", self.spawned)
            .u64("killed", self.killed)
            .u64("respawned", self.respawned)
            .u64("protocol_errors", self.protocol_errors);
        o.finish()
    }
}

/// Search-service job-lifecycle tallies (schema v8).
///
/// Folded from the `JobQueued` / `JobStarted` / `JobFinished` /
/// `JobCancelled` / `JobRejected` / `JobAdopted` events emitted by a
/// `nautilus-serve` daemon. All zero on plain (non-daemon) runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceTally {
    /// Jobs accepted into the submission queue.
    pub queued: u64,
    /// Jobs claimed by a run slot.
    pub started: u64,
    /// Jobs that reached a terminal state with a persisted result.
    pub finished: u64,
    /// Cancel requests accepted.
    pub cancelled: u64,
    /// Submissions refused with a typed backpressure reply.
    pub rejected: u64,
    /// Orphaned jobs re-adopted after a daemon restart.
    pub adopted: u64,
}

impl ServiceTally {
    /// Whether the lifecycle identities reconcile: nothing finished that
    /// never started, and nothing started that was never queued or
    /// adopted.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.finished <= self.started && self.started <= self.queued + self.adopted
    }

    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("queued", self.queued)
            .u64("started", self.started)
            .u64("finished", self.finished)
            .u64("cancelled", self.cancelled)
            .u64("rejected", self.rejected)
            .u64("adopted", self.adopted);
        o.finish()
    }
}

/// Hostile-environment tallies (schema v9).
///
/// Folded from the `DurableWriteFailed` / `ConnShed` / `ConnStalled` /
/// `AcceptBackoff` / `DuplicateSubmit` events a hardened `nautilus-serve`
/// daemon emits when the world misbehaves: full disks, stalled or
/// flooding clients, duplicate submissions after lost replies. All zero
/// on healthy plain runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeTally {
    /// Durable writes (checkpoints, specs, results, event logs, cancel
    /// markers, endpoint files) that failed and were surfaced as typed
    /// faults rather than swallowed.
    pub durable_write_failures: u64,
    /// The subset of durable-write failures where an `fsync` (file or
    /// directory entry) failed — the classic silently-swallowed error.
    pub fsync_failures: u64,
    /// Connections refused at the concurrent-connection cap.
    pub conns_shed: u64,
    /// Connections closed at a read/write deadline.
    pub conn_stalls: u64,
    /// Accept-loop backoff sleeps taken on `accept(2)` errors.
    pub accept_backoffs: u64,
    /// Duplicate submissions resolved to their original job id by
    /// dedupe key.
    pub dedupe_hits: u64,
}

impl EdgeTally {
    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.u64("durable_write_failures", self.durable_write_failures)
            .u64("fsync_failures", self.fsync_failures)
            .u64("conns_shed", self.conns_shed)
            .u64("conn_stalls", self.conn_stalls)
            .u64("accept_backoffs", self.accept_backoffs)
            .u64("dedupe_hits", self.dedupe_hits);
        o.finish()
    }
}

/// The machine-readable summary of one instrumented search run.
///
/// # Schema version history
///
/// Downstream consumers should branch on the top-level `schema_version`
/// field. Versions only ever *add* fields (v10 empties one, keeping its
/// key), so a consumer of version `n` can read any later report by
/// ignoring unknown keys:
///
/// * **v1** — initial schema: `strategy`, `seed`, `params`, `population`,
///   `generation_budget`, `best_value`, `distinct_evals`, `wall_nanos`,
///   `evals`, `hints`, `importance_decays`, `pareto_updates`,
///   `generations[]`, `spans`.
/// * **v2** — added the parallel-evaluation fields `eval_batches`,
///   `batched_evals`, `max_batch` and `shard_contentions`.
/// * **v3** — added the `faults` block (`evals_failed`, `retries`,
///   `retries_recovered`, `quarantined`, plus `failed_attempts` broken
///   down by failure kind).
/// * **v4** — added the `durability` block ([`DurabilityTally`]:
///   checkpoint write/restore/corruption tallies, interruption and resume
///   counts, `resumed_from_generation` and the final `stop_reason`). All
///   v3 fields are unchanged; on a resumed run the per-generation rows
///   covered the whole logical run only when the builder was restored
///   from a checkpoint snapshot (a codec gone since v11).
/// * **v5** — added the `health` block ([`HealthTally`]: watchdog
///   firings, hedging identities, circuit-breaker trip/recovery counts,
///   shed evaluations and the final breaker state). All v4 fields are
///   unchanged.
/// * **v6** — added the `phases` time-attribution block: one entry per
///   instrumented [`Phase`] with span count, total and self nanoseconds,
///   longest span, and percent of the run's wall clock (from
///   `wall_nanos`). Populated only when the run was traced
///   ([`ReportBuilder::attach_phases`]); `{}` otherwise. All v5 fields
///   are unchanged.
/// * **v7** — added the `subprocess` block ([`SubprocessTally`]: child
///   spawn/kill/respawn and protocol-error counts from out-of-process
///   evaluator pools). All zero on in-process runs. All v6 fields are
///   unchanged.
/// * **v8** — added the `service` block ([`ServiceTally`]: daemon
///   job-lifecycle counts — queued/started/finished/cancelled/rejected
///   submissions and crash-recovery adoptions). All zero on plain runs.
///   All v7 fields are unchanged.
/// * **v9** — added the `edge` block ([`EdgeTally`]: hostile-environment
///   counts — surfaced durable-write and fsync failures, connections
///   shed at the cap, stalled connections closed at their deadline,
///   accept-loop backoffs, and dedupe-key duplicate submissions). All
///   zero on healthy plain runs. All v8 fields are unchanged.
/// * **v10** — `spans` is always `{}`: the scoped `span_end` timers that
///   filled it are gone, and the run's [`crate::Tracer`] times the same
///   work in the `phases` block (`init_population`, `scoring`, and
///   `selection`/`crossover`/`mutation` for breeding). The key stays so
///   v1–v9 consumers still find it. All other v9 fields are unchanged.
/// * **v11** — the `durability` block counts a journal of tool replies
///   instead of full-state checkpoints, with the same keys: bytes are
///   those each boundary wrote, `checkpoints_restored` and `resumes` both
///   count replays of an earlier incarnation's journal (a resumed run now
///   re-emits the whole stream, so `run_resumed` is gone), and
///   `resumed_from_generation` is where the replay went live. A resumed
///   run's per-generation rows always cover the whole run. All other v10
///   fields are unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Strategy label from [`SearchEvent::RunStart`].
    pub strategy: String,
    /// RNG seed.
    pub seed: u64,
    /// Parameter names in gene order.
    pub params: Vec<String>,
    /// Population size.
    pub population: usize,
    /// Generation budget.
    pub generation_budget: u32,
    /// Best objective value found (NaN if the run never reported one).
    pub best_value: f64,
    /// Total distinct feasible evaluations — the paper's "# designs
    /// evaluated" cost axis.
    pub distinct_evals: u64,
    /// Run wall-clock nanoseconds.
    pub wall_nanos: u64,
    /// Whole-run evaluation-lookup tallies.
    pub evals: EvalTally,
    /// Whole-run mutation tallies by hint kind.
    pub hints: HintTally,
    /// Importance-decay reweighting events observed.
    pub importance_decays: u64,
    /// Pareto-front recomputations observed.
    pub pareto_updates: u64,
    /// Parallel evaluation batches observed (0 on serial runs).
    pub eval_batches: u64,
    /// Cache misses evaluated across all batches.
    pub batched_evals: u64,
    /// Largest single evaluation batch.
    pub max_batch: u64,
    /// Synthesis-job memo insert races lost.
    pub shard_contentions: u64,
    /// Whole-run evaluation-failure / retry / quarantine tallies.
    pub faults: FaultTally,
    /// Checkpoint-journal and interruption tallies.
    pub durability: DurabilityTally,
    /// Watchdog / hedging / circuit-breaker tallies.
    pub health: HealthTally,
    /// Subprocess-evaluator child lifecycle tallies (all zero on
    /// in-process runs).
    pub subprocess: SubprocessTally,
    /// Search-service job-lifecycle tallies (all zero on plain runs).
    pub service: ServiceTally,
    /// Hostile-environment tallies (all zero on healthy plain runs).
    pub edge: EdgeTally,
    /// Per-generation telemetry, in generation order.
    pub generations: Vec<GenerationTelemetry>,
    /// Per-phase time attribution from the run's [`crate::Tracer`]
    /// (empty when the run was not traced).
    pub phases: BTreeMap<Phase, PhaseStat>,
}

impl RunReport {
    /// Serializes the full report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let gen_rows: Vec<String> = self.generations.iter().map(|g| g.to_json()).collect();
        let mut phases = JsonObj::new();
        for (phase, stat) in &self.phases {
            let mut p = JsonObj::new();
            p.u64("count", stat.count)
                .u64("total_nanos", stat.total_nanos)
                .u64("self_nanos", stat.self_nanos)
                .u64("max_nanos", stat.max_nanos)
                .f64("percent_of_wall", percent_of(stat.total_nanos, self.wall_nanos));
            phases.raw(phase.label(), &p.finish());
        }
        let mut o = JsonObj::new();
        o.u64("schema_version", 11)
            .str("strategy", &self.strategy)
            .u64("seed", self.seed)
            .arr_str("params", &self.params)
            .u64("population", self.population as u64)
            .u64("generation_budget", u64::from(self.generation_budget))
            .f64("best_value", self.best_value)
            .u64("distinct_evals", self.distinct_evals)
            .u64("wall_nanos", self.wall_nanos)
            .raw("evals", &self.evals.to_json())
            .raw("hints", &self.hints.to_json())
            .u64("importance_decays", self.importance_decays)
            .u64("pareto_updates", self.pareto_updates)
            .u64("eval_batches", self.eval_batches)
            .u64("batched_evals", self.batched_evals)
            .u64("max_batch", self.max_batch)
            .u64("shard_contentions", self.shard_contentions)
            .raw("faults", &self.faults.to_json())
            .raw("durability", &self.durability.to_json())
            .raw("health", &self.health.to_json())
            .raw("subprocess", &self.subprocess.to_json())
            .raw("service", &self.service.to_json())
            .raw("edge", &self.edge.to_json())
            .arr_raw("generations", &gen_rows)
            // Kept, always empty, for v1–v9 readers.
            .raw("spans", "{}")
            .raw("phases", &phases.finish());
        o.finish()
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
fn percent_of(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

#[derive(Debug, Default)]
struct ReportState {
    report: RunReport,
    rows: BTreeMap<u32, GenerationTelemetry>,
    /// Generation opened by the latest `GenerationStart` (evals before the
    /// first one — initial-population probes — land in generation 0).
    scoring_gen: u32,
    num_params: usize,
}

impl ReportState {
    fn row(&mut self, generation: u32) -> &mut GenerationTelemetry {
        let num_params = self.num_params;
        self.rows.entry(generation).or_insert_with(|| GenerationTelemetry {
            generation,
            best: f64::NAN,
            mean: f64::NAN,
            best_so_far: f64::NAN,
            mutations_per_param: vec![0; num_params],
            ..GenerationTelemetry::default()
        })
    }
}

/// An observer that aggregates the event stream into a [`RunReport`].
///
/// Share it (optionally fanned out with a streaming sink) for the duration
/// of one run, then call [`ReportBuilder::finish`].
#[derive(Debug, Default)]
pub struct ReportBuilder {
    state: Mutex<ReportState>,
}

impl ReportBuilder {
    /// A builder with an empty report.
    #[must_use]
    pub fn new() -> Self {
        let builder = ReportBuilder::default();
        builder.state.lock().expect("report poisoned").report.best_value = f64::NAN;
        builder
    }

    /// Consumes the builder, returning the aggregated report.
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex is poisoned.
    #[must_use]
    pub fn finish(self) -> RunReport {
        let state = self.state.into_inner().expect("report poisoned");
        let mut report = state.report;
        report.generations = state.rows.into_values().collect();
        report
    }

    /// Attaches a traced run's per-phase time attribution (typically
    /// `tracer.phase_stats()`), replacing any previously attached block.
    /// The phases surface in the report's schema-6 `phases` JSON object.
    ///
    /// # Panics
    ///
    /// Panics if the internal mutex is poisoned.
    pub fn attach_phases(&self, phases: BTreeMap<Phase, PhaseStat>) {
        self.state.lock().expect("report poisoned").report.phases = phases;
    }
}

impl SearchObserver for ReportBuilder {
    fn on_event(&self, event: &SearchEvent) {
        let mut state = self.state.lock().expect("report poisoned");
        match event {
            SearchEvent::RunStart { strategy, seed, params, population, generations } => {
                state.report.strategy = strategy.clone();
                state.report.seed = *seed;
                state.report.params = params.clone();
                state.report.population = *population;
                state.report.generation_budget = *generations;
                state.num_params = params.len();
            }
            SearchEvent::GenerationStart { generation } => {
                state.scoring_gen = *generation;
                let _ = state.row(*generation);
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
                let row = state.row(*generation);
                row.best = *best;
                row.mean = *mean;
                row.best_so_far = *best_so_far;
                row.distinct_evals = *distinct_evals;
                row.cache_hits = *cache_hits;
                row.infeasible = *infeasible;
            }
            SearchEvent::EvalCompleted { cached, feasible, tool_secs } => {
                let gen = state.scoring_gen;
                state.row(gen).evals.record(*cached, *feasible, *tool_secs);
                state.report.evals.record(*cached, *feasible, *tool_secs);
            }
            SearchEvent::MutationHintApplied { generation, param, hint_kind, accepted } => {
                state.report.hints.record(*hint_kind, *accepted);
                let row = state.row(*generation);
                row.hints.record(*hint_kind, *accepted);
                let idx = *param as usize;
                if row.mutations_per_param.len() <= idx {
                    row.mutations_per_param.resize(idx + 1, 0);
                }
                row.mutations_per_param[idx] += 1;
            }
            SearchEvent::EvalBatch { size, .. } => {
                state.report.eval_batches += 1;
                state.report.batched_evals += *size as u64;
                state.report.max_batch = state.report.max_batch.max(*size as u64);
            }
            SearchEvent::CacheShardContended => state.report.shard_contentions += 1,
            SearchEvent::EvalAttemptFailed { kind, .. } => {
                let idx = FailureKind::ALL.iter().position(|k| k == kind).unwrap_or(0);
                state.report.faults.failed_attempts[idx] += 1;
            }
            SearchEvent::EvalRetried { .. } => state.report.faults.retries += 1,
            SearchEvent::EvalRecovered { .. } => state.report.faults.retries_recovered += 1,
            SearchEvent::GenomeQuarantined { .. } => state.report.faults.quarantined += 1,
            SearchEvent::ImportanceDecayed { .. } => state.report.importance_decays += 1,
            SearchEvent::CrossoverApplied { generation, .. } => {
                state.row(*generation).crossovers += 1;
            }
            SearchEvent::SelectionInvoked { generation, .. } => {
                state.row(*generation).selections += 1;
            }
            SearchEvent::ParetoUpdated { .. } => state.report.pareto_updates += 1,
            SearchEvent::RunEnd { best_value, distinct_evals, wall_nanos } => {
                state.report.best_value = *best_value;
                state.report.distinct_evals = *distinct_evals;
                state.report.wall_nanos = *wall_nanos;
            }
            SearchEvent::CheckpointWritten { bytes, .. } => {
                let d = &mut state.report.durability;
                d.checkpoints_written += 1;
                d.checkpoint_bytes_total += *bytes;
                d.checkpoint_max_bytes = d.checkpoint_max_bytes.max(*bytes);
            }
            SearchEvent::CheckpointRestored { generation, .. } => {
                let d = &mut state.report.durability;
                d.checkpoints_restored += 1;
                d.resumes += 1;
                d.resumed_from_generation = u64::from(*generation);
            }
            SearchEvent::CheckpointCorruptSkipped { .. } => {
                state.report.durability.corrupt_skipped += 1;
            }
            SearchEvent::RunInterrupted { reason, .. } => {
                state.report.durability.interruptions += 1;
                state.report.durability.stop_reason = reason.clone();
                // No RunEnd follows an interruption: fold the summary
                // fields from the last scored generation instead.
                if let Some(row) = state.rows.values().next_back() {
                    let (best, distinct) = (row.best_so_far, row.distinct_evals);
                    state.report.best_value = best;
                    state.report.distinct_evals = distinct;
                }
            }
            SearchEvent::WatchdogFired { late_result_discarded, .. } => {
                state.report.health.watchdog_fired += 1;
                if *late_result_discarded {
                    state.report.health.late_results_discarded += 1;
                }
            }
            SearchEvent::HedgeIssued { .. } => state.report.health.hedges_issued += 1,
            SearchEvent::HedgeResolved { won } => {
                if *won {
                    state.report.health.hedges_won += 1;
                } else {
                    state.report.health.hedges_wasted += 1;
                }
            }
            SearchEvent::BreakerTransition { from, to } => {
                let h = &mut state.report.health;
                if *to == HealthState::Open {
                    h.breaker_trips += 1;
                }
                if *from == HealthState::HalfOpen && *to == HealthState::Closed {
                    h.breaker_recoveries += 1;
                }
                h.breaker_state = to.as_str().to_owned();
            }
            SearchEvent::EvalShed => state.report.health.evals_shed += 1,
            SearchEvent::ChildSpawned { .. } => state.report.subprocess.spawned += 1,
            SearchEvent::ChildKilled { .. } => state.report.subprocess.killed += 1,
            SearchEvent::ChildRespawned { .. } => state.report.subprocess.respawned += 1,
            SearchEvent::ChildProtocolError { .. } => {
                state.report.subprocess.protocol_errors += 1;
            }
            SearchEvent::JobQueued { .. } => state.report.service.queued += 1,
            SearchEvent::JobStarted { .. } => state.report.service.started += 1,
            SearchEvent::JobFinished { .. } => state.report.service.finished += 1,
            SearchEvent::JobCancelled { .. } => state.report.service.cancelled += 1,
            SearchEvent::JobRejected { .. } => state.report.service.rejected += 1,
            SearchEvent::JobAdopted { .. } => state.report.service.adopted += 1,
            SearchEvent::DurableWriteFailed { detail, .. } => {
                let e = &mut state.report.edge;
                e.durable_write_failures += 1;
                if detail.contains("sync") {
                    e.fsync_failures += 1;
                }
            }
            SearchEvent::ConnShed { .. } => state.report.edge.conns_shed += 1,
            SearchEvent::ConnStalled { .. } => state.report.edge.conn_stalls += 1,
            SearchEvent::AcceptBackoff { .. } => state.report.edge.accept_backoffs += 1,
            SearchEvent::DuplicateSubmit { .. } => state.report.edge.dedupe_hits += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn feed(builder: &ReportBuilder, events: &[SearchEvent]) {
        for e in events {
            builder.on_event(e);
        }
    }

    #[test]
    fn report_aggregates_a_small_run() {
        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[
                SearchEvent::RunStart {
                    strategy: "guided".into(),
                    seed: 42,
                    params: vec!["depth".into(), "width".into()],
                    population: 4,
                    generations: 2,
                },
                // initial-population probe before any GenerationStart.
                SearchEvent::EvalCompleted { cached: false, feasible: false, tool_secs: 0 },
                SearchEvent::GenerationStart { generation: 0 },
                SearchEvent::EvalCompleted { cached: false, feasible: true, tool_secs: 300 },
                SearchEvent::EvalCompleted { cached: true, feasible: true, tool_secs: 0 },
                SearchEvent::GenerationEnd {
                    generation: 0,
                    best: 5.0,
                    mean: 6.0,
                    best_so_far: 5.0,
                    distinct_evals: 1,
                    cache_hits: 1,
                    infeasible: 1,
                },
                SearchEvent::SelectionInvoked { generation: 0, kind: "tournament".into() },
                SearchEvent::CrossoverApplied { generation: 0, kind: "one-point".into() },
                SearchEvent::MutationHintApplied {
                    generation: 0,
                    param: 1,
                    hint_kind: HintKind::Bias,
                    accepted: true,
                },
                SearchEvent::MutationHintApplied {
                    generation: 0,
                    param: 0,
                    hint_kind: HintKind::Fallback,
                    accepted: false,
                },
                SearchEvent::ImportanceDecayed {
                    generation: 1,
                    min_weight: 1.0,
                    max_weight: 2.0,
                    mean_weight: 1.5,
                },
                SearchEvent::EvalBatch { generation: 1, size: 3, workers: 2 },
                SearchEvent::EvalBatch { generation: 1, size: 8, workers: 2 },
                SearchEvent::CacheShardContended,
                // A transient fault recovered on retry...
                SearchEvent::EvalAttemptFailed {
                    kind: FailureKind::Transient,
                    attempt: 1,
                    retryable: true,
                },
                SearchEvent::EvalRetried { attempt: 1, backoff_nanos: 1_000_000 },
                SearchEvent::EvalRecovered { failed_attempts: 1 },
                // ...and a persistent fault quarantined immediately.
                SearchEvent::EvalAttemptFailed {
                    kind: FailureKind::Persistent,
                    attempt: 1,
                    retryable: false,
                },
                SearchEvent::GenomeQuarantined { attempts: 1, kind: FailureKind::Persistent },
                SearchEvent::RunEnd { best_value: 5.0, distinct_evals: 1, wall_nanos: 9000 },
            ],
        );
        let report = builder.finish();
        assert_eq!(report.strategy, "guided");
        assert_eq!(report.params, vec!["depth", "width"]);
        assert_eq!(report.evals.feasible, 1);
        assert_eq!(report.evals.cached, 1);
        assert_eq!(report.evals.infeasible, 1);
        assert_eq!(report.evals.total_lookups(), 3);
        assert_eq!(report.evals.tool_secs, 300);
        assert_eq!(report.hints.total(), 2);
        assert_eq!(report.hints.count_of(HintKind::Bias), 1);
        assert_eq!(report.hints.accepted, 1);
        assert_eq!(report.importance_decays, 1);
        assert_eq!(report.best_value, 5.0);
        assert_eq!(report.eval_batches, 2);
        assert_eq!(report.batched_evals, 11);
        assert_eq!(report.max_batch, 8);
        assert_eq!(report.shard_contentions, 1);
        assert_eq!(report.faults.evals_failed(), 2);
        assert_eq!(report.faults.retries, 1);
        assert_eq!(report.faults.retries_recovered, 1);
        assert_eq!(report.faults.quarantined, 1);
        assert_eq!(report.faults.failed_attempts_of(FailureKind::Transient), 1);
        assert_eq!(report.faults.failed_attempts_of(FailureKind::Persistent), 1);
        assert_eq!(report.faults.total_failed_attempts(), 2);

        assert_eq!(report.generations.len(), 1);
        let g0 = &report.generations[0];
        assert_eq!(g0.generation, 0);
        assert_eq!(g0.best, 5.0);
        // Pre-generation probe lands in generation 0 alongside scoring.
        assert_eq!(g0.evals.infeasible, 1);
        assert_eq!(g0.evals.feasible, 1);
        assert_eq!(g0.evals.cached, 1);
        assert_eq!(g0.mutations_per_param, vec![1, 1]);
        assert_eq!(g0.hints.count_of(HintKind::Fallback), 1);
        assert_eq!(g0.crossovers, 1);
        assert_eq!(g0.selections, 1);
    }

    #[test]
    fn report_serializes_to_valid_json() {
        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[
                SearchEvent::RunStart {
                    strategy: "baseline".into(),
                    seed: 1,
                    params: vec!["n".into()],
                    population: 2,
                    generations: 1,
                },
                SearchEvent::GenerationStart { generation: 0 },
                SearchEvent::GenerationEnd {
                    generation: 0,
                    best: 1.0,
                    mean: f64::NAN,
                    best_so_far: 1.0,
                    distinct_evals: 2,
                    cache_hits: 0,
                    infeasible: 0,
                },
                SearchEvent::RunEnd { best_value: 1.0, distinct_evals: 2, wall_nanos: 10 },
            ],
        );
        let json = builder.finish().to_json();
        assert!(parse_json(&json).is_ok(), "invalid report json: {json}");
        assert!(json.contains("\"schema_version\":11"));
        assert!(json.contains("\"eval_batches\":0"));
        assert!(json.contains("\"durable_write_failures\":0"));
        assert!(json.contains("\"conns_shed\":0"));
        assert!(json.contains("\"evals_failed\":0"));
        assert!(json.contains("\"quarantined\":0"));
        assert!(json.contains("\"mean\":null"));
        assert!(json.contains("\"checkpoints_written\":0"));
        assert!(json.contains("\"stop_reason\":\"completed\""));
        assert!(json.contains("\"watchdog_fired\":0"));
        assert!(json.contains("\"breaker_state\":\"closed\""));
        assert!(
            json.contains("\"phases\":{}"),
            "untraced run must serialize an empty phases block"
        );
    }

    #[test]
    fn attached_phases_serialize_with_percent_of_wall() {
        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[SearchEvent::RunEnd { best_value: 1.0, distinct_evals: 2, wall_nanos: 2000 }],
        );
        let mut phases = BTreeMap::new();
        phases.insert(
            Phase::Run,
            PhaseStat { count: 1, total_nanos: 2000, self_nanos: 1000, max_nanos: 2000 },
        );
        phases.insert(
            Phase::Scoring,
            PhaseStat { count: 4, total_nanos: 1000, self_nanos: 1000, max_nanos: 400 },
        );
        builder.attach_phases(phases.clone());
        let report = builder.finish();
        assert_eq!(report.phases, phases);
        let json = report.to_json();
        assert!(parse_json(&json).is_ok(), "invalid report json: {json}");
        assert!(json.contains(
            "\"run\":{\"count\":1,\"total_nanos\":2000,\"self_nanos\":1000,\
             \"max_nanos\":2000,\"percent_of_wall\":100.0}"
        ));
        assert!(json.contains("\"scoring\":{\"count\":4,"));
        assert!(json.contains("\"percent_of_wall\":50.0"));
    }

    #[test]
    fn schema_5_consumers_can_read_a_schema_6_report() {
        use crate::json::{parse_json, JsonValue};

        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[
                SearchEvent::RunStart {
                    strategy: "baseline".into(),
                    seed: 1,
                    params: vec!["n".into()],
                    population: 2,
                    generations: 1,
                },
                SearchEvent::RunEnd { best_value: 1.0, distinct_evals: 2, wall_nanos: 10 },
            ],
        );
        let mut phases = BTreeMap::new();
        phases.insert(
            Phase::Run,
            PhaseStat { count: 1, total_nanos: 10, self_nanos: 10, max_nanos: 10 },
        );
        builder.attach_phases(phases);
        let parsed = parse_json(&builder.finish().to_json()).unwrap();
        assert_eq!(parsed.get("schema_version").and_then(JsonValue::as_u64), Some(11));
        // The complete v6 surface, unchanged.
        for key in [
            "strategy",
            "seed",
            "params",
            "population",
            "generation_budget",
            "best_value",
            "distinct_evals",
            "wall_nanos",
            "evals",
            "hints",
            "importance_decays",
            "pareto_updates",
            "eval_batches",
            "batched_evals",
            "max_batch",
            "shard_contentions",
            "faults",
            "durability",
            "health",
            "generations",
            "spans",
        ] {
            assert!(parsed.get(key).is_some(), "v6 key `{key}` missing from v8 report");
        }
        // Since v10 the `spans` key stays for older consumers and is empty.
        let spans = parsed.get("spans").and_then(JsonValue::as_obj);
        assert_eq!(spans.map(<[_]>::len), Some(0), "spans must be an empty object");
        // The v7 addition is a well-formed subprocess block.
        let sub = parsed.get("subprocess").expect("subprocess block");
        assert_eq!(sub.get("spawned").and_then(JsonValue::as_u64), Some(0));
        // The v8 addition is a well-formed service block.
        let svc = parsed.get("service").expect("service block");
        assert_eq!(svc.get("queued").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(svc.get("adopted").and_then(JsonValue::as_u64), Some(0));
        // The v6 addition is a well-formed object keyed by phase label.
        let run = parsed.get("phases").and_then(|p| p.get("run")).expect("phases.run");
        assert_eq!(run.get("total_nanos").and_then(JsonValue::as_u64), Some(10));
        assert_eq!(run.get("percent_of_wall").and_then(JsonValue::as_f64), Some(100.0));
    }

    #[test]
    fn supervision_events_fold_into_the_health_block() {
        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[
                SearchEvent::WatchdogFired {
                    attempt: 1,
                    limit_ms: 500,
                    late_result_discarded: true,
                },
                SearchEvent::WatchdogFired {
                    attempt: 2,
                    limit_ms: 500,
                    late_result_discarded: false,
                },
                SearchEvent::HedgeIssued { attempt: 1 },
                SearchEvent::HedgeResolved { won: true },
                SearchEvent::HedgeIssued { attempt: 3 },
                SearchEvent::HedgeResolved { won: false },
                SearchEvent::BreakerTransition { from: HealthState::Closed, to: HealthState::Open },
                SearchEvent::EvalShed,
                SearchEvent::EvalShed,
                SearchEvent::EvalShed,
                SearchEvent::BreakerTransition {
                    from: HealthState::Open,
                    to: HealthState::HalfOpen,
                },
                SearchEvent::BreakerTransition {
                    from: HealthState::HalfOpen,
                    to: HealthState::Closed,
                },
            ],
        );
        let report = builder.finish();
        let h = &report.health;
        assert_eq!(h.watchdog_fired, 2);
        assert_eq!(h.late_results_discarded, 1);
        assert_eq!(h.hedges_issued, 2);
        assert_eq!(h.hedges_won, 1);
        assert_eq!(h.hedges_wasted, 1);
        assert!(h.hedges_reconcile());
        assert_eq!(h.breaker_trips, 1);
        assert_eq!(h.breaker_recoveries, 1);
        assert_eq!(h.evals_shed, 3);
        assert_eq!(h.breaker_state, "closed");
        assert!(parse_json(&h.to_json()).is_ok());
    }

    #[test]
    fn child_lifecycle_events_fold_into_the_subprocess_block() {
        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[
                SearchEvent::ChildSpawned { slot: 0 },
                SearchEvent::ChildSpawned { slot: 1 },
                SearchEvent::ChildKilled { slot: 0, reason: "io_timeout".into() },
                SearchEvent::ChildRespawned { slot: 0, backoff_ms: 1 },
                SearchEvent::ChildProtocolError { slot: 1, detail: "bad_crc".into() },
            ],
        );
        let report = builder.finish();
        let s = &report.subprocess;
        assert_eq!(s.spawned, 2);
        assert_eq!(s.killed, 1);
        assert_eq!(s.respawned, 1);
        assert_eq!(s.protocol_errors, 1);
        assert!(s.reconciles());
        assert!(parse_json(&s.to_json()).is_ok());
    }

    #[test]
    fn job_lifecycle_events_fold_into_the_service_block() {
        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[
                SearchEvent::JobQueued { job: 1, tenant: "acme".into() },
                SearchEvent::JobQueued { job: 2, tenant: "acme".into() },
                SearchEvent::JobRejected { tenant: "acme".into(), reason: "queue_full".into() },
                SearchEvent::JobAdopted { job: 3, resumable: true },
                SearchEvent::JobStarted { job: 1 },
                SearchEvent::JobStarted { job: 3 },
                SearchEvent::JobCancelled { job: 2 },
                SearchEvent::JobFinished { job: 1, outcome: "done".into() },
                SearchEvent::JobFinished { job: 3, outcome: "done".into() },
            ],
        );
        let report = builder.finish();
        let s = &report.service;
        assert_eq!(s.queued, 2);
        assert_eq!(s.started, 2);
        assert_eq!(s.finished, 2);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.adopted, 1);
        assert!(s.reconciles());
        assert!(parse_json(&s.to_json()).is_ok());
    }

    #[test]
    fn hostile_environment_events_fold_into_the_edge_block() {
        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[
                SearchEvent::DurableWriteFailed {
                    site: "ckpt.gen".into(),
                    detail: "enospc".into(),
                },
                SearchEvent::DurableWriteFailed {
                    site: "job.events".into(),
                    detail: "sync_fail".into(),
                },
                SearchEvent::DurableWriteFailed {
                    site: "job.result".into(),
                    detail: "dir_sync_fail".into(),
                },
                SearchEvent::ConnShed { active: 8, limit: 8 },
                SearchEvent::ConnStalled { phase: "read".into() },
                SearchEvent::ConnStalled { phase: "write".into() },
                SearchEvent::AcceptBackoff { errors: 1, backoff_ms: 10 },
                SearchEvent::DuplicateSubmit { job: 1, tenant: "acme".into() },
            ],
        );
        let report = builder.finish();
        let e = &report.edge;
        assert_eq!(e.durable_write_failures, 3);
        assert_eq!(e.fsync_failures, 2, "sync_fail and dir_sync_fail both count");
        assert_eq!(e.conns_shed, 1);
        assert_eq!(e.conn_stalls, 2);
        assert_eq!(e.accept_backoffs, 1);
        assert_eq!(e.dedupe_hits, 1);
        assert!(parse_json(&e.to_json()).is_ok());
    }

    #[test]
    fn durability_events_fold_into_the_report() {
        let builder = ReportBuilder::new();
        feed(
            &builder,
            &[
                SearchEvent::CheckpointCorruptSkipped {
                    path: "journal.nckpt".into(),
                    reason: "bad crc".into(),
                },
                SearchEvent::CheckpointRestored { generation: 3, path: "journal.nckpt".into() },
                SearchEvent::GenerationStart { generation: 3 },
                SearchEvent::GenerationEnd {
                    generation: 3,
                    best: 2.0,
                    mean: 2.5,
                    best_so_far: 2.0,
                    distinct_evals: 12,
                    cache_hits: 4,
                    infeasible: 1,
                },
                SearchEvent::CheckpointWritten {
                    generation: 4,
                    bytes: 2048,
                    write_nanos: 1_000_000,
                    path: "journal.nckpt".into(),
                },
                SearchEvent::CheckpointWritten {
                    generation: 5,
                    bytes: 4096,
                    write_nanos: 2_000_000,
                    path: "journal.nckpt".into(),
                },
                SearchEvent::RunInterrupted { generation: 5, reason: "deadline_exceeded".into() },
            ],
        );
        let report = builder.finish();
        let d = &report.durability;
        assert_eq!(d.checkpoints_written, 2);
        assert_eq!(d.checkpoint_bytes_total, 6144);
        assert_eq!(d.checkpoint_max_bytes, 4096);
        assert_eq!(d.checkpoints_restored, 1);
        assert_eq!(d.corrupt_skipped, 1);
        assert_eq!(d.interruptions, 1);
        assert_eq!(d.resumes, 1);
        assert_eq!(d.resumed_from_generation, 3);
        assert_eq!(d.stop_reason, "deadline_exceeded");
        // RunInterrupted backfills summary fields from the last row.
        assert_eq!(report.best_value, 2.0);
        assert_eq!(report.distinct_evals, 12);
    }

    #[test]
    fn empty_report_is_well_formed() {
        let report = ReportBuilder::new().finish();
        assert!(report.best_value.is_nan());
        assert!(report.generations.is_empty());
        assert!(parse_json(&report.to_json()).is_ok());
    }

    #[test]
    fn unknown_param_index_grows_the_tally() {
        let builder = ReportBuilder::new();
        builder.on_event(&SearchEvent::MutationHintApplied {
            generation: 2,
            param: 3,
            hint_kind: HintKind::Uniform,
            accepted: true,
        });
        let report = builder.finish();
        assert_eq!(report.generations[0].mutations_per_param, vec![0, 0, 0, 1]);
    }
}
