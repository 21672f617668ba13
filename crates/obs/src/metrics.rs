//! A lock-free metrics registry: counters, gauges and fixed-bucket
//! histograms with a cheap serializable snapshot.
//!
//! Individual instruments are plain atomics — incrementing a [`Counter`]
//! is one relaxed `fetch_add`. The registry itself guards its name table
//! with a `Mutex`, but that lock is only taken at registration and
//! snapshot time, never on the hot increment path (callers hold an
//! `Arc` to the instrument).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{FailureKind, HintKind, SearchEvent};
use crate::json::JsonObj;
use crate::observer::SearchObserver;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins float gauge (stored as `f64` bits in an atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-boundary histogram of `f64` observations.
///
/// `bounds` are the inclusive upper edges of the first `bounds.len()`
/// buckets; one final overflow bucket catches everything above the last
/// edge. The running sum is kept in integral nano-units so recording stays
/// a single `fetch_add` (no CAS loop); values are clamped to the
/// representable range.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

const NANO: f64 = 1e9;

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper edges.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket edge");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Exponential bucket edges: `start, start*factor, ...` (`n` edges).
    ///
    /// # Panics
    ///
    /// Panics if `start <= 0`, `factor <= 1` or `n == 0`.
    #[must_use]
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0 && n > 0, "invalid exponential layout");
        let mut edge = start;
        let bounds: Vec<f64> = (0..n)
            .map(|_| {
                let e = edge;
                edge *= factor;
                e
            })
            .collect();
        Histogram::new(&bounds)
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v > 0.0 {
            let nanos = (v * NANO).min(u64::MAX as f64 / 2.0) as u64;
            self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of positive observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / NANO
    }

    /// An immutable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Snapshot of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper edges of the leading buckets.
    pub bounds: Vec<f64>,
    /// Bucket counts (`bounds.len() + 1` entries; last is overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of positive observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Serializes as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.arr_f64("bounds", &self.bounds)
            .arr_u64("buckets", &self.buckets)
            .u64("count", self.count)
            .f64("sum", self.sum);
        o.finish()
    }
}

/// A named registry of counters, gauges and histograms.
///
/// ```
/// use nautilus_obs::MetricsRegistry;
/// let reg = MetricsRegistry::new();
/// let evals = reg.counter("evals_total");
/// evals.add(3);
/// assert_eq!(reg.snapshot().counters["evals_total"], 3);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Returns the histogram named `name`, creating it with `bounds` on
    /// first use (later calls ignore `bounds`).
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex is poisoned, or on first registration
    /// with invalid bounds (see [`Histogram::new`]).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_owned()).or_insert_with(|| Arc::new(Histogram::new(bounds))))
    }

    /// A point-in-time copy of every registered instrument.
    ///
    /// # Panics
    ///
    /// Panics if a registry mutex is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Serializable snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Serializes as one JSON object with `counters` / `gauges` /
    /// `histograms` sections.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counters = JsonObj::new();
        for (k, v) in &self.counters {
            counters.u64(k, *v);
        }
        let mut gauges = JsonObj::new();
        for (k, v) in &self.gauges {
            gauges.f64(k, *v);
        }
        let mut hists = JsonObj::new();
        for (k, v) in &self.histograms {
            hists.raw(k, &v.to_json());
        }
        let mut o = JsonObj::new();
        o.raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .raw("histograms", &hists.finish());
        o.finish()
    }
}

/// An observer that folds the event stream into a [`MetricsRegistry`].
///
/// Maintained counters: `runs_total`, `generations_total`, `evals_total`,
/// `evals_cached`, `evals_infeasible`, `eval_tool_secs`,
/// `mutations_total`, `hint_applied_<kind>` per [`HintKind`],
/// `mutations_param_<name>` per parameter (after a `RunStart` supplies the
/// names), `crossovers_total`, `selections_total`, `pareto_updates`,
/// `importance_decays`, `eval_batches`, `cache_shard_contentions`,
/// `eval_failures_total`, `eval_failures_<kind>` per [`FailureKind`],
/// `eval_retries_total`, `evals_recovered`, `genomes_quarantined`,
/// `checkpoints_written`, `checkpoints_restored`,
/// `checkpoints_corrupt_skipped`, `runs_interrupted`, `runs_resumed`,
/// `watchdog_fired`, `hedges_issued`, `hedges_won`, `hedges_wasted`,
/// `breaker_transitions`, `evals_shed`, `children_spawned`,
/// `children_killed`, `children_respawned`, `child_protocol_errors`,
/// `jobs_queued`, `jobs_started`, `jobs_finished`, `jobs_cancelled`,
/// `jobs_rejected` and `jobs_adopted`.
/// Span durations land in `span_<name>_secs` histograms, batch sizes in
/// the `eval_batch_size` histogram, retry backoffs in the
/// `retry_backoff_secs` histogram, checkpoint record sizes in the
/// `checkpoint_bytes` histogram, checkpoint write latencies in the
/// `checkpoint_write_secs` histogram, and the latest `best_so_far` in the
/// `best_value` gauge.
pub struct MetricsSink {
    registry: Arc<MetricsRegistry>,
    runs: Arc<Counter>,
    generations: Arc<Counter>,
    evals: Arc<Counter>,
    evals_cached: Arc<Counter>,
    evals_infeasible: Arc<Counter>,
    tool_secs: Arc<Counter>,
    mutations: Arc<Counter>,
    hint_kinds: [Arc<Counter>; HintKind::ALL.len()],
    crossovers: Arc<Counter>,
    selections: Arc<Counter>,
    pareto_updates: Arc<Counter>,
    importance_decays: Arc<Counter>,
    eval_batches: Arc<Counter>,
    batch_sizes: Arc<Histogram>,
    shard_contentions: Arc<Counter>,
    eval_failures: Arc<Counter>,
    failure_kinds: [Arc<Counter>; FailureKind::ALL.len()],
    eval_retries: Arc<Counter>,
    retry_backoffs: Arc<Histogram>,
    evals_recovered: Arc<Counter>,
    genomes_quarantined: Arc<Counter>,
    checkpoints_written: Arc<Counter>,
    checkpoint_bytes: Arc<Histogram>,
    checkpoint_write_secs: Arc<Histogram>,
    checkpoints_restored: Arc<Counter>,
    checkpoints_corrupt_skipped: Arc<Counter>,
    runs_interrupted: Arc<Counter>,
    runs_resumed: Arc<Counter>,
    watchdog_fired: Arc<Counter>,
    hedges_issued: Arc<Counter>,
    hedges_won: Arc<Counter>,
    hedges_wasted: Arc<Counter>,
    breaker_transitions: Arc<Counter>,
    evals_shed: Arc<Counter>,
    children_spawned: Arc<Counter>,
    children_killed: Arc<Counter>,
    children_respawned: Arc<Counter>,
    child_protocol_errors: Arc<Counter>,
    jobs_queued: Arc<Counter>,
    jobs_started: Arc<Counter>,
    jobs_finished: Arc<Counter>,
    jobs_cancelled: Arc<Counter>,
    jobs_rejected: Arc<Counter>,
    jobs_adopted: Arc<Counter>,
    durable_write_failures: Arc<Counter>,
    conns_shed: Arc<Counter>,
    conn_stalls: Arc<Counter>,
    accept_backoffs: Arc<Counter>,
    dedupe_hits: Arc<Counter>,
    best_value: Arc<Gauge>,
    per_param: Mutex<Vec<Arc<Counter>>>,
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink").field("snapshot", &self.registry.snapshot()).finish()
    }
}

impl MetricsSink {
    /// Creates a sink feeding `registry`.
    #[must_use]
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let hint_kinds =
            HintKind::ALL.map(|k| registry.counter(&format!("hint_applied_{}", k.as_str())));
        let failure_kinds =
            FailureKind::ALL.map(|k| registry.counter(&format!("eval_failures_{}", k.as_str())));
        MetricsSink {
            runs: registry.counter("runs_total"),
            generations: registry.counter("generations_total"),
            evals: registry.counter("evals_total"),
            evals_cached: registry.counter("evals_cached"),
            evals_infeasible: registry.counter("evals_infeasible"),
            tool_secs: registry.counter("eval_tool_secs"),
            mutations: registry.counter("mutations_total"),
            hint_kinds,
            crossovers: registry.counter("crossovers_total"),
            selections: registry.counter("selections_total"),
            pareto_updates: registry.counter("pareto_updates"),
            importance_decays: registry.counter("importance_decays"),
            eval_batches: registry.counter("eval_batches"),
            batch_sizes: registry
                .histogram("eval_batch_size", &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0]),
            shard_contentions: registry.counter("cache_shard_contentions"),
            eval_failures: registry.counter("eval_failures_total"),
            failure_kinds,
            eval_retries: registry.counter("eval_retries_total"),
            retry_backoffs: registry.histogram(
                "retry_backoff_secs",
                &[1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0],
            ),
            evals_recovered: registry.counter("evals_recovered"),
            genomes_quarantined: registry.counter("genomes_quarantined"),
            checkpoints_written: registry.counter("checkpoints_written"),
            checkpoint_bytes: registry
                .histogram("checkpoint_bytes", &[1e3, 1e4, 1e5, 1e6, 1e7, 1e8]),
            checkpoint_write_secs: registry
                .histogram("checkpoint_write_secs", &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0]),
            checkpoints_restored: registry.counter("checkpoints_restored"),
            checkpoints_corrupt_skipped: registry.counter("checkpoints_corrupt_skipped"),
            runs_interrupted: registry.counter("runs_interrupted"),
            runs_resumed: registry.counter("runs_resumed"),
            watchdog_fired: registry.counter("watchdog_fired"),
            hedges_issued: registry.counter("hedges_issued"),
            hedges_won: registry.counter("hedges_won"),
            hedges_wasted: registry.counter("hedges_wasted"),
            breaker_transitions: registry.counter("breaker_transitions"),
            evals_shed: registry.counter("evals_shed"),
            children_spawned: registry.counter("children_spawned"),
            children_killed: registry.counter("children_killed"),
            children_respawned: registry.counter("children_respawned"),
            child_protocol_errors: registry.counter("child_protocol_errors"),
            jobs_queued: registry.counter("jobs_queued"),
            jobs_started: registry.counter("jobs_started"),
            jobs_finished: registry.counter("jobs_finished"),
            jobs_cancelled: registry.counter("jobs_cancelled"),
            jobs_rejected: registry.counter("jobs_rejected"),
            jobs_adopted: registry.counter("jobs_adopted"),
            durable_write_failures: registry.counter("durable_write_failures"),
            conns_shed: registry.counter("conns_shed"),
            conn_stalls: registry.counter("conn_stalls"),
            accept_backoffs: registry.counter("accept_backoffs"),
            dedupe_hits: registry.counter("dedupe_hits"),
            best_value: registry.gauge("best_value"),
            per_param: Mutex::new(Vec::new()),
            registry,
        }
    }

    /// The registry this sink feeds.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

impl SearchObserver for MetricsSink {
    fn on_event(&self, event: &SearchEvent) {
        match event {
            SearchEvent::RunStart { params, .. } => {
                self.runs.inc();
                *self.per_param.lock().expect("metrics sink poisoned") = params
                    .iter()
                    .map(|p| self.registry.counter(&format!("mutations_param_{p}")))
                    .collect();
            }
            SearchEvent::GenerationStart { .. } => self.generations.inc(),
            SearchEvent::GenerationEnd { best_so_far, .. } => {
                if best_so_far.is_finite() {
                    self.best_value.set(*best_so_far);
                }
            }
            SearchEvent::EvalCompleted { cached, feasible, tool_secs } => {
                if *cached {
                    self.evals_cached.inc();
                } else if *feasible {
                    self.evals.inc();
                    self.tool_secs.add(*tool_secs);
                } else {
                    self.evals_infeasible.inc();
                }
            }
            SearchEvent::MutationHintApplied { param, hint_kind, .. } => {
                self.mutations.inc();
                let idx = HintKind::ALL.iter().position(|k| k == hint_kind).unwrap_or(0);
                self.hint_kinds[idx].inc();
                if let Some(c) =
                    self.per_param.lock().expect("metrics sink poisoned").get(*param as usize)
                {
                    c.inc();
                }
            }
            SearchEvent::EvalBatch { size, .. } => {
                self.eval_batches.inc();
                self.batch_sizes.record(*size as f64);
            }
            SearchEvent::CacheShardContended => self.shard_contentions.inc(),
            SearchEvent::EvalAttemptFailed { kind, .. } => {
                self.eval_failures.inc();
                let idx = FailureKind::ALL.iter().position(|k| k == kind).unwrap_or(0);
                self.failure_kinds[idx].inc();
            }
            SearchEvent::EvalRetried { backoff_nanos, .. } => {
                self.eval_retries.inc();
                self.retry_backoffs.record(*backoff_nanos as f64 / NANO);
            }
            SearchEvent::EvalRecovered { .. } => self.evals_recovered.inc(),
            SearchEvent::GenomeQuarantined { .. } => self.genomes_quarantined.inc(),
            SearchEvent::ImportanceDecayed { .. } => self.importance_decays.inc(),
            SearchEvent::CrossoverApplied { .. } => self.crossovers.inc(),
            SearchEvent::SelectionInvoked { .. } => self.selections.inc(),
            SearchEvent::ParetoUpdated { .. } => self.pareto_updates.inc(),
            SearchEvent::SpanEnd { name, nanos } => {
                self.registry
                    .histogram(
                        &format!("span_{name}_secs"),
                        &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0],
                    )
                    .record(*nanos as f64 / NANO);
            }
            SearchEvent::RunEnd { .. } => {}
            SearchEvent::CheckpointWritten { bytes, write_nanos, .. } => {
                self.checkpoints_written.inc();
                self.checkpoint_bytes.record(*bytes as f64);
                self.checkpoint_write_secs.record(*write_nanos as f64 / NANO);
            }
            SearchEvent::CheckpointRestored { .. } => self.checkpoints_restored.inc(),
            SearchEvent::CheckpointCorruptSkipped { .. } => self.checkpoints_corrupt_skipped.inc(),
            SearchEvent::RunInterrupted { .. } => self.runs_interrupted.inc(),
            SearchEvent::RunResumed { .. } => self.runs_resumed.inc(),
            SearchEvent::WatchdogFired { .. } => self.watchdog_fired.inc(),
            SearchEvent::HedgeIssued { .. } => self.hedges_issued.inc(),
            SearchEvent::HedgeResolved { won } => {
                if *won {
                    self.hedges_won.inc();
                } else {
                    self.hedges_wasted.inc();
                }
            }
            SearchEvent::BreakerTransition { .. } => self.breaker_transitions.inc(),
            SearchEvent::EvalShed => self.evals_shed.inc(),
            SearchEvent::ChildSpawned { .. } => self.children_spawned.inc(),
            SearchEvent::ChildKilled { .. } => self.children_killed.inc(),
            SearchEvent::ChildRespawned { .. } => self.children_respawned.inc(),
            SearchEvent::ChildProtocolError { .. } => self.child_protocol_errors.inc(),
            SearchEvent::JobQueued { .. } => self.jobs_queued.inc(),
            SearchEvent::JobStarted { .. } => self.jobs_started.inc(),
            SearchEvent::JobFinished { .. } => self.jobs_finished.inc(),
            SearchEvent::JobCancelled { .. } => self.jobs_cancelled.inc(),
            SearchEvent::JobRejected { .. } => self.jobs_rejected.inc(),
            SearchEvent::JobAdopted { .. } => self.jobs_adopted.inc(),
            SearchEvent::DurableWriteFailed { .. } => self.durable_write_failures.inc(),
            SearchEvent::ConnShed { .. } => self.conns_shed.inc(),
            SearchEvent::ConnStalled { .. } => self.conn_stalls.inc(),
            SearchEvent::AcceptBackoff { .. } => self.accept_backoffs.inc(),
            SearchEvent::DuplicateSubmit { .. } => self.dedupe_hits.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 100.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 1, 1]);
        assert_eq!(s.count, 4);
        assert!((s.sum - 106.4).abs() < 1e-6, "sum {}", s.sum);
        assert!(crate::json::is_valid_json(&s.to_json()));
    }

    #[test]
    fn histogram_edge_values_land_in_lower_bucket() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.snapshot().buckets, vec![1, 1, 0]);
    }

    #[test]
    fn exponential_layout_builds_ascending_edges() {
        let h = Histogram::exponential(1.0, 10.0, 3);
        assert_eq!(h.snapshot().bounds, vec![1.0, 10.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unordered_bounds_panic() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_reuses_instruments_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x").get(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x"], 2);
        assert!(crate::json::is_valid_json(&snap.to_json()));
    }

    #[test]
    fn counters_are_safe_under_concurrency() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("hits");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn metrics_sink_folds_events_into_counters() {
        let reg = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&reg));
        sink.on_event(&SearchEvent::RunStart {
            strategy: "s".into(),
            seed: 0,
            params: vec!["depth".into(), "width".into()],
            population: 10,
            generations: 2,
        });
        sink.on_event(&SearchEvent::EvalCompleted { cached: false, feasible: true, tool_secs: 60 });
        sink.on_event(&SearchEvent::EvalCompleted { cached: true, feasible: true, tool_secs: 0 });
        sink.on_event(&SearchEvent::EvalCompleted { cached: false, feasible: false, tool_secs: 0 });
        sink.on_event(&SearchEvent::MutationHintApplied {
            generation: 0,
            param: 1,
            hint_kind: HintKind::Bias,
            accepted: true,
        });
        sink.on_event(&SearchEvent::SelectionInvoked { generation: 0, kind: "t".into() });
        sink.on_event(&SearchEvent::EvalBatch { generation: 0, size: 7, workers: 4 });
        sink.on_event(&SearchEvent::CacheShardContended);
        sink.on_event(&SearchEvent::CacheShardContended);
        sink.on_event(&SearchEvent::EvalAttemptFailed {
            kind: FailureKind::Transient,
            attempt: 1,
            retryable: true,
        });
        sink.on_event(&SearchEvent::EvalRetried { attempt: 1, backoff_nanos: 2_000_000 });
        sink.on_event(&SearchEvent::EvalRecovered { failed_attempts: 1 });
        sink.on_event(&SearchEvent::EvalAttemptFailed {
            kind: FailureKind::Corrupted,
            attempt: 1,
            retryable: false,
        });
        sink.on_event(&SearchEvent::GenomeQuarantined {
            attempts: 1,
            kind: FailureKind::Corrupted,
        });
        sink.on_event(&SearchEvent::SpanEnd { name: "scoring", nanos: 1_000 });
        sink.on_event(&SearchEvent::GenerationEnd {
            generation: 0,
            best: 2.0,
            mean: 2.5,
            best_so_far: 2.0,
            distinct_evals: 1,
            cache_hits: 1,
            infeasible: 1,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["evals_total"], 1);
        assert_eq!(snap.counters["evals_cached"], 1);
        assert_eq!(snap.counters["evals_infeasible"], 1);
        assert_eq!(snap.counters["eval_tool_secs"], 60);
        assert_eq!(snap.counters["mutations_total"], 1);
        assert_eq!(snap.counters["hint_applied_bias"], 1);
        assert_eq!(snap.counters["mutations_param_width"], 1);
        assert_eq!(snap.counters["selections_total"], 1);
        assert_eq!(snap.gauges["best_value"], 2.0);
        assert_eq!(snap.histograms["span_scoring_secs"].count, 1);
        assert_eq!(snap.counters["eval_batches"], 1);
        assert_eq!(snap.counters["cache_shard_contentions"], 2);
        assert_eq!(snap.histograms["eval_batch_size"].count, 1);
        assert!((snap.histograms["eval_batch_size"].sum - 7.0).abs() < 1e-9);
        assert_eq!(snap.counters["eval_failures_total"], 2);
        assert_eq!(snap.counters["eval_failures_transient"], 1);
        assert_eq!(snap.counters["eval_failures_corrupted"], 1);
        assert_eq!(snap.counters["eval_retries_total"], 1);
        assert_eq!(snap.counters["evals_recovered"], 1);
        assert_eq!(snap.counters["genomes_quarantined"], 1);
        assert_eq!(snap.histograms["retry_backoff_secs"].count, 1);
        assert!((snap.histograms["retry_backoff_secs"].sum - 0.002).abs() < 1e-9);
    }

    #[test]
    fn metrics_sink_folds_durability_events() {
        let reg = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&reg));
        sink.on_event(&SearchEvent::CheckpointWritten {
            generation: 1,
            bytes: 2048,
            write_nanos: 3_000_000,
            path: "ckpt/ckpt-00000001.nckpt".into(),
        });
        sink.on_event(&SearchEvent::CheckpointWritten {
            generation: 2,
            bytes: 4096,
            write_nanos: 1_000_000,
            path: "ckpt/ckpt-00000002.nckpt".into(),
        });
        sink.on_event(&SearchEvent::CheckpointCorruptSkipped {
            path: "ckpt/ckpt-00000002.nckpt".into(),
            reason: "crc mismatch".into(),
        });
        sink.on_event(&SearchEvent::CheckpointRestored {
            generation: 1,
            path: "ckpt/ckpt-00000001.nckpt".into(),
        });
        sink.on_event(&SearchEvent::RunInterrupted { generation: 2, reason: "cancelled".into() });
        sink.on_event(&SearchEvent::RunResumed {
            strategy: "baseline".into(),
            seed: 7,
            generation: 2,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["checkpoints_written"], 2);
        assert_eq!(snap.counters["checkpoints_restored"], 1);
        assert_eq!(snap.counters["checkpoints_corrupt_skipped"], 1);
        assert_eq!(snap.counters["runs_interrupted"], 1);
        assert_eq!(snap.counters["runs_resumed"], 1);
        assert_eq!(snap.histograms["checkpoint_bytes"].count, 2);
        assert!((snap.histograms["checkpoint_bytes"].sum - 6144.0).abs() < 1e-6);
        assert_eq!(snap.histograms["checkpoint_write_secs"].count, 2);
        assert!((snap.histograms["checkpoint_write_secs"].sum - 0.004).abs() < 1e-9);
    }

    #[test]
    fn metrics_sink_folds_supervision_events() {
        let reg = Arc::new(MetricsRegistry::new());
        let sink = MetricsSink::new(Arc::clone(&reg));
        sink.on_event(&SearchEvent::WatchdogFired {
            attempt: 1,
            limit_ms: 500,
            late_result_discarded: false,
        });
        sink.on_event(&SearchEvent::HedgeIssued { attempt: 1 });
        sink.on_event(&SearchEvent::HedgeResolved { won: true });
        sink.on_event(&SearchEvent::HedgeIssued { attempt: 2 });
        sink.on_event(&SearchEvent::HedgeResolved { won: false });
        sink.on_event(&SearchEvent::BreakerTransition {
            from: crate::event::HealthState::Closed,
            to: crate::event::HealthState::Open,
        });
        sink.on_event(&SearchEvent::EvalShed);
        sink.on_event(&SearchEvent::EvalShed);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["watchdog_fired"], 1);
        assert_eq!(snap.counters["hedges_issued"], 2);
        assert_eq!(snap.counters["hedges_won"], 1);
        assert_eq!(snap.counters["hedges_wasted"], 1);
        assert_eq!(snap.counters["breaker_transitions"], 1);
        assert_eq!(snap.counters["evals_shed"], 2);
    }
}
