//! Time-attribution profiling: phase spans, per-worker recorders, and
//! Chrome/Perfetto trace export.
//!
//! The profiling subsystem answers "where did the wall-clock go?" without
//! perturbing the search: a [`SpanRecorder`] buffers [`SpanRecord`]s in a
//! thread-local `Vec` (no locks, no allocation once the buffer is warm)
//! and flushes them into the shared [`Tracer`] only at deterministic
//! barriers — the generation merge point for the engine's merge thread,
//! worker teardown for batch workers. Recorders never touch the RNG or
//! the search-event stream, so a traced run is bit-for-bit identical to
//! an untraced one.
//!
//! Two consumers sit on top:
//!
//! * [`Tracer::to_chrome_json`] emits Chrome/Perfetto trace-event JSON
//!   (one track per worker plus the merge thread) for `ui.perfetto.dev`.
//! * [`Tracer::phase_stats`] aggregates per-phase total/self time for the
//!   `phases` block of a schema-6 `RunReport`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::JsonObj;

/// The instrumented phases of a search run.
///
/// Ordering is the canonical reporting order: the whole-run root first,
/// then the merge-thread phases roughly in per-generation execution
/// order, then worker- and cache-side phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Whole-run root span on the merge track; its self time is the
    /// wall-clock not attributed to any finer phase.
    Run,
    /// Seeding the initial population (generation 0 evaluations).
    InitPopulation,
    /// Scoring one generation end to end (lookups, dispatch, merge).
    Scoring,
    /// One selection-operator invocation.
    Selection,
    /// One crossover-operator invocation.
    Crossover,
    /// One mutation-operator invocation.
    Mutation,
    /// Evaluation-cache lookups (one per scored genome, plus one pass per
    /// prefetched batch).
    CacheLookup,
    /// Evaluating one cache miss (on worker tracks when prefetched).
    MissEval,
    /// Handing a generation's miss chunks to the persistent worker pool
    /// (publish + unpark; the wait is [`Phase::BatchWait`]).
    BatchDispatch,
    /// Merge thread blocked waiting for pool workers to finish a batch.
    BatchWait,
    /// Folding prefetched results back into the event stream and the
    /// scoring loop.
    BatchMerge,
    /// Writing one durable checkpoint.
    CheckpointIo,
}

impl Phase {
    /// Stable snake_case label used in trace JSON and report JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::InitPopulation => "init_population",
            Phase::Scoring => "scoring",
            Phase::Selection => "selection",
            Phase::Crossover => "crossover",
            Phase::Mutation => "mutation",
            Phase::CacheLookup => "cache_lookup",
            Phase::MissEval => "miss_eval",
            Phase::BatchDispatch => "batch_dispatch",
            Phase::BatchWait => "batch_wait",
            Phase::BatchMerge => "batch_merge",
            Phase::CheckpointIo => "checkpoint_io",
        }
    }
}

/// One closed span: `phase` ran on `track` for `dur_nanos`, starting
/// `start_nanos` after the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Track index (0 = first registered track, usually the merge thread).
    pub track: u32,
    /// What ran.
    pub phase: Phase,
    /// Start offset from the tracer epoch, in nanoseconds.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub dur_nanos: u64,
}

/// Aggregated timing for one phase across every track.
///
/// `total_nanos` counts each span's full duration; `self_nanos` subtracts
/// the time spent in spans nested inside it on the same track, so the
/// self times of a track's phases telescope to that track's root span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans observed.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_nanos: u64,
    /// Sum of span durations minus same-track nested children.
    pub self_nanos: u64,
    /// Longest single span in nanoseconds.
    pub max_nanos: u64,
}

/// Central collector for span records.
///
/// A `Tracer` is shared by reference across the engine and its workers;
/// each participant records through its own [`SpanRecorder`] and the
/// tracer's mutex is touched only on flush.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<TraceState>,
}

#[derive(Debug, Default)]
struct TraceState {
    tracks: Vec<String>,
    spans: Vec<SpanRecord>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Initial capacity of a recorder's local buffer; sized so a generation's
/// worth of spans never reallocates on the hot path.
const RECORDER_BUF_CAPACITY: usize = 128;

impl Tracer {
    /// Creates an empty tracer whose epoch is "now".
    #[must_use]
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), state: Mutex::new(TraceState::default()) }
    }

    /// Nanoseconds elapsed since the tracer epoch.
    fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a recorder on the track named `name`, registering the track
    /// on first use (repeated names share one track).
    #[must_use]
    pub fn recorder(&self, name: &str) -> SpanRecorder<'_> {
        let mut state = self.state.lock().expect("tracer lock poisoned");
        let track = match state.tracks.iter().position(|t| t == name) {
            Some(i) => i,
            None => {
                state.tracks.push(name.to_owned());
                state.tracks.len() - 1
            }
        };
        drop(state);
        let track = u32::try_from(track).expect("track count exceeds u32");
        SpanRecorder { tracer: self, track, buf: Vec::with_capacity(RECORDER_BUF_CAPACITY) }
    }

    /// Registered track names, in track-index order.
    #[must_use]
    pub fn tracks(&self) -> Vec<String> {
        self.state.lock().expect("tracer lock poisoned").tracks.clone()
    }

    /// Every flushed span record (flush order; not sorted).
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state.lock().expect("tracer lock poisoned").spans.clone()
    }

    /// Per-phase aggregated stats across all tracks.
    ///
    /// Self time is computed per track by interval nesting: spans are
    /// sorted by start (ties broken longest-first) and each span's
    /// duration is charged against the innermost enclosing span on the
    /// same track.
    #[must_use]
    pub fn phase_stats(&self) -> BTreeMap<Phase, PhaseStat> {
        let state = self.state.lock().expect("tracer lock poisoned");
        let mut stats: BTreeMap<Phase, PhaseStat> = BTreeMap::new();
        let mut by_track: BTreeMap<u32, Vec<SpanRecord>> = BTreeMap::new();
        for s in &state.spans {
            let entry = stats.entry(s.phase).or_default();
            entry.count += 1;
            entry.total_nanos += s.dur_nanos;
            entry.max_nanos = entry.max_nanos.max(s.dur_nanos);
            by_track.entry(s.track).or_default().push(*s);
        }
        // Innermost-enclosing attribution per track.
        struct Open {
            end: u64,
            phase: Phase,
            dur: u64,
            children: u64,
        }
        for spans in by_track.values_mut() {
            spans.sort_by(|a, b| {
                a.start_nanos.cmp(&b.start_nanos).then(b.dur_nanos.cmp(&a.dur_nanos))
            });
            let mut open: Vec<Open> = Vec::new();
            let settle = |stats: &mut BTreeMap<Phase, PhaseStat>, o: Open| {
                let entry = stats.entry(o.phase).or_default();
                entry.self_nanos += o.dur.saturating_sub(o.children);
            };
            for s in spans.iter() {
                while open.last().is_some_and(|o| o.end <= s.start_nanos) {
                    let o = open.pop().expect("checked non-empty");
                    settle(&mut stats, o);
                }
                if let Some(parent) = open.last_mut() {
                    parent.children += s.dur_nanos;
                }
                open.push(Open {
                    end: s.start_nanos.saturating_add(s.dur_nanos),
                    phase: s.phase,
                    dur: s.dur_nanos,
                    children: 0,
                });
            }
            while let Some(o) = open.pop() {
                settle(&mut stats, o);
            }
        }
        stats
    }

    /// Serializes every track and span as Chrome trace-event JSON
    /// (loadable by `ui.perfetto.dev` and `chrome://tracing`).
    ///
    /// One metadata event names each track; spans become complete (`"X"`)
    /// events with microsecond timestamps, sorted by track then start so
    /// the output is a pure function of the recorded span set.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let state = self.state.lock().expect("tracer lock poisoned");
        let mut events: Vec<String> = Vec::with_capacity(state.tracks.len() + state.spans.len());
        for (tid, name) in state.tracks.iter().enumerate() {
            let mut args = JsonObj::new();
            args.str("name", name);
            let mut m = JsonObj::new();
            m.str("ph", "M")
                .u64("pid", 1)
                .u64("tid", tid as u64)
                .str("name", "thread_name")
                .raw("args", &args.finish());
            events.push(m.finish());
        }
        let mut spans = state.spans.clone();
        spans.sort_by_key(|s| (s.track, s.start_nanos, std::cmp::Reverse(s.dur_nanos)));
        for s in &spans {
            let mut x = JsonObj::new();
            x.str("ph", "X")
                .u64("pid", 1)
                .u64("tid", u64::from(s.track))
                .str("name", s.phase.label())
                .str("cat", "nautilus")
                .f64("ts", s.start_nanos as f64 / 1000.0)
                .f64("dur", s.dur_nanos as f64 / 1000.0);
            events.push(x.finish());
        }
        let mut root = JsonObj::new();
        root.arr_raw("traceEvents", &events).str("displayTimeUnit", "ms");
        root.finish()
    }
}

/// An in-flight span's start timestamp (nanoseconds past the epoch).
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    nanos: u64,
}

/// A per-thread span buffer bound to one [`Tracer`] track.
///
/// `begin`/`end` only read the clock and push into a preallocated local
/// `Vec`; the tracer's lock is taken solely by [`SpanRecorder::flush`]
/// (also run on drop). Keep one recorder per thread and flush at
/// deterministic barriers.
#[derive(Debug)]
pub struct SpanRecorder<'t> {
    tracer: &'t Tracer,
    track: u32,
    buf: Vec<SpanRecord>,
}

impl SpanRecorder<'_> {
    /// Marks the start of a span.
    #[must_use]
    pub fn begin(&self) -> SpanStart {
        SpanStart { nanos: self.tracer.now_nanos() }
    }

    /// Closes a span opened with [`SpanRecorder::begin`] as `phase`.
    pub fn end(&mut self, phase: Phase, start: SpanStart) {
        let now = self.tracer.now_nanos();
        self.buf.push(SpanRecord {
            track: self.track,
            phase,
            start_nanos: start.nanos,
            dur_nanos: now.saturating_sub(start.nanos),
        });
    }

    /// Runs `f` inside a `phase` span.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = self.begin();
        let out = f();
        self.end(phase, start);
        out
    }

    /// Drains the local buffer into the shared tracer.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut state = self.tracer.state.lock().expect("tracer lock poisoned");
        state.spans.append(&mut self.buf);
    }
}

impl Drop for SpanRecorder<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Writes a [`Tracer`]'s Chrome trace JSON to a file.
#[derive(Debug, Clone)]
pub struct TraceSink {
    path: PathBuf,
}

impl TraceSink {
    /// A sink that will write `path` (parent directories must exist).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> TraceSink {
        TraceSink { path: path.into() }
    }

    /// The destination path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serializes `tracer` and writes the trace file, returning the byte
    /// count written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write.
    pub fn write(&self, tracer: &Tracer) -> std::io::Result<u64> {
        let json = tracer.to_chrome_json();
        std::fs::write(&self.path, json.as_bytes())?;
        Ok(json.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn span(track: u32, phase: Phase, start: u64, dur: u64) -> SpanRecord {
        SpanRecord { track, phase, start_nanos: start, dur_nanos: dur }
    }

    /// A tracer with fully controlled contents, for golden tests.
    fn synthetic(tracks: &[&str], spans: &[SpanRecord]) -> Tracer {
        let tracer = Tracer::new();
        {
            let mut state = tracer.state.lock().unwrap();
            state.tracks = tracks.iter().map(|t| (*t).to_owned()).collect();
            state.spans = spans.to_vec();
        }
        tracer
    }

    #[test]
    fn recorder_buffers_locally_and_flushes_to_the_tracer() {
        let tracer = Tracer::new();
        let mut rec = tracer.recorder("merge");
        let out = rec.time(Phase::Scoring, || 42);
        assert_eq!(out, 42);
        assert!(tracer.spans().is_empty(), "span must stay local until flush");
        rec.flush();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].phase, Phase::Scoring);
        assert_eq!(spans[0].track, 0);
        let stats = tracer.phase_stats();
        assert_eq!(stats[&Phase::Scoring].count, 1);
    }

    #[test]
    fn dropping_a_recorder_flushes_it() {
        let tracer = Tracer::new();
        {
            let mut rec = tracer.recorder("worker-0");
            rec.time(Phase::MissEval, || ());
        }
        assert_eq!(tracer.spans().len(), 1);
        assert_eq!(tracer.tracks(), vec!["worker-0".to_owned()]);
    }

    #[test]
    fn repeated_track_names_share_one_track() {
        let tracer = Tracer::new();
        {
            let mut a = tracer.recorder("worker-0");
            a.time(Phase::MissEval, || ());
        }
        {
            let mut b = tracer.recorder("worker-0");
            b.time(Phase::MissEval, || ());
        }
        assert_eq!(tracer.tracks().len(), 1);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.track == 0));
    }

    #[test]
    fn self_time_subtracts_nested_children_per_track() {
        let tracer = synthetic(
            &["merge"],
            &[
                span(0, Phase::Run, 0, 1000),
                span(0, Phase::Scoring, 100, 500),
                span(0, Phase::CacheLookup, 150, 100),
                span(0, Phase::MissEval, 300, 200),
                span(0, Phase::Selection, 700, 100),
            ],
        );
        let stats = tracer.phase_stats();
        assert_eq!(stats[&Phase::Run].total_nanos, 1000);
        assert_eq!(stats[&Phase::Run].self_nanos, 400); // 1000 - 500 - 100
        assert_eq!(stats[&Phase::Scoring].self_nanos, 200); // 500 - 100 - 200
        assert_eq!(stats[&Phase::CacheLookup].self_nanos, 100);
        assert_eq!(stats[&Phase::MissEval].self_nanos, 200);
        assert_eq!(stats[&Phase::Selection].self_nanos, 100);
        // Self times telescope back to the root total.
        let sum: u64 = stats.values().map(|s| s.self_nanos).sum();
        assert_eq!(sum, stats[&Phase::Run].total_nanos);
    }

    #[test]
    fn tracks_attribute_independently() {
        let tracer = synthetic(
            &["merge", "worker-0"],
            &[
                span(0, Phase::Run, 0, 1000),
                // Same window on another track must not nest under Run.
                span(1, Phase::MissEval, 100, 800),
            ],
        );
        let stats = tracer.phase_stats();
        assert_eq!(stats[&Phase::Run].self_nanos, 1000);
        assert_eq!(stats[&Phase::MissEval].self_nanos, 800);
    }

    #[test]
    fn chrome_json_matches_the_golden_output() {
        let tracer = synthetic(
            &["merge", "worker-0"],
            &[
                // Deliberately out of order: export must sort by track/start.
                span(1, Phase::MissEval, 250, 1500),
                span(0, Phase::Run, 0, 2000),
            ],
        );
        let json = tracer.to_chrome_json();
        assert!(parse_json(&json).is_ok(), "invalid: {json}");
        let expected = concat!(
            r#"{"traceEvents":["#,
            r#"{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"merge"}},"#,
            r#"{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"worker-0"}},"#,
            r#"{"ph":"X","pid":1,"tid":0,"name":"run","cat":"nautilus","ts":0.0,"dur":2.0},"#,
            r#"{"ph":"X","pid":1,"tid":1,"name":"miss_eval","cat":"nautilus","ts":0.25,"dur":1.5}"#,
            r#"],"displayTimeUnit":"ms"}"#,
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn trace_sink_writes_a_loadable_file() {
        let dir = std::env::temp_dir().join(format!("nautilus-span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let tracer = synthetic(&["merge"], &[span(0, Phase::Run, 0, 100)]);
        let sink = TraceSink::new(&path);
        let bytes = sink.write(&tracer).unwrap();
        let text = std::fs::read_to_string(sink.path()).unwrap();
        assert_eq!(bytes as usize, text.len());
        assert!(parse_json(&text).is_ok());
        assert!(text.contains("\"traceEvents\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
