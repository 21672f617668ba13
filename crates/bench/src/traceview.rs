//! Offline analysis of Nautilus profiling artifacts — the library behind
//! the `nautilus-trace` binary.
//!
//! Two artifact kinds come out of a traced run (see
//! [`nautilus::Nautilus::with_tracer`]):
//!
//! * a Chrome/Perfetto trace-event JSON file written by
//!   [`nautilus::TraceSink`] (an object with a `traceEvents` array), and
//! * the usual JSONL [`nautilus::SearchEvent`] stream.
//!
//! [`parse_trace`] loads the former into a [`TraceData`]; [`summarize`]
//! turns it into the phase table / worker-utilization / critical-path
//! report printed by `nautilus-trace summarize`; [`digest`] reduces it to
//! the timing-invariant [`TraceDigest`] that `nautilus-trace diff`
//! compares. Same-seed runs must digest identically — span *timestamps*
//! differ run to run, span *structure* must not — which is what the
//! `scripts/check.sh` trace-determinism gate enforces.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use nautilus::obs::json::{parse_json, JsonValue};

/// Why a trace artifact could not be analyzed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceViewError(pub String);

impl fmt::Display for TraceViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for TraceViewError {}

fn malformed<T>(msg: impl Into<String>) -> Result<T, TraceViewError> {
    Err(TraceViewError(msg.into()))
}

/// One complete span parsed from a trace file (Chrome `"X"` event).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Track index (`tid` in the trace).
    pub track: u32,
    /// Phase label (the event `name`).
    pub phase: String,
    /// Start timestamp, microseconds from the run epoch.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// A parsed trace file: named tracks and complete spans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceData {
    /// Track index → track name, from `thread_name` metadata events.
    pub tracks: BTreeMap<u32, String>,
    /// Complete spans in file order (sorted by track, then start).
    pub spans: Vec<TraceSpan>,
}

/// Parses a Chrome/Perfetto trace-event JSON file as written by
/// [`nautilus::TraceSink`].
///
/// # Errors
///
/// Rejects anything that is not a JSON object with a `traceEvents`
/// array of well-formed metadata/span events whose spans all reference
/// named tracks. Other top-level members are ignored, including the
/// aggregate sidecar that traces from older builds carry.
pub fn parse_trace(text: &str) -> Result<TraceData, TraceViewError> {
    let root = match parse_json(text) {
        Ok(v) => v,
        Err(e) => return malformed(format!("not valid JSON: {e}")),
    };
    let events = match root.get("traceEvents").and_then(JsonValue::as_arr) {
        Some(events) => events,
        None => return malformed("missing `traceEvents` array (not a trace file?)"),
    };
    let mut data = TraceData::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph").and_then(JsonValue::as_str) {
            Some(ph) => ph,
            None => return malformed(format!("traceEvents[{i}] has no `ph` kind")),
        };
        match ph {
            "M" => {
                if ev.get("name").and_then(JsonValue::as_str) != Some("thread_name") {
                    continue;
                }
                let tid = ev.get("tid").and_then(JsonValue::as_u64);
                let name = ev.get("args").and_then(|a| a.get("name")).and_then(JsonValue::as_str);
                match (tid, name) {
                    (Some(tid), Some(name)) => {
                        data.tracks.insert(tid as u32, name.to_owned());
                    }
                    _ => return malformed(format!("traceEvents[{i}]: bad thread_name metadata")),
                }
            }
            "X" => {
                let span = TraceSpan {
                    track: match ev.get("tid").and_then(JsonValue::as_u64) {
                        Some(tid) => tid as u32,
                        None => return malformed(format!("traceEvents[{i}]: span without tid")),
                    },
                    phase: match ev.get("name").and_then(JsonValue::as_str) {
                        Some(name) => name.to_owned(),
                        None => return malformed(format!("traceEvents[{i}]: span without name")),
                    },
                    ts_us: match ev.get("ts").and_then(JsonValue::as_f64) {
                        Some(ts) if ts >= 0.0 => ts,
                        _ => return malformed(format!("traceEvents[{i}]: span without ts")),
                    },
                    dur_us: match ev.get("dur").and_then(JsonValue::as_f64) {
                        Some(dur) if dur >= 0.0 => dur,
                        _ => return malformed(format!("traceEvents[{i}]: span without dur")),
                    },
                };
                data.spans.push(span);
            }
            other => return malformed(format!("traceEvents[{i}]: unsupported kind `{other}`")),
        }
    }
    for (i, s) in data.spans.iter().enumerate() {
        if !data.tracks.contains_key(&s.track) {
            return malformed(format!("span {i} references unnamed track {}", s.track));
        }
    }
    Ok(data)
}

/// One row of a per-phase attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase label.
    pub phase: String,
    /// Number of spans.
    pub count: u64,
    /// Total time, microseconds.
    pub total_us: f64,
    /// Self time (total minus enclosed child spans), microseconds.
    pub self_us: f64,
    /// Self time as a percentage of the run's wall clock. In the
    /// cross-worker table this is CPU time over wall time, so the column
    /// can legitimately sum past 100% when workers run concurrently.
    pub percent_of_wall: f64,
}

/// One row of the per-track utilization table.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackRow {
    /// Track name.
    pub track: String,
    /// Union of busy intervals on the track, microseconds.
    pub busy_us: f64,
    /// Busy time as a fraction of the run's wall clock.
    pub utilization: f64,
}

/// The `nautilus-trace summarize` report.
///
/// ## Attribution semantics
///
/// Phase time is attributed **per track**: self time is computed against
/// the innermost enclosing span *on the same track*, never across
/// threads. [`TraceSummary::phases`] covers only the primary track (the
/// one carrying the `run` root span — the merge thread), so its self
/// times telescope to the run's wall clock and `wall%` sums to ~100%.
/// Spans recorded by other tracks (parallel eval workers) land in
/// [`TraceSummary::worker_phases`]; that table reports concurrent CPU
/// time, which exceeds wall clock as soon as two workers overlap — mixing
/// the two tables into one, as earlier versions did, silently inflated
/// `wall%` on multi-worker runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Run wall clock, microseconds (the `run` root span, or the overall
    /// span extent when no root was recorded).
    pub wall_us: f64,
    /// Primary-track (merge-thread) attribution, largest self time first.
    /// Self times telescope to the wall clock.
    pub phases: Vec<PhaseRow>,
    /// Cross-worker aggregate: spans from every non-primary track,
    /// largest self time first. Totals are summed CPU time across
    /// concurrent workers and may exceed the wall clock.
    pub worker_phases: Vec<PhaseRow>,
    /// Per-track busy time and utilization, in track order.
    pub tracks: Vec<TrackRow>,
    /// Estimated wall clock with perfect worker overlap: merge-side time
    /// plus, per batch window (`batch_wait`, plus `batch_dispatch` for
    /// traces predating the dispatch/wait split), only the busiest
    /// worker's time.
    pub critical_path_us: f64,
}

/// Union length of `intervals` (each `(start, end)`), tolerant of overlap.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Computes the summarize report from a parsed trace.
#[must_use]
pub fn summarize(data: &TraceData) -> TraceSummary {
    let extent_start = data.spans.iter().map(|s| s.ts_us).fold(f64::INFINITY, f64::min);
    let extent_end =
        data.spans.iter().map(|s| s.ts_us + s.dur_us).fold(f64::NEG_INFINITY, f64::max);
    let extent = if data.spans.is_empty() { 0.0 } else { extent_end - extent_start };
    let wall_us =
        data.spans.iter().find(|s| s.phase == "run").map_or(extent, |s| s.dur_us).max(1e-9);

    // The primary track carries the `run` root span (the merge thread);
    // everything else is a worker track whose time is concurrent CPU
    // time, accumulated into a separate cross-worker table.
    let primary_track = data
        .spans
        .iter()
        .find(|s| s.phase == "run")
        .map(|s| s.track)
        .or_else(|| data.tracks.keys().next().copied());

    // Per-phase totals and per-track innermost-enclosing self times (the
    // same attribution `Tracer::phase_stats` computes pre-export). Self
    // time is strictly per track: a span never pays for spans that other
    // threads recorded while it was open.
    let mut primary: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    let mut workers: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    let mut by_track: BTreeMap<u32, Vec<&TraceSpan>> = BTreeMap::new();
    for s in &data.spans {
        let totals = if Some(s.track) == primary_track { &mut primary } else { &mut workers };
        let entry = totals.entry(s.phase.clone()).or_default();
        entry.0 += 1;
        entry.1 += s.dur_us;
        by_track.entry(s.track).or_default().push(s);
    }
    for (track, spans) in by_track.iter_mut() {
        let totals = if Some(*track) == primary_track { &mut primary } else { &mut workers };
        spans.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us).then(b.dur_us.total_cmp(&a.dur_us)));
        struct Open<'a> {
            end: f64,
            phase: &'a str,
            dur: f64,
            children: f64,
        }
        let mut open: Vec<Open> = Vec::new();
        let settle = |totals: &mut BTreeMap<String, (u64, f64, f64)>, o: Open| {
            let entry = totals.entry(o.phase.to_owned()).or_default();
            entry.2 += (o.dur - o.children).max(0.0);
        };
        for s in spans.iter() {
            while open.last().is_some_and(|o| o.end <= s.ts_us) {
                let o = open.pop().expect("checked non-empty");
                settle(totals, o);
            }
            if let Some(parent) = open.last_mut() {
                parent.children += s.dur_us;
            }
            open.push(Open {
                end: s.ts_us + s.dur_us,
                phase: &s.phase,
                dur: s.dur_us,
                children: 0.0,
            });
        }
        while let Some(o) = open.pop() {
            settle(totals, o);
        }
    }
    let rows = |totals: BTreeMap<String, (u64, f64, f64)>| -> Vec<PhaseRow> {
        let mut rows: Vec<PhaseRow> = totals
            .into_iter()
            .map(|(phase, (count, total_us, self_us))| PhaseRow {
                phase,
                count,
                total_us,
                self_us,
                percent_of_wall: 100.0 * self_us / wall_us,
            })
            .collect();
        rows.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
        rows
    };
    let phases = rows(primary);
    let worker_phases = rows(workers);

    let tracks: Vec<TrackRow> = data
        .tracks
        .iter()
        .map(|(tid, name)| {
            let busy = union_len(
                data.spans
                    .iter()
                    .filter(|s| s.track == *tid)
                    .map(|s| (s.ts_us, s.ts_us + s.dur_us))
                    .collect(),
            );
            TrackRow { track: name.clone(), busy_us: busy, utilization: busy / wall_us }
        })
        .collect();

    // Critical path: outside batch windows the merge thread is the only
    // actor, so those intervals count in full; inside a window only the
    // busiest worker bounds progress. `batch_wait` is the blocking window
    // on the merge thread; `batch_dispatch` is kept for traces recorded
    // before the dispatch/wait split, where it covered the whole window.
    let mut critical = wall_us;
    for d in data.spans.iter().filter(|s| s.phase == "batch_wait" || s.phase == "batch_dispatch") {
        let (w0, w1) = (d.ts_us, d.ts_us + d.dur_us);
        let busiest = data
            .tracks
            .keys()
            .filter(|tid| **tid != d.track)
            .map(|tid| {
                union_len(
                    data.spans
                        .iter()
                        .filter(|s| s.track == *tid && s.ts_us < w1 && s.ts_us + s.dur_us > w0)
                        .map(|s| (s.ts_us.max(w0), (s.ts_us + s.dur_us).min(w1)))
                        .collect(),
                )
            })
            .fold(0.0, f64::max);
        critical -= d.dur_us - busiest.min(d.dur_us);
    }

    TraceSummary { wall_us, phases, worker_phases, tracks, critical_path_us: critical.max(0.0) }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "wall clock      {:>12.3} ms", self.wall_us / 1000.0)?;
        writeln!(
            f,
            "critical path   {:>12.3} ms (perfect worker overlap)",
            self.critical_path_us / 1000.0
        )?;
        writeln!(f)?;
        writeln!(
            f,
            "{:<18} {:>9} {:>12} {:>12} {:>7}",
            "phase", "count", "total ms", "self ms", "wall%"
        )?;
        for row in &self.phases {
            writeln!(
                f,
                "{:<18} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                row.phase,
                row.count,
                row.total_us / 1000.0,
                row.self_us / 1000.0,
                row.percent_of_wall
            )?;
        }
        if !self.worker_phases.is_empty() {
            writeln!(f)?;
            writeln!(
                f,
                "{:<18} {:>9} {:>12} {:>12} {:>7}",
                "workers (conc.)", "count", "total ms", "self ms", "wall%"
            )?;
            for row in &self.worker_phases {
                writeln!(
                    f,
                    "{:<18} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                    row.phase,
                    row.count,
                    row.total_us / 1000.0,
                    row.self_us / 1000.0,
                    row.percent_of_wall
                )?;
            }
        }
        writeln!(f)?;
        writeln!(f, "{:<18} {:>12} {:>12}", "track", "busy ms", "util")?;
        for row in &self.tracks {
            writeln!(
                f,
                "{:<18} {:>12.3} {:>11.1}%",
                row.track,
                row.busy_us / 1000.0,
                100.0 * row.utilization
            )?;
        }
        Ok(())
    }
}

/// The timing-invariant logical content of a trace: what must be
/// identical between two same-seed runs of the same build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDigest {
    /// Set of track names (worker count shows up here by design).
    pub tracks: BTreeSet<String>,
    /// Phase label → span count across all tracks.
    pub phase_counts: BTreeMap<String, u64>,
    /// Track name → ordered sequence of phase labels on that track.
    pub sequences: BTreeMap<String, Vec<String>>,
}

/// Reduces a trace to its [`TraceDigest`].
#[must_use]
pub fn digest(data: &TraceData) -> TraceDigest {
    let mut phase_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut sequences: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for name in data.tracks.values() {
        sequences.entry(name.clone()).or_default();
    }
    for s in &data.spans {
        *phase_counts.entry(s.phase.clone()).or_default() += 1;
        let name = &data.tracks[&s.track];
        sequences.entry(name.clone()).or_default().push(s.phase.clone());
    }
    TraceDigest { tracks: data.tracks.values().cloned().collect(), phase_counts, sequences }
}

/// Compares two digests, returning one human-readable line per logical
/// difference (empty = logically identical).
#[must_use]
pub fn diff_digests(a: &TraceDigest, b: &TraceDigest) -> Vec<String> {
    let mut out = Vec::new();
    for t in a.tracks.difference(&b.tracks) {
        out.push(format!("track `{t}` only in first trace"));
    }
    for t in b.tracks.difference(&a.tracks) {
        out.push(format!("track `{t}` only in second trace"));
    }
    let keys: BTreeSet<&String> = a.phase_counts.keys().chain(b.phase_counts.keys()).collect();
    for k in keys {
        let (ca, cb) = (
            a.phase_counts.get(k).copied().unwrap_or(0),
            b.phase_counts.get(k).copied().unwrap_or(0),
        );
        if ca != cb {
            out.push(format!("phase `{k}`: {ca} spans vs {cb}"));
        }
    }
    for (name, seq_a) in &a.sequences {
        if let Some(seq_b) = b.sequences.get(name) {
            if seq_a != seq_b {
                let at = seq_a
                    .iter()
                    .zip(seq_b)
                    .position(|(x, y)| x != y)
                    .unwrap_or(seq_a.len().min(seq_b.len()));
                out.push(format!("track `{name}`: span sequences diverge at index {at}"));
            }
        }
    }
    out
}

/// Canonical re-serialization of a parsed JSON value, used to compare
/// normalized JSONL events independent of input formatting.
fn render_json(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        JsonValue::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_json(item, out);
            }
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_json(&JsonValue::Str(k.clone()), out);
                out.push(':');
                render_json(val, out);
            }
            out.push('}');
        }
    }
}

/// Event types that are worker-count artifacts by contract, dropped
/// before comparing streams.
const SHAPE_EVENTS: [&str; 2] = ["eval_batch", "cache_shard_contended"];
/// Payload keys that carry wall-clock or filesystem noise, dropped before
/// comparing streams.
const TIMING_KEYS: [&str; 4] = ["nanos", "wall_nanos", "write_nanos", "path"];

/// Normalizes a JSONL [`nautilus::SearchEvent`] stream to its logical
/// content: drops batch-shape events and timing payload fields, then
/// re-serializes each remaining event canonically.
///
/// # Errors
///
/// Rejects lines that are not JSON objects with a `type` member.
pub fn normalize_events(text: &str) -> Result<Vec<String>, TraceViewError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = match parse_json(line) {
            Ok(v) => v,
            Err(e) => return malformed(format!("line {}: {e}", lineno + 1)),
        };
        let members = match v.as_obj() {
            Some(m) => m,
            None => return malformed(format!("line {}: not a JSON object", lineno + 1)),
        };
        let kind = match v.get("type").and_then(JsonValue::as_str) {
            Some(kind) => kind,
            None => return malformed(format!("line {}: event without `type`", lineno + 1)),
        };
        if SHAPE_EVENTS.contains(&kind) {
            continue;
        }
        let kept: Vec<(String, JsonValue)> =
            members.iter().filter(|(k, _)| !TIMING_KEYS.contains(&k.as_str())).cloned().collect();
        let mut line = String::new();
        render_json(&JsonValue::Obj(kept), &mut line);
        out.push(line);
    }
    Ok(out)
}

/// What `nautilus-trace diff` decided about a pair of artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffReport {
    /// Which comparison ran ("trace" or "events").
    pub mode: &'static str,
    /// One line per logical difference; empty means identical.
    pub differences: Vec<String>,
}

/// Diffs two artifacts' *logical* content, auto-detecting the format:
/// a JSON object with `traceEvents` is compared by [`TraceDigest`], a
/// JSONL event stream by normalized events. Both inputs must be the same
/// format.
///
/// # Errors
///
/// Propagates malformed-artifact errors and rejects mixed formats.
pub fn diff_artifacts(a: &str, b: &str) -> Result<DiffReport, TraceViewError> {
    let is_trace = |s: &str| {
        s.trim_start().starts_with('{')
            && parse_json(s).map(|v| v.get("traceEvents").is_some()).unwrap_or(false)
    };
    match (is_trace(a), is_trace(b)) {
        (true, true) => {
            let da = digest(&parse_trace(a)?);
            let db = digest(&parse_trace(b)?);
            Ok(DiffReport { mode: "trace", differences: diff_digests(&da, &db) })
        }
        (false, false) => {
            let na = normalize_events(a)?;
            let nb = normalize_events(b)?;
            let mut differences = Vec::new();
            if na.len() != nb.len() {
                differences.push(format!("{} logical events vs {}", na.len(), nb.len()));
            }
            if let Some(i) = na.iter().zip(&nb).position(|(x, y)| x != y) {
                differences.push(format!("event streams diverge at logical event {i}"));
            }
            Ok(DiffReport { mode: "events", differences })
        }
        _ => malformed("cannot diff a trace file against an event stream"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus::{Phase, Tracer};

    /// A tracer exercising nesting and two tracks.
    fn sample_tracer() -> Tracer {
        let tracer = Tracer::new();
        {
            let mut merge = tracer.recorder("merge");
            let run = merge.begin();
            let scoring = merge.begin();
            merge.time(Phase::CacheLookup, || std::hint::black_box(3));
            let dispatch = merge.begin();
            merge.end(Phase::BatchDispatch, dispatch);
            merge.end(Phase::Scoring, scoring);
            merge.time(Phase::Selection, || std::hint::black_box(1));
            merge.end(Phase::Run, run);
        }
        {
            let mut worker = tracer.recorder("worker-0");
            worker.time(Phase::MissEval, || std::hint::black_box(2));
            worker.time(Phase::MissEval, || std::hint::black_box(2));
        }
        tracer
    }

    #[test]
    fn parses_tracer_output_round_trip() {
        let tracer = sample_tracer();
        let data = parse_trace(&tracer.to_chrome_json()).unwrap();
        assert_eq!(
            data.tracks.values().cloned().collect::<Vec<_>>(),
            vec!["merge".to_owned(), "worker-0".to_owned()]
        );
        assert_eq!(data.spans.len(), 7);

        // A trace from an older build carries an aggregate sidecar, which
        // is ignored.
        let old = concat!(
            r#"{"traceEvents":["#,
            r#"{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"merge"}},"#,
            r#"{"ph":"X","pid":1,"tid":0,"name":"run","cat":"nautilus","ts":0.0,"dur":2.0}"#,
            r#"],"displayTimeUnit":"ms","#,
            r#""phaseAggregates":{"shard_lock_wait":{"count":2,"total_nanos":500,"max_nanos":300}}}"#,
        );
        let data = parse_trace(old).unwrap();
        assert_eq!(data.tracks[&0], "merge");
        assert_eq!(data.spans.len(), 1);
        assert!(summarize(&data).worker_phases.is_empty());
    }

    #[test]
    fn summarize_attributes_self_time_and_utilization() {
        let tracer = sample_tracer();
        let data = parse_trace(&tracer.to_chrome_json()).unwrap();
        let summary = summarize(&data);
        assert!(summary.wall_us > 0.0);
        // The primary table holds only merge-track phases, so its self
        // times telescope exactly to the run root's wall clock.
        let merge_self: f64 = summary.phases.iter().map(|p| p.self_us).sum();
        assert!(
            (merge_self - summary.wall_us).abs() <= summary.wall_us * 0.01,
            "self times must telescope: {merge_self} vs {}",
            summary.wall_us
        );
        // Worker-track spans land in the cross-worker table, never in the
        // primary one.
        assert!(summary.phases.iter().all(|p| p.phase != "miss_eval"));
        let miss = summary.worker_phases.iter().find(|p| p.phase == "miss_eval").unwrap();
        assert_eq!(miss.count, 2);
        let worker = summary.tracks.iter().find(|t| t.track == "worker-0").unwrap();
        assert!(worker.busy_us > 0.0);
        assert!(summary.critical_path_us <= summary.wall_us + 1e-9);
        let run = summary.phases.iter().find(|p| p.phase == "run").unwrap();
        assert_eq!(run.count, 1);
    }

    #[test]
    fn digest_is_timing_invariant() {
        // Two separate constructions: identical structure, different
        // wall-clock payloads.
        let a = digest(&parse_trace(&sample_tracer().to_chrome_json()).unwrap());
        let b = digest(&parse_trace(&sample_tracer().to_chrome_json()).unwrap());
        assert_eq!(a, b);
        assert!(diff_digests(&a, &b).is_empty());
        assert_eq!(a.sequences["worker-0"], vec!["miss_eval", "miss_eval"]);
    }

    #[test]
    fn diff_reports_structural_differences() {
        let a = digest(&parse_trace(&sample_tracer().to_chrome_json()).unwrap());
        let other = Tracer::new();
        {
            let mut merge = other.recorder("merge");
            merge.time(Phase::Selection, || std::hint::black_box(1));
        }
        let b = digest(&parse_trace(&other.to_chrome_json()).unwrap());
        let diffs = diff_digests(&a, &b);
        assert!(!diffs.is_empty());
        assert!(diffs.iter().any(|d| d.contains("worker-0")), "missing track reported: {diffs:?}");
    }

    #[test]
    fn malformed_traces_are_rejected() {
        for bad in [
            "not json",
            "[1, 2]",
            "{\"noTraceEvents\": []}",
            "{\"traceEvents\": [{\"name\": \"x\"}]}",
            "{\"traceEvents\": [{\"ph\": \"X\", \"tid\": 0, \"name\": \"run\", \"ts\": 0.0}]}",
            // Span on a track with no thread_name metadata.
            "{\"traceEvents\": [{\"ph\": \"X\", \"tid\": 9, \"name\": \"run\", \"ts\": 0.0, \"dur\": 1.0}]}",
        ] {
            assert!(parse_trace(bad).is_err(), "accepted malformed trace: {bad}");
        }
    }

    #[test]
    fn event_streams_normalize_timing_away() {
        let a = concat!(
            "{\"type\": \"run_start\", \"strategy\": \"baseline\", \"seed\": 7}\n",
            "{\"type\": \"eval_batch\", \"generation\": 0, \"size\": 4, \"workers\": 2}\n",
            "{\"type\": \"span_end\", \"name\": \"scoring\", \"nanos\": 1234}\n",
            "{\"type\": \"run_end\", \"best_value\": 1.5, \"distinct_evals\": 9, \"wall_nanos\": 88}\n",
        );
        let b = concat!(
            "{\"type\": \"run_start\", \"strategy\": \"baseline\", \"seed\": 7}\n",
            "{\"type\": \"span_end\", \"name\": \"scoring\", \"nanos\": 777}\n",
            "{\"type\": \"run_end\", \"best_value\": 1.5, \"distinct_evals\": 9, \"wall_nanos\": 99}\n",
        );
        let report = diff_artifacts(a, b).unwrap();
        assert_eq!(report.mode, "events");
        assert!(report.differences.is_empty(), "{:?}", report.differences);

        let c = "{\"type\": \"run_end\", \"best_value\": 2.5, \"distinct_evals\": 9}\n";
        let report = diff_artifacts(a, c).unwrap();
        assert!(!report.differences.is_empty());
        assert!(normalize_events("not json\n").is_err());
    }

    #[test]
    fn mixed_format_diffs_are_rejected() {
        let trace = sample_tracer().to_chrome_json();
        let events = "{\"type\": \"run_start\"}\n";
        assert!(diff_artifacts(&trace, events).is_err());
    }
}
