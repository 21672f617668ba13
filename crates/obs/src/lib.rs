//! `nautilus-obs` — dependency-free observability for the Nautilus search
//! stack.
//!
//! The engine in `nautilus-ga` / `nautilus` is otherwise a black box
//! between "run the search" and a final `SearchOutcome`. This crate makes
//! the inside visible without adding any external dependency (the build
//! environment is offline): std atomics, `Mutex`, and a hand-rolled JSON
//! emitter are the whole footprint. Three pillars:
//!
//! 1. **Structured event bus** — the [`SearchObserver`] trait receives
//!    typed [`SearchEvent`]s. The default [`noop`] observer reports
//!    itself disabled so emitters pay one predictable branch and never
//!    allocate. [`JsonlSink`] streams events as JSON Lines;
//!    [`InMemorySink`] buffers them, for tests and for a caller that
//!    builds artifacts from a run's stream; [`Fanout`] broadcasts to
//!    several observers at once.
//! 2. **Per-run reports** — [`ReportBuilder`], the one fold of the event
//!    stream, aggregates one run's events into a [`RunReport`]
//!    (per-generation hint/decay/cache dynamics plus whole-run tallies)
//!    that serializes to a summary JSON document.
//! 3. **Time-attribution profiling** — a [`Tracer`], the one timer,
//!    collects per-thread [`Phase`] span timelines through buffered
//!    [`SpanRecorder`]s (flushed only at deterministic merge points, so
//!    tracing never perturbs a search), exports Chrome/Perfetto trace
//!    JSON via [`TraceSink`], and aggregates [`Tracer::phase_stats`] for
//!    the report's `phases` block. [`BatchEventBuffer`] /
//!    [`capture_events`] defer worker-side events to the same merge
//!    points so parallel event streams replay exactly like serial ones.
//!
//! A typical instrumented run fans a streaming sink and a report builder
//! out to the same engine:
//!
//! ```no_run
//! use nautilus_obs::{Fanout, JsonlSink, ReportBuilder, SearchObserver};
//!
//! let jsonl = JsonlSink::create("run.jsonl").unwrap();
//! let report = ReportBuilder::new();
//! let fan = Fanout::pair(&jsonl, &report);
//! // ... hand `&fan` to the engine as its `&dyn SearchObserver` ...
//! # fan.on_event(&nautilus_obs::SearchEvent::ParetoUpdated { size: 0 });
//! jsonl.flush().unwrap();
//! let summary = report.finish().to_json();
//! # let _ = summary;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod event;
pub mod json;
pub mod observer;
pub mod report;
pub mod sink;
pub mod span;
pub mod wire;

pub use buffer::{capture_events, BatchEventBuffer};
pub use event::{FailureKind, HealthState, HintKind, SearchEvent};
pub use observer::{noop, Fanout, NoopObserver, SearchObserver};
pub use report::{
    DurabilityTally, EdgeTally, EvalTally, FaultTally, GenerationTelemetry, HealthTally, HintTally,
    ReportBuilder, RunReport, ServiceTally, SubprocessTally,
};
pub use sink::{InMemorySink, JsonlSink};
pub use span::{Phase, PhaseStat, SpanRecord, SpanRecorder, SpanStart, TraceSink, Tracer};
pub use wire::{crc32, Envelope, FrameError, WireError, WireReader, WireWriter};
