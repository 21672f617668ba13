//! Event sinks: an in-memory buffer and a streaming JSONL writer.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::SearchEvent;
use crate::observer::SearchObserver;

/// Buffers every event in memory, in arrival order.
///
/// Run a search against the sink, then read [`InMemorySink::events`]:
/// tests reconstruct what happened this way, and the daemon's runner
/// builds a job's normalized event stream from it.
#[derive(Debug, Default)]
pub struct InMemorySink {
    events: Mutex<Vec<SearchEvent>>,
}

impl InMemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        InMemorySink::default()
    }

    /// Number of buffered events.
    ///
    /// # Panics
    ///
    /// Panics if the sink mutex is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink poisoned").len()
    }

    /// Whether no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the buffered events, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if the sink mutex is poisoned.
    #[must_use]
    pub fn events(&self) -> Vec<SearchEvent> {
        self.events.lock().expect("sink poisoned").clone()
    }

    /// Discards all buffered events.
    ///
    /// # Panics
    ///
    /// Panics if the sink mutex is poisoned.
    pub fn clear(&self) {
        self.events.lock().expect("sink poisoned").clear();
    }
}

impl SearchObserver for InMemorySink {
    fn on_event(&self, event: &SearchEvent) {
        self.events.lock().expect("sink poisoned").push(event.clone());
    }
}

/// Streams events as JSON Lines — one [`SearchEvent::to_json`] object per
/// line — through an internal `BufWriter`.
///
/// Write errors are counted rather than propagated (observers are
/// infallible by design); check [`JsonlSink::write_errors`] or the result
/// of [`JsonlSink::flush`] if delivery matters.
pub struct JsonlSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    write_errors: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").field("write_errors", &self.write_errors()).finish()
    }
}

impl JsonlSink {
    /// Creates (truncating) the file at `path` and streams events to it.
    ///
    /// # Errors
    ///
    /// Returns any error from creating the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlSink::from_writer(Box::new(File::create(path)?)))
    }

    /// Streams events to an arbitrary writer.
    #[must_use]
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
            write_errors: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Number of events dropped due to I/O errors.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Flushes buffered lines to the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns any error from the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if the sink mutex is poisoned.
    pub fn flush(&self) -> io::Result<()> {
        self.writer.lock().expect("sink poisoned").flush()
    }
}

impl SearchObserver for JsonlSink {
    fn on_event(&self, event: &SearchEvent) {
        let mut line = event.to_json();
        line.push('\n');
        let mut w = self.writer.lock().expect("sink poisoned");
        if w.write_all(line.as_bytes()).is_err() {
            self.write_errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A `Write` handle over a shared byte buffer.
    #[derive(Clone)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn in_memory_sink_buffers_in_order() {
        let sink = InMemorySink::new();
        assert!(sink.is_empty());
        sink.on_event(&SearchEvent::GenerationStart { generation: 0 });
        sink.on_event(&SearchEvent::ParetoUpdated { size: 2 });
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[0], SearchEvent::GenerationStart { generation: 0 });
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_valid_line_per_event() {
        let buf = SharedBuf(Arc::new(StdMutex::new(Vec::new())));
        let sink = JsonlSink::from_writer(Box::new(buf.clone()));
        sink.on_event(&SearchEvent::GenerationStart { generation: 3 });
        sink.on_event(&SearchEvent::EvalCompleted { cached: true, feasible: true, tool_secs: 0 });
        sink.flush().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(parse_json(line).is_ok(), "invalid line: {line}");
        }
        assert!(lines[0].contains("\"type\":\"generation_start\""));
        assert_eq!(sink.write_errors(), 0);
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let buf = SharedBuf(Arc::new(StdMutex::new(Vec::new())));
        {
            let sink = JsonlSink::from_writer(Box::new(buf.clone()));
            sink.on_event(&SearchEvent::ParetoUpdated { size: 1 });
        }
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("pareto_updated"));
    }

    #[test]
    fn jsonl_sink_counts_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("closed"))
            }
        }
        let sink = JsonlSink::from_writer(Box::new(Failing));
        // BufWriter buffers the first small write; force it out.
        sink.on_event(&SearchEvent::ParetoUpdated { size: 1 });
        let flushed = sink.flush();
        assert!(flushed.is_err() || sink.write_errors() > 0);
    }
}
