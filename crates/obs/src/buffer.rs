//! Deterministic capture of worker-side events during batched evaluation.
//!
//! A prefetched batch evaluates cache misses on worker threads. If those
//! workers emitted straight into the shared observer, the event stream
//! would interleave in scheduler order — different on every run and at
//! every worker count. Instead, the engine wraps the evaluation path's
//! observer in a [`BatchEventBuffer`] and runs each miss inside
//! [`capture_events`]: events raised on the worker are parked in a
//! thread-local buffer attached to that miss's result, and the engine's
//! scoring loop replays them in deterministic miss order. The merged
//! stream is byte-identical to what a one-worker run emits.
//!
//! Outside a capture frame the buffer is a transparent pass-through, so
//! serial evaluation paths are unaffected.

use std::cell::RefCell;

use crate::event::SearchEvent;
use crate::observer::SearchObserver;

thread_local! {
    /// Stack of active capture frames on this thread (innermost last).
    static CAPTURE_STACK: RefCell<Vec<Vec<SearchEvent>>> = const { RefCell::new(Vec::new()) };
}

/// An observer wrapper that diverts events into the active capture frame
/// of the emitting thread, and forwards unchanged when none is active.
pub struct BatchEventBuffer<'a> {
    inner: &'a dyn SearchObserver,
}

impl<'a> BatchEventBuffer<'a> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: &'a dyn SearchObserver) -> BatchEventBuffer<'a> {
        BatchEventBuffer { inner }
    }
}

impl std::fmt::Debug for BatchEventBuffer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEventBuffer").field("enabled", &self.inner.enabled()).finish()
    }
}

impl SearchObserver for BatchEventBuffer<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn on_event(&self, event: &SearchEvent) {
        let captured = CAPTURE_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            match stack.last_mut() {
                Some(frame) => {
                    frame.push(event.clone());
                    true
                }
                None => false,
            }
        });
        if !captured {
            self.inner.on_event(event);
        }
    }
}

/// Runs `f` with a fresh capture frame on this thread, returning its
/// result alongside every event a [`BatchEventBuffer`] diverted while the
/// frame was innermost.
///
/// Frames nest: an inner `capture_events` shadows the outer one for its
/// duration. A panic in `f` propagates and leaks the frame, which is fine
/// — batch workers run under `std::thread::scope`, so a worker panic
/// tears down the whole run.
pub fn capture_events<R>(f: impl FnOnce() -> R) -> (R, Vec<SearchEvent>) {
    CAPTURE_STACK.with(|stack| stack.borrow_mut().push(Vec::new()));
    let result = f();
    let events =
        CAPTURE_STACK.with(|stack| stack.borrow_mut().pop().expect("capture frame missing"));
    (result, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::InMemorySink;

    fn probe(generation: u32) -> SearchEvent {
        SearchEvent::GenerationStart { generation }
    }

    #[test]
    fn forwards_transparently_outside_a_capture_frame() {
        let sink = InMemorySink::new();
        let buffer = BatchEventBuffer::new(&sink);
        buffer.on_event(&probe(1));
        assert_eq!(sink.events(), vec![probe(1)]);
        assert!(buffer.enabled());
    }

    #[test]
    fn captures_instead_of_forwarding_inside_a_frame() {
        let sink = InMemorySink::new();
        let buffer = BatchEventBuffer::new(&sink);
        let ((), captured) = capture_events(|| {
            buffer.on_event(&probe(7));
            buffer.on_event(&probe(8));
        });
        assert!(sink.is_empty(), "captured events must not reach the inner observer");
        assert_eq!(captured, vec![probe(7), probe(8)]);
        // After the frame closes the buffer forwards again.
        buffer.on_event(&probe(9));
        assert_eq!(sink.events(), vec![probe(9)]);
    }

    #[test]
    fn frames_nest_innermost_wins() {
        let sink = InMemorySink::new();
        let buffer = BatchEventBuffer::new(&sink);
        let ((), outer) = capture_events(|| {
            buffer.on_event(&probe(1));
            let ((), inner) = capture_events(|| buffer.on_event(&probe(2)));
            assert_eq!(inner, vec![probe(2)]);
            buffer.on_event(&probe(3));
        });
        assert_eq!(outer, vec![probe(1), probe(3)]);
        assert!(sink.is_empty());
    }

    #[test]
    fn capture_is_per_thread() {
        let sink = InMemorySink::new();
        let buffer = BatchEventBuffer::new(&sink);
        let ((), captured) = capture_events(|| {
            // Another thread with no frame of its own forwards directly.
            std::thread::scope(|scope| {
                scope.spawn(|| buffer.on_event(&probe(11)));
            });
            buffer.on_event(&probe(12));
        });
        assert_eq!(captured, vec![probe(12)]);
        assert_eq!(sink.events(), vec![probe(11)]);
    }

    #[test]
    fn enabled_tracks_the_inner_observer() {
        let noop = crate::observer::NoopObserver;
        let buffer = BatchEventBuffer::new(&noop);
        assert!(!buffer.enabled());
    }
}
