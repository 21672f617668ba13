//! The [`SearchObserver`] trait, the no-op default and fan-out
//! composition.

use crate::event::SearchEvent;

/// A receiver of structured search-telemetry events.
///
/// Implementations use interior mutability (`&self` receivers) so one
/// observer can be shared by the engine, the genetic operators and the
/// synthesis-job runner of a run.
///
/// Emitters MUST guard event construction with [`SearchObserver::enabled`]
/// so the disabled path never allocates:
///
/// ```
/// use nautilus_obs::{noop, SearchEvent, SearchObserver};
/// let obs: &dyn SearchObserver = noop();
/// if obs.enabled() {
///     obs.on_event(&SearchEvent::GenerationStart { generation: 0 });
/// }
/// ```
pub trait SearchObserver: Send + Sync {
    /// Whether this observer wants events at all. Emitters skip event
    /// construction entirely when this is `false`, so the no-op observer
    /// costs one predictable branch per emission site.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event.
    fn on_event(&self, event: &SearchEvent);
}

/// The default observer: discards everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SearchObserver for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&self, _event: &SearchEvent) {}
}

/// The shared no-op observer instance used as every default.
#[must_use]
pub fn noop() -> &'static NoopObserver {
    static NOOP: NoopObserver = NoopObserver;
    &NOOP
}

/// Broadcasts each event to several observers.
///
/// `enabled()` is true when *any* member is enabled; disabled members are
/// skipped on delivery.
pub struct Fanout<'a> {
    observers: Vec<&'a dyn SearchObserver>,
}

impl std::fmt::Debug for Fanout<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fanout").field("observers", &self.observers.len()).finish()
    }
}

impl<'a> Fanout<'a> {
    /// Combines any number of observers.
    #[must_use]
    pub fn new(observers: Vec<&'a dyn SearchObserver>) -> Self {
        Fanout { observers }
    }

    /// Combines exactly two observers.
    #[must_use]
    pub fn pair(a: &'a dyn SearchObserver, b: &'a dyn SearchObserver) -> Self {
        Fanout { observers: vec![a, b] }
    }
}

impl SearchObserver for Fanout<'_> {
    fn enabled(&self) -> bool {
        self.observers.iter().any(|o| o.enabled())
    }

    fn on_event(&self, event: &SearchEvent) {
        for o in &self.observers {
            if o.enabled() {
                o.on_event(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::InMemorySink;

    #[test]
    fn noop_is_disabled_and_ignores_events() {
        let n = noop();
        assert!(!n.enabled());
        n.on_event(&SearchEvent::GenerationStart { generation: 1 });
    }

    #[test]
    fn fanout_delivers_to_all_enabled_members() {
        let a = InMemorySink::new();
        let b = InMemorySink::new();
        let fan = Fanout::new(vec![&a, noop(), &b]);
        assert!(fan.enabled());
        fan.on_event(&SearchEvent::ParetoUpdated { size: 3 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        let only_noop = Fanout::new(vec![noop()]);
        assert!(!only_noop.enabled());
    }
}
