//! Event sinks: where trace events go.
//!
//! The executor and its siblings are generic over [`Tracer`], so the
//! zero-cost default ([`NullTracer`]) keeps the untraced hot path
//! exactly as fast as before, while callers that want observability
//! plug in a buffering ([`VecTracer`]) or streaming ([`JsonlTracer`])
//! sink — or wrap any sink in [`Metered`] to grow a live
//! [`MetricsRegistry`] alongside.

use std::collections::VecDeque;
use std::io::Write;

use crate::event::TraceEvent;
use crate::metrics::MetricsRegistry;

/// A sink for [`TraceEvent`]s.
///
/// Implementations must be cheap to call: the executor records an
/// event per task transition. When [`Tracer::enabled`] returns `false`
/// the instrumentation skips building the event entirely, so the null
/// sink costs nothing on hot paths.
pub trait Tracer {
    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);

    /// Whether events are worth constructing (`false` lets call sites
    /// skip allocation-carrying event payloads altogether).
    fn enabled(&self) -> bool {
        true
    }
}

impl<T: Tracer + ?Sized> Tracer for &mut T {
    fn record(&mut self, event: TraceEvent) {
        (**self).record(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// Discards every event; `enabled()` is `false` so instrumented code
/// skips event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn record(&mut self, _event: TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Buffers events in memory, optionally as a bounded ring: when a
/// capacity is set, the oldest events are dropped first (and counted),
/// so a long campaign can keep "the last N things that happened"
/// without unbounded growth.
#[derive(Debug, Clone, Default)]
pub struct VecTracer {
    buf: VecDeque<TraceEvent>,
    capacity: Option<usize>,
    dropped: u64,
}

impl VecTracer {
    /// Unbounded buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ring buffer keeping at most `capacity` events (oldest dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a ring buffer needs room for one event");
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning the buffered events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into_iter().collect()
    }
}

impl Tracer for VecTracer {
    fn record(&mut self, event: TraceEvent) {
        if let Some(cap) = self.capacity {
            if self.buf.len() == cap {
                self.buf.pop_front();
                self.dropped += 1;
            }
        }
        self.buf.push_back(event);
    }
}

/// Streams events as JSON Lines (one compact JSON object per line) to
/// any writer — a file, a pipe, a `Vec<u8>`. I/O errors are sticky:
/// the first one stops further writes and is surfaced by
/// [`JsonlTracer::finish`].
#[derive(Debug)]
pub struct JsonlTracer<W: Write> {
    out: W,
    written: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTracer<W> {
    /// Streams to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out,
            written: 0,
            error: None,
        }
    }

    /// Events successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the writer, or the first I/O error hit.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Tracer for JsonlTracer<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = serde_json::to_string(&event).expect("events are serializable");
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
            return;
        }
        self.written += 1;
    }
}

/// Wraps any sink with a live [`MetricsRegistry`]: every event updates
/// the registry *and* flows to the inner sink, so counters and
/// histograms are snapshotable mid-run while the full event stream is
/// preserved (or discarded, with [`Metered::null`]).
#[derive(Debug, Default)]
pub struct Metered<T: Tracer> {
    /// The registry growing with the event stream.
    pub registry: MetricsRegistry,
    /// The wrapped sink.
    pub inner: T,
}

impl Metered<NullTracer> {
    /// Metrics only: events update the registry and are dropped.
    pub fn null() -> Self {
        Self {
            registry: MetricsRegistry::new(),
            inner: NullTracer,
        }
    }
}

impl<T: Tracer> Metered<T> {
    /// Meters `inner`, forwarding every event to it.
    pub fn new(inner: T) -> Self {
        Self {
            registry: MetricsRegistry::new(),
            inner,
        }
    }
}

impl<T: Tracer> Tracer for Metered<T> {
    fn record(&mut self, event: TraceEvent) {
        self.registry.observe_event(&event);
        self.inner.record(event);
    }

    // Metrics want every event even when the inner sink is null.
    fn enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(t: f64) -> TraceEvent {
        TraceEvent::at(t, EventKind::FailureInject { group: 0 })
    }

    #[test]
    fn null_tracer_reports_disabled() {
        let t = NullTracer;
        assert!(!t.enabled());
    }

    #[test]
    fn vec_tracer_buffers_in_order() {
        let mut t = VecTracer::new();
        for i in 0..5 {
            t.record(ev(i as f64));
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.dropped(), 0);
        let times: Vec<f64> = t.into_events().iter().map(|e| e.t).collect();
        assert_eq!(times, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = VecTracer::with_capacity(3);
        for i in 0..10 {
            t.record(ev(i as f64));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let times: Vec<f64> = t.into_events().iter().map(|e| e.t).collect();
        assert_eq!(times, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut t = JsonlTracer::new(Vec::new());
        t.record(ev(1.0));
        t.record(ev(2.5));
        assert_eq!(t.written(), 2);
        let bytes = t.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back: Vec<TraceEvent> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].t, 2.5);
    }

    #[test]
    fn metered_counts_and_forwards() {
        let mut m = Metered::new(VecTracer::new());
        m.record(ev(1.0));
        m.record(ev(2.0));
        assert_eq!(m.inner.len(), 2);
        let snap = m.registry.snapshot();
        assert_eq!(snap.counter(crate::metrics::keys::FAILURES), Some(2));
    }
}
