//! Wall clock and outside-in span tracing.
//!
//! The benchmark records a span around every call it makes into a
//! layer's public entry point (name, start, end, span id, parent id and,
//! on `serve`, the request id). Spans stay in memory and are written once,
//! at exit, as Chrome trace-event JSON. A disabled tracer records
//! nothing, so the untraced runs that report end-to-end metrics pay one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Seconds since the run started.
pub trait Clock {
    fn now(&self) -> f64;
    /// Returns once `now() >= t`.
    fn wait_until(&mut self, t: f64);
}

/// The real clock. Waits spin: open-loop gaps are a millisecond or less,
/// and a sleeping thread lets the virtual CPU idle, after which the next
/// request pays wake-up and cold-cache costs that are the host's, not
/// the daemon's.
#[derive(Debug, Clone, Copy)]
pub struct Wall {
    t0: Instant,
}

impl Wall {
    pub fn start() -> Self {
        Self { t0: Instant::now() }
    }
}

impl Clock for Wall {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn wait_until(&mut self, t: f64) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    /// Index + 1 of the enclosing span; 0 at the root.
    parent: usize,
    /// Request id on `serve` (0 = none).
    request: u64,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    pub calls: u64,
    /// Sum of span durations, seconds.
    pub busy: f64,
    /// Busy time not covered by child spans, seconds.
    pub self_time: f64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    wall: Wall,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(on: bool, wall: Wall) -> Self {
        Self {
            on,
            wall,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Tags spans opened from now on with request `id` (0 clears).
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(0, |&i| i + 1);
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start: self.wall.now(),
            end: f64::NAN,
            parent,
            request: self.request,
        });
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end = self.wall.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Seconds from the first span's start to the last span's end.
    pub fn wall_secs(&self) -> f64 {
        let start = self
            .spans
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        let end = self.spans.iter().map(|s| s.end).fold(0.0, f64::max);
        if start.is_finite() {
            end - start
        } else {
            0.0
        }
    }

    /// Calls, busy and self time per span name. Spans nest strictly
    /// (one thread), so a span's self time is its duration minus its
    /// direct children's durations.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStat> {
        let mut self_time: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if s.parent > 0 {
                self_time[s.parent - 1] -= s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_time) {
            let stat = out.entry(s.name).or_default();
            stat.calls += 1;
            stat.busy += s.end - s.start;
            stat.self_time += own;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, times in microseconds, plus `meta` as
    /// the file's `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}",
                json_str(s.name),
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                i + 1,
                s.parent
            );
            if s.request > 0 {
                let _ = write!(out, ",\"request\":{}", s.request);
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), json_str(v));
        }
        out.push_str("}}");
        out
    }
}

pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings always serialize")
}

/// A hand-driven clock for tests: time moves only when told to.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct FakeClock {
    pub t: f64,
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now(&self) -> f64 {
        self.t
    }

    fn wait_until(&mut self, t: f64) {
        self.t = self.t.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true, Wall::start());
        tr.begin("outer");
        tr.leaf("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tr.leaf("inner", || ());
        tr.end();
        let layers = tr.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert!(inner.busy >= 0.002);
        assert!((outer.self_time - (outer.busy - inner.busy)).abs() < 1e-12);
        let json = tr.chrome_json(&[("commit", "abc".into())]);
        assert!(json.contains("\"parent\":1"));
        assert!(json.ends_with("\"otherData\":{\"commit\":\"abc\"}}"));

        let mut off = Tracer::new(false, Wall::start());
        off.leaf("x", || ());
        assert!(off.layers().is_empty());
        assert_eq!(off.wall_secs(), 0.0);
    }
}
