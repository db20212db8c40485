//! The totally ordered `f64` heap key shared by every executor.
//!
//! The discrete-event loops of `oa-sim` — the campaign engine and the
//! workflow-IR executor — keep min-heaps of event times. (The planning
//! estimator steps one clock per size class instead.) `f64` is not
//! `Ord`, so each of them used to carry its own newtype; this is the
//! single shared copy. [`TimeKey`] extends it to the `(instant, payload)`
//! min-heap keys those loops actually store, and the tick helpers
//! ([`exact_ticks`], [`is_tick_exact`]) decide when every clock value
//! of a run is an exact integer, the gate of `oa-sim`'s fast-forward
//! kernel: only then can it stamp replayed cycles without changing a
//! single output bit.

use std::cmp::Reverse;

/// An `f64` time usable as a heap key: total order via
/// [`f64::total_cmp`], no `NaN`s by construction (simulation clocks
/// only ever add positive finite durations).
///
/// # Examples
///
/// ```
/// use std::cmp::Reverse;
/// use std::collections::BinaryHeap;
/// use oa_sched::time::Time;
///
/// let mut heap = BinaryHeap::new(); // min-heap via Reverse
/// heap.extend([Reverse(Time(3.0)), Reverse(Time(1.0)), Reverse(Time(2.0))]);
/// assert_eq!(heap.pop(), Some(Reverse(Time(1.0))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Time(
    /// The wrapped time, seconds.
    pub f64,
);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The `(instant, payload)` min-heap key of the discrete-event loops:
/// earliest instant first, payload (group index, processor id, …) as
/// the deterministic tie-break. Every loop used to spell the same
/// `Reverse((Time(t), idx))` tuple by hand; this is the shared name.
///
/// # Examples
///
/// ```
/// use std::collections::BinaryHeap;
/// use oa_sched::time::{time_key, TimeKey};
///
/// let mut busy: BinaryHeap<TimeKey<usize>> = BinaryHeap::new();
/// busy.push(time_key(20.0, 0));
/// busy.push(time_key(10.0, 1));
/// let (t, g) = busy.pop().unwrap().0;
/// assert_eq!((t.0, g), (10.0, 1));
/// ```
pub type TimeKey<P> = Reverse<(Time, P)>;

/// Builds a [`TimeKey`]: the canonical way to enqueue an event at
/// instant `t` tagged with `payload`.
#[inline]
#[must_use]
pub fn time_key<P>(t: f64, payload: P) -> TimeKey<P> {
    Reverse((Time(t), payload))
}

/// Largest clock value whose integer arithmetic is exact in `f64`
/// (every integer up to `2^53` has an exact representation, so sums
/// and differences of integral seconds below it never round).
pub const MAX_EXACT_SECS: f64 = 9_007_199_254_740_992.0; // 2^53

/// Converts an integral-second duration or instant to its tick count,
/// or `None` when the value is not exactly representable as an
/// integer number of seconds (fractional, negative, or ≥ `2^53`).
///
/// This is the gate of `oa-sim`'s integer-time kernel: when every
/// duration and failure instant of a run passes, simulated clocks are
/// pure integer sums, `f64` addition on them is exact, and the
/// steady-state fast-forward can advance whole cycles arithmetically
/// while staying bitwise identical to event-by-event execution.
///
/// # Examples
///
/// ```
/// use oa_sched::time::exact_ticks;
///
/// assert_eq!(exact_ticks(1742.0), Some(1742));
/// assert_eq!(exact_ticks(180.0), Some(180));
/// assert_eq!(exact_ticks(168.14285714285714), None); // preset post TP
/// assert_eq!(exact_ticks(-1.0), None);
/// ```
#[inline]
#[must_use]
pub fn exact_ticks(secs: f64) -> Option<u64> {
    if secs.is_finite() && (0.0..MAX_EXACT_SECS).contains(&secs) && secs.fract() == 0.0 {
        Some(secs as u64)
    } else {
        None
    }
}

/// Whether `secs` is an exact integral-second value (see
/// [`exact_ticks`]).
#[inline]
#[must_use]
pub fn is_tick_exact(secs: f64) -> bool {
    exact_ticks(secs).is_some()
}

/// A closed interval `[lo, hi]` of seconds — the abstract domain of the
/// static campaign certifier in `oa-analyze`.
///
/// Interval endpoints follow the usual outward-rounding convention in
/// spirit only: the certifier's bounds come from closed-form over- and
/// under-approximations, so plain `f64` arithmetic on the endpoints is
/// enough (no directed rounding). An unbounded-above interval uses
/// `f64::INFINITY` as `hi` — e.g. when a fault plan voids the upper
/// bound but the lower one still holds.
///
/// # Examples
///
/// ```
/// use oa_sched::time::TimeInterval;
///
/// let i = TimeInterval::new(10.0, 20.0).add(&TimeInterval::point(5.0));
/// assert_eq!((i.lo, i.hi), (15.0, 25.0));
/// assert!(i.contains(18.0));
/// assert!(!i.contains(14.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeInterval {
    /// Inclusive lower endpoint, seconds.
    pub lo: f64,
    /// Inclusive upper endpoint, seconds (`f64::INFINITY` = unbounded).
    pub hi: f64,
}

impl TimeInterval {
    /// `[lo, hi]`. Panics when the endpoints are inverted or `NaN` —
    /// certifier bounds are constructed, never parsed, so a bad
    /// interval is a logic error worth failing on.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The degenerate interval `[t, t]`.
    #[must_use]
    pub fn point(t: f64) -> Self {
        Self::new(t, t)
    }

    /// `[lo, +∞)`: a lower bound with no certified upper bound.
    #[must_use]
    pub fn at_least(lo: f64) -> Self {
        Self::new(lo, f64::INFINITY)
    }

    /// Minkowski sum: `[a+c, b+d]`.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        Self::new(self.lo + other.lo, self.hi + other.hi)
    }

    /// Scales both endpoints by a non-negative factor.
    #[must_use]
    pub fn scale(&self, k: f64) -> Self {
        assert!(k >= 0.0, "negative interval scale {k}");
        Self::new(self.lo * k, self.hi * k)
    }

    /// Smallest interval containing both.
    #[must_use]
    pub fn hull(&self, other: &Self) -> Self {
        Self::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Whether `t` lies in the closed interval.
    #[must_use]
    pub fn contains(&self, t: f64) -> bool {
        self.lo <= t && t <= self.hi
    }

    /// `hi − lo` (`+∞` for half-bounded intervals).
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Tightness ratio `hi / lo` — the certifier's quality metric
    /// (1.0 = exact). `None` when `lo` is zero or `hi` unbounded.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        if self.lo > 0.0 && self.hi.is_finite() {
            Some(self.hi / self.lo)
        } else {
            None
        }
    }

    /// Whether the upper endpoint is finite (a certified upper bound).
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.hi.is_finite()
    }
}

impl std::fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.hi.is_finite() {
            write!(f, "[{:.0} s, {:.0} s]", self.lo, self.hi)
        } else {
            write!(f, "[{:.0} s, unbounded)", self.lo)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_on_floats() {
        assert!(Time(1.0) < Time(2.0));
        assert!(Time(-0.0) < Time(0.0)); // total_cmp distinguishes zeros
        assert_eq!(Time(5.5).cmp(&Time(5.5)), std::cmp::Ordering::Equal);
        assert_eq!(
            Time(1.0).partial_cmp(&Time(2.0)),
            Some(std::cmp::Ordering::Less)
        );
    }

    #[test]
    fn interval_arithmetic() {
        let i = TimeInterval::new(100.0, 200.0);
        assert_eq!(
            i.add(&TimeInterval::point(50.0)),
            TimeInterval::new(150.0, 250.0)
        );
        assert_eq!(i.scale(2.0), TimeInterval::new(200.0, 400.0));
        assert_eq!(
            i.hull(&TimeInterval::new(150.0, 300.0)),
            TimeInterval::new(100.0, 300.0)
        );
        assert!(i.contains(100.0) && i.contains(200.0) && !i.contains(200.1));
        assert_eq!(i.width(), 100.0);
        assert_eq!(i.ratio(), Some(2.0));
        assert_eq!(format!("{i}"), "[100 s, 200 s]");

        let half = TimeInterval::at_least(7.0);
        assert!(!half.is_bounded());
        assert!(half.contains(1e300));
        assert_eq!(half.ratio(), None);
        assert_eq!(format!("{half}"), "[7 s, unbounded)");
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn inverted_interval_panics() {
        let _ = TimeInterval::new(2.0, 1.0);
    }

    #[test]
    fn heap_pops_in_time_order() {
        use std::cmp::Reverse;
        let mut h = std::collections::BinaryHeap::new();
        for t in [4.0, 0.5, 2.25, 1.0] {
            h.push(Reverse(Time(t)));
        }
        let popped: Vec<f64> = std::iter::from_fn(|| h.pop().map(|Reverse(Time(t))| t)).collect();
        assert_eq!(popped, vec![0.5, 1.0, 2.25, 4.0]);
    }
}
