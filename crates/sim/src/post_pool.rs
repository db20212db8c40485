//! The campaign engine's post-processor pool as two sorted queues.
//!
//! Posts run FIFO on the pool of dedicated and disbanded processors,
//! each on the earliest-available one (Section 4.3): a pop of the
//! smallest `(avail, proc)` key and a push of `(end, proc)` per post
//! step. The pool holds each processor exactly once, in one of two
//! queues, both sorted by that key:
//!
//! * the **start queue**: the entries present when a drain starts
//!   (dedicated processors at 0, disbanded groups' processors at their
//!   disband instants), sorted once and read front to back;
//! * the **re-entry queue**: a FIFO of `(end, proc)`, pre-sized to the
//!   pool's processor count. A take appends its processor with
//!   `push_back` and swaps it back past every entry that sorts after
//!   it.
//!
//! Each take pops the smaller front, which is the smallest key of the
//! pool, so the pop sequence is a binary heap's over the same key set
//! (keys are distinct: one entry per processor). Within one drain the
//! swaps are rare and short: every key popped is at least the one
//! before it, so `start = max(avail, ready)` is non-decreasing as
//! readies are, and a drain's steps share one duration (fused `TP`, or
//! unfused `COF = EMF = CD` at one speed). Every `end` is then at
//! least every end already queued, and the swap passes only equal-end
//! entries with a larger processor id.
//!
//! Entries pushed before a drain, or changed in place, take queue
//! order at the next [`PostPool::sort`], which moves every live entry
//! into the start queue.

use std::collections::VecDeque;

use oa_sched::time::Time;

/// One pool entry: `(availability, processor id)`.
pub(crate) type PoolEntry = (f64, u32);

/// Whether `a` pops before `b`: the heap key order `(Time(avail),
/// proc)`, total on the clock via [`f64::total_cmp`].
#[inline]
fn before(a: PoolEntry, b: PoolEntry) -> bool {
    key_order(&a, &b).is_lt()
}

/// The heap key order of two entries, for sorts.
#[inline]
fn key_order(a: &PoolEntry, b: &PoolEntry) -> std::cmp::Ordering {
    (Time(a.0), a.1).cmp(&(Time(b.0), b.1))
}

/// The post-processor pool (module docs).
#[derive(Debug, Default)]
pub(crate) struct PostPool {
    /// Start queue: sorted after [`PostPool::sort`]; `start[next..]`
    /// is still in the pool.
    start: Vec<PoolEntry>,
    /// First live entry of `start`.
    next: usize,
    /// Re-entry queue, sorted.
    fifo: VecDeque<PoolEntry>,
}

impl PostPool {
    /// Empties the pool, reserving room for `procs` processors.
    pub(crate) fn clear(&mut self, procs: usize) {
        self.start.clear();
        self.next = 0;
        self.fifo.clear();
        self.start.reserve(procs);
    }

    /// Adds processor `proc`, available from `avail`. It takes queue
    /// order at the next [`PostPool::sort`], which must come before
    /// the next take.
    pub(crate) fn push(&mut self, avail: f64, proc: u32) {
        self.start.push((avail, proc));
    }

    /// Whether no processor is in the pool.
    pub(crate) fn is_empty(&self) -> bool {
        self.next == self.start.len() && self.fifo.is_empty()
    }

    /// Every entry in the pool, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PoolEntry> + '_ {
        self.start[self.next..]
            .iter()
            .chain(self.fifo.iter())
            .copied()
    }

    /// The entries of the processors `keep` accepts, in pop order: the
    /// sorted-list form checkpoints store.
    pub(crate) fn sorted(&self, keep: impl Fn(u32) -> bool) -> Vec<PoolEntry> {
        let mut out: Vec<PoolEntry> = self.iter().filter(|&(_, proc)| keep(proc)).collect();
        out.sort_unstable_by(key_order);
        out
    }

    /// Keeps only the processors `keep` accepts.
    pub(crate) fn retain(&mut self, keep: impl Fn(u32) -> bool) {
        self.start.drain(..self.next);
        self.next = 0;
        self.start.retain(|&(_, proc)| keep(proc));
        self.fifo.retain(|&(_, proc)| keep(proc));
    }

    /// Moves every entry strictly below `cutoff` forward by `total`
    /// seconds and restores queue order.
    pub(crate) fn shift_below(&mut self, cutoff: f64, total: f64) {
        let shift = |e: &mut PoolEntry| {
            if e.0 < cutoff {
                e.0 += total;
            }
        };
        self.start[self.next..].iter_mut().for_each(shift);
        self.fifo.iter_mut().for_each(shift);
        self.sort();
    }

    /// Rebuilds queue order: every live entry moves into the start
    /// queue, sorted, and the re-entry queue gets room for all of them.
    pub(crate) fn sort(&mut self) {
        self.start.drain(..self.next);
        self.next = 0;
        self.start.extend(self.fifo.drain(..));
        self.start.sort_unstable_by(key_order);
        self.fifo.reserve(self.start.len());
    }

    /// The availability the next take pops, `None` when the pool is
    /// empty. Queue order must hold (after a [`PostPool::sort`]).
    #[inline]
    pub(crate) fn first_avail(&self) -> Option<f64> {
        match (self.start.get(self.next), self.fifo.front()) {
            (Some(s), Some(f)) => Some(s.0.min(f.0)),
            (Some(s), None) => Some(s.0),
            (None, Some(f)) => Some(f.0),
            (None, None) => None,
        }
    }

    /// The availability the `k`-th of `k ≥ 1` saturated takes pops. A
    /// take is saturated when its processor is free no earlier than its
    /// step is ready: it starts at its pop and re-enters `tp` later, so
    /// `k` such takes pop the `k` least terms of the progressions `a +
    /// j·tp` over the pool's availabilities `a`. Every availability and
    /// `tp > 0` are whole ticks, so the answer is the least `x` that
    /// counts `Σ_a max(0, ⌊(x − a)/tp⌋ + 1) ≥ k` terms at or below it,
    /// found by bisection instead of `k` takes.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub(crate) fn saturated_pop(&self, k: u64, tp: u64) -> u64 {
        debug_assert!(k >= 1 && tp >= 1);
        let ticks = || {
            self.iter().map(|(a, _)| {
                debug_assert!(a >= 0.0 && a.fract() == 0.0, "non-integral tick {a}");
                a as u64
            })
        };
        let (lo_a, hi_a, procs) = ticks().fold((u64::MAX, 0, 0u64), |(lo, hi, n), a| {
            (lo.min(a), hi.max(a), n + 1)
        });
        assert!(procs > 0, "post pool is empty");
        let terms = |x: u64| -> u64 { ticks().filter(|&a| a <= x).map(|a| (x - a) / tp + 1).sum() };
        // No processor yields more than `⌈k/P⌉ − 1` terms below `lo`;
        // the earliest yields `k` by `a_min + (k − 1)·tp`, and every one
        // `⌈k/P⌉` by `a_max + (⌈k/P⌉ − 1)·tp`.
        let rounds = k.div_ceil(procs) - 1;
        let mut lo = lo_a + rounds * tp;
        let mut hi = (lo_a + (k - 1) * tp).min(hi_a + rounds * tp);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if terms(mid) >= k {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Takes the earliest-available processor for a step ready at
    /// `ready` lasting `dur`, and re-enters it at the step's end:
    /// returns `(avail, proc, start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    #[inline]
    pub(crate) fn take(&mut self, ready: f64, dur: f64) -> (f64, u32, f64, f64) {
        let (avail, proc) = match (self.start.get(self.next), self.fifo.front()) {
            (Some(&s), Some(&f)) if before(f, s) => {
                self.fifo.pop_front();
                f
            }
            (Some(&s), _) => {
                self.next += 1;
                s
            }
            (None, Some(&f)) => {
                self.fifo.pop_front();
                f
            }
            (None, None) => panic!("post pool is empty"),
        };
        let start = if avail > ready { avail } else { ready };
        let end = start + dur;
        let entry = (end, proc);
        self.fifo.push_back(entry);
        let mut i = self.fifo.len() - 1;
        while i > 0 && before(entry, self.fifo[i - 1]) {
            self.fifo.swap(i - 1, i);
            i -= 1;
        }
        (avail, proc, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use oa_sched::time::{time_key, TimeKey};
    use proptest::prelude::*;

    const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 256 };

    /// The heap pool the engine used to keep: pop the top, push the
    /// step's end.
    fn heap_take(
        heap: &mut BinaryHeap<TimeKey<u32>>,
        ready: f64,
        dur: f64,
    ) -> (f64, u32, f64, f64) {
        let Reverse((Time(avail), proc)) = heap.pop().expect("pool non-empty");
        let start = if avail > ready { avail } else { ready };
        let end = start + dur;
        heap.push(time_key(end, proc));
        (avail, proc, start, end)
    }

    /// A drain: distinct processor ids with their availabilities,
    /// pushed in id order, non-decreasing readies, one step duration, and
    /// the takes after which the pool is rebuilt, some with a shift of
    /// the entries below a cutoff (the post-phase fast-forward).
    #[derive(Debug, Clone)]
    struct Drain {
        pool: Vec<PoolEntry>,
        readies: Vec<f64>,
        dur: f64,
        rebuilds: Vec<(usize, Option<(f64, f64)>)>,
    }

    /// Availabilities and ready increments come from a few values, so
    /// many processors share an availability, many readies coincide,
    /// and processors free before a ready start together and end
    /// together whatever their ids. `frac` scales every time by a
    /// non-dyadic factor.
    fn arb_drain() -> impl Strategy<Value = Drain> {
        (
            (1usize..=24, 0u32..4, 0u32..2),
            proptest::collection::vec((0u32..6, 0u32..1000), 24),
            proptest::collection::vec(0u32..4, 1..=200),
            (
                1u32..=5,
                proptest::collection::vec((0usize..200, 0u32..3, 0u32..8), 0..=3),
            ),
        )
            .prop_map(|((n, spread, frac), procs, steps, (dur, rebuilds))| {
                let unit = if frac == 1 { 0.7 } else { 1.0 };
                let mut pool: Vec<PoolEntry> = procs[..n]
                    .iter()
                    .map(|&(a, id)| (f64::from(a * spread) * unit, id))
                    .collect();
                pool.sort_unstable_by_key(|e| e.1);
                pool.dedup_by_key(|e| e.1);
                let mut t = 0.0f64;
                let readies = steps
                    .iter()
                    .map(|&dt| {
                        t += f64::from(dt) * unit;
                        t
                    })
                    .collect();
                let rebuilds = rebuilds
                    .into_iter()
                    .map(|(at, kind, total)| {
                        let shift = (kind == 2)
                            .then(|| (f64::from(spread * 3) * unit, f64::from(total) * unit));
                        (at, shift)
                    })
                    .collect();
                Drain {
                    pool,
                    readies,
                    dur: f64::from(dur) * unit,
                    rebuilds,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Every take of the two-queue pool is the heap pool's take:
        /// the same availability, processor, start and end bits.
        #[test]
        fn post_pool_takes_are_the_heap_takes(drain in arb_drain()) {
            let mut pool = PostPool::default();
            pool.clear(drain.pool.len());
            let mut heap: BinaryHeap<TimeKey<u32>> = BinaryHeap::new();
            for &(avail, proc) in &drain.pool {
                pool.push(avail, proc);
                heap.push(time_key(avail, proc));
            }
            pool.sort();
            for (i, &ready) in drain.readies.iter().enumerate() {
                for &(at, shift) in &drain.rebuilds {
                    if at != i {
                        continue;
                    }
                    match shift {
                        Some((cutoff, total)) => {
                            pool.shift_below(cutoff, total);
                            let keys = std::mem::take(&mut heap).into_vec();
                            heap = keys
                                .into_iter()
                                .map(|Reverse((Time(a), p))| {
                                    time_key(if a < cutoff { a + total } else { a }, p)
                                })
                                .collect();
                        }
                        None => pool.sort(),
                    }
                }
                let got = pool.take(ready, drain.dur);
                let want = heap_take(&mut heap, ready, drain.dur);
                prop_assert_eq!(
                    (got.0.to_bits(), got.1, got.2.to_bits(), got.3.to_bits()),
                    (want.0.to_bits(), want.1, want.2.to_bits(), want.3.to_bits()),
                    "take {} of {:?}",
                    i,
                    drain
                );
            }
            let mut left: Vec<PoolEntry> = pool.iter().collect();
            left.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut want: Vec<PoolEntry> = heap.into_iter().map(|Reverse((Time(a), p))| (a, p)).collect();
            want.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            prop_assert_eq!(left, want);
        }

        /// Saturated takes pop what the count says: after `k` heap takes
        /// that each start at their pop (ready 0), the `k`-th popped
        /// availability is [`PostPool::saturated_pop`]. Few distinct
        /// availabilities, so many tie; `k` up to several rounds of the
        /// pool.
        #[test]
        fn saturated_pops_are_the_heap_takes(
            avails in proptest::collection::vec((0u32..6, 0u32..40), 1..=24),
            (k, tp) in (1u32..=300, 1u32..=50),
        ) {
            let mut pool = PostPool::default();
            pool.clear(avails.len());
            let mut heap: BinaryHeap<TimeKey<u32>> = BinaryHeap::new();
            for (proc, &(coarse, fine)) in avails.iter().enumerate() {
                let a = f64::from(coarse * tp * 3 + fine);
                pool.push(a, proc as u32);
                heap.push(time_key(a, proc as u32));
            }
            pool.sort();
            let mut last = 0.0;
            for _ in 0..k {
                last = heap_take(&mut heap, 0.0, f64::from(tp)).0;
            }
            let got = pool.saturated_pop(u64::from(k), u64::from(tp));
            prop_assert_eq!(got as f64, last, "{:?}", avails);
        }
    }

    #[test]
    fn equal_ends_pop_in_processor_order() {
        // Processors 7 and 3 are both free before the ready instant
        // 10, so both end at 15; the later-taken 3 must pop first.
        let mut pool = PostPool::default();
        pool.clear(2);
        pool.push(0.0, 7);
        pool.push(1.0, 3);
        pool.sort();
        assert_eq!(pool.take(10.0, 5.0), (0.0, 7, 10.0, 15.0));
        assert_eq!(pool.take(10.0, 5.0), (1.0, 3, 10.0, 15.0));
        assert_eq!(pool.take(10.0, 5.0), (15.0, 3, 15.0, 20.0));
        assert_eq!(pool.take(10.0, 5.0), (15.0, 7, 15.0, 20.0));
    }

    #[test]
    fn a_tie_across_the_queues_goes_to_the_lower_processor() {
        // One processor disbands at 10 and the other re-enters at 10:
        // the lower id pops first, whichever queue holds it.
        for (early, late) in [(2, 5), (5, 2)] {
            let mut pool = PostPool::default();
            pool.clear(2);
            pool.push(0.0, early);
            pool.push(10.0, late);
            pool.sort();
            assert_eq!(pool.take(0.0, 10.0), (0.0, early, 0.0, 10.0));
            assert_eq!(pool.take(10.0, 10.0), (10.0, 2, 10.0, 20.0));
            assert_eq!(pool.take(10.0, 10.0), (10.0, 5, 10.0, 20.0));
        }
    }
}
