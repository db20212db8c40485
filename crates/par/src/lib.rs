//! # oa-par — deterministic parallel sweep engine
//!
//! Every headline experiment of the paper is an embarrassingly parallel
//! sweep: `R = 11..=120` × five cluster presets × a handful of grouping
//! heuristics, each point an independent discrete-event simulation.
//! This crate provides the one primitive those sweeps need — a scoped
//! worker pool whose fan-out/fan-in is *deterministic*:
//!
//! * [`Pool::par_map`] evaluates a function over an indexed work list
//!   and returns results **in input order**, regardless of the order in
//!   which workers complete them;
//! * [`Pool::par_sweep`] does the same over a cartesian
//!   (R, preset, variant) grid, flattened row-major.
//!
//! Because each point is computed by a pure function of its input and
//! the reduction happens on the caller's side in input order, a run
//! with `jobs = N` produces **bit-identical** output to `jobs = 1`:
//! same schedules, same JSON, same golden Chrome traces. The workspace
//! pins this invariant with property tests (`tests/par_determinism.rs`).
//!
//! With `jobs = 1` (or a single-element work list) no thread is
//! spawned at all — the map runs inline, so the pool can sit on every
//! call path without a threading tax on serial runs.
//!
//! Workers are scoped (`std::thread::scope`) and pull indices from a
//! shared atomic counter, so load imbalance between points — a knapsack
//! search at `R = 120` costs far more than one at `R = 11` — is
//! absorbed without chunking heuristics. Results fan in over a
//! `crossbeam` channel tagged with their input index.
//!
//! # Examples
//!
//! ```
//! use oa_par::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]); // input order, always
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Name of the environment variable overriding the default job count.
pub const JOBS_ENV: &str = "OA_JOBS";

/// The most workers a pool is asked for: a map spawns `min(jobs, n)`
/// scoped threads, so a larger request on a long candidate list would
/// ask the OS for that many threads. [`resolve_jobs`] clamps the
/// available parallelism to it, and `oa` refuses a larger `--jobs` or
/// `OA_JOBS`.
pub const MAX_JOBS: usize = 256;

/// A fixed-width worker pool. Cheap to construct (no threads live
/// between calls); clone-free to share (take it by reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool running `jobs` concurrent workers; `0` is clamped to `1`.
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// A single-worker pool: every map runs inline on the caller's
    /// thread. Useful inside an already-parallel outer sweep, where
    /// nested fan-out would only oversubscribe the machine.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Number of concurrent workers this pool runs.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// The workhorse behind [`Pool::par_map`]/[`Pool::par_sweep`]:
    /// workers claim indices from an atomic counter (so uneven point
    /// costs balance automatically) and send `(index, result)` pairs
    /// back over a channel; the caller's thread writes each result
    /// into its slot. If a worker panics, the panic propagates to the
    /// caller once the scope joins.
    pub fn par_map_indices<O, F>(&self, n: usize, f: F) -> Vec<O>
    where
        O: Send,
        F: Fn(usize) -> O + Sync,
    {
        if self.jobs == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let workers = self.jobs.min(n);
        let next = AtomicUsize::new(0);
        let mut out: Vec<Option<O>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, O)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if tx.send((i, f(i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx); // the workers hold the remaining senders
            for (i, o) in rx.iter() {
                out[i] = Some(o);
            }
        });
        out.into_iter()
            .map(|o| o.expect("every index was claimed and sent"))
            .collect()
    }

    /// Maps `f` over `inputs`, returning results in input order
    /// regardless of completion order.
    pub fn par_map<I, O, F>(&self, inputs: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&I) -> O + Sync,
    {
        self.par_map_indices(inputs.len(), |i| f(&inputs[i]))
    }

    /// Maps `f` over the cartesian grid `a × b × c`, flattened
    /// row-major (`a` slowest, `c` fastest), in that deterministic
    /// order. This is the shape of the figure sweeps:
    /// (R, preset, heuristic).
    ///
    /// ```
    /// use oa_par::Pool;
    ///
    /// let got = Pool::new(2).par_sweep(&[10, 20], &["a", "b"], &[1, 2], |r, p, v| {
    ///     format!("{r}{p}{v}")
    /// });
    /// assert_eq!(got, ["10a1", "10a2", "10b1", "10b2", "20a1", "20a2", "20b1", "20b2"]);
    /// ```
    pub fn par_sweep<A, B, C, O, F>(&self, a: &[A], b: &[B], c: &[C], f: F) -> Vec<O>
    where
        A: Sync,
        B: Sync,
        C: Sync,
        O: Send,
        F: Fn(&A, &B, &C) -> O + Sync,
    {
        let (nb, nc) = (b.len(), c.len());
        self.par_map_indices(a.len() * nb * nc, |i| {
            let (ia, rem) = (i / (nb * nc), i % (nb * nc));
            f(&a[ia], &b[rem / nc], &c[rem % nc])
        })
    }
}

/// The machine's available parallelism (`1` when unknown).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The `OA_JOBS` override, when set to a positive integer.
pub fn env_jobs() -> Option<usize> {
    std::env::var(JOBS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&j| j > 0)
}

/// Resolves a job count: an explicit request (e.g. a `--jobs` flag)
/// wins, then `OA_JOBS`, then the available parallelism clamped to
/// [`MAX_JOBS`].
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&j| j > 0)
        .or_else(env_jobs)
        .unwrap_or_else(|| available_jobs().min(MAX_JOBS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let inputs: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = inputs.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = Pool::new(jobs).par_map(&inputs, |&x| x * x);
            assert_eq!(got, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn uneven_point_costs_still_ordered() {
        // Early indices sleep longest, so completion order is roughly
        // the reverse of input order — the output must not care.
        let inputs: Vec<u64> = (0..16).collect();
        let got = Pool::new(8).par_map(&inputs, |&x| {
            std::thread::sleep(std::time::Duration::from_micros((16 - x) * 100));
            x + 1
        });
        assert_eq!(got, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[7u32], |&x| x * 2), vec![14]);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
        assert_eq!(Pool::serial().jobs(), 1);
    }

    #[test]
    fn sweep_is_row_major() {
        let pool = Pool::serial();
        let got = pool.par_sweep(&[0u32, 1], &[0u32, 1, 2], &[0u32, 1], |&a, &b, &c| {
            (a, b, c)
        });
        let mut expect = Vec::new();
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..2 {
                    expect.push((a, b, c));
                }
            }
        }
        assert_eq!(got, expect);
        // And the parallel path agrees with the serial one exactly.
        let par = Pool::new(4).par_sweep(&[0u32, 1], &[0u32, 1, 2], &[0u32, 1], |&a, &b, &c| {
            (a, b, c)
        });
        assert_eq!(par, expect);
    }

    #[test]
    fn resolve_jobs_precedence() {
        // Explicit beats everything; zero explicit falls through.
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
        assert!(resolve_jobs(Some(0)) >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            Pool::new(2).par_map(&[1u32, 2, 3, 4], |&x| {
                assert!(x != 3, "boom");
                x
            })
        });
        assert!(r.is_err());
    }
}
