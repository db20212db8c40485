//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! half or more for minutes at a time, invisibly to the guest: on-CPU
//! time stretches with wall time. A fixed reference computation, owned
//! by the benchmark so that no change to the repository can move it, is
//! timed between operations, and every timed interval is scaled by
//! `NOMINAL_S / (reference time nearby)`. The unit is then "seconds on
//! the reference host": a faster program reads faster, a busier host
//! does not read slower.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;

use crate::stats;
use crate::trace::{Clock, Wall};

/// Median time of [`reference_work`] on the reference host (the 2-CPU
/// virtual machine the benchmark was sized on, unloaded).
pub const NOMINAL_S: f64 = 4.45e-3;

/// Event-queue traffic, scattered reads and writes over 512 KiB,
/// dependent float arithmetic and two rounds of [`map_churn`]: the mix
/// the simulator, planners and daemon spend their time on, in a fixed
/// amount.
///
/// The churn is what makes the reference slow down with the host as the
/// workloads do. On a drifting host, planning time per unit of reference
/// time had a 9% spread (IQR/median across 10 s windows)
/// against the first three parts alone, 5% with the churn added; the
/// engine and daemon requests each went from 6% to 3% (see the README).
fn reference_work(heap: &mut BinaryHeap<u64>, buf: &mut [u64]) -> u64 {
    heap.clear();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..40_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x % 1_000_003);
        if heap.len() > 2048 {
            acc = acc.wrapping_add(heap.pop().unwrap_or(0));
        }
        let j = (x % buf.len() as u64) as usize;
        buf[j] = buf[j].wrapping_add(i);
        acc ^= buf[(j * 7 + 3) % buf.len()];
    }
    let mut f = 1.0f64;
    for i in 0..20_000 {
        f = (f * 1.000_001 + f64::from(i)).sqrt();
    }
    acc ^ f.to_bits() ^ map_churn(1) ^ map_churn(2)
}

/// Replaces small vectors under 4096 keys of an ordered map 6000 times,
/// reading one back after each, then formats 500 of them: allocation,
/// pointer chasing and short strings.
fn map_churn(seed: u64) -> u64 {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64 ^ seed;
    let mut acc = 0u64;
    for i in 0..6000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, vec![i; (x % 64) as usize + 1]);
        if let Some(v) = map.get(&((x >> 20) % 4096)) {
            acc = acc.wrapping_add(v.iter().sum::<u64>());
        }
    }
    let text: String = map
        .values()
        .take(500)
        .map(|v| v.len().to_string())
        .collect();
    acc ^ text.len() as u64
}

#[derive(Debug)]
pub struct Calibration {
    heap: BinaryHeap<u64>,
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::with_capacity(4096),
            buf: vec![0; 1 << 16],
            samples: Vec::new(),
        }
    }

    /// Median seconds of `n` reference runs, each timed after an untimed
    /// one that warms the caches the workload just used.
    pub fn mark(&mut self, wall: &Wall, n: usize) -> f64 {
        let fresh: Vec<f64> = (0..n)
            .map(|_| {
                black_box(reference_work(&mut self.heap, black_box(&mut self.buf)));
                let t = wall.now();
                black_box(reference_work(&mut self.heap, black_box(&mut self.buf)));
                wall.now() - t
            })
            .collect();
        self.samples.extend(&fresh);
        stats::median(&fresh).expect("n > 0")
    }

    /// Host speed over the whole run (1.0 on the reference host; 0.6
    /// when the host runs at 60% of its reference speed).
    pub fn speed(&self) -> f64 {
        speed(stats::median(&self.samples).expect("every workload calibrates"))
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }
}

/// Host speed implied by one calibration mark.
pub fn speed(mark: f64) -> f64 {
    NOMINAL_S / mark
}

/// Rescales timed intervals to reference-host seconds. `marks[i]` was
/// taken just before interval `i` and `marks[i + 1]` just after it; each
/// interval uses the median of the marks nearest it (two before, two
/// after), which follows host drift over seconds without letting one
/// disturbed mark skew an interval.
pub fn normalize(raw: &[f64], marks: &[f64]) -> Vec<f64> {
    assert_eq!(marks.len(), raw.len() + 1, "one mark around every interval");
    raw.iter()
        .enumerate()
        .map(|(i, t)| {
            let near = &marks[i.saturating_sub(1)..(i + 3).min(marks.len())];
            t * speed(stats::median(near).expect("at least two marks"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_scale_by_their_neighbouring_marks() {
        // The host halves its speed for the last two intervals.
        let marks = [
            NOMINAL_S,
            NOMINAL_S,
            NOMINAL_S,
            2.0 * NOMINAL_S,
            2.0 * NOMINAL_S,
        ];
        let out = normalize(&[1.0, 1.0, 2.0, 2.0], &marks);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[3], 1.0, "twice the wall time at half speed");
        // One outlier mark does not move an interval it is not central to.
        let marks = [NOMINAL_S, NOMINAL_S, 9.0 * NOMINAL_S, NOMINAL_S, NOMINAL_S];
        assert_eq!(normalize(&[1.0; 4], &marks)[0], 1.0);
    }
}
