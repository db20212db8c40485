//! The prefix-nested invariant of the online scheduler: after *any*
//! sequence of arrivals, departures, cluster joins and cluster leaves,
//! the counts held by [`IncrementalRepartition`] equal a from-scratch
//! batch `repartition_n` over the current clusters' vectors — bitwise.
//! This is what lets `oa serve` admit and displace sessions one at a
//! time while staying plan-equivalent to the paper's batch Algorithm 1.
//! The state prices its vectors on demand; pricing them lazily or from
//! whole vectors gives the same plan, and no entry is priced twice.

use std::collections::BTreeSet;
use std::ops::RangeInclusive;

use ocean_atmosphere::platform::cluster::ClusterId;
use ocean_atmosphere::sched::hetero::{repartition_n, PerformanceVector};
use ocean_atmosphere::sched::incremental::IncrementalRepartition;
use proptest::prelude::*;

/// Deterministic pseudo-random makespans (positive, deliberately
/// non-monotone — the greedy never assumes monotonicity) so churn
/// scripts exercise varied vectors without a nested generator.
fn seeded_vector(seed: u32, id: u32, coverage: usize) -> PerformanceVector {
    let makespans = (0..coverage)
        .map(|k| {
            let x = (u64::from(seed) ^ (u64::from(id) << 32))
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(k as u64)
                .wrapping_mul(1_442_695_040_888_963_407);
            1.0 + (x % 1_000_000) as f64
        })
        .collect();
    PerformanceVector {
        cluster: ClusterId(id),
        makespans,
    }
}

/// Eager pricing from explicit vectors (`vectors[id]` is cluster `id`'s):
/// every entry the state asks for, at once.
fn eager(
    vectors: &[PerformanceVector],
) -> impl FnMut(ClusterId, RangeInclusive<u32>) -> Vec<f64> + '_ {
    |c, ks| vectors[c.index()].makespans[*ks.start() as usize - 1..*ks.end() as usize].to_vec()
}

/// The current clusters' vectors, in the state's position order.
fn live(rep: &IncrementalRepartition, vectors: &[PerformanceVector]) -> Vec<PerformanceVector> {
    rep.clusters()
        .iter()
        .map(|c| vectors[c.index()].clone())
        .collect()
}

/// Asserts the hard invariant: incremental counts == batch greedy of
/// the same population over the same vectors, bitwise.
fn assert_matches_batch(
    rep: &IncrementalRepartition,
    vectors: &[PerformanceVector],
) -> Result<(), TestCaseError> {
    if rep.clusters().is_empty() {
        prop_assert!(rep.is_empty());
    } else {
        let batch = repartition_n(&live(rep, vectors), rep.len());
        prop_assert_eq!(rep.counts(), batch.nb_dags.as_slice());
    }
    Ok(())
}

/// One churn step on `rep`: tags 0–3 an arrival, 4–5 a departure from
/// a busy cluster, 6 a join of cluster `next_id`, 7 a leave that keeps
/// a cluster while scenarios are placed (`leave` panics on a stranded
/// population; the daemon handles stranding above this layer).
fn step(
    rep: &mut IncrementalRepartition,
    tag: u8,
    rank: usize,
    next_id: u32,
    mut price: impl FnMut(ClusterId, RangeInclusive<u32>) -> Vec<f64>,
) -> Result<(), TestCaseError> {
    match tag {
        // Half the steps are arrivals: one greedy push (a `None` at
        // capacity is the online refusal path).
        0..=3 => {
            rep.push(&mut price);
        }
        4 | 5 => {
            let busy: Vec<ClusterId> = rep
                .clusters()
                .iter()
                .copied()
                .filter(|&c| rep.count_of(c) > 0)
                .collect();
            if !busy.is_empty() {
                let c = busy[rank % busy.len()];
                let dep = rep.remove_from(c).expect("busy cluster departs");
                prop_assert_eq!(dep.vacated, c);
            }
        }
        6 => {
            rep.join(ClusterId(next_id), &mut price);
        }
        _ => {
            if rep.clusters().len() > 1 || rep.is_empty() {
                let live = rep.clusters().to_vec();
                if !live.is_empty() {
                    rep.leave(live[rank % live.len()], &mut price);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random churn: arrivals, departures, cluster joins and leaves in
    /// any interleaving; the invariant is checked after every step.
    #[test]
    fn incremental_counts_equal_batch_repartition_under_churn(
        nc in 1usize..4,
        cov in 8usize..24,
        seed in 0u32..1_000_000,
        script in proptest::collection::vec((0u8..8, 0usize..1000), 1..60),
    ) {
        let mut vectors: Vec<PerformanceVector> = (0..nc as u32)
            .map(|c| seeded_vector(seed, c, cov))
            .collect();
        let mut rep = IncrementalRepartition::new(cov as u32);
        for c in 0..nc as u32 {
            rep.join(ClusterId(c), eager(&vectors));
        }
        for (tag, rank) in script {
            let next_id = vectors.len() as u32;
            if tag == 6 {
                // A fresh cluster joins with a new vector.
                vectors.push(seeded_vector(seed ^ rank as u32, next_id, cov));
            }
            step(&mut rep, tag, rank, next_id, eager(&vectors))?;
            assert_matches_batch(&rep, &vectors)?;
        }
    }

    /// Departure order never matters: filling the grid and removing
    /// `m` scenarios from arbitrary busy clusters in arbitrary order
    /// always lands on the `n - m` batch counts.
    #[test]
    fn departures_commute_with_the_batch_greedy(
        cov in 6usize..16,
        nc in 2usize..4,
        seed in 0u32..1_000_000,
        removals in proptest::collection::vec(0usize..8, 1..6),
    ) {
        let vectors: Vec<PerformanceVector> = (0..nc as u32)
            .map(|c| seeded_vector(seed, c, cov))
            .collect();
        let mut rep = IncrementalRepartition::new(cov as u32);
        for v in &vectors {
            rep.join(v.cluster, eager(&vectors));
        }
        while rep.push(eager(&vectors)).is_some() {}
        let n = rep.len();
        let mut removed = 0usize;
        for rank in removals {
            let busy: Vec<ClusterId> = rep
                .clusters()
                .iter()
                .copied()
                .filter(|&c| rep.count_of(c) > 0)
                .collect();
            if busy.is_empty() {
                break;
            }
            rep.remove_from(busy[rank % busy.len()]).unwrap();
            removed += 1;
        }
        let batch = repartition_n(&vectors, n - removed);
        prop_assert_eq!(rep.counts(), batch.nb_dags.as_slice());
    }

    /// Pricing on demand changes when entries are computed, never the
    /// plan: one churn script drives a state priced lazily, in waves of
    /// `wave` entries, and a twin priced from whole vectors. After every
    /// step both hold the same counts and choices and predict the same
    /// makespan bitwise, no `(cluster, k)` entry is priced twice, and no
    /// cluster is priced past its largest count so far plus one, plus
    /// the wave's other entries.
    #[test]
    fn lazy_pricing_plans_like_whole_vectors_under_churn(
        nc in 1usize..4,
        cov in 8usize..24,
        wave in 1u32..4,
        seed in 0u32..1_000_000,
        script in proptest::collection::vec((0u8..8, 0usize..1000), 1..60),
    ) {
        let mut vectors: Vec<PerformanceVector> = Vec::new();
        let mut lazy = IncrementalRepartition::new(cov as u32);
        let mut twin = IncrementalRepartition::new(cov as u32);
        let mut priced: BTreeSet<(ClusterId, u32)> = BTreeSet::new();
        let mut twice = Vec::new();
        let mut largest: Vec<u32> = Vec::new();
        // The first `nc` steps join the seed clusters.
        let joins = std::iter::repeat_n((6u8, 0usize), nc);
        for (tag, rank) in joins.chain(script) {
            let next_id = vectors.len() as u32;
            if tag == 6 {
                vectors.push(seeded_vector(seed ^ rank as u32, next_id, cov));
                largest.push(0);
            }
            let counting = |c: ClusterId, ks: RangeInclusive<u32>| {
                let to = (*ks.start() + wave - 1).min(*ks.end());
                for k in *ks.start()..=to {
                    if !priced.insert((c, k)) {
                        twice.push((c, k));
                    }
                }
                vectors[c.index()].makespans[*ks.start() as usize - 1..to as usize].to_vec()
            };
            step(&mut lazy, tag, rank, next_id, counting)?;
            step(&mut twin, tag, rank, next_id, eager(&vectors))?;
            prop_assert!(twice.is_empty(), "priced twice: {:?}", twice);
            prop_assert_eq!(lazy.counts(), twin.counts());
            prop_assert_eq!(lazy.choices(), twin.choices());
            prop_assert_eq!(
                lazy.predicted_makespan().to_bits(),
                twin.predicted_makespan().to_bits()
            );
            for (&c, &k) in lazy.clusters().iter().zip(lazy.counts()) {
                largest[c.index()] = largest[c.index()].max(k);
            }
            for &(c, k) in &priced {
                prop_assert!(
                    k <= largest[c.index()] + wave,
                    "cluster {} priced at {} with largest count {}",
                    c, k, largest[c.index()]
                );
            }
        }
    }
}
