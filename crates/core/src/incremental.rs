//! Incremental scenario repartition — Algorithm 1 as an online
//! scheduler, priced on demand.
//!
//! The batch greedy of [`crate::hetero::repartition`] assigns `NS`
//! scenarios in one pass. Its state after `n` steps — the per-cluster
//! counts — is a pure function of `n` alone: step `n+1` looks only at
//! the counts, so the greedy is *prefix-nested* (the counts after `n`
//! arrivals extend the counts after `n − 1`). That property makes the
//! algorithm incremental for free:
//!
//! * **arrival** — one more greedy step ([`IncrementalRepartition::push`]);
//! * **departure** — pop the last greedy choice; when the departing
//!   scenario sits on a different cluster, a single migration restores
//!   the greedy counts ([`IncrementalRepartition::remove_from`]);
//! * **cluster join/leave** — replay the greedy over the enlarged or
//!   shrunken grid ([`IncrementalRepartition::join`] /
//!   [`IncrementalRepartition::leave`]).
//!
//! Algorithm 1 reads cluster `i`'s performance vector only at
//! `nb_dags[i] + 1`, so no cluster's vector is priced whole. Each
//! cluster keeps the prefix of its vector priced so far, and the
//! caller's *pricer* is asked only for entries past that prefix, the
//! first time the greedy reads one. A join therefore prices nothing
//! until a greedy step reads the new cluster, each `(cluster, k)` entry
//! is priced once, and a step over entries already priced is an array
//! scan.
//!
//! A pricer is called as `price(cluster, from..=coverage)` and answers
//! the makespans of a nonempty prefix of that range, in order: one
//! entry (exactly on demand), a wave of several (as `oa serve` prices at
//! `--jobs N`), or all of them (the eager pricing of an explicit
//! vector). Entries are pure, so every answer size gives the same bits.
//!
//! The hard invariant, pinned by `tests/incremental_repartition.rs`:
//! after any operation sequence, the counts equal a from-scratch
//! [`crate::hetero::repartition_n`] over the current clusters' vectors,
//! bitwise.

use std::ops::RangeInclusive;

use crate::hetero::{greedy_step, repartition_with};
use oa_platform::cluster::ClusterId;

/// What [`IncrementalRepartition::remove_from`] had to do to restore
/// the greedy counts after a departure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// The cluster the departing scenario vacated.
    pub vacated: ClusterId,
    /// The greedy choice that was popped (last arrival's cluster).
    pub popped: ClusterId,
    /// `Some((from, to))` when one scenario must migrate to restore
    /// the greedy counts; `None` when the departure popped cleanly.
    pub migration: Option<(ClusterId, ClusterId)>,
}

/// Migrations a cluster join/leave forces: `(from, to, scenarios)`
/// triples, in ascending `(from, to)` order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rebalance {
    /// Scenario moves needed to match the fresh greedy counts.
    pub moves: Vec<(ClusterId, ClusterId, u32)>,
}

/// Online Algorithm 1 over performance vectors priced on demand (see
/// the module docs for the pricer contract).
///
/// # Examples
///
/// ```
/// use std::ops::RangeInclusive;
///
/// use oa_platform::cluster::ClusterId;
/// use oa_sched::incremental::IncrementalRepartition;
///
/// // Two clusters' vectors, priced one entry at a time.
/// let vectors = [[10.0, 20.0, 30.0], [25.0, 50.0, 75.0]];
/// let price = |c: ClusterId, ks: RangeInclusive<u32>| vec![vectors[c.index()][*ks.start() as usize - 1]];
///
/// let mut rep = IncrementalRepartition::new(3);
/// rep.join(ClusterId(0), price);
/// rep.join(ClusterId(1), price);
///
/// // Three arrivals reproduce the batch repartition [2, 1]...
/// assert_eq!(rep.push(price), Some(ClusterId(0)));
/// assert_eq!(rep.push(price), Some(ClusterId(0)));
/// assert_eq!(rep.push(price), Some(ClusterId(1)));
/// assert_eq!(rep.counts(), &[2, 1]);
///
/// // ...and a departure from cluster 0 pops back to the 2-arrival state.
/// let dep = rep.remove_from(ClusterId(0)).unwrap();
/// assert_eq!(dep.migration, Some((ClusterId(1), ClusterId(0))));
/// assert_eq!(rep.counts(), &[2, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalRepartition {
    /// Scenario counts every cluster can be priced for.
    coverage: u32,
    /// Live clusters, in join order.
    clusters: Vec<ClusterId>,
    /// Each live cluster's priced prefix: entry `k` at index `k − 1`.
    priced: Vec<Vec<f64>>,
    counts: Vec<u32>,
    choices: Vec<ClusterId>,
}

impl IncrementalRepartition {
    /// Starts with no cluster and no scenario; clusters joining later
    /// are priced for up to `coverage` scenarios.
    #[must_use]
    pub fn new(coverage: u32) -> Self {
        Self {
            coverage,
            clusters: Vec::new(),
            priced: Vec::new(),
            counts: Vec::new(),
            choices: Vec::new(),
        }
    }

    /// Scenarios currently placed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// True when no scenario is placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Largest scenario population the grid can hold: the coverage, or
    /// 0 while no cluster has joined.
    #[must_use]
    pub fn capacity(&self) -> usize {
        if self.clusters.is_empty() {
            0
        } else {
            self.coverage as usize
        }
    }

    /// Per-cluster scenario counts, position-aligned with
    /// [`IncrementalRepartition::clusters`].
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The live clusters, in join order.
    #[must_use]
    pub fn clusters(&self) -> &[ClusterId] {
        &self.clusters
    }

    /// The cluster of every placed scenario, in greedy order.
    #[must_use]
    pub fn choices(&self) -> &[ClusterId] {
        &self.choices
    }

    /// Scenarios currently planned on `cluster` (0 for unknown ids).
    #[must_use]
    pub fn count_of(&self, cluster: ClusterId) -> u32 {
        self.position(cluster).map_or(0, |i| self.counts[i])
    }

    /// Predicted grid makespan of the current counts: the slowest
    /// cluster's predicted makespan for its load (0 when idle). Every
    /// entry it reads was priced when the greedy placed that load.
    #[must_use]
    pub fn predicted_makespan(&self) -> f64 {
        self.counts
            .iter()
            .zip(&self.priced)
            .filter(|(&k, _)| k > 0)
            .map(|(&k, prefix)| prefix[k as usize - 1])
            .fold(0.0, f64::max)
    }

    fn position(&self, cluster: ClusterId) -> Option<usize> {
        self.clusters.iter().position(|&c| c == cluster)
    }

    /// One arrival: the next greedy step of Algorithm 1
    /// (`greedy_step`: strict `<`, ties to the first position),
    /// pricing through `price` the entries it reads first. Returns the
    /// chosen cluster, or `None` when the grid is at capacity or no
    /// cluster can take one more scenario (a fully priced-out grid
    /// refuses the arrival instead of defaulting to the first cluster
    /// as the batch loop would — an online scheduler must reject what
    /// it cannot place).
    pub fn push(
        &mut self,
        mut price: impl FnMut(ClusterId, RangeInclusive<u32>) -> Vec<f64>,
    ) -> Option<ClusterId> {
        if self.choices.len() >= self.capacity() {
            return None;
        }
        let (clusters, priced, coverage) = (&self.clusters, &mut self.priced, self.coverage);
        let i = greedy_step(&self.counts, |i, k| {
            entry(&mut priced[i], clusters[i], k, coverage, &mut price)
        })?;
        self.counts[i] += 1;
        let chosen = self.clusters[i];
        self.choices.push(chosen);
        Some(chosen)
    }

    /// Undoes the most recent arrival, returning the cluster it had
    /// been placed on.
    pub fn pop(&mut self) -> Option<ClusterId> {
        let last = self.choices.pop()?;
        let i = self.position(last).expect("choice cluster is live");
        self.counts[i] -= 1;
        Some(last)
    }

    /// One departure from `cluster`: restores the `n − 1`-arrival
    /// greedy counts by popping the last choice and, when the departed
    /// scenario lived elsewhere, migrating a single scenario from the
    /// popped cluster onto the vacated slot. Returns `None` when
    /// `cluster` is unknown or idle.
    pub fn remove_from(&mut self, cluster: ClusterId) -> Option<Departure> {
        let i = self.position(cluster)?;
        if self.counts[i] == 0 {
            return None;
        }
        let popped = self.choices.pop().expect("counts nonzero implies choices");
        let p = self.position(popped).expect("choice cluster is live");
        // Popping the stack decrements `popped` — that *is* the greedy
        // `n − 1` state. When the scenario actually left a different
        // cluster, the physical fix-up is one migration: a scenario of
        // `popped` relabels onto the vacated slot so the decrement
        // lands on `popped` there too. The counts need no further
        // adjustment either way.
        self.counts[p] -= 1;
        let migration = if popped == cluster {
            None
        } else {
            Some((popped, cluster))
        };
        Some(Departure {
            vacated: cluster,
            popped,
            migration,
        })
    }

    /// A cluster joins and the greedy replays over the enlarged grid,
    /// pricing through `price` only the entries the replay reads (none
    /// while no scenario is placed). Panics on a duplicate cluster id.
    pub fn join(
        &mut self,
        cluster: ClusterId,
        price: impl FnMut(ClusterId, RangeInclusive<u32>) -> Vec<f64>,
    ) -> Rebalance {
        assert!(
            self.position(cluster).is_none(),
            "cluster {cluster} already joined"
        );
        let old = self.snapshot();
        self.clusters.push(cluster);
        self.priced.push(Vec::new());
        self.replay(&old, price)
    }

    /// A cluster leaves: drops its priced prefix and replays the greedy
    /// over the survivors, pricing through `price` only the entries the
    /// replay reads past their prefixes. Its scenarios are re-placed by
    /// the replay; the returned moves include their migrations. Returns
    /// `None` for an unknown cluster. Panics when no cluster survives
    /// while scenarios are still placed (the caller must drain first).
    pub fn leave(
        &mut self,
        cluster: ClusterId,
        price: impl FnMut(ClusterId, RangeInclusive<u32>) -> Vec<f64>,
    ) -> Option<Rebalance> {
        let i = self.position(cluster)?;
        let old = self.snapshot();
        self.clusters.remove(i);
        self.priced.remove(i);
        Some(self.replay(&old, price))
    }

    /// Pre-mutation `(cluster, count)` pairs, for rebalance diffs.
    fn snapshot(&self) -> Vec<(ClusterId, u32)> {
        self.clusters
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
            .collect()
    }

    /// Re-derives counts and choices from scratch over the live
    /// clusters and diffs against the pre-mutation counts.
    fn replay(
        &mut self,
        old: &[(ClusterId, u32)],
        mut price: impl FnMut(ClusterId, RangeInclusive<u32>) -> Vec<f64>,
    ) -> Rebalance {
        let n = self.choices.len();
        if self.clusters.is_empty() {
            assert!(n == 0, "no surviving cluster; cannot hold {n} scenario(s)");
            self.counts.clear();
            self.choices.clear();
            return Rebalance::default();
        }
        let (clusters, priced, coverage) = (&self.clusters, &mut self.priced, self.coverage);
        let fresh = repartition_with(clusters, n, |i, k| {
            entry(&mut priced[i], clusters[i], k, coverage, &mut price)
        });
        self.counts = fresh.nb_dags;
        self.choices = fresh.assignment;
        self.moves_between(old)
    }

    /// Pairs surpluses with deficits in ascending cluster-id order.
    fn moves_between(&self, old: &[(ClusterId, u32)]) -> Rebalance {
        let new_count = |c: ClusterId| self.count_of(c);
        let mut surplus: Vec<(ClusterId, u32)> = Vec::new(); // must shed
        let mut deficit: Vec<(ClusterId, u32)> = Vec::new(); // must gain
        for &(c, was) in old {
            let now = new_count(c);
            if was > now {
                surplus.push((c, was - now));
            }
        }
        for &c in &self.clusters {
            let was = old.iter().find(|&&(o, _)| o == c).map_or(0, |&(_, k)| k);
            let now = new_count(c);
            if now > was {
                deficit.push((c, now - was));
            }
        }
        surplus.sort_by_key(|&(c, _)| c);
        deficit.sort_by_key(|&(c, _)| c);
        let mut moves = Vec::new();
        let mut di = 0usize;
        for (from, mut excess) in surplus {
            while excess > 0 && di < deficit.len() {
                let (to, need) = &mut deficit[di];
                let take = excess.min(*need);
                moves.push((from, *to, take));
                excess -= take;
                *need -= take;
                if *need == 0 {
                    di += 1;
                }
            }
        }
        Rebalance { moves }
    }
}

/// Entry `k` of `cluster`'s vector, from its priced `prefix`; entries
/// up to `k` missing from the prefix are priced through `price` first.
fn entry(
    prefix: &mut Vec<f64>,
    cluster: ClusterId,
    k: u32,
    coverage: u32,
    price: &mut impl FnMut(ClusterId, RangeInclusive<u32>) -> Vec<f64>,
) -> f64 {
    while prefix.len() < k as usize {
        let from = prefix.len() as u32 + 1;
        let wave = price(cluster, from..=coverage);
        assert!(
            !wave.is_empty() && wave.len() <= (coverage + 1 - from) as usize,
            "a pricer answers a nonempty prefix of the entries it is asked for"
        );
        prefix.extend(wave);
    }
    prefix[k as usize - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::{repartition_n, PerformanceVector};

    fn vectors(ms: &[&[f64]]) -> Vec<PerformanceVector> {
        ms.iter()
            .enumerate()
            .map(|(i, v)| PerformanceVector {
                cluster: ClusterId(i as u32),
                makespans: v.to_vec(),
            })
            .collect()
    }

    /// Prices one entry at a time from explicit vectors.
    fn from(
        v: &[PerformanceVector],
    ) -> impl FnMut(ClusterId, RangeInclusive<u32>) -> Vec<f64> + '_ {
        |c, ks| {
            let v = v.iter().find(|v| v.cluster == c).expect("priced cluster");
            vec![v.of(*ks.start())]
        }
    }

    /// A repartition with every vector of `v` joined, covering their NS.
    fn joined(v: &[PerformanceVector]) -> IncrementalRepartition {
        let mut rep = IncrementalRepartition::new(v[0].len() as u32);
        for x in v {
            rep.join(x.cluster, from(v));
        }
        rep
    }

    #[test]
    fn pushes_match_batch_prefixes() {
        let v = vectors(&[&[5.0, 11.0, 18.0, 26.0], &[7.0, 15.0, 24.0, 34.0]]);
        let mut rep = joined(&v);
        for n in 1..=4usize {
            assert!(rep.push(from(&v)).is_some());
            let batch = repartition_n(&v, n);
            assert_eq!(rep.counts(), &batch.nb_dags[..], "after {n} arrivals");
            assert_eq!(rep.choices(), &batch.assignment[..], "after {n} arrivals");
        }
        assert_eq!(rep.push(from(&v)), None, "capacity exhausted");
    }

    #[test]
    fn entries_are_priced_once_and_only_when_read() {
        let v = vectors(&[&[5.0, 11.0, 18.0, 26.0], &[7.0, 15.0, 24.0, 34.0]]);
        let mut asked: Vec<(ClusterId, u32)> = Vec::new();
        let mut rep = IncrementalRepartition::new(4);
        let mut counting = |c: ClusterId, ks: RangeInclusive<u32>| {
            asked.push((c, *ks.start()));
            from(&v)(c, ks)
        };
        rep.join(ClusterId(0), &mut counting);
        rep.join(ClusterId(1), &mut counting);
        rep.push(&mut counting); // reads entry 1 of both: 5 < 7
        rep.push(&mut counting); // reads entry 2 of cluster 0: 11 > 7
        rep.pop();
        rep.push(&mut counting); // the same reads again: no pricing
        assert_eq!(
            asked,
            [(ClusterId(0), 1), (ClusterId(1), 1), (ClusterId(0), 2)]
        );
        assert_eq!(rep.counts(), &[1, 1]);
        assert_eq!(rep.predicted_makespan(), 7.0);
    }

    #[test]
    fn waves_price_ahead_within_the_coverage() {
        let v = vectors(&[&[5.0, 11.0, 18.0, 26.0]]);
        let mut asked: Vec<RangeInclusive<u32>> = Vec::new();
        let mut rep = IncrementalRepartition::new(4);
        // Three entries per call, as `oa serve --jobs 3` prices.
        let mut wave = |_: ClusterId, ks: RangeInclusive<u32>| {
            asked.push(ks.clone());
            let to = (*ks.start() + 2).min(*ks.end());
            v[0].makespans[*ks.start() as usize - 1..to as usize].to_vec()
        };
        rep.join(ClusterId(0), &mut wave);
        while rep.push(&mut wave).is_some() {}
        assert_eq!(asked, [1..=4, 4..=4]);
        assert_eq!(rep.counts(), &[4]);
    }

    #[test]
    fn clean_pop_and_migrating_departure() {
        let v = vectors(&[&[10.0, 20.0, 30.0], &[25.0, 50.0, 75.0]]);
        let mut rep = joined(&v);
        rep.push(from(&v));
        rep.push(from(&v));
        rep.push(from(&v)); // counts [2, 1], last choice cluster 1
        let dep = rep.remove_from(ClusterId(1)).unwrap();
        assert_eq!(dep.migration, None, "departing the last choice pops clean");
        assert_eq!(rep.counts(), repartition_n(&v, 2).nb_dags.as_slice());

        rep.push(from(&v)); // back to [2, 1]
        let dep = rep.remove_from(ClusterId(0)).unwrap();
        assert_eq!(dep.migration, Some((ClusterId(1), ClusterId(0))));
        assert_eq!(rep.counts(), repartition_n(&v, 2).nb_dags.as_slice());
    }

    #[test]
    fn join_and_leave_replay_the_batch() {
        let v = vectors(&[&[10.0, 20.0, 30.0, 40.0]]);
        let mut all = v.clone();
        // A faster cluster that joins later.
        all.push(PerformanceVector {
            cluster: ClusterId(7),
            makespans: vec![4.0, 8.0, 12.0, 16.0],
        });
        let mut rep = joined(&v);
        rep.push(from(&all));
        rep.push(from(&all));
        rep.push(from(&all));
        assert_eq!(rep.counts(), &[3]);

        // It joins and takes over two scenarios.
        let reb = rep.join(ClusterId(7), from(&all));
        assert_eq!(rep.counts(), &[1, 2]);
        assert_eq!(reb.moves, vec![(ClusterId(0), ClusterId(7), 2)]);

        // It leaves again; its two scenarios return to the original
        // cluster (the third never moved).
        let reb = rep.leave(ClusterId(7), from(&all)).unwrap();
        assert_eq!(rep.counts(), &[3]);
        assert_eq!(reb.moves, vec![(ClusterId(7), ClusterId(0), 2)]);
        assert_eq!(rep.leave(ClusterId(9), from(&all)), None);
    }

    #[test]
    fn priced_out_grid_refuses_arrivals() {
        let v = vec![PerformanceVector {
            cluster: ClusterId(0),
            makespans: vec![f64::INFINITY; 2],
        }];
        let mut rep = joined(&v);
        assert_eq!(rep.push(from(&v)), None);
        assert!(rep.is_empty());
    }

    #[test]
    fn empty_grid_accepts_joins_later() {
        let v = vectors(&[&[], &[], &[], &[5.0, 10.0]]);
        let mut rep = IncrementalRepartition::new(2);
        assert_eq!(rep.capacity(), 0);
        assert_eq!(rep.push(from(&v)), None);
        rep.join(ClusterId(3), from(&v));
        assert_eq!(rep.push(from(&v)), Some(ClusterId(3)));
        assert_eq!(rep.count_of(ClusterId(3)), 1);
        assert_eq!(rep.predicted_makespan(), 5.0);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn leave_with_no_room_panics() {
        let v = vectors(&[&[1.0, 2.0]]);
        let mut rep = joined(&v);
        rep.push(from(&v));
        rep.leave(ClusterId(0), from(&v));
    }
}
