//! Scheduling over a heterogeneous grid (Section 5, Algorithm 1).
//!
//! "To reduce the makespan of NS simulations, the best way is to divide
//! the set of simulations into subsets and execute each subset on a
//! different cluster." Each cluster first computes a *performance
//! vector*: the makespan of running `1..=NS` scenarios locally (using a
//! chosen grouping heuristic — the paper uses the knapsack model,
//! step 2 of Figure 9). The client then assigns scenarios greedily:
//! each scenario goes to the cluster whose makespan after receiving it
//! is smallest (Algorithm 1).
//!
//! The greedy reads cluster `i`'s vector only at `nbDags[i] + 1`
//! (`greedy_step`, the one strict-`<` scan), so no caller needs a
//! whole vector: [`repartition_with`] runs Algorithm 1 over a pricer
//! that computes an entry the first time it is read, and
//! [`repartition_grid`] prices a grid's vectors that way.

use serde::{Deserialize, Serialize};

use oa_knapsack::DpTable;
use oa_par::Pool;
use oa_platform::cluster::ClusterId;
use oa_platform::grid::Grid;
use oa_platform::timing::TimingTable;

use crate::heuristics::Heuristic;
use crate::memo::{priced, vector_dp};
use crate::params::Instance;

/// The per-cluster performance vector: `makespans[k]` is the predicted
/// makespan of `k + 1` scenarios on the cluster (`k + 1 ∈ 1..=NS`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerformanceVector {
    /// Cluster this vector describes.
    pub cluster: ClusterId,
    /// Predicted makespans for 1..=NS scenarios, seconds. Infinite
    /// entries mean the cluster cannot run that many scenarios (too
    /// small for even one group).
    pub makespans: Vec<f64>,
}

impl PerformanceVector {
    /// Predicted makespan of `k` scenarios (`1..=NS`); `+∞` for `k = 0`
    /// is never queried — Algorithm 1 indexes `nbDags + 1 ≥ 1`.
    pub fn of(&self, k: u32) -> f64 {
        self.makespans[(k - 1) as usize]
    }

    /// Number of scenario counts covered (NS).
    pub fn len(&self) -> usize {
        self.makespans.len()
    }

    /// True when the vector covers no scenario count.
    pub fn is_empty(&self) -> bool {
        self.makespans.is_empty()
    }
}

/// Computes the performance vector of one cluster for `1..=ns`
/// scenarios of `nm` months under `heuristic` (step 2 of Figure 9).
/// Clusters too small for any group report `+∞` everywhere.
pub fn performance_vector(
    cluster: ClusterId,
    resources: u32,
    table: &TimingTable,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
) -> PerformanceVector {
    performance_vector_with(
        cluster,
        resources,
        table,
        heuristic,
        ns,
        nm,
        &Pool::serial(),
    )
}

/// [`performance_vector`] with the `ns` independent heuristic
/// evaluations fanned out on `pool`. Each entry is a pure function of
/// its scenario count and results are stitched back in count order, so
/// the vector is bit-identical at any job count — this is the
/// single-cluster entry point an online scheduler uses when a cluster
/// joins an already-running grid. The knapsack heuristic builds one
/// DP table for all `ns` counts, and answers each from it bitwise as
/// its own `solve_dp` would.
pub fn performance_vector_with(
    cluster: ClusterId,
    resources: u32,
    table: &TimingTable,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
    pool: &Pool,
) -> PerformanceVector {
    let counts: Vec<u32> = (1..=ns).collect();
    let dp = vector_dp(heuristic, table, resources, ns);
    let makespans = pool.par_map(&counts, |&k| {
        let inst = Instance::new(k, nm, resources);
        // Too-small clusters price themselves out of Algorithm 1.
        priced(heuristic, dp.as_ref(), inst, table)
    });
    PerformanceVector { cluster, makespans }
}

/// Performance vectors for every cluster of a grid.
pub fn grid_performance(
    grid: &Grid,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
) -> Vec<PerformanceVector> {
    grid_performance_with(grid, heuristic, ns, nm, &Pool::serial())
}

/// [`grid_performance`] with the whole cluster-assignment search —
/// the flattened (cluster, scenario-count) grid of `clusters × NS`
/// independent heuristic evaluations — fanned out on `pool`. Each
/// point is a pure function of its (cluster, k) pair and the results
/// are stitched back in (cluster, k) order, so the vectors are
/// bit-identical at any job count. As in [`performance_vector_with`],
/// the knapsack heuristic builds one DP table per cluster.
pub fn grid_performance_with(
    grid: &Grid,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
    pool: &Pool,
) -> Vec<PerformanceVector> {
    let clusters: Vec<(ClusterId, u32, &TimingTable, Option<DpTable>)> = grid
        .iter()
        .map(|(id, c)| {
            let dp = vector_dp(heuristic, &c.timing, c.resources, ns);
            (id, c.resources, &c.timing, dp)
        })
        .collect();
    // Flatten (cluster, k) with k varying fastest, so uneven
    // per-cluster costs balance across workers.
    let pairs: Vec<(usize, u32)> = clusters
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| (1..=ns).map(move |k| (ci, k)))
        .collect();
    let makespans = pool.par_map(&pairs, |&(ci, k)| {
        let (_, resources, table, ref dp) = clusters[ci];
        let inst = Instance::new(k, nm, resources);
        priced(heuristic, dp.as_ref(), inst, table)
    });
    clusters
        .iter()
        .enumerate()
        .map(|(ci, &(id, ..))| PerformanceVector {
            cluster: id,
            makespans: makespans[ci * ns as usize..(ci + 1) * ns as usize].to_vec(),
        })
        .collect()
}

/// The output of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Repartition {
    /// `assignment[dag]` = cluster that runs scenario `dag`.
    pub assignment: Vec<ClusterId>,
    /// `nb_dags[cluster]` = scenarios assigned to each cluster.
    pub nb_dags: Vec<u32>,
}

impl Repartition {
    /// Predicted grid makespan: the slowest cluster's predicted
    /// makespan for its assigned count.
    pub fn predicted_makespan(&self, vectors: &[PerformanceVector]) -> f64 {
        self.nb_dags
            .iter()
            .enumerate()
            .filter(|(_, &k)| k > 0)
            .map(|(c, &k)| vectors[c].of(k))
            .fold(0.0, f64::max)
    }

    /// Scenario indices assigned to `cluster`.
    pub fn scenarios_of(&self, cluster: ClusterId) -> Vec<u32> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &c)| c == cluster)
            .map(|(s, _)| s as u32)
            .collect()
    }
}

/// Algorithm 1 verbatim: each scenario, in index order, goes to the
/// cluster whose makespan with one more scenario is smallest (ties:
/// lowest cluster id, matching the `<` comparison of the pseudocode).
///
/// Panics if `vectors` is empty or the vectors disagree on NS.
///
/// ```
/// use oa_platform::cluster::ClusterId;
/// use oa_sched::hetero::{repartition, PerformanceVector};
///
/// let fast = PerformanceVector { cluster: ClusterId(0), makespans: vec![10.0, 20.0, 30.0] };
/// let slow = PerformanceVector { cluster: ClusterId(1), makespans: vec![25.0, 50.0, 75.0] };
/// let plan = repartition(&[fast, slow]);
/// assert_eq!(plan.nb_dags, vec![2, 1]); // the faster cluster gets more DAGs
/// ```
pub fn repartition(vectors: &[PerformanceVector]) -> Repartition {
    let ns = vectors.first().map_or(0, PerformanceVector::len);
    repartition_n(vectors, ns)
}

/// Algorithm 1 stopped after `ns` scenarios — the batch oracle for the
/// incremental scheduler in [`crate::incremental`]: because the greedy
/// state after `n` steps is a pure function of `n`, the counts it
/// produces after `ns` arrivals are exactly `repartition_n(v, ns)`.
///
/// Panics if `vectors` is empty, the vectors disagree on NS, or `ns`
/// exceeds the vectors' coverage.
pub fn repartition_n(vectors: &[PerformanceVector], ns: usize) -> Repartition {
    assert!(
        !vectors.is_empty(),
        "repartition needs at least one cluster"
    );
    let cap = vectors[0].len();
    assert!(
        vectors.iter().all(|v| v.len() == cap),
        "performance vectors disagree on NS"
    );
    assert!(
        ns <= cap,
        "repartition of {ns} scenarios exceeds vector coverage {cap}"
    );
    let clusters: Vec<ClusterId> = vectors.iter().map(|v| v.cluster).collect();
    repartition_with(&clusters, ns, |i, k| vectors[i].of(k))
}

/// Algorithm 1 over a pricer: `price(i, k)` is the predicted makespan
/// of `k` scenarios on `clusters[i]`, read only at `k = nb_dags[i] + 1`
/// (see `greedy_step`) and asked once per `(i, k)`, so a pricer that
/// computes on demand computes no entry twice and none past a
/// cluster's final count plus one. A step on which every cluster
/// prices `+∞` goes to the first position, as the pseudocode's initial
/// `cluster_min` does.
///
/// Panics if `clusters` is empty.
pub fn repartition_with(
    clusters: &[ClusterId],
    ns: usize,
    mut price: impl FnMut(usize, u32) -> f64,
) -> Repartition {
    assert!(
        !clusters.is_empty(),
        "repartition needs at least one cluster"
    );
    let mut nb_dags = vec![0u32; clusters.len()];
    // Entry `nb_dags[i] + 1` of each cluster, once asked for: only the
    // chosen cluster's entry changes between steps.
    let mut next: Vec<Option<f64>> = vec![None; clusters.len()];
    let mut assignment = Vec::with_capacity(ns);
    for _dag in 0..ns {
        let i =
            greedy_step(&nb_dags, |i, k| *next[i].get_or_insert_with(|| price(i, k))).unwrap_or(0);
        nb_dags[i] += 1;
        next[i] = None;
        assignment.push(clusters[i]);
    }
    Repartition {
        assignment,
        nb_dags,
    }
}

/// Algorithm 1 over `grid`'s performance vectors, each entry priced the
/// first time the greedy reads it: bitwise
/// `repartition(&grid_performance(grid, heuristic, ns, nm))`, but a
/// cluster is priced up to its final count plus one instead of `1..=ns`.
/// As in [`grid_performance_with`], the knapsack heuristic builds one DP
/// table per cluster.
pub fn repartition_grid(grid: &Grid, heuristic: Heuristic, ns: u32, nm: u32) -> Repartition {
    let dps: Vec<Option<DpTable>> = grid
        .iter()
        .map(|(_, c)| vector_dp(heuristic, &c.timing, c.resources, ns))
        .collect();
    let ids: Vec<ClusterId> = grid.iter().map(|(id, _)| id).collect();
    repartition_with(&ids, ns as usize, |i, k| {
        let c = &grid.clusters()[i];
        let inst = Instance::new(k, nm, c.resources);
        priced(heuristic, dps[i].as_ref(), inst, &c.timing)
    })
}

/// One step of Algorithm 1: the position whose makespan with one more
/// scenario, `price(i, counts[i] + 1)`, is smallest under the
/// pseudocode's strict `<` (ties to the lowest position). `None` when
/// no entry is below `+∞`.
pub(crate) fn greedy_step(
    counts: &[u32],
    mut price: impl FnMut(usize, u32) -> f64,
) -> Option<usize> {
    let mut ms_min = f64::INFINITY;
    let mut cluster_min = None;
    for (i, &k) in counts.iter().enumerate() {
        let temp = price(i, k + 1);
        if temp < ms_min {
            ms_min = temp;
            cluster_min = Some(i);
        }
    }
    cluster_min
}

/// Exact scenario repartition by dynamic programming: minimizes the
/// grid makespan `max_i performance[i][k_i]` over all splits
/// `Σ k_i = NS`. `O(n × NS²)` — used to audit Algorithm 1.
///
/// The paper states its greedy "gives the optimal repartition for the
/// times given in the performance array". That holds for *monotone*
/// vectors (makespan non-decreasing in the scenario count), which
/// every real performance vector satisfies; for arbitrary arrays the
/// greedy can lose (see the `greedy_suboptimal_on_nonmonotone_vectors`
/// test). This solver is the ground truth either way.
pub fn repartition_exact(vectors: &[PerformanceVector]) -> Repartition {
    assert!(
        !vectors.is_empty(),
        "repartition needs at least one cluster"
    );
    let ns = vectors[0].len();
    assert!(
        vectors.iter().all(|v| v.len() == ns),
        "performance vectors disagree on NS"
    );
    let n = vectors.len();
    let cost = |i: usize, k: usize| -> f64 {
        if k == 0 {
            0.0
        } else {
            vectors[i].makespans[k - 1]
        }
    };

    // dp[i][k]: best grid makespan running k scenarios on clusters i..n.
    let mut dp = vec![vec![f64::INFINITY; ns + 1]; n + 1];
    let mut choice = vec![vec![0usize; ns + 1]; n];
    for (k, cell) in dp[n].iter_mut().enumerate() {
        *cell = if k == 0 { 0.0 } else { f64::INFINITY };
    }
    for i in (0..n).rev() {
        for k in 0..=ns {
            for here in 0..=k {
                let v = cost(i, here).max(dp[i + 1][k - here]);
                if v < dp[i][k] {
                    dp[i][k] = v;
                    choice[i][k] = here;
                }
            }
        }
    }

    let mut nb_dags = vec![0u32; n];
    let mut k = ns;
    for i in 0..n {
        let here = choice[i][k];
        nb_dags[i] = here as u32;
        k -= here;
    }
    // Scenario indices in cluster order (any order is equivalent: the
    // scenarios are identical).
    let mut assignment = Vec::with_capacity(ns);
    for (i, &count) in nb_dags.iter().enumerate() {
        for _ in 0..count {
            assignment.push(ClusterId(i as u32));
        }
    }
    Repartition {
        assignment,
        nb_dags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::Heuristic;
    use oa_platform::presets::benchmark_grid;
    use oa_platform::speedup::PcrModel;

    fn vectors(ms: &[&[f64]]) -> Vec<PerformanceVector> {
        ms.iter()
            .enumerate()
            .map(|(i, v)| PerformanceVector {
                cluster: ClusterId(i as u32),
                makespans: v.to_vec(),
            })
            .collect()
    }

    #[test]
    fn all_to_single_fast_cluster_when_it_dominates() {
        // Cluster 0 runs k scenarios faster than cluster 1 runs even 1.
        let v = vectors(&[&[10.0, 20.0, 30.0], &[100.0, 200.0, 300.0]]);
        let r = repartition(&v);
        assert_eq!(r.nb_dags, vec![3, 0]);
        assert_eq!(r.predicted_makespan(&v), 30.0);
    }

    #[test]
    fn balances_identical_clusters() {
        let v = vectors(&[&[10.0, 20.0, 30.0, 40.0], &[10.0, 20.0, 30.0, 40.0]]);
        let r = repartition(&v);
        assert_eq!(r.nb_dags, vec![2, 2]);
        assert_eq!(r.predicted_makespan(&v), 20.0);
        // Ties go to the lower cluster id first.
        assert_eq!(r.assignment[0], ClusterId(0));
        assert_eq!(r.assignment[1], ClusterId(1));
    }

    #[test]
    fn faster_cluster_gets_more_dags() {
        // "The faster, the more DAGs it has to execute."
        let grid = benchmark_grid(44);
        let v = grid_performance(&grid, Heuristic::Knapsack, 10, 60);
        let r = repartition(&v);
        let fastest = grid.fastest().unwrap().index();
        let slowest = grid.slowest().unwrap().index();
        assert!(
            r.nb_dags[fastest] >= r.nb_dags[slowest],
            "fastest got {} < slowest {}",
            r.nb_dags[fastest],
            r.nb_dags[slowest]
        );
        assert_eq!(r.nb_dags.iter().sum::<u32>(), 10);
    }

    #[test]
    fn greedy_is_optimal_for_small_cases() {
        // Exhaustively check Algorithm 1 against all assignments for
        // 2 clusters × 4 scenarios with convex vectors.
        let v = vectors(&[&[5.0, 11.0, 18.0, 26.0], &[7.0, 15.0, 24.0, 34.0]]);
        let r = repartition(&v);
        let greedy_ms = r.predicted_makespan(&v);
        let mut best = f64::INFINITY;
        for a in 0..=4u32 {
            let b = 4 - a;
            let mut ms: f64 = 0.0;
            if a > 0 {
                ms = ms.max(v[0].of(a));
            }
            if b > 0 {
                ms = ms.max(v[1].of(b));
            }
            best = best.min(ms);
        }
        assert_eq!(greedy_ms, best);
    }

    #[test]
    fn too_small_cluster_is_never_used() {
        let m = PcrModel::reference();
        let table_small = m.table(1.0).unwrap();
        let v = vec![
            performance_vector(ClusterId(0), 4, &table_small, Heuristic::Basic, 3, 10),
            PerformanceVector {
                cluster: ClusterId(1),
                makespans: vec![f64::INFINITY; 3],
            },
        ];
        let r = repartition(&v);
        assert_eq!(r.nb_dags[1], 0);
    }

    #[test]
    fn performance_vector_is_non_decreasing() {
        let m = PcrModel::reference();
        let t = m.table(1.0).unwrap();
        for h in Heuristic::PAPER {
            let v = performance_vector(ClusterId(0), 30, &t, h, 8, 36);
            for k in 1..v.len() {
                assert!(
                    v.makespans[k] + 1e-6 >= v.makespans[k - 1],
                    "{h:?}: k={} {} < {}",
                    k + 1,
                    v.makespans[k],
                    v.makespans[k - 1]
                );
            }
        }
    }

    #[test]
    fn knapsack_vectors_build_one_table_per_cluster() {
        let (ns, nm) = (10, 60);
        let serial = Pool::serial();
        let builds = || crate::memo::DP_BUILDS.with(std::cell::Cell::get);
        let bits = |v: &PerformanceVector| -> Vec<u64> {
            v.makespans.iter().map(|m| m.to_bits()).collect()
        };
        // One group at most, saturated at NS > R / 4, and the paper's R.
        for resources in [5u32, 20, 53] {
            let grid = benchmark_grid(resources);
            let before = builds();
            let vectors = grid_performance_with(&grid, Heuristic::Knapsack, ns, nm, &serial);
            assert_eq!(builds() - before, grid.len() as u64);
            for (v, (id, c)) in vectors.iter().zip(grid.iter()) {
                let before = builds();
                let single = performance_vector_with(
                    id,
                    c.resources,
                    &c.timing,
                    Heuristic::Knapsack,
                    ns,
                    nm,
                    &serial,
                );
                assert_eq!(builds() - before, 1);
                let want: Vec<u64> = (1..=ns)
                    .map(|k| {
                        let inst = Instance::new(k, nm, c.resources);
                        let ms = Heuristic::Knapsack.makespan(inst, &c.timing);
                        ms.unwrap_or(f64::INFINITY).to_bits()
                    })
                    .collect();
                assert_eq!(bits(v), want, "R {resources}");
                assert_eq!(bits(&single), want, "R {resources}");
            }
            // Heuristics that solve no knapsack build no table.
            let before = builds();
            grid_performance_with(&grid, Heuristic::Basic, ns, nm, &serial);
            assert_eq!(builds(), before);
        }
    }

    #[test]
    fn greedy_prices_each_entry_once_up_to_the_final_count_plus_one() {
        let v = vectors(&[&[5.0, 11.0, 18.0, 26.0], &[7.0, 15.0, 24.0, 34.0]]);
        let ids = [ClusterId(0), ClusterId(1)];
        let mut asked = Vec::new();
        let plan = repartition_with(&ids, 3, |i, k| {
            asked.push((i, k));
            v[i].of(k)
        });
        assert_eq!(plan, repartition_n(&v, 3));
        // [2, 1]: the last step chose cluster 0 at entry 2, so neither
        // cluster was read past entry 2.
        assert_eq!(plan.nb_dags, vec![2, 1]);
        assert_eq!(asked, [(0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn grid_repartition_is_the_whole_vector_plan() {
        for resources in [5u32, 20, 53] {
            let grid = benchmark_grid(resources);
            for h in Heuristic::PAPER {
                for ns in [1u32, 10, 23] {
                    let want = repartition(&grid_performance(&grid, h, ns, 36));
                    let got = repartition_grid(&grid, h, ns, 36);
                    assert_eq!(got, want, "{h:?} R={resources} ns={ns}");
                }
            }
        }
    }

    #[test]
    fn scenarios_of_lists_assignments() {
        let v = vectors(&[&[10.0, 20.0], &[15.0, 30.0]]);
        let r = repartition(&v);
        let all: usize = (0..2).map(|c| r.scenarios_of(ClusterId(c)).len()).sum();
        assert_eq!(all, 2);
    }

    #[test]
    fn greedy_matches_exact_on_real_vectors() {
        // On performance vectors produced by the heuristics (monotone
        // in the scenario count), Algorithm 1 is optimal — the paper's
        // claim, audited against the DP.
        for resources in [20u32, 33, 47] {
            let grid = benchmark_grid(resources);
            for h in [Heuristic::Basic, Heuristic::Knapsack] {
                let v = grid_performance(&grid, h, 10, 36);
                let g = repartition(&v).predicted_makespan(&v);
                let e = repartition_exact(&v).predicted_makespan(&v);
                assert!(
                    (g - e).abs() < 1e-9,
                    "{h:?} R={resources}: greedy {g} vs exact {e}"
                );
            }
        }
    }

    #[test]
    fn greedy_suboptimal_on_nonmonotone_vectors() {
        // A crafted non-monotone array (2 scenarios cheaper than 1 —
        // impossible for real makespans) fools the greedy: it sends the
        // first scenario to cluster 0 (5 < 8), then pays 30 somewhere,
        // while the optimum runs both on cluster 1 for 6.
        let v = vectors(&[&[5.0, 30.0], &[8.0, 6.0]]);
        let g = repartition(&v).predicted_makespan(&v);
        let e = repartition_exact(&v).predicted_makespan(&v);
        assert_eq!(e, 6.0);
        assert!(g > e, "greedy {g} should lose here");
    }

    #[test]
    fn exact_partitions_all_scenarios() {
        let v = vectors(&[&[10.0, 20.0, 30.0], &[12.0, 25.0, 40.0], &[9.0, 21.0, 33.0]]);
        let r = repartition_exact(&v);
        assert_eq!(r.nb_dags.iter().sum::<u32>(), 3);
        assert_eq!(r.assignment.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn empty_vectors_panic() {
        repartition(&[]);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn exact_empty_vectors_panic() {
        repartition_exact(&[]);
    }

    #[test]
    #[should_panic(expected = "disagree on NS")]
    fn mismatched_vectors_panic() {
        let v = vectors(&[&[1.0, 2.0], &[1.0]]);
        repartition(&v);
    }
}
