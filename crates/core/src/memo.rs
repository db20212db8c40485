//! Cross-variant planning memo: knapsack solutions and G-selection
//! scans cached across `(cluster table, R, capacity)` keys.
//!
//! Mass-batch studies (and the service's placement pricing) solve
//! the *same* planning instances over and over: a performance vector
//! prices scenario counts against one timing table, a parameter grid
//! re-asks neighbouring `(R, NS)` cells, and every new cluster with the
//! same hardware profile repeats all of it. Algorithm 1 prices through
//! [`PlanMemo::makespan`] and [`PlanMemo::makespans`] one entry (or one
//! wave of entries) at a time, the first time it reads them; batch
//! expansion and service admission take their groupings from
//! [`PlanMemo::grouping`]. Two layers of sharing remove the redundancy
//! without changing a single bit:
//!
//! 1. **A retained knapsack table per timing table** —
//!    [`oa_knapsack::DpTable`] runs the exact bounded-cardinality DP
//!    once over the full `(R, saturated-NS)` rectangle; every
//!    sub-instance (±1-delta neighbours included) is then answered by
//!    O(kinds) reconstruction. The table's equality contract makes the
//!    reconstructed selection bitwise-identical to the per-instance
//!    `solve_dp` the heuristic would have run, and the heuristic's own
//!    reconstruction turns it into the grouping.
//! 2. **A makespan cache keyed `(table, heuristic, R, NS, NM)`** —
//!    each entry is a pure function of its key, so cache hits are
//!    bitwise replays regardless of query history or job count.
//!
//! Both live in one entry per timing table, keyed by the bit patterns
//! of its nine durations, not by a hash of them: a hash collision
//! would silently replay another table's makespan or knapsack
//! selection.
//!
//! Determinism: every map is a `BTreeMap`, population order never
//! affects values (pure keys), and [`PlanMemo::performance_vector`]
//! stitches results back in scenario-count order exactly like
//! [`crate::hetero::performance_vector_with`].

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use oa_knapsack::DpTable;
use oa_par::Pool;
use oa_platform::cluster::ClusterId;
use oa_platform::timing::TimingTable;

use crate::grouping::Grouping;
use crate::hetero::PerformanceVector;
use crate::heuristics::{Heuristic, HeuristicError};
use crate::params::Instance;
use crate::planner::Planner;

/// A timing table's memo key: the bit patterns of its eight main
/// durations and its post duration. Every planning decision reads the
/// table only through these nine numbers, so tables with equal keys
/// plan alike, and tables that differ in any bit never share an entry.
type TableKey = [u64; 9];

fn table_key(table: &TimingTable) -> TableKey {
    let mut key = [table.post_secs().to_bits(); 9];
    for (k, m) in key.iter_mut().zip(table.main_array()) {
        *k = m.to_bits();
    }
    key
}

/// Hit/miss counters of a [`PlanMemo`]; observability only — they
/// never feed back into any planning decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct MemoStats {
    /// Makespan queries answered from the cache.
    pub hits: u64,
    /// Makespan queries that had to be computed.
    pub misses: u64,
    /// Retained DP tables built (one per timing table × capacity bump).
    pub dp_builds: u64,
}

/// Cache key within one table's entries: `(heuristic, R, NS, NM)`.
type MakespanKey = (u8, u32, u32, u32);

fn heuristic_tag(h: Heuristic) -> u8 {
    match h {
        Heuristic::Basic => 0,
        Heuristic::RedistributeIdle => 1,
        Heuristic::NoPostReservation => 2,
        Heuristic::Knapsack => 3,
        Heuristic::KnapsackGreedy => 4,
        Heuristic::Balanced => 5,
    }
}

/// What the memo retains for one timing table.
#[derive(Debug, Default)]
struct TableMemo {
    /// The retained knapsack DP table, once a knapsack was asked for.
    dp: Option<DpTable>,
    /// Makespan cache; values are `f64` bit patterns (`+∞` encodes
    /// "priced out": the cluster cannot run that many scenarios).
    makespans: BTreeMap<MakespanKey, u64>,
}

/// The planning memo. One instance is typically owned by a service
/// daemon or a batch executor and shared across every variant/cluster
/// it plans for.
#[derive(Debug, Default)]
pub struct PlanMemo {
    /// Everything retained, per timing table.
    tables: BTreeMap<TableKey, TableMemo>,
    stats: MemoStats,
}

impl PlanMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters since construction (or the last [`PlanMemo::reset_stats`]).
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    /// Zeroes the hit/miss counters without dropping any cached work.
    pub fn reset_stats(&mut self) {
        self.stats = MemoStats::default();
    }

    /// The heuristic's grouping for `inst`, equal to
    /// [`Heuristic::grouping`]: [`Heuristic::Knapsack`] answered from
    /// the retained DP table (built first unless it covers `inst.r`),
    /// every other heuristic directly. The makespan counters do not
    /// move.
    pub fn grouping(
        &mut self,
        heuristic: Heuristic,
        inst: Instance,
        table: &TimingTable,
    ) -> Result<Grouping, HeuristicError> {
        if heuristic != Heuristic::Knapsack {
            return heuristic.grouping(inst, table);
        }
        let memo = self.tables.entry(table_key(table)).or_default();
        let dp = retained_dp(&mut memo.dp, table, inst.r, &mut self.stats);
        knapsack_grouping_from(dp, inst, table)
    }

    /// The heuristic's makespan for `inst` (`+∞` when the cluster is
    /// priced out), through the cache. Hits replay the stored bits;
    /// misses compute exactly what
    /// [`Heuristic::makespan`] would and remember it.
    pub fn makespan(&mut self, heuristic: Heuristic, inst: Instance, table: &TimingTable) -> f64 {
        let TableMemo { dp, makespans } = self.tables.entry(table_key(table)).or_default();
        let key = (heuristic_tag(heuristic), inst.r, inst.ns, inst.nm);
        if let Some(&bits) = makespans.get(&key) {
            self.stats.hits += 1;
            return f64::from_bits(bits);
        }
        self.stats.misses += 1;
        let dp = (heuristic == Heuristic::Knapsack)
            .then(|| retained_dp(dp, table, inst.r, &mut self.stats));
        let ms = priced(heuristic, dp, inst, table);
        makespans.insert(key, ms.to_bits());
        ms
    }

    /// The cluster's performance vector through the memo: entries
    /// `1..=ns` of [`PlanMemo::makespans`]. Bitwise-identical to
    /// [`crate::hetero::performance_vector_with`] for any query history
    /// and any job count.
    #[allow(clippy::too_many_arguments)]
    pub fn performance_vector(
        &mut self,
        cluster: ClusterId,
        resources: u32,
        table: &TimingTable,
        heuristic: Heuristic,
        ns: u32,
        nm: u32,
        pool: &Pool,
    ) -> PerformanceVector {
        let makespans = self.makespans(heuristic, resources, table, 1..=ns, nm, pool);
        PerformanceVector { cluster, makespans }
    }

    /// The heuristic's makespans of `ks` scenarios of `nm` months on
    /// `resources` processors (`+∞` where the cluster is priced out),
    /// in count order: cached counts replay their bits, the missing
    /// ones fan out on `pool` and are stitched back in count order.
    /// Each entry is bitwise what [`PlanMemo::makespan`] answers for
    /// its count, for any query history and any job count.
    pub fn makespans(
        &mut self,
        heuristic: Heuristic,
        resources: u32,
        table: &TimingTable,
        ks: RangeInclusive<u32>,
        nm: u32,
        pool: &Pool,
    ) -> Vec<f64> {
        let TableMemo { dp, makespans } = self.tables.entry(table_key(table)).or_default();
        let key = |k| (heuristic_tag(heuristic), resources, k, nm);
        let misses: Vec<u32> = ks
            .clone()
            .filter(|&k| !makespans.contains_key(&key(k)))
            .collect();
        self.stats.hits += ks.clone().count() as u64 - misses.len() as u64;
        self.stats.misses += misses.len() as u64;
        if !misses.is_empty() {
            let dp = (heuristic == Heuristic::Knapsack)
                .then(|| retained_dp(dp, table, resources, &mut self.stats));
            let computed = pool.par_map(&misses, |&k| {
                priced(heuristic, dp, Instance::new(k, nm, resources), table)
            });
            for (&k, &ms) in misses.iter().zip(&computed) {
                makespans.insert(key(k), ms.to_bits());
            }
        }
        ks.map(|k| f64::from_bits(makespans[&key(k)])).collect()
    }
}

/// The retained DP table in `slot`, (re)built first unless it covers at
/// least `resources` capacity. The cardinality axis is built at its
/// saturation point `capacity / min_cost`, so any `NS` can be answered
/// via the clamp.
fn retained_dp<'a>(
    slot: &'a mut Option<DpTable>,
    table: &TimingTable,
    resources: u32,
    stats: &mut MemoStats,
) -> &'a DpTable {
    let built = slot.as_ref().map_or(0, DpTable::capacity);
    if slot.is_none() || built < resources {
        stats.dp_builds += 1;
        return slot.insert(build_dp(table, resources.max(built), u32::MAX));
    }
    slot.as_ref().expect("covers the request")
}

/// The knapsack table a performance vector of `1..=ns` scenarios on
/// `resources` processors reads, or `None` for every heuristic but
/// [`Heuristic::Knapsack`]: one table for every count, where a plain
/// [`Heuristic::makespan`] would solve one knapsack per count.
pub(crate) fn vector_dp(
    heuristic: Heuristic,
    table: &TimingTable,
    resources: u32,
    ns: u32,
) -> Option<DpTable> {
    (heuristic == Heuristic::Knapsack).then(|| build_dp(table, resources, ns))
}

#[cfg(test)]
thread_local! {
    /// Knapsack tables built on this thread, for the tests that pin how
    /// many a pricing pass builds.
    pub(crate) static DP_BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A knapsack table over `table`'s items on `cap` processors, its
/// cardinality axis at `max_items` or at the saturation point
/// `cap / min_cost`, whichever is smaller: no selection holds more
/// copies, and [`DpTable::solve_clamped`] maps any larger bound there.
fn build_dp(table: &TimingTable, cap: u32, max_items: u32) -> DpTable {
    #[cfg(test)]
    DP_BUILDS.with(|n| n.set(n.get() + 1));
    let planner = Planner::pcr(table);
    let card = (cap / planner.range.min_procs).min(max_items);
    DpTable::build(planner.items(card.max(1)), cap, card)
}

/// `heuristic`'s makespan for `inst` (`+∞` when the cluster is priced
/// out): the knapsack's grouping answered from `dp` when one is given,
/// bitwise [`Heuristic::makespan`] either way.
pub(crate) fn priced(
    heuristic: Heuristic,
    dp: Option<&DpTable>,
    inst: Instance,
    table: &TimingTable,
) -> f64 {
    match dp {
        Some(dp) => knapsack_makespan_from(dp, inst, table),
        None => heuristic.makespan(inst, table).unwrap_or(f64::INFINITY),
    }
}

/// `Heuristic::Knapsack.grouping` answered from a retained table.
fn knapsack_grouping_from(
    dp: &DpTable,
    inst: Instance,
    table: &TimingTable,
) -> Result<Grouping, HeuristicError> {
    Planner::pcr(table)
        .grouping_from(inst.r, &dp.solve_clamped(inst.r, inst.ns))
        .ok_or(HeuristicError::ClusterTooSmall { resources: inst.r })
}

/// `Heuristic::Knapsack.makespan` via the retained table (`+∞` when
/// the cluster is priced out).
fn knapsack_makespan_from(dp: &DpTable, inst: Instance, table: &TimingTable) -> f64 {
    knapsack_grouping_from(dp, inst, table).map_or(f64::INFINITY, |g| {
        Planner::pcr(table)
            .estimate(inst, &g)
            .expect("heuristics construct valid groupings")
            .makespan
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::performance_vector_with;
    use oa_platform::speedup::PcrModel;

    fn table() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    #[test]
    fn tables_one_bit_apart_miss_separately() {
        let a = table();
        let mut main = *a.main_array();
        main[7] = f64::from_bits(main[7].to_bits() ^ 1);
        let b = TimingTable::new(main, a.post_secs()).unwrap();
        let inst = Instance::new(10, 60, 53);
        let mut memo = PlanMemo::new();
        for h in [Heuristic::Basic, Heuristic::Knapsack] {
            let want_a = h.makespan(inst, &a).unwrap();
            let want_b = h.makespan(inst, &b).unwrap();
            assert_eq!(memo.makespan(h, inst, &a).to_bits(), want_a.to_bits());
            assert_eq!(memo.makespan(h, inst, &b).to_bits(), want_b.to_bits());
            assert_eq!(memo.makespan(h, inst, &table()).to_bits(), want_a.to_bits());
        }
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits), (4, 2), "{stats:?}");
        assert_eq!(stats.dp_builds, 2, "one knapsack table per timing table");
    }

    #[test]
    fn memo_grouping_matches_heuristic() {
        let t = table();
        let mut memo = PlanMemo::new();
        for h in [
            Heuristic::Basic,
            Heuristic::RedistributeIdle,
            Heuristic::NoPostReservation,
            Heuristic::Knapsack,
            Heuristic::KnapsackGreedy,
            Heuristic::Balanced,
        ] {
            for r in [4u32, 11, 23, 53, 100, 256] {
                for ns in [1u32, 3, 10, 17] {
                    let inst = Instance::new(ns, 1800, r);
                    assert_eq!(
                        memo.grouping(h, inst, &t),
                        h.grouping(inst, &t),
                        "{h:?} r={r} ns={ns}"
                    );
                }
            }
        }
        // Only the knapsack reads the table: built at R = 4, then
        // rebuilt for each larger R; no makespan was asked for.
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.dp_builds), (0, 0, 6));
    }

    #[test]
    fn memo_vector_matches_plain_bitwise() {
        let t = table();
        let pool = Pool::serial();
        let mut memo = PlanMemo::new();
        for h in [Heuristic::Knapsack, Heuristic::Basic, Heuristic::Balanced] {
            for r in [16u32, 53, 128] {
                let want = performance_vector_with(ClusterId(7), r, &t, h, 24, 60, &pool);
                let got = memo.performance_vector(ClusterId(7), r, &t, h, 24, 60, &pool);
                assert_eq!(got.cluster, want.cluster);
                let wb: Vec<u64> = want.makespans.iter().map(|m| m.to_bits()).collect();
                let gb: Vec<u64> = got.makespans.iter().map(|m| m.to_bits()).collect();
                assert_eq!(gb, wb, "{h:?} r={r}");
            }
        }
    }

    #[test]
    fn makespans_in_waves_match_the_plain_vector() {
        let t = table();
        let mut memo = PlanMemo::new();
        for (h, jobs) in [(Heuristic::Knapsack, 1), (Heuristic::Basic, 2)] {
            let pool = Pool::new(jobs);
            let want = performance_vector_with(ClusterId(0), 53, &t, h, 24, 60, &pool);
            // Overlapping waves out of order: the second half first,
            // then a wave that straddles it, then the rest.
            let mut got = vec![0u64; 24];
            for ks in [13..=24, 9..=16, 1..=9] {
                let from = *ks.start() as usize - 1;
                for (i, ms) in memo.makespans(h, 53, &t, ks, 60, &pool).iter().enumerate() {
                    got[from + i] = ms.to_bits();
                }
            }
            let wb: Vec<u64> = want.makespans.iter().map(|m| m.to_bits()).collect();
            assert_eq!(got, wb, "{h:?}");
        }
        // 24 distinct counts per heuristic were computed, the overlaps hit.
        assert_eq!(memo.stats().misses, 48);
        assert_eq!(memo.stats().hits, 2 * (4 + 1));
    }

    #[test]
    fn hits_replay_and_capacity_grows() {
        let t = table();
        let pool = Pool::serial();
        let mut memo = PlanMemo::new();
        let first =
            memo.performance_vector(ClusterId(1), 53, &t, Heuristic::Knapsack, 10, 60, &pool);
        let s0 = memo.stats();
        assert_eq!(s0.misses, 10);
        assert_eq!(s0.dp_builds, 1);
        // Same query: pure hits, identical bits.
        let again =
            memo.performance_vector(ClusterId(1), 53, &t, Heuristic::Knapsack, 10, 60, &pool);
        assert_eq!(memo.stats().hits, s0.hits + 10);
        assert_eq!(again, first);
        // ±1-delta capacity reuse: R = 52 and 54; 54 forces a rebuild,
        // 52 rides the table — both still match the plain path bitwise.
        for r in [52u32, 54, 53] {
            let want =
                performance_vector_with(ClusterId(1), r, &t, Heuristic::Knapsack, 10, 60, &pool);
            let got =
                memo.performance_vector(ClusterId(1), r, &t, Heuristic::Knapsack, 10, 60, &pool);
            assert_eq!(got, want, "r={r}");
        }
        assert_eq!(memo.stats().dp_builds, 2);
    }

    #[test]
    fn too_small_cluster_prices_out() {
        let t = table();
        let mut memo = PlanMemo::new();
        let inst = Instance::new(2, 12, 3);
        assert_eq!(
            memo.grouping(Heuristic::Knapsack, inst, &t),
            Err(HeuristicError::ClusterTooSmall { resources: 3 })
        );
        assert_eq!(memo.makespan(Heuristic::Knapsack, inst, &t), f64::INFINITY);
    }
}
