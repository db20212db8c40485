//! Exact dynamic program for the bounded knapsack with a cardinality
//! constraint.
//!
//! State: `dp[c][k]` = best value using at most `c` resources and at
//! most `k` copies, considering items `0..i`. Items are processed one
//! kind at a time and every copy count `0..=bound` is tried, giving
//! `O(kinds × capacity × max_items × bound)` time — with the paper's
//! sizes (8 kinds, `R ≤ ~1000`, `NS ≈ 10`) well under a millisecond.
//!
//! Ties on value are broken toward **fewer resources**, then **fewer
//! copies**: a grouping that achieves the same throughput with spare
//! processors leaves them to post-processing, which can only help the
//! makespan. The tie-break also makes the solver deterministic, which
//! the reproduction relies on.

use crate::problem::{Item, Problem, Solution};

/// Tolerance for value comparisons: `1/T` values differ by parts in
/// `1e-4`, accumulated over ≤ a few dozen copies, so `1e-12` relative
/// is far below signal while absorbing float associativity.
const EPS: f64 = 1e-12;

#[inline]
fn better(value: f64, cost: u32, copies: u32, best: (f64, u32, u32)) -> bool {
    let (bv, bc, bk) = best;
    if value > bv + EPS * (1.0 + bv.abs()) {
        return true;
    }
    if value < bv - EPS * (1.0 + bv.abs()) {
        return false;
    }
    (cost, copies) < (bc, bk)
}

/// Solves the instance exactly. Always returns a feasible solution
/// (the empty selection when nothing fits). Builds the [`DpTable`] of
/// the instance's own rectangle and answers its full-budget cell.
pub fn solve_dp(p: &Problem) -> Solution {
    DpTable::build(p.items.clone(), p.capacity, p.max_items).solve_at(p.capacity, p.max_items)
}

/// A retained DP table: one sweep over the full `(capacity, max_items)`
/// rectangle whose per-kind `choice` tables are kept, so any
/// sub-instance `(c ≤ capacity, k ≤ max_items)` can be answered by
/// reconstruction alone — O(kinds) per query instead of a fresh
/// O(kinds × c × k × bound) program. [`solve_dp`] is this table's
/// answer at its own full-budget cell.
///
/// Equality contract (the planning memo relies on it): provided every
/// item's `max_copies` is at least both cardinality bounds involved,
/// [`DpTable::solve_at`]`(c, k)` returns counts and totals
/// bitwise-identical to `solve_dp(&Problem::new(items, c, k))`. At any
/// cell inside the sub-rectangle the copy bound collapses to
/// `min(c / cost, k)` in both programs, so the induction over kinds
/// visits identical `(value, cost, copies)` triples and records
/// identical choices; reconstruction then walks the same path.
///
/// Cardinality saturates at `capacity / min_cost` (no selection can
/// hold more copies), so tables are built at that cardinality and
/// [`DpTable::solve_clamped`] maps larger queries onto the saturated
/// column — see `saturated_cardinality_collapses` in the tests.
#[derive(Debug, Clone)]
pub struct DpTable {
    items: Vec<Item>,
    capacity: u32,
    max_items: u32,
    /// `choice[i][c * (max_items+1) + k]` = copies of kind `i` taken at
    /// cell `(c, k)` after processing kinds `0..=i`.
    choice: Vec<Vec<u16>>,
}

impl DpTable {
    /// Runs the DP once over the full rectangle, retaining the choice
    /// tables. Cost is
    /// `O(kinds × capacity × max_items × bound)`; memory is
    /// `kinds × (capacity+1) × (max_items+1)` u16 cells.
    #[must_use]
    pub fn build(items: Vec<Item>, capacity: u32, max_items: u32) -> Self {
        let p = Problem::new(items, capacity, max_items);
        let kinds = p.items.len();
        let cap = p.capacity as usize;
        let card = p.max_items as usize;
        let cells = (cap + 1) * (card + 1);
        let idx = |c: usize, k: usize| c * (card + 1) + k;
        let mut value = vec![0.0f64; cells];
        let mut cost = vec![0u32; cells];
        let mut copies = vec![0u32; cells];
        let mut choice = vec![vec![0u16; cells]; kinds];

        let mut next_value = vec![0.0f64; cells];
        let mut next_cost = vec![0u32; cells];
        let mut next_copies = vec![0u32; cells];

        for (i, it) in p.items.iter().enumerate() {
            let bound = p.effective_bound(i) as usize;
            for c in 0..=cap {
                for k in 0..=card {
                    let mut best = (f64::NEG_INFINITY, u32::MAX, u32::MAX);
                    let mut best_n = 0usize;
                    let n_max = bound.min(c / it.cost as usize).min(k);
                    for n in 0..=n_max {
                        let pc = c - n * it.cost as usize;
                        let pk = k - n;
                        let j = idx(pc, pk);
                        let v = value[j] + n as f64 * it.value;
                        let tc = cost[j] + n as u32 * it.cost;
                        let tk = copies[j] + n as u32;
                        if better(v, tc, tk, best) {
                            best = (v, tc, tk);
                            best_n = n;
                        }
                    }
                    let j = idx(c, k);
                    next_value[j] = best.0;
                    next_cost[j] = best.1;
                    next_copies[j] = best.2;
                    choice[i][j] = best_n as u16;
                }
            }
            std::mem::swap(&mut value, &mut next_value);
            std::mem::swap(&mut cost, &mut next_cost);
            std::mem::swap(&mut copies, &mut next_copies);
        }

        Self {
            items: p.items,
            capacity,
            max_items,
            choice,
        }
    }

    /// The item kinds the table was built over.
    #[must_use]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The resource budget the table covers.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// The cardinality bound the table covers.
    #[must_use]
    pub fn max_items(&self) -> u32 {
        self.max_items
    }

    /// The smallest item cost, or `None` for an empty item set. The
    /// cardinality of any feasible selection at budget `c` is at most
    /// `c / min_cost`, which is why tables saturate there.
    #[must_use]
    pub fn min_cost(&self) -> Option<u32> {
        self.items.iter().map(|it| it.cost).min()
    }

    /// Answers the sub-instance `(capacity, max_items)` by walking the
    /// retained choice tables — see the type docs for the equality
    /// contract. Panics if the query exceeds the table's rectangle.
    #[must_use]
    pub fn solve_at(&self, capacity: u32, max_items: u32) -> Solution {
        assert!(
            capacity <= self.capacity && max_items <= self.max_items,
            "query ({capacity}, {max_items}) outside table rectangle ({}, {})",
            self.capacity,
            self.max_items
        );
        let kinds = self.items.len();
        let card = self.max_items as usize;
        let idx = |c: usize, k: usize| c * (card + 1) + k;
        let mut counts = vec![0u32; kinds];
        let (mut c, mut k) = (capacity as usize, max_items as usize);
        for i in (0..kinds).rev() {
            let n = u32::from(self.choice[i][idx(c, k)]);
            counts[i] = n;
            c -= (n * self.items[i].cost) as usize;
            k -= n as usize;
        }
        Solution::from_counts(
            &Problem::new(self.items.clone(), capacity, max_items),
            counts,
        )
        .expect("DP reconstruction is feasible by construction")
    }

    /// [`DpTable::solve_at`] with the cardinality clamped to the
    /// saturation point `capacity / min_cost`, letting a table built at
    /// the saturated cardinality answer queries with any larger bound.
    #[must_use]
    pub fn solve_clamped(&self, capacity: u32, max_items: u32) -> Solution {
        let k = match self.min_cost() {
            Some(mc) => max_items.min(capacity / mc),
            None => 0,
        };
        self.solve_at(capacity, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Item;

    #[test]
    fn empty_problem() {
        let p = Problem::new(vec![], 10, 10);
        let s = solve_dp(&p);
        assert_eq!(s.value, 0.0);
        assert!(s.counts.is_empty());
    }

    #[test]
    fn zero_capacity_selects_nothing() {
        let p = Problem::new(vec![Item::new(4, 1.0, 10)], 0, 10);
        assert_eq!(solve_dp(&p).copies, 0);
    }

    #[test]
    fn zero_cardinality_selects_nothing() {
        let p = Problem::new(vec![Item::new(4, 1.0, 10)], 100, 0);
        assert_eq!(solve_dp(&p).copies, 0);
    }

    #[test]
    fn single_item_fills_capacity() {
        let p = Problem::new(vec![Item::new(3, 1.0, 100)], 10, 100);
        let s = solve_dp(&p);
        assert_eq!(s.counts, vec![3]);
        assert_eq!(s.cost, 9);
    }

    #[test]
    fn cardinality_binds_before_capacity() {
        let p = Problem::new(vec![Item::new(3, 1.0, 100)], 100, 4);
        let s = solve_dp(&p);
        assert_eq!(s.counts, vec![4]);
    }

    #[test]
    fn prefers_dense_items_under_cardinality() {
        // With at most 2 copies total, two big items beat many smalls.
        let p = Problem::new(vec![Item::new(1, 1.0, 100), Item::new(10, 5.0, 100)], 20, 2);
        let s = solve_dp(&p);
        assert_eq!(s.counts, vec![0, 2]);
        assert_eq!(s.value, 10.0);
    }

    #[test]
    fn classic_tradeoff() {
        // cost/value: a=(4, 4.5), b=(5, 5.0). Capacity 13, ≤3 copies.
        // 2a+1b = cost 13, value 14 beats 1a+1b (9.5) and 2b (10).
        let p = Problem::new(vec![Item::new(4, 4.5, 9), Item::new(5, 5.0, 9)], 13, 3);
        let s = solve_dp(&p);
        assert_eq!(s.counts, vec![2, 1]);
        assert!((s.value - 14.0).abs() < 1e-9);
    }

    #[test]
    fn value_ties_prefer_cheaper() {
        // Same value, different cost: pick the cheap one.
        let p = Problem::new(vec![Item::new(7, 1.0, 1), Item::new(3, 1.0, 1)], 10, 1);
        let s = solve_dp(&p);
        assert_eq!(s.counts, vec![0, 1]);
        assert_eq!(s.cost, 3);
    }

    #[test]
    fn per_item_bounds_respected() {
        let p = Problem::new(vec![Item::new(2, 10.0, 2), Item::new(2, 1.0, 100)], 10, 10);
        let s = solve_dp(&p);
        assert_eq!(s.counts, vec![2, 3]);
    }

    fn assert_same_solution(a: &Solution, b: &Solution) {
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.copies, b.copies);
    }

    #[test]
    fn table_matches_solve_dp_over_paper_rectangle() {
        // The scheduler's item shape: sizes 4..=11, value 1/T[G]. The
        // reference `solve_dp` side uses per-instance items with
        // `max_copies = ns` exactly as `oa_sched` heuristics build
        // them; the shared table uses the saturated cardinality.
        let t = [
            7142.0, 3782.0, 2662.0, 2102.0, 1766.0, 1542.0, 1382.0, 1262.0,
        ];
        let cap = 120u32;
        let card = cap / 4; // saturated: min cost 4
        let shared: Vec<Item> = (0..8)
            .map(|i| Item::new(4 + i as u32, 1.0 / t[i], card))
            .collect();
        let table = DpTable::build(shared, cap, card);
        for r in (0..=cap).step_by(7) {
            for ns in 1..=14u32 {
                let items: Vec<Item> = (0..8)
                    .map(|i| Item::new(4 + i as u32, 1.0 / t[i], ns))
                    .collect();
                let want = solve_dp(&Problem::new(items, r, ns));
                let got = table.solve_clamped(r, ns);
                assert_same_solution(&got, &want);
            }
        }
    }

    #[test]
    fn saturated_cardinality_collapses() {
        // Beyond capacity / min_cost extra cardinality cannot change
        // the optimum: every feasible selection is already reachable.
        let items = vec![Item::new(3, 2.0, 1000), Item::new(5, 3.5, 1000)];
        let table = DpTable::build(items.clone(), 30, 10); // 30/3 = 10
        for ns in [10u32, 11, 25, 400] {
            let want = solve_dp(&Problem::new(items.clone(), 30, ns));
            assert_same_solution(&table.solve_clamped(30, ns), &want);
        }
    }

    #[test]
    fn empty_table_answers_empty() {
        let table = DpTable::build(vec![], 10, 0);
        let s = table.solve_clamped(10, 5);
        assert!(s.counts.is_empty());
        assert_eq!(s.copies, 0);
    }

    #[test]
    #[should_panic(expected = "outside table rectangle")]
    fn out_of_rectangle_query_panics() {
        let table = DpTable::build(vec![Item::new(2, 1.0, 8)], 16, 8);
        let _ = table.solve_at(17, 8);
    }

    #[test]
    fn paper_shaped_instance() {
        // Group sizes 4..=11, value 1/T[G] with the reference Amdahl
        // table, R = 53, NS = 10 → the optimum packs 53 processors.
        let t = [
            7142.0, 3782.0, 2662.0, 2102.0, 1766.0, 1542.0, 1382.0, 1262.0,
        ];
        let items: Vec<Item> = (0..8)
            .map(|i| Item::new(4 + i as u32, 1.0 / t[i], 10))
            .collect();
        let p = Problem::new(items, 53, 10);
        let s = solve_dp(&p);
        assert!(s.is_valid_for(&p));
        assert!(s.cost <= 53);
        assert!(s.copies <= 10);
        // The knapsack must beat the basic grouping's 7 groups of 7
        // (value 7/2102) on throughput.
        assert!(s.value >= 7.0 / 2102.0 - 1e-12);
    }
}
