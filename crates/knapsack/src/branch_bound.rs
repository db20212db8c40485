//! Branch-and-bound solver.
//!
//! An independent exact algorithm used to cross-check the dynamic
//! program (the two must agree on optimal *value* on every instance;
//! property tests enforce this). Depth-first search over copy counts
//! per item, pruned with the fractional (LP) upper bound of the
//! remaining subproblem, seeded with the greedy solution.

use crate::dp::exceeds;
use crate::greedy::solve_greedy;
use crate::problem::{Problem, Solution};

/// Upper bound on the value attainable from items `from..` with the
/// remaining capacity and cardinality.
///
/// Neither constraint alone admits the classic density-ordered LP bound
/// (with a copy limit, value *per copy* can trump value per unit cost),
/// so we relax each constraint in turn — density-ordered fractional
/// fill ignoring the cardinality limit, and value-per-copy fill
/// ignoring the capacity limit — and take the smaller of the two valid
/// bounds.
fn fractional_bound(p: &Problem, order: &[usize], from: usize, cap: f64, card: f64) -> f64 {
    // Relax cardinality: fractional fill by density (order is density-
    // sorted), respecting per-item copy bounds and capacity.
    let mut bound_cap = 0.0;
    let mut c = cap;
    for &i in &order[from..] {
        if c <= 0.0 {
            break;
        }
        let it = &p.items[i];
        let n = (it.max_copies as f64).min(c / it.cost as f64);
        bound_cap += n * it.value;
        c -= n * it.cost as f64;
    }
    // Relax capacity: fill by value per copy, respecting per-item copy
    // bounds and the cardinality limit.
    let mut by_value: Vec<usize> = order[from..].to_vec();
    by_value.sort_by(|&a, &b| p.items[b].value.total_cmp(&p.items[a].value));
    let mut bound_card = 0.0;
    let mut k = card;
    for &i in &by_value {
        if k <= 0.0 {
            break;
        }
        let it = &p.items[i];
        let n = (it.max_copies as f64).min(k);
        bound_card += n * it.value;
        k -= n;
    }
    bound_cap.min(bound_card)
}

/// Depth-first search state: the problem, the branching order and the
/// incumbent, carried once instead of threaded through every recursive
/// call.
struct Search<'a> {
    p: &'a Problem,
    order: Vec<usize>,
    counts: Vec<u32>,
    best_value: f64,
    best_counts: Vec<u32>,
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize, cap: u32, card: u32, value: f64) {
        // The DP's comparison, so both solvers agree on ties.
        if exceeds(value, self.best_value) {
            self.best_value = value;
            self.best_counts.clone_from(&self.counts);
        }
        if depth == self.order.len() || cap == 0 || card == 0 {
            return;
        }
        let bound =
            value + fractional_bound(self.p, &self.order, depth, f64::from(cap), f64::from(card));
        if !exceeds(bound, self.best_value) {
            return;
        }
        let i = self.order[depth];
        let it = &self.p.items[i];
        let n_max = it.max_copies.min(card).min(cap / it.cost);
        // Try larger counts first: good solutions early → stronger pruning.
        for n in (0..=n_max).rev() {
            self.counts[i] = n;
            self.dfs(
                depth + 1,
                cap - n * it.cost,
                card - n,
                value + f64::from(n) * it.value,
            );
        }
        self.counts[i] = 0;
    }
}

/// Solves the instance exactly by branch and bound.
pub fn solve_branch_bound(p: &Problem) -> Solution {
    // Branch in density order so the bound tightens early.
    let mut order: Vec<usize> = (0..p.items.len()).collect();
    order.sort_by(|&a, &b| {
        let da = p.items[a].value / p.items[a].cost as f64;
        let db = p.items[b].value / p.items[b].cost as f64;
        db.total_cmp(&da).then(a.cmp(&b))
    });

    let seed = solve_greedy(p);
    let mut search = Search {
        p,
        order,
        counts: vec![0u32; p.items.len()],
        best_value: seed.value,
        best_counts: seed.counts.clone(),
    };
    search.dfs(0, p.capacity, p.max_items, 0.0);
    Solution::from_counts(p, search.best_counts).expect("search only visits feasible states")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::solve_dp;
    use crate::problem::Item;

    fn agree(p: &Problem) {
        let a = solve_dp(p);
        let b = solve_branch_bound(p);
        assert!(
            (a.value - b.value).abs() <= 1e-9 * (1.0 + a.value.abs()),
            "dp={} bb={} on {:?}",
            a.value,
            b.value,
            p
        );
    }

    #[test]
    fn agrees_with_dp_on_fixed_instances() {
        agree(&Problem::new(vec![], 10, 10));
        agree(&Problem::new(
            vec![Item::new(4, 4.5, 9), Item::new(5, 5.0, 9)],
            13,
            3,
        ));
        agree(&Problem::new(
            vec![Item::new(7, 10.0, 10), Item::new(5, 7.0, 10)],
            10,
            10,
        ));
        let t = [
            7142.0, 3782.0, 2662.0, 2102.0, 1766.0, 1542.0, 1382.0, 1262.0,
        ];
        let items: Vec<Item> = (0..8)
            .map(|i| Item::new(4 + i as u32, 1.0 / t[i], 10))
            .collect();
        for r in [11, 23, 53, 77, 110] {
            agree(&Problem::new(items.clone(), r, 10));
        }
    }

    #[test]
    fn bound_is_admissible() {
        let p = Problem::new(vec![Item::new(3, 3.0, 5), Item::new(2, 1.0, 5)], 11, 4);
        let order = vec![0usize, 1];
        let b = fractional_bound(&p, &order, 0, 11.0, 4.0);
        let opt = solve_dp(&p).value;
        assert!(b + 1e-9 >= opt);
    }

    #[test]
    fn seeded_by_greedy_never_worse_than_greedy() {
        let p = Problem::new(vec![Item::new(6, 5.0, 3), Item::new(4, 3.5, 3)], 17, 3);
        let bb = solve_branch_bound(&p);
        let g = crate::greedy::solve_greedy(&p);
        assert!(bb.value + 1e-12 >= g.value);
    }
}
