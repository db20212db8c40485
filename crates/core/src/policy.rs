//! Campaign policy knobs: scenario selection, task granularity,
//! failure plans and recovery models.
//!
//! These are the *configuration* half of the discrete-event campaign
//! engine (`oa-sim::engine`): pure data, next to [`crate::estimate`]
//! which implements the same least-advanced-first policy in its fast
//! aggregate form. Both event loops — the fast estimator and the
//! engine, in every configuration — draw their scenario-selection
//! behaviour from [`ScenarioQueue`] so the policies cannot drift apart.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

/// How a freed group chooses among waiting scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ScenarioPolicy {
    /// The paper's policy: the scenario with the fewest completed
    /// months ("the month of the less advanced simulation waiting").
    #[default]
    LeastAdvanced,
    /// First-come-first-served over readiness events.
    RoundRobin,
    /// Adversarial ablation: the most advanced scenario first.
    MostAdvanced,
}

impl ScenarioPolicy {
    /// Every policy, paper default first.
    pub const ALL: [ScenarioPolicy; 3] = [
        ScenarioPolicy::LeastAdvanced,
        ScenarioPolicy::RoundRobin,
        ScenarioPolicy::MostAdvanced,
    ];

    /// The kebab-case name used by CLI flags and result files.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioPolicy::LeastAdvanced => "least-advanced",
            ScenarioPolicy::RoundRobin => "round-robin",
            ScenarioPolicy::MostAdvanced => "most-advanced",
        }
    }

    /// Parses a [`Self::label`] back into a policy.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == s)
    }
}

impl std::fmt::Display for ScenarioPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Scenario queue supporting the three policies — the policy *object*
/// the engine consults at every assignment decision.
#[derive(Debug, Clone)]
pub enum ScenarioQueue {
    /// Min-heap on `(months done, scenario)`.
    Least(BinaryHeap<Reverse<(u32, u32)>>),
    /// FIFO over readiness events.
    Fifo(VecDeque<u32>),
    /// Max-heap on `(months done, scenario)`.
    Most(BinaryHeap<(u32, u32)>),
}

impl ScenarioQueue {
    /// A queue holding all `ns` scenarios at zero completed months.
    pub fn new(policy: ScenarioPolicy, ns: u32) -> Self {
        match policy {
            ScenarioPolicy::LeastAdvanced => {
                ScenarioQueue::Least((0..ns).map(|s| Reverse((0, s))).collect())
            }
            ScenarioPolicy::RoundRobin => ScenarioQueue::Fifo((0..ns).collect()),
            ScenarioPolicy::MostAdvanced => ScenarioQueue::Most((0..ns).map(|s| (0, s)).collect()),
        }
    }

    /// Enqueues scenario `s`, which has `months_done` completed months.
    pub fn push(&mut self, months_done: u32, s: u32) {
        match self {
            ScenarioQueue::Least(h) => h.push(Reverse((months_done, s))),
            ScenarioQueue::Fifo(q) => q.push_back(s),
            ScenarioQueue::Most(h) => h.push((months_done, s)),
        }
    }

    /// Enqueues scenario `s`, which has `months_done` completed months,
    /// and dequeues the scenario the policy then prefers: the answer and
    /// the remaining content of [`Self::push`] followed by [`Self::pop`],
    /// with at most one sift. Heap keys are distinct (each scenario
    /// waits at most once), so the queue's later pops depend only on
    /// that content.
    pub fn push_pop(&mut self, months_done: u32, s: u32) -> u32 {
        match self {
            ScenarioQueue::Least(h) => match h.peek_mut() {
                Some(mut top) if top.0 < (months_done, s) => {
                    std::mem::replace(&mut *top, Reverse((months_done, s))).0 .1
                }
                _ => s,
            },
            ScenarioQueue::Fifo(q) => match q.pop_front() {
                Some(first) => {
                    q.push_back(s);
                    first
                }
                None => s,
            },
            ScenarioQueue::Most(h) => match h.peek_mut() {
                Some(mut top) if *top > (months_done, s) => {
                    std::mem::replace(&mut *top, (months_done, s)).1
                }
                _ => s,
            },
        }
    }

    /// Dequeues the scenario the policy prefers.
    pub fn pop(&mut self) -> Option<u32> {
        match self {
            ScenarioQueue::Least(h) => h.pop().map(|Reverse((_, s))| s),
            ScenarioQueue::Fifo(q) => q.pop_front(),
            ScenarioQueue::Most(h) => h.pop().map(|(_, s)| s),
        }
    }

    /// Whether no scenario is waiting.
    pub fn is_empty(&self) -> bool {
        match self {
            ScenarioQueue::Least(h) => h.is_empty(),
            ScenarioQueue::Fifo(q) => q.is_empty(),
            ScenarioQueue::Most(h) => h.is_empty(),
        }
    }

    /// Number of waiting scenarios.
    pub fn len(&self) -> usize {
        match self {
            ScenarioQueue::Least(h) => h.len(),
            ScenarioQueue::Fifo(q) => q.len(),
            ScenarioQueue::Most(h) => h.len(),
        }
    }

    /// The queue's content as `(stored months, scenario)` pairs, in an
    /// order that determines future pops: FIFO order for the
    /// round-robin queue (which stores no month count — that slot is
    /// `0`), sorted for the heap-backed policies. Heap keys are unique
    /// (each scenario waits at most once and carries one month count),
    /// so pop order is a pure function of this canonical content —
    /// which is what lets `oa-sim`'s fast-forward detector compare
    /// queue states across cycles without caring about internal heap
    /// layout.
    pub fn canonical_content(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.len());
        self.canonical_content_into(&mut out);
        out
    }

    /// [`Self::canonical_content`] into a caller-owned buffer (cleared
    /// first) — the allocation-free form the simulation hot path uses.
    pub fn canonical_content_into(&self, out: &mut Vec<(u32, u32)>) {
        out.clear();
        match self {
            ScenarioQueue::Least(h) => {
                out.extend(h.iter().map(|Reverse(k)| *k));
                out.sort_unstable();
            }
            ScenarioQueue::Fifo(q) => out.extend(q.iter().map(|&s| (0, s))),
            ScenarioQueue::Most(h) => {
                out.extend(h.iter().copied());
                out.sort_unstable();
            }
        }
    }

    /// Refills the queue with all `ns` scenarios at zero completed
    /// months, reusing the existing allocation when the policy matches
    /// (it always does across the points of one sweep).
    pub fn reset(&mut self, policy: ScenarioPolicy, ns: u32) {
        match (&mut *self, policy) {
            (ScenarioQueue::Least(h), ScenarioPolicy::LeastAdvanced) => {
                h.clear();
                h.extend((0..ns).map(|s| Reverse((0, s))));
            }
            (ScenarioQueue::Fifo(q), ScenarioPolicy::RoundRobin) => {
                q.clear();
                q.extend(0..ns);
            }
            (ScenarioQueue::Most(h), ScenarioPolicy::MostAdvanced) => {
                h.clear();
                h.extend((0..ns).map(|s| (0, s)));
            }
            (slot, _) => *slot = ScenarioQueue::new(policy, ns),
        }
    }
}

/// What a crashed scenario resumes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Recovery {
    /// Resume from the last completed month (the application's restart
    /// files — the realistic model).
    #[default]
    MonthlyCheckpoint,
    /// Restart the scenario from month 0 (counterfactual: no
    /// checkpoints).
    RestartScenario,
}

impl Recovery {
    /// The names `oa`, the service's `Submit` and a batch spec accept:
    /// each model's canonical name first, then its aliases.
    const NAMES: [(&'static str, Recovery); 5] = [
        ("checkpoint", Recovery::MonthlyCheckpoint),
        ("monthly", Recovery::MonthlyCheckpoint),
        ("monthly-checkpoint", Recovery::MonthlyCheckpoint),
        ("restart", Recovery::RestartScenario),
        ("restart-scenario", Recovery::RestartScenario),
    ];

    /// Parses a recovery name or alias (`checkpoint`, `restart`, …).
    pub fn parse(s: &str) -> Option<Self> {
        Self::NAMES
            .into_iter()
            .find(|&(n, _)| n == s)
            .map(|(_, r)| r)
    }
}

/// A failure plan: `(group index, time)` pairs. Group indices refer to
/// the canonical (descending-size) order of the grouping.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Failures to inject.
    pub failures: Vec<(usize, f64)>,
}

impl FaultPlan {
    /// No failures.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kills group `g` at `time`.
    pub fn kill(mut self, g: usize, time: f64) -> Self {
        self.failures.push((g, time));
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Task granularity the engine simulates at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Granularity {
    /// The paper's Figure 2 model: one fused main task and one fused
    /// post task per month.
    #[default]
    Fused,
    /// The original Figure 1 model: the group holds `caif + mp + pcr`
    /// back to back, and `cof`, `emf`, `cd` chain individually through
    /// the post pool.
    Unfused,
}

impl Granularity {
    /// The kebab-case name used by CLI flags and result files.
    pub fn label(self) -> &'static str {
        match self {
            Granularity::Fused => "fused",
            Granularity::Unfused => "unfused",
        }
    }

    /// Parses a [`Self::label`] back into a granularity.
    pub fn parse(s: &str) -> Option<Self> {
        [Granularity::Fused, Granularity::Unfused]
            .into_iter()
            .find(|g| g.label() == s)
    }
}

/// Full configuration of one campaign run: the three orthogonal knobs
/// of the generic engine besides the fault plan itself.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Scenario-selection policy.
    pub policy: ScenarioPolicy,
    /// Task granularity.
    pub granularity: Granularity,
    /// What a crashed scenario resumes from.
    pub recovery: Recovery,
}

impl CampaignConfig {
    /// Fused-granularity config under `policy` (the executor default).
    pub fn fused(policy: ScenarioPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Unfused-granularity config under `policy`.
    pub fn unfused(policy: ScenarioPolicy) -> Self {
        Self {
            policy,
            granularity: Granularity::Unfused,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in ScenarioPolicy::ALL {
            assert_eq!(ScenarioPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(ScenarioPolicy::parse("bogus"), None);
    }

    #[test]
    fn recovery_names_and_aliases_parse() {
        for (name, want) in Recovery::NAMES {
            assert_eq!(Recovery::parse(name), Some(want), "{name}");
        }
        assert_eq!(
            Recovery::parse("checkpoint"),
            Some(Recovery::MonthlyCheckpoint)
        );
        assert_eq!(Recovery::parse("restart"), Some(Recovery::RestartScenario));
        assert_eq!(Recovery::parse("Checkpoint"), None);
        assert_eq!(Recovery::parse("bogus"), None);
    }

    #[test]
    fn least_advanced_prefers_fewest_months() {
        let mut q = ScenarioQueue::new(ScenarioPolicy::LeastAdvanced, 0);
        q.push(5, 0);
        q.push(2, 1);
        q.push(9, 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn fifo_preserves_readiness_order() {
        let mut q = ScenarioQueue::new(ScenarioPolicy::RoundRobin, 3);
        assert_eq!(q.pop(), Some(0));
        q.push(1, 0);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(0));
        assert!(q.is_empty());
    }

    #[test]
    fn most_advanced_prefers_most_months() {
        let mut q = ScenarioQueue::new(ScenarioPolicy::MostAdvanced, 0);
        q.push(5, 0);
        q.push(2, 1);
        q.push(9, 2);
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn reset_reuses_across_policies() {
        let mut q = ScenarioQueue::new(ScenarioPolicy::LeastAdvanced, 4);
        q.reset(ScenarioPolicy::LeastAdvanced, 2);
        assert_eq!(q.len(), 2);
        q.reset(ScenarioPolicy::RoundRobin, 3);
        assert_eq!(q.pop(), Some(0));
        q.reset(ScenarioPolicy::MostAdvanced, 1);
        assert_eq!(q.pop(), Some(0));
    }

    #[test]
    fn canonical_content_determines_pop_order() {
        // Two heaps built by different push sequences but holding the
        // same keys must report identical canonical content (and will
        // therefore pop identically — keys are unique).
        let mut a = ScenarioQueue::new(ScenarioPolicy::LeastAdvanced, 0);
        let mut b = ScenarioQueue::new(ScenarioPolicy::LeastAdvanced, 0);
        for (m, s) in [(5, 0), (2, 1), (9, 2)] {
            a.push(m, s);
        }
        for (m, s) in [(9, 2), (5, 0), (2, 1)] {
            b.push(m, s);
        }
        assert_eq!(a.canonical_content(), b.canonical_content());
        assert_eq!(a.canonical_content(), vec![(2, 1), (5, 0), (9, 2)]);
        // FIFO content is readiness order with a zero filler.
        let mut f = ScenarioQueue::new(ScenarioPolicy::RoundRobin, 0);
        f.push(7, 3);
        f.push(1, 1);
        assert_eq!(f.canonical_content(), vec![(0, 3), (0, 1)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]

        /// `push_pop` is a push followed by a pop under every policy:
        /// the same answer, the same canonical content after every
        /// operation, and the same pops once both queues drain. Each op
        /// is a push, a pop or a push-pop; a pushed scenario is one not
        /// waiting, so keys stay distinct as the engine keeps them.
        #[test]
        fn push_pop_is_a_push_then_a_pop(
            ops in proptest::collection::vec((0u32..3, 0u32..16, 0u32..6), 1..=80),
        ) {
            for policy in ScenarioPolicy::ALL {
                let mut fused = ScenarioQueue::new(policy, 4);
                let mut split = ScenarioQueue::new(policy, 4);
                let mut waiting: Vec<bool> = (0..16).map(|s| s < 4).collect();
                for &(op, s, months) in &ops {
                    if op == 1 {
                        let got = fused.pop();
                        proptest::prop_assert_eq!(got, split.pop(), "{}", policy);
                        if let Some(g) = got {
                            waiting[g as usize] = false;
                        }
                    } else if !waiting[s as usize] {
                        let got = if op == 0 {
                            fused.push(months, s);
                            split.push(months, s);
                            None
                        } else {
                            split.push(months, s);
                            let want = split.pop();
                            let got = fused.push_pop(months, s);
                            proptest::prop_assert_eq!(Some(got), want, "{}", policy);
                            want
                        };
                        waiting[s as usize] = true;
                        if let Some(g) = got {
                            waiting[g as usize] = false;
                        }
                    }
                    proptest::prop_assert_eq!(
                        fused.canonical_content(),
                        split.canonical_content(),
                        "{}",
                        policy
                    );
                }
                while let Some(s) = split.pop() {
                    proptest::prop_assert_eq!(fused.pop(), Some(s), "{}", policy);
                }
                proptest::prop_assert!(fused.is_empty());
            }
        }
    }

    #[test]
    fn fault_plan_builder() {
        let plan = FaultPlan::none().kill(1, 50.0).kill(0, 10.0);
        assert_eq!(plan.failures, vec![(1, 50.0), (0, 10.0)]);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }
}
