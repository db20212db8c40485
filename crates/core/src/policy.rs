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
/// both event loops consult at every assignment decision.
///
/// The heap-backed policies key a waiting scenario `s` with `m`
/// completed months as one `u64`, `m << 32 | s`: integer order on the
/// packed key is the order of the `(m, s)` tuple, so every pop is the
/// tuple heap's, for one comparison instead of two. Each scenario waits
/// at most once, so keys are distinct, and a heap's pop sequence is a
/// function of its key set alone ([`Self::canonical_content`]).
#[derive(Debug, Clone)]
pub enum ScenarioQueue {
    /// Min-heap on packed `(months done, scenario)` keys.
    Least(BinaryHeap<Reverse<u64>>),
    /// FIFO over readiness events.
    Fifo(VecDeque<u32>),
    /// Max-heap on packed `(months done, scenario)` keys.
    Most(BinaryHeap<u64>),
}

/// The packed heap key of scenario `s` with `months` completed months;
/// its low half, `k as u32`, is the scenario.
#[inline]
fn key(months: u32, s: u32) -> u64 {
    u64::from(months) << 32 | u64::from(s)
}

/// The `(months, scenario)` pair a packed key holds.
fn unpack(k: u64) -> (u32, u32) {
    ((k >> 32) as u32, k as u32)
}

/// Empty, under the default (paper) policy.
impl Default for ScenarioQueue {
    fn default() -> Self {
        Self::new(ScenarioPolicy::default(), 0)
    }
}

impl ScenarioQueue {
    /// A queue holding all `ns` scenarios at zero completed months.
    pub fn new(policy: ScenarioPolicy, ns: u32) -> Self {
        match policy {
            ScenarioPolicy::LeastAdvanced => {
                ScenarioQueue::Least((0..ns).map(|s| Reverse(key(0, s))).collect())
            }
            ScenarioPolicy::RoundRobin => ScenarioQueue::Fifo((0..ns).collect()),
            ScenarioPolicy::MostAdvanced => {
                ScenarioQueue::Most((0..ns).map(|s| key(0, s)).collect())
            }
        }
    }

    /// Enqueues scenario `s`, which has `months_done` completed months.
    #[inline]
    pub fn push(&mut self, months_done: u32, s: u32) {
        match self {
            ScenarioQueue::Least(h) => h.push(Reverse(key(months_done, s))),
            ScenarioQueue::Fifo(q) => q.push_back(s),
            ScenarioQueue::Most(h) => h.push(key(months_done, s)),
        }
    }

    /// Enqueues scenario `s`, which has `months_done` completed months,
    /// and dequeues the scenario the policy then prefers: the answer and
    /// the remaining content of [`Self::push`] followed by [`Self::pop`],
    /// with at most one sift. Heap keys are distinct, so the queue's
    /// later pops depend only on that content.
    #[inline]
    pub fn push_pop(&mut self, months_done: u32, s: u32) -> u32 {
        let k = key(months_done, s);
        match self {
            ScenarioQueue::Least(h) => match h.peek_mut() {
                Some(mut top) if top.0 < k => std::mem::replace(&mut *top, Reverse(k)).0 as u32,
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
                Some(mut top) if *top > k => std::mem::replace(&mut *top, k) as u32,
                _ => s,
            },
        }
    }

    /// Dequeues the scenario the policy prefers.
    #[inline]
    pub fn pop(&mut self) -> Option<u32> {
        match self {
            ScenarioQueue::Least(h) => h.pop().map(|Reverse(k)| k as u32),
            ScenarioQueue::Fifo(q) => q.pop_front(),
            ScenarioQueue::Most(h) => h.pop().map(|k| k as u32),
        }
    }

    /// Adds `dm` to the month count of every waiting scenario, as a
    /// replay that moves every scenario `dm` months on must. One
    /// constant added to every count keeps the keys' order, so the heap
    /// stays a heap and the queue pops as a fresh one of the shifted
    /// pairs would. The round-robin queue stores no counts and does not
    /// change.
    pub fn shift_months(&mut self, dm: u32) {
        let add = u64::from(dm) << 32;
        match self {
            ScenarioQueue::Least(h) => {
                *h = std::mem::take(h)
                    .into_iter()
                    .map(|Reverse(k)| Reverse(k + add))
                    .collect();
            }
            ScenarioQueue::Fifo(_) => {}
            ScenarioQueue::Most(h) => *h = std::mem::take(h).into_iter().map(|k| k + add).collect(),
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
                out.extend(h.iter().map(|&Reverse(k)| unpack(k)));
                out.sort_unstable();
            }
            ScenarioQueue::Fifo(q) => out.extend(q.iter().map(|&s| (0, s))),
            ScenarioQueue::Most(h) => {
                out.extend(h.iter().map(|&k| unpack(k)));
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
                h.extend((0..ns).map(|s| Reverse(key(0, s))));
            }
            (ScenarioQueue::Fifo(q), ScenarioPolicy::RoundRobin) => {
                q.clear();
                q.extend(0..ns);
            }
            (ScenarioQueue::Most(h), ScenarioPolicy::MostAdvanced) => {
                h.clear();
                h.extend((0..ns).map(|s| key(0, s)));
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

    /// The queue keyed by `(months, scenario)` tuples that the packed
    /// keys replaced, and the rebuild the engine's replay ran before
    /// [`ScenarioQueue::shift_months`]: the model the packed queue must
    /// pop as.
    enum Tuples {
        Least(BinaryHeap<Reverse<(u32, u32)>>),
        Fifo(VecDeque<u32>),
        Most(BinaryHeap<(u32, u32)>),
    }

    impl Tuples {
        fn new(policy: ScenarioPolicy, ns: u32) -> Self {
            match policy {
                ScenarioPolicy::LeastAdvanced => {
                    Self::Least((0..ns).map(|s| Reverse((0, s))).collect())
                }
                ScenarioPolicy::RoundRobin => Self::Fifo((0..ns).collect()),
                ScenarioPolicy::MostAdvanced => Self::Most((0..ns).map(|s| (0, s)).collect()),
            }
        }

        fn push(&mut self, months: u32, s: u32) {
            match self {
                Self::Least(h) => h.push(Reverse((months, s))),
                Self::Fifo(q) => q.push_back(s),
                Self::Most(h) => h.push((months, s)),
            }
        }

        fn pop(&mut self) -> Option<u32> {
            match self {
                Self::Least(h) => h.pop().map(|Reverse((_, s))| s),
                Self::Fifo(q) => q.pop_front(),
                Self::Most(h) => h.pop().map(|(_, s)| s),
            }
        }

        fn content(&self) -> Vec<(u32, u32)> {
            let mut out: Vec<(u32, u32)> = match self {
                Self::Least(h) => h.iter().map(|&Reverse(k)| k).collect(),
                Self::Fifo(q) => return q.iter().map(|&s| (0, s)).collect(),
                Self::Most(h) => h.iter().copied().collect(),
            };
            out.sort_unstable();
            out
        }

        /// Empties the queue and pushes every waiting scenario back
        /// `dm` months on, in canonical order.
        fn shift(&mut self, dm: u32) {
            let content = self.content();
            match self {
                Self::Least(h) => h.clear(),
                Self::Fifo(q) => q.clear(),
                Self::Most(h) => h.clear(),
            }
            for (m, s) in content {
                self.push(m + dm, s);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 256 }
        ))]

        /// The packed queue pops as the tuple-keyed one under every
        /// policy: the same answer to every `pop` and `push_pop`, and
        /// the same canonical content after every op, a `shift_months`
        /// included. Month counts and scenario ids reach the top half
        /// of `u32`, so a key whose halves bled into each other would
        /// show. A pushed scenario is one not waiting, as in the loops.
        #[test]
        fn packed_keys_pop_as_tuples(
            ops in proptest::collection::vec((0u32..4, 0u32..16, 0u32..12, 0u32..1000), 1..=80),
        ) {
            let id = |i: u32| if i < 8 { i } else { u32::MAX - i };
            for policy in ScenarioPolicy::ALL {
                let mut packed = ScenarioQueue::new(policy, 4);
                let mut model = Tuples::new(policy, 4);
                let mut waiting: Vec<bool> = (0..16).map(|i| i < 4).collect();
                for &(op, i, months, dm) in &ops {
                    let (s, months) = (id(i), if months < 6 { months } else { (1 << 31) + months });
                    let popped = match op {
                        0 if !waiting[i as usize] => {
                            packed.push(months, s);
                            model.push(months, s);
                            waiting[i as usize] = true;
                            None
                        }
                        1 if !waiting[i as usize] => {
                            model.push(months, s);
                            let want = model.pop();
                            let got = packed.push_pop(months, s);
                            proptest::prop_assert_eq!(Some(got), want, "{}", policy);
                            waiting[i as usize] = true;
                            want
                        }
                        2 => {
                            let want = model.pop();
                            proptest::prop_assert_eq!(packed.pop(), want, "{}", policy);
                            want
                        }
                        3 => {
                            packed.shift_months(dm);
                            model.shift(dm);
                            None
                        }
                        _ => None,
                    };
                    if let Some(g) = popped {
                        waiting[if g < 8 { g } else { u32::MAX - g } as usize] = false;
                    }
                    let want = model.content();
                    proptest::prop_assert_eq!(packed.len(), want.len(), "{}", policy);
                    proptest::prop_assert_eq!(packed.canonical_content(), want, "{}", policy);
                }
                while let Some(s) = model.pop() {
                    proptest::prop_assert_eq!(packed.pop(), Some(s), "{}", policy);
                }
                proptest::prop_assert!(packed.is_empty());
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
