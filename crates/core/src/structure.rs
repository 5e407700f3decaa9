//! First-class **structure functions**: k-out-of-n and AND/OR fault trees
//! over component failure indicators.
//!
//! The paper states every result for a flat 1-out-of-2 pair, the
//! [`Structure::one_out_of_n`]`(2)` of this module. A 1-out-of-N system
//! fails on a demand only if all N versions fail: under independent
//! suites conditional independence per demand survives (the §3.1
//! argument iterates over any number of channels), so `P = Π_i ζ_i(x)`;
//! under a shared suite the coupling of eq (20)/(21) becomes the N-fold
//! mixed moment `E_Ξ[Π_i ξ_i(x, T)]`. This module generalises the system
//! model to an arbitrary boolean composition of component failures — a
//! [`Structure`] tree of [`Structure::And`], [`Structure::Or`] and
//! [`Structure::KOutOfN`] gates over [`Structure::Component`] leaves — and
//! evaluates it three ways that agree bit-for-bit:
//!
//! 1. **Concrete version tuples** ([`Structure::failure_set`]): failure-set
//!    algebra on the packed-bitset kernel — intersection per AND gate,
//!    union per OR gate, a ≥t bitset dynamic programme per k-of-n gate.
//!    [`crate::system`] is the version-facing wrapper.
//! 2. **Population expectations per demand**
//!    ([`fail_on_demand_independent`], [`fail_on_demand_shared`],
//!    [`structure_pfd`]): the per-gate mixed moments `E_Ξ[f(ξ_1..ξ_n)]`
//!    generalising eqs 15–21 — independent suites factorise per component,
//!    a shared suite re-introduces the eq-20 coupling at every gate
//!    ([`gate_moments`]).
//! 3. **Brute-force enumeration** (`exact::brute::StructureEnsemble`,
//!    downstream): assumption-free cross-products over version supports.
//!
//! # Failure-indicator convention
//!
//! Gates operate on component **failure** indicators (a fault-tree view):
//!
//! * [`Structure::And`] — the subsystem fails iff *all* children fail.
//!   Parallel redundancy; `And` over N components is exactly the paper's
//!   1-out-of-N adjudicated system.
//! * [`Structure::Or`] — the subsystem fails iff *any* child fails.
//!   A series system (no redundancy).
//! * [`Structure::KOutOfN`] — the subsystem *works* iff at least `k` of
//!   its `n` children work, i.e. fails iff at least `n − k + 1` children
//!   fail. `k = 1` coincides with `And`, `k = n` with `Or`.
//!
//! # Repeated components
//!
//! A component index may appear in several leaves (the [`Structure::bridge`]
//! min-cut tree needs this). Failure-set algebra and boolean evaluation are
//! exact regardless. Probability evaluation distinguishes the two cases:
//! repeat-free trees use the fast gate-wise recursion (whose `And` product
//! is bit-for-bit the flat `Π ζ_i` path), while trees with repeats
//! enumerate the `2^d` joint states of the `d` distinct components — exact
//! in both testing regimes, because conditioned on the suite(s) the
//! distinct components' failure indicators are independent Bernoullis and
//! repeated leaves share one indicator.

use std::borrow::Cow;

use diversim_testing::suite_population::ExplicitSuitePopulation;
use diversim_universe::bitset::BitSet;
use diversim_universe::demand::DemandId;
use diversim_universe::profile::UsageProfile;

use crate::difficulty::TestedDifficulty;
use crate::error::CoreError;
use crate::testing_effect::TestingRegime;

/// Largest number of *distinct* components for which the repeated-component
/// probability path will enumerate joint states (`2^d` terms).
pub const MAX_ENUMERATED_COMPONENTS: usize = 24;

/// Component indices a structure may use: every leaf index is below this
/// cap, which [`Structure::validate`] enforces. A system draws and debugs
/// every component up to its largest index, so the cap bounds the work
/// one tree can ask for. Trees number their components from 0, and a tree
/// of 256 nodes names at most 255 of them.
pub const MAX_COMPONENTS: usize = 256;

/// A system structure function over component failure indicators.
///
/// See the [module docs](self) for the failure-indicator convention and
/// the three evaluation paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Structure {
    /// A leaf: the component with this index fails.
    Component(usize),
    /// Fails iff **all** children fail (parallel redundancy / 1-out-of-N).
    And(Vec<Structure>),
    /// Fails iff **any** child fails (series).
    Or(Vec<Structure>),
    /// Works iff at least `k` of the children work — fails iff at least
    /// `n − k + 1` children fail.
    KOutOfN {
        /// Number of children that must *work* for the subsystem to work.
        k: usize,
        /// The child subsystems.
        children: Vec<Structure>,
    },
}

impl Structure {
    /// A component leaf.
    pub fn component(index: usize) -> Self {
        Structure::Component(index)
    }

    /// An AND gate (all children must fail).
    pub fn and(children: Vec<Structure>) -> Self {
        Structure::And(children)
    }

    /// An OR gate (any child failing fails the subsystem).
    pub fn or(children: Vec<Structure>) -> Self {
        Structure::Or(children)
    }

    /// A k-out-of-n gate over the given children.
    pub fn k_out_of_n(k: usize, children: Vec<Structure>) -> Self {
        Structure::KOutOfN { k, children }
    }

    /// The paper's 1-out-of-N adjudicated system over components `0..n`:
    /// an AND gate (the system fails only when every version fails).
    pub fn one_out_of_n(n: usize) -> Self {
        Structure::And((0..n).map(Structure::Component).collect())
    }

    /// A series system over components `0..n`: an OR gate (any component
    /// failure is a system failure).
    pub fn series(n: usize) -> Self {
        Structure::Or((0..n).map(Structure::Component).collect())
    }

    /// A flat k-out-of-n system over components `0..n`.
    pub fn k_of_n(k: usize, n: usize) -> Self {
        Structure::KOutOfN {
            k,
            children: (0..n).map(Structure::Component).collect(),
        }
    }

    /// The classic five-component bridge network, written as the min-cut
    /// fault tree: the bridge fails iff
    /// `(F₀∧F₁) ∨ (F₃∧F₄) ∨ (F₀∧F₂∧F₄) ∨ (F₁∧F₂∧F₃)`.
    ///
    /// Components 0/1 are the upper/lower input links, 3/4 the upper/lower
    /// output links and 2 the cross-link. Every component appears in two
    /// cuts, so this is the canonical *repeated-component* fixture.
    pub fn bridge() -> Self {
        let c = Structure::component;
        Structure::Or(vec![
            Structure::And(vec![c(0), c(1)]),
            Structure::And(vec![c(3), c(4)]),
            Structure::And(vec![c(0), c(2), c(4)]),
            Structure::And(vec![c(1), c(2), c(3)]),
        ])
    }

    /// One more than the largest component index referenced by the tree —
    /// the minimum number of components an evaluation slice must supply.
    pub fn component_count(&self) -> usize {
        match self {
            Structure::Component(i) => i + 1,
            Structure::And(cs) | Structure::Or(cs) | Structure::KOutOfN { children: cs, .. } => {
                cs.iter().map(Structure::component_count).max().unwrap_or(0)
            }
        }
    }

    /// The sorted, distinct component indices referenced by the tree.
    pub fn components(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_components(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_components(&self, out: &mut Vec<usize>) {
        match self {
            Structure::Component(i) => out.push(*i),
            Structure::And(cs) | Structure::Or(cs) | Structure::KOutOfN { children: cs, .. } => {
                for c in cs {
                    c.collect_components(out);
                }
            }
        }
    }

    /// Whether any component index appears in more than one leaf.
    pub fn has_repeated_components(&self) -> bool {
        let mut leaves = Vec::new();
        self.collect_components(&mut leaves);
        let total = leaves.len();
        leaves.sort_unstable();
        leaves.dedup();
        leaves.len() != total
    }

    /// Validate the tree against a component count: every gate must have at
    /// least one child, every `k` must satisfy `1 ≤ k ≤ n`, and every leaf
    /// index must be `< n_components` and below [`MAX_COMPONENTS`].
    pub fn validate(&self, n_components: usize) -> Result<(), CoreError> {
        if n_components == 0 {
            return Err(CoreError::EmptyInput {
                what: "structure components",
            });
        }
        self.validate_node(n_components)
    }

    fn validate_node(&self, n_components: usize) -> Result<(), CoreError> {
        match self {
            Structure::Component(i) => {
                if *i >= MAX_COMPONENTS {
                    return Err(CoreError::InvalidStructure {
                        reason: "component index at or above the cap of 256 components",
                    });
                }
                if *i >= n_components {
                    return Err(CoreError::InvalidStructure {
                        reason: "component index out of range",
                    });
                }
            }
            Structure::And(cs) | Structure::Or(cs) => {
                if cs.is_empty() {
                    return Err(CoreError::InvalidStructure {
                        reason: "gate with no children",
                    });
                }
                for c in cs {
                    c.validate_node(n_components)?;
                }
            }
            Structure::KOutOfN { k, children } => {
                if children.is_empty() {
                    return Err(CoreError::InvalidStructure {
                        reason: "gate with no children",
                    });
                }
                if *k == 0 || *k > children.len() {
                    return Err(CoreError::InvalidStructure {
                        reason: "k out of range for k-out-of-n gate",
                    });
                }
                for c in children {
                    c.validate_node(n_components)?;
                }
            }
        }
        Ok(())
    }

    /// Evaluate the structure over boolean failure indicators: `true`
    /// means the component failed; the result is whether the system fails.
    pub fn eval_bool(&self, failed: &[bool]) -> bool {
        match self {
            Structure::Component(i) => failed[*i],
            Structure::And(cs) => cs.iter().all(|c| c.eval_bool(failed)),
            Structure::Or(cs) => cs.iter().any(|c| c.eval_bool(failed)),
            Structure::KOutOfN { k, children } => {
                let t = children.len() - k + 1;
                children.iter().filter(|c| c.eval_bool(failed)).count() >= t
            }
        }
    }

    /// Failure-set algebra over per-component failure sets: the demands on
    /// which the *system* fails, given the demands on which each component
    /// fails. AND intersects, OR unions, k-of-n runs a ≥t bitset dynamic
    /// programme. Exact under repeated components.
    ///
    /// All sets must share `component_sets[0]`'s capacity.
    pub fn failure_set(&self, component_sets: &[BitSet]) -> Result<BitSet, CoreError> {
        if component_sets.is_empty() {
            return Err(CoreError::EmptyInput {
                what: "component failure sets",
            });
        }
        self.validate(component_sets.len())?;
        let capacity = component_sets[0].capacity();
        if component_sets.iter().any(|s| s.capacity() != capacity) {
            return Err(CoreError::ModelMismatch {
                reason: "component failure sets must share a demand space",
            });
        }
        Ok(self.failure_set_unchecked(&|i| &component_sets[i], capacity))
    }

    /// The algebra of [`Structure::failure_set`] without its checks, over
    /// borrowed leaf sets: leaf `i` fails on `leaf(i)`, a set of
    /// `capacity` values. For callers that validated the tree once and
    /// evaluate it many times, as a scenario's campaigns do.
    ///
    /// # Panics
    ///
    /// Panics if the tree is malformed (see [`Structure::validate`]) or
    /// `leaf` panics; a leaf set of another capacity panics or gives a
    /// meaningless set.
    pub fn failure_set_unchecked<'a, F>(&self, leaf: &F, capacity: usize) -> BitSet
    where
        F: Fn(usize) -> &'a BitSet,
    {
        // A child's set, borrowed when the child is a leaf.
        let child = |c: &Structure| match c {
            Structure::Component(i) => Cow::Borrowed(leaf(*i)),
            gate => Cow::Owned(gate.failure_set_unchecked(leaf, capacity)),
        };
        match self {
            Structure::Component(i) => leaf(*i).clone(),
            Structure::And(cs) => {
                let mut acc = child(&cs[0]).into_owned();
                for c in &cs[1..] {
                    acc.intersect_with(&child(c));
                }
                acc
            }
            Structure::Or(cs) => {
                let mut acc = child(&cs[0]).into_owned();
                for c in &cs[1..] {
                    acc.union_with(&child(c));
                }
                acc
            }
            Structure::KOutOfN { k, children } => {
                // ge[j] = demands on which at least j of the children
                // processed so far fail; the gate fails where ge[t] is set.
                let t = children.len() - k + 1;
                let mut ge: Vec<BitSet> = Vec::with_capacity(t + 1);
                ge.push(BitSet::full(capacity));
                for _ in 0..t {
                    ge.push(BitSet::new(capacity));
                }
                for c in children {
                    let child = child(c);
                    for j in (1..=t).rev() {
                        let mut step = ge[j - 1].clone();
                        step.intersect_with(&child);
                        ge[j].union_with(&step);
                    }
                }
                ge.pop().expect("ge has t+1 entries")
            }
        }
    }

    /// Probability that the system fails, given each component's
    /// (conditionally independent) failure probability.
    ///
    /// Repeat-free trees use the gate-wise recursion: AND multiplies in
    /// child order (bit-for-bit the flat `Π ζ_i` product), OR is
    /// `1 − Π(1−p)` (so AND↔OR duality under complement holds by
    /// construction), k-of-n runs the Poisson-binomial tail. Trees with
    /// repeated components enumerate the `2^d` joint component states,
    /// which is exact because repeated leaves share one indicator.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStructure`] if the tree is malformed or a
    /// repeated-component tree spans more than
    /// [`MAX_ENUMERATED_COMPONENTS`] distinct components;
    /// [`CoreError::EmptyInput`] if `probs` is empty.
    pub fn failure_probability(&self, probs: &[f64]) -> Result<f64, CoreError> {
        if probs.is_empty() {
            return Err(CoreError::EmptyInput {
                what: "component failure probabilities",
            });
        }
        self.validate(probs.len())?;
        if !self.has_repeated_components() {
            return Ok(self.gatewise_probability(&|i| probs[i]));
        }
        let comps = self.components();
        if comps.len() > MAX_ENUMERATED_COMPONENTS {
            return Err(CoreError::InvalidStructure {
                reason: "too many distinct components for repeated-component enumeration",
            });
        }
        let mut failed = vec![false; probs.len()];
        let mut total = 0.0;
        for mask in 0u32..(1u32 << comps.len()) {
            let mut weight = 1.0;
            for (bit, &c) in comps.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    weight *= probs[c];
                    failed[c] = true;
                } else {
                    weight *= 1.0 - probs[c];
                    failed[c] = false;
                }
            }
            if self.eval_bool(&failed) {
                total += weight;
            }
        }
        Ok(total)
    }

    /// Gate-wise probability recursion over independent leaves, leaf `i`
    /// failing with probability `leaf(i)`; callers must have validated
    /// the tree and checked it is repeat-free.
    fn gatewise_probability<F: Fn(usize) -> f64>(&self, leaf: &F) -> f64 {
        match self {
            Structure::Component(i) => leaf(*i),
            Structure::And(cs) => cs.iter().map(|c| c.gatewise_probability(leaf)).product(),
            Structure::Or(cs) => {
                1.0 - cs
                    .iter()
                    .map(|c| 1.0 - c.gatewise_probability(leaf))
                    .product::<f64>()
            }
            Structure::KOutOfN { k, children } => {
                // Poisson-binomial over child failure counts: dp[m] is the
                // probability that exactly m of the processed children
                // fail. Descending update keeps dp[n] the bare left-fold
                // product q₁·q₂·… and dp[0] the left-fold (1−q₁)(1−q₂)·…,
                // so both extremes collapse onto the flat paths
                // bit-for-bit: k = 1 replays And, k = n replays Or.
                let t = children.len() - k + 1;
                let mut dp = vec![0.0f64; children.len() + 1];
                dp[0] = 1.0;
                for (j, c) in children.iter().enumerate() {
                    let q = c.gatewise_probability(leaf);
                    for m in (0..=j).rev() {
                        dp[m + 1] += dp[m] * q;
                        dp[m] *= 1.0 - q;
                    }
                }
                if t == 1 {
                    1.0 - dp[0]
                } else {
                    dp[t..].iter().sum()
                }
            }
        }
    }
}

/// Joint probability that the system fails on demand `x` when every
/// component is debugged on its **own** independently drawn suite from
/// `measure`: per-component ζ values composed through the structure
/// (conditional independence per demand survives per the §3.1 argument).
/// For [`Structure::one_out_of_n`] this is `Π_i ζ_i(x)`.
pub fn fail_on_demand_independent(
    structure: &Structure,
    pops: &[&dyn TestedDifficulty],
    measure: &ExplicitSuitePopulation,
    x: DemandId,
) -> Result<f64, CoreError> {
    check_pops(structure, pops)?;
    let probs: Vec<f64> = pops
        .iter()
        .map(|p| crate::difficulty::zeta(*p, x, measure))
        .collect();
    structure.failure_probability(&probs)
}

/// Joint probability that the system fails on demand `x` when **all**
/// components are debugged on one shared suite: the structure-composed
/// mixed moment `E_Ξ[f(ξ_1(x,T), …, ξ_n(x,T))]`, which re-introduces the
/// eq-20 coupling at every gate. For [`Structure::one_out_of_n`] this is
/// `E_Ξ[Π_i ξ_i(x, T)]`.
pub fn fail_on_demand_shared(
    structure: &Structure,
    pops: &[&dyn TestedDifficulty],
    measure: &ExplicitSuitePopulation,
    x: DemandId,
) -> Result<f64, CoreError> {
    check_pops(structure, pops)?;
    let mut err = None;
    let value = measure.expect(|t| {
        let covered = t.demand_set();
        let probs: Vec<f64> = pops.iter().map(|p| p.xi(x, covered)).collect();
        match structure.failure_probability(&probs) {
            Ok(v) => v,
            Err(e) => {
                err = Some(e);
                0.0
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(value),
    }
}

/// Marginal probability that the structured system fails on a random
/// demand under the given testing regime:
/// `Σ_x Q(x)·P(system fails on x | regime)`.
///
/// Demands are accumulated in ascending order.
///
/// # Errors
///
/// [`CoreError::EmptyInput`] if `pops` is empty;
/// [`CoreError::InvalidStructure`] if the tree is malformed or references
/// a component index `≥ pops.len()`;
/// [`CoreError::ModelMismatch`] if a population and the profile disagree
/// on the demand space.
pub fn structure_pfd(
    structure: &Structure,
    pops: &[&dyn TestedDifficulty],
    measure: &ExplicitSuitePopulation,
    profile: &UsageProfile,
    regime: TestingRegime,
) -> Result<f64, CoreError> {
    check_pops(structure, pops)?;
    for p in pops {
        if p.model().space() != profile.space() {
            return Err(CoreError::ModelMismatch {
                reason: "population and profile must share a demand space",
            });
        }
    }
    let mut err = None;
    let value = profile.expect(|x| {
        let r = match regime {
            TestingRegime::IndependentSuites => {
                fail_on_demand_independent(structure, pops, measure, x)
            }
            TestingRegime::SharedSuite => fail_on_demand_shared(structure, pops, measure, x),
        };
        match r {
            Ok(v) => v,
            Err(e) => {
                err = Some(e);
                0.0
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(value),
    }
}

fn check_pops(structure: &Structure, pops: &[&dyn TestedDifficulty]) -> Result<(), CoreError> {
    if pops.is_empty() {
        return Err(CoreError::EmptyInput {
            what: "populations",
        });
    }
    structure.validate(pops.len())
}

/// The shared-suite mixed moment of one gate, against its independent
/// factorisation — where in the tree does testing-induced coupling live?
///
/// For a gate with children `c_1..c_m`,
///
/// * `mixed` = `Σ_x Q(x)·E_Ξ[Π_j P(c_j fails on x | T)]` — all children
///   fail, under one shared suite;
/// * `independent` = `Σ_x Q(x)·Π_j E_Ξ[P(c_j fails on x | T)]` — the same
///   product with the suite expectation pushed inside (independent
///   suites).
///
/// [`GateMoment::coupling`] = `mixed − independent` ≥ 0 at every gate (the
/// children's failure probabilities all co-move in `T`, generalising
/// eq 20). Note this is the *all-children-fail* moment inequality — the
/// shared-vs-independent difference of a gate's own failure probability
/// has gate-dependent sign (a shared suite *helps* at an OR gate).
#[derive(Debug, Clone, PartialEq)]
pub struct GateMoment {
    /// Preorder path of the gate, e.g. `"root"` or `"root.1"`.
    pub path: String,
    /// Gate kind: `"and"`, `"or"` or `"k-of-n"`.
    pub kind: &'static str,
    /// Independent-suite factorisation `Σ_x Q(x)·Π_j E_Ξ[…]`.
    pub independent: f64,
    /// Shared-suite mixed moment `Σ_x Q(x)·E_Ξ[Π_j …]`.
    pub mixed: f64,
}

impl GateMoment {
    /// Testing-induced coupling at this gate: `mixed − independent` (≥ 0).
    pub fn coupling(&self) -> f64 {
        self.mixed - self.independent
    }
}

/// Per-gate mixed moments for every gate of a **repeat-free** tree, in
/// preorder. See [`GateMoment`] for the definitions.
///
/// # Errors
///
/// [`CoreError::InvalidStructure`] for trees with repeated components (the
/// per-gate factorisation needs children with disjoint component sets);
/// the usual validation errors otherwise.
pub fn gate_moments(
    structure: &Structure,
    pops: &[&dyn TestedDifficulty],
    measure: &ExplicitSuitePopulation,
    profile: &UsageProfile,
) -> Result<Vec<GateMoment>, CoreError> {
    check_pops(structure, pops)?;
    if structure.has_repeated_components() {
        return Err(CoreError::InvalidStructure {
            reason: "gate moments require each component to appear in one leaf",
        });
    }
    for p in pops {
        if p.model().space() != profile.space() {
            return Err(CoreError::ModelMismatch {
                reason: "population and profile must share a demand space",
            });
        }
    }
    let mut out = Vec::new();
    collect_gate_moments(structure, "root", pops, measure, profile, &mut out);
    Ok(out)
}

fn collect_gate_moments(
    node: &Structure,
    path: &str,
    pops: &[&dyn TestedDifficulty],
    measure: &ExplicitSuitePopulation,
    profile: &UsageProfile,
    out: &mut Vec<GateMoment>,
) {
    let (kind, children) = match node {
        Structure::Component(_) => return,
        Structure::And(cs) => ("and", cs),
        Structure::Or(cs) => ("or", cs),
        Structure::KOutOfN { children, .. } => ("k-of-n", children),
    };
    // Given the suite, components fail independently, so each child's
    // probability is the gate-wise recursion over leaves `ξ_i(x, T)`.
    let mixed = profile.expect(|x| {
        measure.expect(|t| {
            let covered = t.demand_set();
            let leaf = |i: usize| pops[i].xi(x, covered);
            children
                .iter()
                .map(|c| c.gatewise_probability(&leaf))
                .product()
        })
    });
    let independent = profile.expect(|x| {
        children
            .iter()
            .map(|c| measure.expect(|t| c.gatewise_probability(&|i| pops[i].xi(x, t.demand_set()))))
            .product()
    });
    out.push(GateMoment {
        path: path.to_string(),
        kind,
        independent,
        mixed,
    });
    for (j, c) in children.iter().enumerate() {
        let child_path = format!("{path}.{j}");
        collect_gate_moments(c, &child_path, pops, measure, profile, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversim_testing::suite_population::enumerate_iid_suites;
    use diversim_universe::demand::DemandSpace;
    use diversim_universe::fault::FaultModelBuilder;
    use diversim_universe::population::{BernoulliPopulation, Population};
    use std::sync::Arc;

    fn singleton_pop(props: Vec<f64>) -> BernoulliPopulation {
        let space = DemandSpace::new(props.len()).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .singleton_faults()
                .build()
                .unwrap(),
        );
        BernoulliPopulation::new(model, props).unwrap()
    }

    fn set(capacity: usize, bits: &[usize]) -> BitSet {
        let mut s = BitSet::new(capacity);
        for &b in bits {
            s.insert(b);
        }
        s
    }

    #[test]
    fn validate_rejects_malformed_trees() {
        let err = |s: Structure, n: usize| s.validate(n).unwrap_err();
        assert!(matches!(
            err(Structure::and(vec![]), 2),
            CoreError::InvalidStructure { .. }
        ));
        assert!(matches!(
            err(Structure::k_of_n(0, 3), 3),
            CoreError::InvalidStructure { .. }
        ));
        assert!(matches!(
            err(Structure::k_of_n(4, 3), 3),
            CoreError::InvalidStructure { .. }
        ));
        assert!(matches!(
            err(Structure::component(5), 3),
            CoreError::InvalidStructure { .. }
        ));
        assert!(matches!(
            err(Structure::component(0), 0),
            CoreError::EmptyInput { .. }
        ));
        assert!(Structure::bridge().validate(5).is_ok());
    }

    #[test]
    fn component_indices_are_capped_whatever_the_count() {
        let pair = |i: usize| Structure::or(vec![Structure::component(0), Structure::component(i)]);
        for i in [MAX_COMPONENTS, 100_000] {
            let err = pair(i).validate(i + 1).unwrap_err();
            assert_eq!(
                err,
                CoreError::InvalidStructure {
                    reason: "component index at or above the cap of 256 components"
                }
            );
            assert!(err.to_string().contains(&MAX_COMPONENTS.to_string()));
        }
        assert!(pair(MAX_COMPONENTS - 1).validate(MAX_COMPONENTS).is_ok());
    }

    #[test]
    fn eval_bool_matches_gate_semantics() {
        let two_of_three = Structure::k_of_n(2, 3);
        // 2-of-3 works iff ≥2 work, i.e. fails iff ≥2 fail.
        assert!(!two_of_three.eval_bool(&[true, false, false]));
        assert!(two_of_three.eval_bool(&[true, true, false]));
        assert!(two_of_three.eval_bool(&[true, true, true]));
        let series = Structure::series(3);
        assert!(series.eval_bool(&[false, true, false]));
        assert!(!series.eval_bool(&[false, false, false]));
        let par = Structure::one_out_of_n(3);
        assert!(!par.eval_bool(&[true, true, false]));
        assert!(par.eval_bool(&[true, true, true]));
    }

    #[test]
    fn bridge_eval_matches_path_semantics() {
        // The bridge works iff a working input→output path exists.
        let b = Structure::bridge();
        for mask in 0u32..32 {
            let failed: Vec<bool> = (0..5).map(|i| mask & (1 << i) != 0).collect();
            let works = |i: usize| !failed[i];
            // Paths: 0→3, 1→4, 0→2→4, 1→2→3.
            let path = (works(0) && works(3))
                || (works(1) && works(4))
                || (works(0) && works(2) && works(4))
                || (works(1) && works(2) && works(3));
            assert_eq!(b.eval_bool(&failed), !path, "mask {mask:#07b}");
        }
    }

    #[test]
    fn failure_set_algebra_matches_eval_bool() {
        // One demand per joint component state: exhaustively compare the
        // bitset algebra against boolean evaluation.
        for structure in [
            Structure::one_out_of_n(3),
            Structure::series(3),
            Structure::k_of_n(2, 3),
            Structure::bridge(),
        ] {
            let n = structure.component_count();
            let capacity = 1usize << n;
            let sets: Vec<BitSet> = (0..n)
                .map(|i| {
                    let bits: Vec<usize> = (0..capacity).filter(|x| x & (1 << i) != 0).collect();
                    set(capacity, &bits)
                })
                .collect();
            let got = structure.failure_set(&sets).unwrap();
            for x in 0..capacity {
                let failed: Vec<bool> = (0..n).map(|i| x & (1 << i) != 0).collect();
                assert_eq!(
                    got.contains(x),
                    structure.eval_bool(&failed),
                    "{structure:?} at state {x:#b}"
                );
            }
        }
    }

    #[test]
    fn failure_probability_matches_enumeration() {
        // Gate-wise recursion (repeat-free) and 2^d enumeration (bridge)
        // against a direct weighted enumeration over joint states.
        let probs = [0.1, 0.37, 0.62, 0.05, 0.9];
        for structure in [
            Structure::one_out_of_n(4),
            Structure::series(4),
            Structure::k_of_n(2, 3),
            Structure::k_of_n(3, 5),
            Structure::bridge(),
        ] {
            let n = structure.component_count();
            let p = &probs[..n];
            let mut want = 0.0;
            for mask in 0u32..(1 << n) {
                let failed: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
                if structure.eval_bool(&failed) {
                    let w: f64 = (0..n)
                        .map(|i| if failed[i] { p[i] } else { 1.0 - p[i] })
                        .product();
                    want += w;
                }
            }
            let got = structure.failure_probability(p).unwrap();
            assert!(
                (got - want).abs() < 1e-12,
                "{structure:?}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn k_equals_one_is_and_bit_for_bit() {
        let probs = [0.123456789, 0.87654321, 0.42];
        let and = Structure::one_out_of_n(3);
        let k1 = Structure::k_of_n(1, 3);
        let flat: f64 = probs.iter().product();
        assert_eq!(
            and.failure_probability(&probs).unwrap().to_bits(),
            flat.to_bits()
        );
        assert_eq!(
            k1.failure_probability(&probs).unwrap().to_bits(),
            flat.to_bits()
        );
    }

    #[test]
    fn k_equals_n_matches_or() {
        let probs = [0.2, 0.5, 0.7];
        let or = Structure::series(3);
        let kn = Structure::k_of_n(3, 3);
        let a = or.failure_probability(&probs).unwrap();
        let b = kn.failure_probability(&probs).unwrap();
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn structure_pfd_regimes_and_errors() {
        let pop = singleton_pop(vec![0.3, 0.6, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let pops: Vec<&dyn TestedDifficulty> = vec![&pop, &pop, &pop];
        let s = Structure::k_of_n(2, 3);
        let ind = structure_pfd(&s, &pops, &m, &q, TestingRegime::IndependentSuites).unwrap();
        let sh = structure_pfd(&s, &pops, &m, &q, TestingRegime::SharedSuite).unwrap();
        assert!(ind > 0.0 && ind < 1.0);
        assert!(sh > 0.0 && sh < 1.0);
        // Empty populations are a typed error, not a panic.
        for regime in [TestingRegime::IndependentSuites, TestingRegime::SharedSuite] {
            assert!(matches!(
                structure_pfd(&s, &[], &m, &q, regime),
                Err(CoreError::EmptyInput { .. })
            ));
        }
        let x = DemandId::new(0);
        assert!(matches!(
            fail_on_demand_independent(&s, &[], &m, x),
            Err(CoreError::EmptyInput { .. })
        ));
        assert!(matches!(
            fail_on_demand_shared(&s, &[], &m, x),
            Err(CoreError::EmptyInput { .. })
        ));
        // Structure referencing a missing component is typed too.
        let wide = Structure::one_out_of_n(4);
        assert!(matches!(
            structure_pfd(&wide, &pops, &m, &q, TestingRegime::SharedSuite),
            Err(CoreError::InvalidStructure { .. })
        ));
        // So is a profile over another demand space.
        let other = UsageProfile::uniform(DemandSpace::new(4).unwrap());
        assert!(matches!(
            structure_pfd(&s, &pops, &m, &other, TestingRegime::SharedSuite),
            Err(CoreError::ModelMismatch { .. })
        ));
    }

    /// `structure_pfd` of `pops` wired 1-out-of-n.
    fn one_out_of_n_pfd(
        pops: &[&dyn TestedDifficulty],
        m: &ExplicitSuitePopulation,
        q: &UsageProfile,
        regime: TestingRegime,
    ) -> f64 {
        let s = Structure::one_out_of_n(pops.len());
        structure_pfd(&s, pops, m, q, regime).unwrap()
    }

    #[test]
    fn one_out_of_two_matches_the_pair_analysis() {
        use crate::marginal::{MarginalAnalysis, SuiteAssignment};
        let pop = singleton_pop(vec![0.3, 0.6]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let pops: Vec<&dyn TestedDifficulty> = vec![&pop, &pop];
        for (regime, suites) in [
            (
                TestingRegime::IndependentSuites,
                SuiteAssignment::independent(&m),
            ),
            (TestingRegime::SharedSuite, SuiteAssignment::Shared(&m)),
        ] {
            let pair = MarginalAnalysis::compute(&pop, &pop, suites, &q).system_pfd();
            let tree = one_out_of_n_pfd(&pops, &m, &q, regime);
            assert!((pair - tree).abs() < 1e-12, "{regime}: {pair} vs {tree}");
        }
    }

    #[test]
    fn more_channels_never_hurt() {
        // 1-suites over [0.4, 0.7] in both regimes, and 2-suites over
        // [0.2, 0.5, 0.8], where a shared suite must also never beat
        // independent ones (the N-fold mixed moment over a common T
        // exceeds the product of means: all ξ_i co-move in T).
        let narrow = singleton_pop(vec![0.4, 0.7]);
        let wide = singleton_pop(vec![0.2, 0.5, 0.8]);
        for (pop, size) in [(&narrow, 1), (&wide, 2)] {
            let q = UsageProfile::uniform(pop.model().space());
            let m = enumerate_iid_suites(&q, size, 1 << 8).unwrap();
            let mut prev = [f64::INFINITY; 2];
            for n in 2..=4 {
                let pops: Vec<&dyn TestedDifficulty> = vec![pop; n];
                let ind = one_out_of_n_pfd(&pops, &m, &q, TestingRegime::IndependentSuites);
                let sh = one_out_of_n_pfd(&pops, &m, &q, TestingRegime::SharedSuite);
                assert!(ind <= prev[0] + 1e-15, "channel {n} hurt (independent)");
                assert!(sh <= prev[1] + 1e-15, "channel {n} hurt (shared)");
                assert!(sh + 1e-15 >= ind, "shared < independent for N={n}");
                prev = [ind, sh];
            }
        }
    }

    #[test]
    fn single_channel_equals_mean_tested_pfd() {
        let pop = singleton_pop(vec![0.25, 0.75]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let pops: Vec<&dyn TestedDifficulty> = vec![&pop];
        let one_ind = one_out_of_n_pfd(&pops, &m, &q, TestingRegime::IndependentSuites);
        let one_sh = one_out_of_n_pfd(&pops, &m, &q, TestingRegime::SharedSuite);
        // With one channel the regimes coincide: E over T of ξ.
        assert!((one_ind - one_sh).abs() < 1e-12);
        // ζ = (0.125, 0.375) → mean tested pfd = 0.25.
        assert!((one_ind - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_strong_channel_slashes_the_pfd() {
        // Mixed methodologies: a strong channel added to two weak ones.
        let weak = singleton_pop(vec![0.5, 0.5]);
        let strong = BernoulliPopulation::new(weak.model().clone(), vec![0.01, 0.01]).unwrap();
        let q = UsageProfile::uniform(weak.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let regime = TestingRegime::IndependentSuites;
        let without = one_out_of_n_pfd(&[&weak, &weak], &m, &q, regime);
        let with = one_out_of_n_pfd(&[&weak, &weak, &strong], &m, &q, regime);
        assert!(with < without * 0.1, "strong channel should slash the pfd");
    }

    #[test]
    fn gate_moments_coupling_nonnegative_everywhere() {
        let pop = singleton_pop(vec![0.2, 0.5, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let pops: Vec<&dyn TestedDifficulty> = vec![&pop, &pop, &pop];
        let nested = Structure::or(vec![
            Structure::and(vec![Structure::component(0), Structure::component(1)]),
            Structure::component(2),
        ]);
        for s in [
            Structure::one_out_of_n(3),
            Structure::series(3),
            Structure::k_of_n(2, 3),
            nested,
        ] {
            let moments = gate_moments(&s, &pops, &m, &q).unwrap();
            assert!(!moments.is_empty());
            for g in &moments {
                assert!(
                    g.coupling() >= -1e-15,
                    "gate {} ({}) coupling {} < 0",
                    g.path,
                    g.kind,
                    g.coupling()
                );
            }
        }
        // Repeated components are rejected with a typed error.
        let pops5: Vec<&dyn TestedDifficulty> = vec![&pop; 5];
        assert!(matches!(
            gate_moments(&Structure::bridge(), &pops5, &m, &q),
            Err(CoreError::InvalidStructure { .. })
        ));
    }

    #[test]
    fn bridge_shared_vs_independent_total() {
        // The bridge exercises the repeated-component enumeration path in
        // both regimes; sanity-check the values are proper probabilities.
        let pop = singleton_pop(vec![0.3, 0.5, 0.2, 0.7, 0.4]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let pops: Vec<&dyn TestedDifficulty> = vec![&pop; 5];
        let b = Structure::bridge();
        let ind = structure_pfd(&b, &pops, &m, &q, TestingRegime::IndependentSuites).unwrap();
        let sh = structure_pfd(&b, &pops, &m, &q, TestingRegime::SharedSuite).unwrap();
        assert!(ind > 0.0 && ind < 1.0, "independent {ind}");
        assert!(sh > 0.0 && sh < 1.0, "shared {sh}");
    }
}
