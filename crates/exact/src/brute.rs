//! Brute-force expectations over the full joint process.
//!
//! `diversim-core` computes the paper's quantities through its *formulas*
//! (products of ζ's, variance/covariance decompositions). This module
//! computes the same quantities the slow, assumption-free way: enumerate
//! every `(version, suite)` combination with its probability, run the
//! *mechanistic* debugging process ([`diversim_testing::perfect_debug`]),
//! and sum the score products. Agreement between the two paths is the
//! strongest internal validation available for a theory reproduction.
//!
//! Each identity has one form here. The ζ and pair-joint forms return a
//! value for every demand, debugging each combination once, and add the
//! nonzero terms of the per-demand definition in its order, so they are
//! bit-identical to it; the adaptive joint ([`joint_on_demand_adaptive`])
//! has only its per-demand form.
//!
//! The equation-(15) sum is one chain of dependent floating-point adds
//! per demand, so its speed is the add latency, not the number of adds.
//! [`TestedEnsemble`] therefore keeps each demand's failing weights in a
//! lane-interleaved layout, and its kernels advance the sums of eight
//! demands in lockstep — eight independent chains, each in its own
//! definition's term order.

use diversim_core::error::CoreError;
use diversim_core::structure::Structure;
use diversim_testing::process::perfect_debug;
use diversim_testing::suite::TestSuite;
use diversim_testing::suite_population::ExplicitSuitePopulation;
use diversim_universe::bitset::BitSet;
use diversim_universe::demand::DemandId;
use diversim_universe::fault::FaultModel;
use diversim_universe::profile::UsageProfile;
use diversim_universe::version::Version;

/// A population support: versions with selection probabilities, as
/// produced by [`diversim_universe::Population::enumerate`].
pub type Support = [(Version, f64)];

/// Demands whose sums one pass of the [`TestedEnsemble`] kernels
/// advances in lockstep: one sum's adds form a dependent chain, so
/// several chains side by side keep the floating-point unit busy.
const LANES: usize = 8;

/// One row of a lane group: the `j`-th failing weight of each of its
/// demands, `0.0` where a demand's list is shorter.
type Row = [f64; LANES];

/// Debugs every `(version, suite)` combination of a support × measure
/// pair once, in support-outer, measure-inner order — the enumeration
/// order of the quadruple sums — and hands `visit` its joint probability
/// `S(π)·M(t)` and the failure set of the debugged version.
fn for_each_combination(
    support: &Support,
    measure: &ExplicitSuitePopulation,
    model: &FaultModel,
    mut visit: impl FnMut(f64, BitSet),
) {
    for (v, p) in support {
        for (t, q) in measure.iter() {
            visit(p * q, perfect_debug(v, t, model).failure_set(model));
        }
    }
}

/// The mechanistically debugged ensemble in kernel form: for every
/// demand, the joint probabilities `S(π)·M(t)` of the `(version, suite)`
/// combinations whose debugged version fails there, each combination
/// debugged once through [`perfect_debug`] instead of once per demand.
///
/// Each demand's list keeps combination order (support-outer,
/// measure-inner — the enumeration order of the quadruple sums), so a
/// per-demand sum over it adds the nonzero terms of the per-demand
/// definition in that definition's order. (The stored weight equals the
/// per-demand `score·p·q` term on failing demands because the score
/// factor is exactly `1.0`.) The lists are stored lane-interleaved:
/// demands `g·8 .. g·8 + 8` form lane group `g`, whose `j`-th row holds
/// the `j`-th weight of each of them, padded with `0.0` past the end of a
/// shorter list. The padding and the non-failing combinations the lists
/// leave out both add zero terms, which leave every partial sum of these
/// finite, non-negative weights unchanged, so the kernels agree with the
/// per-demand definitions bit for bit.
#[derive(Debug, Clone)]
pub struct TestedEnsemble {
    /// Demand-space size the lists are defined over.
    capacity: usize,
    /// The rows of each lane group, in demand order.
    groups: Vec<Vec<Row>>,
}

impl TestedEnsemble {
    /// Debugs every `(version, suite)` combination of a support × measure
    /// pair once and files its weight under every demand its debugged
    /// version fails on.
    pub fn new(support: &Support, measure: &ExplicitSuitePopulation, model: &FaultModel) -> Self {
        let capacity = model.space().len();
        let mut groups = vec![Vec::new(); capacity.div_ceil(LANES)];
        let mut lengths = vec![0usize; capacity];
        for_each_combination(support, measure, model, |w, fs| {
            for x in fs.iter() {
                let rows: &mut Vec<Row> = &mut groups[x / LANES];
                if lengths[x] == rows.len() {
                    rows.push([0.0; LANES]);
                }
                rows[lengths[x]][x % LANES] = w;
                lengths[x] += 1;
            }
        });
        TestedEnsemble { capacity, groups }
    }

    /// `ζ(x) = Σ_π Σ_t υ(π,x,t)·S(π)·M(t)` (equation (14)) on every
    /// demand: each demand adds its failing combinations' weights in
    /// combination order, eight demands in lockstep.
    pub fn zeta_vector(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.groups.len() * LANES);
        for rows in &self.groups {
            let mut acc: Row = [0.0; LANES];
            for row in rows {
                for (sum, w) in acc.iter_mut().zip(row) {
                    *sum += w;
                }
            }
            out.extend(acc);
        }
        out.truncate(self.capacity);
        out
    }

    /// `P(both fail on x)` for every demand under independently drawn
    /// suites: the quadruple sum
    /// `Σ_{π₁} Σ_{t₁} Σ_{π₂} Σ_{t₂} υ(π₁,x,t₁)·υ(π₂,x,t₂)·S_A·M_A·S_B·M_B`
    /// of equation (15). Every demand sums the products of its `self`
    /// and `other` weights from `+0.0`, `self`-outer and `other`-inner,
    /// and a lane group's eight sums advance together, one row pair at a
    /// time.
    ///
    /// # Panics
    ///
    /// If the two ensembles cover demand spaces of different sizes.
    pub fn joint_vector_independent(&self, other: &TestedEnsemble) -> Vec<f64> {
        assert_eq!(self.capacity, other.capacity, "demand spaces differ");
        let mut out = Vec::with_capacity(self.groups.len() * LANES);
        for (rows_a, rows_b) in self.groups.iter().zip(&other.groups) {
            let mut acc: Row = [0.0; LANES];
            for wa in rows_a {
                for wb in rows_b {
                    for lane in 0..LANES {
                        acc[lane] += wa[lane] * wb[lane];
                    }
                }
            }
            out.extend(acc);
        }
        out.truncate(self.capacity);
        out
    }
}

/// A structured system's mechanistically debugged ensemble: every
/// component's `(version, suite)` combinations with their failure sets
/// (each component's versions debugged on its **own** independently
/// drawn suites from the measure), composed
/// through a [`Structure`]'s failure-set algebra by *full cross-product
/// enumeration* — no factorisation assumptions, exact under repeated
/// components.
///
/// This extends [`TestedEnsemble`] from the flat pair to arbitrary trees:
/// for the `Structure::one_out_of_n(2)` case,
/// [`StructureEnsemble::joint_vector_independent`] reproduces
/// [`TestedEnsemble::joint_vector_independent`] bit-for-bit (same
/// lexicographic combination order, same intersection sets).
///
/// Enumeration cost is the *product* of the component ensemble sizes —
/// callers are expected to use small supports and suite measures.
#[derive(Debug, Clone)]
pub struct StructureEnsemble {
    structure: Structure,
    /// Per component, `(S(π)·M(t), failure set after debugging)` for
    /// each combination, in combination order.
    components: Vec<Vec<(f64, BitSet)>>,
    capacity: usize,
}

impl StructureEnsemble {
    /// Debugs each component's support × measure cross-product once
    /// (component `i`'s versions drawn from `supports[i]`).
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyInput`] if `supports` is empty;
    /// [`CoreError::InvalidStructure`] if the tree references a component
    /// index `≥ supports.len()` or is malformed.
    pub fn new(
        structure: Structure,
        supports: &[&Support],
        measure: &ExplicitSuitePopulation,
        model: &FaultModel,
    ) -> Result<Self, CoreError> {
        if supports.is_empty() {
            return Err(CoreError::EmptyInput { what: "supports" });
        }
        structure.validate(supports.len())?;
        let components = supports
            .iter()
            .map(|support| {
                let mut combinations = Vec::with_capacity(support.len() * measure.len());
                for_each_combination(support, measure, model, |w, fs| {
                    combinations.push((w, fs));
                });
                combinations
            })
            .collect();
        Ok(StructureEnsemble {
            structure,
            components,
            capacity: model.space().len(),
        })
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// `P(system fails on x)` for every demand when every component is
    /// debugged on its **own** independently drawn suite: the full
    /// cross-product over all components' `(version, suite)` combinations,
    /// scattering each joint weight `Π_i S_i(π_i)·M(t_i)` over the
    /// structure's failure set of the debugged tuple.
    pub fn joint_vector_independent(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.capacity];
        let mut sets: Vec<BitSet> = Vec::with_capacity(self.components.len());
        self.recurse_independent(0, 1.0, &mut sets, &mut out);
        out
    }

    fn recurse_independent(
        &self,
        idx: usize,
        weight: f64,
        sets: &mut Vec<BitSet>,
        out: &mut [f64],
    ) {
        if idx == self.components.len() {
            let fs = self
                .structure
                .failure_set(sets)
                .expect("structure validated at construction");
            for x in fs.iter() {
                out[x] += weight;
            }
            return;
        }
        for (w, fs) in &self.components[idx] {
            sets.push(fs.clone());
            self.recurse_independent(idx + 1, weight * w, sets, out);
            sets.pop();
        }
    }

    /// Brute-force marginal `P(system fails on X)` under independent
    /// suites: the usage-weighted sum of [`joint_vector_independent`]
    /// (the structure generalisation of [`marginal_independent`]).
    ///
    /// [`joint_vector_independent`]: StructureEnsemble::joint_vector_independent
    pub fn marginal_independent(&self, profile: &UsageProfile) -> f64 {
        weighted_total(&self.joint_vector_independent(), profile)
    }
}

/// `P(system fails on x)` for every demand when **all** components are
/// debugged on one shared suite: per realised suite `(t, M(t))`, the full
/// cross-product over all components' version supports, each tuple
/// mechanistically debugged on `t` and its joint weight `M(t)·Π_i S_i(π_i)`
/// scattered over the structure's failure set — the structure
/// generalisation of [`joint_vector_shared`], exact under repeated
/// components.
///
/// # Errors
///
/// Same validation as [`StructureEnsemble::new`].
pub fn structure_joint_vector_shared(
    structure: &Structure,
    supports: &[&Support],
    measure: &ExplicitSuitePopulation,
    model: &FaultModel,
) -> Result<Vec<f64>, CoreError> {
    if supports.is_empty() {
        return Err(CoreError::EmptyInput { what: "supports" });
    }
    structure.validate(supports.len())?;
    let n = model.space().len();
    let mut out = vec![0.0; n];
    for (t, qt) in measure.iter() {
        // Debug each component's support on the shared suite once.
        let debugged: Vec<Vec<(f64, BitSet)>> = supports
            .iter()
            .map(|support| {
                support
                    .iter()
                    .map(|(v, p)| (*p, perfect_debug(v, t, model).failure_set(model)))
                    .collect()
            })
            .collect();
        let mut sets: Vec<BitSet> = Vec::with_capacity(supports.len());
        recurse_shared(structure, &debugged, 0, qt, &mut sets, &mut out);
    }
    Ok(out)
}

fn recurse_shared(
    structure: &Structure,
    debugged: &[Vec<(f64, BitSet)>],
    idx: usize,
    weight: f64,
    sets: &mut Vec<BitSet>,
    out: &mut [f64],
) {
    if idx == debugged.len() {
        let fs = structure
            .failure_set(sets)
            .expect("structure validated by caller");
        for x in fs.iter() {
            out[x] += weight;
        }
        return;
    }
    for (p, fs) in &debugged[idx] {
        sets.push(fs.clone());
        recurse_shared(structure, debugged, idx + 1, weight * p, sets, out);
        sets.pop();
    }
}

/// Brute-force marginal `P(system fails on X)` under a shared suite: the
/// usage-weighted sum of [`structure_joint_vector_shared`] (the structure
/// generalisation of [`marginal_shared`]).
pub fn structure_marginal_shared(
    structure: &Structure,
    supports: &[&Support],
    measure: &ExplicitSuitePopulation,
    model: &FaultModel,
    profile: &UsageProfile,
) -> Result<f64, CoreError> {
    Ok(weighted_total(
        &structure_joint_vector_shared(structure, supports, measure, model)?,
        profile,
    ))
}

/// `P(both fail on x)` for every demand when both versions are debugged
/// on the **same** realised suite: `Σ_t M(t) · Σ_{π₁} Σ_{π₂}
/// υ(π₁,x,t)·υ(π₂,x,t)·S_A(π₁)·S_B(π₂)`. Per realised suite, each
/// support's post-debug failure mass is scattered into a dense vector
/// (support order per demand), then the product is accumulated
/// suite-by-suite, so each `(π, t)` combination is debugged once.
pub fn joint_vector_shared(
    support_a: &Support,
    support_b: &Support,
    measure: &ExplicitSuitePopulation,
    model: &FaultModel,
) -> Vec<f64> {
    let n = model.space().len();
    let mut out = vec![0.0; n];
    let mut fail_a = vec![0.0; n];
    let mut fail_b = vec![0.0; n];
    for (t, qt) in measure.iter() {
        fail_a.fill(0.0);
        fail_b.fill(0.0);
        for (v, p) in support_a {
            for x in perfect_debug(v, t, model).failure_set(model).iter() {
                fail_a[x] += p;
            }
        }
        for (v, p) in support_b {
            for x in perfect_debug(v, t, model).failure_set(model).iter() {
                fail_b[x] += p;
            }
        }
        for ((acc, &fa), &fb) in out.iter_mut().zip(&fail_a).zip(&fail_b) {
            *acc += qt * fa * fb;
        }
    }
    out
}

/// Brute-force `P(both tested versions fail on x)` under an **adaptive
/// allocation**: both versions are debugged on one shared suite plus an
/// independently drawn private suite each —
///
/// ```text
/// Σ_{t_s} M_S(t_s) · g_A(t_s) · g_B(t_s),
///     g_V(t_s) = Σ_{t_v} M_V(t_v) Σ_π S_V(π) · υ(π, x, t_s ∪ t_v)
/// ```
///
/// evaluated through the mechanistic debugging process on the merged
/// suite. The reference `diversim-core` path is
/// `testing_effect::joint_adaptive`.
pub fn joint_on_demand_adaptive(
    support_a: &Support,
    support_b: &Support,
    shared: &ExplicitSuitePopulation,
    private_a: &ExplicitSuitePopulation,
    private_b: &ExplicitSuitePopulation,
    model: &FaultModel,
    x: DemandId,
) -> f64 {
    let conditional =
        |support: &Support, private: &ExplicitSuitePopulation, ts: &TestSuite| -> f64 {
            private
                .iter()
                .map(|(tv, q)| {
                    let merged = ts.merged(tv);
                    let fail: f64 = support
                        .iter()
                        .map(|(v, p)| perfect_debug(v, &merged, model).score(model, x) * p)
                        .sum();
                    fail * q
                })
                .sum()
        };
    let mut total = 0.0;
    for (ts, qs) in shared.iter() {
        let ga = conditional(support_a, private_a, ts);
        if ga == 0.0 {
            continue;
        }
        let gb = conditional(support_b, private_b, ts);
        total += qs * ga * gb;
    }
    total
}

/// Brute-force marginal `P(both tested versions fail on X)` under an
/// adaptive allocation: the usage-weighted sum of
/// [`joint_on_demand_adaptive`] over the demand space (the eq-(23)-style
/// integration for a realised allocation profile).
pub fn marginal_adaptive(
    support_a: &Support,
    support_b: &Support,
    shared: &ExplicitSuitePopulation,
    private_a: &ExplicitSuitePopulation,
    private_b: &ExplicitSuitePopulation,
    model: &FaultModel,
    profile: &UsageProfile,
) -> f64 {
    let joint: Vec<f64> = model
        .space()
        .iter()
        .map(|x| {
            joint_on_demand_adaptive(support_a, support_b, shared, private_a, private_b, model, x)
        })
        .collect();
    weighted_total(&joint, profile)
}

/// Brute-force marginal `P(both tested versions fail on X)` for
/// independently drawn suites: the usage-weighted sum of the joint
/// vector ([`TestedEnsemble::joint_vector_independent`], equation
/// (22)/(24)).
pub fn marginal_independent(
    support_a: &Support,
    support_b: &Support,
    measure_a: &ExplicitSuitePopulation,
    measure_b: &ExplicitSuitePopulation,
    model: &FaultModel,
    profile: &UsageProfile,
) -> f64 {
    let ens_a = TestedEnsemble::new(support_a, measure_a, model);
    let ens_b = TestedEnsemble::new(support_b, measure_b, model);
    let joint = ens_a.joint_vector_independent(&ens_b);
    weighted_total(&joint, profile)
}

/// Brute-force marginal `P(both tested versions fail on X)` for a shared
/// suite (equation (23)/(25)): the usage-weighted sum of
/// [`joint_vector_shared`].
pub fn marginal_shared(
    support_a: &Support,
    support_b: &Support,
    measure: &ExplicitSuitePopulation,
    model: &FaultModel,
    profile: &UsageProfile,
) -> f64 {
    let joint = joint_vector_shared(support_a, support_b, measure, model);
    weighted_total(&joint, profile)
}

/// `Σ_x values[x] · Q(x)` in ascending demand order — the same per-scalar
/// arithmetic as `profile.expect(|x| values[x])`.
pub(crate) fn weighted_total(values: &[f64], profile: &UsageProfile) -> f64 {
    values
        .iter()
        .zip(profile.probabilities())
        .map(|(&v, &q)| v * q)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversim_testing::suite_population::enumerate_iid_suites;
    use diversim_universe::demand::DemandSpace;
    use diversim_universe::fault::FaultModelBuilder;
    use diversim_universe::population::{BernoulliPopulation, Population};
    use std::sync::Arc;

    /// `Σ_π Σ_t υ(π,x,t)·S(π)·M(t)` for one demand, re-debugging every
    /// combination: the per-demand definition of equation (14) that
    /// [`TestedEnsemble::zeta_vector`] must reproduce bit for bit.
    fn naive_zeta(
        support: &Support,
        m: &ExplicitSuitePopulation,
        model: &FaultModel,
        x: DemandId,
    ) -> f64 {
        let mut total = 0.0;
        for (v, p) in support {
            for (t, q) in m.iter() {
                total += perfect_debug(v, t, model).score(model, x) * p * q;
            }
        }
        total
    }

    /// The per-demand quadruple sum of equation (15) under independent
    /// suites.
    fn naive_joint_independent(
        support_a: &Support,
        support_b: &Support,
        measure_a: &ExplicitSuitePopulation,
        measure_b: &ExplicitSuitePopulation,
        model: &FaultModel,
        x: DemandId,
    ) -> f64 {
        let scores = |support: &Support, m: &ExplicitSuitePopulation| -> Vec<f64> {
            let mut out = Vec::new();
            for (v, p) in support {
                for (t, q) in m.iter() {
                    out.push(perfect_debug(v, t, model).score(model, x) * p * q);
                }
            }
            out
        };
        let scores_b = scores(support_b, measure_b);
        let mut total = 0.0;
        for wa in scores(support_a, measure_a) {
            for wb in &scores_b {
                total += wa * wb;
            }
        }
        total
    }

    /// The per-demand shared-suite joint
    /// `Σ_t M(t)·Σ_{π₁} Σ_{π₂} υ(π₁,x,t)·υ(π₂,x,t)·S_A(π₁)·S_B(π₂)`.
    fn naive_joint_shared(
        support_a: &Support,
        support_b: &Support,
        m: &ExplicitSuitePopulation,
        model: &FaultModel,
        x: DemandId,
    ) -> f64 {
        let fail = |support: &Support, t: &TestSuite| -> f64 {
            support
                .iter()
                .map(|(v, p)| perfect_debug(v, t, model).score(model, x) * p)
                .sum()
        };
        let mut total = 0.0;
        for (t, qt) in m.iter() {
            total += qt * fail(support_a, t) * fail(support_b, t);
        }
        total
    }

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

    #[test]
    fn zeta_vector_matches_hand_value() {
        // p = (0.4, 0.8), one uniform draw: ζ(x0) = 0.2 (see core tests).
        let pop = singleton_pop(vec![0.4, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let support = pop.enumerate(16).unwrap();
        let z = TestedEnsemble::new(&support, &m, pop.model()).zeta_vector()[0];
        assert!((z - 0.2).abs() < 1e-12);
    }

    #[test]
    fn independent_joint_factorises() {
        // Eq (16): the quadruple sum equals ζ(x)² — verified numerically.
        let pop = singleton_pop(vec![0.4, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let support = pop.enumerate(16).unwrap();
        let ens = TestedEnsemble::new(&support, &m, pop.model());
        let joint = ens.joint_vector_independent(&ens)[0];
        let z = ens.zeta_vector()[0];
        assert!((joint - z * z).abs() < 1e-12);
    }

    #[test]
    fn shared_joint_exceeds_independent() {
        let pop = singleton_pop(vec![0.4, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let support = pop.enumerate(16).unwrap();
        let shared = joint_vector_shared(&support, &support, &m, pop.model())[0];
        let ens = TestedEnsemble::new(&support, &m, pop.model());
        let indep = ens.joint_vector_independent(&ens)[0];
        // Hand values from the core tests: 0.08 vs 0.04.
        assert!((shared - 0.08).abs() < 1e-12);
        assert!((indep - 0.04).abs() < 1e-12);
    }

    #[test]
    fn marginals_integrate_demand_joints() {
        let pop = singleton_pop(vec![0.4, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let support = pop.enumerate(16).unwrap();
        let mi = marginal_independent(&support, &support, &m, &m, pop.model(), &q);
        let ms = marginal_shared(&support, &support, &m, pop.model(), &q);
        assert!((mi - 0.10).abs() < 1e-12);
        assert!((ms - 0.20).abs() < 1e-12);
    }

    /// Overlapping regions + a skewed profile: the harder case for the
    /// packed kernels (cascaded fixes, shared demands across faults).
    fn overlapping_world() -> (Arc<FaultModel>, BernoulliPopulation, UsageProfile) {
        use diversim_universe::demand::DemandId;
        let space = DemandSpace::new(5).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .fault([DemandId::new(0), DemandId::new(1)])
                .fault([DemandId::new(1), DemandId::new(2), DemandId::new(3)])
                .fault([DemandId::new(3), DemandId::new(4)])
                .build()
                .unwrap(),
        );
        let pop = BernoulliPopulation::new(Arc::clone(&model), vec![0.35, 0.6, 0.15]).unwrap();
        let q = UsageProfile::from_weights(space, vec![0.4, 0.25, 0.05, 0.1, 0.2]).unwrap();
        (model, pop, q)
    }

    /// A world over `n` demands with one fault per region and graded
    /// propensities; demands outside every region fail on no version.
    fn regions_world(n: usize, regions: &[&[u32]]) -> (Arc<FaultModel>, BernoulliPopulation) {
        let space = DemandSpace::new(n).unwrap();
        let model = Arc::new(
            regions
                .iter()
                .fold(FaultModelBuilder::new(space), |builder, region| {
                    builder.fault(region.iter().map(|&x| DemandId::new(x)))
                })
                .build()
                .unwrap(),
        );
        let props = (0..regions.len())
            .map(|f| 0.15 + 0.7 * f as f64 / regions.len() as f64)
            .collect();
        (
            Arc::clone(&model),
            BernoulliPopulation::new(model, props).unwrap(),
        )
    }

    /// One side of an equation-(15) pair: a support and the suite
    /// measure its versions are debugged on.
    type Side = (Vec<(Version, f64)>, ExplicitSuitePopulation);

    /// Kernel cases: `(name, model, side A, side B)`. They cover spaces of
    /// 5, 6, 7, 8, 9 and 13 demands (not all multiples of the lane
    /// width), unequal per-demand list lengths, demands no combination
    /// fails on (9 and 13 leave whole lane groups empty), different
    /// measures on the two sides, and e03's small-graded and mirrored
    /// ensembles (eqs 16–19).
    fn kernel_cases() -> Vec<(String, Arc<FaultModel>, Side, Side)> {
        let side = |pop: &BernoulliPopulation, q: &UsageProfile, n: usize| -> Side {
            (
                pop.enumerate(1 << 12).unwrap(),
                enumerate_iid_suites(q, n, 1 << 14).unwrap(),
            )
        };
        let mut cases = Vec::new();
        let (model, pop, q) = overlapping_world();
        cases.push((
            "overlapping, n = 2".to_string(),
            Arc::clone(&model),
            side(&pop, &q, 2),
            side(&pop, &q, 2),
        ));
        cases.push((
            "overlapping, n = 2 vs 1".to_string(),
            model,
            side(&pop, &q, 2),
            side(&pop, &q, 1),
        ));
        let shapes: [(usize, &[&[u32]]); 3] = [
            (7, &[&[0, 1], &[1, 2, 3], &[5]]),
            (9, &[&[0], &[0, 1, 2, 3, 4, 5, 6, 7], &[2, 3]]),
            (13, &[&[1, 2], &[2, 9], &[9, 10, 11], &[3]]),
        ];
        for (n, regions) in shapes {
            let (model, pop) = regions_world(n, regions);
            let weights = (1..=n).map(|i| i as f64).collect();
            let q = UsageProfile::from_weights(model.space(), weights).unwrap();
            cases.push((
                format!("{n} demands, n = 2 vs 1"),
                model,
                side(&pop, &q, 2),
                side(&pop, &q, 1),
            ));
        }
        // e03's worlds: small-graded (6 singleton faults, uniform use) and
        // mirrored(0.5, 0.05) (8 singleton faults, forced design).
        let graded = singleton_pop(vec![0.02, 0.05, 0.1, 0.2, 0.4, 0.6]);
        let uniform = UsageProfile::uniform(graded.model().space());
        let skewed = UsageProfile::from_weights(
            graded.model().space(),
            vec![0.05, 0.05, 0.1, 0.2, 0.3, 0.3],
        )
        .unwrap();
        cases.push((
            "small-graded, eq16, n = 3".to_string(),
            Arc::clone(graded.model()),
            side(&graded, &uniform, 3),
            side(&graded, &uniform, 3),
        ));
        cases.push((
            "small-graded, eq18, n = 2".to_string(),
            Arc::clone(graded.model()),
            side(&graded, &uniform, 2),
            side(&graded, &skewed, 2),
        ));
        let model = singleton_pop(vec![0.5; 8]).model().clone();
        let (pop_a, pop_b) =
            diversim_universe::generator::mirrored_pair(&model, 0.5, 0.05).unwrap();
        let uniform = UsageProfile::uniform(model.space());
        let tail = UsageProfile::from_weights(
            model.space(),
            vec![0.05, 0.05, 0.05, 0.05, 0.2, 0.2, 0.2, 0.2],
        )
        .unwrap();
        cases.push((
            "mirrored, eq17, n = 1".to_string(),
            Arc::clone(&model),
            side(&pop_a, &uniform, 1),
            side(&pop_b, &uniform, 1),
        ));
        // At n = 1: the literal per-demand reference re-debugs every
        // combination and adds every zero term, which at n = 2 takes
        // seconds in a debug build; n = 1 fills the same eight lanes.
        cases.push((
            "mirrored, eq19, n = 1".to_string(),
            model,
            side(&pop_a, &uniform, 1),
            side(&pop_b, &tail, 1),
        ));
        cases
    }

    #[test]
    fn kernel_cases_cover_ragged_and_empty_lists() {
        // The cases must exercise what the padding has to get right:
        // lists of different lengths inside one lane group, and demands
        // (and whole lane groups) with no failing combination.
        let mut ragged = false;
        let mut empty = false;
        for (_, model, (support, m), _) in kernel_cases() {
            let mut lengths = vec![0usize; model.space().len()];
            for_each_combination(&support, &m, &model, |_, fs| {
                for x in fs.iter() {
                    lengths[x] += 1;
                }
            });
            ragged |= lengths.chunks(LANES).any(|g| g.iter().any(|&l| l != g[0]));
            empty |= lengths.contains(&0);
        }
        assert!(ragged && empty);
    }

    #[test]
    fn zeta_vector_matches_per_demand_bitwise() {
        for (name, model, (support, m), _) in kernel_cases() {
            let zv = TestedEnsemble::new(&support, &m, &model).zeta_vector();
            assert_eq!(zv.len(), model.space().len());
            for x in model.space().iter() {
                // Exact equality: the vector form must reproduce the
                // per-demand definition bit for bit, not just within
                // tolerance.
                assert_eq!(
                    zv[x.index()].to_bits(),
                    naive_zeta(&support, &m, &model, x).to_bits(),
                    "{name}, demand {}",
                    x.index()
                );
            }
        }
    }

    #[test]
    fn joint_vectors_match_per_demand_bitwise() {
        for (name, model, (support_a, ma), (support_b, mb)) in kernel_cases() {
            let ens_a = TestedEnsemble::new(&support_a, &ma, &model);
            let ens_b = TestedEnsemble::new(&support_b, &mb, &model);
            let jv_ind = ens_a.joint_vector_independent(&ens_b);
            let jv_sh = joint_vector_shared(&support_a, &support_b, &ma, &model);
            assert_eq!(jv_ind.len(), model.space().len());
            for x in model.space().iter() {
                let naive = naive_joint_independent(&support_a, &support_b, &ma, &mb, &model, x);
                assert_eq!(
                    jv_ind[x.index()].to_bits(),
                    naive.to_bits(),
                    "{name}, demand {}",
                    x.index()
                );
                let naive = naive_joint_shared(&support_a, &support_b, &ma, &model, x);
                assert_eq!(
                    jv_sh[x.index()].to_bits(),
                    naive.to_bits(),
                    "{name}, demand {}",
                    x.index()
                );
            }
        }
    }

    #[test]
    fn marginals_equal_usage_weighted_joint_vectors_bitwise() {
        let (model, pop, q) = overlapping_world();
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        // The marginal entry points must equal the manual expectation over
        // the per-demand joints exactly (same summation order).
        let mi = marginal_independent(&support, &support, &m, &m, &model, &q);
        let ms = marginal_shared(&support, &support, &m, &model, &q);
        let mi_ref = q.expect(|x| naive_joint_independent(&support, &support, &m, &m, &model, x));
        let ms_ref = q.expect(|x| naive_joint_shared(&support, &support, &m, &model, x));
        assert_eq!(mi, mi_ref);
        assert_eq!(ms, ms_ref);
    }

    #[test]
    fn adaptive_with_empty_private_measures_is_shared_bitwise() {
        let (model, pop, q) = overlapping_world();
        let shared = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let none = enumerate_iid_suites(&q, 0, 4).unwrap();
        let support = pop.enumerate(16).unwrap();
        let direct = joint_vector_shared(&support, &support, &shared, &model);
        for x in model.space().iter() {
            // Merging with the single empty suite is the identity, so the
            // adaptive enumeration must collapse to the shared one exactly.
            let adaptive =
                joint_on_demand_adaptive(&support, &support, &shared, &none, &none, &model, x);
            assert!((adaptive - direct[x.index()]).abs() < 1e-15);
        }
    }

    #[test]
    fn adaptive_with_empty_shared_measure_factorises() {
        let (model, pop, q) = overlapping_world();
        let none = enumerate_iid_suites(&q, 0, 4).unwrap();
        let private = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        let ens = TestedEnsemble::new(&support, &private, &model);
        let indep = ens.joint_vector_independent(&ens);
        for x in model.space().iter() {
            let adaptive =
                joint_on_demand_adaptive(&support, &support, &none, &private, &private, &model, x);
            assert!((adaptive - indep[x.index()]).abs() < 1e-12);
        }
        let ma = marginal_adaptive(&support, &support, &none, &private, &private, &model, &q);
        let mi = marginal_independent(&support, &support, &private, &private, &model, &q);
        assert!((ma - mi).abs() < 1e-12);
    }

    #[test]
    fn structure_pair_matches_flat_ensemble_bitwise() {
        // one_out_of_n(2) through the StructureEnsemble recursion must be
        // the flat pair kernel bit-for-bit: same lexicographic combo
        // order, same intersection sets, same scatter order.
        let (model, pop, q) = overlapping_world();
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        let ens = TestedEnsemble::new(&support, &m, &model);
        let flat = ens.joint_vector_independent(&ens);
        let tree = StructureEnsemble::new(
            Structure::one_out_of_n(2),
            &[&support, &support],
            &m,
            &model,
        )
        .unwrap();
        let structured = tree.joint_vector_independent();
        assert_eq!(tree.component_count(), 2);
        for (a, b) in flat.iter().zip(&structured) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn structure_shared_pair_matches_flat_shared_path() {
        let (model, pop, q) = overlapping_world();
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        let flat = joint_vector_shared(&support, &support, &m, &model);
        let structured = structure_joint_vector_shared(
            &Structure::one_out_of_n(2),
            &[&support, &support],
            &m,
            &model,
        )
        .unwrap();
        // Same per-suite products, different accumulation grouping: the
        // flat path scatters per-support masses then multiplies, the
        // structured path enumerates version tuples — equal to rounding.
        for (x, (a, b)) in flat.iter().zip(&structured).enumerate() {
            assert!((a - b).abs() < 1e-12, "demand {x}: flat {a} vs tree {b}");
        }
    }

    #[test]
    fn structure_series_complements_parallel() {
        // On every demand: P(series fails) ≥ P(any single fails) ≥
        // P(parallel fails), and series + "all work" masses combine to 1
        // only through inclusion–exclusion — spot-check or/and ordering.
        let (model, pop, q) = overlapping_world();
        let m = enumerate_iid_suites(&q, 1, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        let supports = [&support[..], &support[..], &support[..]];
        let series = StructureEnsemble::new(Structure::series(3), &supports, &m, &model)
            .unwrap()
            .joint_vector_independent();
        let parallel = StructureEnsemble::new(Structure::one_out_of_n(3), &supports, &m, &model)
            .unwrap()
            .joint_vector_independent();
        let two_of_three = StructureEnsemble::new(Structure::k_of_n(2, 3), &supports, &m, &model)
            .unwrap()
            .joint_vector_independent();
        for x in 0..model.space().len() {
            assert!(parallel[x] <= two_of_three[x] + 1e-15);
            assert!(two_of_three[x] <= series[x] + 1e-15);
        }
    }

    #[test]
    fn structure_ensemble_rejects_bad_input() {
        let (model, pop, q) = overlapping_world();
        let m = enumerate_iid_suites(&q, 1, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        assert!(StructureEnsemble::new(Structure::one_out_of_n(2), &[], &m, &model).is_err());
        // Tree references component 2, only 2 supports supplied.
        assert!(StructureEnsemble::new(
            Structure::one_out_of_n(3),
            &[&support, &support],
            &m,
            &model
        )
        .is_err());
    }
}
