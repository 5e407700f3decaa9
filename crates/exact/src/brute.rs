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
//! value for every demand, debugging each combination once, and add
//! exactly the nonzero terms of the per-demand definition in its order,
//! so they are bit-identical to it; the adaptive joint
//! ([`joint_on_demand_adaptive`]) has only its per-demand form.

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

/// The mechanistically debugged ensemble in kernel form: every
/// `(version, suite)` combination's joint probability `S(π)·M(t)`
/// together with the failure set of the debugged version, computed once
/// through [`perfect_debug`] instead of once per demand.
///
/// Combinations are stored in (support-outer, measure-inner) order — the
/// enumeration order of the quadruple sums — so any per-demand quantity
/// accumulated over the ensemble adds its nonzero terms in exactly the
/// order the per-demand definitions do, and agrees with them
/// bit-for-bit. (The stored weight equals the per-demand `score·p·q`
/// term on failing demands because the score factor is exactly `1.0`;
/// the zero terms are IEEE no-ops on these non-negative sums.)
#[derive(Debug, Clone)]
pub struct TestedEnsemble {
    /// Demand-space size the failure sets are defined over.
    capacity: usize,
    /// `(S(π)·M(t), failure set after debugging)` per combination.
    combos: Vec<(f64, BitSet)>,
}

impl TestedEnsemble {
    /// Debugs every `(version, suite)` combination of a support × measure
    /// pair once and records its weight and post-debug failure set.
    pub fn new(support: &Support, measure: &ExplicitSuitePopulation, model: &FaultModel) -> Self {
        let mut combos = Vec::with_capacity(support.len() * measure.len());
        for (v, p) in support {
            for (t, q) in measure.iter() {
                combos.push((p * q, perfect_debug(v, t, model).failure_set(model)));
            }
        }
        TestedEnsemble {
            capacity: model.space().len(),
            combos,
        }
    }

    /// Number of `(version, suite)` combinations.
    pub fn len(&self) -> usize {
        self.combos.len()
    }

    /// Returns `true` if the ensemble holds no combinations.
    pub fn is_empty(&self) -> bool {
        self.combos.is_empty()
    }

    /// The combinations in enumeration order.
    pub fn combos(&self) -> &[(f64, BitSet)] {
        &self.combos
    }

    /// `ζ(x) = Σ_π Σ_t υ(π,x,t)·S(π)·M(t)` (equation (14)) on every
    /// demand: each combination scatters its weight over its failure set,
    /// so every demand adds its failing combinations' weights in
    /// combination order.
    pub fn zeta_vector(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.capacity];
        for (w, fs) in &self.combos {
            for x in fs.iter() {
                out[x] += w;
            }
        }
        out
    }

    /// The weights of the combinations failing on each demand, in
    /// combination order, as CSR lists: demand `x`'s weights are
    /// `weights[offsets[x]..offsets[x + 1]]`.
    fn failing_weights(&self) -> (Vec<usize>, Vec<f64>) {
        let mut offsets = vec![0; self.capacity + 1];
        for (_, fs) in &self.combos {
            for x in fs.iter() {
                offsets[x + 1] += 1;
            }
        }
        for x in 0..self.capacity {
            offsets[x + 1] += offsets[x];
        }
        let mut cursor = offsets[..self.capacity].to_vec();
        let mut weights = vec![0.0; offsets[self.capacity]];
        for (w, fs) in &self.combos {
            for x in fs.iter() {
                weights[cursor[x]] = *w;
                cursor[x] += 1;
            }
        }
        (offsets, weights)
    }

    /// `P(both fail on x)` for every demand under independently drawn
    /// suites: the quadruple sum
    /// `Σ_{π₁} Σ_{t₁} Σ_{π₂} Σ_{t₂} υ(π₁,x,t₁)·υ(π₂,x,t₂)·S_A·M_A·S_B·M_B`
    /// of equation (15). `self`'s combinations are walked in order, and
    /// each adds, on every demand it fails on, its weight times the weight
    /// of each `other` combination failing there, in order — so every
    /// demand sums its nonzero terms `self`-outer, `other`-inner. Both
    /// ensembles must cover the same demand space.
    pub fn joint_vector_independent(&self, other: &TestedEnsemble) -> Vec<f64> {
        debug_assert_eq!(self.capacity, other.capacity, "demand spaces differ");
        let mut out = vec![0.0; self.capacity];
        let (offsets, weights) = other.failing_weights();
        for (wa, fa) in &self.combos {
            for x in fa.iter() {
                // A local sum, stored once: a store to `out` on every term
                // makes the compiler reload `wa` after it, and the loop's
                // speed then depends on where the allocator put both.
                let mut acc = out[x];
                for wb in &weights[offsets[x]..offsets[x + 1]] {
                    acc += wa * wb;
                }
                out[x] = acc;
            }
        }
        out
    }
}

/// A structured system's mechanistically debugged ensemble: one
/// [`TestedEnsemble`] per component (each component's versions debugged on
/// its **own** independently drawn suites from the measure) composed
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
    components: Vec<TestedEnsemble>,
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
            .map(|s| TestedEnsemble::new(s, measure, model))
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
        for (w, fs) in self.components[idx].combos() {
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

    #[test]
    fn zeta_vector_matches_per_demand_bitwise() {
        let (model, pop, q) = overlapping_world();
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        let zv = TestedEnsemble::new(&support, &m, &model).zeta_vector();
        assert_eq!(zv.len(), model.space().len());
        for x in model.space().iter() {
            // Exact equality: the vector form must reproduce the
            // per-demand definition bit for bit, not just within tolerance.
            assert_eq!(zv[x.index()], naive_zeta(&support, &m, &model, x));
        }
    }

    #[test]
    fn joint_vectors_match_per_demand_bitwise() {
        let (model, pop, q) = overlapping_world();
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let m1 = enumerate_iid_suites(&q, 1, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        let ens = TestedEnsemble::new(&support, &m, &model);
        let jv_ind = ens.joint_vector_independent(&ens);
        let jv_sh = joint_vector_shared(&support, &support, &m, &model);
        // Unequal ensembles (different measures) on the two sides.
        let ens1 = TestedEnsemble::new(&support, &m1, &model);
        let jv_mixed = ens.joint_vector_independent(&ens1);
        for x in model.space().iter() {
            assert_eq!(
                jv_ind[x.index()],
                naive_joint_independent(&support, &support, &m, &m, &model, x)
            );
            assert_eq!(
                jv_mixed[x.index()],
                naive_joint_independent(&support, &support, &m, &m1, &model, x)
            );
            assert_eq!(
                jv_sh[x.index()],
                naive_joint_shared(&support, &support, &m, &model, x)
            );
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

    #[test]
    fn ensemble_exposes_combo_order() {
        let pop = singleton_pop(vec![0.4, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let support = pop.enumerate(16).unwrap();
        let ens = TestedEnsemble::new(&support, &m, pop.model());
        assert_eq!(ens.len(), support.len() * m.len());
        assert!(!ens.is_empty());
        // Support-outer, measure-inner: combo weights tile as p·q blocks.
        let (w0, _) = &ens.combos()[0];
        let expected = support[0].1 * m.iter().next().unwrap().1;
        assert_eq!(*w0, expected);
    }
}
