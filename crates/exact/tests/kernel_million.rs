//! Exactness of the brute-force vector forms on a million-demand space.
//!
//! A per-demand enumeration re-runs the debugging process once per
//! demand, which makes 10⁶-demand spaces unreachable. The
//! [`diversim_exact::TestedEnsemble`] forms debug each `(version,
//! suite)` combination once and fold its weight over its failure set,
//! so the same assumption-free sums stay exact — and fast enough for a
//! debug-mode test — at 10⁶ demands. This test pins both properties:
//! agreement with the closed forms of `diversim-core` and bit-identical
//! agreement with naive per-demand loops on spot demands (including the
//! final partial block of the space).

use std::sync::Arc;

use diversim_core::difficulty::zeta;
use diversim_exact::brute::Support;
use diversim_exact::{joint_vector_shared, marginal_independent, TestedEnsemble};
use diversim_testing::process::perfect_debug;
use diversim_testing::suite::TestSuite;
use diversim_testing::suite_population::ExplicitSuitePopulation;
use diversim_universe::demand::{DemandId, DemandSpace};
use diversim_universe::fault::{FaultModel, FaultModelBuilder};
use diversim_universe::population::{BernoulliPopulation, Population};
use diversim_universe::profile::UsageProfile;

const N: usize = 1_000_000;

fn d(i: usize) -> DemandId {
    DemandId::new(i as u32)
}

/// 10⁶ demands, three faults: two overlapping small regions near the
/// front, one straddling the space's final (partial-block) demands.
fn world() -> (
    Arc<diversim_universe::fault::FaultModel>,
    BernoulliPopulation,
    UsageProfile,
) {
    let space = DemandSpace::new(N).unwrap();
    let model = Arc::new(
        FaultModelBuilder::new(space)
            .fault((100..105).map(d))
            .fault((103..110).map(d))
            .fault((N - 5..N).map(d))
            .build()
            .unwrap(),
    );
    let pop = BernoulliPopulation::new(Arc::clone(&model), vec![0.4, 0.25, 0.6]).unwrap();
    // Graded weights so no two demands carry the same probability mass.
    let weights: Vec<f64> = (0..N).map(|i| 1.0 + (i % 997) as f64 / 997.0).collect();
    let q = UsageProfile::from_weights(space, weights).unwrap();
    (model, pop, q)
}

/// `ζ(x) = Σ_π Σ_t υ(π,x,t)·S(π)·M(t)` on one demand, re-debugging every
/// combination (equation (14) read literally).
fn naive_zeta(support: &Support, m: &ExplicitSuitePopulation, model: &FaultModel, i: usize) -> f64 {
    let mut total = 0.0;
    for (v, p) in support {
        for (t, q) in m.iter() {
            total += perfect_debug(v, t, model).score(model, d(i)) * p * q;
        }
    }
    total
}

/// The shared-suite joint `Σ_t M(t)·Σ_{π₁} Σ_{π₂} υ·υ·S(π₁)·S(π₂)` on
/// one demand, re-debugging every combination.
fn naive_joint_shared(
    support: &Support,
    m: &ExplicitSuitePopulation,
    model: &FaultModel,
    i: usize,
) -> f64 {
    let mut total = 0.0;
    for (t, qt) in m.iter() {
        let fail: f64 = support
            .iter()
            .map(|(v, p)| perfect_debug(v, t, model).score(model, d(i)) * p)
            .sum();
        total += qt * fail * fail;
    }
    total
}

/// A three-suite measure: no testing, a front-region hit, and a suite
/// covering both ends of the space.
fn measure(space: DemandSpace) -> ExplicitSuitePopulation {
    let empty = TestSuite::from_demands(space, vec![]).unwrap();
    let front = TestSuite::from_demands(space, vec![d(104)]).unwrap();
    let both = TestSuite::from_demands(space, vec![d(107), d(N - 1)]).unwrap();
    ExplicitSuitePopulation::new(vec![(empty, 0.5), (front, 0.3), (both, 0.2)]).unwrap()
}

#[test]
fn zeta_kernel_is_exact_at_a_million_demands() {
    let (model, pop, q) = world();
    let m = measure(model.space());
    let support = pop.enumerate(16).unwrap();

    let zv = TestedEnsemble::new(&support, &m, &model).zeta_vector();
    assert_eq!(zv.len(), N);

    // Spot demands: inside each region, on the overlap, in the final
    // partial block, and far outside any region.
    let spots = [100, 103, 104, 109, N - 5, N - 1, 110, N / 2];
    for i in spots {
        // Bit-identical to the per-demand definition.
        assert_eq!(zv[i], naive_zeta(&support, &m, &model, i));
        // And equal to the closed form within rounding.
        let closed = zeta(&pop, d(i), &m);
        assert!(
            (zv[i] - closed).abs() < 1e-12,
            "zeta mismatch at {i}: kernel {} vs closed {closed}",
            zv[i]
        );
    }
    // Outside every region the post-testing difficulty is exactly zero.
    assert_eq!(zv[N / 2], 0.0);
    assert_eq!(zv[99], 0.0);

    // The usage-weighted total matches the closed-form expectation.
    let total: f64 = zv.iter().zip(q.probabilities()).map(|(z, p)| z * p).sum();
    let closed_total = q.expect(|x| zeta(&pop, x, &m));
    assert!((total - closed_total).abs() < 1e-12);
}

#[test]
fn joint_kernels_are_exact_at_a_million_demands() {
    let (model, pop, q) = world();
    let m = measure(model.space());
    let support = pop.enumerate(16).unwrap();

    let ens = TestedEnsemble::new(&support, &m, &model);
    let jv_ind = ens.joint_vector_independent(&ens);
    let jv_sh = joint_vector_shared(&support, &support, &m, &model);

    let zv = ens.zeta_vector();
    for i in [100, 104, 107, N - 5, N - 1, N / 2] {
        // Independent suites factorise: joint(x) = ζ(x)² (equation 16).
        assert!(
            (jv_ind[i] - zv[i] * zv[i]).abs() < 1e-15,
            "eq16 violated at {i}"
        );
        // Shared-suite joint matches its per-demand definition bit for bit.
        assert_eq!(jv_sh[i], naive_joint_shared(&support, &m, &model, i));
        // Shared testing can only increase the joint failure probability.
        assert!(jv_sh[i] + 1e-15 >= jv_ind[i]);
    }

    // Marginal entry point stays exact: equals the manual usage-weighted
    // sum of the joint vector.
    let mi = marginal_independent(&support, &support, &m, &m, &model, &q);
    let manual: f64 = jv_ind
        .iter()
        .zip(q.probabilities())
        .map(|(j, p)| j * p)
        .sum();
    assert_eq!(mi, manual);
}
