//! Theorem checker: asserts every §3 identity of the paper on a concrete
//! universe by comparing `diversim-core`'s formula path against the
//! brute-force process path of [`crate::brute`].

use diversim_core::difficulty::{zeta, TestedDifficulty};
use diversim_core::error::CoreError;
use diversim_core::marginal::{MarginalAnalysis, SuiteAssignment};
use diversim_core::structure::{self, Structure};
use diversim_core::testing_effect::TestingRegime;
use diversim_testing::suite_population::ExplicitSuitePopulation;
use diversim_universe::profile::UsageProfile;
use diversim_universe::version::Version;

use crate::brute;

/// One verified identity: a named left/right-hand-side comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentityCheck {
    /// Which paper result this checks (e.g. `"eq16"`).
    pub name: &'static str,
    /// Value from the core formula path.
    pub formula: f64,
    /// Value from the brute-force process path.
    pub brute: f64,
}

impl IdentityCheck {
    /// Absolute discrepancy between the two computation paths.
    pub fn abs_error(&self) -> f64 {
        (self.formula - self.brute).abs()
    }

    /// Whether the identity holds within `tol`.
    pub fn holds(&self, tol: f64) -> bool {
        self.abs_error() <= tol
    }
}

/// The result of verifying a universe: every identity with both values.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoremReport {
    /// All performed checks.
    pub checks: Vec<IdentityCheck>,
}

impl TheoremReport {
    /// Whether every identity holds within `tol`.
    pub fn all_hold(&self, tol: f64) -> bool {
        self.checks.iter().all(|c| c.holds(tol))
    }

    /// The check with the given name, if present.
    pub fn check(&self, name: &str) -> Option<&IdentityCheck> {
        self.checks.iter().find(|c| c.name == name)
    }
}

impl std::fmt::Display for TheoremReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in &self.checks {
            writeln!(
                f,
                "{:<22} formula={:.12} brute={:.12} err={:.3e}",
                c.name,
                c.formula,
                c.brute,
                c.abs_error()
            )?;
        }
        Ok(())
    }
}

/// Verifies the §3 identities for a (possibly forced-diversity) pair of
/// populations against one suite measure and a usage profile:
///
/// * `eq14` — `ζ(x)` from the closed form vs. the brute process, summed
///   over demands;
/// * `eq16/17` — independent suites: joint = `ζ_A(x)·ζ_B(x)` per demand;
/// * `eq20/21` — shared suite: joint = product + variance/covariance
///   decomposition per demand;
/// * `eq22/24` — marginal, independent suites;
/// * `eq23/25` — marginal, shared suite;
/// * `theta_ge_zeta` — `θ(x) ≥ ζ(x)` (reported as the most negative
///   margin, expected ≥ 0 up to rounding: `formula` holds the minimum
///   of `θ − ζ`, `brute` holds `0.0`).
///
/// `support_a`/`support_b` must enumerate the same measures the
/// populations represent (typically via
/// [`diversim_universe::Population::enumerate`]).
pub fn verify_pair(
    pop_a: &dyn TestedDifficulty,
    pop_b: &dyn TestedDifficulty,
    support_a: &[(Version, f64)],
    support_b: &[(Version, f64)],
    measure: &ExplicitSuitePopulation,
    profile: &UsageProfile,
) -> TheoremReport {
    let model = pop_a.model();
    let mut checks = Vec::new();

    // The brute sides below run through the vector forms of
    // [`brute`]: each `(version, suite)` combination is debugged once
    // and its weight folded over its failure set, instead of re-running
    // the debugging process per demand. Every demand adds its nonzero
    // terms in the per-demand definition's order, so each usage-weighted
    // sum is bit-identical to that definition (zero terms are IEEE
    // no-ops on these non-negative accumulations).
    let ens_a = brute::TestedEnsemble::new(support_a, measure, model);
    let ens_b = brute::TestedEnsemble::new(support_b, measure, model);

    // eq14: ζ per demand, aggregated as a usage-weighted sum.
    let zeta_formula = profile.expect(|x| zeta(pop_a, x, measure));
    let zeta_brute = brute::weighted_total(&ens_a.zeta_vector(), profile);
    checks.push(IdentityCheck {
        name: "eq14",
        formula: zeta_formula,
        brute: zeta_brute,
    });

    // eq16/17: independent suites, per-demand, aggregated as the max
    // pointwise error folded into one summed comparison.
    let indep_formula = profile.expect(|x| zeta(pop_a, x, measure) * zeta(pop_b, x, measure));
    let indep_brute = brute::weighted_total(&ens_a.joint_vector_independent(&ens_b), profile);
    checks.push(IdentityCheck {
        name: "eq16/17-per-demand",
        formula: indep_formula,
        brute: indep_brute,
    });

    // eq20/21: shared suite, per-demand decomposition.
    let shared_formula = profile.expect(|x| {
        diversim_core::testing_effect::joint_shared_suite(pop_a, pop_b, measure, x).total()
    });
    let shared_brute = brute::weighted_total(
        &brute::joint_vector_shared(support_a, support_b, measure, model),
        profile,
    );
    checks.push(IdentityCheck {
        name: "eq20/21-per-demand",
        formula: shared_formula,
        brute: shared_brute,
    });

    // eq22/24: marginal under independent suites.
    let m_ind =
        MarginalAnalysis::compute(pop_a, pop_b, SuiteAssignment::independent(measure), profile);
    let m_ind_brute =
        brute::marginal_independent(support_a, support_b, measure, measure, model, profile);
    checks.push(IdentityCheck {
        name: "eq22/24-marginal",
        formula: m_ind.system_pfd(),
        brute: m_ind_brute,
    });

    // eq23/25: marginal under a shared suite.
    let m_sh = MarginalAnalysis::compute(pop_a, pop_b, SuiteAssignment::Shared(measure), profile);
    let m_sh_brute = brute::marginal_shared(support_a, support_b, measure, model, profile);
    checks.push(IdentityCheck {
        name: "eq23/25-marginal",
        formula: m_sh.system_pfd(),
        brute: m_sh_brute,
    });

    // θ(x) ≥ ζ(x): report the minimum margin (should be ≥ -ε).
    let min_margin = model
        .space()
        .iter()
        .map(|x| pop_a.theta(x) - zeta(pop_a, x, measure))
        .fold(f64::INFINITY, f64::min);
    checks.push(IdentityCheck {
        name: "theta_ge_zeta(min-margin)",
        formula: min_margin.min(0.0),
        brute: 0.0,
    });

    TheoremReport { checks }
}

/// Verifies the structure-function generalisation for an arbitrary fault
/// tree over N component populations, against one suite measure and a
/// usage profile:
///
/// * `structure-independent-marginal` — the gate-composed formula path
///   ([`structure::structure_pfd`] under independent suites) vs. the
///   assumption-free cross-product enumeration
///   ([`brute::StructureEnsemble`]);
/// * `structure-shared-marginal` — the shared-suite mixed-moment path vs.
///   [`brute::structure_joint_vector_shared`];
/// * `gate-coupling(min-margin)` — for **repeat-free** trees only: the
///   most negative per-gate coupling `E_Ξ[Π…] − Π E_Ξ[…]` across all
///   gates (clamped at 0; expected ≥ 0 up to rounding, the eq-20
///   generalisation). Omitted for trees with repeated components.
///
/// `supports[i]` must enumerate the same measure `pops[i]` represents.
///
/// # Errors
///
/// Propagates the structure validation errors of the core and brute
/// paths ([`CoreError::InvalidStructure`], [`CoreError::EmptyInput`],
/// [`CoreError::ModelMismatch`]).
pub fn verify_structure(
    structure: &Structure,
    pops: &[&dyn TestedDifficulty],
    supports: &[&brute::Support],
    measure: &ExplicitSuitePopulation,
    profile: &UsageProfile,
) -> Result<TheoremReport, CoreError> {
    if pops.len() != supports.len() {
        return Err(CoreError::ModelMismatch {
            reason: "one support per population is required",
        });
    }
    let model = pops
        .first()
        .ok_or(CoreError::EmptyInput {
            what: "populations",
        })?
        .model();
    let mut checks = Vec::new();

    let ind_formula = structure::structure_pfd(
        structure,
        pops,
        measure,
        profile,
        TestingRegime::IndependentSuites,
    )?;
    let ens = brute::StructureEnsemble::new(structure.clone(), supports, measure, model)?;
    checks.push(IdentityCheck {
        name: "structure-independent-marginal",
        formula: ind_formula,
        brute: ens.marginal_independent(profile),
    });

    let sh_formula = structure::structure_pfd(
        structure,
        pops,
        measure,
        profile,
        TestingRegime::SharedSuite,
    )?;
    let sh_brute = brute::structure_marginal_shared(structure, supports, measure, model, profile)?;
    checks.push(IdentityCheck {
        name: "structure-shared-marginal",
        formula: sh_formula,
        brute: sh_brute,
    });

    if !structure.has_repeated_components() {
        let moments = structure::gate_moments(structure, pops, measure, profile)?;
        let min_margin = moments
            .iter()
            .map(structure::GateMoment::coupling)
            .fold(f64::INFINITY, f64::min);
        checks.push(IdentityCheck {
            name: "gate-coupling(min-margin)",
            formula: min_margin.min(0.0),
            brute: 0.0,
        });
    }

    Ok(TheoremReport { checks })
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

    #[test]
    fn identities_hold_on_singleton_universe() {
        let pop = singleton_pop(vec![0.4, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 2, 64).unwrap();
        let support = pop.enumerate(16).unwrap();
        let report = verify_pair(&pop, &pop, &support, &support, &m, &q);
        assert!(report.all_hold(1e-12), "violations:\n{report}");
        assert!(report.check("eq14").is_some());
        assert_eq!(report.checks.len(), 6);
    }

    #[test]
    fn identities_hold_with_overlapping_regions() {
        // General fault regions (cascades active): formulas must still
        // agree with the mechanistic process.
        use diversim_universe::demand::DemandId;
        let space = DemandSpace::new(4).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .fault([DemandId::new(0), DemandId::new(1)])
                .fault([DemandId::new(1), DemandId::new(2)])
                .fault([DemandId::new(3)])
                .build()
                .unwrap(),
        );
        let pop = BernoulliPopulation::new(model.clone(), vec![0.5, 0.3, 0.7]).unwrap();
        let q = UsageProfile::from_weights(space, vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let m = enumerate_iid_suites(&q, 2, 1 << 8).unwrap();
        let support = pop.enumerate(16).unwrap();
        let report = verify_pair(&pop, &pop, &support, &support, &m, &q);
        assert!(report.all_hold(1e-12), "violations:\n{report}");
    }

    #[test]
    fn identities_hold_for_forced_diversity() {
        let space = DemandSpace::new(3).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .singleton_faults()
                .build()
                .unwrap(),
        );
        let a = BernoulliPopulation::new(model.clone(), vec![0.6, 0.1, 0.3]).unwrap();
        let b = BernoulliPopulation::new(model.clone(), vec![0.1, 0.6, 0.2]).unwrap();
        let q = UsageProfile::uniform(space);
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let sa = a.enumerate(16).unwrap();
        let sb = b.enumerate(16).unwrap();
        let report = verify_pair(&a, &b, &sa, &sb, &m, &q);
        assert!(report.all_hold(1e-12), "violations:\n{report}");
    }

    #[test]
    fn adaptive_joint_matches_brute_force() {
        // core::testing_effect::joint_adaptive (covariance decomposition
        // over the shared suite) vs the assumption-free merged-suite
        // enumeration, for every demand and every shared/private split of
        // a 3-draw budget — forced diversity included.
        let space = DemandSpace::new(3).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .singleton_faults()
                .build()
                .unwrap(),
        );
        let a = BernoulliPopulation::new(model.clone(), vec![0.6, 0.2, 0.4]).unwrap();
        let b = BernoulliPopulation::new(model.clone(), vec![0.1, 0.7, 0.3]).unwrap();
        let q = UsageProfile::from_weights(space, vec![0.5, 0.3, 0.2]).unwrap();
        let sa = a.enumerate(16).unwrap();
        let sb = b.enumerate(16).unwrap();
        for s in 0..=3usize {
            let shared = enumerate_iid_suites(&q, s, 1 << 8).unwrap();
            let private = enumerate_iid_suites(&q, 3 - s, 1 << 8).unwrap();
            for x in space.iter() {
                let formula = diversim_core::testing_effect::joint_adaptive(
                    &a, &b, &shared, &private, &private, x,
                )
                .total();
                let brute_val = brute::joint_on_demand_adaptive(
                    &sa, &sb, &shared, &private, &private, &model, x,
                );
                assert!(
                    (formula - brute_val).abs() < 1e-12,
                    "adaptive joint mismatch at {x} with {s} shared draws: \
                     formula={formula} brute={brute_val}"
                );
            }
            let marginal_formula = q.expect(|x| {
                diversim_core::testing_effect::joint_adaptive(
                    &a, &b, &shared, &private, &private, x,
                )
                .total()
            });
            let marginal_brute =
                brute::marginal_adaptive(&sa, &sb, &shared, &private, &private, &model, &q);
            assert!((marginal_formula - marginal_brute).abs() < 1e-12);
        }
    }

    #[test]
    fn structure_identities_hold_for_canonical_trees() {
        // The acceptance fixtures: series, parallel, 2-of-3 and the
        // bridge, each verified formula-vs-brute in both regimes. The
        // brute side is a full cross-product over component ensembles, so
        // the worlds are kept tiny (the bridge visits |ensemble|⁵ tuples).
        let pop = singleton_pop(vec![0.3, 0.7]);
        let q = UsageProfile::from_weights(pop.model().space(), vec![0.6, 0.4]).unwrap();
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let support = pop.enumerate(16).unwrap();
        for (n, s) in [
            (3, Structure::series(3)),
            (3, Structure::one_out_of_n(3)),
            (3, Structure::k_of_n(2, 3)),
            (5, Structure::bridge()),
        ] {
            let pops: Vec<&dyn TestedDifficulty> = vec![&pop; n];
            let supports: Vec<&brute::Support> = vec![&support; n];
            let report = verify_structure(&s, &pops, &supports, &m, &q).unwrap();
            assert!(report.all_hold(1e-12), "violations for {s:?}:\n{report}");
            let expected_checks = if s.has_repeated_components() { 2 } else { 3 };
            assert_eq!(report.checks.len(), expected_checks);
        }
    }

    #[test]
    fn structure_identities_hold_for_heterogeneous_components() {
        // Different populations per component exercise the non-exchangeable
        // case (LM-style) through a nested tree.
        let space = DemandSpace::new(3).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .singleton_faults()
                .build()
                .unwrap(),
        );
        let a = BernoulliPopulation::new(model.clone(), vec![0.6, 0.1, 0.3]).unwrap();
        let b = BernoulliPopulation::new(model.clone(), vec![0.1, 0.6, 0.2]).unwrap();
        let c = BernoulliPopulation::new(model.clone(), vec![0.4, 0.4, 0.4]).unwrap();
        let q = UsageProfile::from_weights(space, vec![0.5, 0.3, 0.2]).unwrap();
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let sa = a.enumerate(16).unwrap();
        let sb = b.enumerate(16).unwrap();
        let sc = c.enumerate(16).unwrap();
        let tree = Structure::or(vec![
            Structure::and(vec![Structure::component(0), Structure::component(1)]),
            Structure::component(2),
        ]);
        let pops: Vec<&dyn TestedDifficulty> = vec![&a, &b, &c];
        let supports: Vec<&brute::Support> = vec![&sa, &sb, &sc];
        let report = verify_structure(&tree, &pops, &supports, &m, &q).unwrap();
        assert!(report.all_hold(1e-12), "violations:\n{report}");
        assert!(report.check("gate-coupling(min-margin)").is_some());
    }

    #[test]
    fn verify_structure_rejects_mismatched_inputs() {
        let pop = singleton_pop(vec![0.4, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let support = pop.enumerate(16).unwrap();
        let pops: Vec<&dyn TestedDifficulty> = vec![&pop, &pop];
        let supports: Vec<&brute::Support> = vec![&support];
        assert!(matches!(
            verify_structure(&Structure::one_out_of_n(2), &pops, &supports, &m, &q),
            Err(CoreError::ModelMismatch { .. })
        ));
        assert!(matches!(
            verify_structure(&Structure::one_out_of_n(2), &[], &[], &m, &q),
            Err(CoreError::EmptyInput { .. })
        ));
    }

    #[test]
    fn report_display_lists_all_checks() {
        let pop = singleton_pop(vec![0.5]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 8).unwrap();
        let support = pop.enumerate(4).unwrap();
        let report = verify_pair(&pop, &pop, &support, &support, &m, &q);
        let text = report.to_string();
        assert!(text.contains("eq14"));
        assert!(text.contains("eq23/25-marginal"));
        assert!(report.all_hold(1e-12));
    }

    #[test]
    fn broken_identity_is_detected() {
        // Sanity check of the checker itself: corrupt one support weight
        // so the brute path disagrees with the closed form.
        let pop = singleton_pop(vec![0.4, 0.8]);
        let q = UsageProfile::uniform(pop.model().space());
        let m = enumerate_iid_suites(&q, 1, 64).unwrap();
        let mut support = pop.enumerate(16).unwrap();
        // Inflate the weight of a *faulty* version (the correct version has
        // score 0 everywhere, so corrupting it would go unseen).
        let faulty = support
            .iter()
            .position(|(v, _)| !v.is_correct())
            .expect("support contains faulty versions");
        support[faulty].1 += 0.25; // no longer the Bernoulli measure
        let report = verify_pair(&pop, &pop, &support, &support, &m, &q);
        assert!(!report.all_hold(1e-6), "corruption went unnoticed");
    }
}
