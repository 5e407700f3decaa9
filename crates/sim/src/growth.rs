//! Reliability-growth trajectories: pfd of versions and of the 1-out-of-2
//! system as a function of testing effort.
//!
//! This rebuilds the simulation study the paper leans on for
//! cost-effectiveness questions (its reference \[5\], Djambazov & Popov,
//! ISSRE'95: "the effects of testing on the reliability of single version
//! and 1-out-of-2 software"), and powers the §3.4.1 trade-off experiment
//! (merged 2n-demand shared suite vs. two independent n-demand suites).
//! Growth studies are launched through
//! [`crate::scenario::Scenario::growth`] and
//! [`crate::scenario::Scenario::merged_estimate`].
//!
//! One replication draws a version pair, then feeds demands one at a time
//! through the debugging process, recording exact pfds at each checkpoint.
//! Replications are aggregated into per-checkpoint means with standard
//! errors.

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_stats::online::MeanVar;
use diversim_stats::reduce::{ElementWise, Moments};
use diversim_testing::process::{back_to_back_step, debug_step, debug_version};
use diversim_testing::suite::TestSuite;
use diversim_universe::version::Version;

use crate::campaign::{CampaignRegime, PAIR};
use crate::estimate::Estimate;
use crate::prepared::Prepared;
use crate::scenario::Scenario;

/// One replication's trajectory: pfds recorded at each checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthSample {
    /// Demands executed at each checkpoint (per suite).
    pub checkpoints: Vec<usize>,
    /// Version A pfd at each checkpoint.
    pub version_a: Vec<f64>,
    /// Version B pfd at each checkpoint.
    pub version_b: Vec<f64>,
    /// System pfd at each checkpoint.
    pub system: Vec<f64>,
}

/// Aggregated growth curves across replications.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthCurve {
    /// Demands executed at each checkpoint (per suite).
    pub checkpoints: Vec<usize>,
    /// Mean/variance accumulators of version A's pfd per checkpoint.
    pub version_a: Vec<MeanVar>,
    /// Mean/variance accumulators of version B's pfd per checkpoint.
    pub version_b: Vec<MeanVar>,
    /// Mean/variance accumulators of the system pfd per checkpoint.
    pub system: Vec<MeanVar>,
}

impl GrowthCurve {
    /// Mean system pfd at each checkpoint.
    pub fn system_means(&self) -> Vec<f64> {
        self.system.iter().map(MeanVar::mean).collect()
    }

    /// Mean version-A pfd at each checkpoint.
    pub fn version_a_means(&self) -> Vec<f64> {
        self.version_a.iter().map(MeanVar::mean).collect()
    }
}

/// The pair's version and system pfds, from one failure set per version.
fn pair_pfds(prepared: &Prepared, pair: &[Version; 2]) -> ([f64; 2], f64) {
    let mut pfds = [0.0; 2];
    let system = prepared.evaluate(pair, &PAIR, &mut pfds);
    (pfds, system)
}

fn record(sample: &mut GrowthSample, prepared: &Prepared, pair: &[Version; 2]) {
    let ([a, b], system) = pair_pfds(prepared, pair);
    sample.version_a.push(a);
    sample.version_b.push(b);
    sample.system.push(system);
}

/// One growth replication (the body behind [`Scenario::growth_sample`]):
/// debugging proceeds demand by demand and pfds are recorded whenever the
/// number of executed demands reaches a checkpoint. Checkpoint 0 (if
/// present) records the untested pair. The checkpoint list is validated
/// by the scenario before this runs.
pub(crate) fn growth_sample(scenario: &Scenario, checkpoints: &[usize], seed: u64) -> GrowthSample {
    let mut rng = StdRng::seed_from_u64(seed);
    let prepared = scenario.prepared();
    let model = prepared.model();
    let regime = scenario.regime();
    let mut pair = [0, 1].map(|i| scenario.component(i).sample(&mut rng));
    let total = *checkpoints.last().expect("validated non-empty");

    // Draw the demand streams up front (suites of the total length).
    // Version B's own stream exists only under independent suites; the
    // shared regimes borrow version A's.
    let stream_a = scenario.generator().generate(&mut rng, total);
    let own_b = matches!(regime, CampaignRegime::IndependentSuites)
        .then(|| scenario.generator().generate(&mut rng, total));
    let stream_b = own_b.as_ref().unwrap_or(&stream_a);

    let mut sample = GrowthSample {
        checkpoints: checkpoints.to_vec(),
        version_a: Vec::with_capacity(checkpoints.len()),
        version_b: Vec::with_capacity(checkpoints.len()),
        system: Vec::with_capacity(checkpoints.len()),
    };

    let mut next_checkpoint = 0usize;
    if checkpoints[next_checkpoint] == 0 {
        record(&mut sample, prepared, &pair);
        next_checkpoint += 1;
    }

    let (oracle, fixer) = (scenario.oracle(), scenario.fixer());
    for step in 0..total {
        let xa = stream_a.demands().get(step).copied();
        let xb = stream_b.demands().get(step).copied();
        let [va, vb] = &mut pair;
        match regime {
            CampaignRegime::IndependentSuites | CampaignRegime::SharedSuite => {
                if let Some(x) = xa {
                    debug_step(va, x, model, oracle, fixer, &mut rng);
                }
                if let Some(x) = xb {
                    debug_step(vb, x, model, oracle, fixer, &mut rng);
                }
            }
            CampaignRegime::BackToBack(identical) => {
                if let Some(x) = xa {
                    back_to_back_step(va, vb, x, model, identical, fixer, &mut rng);
                }
            }
            CampaignRegime::Adaptive(_) => {
                unreachable!("growth studies reject adaptive regimes at the scenario layer")
            }
        }
        if next_checkpoint < checkpoints.len() && step + 1 == checkpoints[next_checkpoint] {
            record(&mut sample, prepared, &pair);
            next_checkpoint += 1;
        }
    }
    sample
}

/// Replicated growth (the body behind [`Scenario::growth`]): runs
/// replications in parallel, streaming each trajectory into one
/// [`MeanVar`] per checkpoint per curve — no per-replication
/// trajectories are materialised. Deterministic in
/// `(scenario.seeds(), replications)`.
pub(crate) fn growth(
    scenario: &Scenario,
    checkpoints: &[usize],
    replications: u64,
    threads: usize,
) -> GrowthCurve {
    let k = checkpoints.len();
    let per_checkpoint = || ElementWise::new(Moments, k);
    let reducer = (per_checkpoint(), per_checkpoint(), per_checkpoint());
    let (version_a, version_b, system) = scenario.reduce(replications, threads, &reducer, |seed| {
        let s = growth_sample(scenario, checkpoints, seed);
        (s.version_a, s.version_b, s.system)
    });
    GrowthCurve {
        checkpoints: checkpoints.to_vec(),
        version_a,
        version_b,
        system,
    }
}

/// Result of one §3.4.1 merged-suite comparison (see
/// [`Scenario::merged_comparison`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergedComparison {
    /// System pfd after arm (a): each version debugged on its own
    /// `n`-demand suite.
    pub independent_system: f64,
    /// System pfd after arm (b): both versions debugged on the merged
    /// `2n`-demand shared suite.
    pub merged_system: f64,
    /// Mean version pfd after arm (a).
    pub independent_version: f64,
    /// Mean version pfd after arm (b).
    pub merged_version: f64,
}

/// Replicated [`MergedComparison`] statistics (see
/// [`Scenario::merged_estimate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergedEstimates {
    /// System pfd under arm (a), independent `n`-demand suites.
    pub independent_system: Estimate,
    /// System pfd under arm (b), the merged `2n`-demand shared suite.
    pub merged_system: Estimate,
    /// Mean version pfd under arm (a).
    pub independent_version: Estimate,
    /// Mean version pfd under arm (b).
    pub merged_version: Estimate,
}

/// The §3.4.1 merged-suite comparison for one replication: the same pair
/// debugged (a) on two independent `n`-demand suites, vs. (b) together on
/// the merged `2n`-demand shared suite ("we can run twice as long a test
/// (merging the two generated test suites) on each of the versions at the
/// same cost").
///
/// The same versions and the same raw demand material are used in both
/// arms, isolating the regime effect. Under perfect testing the merged
/// arm's versions dominate fault-wise, so both version and system pfds
/// satisfy `merged ≤ independent` per replication; with singleton failure
/// regions the *system* pfds are exactly equal (removing either version's
/// fault on `x` repairs the system there), and the strict system-level
/// advantage of merging appears only through region cascades.
pub(crate) fn merged_comparison(scenario: &Scenario, n: usize, seed: u64) -> MergedComparison {
    let mut rng = StdRng::seed_from_u64(seed);
    let prepared = scenario.prepared();
    let model = prepared.model();
    let va = scenario.component(0).sample(&mut rng);
    let vb = scenario.component(1).sample(&mut rng);
    let t1 = scenario.generator().generate(&mut rng, n);
    let t2 = scenario.generator().generate(&mut rng, n);
    let merged: TestSuite = t1.merged(&t2);
    let oracle = scenario.oracle();
    let fixer = scenario.fixer();

    // Arm (a): independent suites, one per version.
    let a1 = debug_version(&va, &t1, model, oracle, fixer, &mut rng);
    let a2 = debug_version(&vb, &t2, model, oracle, fixer, &mut rng);

    // Arm (b): both versions on the merged 2n suite.
    let b1 = debug_version(&va, &merged, model, oracle, fixer, &mut rng);
    let b2 = debug_version(&vb, &merged, model, oracle, fixer, &mut rng);

    let ([ia, ib], independent_system) = pair_pfds(prepared, &[a1.version, a2.version]);
    let ([ma, mb], merged_system) = pair_pfds(prepared, &[b1.version, b2.version]);
    MergedComparison {
        independent_system,
        merged_system,
        independent_version: 0.5 * (ia + ib),
        merged_version: 0.5 * (ma + mb),
    }
}

/// The body behind [`Scenario::merged_estimate`]: all four comparison
/// observables accumulated jointly without materialising outcomes.
pub(crate) fn merged_estimate(
    scenario: &Scenario,
    n: usize,
    replications: u64,
    threads: usize,
) -> MergedEstimates {
    let reducer = (Moments, Moments, Moments, Moments);
    let (ind_sys, mrg_sys, ind_ver, mrg_ver) =
        scenario.reduce(replications, threads, &reducer, |seed| {
            let c = merged_comparison(scenario, n, seed);
            (
                c.independent_system,
                c.merged_system,
                c.independent_version,
                c.merged_version,
            )
        });
    MergedEstimates {
        independent_system: Estimate::from_accumulator(&ind_sys),
        merged_system: Estimate::from_accumulator(&mrg_sys),
        independent_version: Estimate::from_accumulator(&ind_ver),
        merged_version: Estimate::from_accumulator(&mrg_ver),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioError;
    use crate::world::World;
    use diversim_testing::oracle::IdenticalFailureModel;

    fn scenario(n: usize, p: f64, regime: CampaignRegime, seed: u64) -> Scenario {
        World::singleton_uniform("growth-test", vec![p; n])
            .unwrap()
            .scenario()
            .regime(regime)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn trajectories_are_monotone_under_perfect_testing() {
        let s = scenario(10, 0.5, CampaignRegime::SharedSuite, 0);
        let out = s.growth_sample(&[0, 2, 5, 10, 20], 3).unwrap();
        for w in out.version_a.windows(2) {
            assert!(w[1] <= w[0] + 1e-15, "version pfd increased");
        }
        for w in out.system.windows(2) {
            assert!(w[1] <= w[0] + 1e-15, "system pfd increased");
        }
    }

    #[test]
    fn checkpoint_zero_is_untested_state() {
        let s = scenario(6, 0.8, CampaignRegime::IndependentSuites, 0);
        let out = s.growth_sample(&[0, 3], 11).unwrap();
        // With p=0.8 on 6 singleton demands, the untested pfd is very
        // likely positive; in any case it must dominate the tested value.
        assert!(out.version_a[0] >= out.version_a[1] - 1e-15);
        assert_eq!(out.checkpoints, vec![0, 3]);
        assert_eq!(out.version_a.len(), 2);
    }

    #[test]
    fn final_checkpoint_replays_the_campaign() {
        // With the perfect oracle and fixer, debugging draws no
        // randomness, so growth's demand-by-demand interleaving of the
        // two versions ends where the campaign's version-by-version
        // debugging does: same versions, same suites, same pfds.
        for regime in [
            CampaignRegime::SharedSuite,
            CampaignRegime::IndependentSuites,
            CampaignRegime::BackToBack(IdenticalFailureModel::Never),
            CampaignRegime::BackToBack(IdenticalFailureModel::Always),
        ] {
            let s = scenario(8, 0.5, regime, 0);
            for n in [1, 4, 9] {
                let campaign = s.with_suite_size(n).unwrap();
                for seed in 0..10 {
                    let growth = s.growth_sample(&[n], seed).unwrap();
                    let out = campaign.run(seed);
                    let last = |curve: &[f64]| curve[curve.len() - 1].to_bits();
                    assert_eq!(
                        (
                            last(&growth.version_a),
                            last(&growth.version_b),
                            last(&growth.system)
                        ),
                        (
                            out.first_pfd.to_bits(),
                            out.second_pfd.to_bits(),
                            out.system_pfd.to_bits()
                        ),
                        "{regime:?}, n = {n}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn unsorted_checkpoints_are_rejected() {
        let s = scenario(4, 0.5, CampaignRegime::SharedSuite, 0);
        assert_eq!(
            s.growth_sample(&[3, 1], 0).unwrap_err(),
            ScenarioError::InvalidCheckpoints {
                reason: "checkpoints must be strictly increasing"
            }
        );
    }

    #[test]
    fn replicated_growth_aggregates() {
        let s = scenario(8, 0.5, CampaignRegime::SharedSuite, 5);
        let curve = s.growth(&[0, 4, 12], 200, 4).unwrap();
        assert_eq!(curve.checkpoints, vec![0, 4, 12]);
        assert_eq!(curve.system.len(), 3);
        assert_eq!(curve.system[0].count(), 200);
        // Untested mean version pfd ≈ E[Θ] = 0.5.
        assert!((curve.version_a[0].mean() - 0.5).abs() < 0.02);
        // Growth: means decrease along the curve.
        let means = curve.system_means();
        assert!(means[1] < means[0]);
        assert!(means[2] < means[1]);
    }

    #[test]
    fn replicated_growth_thread_invariant() {
        let s = scenario(
            5,
            0.4,
            CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(0.5)),
            9,
        );
        let a = s.growth(&[0, 2, 6], 64, 1).unwrap();
        let b = s.growth(&[0, 2, 6], 64, 4).unwrap();
        assert_eq!(a.system_means(), b.system_means());
    }

    #[test]
    fn merged_suite_singleton_system_equality() {
        // With singleton regions the system-level outcomes of arm (a) and
        // arm (b) coincide exactly: the system is repaired on x as soon as
        // either version's fault at x is removed, and the union of the two
        // independent suites equals the merged coverage.
        let s = scenario(12, 0.5, CampaignRegime::SharedSuite, 0);
        for seed in 0..100 {
            let c = s.merged_comparison(4, seed);
            assert!(
                (c.independent_system - c.merged_system).abs() < 1e-15,
                "singleton equality violated at seed {seed}"
            );
            // Individual versions are strictly helped by the longer suite
            // (weakly, per replication).
            assert!(c.merged_version <= c.independent_version + 1e-15);
        }
    }

    #[test]
    fn merged_suite_beats_independent_with_region_cascades() {
        // §3.4.1: "with the longer test not only the individual
        // reliability of the versions is going to be better but so is the
        // system reliability." The strict system-level gain requires
        // fault-region cascades, so use regions of size 2.
        use crate::scenario::SeedPolicy;
        use diversim_universe::generator::{ProfileKind, PropensityKind, RegionSize, UniverseSpec};
        use rand::rngs::StdRng as Rng2;
        use rand::SeedableRng;
        let spec = UniverseSpec {
            n_demands: 16,
            n_faults: 12,
            region_size: RegionSize::Fixed(2),
            profile: ProfileKind::Uniform,
        };
        let mut urng = Rng2::seed_from_u64(1234);
        let (universe, pop) = spec
            .generate_with_population(&mut urng, PropensityKind::Constant(0.5))
            .unwrap();
        let s = World::from_universe("cascade", &universe, pop)
            .scenario()
            .seeds(SeedPolicy::offset(0))
            .build()
            .unwrap();
        let est = s.merged_estimate(4, 600, 4);
        // Per-replication domination under perfect testing.
        for seed in 0..50 {
            let c = s.merged_comparison(4, seed);
            assert!(c.merged_system <= c.independent_system + 1e-15);
            assert!(c.merged_version <= c.independent_version + 1e-15);
        }
        assert!(
            est.merged_system.mean < est.independent_system.mean,
            "merged 2n suite should beat independent n suites on average: {} vs {}",
            est.merged_system.mean,
            est.independent_system.mean
        );
        assert!(est.merged_version.mean < est.independent_version.mean);
    }

    #[test]
    fn merged_estimate_is_thread_invariant() {
        let s = scenario(6, 0.5, CampaignRegime::SharedSuite, 17);
        assert_eq!(s.merged_estimate(3, 256, 1), s.merged_estimate(3, 256, 4));
    }
}
