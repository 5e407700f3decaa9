//! Adaptive test-budget allocation policies.
//!
//! The paper's regimes spend a *fixed* test budget per version; this
//! module treats "which version gets the next test" as a controlled
//! stochastic process (in the spirit of robust dynamic selection of
//! tested modules). A [`PolicySpec`] decides, demand by demand, which
//! version(s) of the pair receive the next test under a shared execution
//! budget, observing only the campaign's [`AllocationProfile`] so far:
//! decisions made, executions spent, and each version's tests and
//! detected failures. A policy is therefore a function of the plain
//! state `(t_A, f_A, t_B, f_B)` plus the step (and, for ε-greedy, one
//! coin), so a decision can be replayed from any recorded profile.
//!
//! Campaigns run under [`crate::campaign::CampaignRegime::Adaptive`]:
//! the scenario's `suite_size` is reinterpreted as the *total execution
//! budget* `B`. The campaign draws its pair and dispatches on the regime
//! in `campaign::debug_in_regime`, like every other campaign; this
//! module holds only the budget loop (`allocate`). Each decision
//! allocates the next test demand (drawn i.i.d. from the scenario's
//! operational profile, as in [`crate::adaptive`]), and each execution
//! is one [`debug_step`]:
//!
//! * [`Allocation::VersionA`] / [`Allocation::VersionB`] — one private
//!   execution (costs 1);
//! * [`Allocation::Both`] — one *shared* demand executed on both
//!   versions (costs 2). Shared demands re-introduce exactly the
//!   shared-suite coupling of eqs (20)–(23): both versions are debugged
//!   on the same realised demand.
//!
//! A static regime with suite size `n` spends `2n` executions, so the
//! fair comparison pits `Adaptive` at budget `2n` against the paper's
//! regimes at suite size `n` (experiments e17/e18).
//!
//! # Determinism contract
//!
//! An adaptive campaign is a pure function of its seed: the rng is
//! consumed in a fixed order per decision — policy draw (if any), demand
//! draw, version-A execution, version-B execution — so traces and
//! outcomes are byte-identical across processes and thread counts.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use diversim_stats::online::MeanVar;
use diversim_stats::reduce::Moments;
use diversim_testing::process::debug_step;
use diversim_universe::version::Version;

use crate::scenario::{Scenario, ScenarioError};

/// An allocation policy: a declarative, serialisable value — carried by
/// [`CampaignRegime::Adaptive`](crate::campaign::CampaignRegime::Adaptive),
/// hashed into sweep cell keys and sent over the serve wire — that
/// [decides](PolicySpec::decide) each allocation from the campaign's
/// [`AllocationProfile`] alone, which keeps traces replayable from the
/// profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Alternate versions by step parity: A, B, A, B, … — a pure
    /// function of the step index, blind to every observation.
    RoundRobin,
    /// Allocate to the version with strictly more observed (detected)
    /// failures; on ties, test both on one shared demand.
    GreedyOnFailures,
    /// With probability `epsilon` explore by testing both versions on
    /// one shared demand; otherwise exploit greedily (parity tie-break).
    EpsilonGreedy {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
    /// Upper-confidence-bound index policy: allocate to the version
    /// maximising `failure_rate + c·sqrt(ln(spent + 1) / (tests + 1))`
    /// (parity tie-break; never shares demands).
    UcbIndex {
        /// Exploration constant, finite and `>= 0`.
        c: f64,
    },
}

impl PolicySpec {
    /// Validates the spec's parameters.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidPolicy`] if `epsilon` is outside `[0, 1]`
    /// or `c` is negative or non-finite.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match *self {
            PolicySpec::RoundRobin | PolicySpec::GreedyOnFailures => Ok(()),
            PolicySpec::EpsilonGreedy { epsilon } => {
                if !epsilon.is_finite() || !(0.0..=1.0).contains(&epsilon) {
                    return Err(ScenarioError::InvalidPolicy {
                        what: "epsilon",
                        value: epsilon,
                    });
                }
                Ok(())
            }
            PolicySpec::UcbIndex { c } => {
                if !c.is_finite() || c < 0.0 {
                    return Err(ScenarioError::InvalidPolicy {
                        what: "c",
                        value: c,
                    });
                }
                Ok(())
            }
        }
    }

    /// Chooses the next allocation from what the campaign has `seen` so
    /// far. Called once per decision while budget remains; `rng` is the
    /// campaign rng, drawn from *before* the demand draw (see the module
    /// docs' determinism contract) and only by
    /// [`PolicySpec::EpsilonGreedy`], once per decision.
    pub fn decide(&self, seen: &AllocationProfile, rng: &mut dyn RngCore) -> Allocation {
        match *self {
            PolicySpec::RoundRobin => parity_pick(seen.decisions()),
            PolicySpec::GreedyOnFailures => greedy_pick(seen).unwrap_or(Allocation::Both),
            PolicySpec::EpsilonGreedy { epsilon } => {
                if rng.gen::<f64>() < epsilon {
                    return Allocation::Both;
                }
                greedy_pick(seen).unwrap_or_else(|| parity_pick(seen.decisions()))
            }
            PolicySpec::UcbIndex { c } => {
                let log_spent = ((seen.executions() + 1) as f64).ln();
                let index = |tests: u64, failures: u64| {
                    let rate = failures as f64 / tests.max(1) as f64;
                    rate + c * (log_spent / (tests + 1) as f64).sqrt()
                };
                let a = index(seen.tests_a(), seen.failures_a);
                let b = index(seen.tests_b(), seen.failures_b);
                if a > b {
                    Allocation::VersionA
                } else if b > a {
                    Allocation::VersionB
                } else {
                    parity_pick(seen.decisions())
                }
            }
        }
    }
}

impl std::fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicySpec::RoundRobin => write!(f, "round_robin"),
            PolicySpec::GreedyOnFailures => write!(f, "greedy"),
            PolicySpec::EpsilonGreedy { epsilon } => write!(f, "epsilon_greedy({epsilon})"),
            PolicySpec::UcbIndex { c } => write!(f, "ucb({c})"),
        }
    }
}

/// Which version(s) receive the next test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// One private execution of version A (costs 1).
    VersionA,
    /// One private execution of version B (costs 1).
    VersionB,
    /// One shared demand executed on both versions (costs 2).
    Both,
}

/// The version with strictly more observed (detected) failures, or
/// `None` on a tie.
fn greedy_pick(seen: &AllocationProfile) -> Option<Allocation> {
    match seen.failures_a.cmp(&seen.failures_b) {
        std::cmp::Ordering::Greater => Some(Allocation::VersionA),
        std::cmp::Ordering::Less => Some(Allocation::VersionB),
        std::cmp::Ordering::Equal => None,
    }
}

/// The deterministic single-version fallback: even steps pick A, odd
/// steps pick B (also used to coerce a [`Allocation::Both`] decision
/// when only one execution remains in the budget).
fn parity_pick(step: u64) -> Allocation {
    if step.is_multiple_of(2) {
        Allocation::VersionA
    } else {
        Allocation::VersionB
    }
}

/// One decision of a policy trace, with the oracle verdicts it produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyStep {
    /// The (budget-coerced) allocation that was executed.
    pub allocation: Allocation,
    /// Whether a failure of version A was detected on this step
    /// (`false` when A was not executed).
    pub detected_a: bool,
    /// Whether a failure of version B was detected on this step.
    pub detected_b: bool,
}

/// The allocation record of one adaptive campaign: what
/// [`PolicySpec::decide`] reads before each decision, and the realised
/// profile once the budget is spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocationProfile {
    /// Private executions of version A.
    pub only_a: u64,
    /// Private executions of version B.
    pub only_b: u64,
    /// Shared demands executed on both versions (each costs 2).
    pub shared: u64,
    /// Detected failures of version A.
    pub failures_a: u64,
    /// Detected failures of version B.
    pub failures_b: u64,
}

impl AllocationProfile {
    /// Decisions made: `only_a + only_b + shared` (a shared demand is one
    /// decision).
    pub fn decisions(&self) -> u64 {
        self.only_a + self.only_b + self.shared
    }

    /// Tests executed on version A: `only_a + shared`.
    pub fn tests_a(&self) -> u64 {
        self.only_a + self.shared
    }

    /// Tests executed on version B: `only_b + shared`.
    pub fn tests_b(&self) -> u64 {
        self.only_b + self.shared
    }

    /// Folds one decision into the record.
    fn record(&mut self, step: PolicyStep) {
        match step.allocation {
            Allocation::VersionA => self.only_a += 1,
            Allocation::VersionB => self.only_b += 1,
            Allocation::Both => self.shared += 1,
        }
        self.failures_a += u64::from(step.detected_a);
        self.failures_b += u64::from(step.detected_b);
    }

    /// Executions consumed: `only_a + only_b + 2·shared`. Budget
    /// conservation demands this equals the campaign budget exactly.
    pub fn executions(&self) -> u64 {
        self.only_a + self.only_b + 2 * self.shared
    }

    /// Fraction of the budget spent on shared demands
    /// (`2·shared / budget`; `0` for an empty budget) — the coupling
    /// dial of eqs (20)–(23).
    pub fn shared_fraction(&self) -> f64 {
        let total = self.executions();
        if total == 0 {
            0.0
        } else {
            (2 * self.shared) as f64 / total as f64
        }
    }
}

/// The full decision record of one adaptive campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyTrace {
    /// Every decision in execution order.
    pub steps: Vec<PolicyStep>,
    /// The aggregated allocation profile.
    pub profile: AllocationProfile,
}

/// The budget loop of an adaptive campaign (the
/// [`CampaignRegime::Adaptive`](crate::campaign::CampaignRegime::Adaptive)
/// arm of [`crate::campaign::debug_in_regime`]): the policy spends the
/// scenario's execution budget on the freshly drawn pair demand by
/// demand, each execution one [`debug_step`]. Each decision is appended
/// to `steps` when given; only [`Scenario::policy_trace`] asks for them,
/// so replicated campaigns record nothing.
pub(crate) fn allocate(
    scenario: &Scenario,
    spec: PolicySpec,
    first: &mut Version,
    second: &mut Version,
    rng: &mut StdRng,
    mut steps: Option<&mut Vec<PolicyStep>>,
) -> AllocationProfile {
    let model = scenario.model();
    let operational = scenario.profile();
    let debug = |version: &mut Version, x, rng: &mut StdRng| {
        debug_step(version, x, model, scenario.oracle(), scenario.fixer(), rng)
    };
    let budget = scenario.suite_size() as u64;
    let mut profile = AllocationProfile::default();
    while profile.executions() < budget {
        let mut allocation = spec.decide(&profile, rng);
        if allocation == Allocation::Both && budget - profile.executions() < 2 {
            // Budget coercion: a shared demand no longer fits; fall back
            // to the parity pick so conservation holds exactly.
            allocation = parity_pick(profile.decisions());
        }
        let x = operational.sample(rng);
        let (detected_a, detected_b) = match allocation {
            Allocation::VersionA => (debug(first, x, rng), false),
            Allocation::VersionB => (false, debug(second, x, rng)),
            Allocation::Both => {
                let detected_a = debug(first, x, rng);
                (detected_a, debug(second, x, rng))
            }
        };
        let step = PolicyStep {
            allocation,
            detected_a,
            detected_b,
        };
        profile.record(step);
        if let Some(steps) = steps.as_deref_mut() {
            steps.push(step);
        }
    }
    profile
}

/// Aggregate allocation behaviour of a replicated adaptive study.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyStudy {
    /// Mean/variance of the per-campaign shared budget fraction.
    pub shared_fraction: MeanVar,
    /// Mean/variance of private version-A executions.
    pub only_a: MeanVar,
    /// Mean/variance of private version-B executions.
    pub only_b: MeanVar,
    /// Mean/variance of shared demands.
    pub shared: MeanVar,
}

/// The body behind [`Scenario::policy_study`]: replicated adaptive
/// campaigns reduced to allocation statistics. Deterministic for any
/// thread count.
pub(crate) fn policy_study(scenario: &Scenario, replications: u64, threads: usize) -> PolicyStudy {
    let reducer = (Moments, Moments, Moments, Moments);
    let (shared_fraction, only_a, only_b, shared) =
        scenario.reduce(replications, threads, &reducer, |seed| {
            let (p, _) = crate::campaign::allocation_profile(scenario, seed, None);
            (
                p.shared_fraction(),
                p.only_a as f64,
                p.only_b as f64,
                p.shared as f64,
            )
        });
    PolicyStudy {
        shared_fraction,
        only_a,
        only_b,
        shared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{allocation_profile, CampaignRegime};
    use crate::world::World;
    use rand::SeedableRng;

    fn scenario(props: Vec<f64>, budget: usize, spec: PolicySpec) -> Scenario {
        World::singleton_uniform("policy-test", props)
            .unwrap()
            .scenario()
            .suite_size(budget)
            .regime(CampaignRegime::Adaptive(spec))
            .build()
            .unwrap()
    }

    const ALL_SPECS: [PolicySpec; 4] = [
        PolicySpec::RoundRobin,
        PolicySpec::GreedyOnFailures,
        PolicySpec::EpsilonGreedy { epsilon: 0.2 },
        PolicySpec::UcbIndex { c: 0.5 },
    ];

    #[test]
    fn budget_is_conserved_exactly() {
        for spec in ALL_SPECS {
            for budget in [0usize, 1, 2, 7, 16] {
                let s = scenario(vec![0.4; 5], budget, spec);
                let trace = s.policy_trace(11).unwrap();
                assert_eq!(
                    trace.profile.executions(),
                    budget as u64,
                    "budget leaked for {spec} at {budget}"
                );
            }
        }
    }

    #[test]
    fn trace_free_campaigns_match_traced_ones() {
        for spec in ALL_SPECS {
            for budget in 0..=33 {
                let s = scenario(vec![0.4, 0.6, 0.3, 0.5, 0.2], budget, spec);
                for seed in 0..3 {
                    let (free, free_pair) = allocation_profile(&s, seed, None);
                    let mut steps = Vec::new();
                    let (profile, pair) = allocation_profile(&s, seed, Some(&mut steps));
                    assert_eq!(free, profile, "{spec} at budget {budget}, seed {seed}");
                    assert_eq!(free_pair, pair, "{spec} at budget {budget}, seed {seed}");
                    // The profile describes the campaign `run` executes.
                    let run = s.run(seed);
                    assert_eq!(pair, [run.first, run.second]);
                    // The trace holds every decision, and the decisions
                    // add up to the profile.
                    let trace = s.policy_trace(seed).unwrap();
                    assert_eq!(trace.steps, steps);
                    assert_eq!(trace.profile, profile);
                    let count =
                        |a: Allocation| steps.iter().filter(|st| st.allocation == a).count();
                    assert_eq!(count(Allocation::VersionA) as u64, profile.only_a);
                    assert_eq!(count(Allocation::VersionB) as u64, profile.only_b);
                    assert_eq!(count(Allocation::Both) as u64, profile.shared);
                    let detected_a = steps.iter().filter(|st| st.detected_a).count();
                    let detected_b = steps.iter().filter(|st| st.detected_b).count();
                    assert_eq!(detected_a as u64, profile.failures_a);
                    assert_eq!(detected_b as u64, profile.failures_b);
                    assert_eq!(profile.executions(), budget as u64);
                }
            }
        }
    }

    #[test]
    fn decide_on_the_folded_profile_replays_every_step() {
        // Round-robin, greedy and UCB draw no rng, so step i of a trace is
        // `decide` on the profile of steps 0..i, after the budget coercion.
        let mut unused = StdRng::seed_from_u64(0);
        for spec in [
            PolicySpec::RoundRobin,
            PolicySpec::GreedyOnFailures,
            PolicySpec::UcbIndex { c: 0.5 },
        ] {
            for budget in [0u64, 1, 2, 7, 16, 33] {
                let s = scenario(vec![0.4, 0.6, 0.3, 0.5, 0.2], budget as usize, spec);
                for seed in 0..5 {
                    let trace = s.policy_trace(seed).unwrap();
                    let mut seen = AllocationProfile::default();
                    for (i, step) in trace.steps.iter().enumerate() {
                        let mut expected = spec.decide(&seen, &mut unused);
                        if expected == Allocation::Both && budget - seen.executions() < 2 {
                            expected = parity_pick(seen.decisions());
                        }
                        assert_eq!(
                            step.allocation, expected,
                            "{spec} at budget {budget}, seed {seed}, step {i}"
                        );
                        seen.record(*step);
                    }
                    assert_eq!(seen, trace.profile);
                }
            }
        }
    }

    #[test]
    fn round_robin_is_a_pure_function_of_the_step() {
        let s = scenario(vec![0.6; 4], 9, PolicySpec::RoundRobin);
        let trace = s.policy_trace(3).unwrap();
        for (i, step) in trace.steps.iter().enumerate() {
            let expected = if i % 2 == 0 {
                Allocation::VersionA
            } else {
                Allocation::VersionB
            };
            assert_eq!(step.allocation, expected);
        }
        assert_eq!(trace.profile.shared, 0);
    }

    #[test]
    fn adaptive_campaign_is_seed_deterministic() {
        for spec in ALL_SPECS {
            let s = scenario(vec![0.3, 0.6, 0.2], 12, spec);
            assert_eq!(s.run(42), s.run(42), "{spec}");
            assert_eq!(s.policy_trace(42), s.policy_trace(42), "{spec}");
        }
    }

    #[test]
    fn zero_budget_changes_nothing() {
        let s = scenario(vec![0.7, 0.7], 0, PolicySpec::GreedyOnFailures);
        let out = s.run(5);
        assert_eq!(out.first_pfd, out.first_pfd_before);
        assert_eq!(out.system_pfd, out.system_pfd_before);
        assert!(s.policy_trace(5).unwrap().steps.is_empty());
    }

    #[test]
    fn debugging_never_hurts_under_perfect_testing() {
        for spec in ALL_SPECS {
            let s = scenario(vec![0.5; 4], 10, spec);
            for seed in 0..30 {
                let out = s.run(seed);
                assert!(out.first_pfd <= out.first_pfd_before + 1e-15);
                assert!(out.second_pfd <= out.second_pfd_before + 1e-15);
                assert!(out.system_pfd <= out.system_pfd_before + 1e-15);
            }
        }
    }

    #[test]
    fn policy_study_is_thread_invariant() {
        for spec in ALL_SPECS {
            let s = scenario(vec![0.4; 6], 8, spec);
            let a = s.policy_study(128, 1).unwrap();
            let b = s.policy_study(128, 8).unwrap();
            assert_eq!(a, b, "{spec}");
        }
    }

    #[test]
    fn round_robin_never_shares_and_greedy_shares_more_than_epsilon() {
        let rr = scenario(vec![0.5; 5], 16, PolicySpec::RoundRobin)
            .policy_study(200, 2)
            .unwrap();
        assert_eq!(rr.shared_fraction.mean(), 0.0);
        let greedy = scenario(vec![0.5; 5], 16, PolicySpec::GreedyOnFailures)
            .policy_study(200, 2)
            .unwrap();
        let eps = scenario(vec![0.5; 5], 16, PolicySpec::EpsilonGreedy { epsilon: 0.1 })
            .policy_study(200, 2)
            .unwrap();
        assert!(
            greedy.shared_fraction.mean() > eps.shared_fraction.mean(),
            "greedy {} <= epsilon {}",
            greedy.shared_fraction.mean(),
            eps.shared_fraction.mean()
        );
    }

    #[test]
    fn spec_validation_catches_bad_parameters() {
        assert!(PolicySpec::RoundRobin.validate().is_ok());
        assert!(PolicySpec::GreedyOnFailures.validate().is_ok());
        assert!(PolicySpec::EpsilonGreedy { epsilon: 0.0 }
            .validate()
            .is_ok());
        assert!(PolicySpec::EpsilonGreedy { epsilon: 1.0 }
            .validate()
            .is_ok());
        assert!(PolicySpec::EpsilonGreedy { epsilon: 1.5 }
            .validate()
            .is_err());
        assert!(PolicySpec::EpsilonGreedy { epsilon: f64::NAN }
            .validate()
            .is_err());
        assert!(PolicySpec::UcbIndex { c: 0.0 }.validate().is_ok());
        assert!(PolicySpec::UcbIndex { c: -0.1 }.validate().is_err());
        assert!(PolicySpec::UcbIndex { c: f64::INFINITY }
            .validate()
            .is_err());
    }

    #[test]
    fn non_adaptive_scenarios_reject_policy_studies() {
        let s = World::singleton_uniform("static", vec![0.4, 0.5])
            .unwrap()
            .scenario()
            .suite_size(4)
            .build()
            .unwrap();
        assert_eq!(s.policy_trace(0).unwrap_err(), ScenarioError::NotAdaptive);
        assert_eq!(
            s.policy_study(10, 1).unwrap_err(),
            ScenarioError::NotAdaptive
        );
    }

    #[test]
    fn display_is_stable_for_cell_keys() {
        assert_eq!(PolicySpec::RoundRobin.to_string(), "round_robin");
        assert_eq!(PolicySpec::GreedyOnFailures.to_string(), "greedy");
        assert_eq!(
            PolicySpec::EpsilonGreedy { epsilon: 0.1 }.to_string(),
            "epsilon_greedy(0.1)"
        );
        assert_eq!(PolicySpec::UcbIndex { c: 0.5 }.to_string(), "ucb(0.5)");
    }
}
