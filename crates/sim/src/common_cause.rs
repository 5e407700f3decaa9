//! Simulation of §5's common-cause channels: clarifications and mistakes
//! propagated to *all* development teams.
//!
//! The paper's conclusion sketches how the shared-suite formalism extends
//! to other commonalities: a clarification sent to every team acts like a
//! shared "test suite" over a sub-domain, and "giving incorrect
//! instructions to all teams" acts like a shared suite that *sets scores
//! to 1* instead of fixing them. The study here quantifies the point by
//! comparing a **common** mistake (the same fault injected into both
//! versions) against **independent** mistakes (each version gets its own
//! independently drawn fault): the version-level damage is identical by
//! construction, but the system-level damage is radically different.
//! Studies are launched through [`crate::scenario::Scenario::mistakes`]
//! and [`crate::scenario::Scenario::clarifications`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use diversim_stats::online::MeanVar;
use diversim_stats::reduce::Moments;
use diversim_universe::common_cause::CommonCauseEvent;
use diversim_universe::fault::FaultId;

use crate::scenario::Scenario;

/// How mistakes are distributed across the two versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MistakeMode {
    /// One fault set drawn and injected into *both* versions (§5's common
    /// mistake).
    Common,
    /// Each version receives its own independently drawn fault set of the
    /// same size.
    Independent,
}

/// Aggregated results of a mistake study.
#[derive(Debug, Clone, PartialEq)]
pub struct MistakeStudy {
    /// Mean version pfd after the mistakes.
    pub version_pfd: MeanVar,
    /// Mean system (1-out-of-2) pfd after the mistakes.
    pub system_pfd: MeanVar,
    /// Mean system pfd before the mistakes.
    pub system_pfd_before: MeanVar,
}

/// Draws `mistakes` distinct random faults from the model.
fn draw_faults<R: Rng + ?Sized>(rng: &mut R, fault_count: usize, mistakes: usize) -> Vec<FaultId> {
    let take = mistakes.min(fault_count);
    rand::seq::index::sample(rng, fault_count, take)
        .iter()
        .map(|i| FaultId::new(i as u32))
        .collect()
}

/// The body behind [`Scenario::mistakes`]: draw a version pair, inject
/// `mistakes` faults per the chosen [`MistakeMode`], and measure pfds.
pub(crate) fn mistake_study(
    scenario: &Scenario,
    mistakes: usize,
    mode: MistakeMode,
    replications: u64,
    threads: usize,
) -> MistakeStudy {
    let prepared = scenario.prepared();
    let reducer = (Moments, Moments, Moments);
    let (version_pfd, system_pfd, system_pfd_before) =
        scenario.reduce(replications, threads, &reducer, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let fault_count = prepared.model().fault_count();
            let mut a = scenario.component(0).sample(&mut rng);
            let mut b = scenario.component(1).sample(&mut rng);
            let before = prepared.pair_pfd(&a, &b);
            match mode {
                MistakeMode::Common => {
                    let faults = draw_faults(&mut rng, fault_count, mistakes);
                    let ev = CommonCauseEvent::Mistake { faults };
                    ev.apply(&mut a);
                    ev.apply(&mut b);
                }
                MistakeMode::Independent => {
                    let fa = draw_faults(&mut rng, fault_count, mistakes);
                    let fb = draw_faults(&mut rng, fault_count, mistakes);
                    CommonCauseEvent::Mistake { faults: fa }.apply(&mut a);
                    CommonCauseEvent::Mistake { faults: fb }.apply(&mut b);
                }
            }
            let version = 0.5 * (prepared.version_pfd(&a) + prepared.version_pfd(&b));
            let system = prepared.pair_pfd(&a, &b);
            (version, system, before)
        });
    MistakeStudy {
        version_pfd,
        system_pfd,
        system_pfd_before,
    }
}

/// Aggregated results of a clarification study: faults removed from both
/// versions simultaneously.
#[derive(Debug, Clone, PartialEq)]
pub struct ClarificationStudy {
    /// Mean version pfd after the clarifications.
    pub version_pfd: MeanVar,
    /// Mean system pfd after the clarifications.
    pub system_pfd: MeanVar,
    /// Mean usage-weighted Jaccard overlap of the failure sets after the
    /// clarifications (diversity indicator; higher = more alike).
    pub jaccard: MeanVar,
}

/// The body behind [`Scenario::clarifications`]: `clarified` random
/// faults are resolved for *both* versions (the §5 common clarification).
pub(crate) fn clarification_study(
    scenario: &Scenario,
    clarified: usize,
    replications: u64,
    threads: usize,
) -> ClarificationStudy {
    let prepared = scenario.prepared();
    let reducer = (Moments, Moments, Moments);
    let (version_pfd, system_pfd, jaccard) =
        scenario.reduce(replications, threads, &reducer, |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = prepared.model();
            let mut a = scenario.component(0).sample(&mut rng);
            let mut b = scenario.component(1).sample(&mut rng);
            let faults = draw_faults(&mut rng, model.fault_count(), clarified);
            let ev = CommonCauseEvent::Clarification { faults };
            ev.apply(&mut a);
            ev.apply(&mut b);
            let report =
                diversim_core::metrics::DiversityReport::compute(&a, &b, model, prepared.profile());
            (
                0.5 * (report.pfd_a + report.pfd_b),
                report.joint_pfd,
                report.jaccard,
            )
        });
    ClarificationStudy {
        version_pfd,
        system_pfd,
        jaccard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn scenario(n: usize, p: f64, seed: u64) -> Scenario {
        World::singleton_uniform("cc-test", vec![p; n])
            .unwrap()
            .scenario()
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn common_mistakes_hurt_the_system_more_than_independent_ones() {
        let s = scenario(20, 0.1, 5);
        let common = s.mistakes(3, MistakeMode::Common, 2_000, 4);
        let independent = s.mistakes(3, MistakeMode::Independent, 2_000, 4);
        // Version-level damage is statistically identical…
        let dv = (common.version_pfd.mean() - independent.version_pfd.mean()).abs();
        assert!(
            dv < 4.0
                * (common.version_pfd.standard_error() + independent.version_pfd.standard_error()),
            "version damage should not depend on the mode"
        );
        // …but the system damage is much worse under common mistakes.
        assert!(
            common.system_pfd.mean() > 2.0 * independent.system_pfd.mean(),
            "common {} vs independent {}",
            common.system_pfd.mean(),
            independent.system_pfd.mean()
        );
    }

    #[test]
    fn zero_mistakes_change_nothing() {
        let s = scenario(10, 0.3, 1);
        let study = s.mistakes(0, MistakeMode::Common, 500, 2);
        assert!((study.system_pfd.mean() - study.system_pfd_before.mean()).abs() < 1e-12);
    }

    #[test]
    fn common_mistake_guarantees_coincident_failure() {
        // With one common mistake on a singleton model, both versions fail
        // on the affected demand: system pfd ≥ 1/n always.
        let s = scenario(10, 0.0, 2);
        let study = s.mistakes(1, MistakeMode::Common, 300, 2);
        assert!((study.system_pfd.mean() - 0.1).abs() < 1e-12);
        // Independent mistakes on a fault-free population collide only
        // 1/n of the time.
        let ind = s
            .with_seed(3)
            .mistakes(1, MistakeMode::Independent, 3_000, 2);
        assert!((ind.system_pfd.mean() - 0.01).abs() < 0.01);
    }

    #[test]
    fn clarifications_help_both_levels_but_raise_overlap() {
        let s = scenario(12, 0.5, 7);
        let none = s.clarifications(0, 2_000, 4);
        let many = s.clarifications(8, 2_000, 4);
        assert!(many.version_pfd.mean() < none.version_pfd.mean());
        assert!(many.system_pfd.mean() < none.system_pfd.mean());
        // Remaining failures concentrate on the unclarified faults, so the
        // failure sets of the two versions overlap relatively more…
        // (both shrink, but the *relative* overlap among surviving
        // failures doesn't collapse to zero).
        assert!(many.jaccard.mean() >= 0.0);
    }

    #[test]
    fn studies_are_thread_invariant() {
        let s = scenario(10, 0.2, 9);
        let a = s.mistakes(2, MistakeMode::Common, 256, 1);
        let b = s.mistakes(2, MistakeMode::Common, 256, 4);
        assert_eq!(a, b);
        let c = s.clarifications(2, 256, 1);
        let d = s.clarifications(2, 256, 4);
        assert_eq!(c, d);
    }

    #[test]
    fn mistake_count_caps_at_fault_count() {
        let s = scenario(4, 0.0, 11);
        // Asking for more mistakes than faults must not panic.
        let study = s.mistakes(100, MistakeMode::Common, 50, 2);
        // All faults injected into both versions → both fail everywhere.
        assert!((study.system_pfd.mean() - 1.0).abs() < 1e-12);
    }
}
