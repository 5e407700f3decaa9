//! Fault-fixing (repair) models.
//!
//! §2: "imperfect fault fixing may only partially remove the causing fault
//! and in the worst case even introduce new faults." Following §4.1 (and
//! most reliability-growth models), fixers here never introduce new
//! faults; deliberate fault introduction is modelled separately by
//! [`diversim_universe::CommonCauseEvent::Mistake`].
//!
//! A [`Fixer`] responds to one *detected* failure on demand `x`: it
//! attempts to remove the faults of `π ∩ O_x`. The perfect fixer of §3
//! removes all of them ("the assumed perfection of fault fixing implies
//! fixing all faults that cause a failure on x").

use rand::{Rng, RngCore};

use diversim_universe::demand::DemandId;
use diversim_universe::fault::FaultModel;
use diversim_universe::version::Version;

use crate::error::TestingError;

/// Responds to a detected failure by removing faults from the version.
pub trait Fixer: std::fmt::Debug + Send + Sync {
    /// Attempts to fix the faults causing a failure of `version` on `x`
    /// (the members of `π ∩ O_x`). Returns the number of faults removed.
    fn fix(
        &self,
        rng: &mut dyn RngCore,
        model: &FaultModel,
        version: &mut Version,
        x: DemandId,
    ) -> usize;
}

/// The perfect fixer of §3: removes every fault of `π ∩ O_x`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectFixer;

impl PerfectFixer {
    /// Creates a perfect fixer.
    pub fn new() -> Self {
        PerfectFixer
    }
}

impl Fixer for PerfectFixer {
    fn fix(
        &self,
        _rng: &mut dyn RngCore,
        model: &FaultModel,
        version: &mut Version,
        x: DemandId,
    ) -> usize {
        version.remove_faults_at(model, x)
    }
}

/// The imperfect fixer of §4.1: each causing fault is removed
/// independently with probability `fix_prob`; no new faults are ever
/// introduced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImperfectFixer {
    fix_prob: f64,
}

impl ImperfectFixer {
    /// Creates a fixer with the given per-fault removal probability.
    ///
    /// # Errors
    ///
    /// Returns [`TestingError::InvalidProbability`] unless
    /// `fix_prob ∈ [0, 1]`.
    pub fn new(fix_prob: f64) -> Result<Self, TestingError> {
        if !fix_prob.is_finite() || !(0.0..=1.0).contains(&fix_prob) {
            return Err(TestingError::InvalidProbability {
                name: "fix_prob",
                value: fix_prob,
            });
        }
        Ok(Self { fix_prob })
    }

    /// The per-fault removal probability.
    pub fn fix_prob(&self) -> f64 {
        self.fix_prob
    }
}

impl Fixer for ImperfectFixer {
    fn fix(
        &self,
        rng: &mut dyn RngCore,
        model: &FaultModel,
        version: &mut Version,
        x: DemandId,
    ) -> usize {
        let candidates: Vec<_> = model
            .faults_at(x)
            .iter()
            .copied()
            .filter(|&f| version.has_fault(f))
            .collect();
        let mut removed = 0;
        for f in candidates {
            if self.fix_prob >= 1.0 || rng.gen::<f64>() < self.fix_prob {
                removed += version.remove_faults([f]);
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversim_universe::demand::DemandSpace;
    use diversim_universe::fault::{FaultId, FaultModelBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    /// 3 demands; fault 0 → {0,1}, fault 1 → {1}, fault 2 → {2}.
    fn model() -> FaultModel {
        FaultModelBuilder::new(DemandSpace::new(3).unwrap())
            .fault([d(0), d(1)])
            .fault([d(1)])
            .fault([d(2)])
            .build()
            .unwrap()
    }

    #[test]
    fn perfect_fixer_removes_all_causing_faults() {
        let m = model();
        let mut v = Version::from_faults(&m, [f(0), f(1), f(2)]);
        let mut rng = StdRng::seed_from_u64(0);
        let fixer = PerfectFixer::new();
        // Failure on demand 1 is caused by faults 0 and 1 — both removed.
        let removed = fixer.fix(&mut rng, &m, &mut v, d(1));
        assert_eq!(removed, 2);
        assert!(!v.has_fault(f(0)));
        assert!(!v.has_fault(f(1)));
        assert!(v.has_fault(f(2)), "unrelated fault untouched");
    }

    #[test]
    fn perfect_fixer_cascade_fixes_other_demands() {
        let m = model();
        let mut v = Version::from_faults(&m, [f(0)]);
        let mut rng = StdRng::seed_from_u64(1);
        // Fixing the failure at demand 1 removes fault 0, whose region also
        // contains demand 0: the D_X cascade of §3.
        PerfectFixer::new().fix(&mut rng, &m, &mut v, d(1));
        assert!(!v.fails_on(&m, d(0)));
    }

    #[test]
    fn word_and_list_paths_agree_with_the_fault_lists() {
        // Models of at most 64 faults score and fix through one word per
        // demand, larger ones through the `O_x` lists; both must match
        // the lists read fault by fault. A model with no faults has
        // versions of capacity 0, which hold no block to read.
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(64);
        let space = DemandSpace::new(40).unwrap();
        for n in [0, 1, 63, 64, 65] {
            let model = (0..n)
                .fold(FaultModelBuilder::new(space), |b, _| {
                    let size = rng.gen_range(1..=5);
                    b.fault((0..size).map(|_| d(rng.gen_range(0..40))))
                })
                .build()
                .unwrap();
            for _ in 0..50 {
                let version = Version::from_faults(
                    &model,
                    (0..n as u32).filter(|_| rng.gen::<bool>()).map(f),
                );
                for x in space.iter() {
                    let causing: Vec<FaultId> = model
                        .faults_at(x)
                        .iter()
                        .copied()
                        .filter(|&g| version.has_fault(g))
                        .collect();
                    assert_eq!(version.fails_on(&model, x), !causing.is_empty(), "{n} {x}");
                    let mut fixed = version.clone();
                    let removed = PerfectFixer::new().fix(&mut rng, &model, &mut fixed, x);
                    let kept = version.faults().filter(|g| !causing.contains(g));
                    assert_eq!(removed, causing.len(), "{n} {x}");
                    assert_eq!(fixed, Version::from_faults(&model, kept), "{n} {x}");
                }
            }
        }
    }

    #[test]
    fn imperfect_fixer_with_zero_prob_removes_nothing() {
        let m = model();
        let mut v = Version::from_faults(&m, [f(0), f(1)]);
        let mut rng = StdRng::seed_from_u64(2);
        let fixer = ImperfectFixer::new(0.0).unwrap();
        assert_eq!(fixer.fix(&mut rng, &m, &mut v, d(1)), 0);
        assert_eq!(v.fault_count(), 2);
    }

    #[test]
    fn imperfect_fixer_with_unit_prob_is_perfect() {
        let m = model();
        let fixer = ImperfectFixer::new(1.0).unwrap();
        let mut v = Version::from_faults(&m, [f(0), f(1)]);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(fixer.fix(&mut rng, &m, &mut v, d(1)), 2);
    }

    #[test]
    fn imperfect_fixer_removal_rate() {
        let m = model();
        let fixer = ImperfectFixer::new(0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 50_000;
        let mut removed = 0usize;
        for _ in 0..trials {
            let mut v = Version::from_faults(&m, [f(1)]);
            removed += fixer.fix(&mut rng, &m, &mut v, d(1));
        }
        let rate = removed as f64 / trials as f64;
        assert!((rate - 0.4).abs() < 0.01, "removal rate {rate}");
    }

    #[test]
    fn imperfect_fixer_validates_probability() {
        assert!(ImperfectFixer::new(-0.2).is_err());
        assert!(ImperfectFixer::new(1.2).is_err());
        assert!(ImperfectFixer::new(f64::NAN).is_err());
    }

    #[test]
    fn fixers_never_add_faults() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(5);
        let fixers: Vec<Box<dyn Fixer>> = vec![
            Box::new(PerfectFixer::new()),
            Box::new(ImperfectFixer::new(0.5).unwrap()),
        ];
        for fixer in &fixers {
            let mut v = Version::from_faults(&m, [f(0)]);
            let before = v.fault_count();
            for _ in 0..20 {
                fixer.fix(&mut rng, &m, &mut v, d(1));
            }
            assert!(v.fault_count() <= before);
        }
    }
}
