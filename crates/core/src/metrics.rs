//! Diversity metrics for concrete version pairs.
//!
//! The paper works with population expectations; when *simulating*
//! campaigns it is useful to quantify the diversity of the actual pair in
//! hand. These metrics all derive from the versions' failure sets over
//! the demand space, weighted by the operational profile:
//!
//! * [`failure_correlation`] — the Q-weighted Pearson correlation of the
//!   two failure indicators (0 under independence given the marginals);
//! * [`jaccard_overlap`] — usage-weighted Jaccard index of the failure
//!   sets (1 = identical failure behaviour, 0 = disjoint);
//! * [`dependence_ratio`] — `P(both fail)/ (pfd_A·pfd_B)`, the concrete
//!   counterpart of the paper's `E[Θ²]/E[Θ]²`;
//! * [`DiversityReport`] — all of the above in one pass.

use diversim_universe::fault::FaultModel;
use diversim_universe::profile::UsageProfile;
use diversim_universe::version::Version;

/// All pairwise diversity metrics of a version pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiversityReport {
    /// pfd of the first version.
    pub pfd_a: f64,
    /// pfd of the second version.
    pub pfd_b: f64,
    /// Probability both fail on the same random demand (system pfd).
    pub joint_pfd: f64,
    /// Usage-weighted Pearson correlation of the failure indicators;
    /// `0.0` when either version never fails or always fails.
    pub correlation: f64,
    /// Usage-weighted Jaccard overlap of the failure sets; `0.0` when
    /// neither fails anywhere.
    pub jaccard: f64,
}

impl DiversityReport {
    /// Computes all metrics in one pass over the demand space.
    pub fn compute(a: &Version, b: &Version, model: &FaultModel, profile: &UsageProfile) -> Self {
        let fa = a.failure_set(model);
        let fb = b.failure_set(model);
        let mut pfd_a = 0.0;
        let mut pfd_b = 0.0;
        let mut joint = 0.0;
        let mut union = 0.0;
        for (x, q) in profile.iter() {
            let ia = fa.contains(x.index());
            let ib = fb.contains(x.index());
            if ia {
                pfd_a += q;
            }
            if ib {
                pfd_b += q;
            }
            if ia && ib {
                joint += q;
            }
            if ia || ib {
                union += q;
            }
        }
        let var_a = pfd_a * (1.0 - pfd_a);
        let var_b = pfd_b * (1.0 - pfd_b);
        let correlation = if var_a > 0.0 && var_b > 0.0 {
            (joint - pfd_a * pfd_b) / (var_a * var_b).sqrt()
        } else {
            0.0
        };
        let jaccard = if union > 0.0 { joint / union } else { 0.0 };
        DiversityReport {
            pfd_a,
            pfd_b,
            joint_pfd: joint,
            correlation,
            jaccard,
        }
    }

    /// `P(both fail) / (pfd_A·pfd_B)`: 1 under independence, > 1 for
    /// positively dependent pairs. `None` when either version is correct.
    pub fn dependence_ratio(&self) -> Option<f64> {
        let denom = self.pfd_a * self.pfd_b;
        if denom == 0.0 {
            None
        } else {
            Some(self.joint_pfd / denom)
        }
    }
}

/// Usage-weighted Pearson correlation of the failure indicators of two
/// versions (see [`DiversityReport::correlation`]).
pub fn failure_correlation(
    a: &Version,
    b: &Version,
    model: &FaultModel,
    profile: &UsageProfile,
) -> f64 {
    DiversityReport::compute(a, b, model, profile).correlation
}

/// Usage-weighted Jaccard overlap of the failure sets (see
/// [`DiversityReport::jaccard`]).
pub fn jaccard_overlap(
    a: &Version,
    b: &Version,
    model: &FaultModel,
    profile: &UsageProfile,
) -> f64 {
    DiversityReport::compute(a, b, model, profile).jaccard
}

/// `P(both fail) / (pfd_A·pfd_B)` for a concrete pair; `None` if either
/// version never fails.
pub fn dependence_ratio(
    a: &Version,
    b: &Version,
    model: &FaultModel,
    profile: &UsageProfile,
) -> Option<f64> {
    DiversityReport::compute(a, b, model, profile).dependence_ratio()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::Structure;
    use crate::system::structure_system_pfd;
    use diversim_universe::demand::DemandSpace;
    use diversim_universe::fault::{FaultId, FaultModelBuilder};

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    fn model() -> FaultModel {
        FaultModelBuilder::new(DemandSpace::new(4).unwrap())
            .singleton_faults()
            .build()
            .unwrap()
    }

    #[test]
    fn identical_versions_have_full_overlap() {
        let m = model();
        let q = UsageProfile::uniform(m.space());
        let v = Version::from_faults(&m, [f(0), f(2)]);
        let r = DiversityReport::compute(&v, &v, &m, &q);
        assert!((r.jaccard - 1.0).abs() < 1e-12);
        assert!((r.correlation - 1.0).abs() < 1e-12);
        assert!((r.joint_pfd - r.pfd_a).abs() < 1e-12);
        assert!((r.dependence_ratio().unwrap() - 1.0 / r.pfd_a).abs() < 1e-9);
    }

    #[test]
    fn disjoint_versions_have_zero_overlap_and_negative_correlation() {
        let m = model();
        let q = UsageProfile::uniform(m.space());
        let a = Version::from_faults(&m, [f(0), f(1)]);
        let b = Version::from_faults(&m, [f(2), f(3)]);
        let r = DiversityReport::compute(&a, &b, &m, &q);
        assert_eq!(r.jaccard, 0.0);
        assert_eq!(r.joint_pfd, 0.0);
        assert!(r.correlation < 0.0, "disjoint failure sets anti-correlate");
        assert_eq!(r.dependence_ratio(), Some(0.0));
    }

    #[test]
    fn correct_version_gives_neutral_metrics() {
        let m = model();
        let q = UsageProfile::uniform(m.space());
        let a = Version::correct(&m);
        let b = Version::from_faults(&m, [f(1)]);
        let r = DiversityReport::compute(&a, &b, &m, &q);
        assert_eq!(r.correlation, 0.0);
        assert_eq!(r.jaccard, 0.0);
        assert!(r.dependence_ratio().is_none());
    }

    #[test]
    fn partial_overlap_hand_computed() {
        // a fails on {0,1}, b fails on {1,2}, uniform Q over 4 demands.
        // joint = 1/4, union = 3/4 → jaccard = 1/3.
        // pfd_a = pfd_b = 1/2; corr = (1/4 − 1/4)/(1/2·1/2) = 0.
        let m = model();
        let q = UsageProfile::uniform(m.space());
        let a = Version::from_faults(&m, [f(0), f(1)]);
        let b = Version::from_faults(&m, [f(1), f(2)]);
        let r = DiversityReport::compute(&a, &b, &m, &q);
        assert!((r.jaccard - 1.0 / 3.0).abs() < 1e-12);
        assert!(r.correlation.abs() < 1e-12);
        assert!((r.dependence_ratio().unwrap() - 1.0).abs() < 1e-12);
        let pair = structure_system_pfd(&Structure::one_out_of_n(2), &[&a, &b], &m, &q).unwrap();
        assert!((r.joint_pfd - pair).abs() < 1e-15);
    }

    #[test]
    fn skewed_profile_reweights_overlap() {
        let m = model();
        let q = UsageProfile::from_weights(m.space(), vec![0.7, 0.1, 0.1, 0.1]).unwrap();
        let a = Version::from_faults(&m, [f(0), f(1)]);
        let b = Version::from_faults(&m, [f(0), f(2)]);
        let r = DiversityReport::compute(&a, &b, &m, &q);
        // Shared failure demand 0 carries 0.7 of the usage.
        assert!((r.joint_pfd - 0.7).abs() < 1e-12);
        assert!((r.jaccard - 0.7 / 0.9).abs() < 1e-12);
        // pfd_a = pfd_b = 0.8; corr = (0.7 − 0.64) / 0.16 = 0.375.
        assert!((r.correlation - 0.375).abs() < 1e-12);
    }

    #[test]
    fn free_function_wrappers_agree_with_report() {
        let m = model();
        let q = UsageProfile::uniform(m.space());
        let a = Version::from_faults(&m, [f(0), f(1)]);
        let b = Version::from_faults(&m, [f(1)]);
        let r = DiversityReport::compute(&a, &b, &m, &q);
        assert_eq!(failure_correlation(&a, &b, &m, &q), r.correlation);
        assert_eq!(jaccard_overlap(&a, &b, &m, &q), r.jaccard);
        assert_eq!(dependence_ratio(&a, &b, &m, &q), r.dependence_ratio());
    }
}
