//! Program versions and their score functions.
//!
//! A version `π ∈ ℘` is characterised entirely by the set of potential
//! faults it contains. The paper's score function `υ(π, x)` — 1 if `π`
//! fails on `x`, 0 otherwise — is then: `π` fails on `x` iff it contains
//! at least one fault of `O_x`.

use crate::bitset::BitSet;
use crate::demand::DemandId;
use crate::fault::{FaultId, FaultModel};
use crate::profile::UsageProfile;

/// A program version: the set of faults it contains.
///
/// Versions are value types; every operation that needs region/structure
/// information takes the [`FaultModel`] explicitly, so versions from the
/// same model stay cheap to clone and compare.
///
/// # Examples
///
/// ```
/// use diversim_universe::demand::{DemandId, DemandSpace};
/// use diversim_universe::fault::{FaultId, FaultModelBuilder};
/// use diversim_universe::version::Version;
///
/// let space = DemandSpace::new(2).unwrap();
/// let model = FaultModelBuilder::new(space)
///     .fault([DemandId::new(0)])
///     .build()
///     .unwrap();
/// let v = Version::from_faults(&model, [FaultId::new(0)]);
/// assert!(v.fails_on(&model, DemandId::new(0)));
/// assert!(!v.fails_on(&model, DemandId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Version {
    faults: BitSet,
}

impl Version {
    /// The correct program: no faults.
    pub fn correct(model: &FaultModel) -> Self {
        Version {
            faults: BitSet::new(model.fault_count()),
        }
    }

    /// A version containing exactly the given faults.
    ///
    /// # Panics
    ///
    /// Panics if a fault identifier is out of range for the model.
    pub fn from_faults<I: IntoIterator<Item = FaultId>>(model: &FaultModel, faults: I) -> Self {
        let set = BitSet::from_iter_with_capacity(
            model.fault_count(),
            faults.into_iter().map(|f| f.index()),
        );
        Version { faults: set }
    }

    /// A version built directly from a fault bit set.
    ///
    /// # Panics
    ///
    /// Panics if the set's capacity differs from the model's fault count.
    pub fn from_fault_set(model: &FaultModel, faults: BitSet) -> Self {
        assert_eq!(
            faults.capacity(),
            model.fault_count(),
            "fault set capacity must equal the model's fault count"
        );
        Version { faults }
    }

    /// Returns `true` if the version contains fault `f`.
    pub fn has_fault(&self, f: FaultId) -> bool {
        self.faults.contains(f.index())
    }

    /// Number of faults in the version.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if the version has no faults (is correct).
    pub fn is_correct(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates the version's faults in ascending id order.
    pub fn faults(&self) -> impl Iterator<Item = FaultId> + '_ {
        self.faults.iter().map(|i| FaultId::new(i as u32))
    }

    /// The underlying fault bit set.
    pub fn fault_set(&self) -> &BitSet {
        &self.faults
    }

    /// The paper's score function `υ(π, x)`: `true` iff the version fails
    /// on demand `x`, i.e. contains at least one fault of `O_x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the model's demand space.
    #[inline]
    pub fn fails_on(&self, model: &FaultModel, x: DemandId) -> bool {
        match model.fault_word(x) {
            Some(word) => self.faults.first_block() & word != 0,
            None => {
                let faults = model.faults_at(x);
                !faults.is_empty() && self.faults.contains_any(faults.iter().map(|f| f.index()))
            }
        }
    }

    /// Perfect fixing of a failure on `x` (§3): removes every fault of
    /// `π ∩ O_x`. Returns how many were removed.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the model's demand space.
    pub fn remove_faults_at(&mut self, model: &FaultModel, x: DemandId) -> usize {
        match model.fault_word(x) {
            Some(word) => {
                let block = self.faults.first_block_mut();
                let removed = *block & word;
                *block &= !word;
                removed.count_ones() as usize
            }
            None => self.remove_faults(model.faults_at(x).iter().copied()),
        }
    }

    /// Numeric form of the score function: `1.0` on failure, `0.0`
    /// otherwise.
    pub fn score(&self, model: &FaultModel, x: DemandId) -> f64 {
        if self.fails_on(model, x) {
            1.0
        } else {
            0.0
        }
    }

    /// The set of demands the version fails on (the union of its faults'
    /// failure regions) as a bit set over demand indices.
    pub fn failure_set(&self, model: &FaultModel) -> BitSet {
        let mut out = BitSet::new(model.space().len());
        for f in self.faults() {
            model.region_set(f).union_into(&mut out);
        }
        out
    }

    /// The version's probability of failure on demand (pfd):
    /// `Σ_x υ(π, x) Q(x)` — the paper's `η(π, ∅)` before testing,
    /// accumulated in ascending demand order from `+0.0`, as the kernel's
    /// masses are (so a correct version's pfd is `+0.0`).
    pub fn pfd(&self, model: &FaultModel, profile: &UsageProfile) -> f64 {
        self.failure_set(model).iter().fold(0.0, |acc, i| {
            acc + profile.probability(DemandId::new(i as u32))
        })
    }

    /// Removes the given faults (perfect fixing of those faults); faults
    /// not present are ignored. Returns how many were actually removed.
    pub fn remove_faults<I: IntoIterator<Item = FaultId>>(&mut self, faults: I) -> usize {
        self.faults
            .remove_all(faults.into_iter().map(FaultId::index))
    }

    /// Adds the given faults (used by the §5 *common mistake* extension).
    /// Returns how many were newly added.
    pub fn add_faults<I: IntoIterator<Item = FaultId>>(&mut self, faults: I) -> usize {
        let mut added = 0;
        for f in faults {
            if self.faults.insert(f.index()) {
                added += 1;
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandSpace;
    use crate::fault::{Fault, FaultModelBuilder};

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    /// 4 demands; fault 0 covers {0,1}, fault 1 covers {1,2}, fault 2
    /// covers {3}.
    fn model() -> FaultModel {
        FaultModelBuilder::new(DemandSpace::new(4).unwrap())
            .fault([d(0), d(1)])
            .fault([d(1), d(2)])
            .fault([d(3)])
            .build()
            .unwrap()
    }

    #[test]
    fn correct_version_never_fails() {
        let m = model();
        let v = Version::correct(&m);
        assert!(v.is_correct());
        assert_eq!(v.fault_count(), 0);
        for x in m.space().iter() {
            assert!(!v.fails_on(&m, x));
            assert_eq!(v.score(&m, x), 0.0);
        }
    }

    #[test]
    fn score_reflects_fault_regions() {
        let m = model();
        let v = Version::from_faults(&m, [f(0)]);
        assert!(v.fails_on(&m, d(0)));
        assert!(v.fails_on(&m, d(1)));
        assert!(!v.fails_on(&m, d(2)));
        assert!(!v.fails_on(&m, d(3)));
    }

    #[test]
    fn overlapping_faults_both_cover_shared_demand() {
        let m = model();
        let v = Version::from_faults(&m, [f(0), f(1)]);
        // Demand 1 is covered by both faults; failure either way.
        assert!(v.fails_on(&m, d(1)));
        let fs = v.failure_set(&m);
        assert_eq!(fs.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn pfd_is_usage_mass_of_failure_set() {
        let m = model();
        let q = UsageProfile::from_weights(m.space(), vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let v = Version::from_faults(&m, [f(1), f(2)]);
        // Fails on demands 1, 2, 3 → pfd = 0.2 + 0.3 + 0.4.
        assert!((v.pfd(&m, &q) - 0.9).abs() < 1e-12);
        // An empty sum is +0.0, the kernel's value, not -0.0.
        assert_eq!(Version::correct(&m).pfd(&m, &q).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn remove_faults_fixes_demands() {
        let m = model();
        let mut v = Version::from_faults(&m, [f(0), f(2)]);
        assert_eq!(v.remove_faults([f(0), f(1)]), 1, "only fault 0 was present");
        assert!(!v.fails_on(&m, d(0)));
        assert!(v.fails_on(&m, d(3)), "fault 2 untouched");
    }

    #[test]
    fn add_faults_for_common_mistake_extension() {
        let m = model();
        let mut v = Version::correct(&m);
        assert_eq!(v.add_faults([f(1)]), 1);
        assert_eq!(v.add_faults([f(1)]), 0, "already present");
        assert!(v.fails_on(&m, d(2)));
    }

    #[test]
    fn faults_iterator_ascending() {
        let m = model();
        let v = Version::from_faults(&m, [f(2), f(0)]);
        let ids: Vec<u32> = v.faults().map(FaultId::raw).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn singleton_model_matches_pure_score_semantics() {
        // One singleton fault per demand: failure sets = fault sets.
        let space = DemandSpace::new(3).unwrap();
        let m = FaultModel::new(
            space,
            vec![Fault::new([d(0)]), Fault::new([d(1)]), Fault::new([d(2)])],
        )
        .unwrap();
        let v = Version::from_faults(&m, [f(0), f(2)]);
        assert!(v.fails_on(&m, d(0)));
        assert!(!v.fails_on(&m, d(1)));
        assert!(v.fails_on(&m, d(2)));
    }

    #[test]
    #[should_panic(expected = "fault set capacity")]
    fn from_fault_set_validates_capacity() {
        let m = model();
        let _ = Version::from_fault_set(&m, BitSet::new(99));
    }
}
