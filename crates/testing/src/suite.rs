//! Test suites: ordered sequences of demands with a precomputed demand set.
//!
//! "The testing thus includes: i) a sequence of demands on which software
//! is executed (a test suite) …" (§2). The *order* matters for sequential
//! debugging with imperfect oracles/fixers; the *set* is what determines
//! the outcome of perfect testing (a fault survives iff its failure region
//! misses the suite entirely), so both views are kept.

use diversim_universe::bitset::BitSet;
use diversim_universe::demand::{DemandId, DemandSpace};

use crate::error::TestingError;

/// A test suite `t ∈ Ξ`: a sequence of demands over a demand space.
///
/// # Examples
///
/// ```
/// use diversim_testing::suite::TestSuite;
/// use diversim_universe::demand::{DemandId, DemandSpace};
///
/// let space = DemandSpace::new(5).unwrap();
/// let t = TestSuite::from_demands(space, vec![DemandId::new(1), DemandId::new(3)]).unwrap();
/// assert_eq!(t.len(), 2);
/// assert!(t.contains(DemandId::new(3)));
/// assert!(!t.contains(DemandId::new(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestSuite {
    space: DemandSpace,
    demands: Vec<DemandId>,
    demand_set: BitSet,
}

impl TestSuite {
    /// The empty suite (the paper's `∅`: no testing).
    pub fn empty(space: DemandSpace) -> Self {
        Self {
            space,
            demands: Vec::new(),
            demand_set: BitSet::new(space.len()),
        }
    }

    /// Builds a suite from an ordered sequence of demands.
    ///
    /// # Errors
    ///
    /// Returns a wrapped [`diversim_universe::UniverseError::DemandOutOfRange`]
    /// if any demand lies outside the space.
    pub fn from_demands(space: DemandSpace, demands: Vec<DemandId>) -> Result<Self, TestingError> {
        for &x in &demands {
            space.check(x)?;
        }
        let demand_set =
            BitSet::from_iter_with_capacity(space.len(), demands.iter().map(|x| x.index()));
        Ok(Self {
            space,
            demands,
            demand_set,
        })
    }

    /// The exhaustive suite: every demand of the space exactly once, in
    /// index order.
    pub fn exhaustive(space: DemandSpace) -> Self {
        let demands: Vec<DemandId> = space.iter().collect();
        let demand_set = BitSet::full(space.len());
        Self {
            space,
            demands,
            demand_set,
        }
    }

    /// The demand space the suite is defined over.
    pub fn space(&self) -> DemandSpace {
        self.space
    }

    /// Number of demands in the sequence (with repetitions).
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// Returns `true` if the suite runs no demands.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Number of *distinct* demands in the suite.
    pub fn distinct_len(&self) -> usize {
        self.demand_set.len()
    }

    /// The demand sequence, in execution order.
    pub fn demands(&self) -> &[DemandId] {
        &self.demands
    }

    /// The set of demands covered, as a bit set over demand indices.
    pub fn demand_set(&self) -> &BitSet {
        &self.demand_set
    }

    /// Returns `true` if the suite executes demand `x` at least once.
    pub fn contains(&self, x: DemandId) -> bool {
        self.demand_set.contains(x.index())
    }

    /// Concatenates two suites (the §3.4.1 *merged* suite: "running twice
    /// as long a test (merging the two generated test suites)").
    ///
    /// # Panics
    ///
    /// Panics if the suites are over different demand spaces.
    pub fn merged(&self, other: &TestSuite) -> TestSuite {
        assert_eq!(
            self.space, other.space,
            "cannot merge suites over different spaces"
        );
        let mut demands = self.demands.clone();
        demands.extend_from_slice(&other.demands);
        let mut demand_set = self.demand_set.clone();
        demand_set.union_with(&other.demand_set);
        TestSuite {
            space: self.space,
            demands,
            demand_set,
        }
    }
}

impl std::fmt::Display for TestSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "suite[n={}, distinct={}]",
            self.len(),
            self.distinct_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    fn space(n: usize) -> DemandSpace {
        DemandSpace::new(n).unwrap()
    }

    #[test]
    fn empty_suite() {
        let t = TestSuite::empty(space(4));
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.distinct_len(), 0);
        assert!(!t.contains(d(0)));
    }

    #[test]
    fn repeated_demands_counted_once_in_set() {
        let t = TestSuite::from_demands(space(4), vec![d(1), d(1), d(2)]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.distinct_len(), 2);
        assert_eq!(t.demands(), &[d(1), d(1), d(2)]);
    }

    #[test]
    fn out_of_range_demand_rejected() {
        assert!(TestSuite::from_demands(space(2), vec![d(5)]).is_err());
    }

    #[test]
    fn exhaustive_covers_everything() {
        let t = TestSuite::exhaustive(space(6));
        assert_eq!(t.len(), 6);
        assert_eq!(t.distinct_len(), 6);
        for x in space(6).iter() {
            assert!(t.contains(x));
        }
    }

    #[test]
    fn merged_concatenates_in_order() {
        let a = TestSuite::from_demands(space(5), vec![d(0), d(1)]).unwrap();
        let b = TestSuite::from_demands(space(5), vec![d(1), d(4)]).unwrap();
        let m = a.merged(&b);
        assert_eq!(m.demands(), &[d(0), d(1), d(1), d(4)]);
        assert_eq!(m.distinct_len(), 3);
        assert_eq!(m.len(), 4);
    }

    #[test]
    #[should_panic(expected = "different spaces")]
    fn merged_requires_same_space() {
        let a = TestSuite::empty(space(2));
        let b = TestSuite::empty(space(3));
        let _ = a.merged(&b);
    }

    #[test]
    fn display_shows_sizes() {
        let t = TestSuite::from_demands(space(3), vec![d(0), d(0)]).unwrap();
        assert_eq!(t.to_string(), "suite[n=2, distinct=1]");
    }
}
