//! Faults and failure regions.
//!
//! Section 3 of the paper: "Within this space a set of points (failure
//! regions) will be associated with a fault: typically there will be many
//! demands that would trigger a particular fault". A [`FaultModel`] holds
//! every *potential* fault that any version in the population might
//! contain, each with its failure region; the inverted index gives the
//! paper's `O_x` — the set of faults that cause a failure on demand `x`.
//!
//! With every region of size one, the model degenerates to the paper's
//! abstract per-demand score model (no cross-demand fixing cascades);
//! larger regions produce exactly the `O_x`/`D_X` cascade discussed in §3.

use crate::bitset::BitSet;
use crate::demand::{DemandId, DemandSpace};
use crate::error::UniverseError;

/// Identifier of a potential fault: an index into a [`FaultModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultId(u32);

impl FaultId {
    /// Creates a fault identifier from its index.
    pub fn new(index: u32) -> Self {
        FaultId(index)
    }

    /// The fault's index as a `usize`, for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for FaultId {
    fn from(v: u32) -> Self {
        FaultId(v)
    }
}

impl std::fmt::Display for FaultId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// One potential fault: the set of demands (its *failure region*) on which
/// a version containing the fault fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    region: Vec<DemandId>,
}

impl Fault {
    /// Creates a fault failing on the given demands (sorted, deduplicated).
    pub fn new<I: IntoIterator<Item = DemandId>>(region: I) -> Self {
        let mut region: Vec<DemandId> = region.into_iter().collect();
        region.sort_unstable();
        region.dedup();
        Fault { region }
    }

    /// The demands this fault fails on, sorted ascending.
    pub fn region(&self) -> &[DemandId] {
        &self.region
    }

    /// Number of demands in the failure region.
    pub fn region_size(&self) -> usize {
        self.region.len()
    }

    /// Returns `true` if the fault causes a failure on `x`.
    pub fn covers(&self, x: DemandId) -> bool {
        self.region.binary_search(&x).is_ok()
    }
}

/// A fault's failure region in its kernel (evaluation) form: either an
/// explicit sorted index list or a packed bit set, chosen per fault so
/// that neither few huge regions nor many tiny ones blow up memory.
///
/// A dense [`BitSet`] costs one bit per demand of the *space* regardless
/// of the region size; a sorted `u32` list costs 4 bytes per demand of
/// the *region*. The crossover rule is `region_size · 64 ≤ capacity`:
/// below it, the list is smaller than the bit vector's block array and
/// membership/iteration touch only the region's own entries; above it,
/// packed blocks win on both size and block-aligned set operations.
///
/// Both representations expose the same demands in the same ascending
/// order, so every kernel mass computed through a `RegionSet` is
/// bit-identical whichever representation was chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionSet {
    /// Sorted, deduplicated demand indices (few-demand regions).
    Sparse(Box<[u32]>),
    /// Packed bit set over the whole demand space (broad regions).
    Dense(BitSet),
}

impl RegionSet {
    /// Builds the adaptively chosen representation from a sorted,
    /// deduplicated region over a space of `capacity` demands.
    fn from_region(capacity: usize, region: &[DemandId]) -> Self {
        if region.len() * 64 <= capacity {
            RegionSet::Sparse(region.iter().map(|x| x.index() as u32).collect())
        } else {
            RegionSet::Dense(BitSet::from_iter_with_capacity(
                capacity,
                region.iter().map(|x| x.index()),
            ))
        }
    }

    /// Returns `true` if the explicit index-list representation is in use.
    pub fn is_sparse(&self) -> bool {
        matches!(self, RegionSet::Sparse(_))
    }

    /// Number of demands in the region.
    pub fn len(&self) -> usize {
        match self {
            RegionSet::Sparse(idx) => idx.len(),
            RegionSet::Dense(set) => set.len(),
        }
    }

    /// Returns `true` if the region is empty (never the case inside a
    /// validated [`FaultModel`]).
    pub fn is_empty(&self) -> bool {
        match self {
            RegionSet::Sparse(idx) => idx.is_empty(),
            RegionSet::Dense(set) => set.is_empty(),
        }
    }

    /// Membership test on a demand index.
    pub fn contains(&self, i: usize) -> bool {
        match self {
            RegionSet::Sparse(idx) => idx.binary_search(&(i as u32)).is_ok(),
            RegionSet::Dense(set) => set.contains(i),
        }
    }

    /// Iterates the region's demand indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        // Either side yields ascending indices; chain through an enum of
        // iterators without boxing.
        let (sparse, dense) = match self {
            RegionSet::Sparse(idx) => (Some(idx.iter().map(|&i| i as usize)), None),
            RegionSet::Dense(set) => (None, Some(set.iter())),
        };
        sparse
            .into_iter()
            .flatten()
            .chain(dense.into_iter().flatten())
    }

    /// Returns `true` if the region shares at least one demand with the
    /// bit set (`region ∩ set ≠ ∅`).
    pub fn intersects_set(&self, set: &BitSet) -> bool {
        match self {
            RegionSet::Sparse(idx) => idx.iter().any(|&i| set.contains(i as usize)),
            RegionSet::Dense(region) => region.intersects(set),
        }
    }

    /// Unions the region into a demand bit set.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s capacity is smaller than the region's demands
    /// (callers size `out` to the demand space).
    pub fn union_into(&self, out: &mut BitSet) {
        match self {
            RegionSet::Sparse(idx) => out.extend(idx.iter().map(|&i| i as usize)),
            RegionSet::Dense(region) => out.union_with(region),
        }
    }

    /// The region's mass `Σ_{x ∈ region} weights[x]` under a demand-
    /// indexed weight vector, summed in ascending demand order (the same
    /// fixed order as [`BitSet::weighted_mass`], so the value does not
    /// depend on which representation was chosen).
    pub fn weighted_mass(&self, weights: &[f64]) -> f64 {
        match self {
            RegionSet::Sparse(idx) => {
                let mut acc = 0.0;
                for &i in idx.iter() {
                    acc += weights[i as usize];
                }
                acc
            }
            RegionSet::Dense(region) => region.weighted_mass(weights),
        }
    }
}

/// The complete set of potential faults over a demand space, with the
/// inverted index `O_x` (faults per demand).
///
/// # Examples
///
/// ```
/// use diversim_universe::demand::{DemandId, DemandSpace};
/// use diversim_universe::fault::{Fault, FaultModel};
///
/// let space = DemandSpace::new(3).unwrap();
/// let model = FaultModel::new(space, vec![
///     Fault::new([DemandId::new(0), DemandId::new(1)]),
///     Fault::new([DemandId::new(1)]),
/// ]).unwrap();
/// // O_{x1} contains both faults.
/// assert_eq!(model.faults_at(DemandId::new(1)).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    space: DemandSpace,
    faults: Vec<Fault>,
    /// CSR offsets into `by_demand_faults`: the paper's `O_x` for demand
    /// `x` is `by_demand_faults[by_demand_offsets[x] ..
    /// by_demand_offsets[x + 1]]`. One flat allocation instead of one
    /// `Vec` per demand, so million-demand spaces stay cheap to build
    /// and hold.
    by_demand_offsets: Vec<usize>,
    /// CSR payload of the inverted index, ascending fault id per demand.
    by_demand_faults: Vec<FaultId>,
    /// `region_sets[f]` = the fault's region in kernel form
    /// (sparse/dense, chosen per fault).
    region_sets: Vec<RegionSet>,
    /// `O_x` as one word per demand (bit `f` of `fault_words[x]` set iff
    /// fault `f`'s region holds `x`) when the model has at most 64
    /// faults; empty otherwise.
    fault_words: Box<[u64]>,
}

impl FaultModel {
    /// Builds a model from faults, validating regions against the space.
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::EmptyFailureRegion`] if a fault covers no
    /// demand, or [`UniverseError::DemandOutOfRange`] if a region demand
    /// lies outside the space.
    pub fn new(space: DemandSpace, faults: Vec<Fault>) -> Result<Self, UniverseError> {
        let mut region_sets: Vec<RegionSet> = Vec::with_capacity(faults.len());
        // Counting pass for the CSR index (validates as it goes), then a
        // fill pass in ascending fault order so every `O_x` slice comes
        // out sorted by fault id.
        let mut counts = vec![0usize; space.len()];
        for (i, fault) in faults.iter().enumerate() {
            if fault.region().is_empty() {
                return Err(UniverseError::EmptyFailureRegion { fault: i });
            }
            for &x in fault.region() {
                space.check(x)?;
                counts[x.index()] += 1;
            }
            region_sets.push(RegionSet::from_region(space.len(), fault.region()));
        }
        let mut by_demand_offsets = Vec::with_capacity(space.len() + 1);
        let mut total = 0usize;
        by_demand_offsets.push(0);
        for &c in &counts {
            total += c;
            by_demand_offsets.push(total);
        }
        let mut by_demand_faults = vec![FaultId::new(0); total];
        let mut next = by_demand_offsets.clone();
        for (i, fault) in faults.iter().enumerate() {
            for &x in fault.region() {
                by_demand_faults[next[x.index()]] = FaultId::new(i as u32);
                next[x.index()] += 1;
            }
        }
        let mut fault_words = Vec::new();
        if faults.len() <= 64 {
            fault_words.resize(space.len(), 0u64);
            for (i, fault) in faults.iter().enumerate() {
                for &x in fault.region() {
                    fault_words[x.index()] |= 1u64 << i;
                }
            }
        }
        Ok(FaultModel {
            space,
            faults,
            by_demand_offsets,
            by_demand_faults,
            region_sets,
            fault_words: fault_words.into(),
        })
    }

    /// The demand space the model is defined over.
    pub fn space(&self) -> DemandSpace {
        self.space
    }

    /// Number of potential faults.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Iterates all fault identifiers.
    pub fn fault_ids(&self) -> impl ExactSizeIterator<Item = FaultId> {
        (0..self.faults.len() as u32).map(FaultId::new)
    }

    /// The fault with identifier `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn fault(&self, f: FaultId) -> &Fault {
        &self.faults[f.index()]
    }

    /// Validates a fault identifier.
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::FaultOutOfRange`] for unknown faults.
    pub fn check(&self, f: FaultId) -> Result<FaultId, UniverseError> {
        if f.index() < self.faults.len() {
            Ok(f)
        } else {
            Err(UniverseError::FaultOutOfRange {
                fault: f.index(),
                count: self.faults.len(),
            })
        }
    }

    /// The paper's `O_x`: every fault whose failure region contains `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the demand space.
    pub fn faults_at(&self, x: DemandId) -> &[FaultId] {
        &self.by_demand_faults
            [self.by_demand_offsets[x.index()]..self.by_demand_offsets[x.index() + 1]]
    }

    /// `O_x` as one word, bit `f` set iff fault `f` fails on `x`: `Some`
    /// when the model has at most 64 faults and `x` is in the space.
    #[inline]
    pub(crate) fn fault_word(&self, x: DemandId) -> Option<u64> {
        self.fault_words.get(x.index()).copied()
    }

    /// The fault's failure region in kernel form (sparse index list or
    /// packed bit set, chosen per fault — see [`RegionSet`]).
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn region_set(&self, f: FaultId) -> &RegionSet {
        &self.region_sets[f.index()]
    }

    /// Returns `true` if fault `f` is triggered by at least one demand of
    /// `suite_demands` (given as a bit set over demand indices).
    pub fn triggered_by(&self, f: FaultId, suite_demands: &BitSet) -> bool {
        self.region_sets[f.index()].intersects_set(suite_demands)
    }

    /// Returns `true` if every failure region has size one — the regime in
    /// which the model coincides with the paper's abstract score model.
    pub fn is_singleton(&self) -> bool {
        self.faults.iter().all(|f| f.region_size() == 1)
    }

    /// Largest failure-region size in the model (0 when there are no
    /// faults).
    pub fn max_region_size(&self) -> usize {
        self.faults
            .iter()
            .map(Fault::region_size)
            .max()
            .unwrap_or(0)
    }
}

/// Incremental builder for a [`FaultModel`].
///
/// # Examples
///
/// ```
/// use diversim_universe::demand::{DemandId, DemandSpace};
/// use diversim_universe::fault::FaultModelBuilder;
///
/// let space = DemandSpace::new(4).unwrap();
/// let model = FaultModelBuilder::new(space)
///     .fault([DemandId::new(0)])
///     .fault([DemandId::new(1), DemandId::new(2)])
///     .build()
///     .unwrap();
/// assert_eq!(model.fault_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct FaultModelBuilder {
    space: DemandSpace,
    faults: Vec<Fault>,
}

impl FaultModelBuilder {
    /// Starts a builder over the given space.
    pub fn new(space: DemandSpace) -> Self {
        Self {
            space,
            faults: Vec::new(),
        }
    }

    /// Adds a fault with the given failure region.
    pub fn fault<I: IntoIterator<Item = DemandId>>(mut self, region: I) -> Self {
        self.faults.push(Fault::new(region));
        self
    }

    /// Adds one singleton fault per demand in the space — the pure
    /// Eckhardt–Lee score-model structure.
    pub fn singleton_faults(mut self) -> Self {
        for x in self.space.iter() {
            self.faults.push(Fault::new([x]));
        }
        self
    }

    /// Number of faults added so far.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if no fault has been added yet.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Finalises the model.
    ///
    /// # Errors
    ///
    /// Same as [`FaultModel::new`].
    pub fn build(self) -> Result<FaultModel, UniverseError> {
        FaultModel::new(self.space, self.faults)
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
    fn fault_region_sorted_dedup() {
        let f = Fault::new([d(3), d(1), d(3), d(2)]);
        assert_eq!(f.region(), &[d(1), d(2), d(3)]);
        assert_eq!(f.region_size(), 3);
        assert!(f.covers(d(2)));
        assert!(!f.covers(d(0)));
    }

    #[test]
    fn model_builds_inverted_index() {
        let m = FaultModel::new(
            space(4),
            vec![
                Fault::new([d(0), d(1)]),
                Fault::new([d(1), d(2)]),
                Fault::new([d(3)]),
            ],
        )
        .unwrap();
        assert_eq!(m.faults_at(d(0)), &[FaultId::new(0)]);
        assert_eq!(m.faults_at(d(1)), &[FaultId::new(0), FaultId::new(1)]);
        assert_eq!(m.faults_at(d(2)), &[FaultId::new(1)]);
        assert_eq!(m.faults_at(d(3)), &[FaultId::new(2)]);
    }

    #[test]
    fn model_rejects_empty_region() {
        let err = FaultModel::new(space(2), vec![Fault::new(Vec::<DemandId>::new())]);
        assert_eq!(
            err.unwrap_err(),
            UniverseError::EmptyFailureRegion { fault: 0 }
        );
    }

    #[test]
    fn model_rejects_out_of_range_region() {
        let err = FaultModel::new(space(2), vec![Fault::new([d(5)])]);
        assert!(matches!(
            err.unwrap_err(),
            UniverseError::DemandOutOfRange { demand: 5, .. }
        ));
    }

    #[test]
    fn triggered_by_checks_region_intersection() {
        let m = FaultModel::new(space(4), vec![Fault::new([d(1), d(2)])]).unwrap();
        let mut suite = BitSet::new(4);
        suite.insert(0);
        assert!(!m.triggered_by(FaultId::new(0), &suite));
        suite.insert(2);
        assert!(m.triggered_by(FaultId::new(0), &suite));
    }

    #[test]
    fn singleton_detection() {
        let singleton = FaultModelBuilder::new(space(3))
            .singleton_faults()
            .build()
            .unwrap();
        assert!(singleton.is_singleton());
        assert_eq!(singleton.fault_count(), 3);
        assert_eq!(singleton.max_region_size(), 1);

        let general = FaultModelBuilder::new(space(3))
            .fault([d(0), d(1)])
            .build()
            .unwrap();
        assert!(!general.is_singleton());
        assert_eq!(general.max_region_size(), 2);
    }

    #[test]
    fn builder_accumulates() {
        let b = FaultModelBuilder::new(space(2)).fault([d(0)]).fault([d(1)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.build().unwrap().fault_count(), 2);
    }

    #[test]
    fn check_validates_fault_ids() {
        let m = FaultModelBuilder::new(space(2))
            .fault([d(0)])
            .build()
            .unwrap();
        assert!(m.check(FaultId::new(0)).is_ok());
        assert_eq!(
            m.check(FaultId::new(3)).unwrap_err(),
            UniverseError::FaultOutOfRange { fault: 3, count: 1 }
        );
    }

    #[test]
    fn empty_model_is_allowed() {
        let m = FaultModel::new(space(2), vec![]).unwrap();
        assert_eq!(m.fault_count(), 0);
        assert_eq!(m.max_region_size(), 0);
        assert!(m.is_singleton(), "vacuously singleton");
        assert!(m.faults_at(d(0)).is_empty());
    }

    #[test]
    fn region_representation_follows_the_crossover_rule() {
        // 200-demand space: 3 blocks of bit set, so regions of ≤ 3 demands
        // go sparse and broader ones go dense.
        let m = FaultModel::new(
            space(200),
            vec![
                Fault::new([d(5), d(150)]),
                Fault::new((0..10).map(d).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        assert!(m.region_set(FaultId::new(0)).is_sparse());
        assert!(!m.region_set(FaultId::new(1)).is_sparse());
        // Tiny spaces always pack densely: 1 demand in a 4-demand space
        // already exceeds capacity / 64.
        let tiny = FaultModel::new(space(4), vec![Fault::new([d(1)])]).unwrap();
        assert!(!tiny.region_set(FaultId::new(0)).is_sparse());
    }

    #[test]
    fn region_set_semantics_agree_across_representations() {
        // Same 3-demand region, represented sparsely in a 400-demand
        // space (3·64 ≤ 400) and densely in a 100-demand space (3·64 >
        // 100).
        let region: Vec<DemandId> = [3u32, 70, 99].iter().map(|&i| d(i)).collect();
        let sparse = RegionSet::from_region(400, &region);
        let dense = RegionSet::from_region(100, &region);
        assert!(sparse.is_sparse());
        assert!(!dense.is_sparse());
        for r in [&sparse, &dense] {
            assert_eq!(r.len(), 3);
            assert!(!r.is_empty());
            assert!(r.contains(70));
            assert!(!r.contains(71));
            assert_eq!(r.iter().collect::<Vec<_>>(), vec![3, 70, 99]);
        }
        let weights: Vec<f64> = (0..400).map(|i| i as f64).collect();
        assert_eq!(sparse.weighted_mass(&weights), 3.0 + 70.0 + 99.0);
        assert_eq!(
            dense.weighted_mass(&weights[..100]),
            sparse.weighted_mass(&weights)
        );
        let mut hit = BitSet::new(400);
        hit.insert(70);
        assert!(sparse.intersects_set(&hit));
        let mut out = BitSet::new(400);
        sparse.union_into(&mut out);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![3, 70, 99]);
    }
}
