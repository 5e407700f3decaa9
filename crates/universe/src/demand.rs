//! The demand space `F = {x₁, x₂, …}`.
//!
//! A *demand* is what the paper's footnote 1 distinguishes from an "input":
//! one complete stimulus to the software, possibly made of many inputs.
//! Demands are identified by dense indices so the rest of the system can
//! use flat arrays and bit sets.

use crate::error::UniverseError;

/// Identifier of a demand: an index into a [`DemandSpace`].
///
/// # Examples
///
/// ```
/// use diversim_universe::demand::DemandId;
/// let x = DemandId::new(3);
/// assert_eq!(x.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DemandId(u32);

impl DemandId {
    /// Creates a demand identifier from its index.
    pub fn new(index: u32) -> Self {
        DemandId(index)
    }

    /// The demand's index as a `usize`, for array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` index.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<u32> for DemandId {
    fn from(v: u32) -> Self {
        DemandId(v)
    }
}

impl std::fmt::Display for DemandId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// The finite demand space `F`.
///
/// Holds only the size; demands are the indices `0..size`. Keeping this a
/// distinct type (rather than a bare `usize`) lets constructors validate
/// demand references once and APIs state their domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemandSpace {
    size: u32,
}

impl DemandSpace {
    /// Creates a demand space with `size` demands.
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::EmptyDemandSpace`] if `size == 0`.
    pub fn new(size: usize) -> Result<Self, UniverseError> {
        if size == 0 {
            return Err(UniverseError::EmptyDemandSpace);
        }
        let size = u32::try_from(size).map_err(|_| UniverseError::DemandOutOfRange {
            demand: size,
            size: u32::MAX as usize,
        })?;
        Ok(DemandSpace { size })
    }

    /// Number of demands in the space.
    pub fn len(self) -> usize {
        self.size as usize
    }

    /// Always `false`: construction rejects empty spaces. Provided for API
    /// completeness alongside [`DemandSpace::len`].
    pub fn is_empty(self) -> bool {
        false
    }

    /// Returns `true` if `demand` belongs to this space.
    pub fn contains(self, demand: DemandId) -> bool {
        demand.raw() < self.size
    }

    /// Validates that `demand` belongs to this space.
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::DemandOutOfRange`] otherwise.
    pub fn check(self, demand: DemandId) -> Result<DemandId, UniverseError> {
        if self.contains(demand) {
            Ok(demand)
        } else {
            Err(UniverseError::DemandOutOfRange {
                demand: demand.index(),
                size: self.len(),
            })
        }
    }

    /// Iterates all demands in index order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = DemandId> {
        (0..self.size).map(DemandId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_id_roundtrip() {
        let d = DemandId::new(42);
        assert_eq!(d.index(), 42);
        assert_eq!(d.raw(), 42);
        assert_eq!(DemandId::from(42u32), d);
        assert_eq!(d.to_string(), "x42");
    }

    #[test]
    fn empty_space_rejected() {
        assert_eq!(
            DemandSpace::new(0).unwrap_err(),
            UniverseError::EmptyDemandSpace
        );
    }

    #[test]
    fn space_len_and_contains() {
        let s = DemandSpace::new(5).unwrap();
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert!(s.contains(DemandId::new(0)));
        assert!(s.contains(DemandId::new(4)));
        assert!(!s.contains(DemandId::new(5)));
    }

    #[test]
    fn check_reports_offender() {
        let s = DemandSpace::new(3).unwrap();
        assert!(s.check(DemandId::new(2)).is_ok());
        assert_eq!(
            s.check(DemandId::new(7)).unwrap_err(),
            UniverseError::DemandOutOfRange { demand: 7, size: 3 }
        );
    }

    #[test]
    fn iter_visits_all_in_order() {
        let s = DemandSpace::new(4).unwrap();
        let ids: Vec<usize> = s.iter().map(DemandId::index).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(s.iter().len(), 4);
    }
}
