//! Fixed-bin histograms for distribution shape reports (a spread of
//! per-demand difficulties, of estimated pfds, or of request latencies).
//! Histograms merge, so partial histograms built on separate threads
//! combine into one.

use crate::error::StatsError;

/// A histogram with equal-width bins over `[min, max)` plus explicit
/// underflow/overflow counters.
///
/// # Examples
///
/// ```
/// use diversim_stats::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
/// for x in [0.1, 0.3, 0.35, 0.9] {
///     h.push(x);
/// }
/// assert_eq!(h.counts(), &[1, 2, 0, 1]);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    min: f64,
    max: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[min, max)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidInterval`] if `min >= max` or either
    /// bound is non-finite, and [`StatsError::EmptySample`] if `bins == 0`.
    pub fn new(min: f64, max: f64, bins: usize) -> Result<Self, StatsError> {
        if !min.is_finite() || !max.is_finite() || min >= max {
            return Err(StatsError::InvalidInterval { lo: min, hi: max });
        }
        if bins == 0 {
            return Err(StatsError::EmptySample);
        }
        Ok(Self {
            min,
            max,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Adds one observation. Non-finite values are counted as overflow.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.overflow += 1;
            return;
        }
        if x < self.min {
            self.underflow += 1;
        } else if x >= self.max {
            // The exact upper bound is folded into the last bin, matching
            // the usual closed-right convention for the final bin.
            if x == self.max {
                let last = self.counts.len() - 1;
                self.counts[last] += 1;
            } else {
                self.overflow += 1;
            }
        } else {
            let width = (self.max - self.min) / self.counts.len() as f64;
            let idx = ((x - self.min) / width) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Adds every observation from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations below `min`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above `max` (and non-finite pushes).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations pushed, including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.max - self.min) / self.counts.len() as f64
    }

    /// Half-open range `[lo, hi)` covered by bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin index {i} out of range");
        let w = self.bin_width();
        (self.min + i as f64 * w, self.min + (i + 1) as f64 * w)
    }

    /// Combines two histograms over the *identical* binning, as if every
    /// observation had been pushed into one (bin, underflow and overflow
    /// counts add). This is what lets histograms accumulate in parallel
    /// blocks and merge deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms differ in bounds or bin count.
    pub fn merge(&self, other: &Self) -> Self {
        assert!(
            self.min == other.min
                && self.max == other.max
                && self.counts.len() == other.counts.len(),
            "cannot merge histograms with different binning"
        );
        Self {
            min: self.min,
            max: self.max,
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            underflow: self.underflow + other.underflow,
            overflow: self.overflow + other.overflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_construction() {
        assert!(Histogram::new(1.0, 0.0, 4).is_err());
        assert!(Histogram::new(0.0, 0.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 2).is_err());
    }

    #[test]
    fn bins_cover_range_evenly() {
        let h = Histogram::new(0.0, 2.0, 4).unwrap();
        assert_eq!(h.bin_width(), 0.5);
        assert_eq!(h.bin_range(0), (0.0, 0.5));
        assert_eq!(h.bin_range(3), (1.5, 2.0));
    }

    #[test]
    fn boundary_values_bin_correctly() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.push(0.0); // first bin
        h.push(0.5); // second bin (half-open bins)
        h.push(1.0); // exact max folds into last bin
        assert_eq!(h.counts(), &[1, 2]);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow_counted() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.push(-0.1);
        h.push(1.5);
        h.push(f64::NAN);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = Histogram::new(0.0, 1.0, 2).unwrap();
        a.extend([0.1, -1.0]);
        let mut b = Histogram::new(0.0, 1.0, 2).unwrap();
        b.extend([0.7, 2.0, 0.2]);
        let merged = a.merge(&b);
        assert_eq!(merged.counts(), &[2, 1]);
        assert_eq!(merged.underflow(), 1);
        assert_eq!(merged.overflow(), 1);
        assert_eq!(merged.total(), 5);
    }

    #[test]
    #[should_panic(expected = "different binning")]
    fn merge_rejects_mismatched_binning() {
        let a = Histogram::new(0.0, 1.0, 2).unwrap();
        let b = Histogram::new(0.0, 1.0, 3).unwrap();
        let _ = a.merge(&b);
    }
}
