//! Composable streaming reduction of replication outputs.
//!
//! The Monte Carlo engine in `diversim-sim` runs millions of
//! replications, and most studies only need a handful of summary
//! statistics — materialising a `Vec` of per-replication outcomes first
//! wastes memory and bandwidth. A [`Reducer`] describes how one
//! observable stream folds into an accumulator: an identity
//! ([`Reducer::empty`]), a per-item update ([`Reducer::push`]) and an
//! associative combination of partial accumulators ([`Reducer::merge`]).
//! The runner folds fixed blocks of replications in index order with
//! `push` and combines the block accumulators in block order with
//! `merge`, so every reduction is a pure function of the item stream —
//! bit-identical for any worker-thread count.
//!
//! Reducers compose: tuples of reducers reduce tuples of observables
//! item-wise, and [`ElementWise`] lifts any reducer over fixed-length
//! `Vec` items (e.g. one [`MeanVar`] per growth checkpoint). The
//! building blocks are [`Moments`] (scalar mean/variance), [`Count`] and
//! [`Sum`].
//!
//! # Examples
//!
//! ```
//! use diversim_stats::reduce::{Count, Moments, Reducer};
//!
//! // Reduce (value, flag) pairs into (moments, count) jointly.
//! let reducer = (Moments, Count);
//! let mut acc = reducer.empty();
//! for x in [2.0, -1.0, 5.0] {
//!     reducer.push(&mut acc, (x, x > 0.0));
//! }
//! assert_eq!(acc.0.count(), 3);
//! assert_eq!(acc.0.mean(), 2.0);
//! assert_eq!(acc.1, 2);
//! ```

use crate::online::MeanVar;

/// A streaming, mergeable reduction of one observable stream.
///
/// Implementations must make `merge` consistent with `push`: folding a
/// stream into one accumulator and folding a split of the stream into
/// two accumulators then merging must agree up to floating-point
/// rounding. Exact bit-equality across thread counts is provided by the
/// *runner*, which fixes the block boundaries and the merge order — not
/// by the reducer itself.
pub trait Reducer {
    /// One replication's observable.
    type Item;
    /// The accumulator state.
    type Acc;
    /// The identity accumulator (no items folded yet).
    fn empty(&self) -> Self::Acc;
    /// Folds one item into an accumulator.
    fn push(&self, acc: &mut Self::Acc, item: Self::Item);
    /// Combines two partial accumulators, `left` items preceding
    /// `right` items.
    fn merge(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;
}

/// Reduces scalar observables into a streaming [`MeanVar`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Moments;

impl Reducer for Moments {
    type Item = f64;
    type Acc = MeanVar;

    fn empty(&self) -> MeanVar {
        MeanVar::new()
    }

    fn push(&self, acc: &mut MeanVar, item: f64) {
        acc.push(item);
    }

    fn merge(&self, left: MeanVar, right: MeanVar) -> MeanVar {
        left.merge(&right)
    }
}

/// Lifts a reducer element-wise over fixed-length `Vec` items: item `j`
/// of every pushed `Vec` folds into accumulator `j`.
///
/// This is the `Vec` combinator: `ElementWise::new(Moments, k)` keeps
/// one [`MeanVar`] per growth checkpoint without materialising the
/// per-replication trajectories.
///
/// # Examples
///
/// ```
/// use diversim_stats::reduce::{ElementWise, Moments, Reducer};
///
/// let reducer = ElementWise::new(Moments, 2);
/// let mut acc = reducer.empty();
/// reducer.push(&mut acc, vec![1.0, 10.0]);
/// reducer.push(&mut acc, vec![3.0, 30.0]);
/// assert_eq!(acc[0].mean(), 2.0);
/// assert_eq!(acc[1].mean(), 20.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ElementWise<R> {
    inner: R,
    len: usize,
}

impl<R> ElementWise<R> {
    /// A reducer applying `inner` to each of the `len` item elements.
    pub fn new(inner: R, len: usize) -> Self {
        ElementWise { inner, len }
    }
}

impl<R: Reducer> Reducer for ElementWise<R> {
    type Item = Vec<R::Item>;
    type Acc = Vec<R::Acc>;

    fn empty(&self) -> Vec<R::Acc> {
        (0..self.len).map(|_| self.inner.empty()).collect()
    }

    fn push(&self, acc: &mut Vec<R::Acc>, item: Vec<R::Item>) {
        assert_eq!(
            item.len(),
            self.len,
            "ElementWise item length mismatches the declared length"
        );
        for (a, v) in acc.iter_mut().zip(item) {
            self.inner.push(a, v);
        }
    }

    fn merge(&self, left: Vec<R::Acc>, right: Vec<R::Acc>) -> Vec<R::Acc> {
        left.into_iter()
            .zip(right)
            .map(|(l, r)| self.inner.merge(l, r))
            .collect()
    }
}

/// Counts `true` observations (e.g. interval hits, rule firings).
#[derive(Debug, Clone, Copy, Default)]
pub struct Count;

impl Reducer for Count {
    type Item = bool;
    type Acc = u64;

    fn empty(&self) -> u64 {
        0
    }

    fn push(&self, acc: &mut u64, item: bool) {
        *acc += u64::from(item);
    }

    fn merge(&self, left: u64, right: u64) -> u64 {
        left + right
    }
}

/// Plain running sum of scalar observables (items added in stream
/// order, partial sums added in block order).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum;

impl Reducer for Sum {
    type Item = f64;
    type Acc = f64;

    fn empty(&self) -> f64 {
        0.0
    }

    fn push(&self, acc: &mut f64, item: f64) {
        *acc += item;
    }

    fn merge(&self, left: f64, right: f64) -> f64 {
        left + right
    }
}

macro_rules! impl_tuple_reducer {
    ($($R:ident . $idx:tt),+) => {
        impl<$($R: Reducer),+> Reducer for ($($R,)+) {
            type Item = ($($R::Item,)+);
            type Acc = ($($R::Acc,)+);

            fn empty(&self) -> Self::Acc {
                ($(self.$idx.empty(),)+)
            }

            fn push(&self, acc: &mut Self::Acc, item: Self::Item) {
                $(self.$idx.push(&mut acc.$idx, item.$idx);)+
            }

            fn merge(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc {
                ($(self.$idx.merge(left.$idx, right.$idx),)+)
            }
        }
    };
}

impl_tuple_reducer!(R0.0, R1.1);
impl_tuple_reducer!(R0.0, R1.1, R2.2);
impl_tuple_reducer!(R0.0, R1.1, R2.2, R3.3);

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits `xs` at every position and checks push-then-merge against
    /// one sequential fold.
    fn assert_merge_consistent<R>(reducer: &R, xs: &[R::Item])
    where
        R: Reducer,
        R::Item: Clone,
        R::Acc: PartialEq + std::fmt::Debug,
    {
        for split in 0..=xs.len() {
            let mut full = reducer.empty();
            for x in xs {
                reducer.push(&mut full, x.clone());
            }
            let mut left = reducer.empty();
            for x in &xs[..split] {
                reducer.push(&mut left, x.clone());
            }
            let mut right = reducer.empty();
            for x in &xs[split..] {
                reducer.push(&mut right, x.clone());
            }
            let merged = reducer.merge(left, right);
            // Exact equality is only guaranteed for the exact reducers;
            // callers pass data where MeanVar merges are exact too
            // (see below).
            assert_eq!(merged, full, "split at {split} disagrees");
        }
    }

    #[test]
    fn count_and_sum_merge_exactly() {
        assert_merge_consistent(&Count, &[true, false, true, true]);
        // Dyadic values: every partial sum is exact, so any split
        // reassociation is bit-identical.
        assert_merge_consistent(&Sum, &[0.5, 0.25, 4.0, 1.0, 0.125]);
    }

    #[test]
    fn moments_match_direct_meanvar() {
        let xs = [1.0, 2.5, -3.0, 4.25];
        let mut acc = Moments.empty();
        for x in xs {
            Moments.push(&mut acc, x);
        }
        let direct: MeanVar = xs.into_iter().collect();
        assert_eq!(acc, direct);
    }

    #[test]
    fn element_wise_lifts_over_vectors() {
        let reducer = ElementWise::new(Moments, 3);
        let mut acc = reducer.empty();
        reducer.push(&mut acc, vec![1.0, 2.0, 3.0]);
        reducer.push(&mut acc, vec![3.0, 2.0, 1.0]);
        let means: Vec<f64> = acc.iter().map(MeanVar::mean).collect();
        assert_eq!(means, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatches")]
    fn element_wise_rejects_wrong_length() {
        let reducer = ElementWise::new(Moments, 2);
        let mut acc = reducer.empty();
        reducer.push(&mut acc, vec![1.0]);
    }

    #[test]
    fn tuples_reduce_jointly() {
        let reducer = (Moments, Moments, Count, Sum);
        let mut acc = reducer.empty();
        for (i, x) in [4.0, -1.0, 2.0].into_iter().enumerate() {
            reducer.push(&mut acc, (x, -x, i % 2 == 0, x));
        }
        assert_eq!(acc.0.count(), 3);
        assert_eq!(acc.1.mean(), -acc.0.mean());
        assert_eq!(acc.2, 2);
        assert_eq!(acc.3, 5.0);
        let merged = reducer.merge(acc, reducer.empty());
        assert_eq!(merged.0.count(), 3);
    }

    #[test]
    fn nested_tuples_compose() {
        let reducer = ((Moments, Count), Sum);
        let mut acc = reducer.empty();
        reducer.push(&mut acc, ((1.0, true), 1.0));
        reducer.push(&mut acc, ((3.0, false), -2.0));
        assert_eq!(acc.0 .0.mean(), 2.0);
        assert_eq!(acc.0 .1, 1);
        assert_eq!(acc.1, -1.0);
    }
}
