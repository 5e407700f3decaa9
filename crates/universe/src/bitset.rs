//! A compact fixed-capacity bit set.
//!
//! Both fault sets (which faults a version contains) and demand sets
//! (which demands a version fails on) are dense sets of small integers
//! that are unioned, intersected and counted in the inner loops of the
//! simulator, so they get a dedicated bit set rather than `HashSet`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

const BITS: usize = 64;

/// Blocks a set keeps in place; sets needing more live on the heap.
const INLINE_BLOCKS: usize = 2;

/// A fixed-capacity set of `usize` values in `[0, capacity)`, stored as a
/// bit vector of 64-bit blocks.
///
/// The capacity picks the storage once, at construction: a set of
/// capacity at most 128 keeps its (at most two) blocks inline, so
/// creating, cloning and combining it never touches the allocator;
/// larger sets keep their blocks in one heap slice. Either way the set
/// behaves as its block slice plus its capacity: [`blocks`](Self::blocks)
/// exposes the slice, and `Debug`, `Eq`, `Ord` and `Hash` compare and
/// format `(blocks, capacity)` exactly as a plain `Vec<u64>` field would.
///
/// # Examples
///
/// ```
/// use diversim_universe::bitset::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(97);
/// assert!(s.contains(3));
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
/// ```
#[derive(Clone)]
pub struct BitSet {
    blocks: Blocks,
    capacity: usize,
}

/// The block storage of a [`BitSet`]: inline exactly when the capacity
/// fits [`INLINE_BLOCKS`] blocks. Inline blocks past the capacity stay
/// zero, so operations may walk all of them (see [`BitSet::storage`]).
#[derive(Clone)]
enum Blocks {
    Inline([u64; INLINE_BLOCKS]),
    Heap(Box<[u64]>),
}

impl BitSet {
    /// Creates an empty set able to hold values in `[0, capacity)`.
    pub fn new(capacity: usize) -> Self {
        let used = capacity.div_ceil(BITS);
        let blocks = if used <= INLINE_BLOCKS {
            Blocks::Inline([0; INLINE_BLOCKS])
        } else {
            Blocks::Heap(vec![0; used].into_boxed_slice())
        };
        Self { blocks, capacity }
    }

    /// Creates a set containing every value in `[0, capacity)`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        s.storage_mut()[..capacity.div_ceil(BITS)].fill(u64::MAX);
        let rem = capacity % BITS;
        if rem != 0 {
            s.storage_mut()[capacity / BITS] &= (1u64 << rem) - 1;
        }
        s
    }

    /// Builds a set from an iterator of values.
    ///
    /// # Panics
    ///
    /// Panics if any value is `>= capacity`.
    pub fn from_iter_with_capacity<I: IntoIterator<Item = usize>>(
        capacity: usize,
        values: I,
    ) -> Self {
        let mut s = Self::new(capacity);
        s.extend(values);
        s
    }

    /// Builds a set from its [`blocks`](Self::blocks), least-significant
    /// value first, pulling them from `blocks` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics unless `blocks` yields exactly `capacity.div_ceil(64)`
    /// blocks with no bit at or beyond the capacity.
    pub(crate) fn from_blocks<I: IntoIterator<Item = u64>>(capacity: usize, blocks: I) -> Self {
        let mut s = Self::new(capacity);
        let used = capacity.div_ceil(BITS);
        let storage = &mut s.storage_mut()[..used];
        let mut filled = 0;
        for block in blocks {
            storage[filled] = block;
            filled += 1;
        }
        assert_eq!(filled, used, "{filled} blocks for capacity {capacity}");
        let rem = capacity % BITS;
        assert!(
            rem == 0 || storage[used - 1] >> rem == 0,
            "block bit at or beyond capacity {capacity}"
        );
        s
    }

    /// Values `0..64` as one word. It exists at every capacity (an
    /// inline set keeps two blocks, a heap set more than two), so a
    /// set of capacity 0 reads `0` here where `blocks()[0]` would panic.
    #[inline]
    pub(crate) fn first_block(&self) -> u64 {
        self.storage()[0]
    }

    /// [`first_block`](Self::first_block), mutably. Callers clear bits
    /// only, which keeps every bit at or beyond the capacity zero.
    pub(crate) fn first_block_mut(&mut self) -> &mut u64 {
        &mut self.storage_mut()[0]
    }

    /// Returns `true` if any of `values` is in the set, reaching the
    /// blocks once for the whole list. Values at or beyond the capacity
    /// are reported absent, as by [`contains`](Self::contains).
    #[inline]
    pub(crate) fn contains_any<I: IntoIterator<Item = usize>>(&self, values: I) -> bool {
        let (blocks, capacity) = (self.storage(), self.capacity);
        values
            .into_iter()
            .any(|value| value < capacity && blocks[value / BITS] >> (value % BITS) & 1 != 0)
    }

    /// Removes every value of `values`, reaching the blocks once for the
    /// whole list; returns how many were present.
    ///
    /// # Panics
    ///
    /// Panics if any value is `>= capacity`.
    pub(crate) fn remove_all<I: IntoIterator<Item = usize>>(&mut self, values: I) -> usize {
        let capacity = self.capacity;
        let blocks = self.storage_mut();
        let mut removed = 0;
        for value in values {
            assert!(value < capacity, "value {value} out of capacity {capacity}");
            let (block, mask) = (&mut blocks[value / BITS], 1u64 << (value % BITS));
            removed += usize::from(*block & mask != 0);
            *block &= !mask;
        }
        removed
    }

    /// Every stored block: the [`blocks`](Self::blocks) in use, then, for
    /// an inline set, zero padding. Operations walk this whole slice —
    /// the padding never changes a result, and the inline length is a
    /// constant rather than one more division per call.
    fn storage(&self) -> &[u64] {
        match &self.blocks {
            Blocks::Inline(blocks) => blocks,
            Blocks::Heap(blocks) => blocks,
        }
    }

    /// [`storage`](Self::storage), mutably. Callers keep the padding zero.
    fn storage_mut(&mut self) -> &mut [u64] {
        match &mut self.blocks {
            Blocks::Inline(blocks) => blocks,
            Blocks::Heap(blocks) => blocks,
        }
    }

    /// Capacity (exclusive upper bound on stored values).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `value`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn insert(&mut self, value: usize) -> bool {
        assert!(
            value < self.capacity,
            "value {value} out of capacity {}",
            self.capacity
        );
        let block = &mut self.storage_mut()[value / BITS];
        let mask = 1u64 << (value % BITS);
        let was = *block & mask != 0;
        *block |= mask;
        !was
    }

    /// Removes `value`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `value >= capacity`.
    pub fn remove(&mut self, value: usize) -> bool {
        assert!(
            value < self.capacity,
            "value {value} out of capacity {}",
            self.capacity
        );
        let block = &mut self.storage_mut()[value / BITS];
        let mask = 1u64 << (value % BITS);
        let was = *block & mask != 0;
        *block &= !mask;
        was
    }

    /// Membership test. Values at or beyond capacity are reported absent.
    pub fn contains(&self, value: usize) -> bool {
        if value >= self.capacity {
            return false;
        }
        self.storage()[value / BITS] & (1u64 << (value % BITS)) != 0
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.storage().iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns `true` if the set stores nothing.
    pub fn is_empty(&self) -> bool {
        self.storage().iter().all(|&b| b == 0)
    }

    /// Removes every value.
    pub fn clear(&mut self) {
        self.storage_mut().fill(0);
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch in union");
        for (a, b) in self.storage_mut().iter_mut().zip(other.storage()) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &Self) {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in intersection"
        );
        for (a, b) in self.storage_mut().iter_mut().zip(other.storage()) {
            *a &= b;
        }
    }

    /// In-place difference: removes every value present in `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &Self) {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in difference"
        );
        for (a, b) in self.storage_mut().iter_mut().zip(other.storage()) {
            *a &= !b;
        }
    }

    /// Size of the intersection without materialising it.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersection_len(&self, other: &Self) -> usize {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in intersection_len"
        );
        self.storage()
            .iter()
            .zip(other.storage())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Returns `true` if the two sets share at least one value.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersects(&self, other: &Self) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in intersects"
        );
        match (&self.blocks, &other.blocks) {
            // Two inline sets: test both block pairs without branching on
            // the data — over two blocks, a data-dependent early exit
            // mispredicts more often than it saves.
            (Blocks::Inline(a), Blocks::Inline(b)) => {
                a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x & y)) != 0
            }
            _ => self
                .storage()
                .iter()
                .zip(other.storage())
                .any(|(a, b)| a & b != 0),
        }
    }

    /// Returns `true` if every value of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn is_subset(&self, other: &Self) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in is_subset"
        );
        self.storage()
            .iter()
            .zip(other.storage())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates stored values in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        let blocks = self.storage();
        Iter {
            blocks,
            block_idx: 0,
            current: blocks.first().copied().unwrap_or(0),
        }
    }

    /// The raw 64-bit blocks, least-significant value first — the packed
    /// representation the weighted-popcount kernel iterates over. Bits at
    /// or beyond [`capacity`](Self::capacity) are always zero.
    pub fn blocks(&self) -> &[u64] {
        &self.storage()[..self.capacity.div_ceil(BITS)]
    }

    /// Weighted popcount `Σ_{i ∈ self} weights[i]`: the mass of the set
    /// under a weight vector indexed by value.
    ///
    /// The sum runs over one accumulator in ascending value order (block
    /// by block, least-significant bit first), so the result is
    /// bit-identical to the naive `for i in 0..capacity { if contains(i)
    /// { acc += weights[i] } }` loop — zero terms are IEEE no-ops for the
    /// non-negative weights used throughout — while skipping empty blocks
    /// entirely. Every kernel mass in the workspace keeps this fixed
    /// summation order; see also [`BlockWeights`].
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the capacity.
    pub fn weighted_mass(&self, weights: &[f64]) -> f64 {
        assert_eq!(
            weights.len(),
            self.capacity,
            "weight vector length must equal capacity"
        );
        let mut acc = 0.0;
        for (bi, &block) in self.storage().iter().enumerate() {
            let mut bits = block;
            if bits == 0 {
                continue;
            }
            let base = bi * BITS;
            while bits != 0 {
                acc += weights[base + bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        acc
    }

    /// Weighted intersection mass `Σ_{i ∈ self ∩ other} weights[i]`,
    /// without materialising the intersection. Same fixed summation order
    /// as [`weighted_mass`](Self::weighted_mass).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ or `weights.len()` differs from the
    /// capacity.
    pub fn weighted_intersection(&self, other: &Self, weights: &[f64]) -> f64 {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in weighted_intersection"
        );
        self.masked_mass(other, |a, b| a & b, weights)
    }

    /// Weighted union mass `Σ_{i ∈ self ∪ other} weights[i]`, without
    /// materialising the union. Same fixed summation order as
    /// [`weighted_mass`](Self::weighted_mass).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ or `weights.len()` differs from the
    /// capacity.
    pub fn weighted_union(&self, other: &Self, weights: &[f64]) -> f64 {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in weighted_union"
        );
        self.masked_mass(other, |a, b| a | b, weights)
    }

    /// Weighted difference mass `Σ_{i ∈ self ∖ other} weights[i]`, without
    /// materialising the difference. Same fixed summation order as
    /// [`weighted_mass`](Self::weighted_mass).
    ///
    /// # Panics
    ///
    /// Panics if capacities differ or `weights.len()` differs from the
    /// capacity.
    pub fn weighted_difference(&self, other: &Self, weights: &[f64]) -> f64 {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in weighted_difference"
        );
        self.masked_mass(other, |a, b| a & !b, weights)
    }

    /// Shared block-aligned inner loop of the weighted masses: combine the
    /// two block streams with `combine`, then accumulate the weights of
    /// the set bits in ascending order.
    fn masked_mass(&self, other: &Self, combine: impl Fn(u64, u64) -> u64, weights: &[f64]) -> f64 {
        assert_eq!(
            weights.len(),
            self.capacity,
            "weight vector length must equal capacity"
        );
        let mut acc = 0.0;
        for (bi, (&a, &b)) in self.storage().iter().zip(other.storage()).enumerate() {
            let mut bits = combine(a, b);
            if bits == 0 {
                continue;
            }
            let base = bi * BITS;
            while bits != 0 {
                acc += weights[base + bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        acc
    }
}

// The set is its block slice plus its capacity: these impls compare,
// hash and print `(blocks(), capacity)` exactly as derives over those two
// fields would, whatever the storage. Sorted maps keyed by sets (suite
// enumeration adds probabilities in key order) depend on that order.

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitSet")
            .field("blocks", &self.blocks())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        // Equal capacities share a storage shape, padding included.
        self.capacity == other.capacity && self.storage() == other.storage()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.blocks().hash(state);
        self.capacity.hash(state);
    }
}

impl PartialOrd for BitSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.blocks()
            .cmp(other.blocks())
            .then_with(|| self.capacity.cmp(&other.capacity))
    }
}

/// A weight vector in block-major layout: one 64-entry chunk of `f64`
/// weights per [`BitSet`] block, zero-padded past the capacity.
///
/// This is the kernel-side mirror of a demand-indexed weight vector such
/// as `Q(·)`: because every chunk is exactly [`BitSet`]-block sized, the
/// masked masses walk `(u64 block, &[f64; 64] chunk)` pairs with no
/// bounds arithmetic in the inner loop. All masses use the same fixed
/// ascending summation order as [`BitSet::weighted_mass`], so the two
/// APIs are interchangeable bit-for-bit.
///
/// # Examples
///
/// ```
/// use diversim_universe::bitset::{BitSet, BlockWeights};
///
/// let w = BlockWeights::new(&[0.1, 0.2, 0.3, 0.4]);
/// let s = BitSet::from_iter_with_capacity(4, [1, 3]);
/// assert!((w.mass(&s) - 0.6).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeights {
    /// Block-major storage: `blocks * 64` entries, tail zero-padded.
    padded: Box<[f64]>,
    capacity: usize,
}

impl BlockWeights {
    /// Copies `weights` into block-major (zero-padded) layout.
    pub fn new(weights: &[f64]) -> Self {
        let blocks = weights.len().div_ceil(BITS);
        let mut padded = vec![0.0; blocks * BITS];
        padded[..weights.len()].copy_from_slice(weights);
        Self {
            padded: padded.into(),
            capacity: weights.len(),
        }
    }

    /// Number of weights (the matching [`BitSet`] capacity).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The weights without the block padding.
    pub fn weights(&self) -> &[f64] {
        &self.padded[..self.capacity]
    }

    /// The weight of one value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn weight(&self, i: usize) -> f64 {
        assert!(i < self.capacity, "weight index {i} out of capacity");
        self.padded[i]
    }

    /// `Σ_{i ∈ set} weight(i)`; equals [`BitSet::weighted_mass`] over
    /// [`weights`](Self::weights) bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the set's capacity differs from this layout's capacity.
    pub fn mass(&self, set: &BitSet) -> f64 {
        assert_eq!(
            set.capacity, self.capacity,
            "capacity mismatch in BlockWeights::mass"
        );
        let mut acc = 0.0;
        for (&block, chunk) in set.storage().iter().zip(self.padded.chunks_exact(BITS)) {
            let mut bits = block;
            while bits != 0 {
                acc += chunk[bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        acc
    }

    /// `Σ_{i ∈ a ∩ b} weight(i)`; equals [`BitSet::weighted_intersection`]
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if either set's capacity differs from this layout's
    /// capacity.
    pub fn intersection_mass(&self, a: &BitSet, b: &BitSet) -> f64 {
        self.masked_mass(a, b, |x, y| x & y)
    }

    /// `Σ_{i ∈ a ∪ b} weight(i)`; equals [`BitSet::weighted_union`]
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if either set's capacity differs from this layout's
    /// capacity.
    pub fn union_mass(&self, a: &BitSet, b: &BitSet) -> f64 {
        self.masked_mass(a, b, |x, y| x | y)
    }

    /// `Σ_{i ∈ a ∖ b} weight(i)`; equals [`BitSet::weighted_difference`]
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if either set's capacity differs from this layout's
    /// capacity.
    pub fn difference_mass(&self, a: &BitSet, b: &BitSet) -> f64 {
        self.masked_mass(a, b, |x, y| x & !y)
    }

    fn masked_mass(&self, a: &BitSet, b: &BitSet, combine: impl Fn(u64, u64) -> u64) -> f64 {
        assert_eq!(
            a.capacity, self.capacity,
            "capacity mismatch in BlockWeights masked mass"
        );
        assert_eq!(
            b.capacity, self.capacity,
            "capacity mismatch in BlockWeights masked mass"
        );
        let mut acc = 0.0;
        for ((&x, &y), chunk) in a
            .storage()
            .iter()
            .zip(b.storage())
            .zip(self.padded.chunks_exact(BITS))
        {
            let mut bits = combine(x, y);
            while bits != 0 {
                acc += chunk[bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        acc
    }
}

/// Ascending iterator over a [`BitSet`], created by [`BitSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    blocks: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_idx * BITS + bit);
            }
            self.block_idx += 1;
            self.current = *self.blocks.get(self.block_idx)?;
        }
    }
}

impl Extend<usize> for BitSet {
    /// Inserts every value, reaching the blocks once for the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if any value is `>= capacity`.
    fn extend<I: IntoIterator<Item = usize>>(&mut self, values: I) {
        let capacity = self.capacity;
        let blocks = self.storage_mut();
        for value in values {
            assert!(value < capacity, "value {value} out of capacity {capacity}");
            blocks[value / BITS] |= 1u64 << (value % BITS);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_set_is_empty() {
        let s = BitSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.capacity(), 10);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports false");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64), "double remove reports false");
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn contains_beyond_capacity_is_false() {
        let s = BitSet::new(5);
        assert!(!s.contains(5));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_beyond_capacity_panics() {
        BitSet::new(5).insert(5);
    }

    #[test]
    fn full_contains_everything_up_to_capacity() {
        let s = BitSet::full(67);
        assert_eq!(s.len(), 67);
        assert!(s.contains(0) && s.contains(66));
        assert!(!s.contains(67));
    }

    #[test]
    fn iter_ascending() {
        let s = BitSet::from_iter_with_capacity(200, [199, 0, 63, 64, 65]);
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 63, 64, 65, 199]);
    }

    #[test]
    fn union_intersection_difference() {
        let a = BitSet::from_iter_with_capacity(70, [1, 2, 3, 69]);
        let b = BitSet::from_iter_with_capacity(70, [3, 4, 69]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 69]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 69]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn intersection_len_and_intersects() {
        let a = BitSet::from_iter_with_capacity(128, [0, 10, 64, 127]);
        let b = BitSet::from_iter_with_capacity(128, [10, 127]);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(a.intersects(&b));
        let c = BitSet::from_iter_with_capacity(128, [1, 2]);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection_len(&c), 0);
    }

    #[test]
    fn subset_relation() {
        let a = BitSet::from_iter_with_capacity(40, [5, 6]);
        let b = BitSet::from_iter_with_capacity(40, [5, 6, 7]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(
            BitSet::new(40).is_subset(&a),
            "empty set is a subset of anything"
        );
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::full(33);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn into_iterator_for_reference() {
        let s = BitSet::from_iter_with_capacity(8, [2, 4]);
        let mut total = 0;
        for v in &s {
            total += v;
        }
        assert_eq!(total, 6);
    }

    /// Deterministic weights so the kernel tests don't need an RNG:
    /// `w[i] = (i + 1) / n`.
    fn ramp_weights(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i + 1) as f64 / n as f64).collect()
    }

    fn naive_mass(s: &BitSet, w: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (i, &wi) in w.iter().enumerate().take(s.capacity()) {
            if s.contains(i) {
                acc += wi;
            }
        }
        acc
    }

    #[test]
    fn blocks_expose_packed_representation() {
        let s = BitSet::from_iter_with_capacity(130, [0, 64, 129]);
        assert_eq!(s.blocks().len(), 3);
        assert_eq!(s.blocks()[0], 1);
        assert_eq!(s.blocks()[1], 1);
        assert_eq!(s.blocks()[2], 2);
    }

    #[test]
    fn weighted_mass_matches_naive_sum_bitwise() {
        for cap in [1, 63, 64, 65, 127, 128, 129, 200] {
            let w = ramp_weights(cap);
            let s = BitSet::from_iter_with_capacity(cap, (0..cap).filter(|i| i % 3 == 0));
            assert_eq!(s.weighted_mass(&w), naive_mass(&s, &w), "cap {cap}");
        }
    }

    #[test]
    fn weighted_mass_of_empty_and_full() {
        let w = ramp_weights(100);
        assert_eq!(BitSet::new(100).weighted_mass(&w), 0.0);
        let full = BitSet::full(100);
        assert_eq!(full.weighted_mass(&w), naive_mass(&full, &w));
    }

    #[test]
    fn weighted_set_operations_match_materialised_sets() {
        let cap = 130;
        let w = ramp_weights(cap);
        let a = BitSet::from_iter_with_capacity(cap, (0..cap).filter(|i| i % 2 == 0));
        let b = BitSet::from_iter_with_capacity(cap, (0..cap).filter(|i| i % 3 == 0));
        let mut inter = a.clone();
        inter.intersect_with(&b);
        let mut uni = a.clone();
        uni.union_with(&b);
        let mut diff = a.clone();
        diff.difference_with(&b);
        assert_eq!(a.weighted_intersection(&b, &w), inter.weighted_mass(&w));
        assert_eq!(a.weighted_union(&b, &w), uni.weighted_mass(&w));
        assert_eq!(a.weighted_difference(&b, &w), diff.weighted_mass(&w));
    }

    #[test]
    #[should_panic(expected = "weight vector length")]
    fn weighted_mass_rejects_wrong_length() {
        BitSet::new(10).weighted_mass(&[0.0; 9]);
    }

    #[test]
    fn block_weights_pad_to_block_multiples() {
        let w = BlockWeights::new(&[1.0, 2.0, 3.0]);
        assert_eq!(w.capacity(), 3);
        assert_eq!(w.weights(), &[1.0, 2.0, 3.0]);
        assert_eq!(w.weight(2), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn block_weights_weight_checks_capacity() {
        BlockWeights::new(&[1.0, 2.0]).weight(2);
    }

    #[test]
    fn block_weights_masses_match_bitset_kernels_bitwise() {
        for cap in [1, 63, 64, 65, 129, 300] {
            let raw = ramp_weights(cap);
            let w = BlockWeights::new(&raw);
            let a = BitSet::from_iter_with_capacity(cap, (0..cap).filter(|i| i % 5 != 1));
            let b = BitSet::from_iter_with_capacity(cap, (0..cap).filter(|i| i % 7 != 2));
            assert_eq!(w.mass(&a), a.weighted_mass(&raw), "cap {cap}");
            assert_eq!(
                w.intersection_mass(&a, &b),
                a.weighted_intersection(&b, &raw),
                "cap {cap}"
            );
            assert_eq!(
                w.union_mass(&a, &b),
                a.weighted_union(&b, &raw),
                "cap {cap}"
            );
            assert_eq!(
                w.difference_mass(&a, &b),
                a.weighted_difference(&b, &raw),
                "cap {cap}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn block_weights_mass_checks_capacity() {
        BlockWeights::new(&[1.0, 2.0]).mass(&BitSet::new(3));
    }
}
