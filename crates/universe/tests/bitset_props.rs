//! Property tests of [`BitSet`] against a `BTreeSet<usize>` model, on
//! capacities either side of every block boundary and of the 128-value
//! inline limit, so both storages answer every operation alike. Its
//! `Debug`, `Hash` and `Ord` must stay those of the block slice plus the
//! capacity, as derived over a `Vec<u64>` field.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};

use proptest::prelude::*;

use diversim_universe::bitset::{BitSet, BlockWeights};

const CAPACITIES: [usize; 10] = [0, 1, 63, 64, 65, 127, 128, 129, 200, 1000];

/// One of [`CAPACITIES`].
fn capacity() -> impl Strategy<Value = usize> {
    (0..CAPACITIES.len()).prop_map(|i| CAPACITIES[i])
}

/// `raw` folded below `capacity` (nothing at capacity 0).
fn values(capacity: usize, raw: Vec<usize>) -> Vec<usize> {
    if capacity == 0 {
        return Vec::new();
    }
    raw.into_iter().map(|v| v % capacity).collect()
}

fn set_and_model(capacity: usize, values: &[usize]) -> (BitSet, BTreeSet<usize>) {
    (
        BitSet::from_iter_with_capacity(capacity, values.iter().copied()),
        values.iter().copied().collect(),
    )
}

/// Deterministic non-negative weights with no pattern across blocks.
fn weights(capacity: usize) -> Vec<f64> {
    (0..capacity)
        .map(|i| ((i * 7919) % 1009) as f64 / 1009.0 + 1e-3)
        .collect()
}

/// `Σ_{i ∈ model} w[i]`, added in ascending order from `0.0` — the sum
/// every kernel mass must reproduce bit for bit.
fn ascending_mass(model: &BTreeSet<usize>, w: &[f64]) -> f64 {
    model.iter().fold(0.0, |acc, &i| acc + w[i])
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

mod derived {
    /// The set as it was before its blocks could live inline: the
    /// derives over a `Vec<u64>` field plus the capacity, which `BitSet`
    /// must keep matching.
    #[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct BitSet {
        pub blocks: Vec<u64>,
        pub capacity: usize,
    }
}

fn derived(s: &BitSet) -> derived::BitSet {
    derived::BitSet {
        blocks: s.blocks().to_vec(),
        capacity: s.capacity(),
    }
}

fn as_tuple(s: &BitSet) -> (Vec<u64>, usize) {
    (s.blocks().to_vec(), s.capacity())
}

proptest! {
    #[test]
    fn single_value_operations_match_the_model(
        capacity in capacity(),
        ops in proptest::collection::vec((0u8..3, 0usize..1100), 0..300),
    ) {
        let mut set = BitSet::new(capacity);
        let mut model = BTreeSet::new();
        for (op, raw) in ops {
            match op {
                0 if capacity > 0 => {
                    let v = raw % capacity;
                    prop_assert_eq!(set.insert(v), model.insert(v));
                }
                1 if capacity > 0 => {
                    let v = raw % capacity;
                    prop_assert_eq!(set.remove(v), model.remove(&v));
                }
                // Membership is also asked beyond the capacity.
                _ => prop_assert_eq!(set.contains(raw), model.contains(&raw)),
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        prop_assert!(set.iter().eq(model.iter().copied()));
        prop_assert_eq!(set.blocks().len(), capacity.div_ceil(64));
        set.clear();
        prop_assert!(set.is_empty());
    }

    #[test]
    fn set_algebra_and_masses_match_the_model(
        capacity in capacity(),
        a in proptest::collection::vec(0usize..1000, 0..80),
        b in proptest::collection::vec(0usize..1000, 0..80),
    ) {
        let (sa, ma) = set_and_model(capacity, &values(capacity, a));
        let (sb, mb) = set_and_model(capacity, &values(capacity, b));

        let mut union = sa.clone();
        union.union_with(&sb);
        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        let mut diff = sa.clone();
        diff.difference_with(&sb);
        let m_union: BTreeSet<usize> = ma.union(&mb).copied().collect();
        let m_inter: BTreeSet<usize> = ma.intersection(&mb).copied().collect();
        let m_diff: BTreeSet<usize> = ma.difference(&mb).copied().collect();
        prop_assert!(union.iter().eq(m_union.iter().copied()));
        prop_assert!(inter.iter().eq(m_inter.iter().copied()));
        prop_assert!(diff.iter().eq(m_diff.iter().copied()));
        prop_assert_eq!(sa.intersection_len(&sb), m_inter.len());
        prop_assert_eq!(sa.intersects(&sb), !m_inter.is_empty());
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));

        let w = weights(capacity);
        let bw = BlockWeights::new(&w);
        for (set, model) in [(&sa, &ma), (&union, &m_union), (&inter, &m_inter), (&diff, &m_diff)] {
            let expected = ascending_mass(model, &w).to_bits();
            prop_assert_eq!(set.weighted_mass(&w).to_bits(), expected);
            prop_assert_eq!(bw.mass(set).to_bits(), expected);
        }
        prop_assert_eq!(sa.weighted_intersection(&sb, &w).to_bits(), ascending_mass(&m_inter, &w).to_bits());
        prop_assert_eq!(sa.weighted_union(&sb, &w).to_bits(), ascending_mass(&m_union, &w).to_bits());
        prop_assert_eq!(sa.weighted_difference(&sb, &w).to_bits(), ascending_mass(&m_diff, &w).to_bits());
        prop_assert_eq!(bw.intersection_mass(&sa, &sb).to_bits(), ascending_mass(&m_inter, &w).to_bits());
        prop_assert_eq!(bw.union_mass(&sa, &sb).to_bits(), ascending_mass(&m_union, &w).to_bits());
        prop_assert_eq!(bw.difference_mass(&sa, &sb).to_bits(), ascending_mass(&m_diff, &w).to_bits());
    }

    #[test]
    fn debug_hash_and_order_are_those_of_blocks_and_capacity(
        cap_a in capacity(),
        cap_b in capacity(),
        a in proptest::collection::vec(0usize..1000, 0..6),
        b in proptest::collection::vec(0usize..1000, 0..6),
    ) {
        let sa = BitSet::from_iter_with_capacity(cap_a, values(cap_a, a));
        let sb = BitSet::from_iter_with_capacity(cap_b, values(cap_b, b));
        for s in [&sa, &sb] {
            prop_assert_eq!(format!("{s:?}"), format!("{:?}", derived(s)));
            prop_assert_eq!(format!("{s:#?}"), format!("{:#?}", derived(s)));
            prop_assert_eq!(hash_of(s), hash_of(&as_tuple(s)));
            prop_assert_eq!(hash_of(s), hash_of(&derived(s)));
        }
        let expected: Ordering = as_tuple(&sa).cmp(&as_tuple(&sb));
        prop_assert_eq!(derived(&sa).cmp(&derived(&sb)), expected);
        prop_assert_eq!(sa.cmp(&sb), expected);
        prop_assert_eq!(sa.partial_cmp(&sb), Some(expected));
        prop_assert_eq!(sa == sb, expected == Ordering::Equal);
        // Equal contents: the same set, whichever sets built it.
        let mut copy = BitSet::new(cap_a);
        copy.union_with(&sa);
        prop_assert_eq!(copy.cmp(&sa), Ordering::Equal);
        prop_assert_eq!(hash_of(&copy), hash_of(&sa));
    }
}
