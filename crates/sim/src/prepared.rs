//! The per-world precomputation cache owned by a [`crate::scenario::Scenario`].
//!
//! Every campaign evaluates several exact pfds (before/after, version and
//! system level). Doing that straight off the [`FaultModel`] rebuilds the
//! same intermediate data — failure-region
//! [`BitSet`]s, profile lookups —
//! once per *replication*, although all of it depends only on the world
//! (fault model × usage profile). [`Prepared`] hoists that work out of
//! the replication hot loop:
//!
//! * the demand marginals `Q(x)` both as the profile's own flat slice
//!   and in the kernel's block-major [`BlockWeights`] layout (one
//!   64-entry chunk per bit-set block, so masked masses walk aligned
//!   `(u64, [f64; 64])` pairs);
//! * the usage mass of every fault's failure region (`Σ_{x ∈ region(f)}
//!   Q(x)`), the "fault-region × profile weights" table;
//! * an [`EvalStrategy`] chosen once per world from the region
//!   structure: one-demand regions ascending with the fault id (every
//!   singleton world, the paper's abstract score model) decompose pfds
//!   fault-by-fault with no set materialised at all; worlds whose total
//!   region footprint is tiny relative to the space union explicit index
//!   lists instead of scanning packed blocks; everything else runs the
//!   packed weighted-popcount kernel.
//!
//! Whatever the strategy, every mass is accumulated in ascending demand
//! order into a single `f64` that starts at `+0.0`, so the three paths
//! agree bit-for-bit, an empty failure set included (see
//! [`BitSet::weighted_mass`](diversim_universe::bitset::BitSet::weighted_mass)).
//!
//! A campaign evaluates a whole state at once — every component's pfd
//! and the system's — through `Prepared::evaluate`, which builds one
//! failure set (or index list) per component and reads every pfd from
//! it; [`Prepared::version_pfd`], [`Prepared::pair_pfd`] and
//! [`Prepared::structure_pfd`] each build theirs per call and give the
//! same bits.
//!
//! The cache is built once per scenario and shared (via `Arc`) by every
//! replication on every worker thread.

use std::sync::Arc;

use diversim_core::structure::Structure;
use diversim_universe::bitset::{BitSet, BlockWeights};
use diversim_universe::fault::FaultModel;
use diversim_universe::profile::UsageProfile;
use diversim_universe::version::Version;

/// How [`Prepared`] evaluates version/pair pfds, chosen at
/// [`Prepared::new`] time from the world's region structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Every region is one demand, and the demands ascend with the fault
    /// id: pfds decompose fault-by-fault over the precomputed region
    /// masses, added in the same ascending-demand order as the kernel.
    /// Wider regions, even disjoint ones, would regroup the additions.
    Disjoint,
    /// Regions whose total size is at most one demand per bit-set block
    /// (`Σ region sizes · 64 ≤ demands`): failure sets are merged as
    /// sorted index lists, cheaper than touching every packed block of a
    /// huge, almost-empty space.
    SparseUnion,
    /// General case: failure sets are materialised as packed bit sets
    /// and masses come from the block-major weighted-popcount kernel.
    DenseBlocks,
}

/// Precomputed per-world evaluation tables (see the module docs).
///
/// The demand marginals live on the held [`UsageProfile`] itself
/// ([`UsageProfile::probabilities`] is already a flat `&[f64]`); what
/// the cache adds is the block-major weight layout, the per-fault
/// region masses and the evaluation strategy.
#[derive(Debug)]
pub struct Prepared {
    model: Arc<FaultModel>,
    profile: UsageProfile,
    /// `fault_mass[f] = Σ_{x ∈ region(f)} Q(x)`, indexed by fault.
    fault_mass: Box<[f64]>,
    /// `Q(·)` in block-major kernel layout, mirroring
    /// [`UsageProfile::probabilities`].
    weights: BlockWeights,
    strategy: EvalStrategy,
}

impl Prepared {
    /// Builds the cache for one world. Cost is `O(demands + Σ region
    /// sizes)` — paid once per scenario, not once per replication.
    pub fn new(model: Arc<FaultModel>, profile: UsageProfile) -> Self {
        let weights = profile.probabilities();
        let regions: Vec<_> = model.fault_ids().map(|f| model.fault(f).region()).collect();
        let fault_mass: Box<[f64]> = regions
            .iter()
            .map(|r| r.iter().fold(0.0, |acc, &x| acc + weights[x.index()]))
            .collect();
        // One-demand regions ascending with the fault id: adding their
        // masses in fault order repeats the kernel's additions exactly.
        let singletons = regions.iter().all(|r| r.len() == 1);
        let strategy = if singletons && regions.windows(2).all(|w| w[0] < w[1]) {
            EvalStrategy::Disjoint
        } else {
            let total_region: usize = regions.iter().map(|r| r.len()).sum();
            if total_region * 64 <= model.space().len() {
                EvalStrategy::SparseUnion
            } else {
                EvalStrategy::DenseBlocks
            }
        };
        let weights = BlockWeights::new(weights);
        Prepared {
            model,
            profile,
            fault_mass,
            weights,
            strategy,
        }
    }

    /// The world's fault model.
    pub fn model(&self) -> &Arc<FaultModel> {
        &self.model
    }

    /// The world's operational profile `Q(·)`.
    pub fn profile(&self) -> &UsageProfile {
        &self.profile
    }

    /// The evaluation strategy chosen for this world.
    pub fn strategy(&self) -> EvalStrategy {
        self.strategy
    }

    /// The version's failure demands as one sorted, deduplicated index
    /// list (the sparse-union analogue of
    /// [`Version::failure_set`]).
    fn sparse_failure_indices(&self, v: &Version) -> Vec<u32> {
        let mut idx: Vec<u32> = Vec::new();
        for f in v.faults() {
            for &x in self.model.fault(f).region() {
                idx.push(x.raw());
            }
        }
        idx.sort_unstable();
        idx.dedup();
        idx
    }

    /// `Σ Q(x)` over ascending demand indices, from `+0.0`.
    fn index_mass(&self, indices: impl Iterator<Item = u32>) -> f64 {
        indices.fold(0.0, |acc, i| acc + self.weights.weight(i as usize))
    }

    /// The pair's shared failure mass from two sorted index lists.
    fn index_intersection_mass(&self, a: &[u32], b: &[u32]) -> f64 {
        self.index_mass(a.iter().copied().filter(|i| b.binary_search(i).is_ok()))
    }

    /// The system mass of demand failure sets, one per component, under
    /// `structure`.
    fn structure_mass(&self, sets: &[BitSet], structure: &Structure) -> f64 {
        let failed = structure.failure_set_unchecked(&|i| &sets[i], self.model.space().len());
        self.weights.mass(&failed)
    }

    /// Exact pfd of one version: `Σ_x υ(π, x) Q(x)`.
    ///
    /// Equals [`Version::pfd`] bit-for-bit but reuses the precomputed
    /// tables; with disjoint regions it runs in `O(version faults)`
    /// without building a failure set, and on sparse-union worlds in
    /// `O(Σ region sizes · log)` independent of the space size.
    pub fn version_pfd(&self, v: &Version) -> f64 {
        match self.strategy {
            EvalStrategy::Disjoint => v.fault_set().weighted_mass(&self.fault_mass),
            EvalStrategy::SparseUnion => {
                self.index_mass(self.sparse_failure_indices(v).into_iter())
            }
            EvalStrategy::DenseBlocks => self.weights.mass(&v.failure_set(&self.model)),
        }
    }

    /// Exact 1-out-of-2 system pfd of a concrete pair:
    /// `Σ_x υ(π₁,x) υ(π₂,x) Q(x)`.
    ///
    /// With disjoint regions the pair fails exactly on the regions of the
    /// *shared* faults, so the sum runs over the fault-set intersection;
    /// otherwise the shared failure mass is a masked weighted dot product
    /// (or a search of one sorted index list in the other on
    /// sparse-union worlds).
    pub fn pair_pfd(&self, a: &Version, b: &Version) -> f64 {
        match self.strategy {
            EvalStrategy::Disjoint => a
                .fault_set()
                .weighted_intersection(b.fault_set(), &self.fault_mass),
            EvalStrategy::SparseUnion => self.index_intersection_mass(
                &self.sparse_failure_indices(a),
                &self.sparse_failure_indices(b),
            ),
            EvalStrategy::DenseBlocks => self
                .weights
                .intersection_mass(&a.failure_set(&self.model), &b.failure_set(&self.model)),
        }
    }

    /// Exact system pfd of `versions` composed under `structure`:
    /// `Σ_x 1[φ fails at x] Q(x)`, bit-for-bit
    /// [`diversim_core::system::structure_system_pfd`]. An AND over two
    /// leaves (the paper's pair) is [`Prepared::pair_pfd`]; any other
    /// tree runs the failure-set algebra of [`Structure::failure_set`]
    /// over the versions' fault sets on a [`EvalStrategy::Disjoint`]
    /// world (no demand set is built), over their demand failure sets
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `structure` is malformed or indexes a component at or
    /// beyond `versions.len()`: scenario construction validates the tree
    /// once, so this does not.
    pub fn structure_pfd(&self, versions: &[Version], structure: &Structure) -> f64 {
        self.evaluate(versions, structure, &mut [])
    }

    /// Evaluates one campaign state: writes every component's pfd into
    /// `component_pfds` (one slot per version, or none when it is empty)
    /// and returns the system pfd of `versions` under `structure`, from
    /// one failure set (or index list) per component. The values are
    /// [`Prepared::version_pfd`]'s and [`Prepared::structure_pfd`]'s, by
    /// bits.
    ///
    /// # Panics
    ///
    /// As [`Prepared::structure_pfd`].
    pub(crate) fn evaluate(
        &self,
        versions: &[Version],
        structure: &Structure,
        component_pfds: &mut [f64],
    ) -> f64 {
        let pair = match structure {
            Structure::And(gate) => match gate.as_slice() {
                [Structure::Component(i), Structure::Component(j)] => Some((*i, *j)),
                _ => None,
            },
            _ => None,
        };
        match self.strategy {
            EvalStrategy::Disjoint => {
                for (pfd, v) in component_pfds.iter_mut().zip(versions) {
                    *pfd = self.version_pfd(v);
                }
                if let Some((i, j)) = pair {
                    return self.pair_pfd(&versions[i], &versions[j]);
                }
                let capacity = self.model.fault_count();
                let failed =
                    structure.failure_set_unchecked(&|i| versions[i].fault_set(), capacity);
                failed.weighted_mass(&self.fault_mass)
            }
            EvalStrategy::SparseUnion => {
                let lists: Vec<Vec<u32>> = versions
                    .iter()
                    .map(|v| self.sparse_failure_indices(v))
                    .collect();
                for (pfd, list) in component_pfds.iter_mut().zip(&lists) {
                    *pfd = self.index_mass(list.iter().copied());
                }
                match pair {
                    Some((i, j)) => self.index_intersection_mass(&lists[i], &lists[j]),
                    None => self.structure_mass(&self.failure_sets(versions), structure),
                }
            }
            EvalStrategy::DenseBlocks => {
                let sets = self.failure_sets(versions);
                for (pfd, set) in component_pfds.iter_mut().zip(&sets) {
                    *pfd = self.weights.mass(set);
                }
                match pair {
                    Some((i, j)) => self.weights.intersection_mass(&sets[i], &sets[j]),
                    None => self.structure_mass(&sets, structure),
                }
            }
        }
    }

    /// Every version's demand failure set.
    fn failure_sets(&self, versions: &[Version]) -> Vec<BitSet> {
        versions
            .iter()
            .map(|v| v.failure_set(&self.model))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversim_core::system::structure_system_pfd;
    use diversim_universe::demand::{DemandId, DemandSpace};
    use diversim_universe::fault::{FaultId, FaultModelBuilder};

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    /// The core crate's 1-out-of-2 system pfd, the reference every
    /// strategy must match.
    fn pair_pfd(a: &Version, b: &Version, model: &FaultModel, q: &UsageProfile) -> f64 {
        structure_system_pfd(&Structure::one_out_of_n(2), &[a, b], model, q).unwrap()
    }

    #[test]
    fn singleton_world_takes_the_disjoint_fast_path() {
        let space = DemandSpace::new(4).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .singleton_faults()
                .build()
                .unwrap(),
        );
        let q = UsageProfile::from_weights(space, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let p = Prepared::new(Arc::clone(&model), q.clone());
        assert_eq!(p.strategy(), EvalStrategy::Disjoint);
        let a = Version::from_faults(&model, [f(0), f(2)]);
        let b = Version::from_faults(&model, [f(2), f(3)]);
        assert_eq!(p.version_pfd(&a), a.pfd(&model, &q));
        assert_eq!(p.version_pfd(&b), b.pfd(&model, &q));
        assert_eq!(p.pair_pfd(&a, &b), pair_pfd(&a, &b, &model, &q));
        // The same singletons numbered against the demand order would add
        // the masses out of ascending demand order.
        let descending = FaultModelBuilder::new(space)
            .fault([d(3)])
            .fault([d(2)])
            .fault([d(1)])
            .fault([d(0)])
            .build()
            .unwrap();
        let p = Prepared::new(Arc::new(descending), q);
        assert_ne!(p.strategy(), EvalStrategy::Disjoint);
    }

    #[test]
    fn overlapping_regions_fall_back_to_failure_sets() {
        // Faults {0,1} and {1,2} share demand 1: the general path must not
        // double count it.
        let space = DemandSpace::new(3).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .fault([d(0), d(1)])
                .fault([d(1), d(2)])
                .build()
                .unwrap(),
        );
        let q = UsageProfile::uniform(space);
        let p = Prepared::new(Arc::clone(&model), q.clone());
        assert_ne!(p.strategy(), EvalStrategy::Disjoint);
        let both = Version::from_faults(&model, [f(0), f(1)]);
        assert!((p.version_pfd(&both) - 1.0).abs() < 1e-15);
        assert_eq!(p.version_pfd(&both), both.pfd(&model, &q));
        let a = Version::from_faults(&model, [f(0)]);
        let b = Version::from_faults(&model, [f(1)]);
        // They overlap only on demand 1.
        assert!((p.pair_pfd(&a, &b) - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(p.pair_pfd(&a, &b), pair_pfd(&a, &b, &model, &q));
    }

    /// Every version over the first `n` faults, one per fault subset.
    fn all_versions(model: &FaultModel, n: u32) -> Vec<Version> {
        (0u32..1 << n)
            .map(|mask| Version::from_faults(model, (0..n).filter(|i| mask & (1 << i) != 0).map(f)))
            .collect()
    }

    #[test]
    fn disjoint_multi_demand_regions_match_exact_values() {
        // Disjoint but wider than one demand: summing region masses would
        // regroup the ascending-demand additions, so the world leaves the
        // fault-by-fault path and matches the exact values bit for bit.
        let space = DemandSpace::new(6).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .fault([d(0), d(1)])
                .fault([d(2)])
                .fault([d(3), d(4), d(5)])
                .build()
                .unwrap(),
        );
        let q = UsageProfile::zipf(space, 0.7).unwrap();
        let p = Prepared::new(Arc::clone(&model), q.clone());
        assert_eq!(p.strategy(), EvalStrategy::DenseBlocks);
        let w = Version::from_faults(&model, [f(1)]);
        for v in all_versions(&model, 3) {
            assert_eq!(p.version_pfd(&v), v.pfd(&model, &q));
            assert_eq!(p.pair_pfd(&v, &w), pair_pfd(&v, &w, &model, &q));
        }
    }

    #[test]
    fn sparse_union_strategy_on_big_mostly_empty_spaces() {
        // 2048-demand space (32 blocks), two overlapping 3-demand regions:
        // total footprint 6 ≤ 2048 / 64, so the sorted-list path engages.
        let space = DemandSpace::new(2048).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .fault([d(100), d(700), d(1500)])
                .fault([d(700), d(1500), d(2000)])
                .build()
                .unwrap(),
        );
        let q = UsageProfile::zipf(space, 0.4).unwrap();
        let p = Prepared::new(Arc::clone(&model), q.clone());
        assert_eq!(p.strategy(), EvalStrategy::SparseUnion);
        let a = Version::from_faults(&model, [f(0)]);
        let b = Version::from_faults(&model, [f(1)]);
        let both = Version::from_faults(&model, [f(0), f(1)]);
        assert_eq!(p.version_pfd(&both), both.pfd(&model, &q));
        assert_eq!(p.pair_pfd(&a, &b), pair_pfd(&a, &b, &model, &q));
        // The same world forced through the dense kernel must agree to
        // the bit: both paths sum in ascending demand order.
        let dense = Prepared {
            model: Arc::clone(p.model()),
            profile: p.profile().clone(),
            fault_mass: p.fault_mass.clone(),
            weights: p.weights.clone(),
            strategy: EvalStrategy::DenseBlocks,
        };
        assert_eq!(dense.version_pfd(&both), p.version_pfd(&both));
        assert_eq!(dense.pair_pfd(&a, &b), p.pair_pfd(&a, &b));
    }

    #[test]
    fn dense_strategy_when_regions_are_broad() {
        let space = DemandSpace::new(64).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .fault((0..40).map(d).collect::<Vec<_>>())
                .fault((20..60).map(d).collect::<Vec<_>>())
                .build()
                .unwrap(),
        );
        let q = UsageProfile::uniform(space);
        let p = Prepared::new(Arc::clone(&model), q.clone());
        assert_eq!(p.strategy(), EvalStrategy::DenseBlocks);
        let a = Version::from_faults(&model, [f(0)]);
        let b = Version::from_faults(&model, [f(1)]);
        assert_eq!(p.version_pfd(&a), a.pfd(&model, &q));
        assert_eq!(p.pair_pfd(&a, &b), pair_pfd(&a, &b, &model, &q));
    }

    /// One prepared world per evaluation strategy, plus disjoint regions
    /// wider than one demand under eight Zipf profiles (summing their
    /// masses would regroup the kernel's ascending-demand additions).
    fn strategy_worlds() -> Vec<Prepared> {
        let space = DemandSpace::new(4).unwrap();
        let singletons = FaultModelBuilder::new(space).singleton_faults();
        let overlapping = FaultModelBuilder::new(space)
            .fault([d(0), d(1), d(2)])
            .fault([d(1), d(2), d(3)]);
        let big = DemandSpace::new(2048).unwrap();
        let sparse = FaultModelBuilder::new(big)
            .fault([d(100), d(700), d(1500)])
            .fault([d(700), d(1500), d(2000)])
            .fault([d(3)]);
        let mut worlds = vec![
            Prepared::new(
                Arc::new(singletons.build().unwrap()),
                UsageProfile::from_weights(space, vec![0.1, 0.2, 0.3, 0.4]).unwrap(),
            ),
            Prepared::new(
                Arc::new(sparse.build().unwrap()),
                UsageProfile::zipf(big, 0.4).unwrap(),
            ),
            Prepared::new(
                Arc::new(overlapping.build().unwrap()),
                UsageProfile::zipf(space, 0.5).unwrap(),
            ),
        ];
        let strategies: Vec<EvalStrategy> = worlds.iter().map(Prepared::strategy).collect();
        assert_eq!(
            strategies,
            [
                EvalStrategy::Disjoint,
                EvalStrategy::SparseUnion,
                EvalStrategy::DenseBlocks
            ]
        );
        let wide_space = DemandSpace::new(9).unwrap();
        let wide = Arc::new(
            FaultModelBuilder::new(wide_space)
                .fault([d(0), d(1), d(2)])
                .fault([d(3), d(4)])
                .fault([d(5), d(6), d(7), d(8)])
                .build()
                .unwrap(),
        );
        for step in 0..8 {
            let q = UsageProfile::zipf(wide_space, 0.3 + 0.2 * f64::from(step)).unwrap();
            worlds.push(Prepared::new(Arc::clone(&wide), q));
        }
        worlds
    }

    #[test]
    fn structure_pfd_flat_cases_match_the_fast_paths() {
        // On every strategy, the degenerate shapes land on the values of
        // the specialised paths to the bit: the pair on the core
        // reference, a bare component and an AND of one leaf twice on
        // the version's pfd.
        let and2 = Structure::one_out_of_n(2);
        let solo = Structure::component(0);
        let twice = Structure::and(vec![solo.clone(), solo.clone()]);
        for p in &strategy_worlds() {
            let (model, q) = (p.model(), p.profile());
            let versions = all_versions(model, model.fault_count() as u32);
            for a in &versions {
                for b in &versions {
                    let pair = [a.clone(), b.clone()];
                    assert_eq!(
                        p.structure_pfd(&pair, &and2).to_bits(),
                        pair_pfd(a, b, model, q).to_bits(),
                        "{:?} pair {:?} / {:?}",
                        p.strategy(),
                        a.faults().collect::<Vec<_>>(),
                        b.faults().collect::<Vec<_>>()
                    );
                }
                let alone = [a.clone()];
                let pfd = p.version_pfd(a).to_bits();
                assert_eq!(p.structure_pfd(&alone, &solo).to_bits(), pfd);
                assert_eq!(p.structure_pfd(&alone, &twice).to_bits(), pfd);
                assert_eq!(p.pair_pfd(a, a).to_bits(), pfd);
            }
        }
    }

    #[test]
    fn structure_pfd_matches_core_path_bit_for_bit() {
        // Every tuple over a palette of four versions — the correct one,
        // two single faults and every fault — on every strategy: the
        // tuples include systems that fail nowhere. The state evaluator
        // gives the same system pfd, and each component's pfd is the
        // version's own.
        for p in &strategy_worlds() {
            let model = p.model();
            let n = model.fault_count() as u32;
            let palette = [
                Version::correct(model),
                Version::from_faults(model, [f(0)]),
                Version::from_faults(model, [f(1)]),
                Version::from_faults(model, (0..n).map(f)),
            ];
            for s in [
                Structure::one_out_of_n(2),
                Structure::series(3),
                Structure::one_out_of_n(3),
                Structure::k_of_n(2, 3),
                Structure::bridge(),
            ] {
                let width = s.component_count() as u32;
                let mut fails_nowhere = 0;
                for code in 0..palette.len().pow(width) {
                    let versions: Vec<Version> = (0..width)
                        .map(|i| palette[code / palette.len().pow(i) % palette.len()].clone())
                        .collect();
                    let refs: Vec<&Version> = versions.iter().collect();
                    let want = structure_system_pfd(&s, &refs, model, p.profile()).unwrap();
                    let at = format!("{:?} {s:?} tuple {code}", p.strategy());
                    assert_eq!(
                        p.structure_pfd(&versions, &s).to_bits(),
                        want.to_bits(),
                        "{at}"
                    );
                    let mut pfds = vec![f64::NAN; versions.len()];
                    let system = p.evaluate(&versions, &s, &mut pfds);
                    assert_eq!(system.to_bits(), want.to_bits(), "{at}");
                    for (pfd, v) in pfds.iter().zip(&versions) {
                        assert_eq!(pfd.to_bits(), p.version_pfd(v).to_bits(), "{at}");
                        assert_eq!(pfd.to_bits(), v.pfd(model, p.profile()).to_bits(), "{at}");
                    }
                    if let [a, b] = versions.as_slice() {
                        assert_eq!(system.to_bits(), p.pair_pfd(a, b).to_bits(), "{at}");
                    }
                    fails_nowhere += usize::from(want == 0.0);
                }
                assert!(fails_nowhere > 0, "{s:?} always fails somewhere");
            }
        }
    }

    #[test]
    fn empty_failure_sets_weigh_positive_zero_on_every_strategy() {
        // The kernel's sums start at +0.0; an empty fast-path sum must not
        // be -0.0.
        for p in &strategy_worlds() {
            let model = p.model();
            let correct = Version::correct(model);
            let (a, b) = (
                Version::from_faults(model, [f(0)]),
                Version::from_faults(model, [f(1)]),
            );
            let zero = 0.0f64.to_bits();
            assert_eq!(p.version_pfd(&correct).to_bits(), zero);
            assert_eq!(p.pair_pfd(&correct, &correct).to_bits(), zero);
            assert_eq!(correct.pfd(model, p.profile()).to_bits(), zero);
            if p.strategy() == EvalStrategy::Disjoint {
                // Faults 0 and 1 fail on different demands.
                assert_eq!(p.pair_pfd(&a, &b).to_bits(), zero);
            }
        }
    }
}
