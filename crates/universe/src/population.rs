//! Program populations: the measure `S(·)` over `℘`.
//!
//! "An actual product development is then the random selection of π from
//! ℘ … The measure S(·) can be thought of as representing the development
//! methodology used." Two representations are provided:
//!
//! * [`ExplicitPopulation`] — a finite list of versions with selection
//!   probabilities; supports exact enumeration of every expectation and
//!   is the workhorse of `diversim-exact`;
//! * [`BernoulliPopulation`] — a generative *fault-creation process* (in
//!   the spirit of the paper's reference \[7\]): each potential fault is
//!   committed independently with a methodology-specific propensity.
//!   `θ(x)` then has the closed form `1 − Π_{f ∈ O_x} (1 − p_f)`.
//!
//! *Forced diversity* (the Littlewood–Miller setting) is modelled simply
//! by using two different populations over the same fault model.
//!
//! # Sampling contract
//!
//! [`BernoulliPopulation::sample`] takes one `next_u64` per uncertain
//! fault (`0 < p < 1`), in ascending fault order, and none for a fault
//! of propensity 0 or 1. The fault is present iff `next_u64() >> 11` is
//! below `⌈p·2^53⌉`, which is exactly `u < p` for the vendored
//! `gen::<f64>()`, `u = (next_u64() >> 11)·2^-53`: an integer `k` is below
//! the real `p·2^53` iff it is below its ceiling, and `p·2^53` is exact
//! in `f64`. Each 64-fault block of the version is assembled in one
//! word.

use std::sync::Arc;

use rand::RngCore;

use diversim_stats::alias::AliasSampler;

use crate::bitset::BitSet;
use crate::demand::DemandId;
use crate::error::UniverseError;
use crate::fault::{FaultId, FaultModel};
use crate::profile::UsageProfile;
use crate::version::Version;

/// A probability measure over program versions (the paper's `S(·)`).
///
/// Implementations are object-safe so that higher layers can mix
/// methodologies dynamically (`&dyn Population`).
pub trait Population: std::fmt::Debug + Send + Sync {
    /// The fault model this population's versions are defined over.
    fn model(&self) -> &Arc<FaultModel>;

    /// Draws a random version `Π ~ S(·)`.
    fn sample(&self, rng: &mut dyn RngCore) -> Version;

    /// The difficulty function `θ(x)`: the probability that a randomly
    /// chosen program fails on demand `x` (paper equation (1)).
    fn theta(&self, x: DemandId) -> f64;

    /// Enumerates the population's support with probabilities, if its size
    /// does not exceed `limit`. Returns `None` when enumeration would be
    /// larger than `limit` versions.
    fn enumerate(&self, limit: usize) -> Option<Vec<(Version, f64)>>;

    /// `E[Θ] = Σ_x θ(x) Q(x)`: the probability that a random program fails
    /// on a random demand (paper equation (2)).
    fn mean_pfd(&self, profile: &UsageProfile) -> f64 {
        profile.expect(|x| self.theta(x))
    }

    /// The difficulty function evaluated on every demand, indexed by
    /// demand.
    fn theta_vector(&self) -> Vec<f64> {
        self.model().space().iter().map(|x| self.theta(x)).collect()
    }
}

/// A finite population: versions with explicit selection probabilities.
#[derive(Debug, Clone)]
pub struct ExplicitPopulation {
    model: Arc<FaultModel>,
    versions: Vec<Version>,
    probabilities: Vec<f64>,
    sampler: AliasSampler,
}

impl ExplicitPopulation {
    /// Builds a population from `(version, weight)` pairs; weights are
    /// normalised.
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::InvalidPopulation`] for an empty list or
    /// degenerate weights.
    pub fn new(
        model: Arc<FaultModel>,
        weighted_versions: Vec<(Version, f64)>,
    ) -> Result<Self, UniverseError> {
        if weighted_versions.is_empty() {
            return Err(UniverseError::InvalidPopulation {
                reason: "no versions supplied",
            });
        }
        let weights: Vec<f64> = weighted_versions.iter().map(|(_, w)| *w).collect();
        let sampler =
            AliasSampler::new(&weights).map_err(|_| UniverseError::InvalidPopulation {
                reason: "degenerate weights",
            })?;
        let probabilities = sampler.probabilities().to_vec();
        let versions = weighted_versions.into_iter().map(|(v, _)| v).collect();
        Ok(Self {
            model,
            versions,
            probabilities,
            sampler,
        })
    }

    /// A population selecting uniformly among the given versions.
    ///
    /// # Errors
    ///
    /// Same as [`ExplicitPopulation::new`].
    pub fn uniform(model: Arc<FaultModel>, versions: Vec<Version>) -> Result<Self, UniverseError> {
        let weighted = versions.into_iter().map(|v| (v, 1.0)).collect();
        Self::new(model, weighted)
    }

    /// Number of versions in the support.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Returns `true` if the support is empty (never true after
    /// construction; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Iterates `(version, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Version, f64)> {
        self.versions.iter().zip(self.probabilities.iter().copied())
    }
}

impl Population for ExplicitPopulation {
    fn model(&self) -> &Arc<FaultModel> {
        &self.model
    }

    fn sample(&self, rng: &mut dyn RngCore) -> Version {
        self.versions[self.sampler.sample(rng)].clone()
    }

    fn theta(&self, x: DemandId) -> f64 {
        self.iter().map(|(v, p)| v.score(&self.model, x) * p).sum()
    }

    fn enumerate(&self, limit: usize) -> Option<Vec<(Version, f64)>> {
        if self.versions.len() > limit {
            return None;
        }
        Some(self.iter().map(|(v, p)| (v.clone(), p)).collect())
    }
}

/// A generative population: each potential fault of the model is present
/// independently with a per-fault propensity (the *fault-creation
/// process*).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use diversim_universe::demand::{DemandId, DemandSpace};
/// use diversim_universe::fault::FaultModelBuilder;
/// use diversim_universe::population::{BernoulliPopulation, Population};
///
/// let space = DemandSpace::new(2).unwrap();
/// let model = Arc::new(
///     FaultModelBuilder::new(space)
///         .fault([DemandId::new(0)])
///         .fault([DemandId::new(1)])
///         .build()
///         .unwrap(),
/// );
/// let pop = BernoulliPopulation::new(model, vec![0.5, 0.1]).unwrap();
/// // θ(x0) = p0 = 0.5 (one covering fault).
/// assert!((pop.theta(DemandId::new(0)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct BernoulliPopulation {
    model: Arc<FaultModel>,
    propensities: Vec<f64>,
    /// Per fault: [`NEVER`], [`ALWAYS`], or `⌈p·2^53⌉` (see the module
    /// docs' sampling contract).
    thresholds: Box<[u64]>,
}

/// The threshold of a fault of propensity 0: absent, with no draw.
const NEVER: u64 = 0;
/// The threshold of a fault of propensity 1: present, with no draw.
const ALWAYS: u64 = u64::MAX;

/// The draw threshold of a propensity `p ∈ [0, 1]`: `⌈p·2^53⌉`, which lies
/// in `1..2^53` for `0 < p < 1` and is [`NEVER`] at `p = 0`; [`ALWAYS`] at
/// `p = 1`.
fn threshold(p: f64) -> u64 {
    if p >= 1.0 {
        ALWAYS
    } else {
        (p * (1u64 << 53) as f64).ceil() as u64
    }
}

impl BernoulliPopulation {
    /// Builds a population from per-fault propensities, one per fault of
    /// the model, each in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::InvalidPopulation`] if the propensity count
    /// differs from the model's fault count, or
    /// [`UniverseError::InvalidProbability`] for out-of-range entries.
    pub fn new(model: Arc<FaultModel>, propensities: Vec<f64>) -> Result<Self, UniverseError> {
        if propensities.len() != model.fault_count() {
            return Err(UniverseError::InvalidPopulation {
                reason: "propensity count must equal the model's fault count",
            });
        }
        for &p in &propensities {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(UniverseError::InvalidProbability {
                    name: "propensity",
                    value: p,
                });
            }
        }
        let thresholds = propensities.iter().map(|&p| threshold(p)).collect();
        Ok(Self {
            model,
            propensities,
            thresholds,
        })
    }

    /// A population where every fault has the same propensity.
    ///
    /// # Errors
    ///
    /// Same as [`BernoulliPopulation::new`].
    pub fn constant(model: Arc<FaultModel>, p: f64) -> Result<Self, UniverseError> {
        let n = model.fault_count();
        Self::new(model, vec![p; n])
    }

    /// The per-fault propensities, indexed by fault.
    pub fn propensities(&self) -> &[f64] {
        &self.propensities
    }

    /// Propensity of one fault.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn propensity(&self, f: FaultId) -> f64 {
        self.propensities[f.index()]
    }

    /// The probability that a random version fails on `x` *after* all
    /// faults triggered by `tested` (a demand bit set) have been perfectly
    /// fixed — the paper's `ξ(x, t)` in closed form:
    /// `1 − Π_{f ∈ O_x, region(f) ∩ t = ∅} (1 − p_f)`.
    ///
    /// With an empty `tested` set this is `θ(x)`.
    pub fn xi(&self, x: DemandId, tested: &BitSet) -> f64 {
        let mut survive_all_correct = 1.0;
        for &f in self.model.faults_at(x) {
            if !self.model.triggered_by(f, tested) {
                survive_all_correct *= 1.0 - self.propensities[f.index()];
            }
        }
        1.0 - survive_all_correct
    }
}

impl Population for BernoulliPopulation {
    fn model(&self) -> &Arc<FaultModel> {
        &self.model
    }

    /// Draws a version under the module docs' sampling contract.
    fn sample(&self, rng: &mut dyn RngCore) -> Version {
        let blocks = self.thresholds.chunks(64).map(|chunk| {
            let mut block = 0;
            for (bit, &t) in chunk.iter().enumerate() {
                let present = match t {
                    NEVER => false,
                    ALWAYS => true,
                    t => rng.next_u64() >> 11 < t,
                };
                block |= u64::from(present) << bit;
            }
            block
        });
        let set = BitSet::from_blocks(self.thresholds.len(), blocks);
        Version::from_fault_set(&self.model, set)
    }

    /// `θ(x) = 1 − Π_{f ∈ O_x} (1 − p_f)`: [`BernoulliPopulation::xi`]
    /// with nothing tested, multiplied in the same fault order, so the
    /// two agree bit for bit.
    fn theta(&self, x: DemandId) -> f64 {
        let mut survive_all_correct = 1.0;
        for &f in self.model.faults_at(x) {
            survive_all_correct *= 1.0 - self.propensities[f.index()];
        }
        1.0 - survive_all_correct
    }

    fn enumerate(&self, limit: usize) -> Option<Vec<(Version, f64)>> {
        let free: Vec<usize> = self
            .propensities
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0 && p < 1.0)
            .map(|(i, _)| i)
            .collect();
        let fixed: Vec<usize> = self
            .propensities
            .iter()
            .enumerate()
            .filter(|(_, &p)| p >= 1.0)
            .map(|(i, _)| i)
            .collect();
        if free.len() >= usize::BITS as usize - 1 {
            return None;
        }
        let count = 1usize << free.len();
        if count > limit {
            return None;
        }
        let mut out = Vec::with_capacity(count);
        for mask in 0..count {
            let mut set = BitSet::new(self.model.fault_count());
            let mut prob = 1.0;
            for (bit, &fi) in free.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    set.insert(fi);
                    prob *= self.propensities[fi];
                } else {
                    prob *= 1.0 - self.propensities[fi];
                }
            }
            for &fi in &fixed {
                set.insert(fi);
            }
            out.push((Version::from_fault_set(&self.model, set), prob));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandSpace;
    use crate::fault::FaultModelBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    /// 3 demands; fault 0 → {0,1}, fault 1 → {1}, fault 2 → {2}.
    fn model() -> Arc<FaultModel> {
        Arc::new(
            FaultModelBuilder::new(DemandSpace::new(3).unwrap())
                .fault([d(0), d(1)])
                .fault([d(1)])
                .fault([d(2)])
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn explicit_population_theta() {
        let m = model();
        let v0 = Version::correct(&m);
        let v1 = Version::from_faults(&m, [f(0)]);
        let pop = ExplicitPopulation::new(m, vec![(v0, 0.5), (v1, 0.5)]).unwrap();
        assert!((pop.theta(d(0)) - 0.5).abs() < 1e-12);
        assert!((pop.theta(d(1)) - 0.5).abs() < 1e-12);
        assert!((pop.theta(d(2)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_population_rejects_empty() {
        assert!(ExplicitPopulation::new(model(), vec![]).is_err());
    }

    #[test]
    fn explicit_enumerate_respects_limit() {
        let m = model();
        let vs = vec![Version::correct(&m), Version::from_faults(&m, [f(1)])];
        let pop = ExplicitPopulation::uniform(m, vs).unwrap();
        assert!(pop.enumerate(1).is_none());
        let full = pop.enumerate(2).unwrap();
        assert_eq!(full.len(), 2);
        let total: f64 = full.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_theta_closed_form() {
        let pop = BernoulliPopulation::new(model(), vec![0.3, 0.5, 0.2]).unwrap();
        // θ(x0) = p0; θ(x1) = 1 − (1−p0)(1−p1); θ(x2) = p2.
        assert!((pop.theta(d(0)) - 0.3).abs() < 1e-12);
        assert!((pop.theta(d(1)) - (1.0 - 0.7 * 0.5)).abs() < 1e-12);
        assert!((pop.theta(d(2)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_validates_propensities() {
        assert!(BernoulliPopulation::new(model(), vec![0.5, 0.5]).is_err());
        assert!(BernoulliPopulation::new(model(), vec![0.5, 1.5, 0.0]).is_err());
        assert!(BernoulliPopulation::new(model(), vec![0.5, f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn bernoulli_enumeration_matches_theta() {
        let pop = BernoulliPopulation::new(model(), vec![0.3, 0.5, 0.2]).unwrap();
        let support = pop.enumerate(8).unwrap();
        assert_eq!(support.len(), 8);
        let total: f64 = support.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let m = pop.model().clone();
        for x in m.space().iter() {
            let enumerated: f64 = support.iter().map(|(v, p)| v.score(&m, x) * p).sum();
            assert!(
                (enumerated - pop.theta(x)).abs() < 1e-12,
                "theta mismatch at {x}"
            );
        }
    }

    #[test]
    fn bernoulli_enumeration_skips_degenerate_faults() {
        // Propensity 0 and 1 faults are fixed, only one free fault remains.
        let pop = BernoulliPopulation::new(model(), vec![0.0, 1.0, 0.5]).unwrap();
        let support = pop.enumerate(8).unwrap();
        assert_eq!(support.len(), 2);
        for (v, _) in &support {
            assert!(v.has_fault(f(1)), "always-present fault missing");
            assert!(!v.has_fault(f(0)), "never-present fault appeared");
        }
    }

    #[test]
    fn bernoulli_sampling_matches_theta() {
        let pop = BernoulliPopulation::new(model(), vec![0.3, 0.5, 0.2]).unwrap();
        let m = pop.model().clone();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let mut fails = [0u64; 3];
        for _ in 0..n {
            let v = pop.sample(&mut rng);
            for x in m.space().iter() {
                if v.fails_on(&m, x) {
                    fails[x.index()] += 1;
                }
            }
        }
        for x in m.space().iter() {
            let freq = fails[x.index()] as f64 / n as f64;
            assert!(
                (freq - pop.theta(x)).abs() < 0.01,
                "empirical {freq} vs theta {} at {x}",
                pop.theta(x)
            );
        }
    }

    /// The propensities at the edges of the threshold arithmetic: 0, 1,
    /// 2^-53, 1 − 2^-53, the smallest subnormal, dyadic values (p·2^53 an
    /// integer) and values with a fractional p·2^53.
    fn edge_propensities() -> Vec<f64> {
        let ulp = 1.0 / (1u64 << 53) as f64;
        vec![
            0.0,
            1.0,
            ulp,
            1.0 - ulp,
            f64::from_bits(1),
            0.5,
            0.25,
            3.0 * ulp,
            0.75 + ulp,
            0.1,
            0.3,
            1.0 / 3.0,
            0.999_999_999,
        ]
    }

    #[test]
    fn thresholds_decide_exactly_as_the_float_compare() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut rng = StdRng::seed_from_u64(24);
        let random = (0..2_000).map(|_| rng.gen::<f64>());
        for p in edge_propensities().into_iter().chain(random) {
            let t = threshold(p);
            if p == 0.0 || p == 1.0 {
                assert_eq!(t, if p == 0.0 { NEVER } else { ALWAYS });
                continue;
            }
            assert!((1..1u64 << 53).contains(&t), "p = {p:e}");
            for k in t.saturating_sub(2)..(t + 2).min(1 << 53) {
                assert_eq!(k < t, (k as f64) * ulp < p, "p = {p:e}, k = {k}");
            }
        }
    }

    #[test]
    fn threshold_sampler_replays_the_float_compare_loop() {
        // The reference: one `gen::<f64>() < p` per fault with 0 < p < 1,
        // in fault order, as `sample` drew before thresholds.
        fn reference(pop: &BernoulliPopulation, rng: &mut StdRng) -> Version {
            let present = pop
                .propensities()
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p >= 1.0 || (p > 0.0 && rng.gen::<f64>() < p))
                .map(|(i, _)| i);
            let set = BitSet::from_iter_with_capacity(pop.model().fault_count(), present);
            Version::from_fault_set(pop.model(), set)
        }
        let edges = edge_propensities();
        let mut rng = StdRng::seed_from_u64(53);
        for n in [0usize, 1, 63, 64, 65, 128, 129, 1000] {
            let space = DemandSpace::new(n.max(1)).unwrap();
            let model = Arc::new(
                (0..n as u32)
                    .fold(FaultModelBuilder::new(space), |b, i| b.fault([d(i)]))
                    .build()
                    .unwrap(),
            );
            let cycled = (0..n).map(|i| edges[i % edges.len()]).collect();
            let random = (0..n).map(|_| rng.gen::<f64>()).collect();
            let mixed = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => 1.0,
                    2 => edges[rng.gen_range(0..edges.len())],
                    _ => rng.gen::<f64>(),
                })
                .collect();
            for props in [cycled, random, mixed] {
                let pop = BernoulliPopulation::new(Arc::clone(&model), props).unwrap();
                for seed in 0..40 {
                    let (mut fast, mut slow) =
                        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    let at = format!("{n} faults, seed {seed}");
                    assert_eq!(pop.sample(&mut fast), reference(&pop, &mut slow), "{at}");
                    assert_eq!(fast.next_u64(), slow.next_u64(), "{at}");
                }
            }
        }
    }

    #[test]
    fn xi_closed_form_reduces_difficulty() {
        let pop = BernoulliPopulation::new(model(), vec![0.3, 0.5, 0.2]).unwrap();
        // Testing demand 0 triggers fault 0 (region {0,1}), so ξ(x1, {0})
        // only keeps fault 1: ξ = p1.
        let mut tested = BitSet::new(3);
        tested.insert(0);
        assert!((pop.xi(d(1), &tested) - 0.5).abs() < 1e-12);
        // And demand 1 in the suite removes both faults covering x1.
        let mut tested2 = BitSet::new(3);
        tested2.insert(1);
        assert!((pop.xi(d(1), &tested2) - 0.0).abs() < 1e-12);
        // θ(x) ≥ ξ(x, t) always.
        for x in pop.model().space().iter() {
            assert!(pop.theta(x) >= pop.xi(x, &tested) - 1e-15);
        }
    }

    #[test]
    fn theta_is_xi_of_the_empty_suite_bit_for_bit() {
        use crate::generator::{ProfileKind, PropensityKind, RegionSize, UniverseSpec};
        let mut rng = StdRng::seed_from_u64(15);
        for (n_demands, n_faults, region_size) in [
            (1, 1, RegionSize::Fixed(1)),
            (6, 11, RegionSize::Uniform { min: 1, max: 4 }),
            (129, 129, RegionSize::Fixed(1)),
            (200, 60, RegionSize::Geometric { mean: 8.0 }),
            (1_000, 300, RegionSize::Uniform { min: 1, max: 40 }),
            (10_000, 500, RegionSize::Geometric { mean: 30.0 }),
        ] {
            let spec = UniverseSpec {
                n_demands,
                n_faults,
                region_size,
                profile: ProfileKind::Uniform,
            };
            let (_, pop) = spec
                .generate_with_population(&mut rng, PropensityKind::Uniform { lo: 0.0, hi: 1.0 })
                .unwrap();
            let nothing_tested = BitSet::new(n_demands);
            for x in pop.model().space().iter() {
                assert_eq!(
                    pop.theta(x).to_bits(),
                    pop.xi(x, &nothing_tested).to_bits(),
                    "{n_demands} demands, demand {x:?}"
                );
            }
        }
    }

    #[test]
    fn mean_pfd_is_expectation_of_theta() {
        let pop = BernoulliPopulation::new(model(), vec![0.3, 0.5, 0.2]).unwrap();
        let q = UsageProfile::from_weights(pop.model().space(), vec![0.5, 0.25, 0.25]).unwrap();
        let expected = 0.5 * pop.theta(d(0)) + 0.25 * pop.theta(d(1)) + 0.25 * pop.theta(d(2));
        assert!((pop.mean_pfd(&q) - expected).abs() < 1e-12);
    }

    #[test]
    fn populations_are_object_safe() {
        let m = model();
        let pops: Vec<Box<dyn Population>> = vec![
            Box::new(BernoulliPopulation::constant(m.clone(), 0.1).unwrap()),
            Box::new(ExplicitPopulation::uniform(m.clone(), vec![Version::correct(&m)]).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        for p in &pops {
            let _ = p.sample(&mut rng);
            let _ = p.theta_vector();
        }
    }
}
