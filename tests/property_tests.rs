//! Property-based tests (proptest) on the core data structures and the
//! paper's invariants.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use diversim::core::difficulty::{tested_score, zeta, TestedDifficulty};
use diversim::core::marginal::{MarginalAnalysis, SuiteAssignment};
use diversim::prelude::*;
use diversim::testing::process::{debug_version, perfect_debug};
use diversim::testing::suite_population::enumerate_iid_suites;
use diversim::universe::bitset::BitSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// BitSet behaves like a reference HashSet model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SetOp {
    Insert(usize),
    Remove(usize),
    Clear,
}

fn set_op_strategy(cap: usize) -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0..cap).prop_map(SetOp::Insert),
        (0..cap).prop_map(SetOp::Remove),
        Just(SetOp::Clear),
    ]
}

proptest! {
    #[test]
    fn bitset_matches_hashset_model(
        ops in proptest::collection::vec(set_op_strategy(96), 0..200)
    ) {
        let mut bs = BitSet::new(96);
        let mut model: HashSet<usize> = HashSet::new();
        for op in ops {
            match op {
                SetOp::Insert(v) => {
                    prop_assert_eq!(bs.insert(v), model.insert(v));
                }
                SetOp::Remove(v) => {
                    prop_assert_eq!(bs.remove(v), model.remove(&v));
                }
                SetOp::Clear => {
                    bs.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(bs.len(), model.len());
        }
        let mut expected: Vec<usize> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn bitset_union_intersection_laws(
        a in proptest::collection::hash_set(0usize..64, 0..40),
        b in proptest::collection::hash_set(0usize..64, 0..40),
    ) {
        let sa = BitSet::from_iter_with_capacity(64, a.iter().copied());
        let sb = BitSet::from_iter_with_capacity(64, b.iter().copied());
        let mut union = sa.clone();
        union.union_with(&sb);
        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        // |A| + |B| = |A∪B| + |A∩B|.
        prop_assert_eq!(sa.len() + sb.len(), union.len() + inter.len());
        // A∩B ⊆ A ⊆ A∪B.
        prop_assert!(inter.is_subset(&sa));
        prop_assert!(sa.is_subset(&union));
        prop_assert_eq!(sa.intersection_len(&sb), inter.len());
        prop_assert_eq!(sa.intersects(&sb), !inter.is_empty());
    }
}

// ---------------------------------------------------------------------
// Packed weighted-popcount kernel primitives.
// ---------------------------------------------------------------------

/// Capacities straddling the 64-bit block boundaries (±1 around
/// multiples of 64) plus degenerate single-block sizes, where masking
/// bugs in the packed kernels would hide.
fn boundary_capacity() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63),
        Just(64),
        Just(65),
        Just(127),
        Just(128),
        Just(129),
        Just(191),
        Just(192),
        Just(193),
    ]
}

/// A capacity, a member list, and a full weight vector for that capacity.
fn set_and_weights() -> impl Strategy<Value = (usize, Vec<usize>, Vec<f64>)> {
    boundary_capacity().prop_flat_map(|cap| {
        (
            Just(cap),
            proptest::collection::vec(0..cap, 0..=cap.min(80)),
            proptest::collection::vec(0.0f64..1.0, cap),
        )
    })
}

proptest! {
    #[test]
    fn weighted_mass_equals_naive_ascending_sum((cap, idx, w) in set_and_weights()) {
        use diversim::universe::bitset::BlockWeights;
        let s = BitSet::from_iter_with_capacity(cap, idx.iter().copied());
        // The contract is bit-identity, not mere closeness: the kernel
        // must add exactly the member weights in ascending index order.
        let naive: f64 = s.iter().map(|i| w[i]).sum();
        prop_assert_eq!(s.weighted_mass(&w), naive);
        let bw = BlockWeights::new(&w);
        prop_assert_eq!(bw.capacity(), cap);
        prop_assert_eq!(bw.mass(&s), naive);
    }

    #[test]
    fn masked_masses_equal_naive_ascending_sums(
        (cap, ia, w) in set_and_weights(),
        ib_seed in proptest::collection::vec(any::<usize>(), 0..80),
    ) {
        use diversim::universe::bitset::BlockWeights;
        let a = BitSet::from_iter_with_capacity(cap, ia.iter().copied());
        let b = BitSet::from_iter_with_capacity(cap, ib_seed.iter().map(|&i| i % cap));
        let inter: f64 = (0..cap).filter(|&i| a.contains(i) && b.contains(i)).map(|i| w[i]).sum();
        let union: f64 = (0..cap).filter(|&i| a.contains(i) || b.contains(i)).map(|i| w[i]).sum();
        let diff: f64 = (0..cap).filter(|&i| a.contains(i) && !b.contains(i)).map(|i| w[i]).sum();
        prop_assert_eq!(a.weighted_intersection(&b, &w), inter);
        prop_assert_eq!(a.weighted_union(&b, &w), union);
        prop_assert_eq!(a.weighted_difference(&b, &w), diff);
        let bw = BlockWeights::new(&w);
        prop_assert_eq!(bw.intersection_mass(&a, &b), inter);
        prop_assert_eq!(bw.union_mass(&a, &b), union);
        prop_assert_eq!(bw.difference_mass(&a, &b), diff);
    }

    #[test]
    fn empty_and_full_sets_bracket_weighted_mass((cap, _idx, w) in set_and_weights()) {
        use diversim::universe::bitset::BlockWeights;
        let empty = BitSet::new(cap);
        let mut full = BitSet::new(cap);
        for i in 0..cap {
            full.insert(i);
        }
        prop_assert_eq!(empty.weighted_mass(&w), 0.0);
        let total: f64 = w.iter().sum();
        prop_assert_eq!(full.weighted_mass(&w), total);
        let bw = BlockWeights::new(&w);
        prop_assert_eq!(bw.mass(&empty), 0.0);
        // The zero padding of the final partial block must never leak
        // into a full-set mass.
        prop_assert_eq!(bw.mass(&full), total);
    }

    #[test]
    fn region_set_representations_are_equivalent(
        region in proptest::collection::hash_set(0usize..96, 1..=4),
        w in proptest::collection::vec(0.0f64..1.0, 400),
    ) {
        // ≤4 demands in a 400-demand space sit below the sparse/dense
        // crossover (4·64 ≤ 400), so the model stores an explicit index
        // list; the same members in a packed BitSet exercise the dense
        // kernel. Both must agree bit for bit.
        let space = DemandSpace::new(400).unwrap();
        let model = FaultModelBuilder::new(space)
            .fault(region.iter().map(|&i| DemandId::new(i as u32)))
            .build()
            .unwrap();
        let rs = model.region_set(FaultId::new(0));
        prop_assert!(rs.is_sparse());
        let dense = BitSet::from_iter_with_capacity(400, region.iter().copied());
        prop_assert_eq!(rs.weighted_mass(&w), dense.weighted_mass(&w));
        prop_assert_eq!(rs.iter().collect::<Vec<_>>(), dense.iter().collect::<Vec<_>>());
        for i in 0..400 {
            prop_assert_eq!(rs.contains(i), dense.contains(i));
        }
    }
}

// ---------------------------------------------------------------------
// Universe/testing invariants on random small worlds.
// ---------------------------------------------------------------------

/// Strategy: a small fault model plus propensities.
fn universe_strategy() -> impl Strategy<Value = (usize, Vec<Vec<u32>>, Vec<f64>)> {
    (2usize..6).prop_flat_map(|n_demands| {
        let fault = proptest::collection::vec(0u32..n_demands as u32, 1..=3);
        let faults = proptest::collection::vec(fault, 1..5);
        faults.prop_flat_map(move |fs| {
            let k = fs.len();
            (
                Just(n_demands),
                Just(fs),
                proptest::collection::vec(0.0f64..=1.0, k),
            )
        })
    })
}

fn build(
    n_demands: usize,
    faults: &[Vec<u32>],
    props: &[f64],
) -> (BernoulliPopulation, UsageProfile) {
    let space = DemandSpace::new(n_demands).unwrap();
    let mut builder = FaultModelBuilder::new(space);
    for region in faults {
        builder = builder.fault(region.iter().map(|&i| DemandId::new(i)));
    }
    let model = Arc::new(builder.build().unwrap());
    let pop = BernoulliPopulation::new(model, props.to_vec()).unwrap();
    let q = UsageProfile::uniform(space);
    (pop, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn theta_and_xi_are_probabilities(
        (n, faults, props) in universe_strategy(),
        covered_bits in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let (pop, q) = build(n, &faults, &props);
        let mut covered = BitSet::new(q.space().len());
        for (i, &b) in covered_bits.iter().take(q.space().len()).enumerate() {
            if b {
                covered.insert(i);
            }
        }
        for x in q.space().iter() {
            let theta = pop.theta(x);
            let xi = TestedDifficulty::xi(&pop, x, &covered);
            prop_assert!((0.0..=1.0).contains(&theta));
            prop_assert!((0.0..=1.0).contains(&xi));
            // Testing can only reduce the failure probability.
            prop_assert!(xi <= theta + 1e-12);
        }
    }

    #[test]
    fn sequential_perfect_debug_equals_closed_form(
        (n, faults, props) in universe_strategy(),
        suite_demands in proptest::collection::vec(0u32..6, 0..8),
        seed in any::<u64>(),
    ) {
        let (pop, q) = build(n, &faults, &props);
        let model = pop.model().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let version = pop.sample(&mut rng);
        let demands: Vec<DemandId> = suite_demands
            .into_iter()
            .map(|i| DemandId::new(i % q.space().len() as u32))
            .collect();
        let suite = TestSuite::from_demands(q.space(), demands).unwrap();
        let closed = perfect_debug(&version, &suite, &model);
        let seq = debug_version(
            &version,
            &suite,
            &model,
            &PerfectOracle::new(),
            &PerfectFixer::new(),
            &mut rng,
        );
        prop_assert_eq!(closed, seq.version);
    }

    #[test]
    fn tested_score_agrees_with_mechanistic_process(
        (n, faults, props) in universe_strategy(),
        suite_demands in proptest::collection::vec(0u32..6, 0..6),
        seed in any::<u64>(),
    ) {
        let (pop, q) = build(n, &faults, &props);
        let model = pop.model().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let version = pop.sample(&mut rng);
        let demands: Vec<DemandId> = suite_demands
            .into_iter()
            .map(|i| DemandId::new(i % q.space().len() as u32))
            .collect();
        let suite = TestSuite::from_demands(q.space(), demands).unwrap();
        let debugged = perfect_debug(&version, &suite, &model);
        for x in q.space().iter() {
            prop_assert_eq!(
                tested_score(&version, &model, x, suite.demand_set()),
                debugged.score(&model, x),
                "tested_score disagrees with perfect_debug at {}", x
            );
        }
    }

    #[test]
    fn shared_vs_independent_inequality_holds(
        (n, faults, props) in universe_strategy(),
        suite_size in 0usize..3,
    ) {
        let (pop, q) = build(n, &faults, &props);
        let m = enumerate_iid_suites(&q, suite_size, 1 << 12).unwrap();
        let ind = MarginalAnalysis::compute(&pop, &pop, SuiteAssignment::independent(&m), &q);
        let sh = MarginalAnalysis::compute(&pop, &pop, SuiteAssignment::Shared(&m), &q);
        prop_assert!(sh.system_pfd() + 1e-12 >= ind.system_pfd());
        prop_assert!(sh.suite_coupling >= -1e-12);
        // All quantities are probabilities.
        for v in [ind.system_pfd(), sh.system_pfd(), ind.mean_pfd_a, sh.mean_pfd_a] {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
        }
    }

    #[test]
    fn zeta_is_mean_of_xi_and_bounded(
        (n, faults, props) in universe_strategy(),
        suite_size in 0usize..3,
    ) {
        let (pop, q) = build(n, &faults, &props);
        let m = enumerate_iid_suites(&q, suite_size, 1 << 12).unwrap();
        for x in q.space().iter() {
            let z = zeta(&pop, x, &m);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&z));
            prop_assert!(z <= pop.theta(x) + 1e-12);
            // ζ(x) = E_M[ξ(x,T)] recomputed by hand.
            let hand: f64 = m
                .iter()
                .map(|(t, p)| TestedDifficulty::xi(&pop, x, t.demand_set()) * p)
                .sum();
            prop_assert!((z - hand).abs() < 1e-12);
        }
    }

    #[test]
    fn debugging_is_monotone_in_suite_extension(
        (n, faults, props) in universe_strategy(),
        base_demands in proptest::collection::vec(0u32..6, 0..5),
        extra_demands in proptest::collection::vec(0u32..6, 0..5),
        seed in any::<u64>(),
    ) {
        // Extending a suite can only remove more faults (perfect testing).
        let (pop, q) = build(n, &faults, &props);
        let model = pop.model().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let version = pop.sample(&mut rng);
        let to_ids = |v: &[u32]| -> Vec<DemandId> {
            v.iter().map(|&i| DemandId::new(i % q.space().len() as u32)).collect()
        };
        let base = TestSuite::from_demands(q.space(), to_ids(&base_demands)).unwrap();
        let extended = base
            .merged(&TestSuite::from_demands(q.space(), to_ids(&extra_demands)).unwrap());
        let after_base = perfect_debug(&version, &base, &model);
        let after_ext = perfect_debug(&version, &extended, &model);
        prop_assert!(after_ext.fault_set().is_subset(after_base.fault_set()));
        prop_assert!(after_ext.pfd(&model, &q) <= after_base.pfd(&model, &q) + 1e-12);
    }
}

// ---------------------------------------------------------------------
// Statistics substrate properties.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn welford_matches_two_pass(xs in proptest::collection::vec(-1e3f64..1e3, 2..100)) {
        let acc: diversim::stats::online::MeanVar = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((acc.mean() - mean).abs() < 1e-9);
        prop_assert!((acc.sample_variance() - var).abs() < 1e-8 * (1.0 + var));
    }

    #[test]
    fn clopper_pearson_always_brackets_the_point_estimate(k in 0u64..=50, extra in 0u64..50) {
        let n = k + extra;
        prop_assume!(n > 0);
        let iv = diversim::stats::ci::clopper_pearson(k, n, 0.95).unwrap();
        let p = k as f64 / n as f64;
        prop_assert!(iv.contains(p));
        prop_assert!(iv.lo >= 0.0 && iv.hi <= 1.0);
    }

    #[test]
    fn beta_quantile_roundtrips(a in 0.5f64..20.0, b in 0.5f64..20.0, p in 0.001f64..0.999) {
        let x = diversim::stats::special::inv_reg_inc_beta(a, b, p).unwrap();
        let back = diversim::stats::special::reg_inc_beta(a, b, x).unwrap();
        prop_assert!((back - p).abs() < 1e-9);
    }

    #[test]
    fn alias_sampler_probabilities_normalised(
        weights in proptest::collection::vec(0.0f64..10.0, 1..30)
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let sampler = diversim::stats::alias::AliasSampler::new(&weights).unwrap();
        let total: f64 = sampler.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alias_table_is_valid_on_adversarial_weights(
        weights in adversarial_weights(),
    ) {
        // Regression: the table-construction residual
        // `(scaled[l] + scaled[s]) - 1.0` could round slightly negative,
        // leaving a negative acceptance probability in the table.
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let sampler = diversim::stats::alias::AliasSampler::new(&weights).unwrap();
        for (i, &p) in sampler.acceptance_probabilities().iter().enumerate() {
            prop_assert!(
                (0.0..=1.0).contains(&p),
                "acceptance probability {} out of [0, 1] at {} for {:?}", p, i, weights
            );
        }
        let total: f64 = sampler.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alias_empirical_frequencies_match_adversarial_weights(
        weights in adversarial_weights(),
        seed in any::<u64>(),
    ) {
        let total: f64 = weights.iter().sum();
        prop_assume!(total > 0.0);
        let sampler = diversim::stats::alias::AliasSampler::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let draws = 20_000u64;
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let p = w / total;
            let freq = counts[i] as f64 / draws as f64;
            // Binomial 5σ band plus one-count slack for discreteness.
            let se = (p * (1.0 - p) / draws as f64).sqrt();
            prop_assert!(
                (freq - p).abs() <= 5.0 * se + 2.0 / draws as f64,
                "category {}: frequency {} vs probability {} for {:?}", i, freq, p, weights
            );
        }
    }
}

/// Adversarial alias-table inputs: tiny/huge ratios spanning ~18 orders
/// of magnitude, exact zeros and many near-zero entries.
fn adversarial_weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            Just(0.0),
            Just(1e-12),
            Just(f64::MIN_POSITIVE),
            (-9.0f64..9.0).prop_map(|e| 10f64.powf(e)),
            0.01f64..1.0,
        ],
        1..16,
    )
}

// ---------------------------------------------------------------------
// Extension-module properties: imperfect closed forms and diversity
// metrics.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn imperfect_zeta_is_bounded_and_monotone(
        props in proptest::collection::vec(0.0f64..=1.0, 2..6),
        rho in 0.0f64..=1.0,
        n in 0usize..20,
    ) {
        let space = DemandSpace::new(props.len()).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space).singleton_faults().build().unwrap(),
        );
        let pop = BernoulliPopulation::new(model, props.clone()).unwrap();
        let q = UsageProfile::uniform(space);
        for x in space.iter() {
            let z = diversim::core::imperfect::zeta_imperfect_iid(&pop, x, &q, n, rho)
                .unwrap();
            // Bounded by the untested difficulty.
            prop_assert!(z >= 0.0 && z <= props[x.index()] + 1e-12);
            // More testing can only help.
            let z_more =
                diversim::core::imperfect::zeta_imperfect_iid(&pop, x, &q, n + 1, rho)
                    .unwrap();
            prop_assert!(z_more <= z + 1e-12);
            // A sharper repair probability can only help.
            let z_sharper = diversim::core::imperfect::zeta_imperfect_iid(
                &pop, x, &q, n, (rho + 0.1).min(1.0),
            )
            .unwrap();
            prop_assert!(z_sharper <= z + 1e-12);
        }
    }

    #[test]
    fn imperfect_shared_dominates_independent_everywhere(
        props in proptest::collection::vec(0.0f64..=1.0, 2..6),
        rho in 0.0f64..=1.0,
        n in 0usize..12,
    ) {
        use diversim::core::imperfect::marginal_imperfect_iid;
        use diversim::core::testing_effect::TestingRegime;
        let space = DemandSpace::new(props.len()).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space).singleton_faults().build().unwrap(),
        );
        let pop = BernoulliPopulation::new(model, props).unwrap();
        let q = UsageProfile::uniform(space);
        let ind = marginal_imperfect_iid(
            &pop, &pop, &q, &q, n, rho, TestingRegime::IndependentSuites,
        )
        .unwrap();
        let sh = marginal_imperfect_iid(
            &pop, &pop, &q, &q, n, rho, TestingRegime::SharedSuite,
        )
        .unwrap();
        prop_assert!(sh + 1e-15 >= ind);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&ind));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&sh));
    }

    #[test]
    fn diversity_metrics_are_bounded(
        fa in proptest::collection::hash_set(0u32..8, 0..8),
        fb in proptest::collection::hash_set(0u32..8, 0..8),
    ) {
        use diversim::core::metrics::DiversityReport;
        let space = DemandSpace::new(8).unwrap();
        let model = FaultModelBuilder::new(space).singleton_faults().build().unwrap();
        let a = Version::from_faults(&model, fa.iter().map(|&i| FaultId::new(i)));
        let b = Version::from_faults(&model, fb.iter().map(|&i| FaultId::new(i)));
        let q = UsageProfile::uniform(space);
        let r = DiversityReport::compute(&a, &b, &model, &q);
        prop_assert!((0.0..=1.0).contains(&r.jaccard));
        prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&r.correlation));
        prop_assert!(r.joint_pfd <= r.pfd_a.min(r.pfd_b) + 1e-15);
        // Symmetry.
        let rs = DiversityReport::compute(&b, &a, &model, &q);
        prop_assert!((r.jaccard - rs.jaccard).abs() < 1e-15);
        prop_assert!((r.correlation - rs.correlation).abs() < 1e-12);
        prop_assert!((r.joint_pfd - rs.joint_pfd).abs() < 1e-15);
    }

    #[test]
    fn operation_log_counts_are_internally_consistent(
        faults in proptest::collection::hash_set(0u32..6, 0..6),
        demands in 1u64..500,
        seed in any::<u64>(),
    ) {
        let scenario = SimWorld::singleton_uniform("ops", vec![0.0; 6])
            .unwrap()
            .scenario()
            .build()
            .unwrap();
        let model = scenario.model().clone();
        let a = Version::from_faults(&model, faults.iter().map(|&i| FaultId::new(i)));
        let b = Version::correct(&model);
        let log = scenario.operate(&a, &b, demands, seed);
        prop_assert_eq!(log.demands, demands);
        prop_assert_eq!(log.failures_b, 0);
        prop_assert_eq!(log.system_failures, 0, "correct channel shields the system");
        prop_assert!(log.failures_a <= demands);
    }
}
