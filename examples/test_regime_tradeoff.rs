//! The §3.4.1 cost trade-off and reliability growth (the paper's ref [5]
//! study): how version and system pfd evolve with testing effort under
//! different regimes, and when a merged 2n-demand shared suite beats two
//! independent n-demand suites.
//!
//! Run with: `cargo run --release --example test_regime_tradeoff`

use diversim::prelude::*;
use diversim::sim::campaign::CampaignRegime;
use diversim::universe::generator::{ProfileKind, PropensityKind, RegionSize, UniverseSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized universe with fault-region cascades (region size 1-4).
    let spec = UniverseSpec {
        n_demands: 200,
        n_faults: 60,
        region_size: RegionSize::Uniform { min: 1, max: 4 },
        profile: ProfileKind::Zipf(0.8),
    };
    let mut rng = StdRng::seed_from_u64(11);
    let (universe, pop) =
        spec.generate_with_population(&mut rng, PropensityKind::Uniform { lo: 0.05, hi: 0.5 })?;
    let world = SimWorld::from_universe("tradeoff", &universe, pop);
    let scenario = world.scenario().build()?;
    let threads = diversim::sim::runner::default_threads();
    let replications = 3_000;
    let checkpoints = [0usize, 5, 10, 20, 40, 80, 160, 320];

    println!("=== Reliability growth (ref [5] replication) ===");
    println!("universe: {} demands, {} faults, Zipf(0.8) usage", 200, 60);
    println!("replications per curve: {replications}\n");
    println!("          ------ independent suites ------    -------- shared suite ---------");
    println!("demands   version pfd     system pfd          version pfd     system pfd");

    let ind = scenario
        .with_regime(CampaignRegime::IndependentSuites)?
        .with_seed(21)
        .growth(&checkpoints, replications, threads)?;
    let sh = scenario
        .with_seed(22)
        .growth(&checkpoints, replications, threads)?;
    for (i, &n) in checkpoints.iter().enumerate() {
        println!(
            "{n:<9} {:<15.6} {:<19.6} {:<15.6} {:<.6}",
            ind.version_a[i].mean(),
            ind.system[i].mean(),
            sh.version_a[i].mean(),
            sh.system[i].mean(),
        );
    }
    println!(
        "\nVersion reliability grows identically; the system under the shared \
         suite lags —\nthe Var_Ξ coupling of eq (23) in action.\n"
    );

    // §3.4.1: merged 2n shared suite vs independent n suites at equal
    // running cost of n demands per version... and at equal *generation*
    // cost (one procedure invocation instead of two).
    println!("=== §3.4.1 merged-suite trade-off ===");
    println!("n        independent(n each)   merged(2n shared)   merged wins?");
    let merged_scenario = scenario.with_seeds(SeedPolicy::offset(0));
    for n in [5usize, 10, 20, 40, 80] {
        let est = merged_scenario.merged_estimate(n, 2_000, threads);
        println!(
            "{n:<8} {:<21.6} {:<19.6} {}",
            est.independent_system.mean,
            est.merged_system.mean,
            if est.merged_system.mean <= est.independent_system.mean {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!(
        "\nWith free test execution the merged suite dominates (it strictly \
         dominates fault-wise);\nthe paper's point is that when *running* \
         tests is the binding cost, independent suites\nbuy diversity that \
         the merged/shared regime gives up."
    );
    Ok(())
}
