//! Back-to-back testing (§4.2): sweeping the identical-failure probability
//! γ between the paper's optimistic and pessimistic bounds.
//!
//! Back-to-back testing detects failures by output mismatch — no oracle
//! needed — but coincident failures with identical wrong outputs are
//! invisible. The paper bounds the achievable system reliability between
//! the perfect-oracle shared-suite value (γ = 0) and "no system
//! improvement at all" (γ = 1). This example measures the whole spectrum
//! by simulation and checks it stays inside the analytical bounds.
//!
//! Run with: `cargo run --release --example back_to_back`

use std::sync::Arc;

use diversim::prelude::*;
use diversim::sim::campaign::CampaignRegime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Singleton universe: the regime where the §4.2 bounds are exact.
    let space = DemandSpace::new(8)?;
    let model = Arc::new(FaultModelBuilder::new(space).singleton_faults().build()?);
    let pop = BernoulliPopulation::new(
        Arc::clone(&model),
        vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    )?;
    let q = UsageProfile::uniform(space);
    let suite_size = 6;

    // Analytical bounds from the explicit suite measure.
    let measure = enumerate_iid_suites(&q, suite_size, 1 << 16)?;
    let bounds = BackToBackBounds::compute(&pop, &pop, &measure, &q);
    println!("=== §4.2 analytical bounds (suite size {suite_size}) ===");
    println!("optimistic  (γ=0, = eq 23): {:.6}", bounds.optimistic);
    println!("pessimistic (γ=1, untested): {:.6}\n", bounds.pessimistic);

    // Simulated γ sweep: one scenario, re-specialised per γ (the
    // prepared world is built once and shared).
    let base = Scenario::builder()
        .population(pop.clone())
        .profile(q.clone())
        .suite_size(suite_size)
        .build()?;
    let replications = 40_000;
    println!("γ      system pfd   version pfd   inside bounds?");
    for step in 0..=10 {
        let gamma = step as f64 / 10.0;
        let identical = match step {
            0 => IdenticalFailureModel::Never,
            10 => IdenticalFailureModel::Always,
            _ => IdenticalFailureModel::Bernoulli(gamma),
        };
        let est = base
            .with_regime(CampaignRegime::BackToBack(identical))?
            .with_seed(7 + step as u64)
            .estimate(replications, diversim::sim::runner::default_threads());
        let inside = bounds.contains(est.system_pfd.mean)
            || est.system_pfd.interval.contains(bounds.optimistic)
            || est.system_pfd.interval.contains(bounds.pessimistic);
        println!(
            "{gamma:.1}    {:.6}     {:.6}      {}",
            est.system_pfd.mean,
            est.version_a_pfd.mean,
            if inside { "yes" } else { "NO" }
        );
        assert!(inside, "γ={gamma} escaped the §4.2 bounds");
    }

    println!(
        "\nAs γ → 1 the versions still improve individually, but the system \
         gains vanish:\nversion reliability growth is exactly cancelled by \
         the loss of diversity (§4.2)."
    );
    Ok(())
}
