//! The full lifecycle the paper's practical warning is about:
//!
//! 1. debug a two-version system with a stopping-rule-driven shared-suite
//!    campaign (acceptance testing "appears to be a common practice");
//! 2. *assess* the system pfd — naively, by squaring the demonstrated
//!    version pfd (the independence assumption eqs (20)–(23) forbid);
//! 3. deploy, observe operation, and compare the naive assessment with
//!    the true pfd and with an honest Clopper–Pearson assessment from
//!    operational data.
//!
//! Run with: `cargo run --release --example assessment_lifecycle`

use std::sync::Arc;

use diversim::core::metrics::DiversityReport;
use diversim::prelude::*;
use diversim::stats::stopping::{StoppingRule, StoppingState};
use diversim::testing::process::debug_step;
use diversim::universe::generator::{ProfileKind, PropensityKind, RegionSize, UniverseSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A production-flavoured universe: 500 demands, cascading faults.
    let spec = UniverseSpec {
        n_demands: 500,
        n_faults: 120,
        region_size: RegionSize::Geometric { mean: 2.0 },
        profile: ProfileKind::Zipf(0.9),
    };
    let mut rng = StdRng::seed_from_u64(2004);
    let (universe, pop) =
        spec.generate_with_population(&mut rng, PropensityKind::Uniform { lo: 0.02, hi: 0.3 })?;
    let model = Arc::clone(universe.model());
    let q = universe.profile().clone();

    // 1. Development: two versions from the same methodology.
    let mut rng = StdRng::seed_from_u64(77);
    let mut a = pop.sample(&mut rng);
    let mut b = pop.sample(&mut rng);
    println!("=== Development ===");
    println!(
        "version A: {} faults, pfd {:.5}",
        a.fault_count(),
        a.pfd(&model, &q)
    );
    println!(
        "version B: {} faults, pfd {:.5}",
        b.fault_count(),
        b.pfd(&model, &q)
    );

    // 2. Acceptance testing on ONE shared suite, stopping when 30
    //    consecutive demands pass on both channels (a failure-free rule at
    //    pfd 0.1 / 95%).
    let rule = StoppingRule::FailureFree {
        target: 0.1,
        confidence: 0.95,
    };
    let mut state = StoppingState::new(rule);
    let oracle = PerfectOracle::new();
    let fixer = PerfectFixer::new();
    let mut demands_run = 0u64;
    while !state.should_stop()? && demands_run < 100_000 {
        let x = q.sample(&mut rng);
        demands_run += 1;
        let mut any_failure = false;
        for v in [&mut a, &mut b] {
            any_failure |= debug_step(v, x, &model, &oracle, &fixer, &mut rng);
        }
        state.record(any_failure);
    }
    println!("\n=== Acceptance testing (shared suite, stopping rule) ===");
    println!("demands executed: {demands_run}");
    println!("version A pfd now: {:.6}", a.pfd(&model, &q));
    println!("version B pfd now: {:.6}", b.pfd(&model, &q));

    // 3. Assessment.
    let report = DiversityReport::compute(&a, &b, &model, &q);
    let naive = report.pfd_a * report.pfd_b;
    println!("\n=== Assessment ===");
    println!("naive (independence) system pfd prediction: {naive:.3e}");
    println!(
        "true system pfd:                            {:.3e}",
        report.joint_pfd
    );
    if naive > 0.0 {
        println!(
            "→ the independence assumption is optimistic by {:.1}x \
             (failure correlation {:.3}, Jaccard overlap {:.3})",
            report.joint_pfd / naive,
            report.correlation,
            report.jaccard
        );
    }

    // 4. Operation: one year of demands, honest interval assessment.
    let exposure = 50_000;
    let scenario = Scenario::builder()
        .population(pop)
        .profile(q.clone())
        .build()?;
    let log = scenario.operate(&a, &b, exposure, 4242);
    let iv = log.system_pfd_interval(0.95);
    println!("\n=== Operation ({exposure} demands) ===");
    println!("observed system failures: {}", log.system_failures);
    println!("Clopper–Pearson 95% assessment: {iv}");
    println!("true system pfd:                {:.6}", report.joint_pfd);
    assert!(
        iv.contains(report.joint_pfd) || log.system_failures == 0,
        "operational assessment should cover the truth"
    );
    if report.joint_pfd > naive {
        println!(
            "\nMoral (eqs 20–23): after shared-suite acceptance testing, never\n\
             assess a 1-out-of-2 system by multiplying demonstrated version pfds."
        );
    }
    Ok(())
}
