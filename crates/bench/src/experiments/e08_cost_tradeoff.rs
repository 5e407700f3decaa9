//! E8 — the §3.4.1 cost trade-off.
//!
//! Paper discussion: with free test *execution*, merging the two generated
//! suites (2n demands, shared) beats independent n-demand suites — "with
//! the longer test not only the individual reliability of the versions is
//! going to be better but so is the system reliability"; with expensive
//! execution the comparison at equal *run budget* (n demands per version)
//! favours independent suites. The experiment measures three budgets:
//!
//! * independent: one n-demand suite per version (2n executions total);
//! * shared-n: one n-demand suite run on both versions (2n executions);
//! * merged-2n: the union of two n-demand suites run on both versions
//!   (4n executions — the "free running" scenario).

use diversim_sim::campaign::CampaignRegime;
use diversim_sim::scenario::SeedPolicy;

use crate::report::Table;
use crate::spec::{ExperimentSpec, FigureSpec, RunContext, SeriesSpec};
use crate::worlds::medium_cascade;

/// Declarative description of E8.
pub static SPEC: ExperimentSpec = ExperimentSpec {
    id: 8,
    slug: "e08",
    name: "e08_cost_tradeoff",
    title: "§3.4.1 cost trade-off: merged 2n shared vs independent n vs shared n",
    paper_ref: "§3.4.1",
    claim: "at equal run budget independent suites win; with free execution merged 2n shared wins",
    sweep: "suite size n ∈ {5, 10, 20, 40, 80} on the medium-cascade world",
    full_replications: 4_000,
    figures: &[FigureSpec::new(
        0,
        "Three readings of the same test budget: at equal executions \
         independent n-demand suites beat the shared n-demand suite, but \
         when running tests is free the merged 2n-demand shared suite wins \
         both comparisons — the §3.4.1 trade-off.",
        "n",
        &[
            SeriesSpec::new("independent (n each)", "independent(n each)"),
            SeriesSpec::new("shared (n)", "shared(n)"),
            SeriesSpec::new("merged (2n shared)", "merged(2n shared)"),
        ],
    )
    .labels("suite size n", "system pfd")],
    run,
};

fn run(ctx: &mut RunContext) {
    ctx.note("E8: §3.4.1 cost trade-off — merged 2n shared vs independent n vs shared n\n");
    let w = medium_cascade(11);
    let scenario = w.scenario().build().expect("valid world");
    let replications = ctx.replications(SPEC.full_replications);
    let mut table = Table::new(
        "system pfd by budget interpretation",
        &[
            "n",
            "independent(n each)",
            "shared(n)",
            "merged(2n shared)",
            "best",
        ],
    );

    for n in [5usize, 10, 20, 40, 80] {
        // One MC cell per suite size: all three budget arms, seeds encoded
        // in the key (800+n / 900+n / offset-10000 merged policy).
        let cell = ctx.cell(
            format!(
                "world=medium-cascade(11)|n={n}|seeds=800+n,900+n,off10000|reps={replications}|study=budget-arms"
            ),
            |scope| {
                let ind = scenario
                    .with_suite_size(n)
                    .expect("the suite sizes are far below the cap")
                    .with_regime(CampaignRegime::IndependentSuites)
                    .expect("a suite regime is valid")
                    .with_seed(800 + n as u64)
                    .estimate(replications, scope.threads());
                let shared = scenario
                    .with_suite_size(n)
                    .expect("the suite sizes are far below the cap")
                    .with_seed(900 + n as u64)
                    .estimate(replications, scope.threads());
                // Merged arm via the paired comparison study (consecutive
                // seeds to match the historical single-thread runs).
                let merged = scenario
                    .with_seeds(SeedPolicy::offset(10_000))
                    .merged_estimate(n, replications, scope.threads())
                    .merged_system;
                vec![
                    ind.system_pfd.mean,
                    ind.system_pfd.standard_error,
                    shared.system_pfd.mean,
                    shared.system_pfd.standard_error,
                    merged.mean,
                    merged.standard_error,
                ]
            },
        );
        let (ind_mean, ind_se) = (cell.get(0), cell.get(1));
        let (shared_mean, shared_se) = (cell.get(2), cell.get(3));
        let (merged_mean, merged_se) = (cell.get(4), cell.get(5));
        let vals = [ind_mean, shared_mean, merged_mean];
        let best = ["independent", "shared", "merged"][vals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty")];
        table.row(&[
            n.to_string(),
            format!("{ind_mean:.6}"),
            format!("{shared_mean:.6}"),
            format!("{merged_mean:.6}"),
            best.to_string(),
        ]);

        // Qualitative claims: at equal run budget, independent ≤ shared;
        // with free running, merged ≤ independent. Both arms of each
        // comparison are Monte Carlo, so the slack combines both SEs.
        ctx.check(
            ind_mean <= shared_mean + 3.0 * (ind_se + shared_se),
            format!("independent beats shared at equal run budget (n={n})"),
        );
        ctx.check(
            merged_mean <= ind_mean + 3.0 * (merged_se + ind_se),
            format!("merged 2n beats independent n (n={n})"),
        );
    }

    ctx.emit(table, "e08_cost_tradeoff");
    ctx.note(
        "Claim reproduced: at equal execution budget independent suites win\n\
         (diversity preserved); if execution is free the merged 2n shared suite\n\
         wins (more faults removed trumps lost diversity) — the two poles of the\n\
         paper's cost discussion.",
    );
}
