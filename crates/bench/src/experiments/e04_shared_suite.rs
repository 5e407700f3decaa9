//! E4 — the shared-suite coupling, equation (20).
//!
//! Paper claim: testing both versions on the same suite makes the joint
//! probability on each demand `ζ(x)² + Var_Ξ(ξ(x,T))` — conditional
//! independence is destroyed, and an independence assumption is
//! optimistic. The experiment prints the per-demand decomposition and the
//! relative error an (incorrect) independence assumption would make.

use diversim_core::difficulty::zeta;
use diversim_core::testing_effect::joint_shared_suite;
use diversim_exact::brute;
use diversim_testing::suite_population::enumerate_iid_suites;
use diversim_universe::population::Population;

use crate::report::Table;
use crate::spec::{ExperimentSpec, FigureSpec, RunContext, SeriesSpec};
use crate::worlds::small_graded;

/// Declarative description of E4.
pub static SPEC: ExperimentSpec = ExperimentSpec {
    id: 4,
    slug: "e04",
    name: "e04_shared_suite",
    title: "The shared suite induces per-demand failure dependence",
    paper_ref: "eq (20)",
    claim: "per demand, shared-suite joint = ζ(x)² + Var_Ξ(ξ(x,T)) ≥ ζ(x)²",
    sweep: "all demands of the small-graded world, 3-demand shared suites",
    full_replications: 0,
    figures: &[FigureSpec::new(
        0,
        "Per-demand eq-20 decomposition on the small-graded world: testing \
         lowers difficulty (ζ ≤ θ), but the shared-suite joint probability \
         exceeds the independence term ζ² by Var_Ξ(ξ) ≥ 0 on every demand.",
        "demand",
        &[
            SeriesSpec::new("θ(x) — untested difficulty", "theta(x)"),
            SeriesSpec::new("ζ(x) — tested difficulty", "zeta(x)"),
            SeriesSpec::new("ζ(x)² — independence term", "zeta^2"),
            SeriesSpec::new("joint (eq 20)", "joint (eq 20)"),
        ],
    )
    .labels("demand", "probability")],
    run,
};

fn run(ctx: &mut RunContext) {
    ctx.note("E4: the shared suite induces per-demand failure dependence (eq 20)\n");
    let w = small_graded();
    let suite_size = 3;

    // One exact cell; payload = [θ, ζ, ζ², Var_Ξ, joint, brute] per demand.
    let cell = ctx.cell(
        format!("world=small-graded|suite={suite_size}|study=per-demand-eq20"),
        |_scope| {
            let m = enumerate_iid_suites(&w.profile, suite_size, 1 << 14).expect("enumerable");
            let support = w.pop_a.enumerate(1 << 12).expect("enumerable");
            let brute_joint = brute::joint_vector_shared(&support, &support, &m, w.pop_a.model());
            let mut values = Vec::new();
            for x in w.profile.space().iter() {
                let joint = joint_shared_suite(&w.pop_a, &w.pop_a, &m, x);
                values.extend([
                    w.pop_a.theta(x),
                    zeta(&w.pop_a, x, &m),
                    joint.independent,
                    joint.coupling,
                    joint.total(),
                    brute_joint[x.index()],
                ]);
            }
            values
        },
    );

    let mut table = Table::new(
        &format!("per-demand decomposition, {suite_size}-demand shared suites"),
        &[
            "demand",
            "theta(x)",
            "zeta(x)",
            "zeta^2",
            "Var_Xi(xi)",
            "joint (eq 20)",
            "brute",
            "indep err %",
        ],
    );

    for (i, x) in w.profile.space().iter().enumerate() {
        let at = |j: usize| cell.get(6 * i + j);
        let (theta, z, independent, coupling, total, brute_joint) =
            (at(0), at(1), at(2), at(3), at(4), at(5));
        let err_pct = if total > 0.0 {
            100.0 * coupling / total
        } else {
            0.0
        };
        table.row(&[
            x.to_string(),
            format!("{theta:.6}"),
            format!("{z:.6}"),
            format!("{independent:.6}"),
            format!("{coupling:.6}"),
            format!("{total:.6}"),
            format!("{brute_joint:.6}"),
            format!("{err_pct:.1}"),
        ]);
        // eq 20 identities and inequality.
        ctx.check(
            (total - brute_joint).abs() < 1e-12,
            format!("eq20 matches brute force at {x}"),
        );
        ctx.check(
            (independent - z * z).abs() < 1e-12,
            format!("mean term is ζ² at {x}"),
        );
        ctx.check(coupling >= -1e-15, format!("non-negative variance at {x}"));
        ctx.check(
            theta + 1e-15 >= z,
            format!("testing does not worsen difficulty at {x}"),
        );
    }

    ctx.emit(table, "e04_shared_suite");
    ctx.note(
        "Claim reproduced: on every demand the shared-suite joint exceeds ζ(x)²\n\
         by exactly Var_Ξ(ξ(x,T)) ≥ 0; assuming conditional independence after\n\
         shared-suite testing understates the joint probability.",
    );
}
