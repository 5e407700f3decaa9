//! E5 — forced design diversity on a shared suite, equation (21).
//!
//! Paper claim: for methodologies A ≠ B tested on one suite the joint
//! probability on demand x is `ζ_A(x)ζ_B(x) + Cov_Ξ(ξ_A(x,T), ξ_B(x,T))`,
//! and unlike the single-population case the covariance term can be
//! positive *or* negative. The experiment exhibits both signs.

use diversim_core::difficulty::zeta;
use diversim_core::testing_effect::joint_shared_suite;
use diversim_exact::brute;
use diversim_testing::suite_population::enumerate_iid_suites;
use diversim_universe::population::Population;

use crate::report::Table;
use crate::spec::{ExperimentSpec, FigureSpec, RunContext, SeriesSpec};
use crate::worlds::{mirrored, negative_coupling, World};

/// Declarative description of E5.
pub static SPEC: ExperimentSpec = ExperimentSpec {
    id: 5,
    slug: "e05",
    name: "e05_forced_shared",
    title: "Forced diversity on a shared suite: the covariance can take either sign",
    paper_ref: "eq (21)",
    claim: "Cov_Ξ(ξ_A, ξ_B) > 0 on some worlds (shared testing hurts), < 0 on others (it helps)",
    sweep: "mirrored and negative-coupling worlds, all demands, 1-demand suites",
    full_replications: 0,
    figures: &[FigureSpec::new(
        0,
        "The eq-21 coupling Cov_Ξ(ξ_A, ξ_B) per demand: non-negative \
         everywhere on the mirrored world, but negative on the contested \
         demand of the engineered world — shared-suite testing can *help* \
         forced-diverse versions.",
        "demand",
        &[
            SeriesSpec::new("mirrored world", "Cov_Xi(xi_A,xi_B)").only("world", "mirrored"),
            SeriesSpec::new("negative-coupling world", "Cov_Xi(xi_A,xi_B)")
                .only("world", "neg-coupling"),
        ],
    )
    .labels("demand", "Cov_Ξ(ξ_A, ξ_B)")],
    run,
};

fn run_world(
    ctx: &mut RunContext,
    label: &str,
    cell_key: &str,
    world: &World,
    suite_size: usize,
    table: &mut Table,
) -> (f64, f64) {
    // One exact cell per world; payload = [ζ_Aζ_B (mean term), coupling,
    // total, brute, ζ_A·ζ_B (direct product)] per demand.
    let cell = ctx.cell(
        format!("world={cell_key}|suite={suite_size}|study=per-demand-eq21"),
        |_scope| {
            let m = enumerate_iid_suites(&world.profile, suite_size, 1 << 14).expect("enumerable");
            let sa = world.pop_a.enumerate(1 << 12).expect("enumerable");
            let sb = world.pop_b.enumerate(1 << 12).expect("enumerable");
            let brute_joint = brute::joint_vector_shared(&sa, &sb, &m, world.pop_a.model());
            let mut values = Vec::new();
            for x in world.profile.space().iter() {
                let joint = joint_shared_suite(&world.pop_a, &world.pop_b, &m, x);
                values.extend([
                    joint.independent,
                    joint.coupling,
                    joint.total(),
                    brute_joint[x.index()],
                    zeta(&world.pop_a, x, &m) * zeta(&world.pop_b, x, &m),
                ]);
            }
            values
        },
    );
    let mut min_cov = f64::INFINITY;
    let mut max_cov = f64::NEG_INFINITY;
    for (i, x) in world.profile.space().iter().enumerate() {
        let at = |j: usize| cell.get(5 * i + j);
        let (independent, coupling, total, brute_joint, prod) = (at(0), at(1), at(2), at(3), at(4));
        ctx.check(
            (total - brute_joint).abs() < 1e-12,
            format!("eq21 matches brute force on {label} at {x}"),
        );
        ctx.check(
            (independent - prod).abs() < 1e-12,
            format!("eq21 mean term is ζ_Aζ_B on {label} at {x}"),
        );
        min_cov = min_cov.min(coupling);
        max_cov = max_cov.max(coupling);
        table.row(&[
            label.to_string(),
            x.to_string(),
            format!("{independent:.6}"),
            format!("{coupling:+.6}"),
            format!("{total:.6}"),
        ]);
    }
    (min_cov, max_cov)
}

fn run(ctx: &mut RunContext) {
    ctx.note(
        "E5: forced diversity on a shared suite — the covariance can take either sign (eq 21)\n",
    );
    let mut table = Table::new(
        "per-demand eq-21 decomposition",
        &[
            "world",
            "demand",
            "zeta_A*zeta_B",
            "Cov_Xi(xi_A,xi_B)",
            "joint",
        ],
    );

    // Mirrored singleton world: coupling is non-negative (suites kill both
    // methodologies' faults on the same demands).
    let wm = mirrored(0.8, 0.1);
    let (_, max_cov_m) = run_world(ctx, "mirrored", "mirrored(0.8,0.1)", &wm, 1, &mut table);

    // Engineered overlap world: the same suite repairs A and B on
    // *different* demands → negative covariance on the contested demand.
    let wn = negative_coupling();
    let (min_cov_n, _) = run_world(ctx, "neg-coupling", "negative-coupling", &wn, 1, &mut table);

    ctx.emit(table, "e05_forced_shared");

    ctx.check(
        max_cov_m > 0.0,
        "a positive coupling demand exists in the mirrored world",
    );
    ctx.check(
        min_cov_n < 0.0,
        "a negative coupling demand exists in the engineered world",
    );
    ctx.note(
        "Claim reproduced: Cov_Ξ(ξ_A, ξ_B) > 0 on some worlds (shared testing\n\
         hurts) and < 0 on others (shared testing *helps*) — exactly the eq-21\n\
         ambiguity the paper highlights.",
    );
}
