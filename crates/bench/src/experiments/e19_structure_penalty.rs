//! E19 — where the eq 22–23 shared-suite penalty lands in structured
//! systems.
//!
//! The paper prices the shared-suite coupling of eq (20) for a
//! 1-out-of-2 pair: eq (23)'s marginal system pfd exceeds eq (22)'s by
//! the usage-weighted variance term. Composing the same machinery
//! through a structure function shows the penalty is a property of
//! *redundancy*, not of sharing per se:
//!
//! * at an **AND** gate (parallel redundancy) the mixed moment
//!   `E_Ξ[Π ξ_j]` exceeds `Π E_Ξ[ξ_j]`, so a shared suite *hurts* —
//!   the eq-23 penalty, now at every gate;
//! * at an **OR** gate (a series system) the same co-movement inflates
//!   the joint terms that inclusion–exclusion *subtracts*, so a shared
//!   suite mildly *helps*;
//! * mixed trees (2-of-3, bridge) land in between, their penalty
//!   concentrated at their AND gates.
//!
//! Three computation paths cross-check every number: the gate-composed
//! formula path (`core::structure`), assumption-free cross-product
//! enumeration (`exact::StructureEnsemble`, tiny world, 1e-12), and
//! Monte Carlo system campaigns (`sim` system scenarios, ±3·SE).

use diversim_core::difficulty::TestedDifficulty;
use diversim_core::structure::{gate_moments, structure_pfd, Structure};
use diversim_core::testing_effect::TestingRegime;
use diversim_exact::verify::verify_structure;
use diversim_sim::campaign::CampaignRegime;
use diversim_testing::suite_population::enumerate_iid_suites;
use diversim_universe::population::Population;

use crate::report::Table;
use crate::spec::{ExperimentSpec, FigureSpec, RunContext, SeriesSpec};
use crate::worlds::{small_graded, World};

/// Suite size of the exact and Monte Carlo comparisons.
const SUITE: usize = 4;

/// The four canonical trees, with their component counts.
fn trees() -> [(&'static str, Structure); 4] {
    [
        ("series-3", Structure::series(3)),
        ("2-of-3", Structure::k_of_n(2, 3)),
        ("parallel-3", Structure::one_out_of_n(3)),
        ("bridge-5", Structure::bridge()),
    ]
}

/// Declarative description of E19.
pub static SPEC: ExperimentSpec = ExperimentSpec {
    id: 19,
    slug: "e19",
    name: "e19_structure_penalty",
    title: "Shared-suite penalty across structure functions",
    paper_ref: "eqs (20)-(25) composed over fault trees",
    claim: "a shared suite penalises AND-redundancy, spares series systems; exact, brute-force and MC paths agree",
    sweep: "trees {series, 2-of-3, parallel, bridge} × regimes, suite 4; brute on a 2-demand world; MC at 3·SE",
    full_replications: 20_000,
    figures: &[
        FigureSpec::new(
            0,
            "Marginal system pfd of each fault tree under both suite \
             regimes (small-graded world, 4-demand suites). The shared/\
             independent ratio is largest for the pure AND tree \
             (parallel-3), crosses 1 downwards for the pure OR tree \
             (series-3), and sits in between for the mixed trees — the \
             eq-23 penalty tracks redundancy, not sharing.",
            "idx",
            &[
                SeriesSpec::new("independent suites", "independent"),
                SeriesSpec::new("shared suite", "shared"),
            ],
        )
        .labels("structure (0=series-3, 1=2-of-3, 2=parallel-3, 3=bridge-5)", "system pfd")
        .log_y(),
        FigureSpec::new(
            1,
            "Per-gate coupling `E_Ξ[Π ξ] − Π E_Ξ[ξ]` of every gate of the \
             repeat-free trees (preorder paths). The all-children-fail \
             moment inequality holds everywhere, and the AND gates carry \
             the bulk of the coupling mass.",
            "idx",
            &[SeriesSpec::new("coupling", "coupling")],
        )
        .labels("gate index (preorder; labels in the table)", "coupling"),
    ],
    run,
};

fn run(ctx: &mut RunContext) {
    ctx.note("E19: where the eq 22-23 shared-suite penalty lands in structured systems\n");
    let w = small_graded();
    let replications = ctx.replications(SPEC.full_replications);

    // ── Exact: regime comparison per tree ─────────────────────────────
    let mut table = Table::new(
        &format!("system pfd per structure ({SUITE}-demand suites, small-graded world)"),
        &[
            "idx",
            "tree",
            "components",
            "independent",
            "shared",
            "penalty",
            "shared/indep",
        ],
    );
    let mut ratios = Vec::new();
    for (idx, (label, structure)) in trees().into_iter().enumerate() {
        let n = structure.component_count();
        let cell = ctx.cell(
            format!("world=small-graded|suite={SUITE}|tree={label}|study=structure-regimes"),
            |_scope| {
                let m = enumerate_iid_suites(&w.profile, SUITE, 1 << 16).expect("enumerable");
                let pops: Vec<&dyn TestedDifficulty> =
                    (0..n).map(|_| &w.pop_a as &dyn TestedDifficulty).collect();
                vec![
                    structure_pfd(
                        &structure,
                        &pops,
                        &m,
                        &w.profile,
                        TestingRegime::IndependentSuites,
                    )
                    .expect("valid structure"),
                    structure_pfd(
                        &structure,
                        &pops,
                        &m,
                        &w.profile,
                        TestingRegime::SharedSuite,
                    )
                    .expect("valid structure"),
                ]
            },
        );
        let (ind, sh) = (cell.get(0), cell.get(1));
        let ratio = sh / ind.max(1e-300);
        ratios.push((label, ratio));
        table.row(&[
            idx.to_string(),
            label.into(),
            n.to_string(),
            format!("{ind:.6e}"),
            format!("{sh:.6e}"),
            format!("{:+.6e}", sh - ind),
            format!("{ratio:.3}"),
        ]);
        match label {
            "series-3" => ctx.check(
                sh <= ind + 1e-15,
                "a shared suite does not hurt a series system (OR gate)",
            ),
            _ => ctx.check(
                sh >= ind - 1e-15,
                format!("a shared suite does not help {label} (AND redundancy)"),
            ),
        }
    }
    ctx.emit(table, "e19_structure_regimes");
    let ratio_of = |name: &str| ratios.iter().find(|(l, _)| *l == name).expect("known").1;
    ctx.check(
        ratio_of("parallel-3") > ratio_of("2-of-3") && ratio_of("2-of-3") > ratio_of("series-3"),
        "the shared/independent ratio orders by redundancy: parallel > 2-of-3 > series",
    );

    // ── Exact: per-gate coupling of the repeat-free trees ─────────────
    // A flat tree has one gate, so all roots over the same children share
    // one all-children-fail moment; the nested 2×2 tree (a series of two
    // parallel pairs) is what localises the coupling at inner AND gates.
    let nested = (
        "nested-2x2",
        Structure::or(vec![
            Structure::and(vec![Structure::component(0), Structure::component(1)]),
            Structure::and(vec![Structure::component(2), Structure::component(3)]),
        ]),
    );
    let mut gate_trees: Vec<(&'static str, Structure)> = trees()
        .into_iter()
        .filter(|(_, s)| !s.has_repeated_components())
        .collect();
    gate_trees.push(nested);
    let mut gates = Table::new(
        "per-gate coupling (repeat-free trees; bridge omitted: component reuse)",
        &[
            "idx",
            "gate",
            "tree",
            "path",
            "kind",
            "independent",
            "mixed",
            "coupling",
        ],
    );
    let mut gate_idx = 0usize;
    for (label, structure) in gate_trees {
        let n = structure.component_count();
        let cell = ctx.cell(
            format!("world=small-graded|suite={SUITE}|tree={label}|study=gate-moments"),
            |_scope| {
                let m = enumerate_iid_suites(&w.profile, SUITE, 1 << 16).expect("enumerable");
                let pops: Vec<&dyn TestedDifficulty> =
                    (0..n).map(|_| &w.pop_a as &dyn TestedDifficulty).collect();
                gate_moments(&structure, &pops, &m, &w.profile)
                    .expect("repeat-free tree")
                    .iter()
                    .flat_map(|g| [g.independent, g.mixed])
                    .collect()
            },
        );
        // Paths and kinds are derived from the structure itself; only the
        // numeric moments come from the (cacheable) cell.
        let described = describe_gates(&structure);
        for (i, (path, kind)) in described.iter().enumerate() {
            let (independent, mixed) = (cell.get(2 * i), cell.get(2 * i + 1));
            let coupling = mixed - independent;
            gates.row(&[
                gate_idx.to_string(),
                format!("{label}:{path}"),
                label.into(),
                path.clone(),
                (*kind).into(),
                format!("{independent:.6e}"),
                format!("{mixed:.6e}"),
                format!("{coupling:.3e}"),
            ]);
            gate_idx += 1;
            ctx.check(
                coupling >= -1e-12,
                format!("gate coupling is non-negative at {label}:{path}"),
            );
        }
    }
    ctx.emit(gates, "e19_gate_moments");

    // ── Brute force: assumption-free agreement on a tiny world ────────
    let tiny = World::singleton_uniform("tiny-structure", vec![0.3, 0.7]).expect("valid");
    for (label, structure) in trees() {
        let n = structure.component_count();
        // Cross-product cost is |support × suites|^n: keep the world at 2
        // demands (4 versions × 2 one-demand suites = 8) so even the
        // 5-component bridge enumerates 8^5 = 32768 tuples.
        let cell = ctx.cell(
            format!("world=tiny-structure|suite=1|tree={label}|study=structure-brute"),
            |_scope| {
                let m = enumerate_iid_suites(&tiny.profile, 1, 64).expect("enumerable");
                let support = tiny.pop_a.enumerate(64).expect("tiny support");
                let pops: Vec<&dyn TestedDifficulty> = (0..n)
                    .map(|_| &tiny.pop_a as &dyn TestedDifficulty)
                    .collect();
                let supports: Vec<&diversim_exact::brute::Support> =
                    (0..n).map(|_| support.as_slice()).collect();
                let report = verify_structure(&structure, &pops, &supports, &m, &tiny.profile)
                    .expect("valid structure");
                vec![
                    report.all_hold(1e-12) as u8 as f64,
                    report.checks.len() as f64,
                ]
            },
        );
        ctx.check(
            cell.get(0) == 1.0,
            format!("brute-force cross-product enumeration agrees at 1e-12 for {label}"),
        );
    }

    // ── Monte Carlo: simulated system campaigns land on the formulas ──
    let mut mc = Table::new(
        &format!("MC system campaigns vs exact ({replications} reps, suite {SUITE})"),
        &["tree", "regime", "exact", "mc", "se", "|z|"],
    );
    for (label, structure) in trees() {
        let n = structure.component_count();
        for (regime_label, regime, core_regime) in [
            (
                "independent",
                CampaignRegime::IndependentSuites,
                TestingRegime::IndependentSuites,
            ),
            (
                "shared",
                CampaignRegime::SharedSuite,
                TestingRegime::SharedSuite,
            ),
        ] {
            let cell = ctx.cell(
                format!(
                    "world=small-graded|suite={SUITE}|tree={label}|regime={regime_label}|reps={replications}|study=structure-mc"
                ),
                |scope| {
                    let m = enumerate_iid_suites(&w.profile, SUITE, 1 << 16).expect("enumerable");
                    let pops: Vec<&dyn TestedDifficulty> =
                        (0..n).map(|_| &w.pop_a as &dyn TestedDifficulty).collect();
                    let exact = structure_pfd(&structure, &pops, &m, &w.profile, core_regime)
                        .expect("valid structure");
                    // small-graded's A and B are one population, so the
                    // alternating components all draw from it.
                    let est = w
                        .scenario()
                        .structure(structure.clone())
                        .suite_size(SUITE)
                        .regime(regime)
                        .seed(1900)
                        .build()
                        .expect("valid scenario")
                        .system_estimate(replications, scope.threads());
                    vec![exact, est.system_pfd.mean, est.system_pfd.standard_error]
                },
            );
            let (exact, mean, se) = (cell.get(0), cell.get(1), cell.get(2));
            let z = (mean - exact).abs() / se.max(1e-300);
            mc.row(&[
                label.into(),
                regime_label.into(),
                format!("{exact:.6e}"),
                format!("{mean:.6e}"),
                format!("{se:.1e}"),
                format!("{z:.2}"),
            ]);
            ctx.check(
                (mean - exact).abs() <= 3.0 * se,
                format!("MC agrees with the exact {regime_label} pfd for {label} (|z|={z:.2})"),
            );
        }
    }
    ctx.emit(mc, "e19_structure_mc");

    ctx.note(
        "\nClaim reproduced: composing eqs (20)-(25) through a structure\n\
         function shows the shared-suite penalty is a price of AND-redundancy\n\
         (largest for parallel, absent-to-negative for series), every gate's\n\
         mixed moment dominates its factorisation, and the formula, brute\n\
         and Monte Carlo paths agree.",
    );
}

/// Preorder gate paths and kinds of a tree, mirroring
/// [`diversim_core::structure::gate_moments`]'s ordering.
fn describe_gates(structure: &Structure) -> Vec<(String, &'static str)> {
    fn walk(s: &Structure, path: String, out: &mut Vec<(String, &'static str)>) {
        let (kind, children) = match s {
            Structure::Component(_) => return,
            Structure::And(c) => ("and", c),
            Structure::Or(c) => ("or", c),
            Structure::KOutOfN { children, .. } => ("k-of-n", children),
        };
        out.push((path.clone(), kind));
        for (i, child) in children.iter().enumerate() {
            walk(child, format!("{path}.{i}"), out);
        }
    }
    let mut out = Vec::new();
    walk(structure, "root".into(), &mut out);
    out
}
