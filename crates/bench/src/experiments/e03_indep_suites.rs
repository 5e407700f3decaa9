//! E3 — conditional independence under independent suites, equations
//! (16)–(19).
//!
//! Paper claim: "if the versions are tested on independently chosen test
//! suites, the conditional independence is preserved after the testing, no
//! matter whether diversity is employed in development only or in the
//! selection of the test suites as well." The experiment verifies, per
//! demand, that the brute-force joint probability equals `ζ_A(x)·ζ_B(x)`
//! in all four §3.1/§3.2 regimes.

use diversim_core::difficulty::zeta;
use diversim_exact::brute::TestedEnsemble;
use diversim_testing::suite_population::enumerate_iid_suites;
use diversim_universe::population::Population;
use diversim_universe::profile::UsageProfile;

use crate::report::Table;
use crate::spec::{ExperimentSpec, FigureSpec, RunContext, SeriesSpec};
use crate::worlds::{mirrored, small_graded};

/// Declarative description of E3.
pub static SPEC: ExperimentSpec = ExperimentSpec {
    id: 3,
    slug: "e03",
    name: "e03_indep_suites",
    title: "Independent suites preserve conditional independence",
    paper_ref: "eqs (16)–(19)",
    claim: "per demand, brute joint = ζ_A(x)·ζ_B(x) in all four independent-suite regimes",
    sweep: "regimes 16/17/18/19 × suite sizes n ∈ {1, 2(, 3)}",
    full_replications: 0,
    figures: &[FigureSpec::new(
        0,
        "Worst-case factorisation error |brute joint − ζ_A·ζ_B| across all \
         demands, per regime and suite size — pure accumulation rounding, \
         orders of magnitude below any statistical scale (log axis; exact \
         zeros cannot be placed and are omitted).",
        "suite size",
        &[
            SeriesSpec::new("eq 16 (same pop, same proc)", "max abs error")
                .only("regime", "eq16 same-pop/same-proc"),
            SeriesSpec::new("eq 17 (forced design)", "max abs error")
                .only("regime", "eq17 forced-design"),
            SeriesSpec::new("eq 18 (forced testing)", "max abs error")
                .only("regime", "eq18 forced-testing"),
            SeriesSpec::new("eq 19 (design + testing)", "max abs error")
                .only("regime", "eq19 forced-design+testing"),
        ],
    )
    .labels("suite size n", "max |brute − ζ_A·ζ_B|")
    .log_y()],
    run,
};

fn run(ctx: &mut RunContext) {
    ctx.note("E3: independent suites preserve conditional independence (eqs 16–19)\n");
    let mut table = Table::new(
        "max |brute joint − ζ_A·ζ_B| over all demands",
        &["regime", "suite size", "max abs error"],
    );

    // Regime (16): same population, same suite procedure.
    let w = small_graded();
    let support = w.pop_a.enumerate(1 << 12).expect("enumerable");
    for n in [1usize, 2, 3] {
        let max_err = ctx
            .cell(format!("regime=eq16|world=small-graded|n={n}"), |_scope| {
                let m = enumerate_iid_suites(&w.profile, n, 1 << 14).expect("enumerable");
                // Scoped, as in the other regimes' cells: the ensemble is
                // freed before the cell's result is allocated, so its memory
                // can go back to the system instead of sitting under it.
                let brute_joint = {
                    let ens = TestedEnsemble::new(&support, &m, w.pop_a.model());
                    ens.joint_vector_independent(&ens)
                };
                let max_err = w
                    .profile
                    .space()
                    .iter()
                    .map(|x| {
                        let z = zeta(&w.pop_a, x, &m);
                        (brute_joint[x.index()] - z * z).abs()
                    })
                    .fold(0.0, f64::max);
                vec![max_err]
            })
            .get(0);
        table.row(&[
            "eq16 same-pop/same-proc".into(),
            n.to_string(),
            format!("{max_err:.3e}"),
        ]);
        ctx.check(max_err < 1e-9, format!("eq16 factorises at n={n}"));
    }

    // Regime (17): forced design diversity, same suite procedure.
    let wf = mirrored(0.5, 0.05);
    let sa = wf.pop_a.enumerate(1 << 12).expect("enumerable");
    let sb = wf.pop_b.enumerate(1 << 12).expect("enumerable");
    for n in [1usize, 2] {
        let max_err = ctx
            .cell(
                format!("regime=eq17|world=mirrored(0.5,0.05)|n={n}"),
                |_scope| {
                    let m = enumerate_iid_suites(&wf.profile, n, 1 << 14).expect("enumerable");
                    let brute_joint = TestedEnsemble::new(&sa, &m, wf.pop_a.model())
                        .joint_vector_independent(&TestedEnsemble::new(&sb, &m, wf.pop_a.model()));
                    let max_err = wf
                        .profile
                        .space()
                        .iter()
                        .map(|x| {
                            let z = zeta(&wf.pop_a, x, &m) * zeta(&wf.pop_b, x, &m);
                            (brute_joint[x.index()] - z).abs()
                        })
                        .fold(0.0, f64::max);
                    vec![max_err]
                },
            )
            .get(0);
        table.row(&[
            "eq17 forced-design".into(),
            n.to_string(),
            format!("{max_err:.3e}"),
        ]);
        ctx.check(max_err < 1e-9, format!("eq17 factorises at n={n}"));
    }

    // Regimes (18)/(19): forced testing diversity — operational profile
    // for one version, debug-skewed profile for the other.
    let debug_profile =
        UsageProfile::from_weights(w.profile.space(), vec![0.05, 0.05, 0.1, 0.2, 0.3, 0.3])
            .expect("valid weights");
    for n in [1usize, 2] {
        let max_err = ctx
            .cell(
                format!("regime=eq18|world=small-graded|profile-b=debug-skewed|n={n}"),
                |_scope| {
                    let ma = enumerate_iid_suites(&w.profile, n, 1 << 14).expect("enumerable");
                    let mb = enumerate_iid_suites(&debug_profile, n, 1 << 14).expect("enumerable");
                    let brute_joint = TestedEnsemble::new(&support, &ma, w.pop_a.model())
                        .joint_vector_independent(&TestedEnsemble::new(
                            &support,
                            &mb,
                            w.pop_a.model(),
                        ));
                    let max_err = w
                        .profile
                        .space()
                        .iter()
                        .map(|x| {
                            let z = zeta(&w.pop_a, x, &ma) * zeta(&w.pop_a, x, &mb);
                            (brute_joint[x.index()] - z).abs()
                        })
                        .fold(0.0, f64::max);
                    vec![max_err]
                },
            )
            .get(0);
        table.row(&[
            "eq18 forced-testing".into(),
            n.to_string(),
            format!("{max_err:.3e}"),
        ]);
        ctx.check(max_err < 1e-9, format!("eq18 factorises at n={n}"));

        // Forced design + forced testing: mirrored pops over the 8-demand
        // space, two different suite procedures.
        let max_err_19 = ctx
            .cell(
                format!("regime=eq19|world=mirrored(0.5,0.05)|profile-b=tail-heavy|n={n}"),
                |_scope| {
                    let mb8 = enumerate_iid_suites(
                        &UsageProfile::from_weights(
                            wf.profile.space(),
                            vec![0.05, 0.05, 0.05, 0.05, 0.2, 0.2, 0.2, 0.2],
                        )
                        .expect("valid"),
                        n,
                        1 << 14,
                    )
                    .expect("enumerable");
                    let ma8 = enumerate_iid_suites(&wf.profile, n, 1 << 14).expect("enumerable");
                    let brute_joint =
                        TestedEnsemble::new(&sa, &ma8, wf.pop_a.model()).joint_vector_independent(
                            &TestedEnsemble::new(&sb, &mb8, wf.pop_a.model()),
                        );
                    let max_err = wf
                        .profile
                        .space()
                        .iter()
                        .map(|x| {
                            let z = zeta(&wf.pop_a, x, &ma8) * zeta(&wf.pop_b, x, &mb8);
                            (brute_joint[x.index()] - z).abs()
                        })
                        .fold(0.0, f64::max);
                    vec![max_err]
                },
            )
            .get(0);
        table.row(&[
            "eq19 forced-design+testing".into(),
            n.to_string(),
            format!("{max_err_19:.3e}"),
        ]);
        ctx.check(max_err_19 < 1e-9, format!("eq19 factorises at n={n}"));
    }

    ctx.emit(table, "e03_indep_suites");
    ctx.note(
        "Claim reproduced: in all four independent-suite regimes the joint\n\
         probability factorises as ζ_A(x)·ζ_B(x) on every demand (≤1e-9, pure accumulation rounding).",
    );
}
