//! E14 — 1-out-of-N generalisation of the regime comparison.
//!
//! The paper analyses a two-channel system; its §3.1 argument iterates to
//! any number of channels (conditional independence under independent
//! suites), and the eq-20 coupling generalises to the N-fold mixed moment
//! over a shared suite. The experiment sweeps N, showing that each extra
//! channel buys orders of magnitude under independent suites but much
//! less under a shared suite — diversity, not redundancy, is what the
//! shared suite destroys.

use diversim_core::difficulty::TestedDifficulty;
use diversim_core::structure::{structure_pfd, Structure};
use diversim_core::testing_effect::TestingRegime;
use diversim_testing::suite_population::enumerate_iid_suites;

use crate::report::Table;
use crate::spec::{ExperimentSpec, FigureSpec, RunContext, SeriesSpec};
use crate::worlds::small_graded;

/// Declarative description of E14.
pub static SPEC: ExperimentSpec = ExperimentSpec {
    id: 14,
    slug: "e14",
    name: "e14_nversion",
    title: "1-out-of-N systems under both suite regimes",
    paper_ref: "§5-style extension of §3.1 / eq (20)",
    claim: "each added channel multiplies reliability under independent suites; a shared suite caps the benefit",
    sweep: "channel count N ∈ {1, …, 6}, 4-demand suites",
    full_replications: 0,
    figures: &[FigureSpec::new(
        0,
        "1-out-of-N system pfd vs channel count (log scale): under \
         independent suites each added channel multiplies reliability by \
         roughly 1/E[Θ_T]; under a shared suite the coupling term caps the \
         benefit after a few channels — redundancy without diversity.",
        "N",
        &[
            SeriesSpec::new("independent suites", "independent"),
            SeriesSpec::new("shared suite", "shared"),
        ],
    )
    .labels("channels N", "system pfd")
    .log_y()],
    run,
};

fn run(ctx: &mut RunContext) {
    ctx.note("E14: 1-out-of-N systems under both regimes (§5-style extension)\n");
    let w = small_graded();
    let suite_size = 4;

    let mut table = Table::new(
        &format!("system pfd vs channel count ({suite_size}-demand suites)"),
        &[
            "N",
            "independent",
            "shared",
            "shared/indep",
            "marginal gain (ind)",
            "marginal gain (sh)",
        ],
    );

    let mut prev_ind = f64::NAN;
    let mut prev_sh = f64::NAN;
    for n_channels in 1..=6 {
        // One exact cell per channel count: [independent pfd, shared pfd].
        let cell = ctx.cell(
            format!("world=small-graded|suite={suite_size}|channels={n_channels}|study=1oonN"),
            |_scope| {
                let m = enumerate_iid_suites(&w.profile, suite_size, 1 << 16).expect("enumerable");
                let pops: Vec<&dyn TestedDifficulty> = (0..n_channels)
                    .map(|_| &w.pop_a as &dyn TestedDifficulty)
                    .collect();
                let system = Structure::one_out_of_n(n_channels);
                [TestingRegime::IndependentSuites, TestingRegime::SharedSuite]
                    .map(|regime| {
                        structure_pfd(&system, &pops, &m, &w.profile, regime)
                            .expect("valid 1-out-of-N system")
                    })
                    .to_vec()
            },
        );
        let (ind, sh) = (cell.get(0), cell.get(1));
        let gain_ind = if prev_ind.is_nan() {
            f64::NAN
        } else {
            prev_ind / ind.max(1e-300)
        };
        let gain_sh = if prev_sh.is_nan() {
            f64::NAN
        } else {
            prev_sh / sh.max(1e-300)
        };
        table.row(&[
            n_channels.to_string(),
            format!("{ind:.3e}"),
            format!("{sh:.3e}"),
            format!("{:.1}", sh / ind.max(1e-300)),
            if gain_ind.is_nan() {
                "-".into()
            } else {
                format!("{gain_ind:.1}x")
            },
            if gain_sh.is_nan() {
                "-".into()
            } else {
                format!("{gain_sh:.1}x")
            },
        ]);

        ctx.check(
            sh + 1e-15 >= ind,
            format!("shared does not beat independent at N={n_channels}"),
        );
        if !prev_ind.is_nan() {
            ctx.check(
                ind <= prev_ind + 1e-15,
                format!("extra channel helps (independent) at N={n_channels}"),
            );
            ctx.check(
                sh <= prev_sh + 1e-15,
                format!("extra channel helps (shared) at N={n_channels}"),
            );
            // The marginal channel is worth more under independent suites.
            ctx.check(
                prev_ind / ind.max(1e-300) >= prev_sh / sh.max(1e-300) - 1e-9,
                format!("independent-suite marginal gain dominates at N={n_channels}"),
            );
        }
        prev_ind = ind;
        prev_sh = sh;
    }

    ctx.emit(table, "e14_nversion");
    ctx.note(
        "Claim reproduced: under independent suites each added channel multiplies\n\
         reliability by ~1/E[Θ_T]; under a shared suite the common factor\n\
         Var_Ξ-style coupling caps the benefit — redundancy without diversity.",
    );
}
