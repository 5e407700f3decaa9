//! Property-based tests of the stopping-rule arithmetic: the demand
//! count [`failure_free_tests_required`] promises must actually deliver
//! the confidence [`failure_free_confidence`] reports, one test fewer
//! must not, and the Bayesian posterior must respond monotonically to
//! evidence.

use proptest::prelude::*;

use diversim_stats::stopping::{
    bayesian_confidence, failure_free_confidence, failure_free_tests_required, StoppingRule,
    StoppingState,
};

/// Targets spanning fourteen decades, including the regions where
/// `1.0 - target` loses precision, paired with workable confidences.
fn target_and_confidence() -> impl Strategy<Value = (f64, f64)> {
    (
        prop_oneof![1e-14f64..1e-6, 1e-6f64..1e-2, 0.01f64..0.99,],
        0.01f64..0.999_999,
    )
}

proptest! {
    #[test]
    fn required_tests_round_trip_through_confidence(
        (target, confidence) in target_and_confidence(),
    ) {
        let n = failure_free_tests_required(target, confidence).unwrap();
        prop_assert!(n >= 1, "positive targets need at least one test");
        // The promised demand count achieves the promised confidence…
        let achieved = failure_free_confidence(target, n).unwrap();
        prop_assert!(
            achieved >= confidence,
            "{n} tests at target {target} give {achieved} < {confidence}"
        );
        // …and it is the *smallest* such count.
        let short = failure_free_confidence(target, n - 1).unwrap();
        prop_assert!(
            short < confidence,
            "{} tests already give {short} >= {confidence}", n - 1
        );
    }

    #[test]
    fn confidence_is_monotone_in_tests_and_target(
        (target, _) in target_and_confidence(),
        n in 1u64..1_000_000,
    ) {
        let c = failure_free_confidence(target, n).unwrap();
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(failure_free_confidence(target, n + 1).unwrap() >= c);
        prop_assert!(failure_free_confidence(target, 0).unwrap() == 0.0);
    }

    #[test]
    fn bayesian_posterior_is_monotone_in_evidence(
        n in 1u64..500,
        failures in 0u64..20,
        target in 0.01f64..0.5,
    ) {
        let failures = failures.min(n);
        let post = bayesian_confidence(1.0, 1.0, n, failures, target).unwrap();
        prop_assert!((0.0..=1.0).contains(&post));
        // More failure-free demands: never less confident.
        let more = bayesian_confidence(1.0, 1.0, n + 1, failures, target).unwrap();
        prop_assert!(more >= post - 1e-12);
        // One more failure in the same demand count: never more confident.
        if failures < n {
            let worse = bayesian_confidence(1.0, 1.0, n, failures + 1, target).unwrap();
            prop_assert!(worse <= post + 1e-12);
        }
    }
}

/// A `FailureFree` state computes its threshold once, at construction;
/// at every step of a fixed failure pattern it must still answer
/// `should_stop` exactly as the formula recomputed there would, errors
/// included.
#[test]
fn failure_free_state_answers_as_the_formula_at_every_step() {
    let valid_targets = [0.5, 0.05, 0.005, 2f64.powi(-60)];
    let valid_confidences = [0.5, 0.95, 0.999];
    let invalid = [0.0, 1.0, f64::NAN];
    let mut cases = Vec::new();
    for &target in &valid_targets {
        for &confidence in &valid_confidences {
            cases.push((target, confidence));
        }
    }
    for &bad in &invalid {
        cases.push((bad, 0.95));
        cases.push((0.05, bad));
    }
    // Failures scattered over the first 500 demands, then a failure-free
    // run long enough to reach every valid threshold but 2⁻⁶⁰'s.
    let failed = |i: usize| i < 500 && i % 97 == 5;
    for (target, confidence) in cases {
        let mut state = StoppingState::new(StoppingRule::FailureFree { target, confidence });
        let mut run = 0u64;
        let mut stopped = 0;
        for i in 0..2_000 {
            let expected =
                failure_free_tests_required(target, confidence).map(|needed| run >= needed);
            let got = state.should_stop();
            // Compare through Debug: a NaN parameter makes the error
            // unequal to itself under `PartialEq`.
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "target {target}, confidence {confidence}, step {i}"
            );
            stopped += usize::from(got == Ok(true));
            state.record(failed(i));
            run = if failed(i) { 0 } else { run + 1 };
        }
        let reachable = (0.005..1.0).contains(&target) && confidence > 0.0 && confidence < 1.0;
        assert_eq!(
            stopped > 0,
            reachable,
            "target {target}, confidence {confidence}"
        );
    }
}
