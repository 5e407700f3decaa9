//! Exact moments under discrete probability measures.
//!
//! The Popov–Littlewood model is built entirely from expectations of
//! functions of a demand `X ~ Q(·)`, a program `Π ~ S(·)` or a test suite
//! `T ~ M(·)` over *finite* discrete spaces. This module computes those
//! moments exactly from `(value, weight)` pairs:
//!
//! * `E[f(X)]` — [`mean`]
//! * `Var(f(X)) = E[f²] − E[f]²` — [`variance`]
//! * `Cov(f(X), g(X))` — [`covariance`]
//!
//! Weights need not be normalised; they are divided by their sum. All of
//! the paper's headline quantities — `Var(Θ)` in equation (6),
//! `Cov(Θ_A, Θ_B)` in (9), `Var_Ξ(ξ(x,T))` in (20), the covariance term in
//! (21) — reduce to these three functions.

use crate::error::StatsError;

/// The exact first two central moments of a function under a discrete
/// measure, as returned by [`moments`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// The expectation `E[f]`.
    pub mean: f64,
    /// The (population) variance `E[f²] − E[f]²`, clamped at zero to guard
    /// against negative rounding residue.
    pub variance: f64,
}

fn validated_total<I>(pairs: I) -> Result<(Vec<(f64, f64)>, f64), StatsError>
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let mut collected = Vec::new();
    let mut total = 0.0_f64;
    for (value, weight) in pairs {
        if !weight.is_finite() || weight < 0.0 {
            return Err(StatsError::InvalidWeights);
        }
        total += weight;
        collected.push((value, weight));
    }
    if collected.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if total <= 0.0 || !total.is_finite() {
        return Err(StatsError::InvalidWeights);
    }
    Ok((collected, total))
}

/// Computes the exact weighted mean `E[f] = Σ f(x)·w(x) / Σ w(x)`.
///
/// # Errors
///
/// Returns [`StatsError::EmptySample`] for an empty iterator and
/// [`StatsError::InvalidWeights`] if any weight is negative or non-finite,
/// or all weights are zero.
///
/// # Examples
///
/// ```
/// let m = diversim_stats::weighted::mean([(1.0, 0.25), (3.0, 0.75)]).unwrap();
/// assert!((m - 2.5).abs() < 1e-12);
/// ```
pub fn mean<I>(pairs: I) -> Result<f64, StatsError>
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let (pairs, total) = validated_total(pairs)?;
    Ok(pairs.iter().map(|(v, w)| v * w).sum::<f64>() / total)
}

/// Computes the exact mean and population variance under the measure.
///
/// # Errors
///
/// Same as [`mean`].
pub fn moments<I>(pairs: I) -> Result<Moments, StatsError>
where
    I: IntoIterator<Item = (f64, f64)>,
{
    let (pairs, total) = validated_total(pairs)?;
    let mean = pairs.iter().map(|(v, w)| v * w).sum::<f64>() / total;
    // Two-pass centred sum for accuracy.
    let variance = pairs
        .iter()
        .map(|(v, w)| (v - mean) * (v - mean) * w)
        .sum::<f64>()
        / total;
    Ok(Moments {
        mean,
        variance: variance.max(0.0),
    })
}

/// Computes the exact population variance `Var(f) = E[(f − E[f])²]`.
///
/// # Errors
///
/// Same as [`mean`].
pub fn variance<I>(pairs: I) -> Result<f64, StatsError>
where
    I: IntoIterator<Item = (f64, f64)>,
{
    Ok(moments(pairs)?.variance)
}

/// Computes the exact covariance `Cov(f, g)` of two functions evaluated on
/// the same discrete measure, from `((f(x), g(x)), weight)` triples.
///
/// # Errors
///
/// Same as [`mean`].
///
/// # Examples
///
/// ```
/// // f and g perfectly anti-aligned on a two-point space.
/// let cov = diversim_stats::weighted::covariance([
///     ((0.0, 1.0), 0.5),
///     ((1.0, 0.0), 0.5),
/// ]).unwrap();
/// assert!((cov + 0.25).abs() < 1e-12);
/// ```
pub fn covariance<I>(triples: I) -> Result<f64, StatsError>
where
    I: IntoIterator<Item = ((f64, f64), f64)>,
{
    let mut collected = Vec::new();
    let mut total = 0.0_f64;
    for ((fv, gv), weight) in triples {
        if !weight.is_finite() || weight < 0.0 {
            return Err(StatsError::InvalidWeights);
        }
        total += weight;
        collected.push((fv, gv, weight));
    }
    if collected.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if total <= 0.0 || !total.is_finite() {
        return Err(StatsError::InvalidWeights);
    }
    let mean_f = collected.iter().map(|(f, _, w)| f * w).sum::<f64>() / total;
    let mean_g = collected.iter().map(|(_, g, w)| g * w).sum::<f64>() / total;
    Ok(collected
        .iter()
        .map(|(f, g, w)| (f - mean_f) * (g - mean_g) * w)
        .sum::<f64>()
        / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_uniform_weights_is_arithmetic_mean() {
        let m = mean([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]).unwrap();
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weights_need_not_be_normalised() {
        let a = mean([(1.0, 2.0), (5.0, 6.0)]).unwrap();
        let b = mean([(1.0, 0.25), (5.0, 0.75)]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let v = variance([(3.0, 0.2), (3.0, 0.8)]).unwrap();
        assert!(v.abs() < 1e-24);
    }

    #[test]
    fn bernoulli_variance() {
        // f = 1 with prob 0.3 → Var = 0.3 * 0.7.
        let v = variance([(1.0, 0.3), (0.0, 0.7)]).unwrap();
        assert!((v - 0.21).abs() < 1e-12);
    }

    #[test]
    fn variance_identity_e2_minus_mean_sq() {
        let pairs = [(0.1, 0.2), (0.4, 0.5), (0.9, 0.3)];
        let m = moments(pairs).unwrap();
        let e2 = mean(pairs.iter().map(|&(v, w)| (v * v, w))).unwrap();
        assert!((m.variance - (e2 - m.mean * m.mean)).abs() < 1e-12);
    }

    #[test]
    fn covariance_of_identical_functions_is_variance() {
        let pairs = [(0.2, 0.3), (0.7, 0.7)];
        let v = variance(pairs).unwrap();
        let c = covariance(pairs.iter().map(|&(x, w)| ((x, x), w))).unwrap();
        assert!((v - c).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty_and_bad_weights() {
        assert_eq!(
            mean(std::iter::empty::<(f64, f64)>()),
            Err(StatsError::EmptySample)
        );
        assert_eq!(mean([(1.0, -0.5)]), Err(StatsError::InvalidWeights));
        assert_eq!(mean([(1.0, 0.0)]), Err(StatsError::InvalidWeights));
        assert_eq!(mean([(1.0, f64::NAN)]), Err(StatsError::InvalidWeights));
        assert_eq!(
            covariance([(((1.0), (2.0)), -1.0)]),
            Err(StatsError::InvalidWeights)
        );
    }

    #[test]
    fn variance_never_negative_under_rounding() {
        // Values so close that naive E[f²]−E[f]² could round negative.
        let x = 0.1 + 1e-15;
        let v = variance([(0.1, 0.5), (x, 0.5)]).unwrap();
        assert!(v >= 0.0);
    }
}
