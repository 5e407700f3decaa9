//! Error type for the core model computations.

use std::error::Error;
use std::fmt;

use diversim_testing::TestingError;
use diversim_universe::UniverseError;

/// Errors raised by the core model computations.
///
/// `Display` messages are stable (downstream layers forward them as
/// user- and wire-facing error strings); `#[non_exhaustive]` so new
/// validations can add variants without a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The two populations (or a population and a profile/suite) are
    /// defined over different demand spaces or fault models.
    ModelMismatch {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// An analysis needed at least one population/suite and got none.
    EmptyInput {
        /// What was missing.
        what: &'static str,
    },
    /// A [`crate::structure::Structure`] tree is malformed: an empty gate,
    /// a `k` outside `1..=n`, a component index out of range, or a
    /// repeated-component tree too wide to enumerate.
    InvalidStructure {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Underlying universe error.
    Universe(UniverseError),
    /// Underlying testing error.
    Testing(TestingError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ModelMismatch { reason } => write!(f, "model mismatch: {reason}"),
            CoreError::EmptyInput { what } => write!(f, "empty input: {what}"),
            CoreError::InvalidStructure { reason } => {
                write!(f, "invalid structure: {reason}")
            }
            CoreError::Universe(e) => write!(f, "universe error: {e}"),
            CoreError::Testing(e) => write!(f, "testing error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Universe(e) => Some(e),
            CoreError::Testing(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UniverseError> for CoreError {
    fn from(e: UniverseError) -> Self {
        CoreError::Universe(e)
    }
}

impl From<TestingError> for CoreError {
    fn from(e: TestingError) -> Self {
        CoreError::Testing(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = CoreError::ModelMismatch {
            reason: "spaces differ",
        };
        assert!(e.to_string().contains("spaces differ"));
        let u: CoreError = UniverseError::EmptyDemandSpace.into();
        assert!(Error::source(&u).is_some());
        let t: CoreError = TestingError::InvalidSuitePopulation { reason: "x" }.into();
        assert!(Error::source(&t).is_some());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
