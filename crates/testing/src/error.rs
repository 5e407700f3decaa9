//! Error type for the testing substrate.

use std::error::Error;
use std::fmt;

use diversim_universe::UniverseError;

/// Errors raised while constructing test suites, generators or testing
/// processes.
///
/// `Display` messages are stable (downstream layers forward them as
/// user- and wire-facing error strings); `#[non_exhaustive]` so new
/// validations can add variants without a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TestingError {
    /// A suite referenced a demand outside its space.
    Universe(UniverseError),
    /// A probability-valued parameter was outside `[0, 1]`.
    InvalidProbability {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A suite population was empty or had degenerate weights.
    InvalidSuitePopulation {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Exact enumeration would exceed the caller-supplied limit.
    EnumerationTooLarge {
        /// The size that would be required.
        required: usize,
        /// The caller's limit.
        limit: usize,
    },
}

impl fmt::Display for TestingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestingError::Universe(e) => write!(f, "universe error: {e}"),
            TestingError::InvalidProbability { name, value } => {
                write!(
                    f,
                    "parameter `{name}` must be a probability in [0, 1], got {value}"
                )
            }
            TestingError::InvalidSuitePopulation { reason } => {
                write!(f, "invalid suite population: {reason}")
            }
            TestingError::EnumerationTooLarge { required, limit } => {
                write!(
                    f,
                    "enumeration needs {required} entries, exceeding the limit of {limit}"
                )
            }
        }
    }
}

impl Error for TestingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TestingError::Universe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UniverseError> for TestingError {
    fn from(e: UniverseError) -> Self {
        TestingError::Universe(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = TestingError::EnumerationTooLarge {
            required: 1024,
            limit: 100,
        };
        assert!(e.to_string().contains("1024"));
        assert!(Error::source(&e).is_none());

        let wrapped: TestingError = UniverseError::EmptyDemandSpace.into();
        assert!(Error::source(&wrapped).is_some());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TestingError>();
    }
}
