//! Error type for the core crate.

use std::error::Error;
use std::fmt;

/// Errors raised while configuring the Cohmeleon framework.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Reward weights were all zero or non-finite.
    InvalidRewardWeights {
        /// The offending `(x, y, z)` triple.
        weights: (f64, f64, f64),
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidRewardWeights { weights } => write!(
                f,
                "reward weights ({}, {}, {}) must be finite, non-negative and not all zero",
                weights.0, weights.1, weights.2
            ),
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = CoreError::InvalidRewardWeights {
            weights: (0.0, 0.0, 0.0),
        };
        let msg = e.to_string();
        assert!(msg.starts_with("reward weights"));
        assert!(msg.contains("(0, 0, 0)"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(CoreError::InvalidRewardWeights {
            weights: (1.0, f64::NAN, 0.0),
        });
    }
}
