//! Error types for parameter-space construction and GA execution.

use std::error::Error;
use std::fmt;

/// Errors produced while building a [`crate::ParamSpace`] or running a GA.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GaError {
    /// Two parameters were declared with the same name.
    DuplicateParam(String),
    /// A parameter domain contains no values.
    EmptyDomain(String),
    /// An integer range was inverted or had a non-positive step.
    InvalidRange {
        /// Offending parameter name.
        param: String,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A parameter name was looked up that does not exist in the space.
    UnknownParam(String),
    /// A value was supplied that is not a member of the parameter's domain.
    BadValue {
        /// Parameter the value was supplied for.
        param: String,
        /// Display form of the rejected value.
        value: String,
    },
    /// A space was built with zero parameters.
    EmptySpace,
    /// No feasible genome could be sampled within the retry budget.
    NoFeasibleGenome {
        /// Number of sampling attempts that were made.
        attempts: usize,
    },
    /// A configuration knob was set outside its legal range.
    InvalidConfig(String),
    /// The checkpoint journal could not be written or read, or belongs to
    /// another run.
    Checkpoint(String),
}

impl fmt::Display for GaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GaError::DuplicateParam(name) => write!(f, "duplicate parameter name `{name}`"),
            GaError::EmptyDomain(name) => write!(f, "parameter `{name}` has an empty domain"),
            GaError::InvalidRange { param, reason } => {
                write!(f, "invalid range for parameter `{param}`: {reason}")
            }
            GaError::UnknownParam(name) => write!(f, "unknown parameter `{name}`"),
            GaError::BadValue { param, value } => {
                write!(f, "value `{value}` is not in the domain of parameter `{param}`")
            }
            GaError::EmptySpace => write!(f, "parameter space has no parameters"),
            GaError::NoFeasibleGenome { attempts } => {
                write!(f, "no feasible genome found after {attempts} attempts")
            }
            GaError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            GaError::Checkpoint(reason) => write!(f, "checkpoint error: {reason}"),
        }
    }
}

impl Error for GaError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(GaError, &str)> = vec![
            (GaError::DuplicateParam("vcs".into()), "vcs"),
            (GaError::EmptyDomain("w".into()), "w"),
            (GaError::InvalidRange { param: "d".into(), reason: "lo > hi".into() }, "lo > hi"),
            (GaError::UnknownParam("nope".into()), "nope"),
            (GaError::BadValue { param: "p".into(), value: "9".into() }, "9"),
            (GaError::EmptySpace, "no parameters"),
            (GaError::NoFeasibleGenome { attempts: 7 }, "7"),
            (GaError::InvalidConfig("pop=0".into()), "pop=0"),
            (GaError::Checkpoint("bad crc".into()), "bad crc"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GaError>();
    }
}
