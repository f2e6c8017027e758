//! Error type for the simulator.

use std::error::Error;
use std::fmt;

/// Errors reported while building or running a simulated system.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A task referenced a processor outside the platform.
    UnknownProcessor {
        /// The offending processor index.
        processor: usize,
        /// Number of processors in the platform.
        count: usize,
    },
    /// A task referenced a medium that does not exist.
    UnknownMedium {
        /// The offending medium index.
        index: usize,
    },
    /// A task id was out of range.
    UnknownTask {
        /// The offending task index.
        index: usize,
    },
    /// A probability parameter was outside `[0, 1]`.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// A task has zero computation time or a zero period.
    InvalidTiming {
        /// Name of the offending task.
        task: String,
    },
    /// A campaign was configured with zero trials.
    NoTrials,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownProcessor { processor, count } => {
                write!(
                    f,
                    "processor {processor} out of range for platform of {count}"
                )
            }
            SimError::UnknownMedium { index } => write!(f, "unknown medium {index}"),
            SimError::UnknownTask { index } => write!(f, "unknown task {index}"),
            SimError::InvalidProbability { value } => {
                write!(f, "probability {value} is outside [0, 1]")
            }
            SimError::InvalidTiming { task } => {
                write!(f, "task {task} has zero computation time or period")
            }
            SimError::NoTrials => write!(f, "campaign requires at least one trial"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert_eq!(
            SimError::UnknownProcessor {
                processor: 3,
                count: 2
            }
            .to_string(),
            "processor 3 out of range for platform of 2"
        );
        assert!(SimError::InvalidTiming { task: "nav".into() }
            .to_string()
            .contains("nav"));
    }

    #[test]
    fn is_send_sync() {
        fn check<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        check(SimError::NoTrials);
    }
}
