//! Error type for the allocation layer.

use std::error::Error;
use std::fmt;

use fcm_core::FcmError;
use fcm_graph::GraphError;

/// Errors reported while clustering SW nodes or mapping them to HW.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AllocError {
    /// A SW node index was out of range.
    UnknownSwNode {
        /// The offending index.
        index: usize,
    },
    /// A HW node index was out of range.
    UnknownHwNode {
        /// The offending index.
        index: usize,
    },
    /// Two replicas of the same module ended up in one cluster or on one
    /// HW node ("two nodes connected by an edge of weight of 0 cannot be
    /// combined").
    ReplicaConflict {
        /// Name of the first replica.
        a: String,
        /// Name of the second replica.
        b: String,
    },
    /// A cluster's merged job set is not schedulable on one processor.
    Unschedulable {
        /// Names of the cluster members.
        members: Vec<String>,
    },
    /// No clustering to the requested size exists under the constraints.
    NoFeasibleClustering {
        /// Number of clusters requested.
        requested: usize,
        /// Number of clusters reached before getting stuck.
        reached: usize,
    },
    /// No assignment of clusters to HW nodes satisfies the constraints.
    NoFeasibleMapping {
        /// Human-readable reason.
        reason: String,
    },
    /// More clusters than HW nodes.
    TooFewHwNodes {
        /// Number of clusters to place.
        clusters: usize,
        /// Number of HW nodes available.
        hw_nodes: usize,
    },
    /// An influence value was outside `(0, 1]` (0 is reserved for replica
    /// links, which have their own constructor).
    InvalidInfluence {
        /// The offending value.
        value: f64,
    },
    /// An underlying graph error.
    Graph(GraphError),
    /// An underlying FCM-model error.
    Fcm(FcmError),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::UnknownSwNode { index } => write!(f, "unknown sw node {index}"),
            AllocError::UnknownHwNode { index } => write!(f, "unknown hw node {index}"),
            AllocError::ReplicaConflict { a, b } => {
                write!(f, "replicas {a} and {b} cannot be combined or co-located")
            }
            AllocError::Unschedulable { members } => {
                write!(
                    f,
                    "cluster {{{}}} is not schedulable on one processor",
                    members.join(", ")
                )
            }
            AllocError::NoFeasibleClustering { requested, reached } => write!(
                f,
                "no feasible clustering into {requested} clusters (stuck at {reached})"
            ),
            AllocError::NoFeasibleMapping { reason } => {
                write!(f, "no feasible sw-to-hw mapping: {reason}")
            }
            AllocError::TooFewHwNodes { clusters, hw_nodes } => {
                write!(f, "{clusters} clusters cannot map onto {hw_nodes} hw nodes")
            }
            AllocError::InvalidInfluence { value } => {
                write!(
                    f,
                    "influence {value} must lie in (0, 1]; weight 0 is reserved for replica links"
                )
            }
            AllocError::Graph(e) => write!(f, "graph error: {e}"),
            AllocError::Fcm(e) => write!(f, "fcm error: {e}"),
        }
    }
}

impl Error for AllocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AllocError::Graph(e) => Some(e),
            AllocError::Fcm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for AllocError {
    fn from(e: GraphError) -> Self {
        AllocError::Graph(e)
    }
}

impl From<FcmError> for AllocError {
    fn from(e: FcmError) -> Self {
        AllocError::Fcm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = AllocError::ReplicaConflict {
            a: "p1a".into(),
            b: "p1b".into(),
        };
        assert_eq!(
            e.to_string(),
            "replicas p1a and p1b cannot be combined or co-located"
        );
        let e = AllocError::Unschedulable {
            members: vec!["p4".into(), "p5".into()],
        };
        assert!(e.to_string().contains("p4, p5"));
        let e = AllocError::TooFewHwNodes {
            clusters: 8,
            hw_nodes: 6,
        };
        assert!(e.to_string().contains('8'));
    }

    #[test]
    fn graph_errors_convert_and_chain() {
        let e: AllocError = GraphError::EmptyGraph.into();
        assert!(matches!(e, AllocError::Graph(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e: AllocError = FcmError::NothingToCompose.into();
        assert!(matches!(e, AllocError::Fcm(_)));
    }

    #[test]
    fn is_send_sync() {
        fn check<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        check(AllocError::UnknownSwNode { index: 0 });
    }
}
