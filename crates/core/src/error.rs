//! Error type for FCM model construction and composition.

use std::error::Error;
use std::fmt;

use crate::hierarchy::FcmId;

/// Errors reported by the FCM model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FcmError {
    /// An FCM id does not exist (or was consumed by a merge).
    UnknownFcm {
        /// The offending id.
        id: FcmId,
    },
    /// Rule R1: a child must be exactly one level below its parent.
    LevelMismatch {
        /// Name of the would-be parent's level.
        parent: String,
        /// Name of the would-be child's level.
        child: String,
    },
    /// A leaf-level FCM (a procedure, in the paper's ladder) cannot have
    /// children (nothing below it).
    BelowLeafLevel {
        /// The leaf-level FCM.
        id: FcmId,
        /// Name of its level.
        level: String,
    },
    /// Rule R2: the integration DAG must be a tree; the FCM already has a
    /// parent and cannot be shared ("if two FCMs share a lower-level FCM,
    /// boundaries become unclear").
    AlreadyHasParent {
        /// The FCM that would gain a second parent.
        id: FcmId,
        /// Its existing parent.
        parent: FcmId,
    },
    /// Rule R3/R4: merging FCMs that are not siblings. Use
    /// [`Hierarchy::integrate_across`](crate::Hierarchy::integrate_across)
    /// to first integrate the parents (R4), or duplicate the child.
    NotSiblings {
        /// First FCM.
        a: FcmId,
        /// Second FCM.
        b: FcmId,
    },
    /// A merge or group of zero or one FCM was requested.
    NothingToCompose,
    /// A probability was outside `[0, 1]`.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// Two replicas of the same module may never be merged or co-located.
    ReplicaConflict {
        /// First replica.
        a: FcmId,
        /// Second replica.
        b: FcmId,
    },
    /// An operation that requires a parent was applied to a root.
    IsRoot {
        /// The root FCM.
        id: FcmId,
    },
}

impl fmt::Display for FcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FcmError::UnknownFcm { id } => write!(f, "unknown fcm {id}"),
            FcmError::LevelMismatch { parent, child } => write!(
                f,
                "rule R1 violation: a {child} cannot be the direct child of a {parent}"
            ),
            FcmError::BelowLeafLevel { id, level } => {
                write!(f, "fcm {id} is a {level} and cannot have children")
            }
            FcmError::AlreadyHasParent { id, parent } => write!(
                f,
                "rule R2 violation: fcm {id} already belongs to parent {parent}; the integration dag must stay a tree"
            ),
            FcmError::NotSiblings { a, b } => write!(
                f,
                "rule R3 violation: fcm {a} and fcm {b} are not siblings; integrate their parents first (rule R4) or duplicate the child"
            ),
            FcmError::NothingToCompose => write!(f, "composition requires at least two fcms"),
            FcmError::InvalidProbability { value } => {
                write!(f, "probability {value} is outside [0, 1]")
            }
            FcmError::ReplicaConflict { a, b } => write!(
                f,
                "fcm {a} and fcm {b} are replicas of the same module and must stay separated"
            ),
            FcmError::IsRoot { id } => write!(f, "fcm {id} is a root and has no parent"),
        }
    }
}

impl Error for FcmError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::HierarchyLevel;

    #[test]
    fn messages_name_the_violated_rule() {
        let e = FcmError::LevelMismatch {
            parent: HierarchyLevel::Process.to_string(),
            child: HierarchyLevel::Procedure.to_string(),
        };
        assert_eq!(
            e.to_string(),
            "rule R1 violation: a procedure cannot be the direct child of a process"
        );
        let e = FcmError::AlreadyHasParent {
            id: FcmId(1),
            parent: FcmId(0),
        };
        assert!(e.to_string().contains("R2"));
        let e = FcmError::NotSiblings {
            a: FcmId(1),
            b: FcmId(2),
        };
        assert!(e.to_string().contains("R3"));
        assert!(e.to_string().contains("R4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        check(FcmError::NothingToCompose);
    }
}
