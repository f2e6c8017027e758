//! Injectable faults.
//!
//! The task-level kinds cover the paper's per-level fault classes:
//! value corruption (erroneous parameters / globals / messages), timing
//! overrun (the task-level "one task's delay … may cause another to miss
//! its deadline"), and crash (omission of all further outputs). The
//! node-level kinds model hardware failures: a permanent node crash and
//! a transient outage that heals after a fixed downtime. Node faults are
//! the inputs to the recovery subsystem (watchdog detection,
//! checkpoint/retry, failover).

use fcm_sched::Time;

use crate::model::TaskId;

/// The kind of fault to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The task's outputs become corrupt from the injection time onward.
    ValueCorruption,
    /// Every subsequent job of the task runs `factor` times its nominal
    /// computation time.
    TimingOverrun {
        /// Multiplier on the computation time (≥ 1 meaningful).
        factor: u32,
    },
    /// The task stops producing outputs (its jobs still consume CPU until
    /// the current one finishes, then the task never writes again).
    Crash,
    /// The target *processor* halts permanently: the running job is
    /// killed, queued jobs starve, and nothing executes there again. For
    /// node kinds [`Injection::target`] names a processor, not a task.
    NodeCrash,
    /// The target *processor* halts and heals after `downtime` ticks:
    /// the running job is killed, queued jobs resume on recovery.
    NodeTransient {
        /// Outage duration: the node accepts work again at
        /// `at + downtime`.
        downtime: Time,
    },
}

impl FaultKind {
    /// Whether this kind strikes a processor (so [`Injection::target`] is
    /// a processor index) rather than a task.
    pub fn is_node_fault(&self) -> bool {
        matches!(self, FaultKind::NodeCrash | FaultKind::NodeTransient { .. })
    }
}

/// One fault injection: `kind` strikes `target` at time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Injection time.
    pub at: Time,
    /// The task struck.
    pub target: TaskId,
    /// What happens.
    pub kind: FaultKind,
}

impl Injection {
    /// Corrupts `target`'s outputs from `at` onward.
    pub fn value(at: Time, target: TaskId) -> Self {
        Injection {
            at,
            target,
            kind: FaultKind::ValueCorruption,
        }
    }

    /// Makes `target` overrun by `factor` from `at` onward.
    pub fn overrun(at: Time, target: TaskId, factor: u32) -> Self {
        Injection {
            at,
            target,
            kind: FaultKind::TimingOverrun { factor },
        }
    }

    /// Crashes `target` at `at`.
    pub fn crash(at: Time, target: TaskId) -> Self {
        Injection {
            at,
            target,
            kind: FaultKind::Crash,
        }
    }

    /// Permanently halts processor `node` at `at`.
    pub fn node_crash(at: Time, node: usize) -> Self {
        Injection {
            at,
            target: node,
            kind: FaultKind::NodeCrash,
        }
    }

    /// Halts processor `node` at `at` for `downtime` ticks.
    pub fn node_transient(at: Time, node: usize, downtime: Time) -> Self {
        Injection {
            at,
            target: node,
            kind: FaultKind::NodeTransient { downtime },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let v = Injection::value(5, 2);
        assert_eq!(v.at, 5);
        assert_eq!(v.target, 2);
        assert!(matches!(v.kind, FaultKind::ValueCorruption));
        let o = Injection::overrun(1, 0, 3);
        assert!(matches!(o.kind, FaultKind::TimingOverrun { factor: 3 }));
        let c = Injection::crash(9, 1);
        assert!(matches!(c.kind, FaultKind::Crash));
        let n = Injection::node_crash(4, 1);
        assert_eq!(n.target, 1);
        assert!(matches!(n.kind, FaultKind::NodeCrash));
        let t = Injection::node_transient(4, 0, 25);
        assert!(matches!(t.kind, FaultKind::NodeTransient { downtime: 25 }));
    }

    #[test]
    fn node_kinds_are_flagged() {
        assert!(FaultKind::NodeCrash.is_node_fault());
        assert!(FaultKind::NodeTransient { downtime: 1 }.is_node_fault());
        assert!(!FaultKind::Crash.is_node_fault());
        assert!(!FaultKind::ValueCorruption.is_node_fault());
        assert!(!FaultKind::TimingOverrun { factor: 2 }.is_node_fault());
    }
}
