//! The three-level FCM hierarchy and per-level fault classes.

use std::fmt;

/// A level of the FCM hierarchy (paper Fig. 1).
///
/// The choice of exactly three levels is the paper's: *"The choice of
/// three levels (and the elements used) is deliberate, illustrating the
/// conceptual approach while minimizing model complexity."* Levels order
/// from the leaf up: `Procedure < Task < Process`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HierarchyLevel {
    /// Lowest level: a named, callable module without its own thread of
    /// control; communicates via parameters and global variables.
    Procedure,
    /// Middle level: a lightweight thread with its own stack and PC;
    /// tasks in one process may share data and communicate via messages.
    Task,
    /// Top level: a heavyweight (UNIX-like) process with its own code and
    /// data space.
    Process,
}

impl HierarchyLevel {
    /// All levels, leaf first.
    pub const ALL: [HierarchyLevel; 3] = [
        HierarchyLevel::Procedure,
        HierarchyLevel::Task,
        HierarchyLevel::Process,
    ];

    /// The level above, or `None` at `Process`.
    pub fn parent(self) -> Option<HierarchyLevel> {
        match self {
            HierarchyLevel::Procedure => Some(HierarchyLevel::Task),
            HierarchyLevel::Task => Some(HierarchyLevel::Process),
            HierarchyLevel::Process => None,
        }
    }

    /// The level below, or `None` at `Procedure`.
    pub fn child(self) -> Option<HierarchyLevel> {
        match self {
            HierarchyLevel::Procedure => None,
            HierarchyLevel::Task => Some(HierarchyLevel::Procedure),
            HierarchyLevel::Process => Some(HierarchyLevel::Task),
        }
    }

    /// The level's lower-case name (`"procedure"`, `"task"`, `"process"`).
    pub fn name(self) -> &'static str {
        match self {
            HierarchyLevel::Procedure => "procedure",
            HierarchyLevel::Task => "task",
            HierarchyLevel::Process => "process",
        }
    }

    /// The fault classes handled *at* this level (paper §3.1–3.3): each
    /// level of the hierarchy isolates a predefined class of faults.
    pub fn fault_classes(self) -> &'static [FaultClass] {
        match self {
            HierarchyLevel::Procedure => &[
                FaultClass::ErroneousParameter,
                FaultClass::GlobalVariableCorruption,
                FaultClass::ErroneousReturnValue,
            ],
            HierarchyLevel::Task => &[
                FaultClass::SharedMemoryCorruption,
                FaultClass::MessageCorruption,
                FaultClass::TimingOverrun,
                FaultClass::PriorityInversion,
            ],
            HierarchyLevel::Process => &[
                FaultClass::MemoryFootprint,
                FaultClass::ResourceOveruse,
                FaultClass::SchedulingFault,
                FaultClass::CommunicationFault,
            ],
        }
    }

    /// Whether `fault` is handled at this level.
    pub fn handles(self, fault: FaultClass) -> bool {
        self.fault_classes().contains(&fault)
    }
}

impl fmt::Display for HierarchyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A class of fault, assigned to the hierarchy level that must contain it
/// (paper: "isolation of fault types into fixed levels of a
/// design/implementation hierarchy").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultClass {
    // Procedure level.
    /// An erroneous value passed as a parameter.
    ErroneousParameter,
    /// Corruption spread through a global variable.
    GlobalVariableCorruption,
    /// An erroneous return value.
    ErroneousReturnValue,
    // Task level.
    /// Corruption of memory shared between tasks.
    SharedMemoryCorruption,
    /// A corrupted or lost inter-task message.
    MessageCorruption,
    /// A task overrunning its budget and delaying others ("one task's
    /// delay … may cause another to miss its deadline").
    TimingOverrun,
    /// Priority inversion between tasks.
    PriorityInversion,
    // Process level.
    /// Memory-space overlap between processes ("memory footprints").
    MemoryFootprint,
    /// Overuse of a shared resource (e.g. CPU).
    ResourceOveruse,
    /// A processor-level scheduling fault.
    SchedulingFault,
    /// A fault in inter-process communication over shared HW.
    CommunicationFault,
}

impl FaultClass {
    /// The hierarchy level responsible for containing this fault class.
    pub fn level(self) -> HierarchyLevel {
        match self {
            FaultClass::ErroneousParameter
            | FaultClass::GlobalVariableCorruption
            | FaultClass::ErroneousReturnValue => HierarchyLevel::Procedure,
            FaultClass::SharedMemoryCorruption
            | FaultClass::MessageCorruption
            | FaultClass::TimingOverrun
            | FaultClass::PriorityInversion => HierarchyLevel::Task,
            FaultClass::MemoryFootprint
            | FaultClass::ResourceOveruse
            | FaultClass::SchedulingFault
            | FaultClass::CommunicationFault => HierarchyLevel::Process,
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultClass::ErroneousParameter => "erroneous parameter",
            FaultClass::GlobalVariableCorruption => "global variable corruption",
            FaultClass::ErroneousReturnValue => "erroneous return value",
            FaultClass::SharedMemoryCorruption => "shared memory corruption",
            FaultClass::MessageCorruption => "message corruption",
            FaultClass::TimingOverrun => "timing overrun",
            FaultClass::PriorityInversion => "priority inversion",
            FaultClass::MemoryFootprint => "memory footprint overlap",
            FaultClass::ResourceOveruse => "resource overuse",
            FaultClass::SchedulingFault => "scheduling fault",
            FaultClass::CommunicationFault => "communication fault",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_leaf_to_root() {
        assert!(HierarchyLevel::Procedure < HierarchyLevel::Task);
        assert!(HierarchyLevel::Task < HierarchyLevel::Process);
    }

    #[test]
    fn parent_child_are_inverse() {
        for level in HierarchyLevel::ALL {
            if let Some(p) = level.parent() {
                assert_eq!(p.child(), Some(level));
            }
            if let Some(c) = level.child() {
                assert_eq!(c.parent(), Some(level));
            }
        }
        assert_eq!(HierarchyLevel::Process.parent(), None);
        assert_eq!(HierarchyLevel::Procedure.child(), None);
    }

    #[test]
    fn every_fault_class_maps_to_its_level() {
        for level in HierarchyLevel::ALL {
            for &fc in level.fault_classes() {
                assert_eq!(fc.level(), level);
                assert!(level.handles(fc));
            }
        }
    }

    #[test]
    fn fault_classes_are_disjoint_across_levels() {
        let all: Vec<FaultClass> = HierarchyLevel::ALL
            .iter()
            .flat_map(|l| l.fault_classes().iter().copied())
            .collect();
        let mut dedup = all.clone();
        dedup.dedup();
        assert_eq!(all.len(), dedup.len());
        // A task-level fault is not handled at process level.
        assert!(!HierarchyLevel::Process.handles(FaultClass::TimingOverrun));
    }

    #[test]
    fn display_is_lowercase_prose() {
        assert_eq!(HierarchyLevel::Task.to_string(), "task");
        assert_eq!(
            FaultClass::MemoryFootprint.to_string(),
            "memory footprint overlap"
        );
    }
}
