//! The ladders of levels an FCM hierarchy is built over.
//!
//! The paper fixes three levels but is explicit that the choice is
//! presentational: *"Once such a framework is established, it is possible
//! to add/delete levels (or elements of the hierarchy) as desired"*, and
//! its OO footnote observes that *"object-oriented implementation …
//! introduces objects/classes as another natural level in the hierarchy,
//! with its own kinds of faults"*. This module holds only the ladder
//! types: the [`Ladder`] trait, the paper's fixed [`PaperLadder`], and a
//! [`LevelLadder`] that names an arbitrary ordered set of levels. The
//! composition rules R1–R5 exist once, in [`Hierarchy`], which is generic
//! over the ladder; [`FcmHierarchy`](crate::FcmHierarchy) and
//! [`GenericFcmHierarchy`] are its two instances.

use std::fmt;

use crate::error::FcmError;
use crate::hierarchy::{Fcm, Hierarchy};
use crate::level::HierarchyLevel;

/// An ordered set of hierarchy levels: what rules R1–R5 need to know
/// about the levels an FCM hierarchy steps between.
pub trait Ladder {
    /// A level of this ladder.
    type Level: Copy + Eq + fmt::Debug;

    /// The level below `level`, or `None` at the leaf.
    fn child(&self, level: Self::Level) -> Option<Self::Level>;

    /// The level above `level`, or `None` at the top.
    fn parent(&self, level: Self::Level) -> Option<Self::Level>;

    /// The name of `level`, as error messages print it.
    fn name(&self, level: Self::Level) -> &str;
}

/// The paper's fixed three-level ladder, `procedure < task < process`:
/// the default instance behind [`FcmHierarchy`](crate::FcmHierarchy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperLadder;

impl Ladder for PaperLadder {
    type Level = HierarchyLevel;

    fn child(&self, level: HierarchyLevel) -> Option<HierarchyLevel> {
        level.child()
    }

    fn parent(&self, level: HierarchyLevel) -> Option<HierarchyLevel> {
        level.parent()
    }

    fn name(&self, level: HierarchyLevel) -> &str {
        level.name()
    }
}

/// An FCM in a hierarchy over a [`LevelLadder`].
pub type GenericFcm = Fcm<Rank>;

/// An FCM hierarchy over an arbitrary [`LevelLadder`], enforcing the
/// same composition rules R1–R5 as the fixed three-level
/// [`FcmHierarchy`](crate::FcmHierarchy).
///
/// # Example
///
/// ```
/// use fcm_core::ladder::{GenericFcmHierarchy, LevelLadder};
/// use fcm_core::AttributeSet;
///
/// let ladder = LevelLadder::with_objects();
/// let top = ladder.top();
/// let mut h = GenericFcmHierarchy::new(ladder);
/// let process = h.add_root("fms", top, AttributeSet::default())?;
/// let task = h.add_child(process, "route", AttributeSet::default())?;
/// let object = h.add_child(task, "leg", AttributeSet::default())?;
/// let proc1 = h.add_child(object, "distance", AttributeSet::default())?;
/// assert_eq!(h.ladder().name(h.fcm(proc1)?.level()), "procedure");
/// # Ok::<(), fcm_core::FcmError>(())
/// ```
pub type GenericFcmHierarchy = Hierarchy<LevelLadder>;

/// A named level in a [`LevelLadder`]; rank 0 is the leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub usize);

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}", self.0)
    }
}

/// An ordered ladder of level names, leaf first.
///
/// # Example
///
/// ```
/// use fcm_core::ladder::LevelLadder;
///
/// let ladder = LevelLadder::with_objects();
/// assert_eq!(ladder.len(), 4);
/// assert_eq!(ladder.name(ladder.rank_of("object").unwrap()), "object");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelLadder {
    names: Vec<String>,
}

impl LevelLadder {
    /// Creates a ladder from level names, leaf first.
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::NothingToCompose`] when `names` is empty or
    /// contains duplicates.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Result<Self, FcmError> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        if names.is_empty() {
            return Err(FcmError::NothingToCompose);
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() != names.len() {
            return Err(FcmError::NothingToCompose);
        }
        Ok(LevelLadder { names })
    }

    /// The paper's standard three-level ladder.
    pub fn standard() -> Self {
        LevelLadder::new(HierarchyLevel::ALL.map(HierarchyLevel::name))
            .expect("static names are valid")
    }

    /// The OO footnote's four-level ladder: objects slot in between
    /// procedures and tasks.
    pub fn with_objects() -> Self {
        LevelLadder::new(["procedure", "object", "task", "process"])
            .expect("static names are valid")
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the ladder has no levels (never true for a constructed
    /// ladder).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of a rank.
    ///
    /// # Panics
    ///
    /// Panics when the rank is out of range.
    pub fn name(&self, rank: Rank) -> &str {
        &self.names[rank.0]
    }

    /// The rank of a level name.
    pub fn rank_of(&self, name: &str) -> Option<Rank> {
        self.names.iter().position(|n| n == name).map(Rank)
    }

    /// The top (root) rank.
    pub fn top(&self) -> Rank {
        Rank(self.names.len() - 1)
    }

    /// Inserts a new level immediately above `below` — the paper's "add
    /// levels as desired". Existing ranks at or above the insertion point
    /// shift up by one.
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::NothingToCompose`] for a duplicate name.
    pub fn insert_above(&mut self, below: Rank, name: impl Into<String>) -> Result<Rank, FcmError> {
        let name = name.into();
        if self.names.contains(&name) {
            return Err(FcmError::NothingToCompose);
        }
        let at = (below.0 + 1).min(self.names.len());
        self.names.insert(at, name);
        Ok(Rank(at))
    }
}

impl Ladder for LevelLadder {
    type Level = Rank;

    fn child(&self, rank: Rank) -> Option<Rank> {
        rank.0.checked_sub(1).map(Rank)
    }

    fn parent(&self, rank: Rank) -> Option<Rank> {
        Some(Rank(rank.0 + 1)).filter(|r| r.0 < self.names.len())
    }

    fn name(&self, rank: Rank) -> &str {
        LevelLadder::name(self, rank)
    }
}

impl fmt::Display for LevelLadder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.names.join(" < "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AttributeSet;

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    #[test]
    fn ladder_construction_and_navigation() {
        let ladder = LevelLadder::standard();
        assert_eq!(ladder.len(), 3);
        assert!(!ladder.is_empty());
        assert_eq!(ladder.top(), Rank(2));
        assert_eq!(ladder.name(Rank(0)), "procedure");
        assert_eq!(ladder.rank_of("process"), Some(Rank(2)));
        assert_eq!(ladder.rank_of("object"), None);
        assert_eq!(ladder.parent(Rank(2)), None);
        assert_eq!(ladder.child(Rank(0)), None);
        assert_eq!(ladder.parent(Rank(0)), Some(Rank(1)));
        assert_eq!(ladder.to_string(), "procedure < task < process");
    }

    #[test]
    fn invalid_ladders_are_rejected() {
        assert!(LevelLadder::new(Vec::<String>::new()).is_err());
        assert!(LevelLadder::new(["a", "b", "a"]).is_err());
    }

    #[test]
    fn insert_above_adds_the_oo_level() {
        let mut ladder = LevelLadder::standard();
        let rank = ladder.insert_above(Rank(0), "object").unwrap();
        assert_eq!(rank, Rank(1));
        assert_eq!(ladder, LevelLadder::with_objects());
        // Duplicate insertion fails.
        assert!(ladder.insert_above(Rank(0), "object").is_err());
    }

    #[test]
    fn four_level_hierarchy_enforces_r1() {
        let mut h = GenericFcmHierarchy::new(LevelLadder::with_objects());
        let process = h.add_root("p", h.ladder().top(), attrs(5)).unwrap();
        let task = h.add_child(process, "t", attrs(4)).unwrap();
        let object = h.add_child(task, "o", attrs(3)).unwrap();
        let procedure = h.add_child(object, "f", attrs(2)).unwrap();
        assert_eq!(h.ladder().name(h.fcm(object).unwrap().level()), "object");
        assert_eq!(
            h.ladder().name(h.fcm(procedure).unwrap().level()),
            "procedure"
        );
        // Procedures are leaves even in the extended ladder.
        assert!(matches!(
            h.add_child(procedure, "x", attrs(0)),
            Err(FcmError::BelowLeafLevel { .. })
        ));
        h.verify().unwrap();
        assert_eq!(h.len(), 4);
        assert_eq!(h.at_level(h.ladder().rank_of("object").unwrap()).count(), 1);
        // R1 errors name the ladder's levels; R2 duplication and replica
        // marks come with the one rule set.
        let stray_task = h.add_root("s", Rank(2), attrs(0)).unwrap();
        assert_eq!(
            h.attach(task, stray_task).unwrap_err().to_string(),
            "rule R1 violation: a task cannot be the direct child of a task"
        );
        h.attach(process, stray_task).unwrap();
        let copy = h.duplicate_into(object, stray_task).unwrap();
        assert_eq!(h.fcm(copy).unwrap().name(), "o'");
        h.mark_replicas(&[object, copy]).unwrap();
        h.verify().unwrap();
    }

    #[test]
    fn unknown_level_name_errors() {
        assert_eq!(LevelLadder::standard().rank_of("module"), None);
    }

    #[test]
    fn r3_and_r4_work_over_custom_ladders() {
        let ladder = LevelLadder::new(["function", "component", "subsystem"]).unwrap();
        let mut h = GenericFcmHierarchy::new(ladder);
        let s1 = h.add_root("s1", h.ladder().top(), attrs(3)).unwrap();
        let s2 = h.add_root("s2", h.ladder().top(), attrs(9)).unwrap();
        let c1 = h.add_child(s1, "c1", attrs(1)).unwrap();
        let c2 = h.add_child(s2, "c2", attrs(2)).unwrap();
        // R3: not siblings.
        assert!(matches!(
            h.merge_siblings(c1, c2, "c12"),
            Err(FcmError::NotSiblings { .. })
        ));
        // R4: integrate across merges the subsystems first.
        let merged = h.integrate_across(c1, c2, "c12").unwrap();
        let parent = h.fcm(merged).unwrap().parent().unwrap();
        assert_eq!(h.fcm(parent).unwrap().attributes().criticality.0, 9);
        assert!(h.fcm(s1).is_err());
        assert!(h.fcm(s2).is_err());
        h.verify().unwrap();
    }

    #[test]
    fn r5_retest_in_generic_hierarchy() {
        let mut h = GenericFcmHierarchy::new(LevelLadder::with_objects());
        let p = h.add_root("p", h.ladder().top(), attrs(0)).unwrap();
        let t = h.add_child(p, "t", attrs(0)).unwrap();
        let o1 = h.add_child(t, "o1", attrs(0)).unwrap();
        let o2 = h.add_child(t, "o2", attrs(0)).unwrap();
        let rt = h.retest_set(o1).unwrap();
        assert_eq!(rt.parent, Some(t));
        assert_eq!(rt.sibling_interfaces, vec![o2]);
        let rt_root = h.retest_set(p).unwrap();
        assert_eq!(rt_root.parent, None);
    }

    #[test]
    fn merge_reparents_children_and_kills_constituents() {
        let mut h = GenericFcmHierarchy::new(LevelLadder::standard());
        let p = h.add_root("p", h.ladder().top(), attrs(0)).unwrap();
        let t1 = h.add_child(p, "t1", attrs(2)).unwrap();
        let t2 = h.add_child(p, "t2", attrs(7)).unwrap();
        let f1 = h.add_child(t1, "f1", attrs(0)).unwrap();
        let merged = h.merge_siblings(t1, t2, "t12").unwrap();
        assert_eq!(h.fcm(f1).unwrap().parent(), Some(merged));
        assert_eq!(h.fcm(merged).unwrap().attributes().criticality.0, 7);
        assert!(h.fcm(t1).is_err());
        assert!(h.merge_siblings(merged, merged, "x").is_err());
        assert!(!h.is_empty());
        h.verify().unwrap();
    }

    #[test]
    fn single_level_ladder_supports_flat_systems() {
        let ladder = LevelLadder::new(["partition"]).unwrap();
        let mut h = GenericFcmHierarchy::new(ladder);
        let a = h.add_root("a", h.ladder().top(), attrs(1)).unwrap();
        let b = h.add_root("b", h.ladder().top(), attrs(2)).unwrap();
        // No level below: nothing can be a child.
        assert_eq!(
            h.add_child(a, "x", attrs(0)).unwrap_err().to_string(),
            "fcm f0 is a partition and cannot have children"
        );
        // Roots at the same rank are siblings and can merge.
        let merged = h.merge_siblings(a, b, "ab").unwrap();
        assert_eq!(h.fcm(merged).unwrap().level(), Rank(0));
    }
}
