//! The FCM integration hierarchy with composition rules R1–R5.
//!
//! This is the one implementation of the rules: [`Hierarchy`] is generic
//! over a [`Ladder`] of levels, since the rules hold whatever the ladder.
//! [`FcmHierarchy`] is the paper's three-level instance and the default;
//! [`GenericFcmHierarchy`](crate::ladder::GenericFcmHierarchy) runs the
//! same rules over a named [`LevelLadder`].
//!
//! The paper's vertical-integration rules (§4.1), enforced here by
//! construction or checked at call sites:
//!
//! * **R1** — "Any number of FCMs at one level can be integrated to form
//!   an FCM at the next higher level" (and only the next higher level);
//! * **R2** — "The integration DAG is a tree": no FCM has two parents and
//!   no two FCMs share a lower-level FCM. Consequently reuse requires
//!   duplication ([`Hierarchy::duplicate_into`]) — "the function must
//!   be separately compiled with each FCM caller";
//! * **R3** — "An FCM can be integrated only with its siblings"
//!   ([`Hierarchy::merge_siblings`] rejects non-siblings);
//! * **R4** — "If children of different parents are integrated, their
//!   parents must be integrated" ([`Hierarchy::integrate_across`]
//!   merges the parent chain bottom-up);
//! * **R5** — "Whenever a FCM is modified, its parent FCM, and only its
//!   parent, also needs to be tested, including the interfaces with its
//!   siblings" ([`Hierarchy::retest_set`]).

use std::collections::VecDeque;
use std::fmt;

use crate::attributes::AttributeSet;
use crate::composition::CompositionKind;
use crate::error::FcmError;
use crate::ladder::{Ladder, LevelLadder, PaperLadder};
use crate::level::HierarchyLevel;

/// Identifier of an FCM within one [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FcmId(pub u64);

impl FcmId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FcmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A fault containment module in the hierarchy, at a level of type `V`
/// (the paper's [`HierarchyLevel`] unless the ladder says otherwise).
#[derive(Debug, Clone, PartialEq)]
pub struct Fcm<V = HierarchyLevel> {
    id: FcmId,
    name: String,
    level: V,
    attributes: AttributeSet,
    parent: Option<FcmId>,
    children: Vec<FcmId>,
    replica_group: Option<u32>,
    alive: bool,
}

impl<V: Copy> Fcm<V> {
    /// The FCM's id.
    pub fn id(&self) -> FcmId {
        self.id
    }

    /// The FCM's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The hierarchy level.
    pub fn level(&self) -> V {
        self.level
    }

    /// The attribute set.
    pub fn attributes(&self) -> &AttributeSet {
        &self.attributes
    }

    /// The parent FCM, if any.
    pub fn parent(&self) -> Option<FcmId> {
        self.parent
    }

    /// Child FCMs, in insertion order.
    pub fn children(&self) -> &[FcmId] {
        &self.children
    }

    /// The replica-group tag, when this FCM is a replica of a module
    /// (replicas of the same module share the tag and must stay apart).
    pub fn replica_group(&self) -> Option<u32> {
        self.replica_group
    }
}

/// The R5 retest obligation after a modification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetestSet {
    /// The modified FCM itself (always retested).
    pub modified: FcmId,
    /// Its parent — "its parent FCM, and only its parent, also needs to be
    /// tested". `None` for a root.
    pub parent: Option<FcmId>,
    /// Siblings whose interfaces with the modified FCM must be re-checked.
    pub sibling_interfaces: Vec<FcmId>,
}

impl RetestSet {
    /// Total number of FCMs touched by the retest.
    pub fn size(&self) -> usize {
        1 + usize::from(self.parent.is_some()) + self.sibling_interfaces.len()
    }
}

/// The FCM integration tree over the levels of ladder `L`.
///
/// FCMs consumed by a merge remain in the arena but are no longer
/// addressable (operations on them return [`FcmError::UnknownFcm`]),
/// preserving id stability for the survivors.
///
/// # Example
///
/// ```
/// use fcm_core::{AttributeSet, FcmHierarchy, HierarchyLevel};
///
/// let mut h = FcmHierarchy::new();
/// let process = h.add_root("nav", HierarchyLevel::Process, AttributeSet::default())?;
/// let task = h.add_child(process, "filter", AttributeSet::default())?;
/// let a = h.add_child(task, "predict", AttributeSet::default())?;
/// let b = h.add_child(task, "update", AttributeSet::default())?;
/// let merged = h.merge_siblings(a, b, "predict_update")?;
/// assert_eq!(h.fcm(merged)?.parent(), Some(task));
/// # Ok::<(), fcm_core::FcmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hierarchy<L: Ladder> {
    ladder: L,
    arena: Vec<Fcm<L::Level>>,
    next_replica_group: u32,
}

/// The paper's three-level hierarchy: procedures, tasks and processes.
pub type FcmHierarchy = Hierarchy<PaperLadder>;

impl FcmHierarchy {
    /// Creates an empty hierarchy.
    pub fn new() -> Self {
        Hierarchy::over(PaperLadder)
    }
}

impl Default for FcmHierarchy {
    fn default() -> Self {
        FcmHierarchy::new()
    }
}

impl Hierarchy<LevelLadder> {
    /// Creates an empty hierarchy over `ladder`.
    pub fn new(ladder: LevelLadder) -> Self {
        Hierarchy::over(ladder)
    }
}

impl<L: Ladder> Hierarchy<L> {
    fn over(ladder: L) -> Self {
        Hierarchy {
            ladder,
            arena: Vec::new(),
            next_replica_group: 0,
        }
    }

    /// The ladder in use.
    pub fn ladder(&self) -> &L {
        &self.ladder
    }

    /// Number of live FCMs.
    pub fn len(&self) -> usize {
        self.arena.iter().filter(|f| f.alive).count()
    }

    /// Whether the hierarchy has no live FCMs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds a root FCM at the given level.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` for uniformity with the
    /// other constructors and future validation.
    pub fn add_root(
        &mut self,
        name: impl Into<String>,
        level: L::Level,
        attributes: AttributeSet,
    ) -> Result<FcmId, FcmError> {
        Ok(self.push(name.into(), level, attributes, None))
    }

    /// Adds a child one level below `parent` (rule R1 holds by
    /// construction).
    ///
    /// # Errors
    ///
    /// * [`FcmError::UnknownFcm`] — `parent` does not exist;
    /// * [`FcmError::BelowLeafLevel`] — `parent` is at the leaf level.
    pub fn add_child(
        &mut self,
        parent: FcmId,
        name: impl Into<String>,
        attributes: AttributeSet,
    ) -> Result<FcmId, FcmError> {
        let parent_level = self.fcm(parent)?.level;
        let child_level =
            self.ladder
                .child(parent_level)
                .ok_or_else(|| FcmError::BelowLeafLevel {
                    id: parent,
                    level: self.ladder.name(parent_level).to_owned(),
                })?;
        let id = self.push(name.into(), child_level, attributes, Some(parent));
        self.arena[parent.index()].children.push(id);
        Ok(id)
    }

    /// Attaches an existing root FCM as a child of `parent` (vertical
    /// *grouping*: the child keeps its interface).
    ///
    /// # Errors
    ///
    /// * [`FcmError::UnknownFcm`] — either id does not exist;
    /// * [`FcmError::AlreadyHasParent`] — rule R2: `child` already has a
    ///   parent and may not be shared;
    /// * [`FcmError::LevelMismatch`] — rule R1: `child` is not exactly one
    ///   level below `parent`.
    pub fn attach(&mut self, parent: FcmId, child: FcmId) -> Result<(), FcmError> {
        let parent_level = self.fcm(parent)?.level;
        let child_fcm = self.fcm(child)?;
        if let Some(existing) = child_fcm.parent {
            return Err(FcmError::AlreadyHasParent {
                id: child,
                parent: existing,
            });
        }
        self.check_r1(parent_level, child_fcm.level)?;
        self.arena[child.index()].parent = Some(parent);
        self.arena[parent.index()].children.push(child);
        Ok(())
    }

    /// Groups root FCMs (all at the same level) under a brand-new parent
    /// at the next level up — the canonical vertical integration of R1.
    ///
    /// # Errors
    ///
    /// * [`FcmError::NothingToCompose`] — fewer than one child;
    /// * [`FcmError::UnknownFcm`] / [`FcmError::AlreadyHasParent`] /
    ///   [`FcmError::LevelMismatch`] — as for [`Hierarchy::attach`];
    /// * [`FcmError::LevelMismatch`] — the children are at the top level
    ///   (nothing above it).
    pub fn group_into_new_parent(
        &mut self,
        children: &[FcmId],
        name: impl Into<String>,
    ) -> Result<FcmId, FcmError> {
        let (&first, rest) = children.split_first().ok_or(FcmError::NothingToCompose)?;
        let child_level = self.fcm(first)?.level;
        for &c in rest {
            let l = self.fcm(c)?.level;
            if l != child_level {
                return Err(self.level_mismatch(l, child_level));
            }
        }
        let parent_level = self
            .ladder
            .parent(child_level)
            .ok_or_else(|| self.level_mismatch(child_level, child_level))?;
        // Validate every child before mutating anything.
        for &c in children {
            if let Some(existing) = self.fcm(c)?.parent {
                return Err(FcmError::AlreadyHasParent {
                    id: c,
                    parent: existing,
                });
            }
        }
        let attrs = AttributeSet::combine_all(
            children.iter().map(|&c| &self.arena[c.index()].attributes),
            CompositionKind::Group,
        )
        .expect("children is non-empty");
        let parent = self.push(name.into(), parent_level, attrs, None);
        for &c in children {
            self.arena[c.index()].parent = Some(parent);
            self.arena[parent.index()].children.push(c);
        }
        Ok(parent)
    }

    /// Merges two sibling FCMs into one (rule R3); boundaries disappear,
    /// attributes combine most-stringently, and the children of both are
    /// re-parented to the merged FCM.
    ///
    /// # Errors
    ///
    /// * [`FcmError::UnknownFcm`] — an id does not exist;
    /// * [`FcmError::NotSiblings`] — rule R3: the FCMs do not share a
    ///   parent (two parentless FCMs at the same level count as siblings);
    /// * [`FcmError::ReplicaConflict`] — the FCMs are replicas of the same
    ///   module;
    /// * [`FcmError::NothingToCompose`] — `a == b`.
    pub fn merge_siblings(
        &mut self,
        a: FcmId,
        b: FcmId,
        name: impl Into<String>,
    ) -> Result<FcmId, FcmError> {
        if a == b {
            return Err(FcmError::NothingToCompose);
        }
        let fa = self.fcm(a)?.clone();
        let fb = self.fcm(b)?.clone();
        if fa.parent != fb.parent || fa.level != fb.level {
            return Err(FcmError::NotSiblings { a, b });
        }
        if let (Some(ga), Some(gb)) = (fa.replica_group, fb.replica_group) {
            if ga == gb {
                return Err(FcmError::ReplicaConflict { a, b });
            }
        }
        let attrs = fa
            .attributes
            .combine(&fb.attributes, CompositionKind::Merge);
        let merged = self.push(name.into(), fa.level, attrs, fa.parent);
        // Re-parent children of both constituents.
        let mut children = fa.children.clone();
        children.extend_from_slice(&fb.children);
        for &c in &children {
            self.arena[c.index()].parent = Some(merged);
        }
        self.arena[merged.index()].children = children;
        // Replace a and b in the parent's child list with the merged FCM.
        if let Some(p) = fa.parent {
            let list = &mut self.arena[p.index()].children;
            list.retain(|&c| c != a && c != b);
            list.push(merged);
        }
        self.arena[a.index()].alive = false;
        self.arena[b.index()].alive = false;
        Ok(merged)
    }

    /// Integrates two FCMs that may live under different parents by first
    /// integrating the parent chain (rule R4: "if children of different
    /// parents are integrated, their parents must be integrated"), then
    /// merging the two FCMs themselves.
    ///
    /// Returns the merged FCM.
    ///
    /// # Errors
    ///
    /// * everything [`Hierarchy::merge_siblings`] can return;
    /// * [`FcmError::NotSiblings`] — one FCM has a parent and the other is
    ///   a root (the hierarchy shapes are incompatible).
    pub fn integrate_across(
        &mut self,
        a: FcmId,
        b: FcmId,
        name: impl Into<String>,
    ) -> Result<FcmId, FcmError> {
        let pa = self.fcm(a)?.parent;
        let pb = self.fcm(b)?.parent;
        match (pa, pb) {
            (Some(pa), Some(pb)) if pa != pb => {
                let pa_name = self.fcm(pa)?.name.clone();
                let pb_name = self.fcm(pb)?.name.clone();
                self.integrate_across(pa, pb, format!("{pa_name}+{pb_name}"))?;
            }
            (Some(_), None) | (None, Some(_)) => {
                return Err(FcmError::NotSiblings { a, b });
            }
            _ => {}
        }
        self.merge_siblings(a, b, name)
    }

    /// Deep-copies the subtree rooted at `child` and attaches the copy
    /// under `new_parent` — the R2-compliant alternative to sharing: "the
    /// lower level FCM(s) can be duplicated and integrated separately with
    /// the two different parents. All associated code, text and data of
    /// the child FCMs is duplicated."
    ///
    /// # Errors
    ///
    /// * [`FcmError::UnknownFcm`] — an id does not exist;
    /// * [`FcmError::LevelMismatch`] — rule R1 between `new_parent` and
    ///   `child`.
    pub fn duplicate_into(&mut self, child: FcmId, new_parent: FcmId) -> Result<FcmId, FcmError> {
        let parent_level = self.fcm(new_parent)?.level;
        self.check_r1(parent_level, self.fcm(child)?.level)?;
        let copy = self.clone_subtree(child, Some(new_parent));
        self.arena[new_parent.index()].children.push(copy);
        Ok(copy)
    }

    /// Marks a set of FCMs as replicas of one module. Replicas may never
    /// be merged with each other and the allocation layer must map them to
    /// distinct HW nodes.
    ///
    /// # Errors
    ///
    /// * [`FcmError::NothingToCompose`] — fewer than two replicas;
    /// * [`FcmError::UnknownFcm`] — an id does not exist.
    pub fn mark_replicas(&mut self, replicas: &[FcmId]) -> Result<u32, FcmError> {
        if replicas.len() < 2 {
            return Err(FcmError::NothingToCompose);
        }
        for &r in replicas {
            self.fcm(r)?;
        }
        let group = self.next_replica_group;
        self.next_replica_group += 1;
        for &r in replicas {
            self.arena[r.index()].replica_group = Some(group);
        }
        Ok(group)
    }

    /// Rule R5: the retest obligation after modifying `modified` — the
    /// FCM itself, its parent, and the interfaces with its siblings.
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::UnknownFcm`] when `modified` does not exist.
    pub fn retest_set(&self, modified: FcmId) -> Result<RetestSet, FcmError> {
        let fcm = self.fcm(modified)?;
        let parent = fcm.parent;
        let sibling_interfaces = match parent {
            Some(p) => self
                .fcm(p)?
                .children
                .iter()
                .copied()
                .filter(|&c| c != modified)
                .collect(),
            None => Vec::new(),
        };
        Ok(RetestSet {
            modified,
            parent,
            sibling_interfaces,
        })
    }

    /// The naive alternative to R5: re-certify the entire tree containing
    /// `modified` (every live FCM sharing its root). Experiment E6
    /// compares its size against [`Hierarchy::retest_set`].
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::UnknownFcm`] when `modified` does not exist.
    pub fn naive_retest_set(&self, modified: FcmId) -> Result<Vec<FcmId>, FcmError> {
        let mut root = modified;
        while let Some(p) = self.fcm(root)?.parent {
            root = p;
        }
        self.descendants(root)
    }

    /// The FCM with id `id`.
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::UnknownFcm`] for missing or merged-away ids.
    pub fn fcm(&self, id: FcmId) -> Result<&Fcm<L::Level>, FcmError> {
        self.arena
            .get(id.index())
            .filter(|f| f.alive)
            .ok_or(FcmError::UnknownFcm { id })
    }

    /// Mutable access to an FCM's attributes (structure stays immutable
    /// from outside; composition goes through the rule-checked methods).
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::UnknownFcm`] for missing ids.
    pub fn attributes_mut(&mut self, id: FcmId) -> Result<&mut AttributeSet, FcmError> {
        self.arena
            .get_mut(id.index())
            .filter(|f| f.alive)
            .map(|f| &mut f.attributes)
            .ok_or(FcmError::UnknownFcm { id })
    }

    /// Iterates over all live FCMs.
    pub fn iter(&self) -> impl Iterator<Item = &Fcm<L::Level>> + '_ {
        self.arena.iter().filter(|f| f.alive)
    }

    /// Live root FCMs (no parent).
    pub fn roots(&self) -> impl Iterator<Item = &Fcm<L::Level>> + '_ {
        self.iter().filter(|f| f.parent.is_none())
    }

    /// All live FCMs at `level`.
    pub fn at_level(&self, level: L::Level) -> impl Iterator<Item = &Fcm<L::Level>> + '_ {
        self.iter().filter(move |f| f.level == level)
    }

    /// The subtree rooted at `id` (BFS order, including `id`).
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::UnknownFcm`] when `id` does not exist.
    pub fn descendants(&self, id: FcmId) -> Result<Vec<FcmId>, FcmError> {
        self.fcm(id)?;
        let mut out = Vec::new();
        let mut queue = VecDeque::from([id]);
        while let Some(cur) = queue.pop_front() {
            out.push(cur);
            queue.extend(self.arena[cur.index()].children.iter().copied());
        }
        Ok(out)
    }

    /// Whether `a` and `b` are siblings (same parent, or both roots at the
    /// same level).
    pub fn are_siblings(&self, a: FcmId, b: FcmId) -> Result<bool, FcmError> {
        let fa = self.fcm(a)?;
        let fb = self.fcm(b)?;
        Ok(a != b && fa.parent == fb.parent && fa.level == fb.level)
    }

    /// Checks every structural invariant (R1 level steps, R2 tree shape,
    /// parent/child back-links). Composition methods preserve these by
    /// construction; `verify` exists for defence in depth and property
    /// tests.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`FcmError`].
    pub fn verify(&self) -> Result<(), FcmError> {
        for f in self.iter() {
            for &c in &f.children {
                let child = self.fcm(c)?;
                if child.parent != Some(f.id) {
                    return Err(FcmError::AlreadyHasParent {
                        id: c,
                        parent: child.parent.unwrap_or(f.id),
                    });
                }
                self.check_r1(f.level, child.level)?;
            }
            if let Some(p) = f.parent {
                let parent = self.fcm(p)?;
                if !parent.children.contains(&f.id) {
                    return Err(FcmError::UnknownFcm { id: f.id });
                }
            }
        }
        // Tree shape: walking parents from any node terminates (no cycles).
        for f in self.iter() {
            let mut seen = 0usize;
            let mut cur = f.id;
            while let Some(p) = self.fcm(cur)?.parent {
                cur = p;
                seen += 1;
                if seen > self.arena.len() {
                    return Err(FcmError::AlreadyHasParent {
                        id: f.id,
                        parent: cur,
                    });
                }
            }
        }
        Ok(())
    }

    /// Rule R1: `child` must sit exactly one level below `parent`.
    fn check_r1(&self, parent: L::Level, child: L::Level) -> Result<(), FcmError> {
        if self.ladder.child(parent) == Some(child) {
            Ok(())
        } else {
            Err(self.level_mismatch(parent, child))
        }
    }

    fn level_mismatch(&self, parent: L::Level, child: L::Level) -> FcmError {
        FcmError::LevelMismatch {
            parent: self.ladder.name(parent).to_owned(),
            child: self.ladder.name(child).to_owned(),
        }
    }

    fn push(
        &mut self,
        name: String,
        level: L::Level,
        attributes: AttributeSet,
        parent: Option<FcmId>,
    ) -> FcmId {
        let id = FcmId(self.arena.len() as u64);
        self.arena.push(Fcm {
            id,
            name,
            level,
            attributes,
            parent,
            children: Vec::new(),
            replica_group: None,
            alive: true,
        });
        id
    }

    fn clone_subtree(&mut self, src: FcmId, parent: Option<FcmId>) -> FcmId {
        let template = self.arena[src.index()].clone();
        let copy = self.push(
            format!("{}'", template.name),
            template.level,
            template.attributes,
            parent,
        );
        self.arena[copy.index()].replica_group = template.replica_group;
        for c in template.children {
            let child_copy = self.clone_subtree(c, Some(copy));
            self.arena[copy.index()].children.push(child_copy);
        }
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{Criticality, FaultTolerance};

    fn attrs(c: u32) -> AttributeSet {
        AttributeSet::default().with_criticality(c)
    }

    /// process -> task -> {p_a, p_b}
    fn small() -> (FcmHierarchy, FcmId, FcmId, FcmId, FcmId) {
        let mut h = FcmHierarchy::new();
        let process = h
            .add_root("proc", HierarchyLevel::Process, attrs(5))
            .unwrap();
        let task = h.add_child(process, "task", attrs(3)).unwrap();
        let a = h.add_child(task, "a", attrs(1)).unwrap();
        let b = h.add_child(task, "b", attrs(2)).unwrap();
        (h, process, task, a, b)
    }

    #[test]
    fn children_get_the_level_below() {
        let (h, process, task, a, _) = small();
        assert_eq!(h.fcm(process).unwrap().level(), HierarchyLevel::Process);
        assert_eq!(h.fcm(task).unwrap().level(), HierarchyLevel::Task);
        assert_eq!(h.fcm(a).unwrap().level(), HierarchyLevel::Procedure);
        assert_eq!(h.len(), 4);
        h.verify().unwrap();
    }

    #[test]
    fn procedures_cannot_have_children() {
        let (mut h, _, _, a, _) = small();
        assert!(matches!(
            h.add_child(a, "x", attrs(0)),
            Err(FcmError::BelowLeafLevel { .. })
        ));
    }

    #[test]
    fn r2_no_second_parent() {
        let (mut h, _, task, _, _) = small();
        let mut h2 = h.clone();
        let other_task = h.add_root("t2", HierarchyLevel::Task, attrs(0)).unwrap();
        let orphan_proc = h
            .add_root("orph", HierarchyLevel::Procedure, attrs(0))
            .unwrap();
        // Attaching a root works.
        let proc2 = h.add_root("p2", HierarchyLevel::Process, attrs(0)).unwrap();
        h.attach(proc2, other_task).unwrap();
        // Attaching it again (another parent) violates R2.
        let proc3 = h.add_root("p3", HierarchyLevel::Process, attrs(0)).unwrap();
        assert!(matches!(
            h.attach(proc3, other_task),
            Err(FcmError::AlreadyHasParent { .. })
        ));
        // R1: a procedure cannot be attached directly to a process.
        assert!(matches!(
            h.attach(proc3, orphan_proc),
            Err(FcmError::LevelMismatch { .. })
        ));
        // A child that already has a parent cannot be re-attached.
        let existing_child = h2.fcm(task).unwrap().children()[0];
        let t9 = h2.add_root("t9", HierarchyLevel::Task, attrs(0)).unwrap();
        assert!(h2.attach(t9, existing_child).is_err());
        h.verify().unwrap();
    }

    #[test]
    fn sibling_merge_combines_attributes_and_reparents_children() {
        let mut h = FcmHierarchy::new();
        let process = h.add_root("p", HierarchyLevel::Process, attrs(9)).unwrap();
        let t1 = h.add_child(process, "t1", attrs(4)).unwrap();
        let t2 = h.add_child(process, "t2", attrs(7)).unwrap();
        let c1 = h.add_child(t1, "c1", attrs(0)).unwrap();
        let c2 = h.add_child(t2, "c2", attrs(0)).unwrap();
        let merged = h.merge_siblings(t1, t2, "t12").unwrap();
        assert_eq!(
            h.fcm(merged).unwrap().attributes().criticality,
            Criticality(7)
        );
        assert_eq!(h.fcm(merged).unwrap().parent(), Some(process));
        assert_eq!(h.fcm(c1).unwrap().parent(), Some(merged));
        assert_eq!(h.fcm(c2).unwrap().parent(), Some(merged));
        // Old tasks are gone.
        assert!(h.fcm(t1).is_err());
        assert!(h.fcm(t2).is_err());
        assert_eq!(h.fcm(process).unwrap().children(), &[merged]);
        h.verify().unwrap();
    }

    #[test]
    fn r3_merge_rejects_non_siblings() {
        let mut h = FcmHierarchy::new();
        let p1 = h.add_root("p1", HierarchyLevel::Process, attrs(0)).unwrap();
        let p2 = h.add_root("p2", HierarchyLevel::Process, attrs(0)).unwrap();
        let t1 = h.add_child(p1, "t1", attrs(0)).unwrap();
        let t2 = h.add_child(p2, "t2", attrs(0)).unwrap();
        assert!(matches!(
            h.merge_siblings(t1, t2, "x"),
            Err(FcmError::NotSiblings { .. })
        ));
        // Different levels are never siblings.
        assert!(h.merge_siblings(p1, t1, "y").is_err());
        // Self-merge is nothing to compose.
        assert!(matches!(
            h.merge_siblings(t1, t1, "z"),
            Err(FcmError::NothingToCompose)
        ));
    }

    #[test]
    fn two_roots_at_same_level_are_siblings() {
        let mut h = FcmHierarchy::new();
        let p1 = h.add_root("p1", HierarchyLevel::Process, attrs(2)).unwrap();
        let p2 = h.add_root("p2", HierarchyLevel::Process, attrs(3)).unwrap();
        assert!(h.are_siblings(p1, p2).unwrap());
        let merged = h.merge_siblings(p1, p2, "p12").unwrap();
        assert_eq!(h.fcm(merged).unwrap().parent(), None);
        h.verify().unwrap();
    }

    #[test]
    fn r4_integrate_across_merges_parents_first() {
        let mut h = FcmHierarchy::new();
        let p1 = h.add_root("p1", HierarchyLevel::Process, attrs(1)).unwrap();
        let p2 = h.add_root("p2", HierarchyLevel::Process, attrs(2)).unwrap();
        let t1 = h.add_child(p1, "t1", attrs(0)).unwrap();
        let t2 = h.add_child(p2, "t2", attrs(0)).unwrap();
        let t3 = h.add_child(p2, "t3", attrs(0)).unwrap();
        let merged = h.integrate_across(t1, t2, "t12").unwrap();
        // The parents were merged into one process FCM.
        let parent = h.fcm(merged).unwrap().parent().unwrap();
        assert!(h.fcm(p1).is_err());
        assert!(h.fcm(p2).is_err());
        // t3 moved under the merged parent too ("all tasks of the two
        // parent processes can be combined into one parent FCM").
        assert_eq!(h.fcm(t3).unwrap().parent(), Some(parent));
        let mut kids = h.fcm(parent).unwrap().children().to_vec();
        kids.sort();
        let mut expect = vec![t3, merged];
        expect.sort();
        assert_eq!(kids, expect);
        h.verify().unwrap();
    }

    #[test]
    fn r4_under_one_parent_degenerates_to_merge() {
        let (mut h, _, task, a, b) = small();
        let merged = h.integrate_across(a, b, "ab").unwrap();
        assert_eq!(h.fcm(merged).unwrap().parent(), Some(task));
        h.verify().unwrap();
    }

    #[test]
    fn r4_rejects_a_root_with_a_child() {
        let mut h = FcmHierarchy::new();
        let p = h.add_root("p", HierarchyLevel::Process, attrs(0)).unwrap();
        let t = h.add_child(p, "t", attrs(0)).unwrap();
        let lone = h.add_root("lone", HierarchyLevel::Task, attrs(0)).unwrap();
        assert!(matches!(
            h.integrate_across(t, lone, "x"),
            Err(FcmError::NotSiblings { .. })
        ));
    }

    #[test]
    fn duplicate_into_deep_copies_the_subtree() {
        let mut h = FcmHierarchy::new();
        let p = h.add_root("p", HierarchyLevel::Process, attrs(0)).unwrap();
        let t1 = h.add_child(p, "t1", attrs(0)).unwrap();
        let t2 = h.add_child(p, "t2", attrs(0)).unwrap();
        let util = h.add_child(t1, "util", attrs(1)).unwrap();
        // t2 needs util too; R2 forbids sharing, so duplicate.
        let copy = h.duplicate_into(util, t2).unwrap();
        assert_ne!(copy, util);
        assert_eq!(h.fcm(copy).unwrap().parent(), Some(t2));
        assert_eq!(h.fcm(copy).unwrap().name(), "util'");
        assert_eq!(h.fcm(util).unwrap().parent(), Some(t1));
        assert_eq!(
            h.fcm(copy).unwrap().attributes().criticality,
            Criticality(1)
        );
        h.verify().unwrap();
    }

    #[test]
    fn duplicate_into_checks_r1() {
        let mut h = FcmHierarchy::new();
        let p = h.add_root("p", HierarchyLevel::Process, attrs(0)).unwrap();
        let t = h.add_child(p, "t", attrs(0)).unwrap();
        // A task cannot be duplicated under another task.
        assert!(matches!(
            h.duplicate_into(t, t),
            Err(FcmError::LevelMismatch { .. })
        ));
    }

    #[test]
    fn replicas_cannot_merge() {
        let mut h = FcmHierarchy::new();
        let p = h.add_root("p", HierarchyLevel::Process, attrs(0)).unwrap();
        let r1 = h.add_child(p, "r1", attrs(0)).unwrap();
        let r2 = h.add_child(p, "r2", attrs(0)).unwrap();
        let group = h.mark_replicas(&[r1, r2]).unwrap();
        assert_eq!(h.fcm(r1).unwrap().replica_group(), Some(group));
        assert!(matches!(
            h.merge_siblings(r1, r2, "x"),
            Err(FcmError::ReplicaConflict { .. })
        ));
        // A single FCM is not a replica set.
        assert!(h.mark_replicas(&[r1]).is_err());
    }

    #[test]
    fn r5_retest_is_parent_and_sibling_interfaces_only() {
        let mut h = FcmHierarchy::new();
        let p = h.add_root("p", HierarchyLevel::Process, attrs(0)).unwrap();
        let t1 = h.add_child(p, "t1", attrs(0)).unwrap();
        let t2 = h.add_child(p, "t2", attrs(0)).unwrap();
        let c = h.add_child(t1, "c", attrs(0)).unwrap();
        let d = h.add_child(t1, "d", attrs(0)).unwrap();
        let rt = h.retest_set(c).unwrap();
        assert_eq!(rt.parent, Some(t1));
        assert_eq!(rt.sibling_interfaces, vec![d]);
        assert_eq!(rt.size(), 3);
        // Naive recertification touches the whole tree.
        let naive = h.naive_retest_set(c).unwrap();
        assert_eq!(naive.len(), 5);
        assert!(naive.contains(&t2));
        // Root modification has no parent to retest.
        let rt_root = h.retest_set(p).unwrap();
        assert_eq!(rt_root.parent, None);
        assert!(rt_root.sibling_interfaces.is_empty());
    }

    #[test]
    fn descendants_bfs_order() {
        let (h, process, task, a, b) = small();
        assert_eq!(h.descendants(process).unwrap(), vec![process, task, a, b]);
        assert_eq!(h.descendants(a).unwrap(), vec![a]);
    }

    #[test]
    fn iterators_filter_dead_fcms() {
        let (mut h, _, _, a, b) = small();
        let merged = h.merge_siblings(a, b, "ab").unwrap();
        assert_eq!(h.len(), 3);
        assert!(h.iter().all(|f| f.id() != a && f.id() != b));
        assert_eq!(h.at_level(HierarchyLevel::Procedure).count(), 1);
        assert_eq!(h.roots().count(), 1);
        assert!(h.fcm(merged).is_ok());
        assert!(!h.is_empty());
    }

    #[test]
    fn attributes_mut_updates_in_place() {
        let (mut h, _, task, _, _) = small();
        h.attributes_mut(task).unwrap().fault_tolerance = FaultTolerance::TMR;
        assert_eq!(
            h.fcm(task).unwrap().attributes().fault_tolerance,
            FaultTolerance::TMR
        );
        assert!(h.attributes_mut(FcmId(99)).is_err());
    }

    #[test]
    fn unknown_and_dead_ids_error() {
        let (mut h, _, _, a, b) = small();
        assert!(h.fcm(FcmId(42)).is_err());
        h.merge_siblings(a, b, "ab").unwrap();
        assert!(matches!(h.fcm(a), Err(FcmError::UnknownFcm { .. })));
        assert!(h.retest_set(a).is_err());
        assert!(h.descendants(b).is_err());
    }

    #[test]
    fn display_of_id() {
        assert_eq!(FcmId(7).to_string(), "f7");
    }
}
