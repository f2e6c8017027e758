//! Property-based tests: random composition sequences preserve the
//! hierarchy invariants (rules R1/R2 structurally, R3/R4 behaviourally),
//! and the paper's three-level hierarchy and the same rules run over
//! `LevelLadder::standard()` give the same answers op for op.

use fcm_core::ladder::{GenericFcmHierarchy, Ladder, LevelLadder};
use fcm_core::{AttributeSet, FcmError, FcmHierarchy, FcmId, Hierarchy, HierarchyLevel};
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop_assert, prop_assert_eq};

/// A random sequence of composition operations.
#[derive(Debug, Clone)]
enum Op {
    AddRoot,
    AddChild(usize),
    MergeSiblings(usize, usize),
    Duplicate(usize, usize),
    IntegrateAcross(usize, usize),
    MarkReplicas(usize, usize),
}

/// Weighted random op mix (4:2:1:1:1:1 child/merge/root/dup/integrate/
/// replicas), sequence length scaled by the shrinkable size budget up
/// to 59.
fn arb_ops(rng: &mut Rng, size: usize) -> Vec<Op> {
    let hi = 59usize.min(1 + size * 59 / 100).max(1);
    let len = rng.gen_range(1..=hi);
    let pick = |rng: &mut Rng| rng.gen_range(0usize..64);
    (0..len)
        .map(|_| match rng.gen_range(0u32..10) {
            0 => Op::AddRoot,
            1..=4 => Op::AddChild(pick(rng)),
            5 | 6 => Op::MergeSiblings(pick(rng), pick(rng)),
            7 => Op::Duplicate(pick(rng), pick(rng)),
            8 => Op::IntegrateAcross(pick(rng), pick(rng)),
            _ => Op::MarkReplicas(pick(rng), pick(rng)),
        })
        .collect()
}

/// Applies ops best-effort to `h` (invalid ones simply error and are
/// skipped), with roots added at `top`. Returns each op's outcome: the
/// FCM id or replica group it created, or its error.
fn apply_ops<L: Ladder>(
    h: &mut Hierarchy<L>,
    top: L::Level,
    ops: &[Op],
) -> Vec<Result<u64, FcmError>> {
    // Seed with two top-level trees so child ops have targets.
    let p1 = h
        .add_root("seed1", top, AttributeSet::default())
        .expect("root");
    let _p2 = h
        .add_root("seed2", top, AttributeSet::default())
        .expect("root");
    let _ = h.add_child(p1, "t0", AttributeSet::default());
    let mut counter = 0usize;
    let mut name = || {
        counter += 1;
        format!("n{counter}")
    };
    let mut outcomes = Vec::new();
    // Ids are dense; ops address them modulo the arena size.
    for op in ops {
        let live: Vec<FcmId> = h.iter().map(|f| f.id()).collect();
        if live.is_empty() {
            break;
        }
        let pick = |i: usize| live[i % live.len()];
        let created = match *op {
            Op::AddRoot => h.add_root(name(), top, AttributeSet::default()),
            Op::AddChild(i) => h.add_child(pick(i), name(), AttributeSet::default()),
            Op::MergeSiblings(a, b) => h.merge_siblings(pick(a), pick(b), name()),
            Op::Duplicate(c, p) => h.duplicate_into(pick(c), pick(p)),
            Op::IntegrateAcross(a, b) => h.integrate_across(pick(a), pick(b), name()),
            Op::MarkReplicas(a, b) => {
                outcomes.push(h.mark_replicas(&[pick(a), pick(b)]).map(u64::from));
                continue;
            }
        };
        outcomes.push(created.map(|id| id.0));
    }
    outcomes
}

/// The ops applied to the paper's three-level hierarchy.
fn run_ops(ops: &[Op]) -> FcmHierarchy {
    let mut h = FcmHierarchy::new();
    apply_ops(&mut h, HierarchyLevel::Process, ops);
    h
}

/// One live FCM as plain data, its level given by position in the
/// ladder (leaf = 0), so the paper and ladder instances compare.
type Shape = (
    FcmId,
    String,
    usize,
    AttributeSet,
    Option<FcmId>,
    Vec<FcmId>,
    Option<u32>,
);

fn shape<L: Ladder>(h: &Hierarchy<L>, position: impl Fn(L::Level) -> usize) -> Vec<Shape> {
    h.iter()
        .map(|f| {
            (
                f.id(),
                f.name().to_owned(),
                position(f.level()),
                *f.attributes(),
                f.parent(),
                f.children().to_vec(),
                f.replica_group(),
            )
        })
        .collect()
}

#[test]
fn any_composition_sequence_preserves_the_invariants() {
    prop::check_cases(
        "any_composition_sequence_preserves_the_invariants",
        128,
        arb_ops,
        |ops| {
            let h = run_ops(ops);
            h.verify()
                .expect("invariants must hold after any op sequence");
            Ok(())
        },
    );
}

#[test]
fn retest_sets_stay_within_the_live_hierarchy() {
    prop::check_cases(
        "retest_sets_stay_within_the_live_hierarchy",
        128,
        arb_ops,
        |ops| {
            let h = run_ops(ops);
            for fcm in h.iter() {
                let rt = h.retest_set(fcm.id()).expect("live fcm");
                if let Some(p) = rt.parent {
                    prop_assert!(h.fcm(p).is_ok());
                    // R5: the parent really is the modified FCM's parent.
                    prop_assert_eq!(h.fcm(fcm.id()).unwrap().parent(), Some(p));
                }
                for s in &rt.sibling_interfaces {
                    prop_assert!(h.fcm(*s).is_ok());
                    prop_assert!(h.are_siblings(fcm.id(), *s).unwrap());
                }
                // The R5 set never exceeds the naive whole-tree set.
                let naive = h.naive_retest_set(fcm.id()).expect("live fcm");
                prop_assert!(rt.size() <= naive.len() + 1);
            }
            Ok(())
        },
    );
}

#[test]
fn levels_always_step_down_one_rank() {
    prop::check_cases("levels_always_step_down_one_rank", 128, arb_ops, |ops| {
        let h = run_ops(ops);
        for fcm in h.iter() {
            for &c in fcm.children() {
                let child = h.fcm(c).expect("child is live");
                prop_assert_eq!(Some(child.level()), fcm.level().child());
            }
        }
        Ok(())
    });
}

#[test]
fn descendants_are_acyclic_and_unique() {
    prop::check_cases("descendants_are_acyclic_and_unique", 128, arb_ops, |ops| {
        let h = run_ops(ops);
        for root in h.roots() {
            let mut d = h.descendants(root.id()).expect("live root");
            let before = d.len();
            d.sort();
            d.dedup();
            prop_assert_eq!(d.len(), before, "duplicate in descendants = shared child");
        }
        Ok(())
    });
}

#[test]
fn the_standard_ladder_instance_matches_the_paper_instance() {
    prop::check_cases(
        "the_standard_ladder_instance_matches_the_paper_instance",
        128,
        arb_ops,
        |ops| {
            let mut paper = FcmHierarchy::new();
            let paper_out = apply_ops(&mut paper, HierarchyLevel::Process, ops);
            let ladder = LevelLadder::standard();
            let top = ladder.top();
            let mut generic = GenericFcmHierarchy::new(ladder);
            let generic_out = apply_ops(&mut generic, top, ops);
            // Same outcome per op: the same new id, or the same error.
            prop_assert_eq!(paper_out, generic_out);
            let by_position = |l: HierarchyLevel| {
                HierarchyLevel::ALL
                    .iter()
                    .position(|&x| x == l)
                    .expect("a paper level")
            };
            prop_assert_eq!(shape(&paper, by_position), shape(&generic, |r| r.0));
            for f in paper.iter() {
                prop_assert_eq!(paper.retest_set(f.id()), generic.retest_set(f.id()));
            }
            Ok(())
        },
    );
}

#[test]
fn any_composition_sequence_preserves_the_invariants_over_four_levels() {
    prop::check_cases(
        "any_composition_sequence_preserves_the_invariants_over_four_levels",
        128,
        arb_ops,
        |ops| {
            let ladder = LevelLadder::with_objects();
            let top = ladder.top();
            let mut h = GenericFcmHierarchy::new(ladder);
            apply_ops(&mut h, top, ops);
            prop_assert!(h.verify().is_ok(), "{:?}", h.verify());
            Ok(())
        },
    );
}
