//! Property tests of the condensation pipeline's incremental Eq. 4
//! update: after **every** merge a policy performs, the incrementally
//! maintained influence matrix must be **bitwise** equal to a full
//! Eq. 2/Eq. 4 recompute (`condense(..).influence_matrix()`) on the
//! condensed graph — not merely within a tolerance.

use fcm_alloc::pipeline::{CondensePipeline, CondensePolicy, H1Greedy, H1PairAll, PartitionReplay};
use fcm_alloc::sw::{SwGraph, SwGraphBuilder};
use fcm_core::AttributeSet;
use fcm_graph::{condense, CombineRule};
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop_assert, prop_assert_eq};

/// A random SW graph: influences in (0, 1], a sprinkling of replica
/// pairs (the constraint H1's worked example trips over) and of timing
/// constraints (so schedulability also prunes merges).
fn random_sw_graph(rng: &mut Rng, n: usize, density: f64) -> SwGraph {
    let mut b = SwGraphBuilder::new();
    let nodes: Vec<_> = (0..n)
        .map(|i| {
            let mut attrs = AttributeSet::default().with_criticality(rng.gen_range(0..10u32));
            if rng.gen::<f64>() < 0.3 {
                attrs = attrs.with_timing(0, 20, rng.gen_range(2..=6u64));
            }
            b.add_process(format!("p{i}"), attrs)
        })
        .collect();
    for &u in &nodes {
        for &v in &nodes {
            if u != v && rng.gen::<f64>() < density {
                b.add_influence(u, v, rng.gen_range(0.01..=1.0)).unwrap();
            }
        }
    }
    // Tag up to two disjoint replica pairs.
    if n >= 4 && rng.gen::<f64>() < 0.7 {
        b.mark_replicas(&[nodes[0], nodes[1]]).unwrap();
        if rng.gen::<f64>() < 0.5 {
            b.mark_replicas(&[nodes[2], nodes[3]]).unwrap();
        }
    }
    b.build()
}

/// Asserts bitwise equality with the full recompute on the current
/// partition (compares bit patterns, so `-0.0` vs `0.0` or any ULP of
/// drift would fail).
fn assert_bitwise_equal(pipe: &CondensePipeline<'_>, g: &SwGraph) -> Result<(), String> {
    let full = condense(g, pipe.groups(), CombineRule::Probabilistic)
        .expect("pipeline groups form a partition")
        .influence_matrix();
    let inc = pipe.influence();
    prop_assert_eq!(inc.rows(), full.rows());
    for i in 0..full.rows() {
        for j in 0..full.cols() {
            prop_assert_eq!(
                inc[(i, j)].to_bits(),
                full[(i, j)].to_bits(),
                "entry ({}, {}) after {} merges: incremental {} vs full {}",
                i,
                j,
                pipe.merges(),
                inc[(i, j)],
                full[(i, j)]
            );
        }
    }
    Ok(())
}

/// Drives `policy` to `target` clusters, checking the bitwise contract
/// after every individual merge (mirrors `run_policy`'s bookkeeping but
/// interleaves the full-recompute check).
fn run_checked(g: &SwGraph, target: usize, policy: &mut dyn CondensePolicy) -> Result<(), String> {
    let mut pipe = CondensePipeline::new(g);
    assert_bitwise_equal(&pipe, g)?;
    while pipe.len() > target {
        let mut batch = policy.plan_round(&pipe, target);
        if batch.is_empty() {
            break; // stuck (e.g. only replica pairs left) — fine here
        }
        batch.sort_by_key(|&(i, j)| std::cmp::Reverse(i.max(j)));
        let before = pipe.len();
        for (i, j) in batch {
            if pipe.can_merge(i, j) {
                pipe.merge(i, j).map_err(|e| e.to_string())?;
                assert_bitwise_equal(&pipe, g)?;
            }
        }
        if pipe.len() == before {
            break;
        }
    }
    Ok(())
}

#[test]
fn h1_greedy_merges_keep_the_matrix_bitwise_equal_to_a_full_recompute() {
    prop::check_cases(
        "h1_greedy_merges_keep_the_matrix_bitwise_equal_to_a_full_recompute",
        48,
        |rng, size| {
            let n = 2 + rng.gen_range(0..=(10 * size.clamp(1, 100) / 100));
            let density = rng.gen_range(0.1..0.8);
            let g = random_sw_graph(rng, n, density);
            let target = rng.gen_range(1..=n);
            (g, target)
        },
        |(g, target)| run_checked(g, *target, &mut H1Greedy),
    );
}

#[test]
fn h1_pair_all_merges_keep_the_matrix_bitwise_equal_to_a_full_recompute() {
    prop::check_cases(
        "h1_pair_all_merges_keep_the_matrix_bitwise_equal_to_a_full_recompute",
        48,
        |rng, size| {
            let n = 2 + rng.gen_range(0..=(10 * size.clamp(1, 100) / 100));
            let density = rng.gen_range(0.1..0.8);
            let g = random_sw_graph(rng, n, density);
            let target = rng.gen_range(1..=n);
            (g, target)
        },
        |(g, target)| run_checked(g, *target, &mut H1PairAll),
    );
}

#[test]
fn partition_replay_merges_keep_the_matrix_bitwise_equal_to_a_full_recompute() {
    prop::check_cases(
        "partition_replay_merges_keep_the_matrix_bitwise_equal_to_a_full_recompute",
        48,
        |rng, size| {
            let n = 2 + rng.gen_range(0..=(10 * size.clamp(1, 100) / 100));
            let density = rng.gen_range(0.1..0.8);
            let g = random_sw_graph(rng, n, density);
            let target = rng.gen_range(1..=n);
            (g, target)
        },
        |(g, target)| {
            // Build a feasible partition with H1, then replay it through a
            // fresh pipeline (the H2/H3 merge path), checking every step.
            let mut pre = CondensePipeline::new(g);
            if pre.run_policy(*target, &mut H1Greedy).is_err() {
                return Ok(()); // no feasible partition at this target
            }
            let groups = pre.groups().to_vec();
            let mut replay = PartitionReplay::toward(g.node_count(), &groups);
            run_checked(g, groups.len(), &mut replay)?;
            // And the replay must actually land on the same partition.
            let mut pipe = CondensePipeline::new(g);
            pipe.run_policy(groups.len(), &mut replay)
                .map_err(|e| e.to_string())?;
            pipe.reorder_to(&groups).map_err(|e| e.to_string())?;
            prop_assert!(pipe.groups() == groups.as_slice(), "replay diverged");
            Ok(())
        },
    );
}

#[test]
fn incremental_h1_equals_the_rebuilding_h1_on_random_graphs() {
    prop::check_cases(
        "incremental_h1_equals_the_rebuilding_h1_on_random_graphs",
        32,
        |rng, size| {
            let n = 2 + rng.gen_range(0..=(10 * size.clamp(1, 100) / 100));
            let density = rng.gen_range(0.1..0.8);
            let g = random_sw_graph(rng, n, density);
            let target = rng.gen_range(1..=n);
            (g, target)
        },
        |(g, target)| {
            let incremental = fcm_alloc::heuristics::h1(g, *target);
            let rebuilt = fcm_alloc::heuristics::h1_rebuild(g, *target);
            prop_assert_eq!(
                incremental.is_ok(),
                rebuilt.is_ok(),
                "feasibility must agree"
            );
            if let (Ok(a), Ok(b)) = (incremental, rebuilt) {
                prop_assert!(a == b, "clusterings diverged");
            }
            Ok(())
        },
    );
}
