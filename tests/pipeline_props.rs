//! Property-based tests over the whole integration pipeline: random
//! workloads in, validated clusterings and mappings out.

use ddsi::prelude::*;
use ddsi::workloads::random::RandomWorkload;
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop_assert, prop_assert_eq};

fn arb_workload(rng: &mut Rng, size: usize) -> RandomWorkload {
    let hi = 19usize.min(4 + size * 15 / 100).max(4);
    RandomWorkload {
        processes: rng.gen_range(4usize..=hi),
        density: rng.gen_range(0.0f64..0.6),
        max_criticality: rng.gen_range(1u32..12),
        replicated_fraction: rng.gen_range(0.0f64..0.4),
        seed: rng.gen(),
        ..RandomWorkload::default()
    }
}

/// Minimum cluster count that can separate every replica group.
fn min_feasible_clusters(g: &SwGraph) -> usize {
    use std::collections::BTreeMap;
    let mut sizes: BTreeMap<u32, usize> = BTreeMap::new();
    for (_, n) in g.nodes() {
        if let Some(rg) = n.replica_group {
            *sizes.entry(rg).or_default() += 1;
        }
    }
    sizes.values().copied().max().unwrap_or(1)
}

#[test]
fn h1_clusterings_are_valid_partitions() {
    prop::check_cases(
        "h1_clusterings_are_valid_partitions",
        48,
        arb_workload,
        |w| {
            let g = expand_replicas(&w.generate()).graph;
            let lo = min_feasible_clusters(&g);
            let target = (g.node_count() / 2).max(lo).min(g.node_count());
            if let Ok(c) = h1(&g, target) {
                prop_assert_eq!(c.len(), target);
                let mut all: Vec<_> = c.clusters().iter().flatten().copied().collect();
                all.sort();
                all.dedup();
                prop_assert_eq!(all.len(), g.node_count());
            }
            Ok(())
        },
    );
}

#[test]
fn heuristics_never_colocate_replicas() {
    prop::check_cases(
        "heuristics_never_colocate_replicas",
        48,
        arb_workload,
        |w| {
            let g = expand_replicas(&w.generate()).graph;
            let lo = min_feasible_clusters(&g);
            let target = ((g.node_count() * 2) / 3).max(lo).min(g.node_count());
            for c in [
                h1(&g, target),
                h2(&g, target, BisectPolicy::LargestPart),
                h3(&g, target, &ImportanceWeights::default()),
            ]
            .into_iter()
            .flatten()
            {
                for cluster in c.clusters() {
                    for (k, &a) in cluster.iter().enumerate() {
                        for &b in &cluster[k + 1..] {
                            let na = g.node(a).unwrap();
                            let nb = g.node(b).unwrap();
                            prop_assert!(!na.is_replica_of(nb));
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn condensed_probabilistic_influence_stays_in_unit_interval() {
    prop::check_cases(
        "condensed_probabilistic_influence_stays_in_unit_interval",
        48,
        arb_workload,
        |w| {
            let g = w.generate();
            let target = (g.node_count() / 2).max(1);
            if let Ok(c) = h1(&g, target) {
                let cond = c.condensed(&g);
                for (_, e) in cond.graph.edges() {
                    prop_assert!((0.0..=1.0).contains(&e.weight), "{}", e.weight);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn separation_is_a_probability_and_antitone_in_order() {
    prop::check_cases(
        "separation_is_a_probability_and_antitone_in_order",
        48,
        arb_workload,
        |w| {
            let g = w.generate();
            // Influence entries could in principle sum above 1 per pair; the
            // analysis clamps. Skip graphs with invalid weights (none are
            // generated, but the check keeps the property honest).
            let Ok(analysis) = SeparationAnalysis::from_graph(&g) else {
                return Ok(());
            };
            for i in g.node_indices().take(6) {
                for j in g.node_indices().take(6) {
                    if i == j {
                        continue;
                    }
                    let s2 = analysis.separation(i, j, 2);
                    let s5 = analysis.separation(i, j, 5);
                    prop_assert!((0.0..=1.0).contains(&s2));
                    // More walk terms can only add influence.
                    prop_assert!(s5 <= s2 + 1e-9);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn cluster_influence_bounds() {
    prop::check_cases(
        "cluster_influence_bounds",
        48,
        |rng, size| {
            let hi = 7usize.min(size * 7 / 100);
            let count = rng.gen_range(0..=hi);
            (0..count)
                .map(|_| rng.gen_range(0.0f64..1.0))
                .collect::<Vec<f64>>()
        },
        |values| {
            let members: Vec<Influence> =
                values.iter().map(|&v| Influence::new(v).unwrap()).collect();
            let combined = cluster_influence(&members).value();
            prop_assert!((0.0..=1.0).contains(&combined));
            let max = values.iter().copied().fold(0.0f64, f64::max);
            prop_assert!(combined >= max - 1e-12);
            let sum: f64 = values.iter().sum();
            prop_assert!(combined <= sum + 1e-12);
            Ok(())
        },
    );
}

#[test]
fn mapping_on_a_big_enough_platform_always_validates() {
    prop::check_cases(
        "mapping_on_a_big_enough_platform_always_validates",
        48,
        arb_workload,
        |w| {
            let g = expand_replicas(&w.generate()).graph;
            let hw = HwGraph::complete(g.node_count());
            let c = Clustering::singletons(&g);
            let m = approach_a(&g, &c, &hw, &ImportanceWeights::default()).unwrap();
            prop_assert!(m.validate(&g, &c, &hw).is_ok());
            Ok(())
        },
    );
}

#[test]
fn edf_feasibility_is_monotone_in_deadline() {
    prop::check_cases(
        "edf_feasibility_is_monotone_in_deadline",
        48,
        |rng, _size| {
            (
                rng.gen_range(0u64..50),
                rng.gen_range(1u64..20),
                rng.gen_range(0u64..30),
            )
        },
        |&(est, ct, slack)| {
            let tight = Job::new(0, est, est + ct + slack, ct);
            let loose = Job::new(1, est, est + ct + slack + 10, ct);
            let tight_ok = edf::feasible(&JobSet::new(vec![tight]).unwrap());
            let loose_ok = edf::feasible(&JobSet::new(vec![loose]).unwrap());
            prop_assert!(tight_ok);
            prop_assert!(loose_ok);
            Ok(())
        },
    );
}

#[test]
fn merge_stringent_timing_never_widens() {
    prop::check_cases(
        "merge_stringent_timing_never_widens",
        48,
        |rng, _size| {
            (
                rng.gen_range(0u64..20),
                rng.gen_range(1u64..30),
                rng.gen_range(0u64..20),
                rng.gen_range(1u64..30),
            )
        },
        |&(a_est, a_len, b_est, b_len)| {
            let a = TimingConstraint::new(a_est, a_est + a_len + 5, 2);
            let b = TimingConstraint::new(b_est, b_est + b_len + 5, 3);
            let m = a.merge_stringent(b);
            prop_assert!(m.est >= a.est && m.est >= b.est);
            prop_assert!(m.tcd <= a.tcd && m.tcd <= b.tcd);
            prop_assert_eq!(m.ct, a.ct + b.ct);
            Ok(())
        },
    );
}
