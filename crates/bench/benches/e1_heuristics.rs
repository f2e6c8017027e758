//! E1 timing: clustering heuristics H1 / H1′ / H2 / H3 across graph
//! sizes, plus the incremental-vs-rebuild H1 comparison at n = 96 (the
//! condensation pipeline's Eq. 4 row/column update against the
//! full-recondense baseline it replaced — same clustering, different
//! cost).

use std::hint::black_box;

use fcm_alloc::heuristics::{h1, h1_pair_all, h1_rebuild, h2, h3};
use fcm_core::ImportanceWeights;
use fcm_graph::algo::BisectPolicy;
use fcm_substrate::bench::Suite;
use fcm_workloads::random::RandomWorkload;

fn main() {
    let mut suite = Suite::new("e1_heuristics");
    suite.sample_size(10);
    for &n in &[16usize, 32, 64] {
        let g = RandomWorkload {
            processes: n,
            density: 0.25,
            replicated_fraction: 0.0, // pure timing comparison
            seed: 42,
            ..RandomWorkload::default()
        }
        .generate();
        let target = n / 3;
        let weights = ImportanceWeights::default();
        suite.bench(&format!("H1/{n}"), || {
            h1(black_box(&g), target).expect("feasible")
        });
        suite.bench(&format!("H1_pair_all/{n}"), || {
            h1_pair_all(black_box(&g), target).expect("feasible")
        });
        suite.bench(&format!("H2/{n}"), || {
            h2(black_box(&g), target, BisectPolicy::LargestPart).expect("feasible")
        });
        suite.bench(&format!("H3/{n}"), || {
            h3(black_box(&g), target, &weights).expect("feasible")
        });
    }
    // H1 at n = 96: the pipeline's incremental Eq. 4 update vs the
    // pre-refactor full-recondense baseline (both produce the same
    // clustering; `h1_rebuild` is kept exactly for this measurement).
    {
        let n = 96usize;
        let g = RandomWorkload {
            processes: n,
            density: 0.25,
            replicated_fraction: 0.0,
            seed: 42,
            ..RandomWorkload::default()
        }
        .generate();
        let target = n / 3;
        assert_eq!(
            h1(&g, target).expect("feasible"),
            h1_rebuild(&g, target).expect("feasible"),
            "incremental and rebuild H1 must agree before timing them"
        );
        suite.bench(&format!("H1_incremental/{n}"), || {
            h1(black_box(&g), target).expect("feasible")
        });
        suite.bench(&format!("H1_rebuild/{n}"), || {
            h1_rebuild(black_box(&g), target).expect("feasible")
        });
    }
    suite.finish();
}
