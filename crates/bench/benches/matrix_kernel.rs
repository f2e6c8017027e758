//! Matrix-kernel timing: naive allocating power series vs the blocked,
//! workspace-reusing kernel (`Matrix::walk_series_into`), at the sizes
//! the analysis engine actually sees. The naive baseline is the `ikj`
//! triple loop the blocked kernel is bitwise-equivalent to, allocating
//! a fresh matrix per power — exactly what `fcm-core` did before the
//! kernel refactor.

use std::hint::black_box;

use fcm_graph::{Matrix, Workspace};
use fcm_substrate::bench::Suite;
use fcm_substrate::rng::Rng;

const ORDER: usize = 8;
const EPSILON: f64 = 1e-12;

/// A random sub-stochastic influence matrix (row sums < 1, so the walk
/// series converges like the paper's Eq. 3 assumes).
fn random_matrix(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen::<f64>() < 0.3 {
                m[(i, j)] = rng.gen_range(0.0..0.8) / n as f64;
            }
        }
    }
    m
}

/// The pre-refactor baseline: naive `ikj` product, one fresh allocation
/// per power and per accumulation step.
fn naive_series(p: &Matrix, order: usize, epsilon: f64) -> Matrix {
    let n = p.rows();
    let mut acc = Matrix::zeros(n, n);
    let mut power = Matrix::identity(n);
    for _ in 0..order {
        let mut next = Matrix::zeros(n, n);
        for i in 0..n {
            for k in 0..n {
                let a = power[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    next[(i, j)] += a * p[(k, j)];
                }
            }
        }
        power = next;
        if power.max_abs() < epsilon {
            break;
        }
        acc = &acc + &power;
    }
    acc
}

fn main() {
    let mut suite = Suite::new("matrix_kernel");
    suite.sample_size(10);
    for &n in &[32usize, 64, 128, 256] {
        let p = random_matrix(n, 7 + n as u64);
        // The two paths must agree bitwise before their times mean anything.
        let reference = naive_series(&p, ORDER, EPSILON);
        let mut ws = Workspace::new();
        let mut acc = Matrix::zeros(0, 0);
        p.walk_series_into(ORDER, EPSILON, &mut ws, &mut acc);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    acc[(i, j)].to_bits(),
                    reference[(i, j)].to_bits(),
                    "blocked kernel diverged at ({i}, {j}) for n={n}"
                );
            }
        }
        suite.bench(&format!("naive_series/{n}"), || {
            naive_series(black_box(&p), ORDER, EPSILON)
        });
        suite.bench(&format!("blocked_series/{n}"), || {
            p.walk_series_into(ORDER, EPSILON, &mut ws, &mut acc);
            black_box(acc.max_abs())
        });
    }
    suite.finish();
}
