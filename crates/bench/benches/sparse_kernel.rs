//! Sparse walk-series kernel grid: the large-n half of the Eq. 3
//! benchmark story.
//!
//! `matrix_kernel` times the dense blocked kernel at n ≤ 256; this
//! suite extends the grid through the sparse engine on the
//! [`fcm_workloads::fleet::SparseFleet`] shape. Every cell at n ≤ 512
//! is first checked **bitwise** against the dense oracle (walk series
//! entry-for-entry, top-k against a full sort of the oracle row) and
//! recorded in the artefact with `"oracle": "bitwise-equal"`; the
//! large cells (1k / 10k / 50k) are sparse-only and recorded as
//! `"oracle": "skipped"`. Each artefact entry also carries the cell's
//! `n`, `nnz` and `density` so `check_bench_schema` can validate the
//! grid and readers can relate time to problem size. A quick run drops
//! the 50k cell.

use fcm_graph::SparseMatrix;
use fcm_substrate::bench::{Stats, Suite};
use fcm_workloads::fleet::SparseFleet;

/// Walk-series truncation order (matches `matrix_kernel`).
const ORDER: usize = 8;
/// Epsilon for the global power-max truncation check.
const EPSILON: f64 = 1e-12;
/// k for the top-k influence cells.
const TOP_K: usize = 10;

fn fleet_matrix(n: usize) -> SparseMatrix {
    SparseFleet {
        processes: n,
        ..SparseFleet::default()
    }
    .matrix()
}

/// Panics unless the sparse kernel reproduces the dense oracle
/// bit-for-bit at this size — both the full series and the top-k row.
fn assert_bitwise_oracle(n: usize, m: &SparseMatrix) {
    let dense = m.to_dense();
    let want = dense.walk_series(ORDER, EPSILON);
    let got = m.walk_series(ORDER, EPSILON);
    for i in 0..n {
        for j in 0..n {
            let sv = got.get(i, j).unwrap_or(0.0);
            let dv = want.get(i, j).expect("in bounds");
            assert_eq!(
                sv.to_bits(),
                dv.to_bits(),
                "sparse/dense series divergence at n={n} entry ({i},{j}): {sv} vs {dv}"
            );
        }
    }
    let top = m.top_k_from(0, TOP_K, ORDER, EPSILON);
    let mut full: Vec<(usize, f64)> = (1..n)
        .map(|j| (j, want.get(0, j).expect("in bounds")))
        .filter(|&(_, v)| v != 0.0)
        .collect();
    full.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite")
            .then_with(|| a.0.cmp(&b.0))
    });
    full.truncate(TOP_K);
    assert_eq!(top.len(), full.len(), "top-k length at n={n}");
    for (g, w) in top.iter().zip(&full) {
        assert_eq!(
            (g.0, g.1.to_bits()),
            (w.0, w.1.to_bits()),
            "sparse/dense top-k divergence at n={n}"
        );
    }
}

/// Times the cell's two kernels, tagging each entry with the cell's
/// size and oracle verdict.
fn run_cell(suite: &mut Suite, n: usize, m: &SparseMatrix, oracle: &str) {
    let (nnz, density) = (m.nnz() as u64, m.density());
    let tag = |s: &mut Stats| {
        s.with("n", n as u64)
            .with("nnz", nnz)
            .with("density", density)
            .with("oracle", oracle);
    };
    tag(suite.bench(&format!("walk_series/{n}"), || {
        m.walk_series(ORDER, EPSILON)
    }));
    tag(suite.bench(&format!("top_k/{n}"), || {
        m.top_k_from(0, TOP_K, ORDER, EPSILON)
    }));
}

fn main() {
    let mut suite = Suite::new("sparse_kernel");
    let large_ns: &[usize] = if suite.is_quick() {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 50_000]
    };
    let samples = if suite.is_quick() { 3 } else { 10 };
    suite.sample_size(samples);

    for n in [64usize, 128, 256, 512] {
        let m = fleet_matrix(n);
        assert_bitwise_oracle(n, &m);
        run_cell(&mut suite, n, &m, "bitwise-equal");
    }

    suite.sample_size(3);
    for &n in large_ns {
        let m = fleet_matrix(n);
        run_cell(&mut suite, n, &m, "skipped");
    }
    suite.finish();
}
