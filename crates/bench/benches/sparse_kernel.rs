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
//! grid and readers can relate time to problem size.
//!
//! The artefact is assembled by hand (Suite's `to_artifact` has no
//! per-entry metadata hook) but keeps the exact `fcm-bench/v1` layout,
//! pretty-printed with a trailing newline, honouring `$FCM_BENCH_DIR`
//! and `FCM_BENCH_QUICK=1` like every other suite.

use fcm_graph::SparseMatrix;
use fcm_substrate::bench::Suite;
use fcm_substrate::json::{Json, ToJson};
use fcm_workloads::fleet::SparseFleet;

/// Walk-series truncation order (matches `matrix_kernel`).
const ORDER: usize = 8;
/// Epsilon for the global power-max truncation check.
const EPSILON: f64 = 1e-12;
/// k for the top-k influence cells.
const TOP_K: usize = 10;

fn fleet_matrix(n: usize) -> SparseMatrix {
    SparseFleet { processes: n, ..SparseFleet::default() }.matrix()
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
    full.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then_with(|| a.0.cmp(&b.0)));
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

/// Times the cell's two kernels and records one metadata tuple per
/// timed entry, in `Suite::results` order.
fn run_cell(
    suite: &mut Suite,
    meta: &mut Vec<(usize, usize, f64, &'static str)>,
    n: usize,
    m: &SparseMatrix,
    oracle: &'static str,
) {
    let (nnz, density) = (m.nnz(), m.density());
    suite.bench(&format!("walk_series/{n}"), || m.walk_series(ORDER, EPSILON));
    meta.push((n, nnz, density, oracle));
    suite.bench(&format!("top_k/{n}"), || m.top_k_from(0, TOP_K, ORDER, EPSILON));
    meta.push((n, nnz, density, oracle));
}

fn main() {
    let quick = std::env::var("FCM_BENCH_QUICK").is_ok_and(|v| v == "1");
    let large_ns: &[usize] = if quick { &[1_000, 10_000] } else { &[1_000, 10_000, 50_000] };

    let mut suite = Suite::new("sparse_kernel");
    suite.sample_size(if quick { 3 } else { 10 });
    let mut meta: Vec<(usize, usize, f64, &'static str)> = Vec::new();

    for n in [64usize, 128, 256, 512] {
        let m = fleet_matrix(n);
        assert_bitwise_oracle(n, &m);
        run_cell(&mut suite, &mut meta, n, &m, "bitwise-equal");
    }

    suite.sample_size(3);
    for &n in large_ns {
        let m = fleet_matrix(n);
        run_cell(&mut suite, &mut meta, n, &m, "skipped");
    }

    assert_eq!(suite.results().len(), meta.len(), "metadata tracks results 1:1");
    let benchmarks: Vec<Json> = suite
        .results()
        .iter()
        .zip(&meta)
        .map(|(stats, &(n, nnz, density, oracle))| {
            stats
                .to_json()
                .set("n", n as u64)
                .set("nnz", nnz as u64)
                .set("density", density)
                .set("oracle", oracle)
        })
        .collect();
    let artifact = Json::object()
        .set("suite", "sparse_kernel")
        .set("schema", "fcm-bench/v1")
        .set("benchmarks", Json::Arr(benchmarks));

    let dir = std::env::var("FCM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_sparse_kernel.json");
    let mut text = artifact.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("write bench artifact");
    println!("wrote {}", path.display());
}
