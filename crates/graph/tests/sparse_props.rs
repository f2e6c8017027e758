//! Property-based tests of the sparse engine's bitwise contract:
//! whatever the dense oracle computes, the CSR kernel must reproduce
//! bit-for-bit — on random graphs and on the hub-and-spoke shape the
//! large-fleet generator emits.

use fcm_graph::{InfluenceMatrix, Matrix, SparseMatrix};
use fcm_substrate::prop;
use fcm_substrate::prop_assert_eq;
use fcm_substrate::rng::Rng;

/// A random influence matrix: n×n, each off-diagonal entry nonzero with
/// probability `density`, values in (0, 0.9/n·fan] so walk series stay
/// finite but truncation still fires at moderate epsilons.
fn random_dense(rng: &mut Rng, n: usize, density: f64) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen::<f64>() < density {
                m[(i, j)] = rng.gen_range(0.01..0.6);
            }
        }
    }
    m
}

/// A hub-and-spoke dense matrix: spokes point at their hub and back,
/// plus a few random shortcuts — the sparse fleet generator's shape,
/// small enough for the dense oracle.
fn hub_and_spoke(rng: &mut Rng, n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let hubs = (n / 6).max(1);
    for i in 0..n {
        let h = (i % hubs) * 6 % n;
        if h != i {
            m[(i, h)] = rng.gen_range(0.05..0.4);
            m[(h, i)] = rng.gen_range(0.01..0.1);
        }
    }
    for _ in 0..n / 2 {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            m[(a, b)] = rng.gen_range(0.01..0.3);
        }
    }
    m
}

fn sized_n(rng: &mut Rng, size: usize, span: usize) -> usize {
    2 + rng.gen_range(0..=span * size.clamp(1, 100) / 100)
}

/// Bitwise equality of a sparse result against a dense oracle.
fn assert_bitwise(s: &SparseMatrix, d: &Matrix) -> Result<(), String> {
    prop_assert_eq!(s.rows(), d.rows());
    prop_assert_eq!(s.cols(), d.cols());
    for i in 0..d.rows() {
        for j in 0..d.cols() {
            let sv = s.get(i, j).unwrap_or(0.0);
            let dv = d.get(i, j).expect("in bounds");
            prop_assert_eq!(
                sv.to_bits(),
                dv.to_bits(),
                "entry ({}, {}): sparse {} vs dense {}",
                i,
                j,
                sv,
                dv
            );
        }
    }
    Ok(())
}

#[test]
fn walk_series_is_bitwise_equal_to_the_dense_oracle() {
    prop::check_cases(
        "walk_series_is_bitwise_equal_to_the_dense_oracle",
        64,
        |rng, size| {
            let n = sized_n(rng, size, 30);
            let density = rng.gen_range(0.05f64..0.5);
            let dense = if rng.gen::<f64>() < 0.5 {
                random_dense(rng, n, density)
            } else {
                hub_and_spoke(rng, n)
            };
            let order = rng.gen_range(1..=8usize);
            let epsilon = [0.0, 1e-9, 1e-3, 5e-2][rng.gen_range(0..4usize)];
            (dense, order, epsilon)
        },
        |(dense, order, epsilon)| {
            let sparse = SparseMatrix::from_dense(dense);
            let oracle = dense.walk_series(*order, *epsilon);
            // Full-series parity, at several thread counts.
            assert_bitwise(&sparse.walk_series(*order, *epsilon), &oracle)?;
            for threads in [1, 3] {
                assert_bitwise(
                    &sparse.walk_series_threads(*order, *epsilon, threads),
                    &oracle,
                )?;
            }
            Ok(())
        },
    );
}

#[test]
fn eq4_row_col_recombination_matches_across_representations() {
    prop::check_cases(
        "eq4_row_col_recombination_matches_across_representations",
        64,
        |rng, size| {
            let n = sized_n(rng, size, 20);
            let dense = random_dense(rng, n, 0.3);
            let gi = rng.gen_range(0..n);
            // Fresh row/col values to splice in (diagonal comes from row).
            let row: Vec<f64> = (0..n)
                .map(|j| {
                    if j == gi {
                        0.0
                    } else {
                        rng.gen_range(0.0..0.5)
                    }
                })
                .collect();
            let col: Vec<f64> = (0..n)
                .map(|j| {
                    if j == gi {
                        0.0
                    } else {
                        rng.gen_range(0.0..0.5)
                    }
                })
                .collect();
            (dense, gi, row, col)
        },
        |(dense, gi, row, col)| {
            let mut d = InfluenceMatrix::Dense(dense.clone());
            let mut s = InfluenceMatrix::Sparse(SparseMatrix::from_dense(dense));
            d.set_row_col(*gi, row, col);
            s.set_row_col(*gi, row, col);
            prop_assert_eq!(&d, &s, "set_row_col diverged at gi={}", gi);
            // Push + shrink round-trips stay aligned too.
            let (mut dg, mut sg) = (d.clone(), s.clone());
            let entries: Vec<(usize, f64)> = row
                .iter()
                .enumerate()
                .map(|(j, &v)| (j, v))
                .filter(|&(j, _)| j % 2 == 0)
                .collect();
            dg.push_row_col(&entries, &entries);
            sg.push_row_col(&entries, &entries);
            prop_assert_eq!(&dg, &sg);
            let n = dense.rows();
            prop_assert_eq!(dg.rows(), n + 1);
            let (ds, ss) = (dg.shrink_row_col(*gi), sg.shrink_row_col(*gi));
            prop_assert_eq!(&ds, &ss);
            prop_assert_eq!(ds.rows(), n);
            dg.pop_row_col();
            sg.pop_row_col();
            prop_assert_eq!(&dg, &d);
            prop_assert_eq!(&sg, &s);
            Ok(())
        },
    );
}

#[test]
fn top_k_matches_a_full_sort_of_the_series_row() {
    prop::check_cases(
        "top_k_matches_a_full_sort_of_the_series_row",
        64,
        |rng, size| {
            let n = sized_n(rng, size, 30);
            let dense = if rng.gen::<f64>() < 0.5 {
                random_dense(rng, n, 0.25)
            } else {
                hub_and_spoke(rng, n)
            };
            let from = rng.gen_range(0..n);
            let k = rng.gen_range(0..=n);
            (dense, from, k)
        },
        |(dense, from, k)| {
            let sparse = SparseMatrix::from_dense(dense);
            let order = 6;
            let top = sparse.top_k_from(*from, *k, order, 0.0);
            // Oracle: sort the full (untruncated) series row.
            let series = dense.walk_series(order, 0.0);
            let mut full: Vec<(usize, f64)> = (0..dense.rows())
                .filter(|&j| j != *from)
                .map(|j| (j, series.get(*from, j).expect("in bounds")))
                .filter(|&(_, v)| v != 0.0)
                .collect();
            full.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            full.truncate(*k);
            prop_assert_eq!(top.len(), full.len());
            for (got, want) in top.iter().zip(&full) {
                prop_assert_eq!(got.0, want.0, "target order");
                prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "value bits");
            }
            // The enum queries agree with the raw sparse kernel.
            let im = InfluenceMatrix::Sparse(sparse);
            let via_enum = im.top_k_influence(*from, *k, order);
            for (a, b) in via_enum.iter().zip(&top) {
                prop_assert_eq!(a.0, b.0);
            }
            Ok(())
        },
    );
}

#[test]
fn state_json_round_trips_both_representations() {
    prop::check_cases(
        "state_json_round_trips_both_representations",
        32,
        |rng, size| {
            let n = sized_n(rng, size, 15);
            random_dense(rng, n, 0.3)
        },
        |dense| {
            let d = InfluenceMatrix::Dense(dense.clone());
            let s = InfluenceMatrix::Sparse(SparseMatrix::from_dense(dense));
            for im in [&d, &s] {
                let back = InfluenceMatrix::from_state_json(&im.to_state_json())
                    .expect("state round-trip");
                prop_assert_eq!(&back, im, "value-preserving");
                prop_assert_eq!(back.repr(), im.repr(), "representation-preserving");
            }
            Ok(())
        },
    );
}

/// A matrix entry for the serializer properties: mostly an influence
/// weight, sometimes an integral, tiny, huge or non-finite value, so
/// every branch of the number writer shows up in a matrix.
fn state_value(rng: &mut Rng) -> f64 {
    match rng.gen_range(0..10) {
        0 => f64::from(rng.gen_range(1u32..4)),
        1 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
        2 => 1e21 * rng.gen_range(1.0..10.0),
        3 => [f64::NAN, f64::INFINITY, -1.5][rng.gen_range(0usize..3)],
        _ => rng.gen_range(0.001..1.0),
    }
}

#[test]
fn write_state_streams_the_state_json_bytes() {
    prop::check_cases(
        "write_state_streams_the_state_json_bytes",
        48,
        |rng, size| {
            // Density down to 0, so CSR cases with empty rows are common.
            let most = sized_n(rng, size, 20);
            let n = rng.gen_range(0..=most);
            let density = rng.gen_range(0.0..0.4);
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    if rng.gen::<f64>() < density {
                        m[(i, j)] = state_value(rng);
                    }
                }
            }
            m
        },
        |dense| {
            let d = InfluenceMatrix::Dense(dense.clone());
            let s = InfluenceMatrix::Sparse(SparseMatrix::from_dense(dense));
            for im in [&d, &s] {
                let mut streamed = String::from("prefix");
                im.write_state(&mut streamed);
                let mut tree = String::from("prefix");
                im.to_state_json().write_compact(&mut tree);
                prop_assert_eq!(streamed, tree, "{} bytes", im.repr());
            }
            Ok(())
        },
    );
}

#[test]
fn write_state_streams_empty_and_rowless_matrices() {
    let empty = Matrix::zeros(0, 0);
    let blank = Matrix::zeros(5, 5);
    for dense in [&empty, &blank] {
        for im in [
            InfluenceMatrix::Dense(dense.clone()),
            InfluenceMatrix::Sparse(SparseMatrix::from_dense(dense)),
        ] {
            let mut streamed = String::new();
            im.write_state(&mut streamed);
            assert_eq!(streamed, im.to_state_json().to_string_compact());
        }
    }
    let mut csr = String::new();
    InfluenceMatrix::Sparse(SparseMatrix::from_dense(&empty)).write_state(&mut csr);
    assert_eq!(
        csr,
        r#"{"col_idx":[],"cols":0,"format":"csr","row_ptr":[0],"rows":0,"vals":[]}"#
    );
}
