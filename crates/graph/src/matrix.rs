//! Dense `f64` matrices for the influence power series (paper Eq. 3).
//!
//! The paper's *separation* metric sums walk contributions
//! `P_ij + Σ_k P_ik P_kj + Σ_l Σ_k P_ik P_kl P_lj + …`, i.e. the entries of
//! `P + P² + P³ + …` truncated when higher-order terms become negligible.
//! [`Matrix::walk_series`] computes that truncated sum.
//!
//! # The shared kernel
//!
//! Every analysis in the workspace funnels through one cache-blocked,
//! allocation-free kernel: [`Matrix::mul_into`] writes the product into a
//! caller-owned matrix, and [`Matrix::walk_series_into`] runs the whole
//! power series against a reusable [`Workspace`], so a sweep that
//! evaluates thousands of series performs no allocation after the first
//! cell. The blocking is over `k` (the contraction index) and `i`, with
//! `k`-blocks visited in ascending order — which keeps the per-entry
//! accumulation order identical to the naive `ikj` loop, so results are
//! **bitwise equal** to the pre-blocking implementation, not merely close.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul};

use crate::error::GraphError;
use crate::{DiGraph, NodeIdx};

/// A dense row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use fcm_graph::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 1)] = 0.5;
/// m[(1, 0)] = 0.25;
/// let sq = &m * &m;
/// assert_eq!(sq[(0, 0)], 0.125);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fcm_substrate::ToJson for Matrix {
    fn to_json(&self) -> fcm_substrate::Json {
        use fcm_substrate::Json;
        let data: Vec<Json> = (0..self.rows)
            .map(|i| Json::from(self.data[i * self.cols..(i + 1) * self.cols].to_vec()))
            .collect();
        Json::object()
            .set("rows", self.rows)
            .set("cols", self.cols)
            .set("data", Json::Arr(data))
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds the `n × n` weight matrix of a graph: entry `(i, j)` is the sum
    /// of weights of all edges `i → j` (zero when absent).
    pub fn from_graph<N, E: Copy + Into<f64>>(g: &DiGraph<N, E>) -> Self {
        let n = g.node_count();
        let mut m = Matrix::zeros(n, n);
        for (_, e) in g.edges() {
            m[(e.from.index(), e.to.index())] += e.weight.into();
        }
        m
    }

    /// Appends one zero row and one zero column in place: the rows move
    /// back within the one buffer.
    pub(crate) fn grow_in_place(&mut self) {
        let (r, c) = (self.rows, self.cols);
        self.data.resize((r + 1) * (c + 1), 0.0);
        for i in (0..r).rev() {
            self.data.copy_within(i * c..i * c + c, i * (c + 1));
            self.data[i * (c + 1) + c] = 0.0;
        }
        self.rows += 1;
        self.cols += 1;
    }

    /// Drops the last row and the last column in place.
    ///
    /// # Panics
    ///
    /// Panics when the matrix has no row or no column.
    pub(crate) fn shrink_in_place(&mut self) {
        assert!(self.rows > 0 && self.cols > 0, "shrink of an empty matrix");
        let (r, c) = (self.rows, self.cols);
        for i in 1..r - 1 {
            self.data.copy_within(i * c..i * c + c - 1, i * (c - 1));
        }
        self.data.truncate((r - 1) * (c - 1));
        self.rows -= 1;
        self.cols -= 1;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the entry at `(row, col)`, or `None` when out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Reshapes to `rows × cols`, all zeros, reusing the existing
    /// allocation whenever its capacity suffices.
    fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes to the `n × n` identity, reusing the allocation.
    fn reset_identity(&mut self, n: usize) {
        self.reset_zeros(n, n);
        for i in 0..n {
            self.data[i * n + i] = 1.0;
        }
    }

    /// Checked matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] when `self.cols !=
    /// rhs.rows`.
    pub fn checked_mul(&self, rhs: &Matrix) -> Result<Matrix, GraphError> {
        let mut out = Matrix::zeros(0, 0);
        self.mul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// In-place checked matrix product: writes `self * rhs` into `out`,
    /// reshaping it (and reusing its allocation) as needed. This is the
    /// cache-blocked kernel everything else delegates to; per output
    /// entry the contraction index runs in ascending order, so the
    /// result is bitwise identical to a naive `ikj` triple loop.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] when `self.cols !=
    /// rhs.rows`; `out` is untouched in that case.
    pub fn mul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), GraphError> {
        if self.cols != rhs.rows {
            return Err(GraphError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        out.reset_zeros(self.rows, rhs.cols);
        // Blocked over the contraction index k and the output row i:
        // one k-block of `rhs` rows stays hot in cache while the whole
        // i-block streams over it. k-blocks ascend, and k ascends within
        // each block, so every out[(i, j)] accumulates its terms in
        // exactly the order the naive loop used (bitwise-stable FP).
        const BLOCK: usize = 64;
        let n = rhs.cols;
        for k0 in (0..self.cols).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(self.cols);
            for i0 in (0..self.rows).step_by(BLOCK) {
                let i1 = (i0 + BLOCK).min(self.rows);
                for i in i0..i1 {
                    let out_row = &mut out.data[i * n..(i + 1) * n];
                    for k in k0..k1 {
                        let a = self.data[i * self.cols + k];
                        if a == 0.0 {
                            continue;
                        }
                        let rhs_row = &rhs.data[k * n..(k + 1) * n];
                        for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                            *o += a * r;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Checked matrix sum.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] when shapes differ.
    pub fn checked_add(&self, rhs: &Matrix) -> Result<Matrix, GraphError> {
        let mut out = self.clone();
        out.add_assign_checked(rhs)?;
        Ok(out)
    }

    /// In-place checked matrix sum: `self += rhs`, no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DimensionMismatch`] when shapes differ;
    /// `self` is untouched in that case.
    pub fn add_assign_checked(&mut self, rhs: &Matrix) -> Result<(), GraphError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(GraphError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        for (o, r) in self.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        Ok(())
    }

    /// Largest absolute entry (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Truncated walk series `Σ_{k=1..order} P^k` — the transitive-influence
    /// sum of the paper's Eq. 3 (`separation = 1 − series entry`).
    ///
    /// # Truncation semantics
    ///
    /// The ε-check tests the max-norm of the **power term** `P^k` —
    /// *not* the accumulator — immediately before that term would be
    /// added: the first power whose largest entry falls below `epsilon`
    /// is discarded and the series stops there (the paper: "at some
    /// point, higher-order terms are likely to be small enough to be
    /// neglected"). The accumulator's own magnitude never participates,
    /// so a series whose sum is already large still truncates as soon
    /// as the *terms* become negligible. The sparse engine
    /// ([`SparseMatrix::walk_series`](crate::SparseMatrix::walk_series))
    /// replays exactly this per-order check, which is what lets the two
    /// representations truncate at the same order and stay
    /// bitwise-equal. `order == 0` yields the zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn walk_series(&self, order: usize, epsilon: f64) -> Matrix {
        self.walk_series_with(order, epsilon, &mut Workspace::new())
    }

    /// [`walk_series`](Matrix::walk_series) against a caller-owned
    /// [`Workspace`], so repeated series over same-sized matrices reuse
    /// the power buffers instead of allocating per power.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn walk_series_with(&self, order: usize, epsilon: f64, ws: &mut Workspace) -> Matrix {
        let mut acc = Matrix::zeros(0, 0);
        self.walk_series_into(order, epsilon, ws, &mut acc);
        acc
    }

    /// The fully in-place walk series: writes `Σ_{k=1..order} P^k` into
    /// `acc` (reshaping it as needed) using `ws` for the intermediate
    /// powers. After the first call at a given size, no allocation at
    /// all. Results are bitwise identical to
    /// [`walk_series`](Matrix::walk_series).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn walk_series_into(
        &self,
        order: usize,
        epsilon: f64,
        ws: &mut Workspace,
        acc: &mut Matrix,
    ) {
        assert_eq!(self.rows, self.cols, "walk series requires a square matrix");
        let n = self.rows;
        acc.reset_zeros(n, n);
        ws.begin_powers(n);
        for _ in 0..order {
            let power = ws.step_power(self);
            if power.max_abs() < epsilon {
                break;
            }
            acc.add_assign_checked(power).expect("same shape");
        }
    }

    /// The walk-series entry for a node pair, i.e. `1 − separation(i, j)`.
    pub fn transitive_influence(&self, from: NodeIdx, to: NodeIdx, order: usize) -> f64 {
        self.walk_series(order, 1e-12)
            .get(from.index(), to.index())
            .unwrap_or(0.0)
    }
}

/// Reusable scratch buffers for the power-series kernel.
///
/// Holds the current power and a multiply target; both keep their
/// allocations across calls, so any number of
/// [`Matrix::walk_series_into`] runs over same-sized matrices perform
/// zero allocation after the first. A workspace carries no result state
/// between calls — sharing one across unrelated analyses is safe (but
/// not across threads; give each worker its own).
#[derive(Debug, Clone)]
pub struct Workspace {
    power: Matrix,
    next: Matrix,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Workspace {
        Workspace {
            power: Matrix::zeros(0, 0),
            next: Matrix::zeros(0, 0),
        }
    }

    /// Resets the power accumulator to the `n × n` identity (`P⁰`),
    /// starting a fresh [`step_power`](Workspace::step_power) walk.
    pub fn begin_powers(&mut self, n: usize) {
        self.power.reset_identity(n);
    }

    /// Advances the accumulator one step — after the `k`-th call it
    /// holds `P^k` — and returns it. Allocation-free once warm.
    ///
    /// # Panics
    ///
    /// Panics when `p`'s row count differs from the size given to
    /// [`begin_powers`](Workspace::begin_powers).
    pub fn step_power(&mut self, p: &Matrix) -> &Matrix {
        self.power
            .mul_into(p, &mut self.next)
            .expect("power accumulator must match the matrix size");
        std::mem::swap(&mut self.power, &mut self.next);
        &self.power
    }
}

impl Default for Workspace {
    fn default() -> Workspace {
        Workspace::new()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    /// # Panics
    ///
    /// Panics on dimension mismatch; use [`Matrix::checked_mul`] to handle
    /// the error.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.checked_mul(rhs).expect("matrix dimension mismatch")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    /// # Panics
    ///
    /// Panics on dimension mismatch; use [`Matrix::checked_add`] to handle
    /// the error.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.checked_add(rhs).expect("matrix dimension mismatch")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:.4}", self.data[r * self.cols + c])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication_is_neutral() {
        let m = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(&m * &i, m);
        assert_eq!(&i * &m, m);
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = Matrix::from_rows(2, 3, &[1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        let b = Matrix::from_rows(3, 2, &[3.0, 1.0, 2.0, 1.0, 1.0, 0.0]);
        let c = a.checked_mul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(2, 2, &[5.0, 1.0, 4.0, 2.0]));
    }

    #[test]
    fn mismatched_multiplication_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.checked_mul(&b),
            Err(GraphError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_addition_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            a.checked_add(&b),
            Err(GraphError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_graph_sums_parallel_edges() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0.25);
        g.add_edge(a, b, 0.5);
        let m = Matrix::from_graph(&g);
        assert_eq!(m[(0, 1)], 0.75);
        assert_eq!(m[(1, 0)], 0.0);
    }

    #[test]
    fn walk_series_on_a_chain_accumulates_transitive_terms() {
        // a -> b (0.5), b -> c (0.4): direct a->c is 0, two-step is 0.2.
        let mut p = Matrix::zeros(3, 3);
        p[(0, 1)] = 0.5;
        p[(1, 2)] = 0.4;
        let s1 = p.walk_series(1, 0.0);
        assert_eq!(s1[(0, 2)], 0.0);
        let s2 = p.walk_series(2, 0.0);
        assert!((s2[(0, 2)] - 0.2).abs() < 1e-12);
        // No walks longer than 2 exist, so higher orders change nothing.
        let s5 = p.walk_series(5, 0.0);
        assert!((s5[(0, 2)] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn walk_series_early_stops_below_epsilon() {
        let mut p = Matrix::zeros(2, 2);
        p[(0, 1)] = 1e-4;
        p[(1, 0)] = 1e-4;
        // Second power has max entry 1e-8 < epsilon, so the series equals P.
        let s = p.walk_series(10, 1e-6);
        assert_eq!(s, p.walk_series(1, 0.0));
    }

    #[test]
    fn truncation_checks_the_power_term_not_the_accumulator() {
        // Chain 0 -(0.9)-> 1 -(0.01)-> 2: P¹ has max 0.9, P² is the
        // single entry 0.009 at (0, 2), P³ is zero. With ε = 0.05 the
        // P² *term* is below ε while the accumulator's max (0.9) is
        // far above it — an accumulator-based check would keep going
        // and pick up the 0.009, a power-term check must stop first.
        let mut p = Matrix::zeros(3, 3);
        p[(0, 1)] = 0.9;
        p[(1, 2)] = 0.01;
        let s = p.walk_series(10, 0.05);
        assert_eq!(s[(0, 2)], 0.0, "P² term must be discarded");
        assert_eq!(s, p.walk_series(1, 0.0), "series truncates to P¹");
        // With ε below the P² term, the term is kept.
        assert!((p.walk_series(10, 1e-3)[(0, 2)] - 0.009).abs() < 1e-15);
    }

    #[test]
    fn transitive_influence_reads_one_entry() {
        let mut p = Matrix::zeros(3, 3);
        p[(0, 1)] = 0.5;
        p[(1, 2)] = 0.4;
        let v = p.transitive_influence(NodeIdx(0), NodeIdx(2), 4);
        assert!((v - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn walk_series_requires_square() {
        Matrix::zeros(2, 3).walk_series(2, 0.0);
    }

    #[test]
    fn max_abs_of_zero_matrix_is_zero() {
        assert_eq!(Matrix::zeros(3, 3).max_abs(), 0.0);
        let mut m = Matrix::zeros(1, 2);
        m[(0, 1)] = -2.5;
        assert_eq!(m.max_abs(), 2.5);
    }

    #[test]
    fn display_renders_rows() {
        let m = Matrix::from_rows(2, 2, &[1.0, 0.5, 0.25, 0.0]);
        let s = m.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.starts_with("1.0000 0.5000"));
    }

    /// The pre-refactor naive ikj product, kept verbatim as the bitwise
    /// reference for the blocked kernel.
    fn naive_mul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.rows, rhs.cols);
        for i in 0..lhs.rows {
            for k in 0..lhs.cols {
                let a = lhs.data[i * lhs.cols + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.data[k * rhs.cols + j];
                }
            }
        }
        out
    }

    /// Deterministic pseudo-random matrix with a sprinkling of exact
    /// zeros (to exercise the skip path), sized to cross block borders.
    fn scrambled(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = fcm_substrate::Rng::seed_from_u64(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            *v = if rng.gen_range(0..4) == 0 {
                0.0
            } else {
                rng.gen_f64() - 0.5
            };
        }
        m
    }

    #[test]
    fn blocked_product_is_bitwise_equal_to_naive_ikj() {
        // Sizes straddle the 64-wide block boundary, including ragged
        // tails and non-square shapes.
        for (m, k, n) in [(5, 7, 3), (64, 64, 64), (65, 130, 63), (100, 97, 101)] {
            let a = scrambled(m, k, 0xA5A5 + m as u64);
            let b = scrambled(k, n, 0x5A5A + n as u64);
            let blocked = a.checked_mul(&b).unwrap();
            assert_eq!(blocked, naive_mul(&a, &b), "{m}x{k} * {k}x{n}");
        }
    }

    #[test]
    fn mul_into_reuses_out_across_shapes() {
        let a = scrambled(20, 30, 1);
        let b = scrambled(30, 10, 2);
        let mut out = Matrix::zeros(3, 3); // wrong shape on purpose
        a.mul_into(&b, &mut out).unwrap();
        assert_eq!(out, naive_mul(&a, &b));
        // Reuse for a different product; stale contents must not leak.
        let c = scrambled(4, 5, 3);
        let d = scrambled(5, 6, 4);
        c.mul_into(&d, &mut out).unwrap();
        assert_eq!(out, naive_mul(&c, &d));
    }

    #[test]
    fn mul_into_dimension_mismatch_leaves_out_untouched() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut out = Matrix::from_rows(1, 2, &[7.0, 8.0]);
        assert!(a.mul_into(&b, &mut out).is_err());
        assert_eq!(out, Matrix::from_rows(1, 2, &[7.0, 8.0]));
    }

    #[test]
    fn add_assign_checked_matches_checked_add() {
        let a = scrambled(9, 9, 5);
        let b = scrambled(9, 9, 6);
        let mut c = a.clone();
        c.add_assign_checked(&b).unwrap();
        assert_eq!(c, a.checked_add(&b).unwrap());
        assert!(c.add_assign_checked(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn workspace_series_is_bitwise_equal_and_reusable() {
        let mut ws = Workspace::new();
        for n in [3usize, 17, 66] {
            // Keep entries small so the series converges.
            let mut p = scrambled(n, n, 7 + n as u64);
            for v in &mut p.data {
                *v *= 0.2;
            }
            let fresh = p.walk_series(6, 1e-9);
            let reused = p.walk_series_with(6, 1e-9, &mut ws);
            assert_eq!(fresh, reused, "n={n}");
            let mut acc = Matrix::zeros(0, 0);
            p.walk_series_into(6, 1e-9, &mut ws, &mut acc);
            assert_eq!(fresh, acc, "n={n} (into)");
        }
    }

    #[test]
    fn get_is_bounds_checked() {
        let m = Matrix::zeros(2, 2);
        assert_eq!(m.get(1, 1), Some(0.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 2), None);
    }
}
