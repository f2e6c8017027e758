//! The separation metric: Eq. 3 of the paper.
//!
//! *Separation* is "the probability of one FCM **not** affecting another
//! if all other FCMs at the same level are considered" — influence plus
//! every transitive path:
//!
//! ```text
//! sep(i, j) = 1 − (P_ij + Σ_k P_ik·P_kj + Σ_l Σ_k P_ik·P_kl·P_lj + …)
//! ```
//!
//! i.e. one minus the `(i, j)` entry of `P + P² + P³ + …`, truncated when
//! "higher-order terms are likely to be small enough to be neglected".
//! Experiment E2 measures how quickly the truncation converges.
//!
//! The analysis holds a storage-polymorphic [`InfluenceMatrix`]: small
//! dense fleets run the dense oracle kernel (byte-stable with the
//! pre-sparse engine), large sparse fleets run the SCC-sharded CSR
//! kernel — bitwise-equal wherever both apply. The top-k queries
//! ([`SeparationAnalysis::top_k_influence`],
//! [`SeparationAnalysis::top_k_least_separated`]) walk a single source
//! row and never materialise the n×n series.

use fcm_graph::{DiGraph, InfluenceMatrix, Matrix, NodeIdx, Workspace};

use crate::error::FcmError;

/// Default truncation order for the walk series; E2 shows order 4 is
/// within 1e-3 of order 8 for influence graphs with entries ≤ 0.7.
pub const DEFAULT_ORDER: usize = 4;

/// Separation analysis over an influence matrix.
///
/// # Example
///
/// ```
/// use fcm_core::separation::SeparationAnalysis;
/// use fcm_graph::{Matrix, NodeIdx};
///
/// // p0 -> p1 (0.5), p1 -> p2 (0.4): indirect influence 0.2.
/// let mut p = Matrix::zeros(3, 3);
/// p[(0, 1)] = 0.5;
/// p[(1, 2)] = 0.4;
/// let a = SeparationAnalysis::new(p)?;
/// let s = a.separation(NodeIdx(0), NodeIdx(2), 4);
/// assert!((s - 0.8).abs() < 1e-12);
/// # Ok::<(), fcm_core::FcmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SeparationAnalysis {
    influence: InfluenceMatrix,
}

impl SeparationAnalysis {
    /// Creates an analysis from a dense influence matrix; the
    /// representation-selection policy may keep it dense or move it to
    /// CSR (value-preserving either way).
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::InvalidProbability`] when any entry lies
    /// outside `[0, 1]`.
    pub fn new(influence: Matrix) -> Result<Self, FcmError> {
        SeparationAnalysis::from_influence(InfluenceMatrix::from_dense_auto(influence))
    }

    /// Creates an analysis from an influence matrix in either
    /// representation, keeping it as given (no policy re-selection).
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::InvalidProbability`] when any entry lies
    /// outside `[0, 1]`.
    pub fn from_influence(influence: InfluenceMatrix) -> Result<Self, FcmError> {
        match &influence {
            InfluenceMatrix::Dense(m) => {
                for r in 0..m.rows() {
                    for c in 0..m.cols() {
                        let v = m.get(r, c).expect("within bounds");
                        if v.is_nan() || !(0.0..=1.0).contains(&v) {
                            return Err(FcmError::InvalidProbability { value: v });
                        }
                    }
                }
            }
            InfluenceMatrix::Sparse(s) => {
                // Stored entries row-major: the same first offender as
                // the dense scan (zeros are always valid).
                for (_, _, v) in s.entries() {
                    if v.is_nan() || !(0.0..=1.0).contains(&v) {
                        return Err(FcmError::InvalidProbability { value: v });
                    }
                }
            }
        }
        Ok(SeparationAnalysis { influence })
    }

    /// Builds the analysis from an influence graph (edge weights are
    /// influence values in `[0, 1]`), selecting the representation by
    /// size and density — a 50k-node sparse fleet never materialises a
    /// dense matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FcmError::InvalidProbability`] when an edge weight lies
    /// outside `[0, 1]`.
    pub fn from_graph<N, E: Copy + Into<f64>>(g: &DiGraph<N, E>) -> Result<Self, FcmError> {
        SeparationAnalysis::from_influence(InfluenceMatrix::from_graph_auto(g))
    }

    /// The underlying influence matrix.
    pub fn influence_matrix(&self) -> &InfluenceMatrix {
        &self.influence
    }

    /// Eq. 3 separation, truncated at `order` walk steps; the walk sum is
    /// clamped at 1 so the result stays a probability.
    pub fn separation(&self, from: NodeIdx, to: NodeIdx, order: usize) -> f64 {
        1.0 - self.total_influence(from, to, order)
    }

    /// [`separation`](SeparationAnalysis::separation) against a
    /// caller-owned [`Workspace`] — allocation-free once warm.
    pub fn separation_with(
        &self,
        from: NodeIdx,
        to: NodeIdx,
        order: usize,
        ws: &mut Workspace,
    ) -> f64 {
        1.0 - self.total_influence_with(from, to, order, ws)
    }

    /// The complementary transitive influence `1 − sep(i, j)`, clamped to
    /// `[0, 1]`.
    pub fn total_influence(&self, from: NodeIdx, to: NodeIdx, order: usize) -> f64 {
        self.total_influence_with(from, to, order, &mut Workspace::new())
    }

    /// [`total_influence`](SeparationAnalysis::total_influence) against a
    /// caller-owned [`Workspace`] (used by the dense kernel; the sparse
    /// engine needs no scratch and ignores it).
    pub fn total_influence_with(
        &self,
        from: NodeIdx,
        to: NodeIdx,
        order: usize,
        ws: &mut Workspace,
    ) -> f64 {
        match &self.influence {
            InfluenceMatrix::Dense(m) => m
                .walk_series_with(order, 1e-15, ws)
                .get(from.index(), to.index())
                .unwrap_or(0.0)
                .min(1.0),
            InfluenceMatrix::Sparse(s) => s
                .walk_series(order, 1e-15)
                .get(from.index(), to.index())
                .unwrap_or(0.0)
                .min(1.0),
        }
    }

    /// The `k` strongest transitive influences out of `from` at the
    /// given order (diagonal excluded), as `(target, influence)` with
    /// influence clamped to `[0, 1]`, descending. Computed from a
    /// single walk row — never the full n×n series — and guaranteed to
    /// agree with sorting the full series row (same comparator, same
    /// row values; ties break on ascending target index).
    pub fn top_k_influence(&self, from: NodeIdx, k: usize, order: usize) -> Vec<(NodeIdx, f64)> {
        self.influence
            .top_k_influence(from.index(), k, order)
            .into_iter()
            .map(|(j, v)| (NodeIdx(j), v.min(1.0)))
            .collect()
    }

    /// The `k` least-separated partners of `from` at the given order,
    /// as `(target, separation)` ascending — the pairs an integrator
    /// must look at first. The separation of every unlisted pair is ≥
    /// the last listed value.
    pub fn top_k_least_separated(
        &self,
        from: NodeIdx,
        k: usize,
        order: usize,
    ) -> Vec<(NodeIdx, f64)> {
        self.top_k_influence(from, k, order)
            .into_iter()
            .map(|(j, v)| (j, 1.0 - v))
            .collect()
    }

    /// Pairwise separation matrix at the given order (diagonal is 1 by
    /// convention — an FCM is perfectly separated from itself in the
    /// paper's pairwise sense).
    pub fn pairwise(&self, order: usize) -> Matrix {
        self.pairwise_with(order, &mut Workspace::new())
    }

    /// [`pairwise`](SeparationAnalysis::pairwise) against a caller-owned
    /// [`Workspace`], so sweeps evaluating many graphs reuse the
    /// power-series buffers. The result is dense by nature (almost every
    /// entry is a nonzero separation), so a sparse analysis materialises
    /// it from the sparse series — bitwise-equal to the dense path.
    pub fn pairwise_with(&self, order: usize, ws: &mut Workspace) -> Matrix {
        match &self.influence {
            InfluenceMatrix::Dense(m) => {
                let n = m.rows();
                let mut out = Matrix::zeros(0, 0);
                m.walk_series_into(order, 1e-15, ws, &mut out);
                // Turn the walk series into separations in place: no second
                // allocation, and the diagonal becomes the conventional 1.
                for i in 0..n {
                    for j in 0..n {
                        out[(i, j)] = if i == j {
                            1.0
                        } else {
                            1.0 - out.get(i, j).expect("in bounds").min(1.0)
                        };
                    }
                }
                out
            }
            InfluenceMatrix::Sparse(s) => {
                let n = s.rows();
                let series = s.walk_series(order, 1e-15);
                let mut data = vec![1.0f64; n * n];
                for (i, j, v) in series.entries() {
                    if i != j {
                        data[i * n + j] = 1.0 - v.min(1.0);
                    }
                }
                Matrix::from_rows(n, n, &data)
            }
        }
    }

    /// Smallest order whose next term changes no entry by more than
    /// `epsilon`, capped at `max_order`. This quantifies the paper's "at
    /// some point, higher-order terms are likely to be small enough to be
    /// neglected".
    pub fn converged_order(&self, epsilon: f64, max_order: usize) -> usize {
        self.converged_order_with(epsilon, max_order, &mut Workspace::new())
    }

    /// [`converged_order`](SeparationAnalysis::converged_order) against a
    /// caller-owned [`Workspace`] (dense scratch; the sparse engine
    /// ignores it).
    pub fn converged_order_with(
        &self,
        epsilon: f64,
        max_order: usize,
        ws: &mut Workspace,
    ) -> usize {
        match &self.influence {
            InfluenceMatrix::Dense(m) => {
                ws.begin_powers(m.rows());
                for k in 1..=max_order {
                    if ws.step_power(m).max_abs() <= epsilon {
                        return k;
                    }
                }
                max_order
            }
            // Bitwise-equal powers ⇒ the same reported order.
            InfluenceMatrix::Sparse(s) => s.converged_order(epsilon, max_order),
        }
    }

    /// A sufficient convergence check: `true` when every row sum of the
    /// influence matrix is below 1, which guarantees the walk series
    /// converges geometrically. When `false`, truncation error may be
    /// large and callers should increase the order or renormalise.
    pub fn series_converges(&self) -> bool {
        match &self.influence {
            InfluenceMatrix::Dense(m) => {
                let n = m.rows();
                (0..n).all(|i| (0..n).map(|j| m.get(i, j).expect("in bounds")).sum::<f64>() < 1.0)
            }
            InfluenceMatrix::Sparse(s) => (0..s.rows()).all(|i| {
                // Stored entries ascend by column; summing them skips
                // only exact zeros, so the fold matches the dense scan.
                let (_, vals) = s.row(i);
                vals.iter().sum::<f64>() < 1.0
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_graph::SparseMatrix;

    fn chain() -> SeparationAnalysis {
        let mut p = Matrix::zeros(3, 3);
        p[(0, 1)] = 0.5;
        p[(1, 2)] = 0.4;
        SeparationAnalysis::new(p).unwrap()
    }

    fn chain_sparse() -> SeparationAnalysis {
        let mut p = Matrix::zeros(3, 3);
        p[(0, 1)] = 0.5;
        p[(1, 2)] = 0.4;
        SeparationAnalysis::from_influence(InfluenceMatrix::Sparse(SparseMatrix::from_dense(&p)))
            .unwrap()
    }

    #[test]
    fn direct_separation_is_one_minus_influence() {
        let a = chain();
        assert!((a.separation(NodeIdx(0), NodeIdx(1), 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transitive_term_requires_order_two() {
        let a = chain();
        // Order 1 sees no path 0→2.
        assert!((a.separation(NodeIdx(0), NodeIdx(2), 1) - 1.0).abs() < 1e-12);
        // Order 2 includes the two-step walk 0→1→2 = 0.2.
        assert!((a.separation(NodeIdx(0), NodeIdx(2), 2) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sparse_analysis_matches_dense_bitwise() {
        let d = chain();
        let s = chain_sparse();
        assert_eq!(s.influence_matrix().repr(), "csr");
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    d.separation(NodeIdx(i), NodeIdx(j), 4).to_bits(),
                    s.separation(NodeIdx(i), NodeIdx(j), 4).to_bits(),
                    "pair ({i}, {j})"
                );
            }
        }
        assert_eq!(d.pairwise(4), s.pairwise(4));
        assert_eq!(d.converged_order(1e-6, 16), s.converged_order(1e-6, 16));
        assert_eq!(d.series_converges(), s.series_converges());
    }

    #[test]
    fn top_k_agrees_with_a_full_pairwise_sort() {
        let mut p = Matrix::zeros(4, 4);
        p[(0, 1)] = 0.5;
        p[(0, 2)] = 0.1;
        p[(1, 3)] = 0.8;
        p[(2, 3)] = 0.2;
        for a in [
            SeparationAnalysis::new(p.clone()).unwrap(),
            SeparationAnalysis::from_influence(InfluenceMatrix::Sparse(SparseMatrix::from_dense(
                &p,
            )))
            .unwrap(),
        ] {
            let top = a.top_k_least_separated(NodeIdx(0), 2, DEFAULT_ORDER);
            let pw = a.pairwise(DEFAULT_ORDER);
            let mut full: Vec<(usize, f64)> = (0..4)
                .filter(|&j| j != 0)
                .map(|j| (j, pw[(0, j)]))
                .collect();
            full.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap().then(x.0.cmp(&y.0)));
            assert_eq!(top.len(), 2);
            for (got, want) in top.iter().zip(&full) {
                assert_eq!(got.0.index(), want.0);
                assert!((got.1 - want.1).abs() < 1e-12);
            }
            let infl = a.top_k_influence(NodeIdx(0), 4, DEFAULT_ORDER);
            assert!(infl.windows(2).all(|w| w[0].1 >= w[1].1), "descending");
        }
    }

    #[test]
    fn separation_decreases_when_a_bypass_is_added() {
        let mut p = Matrix::zeros(3, 3);
        p[(0, 1)] = 0.5;
        p[(1, 2)] = 0.4;
        let base = SeparationAnalysis::new(p.clone()).unwrap();
        p[(0, 2)] = 0.3;
        let with_direct = SeparationAnalysis::new(p).unwrap();
        assert!(
            with_direct.separation(NodeIdx(0), NodeIdx(2), 4)
                < base.separation(NodeIdx(0), NodeIdx(2), 4)
        );
    }

    #[test]
    fn reducing_third_party_influence_raises_separation() {
        // The paper: "it is also possible to increase separation by
        // reducing the influence between other FCMs through which the two
        // interact."
        let mut strong = Matrix::zeros(3, 3);
        strong[(0, 1)] = 0.6;
        strong[(1, 2)] = 0.9;
        let mut weak = strong.clone();
        weak[(1, 2)] = 0.1;
        let s_strong = SeparationAnalysis::new(strong).unwrap();
        let s_weak = SeparationAnalysis::new(weak).unwrap();
        assert!(
            s_weak.separation(NodeIdx(0), NodeIdx(2), 4)
                > s_strong.separation(NodeIdx(0), NodeIdx(2), 4)
        );
    }

    #[test]
    fn walk_sum_is_clamped_to_a_probability() {
        // A dense high-influence cycle can push the raw series above 1.
        let mut p = Matrix::zeros(2, 2);
        p[(0, 1)] = 0.9;
        p[(1, 0)] = 0.9;
        let a = SeparationAnalysis::new(p).unwrap();
        let s = a.separation(NodeIdx(0), NodeIdx(1), 16);
        assert!((0.0..=1.0).contains(&s));
        // Row sums are 0.9 < 1 so the series converges — yet its limit
        // 0.9/(1−0.81) ≈ 4.7 exceeds 1, which is why the clamp matters.
        assert!(a.series_converges());
        assert_eq!(s, 0.0);
        // A certain-influence cycle fails the convergence check.
        let mut q = Matrix::zeros(2, 2);
        q[(0, 1)] = 1.0;
        q[(1, 0)] = 1.0;
        assert!(!SeparationAnalysis::new(q).unwrap().series_converges());
    }

    #[test]
    fn pairwise_matrix_has_unit_diagonal() {
        let a = chain();
        let m = a.pairwise(4);
        for i in 0..3 {
            assert_eq!(m[(i, i)], 1.0);
        }
        assert!((m[(0, 2)] - 0.8).abs() < 1e-12);
        // No reverse influence: full separation.
        assert_eq!(m[(2, 0)], 1.0);
    }

    #[test]
    fn converged_order_is_small_for_weak_influence() {
        let mut p = Matrix::zeros(3, 3);
        p[(0, 1)] = 0.01;
        p[(1, 2)] = 0.01;
        let a = SeparationAnalysis::new(p).unwrap();
        assert!(a.converged_order(1e-6, 16) <= 3);
        assert!(a.series_converges());
    }

    #[test]
    fn workspace_variants_match_the_allocating_paths_bitwise() {
        let a = chain();
        let mut ws = Workspace::new();
        assert_eq!(
            a.separation(NodeIdx(0), NodeIdx(2), 4),
            a.separation_with(NodeIdx(0), NodeIdx(2), 4, &mut ws)
        );
        assert_eq!(a.pairwise(4), a.pairwise_with(4, &mut ws));
        assert_eq!(
            a.converged_order(1e-6, 16),
            a.converged_order_with(1e-6, 16, &mut ws)
        );
        // Reuse across differently-sized analyses must not leak state.
        let mut p = Matrix::zeros(5, 5);
        p[(0, 4)] = 0.3;
        let b = SeparationAnalysis::new(p).unwrap();
        assert_eq!(b.pairwise(4), b.pairwise_with(4, &mut ws));
    }

    #[test]
    fn invalid_entries_are_rejected() {
        let mut p = Matrix::zeros(2, 2);
        p[(0, 1)] = 1.5;
        assert!(matches!(
            SeparationAnalysis::new(p),
            Err(FcmError::InvalidProbability { .. })
        ));
        // The sparse constructor rejects the same entry.
        let mut q = Matrix::zeros(2, 2);
        q[(0, 1)] = f64::NAN;
        assert!(SeparationAnalysis::from_influence(InfluenceMatrix::Sparse(
            SparseMatrix::from_dense(&q)
        ))
        .is_err());
    }

    #[test]
    fn from_graph_matches_matrix_construction() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 0.5);
        let s = SeparationAnalysis::from_graph(&g).unwrap();
        assert!((s.separation(a, b, 1) - 0.5).abs() < 1e-12);
        // Invalid edge weight propagates the error.
        let mut bad: DiGraph<(), f64> = DiGraph::new();
        let x = bad.add_node(());
        let y = bad.add_node(());
        bad.add_edge(x, y, 2.0);
        assert!(SeparationAnalysis::from_graph(&bad).is_err());
    }
}
