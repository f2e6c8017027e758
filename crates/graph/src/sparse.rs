//! Compressed-sparse-row matrices for large-n influence analysis.
//!
//! Real integration fleets (tens of thousands of FCMs) have *sparse*
//! influence graphs — hub-and-spoke and fan-out shapes where each
//! process touches a handful of others — while the paper's Eq. 3 walk
//! series is quadratic in storage and cubic in time on the dense
//! [`Matrix`]. [`SparseMatrix`] stores only the nonzero entries in CSR
//! layout and computes the walk series row by row, sharding rows across
//! the substrate pool grouped by strongly connected component (see
//! [`SparseMatrix::walk_series`]).
//!
//! # The dense-oracle contract
//!
//! The dense kernel stays the bitwise oracle: wherever both
//! representations run, the sparse walk series is **bitwise equal** to
//! [`Matrix::walk_series`], not merely close. This holds because both
//! kernels fold identically per entry:
//!
//! * a product entry `(i, j)` accumulates `a_ik · b_kj` over the
//!   contraction index `k` in **ascending order**, skipping zero
//!   `a_ik` — the dense blocked kernel skips `a == 0.0` explicitly,
//!   the CSR kernel never stores it (zeros are pruned at compaction);
//! * the series accumulator folds `acc += P^k` in ascending `k`, and
//!   IEEE-754 addition of a pruned (exactly zero) term is the identity
//!   on the non-negative domain;
//! * ε-truncation tests the max-norm of the **power term** before it is
//!   added — the same check at the same point in the loop — so both
//!   representations truncate at the same order (see
//!   [`Matrix::walk_series`]).
//!
//! `crates/graph/tests/sparse_props.rs` pins the contract on seeded
//! random and hub-and-spoke graphs.

use crate::algo;
use crate::matrix::Matrix;
use crate::DiGraph;
use fcm_substrate::pool;

/// A square-or-rectangular CSR (compressed sparse row) `f64` matrix.
///
/// Within each row, stored entries are ordered by ascending column and
/// never hold an exact `0.0` (zeros are pruned so the sparse kernels
/// skip exactly the entries the dense kernel skips).
///
/// # Example
///
/// ```
/// use fcm_graph::SparseMatrix;
///
/// let m = SparseMatrix::from_triples(3, 3, [(0, 1, 0.5), (1, 2, 0.4)]);
/// assert_eq!(m.nnz(), 2);
/// let series = m.walk_series(4, 1e-15);
/// assert_eq!(series.get(0, 2), Some(0.2)); // 0.5 · 0.4 via the 2-walk
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i`'s entries.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseMatrix {
    /// Creates an all-zero (no stored entries) `rows × cols` matrix.
    #[must_use]
    pub fn empty(rows: usize, cols: usize) -> SparseMatrix {
        SparseMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Builds a matrix from `(row, col, value)` triples. Duplicate
    /// cells are **summed in triple order** — the same fold
    /// [`Matrix::from_graph`] performs for parallel edges, which keeps
    /// the two constructors bitwise-consistent. Exact zeros (including
    /// zero-valued sums) are pruned.
    ///
    /// # Panics
    ///
    /// Panics when a triple indexes out of bounds.
    #[must_use]
    pub fn from_triples(
        rows: usize,
        cols: usize,
        triples: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> SparseMatrix {
        let mut by_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for (r, c, v) in triples {
            assert!(r < rows && c < cols, "triple ({r}, {c}) out of bounds");
            by_row[r].push((c, v));
        }
        let mut m = SparseMatrix::empty(rows, cols);
        for (r, mut row) in by_row.into_iter().enumerate() {
            // Stable by column: duplicates keep triple order, so the
            // run-fold below sums them left to right exactly as the
            // dense `+=` accumulation does.
            row.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let (c, mut v) = row[i];
                i += 1;
                while i < row.len() && row[i].0 == c {
                    v += row[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    m.col_idx.push(c);
                    m.vals.push(v);
                }
            }
            m.row_ptr[r + 1] = m.col_idx.len();
        }
        m
    }

    /// Builds the `n × n` weight matrix of a graph, summing parallel
    /// edges in global edge-id order — the sparse counterpart of
    /// [`Matrix::from_graph`], with which it is bitwise-consistent.
    #[must_use]
    pub fn from_graph<N, E: Copy + Into<f64>>(g: &DiGraph<N, E>) -> SparseMatrix {
        let n = g.node_count();
        SparseMatrix::from_triples(
            n,
            n,
            g.edges()
                .map(|(_, e)| (e.from.index(), e.to.index(), e.weight.into())),
        )
    }

    /// Converts a dense matrix, pruning exact zeros.
    #[must_use]
    pub fn from_dense(m: &Matrix) -> SparseMatrix {
        let (rows, cols) = (m.rows(), m.cols());
        SparseMatrix::from_triples(
            rows,
            cols,
            (0..rows).flat_map(|i| (0..cols).map(move |j| (i, j, m.get(i, j).expect("in bounds")))),
        )
    }

    /// Materialises the dense equivalent (entry-for-entry bitwise).
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (nonzero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Fill ratio `nnz / (rows · cols)` (`0.0` for an empty shape).
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The entry at `(row, col)` (`0.0` when not stored), or `None` when
    /// out of bounds — the same contract as [`Matrix::get`].
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row >= self.rows || col >= self.cols {
            return None;
        }
        let (cols, vals) = self.row(row);
        Some(match cols.binary_search(&col) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        })
    }

    /// Row `i`'s stored entries as parallel `(columns, values)` slices,
    /// columns ascending.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[must_use]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Iterates all stored entries as `(row, col, value)`, row-major.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Largest absolute stored entry (`0.0` when none) — equals
    /// [`Matrix::max_abs`] of the dense equivalent.
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.vals.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// The strongly connected components of the matrix's nonzero
    /// pattern, in reverse topological order of the condensation
    /// (Tarjan over the CSR adjacency — see [`algo::scc_of_csr`]).
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<usize>> {
        assert_eq!(self.rows, self.cols, "components need a square matrix");
        algo::scc_of_csr(self.rows, &self.row_ptr, &self.col_idx)
    }

    /// Truncated walk series `Σ_{k=1..order} P^k` (paper Eq. 3) on the
    /// default pool width — see [`walk_series_threads`]
    /// (SparseMatrix::walk_series_threads).
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    #[must_use]
    pub fn walk_series(&self, order: usize, epsilon: f64) -> SparseMatrix {
        self.walk_series_threads(order, epsilon, pool::worker_count())
    }

    /// The walk series with an explicit worker cap.
    ///
    /// Rows are grouped by strongly connected component (reverse
    /// topological order, so each shard's rows have similar reach) and
    /// the per-component row blocks are sharded across the substrate
    /// pool. Each row's series is an independent sparse vector walk, so
    /// the result is byte-identical at any `threads` — and bitwise
    /// equal to the dense oracle (module docs). Truncation matches
    /// [`Matrix::walk_series`] exactly: the **global** max-norm of each
    /// power term is tested before the term is added, so both
    /// representations truncate at the same order.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    #[must_use]
    pub fn walk_series_threads(&self, order: usize, epsilon: f64, threads: usize) -> SparseMatrix {
        assert_eq!(self.rows, self.cols, "walk series needs a square matrix");
        let n = self.rows;
        if n == 0 || order == 0 {
            return SparseMatrix::empty(n, n);
        }
        let shards = self.component_shards(threads);
        // cur[i] = row i of P^k (k starts at 1: the matrix itself).
        let mut cur: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        let mut acc: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for step in 0..order {
            // Dense parity: test the power term's global max-norm
            // *before* adding it (Matrix::walk_series_into).
            let max = cur
                .iter()
                .flat_map(|row| row.iter())
                .fold(0.0f64, |m, &(_, v)| m.max(v.abs()));
            if max < epsilon {
                break;
            }
            let merged = pool::par_map_threads(&shards, threads, |shard| {
                shard
                    .iter()
                    .map(|&r| merge_add(&acc[r], &cur[r]))
                    .collect::<Vec<_>>()
            });
            for (shard, rows) in shards.iter().zip(merged) {
                for (&r, row) in shard.iter().zip(rows) {
                    acc[r] = row;
                }
            }
            if step + 1 < order {
                let next = pool::par_map_threads(&shards, threads, |shard| {
                    let mut scratch = vec![0.0f64; n];
                    let mut touched = Vec::new();
                    shard
                        .iter()
                        .map(|&r| self.mul_row(&cur[r], &mut scratch, &mut touched))
                        .collect::<Vec<_>>()
                });
                for (shard, rows) in shards.iter().zip(next) {
                    for (&r, row) in shard.iter().zip(rows) {
                        cur[r] = row;
                    }
                }
            }
        }
        from_sparse_rows(n, n, acc)
    }

    /// Smallest `k` whose power term `P^k` has global max-norm ≤
    /// `epsilon`, capped at `max_order` — the sparse twin of stepping a
    /// dense [`Workspace`](crate::Workspace) and testing
    /// [`Matrix::max_abs`] per power. The powers are bitwise equal to
    /// the dense kernel's, so both representations report the same
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    #[must_use]
    pub fn converged_order(&self, epsilon: f64, max_order: usize) -> usize {
        assert_eq!(self.rows, self.cols, "walk series needs a square matrix");
        let n = self.rows;
        if n == 0 {
            return if max_order == 0 { 0 } else { 1 };
        }
        let mut scratch = vec![0.0f64; n];
        let mut touched = Vec::new();
        let mut cur: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter().copied().zip(vals.iter().copied()).collect()
            })
            .collect();
        for k in 1..=max_order {
            let max = cur
                .iter()
                .flat_map(|row| row.iter())
                .fold(0.0f64, |m, &(_, v)| m.max(v.abs()));
            if max <= epsilon {
                return k;
            }
            if k < max_order {
                for row in &mut cur {
                    *row = self.mul_row(row, &mut scratch, &mut touched);
                }
            }
        }
        max_order
    }

    /// Row `i` of the walk series as sorted `(col, value)` pairs —
    /// an O(row-reach) single-source query that never touches the other
    /// rows.
    ///
    /// Truncation is **row-local**: the walk stops when the queried
    /// row's power term drops below `epsilon` in max-norm. With
    /// `epsilon = 0.0` (or whenever truncation does not fire) this is
    /// bitwise equal to the corresponding row of
    /// [`walk_series`](SparseMatrix::walk_series); under truncation the
    /// full series may keep sub-ε terms of this row alive while
    /// *another* row keeps the global max-norm above ε.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or `i` is out of bounds.
    #[must_use]
    pub fn walk_row(&self, i: usize, order: usize, epsilon: f64) -> Vec<(usize, f64)> {
        assert_eq!(self.rows, self.cols, "walk series needs a square matrix");
        let n = self.rows;
        let mut scratch = vec![0.0f64; n];
        let mut touched = Vec::new();
        let (cols, vals) = self.row(i);
        let mut cur: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
        let mut acc: Vec<(usize, f64)> = Vec::new();
        for step in 0..order {
            let max = cur.iter().fold(0.0f64, |m, &(_, v)| m.max(v.abs()));
            if max < epsilon {
                break;
            }
            acc = merge_add(&acc, &cur);
            if step + 1 < order {
                cur = self.mul_row(&cur, &mut scratch, &mut touched);
            }
        }
        acc
    }

    /// The `k` largest walk-series entries of row `from` (excluding the
    /// diagonal): the strongest transitive influences of one FCM,
    /// without materialising anything beyond that row's reach. Ordered
    /// by descending value, then ascending column. Truncation is
    /// row-local (see [`walk_row`](SparseMatrix::walk_row)).
    #[must_use]
    pub fn top_k_from(
        &self,
        from: usize,
        k: usize,
        order: usize,
        epsilon: f64,
    ) -> Vec<(usize, f64)> {
        let mut row = self.walk_row(from, order, epsilon);
        row.retain(|&(j, _)| j != from);
        sort_desc_by_value(&mut row);
        row.truncate(k);
        row
    }

    /// One sparse row times `self`, folding contributions over the
    /// contraction index in ascending order — the dense kernel's exact
    /// per-entry association. `scratch` must be all-zero of length
    /// `self.cols` on entry and is restored before returning.
    /// (`touched.contains` is O(t) per probe, but a probe only happens
    /// when `scratch[j] == 0.0` — first touch or a sum that landed on
    /// exact zero, both rare.)
    fn mul_row(
        &self,
        row: &[(usize, f64)],
        scratch: &mut [f64],
        touched: &mut Vec<usize>,
    ) -> Vec<(usize, f64)> {
        touched.clear();
        for &(k, a) in row {
            let (cols, vals) = self.row(k);
            for (&j, &b) in cols.iter().zip(vals) {
                if scratch[j] == 0.0 && !touched.contains(&j) {
                    touched.push(j);
                }
                scratch[j] += a * b;
            }
        }
        touched.sort_unstable();
        let mut out = Vec::with_capacity(touched.len());
        for &j in touched.iter() {
            if scratch[j] != 0.0 {
                out.push((j, scratch[j]));
            }
            scratch[j] = 0.0;
        }
        out
    }

    /// A reference to the stored entry at `(row, col)`, or `None` when
    /// the cell is structurally zero or out of bounds.
    pub(crate) fn entry_ref(&self, row: usize, col: usize) -> Option<&f64> {
        if row >= self.rows || col >= self.cols {
            return None;
        }
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(p) => Some(&self.vals[lo + p]),
            Err(_) => None,
        }
    }

    /// Appends row and column `n` in place (the serve-path admit hook).
    /// `row` holds the new row's `(column, value)` entries and `col` the
    /// new column's `(row, value)` entries, each ascending and below `n`;
    /// exact zeros are pruned. The new column is the last, so each of
    /// its entries lands at the end of its row: the splice moves the
    /// stored entries once and reallocates nothing but the tail.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or an index is not below
    /// `n`.
    pub fn push_row_col(&mut self, row: &[(usize, f64)], col: &[(usize, f64)]) {
        let n = self.rows;
        assert_eq!(self.rows, self.cols, "push_row_col needs a square matrix");
        debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row ascending");
        debug_assert!(col.windows(2).all(|w| w[0].0 < w[1].0), "column ascending");
        let col: Vec<(usize, f64)> = col.iter().copied().filter(|&(_, v)| v != 0.0).collect();
        let old = self.col_idx.len();
        self.col_idx.resize(old + col.len(), 0);
        self.vals.resize(old + col.len(), 0.0);
        // Walk the rows bottom-up, moving each row's entries down by the
        // number of column entries at or above it.
        let mut shift = col.len();
        let mut pending = col.iter().rev().peekable();
        for r in (0..n).rev() {
            if shift == 0 {
                break;
            }
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if let Some(&(_, v)) = pending.next_if(|&&(cr, _)| cr == r) {
                self.col_idx[hi + shift - 1] = n;
                self.vals[hi + shift - 1] = v;
                self.row_ptr[r + 1] += shift;
                shift -= 1;
            } else {
                self.row_ptr[r + 1] += shift;
            }
            self.col_idx.copy_within(lo..hi, lo + shift);
            self.vals.copy_within(lo..hi, lo + shift);
        }
        assert!(pending.next().is_none(), "column index out of bounds");
        for &(c, v) in row {
            assert!(c < n, "row index out of bounds");
            if v != 0.0 {
                self.col_idx.push(c);
                self.vals.push(v);
            }
        }
        self.row_ptr.push(self.col_idx.len());
        self.rows += 1;
        self.cols += 1;
    }

    /// Removes the last row and column in place — the undo of
    /// [`push_row_col`](Self::push_row_col). O(nnz).
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or empty.
    pub fn pop_row_col(&mut self) {
        assert_eq!(self.rows, self.cols, "pop_row_col needs a square matrix");
        assert!(self.rows > 0, "pop_row_col on an empty matrix");
        let last = self.rows - 1;
        self.row_ptr.pop();
        self.col_idx.truncate(self.row_ptr[last]);
        self.vals.truncate(self.row_ptr[last]);
        let mut w = 0;
        for r in 0..last {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            self.row_ptr[r] = w;
            for k in lo..hi {
                if self.col_idx[k] != last {
                    self.col_idx[w] = self.col_idx[k];
                    self.vals[w] = self.vals[k];
                    w += 1;
                }
            }
        }
        self.row_ptr[last] = w;
        self.col_idx.truncate(w);
        self.vals.truncate(w);
        self.rows = last;
        self.cols = last;
    }

    /// Removes row and column `hi`, shifting later indices down by one —
    /// the sparse counterpart of the dense pipeline's `shrink_row_col`.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or `hi` is out of bounds.
    #[must_use]
    pub fn shrink_row_col(&self, hi: usize) -> SparseMatrix {
        assert_eq!(self.rows, self.cols, "shrink needs a square matrix");
        assert!(hi < self.rows, "shrink index out of bounds");
        let n = self.rows - 1;
        let mut m = SparseMatrix::empty(n, n);
        for r in 0..self.rows {
            if r == hi {
                continue;
            }
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if c == hi {
                    continue;
                }
                m.col_idx.push(if c > hi { c - 1 } else { c });
                m.vals.push(v);
            }
            let nr = if r > hi { r - 1 } else { r };
            m.row_ptr[nr + 1] = m.col_idx.len();
        }
        m
    }

    /// Replaces row `gi` and column `gi` wholesale: the new row is
    /// `row[0..n]` and the new column is `col[0..n]` (dense slices; the
    /// diagonal comes from `row[gi]`). Exact zeros are pruned, so the
    /// result carries the same values as the dense assignment loop in
    /// the Eq. 4 recombiner.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or a slice length differs
    /// from `n`.
    pub fn set_row_col(&mut self, gi: usize, row: &[f64], col: &[f64]) {
        let n = self.rows;
        assert_eq!(self.rows, self.cols, "set_row_col needs a square matrix");
        assert!(gi < n && row.len() == n && col.len() == n);
        let mut m = SparseMatrix::empty(n, n);
        for (r, &cv) in col.iter().enumerate() {
            if r == gi {
                for (j, &v) in row.iter().enumerate() {
                    if v != 0.0 {
                        m.col_idx.push(j);
                        m.vals.push(v);
                    }
                }
            } else {
                let (cols, vals) = self.row(r);
                let mut placed = false;
                for (&c, &v) in cols.iter().zip(vals) {
                    if !placed && c >= gi {
                        if cv != 0.0 {
                            m.col_idx.push(gi);
                            m.vals.push(cv);
                        }
                        placed = true;
                    }
                    if c == gi {
                        continue;
                    }
                    m.col_idx.push(c);
                    m.vals.push(v);
                }
                if !placed && cv != 0.0 {
                    m.col_idx.push(gi);
                    m.vals.push(cv);
                }
            }
            m.row_ptr[r + 1] = m.col_idx.len();
        }
        *self = m;
    }

    /// Applies a node relabelling: entry `(i, j)` of the result is entry
    /// `(map[i], map[j])` of `self` (`map` must be a permutation of
    /// `0..n`). Values are carried bitwise.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or `map` is not a
    /// permutation of `0..n`.
    #[must_use]
    pub fn permuted(&self, map: &[usize]) -> SparseMatrix {
        let n = self.rows;
        assert_eq!(self.rows, self.cols, "permuted needs a square matrix");
        assert_eq!(map.len(), n, "map must cover every node");
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in map.iter().enumerate() {
            assert!(
                old < n && inv[old] == usize::MAX,
                "map must be a permutation"
            );
            inv[old] = new;
        }
        SparseMatrix::from_triples(n, n, self.entries().map(|(r, c, v)| (inv[r], inv[c], v)))
    }

    /// Splits the rows into contiguous blocks of whole strongly
    /// connected components (components merged greedily up to a target
    /// block size). Shard boundaries only affect scheduling, never
    /// values — each row's series is independent.
    fn component_shards(&self, threads: usize) -> Vec<Vec<usize>> {
        let n = self.rows;
        let target = (n / (threads.max(1) * 8)).clamp(1, 2048);
        let mut shards = Vec::new();
        let mut shard: Vec<usize> = Vec::new();
        for comp in self.components() {
            shard.extend(comp);
            if shard.len() >= target {
                shards.push(std::mem::take(&mut shard));
            }
        }
        if !shard.is_empty() {
            shards.push(shard);
        }
        shards
    }
}

/// Orders query results by descending value, ties broken by ascending
/// column — the one comparator every top-k path (sparse or dense) uses,
/// so top-k always agrees with a full sort of the same row.
pub(crate) fn sort_desc_by_value(row: &mut [(usize, f64)]) {
    row.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite walk values")
            .then(a.0.cmp(&b.0))
    });
}

/// Merges two column-sorted sparse rows entrywise (`a + b`). Where only
/// one side stores an entry the value carries over verbatim, matching
/// the dense `acc += power` fold (adding an exact zero is the identity
/// on the non-negative domain).
fn merge_add(a: &[(usize, f64)], b: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let v = a[i].1 + b[j].1;
                if v != 0.0 {
                    out.push((a[i].0, v));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Assembles a CSR matrix from per-row sorted `(col, value)` lists.
fn from_sparse_rows(rows: usize, cols: usize, data: Vec<Vec<(usize, f64)>>) -> SparseMatrix {
    let mut m = SparseMatrix::empty(rows, cols);
    for (r, row) in data.into_iter().enumerate() {
        for (c, v) in row {
            debug_assert!(c < cols);
            m.col_idx.push(c);
            m.vals.push(v);
        }
        m.row_ptr[r + 1] = m.col_idx.len();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_substrate::rng::Rng;

    fn random_dense(n: usize, density: f64, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from_u64(seed);
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.gen_range(0.0..1.0) < density {
                    m[(i, j)] = rng.gen_range(0.0..0.8) / n as f64;
                }
            }
        }
        m
    }

    #[test]
    fn triples_sum_duplicates_in_order_and_prune_zeros() {
        let m = SparseMatrix::from_triples(
            2,
            2,
            [(0, 1, 0.25), (0, 1, 0.5), (1, 0, 0.0), (0, 0, 0.125)],
        );
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 1), Some(0.75));
        assert_eq!(m.get(1, 0), Some(0.0)); // pruned
        assert_eq!(m.get(0, 0), Some(0.125));
        assert_eq!(m.get(2, 0), None);
        assert!((m.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dense_round_trip_is_bitwise() {
        let d = random_dense(17, 0.3, 7);
        let s = SparseMatrix::from_dense(&d);
        let back = s.to_dense();
        for i in 0..17 {
            for j in 0..17 {
                assert_eq!(d[(i, j)].to_bits(), back.get(i, j).unwrap().to_bits());
            }
        }
        assert_eq!(s.max_abs(), d.max_abs());
    }

    #[test]
    fn walk_series_matches_the_dense_oracle_bitwise() {
        for seed in 0..4 {
            let d = random_dense(23, 0.25, seed);
            let s = SparseMatrix::from_dense(&d);
            let dense = d.walk_series(6, 1e-12);
            let sparse = s.walk_series(6, 1e-12).to_dense();
            for i in 0..23 {
                for j in 0..23 {
                    assert_eq!(
                        dense[(i, j)].to_bits(),
                        sparse.get(i, j).unwrap().to_bits(),
                        "seed {seed} entry ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn walk_series_is_thread_count_independent() {
        let d = random_dense(31, 0.2, 11);
        let s = SparseMatrix::from_dense(&d);
        let one = s.walk_series_threads(5, 1e-12, 1);
        let four = s.walk_series_threads(5, 1e-12, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn walk_row_matches_the_full_series_without_truncation() {
        let d = random_dense(19, 0.3, 3);
        let s = SparseMatrix::from_dense(&d);
        let full = s.walk_series(5, 0.0);
        for i in 0..19 {
            let row = s.walk_row(i, 5, 0.0);
            let (cols, vals) = full.row(i);
            let expect: Vec<(usize, f64)> =
                cols.iter().copied().zip(vals.iter().copied()).collect();
            assert_eq!(row, expect, "row {i}");
        }
    }

    #[test]
    fn top_k_from_agrees_with_a_full_sort() {
        let d = random_dense(19, 0.3, 5);
        let s = SparseMatrix::from_dense(&d);
        let top = s.top_k_from(2, 4, 5, 0.0);
        let mut all = s.walk_row(2, 5, 0.0);
        all.retain(|&(j, _)| j != 2);
        sort_desc_by_value(&mut all);
        all.truncate(4);
        assert_eq!(top, all);
    }

    #[test]
    fn components_come_back_in_reverse_topological_order() {
        // 0 <-> 1 cycle feeding the 2 -> 3 chain.
        let m =
            SparseMatrix::from_triples(4, 4, [(0, 1, 0.5), (1, 0, 0.5), (1, 2, 0.3), (2, 3, 0.2)]);
        let comps = m.components();
        assert_eq!(comps.len(), 3);
        // The sink singleton {3} first, the source cycle {0, 1} last.
        assert_eq!(comps[0], vec![3]);
        let mut last = comps[2].clone();
        last.sort_unstable();
        assert_eq!(last, vec![0, 1]);
    }

    #[test]
    fn empty_and_zero_order_series_are_empty() {
        let m = SparseMatrix::empty(0, 0);
        assert_eq!(m.walk_series(4, 1e-12).nnz(), 0);
        let m = SparseMatrix::from_triples(3, 3, [(0, 1, 0.5)]);
        assert_eq!(m.walk_series(0, 1e-12).nnz(), 0);
        assert_eq!(m.density(), 1.0 / 9.0);
    }

    #[test]
    fn push_then_pop_and_shrink_round_trip() {
        let m = SparseMatrix::from_triples(3, 3, [(0, 1, 0.5), (2, 0, 0.25)]);
        let mut g = m.clone();
        g.push_row_col(&[], &[]);
        assert_eq!((g.rows(), g.cols()), (4, 4));
        assert_eq!(g.get(3, 0), Some(0.0));
        assert_eq!(g.get(0, 1), Some(0.5));
        assert_eq!(g.shrink_row_col(3), m);
        g.pop_row_col();
        assert_eq!(g, m);
        // A spliced row and column land where the triples put them.
        let mut p = m.clone();
        p.push_row_col(&[(0, 0.125), (2, 0.0)], &[(0, 0.75), (1, 0.0), (2, 0.5)]);
        let want = SparseMatrix::from_triples(
            4,
            4,
            [
                (0, 1, 0.5),
                (0, 3, 0.75),
                (2, 0, 0.25),
                (2, 3, 0.5),
                (3, 0, 0.125),
            ],
        );
        assert_eq!(p, want);
        p.pop_row_col();
        assert_eq!(p, m);
        // Shrinking an interior index shifts later nodes down.
        let s = m.shrink_row_col(1);
        assert_eq!((s.rows(), s.nnz()), (2, 1));
        assert_eq!(s.get(1, 0), Some(0.25)); // old (2, 0)
    }

    #[test]
    fn set_row_col_matches_the_dense_assignment_loop() {
        let d = random_dense(13, 0.4, 9);
        let mut s = SparseMatrix::from_dense(&d);
        let (n, gi) = (13, 4);
        let mut rng = Rng::seed_from_u64(10);
        let pick = |rng: &mut Rng, j: usize| {
            if j == gi || j.is_multiple_of(3) {
                0.0
            } else {
                rng.gen_range(0.0..1.0)
            }
        };
        let row: Vec<f64> = (0..n).map(|j| pick(&mut rng, j)).collect();
        let col: Vec<f64> = (0..n).map(|j| pick(&mut rng, j)).collect();
        s.set_row_col(gi, &row, &col);
        let mut expect = d.clone();
        for t in 0..n {
            expect[(gi, t)] = row[t];
            expect[(t, gi)] = col[t];
        }
        assert_eq!(s.to_dense(), expect);
    }

    #[test]
    fn permuted_relabels_entries() {
        let m = SparseMatrix::from_triples(3, 3, [(0, 1, 0.5), (1, 2, 0.25)]);
        // new 0 <- old 2, new 1 <- old 0, new 2 <- old 1
        let p = m.permuted(&[2, 0, 1]);
        assert_eq!(p.get(1, 2), Some(0.5)); // old (0, 1)
        assert_eq!(p.get(2, 0), Some(0.25)); // old (1, 2)
        assert_eq!(p.nnz(), 2);
    }

    #[test]
    fn truncation_tests_the_power_term_like_the_dense_kernel() {
        // 0 -> 1 -> 2 chain: P² has one entry 0.25·0.25 = 0.0625, P³ is
        // zero. With ε above 0.0625 the series truncates after P¹ on
        // both representations.
        let d = Matrix::from_rows(3, 3, &[0.0, 0.25, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0]);
        let s = SparseMatrix::from_dense(&d);
        for &eps in &[0.1, 0.01, 1e-15] {
            let dense = d.walk_series(8, eps);
            let sparse = s.walk_series(8, eps).to_dense();
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(
                        dense[(i, j)].to_bits(),
                        sparse.get(i, j).unwrap().to_bits(),
                        "eps {eps} entry ({i}, {j})"
                    );
                }
            }
        }
    }
}
