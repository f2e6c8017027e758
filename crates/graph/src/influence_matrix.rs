//! Storage-polymorphic influence matrices: one value type over the
//! dense [`Matrix`] oracle and the CSR [`SparseMatrix`] engine.
//!
//! Every layer above `fcm-graph` (separation analysis, the condense
//! pipeline, the checker, the serve daemon) holds an
//! [`InfluenceMatrix`] and lets this module pick the representation.
//! The two representations are interchangeable by construction — the
//! sparse kernels are bitwise equal to the dense ones wherever both run
//! (see the [`sparse`](crate::sparse) module docs for the argument) —
//! so selection is purely a performance policy, never a semantics
//! switch.
//!
//! # Representation-selection policy
//!
//! [`prefer_sparse`] chooses CSR when
//!
//! * `n ≥ 512` (dense storage alone is ≥ 2 MiB and the cubic walk
//!   series stops being interactive), or
//! * `n ≥ 64` and density ≤ 5% (the CSR row kernels already win, and
//!   below 64 nodes nothing is worth the indirection).
//!
//! [`InfluenceMatrix::rebalance`] re-applies the policy after shape or
//! density changes (the serve admit/retire path); conversions preserve
//! every value bitwise, so a rebalance is never observable in results.

use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use crate::DiGraph;
use fcm_substrate::Json;

/// Node count at which CSR is always selected.
pub const SPARSE_N_THRESHOLD: usize = 512;
/// Node count below which dense is always selected.
pub const SPARSE_MIN_N: usize = 64;
/// Maximum density for CSR selection in the mid range.
pub const SPARSE_MAX_DENSITY: f64 = 0.05;

/// The representation-selection policy (module docs).
#[must_use]
pub fn prefer_sparse(n: usize, density: f64) -> bool {
    n >= SPARSE_N_THRESHOLD || (n >= SPARSE_MIN_N && density <= SPARSE_MAX_DENSITY)
}

/// FNV-1a hashing helpers shared by [`InfluenceMatrix::row_hash`] and the
/// checker's contract fingerprints. Deterministic, allocation-free, and
/// stable across platforms (pure 64-bit integer arithmetic).
pub mod fnv {
    /// The FNV-1a 64-bit offset basis (the hash of an empty input).
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Folds one byte into the running hash.
    #[must_use]
    pub fn byte(h: u64, b: u8) -> u64 {
        (h ^ u64::from(b)).wrapping_mul(PRIME)
    }

    /// Folds a 64-bit word into the running hash, little-endian.
    #[must_use]
    pub fn word(mut h: u64, w: u64) -> u64 {
        for b in w.to_le_bytes() {
            h = byte(h, b);
        }
        h
    }

    /// Folds an `f64` into the running hash by its exact bit pattern.
    #[must_use]
    pub fn value(h: u64, v: f64) -> u64 {
        word(h, v.to_bits())
    }

    /// Folds a string into the running hash (length-prefixed so that
    /// adjacent fields cannot alias).
    #[must_use]
    pub fn text(mut h: u64, s: &str) -> u64 {
        h = word(h, s.len() as u64);
        for b in s.bytes() {
            h = byte(h, b);
        }
        h
    }

    /// Folds one `(column, value)` matrix entry into the running hash.
    #[must_use]
    pub fn entry(h: u64, col: usize, v: f64) -> u64 {
        value(word(h, col as u64), v)
    }
}

/// An influence matrix in whichever representation suits its size and
/// fill: dense row-major ([`Matrix`], the bitwise oracle) or CSR
/// ([`SparseMatrix`], the large-n engine).
///
/// # Example
///
/// ```
/// use fcm_graph::{InfluenceMatrix, Matrix};
///
/// let mut m = Matrix::zeros(3, 3);
/// m[(0, 1)] = 0.5;
/// m[(1, 2)] = 0.4;
/// let im = InfluenceMatrix::from_dense_auto(m);
/// assert_eq!(im.repr(), "dense"); // tiny, stays dense
/// assert_eq!(im[(0, 1)], 0.5);
/// assert!((im.transitive_influence(0, 2, 4) - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub enum InfluenceMatrix {
    /// Dense row-major storage — the small-n oracle.
    Dense(Matrix),
    /// Compressed sparse rows — the large-n engine.
    Sparse(SparseMatrix),
}

static ZERO: f64 = 0.0;

impl InfluenceMatrix {
    /// Wraps a dense matrix, then applies the selection policy (a
    /// sparse conversion preserves every value bitwise).
    #[must_use]
    pub fn from_dense_auto(m: Matrix) -> InfluenceMatrix {
        let mut im = InfluenceMatrix::Dense(m);
        im.rebalance();
        im
    }

    /// Builds the weight matrix of a graph under the selection policy,
    /// without materialising a dense matrix unless dense is chosen.
    /// Parallel edges sum in global edge order, exactly like
    /// [`Matrix::from_graph`].
    #[must_use]
    pub fn from_graph_auto<N, E: Copy + Into<f64>>(g: &DiGraph<N, E>) -> InfluenceMatrix {
        let s = SparseMatrix::from_graph(g);
        if prefer_sparse(s.rows(), s.density()) {
            InfluenceMatrix::Sparse(s)
        } else {
            InfluenceMatrix::Dense(s.to_dense())
        }
    }

    /// Re-applies the selection policy in place after a shape or
    /// density change. Returns `true` when the representation switched.
    pub fn rebalance(&mut self) -> bool {
        let want_sparse = prefer_sparse(self.rows(), self.density());
        match self {
            InfluenceMatrix::Dense(m) if want_sparse => {
                *self = InfluenceMatrix::Sparse(SparseMatrix::from_dense(m));
                true
            }
            InfluenceMatrix::Sparse(s) if !want_sparse => {
                *self = InfluenceMatrix::Dense(s.to_dense());
                true
            }
            _ => false,
        }
    }

    /// The representation's stable name: `"dense"` or `"csr"`.
    #[must_use]
    pub fn repr(&self) -> &'static str {
        match self {
            InfluenceMatrix::Dense(_) => "dense",
            InfluenceMatrix::Sparse(_) => "csr",
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            InfluenceMatrix::Dense(m) => m.rows(),
            InfluenceMatrix::Sparse(s) => s.rows(),
        }
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        match self {
            InfluenceMatrix::Dense(m) => m.cols(),
            InfluenceMatrix::Sparse(s) => s.cols(),
        }
    }

    /// Number of nonzero entries (counted for dense, stored for CSR —
    /// equal by the zero-pruning invariant).
    #[must_use]
    pub fn nnz(&self) -> usize {
        match self {
            InfluenceMatrix::Dense(m) => (0..m.rows())
                .map(|i| (0..m.cols()).filter(|&j| m[(i, j)] != 0.0).count())
                .sum(),
            InfluenceMatrix::Sparse(s) => s.nnz(),
        }
    }

    /// Fill ratio `nnz / (rows · cols)` (`0.0` for an empty shape).
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.rows() == 0 || self.cols() == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows() as f64 * self.cols() as f64)
        }
    }

    /// The entry at `(row, col)`, or `None` when out of bounds — the
    /// [`Matrix::get`] contract in both representations.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        match self {
            InfluenceMatrix::Dense(m) => m.get(row, col),
            InfluenceMatrix::Sparse(s) => s.get(row, col),
        }
    }

    /// A representation-independent fingerprint of one row: FNV-1a over
    /// the `(column, value bits)` pairs of the row's *nonzero* entries in
    /// ascending column order. Structural zeros are skipped in the dense
    /// arm, so by the zero-pruning invariant the hash of a row is
    /// bitwise-identical across `Dense` and `Sparse` representations —
    /// the property the incremental certifier's cache keying relies on.
    ///
    /// Rows out of bounds hash like empty rows (the FNV offset basis).
    #[must_use]
    pub fn row_hash(&self, row: usize) -> u64 {
        let mut h = fnv::OFFSET;
        match self {
            InfluenceMatrix::Dense(m) => {
                if row < m.rows() {
                    for col in 0..m.cols() {
                        let v = m[(row, col)];
                        if v != 0.0 {
                            h = fnv::entry(h, col, v);
                        }
                    }
                }
            }
            InfluenceMatrix::Sparse(s) => {
                if row < s.rows() {
                    let (cols, vals) = s.row(row);
                    for (&col, &v) in cols.iter().zip(vals) {
                        if v != 0.0 {
                            h = fnv::entry(h, col, v);
                        }
                    }
                }
            }
        }
        h
    }

    /// The dense matrix when this is the dense representation.
    #[must_use]
    pub fn as_dense(&self) -> Option<&Matrix> {
        match self {
            InfluenceMatrix::Dense(m) => Some(m),
            InfluenceMatrix::Sparse(_) => None,
        }
    }

    /// The CSR matrix when this is the sparse representation.
    #[must_use]
    pub fn as_sparse(&self) -> Option<&SparseMatrix> {
        match self {
            InfluenceMatrix::Dense(_) => None,
            InfluenceMatrix::Sparse(s) => Some(s),
        }
    }

    /// Materialises a dense copy (bitwise, regardless of
    /// representation).
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        match self {
            InfluenceMatrix::Dense(m) => m.clone(),
            InfluenceMatrix::Sparse(s) => s.to_dense(),
        }
    }

    /// Truncated walk series `Σ_{k=1..order} P^k` (paper Eq. 3) in the
    /// same representation: the dense oracle kernel or the SCC-sharded
    /// sparse engine — bitwise-equal results either way.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square.
    #[must_use]
    pub fn walk_series(&self, order: usize, epsilon: f64) -> InfluenceMatrix {
        match self {
            InfluenceMatrix::Dense(m) => InfluenceMatrix::Dense(m.walk_series(order, epsilon)),
            InfluenceMatrix::Sparse(s) => InfluenceMatrix::Sparse(s.walk_series(order, epsilon)),
        }
    }

    /// Row `from` of the walk series as sorted `(col, value)` pairs,
    /// with **row-local** ε-truncation (see [`SparseMatrix::walk_row`]).
    /// Both representations run the identical row kernel, so the result
    /// is bitwise representation-independent — the property the serve
    /// daemon's per-query path relies on.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or `from` is out of bounds.
    #[must_use]
    pub fn walk_row(&self, from: usize, order: usize, epsilon: f64) -> Vec<(usize, f64)> {
        match self {
            InfluenceMatrix::Dense(m) => SparseMatrix::from_dense(m).walk_row(from, order, epsilon),
            InfluenceMatrix::Sparse(s) => s.walk_row(from, order, epsilon),
        }
    }

    /// The walk-series entry for one node pair — Eq. 3's transitive
    /// influence, `1 − separation(from, to)` — via a single-row walk
    /// (ε = 1e-12, row-local), never the full n×n series.
    #[must_use]
    pub fn transitive_influence(&self, from: usize, to: usize, order: usize) -> f64 {
        self.walk_row(from, order, 1e-12)
            .iter()
            .find(|&&(j, _)| j == to)
            .map_or(0.0, |&(_, v)| v)
    }

    /// The `k` strongest transitive influences out of `from` (diagonal
    /// excluded), descending by value with ascending-column ties —
    /// guaranteed to agree with a full sort of the same walk row.
    #[must_use]
    pub fn top_k_influence(&self, from: usize, k: usize, order: usize) -> Vec<(usize, f64)> {
        match self {
            InfluenceMatrix::Dense(m) => {
                SparseMatrix::from_dense(m).top_k_from(from, k, order, 1e-12)
            }
            InfluenceMatrix::Sparse(s) => s.top_k_from(from, k, order, 1e-12),
        }
    }

    /// The `k` least-separated targets of `from`: separation is
    /// `1 − min(series, 1)`, monotone decreasing in influence, so the
    /// strongest influences are exactly the least-separated pairs.
    /// Returns `(node, separation)` ascending by separation.
    #[must_use]
    pub fn top_k_least_separated(&self, from: usize, k: usize, order: usize) -> Vec<(usize, f64)> {
        self.top_k_influence(from, k, order)
            .into_iter()
            .map(|(j, v)| (j, 1.0 - v.min(1.0)))
            .collect()
    }

    /// Appends row and column `n` in place (serve admit hook), keeping
    /// the representation; call [`rebalance`](Self::rebalance) after.
    /// `row` holds the new row's `(column, value)` entries and `col` the
    /// new column's `(row, value)` entries, each ascending and below
    /// `n`; both representations end up with identical values (CSR
    /// prunes the exact zeros).
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or an index is not below
    /// `n`.
    pub fn push_row_col(&mut self, row: &[(usize, f64)], col: &[(usize, f64)]) {
        match self {
            InfluenceMatrix::Dense(m) => {
                assert_eq!(m.rows(), m.cols(), "push_row_col needs a square matrix");
                let n = m.rows();
                m.grow_in_place();
                for &(j, v) in row {
                    assert!(j < n, "row index out of bounds");
                    m[(n, j)] = v;
                }
                for &(i, v) in col {
                    assert!(i < n, "column index out of bounds");
                    m[(i, n)] = v;
                }
            }
            InfluenceMatrix::Sparse(s) => s.push_row_col(row, col),
        }
    }

    /// Removes the last row and column in place — the undo of
    /// [`push_row_col`](Self::push_row_col), keeping the representation.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or empty.
    pub fn pop_row_col(&mut self) {
        match self {
            InfluenceMatrix::Dense(m) => {
                assert_eq!(m.rows(), m.cols(), "pop_row_col needs a square matrix");
                m.shrink_in_place();
            }
            InfluenceMatrix::Sparse(s) => s.pop_row_col(),
        }
    }

    /// Removes row and column `hi`, shifting later indices down (serve
    /// retire hook), keeping the representation.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or `hi` is out of bounds.
    #[must_use]
    pub fn shrink_row_col(&self, hi: usize) -> InfluenceMatrix {
        match self {
            InfluenceMatrix::Dense(m) => {
                let n = m.rows();
                assert!(hi < n, "shrink index out of bounds");
                let mut out = Matrix::zeros(n - 1, n - 1);
                for i in 0..n - 1 {
                    for j in 0..n - 1 {
                        let si = if i >= hi { i + 1 } else { i };
                        let sj = if j >= hi { j + 1 } else { j };
                        out[(i, j)] = m[(si, sj)];
                    }
                }
                InfluenceMatrix::Dense(out)
            }
            InfluenceMatrix::Sparse(s) => InfluenceMatrix::Sparse(s.shrink_row_col(hi)),
        }
    }

    /// Replaces row `gi` and column `gi` with dense slices (the Eq. 4
    /// row/column recombination hook). Both representations end up with
    /// identical values; CSR prunes the exact zeros.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or a slice length differs
    /// from `n`.
    pub fn set_row_col(&mut self, gi: usize, row: &[f64], col: &[f64]) {
        match self {
            InfluenceMatrix::Dense(m) => {
                let n = m.rows();
                assert!(gi < n && row.len() == n && col.len() == n);
                for t in 0..n {
                    m[(gi, t)] = row[t];
                }
                for (t, &v) in col.iter().enumerate() {
                    if t != gi {
                        m[(t, gi)] = v;
                    }
                }
            }
            InfluenceMatrix::Sparse(s) => s.set_row_col(gi, row, col),
        }
    }

    /// Applies a node relabelling: entry `(i, j)` of the result is
    /// entry `(map[i], map[j])` of `self`. Values carry bitwise.
    ///
    /// # Panics
    ///
    /// Panics when the matrix is not square or `map` is not a
    /// permutation of `0..n`.
    #[must_use]
    pub fn permuted(&self, map: &[usize]) -> InfluenceMatrix {
        match self {
            InfluenceMatrix::Dense(m) => {
                let n = m.rows();
                assert_eq!(map.len(), n, "map must cover every node");
                let mut out = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        out[(i, j)] = m[(map[i], map[j])];
                    }
                }
                InfluenceMatrix::Dense(out)
            }
            InfluenceMatrix::Sparse(s) => InfluenceMatrix::Sparse(s.permuted(map)),
        }
    }

    /// Serialises for snapshot state. Dense emits the legacy
    /// array-of-rows form byte-for-byte (older snapshots stay
    /// readable and dense state round-trips unchanged); CSR emits a
    /// `{"format":"csr",…}` object with the raw arrays.
    #[must_use]
    pub fn to_state_json(&self) -> Json {
        match self {
            InfluenceMatrix::Dense(m) => Json::array(
                (0..m.rows()).map(|i| Json::array((0..m.cols()).map(|j| Json::from(m[(i, j)])))),
            ),
            InfluenceMatrix::Sparse(s) => {
                let n = s.rows();
                let mut row_ptr = Vec::with_capacity(n + 1);
                let mut col_idx = Vec::with_capacity(s.nnz());
                let mut vals = Vec::with_capacity(s.nnz());
                row_ptr.push(0usize);
                for i in 0..n {
                    let (cols, v) = s.row(i);
                    col_idx.extend(cols.iter().map(|&c| c as u64));
                    vals.extend_from_slice(v);
                    row_ptr.push(col_idx.len());
                }
                Json::object()
                    .set("col_idx", Json::array(col_idx))
                    .set("cols", s.cols() as u64)
                    .set("format", "csr")
                    .set("row_ptr", Json::array(row_ptr.iter().map(|&p| p as u64)))
                    .set("rows", n as u64)
                    .set("vals", Json::array(vals.iter().copied()))
            }
        }
    }

    /// Parses either state form emitted by
    /// [`to_state_json`](Self::to_state_json): a dense array-of-rows or
    /// a `{"format":"csr",…}` object. Returns `None` on any malformed
    /// shape (ragged rows, non-numbers, inconsistent CSR arrays).
    #[must_use]
    pub fn from_state_json(j: &Json) -> Option<InfluenceMatrix> {
        if let Some(rows) = j.as_array() {
            let n = rows.len();
            let mut data = Vec::with_capacity(n * n);
            for row in rows {
                let cells = row.as_array()?;
                if cells.len() != n {
                    return None;
                }
                for cell in cells {
                    data.push(cell.as_f64()?);
                }
            }
            return Some(InfluenceMatrix::Dense(Matrix::from_rows(n, n, &data)));
        }
        if j.get("format")?.as_str()? != "csr" {
            return None;
        }
        let rows = usize_field(j, "rows")?;
        let cols = usize_field(j, "cols")?;
        let row_ptr: Vec<usize> = usize_array(j.get("row_ptr")?)?;
        let col_idx: Vec<usize> = usize_array(j.get("col_idx")?)?;
        let vals: Vec<f64> = j
            .get("vals")?
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?;
        if row_ptr.len() != rows + 1
            || row_ptr.first() != Some(&0)
            || row_ptr.last() != Some(&col_idx.len())
            || col_idx.len() != vals.len()
            || row_ptr.windows(2).any(|w| w[0] > w[1])
            || col_idx.iter().any(|&c| c >= cols)
        {
            return None;
        }
        let mut triples = Vec::with_capacity(vals.len());
        for r in 0..rows {
            for p in row_ptr[r]..row_ptr[r + 1] {
                triples.push((r, col_idx[p], vals[p]));
            }
        }
        Some(InfluenceMatrix::Sparse(SparseMatrix::from_triples(
            rows, cols, triples,
        )))
    }
}

fn usize_field(j: &Json, key: &str) -> Option<usize> {
    let v = j.get(key)?.as_f64()?;
    (v >= 0.0 && v.fract() == 0.0).then_some(v as usize)
}

fn usize_array(j: &Json) -> Option<Vec<usize>> {
    j.as_array()?
        .iter()
        .map(|v| {
            let v = v.as_f64()?;
            (v >= 0.0 && v.fract() == 0.0).then_some(v as usize)
        })
        .collect()
}

impl std::ops::Index<(usize, usize)> for InfluenceMatrix {
    type Output = f64;
    /// # Panics
    ///
    /// Panics when the index is out of bounds (structurally-zero CSR
    /// cells index fine and yield `0.0`).
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        match self {
            InfluenceMatrix::Dense(m) => &m[(r, c)],
            InfluenceMatrix::Sparse(s) => {
                assert!(r < s.rows() && c < s.cols(), "matrix index out of bounds");
                s.entry_ref(r, c).unwrap_or(&ZERO)
            }
        }
    }
}

/// Value equality across representations: same shape, same entries
/// (possible because both representations prune exact zeros).
impl PartialEq for InfluenceMatrix {
    fn eq(&self, other: &InfluenceMatrix) -> bool {
        match (self, other) {
            (InfluenceMatrix::Dense(a), InfluenceMatrix::Dense(b)) => a == b,
            (InfluenceMatrix::Sparse(a), InfluenceMatrix::Sparse(b)) => a == b,
            (InfluenceMatrix::Dense(d), InfluenceMatrix::Sparse(s))
            | (InfluenceMatrix::Sparse(s), InfluenceMatrix::Dense(d)) => sparse_eq_dense(s, d),
        }
    }
}

/// Value equality against a dense matrix (what analysis tests compare
/// incremental results to).
impl PartialEq<Matrix> for InfluenceMatrix {
    fn eq(&self, other: &Matrix) -> bool {
        match self {
            InfluenceMatrix::Dense(m) => m == other,
            InfluenceMatrix::Sparse(s) => sparse_eq_dense(s, other),
        }
    }
}

fn sparse_eq_dense(s: &SparseMatrix, d: &Matrix) -> bool {
    if s.rows() != d.rows() || s.cols() != d.cols() {
        return false;
    }
    (0..s.rows()).all(|i| {
        let (cols, vals) = s.row(i);
        let mut p = 0;
        (0..s.cols()).all(|j| {
            let want = if p < cols.len() && cols[p] == j {
                p += 1;
                vals[p - 1]
            } else {
                0.0
            };
            d[(i, j)] == want
        })
    })
}

impl fcm_substrate::ToJson for InfluenceMatrix {
    /// The dense [`Matrix` ToJson](Matrix#impl-ToJson-for-Matrix) form
    /// (`rows`/`cols`/`data`), regardless of representation — diagnostic
    /// consumers see one shape.
    fn to_json(&self) -> Json {
        fcm_substrate::ToJson::to_json(&self.to_dense())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Matrix {
        let mut m = Matrix::zeros(3, 3);
        m[(0, 1)] = 0.5;
        m[(1, 2)] = 0.4;
        m
    }

    #[test]
    fn policy_picks_csr_only_when_it_pays() {
        assert!(!prefer_sparse(3, 0.01));
        assert!(!prefer_sparse(63, 0.0));
        assert!(prefer_sparse(64, 0.05));
        assert!(!prefer_sparse(64, 0.051));
        assert!(prefer_sparse(512, 1.0));
        assert!(prefer_sparse(50_000, 0.9));
    }

    #[test]
    fn auto_selection_and_rebalance_preserve_values() {
        let dense_small = InfluenceMatrix::from_dense_auto(chain());
        assert_eq!(dense_small.repr(), "dense");
        let mut big = Matrix::zeros(600, 600);
        big[(0, 1)] = 0.5;
        let im = InfluenceMatrix::from_dense_auto(big.clone());
        assert_eq!(im.repr(), "csr");
        assert_eq!(im, big);
        assert_eq!(im.nnz(), 1);
        let mut back = im.clone();
        // Force-dense round trip: value equality across the switch.
        back = InfluenceMatrix::Dense(back.to_dense());
        assert_eq!(back, im);
    }

    #[test]
    fn index_and_get_agree_across_representations() {
        let d = InfluenceMatrix::Dense(chain());
        let s = InfluenceMatrix::Sparse(SparseMatrix::from_dense(&chain()));
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d[(i, j)], s[(i, j)]);
                assert_eq!(d.get(i, j), s.get(i, j));
            }
        }
        assert_eq!(s.get(3, 0), None);
        assert_eq!(d.nnz(), 2);
        assert_eq!(s.nnz(), 2);
        assert!((s.density() - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn walk_row_and_queries_are_representation_independent() {
        let d = InfluenceMatrix::Dense(chain());
        let s = InfluenceMatrix::Sparse(SparseMatrix::from_dense(&chain()));
        assert_eq!(d.walk_row(0, 4, 1e-12), s.walk_row(0, 4, 1e-12));
        assert_eq!(
            d.transitive_influence(0, 2, 4).to_bits(),
            s.transitive_influence(0, 2, 4).to_bits()
        );
        assert_eq!(d.top_k_influence(0, 2, 4), s.top_k_influence(0, 2, 4));
        let sep = d.top_k_least_separated(0, 2, 4);
        assert_eq!(sep[0].0, 1); // strongest influence ⇒ least separated
        assert!(sep[0].1 < sep[1].1 + 1e-15);
    }

    #[test]
    fn row_hash_is_representation_independent_and_value_sensitive() {
        let d = InfluenceMatrix::Dense(chain());
        let s = InfluenceMatrix::Sparse(SparseMatrix::from_dense(&chain()));
        for i in 0..3 {
            assert_eq!(d.row_hash(i), s.row_hash(i), "row {i}");
        }
        // An empty row hashes like an out-of-bounds row: the offset basis.
        assert_eq!(d.row_hash(2), fnv::OFFSET);
        assert_eq!(d.row_hash(99), fnv::OFFSET);
        // Any change to a row's values or structure changes its hash.
        let mut edited = chain();
        edited[(0, 1)] = 0.500001;
        assert_ne!(InfluenceMatrix::Dense(edited).row_hash(0), d.row_hash(0));
        let mut moved = chain();
        moved[(0, 1)] = 0.0;
        moved[(0, 2)] = 0.5;
        assert_ne!(InfluenceMatrix::Dense(moved).row_hash(0), d.row_hash(0));
    }

    #[test]
    fn mutation_hooks_match_across_representations() {
        let base = chain();
        let mut d = InfluenceMatrix::Dense(base.clone());
        let mut s = InfluenceMatrix::Sparse(SparseMatrix::from_dense(&base));
        d.push_row_col(&[(2, 0.5)], &[(0, 0.25), (1, 0.0)]);
        s.push_row_col(&[(2, 0.5)], &[(0, 0.25), (1, 0.0)]);
        assert_eq!(d, s);
        assert_eq!(
            (d.get(3, 2), d.get(0, 3), d.get(1, 3)),
            (Some(0.5), Some(0.25), Some(0.0))
        );
        d.pop_row_col();
        s.pop_row_col();
        assert_eq!(d, s);
        assert_eq!(d, InfluenceMatrix::Dense(base.clone()));
        d.push_row_col(&[], &[]);
        s.push_row_col(&[], &[]);
        assert_eq!(d, s);
        let row = [0.0, 0.1, 0.2, 0.0];
        let col = [0.3, 0.0, 0.4, 0.0];
        d.set_row_col(0, &row, &col);
        s.set_row_col(0, &row, &col);
        assert_eq!(d, s);
        assert_eq!(d.shrink_row_col(2), s.shrink_row_col(2));
        let map = [3usize, 1, 0, 2];
        assert_eq!(d.permuted(&map), s.permuted(&map));
    }

    #[test]
    fn state_json_round_trips_both_forms() {
        let d = InfluenceMatrix::Dense(chain());
        let dj = d.to_state_json();
        assert!(dj.as_array().is_some(), "dense stays the legacy array form");
        assert_eq!(InfluenceMatrix::from_state_json(&dj).unwrap(), d);

        let s = InfluenceMatrix::Sparse(SparseMatrix::from_dense(&chain()));
        let sj = s.to_state_json();
        assert_eq!(sj.get("format").and_then(Json::as_str), Some("csr"));
        let back = InfluenceMatrix::from_state_json(&sj).unwrap();
        assert_eq!(back.repr(), "csr");
        assert_eq!(back, s);

        assert!(InfluenceMatrix::from_state_json(&Json::from(1.5)).is_none());
        assert!(InfluenceMatrix::from_state_json(&Json::object().set("format", "coo")).is_none());
    }

    #[test]
    fn empty_state_round_trips() {
        let e = InfluenceMatrix::Dense(Matrix::zeros(0, 0));
        let j = e.to_state_json();
        let back = InfluenceMatrix::from_state_json(&j).unwrap();
        assert_eq!(back.rows(), 0);
        assert_eq!(e.density(), 0.0);
    }
}
