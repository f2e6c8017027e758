//! Large sparse fleet generator (the E15 sparse-engine experiment
//! input).
//!
//! Real integrations at fleet scale are sparse: tens of thousands of
//! FCMs, each influencing a handful of peers through shared services.
//! This generator models that shape directly as contiguous **service
//! blocks** of `hub_every` processes — inside a block, every process
//! reports to the block's hub and the block closes into an influence
//! ring (each block is one strongly connected component); hubs chain
//! forward block-to-block, and a seeded sprinkle of extra edges adds
//! short forward shortcuts. The strongly-connected-component
//! condensation is therefore a chain of blocks, reachability within a
//! truncated Eq. 3 walk stays local, and the CSR triples are emitted
//! without ever materialising an n×n matrix — a 50k-process fleet costs
//! O(nnz), not O(n²).
//!
//! Row sums are normalised to stay below [`SparseFleet::max_row_sum`]
//! (< 1), which guarantees the Eq. 3 walk series converges
//! geometrically ([`fcm_core::separation::SeparationAnalysis::series_converges`]
//! holds by construction).

use fcm_graph::{InfluenceMatrix, SparseMatrix};
use fcm_substrate::rng::Rng;

/// Parameters of the sparse fleet generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseFleet {
    /// Number of processes.
    pub processes: usize,
    /// Service-block size: one hub per contiguous block of this many
    /// processes (the hub is the block's first index).
    pub hub_every: usize,
    /// Expected random extra out-edges per process, on top of the
    /// block backbone. Extras jump forward by at most one block, so
    /// they never merge the per-block components.
    pub extra_edges_per_node: f64,
    /// Raw influence values are drawn uniformly from this range before
    /// row normalisation.
    pub influence_range: (f64, f64),
    /// Rows whose raw sum exceeds this are scaled down to it; keep it
    /// below 1 so the walk series always converges.
    pub max_row_sum: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SparseFleet {
    fn default() -> Self {
        SparseFleet {
            processes: 1024,
            hub_every: 64,
            extra_edges_per_node: 0.5,
            influence_range: (0.05, 0.7),
            max_row_sum: 0.9,
            seed: 7,
        }
    }
}

impl SparseFleet {
    /// Number of service blocks (= hubs) this configuration produces.
    #[must_use]
    pub fn hubs(&self) -> usize {
        self.processes.div_ceil(self.hub_every.max(1))
    }

    /// Builds the fleet's influence matrix in CSR form, deterministic
    /// in the seed. Duplicate extras collapse in
    /// [`SparseMatrix::from_triples`] by summation; the row-sum bound
    /// is enforced *after* building the matrix.
    #[must_use]
    pub fn matrix(&self) -> SparseMatrix {
        let n = self.processes;
        if n == 0 {
            return SparseMatrix::empty(0, 0);
        }
        let block = self.hub_every.max(1);
        let mut rng = Rng::seed_from_u64(self.seed);
        let (lo, hi) = self.influence_range;
        let lo = lo.max(1e-6);
        let hi = hi.min(1.0).max(lo);
        let draw = |rng: &mut Rng| if lo < hi { rng.gen_range(lo..hi) } else { lo };
        let mut triples: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..n {
            let start = i / block * block;
            let end = (start + block).min(n);
            // Ring successor inside the block: the wrap edge back to the
            // block start is what closes each block into one SCC.
            let succ = if i + 1 < end { i + 1 } else { start };
            if succ != i {
                triples.push((i, succ, draw(&mut rng)));
            }
            if i == start {
                // Hub → next block's hub: the condensation chain.
                if end < n {
                    triples.push((i, end, draw(&mut rng)));
                }
            } else {
                // Spoke → its hub.
                triples.push((i, start, draw(&mut rng)));
            }
        }
        // Seeded forward shortcuts, at most one block ahead — they add
        // local density without merging components.
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let extras = (n as f64 * self.extra_edges_per_node.max(0.0)) as usize;
        for _ in 0..extras {
            let from = rng.gen_range(0..n);
            let to = from + rng.gen_range(1..=block);
            if to < n {
                triples.push((from, to, draw(&mut rng)));
            }
        }
        let raw = SparseMatrix::from_triples(n, n, triples);
        normalize_rows(&raw, self.max_row_sum)
    }

    /// The fleet under the representation-selection policy — CSR for
    /// every configuration this generator is meant for (n ≥ 512 or
    /// density ≤ 5%), without a dense detour.
    #[must_use]
    pub fn influence(&self) -> InfluenceMatrix {
        let mut im = InfluenceMatrix::Sparse(self.matrix());
        im.rebalance();
        im
    }
}

/// Scales any row whose sum exceeds `max_row_sum` down to exactly that
/// bound (rows at or under the bound are kept bitwise as generated).
fn normalize_rows(m: &SparseMatrix, max_row_sum: f64) -> SparseMatrix {
    let mut triples: Vec<(usize, usize, f64)> = Vec::with_capacity(m.nnz());
    for i in 0..m.rows() {
        let (cols, vals) = m.row(i);
        let sum: f64 = vals.iter().sum();
        let scale = if sum > max_row_sum {
            max_row_sum / sum
        } else {
            1.0
        };
        for (&j, &v) in cols.iter().zip(vals) {
            triples.push((i, j, v * scale));
        }
    }
    SparseMatrix::from_triples(m.rows(), m.cols(), triples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let f = SparseFleet::default();
        assert_eq!(f.matrix(), f.matrix());
        let other = SparseFleet {
            seed: 8,
            ..SparseFleet::default()
        };
        assert_ne!(f.matrix(), other.matrix());
    }

    #[test]
    fn every_row_sum_stays_below_one() {
        let m = SparseFleet {
            processes: 2000,
            ..SparseFleet::default()
        }
        .matrix();
        for i in 0..m.rows() {
            let (_, vals) = m.row(i);
            let sum: f64 = vals.iter().sum();
            assert!(sum < 1.0, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn each_block_is_one_strongly_connected_component() {
        let f = SparseFleet {
            processes: 512,
            ..SparseFleet::default()
        };
        let comps = f.matrix().components();
        assert_eq!(comps.len(), f.hubs());
        for comp in &comps {
            assert_eq!(comp.len(), f.hub_every, "every block closes into one SCC");
        }
        // Reverse topological order: the last block (no outgoing chain
        // edge) condenses first.
        assert!(comps[0].contains(&(512 - 1)));
        assert!(comps.last().unwrap().contains(&0));
    }

    #[test]
    fn hubs_collect_their_block_fanin() {
        let f = SparseFleet {
            processes: 512,
            extra_edges_per_node: 0.0,
            ..SparseFleet::default()
        };
        let m = f.matrix();
        // Every non-hub spoke points at its hub: in-degree of column 0
        // is the block's spoke count plus the ring wrap edge.
        let fanin = m.entries().filter(|&(_, j, _)| j == 0).count();
        assert_eq!(
            fanin,
            f.hub_every - 1,
            "spokes 1..63 plus wrap, minus the double-counted pair"
        );
    }

    #[test]
    fn truncated_walk_reach_stays_local() {
        let m = SparseFleet {
            processes: 2048,
            ..SparseFleet::default()
        }
        .matrix();
        let series = m.walk_series(8, 1e-12);
        // Reach is bounded by the block structure: nowhere near n per row.
        assert!(series.nnz() < 200 * m.rows(), "series nnz {}", series.nnz());
        assert!(
            series.nnz() > m.nnz(),
            "the walk does extend the direct edges"
        );
    }

    #[test]
    fn fleet_is_sparse_and_policy_picks_csr() {
        let f = SparseFleet {
            processes: 1024,
            ..SparseFleet::default()
        };
        let im = f.influence();
        assert_eq!(im.repr(), "csr");
        assert!(im.density() < 0.05, "density {}", im.density());
        assert!(im.nnz() > 0);
    }

    #[test]
    fn ten_thousand_processes_build_quickly() {
        let m = SparseFleet {
            processes: 10_000,
            ..SparseFleet::default()
        }
        .matrix();
        assert_eq!(m.rows(), 10_000);
        // ~2 backbone edges per process + extras, far below dense n².
        assert!(m.nnz() > 10_000 && m.nnz() < 60_000, "nnz {}", m.nnz());
    }

    #[test]
    fn empty_and_tiny_fleets_are_well_formed() {
        assert_eq!(
            SparseFleet {
                processes: 0,
                ..SparseFleet::default()
            }
            .matrix()
            .rows(),
            0
        );
        let one = SparseFleet {
            processes: 1,
            ..SparseFleet::default()
        }
        .matrix();
        assert_eq!((one.rows(), one.nnz()), (1, 0));
    }
}
