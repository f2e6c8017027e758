//! The incremental [`Certifier`]: cached compositional certification.
//!
//! A full certification pass verifies every FCM's contract against its
//! matrix row (C017/C018/C020, O(degree) each, sharded over the
//! substrate pool) and then discharges the global obligations
//! (C019/C021/C022) from the per-FCM summaries. The certifier caches
//! each per-FCM verdict keyed by **(state hash, contract hash)** — the
//! state hash folds [`InfluenceMatrix::row_hash`], the FCM's name and
//! its criticality; the contract hash is [`Contract::fingerprint`] — so
//! after a single-FCM edit only the dirty rows are re-verified and the
//! global phase re-runs in O(n) float arithmetic: O(degree), not O(n²).
//!
//! # Determinism
//!
//! A cached verdict is only ever the bitwise-identical output of the
//! same pure per-FCM function, and the global phase is one fixed fold
//! over the verdict table, so an incremental pass produces a report and
//! bound bitwise-equal to a from-scratch pass
//! (`crates/check/tests/contract_props.rs` pins this over random
//! mutation sequences). The hidden-recompute ban is mechanical: srclint
//! rejects any call that rebuilds a global series on this path.

use std::collections::BTreeMap;

use fcm_core::separation::DEFAULT_ORDER;
use fcm_graph::{fnv, InfluenceMatrix};
use fcm_substrate::pool::{par_map_threads, worker_count};

use crate::contract::{
    cap_diags, certified_bound, convergence_diag, covers, floor_diag, guarantee_diag, missing_diag,
    rely_diags, row_sum, CertifiedBound, ContractSet,
};
use crate::diag::{Diagnostic, Report, Severity};

/// Everything a certification pass reads, borrowed from the caller.
/// `names[i]` and `crits[i]` describe the FCM behind matrix row `i`.
#[derive(Debug, Clone, Copy)]
pub struct CertView<'a> {
    /// Report/model name.
    pub model: &'a str,
    /// FCM names in matrix row order.
    pub names: &'a [String],
    /// Declared criticalities in matrix row order.
    pub crits: &'a [u32],
    /// The influence matrix (either representation).
    pub influence: &'a InfluenceMatrix,
    /// The contract set to certify against.
    pub contracts: &'a ContractSet,
}

/// Which FCMs may have changed since the previous pass.
#[derive(Debug, Clone, Copy)]
pub enum Dirty<'a> {
    /// Hash every row; reuse whatever verdicts still match. Required
    /// after any structural change (FCM added/removed/renamed).
    Full,
    /// Only these rows are re-hashed and re-verified; every other
    /// cached verdict is trusted as-is. The caller must list every FCM
    /// whose row, criticality or contract changed.
    Rows(&'a [usize]),
}

/// One cached per-FCM verdict.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    state_hash: u64,
    contract_hash: u64,
    row_sum: f64,
    diags: Vec<Diagnostic>,
}

/// Fingerprint of "no contract" — distinct from every real fingerprint
/// because [`Contract::fingerprint`] always folds a name.
///
/// [`Contract::fingerprint`]: crate::contract::Contract::fingerprint
const NO_CONTRACT: u64 = 0;

/// The result of one certification pass.
#[derive(Debug, Clone)]
pub struct Certification {
    /// Every finding, `(code, path, message)`-sorted like any report.
    pub report: Report,
    /// The contract-derived system bound (meaningful when `certified`).
    pub bound: CertifiedBound,
    /// Whether the set covers the model, converges, and nothing fails:
    /// the bound then holds on the real system.
    pub certified: bool,
    /// Per-FCM verdicts recomputed this pass (the dirty set size).
    pub verified: usize,
    /// Per-FCM verdicts served from cache.
    pub reused: usize,
}

/// The incremental certifier. Holds the verdict cache between passes;
/// everything in it is derived state, rebuildable from any
/// [`CertView`] — it is never serialized.
#[derive(Debug, Clone, Default)]
pub struct Certifier {
    verdicts: Vec<Verdict>,
    /// Name → row index, cached across passes (rebuilding it is the
    /// dominant O(n) cost at fleet scale) and invalidated by a
    /// fingerprint of the full name list — the index is a pure function
    /// of `view.names`, so reusing it preserves bitwise equivalence
    /// with a from-scratch pass.
    index: BTreeMap<String, usize>,
    names_fp: Option<u64>,
}

fn state_hash(name: &str, crit: u32, row: u64) -> u64 {
    fnv::word(
        fnv::word(fnv::text(fnv::OFFSET, name), u64::from(crit)),
        row,
    )
}

/// Order-sensitive fingerprint of the FCM name list (length markers
/// keep `["ab","c"]` distinct from `["a","bc"]`).
fn names_fingerprint(names: &[String]) -> u64 {
    names.iter().fold(fnv::OFFSET, |h, s| {
        fnv::word(fnv::text(h, s), s.len() as u64)
    })
}

/// Computes one per-FCM verdict: C017 + C018 + C020 (+ the C021
/// missing-contract warning) for row `i`. O(degree of i).
fn verify_one(
    view: &CertView,
    index: &BTreeMap<String, usize>,
    i: usize,
    hashes: (u64, u64),
) -> Verdict {
    let name = &view.names[i];
    let sum = row_sum(view.influence, i);
    let mut diags = Vec::new();
    match view.contracts.get(name) {
        Some(c) => {
            diags.extend(guarantee_diag(name, sum, c));
            diags.extend(cap_diags(name, i, view.influence, index, c));
            diags.extend(floor_diag(name, view.crits[i], c));
        }
        None => diags.push(missing_diag(name)),
    }
    Verdict {
        state_hash: hashes.0,
        contract_hash: hashes.1,
        row_sum: sum,
        diags,
    }
}

impl Certifier {
    /// A certifier with an empty cache.
    #[must_use]
    pub fn new() -> Certifier {
        Certifier::default()
    }

    /// Drops every cached verdict and the name index (the next pass
    /// re-verifies all FCMs).
    pub fn invalidate(&mut self) {
        self.verdicts.clear();
        self.index.clear();
        self.names_fp = None;
    }

    /// Runs one certification pass over `view`, re-verifying the FCMs
    /// `dirty` names (or all of them) and reusing cached verdicts for
    /// the rest, sharded over `threads` pool workers on the full path.
    ///
    /// Skipping the contracts entirely (an empty set on an empty name
    /// list) yields an empty, certified-by-vacuity report — the serve
    /// layer relies on this for models without contracts.
    pub fn certify(&mut self, view: &CertView, dirty: Dirty, threads: usize) -> Certification {
        let n = view.names.len();
        assert_eq!(view.crits.len(), n, "one criticality per FCM");
        let fp = names_fingerprint(view.names);
        if self.names_fp != Some(fp) {
            self.index = view
                .names
                .iter()
                .enumerate()
                .map(|(i, s)| (s.clone(), i))
                .collect();
            self.names_fp = Some(fp);
        }

        let structural = self.verdicts.len() != n;
        let rows: Vec<usize> = match dirty {
            Dirty::Full => (0..n).collect(),
            Dirty::Rows(_) if structural => (0..n).collect(),
            Dirty::Rows(r) => r.iter().copied().filter(|&i| i < n).collect(),
        };
        if structural {
            self.verdicts.clear();
        }

        let mut verified = 0;
        let (index, verdicts) = (&self.index, &self.verdicts);
        let fresh: Vec<(usize, Option<Verdict>)> = par_map_threads(&rows, threads, |&i| {
            let sh = state_hash(&view.names[i], view.crits[i], view.influence.row_hash(i));
            let ch = view
                .contracts
                .get(&view.names[i])
                .map_or(NO_CONTRACT, |c| c.fingerprint());
            let hit = verdicts
                .get(i)
                .is_some_and(|v| v.state_hash == sh && v.contract_hash == ch);
            (i, (!hit).then(|| verify_one(view, index, i, (sh, ch))))
        });
        for (i, verdict) in fresh {
            if let Some(v) = verdict {
                verified += 1;
                if i < self.verdicts.len() {
                    self.verdicts[i] = v;
                } else {
                    debug_assert_eq!(i, self.verdicts.len(), "rows fill in order on a full pass");
                    self.verdicts.push(v);
                }
            }
        }
        let reused = n - verified;

        // Global phase: one fixed fold over the verdict table and the
        // contract set — recomputed every pass, so incremental and
        // from-scratch certifications agree bitwise by construction.
        let mut report = Report::new(view.model);
        for v in &self.verdicts {
            report.diagnostics.extend(v.diags.iter().cloned());
        }
        let (dangling, names_resolved) = crate::contract::dangling_scan(index, view.contracts);
        report.diagnostics.extend(dangling);
        // Length-matched injection into the name set ⇒ bijection ⇒
        // exactly `covers(view.names, view.contracts)`, in O(n).
        let covered = view.contracts.len() == n && names_resolved;
        debug_assert_eq!(covered, covers(view.names, view.contracts));
        let bound = certified_bound(view.contracts, DEFAULT_ORDER);
        if covered {
            report.diagnostics.extend(rely_diags(view.contracts));
            report.diagnostics.extend(convergence_diag(&bound));
        }
        report.sort();
        let clean = !report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error);
        Certification {
            certified: covered && bound.converges && clean,
            report,
            bound,
            verified,
            reused,
        }
    }

    /// [`Certifier::certify`] with the default pool width — what the
    /// offline tools use; the serve layer passes 1 (it certifies inside
    /// its own writer thread).
    pub fn certify_pooled(&mut self, view: &CertView, dirty: Dirty) -> Certification {
        self.certify(view, dirty, worker_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{synthesize, Contract};
    use fcm_graph::Matrix;

    fn fixture() -> (Vec<String>, Vec<u32>, InfluenceMatrix) {
        let mut m = Matrix::zeros(3, 3);
        m[(0, 1)] = 0.3;
        m[(1, 2)] = 0.2;
        m[(2, 0)] = 0.1;
        let names = ["a", "b", "c"].map(String::from).to_vec();
        (names, vec![5, 4, 3], InfluenceMatrix::Dense(m))
    }

    #[test]
    fn synthesized_contracts_certify_and_cache_hits_accumulate() {
        let (names, crits, influence) = fixture();
        let contracts = synthesize(&names, &crits, &influence);
        let view = CertView {
            model: "t",
            names: &names,
            crits: &crits,
            influence: &influence,
            contracts: &contracts,
        };
        let mut cert = Certifier::new();
        let first = cert.certify(&view, Dirty::Full, 1);
        assert!(first.certified, "{}", first.report.render());
        assert_eq!((first.verified, first.reused), (3, 0));
        let second = cert.certify(&view, Dirty::Full, 1);
        assert_eq!((second.verified, second.reused), (0, 3));
        assert_eq!(second.report.render(), first.report.render());
        let third = cert.certify(&view, Dirty::Rows(&[1]), 1);
        assert_eq!((third.verified, third.reused), (0, 3));
    }

    #[test]
    fn dirty_row_reverifies_and_matches_from_scratch() {
        let (names, crits, mut influence) = fixture();
        let contracts = synthesize(&names, &crits, &influence);
        let mut warm = Certifier::new();
        warm.certify(
            &CertView {
                model: "t",
                names: &names,
                crits: &crits,
                influence: &influence,
                contracts: &contracts,
            },
            Dirty::Full,
            1,
        );
        // Push row 0 past its guarantee.
        influence.set_row_col(0, &[0.0, 0.9, 0.4], &[0.0, 0.0, 0.1]);
        let view = CertView {
            model: "t",
            names: &names,
            crits: &crits,
            influence: &influence,
            contracts: &contracts,
        };
        let inc = warm.certify(&view, Dirty::Rows(&[0]), 1);
        assert_eq!(inc.verified, 1, "only the dirty row is re-verified");
        assert!(!inc.certified);
        let scratch = Certifier::new().certify(&view, Dirty::Full, 4);
        assert_eq!(inc.report.render(), scratch.report.render());
        assert_eq!(
            inc.bound.influence_bound.to_bits(),
            scratch.bound.influence_bound.to_bits()
        );
        assert!(inc.report.render().contains("C017"));
    }

    #[test]
    fn partial_coverage_warns_but_does_not_certify_or_block() {
        let (names, crits, influence) = fixture();
        let mut contracts = ContractSet::new();
        contracts.insert(Contract::new("a", 0.5, 1.0, 1));
        let view = CertView {
            model: "t",
            names: &names,
            crits: &crits,
            influence: &influence,
            contracts: &contracts,
        };
        let out = Certifier::new().certify(&view, Dirty::Full, 1);
        assert!(!out.certified);
        assert!(!out.report.has_errors(), "{}", out.report.render());
        assert_eq!(
            out.report.count(Severity::Warn),
            2,
            "{}",
            out.report.render()
        );
    }
}
