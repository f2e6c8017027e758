//! The incremental [`Certifier`]: cached compositional certification.
//!
//! A full certification pass verifies every FCM's contract against its
//! matrix row (C017/C018/C020, O(degree) each, sharded over the
//! substrate pool) and then discharges the global obligations
//! (C019/C021/C022) from the per-FCM summaries. The certifier caches
//! each per-FCM verdict keyed by **(state hash, contract hash)** — the
//! state hash folds [`InfluenceMatrix::row_hash`], the FCM's name and
//! its criticality; the contract hash is [`Contract::fingerprint`] — so
//! after a single-FCM edit only the dirty rows are re-verified.
//!
//! Structural edits are explicit: [`Certifier::insert_row`] and
//! [`Certifier::remove_row`] keep the cache aligned with the matrix
//! rows, so adding or removing an FCM re-verifies only the rows it
//! touched. The global phase runs on running aggregates — the verdicts'
//! findings in report order with their error count, the contracts and
//! caps naming absent FCMs, and a multiset of guarantees for the max —
//! which a verdict or contract change updates in O(log n). Only C019's
//! rely fold stays O(n), and it runs only when the set covers the
//! model. A local edit is discharged locally because a rely is checked
//! against the other contracts' guarantees, never against the matrix.
//!
//! # Determinism
//!
//! A cached verdict is only ever the bitwise-identical output of the
//! same pure per-FCM function, and every aggregate is an exact function
//! of the verdicts and the contract set (integer counts, ordered sets
//! and a max), so an incremental pass produces a report and bound
//! bitwise-equal to a from-scratch pass (`crates/check/tests/
//! contract_props.rs` pins this over random row, insert and remove
//! sequences). The hidden-recompute ban is mechanical: srclint rejects
//! any call that rebuilds a global series on this path.
//!
//! [`Contract::fingerprint`]: crate::contract::Contract::fingerprint

use std::collections::{BTreeMap, BTreeSet};

use fcm_core::separation::DEFAULT_ORDER;
use fcm_graph::{fnv, InfluenceMatrix};
use fcm_substrate::pool::{par_map_threads, worker_count};

use crate::contract::{
    absent_cap_diag, absent_fcm_diag, bound_from_max, cap_diags, certified_bound, convergence_diag,
    covers, floor_diag, guarantee_diag, guarantee_well_formed, missing_diag, rely_diags, row_sum,
    CertifiedBound, Contract, ContractSet,
};
use crate::diag::{Code, Diagnostic, Report, Severity};

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
    /// Hash every row; reuse whatever verdicts still match. Needed when
    /// the caller cannot say what changed — a renamed FCM, or rows added
    /// or removed without [`Certifier::insert_row`] /
    /// [`Certifier::remove_row`] (a pass whose row count disagrees with
    /// the cache falls back to this on its own).
    Full,
    /// Only these rows are re-hashed and re-verified (plus any row an
    /// insert or remove edit left pending); every other cached verdict
    /// is trusted as-is. The caller must list every FCM whose row,
    /// criticality or contract changed.
    Rows(&'a [usize]),
}

/// One cached per-FCM verdict.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    state_hash: u64,
    contract_hash: u64,
    diags: Vec<Diagnostic>,
}

/// Fingerprint of "no contract" — distinct from every real fingerprint
/// because [`Contract::fingerprint`] always folds a name.
///
/// [`Contract::fingerprint`]: crate::contract::Contract::fingerprint
const NO_CONTRACT: u64 = 0;

/// What the global phase knows of one contract: its fingerprint, its
/// guarantee and the FCMs its caps name.
#[derive(Debug, Clone, PartialEq)]
struct Held {
    fingerprint: u64,
    guarantee: f64,
    caps: Vec<String>,
}

impl Held {
    fn of(c: &Contract, fingerprint: u64) -> Held {
        Held {
            fingerprint,
            guarantee: c.guarantee,
            caps: c.caps.iter().map(|(t, _)| t.clone()).collect(),
        }
    }
}

/// One matrix row's cache entry.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// `None` until the row is first verified.
    verdict: Option<Verdict>,
    /// The contract the aggregates hold for this FCM.
    contract: Option<Held>,
}

/// A finding's report sort key.
type DiagKey = (Code, String, String);

/// A multiset of findings in report order, with its `Error` count.
#[derive(Debug, Clone, Default)]
struct Findings {
    counted: BTreeMap<DiagKey, (Severity, usize)>,
    errors: usize,
}

impl Findings {
    fn add(&mut self, diags: &[Diagnostic]) {
        for d in diags {
            self.counted.entry(key_of(d)).or_insert((d.severity, 0)).1 += 1;
            self.errors += usize::from(d.severity == Severity::Error);
        }
    }

    fn remove(&mut self, diags: &[Diagnostic]) {
        for d in diags {
            let key = key_of(d);
            let entry = self.counted.get_mut(&key).expect("finding was added");
            entry.1 -= 1;
            if entry.1 == 0 {
                self.counted.remove(&key);
            }
            self.errors -= usize::from(d.severity == Severity::Error);
        }
    }

    fn diagnostics(&self) -> impl Iterator<Item = Diagnostic> + '_ {
        self.counted
            .iter()
            .flat_map(|((code, path, message), &(severity, count))| {
                std::iter::repeat_n((code, path, message, severity), count)
            })
            .map(|(code, path, message, severity)| {
                Diagnostic::new(*code, severity, path.clone(), message.clone())
            })
    }
}

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

/// The incremental certifier. Holds the verdict cache and the global
/// aggregates between passes; everything in it is derived state,
/// rebuildable from any [`CertView`] — it is never serialized.
#[derive(Debug, Clone, Default)]
pub struct Certifier {
    /// One slot per matrix row.
    slots: Vec<Slot>,
    /// Name → row index: rebuilt by a full pass, kept current by the
    /// row edits.
    index: BTreeMap<String, usize>,
    /// Whether a pass has run since the cache was created; a cold cache
    /// ignores row edits and its next pass is a full one.
    warm: bool,
    /// Rows an edit left to verify: every pass verifies them.
    pending: Vec<usize>,
    /// Names whose contract the next pass must re-read: FCMs removed
    /// since the last pass, whose contract may have left with them.
    recheck: Vec<String>,
    /// The verdicts' findings.
    findings: Findings,
    /// Contracts naming an FCM absent from the index.
    absent: BTreeMap<String, Held>,
    /// `(target, contract FCM)` for every cap of every held contract.
    cap_refs: BTreeSet<(String, String)>,
    /// `(contract FCM, target)` for every cap naming an absent FCM.
    absent_caps: BTreeSet<(String, String)>,
    /// Held guarantees other than NaN, by [`order_key`], counted.
    guarantees: BTreeMap<u64, usize>,
    /// Held guarantees that are not [`guarantee_well_formed`].
    ill_formed: usize,
    /// Held contracts: how many, and their fingerprints' wrapping sum.
    held: (usize, u64),
}

fn state_hash(name: &str, crit: u32, row: u64) -> u64 {
    fnv::word(
        fnv::word(fnv::text(fnv::OFFSET, name), u64::from(crit)),
        row,
    )
}

/// Maps an `f64` to a `u64` whose unsigned order is the float's total
/// order.
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

fn from_order_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

fn key_of(d: &Diagnostic) -> DiagKey {
    (d.code, d.path.clone(), d.message.clone())
}

/// Computes one per-FCM verdict: C017 + C018 + C020 (+ the C021
/// missing-contract warning) for row `i` under `contract`. O(degree of
/// i).
fn verify_one(
    view: &CertView,
    index: &BTreeMap<String, usize>,
    i: usize,
    contract: Option<&Contract>,
    hashes: (u64, u64),
) -> Verdict {
    let name = &view.names[i];
    let mut diags = Vec::new();
    match contract {
        Some(c) => {
            diags.extend(guarantee_diag(name, row_sum(view.influence, i), c));
            diags.extend(cap_diags(name, i, view.influence, index, c));
            diags.extend(floor_diag(name, view.crits[i], c));
        }
        None => diags.push(missing_diag(name)),
    }
    Verdict {
        state_hash: hashes.0,
        contract_hash: hashes.1,
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
        *self = Certifier::default();
    }

    /// Inserts row `i` for the FCM `name`, shifting later rows down —
    /// the cache side of adding an FCM. The next pass verifies the new
    /// row and the rows whose caps name `name` whatever it lists; the
    /// caller lists the rows whose matrix row changed (the new FCM's
    /// in-edge sources). O(log n) for an append, O(n) otherwise. A cold
    /// cache ignores the edit: its next pass is a full one.
    ///
    /// # Panics
    ///
    /// When `i` is past the last row.
    pub fn insert_row(&mut self, i: usize, name: &str) {
        if !self.warm {
            return;
        }
        assert!(i <= self.slots.len(), "insert_row past the last row");
        if i < self.slots.len() {
            for row in self.index.values_mut().chain(&mut self.pending) {
                *row += usize::from(*row >= i);
            }
        }
        self.slots.insert(
            i,
            Slot {
                verdict: None,
                contract: self.absent.remove(name),
            },
        );
        self.index.insert(name.to_string(), i);
        self.pending.push(i);
        // Caps naming the FCM resolve now.
        for (_, fcm) in refs_to(&self.cap_refs, name) {
            self.absent_caps.remove(&(fcm.clone(), name.to_string()));
            if let Some(&row) = self.index.get(&fcm) {
                self.pending.push(row);
            }
        }
    }

    /// Removes row `i`, shifting later rows up — the cache side of
    /// removing an FCM. The FCM's contract is re-read by the next pass
    /// (it may have left with the FCM, or now names an absent FCM), and
    /// the rows whose caps named it are re-verified; the caller lists
    /// the rows whose matrix row changed (the removed FCM's in-edge
    /// sources, by their new index). O(n). A cold cache ignores the
    /// edit.
    ///
    /// # Panics
    ///
    /// When `i` is not a row.
    pub fn remove_row(&mut self, i: usize) {
        if !self.warm {
            return;
        }
        let slot = self.slots.remove(i);
        if let Some(v) = &slot.verdict {
            self.findings.remove(&v.diags);
        }
        let name = self
            .index
            .iter()
            .find(|&(_, &row)| row == i)
            .map(|(name, _)| name.clone())
            .expect("every row is indexed");
        self.index.remove(&name);
        self.pending.retain(|&r| r != i);
        for row in self.index.values_mut().chain(&mut self.pending) {
            *row -= usize::from(*row > i);
        }
        if let Some(held) = slot.contract {
            self.absent.insert(name.clone(), held);
        }
        for (_, fcm) in refs_to(&self.cap_refs, &name) {
            self.absent_caps.insert((fcm.clone(), name.clone()));
            if let Some(&row) = self.index.get(&fcm) {
                self.pending.push(row);
            }
        }
        self.recheck.push(name);
    }

    /// Runs one certification pass over `view`, re-verifying the FCMs
    /// `dirty` names (or all of them) and reusing cached verdicts for
    /// the rest, sharded over `threads` pool workers.
    ///
    /// Skipping the contracts entirely (an empty set on an empty name
    /// list) yields an empty, certified-by-vacuity report — the serve
    /// layer relies on this for models without contracts.
    pub fn certify(&mut self, view: &CertView, dirty: Dirty, threads: usize) -> Certification {
        let n = view.names.len();
        assert_eq!(view.crits.len(), n, "one criticality per FCM");
        let verified = match dirty {
            Dirty::Rows(rows) if self.warm && self.slots.len() == n => {
                self.pass_rows(view, rows, threads)
            }
            _ => self.pass_full(view, threads),
        };
        self.assemble(view, verified)
    }

    /// [`Certifier::certify`] with the default pool width — what the
    /// offline tools use; the serve layer passes 1 (it certifies inside
    /// its own writer thread).
    pub fn certify_pooled(&mut self, view: &CertView, dirty: Dirty) -> Certification {
        self.certify(view, dirty, worker_count())
    }

    /// Re-verifies every row and rebuilds every aggregate.
    fn pass_full(&mut self, view: &CertView, threads: usize) -> usize {
        let n = view.names.len();
        self.index = view
            .names
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i))
            .collect();
        self.warm = true;
        self.slots.resize_with(n, Slot::default);
        self.pending.clear();
        self.recheck.clear();
        let rows: Vec<usize> = (0..n).collect();
        self.findings = Findings::default();
        let verified = self.verify_rows(view, &rows, threads, false);
        for slot in &self.slots {
            self.findings
                .add(&slot.verdict.as_ref().expect("every row verified").diags);
        }
        self.resync_contracts(view.contracts);
        verified
    }

    /// Re-verifies the listed and pending rows and updates the
    /// aggregates they touch.
    fn pass_rows(&mut self, view: &CertView, listed: &[usize], threads: usize) -> usize {
        let n = view.names.len();
        let mut rows: Vec<usize> = listed.iter().copied().filter(|&i| i < n).collect();
        rows.append(&mut self.pending);
        for name in std::mem::take(&mut self.recheck) {
            match self.index.get(&name) {
                Some(&row) => rows.push(row),
                None => self.update_contract(&name, None, view.contracts.get_fingerprinted(&name)),
            }
        }
        rows.sort_unstable();
        rows.dedup();
        for &i in &rows {
            let now = view.contracts.get_fingerprinted(&view.names[i]);
            self.update_contract(&view.names[i], Some(i), now);
        }
        let verified = self.verify_rows(view, &rows, threads, true);
        if self.held != (view.contracts.len(), view.contracts.fingerprint_sum()) {
            // The set changed beyond the rows listed (a contract for an
            // absent FCM came or went): re-read it whole.
            self.resync_contracts(view.contracts);
        }
        verified
    }

    /// Verifies `rows` against the cache, replacing stale verdicts (and
    /// their findings, when `track`); returns how many were recomputed.
    fn verify_rows(
        &mut self,
        view: &CertView,
        rows: &[usize],
        threads: usize,
        track: bool,
    ) -> usize {
        let (index, slots) = (&self.index, &self.slots);
        let fresh: Vec<(usize, Option<Verdict>)> = par_map_threads(rows, threads, |&i| {
            let sh = state_hash(&view.names[i], view.crits[i], view.influence.row_hash(i));
            let contract = view.contracts.get_fingerprinted(&view.names[i]);
            let ch = contract.map_or(NO_CONTRACT, |(_, fp)| fp);
            let hit = slots[i]
                .verdict
                .as_ref()
                .is_some_and(|v| v.state_hash == sh && v.contract_hash == ch);
            (
                i,
                (!hit).then(|| verify_one(view, index, i, contract.map(|(c, _)| c), (sh, ch))),
            )
        });
        let mut verified = 0;
        for (i, verdict) in fresh {
            if let Some(v) = verdict {
                verified += 1;
                if track {
                    if let Some(old) = &self.slots[i].verdict {
                        self.findings.remove(&old.diags);
                    }
                    self.findings.add(&v.diags);
                }
                self.slots[i].verdict = Some(v);
            }
        }
        verified
    }

    /// Moves the aggregates from the contract they hold for `name` to
    /// `now`. `row` is the FCM's row, `None` when it is not in the model.
    fn update_contract(&mut self, name: &str, row: Option<usize>, now: Option<(&Contract, u64)>) {
        let held = match row {
            Some(i) => self.slots[i].contract.as_ref(),
            None => self.absent.get(name),
        };
        if held.map(|h| h.fingerprint) == now.map(|(_, fp)| fp) {
            return;
        }
        let old = match row {
            Some(i) => self.slots[i].contract.take(),
            None => self.absent.remove(name),
        };
        if let Some(old) = old {
            self.release(name, &old);
        }
        if let Some((c, fp)) = now {
            let held = Held::of(c, fp);
            self.hold(name, &held);
            match row {
                Some(i) => self.slots[i].contract = Some(held),
                None => {
                    self.absent.insert(name.to_string(), held);
                }
            }
        }
    }

    /// Adds one contract of FCM `name` to the aggregates (not to a slot
    /// or to `absent`: the caller stores it).
    fn hold(&mut self, name: &str, c: &Held) {
        if !c.guarantee.is_nan() {
            *self.guarantees.entry(order_key(c.guarantee)).or_insert(0) += 1;
        }
        self.hold_uncounted(name, c);
    }

    /// [`Certifier::hold`] but for the guarantee multiset.
    fn hold_uncounted(&mut self, name: &str, c: &Held) {
        self.held = (self.held.0 + 1, self.held.1.wrapping_add(c.fingerprint));
        self.ill_formed += usize::from(!guarantee_well_formed(c.guarantee));
        for t in &c.caps {
            self.cap_refs.insert((t.clone(), name.to_string()));
            if !self.index.contains_key(t) {
                self.absent_caps.insert((name.to_string(), t.clone()));
            }
        }
    }

    /// Takes one contract of FCM `name` out of the aggregates.
    fn release(&mut self, name: &str, c: &Held) {
        self.held = (self.held.0 - 1, self.held.1.wrapping_sub(c.fingerprint));
        if !c.guarantee.is_nan() {
            let key = order_key(c.guarantee);
            let count = self.guarantees.get_mut(&key).expect("guarantee was held");
            *count -= 1;
            if *count == 0 {
                self.guarantees.remove(&key);
            }
        }
        self.ill_formed -= usize::from(!guarantee_well_formed(c.guarantee));
        for t in &c.caps {
            self.cap_refs.remove(&(t.clone(), name.to_string()));
            self.absent_caps.remove(&(name.to_string(), t.clone()));
        }
    }

    /// Rebuilds every contract aggregate from `set`.
    fn resync_contracts(&mut self, set: &ContractSet) {
        for slot in &mut self.slots {
            slot.contract = None;
        }
        self.absent.clear();
        self.cap_refs.clear();
        self.absent_caps.clear();
        self.guarantees.clear();
        self.ill_formed = 0;
        self.held = (0, 0);
        // The set and the index are both in name order: one merge walk
        // finds every contract's row.
        let mut rows = self.index.iter().peekable();
        let homes: Vec<Option<usize>> = set
            .iter()
            .map(|c| {
                while rows
                    .next_if(|(name, _)| name.as_str() < c.fcm.as_str())
                    .is_some()
                {}
                rows.peek()
                    .filter(|(name, _)| **name == c.fcm)
                    .map(|(_, &row)| row)
            })
            .collect();
        let mut keys = Vec::with_capacity(set.len());
        for ((c, fp), home) in set.iter_fingerprinted().zip(homes) {
            let held = Held::of(c, fp);
            self.hold_uncounted(&c.fcm, &held);
            if !c.guarantee.is_nan() {
                keys.push(order_key(c.guarantee));
            }
            match home {
                Some(i) => self.slots[i].contract = Some(held),
                None => {
                    self.absent.insert(c.fcm.clone(), held);
                }
            }
        }
        // Bulk-build the multiset from sorted runs.
        keys.sort_unstable();
        self.guarantees = keys
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
            .collect();
    }

    /// The report, bound and verdict from the aggregates.
    fn assemble(&self, view: &CertView, verified: usize) -> Certification {
        let n = view.names.len();
        let mut report = Report::new(view.model);
        report.diagnostics.extend(self.findings.diagnostics());
        let mut errors = self.findings.errors;
        for fcm in self.absent.keys() {
            report.diagnostics.push(absent_fcm_diag(fcm));
        }
        for (fcm, target) in &self.absent_caps {
            report.diagnostics.push(absent_cap_diag(fcm, target));
        }
        errors += self.absent.len() + self.absent_caps.len();
        // Every contract resolves and there is one per row: exactly
        // `covers(view.names, view.contracts)`.
        let covered = view.contracts.len() == n && self.absent.is_empty();
        debug_assert_eq!(covered, covers(view.names, view.contracts));
        let bound = match self.guarantees.last_key_value() {
            Some((&top, _)) if from_order_key(top) > 0.0 => {
                bound_from_max(from_order_key(top), self.ill_formed == 0, DEFAULT_ORDER)
            }
            // No positive guarantee: the fold's sign of zero is the
            // fold's own business.
            _ => certified_bound(view.contracts, DEFAULT_ORDER),
        };
        if covered {
            let relies = rely_diags(view.contracts);
            errors += relies.len();
            report.diagnostics.extend(relies);
            report.diagnostics.extend(convergence_diag(&bound));
        }
        report.sort();
        Certification {
            certified: covered && bound.converges && errors == 0,
            report,
            bound,
            verified,
            reused: n - verified,
        }
    }
}

/// The `(target, contract FCM)` cap references naming `target`.
fn refs_to(refs: &BTreeSet<(String, String)>, target: &str) -> Vec<(String, String)> {
    refs.range((target.to_string(), String::new())..)
        .take_while(|(t, _)| t == target)
        .cloned()
        .collect()
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

    #[test]
    fn order_keys_sort_like_the_floats() {
        let xs = [f64::NEG_INFINITY, -2.5, -0.0, 0.0, 1e-300, 0.9, 1.25, 7.0];
        for w in xs.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{w:?}");
        }
        for x in xs {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
    }

    /// A warm pass with `dirty` against a cold full pass over one view.
    fn warm_vs_cold(
        warm: &mut Certifier,
        dirty: &[usize],
        (names, crits, influence, contracts): (&[String], &[u32], &InfluenceMatrix, &ContractSet),
    ) -> (Certification, Certification) {
        let view = CertView {
            model: "t",
            names,
            crits,
            influence,
            contracts,
        };
        (
            warm.certify(&view, Dirty::Rows(dirty), 1),
            Certifier::new().certify(&view, Dirty::Full, 1),
        )
    }

    #[test]
    fn appended_row_and_its_cap_namers_are_the_only_rows_verified() {
        let (mut names, mut crits, mut influence) = fixture();
        let mut contracts = synthesize(&names, &crits, &influence);
        // `a` caps an FCM that does not exist yet: a C021 error.
        let a = contracts.get("a").unwrap().clone().with_cap("d", 0.5);
        contracts.insert(a);
        let mut warm = Certifier::new();
        let (first, cold) = warm_vs_cold(&mut warm, &[], (&names, &crits, &influence, &contracts));
        assert!(cold.report.render().contains("names unknown FCM d"));
        assert_eq!(first.report.render(), cold.report.render());
        // `d` joins with a contract and an in-edge from `c`.
        influence.push_row_col(&[], &[(2, 0.05)]);
        names.push("d".to_string());
        crits.push(1);
        contracts.insert(Contract::new("d", 0.5, 9.0, 0));
        warm.insert_row(3, "d");
        let (inc, cold) = warm_vs_cold(&mut warm, &[2], (&names, &crits, &influence, &contracts));
        assert_eq!(inc.report.render(), cold.report.render());
        // `d` and `c` re-verify; `a` is re-hashed, and its verdict holds.
        assert_eq!((inc.verified, inc.reused), (2, 2));
        assert!(!inc.report.render().contains("unknown FCM d"));
        // And leaves again: the cap dangles once more.
        influence.pop_row_col();
        names.pop();
        crits.pop();
        contracts.remove("d");
        warm.remove_row(3);
        let (inc, cold) = warm_vs_cold(&mut warm, &[2], (&names, &crits, &influence, &contracts));
        assert_eq!(inc.report.render(), cold.report.render());
        assert_eq!(inc.certified, cold.certified);
    }
}
