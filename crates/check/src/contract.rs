//! Per-FCM rely-guarantee contracts (DESIGN.md §13).
//!
//! A [`Contract`] gives one FCM a **guarantee** it upholds (a max on its
//! outgoing influence row sum), a **rely** it assumes of the rest of the
//! system (a max on the incoming interference the others may send it), a
//! **criticality floor**, and optional per-edge caps that tighten the
//! guarantee on named targets. A [`ContractSet`] is the model-level view
//! the compositional rules `C017`–`C022` certify against: every
//! guarantee is checked against its actual matrix row in O(degree), every
//! rely is discharged from the *other* FCMs' guarantees without touching
//! the matrix at all, and a system-level separation bound is derived from
//! the contracts alone ([`certified_bound`]) — conservative against the
//! exact Eq. 3 series because row sums bound every term of the series.
//!
//! The functions here are the single implementation shared by the rule
//! catalog (`rules.rs`) and the incremental certifier (`certify.rs`), so
//! a cached verdict is bitwise-identical to a from-scratch rule run.

use std::collections::BTreeMap;

use fcm_graph::{fnv, InfluenceMatrix};
use fcm_substrate::json::{write_escaped, write_list, write_num, Reader};
use fcm_substrate::Json;

use crate::diag::{Code, Diagnostic, Severity};

/// Schema tag of the contract-file JSON document.
pub const CONTRACTS_SCHEMA: &str = "fcm-contracts/v1";

/// The rely-guarantee contract of one FCM.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Name of the FCM this contract binds (an SW-graph node name).
    pub fcm: String,
    /// Guaranteed max outgoing influence: the FCM promises its matrix
    /// row sum never exceeds this.
    pub guarantee: f64,
    /// Relied max incoming interference: the FCM assumes the combined
    /// influence the others may send it never exceeds this.
    pub rely: f64,
    /// Criticality floor: the FCM's declared criticality must be ≥ this.
    pub floor: u32,
    /// Optional per-edge caps `(target, cap)` tightening the guarantee
    /// on named outgoing edges; kept sorted by target name.
    pub caps: Vec<(String, f64)>,
}

impl Contract {
    /// Creates a contract with no per-edge caps.
    pub fn new(fcm: impl Into<String>, guarantee: f64, rely: f64, floor: u32) -> Contract {
        Contract {
            fcm: fcm.into(),
            guarantee,
            rely,
            floor,
            caps: Vec::new(),
        }
    }

    /// Adds (or replaces) a per-edge cap, keeping caps sorted by target.
    #[must_use]
    pub fn with_cap(mut self, target: impl Into<String>, cap: f64) -> Contract {
        let target = target.into();
        match self.caps.binary_search_by(|(t, _)| t.as_str().cmp(&target)) {
            Ok(i) => self.caps[i].1 = cap,
            Err(i) => self.caps.insert(i, (target, cap)),
        }
        self
    }

    /// A deterministic fingerprint of every field, by exact bit pattern —
    /// one half of the certifier's `(state hash, contract hash)` cache
    /// key.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv::text(fnv::OFFSET, &self.fcm);
        h = fnv::value(h, self.guarantee);
        h = fnv::value(h, self.rely);
        h = fnv::word(h, u64::from(self.floor));
        for (target, cap) in &self.caps {
            h = fnv::value(fnv::text(h, target), *cap);
        }
        h
    }

    /// Canonical JSON form (`caps` present only when non-empty).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .set("fcm", self.fcm.as_str())
            .set("guarantee", self.guarantee)
            .set("rely", self.rely)
            .set("floor", f64::from(self.floor));
        if !self.caps.is_empty() {
            let mut caps = Json::object();
            for (target, cap) in &self.caps {
                caps = caps.set(target, *cap);
            }
            doc = doc.set("caps", caps);
        }
        doc
    }

    /// Appends [`to_json`](Self::to_json)'s compact text to `out`, byte
    /// for byte, without building the tree. The caps are written in
    /// their stored order, which is the target order a `Json` object
    /// emits, since [`Contract::with_cap`] keeps them sorted and unique.
    fn write_compact(&self, out: &mut String) {
        out.push('{');
        if !self.caps.is_empty() {
            out.push_str("\"caps\":{");
            for (i, (target, cap)) in self.caps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, target);
                out.push(':');
                write_num(out, *cap);
            }
            out.push_str("},");
        }
        out.push_str("\"fcm\":");
        write_escaped(out, &self.fcm);
        out.push_str(",\"floor\":");
        write_num(out, f64::from(self.floor));
        out.push_str(",\"guarantee\":");
        write_num(out, self.guarantee);
        out.push_str(",\"rely\":");
        write_num(out, self.rely);
        out.push('}');
    }

    /// Parses and validates one contract.
    ///
    /// # Errors
    ///
    /// A message naming the malformed field: missing/empty `fcm`,
    /// non-finite or negative `guarantee`/`rely`/cap values, or a
    /// non-integral `floor`.
    pub fn from_json(doc: &Json) -> Result<Contract, String> {
        ContractFields::of_tree(doc).check()
    }
}

/// One contract's fields as a tree lookup finds them, before any check:
/// a field of the wrong type reads as absent. Both the tree path
/// ([`Contract::from_json`]) and the pull-reader path
/// ([`ContractSet::read`]) check them through [`ContractFields::check`],
/// so the two give the same messages.
#[derive(Debug, Default)]
struct ContractFields {
    fcm: Option<String>,
    guarantee: Option<f64>,
    rely: Option<f64>,
    floor: Option<f64>,
    /// `None` when absent, `Some(None)` when not an object, else the
    /// caps by target, in target order, each `None` unless a number.
    caps: Option<Option<BTreeMap<String, Option<f64>>>>,
}

impl ContractFields {
    fn of_tree(doc: &Json) -> ContractFields {
        let num = |key: &str| doc.get(key).and_then(Json::as_f64);
        ContractFields {
            fcm: doc.get("fcm").and_then(Json::as_str).map(str::to_string),
            guarantee: num("guarantee"),
            rely: num("rely"),
            floor: num("floor"),
            caps: doc.get("caps").map(|caps| match caps {
                Json::Obj(entries) => Some(
                    entries
                        .iter()
                        .map(|(target, cap)| (target.clone(), cap.as_f64()))
                        .collect(),
                ),
                _ => None,
            }),
        }
    }

    /// Reads the next value of `r`; a repeated key's last value counts,
    /// as in a parsed tree. Only a syntax error is an error.
    fn read(r: &mut Reader<'_>) -> Result<ContractFields, String> {
        let mut f = ContractFields::default();
        if r.peek() != Some(b'{') {
            r.skip()?;
            return Ok(f);
        }
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "fcm" => {
                    f.fcm = match r.value()? {
                        Json::Str(s) => Some(s),
                        _ => None,
                    }
                }
                "guarantee" => f.guarantee = r.value()?.as_f64(),
                "rely" => f.rely = r.value()?.as_f64(),
                "floor" => f.floor = r.value()?.as_f64(),
                "caps" if r.peek() == Some(b'{') => {
                    let mut caps = BTreeMap::new();
                    r.begin_object()?;
                    while let Some(target) = r.next_key()? {
                        caps.insert(target.into_owned(), r.value()?.as_f64());
                    }
                    f.caps = Some(Some(caps));
                }
                "caps" => {
                    r.skip()?;
                    f.caps = Some(None);
                }
                _ => r.skip()?,
            }
        }
        Ok(f)
    }

    /// The contract, checked field by field in a fixed order.
    fn check(self) -> Result<Contract, String> {
        let fcm = self
            .fcm
            .filter(|s| !s.is_empty())
            .ok_or("contract needs a non-empty \"fcm\" name")?;
        let bound = |v: Option<f64>, key: &str| -> Result<f64, String> {
            let v = v.ok_or_else(|| format!("contract {fcm:?} needs a numeric \"{key}\""))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "contract {fcm:?}: \"{key}\" {v} is not a finite bound ≥ 0"
                ));
            }
            Ok(v)
        };
        let guarantee = bound(self.guarantee, "guarantee")?;
        let rely = bound(self.rely, "rely")?;
        let floor_raw = self
            .floor
            .ok_or_else(|| format!("contract {fcm:?} needs a numeric \"floor\""))?;
        if floor_raw.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&floor_raw) {
            return Err(format!(
                "contract {fcm:?}: floor {floor_raw} is not a criticality rank"
            ));
        }
        let mut c = Contract::new(fcm, guarantee, rely, floor_raw as u32);
        if let Some(caps) = self.caps {
            let caps =
                caps.ok_or_else(|| format!("contract {:?}: \"caps\" must be an object", c.fcm))?;
            for (target, cap) in caps {
                let v = cap.filter(|v| v.is_finite() && *v >= 0.0).ok_or_else(|| {
                    format!("contract {:?}: cap to {target:?} is malformed", c.fcm)
                })?;
                c = c.with_cap(target, v);
            }
        }
        Ok(c)
    }
}

/// The system-level view: one contract per FCM, unique by name and kept
/// in name order (so every fold over the set is deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContractSet {
    /// Each contract with its [`Contract::fingerprint`], computed once
    /// on insert (the set hands out contracts read-only).
    contracts: Vec<(Contract, u64)>,
    /// Wrapping sum of the fingerprints.
    fingerprint_sum: u64,
}

impl ContractSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> ContractSet {
        ContractSet::default()
    }

    /// Number of contracts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.contracts.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.contracts.is_empty()
    }

    fn position(&self, fcm: &str) -> Result<usize, usize> {
        self.contracts
            .binary_search_by(|(x, _)| x.fcm.as_str().cmp(fcm))
    }

    /// Inserts a contract, returning the one it replaces for the same
    /// FCM, if any.
    pub fn insert(&mut self, c: Contract) -> Option<Contract> {
        let fp = c.fingerprint();
        self.fingerprint_sum = self.fingerprint_sum.wrapping_add(fp);
        match self.position(&c.fcm) {
            Ok(i) => {
                let (old, old_fp) = std::mem::replace(&mut self.contracts[i], (c, fp));
                self.fingerprint_sum = self.fingerprint_sum.wrapping_sub(old_fp);
                Some(old)
            }
            Err(i) => {
                self.contracts.insert(i, (c, fp));
                None
            }
        }
    }

    /// Removes the contract for `fcm`, returning it when one existed.
    pub fn remove(&mut self, fcm: &str) -> Option<Contract> {
        let (old, fp) = self.contracts.remove(self.position(fcm).ok()?);
        self.fingerprint_sum = self.fingerprint_sum.wrapping_sub(fp);
        Some(old)
    }

    /// The wrapping sum of every contract's [`Contract::fingerprint`]:
    /// O(1), so the incremental certifier can tell whether the set still
    /// holds exactly the contracts it accounted for.
    #[must_use]
    pub fn fingerprint_sum(&self) -> u64 {
        self.fingerprint_sum
    }

    /// The contract for `fcm`, when present.
    #[must_use]
    pub fn get(&self, fcm: &str) -> Option<&Contract> {
        self.get_fingerprinted(fcm).map(|(c, _)| c)
    }

    /// The contract for `fcm` with its [`Contract::fingerprint`].
    #[must_use]
    pub fn get_fingerprinted(&self, fcm: &str) -> Option<(&Contract, u64)> {
        self.position(fcm).ok().map(|i| {
            let (c, fp) = &self.contracts[i];
            (c, *fp)
        })
    }

    /// Iterates the contracts in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Contract> + '_ {
        self.contracts.iter().map(|(c, _)| c)
    }

    /// Iterates the contracts in name order, each with its
    /// [`Contract::fingerprint`].
    pub fn iter_fingerprinted(&self) -> impl Iterator<Item = (&Contract, u64)> + '_ {
        self.contracts.iter().map(|(c, fp)| (c, *fp))
    }

    /// Canonical JSON document (`fcm-contracts/v1`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object().set("schema", CONTRACTS_SCHEMA).set(
            "contracts",
            Json::Arr(self.iter().map(Contract::to_json).collect()),
        )
    }

    /// Appends [`to_json`](Self::to_json)'s compact text to `out`, byte
    /// for byte, without building a tree per contract: the snapshot
    /// path.
    pub fn write_compact(&self, out: &mut String) {
        out.push_str("{\"contracts\":");
        write_list(out, self.iter(), |out, c| c.write_compact(out));
        out.push_str(",\"schema\":");
        write_escaped(out, CONTRACTS_SCHEMA);
        out.push('}');
    }

    /// Parses a contract-file document.
    ///
    /// # Errors
    ///
    /// Wrong schema tag, a malformed contract, or two contracts naming
    /// the same FCM.
    pub fn from_json(doc: &Json) -> Result<ContractSet, String> {
        let items = doc
            .get("contracts")
            .and_then(Json::as_array)
            .map(|items| items.iter().map(ContractFields::of_tree).collect());
        ContractSet::check(doc.get("schema").and_then(Json::as_str), items)
    }

    /// Reads a contract-file document off `r` with no tree: the outer
    /// error is a syntax error, in the reader's words; the inner result
    /// is [`ContractSet::from_json`]'s for the same document.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn read(r: &mut Reader<'_>) -> Result<Result<ContractSet, String>, String> {
        let (mut schema, mut items) = (None, None);
        if r.peek() == Some(b'{') {
            r.begin_object()?;
            while let Some(key) = r.next_key()? {
                match &*key {
                    "schema" => {
                        schema = match r.value()? {
                            Json::Str(s) => Some(s),
                            _ => None,
                        }
                    }
                    "contracts" if r.peek() == Some(b'[') => {
                        let mut list = Vec::new();
                        r.begin_array()?;
                        while r.next_item()? {
                            list.push(ContractFields::read(r)?);
                        }
                        items = Some(list);
                    }
                    "contracts" => {
                        r.skip()?;
                        items = None;
                    }
                    _ => r.skip()?,
                }
            }
        } else {
            r.skip()?;
        }
        Ok(ContractSet::check(schema.as_deref(), items))
    }

    /// The set a document with this schema tag and these contracts
    /// holds, checked in a fixed order: the tag, the array, then each
    /// contract in array order.
    fn check(
        schema: Option<&str>,
        items: Option<Vec<ContractFields>>,
    ) -> Result<ContractSet, String> {
        match schema {
            Some(CONTRACTS_SCHEMA) => {}
            other => {
                return Err(format!(
                    "expected schema {CONTRACTS_SCHEMA:?}, got {other:?}"
                ))
            }
        }
        let items = items.ok_or("document needs a \"contracts\" array")?;
        let mut set = ContractSet::new();
        for item in items {
            let c = item.check()?;
            // A name past the last one, as in a written set's name
            // order, appends: no search, and no duplicate possible.
            if set
                .contracts
                .last()
                .is_none_or(|(last, _)| last.fcm < c.fcm)
            {
                let fp = c.fingerprint();
                set.fingerprint_sum = set.fingerprint_sum.wrapping_add(fp);
                set.contracts.push((c, fp));
            } else if set.get(&c.fcm).is_some() {
                return Err(format!("duplicate contract for {:?}", c.fcm));
            } else {
                set.insert(c);
            }
        }
        Ok(set)
    }
}

/// The system-level certification derived from a [`ContractSet`] alone
/// — no matrix access (see [`certified_bound`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertifiedBound {
    /// The largest guarantee in the set (`0` for an empty set).
    pub max_guarantee: f64,
    /// Certified upper bound on any entry of the truncated Eq. 3 walk
    /// series plus its dropped tail; `∞` when the contracts admit a
    /// divergent series.
    pub influence_bound: f64,
    /// Certified lower bound on every pairwise separation:
    /// `1 − min(1, influence_bound)`; `0` when not certified.
    pub separation_floor: f64,
    /// Whether the contracts certify convergence (all guarantees are
    /// finite bounds with `max < 1`).
    pub converges: bool,
}

impl CertifiedBound {
    /// JSON form for `stats`/`certify` responses. `influence_bound` and
    /// `separation_floor` are emitted only when the bound converges (an
    /// infinite bound has no JSON number).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let doc = Json::object()
            .set("converges", self.converges)
            .set("max_guarantee", self.max_guarantee);
        if self.converges {
            doc.set("influence_bound", self.influence_bound)
                .set("separation_floor", self.separation_floor)
        } else {
            doc
        }
    }
}

/// The actual outgoing influence row sum of FCM `i` — the same
/// ascending-column fold in both representations that rule C010 uses, so
/// guarantees verify bitwise-identically across `Dense` and `Sparse`.
#[must_use]
pub fn row_sum(mat: &InfluenceMatrix, i: usize) -> f64 {
    let mut sum = 0.0;
    match mat {
        InfluenceMatrix::Dense(d) => {
            for j in 0..d.cols() {
                sum += d.get(i, j).unwrap_or(0.0);
            }
        }
        InfluenceMatrix::Sparse(s) => {
            if i < s.rows() {
                let (_, vals) = s.row(i);
                for &v in vals {
                    sum += v;
                }
            }
        }
    }
    sum
}

/// C017 — the FCM's actual row sum must be within its guarantee.
#[must_use]
pub fn guarantee_diag(name: &str, row_sum: f64, c: &Contract) -> Option<Diagnostic> {
    (row_sum > c.guarantee).then(|| {
        Diagnostic::error(
            Code(17),
            format!("contracts/{name}"),
            format!(
                "outgoing influence row sum {row_sum} exceeds the guaranteed max {}",
                c.guarantee
            ),
        )
    })
}

/// C018 — every declared per-edge cap must hold on the actual matrix
/// entry. Caps naming FCMs absent from the model are C021's findings,
/// not ours.
#[must_use]
pub fn cap_diags(
    name: &str,
    i: usize,
    mat: &InfluenceMatrix,
    index: &BTreeMap<String, usize>,
    c: &Contract,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (target, cap) in &c.caps {
        let Some(&j) = index.get(target) else {
            continue;
        };
        let v = mat.get(i, j).unwrap_or(0.0);
        if v > *cap {
            out.push(Diagnostic::error(
                Code(18),
                format!("contracts/{name}"),
                format!("influence {v} into {target} exceeds the per-edge cap {cap}"),
            ));
        }
    }
    out
}

/// C020 — the FCM's declared criticality must reach the contract floor.
#[must_use]
pub fn floor_diag(name: &str, criticality: u32, c: &Contract) -> Option<Diagnostic> {
    (criticality < c.floor).then(|| {
        Diagnostic::error(
            Code(20),
            format!("contracts/{name}"),
            format!(
                "criticality {criticality} is below the contract floor {}",
                c.floor
            ),
        )
    })
}

/// C021 (warn half) — an FCM without a contract leaves the composition
/// uncertifiable, but partial adoption must not block anything.
#[must_use]
pub fn missing_diag(name: &str) -> Diagnostic {
    Diagnostic::warn(
        Code(21),
        format!("contracts/{name}"),
        "FCM has no contract: the compositional rules cannot certify the system".to_string(),
    )
}

/// C021 (error half) — a contract naming an FCM the model does not have
/// is a broken reference, not partial adoption.
#[must_use]
pub fn absent_fcm_diag(fcm: &str) -> Diagnostic {
    Diagnostic::error(
        Code(21),
        format!("contracts/{fcm}"),
        "contract names an FCM absent from the model".to_string(),
    )
}

/// C021 (error half) — a per-edge cap naming an FCM the model does not
/// have.
#[must_use]
pub fn absent_cap_diag(fcm: &str, target: &str) -> Diagnostic {
    Diagnostic::error(
        Code(21),
        format!("contracts/{fcm}"),
        format!("per-edge cap names unknown FCM {target}"),
    )
}

/// Every [`absent_fcm_diag`] and [`absent_cap_diag`] of `set` against
/// the model's name index.
#[must_use]
pub fn dangling_diags(index: &BTreeMap<String, usize>, set: &ContractSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for c in set.iter() {
        if !index.contains_key(&c.fcm) {
            out.push(absent_fcm_diag(&c.fcm));
        }
        for (target, _) in &c.caps {
            if !index.contains_key(target) {
                out.push(absent_cap_diag(&c.fcm, target));
            }
        }
    }
    out
}

/// Whether the set covers exactly the model's FCMs — the precondition
/// for discharging relies (C019) and certifying a bound (C022).
#[must_use]
pub fn covers(names: &[String], set: &ContractSet) -> bool {
    names.len() == set.len() && names.iter().all(|n| set.get(n).is_some())
}

/// The incoming interference each contract's FCM is entitled to assume,
/// entailed purely from the *other* contracts: every FCM `j ≠ i` may
/// send `i` at most `min(gⱼ, cap(j→i))`, so the entailed total is
/// `Σⱼ gⱼ − gᵢ` adjusted down by every cap that undercuts its
/// guarantee. Returned in set (name) order; one shared fold so rule
/// C019, the certifier, and [`synthesize`] agree bitwise.
#[must_use]
pub fn entailed_incoming(set: &ContractSet) -> Vec<f64> {
    let mut total = 0.0;
    for c in set.iter() {
        total += c.guarantee;
    }
    let mut adjust: BTreeMap<&str, f64> = BTreeMap::new();
    for c in set.iter() {
        for (target, cap) in &c.caps {
            if *cap < c.guarantee && set.get(target).is_some() {
                *adjust.entry(target.as_str()).or_insert(0.0) += cap - c.guarantee;
            }
        }
    }
    set.iter()
        .map(|c| total - c.guarantee + adjust.get(c.fcm.as_str()).copied().unwrap_or(0.0))
        .collect()
}

/// C019 — every rely must be entailed by the others' guarantees. Pure
/// contract arithmetic: the matrix is never read, which is what lets a
/// local edit discharge globally. Callers gate on [`covers`].
#[must_use]
pub fn rely_diags(set: &ContractSet) -> Vec<Diagnostic> {
    let entailed = entailed_incoming(set);
    set.iter()
        .zip(&entailed)
        .filter(|(c, e)| **e > c.rely)
        .map(|(c, e)| {
            Diagnostic::error(
                Code(19),
                format!("contracts/{}", c.fcm),
                format!(
                    "relied max incoming interference {} is below what the other contracts permit ({e})",
                    c.rely
                ),
            )
        })
        .collect()
}

/// C022 / the certified system bound, from contracts alone.
///
/// With `G = max guarantee < 1` every row sum of the influence matrix is
/// ≤ `G` once C017 holds, so every entry of `Pᵏ` is ≤ `Gᵏ` and the
/// truncated Eq. 3 series plus its dropped tail is bounded by
/// `Σ_{k=1..order} Gᵏ + G^{order+1}/(1−G)` — the certified influence
/// bound, conservative against the exact series on every model
/// (`crates/check/tests/contract_props.rs` proves it on generated dense
/// and CSR models).
#[must_use]
pub fn certified_bound(set: &ContractSet, order: usize) -> CertifiedBound {
    let mut g = 0.0f64;
    let mut well_formed = true;
    for c in set.iter() {
        well_formed &= guarantee_well_formed(c.guarantee);
        g = g.max(c.guarantee);
    }
    bound_from_max(g, well_formed, order)
}

/// Whether a guarantee is a finite bound ≥ 0 — what [`certified_bound`]
/// requires of every guarantee before it certifies convergence.
#[must_use]
pub fn guarantee_well_formed(g: f64) -> bool {
    g.is_finite() && g >= 0.0
}

/// The [`certified_bound`] of a set whose max guarantee (folded from
/// `0.0`) is `g`; `well_formed` says whether every guarantee is
/// [`guarantee_well_formed`].
#[must_use]
pub fn bound_from_max(g: f64, well_formed: bool, order: usize) -> CertifiedBound {
    let converges = well_formed && g < 1.0;
    if !converges {
        return CertifiedBound {
            max_guarantee: g,
            influence_bound: f64::INFINITY,
            separation_floor: 0.0,
            converges,
        };
    }
    let mut sum = 0.0;
    let mut power = 1.0;
    for _ in 1..=order {
        power *= g;
        sum += power;
    }
    let tail = if g > 0.0 { power * g / (1.0 - g) } else { 0.0 };
    let bound = sum + tail;
    CertifiedBound {
        max_guarantee: g,
        influence_bound: bound,
        separation_floor: 1.0 - bound.min(1.0),
        converges,
    }
}

/// C022 — contracts that cover the model but admit a divergent series
/// certify nothing; say so once.
#[must_use]
pub fn convergence_diag(bound: &CertifiedBound) -> Option<Diagnostic> {
    (!bound.converges).then(|| {
        Diagnostic::new(
            Code(22),
            Severity::Warn,
            "contracts".to_string(),
            format!(
                "contracts do not certify convergence: max guarantee {} admits a divergent Eq. 3 series",
                bound.max_guarantee
            ),
        )
    })
}

/// Synthesizes the tightest passing [`ContractSet`] for a model: each
/// guarantee is the FCM's actual row sum (so C017 holds with equality),
/// each floor its declared criticality, and each rely exactly the
/// interference the other guarantees entail (the same
/// [`entailed_incoming`] fold C019 checks, so the set passes it
/// bitwise). `checktool --emit-contracts` and the workload generators
/// call this.
#[must_use]
pub fn synthesize(names: &[String], crits: &[u32], mat: &InfluenceMatrix) -> ContractSet {
    let mut set = ContractSet::new();
    for (i, name) in names.iter().enumerate() {
        let floor = crits.get(i).copied().unwrap_or(0);
        set.insert(Contract::new(name.clone(), row_sum(mat, i), 0.0, floor));
    }
    let relies = entailed_incoming(&set);
    let mut out = ContractSet::new();
    for (c, rely) in set.iter().zip(relies) {
        let mut c = c.clone();
        c.rely = rely;
        out.insert(c);
    }
    out
}

/// [`synthesize`] over a [`SystemModel`](crate::model::SystemModel)'s
/// SW graph and influence matrix — `None` when either is absent or
/// their shapes disagree.
#[must_use]
pub fn synthesize_for_model(m: &crate::model::SystemModel) -> Option<ContractSet> {
    let (g, mat) = (m.sw.as_ref()?, m.influence.as_ref()?);
    let n = g.node_count();
    if mat.rows() != n || mat.cols() != n {
        return None;
    }
    let names: Vec<String> = g.nodes().map(|(_, node)| node.name.clone()).collect();
    let crits: Vec<u32> = g
        .nodes()
        .map(|(_, node)| node.attributes.criticality.0)
        .collect();
    Some(synthesize(&names, &crits, mat))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_set() -> ContractSet {
        let mut set = ContractSet::new();
        set.insert(Contract::new("b", 0.4, 0.9, 2));
        set.insert(Contract::new("a", 0.3, 0.9, 5).with_cap("b", 0.1));
        set
    }

    #[test]
    fn set_is_name_ordered_and_json_round_trips() {
        let set = demo_set();
        let names: Vec<&str> = set.iter().map(|c| c.fcm.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let doc = set.to_json();
        let back = ContractSet::from_json(&doc).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.to_json().to_string_pretty(), doc.to_string_pretty());
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let bad = [
            "{\"schema\":\"nope\",\"contracts\":[]}",
            "{\"schema\":\"fcm-contracts/v1\"}",
            "{\"schema\":\"fcm-contracts/v1\",\"contracts\":[{\"fcm\":\"a\",\"guarantee\":-1,\"rely\":0,\"floor\":0}]}",
            "{\"schema\":\"fcm-contracts/v1\",\"contracts\":[{\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":0.2,\"floor\":1.5}]}",
            "{\"schema\":\"fcm-contracts/v1\",\"contracts\":[{\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":0.2,\"floor\":0},{\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":0.2,\"floor\":0}]}",
        ];
        for text in bad {
            let doc = Json::parse(text).unwrap();
            assert!(ContractSet::from_json(&doc).is_err(), "{text}");
        }
    }

    #[test]
    fn the_pull_reader_reads_what_from_json_parses() {
        let docs = [
            "{\"schema\":\"nope\",\"contracts\":[]}",
            "{\"contracts\":[{\"fcm\":\"a\"}],\"schema\":\"nope\"}",
            "{\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":7,\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":[],\"schema\":\"fcm-contracts/v1\",\"contracts\":3}",
            "[1,2]",
            "{\"contracts\":[3,{\"fcm\":\"\"}],\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":[{\"fcm\":\"a\",\"guarantee\":-1,\"rely\":0,\"floor\":0}],\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":[{\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":\"x\",\"floor\":0}],\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":[{\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":0.2,\"floor\":1.5}],\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":[{\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":0.2,\"floor\":0,\"caps\":[1]}],\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":[{\"caps\":{\"z\":0.1,\"b\":\"x\",\"c\":-1},\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":0.2,\"floor\":0}],\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":[{\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":0.2,\"floor\":0},{\"fcm\":\"a\",\"guarantee\":0.1,\"rely\":0.2,\"floor\":0}],\"schema\":\"fcm-contracts/v1\"}",
            "{\"contracts\":[{\"caps\":{\"b\":0.1,\"b\":0.05},\"fcm\":\"x\",\"fcm\":\"a\",\"floor\":2,\"guarantee\":0.3,\"rely\":0.9,\"other\":[{}]},{\"fcm\":\"b\",\"floor\":0,\"guarantee\":0.4,\"rely\":0.9}],\"schema\":\"fcm-contracts/v1\"}",
        ];
        let mut read_ok = 0;
        for text in docs
            .into_iter()
            .chain([demo_set().to_json().to_string_compact().as_str()])
        {
            let mut r = Reader::new(text);
            let read = ContractSet::read(&mut r).expect("valid JSON");
            r.finish().expect("one document");
            assert_eq!(
                read,
                ContractSet::from_json(&Json::parse(text).unwrap()),
                "{text}"
            );
            read_ok += usize::from(read.is_ok());
        }
        assert_eq!(read_ok, 2, "the last two documents are valid");
        assert!(ContractSet::read(&mut Reader::new("{\"contracts\":[}")).is_err());
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let base = Contract::new("a", 0.3, 0.2, 1);
        let mut seen = vec![base.fingerprint()];
        for variant in [
            Contract::new("b", 0.3, 0.2, 1),
            Contract::new("a", 0.4, 0.2, 1),
            Contract::new("a", 0.3, 0.5, 1),
            Contract::new("a", 0.3, 0.2, 2),
            Contract::new("a", 0.3, 0.2, 1).with_cap("b", 0.1),
        ] {
            let f = variant.fingerprint();
            assert!(!seen.contains(&f), "collision for {variant:?}");
            seen.push(f);
        }
    }

    #[test]
    fn entailment_respects_caps() {
        let set = demo_set();
        let entailed = entailed_incoming(&set);
        // Into a: only b's guarantee. Into b: a's guarantee capped at 0.1.
        assert!((entailed[0] - 0.4).abs() < 1e-12, "{entailed:?}");
        assert!((entailed[1] - 0.1).abs() < 1e-12, "{entailed:?}");
        assert!(rely_diags(&set).is_empty());
        let mut tight = demo_set();
        tight.insert(Contract::new("a", 0.3, 0.05, 5).with_cap("b", 0.1));
        let diags = rely_diags(&tight);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].path, "contracts/a");
    }

    #[test]
    fn certified_bound_matches_the_closed_form() {
        let b = certified_bound(&demo_set(), 4);
        assert!(b.converges);
        assert!((b.max_guarantee - 0.4).abs() < 1e-15);
        let series: f64 = (1..=4).map(|k| 0.4f64.powi(k)).sum();
        let tail = 0.4f64.powi(5) / 0.6;
        assert!((b.influence_bound - (series + tail)).abs() < 1e-12);
        assert!((b.separation_floor - (1.0 - b.influence_bound)).abs() < 1e-12);
        assert!(convergence_diag(&b).is_none());

        let mut wild = demo_set();
        wild.insert(Contract::new("c", 1.0, 0.0, 0));
        let nb = certified_bound(&wild, 4);
        assert!(!nb.converges);
        assert!(nb.influence_bound.is_infinite());
        assert_eq!(nb.separation_floor, 0.0);
        assert!(convergence_diag(&nb).is_some());
        assert!(nb.to_json().get("influence_bound").is_none());
    }
}
