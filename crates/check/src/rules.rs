//! The rule catalog and the parallel check engine.
//!
//! Twenty-two rules, `C001`–`C022`, each a pure function over a
//! [`SystemModel`] that emits [`Diagnostic`]s for what it can see and
//! silently skips model parts that are absent. The catalog entry carries
//! the code, a short rule statement, the paper section it re-verifies
//! and the primary severity — DESIGN.md §8 renders this table verbatim
//! (the compositional `C017`–`C022` family is specified in §13).
//!
//! # Engine determinism
//!
//! [`run_checks`] fans the catalog across the substrate pool
//! ([`par_map_threads`] preserves input order) and then sorts the
//! flattened findings by `(code, path, message)`. Each rule iterates the
//! model in a fixed order, so the final report is byte-identical for
//! any `FCM_SWEEP_THREADS` value — the same contract the experiment
//! sweeps honour, and `crates/check/tests/check_props.rs` pins it.
//!
//! Per-rule spans (`check.c001`…) and the `check.diagnostics` /
//! `check.errors` counters flow through `fcm-obs` when observability is
//! enabled; like everywhere else, observations are never inputs.

use std::collections::{BTreeMap, BTreeSet};

use fcm_alloc::ShedPolicy;
use fcm_core::separation::DEFAULT_ORDER;
use fcm_graph::{InfluenceMatrix, Matrix, SparseMatrix};
use fcm_sched::{Admission, Job};
use fcm_substrate::pool::{par_map_threads, worker_count};

use crate::contract::{self, ContractSet};
use crate::diag::{Code, Diagnostic, Report, Severity};
use crate::model::{level_name, SystemModel};

/// One catalog entry: a rule with its stable code and provenance.
#[derive(Debug, Clone, Copy)]
pub struct CheckDef {
    /// Stable code (`C001`…). Never renumbered.
    pub code: Code,
    /// Short kebab-case rule name.
    pub name: &'static str,
    /// Span name used when observability is on.
    pub span: &'static str,
    /// One-line rule statement.
    pub rule: &'static str,
    /// Paper provenance (section / rule / equation).
    pub paper: &'static str,
    /// Primary severity of the rule's findings.
    pub severity: Severity,
    /// The rule body.
    pub run: fn(&SystemModel) -> Vec<Diagnostic>,
}

/// The full rule catalog, in code order.
pub const CATALOG: [CheckDef; 22] = [
    CheckDef {
        code: Code(1),
        name: "hierarchy-backlinks",
        span: "check.c001",
        rule: "parent and child links must agree in both directions",
        paper: "§2.2 R2",
        severity: Severity::Error,
        run: c001_backlinks,
    },
    CheckDef {
        code: Code(2),
        name: "level-step",
        span: "check.c002",
        rule: "every child sits exactly one ladder rank below its parent",
        paper: "§2.1 R1",
        severity: Severity::Error,
        run: c002_level_step,
    },
    CheckDef {
        code: Code(3),
        name: "tree-cycles",
        span: "check.c003",
        rule: "parent chains terminate at a root (the hierarchy is a forest)",
        paper: "§2.2 R2",
        severity: Severity::Error,
        run: c003_cycles,
    },
    CheckDef {
        code: Code(4),
        name: "shared-child",
        span: "check.c004",
        rule: "no FCM is listed as a child of two parents (or twice by one)",
        paper: "§2.2 R2",
        severity: Severity::Error,
        run: c004_shared_child,
    },
    CheckDef {
        code: Code(5),
        name: "orphan-fcm",
        span: "check.c005",
        rule: "every FCM is reachable from a top-rank root",
        paper: "§2.2",
        severity: Severity::Warn,
        run: c005_orphans,
    },
    CheckDef {
        code: Code(6),
        name: "criticality-monotonic",
        span: "check.c006",
        rule: "a parent's criticality is at least its most critical child's",
        paper: "§4.1 (attribute combination)",
        severity: Severity::Warn,
        run: c006_criticality,
    },
    CheckDef {
        code: Code(7),
        name: "retest-consistency",
        span: "check.c007",
        rule: "declared retest plans match the tree: parent + all siblings",
        paper: "§2.3 R5",
        severity: Severity::Error,
        run: c007_retest,
    },
    CheckDef {
        code: Code(8),
        name: "factor-domain",
        span: "check.c008",
        rule: "every p_k1·p_k2·p_k3 factor and SW edge influence lies in [0,1]",
        paper: "§3 Eq. 1",
        severity: Severity::Error,
        run: c008_factors,
    },
    CheckDef {
        code: Code(9),
        name: "influence-domain",
        span: "check.c009",
        rule: "the influence matrix is square with finite entries in [0,1]",
        paper: "§3",
        severity: Severity::Error,
        run: c009_matrix_domain,
    },
    CheckDef {
        code: Code(10),
        name: "series-truncation",
        span: "check.c010",
        rule: "the Eq. 3 separation series converges with bounded truncation error",
        paper: "§3.2 Eq. 3",
        severity: Severity::Warn,
        run: c010_truncation,
    },
    CheckDef {
        code: Code(11),
        name: "influence-consistency",
        span: "check.c011",
        rule: "the stated influence matrix equals the graph-derived one",
        paper: "§3 Eq. 2 / §4.2 Eq. 4",
        severity: Severity::Error,
        run: c011_consistency,
    },
    CheckDef {
        code: Code(12),
        name: "replica-anti-affinity",
        span: "check.c012",
        rule: "clusters hosting replicas of one module never share a HW node",
        paper: "§4.1 (0-weight edges)",
        severity: Severity::Error,
        run: c012_anti_affinity,
    },
    CheckDef {
        code: Code(13),
        name: "mapping-feasibility",
        span: "check.c013",
        rule: "mappings respect resources, pins and per-node capacity",
        paper: "§4.2–4.3",
        severity: Severity::Error,
        run: c013_feasibility,
    },
    CheckDef {
        code: Code(14),
        name: "edf-admission",
        span: "check.c014",
        rule: "timing triples are satisfiable and each node's job set is EDF-admissible",
        paper: "§4.2 Table 2",
        severity: Severity::Error,
        run: c014_admission,
    },
    CheckDef {
        code: Code(15),
        name: "shed-soundness",
        span: "check.c015",
        rule: "no protected FCM (replica, pinned, resource-bound) is sheddable",
        paper: "degraded mode (E14)",
        severity: Severity::Error,
        run: c015_shed,
    },
    CheckDef {
        code: Code(16),
        name: "recovery-sanity",
        span: "check.c016",
        rule: "watchdog, retry and checkpoint parameters are usable",
        paper: "recovery subsystem (E14)",
        severity: Severity::Error,
        run: c016_recovery,
    },
    CheckDef {
        code: Code(17),
        name: "contract-guarantee",
        span: "check.c017",
        rule: "every FCM's outgoing influence row sum is within its contracted guarantee",
        paper: "§6 R5 (rely-guarantee)",
        severity: Severity::Error,
        run: c017_guarantee,
    },
    CheckDef {
        code: Code(18),
        name: "contract-edge-cap",
        span: "check.c018",
        rule: "declared per-edge influence caps hold on the actual matrix entries",
        paper: "§3 Eq. 2",
        severity: Severity::Error,
        run: c018_edge_caps,
    },
    CheckDef {
        code: Code(19),
        name: "contract-rely",
        span: "check.c019",
        rule: "every rely is entailed by the other FCMs' guarantees and caps",
        paper: "§6 R5 (compositional discharge)",
        severity: Severity::Error,
        run: c019_relies,
    },
    CheckDef {
        code: Code(20),
        name: "contract-criticality-floor",
        span: "check.c020",
        rule: "an FCM's declared criticality reaches its contract floor",
        paper: "§4.1 (criticality attribute)",
        severity: Severity::Error,
        run: c020_floor,
    },
    CheckDef {
        code: Code(21),
        name: "contract-coverage",
        span: "check.c021",
        rule: "contracts cover exactly the model's FCMs: no gaps, no dangling names",
        paper: "§6 R5",
        severity: Severity::Warn,
        run: c021_coverage,
    },
    CheckDef {
        code: Code(22),
        name: "contract-certification",
        span: "check.c022",
        rule: "covering contracts certify a convergent Eq. 3 series (max guarantee < 1)",
        paper: "§3 Eq. 3",
        severity: Severity::Warn,
        run: c022_certification,
    },
];

/// Runs the whole catalog over `model`, fanning out across
/// `FCM_SWEEP_THREADS` threads (default: the pool worker count).
#[must_use]
pub fn run_checks(model: &SystemModel) -> Report {
    run_checks_with_threads(model, threads_from_env())
}

/// [`run_checks`] with an explicit thread count — what tests use to
/// compare fan-outs without racing on the environment.
#[must_use]
pub fn run_checks_with_threads(model: &SystemModel, threads: usize) -> Report {
    let _root = fcm_obs::span("check.run");
    let parent = fcm_obs::current_span();
    let idx: Vec<usize> = (0..CATALOG.len()).collect();
    let per_check = par_map_threads(&idx, threads, |&i| {
        let def = &CATALOG[i];
        let _s = fcm_obs::span_under(def.span, parent, Some(i as u64));
        (def.run)(model)
    });
    let mut report = Report::new(model.name.clone());
    for diags in per_check {
        report.diagnostics.extend(diags);
    }
    report.sort();
    fcm_obs::counter_add("check.diagnostics", report.diagnostics.len() as u64);
    fcm_obs::counter_add("check.errors", report.count(Severity::Error) as u64);
    report
}

/// `FCM_SWEEP_THREADS` (the sweep driver's variable governs the check
/// fan-out too); invalid, missing or zero values fall back to the pool
/// default.
fn threads_from_env() -> usize {
    match std::env::var("FCM_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => worker_count(),
    }
}

fn fmt_parent(p: Option<u64>) -> String {
    match p {
        Some(id) => format!("f{id}"),
        None => "none".to_string(),
    }
}

// C001 — bidirectional link consistency (R2).
fn c001_backlinks(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(v) = &m.hierarchy else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for n in &v.nodes {
        for &c in &n.children {
            match v.find(c) {
                None => out.push(Diagnostic::error(
                    Code(1),
                    v.path_of(n.id),
                    format!("{} lists missing child f{c}", n.name),
                )),
                Some(ch) if ch.parent != Some(n.id) => out.push(Diagnostic::error(
                    Code(1),
                    v.path_of(c),
                    format!(
                        "{} is listed as a child of {} but its parent link is {}",
                        ch.name,
                        n.name,
                        fmt_parent(ch.parent)
                    ),
                )),
                _ => {}
            }
        }
        if let Some(p) = n.parent {
            match v.find(p) {
                None => out.push(Diagnostic::error(
                    Code(1),
                    v.path_of(n.id),
                    format!("{} names missing parent f{p}", n.name),
                )),
                Some(pv) if !pv.children.contains(&n.id) => out.push(Diagnostic::error(
                    Code(1),
                    v.path_of(n.id),
                    format!("{} names parent {} which does not list it", n.name, pv.name),
                )),
                _ => {}
            }
        }
    }
    out
}

// C002 — single-rank level steps (R1).
fn c002_level_step(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(v) = &m.hierarchy else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for n in &v.nodes {
        for &c in &n.children {
            if let Some(ch) = v.find(c) {
                if ch.rank + 1 != n.rank {
                    out.push(Diagnostic::error(
                        Code(2),
                        v.path_of(c),
                        format!(
                            "{} ({}) sits under {} ({}): levels must step by exactly one",
                            ch.name,
                            level_name(ch.rank),
                            n.name,
                            level_name(n.rank)
                        ),
                    ));
                }
            }
        }
    }
    out
}

// C003 — parent chains terminate (no cycles).
fn c003_cycles(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(v) = &m.hierarchy else {
        return Vec::new();
    };
    let mut reps: BTreeSet<u64> = BTreeSet::new();
    for start in &v.nodes {
        let mut walk = vec![start.id];
        let mut cur = start.parent;
        while let Some(p) = cur {
            if let Some(at) = walk.iter().position(|&x| x == p) {
                reps.insert(*walk[at..].iter().min().expect("non-empty cycle"));
                break;
            }
            walk.push(p);
            cur = v.find(p).and_then(|n| n.parent);
        }
    }
    reps.into_iter()
        .map(|id| {
            Diagnostic::error(
                Code(3),
                v.path_of(id),
                "parent chain forms a cycle instead of reaching a root".to_string(),
            )
        })
        .collect()
}

// C004 — a child belongs to exactly one parent.
fn c004_shared_child(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(v) = &m.hierarchy else {
        return Vec::new();
    };
    let mut listings: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for n in &v.nodes {
        for &c in &n.children {
            listings.entry(c).or_default().push(n.id);
        }
    }
    listings
        .into_iter()
        .filter(|(_, parents)| parents.len() > 1)
        .map(|(c, parents)| {
            let names: Vec<String> = parents.iter().map(|&p| fmt_parent(Some(p))).collect();
            Diagnostic::error(
                Code(4),
                v.path_of(c),
                format!(
                    "listed as a child {} times (by {})",
                    names.len(),
                    names.join(", ")
                ),
            )
        })
        .collect()
}

// C005 — unreachable FCMs and stray low-rank roots.
fn c005_orphans(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(v) = &m.hierarchy else {
        return Vec::new();
    };
    if v.nodes.is_empty() {
        return Vec::new();
    }
    let top = v.top_rank();
    let mut out = Vec::new();
    let mut reachable: BTreeSet<u64> = BTreeSet::new();
    let mut queue: Vec<u64> = Vec::new();
    for n in &v.nodes {
        if n.parent.is_none() {
            reachable.insert(n.id);
            queue.push(n.id);
            if n.rank < top {
                out.push(Diagnostic::warn(
                    Code(5),
                    v.path_of(n.id),
                    format!(
                        "{} is a stray {}-level root (expected {} roots)",
                        n.name,
                        level_name(n.rank),
                        level_name(top)
                    ),
                ));
            }
        }
    }
    while let Some(id) = queue.pop() {
        if let Some(n) = v.find(id) {
            for &c in &n.children {
                if v.find(c).is_some() && reachable.insert(c) {
                    queue.push(c);
                }
            }
        }
    }
    for n in &v.nodes {
        if !reachable.contains(&n.id) {
            out.push(Diagnostic::warn(
                Code(5),
                v.path_of(n.id),
                format!("{} is unreachable from any root", n.name),
            ));
        }
    }
    out
}

// C006 — criticality combines upward by max; a parent below its most
// critical child under-declares the subtree.
fn c006_criticality(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(v) = &m.hierarchy else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for n in &v.nodes {
        let max_child = n
            .children
            .iter()
            .filter_map(|&c| v.find(c))
            .map(|c| c.criticality)
            .max();
        if let Some(mc) = max_child {
            if n.criticality < mc {
                out.push(Diagnostic::warn(
                    Code(6),
                    v.path_of(n.id),
                    format!(
                        "{} declares criticality {} below its most critical child ({mc})",
                        n.name, n.criticality
                    ),
                ));
            }
        }
    }
    out
}

// C007 — declared retest plans agree with the tree (R5).
fn c007_retest(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(v) = &m.hierarchy else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for r in &m.retest {
        let Some(n) = v.find(r.modified) else {
            out.push(Diagnostic::error(
                Code(7),
                format!("retest[{}]", r.modified),
                format!("retest plan refers to missing FCM f{}", r.modified),
            ));
            continue;
        };
        if r.parent != n.parent {
            out.push(Diagnostic::error(
                Code(7),
                v.path_of(n.id),
                format!(
                    "retest plan names parent {} but the tree says {}",
                    fmt_parent(r.parent),
                    fmt_parent(n.parent)
                ),
            ));
        }
        // Sibling comparison only makes sense on an intact link (broken
        // links are C001's finding, not a retest drift).
        let Some(pv) = n.parent.and_then(|p| v.find(p)) else {
            continue;
        };
        if !pv.children.contains(&n.id) {
            continue;
        }
        let expected: BTreeSet<u64> = pv.children.iter().copied().filter(|&c| c != n.id).collect();
        let declared: BTreeSet<u64> = r.siblings.iter().copied().collect();
        for &missing in expected.difference(&declared) {
            out.push(Diagnostic::error(
                Code(7),
                v.path_of(n.id),
                format!(
                    "retest plan for {} omits sibling interface {}",
                    n.name,
                    fmt_parent(Some(missing))
                ),
            ));
        }
        for &extra in declared.difference(&expected) {
            out.push(Diagnostic::error(
                Code(7),
                v.path_of(n.id),
                format!(
                    "retest plan for {} lists {} which is not a sibling",
                    n.name,
                    fmt_parent(Some(extra))
                ),
            ));
        }
    }
    out
}

fn in_unit(v: f64) -> bool {
    v.is_finite() && (0.0..=1.0).contains(&v)
}

// C008 — Eq. 1 factor domain, plus SW edge influence domain.
fn c008_factors(m: &SystemModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, f) in m.factors.iter().enumerate() {
        let parts = [
            ("occurrence", f.occurrence),
            ("transmission", f.transmission),
            ("manifestation", f.manifestation),
        ];
        let mut parts_ok = true;
        for (label, v) in parts {
            if !in_unit(v) {
                parts_ok = false;
                out.push(Diagnostic::error(
                    Code(8),
                    format!("factors[{i}]"),
                    format!("{}→{}: {label} probability {v} outside [0,1]", f.from, f.to),
                ));
            }
        }
        if parts_ok && !in_unit(f.probability()) {
            out.push(Diagnostic::error(
                Code(8),
                format!("factors[{i}]"),
                format!(
                    "{}→{}: p_k = {} outside [0,1]",
                    f.from,
                    f.to,
                    f.probability()
                ),
            ));
        }
    }
    if let Some(g) = &m.sw {
        for (ei, e) in g.edges() {
            let w = e.weight.influence();
            let ok = match e.weight {
                fcm_alloc::sw::SwEdge::ReplicaLink => true,
                fcm_alloc::sw::SwEdge::Influence(_) => w.is_finite() && w > 0.0 && w <= 1.0,
            };
            if !ok {
                out.push(Diagnostic::error(
                    Code(8),
                    format!("sw/edge[{}]", ei.index()),
                    format!("influence {w} outside (0,1]"),
                ));
            }
        }
    }
    out
}

// C009 — stated influence matrix domain.
fn c009_matrix_domain(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(mat) = &m.influence else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if mat.rows() != mat.cols() {
        out.push(Diagnostic::error(
            Code(9),
            "influence".to_string(),
            format!("matrix is {}×{}, not square", mat.rows(), mat.cols()),
        ));
        return out;
    }
    match mat {
        InfluenceMatrix::Dense(d) => {
            for i in 0..d.rows() {
                for j in 0..d.cols() {
                    let v = d.get(i, j).expect("in range");
                    if !in_unit(v) {
                        out.push(Diagnostic::error(
                            Code(9),
                            format!("influence/entry[{i},{j}]"),
                            format!("entry {v} outside [0,1]"),
                        ));
                    }
                }
            }
        }
        // Stored entries row-major: unstored zeros are in-domain, so
        // the finding set (and its order) matches the dense scan.
        InfluenceMatrix::Sparse(s) => {
            for (i, j, v) in s.entries() {
                if !in_unit(v) {
                    out.push(Diagnostic::error(
                        Code(9),
                        format!("influence/entry[{i},{j}]"),
                        format!("entry {v} outside [0,1]"),
                    ));
                }
            }
        }
    }
    out
}

/// Threshold for the Eq. 3 truncation-error warning: the bound
/// `r^(order+1) / (1 − r)` on the dropped tail at `DEFAULT_ORDER`.
pub const TRUNCATION_BOUND: f64 = 1e-3;

// C010 — Eq. 3 convergence and truncation-error bound.
fn c010_truncation(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(mat) = &m.influence else {
        return Vec::new();
    };
    if mat.rows() != mat.cols() || mat.rows() == 0 {
        return Vec::new(); // shape/domain problems are C009's findings
    }
    let mut out = Vec::new();
    let mut r_max = 0.0f64;
    let mut domain_ok = true;
    for i in 0..mat.rows() {
        // Per-row fold in ascending-column order for both
        // representations; a sparse row skips only exact zeros, which
        // add nothing to the sum and are always in-domain.
        let mut sum = 0.0;
        match mat {
            InfluenceMatrix::Dense(d) => {
                for j in 0..d.cols() {
                    let v = d.get(i, j).expect("in range");
                    if !in_unit(v) {
                        domain_ok = false;
                    }
                    sum += v;
                }
            }
            InfluenceMatrix::Sparse(s) => {
                let (_, vals) = s.row(i);
                for &v in vals {
                    if !in_unit(v) {
                        domain_ok = false;
                    }
                    sum += v;
                }
            }
        }
        if sum >= 1.0 {
            out.push(Diagnostic::warn(
                Code(10),
                format!("influence/row[{i}]"),
                format!(
                    "row sum {sum:.4} ≥ 1: the Eq. 3 separation series is not guaranteed to converge"
                ),
            ));
        }
        r_max = r_max.max(sum);
    }
    if domain_ok && out.is_empty() && r_max > 0.0 {
        let tail = r_max.powi(DEFAULT_ORDER as i32 + 1) / (1.0 - r_max);
        if tail > TRUNCATION_BOUND {
            out.push(Diagnostic::warn(
                Code(10),
                "influence".to_string(),
                format!(
                    "truncation error bound {tail:.2e} at order {DEFAULT_ORDER} exceeds {TRUNCATION_BOUND:.0e}"
                ),
            ));
        }
    }
    out
}

// C011 — the stated matrix must equal the Eq. 2 graph derivation.
fn c011_consistency(m: &SystemModel) -> Vec<Diagnostic> {
    let (Some(mat), Some(g)) = (&m.influence, &m.sw) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let n = g.node_count();
    if mat.rows() != n || mat.cols() != n {
        out.push(Diagnostic::error(
            Code(11),
            "influence".to_string(),
            format!(
                "matrix is {}×{} but the SW graph has {n} nodes",
                mat.rows(),
                mat.cols()
            ),
        ));
        return out;
    }
    let mismatch = |i: usize, j: usize, stated: f64, want: f64, out: &mut Vec<Diagnostic>| {
        if (stated - want).abs() > 1e-12 {
            out.push(Diagnostic::error(
                Code(11),
                format!("influence/entry[{i},{j}]"),
                format!("stated influence {stated} differs from graph-derived {want} (Eq. 2)"),
            ));
        }
    };
    match mat {
        InfluenceMatrix::Dense(d) => {
            let derived = Matrix::from_graph(g);
            for i in 0..n {
                for j in 0..n {
                    let stated = d.get(i, j).expect("in range");
                    let want = derived.get(i, j).expect("in range");
                    mismatch(i, j, stated, want, &mut out);
                }
            }
        }
        // O(nnz) union walk over the two sorted rows — a 50k-node
        // sparse model never materialises a dense n×n here. Columns in
        // neither row agree at 0 = 0, so the finding set (row-major,
        // ascending column) matches the dense scan exactly.
        InfluenceMatrix::Sparse(s) => {
            let derived = SparseMatrix::from_graph(g);
            for i in 0..n {
                let (sc, sv) = s.row(i);
                let (dc, dv) = derived.row(i);
                let (mut a, mut b) = (0, 0);
                while a < sc.len() || b < dc.len() {
                    let ja = sc.get(a).copied().unwrap_or(usize::MAX);
                    let jb = dc.get(b).copied().unwrap_or(usize::MAX);
                    if ja < jb {
                        mismatch(i, ja, sv[a], 0.0, &mut out);
                        a += 1;
                    } else if jb < ja {
                        mismatch(i, jb, 0.0, dv[b], &mut out);
                        b += 1;
                    } else {
                        mismatch(i, ja, sv[a], dv[b], &mut out);
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
    }
    out
}

// C012 — replica anti-affinity of the mapping.
fn c012_anti_affinity(m: &SystemModel) -> Vec<Diagnostic> {
    let (Some(g), Some(c), Some(map)) = (&m.sw, &m.clustering, &m.mapping) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (a, b) in c.conflicting_pairs(g) {
        if let (Some(ha), Some(hb)) = (map.hw_of(a), map.hw_of(b)) {
            if ha == hb {
                out.push(Diagnostic::error(
                    Code(12),
                    format!("mapping/cluster[{a}]"),
                    format!(
                        "clusters {} and {} host replicas of one module but share hw{}",
                        c.cluster_name(g, a),
                        c.cluster_name(g, b),
                        ha.index()
                    ),
                ));
            }
        }
    }
    out
}

// C013 — resource, pin and capacity feasibility of the mapping.
//
// Deliberately no flat double-occupancy rule: co-hosting clusters is a
// legal degraded state (failover re-places victims onto survivors), so
// the binding constraints are capacity here, admission in C014 and
// anti-affinity in C012.
fn c013_feasibility(m: &SystemModel) -> Vec<Diagnostic> {
    let (Some(c), Some(map), Some(hw)) = (&m.clustering, &m.mapping, &m.hw) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if map.len() != c.len() {
        out.push(Diagnostic::error(
            Code(13),
            "mapping".to_string(),
            format!(
                "mapping places {} clusters but the clustering has {}",
                map.len(),
                c.len()
            ),
        ));
    }
    let mut demand: BTreeMap<usize, f64> = BTreeMap::new();
    for (ci, h) in map.iter() {
        let Some(node) = hw.node(h) else {
            out.push(Diagnostic::error(
                Code(13),
                format!("mapping/cluster[{ci}]"),
                format!("assigned to unknown hw node {}", h.index()),
            ));
            continue;
        };
        let Some(members) = c.clusters().get(ci) else {
            continue;
        };
        if let Some(g) = &m.sw {
            for &sw in members {
                let Some(swn) = g.node(sw) else { continue };
                for req in &swn.required_resources {
                    if !node.resources.contains(req) {
                        out.push(Diagnostic::error(
                            Code(13),
                            format!("mapping/cluster[{ci}]"),
                            format!(
                                "{} requires resource '{req}' absent on {}",
                                swn.name, node.name
                            ),
                        ));
                    }
                }
                if let Some(pin) = &swn.pinned_to {
                    if pin != &node.name {
                        out.push(Diagnostic::error(
                            Code(13),
                            format!("mapping/cluster[{ci}]"),
                            format!(
                                "{} is pinned to {pin} but placed on {}",
                                swn.name, node.name
                            ),
                        ));
                    }
                }
                *demand.entry(h.index()).or_insert(0.0) += swn.attributes.throughput.0;
            }
        }
    }
    for (h, d) in demand {
        if let Some(node) = hw.node(fcm_graph::NodeIdx(h)) {
            if d > node.capacity {
                out.push(Diagnostic::error(
                    Code(13),
                    format!("mapping/node[{h}]"),
                    format!(
                        "throughput demand {d:.2} exceeds capacity {:.2} of {}",
                        node.capacity, node.name
                    ),
                ));
            }
        }
    }
    out
}

// C014 — timing satisfiability and per-node EDF admission, reusing
// fcm-sched's exact incremental admission test.
fn c014_admission(m: &SystemModel) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut timing_ok = true;
    if let Some(g) = &m.sw {
        for (ni, n) in g.nodes() {
            if let Some(t) = n.attributes.timing {
                if !t.is_well_formed() {
                    timing_ok = false;
                    out.push(Diagnostic::error(
                        Code(14),
                        format!("sw/node[{}]", ni.index()),
                        format!(
                            "{}: timing ⟨{},{},{}⟩ is unsatisfiable in isolation",
                            n.name, t.est, t.tcd, t.ct
                        ),
                    ));
                }
            }
        }
    }
    let (Some(g), Some(c), Some(map)) = (&m.sw, &m.clustering, &m.mapping) else {
        return out;
    };
    if !timing_ok {
        return out; // admission over broken triples would double-report
    }
    let mut per_node: BTreeMap<usize, Vec<Job>> = BTreeMap::new();
    for (ci, h) in map.iter() {
        let Some(members) = c.clusters().get(ci) else {
            continue;
        };
        for &sw in members {
            let Some(swn) = g.node(sw) else { continue };
            if let Some(t) = swn.attributes.timing {
                per_node
                    .entry(h.index())
                    .or_default()
                    .push(t.to_job(sw.index() as u64));
            }
        }
    }
    for (h, jobs) in per_node {
        if !jobs.is_empty() && Admission::with_baseline(&jobs).is_none() {
            out.push(Diagnostic::error(
                Code(14),
                format!("mapping/node[{h}]"),
                format!(
                    "combined job set ({} jobs) is not EDF-admissible",
                    jobs.len()
                ),
            ));
        }
    }
    out
}

// C015 — degraded-mode shed soundness: a protected FCM must never fall
// below the shed threshold.
fn c015_shed(m: &SystemModel) -> Vec<Diagnostic> {
    let (Some(g), Some(policy)) = (&m.sw, &m.shed) else {
        return Vec::new();
    };
    let ShedPolicy::ShedBelow { critical_at } = *policy else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (ni, n) in g.nodes() {
        let mut protections = Vec::new();
        if n.replica_group.is_some() {
            protections.push("replicated");
        }
        if n.pinned_to.is_some() {
            protections.push("pinned");
        }
        if !n.required_resources.is_empty() {
            protections.push("resource-bound");
        }
        if !protections.is_empty() && n.attributes.criticality.0 < critical_at {
            out.push(Diagnostic::error(
                Code(15),
                format!("sw/node[{}]", ni.index()),
                format!(
                    "{} is {} yet sheddable (criticality {} < threshold {critical_at})",
                    n.name,
                    protections.join("+"),
                    n.attributes.criticality.0
                ),
            ));
        }
    }
    out
}

// C016 — recovery parameter sanity.
fn c016_recovery(m: &SystemModel) -> Vec<Diagnostic> {
    let Some(r) = &m.recovery else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if r.heartbeat_period == 0 {
        out.push(Diagnostic::error(
            Code(16),
            "recovery/watchdog".to_string(),
            "heartbeat period 0: node failures are never detected".to_string(),
        ));
    } else if r.detection_latency >= r.heartbeat_period {
        out.push(Diagnostic::warn(
            Code(16),
            "recovery/watchdog".to_string(),
            format!(
                "detection latency {} is not below the heartbeat period {}",
                r.detection_latency, r.heartbeat_period
            ),
        ));
    }
    if r.max_retries > 0 && r.backoff_base == 0 {
        out.push(Diagnostic::error(
            Code(16),
            "recovery/retry".to_string(),
            format!(
                "backoff base 0 with {} retries: restarts busy-loop",
                r.max_retries
            ),
        ));
    }
    if r.checkpoint_every == 0 {
        out.push(Diagnostic::warn(
            Code(16),
            "recovery/checkpoint".to_string(),
            "checkpointing disabled: every restart loses all progress".to_string(),
        ));
    }
    out
}

// The C017–C022 compositional family: thin wrappers around the shared
// arithmetic in `crate::contract`, which the incremental `Certifier`
// also calls — so a cached serve-side verdict and a from-scratch rule
// run are bitwise-identical. None of these ever rebuilds a global walk
// series (srclint enforces the ban mechanically on the contract path).

/// The name/criticality/matrix view the contract rules share. `None`
/// when contracts, SW graph or matrix are absent, or when the matrix
/// shape disagrees with the graph — shape problems are C009/C011
/// findings, not ours.
fn contract_view(
    m: &SystemModel,
) -> Option<(Vec<String>, Vec<u32>, &InfluenceMatrix, &ContractSet)> {
    let (Some(g), Some(mat), Some(set)) = (&m.sw, &m.influence, &m.contracts) else {
        return None;
    };
    let n = g.node_count();
    if mat.rows() != n || mat.cols() != n {
        return None;
    }
    let names = g.nodes().map(|(_, node)| node.name.clone()).collect();
    let crits = g
        .nodes()
        .map(|(_, node)| node.attributes.criticality.0)
        .collect();
    Some((names, crits, mat, set))
}

// C017 — contracted guarantee vs the actual matrix row, O(degree) each.
fn c017_guarantee(m: &SystemModel) -> Vec<Diagnostic> {
    let Some((names, _, mat, set)) = contract_view(m) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, name) in names.iter().enumerate() {
        if let Some(c) = set.get(name) {
            out.extend(contract::guarantee_diag(name, contract::row_sum(mat, i), c));
        }
    }
    out
}

// C018 — per-edge caps vs the actual matrix entries.
fn c018_edge_caps(m: &SystemModel) -> Vec<Diagnostic> {
    let Some((names, _, mat, set)) = contract_view(m) else {
        return Vec::new();
    };
    let index: BTreeMap<String, usize> = names
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), i))
        .collect();
    let mut out = Vec::new();
    for (i, name) in names.iter().enumerate() {
        if let Some(c) = set.get(name) {
            out.extend(contract::cap_diags(name, i, mat, &index, c));
        }
    }
    out
}

// C019 — relies entailed by the others' guarantees: pure contract
// arithmetic, meaningful only once the set covers the model.
fn c019_relies(m: &SystemModel) -> Vec<Diagnostic> {
    let Some((names, _, _, set)) = contract_view(m) else {
        return Vec::new();
    };
    if !contract::covers(&names, set) {
        return Vec::new(); // coverage gaps are C021's findings
    }
    contract::rely_diags(set)
}

// C020 — criticality floors.
fn c020_floor(m: &SystemModel) -> Vec<Diagnostic> {
    let Some((names, crits, _, set)) = contract_view(m) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, name) in names.iter().enumerate() {
        if let Some(c) = set.get(name) {
            out.extend(contract::floor_diag(name, crits[i], c));
        }
    }
    out
}

// C021 — coverage: FCMs without contracts (warn) and contracts or caps
// naming absent FCMs (error).
fn c021_coverage(m: &SystemModel) -> Vec<Diagnostic> {
    let Some((names, _, _, set)) = contract_view(m) else {
        return Vec::new();
    };
    let index: BTreeMap<String, usize> = names
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), i))
        .collect();
    let mut out: Vec<Diagnostic> = names
        .iter()
        .filter(|n| set.get(n).is_none())
        .map(|n| contract::missing_diag(n))
        .collect();
    out.extend(contract::dangling_diags(&index, set));
    out
}

// C022 — the certified system bound from contracts alone.
fn c022_certification(m: &SystemModel) -> Vec<Diagnostic> {
    let Some((names, _, _, set)) = contract_view(m) else {
        return Vec::new();
    };
    if !contract::covers(&names, set) {
        return Vec::new();
    }
    let bound = contract::certified_bound(set, DEFAULT_ORDER);
    contract::convergence_diag(&bound).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_are_unique_and_ordered() {
        let codes: Vec<u16> = CATALOG.iter().map(|d| d.code.0).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes.len(), sorted.len(), "duplicate code in catalog");
        assert_eq!(codes, sorted, "catalog must be in code order");
        assert!(CATALOG.len() >= 12, "the issue demands at least 12 checks");
    }

    #[test]
    fn every_rule_has_a_matching_obs_span() {
        // The engine opens `def.span` around every rule body, so per-rule
        // timing coverage (including C017–C022) is exactly this naming
        // contract: one span per code, `check.cNNN`.
        for def in &CATALOG {
            assert_eq!(
                def.span,
                format!("check.c{:03}", def.code.0),
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn empty_model_is_clean() {
        let m = SystemModel::new("empty");
        let r = run_checks_with_threads(&m, 1);
        assert!(r.diagnostics.is_empty(), "{}", r.render());
    }

    #[test]
    fn matrix_rules_agree_across_representations() {
        use fcm_graph::SparseMatrix;
        // Out-of-domain entry (C009) + row sum ≥ 1 (C010) in one matrix.
        let bad = Matrix::from_rows(2, 2, &[0.0, 1.5, 0.2, 0.0]);
        let dense = SystemModel::new("d").with_influence(bad.clone());
        let sparse = SystemModel::new("s")
            .with_influence_matrix(InfluenceMatrix::Sparse(SparseMatrix::from_dense(&bad)));
        for rule in [c009_matrix_domain, c010_truncation] {
            let (d, s) = (rule(&dense), rule(&sparse));
            assert_eq!(d.len(), s.len());
            for (x, y) in d.iter().zip(&s) {
                assert_eq!(x.path, y.path);
                assert_eq!(x.message, y.message);
            }
        }
        assert!(!c009_matrix_domain(&dense).is_empty());
        assert!(!c010_truncation(&dense).is_empty());
    }

    #[test]
    fn c011_sparse_union_walk_finds_all_mismatch_kinds() {
        use fcm_alloc::sw::SwGraphBuilder;
        use fcm_graph::SparseMatrix;
        let mut b = SwGraphBuilder::new();
        let x = b.add_process("x", Default::default());
        let y = b.add_process("y", Default::default());
        b.add_influence(x, y, 0.4).unwrap();
        let g = b.build();
        // Stated has an extra entry (1,0), a wrong entry (0,1), and is
        // missing nothing — the union walk must flag both.
        let stated = Matrix::from_rows(2, 2, &[0.0, 0.9, 0.3, 0.0]);
        let m = SystemModel::new("s")
            .with_influence_matrix(InfluenceMatrix::Sparse(SparseMatrix::from_dense(&stated)))
            .with_sw(g.clone());
        let diags = c011_consistency(&m);
        let sites: Vec<&str> = diags.iter().map(|d| d.path.as_str()).collect();
        assert_eq!(sites, ["influence/entry[0,1]", "influence/entry[1,0]"]);
        // The dense scan of the same model agrees.
        let dm = SystemModel::new("d").with_influence(stated).with_sw(g);
        let dense_sites: Vec<String> = c011_consistency(&dm)
            .iter()
            .map(|d| d.path.clone())
            .collect();
        assert_eq!(dense_sites, sites);
        // A derived-only entry (stated row empty) is also caught.
        let empty = SystemModel::new("e")
            .with_influence_matrix(InfluenceMatrix::Sparse(SparseMatrix::empty(2, 2)))
            .with_sw(dm.sw.clone().unwrap());
        let d2 = c011_consistency(&empty);
        assert_eq!(d2.len(), 1);
        assert_eq!(d2[0].path, "influence/entry[0,1]");
    }
}
