//! Property and mutation tests for the contract layer (C017–C022) and
//! the incremental [`Certifier`].
//!
//! Four pillars, mirroring DESIGN.md §13:
//!
//! * **conservatism** — the contract-derived system bound dominates the
//!   exact Eq. 3 walk series on every generated model, in both the
//!   dense and the CSR representation;
//! * **sensitivity** — each contract code has a minimal mutation that
//!   makes exactly that code fire, plus a negative witness (the
//!   unmutated model is clean of it);
//! * **incrementality** — after any random sequence of row / criticality
//!   / contract edits, a dirty-rows pass over a warm certifier is
//!   bitwise identical to a from-scratch full pass;
//! * **determinism** — contract-bearing reports are byte-identical
//!   across `FCM_SWEEP_THREADS` settings (explicit 1- vs 4-thread runs).
//!
//! Two more pin the serve layer's O(degree) write path: random
//! insert-row, remove-row and dirty-row sequences on a warm certifier
//! (dense and CSR) equal a cold full pass byte for byte and bit for
//! bit, and the per-edit pre-flight gate renders exactly what the full
//! gate renders on any edit of a state the full gate passed.

use fcm_alloc::sw::{SwEdge, SwGraph, SwGraphBuilder, SwNode};
use fcm_check::contract::{certified_bound, synthesize};
use fcm_check::gates::{check_sw_delta, check_sw_graph};
use fcm_check::ContractSet;
use fcm_check::{
    run_checks_with_threads, CertView, Certifier, Contract, Dirty, Severity, SystemModel,
};
use fcm_core::separation::DEFAULT_ORDER;
use fcm_core::AttributeSet;
use fcm_graph::sparse::SparseMatrix;
use fcm_graph::{EdgeIdx, NodeIdx};
use fcm_graph::{InfluenceMatrix, Matrix};
use fcm_substrate::prop;
use fcm_substrate::rng::Rng;
use fcm_substrate::ToJson;

/// A random influence matrix with off-diagonal entries; roughly half
/// the cases keep every row sum < 1 (a certifiable system), the rest
/// are allowed to diverge so the `∞`-bound path is exercised too.
fn random_matrix(rng: &mut Rng, n: usize) -> Matrix {
    let mut m = Matrix::zeros(n, n);
    let certifiable = rng.gen_bool(0.5);
    for i in 0..n {
        let mut budget: f64 = if certifiable {
            rng.gen_range(0.3f64..0.95)
        } else {
            rng.gen_range(0.5f64..2.0)
        };
        for j in 0..n {
            if i != j && rng.gen_bool(0.4) {
                let w = (budget * rng.gen_range(0.1f64..0.6)).min(1.0);
                m[(i, j)] = w;
                budget -= w;
                if budget <= 0.0 {
                    break;
                }
            }
        }
    }
    m
}

fn columns(n: usize, rng: &mut Rng) -> (Vec<String>, Vec<u32>) {
    (
        (0..n).map(|i| format!("f{i}")).collect(),
        (0..n).map(|_| rng.gen_range(0..8u32)).collect(),
    )
}

#[test]
fn certified_bound_dominates_the_exact_series_dense_and_csr() {
    let gen = |rng: &mut Rng, size: usize| {
        let n = 2 + size % 9;
        (random_matrix(rng, n), columns(n, rng))
    };
    prop::check(
        "certified-bound-conservative",
        prop::Config::with_cases(64),
        gen,
        |(dense, (names, crits))| {
            let reprs = [
                InfluenceMatrix::Dense(dense.clone()),
                InfluenceMatrix::Sparse(SparseMatrix::from_dense(dense)),
            ];
            for mat in &reprs {
                let set = synthesize(names, crits, mat);
                let bound = certified_bound(&set, DEFAULT_ORDER);
                for i in 0..names.len() {
                    for j in 0..names.len() {
                        // The certified bound covers the truncated series
                        // at the default order AND any deeper truncation
                        // (the closed-form tail absorbs every dropped
                        // term), so check both.
                        for order in [DEFAULT_ORDER, 2 * DEFAULT_ORDER] {
                            let exact = mat.transitive_influence(i, j, order);
                            if exact > bound.influence_bound + 1e-12 {
                                return Err(format!(
                                    "{} entry ({i},{j}) order {order}: exact {exact} > certified {}",
                                    mat.repr(),
                                    bound.influence_bound
                                ));
                            }
                        }
                    }
                }
                // And the separation floor is the bound's complement.
                if bound.converges {
                    let floor = 1.0 - bound.influence_bound.min(1.0);
                    if (bound.separation_floor - floor).abs() > 1e-15 {
                        return Err("separation floor drifted from the bound".to_string());
                    }
                }
            }
            Ok(())
        },
    );
}

/// A fixed contract-bearing base model: four processes in a ring with
/// row sums well under 1, contracts synthesized (tightest passing), so
/// every contract rule holds and C022 certifies.
fn contract_base() -> SystemModel {
    let mut b = SwGraphBuilder::new();
    let attrs = |c: u32| {
        AttributeSet::default()
            .with_criticality(c)
            .with_timing(0, 20, 2)
            .with_throughput(0.1)
    };
    let nodes: Vec<_> = (0..4)
        .map(|i| b.add_process(format!("f{i}"), attrs(3 + i as u32)))
        .collect();
    for i in 0..4 {
        b.add_influence(nodes[i], nodes[(i + 1) % 4], 0.2 + 0.05 * i as f64)
            .expect("valid influence");
    }
    let g = b.build();
    let dense = Matrix::from_graph(&g);
    let influence = InfluenceMatrix::Dense(dense.clone());
    let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
    let crits: Vec<u32> = (0..4).map(|i| 3 + i as u32).collect();
    let set = synthesize(&names, &crits, &influence);
    SystemModel::new("contract-base")
        .with_sw(g)
        .with_influence(dense)
        .with_contracts(set)
}

fn codes_of(m: &SystemModel) -> Vec<u16> {
    run_checks_with_threads(m, 1)
        .diagnostics
        .iter()
        .map(|d| d.code.0)
        .collect()
}

/// Asserts the contract base is clean of `code` and `mutated` fires it.
fn assert_contract_mutation_fires(code: u16, mutated: &SystemModel) {
    let before = codes_of(&contract_base());
    assert!(
        !before.contains(&code),
        "contract base already carries C{code:03}: {before:?}"
    );
    let after = codes_of(mutated);
    assert!(
        after.contains(&code),
        "mutation failed to fire C{code:03}: {after:?}"
    );
}

fn edit_contract(m: &mut SystemModel, fcm: &str, edit: impl FnOnce(&mut Contract)) {
    let set = m.contracts.as_mut().expect("base model has contracts");
    let mut c = set.get(fcm).expect("contract exists").clone();
    edit(&mut c);
    set.insert(c);
}

#[test]
fn c017_broken_guarantee_fires() {
    let mut m = contract_base();
    edit_contract(&mut m, "f0", |c| c.guarantee = 0.01);
    assert_contract_mutation_fires(17, &m);
}

#[test]
fn c018_broken_edge_cap_fires() {
    let mut m = contract_base();
    // f0 → f1 carries 0.2; cap it at 0.05.
    edit_contract(&mut m, "f0", |c| *c = c.clone().with_cap("f1", 0.05));
    assert_contract_mutation_fires(18, &m);
    // A cap at the actual weight is a negative witness for C018 (and
    // tightens f1's entailed interference rather than breaking it).
    let mut ok = contract_base();
    edit_contract(&mut ok, "f0", |c| *c = c.clone().with_cap("f1", 0.2));
    assert!(!codes_of(&ok).contains(&18));
}

#[test]
fn c019_undischarged_rely_fires() {
    let mut m = contract_base();
    edit_contract(&mut m, "f2", |c| c.rely = 0.0);
    assert_contract_mutation_fires(19, &m);
}

#[test]
fn c020_floor_above_criticality_fires() {
    let mut m = contract_base();
    edit_contract(&mut m, "f1", |c| c.floor = 99);
    assert_contract_mutation_fires(20, &m);
}

#[test]
fn c021_missing_and_dangling_contracts_fire() {
    // Missing: drop one contract → warn (partial adoption never errors).
    let mut m = contract_base();
    m.contracts.as_mut().unwrap().remove("f3");
    assert_contract_mutation_fires(21, &m);
    let r = run_checks_with_threads(&m, 1);
    assert!(
        r.diagnostics
            .iter()
            .all(|d| d.code.0 != 21 || d.severity == Severity::Warn),
        "a missing contract is advisory:\n{}",
        r.render()
    );
    // Dangling: a contract naming an absent FCM → error.
    let mut m = contract_base();
    m.contracts
        .as_mut()
        .unwrap()
        .insert(Contract::new("ghost", 0.1, 1.0, 0));
    let r = run_checks_with_threads(&m, 1);
    assert!(
        r.diagnostics
            .iter()
            .any(|d| d.code.0 == 21 && d.severity == Severity::Error),
        "a dangling contract is an error:\n{}",
        r.render()
    );
}

#[test]
fn c022_divergent_guarantees_fire() {
    let mut m = contract_base();
    // Every guarantee still ≥ its actual row sum (no C017) and every
    // rely raised to what the others now permit (no C019) — but a max
    // guarantee of 1 kills geometric convergence.
    for name in ["f0", "f1", "f2", "f3"] {
        edit_contract(&mut m, name, |c| {
            c.guarantee = 1.0;
            c.rely = 3.0;
        });
    }
    assert_contract_mutation_fires(22, &m);
    let r = run_checks_with_threads(&m, 1);
    assert_eq!(
        r.count(Severity::Error),
        0,
        "C022 is advisory:\n{}",
        r.render()
    );
}

#[test]
fn incremental_certifier_is_bitwise_identical_to_from_scratch() {
    let mut rng = Rng::seed_from_u64(0xC017);
    for case in 0..8 {
        let n0 = 4 + case % 5;
        let mut influence = InfluenceMatrix::Dense(random_matrix(&mut rng, n0));
        let (mut names, mut crits) = columns(n0, &mut rng);
        let mut contracts = synthesize(&names, &crits, &influence);
        let mut warm = Certifier::new();
        warm.certify(
            &CertView {
                model: "inc",
                names: &names,
                crits: &crits,
                influence: &influence,
                contracts: &contracts,
            },
            Dirty::Full,
            1,
        );
        for _step in 0..24 {
            let n = names.len();
            let i = rng.gen_range(0..n);
            let mut dirty_rows = vec![i];
            match rng.gen_range(0..4u32) {
                0 => {
                    // Rewrite row i (column i untouched: only row i dirties).
                    let col: Vec<f64> =
                        (0..n).map(|j| influence.get(j, i).unwrap_or(0.0)).collect();
                    let mut row: Vec<f64> =
                        (0..n).map(|j| influence.get(i, j).unwrap_or(0.0)).collect();
                    let j = (i + 1 + rng.gen_range(0..n - 1)) % n;
                    row[j] = if rng.gen_bool(0.3) {
                        0.0
                    } else {
                        rng.gen_range(0.0..0.8)
                    };
                    influence.set_row_col(i, &row, &col);
                }
                1 => crits[i] = rng.gen_range(0..8u32),
                2 => {
                    let mut c = contracts.get(&names[i]).expect("covered").clone();
                    c.guarantee = rng.gen_range(0.0..1.5);
                    c.rely = rng.gen_range(0.0..8.0);
                    c.floor = rng.gen_range(0..8u32);
                    contracts.insert(c);
                }
                _ => {
                    // Structural: a new FCM joins (the certifier must
                    // detect the shape change and fall back to full).
                    let name = format!("g{}", names.len());
                    influence.push_row_col(&[], &[]);
                    contracts.insert(Contract::new(name.clone(), 0.5, 9.0, 0));
                    names.push(name);
                    crits.push(rng.gen_range(0..8u32));
                    dirty_rows = vec![names.len() - 1];
                }
            }
            let view = CertView {
                model: "inc",
                names: &names,
                crits: &crits,
                influence: &influence,
                contracts: &contracts,
            };
            let inc = warm.certify(&view, Dirty::Rows(&dirty_rows), 1);
            let scratch = Certifier::new().certify(&view, Dirty::Full, 4);
            assert_eq!(
                inc.report.render(),
                scratch.report.render(),
                "incremental report drifted from from-scratch"
            );
            assert_eq!(
                inc.report.to_json().to_string_pretty(),
                scratch.report.to_json().to_string_pretty()
            );
            assert_eq!(inc.certified, scratch.certified);
            assert_eq!(
                inc.bound.influence_bound.to_bits(),
                scratch.bound.influence_bound.to_bits(),
                "bound must be bitwise identical"
            );
            assert_eq!(
                inc.bound.separation_floor.to_bits(),
                scratch.bound.separation_floor.to_bits()
            );
        }
    }
}

#[test]
fn single_row_edits_recertify_in_o_degree() {
    let mut rng = Rng::seed_from_u64(7);
    let n = 64;
    let influence = InfluenceMatrix::Dense(random_matrix(&mut rng, n));
    let (names, mut crits) = columns(n, &mut rng);
    let contracts = synthesize(&names, &crits, &influence);
    let mut warm = Certifier::new();
    let first = warm.certify(
        &CertView {
            model: "deg",
            names: &names,
            crits: &crits,
            influence: &influence,
            contracts: &contracts,
        },
        Dirty::Full,
        1,
    );
    assert_eq!((first.verified, first.reused), (n, 0));
    crits[9] = (crits[9] + 1) % 8;
    let inc = warm.certify(
        &CertView {
            model: "deg",
            names: &names,
            crits: &crits,
            influence: &influence,
            contracts: &contracts,
        },
        Dirty::Rows(&[9]),
        1,
    );
    assert_eq!(
        (inc.verified, inc.reused),
        (1, n - 1),
        "one dirty row re-verifies alone"
    );
}

#[test]
fn contract_reports_are_identical_across_thread_counts() {
    let mut models = vec![contract_base()];
    // A findings-heavy variant: broken guarantee, floor, rely, dangling.
    let mut broken = contract_base();
    edit_contract(&mut broken, "f0", |c| c.guarantee = 0.01);
    edit_contract(&mut broken, "f1", |c| c.floor = 99);
    edit_contract(&mut broken, "f2", |c| c.rely = 0.0);
    broken
        .contracts
        .as_mut()
        .unwrap()
        .insert(Contract::new("ghost", 0.2, 1.0, 0));
    models.push(broken);
    for m in &models {
        let seq = run_checks_with_threads(m, 1);
        let par = run_checks_with_threads(m, 4);
        assert_eq!(
            seq.render(),
            par.render(),
            "render differs across thread counts"
        );
        assert_eq!(
            seq.to_json().to_string_pretty(),
            par.to_json().to_string_pretty(),
            "json differs across thread counts"
        );
    }
}

/// `m` with a new row and column at `at` (`row`/`col` indexed over the
/// grown matrix; the diagonal stays zero), in `m`'s representation.
fn inserted(m: &InfluenceMatrix, at: usize, row: &[f64], col: &[f64]) -> InfluenceMatrix {
    let (old, n) = (m.to_dense(), m.rows());
    let src = |k: usize| {
        if k < at {
            Some(k)
        } else {
            (k > at).then(|| k - 1)
        }
    };
    let mut d = Matrix::zeros(n + 1, n + 1);
    for i in 0..=n {
        for j in 0..=n {
            d[(i, j)] = match (src(i), src(j)) {
                (Some(a), Some(b)) => old[(a, b)],
                (None, Some(_)) => row[j],
                (Some(_), None) => col[i],
                (None, None) => 0.0,
            };
        }
    }
    match m {
        InfluenceMatrix::Dense(_) => InfluenceMatrix::Dense(d),
        InfluenceMatrix::Sparse(_) => InfluenceMatrix::Sparse(SparseMatrix::from_dense(&d)),
    }
}

/// A random contract for `name`: sometimes with caps (on live FCMs or
/// on absent ones), sometimes with a guarantee ≥ 1, a NaN-free spread
/// of relies and floors.
fn random_contract(rng: &mut Rng, name: &str, names: &[String]) -> Contract {
    let guarantee = match rng.gen_range(0..6u32) {
        0 => 0.0,
        1 => rng.gen_range(1.0..1.5),
        _ => rng.gen_range(0.0..1.0),
    };
    let mut c = Contract::new(
        name,
        guarantee,
        if rng.gen_bool(0.8) {
            1e6
        } else {
            rng.gen_range(0.0..4.0)
        },
        rng.gen_range(0..6u32),
    );
    for _ in 0..rng.gen_range(0..3usize) {
        let target = if rng.gen_bool(0.2) || names.is_empty() {
            format!("absent{}", rng.gen_range(0..3u32))
        } else {
            names[rng.gen_range(0..names.len())].clone()
        };
        c = c.with_cap(target, rng.gen_range(0.0..0.6));
    }
    c
}

fn assert_warm_equals_cold(
    warm: &mut Certifier,
    dirty: &[usize],
    (names, crits, influence, contracts): (&[String], &[u32], &InfluenceMatrix, &ContractSet),
    what: &str,
) {
    let view = CertView {
        model: "rows",
        names,
        crits,
        influence,
        contracts,
    };
    let inc = warm.certify(&view, Dirty::Rows(dirty), 1);
    let cold = Certifier::new().certify(&view, Dirty::Full, 1);
    assert_eq!(inc.report.render(), cold.report.render(), "{what}");
    assert_eq!(
        inc.report.to_json().to_string_compact(),
        cold.report.to_json().to_string_compact(),
        "{what}"
    );
    assert_eq!(inc.certified, cold.certified, "{what}");
    for (a, b) in [
        (inc.bound.influence_bound, cold.bound.influence_bound),
        (inc.bound.separation_floor, cold.bound.separation_floor),
        (inc.bound.max_guarantee, cold.bound.max_guarantee),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: bound");
    }
    assert_eq!(inc.bound.converges, cold.bound.converges, "{what}");
}

#[test]
fn row_edits_on_a_warm_certifier_equal_a_cold_full_pass_dense_and_csr() {
    for (case, sparse) in (0..12u64).map(|c| (c, c % 2 == 1)) {
        let mut rng = Rng::seed_from_u64(0x1_5e27 + case);
        let n0 = 3 + rng.gen_range(0..6usize);
        let dense = random_matrix(&mut rng, n0);
        let mut influence = if sparse {
            InfluenceMatrix::Sparse(SparseMatrix::from_dense(&dense))
        } else {
            InfluenceMatrix::Dense(dense)
        };
        let (mut names, mut crits) = columns(n0, &mut rng);
        let mut contracts = synthesize(&names, &crits, &influence);
        let mut warm = Certifier::new();
        let mut fresh = n0;
        warm.certify(
            &CertView {
                model: "rows",
                names: &names,
                crits: &crits,
                influence: &influence,
                contracts: &contracts,
            },
            Dirty::Full,
            1,
        );
        for step in 0..40 {
            let n = names.len();
            let mut dirty: Vec<usize> = Vec::new();
            let what = match rng.gen_range(0..7u32) {
                // Insert an FCM at a random row, with a random row and
                // column; half of the time it brings a contract.
                0 | 1 if n < 14 => {
                    let at = rng.gen_range(0..=n);
                    let pick = |rng: &mut Rng, k: usize| {
                        if k == at || !rng.gen_bool(0.3) {
                            0.0
                        } else {
                            rng.gen_range(0.0..0.4)
                        }
                    };
                    let row: Vec<f64> = (0..=n).map(|k| pick(&mut rng, k)).collect();
                    let col: Vec<f64> = (0..=n).map(|k| pick(&mut rng, k)).collect();
                    influence = inserted(&influence, at, &row, &col);
                    // Sometimes an FCM that contracts or caps already
                    // name: they resolve now.
                    let absent = format!("absent{}", rng.gen_range(0..3u32));
                    let name = if rng.gen_bool(0.3) && !names.contains(&absent) {
                        absent
                    } else {
                        fresh += 1;
                        format!("g{fresh}")
                    };
                    names.insert(at, name.clone());
                    crits.insert(at, rng.gen_range(0..8u32));
                    if rng.gen_bool(0.5) {
                        contracts.insert(random_contract(&mut rng, &name, &names));
                    }
                    warm.insert_row(at, &name);
                    dirty = (0..=n).filter(|&k| col[k] != 0.0).collect();
                    "insert"
                }
                // Remove an FCM; its contract usually leaves with it,
                // sometimes stays behind and dangles.
                2 if n > 2 => {
                    let at = rng.gen_range(0..n);
                    dirty = (0..n)
                        .filter(|&k| k != at && influence.get(k, at).unwrap_or(0.0) != 0.0)
                        .map(|k| k - usize::from(k > at))
                        .collect();
                    influence = influence.shrink_row_col(at);
                    let name = names.remove(at);
                    crits.remove(at);
                    if rng.gen_bool(0.8) {
                        contracts.remove(&name);
                    }
                    warm.remove_row(at);
                    "remove"
                }
                3 => {
                    let i = rng.gen_range(0..n);
                    let col: Vec<f64> =
                        (0..n).map(|j| influence.get(j, i).unwrap_or(0.0)).collect();
                    let mut row: Vec<f64> =
                        (0..n).map(|j| influence.get(i, j).unwrap_or(0.0)).collect();
                    let j = (i + 1 + rng.gen_range(0..n - 1)) % n;
                    row[j] = if rng.gen_bool(0.3) {
                        0.0
                    } else {
                        rng.gen_range(0.0..0.8)
                    };
                    influence.set_row_col(i, &row, &col);
                    dirty.push(i);
                    "row"
                }
                4 => {
                    let i = rng.gen_range(0..n);
                    crits[i] = rng.gen_range(0..8u32);
                    dirty.push(i);
                    "criticality"
                }
                5 => {
                    let i = rng.gen_range(0..n);
                    if rng.gen_bool(0.2) {
                        contracts.remove(&names[i]);
                    } else {
                        contracts.insert(random_contract(&mut rng, &names[i], &names));
                    }
                    dirty.push(i);
                    "contract"
                }
                // A contract for an FCM the model does not have comes or
                // goes: no row to list, the certifier must notice.
                _ => {
                    let ghost = format!("absent{}", rng.gen_range(0..3u32));
                    if names.contains(&ghost) {
                        dirty.push(names.iter().position(|n| *n == ghost).expect("present"));
                    }
                    if contracts.remove(&ghost).is_none() {
                        contracts.insert(random_contract(&mut rng, &ghost, &names));
                    }
                    "absent contract"
                }
            };
            assert_warm_equals_cold(
                &mut warm,
                &dirty,
                (&names, &crits, &influence, &contracts),
                &format!("case {case} ({}) step {step}: {what}", influence.repr()),
            );
        }
    }
}

/// A random SW graph that passes the full pre-flight gate.
fn committed_graph(rng: &mut Rng, n: usize) -> SwGraph {
    let mut g = SwGraph::new();
    for i in 0..n {
        let mut attrs = AttributeSet::default().with_criticality(rng.gen_range(0..4u32));
        if rng.gen_bool(0.4) {
            let ct = rng.gen_range(1..10u64);
            attrs = attrs.with_timing(0, ct + rng.gen_range(0..50u64), ct);
        }
        g.add_node(SwNode::new(format!("s{i}"), attrs));
    }
    for _ in 0..2 * n {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            let weight = if rng.gen_bool(0.1) {
                SwEdge::ReplicaLink
            } else {
                SwEdge::Influence(rng.gen_range(0.01..1.0))
            };
            g.add_edge(NodeIdx(a), NodeIdx(b), weight);
        }
    }
    g
}

/// A timing window that is malformed one time in three.
fn random_timing(rng: &mut Rng) -> Option<(u64, u64, u64)> {
    match rng.gen_range(0..6u32) {
        0 => Some((0, 3, 9)),
        1 => Some((5, 5, 0)),
        2 | 3 => None,
        _ => Some((0, 40, rng.gen_range(1..20u64))),
    }
}

/// An influence weight outside (0, 1] one time in four.
fn random_weight(rng: &mut Rng) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => 1.5,
        1 => -0.25,
        _ => rng.gen_range(0.01..1.0),
    }
}

#[test]
fn the_delta_gate_renders_what_the_full_gate_renders() {
    prop::check(
        "delta-gate-equals-full-gate",
        prop::Config::with_cases(96),
        |rng: &mut Rng, size: usize| {
            let n = 2 + size % 12;
            (committed_graph(rng, n), rng.gen_range(0..u64::MAX))
        },
        |(committed, seed)| {
            if check_sw_graph(committed).has_errors() {
                return Err("the generator made a state the gate rejects".to_string());
            }
            let mut rng = Rng::seed_from_u64(*seed);
            let mut g = committed.clone();
            let n = g.node_count();
            let (nodes, edges): (Vec<NodeIdx>, Vec<EdgeIdx>) = if rng.gen_bool(0.5) {
                // An add: a new node with out- and in-edges.
                let mut attrs = AttributeSet::default();
                if let Some((est, tcd, ct)) = random_timing(&mut rng) {
                    attrs = attrs.with_timing(est, tcd, ct);
                }
                let v = g.add_node(SwNode::new("new", attrs));
                let mut edges = Vec::new();
                for _ in 0..rng.gen_range(0..4usize) {
                    let u = NodeIdx(rng.gen_range(0..n));
                    let w = SwEdge::Influence(random_weight(&mut rng));
                    edges.push(if rng.gen_bool(0.5) {
                        g.add_edge(v, u, w)
                    } else {
                        g.add_edge(u, v, w)
                    });
                }
                (vec![v], edges)
            } else {
                // An attribute edit of one node.
                let v = NodeIdx(rng.gen_range(0..n));
                let attrs = &mut g.node_mut(v).unwrap().attributes;
                attrs.timing = random_timing(&mut rng).and_then(|(est, tcd, ct)| {
                    AttributeSet::default().with_timing(est, tcd, ct).timing
                });
                (vec![v], Vec::new())
            };
            let delta = check_sw_delta(&g, &nodes, &edges);
            let full = check_sw_graph(&g);
            if delta.has_errors() != full.has_errors() || delta.render() != full.render() {
                return Err(format!(
                    "delta gate:\n{}full gate:\n{}",
                    delta.render(),
                    full.render()
                ));
            }
            Ok(())
        },
    );
}
