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

use fcm_alloc::sw::SwGraphBuilder;
use fcm_check::contract::{certified_bound, synthesize};
use fcm_check::{
    run_checks_with_threads, CertView, Certifier, Contract, Dirty, Severity, SystemModel,
};
use fcm_core::separation::DEFAULT_ORDER;
use fcm_core::AttributeSet;
use fcm_graph::sparse::SparseMatrix;
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
                    influence = influence.grow_row_col();
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
