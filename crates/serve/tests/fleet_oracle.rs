//! The fleet-scale differential oracle: the incremental serve paths equal
//! their from-scratch twins on a model grown well past the paper's 12
//! FCMs.
//!
//! An in-process `LiveModel` is grown through a fleet-style stream
//! (`support/fleet.rs`) to a few hundred contracted FCMs — past the point
//! where the influence matrix flips to CSR (n ≥ 64 at density ≤ 0.05) —
//! and then churned. At every `CHECK_EVERY`-th accepted mutation the
//! live model is compared with two twins:
//!
//! * `LiveModel::from_state(state_json)`: the same state bytes, every
//!   query answered byte-identically (the certifier's `dirty`/`reused`
//!   counters excepted — they describe the last pass, not the state);
//! * a from-scratch build: a full `condense` of the graph (bitwise-equal
//!   matrix, same representation), a cold `Certifier` with `Dirty::Full`
//!   (byte-equal diagnostics, bound and verdict) and `Placement::new`
//!   over the live `host_of` (same members and admitted jobs).
//!
//! A third twin, resumed from the live state every `CHECK_EVERY`
//! mutations, applies every mutation in lockstep and must decide it the
//! same way with the same payload. Every rejected mutation must leave
//! `state_json` and `certify` byte-identical.

use std::collections::BTreeSet;

use fcm_alloc::failover::Placement;
use fcm_check::{CertView, Certifier, ContractSet, Dirty, Severity};
use fcm_graph::{condense, CombineRule, InfluenceMatrix, NodeIdx};
use fcm_serve::proto::{Mutation, Query};
use fcm_serve::LiveModel;
use fcm_substrate::Json;

#[path = "support/fleet.rs"]
mod fleet;
use fleet::Fleet;

/// Growth adds attempted before the churn starts.
const GROW: usize = 400;
/// Churn mutations attempted after the growth.
const CHURN: usize = 500;
/// Twins are compared at every `CHECK_EVERY`-th accepted mutation.
const CHECK_EVERY: usize = 20;

/// `json` without the certifier's per-pass `dirty`/`reused` counters,
/// at any depth.
fn without_pass_counters(json: &Json) -> Json {
    match json {
        Json::Obj(map) => Json::Obj(
            map.iter()
                .filter(|(k, _)| k.as_str() != "dirty" && k.as_str() != "reused")
                .map(|(k, v)| (k.clone(), without_pass_counters(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_pass_counters).collect()),
        other => other.clone(),
    }
}

fn answer(m: &LiveModel, q: &Query) -> String {
    match m.query(q) {
        Ok(j) => without_pass_counters(&j).to_string_compact(),
        Err(e) => format!("error: {e}"),
    }
}

fn certify_text(m: &LiveModel) -> String {
    m.query(&Query::Certify)
        .expect("certify answers")
        .to_string_compact()
}

/// Every query the protocol has, over a spread of FCM pairs and every
/// HW node.
fn queries(m: &LiveModel) -> Vec<Query> {
    let names: Vec<String> = m.graph().nodes().map(|(_, n)| n.name.clone()).collect();
    let n = names.len();
    let mut out = vec![
        Query::Check,
        Query::Certify,
        Query::Stats,
        Query::List,
        Query::Dump,
    ];
    for (a, b) in [(0, n - 1), (n - 1, 0), (n / 2, n / 3), (n / 3, 1)] {
        let (from, to) = (names[a].clone(), names[b].clone());
        out.push(Query::Influence {
            from: from.clone(),
            to: to.clone(),
            order: 4,
        });
        out.push(Query::Separation { from, to, order: 3 });
    }
    for h in 0..m.hw_count() {
        let node = format!("hw{h}");
        out.push(Query::Admit {
            node: node.clone(),
            timing: Some((0, 500, 7)),
            throughput: 0.5,
        });
        out.push(Query::ProposePlacement { node });
    }
    out
}

fn assert_matches_twins(m: &LiveModel, step: usize) {
    let state = m.state_json();
    let text = state.to_string_compact();

    // Twin 1: resume from the state bytes.
    let resumed = LiveModel::from_state(&state)
        .unwrap_or_else(|e| panic!("step {step}: state does not load: {e}"));
    assert_eq!(
        resumed.state_json().to_string_compact(),
        text,
        "step {step}: state round trip"
    );
    for q in queries(m) {
        assert_eq!(
            answer(m, &q),
            answer(&resumed, &q),
            "step {step}: {q:?} differs from the resumed twin"
        );
    }

    // Twin 2: from scratch. The matrix: a full condense, bitwise.
    let g = m.graph();
    let groups: Vec<Vec<NodeIdx>> = g.node_indices().map(|v| vec![v]).collect();
    let scratch = condense(g, &groups, CombineRule::Probabilistic)
        .expect("singletons partition")
        .influence_matrix();
    let live = state
        .get("influence")
        .and_then(InfluenceMatrix::from_state_json)
        .expect("state carries the matrix");
    assert_eq!(
        live.repr(),
        InfluenceMatrix::from_dense_auto(scratch.clone()).repr(),
        "step {step}: representation"
    );
    let n = g.node_count();
    assert_eq!((live.rows(), live.cols()), (n, n), "step {step}: shape");
    for i in 0..n {
        for j in 0..n {
            let (a, b) = (live.get(i, j).unwrap(), scratch[(i, j)]);
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "step {step}: entry ({i},{j}) live {a} vs scratch {b}"
            );
        }
    }

    // The certification: a cold certifier over the same view.
    let contracts = match state.get("contracts") {
        Some(doc) => ContractSet::from_json(doc).expect("contracts parse"),
        None => ContractSet::new(),
    };
    let live_cert = m.query(&Query::Certify).expect("certify answers");
    if contracts.is_empty() {
        assert_eq!(live_cert.get("certified"), Some(&Json::Bool(false)));
    } else {
        let names: Vec<String> = g.nodes().map(|(_, v)| v.name.clone()).collect();
        let crits: Vec<u32> = g.nodes().map(|(_, v)| v.attributes.criticality.0).collect();
        let cold = Certifier::new().certify(
            &CertView {
                model: m.name(),
                names: &names,
                crits: &crits,
                influence: &live,
                contracts: &contracts,
            },
            Dirty::Full,
            1,
        );
        let diags = Json::array(
            cold.report
                .diagnostics
                .iter()
                .map(|d| Json::from(d.render())),
        );
        assert_eq!(
            live_cert.get("diagnostics"),
            Some(&diags),
            "step {step}: diagnostics"
        );
        assert_eq!(
            live_cert.get("bound").map(Json::to_string_compact),
            Some(cold.bound.to_json().to_string_compact()),
            "step {step}: bound"
        );
        assert_eq!(
            live_cert.get("certified"),
            Some(&Json::Bool(cold.certified)),
            "step {step}: certified"
        );
        assert_eq!(
            live_cert.get("errors").and_then(Json::as_f64),
            Some(cold.report.count(Severity::Error) as f64),
            "step {step}: errors"
        );
        assert_eq!(cold.report.count(Severity::Error), 0, "step {step}");
    }

    // The placement: rebuilt from its own host per FCM.
    let live = m.placement();
    let twin = Placement::new(g, m.hw(), live.host_of().to_vec(), live.down().clone())
        .unwrap_or_else(|e| panic!("step {step}: live placement is invalid: {e:?}"));
    for h in (0..m.hw_count()).map(NodeIdx) {
        let members = |p: &Placement| p.members(h).iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(members(live), members(&twin), "step {step}: {h:?} members");
        let jobs = |p: &Placement| {
            p.admission(h)
                .jobs()
                .iter()
                .map(|j| (j.id, j.est, j.tcd, j.ct))
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(jobs(live), jobs(&twin), "step {step}: {h:?} jobs");
        let (a, b) = (live.throughput(h), twin.throughput(h));
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
            "step {step}: {h:?} throughput {a} vs {b}"
        );
    }
}

#[test]
fn fleet_growth_and_churn_match_their_from_scratch_twins() {
    let mut m = LiveModel::new("paper").expect("paper model");
    let base: Vec<String> = m.graph().nodes().map(|(_, n)| n.name.clone()).collect();
    let mut fleet = Fleet::new(0xf1ee7, &base);
    let (mut accepted, mut rejected, mut checks) = (0usize, 0usize, 0usize);
    let mut saw_csr = false;
    let mut saw_covered = false;
    let mut twin = LiveModel::from_state(&m.state_json()).expect("state loads");
    for step in 0..GROW + CHURN {
        let mutation = if step < GROW {
            fleet.grow()
        } else {
            fleet.churn()
        };
        // A twin resumed from the live state every CHECK_EVERY steps
        // applies every mutation in lockstep: state the live model
        // carries across a rejection or a long history shows up as a
        // different decision or payload.
        if step % CHECK_EVERY == 0 {
            twin = LiveModel::from_state(&m.state_json()).expect("state loads");
        }
        let (state, cert) = (m.state_json().to_string_compact(), certify_text(&m));
        let outcome = m.apply(&mutation);
        let render = |r: &Result<Json, String>| match r {
            Ok(payload) => payload.to_string_compact(),
            Err(e) => format!("error: {e}"),
        };
        assert_eq!(
            render(&outcome),
            render(&twin.apply(&mutation)),
            "step {step}: the resumed twin decided {mutation:?} differently"
        );
        match outcome {
            Ok(_) => {
                fleet.accepted(&mutation);
                accepted += 1;
                saw_csr |= m
                    .query(&Query::Dump)
                    .unwrap()
                    .get("matrix")
                    .unwrap()
                    .get("repr")
                    == Some(&Json::from("csr"));
                let contracts = m
                    .query(&Query::Certify)
                    .unwrap()
                    .get("contracts")
                    .and_then(Json::as_f64)
                    .unwrap();
                saw_covered |= contracts as usize == m.fcm_count();
                if accepted % CHECK_EVERY == 0 {
                    assert_matches_twins(&m, step);
                    checks += 1;
                }
            }
            Err(e) => {
                rejected += 1;
                assert_eq!(
                    m.state_json().to_string_compact(),
                    state,
                    "step {step}: rejected {mutation:?} ({e}) changed the state"
                );
                assert_eq!(
                    certify_text(&m),
                    cert,
                    "step {step}: rejected {mutation:?} ({e}) changed certify"
                );
            }
        }
    }
    assert_matches_twins(&m, GROW + CHURN);
    assert!(saw_csr, "the matrix never flipped to CSR");
    assert!(saw_covered, "the contracts never covered the model");
    assert!(m.fcm_count() >= 250, "only {} FCMs", m.fcm_count());
    assert!(
        rejected >= 40 && accepted >= 500,
        "accepted {accepted}, rejected {rejected}"
    );
    assert!(checks >= 25, "{checks} twin checks");
}
