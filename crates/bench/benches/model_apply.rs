//! `LiveModel::apply` on a grown model: the in-process cost of one
//! mutation at fleet scale, without socket, journal or snapshot.
//!
//! The paper model is grown to n ∈ {500, 3 000} FCMs the way the
//! `fleet_evolve` workload grows it — each added FCM has zero
//! throughput, one or two influence edges to FCMs already present and a
//! contract — and then three cases are timed, one `apply` per sample:
//!
//! * `apply/add_fcm/{n}` — a fresh contracted FCM with two influence
//!   edges and one `influenced_by` edge (so an existing row is dirtied);
//! * `apply/set_attr/{n}` — a criticality toggle on a mid-fleet FCM;
//! * `apply/remove_fcm/{n}` — removal of one of the FCMs the add case
//!   added (the add case runs first and adds exactly as many as this
//!   case removes, so the model is back at its grown size).
//!
//! The add and set_attr paths are O(degree + log n); removal still
//! rebuilds the graph and the placement until FCM slots stop shifting.
//! Honors `FCM_BENCH_QUICK=1` (fewer samples, same sizes) and
//! `FCM_BENCH_DIR` like every other suite.

use fcm_check::Contract;
use fcm_serve::proto::Mutation;
use fcm_serve::LiveModel;
use fcm_substrate::bench::Suite;
use fcm_substrate::Rng;

const SIZES: [usize; 2] = [500, 3_000];

fn add(
    name: String,
    influences: Vec<(String, f64)>,
    influenced_by: Vec<(String, f64)>,
) -> Mutation {
    Mutation::AddFcm {
        contract: Some(Contract::new(name.clone(), 0.9, 1e9, 0)),
        name,
        criticality: 1,
        throughput: 0.0,
        security: 0,
        timing: None,
        influences,
        influenced_by,
    }
}

/// The paper model grown to `n` FCMs, and the names it was grown with.
fn grown(n: usize, rng: &mut Rng) -> (LiveModel, Vec<String>) {
    let mut m = LiveModel::new("paper").expect("paper model");
    let mut names: Vec<String> = m.graph().nodes().map(|(_, v)| v.name.clone()).collect();
    while names.len() < n {
        let name = format!("f{}", names.len());
        let mut influences: Vec<(String, f64)> = Vec::new();
        for _ in 0..rng.gen_range(1usize..3) {
            let to = names[rng.gen_range(0..names.len())].clone();
            if influences.iter().all(|(t, _)| *t != to) {
                influences.push((to, rng.gen_range(0.01f64..0.3)));
            }
        }
        m.apply(&add(name.clone(), influences, Vec::new()))
            .expect("growth add is accepted");
        names.push(name);
    }
    (m, names)
}

fn main() {
    let quick = std::env::var("FCM_BENCH_QUICK").is_ok_and(|v| v == "1");
    let mut suite = Suite::new("model_apply");
    let (warmup, samples) = if quick { (1, 10) } else { (3, 30) };
    suite.sample_size(samples).warmup(warmup);

    for n in SIZES {
        let mut rng = Rng::seed_from_u64(n as u64);
        let (mut m, names) = grown(n, &mut rng);
        let mut added = Vec::new();
        suite.bench(&format!("apply/add_fcm/{n}"), || {
            let name = format!("new{}", added.len());
            let pick = |rng: &mut Rng| names[rng.gen_range(0..names.len())].clone();
            let influences = vec![(pick(&mut rng), 0.05), (pick(&mut rng), 0.02)];
            let out = m
                .apply(&add(name.clone(), influences, vec![(pick(&mut rng), 0.01)]))
                .expect("add is accepted");
            added.push(name);
            out
        });
        let mut crit = 0;
        suite.bench(&format!("apply/set_attr/{n}"), || {
            crit ^= 1;
            m.apply(&Mutation::SetAttr {
                name: names[n / 2].clone(),
                criticality: Some(crit),
                throughput: None,
                timing: None,
            })
            .expect("set_attr is accepted")
        });
        suite.bench(&format!("apply/remove_fcm/{n}"), || {
            let name = added.pop().expect("the add case added one per sample");
            m.apply(&Mutation::RemoveFcm { name })
                .expect("remove is accepted")
        });
        assert_eq!(m.fcm_count(), n, "the model is back at its grown size");
    }
    suite.finish();
}
