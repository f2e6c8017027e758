//! `LiveModel::apply` on a grown model: the in-process cost of one
//! mutation at fleet scale, without socket or journal, and the cost of
//! one snapshot of that model and of loading it back.
//!
//! The paper model is grown to n ∈ {500, 3 000} FCMs the way the
//! `fleet_evolve` workload grows it — each added FCM has zero
//! throughput, one or two influence edges to FCMs already present and a
//! contract — and then these cases are timed, one operation per sample:
//!
//! * `apply/add_fcm/{n}` — a fresh contracted FCM with two influence
//!   edges and one `influenced_by` edge (so an existing row is dirtied);
//! * `apply/set_attr/{n}` — a criticality toggle on a mid-fleet FCM;
//! * `apply/remove_fcm/{n}` — removal of a grown FCM from the middle of
//!   the index order, so that every later FCM's index shifts (the add
//!   case runs first and adds exactly as many as this case removes, so
//!   the model is back at its grown size);
//! * `state_text/{n}` — `LiveModel::state_text` alone: the state
//!   document built in memory, no I/O;
//! * `snapshot/{n}` — a whole snapshot on one thread:
//!   `LiveModel::state_text` plus `Store::snapshot_text` into a temp
//!   directory (rotation, envelope, write, fsync, rename, directory
//!   fsync, retirement);
//! * `snapshot_writer/{n}` — what the daemon's writer pays per
//!   snapshot: `Store::rotate`, `LiveModel::state_cut` and the handoff
//!   to a persistence thread over a one-slot channel. The thread's
//!   render and write (`Snapshotter::write_cut`) are waited for outside
//!   the timed span, as the writer waits for them only at the next cut;
//! * `load/{n}` — the snapshot half of `--resume`: `read_recovered` of
//!   that directory (which reads the snapshot and decodes its state in
//!   one pass, rebuilding the Eq. 4 matrix from the edges) plus
//!   `Recovered::into_model`;
//! * `load_v1/{n}` — the same for a snapshot of the same state in the v1
//!   form, which also holds the matrix: the section is read as well,
//!   and checked against the rebuild.
//!
//! The add and set_attr paths are O(degree + log n); removal edits the
//! graph, the placement and the name index in place, shifting the
//! indices past the removed FCM. A quick run takes fewer samples at
//! the same sizes.

use fcm_check::Contract;
use fcm_serve::proto::Mutation;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use fcm_serve::store::{read_recovered, Store};
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
    let mut suite = Suite::new("model_apply");
    let (warmup, samples) = if suite.is_quick() { (1, 10) } else { (3, 30) };
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
        // Grown FCMs past the set_attr target, from the middle on.
        let mut middle = names[n / 2 + 1..].iter();
        suite.bench(&format!("apply/remove_fcm/{n}"), || {
            let name = middle.next().expect("more grown FCMs than samples").clone();
            m.apply(&Mutation::RemoveFcm { name })
                .expect("remove is accepted")
        });
        assert_eq!(m.fcm_count(), n, "the model is back at its grown size");
        suite.bench(&format!("state_text/{n}"), || m.state_text());
        let dir =
            std::env::temp_dir().join(format!("fcm-bench-snapshot-{n}-{}", std::process::id()));
        let mut store = Store::create_fresh(&dir).expect("temp state dir");
        suite.bench(&format!("snapshot/{n}"), || {
            store
                .snapshot_text(m.seq(), &m.state_text())
                .expect("snapshot is written")
        });
        let snapshotter = store.snapshotter();
        let (handoff, cuts) = mpsc::sync_channel(1);
        let (written, done) = mpsc::channel();
        let persistence = std::thread::spawn(move || {
            for cut in cuts {
                snapshotter.write_cut(&cut).expect("snapshot is written");
                written.send(()).expect("the bench waits");
            }
        });
        let mut writer_ns = Vec::new();
        for _ in 0..warmup + samples {
            let t0 = Instant::now();
            store.rotate().expect("the journal rotates");
            handoff.send(m.state_cut()).expect("handoff");
            writer_ns.push(t0.elapsed().as_nanos() as u64);
            done.recv().expect("the snapshot is durable");
        }
        drop(handoff);
        persistence.join().expect("persistence thread");
        suite.record(
            &format!("snapshot_writer/{n}"),
            &writer_ns[warmup as usize..],
        );
        drop(store);
        let v1_dir = dir.with_extension("v1");
        Store::create_fresh(&v1_dir)
            .and_then(|mut v1| {
                let state = m.state_json().set("schema", "fcm-serve-state/v1");
                v1.snapshot(m.seq(), &state)
            })
            .expect("v1 snapshot is written");
        let want = m.state_json();
        let load = |dir: &Path| {
            read_recovered(dir)
                .and_then(|rec| rec.into_model("paper"))
                .expect("snapshot loads")
        };
        suite.bench(&format!("load/{n}"), || load(&dir));
        suite.bench(&format!("load_v1/{n}"), || load(&v1_dir));
        assert_eq!(load(&dir).state_json(), want);
        assert_eq!(load(&v1_dir).state_json(), want);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&v1_dir);
    }
    suite.finish();
}
