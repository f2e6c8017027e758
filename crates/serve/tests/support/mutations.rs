//! The random mutation generator shared by `tests/protocol_props.rs`
//! and the `model` unit tests. Both include this file by path; the
//! including module supplies `Mutation` (`fcm_serve::proto::Mutation`
//! seen from outside the crate, `crate::proto::Mutation` from inside).

use fcm_check::Contract;
use fcm_substrate::Rng;

use super::Mutation;

/// A random valid-shaped mutation over a name pool (not necessarily
/// *applicable* — unknown names and duplicates are part of the space).
pub fn random_mutation(rng: &mut Rng, pool: &[String], fresh: &mut u64) -> Mutation {
    match rng.gen_range(0u64..5) {
        0 => {
            let name = format!("q{}", *fresh);
            *fresh += 1;
            let influences = (0..rng.gen_range(0usize..3))
                .map(|_| {
                    (
                        pool[rng.gen_range(0usize..pool.len())].clone(),
                        rng.gen_range(0.05f64..0.95),
                    )
                })
                .collect();
            let contract = rng.gen_bool(0.4).then(|| {
                let mut c = Contract::new(
                    name.clone(),
                    rng.gen_range(0.0f64..1.5),
                    rng.gen_range(0.0f64..10.0),
                    rng.gen_range(0u32..5),
                );
                if rng.gen_bool(0.5) {
                    c = c.with_cap(
                        pool[rng.gen_range(0usize..pool.len())].clone(),
                        rng.gen_range(0.0f64..0.5),
                    );
                }
                c
            });
            Mutation::AddFcm {
                name,
                criticality: rng.gen_range(0u32..5),
                throughput: rng.gen_range(0.0f64..2.0),
                security: rng.gen_range(0u64..4) as u8,
                timing: rng
                    .gen_bool(0.3)
                    .then(|| (0, 1000, rng.gen_range(1u64..50))),
                influences,
                influenced_by: Vec::new(),
                contract,
            }
        }
        1 => Mutation::RemoveFcm {
            name: pool[rng.gen_range(0usize..pool.len())].clone(),
        },
        2 => Mutation::SetAttr {
            name: pool[rng.gen_range(0usize..pool.len())].clone(),
            criticality: rng.gen_bool(0.5).then(|| rng.gen_range(0u32..5)),
            throughput: rng.gen_bool(0.5).then(|| rng.gen_range(0.0f64..1.0)),
            timing: rng.gen_bool(0.3).then(|| {
                rng.gen_bool(0.5)
                    .then(|| (0u64, 1000, rng.gen_range(1u64..50)))
            }),
        },
        3 => Mutation::FailNode {
            node: format!("hw{}", rng.gen_range(0u64..6)),
        },
        _ => Mutation::RestoreNode {
            node: format!("hw{}", rng.gen_range(0u64..6)),
        },
    }
}
