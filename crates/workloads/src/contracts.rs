//! Contract synthesis for the committed workloads.
//!
//! Every generator here hands its model to
//! [`fcm_check::contract::synthesize`], which produces the *tightest
//! passing* [`ContractSet`]: guarantees equal to actual row sums, relies
//! equal to exactly the interference the other guarantees entail, floors
//! equal to declared criticalities. The result certifies the workload
//! as-built — and any later drift (an edge strengthened, a criticality
//! lowered) fires the corresponding C017–C022 diagnostic.

use fcm_alloc::SwGraph;
use fcm_check::contract::synthesize;
use fcm_check::ContractSet;
use fcm_graph::{InfluenceMatrix, Matrix};

use crate::avionics;
use crate::fleet::SparseFleet;
use crate::paper;

/// The tightest passing contracts for any SW graph and its influence
/// matrix (names and criticality floors from the graph nodes).
#[must_use]
pub fn for_graph(g: &SwGraph, influence: &InfluenceMatrix) -> ContractSet {
    let names: Vec<String> = g.nodes().map(|(_, n)| n.name.clone()).collect();
    let crits: Vec<u32> = g.nodes().map(|(_, n)| n.attributes.criticality.0).collect();
    synthesize(&names, &crits, influence)
}

/// Contracts for the paper's §6 worked example (the Fig. 3 process
/// graph with its Eq. 2 derived matrix).
#[must_use]
pub fn for_paper() -> ContractSet {
    let g = paper::fig3_graph();
    let m = InfluenceMatrix::Dense(Matrix::from_graph(&g));
    for_graph(&g, &m)
}

/// Contracts for the avionics suite.
#[must_use]
pub fn for_avionics() -> ContractSet {
    let (g, _) = avionics::suite();
    let m = InfluenceMatrix::Dense(Matrix::from_graph(&g));
    for_graph(&g, &m)
}

/// Names, criticalities and contracts for a [`SparseFleet`]: process
/// `i` is `p{i}`; hubs (block heads) carry criticality 5, spokes 2 —
/// deterministic in the fleet's own parameters.
#[must_use]
pub fn for_fleet(fleet: &SparseFleet) -> (Vec<String>, Vec<u32>, ContractSet) {
    let n = fleet.processes;
    let block = fleet.hub_every.max(1);
    let names: Vec<String> = (0..n).map(|i| format!("p{i}")).collect();
    let crits: Vec<u32> = (0..n).map(|i| if i % block == 0 { 5 } else { 2 }).collect();
    let set = synthesize(&names, &crits, &fleet.influence());
    (names, crits, set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcm_check::contract::{certified_bound, covers, rely_diags, row_sum};

    #[test]
    fn synthesized_workload_contracts_pass_their_own_checks() {
        for (label, set) in [("paper", for_paper()), ("avionics", for_avionics())] {
            assert!(!set.is_empty(), "{label}");
            assert!(rely_diags(&set).is_empty(), "{label}");
            // The paper's Fig. 3 graph has a row sum of 1.3, so its
            // tightest contracts honestly decline to certify a bound
            // (C022 warns); the bound math itself must still be sound.
            let b = certified_bound(&set, 4);
            assert_eq!(b.converges, b.max_guarantee < 1.0, "{label}");
        }
    }

    #[test]
    fn fleet_contracts_cover_and_certify_by_construction() {
        let fleet = SparseFleet {
            processes: 256,
            ..SparseFleet::default()
        };
        let (names, _, set) = for_fleet(&fleet);
        assert!(covers(&names, &set));
        let influence = fleet.influence();
        for (i, name) in names.iter().enumerate() {
            let c = set.get(name).expect("covered");
            assert!(row_sum(&influence, i) <= c.guarantee);
        }
        // max_row_sum < 1 by construction ⇒ the set certifies.
        assert!(certified_bound(&set, 4).converges);
    }
}
