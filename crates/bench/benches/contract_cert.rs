//! Full vs incremental contract certification (ISSUE 10 acceptance).
//!
//! Times one certification pass over a [`SparseFleet`] with synthesized
//! contracts at n ∈ {256, 2048, 10 000}:
//!
//! * `full/{n}` — a cold [`Certifier`] re-verifies every FCM (the cost
//!   `checktool --contracts` pays, and what `fcm-serve` would pay per
//!   mutation without the cache);
//! * `incremental/{n}` — a warm certifier after a single-FCM edit (one
//!   criticality toggled), re-verifying only the dirty row and reusing
//!   every other cached verdict, exactly the `fcm-serve` `set_attr`
//!   gating path;
//! * `insert/{n}` — a warm certifier after one appended FCM (a new empty
//!   row with its contract, `Certifier::insert_row`), the `fcm-serve`
//!   `add_fcm` gating path. Each sample appends another FCM, so the
//!   model ends a few rows past `n`.
//!
//! Every pass runs the global phase on the running aggregates and
//! assembles the report; the fleet's contracts cover the model, so the
//! O(n) C019 rely fold runs too, and it stays *inside* the timed region
//! — the speedup reported is the honest end-to-end ratio, not just the
//! row-arithmetic ratio. The artefact's
//! `overhead` object carries `speedup_{n}` = full median / incremental
//! median; the acceptance bound wants `speedup_10000` ≥ 10.
//!
//! A quick run takes fewer samples over the same grid.

use fcm_check::{CertView, Certifier, Contract, Dirty};
use fcm_substrate::bench::Suite;
use fcm_workloads::contracts::for_fleet;
use fcm_workloads::fleet::SparseFleet;

const SIZES: [usize; 3] = [256, 2_048, 10_000];

fn main() {
    let mut suite = Suite::new("contract_cert");
    let samples = if suite.is_quick() { 3 } else { 10 };
    suite.sample_size(samples).warmup(1);

    for n in SIZES {
        let fleet = SparseFleet {
            processes: n,
            ..SparseFleet::default()
        };
        let mut influence = fleet.influence();
        let (mut names, mut crits, mut contracts) = for_fleet(&fleet);

        suite.bench(&format!("full/{n}"), || {
            let view = CertView {
                model: "fleet",
                names: &names,
                crits: &crits,
                influence: &influence,
                contracts: &contracts,
            };
            let cert = Certifier::new().certify(&view, Dirty::Full, 1);
            assert_eq!(cert.verified, n, "cold pass verifies every FCM");
            cert.report.diagnostics.len()
        });

        // Warm the cache once, then time single-row recertification
        // after a real edit (the criticality toggle makes the row's
        // state hash stale, so the verdict is recomputed, not reused).
        let mut certifier = Certifier::new();
        let view = CertView {
            model: "fleet",
            names: &names,
            crits: &crits,
            influence: &influence,
            contracts: &contracts,
        };
        certifier.certify(&view, Dirty::Full, 1);
        let dirty = n / 2;
        let crit = crits[dirty];
        suite.bench(&format!("incremental/{n}"), || {
            crits[dirty] ^= 1;
            let view = CertView {
                model: "fleet",
                names: &names,
                crits: &crits,
                influence: &influence,
                contracts: &contracts,
            };
            let cert = certifier.certify(&view, Dirty::Rows(&[dirty]), 1);
            assert_eq!(
                (cert.verified, cert.reused),
                (1, n - 1),
                "a single-FCM edit re-verifies exactly one row"
            );
            cert.report.diagnostics.len()
        });
        crits[dirty] = crit;
        let view = CertView {
            model: "fleet",
            names: &names,
            crits: &crits,
            influence: &influence,
            contracts: &contracts,
        };
        assert!(certifier.certify(&view, Dirty::Rows(&[dirty]), 1).certified);

        // Appended names sort after every fleet name, so the contract
        // set appends too. A zero guarantee leaves every other FCM's
        // entailed interference, and so the C019 verdicts, as they were.
        suite.bench(&format!("insert/{n}"), || {
            let name = format!("z{}", names.len());
            influence.push_row_col(&[], &[]);
            contracts.insert(Contract::new(name.clone(), 0.0, 1e9, 0));
            certifier.insert_row(names.len(), &name);
            names.push(name);
            crits.push(1);
            let view = CertView {
                model: "fleet",
                names: &names,
                crits: &crits,
                influence: &influence,
                contracts: &contracts,
            };
            let cert = certifier.certify(&view, Dirty::Rows(&[]), 1);
            assert_eq!(cert.verified, 1, "an append verifies its own row");
            assert!(cert.certified, "{}", cert.report.render());
            cert.report.diagnostics.len()
        });
    }

    for n in SIZES {
        let full = suite.median(&format!("full/{n}"));
        let inc = suite.median(&format!("incremental/{n}"));
        let speedup = if inc > 0.0 { full / inc } else { 0.0 };
        println!("n={n}: full {full:.0} ns, incremental {inc:.0} ns, speedup {speedup:.1}x");
        suite.overhead(&format!("speedup_{n}"), speedup);
    }
    suite.finish();
}
