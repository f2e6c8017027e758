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
//!   gating path.
//!
//! Both run the global phase (dangling scan, rely entailment, bound
//! fold, report sort) every pass — that O(n) tail is deliberately
//! *inside* the timed region, so the speedup reported is the honest
//! end-to-end ratio, not just the row-arithmetic ratio. The artefact's
//! `overhead` object carries `speedup_{n}` = full median / incremental
//! median; the acceptance bound wants `speedup_10000` ≥ 10.
//!
//! Honors `FCM_BENCH_QUICK=1` (fewer samples, same grid) and
//! `FCM_BENCH_DIR` like every other suite.

use fcm_check::{CertView, Certifier, Dirty};
use fcm_substrate::bench::Suite;
use fcm_substrate::Json;
use fcm_workloads::contracts::for_fleet;
use fcm_workloads::fleet::SparseFleet;

const SIZES: [usize; 3] = [256, 2_048, 10_000];

fn main() {
    let quick = std::env::var("FCM_BENCH_QUICK").is_ok_and(|v| v == "1");

    let mut suite = Suite::new("contract_cert");
    suite.sample_size(if quick { 3 } else { 10 }).warmup(1);

    for n in SIZES {
        let fleet = SparseFleet {
            processes: n,
            ..SparseFleet::default()
        };
        let influence = fleet.influence();
        let (names, mut crits, contracts) = for_fleet(&fleet);

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
    }

    let median = |name: &str| {
        suite
            .results()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.median_ns)
            .expect("benchmark ran")
    };
    let mut overhead = Json::object();
    for n in SIZES {
        let (full, inc) = (
            median(&format!("full/{n}")),
            median(&format!("incremental/{n}")),
        );
        let speedup = if inc > 0.0 { full / inc } else { 0.0 };
        println!("n={n}: full {full:.0} ns, incremental {inc:.0} ns, speedup {speedup:.1}x");
        overhead = overhead.set(&format!("speedup_{n}"), speedup);
    }

    let artifact = suite.to_artifact().set("overhead", overhead);
    let dir = std::env::var("FCM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_contract_cert.json");
    let mut text = artifact.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("write bench artifact");
    println!("wrote {}", path.display());
}
