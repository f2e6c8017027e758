//! The crash-point durability matrix as tier-1 tests: every IO site the
//! golden session reaches must recover prefix-consistently after a
//! simulated crash — zero acknowledged mutations lost, recovered state
//! byte-identical to the reference trajectory at the recovered seq.
//!
//! This is the exhaustive form of the single-point kill -9 drill in
//! scripts/verify.sh; the engine lives in `fcm_serve::drill`, also
//! behind the `crashdrill` bin.

use fcm_serve::drill;

fn assert_clean(model: &str, quick: bool) {
    let report = drill::run_matrix(model, quick).expect("matrix runs");
    assert!(
        !report.trace.is_empty(),
        "{model}: session enumerated no IO sites"
    );
    let failures: Vec<String> = report
        .cases
        .iter()
        .filter_map(|c| {
            c.failure
                .as_ref()
                .map(|why| format!("hit {} at {} (torn={}): {why}", c.hit, c.site, c.torn))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{model}: {} of {} crash points violated durability:\n{}",
        failures.len(),
        report.cases.len(),
        failures.join("\n")
    );
}

#[test]
fn every_crash_point_recovers_prefix_consistently_on_paper() {
    assert_clean("paper", false);
}

#[test]
fn every_crash_point_recovers_prefix_consistently_on_avionics() {
    assert_clean("avionics", false);
}

#[test]
fn matrix_covers_all_write_flush_rename_sites() {
    let report = drill::run_matrix("paper", true).expect("matrix runs");
    for site in [
        "journal.append.write",
        "journal.append.flush",
        "journal.rotate",
        "snapshot.tmp.write",
        "snapshot.tmp.fsync",
        "snapshot.rename",
        "snapshot.dir.fsync",
        "journal.retire",
    ] {
        assert!(
            report.cases.iter().any(|c| c.site == site),
            "no crash case at {site}"
        );
    }
    // Each snapshot-half site is also crashed while the next mutation's
    // line is past the cut, and only those sites are.
    for site in [
        "snapshot.tmp.write",
        "snapshot.tmp.fsync",
        "snapshot.rename",
        "snapshot.dir.fsync",
        "journal.retire",
    ] {
        assert!(
            report.cases.iter().any(|c| c.in_flight && c.site == site),
            "no in-flight crash case at {site}"
        );
    }
    assert!(report
        .cases
        .iter()
        .all(|c| !c.in_flight || c.site.starts_with("snapshot.") || c.site == "journal.retire"));
    // Torn variants exist exactly for byte-write sites.
    assert!(report
        .cases
        .iter()
        .any(|c| c.torn && c.site == "journal.append.write"));
    assert!(report
        .cases
        .iter()
        .any(|c| c.torn && c.site == "snapshot.tmp.write"));
    assert!(report
        .cases
        .iter()
        .all(|c| !c.torn || c.site.ends_with(".write")));
}
