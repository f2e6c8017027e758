//! Bounds the overhead of enabled observability on real experiments.
//!
//! Runs E1 (heuristic ablation) and E14 (recovery policy sweep) at
//! QUICK scale with `fcm-obs` disabled, then enabled, and embeds the
//! median-over-median overhead ratios in the artefact's `overhead`
//! object (`0.03` = 3% slower with tracing on). The observation
//! contract targets **< 5%** overhead with recording enabled — the
//! ratio is printed so regressions are visible in the bench log, and
//! the artefact records it for trend tracking across PRs.
//!
//! The timed region deliberately excludes the export: recording is the
//! per-event hot path, draining/writing the log happens once at
//! process exit.

use fcm_bench::experiments::{self, Scale};
use fcm_substrate::bench::Suite;
use fcm_substrate::Json;

fn main() {
    let scale = Scale::QUICK;
    let mut suite = Suite::new("obs_overhead");
    // E1 at QUICK scale is seconds per iteration; 5 samples with a
    // median comparison is plenty to spot an overhead regression.
    suite.sample_size(5).warmup(1);

    assert!(!fcm_obs::enabled(), "benches must start with obs off");
    suite.bench("e1/obs_off", || experiments::e1(scale).to_string());
    suite.bench("e14/obs_off", || experiments::e14(scale).to_string());

    fcm_obs::init(fcm_obs::ObsConfig::default());
    suite.bench("e1/obs_on", || experiments::e1(scale).to_string());
    suite.bench("e14/obs_on", || experiments::e14(scale).to_string());
    fcm_obs::set_enabled(false);
    // Drop the recorded state: this bench measures recording cost, the
    // data itself is not the artefact.
    let (spans, _) = fcm_obs::span::drain();
    let metrics = fcm_obs::metrics::drain();

    let median = |name: &str| {
        suite
            .results()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.median_ns)
            .expect("benchmark ran")
    };
    let mut overhead = Json::object();
    for exp in ["e1", "e14"] {
        let (off, on) = (
            median(&format!("{exp}/obs_off")),
            median(&format!("{exp}/obs_on")),
        );
        let ratio = if off > 0.0 { on / off - 1.0 } else { 0.0 };
        println!("overhead {exp}: {:.2}% (target < 5%)", ratio * 100.0);
        overhead = overhead.set(exp, ratio);
    }
    println!(
        "recorded while enabled: {} spans, {} counters, {} histograms",
        spans.len(),
        metrics.counters.len(),
        metrics.hists.len()
    );

    // Suite::finish would write the plain artefact; this bench appends
    // the overhead object first, so write it by hand.
    let artifact = suite.to_artifact().set("overhead", overhead);
    let dir = std::env::var("FCM_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_obs_overhead.json");
    let mut text = artifact.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("write bench artifact");
    println!("wrote {}", path.display());
}
