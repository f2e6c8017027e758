//! Property tests for the live-telemetry additions: rolling-window
//! histograms ([`fcm_obs::RollingHist`]) and the `metrics`-over-the-
//! wire JSON round trip ([`fcm_obs::MetricsSnapshot`]). Replay failures
//! with `FCM_PROP_SEED=<seed> FCM_PROP_SIZE=<size> cargo test -q <name>`.

use fcm_obs::hist::Histogram;
use fcm_obs::{MetricsSnapshot, RollingHist};
use fcm_substrate::prop::{check, Config};
use fcm_substrate::rng::Rng;
use fcm_substrate::{prop_assert, prop_assert_eq, Json};

/// Latency-shaped sample stream: mixes sub-bucket exact values with
/// mid-range and large samples so window boundaries land in every
/// bucket regime.
fn gen_samples(rng: &mut Rng, size: usize) -> Vec<u64> {
    let n = rng.gen_range(0..size.max(1) + 1);
    (0..n)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => rng.gen_range(0u64..16),
            1 => rng.gen_range(0u64..1_000),
            2 => rng.gen_range(0u64..1_000_000),
            _ => rng.gen::<u64>() >> rng.gen_range(18u32..40),
        })
        .collect()
}

#[test]
fn merging_rotated_windows_reproduces_the_lifetime_histogram() {
    check(
        "windows_merge_to_lifetime",
        Config::default(),
        |rng, size| (gen_samples(rng, size), rng.gen_range(1u64..64)),
        |(samples, window_every)| {
            // Retention large enough that nothing is evicted: the
            // merge-equals-lifetime invariant is exact.
            let mut r = RollingHist::new(*window_every, samples.len() + 1);
            for &v in samples {
                r.record(v);
            }
            prop_assert_eq!(r.merged_retained(), r.lifetime().clone());
            let expected_rotations = samples.len() as u64 / r.window_every();
            prop_assert_eq!(r.rotations(), expected_rotations);
            // Every completed window holds exactly `window_every`
            // samples; the in-progress one holds the remainder.
            for w in r.windows() {
                prop_assert_eq!(w.count(), r.window_every());
            }
            prop_assert_eq!(r.current().count(), samples.len() as u64 % r.window_every());
            Ok(())
        },
    );
}

#[test]
fn window_quantiles_reflect_the_window_not_the_lifetime() {
    check(
        "window_quantiles_local",
        Config::default(),
        gen_samples,
        |samples| {
            let mut r = RollingHist::new(8, 4);
            for &v in samples {
                r.record(v);
            }
            if let Some(w) = r.last_window() {
                let lo = w
                    .min()
                    .map(|m| Histogram::bucket_low(Histogram::bucket_of(m)));
                prop_assert!(w.quantile(0.5).unwrap() >= lo.unwrap());
                prop_assert!(w.quantile(0.99).unwrap() <= w.max().unwrap());
            }
            Ok(())
        },
    );
}

#[test]
fn metrics_snapshot_round_trips_bitwise_through_substrate_json() {
    check(
        "metrics_wire_round_trip",
        Config::default(),
        |rng, size| {
            let mut snap = MetricsSnapshot::default();
            let n = rng.gen_range(0..size.clamp(1, 24) + 1);
            for i in 0..n {
                match rng.gen_range(0u32..3) {
                    0 => {
                        // Counters stay in the exact-integer JSON domain.
                        snap.counters
                            .insert(format!("c.{i}"), rng.gen::<u64>() >> 12);
                    }
                    1 => {
                        // Arbitrary finite f64 bits: the substrate's
                        // shortest-exact formatter must preserve them.
                        let v = f64::from_bits(rng.gen::<u64>());
                        let v = if v.is_finite() { v } else { rng.gen_f64() };
                        snap.gauges.insert(format!("g.{i}"), v);
                    }
                    _ => {
                        let mut h = Histogram::new();
                        for _ in 0..rng.gen_range(0u32..50) {
                            h.record(rng.gen::<u64>() >> rng.gen_range(18u32..40));
                        }
                        snap.hists.insert(format!("h.{i}"), h);
                    }
                }
            }
            snap
        },
        |snap| {
            let text = snap.to_json().to_string_compact();
            let back = MetricsSnapshot::from_json(&Json::parse(&text).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            // Bitwise equality, including gauge f64 payloads.
            prop_assert_eq!(back.counters.clone(), snap.counters.clone());
            prop_assert_eq!(back.hists.clone(), snap.hists.clone());
            prop_assert_eq!(back.gauges.len(), snap.gauges.len());
            for (k, v) in &snap.gauges {
                let b = back.gauges.get(k).copied();
                prop_assert_eq!(b.map(f64::to_bits), Some(v.to_bits()), "gauge {}", k);
            }
            Ok(())
        },
    );
}
