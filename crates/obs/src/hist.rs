//! Log-linear-bucket histograms.
//!
//! The latency distributions the observability layer records (watchdog
//! detection latency, retry backoff, per-merge pipeline cost) span many
//! orders of magnitude, so fixed-width buckets are useless and exact
//! reservoirs are too expensive for hot paths. A [`Histogram`] uses the
//! HDR-style *log-linear* scheme: values below 2⁴ get exact unit
//! buckets; every octave `[2^o, 2^(o+1))` above that is split into 16
//! linear sub-buckets, so relative bucket error is bounded by 1/16
//! (~6%) at every scale while `record` stays a constant-time index
//! computation — no allocation, no comparison ladder.
//!
//! Merging two histograms is element-wise bucket addition, which makes
//! `merge(a, b)` *exactly* equal to having recorded the union of both
//! sample streams into one histogram — the property the sweep driver
//! relies on when per-worker histograms are folded into one, and the
//! contract pinned by `tests/histogram_props.rs`.

use fcm_substrate::{Json, ToJson};

/// Linear sub-buckets per octave (2⁴): values < 16 are exact.
const SUB: u64 = 16;
/// log2(SUB).
const SUB_BITS: u32 = 4;
/// Total bucket count: 16 exact + 60 octaves × 16 sub-buckets.
pub const BUCKETS: usize = (SUB as usize) * 61;

/// A log-linear-bucket histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Records one sample. O(1): one index computation, one increment.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// The bucket index of value `v`.
    #[must_use]
    pub fn bucket_of(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros(); // >= SUB_BITS
            let group = (msb - SUB_BITS + 1) as usize;
            let sub = ((v >> (msb - SUB_BITS)) - SUB) as usize;
            group * SUB as usize + sub
        }
    }

    /// The smallest value mapping to bucket `idx` (the bucket's lower
    /// boundary; quantiles report this value).
    #[must_use]
    pub fn bucket_low(idx: usize) -> u64 {
        let (group, sub) = (idx / SUB as usize, (idx % SUB as usize) as u64);
        if group == 0 {
            sub
        } else {
            (SUB + sub) << (group - 1)
        }
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum sample; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean; `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`, nearest-rank), reported as the
    /// lower boundary of the bucket holding that rank — so the result
    /// is at most one bucket width (≤ ~6%) below the true order
    /// statistic, is monotone in `q`, and `quantile(0.0)` through
    /// `quantile(1.0)` all lie within `[bucket_low(bucket_of(min)),
    /// max]`. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Some(Self::bucket_low(idx));
            }
        }
        Some(Self::bucket_low(BUCKETS - 1))
    }

    /// Merges `other` into `self`: bucket-wise addition, so the result
    /// is exactly the histogram of the union of both sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Non-empty buckets as `(index, count)` pairs, ascending.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }

    /// Rebuilds a histogram from its [`ToJson`] form.
    ///
    /// # Errors
    ///
    /// Returns a message when a required field is missing or malformed.
    pub fn from_json(j: &Json) -> Result<Histogram, String> {
        let num = |key: &str| -> Result<u64, String> {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            j.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("histogram missing numeric '{key}'"))
        };
        let mut h = Histogram::new();
        h.count = num("count")?;
        h.sum = num("sum")?;
        h.min = match j.get("min") {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(Json::Num(v)) => *v as u64,
            _ => u64::MAX,
        };
        h.max = match j.get("max") {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(Json::Num(v)) => *v as u64,
            _ => 0,
        };
        let pairs = j
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or("histogram missing 'buckets' array")?;
        for pair in pairs {
            let cells = pair.as_array().ok_or("bucket entry is not a pair")?;
            if cells.len() != 2 {
                return Err("bucket entry is not a [index, count] pair".into());
            }
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let (idx, n) = (
                cells[0].as_f64().ok_or("bucket index not numeric")? as usize,
                cells[1].as_f64().ok_or("bucket count not numeric")? as u64,
            );
            if idx >= BUCKETS {
                return Err(format!("bucket index {idx} out of range"));
            }
            h.buckets[idx] = n;
        }
        Ok(h)
    }
}

impl ToJson for Histogram {
    /// Sparse form: exact `count`/`sum`/`min`/`max` plus non-empty
    /// `[index, count]` bucket pairs. Bucket boundaries are implied by
    /// the fixed log-linear scheme, so indices round-trip losslessly.
    ///
    /// JSON numbers are `f64`, so `sum`/`min`/`max` round-trip exactly
    /// only up to 2⁵³ (the substrate JSON number model). Nanosecond
    /// observations sit orders of magnitude below that (2⁵³ ns ≈ 104
    /// days); `tests/histogram_props.rs` pins the contract over this
    /// domain.
    fn to_json(&self) -> Json {
        Json::object()
            .set("count", self.count)
            .set("sum", self.sum)
            .set("min", self.min().map(|v| Json::Num(v as f64)))
            .set("max", self.max().map(|v| Json::Num(v as f64)))
            .set(
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(i, n)| Json::array([i as u64, n]))
                        .collect(),
                ),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_sixteen() {
        for v in 0..SUB {
            assert_eq!(Histogram::bucket_of(v), v as usize);
            assert_eq!(Histogram::bucket_low(v as usize), v);
        }
    }

    #[test]
    fn bucket_low_is_the_smallest_value_in_its_bucket() {
        for idx in 0..BUCKETS {
            let low = Histogram::bucket_low(idx);
            assert_eq!(Histogram::bucket_of(low), idx, "low of bucket {idx}");
            if low > 0 {
                assert!(Histogram::bucket_of(low - 1) < idx);
            }
        }
    }

    #[test]
    fn bucket_error_is_bounded() {
        for v in [17u64, 100, 1_000, 123_456, 10_u64.pow(12), u64::MAX / 3] {
            let low = Histogram::bucket_low(Histogram::bucket_of(v));
            assert!(low <= v);
            #[allow(clippy::cast_precision_loss)]
            let rel = (v - low) as f64 / v as f64;
            assert!(rel <= 1.0 / 16.0 + 1e-12, "v={v} low={low} rel={rel}");
        }
    }

    #[test]
    fn quantiles_of_known_stream() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        let p50 = h.quantile(0.5).unwrap();
        // True median 50 lives in bucket [48, 52).
        assert!((45..=50).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(0.0).unwrap() <= h.quantile(1.0).unwrap());
        assert!(h.quantile(1.0).unwrap() <= 100);
    }

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn merge_equals_union() {
        let (mut a, mut b, mut u) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [0u64, 3, 17, 900, 1_000_000] {
            a.record(v);
            u.record(v);
        }
        for v in [5u64, 17, 40_000] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn json_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 1023, 1024, 99_999] {
            h.record(v);
        }
        let j = h.to_json();
        let text = j.to_string_compact();
        let back = Histogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(Histogram::from_json(&Json::parse("{}").unwrap()).is_err());
        let no_pairs = Json::parse(r#"{"count":1,"sum":2,"buckets":[3]}"#).unwrap();
        assert!(Histogram::from_json(&no_pairs).is_err());
        let bad_idx = Json::parse(r#"{"count":1,"sum":2,"buckets":[[99999,1]]}"#).unwrap();
        assert!(Histogram::from_json(&bad_idx).is_err());
    }
}
