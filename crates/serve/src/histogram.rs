//! A hand-rolled log-bucket latency histogram.
//!
//! Serving tail latency (p99/p999) cannot be tracked by keeping every
//! sample (millions per second) nor by a plain mean (tails vanish). The
//! standard answer is HDR-style logarithmic bucketing; offline, so this
//! is the minimal reimplementation: values 0–7 ns get exact buckets, and
//! every octave above that is split into 4 linear sub-buckets, giving a
//! worst-case quantile error of ~25% of the value — more than enough to
//! tell a 2 µs p99 from a 200 µs one — in 256 fixed `u64` counters.
//! Recording is branch-light and allocation-free; merging is element-wise
//! addition, so per-thread histograms combine losslessly.

use std::fmt;

/// Buckets: indices 0..8 are exact (value = index); above that, octave
/// `o` (values `2^o..2^(o+1)`) maps to indices `4o..4o+4`.
const BUCKETS: usize = 256;

/// A fixed-size logarithmic histogram of `u64` samples (nanoseconds, by
/// serving convention).
#[derive(Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

fn bucket_of(value: u64) -> usize {
    if value < 8 {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as usize; // >= 3
    let sub = ((value >> (octave - 2)) & 3) as usize;
    octave * 4 + sub
}

/// The lower bound of a bucket's value range (the quantile estimate
/// reported for samples in it).
fn bucket_floor(index: usize) -> u64 {
    if index < 8 {
        return index as u64;
    }
    let octave = index / 4;
    let sub = (index % 4) as u64;
    (1u64 << octave) + (sub << (octave - 2))
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The largest sample recorded exactly (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at percentile `p` (0–100): the floor of the bucket
    /// containing the `ceil(p% · count)`-th smallest sample, clamped to
    /// the exact maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(index).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Adds every sample of `other` into `self` (lossless: buckets are
    /// element-wise added).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// One JSON object line (`label`, `count`, `p50`…`max` in ns) — the
    /// artifact format the CI smoke uploads.
    pub fn to_json(&self, label: &str) -> String {
        format!(
            r#"{{"label": "{}", "count": {}, "p50_ns": {}, "p99_ns": {}, "p999_ns": {}, "max_ns": {}}}"#,
            label,
            self.count,
            self.p50(),
            self.p99(),
            self.p999(),
            self.max
        )
    }
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_in_range() {
        let mut prev = 0;
        for value in (0..64).map(|s| 1u64 << s).chain(0..4096) {
            let b = bucket_of(value);
            assert!(b < BUCKETS, "value {value} → bucket {b}");
            assert!(bucket_floor(b) <= value, "floor above value {value}");
            let _ = prev;
            prev = b;
        }
        // Monotone over an exhaustive small range.
        for value in 1..100_000u64 {
            assert!(bucket_of(value) >= bucket_of(value - 1), "at {value}");
        }
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile(100.0), 7);
        assert_eq!(h.p50(), 2);
    }

    #[test]
    fn quantile_error_is_bounded() {
        // A uniform spread: each quantile estimate must be within one
        // sub-bucket (≤ 25%) of the true value.
        let mut h = LogHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, truth) in [(50.0, 50_000u64), (99.0, 99_000), (99.9, 99_900)] {
            let got = h.percentile(p);
            let err = (got as f64 - truth as f64).abs() / truth as f64;
            assert!(err <= 0.25, "p{p}: got {got}, truth {truth}");
        }
        assert_eq!(h.max(), 100_000);
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in 0..1000u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.record(v * 17 % 4096);
            all.record(v * 17 % 4096);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        for p in [10.0, 50.0, 90.0, 99.0, 99.9] {
            assert_eq!(a.percentile(p), all.percentile(p), "p{p}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn json_line_has_the_artifact_fields() {
        let mut h = LogHistogram::new();
        h.record(1000);
        let line = h.to_json("serve");
        for field in [
            "\"label\"",
            "\"count\"",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"p999_ns\"",
            "\"max_ns\"",
        ] {
            assert!(line.contains(field), "{line}");
        }
    }
}
