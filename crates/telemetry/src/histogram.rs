//! A small log₂-bucketed histogram for span durations.

/// Histogram over `u64` samples (microseconds, in the span use) with one
/// bucket per power of two. Exact count/sum/min/max ride along so means are
/// exact and only quantiles are approximate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = 64 - value.leading_zeros().min(63) as usize - 1;
        // value 0 has 64 leading zeros -> clamped into bucket 0 with 1..2.
        self.buckets[if value == 0 { 0 } else { bucket }] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the bucket
    /// holding the q-th sample, clamped to the exact `[min, max]` so a
    /// quantile never lies outside the recorded samples. Zero when empty;
    /// `q` outside `[0, 1]` (or NaN, which clamps to 0) is clamped rather
    /// than indexing a bogus bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Inclusive upper bound of bucket `i`: bucket 0 holds `0..=1`, bucket
    /// `i` holds `2^i ..= 2^(i+1)-1`, and the last bucket is unbounded
    /// (`u64::MAX`).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Iterates `(inclusive upper bound, cumulative count)` over all 64
    /// buckets, lowest bound first. The cumulative counts are monotonically
    /// non-decreasing and the final pair carries the total sample count —
    /// exactly the shape a Prometheus `_bucket`/`_count` exposition needs.
    pub fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().scan(0u64, |acc, (i, &n)| {
            *acc += n;
            Some((Self::bucket_bound(i), *acc))
        })
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn stats_are_exact_and_quantiles_bound_samples() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
        // The median sample is 3; its bucket upper bound is >= 3 and below
        // the next sample's bucket.
        let med = h.quantile(0.5);
        assert!((3..100).contains(&med), "median bucket bound {med}");
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn quantile_edge_cases_are_hardened() {
        // Empty: every q — in range, out of range, NaN — returns 0, never a
        // bucket bound.
        let empty = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile(q), 0, "empty histogram at q={q}");
        }

        // Single sample: every quantile is the sample itself (its bucket
        // bound, 127, clamped to the max).
        let mut one = Histogram::new();
        one.record(100); // bucket 6: 64..=127
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(one.quantile(q), 100, "single-sample at q={q}");
        }

        // q=0 is the lowest occupied bucket, q=1 the highest (clamped to
        // the max); out-of-range q clamps to those, and NaN behaves like
        // q=0.
        let mut h = Histogram::new();
        h.record(2); // bucket 1: 2..=3
        h.record(1000); // bucket 9: 512..=1023
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(-5.0), h.quantile(0.0));
        assert_eq!(h.quantile(9.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
    }

    #[test]
    fn quantiles_never_exceed_the_max() {
        // One slow sweep: its log2 bucket spans 1_048_576..=2_097_151, so
        // the unclamped p90 reported 2_097_151 against a max of 1_241_922.
        let mut one = Histogram::new();
        one.record(1_241_922);
        assert_eq!(one.quantile(0.9), 1_241_922);

        // Several samples: every quantile stays inside [min, max], and the
        // top bucket's bound is clamped to the largest sample.
        let mut h = Histogram::new();
        for v in [700u64, 3, 5, 900, 1000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.9), 1000, "bucket 512..=1023 clamped to max");
        assert_eq!(h.quantile(0.5), 1000, "700 shares the top bucket");
        assert_eq!(h.quantile(0.2), 3, "bucket 2..=3 is within range");
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((h.min()..=h.max()).contains(&v), "q={q}: {v}");
        }
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_total() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, u64::MAX] {
            h.record(v);
        }
        let pairs: Vec<(u64, u64)> = h.cumulative().collect();
        assert_eq!(pairs.len(), 64);
        assert_eq!(pairs[0], (1, 2), "values 0 and 1 share bucket 0");
        assert_eq!(pairs.last().unwrap(), &(u64::MAX, h.count()));
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0, "bounds strictly increase");
            assert!(w[0].1 <= w[1].1, "counts never decrease");
        }
        // Cumulative count at bound 3 covers the four samples <= 3.
        let at3 = pairs.iter().find(|(b, _)| *b == 3).unwrap();
        assert_eq!(at3.1, 4);
    }

    #[test]
    fn zero_samples_and_merge() {
        let mut a = Histogram::new();
        a.record(0);
        a.record(7);
        let mut b = Histogram::new();
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 16);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 9);
    }
}
