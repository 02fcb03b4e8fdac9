//! A std-only log-linear latency histogram (HDR-style).
//!
//! Values below 128 get one exact bucket each. Above that, every power
//! of two `[2^e, 2^(e+1))` is split into 128 equal sub-buckets, so a
//! bucket spans at most 1/128 of its lower bound and reporting its
//! midpoint is within 0.4% of any value in it. Every `u64` fits in 7424
//! buckets (58 KiB), so recording never allocates or saturates.

use std::time::Duration;

/// Sub-bucket bits per power of two: 2^7 = 128 linear sub-buckets.
const SUB_BITS: u32 = 7;
const SUB_COUNT: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_COUNT as usize;

/// Counts of recorded values, mergeable across connections.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket of `value`: exact below 128, then 128 per power of two.
fn index_of(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let shift = 63 - value.leading_zeros() - SUB_BITS;
    let sub = (value >> shift) - SUB_COUNT;
    ((u64::from(shift) + 1) * SUB_COUNT + sub) as usize
}

/// Inclusive value range `[low, high]` covered by bucket `index`.
fn range_of(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB_COUNT {
        return (index, index);
    }
    let shift = index / SUB_COUNT - 1;
    let low = (SUB_COUNT + index % SUB_COUNT) << shift;
    (low, low + ((1u64 << shift) - 1))
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[index_of(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank position of quantile `q` (in `0..=1`): the 1-based
    /// rank of the sample an exact sort would report.
    fn rank(&self, q: f64) -> u64 {
        ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total.max(1))
    }

    /// Samples strictly above the quantile-`q` sample, the number a
    /// reader needs to judge how well the percentile is supported.
    #[must_use]
    pub fn beyond(&self, q: f64) -> u64 {
        self.total - self.rank(q).min(self.total)
    }

    /// The quantile-`q` value (nearest rank), as the midpoint of its
    /// bucket clamped to the recorded range; `0` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = self.rank(q);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let (low, high) = range_of(index);
                return (low + (high - low) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// [`Self::quantile`] in microseconds, for nanosecond samples.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcf_hash::SplitMix64;

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn check_against_sort(samples: &[u64]) {
        let mut hist = Histogram::new();
        for &s in samples {
            hist.record(s);
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            let want = exact(&sorted, q) as f64;
            let got = hist.quantile(q) as f64;
            let err = (got - want).abs() / want.max(1.0);
            assert!(err <= 0.01, "q={q}: got {got}, exact {want}, error {err}");
        }
    }

    #[test]
    fn bucket_ranges_tile_the_value_space() {
        for value in (0..5000u64).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) - 1]) {
            let (low, high) = range_of(index_of(value));
            assert!(
                low <= value && value <= high,
                "{value} not in [{low}, {high}]"
            );
            assert!(
                (high - low) as f64 <= low as f64 / 128.0,
                "bucket too wide at {value}"
            );
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn uniform_samples_match_an_exact_sort_within_one_percent() {
        let mut rng = SplitMix64::new(11);
        let samples: Vec<u64> = (0..50_000)
            .map(|_| 1 + rng.next_below(1_000_000_000))
            .collect();
        check_against_sort(&samples);
    }

    #[test]
    fn heavy_tailed_samples_match_an_exact_sort_within_one_percent() {
        // Pareto(α = 1.1) scaled to a 20 µs floor: most samples near
        // the floor, a tail reaching seconds.
        let mut rng = SplitMix64::new(12);
        let samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                (20_000.0 / (1.0 - u).max(1e-12).powf(1.0 / 1.1)) as u64
            })
            .collect();
        check_against_sort(&samples);
    }

    #[test]
    fn merge_equals_the_union() {
        let mut rng = SplitMix64::new(13);
        let samples: Vec<u64> = (0..10_000).map(|_| rng.next_below(1 << 30)).collect();
        let (left, right) = samples.split_at(3_000);
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut union = Histogram::new();
        left.iter().for_each(|&s| a.record(s));
        right.iter().for_each(|&s| b.record(s));
        samples.iter().for_each(|&s| union.record(s));
        a.merge(&b);
        assert_eq!(a.counts, union.counts);
        assert_eq!(
            (a.count(), a.min, a.max),
            (union.count(), union.min, union.max)
        );
    }

    #[test]
    fn sample_counts_are_exact() {
        let mut hist = Histogram::new();
        assert_eq!(hist.quantile(0.5), 0);
        for value in 1..=1000u64 {
            hist.record(value);
        }
        assert_eq!(hist.count(), 1000);
        assert_eq!(hist.beyond(0.99), 10);
        assert_eq!(hist.beyond(0.999), 1);
        assert_eq!(hist.beyond(0.5), 500);
        assert_eq!(hist.quantile(0.5), 500);
        assert_eq!(hist.quantile(1.0), 1000);
        hist.record_duration(Duration::from_micros(7));
        assert_eq!(hist.count(), 1001);
    }
}
