//! Lock-free, mergeable log-linear latency histograms.
//!
//! A [`Histogram`] is a fixed array of atomic bucket counters over a
//! log-linear value grid: every power-of-two octave is split into
//! [`SUB_BUCKETS`] linear sub-buckets, so the relative bucket width is at
//! most `1/16` (6.25%) everywhere while the whole `u64` range fits in under
//! a thousand buckets. Recording is two relaxed atomic adds (bucket +
//! running sum) — cheap enough to stay on for every request — and any
//! number of writer threads share one histogram without locks.
//!
//! Histograms are **mergeable**: a [`HistogramSnapshot`] taken with
//! [`Histogram::snapshot`] observes a consistent-enough view without ever
//! stopping writers (counts race only by in-flight samples), and
//! [`HistogramSnapshot::merge`] folds the snapshots of per-window or
//! per-shard instances into an aggregate.
//! Quantiles come out of the snapshot by the nearest-rank rule on sorted
//! samples, so a recorded quantile is always within one bucket width of the
//! exact sample statistic (the test module keeps the exact reference).

use std::sync::atomic::{AtomicU64, Ordering};

/// Power-of-two sub-bucket split per octave (`1 << SUB_BITS` sub-buckets).
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave; also the bound of the first linear range.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count covering the whole `u64` range: the first
/// `SUB_BUCKETS` values one-to-one, then 16 sub-buckets for each of the 60
/// remaining octaves.
const NUM_BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// Bucket index of `value` on the log-linear grid.
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (value >> shift) - SUB_BUCKETS;
    ((shift as usize + 1) * SUB_BUCKETS as usize) + sub as usize
}

/// Largest value that lands in bucket `index` (the bucket's inclusive upper
/// bound — what quantile queries report).
pub fn bucket_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let shift = (index / SUB_BUCKETS as usize - 1) as u32;
    let sub = (index % SUB_BUCKETS as usize) as u64;
    // The topmost bucket's exclusive upper edge is 2^64 itself, which
    // shifts to 0 — its inclusive bound is u64::MAX.
    match (SUB_BUCKETS + sub + 1).checked_shl(shift) {
        Some(0) | None => u64::MAX,
        Some(edge) => edge - 1,
    }
}

/// Width of bucket `index` in value units (how far a reported quantile can
/// sit from the exact sample it stands for).
pub fn bucket_width(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return 1;
    }
    1u64 << (index / SUB_BUCKETS as usize - 1).min(63)
}

/// A fixed-size log-linear histogram of `u64` samples (latencies in
/// nanoseconds, sizes in bytes, ...). See the [module docs](self).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
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
            buckets: Box::new([const { AtomicU64::new(0) }; NUM_BUCKETS]),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample. Lock-free: two relaxed adds.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent stats counter; readers tolerate skew
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent stats counter; readers tolerate skew
        self.sum.fetch_add(value, Ordering::Relaxed); // relaxed-ok: independent stats counter; readers tolerate skew
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // relaxed-ok: independent stats counter; readers tolerate skew
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed) // relaxed-ok: independent stats counter; readers tolerate skew
    }

    /// Reset every bucket to zero (relaxed stores). Not a linearization
    /// point: a sample recorded concurrently lands in either the old or the
    /// new generation — acceptable for the rolling-window telemetry this
    /// backs, where a window boundary is already coarse.
    pub fn clear(&self) {
        for bucket in self.buckets.iter() {
            bucket.store(0, Ordering::Relaxed); // relaxed-ok: independent stats counter; readers tolerate skew
        }
        self.count.store(0, Ordering::Relaxed); // relaxed-ok: independent stats counter; readers tolerate skew
        self.sum.store(0, Ordering::Relaxed); // relaxed-ok: independent stats counter; readers tolerate skew
    }

    /// A point-in-time copy of the bucket counts, taken without stopping
    /// writers (a sample recorded concurrently may or may not be included).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (index, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed); // relaxed-ok: independent stats counter; readers tolerate skew
            if n > 0 {
                buckets.push((index, n));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed), // relaxed-ok: independent stats counter; readers tolerate skew
            sum: self.sum.load(Ordering::Relaxed), // relaxed-ok: independent stats counter; readers tolerate skew
        }
    }
}

/// An immutable copy of a [`Histogram`]'s non-empty buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket index, count)` pairs, ascending by index.
    buckets: Vec<(usize, u64)>,
    count: u64,
    sum: u64,
}

impl Default for HistogramSnapshot {
    /// An empty snapshot (no samples; quantiles answer `None`). The identity
    /// of [`HistogramSnapshot::merge`].
    fn default() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in the snapshot.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs,
    /// ascending (the shape Prometheus exposition and quantile queries
    /// consume).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(index, n)| (bucket_bound(index), n))
    }

    /// Fold another snapshot's buckets into this one: merging the snapshots
    /// of N histograms equals a snapshot of one that recorded every sample.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for &(index, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(at) => self.buckets[at].1 += n,
                Err(at) => self.buckets.insert(at, (index, n)),
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `q`-quantile (0.0..=1.0) as the upper bound of the bucket holding
    /// the nearest-rank sample (index `round((n - 1) * q)` of the sorted
    /// samples), so the answer is within one bucket width of the exact
    /// sample. `None` on an empty snapshot.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen > rank {
                return Some(bucket_bound(index));
            }
        }
        self.buckets.last().map(|&(index, _)| bucket_bound(index))
    }

    /// [`HistogramSnapshot::quantile`] of nanosecond samples, in
    /// milliseconds (`0.0` when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile(q).map(|ns| ns as f64 / 1.0e6).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The exact reference the histogram is checked against: the
    /// `q`-quantile (0.0..=1.0) of an ascending-sorted slice of nanosecond
    /// latencies, in milliseconds. Nearest-rank on the sorted samples: an
    /// empty slice reports `0.0`, one sample reports itself for every
    /// quantile.
    fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
        if sorted_ns.is_empty() {
            return 0.0;
        }
        let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
        sorted_ns[idx] as f64 / 1.0e6
    }

    #[test]
    fn empty_and_single_sample_percentiles() {
        // 0 samples: every quantile is 0, as `quantile_ms` answers.
        assert_eq!(percentile_ms(&[], 0.0), 0.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[], 0.99), 0.0);
        // 1 sample: that sample answers every quantile.
        let one = [2_000_000u64]; // 2 ms
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_ms(&one, q), 2.0);
        }
    }

    #[test]
    fn quantiles_pick_the_expected_ranks() {
        // 1..=100 ms as nanoseconds.
        let sorted: Vec<u64> = (1..=100).map(|ms| ms * 1_000_000).collect();
        assert_eq!(percentile_ms(&sorted, 0.0), 1.0);
        assert_eq!(percentile_ms(&sorted, 1.0), 100.0);
        // Nearest-rank rounding: (100 - 1) * 0.5 = 49.5 rounds to index 50.
        assert_eq!(percentile_ms(&sorted, 0.5), 51.0);
        assert_eq!(percentile_ms(&sorted, 0.99), 99.0);
        // Two samples: the halfway quantile rounds up to the later one.
        let two = [1_000_000u64, 3_000_000];
        assert_eq!(percentile_ms(&two, 0.5), 3.0);
        assert_eq!(percentile_ms(&two, 0.49), 1.0);
    }

    #[test]
    fn bucket_grid_is_contiguous_and_monotone() {
        // Every value maps to exactly one bucket whose bounds contain it,
        // and bucket indexes never decrease as values grow.
        let mut last_index = 0usize;
        for value in (0..4096u64).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let index = bucket_index(value);
            assert!(index >= last_index, "index regressed at {value}");
            assert!(value <= bucket_bound(index), "value above bound: {value}");
            if index > 0 {
                assert!(
                    value > bucket_bound(index - 1),
                    "value {value} below its bucket"
                );
            }
            last_index = index;
        }
        const { assert!(NUM_BUCKETS < 1024, "histogram footprint blew up") };
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        // Log-linear grid: width / lower bound <= 1/16 beyond the linear
        // range, which is what makes quantiles accurate to ~6%.
        for value in [100u64, 1_000, 50_000, 1_000_000, 123_456_789] {
            let index = bucket_index(value);
            let width = bucket_width(index);
            let lo = bucket_bound(index) - width + 1;
            assert!(
                width as f64 / lo as f64 <= 1.0 / 16.0 + 1e-9,
                "bucket at {value} too wide: width {width}, lo {lo}"
            );
        }
    }

    #[test]
    fn quantiles_track_exact_nearest_rank_within_one_bucket() {
        // Property: for seeded samples spanning five orders of magnitude,
        // every queried quantile equals the exact nearest-rank statistic to
        // within the width of the bucket that answered (the guarantee the
        // /metrics p50/p99 rest on).
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let hist = Histogram::new();
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..5000 {
            let magnitude = 10u64.pow(rng.gen_range(2u32..7));
            let sample = rng.gen_range(1..magnitude * 10);
            hist.record(sample);
            samples.push(sample);
        }
        samples.sort_unstable();
        let snapshot = hist.snapshot();
        assert_eq!(snapshot.count(), samples.len() as u64);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact_ms = percentile_ms(&samples, q);
            let approx = snapshot.quantile(q).unwrap();
            let approx_ms = approx as f64 / 1.0e6;
            let width_ms = bucket_width(bucket_index(approx)) as f64 / 1.0e6;
            assert!(
                approx_ms >= exact_ms && approx_ms - exact_ms <= width_ms,
                "q={q}: histogram {approx_ms}ms vs exact {exact_ms}ms \
                 (bucket width {width_ms}ms)"
            );
        }
    }

    #[test]
    fn merge_of_shards_equals_record_into_one() {
        // Recording a stream into N shard-local histograms and merging
        // their snapshots is indistinguishable from recording everything
        // into one.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let combined = Histogram::new();
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for i in 0..2000u64 {
            let sample = rng.gen_range(1..10_000_000u64);
            combined.record(sample);
            shards[(i % 4) as usize].record(sample);
        }
        let mut merged = shards[0].snapshot();
        for shard in &shards[1..] {
            merged.merge(&shard.snapshot());
        }
        assert_eq!(merged, combined.snapshot());
        assert_eq!(merged.sum(), combined.sum());
    }

    #[test]
    fn empty_and_extreme_values_are_safe() {
        let hist = Histogram::new();
        assert_eq!(hist.snapshot().quantile(0.5), None);
        assert_eq!(hist.snapshot().quantile_ms(0.99), 0.0);
        hist.record(0);
        hist.record(u64::MAX);
        let snapshot = hist.snapshot();
        assert_eq!(snapshot.count(), 2);
        assert_eq!(snapshot.quantile(0.0), Some(0));
        assert_eq!(snapshot.quantile(1.0), Some(u64::MAX));
        // Clearing recycles the histogram back to its empty state.
        hist.clear();
        assert_eq!(hist.snapshot(), HistogramSnapshot::default());
        assert_eq!(hist.count(), 0);
        assert_eq!(hist.sum(), 0);
    }
}
