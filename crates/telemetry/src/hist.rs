//! Lock-free log-linear latency histograms (the HDR-histogram bucket
//! scheme, reduced to what a hot path can afford).
//!
//! A [`Histogram`] is a fixed array of `AtomicU64` buckets: recording a
//! value is `&self`, wait-free, and costs one relaxed atomic add on the
//! bucket plus three bookkeeping adds (count, sum, max) — no locks, no
//! allocation, safe from any number of threads concurrently. Values are
//! dimensionless `u64`s; every user in this workspace records
//! **nanoseconds**.
//!
//! # Bucket layout
//!
//! Values below `2^SUB_BITS` get exact unit-width buckets; above that,
//! each power-of-two octave is split into `2^SUB_BITS` equal-width
//! sub-buckets. The relative quantization error is therefore bounded by
//! `1/2^SUB_BITS` (6.25% with the 4 sub-bits used here), and the whole
//! `u64` range maps into [`BUCKETS`] buckets — small enough that a
//! histogram is a few KiB and cheap to snapshot.
//!
//! Readers take a [`HistogramSnapshot`] (a relaxed copy of the bucket
//! array — consistent enough for monitoring, since recording is
//! monotone) and derive quantiles, means and Prometheus cumulative
//! buckets from it. Snapshots [`HistogramSnapshot::merge`] losslessly:
//! bucket arrays add element-wise, which is what makes per-shard or
//! per-node histograms aggregatable.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution bits: each octave splits into `2^SUB_BITS`
/// buckets, bounding relative quantization error by `1/2^SUB_BITS`.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Octave groups above the exact range (`u64` has 64 − `SUB_BITS`
/// octaves whose values are ≥ `2^SUB_BITS`).
const GROUPS: usize = 64 - SUB_BITS as usize;
/// Total bucket count: the exact `[0, 2^SUB_BITS)` range plus `SUB`
/// sub-buckets per octave group.
pub const BUCKETS: usize = SUB + GROUPS * SUB;

/// Bucket index for a recorded value. Total over `u64`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    // Octave group: 1 for values in [2^SUB_BITS, 2^(SUB_BITS+1)), etc.
    let msb = 63 - v.leading_zeros() as usize;
    let group = msb - SUB_BITS as usize + 1;
    let sub = (v >> (group - 1)) as usize - SUB;
    group * SUB + sub
}

/// Largest value mapping into bucket `i` (the bucket's inclusive upper
/// bound) — what quantile readout reports, so estimates never
/// under-state a latency.
fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let group = i / SUB;
    let sub = i % SUB;
    // u128 arithmetic: the top octave's upper bound is exactly 2^64.
    let upper = ((SUB + sub + 1) as u128) << (group - 1);
    u64::try_from(upper - 1).unwrap_or(u64::MAX)
}

/// A lock-free log-linear histogram of `u64` samples (nanoseconds, by
/// convention). See the `hist` module docs.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Box::new([const { AtomicU64::new(0) }; BUCKETS]),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free: four relaxed atomic RMWs, no
    /// branches beyond the bucket-index computation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating at
    /// `u64::MAX` ns ≈ 584 years).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A relaxed point-in-time copy of the distribution. Concurrent
    /// recorders may be mid-update, so `count` can trail the bucket
    /// total by in-flight samples — harmless for monitoring readout.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        // Derive the total from the buckets themselves so quantile
        // ranks are consistent with the copied array even when samples
        // land between the two loops.
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state: quantile readout and
/// lossless merging happen here, off the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (the identity for [`HistogramSnapshot::merge`]).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot { buckets: vec![0; BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (ns).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (exact, not bucket-quantized).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` ∈ [0, 1]: the inclusive upper bound of
    /// the bucket holding the nearest-rank sample, so the estimate is
    /// within one bucket boundary of (and never below) the exact
    /// sorted-slice percentile. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank: the smallest sample with at least ⌈q·n⌉
        // samples at or below it.
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Adds `other`'s samples into `self`. Lossless (bucket arrays add
    /// element-wise), commutative and associative, so per-shard or
    /// per-node histograms aggregate in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Cumulative sample counts at each of the given inclusive upper
    /// boundaries (ns): `result[i]` counts samples whose *bucket* lies
    /// entirely at or below `bounds_ns[i]`. Monotone non-decreasing in
    /// the boundary; a final implicit `+Inf` boundary is the total
    /// [`HistogramSnapshot::count`]. This is exactly the shape a
    /// Prometheus `histogram` exposition needs.
    pub fn cumulative_le(&self, bounds_ns: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(bounds_ns.len());
        for &bound in bounds_ns {
            let mut cum = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                if bucket_upper(i) > bound {
                    break;
                }
                cum += c;
            }
            out.push(cum);
        }
        out
    }
}

/// `true` iff `a` and `b` quantize into the same histogram bucket —
/// the tolerance the quantile accuracy tests assert.
pub fn same_bucket(a: u64, b: u64) -> bool {
    bucket_index(a) == bucket_index(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_total_and_monotone() {
        let mut last = 0usize;
        let mut v = 0u64;
        while v < 1 << 40 {
            let i = bucket_index(v);
            assert!(i >= last, "index monotone at {v}");
            assert!(i < BUCKETS);
            last = i;
            v = v * 2 + 1;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_upper_inverts_bucket_index() {
        for i in 0..BUCKETS {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i} maps back");
            if upper < u64::MAX {
                assert!(bucket_index(upper + 1) > i, "upper bound is tight for bucket {i}");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 7, 15] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 15);
        assert_eq!(s.max(), 15);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs … 1ms in 1µs steps
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        // 6.25% relative quantization error bound.
        for (q, exact) in [(0.5, 500_000u64), (0.9, 900_000), (0.99, 990_000)] {
            let est = s.quantile(q);
            assert!(est >= exact, "q{q}: {est} >= {exact}");
            assert!(est as f64 <= exact as f64 * 1.0626, "q{q}: {est} <= {exact} + 6.25%");
        }
    }

    #[test]
    fn cumulative_le_is_monotone_and_totals() {
        let h = Histogram::new();
        for v in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let bounds = [64u64, 1024, 16_384, u64::MAX];
        let cum = s.cumulative_le(&bounds);
        assert_eq!(cum.len(), 4);
        for w in cum.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*cum.last().unwrap(), 5);
        assert_eq!(cum[0], 1, "only the 10ns sample fits under 64ns");
    }

    #[test]
    fn merge_is_lossless() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 17);
            all.record(v * 17);
        }
        for v in 0..300u64 {
            b.record(v * 41);
            all.record(v * 41);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }
}
