//! Running means and bounded histograms.

/// An online arithmetic mean over `f64` samples.
///
/// Used for per-cycle occupancy averages (paper Tables 4 and 5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningMean {
    sum: f64,
    n: u64,
}

impl RunningMean {
    /// Creates an empty mean.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn record(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
    }

    /// Adds `k` samples of `value` at once. Bitwise equal to `k` calls of
    /// [`Self::record`] while `value * k` and the running sum are integers
    /// below 2^53 (every partial sum is then exact), which holds for the
    /// simulator's queue-occupancy samples.
    #[inline]
    pub fn record_n(&mut self, value: f64, k: u64) {
        self.sum += value * k as f64;
        self.n += k;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The mean, or 0.0 when no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Merges another mean into this one.
    pub fn merge(&mut self, other: &RunningMean) {
        self.sum += other.sum;
        self.n += other.n;
    }
}

/// A bounded histogram over small non-negative integer values.
///
/// Values `>= buckets` are clamped into the last bucket (recorded in
/// [`Histogram::overflow`]). Used for, e.g., the distribution of segments
/// searched per load (paper Table 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with buckets for values `0..buckets`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        Self {
            buckets: vec![0; buckets],
            overflow: 0,
            total: 0,
        }
    }

    /// Reconstructs a histogram from per-bucket counts and the overflow
    /// count — the inverse of serializing [`Histogram::iter`] plus
    /// [`Histogram::overflow`]. Overflowed observations are already
    /// clamped into the last bucket, so the total is the bucket sum.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is empty or `overflow` exceeds the last
    /// bucket's count (no clamped observation could have produced it).
    pub fn from_parts(buckets: Vec<u64>, overflow: u64) -> Self {
        assert!(!buckets.is_empty(), "histogram needs at least one bucket");
        assert!(
            // lsq-lint: allow(no-unwrap-in-lib, reason = "emptiness checked on the previous line")
            overflow <= *buckets.last().expect("non-empty"),
            "overflow exceeds the last bucket's count"
        );
        let total = buckets.iter().sum();
        Self {
            buckets,
            overflow,
            total,
        }
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: usize) {
        if value >= self.buckets.len() {
            self.overflow += 1;
            // lsq-lint: allow(no-unwrap-in-lib, reason = "buckets is sized non-empty at construction")
            *self.buckets.last_mut().expect("non-empty") += 1;
        } else {
            self.buckets[value] += 1;
        }
        self.total += 1;
    }

    /// Records `n` observations of `value` at once — for replaying one
    /// histogram's buckets into another with different bounds.
    pub fn record_n(&mut self, value: usize, n: u64) {
        if value >= self.buckets.len() {
            self.overflow += n;
            // lsq-lint: allow(no-unwrap-in-lib, reason = "buckets is sized non-empty at construction")
            *self.buckets.last_mut().expect("non-empty") += n;
        } else {
            self.buckets[value] += n;
        }
        self.total += n;
    }

    /// Count in bucket `value` (values beyond the range were clamped into
    /// the last bucket).
    pub fn bucket(&self, value: usize) -> u64 {
        self.buckets.get(value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// How many observations exceeded the bucket range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of observations in bucket `value`; 0.0 if none recorded.
    pub fn fraction(&self, value: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.bucket(value) as f64 / self.total as f64
        }
    }

    /// Mean of the recorded (clamped) values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Iterates `(value, count)` for all buckets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets.iter().copied().enumerate()
    }

    /// Merges another histogram with the same bucket count.
    ///
    /// # Panics
    ///
    /// Panics if the bucket counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.buckets.len(), other.buckets.len(), "bucket mismatch");
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Subtracts an earlier snapshot of this histogram, leaving only the
    /// observations recorded since. The inverse of [`Histogram::merge`]:
    /// used to remove a warm-up prefix from cumulative statistics.
    ///
    /// # Panics
    ///
    /// Panics if the bucket counts differ or `earlier` is not a prefix
    /// (some bucket, the overflow count, or the total would go negative).
    pub fn subtract(&mut self, earlier: &Histogram) {
        assert_eq!(self.buckets.len(), earlier.buckets.len(), "bucket mismatch");
        for (a, b) in self.buckets.iter_mut().zip(&earlier.buckets) {
            *a = a
                .checked_sub(*b)
                // lsq-lint: allow(no-unwrap-in-lib, reason = "subtract's documented contract: rhs is a prefix snapshot; saturating would silently corrupt warm-up differencing")
                .expect("subtrahend is not a prefix snapshot");
        }
        self.overflow = self
            .overflow
            .checked_sub(earlier.overflow)
            // lsq-lint: allow(no-unwrap-in-lib, reason = "subtract's documented contract: rhs is a prefix snapshot; saturating would silently corrupt warm-up differencing")
            .expect("subtrahend is not a prefix snapshot");
        self.total = self
            .total
            .checked_sub(earlier.total)
            // lsq-lint: allow(no-unwrap-in-lib, reason = "subtract's documented contract: rhs is a prefix snapshot; saturating would silently corrupt warm-up differencing")
            .expect("subtrahend is not a prefix snapshot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_empty_is_zero() {
        assert_eq!(RunningMean::new().mean(), 0.0);
    }

    #[test]
    fn running_mean_tracks_samples() {
        let mut m = RunningMean::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            m.record(v);
        }
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.count(), 4);
    }

    #[test]
    fn record_n_equals_repeated_record_for_integers() {
        let mut rng = lsq_util::rng::Xoshiro256::seed_from_u64(3);
        let (mut bulk, mut single) = (RunningMean::new(), RunningMean::new());
        for _ in 0..2_000 {
            let v = rng.range_u64(256) as f64;
            let k = rng.range_u64(300);
            bulk.record_n(v, k);
            for _ in 0..k {
                single.record(v);
            }
            assert_eq!(bulk.count(), single.count());
            assert_eq!(bulk.sum.to_bits(), single.sum.to_bits());
            assert_eq!(bulk.mean().to_bits(), single.mean().to_bits());
        }
    }

    #[test]
    fn running_mean_merge() {
        let mut a = RunningMean::new();
        a.record(1.0);
        let mut b = RunningMean::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn histogram_zero_buckets_panics() {
        let _ = Histogram::new(0);
    }

    #[test]
    fn histogram_records_and_fractions() {
        let mut h = Histogram::new(5);
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(4);
        assert_eq!(h.count(), 4);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.fraction(1), 0.5);
        assert_eq!(h.fraction(3), 0.0);
    }

    #[test]
    fn histogram_clamps_overflow_into_last_bucket() {
        let mut h = Histogram::new(3);
        h.record(2);
        h.record(10);
        assert_eq!(h.bucket(2), 2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new(4);
        h.record(1);
        h.record(3);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(Histogram::new(2).mean(), 0.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(3);
        a.record(0);
        let mut b = Histogram::new(3);
        b.record(2);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bucket(2), 2);
        assert_eq!(a.overflow(), 1);
    }

    #[test]
    fn histogram_subtract_inverts_a_prefix() {
        let mut snap = Histogram::new(3);
        snap.record(0);
        snap.record(9);
        let mut h = snap.clone();
        h.record(1);
        h.record(2);
        h.subtract(&snap);
        assert_eq!(h.count(), 2);
        assert_eq!(h.bucket(0), 0);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(2), 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    #[should_panic(expected = "not a prefix snapshot")]
    fn histogram_subtract_rejects_non_prefix() {
        let mut later = Histogram::new(2);
        later.record(0);
        let mut earlier = Histogram::new(2);
        earlier.record(1);
        later.subtract(&earlier);
    }

    #[test]
    #[should_panic(expected = "not a prefix snapshot")]
    fn histogram_subtract_rejects_overflow_underflow() {
        // Bucket counts alone cannot tell these apart: both histograms
        // have two observations in the last bucket, but the "earlier"
        // one got there by overflow. The overflow counter must be
        // checked independently, else it would wrap.
        let mut later = Histogram::new(2);
        later.record(1);
        later.record(1);
        let mut earlier = Histogram::new(2);
        earlier.record(9);
        later.subtract(&earlier);
    }

    #[test]
    #[should_panic(expected = "bucket mismatch")]
    fn histogram_subtract_rejects_shape_mismatch() {
        let mut later = Histogram::new(3);
        later.subtract(&Histogram::new(2));
    }

    #[test]
    fn histogram_subtract_self_empties() {
        let mut h = Histogram::new(3);
        h.record(0);
        h.record(2);
        h.record(9);
        let snap = h.clone();
        h.subtract(&snap);
        assert_eq!(h.count(), 0);
        assert_eq!(h.overflow(), 0);
        assert!(h.iter().all(|(_, c)| c == 0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_iter_covers_all_buckets() {
        let mut h = Histogram::new(3);
        h.record(1);
        let v: Vec<_> = h.iter().collect();
        assert_eq!(v, vec![(0, 0), (1, 1), (2, 0)]);
    }
}
