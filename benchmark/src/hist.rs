//! Log-bucket latency histogram, shared by the publisher (its call
//! latencies) and the validating sink (delivery latencies, recorded
//! from several delivery threads at once).
//!
//! Values below 128 ns get one bucket each; above that every power of
//! two is split into 64 equal buckets, so a bucket is at most 1/64 of
//! its lower edge wide and a reported quantile is within 1.6 % (0.8 %
//! on average) of the exact one.

use std::sync::atomic::{AtomicU64, Ordering};

const EXACT: u64 = 128;
const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS;
/// Largest exponent kept apart; 2^41 ns is about 37 minutes.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = EXACT as usize + (MAX_EXP as usize - 6) * SUBS;

/// Fixed-size histogram of nanosecond values; `record` is lock-free.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
}

fn index_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    // Anything past the top octave is counted in its last bucket.
    let v = v.min((1u64 << (MAX_EXP + 1)) - 1);
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUBS - 1);
    EXACT as usize + (exp as usize - 7) * SUBS + sub
}

/// Lower edge and width of bucket `i`, in ns.
fn edges(i: usize) -> (f64, f64) {
    if i < EXACT as usize {
        return (i as f64, 1.0);
    }
    let exp = (i - EXACT as usize) / SUBS + 7;
    let sub = (i - EXACT as usize) % SUBS;
    let width = (1u64 << (exp as u32 - SUB_BITS)) as f64;
    ((SUBS + sub) as f64 * width, width)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its buckets once, here).
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Count one value.
    pub fn record(&self, ns: u64) {
        // Relaxed: a statistic, it publishes no other data.
        self.buckets[index_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (0 < q ≤ 1) in ns, or `None` when empty. The
    /// value is placed inside its bucket by the rank's position among
    /// the bucket's values, so it moves with the counts and two runs do
    /// not read the same bucket midpoint.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            let here = b.load(Ordering::Relaxed);
            if seen + here >= rank {
                let (lower, width) = edges(i);
                let inside = ((rank - seen) as f64 - 0.5) / here as f64;
                return Some(lower + (width - 1.0).max(0.0) * inside);
            }
            seen += here;
        }
        None
    }

    /// Forget everything recorded so far.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Median of a slice (mean of the two middle values when even); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n => (s[(n - 1) / 2] + s[n / 2]) / 2.0,
    }
}

/// `values` sorted ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// which is what the acceptance check uses for run-to-run spread.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |k: usize| {
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Lcg;

    #[test]
    fn percentile_error_is_within_one_percent() {
        let mut rng = Lcg::new(7);
        let h = Histogram::new();
        let mut exact = Vec::new();
        // Latencies spread over six decades, like the real ones.
        for _ in 0..200_000 {
            let v = (10f64.powf(2.0 + 6.0 * rng.next_f64())) as u64;
            h.record(v);
            exact.push(v as f64);
        }
        let exact = sorted(&exact);
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = exact[((q * exact.len() as f64).ceil() as usize).max(1) - 1];
            let got = h.quantile(q).unwrap();
            assert!(
                (got - want).abs() / want <= 0.01,
                "q={q}: got {got}, exact {want}"
            );
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn small_and_huge_values_have_buckets() {
        let h = Histogram::new();
        h.record(0);
        h.record(127);
        h.record(128);
        h.record(u64::MAX);
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.25), Some(0.0));
        assert_eq!(h.quantile(0.5), Some(127.0));
        assert_eq!(
            h.quantile(0.75),
            Some(128.5),
            "two values wide, rank in the middle"
        );
        h.reset();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
