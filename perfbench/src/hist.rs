//! Fixed-size log-linear latency histogram.
//!
//! Recording a sample never allocates, so the benchmark's own memory does
//! not grow with the number of ops a run completes (it would otherwise
//! show in `peak_rss_mib` and make it follow throughput). Values below
//! 1024 ns are kept exactly; larger ones fall in buckets 1/512 of their
//! magnitude wide, up to `u32::MAX` ns. The engine's own histograms
//! (`unikv_common::metrics`) have power-of-two buckets: too coarse for a
//! benchmark that must see a change of a few percent.

const SUB_BITS: u32 = 9;
const SUB: usize = 1 << SUB_BITS;
/// Exact buckets `0..2 * SUB`, then `SUB` buckets per power of two.
const BUCKETS: usize = (32 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Box<[u32]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn index(v: u32) -> usize {
    if (v as usize) < 2 * SUB {
        return v as usize;
    }
    // `v >> shift` lands in `SUB..2 * SUB`.
    let shift = 31 - v.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize - SUB)
}

/// Midpoint of bucket `i`.
fn value(i: usize) -> f64 {
    if i < 2 * SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let lower = ((i % SUB + SUB) as u64) << shift;
    lower as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        let v = u32::try_from(ns).unwrap_or(u32::MAX);
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank quantile in ns (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return value(i);
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_large_ones_within_a_fraction() {
        for v in [0u32, 1, 511, 1023, 1024, 1025, 77_777, 3_000_000, u32::MAX] {
            let mid = value(index(v));
            let err = (mid - f64::from(v)).abs() / f64::from(v.max(1));
            assert!(err <= 1.0 / SUB as f64, "{v}: bucket midpoint {mid}");
            if v < 1024 {
                assert_eq!(mid, f64::from(v));
            }
        }
        assert_eq!(index(u32::MAX), BUCKETS - 1);
        assert!((1..BUCKETS).all(|i| value(i) > value(i - 1)));
    }

    #[test]
    fn quantiles_use_nearest_rank_and_merge_adds() {
        let mut h = Histogram::default();
        (1..=100).for_each(|v| h.record(v));
        assert_eq!(
            (h.quantile(0.5), h.quantile(0.99), h.quantile(1.0)),
            (50.0, 99.0, 100.0)
        );
        let mut g = Histogram::default();
        g.record(7);
        h.merge(&g);
        assert_eq!(h.count(), 101);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
