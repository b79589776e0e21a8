//! Latency summaries and running means.
//!
//! A timing is reported as its median and as the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, so a tail figure is
//! never read off a handful of samples.

/// Candidate tail percentiles, in per-mille, highest first.
pub const TAIL_LADDER: [u32; 5] = [999, 990, 950, 900, 500];

/// Samples a tail percentile needs beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of per-mille percentile `pm` among `n` samples.
fn rank(pm: u32, n: usize) -> usize {
    (pm as usize * n).div_ceil(1000).max(1)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// of `n` samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&pm| n >= rank(pm, n) + MIN_BEYOND)
}

/// Nearest-rank percentile `pm` (per mille) of ascending `sorted`.
///
/// # Panics
/// If `sorted` is empty.
pub fn percentile(sorted: &[u64], pm: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(pm, sorted.len()).min(sorted.len()) - 1]
}

/// Median and tail of one latency class, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples recorded.
    pub n: usize,
    /// Median.
    pub p50_us: f64,
    /// The 99th percentile, when at least [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub p99_us: Option<f64>,
    /// The tail percentile [`tail_percentile`] chose, per mille.
    pub tail_pm: u32,
    /// The value at `tail_pm`.
    pub tail_us: f64,
}

/// Latency samples of one class, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    /// Room for `n` samples before the first reallocation.
    pub fn with_capacity(n: usize) -> Self {
        Latencies(Vec::with_capacity(n))
    }

    /// Records one sample.
    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Merges another thread's samples.
    pub fn merge(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        sorted
    }

    /// The median in µs, `0` without samples.
    pub fn median_us(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            percentile(&self.sorted(), 500) as f64 / 1e3
        }
    }

    /// The median, the 99th percentile and the tail, or `None` with fewer
    /// than `2 * MIN_BEYOND` samples.
    pub fn summary(&self) -> Option<Summary> {
        let tail_pm = tail_percentile(self.0.len())?;
        let sorted = self.sorted();
        let us = |pm| percentile(&sorted, pm) as f64 / 1e3;
        Some(Summary {
            n: self.len(),
            p50_us: us(500),
            p99_us: (tail_pm >= 990).then(|| us(990)),
            tail_pm,
            tail_us: us(tail_pm),
        })
    }
}

/// Medians of one latency class per fixed-width time block — shows drift
/// and regime changes within a run.
#[derive(Clone, Debug)]
pub struct Timeline {
    start: std::time::Instant,
    width: std::time::Duration,
    blocks: Vec<Latencies>,
}

impl Timeline {
    /// Blocks of `width` from `start`.
    pub fn new(start: std::time::Instant, width: std::time::Duration) -> Self {
        Timeline {
            start,
            width,
            blocks: Vec::new(),
        }
    }

    /// Records a sample taken at `at`.
    pub fn push(&mut self, at: std::time::Instant, ns: u64) {
        let i = (at.duration_since(self.start).as_nanos() / self.width.as_nanos()) as usize;
        if self.blocks.len() <= i {
            self.blocks.resize(i + 1, Latencies::default());
        }
        self.blocks[i].push_ns(ns);
    }

    /// Each block's median in µs, rounded, space-separated.
    pub fn medians(&self) -> String {
        let medians: Vec<String> = self
            .blocks
            .iter()
            .map(|b| format!("{:.0}", b.median_us()))
            .collect();
        medians.join(" ")
    }
}

/// A running sum and count, reported as their mean.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    /// Merges another thread's observations.
    pub fn merge(&mut self, other: Mean) {
        self.sum += other.sum;
        self.n += other.n;
    }

    /// The mean, `0` before any observation.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(10), None);
        // 20 samples: p50 is rank 10 with 10 beyond; p90 is rank 18 with 2.
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(99), Some(500));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        for n in 0..5000 {
            if let Some(pm) = tail_percentile(n) {
                assert!(n - rank(pm, n) >= MIN_BEYOND, "n={n} pm={pm}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 500), 500);
        assert_eq!(percentile(&v, 990), 990);
        assert_eq!(percentile(&v, 999), 999);
        assert_eq!(percentile(&[7], 990), 7);
        let mut l = Latencies::default();
        for ns in (1..=1000u64).rev() {
            l.push_ns(ns * 1000);
        }
        let s = l.summary().unwrap();
        assert_eq!((s.n, s.tail_pm), (1000, 990));
        assert_eq!((s.p50_us, s.p99_us, s.tail_us), (500.0, Some(990.0), 990.0));
        let mut few = Latencies::default();
        for ns in 1..=999 {
            few.push_ns(ns * 1000);
        }
        let s = few.summary().unwrap();
        assert_eq!((s.p99_us, s.tail_pm), (None, 950));
    }

    #[test]
    fn merging_keeps_every_sample() {
        let (mut a, mut b) = (Latencies::default(), Latencies::default());
        for us in 1..=10u64 {
            a.push_ns(us * 1000);
            b.push_ns((us + 10) * 1000);
        }
        a.merge(b);
        assert_eq!(a.len(), 20);
        assert_eq!(a.median_us(), 10.0);
        assert_eq!(a.summary().unwrap().tail_pm, 500);
    }

    #[test]
    fn means() {
        let mut m = Mean::default();
        assert_eq!(m.mean(), 0.0);
        m.add(1.0);
        let mut other = Mean::default();
        other.add(2.0);
        other.add(3.0);
        m.merge(other);
        assert_eq!(m.mean(), 2.0);
    }
}
