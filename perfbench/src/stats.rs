//! Sample summaries and the per-op outcome tally.

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported; with fewer, the "percentile" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count), or
/// `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile of `samples` (`q` in (0, 1)), reported only
/// when at least [`MIN_BEYOND`] samples lie above it.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + MIN_BEYOND).then(|| sorted[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Outcomes of the ops of one run: every attempt, the latency of each
/// one that succeeded, and the ones that failed or answered wrongly.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latency in milliseconds of every op that succeeded with a correct
    /// answer. Failed ops are counted in `failed` only, so they never
    /// turn a percentile into a non-number.
    pub latencies_ms: Vec<f64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed, were refused, or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Records one op that took `ms` and ended in `outcome`.
    pub fn record(&mut self, ms: f64, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.latencies_ms.push(ms),
            Err(why) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("perfbench: op {} failed: {why}", self.attempted);
                }
            }
        }
    }

    /// Adds `other`'s outcomes to this tally.
    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed or wrong ops over ops attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 is rank 990, with exactly 10 above it.
        assert_eq!(tail(&samples, 0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond: nothing is reported.
        assert_eq!(tail(&samples[..999], 0.99), None);
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&few, 0.5), Some(15.0));
        assert_eq!(tail(&few, 0.9), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn failed_ops_count_but_leave_the_latencies_finite() {
        let mut t = Tally::default();
        for _ in 0..3 {
            t.record(1.0, Ok(()));
        }
        t.record(0.1, Err("wrong answer".into()));
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_share(), 0.25);
        assert_eq!(t.latencies_ms, vec![1.0; 3]);

        let mut total = Tally::default();
        total.merge(t.clone());
        total.merge(t);
        assert_eq!((total.attempted, total.failed), (8, 2));
    }
}
