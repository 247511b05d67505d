//! Per-bucket median inference time (Figure 8).
//!
//! This module is the workspace's only sanctioned home for wall-clock reads
//! in result-affecting crates (lint rule R5): timing is a *reported metric*
//! here, never an input to detection. Everything else must take a
//! [`Stopwatch`] or a [`Duration`] instead of touching the clock.

use crate::buckets::Bucket;
use std::time::{Duration, Instant};

/// A started wall-clock timer.
///
/// The sanctioned way to measure training/inference wall-clock outside this
/// module: callers start a `Stopwatch` and read [`Self::elapsed`], keeping
/// the raw `Instant::now` calls confined to this R5-exempt file.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Time elapsed since [`Self::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// Inference times per stay-point bucket.
///
/// Every duration is kept and the report is their median: one call that
/// the OS preempts moves a mean by its whole delay over the bucket's count,
/// and Figure 8's sparse buckets hold few calls.
#[derive(Debug, Clone, Default)]
pub struct BucketTiming {
    samples: [Vec<Duration>; 4],
}

impl BucketTiming {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one detection's wall-clock duration.
    pub fn record(&mut self, n_stays: usize, elapsed: Duration) {
        self.samples[Bucket::of(n_stays).index()].push(elapsed);
    }

    /// Median inference time in milliseconds for one bucket; `None` when
    /// empty.
    pub fn median_ms(&self, bucket: Bucket) -> Option<f64> {
        median_ms(self.samples[bucket.index()].clone())
    }

    /// Median inference time in milliseconds across all buckets.
    pub fn overall_median_ms(&self) -> Option<f64> {
        median_ms(self.samples.concat())
    }
}

/// The median of `d` in milliseconds (the mean of the middle two for an
/// even count); `None` when empty.
fn median_ms(mut d: Vec<Duration>) -> Option<f64> {
    d.sort_unstable();
    let mid = d.len() / 2;
    let ms = |i: usize| d[i].as_secs_f64() * 1_000.0;
    match d.len() {
        0 => None,
        n if n % 2 == 1 => Some(ms(mid)),
        _ => Some((ms(mid - 1) + ms(mid)) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_are_per_bucket() {
        let mut t = BucketTiming::new();
        t.record(4, Duration::from_millis(10));
        t.record(4, Duration::from_millis(30));
        t.record(10, Duration::from_millis(100));
        assert_eq!(t.median_ms(Bucket::B3to5), Some(20.0));
        assert_eq!(t.median_ms(Bucket::B9to11), Some(100.0));
        assert_eq!(t.median_ms(Bucket::B6to8), None);
        assert_eq!(t.overall_median_ms(), Some(30.0));
    }

    #[test]
    fn one_preempted_call_moves_a_mean_but_not_the_median() {
        // Four calls near 0.1 ms and one held up for 40 ms: the mean would
        // read 8.08 ms, the median stays on the typical call.
        let mut t = BucketTiming::new();
        for us in [90, 100, 110, 100] {
            t.record(4, Duration::from_micros(us));
        }
        t.record(4, Duration::from_millis(40));
        assert_eq!(t.median_ms(Bucket::B3to5), Some(0.1));
        assert_eq!(t.overall_median_ms(), Some(0.1));
    }

    #[test]
    fn empty_reports_none() {
        assert_eq!(BucketTiming::new().overall_median_ms(), None);
    }
}
