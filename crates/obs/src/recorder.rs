//! The recording [`Probe`]: a thread-safe, in-memory metrics store with
//! deterministic (name-sorted) snapshots.

use crate::probe::Probe;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A running `count`/`sum`/`min`/`max` summary of an observation stream
/// (used for both histograms and span durations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (`+∞` while empty).
    pub min: f64,
    /// Largest observation (`-∞` while empty).
    pub max: f64,
}

impl Summary {
    /// An empty summary, ready to fold observations into.
    pub fn empty() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// The arithmetic mean, or `0.0` while empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl Default for Summary {
    fn default() -> Self {
        Self::empty()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Summary>,
    spans: BTreeMap<String, Summary>,
}

/// A [`Probe`] that records everything into four name-keyed maps. Shared by
/// reference across threads; every method takes `&self`.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    // A panicked holder can only have been another probe method; the maps
    // are valid after any interrupted insert, so poisoning is ignored.
    fn locked(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current value of a counter, or `None` if it was never bumped.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.locked().counters.get(name).copied()
    }

    /// The current value of a gauge, or `None` if it was never set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.locked().gauges.get(name).copied()
    }

    /// An immutable, name-sorted snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            spans: inner.spans.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        }
    }
}

impl Probe for Recorder {
    fn count(&self, name: &str, delta: u64) {
        let mut inner = self.locked();
        let slot = inner.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.locked().gauges.insert(name.to_string(), value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.locked()
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    fn span_ns(&self, name: &str, nanos: u64) {
        self.locked()
            .spans
            .entry(name.to_string())
            .or_default()
            .record(nanos as f64);
    }
}

/// A point-in-time copy of a [`Recorder`]'s contents, name-sorted within
/// each kind, ready for the [`crate::emit`] emitters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` histograms.
    pub histograms: Vec<(String, Summary)>,
    /// `(name, summary)` spans; summaries are in nanoseconds.
    pub spans: Vec<(String, Summary)>,
}

impl MetricsSnapshot {
    /// `true` when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Renders as JSON Lines (see [`crate::emit::jsonl`]).
    pub fn to_jsonl(&self) -> String {
        crate::emit::jsonl(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshots_sort_by_name() {
        let r = Recorder::new();
        r.count("z.late", 1);
        r.count("a.early", 2);
        r.count("a.early", 3);
        assert_eq!(r.counter("a.early"), Some(5));
        assert_eq!(r.counter("missing"), None);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.early", "z.late"]);
    }

    #[test]
    fn gauges_overwrite_histograms_summarise() {
        let r = Recorder::new();
        r.gauge("g", 1.0);
        r.gauge("g", 2.5);
        assert_eq!(r.gauge_value("g"), Some(2.5));
        r.observe("h", 1.0);
        r.observe("h", 3.0);
        let snap = r.snapshot();
        let (_, s) = &snap.histograms[0];
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let r = Recorder::new();
        assert!(r.snapshot().is_empty());
        r.span_ns("s", 10);
        assert!(!r.snapshot().is_empty());
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "R3: the test needs real threads")]
    fn recorder_is_shareable_across_threads() {
        let r = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        r.count("n", 1);
                    }
                });
            }
        });
        assert_eq!(r.counter("n"), Some(400));
    }
}
