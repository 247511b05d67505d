//! Dataset summary statistics — the transparency counterpart of the paper's
//! (undisclosed, NDA-bound) dataset table. Computed from generated samples so
//! EXPERIMENTS.md and the CLI can report exactly what a run trained on.

use crate::dataset::{Dataset, Sample};
use lead_core::config::LeadConfig;
use lead_core::label::truth_stay_indices;
use lead_core::processing::ProcessedTrajectory;
use std::collections::BTreeSet;
use std::fmt;

/// Summary statistics of one dataset split (or a union of splits).
#[derive(Debug, Clone, Default)]
pub struct SplitStats {
    /// Number of one-day samples.
    pub samples: usize,
    /// Distinct trucks.
    pub trucks: usize,
    /// Mean GPS points per raw trajectory.
    pub mean_points: f64,
    /// Mean extracted stay points per trajectory.
    pub mean_stays: f64,
    /// Stay-point bucket counts (3–5 / 6–8 / 9–11 / 12–14, clamped).
    pub bucket_counts: [usize; 4],
    /// Samples whose ground truth survives processing (scorable).
    pub scorable: usize,
}

impl SplitStats {
    /// Computes statistics over `samples` with `config`'s processing
    /// thresholds.
    pub fn compute(samples: &[Sample], config: &LeadConfig) -> Self {
        let mut out = SplitStats {
            samples: samples.len(),
            ..Default::default()
        };
        if samples.is_empty() {
            return out;
        }
        let mut trucks = BTreeSet::new();
        let mut total_points = 0usize;
        let mut total_stays = 0usize;
        for s in samples {
            trucks.insert(s.truck_id);
            total_points += s.raw.len();
            let proc = ProcessedTrajectory::from_raw(&s.raw, config);
            let n = proc.num_stay_points();
            total_stays += n;
            let b = match n {
                0..=5 => 0,
                6..=8 => 1,
                9..=11 => 2,
                _ => 3,
            };
            out.bucket_counts[b] += 1;
            if truth_stay_indices(&proc, &s.truth).is_some() {
                out.scorable += 1;
            }
        }
        out.trucks = trucks.len();
        out.mean_points = total_points as f64 / samples.len() as f64;
        out.mean_stays = total_stays as f64 / samples.len() as f64;
        out
    }
}

impl fmt::Display for SplitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [b0, b1, b2, b3] = self.bucket_counts;
        let pct = |c: usize| {
            if self.samples == 0 {
                0.0
            } else {
                c as f64 / self.samples as f64 * 100.0
            }
        };
        write!(
            f,
            "{} samples / {} trucks; {:.0} points & {:.1} stays per day; \
             buckets 3~5:{:.0}% 6~8:{:.0}% 9~11:{:.0}% 12~14:{:.0}%; {:.0}% scorable",
            self.samples,
            self.trucks,
            self.mean_points,
            self.mean_stays,
            pct(b0),
            pct(b1),
            pct(b2),
            pct(b3),
            pct(self.scorable),
        )
    }
}

/// Statistics for every split of a dataset.
#[derive(Debug, Clone)]
pub struct DatasetStats {
    /// Training split.
    pub train: SplitStats,
    /// Validation split.
    pub val: SplitStats,
    /// Test split.
    pub test: SplitStats,
}

impl DatasetStats {
    /// Computes statistics for all three splits.
    pub fn compute(dataset: &Dataset, config: &LeadConfig) -> Self {
        Self {
            train: SplitStats::compute(&dataset.train, config),
            val: SplitStats::compute(&dataset.val, config),
            test: SplitStats::compute(&dataset.test, config),
        }
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "train: {}", self.train)?;
        writeln!(f, "val:   {}", self.val)?;
        write!(f, "test:  {}", self.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_dataset, SynthConfig};

    #[test]
    fn stats_are_consistent_with_the_dataset() {
        let mut cfg = SynthConfig::tiny();
        cfg.num_trucks = 10;
        let ds = generate_dataset(&cfg);
        let stats = DatasetStats::compute(&ds, &LeadConfig::paper());
        assert_eq!(stats.train.samples, ds.train.len());
        assert_eq!(stats.test.samples, ds.test.len());
        assert!(stats.train.trucks >= 1);
        assert!(stats.train.mean_points > 30.0);
        assert!(stats.train.mean_stays >= 3.0 && stats.train.mean_stays <= 14.0);
        assert_eq!(
            stats.train.bucket_counts.iter().sum::<usize>(),
            ds.train.len()
        );
        assert!(stats.train.scorable * 10 >= ds.train.len() * 8);
        // Display renders without panicking and mentions every split.
        let text = stats.to_string();
        assert!(text.contains("train:") && text.contains("test:"));
    }

    #[test]
    fn empty_split_is_benign() {
        let s = SplitStats::compute(&[], &LeadConfig::paper());
        assert_eq!(s.samples, 0);
        assert!(s.to_string().contains("0 samples"));
    }
}
