//! Paper-style text tables and CSV emission.

use crate::buckets::Bucket;
use crate::runner::EvalOutcome;
use crate::scenarios::ScenarioOutcome;

/// Formats outcomes as the paper's accuracy table (Tables III / IV): one row
/// per method, one column per stay-point bucket plus the overall column.
pub fn accuracy_table(title: &str, outcomes: &[EvalOutcome]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "Acc(%)", "3~5", "6~8", "9~11", "12~14", "3~14"
    ));
    if let Some(first) = outcomes.first() {
        let [s0, s1, s2, s3] = Bucket::ALL.map(|b| match first.test.accuracy.share(b) {
            Some(p) => format!("({p:.0}%)"),
            None => "(-)".into(),
        });
        s.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            "#Samples", s0, s1, s2, s3, "(100%)"
        ));
    }
    for o in outcomes {
        let [c0, c1, c2, c3] = Bucket::ALL.map(|b| fmt_pct(o.test.accuracy.acc(b)));
        s.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            o.name,
            c0,
            c1,
            c2,
            c3,
            fmt_pct(o.test.accuracy.overall())
        ));
    }
    s
}

/// Formats outcomes as the paper's Figure 8 data: median inference time
/// (ms) per bucket per method.
pub fn timing_table(title: &str, outcomes: &[EvalOutcome]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "Time(ms)", "3~5", "6~8", "9~11", "12~14", "3~14"
    ));
    for o in outcomes {
        let [c0, c1, c2, c3] = Bucket::ALL.map(|b| fmt_ms(o.test.timing.median_ms(b)));
        s.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            o.name,
            c0,
            c1,
            c2,
            c3,
            fmt_ms(o.test.timing.overall_median_ms())
        ));
    }
    s
}

/// Formats outcomes as a mean temporal-IoU table (soft accuracy; not in the
/// paper, see EXPERIMENTS.md).
pub fn iou_table(title: &str, outcomes: &[EvalOutcome]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "IoU", "3~5", "6~8", "9~11", "12~14", "3~14"
    ));
    for o in outcomes {
        let [c0, c1, c2, c3] = Bucket::ALL.map(|b| match o.test.iou.mean(b) {
            Some(v) => format!("{v:.3}"),
            None => "-".into(),
        });
        s.push_str(&format!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            o.name,
            c0,
            c1,
            c2,
            c3,
            match o.test.iou.overall() {
                Some(v) => format!("{v:.3}"),
                None => "-".into(),
            }
        ));
    }
    s
}

/// Formats named per-epoch loss curves (Figures 9–10) as one
/// `series,epoch,loss` CSV, series in the given order.
pub fn curves_csv(series: &[(&str, &[f32])]) -> String {
    let mut s = String::from("series,epoch,loss\n");
    for (name, curve) in series {
        for (i, l) in curve.iter().enumerate() {
            s.push_str(&format!("{name},{},{l:.6}\n", i + 1));
        }
    }
    s
}

/// CSV rows of an accuracy table (`method,bucket,accuracy_pct`).
pub fn accuracy_csv(outcomes: &[EvalOutcome]) -> String {
    let mut s = String::from("method,bucket,accuracy_pct\n");
    for o in outcomes {
        for &b in &Bucket::ALL {
            if let Some(a) = o.test.accuracy.acc(b) {
                s.push_str(&format!("{},{},{a:.2}\n", o.name, b.label()));
            }
        }
        if let Some(a) = o.test.accuracy.overall() {
            s.push_str(&format!("{},3~14,{a:.2}\n", o.name));
        }
    }
    s
}

/// Formats scenario rows as a Table III-style robustness table: one row per
/// scenario (baseline first), per-bucket accuracy columns, overall accuracy,
/// mean IoU, and the excluded-sample count. Rows are never merged — the
/// point of the suite is that no pathology hides inside an average.
pub fn scenario_table(title: &str, rows: &[ScenarioOutcome]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    if let Some(first) = rows.first() {
        s.push_str(&format!("method: {}\n", first.method));
    }
    s.push_str(&format!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>6}\n",
        "Scenario", "#Samples", "3~5", "6~8", "9~11", "12~14", "Acc(3~14)", "IoU", "Excl"
    ));
    for r in rows {
        let [c0, c1, c2, c3] = Bucket::ALL.map(|b| fmt_pct(r.accuracy.acc(b)));
        s.push_str(&format!(
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>6}\n",
            r.scenario.label(),
            r.accuracy.total(),
            c0,
            c1,
            c2,
            c3,
            fmt_pct(r.accuracy.overall()),
            match r.iou.overall() {
                Some(v) => format!("{v:.3}"),
                None => "-".into(),
            },
            r.excluded_test_samples
        ));
    }
    s
}

/// CSV rows of a scenario table
/// (`method,scenario,samples,excluded,accuracy_pct,mean_iou`); accuracy and
/// IoU are the scenario-overall values, one row per scenario.
pub fn scenario_csv(rows: &[ScenarioOutcome]) -> String {
    let mut s = String::from("method,scenario,samples,excluded,accuracy_pct,mean_iou\n");
    for r in rows {
        s.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.method,
            r.scenario.label(),
            r.accuracy.total(),
            r.excluded_test_samples,
            match r.accuracy.overall() {
                Some(a) => format!("{a:.2}"),
                None => "-".into(),
            },
            match r.iou.overall() {
                Some(v) => format!("{v:.4}"),
                None => "-".into(),
            }
        ));
    }
    s
}

fn fmt_pct(v: Option<f64>) -> String {
    match v {
        Some(p) => format!("{p:.1}"),
        None => "-".into(),
    }
}

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.2}"),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{BucketAccuracy, BucketIou};
    use crate::runner::SweepStats;
    use crate::timing::BucketTiming;
    use lead_core::pipeline::TrainingReport;
    use std::time::Duration;

    fn outcome() -> EvalOutcome {
        let mut accuracy = BucketAccuracy::new();
        accuracy.record(4, true);
        accuracy.record(7, false);
        let mut timing = BucketTiming::new();
        timing.record(4, Duration::from_millis(5));
        timing.record(7, Duration::from_millis(9));
        let mut iou = BucketIou::new();
        iou.record(4, 1.0);
        iou.record(7, 0.4);
        EvalOutcome {
            name: "LEAD",
            test: SweepStats {
                accuracy,
                timing,
                iou,
                excluded_test_samples: 0,
            },
            report: TrainingReport::default(),
            train_seconds: 1.0,
        }
    }

    #[test]
    fn accuracy_table_contains_rows_and_headers() {
        let t = accuracy_table("Table III", &[outcome()]);
        assert!(t.contains("Table III"));
        assert!(t.contains("3~5"));
        assert!(t.contains("LEAD"));
        assert!(t.contains("100.0"));
        assert!(t.contains("50.0")); // overall
    }

    #[test]
    fn timing_table_contains_ms() {
        let t = timing_table("Figure 8", &[outcome()]);
        assert!(t.contains("5.00"));
        assert!(t.contains("9.00"));
    }

    #[test]
    fn iou_table_formats_means() {
        let t = iou_table("Soft accuracy", &[outcome()]);
        assert!(t.contains("1.000"));
        assert!(t.contains("0.400"));
        assert!(t.contains("0.700")); // overall mean
    }

    #[test]
    fn curve_csv_is_one_line_per_epoch() {
        let csv = curves_csv(&[
            ("HA in LEAD", &[0.5, 0.25][..]),
            ("HA in LEAD-NoSel", &[0.75][..]),
        ]);
        assert_eq!(csv.lines().count(), 1 + 3);
        assert!(csv.contains("HA in LEAD,2,0.250000"));
        assert!(csv.ends_with("HA in LEAD-NoSel,1,0.750000\n"));
    }

    #[test]
    fn accuracy_csv_has_per_bucket_rows() {
        let csv = accuracy_csv(&[outcome()]);
        assert!(csv.contains("LEAD,3~5,100.00"));
        assert!(csv.contains("LEAD,3~14,50.00"));
    }

    fn scenario_rows() -> Vec<ScenarioOutcome> {
        use lead_synth::ScenarioKind;
        ScenarioKind::ALL
            .iter()
            .map(|&kind| {
                let mut accuracy = BucketAccuracy::new();
                accuracy.record(4, kind == ScenarioKind::Baseline);
                let mut iou = BucketIou::new();
                iou.record(4, 0.75);
                ScenarioOutcome {
                    scenario: kind,
                    method: "SP-R",
                    accuracy,
                    iou,
                    excluded_test_samples: kind.index(),
                }
            })
            .collect()
    }

    #[test]
    fn scenario_table_has_one_row_per_scenario() {
        let t = scenario_table("Robustness per scenario", &scenario_rows());
        assert!(t.contains("method: SP-R"));
        for label in [
            "baseline",
            "tunnel-dropout",
            "clock-skew",
            "spoof-jump",
            "mixed-rates",
            "multi-leg",
        ] {
            assert!(t.contains(label), "missing row `{label}`:\n{t}");
        }
        assert!(t.contains("0.750"));
    }

    #[test]
    fn scenario_csv_keeps_scenarios_separate() {
        let csv = scenario_csv(&scenario_rows());
        assert_eq!(csv.lines().count(), 1 + 6);
        assert!(csv.contains("SP-R,baseline,1,0,100.00,0.7500"));
        assert!(csv.contains("SP-R,multi-leg,1,5,0.00,0.7500"));
    }
}
