//! The performance ratchet: benchmarks gated in CI, so perf regressions
//! fail the build the same way lint regressions do (DESIGN.md §12).
//!
//! A row is one of two kinds:
//!
//! - A **ratio row** times an optimised path call by call, interleaved with
//!   its in-process reference, in [`BLOCKS`] blocks of [`BLOCK_MS`] each
//!   ([`measure_ratio`]), and fails when the median of the per-block ratios
//!   exceeds the row's bound ([`RatioRecord`]). Both arms share the core's
//!   clock, so drift between runs cancels; a revert of the optimisation
//!   reads ≈ 1.0. The bound is fixed beside the row in the suite's code and
//!   is the row's whole gate, so ratio rows have no baseline entry.
//! - An **absolute row** covers code with no in-process reference: a
//!   median wall time ([`measure`]) that fails above [`MAX_RATIO`] times its
//!   entry in the checked-in baseline. That headroom guards against
//!   complexity blow-ups, not noise: wall times of untouched rows drift by
//!   up to ≈ 1.7× between sessions.
//!
//! Every absolute record carries a *fingerprint* of its workload. When the
//! workload changes, the baseline entry goes stale instead of being compared
//! against a different workload. [`render_json`] / [`parse_json`] are the
//! canonical `bench-ratchet/v1` serialisation, pinned by a golden test.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The schema tag of the canonical serialisation.
pub const SCHEMA: &str = "bench-ratchet/v1";

/// The absolute rows' headroom: a row regresses above this many times its
/// baseline median.
pub const MAX_RATIO: f64 = 3.0;

/// Absolute slowdowns smaller than this many nanoseconds never fail the
/// ratchet, whatever the ratio: short rows flap on cache noise alone. Every
/// absolute row is long enough that [`MAX_RATIO`] binds before this floor.
pub const MIN_REGRESSION_DELTA_NS: u64 = 10_000;

/// Wall-time budget of one absolute row.
pub const SAMPLE_MS: u64 = 150;

/// Interleaved blocks behind one ratio row.
pub const BLOCKS: usize = 12;

/// Wall-time budget of one block of a ratio row.
pub const BLOCK_MS: u64 = 100;

/// One absolute row's measurement: a baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Stable row name (`component/workload` by convention).
    pub name: String,
    /// Median per-iteration wall time, nanoseconds.
    pub median_ns: u64,
    /// Number of timed iterations behind the median.
    pub iters: u64,
    /// FNV-1a hash of the workload parameters (see [`fingerprint`]).
    pub fingerprint: String,
}

/// One ratio row's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioRecord {
    /// Stable row name (`component/workload` by convention).
    pub name: String,
    /// Optimised over reference time: the median block ratio.
    pub ratio: f64,
    /// The largest ratio that passes.
    pub bound: f64,
}

impl RatioRecord {
    /// Whether the row is past its bound.
    pub fn regressed(&self) -> bool {
        self.ratio > self.bound
    }
}

/// Hashes a workload description into the fingerprint hex string stored in
/// [`BenchRecord`]. Include every parameter that shapes the work (dataset
/// seed, sizes, thresholds) so a changed workload never silently compares
/// against an old baseline.
pub fn fingerprint(workload_desc: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in workload_desc.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Runs `f` repeatedly for about `sample_ms` milliseconds (after one warmup
/// call) and returns `(median_ns, iters)`.
pub fn measure<F: FnMut()>(sample_ms: u64, mut f: F) -> (u64, u64) {
    f(); // warmup: touch caches, fault pages, JIT nothing — we are AOT.
    let budget = Duration::from_millis(sample_ms);
    let start = Instant::now();
    let mut times_ns: Vec<u64> = Vec::new();
    loop {
        let t = Instant::now();
        f();
        times_ns.push(t.elapsed().as_nanos() as u64);
        if (start.elapsed() >= budget && times_ns.len() >= 9) || times_ns.len() >= 100_000 {
            break;
        }
    }
    (median(&mut times_ns), times_ns.len() as u64)
}

/// The per-block ratios of one ratio row, sorted ascending.
#[derive(Debug, Clone)]
pub struct RatioBlocks(pub Vec<f64>);

impl RatioBlocks {
    /// The median block ratio (the upper middle one for an even count),
    /// rounded to three decimals.
    pub fn median(&self) -> f64 {
        (self.0[self.0.len() / 2] * 1000.0).round() / 1000.0
    }
}

/// Times `opt` against `reference` in `blocks` blocks of about `block_ms`
/// each. Within a block the two arms alternate call by call, taking turns
/// to go first, so both see the same clock, caches and neighbours; the
/// block's ratio is the median `opt` call over the median `reference` call.
pub fn measure_ratio(
    blocks: usize,
    block_ms: u64,
    opt: &mut dyn FnMut(),
    reference: &mut dyn FnMut(),
) -> RatioBlocks {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as u64
    };
    let budget = Duration::from_millis(block_ms);
    let mut ratios = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        opt();
        reference();
        let (mut opt_ns, mut ref_ns) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed() < budget || opt_ns.len() < 5 {
            if opt_ns.len() % 2 == 0 {
                opt_ns.push(time(opt));
                ref_ns.push(time(reference));
            } else {
                ref_ns.push(time(reference));
                opt_ns.push(time(opt));
            }
        }
        ratios.push(median(&mut opt_ns) as f64 / median(&mut ref_ns).max(1) as f64);
    }
    ratios.sort_by(f64::total_cmp);
    RatioBlocks(ratios)
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Renders records in the canonical `bench-ratchet/v1` form: sorted by name,
/// fixed key order, two-space indent, trailing newline.
pub fn render_json(records: &[BenchRecord]) -> String {
    let sorted: BTreeMap<&str, &BenchRecord> =
        records.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    s.push_str("  \"benches\": {\n");
    let n = sorted.len();
    for (i, (name, r)) in sorted.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        let _ = writeln!(
            s,
            "    \"{name}\": {{ \"median_ns\": {}, \"iters\": {}, \"fingerprint\": \"{}\" }}{comma}",
            r.median_ns, r.iters, r.fingerprint
        );
    }
    s.push_str("  }\n}\n");
    s
}

/// Parses the canonical form produced by [`render_json`].
///
/// This is deliberately *not* a general JSON parser: the ratchet only ever
/// reads files it (or a past run of it) wrote, and the golden test pins the
/// canonical shape. Anything else is a loud error.
pub fn parse_json(s: &str) -> Result<Vec<BenchRecord>, String> {
    if !s.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(match field_str(s, "schema") {
            Ok(other) => format!("schema `{other}` is not {SCHEMA}"),
            Err(_) => format!("not a {SCHEMA} file"),
        });
    }
    let mut out = Vec::new();
    for line in s.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        if rest.starts_with("schema") || rest.starts_with("benches") {
            continue;
        }
        let (name, fields) = rest
            .split_once('"')
            .ok_or_else(|| format!("unterminated bench name in `{line}`"))?;
        out.push(BenchRecord {
            name: name.to_string(),
            median_ns: field_u64(fields, "median_ns")?,
            iters: field_u64(fields, "iters")?,
            fingerprint: field_str(fields, "fingerprint")?,
        });
    }
    if out.is_empty() {
        return Err("no bench entries found".into());
    }
    Ok(out)
}

fn field_u64(fields: &str, key: &str) -> Result<u64, String> {
    let tag = format!("\"{key}\": ");
    let start = fields
        .find(&tag)
        .ok_or_else(|| format!("missing field `{key}`"))?
        + tag.len();
    let digits: String = fields[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|e| format!("bad `{key}` value: {e}"))
}

fn field_str(fields: &str, key: &str) -> Result<String, String> {
    let tag = format!("\"{key}\": \"");
    let start = fields
        .find(&tag)
        .ok_or_else(|| format!("missing field `{key}`"))?
        + tag.len();
    fields[start..]
        .split('"')
        .next()
        .map(str::to_string)
        .ok_or_else(|| format!("unterminated `{key}` value"))
}

/// One absolute row that got slower than the baseline allows.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The row's name.
    pub name: String,
    /// Current median, nanoseconds.
    pub current_ns: u64,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
}

/// The outcome of one ratchet comparison.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Absolute rows slower than `baseline × MAX_RATIO` (plus the floor).
    pub regressions: Vec<Regression>,
    /// Ratio rows past their bound.
    pub ratio_regressions: Vec<RatioRecord>,
    /// Baseline entries that no longer match the current suite: the row
    /// disappeared, or its workload fingerprint changed. Stale entries do
    /// not fail the gate but must be refreshed with `--update-baseline`.
    pub stale: Vec<String>,
    /// Current absolute rows with no baseline entry yet (new rows).
    pub missing_baseline: Vec<String>,
}

impl RatchetReport {
    /// Whether the gate passes (stale and missing entries are warnings).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.ratio_regressions.is_empty()
    }

    /// Human-readable summary, one line per finding.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for r in &self.regressions {
            let _ = writeln!(
                s,
                "REGRESSION {}: {} ns vs baseline {} ns (> {MAX_RATIO:.1}x allowed)",
                r.name, r.current_ns, r.baseline_ns
            );
        }
        for r in &self.ratio_regressions {
            let _ = writeln!(
                s,
                "REGRESSION {}: ratio {:.3} > bound {:.3}",
                r.name, r.ratio, r.bound
            );
        }
        for name in &self.stale {
            let _ = writeln!(
                s,
                "STALE      {name}: baseline entry no longer matches the suite (refresh with --update-baseline)"
            );
        }
        for name in &self.missing_baseline {
            let _ = writeln!(
                s,
                "NEW        {name}: no baseline entry yet (record with --update-baseline)"
            );
        }
        if self.passed() {
            s.push_str("all rows within their gates\n");
        }
        s
    }
}

/// Gates one run. A ratio row regresses past its bound. A
/// fingerprint-matched absolute row regresses when its median exceeds
/// `baseline × MAX_RATIO` and the absolute slowdown exceeds
/// [`MIN_REGRESSION_DELTA_NS`]; fingerprint mismatches and removed rows are
/// stale, and unknown rows are missing from the baseline.
pub fn compare(
    absolute: &[BenchRecord],
    ratios: &[RatioRecord],
    baseline: &[BenchRecord],
) -> RatchetReport {
    let base: BTreeMap<&str, &BenchRecord> =
        baseline.iter().map(|r| (r.name.as_str(), r)).collect();
    let cur: BTreeMap<&str, &BenchRecord> = absolute.iter().map(|r| (r.name.as_str(), r)).collect();

    let mut report = RatchetReport {
        ratio_regressions: ratios.iter().filter(|r| r.regressed()).cloned().collect(),
        ..RatchetReport::default()
    };
    for (name, c) in &cur {
        match base.get(name) {
            None => report.missing_baseline.push((*name).to_string()),
            Some(b) if b.fingerprint != c.fingerprint => report.stale.push((*name).to_string()),
            Some(b) => {
                if c.median_ns as f64 > b.median_ns as f64 * MAX_RATIO
                    && c.median_ns.saturating_sub(b.median_ns) > MIN_REGRESSION_DELTA_NS
                {
                    report.regressions.push(Regression {
                        name: (*name).to_string(),
                        current_ns: c.median_ns,
                        baseline_ns: b.median_ns,
                    });
                }
            }
        }
    }
    for name in base.keys() {
        if !cur.contains_key(name) {
            report.stale.push((*name).to_string());
        }
    }
    report
}
