//! Integration tests for the bench-ratchet: a golden test pinning the
//! `bench-ratchet/v1` serialisation byte-for-byte, round-trip and comparison
//! semantics, the fingerprint contract, and the committed `bench.baseline`
//! holding gates that can fire.
//!
//! The golden test is the schema's change detector: if the rendering ever
//! shifts, every checked-in `bench.baseline` becomes unreadable, so the
//! bytes below may only change together with a schema version bump.

use lead_bench::ratchet::{
    compare, fingerprint, measure, measure_ratio, parse_json, render_json, BenchRecord,
    RatioRecord, MAX_RATIO, MIN_REGRESSION_DELTA_NS, SCHEMA,
};

fn abs(name: &str, median_ns: u64, iters: u64, fp: &str) -> BenchRecord {
    BenchRecord {
        name: name.to_string(),
        median_ns,
        iters,
        fingerprint: fp.to_string(),
    }
}

fn ratio(name: &str, ratio: f64, bound: f64) -> RatioRecord {
    RatioRecord {
        name: name.to_string(),
        ratio,
        bound,
    }
}

#[test]
fn golden_render_is_byte_stable() {
    // Deliberately unsorted input: the renderer must sort by name.
    let records = vec![
        abs("processing/pipeline", 123456, 42, "4ef570f2c2a53211"),
        abs("data/read", 1, 7, "2c6da72178dd505e"),
    ];
    let expected = "{\n\
        \x20 \"schema\": \"bench-ratchet/v1\",\n\
        \x20 \"benches\": {\n\
        \x20   \"data/read\": { \"median_ns\": 1, \"iters\": 7, \"fingerprint\": \"2c6da72178dd505e\" },\n\
        \x20   \"processing/pipeline\": { \"median_ns\": 123456, \"iters\": 42, \"fingerprint\": \"4ef570f2c2a53211\" }\n\
        \x20 }\n\
        }\n";
    assert_eq!(render_json(&records), expected);
    assert_eq!(SCHEMA, "bench-ratchet/v1");
}

#[test]
fn render_parse_roundtrip_preserves_records() {
    let records = vec![
        abs("b/two", 2_000_000, 10, "aaaa"),
        abs("a/one", 455, 56, "bbbb"),
    ];
    let parsed = parse_json(&render_json(&records)).expect("canonical form parses");
    // Parse returns name-sorted records (the canonical order).
    assert_eq!(parsed, vec![records[1].clone(), records[0].clone()]);
}

#[test]
fn parse_rejects_foreign_files() {
    assert!(parse_json("{}").is_err());
    let v999 = parse_json("{ \"schema\": \"bench-ratchet/v999\" }").unwrap_err();
    assert!(v999.contains("bench-ratchet/v999"), "{v999}");
    assert!(v999.contains(SCHEMA), "{v999}");
    // Right schema tag but no entries is still an error, not an empty pass.
    let empty = "{\n  \"schema\": \"bench-ratchet/v1\",\n  \"benches\": {\n  }\n}\n";
    assert!(parse_json(empty).is_err());
}

#[test]
fn compare_flags_regressions_stale_and_new() {
    let baseline = vec![
        abs("a", 1_000_000, 10, "fp-a"),
        abs("b", 1_000_000, 10, "fp-b"),
        abs("gone", 1_000_000, 10, "fp-gone"),
    ];
    let current = vec![
        abs("a", 5_000_000, 10, "fp-a"),     // 5x slower: regression
        abs("b", 5_000_000, 10, "fp-b2"),    // refingerprinted: stale, not regression
        abs("fresh", 1_000, 10, "fp-fresh"), // no baseline yet
    ];
    let ratios = vec![
        ratio("r", 0.70, 0.56),  // past its bound: regression
        ratio("ok", 0.55, 0.56), // within its bound
    ];
    let report = compare(&current, &ratios, &baseline);
    assert!(!report.passed());
    let names: Vec<&str> = report.regressions.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["a"]);
    assert_eq!(report.ratio_regressions, [ratios[0].clone()]);
    let mut stale = report.stale.clone();
    stale.sort();
    assert_eq!(stale, ["b", "gone"]);
    assert_eq!(report.missing_baseline, ["fresh"]);
    let rendered = report.render();
    assert!(rendered.contains("REGRESSION a: 5000000 ns vs baseline 1000000 ns"));
    assert!(rendered.contains("REGRESSION r: ratio 0.700 > bound 0.560"));
    assert!(rendered.contains("STALE"));
    assert!(rendered.contains("NEW"));
    assert!(!rendered.contains("all rows within"));
}

#[test]
fn tiny_absolute_slowdowns_never_regress() {
    // 100 ns -> 900 ns is a 9x ratio but far under the absolute floor:
    // sub-microsecond rows flap on cache noise and must not fail CI.
    let baseline = vec![abs("t", 100, 10, "fp")];
    let current = vec![abs("t", 900, 10, "fp")];
    assert!(compare(&current, &[], &baseline).passed());
    // Just past the floor with the same ratio, it does regress.
    let baseline = vec![abs("t", MIN_REGRESSION_DELTA_NS, 10, "fp")];
    let current = vec![abs("t", MIN_REGRESSION_DELTA_NS * 9, 10, "fp")];
    assert!(!compare(&current, &[], &baseline).passed());
}

#[test]
fn every_absolute_row_of_the_baseline_can_fail_at_max_ratio() {
    // Below the floor, `MIN_REGRESSION_DELTA_NS` and not `MAX_RATIO` would
    // decide: a row too short for the floor would pass any slowdown under
    // floor / baseline.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench.baseline");
    let raw = std::fs::read_to_string(path).expect("bench.baseline is committed");
    let rows = parse_json(&raw).expect("bench.baseline parses");
    for r in rows {
        assert!(
            r.median_ns as f64 * (MAX_RATIO - 1.0) > MIN_REGRESSION_DELTA_NS as f64,
            "{}: {} ns is too short for the {MIN_REGRESSION_DELTA_NS} ns floor",
            r.name,
            r.median_ns
        );
    }
}

#[test]
fn fingerprints_separate_workloads() {
    let a = fingerprint("n=14 dim=64 seed=9");
    let b = fingerprint("n=14 dim=64 seed=10");
    assert_ne!(a, b);
    assert_eq!(a, fingerprint("n=14 dim=64 seed=9"));
    assert_eq!(a.len(), 16);
    assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
}

#[test]
fn measure_reports_sane_medians() {
    let mut counter = 0u64;
    let (median_ns, iters) = measure(5, || {
        counter = counter.wrapping_add(1);
        std::hint::black_box(counter);
    });
    assert!(iters >= 9, "at least the minimum iteration count");
    assert!(median_ns < 1_000_000_000, "a no-op cannot take a second");
}

#[test]
fn measure_ratio_sees_the_cheaper_arm() {
    let work = |n: u64| {
        let mut acc = 0u64;
        for i in 0..n {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        acc
    };
    let blocks = measure_ratio(
        3,
        5,
        &mut || {
            std::hint::black_box(work(2_000));
        },
        &mut || {
            std::hint::black_box(work(20_000));
        },
    );
    assert_eq!(blocks.0.len(), 3);
    assert!(blocks.0.windows(2).all(|w| w[0] <= w[1]), "sorted blocks");
    assert!(blocks.median() < 0.6, "a tenth of the work: {:?}", blocks.0);
}
