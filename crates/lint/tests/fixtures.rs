//! Per-rule fixture tests: each fixture under `fixtures/` is scanned under a
//! pretend workspace path so the scope tables apply, and the diagnostics are
//! compared against the exact `(rule, line)` pairs annotated in the fixture.

use lead_lint::scan_source;

fn fires(rel_path: &str, fixture: &str) -> Vec<(String, usize)> {
    let mut v: Vec<(String, usize)> = scan_source(rel_path, fixture)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect();
    // scan_source reports rule violations before waiver-hygiene findings;
    // sort by line for stable comparisons.
    v.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    v
}

#[test]
fn panic_fixture() {
    let got = fires(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/panic.rs"),
    );
    assert_eq!(got, vec![("panic".into(), 6), ("panic".into(), 10)]);
}

#[test]
fn float_fixture() {
    let got = fires(
        "crates/nn/src/fixture.rs",
        include_str!("../fixtures/float.rs"),
    );
    assert_eq!(
        got,
        vec![
            ("float-cast".into(), 5),
            ("float-cast".into(), 6),
            ("float-cast".into(), 8),
            ("float-cast".into(), 9),
            ("float-cast".into(), 9),
            ("float-eq".into(), 20),
            ("float-eq".into(), 21),
            ("float-eq".into(), 22),
        ]
    );
}

#[test]
fn float_rules_only_apply_in_kernel_scope() {
    // The same source under a non-kernel path (lead_synth) yields no R4
    // diagnostics at all.
    let got = fires(
        "crates/synth/src/fixture.rs",
        include_str!("../fixtures/float.rs"),
    );
    assert!(
        got.iter()
            .all(|(r, _)| r != "float-cast" && r != "float-eq"),
        "non-kernel paths must not fire R4: {got:?}"
    );
}

#[test]
fn waiver_hygiene_fixture() {
    let got = fires(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/waiver_hygiene.rs"),
    );
    assert_eq!(
        got,
        vec![
            ("bad-waiver".into(), 4),
            ("panic".into(), 7),
            ("bad-waiver".into(), 8),
            ("unused-waiver".into(), 13),
        ]
    );
}

#[test]
fn bench_and_cli_crates_are_exempt_from_result_rules() {
    let panics = include_str!("../fixtures/panic.rs");
    assert!(
        fires("crates/cli/src/fixture.rs", panics)
            .iter()
            .all(|(r, _)| r != "panic"),
        "cli crate may panic"
    );
}
