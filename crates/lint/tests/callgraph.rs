//! R12 (`panic-path`) and R13 (`determinism-taint`) fire/no-fire matrix:
//! direct, transitive (≥ 2 hops), cross-crate, waived (site-line and
//! declaration-line), and `#[cfg(test)]`-exempt cases for each family —
//! per-file cases through `scan_source`, cross-crate cases through
//! `scan_workspace` on fixture workspaces, some through the binary — plus
//! the `explain` subcommand and the byte-stable witness-path JSON pin.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn write(path: &Path, content: &str) {
    fs::create_dir_all(path.parent().expect("file path has a parent")).expect("mkdir");
    fs::write(path, content).expect("write fixture file");
}

fn ws(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale fixture workspace");
    }
    write(
        &root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    );
    root
}

/// Writes a fixture crate manifest with the given package name, lead class,
/// and `[dependencies]` entries.
fn crate_manifest(root: &Path, dir: &str, package: &str, class: &str, deps: &[&str]) {
    let mut toml = format!(
        "[package]\nname = \"{package}\"\n\n[package.metadata.lead]\nclass = \"{class}\"\n\n[dependencies]\n"
    );
    for d in deps {
        toml.push_str(&format!("{d} = {{ path = \"../x\" }}\n"));
    }
    write(&root.join(dir).join("Cargo.toml"), &toml);
}

/// Crate-root attrs the R10 audit demands of library crates.
const ATTRS: &str = "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n";

fn rules_of(diags: &[lead_lint::diag::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

fn run(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lead-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run lead-lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

// ---------------------------------------------------------------------------
// R12 — panic-path
// ---------------------------------------------------------------------------

#[test]
fn direct_panic_in_a_result_lib_pub_fn_fires_r2_and_r12() {
    let src = "//! E.\n\npub fn entry(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert_eq!(rules_of(&diags), vec!["panic", "panic-path"], "{diags:?}");
    let r12 = &diags[1];
    assert_eq!((r12.line, r12.col), (3, 5));
    assert!(r12.message.contains("`pub fn entry`"), "{}", r12.message);
    assert!(
        r12.message
            .contains("entry: panics at crates/eval/src/lib.rs:4 (`.unwrap()`)"),
        "{}",
        r12.message
    );
}

#[test]
fn transitive_two_hops_reports_the_full_witness_path() {
    let src = "//! E.\n\n\
               pub fn entry(v: &[u32]) -> u32 {\n    helper(v)\n}\n\n\
               fn helper(v: &[u32]) -> u32 {\n    inner(v)\n}\n\n\
               fn inner(v: &[u32]) -> u32 {\n    \
               // lint: allow(panic): fixture — length asserted by caller\n    \
               v[0]\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert_eq!(rules_of(&diags), vec!["panic-path"], "{diags:?}");
    assert!(
        diags[0]
            .message
            .contains("entry → helper → inner: panics at crates/eval/src/lib.rs:13"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[0].message.contains("(indexing by literal `[0]`)"),
        "{}",
        diags[0].message
    );
}

#[test]
fn cross_crate_panic_path_through_a_declared_dep() {
    let root = ws("cg-cross-panic");
    crate_manifest(
        &root,
        "crates/eval",
        "lead-eval",
        "result-lib",
        &["lead-synth"],
    );
    crate_manifest(&root, "crates/synth", "lead-synth", "lib", &[]);
    write(
        &root.join("crates/eval/src/lib.rs"),
        &format!(
            "//! E.\n{ATTRS}\nuse lead_synth::boom;\n\n\
             pub fn entry(n: u32) -> u32 {{\n    boom(n)\n}}\n"
        ),
    );
    write(
        &root.join("crates/synth/src/lib.rs"),
        &format!(
            "//! S.\n{ATTRS}\n\
             /// Boom.\npub fn boom(n: u32) -> u32 {{\n    deep(n)\n}}\n\n\
             fn deep(n: u32) -> u32 {{\n    let v = vec![n, n];\n    \
             // lint: allow(panic): fixture — index in range by construction\n    \
             v[0]\n}}\n"
        ),
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(rules_of(&diags), vec!["panic-path"], "{diags:?}");
    assert_eq!(diags[0].file, "crates/eval/src/lib.rs");
    assert!(
        diags[0]
            .message
            .contains("entry → boom → deep: panics at crates/synth/src/lib.rs:13"),
        "{}",
        diags[0].message
    );
}

/// A `pub fn` that reaches `unwrap()` only through a private helper fails
/// the binary, which prints the witness path.
#[test]
fn private_helper_panic_path_fails_the_binary() {
    let root = ws("cg-binary-panic");
    crate_manifest(&root, "crates/eval", "lead-eval", "result-lib", &[]);
    write(
        &root.join("crates/eval/src/lib.rs"),
        &format!(
            "//! E.\n{ATTRS}\n/// Entry.\npub fn entry(o: Option<u32>) -> u32 {{\n    \
             helper(o)\n}}\n\nfn helper(o: Option<u32>) -> u32 {{\n    o.unwrap()\n}}\n"
        ),
    );
    let (code, stdout) = run(&root, &[]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("[panic-path]"), "{stdout}");
    assert!(stdout.contains("entry → helper: panics at"), "{stdout}");
}

#[test]
fn site_waiver_covering_panic_path_silences_r12() {
    let src = "//! E.\n\npub fn entry(o: Option<u32>) -> u32 {\n    \
               // lint: allow(panic, panic-path): fixture — checked by caller\n    \
               o.unwrap()\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn decl_waiver_certifies_the_whole_fn() {
    let src = "//! E.\n\n\
               // lint: allow(panic-path): fixture — entry validates its input first\n\
               pub fn entry(v: &[u32]) -> u32 {\n    helper(v)\n}\n\n\
               fn helper(v: &[u32]) -> u32 {\n    \
               // lint: allow(panic): fixture — length asserted by caller\n    \
               v[0]\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn unused_decl_waiver_is_flagged() {
    let src = "//! E.\n\n\
               // lint: allow(panic-path): fixture — nothing to certify\n\
               pub fn entry(n: u32) -> u32 {\n    n + 1\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert_eq!(rules_of(&diags), vec!["unused-waiver"], "{diags:?}");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn cfg_test_panics_are_exempt_from_r12() {
    let src = "//! E.\n\npub fn entry(n: u32) -> u32 {\n    n\n}\n\n\
               #[cfg(test)]\nmod tests {\n    \
               pub fn entry_t(o: Option<u32>) -> u32 {\n        o.unwrap()\n    }\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn debug_assert_sites_are_exempt_from_r12() {
    let src = "//! E.\n\npub fn entry(v: &[u32]) -> u32 {\n    \
               debug_assert!(v[0] > 0);\n    0\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert_eq!(rules_of(&diags), vec!["panic"], "{diags:?}"); // R2 still sees it
}

#[test]
fn non_result_crates_have_no_r12_entries() {
    let src = "//! S.\n\npub fn entry(o: Option<u32>) -> u32 {\n    \
               // lint: allow(panic): fixture\n    o.unwrap()\n}\n";
    let diags = lead_lint::scan_source("crates/synth/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn private_fns_are_not_entries() {
    let src = "//! E.\n\nfn quiet(o: Option<u32>) -> u32 {\n    \
               // lint: allow(panic): fixture\n    o.unwrap()\n}\n\n\
               pub(crate) fn half(o: Option<u32>) -> u32 {\n    quiet(o)\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// R13 — determinism-taint
// ---------------------------------------------------------------------------

#[test]
fn hashset_reached_through_a_helper_fires_r13() {
    let src = "//! E.\n\n\
               pub fn entry(v: &[u32]) -> usize {\n    helper(v)\n}\n\n\
               fn helper(v: &[u32]) -> usize {\n    \
               // fixture — drained via len only\n    \
               let s: std::collections::HashSet<u32> = v.iter().copied().collect();\n    \
               s.len()\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert_eq!(rules_of(&diags), vec!["determinism-taint"], "{diags:?}");
    assert!(
        diags[0].message.contains(
            "entry → helper: tainted at crates/eval/src/lib.rs:9 (`HashSet` iteration order)"
        ),
        "{}",
        diags[0].message
    );
}

#[test]
fn clock_laundered_through_a_helper_crate_fires_r13() {
    // The helper is reached through a `use` and through a qualified call.
    let entries = [
        "use lead_synth::now_ms;\n\npub fn entry() -> u64 {\n    now_ms()\n}\n",
        "pub fn entry() -> u64 {\n    lead_synth::now_ms()\n}\n",
    ];
    for (k, entry) in entries.iter().enumerate() {
        let root = ws(&format!("cg-cross-clock-{k}"));
        crate_manifest(
            &root,
            "crates/eval",
            "lead-eval",
            "result-lib",
            &["lead-synth"],
        );
        crate_manifest(&root, "crates/synth", "lead-synth", "lib", &[]);
        write(
            &root.join("crates/eval/src/lib.rs"),
            &format!("//! E.\n{ATTRS}\n{entry}"),
        );
        // Legal per line: synth is not result-affecting, so clippy's R5 ban
        // never sees this clock read. Only the propagation catches it.
        write(
            &root.join("crates/synth/src/lib.rs"),
            &format!(
                "//! S.\n{ATTRS}\n\
                 /// Now.\npub fn now_ms() -> u64 {{\n    \
                 let t = std::time::Instant::now();\n    \
                 t.elapsed().subsec_millis() as u64\n}}\n"
            ),
        );
        let diags = lead_lint::scan_workspace(&root).expect("scan");
        assert_eq!(rules_of(&diags), vec!["determinism-taint"], "{diags:?}");
        assert_eq!(diags[0].file, "crates/eval/src/lib.rs");
        assert!(
            diags[0].message.contains(
                "entry → now_ms: tainted at crates/synth/src/lib.rs:7 (`Instant` wall-clock read)"
            ),
            "{}",
            diags[0].message
        );
        let (code, stdout) = run(&root, &[]);
        assert_eq!(code, 1, "the binary must fail:\n{stdout}");
        assert!(stdout.contains("entry → now_ms"), "{stdout}");
    }
}

#[test]
fn sanctioned_simd_env_probe_is_not_taint() {
    let src = "//! P.\n\n/// Probe.\npub fn forced() -> bool {\n    \
               std::env::var(\"LEAD_SIMD_FORCE\").is_ok()\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/probe.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn other_env_reads_are_taint() {
    let src = "//! P.\n\n/// Probe.\npub fn forced() -> bool {\n    \
               std::env::var(\"LEAD_BACKEND\").is_ok()\n}\n";
    let diags = lead_lint::scan_source("crates/nn/src/probe.rs", src);
    assert_eq!(rules_of(&diags), vec!["determinism-taint"], "{diags:?}");
    assert!(
        diags[0]
            .message
            .contains("forced: tainted at crates/nn/src/probe.rs:5 (`env::var` read)"),
        "{}",
        diags[0].message
    );
}

#[test]
fn taint_site_waiver_silences_r13() {
    let src = "//! E.\n\npub fn entry(v: &[u32]) -> usize {\n    \
               // lint: allow(determinism-taint): fixture — len only\n    \
               let s: std::collections::HashSet<u32> = v.iter().copied().collect();\n    \
               s.len()\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn cfg_test_taint_is_exempt_from_r13() {
    let src = "//! E.\n\npub fn entry(n: u32) -> u32 {\n    n\n}\n\n\
               #[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    \
               pub fn uniq(v: &[u32]) -> usize {\n        \
               v.iter().copied().collect::<HashSet<u32>>().len()\n    }\n}\n";
    let diags = lead_lint::scan_source("crates/eval/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// Witness determinism: byte-stable JSON
// ---------------------------------------------------------------------------

#[test]
fn witness_json_is_byte_stable() {
    let root = ws("cg-json-golden");
    crate_manifest(&root, "crates/eval", "lead-eval", "result-lib", &[]);
    write(
        &root.join("crates/eval/src/lib.rs"),
        &format!(
            "//! E.\n{ATTRS}\n\
             pub fn entry(o: Option<u32>) -> u32 {{\n    \
             // lint: allow(panic): fixture — caller checks\n    o.unwrap()\n}}\n"
        ),
    );
    let (code1, out1) = run(&root, &["--format", "json"]);
    let (code2, out2) = run(&root, &["--format", "json"]);
    assert_eq!(code1, 1);
    assert_eq!(code2, 1);
    assert_eq!(out1, out2, "JSON output must be byte-stable across runs");
    let expected = concat!(
        "{\"version\":1,\"count\":1,\"diagnostics\":[",
        "{\"file\":\"crates/eval/src/lib.rs\",\"line\":5,\"col\":5,\"rule\":\"panic-path\",",
        "\"message\":\"`pub fn entry` can reach a panic site: entry: panics at ",
        "crates/eval/src/lib.rs:7 (`.unwrap()`) — public APIs of result-affecting crates ",
        "must be panic-free end to end (R12); return a typed error, or waive a step with ",
        "`// lint: allow(panic-path): <reason>`\",",
        "\"snippet\":\"pub fn entry(o: Option<u32>) -> u32 {\"}",
        "]}\n"
    );
    assert_eq!(out1, expected);
}

// ---------------------------------------------------------------------------
// The explain subcommand and derived help
// ---------------------------------------------------------------------------

fn run_bare(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lead-lint"))
        .args(args)
        .output()
        .expect("run lead-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn explain_without_a_target_lists_the_whole_catalog() {
    let (code, stdout, _) = run_bare(&["explain"]);
    assert_eq!(code, 0);
    for (num, id) in [
        ("R2", "panic"),
        ("R12", "panic-path"),
        ("R13", "determinism-taint"),
    ] {
        assert!(stdout.contains(num), "{stdout}");
        assert!(stdout.contains(id), "{stdout}");
    }
    // One line per catalog entry plus the trailing hint.
    let rule_lines = stdout.lines().filter(|l| l.starts_with('R')).count();
    assert_eq!(rule_lines, lead_lint::rules::RULE_DOCS.len(), "{stdout}");
}

#[test]
fn explain_by_number_prints_doc_and_waiver_syntax() {
    let (code, stdout, _) = run_bare(&["explain", "R12"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("R12 `panic-path`"), "{stdout}");
    assert!(stdout.contains("witness path"), "{stdout}");
    assert!(stdout.contains("// lint: allow(panic-path):"), "{stdout}");
}

#[test]
fn explain_by_rule_id_works() {
    let (code, stdout, _) = run_bare(&["explain", "determinism-taint"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("R13 `determinism-taint`"), "{stdout}");
    assert!(stdout.contains("LEAD_SIMD_FORCE"), "{stdout}");
}

#[test]
fn explain_r4_covers_both_halves() {
    let (code, stdout, _) = run_bare(&["explain", "R4"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("R4a `float-cast`"), "{stdout}");
    assert!(stdout.contains("R4b `float-eq`"), "{stdout}");
}

#[test]
fn explain_unknown_rule_is_a_usage_error() {
    let (code, _, stderr) = run_bare(&["explain", "R99"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown rule"), "{stderr}");
    assert!(stderr.contains("panic-path"), "{stderr}");
}

#[test]
fn help_derives_the_rule_list_from_the_catalog() {
    let (code, stdout, _) = run_bare(&["--help"]);
    assert_eq!(code, 0);
    let nums: Vec<&str> = lead_lint::rules::RULE_DOCS.iter().map(|d| d.num).collect();
    assert!(stdout.contains(&nums.join(", ")), "{stdout}");
    assert!(!stdout.contains("R1-"), "no rule range: {stdout}");
    assert!(!stdout.contains("--baseline"), "{stdout}");
    assert!(stdout.contains("explain"), "{stdout}");
}
