//! End-to-end gate tests: the `lead-lint` binary against synthetic
//! workspaces (exit codes, diagnostics format) and a self-check that the
//! real shipped workspace is clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn write(path: &Path, content: &str) {
    fs::create_dir_all(path.parent().expect("file path has a parent")).expect("mkdir");
    fs::write(path, content).expect("write fixture file");
}

/// Builds a minimal fake workspace under `CARGO_TARGET_TMPDIR` and returns
/// its root. `core_lib` becomes `crates/core/src/lib.rs`.
fn fake_workspace(name: &str, core_lib: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale fake workspace");
    }
    write(
        &root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    );
    write(&root.join("crates/core/src/lib.rs"), core_lib);
    root
}

fn run_gate(root: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lead-lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("run lead-lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

#[test]
fn seeded_violation_fails_the_gate_with_file_line_diagnostics() {
    let root = fake_workspace(
        "gate-dirty",
        "//! Seeded violation.\n\nfn f(v: &[u32]) -> u32 {\n    v[0]\n}\n",
    );
    let (code, stdout) = run_gate(&root);
    assert_eq!(code, 1, "a violation must fail CI; output:\n{stdout}");
    assert!(
        stdout.contains("crates/core/src/lib.rs:4:6: [panic]"),
        "diagnostic must carry file:line:col and the rule id:\n{stdout}"
    );
    assert!(
        stdout.contains("v[0]"),
        "diagnostic must quote the offending line:\n{stdout}"
    );
    assert!(stdout.contains("1 diagnostic(s)"), "{stdout}");
}

#[test]
fn clean_workspace_passes_the_gate() {
    let root = fake_workspace(
        "gate-clean",
        "//! Clean crate.\n\n/// Adds one.\npub fn add_one(x: u32) -> u32 {\n    x + 1\n}\n",
    );
    let (code, stdout) = run_gate(&root);
    assert_eq!(code, 0, "clean workspace must pass; output:\n{stdout}");
    assert!(stdout.contains("lead-lint: clean"), "{stdout}");
}

#[test]
fn waived_violation_passes_but_reasonless_waiver_fails() {
    let waived = "//! Waived violation.\n\nfn f(v: &[u32]) -> u32 {\n    \
                  // lint: allow(panic): fixture invariant, documented here\n    \
                  v[0]\n}\n";
    let (code, _) = run_gate(&fake_workspace("gate-waived", waived));
    assert_eq!(code, 0, "a justified waiver silences the rule");

    let reasonless = "//! Reasonless waiver.\n\nfn f(v: &[u32]) -> u32 {\n    \
                      // lint: allow(panic)\n    v[0]\n}\n";
    let (code, stdout) = run_gate(&fake_workspace("gate-reasonless", reasonless));
    assert_eq!(
        code, 1,
        "a waiver without a reason must not count:\n{stdout}"
    );
    assert!(stdout.contains("bad-waiver"), "{stdout}");
}

#[test]
fn usage_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_lead-lint"))
        .arg("--no-such-flag")
        .output()
        .expect("run lead-lint");
    assert_eq!(out.status.code(), Some(2));
}

/// The tentpole acceptance check: the shipped workspace itself passes the
/// gate with zero unwaived diagnostics.
#[test]
fn shipped_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint is two levels below the workspace root")
        .to_path_buf();
    assert!(root.join("Cargo.toml").is_file(), "workspace root found");
    let diags = lead_lint::scan_workspace(&root).expect("workspace scan succeeds");
    assert!(
        diags.is_empty(),
        "the shipped workspace must pass its own gate:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
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
    for d in &lead_lint::rules::RULE_DOCS {
        assert!(stdout.contains(d.num), "{stdout}");
        assert!(stdout.contains(d.id), "{stdout}");
    }
    // One line per catalog entry plus the trailing hint.
    let rule_lines = stdout.lines().filter(|l| l.starts_with('R')).count();
    assert_eq!(rule_lines, lead_lint::rules::RULE_DOCS.len(), "{stdout}");
}

#[test]
fn explain_by_number_or_id_prints_doc_and_waiver_syntax() {
    for target in ["R11", "hot-loop-alloc"] {
        let (code, stdout, _) = run_bare(&["explain", target]);
        assert_eq!(code, 0);
        assert!(stdout.contains("R11 `hot-loop-alloc`"), "{stdout}");
        assert!(stdout.contains("kernel-tagged"), "{stdout}");
        assert!(
            stdout.contains("// lint: allow(hot-loop-alloc):"),
            "{stdout}"
        );
    }
}

#[test]
fn explain_r4_covers_both_halves() {
    let (code, stdout, _) = run_bare(&["explain", "R4"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("R4a `float-cast`"), "{stdout}");
    assert!(stdout.contains("R4b `float-eq`"), "{stdout}");
}

#[test]
fn explain_unknown_or_deleted_rule_is_a_usage_error() {
    for target in ["R99", "R12", "R10", "unsafe-contract", "determinism-taint"] {
        let (code, _, stderr) = run_bare(&["explain", target]);
        assert_eq!(code, 2, "{target}");
        assert!(stderr.contains("unknown rule"), "{stderr}");
        assert!(stderr.contains("hot-loop-alloc"), "{stderr}");
    }
}

#[test]
fn help_derives_the_rule_list_from_the_catalog() {
    let (code, stdout, _) = run_bare(&["--help"]);
    assert_eq!(code, 0);
    let nums: Vec<&str> = lead_lint::rules::RULE_DOCS.iter().map(|d| d.num).collect();
    assert!(stdout.contains(&nums.join(", ")), "{stdout}");
    assert!(stdout.contains("explain"), "{stdout}");
}
