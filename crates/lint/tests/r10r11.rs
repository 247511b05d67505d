//! R10 (`unsafe-contract`) and R11 (`hot-loop-alloc`) fire/no-fire matrix:
//! `#[allow(unsafe_code)]` placement, kernel tagging, and waiver interplay —
//! per-file cases through `scan_source`, manifest-scoped cases through
//! `scan_workspace` on fixture workspaces, and the binary's exit code on a
//! workspace planting an R10 violation. The `unsafe` sites themselves are
//! rustc's and clippy's (see `clippy_config.rs`).

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

/// A fixture crate manifest with a lead class and optional kernel tag.
fn manifest(root: &Path, dir: &str, package: &str, class: &str, kernel: Option<&str>) {
    let mut toml = format!(
        "[package]\nname = \"{package}\"\n\n[package.metadata.lead]\nclass = \"{class}\"\n"
    );
    if let Some(k) = kernel {
        toml.push_str(&format!("kernel = \"{k}\"\n"));
    }
    write(&root.join(dir).join("Cargo.toml"), &toml);
}

fn rules_of(diags: &[lead_lint::diag::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------------------
// R10 — allow(unsafe_code) placement
// ---------------------------------------------------------------------------

#[test]
fn allow_unsafe_code_outside_sanctioned_declarations_fires() {
    let src = "//! F.\n#![allow(unsafe_code)]\n";
    let diags = lead_lint::scan_source("crates/core/src/lib.rs", src);
    assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
    assert!(diags[0].message.contains("allow(unsafe_code)"));
    assert!(diags[0]
        .message
        .contains("`mod simd` in crates/nn/src/lib.rs"));
}

#[test]
fn allow_unsafe_code_on_the_sanctioned_mod_declaration_is_legal() {
    let src = "//! N.\n\n/// Kernels.\n#[allow(unsafe_code)]\npub mod simd;\n";
    let diags = lead_lint::scan_source("crates/nn/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allow_unsafe_code_on_another_module_of_the_sanctioned_crate_fires() {
    let src = "//! N.\n\n/// Kernels.\n#[allow(unsafe_code)]\npub mod simd;\n\
               /// Not sanctioned.\n#[allow(unsafe_code)]\npub mod par;\n";
    let diags = lead_lint::scan_source("crates/nn/src/lib.rs", src);
    assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
    assert_eq!(diags[0].line, 7);
}

#[test]
fn allow_unsafe_code_inside_the_sanctioned_module_fires() {
    // Re-opening at the module's own root instead of its declaration would
    // let a second file of the crate widen the sanctioned scope.
    let src = "//! K.\n#![allow(unsafe_code)]\n";
    let diags = lead_lint::scan_source("crates/nn/src/simd/mod.rs", src);
    assert_eq!(rules_of(&diags), vec!["unsafe-contract"], "{diags:?}");
}

#[test]
fn waived_allow_unsafe_code_is_silenced() {
    let src = "//! F.\n\n// lint: allow(unsafe-contract): doc exemplar, justified in review\n\
               #[allow(unsafe_code)]\nmod ffi;\n";
    let diags = lead_lint::scan_source("crates/geo/src/lib.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

/// An `allow(unsafe_code)` planted in a library crate root, run through the
/// binary: it must be reported, and the gate must fail.
#[test]
fn planted_unsafe_contract_violation_fails_the_binary() {
    let root = ws("r10-binary");
    manifest(&root, "crates/geo", "lead-geo", "lib", None);
    write(
        &root.join("crates/geo/src/lib.rs"),
        "//! G.\n\n#[allow(unsafe_code)]\nmod raw;\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_lead-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run lead-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("crates/geo/src/lib.rs:3:3: [unsafe-contract]"),
        "{stdout}"
    );
}

// ---------------------------------------------------------------------------
// R11 — hot-loop-alloc
// ---------------------------------------------------------------------------

/// A module whose loop body allocates: one `push` inside the loop, the
/// `Vec::new` hoisted above it (which must stay silent).
const HOT: &str =
    "//! Hot.\n\nfn grow(xs: &[u32]) -> Vec<u32> {\n    let mut out = Vec::new();\n    \
                   for &x in xs {\n        out.push(x);\n    }\n    out\n}\n";

#[test]
fn alloc_in_a_loop_of_a_kernel_tagged_module_fires() {
    let root = ws("r11-kernel");
    manifest(&root, "crates/core", "lead-core", "lib", Some("hot"));
    write(&root.join("crates/core/src/lib.rs"), "//! C.\n");
    write(&root.join("crates/core/src/hot.rs"), HOT);
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(rules_of(&diags), vec!["hot-loop-alloc"], "{diags:?}");
    assert_eq!(
        (diags[0].file.as_str(), diags[0].line),
        ("crates/core/src/hot.rs", 6)
    );
    assert!(diags[0].message.contains("`push`"));
}

#[test]
fn same_code_outside_the_kernel_tag_is_clean() {
    let root = ws("r11-cold");
    manifest(&root, "crates/core", "lead-core", "lib", Some("hot"));
    write(&root.join("crates/core/src/lib.rs"), "//! C.\n");
    write(&root.join("crates/core/src/cold.rs"), HOT);
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn kernel_true_tags_the_whole_crate() {
    let root = ws("r11-whole");
    manifest(&root, "crates/core", "lead-core", "lib", Some("true"));
    write(&root.join("crates/core/src/lib.rs"), "//! C.\n");
    write(&root.join("crates/core/src/anywhere.rs"), HOT);
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(rules_of(&diags), vec!["hot-loop-alloc"], "{diags:?}");
}

#[test]
fn untagged_crate_never_fires_r11() {
    let root = ws("r11-untagged");
    manifest(&root, "crates/core", "lead-core", "lib", None);
    write(&root.join("crates/core/src/lib.rs"), "//! C.\n");
    write(&root.join("crates/core/src/hot.rs"), HOT);
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn macro_allocations_in_loops_fire_per_pattern() {
    let root = ws("r11-macros");
    manifest(&root, "crates/core", "lead-core", "lib", Some("hot"));
    write(&root.join("crates/core/src/lib.rs"), "//! C.\n");
    write(
        &root.join("crates/core/src/hot.rs"),
        "//! Hot.\n\nfn f(n: usize) {\n    for _ in 0..n {\n        let v = vec![0u8];\n        \
         let s = String::new();\n        drop((v, s));\n    }\n}\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert_eq!(
        rules_of(&diags),
        vec!["hot-loop-alloc", "hot-loop-alloc"],
        "{diags:?}"
    );
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![5, 6],
        "{diags:?}"
    );
}

#[test]
fn waived_hot_loop_alloc_is_silenced() {
    let root = ws("r11-waived");
    manifest(&root, "crates/core", "lead-core", "lib", Some("hot"));
    write(&root.join("crates/core/src/lib.rs"), "//! C.\n");
    write(
        &root.join("crates/core/src/hot.rs"),
        "//! Hot.\n\nfn grow(xs: &[u32]) -> Vec<u32> {\n    let mut out = Vec::new();\n    \
         for &x in xs {\n        \
         // lint: allow(hot-loop-alloc): amortised growth, measured in benches\n        \
         out.push(x);\n    }\n    out\n}\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn allocations_in_test_loops_are_exempt() {
    let root = ws("r11-tests");
    manifest(&root, "crates/core", "lead-core", "lib", Some("hot"));
    write(&root.join("crates/core/src/lib.rs"), "//! C.\n");
    write(
        &root.join("crates/core/src/hot.rs"),
        "//! Hot.\n\n#[cfg(test)]\nmod tests {\n    fn t() {\n        let mut v = Vec::new();\n        \
         for i in 0..4 {\n            v.push(i);\n        }\n    }\n}\n",
    );
    let diags = lead_lint::scan_workspace(&root).expect("scan");
    assert!(diags.is_empty(), "{diags:?}");
}
