//! R11 (`hot-loop-alloc`) fire/no-fire matrix: kernel tagging and waiver
//! interplay, through `scan_workspace` on fixture workspaces.

use std::fs;
use std::path::{Path, PathBuf};

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
