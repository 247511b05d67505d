//! The clippy configuration that took over R1 (`HashMap`/`HashSet`), R3
//! (thread spawning) and R5 (`Instant`/`SystemTime`) from `lead-lint`.
//!
//! Clippy reads the first `clippy.toml` it finds walking up from a crate's
//! manifest directory, and configs do not merge. So the layout is the
//! contract: a root file (R3) and, in each result-affecting crate of
//! `rules::CRATES`, a copy of it plus the R1/R5 `disallowed-types` block.
//! The static tests pin that layout; the planted-crate tests run
//! `cargo clippy` on tiny crates that copy the real files, so each banned
//! path is shown to fail under the configuration as shipped.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use lead_lint::rules::{Class, CRATES};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint is two levels below the workspace root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn write(path: &Path, content: &str) {
    fs::create_dir_all(path.parent().expect("file path has a parent")).expect("mkdir");
    fs::write(path, content).expect("write fixture file");
}

/// Workspace-relative directories (`""` = root) of the result-affecting
/// crates, in table order.
fn result_dirs() -> Vec<&'static str> {
    CRATES
        .iter()
        .filter(|c| c.class == Class::ResultLib)
        .map(|c| c.dir)
        .collect()
}

/// Every directory under `dir` holding a `clippy.toml`, relative to `root`.
/// Build output and hidden directories are skipped.
fn config_dirs(root: &Path, dir: &Path, out: &mut BTreeSet<String>) {
    if dir.join("clippy.toml").is_file() {
        let rel = dir.strip_prefix(root).expect("under the root");
        out.insert(rel.to_string_lossy().replace('\\', "/"));
    }
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let skip = name.is_none_or(|n| n == "target" || n.starts_with('.'));
        if path.is_dir() && !skip {
            config_dirs(root, &path, out);
        }
    }
}

#[test]
fn clippy_configs_sit_at_the_root_and_in_each_result_crate() {
    let root = workspace_root();
    let mut found = BTreeSet::new();
    config_dirs(&root, &root, &mut found);
    let mut want: BTreeSet<String> = result_dirs().into_iter().map(String::from).collect();
    want.insert(String::new());
    assert_eq!(found, want);
}

#[test]
fn each_result_crate_config_is_the_root_config_plus_the_r1_r5_block() {
    let root = workspace_root();
    let base = read(&root.join("clippy.toml"));
    assert!(
        !base.contains("disallowed-types"),
        "R1/R5 must not reach non-result crates"
    );
    let mut blocks = BTreeSet::new();
    for dir in result_dirs() {
        let file = read(&root.join(dir).join("clippy.toml"));
        let block = file
            .strip_prefix(base.as_str())
            .unwrap_or_else(|| panic!("{dir}/clippy.toml must start with the root clippy.toml"));
        blocks.insert(block.to_string());
    }
    assert_eq!(
        blocks.len(),
        1,
        "the R1/R5 block differs between crates: {blocks:?}"
    );
}

// ---------------------------------------------------------------------------
// Planted crates under `cargo clippy`
// ---------------------------------------------------------------------------

/// A two-crate workspace under `CARGO_TARGET_TMPDIR` whose clippy configs
/// copy the real ones: `result/` carries a result crate's file, `plain/`
/// sees only the root file (as every non-result crate does).
fn planted_workspace() -> PathBuf {
    let real = workspace_root();
    let ws = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-config");
    if ws.exists() {
        fs::remove_dir_all(&ws).expect("clear stale planted workspace");
    }
    write(
        &ws.join("Cargo.toml"),
        "[workspace]\nmembers = [\"result\", \"plain\"]\nresolver = \"2\"\n",
    );
    write(&ws.join("clippy.toml"), &read(&real.join("clippy.toml")));
    let result_config = real.join(result_dirs()[0]).join("clippy.toml");
    write(&ws.join("result/clippy.toml"), &read(&result_config));
    for name in ["result", "plain"] {
        write(
            &ws.join(name).join("Cargo.toml"),
            &format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n"),
        );
        write(&ws.join(name).join("src/lib.rs"), "");
    }
    ws
}

/// Runs `cargo clippy -- -D warnings` on one planted crate with `lib`
/// as its whole source, returning the exit status and clippy's output.
fn clippy(ws: &Path, package: &str, lib: &str) -> (bool, String) {
    write(&ws.join(package).join("src/lib.rs"), lib);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(ws)
        .env_remove("CLIPPY_CONF_DIR")
        .env_remove("CARGO_TARGET_DIR")
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "-p",
            package,
            "--target-dir",
        ])
        .arg(ws.join("target"))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("run cargo clippy");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// One planted use of each banned path, with the name clippy reports.
const BANNED: [(&str, &str); 8] = [
    (
        "std::collections::HashMap",
        "pub fn f() -> usize {\n    std::collections::HashMap::<u32, u32>::new().len()\n}\n",
    ),
    (
        "std::collections::HashSet",
        "pub fn f() -> usize {\n    std::collections::HashSet::<u32>::new().len()\n}\n",
    ),
    (
        "std::time::Instant",
        "pub fn f() -> std::time::Duration {\n    std::time::Instant::now().elapsed()\n}\n",
    ),
    (
        "std::time::SystemTime",
        "pub fn f() -> bool {\n    std::time::SystemTime::now().elapsed().is_ok()\n}\n",
    ),
    (
        "std::thread::spawn",
        "pub fn f() -> bool {\n    std::thread::spawn(|| {}).join().is_ok()\n}\n",
    ),
    (
        "std::thread::scope",
        "pub fn f() {\n    std::thread::scope(|_| {});\n}\n",
    ),
    (
        "std::thread::Builder::spawn",
        "pub fn f() -> bool {\n    std::thread::Builder::new().spawn(|| {}).is_ok()\n}\n",
    ),
    (
        "std::thread::Builder::spawn_scoped",
        "pub fn f<'s>(s: &'s std::thread::Scope<'s, '_>) -> bool {\n    \
         std::thread::Builder::new().spawn_scoped(s, || {}).is_ok()\n}\n",
    ),
];

#[test]
fn every_banned_path_fails_clippy_in_a_result_crate_and_only_r3_elsewhere() {
    let ws = planted_workspace();

    // Control: the same shapes on the sanctioned types pass.
    let clean =
        "pub fn f() -> usize {\n    std::collections::BTreeMap::<u32, u32>::new().len()\n}\n";
    let (ok, out) = clippy(&ws, "result", clean);
    assert!(ok, "a clean result crate must pass clippy:\n{out}");

    for (path, lib) in BANNED {
        let (ok, out) = clippy(&ws, "result", lib);
        assert!(!ok, "`{path}` must fail clippy in a result crate:\n{out}");
        assert!(out.contains("disallowed"), "{out}");
        assert!(
            out.contains(&format!("`{path}`")),
            "`{path}` not named:\n{out}"
        );
    }

    // Under only the root config, R3 fires but R1/R5 do not.
    let mixed = "pub fn f() -> usize {\n    \
                 let t = std::time::Instant::now();\n    \
                 let m = std::collections::HashMap::<u32, u32>::new();\n    \
                 let _ = std::thread::spawn(|| {}).join();\n    \
                 m.len() + t.elapsed().subsec_nanos() as usize\n}\n";
    let (ok, out) = clippy(&ws, "plain", mixed);
    assert!(!ok, "R3 applies to every crate:\n{out}");
    assert!(out.contains("`std::thread::spawn`"), "{out}");
    assert!(
        !out.contains("disallowed type"),
        "R1/R5 leaked into a non-result crate:\n{out}"
    );
}
