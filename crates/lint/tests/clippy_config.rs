//! The rustc and clippy configuration that owns every per-site rule of the
//! safety contract: the `[workspace.lints]` table in the root `Cargo.toml`
//! (unsafe code, missing docs, panic sites, `# Errors` sections, SAFETY
//! comments) and the ban list in the root `clippy.toml` (R1 hash
//! collections, R3 ad-hoc threads, R5 wall-clock reads, environment reads,
//! thread identity, address hashing).
//!
//! Clippy reads the first `clippy.toml` it finds walking up from a crate's
//! manifest directory, and configs do not merge; cargo cannot override one
//! inherited lint level. So the layout is the contract: one ban list at the
//! root, which `crates/bench` alone opts out of with its own file, and one
//! lint table that every library crate inherits, `lead-simd` as a copy with
//! `unsafe_code = "allow"`. The static tests pin that layout; the
//! planted-crate tests run `cargo clippy` on tiny crates that copy the real
//! configuration, so each rule is shown to fail under it as shipped.

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

/// The text of every TOML section of `toml` whose header starts with
/// `prefix` (`[workspace.lints.` or `[lints.`), headers included.
fn sections(toml: &str, prefix: &str) -> String {
    let mut out = String::new();
    let mut keep = false;
    for line in toml.lines() {
        if line.starts_with('[') {
            keep = line.starts_with(prefix);
        }
        if keep && !line.is_empty() {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The workspace lint table, as a crate-level `[lints.*]` table.
fn workspace_lints() -> String {
    let root = read(&workspace_root().join("Cargo.toml"));
    sections(&root, "[workspace.lints.").replace("[workspace.lints.", "[lints.")
}

#[test]
fn clippy_configs_sit_at_the_root_and_in_bench() {
    let root = workspace_root();
    let mut found = BTreeSet::new();
    config_dirs(&root, &root, &mut found);
    let want: BTreeSet<String> = ["", "crates/bench"].map(String::from).into();
    assert_eq!(found, want);
}

#[test]
fn the_ban_list_appears_once_and_bench_keeps_only_the_thresholds() {
    let root = workspace_root();
    let base = read(&root.join("clippy.toml"));
    let bench = read(&root.join("crates/bench/clippy.toml"));
    for key in ["disallowed-types", "disallowed-methods"] {
        assert_eq!(base.matches(key).count(), 1, "one `{key}` list");
        assert!(!bench.contains(key), "crates/bench opts out of `{key}`");
    }
    let settings = |file: &str| -> Vec<String> {
        file.lines()
            .filter(|l| l.contains("-threshold ="))
            .map(String::from)
            .collect()
    };
    assert_eq!(settings(&bench), settings(&base));
    assert_eq!(settings(&base).len(), 2);
}

#[test]
fn the_workspace_table_holds_every_per_site_rule() {
    let table = workspace_lints();
    for line in [
        "unsafe_code = \"forbid\"",
        "missing_docs = \"deny\"",
        "unwrap_used = \"deny\"",
        "expect_used = \"deny\"",
        "panic = \"deny\"",
        "todo = \"deny\"",
        "unimplemented = \"deny\"",
        "unreachable = \"deny\"",
        "missing_errors_doc = \"deny\"",
        "undocumented_unsafe_blocks = \"deny\"",
    ] {
        assert!(
            table.lines().any(|l| l == line),
            "`{line}` missing:\n{table}"
        );
    }
}

#[test]
fn every_library_crate_inherits_the_table_and_lead_simd_copies_it() {
    let root = workspace_root();
    let libs: Vec<&str> = CRATES
        .iter()
        .filter(|c| c.class == Class::Lib)
        .map(|c| c.dir)
        .collect();
    assert_eq!(libs.len(), 9, "the nine library crates");
    let simd_table =
        workspace_lints().replace("unsafe_code = \"forbid\"", "unsafe_code = \"allow\"");
    for dir in libs {
        let manifest = read(&root.join(dir).join("Cargo.toml"));
        if dir == "crates/simd" {
            assert_eq!(sections(&manifest, "[lints."), simd_table);
        } else {
            assert!(
                manifest.contains("\n[lints]\nworkspace = true\n"),
                "{dir}/Cargo.toml must say `[lints] workspace = true`"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Planted crates under `cargo clippy`
// ---------------------------------------------------------------------------

/// A three-crate workspace under `CARGO_TARGET_TMPDIR` that copies the real
/// configuration: the root `clippy.toml` and lint table, `lib/` and
/// `helper/` inheriting the table (`lib` depends on `helper`), and `simd/`
/// carrying `lead-simd`'s copy of it.
fn planted_workspace(name: &str) -> PathBuf {
    let real = workspace_root();
    let ws = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if ws.exists() {
        fs::remove_dir_all(&ws).expect("clear stale planted workspace");
    }
    let table = sections(&read(&real.join("Cargo.toml")), "[workspace.lints.");
    write(
        &ws.join("Cargo.toml"),
        &format!(
            "[workspace]\nmembers = [\"lib\", \"helper\", \"simd\"]\nresolver = \"2\"\n\n{table}"
        ),
    );
    write(&ws.join("clippy.toml"), &read(&real.join("clippy.toml")));
    let simd_lints = sections(&read(&real.join("crates/simd/Cargo.toml")), "[lints.");
    for (name, extra) in [
        (
            "lib",
            "[dependencies]\nhelper = { path = \"../helper\" }\n\n[lints]\nworkspace = true\n",
        ),
        ("helper", "[lints]\nworkspace = true\n"),
        ("simd", simd_lints.as_str()),
    ] {
        write(
            &ws.join(name).join("Cargo.toml"),
            &format!(
                "[package]\nname = \"{name}\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n{extra}"
            ),
        );
        write(&ws.join(name).join("src/lib.rs"), "//! Planted.\n");
    }
    ws
}

/// Runs `cargo clippy -- -D warnings` on one planted crate with `lib`
/// as its whole source, returning the exit status and clippy's output.
fn clippy(ws: &Path, package: &str, lib: &str) -> (bool, String) {
    write(&ws.join(package).join("src/lib.rs"), lib);
    #[expect(
        clippy::disallowed_methods,
        reason = "run the cargo that runs this test"
    )]
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

/// Whether clippy's output reports `lint` (by the lint's doc link).
fn lint_fired(out: &str, lint: &str) -> bool {
    out.contains(&format!("index.html#{lint}\n"))
}

/// A documented planted library: a crate doc plus each body as one
/// documented `pub fn`.
fn documented(bodies: &[&str]) -> String {
    let mut lib = String::from("//! Planted.\n");
    for (i, body) in bodies.iter().enumerate() {
        lib.push_str(&format!(
            "\n/// Planted {i}.\n{}\n",
            body.replace("fn f", &format!("fn f{i}"))
        ));
    }
    lib
}

/// One planted use of each banned path, with the name clippy reports.
const BANNED: [(&str, &str); 14] = [
    (
        "std::collections::HashMap",
        "pub fn f() -> usize {\n    std::collections::HashMap::<u32, u32>::new().len()\n}",
    ),
    (
        "std::collections::HashSet",
        "pub fn f() -> usize {\n    std::collections::HashSet::<u32>::new().len()\n}",
    ),
    (
        "std::time::Instant",
        "pub fn f() -> std::time::Duration {\n    std::time::Instant::now().elapsed()\n}",
    ),
    (
        "std::time::SystemTime",
        "pub fn f() -> bool {\n    std::time::SystemTime::now().elapsed().is_ok()\n}",
    ),
    (
        "std::thread::ThreadId",
        "pub fn f(id: std::thread::ThreadId) -> String {\n    format!(\"{id:?}\")\n}",
    ),
    (
        "std::thread::spawn",
        "pub fn f() -> bool {\n    std::thread::spawn(|| {}).join().is_ok()\n}",
    ),
    (
        "std::thread::scope",
        "pub fn f() {\n    std::thread::scope(|_| {});\n}",
    ),
    (
        "std::thread::Builder::spawn",
        "pub fn f() -> bool {\n    std::thread::Builder::new().spawn(|| {}).is_ok()\n}",
    ),
    (
        "std::thread::Builder::spawn_scoped",
        "pub fn f<'s>(s: &'s std::thread::Scope<'s, '_>) -> bool {\n    \
         std::thread::Builder::new().spawn_scoped(s, || {}).is_ok()\n}",
    ),
    (
        "std::thread::current",
        "pub fn f() -> bool {\n    std::thread::current().name().is_some()\n}",
    ),
    (
        "std::env::var",
        "pub fn f() -> bool {\n    std::env::var(\"LEAD\").is_ok()\n}",
    ),
    (
        "std::env::var_os",
        "pub fn f() -> bool {\n    std::env::var_os(\"LEAD\").is_some()\n}",
    ),
    (
        "std::env::vars",
        "pub fn f() -> usize {\n    std::env::vars().count()\n}",
    ),
    (
        "std::ptr::hash",
        "pub fn f<H: std::hash::Hasher>(x: &u8, h: &mut H) {\n    std::ptr::hash(x, h);\n}",
    ),
];

#[test]
fn every_banned_path_fails_clippy_in_a_library_crate() {
    let ws = planted_workspace("clippy-config-bans");

    // Control: the same shapes on the sanctioned types pass.
    let clean = documented(&[
        "pub fn f() -> usize {\n    std::collections::BTreeMap::<u32, u32>::new().len()\n}",
    ]);
    let (ok, out) = clippy(&ws, "lib", &clean);
    assert!(ok, "a clean library crate must pass clippy:\n{out}");

    let bodies: Vec<&str> = BANNED.iter().map(|(_, body)| *body).collect();
    let (ok, out) = clippy(&ws, "lib", &documented(&bodies));
    assert!(!ok, "the banned paths must fail clippy:\n{out}");
    for (path, _) in BANNED {
        assert!(
            out.contains(&format!("disallowed method `{path}`"))
                || out.contains(&format!("disallowed type `{path}`")),
            "`{path}` not reported:\n{out}"
        );
    }
}

/// A `pub fn` that reaches a panic site only through a private helper.
#[test]
fn private_helper_panic_path_fails_clippy() {
    let ws = planted_workspace("clippy-config-panic");
    let helper = |site: &str| {
        format!(
            "//! Planted.\n\n/// Entry.\npub fn entry(o: Option<u32>) -> u32 {{\n    helper(o)\n}}\n\n\
             fn helper(o: Option<u32>) -> u32 {{\n    {site}\n}}\n"
        )
    };
    for (site, lint) in [
        ("o.unwrap()", "unwrap_used"),
        ("o.expect(\"some\")", "expect_used"),
        ("o.unwrap_or_else(|| panic!(\"none\"))", "panic"),
        ("o.unwrap_or_else(|| todo!())", "todo"),
        (
            "o.unwrap_or_else(|| unimplemented!())",
            "clippy::unimplemented",
        ),
        ("o.unwrap_or_else(|| unreachable!())", "unreachable"),
    ] {
        let (ok, out) = clippy(&ws, "lib", &helper(site));
        assert!(!ok, "`{site}` must fail clippy:\n{out}");
        assert!(
            out.contains(lint),
            "`{site}` not reported as {lint}:\n{out}"
        );
        assert!(out.contains("lib/src/lib.rs:9:"), "{out}");
    }

    // Test code may panic: a failing assertion is the test doing its job.
    let tests = "//! Planted.\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                 let o = Some(1u32);\n        assert_eq!(o.unwrap(), 1);\n        \
                 o.expect(\"some\");\n        if o.is_none() {\n            panic!(\"none\");\n        }\n    }\n}\n";
    let (ok, out) = clippy(&ws, "lib", tests);
    assert!(ok, "panic sites in test code must pass:\n{out}");
}

#[test]
fn clock_laundered_through_a_helper_crate_fails_clippy_in_the_helper() {
    let ws = planted_workspace("clippy-config-laundered");
    write(
        &ws.join("helper/src/lib.rs"),
        "//! Planted.\n\n/// Milliseconds since an arbitrary instant.\npub fn now_ms() -> u128 {\n    \
         let t = std::time::Instant::now();\n    t.elapsed().as_millis()\n}\n",
    );
    let (ok, out) = clippy(
        &ws,
        "lib",
        "//! Planted.\n\n/// Entry.\npub fn entry() -> u128 {\n    helper::now_ms()\n}\n",
    );
    assert!(!ok, "the helper's clock read must fail clippy:\n{out}");
    assert!(
        out.contains("disallowed type `std::time::Instant`"),
        "{out}"
    );
    assert!(out.contains("helper/src/lib.rs:5:"), "{out}");
}

/// The shape of `lead-simd`'s kernels: an `unsafe` block under a
/// `// SAFETY:` comment.
const KERNEL: &str = "//! Planted.\n\n/// Reads.\npub fn read(x: &u8) -> u8 {\n    \
                      // SAFETY: `x` is a live reference.\n    \
                      unsafe { std::ptr::read(x) }\n}\n";

#[test]
fn unsafe_outside_lead_simd_fails() {
    let ws = planted_workspace("clippy-config-unsafe");
    let (ok, out) = clippy(&ws, "simd", KERNEL);
    assert!(
        ok,
        "the kernel crate's table must pass a documented block:\n{out}"
    );

    // Every other library inherits `forbid`, which no `allow` re-opens: not
    // on a module, as `lead-nn` once re-opened `mod simd`, nor anywhere.
    let reopened = "//! Planted.\n\n/// Kernels.\n#[allow(unsafe_code)]\npub mod simd {\n    \
                    /// Reads.\n    pub fn read(x: &u8) -> u8 {\n        \
                    // SAFETY: `x` is a live reference.\n        \
                    unsafe { std::ptr::read(x) }\n    }\n}\n";
    for package in ["lib", "helper"] {
        let (ok, out) = clippy(&ws, package, reopened);
        assert!(!ok, "{out}");
        assert!(out.contains("incompatible with previous forbid"), "{out}");
    }

    // Inside the kernel crate, a block without its `// SAFETY:` fails.
    let bare = KERNEL.replace("    // SAFETY: `x` is a live reference.\n", "");
    let (ok, out) = clippy(&ws, "simd", &bare);
    assert!(!ok, "{out}");
    assert!(lint_fired(&out, "undocumented_unsafe_blocks"), "{out}");
}

#[test]
fn fallible_pub_fn_without_errors_doc_and_undocumented_items_fail() {
    let ws = planted_workspace("clippy-config-docs");
    let fallible = "pub fn f(s: &str) -> Result<u32, std::num::ParseIntError> {\n    s.parse()\n}";
    let (ok, out) = clippy(&ws, "helper", &documented(&[fallible]));
    assert!(!ok, "{out}");
    assert!(lint_fired(&out, "missing_errors_doc"), "{out}");

    let with_errors = format!("/// # Errors\n/// When `s` is no number.\n{fallible}");
    let (ok, out) = clippy(&ws, "helper", &documented(&[&with_errors]));
    assert!(ok, "a documented failure mode must pass:\n{out}");

    let (ok, out) = clippy(&ws, "helper", "//! Planted.\n\npub fn f() {}\n");
    assert!(!ok, "{out}");
    assert!(
        out.contains("missing documentation for a function"),
        "{out}"
    );
}
