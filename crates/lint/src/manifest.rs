//! A minimal, dependency-free `Cargo.toml` reader for the crate-layering
//! rules.
//!
//! This is *not* a TOML parser: it understands exactly the subset the
//! workspace manifests use — `[section]` headers, `key = value` lines,
//! dotted keys (`lead-geo.workspace = true`), and `#` comments — and records
//! the 1-based line of every dependency entry so layering diagnostics can
//! point at the declaration itself.

use std::path::Path;

/// One declared dependency.
#[derive(Debug, Clone)]
pub struct Dep {
    /// The package name as declared (dashes, e.g. `lead-core`).
    pub name: String,
    /// 1-based line of the declaration in the manifest.
    pub line: usize,
    /// True for `[dev-dependencies]` entries.
    pub dev: bool,
}

/// The parsed subset of one `Cargo.toml`.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workspace-relative directory of the crate (`""` for the root crate,
    /// `crates/core`, `vendor/rand`, …), forward slashes.
    pub rel_dir: String,
    /// Workspace-relative path of the manifest file itself.
    pub rel_path: String,
    /// `[package] name`, when present (virtual workspace roots have none).
    pub package: Option<String>,
    /// Declared `[dependencies]` and `[dev-dependencies]`.
    pub deps: Vec<Dep>,
    /// `[package.metadata.lead] class = "…"`, with its line.
    pub lead_class: Option<(String, usize)>,
    /// `[package.metadata.lead] kernel = …`, with its line: `"true"` tags
    /// the whole crate as a hot kernel (R11 `hot-loop-alloc`), a
    /// comma-separated list tags the named top-level modules only.
    pub lead_kernel: Option<(String, usize)>,
    /// True for `vendor/*` shims (registered as known packages, but exempt
    /// from the layering and scope rules).
    pub vendored: bool,
}

/// Parses one manifest source. `rel_dir`/`rel_path` are stored verbatim.
pub fn parse(rel_dir: &str, rel_path: &str, source: &str, vendored: bool) -> Manifest {
    let mut m = Manifest {
        rel_dir: rel_dir.to_string(),
        rel_path: rel_path.to_string(),
        package: None,
        deps: Vec::new(),
        lead_class: None,
        lead_kernel: None,
        vendored,
    };
    let mut section = String::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = strip_toml_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(end) = rest.find(']') else { continue };
            section = rest[..end].trim().to_string();
            // `[dependencies.foo]` declares `foo` directly in the header.
            for (sect, dev) in [("dependencies.", false), ("dev-dependencies.", true)] {
                if let Some(name) = section.strip_prefix(sect) {
                    m.deps.push(Dep {
                        name: unquote(name).to_string(),
                        line: idx + 1,
                        dev,
                    });
                }
            }
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        match section.as_str() {
            "package" if key == "name" => m.package = Some(unquote(value).to_string()),
            "dependencies" | "dev-dependencies" => {
                // `lead-geo.workspace = true` and `rand = { path = … }` both
                // name the package in the first key segment.
                let name = key.split('.').next().unwrap_or(key);
                m.deps.push(Dep {
                    name: unquote(name).to_string(),
                    line: idx + 1,
                    dev: section == "dev-dependencies",
                });
            }
            "package.metadata.lead" if key == "class" => {
                m.lead_class = Some((unquote(value).to_string(), idx + 1));
            }
            "package.metadata.lead" if key == "kernel" => {
                m.lead_kernel = Some((unquote(value).to_string(), idx + 1));
            }
            _ => {}
        }
    }
    m
}

/// Reads every workspace manifest: the root `Cargo.toml`, `crates/*`, and
/// `vendor/*` (the latter flagged [`Manifest::vendored`]). Missing files are
/// skipped; unreadable ones are an error.
pub fn workspace_manifests(root: &Path) -> Result<Vec<Manifest>, String> {
    let mut out = Vec::new();
    let root_toml = root.join("Cargo.toml");
    if root_toml.is_file() {
        out.push(read_one(root, "", "Cargo.toml", false)?);
    }
    for (tree, vendored) in [("crates", false), ("vendor", true)] {
        let dir = root.join(tree);
        if !dir.is_dir() {
            continue;
        }
        for entry in crate::walk::read_dir_sorted(&dir)? {
            let toml = entry.join("Cargo.toml");
            if !toml.is_file() {
                continue;
            }
            let Some(name) = entry.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            let rel_dir = format!("{tree}/{name}");
            let rel_path = format!("{rel_dir}/Cargo.toml");
            out.push(read_one(root, &rel_dir, &rel_path, vendored)?);
        }
    }
    Ok(out)
}

fn read_one(
    root: &Path,
    rel_dir: &str,
    rel_path: &str,
    vendored: bool,
) -> Result<Manifest, String> {
    let full = root.join(rel_path);
    let source = std::fs::read_to_string(&full)
        .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
    Ok(parse(rel_dir, rel_path, &source, vendored))
}

/// Drops a `#` comment unless the `#` sits inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> &str {
    s.trim().trim_matches('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[package]
name = "lead-core" # the framework crate

[package.metadata.lead]
class = "lib"
kernel = "simd,ops"

[dependencies]
lead-geo.workspace = true
rand = { path = "../vendor/rand" }

[dev-dependencies]
proptest.workspace = true

[dependencies.lead-nn]
workspace = true
"#;

    #[test]
    fn parses_name_deps_and_class() {
        let m = parse("crates/core", "crates/core/Cargo.toml", SAMPLE, false);
        assert_eq!(m.package.as_deref(), Some("lead-core"));
        assert_eq!(m.lead_class.as_ref().map(|c| c.0.as_str()), Some("lib"));
        assert_eq!(
            m.lead_kernel.as_ref().map(|k| k.0.as_str()),
            Some("simd,ops")
        );
        let deps: Vec<(&str, bool)> = m.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            deps,
            vec![
                ("lead-geo", false),
                ("rand", false),
                ("proptest", true),
                ("lead-nn", false), // the dotted section form
            ]
        );
        let geo = m.deps.iter().find(|d| d.name == "lead-geo").expect("geo");
        assert_eq!(geo.line, 10);
    }

    #[test]
    fn workspace_sections_are_not_dependencies() {
        let src = "[workspace.dependencies]\nlead-geo = { path = \"crates/geo\" }\n";
        let m = parse("", "Cargo.toml", src, false);
        assert!(m.deps.is_empty());
    }
}
