//! Cross-file analysis: the workspace dependency graph (R7
//! `layering`) and the crate classification audit (R9 `scope-drift`).
//!
//! Per-file rules see one file at a time; these checks see the workspace as
//! a whole, through its parsed manifests ([`crate::manifest`]). Two
//! families of diagnostics come out (rustc already rejects a source file
//! that imports a crate its manifest does not declare):
//!
//! - **sanctioned-DAG violations** — a manifest edge that is either part of
//!   a dependency cycle or absent from the crate's allowed-dependency set in
//!   [`crate::rules::CRATES`] (e.g. nothing but bins may depend on
//!   `lead-eval`, and `lead-lint` stays dependency-free);
//! - **scope drift** — a crate missing from the classification table, a
//!   stale table entry whose crate no longer exists, a manifest whose
//!   `[package.metadata.lead] class` disagrees with the table, or a stale
//!   kernel path in [`crate::rules::KERNEL_PATHS`].

use std::path::Path;

use crate::diag::Diagnostic;
use crate::manifest::Manifest;
use crate::rules::{self, Class};

/// The manifest owning `rel_path` (longest matching directory prefix; the
/// root manifest owns `src/`).
pub(crate) fn manifest_for<'m>(rel_path: &str, manifests: &'m [Manifest]) -> Option<&'m Manifest> {
    let mut best: Option<&Manifest> = None;
    for m in manifests {
        let owns = if m.rel_dir.is_empty() {
            rel_path.starts_with("src/")
        } else {
            rel_path
                .strip_prefix(m.rel_dir.as_str())
                .is_some_and(|r| r.starts_with('/'))
        };
        if owns && best.is_none_or(|b| b.rel_dir.len() < m.rel_dir.len()) {
            best = Some(m);
        }
    }
    best
}

/// Runs the manifest-level checks: sanctioned-DAG edges, dependency cycles
/// (R7), and the crate classification audit (R9).
pub fn workspace_checks(root: &Path, manifests: &[Manifest]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_edges(manifests, &mut diags);
    check_cycles(manifests, &mut diags);
    check_classes(manifests, &mut diags);
    // Stale-path completeness only applies to the real workspace (root
    // package `lead`): synthetic fixture workspaces are deliberately tiny.
    let is_real = manifests
        .iter()
        .any(|m| m.rel_dir.is_empty() && m.package.as_deref() == Some("lead"));
    if is_real {
        check_completeness(root, manifests, &mut diags);
    }
    diags
}

fn workspace_package<'m>(manifests: &'m [Manifest], pkg: &str) -> Option<&'m Manifest> {
    manifests
        .iter()
        .find(|m| !m.vendored && m.package.as_deref() == Some(pkg))
}

/// R7: every lib-class crate's workspace dependencies must be in its
/// sanctioned set; tool-class crates stay dependency-free.
fn check_edges(manifests: &[Manifest], diags: &mut Vec<Diagnostic>) {
    for m in manifests.iter().filter(|m| !m.vendored) {
        let Some(pkg) = m.package.as_deref() else {
            continue;
        };
        let Some(info) = rules::crate_info_by_dir(&m.rel_dir) else {
            continue; // fixture crates: classified by metadata only, no table
        };
        for dep in m.deps.iter().filter(|d| !d.dev) {
            if workspace_package(manifests, &dep.name).is_none() {
                continue; // vendored shim or external — not a layering edge
            }
            let sanctioned = match info.class {
                Class::Bin => true,
                Class::Tool => false,
                Class::Lib => info.allowed.contains(&dep.name.as_str()),
            };
            if !sanctioned {
                let hint = match info.class {
                    Class::Tool => "the lint gate stays dependency-free".to_string(),
                    _ if info.allowed.is_empty() => format!("`{pkg}` is a leaf crate"),
                    _ => format!("sanctioned deps: {}", info.allowed.join(", ")),
                };
                diags.push(Diagnostic {
                    file: m.rel_path.clone(),
                    line: dep.line,
                    col: 1,
                    rule: "layering",
                    message: format!(
                        "`{pkg}` may not depend on `{}` — {hint} (see the sanctioned \
                         DAG in DESIGN.md §10)",
                        dep.name
                    ),
                    snippet: format!("{} -> {}", pkg, dep.name),
                });
            }
        }
    }
}

/// R7: the workspace dependency graph must stay acyclic.
fn check_cycles(manifests: &[Manifest], diags: &mut Vec<Diagnostic>) {
    let mut pkgs: Vec<&str> = manifests
        .iter()
        .filter(|m| !m.vendored)
        .filter_map(|m| m.package.as_deref())
        .collect();
    pkgs.sort_unstable();
    for &start in &pkgs {
        // Report each cycle once, at its lexicographically smallest member.
        if let Some(cycle) = find_cycle(manifests, start) {
            if cycle.iter().any(|p| p.as_str() < start) {
                continue;
            }
            let m = workspace_package(manifests, start);
            let (file, line) = m
                .and_then(|m| {
                    m.deps
                        .iter()
                        .find(|d| !d.dev && Some(&d.name) == cycle.get(1))
                        .map(|d| (m.rel_path.clone(), d.line))
                })
                .unwrap_or_else(|| ("Cargo.toml".to_string(), 1));
            diags.push(Diagnostic {
                file,
                line,
                col: 1,
                rule: "layering",
                message: format!(
                    "dependency cycle in the workspace graph: {}",
                    cycle.join(" -> ")
                ),
                snippet: cycle.join(" -> "),
            });
        }
    }
}

/// Depth-first search for a cycle through `start`; returns the cycle path
/// (`start -> … -> start`) when one exists.
fn find_cycle(manifests: &[Manifest], start: &str) -> Option<Vec<String>> {
    let mut path = vec![start.to_string()];
    dfs(manifests, start, start, &mut path).then_some(path)
}

fn dfs(manifests: &[Manifest], start: &str, at: &str, path: &mut Vec<String>) -> bool {
    let Some(m) = workspace_package(manifests, at) else {
        return false;
    };
    let mut nexts: Vec<&str> = m
        .deps
        .iter()
        .filter(|d| !d.dev)
        .map(|d| d.name.as_str())
        .filter(|n| workspace_package(manifests, n).is_some())
        .collect();
    nexts.sort_unstable();
    nexts.dedup();
    for next in nexts {
        if next == start {
            path.push(start.to_string());
            return true;
        }
        if path.iter().any(|p| p == next) {
            continue; // a cycle not through `start`; found from its own start
        }
        path.push(next.to_string());
        if dfs(manifests, start, next, path) {
            return true;
        }
        path.pop();
    }
    false
}

/// R9: every crate is classified, and manifest metadata agrees with the
/// classification table.
fn check_classes(manifests: &[Manifest], diags: &mut Vec<Diagnostic>) {
    let valid: Vec<&str> = Class::ALL.iter().map(|c| c.as_str()).collect();
    for m in manifests.iter().filter(|m| !m.vendored) {
        if m.package.is_none() {
            continue; // virtual workspace root (fixtures)
        }
        let table = rules::crate_info_by_dir(&m.rel_dir);
        match (&table, &m.lead_class) {
            (None, None) => diags.push(drift(
                m,
                1,
                format!(
                    "crate `{}` is unclassified: declare `[package.metadata.lead] class` \
                     and add it to the scope tables (rules::CRATES)",
                    m.rel_dir
                ),
            )),
            (Some(info), None) => diags.push(drift(
                m,
                1,
                format!(
                    "missing `[package.metadata.lead]`: declare `class = \"{}\"` to match \
                     the scope tables",
                    info.class.as_str()
                ),
            )),
            (Some(info), Some((class, line))) if class != info.class.as_str() => diags.push(drift(
                m,
                *line,
                format!(
                    "declared class `{class}` disagrees with the scope tables \
                     (rules::CRATES says `{}`)",
                    info.class.as_str()
                ),
            )),
            (None, Some((class, line))) if !valid.contains(&class.as_str()) => diags.push(drift(
                m,
                *line,
                format!(
                    "unknown crate class `{class}` (valid: {})",
                    valid.join(", ")
                ),
            )),
            _ => {}
        }
    }
}

fn drift(m: &Manifest, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: m.rel_path.clone(),
        line,
        col: 1,
        rule: "scope-drift",
        message,
        snippet: m.rel_dir.clone(),
    }
}

/// R9 (real workspace only): classification-table entries and scope-table
/// paths must still exist on disk, so the tables cannot rot.
fn check_completeness(root: &Path, manifests: &[Manifest], diags: &mut Vec<Diagnostic>) {
    let root_drift = |message: String| Diagnostic {
        file: "Cargo.toml".to_string(),
        line: 1,
        col: 1,
        rule: "scope-drift",
        message,
        snippet: "[workspace]".to_string(),
    };
    for info in rules::CRATES.iter().filter(|c| !c.dir.is_empty()) {
        if !manifests.iter().any(|m| m.rel_dir == info.dir) {
            diags.push(root_drift(format!(
                "scope-table entry `{}` (`{}`) has no crate on disk — remove it from \
                 rules::CRATES",
                info.dir, info.package
            )));
        }
    }
    for path in rules::KERNEL_PATHS {
        if !root.join(path).is_dir() {
            diags.push(root_drift(format!(
                "scope-table path `{path}` no longer exists — update KERNEL_PATHS in rules.rs"
            )));
        }
    }
}
