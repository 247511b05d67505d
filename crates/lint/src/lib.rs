//! `lead-lint` — the workspace's static-analysis gate for what rustc and
//! clippy cannot check.
//!
//! LEAD's detection output must be reproducible to be trustworthy for a
//! safety-critical workload (hazardous-chemicals transport): bit-identical
//! `c-vec`s and detection distributions at any thread count, and no panics
//! on degenerate GPS days. Everything of that contract that works on one
//! site lives with the compiler: the root `Cargo.toml`'s
//! `[workspace.lints]` (every library crate inherits it; `lead-simd`
//! copies it with `unsafe` allowed) forbids `unsafe`, denies missing docs,
//! panic sites (`unwrap`, `expect`, `panic!`, `todo!`, `unimplemented!`,
//! `unreachable!`), fallible `pub fn`s without `# Errors` and `unsafe`
//! blocks without `// SAFETY:`; the root `clippy.toml` bans
//! the nondeterminism sources (R1 `HashMap`/`HashSet`, R5 `Instant`/
//! `SystemTime`, environment reads, thread identity, address hashing) and
//! R3's ad-hoc threads. Since the dependency DAG (R7) lets a result crate
//! reach only library crates, no public API can reach a panic site or a
//! nondeterminism source that the compiler has not already rejected at the
//! site. `crates/lint/tests/clippy_config.rs` pins that configuration and
//! plants a violation of each kind.
//!
//! This crate keeps the rest. It is built on a lossless hand-rolled
//! tokenizer ([`lex`] — no `syn`, no dependencies, so it runs in the
//! offline build environment). [`scan`] replays the token stream into
//! per-line code/comment views (string literals blanked, comments routed
//! aside) and tracks `#[cfg(test)]` regions by brace depth; [`blocks`]
//! builds a block-aware IR over the same token stream (loop bodies);
//! [`rules`] applies the catalog to every workspace source file, and
//! [`workspace`] adds the cross-file checks over the parsed manifests
//! ([`manifest`]). Diagnostics are printed as
//! `file:line:col: [rule] message` with the offending snippet (or as JSON);
//! any diagnostic makes the binary exit non-zero, which is how
//! `scripts/ci.sh` gates merges.
//!
//! # Rule catalog
//!
//! | id            | contract                                                        |
//! |---------------|-----------------------------------------------------------------|
//! | `panic`       | R2: no indexing by integer literal in libraries                 |
//! | `float-cast`  | R4a: no unguarded numeric narrowing in the numeric kernels      |
//! | `float-eq`    | R4b: no float `==`/`!=` against literals/consts in kernels      |
//! | `layering`    | R7: manifest dependencies are acyclic and on the sanctioned DAG |
//! | `error-contract` | R8: no `Result<_, String>` / `Box<dyn Error>` in libraries   |
//! | `scope-drift` | R9: every crate is classified; scope tables stay current        |
//! | `hot-loop-alloc` | R11: no allocation/clone calls in loop bodies of kernel-tagged modules |
//!
//! R7–R9 are cross-file: they read a parsed subset of every workspace
//! `Cargo.toml` ([`manifest`]), so a dependency edge outside the sanctioned
//! DAG, or a new crate missing from the classification tables, fails the
//! gate. R11 reads the block IR's loop spans inside modules tagged
//! `[package.metadata.lead] kernel = …` and flags allocation calls
//! (`Vec::new`, `push`, `collect`, `clone`, `format!`, …) in loop bodies,
//! keeping kernel inner loops allocation-free. Run `lead-lint explain R11`
//! for a rule's doc.
//!
//! # Output
//!
//! The binary prints `file:line:col: [rule] message` by default, or a
//! byte-stable JSON document with `--format json`.
//!
//! # Waivers
//!
//! A violation can be waived where the flagged construct is deliberate, but
//! the waiver must carry a written justification. The syntax is a line
//! comment on the offending line (or on a comment-only line directly above
//! it):
//!
//! ```text
//! let first = v[0]; // lint: allow(panic): length checked two lines above
//! ```
//!
//! A waiver with no reason, an unknown rule name, or one that waives nothing
//! is itself a diagnostic (`bad-waiver` / `unused-waiver`), so the gate also
//! keeps waiver hygiene honest. The clippy lints are waived the compiler's
//! way, with `#[expect(clippy::…, reason = "…")]`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod blocks;
pub mod diag;
pub mod lex;
pub mod manifest;
pub mod rules;
pub mod scan;
pub mod walk;
pub mod workspace;

use diag::Diagnostic;

/// Scans one source file (given as its workspace-relative path with forward
/// slashes, plus its contents) and returns every diagnostic.
///
/// This is the single entry point shared by the binary and the test suite:
/// fixtures are scanned by handing their contents in under a pretend
/// workspace path so rule scoping can be exercised.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    rules::apply_file(rel_path, &scan::preprocess_file(source), None)
}

/// Scans the whole workspace rooted at `root` and returns all diagnostics,
/// sorted by `(file, line, col, rule)`. `Err` reports an I/O problem
/// (unreadable file or directory), which the binary also treats as a gate
/// failure.
///
/// Unlike [`scan_source`], this runs the manifest-scoped rules too: R11's
/// kernel tags, and the layering/classification checks (R7/R9) once over
/// the whole workspace.
pub fn scan_workspace(root: &std::path::Path) -> Result<Vec<Diagnostic>, String> {
    let manifests = manifest::workspace_manifests(root)?;
    let mut diags = Vec::new();
    for rel in walk::workspace_sources(root)? {
        let full = root.join(&rel);
        let source = std::fs::read_to_string(&full)
            .map_err(|e| format!("cannot read {}: {e}", full.display()))?;
        let view = scan::preprocess_file(&source);
        diags.extend(rules::apply_file(&rel, &view, Some(&manifests)));
    }
    diags.extend(workspace::workspace_checks(root, &manifests));
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(diags)
}
