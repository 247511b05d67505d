//! The rule catalog and its application to preprocessed lines.
//!
//! Rule scoping is by workspace-relative path. The catalog (mirrored in
//! DESIGN.md) distinguishes two file classes:
//!
//! - **library crates** (`lead_core`, `lead_data`, `lead_nn`, `lead_simd`,
//!   `lead_geo`, `lead_eval`, `lead_baselines`, `lead_synth`, `lead_obs`) —
//!   no indexing by integer literal (R2) and no stringly error types (R8);
//! - **numeric kernels** (`lead_nn`, `lead_simd`, `lead_core::detection`,
//!   `lead_core::encoding`, `lead_core::features`) — must not narrow floats
//!   or compare them exactly without a guard (R4).
//!
//! Everything that works on one site and that rustc or clippy can express
//! lives in the root `Cargo.toml`'s `[workspace.lints]` and in `clippy.toml`
//! (see the crate docs). Waiver hygiene applies to every scanned file. Test
//! code (`#[cfg(test)]` regions; `tests/` and `benches/` trees are never
//! scanned) is exempt from everything except waiver hygiene.
//!
//! The structural rule rides on the block IR ([`crate::blocks`]): R11
//! (`hot-loop-alloc`) bans allocation calls inside loop bodies of
//! kernel-tagged modules (`[package.metadata.lead] kernel`).

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::manifest::Manifest;
use crate::scan::{FileView, Line};
use crate::workspace;

/// One rule's user-facing documentation: the `lead-lint explain` source of
/// truth, mirrored by the DESIGN.md §10 table.
pub struct RuleDoc {
    /// The rule number as printed in docs (`"R4a"`/`"R4b"` share R4).
    pub num: &'static str,
    /// The machine-readable identifier, as used in waivers.
    pub id: &'static str,
    /// One-paragraph description: what the rule enforces, and why.
    pub doc: &'static str,
    /// An example waiver line for the rule.
    pub waiver: &'static str,
}

/// The rule catalog documentation, in catalog order. [`RULE_IDS`] is derived
/// from this table, so the identifier list can never drift from the docs.
pub const RULE_DOCS: [RuleDoc; 7] = [
    RuleDoc {
        num: "R2",
        id: "panic",
        doc: "Library crates must not index by integer literal (`v[0]`): it \
              panics when the collection is shorter, and degenerate GPS days \
              are data, not bugs — use `.get(…)`, `.first()` or destructuring. \
              The other panic sites (`unwrap`, `expect`, `panic!`, `todo!`, \
              `unimplemented!`, `unreachable!`) are clippy lints in \
              `[workspace.lints]`.",
        waiver: "// lint: allow(panic): length checked two lines above",
    },
    RuleDoc {
        num: "R4a",
        id: "float-cast",
        doc: "In numeric kernels, `as` casts to integer types truncate floats \
              silently (NaN → 0), and `… as f32` narrows silently. Funnel \
              conversions through the guarded helpers in `lead_nn::num`, or \
              cast only from `len()`/`count()`/integer literals.",
        waiver: "// lint: allow(float-cast): value proven in [0, 255] above",
    },
    RuleDoc {
        num: "R4b",
        id: "float-eq",
        doc: "Exact `==`/`!=` against float literals or float constants in \
              numeric kernels is brittle under reassociation and FMA. Compare \
              with a tolerance, use `is_finite()`-style predicates, or compare \
              bit patterns explicitly.",
        waiver: "// lint: allow(float-eq): sentinel value assigned, never computed",
    },
    RuleDoc {
        num: "R7",
        id: "layering",
        doc: "Manifest dependencies must follow the sanctioned, acyclic \
              dependency DAG in the classification table (`rules::CRATES`); \
              an edge that skips a layer or inverts one couples crates the \
              architecture keeps apart. rustc already rejects an import the \
              manifest does not declare.",
        waiver: "// lint: allow(layering): transitional, tracked in ROADMAP item 4",
    },
    RuleDoc {
        num: "R8",
        id: "error-contract",
        doc: "Fallible public APIs return typed errors: `Result<_, String>` \
              and `Box<dyn Error>` are unmatchable and banned as library \
              error types. The `# Errors` doc section is clippy's \
              `missing_errors_doc`.",
        waiver: "// lint: allow(error-contract): FFI boundary, stringly by design",
    },
    RuleDoc {
        num: "R9",
        id: "scope-drift",
        doc: "The classification table and the tree must agree: every crate \
              directory appears in `rules::CRATES`, every manifest's \
              `[package.metadata.lead] class` matches the table, and every \
              sanctioned-scope path exists. Drift here silently widens or \
              voids the other rules.",
        waiver: "// lint: allow(scope-drift): crate split in flight, table follows",
    },
    RuleDoc {
        num: "R11",
        id: "hot-loop-alloc",
        doc: "Loop bodies of kernel-tagged modules (`[package.metadata.lead] \
              kernel`) must not allocate (`push`/`collect`/`clone`/`Vec::new`/\
              `format!`/…): per-iteration allocation is the dominant \
              avoidable cost in the NN hot paths — hoist or reuse buffers.",
        waiver: "// lint: allow(hot-loop-alloc): runs once per epoch, not per sample",
    },
];

/// The machine-readable rule identifiers, as used in waivers. Derived from
/// [`RULE_DOCS`] so the two can never drift.
pub const RULE_IDS: [&str; 7] = {
    let mut ids = [""; 7];
    let mut i = 0;
    while i < RULE_DOCS.len() {
        ids[i] = RULE_DOCS[i].id;
        i += 1;
    }
    ids
};

/// A crate's role in the workspace, deciding which rule families apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Library code: under `[workspace.lints]` and the clippy ban list,
    /// plus R2's literal-index check and R8's typed errors.
    Lib,
    /// Binaries and benches: free to panic, read the clock, use hash maps.
    Bin,
    /// Developer tooling (the lint gate itself): like `Bin`, but must stay
    /// dependency-free.
    Tool,
}

impl Class {
    /// Every class, for validation and diagnostics.
    pub const ALL: [Class; 3] = [Class::Lib, Class::Bin, Class::Tool];

    /// The metadata string used in `[package.metadata.lead] class = "…"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Lib => "lib",
            Class::Bin => "bin",
            Class::Tool => "tool",
        }
    }
}

/// One classified workspace crate.
pub struct CrateInfo {
    /// Workspace-relative crate directory (`""` for the root crate).
    pub dir: &'static str,
    /// The package name in `Cargo.toml`.
    pub package: &'static str,
    /// The crate's class; `[package.metadata.lead]` must agree (R9).
    pub class: Class,
    /// Sanctioned workspace dependencies (R7); ignored for `Bin`.
    pub allowed: &'static [&'static str],
}

/// The classification table — the single source of truth shared by the
/// per-file scope helpers, the layering rules (R7), and the scope-drift
/// audit (R9). Mirrored in DESIGN.md §10; adding a crate without extending
/// this table is itself a diagnostic.
pub const CRATES: [CrateInfo; 12] = [
    CrateInfo {
        dir: "",
        package: "lead",
        class: Class::Bin,
        allowed: &[],
    },
    CrateInfo {
        dir: "crates/baselines",
        package: "lead-baselines",
        class: Class::Lib,
        allowed: &["lead-geo", "lead-nn", "lead-core"],
    },
    CrateInfo {
        dir: "crates/bench",
        package: "lead-bench",
        class: Class::Bin,
        allowed: &[],
    },
    CrateInfo {
        dir: "crates/core",
        package: "lead-core",
        class: Class::Lib,
        allowed: &["lead-geo", "lead-data", "lead-nn", "lead-obs"],
    },
    CrateInfo {
        dir: "crates/data",
        package: "lead-data",
        class: Class::Lib,
        allowed: &["lead-geo"],
    },
    CrateInfo {
        dir: "crates/eval",
        package: "lead-eval",
        class: Class::Lib,
        allowed: &[
            "lead-geo",
            "lead-synth",
            "lead-core",
            "lead-baselines",
            "lead-obs",
        ],
    },
    CrateInfo {
        dir: "crates/geo",
        package: "lead-geo",
        class: Class::Lib,
        allowed: &[],
    },
    CrateInfo {
        dir: "crates/lint",
        package: "lead-lint",
        class: Class::Tool,
        allowed: &[],
    },
    CrateInfo {
        dir: "crates/nn",
        package: "lead-nn",
        class: Class::Lib,
        allowed: &["lead-obs", "lead-simd"],
    },
    CrateInfo {
        dir: "crates/obs",
        package: "lead-obs",
        class: Class::Lib,
        allowed: &[],
    },
    CrateInfo {
        dir: "crates/simd",
        package: "lead-simd",
        class: Class::Lib,
        allowed: &[],
    },
    CrateInfo {
        dir: "crates/synth",
        package: "lead-synth",
        class: Class::Lib,
        allowed: &["lead-geo", "lead-data", "lead-core"],
    },
];

/// The numeric-kernel directories R4 scans; R9 checks that each still
/// exists on the real workspace.
pub const KERNEL_PATHS: [&str; 4] = [
    "crates/nn/src/",
    "crates/simd/src/",
    "crates/core/src/detection/",
    "crates/core/src/encoding/",
];

/// The classification-table entry for a crate directory (`""` = root).
pub fn crate_info_by_dir(dir: &str) -> Option<&'static CrateInfo> {
    CRATES.iter().find(|c| c.dir == dir)
}

/// The classification of the crate owning `rel` (a workspace-relative source
/// path), when it is in the table.
fn class_of(rel: &str) -> Option<&'static CrateInfo> {
    if rel.starts_with("src/") {
        return crate_info_by_dir("");
    }
    CRATES
        .iter()
        .find(|c| !c.dir.is_empty() && rel.strip_prefix(c.dir).is_some_and(|r| r.starts_with('/')))
}

fn is_lib(rel: &str) -> bool {
    class_of(rel).is_some_and(|c| c.class == Class::Lib)
}

fn is_kernel(rel: &str) -> bool {
    KERNEL_PATHS.iter().any(|p| rel.starts_with(p)) || rel == "crates/core/src/features.rs"
}

/// Applies the per-file catalog to one file: the single-file rules plus,
/// when the workspace `manifests` are given, the manifest-scoped R11.
pub fn apply_file(
    rel_path: &str,
    view: &FileView,
    manifests: Option<&[Manifest]>,
) -> Vec<Diagnostic> {
    let lines = view.lines.as_slice();
    let mut diags = Vec::new();
    // Which (line index, rule) pairs got waived, to detect unused waivers.
    // Tracked per (line, rule) — a line carrying violations of two rules
    // with only one waived must keep the waived rule silenced, fire the
    // other, and report no waiver-hygiene noise.
    let mut used_waivers: Vec<(usize, String)> = Vec::new();
    {
        let mut fire = |i: usize, col: usize, rule: &'static str, message: String| {
            if let Some(w) = waiver_for(lines, i, rule) {
                used_waivers.push(w);
                return;
            }
            diags.push(Diagnostic {
                file: rel_path.to_string(),
                line: lines[i].number,
                col,
                rule,
                message,
                snippet: lines[i].raw.clone(),
            });
        };
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let code = line.code.as_str();
            let mut fire_here = |rule, col, message| fire(i, col, rule, message);
            if is_lib(rel_path) {
                check_literal_index(code, &mut fire_here);
                check_error_contract(lines, i, &mut fire_here);
            }
            if is_kernel(rel_path) {
                check_float_cast(code, &mut fire_here);
                check_float_eq(code, &mut fire_here);
            }
        }
        // The structural rule over the block IR (R11).
        if manifests.is_some_and(|m| kernel_tagged(rel_path, m)) {
            check_hot_loop_alloc(view, &mut fire);
        }
    }
    check_waiver_hygiene(rel_path, lines, &used_waivers, &mut diags);
    diags
}

/// Returns the satisfied waiver covering `rule` at line index `i`: either on
/// the line itself or on a comment-only line directly above.
fn waiver_for(lines: &[Line], i: usize, rule: &str) -> Option<(usize, String)> {
    let covers = |idx: usize| {
        lines[idx]
            .waivers
            .iter()
            .any(|w| w.rules.iter().any(|r| r == rule) && !w.reason.is_empty())
    };
    if covers(i) {
        return Some((i, rule.to_string()));
    }
    if i > 0 && lines[i - 1].is_comment_only() && covers(i - 1) {
        return Some((i - 1, rule.to_string()));
    }
    None
}

// ---------------------------------------------------------------------------
// R2 — panic (literal indexing; clippy owns the other panic sites)
// ---------------------------------------------------------------------------

/// Finds `expr[<int literal>]` indexing: a `[` preceded by an identifier
/// char, `)`, or `]`, whose content is all digits/underscores.
fn check_literal_index(code: &str, fire: &mut impl FnMut(&'static str, usize, String)) {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if !(prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']') {
            continue;
        }
        let mut j = i + 1;
        while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
            j += 1;
        }
        if j > i + 1 && bytes.get(j) == Some(&b']') {
            fire(
                "panic",
                i + 1,
                format!(
                    "indexing by literal `{}` in library code: panics when the \
                     collection is shorter — use `.get(…)`, `.first()`, or destructuring",
                    &code[i..=j]
                ),
            );
            return; // one diagnostic per line, as before
        }
    }
}

// ---------------------------------------------------------------------------
// R4a — float-cast
// ---------------------------------------------------------------------------

const INT_TYPES: [&str; 12] = [
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
];

fn check_float_cast(code: &str, fire: &mut impl FnMut(&'static str, usize, String)) {
    let mut from = 0usize;
    while let Some(pos) = find_word_from(code, "as", from) {
        from = pos + 2;
        // Token after `as `.
        let after = code[pos + 2..].trim_start();
        let target = after
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .next()
            .unwrap_or("");
        // Token before ` as` (trailing non-space run).
        let before = code[..pos].trim_end();
        if INT_TYPES.contains(&target) {
            fire(
                "float-cast",
                pos + 1,
                format!(
                    "`as {target}` in a numeric kernel: `as` truncates floats \
                     silently (NaN → 0) — use a guarded conversion helper \
                     (`lead_nn::num`) or checked conversion"
                ),
            );
        } else if target == "f32" && !int_source_exempt(before) {
            fire(
                "float-cast",
                pos + 1,
                "`… as f32` in a numeric kernel narrows silently — funnel \
                 through `lead_nn::num` (finite/exactness-guarded) or cast \
                 from `len()`/an integer literal"
                    .to_string(),
            );
        }
    }
}

/// Sources that are obviously integral (and small), for which `as f32` is
/// deterministic and exact: `len()`, `count()`, or a bare integer literal.
fn int_source_exempt(before: &str) -> bool {
    if before.ends_with("len()") || before.ends_with("count()") {
        return true;
    }
    let tail: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    !tail.is_empty() && tail.chars().all(|c| c.is_ascii_digit() || c == '_')
}

// ---------------------------------------------------------------------------
// R4b — float-eq
// ---------------------------------------------------------------------------

fn check_float_eq(code: &str, fire: &mut impl FnMut(&'static str, usize, String)) {
    let bytes = code.as_bytes();
    for i in 0..bytes.len().saturating_sub(1) {
        let two = &bytes[i..i + 2];
        let is_eq = two == b"==" && (i == 0 || !matches!(bytes[i - 1], b'=' | b'!' | b'<' | b'>'));
        let is_ne = two == b"!=" && bytes.get(i + 2) != Some(&b'=');
        if !(is_eq || is_ne) || bytes.get(i + 2) == Some(&b'=') {
            continue;
        }
        let rhs = code[i + 2..].trim_start();
        let lhs = code[..i].trim_end();
        if token_is_floaty(first_operand(rhs)) || token_is_floaty(&last_operand(lhs)) {
            fire(
                "float-eq",
                i + 1,
                "exact float comparison in a numeric kernel: `==`/`!=` on floats \
                 is brittle — compare with a tolerance, use `is_finite()`/\
                 `is_sign_positive()`, or compare bit patterns explicitly"
                    .to_string(),
            );
            return; // one diagnostic per line is enough
        }
    }
}

fn first_operand(s: &str) -> &str {
    let s = s.strip_prefix('-').unwrap_or(s);
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':'))
        .unwrap_or(s.len());
    &s[..end]
}

fn last_operand(s: &str) -> String {
    s.chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.' || *c == ':')
        .collect::<String>()
        .chars()
        .rev()
        .collect()
}

/// Whether a comparison operand is a float literal (`0.0`, `1e-6`, `2f32`)
/// or a float special constant (`f32::NAN`, `f64::INFINITY`, …).
fn token_is_floaty(tok: &str) -> bool {
    if tok.is_empty() {
        return false;
    }
    for special in ["INFINITY", "NEG_INFINITY", "NAN", "EPSILON"] {
        if (tok.starts_with("f32::")
            || tok.starts_with("f64::")
            || tok.contains("::f32::")
            || tok.contains("::f64::"))
            && tok.ends_with(special)
        {
            return true;
        }
    }
    let numeric = tok.strip_suffix("f32").or_else(|| tok.strip_suffix("f64"));
    let (body, had_suffix) = match numeric {
        Some(b) => (b, true),
        None => (tok, false),
    };
    if body.is_empty() || !body.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let looks_numeric = body
        .chars()
        .all(|c| c.is_ascii_digit() || c == '.' || c == '_' || c == 'e' || c == 'E' || c == '-');
    looks_numeric && (body.contains('.') || body.contains('e') || body.contains('E') || had_suffix)
}

// ---------------------------------------------------------------------------
// R8 — error-contract (typed errors; clippy owns the `# Errors` section)
// ---------------------------------------------------------------------------

fn check_error_contract(
    lines: &[Line],
    i: usize,
    fire: &mut impl FnMut(&'static str, usize, String),
) {
    let trimmed = lines[i].code.trim_start();
    if !(trimmed.starts_with("pub fn ") || trimmed.starts_with("pub const fn ")) {
        return;
    }
    let Some(err) = return_type(&signature_text(lines, i)).and_then(|ret| result_err_type(&ret))
    else {
        return;
    };
    let banned = err == "String"
        || err.ends_with("::String")
        || (err.starts_with("Box<") && err.contains("dyn") && err.contains("Error"));
    if banned {
        fire(
            "error-contract",
            lines[i].code.len() - trimmed.len() + 1,
            format!(
                "`pub fn` returns `Result<_, {err}>`: stringly/boxed errors are \
                 unmatchable — use a typed error (`LeadError` or a crate-local enum)"
            ),
        );
    }
}

/// Concatenates the code of the signature starting at line `i`, up to and
/// including the line holding the body `{` or the terminating `;`.
fn signature_text(lines: &[Line], i: usize) -> String {
    let mut sig = String::new();
    for line in lines.iter().skip(i).take(32) {
        sig.push_str(line.code.as_str());
        sig.push(' ');
        if line.code.contains('{') || line.code.trim_end().ends_with(';') {
            break;
        }
    }
    sig
}

/// Extracts the return type of the first `fn` in `sig`: the text between
/// the `->` following the parameter list and the body/terminator. `None`
/// when the fn returns `()` implicitly.
fn return_type(sig: &str) -> Option<String> {
    let fn_pos = find_word(sig, "fn")?;
    let bytes = sig.as_bytes();
    let open = sig[fn_pos..].find('(')? + fn_pos;
    let mut depth = 0i32;
    let mut close = open;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
            _ => {}
        }
    }
    let rest = &sig[close + 1..];
    let arrow = rest.find("->")?;
    let after = &rest[arrow + 2..];
    let end = after
        .find('{')
        .or_else(|| find_word(after, "where"))
        .or_else(|| after.find(';'))
        .unwrap_or(after.len());
    Some(after[..end].trim().to_string())
}

/// The error type of the outermost `Result<T, E>` in a return type, when it
/// names both parameters (`io::Result<T>` aliases do not).
fn result_err_type(ret: &str) -> Option<String> {
    let pos = find_word(ret, "Result")?;
    let open = ret[pos..].find('<')? + pos;
    let bytes = ret.as_bytes();
    let mut depth = 0i32;
    let mut paren = 0i32;
    let mut comma = None;
    let mut close = None;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(k);
                    break;
                }
            }
            b'(' | b'[' => paren += 1,
            b')' | b']' => paren -= 1,
            b',' if depth == 1 && paren == 0 && comma.is_none() => comma = Some(k),
            _ => {}
        }
    }
    let (comma, close) = (comma?, close?);
    Some(ret[comma + 1..close].trim().to_string())
}

// ---------------------------------------------------------------------------
// R11 — hot-loop-alloc
// ---------------------------------------------------------------------------

/// Whether `rel_path` lies in a kernel-tagged module: its owning manifest
/// declares `[package.metadata.lead] kernel = "true"` (whole crate) or a
/// comma-separated list of top-level modules (`kernel = "simd"` covers
/// `src/simd.rs` and `src/simd/**`).
fn kernel_tagged(rel_path: &str, manifests: &[Manifest]) -> bool {
    let Some(m) = workspace::manifest_for(rel_path, manifests) else {
        return false;
    };
    let Some((val, _)) = m.lead_kernel.as_ref() else {
        return false;
    };
    if val == "true" {
        return true;
    }
    let src = if m.rel_dir.is_empty() {
        "src/".to_string()
    } else {
        format!("{}/src/", m.rel_dir)
    };
    let Some(rest) = rel_path.strip_prefix(src.as_str()) else {
        return false;
    };
    val.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .any(|module| {
            rest.strip_prefix(module)
                .is_some_and(|r| r == ".rs" || r.starts_with('/'))
        })
}

/// Method-call allocation patterns (matched after a `.`).
const ALLOC_METHODS: [&str; 6] = [
    ".push(",
    ".collect(",
    ".collect::<",
    ".to_vec()",
    ".clone()",
    ".to_owned()",
];

/// Path/macro allocation patterns (matched at an identifier boundary).
const ALLOC_PATHS: [&str; 7] = [
    "Vec::new",
    "Vec::with_capacity",
    "Box::new",
    "String::new",
    "String::from",
    "vec!",
    "format!",
];

fn check_hot_loop_alloc(
    view: &FileView,
    fire: &mut impl FnMut(usize, usize, &'static str, String),
) {
    // Nested loops cover overlapping ranges; dedupe so a line fires once.
    let mut loop_lines: BTreeSet<usize> = BTreeSet::new();
    for span in view.blocks.loop_spans() {
        for ln in span.open_line..=span.close_line {
            loop_lines.insert(ln);
        }
    }
    for &ln in &loop_lines {
        let Some(line) = view.lines.get(ln - 1) else {
            continue;
        };
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        for pat in ALLOC_METHODS {
            if let Some(pos) = code.find(pat) {
                fire(
                    ln - 1,
                    pos + 2,
                    "hot-loop-alloc",
                    hot_loop_message(pat.trim_start_matches('.')),
                );
            }
        }
        for pat in ALLOC_PATHS {
            if let Some(pos) = code.find(pat) {
                let boundary = pos == 0 || !is_ident_byte(code.as_bytes()[pos - 1]);
                if boundary {
                    fire(ln - 1, pos + 1, "hot-loop-alloc", hot_loop_message(pat));
                }
            }
        }
    }
}

fn hot_loop_message(what: &str) -> String {
    let what = what
        .trim_end_matches('<')
        .trim_end_matches(':')
        .trim_end_matches('(');
    format!(
        "`{what}` allocates inside a loop body of a kernel-tagged module (R11) — \
         hoist the allocation out of the hot loop, reuse a buffer, or waive with \
         a justification"
    )
}

// ---------------------------------------------------------------------------
// Waiver hygiene
// ---------------------------------------------------------------------------

fn check_waiver_hygiene(
    rel_path: &str,
    lines: &[Line],
    used: &[(usize, String)],
    diags: &mut Vec<Diagnostic>,
) {
    for (i, line) in lines.iter().enumerate() {
        for w in &line.waivers {
            for rule in &w.rules {
                if !RULE_IDS.contains(&rule.as_str()) {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line: line.number,
                        col: 1,
                        rule: "bad-waiver",
                        message: format!(
                            "waiver names unknown rule `{rule}` (known: {})",
                            RULE_IDS.join(", ")
                        ),
                        snippet: line.raw.clone(),
                    });
                    continue;
                }
                if w.reason.is_empty() {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line: line.number,
                        col: 1,
                        rule: "bad-waiver",
                        message: format!(
                            "waiver for `{rule}` carries no justification — every \
                             waiver must state why the contract holds"
                        ),
                        snippet: line.raw.clone(),
                    });
                    continue;
                }
                if !used.iter().any(|(ui, ur)| *ui == i && ur == rule) {
                    diags.push(Diagnostic {
                        file: rel_path.to_string(),
                        line: line.number,
                        col: 1,
                        rule: "unused-waiver",
                        message: format!("waiver for `{rule}` matches no violation — remove it"),
                        snippet: line.raw.clone(),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Finds `word` with identifier boundaries on both sides.
fn find_word(code: &str, word: &str) -> Option<usize> {
    find_word_from(code, word, 0)
}

fn find_word_from(code: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = from;
    while let Some(rel) = code.get(start..).and_then(|s| s.find(word)) {
        let pos = start + rel;
        let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}
