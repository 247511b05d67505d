//! Diagnostic representation and rendering (text and byte-stable JSON).

use std::fmt;

/// One rule violation (or waiver-hygiene problem) at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column in the *code view* of the line (strings blanked,
    /// comments removed). Line-level and workspace-level findings use 1.
    pub col: usize,
    /// The rule id (`panic`, `float-eq`, …, or `bad-waiver`/`unused-waiver`).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        write!(f, "    | {}", self.snippet)
    }
}

/// Renders diagnostics as a compact JSON document with a trailing newline.
///
/// The emission is byte-stable: no maps, no floats, fields in a fixed order,
/// strings escaped the same way on every platform. CI diffs and the golden
/// test rely on two runs over the same tree producing identical bytes.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    out.push_str("{\"version\":1,\"count\":");
    out.push_str(&diags.len().to_string());
    out.push_str(",\"diagnostics\":[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":");
        json_string(&mut out, &d.file);
        out.push_str(",\"line\":");
        out.push_str(&d.line.to_string());
        out.push_str(",\"col\":");
        out.push_str(&d.col.to_string());
        out.push_str(",\"rule\":");
        json_string(&mut out, d.rule);
        out.push_str(",\"message\":");
        json_string(&mut out, &d.message);
        out.push_str(",\"snippet\":");
        json_string(&mut out, &d.snippet);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Appends `s` as a JSON string literal, escaping per RFC 8259 (quote,
/// backslash, and control characters; everything else passes through as
/// UTF-8).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: usize, rule: &'static str, msg: &str) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            col: 1,
            rule,
            message: msg.to_string(),
            snippet: "let x = 1;".to_string(),
        }
    }

    #[test]
    fn empty_report_shape() {
        assert_eq!(
            to_json(&[]),
            "{\"version\":1,\"count\":0,\"diagnostics\":[]}\n"
        );
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let d = diag("a.rs", 3, "panic", "say \"no\" to C:\\ paths\tnow");
        let json = to_json(&[d]);
        assert!(json.contains(r#""message":"say \"no\" to C:\\ paths\tnow""#));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn emission_is_deterministic() {
        let ds = [
            diag("a.rs", 1, "panic", "m1"),
            diag("b.rs", 2, "float-cast", "m2"),
        ];
        assert_eq!(to_json(&ds), to_json(&ds));
    }
}
