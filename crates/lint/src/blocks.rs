//! Block-aware IR over the lossless token stream: a brace tree with loop
//! bodies told apart from item bodies.
//!
//! The per-line views in [`crate::scan`] answer "what does this line say";
//! this module answers "what block does this line live in". The rule catalog
//! uses it for the structural rule R11 `hot-loop-alloc` (which lines sit
//! inside a loop body), while the lexical rules keep consuming the per-line
//! view.
//!
//! The parser is deliberately forgiving: unbalanced delimiters close at end
//! of file, and anything it cannot classify becomes an `Other` block. It
//! never panics on malformed input — broken source should surface as
//! compiler errors, not linter crashes.

use crate::lex::{Token, TokenKind};

/// What introduced a brace-delimited block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// An item body: `fn`, `impl`, `trait` or inline `mod`.
    Item,
    /// A `for … in`, `while` or `loop` body.
    Loop,
    /// Anything else: struct/enum bodies, match/if arms, closures, struct
    /// literals, `unsafe` blocks, blocks opened inside parentheses, …
    Other,
}

/// A line range covered by one block, opening and closing braces included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line of the opening `{`.
    pub open_line: usize,
    /// 1-based line of the closing `}` (last source line when unbalanced).
    pub close_line: usize,
}

/// One brace-delimited block, flat-listed in source order.
#[derive(Debug, Clone)]
pub struct Block {
    /// The classification of the block's header.
    pub kind: BlockKind,
    /// The lines the block covers.
    pub span: Span,
    /// Brace-nesting depth of the block (0 for top-level item bodies).
    pub depth: usize,
}

/// The block-aware IR for one source file.
#[derive(Debug, Clone, Default)]
pub struct FileBlocks {
    /// Every brace-delimited block in source order.
    pub blocks: Vec<Block>,
}

impl FileBlocks {
    /// Line spans of every loop body (`for`/`while`/`loop`), in source
    /// order. Nested loops each contribute their own span.
    pub fn loop_spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.blocks
            .iter()
            .filter(|b| b.kind == BlockKind::Loop)
            .map(|b| b.span)
    }
}

/// A code token retained for block classification.
struct Tok {
    text: String,
    line: usize,
}

/// One still-open `{` on the parse stack.
struct Open {
    kind: BlockKind,
    open_line: usize,
    depth: usize,
    /// The enclosing paren/bracket depth, restored on close.
    saved_paren: usize,
    saved_bracket: usize,
    /// Header length at open time, restored on close for blocks embedded in
    /// an expression so the enclosing statement's header survives (e.g. a
    /// closure body inside a `for … in` iterator chain).
    saved_header: usize,
}

/// Builds the block IR from the lossless token stream of one file.
pub fn build(tokens: &[Token<'_>]) -> FileBlocks {
    let mut toks: Vec<Tok> = Vec::new();
    let mut last_line = 1usize;
    for t in tokens {
        if !matches!(t.kind, TokenKind::Whitespace) {
            last_line = t.line + t.text.matches('\n').count();
        }
        // Punct tokens are single bytes in the lossless stream.
        if matches!(
            t.kind,
            TokenKind::Ident | TokenKind::Number | TokenKind::Lifetime | TokenKind::Punct
        ) {
            toks.push(Tok {
                text: t.text.to_string(),
                line: t.line,
            });
        }
    }

    let mut out = FileBlocks::default();
    let mut stack: Vec<Open> = Vec::new();
    let mut header: Vec<&Tok> = Vec::new();
    let mut paren: usize = 0;
    let mut bracket: usize = 0;

    let mut i = 0usize;
    while i < toks.len() {
        let tok = &toks[i];
        match tok.text.as_str() {
            "#" if bracket == 0 && paren == 0 => {
                // Attribute: skip `#` (and `!`) plus the bracketed body so
                // attr contents never pollute the header.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.text == "!") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.text == "[") {
                    let mut depth = 0usize;
                    while let Some(t) = toks.get(j) {
                        match t.text.as_str() {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                i = j + 1;
                continue;
            }
            "(" => {
                paren += 1;
                header.push(tok);
            }
            ")" => {
                paren = paren.saturating_sub(1);
                header.push(tok);
            }
            "[" => {
                bracket += 1;
                header.push(tok);
            }
            "]" => {
                bracket = bracket.saturating_sub(1);
                header.push(tok);
            }
            ";" if paren == 0 && bracket == 0 => header.clear(),
            "{" => {
                let inside_expr = paren > 0 || bracket > 0;
                let kind = if inside_expr {
                    BlockKind::Other
                } else {
                    classify(&header)
                };
                stack.push(Open {
                    kind,
                    open_line: tok.line,
                    depth: stack.len(),
                    saved_paren: paren,
                    saved_bracket: bracket,
                    saved_header: if inside_expr { header.len() } else { 0 },
                });
                paren = 0;
                bracket = 0;
                if !inside_expr {
                    header.clear();
                }
            }
            "}" => {
                let mut embedded = false;
                if let Some(open) = stack.pop() {
                    out.blocks.push(Block {
                        kind: open.kind,
                        span: Span {
                            open_line: open.open_line,
                            close_line: tok.line,
                        },
                        depth: open.depth,
                    });
                    paren = open.saved_paren;
                    bracket = open.saved_bracket;
                    embedded = open.saved_paren > 0 || open.saved_bracket > 0;
                    if embedded {
                        // A block embedded in an expression (closure body in
                        // an iterator chain, …): restore the statement
                        // header that was in flight.
                        header.truncate(open.saved_header);
                    }
                }
                if !embedded {
                    header.clear();
                }
            }
            _ => header.push(tok),
        }
        i += 1;
    }

    // Unbalanced input: close every open block at the last seen line.
    while let Some(open) = stack.pop() {
        out.blocks.push(Block {
            kind: open.kind,
            span: Span {
                open_line: open.open_line,
                close_line: last_line,
            },
            depth: open.depth,
        });
    }
    out.blocks.sort_by_key(|b| (b.span.open_line, b.depth));
    out
}

/// Classifies a `{` by its header keywords, highest-priority first. Item
/// keywords outrank the loop keywords, so `impl Trait for Type` and
/// `fn f() where for<'a> …` never read as loops.
fn classify(header: &[&Tok]) -> BlockKind {
    let has = |kw: &str| header.iter().any(|t| t.text == kw);
    if has("fn") || has("mod") || has("impl") || has("trait") {
        BlockKind::Item
    } else if (has("for") && has("in")) || has("while") || has("loop") {
        BlockKind::Loop
    } else {
        BlockKind::Other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn ir(src: &str) -> FileBlocks {
        build(&lex::tokenize(src))
    }

    #[test]
    fn classifies_items_and_loops() {
        let src = "\
mod m {
    trait T { fn t(&self); }
    struct S;
    impl T for S {
        fn t(&self) {
            for i in 0..3 { body(i); }
            while go() { body(0); }
            loop { break; }
        }
    }
}
";
        let kinds: Vec<BlockKind> = ir(src).blocks.iter().map(|x| x.kind).collect();
        // mod, trait, impl and fn bodies are items: `impl T for S` is never
        // a for-loop.
        assert_eq!(
            kinds,
            vec![
                BlockKind::Item,
                BlockKind::Item,
                BlockKind::Item,
                BlockKind::Item,
                BlockKind::Loop,
                BlockKind::Loop,
                BlockKind::Loop,
            ]
        );
    }

    #[test]
    fn loop_spans_cover_multiline_bodies() {
        let src = "\
fn f() {
    for i in 0..3 {
        step(i);
    }
}
";
        let b = ir(src);
        let spans: Vec<Span> = b.loop_spans().collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].open_line, 2);
        assert_eq!(spans[0].close_line, 4);
    }

    #[test]
    fn closure_in_loop_header_is_not_a_loop_body() {
        // The `{` inside the parens belongs to a closure, not the for body.
        let src = "fn f() { for i in xs.iter().map(|x| { x + 1 }) { use_it(i); } }\n";
        let b = ir(src);
        assert_eq!(b.loop_spans().count(), 1);
        let closures = b
            .blocks
            .iter()
            .filter(|x| x.kind == BlockKind::Other)
            .count();
        assert_eq!(closures, 1);
    }

    #[test]
    fn unbalanced_braces_close_at_eof() {
        let src = "fn f() {\n    loop {\n        step();\n";
        let b = ir(src);
        assert_eq!(b.blocks.len(), 2);
        for blk in &b.blocks {
            assert_eq!(blk.span.close_line, 3);
        }
    }

    #[test]
    fn struct_literal_and_match_are_other() {
        let src = "fn f() { let p = Point { x: 1, y: 2 }; match p { _ => {} } }\n";
        let b = ir(src);
        let others = b
            .blocks
            .iter()
            .filter(|x| x.kind == BlockKind::Other)
            .count();
        assert!(others >= 3, "literal, match, arm: {:?}", b.blocks);
        assert_eq!(b.loop_spans().count(), 0);
    }
}
