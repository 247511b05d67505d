//! Property tests of the lossless tokenizer: for arbitrary compositions of
//! pathological source fragments, the concatenation of token texts must
//! reproduce the input byte-for-byte, and re-lexing must yield an identical
//! stream (kinds, texts, lines, columns). The vendored proptest has no
//! string strategies, so sources are composed from a fragment table via
//! index vectors.

use lead_lint::blocks::{build, BlockKind};
use lead_lint::lex::{tokenize, TokenKind};
use proptest::prelude::*;

/// Pathological building blocks: raw strings with `#` fences, nested block
/// comments, CRLF line endings, unterminated literals/comments, multi-line
/// string bodies, byte/char literals, lifetimes, and stray braces.
const FRAGMENTS: &[&str] = &[
    "fn f() {}\n",
    "let s = \"str with // no comment\";\n",
    "let r = r#\"raw \"quoted\" body\"#;\n",
    "let r2 = r##\"fence r#\" inside\"#\"##;\n",
    "let e = r\"\";\n",
    "/* block /* nested */ still comment */\n",
    "// line comment\n",
    "/// doc comment\n",
    "//! inner doc\n",
    "/** block doc */\n",
    "let c = '{'; let n = '\\n'; let b = b'\\xff';\n",
    "let multi = \"line one\nline two\";\n",
    "let bytes = b\"across\nlines\";\n",
    "let lt: &'static str = \"x\";\n",
    "let n = 1_000_000usize + 0xfe + 1.5e-3;\n",
    "\r\n",
    "   \t \n",
    "#[derive(Debug)]\nstruct S;\n",
    "let v = vec![1, 2, 3];\n",
    "}{)(\n",
    "no final newline",
    "r#type",
    "'a\n",
    // Shapes the block IR must not misparse: macro_rules! bodies (nested
    // matchers full of braces), where-clause braces, and turbofish-heavy
    // call expressions.
    "macro_rules! m { ($x:expr) => {{ $x + 1 }}; ($($t:tt)*) => { $($t)* }; }\n",
    "fn w<T>() -> T where T: Default + Clone { T::default() }\n",
    "impl<T> S<T> where T: Copy { fn g(&self) -> usize { self.v.len() } }\n",
    "let v = xs.iter().map(|x| x * 2).collect::<Vec<_>>();\n",
    "let p = \"7\".parse::<i32>().ok();\n",
    "let m = BTreeMap::<String, Vec<u8>>::new();\n",
    "fn call() { helper::<a::B, c::D<E>>(x, y) }\n",
];

/// Tail-only fragments: these swallow everything after them, so they are
/// appended last (losslessness must hold regardless).
const TAILS: &[&str] = &[
    "",
    "/* unterminated",
    "\"unterminated str",
    "r##\"unterminated raw",
];

fn source() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0..FRAGMENTS.len(), 0..24),
        0..TAILS.len(),
    )
        .prop_map(|(idxs, tail)| {
            let mut s = String::new();
            for i in idxs {
                s.push_str(FRAGMENTS[i]);
            }
            s.push_str(TAILS[tail]);
            s
        })
}

/// The comparable projection of a token stream (texts, kinds, positions).
fn shape(src: &str) -> Vec<(TokenKind, String, usize, usize)> {
    tokenize(src)
        .iter()
        .map(|t| (t.kind, t.text.to_string(), t.line, t.col))
        .collect()
}

/// The comparable projection of the block IR: every block as
/// `(kind, open line, close line, depth)`.
fn block_shape(src: &str) -> Vec<(BlockKind, usize, usize, usize)> {
    build(&tokenize(src))
        .blocks
        .iter()
        .map(|b| (b.kind, b.span.open_line, b.span.close_line, b.depth))
        .collect()
}

proptest! {
    #[test]
    fn concatenated_tokens_reproduce_the_source(src in source()) {
        let joined: String = tokenize(&src).iter().map(|t| t.text).collect();
        prop_assert_eq!(joined, src);
    }

    #[test]
    fn relexing_yields_an_identical_stream(src in source()) {
        prop_assert_eq!(shape(&src), shape(&src));
    }

    #[test]
    fn every_token_is_nonempty_and_positions_are_one_based(src in source()) {
        for t in tokenize(&src) {
            prop_assert!(!t.text.is_empty());
            prop_assert!(t.line >= 1 && t.col >= 1);
        }
    }

    #[test]
    fn block_ir_is_stable_and_well_formed(src in source()) {
        let blocks = block_shape(&src);
        prop_assert_eq!(&blocks, &block_shape(&src));
        for (_, open, close, _) in blocks {
            prop_assert!(open >= 1 && close >= open);
        }
    }
}

// Deterministic pins for the nastiest single cases, so a failure names the
// exact feature instead of a shrunk fragment soup.

#[test]
fn crlf_and_missing_final_newline_round_trip() {
    for src in ["fn a() {}\r\nfn b() {}\r\n", "let x = 1;", "\r\n\r\n", ""] {
        let joined: String = tokenize(src).iter().map(|t| t.text).collect();
        assert_eq!(joined, src);
    }
}

#[test]
fn raw_string_fences_lex_as_single_terminated_literals() {
    let src = "let r = r##\"body with \"# inside\"##;\n";
    let strs: Vec<_> = tokenize(src)
        .into_iter()
        .filter(|t| matches!(t.kind, TokenKind::Str { .. }))
        .collect();
    assert_eq!(strs.len(), 1, "{strs:?}");
    assert_eq!(strs[0].text, "r##\"body with \"# inside\"##");
    assert!(matches!(
        strs[0].kind,
        TokenKind::Str {
            raw: true,
            terminated: true
        }
    ));
}

#[test]
fn nested_block_comment_is_one_token_and_tracks_lines() {
    let src = "/* outer /* inner\n*/ tail */ fn f() {}\n";
    let toks = tokenize(src);
    assert!(matches!(
        toks.first().map(|t| t.kind),
        Some(TokenKind::BlockComment {
            terminated: true,
            ..
        })
    ));
    let f = toks
        .iter()
        .find(|t| t.text == "fn")
        .expect("fn survives after the comment");
    assert_eq!((f.line, f.col), (2, 12));
}

#[test]
fn macro_rules_body_round_trips_and_holds_no_item_body() {
    let src = "macro_rules! m {\n    ($x:expr) => {{ $x + 1 }};\n    ($($t:tt)*) => { fn_like($($t)*) };\n}\n\nfn real() {}\n";
    let joined: String = tokenize(src).iter().map(|t| t.text).collect();
    assert_eq!(joined, src);
    let items: Vec<_> = build(&tokenize(src))
        .blocks
        .into_iter()
        .filter(|b| b.kind == BlockKind::Item)
        .collect();
    assert_eq!(items.len(), 1, "{items:?}");
    assert_eq!(items[0].span.open_line, 6);
}

#[test]
fn where_clause_braces_do_not_break_body_spans() {
    let src = "fn w<T>() -> Vec<T>\nwhere\n    T: Default + Clone,\n{\n    vec![T::default()]\n}\n";
    let blocks = build(&tokenize(src)).blocks;
    assert_eq!(blocks.len(), 1, "{blocks:?}");
    assert_eq!(blocks[0].kind, BlockKind::Item);
    assert_eq!(
        (blocks[0].span.open_line, blocks[0].span.close_line),
        (4, 6)
    );
}

#[test]
fn multi_line_string_advances_line_and_resets_col() {
    let src = "let s = \"a\nbc\"; let t = 1;\n";
    let toks = tokenize(src);
    let t = toks
        .iter()
        .find(|tok| tok.text == "t")
        .expect("t after the literal");
    assert_eq!((t.line, t.col), (2, 10));
}
