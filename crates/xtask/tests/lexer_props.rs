//! Property tests for the lexer and the line views cut from its tokens.
//!
//! `lexer::lex` is the lint's only tokenizer, and `lexer::line_views`
//! builds the line rules' per-line code/comment channels from its byte
//! spans. These tests generate random Rust-like sources from a fragment
//! pool, cut at an arbitrary point so unterminated strings, raw strings,
//! block comments and char escapes show up too, and check that:
//!
//! 1. token byte offsets round-trip: spans are ordered, non-overlapping,
//!    land on UTF-8 boundaries, slice back to the token text, and the gaps
//!    between tokens are pure whitespace;
//! 2. the line views mask what the tokens say they should: one view per
//!    source line, identifiers and numbers visible in the code channel,
//!    literal and comment words never in it, every comment's text in the
//!    comment channels of the lines it spans, and lines no token covers
//!    blank in both channels.

use proptest::prelude::*;
use xtask::lexer::{lex, line_views, Token, TokenKind};

/// Fragment pool the generator draws from. Every fragment is
/// self-terminating (closed string, closed comment), so the scanner state
/// returns to plain code between fragments and any interleaving is a
/// well-formed source.
const FRAGMENTS: &[&str] = &[
    // Identifiers and keywords (`r` and `b` are deliberate: followed by a
    // separator they must lex as idents, not raw-string openers).
    "fn",
    "run_replicas",
    "HashMap",
    "_x1",
    "r",
    "b",
    // Numbers across the lexer's forms.
    "42",
    "0.25",
    "1e3",
    "6.25e-4",
    "2E+10",
    "0xff_u32",
    "1_000.5f64",
    "0..10",
    // Strings: plain, escaped quote, raw with hashes, byte, multi-line.
    "\"hello world\"",
    "\"esc \\\" aped // not a comment\"",
    "r#\"raw \"quote\" body\"#",
    "br\"byte raw\"",
    "\"multi\nline == 0.0\nliteral\"",
    // Chars and lifetimes.
    "'x'",
    "'\\n'",
    "'\"'",
    "'a",
    "'static",
    // Comments: line (ended by its newline, so it cannot swallow the next
    // fragment), block, nested, multi-line.
    "// line comment tail\n",
    "/* block */",
    "/* multi\nline\nblock */",
    "/* outer /* nested */ tail */",
    // Punctuation and operators (multi-char ops arrive as adjacent tokens).
    "{",
    "}",
    "(",
    ")",
    ";",
    ":",
    "->",
    "==",
    ".",
    "&",
    "::",
    "#",
    // Non-ASCII: lexed as a Punct token, kept in the code channel.
    "µ",
    // Explicit line breaks so fragments land on many lines.
    "\n",
    "\n\n",
];

/// Words that occur in the pool only inside string literals and comments,
/// so they must never reach a line view's code channel.
const MASKED_WORDS: &[&str] = &[
    "hello", "world", "aped", "quote", "body", "byte", "multi", "line", "literal", "tail", "block",
    "nested", "outer", "comment",
];

/// Assembles a source from pool indices, space-separated so fragments
/// never merge (e.g. ident `r` + `"` would otherwise open a raw string),
/// then cuts it at `cut` (wrapped, then moved back to a char boundary) so
/// the last fragment may be left unterminated: an open string, raw string
/// or block comment, or a trailing `'\`.
fn assemble(indices: &[usize], cut: usize) -> String {
    let parts: Vec<&str> = indices
        .iter()
        .map(|&i| FRAGMENTS[i % FRAGMENTS.len()])
        .collect();
    let mut src = parts.join(" ");
    let mut at = cut % (src.len() + 1);
    while !src.is_char_boundary(at) {
        at -= 1;
    }
    src.truncate(at);
    src
}

/// 1-based line number of byte offset `at` in `src`.
fn line_of(src: &str, at: usize) -> usize {
    1 + src.as_bytes()[..at].iter().filter(|&&b| b == b'\n').count()
}

fn check_offsets_round_trip(src: &str, tokens: &[Token]) {
    let mut prev_end = 0usize;
    for t in tokens {
        assert!(
            t.start <= t.end && t.end <= src.len(),
            "span out of bounds: {t}"
        );
        assert!(
            src.is_char_boundary(t.start) && src.is_char_boundary(t.end),
            "span not on char boundaries: {t}"
        );
        assert!(prev_end <= t.start, "overlapping tokens at {}", t.start);
        // The gap between consecutive tokens is pure whitespace: the lexer
        // only ever skips whitespace outside a token.
        assert!(
            src[prev_end..t.start].chars().all(char::is_whitespace),
            "non-whitespace gap before {t}: {:?}",
            &src[prev_end..t.start]
        );
        match t.kind {
            // Str/Char bodies are elided and Comment text drops delimiters;
            // everything else slices back exactly.
            TokenKind::Str | TokenKind::Char | TokenKind::Comment => {}
            _ => assert_eq!(
                &src[t.start..t.end],
                t.text,
                "slice mismatch at {}",
                t.start
            ),
        }
        assert_eq!(t.line, line_of(src, t.start), "line mismatch for {t}");
        prev_end = t.end;
    }
    assert!(
        src[prev_end..].chars().all(char::is_whitespace),
        "non-whitespace tail after last token"
    );
}

fn check_line_views(src: &str, tokens: &[Token]) {
    let views = line_views(src, tokens);
    assert_eq!(views.len(), src.lines().count(), "one view per source line");

    // Code-channel visibility: every ident/number sits in code position,
    // so its line's code channel keeps it verbatim.
    for t in tokens {
        if matches!(t.kind, TokenKind::Ident | TokenKind::Number) {
            let code = &views[t.line - 1].code;
            assert!(
                code.contains(&t.text),
                "line {}: {:?} missing from code channel {:?}",
                t.line,
                t.text,
                code
            );
        }
    }

    // Masking: literal bodies and comments never reach the code channel.
    for (idx, view) in views.iter().enumerate() {
        for word in MASKED_WORDS {
            assert!(
                !view.code.contains(word),
                "line {}: {word:?} leaked into code channel {:?}",
                idx + 1,
                view.code
            );
        }
    }

    // Comment text lands, line by line, in the comment channels of the
    // lines the comment spans.
    // An empty piece says nothing (and may lie past the last view).
    for t in tokens.iter().filter(|t| t.kind == TokenKind::Comment) {
        let pieces = t.text.split('\n').enumerate();
        for (offset, piece) in pieces.filter(|(_, piece)| !piece.is_empty()) {
            let comment = &views[t.line - 1 + offset].comment;
            assert!(
                comment.contains(piece),
                "line {}: comment channel {:?} lacks {:?}",
                t.line + offset,
                comment,
                piece
            );
        }
    }

    // Lines that no token starts on or spans carry nothing in either
    // channel.
    for (idx, view) in views.iter().enumerate() {
        let lineno = idx + 1;
        let covered = tokens
            .iter()
            .any(|t| t.line <= lineno && line_of(src, t.end) >= lineno);
        if !covered {
            assert!(
                view.code.trim().is_empty() && view.comment.is_empty(),
                "line {lineno}: no token covers it but the view is {view:?}"
            );
        }
    }
}

proptest! {
    /// Byte offsets round-trip on arbitrary fragment interleavings, cut
    /// anywhere.
    #[test]
    fn offsets_round_trip(
        indices in prop::collection::vec(0usize..1000, 1..60),
        cut in 0usize..4096,
    ) {
        let src = assemble(&indices, cut);
        let tokens = lex(&src);
        check_offsets_round_trip(&src, &tokens);
    }

    /// The line views mask strings and comments exactly where the tokens
    /// put them, terminated or not.
    #[test]
    fn line_views_mask_what_the_tokens_mask(
        indices in prop::collection::vec(0usize..1000, 1..60),
        cut in 0usize..4096,
    ) {
        let src = assemble(&indices, cut);
        let tokens = lex(&src);
        check_line_views(&src, &tokens);
    }

    /// Nothing inside a string or char literal ever surfaces as an
    /// ident/number token — the lint rules' core masking guarantee.
    #[test]
    fn literal_bodies_never_leak(
        indices in prop::collection::vec(0usize..1000, 1..60),
        cut in 0usize..4096,
    ) {
        let src = assemble(&indices, cut);
        for t in lex(&src) {
            match t.kind {
                TokenKind::Str => prop_assert_eq!(t.text.as_str(), "\"\""),
                TokenKind::Char => prop_assert_eq!(t.text.as_str(), "''"),
                _ => {}
            }
        }
    }
}

/// Deterministic spot check: the fragment pool itself exercises every
/// token kind, so the property runs are not vacuous.
#[test]
fn fragment_pool_covers_all_token_kinds() {
    let src = FRAGMENTS.join(" ");
    let tokens = lex(&src);
    let has = |k: fn(&TokenKind) -> bool| tokens.iter().any(|t| k(&t.kind));
    assert!(has(|k| *k == TokenKind::Ident));
    assert!(has(|k| *k == TokenKind::Number));
    assert!(has(|k| *k == TokenKind::Str));
    assert!(has(|k| *k == TokenKind::Char));
    assert!(has(|k| *k == TokenKind::Lifetime));
    assert!(has(|k| *k == TokenKind::Comment));
    assert!(has(|k| matches!(k, TokenKind::Punct(_))));
    check_offsets_round_trip(&src, &tokens);
    check_line_views(&src, &tokens);
}
