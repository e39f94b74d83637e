//! Whole-file tokenizer — the static-analysis engine's only lexical pass.
//!
//! [`lex`] turns a file into a flat token stream: identifiers, numeric
//! literals, string/char literals (contents elided), lifetimes,
//! punctuation, and comments, each carrying its byte span in the original
//! source and its 1-based line number. It handles nested block comments,
//! raw strings (`r#"…"#`, `br"…"`), escapes, and char-vs-lifetime ticks.
//! The item-graph rules read the tokens directly; the line rules read
//! [`line_views`], a per-line code/comment split built from the same
//! tokens' byte spans, so each file is lexed exactly once.

use std::fmt;

/// The lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `self`, `HashMap`, …).
    Ident,
    /// A numeric literal, including any type suffix (`42`, `0.25`, `6e3`,
    /// `0xffu32`, `1_000.5f64`).
    Number,
    /// A string or byte-string literal; `text` keeps the delimiters but the
    /// contents are elided so rules can never match inside them.
    Str,
    /// A char literal; contents elided like [`TokenKind::Str`].
    Char,
    /// A lifetime tick such as `'a` (including the ident).
    Lifetime,
    /// A single punctuation character (`{`, `.`, `:`, …). Multi-character
    /// operators arrive as adjacent tokens; the parser reassembles the few
    /// sequences it cares about (`::`, `->`).
    Punct(char),
    /// A line or block comment; `text` is the comment body without the
    /// delimiters. `lint:allow` markers are read from these tokens.
    Comment,
}

/// One lexed token with its position in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Token text. For [`TokenKind::Str`]/[`TokenKind::Char`] the contents
    /// are replaced by the delimiters only; for every other kind this is
    /// exactly `&source[start..end]`.
    pub text: String,
    /// Byte offset of the token's first byte in the source.
    pub start: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// True when the token is the identifier `word`.
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}..{}", self.text, self.start, self.end)
    }
}

/// True for characters that can start a Rust identifier.
fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

/// True for characters that can continue a Rust identifier.
pub(crate) fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenizes `source`. Never fails: unrecognized bytes become
/// [`TokenKind::Punct`] tokens, so the stream always covers the file and
/// the parser degrades gracefully on exotic input.
pub fn lex(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

/// One source line split into its code and comment channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineView {
    /// Code text with string/char contents blanked out (delimiters kept)
    /// and comments removed.
    pub code: String,
    /// Concatenated comment text appearing on this line, without the
    /// comment delimiters.
    pub comment: String,
}

impl LineView {
    /// True when the line carries no code at all (blank or comment-only).
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// Splits `source` into one [`LineView`] per `source.lines()` line, using
/// the byte spans of `tokens` (the output of [`lex`] on `source`).
///
/// Bytes between tokens are copied to the code channel verbatim. A string
/// or char literal becomes its two delimiters plus the newlines it spans,
/// so a multi-line literal keeps later lines aligned. A line comment
/// leaves the code channel; a block comment becomes one space plus its
/// newlines. Each comment's text is split on `\n` into the comment
/// channels of the lines it spans.
pub fn line_views(source: &str, tokens: &[Token]) -> Vec<LineView> {
    let mut code = String::with_capacity(source.len());
    // Same newlines as `source`, so both channels split into aligned lines.
    let mut comment = String::new();
    let mut prev = 0;
    for t in tokens {
        let gap = &source[prev..t.start];
        code.push_str(gap);
        comment.extend(gap.matches('\n'));
        let newlines = source[t.start..t.end].matches('\n');
        match t.kind {
            TokenKind::Comment => {
                if source[t.start..].starts_with("/*") {
                    code.push(' ');
                    code.extend(newlines);
                }
                comment.push_str(&t.text);
            }
            TokenKind::Str | TokenKind::Char => {
                let mut delimiters = t.text.chars();
                code.extend(delimiters.next());
                code.extend(newlines.clone());
                code.extend(delimiters.next());
                comment.extend(newlines);
            }
            _ => code.push_str(&source[t.start..t.end]),
        }
        prev = t.end;
    }
    code.push_str(&source[prev..]);
    // A final comment-only line with no trailing newline leaves nothing in
    // the code channel, so pad rather than zip to keep one view per line.
    let (mut codes, mut comments) = (code.lines(), comment.lines());
    source
        .lines()
        .map(|_| LineView {
            code: codes.next().unwrap_or_default().to_string(),
            comment: comments.next().unwrap_or_default().to_string(),
        })
        .collect()
}

struct Lexer<'a> {
    src: &'a str,
    chars: Vec<(usize, char)>,
    /// Index into `chars`.
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            chars: src.char_indices().collect(),
            pos: 0,
            line: 1,
            out: Vec::new(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).map(|&(_, c)| c)
    }

    fn offset(&self, idx: usize) -> usize {
        self.chars
            .get(idx)
            .map(|&(o, _)| o)
            .unwrap_or(self.src.len())
    }

    /// Advances one char, tracking line numbers.
    fn bump(&mut self) {
        if let Some(&(_, c)) = self.chars.get(self.pos) {
            if c == '\n' {
                self.line += 1;
            }
        }
        self.pos += 1;
    }

    fn push(&mut self, kind: TokenKind, text: String, start_idx: usize, line: usize) {
        let start = self.offset(start_idx);
        let end = self.offset(self.pos);
        self.out.push(Token {
            kind,
            text,
            start,
            end,
            line,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let start = self.pos;
            let line = self.line;
            if c == '/' && self.peek(1) == Some('/') {
                self.line_comment(start, line);
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment(start, line);
            } else if let Some(hashes) = self.raw_string_open() {
                self.raw_string(start, line, hashes);
            } else if c == '"' {
                self.string(start, line);
            } else if c == 'b' && self.peek(1) == Some('"') {
                self.bump();
                self.string(start, line);
            } else if c == 'b' && self.peek(1) == Some('\'') {
                self.bump();
                self.char_or_lifetime(start, line);
            } else if c == '\'' {
                self.char_or_lifetime(start, line);
            } else if is_ident_start(c) {
                self.ident(start, line);
            } else if c.is_ascii_digit() {
                self.number(start, line);
            } else if c.is_whitespace() {
                self.bump();
            } else {
                self.bump();
                self.push(TokenKind::Punct(c), c.to_string(), start, line);
            }
        }
        self.out
    }

    fn line_comment(&mut self, start: usize, line: usize) {
        self.bump();
        self.bump();
        let body_start = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        let text: String = self.chars[body_start..self.pos]
            .iter()
            .map(|&(_, c)| c)
            .collect();
        self.push(TokenKind::Comment, text, start, line);
    }

    fn block_comment(&mut self, start: usize, line: usize) {
        self.bump();
        self.bump();
        let body_start = self.pos;
        let mut depth = 1u32;
        let mut body_end = self.pos;
        while let Some(c) = self.peek(0) {
            if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                if depth == 0 {
                    body_end = self.pos;
                    self.bump();
                    self.bump();
                    break;
                }
                self.bump();
                self.bump();
            } else if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
            body_end = self.pos;
        }
        let text: String = self.chars[body_start..body_end.min(self.pos)]
            .iter()
            .map(|&(_, c)| c)
            .collect();
        self.push(TokenKind::Comment, text, start, line);
    }

    /// Detects `r"`, `r#"`, `br##"` … at the cursor; returns the hash count.
    fn raw_string_open(&self) -> Option<u32> {
        let mut j = 0usize;
        if self.peek(j) == Some('b') {
            j += 1;
        }
        if self.peek(j) != Some('r') {
            return None;
        }
        // Reject the tail of a longer identifier (`for"` is invalid Rust,
        // but stay conservative).
        if self.pos > 0 && is_ident_continue(self.chars[self.pos - 1].1) {
            return None;
        }
        j += 1;
        let mut count = 0u32;
        while self.peek(j) == Some('#') {
            count += 1;
            j += 1;
        }
        if self.peek(j) == Some('"') {
            Some(count)
        } else {
            None
        }
    }

    fn raw_string(&mut self, start: usize, line: usize, hashes: u32) {
        // Consume the opener: optional `b`, `r`, hashes, quote (validated by
        // `raw_string_open`, so the quote is reachable).
        while matches!(self.peek(0), Some(c) if c != '"') {
            self.bump();
        }
        self.bump();
        loop {
            match self.peek(0) {
                None => break,
                Some('"') if (1..=hashes as usize).all(|k| self.peek(k) == Some('#')) => {
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
                Some(_) => self.bump(),
            }
        }
        self.push(TokenKind::Str, "\"\"".to_string(), start, line);
    }

    fn string(&mut self, start: usize, line: usize) {
        self.bump(); // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some('\\') => {
                    self.bump();
                    self.bump();
                }
                Some('"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
            }
        }
        self.push(TokenKind::Str, "\"\"".to_string(), start, line);
    }

    /// A `'` in code position: a char literal (`'x'`, `'\n'`) or a
    /// lifetime (`'a`).
    fn char_or_lifetime(&mut self, start: usize, line: usize) {
        self.bump(); // the tick
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: skip escape, scan to closing tick.
                self.bump();
                self.bump();
                while let Some(c) = self.peek(0) {
                    self.bump();
                    if c == '\'' {
                        break;
                    }
                }
                self.push(TokenKind::Char, "''".to_string(), start, line);
            }
            Some(c) if self.peek(1) == Some('\'') => {
                let _ = c;
                self.bump();
                self.bump();
                self.push(TokenKind::Char, "''".to_string(), start, line);
            }
            Some(c) if is_ident_start(c) => {
                // Lifetime: consume the identifier.
                let ident_start = self.pos;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.bump();
                }
                let text: String = std::iter::once('\'')
                    .chain(self.chars[ident_start..self.pos].iter().map(|&(_, c)| c))
                    .collect();
                self.push(TokenKind::Lifetime, text, start, line);
            }
            _ => {
                self.push(TokenKind::Punct('\''), "'".to_string(), start, line);
            }
        }
    }

    fn ident(&mut self, start: usize, line: usize) {
        while self.peek(0).is_some_and(is_ident_continue) {
            self.bump();
        }
        let text: String = self.chars[start..self.pos]
            .iter()
            .map(|&(_, c)| c)
            .collect();
        self.push(TokenKind::Ident, text, start, line);
    }

    fn number(&mut self, start: usize, line: usize) {
        // Integer part (decimal, hex, octal, binary — digits + `_` + the
        // base letters; hex digits are covered by the ident-continue set).
        let hex = self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('X') | Some('o') | Some('b'));
        self.bump();
        if hex {
            self.bump();
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_hexdigit() || c == '_')
            {
                self.bump();
            }
        } else {
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.bump();
            }
            // Fractional part: only when the dot is followed by a digit, so
            // ranges (`0..n`) and method calls on literals stay separate
            // tokens.
            if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.bump();
                }
            }
            // Exponent.
            if matches!(self.peek(0), Some('e') | Some('E')) {
                let sign = matches!(self.peek(1), Some('+') | Some('-'));
                let digit_at = if sign { 2 } else { 1 };
                if self.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                    if sign {
                        self.bump();
                    }
                    while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                        self.bump();
                    }
                }
            }
        }
        // Type suffix (`f64`, `u32`, `usize`, …).
        if self.peek(0).is_some_and(is_ident_start) {
            while self.peek(0).is_some_and(is_ident_continue) {
                self.bump();
            }
        }
        let text: String = self.chars[start..self.pos]
            .iter()
            .map(|&(_, c)| c)
            .collect();
        self.push(TokenKind::Number, text, start, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_and_punct() {
        let toks = kinds("fn f(x: f64) -> u32 { x as u32 + 0x1f }");
        assert!(toks.contains(&(TokenKind::Ident, "fn".into())));
        assert!(toks.contains(&(TokenKind::Ident, "f64".into())));
        assert!(toks.contains(&(TokenKind::Number, "0x1f".into())));
        assert!(toks.contains(&(TokenKind::Punct('{'), "{".into())));
    }

    #[test]
    fn float_and_range_disambiguation() {
        let toks = kinds("let a = 0.25_f64; for i in 0..10 {}");
        assert!(toks.contains(&(TokenKind::Number, "0.25_f64".into())));
        assert!(toks.contains(&(TokenKind::Number, "0".into())));
        assert!(toks.contains(&(TokenKind::Number, "10".into())));
    }

    #[test]
    fn exponent_forms() {
        let toks = kinds("1e3 6.25e-4 2E+10 7e");
        assert!(toks.contains(&(TokenKind::Number, "1e3".into())));
        assert!(toks.contains(&(TokenKind::Number, "6.25e-4".into())));
        assert!(toks.contains(&(TokenKind::Number, "2E+10".into())));
        // `7e` is a number token with suffix `e`, not an exponent.
        assert!(toks.contains(&(TokenKind::Number, "7e".into())));
    }

    #[test]
    fn strings_and_chars_are_elided() {
        let toks = kinds(r#"let s = "x.unwrap()"; let c = '"'; let l: &'a str = r#s;"#);
        assert!(toks.contains(&(TokenKind::Str, "\"\"".into())));
        assert!(toks.contains(&(TokenKind::Char, "''".into())));
        assert!(toks.contains(&(TokenKind::Lifetime, "'a".into())));
        assert!(!toks.iter().any(|(_, t)| t.contains("unwrap")));
    }

    #[test]
    fn raw_strings_close_on_matching_hashes() {
        let toks = kinds("let s = r#\"has \"quote\" inside\"#; tail()");
        assert!(toks.contains(&(TokenKind::Str, "\"\"".into())));
        assert!(toks.contains(&(TokenKind::Ident, "tail".into())));
        assert!(!toks.iter().any(|(_, t)| t.contains("quote")));
    }

    #[test]
    fn comments_are_tokens_with_bodies() {
        let toks = lex("let x = 1; // lint:allow(float-eq) ok\n/* block\nspan */ let y = 2;");
        let comments: Vec<&Token> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Comment)
            .collect();
        assert_eq!(comments.len(), 2);
        assert!(comments[0].text.contains("lint:allow(float-eq)"));
        assert!(comments[1].text.contains("block\nspan"));
        let y = toks.iter().find(|t| t.is_ident("y")).unwrap();
        assert_eq!(y.line, 3);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* one /* two */ still */ b");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, ["a", "b"]);
    }

    #[test]
    fn offsets_round_trip() {
        let src = "fn μ(x: f64) -> f64 { x * 0.5 } // tail";
        for tok in lex(src) {
            match tok.kind {
                TokenKind::Str | TokenKind::Char | TokenKind::Comment => {}
                _ => assert_eq!(&src[tok.start..tok.end], tok.text, "at {}", tok.start),
            }
        }
    }

    #[test]
    fn lines_are_tracked_across_multiline_strings() {
        let toks = lex("let s = \"first\nsecond\nthird\"; done");
        let done = toks.iter().find(|t| t.is_ident("done")).unwrap();
        assert_eq!(done.line, 3);
    }

    /// Each line view of `src` as `code|comment`.
    fn views(src: &str) -> Vec<String> {
        let views = line_views(src, &lex(src));
        views
            .iter()
            .map(|l| format!("{}|{}", l.code, l.comment))
            .collect()
    }

    #[test]
    fn line_comment_goes_to_comment_channel() {
        let lines = views("let x = 1; // lint:allow(float-eq) checked above");
        assert_eq!(lines, ["let x = 1; | lint:allow(float-eq) checked above"]);
    }

    #[test]
    fn string_bodies_are_blanked() {
        assert_eq!(views(r#"let s = "x.unwrap() == 0.0";"#), ["let s = \"\";|"]);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lines = views("a /* one /* two */\nstill */ b");
        assert_eq!(lines, ["a  | one /* two */", " b|still "]);
    }

    #[test]
    fn raw_strings_close_on_matching_hashes_in_views() {
        let lines = views("let s = r#\"has \"quote\" inside\"#; tail()");
        assert_eq!(lines, ["let s = \"\"; tail()|"]);
    }

    #[test]
    fn char_literals_are_told_apart_from_lifetimes() {
        let lines = views("fn f<'a>(c: char) { if c == '\"' {} }");
        assert_eq!(lines, ["fn f<'a>(c: char) { if c == '' {} }|"]);
    }

    #[test]
    fn multiline_strings_keep_line_alignment() {
        let lines = views("let s = \"first\nsecond == 0.0\nthird\"; done");
        assert_eq!(lines, ["let s = \"|", "|", "\"; done|"]);
    }

    #[test]
    fn crlf_line_endings_split_like_lf() {
        let lines = views("a; // x\r\n/* y\r\nz */ b\r\n");
        assert_eq!(lines, ["a; | x", " | y", " b|z "]);
    }

    #[test]
    fn final_comment_only_line_without_newline_keeps_its_view() {
        let lines = views("fn f() {}\n// lint:allow(float-eq) trailing");
        assert_eq!(lines, ["fn f() {}|", "| lint:allow(float-eq) trailing"]);
    }
}
