//! Lightweight item-graph parser — phase 2 input of the analysis engine.
//!
//! Parses the token stream from [`crate::lexer`] into the items the
//! cross-item rules reason about: `struct` definitions with named field
//! lists, `impl` blocks (inherent and trait) with their methods' body
//! spans, free functions, and `use` imports. It is *not* a Rust parser —
//! generics, where-clauses, and expression grammar are skipped over by
//! bracket matching — but it is exact about the things the rules need:
//! which type an impl targets, which trait it implements, which fields a
//! struct declares, and which token range each fn body covers.
//!
//! `#[cfg(test)]` modules and `#[cfg(test)]` items are dropped entirely,
//! mirroring the line rules' test-region exemption; their token ranges are
//! kept, so a rule can tell test code from shipped code token by token.

use crate::lexer::{Token, TokenKind};

/// One named struct field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// 1-based line of the field declaration.
    pub line: usize,
    /// The field's type, as the joined text of its type tokens
    /// (e.g. `HashMap<String,u64>`).
    pub type_text: String,
}

/// A `struct` with a named field list (tuple and unit structs are recorded
/// with an empty field list and `named_fields == false`).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields, in declaration order.
    pub fields: Vec<Field>,
    /// True for brace-syntax structs (the only ones field rules check).
    pub named_fields: bool,
}

/// A function (free or method) with its body's token span.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared with `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Token-index range (into the lexed stream, comments included) of the
    /// body, *excluding* the outer braces. Empty for bodyless decls.
    pub body: std::ops::Range<usize>,
    /// Token-index range of the signature: from `fn` to the body's `{`.
    pub signature: std::ops::Range<usize>,
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// Trait being implemented (last path segment), `None` for inherent
    /// impls.
    pub trait_name: Option<String>,
    /// Target type (last path segment, generics stripped).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
    /// Methods declared in the block.
    pub methods: Vec<FnItem>,
}

/// A `use` declaration.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// The joined path text (`std::collections::{HashMap,HashSet}`).
    pub path: String,
    /// Leaf names the import brings into scope (group members, or the final
    /// segment; `as` renames record the rename).
    pub leaves: Vec<String>,
    /// 1-based line of the `use` keyword.
    pub line: usize,
}

/// Everything the cross-item rules need to know about one file.
#[derive(Debug, Clone, Default)]
pub struct FileGraph {
    /// `use` imports.
    pub uses: Vec<UseItem>,
    /// Struct definitions.
    pub structs: Vec<StructItem>,
    /// Impl blocks.
    pub impls: Vec<ImplItem>,
    /// Free functions.
    pub fns: Vec<FnItem>,
    /// Token-index ranges of the dropped `#[cfg(test)]` items, attributes
    /// included, in source order.
    pub test_spans: Vec<std::ops::Range<usize>>,
}

impl FileGraph {
    /// The struct named `name`, if defined in this file.
    pub fn struct_named(&self, name: &str) -> Option<&StructItem> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Every function in the file — free fns and methods — paired with the
    /// name of the impl target when it is a method.
    pub fn all_fns(&self) -> impl Iterator<Item = (&FnItem, Option<&str>)> {
        self.fns
            .iter()
            .map(|f| (f, None))
            .chain(self.impls.iter().flat_map(|i| {
                i.methods
                    .iter()
                    .map(move |m| (m, Some(i.type_name.as_str())))
            }))
    }
}

/// Parses a lexed token stream into a [`FileGraph`].
pub fn parse(tokens: &[Token]) -> FileGraph {
    let mut parser = Parser {
        tokens,
        pos: 0,
        graph: FileGraph::default(),
    };
    parser.items(usize::MAX);
    parser.graph
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    graph: FileGraph,
}

impl<'a> Parser<'a> {
    /// The next significant (non-comment) token at or after `self.pos`,
    /// advancing past comments.
    fn peek(&mut self) -> Option<&'a Token> {
        while let Some(tok) = self.tokens.get(self.pos) {
            if tok.kind == TokenKind::Comment {
                self.pos += 1;
            } else {
                return Some(tok);
            }
        }
        None
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let tok = self.peek()?;
        self.pos += 1;
        Some(tok)
    }

    /// Skips a balanced bracket group. `self.pos` must be at the opener;
    /// afterwards it is just past the matching closer.
    fn skip_group(&mut self, open: char, close: char) {
        debug_assert!(self.tokens[self.pos].is_punct(open));
        self.pos += 1;
        let mut depth = 1u32;
        while let Some(tok) = self.bump() {
            if tok.is_punct(open) {
                depth += 1;
            } else if tok.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Skips a generics group `<...>`, tracking nesting but ignoring the
    /// shift operators that cannot appear in type position at item level.
    fn skip_generics(&mut self) {
        debug_assert!(self.tokens[self.pos].is_punct('<'));
        self.pos += 1;
        let mut depth = 1u32;
        while let Some(tok) = self.bump() {
            if tok.is_punct('<') {
                depth += 1;
            } else if tok.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            } else if tok.is_punct('(') {
                // Fn-pointer sugar inside generics.
                self.pos -= 1;
                self.skip_group('(', ')');
            }
        }
    }

    /// Skips to (and past) the next `;` or balanced `{...}` at the current
    /// nesting level — the "rest of this item" fallback.
    fn skip_item_rest(&mut self) {
        while let Some(tok) = self.peek() {
            if tok.is_punct(';') {
                self.pos += 1;
                return;
            }
            if tok.is_punct('{') {
                self.skip_group('{', '}');
                return;
            }
            if tok.is_punct('}') {
                return; // caller's closer — don't consume
            }
            self.pos += 1;
        }
    }

    /// Parses an attribute at `#`; returns true when it is `#[cfg(test)]`.
    fn attribute(&mut self) -> bool {
        self.pos += 1; // `#`
        if self.peek().is_some_and(|t| t.is_punct('!')) {
            self.pos += 1; // inner attribute `#![...]`
        }
        if !self.peek().is_some_and(|t| t.is_punct('[')) {
            return false;
        }
        let start = self.pos;
        self.skip_group('[', ']');
        let body = &self.tokens[start..self.pos];
        let mut saw_cfg = false;
        let mut saw_test = false;
        for tok in body {
            if tok.is_ident("cfg") {
                saw_cfg = true;
            }
            if tok.is_ident("test") {
                saw_test = true;
            }
        }
        saw_cfg && saw_test
    }

    /// Parses items until the brace depth closes (`limit` tokens max as a
    /// runaway guard).
    fn items(&mut self, limit: usize) {
        let mut cfg_test = false;
        let mut is_pub = false;
        // Where the current item's attributes begin.
        let mut item_start = None;
        let mut steps = 0usize;
        while let Some(tok) = self.peek() {
            steps += 1;
            if steps > limit {
                return;
            }
            if tok.is_punct('}') {
                return;
            }
            if tok.is_punct('#') {
                item_start.get_or_insert(self.pos);
                cfg_test |= self.attribute();
                continue;
            }
            if tok.is_ident("pub") {
                self.pos += 1;
                // `pub(crate)` and friends.
                if self.peek().is_some_and(|t| t.is_punct('(')) {
                    self.skip_group('(', ')');
                }
                is_pub = true;
                continue;
            }
            if tok.is_ident("use") {
                let item = self.use_item();
                if !cfg_test {
                    self.graph.uses.push(item);
                }
            } else if tok.is_ident("struct") {
                let item = self.struct_item();
                if !cfg_test {
                    self.graph.structs.push(item);
                }
            } else if tok.is_ident("impl") {
                let item = self.impl_item();
                if let (false, Some(item)) = (cfg_test, item) {
                    self.graph.impls.push(item);
                }
            } else if tok.is_ident("fn") {
                let item = self.fn_item(is_pub);
                if !cfg_test {
                    self.graph.fns.push(item);
                }
            } else if tok.is_ident("mod") {
                self.pos += 1;
                let _name = self.bump(); // module name
                match self.peek() {
                    Some(t) if t.is_punct('{') => {
                        if cfg_test {
                            self.skip_group('{', '}');
                        } else {
                            self.pos += 1;
                            self.items(limit);
                            // Consume the module's closer.
                            if self.peek().is_some_and(|t| t.is_punct('}')) {
                                self.pos += 1;
                            }
                        }
                    }
                    _ => self.skip_item_rest(),
                }
            } else if tok.is_ident("enum")
                || tok.is_ident("trait")
                || tok.is_ident("union")
                || tok.is_ident("macro_rules")
            {
                self.pos += 1;
                self.skip_item_rest();
            } else {
                // `const`, `static`, `type`, `extern`, stray tokens: skip
                // the rest of the item conservatively.
                self.pos += 1;
                if tok.is_ident("const") || tok.is_ident("static") || tok.is_ident("type") {
                    self.skip_item_rest();
                }
            }
            if let (true, Some(start)) = (cfg_test, item_start) {
                self.graph.test_spans.push(start..self.pos);
            }
            cfg_test = false;
            is_pub = false;
            item_start = None;
        }
    }

    fn use_item(&mut self) -> UseItem {
        let line = self.tokens[self.pos].line;
        self.pos += 1; // `use`
        let mut path = String::new();
        let mut leaves = Vec::new();
        let mut prev_ident: Option<String> = None;
        let mut after_as = false;
        while let Some(tok) = self.bump() {
            if tok.is_punct(';') {
                break;
            }
            match tok.kind {
                TokenKind::Ident => {
                    if tok.text == "as" {
                        // The rename replaces the previous leaf candidate.
                        after_as = true;
                        prev_ident = None;
                    } else if after_as {
                        leaves.push(tok.text.clone());
                        after_as = false;
                    } else {
                        prev_ident = Some(tok.text.clone());
                    }
                    path.push_str(&tok.text);
                }
                TokenKind::Punct(c) => {
                    if c == ':' {
                        // Path separator: the pending ident was not a leaf.
                        if path.ends_with(':') || !path.ends_with("::") {
                            prev_ident = None;
                        }
                    } else if matches!(c, ',' | '}' | '*') {
                        if let Some(leaf) = prev_ident.take() {
                            leaves.push(leaf);
                        }
                        if c == '*' {
                            leaves.push("*".to_string());
                        }
                    }
                    path.push(c);
                }
                _ => path.push_str(&tok.text),
            }
        }
        if let Some(leaf) = prev_ident.take() {
            leaves.push(leaf);
        }
        UseItem { path, leaves, line }
    }

    fn struct_item(&mut self) -> StructItem {
        let line = self.tokens[self.pos].line;
        self.pos += 1; // `struct`
        let name = self
            .bump()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        if self.peek().is_some_and(|t| t.is_punct('<')) {
            self.skip_generics();
        }
        // Where-clause before the brace.
        while let Some(tok) = self.peek() {
            if tok.is_punct('{') || tok.is_punct(';') || tok.is_punct('(') {
                break;
            }
            if tok.is_punct('<') {
                self.skip_generics();
            } else {
                self.pos += 1;
            }
        }
        match self.peek() {
            Some(t) if t.is_punct('{') => {
                let fields = self.field_list();
                StructItem {
                    name,
                    line,
                    fields,
                    named_fields: true,
                }
            }
            Some(t) if t.is_punct('(') => {
                self.skip_group('(', ')');
                if self.peek().is_some_and(|t| t.is_punct(';')) {
                    self.pos += 1;
                }
                StructItem {
                    name,
                    line,
                    fields: Vec::new(),
                    named_fields: false,
                }
            }
            _ => {
                self.skip_item_rest();
                StructItem {
                    name,
                    line,
                    fields: Vec::new(),
                    named_fields: false,
                }
            }
        }
    }

    /// Parses `{ field: Type, ... }` after a struct header.
    fn field_list(&mut self) -> Vec<Field> {
        self.pos += 1; // `{`
        let mut fields = Vec::new();
        loop {
            // Skip attributes and visibility on the field.
            loop {
                match self.peek() {
                    Some(t) if t.is_punct('#') => {
                        let _ = self.attribute();
                    }
                    Some(t) if t.is_ident("pub") => {
                        self.pos += 1;
                        if self.peek().is_some_and(|t| t.is_punct('(')) {
                            self.skip_group('(', ')');
                        }
                    }
                    _ => break,
                }
            }
            match self.peek() {
                None => break,
                Some(t) if t.is_punct('}') => {
                    self.pos += 1;
                    break;
                }
                Some(name_tok) if name_tok.kind == TokenKind::Ident => {
                    let fname = name_tok.text.clone();
                    let fline = name_tok.line;
                    self.pos += 1;
                    if !self.peek().is_some_and(|t| t.is_punct(':')) {
                        // Not `name: Type` — bail out of this field.
                        self.skip_field_rest();
                        continue;
                    }
                    self.pos += 1; // `:`
                    let mut type_text = String::new();
                    let mut depth = 0u32;
                    while let Some(tok) = self.peek() {
                        if depth == 0 && (tok.is_punct(',') || tok.is_punct('}')) {
                            break;
                        }
                        match tok.kind {
                            TokenKind::Punct('<')
                            | TokenKind::Punct('(')
                            | TokenKind::Punct('[') => depth += 1,
                            TokenKind::Punct('>')
                            | TokenKind::Punct(')')
                            | TokenKind::Punct(']') => depth = depth.saturating_sub(1),
                            _ => {}
                        }
                        if tok.kind != TokenKind::Comment {
                            type_text.push_str(&tok.text);
                        }
                        self.pos += 1;
                    }
                    if self.peek().is_some_and(|t| t.is_punct(',')) {
                        self.pos += 1;
                    }
                    fields.push(Field {
                        name: fname,
                        line: fline,
                        type_text,
                    });
                }
                Some(_) => {
                    self.pos += 1;
                }
            }
        }
        fields
    }

    /// Skips to the next `,` at field level or the closing `}`.
    fn skip_field_rest(&mut self) {
        let mut depth = 0u32;
        while let Some(tok) = self.peek() {
            if depth == 0 && tok.is_punct(',') {
                self.pos += 1;
                return;
            }
            if depth == 0 && tok.is_punct('}') {
                return;
            }
            match tok.kind {
                TokenKind::Punct('<')
                | TokenKind::Punct('(')
                | TokenKind::Punct('[')
                | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('>')
                | TokenKind::Punct(')')
                | TokenKind::Punct(']')
                | TokenKind::Punct('}') => depth = depth.saturating_sub(1),
                _ => {}
            }
            self.pos += 1;
        }
    }

    fn impl_item(&mut self) -> Option<ImplItem> {
        let line = self.tokens[self.pos].line;
        self.pos += 1; // `impl`
        if self.peek().is_some_and(|t| t.is_punct('<')) {
            self.skip_generics();
        }
        // Collect the path up to `for` or `{`; if `for` appears, the first
        // path was the trait and the second is the type.
        let mut first: Vec<String> = Vec::new();
        let mut second: Vec<String> = Vec::new();
        let mut saw_for = false;
        loop {
            let tok = self.peek()?;
            if tok.is_punct('{') {
                break;
            }
            if tok.is_ident("for") {
                saw_for = true;
                self.pos += 1;
                continue;
            }
            if tok.is_ident("where") {
                // Skip the where-clause up to the brace.
                while let Some(t) = self.peek() {
                    if t.is_punct('{') {
                        break;
                    }
                    if t.is_punct('<') {
                        self.skip_generics();
                    } else {
                        self.pos += 1;
                    }
                }
                continue;
            }
            if tok.is_punct('<') {
                self.skip_generics();
                continue;
            }
            if tok.kind == TokenKind::Ident {
                if saw_for {
                    second.push(tok.text.clone());
                } else {
                    first.push(tok.text.clone());
                }
            }
            self.pos += 1;
        }
        let (trait_name, type_path) = if saw_for {
            (first.last().cloned(), second)
        } else {
            (None, first)
        };
        let type_name = type_path.last().cloned().unwrap_or_default();
        // Body.
        self.pos += 1; // `{`
        let mut methods = Vec::new();
        let mut cfg_test = false;
        let mut is_pub = false;
        while let Some(tok) = self.peek() {
            if tok.is_punct('}') {
                self.pos += 1;
                break;
            }
            if tok.is_punct('#') {
                cfg_test |= self.attribute();
                continue;
            }
            if tok.is_ident("pub") {
                self.pos += 1;
                if self.peek().is_some_and(|t| t.is_punct('(')) {
                    self.skip_group('(', ')');
                }
                is_pub = true;
                continue;
            }
            if tok.is_ident("fn") {
                let method = self.fn_item(is_pub);
                if !cfg_test {
                    methods.push(method);
                }
            } else if tok.is_ident("const") || tok.is_ident("type") {
                self.pos += 1;
                self.skip_item_rest();
            } else {
                self.pos += 1;
            }
            cfg_test = false;
            is_pub = false;
        }
        Some(ImplItem {
            trait_name,
            type_name,
            line,
            methods,
        })
    }

    fn fn_item(&mut self, is_pub: bool) -> FnItem {
        let sig_start = self.pos;
        let line = self.tokens[self.pos].line;
        self.pos += 1; // `fn`
        let name = self
            .bump()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        // Signature: skip generics, params, return type, where-clause until
        // the body `{` or a `;` (trait decl / extern).
        loop {
            match self.peek() {
                None => {
                    return FnItem {
                        name,
                        line,
                        is_pub,
                        body: self.pos..self.pos,
                        signature: sig_start..self.pos,
                    }
                }
                Some(t) if t.is_punct('<') => self.skip_generics(),
                Some(t) if t.is_punct('(') => self.skip_group('(', ')'),
                Some(t) if t.is_punct(';') => {
                    self.pos += 1;
                    return FnItem {
                        name,
                        line,
                        is_pub,
                        body: self.pos..self.pos,
                        signature: sig_start..self.pos,
                    };
                }
                Some(t) if t.is_punct('{') => break,
                Some(_) => self.pos += 1,
            }
        }
        let sig_end = self.pos;
        let body_start = self.pos + 1;
        self.skip_group('{', '}');
        let body_end = self.pos.saturating_sub(1);
        FnItem {
            name,
            line,
            is_pub,
            body: body_start..body_end.max(body_start),
            signature: sig_start..sig_end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph(src: &str) -> FileGraph {
        parse(&lex(src))
    }

    #[test]
    fn parses_struct_fields_with_types() {
        let g = graph(
            "pub struct Config {\n    pub rate: f64,\n    pub map: HashMap<String, u64>,\n    name: String,\n}\n",
        );
        let s = g.struct_named("Config").unwrap();
        assert!(s.named_fields);
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["rate", "map", "name"]);
        assert!(s.fields[1].type_text.contains("HashMap"));
        assert_eq!(s.fields[0].line, 2);
    }

    #[test]
    fn tuple_and_unit_structs_have_no_named_fields() {
        let g = graph("struct Wrapper(u64);\nstruct Marker;\n");
        assert!(!g.struct_named("Wrapper").unwrap().named_fields);
        assert!(!g.struct_named("Marker").unwrap().named_fields);
    }

    #[test]
    fn parses_trait_impls_with_methods() {
        let g = graph(
            "impl CacheKey for Config {\n    fn namespace(&self) -> &'static str { \"c\" }\n    fn encode_key(&self, enc: &mut KeyEncoder) {\n        enc.write_f64(self.rate);\n    }\n}\n",
        );
        assert_eq!(g.impls.len(), 1);
        let imp = &g.impls[0];
        assert_eq!(imp.trait_name.as_deref(), Some("CacheKey"));
        assert_eq!(imp.type_name, "Config");
        let names: Vec<&str> = imp.methods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["namespace", "encode_key"]);
        assert!(!imp.methods[1].body.is_empty());
    }

    #[test]
    fn parses_qualified_trait_and_generic_impls() {
        let g = graph(
            "impl sustain_cache::CacheValue for Table {\n    fn to_cache_bytes(&self) -> Vec<u8> { Vec::new() }\n}\nimpl<'a> CacheKey for ReplicaKey<'a> {\n    fn encode_key(&self, enc: &mut KeyEncoder) {}\n}\nimpl Config {\n    pub fn new() -> Config { Config }\n}\n",
        );
        assert_eq!(g.impls[0].trait_name.as_deref(), Some("CacheValue"));
        assert_eq!(g.impls[0].type_name, "Table");
        assert_eq!(g.impls[1].trait_name.as_deref(), Some("CacheKey"));
        assert_eq!(g.impls[1].type_name, "ReplicaKey");
        assert_eq!(g.impls[2].trait_name, None);
        assert_eq!(g.impls[2].type_name, "Config");
        assert!(g.impls[2].methods[0].is_pub);
    }

    #[test]
    fn parses_use_imports_with_groups_and_renames() {
        let g = graph(
            "use std::collections::{HashMap, HashSet};\nuse std::fmt;\nuse rand::Rng as RngTrait;\n",
        );
        assert_eq!(g.uses.len(), 3);
        assert_eq!(g.uses[0].leaves, ["HashMap", "HashSet"]);
        assert!(g.uses[0].path.contains("std::collections"));
        assert_eq!(g.uses[1].leaves, ["fmt"]);
        assert_eq!(g.uses[2].leaves, ["RngTrait"]);
    }

    #[test]
    fn cfg_test_modules_and_items_are_dropped() {
        let g = graph(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    struct Hidden { x: u64 }\n    fn helper() {}\n}\n#[cfg(test)]\nfn also_hidden() {}\n",
        );
        assert_eq!(g.fns.len(), 1);
        assert_eq!(g.fns[0].name, "real");
        assert!(g.struct_named("Hidden").is_none());
    }

    #[test]
    fn nested_modules_are_walked() {
        let g = graph("mod inner {\n    pub struct Deep { pub v: u64 }\n    pub fn f() {}\n}\n");
        assert!(g.struct_named("Deep").is_some());
        assert_eq!(g.fns.len(), 1);
    }

    #[test]
    fn fn_body_spans_cover_the_body() {
        let src = "fn f(x: u64) -> u64 {\n    let y = x + 1;\n    y\n}\nfn g();\n";
        let toks = lex(src);
        let g = parse(&toks);
        let f = &g.fns[0];
        assert_eq!(f.name, "f");
        let body_texts: Vec<&str> = toks[f.body.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(body_texts.contains(&"y"));
        assert!(!body_texts.contains(&"}"));
        assert!(g.fns[1].body.is_empty());
    }

    #[test]
    fn where_clauses_and_generics_do_not_confuse_the_parser() {
        let g = graph(
            "impl<T: Clone> Holder<T> where T: Send {\n    fn get(&self) -> T { self.0.clone() }\n}\npub fn free<F: Fn(u64) -> u64>(f: F) -> u64 { f(1) }\n",
        );
        assert_eq!(g.impls[0].type_name, "Holder");
        assert_eq!(g.impls[0].methods[0].name, "get");
        assert_eq!(g.fns[0].name, "free");
        assert!(g.fns[0].is_pub);
    }
}
