//! The five cross-item rules — phase 2 of the static-analysis engine.
//!
//! These rules run over the [`crate::items::FileGraph`]s of every scanned
//! file at once, so they can relate a `struct`'s field list to a `CacheKey`
//! impl in another file, follow calls across an item graph, and seed taint
//! from a file's imports:
//!
//! - **`cache-key-completeness`** — every named field of a type with a
//!   `CacheKey` impl must be read (`self.<field>`) inside `encode_key`,
//!   and a hand-written `CacheValue`/codec pair must read back exactly the
//!   fields it writes. This machine-checks the completeness contract that
//!   `CacheKey` documents but PR 5 could only enforce by review: a field
//!   added without a matching `write_*` is a stale-cache bug, not a style
//!   nit. Intentional exclusions (obs/cache handles) are annotated at the
//!   *field site*, so the rule keeps watching every other field.
//! - **`determinism-taint`** — seeds a taint set from `std::collections`
//!   imports of `HashMap`/`HashSet`, propagates it to bindings, fields and
//!   params of those types, and flags order-dependent operations on
//!   tainted values (iteration, `retain`, `drain`, and float reductions
//!   over unordered iterators) inside simulation-crate fn bodies. Owning
//!   an unordered map for point lookups is fine; *iterating* one is where
//!   seed-reproducibility dies.
//! - **`obs-coverage`** — a `pub fn` in a designated hot-path file that
//!   (transitively, through same-file calls) reaches a loop must also
//!   (transitively) record a span / carry an obs handle, so new hot paths
//!   cannot silently escape the observability layer.
//! - **`const-provenance`** — numeric literals with ≥3 significant digits
//!   inside simulation-crate fn bodies must live in the per-crate
//!   `constants` modules (with provenance comments) instead of inline.
//! - **`test-only-pub`** — a `pub fn` in library source must be named
//!   somewhere in shipped code: a function only tests call is surface to
//!   delete with its tests, unless a `lint:allow` names why it stays. The
//!   rule matches names, so a name shared by many items (`new`, `len`) is
//!   always "called"; the compiler-driven check in DESIGN covers those.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{FileGraph, FnItem, StructItem};
use crate::lexer::{Token, TokenKind};
use crate::rules::{allowed, CONSTANT_MODULES, SIM_CRATES};
use crate::{Diagnostic, FileClass, Rule};

/// Files whose public functions the `obs-coverage` rule audits: the
/// simulation, figure-generation, and telemetry hot paths instrumented in
/// PR 3. A pub fn here that reaches a loop without reaching a span is a
/// blind spot in every `--obs` profile.
const OBS_HOT_FILES: &[&str] = &[
    "crates/fleet/src/sim.rs",
    "crates/bench/src/figs/mod.rs",
    "crates/telemetry/src/meter.rs",
    "crates/telemetry/src/tracker.rs",
    "crates/telemetry/src/faults.rs",
    "crates/stream/src/pipeline.rs",
];

/// Identifiers that count as observability evidence in a fn body: span
/// creation, obs-handle injection/usage, or the figure tracing wrapper.
const OBS_EVIDENCE: &[&str] = &["span", "with_obs", "obs", "traced"];

/// Unordered-collection type names the taint rule seeds from
/// `std::collections` imports.
const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods whose call on an unordered collection is order-dependent.
const UNORDERED_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "retain",
    "drain",
];

/// Iterator adapters that fold floats — an unordered reduction is wrong
/// even when every element is visited, because float addition does not
/// associate.
const REDUCTIONS: &[&str] = &["sum", "fold", "product"];

/// One analyzed file, bundling everything phase 2 needs.
pub(crate) struct FileAnalysis {
    /// Path classification (selects which rules are in force).
    pub class: FileClass,
    /// The full token stream (comments included).
    pub tokens: Vec<Token>,
    /// Parsed item graph.
    pub graph: FileGraph,
    /// Per-line effective `lint:allow` tags (same vector the line rules
    /// use, so suppression semantics are identical in both phases).
    pub allows: Vec<Vec<String>>,
}

/// Runs the cross-item rules over every analyzed file, resolving structs
/// across file boundaries. Diagnostics are attributed to the file that owns
/// the offending item (a missing cache-key field points at the *field*, so
/// its `lint:allow` lives next to the field it excuses). `test-only-pub`
/// runs only when `whole_set` says the files include every caller.
pub(crate) fn scan_workspace(files: &[FileAnalysis], whole_set: bool) -> Vec<Diagnostic> {
    let index = StructIndex::build(files);
    let shipped = whole_set.then(|| shipped_mentions(files));
    let mut diags = Vec::new();
    for file in files {
        cache_key_completeness(file, files, &index, &mut diags);
        determinism_taint(file, &mut diags);
        obs_coverage(file, &mut diags);
        const_provenance(file, &mut diags);
        if let Some(shipped) = &shipped {
            test_only_pub(file, shipped, &mut diags);
        }
    }
    diags
}

/// Workspace-wide struct lookup: type name → (file index, struct). Types
/// defined in several files (duplicate names) resolve same-file only.
struct StructIndex {
    by_name: BTreeMap<String, Vec<usize>>,
}

impl StructIndex {
    fn build(files: &[FileAnalysis]) -> StructIndex {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, file) in files.iter().enumerate() {
            for s in &file.graph.structs {
                by_name.entry(s.name.clone()).or_default().push(idx);
            }
        }
        StructIndex { by_name }
    }

    /// Resolves `name` from `from` (a file index): the same file wins, then
    /// a unique cross-file definition; ambiguous names resolve to nothing.
    fn resolve<'a>(
        &self,
        files: &'a [FileAnalysis],
        from: usize,
        name: &str,
    ) -> Option<(usize, &'a StructItem)> {
        let candidates = self.by_name.get(name)?;
        let file_idx = if candidates.contains(&from) {
            from
        } else if candidates.len() == 1 {
            candidates[0]
        } else {
            return None;
        };
        files[file_idx]
            .graph
            .struct_named(name)
            .map(|s| (file_idx, s))
    }
}

fn push_unless_allowed(
    diags: &mut Vec<Diagnostic>,
    file: &FileAnalysis,
    line: usize,
    rule: Rule,
    message: String,
) {
    if !allowed(&file.allows, line.saturating_sub(1), rule) {
        diags.push(Diagnostic {
            file: file.class.path.clone(),
            line,
            rule,
            message,
        });
    }
}

// ---------------------------------------------------------------------------
// cache-key-completeness
// ---------------------------------------------------------------------------

/// Field names mentioned as `self.<field>` inside a token range.
fn self_field_mentions(tokens: &[Token], body: std::ops::Range<usize>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let toks = &tokens[body];
    for i in 0..toks.len() {
        if toks[i].is_ident("self")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            out.insert(toks[i + 2].text.clone());
        }
    }
    out
}

/// Bare identifier occurrences inside a token range (comments excluded).
fn ident_mentions(tokens: &[Token], body: std::ops::Range<usize>) -> BTreeSet<String> {
    tokens[body]
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

fn cache_key_completeness(
    file: &FileAnalysis,
    files: &[FileAnalysis],
    index: &StructIndex,
    diags: &mut Vec<Diagnostic>,
) {
    let from = files
        .iter()
        .position(|f| std::ptr::eq(f, file))
        .unwrap_or(0);

    // --- CacheKey: every named field must reach the encoder ---------------
    for imp in &file.graph.impls {
        if imp.trait_name.as_deref() != Some("CacheKey") {
            continue;
        }
        let Some(encode) = imp
            .methods
            .iter()
            .find(|m| m.name == "encode_key" || m.name == "write_key")
        else {
            continue;
        };
        let Some((owner_idx, strukt)) = index.resolve(files, from, &imp.type_name) else {
            continue;
        };
        if !strukt.named_fields {
            continue;
        }
        let owner = &files[owner_idx];
        let mentioned = self_field_mentions(&file.tokens, encode.body.clone());
        for field in &strukt.fields {
            if !mentioned.contains(&field.name) {
                push_unless_allowed(
                    diags,
                    owner,
                    field.line,
                    Rule::CacheKeyCompleteness,
                    format!(
                        "field `{}` of `{}` never reaches `{}::encode_key` ({}:{}): the cache \
                         cannot see changes to it and will serve stale results; encode it or \
                         mark the field with lint:allow(cache-key-completeness) + why it cannot \
                         affect the cached value",
                        field.name, strukt.name, strukt.name, file.class.path, encode.line
                    ),
                );
            }
        }
    }

    // --- CacheValue / codec symmetry --------------------------------------
    // Collect to_cache_bytes / from_cache_bytes per target type across every
    // impl block in the file (the real codec often lives on the inherent
    // impl, with the trait impl delegating), and union the field mentions —
    // a delegating wrapper contributes nothing, the real codec contributes
    // its whole field set.
    let mut writers: BTreeMap<&str, Vec<&FnItem>> = BTreeMap::new();
    let mut readers: BTreeMap<&str, Vec<&FnItem>> = BTreeMap::new();
    for imp in &file.graph.impls {
        for m in &imp.methods {
            if m.name == "to_cache_bytes" {
                writers.entry(&imp.type_name).or_default().push(m);
            } else if m.name == "from_cache_bytes" {
                readers.entry(&imp.type_name).or_default().push(m);
            }
        }
    }
    for (type_name, writer_fns) in &writers {
        let Some(reader_fns) = readers.get(type_name) else {
            continue;
        };
        let Some((_, strukt)) = index.resolve(files, from, type_name) else {
            continue;
        };
        if !strukt.named_fields {
            continue;
        }
        let field_names: BTreeSet<String> = strukt.fields.iter().map(|f| f.name.clone()).collect();
        let written: BTreeSet<String> = writer_fns
            .iter()
            .flat_map(|w| self_field_mentions(&file.tokens, w.body.clone()))
            .filter(|f| field_names.contains(f))
            .collect();
        if written.is_empty() {
            // Delegating codec (serde round-trip or a forwarder): nothing
            // field-wise to check here.
            continue;
        }
        let read: BTreeSet<String> = reader_fns
            .iter()
            .flat_map(|r| ident_mentions(&file.tokens, r.body.clone()))
            .filter(|f| field_names.contains(f))
            .collect();
        // Anchor diagnostics on the impl that actually names fields.
        let writer = writer_fns
            .iter()
            .find(|w| !self_field_mentions(&file.tokens, w.body.clone()).is_disjoint(&field_names))
            .unwrap_or(&writer_fns[0]);
        let reader = reader_fns
            .iter()
            .find(|r| !ident_mentions(&file.tokens, r.body.clone()).is_disjoint(&field_names))
            .unwrap_or(&reader_fns[0]);
        for f in written.difference(&read) {
            push_unless_allowed(
                diags,
                file,
                writer.line,
                Rule::CacheKeyCompleteness,
                format!(
                    "`{type_name}::to_cache_bytes` writes field `{f}` but \
                     `from_cache_bytes` never reads it back — the decoded value would \
                     silently drop it"
                ),
            );
        }
        for f in read.difference(&written) {
            push_unless_allowed(
                diags,
                file,
                reader.line,
                Rule::CacheKeyCompleteness,
                format!(
                    "`{type_name}::from_cache_bytes` reads field `{f}` that \
                     `to_cache_bytes` never writes — the codec cannot round-trip"
                ),
            );
        }
        for field in &strukt.fields {
            if !written.contains(&field.name) && !read.contains(&field.name) {
                push_unless_allowed(
                    diags,
                    file,
                    writer.line,
                    Rule::CacheKeyCompleteness,
                    format!(
                        "field `{}` of `{type_name}` is covered by neither side of the \
                         cache codec; serialize it or justify with \
                         lint:allow(cache-key-completeness)",
                        field.name
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// determinism-taint
// ---------------------------------------------------------------------------

/// True when `text` contains `word` delimited by non-identifier characters.
fn contains_word(text: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let pre_ok = start == 0
            || !text[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let post_ok = end >= text.len()
            || !text[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn determinism_taint(file: &FileAnalysis, diags: &mut Vec<Diagnostic>) {
    let class = &file.class;
    let in_sim = class
        .crate_name
        .as_deref()
        .is_some_and(|c| SIM_CRATES.contains(&c));
    if !in_sim || !class.lib_src || class.test_like {
        return;
    }

    // Seed: unordered types imported from std::collections (renames keep
    // the in-scope name), plus inline `std::collections::HashMap` paths.
    let mut tainted_types: BTreeSet<String> = BTreeSet::new();
    for u in &file.graph.uses {
        if !u.path.contains("collections") {
            continue;
        }
        for leaf in &u.leaves {
            if UNORDERED_TYPES.contains(&leaf.as_str()) {
                tainted_types.insert(leaf.clone());
            }
            if leaf == "*" {
                for t in UNORDERED_TYPES {
                    tainted_types.insert((*t).to_string());
                }
            }
        }
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if toks[i].is_ident("collections")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(t) = toks.get(i + 3) {
                if UNORDERED_TYPES.contains(&t.text.as_str()) {
                    tainted_types.insert(t.text.clone());
                }
            }
        }
    }
    if tainted_types.is_empty() {
        return;
    }

    // Tainted struct fields (accessed as `self.<f>`).
    let mut tainted_fields: BTreeSet<String> = BTreeSet::new();
    for s in &file.graph.structs {
        for f in &s.fields {
            if tainted_types.iter().any(|t| contains_word(&f.type_text, t)) {
                tainted_fields.insert(f.name.clone());
            }
        }
    }

    for (func, _impl_target) in file.graph.all_fns() {
        let mut tainted_vars: BTreeSet<String> = BTreeSet::new();

        // Params typed with a tainted type: `name: HashMap<..>`.
        let sig = &toks[func.signature.clone()];
        for i in 0..sig.len() {
            if sig[i].kind == TokenKind::Ident && tainted_types.contains(&sig[i].text) {
                // Walk back to the nearest `:` and take the ident before it.
                let mut j = i;
                while j > 0 && !sig[j - 1].is_punct(':') {
                    if sig[j - 1].is_punct(',') || sig[j - 1].is_punct('(') {
                        break;
                    }
                    j -= 1;
                }
                if j >= 2 && sig[j - 1].is_punct(':') && sig[j - 2].kind == TokenKind::Ident {
                    tainted_vars.insert(sig[j - 2].text.clone());
                }
            }
        }

        // Bindings whose initializer or ascription names a tainted type:
        // scan each `let` statement up to its `;`.
        let body = &toks[func.body.clone()];
        let mut i = 0usize;
        while i < body.len() {
            if body[i].is_ident("let") {
                let mut j = i + 1;
                if body.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name_tok) = body.get(j).filter(|t| t.kind == TokenKind::Ident) {
                    let mut k = j + 1;
                    let mut saw_taint = false;
                    let mut depth = 0i32;
                    while let Some(t) = body.get(k) {
                        match t.kind {
                            TokenKind::Punct(';') if depth <= 0 => break,
                            TokenKind::Punct('{')
                            | TokenKind::Punct('(')
                            | TokenKind::Punct('[') => depth += 1,
                            TokenKind::Punct('}')
                            | TokenKind::Punct(')')
                            | TokenKind::Punct(']') => depth -= 1,
                            TokenKind::Ident if tainted_types.contains(&t.text) => {
                                saw_taint = true;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if saw_taint {
                        tainted_vars.insert(name_tok.text.clone());
                    }
                    i = k;
                    continue;
                }
            }
            i += 1;
        }

        // Violations: order-dependent operations on tainted receivers.
        let mut fired_at: BTreeSet<usize> = BTreeSet::new();
        for i in 0..body.len() {
            // Receiver forms: `v` (tainted var), `self.f` (tainted field),
            // or a tainted type name used directly (`HashMap::from(..)`).
            let (recv_text, recv_end) =
                if body[i].kind == TokenKind::Ident && tainted_vars.contains(&body[i].text) {
                    (body[i].text.clone(), i)
                } else if body[i].is_ident("self")
                    && body.get(i + 1).is_some_and(|t| t.is_punct('.'))
                    && body.get(i + 2).is_some_and(|t| {
                        t.kind == TokenKind::Ident && tainted_fields.contains(&t.text)
                    })
                {
                    (format!("self.{}", body[i + 2].text), i + 2)
                } else {
                    continue;
                };

            // `for .. in [&][mut] recv` — iterating the collection itself.
            // Walk back over reference sigils; the token before must be the
            // loop's `in` (nothing else uses `in` in expression position).
            let mut p = i;
            while p > 0 && (body[p - 1].is_punct('&') || body[p - 1].is_ident("mut")) {
                p -= 1;
            }
            let for_iteration = p > 0 && body[p - 1].is_ident("in");

            // `recv.method(..)` with an order-dependent method.
            let mut method: Option<&str> = None;
            if body.get(recv_end + 1).is_some_and(|t| t.is_punct('.')) {
                if let Some(m) = body.get(recv_end + 2) {
                    if UNORDERED_METHODS.contains(&m.text.as_str())
                        && body
                            .get(recv_end + 3)
                            .is_some_and(|t| t.is_punct('(') || t.is_punct(':') || t.is_punct('<'))
                    {
                        method = Some(
                            UNORDERED_METHODS[UNORDERED_METHODS
                                .iter()
                                .position(|u| *u == m.text.as_str())
                                .unwrap_or(0)],
                        );
                    }
                }
            }
            if method.is_none() && !for_iteration {
                continue;
            }
            if !fired_at.insert(i) {
                continue;
            }

            // Scan the rest of the statement for a float reduction.
            let mut reduction: Option<&str> = None;
            let mut depth = 0i32;
            let mut k = recv_end + 1;
            while let Some(t) = body.get(k) {
                match t.kind {
                    TokenKind::Punct(';') if depth <= 0 => break,
                    TokenKind::Punct('{') if depth <= 0 => break,
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                        depth += 1
                    }
                    TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                        depth -= 1
                    }
                    TokenKind::Ident if REDUCTIONS.contains(&t.text.as_str()) => {
                        reduction = Some(
                            REDUCTIONS[REDUCTIONS
                                .iter()
                                .position(|r| *r == t.text.as_str())
                                .unwrap_or(0)],
                        );
                    }
                    _ => {}
                }
                k += 1;
            }

            let line = body[i].line;
            let message = match (reduction, method) {
                (Some(red), _) => format!(
                    "`.{red}()` folds floats over the arbitrary iteration order of \
                     unordered `{recv_text}`; float addition does not associate, so the \
                     result depends on hasher state — use a BTreeMap/BTreeSet or sort \
                     before reducing"
                ),
                (None, Some(m)) => format!(
                    "`{recv_text}.{m}(..)` visits an unordered collection in arbitrary \
                     order inside a simulation crate; use a BTreeMap/BTreeSet or collect \
                     and sort before iterating"
                ),
                (None, None) => format!(
                    "`for .. in {recv_text}` iterates an unordered collection in \
                     arbitrary order inside a simulation crate; use a BTreeMap/BTreeSet \
                     or sort first"
                ),
            };
            push_unless_allowed(diags, file, line, Rule::DeterminismTaint, message);
        }
    }
}

// ---------------------------------------------------------------------------
// obs-coverage
// ---------------------------------------------------------------------------

fn obs_coverage(file: &FileAnalysis, diags: &mut Vec<Diagnostic>) {
    if !OBS_HOT_FILES.contains(&file.class.path.as_str()) {
        return;
    }
    let toks = &file.tokens;
    let fns: Vec<&FnItem> = file.graph.all_fns().map(|(f, _)| f).collect();

    // Per-fn direct facts.
    let mut has_loop: BTreeMap<&str, bool> = BTreeMap::new();
    let mut has_evidence: BTreeMap<&str, bool> = BTreeMap::new();
    let mut calls: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let names: BTreeSet<&str> = fns.iter().map(|f| f.name.as_str()).collect();
    for f in &fns {
        let body = &toks[f.body.clone()];
        let lp = body
            .iter()
            .any(|t| t.is_ident("for") || t.is_ident("while") || t.is_ident("loop"));
        let ev = body
            .iter()
            .any(|t| t.kind == TokenKind::Ident && OBS_EVIDENCE.contains(&t.text.as_str()));
        *has_loop.entry(f.name.as_str()).or_insert(false) |= lp;
        *has_evidence.entry(f.name.as_str()).or_insert(false) |= ev;
        let entry = calls.entry(f.name.as_str()).or_default();
        for i in 0..body.len() {
            if body[i].kind == TokenKind::Ident
                && body.get(i + 1).is_some_and(|t| t.is_punct('('))
                && names.contains(body[i].text.as_str())
            {
                entry.insert(names.get(body[i].text.as_str()).copied().unwrap_or(""));
            }
        }
    }

    // Transitive closure over same-file calls (the graphs are tiny; a
    // fixed-point loop is simpler than a real SCC pass).
    let mut changed = true;
    while changed {
        changed = false;
        let snapshot_loop = has_loop.clone();
        let snapshot_ev = has_evidence.clone();
        for (caller, callees) in &calls {
            for callee in callees {
                if snapshot_loop.get(callee).copied().unwrap_or(false)
                    && !has_loop.get(caller).copied().unwrap_or(false)
                {
                    has_loop.insert(caller, true);
                    changed = true;
                }
                if snapshot_ev.get(callee).copied().unwrap_or(false)
                    && !has_evidence.get(caller).copied().unwrap_or(false)
                {
                    has_evidence.insert(caller, true);
                    changed = true;
                }
            }
        }
    }

    for f in &fns {
        if !f.is_pub || f.body.is_empty() {
            continue;
        }
        let hot = has_loop.get(f.name.as_str()).copied().unwrap_or(false);
        let covered = has_evidence.get(f.name.as_str()).copied().unwrap_or(false);
        if hot && !covered {
            push_unless_allowed(
                diags,
                file,
                f.line,
                Rule::ObsCoverage,
                format!(
                    "pub fn `{}` reaches a loop in an instrumented hot path but records \
                     no span and carries no obs handle; add a span/with_obs (or a same-file \
                     instrumented callee), or justify with lint:allow(obs-coverage)",
                    f.name
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// const-provenance
// ---------------------------------------------------------------------------

/// Significant decimal digits of a numeric literal's mantissa: digits with
/// leading and trailing zeros stripped (`3600.0` → 2, `273.15` → 5,
/// `0.125` → 3, `1e-9` → 1).
fn significant_digits(text: &str) -> usize {
    let cleaned = text.replace('_', "");
    let lower = cleaned.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0o") || lower.starts_with("0b") {
        return 0; // bit patterns, not physical constants
    }
    // Mantissa: strip exponent and type suffix.
    let mantissa_end = lower
        .char_indices()
        .find(|(i, c)| {
            (*c == 'e'
                && lower[i + 1..]
                    .chars()
                    .next()
                    .is_some_and(|n| n.is_ascii_digit() || n == '+' || n == '-'))
                || (c.is_ascii_alphabetic() && *c != 'e')
        })
        .map(|(i, _)| i)
        .unwrap_or(lower.len());
    let digits: String = lower[..mantissa_end]
        .chars()
        .filter(|c| c.is_ascii_digit())
        .collect();
    digits.trim_start_matches('0').trim_end_matches('0').len()
}

/// True for literal texts the rule treats as float-form (a decimal point
/// or a real exponent).
fn is_float_form(text: &str) -> bool {
    let cleaned = text.replace('_', "");
    let lower = cleaned.to_ascii_lowercase();
    if lower.starts_with("0x") {
        return false;
    }
    lower.contains('.')
        || lower.char_indices().any(|(i, c)| {
            c == 'e'
                && lower[i + 1..]
                    .chars()
                    .next()
                    .is_some_and(|n| n.is_ascii_digit() || n == '+' || n == '-')
        })
}

fn const_provenance(file: &FileAnalysis, diags: &mut Vec<Diagnostic>) {
    let class = &file.class;
    let in_sim = class
        .crate_name
        .as_deref()
        .is_some_and(|c| SIM_CRATES.contains(&c));
    if !in_sim
        || !class.lib_src
        || class.test_like
        || CONSTANT_MODULES.contains(&class.stem.as_str())
    {
        return;
    }
    for (func, _) in file.graph.all_fns() {
        for tok in &file.tokens[func.body.clone()] {
            if tok.kind != TokenKind::Number {
                continue;
            }
            if is_float_form(&tok.text) && significant_digits(&tok.text) >= 3 {
                push_unless_allowed(
                    diags,
                    file,
                    tok.line,
                    Rule::ConstProvenance,
                    format!(
                        "literal `{}` ({} significant digits) in fn `{}` looks like an \
                         unprovenanced physical constant; name it in this crate's \
                         `constants` module with a source comment, or justify with \
                         lint:allow(const-provenance)",
                        tok.text,
                        significant_digits(&tok.text),
                        func.name
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// test-only-pub
// ---------------------------------------------------------------------------

/// Shipped code, whose identifiers count as callers: every `src/` file
/// (binaries and the figure crate included) and `examples/`, but no
/// `tests/` directory.
fn is_shipped_code(path: &str) -> bool {
    let comps: Vec<&str> = path.split('/').collect();
    !comps.contains(&"tests") && (comps.contains(&"src") || comps.first() == Some(&"examples"))
}

/// Every identifier named in shipped code outside `#[cfg(test)]` items,
/// fn definition names excluded (a definition is not a call).
fn shipped_mentions(files: &[FileAnalysis]) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for file in files.iter().filter(|f| is_shipped_code(&f.class.path)) {
        let mut after_fn = false;
        for (i, tok) in file.tokens.iter().enumerate() {
            if tok.kind == TokenKind::Comment
                || file.graph.test_spans.iter().any(|span| span.contains(&i))
            {
                continue;
            }
            let defined = after_fn;
            after_fn = tok.is_ident("fn");
            if tok.kind == TokenKind::Ident && !defined && !after_fn {
                names.insert(tok.text.as_str());
            }
        }
    }
    names
}

fn test_only_pub(file: &FileAnalysis, shipped: &BTreeSet<&str>, diags: &mut Vec<Diagnostic>) {
    let comps: Vec<&str> = file.class.path.split('/').collect();
    if !comps.contains(&"src") || comps.contains(&"bin") || comps.contains(&"tests") {
        return;
    }
    for (f, _) in file.graph.all_fns() {
        if f.is_pub && !shipped.contains(f.name.as_str()) {
            push_unless_allowed(
                diags,
                file,
                f.line,
                Rule::TestOnlyPub,
                format!(
                    "pub fn `{}` is named nowhere in shipped code, so only tests (or \
                     nothing) call it; delete it with its tests, or justify with \
                     lint:allow(test-only-pub) naming its class",
                    f.name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn significant_digit_counting() {
        assert_eq!(significant_digits("3600.0"), 2);
        assert_eq!(significant_digits("273.15"), 5);
        assert_eq!(significant_digits("0.125"), 3);
        assert_eq!(significant_digits("1e-9"), 1);
        assert_eq!(significant_digits("6.25e-4"), 3);
        assert_eq!(significant_digits("0.95"), 2);
        assert_eq!(significant_digits("1_000.5f64"), 5);
        assert_eq!(significant_digits("0xcbf2"), 0);
    }

    #[test]
    fn float_form_detection() {
        assert!(is_float_form("0.5"));
        assert!(is_float_form("1e3"));
        assert!(is_float_form("6.25e-4"));
        assert!(!is_float_form("42"));
        assert!(!is_float_form("0x1f"));
        assert!(!is_float_form("7e")); // suffix, not exponent
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("HashMap<String,u64>", "HashMap"));
        assert!(!contains_word("MyHashMapLike", "HashMap"));
        assert!(contains_word("Vec<HashSet<u64>>", "HashSet"));
    }
}
