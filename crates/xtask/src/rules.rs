//! The eight carbon-accounting lint rules.
//!
//! Each rule scans the code channel of a file's line views (see
//! [`crate::lexer::line_views`]) with simple lexical state: brace depth,
//! `#[cfg(test)]` module regions, and in-progress `pub fn` signatures.
//! Any diagnostic can be suppressed by a `// lint:allow(<rule>)` comment on
//! the same line or on a comment-only line immediately above it; by
//! convention the comment carries a one-line justification.

use crate::lexer::{is_ident_continue, LineView};
use crate::{Diagnostic, FileClass, Rule};

/// Crates whose simulations must stay seed-reproducible (rules 4 and the
/// graph rules `determinism-taint` / `const-provenance`).
pub(crate) const SIM_CRATES: &[&str] = &[
    "fleet",
    "edge",
    "telemetry",
    "obs",
    "par",
    "cache",
    "stream",
    "prof",
];

/// Crates allowed to touch raw thread primitives (rule 5 carve-out):
/// `sustain-par` owns the scoped-thread pool, `sustain-obs` needs threads in
/// its concurrency tests and recorder internals. Everything else must fan
/// out through `sustain_par::ParPool`, whose submission-order join and
/// per-task seeding keep figure output byte-identical at any thread count.
const THREAD_CRATES: &[&str] = &["par", "obs"];

/// Raw thread primitives banned outside [`THREAD_CRATES`] (rule 5).
const THREAD_PRIMITIVES: &[&str] = &["thread::spawn", "thread::scope"];

/// Module stems allowed to hold bare physical constants (rule 6 and the
/// graph rule `const-provenance`).
pub(crate) const CONSTANT_MODULES: &[&str] = &["constants", "oss", "units"];

/// Unit suffixes that mark a raw `f64` as dimensioned (rule 1), with the
/// newtype each should use instead.
const UNIT_SUFFIXES: &[(&str, &str)] = &[
    ("_joules", "Energy"),
    ("_kwh", "Energy"),
    ("_mwh", "Energy"),
    ("_wh", "Energy"),
    ("_watts", "Power"),
    ("_kg", "Co2e"),
    ("_co2e", "Co2e"),
    ("_gco2", "Co2e"),
];

/// Unit-newtype constructors whose bare-literal arguments are physical
/// constants in disguise (rule 6). Time/data constructors are deliberately
/// absent: durations and volumes are scenario parameters, not constants.
const CARBON_CTORS: &[&str] = &[
    "from_joules",
    "from_watt_hours",
    "from_kilowatt_hours",
    "from_megawatt_hours",
    "from_gigawatt_hours",
    "from_watts",
    "from_kilowatts",
    "from_megawatts",
    "from_grams",
    "from_kilograms",
    "from_tonnes",
    "from_grams_per_kwh",
];

/// Nondeterminism sources banned from simulation crates (rule 4).
const NONDETERMINISM: &[(&str, &str)] = &[
    (
        "thread_rng",
        "seed an explicit StdRng (seed_from_u64) instead",
    ),
    (
        "Instant::now",
        "inject simulated time instead of wall-clock time",
    ),
    (
        "SystemTime",
        "inject simulated time instead of wall-clock time",
    ),
    // `HashMap` used to be a blanket entry here; the graph rule
    // `determinism-taint` (rules_graph.rs) subsumes it with an import-seeded
    // taint pass that flags *iteration* of unordered collections instead of
    // mere ownership, so point lookups no longer need an allow.
];

/// Filesystem write primitives banned outside `crates/cache` and the
/// sanctioned sites (rule 8). Cached figures and replica reports must be
/// re-derivable from their content-addressed entries alone, so persistence
/// is routed through `sustain_cache::DiskStore` — whose versioned,
/// checksummed entries degrade to a miss instead of serving stale bytes —
/// rather than scattered ad-hoc writes.
const FS_WRITE_PRIMITIVES: &[&str] = &[
    "fs::write",
    "File::create",
    "OpenOptions",
    "create_dir",
    "create_dir_all",
    "fs::rename",
    "fs::remove_file",
    "fs::remove_dir_all",
];

/// The sanctioned write sites outside `crates/cache` (rule 8): the obs
/// exporter in `all_figures`, which writes *derived* artifacts a rerun
/// regenerates byte-identically.
const FS_SANCTIONED_FILES: &[&str] = &["crates/bench/src/bin/all_figures.rs"];

/// Runs every line-oriented rule plus the whole-file header rule. `allows`
/// is [`collect_allows`] over the same `lines`.
pub(crate) fn scan(
    class: &FileClass,
    lines: &[LineView],
    allows: &[Vec<String>],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    if class.is_crate_root {
        let has_forbid = lines
            .iter()
            .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
        if !has_forbid && !allowed(allows, 0, Rule::LintHeader) {
            diags.push(Diagnostic {
                file: class.path.clone(),
                line: 1,
                rule: Rule::LintHeader,
                message: "crate root must carry #![forbid(unsafe_code)] alongside \
                          deny(missing_docs)"
                    .into(),
            });
        }
    }

    let mut depth: i64 = 0;
    let mut pending_cfg_test = false;
    let mut test_region: Option<i64> = None;
    // Name of an in-progress `pub fn` signature (may span multiple lines).
    let mut sig: Option<String> = None;

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        let in_test = test_region.is_some();
        let depth_before = depth;
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;

        // --- region bookkeeping -------------------------------------------
        if let Some(base) = test_region {
            if depth <= base {
                test_region = None;
            }
        }
        if pending_cfg_test {
            if code.contains("mod ") && code.contains('{') {
                test_region = Some(depth_before);
                pending_cfg_test = false;
            } else if code.contains("mod ") && code.contains(';') {
                // `#[cfg(test)] mod x;` — the module lives in its own file,
                // which the walker classifies separately.
                pending_cfg_test = false;
            } else if !code.trim().is_empty() && !code.trim_start().starts_with("#[") {
                pending_cfg_test = false;
            }
        }
        if code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        }

        if in_test {
            continue;
        }

        let push = |rule: Rule, message: String, diags: &mut Vec<Diagnostic>| {
            if !allowed(allows, idx, rule) {
                diags.push(Diagnostic {
                    file: class.path.clone(),
                    line: lineno,
                    rule,
                    message,
                });
            }
        };

        // --- rule 1: unit-leak --------------------------------------------
        let mut sig_line = false;
        if !class.test_like && class.stem != "units" {
            if sig.is_none() {
                sig = pub_fn_name(code);
            }
            if let Some(name) = &sig {
                sig_line = true;
                let exempt = name.starts_with("from_") || name.starts_with("as_");
                if !exempt {
                    for (ident, suggestion) in f64_params_with_unit_suffix(code) {
                        push(
                            Rule::UnitLeak,
                            format!(
                                "raw f64 parameter/field `{ident}` carries a unit \
                                 suffix; use sustain_core::units::{suggestion}"
                            ),
                            &mut diags,
                        );
                    }
                    if code.contains("-> f64") {
                        if let Some((_, suggestion)) = unit_suffix_of(name) {
                            push(
                                Rule::UnitLeak,
                                format!(
                                    "pub fn `{name}` returns raw f64 but its name is \
                                     unit-suffixed; return sustain_core::units::{suggestion}"
                                ),
                                &mut diags,
                            );
                        }
                    }
                }
                if code.contains('{') || code.contains(';') {
                    sig = None;
                }
            }
            if !sig_line && code.trim_start().starts_with("pub ") {
                for (ident, suggestion) in f64_params_with_unit_suffix(code) {
                    push(
                        Rule::UnitLeak,
                        format!(
                            "raw f64 parameter/field `{ident}` carries a unit \
                             suffix; use sustain_core::units::{suggestion}"
                        ),
                        &mut diags,
                    );
                }
            }
        }

        // --- rule 2: float-eq ---------------------------------------------
        if !class.test_like && class.stem != "units" {
            for op in float_eq_ops(code) {
                push(
                    Rule::FloatEq,
                    format!(
                        "exact float comparison `{op}`; use \
                         sustain_core::units::approx_eq"
                    ),
                    &mut diags,
                );
            }
        }

        // --- rule 3: panic-discipline -------------------------------------
        if class.lib_src && !class.test_like {
            if code.contains(".unwrap()") {
                push(
                    Rule::PanicDiscipline,
                    "unwrap() in library code; return Result or justify with \
                     lint:allow(panic-discipline)"
                        .into(),
                    &mut diags,
                );
            }
            if code.contains(".expect(") {
                push(
                    Rule::PanicDiscipline,
                    "expect() in library code; return Result or justify with \
                     lint:allow(panic-discipline)"
                        .into(),
                    &mut diags,
                );
            }
            if has_word(code, "panic!") {
                push(
                    Rule::PanicDiscipline,
                    "panic! in library code; return Result or justify with \
                     lint:allow(panic-discipline)"
                        .into(),
                    &mut diags,
                );
            }
            if let Some(index) = literal_index(code) {
                push(
                    Rule::PanicDiscipline,
                    format!(
                        "indexing by literal `[{index}]` can panic; use .get({index}) \
                         or destructure"
                    ),
                    &mut diags,
                );
            }
        }

        // --- rule 4: determinism ------------------------------------------
        if !class.test_like
            && class
                .crate_name
                .as_deref()
                .is_some_and(|c| SIM_CRATES.contains(&c))
        {
            for (pat, fix) in NONDETERMINISM {
                if *pat == "Instant::now" && wall_clock_module(class) {
                    // The one sanctioned wall-clock site: sustain-obs's
                    // recorder clock. Everything else must take time from
                    // an obs handle.
                    continue;
                }
                if has_word(code, pat) {
                    push(
                        Rule::Determinism,
                        format!("`{pat}` breaks seed-reproducibility in a simulation crate; {fix}"),
                        &mut diags,
                    );
                }
            }
        }

        // --- rule 5: thread-discipline ------------------------------------
        if !class.test_like
            && !class
                .crate_name
                .as_deref()
                .is_some_and(|c| THREAD_CRATES.contains(&c))
        {
            for pat in THREAD_PRIMITIVES {
                if has_word(code, pat) {
                    push(
                        Rule::ThreadDiscipline,
                        format!(
                            "`{pat}` outside crates/par and crates/obs; fan out through \
                             sustain_par::ParPool so joins stay deterministic"
                        ),
                        &mut diags,
                    );
                }
            }
        }

        // --- rule 8: fs-discipline ----------------------------------------
        // Applies to binaries too (unlike the library-only rules): any
        // non-test write outside crates/cache must be a sanctioned site or
        // carry an explicit allow.
        if class.crate_name.as_deref() != Some("cache")
            && !FS_SANCTIONED_FILES.contains(&class.path.as_str())
            && !path_is_test_code(&class.path)
        {
            for pat in FS_WRITE_PRIMITIVES {
                if has_word(code, pat) {
                    push(
                        Rule::FsDiscipline,
                        format!(
                            "`{pat}` writes the filesystem outside crates/cache; persist \
                             through sustain_cache::DiskStore or justify with \
                             lint:allow(fs-discipline)"
                        ),
                        &mut diags,
                    );
                }
            }
        }

        // --- rule 6: magic-constant ---------------------------------------
        if !class.test_like && !CONSTANT_MODULES.contains(&class.stem.as_str()) {
            for (ctor, literal) in ctor_literal_args(code) {
                push(
                    Rule::MagicConstant,
                    format!(
                        "bare literal `{literal}` in `{ctor}(..)`; name it in a \
                         `constants` module with a provenance comment"
                    ),
                    &mut diags,
                );
            }
        }
    }

    diags
}

/// True for paths under a `tests`, `benches`, or `examples` directory
/// (rule 8 carve-out): test code writes temp fixtures freely. Narrower
/// than [`FileClass::test_like`], which also covers `bin` and figure
/// sources — binaries are exactly where write discipline matters.
fn path_is_test_code(path: &str) -> bool {
    path.split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples"))
}

/// True for the one module allowed to read the wall clock (rule 4
/// carve-out): `crates/obs/src/clock.rs`, the recorder's clock. Exports
/// stay deterministic because recorders default to the work clock; the
/// wall clock exists only for real profiling runs.
fn wall_clock_module(class: &FileClass) -> bool {
    class.crate_name.as_deref() == Some("obs") && class.stem == "clock"
}

// ---------------------------------------------------------------------------
// lint:allow
// ---------------------------------------------------------------------------

/// Effective allow-tags per line: a tag on a code line covers that line; a
/// tag on a comment-only line carries forward to the next code line. Shared
/// with the graph rules ([`crate::rules_graph`]) so suppression semantics
/// are identical in both phases.
pub(crate) fn collect_allows(lines: &[LineView]) -> Vec<Vec<String>> {
    let mut allows = Vec::with_capacity(lines.len());
    let mut carried: Vec<String> = Vec::new();
    for line in lines {
        let own = parse_allow_tags(&line.comment);
        let mut effective = own.clone();
        effective.extend(carried.iter().cloned());
        if line.is_comment_only() {
            carried.extend(own);
        } else {
            carried.clear();
        }
        allows.push(effective);
    }
    allows
}

pub(crate) fn allowed(allows: &[Vec<String>], idx: usize, rule: Rule) -> bool {
    allows
        .get(idx)
        .is_some_and(|tags| tags.iter().any(|t| t == rule.name()))
}

/// Extracts rule names from every `lint:allow(a, b)` marker in `comment`.
fn parse_allow_tags(comment: &str) -> Vec<String> {
    let mut tags = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        if let Some(end) = rest.find(')') {
            for tag in rest[..end].split(',') {
                let tag = tag.trim();
                if !tag.is_empty() {
                    tags.push(tag.to_string());
                }
            }
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    tags
}

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

/// True when `pat` occurs in `code` delimited by non-identifier characters.
fn has_word(code: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let start = from + pos;
        let end = start + pat.len();
        let pre_ok =
            start == 0 || !is_ident_continue(code[..start].chars().next_back().unwrap_or(' '));
        let post_ok =
            end >= code.len() || !is_ident_continue(code[end..].chars().next().unwrap_or(' '));
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Name of a `pub fn` declared on this line, if any.
fn pub_fn_name(code: &str) -> Option<String> {
    let pos = code.find("pub fn ")?;
    let rest = &code[pos + "pub fn ".len()..];
    let name: String = rest.chars().take_while(|&c| is_ident_continue(c)).collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// The unit suffix carried by `ident`, with the suggested newtype.
fn unit_suffix_of(ident: &str) -> Option<(&'static str, &'static str)> {
    UNIT_SUFFIXES
        .iter()
        .find(|(suffix, _)| ident.ends_with(suffix))
        .copied()
}

/// All `ident: f64` occurrences on the line where `ident` is unit-suffixed.
fn f64_params_with_unit_suffix(code: &str) -> Vec<(String, &'static str)> {
    let mut found = Vec::new();
    let chars: Vec<char> = code.chars().collect();
    let mut from = 0;
    while let Some(pos) = code[from..].find("f64") {
        let start = from + pos;
        from = start + 3;
        // Word boundary around `f64` (reject `xf64`, `f64x`).
        let char_idx = code[..start].chars().count();
        if char_idx > 0 && is_ident_continue(chars[char_idx - 1]) {
            continue;
        }
        if chars
            .get(char_idx + 3)
            .copied()
            .is_some_and(is_ident_continue)
        {
            continue;
        }
        // Walk backwards over `: ` to the identifier.
        let mut j = char_idx;
        while j > 0 && chars[j - 1] == ' ' {
            j -= 1;
        }
        if j == 0 || chars[j - 1] != ':' {
            continue;
        }
        j -= 1;
        if j > 0 && chars[j - 1] == ':' {
            continue; // `::f64` path segment, not a type ascription
        }
        while j > 0 && chars[j - 1] == ' ' {
            j -= 1;
        }
        let ident_end = j;
        while j > 0 && is_ident_continue(chars[j - 1]) {
            j -= 1;
        }
        let ident: String = chars[j..ident_end].iter().collect();
        if let Some((_, suggestion)) = unit_suffix_of(&ident) {
            found.push((ident, suggestion));
        }
    }
    found
}

/// Equality/inequality operators on this line with a float-literal operand.
fn float_eq_ops(code: &str) -> Vec<&'static str> {
    let bytes = code.as_bytes();
    let mut ops = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let op = match (bytes[i], bytes[i + 1]) {
            (b'=', b'=') => Some("=="),
            (b'!', b'=') => Some("!="),
            _ => None,
        };
        if let Some(op) = op {
            // Reject `<=`, `>=`, `===`-like neighborhoods.
            let prev = if i > 0 { bytes[i - 1] } else { b' ' };
            let next = bytes.get(i + 2).copied().unwrap_or(b' ');
            if !matches!(prev, b'<' | b'>' | b'!' | b'=') && next != b'=' {
                let left = trailing_token(&code[..i]);
                let right = leading_token(&code[i + 2..]);
                if is_float_literal(&left) || is_float_literal(&right) {
                    ops.push(op);
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    ops
}

fn trailing_token(s: &str) -> String {
    s.trim_end()
        .chars()
        .rev()
        .take_while(|&c| is_ident_continue(c) || c == '.')
        .collect::<String>()
        .chars()
        .rev()
        .collect()
}

fn leading_token(s: &str) -> String {
    let s = s.trim_start();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if is_ident_continue(c) || c == '.' || (i == 0 && c == '-') {
            out.push(c);
        } else {
            break;
        }
    }
    out
}

/// True for tokens like `0.0`, `-273.15`, `6.25e3`, `1.0_f64`.
fn is_float_literal(token: &str) -> bool {
    let cleaned = token
        .trim_start_matches('-')
        .trim_end_matches("_f64")
        .trim_end_matches("_f32")
        .replace('_', "");
    cleaned.contains('.')
        && cleaned.chars().next().is_some_and(|c| c.is_ascii_digit())
        && cleaned.parse::<f64>().is_ok()
}

/// The first `expr[<int literal>]` index on the line, if any.
fn literal_index(code: &str) -> Option<String> {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if !(is_ident_continue(prev) || prev == ')' || prev == ']') {
            continue;
        }
        let mut j = i + 1;
        let mut digits = String::new();
        while j < chars.len() && chars[j].is_ascii_digit() {
            digits.push(chars[j]);
            j += 1;
        }
        if !digits.is_empty() && chars.get(j) == Some(&']') {
            return Some(digits);
        }
    }
    None
}

/// Carbon-unit constructor calls whose first argument is a bare numeric
/// literal (zero excluded — `ZERO` initializers are not physical constants).
fn ctor_literal_args(code: &str) -> Vec<(&'static str, String)> {
    let mut found = Vec::new();
    for &ctor in CARBON_CTORS {
        let mut from = 0;
        while let Some(pos) = code[from..].find(ctor) {
            let start = from + pos;
            let end = start + ctor.len();
            from = end;
            let pre_ok =
                start == 0 || !is_ident_continue(code[..start].chars().next_back().unwrap_or(' '));
            if !pre_ok || !code[end..].starts_with('(') {
                continue;
            }
            let arg = &code[end + 1..];
            let token = leading_token(arg);
            if token.is_empty() {
                continue;
            }
            let numeric = token.trim_start_matches('-');
            if numeric.chars().next().is_some_and(|c| c.is_ascii_digit())
                && numeric.replace('_', "").parse::<f64>().is_ok()
            {
                let value: f64 = numeric.replace('_', "").parse().unwrap_or(0.0);
                if value != 0.0 {
                    found.push((ctor, token));
                }
            }
        }
    }
    found
}
