//! Workspace automation tasks (`cargo xtask <command>`).
//!
//! The one command is `lint`: a std-only static-analysis pass over the
//! workspace's `.rs` files enforcing the carbon-accounting invariants that
//! keep the paper-reproduction figures trustworthy — dimensional consistency
//! (no raw-`f64` unit leaks), determinism (seed-reproducible simulations),
//! panic discipline in library code, and named physical constants.
//!
//! Every figure in Wu et al. (MLSys 2022) is an accounting result: a chain
//! of W → J → kWh → kgCO2e conversions. Ground-truthing studies of software
//! carbon trackers found unit-conversion slips dominate tracker error, so
//! this linter machine-checks the conventions the workspace relies on
//! instead of trusting review to catch them.
//!
//! The pass runs in two phases over the same token substrate:
//!
//! 1. **Line rules** (`rules`) scan the sanitized code channel of each
//!    line ([`sanitize::split_lines`]) with simple lexical state.
//! 2. **Graph rules** (`rules_graph`) run over an *item graph* parsed
//!    from the full token stream ([`lexer`] → [`items`]): structs with
//!    field lists, impl blocks with method names, `use` imports, and fn
//!    bodies as token spans. They relate items across files — a `CacheKey`
//!    impl to its struct's field list, an import to every iteration site.
//!
//! Rules (suppress any one occurrence with `// lint:allow(<rule>)` plus a
//! one-line justification):
//!
//! | rule                     | what it rejects                                             |
//! |--------------------------|-------------------------------------------------------------|
//! | `unit-leak`              | pub `f64` params/fields/returns with unit-suffixed names    |
//! | `float-eq`               | `==`/`!=` against float literals outside `units.rs`         |
//! | `panic-discipline`       | `unwrap`/`expect`/`panic!`/literal indexing in library src  |
//! | `determinism`            | wall-clock/`thread_rng` calls in simulation crates          |
//! | `thread-discipline`      | `thread::spawn`/`thread::scope` outside `par`/`obs`         |
//! | `magic-constant`         | bare literals fed to carbon-unit constructors               |
//! | `lint-header`            | crate roots missing `#![forbid(unsafe_code)]`               |
//! | `fs-discipline`          | filesystem writes outside `crates/cache` + sanctioned sites |
//! | `cache-key-completeness` | struct fields missing from `CacheKey`/`CacheValue` codecs   |
//! | `determinism-taint`      | iteration/retain/float reductions over unordered collections|
//! | `obs-coverage`           | uninstrumented loop-bearing pub fns in hot-path files       |
//! | `const-provenance`       | ≥3-sig-digit float literals outside `constants` modules     |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod items;
pub mod lexer;
pub mod sanitize;

mod rules;
mod rules_graph;

/// The twelve lint rules, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Raw `f64` in public API carrying a unit suffix.
    UnitLeak,
    /// Exact float equality comparison.
    FloatEq,
    /// Panicking constructs in library code.
    PanicDiscipline,
    /// Nondeterminism sources in simulation crates.
    Determinism,
    /// Raw thread primitives outside the sanctioned parallel/obs layers.
    ThreadDiscipline,
    /// Bare physical-constant literals outside designated modules.
    MagicConstant,
    /// Missing `#![forbid(unsafe_code)]` in a crate root.
    LintHeader,
    /// Direct filesystem writes outside the cache crate and the sanctioned
    /// exporter sites.
    FsDiscipline,
    /// Struct fields invisible to their type's `CacheKey` encoder or
    /// `CacheValue` codec (stale-cache hazard).
    CacheKeyCompleteness,
    /// Order-dependent operations (iteration, `retain`, float reductions)
    /// on unordered collections in simulation crates.
    DeterminismTaint,
    /// Loop-bearing pub fns in instrumented hot-path files with no span or
    /// obs handle.
    ObsCoverage,
    /// Unprovenanced multi-digit float literals in simulation fn bodies.
    ConstProvenance,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 12] = [
        Rule::UnitLeak,
        Rule::FloatEq,
        Rule::PanicDiscipline,
        Rule::Determinism,
        Rule::ThreadDiscipline,
        Rule::MagicConstant,
        Rule::LintHeader,
        Rule::FsDiscipline,
        Rule::CacheKeyCompleteness,
        Rule::DeterminismTaint,
        Rule::ObsCoverage,
        Rule::ConstProvenance,
    ];

    /// The kebab-case name used in diagnostics and `lint:allow(..)` markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnitLeak => "unit-leak",
            Rule::FloatEq => "float-eq",
            Rule::PanicDiscipline => "panic-discipline",
            Rule::Determinism => "determinism",
            Rule::ThreadDiscipline => "thread-discipline",
            Rule::MagicConstant => "magic-constant",
            Rule::LintHeader => "lint-header",
            Rule::FsDiscipline => "fs-discipline",
            Rule::CacheKeyCompleteness => "cache-key-completeness",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::ObsCoverage => "obs-coverage",
            Rule::ConstProvenance => "const-provenance",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How a file participates in the lint pass, derived from its path.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// `crates/<name>/…` member, if any (`None` for the root package).
    pub crate_name: Option<String>,
    /// Test-adjacent code: tests, benches, examples, figure binaries, and
    /// the figure-rendering `bench` crate. Exempt from the library rules.
    pub test_like: bool,
    /// Library source (under a `src/`, not a binary or test).
    pub lib_src: bool,
    /// A crate root `lib.rs` subject to the `lint-header` rule.
    pub is_crate_root: bool,
    /// File stem (`units` for `units.rs`).
    pub stem: String,
    /// Excluded from scanning entirely (shims, the linter itself, target).
    pub skip: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path (forward slashes).
    pub fn classify(path: &str) -> FileClass {
        let comps: Vec<&str> = path.split('/').collect();
        let stem = comps
            .last()
            .unwrap_or(&"")
            .trim_end_matches(".rs")
            .to_string();
        let crate_name = if comps.first() == Some(&"crates") && comps.len() > 2 {
            comps.get(1).map(|s| s.to_string())
        } else {
            None
        };
        // shims/ reimplement external crates' APIs, whose idioms (e.g.
        // serde_derive's panicking proc macro) are not this workspace's
        // to police; the linter's own sources mention every banned
        // pattern by name.
        let skip = comps.first() == Some(&"shims")
            || comps.first() == Some(&"target")
            || crate_name.as_deref() == Some("xtask");
        let test_like = comps
            .iter()
            .any(|c| matches!(*c, "tests" | "benches" | "examples" | "bin" | "figs"))
            || crate_name.as_deref() == Some("bench")
            || stem.starts_with("fig");
        let lib_src = !test_like && comps.contains(&"src");
        let is_crate_root = stem == "lib"
            && (path == "src/lib.rs"
                || (comps.len() == 4
                    && comps[0] == "crates"
                    && comps[2] == "src"
                    && comps[3] == "lib.rs"));
        FileClass {
            path: path.to_string(),
            crate_name,
            test_like,
            lib_src,
            is_crate_root,
            stem,
            skip,
        }
    }
}

/// Lints one file's source text. `path` must be workspace-relative with
/// forward slashes; it selects which rules apply (see [`FileClass`]).
///
/// Single-file linting runs both phases but can only resolve structs
/// defined in the same file; use [`lint_sources`] to let the graph rules
/// see across files.
pub fn lint_source(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_sources(&[(path.to_string(), source.to_string())])
}

/// Lints a set of files together, letting the graph rules resolve structs
/// and impls across file boundaries. Each entry is a workspace-relative
/// path (forward slashes) plus the file's source text. Diagnostics come
/// back sorted by file, then line, then rule order.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut analyses = Vec::new();
    for (path, source) in files {
        let class = FileClass::classify(path);
        if class.skip {
            continue;
        }
        let lines = sanitize::split_lines(source);
        diags.extend(rules::scan(&class, &lines));
        let allows = rules::collect_allows(&lines);
        let tokens = lexer::lex(source);
        let graph = items::parse(&tokens);
        analyses.push(rules_graph::FileAnalysis {
            class,
            tokens,
            graph,
            allows,
        });
    }
    diags.extend(rules_graph::scan_workspace(&analyses));
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule as usize).cmp(&(&b.file, b.line, b.rule as usize))
    });
    diags
}

/// Renders ready-to-paste `lint:allow` lines for a batch of diagnostics
/// (the `lint --fix-allow` helper): one block per finding with the comment
/// to place on (or above) the flagged line, carrying a justification stub
/// that review is expected to replace with the actual reason.
pub fn render_fix_allow(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}:{}\n    // lint:allow({}) TODO: one-line justification\n",
            d.file,
            d.line,
            d.rule.name()
        ));
    }
    if diags.is_empty() {
        out.push_str("nothing to allow: lint is clean\n");
    }
    out
}

/// Extracts the per-rule counts from a lint `--json` report (the committed
/// `lint_baseline.json`). Hand-rolled like the writer: looks for
/// `"<rule>": <count>` after the `"by_rule"` marker. Unknown or absent
/// rules default to 0 so adding a rule never breaks an old baseline.
pub fn parse_baseline_counts(json: &str) -> std::collections::BTreeMap<String, usize> {
    let mut counts = std::collections::BTreeMap::new();
    let region = match json.find("\"by_rule\"") {
        Some(pos) => &json[pos..],
        None => return counts,
    };
    let region = &region[..region.find('}').map(|p| p + 1).unwrap_or(region.len())];
    for rule in Rule::ALL {
        let needle = format!("\"{}\":", rule.name());
        if let Some(pos) = region.find(&needle) {
            let digits: String = region[pos + needle.len()..]
                .chars()
                .skip_while(|c| c.is_whitespace())
                .take_while(|c| c.is_ascii_digit())
                .collect();
            if let Ok(n) = digits.parse::<usize>() {
                counts.insert(rule.name().to_string(), n);
            }
        }
    }
    counts
}

/// Recursively collects the workspace `.rs` files eligible for linting,
/// sorted for deterministic output.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "benches", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints every eligible workspace file under `root`. Returns the number of
/// files scanned and all diagnostics, sorted by file then line. All files
/// are analyzed together so the graph rules can match a `CacheKey` impl in
/// one file to its struct in another.
pub fn lint_workspace(root: &Path) -> std::io::Result<(usize, Vec<Diagnostic>)> {
    let mut sources = Vec::new();
    for path in collect_workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        if FileClass::classify(&rel).skip {
            continue;
        }
        let source = std::fs::read_to_string(&path)?;
        sources.push((rel, source));
    }
    let scanned = sources.len();
    Ok((scanned, lint_sources(&sources)))
}
