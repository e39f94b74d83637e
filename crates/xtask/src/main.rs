//! `cargo xtask` — workspace automation CLI.
//!
//! Commands:
//!
//! - `lint [--json] [--fix-allow]` — run the carbon-accounting
//!   static-analysis pass over the workspace; exits non-zero when any
//!   violation is found. `--json` emits machine-readable diagnostics with
//!   per-rule counts so CI can diff rule counts across PRs. `--fix-allow`
//!   prints ready-to-paste `lint:allow` comments for every finding.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{lint_workspace, render_fix_allow, Diagnostic, Rule};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let flags = &args[1..];
            if let Some(unknown) = flags.iter().find(|a| *a != "--json" && *a != "--fix-allow") {
                eprintln!("xtask lint: unknown flag `{unknown}`");
                return ExitCode::from(2);
            }
            let has = |flag: &str| flags.iter().any(|a| a == flag);
            lint(has("--json"), has("--fix-allow"))
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo xtask lint [--json] [--fix-allow]";

fn lint(json: bool, fix_allow: bool) -> ExitCode {
    let root = workspace_root();
    let (scanned, diags) = match lint_workspace(&root) {
        Ok(result) => result,
        Err(err) => {
            eprintln!("xtask lint: failed to scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", render_json(scanned, &diags));
    } else if fix_allow {
        print!("{}", render_fix_allow(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            eprintln!("lint clean: {scanned} files scanned, 0 violations");
        } else {
            eprintln!(
                "lint: {} violation(s) across {} file(s) ({} scanned)",
                diags.len(),
                diags
                    .iter()
                    .map(|d| d.file.as_str())
                    .collect::<std::collections::BTreeSet<_>>()
                    .len(),
                scanned
            );
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resolves the workspace root: two levels above this crate's manifest when
/// run via cargo, else the current directory.
fn workspace_root() -> PathBuf {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let path = PathBuf::from(manifest);
        if let Some(root) = path.ancestors().nth(2) {
            return root.to_path_buf();
        }
    }
    PathBuf::from(".")
}

/// Renders the machine-readable report. Hand-rolled writer: xtask is
/// deliberately dependency-free so it builds before the rest of the
/// workspace.
fn render_json(scanned: usize, diags: &[Diagnostic]) -> String {
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for rule in Rule::ALL {
        by_rule.insert(rule.name(), 0);
    }
    for d in diags {
        *by_rule.entry(d.rule.name()).or_insert(0) += 1;
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {scanned},\n"));
    out.push_str(&format!("  \"violations\": {},\n", diags.len()));
    out.push_str("  \"by_rule\": {");
    for (i, (rule, count)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{rule}\": {count}"));
    }
    out.push_str("\n  },\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape_json(&d.file),
            d.line,
            d.rule,
            escape_json(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
