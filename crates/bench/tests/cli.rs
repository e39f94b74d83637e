//! The `all_figures` command line: `--only` prints one family or one table
//! byte for byte as the committed goldens have it, `--obs` regenerates no
//! printed table a second time, and bad input exits non-zero with usage on
//! stderr and nothing on stdout.

use std::process::{Command, Output};

const FIGURES: &str = include_str!("../../../figures_output.txt");

fn all_figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(args)
        .output()
        .expect("all_figures starts")
}

/// Stdout of a run that must succeed.
fn stdout(args: &[&str]) -> String {
    let out = all_figures(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// The number of tables in printed output (each opens with a `== ` title).
fn table_count(printed: &str) -> usize {
    printed.lines().filter(|l| l.starts_with("== ")).count()
}

#[test]
fn only_faults_and_stream_print_their_goldens() {
    assert_eq!(
        stdout(&["--only", "faults"]),
        include_str!("../../../faults_output.txt")
    );
    assert_eq!(
        stdout(&["--only", "stream"]),
        include_str!("../../../stream_output.txt")
    );
}

#[test]
fn only_extensions_prints_the_tail_of_the_figures_golden() {
    let printed = stdout(&["--only", "extensions"]);
    assert_eq!(
        table_count(&printed),
        sustain_bench::figs::extensions::TABLES.len()
    );
    assert!(printed.starts_with("== "));
    assert!(FIGURES.ends_with(&format!("\n{printed}")));
}

#[test]
fn only_one_table_prints_its_block_of_the_figures_golden() {
    let printed = stdout(&["--only", "fig07_waterfall"]);
    assert_eq!(table_count(&printed), 1);
    assert!(printed.starts_with("== Figure 7: "), "{printed}");
    assert!(FIGURES.contains(&format!("\n{printed}")));
}

#[test]
fn only_faults_with_obs_generates_each_fault_table_once() {
    let dir = std::env::temp_dir().join(format!("all-figures-cli-obs-{}", std::process::id()));
    let printed = stdout(&[
        "--only",
        "faults",
        "--obs",
        dir.to_str().expect("temp dir is UTF-8"),
        "--obs-clock",
        "sim",
    ]);
    assert_eq!(printed, include_str!("../../../faults_output.txt"));
    let metrics = std::fs::read_to_string(dir.join("metrics.prom")).expect("metrics.prom");
    let events = std::fs::read_to_string(dir.join("events.jsonl")).expect("events.jsonl");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        metrics.lines().any(|l| l == "figures_generated_total 3.0"),
        "{metrics}"
    );
    for (name, _) in sustain_bench::figs::faults::TABLES {
        let named = format!("\"name\":\"{name}\"");
        let spans = events
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"span\",") && l.contains(&named))
            .count();
        assert_eq!(spans, 1, "{name}");
    }
}

#[test]
fn unknown_names_and_flags_fail_with_usage_and_no_output() {
    for args in [
        &["--only", "fig99_nowhere"][..],
        &["--only"],
        &["--no-cache"],
    ] {
        let out = all_figures(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: all_figures"), "{args:?}: {stderr}");
    }
}
