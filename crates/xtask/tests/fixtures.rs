//! Fixture tests for every lint rule: one violating snippet, one clean
//! snippet, and one snippet silenced with `lint:allow(<rule>)` per rule.

use xtask::{lint_source, Rule};

/// Path that classifies as library source inside a simulation crate, so all
/// seven rules (including determinism and thread-discipline) are in force.
const SIM_LIB: &str = "crates/fleet/src/sim.rs";
/// Library source outside the simulation crates (determinism not enforced).
const CORE_LIB: &str = "crates/core/src/embodied.rs";

fn rules_hit(path: &str, source: &str) -> Vec<Rule> {
    lint_source(path, source)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

fn assert_clean(path: &str, source: &str) {
    let diags = lint_source(path, source);
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

// ---------------------------------------------------------------- unit-leak

#[test]
fn unit_leak_flags_raw_f64_with_unit_suffix() {
    let src = "pub fn total_joules(x: f64) -> f64 { x }\n";
    let hits = rules_hit(CORE_LIB, src);
    assert!(hits.contains(&Rule::UnitLeak), "got {hits:?}");
}

#[test]
fn unit_leak_flags_pub_struct_field() {
    let src = "pub struct Report {\n    pub embodied_kg: f64,\n}\n";
    let hits = rules_hit(CORE_LIB, src);
    assert!(hits.contains(&Rule::UnitLeak), "got {hits:?}");
}

#[test]
fn unit_leak_clean_on_newtype_api() {
    assert_clean(
        CORE_LIB,
        "pub fn total(x: Energy) -> Energy { x }\npub fn speed(p: Power) -> Power { p }\n",
    );
}

#[test]
fn unit_leak_exempts_conversion_boundary() {
    // `from_*` / `as_*` functions are the newtype boundary itself.
    assert_clean(
        CORE_LIB,
        "impl Energy {\n    pub fn as_joules(self) -> f64 { self.0 }\n}\n",
    );
}

#[test]
fn unit_leak_allow_silences() {
    let src = "// lint:allow(unit-leak) FFI boundary keeps raw joules\n\
               pub fn total_joules(x: f64) -> f64 { x }\n";
    assert_clean(CORE_LIB, src);
}

// ----------------------------------------------------------------- float-eq

#[test]
fn float_eq_flags_exact_comparison() {
    let src = "fn f(x: f64) -> bool { x == 0.5 }\n";
    let hits = rules_hit(CORE_LIB, src);
    assert!(hits.contains(&Rule::FloatEq), "got {hits:?}");
}

#[test]
fn float_eq_clean_on_integer_and_ordering() {
    assert_clean(
        CORE_LIB,
        "fn f(x: u64, y: f64) -> bool { x == 3 && y <= 0.5 && y >= 0.1 }\n",
    );
}

#[test]
fn float_eq_allow_silences() {
    let src =
        "fn f(x: f64) -> bool {\n    // lint:allow(float-eq) sentinel compare\n    x == 0.0\n}\n";
    assert_clean(CORE_LIB, src);
}

// --------------------------------------------------------- panic-discipline

#[test]
fn panic_discipline_flags_unwrap_expect_panic_and_index() {
    let src = "fn f(v: &[f64]) -> f64 {\n\
               \x20   let a = v.first().unwrap();\n\
               \x20   let b = v.last().expect(\"non-empty\");\n\
               \x20   if v.is_empty() { panic!(\"empty\"); }\n\
               \x20   a + b + v[0]\n\
               }\n";
    let hits = rules_hit(CORE_LIB, src);
    let n = hits.iter().filter(|r| **r == Rule::PanicDiscipline).count();
    assert_eq!(n, 4, "got {hits:?}");
}

#[test]
fn panic_discipline_clean_in_tests_and_benches() {
    let src = "fn f(v: &[f64]) -> f64 { v.first().unwrap() + v[0] }\n";
    assert_clean("crates/core/tests/embodied.rs", src);
    assert_clean("crates/bench/src/figs/fig1.rs", src);
}

#[test]
fn panic_discipline_clean_in_cfg_test_module() {
    let src = "fn safe() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { Some(1).unwrap(); }\n\
               }\n";
    assert_clean(CORE_LIB, src);
}

#[test]
fn panic_discipline_allow_silences_next_code_line() {
    let src = "fn f(v: &[f64]) -> f64 {\n\
               \x20   // lint:allow(panic-discipline) guarded by the caller\n\
               \x20   v.first().expect(\"non-empty\") + 1.0\n\
               }\n";
    assert_clean(CORE_LIB, src);
}

// -------------------------------------------------------------- determinism

#[test]
fn determinism_flags_wall_clock_and_thread_rng() {
    let src = "fn f() {\n\
               \x20   let _t = std::time::Instant::now();\n\
               \x20   let _r = rand::thread_rng();\n\
               }\n";
    let hits = rules_hit(SIM_LIB, src);
    let n = hits.iter().filter(|r| **r == Rule::Determinism).count();
    assert_eq!(n, 2, "got {hits:?}");
}

#[test]
fn determinism_hashmap_ownership_is_no_longer_flagged() {
    // Rule 4 used to ban `HashMap` by name; the graph rule
    // `determinism-taint` subsumed it and only iteration/retain/reductions
    // fire now, so owning a map for point lookups is clean.
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u64, f64>) -> Option<f64> { m.get(&1).copied() }\n";
    assert_clean(SIM_LIB, src);
}

#[test]
fn determinism_not_enforced_outside_sim_crates() {
    assert_clean(CORE_LIB, "use std::collections::HashMap;\n");
}

#[test]
fn determinism_enforced_in_obs_crate() {
    let src = "fn f() { let _r = rand::thread_rng(); }\n";
    let hits = rules_hit("crates/obs/src/recorder.rs", src);
    assert!(hits.contains(&Rule::Determinism), "got {hits:?}");
}

#[test]
fn determinism_permits_wall_clock_only_in_obs_clock_module() {
    // The sanctioned site: the wall clock in sustain-obs's clock module.
    assert_clean(
        "crates/obs/src/clock.rs",
        "fn now_wall() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    // The carve-out is for the wall clock only; other nondeterminism in the
    // clock module is still flagged.
    let hits = rules_hit(
        "crates/obs/src/clock.rs",
        "fn f() { let _r = rand::thread_rng(); }\n",
    );
    assert!(hits.contains(&Rule::Determinism), "got {hits:?}");
    // And `Instant::now` anywhere else in sustain-obs is still flagged.
    let hits = rules_hit(
        "crates/obs/src/recorder.rs",
        "fn f() { let _t = std::time::Instant::now(); }\n",
    );
    assert!(hits.contains(&Rule::Determinism), "got {hits:?}");
    // Other simulation crates never get the carve-out.
    let hits = rules_hit(
        "crates/fleet/src/clock.rs",
        "fn f() { let _t = std::time::Instant::now(); }\n",
    );
    assert!(hits.contains(&Rule::Determinism), "got {hits:?}");
}

#[test]
fn determinism_allow_silences() {
    let src = "fn f() {\n\
               \x20   // lint:allow(determinism) profiling hook, not part of results\n\
               \x20   let _t = std::time::Instant::now();\n\
               }\n";
    assert_clean(SIM_LIB, src);
}

// -------------------------------------------------------- thread-discipline

#[test]
fn thread_discipline_flags_spawn_and_scope_in_library_code() {
    let src = "fn f() {\n\
               \x20   std::thread::spawn(|| {});\n\
               \x20   std::thread::scope(|_s| {});\n\
               }\n";
    let hits = rules_hit(SIM_LIB, src);
    let n = hits
        .iter()
        .filter(|r| **r == Rule::ThreadDiscipline)
        .count();
    assert_eq!(n, 2, "got {hits:?}");
    // Enforced outside the simulation crates too.
    let hits = rules_hit(CORE_LIB, "fn f() { std::thread::spawn(|| {}); }\n");
    assert!(hits.contains(&Rule::ThreadDiscipline), "got {hits:?}");
}

#[test]
fn thread_discipline_permits_par_and_obs_crates() {
    let src = "fn f() { std::thread::scope(|_s| {}); }\n";
    assert_clean("crates/par/src/pool.rs", src);
    assert_clean("crates/obs/src/recorder.rs", src);
}

#[test]
fn thread_discipline_clean_in_tests_and_benches() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_clean("crates/fleet/tests/sim.rs", src);
    assert_clean("crates/bench/src/figs/fig1.rs", src);
}

#[test]
fn thread_discipline_allow_silences() {
    let src = "fn f() {\n\
               \x20   // lint:allow(thread-discipline) one-shot watchdog, not a fan-out\n\
               \x20   std::thread::spawn(|| {});\n\
               }\n";
    assert_clean(SIM_LIB, src);
}

// ----------------------------------------------------------- magic-constant

#[test]
fn magic_constant_flags_bare_literal_in_unit_ctor() {
    let src = "fn f() -> Energy { Energy::from_kilowatt_hours(201.0) }\n";
    let hits = rules_hit(CORE_LIB, src);
    assert!(hits.contains(&Rule::MagicConstant), "got {hits:?}");
}

#[test]
fn magic_constant_clean_on_named_constant_and_zero() {
    assert_clean(
        CORE_LIB,
        "fn f() -> Energy { Energy::from_kilowatt_hours(crate::constants::RUN_KWH) }\n\
         fn g() -> Energy { Energy::from_joules(0.0) }\n",
    );
}

#[test]
fn magic_constant_exempt_in_constants_module() {
    let src = "pub fn preset() -> Power { Power::from_watts(7.5) }\n";
    assert_clean("crates/edge/src/constants.rs", src);
}

#[test]
fn magic_constant_allow_silences() {
    let src = "fn f() -> Energy {\n\
               \x20   // lint:allow(magic-constant) 1 kWh probe, not a constant\n\
               \x20   Energy::from_kilowatt_hours(1.0)\n\
               }\n";
    assert_clean(CORE_LIB, src);
}

// -------------------------------------------------------------- lint-header

#[test]
fn lint_header_flags_crate_root_without_forbid() {
    let src = "//! A crate.\n#![deny(missing_docs)]\npub fn f() {}\n";
    let hits = rules_hit("crates/core/src/lib.rs", src);
    assert!(hits.contains(&Rule::LintHeader), "got {hits:?}");
}

#[test]
fn lint_header_clean_with_forbid() {
    assert_clean(
        "crates/core/src/lib.rs",
        "//! A crate.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n",
    );
}

#[test]
fn lint_header_only_applies_to_crate_roots() {
    assert_clean(CORE_LIB, "pub fn f() {}\n");
}

// ------------------------------------------------------------ allow plumbing

#[test]
fn allow_only_covers_adjacent_code_line() {
    // The allow covers the first expect but NOT the one two code lines down.
    let src = "fn f(v: &[f64]) -> f64 {\n\
               \x20   // lint:allow(panic-discipline) guarded\n\
               \x20   let a = v.first().expect(\"a\");\n\
               \x20   let b = v.last().expect(\"b\");\n\
               \x20   a + b\n\
               }\n";
    let diags = lint_source(CORE_LIB, src);
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert_eq!(diags[0].line, 4);
}

#[test]
fn allow_of_other_rule_does_not_silence() {
    let src = "// lint:allow(float-eq) wrong rule\n\
               pub fn total_joules(x: f64) -> f64 { x }\n";
    let hits = rules_hit(CORE_LIB, src);
    assert!(hits.contains(&Rule::UnitLeak), "got {hits:?}");
}

#[test]
fn diagnostics_carry_file_line_and_render() {
    let diags = lint_source(CORE_LIB, "fn f(x: f64) -> bool { x == 0.5 }\n");
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/core/src/embodied.rs:1: [float-eq]"),
        "got {rendered}"
    );
}

// ------------------------------------------------------------ fs-discipline

#[test]
fn fs_discipline_flags_writes_in_library_code() {
    let src = "pub fn save(report: &str) {\n    let _ = std::fs::write(\"out.json\", report);\n}\n";
    let hits = rules_hit(SIM_LIB, src);
    assert!(hits.contains(&Rule::FsDiscipline), "got {hits:?}");
}

#[test]
fn fs_discipline_flags_writes_in_unsanctioned_binaries() {
    // Unlike the library-only rules, write discipline reaches `bin` sources.
    let src = "fn main() {\n    let _ = std::fs::File::create(\"dump.bin\");\n    let _ = std::fs::create_dir_all(\"out\");\n}\n";
    let hits = rules_hit("crates/fleet/src/bin/dump.rs", src);
    assert_eq!(
        hits.iter().filter(|r| **r == Rule::FsDiscipline).count(),
        2,
        "got {hits:?}"
    );
}

#[test]
fn fs_discipline_clean_inside_cache_crate() {
    // The cache crate owns persistence: its stores write freely.
    assert_clean(
        "crates/cache/src/store.rs",
        "pub fn save(dir: &Path) {\n    let _ = std::fs::create_dir_all(dir);\n    let _ = std::fs::rename(\"a\", \"b\");\n}\n",
    );
}

#[test]
fn fs_discipline_clean_on_sanctioned_exporter_sites() {
    let src = "fn write_exports() {\n    let _ = std::fs::write(\"events.jsonl\", \"{}\");\n}\n";
    assert_clean("crates/bench/src/bin/all_figures.rs", src);
    // `all_figures` is the only sanctioned binary: the same write from a
    // sibling binary in its crate is flagged.
    let hits = rules_hit("crates/bench/src/bin/bench_suite.rs", src);
    assert!(hits.contains(&Rule::FsDiscipline), "got {hits:?}");
}

#[test]
fn fs_discipline_clean_in_test_code() {
    // Integration tests and benches write temp fixtures freely.
    let src = "fn setup() {\n    let _ = std::fs::remove_dir_all(\"tmp\");\n    let _ = std::fs::File::create(\"tmp/x\");\n}\n";
    assert_clean("crates/fleet/tests/replica_cache.rs", src);
    assert_clean("tests/cache_correctness.rs", src);
    assert_clean("crates/bench/benches/figures.rs", src);
}

#[test]
fn fs_discipline_allow_silences() {
    let src = "// lint:allow(fs-discipline) one-shot debug dump, never in CI\n\
               pub fn dump(s: &str) { let _ = std::fs::write(\"dbg.txt\", s); }\n";
    assert_clean(SIM_LIB, src);
}

#[test]
fn fs_discipline_reads_stay_clean() {
    // Only write primitives are disciplined; reads are unrestricted.
    assert_clean(
        SIM_LIB,
        "pub fn load(p: &Path) -> Option<String> {\n    std::fs::read_to_string(p).ok()\n}\n",
    );
}

// --------------------------------------------------- cache-key-completeness

/// A complete CacheKey impl: every struct field reaches the encoder.
const COMPLETE_KEY: &str = "pub struct ScenarioKey {\n\
                            \x20   seed: u64,\n\
                            \x20   arrivals: f64,\n\
                            \x20   horizon: f64,\n\
                            }\n\
                            impl CacheKey for ScenarioKey {\n\
                            \x20   fn namespace(&self) -> &'static str { \"scenario\" }\n\
                            \x20   fn encode_key(&self, encoder: &mut KeyEncoder) {\n\
                            \x20       encoder.write_u64(self.seed);\n\
                            \x20       encoder.write_f64(self.arrivals);\n\
                            \x20       encoder.write_f64(self.horizon);\n\
                            \x20   }\n\
                            }\n";

#[test]
fn cache_key_flags_field_missing_from_encoder() {
    // The planted fixture: `horizon` exists on the struct but never reaches
    // encode_key.
    let src = include_str!("fixtures/cache_key_drift.rs");
    let diags = lint_source(SIM_LIB, src);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::CacheKeyCompleteness)
        .collect();
    assert_eq!(hits.len(), 1, "got {diags:?}");
    assert!(
        hits[0].message.contains("horizon"),
        "got {}",
        hits[0].message
    );
    // The diagnostic anchors at the *field* line, so an allow must sit next
    // to the field it excuses, not on the whole impl.
    assert!(src
        .lines()
        .nth(hits[0].line - 1)
        .unwrap()
        .contains("horizon"));
}

#[test]
fn cache_key_deleting_one_write_line_fails_the_lint() {
    // The acceptance check from the issue: a complete impl is clean; the
    // same impl minus one `encoder.write_*` line fires.
    assert_clean(SIM_LIB, COMPLETE_KEY);
    let dropped: String = COMPLETE_KEY
        .lines()
        .filter(|l| !l.contains("write_f64(self.horizon)"))
        .collect::<Vec<_>>()
        .join("\n");
    let hits = rules_hit(SIM_LIB, &dropped);
    assert!(hits.contains(&Rule::CacheKeyCompleteness), "got {hits:?}");
}

#[test]
fn cache_key_flags_codec_asymmetry() {
    // to_cache_bytes writes `b` but from_cache_bytes only restores `a`.
    let src = "pub struct Blob {\n\
               \x20   a: u64,\n\
               \x20   b: u64,\n\
               }\n\
               impl Blob {\n\
               \x20   pub fn to_cache_bytes(&self) -> Vec<u8> {\n\
               \x20       let mut out = self.a.to_le_bytes().to_vec();\n\
               \x20       out.extend(self.b.to_le_bytes());\n\
               \x20       out\n\
               \x20   }\n\
               \x20   pub fn from_cache_bytes(bytes: &[u8]) -> Option<Blob> {\n\
               \x20       let a = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);\n\
               \x20       Some(Blob { a, b: 0 })\n\
               \x20   }\n\
               }\n";
    let diags = lint_source(SIM_LIB, src);
    // `b` appears in the constructor literal, so only a fully absent field
    // can fire the read-back check — rewrite without the `b` mention.
    let src = src.replace(", b: 0 ", " ");
    let diags2 = lint_source(SIM_LIB, &src);
    let n = diags2
        .iter()
        .filter(|d| d.rule == Rule::CacheKeyCompleteness)
        .count();
    assert!(n >= 1, "got {diags2:?} (with-mention case gave {diags:?})");
}

#[test]
fn cache_key_resolves_struct_across_files() {
    // Struct in one file, impl in another: lint_sources links them.
    let strukt = "pub struct ReplicaKey {\n\
                  \x20   sim: u64,\n\
                  \x20   chaos: u64,\n\
                  \x20   seed: u64,\n\
                  }\n";
    let imp = "impl CacheKey for ReplicaKey {\n\
               \x20   fn namespace(&self) -> &'static str { \"replica\" }\n\
               \x20   fn encode_key(&self, encoder: &mut KeyEncoder) {\n\
               \x20       encoder.write_u64(self.sim);\n\
               \x20       encoder.write_u64(self.seed);\n\
               \x20   }\n\
               }\n";
    let diags = xtask::lint_sources(&[
        ("crates/fleet/src/keys.rs".to_string(), strukt.to_string()),
        ("crates/fleet/src/cachimpl.rs".to_string(), imp.to_string()),
    ]);
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert_eq!(diags[0].rule, Rule::CacheKeyCompleteness);
    // Anchored at the field's own file and line.
    assert_eq!(diags[0].file, "crates/fleet/src/keys.rs");
    assert!(
        diags[0].message.contains("chaos"),
        "got {}",
        diags[0].message
    );
}

#[test]
fn cache_key_field_site_allow_silences_only_that_field() {
    let src = "pub struct K {\n\
               \x20   seed: u64,\n\
               \x20   // lint:allow(cache-key-completeness) debug tag, not an input\n\
               \x20   tag: u64,\n\
               \x20   horizon: f64,\n\
               }\n\
               impl CacheKey for K {\n\
               \x20   fn encode_key(&self, encoder: &mut KeyEncoder) {\n\
               \x20       encoder.write_u64(self.seed);\n\
               \x20   }\n\
               }\n";
    let diags = lint_source(SIM_LIB, src);
    assert_eq!(diags.len(), 1, "got {diags:?}");
    assert!(
        diags[0].message.contains("horizon"),
        "got {}",
        diags[0].message
    );
}

#[test]
fn cache_key_clean_on_delegating_codec() {
    // A serde-style codec that never names fields is out of scope.
    let src = "pub struct Report {\n\
               \x20   energy: f64,\n\
               }\n\
               impl CacheValue for Report {\n\
               \x20   fn to_cache_bytes(&self) -> Vec<u8> { serialize(self) }\n\
               \x20   fn from_cache_bytes(bytes: &[u8]) -> Option<Report> { deserialize(bytes) }\n\
               }\n";
    assert_clean(SIM_LIB, src);
}

// ------------------------------------------------------- determinism-taint

#[test]
fn determinism_taint_flags_planted_fixture() {
    let src = include_str!("fixtures/determinism_taint.rs");
    let diags = lint_source(SIM_LIB, src);
    let msgs: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::DeterminismTaint)
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(msgs.len(), 2, "got {diags:?}");
    assert!(msgs[0].contains("sum"), "got {}", msgs[0]);
    assert!(msgs[1].contains("retain"), "got {}", msgs[1]);
}

#[test]
fn determinism_taint_flags_for_loop_over_tainted_binding() {
    let src = "use std::collections::HashMap;\n\
               pub fn f() -> f64 {\n\
               \x20   let mut m = HashMap::new();\n\
               \x20   m.insert(1u64, 2.0f64);\n\
               \x20   let mut t = 0.0;\n\
               \x20   for (_k, v) in &m { t += v; }\n\
               \x20   t\n\
               }\n";
    let hits = rules_hit(SIM_LIB, src);
    assert!(hits.contains(&Rule::DeterminismTaint), "got {hits:?}");
}

#[test]
fn determinism_taint_flags_tainted_struct_field() {
    let src = "use std::collections::HashSet;\n\
               pub struct Tracker {\n\
               \x20   live: HashSet<u64>,\n\
               }\n\
               impl Tracker {\n\
               \x20   pub fn drain_all(&mut self) -> Vec<u64> {\n\
               \x20       self.live.drain().collect()\n\
               \x20   }\n\
               }\n";
    let hits = rules_hit(SIM_LIB, src);
    assert!(hits.contains(&Rule::DeterminismTaint), "got {hits:?}");
}

#[test]
fn determinism_taint_clean_without_collections_import() {
    // No std::collections import seeds the taint set: `retain` on a Vec or
    // a custom type named like a map is fine.
    let src = "pub fn f(mut v: Vec<u64>) -> usize {\n\
               \x20   v.retain(|x| *x > 0);\n\
               \x20   for x in &v { let _ = x; }\n\
               \x20   v.len()\n\
               }\n";
    // A sim-crate file that is not on the obs-coverage hot-path list, so
    // only the taint rule is in question.
    assert_clean("crates/fleet/src/cluster.rs", src);
}

#[test]
fn determinism_taint_clean_on_btreemap_iteration() {
    let src = "use std::collections::BTreeMap;\n\
               pub fn f(m: &BTreeMap<u64, f64>) -> f64 {\n\
               \x20   m.values().sum::<f64>()\n\
               }\n";
    assert_clean(SIM_LIB, src);
}

#[test]
fn determinism_taint_not_enforced_outside_sim_crates() {
    let src = include_str!("fixtures/determinism_taint.rs");
    let diags = lint_source(CORE_LIB, src);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::DeterminismTaint),
        "got {diags:?}"
    );
}

#[test]
fn determinism_taint_allow_silences() {
    let src = "use std::collections::HashMap;\n\
               pub fn f(m: &HashMap<u64, u64>) -> u64 {\n\
               \x20   // lint:allow(determinism-taint) max is order-independent\n\
               \x20   m.values().copied().max().unwrap_or(0)\n\
               }\n";
    let diags = lint_source(SIM_LIB, src);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::DeterminismTaint),
        "got {diags:?}"
    );
}

// ----------------------------------------------------------- obs-coverage

#[test]
fn obs_coverage_flags_planted_fixture() {
    let src = include_str!("fixtures/obs_gap.rs");
    let diags = lint_source(SIM_LIB, src);
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::ObsCoverage)
        .collect();
    assert_eq!(hits.len(), 1, "got {diags:?}");
    assert!(
        hits[0].message.contains("replay"),
        "got {}",
        hits[0].message
    );
}

#[test]
fn obs_coverage_flags_transitive_loop_through_private_callee() {
    // `run` has no loop of its own, but reaches one through `inner`.
    let src = "pub fn run(steps: &[f64]) -> f64 { inner(steps) }\n\
               fn inner(steps: &[f64]) -> f64 {\n\
               \x20   let mut t = 0.0;\n\
               \x20   for s in steps { t += s; }\n\
               \x20   t\n\
               }\n";
    let hits = rules_hit(SIM_LIB, src);
    assert!(hits.contains(&Rule::ObsCoverage), "got {hits:?}");
}

#[test]
fn obs_coverage_clean_with_span_or_instrumented_callee() {
    // Direct span evidence.
    let direct = "pub fn run(o: &Obs, steps: &[f64]) -> f64 {\n\
                  \x20   let _span = o.span(\"run\");\n\
                  \x20   let mut t = 0.0;\n\
                  \x20   for s in steps { t += s; }\n\
                  \x20   t\n\
                  }\n";
    assert_clean(SIM_LIB, direct);
    // Transitive evidence through a same-file callee.
    let transitive = "pub fn run(steps: &[f64]) -> f64 { run_inner(steps) }\n\
                      fn run_inner(steps: &[f64]) -> f64 {\n\
                      \x20   let _span = obs().span(\"run\");\n\
                      \x20   let mut t = 0.0;\n\
                      \x20   for s in steps { t += s; }\n\
                      \x20   t\n\
                      }\n";
    assert_clean(SIM_LIB, transitive);
}

#[test]
fn obs_coverage_only_audits_hot_path_files() {
    // Same loop-bearing pub fn in a non-hot file: out of scope.
    let src = include_str!("fixtures/obs_gap.rs");
    let diags = lint_source("crates/fleet/src/cluster.rs", src);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::ObsCoverage),
        "got {diags:?}"
    );
}

#[test]
fn obs_coverage_allow_silences() {
    let src = "// lint:allow(obs-coverage) pure fold, caller holds the span\n\
               pub fn replay(steps: &[f64]) -> f64 {\n\
               \x20   let mut t = 0.0;\n\
               \x20   for s in steps { t += s; }\n\
               \x20   t\n\
               }\n";
    let diags = lint_source(SIM_LIB, src);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::ObsCoverage),
        "got {diags:?}"
    );
}

// ------------------------------------------------------- const-provenance

#[test]
fn const_provenance_flags_planted_fixture() {
    let src = include_str!("fixtures/const_magic.rs");
    let diags = lint_source(SIM_LIB, src);
    let n = diags
        .iter()
        .filter(|d| d.rule == Rule::ConstProvenance)
        .count();
    assert_eq!(n, 2, "got {diags:?}");
}

#[test]
fn const_provenance_flags_exponent_literals() {
    let src = "pub fn cost() -> f64 { 6.25e-4 }\n";
    let hits = rules_hit(SIM_LIB, src);
    assert!(hits.contains(&Rule::ConstProvenance), "got {hits:?}");
}

#[test]
fn const_provenance_clean_on_round_numbers_and_integers() {
    // ≤2 significant digits, integers, and bit patterns are not "physical
    // constants"; neither are literals outside fn bodies (consts).
    let src = "pub const CALIBRATED: f64 = 273.15;\n\
               pub fn f(x: f64) -> f64 {\n\
               \x20   let scaled = x * 0.5 + 3600.0;\n\
               \x20   let idx = 1024;\n\
               \x20   scaled * 1e-9 + idx as f64\n\
               }\n";
    assert_clean(SIM_LIB, src);
}

#[test]
fn const_provenance_exempt_in_constants_modules_and_non_sim_crates() {
    let src = "pub fn f() -> f64 { 273.15 }\n";
    assert_clean("crates/fleet/src/constants.rs", src);
    assert_clean(CORE_LIB, src);
}

#[test]
fn const_provenance_allow_silences() {
    let src = "pub fn f() -> f64 {\n\
               \x20   // lint:allow(const-provenance) test probe value\n\
               \x20   273.15\n\
               }\n";
    let diags = lint_source(SIM_LIB, src);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::ConstProvenance),
        "got {diags:?}"
    );
}

// ------------------------------------------------------------ test-only-pub

/// A library file defining `used` and `helper`, linted together with
/// `others` (path, source) so the rule can look for callers.
fn test_only_pub_hits(others: &[(&str, &str)]) -> Vec<String> {
    let lib = "pub fn used() -> u32 { 1 }\n\
               pub fn helper() -> u32 { 2 }\n";
    let mut files = vec![("crates/core/src/helpers.rs".to_string(), lib.to_string())];
    files.extend(others.iter().map(|(p, s)| (p.to_string(), s.to_string())));
    xtask::lint_sources(&files)
        .into_iter()
        .filter(|d| d.rule == Rule::TestOnlyPub)
        .map(|d| d.message)
        .collect()
}

const SHIPPED_CALLER: (&str, &str) = ("crates/fleet/src/caller.rs", "fn run() -> u32 { used() }\n");

#[test]
fn test_only_pub_flags_a_fn_only_tests_call() {
    let hits = test_only_pub_hits(&[
        SHIPPED_CALLER,
        (
            "tests/helpers.rs",
            "#[test]\nfn t() { assert_eq!(helper(), 2); }\n",
        ),
    ]);
    assert_eq!(hits.len(), 1, "got {hits:?}");
    assert!(hits[0].contains("`helper`"), "got {hits:?}");
}

#[test]
fn test_only_pub_flags_a_fn_called_only_under_cfg_test() {
    let caller = "fn run() -> u32 { used() }\n\
                  #[cfg(test)]\n\
                  mod tests {\n    #[test]\n    fn t() { assert_eq!(super::helper(), 2); }\n}\n\
                  #[cfg(test)]\n\
                  fn fixture() -> u32 { helper() }\n";
    let hits = test_only_pub_hits(&[("crates/fleet/src/caller.rs", caller)]);
    assert_eq!(hits.len(), 1, "got {hits:?}");
    assert!(hits[0].contains("`helper`"), "got {hits:?}");
}

#[test]
fn test_only_pub_clean_when_an_example_calls_the_fn() {
    let hits = test_only_pub_hits(&[
        SHIPPED_CALLER,
        (
            "examples/demo.rs",
            "fn main() { println!(\"{}\", helper()); }\n",
        ),
    ]);
    assert!(hits.is_empty(), "got {hits:?}");
}

#[test]
fn test_only_pub_allow_silences() {
    let lib = "pub fn used() -> u32 { 1 }\n\
               /// Kept for the reference check.\n\
               // lint:allow(test-only-pub) (a) the reference tests compare against\n\
               pub fn helper() -> u32 { 2 }\n";
    let diags = xtask::lint_sources(&[
        ("crates/core/src/helpers.rs".to_string(), lib.to_string()),
        (SHIPPED_CALLER.0.to_string(), SHIPPED_CALLER.1.to_string()),
    ]);
    assert!(diags.is_empty(), "got {diags:?}");
}

// ---------------------------------------------------------------- fix-allow

#[test]
fn fix_allow_renders_paste_ready_lines() {
    let src = include_str!("fixtures/const_magic.rs");
    let diags = lint_source(SIM_LIB, src);
    assert!(!diags.is_empty());
    let rendered = xtask::render_fix_allow(&diags);
    assert!(
        rendered.contains("crates/fleet/src/sim.rs:"),
        "got {rendered}"
    );
    assert!(
        rendered.contains("// lint:allow(const-provenance) TODO: one-line justification"),
        "got {rendered}"
    );
    // Pasting the rendered comment above the flagged line silences it.
    let mut lines: Vec<String> = src.lines().map(str::to_string).collect();
    lines.insert(
        diags[0].line - 1,
        "    // lint:allow(const-provenance) fixture probe".to_string(),
    );
    let patched = lines.join("\n");
    assert_clean(SIM_LIB, &patched);
}

// ----------------------------------------------------------- stream crate

/// The streaming pipeline is both a SIM crate member and an obs-coverage
/// hot file; the planted router fixture must trip both graph rules there.
const STREAM_PIPELINE: &str = "crates/stream/src/pipeline.rs";

#[test]
fn stream_pipeline_fixture_trips_taint_and_obs_coverage() {
    let src = include_str!("fixtures/stream_gap.rs");
    let hits = rules_hit(STREAM_PIPELINE, src);
    assert!(hits.contains(&Rule::DeterminismTaint), "got {hits:?}");
    assert!(hits.contains(&Rule::ObsCoverage), "got {hits:?}");
}

#[test]
fn stream_fixture_clean_when_ordered_and_instrumented() {
    // The corrected form of the same router: BTreeMap ordering plus span
    // evidence in the drain loop.
    let src = "use std::collections::BTreeMap;\n\
               pub struct ShardRouter {\n\
               \x20   depths: BTreeMap<u64, usize>,\n\
               }\n\
               impl ShardRouter {\n\
               \x20   pub fn drain_backlog(&mut self, o: &Obs) -> usize {\n\
               \x20       let _span = o.span(\"stream.drain\");\n\
               \x20       let mut drained = 0;\n\
               \x20       for (_shard, depth) in self.depths.iter() { drained += depth; }\n\
               \x20       drained\n\
               \x20   }\n\
               }\n";
    assert_clean(STREAM_PIPELINE, src);
}

#[test]
fn stream_graph_rules_scope_to_the_hot_path() {
    // Same source outside the sim crates: neither graph rule fires.
    let src = include_str!("fixtures/stream_gap.rs");
    let diags = lint_source(CORE_LIB, src);
    assert!(
        !diags
            .iter()
            .any(|d| matches!(d.rule, Rule::DeterminismTaint | Rule::ObsCoverage)),
        "got {diags:?}"
    );
    // And in a stream file that is not the pipeline hot file, only the
    // taint rule (crate-wide) applies, not obs-coverage (file-scoped).
    let diags = lint_source("crates/stream/src/queue.rs", src);
    assert!(
        diags.iter().any(|d| d.rule == Rule::DeterminismTaint),
        "got {diags:?}"
    );
    assert!(
        !diags.iter().any(|d| d.rule == Rule::ObsCoverage),
        "got {diags:?}"
    );
}

#[test]
fn stream_crate_bans_nondeterminism_sources() {
    // SIM_CRATES membership also turns on the point determinism rule.
    let src = "fn f() { let _r = rand::thread_rng(); }\n";
    let hits = rules_hit("crates/stream/src/source.rs", src);
    assert!(hits.contains(&Rule::Determinism), "got {hits:?}");
}

// ------------------------------------------------------------- prof crate

/// The profiler aggregates over span trees; its passes must stay
/// layout-independent so a profile of a deterministic run is itself
/// deterministic. SIM_CRATES membership turns the taint rules on.
const PROF_LIB: &str = "crates/prof/src/profile.rs";

#[test]
fn prof_taint_fixture_trips_determinism_taint() {
    let src = include_str!("fixtures/prof_taint.rs");
    let diags = lint_source(PROF_LIB, src);
    let msgs: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::DeterminismTaint)
        .map(|d| d.message.as_str())
        .collect();
    // Both the hash-ordered hotspot ranking and the float fold fire.
    assert_eq!(msgs.len(), 2, "got {diags:?}");
}

#[test]
fn prof_fixture_clean_when_btree_ordered() {
    // The corrected form of the same pass: BTreeMap keys aggregate in name
    // order, so ranking and folding are layout-independent.
    let src = "use std::collections::BTreeMap;\n\
               pub fn hotspots(self_time: &BTreeMap<String, f64>) -> Vec<(String, f64)> {\n\
               \x20   let mut rows: Vec<(String, f64)> = self_time\n\
               \x20       .iter()\n\
               \x20       .map(|(name, micros)| (name.clone(), *micros))\n\
               \x20       .collect();\n\
               \x20   rows.truncate(10);\n\
               \x20   rows\n\
               }\n\
               pub fn total_self(self_time: &BTreeMap<String, f64>) -> f64 {\n\
               \x20   self_time.values().sum::<f64>()\n\
               }\n";
    assert_clean(PROF_LIB, src);
}

#[test]
fn prof_taint_not_enforced_outside_sim_crates() {
    let src = include_str!("fixtures/prof_taint.rs");
    let diags = lint_source(CORE_LIB, src);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::DeterminismTaint),
        "got {diags:?}"
    );
}

#[test]
fn prof_crate_bans_nondeterminism_sources() {
    // Wall-clock reads inside the profiler would silently mix measurement
    // noise into the deterministic work-counter profiles.
    let src = "fn f() { let _t = std::time::Instant::now(); }\n";
    let hits = rules_hit("crates/prof/src/tree.rs", src);
    assert!(hits.contains(&Rule::Determinism), "got {hits:?}");
}

// ------------------------------------------------------- handler registry

/// A simulation's dispatch order is its semantics: a hash-ordered handler
/// registry or cancel set would make a run's side effects layout-dependent.
/// SIM_CRATES membership turns the taint rules on. The fixture is linted
/// under the scheduler, a fleet file outside the obs-coverage hot set.
const SCHEDULER_LIB: &str = "crates/fleet/src/scheduler.rs";

#[test]
fn handler_registry_fixture_trips_determinism_taint() {
    let src = include_str!("fixtures/handler_registry.rs");
    let diags = lint_source(SCHEDULER_LIB, src);
    let msgs: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == Rule::DeterminismTaint)
        .map(|d| d.message.as_str())
        .collect();
    // Both the hash-ordered dispatch sweep and the cancel-set retain fire.
    assert_eq!(msgs.len(), 2, "got {diags:?}");
}

#[test]
fn handler_registry_clean_when_densely_indexed_and_btree_ordered() {
    // The corrected form of the same registry: handlers in a dense vector,
    // the cancel set ordered.
    let src = "use std::collections::BTreeSet;\n\
               pub struct HandlerRegistry {\n\
               \x20   handlers: Vec<Vec<String>>,\n\
               \x20   cancelled: BTreeSet<u64>,\n\
               }\n\
               impl HandlerRegistry {\n\
               \x20   pub fn dispatch_all(&mut self) -> Vec<String> {\n\
               \x20       let mut fired = Vec::new();\n\
               \x20       for names in self.handlers.iter() {\n\
               \x20           fired.extend(names.iter().cloned());\n\
               \x20       }\n\
               \x20       fired\n\
               \x20   }\n\
               \x20   pub fn drop_cancelled(&mut self) -> usize {\n\
               \x20       let dropped = self.cancelled.len();\n\
               \x20       self.cancelled.retain(|seq| *seq == 0);\n\
               \x20       dropped\n\
               \x20   }\n\
               }\n";
    assert_clean(SCHEDULER_LIB, src);
}

#[test]
fn handler_registry_taint_not_enforced_outside_sim_crates() {
    let src = include_str!("fixtures/handler_registry.rs");
    let diags = lint_source(CORE_LIB, src);
    assert!(
        !diags.iter().any(|d| d.rule == Rule::DeterminismTaint),
        "got {diags:?}"
    );
}

#[test]
fn scheduler_bans_nondeterminism_sources() {
    // Ambient randomness in the scheduler would break the same-seed,
    // same-report contract the fleet golden pins.
    let src = "fn f() { let _r = rand::thread_rng(); }\n";
    let hits = rules_hit(SCHEDULER_LIB, src);
    assert!(hits.contains(&Rule::Determinism), "got {hits:?}");
}

#[test]
fn fix_allow_reports_clean_lint() {
    assert!(xtask::render_fix_allow(&[]).contains("clean"));
}
