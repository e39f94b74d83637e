//! Differential correctness suite for `sustain-cache`: caching must be
//! *invisible* in the figure bytes.
//!
//! Three runs of the full figure fan-out — cold (every entry computed),
//! warm (every entry served), and poisoned (one stored entry corrupted on
//! disk between runs) — must be byte-identical on stdout, at 1 and 4
//! threads, and must match the checked-in `figures_output.txt` golden. A
//! poisoned entry degrades to a miss and is recomputed and repaired, never
//! a panic and never a wrong byte.

use std::path::{Path, PathBuf};

use sustainai::cache::Cache;
use sustainai::par::ParPool;

use sustain_bench::figs;

/// The exact bytes `all_figures` writes to stdout for the figure
/// catalogue, generated on `pool` through `cache`.
fn render(pool: &ParPool, cache: Option<&Cache>) -> String {
    figs::fan_out(pool, &figs::catalogue(), cache)
        .iter()
        .map(|table| format!("{table}\n"))
        .collect()
}

fn golden() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/figures_output.txt"))
        .expect("figures_output.txt at the workspace root")
}

/// A per-test scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> ScratchDir {
        let dir =
            std::env::temp_dir().join(format!("sustain-cache-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every `figure-*.bin` entry file under `dir`, sorted for determinism.
fn figure_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir listable")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("figure-") && name.ends_with(".bin")
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn cold_warm_and_poisoned_runs_are_byte_identical() {
    let scratch = ScratchDir::new("differential");
    let golden = golden();

    // Cold: nothing stored yet, every figure computed and persisted.
    let cold_cache = Cache::at_dir(scratch.path()).expect("open cache dir");
    let cold = render(&ParPool::new(1), Some(&cold_cache));
    assert_eq!(cold, golden, "cold cached run drifted from the golden");
    let figures = cold_cache.misses();
    assert!(figures > 0, "cold run must populate the cache");
    assert_eq!(cold_cache.hits(), 0, "a fresh directory cannot hit");

    // Warm: a fresh handle on the same directory serves every figure from
    // disk. 4 threads, so hits also cross the pool's task forks.
    let warm_cache = Cache::at_dir(scratch.path()).expect("open cache dir");
    let warm = render(&ParPool::new(4), Some(&warm_cache));
    assert_eq!(warm, cold, "warm bytes drifted from cold bytes");
    assert_eq!(
        (warm_cache.hits(), warm_cache.misses()),
        (figures, 0),
        "every figure of the warm run must be served from cache"
    );

    // Poison: flip one byte in the middle of one stored entry's payload.
    // The store's checksum must reject it — a miss, then recompute + repair.
    let entries = figure_entries(scratch.path());
    assert_eq!(entries.len() as u64, figures, "one entry file per figure");
    let victim = &entries[entries.len() / 2];
    let mut bytes = std::fs::read(victim).expect("read entry");
    let flip_at = bytes.len() / 2;
    bytes[flip_at] ^= 0x01;
    std::fs::write(victim, &bytes).expect("write poisoned entry");

    let poisoned_cache = Cache::at_dir(scratch.path()).expect("open cache dir");
    let poisoned = render(&ParPool::new(1), Some(&poisoned_cache));
    assert_eq!(poisoned, cold, "poisoned-entry run drifted from cold bytes");
    assert_eq!(
        (poisoned_cache.hits(), poisoned_cache.misses()),
        (figures - 1, 1),
        "exactly the poisoned entry must degrade to a miss"
    );

    // The recompute repaired the entry in place: a final fresh handle hits
    // everything again, at 4 threads.
    let repaired_cache = Cache::at_dir(scratch.path()).expect("open cache dir");
    let repaired = render(&ParPool::new(4), Some(&repaired_cache));
    assert_eq!(repaired, cold);
    assert_eq!(
        (repaired_cache.hits(), repaired_cache.misses()),
        (figures, 0)
    );
}

#[test]
fn in_memory_cache_is_invisible_across_thread_counts() {
    let uncached = render(&ParPool::new(1), None);
    let cache = Cache::in_memory();
    for threads in [1, 4] {
        let cold_or_warm = render(&ParPool::new(threads), Some(&cache));
        assert_eq!(
            cold_or_warm, uncached,
            "cached bytes drifted at {threads} threads"
        );
    }
    let figures = cache.misses();
    assert!(figures > 0);
    assert_eq!(
        cache.hits(),
        figures,
        "the second pass must be served entirely from memory"
    );
    assert_eq!(uncached, golden());
}

#[test]
fn unwritable_cache_directory_fails_open_not_late() {
    // A path that collides with an existing *file* cannot become a cache
    // directory; `Cache::at_dir` must surface that immediately instead of
    // degrading mid-run.
    let scratch = ScratchDir::new("unwritable");
    std::fs::create_dir_all(scratch.path()).expect("scratch dir");
    let file_path = scratch.path().join("occupied");
    std::fs::write(&file_path, b"not a directory").expect("placeholder file");
    assert!(Cache::at_dir(&file_path).is_err());
}
