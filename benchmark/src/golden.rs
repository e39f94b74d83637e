//! Committed fingerprints of the default-seed reports.
//!
//! Each workload's warm-up op runs at [`crate::measure::DEFAULT_SEED`] and
//! must reproduce the fingerprint committed in `golden/fingerprints.txt`
//! (one `<name> <hex>` line per report), so every run, whatever its
//! `--seed`, also proves the program still computes the same reports.
//! Regenerate the file with `benchmark golden > golden/fingerprints.txt`
//! — only when a change to the reports is intended.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Fingerprint of a serializable report: FNV-1a over its compact JSON.
pub fn fingerprint<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    // The shim's serializer is infallible; an empty encoding would only
    // make the golden check fail, never pass.
    let json = serde_json::to_string(value).unwrap_or_default();
    sustain_cache::fnv1a(json.as_bytes())
}

/// A set of named fingerprints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden {
    entries: BTreeMap<String, u64>,
}

impl Golden {
    /// The directory holding the committed fingerprints.
    pub fn committed_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
    }

    /// Loads `fingerprints.txt` from `dir`.
    pub fn load(dir: &Path) -> Result<Golden, String> {
        let path = dir.join("fingerprints.txt");
        let text = std::fs::read_to_string(&path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        Golden::parse(&text)
    }

    /// Parses `<name> <hex>` lines; blank lines and `#` comments are
    /// skipped.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut entries = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed golden line `{line}`"))?;
            let value = u64::from_str_radix(hex.trim(), 16)
                .map_err(|err| format!("bad fingerprint in `{line}`: {err}"))?;
            entries.insert(name.to_owned(), value);
        }
        Ok(Golden { entries })
    }

    /// Records a fingerprint.
    pub fn insert(&mut self, name: &str, value: u64) {
        self.entries.insert(name.to_owned(), value);
    }

    /// `Ok` if `name` is committed with exactly `value`.
    pub fn check(&self, name: &str, value: u64) -> Result<(), String> {
        match self.entries.get(name) {
            Some(&expected) if expected == value => Ok(()),
            Some(&expected) => Err(format!(
                "golden `{name}`: fingerprint {value:016x}, committed {expected:016x}"
            )),
            None => Err(format!("golden `{name}` is not committed")),
        }
    }

    /// The text of `fingerprints.txt`: a comment header, then the
    /// `<name> <hex>` lines [`Golden::parse`] reads.
    pub fn render(&self) -> String {
        let header = "# FNV-1a over the compact JSON of each workload's default-seed (seed 1)\n\
                      # reports; every run's warm-up op must reproduce them. Regenerate with\n\
                      # `benchmark golden` only when a change to the reports is intended.\n";
        let lines = self
            .entries
            .iter()
            .map(|(name, value)| format!("{name} {value:016x}\n"));
        std::iter::once(header.to_owned()).chain(lines).collect()
    }
}
