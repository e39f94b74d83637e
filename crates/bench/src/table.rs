//! A minimal aligned-text table for figure output.

use std::fmt;

/// A printable table: title, column headers, string rows, and free-form
/// claim lines ("paper: X, measured: Y") appended below.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    claims: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a claim line shown below the table.
    pub fn claim(&mut self, line: impl Into<String>) -> &mut Table {
        self.claims.push(line.into());
        self
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The claim lines.
    pub fn claims(&self) -> &[String] {
        &self.claims
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

/// Length-prefix codec for the cache: every string is a u32 LE length plus
/// UTF-8 bytes; every list is a u32 LE count plus elements.
mod codec {
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    pub fn put_count(out: &mut Vec<u8>, n: usize) {
        out.extend_from_slice(&(n as u32).to_le_bytes());
    }

    /// Bounds-checked reader; every method is an `Option` so truncated or
    /// hostile bytes decode to a miss, never a panic.
    pub struct Reader<'a> {
        rest: &'a [u8],
    }

    impl<'a> Reader<'a> {
        pub fn new(bytes: &'a [u8]) -> Reader<'a> {
            Reader { rest: bytes }
        }

        pub fn take_count(&mut self) -> Option<usize> {
            if self.rest.len() < 4 {
                return None;
            }
            let (head, tail) = self.rest.split_at(4);
            let mut buf = [0u8; 4];
            buf.copy_from_slice(head);
            self.rest = tail;
            Some(u32::from_le_bytes(buf) as usize)
        }

        pub fn take_str(&mut self) -> Option<String> {
            let len = self.take_count()?;
            if self.rest.len() < len {
                return None;
            }
            let (head, tail) = self.rest.split_at(len);
            self.rest = tail;
            String::from_utf8(head.to_vec()).ok()
        }

        pub fn take_strs(&mut self) -> Option<Vec<String>> {
            let n = self.take_count()?;
            (0..n).map(|_| self.take_str()).collect()
        }

        pub fn is_exhausted(&self) -> bool {
            self.rest.is_empty()
        }
    }
}

impl Table {
    /// Serializes the table for the workspace cache.
    pub fn to_cache_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_str(&mut out, &self.title);
        codec::put_count(&mut out, self.headers.len());
        for h in &self.headers {
            codec::put_str(&mut out, h);
        }
        codec::put_count(&mut out, self.rows.len());
        for row in &self.rows {
            codec::put_count(&mut out, row.len());
            for cell in row {
                codec::put_str(&mut out, cell);
            }
        }
        codec::put_count(&mut out, self.claims.len());
        for c in &self.claims {
            codec::put_str(&mut out, c);
        }
        out
    }

    /// Inverse of [`Table::to_cache_bytes`]; `None` on any malformed
    /// input, including trailing bytes and a row whose cell count differs
    /// from the header count (which [`Table::row`] never builds, and which
    /// `Display` could not render).
    pub fn from_cache_bytes(bytes: &[u8]) -> Option<Table> {
        let mut r = codec::Reader::new(bytes);
        let title = r.take_str()?;
        let headers = r.take_strs()?;
        let row_count = r.take_count()?;
        let rows = (0..row_count)
            .map(|_| r.take_strs().filter(|row| row.len() == headers.len()))
            .collect::<Option<Vec<_>>>()?;
        let claims = r.take_strs()?;
        if !r.is_exhausted() {
            return None;
        }
        Some(Table {
            title,
            headers,
            rows,
            claims,
        })
    }
}

impl sustain_cache::CacheValue for Table {
    fn to_cache_bytes(&self) -> Vec<u8> {
        Table::to_cache_bytes(self)
    }

    fn from_cache_bytes(bytes: &[u8]) -> Option<Table> {
        Table::from_cache_bytes(bytes)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let widths = self.widths();
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "  {}", line.join("  "))
        };
        render(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "  {}", rule.join("  "))?;
        for row in &self.rows {
            render(f, row)?;
        }
        for claim in &self.claims {
            writeln!(f, "  * {claim}")?;
        }
        Ok(())
    }
}

/// Formats a float with `digits` decimals (helper for row building).
pub fn num(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["longer-name".into(), "2.5".into()]);
        t.claim("paper: 2x, measured: 2.5x");
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer-name"));
        assert!(s.contains("* paper: 2x"));
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.claims().len(), 1);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn num_formats() {
        assert_eq!(num(1.2345, 2), "1.23");
        assert_eq!(num(1000.0, 0), "1000");
    }

    #[test]
    fn cache_codec_round_trips() {
        let mut t = Table::new("codec", &["k", "v"]);
        t.row(&["a".into(), "1.0".into()]);
        t.row(&["b".into(), "-2.5".into()]);
        t.claim("paper: 2x, measured: 2.5x");
        let bytes = t.to_cache_bytes();
        assert_eq!(Table::from_cache_bytes(&bytes), Some(t.clone()));

        let empty = Table::new("empty", &[]);
        let bytes = empty.to_cache_bytes();
        assert_eq!(Table::from_cache_bytes(&bytes), Some(empty));
    }

    #[test]
    fn cache_codec_rejects_malformed_bytes() {
        let mut t = Table::new("codec", &["k"]);
        t.row(&["cell".into()]);
        let good = t.to_cache_bytes();
        for cut in 0..good.len() {
            assert!(
                Table::from_cache_bytes(&good[..cut]).is_none(),
                "truncated at {cut} must not decode"
            );
        }
        let mut extended = good.clone();
        extended.push(0);
        assert!(Table::from_cache_bytes(&extended).is_none());
        assert!(Table::from_cache_bytes(&[0xff; 3]).is_none());
        let ragged = Table {
            rows: vec![vec!["a".into(), "b".into()]],
            ..t
        };
        assert!(Table::from_cache_bytes(&ragged.to_cache_bytes()).is_none());
    }
}
