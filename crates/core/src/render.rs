//! Plain-text and CSV rendering of experiment outputs.
//!
//! Every experiment in [`crate::experiments`] produces a [`Table`]; the
//! `figures` harness writes them as CSV into `results/` and prints a
//! short console summary. Keeping the output format this simple avoids
//! pulling plotting dependencies into the workspace — any external tool
//! can render the CSVs.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A rectangular, string-typed result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Identifier, e.g. `fig7` — used as the output file stem.
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each must have `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Self {
            name: name.into(),
            columns: columns.iter().map(|&c| c.to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} does not match {} columns",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (RFC-4180-style quoting for cells containing
    /// commas, quotes or newlines).
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| field(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| field(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Renders as a Markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as fixed-width aligned text for terminal output.
    #[must_use]
    pub fn to_aligned_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            let line: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  ").trim_end());
        };
        render_row(&self.columns, &widths, &mut out);
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }

    /// Writes `<dir>/<name>.csv` atomically (temp file + fsync +
    /// rename), so a crash mid-write never leaves a torn CSV behind.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or writing the
    /// file.
    pub fn write_csv(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(format!("{}.csv", self.name));
        crate::journal::write_atomic(&path, self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// Formats a float with `digits` decimal places (helper for table rows).
#[must_use]
pub fn fnum(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_basics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_row(["x,y", "q\"z"]);
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n1,2\n"));
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"z\""));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn markdown_has_separator() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(["1", "2"]);
        let md = t.to_markdown();
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(["only-one"]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_rejected() {
        let _ = Table::new("demo", &[]);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("vmcw-render-test");
        let mut t = Table::new("unit", &["v"]);
        t.push_row(["42"]);
        let path = t.write_csv(&dir).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "v\n42\n");
    }

    #[test]
    fn aligned_text_pads_columns() {
        let mut t = Table::new("demo", &["name", "v"]);
        t.push_row(["a", "1"]);
        t.push_row(["longer", "22"]);
        let txt = t.to_aligned_text();
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines[0], "name    v");
        assert_eq!(lines[1], "a       1");
        assert_eq!(lines[2], "longer  22");
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(1.0, 0), "1");
    }
}
