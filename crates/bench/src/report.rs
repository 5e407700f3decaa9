//! Table rendering for experiment reports: aligned plain text for
//! humans, and TSV/CSV/JSON for machines.
//!
//! Every experiment emits one or more [`Table`]s. The experiment engine
//! (`crate::engine`) turns the collected tables of a run into one JSON
//! and one CSV result file per experiment; standalone callers can also
//! mirror tables to `DIVERSIM_TSV_DIR` as TSV (the legacy plotting
//! hook).
//!
//! The JSON writer is hand-rolled: the workspace builds offline without
//! `serde_json`, so the escaping lives here, in one audited place.

use std::fmt::Write as _;
use std::path::Path;

/// Errors from building a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// A row's cell count did not match the header count.
    RowArityMismatch {
        /// Number of header columns the table was created with.
        expected: usize,
        /// Number of cells in the offending row.
        got: usize,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::RowArityMismatch { expected, got } => {
                write!(
                    f,
                    "row width mismatch: expected {expected} cells, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for ReportError {}

/// Escapes one CSV field per RFC 4180: fields containing a comma, a
/// double quote, or a line break are quoted, and embedded quotes are
/// doubled.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        field.to_string()
    }
}

/// Escapes a string for inclusion inside a JSON string literal
/// (backslash, quote, and control characters below U+0020).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A simple column-aligned table.
///
/// # Examples
///
/// ```
/// use diversim_bench::report::Table;
///
/// let mut t = Table::new("demo", &["x", "y"]);
/// t.row(&["1".into(), "2".into()]);
/// let text = t.render();
/// assert!(text.contains('x'));
/// assert!(text.contains('1'));
/// assert_eq!(t.to_csv(), "x,y\n1,2\n");
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row, or reports the arity mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::RowArityMismatch`] if the cell count
    /// differs from the header count.
    pub fn try_row(&mut self, cells: &[String]) -> Result<(), ReportError> {
        if cells.len() != self.headers.len() {
            return Err(ReportError::RowArityMismatch {
                expected: self.headers.len(),
                got: cells.len(),
            });
        }
        self.rows.push(cells.to_vec());
        Ok(())
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) {
        self.try_row(cells).expect("row width mismatch");
    }

    /// Convenience: appends a row of formatted floats after a string key.
    pub fn row_key_floats(&mut self, key: impl std::fmt::Display, values: &[f64]) {
        let mut cells = vec![key.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.6}")));
        self.row(&cells);
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "── {} ──", self.title);
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "{:<width$}  ", h, width = widths[i]);
        }
        out.push('\n');
        for (i, _) in self.headers.iter().enumerate() {
            let _ = write!(out, "{}  ", "-".repeat(widths[i]));
        }
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[i]);
            }
            out.push('\n');
        }
        out
    }

    /// Renders as TSV (headers + rows).
    pub fn to_tsv(&self) -> String {
        let mut out = self.headers.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Renders as RFC 4180 CSV (headers + rows, escaped).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape_line = |cells: &[String]| {
            cells
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        out.push_str(&escape_line(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&escape_line(row));
            out.push('\n');
        }
        out
    }

    /// Renders as a JSON object `{"title", "headers", "rows"}` (all
    /// cells as strings, escaped).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"title\":\"{}\",", json_escape(&self.title));
        let quoted = |cells: &[String]| {
            cells
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = write!(out, "\"headers\":[{}],", quoted(&self.headers));
        out.push_str("\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{}]", quoted(row));
        }
        out.push_str("]}");
        out
    }

    /// Prints the table to stdout and, if `DIVERSIM_TSV_DIR` is set,
    /// writes `<dir>/<file_stem>.tsv`.
    pub fn emit(&self, file_stem: &str) {
        println!("{}", self.render());
        self.mirror_tsv(file_stem);
    }

    /// Writes `<dir>/<file_stem>.tsv` if `DIVERSIM_TSV_DIR` is set
    /// (without printing).
    pub fn mirror_tsv(&self, file_stem: &str) {
        if let Ok(dir) = std::env::var("DIVERSIM_TSV_DIR") {
            let path = Path::new(&dir).join(format!("{file_stem}.tsv"));
            if let Err(e) = std::fs::write(&path, self.to_tsv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

/// Renders a set of tables as one long-format ("tidy") CSV with the
/// fixed schema `table,row,column,value` — uniform across experiments,
/// so result files can be concatenated and diffed by regression
/// tooling regardless of each table's own columns.
pub fn tables_to_long_csv(tables: &[Table]) -> String {
    let mut out = String::from("table,row,column,value\n");
    for table in tables {
        for (r, row) in table.rows.iter().enumerate() {
            for (header, cell) in table.headers.iter().zip(row) {
                let _ = writeln!(
                    out,
                    "{},{r},{},{}",
                    csv_escape(&table.title),
                    csv_escape(header),
                    csv_escape(cell)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("t", &["key", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-key".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("── t ──"));
        assert!(text.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn row_key_floats_formats() {
        let mut t = Table::new("t", &["n", "a", "b"]);
        t.row_key_floats(4, &[0.5, 0.25]);
        let tsv = t.to_tsv();
        assert!(tsv.contains("4\t0.500000\t0.250000"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn try_row_reports_arity_mismatch() {
        let mut t = Table::new("t", &["a", "b"]);
        let err = t.try_row(&["only-one".into()]).unwrap_err();
        assert_eq!(
            err,
            ReportError::RowArityMismatch {
                expected: 2,
                got: 1
            }
        );
        assert!(err.to_string().contains("expected 2 cells, got 1"));
        assert!(t.is_empty(), "failed row must not be stored");
        assert!(t.try_row(&["x".into(), "y".into()]).is_ok());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tsv_roundtrip_structure() {
        let mut t = Table::new("t", &["h1", "h2"]);
        t.row(&["x".into(), "y".into()]);
        let tsv = t.to_tsv();
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some("h1\th2"));
        assert_eq!(lines.next(), Some("x\ty"));
    }

    #[test]
    fn csv_escapes_quotes_commas_and_newlines() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");

        let mut t = Table::new("t", &["name", "note"]);
        t.row(&["x,y".into(), "he said \"go\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "name,note\n\"x,y\",\"he said \"\"go\"\"\"\n");
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_structure_is_well_formed() {
        let mut t = Table::new("joint \"pfd\"", &["n", "value"]);
        t.row(&["1".into(), "0.5".into()]);
        t.row(&["2".into(), "0.25".into()]);
        let json = t.to_json();
        assert_eq!(
            json,
            "{\"title\":\"joint \\\"pfd\\\"\",\"headers\":[\"n\",\"value\"],\
             \"rows\":[[\"1\",\"0.5\"],[\"2\",\"0.25\"]]}"
        );
    }

    #[test]
    fn long_csv_has_fixed_schema() {
        let mut a = Table::new("first", &["x", "y"]);
        a.row(&["1".into(), "2".into()]);
        let mut b = Table::new("second, part", &["k"]);
        b.row(&["v".into()]);
        let csv = tables_to_long_csv(&[a, b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "table,row,column,value");
        assert_eq!(lines[1], "first,0,x,1");
        assert_eq!(lines[2], "first,0,y,2");
        assert_eq!(lines[3], "\"second, part\",0,k,v");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn empty_table_serialises_cleanly() {
        let t = Table::new("empty", &["a"]);
        assert_eq!(t.to_csv(), "a\n");
        assert_eq!(
            t.to_json(),
            "{\"title\":\"empty\",\"headers\":[\"a\"],\"rows\":[]}"
        );
        assert_eq!(tables_to_long_csv(&[t]), "table,row,column,value\n");
    }
}
