//! Table rendering for experiment reports: aligned plain text for
//! humans, and CSV for machines.
//!
//! Every experiment emits one or more [`Table`]s. The experiment engine
//! (`crate::engine`) turns the collected tables of a run into one JSON
//! result file per experiment, built as a [`crate::json::Value`], and
//! one long-format CSV ([`tables_to_long_csv`]).

use std::fmt::Write as _;

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
    fn csv_escapes_quotes_commas_and_newlines() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");

        let mut t = Table::new("t", &["name", "note"]);
        t.row(&["x,y".into(), "he said \"go\"".into()]);
        let csv = tables_to_long_csv(&[t]);
        assert_eq!(
            csv,
            "table,row,column,value\nt,0,name,\"x,y\"\nt,0,note,\"he said \"\"go\"\"\"\n"
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
        assert_eq!(tables_to_long_csv(&[t]), "table,row,column,value\n");
    }
}
