//! Experiment tables: the uniform output format of examples and the
//! reproduction harness.

use std::fmt;

/// A simple column-oriented results table with a markdown renderer.
///
/// ```
/// use mns_core::report::Table;
/// let mut t = Table::new("E0", "demo", &["n", "value"]);
/// t.row(&["1", "3.5"]);
/// let md = t.to_markdown();
/// assert!(md.contains("| n | value |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment identifier (e.g. "E3").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows
            .push(cells.iter().map(|c| (*c).to_owned()).collect());
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a GitHub-flavoured markdown table with a heading.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

/// Formats a float compactly for table cells (3 significant decimals,
/// stripping trailing zeros).
pub fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        let s = format!("{x:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_round_trip_shape() {
        let mut t = Table::new("E9", "lifetime", &["protocol", "first death"]);
        t.row(&["direct", "196"]);
        t.row_owned(vec!["cluster".into(), "257".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### E9 — lifetime"));
        assert_eq!(md.matches('\n').count(), 6);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.to_string(), md);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("X", "x", &["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(3.0), "3");
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(1000.0), "1000");
    }
}
