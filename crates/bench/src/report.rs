//! A minimal column-aligned table type for experiment reports.

use std::fmt;

use fcm_substrate::{Json, ToJson};

/// A column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn push<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let mut row: Vec<String> = row.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows (for assertions in tests).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        Json::object().set("header", self.header.clone()).set(
            "rows",
            Json::Arr(self.rows.iter().map(|r| Json::from(r.clone())).collect()),
        )
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>w$}", w = w)?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.push(["alpha", "1"]);
        t.push(["b", "22222"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines have equal width.
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[1].len(), lines[2].len());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.push(["x"]);
        assert_eq!(t.rows()[0].len(), 3);
    }

    #[test]
    fn json_artifact_round_trips() {
        let mut t = Table::new(["n", "strategy"]);
        t.push(["8", "H1"]);
        t.push(["16", "H2 \"quoted\""]);
        let j = t.to_json();
        let back = Json::parse(&j.to_string_pretty()).expect("parses");
        assert_eq!(back, j);
        let rows = back.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1].as_array().unwrap()[1].as_str(),
            Some("H2 \"quoted\"")
        );
    }
}
