//! Plain-text table rendering for the bench binaries.
//!
//! Every experiment binary prints its result as an aligned text table whose
//! rows mirror the corresponding table or figure of the paper, so the output
//! can be compared side by side with the publication.

use serde::{Deserialize, Serialize};

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (shorter rows are padded with empty cells).
    pub fn add_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The rows added so far.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new("Table V style", &["Method", "Geo", "Music-20"]);
        t.add_row(["MultiEM", "6.1s", "34.6s"]);
        t.add_row(["MSCD-HAC", "1.5h", "-"]);
        let text = t.render();
        assert!(text.contains("== Table V style =="));
        assert!(text.contains("Method"));
        let lines: Vec<&str> = text.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        // Columns are aligned: "Geo" column starts at the same offset in both rows.
        let header_pos = lines[1].find("Geo").unwrap();
        let row_pos = lines[3].find("6.1s").unwrap();
        assert_eq!(header_pos, row_pos);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new("", &["a", "b", "c"]);
        t.add_row(["only-one"]);
        assert_eq!(t.rows()[0].len(), 3);
        assert_eq!(t.num_rows(), 1);
        assert!(!t.render().contains("== "));
    }
}
