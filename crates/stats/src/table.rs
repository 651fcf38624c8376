//! Plain-text table rendering for experiment output.
//!
//! The experiment binaries print rows shaped like the paper's tables and
//! figures; [`Table`] right-pads columns so the output is readable both on
//! a terminal and when pasted into EXPERIMENTS.md.

use std::fmt;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use lsq_stats::Table;
///
/// let mut t = Table::new(vec!["bench", "ipc"]);
/// t.row(vec!["bzip".into(), "2.50".into()]);
/// let s = t.to_string();
/// assert!(s.contains("bench"));
/// assert!(s.contains("bzip"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows extend the width bookkeeping.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut w = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, width) in w.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == w.len() {
                    writeln!(f, "{cell}")?;
                } else {
                    write!(f, "{cell:<width$}  ")?;
                }
            }
            Ok(())
        };
        write_row(f, &self.header)?;
        let total: usize = w.iter().sum::<usize>() + 2 * w.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(total))?;
        for r in &self.rows {
            write_row(f, r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "x"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "22".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Column 2 starts at the same offset on both data rows.
        let off1 = lines[2].find('1').unwrap();
        let off2 = lines[3].find("22").unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn handles_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "extra".into()]);
        t.row(vec![]);
        let s = t.to_string();
        assert!(s.contains("extra"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn empty_table_has_header_and_rule() {
        let t = Table::new(vec!["only", "header"]);
        assert!(t.is_empty());
        let s = t.to_string();
        assert_eq!(s.lines().count(), 2);
    }
}
