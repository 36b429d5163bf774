//! Plain-text table formatting for the experiment binaries.
//!
//! The experiment harness prints the same rows and series the paper's
//! tables and figures report; this module keeps that formatting in one
//! place so every binary produces consistent output.

use serde::Serialize;

/// One row of an experiment table: a label plus named numeric cells.
#[derive(Debug, Clone, Serialize)]
pub struct TableRow {
    /// Row label (e.g. a dataset or a parameter value).
    pub(crate) label: String,
    /// `(column name, value)` pairs in display order.
    pub(crate) cells: Vec<(String, f64)>,
}

impl TableRow {
    /// Creates a row with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        TableRow {
            label: label.into(),
            cells: Vec::new(),
        }
    }

    /// Appends one cell.
    pub fn cell(mut self, name: impl Into<String>, value: f64) -> Self {
        self.cells.push((name.into(), value));
        self
    }
}

/// Formats rows as an aligned plain-text table with a title line.
///
/// The columns are every row's, in the order they first appear; a missing
/// cell, and a non-finite one (a quantity nothing measured), is rendered
/// as `-`.
pub fn format_table(title: &str, rows: &[TableRow]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if rows.is_empty() {
        out.push_str("(no rows)\n");
        return out;
    }
    let mut columns: Vec<&str> = Vec::new();
    for (name, _) in rows.iter().flat_map(|r| &r.cells) {
        if !columns.contains(&name.as_str()) {
            columns.push(name);
        }
    }
    let label_width = rows
        .iter()
        .map(|r| r.label.len())
        .chain(std::iter::once("".len()))
        .max()
        .unwrap_or(0)
        .max(12);
    let col_width = columns.iter().map(|c| c.len()).max().unwrap_or(8).max(12);

    // Header.
    out.push_str(&format!("{:<label_width$}", ""));
    for c in &columns {
        out.push_str(&format!(" | {c:>col_width$}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(label_width + columns.len() * (col_width + 3)));
    out.push('\n');

    for row in rows {
        out.push_str(&format!("{:<label_width$}", row.label));
        for c in &columns {
            match row.cells.iter().find(|(n, _)| n == c) {
                Some((_, v)) => out.push_str(&format!(" | {:>col_width$}", format_number(*v))),
                None => out.push_str(&format!(" | {:>col_width$}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Human-friendly number formatting: integers stay integral, small values
/// keep four significant decimals.
fn format_number(v: f64) -> String {
    if !v.is_finite() {
        return "-".to_owned();
    }
    if (v.fract()).abs() < 1e-9 && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_builder_accumulates_cells() {
        let row = TableRow::new("Dx3syn")
            .cell("avg K (s)", 1.5)
            .cell("phi", 97.0);
        assert_eq!(row.label, "Dx3syn");
        assert_eq!(row.cells.len(), 2);
        assert_eq!(row.cells[0].0, "avg K (s)");
    }

    #[test]
    fn table_formatting_is_aligned_and_complete() {
        let rows = vec![
            TableRow::new("Gamma=0.9")
                .cell("avg K (s)", 0.25)
                .cell("Phi(G) %", 100.0),
            TableRow::new("Gamma=0.999")
                .cell("avg K (s)", 12.0)
                .cell("Phi(G) %", 96.5),
        ];
        let text = format_table("Fig. 7 — effectiveness", &rows);
        assert!(text.contains("Fig. 7"));
        assert!(text.contains("avg K (s)"));
        assert!(text.contains("Gamma=0.999"));
        assert!(text.contains("0.2500"));
        assert!(text.contains("96.5"));
        // Every data line has the same number of separators.
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let seps: Vec<usize> = lines
            .iter()
            .filter(|l| l.contains('|'))
            .map(|l| l.matches('|').count())
            .collect();
        assert!(seps.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn empty_table_and_missing_cells() {
        assert!(format_table("empty", &[]).contains("(no rows)"));
        let rows = vec![
            TableRow::new("a").cell("x", 1.0).cell("y", 2.0),
            TableRow::new("b").cell("x", 3.0),
        ];
        let text = format_table("t", &rows);
        assert!(text.contains(" -"));
    }

    #[test]
    fn columns_come_from_every_row_in_first_seen_order() {
        let rows = vec![
            TableRow::new("a").cell("x", 1.0).cell("y", f64::NAN),
            TableRow::new("b").cell("y", 2.0).cell("z", 3.0),
        ];
        let text = format_table("t", &rows);
        let lines: Vec<&str> = text.lines().collect();
        let cells =
            |line: &str| -> Vec<String> { line.split('|').map(|c| c.trim().to_owned()).collect() };
        assert_eq!(cells(lines[1]), ["", "x", "y", "z"]);
        assert_eq!(cells(lines[3]), ["a", "1", "-", "-"]);
        assert_eq!(cells(lines[4]), ["b", "-", "2", "3"]);
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(0.12345), "0.1235"); // rounded to 4 decimals
        assert_eq!(format_number(123.456), "123.5");
        assert_eq!(format_number(f64::NAN), "-");
        assert_eq!(format_number(f64::INFINITY), "-");
    }
}
