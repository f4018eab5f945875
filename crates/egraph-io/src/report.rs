//! Benchmark report tables.
//!
//! The benchmark harness regenerates the paper's Figure 5 as a *series* —
//! edge count versus measured run time — rather than as a plot. This module
//! holds the small table type used to print such series consistently, both
//! as an aligned text table (for the terminal) and as CSV
//! (for plotting elsewhere).

use std::fmt::Write as _;

/// A rectangular table of measurement results.
#[derive(Clone, Debug, Default)]
pub struct SeriesTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl SeriesTable {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        SeriesTable {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    /// Panics if the cell count does not match the number of columns.
    pub fn push_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match the header"
        );
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of numeric cells, formatted with sensible defaults
    /// (integers as-is, floats with four significant decimals).
    pub fn push_numeric_row(&mut self, cells: &[f64]) {
        let formatted: Vec<String> = cells
            .iter()
            .map(|&x| {
                if (x.fract()).abs() < f64::EPSILON && x.abs() < 1e15 {
                    format!("{}", x as i64)
                } else {
                    format!("{x:.4}")
                }
            })
            .collect();
        self.push_row(&formatted);
    }

    /// Renders an aligned, human-readable text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", rule.join("  "));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders the table as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Fits `y ≈ a·x + b` by least squares and returns `(a, b, r²)`. The Figure 5
/// reproduction uses this to check that run time is (close to) linear in the
/// number of static edges.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = mean_y - slope * mean_x;
    let r2 = if sxx == 0.0 || syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    (slope, intercept, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_is_aligned_and_complete() {
        let mut t = SeriesTable::new("demo", &["edges", "time_ms"]);
        t.push_numeric_row(&[1000.0, 1.5]);
        t.push_numeric_row(&[2000.0, 3.25]);
        let text = t.to_text();
        assert!(text.contains("## demo"));
        assert!(text.contains("edges"));
        assert!(text.contains("1000"));
        assert!(text.contains("3.2500"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn csv_rendering_has_header_plus_rows() {
        let mut t = SeriesTable::new("", &["a", "b"]);
        t.push_row(&["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert_eq!(csv.lines().next().unwrap(), "a,b");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_are_rejected() {
        let mut t = SeriesTable::new("", &["a", "b"]);
        t.push_row(&["only one".into()]);
    }

    #[test]
    fn linear_fit_recovers_exact_lines() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0]; // y = 2x + 1
        let (a, b, r2) = linear_fit(&xs, &ys);
        assert!((a - 2.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_reports_poor_r2_for_nonlinear_data() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 16.0, 3.0, 44.0, 2.0];
        let (_, _, r2) = linear_fit(&xs, &ys);
        assert!(r2 < 0.9);
    }
}
