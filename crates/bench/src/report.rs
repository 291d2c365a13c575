//! Table formatting shared by the experiments.
//!
//! Every experiment prints (a) the paper's reported value, (b) the
//! measured value, and (c) enough distribution detail to judge the match.
//! `exp all --write` concatenates these tables into
//! `EXPERIMENTS_RESULTS.md`.

use simba_sim::Summary;
use std::fmt::Write as _;

/// A plain-text table with aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are stringified already).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience: appends a row of `&str`s.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let render = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", line.join("  ").trim_end());
        };
        render(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "  {}", "-".repeat(total));
        for row in &self.rows {
            render(row, &mut out);
        }
        out
    }

    /// Prints the text rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.to_text());
    }
}

/// Formats seconds with two decimals.
pub fn secs(v: f64) -> String {
    format!("{v:.2} s")
}

/// Formats a [`Summary`] as `mean / p50 / p95` seconds.
pub fn dist(summary: &Summary) -> String {
    let mut s = summary.clone();
    format!(
        "{:.2} / {:.2} / {:.2} s",
        s.mean(),
        s.percentile(50.0),
        s.percentile(95.0)
    )
}

/// Formats a measurement with its paper target, e.g. `9 (paper: 9)`.
pub fn versus(measured: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    format!("{measured} (paper: {paper})")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Latency", &["stage", "mean"]);
        t.row_str(&["one-way", "0.45 s"]);
        t.row(&["ack".to_string(), secs(1.5)]);
        t
    }

    #[test]
    fn text_rendering_aligns() {
        let text = sample().to_text();
        assert!(text.contains("== Latency =="));
        assert!(text.contains("one-way  0.45 s"));
        assert!(text.contains("ack      1.50 s"));
    }

    #[test]
    fn text_rendering_measures_headers_in_chars_like_cells() {
        // "≤" is one char, three bytes: a byte-measured header makes its
        // column and the rule two too wide.
        let mut t = Table::new("A1b", &["seen ≤5 min", "msgs"]);
        t.row_str(&["37.2 %", "2.60"]);
        t.row_str(&["25.2 %", "2.50"]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let column = |line: &str, cell: &str| {
            let at = line.find(cell).expect("second column present");
            line[..at].chars().count()
        };
        let widths = "seen ≤5 min".chars().count() + "msgs".len();
        assert_eq!(column(lines[0], "msgs"), 2 + 11 + 2);
        assert_eq!(column(lines[2], "2.60"), 2 + 11 + 2);
        assert_eq!(column(lines[3], "2.50"), 2 + 11 + 2);
        assert_eq!(lines[1].trim(), "-".repeat(widths + 2 * 2));
    }

    #[test]
    fn markdown_rendering_is_valid_gfm() {
        let md = sample().to_markdown();
        assert!(md.starts_with("### Latency"));
        assert!(md.contains("| stage | mean |"));
        assert!(md.contains("|---|---|"));
        assert_eq!(md.matches('\n').count(), 6);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_validated() {
        Table::new("x", &["a", "b"]).row_str(&["only-one"]);
    }

    #[test]
    fn helpers() {
        assert_eq!(secs(1.234), "1.23 s");
        assert_eq!(versus(36, 36), "36 (paper: 36)");
        let mut s = Summary::new();
        s.observe(1.0);
        s.observe(2.0);
        assert!(dist(&s).contains("1.50"));
        assert!(!sample().is_empty());
        assert_eq!(sample().len(), 2);
    }
}
