//! Shared helpers for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see DESIGN.md §4 for the index); `all_experiments` runs
//! the full suite. The helpers here provide consistent table formatting and
//! the scaled workload-model configurations shared across experiments.

use fqos_traces::models::exchange::ExchangeConfig;
use fqos_traces::models::tpce::TpceConfig;
use fqos_traces::Trace;

/// A plain-text/markdown table printer.
#[derive(Debug, Default)]
pub struct TableBuilder {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableBuilder {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TableBuilder {
            header: header
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
        self
    }

    /// Render as a markdown-style table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}", w = w))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Format milliseconds with 3 decimals.
pub fn ms(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// The Exchange workload at experiment scale (full 96 intervals).
pub fn exchange_trace() -> Trace {
    fqos_traces::models::exchange(ExchangeConfig::default()).generate()
}

/// The TPC-E workload at experiment scale (6 parts).
pub fn tpce_trace() -> Trace {
    fqos_traces::models::tpce(TpceConfig::default()).generate()
}

/// Standard experiment banner.
pub fn banner(id: &str, paper_ref: &str, what: &str) {
    println!("\n=== {id} — {paper_ref} ===");
    println!("{what}\n");
}

/// Write experiment data as CSV under `results/` (for external plotting).
/// Silently no-ops if the directory cannot be created (e.g. read-only CI).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    let _ = std::fs::write(dir.join(format!("{name}.csv")), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TableBuilder::new(&["a", "long-header"]);
        t.row(&["x".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(0.132507), "0.133");
        assert_eq!(pct(7.25), "7.2%");
    }
}
