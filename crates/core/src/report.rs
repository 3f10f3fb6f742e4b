//! Plain-text table formatting for experiment output, and the
//! end-of-run summary of a matrix run.

use crate::matrix::MatrixRun;

/// One row of a report table: a label and its cell values.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (benchmark name, "average", ...).
    pub label: String,
    /// Cell texts, one per column.
    pub cells: Vec<String>,
}

impl Row {
    /// Builds a row from a label and preformatted cells.
    pub fn new(label: impl Into<String>, cells: Vec<String>) -> Row {
        Row {
            label: label.into(),
            cells,
        }
    }
}

/// Renders an aligned plain-text table with a header row.
pub fn format_table(title: &str, headers: &[&str], rows: &[Row]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let mut label_w = "benchmark".len();
    for r in rows {
        label_w = label_w.max(r.label.len());
        for (i, c) in r.cells.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<label_w$}", "benchmark"));
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!("  {h:>w$}"));
    }
    out.push('\n');
    let total = label_w + widths.iter().map(|w| w + 2).sum::<usize>();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<label_w$}", r.label));
        for (c, w) in r.cells.iter().zip(&widths) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
    }
    out
}

/// The end-of-run verdict a matrix driver prints: one text block for
/// stderr and the process's exit decision.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// True iff the process should exit nonzero: some cell permanently
    /// failed, or the run stopped before claiming every cell.
    pub failed: bool,
    /// Human-readable summary (engine counters, the failure report when
    /// nonempty, and resume/partial notes).
    pub text: String,
}

/// Summarizes an engine run: engine counters, the failure
/// report (iff any cell failed), and what that means for the tables and
/// the exit code.
pub fn summarize_run(run: &MatrixRun) -> RunSummary {
    let mut text = run.stats.summary();
    if !run.report.is_empty() {
        text.push('\n');
        text.push_str(&run.report.to_string());
        text.push_str("some cells failed; tables are partial");
    }
    if run.interrupted {
        text.push_str(
            "\nrun interrupted before every cell was claimed; resume from the journal to finish",
        );
    }
    RunSummary {
        failed: !run.report.is_empty() || run.interrupted,
        text,
    }
}

/// Formats a large count the way the paper does (`1526K`, `11225M`).
pub fn human_count(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{}M", v / 1_000_000)
    } else if v >= 10_000 {
        format!("{}K", v / 1_000)
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let rows = vec![
            Row::new("wc", vec!["1.00".into(), "2.70".into()]),
            Row::new("grep", vec!["1.46".into(), "1.91".into()]),
        ];
        let t = format_table("Figure 8", &["Superblock", "Full"], &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "Figure 8");
        assert!(lines[1].contains("Superblock"));
        assert!(lines[3].starts_with("wc"));
        // All data lines have equal length.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn human_counts() {
        assert_eq!(human_count(123), "123");
        assert_eq!(human_count(45_600), "45K");
        assert_eq!(human_count(11_225_000_000), "11225M");
    }

    #[test]
    fn run_summary_pins_exit_semantics() {
        use crate::matrix::{
            CellFailure, EngineStats, FailurePayload, FailureReport, FailureStage, MatrixRun,
        };
        let clean = MatrixRun {
            outcomes: Vec::new(),
            stats: EngineStats::default(),
            report: FailureReport::default(),
            interrupted: false,
        };
        let s = summarize_run(&clean);
        assert!(!s.failed, "clean run exits zero");
        assert!(!s.text.contains("failure report"));

        let failed = MatrixRun {
            report: FailureReport {
                failures: vec![CellFailure {
                    workload: "wc",
                    experiment: "Figure 8",
                    model: None,
                    stage: FailureStage::Compile,
                    payload: FailurePayload::Panic("boom".into()),
                    wall: std::time::Duration::ZERO,
                    attempts: 1,
                }],
            },
            ..clean
        };
        let s = summarize_run(&failed);
        assert!(s.failed, "any permanent failure exits nonzero");
        assert!(s.text.contains("failure report"));
        assert!(s.text.contains("tables are partial"));

        let interrupted = MatrixRun {
            outcomes: Vec::new(),
            stats: EngineStats::default(),
            report: FailureReport::default(),
            interrupted: true,
        };
        let s = summarize_run(&interrupted);
        assert!(s.failed, "an interrupted run exits nonzero");
        assert!(s.text.contains("resume"));
    }
}
