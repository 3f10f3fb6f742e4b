//! `hyperpredc`'s shared option parser and target resolver, driven
//! through the binary: a zero issue width or branch-slot count is a usage
//! error (exit 2), never the `MachineConfig::new` assert (a panic, exit
//! 101), and so are more branch slots than issue slots and a zero budget
//! or count that would run nothing worth reporting; `run`/`sim`/`dump`
//! take workload names like `lint`, and `sim` divides by the figures'
//! denominator. `figures` takes only the names its usage line lists and
//! deadlines the clock can hold, and prints the expected tables.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hyperpredc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyperpredc"))
        .args(args)
        .output()
        .expect("spawn hyperpredc")
}

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

/// Asserts that each argument list is a usage error before any cell
/// runs: exit 2, the usage line on stderr and no table on stdout.
fn assert_figures_usage_errors(cases: &[&[&str]]) {
    for args in cases {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "figures {args:?}\nstderr:\n{stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

/// A name outside the usage line's six is an error, never silently
/// dropped beside a valid one; `test` is spelled `--scale test`.
#[test]
fn figures_rejects_names_outside_its_usage_line() {
    assert_figures_usage_errors(&[
        &["fig12"],
        &["fig8", "fig12"],
        &["tablexyz", "fig9"],
        &["FIG8"],
        &["test"],
    ]);
}

/// The retired bench flags and malformed values are usage errors.
#[test]
fn figures_rejects_retired_and_malformed_flags() {
    assert_figures_usage_errors(&[
        &["--bench", "1"],
        &["--bench-out", "x.json"],
        &["--bench-baseline", "x.json"],
        &["--threads", "x"],
        &["--threads"],
        &["--scale", "huge"],
    ]);
}

/// A deadline must be positive and fit a `Duration`: never a panic
/// converting it.
#[test]
fn figures_rejects_deadlines_a_duration_cannot_hold() {
    assert_figures_usage_errors(&[
        &["--deadline", "0"],
        &["--deadline", "-1"],
        &["--deadline", "nan"],
        &["--deadline", "inf"],
        &["--deadline", "1e20"],
        &["--deadline"],
    ]);
}

/// The expected test-scale tables, one block per figure or table, each
/// ending in its blank line.
fn expected_test_blocks() -> Vec<String> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../benchmark/expected/figures_test.txt"
    );
    let text = std::fs::read_to_string(path).expect("read expected figures");
    text.split_inclusive("\n\n").map(str::to_string).collect()
}

/// The whole test-scale matrix prints exactly the expected tables.
#[test]
fn figures_test_scale_prints_the_expected_tables() {
    let out = figures(&["--scale", "test"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        expected_test_blocks().concat()
    );
}

/// Named tables print in the matrix's order and nothing else does, even
/// when a table (here Table 2) comes from another figure's cells.
#[test]
fn figures_prints_only_the_named_tables() {
    let out = figures(&["--scale", "test", "table2", "fig9"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected: String = expected_test_blocks()
        .into_iter()
        .filter(|b| b.starts_with("Figure 9:") || b.starts_with("Table 2:"))
        .collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn zero_machine_widths_are_usage_errors() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-widths");
    std::fs::create_dir_all(&dir).expect("create test dir");
    let file = dir.join("t.c");
    std::fs::write(&file, "int main() { return 3; }").expect("write source");
    let file = file.to_str().expect("utf-8 path");

    for (command, target) in [("sim", file), ("lint", "wc"), ("analyze", "wc")] {
        for flag in ["--issue", "--branches"] {
            let out = hyperpredc(&[command, target, flag, "0"]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "hyperpredc {command} {target} {flag} 0\nstderr:\n{stderr}"
            );
            assert!(stderr.contains("usage:"), "{command} {flag} 0: {stderr}");
        }
    }

    // The same flags with legal widths still parse and run.
    let out = hyperpredc(&["sim", file, "--issue", "4", "--branches", "2"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sim_and_dump_take_workload_names() {
    let out = hyperpredc(&["sim", "wc", "--model", "all", "--scale", "test"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let model_lines = stdout.lines().filter(|l| l.contains(" @ 8-issue/1-br: "));
    assert_eq!(model_lines.count(), 3, "{stdout}");

    let out = hyperpredc(&["dump", "wc", "--model", "cmov"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("scheduled for 8-issue"));
}

/// Asserts that each argument list is a `hyperpredc` usage error: exit 2
/// with the usage line on stderr.
fn assert_hyperpredc_usage_errors(cases: &[&[&str]]) {
    for args in cases {
        let out = hyperpredc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "hyperpredc {args:?}\nstderr:\n{stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn zero_budgets_and_counts_are_usage_errors() {
    assert_hyperpredc_usage_errors(&[
        &["soak", "--cells", "1", "--widths", "0x1"],
        &["soak", "--cells", "1", "--max-cycles", "0"],
        &["soak", "--cells", "1", "--fuel", "0"],
        &["bench-load", "--batch", "0"],
        &["bench-load", "--cells", "0"],
        &["fsck"],
        &["fsck", "--repair"],
    ]);
}

/// A machine with more branch slots than issue slots is one the daemon
/// refuses (`CellRequest::validate`), so no subcommand runs it either,
/// whichever order the flags come in.
#[test]
fn more_branch_slots_than_issue_slots_are_usage_errors() {
    assert_hyperpredc_usage_errors(&[
        &["run", "wc", "--issue", "2", "--branches", "3"],
        &["sim", "wc", "--branches", "3", "--issue", "2"],
        &["dump", "wc", "--issue", "2", "--branches", "3"],
        &["lint", "wc", "--issue", "2", "--branches", "3"],
        &["analyze", "wc", "--issue", "2", "--branches", "3"],
        &["sim", "wc", "--branches", "9"],
        &["bench-load", "--issue", "2", "--branches", "3"],
        &["soak", "--cells", "1", "--widths", "2x9"],
        &["soak", "--cells", "1", "--widths", "1x1,2x3"],
    ]);
}

/// The speedup denominator is the paper's, the 1-issue superblock on
/// perfect memory, so `--caches` on Figure 11's machine prints Figure
/// 11's `wc` row rather than dividing by a cached baseline.
#[test]
fn sim_with_caches_prints_figure_11_speedups() {
    let out = hyperpredc(&[
        "sim",
        "wc",
        "--model",
        "all",
        "--issue",
        "8",
        "--branches",
        "1",
        "--caches",
        "--scale",
        "test",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.starts_with("baseline (1-issue superblock): 33213 cycles,"),
        "{stdout}"
    );
    let speedups: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.rsplit_once("speedup ").map(|(_, s)| s))
        .collect();
    assert_eq!(speedups, ["1.31", "2.34", "2.60"], "{stdout}");
}
