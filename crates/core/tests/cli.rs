//! `hyperpredc`'s shared option parser and target resolver, driven
//! through the binary: a zero issue width or branch-slot count is a usage
//! error (exit 2), never the `MachineConfig::new` assert (a panic, exit
//! 101), and so is a zero budget or count that would run nothing worth
//! reporting; `run`/`sim`/`dump` take workload names like `lint`, and
//! `sim` divides by the figures' denominator.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hyperpredc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hyperpredc"))
        .args(args)
        .output()
        .expect("spawn hyperpredc")
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

#[test]
fn zero_budgets_and_counts_are_usage_errors() {
    for args in [
        &["soak", "--cells", "1", "--widths", "0x1"][..],
        &["soak", "--cells", "1", "--max-cycles", "0"],
        &["soak", "--cells", "1", "--fuel", "0"],
        &["bench-load", "--batch", "0"],
        &["bench-load", "--cells", "0"],
        &["fsck"],
        &["fsck", "--repair"],
    ] {
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
