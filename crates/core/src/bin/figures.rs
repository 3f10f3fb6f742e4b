//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release --bin figures                # everything, parallel
//! cargo run --release --bin figures fig8          # one figure
//! cargo run --release --bin figures table2
//! cargo run --release --bin figures -- --scale test
//! cargo run --release --bin figures -- --threads 4
//! cargo run --release --bin figures -- --keep-going
//! ```
//!
//! Every invocation runs the requested matrix through one call of the
//! parallel experiment engine (`run_matrix`), which compiles each distinct
//! module once and simulates the shared 1-issue baseline once, and prints
//! the engine summary on stderr (`--verbose` adds one line per cell).
//! Timing the matrix is the benchmark of record's job (`benchmark/`).
//!
//! By default the engine stops at the first failed cell
//! (`FailurePolicy::FailFast`). `--keep-going` switches it to
//! `FailurePolicy::KeepGoing`, so every healthy cell still runs.
//! Either way a failed run prints the failure report on stderr and the
//! tables of the healthy cells on stdout, and exits nonzero.
//! `--inject-faults` (implies `--keep-going`) appends the two fault
//! fixtures — a compile-stage panic and a cycle-budget buster — to the
//! workload list; CI uses it to prove containment end to end.
//!
//! The durability flags (each implies `--keep-going`):
//!
//! * `--resume DIR` — journal every completed cell to the store directory
//!   `DIR` and reuse journaled cells on a later run, so a killed run
//!   resumes where it left off with bit-identical stats;
//! * `--retries N` — re-run transiently failing cells up to `N` attempts;
//! * `--deadline SECS` — per-cell wall-clock watchdog alongside the cycle
//!   budget;
//! * `--triage DIR` — write a self-contained repro bundle per permanent
//!   failure (replay with `hyperpredc repro`);
//! * `--max-cells N` — stop claiming cells past queue index `N` (chaos
//!   hook: a deterministic "killed mid-run" for the resume tests).

use hyperpred::faults::{cycle_hog_fixture, panic_fixture};
use hyperpred::workloads::Scale;
use hyperpred::{
    branch_table, instruction_table, run_matrix, speedup_table, summarize_run, BenchResult,
    Experiment, FailurePolicy, MatrixConfig, Pipeline, RetryPolicy, Store, TriageConfig,
};
use std::process::ExitCode;
use std::time::Duration;

/// Cycle budget used with `--inject-faults`: far above any test-scale
/// workload (tens of thousands of cycles) and far below the hog fixture
/// (tens of millions), so exactly the injected cell trips it.
const INJECT_MAX_CYCLES: u64 = 2_000_000;

/// The figure and table names the command line accepts.
const FIGURES: [&str; 6] = ["fig8", "fig9", "fig10", "fig11", "table2", "table3"];

struct Options {
    scale: Scale,
    threads: usize,
    verbose: bool,
    keep_going: bool,
    inject_faults: bool,
    resume: Option<String>,
    retries: u32,
    deadline: Option<Duration>,
    triage: Option<String>,
    max_cells: Option<usize>,
    which: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: figures [{} ...] \
         [--scale test|full] [--threads N] [--verbose] \
         [--keep-going] [--inject-faults] \
         [--resume DIR] [--retries N] [--deadline SECS] \
         [--triage DIR] [--max-cells N]",
        FIGURES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, ExitCode> {
    let mut opts = Options {
        scale: Scale::Full,
        threads: 0,
        verbose: false,
        keep_going: false,
        inject_faults: false,
        resume: None,
        retries: 1,
        deadline: None,
        triage: None,
        max_cells: None,
        which: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                opts.scale = match it.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("full") => Scale::Full,
                    _ => return Err(usage()),
                };
            }
            "--threads" => {
                opts.threads = it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?;
            }
            "--verbose" => opts.verbose = true,
            "--keep-going" => opts.keep_going = true,
            "--inject-faults" => {
                opts.inject_faults = true;
                opts.keep_going = true;
            }
            // The durability flags only make sense when partial progress
            // is kept, so each implies --keep-going.
            "--resume" => {
                opts.resume = Some(it.next().ok_or_else(usage)?);
                opts.keep_going = true;
            }
            "--retries" => {
                opts.retries = it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?;
                opts.keep_going = true;
            }
            "--deadline" => {
                // A deadline must be positive and fit a `Duration`; 0, nan,
                // inf or 1e20 is a usage error, not a panic converting it.
                let secs: f64 = it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?;
                let deadline = Duration::try_from_secs_f64(secs).map_err(|_| usage())?;
                if deadline.is_zero() {
                    return Err(usage());
                }
                opts.deadline = Some(deadline);
                opts.keep_going = true;
            }
            "--triage" => {
                opts.triage = Some(it.next().ok_or_else(usage)?);
                opts.keep_going = true;
            }
            "--max-cells" => {
                opts.max_cells = Some(it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?);
                opts.keep_going = true;
            }
            s if FIGURES.contains(&s) => opts.which.push(s.to_string()),
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(c) => return c,
    };
    let all = opts.which.is_empty();
    let wants = |name: &str| all || opts.which.iter().any(|w| w == name);

    // Figure 8's results also provide Tables 2 and 3.
    let need = [
        (
            "fig8",
            Experiment::fig8(),
            wants("fig8") || wants("table2") || wants("table3"),
        ),
        ("fig9", Experiment::fig9(), wants("fig9")),
        ("fig10", Experiment::fig10(), wants("fig10")),
        ("fig11", Experiment::fig11(), wants("fig11")),
    ];
    let selected: Vec<(&str, Experiment)> = need
        .iter()
        .filter(|(_, _, on)| *on)
        .map(|(n, e, _)| (*n, *e))
        .collect();
    let mut exps: Vec<Experiment> = selected.iter().map(|(_, e)| *e).collect();

    let mut pipe = Pipeline::default();
    let mut workloads = hyperpred::workloads::all(opts.scale);
    if opts.inject_faults {
        pipe.fault_injection = true;
        for e in &mut exps {
            e.max_cycles = INJECT_MAX_CYCLES;
        }
        workloads.push(panic_fixture());
        workloads.push(cycle_hog_fixture(4_000_000));
    }
    let journal = match &opts.resume {
        Some(p) => match Store::open(p) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("figures: cannot open journal {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let triage = opts.triage.as_ref().map(TriageConfig::new);
    let run = run_matrix(
        &exps,
        &workloads,
        &pipe,
        &MatrixConfig {
            threads: opts.threads,
            policy: if opts.keep_going {
                FailurePolicy::KeepGoing
            } else {
                FailurePolicy::FailFast
            },
            retry: RetryPolicy {
                max_attempts: opts.retries.max(1),
                backoff: Duration::from_millis(50),
            },
            deadline: opts.deadline,
            journal: journal.as_ref(),
            triage: triage.as_ref(),
            cell_limit: opts.max_cells,
        },
    );
    let summary = summarize_run(&run);
    eprintln!("{}", summary.text);
    if opts.verbose {
        for cell in &run.stats.cells {
            eprintln!("  {cell}");
        }
    }
    // Tables are rendered from the healthy slots only.
    let figures: Vec<Vec<BenchResult>> = run
        .outcomes
        .iter()
        .map(|row| row.iter().filter_map(|o| o.ok().cloned()).collect())
        .collect();

    let mut fig8_results = None;
    for ((name, exp), results) in selected.iter().zip(figures.iter()) {
        if *name == "fig8" {
            fig8_results = Some(results);
        }
        if wants(name) {
            println!("{}", speedup_table(exp, results));
        }
    }
    if let Some(r) = fig8_results {
        if wants("table2") {
            println!("{}", instruction_table(r));
        }
        if wants("table3") {
            println!("{}", branch_table(r));
        }
    }
    if summary.failed {
        eprintln!("figures: run incomplete (failed or unclaimed cells); tables above are partial");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, ExitCode> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    /// Any positive deadline a `Duration` holds is accepted, even one the
    /// clock cannot add to `Instant::now()`: the engine runs that as no
    /// deadline instead of failing every cell.
    #[test]
    fn deadline_takes_any_positive_duration() {
        let opts = parse(&["--deadline", "0.5"]).expect("half a second");
        assert_eq!(opts.deadline, Some(Duration::from_millis(500)));
        let opts = parse(&["--deadline", "1e19"]).expect("1e19 s fits a Duration");
        assert_eq!(opts.deadline, Some(Duration::from_secs_f64(1e19)));
    }

    /// The bare command runs fail-fast; `--inject-faults` and each
    /// durability flag imply `--keep-going`.
    #[test]
    fn durability_flags_imply_keep_going() {
        assert!(!parse(&[]).expect("no arguments").keep_going);
        for args in [
            &["--keep-going"][..],
            &["--inject-faults"],
            &["--resume", "dir"],
            &["--retries", "3"],
            &["--deadline", "5"],
            &["--triage", "dir"],
            &["--max-cells", "10"],
        ] {
            assert!(parse(args).expect("parses").keep_going, "{args:?}");
        }
    }
}
