//! The `paper-matrix` workload: what a researcher runs to regenerate the
//! paper, `figures --scale full --threads 2 --verbose`. Whole runs give
//! the throughput; the per-cell wall times `--verbose` prints give the
//! latency percentiles, since a handful of runs has no tail to speak of.
//!
//! Set-up is the part of a run that is not cell work: a `figures` run
//! whose every cell is already in its journal still starts the process,
//! generates the inputs, starts the engine and prints the tables. The
//! warm-up run writes that journal.

use crate::checks;
use crate::layers;
use crate::procs::{run_figures, FiguresRun};
use crate::report::{Metric, Outcome};
use crate::stats::{median, tail};
use crate::Ctx;
use std::time::Instant;

/// Resumed runs timed for set-up (about 20 ms each).
const SETUP_RUNS: usize = 15;

/// Timed runs made even when they overrun `--seconds`, so the median
/// stands on five runs and the cell percentiles on about a thousand cells.
const MIN_RUNS: usize = 5;

/// `figures` worker threads: the two cores of the machine.
const THREADS: &str = "2";

pub fn scale(quick: bool) -> &'static str {
    if quick {
        "test"
    } else {
        "full"
    }
}

/// The committed tables for `scale`.
pub fn expected(ctx: &Ctx, scale: &str) -> Result<String, String> {
    let path = ctx
        .root
        .join(format!("benchmark/expected/figures_{scale}.txt"));
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Cells one `figures` run computes: each workload's shared baseline plus
/// three models under each of the four figures' machines.
pub fn matrix_cells(quick: bool) -> usize {
    layers::paper_workloads(!quick).len() * (1 + 3 * layers::figures().len())
}

/// Parses a `Duration` as `{:?}` prints it, such as `5.98s`, `12.8ms` or
/// `950.3µs`.
pub fn parse_duration(s: &str) -> Option<f64> {
    let s = s.trim();
    for (suffix, scale) in [("ns", 1e-9), ("µs", 1e-6), ("ms", 1e-3), ("s", 1.0)] {
        if let Some(n) = s.strip_suffix(suffix) {
            return n.parse::<f64>().ok().map(|v| v * scale);
        }
    }
    None
}

/// The wall seconds of every cell `figures --verbose` lists on stderr,
/// one indented line per cell: `  espresso Full Pred.  10.4ms  Figure 8: ...`.
pub fn cell_times(stderr: &str) -> Vec<f64> {
    stderr
        .lines()
        .filter(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().find_map(parse_duration))
        .collect()
}

/// Checks one finished run and counts it.
pub fn judge(out: &mut Outcome, run: &FiguresRun, want: &str) {
    out.attempted += 1;
    let verdict = if run.ok {
        checks::tables(&run.stdout, want)
    } else {
        Err(format!("figures failed: {}", run.stderr.trim()))
    };
    if let Err(e) = verdict {
        out.failed += 1;
        out.error(e);
    }
}

/// What the timed runs measured: each run's wall seconds and peak
/// memory, and every cell's wall seconds.
#[derive(Default)]
struct Timed {
    walls: Vec<f64>,
    rss: Vec<f64>,
    cells: Vec<f64>,
}

impl Timed {
    /// Records a judged run; a run whose cell list is incomplete fails.
    fn add(&mut self, out: &mut Outcome, run: &FiguresRun, cells: usize) {
        let times = cell_times(&run.stderr);
        if times.len() != cells {
            out.failed += 1;
            out.error(format!(
                "figures --verbose listed {} cell times, not {cells}",
                times.len()
            ));
        }
        self.walls.push(run.wall_s);
        self.rss.push(run.peak_rss_mb);
        self.cells.extend(times);
    }
}

/// Plain `figures --verbose` runs until `--seconds` have passed, and at
/// least [`MIN_RUNS`].
fn timed_runs(ctx: &Ctx, out: &mut Outcome, want: &str) -> Result<Timed, String> {
    let mut timed = Timed::default();
    let started = Instant::now();
    while timed.walls.len() < MIN_RUNS || started.elapsed().as_secs_f64() < ctx.seconds {
        let run = run_figures(
            &ctx.bin,
            &["--scale", "full", "--threads", THREADS, "--verbose"],
        )?;
        judge(out, &run, want);
        timed.add(out, &run, matrix_cells(false));
    }
    Ok(timed)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = scale(ctx.quick);
    let want = expected(ctx, scale)?;
    let journal = ctx.out.join("journal.jsonl");
    let journal = journal.to_str().ok_or("scratch path is not UTF-8")?;
    let mut out = Outcome::default();

    let resumed = ["--scale", scale, "--threads", THREADS, "--resume", journal];
    let warm_up = run_figures(&ctx.bin, &[&resumed[..], &["--verbose"]].concat())?;
    judge(&mut out, &warm_up, &want);
    let mut setup = Vec::new();
    for _ in 0..if ctx.quick { 1 } else { SETUP_RUNS } {
        let run = run_figures(&ctx.bin, &resumed)?;
        setup.push(run.wall_s);
        judge(&mut out, &run, &want);
    }

    // A quick run times only its warm-up run.
    let timed = if ctx.quick {
        let mut timed = Timed::default();
        timed.add(&mut out, &warm_up, matrix_cells(true));
        timed
    } else {
        timed_runs(ctx, &mut out, &want)?
    };
    let Timed { walls, rss, cells } = timed;

    let wall = median(&walls).expect("at least one timed run");
    let cell_ms: Vec<f64> = cells.iter().map(|s| s * 1e3).collect();
    let (p99, q) = tail(&cell_ms).ok_or("figures listed no cell times")?;
    out.push(Metric::new(
        "cells_per_s",
        "cells/s",
        matrix_cells(ctx.quick) as f64 / wall,
        walls.len(),
    ));
    out.push(Metric::new(
        "p50_ms",
        "ms",
        median(&cell_ms).unwrap_or(0.0),
        cell_ms.len(),
    ));
    out.push(
        Metric::new("p99_ms", "ms", p99, cell_ms.len()).with_note(format!("p{:.2}", q * 100.0)),
    );
    out.push(Metric::new(
        "setup_s",
        "s",
        median(&setup).unwrap_or(0.0),
        setup.len(),
    ));
    out.push(Metric::new(
        "peak_rss_mb",
        "MB",
        median(&rss).unwrap_or(0.0),
        rss.len(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_and_cell_times_parse_as_figures_prints_them() {
        assert_eq!(parse_duration("12.89ms"), Some(0.01289));
        assert_eq!(parse_duration("3.50µs"), Some(3.5e-6));
        assert_eq!(parse_duration("Move"), None);
        let stderr = "engine: 195 cells in 1.59s on 2 thread(s) (3.18s of cell work)\n\
                      \x20 espresso baseline          4.8ms  shared denominator\n\
                      \x20      li Cond. Move      173.7ms  Figure 8: 8-issue, 1-branch\n\
                      \x20     ear Full Pred.        1.2s  Figure 11: caches\n";
        let got = cell_times(stderr);
        let want = [0.0048, 0.1737, 1.2];
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{g} != {w}");
        }
    }
}
