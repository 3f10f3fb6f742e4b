//! The benchmark of record for hyperpred.
//!
//! ```text
//! bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! bench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! `run` builds `figures` and `hyperpredd` from the repository, runs each
//! workload named in `BENCHMARK.json` (or only `--workload`), checks every
//! output, and prints each workload's metrics with units and sample
//! counts, then one JSON result line. Every measured phase lasts
//! `run_seconds` from `BENCHMARK.json`; `--seconds` may only repeat that
//! value, so results of one commit never mix run lengths. `--trace 1` runs the traced replay
//! instead and reports the per-layer metrics, writing its spans to
//! `benchmark/out/trace-<workload>-seed<N>.json`. `--quick` is a smoke run
//! of every output check on small inputs. `--out FILE` appends each
//! result line, tagged with workload, seed and mode, for `compare`.
//! The exit code is nonzero when any output check fails.

mod checks;
mod compare;
mod json;
mod layers;
mod paper;
mod procs;
mod report;
mod service;
mod stats;
mod trace;
mod traced;
mod wire;

use checks::Consistency;
use json::Json;
use report::Outcome;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What every workload run needs.
pub struct Ctx {
    /// The repository root (the parent of this crate).
    pub root: PathBuf,
    /// Where the built `figures` and `hyperpredd` live.
    pub bin: PathBuf,
    /// A scratch directory for this workload run, removed afterwards.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: bench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] \
     [--out FILE]\n       bench compare PARENT.jsonl CHANGE.jsonl"
        .to_string()
}

fn parse_run_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(a)
}

/// The repository root: this crate lives in `<root>/benchmark`.
fn repo_root() -> Result<PathBuf, String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here.parent().ok_or("crate has no parent directory")?;
    if !root.join("crates/core").is_dir() {
        return Err(format!(
            "{} is not the hyperpred repository",
            root.display()
        ));
    }
    Ok(root.to_path_buf())
}

/// The repository root and its parsed `BENCHMARK.json`.
fn spec() -> Result<(PathBuf, Json), String> {
    let root = repo_root()?;
    let path = root.join("BENCHMARK.json");
    let spec = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading {}: {e}", path.display()))
        .and_then(|t| Json::parse(&t))?;
    Ok((root, spec))
}

fn names(list: Option<&Json>, key: &str) -> Vec<String> {
    list.and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get(key).and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Runs one workload, untraced or traced.
fn run_workload(
    ctx: &Ctx,
    workload: &str,
    trace: bool,
    seen: &mut Consistency,
) -> Result<Outcome, String> {
    if trace {
        let (out, tracer) = traced::run(ctx, workload)?;
        let path = traced::trace_path(&ctx.root, workload, ctx.seed);
        std::fs::write(&path, tracer.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display());
        return Ok(out);
    }
    match workload {
        "paper-matrix" => paper::run(ctx),
        "service-cold" => service::run(ctx, service::Kind::Cold, seen),
        "service-warm" => service::run(ctx, service::Kind::Warm, seen),
        other => Err(format!("unknown workload {other}")),
    }
}

fn run(args: Args) -> Result<bool, String> {
    let (root, spec) = spec()?;
    let all = names(spec.get("workloads"), "name");
    let selected: Vec<String> = match &args.workload {
        Some(w) if all.contains(w) => vec![w.clone()],
        Some(w) => {
            return Err(format!(
                "unknown workload {w}; BENCHMARK.json names {all:?}"
            ))
        }
        None => all,
    };
    let wanted = names(
        spec.get(if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        }),
        "name",
    );
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_i64)
        .and_then(|s| u64::try_from(s).ok())
        .ok_or("BENCHMARK.json has no run_seconds")?;
    if args.seconds.is_some_and(|s| s != seconds) {
        return Err(format!(
            "--seconds must be BENCHMARK.json's run_seconds, {seconds}"
        ));
    }
    let bin = procs::build(&root)?;
    std::fs::create_dir_all(root.join("benchmark/out")).map_err(|e| e.to_string())?;

    let mut seen = Consistency::default();
    let mut all_correct = true;
    for workload in &selected {
        let ctx = Ctx {
            root: root.clone(),
            bin: bin.clone(),
            out: root.join(format!("benchmark/out/{workload}-{}", std::process::id())),
            seed: args.seed,
            seconds: seconds as f64,
            quick: args.quick,
        };
        let _ = std::fs::remove_dir_all(&ctx.out);
        std::fs::create_dir_all(&ctx.out)
            .map_err(|e| format!("creating {}: {e}", ctx.out.display()))?;
        let result = run_workload(&ctx, workload, args.trace, &mut seen);
        let _ = std::fs::remove_dir_all(&ctx.out);
        let mut out = result?;
        let got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        if got != wanted {
            out.error(format!(
                "reported metrics {got:?} differ from BENCHMARK.json's {wanted:?}"
            ));
        }
        all_correct &= out.correct();
        print!("{}", out.table(workload));
        println!("{}", out.json());
        if let Some(path) = &args.out {
            // The result object with the run's tags in front.
            let line = format!(
                "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},\"quick\":{},{}",
                args.seed,
                args.trace,
                args.quick,
                &out.json()[1..]
            );
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            writeln!(f, "{line}").map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    Ok(all_correct)
}

fn compare_files(parent: &str, change: &str) -> Result<bool, String> {
    let (_, spec) = spec()?;
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {p}: {e}"))
            .and_then(|t| compare::read_runs(&t).map_err(|e| format!("{p}: {e}")))
    };
    let regressed = compare::compare(&read(parent)?, &read(change)?, &compare::bounds(&spec)?);
    Ok(!regressed)
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1);
    let result = match it.next().as_deref() {
        Some("run") => parse_run_args(it).and_then(run),
        Some("compare") => match (it.next(), it.next(), it.next()) {
            (Some(p), Some(c), None) => compare_files(&p, &c),
            _ => Err(usage()),
        },
        _ => Err(usage()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each metric `BENCHMARK.json` lists under `key`.
    pub fn listed(key: &str) -> Vec<(String, String)> {
        let spec =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| {
            m.get(k)
                .and_then(Json::as_str)
                .expect("name and unit")
                .to_string()
        };
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_end_to_end_metrics() {
        let want = [
            ("cells_per_s", "cells/s"),
            ("p50_ms", "ms"),
            ("p99_ms", "ms"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
        ];
        assert_eq!(
            listed("end_to_end"),
            want.map(|(n, u)| (n.to_string(), u.to_string()))
        );
    }

    #[test]
    fn run_flags_parse_and_reject_nonsense() {
        let args = |v: &[&str]| parse_run_args(v.iter().map(|s| s.to_string()));
        let a = args(&[
            "--workload",
            "service-cold",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(3), true));
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "1.5"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }
}
