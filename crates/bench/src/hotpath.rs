//! Wall-clock benchmark harness for the emulation-driven hot path.
//!
//! Three measurements, all behind `figures --bench N`:
//!
//! 1. **Per-cell emulation rate.** Every (workload, model) pair is
//!    compiled once on the Figure 8 machine and pre-decoded, then the
//!    decoded emulator runs the program bare (a [`NullSink`], no timing
//!    model) for `N` timed repetitions after one warmup. Fetched
//!    instructions / median wall time is the *emulated instructions per
//!    second* rate — the throughput of the interpreter itself, which is
//!    what the pre-decode work optimizes and what the CI guard watches.
//! 2. **Per-cell simulation rate.** The same cell through
//!    [`simulate_decoded`] — emulator plus the cycle-timing sink. The
//!    derived *simulated cycles per second* rate tracks the cost of the
//!    full timing model.
//! 3. **Full-matrix wall time.** The complete figures run (all four
//!    experiments over every workload at the requested scale) through
//!    the parallel engine, again warmup + `N` reps, median/min.
//!
//! Compilation and pre-decode are deliberately outside every timed
//! region — the hot paths under test are emulate and emulate+simulate.
//!
//! [`BenchReport::to_json`] serializes the result (hand-rolled JSON
//! whose spacing CI greps); the committed `BENCH_hotpath.json` at the
//! repo root is the regression baseline, read back through
//! `hyperpred::json`. [`check_regression`] implements the
//! CI guard: the run fails if aggregate emulated insts/sec drops below
//! [`REGRESSION_FLOOR`] of the baseline. The floor is tight enough to
//! catch a 1.5x hot-path slowdown (an accidental allocation or hash
//! lookup back in the per-event path) while still absorbing normal
//! host-speed variance between the machine that committed the baseline
//! and the CI runner.

use hyperpred::emu::{DecodedModule, Emulator, NullSink};
use hyperpred::json::{self, Value};
use hyperpred::lang::lower::entry_args;
use hyperpred::sched::MachineConfig;
use hyperpred::sim::{simulate_decoded, SimConfig, SimStats};
use hyperpred::workloads::Scale;
use hyperpred::{run_matrix, Experiment, MatrixConfig, Model, Pipeline, PipelineError};
use std::sync::Arc;
use std::time::Instant;

/// The guard trips when current insts/sec < baseline insts/sec × floor.
/// 0.75 tolerates run-to-run noise but fails a 1.5x slowdown.
pub const REGRESSION_FLOOR: f64 = 0.75;

/// Schema version stamped into the JSON so future shape changes can be
/// detected instead of silently mis-parsed. Version 2 split the per-cell
/// timings into separate emulation-only and full-simulation loops.
pub const BENCH_JSON_VERSION: u64 = 2;

/// Harness knobs (from the `figures` command line).
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Timed repetitions per measurement (after one untimed warmup).
    pub reps: usize,
    /// Workload scale for both the per-cell sweep and the matrix timing.
    pub scale: Scale,
    /// Worker threads for the matrix timing (0 = all cores).
    pub threads: usize,
}

/// Timing for one (workload, model) cell: an emulation-only loop and a
/// full emulate+simulate loop over the same compiled module.
#[derive(Debug, Clone)]
pub struct CellBench {
    /// Workload name.
    pub workload: &'static str,
    /// Evaluated model.
    pub model: Model,
    /// Dynamic (fetched) instruction count of one run.
    pub insts: u64,
    /// Simulated cycles of one simulation.
    pub cycles: u64,
    /// Median wall time of the emulation-only reps, seconds.
    pub emu_median_secs: f64,
    /// Fastest emulation-only rep, seconds.
    pub emu_min_secs: f64,
    /// Median wall time of the full-simulation reps, seconds.
    pub sim_median_secs: f64,
    /// Fastest full-simulation rep, seconds.
    pub sim_min_secs: f64,
}

impl CellBench {
    /// Emulated instructions per wall-clock second (median emulation-only
    /// rep).
    pub fn insts_per_sec(&self) -> f64 {
        per_sec(self.insts, self.emu_median_secs)
    }

    /// Simulated cycles per wall-clock second (median full-sim rep).
    pub fn cycles_per_sec(&self) -> f64 {
        per_sec(self.cycles, self.sim_median_secs)
    }
}

/// One harness run: per-cell timings plus the full-matrix wall time.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Scale the run used.
    pub scale: Scale,
    /// Timed repetitions per measurement.
    pub reps: usize,
    /// Worker threads for the matrix timing (0 = all cores).
    pub threads: usize,
    /// Median wall time of the full figures matrix, seconds.
    pub matrix_median_secs: f64,
    /// Fastest matrix rep, seconds.
    pub matrix_min_secs: f64,
    /// Per-(workload, model) timings on the Figure 8 machine.
    pub cells: Vec<CellBench>,
}

impl BenchReport {
    /// Total fetched instructions across all cells (one rep each).
    pub fn total_insts(&self) -> u64 {
        self.cells.iter().map(|c| c.insts).sum()
    }

    /// Total simulated cycles across all cells (one rep each).
    pub fn total_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.cycles).sum()
    }

    /// Sum of the per-cell median emulation-only wall times, seconds.
    pub fn total_emu_median_secs(&self) -> f64 {
        self.cells.iter().map(|c| c.emu_median_secs).sum()
    }

    /// Sum of the per-cell median full-simulation wall times, seconds.
    pub fn total_sim_median_secs(&self) -> f64 {
        self.cells.iter().map(|c| c.sim_median_secs).sum()
    }

    /// Aggregate emulated instructions per second over the whole sweep
    /// (emulation-only loop).
    pub fn insts_per_sec(&self) -> f64 {
        per_sec(self.total_insts(), self.total_emu_median_secs())
    }

    /// Aggregate simulated cycles per second over the whole sweep
    /// (full-simulation loop).
    pub fn cycles_per_sec(&self) -> f64 {
        per_sec(self.total_cycles(), self.total_sim_median_secs())
    }

    /// One-paragraph human summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "bench: {} cells ({} scale, {} reps): {:.0} emulated insts/s, \
             {:.0} simulated cycles/s aggregate; full matrix median {:.3}s \
             (min {:.3}s)",
            self.cells.len(),
            scale_slug(self.scale),
            self.reps,
            self.insts_per_sec(),
            self.cycles_per_sec(),
            self.matrix_median_secs,
            self.matrix_min_secs,
        )
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + 256 * self.cells.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {BENCH_JSON_VERSION},\n"));
        out.push_str(&format!("  \"scale\": \"{}\",\n", scale_slug(self.scale)));
        out.push_str(&format!("  \"reps\": {},\n", self.reps));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"matrix\": {{ \"median_secs\": {:.6}, \"min_secs\": {:.6} }},\n",
            self.matrix_median_secs, self.matrix_min_secs
        ));
        out.push_str("  \"aggregate\": {\n");
        out.push_str(&format!(
            "    \"total_insts\": {},\n    \"total_cycles\": {},\n",
            self.total_insts(),
            self.total_cycles()
        ));
        out.push_str(&format!(
            "    \"total_emu_median_secs\": {:.6},\n    \"total_sim_median_secs\": {:.6},\n",
            self.total_emu_median_secs(),
            self.total_sim_median_secs()
        ));
        out.push_str(&format!(
            "    \"emulated_insts_per_sec\": {:.1},\n    \"simulated_cycles_per_sec\": {:.1}\n",
            self.insts_per_sec(),
            self.cycles_per_sec()
        ));
        out.push_str("  },\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let sep = if i + 1 == self.cells.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"workload\": \"{}\", \"model\": \"{}\", \
                 \"insts\": {}, \"cycles\": {}, \
                 \"emu_median_secs\": {:.6}, \"emu_min_secs\": {:.6}, \
                 \"sim_median_secs\": {:.6}, \"sim_min_secs\": {:.6}, \
                 \"insts_per_sec\": {:.1}, \"cycles_per_sec\": {:.1} }}{sep}\n",
                c.workload,
                model_slug(c.model),
                c.insts,
                c.cycles,
                c.emu_median_secs,
                c.emu_min_secs,
                c.sim_median_secs,
                c.sim_min_secs,
                c.insts_per_sec(),
                c.cycles_per_sec(),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Smallest duration the rate math will divide by, seconds. Tiny
/// `--scale test` cells can finish inside the timer's resolution and
/// report a 0.0s median; dividing by it would put `inf`/`nan` into the
/// hand-rolled JSON, which [`check_regression`]'s parser cannot read
/// back. Clamping keeps every reported rate finite.
pub const MIN_MEASURABLE_SECS: f64 = 1e-9;

fn per_sec(count: u64, secs: f64) -> f64 {
    // `f64::max` also maps a NaN duration onto the clamp floor.
    count as f64 / secs.max(MIN_MEASURABLE_SECS)
}

fn scale_slug(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::Full => "full",
    }
}

fn model_slug(m: Model) -> &'static str {
    match m {
        Model::Superblock => "superblock",
        Model::CondMove => "condmove",
        Model::FullPred => "fullpred",
    }
}

/// Median of the timed samples: midpoint average of the sorted list.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn min(samples: &[f64]) -> f64 {
    // An empty sample set reports 0.0, never the fold identity
    // (`f64::INFINITY` prints as `inf`, which is not valid JSON).
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs the harness: per-cell emulation and simulation sweeps plus the
/// matrix wall time.
///
/// # Errors
/// Propagates pipeline or simulation failures (the harness only times
/// healthy runs; a failing cell is a bug to fix, not a number to report).
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, PipelineError> {
    let reps = cfg.reps.max(1);
    let pipe = Pipeline::default();
    // Per-cell sweep on the Figure 8 machine (8-issue, 1-branch,
    // perfect memory): the configuration every table in the paper uses.
    let machine = MachineConfig::new(8, 1);
    let sim_cfg = SimConfig::default();

    let mut cells = Vec::new();
    for w in hyperpred::workloads::all(cfg.scale) {
        // The model-independent front half (parse, classic opt, profile)
        // runs once per workload, mirroring the matrix engine's memo.
        let front = pipe.front(&w.source, &w.args)?;
        let args = entry_args(&w.args);
        for model in Model::ALL {
            let module = pipe.finish(&front, model, &machine)?;
            // Pre-decode outside the timed region, like the matrix engine:
            // the hot paths under test are emulate and emulate+simulate,
            // not decode.
            let decoded = Arc::new(DecodedModule::decode(&module));

            // Emulation-only loop: the decoded interpreter bare. Warmup
            // rep faults code/data into cache and yields the fetched
            // count; the emulator is deterministic so every rep fetches
            // the same stream.
            let mut sink = NullSink;
            let fetched = Emulator::with_decoded(&module, Arc::clone(&decoded))
                .run("main", &args, &mut sink)
                .map_err(PipelineError::from)?
                .fetched;
            let mut emu_samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                let out = Emulator::with_decoded(&module, Arc::clone(&decoded))
                    .run("main", &args, &mut sink)
                    .map_err(PipelineError::from)?;
                emu_samples.push(t.elapsed().as_secs_f64());
                debug_assert_eq!(out.fetched, fetched, "emulation must be deterministic");
            }

            // Full-simulation loop: same module through the timing model.
            let stats: SimStats =
                simulate_decoded(&module, &decoded, "main", &args, machine, sim_cfg)?;
            debug_assert_eq!(stats.insts, fetched, "sim sees every fetched inst");
            let mut sim_samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t = Instant::now();
                let s = simulate_decoded(&module, &decoded, "main", &args, machine, sim_cfg)?;
                sim_samples.push(t.elapsed().as_secs_f64());
                debug_assert_eq!(s.cycles, stats.cycles, "simulation must be deterministic");
            }

            cells.push(CellBench {
                workload: w.name,
                model,
                insts: stats.insts,
                cycles: stats.cycles,
                emu_median_secs: median(&mut emu_samples),
                emu_min_secs: min(&emu_samples),
                sim_median_secs: median(&mut sim_samples),
                sim_min_secs: min(&sim_samples),
            });
        }
    }

    // Full figures matrix through the parallel engine: all four
    // experiments, shared compile/baseline/front caches, warmup + reps.
    let exps = [
        Experiment::fig8(),
        Experiment::fig9(),
        Experiment::fig10(),
        Experiment::fig11(),
    ];
    let mut matrix_samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t = Instant::now();
        let workloads = hyperpred::workloads::all(cfg.scale);
        let matrix = MatrixConfig {
            threads: cfg.threads,
            ..MatrixConfig::default()
        };
        run_matrix(&exps, &workloads, &pipe, &matrix).into_figures()?;
        let dt = t.elapsed().as_secs_f64();
        if rep > 0 {
            matrix_samples.push(dt);
        }
    }

    Ok(BenchReport {
        scale: cfg.scale,
        reps,
        threads: cfg.threads,
        matrix_median_secs: median(&mut matrix_samples),
        matrix_min_secs: min(&matrix_samples),
        cells,
    })
}

/// The CI regression guard: compares a fresh report against the
/// committed baseline JSON.
///
/// Returns a human-readable verdict on success.
///
/// # Errors
/// Fails (with the message the CI log should show) when the baseline is
/// unreadable, was recorded at a different scale, or when aggregate
/// emulated insts/sec dropped below [`REGRESSION_FLOOR`] of it.
pub fn check_regression(report: &BenchReport, baseline_json: &str) -> Result<String, String> {
    let baseline = json::parse(baseline_json).map_err(|e| format!("baseline JSON: {e}"))?;
    let version = baseline
        .field("version", Value::num::<u64>)?
        .ok_or("baseline JSON has no \"version\" field")?;
    if version != BENCH_JSON_VERSION {
        return Err(format!(
            "baseline schema version {version} != supported {BENCH_JSON_VERSION}; \
             regenerate the baseline"
        ));
    }
    let base_scale = baseline
        .field("scale", Value::as_str)?
        .ok_or("baseline JSON has no \"scale\" field")?;
    if base_scale != scale_slug(report.scale) {
        return Err(format!(
            "baseline was recorded at scale \"{base_scale}\" but this run used \
             \"{}\"; rates are not comparable across scales",
            scale_slug(report.scale)
        ));
    }
    let base_ips = baseline
        .get("aggregate")
        .and_then(|a| a.get("emulated_insts_per_sec"))
        .and_then(Value::num::<f64>)
        .ok_or("baseline JSON has no \"aggregate.emulated_insts_per_sec\" field")?;
    let cur_ips = report.insts_per_sec();
    let floor = base_ips * REGRESSION_FLOOR;
    if cur_ips < floor {
        return Err(format!(
            "hot-path regression: {cur_ips:.0} emulated insts/s is below \
             {REGRESSION_FLOOR} of the committed baseline ({base_ips:.0}; \
             floor {floor:.0})"
        ));
    }
    Ok(format!(
        "hot path within budget: {cur_ips:.0} emulated insts/s vs baseline \
         {base_ips:.0} (guard trips below {floor:.0})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_rate(insts: u64, secs: f64) -> BenchReport {
        BenchReport {
            scale: Scale::Test,
            reps: 1,
            threads: 1,
            matrix_median_secs: 0.5,
            matrix_min_secs: 0.4,
            cells: vec![CellBench {
                workload: "wl",
                model: Model::FullPred,
                insts,
                cycles: insts * 2,
                emu_median_secs: secs,
                emu_min_secs: secs,
                sim_median_secs: secs * 4.0,
                sim_min_secs: secs * 4.0,
            }],
        }
    }

    /// One `aggregate` rate of a report, read the way the guard reads it.
    fn aggregate_rate(report: &str, key: &str) -> f64 {
        json::parse(report)
            .expect("the report is valid JSON")
            .get("aggregate")
            .and_then(|a| a.get(key))
            .and_then(Value::num::<f64>)
            .expect("aggregate rate")
    }

    #[test]
    fn median_is_midpoint_of_sorted_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn json_roundtrips_through_the_guard_parsers() {
        let r = report_with_rate(1_000_000, 0.25);
        let text = r.to_json();
        let json = json::parse(&text).expect("the report is valid JSON");
        assert_eq!(json.get("version").and_then(Value::num::<u64>), Some(2));
        assert_eq!(json.get("scale").and_then(Value::as_str), Some("test"));
        let ips = aggregate_rate(&text, "emulated_insts_per_sec");
        assert!((ips - r.insts_per_sec()).abs() < 1.0, "{ips}");
        let cps = aggregate_rate(&text, "simulated_cycles_per_sec");
        assert!((cps - r.cycles_per_sec()).abs() < 1.0, "{cps}");
        // Per-cell fields are present and the cell list is well-formed.
        let cell = &json.get("cells").and_then(Value::as_array).expect("cells")[0];
        assert_eq!(cell.get("workload").and_then(Value::as_str), Some("wl"));
        assert_eq!(cell.get("model").and_then(Value::as_str), Some("fullpred"));
        assert!(cell.get("emu_median_secs").is_some());
        assert!(cell.get("sim_median_secs").is_some());
        // CI greps this spacing.
        assert!(text.contains("\"scale\": \"test\""));
    }

    #[test]
    fn zero_duration_medians_yield_finite_parseable_rates() {
        // A tiny --scale run can complete a cell inside the timer's
        // resolution; the report must still be finite and round-trip
        // through the baseline parser (no "inf"/"nan" in the JSON).
        let r = report_with_rate(1_000_000, 0.0);
        assert!(r.insts_per_sec().is_finite(), "{}", r.insts_per_sec());
        assert!(r.cycles_per_sec().is_finite(), "{}", r.cycles_per_sec());
        assert!(r.cells[0].insts_per_sec().is_finite());
        assert!(r.cells[0].cycles_per_sec().is_finite());
        let json = r.to_json();
        assert!(!json.contains("inf"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
        let ips = aggregate_rate(&json, "emulated_insts_per_sec");
        assert!(ips.is_finite() && ips > 0.0, "{ips}");
        // The clamp floor bounds the reported rate.
        assert!(ips <= 1_000_000.0 / MIN_MEASURABLE_SECS);
        // A guard comparison against such a baseline stays well-defined.
        assert!(check_regression(&r, &json).is_ok());
    }

    #[test]
    fn min_of_no_samples_is_zero_not_infinity() {
        assert_eq!(min(&[]), 0.0);
        assert_eq!(min(&[0.25, 0.5]), 0.25);
    }

    #[test]
    fn guard_passes_within_floor_and_trips_below_it() {
        let baseline = report_with_rate(1_000_000, 0.25).to_json(); // 4M insts/s
        let fine = report_with_rate(1_000_000, 0.31); // ~3.2M, above 0.75 floor
        assert!(check_regression(&fine, &baseline).is_ok());
        let slow = report_with_rate(1_000_000, 0.35); // ~2.9M, below 3M floor
        let err = check_regression(&slow, &baseline).unwrap_err();
        assert!(err.contains("hot-path regression"), "{err}");
    }

    #[test]
    fn guard_fails_a_deliberate_1_5x_slowdown() {
        // The acceptance scenario: the hot path gets 1.5x slower (same
        // instruction stream, 1.5x the wall time → rate falls to 2/3 of
        // baseline, below the 0.75 floor).
        let baseline = report_with_rate(1_000_000, 0.25).to_json();
        let slowed = report_with_rate(1_000_000, 0.25 * 1.5);
        let err = check_regression(&slowed, &baseline).unwrap_err();
        assert!(err.contains("hot-path regression"), "{err}");
    }

    #[test]
    fn guard_rejects_cross_scale_and_wrong_version_baselines() {
        let mut full = report_with_rate(1_000_000, 0.25);
        full.scale = Scale::Full;
        let baseline = full.to_json();
        let test_run = report_with_rate(1_000_000, 0.25);
        let err = check_regression(&test_run, &baseline).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");

        let bumped = baseline.replace("\"version\": 2", "\"version\": 99");
        let mut full_run = report_with_rate(1_000_000, 0.25);
        full_run.scale = Scale::Full;
        let err = check_regression(&full_run, &bumped).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }
}
