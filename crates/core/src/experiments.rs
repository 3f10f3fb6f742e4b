//! The paper's experiment matrix: Figures 8–11 and Tables 2–3.

use crate::journal::{fnv64, model_slug};
use crate::pipeline::{evaluate, speedup, Model, Pipeline, PipelineError};
use crate::report::{format_table, human_count, Row};
use hyperpred_sched::MachineConfig;
use hyperpred_sim::{CacheConfig, MemoryModel, SimConfig, SimStats, DEFAULT_CYCLE_LIMIT};
use hyperpred_workloads::{Scale, Workload};
use std::borrow::Cow;

/// Results of one benchmark under the three models plus the scalar
/// baseline.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// 1-issue superblock baseline (the paper's speedup denominator).
    pub base: SimStats,
    /// Superblock / CondMove / FullPred on the evaluated machine.
    pub models: [SimStats; 3],
}

impl BenchResult {
    /// Speedup of model `m` versus the scalar baseline.
    pub fn speedup(&self, m: Model) -> f64 {
        speedup(&self.base, &self.models[m.index()])
    }

    /// Statistics of model `m`.
    pub fn stats(&self, m: Model) -> &SimStats {
        &self.models[m.index()]
    }
}

/// One experiment configuration (a figure of the paper).
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Human-readable title.
    pub title: &'static str,
    /// Issue width.
    pub issue: u32,
    /// Branch slots per cycle.
    pub branches: u32,
    /// Memory model.
    pub memory: MemoryModel,
    /// Watchdog: cycle budget per simulated cell; a cell exceeding it
    /// fails with [`hyperpred_sim::SimError::CycleLimit`] instead of
    /// monopolizing a worker. The default is effectively unbounded for
    /// the paper's workloads.
    pub max_cycles: u64,
}

impl Experiment {
    /// Figure 8: 8-issue, 1-branch, perfect caches.
    pub fn fig8() -> Experiment {
        Experiment {
            title: "Figure 8: 8-issue, 1-branch, perfect caches",
            issue: 8,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: DEFAULT_CYCLE_LIMIT,
        }
    }

    /// Figure 9: 8-issue, 2-branch, perfect caches.
    pub fn fig9() -> Experiment {
        Experiment {
            title: "Figure 9: 8-issue, 2-branch, perfect caches",
            issue: 8,
            branches: 2,
            memory: MemoryModel::Perfect,
            max_cycles: DEFAULT_CYCLE_LIMIT,
        }
    }

    /// Figure 10: 4-issue, 1-branch, perfect caches.
    pub fn fig10() -> Experiment {
        Experiment {
            title: "Figure 10: 4-issue, 1-branch, perfect caches",
            issue: 4,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: DEFAULT_CYCLE_LIMIT,
        }
    }

    /// Figure 11: 8-issue, 1-branch, 64K I/D caches.
    pub fn fig11() -> Experiment {
        Experiment {
            title: "Figure 11: 8-issue, 1-branch, 64K caches",
            issue: 8,
            branches: 1,
            memory: MemoryModel::Caches(CacheConfig::default()),
            max_cycles: DEFAULT_CYCLE_LIMIT,
        }
    }

    /// The figure's cell for `model`.
    pub fn cell(&self, model: Model) -> CellSpec {
        CellSpec {
            experiment: Cow::Borrowed(self.title),
            model: Some(model),
            issue: self.issue,
            branches: self.branches,
            memory: self.memory,
            max_cycles: self.max_cycles,
        }
    }
}

/// Everything but the program and the pipeline that determines one
/// cell's stats: the experiment it is filed under, its model, machine,
/// memory model and cycle budget. The matrix engine, the daemon's
/// requests, soak, triage replay and `hyperpredc sim` all describe their
/// cells with one, so a cell's machine, simulator config and store key
/// are derived in this one place.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Figure title, service or soak namespace, or `"baseline"` for the
    /// shared denominator.
    pub experiment: Cow<'static, str>,
    /// Model simulated (`None` for the baseline, which compiles the
    /// superblock model).
    pub model: Option<Model>,
    /// Issue width of the simulated machine.
    pub issue: u32,
    /// Branch slots per cycle.
    pub branches: u32,
    /// Memory model (cache geometry is the default one; no cell uses
    /// another).
    pub memory: MemoryModel,
    /// Watchdog: the cycle budget the cell is simulated under.
    pub max_cycles: u64,
}

impl CellSpec {
    /// The paper's speedup denominator: the superblock model on a
    /// 1-issue machine with perfect memory, whatever machine and memory
    /// the evaluated cells use, so every figure divides by the same
    /// number.
    pub fn baseline(max_cycles: u64) -> CellSpec {
        CellSpec {
            experiment: Cow::Borrowed("baseline"),
            model: None,
            issue: 1,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles,
        }
    }

    /// The model the cell compiles: its own, or the superblock model for
    /// the baseline.
    pub fn compiled_model(&self) -> Model {
        self.model.unwrap_or(Model::Superblock)
    }

    /// The machine the cell is scheduled for and simulated on.
    ///
    /// # Panics
    /// On a zero width, like [`MachineConfig::new`].
    pub fn machine(&self) -> MachineConfig {
        MachineConfig::new(self.issue, self.branches)
    }

    /// The cell's memory model and cycle budget; every other simulator
    /// knob (the predictor) is the default all cells share.
    pub fn sim(&self) -> SimConfig {
        SimConfig {
            memory: self.memory,
            max_cycles: self.max_cycles,
            ..SimConfig::default()
        }
    }

    /// The cell's content address: an FNV-1a hash over a canonical string
    /// of everything that determines its stats (crate version, the full
    /// pipeline config, the program's name, source hash and args, and
    /// this spec). Figures journals, daemon stores and soak journals are
    /// keyed by it; see the [`crate::journal`] docs for why the key is
    /// deliberately conservative. Existing journals and stores hold these
    /// keys, so the canonical string's format must not change.
    pub fn key(&self, pipe: &Pipeline, name: &str, source: &str, args: &[i64]) -> String {
        let canonical = format!(
            "v{}|pipe{:016x}|{}|src{:016x}|args{:?}|{}|{}|issue{}|br{}|{:?}|cycles{}",
            env!("CARGO_PKG_VERSION"),
            fnv64(format!("{pipe:?}").as_bytes()),
            name,
            fnv64(source.as_bytes()),
            args,
            self.experiment,
            model_slug(self.model),
            self.issue,
            self.branches,
            self.memory,
            self.max_cycles,
        );
        format!("{:016x}", fnv64(canonical.as_bytes()))
    }
}

/// Runs one workload under an experiment configuration.
///
/// # Errors
/// Propagates pipeline failures.
pub fn run_workload(
    w: &Workload,
    exp: &Experiment,
    pipe: &Pipeline,
) -> Result<BenchResult, PipelineError> {
    let run = |spec: CellSpec| {
        evaluate(
            &w.source,
            &w.args,
            spec.compiled_model(),
            spec.machine(),
            spec.sim(),
            pipe,
        )
    };
    let base = run(CellSpec::baseline(exp.max_cycles))?;
    let mut models: [SimStats; 3] = Default::default();
    for model in Model::ALL {
        let s = run(exp.cell(model))?;
        if s.ret != base.ret {
            // A model disagreeing with the baseline is a miscompile;
            // report it as a typed error so matrix drivers can contain it
            // to the cell instead of unwinding through the whole run.
            return Err(PipelineError::Diverged {
                workload: w.name.to_string(),
                model,
                got: s.ret,
                want: base.ret,
            });
        }
        models[model.index()] = s;
    }
    Ok(BenchResult {
        name: w.name,
        base,
        models,
    })
}

/// Runs all workloads at `scale` under `exp`.
///
/// # Errors
/// Propagates the first pipeline failure.
pub fn run_experiment(
    exp: &Experiment,
    scale: Scale,
    pipe: &Pipeline,
) -> Result<Vec<BenchResult>, PipelineError> {
    hyperpred_workloads::all(scale)
        .iter()
        .map(|w| run_workload(w, exp, pipe))
        .collect()
}

/// Renders an experiment's speedups as the paper's bar-chart data.
pub fn speedup_table(exp: &Experiment, results: &[BenchResult]) -> String {
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 3];
    for r in results {
        let mut cells = Vec::new();
        for (i, m) in Model::ALL.iter().enumerate() {
            let s = r.speedup(*m);
            sums[i] += s;
            cells.push(format!("{s:.2}"));
        }
        rows.push(Row::new(r.name, cells));
    }
    let n = results.len() as f64;
    rows.push(Row::new(
        "average",
        sums.iter().map(|s| format!("{:.2}", s / n)).collect(),
    ));
    format_table(exp.title, &["Superblock", "Cond.Move", "Full Pred."], &rows)
}

/// Renders Table 2 (dynamic instruction counts, ratio vs. superblock).
pub fn instruction_table(results: &[BenchResult]) -> String {
    let mut rows = Vec::new();
    for r in results {
        let sup = r.stats(Model::Superblock).insts;
        let cm = r.stats(Model::CondMove).insts;
        let fp = r.stats(Model::FullPred).insts;
        rows.push(Row::new(
            r.name,
            vec![
                human_count(sup),
                format!("{} ({:.2})", human_count(cm), cm as f64 / sup as f64),
                format!("{} ({:.2})", human_count(fp), fp as f64 / sup as f64),
            ],
        ));
    }
    format_table(
        "Table 2: dynamic instruction count comparison",
        &["Superblk", "Cond. Move", "Full Pred."],
        &rows,
    )
}

/// Renders Table 3 (branches, mispredictions, misprediction rate).
pub fn branch_table(results: &[BenchResult]) -> String {
    let mut rows = Vec::new();
    for r in results {
        let mut cells = Vec::new();
        for m in Model::ALL {
            let s = r.stats(m);
            cells.push(format!(
                "{} {} {:.2}%",
                human_count(s.branches),
                human_count(s.mispredicts),
                100.0 * s.mispredict_rate()
            ));
        }
        rows.push(Row::new(r.name, cells));
    }
    format_table(
        "Table 3: branches (BR MP MPR) per model",
        &["Superblock", "Cond. Move", "Full Pred."],
        &rows,
    )
}

/// Arithmetic-mean speedup for a model across results.
pub fn mean_speedup(results: &[BenchResult], m: Model) -> f64 {
    results.iter().map(|r| r.speedup(m)).sum::<f64>() / results.len() as f64
}
