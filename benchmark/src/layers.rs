//! Every call the benchmark makes into the `hyperpred` library.
//!
//! The end-to-end runs drive only the `figures` and `hyperpredd`
//! binaries; the library is needed for the inputs (the paper workloads and
//! the seeded service stream), for the in-process answers the checks
//! compare against, and for the traced run, which replays each workload
//! through each layer's public functions. Keeping all of it here means a
//! renamed public API costs a one-file change to the benchmark.
//!
//! [`Compiler::front`] and [`Compiler::finish`] replicate
//! `Pipeline::front` and `Pipeline::finish` stage by stage, so each stage
//! gets its own span; [`Compiler::matches_library`] proves the replica
//! builds the module `Pipeline::finish` builds.

use crate::trace::Tracer;
use crate::wire::{Cell, Stats};
use hyperpred::emu::{DecodedModule, Emulator, NullSink, Profiler};
use hyperpred::hyperblock::{
    form_hyperblocks, form_superblocks, promote_bounded, unroll_self_loops,
};
use hyperpred::ir::{FuncId, Module};
use hyperpred::journal::{model_slug, JournalEntry};
use hyperpred::lang::lower::entry_args;
use hyperpred::pipeline::FrontOutput;
use hyperpred::sched::MachineConfig;
use hyperpred::service::{self, CellResponse, CellStatus, LoadConfig};
use hyperpred::sim::{simulate_decoded, CacheConfig, MemoryModel, SimConfig, SimStats};
use hyperpred::workloads::Scale;
use hyperpred::{CellRequest, Experiment, Model, Pipeline, RequestConfig, Store};
use std::path::Path;
use std::sync::Arc;

/// One of the paper's benchmark programs with its fixed input.
pub struct PaperWorkload {
    pub name: &'static str,
    pub source: String,
    pub args: Vec<i64>,
}

/// The paper's workloads at full scale, or at test scale for `--quick`.
pub fn paper_workloads(full: bool) -> Vec<PaperWorkload> {
    let scale = if full { Scale::Full } else { Scale::Test };
    hyperpred::workloads::all(scale)
        .into_iter()
        .map(|w| PaperWorkload {
            name: w.name,
            source: w.source,
            args: w.args,
        })
        .collect()
}

/// One figure's machine, in the order `figures` runs them.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    pub title: &'static str,
    pub issue: u32,
    pub branches: u32,
    pub caches: bool,
    pub max_cycles: u64,
}

/// Figures 8, 9, 10 and 11.
pub fn figures() -> Vec<Figure> {
    [
        Experiment::fig8(),
        Experiment::fig9(),
        Experiment::fig10(),
        Experiment::fig11(),
    ]
    .iter()
    .map(|e| Figure {
        title: e.title,
        issue: e.issue,
        branches: e.branches,
        caches: matches!(e.memory, MemoryModel::Caches(_)),
        max_cycles: e.max_cycles,
    })
    .collect()
}

/// Model slugs in the paper's order (also the wire names).
pub const MODELS: [&str; 3] = ["superblock", "condmove", "fullpred"];

fn model(slug: &str) -> Result<Model, String> {
    Model::ALL
        .into_iter()
        .find(|m| model_slug(Some(*m)) == slug)
        .ok_or_else(|| format!("unknown model {slug}"))
}

fn memory(caches: bool) -> MemoryModel {
    if caches {
        MemoryModel::Caches(CacheConfig::default())
    } else {
        MemoryModel::Perfect
    }
}

/// The first `n` cells of `bench-load`'s seeded stream: generated
/// programs over the five profiles, each under the three models, on the
/// 8-issue/1-branch machine with perfect memory.
pub fn service_stream(seed: u64, n: usize) -> Vec<Cell> {
    let cfg = LoadConfig {
        cells: n,
        seed,
        issue: 8,
        branches: 1,
        ..LoadConfig::default()
    };
    service::load_requests(&cfg).iter().map(to_cell).collect()
}

fn to_cell(r: &CellRequest) -> Cell {
    Cell {
        name: r.name.clone(),
        source: r.source.clone(),
        args: r.args.clone(),
        model: model_slug(Some(r.model)),
        issue: r.issue,
        branches: r.branches,
        memory: match r.memory {
            MemoryModel::Perfect => "perfect",
            MemoryModel::Caches(_) => "caches",
        },
        max_cycles: r.max_cycles,
    }
}

fn to_request(c: &Cell) -> Result<CellRequest, String> {
    Ok(CellRequest {
        name: c.name.clone(),
        source: c.source.clone(),
        args: c.args.clone(),
        model: model(c.model)?,
        issue: c.issue,
        branches: c.branches,
        memory: memory(c.memory == "caches"),
        max_cycles: c.max_cycles,
    })
}

fn stats(s: &SimStats) -> Stats {
    Stats {
        cycles: s.cycles,
        insts: s.insts,
        nullified: s.nullified,
        branches: s.branches,
        mispredicts: s.mispredicts,
        loads: s.loads,
        stores: s.stores,
        icache_misses: s.icache_misses,
        dcache_misses: s.dcache_misses,
        ret: s.ret,
    }
}

fn sim_stats(s: &Stats) -> SimStats {
    SimStats {
        cycles: s.cycles,
        insts: s.insts,
        nullified: s.nullified,
        branches: s.branches,
        mispredicts: s.mispredicts,
        loads: s.loads,
        stores: s.stores,
        icache_misses: s.icache_misses,
        dcache_misses: s.dcache_misses,
        ret: s.ret,
    }
}

// ---------------------------------------------------------------------------
// Compile: a stage-by-stage replica of `Pipeline::front` and `finish`.
// ---------------------------------------------------------------------------

/// The model-independent half of a compile.
pub struct Front(FrontOutput);

/// A compiled, scheduled and pre-decoded module.
pub struct Compiled {
    module: Module,
    decoded: Option<Arc<DecodedModule>>,
    /// True when a growth budget tripped and the library's degradation
    /// ladder produced the module instead of the replica.
    pub degraded: bool,
}

/// Instructions left by if-conversion and by the whole pipeline, summed
/// over the compiles that report them.
#[derive(Debug, Clone, Copy, Default)]
pub struct IrCounts {
    pub after_ifconvert: u64,
    pub after_schedule: u64,
}

fn insts(m: &Module) -> u64 {
    m.funcs
        .iter()
        .map(|f| {
            f.layout
                .iter()
                .map(|&b| f.block(b).insts.len() as u64)
                .sum::<u64>()
        })
        .sum()
}

/// The default pipeline, the one `figures` and `hyperpredd` use.
#[derive(Default)]
pub struct Compiler {
    pipe: Pipeline,
}

impl Compiler {
    /// Frontend, inlining, pre-formation optimization and the profiling
    /// run, one span each.
    pub fn front(&self, tr: &mut Tracer, source: &str, args: &[i64]) -> Result<Front, String> {
        let p = &self.pipe;
        let mut module = tr
            .time("lang.compile", || hyperpred::lang::compile(source))
            .map_err(|e| e.to_string())?;
        if p.inline {
            let cfg = hyperpred::opt::inline::InlineConfig::default();
            tr.time("opt.inline", || {
                hyperpred::opt::inline::run_module(&mut module, &cfg)
            });
        }
        if p.classic_opt {
            tr.time("opt.pre", || hyperpred::opt::optimize_module(&mut module));
        }
        let mut profile = Profiler::new();
        tr.time("emu.profile", || {
            Emulator::new(&module).with_fuel(p.profile_fuel).run(
                "main",
                &entry_args(args),
                &mut profile,
            )
        })
        .map_err(|e| e.to_string())?;
        Ok(Front(FrontOutput { module, profile }))
    }

    /// Region formation, model conversion, post optimization and
    /// scheduling for `cell`'s model and machine, one span per stage.
    pub fn finish(
        &self,
        tr: &mut Tracer,
        front: &Front,
        cell: &Cell,
        ir: &mut IrCounts,
    ) -> Result<Compiled, String> {
        let m = model(cell.model)?;
        let machine = MachineConfig::new(cell.issue, cell.branches);
        match self.finish_stages(tr, &front.0, m, &machine, ir) {
            Ok(module) => Ok(Compiled {
                module,
                decoded: None,
                degraded: false,
            }),
            // A tripped growth budget: the daemon would degrade the cell,
            // so the replica does too, through the library's ladder.
            Err(Stop::Budget) => tr
                .time("pipeline.degraded", || {
                    self.pipe.finish_degraded(&front.0, m, &machine)
                })
                .map(|(module, _)| Compiled {
                    module,
                    decoded: None,
                    degraded: true,
                })
                .map_err(|e| e.to_string()),
            Err(Stop::Failed(e)) => Err(e),
        }
    }

    fn finish_stages(
        &self,
        tr: &mut Tracer,
        front: &FrontOutput,
        m: Model,
        machine: &MachineConfig,
        ir: &mut IrCounts,
    ) -> Result<Module, Stop> {
        let p = &self.pipe;
        let prof = &front.profile;
        let mut module = tr.time("ir.clone", || front.module.clone());
        let fid = |i: usize| FuncId(i as u32);
        if m != Model::Superblock {
            tr.time("hyperblock.ifconvert", || {
                for (i, f) in module.funcs.iter_mut().enumerate() {
                    form_hyperblocks(f, fid(i), prof, &p.hyperblock).map_err(|_| Stop::Budget)?;
                }
                Ok(())
            })?;
            ir.after_ifconvert += insts(&module);
            if p.promote {
                tr.time("hyperblock.promote", || {
                    for f in &mut module.funcs {
                        promote_bounded(f, p.promote_rounds).map_err(|_| Stop::Budget)?;
                    }
                    Ok(())
                })?;
            }
        }
        tr.time("hyperblock.superblock", || {
            for (i, f) in module.funcs.iter_mut().enumerate() {
                form_superblocks(f, fid(i), prof, &p.superblock);
            }
        });
        tr.time("hyperblock.unroll", || {
            for (i, f) in module.funcs.iter_mut().enumerate() {
                unroll_self_loops(f, fid(i), prof, &p.unroll).map_err(|_| Stop::Budget)?;
            }
            Ok(())
        })?;
        if m == Model::CondMove {
            tr.time("partial.convert", || {
                hyperpred::partial::to_partial_module(&mut module, &p.partial)
            });
        }
        if p.classic_opt {
            tr.time("opt.post", || hyperpred::opt::optimize_module(&mut module));
        }
        tr.time("sched.schedule", || {
            hyperpred::sched::schedule_module(&mut module, machine)
        })
        .map_err(|e| Stop::Failed(e.to_string()))?;
        ir.after_schedule += insts(&module);
        Ok(module)
    }

    /// True when `Pipeline::finish` on the same front half prints exactly
    /// the module the replica built for `cell`. Degraded compiles came
    /// from the library already and match trivially.
    pub fn matches_library(
        &self,
        front: &Front,
        cell: &Cell,
        compiled: &Compiled,
    ) -> Result<bool, String> {
        if compiled.degraded {
            return Ok(true);
        }
        let machine = MachineConfig::new(cell.issue, cell.branches);
        let module = self
            .pipe
            .finish(&front.0, model(cell.model)?, &machine)
            .map_err(|e| e.to_string())?;
        Ok(module.to_string() == compiled.module.to_string())
    }
}

/// Why the replica stopped.
enum Stop {
    Budget,
    Failed(String),
}

// ---------------------------------------------------------------------------
// Execution: decode, emulate, simulate.
// ---------------------------------------------------------------------------

impl Compiled {
    /// Pre-decodes the module for the emulator (the `emu.decode` layer).
    pub fn decode(&mut self) {
        self.decoded = Some(Arc::new(DecodedModule::decode(&self.module)));
    }

    fn decoded(&self) -> Arc<DecodedModule> {
        let decoded = self
            .decoded
            .as_ref()
            .expect("decode() runs before execution");
        Arc::clone(decoded)
    }

    /// Runs `cell`'s program on the decoded emulator with no timing
    /// model; returns the instructions fetched.
    pub fn emulate(&self, cell: &Cell) -> Result<u64, String> {
        Emulator::with_decoded(&self.module, self.decoded())
            .run("main", &entry_args(&cell.args), &mut NullSink)
            .map(|out| out.fetched)
            .map_err(|e| e.to_string())
    }

    /// Runs the timing simulation of `cell` on its machine, with the
    /// Figure 11 caches or perfect memory.
    pub fn simulate(&self, cell: &Cell, caches: bool) -> Result<Stats, String> {
        let cfg = SimConfig {
            memory: memory(caches),
            max_cycles: cell.max_cycles,
            ..SimConfig::default()
        };
        simulate_decoded(
            &self.module,
            &self.decoded(),
            "main",
            &entry_args(&cell.args),
            MachineConfig::new(cell.issue, cell.branches),
            cfg,
        )
        .map(|s| stats(&s))
        .map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Store.
// ---------------------------------------------------------------------------

/// A result store in a scratch directory, opened as the daemon opens its.
pub struct ScratchStore(Store);

impl ScratchStore {
    pub fn open(dir: &Path) -> Result<ScratchStore, String> {
        Store::open(dir)
            .map(ScratchStore)
            .map_err(|e| e.to_string())
    }

    pub fn get(&self, fingerprint: &str) -> Option<Stats> {
        self.0.get(fingerprint).map(|s| stats(&s))
    }

    /// Records `s` under `fingerprint` the way the daemon records a
    /// computed cell.
    pub fn put(&self, fingerprint: &str, cell: &Cell, s: &Stats) -> Result<(), String> {
        let entry = JournalEntry {
            fingerprint,
            workload: &cell.name,
            experiment: "service-degrade",
            model: Some(model(cell.model)?),
            stats: &sim_stats(s),
        };
        self.0.put(&entry).map(|_| ()).map_err(|e| e.to_string())
    }

    pub fn sync(&self) -> Result<(), String> {
        self.0.sync().map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Service: the daemon's codec, key, and request path, in process.
// ---------------------------------------------------------------------------

/// A request as the daemon parsed it.
pub struct Request(CellRequest);

/// The daemon's parser for one `/v1/cell` body.
pub fn parse_request(json: &str) -> Result<Request, String> {
    service::parse_request(json).map(Request)
}

/// The cell a parsed request describes, in the benchmark's own terms.
#[cfg(test)]
pub fn request_to_cell(r: &Request) -> Cell {
    to_cell(&r.0)
}

/// The store key the daemon derives for `r` (default pipeline, degrading
/// request policy).
pub fn fingerprint(r: &Request) -> String {
    hyperpred::request_fingerprint(&r.0, &Pipeline::default(), true)
}

/// The daemon's answer body for a served cell.
pub fn serialize_served(fingerprint: &str, s: &Stats, hit: bool) -> String {
    let status = if hit {
        CellStatus::Hit
    } else {
        CellStatus::Computed
    };
    service::response_to_json(&CellResponse::served(
        status,
        fingerprint.to_string(),
        sim_stats(s),
        false,
    ))
}

/// Runs `cell` through the library's contained request path, as the
/// daemon would compute it, with no HTTP, JSON or store involved.
/// Returns the stats and whether the compile degraded.
pub fn run_request(cell: &Cell) -> Result<(Stats, bool), String> {
    let req = to_request(cell)?;
    let cfg = RequestConfig {
        degrade: true,
        ..RequestConfig::default()
    };
    hyperpred::run_request(&req, &Pipeline::default(), &cfg)
        .map(|(s, d)| (stats(&s), d.is_degraded()))
        .map_err(|e| e.to_string())
}
