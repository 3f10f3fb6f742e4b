//! Adversarial soak testing: generated workloads, cross-model
//! differential oracles, and journaled crash-safe resume.
//!
//! `hyperpredc soak` drives the seeded MiniC generator
//! ([`hyperpred_workloads::gen`]) through the full pipeline: every
//! generated program is compiled under all three execution models at
//! several machine widths (with the [`Pipeline::finish_degraded`]
//! degradation ladder, so budget-tripping pathological inputs fall back
//! instead of failing), emulated, and simulated, and a battery of
//! end-to-end oracles is enforced per configuration:
//!
//! * **Differential emulation** — the pre-decoded emulator and the
//!   struct-walking [`ReferenceEmulator`] must produce bit-identical
//!   event streams (return value, event count, rolling event hash).
//! * **Cross-model architecture** — every (model, width) combination
//!   must return the baseline's result and produce the baseline's
//!   executed-store address stream. Nullified stores and the partial
//!   model's [`SAFE_ADDR`] redirects are excluded: they are
//!   predication *mechanics*, not architectural side effects.
//! * **Timing sanity** — [`SimStats`] must agree exactly with an
//!   independent [`DynStats`] trace (instructions, branches, nullified,
//!   loads, stores), return the emulator's result, respect the issue
//!   width's cycle floor, and keep misses bounded by references.
//! * **Lint checkpoints** — soak always compiles with the per-pass
//!   semantic checkers on, so every intermediate module is verified.
//!
//! Failures are contained per program (panics included, via the matrix
//! engine's capture hook), normalized to a signature, and emitted as
//! repro bundles through [`crate::triage`]; `hyperpredc repro` replays
//! soak bundles through this module's `replay_cell`, which re-runs the
//! same oracle battery — so even cross-model divergences minimize.
//!
//! Completed programs are journaled in a [`Store`] directory under the
//! same [`CellSpec::key`] the matrix and the daemon use, built from
//! soak's own pipeline and a spec naming the oracle battery and the
//! widths; a killed soak resumed with the same directory skips them
//! bit-identically and re-runs only what is missing. Each configuration
//! is a [`CellSpec`] too, so its machine and simulator config come from
//! the same place as every matrix cell's.

use crate::experiments::CellSpec;
use crate::journal::JournalEntry;
use crate::matrix::{catch_cell, stage_of, FailurePayload, FailureStage};
use crate::pipeline::{FrontOutput, Model, Pipeline, PipelineError, Stage};
use crate::predoracle::{PredClaims, PredOracleSink};
use crate::store::Store;
use crate::triage::{self, ReproCell, TriageConfig};
use hyperpred_emu::decode::DCode;
use hyperpred_emu::{DynStats, Emulator, Event, ReferenceEmulator, Tee, TraceSink};
use hyperpred_ir::module::SAFE_ADDR;
use hyperpred_ir::{BlockId, FuncId, Module};
use hyperpred_lang::lower::entry_args;
use hyperpred_sim::{simulate, CacheConfig, MemoryModel, SimStats};
use hyperpred_workloads::gen::{generate, GenProgram, Profile};
use std::cell::RefCell;
use std::io;
use std::path::PathBuf;

/// The experiment name soak stamps into journals and repro bundles.
/// [`triage::replay`] routes cells with this experiment back through
/// `replay_cell`, so oracle failures replay under the oracle battery.
pub const SOAK_EXPERIMENT: &str = "soak";

/// Soak-run parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Base seed; program `i` is generated from `seed + i`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub cells: usize,
    /// Generator profiles, cycled per program. Empty means all.
    pub profiles: Vec<Profile>,
    /// Machine shapes `(issue_width, branches_per_cycle)` each model is
    /// simulated at, on top of the canonical 1-issue baseline.
    pub widths: Vec<(u32, u32)>,
    /// Journal [`Store`] directory for crash-safe resume (`None`: off).
    pub journal: Option<PathBuf>,
    /// Repro-bundle emission for failures (`None` disables triage).
    pub triage: Option<TriageConfig>,
    /// Stop (reporting `interrupted`) after this many programs — the
    /// test hook for exercising resume without killing a process.
    pub cell_limit: Option<usize>,
    /// Chaos hook: sabotage the module after this pass in every compile,
    /// so the run exercises checkpoint blame and bundle emission.
    pub sabotage: Option<Stage>,
    /// Simulation watchdog budget per configuration.
    pub max_cycles: u64,
    /// Emulation fuel per run (profiling and differential runs).
    pub fuel: u64,
}

impl SoakConfig {
    /// Default battery: all profiles, three machine shapes, journaling
    /// and triage off.
    pub fn new(seed: u64, cells: usize) -> SoakConfig {
        SoakConfig {
            seed,
            cells,
            profiles: Profile::ALL.to_vec(),
            widths: vec![(1, 1), (4, 1), (8, 2)],
            journal: None,
            triage: None,
            cell_limit: None,
            sabotage: None,
            max_cycles: 2_000_000,
            fuel: 50_000_000,
        }
    }
}

/// One permanently failed program.
#[derive(Debug)]
pub struct SoakFailure {
    /// Generated workload name (`gen-<profile>-<seed>`).
    pub workload: String,
    /// Profile it was drawn from.
    pub profile: Profile,
    /// Its generator seed (regenerate with `generate(profile, seed)`).
    pub seed: u64,
    /// Normalized failure signature.
    pub signature: String,
    /// Repro bundle directory, when triage was configured and the write
    /// succeeded.
    pub bundle: Option<PathBuf>,
}

/// What a soak run did.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Programs the configuration asked for.
    pub programs: usize,
    /// Programs actually run this invocation.
    pub ran: usize,
    /// Programs skipped because the journal already had them.
    pub skipped: usize,
    /// Programs that needed the degradation ladder to finish a compile.
    pub degraded: usize,
    /// Permanent failures, in discovery order.
    pub failures: Vec<SoakFailure>,
    /// True when `cell_limit` stopped the run early.
    pub interrupted: bool,
    /// Corrupt journal records skipped at open (see [`Store::corrupt`]).
    pub journal_corrupt: usize,
}

impl SoakReport {
    /// True when every requested program ran (or was journaled) clean.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && !self.interrupted
    }
}

// ---------------------------------------------------------------------------
// Observation sink
// ---------------------------------------------------------------------------

/// FNV-1a step over one little-endian word.
fn fold(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sink that reduces a run to comparable observations: a rolling hash
/// of the full event stream (for the decoded-vs-reference differential),
/// the executed-store address stream (for the cross-model architectural
/// oracle), and [`DynStats`] counters (for the timing-sanity oracle).
/// Bounded memory: only store addresses are retained, never events.
struct SoakSink {
    hash: u64,
    events: u64,
    stores: Vec<u64>,
    dync: DynStats,
}

impl SoakSink {
    fn new() -> SoakSink {
        SoakSink {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
            stores: Vec::new(),
            dync: DynStats::new(),
        }
    }
}

impl TraceSink for SoakSink {
    fn enter_block(&mut self, func: FuncId, block: BlockId) {
        self.dync.enter_block(func, block);
        self.hash = fold(fold(self.hash, u64::from(func.0)), u64::from(block.0));
    }

    fn inst(&mut self, ev: &Event) {
        self.dync.inst(ev);
        self.events += 1;
        let mut h = fold(self.hash, ev.code as u64);
        h = fold(h, ev.index as u64);
        h = fold(
            h,
            u64::from(ev.nullified) | (ev.taken.map_or(0, |t| 2 | u64::from(t) << 2)),
        );
        h = fold(h, ev.mem_addr.map_or(u64::MAX, |a| a));
        self.hash = h;
        if matches!(ev.code, DCode::StByte | DCode::StWord)
            && !ev.nullified
            && ev.mem_addr.is_some_and(|a| a != SAFE_ADDR)
        {
            self.stores.push(ev.mem_addr.unwrap_or(0));
        }
    }
}

/// Architectural observations of one (model, machine) configuration.
struct Observed {
    ret: i64,
    stores: Vec<u64>,
}

// ---------------------------------------------------------------------------
// The per-configuration oracle battery
// ---------------------------------------------------------------------------

fn pipe_for(sabotage: Option<Stage>, fuel: u64) -> Pipeline {
    Pipeline {
        // Soak's whole point is end-to-end checking: every per-pass lint
        // checkpoint stays on even in release builds.
        checks: true,
        sabotage,
        profile_fuel: fuel,
        ..Pipeline::default()
    }
}

/// The reference configuration every (model, width) is checked against:
/// the unpredicated superblock model on a 1-issue machine. Unlike the
/// paper's speedup denominator it keeps the cache model every soak
/// configuration simulates under: it is an oracle reference, and the
/// caches are part of what the timing-sanity checks exercise.
fn reference(max_cycles: u64) -> CellSpec {
    CellSpec {
        experiment: SOAK_EXPERIMENT.into(),
        model: Some(Model::Superblock),
        memory: MemoryModel::Caches(CacheConfig::default()),
        ..CellSpec::baseline(max_cycles)
    }
}

fn oracle(workload: &str, model: Model, check: &'static str, detail: String) -> PipelineError {
    PipelineError::Oracle {
        workload: workload.to_string(),
        model,
        check,
        detail,
    }
}

/// Compiles `spec`'s configuration (with the degradation ladder), runs the
/// decoded and reference emulators differentially, simulates, and checks
/// every single-config oracle. Returns the stats, the architectural
/// observations (for the caller's cross-model comparison), and whether
/// the ladder degraded.
fn run_config(
    pipe: &Pipeline,
    front: &FrontOutput,
    spec: &CellSpec,
    workload: &str,
    args: &[i64],
    module_slot: &RefCell<Option<Module>>,
) -> Result<(SimStats, Observed, bool), PipelineError> {
    // Drop any previous configuration's module first: if this compile
    // fails, triage must not dump a stale module as if it were this one.
    *module_slot.borrow_mut() = None;
    // Soak's pipeline carries the run's fuel (`pipe_for`); the
    // differential runs spend the same budget as the profiling run.
    let (model, machine, fuel) = (spec.compiled_model(), spec.machine(), pipe.profile_fuel);
    let (module, deg) = pipe.finish_degraded(front, model, &machine)?;
    let eargs = entry_args(args);

    // Differential emulation: decoded vs reference, full event stream.
    // Both runs are additionally audited by the predicate-relation
    // oracle: every dynamic predicate write must satisfy the claims the
    // relation analysis makes about the final module.
    let claims = PredClaims::build(&module);
    let mut pred_sink = PredOracleSink::new(&claims);
    let mut decoded_sink = SoakSink::new();
    let out = Emulator::new(&module).with_fuel(fuel).run(
        "main",
        &eargs,
        &mut Tee::new(&mut decoded_sink, &mut pred_sink),
    );
    let mut reference_sink = SoakSink::new();
    let ref_out = ReferenceEmulator::new(&module).with_fuel(fuel).run(
        "main",
        &eargs,
        &mut Tee::new(&mut reference_sink, &mut pred_sink),
    );
    // Keep the module for triage *before* any oracle can fail.
    *module_slot.borrow_mut() = Some(module.clone());
    if let Some(v) = pred_sink.violation.take() {
        return Err(oracle(workload, model, "pred-relations", v));
    }
    let (out, ref_out) = match (out, ref_out) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(a), Err(b)) if format!("{a}") == format!("{b}") => return Err(a.into()),
        (a, b) => {
            return Err(oracle(
                workload,
                model,
                "decoded-vs-reference",
                format!("decoded: {a:?}, reference: {b:?}"),
            ))
        }
    };
    if out.ret != ref_out.ret
        || decoded_sink.events != reference_sink.events
        || decoded_sink.hash != reference_sink.hash
    {
        return Err(oracle(
            workload,
            model,
            "decoded-vs-reference",
            format!(
                "decoded ret {} / {} events / hash {:016x}, \
                 reference ret {} / {} events / hash {:016x}",
                out.ret,
                decoded_sink.events,
                decoded_sink.hash,
                ref_out.ret,
                reference_sink.events,
                reference_sink.hash
            ),
        ));
    }

    // Timing simulation plus sanity invariants against the trace.
    let stats = simulate(&module, "main", &eargs, machine, spec.sim())?;
    let d = &decoded_sink.dync;
    let fail = |check: &'static str, detail: String| Err(oracle(workload, model, check, detail));
    if stats.ret != out.ret {
        return fail(
            "sim-ret",
            format!("sim {} vs emulator {}", stats.ret, out.ret),
        );
    }
    if stats.insts != d.insts || stats.nullified != d.nullified {
        return fail(
            "trace-insts",
            format!(
                "sim {}/{} nullified vs trace {}/{}",
                stats.insts, stats.nullified, d.insts, d.nullified
            ),
        );
    }
    if stats.branches != d.branches {
        return fail(
            "trace-branches",
            format!("sim {} vs trace {}", stats.branches, d.branches),
        );
    }
    if stats.loads != d.loads || stats.stores != d.stores {
        return fail(
            "trace-memops",
            format!(
                "sim {}/{} vs trace {}/{}",
                stats.loads, stats.stores, d.loads, d.stores
            ),
        );
    }
    let floor = stats.insts.div_ceil(u64::from(machine.issue_width.max(1)));
    if stats.cycles < floor {
        return fail(
            "cycle-floor",
            format!(
                "{} cycles < {floor} ({} insts at width {})",
                stats.cycles, stats.insts, machine.issue_width
            ),
        );
    }
    if stats.mispredicts > stats.branches
        || stats.dcache_misses > stats.loads
        || stats.icache_misses > stats.insts
    {
        return fail(
            "reference-bound",
            format!(
                "mispredicts {}/{} branches, dcache {}/{} loads, icache {}/{} insts",
                stats.mispredicts,
                stats.branches,
                stats.dcache_misses,
                stats.loads,
                stats.icache_misses,
                stats.insts
            ),
        );
    }

    Ok((
        stats,
        Observed {
            ret: out.ret,
            stores: decoded_sink.stores,
        },
        deg.is_degraded(),
    ))
}

/// Compares one configuration's architectural observations against the
/// canonical baseline's.
fn check_against_baseline(
    workload: &str,
    model: Model,
    obs: &Observed,
    base: &Observed,
) -> Result<(), PipelineError> {
    if obs.ret != base.ret {
        return Err(PipelineError::Diverged {
            workload: workload.to_string(),
            model,
            got: obs.ret,
            want: base.ret,
        });
    }
    if obs.stores != base.stores {
        let at = obs
            .stores
            .iter()
            .zip(&base.stores)
            .position(|(a, b)| a != b);
        return Err(oracle(
            workload,
            model,
            "store-stream",
            format!(
                "{} executed stores vs baseline {} (first mismatch at {:?})",
                obs.stores.len(),
                base.stores.len(),
                at
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-program battery and the soak loop
// ---------------------------------------------------------------------------

/// Names the oracle battery in every soak key. Bump it when a new check
/// joins so journals written before the check never short-circuit past it.
const BATTERY: &str = "predrel";

/// The spec a generated program is keyed under: the reference
/// configuration, filed under a namespace naming the oracle `battery` and
/// the machine widths. Its [`CellSpec::key`] covers the rest of what
/// changes the battery's behavior — the pipeline (lint checkpoints,
/// sabotage, fuel), the program's name, source and args, the cycle budget
/// and the crate version — so a journal from another seed, width set,
/// sabotage mode or battery never short-circuits a program.
fn keyed_spec(battery: &str, cfg: &SoakConfig) -> CellSpec {
    let widths: Vec<String> = cfg.widths.iter().map(|(i, b)| format!("{i}x{b}")).collect();
    CellSpec {
        experiment: format!(
            "{SOAK_EXPERIMENT}|battery={battery}|widths={}",
            widths.join(",")
        )
        .into(),
        ..reference(cfg.max_cycles)
    }
}

/// The battery outcome for one program: the last configuration's stats
/// (journaled on success), the model that produced them, and whether any
/// configuration degraded.
struct ProgramPass {
    stats: SimStats,
    model: Model,
    degraded: bool,
}

/// Runs the battery over one program. `current` tracks the configuration
/// being run, so a failure (a panic included) is recorded against it.
fn run_program(
    cfg: &SoakConfig,
    pipe: &Pipeline,
    prog: &GenProgram,
    module_slot: &RefCell<Option<Module>>,
    current: &RefCell<CellSpec>,
) -> Result<ProgramPass, PipelineError> {
    let front = pipe.front(&prog.source, &prog.args)?;

    let reference = reference(cfg.max_cycles);
    *current.borrow_mut() = reference.clone();
    let (base_stats, base_obs, base_deg) = run_config(
        pipe,
        &front,
        &reference,
        &prog.name,
        &prog.args,
        module_slot,
    )?;
    let mut pass = ProgramPass {
        stats: base_stats,
        model: Model::Superblock,
        degraded: base_deg,
    };

    for &(issue, branches) in &cfg.widths {
        for model in Model::ALL {
            let spec = CellSpec {
                model: Some(model),
                issue,
                branches,
                ..reference.clone()
            };
            if spec == reference {
                continue; // this is the reference run itself
            }
            *current.borrow_mut() = spec.clone();
            let (stats, obs, deg) =
                run_config(pipe, &front, &spec, &prog.name, &prog.args, module_slot)?;
            check_against_baseline(&prog.name, model, &obs, &base_obs)?;
            pass = ProgramPass {
                stats,
                model,
                degraded: pass.degraded || deg,
            };
        }
    }
    Ok(pass)
}

/// Runs the soak battery over `cfg.cells` generated programs, journaling
/// completions and emitting repro bundles for failures.
///
/// # Errors
/// Fails only on journal I/O errors; program failures (including panics)
/// are contained, triaged, and reported in the [`SoakReport`].
pub fn run_soak(cfg: &SoakConfig) -> io::Result<SoakReport> {
    let journal = match &cfg.journal {
        Some(p) => Some(Store::open(p)?),
        None => None,
    };
    let profiles: &[Profile] = if cfg.profiles.is_empty() {
        &Profile::ALL
    } else {
        &cfg.profiles
    };
    let mut report = SoakReport {
        programs: cfg.cells,
        journal_corrupt: journal.as_ref().map_or(0, Store::corrupt),
        ..SoakReport::default()
    };
    let pipe = pipe_for(cfg.sabotage, cfg.fuel);
    let keyed = keyed_spec(BATTERY, cfg);

    for i in 0..cfg.cells {
        if cfg.cell_limit.is_some_and(|limit| i >= limit) {
            report.interrupted = true;
            break;
        }
        let profile = profiles[i % profiles.len()];
        let prog = generate(profile, cfg.seed.wrapping_add(i as u64));
        let fp = keyed.key(&pipe, &prog.name, &prog.source, &prog.args);
        if journal.as_ref().is_some_and(|j| j.get(&fp).is_some()) {
            report.skipped += 1;
            continue;
        }

        // Per-program containment: a panic anywhere in the battery fails
        // this program, never the run. The slots exist because a panic
        // unwinds past the battery's return value.
        let module_slot: RefCell<Option<Module>> = RefCell::new(None);
        // Until the reference run starts, a failure is the front half's.
        let current = RefCell::new(CellSpec {
            model: None,
            ..reference(cfg.max_cycles)
        });
        let caught = catch_cell(|| run_program(cfg, &pipe, &prog, &module_slot, &current));
        report.ran += 1;

        let payload = match caught {
            Ok(Ok(pass)) => {
                if pass.degraded {
                    report.degraded += 1;
                }
                if let Some(j) = &journal {
                    j.put(&JournalEntry {
                        fingerprint: &fp,
                        workload: &prog.name,
                        experiment: SOAK_EXPERIMENT,
                        model: Some(pass.model),
                        stats: &pass.stats,
                    })?;
                }
                continue;
            }
            Ok(Err(e)) => FailurePayload::Error(e),
            Err(panic_msg) => FailurePayload::Panic(panic_msg),
        };

        let stage = match &payload {
            FailurePayload::Error(e) => stage_of(e),
            FailurePayload::Panic(_) => FailureStage::Compile,
        };
        let cell = ReproCell {
            workload: prog.name.clone(),
            args: prog.args.clone(),
            spec: current.into_inner(),
            fault_injection: false,
            sabotage: cfg.sabotage,
            stage,
            signature: triage::signature(&payload),
            fingerprint: fp,
            attempts: 1,
        };
        let bundle = cfg.triage.as_ref().and_then(|tcfg| {
            match triage::write_bundle(
                tcfg,
                &cell,
                &prog.source,
                &payload.to_string(),
                module_slot.borrow().as_ref(),
            ) {
                Ok(dir) => Some(dir),
                Err(e) => {
                    eprintln!("soak: could not write bundle for {}: {e}", prog.name);
                    None
                }
            }
        });
        report.failures.push(SoakFailure {
            workload: prog.name.clone(),
            profile: prog.profile,
            seed: prog.seed,
            signature: cell.signature,
            bundle,
        });
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Replay (for `hyperpredc repro` and the minimizers)
// ---------------------------------------------------------------------------

/// Replays one soak cell's oracle battery over `source`: the canonical
/// baseline, then the cell's own (model, machine) configuration with the
/// cross-model comparison. Returns the failure signature, or `None` when
/// everything passes. This is what [`triage::replay`] delegates soak
/// cells to, so minimization probes reproduce oracle failures too.
pub(crate) fn replay_cell(cell: &ReproCell, source: &str) -> Option<String> {
    let module_slot: RefCell<Option<Module>> = RefCell::new(None);
    let caught = catch_cell(|| -> Result<(), PipelineError> {
        let pipe = pipe_for(cell.sabotage, SoakConfig::new(0, 0).fuel);
        let front = pipe.front(source, &cell.args)?;
        let reference = reference(cell.spec.max_cycles);
        let (_, base_obs, _) = run_config(
            &pipe,
            &front,
            &reference,
            &cell.workload,
            &cell.args,
            &module_slot,
        )?;
        if let Some(model) = cell.spec.model {
            if cell.spec != reference {
                let (_, obs, _) = run_config(
                    &pipe,
                    &front,
                    &cell.spec,
                    &cell.workload,
                    &cell.args,
                    &module_slot,
                )?;
                check_against_baseline(&cell.workload, model, &obs, &base_obs)?;
            }
        }
        Ok(())
    });
    match caught {
        Err(panic_msg) => Some(triage::signature(&FailurePayload::Panic(panic_msg))),
        Ok(Err(e)) => Some(triage::signature(&FailurePayload::Error(e))),
        Ok(Ok(())) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A soak key changes with everything that changes what the battery
    /// does to a program, and one key is pinned: a journal written before
    /// a change to it re-runs every program once, so the change must be
    /// deliberate.
    #[test]
    fn soak_keys_cover_the_battery_and_are_pinned() {
        let (name, source, args) = (
            "gen-branchy-7",
            "int main(int a, int b) { return a; }",
            [3, 4],
        );
        let cfg = SoakConfig::new(7, 1);
        let key = |battery: &str, cfg: &SoakConfig, pipe: &Pipeline| {
            keyed_spec(battery, cfg).key(pipe, name, source, &args)
        };
        let pipe = pipe_for(cfg.sabotage, cfg.fuel);
        let pinned = key(BATTERY, &cfg, &pipe);
        assert_eq!(pinned, "2e9c57d6f04e370d");

        let unpromoted = Pipeline {
            promote: false,
            ..pipe
        };
        let other = |edit: fn(&mut SoakConfig)| {
            let mut c = cfg.clone();
            edit(&mut c);
            c
        };
        let narrow = other(|c| c.widths = vec![(4, 1)]);
        let budget = other(|c| c.max_cycles += 1);
        let variants = [
            ("a pipeline field", key(BATTERY, &cfg, &unpromoted)),
            ("the battery tag", key("predrel+1", &cfg, &pipe)),
            ("the widths", key(BATTERY, &narrow, &pipe)),
            ("the cycle budget", key(BATTERY, &budget, &pipe)),
            (
                "the sabotage",
                key(BATTERY, &cfg, &pipe_for(Some(Stage::Promote), cfg.fuel)),
            ),
            (
                "the fuel",
                key(BATTERY, &cfg, &pipe_for(None, cfg.fuel + 1)),
            ),
            (
                "the program name",
                keyed_spec(BATTERY, &cfg).key(&pipe, "gen-nasty-7", source, &args),
            ),
            (
                "the source",
                keyed_spec(BATTERY, &cfg).key(&pipe, name, "int main() { return 0; }", &args),
            ),
            (
                "the args",
                keyed_spec(BATTERY, &cfg).key(&pipe, name, source, &[3, 5]),
            ),
        ];
        for (what, variant) in variants {
            assert_ne!(variant, pinned, "changing {what} must change the key");
        }
    }
}
