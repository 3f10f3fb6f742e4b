//! Failure triage: self-contained repro bundles and a delta-debugging
//! minimizer for permanently failed matrix cells.
//!
//! When a cell exhausts its retries, the engine (given a [`TriageConfig`])
//! emits a *repro bundle*: a directory holding everything needed to
//! replay the failure on another machine with nothing but this repo —
//!
//! * `cell.json` — the cell's exact configuration (workload, its
//!   [`CellSpec`]: experiment, model, machine, memory and cycle budget;
//!   fault-injection flag), the failure stage, the normalized
//!   *signature*, and the full payload. It is read strictly: a model,
//!   memory, stage or sabotage no writer produces is an error naming
//!   the field, never a default that would replay a different cell;
//! * `workload.c` — the MiniC source (replay recompiles from source:
//!   the IR text dump does not carry global initializers, so source is
//!   the only self-contained input);
//! * `ir.txt` — the lowered, scheduled IR via [`hyperpred_ir`]'s printer,
//!   when compilation got far enough to produce a module;
//! * `minimized.txt` / `minimized.c` + `minimize.json` — the greedy
//!   delta-debugged reduction, when minimization applies (see below).
//!
//! `hyperpredc repro <bundle>` replays a bundle and compares signatures:
//! exit 1 when the same failure reproduces, 0 when the cell now passes,
//! 3 when it fails differently.
//!
//! # Signatures
//!
//! A signature is a short, stable normalization of a failure — stable
//! across replays and across minimization steps, which means it must
//! exclude anything incidental: instruction counts, source locations,
//! concrete trap addresses, diverging return values. Two failures with
//! the same signature are treated as the same bug.
//!
//! # Minimization
//!
//! The minimizer is greedy delta debugging over the failing program:
//! for simulate-stage failures it operates on the compiled [`Module`]
//! in memory (drop a block from a function's layout, then drop single
//! instructions, keeping each removal iff the replayed signature is
//! unchanged); for compile-stage failures, where no module exists, it
//! drops source lines the same way. Budget failures (`sim: cycle-limit`,
//! `sim: deadline`) are not minimized — every probe would cost a full
//! budget's worth of simulation, and a smaller program usually stops
//! tripping the budget anyway.

use crate::experiments::CellSpec;
use crate::faults;
use crate::journal::{model_from_slug, model_slug};
use crate::json::{self, Object, Value};
use crate::matrix::{catch_cell, FailurePayload, FailureStage};
use crate::pipeline::{Pipeline, PipelineError, Stage};
use crate::service::{memory_slug, parse_memory, width};
use hyperpred_ir::Module;
use hyperpred_lang::lower::entry_args;
use hyperpred_sim::{simulate, SimError, SimStats};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Schema version stamped into `cell.json` and `minimize.json`.
pub const BUNDLE_VERSION: u64 = 1;

/// Upper bound on minimizer replays per bundle, so triage of a large
/// failing program stays bounded.
const MAX_PROBES: usize = 4096;

/// Where the engine emits repro bundles.
#[derive(Debug, Clone)]
pub struct TriageConfig {
    /// Directory bundles are created under (one subdirectory per cell).
    pub dir: PathBuf,
}

impl TriageConfig {
    /// Bundles under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> TriageConfig {
        TriageConfig { dir: dir.into() }
    }
}

/// Everything `hyperpredc repro` needs to replay one cell, as stored in
/// (and parsed back from) `cell.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproCell {
    /// Workload name.
    pub workload: String,
    /// Workload arguments.
    pub args: Vec<i64>,
    /// The failed cell: its experiment, model, machine, memory model and
    /// cycle budget.
    pub spec: CellSpec,
    /// Whether fault-injection markers were honored.
    pub fault_injection: bool,
    /// Chaos sabotage applied after this pass, if any (soak's sabotage
    /// mode records it so replay rebreaks the build the same way).
    pub sabotage: Option<Stage>,
    /// Stage the failure occurred in.
    pub stage: FailureStage,
    /// Normalized failure signature (see [`signature`]).
    pub signature: String,
    /// Config fingerprint (matches the run journal's key).
    pub fingerprint: String,
    /// Attempts spent before the failure became permanent.
    pub attempts: u32,
}

/// A loaded repro bundle.
#[derive(Debug)]
pub struct Bundle {
    /// Directory the bundle lives in.
    pub dir: PathBuf,
    /// The parsed cell configuration.
    pub cell: ReproCell,
    /// The workload source.
    pub source: String,
}

// ---------------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------------

/// Normalizes a failure payload into a stable signature: the same bug
/// replayed (or minimized) yields the same string, while incidental
/// detail — instruction counts, panic locations, trap addresses,
/// diverging values — is stripped.
pub fn signature(payload: &FailurePayload) -> String {
    match payload {
        FailurePayload::Panic(msg) => {
            // Captured panics carry " (at file:line:col) [cell ...]";
            // keep only the message proper.
            let msg = msg.split(" (at ").next().unwrap_or(msg);
            format!("panic: {msg}")
        }
        FailurePayload::Error(e) => signature_of_error(e),
    }
}

fn signature_of_error(e: &PipelineError) -> String {
    match e {
        PipelineError::Compile(c) => format!("compile: {c}"),
        PipelineError::Emu(e) => format!("emulate: {}", emu_kind(e)),
        PipelineError::Sim(SimError::CycleLimit { .. }) => "sim: cycle-limit".to_string(),
        PipelineError::Sim(SimError::Deadline { .. }) => "sim: deadline".to_string(),
        PipelineError::Sim(SimError::Emu(e)) => format!("emulate: {}", emu_kind(e)),
        PipelineError::Lint(l) => format!("lint: after pass `{}`", l.pass),
        PipelineError::Sched(s) => format!("sched: {}", s.func),
        // value/limit are excluded on purpose: minimization changes the
        // concrete counts while the bug (this pass blows its budget)
        // persists.
        PipelineError::Budget { pass, metric, .. } => {
            format!("budget: {} {metric}", pass.name())
        }
        // got/want are excluded on purpose: minimization changes the
        // concrete values while the bug (this model diverges) persists.
        PipelineError::Diverged { model, .. } => format!("diverged: {model}"),
        // detail is excluded for the same reason; `check` is stable.
        PipelineError::Oracle { check, .. } => format!("oracle: {check}"),
    }
}

fn emu_kind(e: &hyperpred_emu::EmuError) -> &'static str {
    use hyperpred_emu::EmuError;
    match e {
        EmuError::Trap { .. } => "trap",
        EmuError::DivByZero { .. } => "div-by-zero",
        EmuError::OutOfFuel { .. } => "out-of-fuel",
        EmuError::CallDepth { .. } => "call-depth",
        EmuError::Malformed { .. } => "malformed",
        EmuError::SinkAbort { .. } => "sink-abort",
        EmuError::NoFunc(_) => "no-func",
        EmuError::BadGlobal(_) => "bad-global",
    }
}

/// Whether the minimizer should run for this signature. Budget failures
/// are excluded: each probe would simulate a full budget, and shrinking
/// the program changes the very thing that trips it.
pub fn minimizable(sig: &str) -> bool {
    sig != "sim: cycle-limit" && sig != "sim: deadline"
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

fn pipe_of(cell: &ReproCell) -> Pipeline {
    Pipeline {
        fault_injection: cell.fault_injection,
        sabotage: cell.sabotage,
        ..Pipeline::default()
    }
}

/// Replays one cell from source exactly as the matrix engine runs it:
/// compile, (optionally) trip the simulate-stage injection point, then
/// the timing simulation. Returns the failure signature, or `None` when
/// the cell completes — for a cell recorded as diverged, "completes"
/// additionally means the model's result matches a fresh baseline run.
pub fn replay(cell: &ReproCell, source: &str) -> Option<String> {
    // Soak cells replay through the soak battery itself: their failure
    // may live in a cross-model or decoded-vs-reference oracle that a
    // plain compile+simulate replay can never reproduce — and soak
    // compiles with the degradation ladder, so its budget failures are
    // the *permanent* ones, not the first budget a plain compile trips.
    if cell.spec.experiment == crate::soak::SOAK_EXPERIMENT {
        return crate::soak::replay_cell(cell, source);
    }
    let pipe = pipe_of(cell);
    let run = |spec: &CellSpec| {
        catch_cell(|| -> Result<SimStats, PipelineError> {
            let machine = spec.machine();
            let module = pipe.compile(source, &cell.args, spec.compiled_model(), &machine)?;
            if pipe.fault_injection {
                faults::maybe_injected_sim_panic(&module);
            }
            let args = entry_args(&cell.args);
            Ok(simulate(&module, "main", &args, machine, spec.sim())?)
        })
    };
    let stats = match run(&cell.spec) {
        Err(panic_msg) => return Some(signature(&FailurePayload::Panic(panic_msg))),
        Ok(Err(e)) => return Some(signature(&FailurePayload::Error(e))),
        Ok(Ok(stats)) => stats,
    };
    if let Some(model) = cell.spec.model {
        if cell.signature.starts_with("diverged:") {
            let base = run(&CellSpec::baseline(cell.spec.max_cycles));
            if matches!(base, Ok(Ok(base)) if base.ret != stats.ret) {
                return Some(format!("diverged: {model}"));
            }
        }
    }
    None
}

/// Replays an already-compiled module (the simulate half only): the
/// injection point, then the timing simulation. Used by the module-level
/// minimizer, whose candidates exist only in memory.
fn replay_module(cell: &ReproCell, module: &Module) -> Option<String> {
    let caught = catch_cell(|| -> Result<SimStats, SimError> {
        if cell.fault_injection {
            faults::maybe_injected_sim_panic(module);
        }
        let args = entry_args(&cell.args);
        simulate(module, "main", &args, cell.spec.machine(), cell.spec.sim())
    });
    match caught {
        Err(panic_msg) => Some(signature(&FailurePayload::Panic(panic_msg))),
        Ok(Err(e)) => Some(signature(&FailurePayload::Error(e.into()))),
        Ok(Ok(_)) => None,
    }
}

// ---------------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------------

/// Result of module-level minimization.
#[derive(Debug)]
pub struct MinimizedModule {
    /// The shrunken module (same failure signature as the original).
    pub module: Module,
    /// Total laid-out instructions before.
    pub original_insts: usize,
    /// Total laid-out instructions after.
    pub minimized_insts: usize,
    /// The preserved failure signature.
    pub signature: String,
}

fn module_insts(m: &Module) -> usize {
    m.funcs.iter().map(hyperpred_ir::Function::size).sum()
}

/// Greedy delta debugging on a compiled module: first drop whole blocks
/// from each function's layout, then single instructions, keeping each
/// removal iff the replayed failure signature is unchanged. Returns
/// `None` when the original module does not fail to begin with.
pub fn minimize_module(cell: &ReproCell, module: &Module) -> Option<MinimizedModule> {
    let target = replay_module(cell, module)?;
    let mut best = module.clone();
    let mut probes = 0usize;
    let mut shrunk = true;
    while shrunk && probes < MAX_PROBES {
        shrunk = false;
        // Pass 1: drop non-entry blocks from layouts.
        for f in 0..best.funcs.len() {
            let mut i = 1; // layout[0] is the entry; never dropped
            while i < best.funcs[f].layout.len() && probes < MAX_PROBES {
                let mut cand = best.clone();
                cand.funcs[f].layout.remove(i);
                probes += 1;
                if replay_module(cell, &cand).as_deref() == Some(&target) {
                    best = cand;
                    shrunk = true;
                } else {
                    i += 1;
                }
            }
        }
        // Pass 2: drop single instructions from laid-out blocks.
        for f in 0..best.funcs.len() {
            for li in 0..best.funcs[f].layout.len() {
                let b = best.funcs[f].layout[li];
                let mut j = 0;
                while j < best.funcs[f].block(b).insts.len() && probes < MAX_PROBES {
                    let mut cand = best.clone();
                    cand.funcs[f].block_mut(b).insts.remove(j);
                    probes += 1;
                    if replay_module(cell, &cand).as_deref() == Some(&target) {
                        best = cand;
                        shrunk = true;
                    } else {
                        j += 1;
                    }
                }
            }
        }
    }
    Some(MinimizedModule {
        original_insts: module_insts(module),
        minimized_insts: module_insts(&best),
        module: best,
        signature: target,
    })
}

/// Result of source-level minimization.
#[derive(Debug)]
pub struct MinimizedSource {
    /// The shrunken source (same failure signature as the original).
    pub source: String,
    /// Source lines before.
    pub original_lines: usize,
    /// Source lines after.
    pub minimized_lines: usize,
    /// The preserved failure signature.
    pub signature: String,
}

/// The index of the line that closes the brace block opened on
/// `lines[i]`, when that line leaves net brace depth positive (an `if`,
/// loop, or function header). Lines that don't open a block — or whose
/// block never closes — yield `None`.
fn block_end(lines: &[&str], i: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, line) in lines.iter().enumerate().skip(i) {
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if j == i && depth <= 0 {
            return None; // opens nothing (or is self-contained)
        }
        if depth <= 0 {
            return Some(j);
        }
    }
    None
}

/// Greedy delta debugging on MiniC source, for failures with no compiled
/// module (compile-stage panics and errors). Two passes: first drop
/// whole brace-delimited chunks (a statement opening a block through its
/// matching close — removes an `if`/loop/function in one probe instead
/// of leaving unbalanced braces behind), then single lines. Each removal
/// is kept iff the replayed signature is unchanged. Returns `None` when
/// the original source does not fail.
pub fn minimize_source(cell: &ReproCell, source: &str) -> Option<MinimizedSource> {
    let target = replay(cell, source)?;
    let original_lines = source.lines().count();
    let mut lines: Vec<&str> = source.lines().collect();
    let mut probes = 0usize;
    // Pass 1: brace-aware chunks.
    let mut i = 0;
    while i < lines.len() && probes < MAX_PROBES {
        if let Some(end) = block_end(&lines, i) {
            let mut cand = lines.clone();
            cand.drain(i..=end);
            probes += 1;
            if replay(cell, &cand.join("\n")).as_deref() == Some(&target) {
                lines.drain(i..=end);
                continue; // a new chunk may now start at i
            }
        }
        i += 1;
    }
    // Pass 2: single lines.
    let mut i = 0;
    while i < lines.len() && probes < MAX_PROBES {
        let mut cand = lines.clone();
        cand.remove(i);
        probes += 1;
        if replay(cell, &cand.join("\n")).as_deref() == Some(&target) {
            lines.remove(i);
        } else {
            i += 1;
        }
    }
    Some(MinimizedSource {
        source: lines.join("\n"),
        original_lines,
        minimized_lines: lines.len(),
        signature: target,
    })
}

// ---------------------------------------------------------------------------
// Bundle I/O
// ---------------------------------------------------------------------------

/// Filesystem-safe slug: alphanumerics kept, everything else `-`,
/// truncated so directory names stay reasonable.
fn slug(s: &str, max: usize) -> String {
    let mut out = String::with_capacity(max);
    for c in s.chars() {
        if out.len() >= max {
            break;
        }
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// The bundle directory for a cell, under the triage root.
pub fn bundle_dir(root: &Path, cell: &ReproCell) -> PathBuf {
    root.join(format!(
        "{}-{}-{}",
        slug(&cell.workload, 24),
        slug(&cell.spec.experiment, 24),
        model_slug(cell.spec.model),
    ))
}

/// `cell.json`: one compact object and a newline.
fn cell_json(cell: &ReproCell, payload_text: &str) -> String {
    let args: Vec<String> = cell.args.iter().map(i64::to_string).collect();
    Object::default()
        .u64("version", BUNDLE_VERSION)
        .str("fingerprint", &cell.fingerprint)
        .str("workload", &cell.workload)
        .str("experiment", &cell.spec.experiment)
        .str("model", model_slug(cell.spec.model))
        .str("args", &args.join(","))
        .u64("issue", cell.spec.issue.into())
        .u64("branches", cell.spec.branches.into())
        .str("memory", memory_slug(&cell.spec.memory))
        .u64("max_cycles", cell.spec.max_cycles)
        .bool("fault_injection", cell.fault_injection)
        .str("sabotage", cell.sabotage.map_or("none", Stage::name))
        .str("stage", &cell.stage.to_string())
        .u64("attempts", cell.attempts.into())
        .str("signature", &cell.signature)
        .str("payload", payload_text)
        .finish()
        + "\n"
}

/// `minimize.json`: what the minimizer shrank, from how much to how
/// little, and the signature it preserved.
fn minimize_json(kind: &str, unit: &str, sizes: (usize, usize), signature: &str) -> String {
    Object::default()
        .u64("version", BUNDLE_VERSION)
        .str("kind", kind)
        .u64(&format!("original_{unit}"), sizes.0 as u64)
        .u64(&format!("minimized_{unit}"), sizes.1 as u64)
        .str("signature", signature)
        .finish()
        + "\n"
}

/// A field that must hold one of the values the writer produces: anything
/// else is an error naming the field, never a silent default — a misread
/// model or memory would replay a different cell.
fn known<T>(key: &str, value: &str, parsed: Option<T>) -> Result<T, String> {
    parsed.ok_or_else(|| format!("field `{key}` has unknown value `{value}`"))
}

/// Reads `cell.json`; errors name the field at fault.
fn parse_cell_json(text: &str) -> Result<ReproCell, String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    let version = v
        .field("version", Value::num::<u64>)?
        .ok_or("missing field `version`")?;
    if version != BUNDLE_VERSION {
        return Err(format!(
            "bundle version {version} != supported {BUNDLE_VERSION}"
        ));
    }
    let need = |key: &str| {
        v.field(key, Value::as_str)?
            .ok_or_else(|| format!("missing field `{key}`"))
    };
    let args = need("args")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad arg `{s}`")))
        .collect::<Result<Vec<i64>, String>>()?;
    let model = match need("model")? {
        slug if slug == model_slug(None) => None,
        slug => Some(known("model", slug, model_from_slug(slug))?),
    };
    let (memory, stage) = (need("memory")?, need("stage")?);
    let stages = [
        FailureStage::Compile,
        FailureStage::Emulate,
        FailureStage::Simulate,
    ];
    // A zero width has no machine: `MachineConfig::new` asserts on it.
    let machine_width = |key: &str| match width(&v, key)? {
        0 => Err(format!("field `{key}` out of range: 0")),
        n => Ok(n),
    };
    Ok(ReproCell {
        workload: need("workload")?.to_string(),
        args,
        spec: CellSpec {
            experiment: need("experiment")?.to_string().into(),
            model,
            issue: machine_width("issue")?,
            branches: machine_width("branches")?,
            memory: known("memory", memory, parse_memory(memory))?,
            max_cycles: v
                .field("max_cycles", Value::num)?
                .ok_or("missing field `max_cycles`")?,
        },
        fault_injection: v.field("fault_injection", Value::as_bool)?.unwrap_or(false),
        // "none" and a missing key (pre-soak bundles) read back as no
        // sabotage; anything else must name a pass.
        sabotage: match v.field("sabotage", Value::as_str)? {
            None | Some("none") => None,
            Some(pass) => Some(known("sabotage", pass, pass.parse().ok())?),
        },
        stage: known(
            "stage",
            stage,
            stages.into_iter().find(|s| s.to_string() == stage),
        )?,
        signature: need("signature")?.to_string(),
        fingerprint: need("fingerprint")?.to_string(),
        attempts: v.field("attempts", Value::num)?.unwrap_or(1),
    })
}

/// Writes one repro bundle. `module` is the compiled module when the
/// failure happened after compilation (its IR is dumped, and module-level
/// minimization applies); `source` is always stored, because replay
/// recompiles from source.
///
/// # Errors
/// Fails on I/O errors only; minimization failures degrade to "no
/// minimized artifact", never to a write error.
pub fn write_bundle(
    cfg: &TriageConfig,
    cell: &ReproCell,
    source: &str,
    payload_text: &str,
    module: Option<&Module>,
) -> io::Result<PathBuf> {
    let dir = bundle_dir(&cfg.dir, cell);
    std::fs::create_dir_all(&dir)?;
    write_file(&dir.join("cell.json"), &cell_json(cell, payload_text))?;
    write_file(&dir.join("workload.c"), source)?;
    if let Some(m) = module {
        write_file(&dir.join("ir.txt"), &format!("{m}"))?;
    }
    if minimizable(&cell.signature) {
        if let Some(m) = module {
            if let Some(min) = minimize_module(cell, m) {
                write_file(&dir.join("minimized.txt"), &format!("{}", min.module))?;
                write_file(
                    &dir.join("minimize.json"),
                    &minimize_json(
                        "module",
                        "insts",
                        (min.original_insts, min.minimized_insts),
                        &min.signature,
                    ),
                )?;
            }
        }
        // Source-level minimization runs regardless of whether a module
        // exists: `minimized.c` is the artifact a human reads, and the
        // only one that replays end-to-end from nothing but the bundle.
        if let Some(min) = minimize_source(cell, source) {
            write_file(&dir.join("minimized.c"), &min.source)?;
            if module.is_none() {
                write_file(
                    &dir.join("minimize.json"),
                    &minimize_json(
                        "source",
                        "lines",
                        (min.original_lines, min.minimized_lines),
                        &min.signature,
                    ),
                )?;
            }
        }
    }
    Ok(dir)
}

fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(contents.as_bytes())
}

/// Loads a bundle directory written by [`write_bundle`].
///
/// # Errors
/// Fails with a human-readable message when `cell.json` or `workload.c`
/// is missing or malformed.
pub fn load_bundle(dir: impl AsRef<Path>) -> Result<Bundle, String> {
    let dir = dir.as_ref().to_path_buf();
    let json = std::fs::read_to_string(dir.join("cell.json"))
        .map_err(|e| format!("{}: cannot read cell.json: {e}", dir.display()))?;
    let cell = parse_cell_json(&json).map_err(|e| format!("cell.json: {e}"))?;
    let source = std::fs::read_to_string(dir.join("workload.c"))
        .map_err(|e| format!("{}: cannot read workload.c: {e}", dir.display()))?;
    Ok(Bundle { dir, cell, source })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Model;
    use hyperpred_sim::MemoryModel;

    fn cell(signature: &str) -> ReproCell {
        ReproCell {
            workload: "inject-panic".to_string(),
            args: vec![3, -4],
            spec: CellSpec {
                experiment: "Figure 8: 8-issue, 1-branch, perfect caches".into(),
                model: Some(Model::FullPred),
                issue: 8,
                branches: 1,
                memory: MemoryModel::Perfect,
                max_cycles: 2_000_000,
            },
            fault_injection: true,
            sabotage: Some(crate::pipeline::Stage::Promote),
            stage: FailureStage::Compile,
            signature: signature.to_string(),
            fingerprint: "abc123".to_string(),
            attempts: 2,
        }
    }

    #[test]
    fn signatures_strip_incidental_detail() {
        let p = FailurePayload::Panic(
            "boom happened (at crates/core/src/x.rs:1:2) [cell wc / Figure 8 / Full Pred.]"
                .to_string(),
        );
        assert_eq!(signature(&p), "panic: boom happened");
        let e = FailurePayload::Error(PipelineError::Sim(SimError::CycleLimit {
            limit: 99,
            insts: 1234,
        }));
        assert_eq!(signature(&e), "sim: cycle-limit");
        let d = FailurePayload::Error(PipelineError::Diverged {
            workload: "w".to_string(),
            model: Model::FullPred,
            got: 1,
            want: 2,
        });
        assert_eq!(signature(&d), "diverged: Full Pred.");
        assert!(!minimizable("sim: cycle-limit"));
        assert!(!minimizable("sim: deadline"));
        assert!(minimizable("panic: boom"));
    }

    #[test]
    fn cell_json_round_trips() {
        let c = cell("panic: injected compile-stage panic");
        let json = cell_json(&c, "panic: full text with \"quotes\"");
        let back = parse_cell_json(&json).expect("parses");
        assert_eq!(back.workload, c.workload);
        assert_eq!(back.args, c.args);
        assert_eq!(back.spec, c.spec);
        assert!(back.fault_injection);
        assert_eq!(back.sabotage, c.sabotage);
        assert_eq!(back.stage, c.stage);
        // Pre-soak bundles have no sabotage key at all.
        let legacy = json.replace("\"sabotage\":\"promote\",", "");
        assert_ne!(legacy, json);
        assert_eq!(parse_cell_json(&legacy).expect("parses").sabotage, None);
        assert_eq!(back.signature, c.signature);
        assert_eq!(back.fingerprint, c.fingerprint);
        assert_eq!(back.attempts, 2);
        // Fields are read as fields: spacing does not matter, and an
        // out-of-range width is an error naming it, not a truncation.
        assert!(json.contains("\"fault_injection\":true"), "{json}");
        assert!(parse_cell_json(&json).expect("compact").fault_injection);
        let wide = json.replace("\"issue\":8", "\"issue\":4294967304");
        assert_eq!(
            parse_cell_json(&wide).unwrap_err(),
            "field `issue` out of range: 4294967304"
        );
        let mistyped = json.replace("\"fault_injection\":true", "\"fault_injection\":1");
        assert_eq!(
            parse_cell_json(&mistyped).unwrap_err(),
            "field `fault_injection` has the wrong type"
        );
        // A typo is an error naming the field, never a silent default (a
        // misread model would replay the baseline instead).
        for (field, value, typo) in [
            ("model", "fullpred", "condmov"),
            ("memory", "perfect", "perfet"),
            ("stage", "compile", "compil"),
            ("sabotage", "promote", "promot"),
        ] {
            let bad = json.replace(
                &format!("\"{field}\":\"{value}\""),
                &format!("\"{field}\":\"{typo}\""),
            );
            assert_eq!(
                parse_cell_json(&bad).unwrap_err(),
                format!("field `{field}` has unknown value `{typo}`")
            );
        }
        let zero = json.replace("\"branches\":1", "\"branches\":0");
        assert_eq!(
            parse_cell_json(&zero).unwrap_err(),
            "field `branches` out of range: 0"
        );
    }

    /// A `cell.json` exactly as the pretty-printing writer before
    /// `json` wrote it.
    const PINNED_CELL_JSON: &str = "{\n  \"version\": 1,\n  \"fingerprint\": \"abc123\",\n  \
        \"workload\": \"inject-panic\",\n  \
        \"experiment\": \"Figure 8: 8-issue, 1-branch, perfect caches\",\n  \
        \"model\": \"fullpred\",\n  \"args\": \"3,-4\",\n  \"issue\": 8,\n  \
        \"branches\": 1,\n  \"memory\": \"perfect\",\n  \"max_cycles\": 2000000,\n  \
        \"fault_injection\": true,\n  \"sabotage\": \"promote\",\n  \"stage\": \"compile\",\n  \
        \"attempts\": 2,\n  \"signature\": \"panic: injected compile-stage panic\",\n  \
        \"payload\": \"panic: full text with \\\"quotes\\\"\"\n}\n";

    #[test]
    fn pinned_cell_json_loads_to_the_same_cell() {
        let c = cell("panic: injected compile-stage panic");
        let back = parse_cell_json(PINNED_CELL_JSON).expect("parses");
        assert_eq!(back, c);
        assert_eq!(
            parse_cell_json(&cell_json(&c, "panic: full text with \"quotes\"")),
            Ok(c)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 512, ..proptest::ProptestConfig::default() })]

        #[test]
        fn arbitrary_cell_json_is_a_typed_error(seed in proptest::prelude::any::<u64>()) {
            let bytes = crate::json::tests::jsonish_bytes(seed, 400);
            let _ = parse_cell_json(&String::from_utf8_lossy(&bytes));
            // One arbitrary byte spliced into a real bundle.
            let mut real = cell_json(&cell("panic: x"), "payload").into_bytes();
            let at = (seed as usize / 3) % real.len();
            real[at] = bytes.first().copied().unwrap_or(b'{');
            let _ = parse_cell_json(&String::from_utf8_lossy(&real));
        }
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(
            slug("Figure 8: 8-issue, 1-branch, perfect caches", 24),
            "figure-8-8-issue-1-branc"
        );
        assert_eq!(slug("inject-panic", 24), "inject-panic");
    }
}
