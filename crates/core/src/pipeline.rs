//! The per-model compilation pipeline and simulation driver.
//!
//! Compilation runs as a sequence of named [`Stage`]s. After every stage a
//! *checkpoint* runs the structural verifier plus the semantic checkers in
//! [`hyperpred_ir::analysis`] (always in debug builds and tests, opt-in via
//! [`Pipeline::checks`] in release); a failure is reported as
//! [`PipelineError::Lint`] naming the pass that introduced it.

use hyperpred_emu::{EmuError, Emulator, Profiler};
use hyperpred_hyperblock::{
    form_hyperblocks, form_superblocks, promote_bounded, unroll_self_loops, GrowthBudget,
    HyperblockConfig, SuperblockConfig, UnrollConfig,
};
use hyperpred_ir::analysis::{self, ModelClass, Snapshot, Violation};
use hyperpred_ir::{Cfg, FuncId, Module, RelationDb};
use hyperpred_lang::lower::entry_args;
use hyperpred_lang::CompileError;
use hyperpred_partial::{to_partial_module, PartialConfig};
use hyperpred_sched::{schedule_module, MachineConfig, SchedError};
use hyperpred_sim::{simulate, SimConfig, SimError, SimStats};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// The three architecture/compiler models the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// No predication: superblock formation + speculation (baseline).
    Superblock,
    /// Partial predication: hyperblocks converted to conditional moves.
    CondMove,
    /// Full predication: hyperblocks with guarded instructions.
    FullPred,
}

impl Model {
    /// The three models in the paper's presentation order.
    pub const ALL: [Model; 3] = [Model::Superblock, Model::CondMove, Model::FullPred];

    /// Position of this model in [`Model::ALL`] (and in every
    /// `[SimStats; 3]` the experiment layer hands out). Infallible by
    /// construction — the match is exhaustive, so no edit to `ALL` can
    /// turn this into a runtime panic.
    pub fn index(self) -> usize {
        match self {
            Model::Superblock => 0,
            Model::CondMove => 1,
            Model::FullPred => 2,
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Model::Superblock => "Superblock",
            Model::CondMove => "Cond. Move",
            Model::FullPred => "Full Pred.",
        };
        f.write_str(s)
    }
}

/// A named pipeline pass, as used for checkpoint blame and the
/// `--sabotage` chaos hook. The order here is the order the passes run in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// MiniC lowering to IR.
    Frontend,
    /// Function inlining.
    Inline,
    /// Classic optimization before profiling.
    OptPre,
    /// Hyperblock if-conversion (cmov and full-predication models).
    IfConvert,
    /// Predicate relation analysis: builds the per-function partition
    /// graph ([`hyperpred_ir::RelationDb`]) over the freshly
    /// if-converted module and validates it with the relation-soundness
    /// checker family. Analysis-only — the module is untouched — but a
    /// corrupted or unclosed graph fails the compile blamed on this
    /// stage, and the `--sabotage relations` chaos hook corrupts the
    /// held database (not the IR) to prove that path fires.
    Relations,
    /// Predicate promotion.
    Promote,
    /// Superblock formation.
    Superblock,
    /// Loop unrolling over formed regions.
    Unroll,
    /// Full-to-partial conversion (cmov model only).
    PartialConvert,
    /// Classic optimization after formation/conversion.
    OptPost,
    /// List scheduling for the target machine.
    Schedule,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 11] = [
        Stage::Frontend,
        Stage::Inline,
        Stage::OptPre,
        Stage::IfConvert,
        Stage::Relations,
        Stage::Promote,
        Stage::Superblock,
        Stage::Unroll,
        Stage::PartialConvert,
        Stage::OptPost,
        Stage::Schedule,
    ];

    /// The stage's canonical name (also accepted by [`Stage::from_str`]).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Frontend => "frontend",
            Stage::Inline => "inline",
            Stage::OptPre => "opt-pre",
            Stage::IfConvert => "ifconvert",
            Stage::Relations => "relations",
            Stage::Promote => "promote",
            Stage::Superblock => "superblock",
            Stage::Unroll => "unroll",
            Stage::PartialConvert => "partial-convert",
            Stage::OptPost => "opt-post",
            Stage::Schedule => "schedule",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Stage {
    type Err = String;

    fn from_str(s: &str) -> Result<Stage, String> {
        Stage::ALL
            .into_iter()
            .find(|st| st.name() == s)
            .ok_or_else(|| format!("unknown stage `{s}`"))
    }
}

/// A semantic-checkpoint failure: which pass left the module broken, and
/// every violation the checkers found in its output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintError {
    /// The pass after which the checkpoint fired.
    pub pass: Stage,
    /// The violations, in discovery order (never empty).
    pub violations: Vec<Violation>,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "after pass `{}`: {}", self.pass, self.violations[0])?;
        if self.violations.len() > 1 {
            write!(f, " (+{} more)", self.violations.len() - 1)?;
        }
        Ok(())
    }
}

/// A pipeline failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// MiniC frontend error.
    Compile(CompileError),
    /// Emulation error (in profiling or simulation).
    Emu(EmuError),
    /// Timing-simulation watchdog error (cycle budget).
    Sim(SimError),
    /// A per-pass semantic checkpoint found a miscompile.
    Lint(LintError),
    /// List scheduling failed (malformed dependence structure).
    Sched(SchedError),
    /// A transformation refused to proceed because it would exceed a
    /// configured growth budget (see [`UnrollConfig::max_growth_insts`]
    /// and friends). Pathological inputs degrade to this typed error —
    /// never a hang or OOM — and the [`Pipeline::finish_degraded`] ladder
    /// can retry with the offending pass disabled.
    Budget {
        /// The pass whose budget tripped.
        pass: Stage,
        /// What was being bounded (e.g. `grown-insts`).
        metric: &'static str,
        /// The value the metric reached.
        value: u64,
        /// The configured limit it exceeded.
        limit: u64,
    },
    /// An end-to-end soak oracle failed: the decoded and reference
    /// emulators disagreed on one module, a model's architectural
    /// side-effect stream diverged from the baseline's, or the timing
    /// simulator's statistics broke a sanity invariant. Like
    /// [`PipelineError::Diverged`], this is a miscompile (or simulator
    /// bug), not an input error.
    Oracle {
        /// Workload the oracle was checking.
        workload: String,
        /// The model under test when the oracle fired.
        model: Model,
        /// Which oracle failed (stable; part of the failure signature).
        check: &'static str,
        /// Human-readable mismatch detail (excluded from the signature).
        detail: String,
    },
    /// A model's simulated program result disagreed with the baseline's
    /// for the same workload — a miscompile in that model's pipeline, not
    /// an input error. Reported as a typed failure so drivers can contain
    /// it per cell instead of panicking the whole run.
    Diverged {
        /// Workload whose results disagree.
        workload: String,
        /// The model that produced the wrong answer.
        model: Model,
        /// The diverging model's program result.
        got: i64,
        /// The baseline's program result.
        want: i64,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "compile error: {e}"),
            PipelineError::Emu(e) => write!(f, "execution error: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation error: {e}"),
            PipelineError::Lint(e) => write!(f, "lint error: {e}"),
            PipelineError::Sched(e) => write!(f, "schedule error: {e}"),
            PipelineError::Budget {
                pass,
                metric,
                value,
                limit,
            } => write!(
                f,
                "budget exceeded in pass `{pass}`: {metric} = {value} > limit {limit}"
            ),
            PipelineError::Oracle {
                workload,
                model,
                check,
                detail,
            } => write!(
                f,
                "oracle `{check}` failed: {workload} under {model}: {detail}"
            ),
            PipelineError::Diverged {
                workload,
                model,
                got,
                want,
            } => write!(
                f,
                "result divergence: {workload}: {model} returned {got}, baseline {want}"
            ),
        }
    }
}

impl Error for PipelineError {}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<EmuError> for PipelineError {
    fn from(e: EmuError) -> Self {
        PipelineError::Emu(e)
    }
}

impl From<SchedError> for PipelineError {
    fn from(e: SchedError) -> Self {
        PipelineError::Sched(e)
    }
}

impl From<GrowthBudget> for PipelineError {
    fn from(b: GrowthBudget) -> Self {
        let pass = match b.pass {
            "unroll" => Stage::Unroll,
            "promote" => Stage::Promote,
            // "ifconvert" and anything a future pass reports.
            _ => Stage::IfConvert,
        };
        PipelineError::Budget {
            pass,
            metric: b.metric,
            value: b.value,
            limit: b.limit,
        }
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        match e {
            // Plain emulation failures keep their historical shape so
            // callers matching on `PipelineError::Emu` still work.
            SimError::Emu(e) => PipelineError::Emu(e),
            // Watchdogs (cycle budget, wall-clock deadline) stay typed as
            // simulation failures.
            e => PipelineError::Sim(e),
        }
    }
}

/// All pass configuration for the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    /// Trace-selection tunables for the baseline model.
    pub superblock: SuperblockConfig,
    /// Block-selection tunables for hyperblock formation.
    pub hyperblock: HyperblockConfig,
    /// Full-to-partial conversion options (conditional-move model).
    pub partial: PartialConfig,
    /// Run predicate promotion on hyperblocks.
    pub promote: bool,
    /// Run the classic optimizer before and after formation.
    pub classic_opt: bool,
    /// Inline small functions before profiling (IMPACT-style).
    pub inline: bool,
    /// Loop unrolling applied to formed regions.
    pub unroll: UnrollConfig,
    /// Budget on predicate-promotion fixpoint rounds per function;
    /// exceeding it fails with [`PipelineError::Budget`].
    pub promote_rounds: usize,
    /// Instruction budget for the profiling run (the emulator's fuel);
    /// a non-terminating input fails with `OutOfFuel` instead of hanging.
    pub profile_fuel: u64,
    /// Honor fault-injection markers in workload sources (see
    /// [`crate::faults`]). Off by default: production compiles never
    /// scan for markers semantically — this exists so the fault-injection
    /// fixtures and the `figures --inject-faults` chaos path can exercise
    /// panic containment end to end.
    pub fault_injection: bool,
    /// Run the semantic checkpoint (structural verify + the checkers in
    /// [`hyperpred_ir::analysis`]) after every pass. Defaults to on in
    /// debug builds — so the test suite always exercises it — and off in
    /// release, where `hyperpredc lint` and CI turn it on explicitly.
    pub checks: bool,
    /// Chaos hook: deliberately corrupt the module right after the named
    /// stage runs, so tests and CI can assert the *next* checkpoint
    /// catches the miscompile and blames that stage.
    pub sabotage: Option<Stage>,
}

impl Default for Pipeline {
    fn default() -> Pipeline {
        Pipeline {
            superblock: SuperblockConfig::default(),
            hyperblock: HyperblockConfig::default(),
            partial: PartialConfig::default(),
            promote: true,
            classic_opt: true,
            inline: true,
            unroll: UnrollConfig::default(),
            promote_rounds: 64,
            profile_fuel: hyperpred_emu::DEFAULT_FUEL,
            fault_injection: false,
            checks: cfg!(debug_assertions),
            sabotage: None,
        }
    }
}

/// Runs the per-pass semantic checkpoint and threads the speculation
/// snapshot from one checkpoint to the next.
struct Checkpointer<'a> {
    pipe: &'a Pipeline,
    model: Model,
    /// True once `to_partial_module` has run (cmov model).
    converted: bool,
    spec: Option<Snapshot>,
    /// Per-function predicate relation databases built by the
    /// [`Stage::Relations`] analysis stage (the *held* artifact the
    /// sabotage hook corrupts). Dropped at the next transforming
    /// checkpoint: any pass that reshapes blocks makes it stale.
    relations: Option<Vec<RelationDb>>,
}

impl Checkpointer<'_> {
    fn new(pipe: &Pipeline, model: Model) -> Checkpointer<'_> {
        Checkpointer {
            pipe,
            model,
            converted: false,
            spec: None,
            relations: None,
        }
    }

    /// The predication discipline the module must conform to right now.
    fn class(&self) -> ModelClass {
        match self.model {
            Model::Superblock => ModelClass::NoPred,
            Model::CondMove if self.converted => ModelClass::PartialPred,
            Model::CondMove | Model::FullPred => ModelClass::FullPred,
        }
    }

    /// The [`Stage::Relations`] analysis stage: builds the per-function
    /// relation database over the current module, holds it, and
    /// validates it with the relation-soundness checker family. The
    /// `--sabotage relations` chaos hook corrupts the *held database*
    /// rather than the IR — the checker must catch the graph itself
    /// lying, independent of the module being well formed.
    fn check_relations(&mut self, module: &Module) -> Result<(), PipelineError> {
        if !self.pipe.checks && self.pipe.sabotage != Some(Stage::Relations) {
            return Ok(());
        }
        self.relations = Some(
            module
                .funcs
                .iter()
                .map(|f| RelationDb::build(f, &Cfg::new(f)))
                .collect(),
        );
        let dbs = self.relations.as_mut().expect("just stored");
        if self.pipe.sabotage == Some(Stage::Relations) {
            'corrupt: for db in dbs.iter_mut() {
                for state in db.entry.iter_mut().flatten() {
                    if state.sabotage() {
                        break 'corrupt;
                    }
                }
            }
        }
        if self.pipe.checks {
            let mut violations = Vec::new();
            for (f, db) in module.funcs.iter().zip(dbs.iter()) {
                analysis::check_relation_soundness(f, db, &mut violations);
            }
            if !violations.is_empty() {
                return Err(PipelineError::Lint(LintError {
                    pass: Stage::Relations,
                    violations,
                }));
            }
        }
        Ok(())
    }

    /// Checkpoint after `stage`; fails with that stage named if the module
    /// no longer verifies or lints clean.
    fn check(&mut self, module: &mut Module, stage: Stage) -> Result<(), PipelineError> {
        // Any transforming pass reshapes blocks and predicates; the
        // relation databases held from the analysis stage are stale.
        self.relations = None;
        if self.pipe.sabotage == Some(stage) {
            sabotage_module(module);
        }
        if !self.pipe.checks {
            return Ok(());
        }
        // Structural soundness gates the semantic checkers: they assume
        // in-range registers and laid-out branch targets.
        let violations = match module.verify() {
            Err(e) => vec![Violation::from(e)],
            Ok(()) => analysis::check_module(module, self.class(), self.spec.as_ref()),
        };
        if !violations.is_empty() {
            return Err(PipelineError::Lint(LintError {
                pass: stage,
                violations,
            }));
        }
        self.spec = Some(Snapshot::of(module));
        Ok(())
    }
}

/// Deliberately miscompiles the module for the `sabotage` chaos hook:
/// guards the first instruction of `main`'s entry block with a fresh,
/// never-defined predicate register — a use-before-def (and, outside the
/// full-predication model, a conformance break) the next checkpoint must
/// catch.
fn sabotage_module(module: &mut Module) {
    let Some(f) = module
        .funcs
        .iter_mut()
        .find(|f| !f.block(f.entry()).insts.is_empty())
    else {
        return;
    };
    let p = f.fresh_pred();
    let entry = f.entry();
    f.block_mut(entry).insts[0].guard = Some(p);
}

/// The model- and machine-independent first half of a compile: frontend,
/// inlining, pre-formation optimization, and the profiling training run.
///
/// Everything up to region formation depends only on the source and the
/// training arguments, so this output is byte-identical across all
/// (model, machine) combinations of one workload. Drivers that compile a
/// workload many times — the matrix engine schedules each one for up to
/// ten (model, machine) pairs across the figures, from three formed
/// modules — compute this once with [`Pipeline::front`] and fan it out
/// through [`Pipeline::finish`].
#[derive(Debug, Clone)]
pub struct FrontOutput {
    /// The optimized pre-formation module (unpredicated, basic blocks).
    pub module: Module,
    /// The training-run profile that drives region formation.
    pub profile: Profiler,
}

/// A module formed, converted and post-optimized for one model but not
/// yet scheduled: everything [`Pipeline::finish`] does before it reads
/// the machine. One `Formed` serves every machine its model is scheduled
/// for.
#[derive(Debug, Clone)]
pub(crate) struct Formed {
    /// The formed module, checked clean by every formation checkpoint.
    pub(crate) module: Module,
    /// The model it was formed for.
    pub(crate) model: Model,
}

impl Pipeline {
    /// Compiles MiniC `source` for `model` on `machine`: frontend, classic
    /// optimization, profiling (one training run on `args`), region
    /// formation, model-specific conversion, and scheduling. The returned
    /// module is verified and ready for [`hyperpred_sim::simulate`].
    ///
    /// Equivalent to [`Pipeline::front`] followed by [`Pipeline::finish`].
    ///
    /// # Errors
    /// Fails on frontend errors or if the profiling run faults.
    pub fn compile(
        &self,
        source: &str,
        args: &[i64],
        model: Model,
        machine: &MachineConfig,
    ) -> Result<Module, PipelineError> {
        let front = self.front(source, args)?;
        self.finish(&front, model, machine)
    }

    /// Runs the model-independent pipeline half: frontend, inlining,
    /// pre-formation optimization, and the profiling run on `args`.
    ///
    /// Checkpoints here use [`ModelClass::NoPred`]: before region
    /// formation the IR is unpredicated under every model, so a predicate
    /// appearing this early is a miscompile regardless of what the
    /// back half will build.
    ///
    /// # Errors
    /// Fails on frontend errors or if the profiling run faults.
    pub fn front(&self, source: &str, args: &[i64]) -> Result<FrontOutput, PipelineError> {
        if self.fault_injection && source.contains(crate::faults::PANIC_MARKER) {
            panic!(
                "injected compile-stage panic ({} fixture)",
                crate::faults::PANIC_MARKER
            );
        }
        if self.fault_injection
            && source.contains(crate::faults::FLAKY_MARKER)
            && crate::faults::flaky_should_panic()
        {
            panic!(
                "injected flaky compile-stage panic ({} fixture)",
                crate::faults::FLAKY_MARKER
            );
        }
        let mut ck = Checkpointer::new(self, Model::Superblock);
        let mut module = hyperpred_lang::compile(source)?;
        ck.check(&mut module, Stage::Frontend)?;
        if self.inline {
            hyperpred_opt::inline::run_module(
                &mut module,
                &hyperpred_opt::inline::InlineConfig::default(),
            );
            ck.check(&mut module, Stage::Inline)?;
        }
        if self.classic_opt {
            hyperpred_opt::optimize_module(&mut module);
            ck.check(&mut module, Stage::OptPre)?;
        }
        // Profile (the paper profiles the measured run itself).
        let mut prof = Profiler::new();
        let mut emu = Emulator::new(&module).with_fuel(self.profile_fuel);
        emu.run("main", &entry_args(args), &mut prof)?;
        Ok(FrontOutput {
            module,
            profile: prof,
        })
    }

    /// Runs the model- and machine-specific pipeline half on a
    /// [`FrontOutput`]: region formation, model conversion, post
    /// optimization, and scheduling. `front` is not consumed — the same
    /// front half fans out to every (model, machine) combination.
    ///
    /// Only the last step, list scheduling, reads `machine`; the matrix
    /// engine forms each (workload, model) once and schedules that module
    /// per machine, with the same result.
    ///
    /// # Errors
    /// Fails if a semantic checkpoint rejects a pass's output.
    pub fn finish(
        &self,
        front: &FrontOutput,
        model: Model,
        machine: &MachineConfig,
    ) -> Result<Module, PipelineError> {
        self.schedule(self.form(front, model)?, machine)
    }

    /// The machine-independent part of [`Pipeline::finish`]: region
    /// formation, the relations check, promotion, unrolling, partial
    /// conversion and post optimization, each followed by its checkpoint.
    /// Every [`PipelineError::Budget`] comes from here.
    pub(crate) fn form(&self, front: &FrontOutput, model: Model) -> Result<Formed, PipelineError> {
        let mut module = front.module.clone();
        let prof = &front.profile;
        let mut ck = Checkpointer::new(self, model);
        if self.checks {
            // Re-seed the speculation snapshot the front half's last
            // checkpoint would have handed over.
            ck.spec = Some(Snapshot::of(&module));
        }

        // Region formation runs one stage at a time across all functions
        // (functions are independent), so each checkpoint sees the whole
        // module as one named pass left it.
        let each =
            |module: &mut Module,
             apply: &dyn Fn(&mut hyperpred_ir::Function, FuncId) -> Result<(), PipelineError>|
             -> Result<(), PipelineError> {
                for (i, f) in module.funcs.iter_mut().enumerate() {
                    apply(f, FuncId(i as u32))?;
                }
                Ok(())
            };
        match model {
            Model::Superblock => {
                each(&mut module, &|f, fid| {
                    form_superblocks(f, fid, prof, &self.superblock);
                    Ok(())
                })?;
                ck.check(&mut module, Stage::Superblock)?;
            }
            Model::CondMove | Model::FullPred => {
                each(&mut module, &|f, fid| {
                    form_hyperblocks(f, fid, prof, &self.hyperblock)?;
                    Ok(())
                })?;
                ck.check(&mut module, Stage::IfConvert)?;
                ck.check_relations(&module)?;
                if self.promote {
                    each(&mut module, &|f, _| {
                        promote_bounded(f, self.promote_rounds)?;
                        Ok(())
                    })?;
                    ck.check(&mut module, Stage::Promote)?;
                }
                // Code the if-converter left alone (call-heavy regions)
                // still gets superblock treatment, as in IMPACT.
                each(&mut module, &|f, fid| {
                    form_superblocks(f, fid, prof, &self.superblock);
                    Ok(())
                })?;
                ck.check(&mut module, Stage::Superblock)?;
            }
        }
        each(&mut module, &|f, fid| {
            unroll_self_loops(f, fid, prof, &self.unroll)?;
            Ok(())
        })?;
        ck.check(&mut module, Stage::Unroll)?;
        if model == Model::CondMove {
            to_partial_module(&mut module, &self.partial);
            ck.converted = true;
            ck.check(&mut module, Stage::PartialConvert)?;
        }
        if self.classic_opt {
            hyperpred_opt::optimize_module(&mut module);
            ck.check(&mut module, Stage::OptPost)?;
        }
        Ok(Formed { module, model })
    }

    /// The machine-dependent rest of [`Pipeline::finish`]: list scheduling
    /// for `machine` and its checkpoint. The checkpointer is seeded with
    /// what the last [`Pipeline::form`] checkpoint hands over: the model
    /// class (partial after conversion) and a speculation snapshot of the
    /// formed module.
    pub(crate) fn schedule(
        &self,
        formed: Formed,
        machine: &MachineConfig,
    ) -> Result<Module, PipelineError> {
        let Formed { mut module, model } = formed;
        let mut ck = Checkpointer::new(self, model);
        ck.converted = model == Model::CondMove;
        if self.checks {
            ck.spec = Some(Snapshot::of(&module));
        }
        schedule_module(&mut module, machine)?;
        ck.check(&mut module, Stage::Schedule)?;
        if self.fault_injection
            && model == Model::FullPred
            && module
                .funcs
                .iter()
                .any(|f| f.name == crate::faults::DIVERGE_MARKER)
        {
            crate::faults::skew_main_result(&mut module);
        }
        if !self.checks {
            // Cheap structural backstop for debug builds running with
            // checkpoints disabled (evaluated once, reported once).
            let verified = module.verify();
            debug_assert!(verified.is_ok(), "{:?}", verified.err());
        }
        Ok(module)
    }

    /// Like [`Pipeline::finish`], but with a *degradation ladder*: when a
    /// pass trips its growth budget ([`PipelineError::Budget`]), the
    /// compile retries with that transformation disabled instead of
    /// failing the cell outright. Fallback order mirrors optimization
    /// aggressiveness — unrolling drops to factor 1, promotion turns off,
    /// hyperblock formation falls back to superblock-only (still valid
    /// under every model's conformance class). Only the budget that
    /// actually tripped is disabled per step, so a well-behaved program
    /// never loses a transformation it could afford. Non-budget errors
    /// propagate unchanged; a budget that trips again after its pass was
    /// already disabled is returned as the permanent failure. Budgets only
    /// bound formation, so the ladder re-forms and schedules once.
    ///
    /// # Errors
    /// Same as [`Pipeline::finish`] for non-budget failures, or the final
    /// [`PipelineError::Budget`] if the ladder is exhausted.
    pub fn finish_degraded(
        &self,
        front: &FrontOutput,
        model: Model,
        machine: &MachineConfig,
    ) -> Result<(Module, Degradation), PipelineError> {
        let (formed, degradation) = self.form_degraded(front, model)?;
        Ok((self.schedule(formed, machine)?, degradation))
    }

    /// The ladder of [`Pipeline::finish_degraded`] over [`Pipeline::form`]
    /// alone: what it had to disable is machine-independent, so one
    /// degraded formation serves every machine its model is scheduled for.
    pub(crate) fn form_degraded(
        &self,
        front: &FrontOutput,
        model: Model,
    ) -> Result<(Formed, Degradation), PipelineError> {
        let mut pipe = *self;
        let mut disabled: Vec<Stage> = Vec::new();
        let formed = loop {
            match pipe.form(front, model) {
                Ok(formed) => break formed,
                Err(PipelineError::Budget {
                    pass,
                    metric,
                    value,
                    limit,
                }) if !disabled.contains(&pass) => {
                    match pass {
                        Stage::Unroll => pipe.unroll.factor = 1,
                        Stage::Promote => pipe.promote = false,
                        Stage::IfConvert => {
                            // Rejecting every candidate region disables
                            // formation; the finish path then applies its
                            // usual superblock fallback to the whole
                            // function.
                            pipe.hyperblock.max_blocks = 0;
                        }
                        // A budget blamed on a stage with no knob to turn
                        // off is permanent.
                        other => {
                            return Err(PipelineError::Budget {
                                pass: other,
                                metric,
                                value,
                                limit,
                            })
                        }
                    }
                    disabled.push(pass);
                }
                Err(e) => return Err(e),
            }
        };
        Ok((formed, Degradation { disabled }))
    }
}

/// What the degradation ladder had to give up to finish a compile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Passes disabled by the ladder, in the order their budgets tripped.
    /// Empty for a clean (non-degraded) compile.
    pub disabled: Vec<Stage>,
}

impl Degradation {
    /// True when at least one transformation was disabled.
    pub fn is_degraded(&self) -> bool {
        !self.disabled.is_empty()
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disabled.is_empty() {
            return f.write_str("none");
        }
        for (i, s) in self.disabled.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Compiles and simulates `source` in one call, returning timing
/// statistics.
///
/// # Errors
/// Fails on frontend or emulation errors.
pub fn evaluate(
    source: &str,
    args: &[i64],
    model: Model,
    machine: MachineConfig,
    sim: SimConfig,
    pipe: &Pipeline,
) -> Result<SimStats, PipelineError> {
    let module = pipe.compile(source, args, model, &machine)?;
    let stats = simulate(&module, "main", &entry_args(args), machine, sim)?;
    Ok(stats)
}

/// Speedup of `faster` over `baseline` (the paper's metric: baseline
/// cycles / model cycles).
pub fn speedup(baseline: &SimStats, faster: &SimStats) -> f64 {
    if faster.cycles == 0 {
        0.0
    } else {
        baseline.cycles as f64 / faster.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpred_sim::SimConfig;

    const SRC: &str = "int main() {
        int i; int s; s = 0;
        for (i = 0; i < 300; i += 1) {
            if (i % 2 == 0) s += 3;
            else if (i % 3 == 0) s += 7;
            else s -= 1;
        }
        return s;
    }";

    #[test]
    fn all_models_agree_on_results() {
        let pipe = Pipeline::default();
        let machine = MachineConfig::new(8, 1);
        let sim = SimConfig::default();
        let mut rets = Vec::new();
        for model in Model::ALL {
            let s = evaluate(SRC, &[], model, machine, sim, &pipe).unwrap();
            rets.push(s.ret);
        }
        assert_eq!(rets[0], rets[1]);
        assert_eq!(rets[1], rets[2]);
    }

    #[test]
    fn predication_beats_baseline_on_wide_issue() {
        let pipe = Pipeline::default();
        let sim = SimConfig::default();
        let base = evaluate(
            SRC,
            &[],
            Model::Superblock,
            MachineConfig::one_issue(),
            sim,
            &pipe,
        )
        .unwrap();
        let sup = evaluate(
            SRC,
            &[],
            Model::Superblock,
            MachineConfig::new(8, 1),
            sim,
            &pipe,
        )
        .unwrap();
        let full = evaluate(
            SRC,
            &[],
            Model::FullPred,
            MachineConfig::new(8, 1),
            sim,
            &pipe,
        )
        .unwrap();
        assert!(
            speedup(&base, &sup) > 1.0,
            "8-issue superblock beats scalar"
        );
        assert!(
            speedup(&base, &full) > speedup(&base, &sup),
            "full predication beats superblock: {} !> {}",
            speedup(&base, &full),
            speedup(&base, &sup)
        );
    }

    #[test]
    fn full_pred_removes_branches() {
        let pipe = Pipeline::default();
        let sim = SimConfig::default();
        let machine = MachineConfig::new(8, 1);
        let sup = evaluate(SRC, &[], Model::Superblock, machine, sim, &pipe).unwrap();
        let full = evaluate(SRC, &[], Model::FullPred, machine, sim, &pipe).unwrap();
        let cmov = evaluate(SRC, &[], Model::CondMove, machine, sim, &pipe).unwrap();
        assert!(
            full.branches < sup.branches,
            "{} !< {}",
            full.branches,
            sup.branches
        );
        assert!(cmov.branches < sup.branches);
    }

    #[test]
    fn cmov_model_executes_more_instructions_than_full() {
        let pipe = Pipeline::default();
        let sim = SimConfig::default();
        let machine = MachineConfig::new(8, 1);
        let full = evaluate(SRC, &[], Model::FullPred, machine, sim, &pipe).unwrap();
        let cmov = evaluate(SRC, &[], Model::CondMove, machine, sim, &pipe).unwrap();
        assert!(cmov.insts > full.insts);
    }
}
