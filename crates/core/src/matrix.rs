//! Parallel, fault-isolated experiment engine: runs the paper's full
//! figure matrix as a work queue of independent (workload, model,
//! experiment) cells, containing per-cell failures.
//!
//! The paper's evaluation is embarrassingly parallel — 15 workloads × 3
//! models × 4 machine configurations, each an independent compile +
//! emulate + cycle-simulate job — but a naive loop both serializes the
//! cells and repeats work across figures:
//!
//! * the same (source, model, machine) module is recompiled per figure
//!   (Figures 8 and 11 share an 8-issue/1-branch machine, and every figure
//!   compiles the 1-issue superblock baseline), and
//! * the fixed 1-issue perfect-memory baseline — the denominator of every
//!   speedup bar — is re-simulated per figure.
//!
//! This engine fixes both. Its compile cache memoizes at three levels,
//! one per seam where a compile stops depending on less:
//!
//! 1. the front half ([`Pipeline::front`]: frontend, pre-formation
//!    optimization, the profiling run), once per workload;
//! 2. formation, conversion and post optimization, once per (workload,
//!    model), since only list scheduling reads the machine;
//! 3. the scheduled and pre-decoded module, once per (workload, model,
//!    machine).
//!
//! The full matrix thus profiles 15 workloads, forms 45 modules and
//! schedules 150. A baseline memo simulates each workload's denominator
//! once, and a `std::thread::scope` work queue spreads the remaining
//! cells over `threads` workers. Results are bit-identical to the serial
//! [`run_workload`](crate::experiments::run_workload) path because
//! every pass and the simulator are deterministic; the engine only
//! deduplicates and reorders work, it never changes it.
//!
//! # Fault isolation
//!
//! Every cell runs inside `std::panic::catch_unwind` with a panic-hook
//! capture of the message, location, and cell identity, so a
//! `panic!`/`unwrap` deep inside a compiler pass, the emulator, or the
//! cycle simulator costs exactly one cell, never the run. A failed or
//! panicking compile step is memoized as failed at its cache level, so
//! every cell depending on it (a failed formation: that model on every
//! machine) skips it cheaply instead of re-panicking.
//! The timing simulator's cycle-budget watchdog
//! ([`SimError::CycleLimit`](hyperpred_sim::SimError)) bounds how long any
//! one cell can hold a worker. Under [`FailurePolicy::KeepGoing`] the
//! engine finishes every healthy cell and returns partial results plus a
//! structured [`FailureReport`]; [`FailurePolicy::FailFast`] (the
//! default) abandons remaining cells after the first failure, as the
//! pre-isolation engine did. [`MatrixRun::into_figures`] is the
//! all-cells-succeeded view: the first failure comes back as an error.
//!
//! # Durability
//!
//! [`run_matrix`] layers crash-safety on top of isolation via a
//! [`MatrixConfig`]:
//!
//! * a journal [`Store`] makes runs *resumable*: every completed cell is
//!   stored under its [`CellSpec::key`] (the daemon and soak key their
//!   results the same way), and a later run handed the same store
//!   copies journaled stats back bit-identically instead of re-running
//!   the cell — at any thread count, since cells are independent;
//! * a [`RetryPolicy`] re-runs cells whose failure is plausibly
//!   transient (contained panics, watchdog trips) a bounded number of
//!   times, un-memoizing the compile cache's failure slots in between so
//!   a retry actually recompiles;
//! * a per-cell wall-clock *deadline* complements the cycle budget: the
//!   cycle budget bounds simulated work, the deadline bounds host time
//!   (a cell stuck outside the cycle loop still ends);
//! * a [`TriageConfig`] turns each *permanent* failure into a
//!   self-contained repro bundle (config + source + lowered IR + a
//!   delta-debugged minimal reproducer) replayable with
//!   `hyperpredc repro`.

use crate::experiments::{BenchResult, CellSpec, Experiment};
use crate::journal::{JournalEntry, RecordOutcome};
use crate::pipeline::{Degradation, Formed, FrontOutput, Model, Pipeline, PipelineError};
use crate::store::Store;
use crate::triage::{self, ReproCell, TriageConfig};
use hyperpred_emu::DecodedModule;
use hyperpred_ir::Module;
use hyperpred_lang::lower::entry_args;
use hyperpred_lang::CompileError;
use hyperpred_sched::MachineConfig;
use hyperpred_sim::{
    simulate_decoded, MemoryModel, SimConfig, SimError, SimStats, DEFAULT_CYCLE_LIMIT,
};
use hyperpred_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Locks `m`, tolerating poison: a panic contained in one worker must not
/// cascade into every later lock of the shared accounting structures. The
/// guarded data here (counters, append-only vectors) stays consistent
/// because each push/increment is atomic with respect to the lock.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wall-time and cache accounting for one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the matrix run.
    pub wall: Duration,
    /// Compilations served from the cache instead of rerun.
    pub compile_hits: u64,
    /// Compilations actually performed (exactly once per distinct
    /// (workload, model, machine) triple).
    pub compile_misses: u64,
    /// Baseline (1-issue superblock, perfect memory) simulations run —
    /// one per workload, however many figures share them.
    pub baseline_sims: u64,
    /// Times a figure reused a memoized baseline instead of re-simulating.
    pub baseline_reuses: u64,
    /// Model-cell simulations run.
    pub model_sims: u64,
    /// Model-independent front halves (frontend through the profiling
    /// run) actually computed — once per workload.
    pub front_computes: u64,
    /// Formations that reused a memoized front half instead of re-lowering
    /// and re-profiling the workload.
    pub front_reuses: u64,
    /// Machine-independent formations (region formation through post
    /// optimization) actually run — once per (workload, model).
    pub form_computes: u64,
    /// Compiles that scheduled a memoized formation instead of forming
    /// the same (workload, model) again for another machine.
    pub form_reuses: u64,
    /// Cells whose stats were copied back from the run journal instead of
    /// re-run.
    pub journal_hits: u64,
    /// Cells appended to the run journal this run.
    pub journal_appends: u64,
    /// Extra cell attempts spent by the retry policy (beyond each cell's
    /// first).
    pub retries: u64,
    /// Per-cell wall times of successful cells, in completion order.
    pub cells: Vec<CellStat>,
}

impl EngineStats {
    /// Cells a serial figure-at-a-time loop would have run (each figure
    /// recompiling and re-simulating its own baseline).
    pub fn serial_equivalent_cells(&self) -> u64 {
        self.baseline_sims + self.baseline_reuses + self.model_sims
    }

    /// One-paragraph human summary for CLI output.
    pub fn summary(&self) -> String {
        let cell_wall: Duration = self.cells.iter().map(|c| c.wall).sum();
        let mut s = format!(
            "engine: {} cells in {:.2?} on {} thread(s) ({:.2?} of cell work; {:.1}x packing)\n\
             compile cache: {} misses, {} hits; baseline memo: {} simulated, {} reused\n\
             profile memo: {} front halves computed, {} reused\n\
             formation memo: {} (workload, model) modules formed, {} reused\n\
             serial loop would run {} cells; the engine ran {}",
            self.cells.len(),
            self.wall,
            self.threads,
            cell_wall,
            cell_wall.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
            self.compile_misses,
            self.compile_hits,
            self.baseline_sims,
            self.baseline_reuses,
            self.front_computes,
            self.front_reuses,
            self.form_computes,
            self.form_reuses,
            self.serial_equivalent_cells(),
            self.baseline_sims + self.model_sims,
        );
        if self.journal_hits > 0 || self.journal_appends > 0 {
            s.push_str(&format!(
                "\njournal: {} cell(s) reused, {} appended",
                self.journal_hits, self.journal_appends
            ));
        }
        if self.retries > 0 {
            s.push_str(&format!(
                "\nretries: {} extra cell attempt(s)",
                self.retries
            ));
        }
        s
    }
}

/// Wall time of one scheduled cell.
#[derive(Debug, Clone)]
pub struct CellStat {
    /// Workload name.
    pub workload: &'static str,
    /// Figure title, or `"baseline"` for the shared denominator cell.
    pub experiment: &'static str,
    /// Model simulated (`None` for the baseline cell).
    pub model: Option<Model>,
    /// Wall time spent on the cell (compile + simulate).
    pub wall: Duration,
}

impl fmt::Display for CellStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.model {
            Some(m) => write!(
                f,
                "{:>9} {:<12} {:>10.1?}  {}",
                self.workload,
                m.to_string(),
                self.wall,
                self.experiment
            ),
            None => write!(
                f,
                "{:>9} {:<12} {:>10.1?}  shared denominator",
                self.workload, "baseline", self.wall
            ),
        }
    }
}

/// What the engine does after a cell fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abandon remaining cells after the first failure (the historical
    /// behavior, and the default).
    #[default]
    FailFast,
    /// Finish every remaining cell; failed cells are reported in the
    /// [`FailureReport`] and healthy cells stay bit-identical to a clean
    /// run.
    KeepGoing,
}

/// The pipeline stage a cell failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureStage {
    /// MiniC frontend, optimizer, region formation, or scheduling.
    Compile,
    /// The profiling emulation run inside compilation.
    Emulate,
    /// The timing simulation (including its cycle-budget watchdog) and
    /// result cross-checks.
    Simulate,
}

impl fmt::Display for FailureStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureStage::Compile => "compile",
            FailureStage::Emulate => "emulate",
            FailureStage::Simulate => "simulate",
        })
    }
}

/// Why a cell failed.
#[derive(Debug, Clone)]
pub enum FailurePayload {
    /// A typed pipeline error (compile, emulation, or watchdog).
    Error(PipelineError),
    /// A contained panic; the captured message plus source location.
    Panic(String),
}

impl fmt::Display for FailurePayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailurePayload::Error(e) => write!(f, "{e}"),
            FailurePayload::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// One failed cell: everything needed to reproduce it from the report
/// line alone.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Workload name.
    pub workload: &'static str,
    /// Figure title, or `"baseline"` for the shared denominator cell.
    pub experiment: &'static str,
    /// Model of the failed cell (`None` for the baseline cell).
    pub model: Option<Model>,
    /// Stage the failure occurred in.
    pub stage: FailureStage,
    /// The error or captured panic.
    pub payload: FailurePayload,
    /// Wall time spent before the cell failed (across all attempts).
    pub wall: Duration,
    /// Attempts spent before the failure became permanent (1 when no
    /// retry policy is in effect).
    pub attempts: u32,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let model = self
            .model
            .map_or_else(|| "baseline".to_string(), |m| m.to_string());
        let attempts = if self.attempts > 1 {
            format!(", {} attempts", self.attempts)
        } else {
            String::new()
        };
        write!(
            f,
            "{} / {} / {} [{} stage, {:.1?}{}]: {}",
            self.workload, self.experiment, model, self.stage, self.wall, attempts, self.payload
        )
    }
}

/// Structured summary of every failed cell in a run.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Failures in completion order.
    pub failures: Vec<CellFailure>,
}

impl FailureReport {
    /// True when every cell completed.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of failed cells.
    pub fn len(&self) -> usize {
        self.failures.len()
    }
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.failures.is_empty() {
            return writeln!(f, "failure report: all cells completed");
        }
        writeln!(f, "failure report: {} cell(s) failed", self.failures.len())?;
        for fail in &self.failures {
            writeln!(f, "  {fail}")?;
        }
        Ok(())
    }
}

/// One (experiment, workload) slot of the assembled matrix.
#[derive(Debug)]
pub enum CellOutcome {
    /// Baseline and all three model cells completed.
    Ok(BenchResult),
    /// At least one underlying cell failed; the first recorded failure
    /// for this slot.
    Failed(CellFailure),
    /// Abandoned without running after an earlier failure under
    /// [`FailurePolicy::FailFast`].
    Skipped,
}

impl CellOutcome {
    /// The completed result, if any.
    pub fn ok(&self) -> Option<&BenchResult> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// A full engine run: per-slot outcomes, engine counters, and the
/// failure report.
#[derive(Debug)]
pub struct MatrixRun {
    /// Per-experiment outcomes, in the order the experiments were given;
    /// within each, per-workload outcomes in workload order.
    pub outcomes: Vec<Vec<CellOutcome>>,
    /// Engine accounting (cache hits, per-cell wall times).
    pub stats: EngineStats,
    /// Every contained failure.
    pub report: FailureReport,
    /// True when the run stopped before claiming every cell
    /// ([`MatrixConfig::cell_limit`]); resume from the journal to finish.
    pub interrupted: bool,
}

impl MatrixRun {
    /// The all-cells-succeeded view: per-experiment results in the order
    /// the experiments were given, each in workload order.
    ///
    /// # Errors
    /// The first recorded typed failure. A model whose simulated result
    /// diverges from the baseline's comes back as
    /// [`PipelineError::Diverged`].
    ///
    /// # Panics
    /// Re-raises a contained cell panic (like the serial path) — that is a
    /// compiler bug, not an input error. Also panics on a run cut short by
    /// [`MatrixConfig::cell_limit`], which has no complete view.
    pub fn into_figures(self) -> Result<Vec<Vec<BenchResult>>, PipelineError> {
        if let Some(first) = self.report.failures.into_iter().next() {
            match first.payload {
                FailurePayload::Error(e) => return Err(e),
                FailurePayload::Panic(msg) => panic!(
                    "matrix cell {} / {} panicked: {msg}",
                    first.workload, first.experiment
                ),
            }
        }
        let figures = self
            .outcomes
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|o| match o {
                        CellOutcome::Ok(r) => r,
                        CellOutcome::Failed(_) | CellOutcome::Skipped => {
                            panic!("matrix run was interrupted before every cell ran")
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(figures)
    }
}

/// How often (and how patiently) a failing cell is re-run before its
/// failure becomes permanent. Only *plausibly transient* failures are
/// retried: contained panics and watchdog trips
/// ([`SimError::CycleLimit`] / [`SimError::Deadline`]). Typed compile
/// and emulation errors are deterministic and fail immediately.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per cell, including the first (values below 1 are
    /// treated as 1).
    pub max_attempts: u32,
    /// Sleep between attempts of the same cell.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// Full configuration of a durable engine run; the zero-cost default is
/// exactly the plain fault-isolated engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatrixConfig<'a> {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// What to do after a cell fails permanently.
    pub policy: FailurePolicy,
    /// Bounded re-running of transient failures.
    pub retry: RetryPolicy,
    /// Per-cell, per-attempt wall-clock budget, enforced cooperatively by
    /// the simulator alongside its cycle budget.
    pub deadline: Option<Duration>,
    /// Durable journal: completed cells are stored, stored cells are
    /// reused instead of re-run.
    pub journal: Option<&'a Store>,
    /// Emit a repro bundle for every permanent failure.
    pub triage: Option<&'a TriageConfig>,
    /// Stop claiming cells past this queue index (test/chaos hook: makes
    /// "killed mid-run" deterministic; the run reports `interrupted`).
    pub cell_limit: Option<usize>,
}

// ---------------------------------------------------------------------------
// Panic containment: per-cell catch_unwind with a hook-captured message.
// ---------------------------------------------------------------------------

thread_local! {
    /// Identity of the cell this worker thread is currently running;
    /// included in captured panic messages.
    static CELL_IDENTITY: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
    /// Nesting depth of [`catch_cell`] on this thread; the hook only
    /// captures (and silences) panics while it is nonzero.
    static CAPTURE_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Message + location captured by the hook for the most recent panic.
    static CAPTURED_PANIC: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
    /// The last module this worker compiled for its current cell; taken by
    /// failure triage so a simulate-stage repro bundle can dump the
    /// lowered IR that actually failed.
    static LAST_MODULE: std::cell::RefCell<Option<Arc<Module>>> =
        const { std::cell::RefCell::new(None) };
}

static INSTALL_HOOK: Once = Once::new();

/// Renders a panic payload (the `&str`/`String` cases panics overwhelmingly
/// carry).
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Installs (once, process-wide) a panic hook that, while a worker is
/// inside [`catch_cell`], records the message, source location, and cell
/// identity instead of printing a backtrace; panics on all other threads
/// go to the previous hook untouched.
fn install_capture_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CAPTURE_DEPTH.with(std::cell::Cell::get) == 0 {
                prev(info);
                return;
            }
            let mut msg = payload_message(info.payload());
            if let Some(loc) = info.location() {
                msg.push_str(&format!(
                    " (at {}:{}:{})",
                    loc.file(),
                    loc.line(),
                    loc.column()
                ));
            }
            if let Some(cell) = CELL_IDENTITY.with(|c| c.borrow().clone()) {
                msg.push_str(&format!(" [cell {cell}]"));
            }
            CAPTURED_PANIC.with(|p| *p.borrow_mut() = Some(msg));
        }));
    });
}

/// Runs `f`, containing any panic and returning its captured message.
pub(crate) fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_capture_hook();
    CAPTURE_DEPTH.with(|d| d.set(d.get() + 1));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CAPTURE_DEPTH.with(|d| d.set(d.get() - 1));
    r.map_err(|payload| {
        CAPTURED_PANIC
            .with(|p| p.borrow_mut().take())
            .unwrap_or_else(|| payload_message(&*payload))
    })
}

// ---------------------------------------------------------------------------
// Shared compile cache with failure memoization.
// ---------------------------------------------------------------------------

/// Why one attempt at a cell (or one memoized compile) failed: the stage
/// it failed in and the error or captured panic.
type CellError = (FailureStage, FailurePayload);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CompileKey {
    workload: usize,
    model: Model,
    issue: u32,
    branches: u32,
}

/// A successfully compiled cell: the scheduled module plus its
/// pre-decoded execution stream, produced once right after the compile
/// and shared by every simulation of the same (workload, model, machine)
/// key — the decode cost is paid once per compiled module, not once per
/// simulated cell.
#[derive(Clone)]
struct CompiledUnit {
    module: Arc<Module>,
    decoded: Arc<DecodedModule>,
}

/// One memoized value; `Err` marks a failure replayed to every requester.
type Slot<V> = Arc<OnceLock<Result<V, CellError>>>;

/// One level of the compile cache: a once-per-key slot, so concurrent
/// requesters of one key block on the same [`OnceLock`] instead of
/// duplicating the work. A failed — or panicking — computation is
/// memoized as failed and replayed to every later requester. The map
/// lock is held only to find a slot, never while computing.
struct Memo<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    computed: AtomicU64,
    reused: AtomicU64,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Memo<K, V> {
        Memo {
            slots: Mutex::default(),
            computed: AtomicU64::default(),
            reused: AtomicU64::default(),
        }
    }
}

impl<K: Copy + Eq + Hash, V: Clone> Memo<K, V> {
    /// The value for `key`, running `compute` only if no requester has.
    /// `compute` must contain its own panics (see [`contained`]), so the
    /// slot is always filled for everyone waiting on it.
    fn get_or(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, CellError>,
    ) -> Result<V, CellError> {
        let slot = Arc::clone(lock_tolerant(&self.slots).entry(key).or_default());
        let mut fresh = false;
        let value = slot.get_or_init(|| {
            fresh = true;
            compute()
        });
        let counter = if fresh { &self.computed } else { &self.reused };
        counter.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }

    /// Drops a memoized *failure* for `key` so a retry recomputes it.
    /// Successful slots are kept: concurrent holders stay valid, and
    /// nothing succeeded that a retry should redo.
    fn forget_failed(&self, key: K) {
        let mut slots = lock_tolerant(&self.slots);
        if slots
            .get(&key)
            .and_then(|s| s.get())
            .is_some_and(Result::is_err)
        {
            slots.remove(&key);
        }
    }

    /// The successfully computed value for `key`, if there is one.
    fn get(&self, key: K) -> Option<V> {
        let slot = Arc::clone(lock_tolerant(&self.slots).get(&key)?);
        let value = slot.get()?.as_ref().ok().cloned();
        value
    }
}

pub(crate) fn stage_of(e: &PipelineError) -> FailureStage {
    match e {
        PipelineError::Compile(_)
        | PipelineError::Lint(_)
        | PipelineError::Sched(_)
        | PipelineError::Budget { .. } => FailureStage::Compile,
        PipelineError::Emu(_) => FailureStage::Emulate,
        PipelineError::Sim(_) | PipelineError::Diverged { .. } | PipelineError::Oracle { .. } => {
            FailureStage::Simulate
        }
    }
}

/// Flattens a [`catch_cell`] result: a typed error keeps the stage it
/// names, a contained panic is charged to `panic_stage`.
fn contained<T>(
    caught: Result<Result<T, PipelineError>, String>,
    panic_stage: FailureStage,
) -> Result<T, CellError> {
    match caught {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err((stage_of(&e), FailurePayload::Error(e))),
        Err(panic_msg) => Err((panic_stage, FailurePayload::Panic(panic_msg))),
    }
}

/// Runs one compile step with its panics contained and charged to the
/// compile stage, so the memo slot it fills is filled even on a panic.
fn compile_step<T>(step: impl FnOnce() -> Result<T, PipelineError>) -> Result<T, CellError> {
    contained(catch_cell(step), FailureStage::Compile)
}

/// The compile cache: three [`Memo`] levels split at the two seams where
/// a compile stops depending on less. The front half ([`Pipeline::front`]:
/// frontend, pre-formation optimization and the profiling run) depends
/// only on the workload; formation, conversion and post optimization on
/// the (workload, model); list scheduling alone on the machine. So each
/// workload is profiled once, each (workload, model) formed once, and
/// each (workload, model, machine) unit scheduled and decoded once. A
/// failure at any level is memoized there and replayed to every unit
/// that depends on it, with the stage and payload it failed with.
#[derive(Default)]
struct CompileCache {
    fronts: Memo<usize, Arc<FrontOutput>>,
    formations: Memo<(usize, Model), Arc<Formed>>,
    units: Memo<CompileKey, CompiledUnit>,
}

impl CompileCache {
    /// The unit for `key`: its (workload, model) formation scheduled for
    /// `machine`, the formation itself formed from the workload's front
    /// half. Each level runs at most once per key.
    fn get_or_compile(
        &self,
        key: CompileKey,
        machine: &MachineConfig,
        w: &Workload,
        pipe: &Pipeline,
    ) -> Result<CompiledUnit, CellError> {
        self.units.get_or(key, || {
            let formed = self.formations.get_or((key.workload, key.model), || {
                let front = self.fronts.get_or(key.workload, || {
                    compile_step(|| pipe.front(&w.source, &w.args)).map(Arc::new)
                })?;
                compile_step(|| pipe.form(&front, key.model)).map(Arc::new)
            })?;
            let module = Arc::new(compile_step(|| {
                pipe.schedule(Formed::clone(&formed), machine)
            })?);
            let decoded = Arc::new(DecodedModule::decode(&module));
            Ok(CompiledUnit { module, decoded })
        })
    }

    /// Drops memoized failures at every level `key` depends on, so a
    /// retry recomputes instead of replaying a memo.
    fn forget_failed(&self, key: CompileKey) {
        self.units.forget_failed(key);
        self.formations.forget_failed((key.workload, key.model));
        self.fronts.forget_failed(key.workload);
    }
}

/// Shared failure log; under [`FailurePolicy::FailFast`] the first record
/// also aborts the queue.
struct FailureLog {
    failures: Mutex<Vec<CellFailure>>,
    abort: AtomicBool,
    policy: FailurePolicy,
}

impl FailureLog {
    fn new(policy: FailurePolicy) -> FailureLog {
        FailureLog {
            failures: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
            policy,
        }
    }

    fn record(&self, f: CellFailure) {
        lock_tolerant(&self.failures).push(f);
        if self.policy == FailurePolicy::FailFast {
            self.abort.store(true, Ordering::Release);
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    fn into_failures(self) -> Vec<CellFailure> {
        self.failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One schedulable unit of work.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Simulate workload `w`'s shared 1-issue superblock denominator.
    Baseline { w: usize },
    /// Simulate workload `w` under experiment `e`'s machine with model `m`.
    Model { e: usize, w: usize, m: usize },
}

impl Cell {
    fn workload(self) -> usize {
        match self {
            Cell::Baseline { w } | Cell::Model { w, .. } => w,
        }
    }
}

/// The spec a cell runs under: the shared denominator, or its figure's
/// cell for its model.
fn params_of(cell: Cell, exps: &[Experiment]) -> CellSpec {
    match cell {
        // Whatever cycle budget the figures agree on (they all use the
        // same default).
        Cell::Baseline { .. } => {
            CellSpec::baseline(exps.first().map_or(DEFAULT_CYCLE_LIMIT, |e| e.max_cycles))
        }
        Cell::Model { e, m, .. } => exps[e].cell(Model::ALL[m]),
    }
}

/// The compile-cache key of a cell; the baseline compiles the superblock
/// model for the 1-issue machine.
fn key_of(cell: Cell, exps: &[Experiment]) -> CompileKey {
    let spec = params_of(cell, exps);
    CompileKey {
        workload: cell.workload(),
        model: spec.compiled_model(),
        issue: spec.issue,
        branches: spec.branches,
    }
}

/// The index of a cell's result slot among `workloads` workloads: the
/// shared baselines first, then the model cells experiment-major — the
/// order the engine queues them in.
fn slot_of(cell: Cell, workloads: usize) -> usize {
    match cell {
        Cell::Baseline { w } => w,
        Cell::Model { e, w, m } => workloads + (e * workloads + w) * Model::ALL.len() + m,
    }
}

/// Fills a result slot. An identical duplicate fill (a lost race between
/// a journal prefill and a concurrent compute of the same cell) is
/// benign; a *mismatched* refill is surfaced as a typed failure — in a
/// long-running service a damaged request stream must become an error
/// report, never the historical worker-aborting `expect`.
fn fill_slot(
    slot: &OnceLock<SimStats>,
    stats: SimStats,
    workload: &str,
    model: Option<Model>,
) -> Result<(), CellError> {
    if let Err(rejected) = slot.set(stats) {
        match slot.get() {
            Some(held) if *held == rejected => {}
            held => {
                let detail = format!(
                    "result slot already held {held:?}; refused distinct refill {rejected:?}"
                );
                return Err((
                    FailureStage::Simulate,
                    FailurePayload::Error(PipelineError::Oracle {
                        workload: workload.to_string(),
                        model: model.unwrap_or(Model::Superblock),
                        check: "cell-slot-consistency",
                        detail,
                    }),
                ));
            }
        }
    }
    Ok(())
}

/// Whether a failure is plausibly transient (worth a retry): contained
/// panics and watchdog trips. Typed compile/emulation errors are
/// deterministic — retrying them wastes the budget.
fn retryable(payload: &FailurePayload) -> bool {
    match payload {
        FailurePayload::Panic(_) => true,
        FailurePayload::Error(PipelineError::Sim(
            SimError::CycleLimit { .. } | SimError::Deadline { .. },
        )) => true,
        FailurePayload::Error(_) => false,
    }
}

/// The attempt loop shared by matrix cells and service requests: runs
/// `attempt` until it succeeds, fails permanently (not [`retryable`]), or
/// has spent `retry.max_attempts`. Before each retry it calls
/// `before_retry` and sleeps the backoff. `identity` tags any panic
/// captured meanwhile. Returns the last outcome and the attempts spent.
fn with_retries<T>(
    identity: String,
    retry: RetryPolicy,
    mut attempt: impl FnMut() -> Result<T, CellError>,
    mut before_retry: impl FnMut(),
) -> (Result<T, CellError>, u32) {
    CELL_IDENTITY.with(|c| *c.borrow_mut() = Some(identity));
    let mut attempts = 0u32;
    let outcome = loop {
        attempts += 1;
        match attempt() {
            Err((_, payload)) if retryable(&payload) && attempts < retry.max_attempts.max(1) => {
                before_retry();
                if !retry.backoff.is_zero() {
                    std::thread::sleep(retry.backoff);
                }
            }
            done => break done,
        }
    };
    CELL_IDENTITY.with(|c| *c.borrow_mut() = None);
    (outcome, attempts)
}

/// Simulates a compiled module from `main(args)`, arming `sim`'s
/// cooperative wall-clock deadline `deadline` from now (the cycle budget
/// bounds simulated work, the deadline bounds host time). A deadline
/// past what the clock can represent is no deadline.
fn simulate_within(
    module: &Module,
    decoded: &Arc<DecodedModule>,
    args: &[i64],
    machine: MachineConfig,
    mut sim: SimConfig,
    deadline: Option<Duration>,
) -> Result<SimStats, PipelineError> {
    if let Some(d) = deadline {
        sim.deadline = Instant::now().checked_add(d);
    }
    Ok(simulate_decoded(
        module,
        decoded,
        "main",
        &entry_args(args),
        machine,
        sim,
    )?)
}

/// The engine: runs every (experiment × workload × model) cell of the
/// matrix over `cfg.threads` scoped workers, compiling each distinct
/// module once and simulating each workload's baseline denominator once.
/// Each cell is wrapped in `catch_unwind` and the watchdog budget of
/// [`Experiment::max_cycles`], so one sick cell cannot take down the run;
/// the journal/retry/deadline/triage layers of [`MatrixConfig`] sit on
/// top. With a default config it is the plain fault-isolated engine.
///
/// Never returns an error: failed cells are contained and reported in
/// [`MatrixRun::report`]; [`MatrixRun::into_figures`] turns a clean run
/// into plain tables. Successful cells are bit-identical to calling
/// [`run_workload`](crate::experiments::run_workload) per cell, whatever
/// other cells do.
///
/// A model whose simulated result diverges from the baseline's is a
/// compiler bug, not an input error; it is reported as a typed
/// [`PipelineError::Diverged`] cell failure under either policy (never a
/// panic), so a KeepGoing chaos run keeps every healthy cell.
pub fn run_matrix(
    exps: &[Experiment],
    workloads: &[Workload],
    pipe: &Pipeline,
    cfg: &MatrixConfig<'_>,
) -> MatrixRun {
    let started = Instant::now();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.threads
    };

    // Baselines first so the slowest sims start early; then experiment-
    // major model cells, which keeps the duplicate compile keys of
    // machine-sharing figures (8 and 11) far apart in the queue. This is
    // also the result-slot order of `slot_of`.
    let mut cells: Vec<Cell> = Vec::with_capacity(workloads.len() * (1 + 3 * exps.len()));
    if !exps.is_empty() {
        for w in 0..workloads.len() {
            cells.push(Cell::Baseline { w });
        }
    }
    for e in 0..exps.len() {
        for w in 0..workloads.len() {
            for m in 0..Model::ALL.len() {
                cells.push(Cell::Model { e, w, m });
            }
        }
    }

    // Fingerprints are only needed when a journal is wired in; they are
    // precomputed here (aligned with `cells`) so workers never hash.
    let fps: Option<Vec<String>> = cfg.journal.map(|_| {
        cells
            .iter()
            .map(|&c| {
                let wl = &workloads[c.workload()];
                params_of(c, exps).key(pipe, wl.name, &wl.source, &wl.args)
            })
            .collect()
    });

    let cache = CompileCache::default();
    let log = FailureLog::new(cfg.policy);
    let next = AtomicUsize::new(0);
    let interrupted = AtomicBool::new(false);
    let journal_hits = AtomicU64::new(0);
    let journal_appends = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let results: Vec<OnceLock<SimStats>> = (0..workloads.len() * (1 + 3 * exps.len()))
        .map(|_| OnceLock::new())
        .collect();
    let slot = |cell: Cell| &results[slot_of(cell, workloads.len())];
    let cell_stats: Mutex<Vec<CellStat>> = Mutex::new(Vec::with_capacity(cells.len()));

    // Executes one cell; typed failures come back as Err, panics unwind to
    // the catch_cell wrapper in the worker loop.
    let exec_cell = |cell: Cell| -> Result<(), CellError> {
        let wl = &workloads[cell.workload()];
        let spec = params_of(cell, exps);
        let machine = spec.machine();
        let unit = cache.get_or_compile(key_of(cell, exps), &machine, wl, pipe)?;
        LAST_MODULE.with(|m| *m.borrow_mut() = Some(Arc::clone(&unit.module)));
        if pipe.fault_injection {
            crate::faults::maybe_injected_sim_panic(&unit.module);
        }
        let stats = simulate_within(
            &unit.module,
            &unit.decoded,
            &wl.args,
            machine,
            spec.sim(),
            cfg.deadline,
        )
        .map_err(|e| (FailureStage::Simulate, FailurePayload::Error(e)))?;
        fill_slot(slot(cell), stats, wl.name, spec.model)
    };

    // Writes a repro bundle for a permanently failed cell; bundle errors
    // are reported, never fatal (triage must not take down the run).
    let emit_triage = |cell: Cell, stage: FailureStage, payload: &FailurePayload, attempts: u32| {
        let Some(tcfg) = cfg.triage else { return };
        let wl = &workloads[cell.workload()];
        let spec = params_of(cell, exps);
        let module = LAST_MODULE.with(|m| m.borrow_mut().take());
        let repro = ReproCell {
            workload: wl.name.to_string(),
            args: wl.args.clone(),
            fault_injection: pipe.fault_injection,
            sabotage: pipe.sabotage,
            stage,
            signature: triage::signature(payload),
            fingerprint: spec.key(pipe, wl.name, &wl.source, &wl.args),
            attempts,
            spec,
        };
        match triage::write_bundle(
            tcfg,
            &repro,
            &wl.source,
            &payload.to_string(),
            module.as_deref(),
        ) {
            Ok(dir) => eprintln!("triage: wrote repro bundle {}", dir.display()),
            Err(e) => eprintln!(
                "triage: could not write bundle for {} / {}: {e}",
                wl.name, repro.spec.experiment
            ),
        }
    };

    // Appends a completed cell to the run journal. Durability degrades,
    // the run continues: append errors and conflicts are reported only.
    let record = |journal: &Store, entry: JournalEntry<'_>| match journal.put(&entry) {
        Ok(RecordOutcome::Appended) => {
            journal_appends.fetch_add(1, Ordering::Relaxed);
        }
        // Identical re-record (e.g. two resumed runs sharing a journal):
        // nothing to count.
        Ok(RecordOutcome::Duplicate) => {}
        // The key now serves nobody; the conflict is counted on the
        // journal and reported by drivers.
        Ok(RecordOutcome::Conflict) => eprintln!(
            "journal: fingerprint conflict on {} ({} / {}); key quarantined",
            entry.fingerprint, entry.workload, entry.experiment
        ),
        Err(e) => eprintln!("journal: append failed: {e}"),
    };

    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells.len()).max(1) {
            scope.spawn(|| loop {
                if log.aborted() {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i).copied() else {
                    return;
                };
                if cfg.cell_limit.is_some_and(|limit| i >= limit) {
                    interrupted.store(true, Ordering::Release);
                    return;
                }
                let workload = workloads[cell.workload()].name;
                let (experiment, model) = match cell {
                    Cell::Baseline { .. } => ("baseline", None),
                    Cell::Model { e, m, .. } => (exps[e].title, Some(Model::ALL[m])),
                };
                let journal = cfg.journal.zip(fps.as_deref().map(|fps| fps[i].as_str()));
                // Resume: a journaled cell's stats are copied back
                // bit-identically; nothing about it re-runs.
                if let Some(stats) = journal.and_then(|(j, fp)| j.get(fp)) {
                    match fill_slot(slot(cell), stats, workload, model) {
                        Ok(()) => {
                            journal_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        // A prefill clashing with a distinct held result
                        // means the journal (or the cell schedule) is
                        // damaged: report it as a failed cell, don't
                        // abort the worker.
                        Err((stage, payload)) => log.record(CellFailure {
                            workload,
                            experiment,
                            model,
                            stage,
                            payload,
                            wall: Duration::ZERO,
                            attempts: 1,
                        }),
                    }
                    continue;
                }
                let identity = model.map_or_else(
                    || format!("{workload} / {experiment}"),
                    |m| format!("{workload} / {experiment} / {m}"),
                );
                let t = Instant::now();
                let (outcome, attempts) = with_retries(
                    identity,
                    cfg.retry,
                    || {
                        LAST_MODULE.with(|m| *m.borrow_mut() = None);
                        // A panic that escaped the compile cache's own
                        // containment happened after compilation — in
                        // the simulator or its sink.
                        catch_cell(|| exec_cell(cell)).unwrap_or_else(|msg| {
                            Err((FailureStage::Simulate, FailurePayload::Panic(msg)))
                        })
                    },
                    // A memoized failure must be forgotten, or the retry
                    // would just replay the memo.
                    || {
                        cache.forget_failed(key_of(cell, exps));
                        retries.fetch_add(1, Ordering::Relaxed);
                    },
                );
                let wall = t.elapsed();
                match outcome {
                    Ok(()) => {
                        lock_tolerant(&cell_stats).push(CellStat {
                            workload,
                            experiment,
                            model,
                            wall,
                        });
                        if let (Some((j, fingerprint)), Some(stats)) = (journal, slot(cell).get()) {
                            record(
                                j,
                                JournalEntry {
                                    fingerprint,
                                    workload,
                                    experiment,
                                    model,
                                    stats,
                                },
                            );
                        }
                    }
                    Err((stage, payload)) => {
                        emit_triage(cell, stage, &payload, attempts);
                        log.record(CellFailure {
                            workload,
                            experiment,
                            model,
                            stage,
                            payload,
                            wall,
                            attempts,
                        });
                    }
                }
            });
        }
    });

    let mut failures = log.into_failures();

    // Assemble per-figure outcomes. Slots whose four cells all completed
    // become `Ok`; slots touched by a failure reference it; slots
    // abandoned by FailFast become `Skipped`.
    let mut outcomes = Vec::with_capacity(exps.len());
    for (e, exp) in exps.iter().enumerate() {
        let mut row: Vec<CellOutcome> = Vec::with_capacity(workloads.len());
        for (w, wl) in workloads.iter().enumerate() {
            let base = slot(Cell::Baseline { w }).get();
            let slots: [Option<&SimStats>; 3] =
                std::array::from_fn(|m| slot(Cell::Model { e, w, m }).get());
            let outcome = match (base, slots[0], slots[1], slots[2]) {
                (Some(base), Some(m0), Some(m1), Some(m2)) => {
                    let models: [SimStats; 3] = [m0.clone(), m1.clone(), m2.clone()];
                    match models
                        .iter()
                        .enumerate()
                        .find(|(_, s)| s.ret != base.ret)
                        .map(|(m, s)| (m, s.ret))
                    {
                        None => CellOutcome::Ok(BenchResult {
                            name: wl.name,
                            base: base.clone(),
                            models,
                        }),
                        Some((m, got)) => {
                            // A typed failure under either policy:
                            // `into_figures` surfaces it as
                            // `Err(Diverged)`, KeepGoing drivers contain
                            // it to this cell.
                            let failure = CellFailure {
                                workload: wl.name,
                                experiment: exp.title,
                                model: Some(Model::ALL[m]),
                                stage: FailureStage::Simulate,
                                payload: FailurePayload::Error(PipelineError::Diverged {
                                    workload: wl.name.to_string(),
                                    model: Model::ALL[m],
                                    got,
                                    want: base.ret,
                                }),
                                wall: Duration::ZERO,
                                attempts: 1,
                            };
                            // Divergence is only detectable here, after
                            // both sides ran; its bundle gets the module
                            // straight from the compile cache.
                            let cell = Cell::Model { e, w, m };
                            if let Some(unit) = cache.units.get(key_of(cell, exps)) {
                                LAST_MODULE.with(|slot| *slot.borrow_mut() = Some(unit.module));
                            }
                            emit_triage(cell, FailureStage::Simulate, &failure.payload, 1);
                            failures.push(failure.clone());
                            CellOutcome::Failed(failure)
                        }
                    }
                }
                _ => {
                    // Reference the first failure belonging to this slot
                    // (its own cells or the shared baseline).
                    let owned = failures.iter().find(|f| {
                        f.workload == wl.name
                            && (f.experiment == exp.title || f.experiment == "baseline")
                    });
                    match owned {
                        Some(f) => CellOutcome::Failed(f.clone()),
                        None => CellOutcome::Skipped,
                    }
                }
            };
            row.push(outcome);
        }
        outcomes.push(row);
    }

    // Journal-prefilled slots hold results too, but nothing was simulated
    // for them: sims are exactly the cells that ran and completed.
    let cells = cell_stats
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let baseline_sims = cells.iter().filter(|c| c.model.is_none()).count() as u64;
    let stats = EngineStats {
        threads,
        wall: started.elapsed(),
        compile_hits: cache.units.reused.load(Ordering::Relaxed),
        compile_misses: cache.units.computed.load(Ordering::Relaxed),
        baseline_sims,
        baseline_reuses: (exps.len().saturating_sub(1) as u64) * baseline_sims,
        model_sims: cells.len() as u64 - baseline_sims,
        front_computes: cache.fronts.computed.load(Ordering::Relaxed),
        front_reuses: cache.fronts.reused.load(Ordering::Relaxed),
        form_computes: cache.formations.computed.load(Ordering::Relaxed),
        form_reuses: cache.formations.reused.load(Ordering::Relaxed),
        journal_hits: journal_hits.load(Ordering::Relaxed),
        journal_appends: journal_appends.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        cells,
    };
    MatrixRun {
        outcomes,
        stats,
        report: FailureReport { failures },
        interrupted: interrupted.load(Ordering::Acquire),
    }
}

// ---------------------------------------------------------------------------
// Single-cell request path: the daemon's unit of work.
// ---------------------------------------------------------------------------

/// One self-contained compile-and-simulate request: everything a client
/// has to say to get a [`SimStats`] back. This is the daemon's unit of
/// work — unlike a cell of [`run_matrix`], it carries its own source
/// text and machine parameters instead of indexing into a preloaded
/// workload/experiment table.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRequest {
    /// Client-chosen name (reporting only; the fingerprint is the key).
    pub name: String,
    /// MiniC source text.
    pub source: String,
    /// Arguments to `main` (after the hidden stack pointer).
    pub args: Vec<i64>,
    /// Model to compile and simulate under.
    pub model: Model,
    /// Issue width of the simulated machine (1..=[`MAX_REQUEST_ISSUE`]).
    pub issue: u32,
    /// Branch slots per cycle (1..=issue).
    pub branches: u32,
    /// Memory hierarchy.
    pub memory: MemoryModel,
    /// Cycle watchdog budget (≥ 1).
    pub max_cycles: u64,
}

/// Upper bound a request may ask for as issue width / branch slots. The
/// paper's widest machine is 8-issue; 64 leaves generous sweep headroom
/// while keeping a hostile request from allocating absurd schedules.
pub const MAX_REQUEST_ISSUE: u32 = 64;

impl CellRequest {
    /// Validates the machine/simulation parameters *before* they reach
    /// code that asserts on them ([`MachineConfig::new`] panics on a zero
    /// width). A malformed request must become a typed error the service
    /// can report, never a worker abort.
    ///
    /// # Errors
    /// A [`PipelineError::Compile`] describing the first bad field.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let bad = |msg: String| Err(PipelineError::Compile(CompileError::new(0, 0, msg)));
        if self.source.trim().is_empty() {
            return bad("request: empty source".to_string());
        }
        if self.issue == 0 || self.issue > MAX_REQUEST_ISSUE {
            return bad(format!(
                "request: issue width {} outside 1..={MAX_REQUEST_ISSUE}",
                self.issue
            ));
        }
        if self.branches == 0 || self.branches > self.issue {
            return bad(format!(
                "request: branch slots {} outside 1..=issue ({})",
                self.branches, self.issue
            ));
        }
        if self.max_cycles == 0 {
            return bad("request: max_cycles must be >= 1".to_string());
        }
        Ok(())
    }

    /// The request's cell, filed under the service namespace of its
    /// degradation policy.
    fn cell(&self, degrade: bool) -> CellSpec {
        CellSpec {
            experiment: service_namespace(degrade).into(),
            model: Some(self.model),
            issue: self.issue,
            branches: self.branches,
            memory: self.memory,
            max_cycles: self.max_cycles,
        }
    }
}

/// How patient the request path is: bounded retries of transient
/// failures, a per-attempt wall-clock deadline, and whether the
/// budget-degradation ladder may trade optimization for completion.
#[derive(Debug, Clone, Copy)]
pub struct RequestConfig {
    /// Bounded re-running of transient failures (same semantics as the
    /// matrix engine's [`MatrixConfig::retry`]).
    pub retry: RetryPolicy,
    /// Per-attempt wall-clock budget, enforced cooperatively by the
    /// simulator alongside its cycle budget.
    pub deadline: Option<Duration>,
    /// When true, a tripped compile budget degrades the cell through
    /// [`Pipeline::finish_degraded`] instead of failing it.
    pub degrade: bool,
}

impl Default for RequestConfig {
    fn default() -> RequestConfig {
        RequestConfig {
            retry: RetryPolicy::default(),
            deadline: None,
            degrade: true,
        }
    }
}

/// A permanently failed request: the owned counterpart of
/// [`CellFailure`] (whose `&'static str` fields fit the preloaded matrix
/// tables, not client-supplied names).
#[derive(Debug, Clone)]
pub struct RequestFailure {
    /// Stage the failure occurred in.
    pub stage: FailureStage,
    /// The error or captured panic.
    pub payload: FailurePayload,
    /// Attempts spent before the failure became permanent.
    pub attempts: u32,
    /// Wall time spent across all attempts.
    pub wall: Duration,
}

impl fmt::Display for RequestFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attempts = if self.attempts > 1 {
            format!(", {} attempts", self.attempts)
        } else {
            String::new()
        };
        write!(
            f,
            "[{} stage, {:.1?}{}]: {}",
            self.stage, self.wall, attempts, self.payload
        )
    }
}

/// The experiment slot of a service cell, in its key and in the store: it
/// names the service namespace *and* the degradation policy — a degraded
/// and a strict compile of the same source may legitimately produce
/// different stats, so they must never share a key.
pub fn service_namespace(degrade: bool) -> &'static str {
    if degrade {
        "service-degrade"
    } else {
        "service-strict"
    }
}

/// The content address of a request: the same key as a matrix cell's
/// journal fingerprint, with [`service_namespace`] as the experiment.
pub fn request_fingerprint(req: &CellRequest, pipe: &Pipeline, degrade: bool) -> String {
    req.cell(degrade)
        .key(pipe, &req.name, &req.source, &req.args)
}

/// Runs one [`CellRequest`] end to end with the engine's full containment
/// stack: parameter validation, per-attempt panic capture,
/// bounded retries of transient failures, the cooperative wall-clock
/// deadline, and (optionally) the budget-degradation ladder. A
/// pathological input degrades or fails *this request* — never the
/// calling worker.
///
/// # Errors
/// A [`RequestFailure`] carrying the typed payload, attempt count, and
/// wall time of the permanent failure.
pub fn run_request(
    req: &CellRequest,
    pipe: &Pipeline,
    cfg: &RequestConfig,
) -> Result<(SimStats, Degradation), RequestFailure> {
    let started = Instant::now();
    if let Err(e) = req.validate() {
        return Err(RequestFailure {
            stage: FailureStage::Compile,
            payload: FailurePayload::Error(e),
            attempts: 1,
            wall: started.elapsed(),
        });
    }
    let spec = req.cell(cfg.degrade);
    let (machine, sim) = (spec.machine(), spec.sim());

    // One attempt: compile (front + finish) and simulate, each phase
    // under its own panic containment so a captured panic is attributed
    // to the right stage.
    let attempt = || -> Result<(SimStats, Degradation), CellError> {
        let compiled = catch_cell(|| -> Result<(Module, Degradation), PipelineError> {
            let front = pipe.front(&req.source, &req.args)?;
            if cfg.degrade {
                pipe.finish_degraded(&front, req.model, &machine)
            } else {
                let module = pipe.finish(&front, req.model, &machine)?;
                Ok((module, Degradation::default()))
            }
        });
        let (module, degradation) = contained(compiled, FailureStage::Compile)?;
        let simmed = catch_cell(|| {
            let decoded = Arc::new(DecodedModule::decode(&module));
            simulate_within(&module, &decoded, &req.args, machine, sim, cfg.deadline)
        });
        Ok((contained(simmed, FailureStage::Simulate)?, degradation))
    };

    let identity = format!("{} / service / {}", req.name, req.model);
    let (outcome, attempts) = with_retries(identity, cfg.retry, attempt, || {});
    outcome.map_err(|(stage, payload)| RequestFailure {
        stage,
        payload,
        attempts,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_plain(exps: &[Experiment], workloads: &[Workload], policy: FailurePolicy) -> MatrixRun {
        run_matrix(
            exps,
            workloads,
            &Pipeline::default(),
            &MatrixConfig {
                threads: 2,
                policy,
                ..MatrixConfig::default()
            },
        )
    }

    #[test]
    fn empty_matrix_is_empty() {
        let run = run_plain(&[], &[], FailurePolicy::FailFast);
        assert_eq!(run.stats.compile_hits + run.stats.compile_misses, 0);
        let figures = run.into_figures().expect("empty matrix runs");
        assert!(figures.is_empty());
    }

    #[test]
    fn compile_errors_propagate_not_panic() {
        let bad = Workload {
            name: "bad",
            description: "unparseable",
            source: "int main( {".to_string(),
            args: Vec::new(),
        };
        let run = run_plain(&[Experiment::fig8()], &[bad], FailurePolicy::FailFast);
        assert!(
            run.into_figures().is_err(),
            "syntax error must surface as PipelineError"
        );
    }

    #[test]
    fn keep_going_reports_instead_of_erroring() {
        let bad = Workload {
            name: "bad",
            description: "unparseable",
            source: "int main( {".to_string(),
            args: Vec::new(),
        };
        let good = Workload {
            name: "good",
            description: "healthy neighbor",
            source: "int main() { int i; int s; s = 0;
                     for (i = 0; i < 50; i += 1) { s += i; } return s; }"
                .to_string(),
            args: Vec::new(),
        };
        let run = run_plain(
            &[Experiment::fig8()],
            &[bad, good],
            FailurePolicy::KeepGoing,
        );
        assert!(!run.report.is_empty());
        assert!(run
            .report
            .failures
            .iter()
            .all(|f| f.workload == "bad" && f.stage == FailureStage::Compile));
        assert!(run.outcomes[0][0].ok().is_none(), "bad slot failed");
        assert!(run.outcomes[0][1].ok().is_some(), "good slot completed");
    }

    #[test]
    fn cell_limit_marks_run_interrupted() {
        let good = Workload {
            name: "good",
            description: "healthy",
            source: "int main() { int i; int s; s = 0;
                     for (i = 0; i < 50; i += 1) { s += i; } return s; }"
                .to_string(),
            args: Vec::new(),
        };
        let run = run_matrix(
            &[Experiment::fig8()],
            &[good],
            &Pipeline::default(),
            &MatrixConfig {
                threads: 1,
                policy: FailurePolicy::KeepGoing,
                cell_limit: Some(2),
                ..MatrixConfig::default()
            },
        );
        assert!(
            run.interrupted,
            "hitting the cell limit reports interruption"
        );
        assert!(
            run.stats.cells.len() <= 2,
            "no cell past the limit may have run"
        );
    }

    /// A deadline the clock cannot represent is no deadline, not an
    /// overflow panic: the cell simulates to the same stats.
    #[test]
    fn unrepresentable_deadline_is_no_deadline() {
        let pipe = Pipeline::default();
        let machine = MachineConfig::new(8, 1);
        let args = [7];
        let front = pipe
            .front("int main(int n) { return n * 6; }", &args)
            .expect("front half");
        let module = pipe
            .finish(&front, Model::FullPred, &machine)
            .expect("finish");
        let decoded = Arc::new(DecodedModule::decode(&module));
        let run = |deadline| {
            simulate_within(
                &module,
                &decoded,
                &args,
                machine,
                SimConfig::default(),
                deadline,
            )
            .expect("simulates")
        };
        assert_eq!(run(Some(Duration::MAX)), run(None));
    }

    /// Every matrix cell arms its deadline through that helper: one the
    /// clock cannot represent fails no cell and changes no result.
    #[test]
    fn matrix_under_unrepresentable_deadline_fails_no_cell() {
        let good = Workload {
            name: "good",
            description: "healthy",
            source: "int main() { int i; int s; s = 0;
                     for (i = 0; i < 50; i += 1) { s += i; } return s; }"
                .to_string(),
            args: Vec::new(),
        };
        let run = |deadline| {
            let run = run_matrix(
                &[Experiment::fig8()],
                std::slice::from_ref(&good),
                &Pipeline::default(),
                &MatrixConfig {
                    threads: 1,
                    policy: FailurePolicy::KeepGoing,
                    deadline,
                    ..MatrixConfig::default()
                },
            );
            assert!(run.report.is_empty(), "deadline {deadline:?} failed a cell");
            let figures = run.into_figures().expect("every cell completes");
            figures[0]
                .iter()
                .map(|r| (r.base.clone(), r.models.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(Some(Duration::MAX)), run(None));
    }

    /// So does the request path: a request under a deadline the clock
    /// cannot represent completes with the stats it has without one.
    #[test]
    fn request_under_unrepresentable_deadline_completes() {
        let req = CellRequest {
            name: "times6".to_string(),
            source: "int main(int n) { return n * 6; }".to_string(),
            args: vec![7],
            model: Model::FullPred,
            issue: 8,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: 1_000_000,
        };
        let pipe = Pipeline::default();
        let run = |deadline| {
            let cfg = RequestConfig {
                deadline,
                ..RequestConfig::default()
            };
            run_request(&req, &pipe, &cfg).expect("request completes")
        };
        assert_eq!(run(Some(Duration::MAX)), run(None));
    }

    /// Pins the content address of one matrix cell and one service
    /// request to the hex keys existing run journals and daemon stores
    /// were written under: a change here orphans every stored result, so
    /// it must be deliberate (and visible in review). The pipeline is the
    /// checked one whatever the build profile: `Pipeline::default()`
    /// turns checks off in release, and the keys hash the whole config.
    #[test]
    fn content_keys_are_pinned() {
        let source = "int main(int n) { return n + 1; }";
        let wl = Workload {
            name: "pin",
            description: "fingerprint pin",
            source: source.to_string(),
            args: vec![41],
        };
        let exps = [Experiment::fig8(), Experiment::fig11()];
        let pipe = Pipeline {
            checks: true,
            ..Pipeline::default()
        };
        let key = |cell| params_of(cell, &exps).key(&pipe, wl.name, &wl.source, &wl.args);
        assert_eq!(key(Cell::Baseline { w: 0 }), "afbb001ff8dae874");
        assert_eq!(key(Cell::Model { e: 1, w: 0, m: 2 }), "36c2ed384df6cebf");
        let req = CellRequest {
            name: "pin".to_string(),
            source: source.to_string(),
            args: vec![41],
            model: Model::CondMove,
            issue: 4,
            branches: 2,
            memory: MemoryModel::Perfect,
            max_cycles: 1_000_000,
        };
        assert_eq!(request_fingerprint(&req, &pipe, true), "b6c0db7a1bdc74bb");
        assert_eq!(request_fingerprint(&req, &pipe, false), "b62a84fa97d98ab8");
    }
}
