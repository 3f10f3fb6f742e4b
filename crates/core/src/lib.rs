//! `hyperpred` — full vs. partial predicated execution for ILP processors.
//!
//! A reproduction of Mahlke, Hank, McCormick, August & Hwu, *"A Comparison
//! of Full and Partial Predicated Execution Support for ILP Processors"*
//! (ISCA 1995). This crate is the facade over the whole workspace: it
//! compiles MiniC programs under the paper's three machine/compiler
//! models, runs the emulation-driven timing simulation, and reproduces the
//! paper's tables and figures.
//!
//! # The three models
//!
//! * [`Model::Superblock`] — the baseline: no predication; superblock
//!   formation plus speculative code motion of silent instructions.
//! * [`Model::CondMove`] — *partial* predicate support: the same
//!   hyperblock if-conversion as the full model, then conversion of every
//!   predicated instruction into speculation + `cmov`/`cmov_com`.
//! * [`Model::FullPred`] — *full* predicate support: a predicate register
//!   file, guarded instructions, and typed predicate defines.
//!
//! # Quickstart
//!
//! ```
//! use hyperpred::{evaluate, speedup, CellSpec, Model, Pipeline};
//! use hyperpred_sched::MachineConfig;
//! use hyperpred_sim::{SimConfig, DEFAULT_CYCLE_LIMIT};
//!
//! let src = "int main() {
//!     int i; int s; s = 0;
//!     for (i = 0; i < 200; i += 1) { if (i % 2 == 0) s += 3; else s += 1; }
//!     return s;
//! }";
//! let pipe = Pipeline::default();
//! let machine = MachineConfig::new(8, 1);
//! let sim = SimConfig::default();
//! // The paper's speedup denominator: 1-issue superblock, perfect memory.
//! let denom = CellSpec::baseline(DEFAULT_CYCLE_LIMIT);
//! let base = evaluate(src, &[], denom.compiled_model(), denom.machine(), denom.sim(), &pipe)
//!     .unwrap();
//! let full = evaluate(src, &[], Model::FullPred, machine, sim, &pipe).unwrap();
//! assert_eq!(base.ret, full.ret);
//! assert!(speedup(&base, &full) > 1.0);
//! ```

pub mod client;
pub mod experiments;
pub mod faults;
pub mod fsck;
pub mod journal;
pub mod json;
pub mod matrix;
pub mod pipeline;
pub mod predoracle;
pub mod report;
pub mod service;
pub mod soak;
pub mod store;
pub mod triage;
pub mod vfs;

pub use client::{Client, ClientConfig, ClientError};
pub use experiments::{
    branch_table, instruction_table, mean_speedup, run_experiment, run_workload, speedup_table,
    BenchResult, CellSpec, Experiment,
};
pub use fsck::{fsck, FsckOptions, FsckReport};
pub use journal::{fnv64, JournalConflict, JournalEntry, RecordOutcome};
pub use matrix::{
    request_fingerprint, run_matrix, run_request, service_namespace, CellFailure, CellOutcome,
    CellRequest, CellStat, EngineStats, FailurePayload, FailurePolicy, FailureReport, FailureStage,
    MatrixConfig, MatrixRun, RequestConfig, RequestFailure, RetryPolicy, MAX_REQUEST_ISSUE,
};
pub use pipeline::{
    evaluate, speedup, Degradation, LintError, Model, Pipeline, PipelineError, Stage,
};
pub use report::{format_table, summarize_run, Row, RunSummary};
pub use soak::{run_soak, SoakConfig, SoakFailure, SoakReport, SOAK_EXPERIMENT};
pub use store::{CompactStats, Store, StoreConfig, SyncPolicy, DEFAULT_LOCK_STALE_AFTER};
pub use triage::{load_bundle, minimize_module, minimize_source, Bundle, ReproCell, TriageConfig};
pub use vfs::{Fault, FaultPlan, Vfs, VfsFile};

// Re-export the workspace layers so downstream users need one dependency.
pub use hyperpred_emu as emu;
pub use hyperpred_hyperblock as hyperblock;
pub use hyperpred_ir as ir;
pub use hyperpred_lang as lang;
pub use hyperpred_opt as opt;
pub use hyperpred_partial as partial;
pub use hyperpred_sched as sched;
pub use hyperpred_sim as sim;
pub use hyperpred_workloads as workloads;
