//! Fault-injection suite: proves the matrix engine's containment
//! guarantees end to end. A deliberately panicking cell and a
//! watchdog-tripping cell run inside a small matrix next to healthy
//! workloads; under `KeepGoing` every healthy cell must come out
//! bit-identical to a clean serial run, and the failure report must name
//! exactly the injected cells with the right stage and payload.

use hyperpred::faults::{
    arm_flaky, cycle_hog_fixture, diverge_fixture, flaky_fixture, panic_fixture, DIVERGE_RESULT,
};
use hyperpred::sim::SimError;
use hyperpred::Model;
use hyperpred::{
    run_matrix, run_workload, CellOutcome, Experiment, FailurePayload, FailurePolicy, FailureStage,
    MatrixConfig, Pipeline, PipelineError, RetryPolicy,
};
use hyperpred_workloads::Workload;
use std::time::Duration;

/// Cycle budget for the injected experiment: far above the healthy
/// workloads (a few thousand cycles each) and far below the hog fixture.
const TEST_MAX_CYCLES: u64 = 50_000;

fn experiment() -> Experiment {
    let mut exp = Experiment::fig8();
    exp.max_cycles = TEST_MAX_CYCLES;
    exp
}

fn healthy() -> Vec<Workload> {
    let branchy = Workload {
        name: "branchy",
        description: "if-else ladder in a loop",
        source: "int main() {
            int i; int s; s = 0;
            for (i = 0; i < 400; i += 1) {
                if (i % 3 == 0) s += 5;
                else if (i % 5 == 0) s -= 2;
                else s += 1;
            }
            return s;
        }"
        .to_string(),
        args: vec![],
    };
    let calls = Workload {
        name: "calls",
        description: "call/return scheduling",
        source: "int clamp(int v, int lo, int hi) {
            if (v < lo) return lo;
            if (v > hi) return hi;
            return v;
        }
        int main() {
            int i; int s; s = 0;
            for (i = 0; i < 300; i += 1) {
                s += clamp(i * 3 % 97 - 40, -25, 25);
            }
            return s + 1000;
        }"
        .to_string(),
        args: vec![],
    };
    vec![branchy, calls]
}

#[test]
fn keep_going_contains_injected_faults() {
    let pipe = Pipeline {
        fault_injection: true,
        ..Pipeline::default()
    };
    let exp = experiment();

    let mut wls = healthy();
    let n_healthy = wls.len();
    wls.push(panic_fixture());
    wls.push(cycle_hog_fixture(100_000));

    let run = run_matrix(
        &[exp],
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 3,
            policy: FailurePolicy::KeepGoing,
            ..MatrixConfig::default()
        },
    );

    // The report names exactly the injected workloads — never a healthy one.
    assert!(!run.report.is_empty(), "injected faults must be reported");
    for f in &run.report.failures {
        assert!(
            f.workload == "inject-panic" || f.workload == "inject-spin",
            "healthy cell {} must not appear in the report",
            f.workload
        );
        match f.workload {
            "inject-panic" => {
                assert_eq!(f.stage, FailureStage::Compile);
                match &f.payload {
                    FailurePayload::Panic(msg) => {
                        assert!(
                            msg.contains("injected compile-stage panic"),
                            "captured message should carry the panic text: {msg}"
                        );
                    }
                    other => panic!("inject-panic must fail as a captured panic, got {other}"),
                }
            }
            "inject-spin" => {
                assert_eq!(f.stage, FailureStage::Simulate);
                match &f.payload {
                    FailurePayload::Error(PipelineError::Sim(SimError::CycleLimit {
                        limit,
                        ..
                    })) => assert_eq!(*limit, TEST_MAX_CYCLES),
                    other => panic!("inject-spin must trip the watchdog, got {other}"),
                }
            }
            _ => unreachable!(),
        }
    }
    let mut failed: Vec<&str> = run.report.failures.iter().map(|f| f.workload).collect();
    failed.sort_unstable();
    failed.dedup();
    assert_eq!(failed, ["inject-panic", "inject-spin"]);

    // Both injected slots are marked failed in the assembled matrix.
    for (w, wl) in wls.iter().enumerate().skip(n_healthy) {
        assert!(
            matches!(run.outcomes[0][w], CellOutcome::Failed(_)),
            "{} slot must be Failed",
            wl.name
        );
    }

    // Every healthy cell is bit-identical to a clean serial run: the
    // injected neighbors may not perturb results in any way.
    let clean_pipe = Pipeline::default();
    for (w, wl) in wls.iter().take(n_healthy).enumerate() {
        let clean = run_workload(wl, &exp, &clean_pipe).expect("clean serial run");
        let got = run.outcomes[0][w]
            .ok()
            .unwrap_or_else(|| panic!("{} must complete despite injected neighbors", wl.name));
        assert_eq!(got.base, clean.base, "{}: baseline stats differ", wl.name);
        assert_eq!(got.models, clean.models, "{}: model stats differ", wl.name);
    }
}

/// A model whose simulated result disagrees with the baseline's must be
/// contained as a *typed* `Diverged` cell failure — historically this was
/// an `assert_eq!` that panicked straight through the fault isolation.
#[test]
fn keep_going_reports_divergence_as_cell_failure_not_panic() {
    let pipe = Pipeline {
        fault_injection: true,
        ..Pipeline::default()
    };
    let exp = experiment();

    let mut wls = healthy();
    let n_healthy = wls.len();
    wls.push(diverge_fixture());

    let run = run_matrix(
        &[exp],
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 2,
            policy: FailurePolicy::KeepGoing,
            ..MatrixConfig::default()
        },
    );

    // Exactly the injected workload fails, with the typed payload naming
    // the diverging model and both results.
    assert!(!run.report.is_empty(), "divergence must be reported");
    for f in &run.report.failures {
        assert_eq!(f.workload, "inject-diverge");
        assert_eq!(f.stage, FailureStage::Simulate);
        match &f.payload {
            FailurePayload::Error(PipelineError::Diverged {
                workload,
                model,
                got,
                want,
            }) => {
                assert_eq!(*workload, "inject-diverge");
                assert_eq!(*model, Model::FullPred);
                assert_eq!(*got, DIVERGE_RESULT);
                assert_ne!(*got, *want);
            }
            other => panic!("divergence must surface as Diverged, got {other}"),
        }
    }
    assert!(
        matches!(run.outcomes[0][n_healthy], CellOutcome::Failed(_)),
        "diverged slot must be Failed"
    );

    // Healthy neighbors still complete, bit-identical to a clean run.
    let clean_pipe = Pipeline::default();
    for (w, wl) in wls.iter().take(n_healthy).enumerate() {
        let clean = run_workload(wl, &exp, &clean_pipe).expect("clean serial run");
        let got = run.outcomes[0][w]
            .ok()
            .unwrap_or_else(|| panic!("{} must complete despite the diverging neighbor", wl.name));
        assert_eq!(got.base, clean.base, "{}: baseline stats differ", wl.name);
        assert_eq!(got.models, clean.models, "{}: model stats differ", wl.name);
    }

    // The fixture is inert without injection: all three models agree.
    let clean =
        run_workload(&diverge_fixture(), &exp, &clean_pipe).expect("fixture is inert by default");
    for s in &clean.models {
        assert_eq!(s.ret, clean.base.ret);
    }
}

/// Transient failures are absorbed by the retry policy; failures that
/// outlive the retry budget become permanent and report their attempt
/// count. Both phases share one test because the flaky fixture's panic
/// budget is process-global.
#[test]
fn retry_policy_absorbs_transient_failures() {
    let pipe = Pipeline {
        fault_injection: true,
        ..Pipeline::default()
    };
    let exp = experiment();
    let wls = [flaky_fixture()];

    // Phase 1: two injected panics, three attempts allowed — the run must
    // come out clean, with the retries visible in the engine stats.
    arm_flaky(2);
    let run = run_matrix(
        &[exp],
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 1,
            policy: FailurePolicy::KeepGoing,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Duration::ZERO,
            },
            ..MatrixConfig::default()
        },
    );
    assert!(
        run.report.is_empty(),
        "retries must absorb the transient panics: {}",
        run.report
    );
    assert!(
        run.outcomes[0][0].ok().is_some(),
        "the flaky cell must complete once the fault budget is spent"
    );
    assert!(
        run.stats.retries >= 2,
        "both injected panics cost an extra attempt, got {}",
        run.stats.retries
    );

    // Phase 2: more injected panics than the retry budget — the failure
    // becomes permanent and records how many attempts were spent.
    arm_flaky(100);
    let run = run_matrix(
        &[experiment()],
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 1,
            policy: FailurePolicy::KeepGoing,
            retry: RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
            },
            ..MatrixConfig::default()
        },
    );
    arm_flaky(0); // disarm: no budget may leak into other tests
    assert!(!run.report.is_empty(), "exhausted retries must be reported");
    for f in &run.report.failures {
        assert_eq!(f.workload, "inject-flaky");
        assert_eq!(
            f.attempts, 2,
            "a permanent failure records every attempt spent"
        );
        assert!(
            f.to_string().contains("2 attempts"),
            "the report surfaces the attempt count: {f}"
        );
    }
}

/// A runaway cell with an effectively unlimited *cycle* budget must still
/// be stopped by the per-cell wall-clock deadline, surfacing as a typed
/// `Deadline` failure rather than a hang.
#[test]
fn wall_clock_deadline_stops_runaway_cells() {
    let pipe = Pipeline {
        fault_injection: true,
        ..Pipeline::default()
    };
    // Default fig8 cycle budget (effectively unlimited here): only the
    // wall-clock deadline can stop the hog.
    let exp = Experiment::fig8();
    let wls = [cycle_hog_fixture(8_000_000)];

    let run = run_matrix(
        &[exp],
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 2,
            policy: FailurePolicy::KeepGoing,
            deadline: Some(Duration::from_millis(100)),
            ..MatrixConfig::default()
        },
    );
    assert!(!run.report.is_empty(), "the hog must trip the deadline");
    for f in &run.report.failures {
        assert_eq!(f.workload, "inject-spin");
        assert_eq!(f.stage, FailureStage::Simulate);
        match &f.payload {
            FailurePayload::Error(PipelineError::Sim(SimError::Deadline { insts })) => {
                assert!(*insts > 0, "the deadline fired mid-simulation");
            }
            other => panic!("the hog must fail with a Deadline payload, got {other}"),
        }
    }
    assert!(matches!(run.outcomes[0][0], CellOutcome::Failed(_)));
}

#[test]
fn fail_fast_aborts_after_first_failure() {
    let pipe = Pipeline {
        fault_injection: true,
        ..Pipeline::default()
    };
    let exp = experiment();

    // The panic fixture is workload 0, so its baseline compile is the
    // first queued cell; with one worker the abort is deterministic.
    let mut wls = vec![panic_fixture()];
    wls.extend(healthy());

    let run = run_matrix(
        &[exp],
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 1,
            policy: FailurePolicy::FailFast,
            ..MatrixConfig::default()
        },
    );

    assert_eq!(run.report.len(), 1, "fail-fast stops at the first failure");
    assert_eq!(run.report.failures[0].workload, "inject-panic");
    assert!(matches!(run.outcomes[0][0], CellOutcome::Failed(_)));
    for (w, wl) in wls.iter().enumerate().skip(1) {
        assert!(
            matches!(run.outcomes[0][w], CellOutcome::Skipped),
            "{} must be abandoned, not run",
            wl.name
        );
    }
}
