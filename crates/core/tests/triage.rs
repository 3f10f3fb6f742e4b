//! Failure-triage suite: a permanently failing cell must leave behind a
//! self-contained repro bundle, the bundle must replay to the same
//! failure signature (including through the `hyperpredc repro` CLI), and
//! the delta-debugging minimizer must produce a strictly smaller program
//! that still fails the same way.

use hyperpred::faults::{panic_fixture, sim_panic_fixture};
use hyperpred::triage;
use hyperpred::FailureStage;
use hyperpred::{
    load_bundle, minimize_module, run_matrix, Experiment, FailurePolicy, MatrixConfig, Model,
    Pipeline, TriageConfig,
};
use std::path::PathBuf;

const TEST_MAX_CYCLES: u64 = 50_000;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn experiment() -> Experiment {
    let mut exp = Experiment::fig8();
    exp.max_cycles = TEST_MAX_CYCLES;
    exp
}

fn injected_run(dir: &PathBuf) {
    let pipe = Pipeline {
        fault_injection: true,
        ..Pipeline::default()
    };
    let tcfg = TriageConfig::new(dir);
    let run = run_matrix(
        &[experiment()],
        &[panic_fixture(), sim_panic_fixture()],
        &pipe,
        &MatrixConfig {
            threads: 2,
            policy: FailurePolicy::KeepGoing,
            triage: Some(&tcfg),
            ..MatrixConfig::default()
        },
    );
    assert!(!run.report.is_empty(), "injected faults must be reported");
}

#[test]
fn permanent_failures_emit_replayable_bundles() {
    let dir = tmpdir("triage-bundles");
    injected_run(&dir);

    let bundles: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("triage dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(
        bundles.iter().any(|b| b
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("inject-panic"))),
        "compile-stage panic must leave a bundle: {bundles:?}"
    );
    assert!(
        bundles.iter().any(|b| b
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("inject-simpanic"))),
        "simulate-stage panic must leave a bundle: {bundles:?}"
    );

    for b in &bundles {
        let bundle = load_bundle(b).expect("every bundle loads");
        assert!(!bundle.source.is_empty());
        assert!(!bundle.cell.signature.is_empty());
        assert!(bundle.cell.fault_injection);
        // The bundle is self-contained: replaying it from nothing but the
        // stored source reproduces the recorded signature exactly.
        let replayed = triage::replay(&bundle.cell, &bundle.source);
        assert_eq!(
            replayed.as_deref(),
            Some(bundle.cell.signature.as_str()),
            "{}: replay must reproduce the recorded failure",
            b.display()
        );
    }

    // The compile-stage panic has no module, so the minimizer ran on
    // source lines: strictly smaller, same signature.
    let panic_bundle = bundles
        .iter()
        .find(|b| {
            b.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("inject-panic"))
        })
        .expect("panic bundle");
    assert!(
        !panic_bundle.join("ir.txt").exists(),
        "a compile-stage failure has no lowered module to dump"
    );
    let original = std::fs::read_to_string(panic_bundle.join("workload.c")).expect("workload.c");
    let minimized = std::fs::read_to_string(panic_bundle.join("minimized.c"))
        .expect("compile-stage bundles carry a source-level minimization");
    assert!(
        minimized.lines().count() < original.lines().count(),
        "minimized source must be strictly smaller"
    );
    let bundle = load_bundle(panic_bundle).expect("loads");
    assert_eq!(
        triage::replay(&bundle.cell, &minimized).as_deref(),
        Some(bundle.cell.signature.as_str()),
        "minimized source must still fail with the same signature"
    );

    // The simulate-stage panic happened after lowering, so the bundle
    // carries the IR dump and a module-level minimization.
    let sim_bundle = bundles
        .iter()
        .find(|b| {
            b.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("inject-simpanic"))
        })
        .expect("simpanic bundle");
    assert!(
        sim_bundle.join("ir.txt").exists(),
        "a simulate-stage failure dumps the lowered module"
    );
    assert!(
        sim_bundle.join("minimized.txt").exists() && sim_bundle.join("minimize.json").exists(),
        "a simulate-stage failure gets a module-level minimization"
    );
}

#[test]
fn minimize_module_shrinks_while_preserving_the_signature() {
    let fixture = sim_panic_fixture();
    let spec = experiment().cell(Model::FullPred);
    let module = Pipeline::default()
        .compile(
            &fixture.source,
            &fixture.args,
            Model::FullPred,
            &spec.machine(),
        )
        .expect("the fixture compiles; the injection trips at simulate time");

    let cell = triage::ReproCell {
        workload: fixture.name.to_string(),
        args: fixture.args.clone(),
        spec,
        fault_injection: true,
        sabotage: None,
        stage: FailureStage::Simulate,
        signature: String::new(), // established by the minimizer itself
        fingerprint: String::new(),
        attempts: 1,
    };
    let min = minimize_module(&cell, &module).expect("the module fails, so minimization applies");
    assert!(
        min.minimized_insts < min.original_insts,
        "minimizer must strictly shrink ({} -> {})",
        min.original_insts,
        min.minimized_insts
    );
    assert!(
        min.signature.contains("injected simulate-stage panic"),
        "unexpected signature {}",
        min.signature
    );
    // The shrunken module itself still fails identically.
    assert_eq!(
        triage::minimize_module(&cell, &min.module)
            .expect("still fails")
            .signature,
        min.signature
    );
}

#[test]
fn hyperpredc_repro_reproduces_the_recorded_failure() {
    let dir = tmpdir("triage-cli");
    injected_run(&dir);

    let bundle = std::fs::read_dir(&dir)
        .expect("triage dir exists")
        .map(|e| e.expect("dir entry").path())
        .find(|b| {
            b.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("inject-panic"))
        })
        .expect("panic bundle exists");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hyperpredc"))
        .arg("repro")
        .arg(&bundle)
        .output()
        .expect("spawn hyperpredc repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "repro of a real failure exits 1\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("reproduced"),
        "repro must confirm the signature matched\nstdout:\n{stdout}"
    );
    assert!(
        stdout.contains("recorded signature"),
        "repro prints the recorded signature\nstdout:\n{stdout}"
    );
}
