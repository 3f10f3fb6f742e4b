//! Soak-engine suite: generated programs must pass the full cross-model
//! oracle battery, a killed run must resume from its journal
//! bit-identically, a sabotaged build must leave a reproducible
//! minimized bundle, and pathological growth must degrade to a typed
//! budget failure — never a hang.

use hyperpred::{
    load_bundle, run_soak, triage, Model, Pipeline, PipelineError, SoakConfig, Stage, TriageConfig,
};
use hyperpred_sched::MachineConfig;
use hyperpred_workloads::gen::{generate, Profile};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// The cell records (everything but meta lines) of every segment of a
/// journal store, sorted — the order cells land in depends on
/// interleaving and on which run wrote them, their bytes do not.
fn cell_records(dir: &PathBuf) -> Vec<String> {
    let mut lines = Vec::new();
    for seg in std::fs::read_dir(dir).expect("journal readable") {
        let text = std::fs::read_to_string(seg.expect("segment").path()).expect("segment readable");
        lines.extend(
            text.lines()
                .filter(|l| !l.contains("\"kind\":\"meta\""))
                .map(str::to_string),
        );
    }
    lines.sort();
    lines
}

#[test]
fn soak_runs_clean_and_resumes_bit_identically() {
    let dir = tmpdir("soak-resume");
    let journal_a = dir.join("journal-a");
    let mut cfg = SoakConfig::new(7, 6);
    cfg.journal = Some(journal_a.clone());

    // First invocation stops early — the in-process stand-in for a kill.
    cfg.cell_limit = Some(3);
    let first = run_soak(&cfg).expect("soak runs");
    assert!(first.interrupted, "cell_limit must interrupt");
    assert_eq!(first.ran, 3);
    assert_eq!(
        first.failures.len(),
        0,
        "generated programs must pass the oracle battery: {:?}",
        first.failures
    );

    // Resume with the same journal: only the missing programs run.
    cfg.cell_limit = None;
    let second = run_soak(&cfg).expect("soak resumes");
    assert!(second.ok(), "failures: {:?}", second.failures);
    assert_eq!(second.skipped, 3, "journaled programs must be skipped");
    assert_eq!(second.ran, 3);

    // The interrupted+resumed journal (two segments, one per run) is
    // bit-identical as a set of cell records to one from an
    // uninterrupted scratch run.
    let journal_b = dir.join("journal-b");
    let mut scratch_cfg = cfg.clone();
    scratch_cfg.journal = Some(journal_b.clone());
    let scratch = run_soak(&scratch_cfg).expect("scratch soak runs");
    assert!(scratch.ok());
    assert_eq!(scratch.ran, 6);
    assert_eq!(
        cell_records(&journal_a),
        cell_records(&journal_b),
        "resumed and scratch journals must hold identical cell records"
    );

    // A third run over the merged journal does nothing at all.
    let third = run_soak(&cfg).expect("soak re-opens");
    assert_eq!(third.skipped, 6);
    assert_eq!(third.ran, 0);
    assert_eq!(third.journal_corrupt, 0);
}

#[test]
fn sabotaged_soak_emits_a_reproducible_minimized_bundle() {
    let dir = tmpdir("soak-sabotage");
    let mut cfg = SoakConfig::new(3, 1);
    cfg.sabotage = Some(Stage::Promote);
    cfg.widths = vec![(4, 1)]; // one width keeps minimization probes cheap
    cfg.triage = Some(TriageConfig::new(dir.join("triage")));

    let report = run_soak(&cfg).expect("soak runs");
    assert_eq!(report.failures.len(), 1, "sabotage must fail the program");
    let failure = &report.failures[0];
    assert_eq!(
        failure.signature, "lint: after pass `promote`",
        "the checkpoint after the sabotaged pass takes the blame"
    );
    let bundle_dir = failure.bundle.clone().expect("a bundle was written");

    // `hyperpredc repro` replays the bundle through the soak battery
    // (the recorded sabotage included) and confirms the signature.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hyperpredc"))
        .arg("repro")
        .arg(&bundle_dir)
        .output()
        .expect("spawn hyperpredc repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "repro of a sabotaged build exits 1\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );

    // The minimized source is strictly no larger and fails identically.
    let bundle = load_bundle(&bundle_dir).expect("bundle loads");
    assert_eq!(bundle.cell.sabotage, Some(Stage::Promote));
    let minimized = std::fs::read_to_string(bundle_dir.join("minimized.c"))
        .expect("sabotage bundles carry a source-level minimization");
    assert!(
        minimized.lines().count() < bundle.source.lines().count(),
        "the generated program has droppable statements"
    );
    assert_eq!(
        triage::replay(&bundle.cell, &minimized).as_deref(),
        Some(bundle.cell.signature.as_str()),
        "minimized.c must still trigger the recorded signature"
    );
}

#[test]
fn pathological_growth_degrades_typed_never_hangs() {
    // Nasty-profile programs invite deep unrolling and hyperblock tail
    // duplication; with tiny growth budgets every compile must either
    // finish via the degradation ladder or fail with a typed Budget —
    // and at least one seed must actually trip a budget, or the pin
    // proves nothing.
    let machine = MachineConfig::new(8, 2);
    let mut tripped = 0usize;
    for seed in 0..8u64 {
        let prog = generate(Profile::Nasty, seed);
        let mut pipe = Pipeline {
            checks: true,
            ..Pipeline::default()
        };
        pipe.unroll.factor = 8;
        pipe.unroll.max_growth_insts = 4;
        pipe.hyperblock.max_growth_insts = 4;
        let compiled = pipe
            .front(&prog.source, &prog.args)
            .and_then(|front| pipe.finish_degraded(&front, Model::FullPred, &machine));
        match compiled {
            Ok((_, deg)) => {
                if deg.is_degraded() {
                    tripped += 1;
                }
            }
            // The ladder exhausting itself is still a typed, contained
            // failure — the forbidden outcomes (hang, OOM, panic) never
            // return at all.
            Err(PipelineError::Budget { .. }) => tripped += 1,
            Err(e) => panic!("seed {seed}: unexpected failure {e}"),
        }
    }
    assert!(
        tripped > 0,
        "tiny growth budgets must trip on at least one nasty program"
    );
}
