//! Crash-safe resume suite: a matrix run killed mid-flight and resumed
//! from its journal store — at a different thread count — must produce
//! stats bit-identical to an uninterrupted serial run, and a journal
//! written under a different configuration must be ignored, never
//! silently reused.

use hyperpred::{run_matrix, Experiment, FailurePolicy, MatrixConfig, MatrixRun, Pipeline, Store};
use hyperpred_workloads::Workload;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn workloads() -> Vec<Workload> {
    let loopy = Workload {
        name: "loopy",
        description: "branchy loop",
        source: "int main() {
            int i; int s; s = 0;
            for (i = 0; i < 300; i += 1) {
                if (i % 3 == 0) s += 5; else s -= 1;
            }
            return s;
        }"
        .to_string(),
        args: vec![],
    };
    let calls = Workload {
        name: "calls",
        description: "call-heavy",
        source: "int inc(int v) { if (v > 50) return v - 3; return v + 7; }
        int main() {
            int i; int s; s = 0;
            for (i = 0; i < 200; i += 1) { s += inc(i % 90); }
            return s;
        }"
        .to_string(),
        args: vec![],
    };
    vec![loopy, calls]
}

/// Both runs completed every slot with exactly the same numbers.
fn assert_bit_identical(got: &MatrixRun, want: &MatrixRun) {
    assert_eq!(got.outcomes.len(), want.outcomes.len());
    for (grow, wrow) in got.outcomes.iter().zip(&want.outcomes) {
        assert_eq!(grow.len(), wrow.len());
        for (g, w) in grow.iter().zip(wrow) {
            let g = g.ok().expect("every cell completed");
            let w = w.ok().expect("every cell completed");
            assert_eq!(g.name, w.name);
            assert_eq!(g.base, w.base, "{}: baseline stats differ", g.name);
            assert_eq!(g.models, w.models, "{}: model stats differ", g.name);
        }
    }
}

#[test]
fn interrupted_run_resumes_bit_identically_across_thread_counts() {
    let dir = tmpdir("journal-resume");
    let path = dir.join("journal");
    let exps = [Experiment::fig8(), Experiment::fig10()];
    let wls = workloads();
    let pipe = Pipeline::default();

    // The ground truth: one uninterrupted serial run, no journal at all.
    let reference = run_matrix(
        &exps,
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 1,
            policy: FailurePolicy::KeepGoing,
            ..MatrixConfig::default()
        },
    );

    // Phase 1: journal at one thread, killed after 5 claimed cells.
    let first = {
        let journal = Store::open(&path).expect("open journal");
        let run = run_matrix(
            &exps,
            &wls,
            &pipe,
            &MatrixConfig {
                threads: 1,
                policy: FailurePolicy::KeepGoing,
                journal: Some(&journal),
                cell_limit: Some(5),
                ..MatrixConfig::default()
            },
        );
        assert!(run.interrupted, "the cell limit must report interruption");
        assert_eq!(
            journal.len() as u64,
            run.stats.journal_appends,
            "every completed cell (and nothing else) is journaled"
        );
        assert!(!journal.is_empty() && journal.len() <= 5);
        run
    };

    // Phase 2: resume the same journal at 8 threads; journaled cells are
    // copied back, the rest run fresh, and the merged result is
    // bit-identical to the uninterrupted serial reference.
    let journal = Store::open(&path).expect("reopen journal");
    let resumed = run_matrix(
        &exps,
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 8,
            policy: FailurePolicy::KeepGoing,
            journal: Some(&journal),
            ..MatrixConfig::default()
        },
    );
    assert!(!resumed.interrupted);
    assert!(resumed.report.is_empty(), "{}", resumed.report);
    assert_eq!(
        resumed.stats.journal_hits, first.stats.journal_appends,
        "exactly the journaled cells are reused"
    );
    assert_bit_identical(&resumed, &reference);

    // Phase 3: a third run finds every cell journaled and simulates
    // nothing at all.
    let journal = Store::open(&path).expect("reopen journal again");
    let total_cells = wls.len() * (1 + 3 * exps.len());
    assert_eq!(journal.len(), total_cells);
    let replayed = run_matrix(
        &exps,
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 4,
            policy: FailurePolicy::KeepGoing,
            journal: Some(&journal),
            ..MatrixConfig::default()
        },
    );
    assert_eq!(replayed.stats.journal_hits as usize, total_cells);
    assert!(
        replayed.stats.cells.is_empty(),
        "a fully journaled run re-runs nothing"
    );
    assert_eq!(replayed.stats.baseline_sims + replayed.stats.model_sims, 0);
    assert_bit_identical(&replayed, &reference);
}

#[test]
fn changed_workload_invalidates_stale_journal_entries() {
    let dir = tmpdir("journal-stale");
    let path = dir.join("journal");
    let exps = [Experiment::fig8()];
    let pipe = Pipeline::default();

    // Journal a complete run of the original workloads.
    {
        let journal = Store::open(&path).expect("open journal");
        let run = run_matrix(
            &exps,
            &workloads(),
            &pipe,
            &MatrixConfig {
                threads: 2,
                policy: FailurePolicy::KeepGoing,
                journal: Some(&journal),
                ..MatrixConfig::default()
            },
        );
        assert!(run.report.is_empty(), "{}", run.report);
        assert!(!journal.is_empty());
    }

    // Same workload *names*, different source (a scale change looks
    // exactly like this): every stale entry must be ignored.
    let mut changed = workloads();
    changed[0].source = changed[0].source.replace("i < 300", "i < 301");
    let reference = run_matrix(
        &exps,
        &changed,
        &pipe,
        &MatrixConfig {
            threads: 1,
            policy: FailurePolicy::KeepGoing,
            ..MatrixConfig::default()
        },
    );

    let journal = Store::open(&path).expect("reopen journal");
    let run = run_matrix(
        &exps,
        &changed,
        &pipe,
        &MatrixConfig {
            threads: 2,
            policy: FailurePolicy::KeepGoing,
            journal: Some(&journal),
            ..MatrixConfig::default()
        },
    );
    assert_eq!(
        run.stats.journal_hits,
        (1 + 3) as u64,
        "only the unchanged workload's cells may be reused"
    );
    assert!(run.report.is_empty(), "{}", run.report);
    assert_bit_identical(&run, &reference);
}
