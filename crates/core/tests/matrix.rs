//! Engine correctness: the parallel matrix must be a pure reordering of
//! the serial path — identical `SimStats` per cell at any thread count —
//! and its caches must actually deduplicate work.
//!
//! Workloads here are small MiniC programs (plus the `wc` mini) so the
//! debug-build suite stays fast; the full suite runs through the engine in
//! the CI figures smoke job and the `figures` binary.

use hyperpred::{
    run_matrix, run_workload, BenchResult, EngineStats, Experiment, FailurePayload, FailurePolicy,
    FailureStage, MatrixConfig, Model, Pipeline, PipelineError, Stage,
};
use hyperpred_workloads::{all, by_name, Scale, Workload};

/// Runs the matrix on `threads` workers and returns its tables plus the
/// engine counters; every cell must succeed.
fn run_clean(
    exps: &[Experiment],
    wls: &[Workload],
    pipe: &Pipeline,
    threads: usize,
) -> (Vec<Vec<BenchResult>>, EngineStats) {
    let cfg = MatrixConfig {
        threads,
        ..MatrixConfig::default()
    };
    let run = run_matrix(exps, wls, pipe, &cfg);
    let stats = run.stats.clone();
    (run.into_figures().expect("matrix"), stats)
}

/// A machine-sharing pair: Figures 8 and 11 both schedule for 8-issue,
/// 1-branch (the compile cache must land hits) but simulate different
/// memory models.
fn experiments() -> Vec<Experiment> {
    vec![Experiment::fig8(), Experiment::fig11()]
}

/// Small but representative cells: branchy loop, memory traffic, calls,
/// plus one real mini from the suite.
fn workloads() -> Vec<Workload> {
    let branchy = Workload {
        name: "branchy",
        description: "if-else ladder in a loop (if-conversion target)",
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
    let memory = Workload {
        name: "memory",
        description: "array sweep with data-dependent stores (cache traffic)",
        source: "int t[256];
        int main() {
            int i; int s; s = 0;
            for (i = 0; i < 256; i += 1) { t[i] = i * 7 % 51; }
            for (i = 0; i < 256; i += 1) {
                if (t[i] > 25) s += t[i];
                else t[i] = s % 13;
            }
            return s + t[17];
        }"
        .to_string(),
        args: vec![],
    };
    let calls = Workload {
        name: "calls",
        description: "function calls exercising call/return scheduling",
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
    vec![
        branchy,
        memory,
        calls,
        by_name("wc", Scale::Test).expect("workload"),
    ]
}

fn assert_same(a: &BenchResult, b: &BenchResult, what: &str) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.base, b.base, "{}: baseline stats differ ({what})", a.name);
    for (i, m) in Model::ALL.iter().enumerate() {
        assert_eq!(
            a.models[i], b.models[i],
            "{}: {m} stats differ ({what})",
            a.name
        );
    }
}

#[test]
fn matrix_matches_serial_at_any_thread_count() {
    let pipe = Pipeline::default();
    let exps = experiments();
    let wls = workloads();

    // Ground truth: the historical serial path.
    let serial: Vec<Vec<BenchResult>> = exps
        .iter()
        .map(|exp| {
            wls.iter()
                .map(|w| run_workload(w, exp, &pipe).expect("serial cell"))
                .collect()
        })
        .collect();

    for threads in [1, 4] {
        let (figures, _) = run_clean(&exps, &wls, &pipe, threads);
        assert_eq!(figures.len(), serial.len());
        for (fig, ser) in figures.iter().zip(&serial) {
            for (a, b) in fig.iter().zip(ser) {
                assert_same(a, b, &format!("{threads} thread(s) vs serial"));
            }
        }
    }

    // While we have both figures: Figure 11 evaluates with 64K caches but
    // its speedup denominator must be the perfect-memory baseline,
    // identical to Figure 8's (the fixed run_workload bug).
    let (figures, _) = run_clean(&exps, &wls, &pipe, 2);
    for (a, b) in figures[0].iter().zip(&figures[1]) {
        assert_eq!(a.base, b.base, "{}: denominators must match", a.name);
        assert_eq!(
            a.base.dcache_misses, 0,
            "{}: perfect-memory baseline cannot miss",
            a.name
        );
    }
}

/// The acceptance sweep: every benchmark in the suite, all three models,
/// through the engine — bit-identical to the serial path. One experiment
/// keeps the debug-build cost bounded; machine-sharing reuse across
/// experiments is covered above.
#[test]
fn full_suite_matrix_matches_serial() {
    let pipe = Pipeline::default();
    let exp = Experiment::fig8();
    let wls = all(Scale::Test);

    let serial: Vec<BenchResult> = wls
        .iter()
        .map(|w| run_workload(w, &exp, &pipe).expect("serial cell"))
        .collect();

    let (figures, stats) = run_clean(&[exp], &wls, &pipe, 4);
    assert_eq!(figures[0].len(), wls.len());
    for (a, b) in figures[0].iter().zip(&serial) {
        assert_same(a, b, "full suite, 4 threads vs serial");
    }

    // The model-independent front half is computed once per workload and
    // reused by its other two formations. The baseline and the Superblock
    // cell share one formation, scheduled for two machines.
    let w = wls.len() as u64;
    assert_eq!(stats.front_computes, w);
    assert_eq!(stats.front_reuses, 2 * w);
    assert_eq!(stats.form_computes, 3 * w);
    assert_eq!(stats.form_reuses, w);
}

#[test]
fn caches_deduplicate_compiles_and_baselines() {
    let pipe = Pipeline::default();
    let exps = experiments();
    let wls = workloads();
    let (_, stats) = run_clean(&exps, &wls, &pipe, 2);

    // Figures 8 and 11 share a machine: each (workload, model) compiles
    // once and hits once. The baseline compile is shared too but only
    // requested by its single baseline cell.
    let w = wls.len() as u64;
    assert_eq!(stats.compile_hits, 3 * w, "one hit per shared model cell");
    // Distinct compiles per workload: baseline + fig8's three models
    // (fig11 fully reuses fig8's modules).
    assert_eq!(stats.compile_misses, 4 * w);
    // Those four compiles come from three formations: the baseline
    // schedules the Superblock formation for the 1-issue machine.
    assert_eq!(stats.form_computes, 3 * w);
    assert_eq!(stats.form_reuses, w);
    // The denominator is simulated once per workload, not once per figure.
    assert_eq!(stats.baseline_sims, w);
    assert_eq!(stats.baseline_reuses, (exps.len() as u64 - 1) * w);
    // Every scheduled cell reported a wall time.
    assert_eq!(
        stats.cells.len(),
        wls.len() * (1 + 3 * exps.len()),
        "per-cell timing recorded"
    );
    // Cache counters must show real reuse for the acceptance criterion.
    assert!(stats.compile_hits > 0);
}

/// Figures 8, 9 and 10 schedule for three different machines, so every
/// (workload, model) formation is scheduled three times (the Superblock
/// one four, counting the baseline): the matrix must still equal the
/// serial path cell for cell, forming each (workload, model) once.
#[test]
fn formations_are_shared_across_machines() {
    let pipe = Pipeline::default();
    let exps = [Experiment::fig8(), Experiment::fig9(), Experiment::fig10()];
    let wls = workloads();
    let serial: Vec<Vec<BenchResult>> = exps
        .iter()
        .map(|exp| {
            wls.iter()
                .map(|w| run_workload(w, exp, &pipe).expect("serial cell"))
                .collect()
        })
        .collect();

    let w = wls.len() as u64;
    for threads in [1, 3] {
        let (figures, stats) = run_clean(&exps, &wls, &pipe, threads);
        for (fig, ser) in figures.iter().zip(&serial) {
            for (a, b) in fig.iter().zip(ser) {
                assert_same(a, b, &format!("{threads} thread(s) vs serial"));
            }
        }
        // Ten units per workload (the baseline plus three machines times
        // three models), formed from three formations and one front half.
        assert_eq!(stats.compile_misses, 10 * w);
        assert_eq!(stats.form_computes, 3 * w);
        assert_eq!(stats.form_reuses, 7 * w);
        assert_eq!(stats.front_computes, w);
        assert_eq!(stats.front_reuses, 2 * w);
    }
}

/// A formation that fails is memoized once and replayed to its model's
/// cells on every machine, with the same payload; the models that never
/// reach the failing pass are untouched.
#[test]
fn failed_formation_is_memoized_per_model() {
    let pipe = Pipeline {
        checks: true,
        sabotage: Some(Stage::Promote),
        ..Pipeline::default()
    };
    let exps = [Experiment::fig8(), Experiment::fig9()];
    let wls = workloads();
    let run = run_matrix(
        &exps,
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 2,
            policy: FailurePolicy::KeepGoing,
            ..MatrixConfig::default()
        },
    );
    let w = wls.len() as u64;
    assert_eq!(run.stats.form_computes, 3 * w, "failures included");

    // Only the predicated models run promotion: each of their cells, on
    // both machines, fails with its formation's lint error.
    let failures = &run.report.failures;
    assert_eq!(failures.len(), 2 * exps.len() * wls.len());
    for f in failures {
        let model = f.model.expect("model cell");
        assert!(matches!(model, Model::CondMove | Model::FullPred), "{f}");
        assert_eq!(f.stage, FailureStage::Compile, "{f}");
        assert!(
            matches!(
                &f.payload,
                FailurePayload::Error(PipelineError::Lint(e)) if e.pass == Stage::Promote
            ),
            "{f}"
        );
        assert!(f.to_string().contains("after pass `promote`"), "{f}");
        // One formation, one error: the same payload on every machine.
        let first = failures
            .iter()
            .find(|g| g.workload == f.workload && g.model == f.model)
            .expect("f itself matches");
        assert_eq!(f.payload.to_string(), first.payload.to_string());
    }

    // The baseline and every Superblock cell completed.
    for wl in &wls {
        let done = |model: Option<Model>| {
            run.stats
                .cells
                .iter()
                .filter(|c| c.workload == wl.name && c.model == model)
                .count()
        };
        assert_eq!(done(None), 1, "{}: baseline", wl.name);
        assert_eq!(
            done(Some(Model::Superblock)),
            exps.len(),
            "{}: Superblock",
            wl.name
        );
    }
    assert!(failures
        .iter()
        .all(|f| f.model.is_some_and(|m| m != Model::Superblock)));
}
