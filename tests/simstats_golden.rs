//! Golden-file pin of every simulation result in the paper matrix.
//!
//! The emulator and timing simulator are deterministic, so the full
//! matrix — every experiment x workload x model cell plus the shared
//! baseline — must produce *bit-identical* `SimStats` across refactors
//! of the hot path (pre-decoded dispatch, scoreboard layout changes,
//! caching). The golden file was recorded before the pre-decoded
//! emulator landed; any diff here means the rewrite changed observable
//! simulation behavior, not just its speed.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! HYPERPRED_GOLDEN_BLESS=1 cargo test -p hyperpred --test simstats_golden
//! ```
//!
//! The default run covers test scale. Full scale is the same check on
//! the big workloads and runs only when `HYPERPRED_GOLDEN_FULL=1` (it
//! is a release-build, seconds-long matrix; CI's tier-1 job stays
//! fast). Bless full scale with both variables set.

use hyperpred::workloads::Scale;
use hyperpred::{run_matrix, Experiment, MatrixConfig, Model, Pipeline};
use hyperpred_sim::SimStats;
use std::fmt::Write as _;
use std::path::PathBuf;

fn stats_line(out: &mut String, exp: &str, workload: &str, who: &str, s: &SimStats) {
    writeln!(
        out,
        "{exp}|{workload}|{who}|cycles={} insts={} nullified={} branches={} \
         mispredicts={} loads={} stores={} icache={} dcache={} ret={}",
        s.cycles,
        s.insts,
        s.nullified,
        s.branches,
        s.mispredicts,
        s.loads,
        s.stores,
        s.icache_misses,
        s.dcache_misses,
        s.ret
    )
    .expect("write to String");
}

/// Canonical dump of every cell of the full figure matrix at `scale`.
fn matrix_dump(scale: Scale) -> String {
    let exps = [
        Experiment::fig8(),
        Experiment::fig9(),
        Experiment::fig10(),
        Experiment::fig11(),
    ];
    let pipe = Pipeline::default();
    let workloads = hyperpred::workloads::all(scale);
    let figures = run_matrix(&exps, &workloads, &pipe, &MatrixConfig::default())
        .into_figures()
        .expect("matrix runs clean");
    let mut dump = String::new();
    for (exp, row) in exps.iter().zip(&figures) {
        for r in row {
            stats_line(&mut dump, exp.title, r.name, "baseline", &r.base);
            for model in Model::ALL {
                let slug = match model {
                    Model::Superblock => "superblock",
                    Model::CondMove => "condmove",
                    Model::FullPred => "fullpred",
                };
                stats_line(&mut dump, exp.title, r.name, slug, &r.models[model.index()]);
            }
        }
    }
    dump
}

fn golden_path(scale: Scale) -> PathBuf {
    let name = match scale {
        Scale::Test => "simstats_test_scale.txt",
        Scale::Full => "simstats_full_scale.txt",
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check_scale(scale: Scale) {
    let dump = matrix_dump(scale);
    let path = golden_path(scale);
    if std::env::var_os("HYPERPRED_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &dump).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it first",
            path.display()
        )
    });
    if dump != want {
        let diff: Vec<_> = want
            .lines()
            .zip(dump.lines())
            .filter(|(a, b)| a != b)
            .take(5)
            .map(|(a, b)| format!("  - {a}\n  + {b}"))
            .collect();
        panic!(
            "SimStats diverged from the committed golden matrix ({} lines differ; \
             first diffs:\n{}\nif the change is intentional, re-bless with \
             HYPERPRED_GOLDEN_BLESS=1)",
            want.lines()
                .zip(dump.lines())
                .filter(|(a, b)| a != b)
                .count()
                + want.lines().count().abs_diff(dump.lines().count()),
            diff.join("\n")
        );
    }
}

#[test]
fn matrix_simstats_match_golden_test_scale() {
    check_scale(Scale::Test);
}

#[test]
fn matrix_simstats_match_golden_full_scale() {
    if std::env::var_os("HYPERPRED_GOLDEN_FULL").is_none() {
        eprintln!("skipping full-scale golden check (set HYPERPRED_GOLDEN_FULL=1 to run)");
        return;
    }
    check_scale(Scale::Full);
}
