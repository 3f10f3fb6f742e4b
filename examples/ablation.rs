//! Ablations of the design choices DESIGN.md §5 calls out: prints the
//! *simulated* cycle count of each variant on the 8-issue, 1-branch
//! machine, one `[ablation] …` line per variant.
//!
//! Usage: `cargo run --release --example ablation`
//!
//! Variants:
//!
//! * OR-tree height reduction on/off (conditional-move model, grep)
//! * predicate promotion on/off (both predicated models, wc)
//! * `select` vs `cmov` conversion primitive
//! * non-excepting (Fig. 3) vs excepting (Fig. 4) conversions
//! * loop unrolling factor 1/2/4
//! * branch predictor: bimodal (the paper's) vs gshare (qsort)
//! * suppression stage: predicate-define-to-use latency 0 (write-back)
//!   vs 1 (decode/issue, the paper's model)
//! * hyperblock inclusion threshold sweep

use hyperpred::hyperblock::{HyperblockConfig, UnrollConfig};
use hyperpred::partial::{PartialConfig, PartialStyle};
use hyperpred::sched::{Latencies, MachineConfig};
use hyperpred::sim::{BtbConfig, Predictor, SimConfig, SimStats};
use hyperpred::workloads::{by_name, Scale, Workload};
use hyperpred::{evaluate, Model, Pipeline};

fn run(
    w: &Workload,
    model: Model,
    machine: MachineConfig,
    sim: SimConfig,
    pipe: &Pipeline,
) -> SimStats {
    evaluate(&w.source, &w.args, model, machine, sim, pipe)
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", w.name))
}

fn report(tag: &str, w: &Workload, model: Model, pipe: &Pipeline) {
    let s = run(
        w,
        model,
        MachineConfig::new(8, 1),
        SimConfig::default(),
        pipe,
    );
    println!("[ablation] {tag}: {} cycles (ipc {:.2})", s.cycles, s.ipc());
}

fn main() {
    let machine = MachineConfig::new(8, 1);
    let workload = |name| by_name(name, Scale::Test).expect("suite workload");
    let grep = workload("grep");
    let wc = workload("wc");
    let qsort = workload("qsort");

    // OR-tree on/off on grep (the paper's §3.2 example).
    for or_tree in [true, false] {
        let pipe = Pipeline {
            partial: PartialConfig {
                or_tree,
                ..PartialConfig::default()
            },
            ..Pipeline::default()
        };
        report(
            &format!("grep cmov or_tree={or_tree}"),
            &grep,
            Model::CondMove,
            &pipe,
        );
    }

    // Promotion on/off on wc.
    for promote in [true, false] {
        let pipe = Pipeline {
            promote,
            ..Pipeline::default()
        };
        for model in [Model::CondMove, Model::FullPred] {
            report(&format!("wc {model} promote={promote}"), &wc, model, &pipe);
        }
    }

    // select vs cmov, excepting vs non-excepting.
    for (tag, partial) in [
        ("cmov-nonexc", PartialConfig::default()),
        (
            "select-nonexc",
            PartialConfig {
                style: PartialStyle::Select,
                ..PartialConfig::default()
            },
        ),
        (
            "cmov-excepting",
            PartialConfig {
                nonexcepting: false,
                ..PartialConfig::default()
            },
        ),
    ] {
        let pipe = Pipeline {
            partial,
            ..Pipeline::default()
        };
        report(&format!("wc cmov-model {tag}"), &wc, Model::CondMove, &pipe);
    }

    // Unroll factor.
    for factor in [1u32, 2, 4] {
        let pipe = Pipeline {
            unroll: UnrollConfig {
                factor,
                ..UnrollConfig::default()
            },
            ..Pipeline::default()
        };
        report(
            &format!("wc full unroll={factor}"),
            &wc,
            Model::FullPred,
            &pipe,
        );
    }

    // Branch predictor: bimodal (paper) vs gshare (extension).
    for (tag, predictor) in [
        ("bimodal", Predictor::Bimodal),
        ("gshare8", Predictor::Gshare { history_bits: 8 }),
    ] {
        let sim = SimConfig {
            btb: BtbConfig {
                predictor,
                ..BtbConfig::default()
            },
            ..SimConfig::default()
        };
        let s = run(
            &qsort,
            Model::Superblock,
            machine,
            sim,
            &Pipeline::default(),
        );
        println!(
            "[ablation] qsort superblock {tag}: {} cycles, {} mispredicts",
            s.cycles, s.mispredicts
        );
    }

    // Suppression stage: a predicate define's guarded users may issue in
    // the same cycle (0, suppression at write-back) or the next (1,
    // suppression at decode/issue).
    for pred_def in [0u32, 1] {
        let machine = MachineConfig {
            latency: Latencies {
                pred_def,
                ..Latencies::default()
            },
            ..machine
        };
        let s = run(
            &wc,
            Model::FullPred,
            machine,
            SimConfig::default(),
            &Pipeline::default(),
        );
        println!(
            "[ablation] wc full pred_def latency={pred_def}: {} cycles",
            s.cycles
        );
    }

    // Hyperblock inclusion threshold.
    for ratio in [0.01f64, 0.04, 0.25] {
        let pipe = Pipeline {
            hyperblock: HyperblockConfig {
                min_exec_ratio: ratio,
                ..HyperblockConfig::default()
            },
            ..Pipeline::default()
        };
        report(
            &format!("wc full min_ratio={ratio}"),
            &wc,
            Model::FullPred,
            &pipe,
        );
    }
}
