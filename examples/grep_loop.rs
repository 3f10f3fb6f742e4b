//! The paper's Figure 6: the `grep` inner loop — a chain of rarely-taken
//! exit branches — under the three models, plus the OR-tree peephole that
//! makes the conditional-move version competitive.
//!
//! The paper reports the loop dropping from 14 cycles (superblock) to 10
//! (conditional move, after OR-tree height reduction) to 6 (full
//! predication, where OR-type defines issue simultaneously).
//!
//! Run with `cargo run --release --example grep_loop`.

use hyperpred::partial::PartialConfig;
use hyperpred::sched::MachineConfig;
use hyperpred::sim::{SimConfig, DEFAULT_CYCLE_LIMIT};
use hyperpred::{evaluate, speedup, CellSpec, Model, Pipeline};
use hyperpred_workloads::{by_name, Scale};

fn main() {
    let w = by_name("grep", Scale::Test).expect("grep workload");
    let machine = MachineConfig::new(8, 1);
    let sim = SimConfig::default();
    let pipe = Pipeline::default();

    let denom = CellSpec::baseline(DEFAULT_CYCLE_LIMIT);
    let base = evaluate(
        &w.source,
        &w.args,
        denom.compiled_model(),
        denom.machine(),
        denom.sim(),
        &pipe,
    )
    .unwrap();
    println!("grep, 8-issue 1-branch (paper Fig. 6: 14 -> 10 -> 6 cycles per loop):\n");
    println!(
        "{:<26}{:>10}{:>10}{:>10}{:>9}",
        "configuration", "cycles", "insts", "branches", "speedup"
    );
    for model in Model::ALL {
        let s = evaluate(&w.source, &w.args, model, machine, sim, &pipe).unwrap();
        println!(
            "{:<26}{:>10}{:>10}{:>10}{:>8.2}x",
            model.to_string(),
            s.cycles,
            s.insts,
            s.branches,
            speedup(&base, &s)
        );
    }

    // The OR-tree ablation (paper §3.2: "the dependence height of the
    // resulting code is log2(n)").
    let no_tree = Pipeline {
        partial: PartialConfig {
            or_tree: false,
            ..PartialConfig::default()
        },
        ..Pipeline::default()
    };
    let s = evaluate(&w.source, &w.args, Model::CondMove, machine, sim, &no_tree).unwrap();
    println!(
        "{:<26}{:>10}{:>10}{:>10}{:>8.2}x",
        "Cond. Move (no OR-tree)",
        s.cycles,
        s.insts,
        s.branches,
        speedup(&base, &s)
    );

    println!();
    println!("(grep is the paper's showcase for OR-type predicates: many");
    println!(" rarely-taken exits merge into predicates that full predication");
    println!(" evaluates in parallel, while conditional-move code needs a");
    println!(" balanced reduction tree to stay competitive)");
}
