//! The paper's Figure 5: the `wc` inner loop under full and partial
//! predication on a 4-issue, 1-branch machine.
//!
//! The paper reports 18 instructions in 8 cycles with full predicate
//! support versus 31 instructions in 10 cycles with conditional moves for
//! one loop iteration, and full-benchmark speedups of 2.3 (superblock),
//! 2.7 (cmov) and 5.1 (full predication). This example prints our
//! scheduled hyperblock for the same loop shape plus the measured
//! equivalents.
//!
//! Run with `cargo run --release --example wc_loop`.

use hyperpred::sched::MachineConfig;
use hyperpred::sim::{SimConfig, DEFAULT_CYCLE_LIMIT};
use hyperpred::{evaluate, speedup, CellSpec, Model, Pipeline};
use hyperpred_workloads::{by_name, Scale};

fn main() {
    let w = by_name("wc", Scale::Test).expect("wc workload");
    let pipe = Pipeline::default();
    // Figure 5 uses a 4-issue machine with 1 branch per cycle.
    let machine = MachineConfig::new(4, 1);

    println!("=== wc inner loop, full predication (cf. paper Fig. 5b) ===\n");
    let full = pipe
        .compile(&w.source, &w.args, Model::FullPred, &machine)
        .expect("compile full");
    print_hot_block(&full);

    println!("\n=== wc inner loop, conditional-move code (cf. paper Fig. 5c) ===\n");
    let cmov = pipe
        .compile(&w.source, &w.args, Model::CondMove, &machine)
        .expect("compile cmov");
    print_hot_block(&cmov);

    // ---- whole-benchmark speedups (the Fig. 5 caption numbers) -----------
    let sim = SimConfig::default();
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
    println!("\nwhole-benchmark speedups vs 1-issue (paper: 2.3 / 2.7 / 5.1 at 8-issue):");
    for (model, issue) in [
        (Model::Superblock, 8),
        (Model::CondMove, 8),
        (Model::FullPred, 8),
    ] {
        let s = evaluate(
            &w.source,
            &w.args,
            model,
            MachineConfig::new(issue, 1),
            sim,
            &pipe,
        )
        .unwrap();
        println!(
            "  {model:<11} {issue}-issue: {:>6} cycles  speedup {:.2}",
            s.cycles,
            speedup(&base, &s)
        );
    }
}

/// Prints the largest block of `main` — the formed (and unrolled) loop
/// hyperblock — with issue cycles from the static schedule.
fn print_hot_block(m: &hyperpred::ir::Module) {
    let f = &m.funcs[m.func_by_name("main").expect("main").index()];
    let hot = f
        .layout
        .iter()
        .copied()
        .max_by_key(|&b| f.block(b).insts.len())
        .expect("nonempty function");
    let insts = &f.block(hot).insts;
    // Show only the first unrolled copy (up to the first back edge).
    let end = insts
        .iter()
        .position(|i| i.target == Some(hot) || i.op.is_branch() && i.target == Some(hot))
        .map(|i| i + 1)
        .unwrap_or(insts.len())
        .min(40);
    println!(
        "{hot}: ({} instructions total; first iteration shown)",
        insts.len()
    );
    let mut last_cycle = u32::MAX;
    for inst in &insts[..end] {
        let marker = if inst.cycle != last_cycle {
            format!("cycle {:>2} |", inst.cycle)
        } else {
            "         |".to_string()
        };
        last_cycle = inst.cycle;
        println!("  {marker} {inst}");
    }
    let iter_len = insts[..end].iter().map(|i| i.cycle).max().unwrap_or(0) + 1;
    println!("  -> one iteration spans {iter_len} statically scheduled cycles");
}
