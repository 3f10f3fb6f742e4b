//! Quickstart: compile one program under the paper's three models and
//! compare them, plus a look at the predicate-define truth table (the
//! paper's Table 1).
//!
//! Run with `cargo run --release --example quickstart`.

use hyperpred::ir::PredType;
use hyperpred::sched::MachineConfig;
use hyperpred::sim::{SimConfig, DEFAULT_CYCLE_LIMIT};
use hyperpred::{evaluate, speedup, CellSpec, Model, Pipeline};

const SRC: &str = "
// A branchy kernel: per-element classification with unbalanced paths.
int data[256];
int main(int seed) {
    int i; int h; h = seed;
    for (i = 0; i < 256; i += 1) {
        h = h * 1103515245 + 12345;
        data[i] = (h >> 16) & 255;
    }
    int small; int medium; int large; int sum;
    small = 0; medium = 0; large = 0; sum = 0;
    for (i = 0; i < 256; i += 1) {
        int v; v = data[i];
        if (v < 64) { small += 1; sum += v; }
        else if (v < 192) { medium += 1; sum += v / 2; }
        else { large += 1; sum -= 1; }
    }
    return sum + small * 1000 + medium * 1000000 + large * 1000000000;
}";

fn main() {
    // ---- Table 1: the predicate-define truth table -----------------------
    println!("Table 1: predicate define truth table (new value per type)");
    println!("Pin cmp |   U  !U   OR  !OR  AND !AND");
    for pin in [false, true] {
        for cmp in [false, true] {
            print!("  {}   {} |", pin as u8, cmp as u8);
            for ty in PredType::ALL {
                // "-" = leaves the old value in place.
                let w0 = ty.eval(pin, cmp, false);
                let w1 = ty.eval(pin, cmp, true);
                let cell = if w0 == w1 {
                    format!("{}", w0 as u8)
                } else {
                    "-".to_string()
                };
                print!(" {cell:>4}");
            }
            println!();
        }
    }
    println!();

    // ---- The three models on an 8-issue, 1-branch machine ----------------
    let pipe = Pipeline::default();
    let sim = SimConfig::default();
    let args = [7i64];
    // The paper's denominator, as every figure defines it.
    let denom = CellSpec::baseline(DEFAULT_CYCLE_LIMIT);
    let base = evaluate(
        SRC,
        &args,
        denom.compiled_model(),
        denom.machine(),
        denom.sim(),
        &pipe,
    )
    .expect("baseline");
    println!(
        "baseline (1-issue superblock): {} cycles for {} instructions",
        base.cycles, base.insts
    );
    println!();
    println!(
        "{:<22}{:>10}{:>10}{:>10}{:>10}{:>9}",
        "model (8-issue)", "cycles", "insts", "branches", "mispred", "speedup"
    );
    for model in Model::ALL {
        let s =
            evaluate(SRC, &args, model, MachineConfig::new(8, 1), sim, &pipe).expect("model run");
        assert_eq!(s.ret, base.ret, "all models must agree");
        println!(
            "{:<22}{:>10}{:>10}{:>10}{:>10}{:>8.2}x",
            model.to_string(),
            s.cycles,
            s.insts,
            s.branches,
            s.mispredicts,
            speedup(&base, &s)
        );
    }
    println!();
    println!("(predication removes the hard-to-predict classification");
    println!(" branches; full predication does it without the conditional-");
    println!(" move instruction overhead — the paper's central comparison)");
}
