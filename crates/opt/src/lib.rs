//! Predicate-aware classic optimizations.
//!
//! The paper's compiler applies "a comprehensive set of peephole
//! optimizations ... both before and after conversion" plus the usual
//! clean-up passes (common subexpression elimination, copy propagation,
//! dead code removal — §3.2). This crate provides those passes for all
//! three compilation models:
//!
//! * [`fold`] — constant folding and algebraic simplification.
//! * [`local`] — in-block copy/constant propagation and CSE (memory-aware).
//! * [`dce`] — global liveness-based dead code elimination.
//! * [`cfgopt`] — branch folding, jump threading, block merging,
//!   unreachable-code removal.
//! * [`relopt`] — relation-driven guarded CSE, copy propagation and
//!   dead-define removal, powered by the predicate partition graph
//!   ([`hyperpred_ir::RelationDb`]).
//!
//! All passes understand predication: guarded definitions are *partial*
//! (they do not kill their destination), OR/AND-type predicate destinations
//! are read-modify-write, and guarded instructions are never used as
//! propagation sources.
//!
//! [`inline`] provides pre-formation function inlining (IMPACT-style).
//!
//! [`optimize`] runs the pipeline to a (bounded) fixpoint.
//!
//! Every pass's `run` returns true iff it changed the function: the
//! fixpoint stops at the first round no pass reports a change, so a pass
//! that reports a change it did not make costs a whole extra round, and
//! one that hides a change ends the fixpoint early. Debug builds hold
//! every pass call in [`optimize`] to this against a clone of its input.

pub mod cfgopt;
pub mod dce;
pub mod fold;
pub mod inline;
pub mod local;
pub mod relopt;

use hyperpred_ir::{Function, Module};

/// A pass: rewrites the function, returning true iff it changed it.
type Pass = fn(&mut Function) -> bool;

/// The fixpoint's passes, in the order each round runs them.
const PASSES: [(&str, Pass); 5] = [
    ("fold", fold::run),
    ("local", local::run),
    ("relopt", relopt::run),
    ("dce", dce::run),
    ("cfgopt", cfgopt::run),
];

/// Runs the full optimization pipeline on one function until no pass makes
/// progress (bounded number of rounds).
pub fn optimize(f: &mut Function) {
    const MAX_ROUNDS: usize = 8;
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for (name, pass) in PASSES {
            let before = cfg!(debug_assertions).then(|| f.clone());
            let reported = pass(f);
            if let Some(before) = before {
                assert_eq!(
                    reported,
                    *f != before,
                    "{name} must report a change iff it changed {}",
                    f.name
                );
            }
            changed |= reported;
        }
        if !changed {
            break;
        }
    }
    debug_assert!(
        hyperpred_ir::verify::verify_function(f).is_ok(),
        "optimizer broke {}: {:?}",
        f.name,
        hyperpred_ir::verify::verify_function(f).err()
    );
    // In debug builds, also hold the output to the semantic rules under
    // the weakest model class (the optimizer runs both on fully
    // predicated IR and on converted partial code, so it may not assume
    // either conformance profile — but it must never manufacture an
    // undefined read or a malformed predicate define).
    #[cfg(debug_assertions)]
    {
        use hyperpred_ir::analysis::{check_function, ModelClass};
        let vs = check_function(f, ModelClass::FullPred);
        assert!(vs.is_empty(), "optimizer broke {}: {vs:#?}", f.name);
    }
}

/// Optimizes every function in a module.
pub fn optimize_module(m: &mut Module) {
    for f in &mut m.funcs {
        optimize(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpred_ir::{FuncBuilder, Operand};

    #[test]
    fn pipeline_shrinks_redundant_code() {
        let mut b = FuncBuilder::new("f");
        let x = b.param();
        let a = b.add(x.into(), Operand::Imm(0)); // a = x (identity)
        let c = b.add(a.into(), a.into()); // c = x + x
        let d = b.add(x.into(), x.into()); // d = x + x (CSE with c)
        let e = b.add(c.into(), d.into());
        b.ret(Some(e.into()));
        let mut f = b.finish();
        let before = f.size();
        optimize(&mut f);
        assert!(f.size() < before, "pipeline should remove redundancy");
    }
}
