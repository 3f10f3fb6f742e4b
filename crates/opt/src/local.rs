//! In-block copy/constant propagation and common subexpression elimination.
//!
//! Both transformations are local (within one block). Blocks are long after
//! superblock/hyperblock formation, so local scope captures most of the
//! opportunity — the same choice the paper's peephole framework makes.

use hyperpred_ir::{Function, Inst, Op, Operand, PredReg, Reg};
use std::collections::HashMap;

/// Runs copy propagation then CSE on every block. Returns true iff some
/// instruction leaves the pass different from how it entered it.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    for &b in &f.layout.clone() {
        changed |= block_pass(&mut f.block_mut(b).insts);
    }
    changed
}

/// Expression key for CSE. `epoch` serializes loads against stores/calls.
/// `guard` lets *identically guarded* pairs merge: when the second copy
/// fires, so did the first, with the same operand values (the guard's
/// redefinition drops the entry). Cross-guard merging is the job of the
/// relation-aware pass (`crate::relopt`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    op: OpKey,
    srcs: Vec<Operand>,
    speculative: bool,
    epoch: u64,
    guard: Option<PredReg>,
}

/// Hashable stand-in for `Op` (which contains enums already `Hash`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OpKey(Op);

fn commutative(op: Op) -> bool {
    matches!(
        op,
        Op::Add | Op::Mul | Op::And | Op::Or | Op::Xor | Op::FAdd | Op::FMul
    )
}

fn cse_candidate(inst: &Inst) -> bool {
    // Pure value-producing ops. Loads participate with an epoch.
    inst.dst.is_some()
        && !inst.op.has_side_effects()
        && !inst.op.is_pred_def()
        && !matches!(
            inst.op,
            Op::Call | Op::Cmov | Op::CmovCom | Op::Nop | Op::PredClear | Op::PredSet
        )
    // Trapping ops are not safely removable duplicates unless silent;
    // identical non-speculative loads/divs are still fine to CSE (same
    // operands, same trap behaviour), so allow them.
}

fn block_pass(insts: &mut [Inst]) -> bool {
    let mut changed = false;
    // reg -> known copy source (register or immediate)
    let mut copies: HashMap<Reg, Operand> = HashMap::new();
    // expression -> register holding its value
    let mut avail: HashMap<Key, Reg> = HashMap::new();
    let mut epoch: u64 = 0;

    for inst in insts.iter_mut() {
        // What the instruction entered as, saved at its first rewrite (an
        // untouched instruction saves nothing). The two rewrites below can
        // cancel out: copy propagation turns `e = mov c` (after `c = mov a`)
        // into `mov a`, and CSE turns that straight back into `mov c`. Only
        // an instruction that leaves different counts as a change.
        let mut entered: Option<(Op, Vec<Operand>, bool)> = None;
        let save = |inst: &Inst| (inst.op, inst.srcs.clone(), inst.speculative);

        // 1. Substitute known copies into sources.
        for k in 0..inst.srcs.len() {
            if let Operand::Reg(r) = inst.srcs[k] {
                if let Some(&rep) = copies.get(&r) {
                    if inst.srcs[k] != rep {
                        entered.get_or_insert_with(|| save(inst));
                        inst.srcs[k] = rep;
                    }
                }
            }
        }

        // 2. CSE: replace a recomputation with a move from the prior value.
        let mut cse_key = None;
        if cse_candidate(inst) {
            let e = if inst.op.is_load() { epoch } else { 0 };
            let mut srcs = inst.srcs.clone();
            if commutative(inst.op) {
                srcs.sort_by_key(|o| match o {
                    Operand::Reg(r) => (0u8, r.0 as i64),
                    Operand::Imm(v) => (1u8, *v),
                });
            }
            let key = Key {
                op: OpKey(inst.op),
                srcs,
                speculative: inst.speculative,
                epoch: e,
                guard: inst.guard,
            };
            if let Some(&prev) = avail.get(&key) {
                if Some(prev) != inst.dst {
                    entered.get_or_insert_with(|| save(inst));
                    inst.op = Op::Mov;
                    inst.srcs = vec![Operand::Reg(prev)];
                    inst.speculative = false;
                }
            } else {
                cse_key = Some(key);
            }
        }
        if let Some((op, srcs, speculative)) = entered {
            changed |= op != inst.op || srcs != inst.srcs || speculative != inst.speculative;
        }

        // 3. Memory/calls advance the load epoch.
        if inst.op.is_store() || inst.op == Op::Call {
            epoch += 1;
        }

        // 3b. Redefining a predicate invalidates expressions guarded by
        //     it — including OR/AND-type growth: the new guard value
        //     firing says nothing about whether the old one did.
        if inst.defines_all_preds() {
            avail.retain(|k, _| k.guard.is_none());
        } else {
            for p in inst.pred_defs() {
                avail.retain(|k, _| k.guard != Some(p));
            }
        }

        // 4. Invalidate facts mentioning the defined register, then record
        //    the new facts this instruction establishes.
        if let Some(d) = inst.dst {
            copies.remove(&d);
            copies.retain(|_, v| v.as_reg() != Some(d));
            avail.retain(|k, v| *v != d && !k.srcs.iter().any(|s| s.as_reg() == Some(d)));
            if let Some(key) = cse_key {
                // A key mentioning d itself (e.g. `add d, d, 1`) must not
                // be recorded: the input value is gone.
                if !key.srcs.iter().any(|s| s.as_reg() == Some(d)) {
                    avail.insert(key, d);
                }
            }
            if inst.op == Op::Mov && inst.guard.is_none() {
                // Don't record self-referential copies.
                if inst.srcs[0].as_reg() != Some(d) {
                    copies.insert(d, inst.srcs[0]);
                }
            }
        }
        // Calls clobber nothing else (registers are function-local), but a
        // call's unknown execution should not invalidate register facts.
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpred_ir::{CmpOp, FuncBuilder, MemWidth};

    #[test]
    fn copy_propagation_rewrites_uses() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let c = b.mov(x.into());
        let y = b.add(c.into(), Operand::Imm(1));
        b.ret(Some(y.into()));
        let mut f = b.finish();
        assert!(run(&mut f));
        // The add now reads x directly.
        let add = &f.blocks[0].insts[1];
        assert_eq!(add.srcs[0], Operand::Reg(x));
    }

    #[test]
    fn constant_propagation() {
        let mut b = FuncBuilder::new("t");
        let k = b.mov(Operand::Imm(7));
        let y = b.add(k.into(), Operand::Imm(1));
        b.ret(Some(y.into()));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert_eq!(f.blocks[0].insts[1].srcs[0], Operand::Imm(7));
    }

    #[test]
    fn cse_removes_duplicate_expression() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let a = b.add(x.into(), Operand::Imm(3));
        let c = b.add(x.into(), Operand::Imm(3));
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        assert!(run(&mut f));
        let second = &f.blocks[0].insts[1];
        assert_eq!(second.op, Op::Mov);
        assert_eq!(second.srcs, vec![Operand::Reg(a)]);
    }

    #[test]
    fn cse_respects_commutativity() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let y = b.param();
        let a = b.add(x.into(), y.into());
        let c = b.add(y.into(), x.into());
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert_eq!(f.blocks[0].insts[1].op, Op::Mov);
    }

    #[test]
    fn loads_are_not_cse_across_stores() {
        let mut b = FuncBuilder::new("t");
        let p = b.param();
        let a = b.load(MemWidth::Word, p.into(), Operand::Imm(0));
        b.store(MemWidth::Word, p.into(), Operand::Imm(0), Operand::Imm(9));
        let c = b.load(MemWidth::Word, p.into(), Operand::Imm(0));
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        run(&mut f);
        // The second load must survive.
        let loads = f.blocks[0].insts.iter().filter(|i| i.op.is_load()).count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn loads_are_cse_without_intervening_stores() {
        let mut b = FuncBuilder::new("t");
        let p = b.param();
        let a = b.load(MemWidth::Word, p.into(), Operand::Imm(0));
        let c = b.load(MemWidth::Word, p.into(), Operand::Imm(0));
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        assert!(run(&mut f));
        let loads = f.blocks[0].insts.iter().filter(|i| i.op.is_load()).count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn guarded_mov_is_not_a_copy_source() {
        let mut b = FuncBuilder::new("t");
        let p = b.fresh_pred();
        let x = b.param();
        let c = b.mov(Operand::Imm(1));
        b.mov_to(c, x.into());
        b.guard_last(p);
        let y = b.add(c.into(), Operand::Imm(1));
        b.ret(Some(y.into()));
        let mut f = b.finish();
        run(&mut f);
        // The add must still read c (the guarded mov may not fire).
        assert_eq!(f.blocks[0].insts[2].srcs[0], Operand::Reg(c));
    }

    #[test]
    fn redefinition_invalidates_copy() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let c = b.mov(x.into());
        // redefine x
        b.mov_to(x, Operand::Imm(5));
        let y = b.add(c.into(), Operand::Imm(1));
        b.ret(Some(y.into()));
        let mut f = b.finish();
        run(&mut f);
        // y must not read the redefined x.
        assert_eq!(f.blocks[0].insts[2].srcs[0], Operand::Reg(c));
    }

    #[test]
    fn guarded_use_still_gets_substitution() {
        let mut b = FuncBuilder::new("t");
        let p = b.fresh_pred();
        let x = b.param();
        let c = b.mov(x.into());
        let y = b.mov(Operand::Imm(0));
        b.mov_to(y, c.into());
        b.guard_last(p);
        b.ret(Some(y.into()));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert_eq!(f.blocks[0].insts[2].srcs[0], Operand::Reg(x));
    }

    #[test]
    fn cse_merges_identically_guarded_pair() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let p = b.fresh_pred();
        let a = b.mov(Operand::Imm(0));
        b.op2_to(Op::Add, a, x.into(), Operand::Imm(3));
        b.guard_last(p);
        let c = b.mov(Operand::Imm(0));
        b.op2_to(Op::Add, c, x.into(), Operand::Imm(3));
        b.guard_last(p);
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        assert!(run(&mut f));
        let second = f.blocks[0]
            .insts
            .iter()
            .find(|i| i.dst == Some(c) && i.guard == Some(p))
            .unwrap();
        assert_eq!(second.op, Op::Mov, "same guard, same operands: merged");
        assert_eq!(second.srcs, vec![Operand::Reg(a)]);
    }

    #[test]
    fn cse_does_not_merge_differently_guarded_pair() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let p = b.fresh_pred();
        let q = b.fresh_pred();
        let a = b.mov(Operand::Imm(0));
        b.op2_to(Op::Add, a, x.into(), Operand::Imm(3));
        b.guard_last(p);
        let c = b.mov(Operand::Imm(0));
        b.op2_to(Op::Add, c, x.into(), Operand::Imm(3));
        b.guard_last(q);
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        run(&mut f);
        let second = f.blocks[0]
            .insts
            .iter()
            .find(|i| i.dst == Some(c) && i.guard == Some(q))
            .unwrap();
        assert_eq!(second.op, Op::Add, "guard tokens differ: local CSE skips");
    }

    #[test]
    fn guard_redefinition_splits_guarded_cse() {
        use hyperpred_ir::PredType;
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let p = b.fresh_pred();
        let a = b.mov(Operand::Imm(0));
        b.op2_to(Op::Add, a, x.into(), Operand::Imm(3));
        b.guard_last(p);
        // p changes value between the twins.
        b.pred_def(
            CmpOp::Lt,
            &[(p, PredType::U)],
            x.into(),
            Operand::Imm(9),
            None,
        );
        let c = b.mov(Operand::Imm(0));
        b.op2_to(Op::Add, c, x.into(), Operand::Imm(3));
        b.guard_last(p);
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        run(&mut f);
        let second = f.blocks[0]
            .insts
            .iter()
            .find(|i| i.dst == Some(c) && i.guard == Some(p))
            .unwrap();
        assert_eq!(second.op, Op::Add, "the first add ran under the old p");
    }

    #[test]
    fn copy_propagation_undone_by_cse_is_no_change() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let c = b.mov(x.into());
        let e = b.mov(c.into());
        let y = b.add(c.into(), Operand::Imm(1));
        b.ret(Some(y.into()));
        let mut f = b.finish();
        assert!(run(&mut f), "the add now reads x");
        // Each run turns `e = mov c` into `mov x`, and CSE turns it
        // straight back into `mov c`, the register already holding x.
        let copy = &f.blocks[0].insts[1];
        assert_eq!((copy.dst, &copy.srcs), (Some(e), &vec![Operand::Reg(c)]));
        let settled = f.clone();
        assert!(
            !run(&mut f),
            "a rewrite undone in the same run is no change"
        );
        assert_eq!(f, settled);
    }

    #[test]
    fn cmp_is_cse_candidate() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let a = b.cmp(CmpOp::Lt, x.into(), Operand::Imm(5));
        let c = b.cmp(CmpOp::Lt, x.into(), Operand::Imm(5));
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut f = b.finish();
        assert!(run(&mut f));
        assert_eq!(f.blocks[0].insts[1].op, Op::Mov);
    }
}
