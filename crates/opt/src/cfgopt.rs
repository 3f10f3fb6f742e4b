//! Control-flow cleanup: constant-branch folding, jump threading, block
//! merging, and unreachable-code removal.

use hyperpred_ir::{BlockId, Function, Op};

/// Runs all CFG clean-ups once. Returns true on change.
pub fn run(f: &mut Function) -> bool {
    let mut changed = false;
    changed |= fold_constant_branches(f);
    changed |= thread_jumps(f);
    changed |= remove_jump_to_next(f);
    changed |= merge_blocks(f);
    let blocks_before = f.layout.len();
    f.remove_unreachable();
    changed |= f.layout.len() != blocks_before;
    changed
}

/// Folds conditional branches whose operands are both immediates: a
/// known-taken branch becomes a jump (truncating the now-unreachable tail),
/// a known-not-taken branch is deleted. Only unguarded branches fold.
pub fn fold_constant_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for &b in &f.layout.clone() {
        let insts = &mut f.block_mut(b).insts;
        let mut i = 0;
        while i < insts.len() {
            let inst = &insts[i];
            if inst.guard.is_none() {
                if let Op::Br(c) = inst.op {
                    if let (Some(x), Some(y)) = (inst.srcs[0].as_imm(), inst.srcs[1].as_imm()) {
                        if c.eval(x, y) {
                            let inst = &mut insts[i];
                            inst.op = Op::Jump;
                            inst.srcs.clear();
                            insts.truncate(i + 1);
                        } else {
                            insts.remove(i);
                        }
                        changed = true;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
    changed
}

/// Retargets branches whose destination block is empty (falls straight
/// through) or consists of a single unconditional jump.
pub fn thread_jumps(f: &mut Function) -> bool {
    let mut changed = false;
    // Resolve the "final" destination of each block when used as a branch
    // target, with a fuel limit to survive (degenerate) jump cycles.
    let resolve = |f: &Function, mut t: BlockId| -> BlockId {
        for _ in 0..f.blocks.len() {
            let block = f.block(t);
            let next = match block.insts.as_slice() {
                [] => f.layout_next(t),
                [only] if only.op == Op::Jump && only.guard.is_none() => only.target,
                _ => None,
            };
            match next {
                Some(n) if n != t => t = n,
                _ => break,
            }
        }
        t
    };
    for &b in &f.layout.clone() {
        for i in 0..f.block(b).insts.len() {
            let inst = &f.block(b).insts[i];
            if inst.op.is_branch() {
                let t = inst.target.expect("branch has target");
                let r = resolve(f, t);
                if r != t {
                    f.block_mut(b).insts[i].target = Some(r);
                    changed = true;
                }
            }
        }
    }
    changed
}

/// Deletes unconditional jumps to the next block in layout (pure
/// fall-through).
pub fn remove_jump_to_next(f: &mut Function) -> bool {
    let mut changed = false;
    for &b in &f.layout.clone() {
        let next = f.layout_next(b);
        let insts = &mut f.block_mut(b).insts;
        if let Some(last) = insts.last() {
            if last.op == Op::Jump && last.guard.is_none() && last.target == next {
                insts.pop();
                changed = true;
            }
        }
    }
    changed
}

/// Merges a block into its unique predecessor when control can only flow
/// between them (predecessor ends with an unconditional jump to it or falls
/// through, successor has exactly one predecessor).
///
/// One forward scan makes the merges a restart from the top after each
/// merge would make, in the same order. Merging `s` into `b` can change
/// the eligibility of only three kinds of block: `b` (new body), `b`'s
/// predecessors (`b` may now end explicitly) and the block now laid out
/// before `s`'s old slot (new layout successor). Every block before the
/// earliest of them was ineligible and still is, so the scan resumes
/// there.
pub fn merge_blocks(f: &mut Function) -> bool {
    let mut preds = f.preds();
    let mut changed = false;
    let mut i = 0;
    while let Some(&b) = f.layout.get(i) {
        let Some(s) = mergeable_successor(f, &preds, b) else {
            i += 1;
            continue;
        };
        // Remove a trailing unconditional jump to s.
        let insts = &mut f.block_mut(b).insts;
        if let Some(last) = insts.last() {
            if last.op == Op::Jump && last.guard.is_none() && last.target == Some(s) {
                insts.pop();
            } else if last.ends_block() {
                i += 1;
                continue; // ret/halt: no merge
            }
        }
        // If b now falls through, it must have been directly followed by
        // s or end in the popped jump; either way appending is correct.
        let moved = std::mem::take(&mut f.block_mut(s).insts);
        f.block_mut(b).insts.extend(moved);
        let slot = f.layout_pos(s).expect("merged block is laid out");
        f.layout.remove(slot);
        // b inherits s's successors and with them s's place in their
        // predecessor lists.
        preds[s.index()].clear();
        for t in f.succs(b) {
            for p in &mut preds[t.index()] {
                if *p == s {
                    *p = b;
                }
            }
        }
        changed = true;
        let before = f.layout[slot - 1];
        i = f
            .layout
            .iter()
            .position(|&x| x == b || x == before || preds[b.index()].contains(&x))
            .expect("b is laid out");
    }
    changed
}

/// The block `b` could absorb: its only successor `s`, entered only from
/// `b`, by a jump or fall-through rather than a conditional branch, and
/// either ending explicitly or laid out right after `b` (so its own
/// fall-through still lines up after the merge).
fn mergeable_successor(f: &Function, preds: &[Vec<BlockId>], b: BlockId) -> Option<BlockId> {
    let [s] = f.succs(b)[..] else { return None };
    if s == b || s == f.entry() || preds[s.index()].len() != 1 {
        return None;
    }
    let jumps_conditionally = f
        .block(b)
        .insts
        .iter()
        .any(|i| matches!(i.op, Op::Br(_)) && i.target == Some(s));
    if jumps_conditionally || !f.block(s).ends_explicitly() && f.layout_next(b) != Some(s) {
        return None;
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpred_ir::verify::verify_function;
    use hyperpred_ir::{CmpOp, FuncBuilder, InstId, Operand};

    /// The ids of the instructions of `blocks`, in order.
    fn ids(f: &Function, blocks: &[BlockId]) -> Vec<InstId> {
        blocks
            .iter()
            .flat_map(|&b| f.block(b).insts.iter().map(|i| i.id))
            .collect()
    }

    #[test]
    fn folds_taken_branch_to_jump() {
        let mut b = FuncBuilder::new("t");
        let other = b.block();
        b.br(CmpOp::Eq, Operand::Imm(1), Operand::Imm(1), other);
        b.ret(None);
        b.switch_to(other);
        b.ret(None);
        let mut f = b.finish();
        assert!(fold_constant_branches(&mut f));
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert_eq!(f.blocks[0].insts[0].op, Op::Jump);
        f.remove_unreachable();
        assert!(verify_function(&f).is_ok());
    }

    #[test]
    fn deletes_never_taken_branch() {
        let mut b = FuncBuilder::new("t");
        let other = b.block();
        b.br(CmpOp::Eq, Operand::Imm(0), Operand::Imm(1), other);
        b.ret(None);
        b.switch_to(other);
        b.ret(None);
        let mut f = b.finish();
        assert!(fold_constant_branches(&mut f));
        assert!(!f.blocks[0].insts[0].op.is_branch());
    }

    #[test]
    fn threads_jump_chains() {
        let mut b = FuncBuilder::new("t");
        let hop = b.block();
        let end = b.block();
        b.jump(hop);
        b.switch_to(hop);
        b.jump(end);
        b.switch_to(end);
        b.ret(None);
        let mut f = b.finish();
        assert!(thread_jumps(&mut f));
        assert_eq!(f.blocks[0].insts[0].target, Some(end));
    }

    #[test]
    fn full_cleanup_collapses_trampolines() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let hop = b.block();
        let end = b.block();
        b.jump(hop);
        b.switch_to(hop);
        b.jump(end);
        b.switch_to(end);
        b.ret(Some(x.into()));
        let mut f = b.finish();
        while run(&mut f) {}
        assert_eq!(f.layout.len(), 1, "{f}");
        assert!(verify_function(&f).is_ok());
    }

    #[test]
    fn merges_linear_chain() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let second = b.block();
        let y = b.add(x.into(), Operand::Imm(1));
        b.jump(second);
        b.switch_to(second);
        let z = b.add(y.into(), Operand::Imm(2));
        b.ret(Some(z.into()));
        let mut f = b.finish();
        assert!(merge_blocks(&mut f));
        assert_eq!(f.layout.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 3);
        assert!(verify_function(&f).is_ok());
    }

    #[test]
    fn does_not_merge_into_loop_header() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let header = b.block();
        b.jump(header);
        b.switch_to(header);
        b.br(CmpOp::Lt, x.into(), Operand::Imm(10), header);
        b.ret(None);
        let mut f = b.finish();
        // header has 2 preds (entry + itself): no merge.
        merge_blocks(&mut f);
        assert_eq!(f.layout.len(), 2);
        assert!(verify_function(&f).is_ok());
    }

    /// `s` falls through to `t`, so `a`'s jump to `s` cannot absorb it
    /// until `s` absorbs `t` and ends in `t`'s `ret`; `a` is laid out
    /// before `s`, so the scan must come back to it.
    #[test]
    fn merges_a_successor_once_it_ends_explicitly() {
        let mut b = FuncBuilder::new("t");
        let x = b.param();
        let (side, s, t) = (b.block(), b.block(), b.block());
        b.add(x.into(), Operand::Imm(1));
        b.jump(s);
        b.switch_to(side);
        b.ret(None);
        b.switch_to(s);
        b.add(x.into(), Operand::Imm(2));
        b.switch_to(t);
        b.br(CmpOp::Eq, x.into(), Operand::Imm(0), side);
        b.ret(None);
        let mut f = b.finish();
        let a = f.entry();
        let mut merged = ids(&f, &[a, s, t]);
        merged.remove(1); // `a`'s jump to `s`
        assert!(merge_blocks(&mut f));
        assert_eq!(f.layout, [a, side], "{f}");
        assert_eq!(ids(&f, &[a]), merged);
        assert!(verify_function(&f).is_ok());
    }

    /// Once `b` absorbs `s`, `y` (laid out just before `s`, jumping to
    /// the fall-through block `z`) directly precedes `z` and can absorb
    /// it, although neither `b` nor its predecessor `z` comes before `y`.
    #[test]
    fn merges_into_the_block_before_a_merged_away_slot() {
        let mut bld = FuncBuilder::new("t");
        let x = bld.param();
        let (y, s, z, b, r) = (
            bld.block(),
            bld.block(),
            bld.block(),
            bld.block(),
            bld.block(),
        );
        bld.br(CmpOp::Eq, x.into(), Operand::Imm(0), r);
        bld.switch_to(y);
        bld.jump(z);
        bld.switch_to(s);
        bld.add(x.into(), Operand::Imm(1));
        bld.ret(None);
        bld.switch_to(z);
        bld.add(x.into(), Operand::Imm(2));
        bld.br(CmpOp::Eq, x.into(), Operand::Imm(1), b);
        bld.switch_to(b);
        bld.jump(s);
        bld.switch_to(r);
        bld.ret(None);
        let mut f = bld.finish();
        let e = f.entry();
        let (into_y, into_b) = (ids(&f, &[z]), ids(&f, &[s]));
        assert!(merge_blocks(&mut f));
        assert_eq!(f.layout, [e, y, b, r], "{f}");
        assert_eq!(ids(&f, &[y]), into_y);
        assert_eq!(ids(&f, &[b]), into_b);
        assert!(verify_function(&f).is_ok());
    }
}
