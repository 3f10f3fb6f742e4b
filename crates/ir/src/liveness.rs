//! Predicate-aware liveness analysis.
//!
//! Liveness over both register files (general registers and predicate
//! registers). The analysis understands *partial definitions*: a guarded
//! instruction, a `cmov`/`cmov_com`, or an OR/AND-type predicate destination
//! may leave the previous value in place, so such definitions do **not**
//! kill their destination and additionally count as upward-exposed uses.

use crate::cfg::Cfg;
use crate::inst::{Inst, Op};
use crate::module::Function;
use crate::types::{BlockId, PredReg, Reg};
use std::marker::PhantomData;

/// An id addressable by [`DenseIdSet`] (a `u32`-indexed register file id).
pub trait LiveId: Copy {
    /// The id's dense index.
    fn live_index(self) -> usize;
}

impl LiveId for Reg {
    fn live_index(self) -> usize {
        self.index()
    }
}

impl LiveId for PredReg {
    fn live_index(self) -> usize {
        self.index()
    }
}

/// A grow-on-insert bit set over one register file.
///
/// Liveness sets are the inner loop of every global pass (DCE recomputes
/// them each round, the scheduler and promoter query them per candidate),
/// so membership is a word index instead of a hash probe. Word vectors
/// grow lazily; equality and union treat missing high words as zero, so
/// sets over the same function compare consistently regardless of their
/// high-water marks.
#[derive(Debug, Clone)]
pub struct DenseIdSet<T> {
    words: Vec<u64>,
    _ids: PhantomData<T>,
}

impl<T> Default for DenseIdSet<T> {
    fn default() -> DenseIdSet<T> {
        DenseIdSet {
            words: Vec::new(),
            _ids: PhantomData,
        }
    }
}

impl<T: LiveId> DenseIdSet<T> {
    /// Empty set.
    pub fn new() -> DenseIdSet<T> {
        DenseIdSet {
            words: Vec::new(),
            _ids: PhantomData,
        }
    }

    /// True if `id` is present.
    #[inline]
    pub fn contains(&self, id: &T) -> bool {
        let i = id.live_index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Inserts `id`.
    #[inline]
    pub fn insert(&mut self, id: T) {
        let i = id.live_index();
        let w = i / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (i % 64);
    }

    /// Removes `id`.
    #[inline]
    pub fn remove(&mut self, id: &T) {
        let i = id.live_index();
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// Removes every id.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Inserts every id `iter` yields.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }

    /// Unions `other` into `self`; true if anything was added.
    pub fn union_with(&mut self, other: &DenseIdSet<T>) -> bool {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }
}

impl<T: LiveId> PartialEq for DenseIdSet<T> {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short == &long[..short.len()] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl<T: LiveId> Eq for DenseIdSet<T> {}

/// A set of live registers and predicates.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LiveSet {
    /// Live general registers.
    pub regs: DenseIdSet<Reg>,
    /// Live predicate registers.
    pub preds: DenseIdSet<PredReg>,
}

impl LiveSet {
    /// Empty set.
    pub fn new() -> LiveSet {
        LiveSet::default()
    }

    /// Unions `other` into `self`; true if anything was added.
    pub fn union_with(&mut self, other: &LiveSet) -> bool {
        let r = self.regs.union_with(&other.regs);
        self.preds.union_with(&other.preds) || r
    }
}

/// Applies `inst` backwards to a live set: removes killed definitions, adds
/// uses.
pub fn step_backwards(inst: &Inst, live: &mut LiveSet) {
    // Kills: only full definitions.
    if let Some(d) = inst.dst {
        if !inst.is_partial_reg_def() {
            live.regs.remove(&d);
        }
    }
    if inst.defines_all_preds() {
        live.preds.clear();
    }
    for pd in &inst.pdsts {
        if !pd.ty.is_partial() && inst.guard.is_none() {
            // An unguarded U-type define always writes: full kill.
            live.preds.remove(&pd.reg);
        } else if !pd.ty.is_partial() {
            // Guarded U-type also always writes (Pin=0 writes 0): full kill.
            live.preds.remove(&pd.reg);
        }
        // OR/AND types are partial: no kill (their use was added by
        // pred_uses()).
    }
    // Uses, including the implicit destination read of a partial
    // definition.
    live.regs.extend(inst.src_regs());
    if inst.is_partial_reg_def() {
        live.regs.extend(inst.dst);
    }
    live.preds.extend(inst.pred_uses());
}

/// Per-block liveness results.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Live-in set per block (indexed by block id).
    pub live_in: Vec<LiveSet>,
    /// Live-out set per block (indexed by block id).
    pub live_out: Vec<LiveSet>,
}

impl Liveness {
    /// Computes liveness for `f` over `cfg`.
    ///
    /// Blocks may contain *mid-block* exit branches (superblocks,
    /// hyperblocks); at each branch, the target's live-in set is injected
    /// into the backward walk so values needed only on the taken path stay
    /// live across later kills on the fall-through path.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let n = f.blocks.len();
        let mut live_in = vec![LiveSet::new(); n];
        let mut live_out = vec![LiveSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            // Postorder (reverse of RPO) converges fastest for backward
            // problems.
            for &b in cfg.rpo.iter().rev() {
                let mut out = LiveSet::new();
                for &s in &cfg.succs[b.index()] {
                    out.union_with(&live_in[s.index()]);
                }
                let mut live = out.clone();
                for inst in f.block(b).insts.iter().rev() {
                    if let Some(t) = branch_target(inst) {
                        live.union_with(&live_in[t.index()]);
                    }
                    step_backwards(inst, &mut live);
                }
                if out != live_out[b.index()] {
                    live_out[b.index()] = out;
                    changed = true;
                }
                if live != live_in[b.index()] {
                    live_in[b.index()] = live;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Live set immediately *before* instruction `index` of `block`
    /// (recomputed by walking backwards from the block's live-out,
    /// injecting branch-target live-ins).
    pub fn before(&self, f: &Function, block: BlockId, index: usize) -> LiveSet {
        let mut live = self.live_out[block.index()].clone();
        let insts = &f.block(block).insts;
        for inst in insts[index..].iter().rev() {
            if let Some(t) = branch_target(inst) {
                live.union_with(&self.live_in[t.index()]);
            }
            step_backwards(inst, &mut live);
        }
        live
    }

    /// True if register `r` is live on entry to `block`.
    pub fn reg_live_in(&self, block: BlockId, r: Reg) -> bool {
        self.live_in[block.index()].regs.contains(&r)
    }
}

/// The control-transfer target of `inst`, if it is a branch or jump.
pub fn branch_target(inst: &Inst) -> Option<BlockId> {
    if inst.op.is_branch() {
        inst.target
    } else {
        None
    }
}

/// Returns true if `inst` is removable when its outputs are dead: it has no
/// side effects and does not transfer control.
pub fn is_removable(inst: &Inst) -> bool {
    !inst.op.has_side_effects() && !matches!(inst.op, Op::PredClear | Op::PredSet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CmpOp, Operand};
    use crate::FuncBuilder;

    #[test]
    fn straight_line_liveness() {
        let mut b = FuncBuilder::new("f");
        let x = b.param();
        let y = b.add(x.into(), Operand::Imm(1)); // y = x+1
        let z = b.add(y.into(), Operand::Imm(2)); // z = y+2
        b.ret(Some(z.into()));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        let entry = f.entry();
        assert!(lv.reg_live_in(entry, x));
        assert!(!lv.reg_live_in(entry, y));
        // before the ret, z is live
        let before_ret = lv.before(&f, entry, 2);
        assert!(before_ret.regs.contains(&z));
        assert!(!before_ret.regs.contains(&x));
    }

    #[test]
    fn loop_keeps_accumulator_live() {
        let mut b = FuncBuilder::new("f");
        let n = b.param();
        let acc = b.mov(Operand::Imm(0));
        let i = b.mov(Operand::Imm(0));
        let body = b.block();
        let exit = b.block();
        b.jump(body);
        b.switch_to(body);
        let acc2 = b.add(acc.into(), i.into());
        b.mov_to(acc, acc2.into());
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        b.br(CmpOp::Lt, i.into(), n.into(), body);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.reg_live_in(body, acc));
        assert!(lv.reg_live_in(body, i));
        assert!(lv.reg_live_in(body, n));
        assert!(lv.live_out[body.index()].regs.contains(&acc));
    }

    #[test]
    fn cmov_dst_is_upward_exposed() {
        let mut b = FuncBuilder::new("f");
        let c = b.param();
        let out = b.mov(Operand::Imm(1)); // full def of out
        b.cmov(out, Operand::Imm(2), c.into()); // partial def reads out
        b.ret(Some(out.into()));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        // Before the cmov, `out` must be live (its old value can survive).
        let before = lv.before(&f, f.entry(), 1);
        assert!(before.regs.contains(&out));
        // Before the mov, `out` must be dead (mov fully defines it).
        let before0 = lv.before(&f, f.entry(), 0);
        assert!(!before0.regs.contains(&out));
    }

    #[test]
    fn guarded_def_does_not_kill() {
        let mut b = FuncBuilder::new("f");
        let p = b.fresh_pred();
        let out = b.mov(Operand::Imm(1));
        b.mov_to(out, Operand::Imm(2));
        b.guard_last(p);
        b.ret(Some(out.into()));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        let before = lv.before(&f, f.entry(), 1);
        assert!(before.regs.contains(&out), "guarded def must not kill");
        assert!(before.preds.contains(&p));
    }

    #[test]
    fn pred_kill_rules() {
        use crate::PredType;
        let mut b = FuncBuilder::new("f");
        let x = b.param();
        let p = b.fresh_pred();
        // U-type fully defines p.
        b.pred_def(
            CmpOp::Eq,
            &[(p, PredType::U)],
            x.into(),
            Operand::Imm(0),
            None,
        );
        let y = b.add(x.into(), Operand::Imm(1));
        b.guard_last(p);
        b.ret(Some(y.into()));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(!lv.live_in[f.entry().index()].preds.contains(&p));

        // OR-type is a partial def: p stays live above it.
        let mut b = FuncBuilder::new("g");
        let x = b.param();
        let p = b.fresh_pred();
        b.pred_def(
            CmpOp::Eq,
            &[(p, PredType::Or)],
            x.into(),
            Operand::Imm(0),
            None,
        );
        let y = b.add(x.into(), Operand::Imm(1));
        b.guard_last(p);
        b.ret(Some(y.into()));
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.live_in[f.entry().index()].preds.contains(&p));
    }
}
