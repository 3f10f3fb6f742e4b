//! A small forward-dataflow framework over superblock-shaped CFGs.
//!
//! Blocks in this IR are single-entry, multiple-exit linear regions: a
//! conditional exit branch may appear *anywhere* inside a block, so a
//! block-granular engine (in/out sets at block boundaries only) would lose
//! the state that actually flows along each mid-block exit edge. The engine
//! here walks every block instruction by instruction and propagates the
//! state *at each branch* to that branch's target, exactly mirroring how
//! [`crate::liveness`] injects branch-target live-ins on the backward walk.
//!
//! Analyses plug in through [`ForwardAnalysis`]: a state lattice (clone +
//! equality), a `meet` at control-flow joins, and a per-instruction
//! transfer function. [`forward`] iterates to a fixpoint in reverse
//! postorder and returns the entry state of every reachable block;
//! [`walk_block`] then replays a block from its fixpoint entry state so
//! checkers can inspect the state immediately before each instruction.

use crate::cfg::Cfg;
use crate::inst::{Inst, Op};
use crate::module::Function;
use crate::types::{BlockId, PredReg, Reg};

/// A dense bit set over `u32`-indexed ids (registers, predicates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set with capacity for ids `0..len`.
    pub fn empty(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// A full set over ids `0..len`.
    pub fn full(len: usize) -> BitSet {
        let mut s = BitSet::empty(len);
        for (i, w) in s.words.iter_mut().enumerate() {
            let bits = (len - i * 64).min(64);
            *w = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
        }
        s
    }

    /// Number of addressable ids.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`; true if it was absent.
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let had = self.words[w] & b != 0;
        self.words[w] |= b;
        !had
    }

    /// Removes `i`.
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// True if `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Intersects with `other`; true if `self` shrank.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        and_into(&mut self.words, &other.words)
    }

    /// Unions with `other`; true if `self` grew.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        or_into(&mut self.words, &other.words)
    }

    /// Sets every id.
    pub fn set_all(&mut self) {
        let full = BitSet::full(self.len);
        self.words = full.words;
    }

    /// Clears every id.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates the ids present, in ascending order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.words)
    }
}

/// `a &= b` word by word; true if `a` shrank.
fn and_into(a: &mut [u64], b: &[u64]) -> bool {
    let mut changed = false;
    for (a, b) in a.iter_mut().zip(b) {
        changed |= *a & !*b != 0;
        *a &= *b;
    }
    changed
}

/// `a |= b` word by word; true if `a` grew.
fn or_into(a: &mut [u64], b: &[u64]) -> bool {
    let mut changed = false;
    for (a, b) in a.iter_mut().zip(b) {
        changed |= *b & !*a != 0;
        *a |= *b;
    }
    changed
}

/// The ids set in `words`, in ascending order.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(w * 64 + b)
        })
    })
}

/// The word index and mask of id `i`.
fn bit(i: usize) -> (usize, u64) {
    (i / 64, 1u64 << (i % 64))
}

/// A forward dataflow analysis: state lattice + transfer function.
pub trait ForwardAnalysis {
    /// The per-program-point state.
    type State: Clone + PartialEq;

    /// State on entry to the function.
    ///
    /// Blocks no flow has reached yet carry no state at all (`None` in
    /// [`ForwardResult`]) — the first edge in simply copies its state —
    /// so analyses need not construct an explicit lattice top.
    fn boundary(&self, f: &Function) -> Self::State;

    /// Meets `other` into `into` at a join; true if `into` changed.
    fn meet(&self, into: &mut Self::State, other: &Self::State) -> bool;

    /// Applies one instruction's effect.
    fn transfer(&self, inst: &Inst, state: &mut Self::State);

    /// Refines the state flowing along a *taken* branch edge, where the
    /// branch's guard predicate is known to be true (default: nothing).
    fn assume_taken(&self, _inst: &Inst, _state: &mut Self::State) {}
}

/// Per-block fixpoint results of a forward analysis.
pub struct ForwardResult<S> {
    /// Entry state per block (indexed by block id); `None` for blocks the
    /// flow never reached (unreachable or not laid out).
    pub entry: Vec<Option<S>>,
}

/// Runs `a` to a fixpoint over `f`, honoring mid-block exit branches.
pub fn forward<A: ForwardAnalysis>(f: &Function, cfg: &Cfg, a: &A) -> ForwardResult<A::State> {
    let n = f.blocks.len();
    let mut entry: Vec<Option<A::State>> = vec![None; n];
    entry[f.entry().index()] = Some(a.boundary(f));
    loop {
        let mut changed = false;
        for &b in &cfg.rpo {
            let Some(mut state) = entry[b.index()].clone() else {
                continue;
            };
            let mut fell_through = true;
            for inst in &f.block(b).insts {
                if inst.op.is_branch() {
                    if let Some(t) = inst.target {
                        let mut taken = state.clone();
                        a.assume_taken(inst, &mut taken);
                        changed |= join(&mut entry, t, &taken, a);
                    }
                }
                a.transfer(inst, &mut state);
                if inst.ends_block() {
                    fell_through = false;
                    break;
                }
            }
            if fell_through {
                if let Some(next) = f.layout_next(b) {
                    changed |= join(&mut entry, next, &state, a);
                }
            }
        }
        if !changed {
            return ForwardResult { entry };
        }
    }
}

fn join<A: ForwardAnalysis>(
    entry: &mut [Option<A::State>],
    to: BlockId,
    state: &A::State,
    a: &A,
) -> bool {
    match &mut entry[to.index()] {
        Some(existing) => a.meet(existing, state),
        slot @ None => {
            *slot = Some(state.clone());
            true
        }
    }
}

/// Replays block `b` from state `s`, calling `visit(index, inst, state)`
/// with the state in force immediately *before* each instruction.
pub fn walk_block<A: ForwardAnalysis>(
    f: &Function,
    b: BlockId,
    s: &A::State,
    a: &A,
    mut visit: impl FnMut(usize, &Inst, &A::State),
) {
    let mut state = s.clone();
    for (i, inst) in f.block(b).insts.iter().enumerate() {
        visit(i, inst, &state);
        a.transfer(inst, &mut state);
        if inst.ends_block() {
            break;
        }
    }
}

/// The predicate-aware must-be-defined state over both register files.
///
/// Beyond plain "written on every path" bits, the state carries the
/// Psi-SSA-style facts needed to accept if-converted code: a guarded write
/// leaves its register *defined under* that guard predicate, and a read
/// guarded by the same predicate (or one known to imply it) is then safe —
/// when the guard is true, the write executed.
///
/// Both conditional relations are flat bit matrices, one `Vec<u64>` each,
/// so a clone or a meet is one allocation or one word loop per relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefState {
    /// General registers guaranteed written on every path to this point.
    pub regs: BitSet,
    /// Predicate-major, one row of register words per predicate: row `p`
    /// holds the general registers guaranteed written whenever `p` is
    /// true.
    under: Vec<u64>,
    /// Predicate registers guaranteed written on every path.
    pub preds: BitSet,
    /// Predicates × predicates: row `q` holds the `p` with
    /// `q == true → p == true`, from U/U̅-type defines (`q` is
    /// `Pin ∧ ±cmp`, so `q` implies `Pin`), closed transitively and
    /// invalidated when either side is rewritten.
    implies: Vec<u64>,
    /// Partition facts `[a, b, t]`, sorted: `a ∨ b ⊇ t`, where `t` is a
    /// predicate index or [`TOP`] (the fact covers every path). Derived
    /// from dual defines that carve one comparison into complementary
    /// predicates (the if-converter's then/else partition): the pair
    /// jointly spans the define's guard.
    partitions: Vec<[u32; 3]>,
}

/// The `t` of a partition fact that spans every path (`a ∨ b = ⊤`).
const TOP: u32 = u32::MAX;

impl DefState {
    /// True if register `r` is written whenever predicate `p` is true.
    fn written_under(&self, p: usize, r: usize) -> bool {
        let (w, m) = bit(r);
        self.under[p * self.regs.words.len() + w] & m != 0
    }

    /// True if general register `r` is definitely defined on every path.
    pub fn reg(&self, r: Reg) -> bool {
        self.regs.contains(r.index())
    }

    /// True if a read of `r` guarded by `guard` definitely observes a
    /// defined value: `r` is fully defined, or it is defined under the
    /// guard itself or under some predicate the guard implies.
    pub fn reg_ok(&self, r: Reg, guard: Option<PredReg>) -> bool {
        let r = r.index();
        if self.regs.contains(r) {
            return true;
        }
        // Saturate the write predicates through the partition facts: if a
        // covered pair spans t, then t's truth also guarantees a write.
        // Spanning ⊤ means some write happened on every path. Nested
        // if-then-else chains need the chaining (p6 ∨ p7 ⊇ p5, then
        // p4 ∨ p5 ⊇ ⊤), hence the fixpoint loop; fact lists are tiny, and
        // `spanned` holds the predicates saturation added.
        let mut spanned: Vec<u32> = Vec::new();
        let covered =
            |p: u32, spanned: &[u32]| self.written_under(p as usize, r) || spanned.contains(&p);
        loop {
            let mut changed = false;
            for &[a, b, t] in &self.partitions {
                if covered(a, &spanned) && covered(b, &spanned) {
                    if t == TOP {
                        return true;
                    }
                    if !covered(t, &spanned) {
                        spanned.push(t);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let Some(g) = guard else { return false };
        // The guard being true at the read must force one of the writes:
        // directly, through saturation, or through a U-type implication.
        let (g, pw) = (g.index(), self.preds.words.len());
        covered(g as u32, &spanned)
            || ones(&self.implies[g * pw..(g + 1) * pw]).any(|p| self.written_under(p, r))
    }

    /// True if predicate register `p` is definitely defined.
    pub fn pred(&self, p: PredReg) -> bool {
        self.preds.contains(p.index())
    }
}

/// Predicate-aware must-be-defined analysis.
///
/// Full definitions: unguarded writes, `select`, and predicate defines of
/// unconditional type (which write even under a false guard — `Pin=0`
/// writes 0), plus `pred_clear`/`pred_set` for the whole predicate file.
/// Guarded writes record definedness *under their guard*. `cmov`/
/// `cmov_com` also count as full definitions: their condition is a
/// general register, so the predicate lattice cannot see when the move
/// commits, and the cmov chains partial conversion emits merge values
/// whose path coverage was already checked in full-predicate form.
///
/// Rewriting a predicate `q` invalidates facts mentioning it, by family
/// (paper Table 1): U-types give `q` a fresh value, killing both
/// `defined-under-q` facts and `x → q` implications; OR-types only grow
/// `q`, preserving `x → q` but killing `defined-under-q`; AND-types only
/// shrink `q`, preserving `defined-under-q` but killing `x → q`.
pub struct MustDefined;

impl ForwardAnalysis for MustDefined {
    type State = DefState;

    fn boundary(&self, f: &Function) -> DefState {
        let mut regs = BitSet::empty(f.reg_count as usize);
        for &p in &f.params {
            regs.insert(p.index());
        }
        let preds = BitSet::empty(f.pred_count as usize);
        let np = preds.capacity();
        DefState {
            under: vec![0; np * regs.words.len()],
            implies: vec![0; np * preds.words.len()],
            regs,
            preds,
            partitions: Vec::new(),
        }
    }

    fn meet(&self, into: &mut DefState, other: &DefState) -> bool {
        let mut changed = into.regs.intersect_with(&other.regs);
        changed |= into.preds.intersect_with(&other.preds);
        changed |= and_into(&mut into.under, &other.under);
        changed |= and_into(&mut into.implies, &other.implies);
        let before = into.partitions.len();
        into.partitions
            .retain(|p| other.partitions.binary_search(p).is_ok());
        changed | (into.partitions.len() != before)
    }

    fn transfer(&self, inst: &Inst, state: &mut DefState) {
        let (rw, pw) = (state.regs.words.len(), state.preds.words.len());
        // General-register destination.
        if let Some(d) = inst.dst {
            if matches!(inst.op, Op::Cmov | Op::CmovCom) {
                // The condition is a general register, so whether the move
                // commits is invisible to predicate-based tracking. Cmov is
                // the commit point of partial conversion (paper Fig. 3):
                // the converter lowers each predicate-partitioned merge —
                // whose coverage the full-predicate checkpoint has already
                // verified — into a cmov chain over complementary boolean
                // values. Count it as a definition rather than re-deriving
                // that coverage from general-register boolean algebra.
                state.regs.insert(d.index());
            } else if let Some(g) = inst.guard {
                let (w, m) = bit(d.index());
                state.under[g.index() * rw + w] |= m;
            } else {
                state.regs.insert(d.index());
            }
        }
        // Predicate destinations.
        if inst.defines_all_preds() {
            // The whole file takes constant values: everything is defined,
            // but every conditional fact about old values is gone.
            state.preds.set_all();
            state.under.fill(0);
            state.implies.fill(0);
            state.partitions.clear();
            return;
        }
        for pd in &inst.pdsts {
            let q = pd.reg.index();
            if !pd.ty.is_partial() {
                state.preds.insert(q);
            }
            if !pd.ty.is_and_family() {
                // q may become true on paths where it was false: registers
                // defined under the old q are no longer covered by it.
                state.under[q * rw..(q + 1) * rw].fill(0);
            }
            if !pd.ty.is_or_family() {
                // q may become false where it was true: `x → q` dies.
                let (w, m) = bit(q);
                for row in state.implies.chunks_exact_mut(pw) {
                    row[w] &= !m;
                }
            }
            // Partition facts and the write to q: on the operand side
            // (`q ∨ b ⊇ t`) the fact survives only growth (OR-family); on
            // the target side (`a ∨ b ⊇ q`) only shrinkage (AND-family),
            // since the pair spans old-q, which contains any narrowed q.
            let qw = q as u32;
            state.partitions.retain(|&[a, b, t]| {
                ((a != qw && b != qw) || pd.ty.is_or_family()) && (t != qw || pd.ty.is_and_family())
            });
            // What the new q implies. AND-family writes shrink q, so its
            // implications survive untouched; U/OR writes derive them from
            // the guard: q = Pin ∧ ±cmp (U) or old ∨ (Pin ∧ ±cmp) (OR), so
            // the freshly-set part implies Pin and everything Pin implies.
            if !pd.ty.is_and_family() {
                for w in 0..pw {
                    let incoming = inst.guard.map_or(0, |p| {
                        let p = p.index();
                        state.implies[p * pw + w] | u64::from(p / 64 == w) << (p % 64)
                    });
                    let cell = &mut state.implies[q * pw + w];
                    if pd.ty.is_or_family() {
                        // q is old-q or freshly set: keep only implications
                        // valid for both parts.
                        *cell &= incoming;
                    } else {
                        *cell = incoming;
                    }
                }
            }
        }
        // A dual define with opposite senses carves one comparison into
        // complementary predicates: `a` receives (at least) the
        // `Pin ∧ cmp` half and `c` the `Pin ∧ ¬cmp` half, so together
        // they span `Pin` — a partition fact `a ∨ c ⊇ guard` (or ⊤ when
        // unguarded). This holds for U/U̅ then/else pairs and for
        // OR-accumulator pairs alike (OR keeps old contents and only
        // grows). AND-types can clear bits of the comparison's half and
        // span nothing.
        if let [a, c] = inst.pdsts[..] {
            if a.ty.is_complemented() != c.ty.is_complemented()
                && !a.ty.is_and_family()
                && !c.ty.is_and_family()
            {
                let t = inst.guard.map_or(TOP, |g| g.index() as u32);
                let fact = [a.reg.index() as u32, c.reg.index() as u32, t];
                if let Err(i) = state.partitions.binary_search(&fact) {
                    state.partitions.insert(i, fact);
                }
            }
        }
    }

    fn assume_taken(&self, inst: &Inst, state: &mut DefState) {
        // Taking a guarded branch proves its guard true on that edge:
        // every register defined under the guard (or under a predicate
        // the guard implies) was definitely written.
        let Some(g) = inst.guard else { return };
        let g = g.index();
        let DefState {
            regs,
            under,
            implies,
            preds,
            ..
        } = state;
        let (rw, pw) = (regs.words.len(), preds.words.len());
        or_into(&mut regs.words, &under[g * rw..(g + 1) * rw]);
        for p in ones(&implies[g * pw..(g + 1) * pw]) {
            or_into(&mut regs.words, &under[p * rw..(p + 1) * rw]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CmpOp, Operand};
    use crate::FuncBuilder;

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::empty(70);
        assert!(!s.contains(65));
        assert!(s.insert(65));
        assert!(!s.insert(65));
        assert!(s.contains(65));
        s.remove(65);
        assert!(!s.contains(65));
        let full = BitSet::full(70);
        assert!(full.contains(0) && full.contains(69));
        assert!(!full.contains(70));
        let mut a = BitSet::empty(70);
        a.insert(3);
        a.insert(65);
        let mut b = BitSet::empty(70);
        b.insert(3);
        assert!(a.intersect_with(&b));
        assert!(a.contains(3) && !a.contains(65));
        assert!(a.union_with(&full));
        assert!(a.contains(69));
    }

    #[test]
    fn must_defined_diamond_intersects() {
        // r defined on only one arm of a diamond: not must-defined at the
        // join.
        let mut b = FuncBuilder::new("f");
        let c = b.param();
        let t = b.block();
        let join = b.block();
        b.br(CmpOp::Ne, c.into(), Operand::Imm(0), t);
        let r = b.mov(Operand::Imm(1)); // fall arm defines r
        b.jump(join);
        b.switch_to(t);
        b.jump(join); // taken arm does not
        b.switch_to(join);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let res = forward(&f, &cfg, &MustDefined);
        let at_join = res.entry[join.index()].as_ref().unwrap();
        assert!(!at_join.reg(r));
        assert!(at_join.reg(c), "params are defined everywhere");
    }

    #[test]
    fn must_defined_sees_mid_block_branch_state() {
        // The value defined *after* a mid-block exit branch must not leak
        // into the branch target's entry state.
        let mut b = FuncBuilder::new("f");
        let c = b.param();
        let out = b.block();
        let early = b.mov(Operand::Imm(1));
        b.br(CmpOp::Ne, c.into(), Operand::Imm(0), out);
        let late = b.mov(Operand::Imm(2));
        b.jump(out);
        b.switch_to(out);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let res = forward(&f, &cfg, &MustDefined);
        let at_out = res.entry[out.index()].as_ref().unwrap();
        assert!(at_out.reg(early));
        assert!(!at_out.reg(late), "late def only reaches on the fall path");
    }
}
