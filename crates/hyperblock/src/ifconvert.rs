//! Hyperblock formation by if-conversion.
//!
//! A hyperblock is a single-entry, multiple-exit region in which all
//! internal control flow has been converted to predication (Mahlke et al.,
//! MICRO-25; §3.1 of the paper). This pass:
//!
//! 1. Picks candidate regions — innermost natural loop bodies (where the
//!    benchmarks spend their time), or the whole function when it is
//!    acyclic.
//! 2. Selects blocks by profile heuristics: execution ratio versus the
//!    header, a size budget, and exclusion of hazardous blocks (calls,
//!    returns). The selected set is closed so the region stays
//!    single-entry.
//! 3. If-converts: each internal branch becomes a predicate define with up
//!    to two typed destinations (taken predicate + fall-through complement,
//!    U-type for single-reaching-edge blocks and OR-type for merge points),
//!    each selected block's instructions are guarded by the block
//!    predicate, and edges leaving the region become (predicated) exit
//!    branches. The result is one linear block.

use hyperpred_emu::Profiler;
use hyperpred_ir::{
    BlockId, Cfg, CmpOp, DomTree, FuncId, Function, Inst, LoopForest, Op, Operand, PredReg,
    PredType,
};
use std::collections::HashMap;

/// Tunables for hyperblock formation.
#[derive(Debug, Clone, Copy)]
pub struct HyperblockConfig {
    /// Minimum `count(block) / count(header)` for inclusion.
    pub min_exec_ratio: f64,
    /// Maximum number of instructions in the merged hyperblock.
    pub max_insts: usize,
    /// Maximum number of blocks considered per region.
    pub max_blocks: usize,
    /// Maximum regions converted per function before the pass refuses with
    /// a typed [`GrowthBudget`](crate::GrowthBudget) error (each conversion
    /// restarts CFG/dominator/loop analysis, so this bounds compile time).
    pub max_regions: usize,
    /// Total instructions formation may add to one function (tail
    /// duplication of side entrances) before refusing with a typed
    /// [`GrowthBudget`](crate::GrowthBudget) error.
    pub max_growth_insts: usize,
}

impl Default for HyperblockConfig {
    fn default() -> HyperblockConfig {
        HyperblockConfig {
            min_exec_ratio: 0.04,
            max_insts: 400,
            max_blocks: 48,
            max_regions: 256,
            max_growth_insts: 20_000,
        }
    }
}

/// Forms hyperblocks in `f`, returning how many regions were converted, or
/// a typed [`GrowthBudget`](crate::GrowthBudget) error when formation
/// exceeds the configured region-count or code-growth budgets.
pub fn form_hyperblocks(
    f: &mut Function,
    fid: FuncId,
    prof: &Profiler,
    config: &HyperblockConfig,
) -> Result<usize, crate::GrowthBudget> {
    debug_assert!(f.is_basic(), "hyperblock formation requires basic blocks");
    let start_size = f.size();
    let mut formed = 0usize;
    // Convert one region at a time; each conversion invalidates the CFG.
    loop {
        if formed >= config.max_regions {
            return Err(crate::GrowthBudget {
                pass: "ifconvert",
                metric: "formed-regions",
                value: formed as u64 + 1,
                limit: config.max_regions as u64,
            });
        }
        let size = f.size();
        if size > start_size + config.max_growth_insts {
            return Err(crate::GrowthBudget {
                pass: "ifconvert",
                metric: "grown-insts",
                value: (size - start_size) as u64,
                limit: config.max_growth_insts as u64,
            });
        }
        let cfg = Cfg::new(f);
        let doms = DomTree::new(&cfg);
        let loops = LoopForest::new(&cfg, &doms);
        // Candidate regions: every natural loop body. Blocks belonging to
        // a *nested* loop are excluded from the outer region's selection
        // (an inner loop is first converted into its own hyperblock, which
        // then appears to the outer region as a hazardous single block).
        let mut regions: Vec<(BlockId, Vec<BlockId>, Vec<BlockId>)> = loops
            .loops
            .iter()
            .filter(|l| l.body.len() > 1)
            .map(|l| {
                let nested: Vec<BlockId> = loops
                    .loops
                    .iter()
                    .filter(|inner| inner.header != l.header && l.contains(inner.header))
                    .flat_map(|inner| inner.body.iter().copied())
                    .collect();
                (l.header, l.body.clone(), nested)
            })
            .collect();
        if loops.loops.is_empty() && f.layout.len() > 1 {
            // Acyclic function: the whole body is one region.
            regions.push((f.entry(), f.layout.clone(), Vec::new()));
        }
        // Innermost (smallest) regions first so inner loops become
        // hyperblocks before their enclosing loops are attempted.
        regions
            .sort_by_key(|(h, body, _)| (body.len(), std::cmp::Reverse(prof.block_count(fid, *h))));
        let mut converted = false;
        for (header, body, nested) in regions {
            if convert_region(f, fid, prof, header, &body, &nested, config) {
                formed += 1;
                converted = true;
                break; // CFG changed; restart analysis.
            }
        }
        if !converted {
            break;
        }
    }
    f.remove_unreachable();
    debug_assert!(
        hyperpred_ir::verify::verify_function(f).is_ok(),
        "if-conversion broke {}: {:?}",
        f.name,
        hyperpred_ir::verify::verify_function(f).err()
    );
    // In debug builds, also hold the converted function to the semantic
    // rules: every read defined on all paths, predicates well-formed.
    #[cfg(debug_assertions)]
    {
        use hyperpred_ir::analysis::{check_function, ModelClass};
        let vs = check_function(f, ModelClass::FullPred);
        assert!(vs.is_empty(), "if-conversion broke {}: {vs:#?}", f.name);
    }
    Ok(formed)
}

/// The outgoing edges of a basic block.
#[derive(Debug, Clone)]
enum Out {
    None,
    Uncond(BlockId),
    /// Conditional: comparison, operands, taken target, other target.
    Cond(CmpOp, Vec<Operand>, BlockId, BlockId),
}

fn out_edges(f: &Function, b: BlockId) -> Out {
    let insts = &f.block(b).insts;
    let n = insts.len();
    if n >= 2 {
        if let (Op::Br(c), Op::Jump) = (insts[n - 2].op, insts[n - 1].op) {
            let t = insts[n - 2].target.unwrap();
            let u = insts[n - 1].target.unwrap();
            if t == u {
                return Out::Uncond(t);
            }
            return Out::Cond(c, insts[n - 2].srcs.clone(), t, u);
        }
    }
    match insts.last().map(|i| i.op) {
        Some(Op::Br(c)) => {
            let t = insts.last().unwrap().target.unwrap();
            match f.layout_next(b) {
                Some(u) if u != t => Out::Cond(c, insts.last().unwrap().srcs.clone(), t, u),
                _ => Out::Uncond(t),
            }
        }
        Some(Op::Jump) => Out::Uncond(insts.last().unwrap().target.unwrap()),
        Some(Op::Ret) | Some(Op::Halt) => Out::None,
        _ => match f.layout_next(b) {
            Some(u) => Out::Uncond(u),
            None => Out::None,
        },
    }
}

fn hazardous(f: &Function, b: BlockId) -> bool {
    let insts = &f.block(b).insts;
    let n = insts.len();
    // Mid-block exits (superblocks, hand-built irregular code) cannot be
    // if-converted: `out_edges` only understands basic-block terminators.
    let basic = insts.iter().enumerate().all(|(i, inst)| {
        !inst.is_exit()
            || i + 1 == n
            || (i + 2 == n && matches!(inst.op, Op::Br(_)) && insts[n - 1].op.ends_block())
    });
    !basic
        || insts.iter().any(|i| {
            matches!(i.op, Op::Ret | Op::Halt | Op::Call)
                // Already-predicated code (an earlier hyperblock) is never
                // re-converted.
                || i.guard.is_some()
                || i.op.is_pred_def()
                || matches!(i.op, Op::PredClear | Op::PredSet)
        })
}

/// Removes side entrances into `selected` by duplicating the selected
/// subgraph reachable from entered blocks and rewiring every unselected
/// predecessor to the copies. Returns false if the region should be
/// abandoned (pathological shapes).
fn duplicate_side_entrances(f: &mut Function, header: BlockId, selected: &[BlockId]) -> bool {
    for _round in 0..4 {
        let preds = f.preds();
        // Blocks (other than the header) entered from outside the selection.
        let entered: Vec<BlockId> = selected
            .iter()
            .copied()
            .filter(|&b| b != header && preds[b.index()].iter().any(|p| !selected.contains(p)))
            .collect();
        if entered.is_empty() {
            return true;
        }
        // The duplication set: everything reachable from the entered blocks
        // through selected blocks (the header re-entry stays shared).
        let mut dup: Vec<BlockId> = Vec::new();
        let mut stack = entered.clone();
        while let Some(b) = stack.pop() {
            if dup.contains(&b) {
                continue;
            }
            dup.push(b);
            for s in f.succs(b) {
                if s != header && selected.contains(&s) && !dup.contains(&s) {
                    stack.push(s);
                }
            }
        }
        // Clone the subgraph.
        let mut clone_of: HashMap<BlockId, BlockId> = HashMap::new();
        for &d in &dup {
            let c = f.add_block();
            clone_of.insert(d, c);
        }
        for &d in &dup {
            // Record the fall-through target before cloning.
            let fall = if f.block(d).ends_explicitly() {
                None
            } else {
                f.layout_next(d)
            };
            let insts: Vec<Inst> = f.block(d).insts.clone();
            let mut cloned = Vec::with_capacity(insts.len() + 1);
            for inst in &insts {
                let mut ci = f.clone_inst(inst);
                if let Some(t) = ci.target {
                    if let Some(&ct) = clone_of.get(&t) {
                        ci.target = Some(ct);
                    }
                }
                cloned.push(ci);
            }
            // Clones live at the end of the layout: make the fall-through
            // explicit.
            if let Some(fall) = fall {
                let target = clone_of.get(&fall).copied().unwrap_or(fall);
                let mut j = f.make_inst(Op::Jump);
                j.target = Some(target);
                cloned.push(j);
            }
            let c = clone_of[&d];
            f.block_mut(c).insts = cloned;
        }
        // Rewire every cold edge into the copies.
        for &t in &entered {
            let ct = clone_of[&t];
            let sources: Vec<BlockId> = preds[t.index()]
                .iter()
                .copied()
                .filter(|p| !selected.contains(p))
                .collect();
            for p in sources {
                // Fall-through entry: append an explicit jump first.
                if !f.block(p).ends_explicitly() && f.layout_next(p) == Some(t) {
                    let mut j = f.make_inst(Op::Jump);
                    j.target = Some(ct);
                    f.block_mut(p).insts.push(j);
                }
                for inst in &mut f.block_mut(p).insts {
                    if inst.op.is_branch() && inst.target == Some(t) {
                        inst.target = Some(ct);
                    }
                }
            }
        }
    }
    // Still not single-entry after several rounds: give up on this region.
    false
}

/// Attempts to if-convert one region; returns true if it did.
fn convert_region(
    f: &mut Function,
    fid: FuncId,
    prof: &Profiler,
    header: BlockId,
    body: &[BlockId],
    nested: &[BlockId],
    config: &HyperblockConfig,
) -> bool {
    if body.len() > config.max_blocks || hazardous(f, header) || nested.contains(&header) {
        return false;
    }
    let hcount = prof.block_count(fid, header).max(1);
    // --- Block selection -------------------------------------------------
    let mut selected: Vec<BlockId> = body
        .iter()
        .copied()
        .filter(|&b| {
            b == header
                || (!hazardous(f, b)
                    && !nested.contains(&b)
                    && prof.block_count(fid, b) as f64 / hcount as f64 >= config.min_exec_ratio)
        })
        .collect();
    if !selected.contains(&header) {
        return false;
    }
    // Size budget: drop the coldest blocks until the region fits.
    loop {
        let total: usize = selected.iter().map(|&b| f.block(b).insts.len()).sum();
        if total <= config.max_insts {
            break;
        }
        let Some(&coldest) = selected
            .iter()
            .filter(|&&b| b != header)
            .min_by_key(|&&b| prof.block_count(fid, b))
        else {
            return false;
        };
        selected.retain(|&b| b != coldest);
    }
    // Side entrances: an unselected block (a cold path we excluded) may
    // branch back into a selected block. Instead of dropping the selected
    // block (which would cascade through every join), tail-duplicate the
    // selected subgraph reachable from the entered blocks and rewire the
    // cold edges to the copies — the classic hyperblock formation step.
    if !duplicate_side_entrances(f, header, &selected) {
        return false;
    }
    if selected.len() < 2 {
        return false;
    }
    // Coverage: if the selection misses most of the region's dynamic
    // weight (calls or returns dominate the hot path), if-conversion only
    // fragments the code; leave the region to superblock formation.
    let weight = |bs: &[BlockId]| -> u64 {
        bs.iter()
            .map(|&b| prof.block_count(fid, b) * f.block(b).insts.len() as u64)
            .sum()
    };
    let region_weight = weight(body).max(1);
    if (weight(&selected) as f64) < 0.5 * region_weight as f64 {
        return false;
    }

    // --- Topological order over in-region forward edges ------------------
    let in_s = |b: BlockId| selected.contains(&b);
    let fwd_succs = |b: BlockId| -> Vec<BlockId> {
        match out_edges(f, b) {
            Out::None => vec![],
            Out::Uncond(t) => vec![t],
            Out::Cond(_, _, t, u) => vec![t, u],
        }
        .into_iter()
        .filter(|&t| in_s(t) && t != header)
        .collect()
    };
    let mut indeg: HashMap<BlockId, usize> = selected.iter().map(|&b| (b, 0)).collect();
    for &b in &selected {
        for t in fwd_succs(b) {
            *indeg.get_mut(&t).unwrap() += 1;
        }
    }
    // Kahn's algorithm starting from the header. If it does not cover the
    // whole selection (an internal cycle not through the header, or a block
    // unreachable within the region), bail out.
    let mut topo: Vec<BlockId> = Vec::with_capacity(selected.len());
    let mut remaining = indeg.clone();
    let mut worklist = std::collections::VecDeque::from([header]);
    while let Some(b) = worklist.pop_front() {
        topo.push(b);
        for t in fwd_succs(b) {
            let d = remaining.get_mut(&t).unwrap();
            *d -= 1;
            if *d == 0 {
                worklist.push_back(t);
            }
        }
    }
    if topo.len() != selected.len() {
        return false;
    }

    // --- Control-dependence predicate assignment -------------------------
    //
    // Post-dominance is computed over the *in-region* graph with exit
    // edges removed: the emitted exit branches perform that filtering at
    // run time, so predicates only encode conditions among branches that
    // stay inside the region. This is what leaves join points and
    // single-successor loop bodies unguarded — exactly the paper's
    // Figure 1, where `add i,i,1` executes unconditionally.
    //
    // A block is control-dependent on edge (u -> v) when it post-dominates
    // v but not u (Ferrante-Ottenstein-Warren); blocks with equal
    // control-dependence sets share one predicate (RK assignment); a block
    // with an empty set is control-equivalent to the header and needs no
    // predicate.
    let n_sel = topo.len();
    let idx_of: HashMap<BlockId, usize> = topo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let sink = n_sel; // virtual exit node
    let mut succs_g: Vec<Vec<usize>> = vec![Vec::new(); n_sel + 1];
    for (i, &b) in topo.iter().enumerate() {
        let fs = fwd_succs(b);
        if fs.is_empty() {
            succs_g[i].push(sink);
        } else {
            for t in fs {
                succs_g[i].push(idx_of[&t]);
            }
        }
    }
    // Immediate post-dominators (Cooper-Harvey-Kennedy over the reversed
    // DAG; rank 0 = sink).
    let rank = |x: usize| if x == sink { 0 } else { n_sel - x };
    let mut ipdom: Vec<Option<usize>> = vec![None; n_sel + 1];
    ipdom[sink] = Some(sink);
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n_sel).rev() {
            let mut new: Option<usize> = None;
            for &sux in &succs_g[i] {
                if sux != sink && ipdom[sux].is_none() {
                    continue;
                }
                new = Some(match new {
                    None => sux,
                    Some(cur) => {
                        let (mut x, mut y) = (cur, sux);
                        while x != y {
                            while rank(x) > rank(y) {
                                x = ipdom[x].expect("ranked nodes have ipdoms");
                            }
                            while rank(y) > rank(x) {
                                y = ipdom[y].expect("ranked nodes have ipdoms");
                            }
                        }
                        x
                    }
                });
            }
            if ipdom[i] != new {
                ipdom[i] = new;
                changed = true;
            }
        }
    }
    // Control-dependence sets: (source block index, taken-side?) pairs.
    let mut cd: Vec<Vec<(usize, bool)>> = vec![Vec::new(); n_sel];
    for (i, &b) in topo.iter().enumerate() {
        let Out::Cond(_, _, t, u) = out_edges(f, b) else {
            continue;
        };
        let stop = ipdom[i].expect("every region block reaches the sink");
        for (dest, kind) in [(t, true), (u, false)] {
            if !in_s(dest) || dest == header {
                continue;
            }
            let mut w = idx_of[&dest];
            while w != stop {
                cd[w].push((i, kind));
                w = ipdom[w].expect("walk ends at ipdom(u)");
            }
        }
    }
    for set in &mut cd {
        set.sort_unstable();
        set.dedup();
    }
    // One predicate per distinct nonempty set.
    let mut pred_for_set: HashMap<Vec<(usize, bool)>, PredReg> = HashMap::new();
    let mut pred_of: HashMap<BlockId, Option<PredReg>> = HashMap::new();
    pred_of.insert(header, None);
    let mut any_or = false;
    for (i, &b) in topo.iter().enumerate() {
        if i == 0 {
            continue;
        }
        if cd[i].is_empty() {
            pred_of.insert(b, None);
        } else {
            if cd[i].len() > 1 {
                any_or = true;
            }
            let p = *pred_for_set
                .entry(cd[i].clone())
                .or_insert_with(|| f.fresh_pred());
            pred_of.insert(b, Some(p));
        }
    }
    // Defines required per (source block, side): each distinct set
    // containing that edge contributes one typed destination. Sets are
    // visited in predicate-creation (topological) order, never the map's,
    // so which destinations share a dual-destination define is fixed.
    let mut sets: Vec<(&Vec<(usize, bool)>, PredReg)> =
        pred_for_set.iter().map(|(set, &p)| (set, p)).collect();
    sets.sort_unstable_by_key(|&(_, p)| p);
    let mut defs_at: HashMap<(usize, bool), Vec<hyperpred_ir::PredDst>> = HashMap::new();
    for (set, p) in sets {
        let or_type = set.len() > 1;
        for &(u, kind) in set {
            let ty = match (or_type, kind) {
                (false, true) => PredType::U,
                (false, false) => PredType::UBar,
                (true, true) => PredType::Or,
                (true, false) => PredType::OrBar,
            };
            defs_at
                .entry((u, kind))
                .or_default()
                .push(hyperpred_ir::PredDst::new(p, ty));
        }
    }

    // --- Emission ----------------------------------------------------------
    let mut out: Vec<Inst> = Vec::new();
    if any_or {
        let clear = f.make_inst(Op::PredClear);
        out.push(clear);
    }
    for (i, &b) in topo.iter().enumerate() {
        let guard = pred_of[&b];
        let edges = out_edges(f, b);
        // Body instructions (minus terminators).
        let insts = std::mem::take(&mut f.block_mut(b).insts);
        let term_count = match edges {
            Out::None => 1,
            _ => {
                let n = insts.len();
                let mut k = 0;
                if n >= 1 && insts[n - 1].is_exit() {
                    k += 1;
                }
                if n >= 2 && matches!(insts[n - 2].op, Op::Br(_)) {
                    k += 1;
                }
                k
            }
        };
        let body_len = insts.len() - term_count.min(insts.len());
        for mut inst in insts.into_iter().take(body_len) {
            debug_assert!(inst.guard.is_none(), "if-converting already-guarded code");
            inst.guard = guard;
            out.push(inst);
        }
        // Edges.
        match edges {
            Out::None => unreachable!("hazardous blocks are excluded"),
            Out::Uncond(t) => {
                if !in_s(t) || t == header {
                    let mut j = f.make_inst(Op::Jump);
                    j.target = Some(t);
                    j.guard = guard;
                    out.push(j);
                }
                // In-region unconditional edges generate nothing: the
                // destination's predicate (if any) is defined elsewhere.
            }
            Out::Cond(c, srcs, t, u) => {
                // Predicate defines for blocks control-dependent on this
                // branch; a taken-side and a fall-side destination share
                // one dual-destination define.
                let mut taken_dsts = defs_at.get(&(i, true)).cloned().unwrap_or_default();
                let mut fall_dsts = defs_at.get(&(i, false)).cloned().unwrap_or_default();
                while !taken_dsts.is_empty() || !fall_dsts.is_empty() {
                    let mut pdsts = Vec::with_capacity(2);
                    if let Some(d) = taken_dsts.pop() {
                        pdsts.push(d);
                    }
                    if let Some(d) = fall_dsts.pop() {
                        pdsts.push(d);
                    }
                    let mut d = f.make_inst(Op::PredDef(c));
                    d.srcs = srcs.clone();
                    d.pdsts = pdsts;
                    d.guard = guard;
                    out.push(d);
                }
                // Exit branches for edges leaving the region (or looping
                // back to the header).
                if !in_s(t) || t == header {
                    let mut br = f.make_inst(Op::Br(c));
                    br.srcs = srcs.clone();
                    br.target = Some(t);
                    br.guard = guard;
                    out.push(br);
                }
                if !in_s(u) || u == header {
                    let mut br = f.make_inst(Op::Br(c.inverse()));
                    br.srcs = srcs.clone();
                    br.target = Some(u);
                    br.guard = guard;
                    out.push(br);
                }
            }
        }
    }
    // By construction exactly one exit fires on every traversal, so the end
    // of the hyperblock is unreachable; `halt` is a structural sentinel for
    // the verifier.
    if !out.last().is_some_and(|i| i.ends_block()) {
        let h = f.make_inst(Op::Halt);
        out.push(h);
    }
    f.block_mut(header).insts = out;
    // Remove the other selected blocks from the layout.
    f.layout.retain(|&b| b == header || !selected.contains(&b));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpred_emu::{DynStats, Emulator, NullSink};
    use hyperpred_lang::compile;
    use hyperpred_lang::lower::entry_args;
    use hyperpred_opt::optimize_module;

    fn profile(m: &hyperpred_ir::Module, args: &[i64]) -> Profiler {
        let mut prof = Profiler::new();
        let mut emu = Emulator::new(m);
        emu.run("main", &entry_args(args), &mut prof).unwrap();
        prof
    }

    fn form_all(m: &mut hyperpred_ir::Module, prof: &Profiler) -> usize {
        let mut formed = 0;
        for i in 0..m.funcs.len() {
            let fid = FuncId(i as u32);
            let mut f = m.funcs[i].clone();
            formed += form_hyperblocks(&mut f, fid, prof, &HyperblockConfig::default()).unwrap();
            m.funcs[i] = f;
        }
        formed
    }

    fn check(src: &str, args: &[i64]) -> (i64, DynStats, DynStats) {
        let mut m = compile(src).unwrap();
        optimize_module(&mut m);
        let want = {
            let mut emu = Emulator::new(&m);
            emu.run("main", &entry_args(args), &mut NullSink)
                .unwrap()
                .ret
        };
        let mut s0 = DynStats::new();
        Emulator::new(&m)
            .run("main", &entry_args(args), &mut s0)
            .unwrap();
        let prof = profile(&m, args);
        let formed = form_all(&mut m, &prof);
        assert!(formed > 0, "no hyperblocks formed for:\n{src}");
        m.verify().unwrap_or_else(|e| panic!("verify: {e}\n{}", m));
        let mut s1 = DynStats::new();
        let got = Emulator::new(&m)
            .run("main", &entry_args(args), &mut s1)
            .unwrap()
            .ret;
        assert_eq!(got, want, "if-conversion changed behaviour:\n{src}\n{m}");
        (got, s0, s1)
    }

    #[test]
    fn simple_diamond_is_converted() {
        let src = "int main() {
            int i; int s; s = 0;
            for (i = 0; i < 100; i += 1) {
                if (i % 2 == 0) s += 3; else s += 1;
            }
            return s;
        }";
        let (_, s0, s1) = check(src, &[]);
        assert!(
            s1.cond_branches < s0.cond_branches,
            "if-conversion should remove branches: {} -> {}",
            s0.cond_branches,
            s1.cond_branches
        );
        assert!(s1.pred_defs > 0, "must use predicate defines");
        assert!(s1.nullified > 0, "some instructions must be nullified");
    }

    #[test]
    fn figure1_nested_if_converts() {
        // The paper's Figure 1 source shape.
        let src = "int main(int a, int b, int c) {
            int i; int j; int k; i = 0; j = 0; k = 0;
            int n;
            for (n = 0; n < 50; n += 1) {
                if (a != 0 && b != 0) j += 1;
                else if (c != 0) k += 1;
                else k -= 1;
                i += 1;
                a = (a + 1) % 3; b = (b + 2) % 5; c = (c + 1) % 2;
            }
            return i * 10000 + j * 100 + k;
        }";
        let (_, s0, s1) = check(src, &[1, 1, 0]);
        assert!(s1.cond_branches < s0.cond_branches);
    }

    #[test]
    fn or_type_merge_point() {
        // Both arms flow into shared code: the join block has two in-edges
        // and needs an OR-type predicate.
        let src = "int main() {
            int i; int s; s = 0;
            for (i = 0; i < 64; i += 1) {
                int t; t = 0;
                if (i % 4 == 0) t = 2; else t = 5;
                s += t * 3 + 1; // join-point code under an OR predicate
            }
            return s;
        }";
        check(src, &[]);
    }

    #[test]
    fn loop_with_internal_break_keeps_exits() {
        let src = "int main() {
            int i; int s; s = 0;
            for (i = 0; i < 1000; i += 1) {
                s += i;
                if (s > 300) break;
            }
            return s + i;
        }";
        check(src, &[]);
    }

    #[test]
    fn calls_are_excluded_from_hyperblocks() {
        let src = "int f(int x) { return x + 1; }
        int main() {
            int i; int s; s = 0;
            for (i = 0; i < 40; i += 1) {
                if (i % 8 == 0) s += f(i);  // cold path with call
                else s += 1;
            }
            return s;
        }";
        // Must still convert *something* (the hot diamond around the call
        // block may collapse), and must stay correct.
        let mut m = compile(src).unwrap();
        optimize_module(&mut m);
        let want = Emulator::new(&m)
            .run("main", &entry_args(&[]), &mut NullSink)
            .unwrap()
            .ret;
        let prof = profile(&m, &[]);
        form_all(&mut m, &prof);
        m.verify().unwrap();
        // Call must never be guarded.
        for f in &m.funcs {
            for (_, _, inst) in f.insts() {
                if inst.op == Op::Call {
                    assert!(inst.guard.is_none(), "calls must not be predicated");
                }
            }
        }
        let got = Emulator::new(&m)
            .run("main", &entry_args(&[]), &mut NullSink)
            .unwrap()
            .ret;
        assert_eq!(got, want);
    }

    #[test]
    fn deeply_nested_conditions() {
        let src = "int main(int a) {
            int i; int s; s = 0;
            for (i = 0; i < 128; i += 1) {
                int x; x = (i * 7 + a) % 16;
                if (x < 8) {
                    if (x < 4) { if (x < 2) s += 1; else s += 2; }
                    else s += 3;
                } else {
                    if (x >= 12) s += 4; else s += 5;
                }
            }
            return s;
        }";
        let (_, s0, s1) = check(src, &[3]);
        assert!(s1.cond_branches < s0.cond_branches);
    }

    #[test]
    fn stores_are_predicated_correctly() {
        let src = "int out[64];
        int main() {
            int i;
            for (i = 0; i < 64; i += 1) {
                if (i % 3 == 0) out[i] = i * 2;
                else out[i] = i + 100;
            }
            int s; int j; s = 0;
            for (j = 0; j < 64; j += 1) s = s * 3 + out[j];
            return s;
        }";
        check(src, &[]);
    }
}
