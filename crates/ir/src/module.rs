//! Blocks, functions, globals and modules.

use crate::inst::{Inst, Op};
use crate::types::{BlockId, FuncId, InstId, PredReg, Reg};
use std::collections::HashMap;

/// Base address of the data segment (globals).
pub const DATA_BASE: u64 = 0x1000;
/// Reserved always-valid scratch word used by the `$safe_addr` store
/// conversion (paper Fig. 3): nullified stores are redirected here.
pub const SAFE_ADDR: u64 = 0xFF8;
/// Total simulated memory size in bytes.
pub const MEM_SIZE: u64 = 16 * 1024 * 1024;
/// Initial stack pointer (stack grows toward lower addresses).
pub const STACK_BASE: u64 = MEM_SIZE - 16;
/// Addresses below this value (except [`SAFE_ADDR`]) trap on non-speculative
/// access, approximating a null-pointer guard page.
pub const NULL_GUARD: u64 = 0x800;

/// A straight-line sequence of instructions.
///
/// Before region formation every block is a *basic block*: branches appear
/// only as the final instruction. After superblock/hyperblock formation a
/// block is a single-entry, multiple-exit linear region: conditional exit
/// branches may appear anywhere. Control enters only at the top; if the
/// final instruction does not end the block, control falls through to the
/// next block in the function's layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Instructions in code order (= schedule order once scheduled).
    pub insts: Vec<Inst>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Block {
        Block::default()
    }

    /// The final instruction, if any.
    pub fn last(&self) -> Option<&Inst> {
        self.insts.last()
    }

    /// True when the block cannot fall through (ends in an unguarded
    /// jump/ret/halt).
    pub fn ends_explicitly(&self) -> bool {
        self.last().is_some_and(|i| i.ends_block())
    }
}

/// A function: blocks plus a layout (code order).
///
/// `layout[0]` is the entry block. Fall-through flows to the next block in
/// layout order. Blocks not present in the layout are dead (kept only until
/// the next [`Function::remove_unreachable`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (unique within the module).
    pub name: String,
    /// Parameter registers, in call order.
    pub params: Vec<Reg>,
    /// All blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Code order; `layout[0]` is the entry.
    pub layout: Vec<BlockId>,
    /// Number of virtual registers (ids `0..reg_count`).
    pub reg_count: u32,
    /// Number of predicate registers (ids `0..pred_count`).
    pub pred_count: u32,
    next_inst_id: u32,
    /// Calls whose callee is recorded by name until [`Module::link`] runs.
    pub(crate) pending_callees: HashMap<InstId, String>,
}

impl Function {
    /// Creates an empty function with a single empty entry block.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            blocks: vec![Block::new()],
            layout: vec![BlockId(0)],
            reg_count: 0,
            pred_count: 0,
            next_inst_id: 0,
            pending_callees: HashMap::new(),
        }
    }

    /// The entry block.
    ///
    /// # Panics
    /// Panics if the layout is empty (never true for built functions).
    pub fn entry(&self) -> BlockId {
        self.layout[0]
    }

    /// Shared access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Allocates a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.reg_count);
        self.reg_count += 1;
        r
    }

    /// Allocates a fresh predicate register.
    pub fn fresh_pred(&mut self) -> PredReg {
        let p = PredReg(self.pred_count);
        self.pred_count += 1;
        p
    }

    /// Allocates a fresh instruction id.
    pub fn fresh_inst_id(&mut self) -> InstId {
        let id = InstId(self.next_inst_id);
        self.next_inst_id += 1;
        id
    }

    /// Creates a new empty block appended to the layout.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        self.layout.push(id);
        id
    }

    /// Creates a new empty block *not* yet placed in the layout. The caller
    /// must insert it into `layout` before the function is executed.
    pub fn add_block_detached(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    /// Builds a new [`Inst`] with a fresh id.
    pub fn make_inst(&mut self, op: Op) -> Inst {
        let id = self.fresh_inst_id();
        Inst::new(id, op)
    }

    /// Clones `inst`, assigning the clone a fresh id.
    pub fn clone_inst(&mut self, inst: &Inst) -> Inst {
        let mut c = inst.clone();
        c.id = self.fresh_inst_id();
        c
    }

    /// Position of `id` in the layout, if laid out.
    pub fn layout_pos(&self, id: BlockId) -> Option<usize> {
        self.layout.iter().position(|&b| b == id)
    }

    /// The fall-through successor of `id` (next block in layout).
    pub fn layout_next(&self, id: BlockId) -> Option<BlockId> {
        let pos = self.layout_pos(id)?;
        self.layout.get(pos + 1).copied()
    }

    /// Control-flow successors of block `id`: every branch target inside the
    /// block plus the fall-through successor when the block does not end
    /// explicitly. Duplicates removed; order: branch targets in code order,
    /// fall-through last.
    pub fn succs(&self, id: BlockId) -> Vec<BlockId> {
        let mut out = Vec::new();
        let block = self.block(id);
        for inst in &block.insts {
            if inst.op.is_branch() {
                if let Some(t) = inst.target {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
            }
        }
        if !block.ends_explicitly() {
            if let Some(next) = self.layout_next(id) {
                if !out.contains(&next) {
                    out.push(next);
                }
            }
        }
        out
    }

    /// Predecessor lists for all laid-out blocks, indexed by block id.
    pub fn preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for &b in &self.layout {
            for s in self.succs(b) {
                if !preds[s.index()].contains(&b) {
                    preds[s.index()].push(b);
                }
            }
        }
        preds
    }

    /// Total number of instructions across laid-out blocks.
    pub fn size(&self) -> usize {
        self.layout.iter().map(|&b| self.block(b).insts.len()).sum()
    }

    /// Iterates `(block, index, inst)` over the layout.
    pub fn insts(&self) -> impl Iterator<Item = (BlockId, usize, &Inst)> + '_ {
        self.layout.iter().flat_map(move |&b| {
            self.block(b)
                .insts
                .iter()
                .enumerate()
                .map(move |(i, inst)| (b, i, inst))
        })
    }

    /// Removes unreachable blocks from the layout (blocks stay allocated so
    /// ids remain stable; they are simply no longer laid out or executed).
    pub fn remove_unreachable(&mut self) {
        let mut reach = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry()];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut reach[b.index()], true) {
                continue;
            }
            for s in self.succs(b) {
                if !reach[s.index()] {
                    stack.push(s);
                }
            }
        }
        self.layout.retain(|b| reach[b.index()]);
        // Unreachable blocks may still be jump targets from other dead
        // blocks; clear their bodies so the verifier sees no stale edges.
        for (i, block) in self.blocks.iter_mut().enumerate() {
            if !reach[i] {
                block.insts.clear();
            }
        }
    }

    /// True when every block is a *basic* block: control leaves only at the
    /// end. Two terminator shapes are allowed:
    ///
    /// * a single exit as the final instruction (conditional branch with
    ///   fall-through, jump, ret, or halt), or
    /// * the *double terminator* `[..., Br, Jump/Ret/Halt]` — a conditional
    ///   branch whose not-taken path immediately leaves via the final
    ///   instruction (frontends emit this so they never rely on layout
    ///   order).
    pub fn is_basic(&self) -> bool {
        self.layout.iter().all(|&b| {
            let insts = &self.block(b).insts;
            let n = insts.len();
            insts.iter().enumerate().all(|(i, inst)| {
                if !inst.is_exit() {
                    return true;
                }
                if i + 1 == n {
                    return true;
                }
                // Second-to-last: allowed only for Br followed by an
                // unconditional ender.
                i + 2 == n && matches!(inst.op, Op::Br(_)) && insts[n - 1].op.ends_block()
            })
        })
    }
}

/// A global data object (scalar or array) in the data segment.
#[derive(Debug, Clone)]
pub struct Global {
    /// Name (unique within the module).
    pub name: String,
    /// Absolute byte address in simulated memory.
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Initial contents (zero-padded to `size`).
    pub init: Vec<u8>,
}

/// A whole program: functions plus a data segment of globals.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Global data objects.
    pub globals: Vec<Global>,
    data_end: u64,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module {
            funcs: Vec::new(),
            globals: Vec::new(),
            data_end: DATA_BASE,
        }
    }

    /// Adds a function, returning its id.
    pub fn push(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(f);
        id
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Shared access to a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Allocates a global of `size` bytes (8-aligned) with initial
    /// contents `init`, returning its address.
    ///
    /// # Panics
    /// Panics if `init` is longer than `size` or the data segment overflows
    /// into the stack region. Frontends lowering untrusted source should
    /// use [`Module::try_add_global`] and report a compile error instead.
    pub fn add_global(&mut self, name: impl Into<String>, size: u64, init: Vec<u8>) -> u64 {
        self.try_add_global(name, size, init)
            .expect("global initializer too long or data segment overflow")
    }

    /// Non-panicking [`Module::add_global`]: returns `None` (leaving the
    /// module unchanged) when `init` is longer than `size` or the data
    /// segment would overflow into the stack region.
    pub fn try_add_global(
        &mut self,
        name: impl Into<String>,
        size: u64,
        init: Vec<u8>,
    ) -> Option<u64> {
        if init.len() as u64 > size {
            return None;
        }
        let addr = self.data_end;
        let end = addr.checked_add(size)?.checked_add(7)? & !7;
        if end >= MEM_SIZE / 2 {
            return None;
        }
        self.data_end = end;
        self.globals.push(Global {
            name: name.into(),
            addr,
            size,
            init,
        });
        Some(addr)
    }

    /// Finds a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// End of the data segment (first free byte).
    pub fn data_end(&self) -> u64 {
        self.data_end
    }

    /// Resolves calls recorded by name into [`FuncId`]s.
    ///
    /// # Errors
    /// Returns the name of the first callee that does not exist.
    pub fn link(&mut self) -> Result<(), String> {
        let names: HashMap<String, FuncId> = self
            .funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
            .collect();
        for f in &mut self.funcs {
            if f.pending_callees.is_empty() {
                continue;
            }
            let pending = std::mem::take(&mut f.pending_callees);
            let mut resolve: HashMap<InstId, FuncId> = HashMap::new();
            for (iid, name) in pending {
                let id = *names.get(&name).ok_or(name)?;
                resolve.insert(iid, id);
            }
            for block in &mut f.blocks {
                for inst in &mut block.insts {
                    if inst.op == Op::Call && inst.callee.is_none() {
                        if let Some(&fid) = resolve.get(&inst.id) {
                            inst.callee = Some(fid);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CmpOp, Operand};

    #[test]
    fn fresh_ids_are_unique() {
        let mut f = Function::new("t");
        let a = f.fresh_reg();
        let b = f.fresh_reg();
        assert_ne!(a, b);
        let p = f.fresh_pred();
        let q = f.fresh_pred();
        assert_ne!(p, q);
        let i = f.fresh_inst_id();
        let j = f.fresh_inst_id();
        assert_ne!(i, j);
    }

    #[test]
    fn succs_fallthrough_and_branch() {
        let mut f = Function::new("t");
        let b0 = f.entry();
        let b1 = f.add_block();
        let b2 = f.add_block();
        // b0: br eq r0,0 -> b2 ; fallthrough b1
        let mut br = f.make_inst(Op::Br(CmpOp::Eq));
        br.srcs = vec![Operand::Imm(0), Operand::Imm(0)];
        br.target = Some(b2);
        f.block_mut(b0).insts.push(br);
        let s = f.succs(b0);
        assert_eq!(s, vec![b2, b1]);
        // b2 last in layout, no terminator -> no successors
        assert!(f.succs(b2).is_empty());
        // b1 has no terminator, so it falls through to b2 as well.
        assert_eq!(f.preds()[b2.index()], vec![b0, b1]);
    }

    #[test]
    fn jump_has_no_fallthrough() {
        let mut f = Function::new("t");
        let b0 = f.entry();
        let _b1 = f.add_block();
        let b2 = f.add_block();
        let mut j = f.make_inst(Op::Jump);
        j.target = Some(b2);
        f.block_mut(b0).insts.push(j);
        assert_eq!(f.succs(b0), vec![b2]);
    }

    #[test]
    fn remove_unreachable_drops_dead_blocks() {
        let mut f = Function::new("t");
        let b0 = f.entry();
        let b1 = f.add_block(); // falls after b0; b0 jumps over it
        let b2 = f.add_block();
        let mut j = f.make_inst(Op::Jump);
        j.target = Some(b2);
        f.block_mut(b0).insts.push(j);
        let ret = f.make_inst(Op::Ret);
        f.block_mut(b2).insts.push(ret);
        f.remove_unreachable();
        assert_eq!(f.layout, vec![b0, b2]);
        assert!(f.block(b1).insts.is_empty());
    }

    #[test]
    fn module_globals_are_aligned_and_disjoint() {
        let mut m = Module::new();
        let a = m.add_global("a", 3, vec![1, 2, 3]);
        let b = m.add_global("b", 8, vec![]);
        assert_eq!(a, DATA_BASE);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 3);
        assert_eq!(m.global("a").unwrap().init, vec![1, 2, 3]);
        assert!(m.global("zzz").is_none());
    }

    #[test]
    fn link_resolves_pending_callees() {
        let mut m = Module::new();
        let mut f = Function::new("caller");
        let call = {
            let mut c = f.make_inst(Op::Call);
            c.dst = Some(f.fresh_reg());
            f.pending_callees.insert(c.id, "callee".to_string());
            c
        };
        let entry = f.entry();
        f.block_mut(entry).insts.push(call);
        let ret = f.make_inst(Op::Ret);
        f.block_mut(entry).insts.push(ret);
        m.push(f);
        m.push(Function::new("callee"));
        m.link().unwrap();
        let callee = m.func_by_name("callee").unwrap();
        assert_eq!(m.funcs[0].blocks[0].insts[0].callee, Some(callee));
    }

    #[test]
    fn link_reports_missing_callee() {
        let mut m = Module::new();
        let mut f = Function::new("caller");
        let mut c = f.make_inst(Op::Call);
        f.pending_callees.insert(c.id, "nope".to_string());
        c.dst = Some(f.fresh_reg());
        let entry = f.entry();
        f.block_mut(entry).insts.push(c);
        m.push(f);
        assert_eq!(m.link(), Err("nope".to_string()));
    }

    #[test]
    fn is_basic_detects_mid_block_branches() {
        let mut f = Function::new("t");
        let b0 = f.entry();
        let b1 = f.add_block();
        let mut br = f.make_inst(Op::Br(CmpOp::Eq));
        br.srcs = vec![Operand::Imm(0), Operand::Imm(0)];
        br.target = Some(b1);
        let nop = f.make_inst(Op::Nop);
        f.block_mut(b0).insts.push(br);
        assert!(f.is_basic());
        f.block_mut(b0).insts.push(nop);
        assert!(!f.is_basic());
    }
}
