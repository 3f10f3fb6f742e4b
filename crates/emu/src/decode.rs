//! Pre-decoding of IR into flat, fixed-width op streams.
//!
//! Walking [`Inst`](hyperpred_ir::Inst) structs per fetched instruction costs an enum-payload
//! match, an `Option<Reg>` unwrap, and a `Vec<Operand>` indirection on
//! every dynamic instruction. [`DecodedModule::decode`] pays those costs
//! once per *static* instruction instead: each function becomes one flat
//! `Vec<DOp>` of fixed-width ops with
//!
//! * a dense opcode discriminant (comparison operators baked into the
//!   opcode, so `br_lt` is one jump-table entry, not a match on `CmpOp`),
//! * every operand resolved to a register-file *slot* — immediates get
//!   pseudo-slots past `reg_count` whose values are copied from a per-
//!   function constant pool at activation, so the hot loop reads operands
//!   with one unconditional indexed load,
//! * branch targets resolved to stream indices (the `pc` of the target
//!   block's [`DCode::EnterBlock`] marker, so taken branches reproduce the
//!   reference interpreter's `enter_block` callback exactly),
//! * call targets resolved to function indices and argument lists to a
//!   shared slot pool,
//! * the guard baked as a `nullify` predicate slot (with a sentinel for
//!   unguarded ops and for predicate defines, which a false guard does
//!   *not* nullify — Pin is a Table 1 input, carried separately in `c`).
//!
//! Structural problems the reference interpreter reports lazily (missing
//! destination, unlinked call, out-of-range registers) are discovered at
//! decode time and baked as [`DCode::Malformed`] ops that still respect
//! the guard, so a nullified malformed instruction stays silent exactly as
//! it does in the reference. Error *context* is not materialized here at
//! all: a decoded op carries only its `(block, index)` provenance, and the
//! emulator rebuilds the human-readable [`EmuContext`] from the original
//! `Inst` on the cold error path.
//!
//! [`EmuContext`]: crate::EmuContext

use hyperpred_ir::{CmpOp, Function, MemWidth, Module, Op, Operand, PredType};
use std::collections::HashMap;

/// Sentinel slot: "no register here" (absent guard, absent `ret` value,
/// absent `call`/`cmov` destination).
pub const NONE: u32 = u32::MAX;
/// Sentinel for a *present but out-of-range* lazily-checked destination
/// (`call` / `cmov`, which the reference interpreter only faults when the
/// write actually happens).
pub const DST_OOR: u32 = u32::MAX - 1;
/// Branch-target sentinel: the branch has no target block at all.
pub const TARGET_MISSING: u32 = u32::MAX;
/// Branch-target sentinel: the target block exists but is not in the
/// function layout. Both sentinels fault only when the branch is taken.
pub const TARGET_NOT_LAID: u32 = u32::MAX - 1;

/// `flags` bit: silent (speculative) form — loads of bad addresses and
/// divides by zero produce 0 instead of faulting.
pub const F_SPEC: u8 = 1;
/// `flags` bit: the original op is a branch (`br`/`jump`), so a nullified
/// execution reports `taken: Some(false)` to the trace sink.
pub const F_BRANCH: u8 = 1 << 1;

/// Reasons for baked [`DCode::Malformed`] ops, indexed by `DOp::imm`.
///
/// The first three reproduce the reference interpreter's lazy messages
/// verbatim; the rest are typed upgrades of conditions on which the
/// reference would panic (indexing a register file out of bounds).
pub const MALFORMED_REASONS: &[&str] = &[
    "missing destination register",
    "destination register out of range",
    "unlinked call",
    "source register out of range",
    "guard predicate out of range",
    "predicate destination out of range",
    "missing source operand",
];
/// Indices into [`MALFORMED_REASONS`].
pub(crate) const R_MISSING_DST: u32 = 0;
pub(crate) const R_DST_RANGE: u32 = 1;
pub(crate) const R_UNLINKED_CALL: u32 = 2;
pub(crate) const R_SRC_RANGE: u32 = 3;
pub(crate) const R_GUARD_RANGE: u32 = 4;
pub(crate) const R_PDST_RANGE: u32 = 5;
pub(crate) const R_MISSING_SRC: u32 = 6;

/// Dense decoded opcode. Comparison-carrying IR opcodes expand to six
/// variants each so dispatch is a single jump on the discriminant.
///
/// The three *pseudo-ops* ([`DCode::EnterBlock`], [`DCode::End`],
/// [`DCode::BadParams`]) sort first so the hot loop filters all of them
/// with one `<=` compare before the fuel/abort bookkeeping — they are not
/// fetched instructions and consume no fuel, matching the reference
/// interpreter's per-block structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum DCode {
    /// Block boundary: report `enter_block(func, block)` and fall through.
    EnterBlock = 0,
    /// Past the last laid-out block: control fell off the end.
    End = 1,
    /// Function prologue found a parameter register out of range.
    BadParams = 2,
    /// Structurally invalid instruction; faults when executed (guard
    /// permitting) with `MALFORMED_REASONS[imm]`.
    Malformed,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    AndNot,
    OrNot,
    Shl,
    Shr,
    Sra,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    Mov,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FCmpEq,
    FCmpNe,
    FCmpLt,
    FCmpLe,
    FCmpGt,
    FCmpGe,
    IToF,
    FToI,
    LdByte,
    LdWord,
    StByte,
    StWord,
    BrEq,
    BrNe,
    BrLt,
    BrLe,
    BrGt,
    BrGe,
    Jump,
    Call,
    Ret,
    Halt,
    PdEq,
    PdNe,
    PdLt,
    PdLe,
    PdGt,
    PdGe,
    FPdEq,
    FPdNe,
    FPdLt,
    FPdLe,
    FPdGt,
    FPdGe,
    PredClear,
    PredSet,
    Cmov,
    CmovCom,
    Select,
    Nop,
}

impl DCode {
    /// The decoded opcode an architectural [`Op`] maps to, independent of
    /// operand validity. This is what trace events carry; the reference
    /// interpreter uses it so both interpreters report identical events.
    pub fn of(op: Op) -> DCode {
        match op {
            Op::Add => DCode::Add,
            Op::Sub => DCode::Sub,
            Op::Mul => DCode::Mul,
            Op::Div => DCode::Div,
            Op::Rem => DCode::Rem,
            Op::And => DCode::And,
            Op::Or => DCode::Or,
            Op::Xor => DCode::Xor,
            Op::AndNot => DCode::AndNot,
            Op::OrNot => DCode::OrNot,
            Op::Shl => DCode::Shl,
            Op::Shr => DCode::Shr,
            Op::Sra => DCode::Sra,
            Op::Cmp(c) => CMP_FAM[cmp_idx(c)],
            Op::Mov => DCode::Mov,
            Op::FAdd => DCode::FAdd,
            Op::FSub => DCode::FSub,
            Op::FMul => DCode::FMul,
            Op::FDiv => DCode::FDiv,
            Op::FCmp(c) => FCMP_FAM[cmp_idx(c)],
            Op::IToF => DCode::IToF,
            Op::FToI => DCode::FToI,
            Op::Ld(MemWidth::Byte) => DCode::LdByte,
            Op::Ld(MemWidth::Word) => DCode::LdWord,
            Op::St(MemWidth::Byte) => DCode::StByte,
            Op::St(MemWidth::Word) => DCode::StWord,
            Op::Br(c) => BR_FAM[cmp_idx(c)],
            Op::Jump => DCode::Jump,
            Op::Call => DCode::Call,
            Op::Ret => DCode::Ret,
            Op::Halt => DCode::Halt,
            Op::PredDef(c) => PD_FAM[cmp_idx(c)],
            Op::FPredDef(c) => FPD_FAM[cmp_idx(c)],
            Op::PredClear => DCode::PredClear,
            Op::PredSet => DCode::PredSet,
            Op::Cmov => DCode::Cmov,
            Op::CmovCom => DCode::CmovCom,
            Op::Select => DCode::Select,
            Op::Nop => DCode::Nop,
        }
    }
}

const fn cmp_idx(c: CmpOp) -> usize {
    match c {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

const CMP_FAM: [DCode; 6] = [
    DCode::CmpEq,
    DCode::CmpNe,
    DCode::CmpLt,
    DCode::CmpLe,
    DCode::CmpGt,
    DCode::CmpGe,
];
const FCMP_FAM: [DCode; 6] = [
    DCode::FCmpEq,
    DCode::FCmpNe,
    DCode::FCmpLt,
    DCode::FCmpLe,
    DCode::FCmpGt,
    DCode::FCmpGe,
];
const BR_FAM: [DCode; 6] = [
    DCode::BrEq,
    DCode::BrNe,
    DCode::BrLt,
    DCode::BrLe,
    DCode::BrGt,
    DCode::BrGe,
];
const PD_FAM: [DCode; 6] = [
    DCode::PdEq,
    DCode::PdNe,
    DCode::PdLt,
    DCode::PdLe,
    DCode::PdGt,
    DCode::PdGe,
];
const FPD_FAM: [DCode; 6] = [
    DCode::FPdEq,
    DCode::FPdNe,
    DCode::FPdLt,
    DCode::FPdLe,
    DCode::FPdGt,
    DCode::FPdGe,
];

/// One fixed-width decoded op. Field meaning varies by opcode family:
///
/// | family | `dst` | `a` | `b` | `c` | `imm` |
/// |---|---|---|---|---|---|
/// | ALU / cmp / conversions | result slot | src | src | — | — |
/// | `ld` | result slot | base | offset | — | — |
/// | `st` | — | base | offset | value | — |
/// | `br` / `jump` | — | src | src | — | target `pc` |
/// | `call` | ret slot / sentinel | `call_args` start | arg count | — | callee index |
/// | `ret` | — | value slot / `NONE` | — | — | — |
/// | pred define | `pdsts` start | src | src | Pin slot / `NONE` | pdst count |
/// | `cmov` | dst slot / sentinel | value | cond | — | — |
/// | `select` | result slot | tval | fval | cond | — |
/// | `Malformed` | — | — | — | — | reason index |
/// | `EnterBlock` | — | — | — | — | — |
///
/// `block`/`index` are the op's provenance in the original IR, used to
/// fetch the `&Inst` for trace events and to rebuild error context.
#[derive(Debug, Clone, Copy)]
pub struct DOp {
    /// Dense opcode.
    pub code: DCode,
    /// [`F_SPEC`] | [`F_BRANCH`].
    pub flags: u8,
    /// Guard predicate slot to test before executing ([`NONE`] = never
    /// nullified; always [`NONE`] for predicate defines).
    pub nullify: u32,
    /// See the table above.
    pub dst: u32,
    /// See the table above.
    pub a: u32,
    /// See the table above.
    pub b: u32,
    /// See the table above.
    pub c: u32,
    /// See the table above.
    pub imm: u32,
    /// Originating block id.
    pub block: u32,
    /// Originating index within that block.
    pub index: u32,
    /// [`InstId`](hyperpred_ir::InstId) of the originating instruction,
    /// carried into trace events so profile consumers never touch the
    /// `Inst` structs on the hot path.
    pub id: u32,
}

/// A decoded typed predicate destination (slot pre-resolved).
#[derive(Debug, Clone, Copy)]
pub struct DPredDst {
    /// Predicate-file slot.
    pub slot: u32,
    /// Define type (Table 1 semantics).
    pub ty: PredType,
}

/// One function's decoded stream plus its operand pools.
#[derive(Debug)]
pub struct DecodedFunc {
    /// The flat op stream; always terminated by [`DCode::End`].
    pub ops: Vec<DOp>,
    /// Constant pool; copied into `regs[reg_count..]` at activation so
    /// immediates read like registers.
    pub pool: Vec<i64>,
    /// General-register slot count (the reference's `reg_count.max(1)`).
    pub reg_count: u32,
    /// Total register-file slots: `reg_count` + pool length.
    pub slot_count: u32,
    /// Predicate slot count (the reference's `pred_count.max(1)`).
    pub pred_count: u32,
    /// Parameter slots, in declaration order.
    pub params: Vec<u32>,
    /// Predicate-destination pool (pred defines index into this).
    pub pdsts: Vec<DPredDst>,
    /// Call-argument slot pool (calls index into this).
    pub call_args: Vec<u32>,
    /// Instruction count per block id — the shape [`DecodedModule::matches`]
    /// validates so `(block, index)` lookups can skip bounds checks.
    pub(crate) block_lens: Vec<u32>,
    /// Block layout this stream was built from.
    pub(crate) layout: Vec<u32>,
}

/// A whole module decoded for execution, function streams indexed by
/// [`FuncId`](hyperpred_ir::FuncId). Owns no references into the module,
/// so it can be cached (`Arc`) alongside a compiled module and shared by
/// every emulator running it.
#[derive(Debug)]
pub struct DecodedModule {
    /// Per-function streams.
    pub funcs: Vec<DecodedFunc>,
}

impl DecodedModule {
    /// Decodes every function of `module`.
    pub fn decode(module: &Module) -> DecodedModule {
        DecodedModule {
            funcs: module.funcs.iter().map(decode_func).collect(),
        }
    }

    /// True when `module` still has the shape this decode was built from:
    /// same function count, and per function the same register/predicate
    /// counts, per-block instruction counts, and layout. The emulator
    /// validates this once per run; it is the safety argument for the
    /// unchecked `(block, index)` instruction fetches in the hot loop.
    pub fn matches(&self, module: &Module) -> bool {
        self.funcs.len() == module.funcs.len()
            && self.funcs.iter().zip(&module.funcs).all(|(d, f)| {
                d.reg_count == f.reg_count.max(1)
                    && d.pred_count == f.pred_count.max(1)
                    && d.block_lens.len() == f.blocks.len()
                    && d.layout.len() == f.layout.len()
                    && d.layout.iter().zip(&f.layout).all(|(&a, b)| a == b.0)
                    && d.block_lens
                        .iter()
                        .zip(&f.blocks)
                        .all(|(&n, b)| n as usize == b.insts.len())
            })
    }
}

/// Interns `v` in the constant pool, returning its pseudo-register slot.
fn const_slot(base: u32, pool: &mut Vec<i64>, map: &mut HashMap<i64, u32>, v: i64) -> u32 {
    base + *map.entry(v).or_insert_with(|| {
        pool.push(v);
        (pool.len() - 1) as u32
    })
}

struct FuncDecoder {
    /// General-register slot count (`reg_count.max(1)`).
    base: u32,
    /// Predicate slot count (`pred_count.max(1)`).
    pmax: u32,
    pool: Vec<i64>,
    pool_map: HashMap<i64, u32>,
    pdsts: Vec<DPredDst>,
    call_args: Vec<u32>,
    /// Stream pc of each block's `EnterBlock`, by block id
    /// ([`TARGET_NOT_LAID`] for blocks outside the layout).
    block_pc: Vec<u32>,
}

impl FuncDecoder {
    /// Slot of `s`, or a malformed-reason code.
    fn slot(&mut self, s: Operand) -> Result<u32, u32> {
        match s {
            Operand::Reg(r) if r.0 < self.base => Ok(r.0),
            Operand::Reg(_) => Err(R_SRC_RANGE),
            Operand::Imm(v) => Ok(const_slot(self.base, &mut self.pool, &mut self.pool_map, v)),
        }
    }

    /// Slot of `srcs[i]`, or a malformed-reason code.
    fn src(&mut self, srcs: &[Operand], i: usize) -> Result<u32, u32> {
        self.slot(*srcs.get(i).ok_or(R_MISSING_SRC)?)
    }
}

fn decode_func(f: &Function) -> DecodedFunc {
    let base = f.reg_count.max(1);
    let pmax = f.pred_count.max(1);

    // Stream layout: [EnterBlock b, insts of b]* then End; a block's pc is
    // where taken branches land so the target's enter_block fires.
    let mut block_pc = vec![TARGET_NOT_LAID; f.blocks.len()];
    let mut pc = 0u32;
    for &bid in &f.layout {
        block_pc[bid.index()] = pc;
        pc += 1 + f.block(bid).insts.len() as u32;
    }

    let mut d = FuncDecoder {
        base,
        pmax,
        pool: Vec::new(),
        pool_map: HashMap::new(),
        pdsts: Vec::new(),
        call_args: Vec::new(),
        block_pc,
    };

    let mut ops: Vec<DOp> = Vec::with_capacity(pc as usize + 2);
    // Parameters out of range cannot be represented as slot writes; bake a
    // faulting prologue (the reference interpreter panics here instead).
    if f.params.iter().any(|p| p.0 >= base) {
        ops.push(DOp {
            code: DCode::BadParams,
            flags: 0,
            nullify: NONE,
            dst: 0,
            a: 0,
            b: 0,
            c: 0,
            imm: 0,
            block: 0,
            index: 0,
            id: 0,
        });
    }
    for &bid in &f.layout {
        ops.push(DOp {
            code: DCode::EnterBlock,
            flags: 0,
            nullify: NONE,
            dst: 0,
            a: 0,
            b: 0,
            c: 0,
            imm: 0,
            block: bid.0,
            index: 0,
            id: 0,
        });
        for (idx, inst) in f.block(bid).insts.iter().enumerate() {
            ops.push(decode_inst(&mut d, bid.0, idx as u32, inst));
        }
    }
    ops.push(DOp {
        code: DCode::End,
        flags: 0,
        nullify: NONE,
        dst: 0,
        a: 0,
        b: 0,
        c: 0,
        imm: 0,
        block: 0,
        index: 0,
        id: 0,
    });
    // The prologue op shifts every pc by one; fix the baked targets up.
    if matches!(ops[0].code, DCode::BadParams) {
        for op in &mut ops {
            if matches!(
                op.code,
                DCode::BrEq
                    | DCode::BrNe
                    | DCode::BrLt
                    | DCode::BrLe
                    | DCode::BrGt
                    | DCode::BrGe
                    | DCode::Jump
            ) && op.imm < TARGET_NOT_LAID
            {
                op.imm += 1;
            }
        }
    }

    DecodedFunc {
        ops,
        slot_count: base + d.pool.len() as u32,
        pool: d.pool,
        reg_count: base,
        pred_count: pmax,
        // Out-of-range params are remapped to slot 0: the stream starts
        // with `BadParams` so the bogus write is never observable.
        params: f
            .params
            .iter()
            .map(|p| if p.0 < base { p.0 } else { 0 })
            .collect(),
        pdsts: d.pdsts,
        call_args: d.call_args,
        block_lens: f.blocks.iter().map(|b| b.insts.len() as u32).collect(),
        layout: f.layout.iter().map(|b| b.0).collect(),
    }
}

fn decode_inst(d: &mut FuncDecoder, block: u32, index: u32, inst: &hyperpred_ir::Inst) -> DOp {
    let mut op = DOp {
        code: DCode::Nop,
        flags: if inst.speculative { F_SPEC } else { 0 }
            | if inst.op.is_branch() { F_BRANCH } else { 0 },
        nullify: NONE,
        dst: NONE,
        a: NONE,
        b: NONE,
        c: NONE,
        imm: 0,
        block,
        index,
        id: inst.id.0,
    };

    // Guard: predicate defines are never nullified (Pin is a truth-table
    // input, carried in `c` below); everything else tests `nullify`.
    let guard = match inst.guard {
        None => NONE,
        Some(p) if p.0 < d.pmax => p.0,
        Some(_) => {
            // The reference panics evaluating an out-of-range guard before
            // it would nullify anything, so this faults unconditionally.
            op.code = DCode::Malformed;
            op.imm = R_GUARD_RANGE;
            return op;
        }
    };
    if !inst.op.is_pred_def() {
        op.nullify = guard;
    }
    // A baked fault must still respect the guard: the reference checks the
    // guard before it ever looks at operands, so a nullified malformed
    // instruction stays silent.
    macro_rules! mal {
        ($reason:expr) => {{
            op.code = DCode::Malformed;
            op.imm = $reason;
            return op;
        }};
    }
    macro_rules! try_slot {
        ($e:expr) => {
            match $e {
                Ok(s) => s,
                Err(r) => mal!(r),
            }
        };
    }
    // Eagerly-checked destination: the reference calls `dst_slot` on the
    // execution path unconditionally for these opcodes.
    macro_rules! eager_dst {
        () => {
            match inst.dst {
                None => mal!(R_MISSING_DST),
                Some(r) if r.0 >= d.base => mal!(R_DST_RANGE),
                Some(r) => r.0,
            }
        };
    }

    match inst.op {
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::AndNot
        | Op::OrNot
        | Op::Shl
        | Op::Shr
        | Op::Sra
        | Op::FAdd
        | Op::FSub
        | Op::FMul
        | Op::FDiv => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.b = try_slot!(d.src(&inst.srcs, 1));
            op.dst = eager_dst!();
            op.code = match inst.op {
                Op::Add => DCode::Add,
                Op::Sub => DCode::Sub,
                Op::Mul => DCode::Mul,
                Op::Div => DCode::Div,
                Op::Rem => DCode::Rem,
                Op::And => DCode::And,
                Op::Or => DCode::Or,
                Op::Xor => DCode::Xor,
                Op::AndNot => DCode::AndNot,
                Op::OrNot => DCode::OrNot,
                Op::Shl => DCode::Shl,
                Op::Shr => DCode::Shr,
                Op::Sra => DCode::Sra,
                Op::FAdd => DCode::FAdd,
                Op::FSub => DCode::FSub,
                Op::FMul => DCode::FMul,
                Op::FDiv => DCode::FDiv,
                _ => unreachable!(),
            };
        }
        Op::Cmp(c) | Op::FCmp(c) => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.b = try_slot!(d.src(&inst.srcs, 1));
            op.dst = eager_dst!();
            let fam = if matches!(inst.op, Op::Cmp(_)) {
                CMP_FAM
            } else {
                FCMP_FAM
            };
            op.code = fam[cmp_idx(c)];
        }
        Op::Mov => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.dst = eager_dst!();
            op.code = DCode::Mov;
        }
        Op::IToF | Op::FToI => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.dst = eager_dst!();
            op.code = if inst.op == Op::IToF {
                DCode::IToF
            } else {
                DCode::FToI
            };
        }
        Op::Ld(w) => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.b = try_slot!(d.src(&inst.srcs, 1));
            op.dst = eager_dst!();
            op.code = if w == MemWidth::Byte {
                DCode::LdByte
            } else {
                DCode::LdWord
            };
        }
        Op::St(w) => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.b = try_slot!(d.src(&inst.srcs, 1));
            op.c = try_slot!(d.src(&inst.srcs, 2));
            op.code = if w == MemWidth::Byte {
                DCode::StByte
            } else {
                DCode::StWord
            };
        }
        Op::Br(_) | Op::Jump => {
            if let Op::Br(c) = inst.op {
                op.a = try_slot!(d.src(&inst.srcs, 0));
                op.b = try_slot!(d.src(&inst.srcs, 1));
                op.code = BR_FAM[cmp_idx(c)];
            } else {
                op.code = DCode::Jump;
            }
            // Missing / un-laid-out targets fault only when taken.
            op.imm = match inst.target {
                None => TARGET_MISSING,
                Some(t) => *d.block_pc.get(t.index()).unwrap_or(&TARGET_NOT_LAID),
            };
        }
        Op::Call => {
            let Some(callee) = inst.callee else {
                mal!(R_UNLINKED_CALL);
            };
            op.a = d.call_args.len() as u32;
            op.b = inst.srcs.len() as u32;
            for i in 0..inst.srcs.len() {
                let s = try_slot!(d.src(&inst.srcs, i));
                d.call_args.push(s);
            }
            // The reference faults a bad `call` destination only after the
            // callee returns; sentinels defer the check the same way.
            op.dst = match inst.dst {
                None => NONE,
                Some(r) if r.0 >= d.base => DST_OOR,
                Some(r) => r.0,
            };
            op.imm = callee.0;
            op.code = DCode::Call;
        }
        Op::Ret => {
            op.a = match inst.srcs.first() {
                None => NONE,
                Some(&s) => try_slot!(d.slot(s)),
            };
            op.code = DCode::Ret;
        }
        Op::Halt => op.code = DCode::Halt,
        Op::PredDef(c) | Op::FPredDef(c) => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.b = try_slot!(d.src(&inst.srcs, 1));
            op.c = guard; // Pin
            if inst.pdsts.iter().any(|pd| pd.reg.0 >= d.pmax) {
                mal!(R_PDST_RANGE);
            }
            op.dst = d.pdsts.len() as u32;
            op.imm = inst.pdsts.len() as u32;
            d.pdsts.extend(inst.pdsts.iter().map(|pd| DPredDst {
                slot: pd.reg.0,
                ty: pd.ty,
            }));
            let fam = if matches!(inst.op, Op::PredDef(_)) {
                PD_FAM
            } else {
                FPD_FAM
            };
            op.code = fam[cmp_idx(c)];
        }
        Op::PredClear => op.code = DCode::PredClear,
        Op::PredSet => op.code = DCode::PredSet,
        Op::Cmov | Op::CmovCom => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.b = try_slot!(d.src(&inst.srcs, 1));
            // Lazily-checked destination: faults only when the move fires.
            op.dst = match inst.dst {
                None => NONE,
                Some(r) if r.0 >= d.base => DST_OOR,
                Some(r) => r.0,
            };
            op.code = if inst.op == Op::Cmov {
                DCode::Cmov
            } else {
                DCode::CmovCom
            };
        }
        Op::Select => {
            op.a = try_slot!(d.src(&inst.srcs, 0));
            op.b = try_slot!(d.src(&inst.srcs, 1));
            op.c = try_slot!(d.src(&inst.srcs, 2));
            op.dst = eager_dst!();
            op.code = DCode::Select;
        }
        Op::Nop => op.code = DCode::Nop,
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpred_ir::{FuncBuilder, Module};

    fn decode_one(b: FuncBuilder) -> (Module, DecodedModule) {
        let mut m = Module::new();
        m.push(b.finish());
        m.link().unwrap();
        let d = DecodedModule::decode(&m);
        (m, d)
    }

    #[test]
    fn stream_shape_and_const_pool() {
        let mut b = FuncBuilder::new("main");
        let x = b.param();
        let y = b.add(x.into(), Operand::Imm(5));
        let z = b.add(y.into(), Operand::Imm(5)); // same imm, same slot
        let w = b.add(z.into(), Operand::Imm(7));
        b.ret(Some(w.into()));
        let (m, d) = decode_one(b);
        let df = &d.funcs[0];
        // EnterBlock + 4 insts + End.
        assert_eq!(df.ops.len(), 6);
        assert_eq!(df.ops[0].code, DCode::EnterBlock);
        assert_eq!(df.ops[5].code, DCode::End);
        // Two distinct immediates interned once each.
        assert_eq!(df.pool, vec![5, 7]);
        assert_eq!(df.slot_count, df.reg_count + 2);
        let five = df.reg_count;
        assert_eq!(df.ops[1].b, five);
        assert_eq!(df.ops[2].b, five);
        assert!(d.matches(&m));
    }

    #[test]
    fn branch_targets_are_enter_block_pcs() {
        let mut b = FuncBuilder::new("main");
        let body = b.block();
        b.jump(body);
        b.switch_to(body);
        b.jump(body);
        let (_, d) = decode_one(b);
        let df = &d.funcs[0];
        // [Enter b0, jump, Enter body, jump, End]
        assert_eq!(df.ops[2].code, DCode::EnterBlock);
        assert_eq!(df.ops[1].imm, 2);
        assert_eq!(df.ops[3].imm, 2);
    }

    #[test]
    fn guard_bakes_nullify_but_not_for_pred_defines() {
        use hyperpred_ir::{CmpOp, PredType};
        let mut b = FuncBuilder::new("main");
        let p = b.fresh_pred();
        let q = b.fresh_pred();
        let x = b.mov(Operand::Imm(1));
        b.guard_last(p);
        b.pred_def(
            CmpOp::Eq,
            &[(q, PredType::U)],
            x.into(),
            Operand::Imm(0),
            Some(p),
        );
        b.ret(None);
        let (_, d) = decode_one(b);
        let mov = &d.funcs[0].ops[1];
        assert_eq!(mov.nullify, 0, "guarded mov tests p0");
        let pdef = &d.funcs[0].ops[2];
        assert_eq!(pdef.code, DCode::PdEq);
        assert_eq!(pdef.nullify, NONE, "pred defines are never nullified");
        assert_eq!(pdef.c, 0, "Pin slot is the guard");
        assert_eq!(pdef.imm, 1);
        assert_eq!(d.funcs[0].pdsts.len(), 1);
    }

    #[test]
    fn missing_dst_bakes_guard_respecting_malformed() {
        let mut b = FuncBuilder::new("main");
        let x = b.add(Operand::Imm(1), Operand::Imm(2));
        b.ret(Some(x.into()));
        let mut m = Module::new();
        let mut f = b.finish();
        f.blocks[0].insts[0].dst = None;
        m.push(f);
        m.link().unwrap();
        let d = DecodedModule::decode(&m);
        let add = &d.funcs[0].ops[1];
        assert_eq!(add.code, DCode::Malformed);
        assert_eq!(
            MALFORMED_REASONS[add.imm as usize],
            "missing destination register"
        );
    }

    #[test]
    fn matches_rejects_reshaped_modules() {
        let mut b = FuncBuilder::new("main");
        b.ret(None);
        let (mut m, d) = decode_one(b);
        assert!(d.matches(&m));
        m.funcs[0].blocks[0]
            .insts
            .push(hyperpred_ir::Inst::new(hyperpred_ir::InstId(99), Op::Nop));
        assert!(!d.matches(&m));
    }
}
