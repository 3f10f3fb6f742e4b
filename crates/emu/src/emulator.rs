//! The IR interpreter: pre-decoded, direct-dispatch execution.
//!
//! [`Emulator::run`] does not walk [`Inst`] structs. The module is decoded
//! once (see [`crate::decode`]) into flat per-function op streams, and the
//! hot loop dispatches on a dense discriminant with all operands resolved
//! to register-file slots. Trace events still carry the original `&Inst`,
//! so every [`TraceSink`] (profiler, cycle simulator, dynamic stats) sees
//! a stream bit-identical to the struct-walking reference interpreter
//! ([`crate::reference::ReferenceEmulator`]).
//!
//! Error context is *lazy*: the hot loop never touches strings. On the
//! cold error path the original instruction is looked up via the decoded
//! op's `(block, index)` provenance and rendered then.

use crate::decode::{
    DCode, DOp, DecodedFunc, DecodedModule, DST_OOR, F_BRANCH, F_SPEC, MALFORMED_REASONS, NONE,
    TARGET_MISSING, TARGET_NOT_LAID,
};
use crate::memory::Memory;
use crate::trace::{Event, TraceSink};
use hyperpred_ir::{BlockId, FuncId, Function, Inst, InstId, MemWidth, Module};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Default instruction budget; guards against non-terminating test inputs.
pub const DEFAULT_FUEL: u64 = 2_000_000_000;
/// Maximum call depth.
pub const MAX_DEPTH: usize = 8192;

/// Where an [`EmuError`] happened: enough context to reproduce the trap
/// from a failure-report line alone.
///
/// Constructed only on cold error paths — building one renders the
/// faulting instruction to a `String`, which must never happen per
/// fetched instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmuContext {
    /// The executing function's name.
    pub func: String,
    /// Rendered current instruction.
    pub inst: String,
    /// Instructions fetched before the failure (this run).
    pub fetched: u64,
}

impl EmuContext {
    #[cold]
    pub(crate) fn new(func: &str, inst: impl ToString, fetched: u64) -> EmuContext {
        EmuContext {
            func: func.to_string(),
            inst: inst.to_string(),
            fetched,
        }
    }
}

impl fmt::Display for EmuContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in {} after {} fetched insts, at `{}`",
            self.func, self.fetched, self.inst
        )
    }
}

/// An execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// Non-speculative memory access to an invalid address.
    Trap {
        /// Where it happened.
        ctx: EmuContext,
        /// The bad address.
        addr: u64,
    },
    /// Non-speculative integer or float division by zero.
    DivByZero {
        /// Where it happened.
        ctx: EmuContext,
    },
    /// The instruction budget was exhausted.
    OutOfFuel {
        /// Where it happened.
        ctx: EmuContext,
        /// The budget that ran out.
        fuel: u64,
    },
    /// Call stack exceeded [`MAX_DEPTH`].
    CallDepth {
        /// Where it happened (the `call` instruction).
        ctx: EmuContext,
    },
    /// Structurally invalid instruction reached the interpreter (the
    /// verifier should reject these; this is the typed backstop so a bad
    /// module errors instead of panicking a worker).
    Malformed {
        /// Where it happened.
        ctx: EmuContext,
        /// What was wrong.
        reason: &'static str,
    },
    /// The trace sink asked the run to stop (see
    /// [`TraceSink::aborted`]); used by cycle
    /// watchdogs in the timing simulator.
    SinkAbort {
        /// Where it happened.
        ctx: EmuContext,
    },
    /// The requested entry function does not exist.
    NoFunc(String),
    /// A global's initializer does not fit the simulated address space
    /// (see [`Memory::poison`](crate::Memory::poison)); the module is
    /// malformed at the data-segment level, before any instruction runs.
    BadGlobal(crate::memory::GlobalError),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Trap { ctx, addr } => {
                write!(f, "memory trap at {addr:#x} {ctx}")
            }
            EmuError::DivByZero { ctx } => {
                write!(f, "division by zero {ctx}")
            }
            EmuError::OutOfFuel { ctx, fuel } => {
                write!(f, "instruction budget of {fuel} exhausted {ctx}")
            }
            EmuError::CallDepth { ctx } => {
                write!(f, "call stack overflow (depth {MAX_DEPTH}) {ctx}")
            }
            EmuError::Malformed { ctx, reason } => {
                write!(f, "malformed instruction ({reason}) {ctx}")
            }
            EmuError::SinkAbort { ctx } => {
                write!(f, "trace sink aborted the run {ctx}")
            }
            EmuError::NoFunc(n) => write!(f, "no function named {n}"),
            EmuError::BadGlobal(g) => write!(f, "malformed data segment: {g}"),
        }
    }
}

impl Error for EmuError {}

/// Builds a [`EmuError::Malformed`] for the current instruction.
#[cold]
pub(crate) fn malformed(func: &str, inst: &Inst, fetched: u64, reason: &'static str) -> EmuError {
    EmuError::Malformed {
        ctx: EmuContext::new(func, inst, fetched),
        reason,
    }
}

/// Checked destination-register slot: a missing or out-of-range `dst` is a
/// typed error, not an `unwrap` panic. (Reference-interpreter path only;
/// the decoded stream bakes these checks at decode time.)
pub(crate) fn dst_slot<'r>(
    regs: &'r mut [i64],
    func: &str,
    inst: &Inst,
    fetched: u64,
) -> Result<&'r mut i64, EmuError> {
    let d = inst
        .dst
        .ok_or_else(|| malformed(func, inst, fetched, "missing destination register"))?;
    regs.get_mut(d.index())
        .ok_or_else(|| malformed(func, inst, fetched, "destination register out of range"))
}

/// Result of a successful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Value returned by the entry function (0 if it returned none).
    pub ret: i64,
    /// Total fetched instructions.
    pub fetched: u64,
}

pub(crate) enum Flow {
    Ret(i64),
    Halt,
}

/// Reconstructs error context from a decoded op's provenance. Fully
/// bounds-checked: error paths must stay panic-free even for ops whose
/// provenance is synthetic.
#[cold]
#[inline(never)]
fn op_ctx(f: &Function, op: &DOp, fetched: u64) -> EmuContext {
    let rendered = f
        .blocks
        .get(op.block as usize)
        .and_then(|b| b.insts.get(op.index as usize))
        .map_or_else(|| "<unknown>".to_string(), |i| i.to_string());
    EmuContext {
        func: f.name.clone(),
        inst: rendered,
        fetched,
    }
}

#[cold]
#[inline(never)]
fn fuel_err(f: &Function, op: &DOp, fetched: u64, fuel: u64) -> EmuError {
    EmuError::OutOfFuel {
        ctx: op_ctx(f, op, fetched),
        fuel,
    }
}

#[cold]
#[inline(never)]
fn abort_err(f: &Function, op: &DOp, fetched: u64) -> EmuError {
    EmuError::SinkAbort {
        ctx: op_ctx(f, op, fetched),
    }
}

#[cold]
#[inline(never)]
fn trap_err(f: &Function, op: &DOp, fetched: u64, addr: u64) -> EmuError {
    EmuError::Trap {
        ctx: op_ctx(f, op, fetched),
        addr,
    }
}

#[cold]
#[inline(never)]
fn div_err(f: &Function, op: &DOp, fetched: u64) -> EmuError {
    EmuError::DivByZero {
        ctx: op_ctx(f, op, fetched),
    }
}

#[cold]
#[inline(never)]
fn depth_err(f: &Function, op: &DOp, fetched: u64) -> EmuError {
    EmuError::CallDepth {
        ctx: op_ctx(f, op, fetched),
    }
}

#[cold]
#[inline(never)]
fn mal_err(f: &Function, op: &DOp, fetched: u64, reason: &'static str) -> EmuError {
    EmuError::Malformed {
        ctx: op_ctx(f, op, fetched),
        reason,
    }
}

#[cold]
#[inline(never)]
fn lazy_dst_err(f: &Function, op: &DOp, fetched: u64) -> EmuError {
    let reason = if op.dst == NONE {
        "missing destination register"
    } else {
        "destination register out of range"
    };
    mal_err(f, op, fetched, reason)
}

#[cold]
#[inline(never)]
fn target_err(f: &Function, op: &DOp, fetched: u64) -> EmuError {
    let reason = if op.imm == TARGET_MISSING {
        "branch without target"
    } else {
        "branch target not in layout"
    };
    mal_err(f, op, fetched, reason)
}

#[cold]
#[inline(never)]
fn end_err(f: &Function, fetched: u64) -> EmuError {
    EmuError::Malformed {
        ctx: EmuContext {
            func: f.name.clone(),
            inst: "<end of function>".to_string(),
            fetched,
        },
        reason: "control fell off the end of the function",
    }
}

/// Interprets a [`Module`], streaming the dynamic trace to a
/// [`TraceSink`].
///
/// The module is pre-decoded into flat op streams on first use; pass a
/// cached decode via [`Emulator::with_decoded`] to share that work across
/// runs (the matrix engine caches one decode per compiled module).
///
/// # Example
///
/// ```
/// use hyperpred_ir::{FuncBuilder, Module, Operand};
/// use hyperpred_emu::{Emulator, NullSink};
///
/// let mut module = Module::new();
/// let mut b = FuncBuilder::new("main");
/// let x = b.param();
/// let y = b.add(x.into(), Operand::Imm(5));
/// b.ret(Some(y.into()));
/// module.push(b.finish());
/// module.link().unwrap();
///
/// let mut emu = Emulator::new(&module);
/// let out = emu.run("main", &[37], &mut NullSink).unwrap();
/// assert_eq!(out.ret, 42);
/// ```
#[derive(Debug)]
pub struct Emulator<'m> {
    module: &'m Module,
    /// Simulated memory; inspect after a run for output checks.
    pub mem: Memory,
    fuel: u64,
    fetched: u64,
    decoded: Option<Arc<DecodedModule>>,
}

impl<'m> Emulator<'m> {
    /// Creates an emulator with fresh memory for `module`.
    pub fn new(module: &'m Module) -> Emulator<'m> {
        Emulator {
            module,
            mem: Memory::new(module),
            fuel: DEFAULT_FUEL,
            fetched: 0,
            decoded: None,
        }
    }

    /// Creates an emulator reusing an existing decode of `module`, so
    /// repeated short runs (profiling, matrix cells) skip re-decoding.
    ///
    /// If `decoded` does not match the module's current shape it is
    /// discarded and the module is re-decoded on first run.
    pub fn with_decoded(module: &'m Module, decoded: Arc<DecodedModule>) -> Emulator<'m> {
        let mut emu = Emulator::new(module);
        emu.decoded = Some(decoded);
        emu
    }

    /// Overrides the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Emulator<'m> {
        self.fuel = fuel;
        self
    }

    /// Runs `func(args...)`, streaming events to `sink`.
    ///
    /// # Errors
    /// Fails on memory traps, division by zero (non-speculative), fuel
    /// exhaustion, call overflow, or an unknown function name.
    pub fn run<S: TraceSink>(
        &mut self,
        func: &str,
        args: &[i64],
        sink: &mut S,
    ) -> Result<RunOutcome, EmuError> {
        let fid = self
            .module
            .func_by_name(func)
            .ok_or_else(|| EmuError::NoFunc(func.to_string()))?;
        if let Some(p) = self.mem.poison() {
            return Err(EmuError::BadGlobal(p.clone()));
        }
        // The shape check is the once-per-run safety argument for the
        // unchecked (block, index) instruction fetches in the hot loop: a
        // stale or foreign decode is silently replaced, never trusted.
        let decoded = match &self.decoded {
            Some(d) if d.matches(self.module) => Arc::clone(d),
            _ => {
                let d = Arc::new(DecodedModule::decode(self.module));
                self.decoded = Some(Arc::clone(&d));
                d
            }
        };
        self.fetched = 0;
        let flow = self.exec(fid, args, sink, 0, &decoded)?;
        let ret = match flow {
            Flow::Ret(v) => v,
            Flow::Halt => 0,
        };
        Ok(RunOutcome {
            ret,
            fetched: self.fetched,
        })
    }

    fn exec<S: TraceSink>(
        &mut self,
        fid: FuncId,
        args: &[i64],
        sink: &mut S,
        depth: usize,
        decoded: &DecodedModule,
    ) -> Result<Flow, EmuError> {
        let module = self.module;
        let f: &'m Function = module.func(fid);
        let df: &DecodedFunc = &decoded.funcs[fid.index()];
        debug_assert_eq!(args.len(), f.params.len(), "arity checked by verifier");

        // Activation: registers, then the constant pool in the slots past
        // `reg_count` so immediates read like registers, then parameters.
        let mut regs = vec![0i64; df.slot_count as usize];
        regs[df.reg_count as usize..].copy_from_slice(&df.pool);
        let mut preds = vec![false; df.pred_count as usize];
        for (&slot, &v) in df.params.iter().zip(args) {
            regs[slot as usize] = v;
        }

        let ops: &[DOp] = &df.ops;
        // SAFETY (for every `get_unchecked` below): decode guarantees all
        // register slots < slot_count, all predicate slots < pred_count,
        // all pool ranges in bounds, every stream terminated by `End`, and
        // every baked branch target < ops.len(). `run` re-validated that
        // the module still has the decoded shape, so the `(block, index)`
        // provenance carried for cold error paths stays in bounds.
        macro_rules! rd {
            ($s:expr) => {
                unsafe { *regs.get_unchecked($s as usize) }
            };
        }
        macro_rules! wr {
            ($s:expr, $v:expr) => {{
                let v = $v;
                unsafe { *regs.get_unchecked_mut($s as usize) = v }
            }};
        }
        macro_rules! frd {
            ($s:expr) => {
                f64::from_bits(rd!($s) as u64)
            };
        }

        // Hoisted out of the fetch loop: for non-auditing sinks the
        // constant false folds the whole predicate-event branch away.
        let audits_preds = sink.audits_preds();

        let mut pc = 0usize;
        loop {
            let op = unsafe { ops.get_unchecked(pc) };

            // Pseudo-ops are not fetched instructions: no fuel, no events.
            if (op.code as u8) <= DCode::BadParams as u8 {
                match op.code {
                    DCode::EnterBlock => {
                        sink.enter_block(fid, BlockId(op.block));
                        pc += 1;
                        continue;
                    }
                    DCode::End => return Err(end_err(f, self.fetched)),
                    _ => {
                        return Err(EmuError::Malformed {
                            ctx: EmuContext {
                                func: f.name.clone(),
                                inst: "<params>".to_string(),
                                fetched: self.fetched,
                            },
                            reason: "parameter register out of range",
                        })
                    }
                }
            }

            if self.fetched >= self.fuel {
                return Err(fuel_err(f, op, self.fetched, self.fuel));
            }
            if sink.aborted() {
                return Err(abort_err(f, op, self.fetched));
            }
            self.fetched += 1;

            if op.nullify != NONE && !unsafe { *preds.get_unchecked(op.nullify as usize) } {
                sink.inst(&Event {
                    func: fid,
                    block: BlockId(op.block),
                    index: op.index as usize,
                    id: InstId(op.id),
                    code: op.code,
                    nullified: true,
                    taken: if op.flags & F_BRANCH != 0 {
                        Some(false)
                    } else {
                        None
                    },
                    mem_addr: None,
                });
                pc += 1;
                continue;
            }

            macro_rules! pdef {
                ($cmp:expr) => {{
                    let cmp = $cmp;
                    let pin = op.c == NONE || unsafe { *preds.get_unchecked(op.c as usize) };
                    let lo = op.dst as usize;
                    for pd in unsafe { df.pdsts.get_unchecked(lo..lo + op.imm as usize) } {
                        let slot = pd.slot as usize;
                        let old = unsafe { *preds.get_unchecked(slot) };
                        unsafe { *preds.get_unchecked_mut(slot) = pd.ty.eval(pin, cmp, old) };
                    }
                }};
            }

            let mut taken = None;
            let mut mem_addr = None;
            match op.code {
                DCode::Add => wr!(op.dst, rd!(op.a).wrapping_add(rd!(op.b))),
                DCode::Sub => wr!(op.dst, rd!(op.a).wrapping_sub(rd!(op.b))),
                DCode::Mul => wr!(op.dst, rd!(op.a).wrapping_mul(rd!(op.b))),
                DCode::And => wr!(op.dst, rd!(op.a) & rd!(op.b)),
                DCode::Or => wr!(op.dst, rd!(op.a) | rd!(op.b)),
                DCode::Xor => wr!(op.dst, rd!(op.a) ^ rd!(op.b)),
                DCode::AndNot => wr!(op.dst, rd!(op.a) & !rd!(op.b)),
                DCode::OrNot => wr!(op.dst, rd!(op.a) | !rd!(op.b)),
                DCode::Shl => wr!(op.dst, rd!(op.a).wrapping_shl(rd!(op.b) as u32 & 63)),
                DCode::Shr => wr!(
                    op.dst,
                    ((rd!(op.a) as u64).wrapping_shr(rd!(op.b) as u32 & 63)) as i64
                ),
                DCode::Sra => wr!(op.dst, rd!(op.a).wrapping_shr(rd!(op.b) as u32 & 63)),
                DCode::Div | DCode::Rem => {
                    let b = rd!(op.b);
                    let r = if b == 0 {
                        if op.flags & F_SPEC != 0 {
                            0
                        } else {
                            return Err(div_err(f, op, self.fetched));
                        }
                    } else if op.code == DCode::Div {
                        rd!(op.a).wrapping_div(b)
                    } else {
                        rd!(op.a).wrapping_rem(b)
                    };
                    wr!(op.dst, r);
                }
                DCode::CmpEq => wr!(op.dst, (rd!(op.a) == rd!(op.b)) as i64),
                DCode::CmpNe => wr!(op.dst, (rd!(op.a) != rd!(op.b)) as i64),
                DCode::CmpLt => wr!(op.dst, (rd!(op.a) < rd!(op.b)) as i64),
                DCode::CmpLe => wr!(op.dst, (rd!(op.a) <= rd!(op.b)) as i64),
                DCode::CmpGt => wr!(op.dst, (rd!(op.a) > rd!(op.b)) as i64),
                DCode::CmpGe => wr!(op.dst, (rd!(op.a) >= rd!(op.b)) as i64),
                DCode::Mov => wr!(op.dst, rd!(op.a)),
                DCode::FAdd => wr!(op.dst, (frd!(op.a) + frd!(op.b)).to_bits() as i64),
                DCode::FSub => wr!(op.dst, (frd!(op.a) - frd!(op.b)).to_bits() as i64),
                DCode::FMul => wr!(op.dst, (frd!(op.a) * frd!(op.b)).to_bits() as i64),
                DCode::FDiv => {
                    let b = frd!(op.b);
                    let r = if b == 0.0 {
                        if op.flags & F_SPEC != 0 {
                            0.0
                        } else {
                            return Err(div_err(f, op, self.fetched));
                        }
                    } else {
                        frd!(op.a) / b
                    };
                    wr!(op.dst, r.to_bits() as i64);
                }
                DCode::FCmpEq => wr!(op.dst, (frd!(op.a) == frd!(op.b)) as i64),
                DCode::FCmpNe => wr!(op.dst, (frd!(op.a) != frd!(op.b)) as i64),
                DCode::FCmpLt => wr!(op.dst, (frd!(op.a) < frd!(op.b)) as i64),
                DCode::FCmpLe => wr!(op.dst, (frd!(op.a) <= frd!(op.b)) as i64),
                DCode::FCmpGt => wr!(op.dst, (frd!(op.a) > frd!(op.b)) as i64),
                DCode::FCmpGe => wr!(op.dst, (frd!(op.a) >= frd!(op.b)) as i64),
                DCode::IToF => wr!(op.dst, (rd!(op.a) as f64).to_bits() as i64),
                DCode::FToI => wr!(op.dst, frd!(op.a) as i64),
                DCode::LdByte | DCode::LdWord => {
                    let addr = rd!(op.a).wrapping_add(rd!(op.b)) as u64;
                    mem_addr = Some(addr);
                    let w = if op.code == DCode::LdByte {
                        MemWidth::Byte
                    } else {
                        MemWidth::Word
                    };
                    match self.mem.load(addr, w, op.flags & F_SPEC != 0) {
                        Ok(v) => wr!(op.dst, v),
                        Err(t) => return Err(trap_err(f, op, self.fetched, t.addr)),
                    }
                }
                DCode::StByte | DCode::StWord => {
                    let addr = rd!(op.a).wrapping_add(rd!(op.b)) as u64;
                    mem_addr = Some(addr);
                    let w = if op.code == DCode::StByte {
                        MemWidth::Byte
                    } else {
                        MemWidth::Word
                    };
                    if let Err(t) = self.mem.store(addr, w, rd!(op.c), op.flags & F_SPEC != 0) {
                        return Err(trap_err(f, op, self.fetched, t.addr));
                    }
                }
                DCode::BrEq => taken = Some(rd!(op.a) == rd!(op.b)),
                DCode::BrNe => taken = Some(rd!(op.a) != rd!(op.b)),
                DCode::BrLt => taken = Some(rd!(op.a) < rd!(op.b)),
                DCode::BrLe => taken = Some(rd!(op.a) <= rd!(op.b)),
                DCode::BrGt => taken = Some(rd!(op.a) > rd!(op.b)),
                DCode::BrGe => taken = Some(rd!(op.a) >= rd!(op.b)),
                DCode::Jump => taken = Some(true),
                DCode::Call => {
                    if depth + 1 >= MAX_DEPTH {
                        return Err(depth_err(f, op, self.fetched));
                    }
                    let lo = op.a as usize;
                    let argv: Vec<i64> = df.call_args[lo..lo + op.b as usize]
                        .iter()
                        .map(|&s| rd!(s))
                        .collect();
                    sink.inst(&Event {
                        func: fid,
                        block: BlockId(op.block),
                        index: op.index as usize,
                        id: InstId(op.id),
                        code: op.code,
                        nullified: false,
                        taken: None,
                        mem_addr: None,
                    });
                    match self.exec(FuncId(op.imm), &argv, sink, depth + 1, decoded)? {
                        Flow::Ret(v) => {
                            if op.dst >= DST_OOR {
                                return Err(lazy_dst_err(f, op, self.fetched));
                            }
                            wr!(op.dst, v);
                        }
                        Flow::Halt => return Ok(Flow::Halt),
                    }
                    // Re-establish block context for the trace consumer:
                    // the callee's events interleaved; the sim treats a
                    // call as a block boundary.
                    sink.enter_block(fid, BlockId(op.block));
                    pc += 1;
                    continue;
                }
                DCode::Ret => {
                    let v = if op.a == NONE { 0 } else { rd!(op.a) };
                    sink.inst(&Event {
                        func: fid,
                        block: BlockId(op.block),
                        index: op.index as usize,
                        id: InstId(op.id),
                        code: op.code,
                        nullified: false,
                        taken: None,
                        mem_addr: None,
                    });
                    return Ok(Flow::Ret(v));
                }
                DCode::Halt => {
                    sink.inst(&Event {
                        func: fid,
                        block: BlockId(op.block),
                        index: op.index as usize,
                        id: InstId(op.id),
                        code: op.code,
                        nullified: false,
                        taken: None,
                        mem_addr: None,
                    });
                    return Ok(Flow::Halt);
                }
                DCode::PdEq => pdef!(rd!(op.a) == rd!(op.b)),
                DCode::PdNe => pdef!(rd!(op.a) != rd!(op.b)),
                DCode::PdLt => pdef!(rd!(op.a) < rd!(op.b)),
                DCode::PdLe => pdef!(rd!(op.a) <= rd!(op.b)),
                DCode::PdGt => pdef!(rd!(op.a) > rd!(op.b)),
                DCode::PdGe => pdef!(rd!(op.a) >= rd!(op.b)),
                DCode::FPdEq => pdef!(frd!(op.a) == frd!(op.b)),
                DCode::FPdNe => pdef!(frd!(op.a) != frd!(op.b)),
                DCode::FPdLt => pdef!(frd!(op.a) < frd!(op.b)),
                DCode::FPdLe => pdef!(frd!(op.a) <= frd!(op.b)),
                DCode::FPdGt => pdef!(frd!(op.a) > frd!(op.b)),
                DCode::FPdGe => pdef!(frd!(op.a) >= frd!(op.b)),
                DCode::PredClear => preds.fill(false),
                DCode::PredSet => preds.fill(true),
                DCode::Cmov | DCode::CmovCom => {
                    let cond = rd!(op.b) != 0;
                    if (op.code == DCode::Cmov) == cond {
                        if op.dst >= DST_OOR {
                            return Err(lazy_dst_err(f, op, self.fetched));
                        }
                        wr!(op.dst, rd!(op.a));
                    }
                }
                DCode::Select => wr!(op.dst, if rd!(op.c) != 0 { rd!(op.a) } else { rd!(op.b) }),
                DCode::Nop => {}
                DCode::Malformed => {
                    return Err(mal_err(
                        f,
                        op,
                        self.fetched,
                        MALFORMED_REASONS[op.imm as usize],
                    ))
                }
                DCode::EnterBlock | DCode::End | DCode::BadParams => unreachable!(),
            }

            sink.inst(&Event {
                func: fid,
                block: BlockId(op.block),
                index: op.index as usize,
                id: InstId(op.id),
                code: op.code,
                nullified: false,
                taken,
                mem_addr,
            });

            if audits_preds
                && matches!(
                    op.code,
                    DCode::PdEq
                        | DCode::PdNe
                        | DCode::PdLt
                        | DCode::PdLe
                        | DCode::PdGt
                        | DCode::PdGe
                        | DCode::FPdEq
                        | DCode::FPdNe
                        | DCode::FPdLt
                        | DCode::FPdLe
                        | DCode::FPdGt
                        | DCode::FPdGe
                        | DCode::PredClear
                        | DCode::PredSet
                )
            {
                sink.pred_write(fid, BlockId(op.block), op.index as usize, &preds);
            }

            if taken == Some(true) {
                if op.imm >= TARGET_NOT_LAID {
                    return Err(target_err(f, op, self.fetched));
                }
                pc = op.imm as usize;
                continue;
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{DynStats, NullSink};
    use hyperpred_ir::Operand;
    use hyperpred_ir::{CmpOp, MemWidth, Op};
    use hyperpred_ir::{FuncBuilder, PredType};

    fn module_of(funcs: Vec<hyperpred_ir::Function>) -> Module {
        let mut m = Module::new();
        for f in funcs {
            m.push(f);
        }
        m.link().unwrap();
        m.verify().unwrap();
        m
    }

    #[test]
    fn arithmetic_and_return() {
        let mut b = FuncBuilder::new("main");
        let x = b.param();
        let y = b.mul(x.into(), Operand::Imm(3));
        let z = b.sub(y.into(), Operand::Imm(1));
        b.ret(Some(z.into()));
        let m = module_of(vec![b.finish()]);
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[5], &mut NullSink).unwrap().ret, 14);
    }

    #[test]
    fn loop_and_branch() {
        // sum 0..n
        let mut b = FuncBuilder::new("main");
        let n = b.param();
        let i = b.mov(Operand::Imm(0));
        let acc = b.mov(Operand::Imm(0));
        let body = b.block();
        let done = b.block();
        b.jump(body);
        b.switch_to(body);
        let acc2 = b.add(acc.into(), i.into());
        b.mov_to(acc, acc2.into());
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        b.br(CmpOp::Lt, i.into(), n.into(), body);
        b.jump(done);
        b.switch_to(done);
        b.ret(Some(acc.into()));
        let m = module_of(vec![b.finish()]);
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[10], &mut NullSink).unwrap().ret, 45);
    }

    #[test]
    fn calls_pass_args_and_return() {
        let mut callee = FuncBuilder::new("double");
        let x = callee.param();
        let y = callee.add(x.into(), x.into());
        callee.ret(Some(y.into()));

        let mut main = FuncBuilder::new("main");
        let a = main.param();
        let r = main.call("double", vec![a.into()]);
        let r2 = main.call("double", vec![r.into()]);
        main.ret(Some(r2.into()));
        let m = module_of(vec![main.finish(), callee.finish()]);
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[3], &mut NullSink).unwrap().ret, 12);
    }

    #[test]
    fn guard_nullifies() {
        let mut b = FuncBuilder::new("main");
        let x = b.param();
        let p = b.fresh_pred();
        let q = b.fresh_pred();
        // p = (x == 0), q = !(x == 0)
        b.pred_def(
            CmpOp::Eq,
            &[(p, PredType::U), (q, PredType::UBar)],
            x.into(),
            Operand::Imm(0),
            None,
        );
        let out = b.mov(Operand::Imm(0));
        b.mov_to(out, Operand::Imm(100));
        b.guard_last(p);
        b.mov_to(out, Operand::Imm(200));
        b.guard_last(q);
        b.ret(Some(out.into()));
        let m = module_of(vec![b.finish()]);
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[0], &mut NullSink).unwrap().ret, 100);
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[7], &mut NullSink).unwrap().ret, 200);
    }

    #[test]
    fn pred_def_with_false_pin_writes_zero_to_u_type() {
        let mut b = FuncBuilder::new("main");
        let pin = b.fresh_pred();
        let u = b.fresh_pred();
        // pin stays false (never set); u starts... set whole file first.
        b.emit_with(Op::PredSet, |_| {});
        // now all preds are 1, including u. pred_eq u<U>, 0, 0 (pin=... ) —
        // we need pin false: clear then set only u via define.
        b.pred_clear();
        // u = 1 via unguarded define (0 == 0).
        b.pred_def(
            CmpOp::Eq,
            &[(u, PredType::U)],
            Operand::Imm(0),
            Operand::Imm(0),
            None,
        );
        // now define u again with a false Pin: must WRITE 0 (not leave 1).
        b.pred_def(
            CmpOp::Eq,
            &[(u, PredType::U)],
            Operand::Imm(0),
            Operand::Imm(0),
            Some(pin),
        );
        let out = b.mov(Operand::Imm(55));
        b.mov_to(out, Operand::Imm(77));
        b.guard_last(u);
        b.ret(Some(out.into()));
        let m = module_of(vec![b.finish()]);
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[], &mut NullSink).unwrap().ret, 55);
    }

    #[test]
    fn or_type_accumulates() {
        let mut b = FuncBuilder::new("main");
        let x = b.param();
        let y = b.param();
        let p = b.fresh_pred();
        b.pred_clear();
        b.pred_def(
            CmpOp::Eq,
            &[(p, PredType::Or)],
            x.into(),
            Operand::Imm(0),
            None,
        );
        b.pred_def(
            CmpOp::Eq,
            &[(p, PredType::Or)],
            y.into(),
            Operand::Imm(0),
            None,
        );
        let out = b.mov(Operand::Imm(0));
        b.mov_to(out, Operand::Imm(1));
        b.guard_last(p);
        b.ret(Some(out.into()));
        let m = module_of(vec![b.finish()]);
        for (x, y, want) in [(0, 5, 1), (5, 0, 1), (5, 5, 0), (0, 0, 1)] {
            let mut emu = Emulator::new(&m);
            assert_eq!(emu.run("main", &[x, y], &mut NullSink).unwrap().ret, want);
        }
    }

    #[test]
    fn cmov_semantics() {
        let mut b = FuncBuilder::new("main");
        let c = b.param();
        let out = b.mov(Operand::Imm(1));
        b.cmov(out, Operand::Imm(2), c.into());
        let out2 = b.mov(Operand::Imm(3));
        b.cmov_com(out2, Operand::Imm(4), c.into());
        let s = b.select(out.into(), out2.into(), c.into());
        b.ret(Some(s.into()));
        let m = module_of(vec![b.finish()]);
        let mut emu = Emulator::new(&m);
        // c=1: out=2, out2=3, select -> out = 2
        assert_eq!(emu.run("main", &[1], &mut NullSink).unwrap().ret, 2);
        let mut emu = Emulator::new(&m);
        // c=0: out=1, out2=4, select -> out2 = 4
        assert_eq!(emu.run("main", &[0], &mut NullSink).unwrap().ret, 4);
    }

    #[test]
    fn silent_load_of_bad_address_is_zero() {
        let mut b = FuncBuilder::new("main");
        let v = b.load(MemWidth::Word, Operand::Imm(0), Operand::Imm(0));
        b.ret(Some(v.into()));
        let mut f = b.finish();
        // Non-speculative: trap.
        let m = module_of(vec![f.clone()]);
        let mut emu = Emulator::new(&m);
        assert!(matches!(
            emu.run("main", &[], &mut NullSink),
            Err(EmuError::Trap { .. })
        ));
        // Speculative (silent): 0.
        f.blocks[0].insts[0].speculative = true;
        let m = module_of(vec![f]);
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[], &mut NullSink).unwrap().ret, 0);
    }

    #[test]
    fn fuel_limits_execution() {
        let mut b = FuncBuilder::new("main");
        let l = b.block();
        b.jump(l);
        b.switch_to(l);
        b.jump(l);
        let m = module_of(vec![b.finish()]);
        let mut emu = Emulator::new(&m).with_fuel(1000);
        match emu.run("main", &[], &mut NullSink) {
            Err(EmuError::OutOfFuel { ctx, fuel }) => {
                assert_eq!(fuel, 1000);
                assert_eq!(ctx.fetched, 1000);
                assert_eq!(ctx.func, "main");
            }
            other => panic!("expected OutOfFuel, got {other:?}"),
        }
    }

    #[test]
    fn errors_carry_reproduction_context() {
        // A trap's Display alone must identify function, instruction, and
        // fetch position.
        let mut b = FuncBuilder::new("main");
        let v = b.load(MemWidth::Word, Operand::Imm(0), Operand::Imm(0));
        b.ret(Some(v.into()));
        let m = module_of(vec![b.finish()]);
        let mut emu = Emulator::new(&m);
        let err = emu.run("main", &[], &mut NullSink).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("main"), "{msg}");
        assert!(msg.contains("fetched insts"), "{msg}");
        assert!(msg.contains("ld"), "instruction op missing: {msg}");
    }

    #[test]
    fn missing_dst_is_typed_error_not_panic() {
        // Hand-build an `add` with no destination; the interpreter must
        // return Malformed instead of unwrapping.
        let mut b = FuncBuilder::new("main");
        let x = b.add(Operand::Imm(1), Operand::Imm(2));
        b.ret(Some(x.into()));
        let mut f = b.finish();
        f.blocks[0].insts[0].dst = None;
        let mut m = Module::new();
        m.push(f);
        m.link().unwrap();
        let mut emu = Emulator::new(&m);
        assert!(matches!(
            emu.run("main", &[], &mut NullSink),
            Err(EmuError::Malformed { .. })
        ));
    }

    #[test]
    fn float_round_trip() {
        let m = {
            let mut b = FuncBuilder::new("main");
            let x = b.param();
            let xf = b.fresh();
            b.emit_with(Op::IToF, |i| {
                i.dst = Some(xf);
                i.srcs = vec![x.into()];
            });
            let half = b.op2(Op::FMul, xf.into(), Operand::fimm(0.5));
            let out = b.fresh();
            b.emit_with(Op::FToI, |i| {
                i.dst = Some(out);
                i.srcs = vec![half.into()];
            });
            b.ret(Some(out.into()));
            module_of(vec![b.finish()])
        };
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[9], &mut NullSink).unwrap().ret, 4);
    }

    #[test]
    fn dyn_stats_counts() {
        let mut b = FuncBuilder::new("main");
        let n = b.param();
        let body = b.block();
        let done = b.block();
        let i = b.mov(Operand::Imm(0));
        b.jump(body);
        b.switch_to(body);
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        b.br(CmpOp::Lt, i.into(), n.into(), body);
        b.jump(done);
        b.switch_to(done);
        b.ret(None);
        let m = module_of(vec![b.finish()]);
        let mut stats = DynStats::new();
        let mut emu = Emulator::new(&m);
        emu.run("main", &[4], &mut stats).unwrap();
        assert_eq!(stats.cond_branches, 4);
        assert_eq!(stats.taken, 3 + 2); // 3 backedges + jump body + jump done
        assert!(stats.insts >= 12);
    }

    #[test]
    fn store_and_load_globals() {
        let mut m = Module::new();
        let addr = m.add_global("buf", 64, vec![]);
        let mut b = FuncBuilder::new("main");
        b.store(
            MemWidth::Word,
            Operand::Imm(addr as i64),
            Operand::Imm(8),
            Operand::Imm(777),
        );
        let v = b.load(MemWidth::Word, Operand::Imm(addr as i64), Operand::Imm(8));
        b.ret(Some(v.into()));
        m.push(b.finish());
        m.link().unwrap();
        let mut emu = Emulator::new(&m);
        assert_eq!(emu.run("main", &[], &mut NullSink).unwrap().ret, 777);
    }

    #[test]
    fn shared_decode_is_reused_and_stale_decode_is_replaced() {
        let mut b = FuncBuilder::new("main");
        let x = b.param();
        let y = b.add(x.into(), Operand::Imm(1));
        b.ret(Some(y.into()));
        let m = module_of(vec![b.finish()]);
        let decoded = Arc::new(DecodedModule::decode(&m));
        let mut emu = Emulator::with_decoded(&m, Arc::clone(&decoded));
        assert_eq!(emu.run("main", &[41], &mut NullSink).unwrap().ret, 42);

        // A decode of a *different* module must be rejected, not trusted.
        let mut b2 = FuncBuilder::new("main");
        let p = b2.param();
        let q = b2.mul(p.into(), Operand::Imm(10));
        let q2 = b2.mul(q.into(), Operand::Imm(10));
        b2.ret(Some(q2.into()));
        let m2 = module_of(vec![b2.finish()]);
        let mut emu2 = Emulator::with_decoded(&m2, decoded);
        assert_eq!(emu2.run("main", &[1], &mut NullSink).unwrap().ret, 100);
    }
}
