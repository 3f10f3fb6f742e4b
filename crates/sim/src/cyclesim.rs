//! Trace-driven timing simulation: an in-order superscalar issue model
//! with register interlocks (scoreboard), BTB-based branch prediction, and
//! optional blocking caches — the paper's simulated machine (§4.1).
//!
//! The functional emulator streams the dynamic instruction stream of
//! *compiler-scheduled* code; this sink issues those instructions into a
//! `k`-wide in-order pipeline:
//!
//! * up to `issue_width` instructions enter per cycle, of which at most
//!   `branches_per_cycle` may be branch-class;
//! * an instruction waits for its source registers (and its guard
//!   predicate — suppression happens at the decode/issue stage, so the
//!   predicate must be ready) but never passes an older instruction
//!   (in-order issue);
//! * correctly predicted taken branches redirect fetch: younger
//!   instructions issue in a later cycle; mispredictions add the penalty;
//! * a data-cache miss blocks issue for the miss penalty (blocking cache);
//!   an instruction-cache miss stalls fetch likewise.
//!
//! Because issue flows continuously across block boundaries, independent
//! work from consecutive loop iterations overlaps exactly as on the real
//! machine — the effect that gives the paper's wide-issue speedups.

use crate::btb::{Btb, BtbConfig};
use crate::cache::{Cache, CacheConfig};
use hyperpred_emu::{DecodedModule, EmuError, Emulator, Event, TraceSink};
use hyperpred_ir::{Module, Op, PredType};
use hyperpred_sched::MachineConfig;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Default cycle budget: far above any real workload (the full-scale
/// suite peaks in the tens of millions of cycles) but finite, so a
/// pathological program aborts instead of hanging a worker forever.
pub const DEFAULT_CYCLE_LIMIT: u64 = 10_000_000_000;

/// A timing-simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The underlying functional emulation failed (trap, fuel, ...).
    Emu(EmuError),
    /// The cycle-budget watchdog fired: simulated time passed
    /// [`SimConfig::max_cycles`] (mirrors the emulator's instruction
    /// fuel, but in cycles, so schedule blowups are bounded too).
    CycleLimit {
        /// The budget that was exceeded.
        limit: u64,
        /// Instructions fetched before the watchdog fired.
        insts: u64,
    },
    /// The wall-clock watchdog fired: real time passed
    /// [`SimConfig::deadline`]. Complements the cycle budget: a cell can
    /// stay within its simulated-cycle budget yet still hold a worker for
    /// too much real time (huge module, slow host), and this bounds that.
    Deadline {
        /// Instructions fetched before the deadline passed.
        insts: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Emu(e) => write!(f, "{e}"),
            SimError::CycleLimit { limit, insts } => write!(
                f,
                "cycle budget of {limit} exhausted after {insts} fetched insts"
            ),
            SimError::Deadline { insts } => write!(
                f,
                "wall-clock deadline exceeded after {insts} fetched insts"
            ),
        }
    }
}

impl Error for SimError {}

impl From<EmuError> for SimError {
    fn from(e: EmuError) -> SimError {
        SimError::Emu(e)
    }
}

/// Memory hierarchy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemoryModel {
    /// Single-cycle memory (the paper's "perfect caches").
    #[default]
    Perfect,
    /// I/D caches with the given geometry.
    Caches(CacheConfig),
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Memory hierarchy.
    pub memory: MemoryModel,
    /// Branch target buffer geometry.
    pub btb: BtbConfig,
    /// Cycles lost per mispredicted branch.
    pub mispredict_penalty: u32,
    /// Watchdog budget: the run aborts with [`SimError::CycleLimit`] once
    /// the simulated clock reaches this many cycles.
    pub max_cycles: u64,
    /// Wall-clock watchdog: the run aborts with [`SimError::Deadline`]
    /// once real time passes this instant. Checked cooperatively every
    /// 1024 fetched instructions, so the overrun is bounded by one check
    /// interval. `None` (the default) disables the deadline.
    pub deadline: Option<std::time::Instant>,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            memory: MemoryModel::Perfect,
            btb: BtbConfig::default(),
            mispredict_penalty: 2,
            max_cycles: DEFAULT_CYCLE_LIMIT,
            deadline: None,
        }
    }
}

/// Results of a timing simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total execution cycles.
    pub cycles: u64,
    /// Fetched instructions (nullified included).
    pub insts: u64,
    /// Instructions nullified by a false guard.
    pub nullified: u64,
    /// Dynamic branches (conditional + jumps, nullified included).
    pub branches: u64,
    /// BTB mispredictions.
    pub mispredicts: u64,
    /// Executed loads.
    pub loads: u64,
    /// Executed stores.
    pub stores: u64,
    /// I-cache misses (0 with perfect memory).
    pub icache_misses: u64,
    /// D-cache (load) misses (0 with perfect memory).
    pub dcache_misses: u64,
    /// Program result (entry function return value).
    pub ret: i64,
}

impl SimStats {
    /// Misprediction rate over dynamic branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }
}

/// Per-static-instruction timing facts, baked once in [`CycleSim::new`]
/// so the per-event hot path never touches the [`Inst`] struct: no
/// `src_regs()` iterator over `Operand` enums, no latency `match` on the
/// opcode, no per-event `func`-relative offset arithmetic. Register and
/// predicate operands are stored as *global* scoreboard slots
/// (`reg_off[f] + r` resolved at build time); the fetch address and the
/// machine latency are baked outright.
///
/// [`Inst`]: hyperpred_ir::Inst
#[derive(Clone, Copy)]
struct InstInfo {
    /// Code-layout fetch address (blocks outside a layout base at 0).
    addr: u64,
    /// Machine latency of this opcode (the `Latencies::of` result).
    lat: u32,
    /// Global destination-register slot, or [`SLOT_NONE`].
    dst: u32,
    /// Global guard-predicate slot, or [`SLOT_NONE`].
    guard: u32,
    /// Start of this instruction's register sources in `src_slots`.
    src_off: u32,
    /// Start of this instruction's predicate destinations in `pdsts`.
    pdst_off: u32,
    /// First two source slots inlined for the [`F_FAST`] path (the
    /// read-only dummy slot when the instruction has fewer sources).
    s0: u32,
    s1: u32,
    nsrcs: u8,
    npdsts: u8,
    flags: u8,
}

/// "No slot" sentinel for [`InstInfo::dst`] / [`InstInfo::guard`].
const SLOT_NONE: u32 = u32::MAX;
/// Branch-class opcode: consumes a branch issue slot.
const F_BRANCH: u8 = 1;
/// Partial register define with a destination: interlocks on `dst`.
const F_PARTIAL: u8 = 2;
/// `pred_clear`/`pred_set`: bumps the whole-file clear epoch.
const F_PREDFILE: u8 = 4;
/// `call`/`ret`/`halt`: redirects fetch when executed.
const F_REDIRECT: u8 = 8;
/// Load / store opcode (mem-addr events charge the data cache).
const F_LD: u8 = 16;
const F_ST: u8 = 32;
/// Eligible for the reduced issue path: unguarded, not a branch/memory/
/// predicate/redirect op, no partial define, at most two register
/// sources. Such an instruction can never be nullified (no guard), never
/// carries `taken`/`mem_addr`, and writes at most one register — its
/// complete timing effect is: interlock on two sources, take one issue
/// slot, post the destination ready time. Baked under perfect memory,
/// where fetch has no timing effect either.
const F_FAST: u8 = 64;
/// [`F_FAST`]'s class under caches (power-of-two lines): the reduced path
/// applies when the fetch reads the I-cache line the previous fetch read.
/// Only fetches touch the direct-mapped I-cache, so that line is still
/// there: the fetch hits, which the fast path counts itself. Any other
/// fetch takes the full path and its lookup.
const F_FAST_LINE: u8 = 128;

/// The in-order issue model as a trace sink.
///
/// # Hot-path layout
///
/// This sink receives one [`Event`] per fetched instruction — hundreds of
/// millions per full-scale sweep — so everything the hot path needs per
/// event is pre-baked in [`CycleSim::new`] into one flat `InstInfo`
/// record per *static* instruction, found by
/// `info[inst_base[block_off[func] + block] + index]`. Every per-event
/// lookup is a dense-array read: no hashing, no allocation, no enum
/// payload matching, no branching on map residency. A whole-file
/// `pred_clear`/`pred_set` bumps a per-function *clear epoch* instead of
/// walking the predicate slots; a slot whose stamp is stale reads as "no
/// pending write".
///
/// # Scoreboard model (per function, not per activation)
///
/// Register and predicate ready-times are keyed by *(function,
/// register)* — by architectural register, not by dynamic activation.
/// Re-entering a function (a call inside a loop, recursion) therefore
/// observes the pending write times of the previous activation. That is
/// the intended model: the simulated machine issues in order with no
/// register renaming, so consecutive activations reuse the same physical
/// registers and a fresh activation's reads and writes genuinely
/// interlock against the previous one's in-flight results, exactly like
/// back-to-back iterations of a loop inside one function. (Clearing the
/// scoreboard at call boundaries would instead model a zero-cost rename
/// of the whole file on every call.) Pinned by the
/// `reentry_scoreboard_is_per_function_not_per_activation` test.
pub struct CycleSim {
    machine: MachineConfig,
    config: SimConfig,
    btb: Btb,
    icache: Option<Cache>,
    dcache: Option<Cache>,
    stats: SimStats,
    /// Cycle currently being filled with issue slots.
    cycle: u64,
    slots: u32,
    branch_slots: u32,
    /// Earliest cycle the next instruction may issue (fetch redirects,
    /// misprediction penalties, blocking-cache stalls).
    fetch_ready: u64,
    /// `addr & line_mask` of the last I-cache fetch (see
    /// [`F_FAST_LINE`]); no fetch address is `u64::MAX`, so nothing
    /// matches before the first fetch.
    fetch_line: u64,
    line_mask: u64,
    /// Baked per-static-instruction timing facts, all functions flat.
    info: Vec<InstInfo>,
    /// Index into `info` of instruction 0 of each block, flat over all
    /// functions: `inst_base[block_off[f] + b]`.
    inst_base: Vec<u32>,
    /// Start of each function's slice of `inst_base`.
    block_off: Vec<usize>,
    /// Global register-source slots, sliced per instruction by
    /// `InstInfo::{src_off, nsrcs}`.
    src_slots: Vec<u32>,
    /// Global predicate-destination slots + types, sliced per instruction
    /// by `InstInfo::{pdst_off, npdsts}`.
    pdsts: Vec<(u32, PredType)>,
    /// Cycle each (function, register) value becomes available, flat by
    /// global slot; 0 = no pending write.
    reg_ready: Vec<u64>,
    /// Cycle each (function, predicate) value becomes available, flat by
    /// global slot — meaningful only while the slot's stamp in
    /// `pred_epoch` matches the function's `clear_epoch`.
    pred_ready: Vec<u64>,
    /// Clear-epoch stamp per predicate slot (see `clear_epoch`).
    pred_epoch: Vec<u64>,
    /// Current clear generation per function; bumped by `pred_clear`/
    /// `pred_set` so stale per-predicate entries die in O(1).
    clear_epoch: Vec<u64>,
    /// Cycle the last `pred_clear`/`pred_set` per function takes effect.
    pred_clear_time: Vec<u64>,
    /// Set once the simulated clock passes the watchdog budget; the
    /// emulator polls it via [`TraceSink::aborted`].
    over_budget: bool,
    /// Set once real time passes [`SimConfig::deadline`]; polled the same
    /// way. Sampled only every 1024 fetched instructions to keep
    /// `Instant::now()` off the per-event hot path.
    past_deadline: bool,
}

impl CycleSim {
    /// Builds a sink for `module`. Instruction addresses follow code
    /// layout: 4 bytes per instruction, functions and blocks in order.
    pub fn new(module: &Module, machine: MachineConfig, config: SimConfig) -> CycleSim {
        let nf = module.funcs.len();
        let mut block_off = Vec::with_capacity(nf);
        let mut reg_off = Vec::with_capacity(nf);
        let mut pred_off = Vec::with_capacity(nf);
        let (mut blocks, mut regs, mut preds) = (0usize, 0usize, 0usize);
        for f in &module.funcs {
            block_off.push(blocks);
            reg_off.push(regs);
            pred_off.push(preds);
            blocks += f.blocks.len();
            regs += f.reg_count as usize;
            preds += f.pred_count as usize;
        }
        let mut block_base = vec![0u64; blocks];
        let mut addr = 0x10000u64; // text base
        for (fi, f) in module.funcs.iter().enumerate() {
            for &b in &f.layout {
                block_base[block_off[fi] + b.0 as usize] = addr;
                addr += 4 * f.block(b).insts.len() as u64;
            }
        }
        let (icache, dcache) = match config.memory {
            MemoryModel::Perfect => (None, None),
            MemoryModel::Caches(c) => (Some(Cache::new(c)), Some(Cache::new(c))),
        };
        // The fast flag for this memory model; the same-line test is a
        // mask, so it needs power-of-two lines.
        let (fast_flag, line_mask) = match config.memory {
            MemoryModel::Perfect => (F_FAST, 0),
            MemoryModel::Caches(c) if c.line.is_power_of_two() => (F_FAST_LINE, !(c.line - 1)),
            MemoryModel::Caches(_) => (0, 0),
        };
        // The two scoreboard dummies past the real register slots: reads
        // of absent fast-path sources hit `rd_dummy` (never written, so
        // always "ready at 0"); writes of absent fast-path destinations
        // land in `wr_dummy` (never read).
        let rd_dummy = regs as u32;
        let wr_dummy = regs as u32 + 1;
        // Bake one InstInfo per static instruction: global scoreboard
        // slots, fetch address, machine latency and classification flags.
        let lat = machine.latency;
        let mut info = Vec::new();
        let mut inst_base = vec![0u32; blocks];
        let mut src_slots = Vec::new();
        let mut pdsts: Vec<(u32, PredType)> = Vec::new();
        for (fi, f) in module.funcs.iter().enumerate() {
            let ro = reg_off[fi] as u32;
            let po = pred_off[fi] as u32;
            for (bi, blk) in f.blocks.iter().enumerate() {
                inst_base[block_off[fi] + bi] = info.len() as u32;
                let base = block_base[block_off[fi] + bi];
                for (k, inst) in blk.insts.iter().enumerate() {
                    let mut flags = 0u8;
                    if MachineConfig::is_branch_class(inst.op) {
                        flags |= F_BRANCH;
                    }
                    if inst.is_partial_reg_def() && inst.dst.is_some() {
                        flags |= F_PARTIAL;
                    }
                    if matches!(inst.op, Op::PredClear | Op::PredSet) {
                        flags |= F_PREDFILE;
                    }
                    if matches!(inst.op, Op::Call | Op::Ret | Op::Halt) {
                        flags |= F_REDIRECT;
                    }
                    if matches!(inst.op, Op::Ld(_)) {
                        flags |= F_LD;
                    }
                    if matches!(inst.op, Op::St(_)) {
                        flags |= F_ST;
                    }
                    let src_off = src_slots.len() as u32;
                    for r in inst.src_regs() {
                        src_slots.push(ro + r.0);
                    }
                    let nsrcs = (src_slots.len() as u32 - src_off) as u8;
                    let pdst_off = pdsts.len() as u32;
                    for pd in &inst.pdsts {
                        pdsts.push((po + pd.reg.0, pd.ty));
                    }
                    let mut dst = inst.dst.map_or(SLOT_NONE, |d| ro + d.0);
                    if fast_flag != 0
                        && flags == 0
                        && inst.guard.is_none()
                        && !inst.is_partial_reg_def()
                        && inst.pdsts.is_empty()
                        && nsrcs <= 2
                    {
                        flags |= fast_flag;
                        if dst == SLOT_NONE {
                            dst = wr_dummy;
                        }
                    }
                    let s = &src_slots[src_off as usize..];
                    info.push(InstInfo {
                        addr: base + 4 * k as u64,
                        lat: lat.of(inst.op),
                        dst,
                        guard: inst.guard.map_or(SLOT_NONE, |g| po + g.0),
                        src_off,
                        pdst_off,
                        s0: s.first().copied().unwrap_or(rd_dummy),
                        s1: s.get(1).copied().unwrap_or(rd_dummy),
                        nsrcs,
                        npdsts: inst.pdsts.len() as u8,
                        flags,
                    });
                }
            }
        }
        CycleSim {
            machine,
            config,
            btb: Btb::new(config.btb),
            icache,
            dcache,
            stats: SimStats::default(),
            cycle: 0,
            slots: machine.issue_width,
            branch_slots: machine.branches_per_cycle,
            fetch_ready: 0,
            fetch_line: u64::MAX,
            line_mask,
            info,
            inst_base,
            block_off,
            src_slots,
            pdsts,
            // +2: the read-only and write-absorber dummy slots.
            reg_ready: vec![0; regs + 2],
            pred_ready: vec![0; preds],
            // Slots start one epoch behind `clear_epoch`, i.e. "absent".
            pred_epoch: vec![0; preds],
            clear_epoch: vec![1; nf],
            pred_clear_time: vec![0; nf],
            over_budget: false,
            past_deadline: false,
        }
    }

    /// Cycle the predicate in global `slot` of function `fk` is readable:
    /// its last define if still live in the current clear epoch, floored
    /// by the last whole-file write's completion time.
    #[inline]
    fn pred_time(&self, fk: usize, slot: usize) -> u64 {
        let defined = if self.pred_epoch[slot] == self.clear_epoch[fk] {
            self.pred_ready[slot]
        } else {
            0
        };
        defined.max(self.pred_clear_time[fk])
    }

    /// For an [`F_FAST_LINE`] fetch: true, counting the I-cache hit, when
    /// it reads the line the previous fetch read.
    #[inline]
    fn same_line_hit(&mut self, addr: u64) -> bool {
        if addr & self.line_mask != self.fetch_line {
            return false;
        }
        if let Some(ic) = &mut self.icache {
            ic.hit();
        }
        true
    }

    #[inline]
    fn advance_to(&mut self, c: u64) {
        if c > self.cycle {
            self.cycle = c;
            self.slots = self.machine.issue_width;
            self.branch_slots = self.machine.branches_per_cycle;
        }
    }

    /// Finalizes accounting and returns the statistics.
    pub fn finish(mut self) -> SimStats {
        self.stats.cycles = self.cycle + 1;
        self.stats.branches = self.btb.branches;
        self.stats.mispredicts = self.btb.mispredicts;
        if let Some(ic) = &self.icache {
            self.stats.icache_misses = ic.misses();
        }
        if let Some(dc) = &self.dcache {
            self.stats.dcache_misses = dc.misses();
        }
        self.stats
    }
}

impl TraceSink for CycleSim {
    fn inst(&mut self, ev: &Event) {
        self.stats.insts += 1;
        let fk = ev.func.0 as usize;
        let ii = self.inst_base[self.block_off[fk] + ev.block.0 as usize] as usize + ev.index;
        let info = self.info[ii];

        // Reduced path for the common case (see [`F_FAST`] and
        // [`F_FAST_LINE`]): the instruction's entire timing effect is two
        // source interlocks, one issue slot, one destination ready time.
        // Bit-identical to the full path below, which for such an
        // instruction does the same things plus many no-op checks.
        if info.flags & F_FAST != 0
            || (info.flags & F_FAST_LINE != 0 && self.same_line_hit(info.addr))
        {
            let earliest = self
                .fetch_ready
                .max(self.reg_ready[info.s0 as usize])
                .max(self.reg_ready[info.s1 as usize]);
            self.advance_to(earliest);
            if self.slots == 0 {
                // After an advance the full width is free, so one step
                // always yields a slot.
                self.advance_to(self.cycle + 1);
            }
            self.slots -= 1;
            self.reg_ready[info.dst as usize] = self.cycle + info.lat as u64;
            if self.cycle >= self.config.max_cycles {
                self.over_budget = true;
            }
            if let Some(deadline) = self.config.deadline {
                if self.stats.insts & 1023 == 0 && std::time::Instant::now() >= deadline {
                    self.past_deadline = true;
                }
            }
            return;
        }

        if ev.nullified {
            self.stats.nullified += 1;
        }

        // --- fetch ------------------------------------------------------
        let addr = info.addr;
        let mut earliest = self.fetch_ready;
        if let Some(ic) = &mut self.icache {
            self.fetch_line = addr & self.line_mask;
            if ic.read(addr) {
                // Fetch stalls while the line fills.
                self.fetch_ready =
                    self.fetch_ready.max(self.cycle).max(earliest) + ic.miss_penalty() as u64;
                earliest = self.fetch_ready;
            }
        }

        // --- register / predicate interlocks ------------------------------
        let so = info.src_off as usize;
        for k in 0..info.nsrcs as usize {
            earliest = earliest.max(self.reg_ready[self.src_slots[so + k] as usize]);
        }
        if info.flags & F_PARTIAL != 0 {
            earliest = earliest.max(self.reg_ready[info.dst as usize]);
        }
        // The guard must be ready at decode/issue.
        if info.guard != SLOT_NONE {
            earliest = earliest.max(self.pred_time(fk, info.guard as usize));
        }
        // OR/AND-type destinations are wired, not read-modify-write: defines
        // to the same predicate may issue together, so no interlock on the
        // destination.

        // --- issue ---------------------------------------------------------
        self.advance_to(earliest);
        let is_branch = info.flags & F_BRANCH != 0;
        loop {
            if self.slots == 0 || (is_branch && self.branch_slots == 0) {
                let next = self.cycle + 1;
                self.advance_to(next);
                continue;
            }
            break;
        }
        self.slots -= 1;
        if is_branch {
            self.branch_slots -= 1;
        }
        let issue = self.cycle;

        // --- execute -------------------------------------------------------
        let lat = info.lat as u64;
        let mut result_lat = lat;
        if let Some(maddr) = ev.mem_addr {
            if info.flags & F_LD != 0 {
                self.stats.loads += 1;
                if let Some(dc) = &mut self.dcache {
                    if dc.read(maddr) {
                        // Blocking cache: issue stalls until the fill.
                        let pen = dc.miss_penalty() as u64;
                        result_lat += pen;
                        self.fetch_ready = self.fetch_ready.max(issue + pen);
                    }
                }
            } else if info.flags & F_ST != 0 {
                self.stats.stores += 1;
                if let Some(dc) = &mut self.dcache {
                    dc.write(maddr);
                }
            }
        }
        if !ev.nullified {
            if info.dst != SLOT_NONE {
                self.reg_ready[info.dst as usize] = issue + result_lat;
            }
            if info.flags & F_PREDFILE != 0 {
                // Writes the whole file; everything becomes (re)available
                // one cycle later. Bumping the epoch retires every
                // per-predicate entry of this function in O(1).
                self.clear_epoch[fk] += 1;
                self.pred_clear_time[fk] = issue + result_lat;
            }
            let po = info.pdst_off as usize;
            for k in 0..info.npdsts as usize {
                let (slot, ty) = self.pdsts[po + k];
                let t = issue + lat;
                let ready = match ty {
                    PredType::U | PredType::UBar => t,
                    // Wired-OR/AND: the value settles once the *latest*
                    // contributing define executes.
                    _ => self.pred_time(fk, slot as usize).max(t),
                };
                self.pred_ready[slot as usize] = ready;
                self.pred_epoch[slot as usize] = self.clear_epoch[fk];
            }
        }

        // --- control flow ----------------------------------------------------
        if let Some(taken) = ev.taken {
            let mispredicted = self.btb.predict(addr, taken);
            if mispredicted {
                self.fetch_ready = self
                    .fetch_ready
                    .max(issue + 1 + self.config.mispredict_penalty as u64);
            } else if taken {
                // Correctly predicted taken branch still redirects fetch:
                // younger instructions start next cycle.
                self.fetch_ready = self.fetch_ready.max(issue + 1);
            }
        } else if info.flags & F_REDIRECT != 0 && !ev.nullified {
            // Calls and returns redirect fetch like taken branches.
            self.fetch_ready = self.fetch_ready.max(issue + 1);
        }

        // --- watchdog --------------------------------------------------------
        if self.cycle >= self.config.max_cycles {
            self.over_budget = true;
        }
        if let Some(deadline) = self.config.deadline {
            // Sample the clock once per 1024 events: cheap enough for the
            // hot path, tight enough that an overrun is bounded.
            if self.stats.insts & 1023 == 0 && std::time::Instant::now() >= deadline {
                self.past_deadline = true;
            }
        }
    }

    fn aborted(&self) -> bool {
        self.over_budget || self.past_deadline
    }
}

/// Runs `entry(args...)` of the **scheduled** module under the timing
/// model, returning cycle counts and statistics.
///
/// # Errors
/// Propagates emulator failures (traps, fuel) and reports
/// [`SimError::CycleLimit`] when the simulated clock exceeds
/// [`SimConfig::max_cycles`].
pub fn simulate(
    module: &Module,
    entry: &str,
    args: &[i64],
    machine: MachineConfig,
    config: SimConfig,
) -> Result<SimStats, SimError> {
    let sink = CycleSim::new(module, machine, config);
    let emu = Emulator::new(module);
    drive(emu, sink, entry, args, config)
}

/// [`simulate`] with a pre-decoded module: the emulator reuses `decoded`
/// instead of decoding `module` on entry. `decoded` must come from
/// [`DecodedModule::decode`] on this `module` (a stale decode is detected
/// and silently replaced, costing one re-decode). This is the entry point
/// the experiment matrix uses — each compiled module is decoded once and
/// simulated under many machine configurations.
pub fn simulate_decoded(
    module: &Module,
    decoded: &Arc<DecodedModule>,
    entry: &str,
    args: &[i64],
    machine: MachineConfig,
    config: SimConfig,
) -> Result<SimStats, SimError> {
    let sink = CycleSim::new(module, machine, config);
    let emu = Emulator::with_decoded(module, Arc::clone(decoded));
    drive(emu, sink, entry, args, config)
}

fn drive(
    mut emu: Emulator<'_>,
    mut sink: CycleSim,
    entry: &str,
    args: &[i64],
    config: SimConfig,
) -> Result<SimStats, SimError> {
    match emu.run(entry, args, &mut sink) {
        Ok(out) => {
            let mut stats = sink.finish();
            stats.ret = out.ret;
            Ok(stats)
        }
        Err(EmuError::SinkAbort { ctx }) => {
            debug_assert!(
                sink.over_budget || sink.past_deadline,
                "only the watchdogs abort this sink"
            );
            if sink.over_budget {
                Err(SimError::CycleLimit {
                    limit: config.max_cycles,
                    insts: ctx.fetched,
                })
            } else {
                Err(SimError::Deadline { insts: ctx.fetched })
            }
        }
        Err(e) => Err(SimError::Emu(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpred_ir::{CmpOp, FuncBuilder, MemWidth, Operand};
    use hyperpred_sched::schedule_module;

    fn simple_loop_module(n: i64) -> Module {
        // for i in 0..n { sum += i }
        let mut b = FuncBuilder::new("main");
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
        b.br(CmpOp::Lt, i.into(), Operand::Imm(n), body);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.push(b.finish());
        m.link().unwrap();
        m.verify().unwrap();
        m
    }

    #[test]
    fn wider_issue_takes_fewer_cycles() {
        let mut m1 = simple_loop_module(1000);
        schedule_module(&mut m1, &MachineConfig::one_issue()).unwrap();
        let s1 = simulate(
            &m1,
            "main",
            &[],
            MachineConfig::one_issue(),
            SimConfig::default(),
        )
        .unwrap();

        let mut m8 = simple_loop_module(1000);
        schedule_module(&mut m8, &MachineConfig::new(8, 1)).unwrap();
        let s8 = simulate(
            &m8,
            "main",
            &[],
            MachineConfig::new(8, 1),
            SimConfig::default(),
        )
        .unwrap();

        assert_eq!(s1.ret, s8.ret);
        assert!(
            s8.cycles < s1.cycles,
            "8-issue must beat 1-issue: {} !< {}",
            s8.cycles,
            s1.cycles
        );
        assert!(s8.ipc() > s1.ipc());
        // 1-issue can never exceed IPC 1.
        assert!(s1.ipc() <= 1.0 + 1e-9);
    }

    #[test]
    fn expired_deadline_aborts_with_deadline_error() {
        // An already-passed deadline trips at the first cooperative check
        // (event 1024), long before this 6000-event loop finishes.
        let mut m = simple_loop_module(1000);
        schedule_module(&mut m, &MachineConfig::one_issue()).unwrap();
        let cfg = SimConfig {
            deadline: Some(std::time::Instant::now()),
            ..SimConfig::default()
        };
        let err = simulate(&m, "main", &[], MachineConfig::one_issue(), cfg).unwrap_err();
        match err {
            SimError::Deadline { insts } => assert!(insts >= 1000, "tripped too early: {insts}"),
            other => panic!("expected Deadline, got {other}"),
        }
    }

    #[test]
    fn cycle_limit_wins_over_deadline_when_both_fire() {
        // Both watchdogs are armed and expired; the cycle budget is the
        // one reported (it is checked first and is deterministic).
        let mut m = simple_loop_module(1000);
        schedule_module(&mut m, &MachineConfig::one_issue()).unwrap();
        let cfg = SimConfig {
            max_cycles: 10,
            deadline: Some(std::time::Instant::now()),
            ..SimConfig::default()
        };
        let err = simulate(&m, "main", &[], MachineConfig::one_issue(), cfg).unwrap_err();
        assert!(
            matches!(err, SimError::CycleLimit { limit: 10, .. }),
            "expected CycleLimit, got {err}"
        );
    }

    #[test]
    fn one_issue_charges_at_least_one_cycle_per_inst() {
        let mut m = simple_loop_module(100);
        schedule_module(&mut m, &MachineConfig::one_issue()).unwrap();
        let s = simulate(
            &m,
            "main",
            &[],
            MachineConfig::one_issue(),
            SimConfig::default(),
        )
        .unwrap();
        assert!(s.cycles >= s.insts);
    }

    #[test]
    fn biased_loop_branch_mispredicts_rarely() {
        let mut m = simple_loop_module(500);
        schedule_module(&mut m, &MachineConfig::new(4, 1)).unwrap();
        let s = simulate(
            &m,
            "main",
            &[],
            MachineConfig::new(4, 1),
            SimConfig::default(),
        )
        .unwrap();
        assert!(s.branches >= 500);
        assert!(
            s.mispredicts <= 4,
            "biased branch: {} mispredicts",
            s.mispredicts
        );
    }

    #[test]
    fn perfect_memory_has_no_cache_misses() {
        let mut m = simple_loop_module(10);
        schedule_module(&mut m, &MachineConfig::new(4, 1)).unwrap();
        let s = simulate(
            &m,
            "main",
            &[],
            MachineConfig::new(4, 1),
            SimConfig::default(),
        )
        .unwrap();
        assert_eq!(s.icache_misses, 0);
        assert_eq!(s.dcache_misses, 0);
    }

    #[test]
    fn real_caches_charge_misses() {
        // Stream over a large array: every 8th load misses (64B lines, 8B
        // elements).
        let mut b = FuncBuilder::new("main");
        let base = 0x2000i64;
        let i = b.mov(Operand::Imm(0));
        let acc = b.mov(Operand::Imm(0));
        let body = b.block();
        let exit = b.block();
        b.jump(body);
        b.switch_to(body);
        let off = b.op2(hyperpred_ir::Op::Shl, i.into(), Operand::Imm(3));
        let v = b.load(MemWidth::Word, Operand::Imm(base), off.into());
        let acc2 = b.add(acc.into(), v.into());
        b.mov_to(acc, acc2.into());
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        b.br(CmpOp::Lt, i.into(), Operand::Imm(4096), body);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.add_global("arr", 0x8000, vec![]);
        m.push(b.finish());
        m.link().unwrap();
        schedule_module(&mut m, &MachineConfig::new(4, 1)).unwrap();

        let machine = MachineConfig::new(4, 1);
        let perfect = simulate(&m, "main", &[], machine, SimConfig::default()).unwrap();
        let cached = simulate(
            &m,
            "main",
            &[],
            machine,
            SimConfig {
                memory: MemoryModel::Caches(CacheConfig::default()),
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(perfect.ret, cached.ret);
        assert_eq!(cached.dcache_misses, 4096 / 8, "one miss per 64B line");
        assert!(cached.cycles > perfect.cycles);
    }

    /// Simulates `m` with the fast flags baked as usual and with them
    /// stripped (every event on the full path): each run's stats and,
    /// under caches, its I-cache (hits, misses).
    fn fast_and_full(m: &Module, memory: MemoryModel) -> [(SimStats, Option<(u64, u64)>); 2] {
        let machine = MachineConfig::new(4, 1);
        let config = SimConfig {
            memory,
            ..SimConfig::default()
        };
        [true, false].map(|fast| {
            let mut sink = CycleSim::new(m, machine, config);
            if !fast {
                for i in &mut sink.info {
                    i.flags &= !(F_FAST | F_FAST_LINE);
                }
            }
            let out = Emulator::new(m).run("main", &[], &mut sink).unwrap();
            let icache = sink.icache.as_ref().map(|c| (c.hits(), c.misses()));
            let mut stats = sink.finish();
            stats.ret = out.ret;
            (stats, icache)
        })
    }

    #[test]
    fn fast_path_is_bit_identical_under_every_memory_model() {
        // A tiny I-cache too, so fetches conflict and miss mid-run, and
        // one whose lines are no power of two (no fast path at all).
        let cache = |size, line| CacheConfig {
            size,
            line,
            miss_penalty: 5,
        };
        let memories = [
            MemoryModel::Perfect,
            MemoryModel::Caches(CacheConfig::default()),
            MemoryModel::Caches(cache(256, 16)),
            MemoryModel::Caches(cache(384, 24)),
        ];
        let machine = MachineConfig::new(4, 1);
        for mut m in [
            simple_loop_module(300),
            double_call_module(true),
            guarded_branch_module(50),
        ] {
            schedule_module(&mut m, &machine).unwrap();
            for memory in memories {
                let [fast, full] = fast_and_full(&m, memory);
                assert_eq!(fast, full, "{memory:?}");
                if let Some((hits, misses)) = fast.1 {
                    assert_eq!(hits + misses, fast.0.insts, "every fetch is counted");
                }
            }
        }
    }

    #[test]
    fn mispredict_penalty_scales_cycles() {
        // Alternating branch: mispredicts heavily under a 2-bit counter.
        let mut b = FuncBuilder::new("main");
        let i = b.mov(Operand::Imm(0));
        let body = b.block();
        let t = b.block();
        let join = b.block();
        let exit = b.block();
        b.jump(body);
        b.switch_to(body);
        let r = b.op2(hyperpred_ir::Op::And, i.into(), Operand::Imm(1));
        b.br(CmpOp::Eq, r.into(), Operand::Imm(0), t);
        b.jump(join);
        b.switch_to(t);
        b.jump(join);
        b.switch_to(join);
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        b.br(CmpOp::Lt, i.into(), Operand::Imm(512), body);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(i.into()));
        let mut m = Module::new();
        m.push(b.finish());
        m.link().unwrap();
        schedule_module(&mut m, &MachineConfig::new(4, 1)).unwrap();
        let machine = MachineConfig::new(4, 1);
        let cheap = simulate(&m, "main", &[], machine, SimConfig::default()).unwrap();
        let dear = simulate(
            &m,
            "main",
            &[],
            machine,
            SimConfig {
                mispredict_penalty: 10,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(cheap.mispredicts > 100, "alternating branch mispredicts");
        assert!(dear.cycles > cheap.cycles + 8 * 100);
    }

    #[test]
    fn nullified_instructions_are_counted_as_fetched() {
        use hyperpred_ir::PredType;
        let mut b = FuncBuilder::new("main");
        let x = b.param();
        let p = b.fresh_pred();
        b.pred_def(
            CmpOp::Ne,
            &[(p, PredType::U)],
            x.into(),
            Operand::Imm(0),
            None,
        );
        let out = b.mov(Operand::Imm(5));
        b.mov_to(out, Operand::Imm(7));
        b.guard_last(p);
        b.ret(Some(out.into()));
        let mut m = Module::new();
        m.push(b.finish());
        m.link().unwrap();
        schedule_module(&mut m, &MachineConfig::new(4, 1)).unwrap();
        let s = simulate(
            &m,
            "main",
            &[0],
            MachineConfig::new(4, 1),
            SimConfig::default(),
        )
        .unwrap();
        assert_eq!(s.ret, 5);
        assert_eq!(s.nullified, 1);
        assert_eq!(s.insts, 4);
    }

    #[test]
    fn guarded_use_waits_for_predicate_define() {
        use hyperpred_ir::PredType;
        // pred define at cycle c -> guarded instruction cannot issue in the
        // same cycle (decode-stage suppression).
        let mut b = FuncBuilder::new("main");
        let x = b.param();
        let p = b.fresh_pred();
        b.pred_def(
            CmpOp::Ne,
            &[(p, PredType::U)],
            x.into(),
            Operand::Imm(0),
            None,
        );
        let out = b.mov(Operand::Imm(1));
        b.mov_to(out, Operand::Imm(2));
        b.guard_last(p);
        b.ret(Some(out.into()));
        let mut m = Module::new();
        m.push(b.finish());
        m.link().unwrap();
        schedule_module(&mut m, &MachineConfig::new(8, 1)).unwrap();
        let s = simulate(
            &m,
            "main",
            &[1],
            MachineConfig::new(8, 1),
            SimConfig::default(),
        )
        .unwrap();
        // define @0 (+mov @0), guarded mov @1, ret @2 -> 3 cycles.
        assert!(s.cycles >= 3, "{}", s.cycles);
    }

    #[test]
    fn iterations_overlap_on_wide_issue() {
        // A loop whose body has a long independent tail: consecutive
        // iterations must overlap, pushing IPC above what a single
        // iteration's critical path allows.
        let mut b = FuncBuilder::new("main");
        let i = b.mov(Operand::Imm(0));
        let acc = b.mov(Operand::Imm(0));
        let body = b.block();
        let exit = b.block();
        b.jump(body);
        b.switch_to(body);
        // 6 independent adds off `i`.
        let mut parts = Vec::new();
        for k in 0..6 {
            parts.push(b.add(i.into(), Operand::Imm(k)));
        }
        let mut sum = parts[0];
        for p in &parts[1..] {
            sum = b.add(sum.into(), (*p).into());
        }
        let acc2 = b.add(acc.into(), sum.into());
        b.mov_to(acc, acc2.into());
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        b.br(CmpOp::Lt, i.into(), Operand::Imm(256), body);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(acc.into()));
        let mut m = Module::new();
        m.push(b.finish());
        m.link().unwrap();
        schedule_module(&mut m, &MachineConfig::new(8, 2)).unwrap();
        let s = simulate(
            &m,
            "main",
            &[],
            MachineConfig::new(8, 2),
            SimConfig::default(),
        )
        .unwrap();
        // In-order issue lets independent work fill the slots while the
        // reduction chain drains; the whole 15-instruction body completes
        // in ~7 cycles per iteration.
        assert!(
            s.ipc() > 1.8,
            "wide issue should overlap independent work: ipc {:.2}",
            s.ipc()
        );
    }

    /// Builds `main` calling a div-tailed helper twice. With `shared`,
    /// both calls target one helper function; otherwise each call gets
    /// its own identical copy. The helper *reads* its second parameter
    /// register first and *writes* it last with a 10-cycle divide that no
    /// later instruction of the same activation consumes — so any stall
    /// on that register is strictly cross-activation.
    fn double_call_module(shared: bool) -> Module {
        let helper = |name: &str| {
            let mut b = FuncBuilder::new(name);
            let x = b.param();
            let d = b.param();
            let z = b.add(d.into(), Operand::Imm(1));
            b.op2_to(hyperpred_ir::Op::Div, d, x.into(), Operand::Imm(3));
            b.ret(Some(z.into()));
            b.finish()
        };
        let mut b = FuncBuilder::new("main");
        let a = b.call("slow", vec![Operand::Imm(9), Operand::Imm(0)]);
        let second = if shared { "slow" } else { "slow_copy" };
        let c = b.call(second, vec![Operand::Imm(9), Operand::Imm(0)]);
        let s = b.add(a.into(), c.into());
        b.ret(Some(s.into()));
        let mut m = Module::new();
        m.push(b.finish());
        m.push(helper("slow"));
        if !shared {
            m.push(helper("slow_copy"));
        }
        m.link().unwrap();
        m.verify().unwrap();
        m
    }

    /// Pins the scoreboard keying documented on [`CycleSim`]: ready times
    /// are per (function, architectural register), NOT per dynamic
    /// activation. Re-entering a function observes the previous
    /// activation's in-flight writes — the machine has no renaming, so a
    /// second call really does interlock on the first call's divide still
    /// in the pipe. Calling two *identical but distinct* functions (same
    /// dynamic instruction sequence, disjoint scoreboard slices) must be
    /// faster than calling one function twice.
    #[test]
    fn reentry_scoreboard_is_per_function_not_per_activation() {
        let machine = MachineConfig::one_issue();
        let mut same = double_call_module(true);
        schedule_module(&mut same, &machine).unwrap();
        let mut distinct = double_call_module(false);
        schedule_module(&mut distinct, &machine).unwrap();
        let s_same = simulate(&same, "main", &[], machine, SimConfig::default()).unwrap();
        let s_distinct = simulate(&distinct, "main", &[], machine, SimConfig::default()).unwrap();
        assert_eq!(s_same.ret, s_distinct.ret, "identical computation");
        assert_eq!(s_same.insts, s_distinct.insts, "identical dynamic stream");
        assert!(
            s_same.cycles > s_distinct.cycles,
            "re-entry must interlock on the prior activation's pending div: \
             {} !> {} cycles",
            s_same.cycles,
            s_distinct.cycles
        );
        // The stall is the div latency minus the instructions between the
        // write and the re-entrant read (ret/call/add) — several cycles.
        assert!(
            s_same.cycles - s_distinct.cycles >= 4,
            "expected a multi-cycle cross-activation stall, got {}",
            s_same.cycles - s_distinct.cycles
        );
    }

    /// A branch whose guard is sometimes false: i even -> executed and
    /// taken, i odd -> nullified (fetched, suppressed, reported as
    /// fall-through per the trace contract).
    fn guarded_branch_module(n: i64) -> Module {
        use hyperpred_ir::PredType;
        let mut b = FuncBuilder::new("main");
        let i = b.mov(Operand::Imm(0));
        let body = b.block();
        let t = b.block();
        let join = b.block();
        let exit = b.block();
        b.jump(body);
        b.switch_to(body);
        let r = b.op2(hyperpred_ir::Op::And, i.into(), Operand::Imm(1));
        let p = b.fresh_pred();
        b.pred_def(
            CmpOp::Eq,
            &[(p, PredType::U)],
            r.into(),
            Operand::Imm(0),
            None,
        );
        // Condition is constant-true: every *executed* instance is taken.
        b.br(CmpOp::Eq, Operand::Imm(0), Operand::Imm(0), t);
        b.guard_last(p);
        b.jump(join);
        b.switch_to(t);
        b.jump(join);
        b.switch_to(join);
        let i2 = b.add(i.into(), Operand::Imm(1));
        b.mov_to(i, i2.into());
        b.br(CmpOp::Lt, i.into(), Operand::Imm(n), body);
        b.jump(exit);
        b.switch_to(exit);
        b.ret(Some(i.into()));
        let mut m = Module::new();
        m.push(b.finish());
        m.link().unwrap();
        m.verify().unwrap();
        m
    }

    /// Pins how nullified predicated branches meet the branch machinery:
    /// a nullified branch is still a fetched branch-class instruction, so
    /// it counts toward [`SimStats::branches`] and it consults AND
    /// updates the BTB with its architectural outcome `taken = false`
    /// (the trace contract reports nullified branches as fall-through).
    /// This matches the paper's Table 2 accounting — fetched predicated
    /// instructions occupy fetch/issue (and branch-unit) resources whether
    /// or not they execute — and models a sequencer that resolves every
    /// fetched branch.
    ///
    /// The observable: an execute-taken / nullified alternation looks
    /// like a taken/not-taken alternation to the 2-bit counter, which is
    /// its worst case (~every instance mispredicts). If nullified
    /// branches skipped the BTB, the branch would look always-taken and
    /// mispredict about once.
    #[test]
    fn nullified_branches_count_and_train_the_btb() {
        let n = 200u64;
        let mut m = guarded_branch_module(n as i64);
        schedule_module(&mut m, &MachineConfig::new(4, 1)).unwrap();
        let s = simulate(
            &m,
            "main",
            &[],
            MachineConfig::new(4, 1),
            SimConfig::default(),
        )
        .unwrap();
        // Odd i: guard false, branch fetched but suppressed.
        assert_eq!(s.nullified, n / 2);
        // Every fetch of the guarded branch counts, nullified included:
        // n guarded-branch fetches + n backedge fetches at minimum.
        assert!(
            s.branches >= 2 * n,
            "nullified branch fetches must count toward branches: {}",
            s.branches
        );
        // The nullified instances update the counter as not-taken, so the
        // alternation defeats the 2-bit hysteresis on the guarded branch.
        assert!(
            s.mispredicts >= n * 3 / 4,
            "nullified branches must train the BTB toward not-taken \
             (expected ~{n} mispredicts on the alternating branch, got {})",
            s.mispredicts
        );
    }

    #[test]
    fn cycle_watchdog_stops_runaway_runs() {
        // A long loop under a tiny cycle budget must abort with CycleLimit
        // promptly (within one instruction of the budget) instead of
        // simulating to completion.
        let mut m = simple_loop_module(1_000_000);
        schedule_module(&mut m, &MachineConfig::one_issue()).unwrap();
        let err = simulate(
            &m,
            "main",
            &[],
            MachineConfig::one_issue(),
            SimConfig {
                max_cycles: 5_000,
                ..SimConfig::default()
            },
        )
        .unwrap_err();
        match err {
            SimError::CycleLimit { limit, insts } => {
                assert_eq!(limit, 5_000);
                assert!(insts < 10_000, "aborted promptly, not at {insts} insts");
            }
            other => panic!("expected CycleLimit, got {other}"),
        }
        // The same program under the default budget completes.
        let mut m2 = simple_loop_module(1000);
        schedule_module(&mut m2, &MachineConfig::one_issue()).unwrap();
        simulate(
            &m2,
            "main",
            &[],
            MachineConfig::one_issue(),
            SimConfig::default(),
        )
        .expect("default budget is generous");
    }
}
