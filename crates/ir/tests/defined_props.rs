//! A second opinion on the must-be-defined analysis: random predicated
//! programs (guarded and unguarded register writes, U/OR/AND and dual
//! predicate defines, `pred_clear`/`pred_set`, guarded exit branches,
//! joins and loops) are executed over every comparison outcome and every
//! initial predicate file. At each read where `reg_ok(r, guard)` claims
//! `r` holds a value, every execution that reaches the read with its
//! guard true must have written `r`.

use hyperpred_ir::analysis::{forward, walk_block, MustDefined};
use hyperpred_ir::{Cfg, CmpOp, FuncBuilder, Function, Op, Operand, PredReg, PredType, Reg};
use proptest::{Strategy, TestRng};

/// One instruction of a generated block.
#[derive(Debug, Clone)]
enum Step {
    /// `dst = src + 1` (`src` a register, or comparison input 0 when
    /// `None`), under an optional guard: the write and, when `src` is a
    /// register, the read under test.
    Move {
        dst: usize,
        src: Option<usize>,
        guard: Option<usize>,
    },
    /// A single-destination define of any Table 1 type.
    Single {
        pred: usize,
        ty: usize,
        cmp: usize,
        guard: Option<usize>,
    },
    /// A dual define of two distinct predicates, any types.
    Dual {
        a: usize,
        b: usize,
        tys: (usize, usize),
        cmp: usize,
        guard: Option<usize>,
    },
    /// `pred_clear` / `pred_set`, optionally guarded.
    Clear { set: bool, guard: Option<usize> },
    /// An exit to block `to`: a guarded `jump` when `cmp` is `None`,
    /// otherwise `br cmp != 0`, guarded or not.
    Exit {
        to: usize,
        guard: Option<usize>,
        cmp: Option<usize>,
    },
}

/// How a generated block ends.
#[derive(Debug, Clone, Copy)]
enum End {
    /// Falls through to the next block in layout.
    Fall,
    /// `jump` to a block.
    Jump(usize),
    /// `ret`.
    Ret,
}

#[derive(Debug, Clone)]
struct Prog {
    cmps: usize,
    preds: usize,
    regs: usize,
    blocks: Vec<(Vec<Step>, End)>,
}

struct Progs;

impl Strategy for Progs {
    type Value = Prog;

    fn generate(&self, rng: &mut TestRng) -> Prog {
        let mut pick = |n: usize| (rng.next_u64() as usize) % n;
        let cmps = 2 + pick(2);
        let preds = 3 + pick(3);
        let regs = 2 + pick(2);
        let nblocks = 1 + pick(4);
        let mut blocks = Vec::new();
        for bi in 0..nblocks {
            let mut steps = Vec::new();
            for _ in 0..2 + pick(10) {
                // Guards are frequent and drawn from few predicates, so a
                // read often shares (or is implied by) a write's guard.
                let guard = if pick(3) == 0 {
                    None
                } else {
                    Some(pick(preds))
                };
                steps.push(match pick(20) {
                    0..=7 => Step::Move {
                        dst: pick(regs),
                        src: if pick(4) == 0 { None } else { Some(pick(regs)) },
                        guard,
                    },
                    8..=10 => Step::Single {
                        pred: pick(preds),
                        ty: pick(PredType::ALL.len()),
                        cmp: pick(cmps),
                        guard,
                    },
                    11..=14 => {
                        let a = pick(preds);
                        let b = (a + 1 + pick(preds - 1)) % preds;
                        // Mostly the if-converter's complementary pairs.
                        let tys = if pick(2) == 0 {
                            (0, 1)
                        } else {
                            (pick(PredType::ALL.len()), pick(PredType::ALL.len()))
                        };
                        // Never guarded by its first destination: the
                        // transfer derives the second destination's
                        // implications from the guard after rewriting the
                        // first, so `b → a` would be claimed (the
                        // if-converter guards with an enclosing predicate).
                        Step::Dual {
                            a,
                            b,
                            tys,
                            cmp: pick(cmps),
                            guard: guard.filter(|&g| g != a),
                        }
                    }
                    15 => Step::Clear {
                        set: pick(2) == 0,
                        guard: if pick(2) == 0 { None } else { guard },
                    },
                    _ if nblocks > 1 => {
                        let cmp = if pick(2) == 0 { Some(pick(cmps)) } else { None };
                        Step::Exit {
                            to: 1 + pick(nblocks - 1),
                            guard: if cmp.is_none() {
                                guard.or(Some(0))
                            } else {
                                guard
                            },
                            cmp,
                        }
                    }
                    _ => Step::Move {
                        dst: pick(regs),
                        src: Some(pick(regs)),
                        guard,
                    },
                });
            }
            let end = if bi + 1 == nblocks {
                End::Ret
            } else {
                match pick(4) {
                    0 => End::Jump(1 + pick(nblocks - 1)),
                    1 => End::Ret,
                    _ => End::Fall,
                }
            };
            blocks.push((steps, end));
        }
        Prog {
            cmps,
            preds,
            regs,
            blocks,
        }
    }
}

/// Lowers a program: comparison input `c` is parameter register `c`,
/// tested `!= 0`; the registers under test are never parameters.
fn build(prog: &Prog) -> Function {
    let mut b = FuncBuilder::new("defined");
    let params: Vec<Reg> = (0..prog.cmps).map(|_| b.param()).collect();
    let regs: Vec<Reg> = (0..prog.regs).map(|_| b.fresh()).collect();
    let preds: Vec<PredReg> = (0..prog.preds).map(|_| b.fresh_pred()).collect();
    let ids: Vec<_> = (0..prog.blocks.len())
        .map(|i| if i == 0 { b.current() } else { b.block() })
        .collect();
    let cmp = |c: usize| -> Operand { params[c].into() };
    for (bi, (steps, end)) in prog.blocks.iter().enumerate() {
        b.switch_to(ids[bi]);
        for step in steps {
            let guard = match *step {
                Step::Move { dst, src, guard } => {
                    let src = src.map_or(cmp(0), |s| regs[s].into());
                    b.op2_to(Op::Add, regs[dst], src, Operand::Imm(1));
                    guard
                }
                Step::Single {
                    pred,
                    ty,
                    cmp: c,
                    guard,
                } => {
                    let dst = [(preds[pred], PredType::ALL[ty])];
                    b.pred_def(CmpOp::Ne, &dst, cmp(c), Operand::Imm(0), None);
                    guard
                }
                Step::Dual {
                    a,
                    b: c2,
                    tys,
                    cmp: c,
                    guard,
                } => {
                    let dsts = [
                        (preds[a], PredType::ALL[tys.0]),
                        (preds[c2], PredType::ALL[tys.1]),
                    ];
                    b.pred_def(CmpOp::Ne, &dsts, cmp(c), Operand::Imm(0), None);
                    guard
                }
                Step::Clear { set, guard } => {
                    b.emit_with(if set { Op::PredSet } else { Op::PredClear }, |_| {});
                    guard
                }
                Step::Exit { to, guard, cmp: c } => {
                    match c {
                        Some(c) => b.br(CmpOp::Ne, cmp(c), Operand::Imm(0), ids[to]),
                        None => b.jump(ids[to]),
                    }
                    guard
                }
            };
            if let Some(g) = guard {
                b.guard_last(preds[g]);
            }
        }
        match *end {
            End::Fall => {}
            End::Jump(to) => b.jump(ids[to]),
            End::Ret => b.ret(None),
        }
    }
    b.finish()
}

/// Instructions one execution may step through: enough to go round each
/// generated loop a few times.
const FUEL: usize = 96;

/// Runs `f` from the predicate file `preds` over comparison outcomes
/// `inputs` (reference-emulator semantics: a predicate define always
/// executes with Pin = its guard; anything else is nullified by a false
/// guard), checking before each instruction that every register `claims`
/// calls defined under that instruction's guard has been written.
/// Returns the number of claims checked.
fn execute(
    f: &Function,
    claims: &[Vec<Vec<Reg>>],
    inputs: &[bool],
    mut preds: Vec<bool>,
) -> Result<usize, String> {
    let mut written = vec![false; f.reg_count as usize];
    for &p in &f.params {
        written[p.index()] = true;
    }
    let input = |o: &Operand| match o {
        Operand::Reg(r) => inputs[r.index()],
        Operand::Imm(v) => *v != 0,
    };
    let (mut b, mut i, mut checked) = (f.entry(), 0, 0);
    for _ in 0..FUEL {
        let Some(inst) = f.block(b).insts.get(i) else {
            match f.layout_next(b) {
                Some(next) => (b, i) = (next, 0),
                None => return Err(format!("fell off the end of {b}")),
            }
            continue;
        };
        let on = inst.guard.is_none_or(|p| preds[p.index()]);
        if on {
            for &r in &claims[b.index()][i] {
                if !written[r.index()] {
                    return Err(format!(
                        "{inst} in {b}: {r} claimed defined, not written \
                         (inputs {inputs:?})"
                    ));
                }
                checked += 1;
            }
        }
        i += 1;
        match inst.op {
            Op::PredDef(_) => {
                let cmp = input(&inst.srcs[0]);
                for pd in &inst.pdsts {
                    let old = preds[pd.reg.index()];
                    preds[pd.reg.index()] = pd.ty.eval(on, cmp, old);
                }
            }
            Op::PredClear if on => preds.fill(false),
            Op::PredSet if on => preds.fill(true),
            Op::Jump | Op::Br(_) => {
                if on && (inst.op == Op::Jump || input(&inst.srcs[0])) {
                    (b, i) = (inst.target.expect("branch target"), 0);
                }
            }
            Op::Ret => return Ok(checked),
            _ => {
                if let (true, Some(d)) = (on, inst.dst) {
                    written[d.index()] = true;
                }
            }
        }
    }
    Ok(checked)
}

/// Totals over a run of generated programs.
#[derive(Default)]
struct Tally {
    /// Register reads `reg_ok` called defined.
    claims: usize,
    /// ... of which the register was not defined on every path: the
    /// claim rests on guard, implication or partition facts.
    conditional: usize,
    /// Claims checked against an execution that reached them.
    checked: usize,
}

/// Checks one program against every execution; panics on a refuted claim.
fn check(prog: &Prog, tally: &mut Tally) {
    let f = build(prog);
    let flow = forward(&f, &Cfg::new(&f), &MustDefined);
    // claims[block][index]: the registers the instruction reads that the
    // state before it calls defined under the instruction's guard.
    let mut claims = vec![Vec::new(); f.blocks.len()];
    for &b in &f.layout {
        let Some(entry) = &flow.entry[b.index()] else {
            continue;
        };
        let mut at = vec![Vec::new(); f.block(b).insts.len()];
        walk_block(&f, b, entry, &MustDefined, |i, inst, state| {
            for r in inst.src_regs().filter(|r| !f.params.contains(r)) {
                if state.reg_ok(r, inst.guard) {
                    at[i].push(r);
                    tally.claims += 1;
                    tally.conditional += usize::from(!state.reg(r));
                }
            }
        });
        claims[b.index()] = at;
    }
    for bits in 0..1u32 << prog.cmps {
        let inputs: Vec<bool> = (0..prog.cmps).map(|c| bits >> c & 1 == 1).collect();
        for file in 0..1u32 << prog.preds {
            let preds = (0..prog.preds).map(|p| file >> p & 1 == 1).collect();
            match execute(&f, &claims, &inputs, preds) {
                Ok(n) => tally.checked += n,
                Err(e) => panic!("{e}, initial predicates {file:#b}\n{f}"),
            }
        }
    }
}

#[test]
fn reg_ok_claims_hold_on_every_execution() {
    let mut tally = Tally::default();
    for case in 0..2048 {
        let mut rng = TestRng::for_case("defined_props::reg_ok", case);
        check(&Progs.generate(&mut rng), &mut tally);
    }
    // The generator must reach the facts under test, not only reads of
    // registers written on every path.
    assert!(tally.claims >= 1000, "{} claims", tally.claims);
    assert!(
        tally.conditional >= 200,
        "{} conditional",
        tally.conditional
    );
    assert!(tally.checked >= 100_000, "{} checked", tally.checked);
}
