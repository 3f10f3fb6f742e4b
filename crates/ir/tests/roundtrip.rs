//! Property tests: printing and parsing the IR is a fixpoint for randomly
//! built functions, and parsing any other text is a typed error, never a
//! panic.

use hyperpred_ir::{parse_function, CmpOp, FuncBuilder, MemWidth, Op, Operand, PredType};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_function(seed: u64) -> hyperpred_ir::Function {
    let mut r = StdRng::seed_from_u64(seed);
    let mut b = FuncBuilder::new("fuzz");
    let nparams = r.gen_range(1..4);
    let mut regs: Vec<hyperpred_ir::Reg> = (0..nparams).map(|_| b.param()).collect();
    let p = b.fresh_pred();
    let q = b.fresh_pred();
    let tail = b.block();
    let pick = |r: &mut StdRng, regs: &[hyperpred_ir::Reg]| -> Operand {
        if r.gen_bool(0.3) {
            Operand::Imm(r.gen_range(-100..100))
        } else {
            Operand::Reg(regs[r.gen_range(0..regs.len())])
        }
    };
    for _ in 0..r.gen_range(2..16) {
        match r.gen_range(0..8) {
            0 => {
                let d = b.op2(Op::Add, pick(&mut r, &regs), pick(&mut r, &regs));
                regs.push(d);
            }
            1 => {
                let d = b.op2(Op::Xor, pick(&mut r, &regs), pick(&mut r, &regs));
                regs.push(d);
            }
            2 => {
                let d = b.cmp(CmpOp::Lt, pick(&mut r, &regs), pick(&mut r, &regs));
                regs.push(d);
            }
            3 => {
                let d = b.load(MemWidth::Word, pick(&mut r, &regs), Operand::Imm(8));
                regs.push(d);
            }
            4 => {
                b.store(
                    MemWidth::Byte,
                    pick(&mut r, &regs),
                    Operand::Imm(0),
                    pick(&mut r, &regs),
                );
            }
            5 => {
                b.pred_def(
                    CmpOp::Ne,
                    &[(p, PredType::Or), (q, PredType::UBar)],
                    pick(&mut r, &regs),
                    Operand::Imm(0),
                    None,
                );
            }
            6 => {
                let d = b.mov(pick(&mut r, &regs));
                b.guard_last(q);
                regs.push(d);
            }
            _ => {
                let dst = regs[r.gen_range(0..regs.len())];
                b.cmov(dst, pick(&mut r, &regs), pick(&mut r, &regs));
            }
        }
    }
    b.br(CmpOp::Ge, pick(&mut r, &regs), Operand::Imm(0), tail);
    b.ret(Some(pick(&mut r, &regs)));
    b.switch_to(tail);
    b.ret(None);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn print_parse_print_is_fixpoint(seed in any::<u64>()) {
        let f = random_function(seed);
        let text = f.to_string();
        let parsed = parse_function(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        prop_assert_eq!(parsed.to_string(), text);
    }
}

/// Bytes of the printed grammar: brackets, separators, digits and the
/// letters that open registers, predicates, blocks and callees.
const GRAMMAR: &[u8] = b"[]()<>+-,:@!{} rpBFsUORAND0123456789._\n";

/// Seeded bytes, three in four drawn from [`GRAMMAR`].
fn grammar_bytes(r: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| {
            if r.gen_range(0..4u32) == 0 {
                r.gen_range(0..=255u8)
            } else {
                GRAMMAR[r.gen_range(0..GRAMMAR.len())]
            }
        })
        .collect()
}

/// A printed random function with a few seeded edits: a byte replaced,
/// bytes inserted, a short span deleted, or one operand dropped (the one
/// before or after a comma), which leaves an instruction short of its
/// arity.
fn mutated_function(seed: u64) -> String {
    let mut r = StdRng::seed_from_u64(seed);
    let mut bytes = random_function(seed).to_string().into_bytes();
    for _ in 0..r.gen_range(1..4) {
        let at = r.gen_range(0..bytes.len());
        match r.gen_range(0..4) {
            0 => bytes[at] = grammar_bytes(&mut r, 1)[0],
            1 => {
                let len = r.gen_range(1..4);
                let tail = bytes.split_off(at);
                bytes.extend(grammar_bytes(&mut r, len));
                bytes.extend(tail);
            }
            2 => {
                let end = (at + r.gen_range(1..7)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => {
                let Some(comma) = bytes[at..].iter().position(|&b| b == b',') else {
                    continue;
                };
                let comma = at + comma;
                let span = if r.gen_bool(0.5) {
                    let rest = &bytes[comma + 1..];
                    let end = rest.iter().position(|&b| b == b',' || b == b'\n');
                    comma..end.map_or(bytes.len(), |e| comma + 1 + e)
                } else {
                    let start = bytes[..comma].iter().rposition(|&b| b == b' ');
                    start.map_or(0, |s| s + 1)..(comma + 2).min(bytes.len())
                };
                bytes.drain(span);
            }
        }
        if bytes.is_empty() {
            break;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Memory operations missing an operand: the verifier rejects them, and
/// formatting them for its message must not index past their sources.
#[test]
fn malformed_memory_operands_are_typed_errors() {
    for inst in ["st.b [r0 + 0]", "ld.w [r0 + 8]"] {
        let text = format!("func f(r0) {{\nB0:\n  {inst}\n  ret r0\n}}\n");
        assert!(parse_function(&text).is_err(), "{inst} must not parse");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_text_is_a_typed_error(seed in any::<u64>()) {
        let mut r = StdRng::seed_from_u64(seed);
        let len = r.gen_range(0..200);
        let noise = String::from_utf8_lossy(&grammar_bytes(&mut r, len)).into_owned();
        let _ = parse_function(&noise);
        let _ = parse_function(&format!("func f(r0) {{\nB0:\n{noise}\n}}\n"));
        let _ = parse_function(&mutated_function(seed));
    }
}
