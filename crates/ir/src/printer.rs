//! Textual form of the IR, styled after the paper's assembly listings.

use crate::inst::{Inst, Op};
use crate::module::{Function, Module};
use std::fmt;

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s: String = match self {
            Op::Add => "add".into(),
            Op::Sub => "sub".into(),
            Op::Mul => "mul".into(),
            Op::Div => "div".into(),
            Op::Rem => "rem".into(),
            Op::And => "and".into(),
            Op::Or => "or".into(),
            Op::Xor => "xor".into(),
            Op::AndNot => "and_not".into(),
            Op::OrNot => "or_not".into(),
            Op::Shl => "shl".into(),
            Op::Shr => "shr".into(),
            Op::Sra => "sra".into(),
            Op::Cmp(c) => c.mnemonic().into(),
            Op::Mov => "mov".into(),
            Op::FAdd => "add_f".into(),
            Op::FSub => "sub_f".into(),
            Op::FMul => "mul_f".into(),
            Op::FDiv => "div_f".into(),
            Op::FCmp(c) => format!("{}_f", c.mnemonic()),
            Op::IToF => "itof".into(),
            Op::FToI => "ftoi".into(),
            Op::Ld(w) => format!("ld.{}", if w.bytes() == 1 { "b" } else { "w" }),
            Op::St(w) => format!("st.{}", if w.bytes() == 1 { "b" } else { "w" }),
            Op::Br(c) => format!("b{}", c.mnemonic()),
            Op::Jump => "jump".into(),
            Op::Call => "jsr".into(),
            Op::Ret => "ret".into(),
            Op::Halt => "halt".into(),
            Op::PredDef(c) => format!("pred_{}", c.mnemonic()),
            Op::FPredDef(c) => format!("pred_{}_f", c.mnemonic()),
            Op::PredClear => "pred_clear".into(),
            Op::PredSet => "pred_set".into(),
            Op::Cmov => "cmov".into(),
            Op::CmovCom => "cmov_com".into(),
            Op::Select => "select".into(),
            Op::Nop => "nop".into(),
        };
        f.write_str(&s)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.speculative {
            write!(f, "(s) ")?;
        }
        write!(f, "{}", self.op)?;
        let mut sep = " ";
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
            sep = ", ";
        }
        for pd in &self.pdsts {
            write!(f, "{sep}{pd}")?;
            sep = ", ";
        }
        // Memory operands print in address form only at their arity; a
        // malformed instruction (the verifier formats the ones it
        // rejects) prints as a plain source list.
        match (self.op, self.srcs.as_slice()) {
            (Op::Ld(_), [base, off]) => write!(f, "{sep}[{base} + {off}]")?,
            (Op::St(_), [base, off, val]) => write!(f, "{sep}[{base} + {off}], {val}")?,
            _ => {
                for s in &self.srcs {
                    write!(f, "{sep}{s}")?;
                    sep = ", ";
                }
            }
        }
        if let Some(t) = self.target {
            write!(f, " -> {t}")?;
        }
        if let Some(c) = self.callee {
            write!(f, " @{c}")?;
        }
        if let Some(g) = self.guard {
            write!(f, " ({g})")?;
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "func {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        writeln!(f, ") {{")?;
        for &b in &self.layout {
            writeln!(f, "{b}:")?;
            for inst in &self.block(b).insts {
                writeln!(f, "  [{:>3}] {inst}", inst.cycle)?;
            }
        }
        writeln!(f, "}}")
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for g in &self.globals {
            writeln!(f, "global {} @{:#x} [{} bytes]", g.name, g.addr, g.size)?;
        }
        for (i, func) in self.funcs.iter().enumerate() {
            writeln!(f, "; F{i}")?;
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::types::{CmpOp, MemWidth, Operand, Reg};
    use crate::{FuncBuilder, PredType};

    #[test]
    fn inst_display_matches_paper_style() {
        let mut b = FuncBuilder::new("t");
        let p1 = b.fresh_pred();
        let p2 = b.fresh_pred();
        let p3 = b.fresh_pred();
        b.pred_def(
            CmpOp::Eq,
            &[(p1, PredType::Or), (p3, PredType::UBar)],
            Operand::Reg(Reg(0)),
            Operand::Imm(0),
            Some(p2),
        );
        let f = b.finish();
        let s = f.blocks[0].insts[0].to_string();
        assert_eq!(s, "pred_eq p0<OR>, p2<!U>, r0, 0 (p1)");
    }

    #[test]
    fn memory_display() {
        let mut b = FuncBuilder::new("t");
        let base = b.param();
        let v = b.load(MemWidth::Word, base.into(), Operand::Imm(8));
        b.store(MemWidth::Byte, base.into(), Operand::Imm(0), v.into());
        let f = b.finish();
        let insts = &f.blocks[0].insts;
        assert_eq!(insts[0].to_string(), "ld.w r1, [r0 + 8]");
        assert_eq!(insts[1].to_string(), "st.b [r0 + 0], r1");
    }

    #[test]
    fn guarded_and_speculative_display() {
        let mut b = FuncBuilder::new("t");
        let p = b.fresh_pred();
        let x = b.param();
        b.add(x.into(), Operand::Imm(1));
        b.guard_last(p);
        let mut f = b.finish();
        f.blocks[0].insts[0].speculative = true;
        let s = f.blocks[0].insts[0].to_string();
        assert_eq!(s, "(s) add r1, r0, 1 (p0)");
    }

    #[test]
    fn function_display_contains_blocks() {
        let mut b = FuncBuilder::new("t");
        b.ret(None);
        let f = b.finish();
        let s = f.to_string();
        assert!(s.contains("func t("));
        assert!(s.contains("B0:"));
        assert!(s.contains("ret"));
    }
}
