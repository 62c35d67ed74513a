//! Structural and type verification of modules.

use crate::dom::DomTree;
use crate::function::Function;
use crate::inst::{InstKind, Terminator};
use crate::module::Module;
use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function the error was found in (if any).
    pub func: Option<String>,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.func {
            Some(name) => write!(f, "in @{name}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module. Returns all violations found.
pub fn verify_module(m: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    for fid in m.func_ids() {
        verify_function(m, fid, &mut errs);
    }
    errs
}

/// Verifies a module, panicking with a readable message on failure.
/// Intended for tests and debug assertions between passes.
pub fn assert_valid(m: &Module) {
    let errs = verify_module(m);
    if !errs.is_empty() {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        panic!(
            "IR verification failed ({} errors):\n{}\n\nmodule:\n{}",
            errs.len(),
            msgs.join("\n"),
            crate::printer::print_module(m)
        );
    }
}

fn verify_function(m: &Module, fid: FuncId, errs: &mut Vec<VerifyError>) {
    let f = m.func(fid);
    let mut err = |msg: String| {
        errs.push(VerifyError {
            func: Some(f.name.clone()),
            message: msg,
        })
    };
    if f.params.len() != f.param_attrs.len() {
        err("param_attrs length mismatch".into());
    }
    if f.is_declaration() {
        return;
    }

    // Each instruction appears exactly once across block lists.
    let mut seen: HashSet<InstId> = HashSet::new();
    let mut def_block: HashMap<InstId, (BlockId, usize)> = HashMap::new();
    for b in f.block_ids() {
        for (pos, &i) in f.block(b).insts.iter().enumerate() {
            if !f.is_live_inst(i) {
                err(format!("block {b} references dead instruction {i}"));
                continue;
            }
            if !seen.insert(i) {
                err(format!("instruction {i} placed more than once"));
            }
            def_block.insert(i, (b, pos));
        }
        for s in f.block(b).term.successors() {
            if !f.is_live_block(s) {
                err(format!("block {b} branches to dead block {s}"));
            }
        }
    }

    let preds = f.predecessor_table();
    let dt = DomTree::compute(f);

    // Type and dominance checks per instruction.
    for b in f.block_ids() {
        for (pos, &i) in f.block(b).insts.iter().enumerate() {
            if !f.is_live_inst(i) {
                continue;
            }
            let kind = f.inst(i);
            // Phis must be at the head of the block.
            if matches!(kind, InstKind::Phi { .. }) {
                let all_before_are_phis = f.block(b).insts[..pos]
                    .iter()
                    .all(|&p| matches!(f.inst(p), InstKind::Phi { .. }));
                if !all_before_are_phis {
                    err(format!("phi {i} not at head of block {b}"));
                }
                if let InstKind::Phi { incoming, .. } = kind {
                    let ps: HashSet<BlockId> = preds[b.index()].iter().copied().collect();
                    let inc: HashSet<BlockId> = incoming.iter().map(|(p, _)| *p).collect();
                    if dt.is_reachable(b) && ps != inc {
                        err(format!(
                            "phi {i} in {b}: incoming blocks {inc:?} != predecessors {ps:?}"
                        ));
                    }
                }
            }
            check_types(m, f, i, kind, &mut err);
            // Use-before-def / dominance.
            let verify_use = |v: Value, err: &mut dyn FnMut(String)| {
                if let Value::Inst(u) = v {
                    if !f.is_live_inst(u) {
                        err(format!("{i} uses dead value {u}"));
                        return;
                    }
                    match def_block.get(&u) {
                        None => err(format!("{i} uses unplaced value {u}")),
                        Some(&(db, dp)) => {
                            if matches!(kind, InstKind::Phi { .. }) {
                                // checked via incoming edges below
                            } else if db == b {
                                if dp >= pos {
                                    err(format!("{i} uses {u} before its definition"));
                                }
                            } else if dt.is_reachable(b) && !dt.dominates(db, b) {
                                err(format!("{i} uses {u} whose def does not dominate"));
                            }
                        }
                    }
                }
                if let Value::Arg(n) = v {
                    if n as usize >= f.params.len() {
                        err(format!("{i} uses out-of-range argument %arg{n}"));
                    }
                }
                if let Value::Global(g) = v {
                    if g.index() >= m.global_ids().count() {
                        err(format!("{i} references unknown global"));
                    }
                }
            };
            if let InstKind::Phi { incoming, .. } = kind {
                for (p, v) in incoming {
                    if let Value::Inst(u) = v {
                        if !f.is_live_inst(*u) {
                            err(format!("phi {i} uses dead value {u}"));
                        } else if let Some(&(db, _)) = def_block.get(u) {
                            if dt.is_reachable(*p) && !dt.dominates(db, *p) {
                                err(format!(
                                    "phi {i}: incoming {u} from {p} not dominated by def"
                                ));
                            }
                        }
                    }
                }
            } else {
                kind.for_each_operand(|v| verify_use(v, &mut err));
            }
        }
        // Terminator checks.
        match &f.block(b).term {
            Terminator::CondBr { cond, .. } if f.value_type(*cond) != Type::I1 => {
                err(format!("condbr in {b} has non-i1 condition"));
            }
            Terminator::Ret(v) => {
                let got = v.map(|v| f.value_type(v)).unwrap_or(Type::Void);
                if got != f.ret {
                    err(format!(
                        "return type {got} does not match {ret}",
                        ret = f.ret
                    ));
                }
            }
            _ => {}
        }
    }
}

fn check_types(m: &Module, f: &Function, i: InstId, kind: &InstKind, err: &mut impl FnMut(String)) {
    let vt = |v: Value| f.value_type(v);
    match kind {
        InstKind::Load { ptr, ty } => {
            if vt(*ptr) != Type::Ptr {
                err(format!("load {i} from non-pointer"));
            }
            if !ty.is_first_class() {
                err(format!("load {i} of void"));
            }
        }
        InstKind::Store { ptr, val } => {
            if vt(*ptr) != Type::Ptr {
                err(format!("store {i} to non-pointer"));
            }
            if !vt(*val).is_first_class() {
                err(format!("store {i} of void value"));
            }
        }
        InstKind::Bin { op, ty, lhs, rhs } => {
            if op.is_float() != ty.is_float() {
                err(format!("bin {i}: operator/type kind mismatch"));
            }
            for v in [lhs, rhs] {
                if vt(*v) != *ty {
                    err(format!("bin {i}: operand type {} != {ty}", vt(*v)));
                }
            }
        }
        InstKind::Cmp { op, ty, lhs, rhs } => {
            if op.is_float() != ty.is_float() {
                err(format!("cmp {i}: predicate/type kind mismatch"));
            }
            for v in [lhs, rhs] {
                if vt(*v) != *ty {
                    err(format!("cmp {i}: operand type {} != {ty}", vt(*v)));
                }
            }
        }
        InstKind::Cast { op, val, to } => {
            use crate::inst::CastOp::*;
            let from = vt(*val);
            let ok = match op {
                ZExt | SExt => {
                    from.is_int() && to.is_int() && from.size() <= to.size() && from != *to
                }
                Trunc => from.is_int() && to.is_int() && from.size() >= to.size() && from != *to,
                SiToFp => from.is_int() && to.is_float(),
                FpToSi => from.is_float() && to.is_int(),
                FpExt => from == Type::F32 && *to == Type::F64,
                FpTrunc => from == Type::F64 && *to == Type::F32,
                PtrToInt => from == Type::Ptr && to.is_int(),
                IntToPtr => from.is_int() && *to == Type::Ptr,
            };
            if !ok {
                err(format!("cast {i}: invalid {op:?} from {from} to {to}"));
            }
        }
        InstKind::Gep { base, index, .. } => {
            if vt(*base) != Type::Ptr {
                err(format!("gep {i}: base is not a pointer"));
            }
            if !vt(*index).is_int() {
                err(format!("gep {i}: index is not an integer"));
            }
        }
        InstKind::Call { callee, args, ret } => match callee {
            Value::Func(cid) => {
                let callee_fn = m.func(*cid);
                if callee_fn.params.len() != args.len() {
                    err(format!(
                        "call {i}: @{} expects {} args, got {}",
                        callee_fn.name,
                        callee_fn.params.len(),
                        args.len()
                    ));
                } else {
                    for (n, (a, p)) in args.iter().zip(&callee_fn.params).enumerate() {
                        if vt(*a) != *p {
                            err(format!(
                                "call {i}: arg {n} type {} != param type {p}",
                                vt(*a)
                            ));
                        }
                    }
                }
                if callee_fn.ret != *ret {
                    err(format!(
                        "call {i}: declared return {} != call-site return {ret}",
                        callee_fn.ret
                    ));
                }
            }
            v if vt(*v) == Type::Ptr => {}
            _ => err(format!("call {i}: callee is neither function nor pointer")),
        },
        InstKind::Select {
            cond,
            ty,
            on_true,
            on_false,
        } => {
            if vt(*cond) != Type::I1 {
                err(format!("select {i}: condition is not i1"));
            }
            for v in [on_true, on_false] {
                if vt(*v) != *ty {
                    err(format!("select {i}: arm type {} != {ty}", vt(*v)));
                }
            }
        }
        InstKind::Phi { ty, incoming } => {
            for (_, v) in incoming {
                if vt(*v) != *ty {
                    err(format!("phi {i}: incoming type {} != {ty}", vt(*v)));
                }
            }
        }
        InstKind::Alloca { align, .. } => {
            if *align == 0 || !align.is_power_of_two() {
                err(format!("alloca {i}: bad alignment"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::inst::{BinOp, CmpOp};

    #[test]
    fn valid_module_passes() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let v = b.bin(BinOp::Add, Type::I32, Value::Arg(0), Value::i32(1));
        b.ret(Some(v));
        assert!(verify_module(&m).is_empty());
    }

    #[test]
    fn detects_type_mismatch() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        // i64 add of an i32 argument: mismatch.
        let v = b.bin(BinOp::Add, Type::I64, Value::Arg(0), Value::i64(1));
        b.cast(crate::inst::CastOp::Trunc, v, Type::I32);
        b.ret(Some(Value::i32(0)));
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("operand type")));
    }

    #[test]
    fn detects_use_before_def() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let fun = m.func_mut(f);
        let e = fun.entry();
        // Manually create a use-before-def in the same block.
        let later = fun.alloc_inst(InstKind::Alloca { size: 4, align: 4 });
        let use_first = fun.alloc_inst(InstKind::Load {
            ptr: Value::Inst(later),
            ty: Type::I32,
        });
        fun.block_mut(e).insts.push(use_first);
        fun.block_mut(e).insts.push(later);
        fun.block_mut(e).term = Terminator::Ret(None);
        let errs = verify_module(&m);
        assert!(errs
            .iter()
            .any(|e| e.message.contains("before its definition")));
    }

    #[test]
    fn detects_bad_return_type() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        b.ret(None);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("return type")));
    }

    #[test]
    fn detects_phi_predecessor_mismatch() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        let p = b.phi(Type::I32);
        // wrong: claims an incoming edge from `next` itself
        b.add_phi_incoming(p, next, Value::i32(0));
        b.ret(None);
        let _ = entry;
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("incoming blocks")));
    }

    #[test]
    fn detects_bad_call_arity() {
        let mut m = Module::new("t");
        let callee = m.add_function(Function::declaration("c", vec![Type::I32], Type::Void));
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.call(callee, vec![]);
        b.ret(None);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("expects 1 args")));
    }

    #[test]
    fn detects_non_i1_condbr() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(Value::i32(1), t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("non-i1 condition")));
    }

    #[test]
    fn cmp_predicate_kind_mismatch() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::F64], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.cmp(CmpOp::Slt, Type::F64, Value::Arg(0), Value::f64(0.0));
        b.ret(None);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("predicate/type")));
    }
}
