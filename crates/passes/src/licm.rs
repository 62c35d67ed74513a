//! Loop-invariant code motion over the natural-loop forest.
//!
//! Loops are processed innermost-first; each loop gets a dedicated
//! preheader (an existing unconditional predecessor is reused when
//! possible) and every speculatable loop-invariant instruction moves
//! there. Everything hoisted is trap-free — arithmetic, comparisons,
//! casts, selects, pointer arithmetic, integer division only by a
//! nonzero (and non-`-1`) constant, pure calls, and loads from
//! non-escaping allocas with no aliasing store in the loop — so
//! executing it when the loop body would not have run is safe, and the
//! computed values are bit-identical to the in-loop originals.

use crate::cache::AnalysisCache;
use crate::gvn::{escaped_allocas, may_alias, pointer_root};
use omp_analysis::Loop;
use omp_ir::{BinOp, BlockId, FuncId, InstId, InstKind, Module, Terminator, Value};
use std::collections::HashSet;

/// Per-function hoist counts, for remarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LicmStats {
    /// Function name.
    pub function: String,
    /// Instructions moved to a preheader.
    pub hoisted: usize,
}

/// Runs LICM over every function definition. Returns per-function stats
/// (functions with no hoists are omitted).
pub fn run(m: &mut Module, cache: &mut AnalysisCache) -> Vec<LicmStats> {
    let mut out = Vec::new();
    for fid in m.func_ids().collect::<Vec<_>>() {
        if m.func(fid).is_declaration() {
            continue;
        }
        let hoisted = run_function(m, cache, fid);
        if hoisted > 0 {
            out.push(LicmStats {
                function: m.func(fid).name.clone(),
                hoisted,
            });
        }
    }
    out
}

/// Processes one loop at a time, recomputing the forest after each
/// mutation: hoisting into a fresh preheader changes the CFG, and a
/// stale forest would misclassify that preheader as "outside" the
/// enclosing loop. Headers are stable block ids, so completed loops
/// are tracked across recomputations.
fn run_function(m: &mut Module, cache: &mut AnalysisCache, fid: FuncId) -> usize {
    let mut done: HashSet<BlockId> = HashSet::new();
    let mut hoisted = 0usize;
    loop {
        let forest = cache.loop_forest(m, fid).clone();
        let Some(li) = forest
            .innermost_first()
            .into_iter()
            .find(|&i| !done.contains(&forest.loops[i].header))
        else {
            break;
        };
        let lp = forest.loops[li].clone();
        done.insert(lp.header);
        let n = process_loop(m, fid, &lp);
        if n > 0 {
            cache.invalidate_function(fid);
            hoisted += n;
        }
    }
    hoisted
}

fn process_loop(m: &mut Module, fid: FuncId, lp: &Loop) -> usize {
    let escaped = escaped_allocas(m.func(fid));
    let f = m.func(fid);

    // Stores inside the loop, for the load check. Calls need no
    // tracking: the only loads hoisted read non-escaping allocas, which
    // no callee (and, in the simulator's thread-private stack model, no
    // other thread) can write.
    let mut loop_stores: Vec<(Value, i64)> = Vec::new();
    for &b in &lp.blocks {
        for &i in &f.block(b).insts {
            if let InstKind::Store { ptr, val } = f.inst(i) {
                loop_stores.push((*ptr, crate::gvn::type_size(f.value_type(*val))));
            }
        }
    }

    // Fixpoint over the loop body: an instruction is invariant when all
    // its operands are defined outside the loop or already invariant.
    let mut inv: HashSet<InstId> = HashSet::new();
    let mut order: Vec<InstId> = Vec::new();
    let defined_in_loop: HashSet<InstId> = lp
        .blocks
        .iter()
        .flat_map(|&b| f.block(b).insts.iter().copied())
        .collect();
    loop {
        let mut changed = false;
        for &b in &lp.blocks {
            for &i in &f.block(b).insts {
                if inv.contains(&i) {
                    continue;
                }
                let kind = f.inst(i);
                let mut operands_inv = true;
                kind.for_each_operand(|v| {
                    if let Value::Inst(d) = v {
                        if defined_in_loop.contains(&d) && !inv.contains(&d) {
                            operands_inv = false;
                        }
                    }
                });
                if !operands_inv || !speculatable(m, kind) {
                    continue;
                }
                if let InstKind::Load { ptr, ty } = kind {
                    // Only loads whose location provably cannot change
                    // inside the loop: non-escaping alloca root (so
                    // calls and other threads cannot write it) with no
                    // may-aliasing in-loop store.
                    let root = pointer_root(f, *ptr);
                    let private = matches!(root, Value::Inst(r)
                        if matches!(f.inst(r), InstKind::Alloca { .. }) && !escaped.contains(&r));
                    let size = crate::gvn::type_size(*ty);
                    if !private
                        || loop_stores
                            .iter()
                            .any(|&(s, ss)| may_alias(f, &escaped, s, ss, *ptr, size))
                    {
                        continue;
                    }
                }
                inv.insert(i);
                order.push(i);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    if order.is_empty() {
        return 0;
    }

    let preheader = ensure_preheader(m, fid, lp);
    let f = m.func_mut(fid);
    for &b in &lp.blocks {
        f.block_mut(b).insts.retain(|i| !inv.contains(i));
    }
    // Discovery order (RPO within fixpoint rounds) keeps defs before uses.
    f.block_mut(preheader).insts.extend(order.iter().copied());
    order.len()
}

/// Instructions safe to execute speculatively (no traps, no observable
/// effects, bit-identical results). Loads need the caller's extra
/// memory check on top of this.
fn speculatable(m: &Module, kind: &InstKind) -> bool {
    match kind {
        InstKind::Bin { op, rhs, .. } => match op {
            BinOp::SDiv | BinOp::SRem | BinOp::UDiv | BinOp::URem => {
                matches!(rhs, Value::ConstInt(c, _) if *c != 0 && *c != -1)
            }
            _ => true,
        },
        InstKind::Cmp { .. }
        | InstKind::Cast { .. }
        | InstKind::Gep { .. }
        | InstKind::Select { .. }
        | InstKind::Load { .. } => true,
        InstKind::Call { callee, .. } => {
            // Pure functions only (readonly may observe in-loop stores).
            matches!(callee, Value::Func(g) if m.func(*g).attrs.pure_fn)
        }
        InstKind::Alloca { .. } | InstKind::Store { .. } | InstKind::Phi { .. } => false,
    }
}

/// Returns the loop's preheader, creating one when the header has no
/// unique unconditional out-of-loop predecessor.
fn ensure_preheader(m: &mut Module, fid: FuncId, lp: &Loop) -> BlockId {
    let f = m.func_mut(fid);
    let outside: Vec<BlockId> = f.predecessor_table()[lp.header.index()]
        .iter()
        .copied()
        .filter(|p| !lp.contains(*p))
        .collect();
    if outside.len() == 1 {
        let p = outside[0];
        if matches!(f.block(p).term, Terminator::Br(_)) {
            return p;
        }
    }

    let ph = f.add_block();
    f.block_mut(ph).term = Terminator::Br(lp.header);
    for &p in &outside {
        f.block_mut(p)
            .term
            .map_successors(|s| if s == lp.header { ph } else { s });
    }
    // Rewire header phis: out-of-loop incoming edges now arrive via the
    // preheader; several of them merge through a new phi there.
    let header_insts = f.block(lp.header).insts.clone();
    for i in header_insts {
        let InstKind::Phi { ty, incoming } = f.inst(i).clone() else {
            continue;
        };
        let (from_outside, from_latches): (Vec<_>, Vec<_>) =
            incoming.into_iter().partition(|(b, _)| outside.contains(b));
        let merged = match from_outside.len() {
            0 => continue,
            1 => from_outside[0].1,
            _ => Value::Inst(f.insert_inst(
                ph,
                0,
                InstKind::Phi {
                    ty,
                    incoming: from_outside,
                },
            )),
        };
        let mut incoming = vec![(ph, merged)];
        incoming.extend(from_latches);
        f.replace_inst(i, InstKind::Phi { ty, incoming });
    }
    ph
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, CmpOp, Function, Type};

    /// for (i = 0; i < n; i++) { use(a * b); }
    fn loop_with_invariant() -> (Module, FuncId) {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::I64, Type::I64, Type::I64],
            Type::I64,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        let acc = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::i64(0));
        b.add_phi_incoming(acc, entry, Value::i64(0));
        let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let inv = b.bin(BinOp::Mul, Type::I64, Value::Arg(1), Value::Arg(2));
        let acc2 = b.add_i64(acc, inv);
        let i2 = b.add_i64(i, Value::i64(1));
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(acc, body, acc2);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(acc));
        (m, f)
    }

    #[test]
    fn hoists_invariant_mul_to_preheader() {
        let (mut m, f) = loop_with_invariant();
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].hoisted, 1);
        // The mul now lives in the entry block (the loop's natural
        // preheader: unique unconditional out-of-loop predecessor).
        let func = m.func(f);
        let entry = func.entry();
        let mul_in_entry = func
            .block(entry)
            .insts
            .iter()
            .any(|&i| matches!(func.inst(i), InstKind::Bin { op: BinOp::Mul, .. }));
        assert!(mul_in_entry);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn variant_computations_stay_in_the_loop() {
        let (mut m, f) = loop_with_invariant();
        let mut cache = AnalysisCache::new();
        run(&mut m, &mut cache);
        // The two adds depend on the phis: they must remain in the loop.
        let func = m.func(f);
        let entry = func.entry();
        let adds_in_entry = func
            .block(entry)
            .insts
            .iter()
            .filter(|&&i| matches!(func.inst(i), InstKind::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(adds_in_entry, 0);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn division_by_variable_is_not_hoisted() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::I64, Type::I64],
            Type::Void,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::i64(0));
        let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        // Guarded by the loop: arg1 may be zero when the loop never runs.
        b.bin(BinOp::SDiv, Type::I64, Value::i64(100), Value::Arg(1));
        // Division by a nonzero constant is safe to speculate.
        let d = b.bin(BinOp::SDiv, Type::I64, Value::Arg(1), Value::i64(4));
        let i2 = b.add_i64(i, d);
        b.add_phi_incoming(i, body, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats[0].hoisted, 1, "only the constant division moves");
        let func = m.func(f);
        let entry_divs = func
            .block(func.entry())
            .insts
            .iter()
            .filter(|&&i| {
                matches!(
                    func.inst(i),
                    InstKind::Bin {
                        op: BinOp::SDiv,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(entry_divs, 1);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn nested_loops_hoist_through_both_levels() {
        // for i { for j { use(a * b) } } — the multiply is invariant in
        // both loops and should end up outside the outer loop.
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::I64, Type::I64, Type::I64],
            Type::Void,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let oh = b.new_block();
        let ih = b.new_block();
        let ib = b.new_block();
        let ol = b.new_block();
        let exit = b.new_block();
        b.br(oh);
        b.switch_to(oh);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::i64(0));
        let ci = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(0));
        b.cond_br(ci, ih, exit);
        b.switch_to(ih);
        let j = b.phi(Type::I64);
        b.add_phi_incoming(j, oh, Value::i64(0));
        let cj = b.cmp(CmpOp::Slt, Type::I64, j, Value::Arg(0));
        b.cond_br(cj, ib, ol);
        b.switch_to(ib);
        let inv = b.bin(BinOp::Mul, Type::I64, Value::Arg(1), Value::Arg(2));
        let j2 = b.add_i64(j, inv);
        b.add_phi_incoming(j, ib, j2);
        b.br(ih);
        b.switch_to(ol);
        let i2 = b.add_i64(i, Value::i64(1));
        b.add_phi_incoming(i, ol, i2);
        b.br(oh);
        b.switch_to(exit);
        b.ret(None);
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert!(stats[0].hoisted >= 1);
        // The multiply must leave both loops: its block must be the
        // entry block (sole block outside both loops that can hold it).
        let muls_in_entry = {
            let func = m.func(f);
            func.block(func.entry())
                .insts
                .iter()
                .filter(|&&x| matches!(func.inst(x), InstKind::Bin { op: BinOp::Mul, .. }))
                .count()
        };
        assert_eq!(muls_in_entry, 1);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn loads_from_private_allocas_hoist_but_aliased_ones_do_not() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition(
            "f",
            vec![Type::I64, Type::Ptr],
            Type::Void,
        ));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let p = b.alloca(8, 8);
        b.store(Value::i64(42), p);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I64);
        b.add_phi_incoming(i, entry, Value::i64(0));
        let c = b.cmp(CmpOp::Slt, Type::I64, i, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        // Private alloca, no in-loop store: hoistable.
        let v = b.load(Type::I64, p);
        // Through an escaping pointer argument: not hoistable.
        let w = b.load(Type::I64, Value::Arg(1));
        b.store(w, Value::Arg(1));
        let step = b.add_i64(v, w);
        let i2 = b.add_i64(i, step);
        b.add_phi_incoming(i, body, i2);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let mut cache = AnalysisCache::new();
        let stats = run(&mut m, &mut cache);
        assert_eq!(stats[0].hoisted, 1);
        let func = m.func(f);
        let entry_loads = func
            .block(func.entry())
            .insts
            .iter()
            .filter(|&&x| matches!(func.inst(x), InstKind::Load { .. }))
            .count();
        assert_eq!(entry_loads, 1);
        omp_ir::verifier::assert_valid(&m);
    }
}
