//! Promotion of memory to SSA registers (LLVM's `mem2reg`).
//!
//! Promotes `alloca`s whose only uses are whole-value loads and stores
//! (no address arithmetic, no escape) into SSA values with phi nodes at
//! dominance frontiers. In the pipeline this runs after HeapToStack so
//! the paper's "use local memory (aka. registers)" effect materializes.
//!
//! A function is promoted in one go, in time linear in its size plus
//! the phis placed: one scan classifies every alloca, phis go at the
//! iterated dominance frontier of each alloca's stores, and one
//! renaming walk over the CFG carries the current value of every
//! promoted alloca at once.

use omp_ir::{BlockId, DomTree, Function, InstId, InstKind, Module, Type, Value};

/// Runs mem2reg on every function definition. Returns the number of
/// promoted allocas.
pub fn run(m: &mut Module) -> usize {
    let mut count = 0;
    for fid in m.func_ids().collect::<Vec<_>>() {
        if !m.func(fid).is_declaration() {
            count += promote_function(m.func_mut(fid));
        }
    }
    count
}

/// How a value is used as a pointer, accumulated over the function.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Access {
    /// Never loaded from or stored to.
    Unused,
    /// Every use is a load or a store *to* it, all of this type.
    Whole(Type),
    /// Some other use (address arithmetic, escape, stored as a value,
    /// a return or branch operand) or two access types.
    Other,
}

impl Access {
    fn access(&mut self, ty: Type) {
        *self = match *self {
            Access::Unused => Access::Whole(ty),
            Access::Whole(t) if t == ty => Access::Whole(t),
            _ => Access::Other,
        };
    }
}

/// Marks `v` as used other than by a whole-value load or store.
fn escape(access: &mut [Access], v: Value) {
    if let Value::Inst(i) = v {
        access[i.index()] = Access::Other;
    }
}

/// Sentinel in the per-instruction slot table: not a promoted alloca.
const NOT_PROMOTED: u32 = u32::MAX;

/// One step of the renaming walk.
enum Step {
    /// Rename in this block (skipped if already visited).
    Enter(BlockId),
    /// All blocks entered from the current one are done: roll the
    /// current values back to this undo-log length.
    Leave(usize),
}

fn promote_function(f: &mut Function) -> usize {
    // 1. Classify every pointer use in one scan. An alloca is promotable
    //    when every use is a load of the full value or a store *to* it
    //    (not of it), all with one type.
    let mut access = vec![Access::Unused; f.inst_slots()];
    let mut stores: Vec<(InstId, BlockId)> = Vec::new();
    for b in f.block_ids() {
        for &i in &f.block(b).insts {
            match f.inst(i) {
                InstKind::Load {
                    ptr: Value::Inst(a),
                    ty,
                } => access[a.index()].access(*ty),
                InstKind::Store { ptr, val } => {
                    if let Value::Inst(a) = *ptr {
                        if *val == *ptr {
                            access[a.index()] = Access::Other;
                        } else {
                            access[a.index()].access(f.value_type(*val));
                            stores.push((a, b));
                        }
                    }
                    escape(&mut access, *val);
                }
                other => other.for_each_operand(|v| escape(&mut access, v)),
            }
        }
        f.block(b).term.for_each_operand(|v| escape(&mut access, v));
    }
    let mut slot = vec![NOT_PROMOTED; f.inst_slots()];
    let mut allocas: Vec<(InstId, Type)> = Vec::new();
    for (_, i) in f.inst_ids() {
        if let (InstKind::Alloca { .. }, Access::Whole(ty)) = (f.inst(i), access[i.index()]) {
            slot[i.index()] = allocas.len() as u32;
            allocas.push((i, ty));
        }
    }
    if allocas.is_empty() {
        return 0;
    }
    let slot_of = |v: &Value| match v {
        Value::Inst(i) if slot[i.index()] != NOT_PROMOTED => Some(slot[i.index()] as usize),
        _ => None,
    };

    // 2. Phi placement at the iterated dominance frontier of each
    //    alloca's store blocks. Ids are allocated alloca by alloca, in
    //    block-id order within one alloca, and each phi goes in front of
    //    its block's earlier phis.
    let dt = DomTree::compute(f);
    let df = dt.dominance_frontiers(f);
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); allocas.len()];
    for (a, b) in stores {
        if let Some(s) = slot_of(&Value::Inst(a)) {
            // Stores are scanned block by block: one entry per block.
            if def_blocks[s].last() != Some(&b) {
                def_blocks[s].push(b);
            }
        }
    }
    let mut phi_mark = vec![NOT_PROMOTED; f.block_slots()];
    let mut block_phis: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); f.block_slots()];
    for (s, work) in def_blocks.iter_mut().enumerate() {
        let mut phi_blocks = Vec::new();
        while let Some(b) = work.pop() {
            for &fr in &df[b.index()] {
                if phi_mark[fr.index()] != s as u32 {
                    phi_mark[fr.index()] = s as u32;
                    phi_blocks.push(fr);
                    work.push(fr);
                }
            }
        }
        phi_blocks.sort();
        let ty = allocas[s].1;
        for b in phi_blocks {
            let phi = f.alloc_inst(InstKind::Phi {
                ty,
                incoming: vec![],
            });
            block_phis[b.index()].push((s, phi));
        }
    }
    for b in f.block_ids().collect::<Vec<_>>() {
        let phis = &block_phis[b.index()];
        if !phis.is_empty() {
            let insts = &mut f.block_mut(b).insts;
            insts.splice(0..0, phis.iter().rev().map(|&(_, phi)| phi));
        }
    }

    // 3. One renaming walk for all allocas: a depth-first walk from the
    //    entry in which each block starts from the values at the end of
    //    the block that first reached it. `cur` holds the current value
    //    per alloca; entering a block logs what it overwrites so leaving
    //    can restore it. Loads are resolved as they are met: a store's
    //    value dominates the store, so a load it names was already met
    //    and mapped to its final value (no chains to chase later).
    let mut cur: Vec<Value> = allocas.iter().map(|&(_, ty)| Value::Undef(ty)).collect();
    let mut undo: Vec<(usize, Value)> = Vec::new();
    let mut replacement: Vec<Option<Value>> = vec![None; f.inst_slots()];
    let mut removals: Vec<InstId> = Vec::new();
    let mut incomings: Vec<(InstId, BlockId, Value)> = Vec::new();
    let mut visited = vec![false; f.block_slots()];
    let mut stack = vec![Step::Enter(f.entry())];
    while let Some(step) = stack.pop() {
        let b = match step {
            Step::Leave(mark) => {
                for (s, v) in undo.drain(mark..).rev() {
                    cur[s] = v;
                }
                continue;
            }
            Step::Enter(b) if !visited[b.index()] => b,
            Step::Enter(_) => continue,
        };
        visited[b.index()] = true;
        stack.push(Step::Leave(undo.len()));
        let set = |cur: &mut [Value], undo: &mut Vec<_>, s: usize, v: Value| {
            undo.push((s, std::mem::replace(&mut cur[s], v)));
        };
        for &(s, phi) in &block_phis[b.index()] {
            set(&mut cur, &mut undo, s, Value::Inst(phi));
        }
        for &i in &f.block(b).insts {
            match f.inst(i) {
                InstKind::Load { ptr, .. } => {
                    if let Some(s) = slot_of(ptr) {
                        replacement[i.index()] = Some(cur[s]);
                        removals.push(i);
                    }
                }
                InstKind::Store { ptr, val } => {
                    if let Some(s) = slot_of(ptr) {
                        let v = match *val {
                            Value::Inst(l) => replacement[l.index()].unwrap_or(*val),
                            v => v,
                        };
                        set(&mut cur, &mut undo, s, v);
                        removals.push(i);
                    }
                }
                _ => {}
            }
        }
        let succs = f.block(b).term.successors();
        for (k, &succ) in succs.iter().enumerate() {
            // A conditional branch with both edges to one block feeds
            // its phis once.
            if k == 0 || succ != succs[0] {
                for &(s, phi) in &block_phis[succ.index()] {
                    incomings.push((phi, b, cur[s]));
                }
            }
            if !visited[succ.index()] {
                stack.push(Step::Enter(succ));
            }
        }
    }
    // Loads and stores in unreachable blocks were never visited; patch
    // them so removing the alloca leaves no dangling uses.
    for b in f.block_ids() {
        if visited[b.index()] {
            continue;
        }
        for &i in &f.block(b).insts {
            match f.inst(i) {
                InstKind::Load { ptr, .. } => {
                    if let Some(s) = slot_of(ptr) {
                        replacement[i.index()] = Some(Value::Undef(allocas[s].1));
                        removals.push(i);
                    }
                }
                InstKind::Store { ptr, .. } if slot_of(ptr).is_some() => removals.push(i),
                _ => {}
            }
        }
    }

    // 4. Fill the phis (in walk order), rewrite every use of a removed
    //    load in one pass, and drop the loads, stores and allocas.
    for (phi, pred, v) in incomings {
        if let InstKind::Phi { incoming, .. } = f.inst_mut(phi) {
            incoming.push((pred, v));
        }
    }
    f.map_all_operands(|v| match v {
        Value::Inst(i) => replacement[i.index()].unwrap_or(v),
        v => v,
    });
    removals.extend(allocas.iter().map(|&(a, _)| a));
    f.remove_insts(&removals);
    allocas.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{BinOp, Builder, CmpOp, Function};

    #[test]
    fn straight_line_promotion() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I32], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        b.store(Value::Arg(0), p);
        let v = b.load(Type::I32, p);
        let w = b.bin(BinOp::Add, Type::I32, v, Value::i32(1));
        b.store(w, p);
        let x = b.load(Type::I32, p);
        b.ret(Some(x));
        assert_eq!(run(&mut m), 1);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        // No allocas, loads or stores remain.
        let mut bad = 0;
        fun.for_each_inst(|_, _, k| {
            if matches!(
                k,
                InstKind::Alloca { .. } | InstKind::Load { .. } | InstKind::Store { .. }
            ) {
                bad += 1;
            }
        });
        assert_eq!(bad, 0);
    }

    #[test]
    fn diamond_gets_phi() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I1], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        b.store(Value::i32(0), p);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.cond_br(Value::Arg(0), t, e);
        b.switch_to(t);
        b.store(Value::i32(1), p);
        b.br(j);
        b.switch_to(e);
        b.store(Value::i32(2), p);
        b.br(j);
        b.switch_to(j);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        assert_eq!(run(&mut m), 1);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        let mut phis = 0;
        fun.for_each_inst(|_, _, k| {
            if matches!(k, InstKind::Phi { .. }) {
                phis += 1;
            }
        });
        assert_eq!(phis, 1);
        // The phi must have both incoming edges.
        fun.for_each_inst(|_, _, k| {
            if let InstKind::Phi { incoming, .. } = k {
                assert_eq!(incoming.len(), 2);
                let vals: Vec<Value> = incoming.iter().map(|(_, v)| *v).collect();
                assert!(vals.contains(&Value::i32(1)));
                assert!(vals.contains(&Value::i32(2)));
            }
        });
    }

    #[test]
    fn loop_promotion_builds_phi_cycle() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I64], Type::I64));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let acc = b.alloca(8, 8);
        b.store(Value::i64(0), acc);
        let i = b.alloca(8, 8);
        b.store(Value::i64(0), i);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let iv = b.load(Type::I64, i);
        let c = b.cmp(CmpOp::Slt, Type::I64, iv, Value::Arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let av = b.load(Type::I64, acc);
        let a2 = b.bin(BinOp::Add, Type::I64, av, iv);
        b.store(a2, acc);
        let i2 = b.bin(BinOp::Add, Type::I64, iv, Value::i64(1));
        b.store(i2, i);
        b.br(header);
        b.switch_to(exit);
        let out = b.load(Type::I64, acc);
        b.ret(Some(out));
        let _ = entry;
        assert_eq!(run(&mut m), 2);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        let mut loads = 0;
        fun.for_each_inst(|_, _, k| {
            if matches!(k, InstKind::Load { .. }) {
                loads += 1;
            }
        });
        assert_eq!(loads, 0);
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let mut m = Module::new("t");
        let sink = m.add_function(Function::declaration("sink", vec![Type::Ptr], Type::Void));
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        b.store(Value::i32(1), p);
        b.call(sink, vec![p]);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn gep_use_blocks_promotion() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(16, 8);
        let q = b.gep_const(p, 4);
        b.store(Value::i32(1), q);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn mixed_types_block_promotion() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(8, 8);
        b.store(Value::f64(1.0), p);
        let v = b.load(Type::I32, p); // type pun
        b.ret(Some(v));
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn load_before_store_becomes_undef() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let p = b.alloca(4, 4);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        assert_eq!(run(&mut m), 1);
        omp_ir::verifier::assert_valid(&m);
        let fun = m.func(f);
        match &fun.block(fun.entry()).term {
            omp_ir::Terminator::Ret(Some(Value::Undef(Type::I32))) => {}
            t => panic!("expected ret undef, got {t:?}"),
        }
    }
}
