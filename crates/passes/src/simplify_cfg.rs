//! Control-flow graph cleanup.
//!
//! * removes blocks unreachable from the entry (fixing phis),
//! * merges a block into its unique predecessor when that predecessor
//!   branches unconditionally to it,
//! * forwards branches through empty blocks that only jump onward.
//!
//! The rules are applied in rounds until nothing changes. A round
//! removes unreachable blocks, merges, then forwards every empty block
//! whose target has no phis (all forwards are taken before any is
//! applied). Merging and forwarding disagree on one shape: an empty
//! block `p` that jumps to a phi-less `b` whose only predecessor is `p`.
//! Merging keeps `p` (holding `b`'s code), forwarding keeps `b`. While
//! any forwarder exists, a round merges only the first mergeable block
//! in layout order and forwarding decides the rest. Otherwise a round
//! merges chain after chain in that same layout-first order, and stops
//! early only when a merge leaves an empty forwarder behind. The result
//! is the one a loop merging one block per round gives. Predecessors
//! live in per-block tables, and phis deleted by merges are substituted
//! once at the end, so a round is linear in the function apart from a
//! heap over layout positions.

use omp_ir::{BlockId, FuncId, Function, InstId, InstKind, Module, Terminator, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Runs CFG simplification on every function definition. Returns the
/// number of removed blocks.
pub fn run(m: &mut Module) -> usize {
    let mut total = 0;
    for fid in m.func_ids().collect::<Vec<FuncId>>() {
        if !m.func(fid).is_declaration() {
            total += run_function(m.func_mut(fid));
        }
    }
    total
}

/// Phis deleted by merges and the values that replace them (indexed by
/// instruction, allocated on the first deletion); applied to the whole
/// function once, after the last round.
struct PhiSubst {
    value: Vec<Option<Value>>,
    phis: Vec<InstId>,
}

fn run_function(f: &mut Function) -> usize {
    let mut removed = 0;
    let mut subst = PhiSubst {
        value: Vec::new(),
        phis: Vec::new(),
    };
    // Only forwarding can strand a block, so reachability is rechecked
    // on the first round and after rounds that forwarded.
    let mut check_reachability = true;
    loop {
        let mut changed = false;
        if check_reachability {
            let dead = remove_unreachable(f);
            removed += dead;
            changed |= dead > 0;
        }
        let mut preds = f.predecessor_table();
        let single = has_forwarder(f);
        let merged = merge_blocks(f, &mut preds, &mut subst, single);
        removed += merged;
        changed |= merged > 0;
        check_reachability = forward(f, &preds);
        changed |= check_reachability;
        if !changed {
            break;
        }
    }
    subst.apply(f);
    removed
}

/// Deletes blocks unreachable from the entry, first dropping the phi
/// incomings of live blocks that name a dead (or already removed)
/// predecessor. Returns the number of deleted blocks.
fn remove_unreachable(f: &mut Function) -> usize {
    let mut live = vec![false; f.block_slots()];
    let mut stack = vec![f.entry()];
    live[f.entry().index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.successors() {
            if !live[s.index()] {
                live[s.index()] = true;
                stack.push(s);
            }
        }
    }
    let all: Vec<BlockId> = f.block_ids().collect();
    let dead: Vec<BlockId> = all.iter().copied().filter(|b| !live[b.index()]).collect();
    if dead.is_empty() {
        return 0;
    }
    for &b in all.iter().filter(|b| live[b.index()]) {
        for k in 0..f.block(b).insts.len() {
            let i = f.block(b).insts[k];
            if let InstKind::Phi { incoming, .. } = f.inst_mut(i) {
                incoming.retain(|(p, _)| live.get(p.index()).copied().unwrap_or(false));
            }
        }
    }
    f.remove_blocks(&dead);
    dead.len()
}

/// Whether `b` is an empty non-entry block whose unconditional branch
/// forwarding would rewire: its target is another block with no phis.
fn is_forwarder(f: &Function, b: BlockId) -> Option<BlockId> {
    let data = f.block(b);
    match data.term {
        Terminator::Br(t)
            if t != b && b != f.entry() && data.insts.is_empty() && !has_phi(f, t) =>
        {
            Some(t)
        }
        _ => None,
    }
}

fn has_phi(f: &Function, b: BlockId) -> bool {
    f.block(b)
        .insts
        .first()
        .is_some_and(|&i| matches!(f.inst(i), InstKind::Phi { .. }))
}

fn has_forwarder(f: &Function) -> bool {
    f.block_ids().any(|b| is_forwarder(f, b).is_some())
}

/// The predecessor `b` can be merged into: its only predecessor, when
/// that block ends in an unconditional branch to `b`.
fn merge_target(f: &Function, preds: &[Vec<BlockId>], b: BlockId) -> Option<BlockId> {
    match preds[b.index()].as_slice() {
        &[p] if p != b && b != f.entry() && f.block(p).term == Terminator::Br(b) => Some(p),
        _ => None,
    }
}

/// Merges blocks into their predecessors in the order that repeatedly
/// merging the first mergeable block in layout order gives: a min-heap
/// of layout positions holds every block that may be mergeable, and a
/// merge re-queues the blocks whose predecessor it changed. Stops after
/// one merge when `single`, and otherwise as soon as a merge leaves the
/// surviving block a forwarder (forwarding must see it before the next
/// merge). Returns the number of merged blocks.
fn merge_blocks(
    f: &mut Function,
    preds: &mut [Vec<BlockId>],
    subst: &mut PhiSubst,
    single: bool,
) -> usize {
    let layout: Vec<BlockId> = f.block_ids().collect();
    let mut position = vec![0usize; f.block_slots()];
    for (k, &b) in layout.iter().enumerate() {
        position[b.index()] = k;
    }
    let mut heap: BinaryHeap<Reverse<usize>> = (0..layout.len()).map(Reverse).collect();
    let mut merged: Vec<BlockId> = Vec::new();
    while let Some(Reverse(k)) = heap.pop() {
        let b = layout[k];
        let Some(p) = merge_target(f, preds, b) else {
            continue;
        };
        merge(f, preds, subst, p, b);
        merged.push(b);
        if single || is_forwarder(f, p).is_some() {
            break;
        }
        heap.extend(
            f.block(p)
                .term
                .successors()
                .into_iter()
                .map(|s| Reverse(position[s.index()])),
        );
    }
    f.remove_blocks(&merged);
    merged.len()
}

/// Moves `b`'s code and terminator into its only predecessor `p`. `b`'s
/// phis (one incoming at most) are deleted and queued for substitution;
/// `b`'s successors now name `p` in their phis and predecessor lists.
/// The caller removes `b` itself.
fn merge(
    f: &mut Function,
    preds: &mut [Vec<BlockId>],
    subst: &mut PhiSubst,
    p: BlockId,
    b: BlockId,
) {
    let insts = std::mem::take(&mut f.block_mut(b).insts);
    let mut moved = Vec::with_capacity(insts.len());
    for i in insts {
        if let InstKind::Phi { ty, incoming } = f.inst(i) {
            assert!(incoming.len() <= 1, "single-pred block with multi-phi");
            let v = incoming.first().map_or(Value::Undef(*ty), |&(_, v)| v);
            if subst.value.is_empty() {
                subst.value = vec![None; f.inst_slots()];
            }
            subst.value[i.index()] = Some(v);
            subst.phis.push(i);
        } else {
            moved.push(i);
        }
    }
    let term = std::mem::replace(&mut f.block_mut(b).term, Terminator::Unreachable);
    f.block_mut(p).insts.extend(moved);
    f.block_mut(p).term = term;
    preds[b.index()].clear();
    for s in f.block(p).term.successors() {
        for q in preds[s.index()].iter_mut() {
            if *q == b {
                *q = p;
            }
        }
        for k in 0..f.block(s).insts.len() {
            let i = f.block(s).insts[k];
            if let InstKind::Phi { incoming, .. } = f.inst_mut(i) {
                for (pred, _) in incoming.iter_mut() {
                    if *pred == b {
                        *pred = p;
                    }
                }
            }
        }
    }
}

/// Rewires every predecessor of every forwarder straight to the
/// forwarder's target. Forwarders and their predecessors are taken
/// before any rewiring, as one simultaneous step. Returns whether any
/// branch changed.
fn forward(f: &mut Function, preds: &[Vec<BlockId>]) -> bool {
    let rewires: Vec<(BlockId, BlockId, BlockId)> = f
        .block_ids()
        .filter_map(|b| is_forwarder(f, b).map(|t| (b, t)))
        .flat_map(|(b, t)| preds[b.index()].iter().map(move |&p| (p, b, t)))
        .collect();
    for &(p, b, t) in &rewires {
        f.block_mut(p)
            .term
            .map_successors(|s| if s == b { t } else { s });
    }
    !rewires.is_empty()
}

impl PhiSubst {
    /// Replaces every use of a deleted phi by its incoming value
    /// (following phis whose value is itself a deleted phi) and frees
    /// the phis.
    fn apply(self, f: &mut Function) {
        if self.phis.is_empty() {
            return;
        }
        let value = &self.value;
        let resolve = |mut v: Value| {
            // A chain visits each deleted phi at most once.
            for _ in 0..=self.phis.len() {
                match v {
                    Value::Inst(i) => match value[i.index()] {
                        Some(next) if next != v => v = next,
                        _ => break,
                    },
                    _ => break,
                }
            }
            v
        };
        f.map_all_operands(resolve);
        f.remove_insts(&self.phis);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, Function, Type, Value};

    #[test]
    fn removes_unreachable_block() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        assert!(run(&mut m) >= 1);
        assert_eq!(m.func(f).num_blocks(), 1);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn merges_straight_line_chain() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let b2 = b.new_block();
        let b3 = b.new_block();
        b.br(b2);
        b.switch_to(b2);
        let v = b.bin(omp_ir::BinOp::Add, Type::I32, Value::i32(1), Value::i32(2));
        b.br(b3);
        b.switch_to(b3);
        b.ret(Some(v));
        run(&mut m);
        assert_eq!(m.func(f).num_blocks(), 1);
        omp_ir::verifier::assert_valid(&m);
    }

    #[test]
    fn phi_cleanup_on_dead_predecessor() {
        // entry -> join; dead -> join (dead is unreachable) with a phi in
        // join mentioning both.
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::I32));
        let mut b = Builder::at_entry(&mut m, f);
        let entry = b.current_block();
        let dead = b.new_block();
        let join = b.new_block();
        b.br(join);
        b.switch_to(dead);
        b.br(join);
        b.switch_to(join);
        let p = b.phi(Type::I32);
        b.add_phi_incoming(p, entry, Value::i32(1));
        b.add_phi_incoming(p, dead, Value::i32(2));
        b.ret(Some(p));
        run(&mut m);
        omp_ir::verifier::assert_valid(&m);
        // After cleanup the phi has one incoming and (after merging)
        // may be gone entirely; verify the function still returns 1 by
        // checking no reference to constant 2 remains.
        let fun = m.func(f);
        let mut has_two = false;
        fun.for_each_inst(|_, _, k| {
            k.for_each_operand(|v| has_two |= v == Value::i32(2));
        });
        assert!(!has_two);
    }

    #[test]
    fn forwards_through_empty_block() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I1], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let hop = b.new_block();
        let target = b.new_block();
        b.cond_br(Value::Arg(0), hop, target);
        b.switch_to(hop);
        b.br(target);
        b.switch_to(target);
        b.ret(None);
        run(&mut m);
        let fun = m.func(f);
        // hop is gone; entry branches straight to target (condbr with
        // both edges to target is folded by constprop, not here).
        assert!(fun.num_blocks() <= 2);
        omp_ir::verifier::assert_valid(&m);
    }
}
