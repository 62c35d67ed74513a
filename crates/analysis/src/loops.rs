//! Natural-loop detection over the dominator tree.
//!
//! A back edge `latch -> header` (where `header` dominates `latch`)
//! defines a natural loop: the set of blocks that can reach the latch
//! without passing through the header, plus the header itself. Back
//! edges sharing a header are merged into one loop, and loops nest by
//! block containment, forming the loop forest the classic mid-end
//! passes (LICM in particular) are built on.

use omp_ir::{BlockId, DomTree, Function};
use std::collections::HashMap;

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (the unique entry block of the loop).
    pub header: BlockId,
    /// Blocks in the loop, header included, sorted by id.
    pub blocks: Vec<BlockId>,
    /// In-loop predecessors of the header (the back-edge sources).
    pub latches: Vec<BlockId>,
    /// Index of the innermost enclosing loop, if any.
    pub parent: Option<usize>,
    /// Nesting depth (outermost loops have depth 1).
    pub depth: usize,
}

impl Loop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }
}

/// All natural loops of one function, with nesting.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops ordered by header position in reverse postorder (so outer
    /// loops precede the loops they contain).
    pub loops: Vec<Loop>,
    innermost: HashMap<BlockId, usize>,
}

impl LoopForest {
    /// Computes the loop forest of `f` using its dominator tree.
    pub fn compute(f: &Function, dom: &DomTree) -> LoopForest {
        // 1. Back edges, grouped by header, in RPO order for determinism.
        let mut latches_of: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        let mut headers: Vec<BlockId> = Vec::new();
        for &b in &dom.rpo {
            for s in f.block(b).term.successors() {
                if dom.is_reachable(s) && dom.dominates(s, b) {
                    let e = latches_of.entry(s).or_default();
                    if e.is_empty() {
                        headers.push(s);
                    }
                    if !e.contains(&b) {
                        e.push(b);
                    }
                }
            }
        }
        headers.sort_by_key(|h| dom.rpo.iter().position(|b| b == h));

        // 2. Per header: walk predecessors backwards from the latches.
        let preds = f.predecessor_table();
        let mut loops: Vec<Loop> = Vec::new();
        for header in headers {
            let latches = latches_of.remove(&header).unwrap_or_default();
            let mut blocks = vec![header];
            let mut stack: Vec<BlockId> = latches.clone();
            while let Some(b) = stack.pop() {
                if blocks.contains(&b) {
                    continue;
                }
                blocks.push(b);
                for &p in &preds[b.index()] {
                    if dom.is_reachable(p) {
                        stack.push(p);
                    }
                }
            }
            blocks.sort();
            let mut latches = latches;
            latches.sort();
            loops.push(Loop {
                header,
                blocks,
                latches,
                parent: None,
                depth: 1,
            });
        }

        // 3. Nesting: the parent of a loop is the smallest strictly
        //    containing loop. Loop bodies either nest or are disjoint,
        //    so block count orders candidates unambiguously.
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for j in 0..loops.len() {
                if i == j || !loops[j].contains(loops[i].header) {
                    continue;
                }
                if loops[j].blocks.len() <= loops[i].blocks.len() {
                    continue;
                }
                best = match best {
                    Some(b) if loops[b].blocks.len() <= loops[j].blocks.len() => Some(b),
                    _ => Some(j),
                };
            }
            loops[i].parent = best;
        }
        for i in 0..loops.len() {
            let mut d = 1;
            let mut p = loops[i].parent;
            while let Some(j) = p {
                d += 1;
                p = loops[j].parent;
            }
            loops[i].depth = d;
        }

        // 4. Innermost-loop map: deeper loops win.
        let mut innermost: HashMap<BlockId, usize> = HashMap::new();
        for (i, l) in loops.iter().enumerate() {
            for &b in &l.blocks {
                match innermost.get(&b) {
                    Some(&j) if loops[j].depth >= l.depth => {}
                    _ => {
                        innermost.insert(b, i);
                    }
                }
            }
        }
        LoopForest { loops, innermost }
    }

    /// Index of the innermost loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<usize> {
        self.innermost.get(&b).copied()
    }

    /// Loop indices ordered innermost-first (deepest nesting first,
    /// ties broken by discovery order for determinism).
    pub fn innermost_first(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.loops.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.loops[i].depth));
        order
    }

    /// Exit edges of loop `l`: `(from, to)` pairs where `from` is in the
    /// loop and `to` is not.
    pub fn exit_edges(&self, f: &Function, l: usize) -> Vec<(BlockId, BlockId)> {
        let lp = &self.loops[l];
        let mut out = Vec::new();
        for &b in &lp.blocks {
            for s in f.block(b).term.successors() {
                if !lp.contains(s) && !out.contains(&(b, s)) {
                    out.push((b, s));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_ir::{Builder, CmpOp, Function, Module, Type, Value};

    /// entry -> header { body -> header } -> exit
    fn single_loop() -> (Module, omp_ir::FuncId, BlockId, BlockId) {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I64], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.cmp(CmpOp::Slt, Type::I64, Value::Arg(0), Value::i64(10));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        (m, f, header, body)
    }

    #[test]
    fn detects_single_loop() {
        let (m, f, header, body) = single_loop();
        let func = m.func(f);
        let dom = DomTree::compute(func);
        let forest = LoopForest::compute(func, &dom);
        assert_eq!(forest.loops.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, header);
        assert!(l.contains(header) && l.contains(body));
        assert_eq!(l.latches, vec![body]);
        assert_eq!(l.depth, 1);
        assert_eq!(forest.innermost(body), Some(0));
        assert_eq!(forest.innermost(func.entry()), None);
        let exits = forest.exit_edges(func, 0);
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].0, header);
    }

    #[test]
    fn nested_loops_have_depth_and_parent() {
        // entry -> oh { ob -> ih { ib -> ih } -> latch -> oh } -> exit
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![Type::I1], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        let oh = b.new_block();
        let ob = b.new_block();
        let ih = b.new_block();
        let ib = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.br(oh);
        b.switch_to(oh);
        b.cond_br(Value::Arg(0), ob, exit);
        b.switch_to(ob);
        b.br(ih);
        b.switch_to(ih);
        b.cond_br(Value::Arg(0), ib, latch);
        b.switch_to(ib);
        b.br(ih);
        b.switch_to(latch);
        b.br(oh);
        b.switch_to(exit);
        b.ret(None);
        let func = m.func(f);
        let dom = DomTree::compute(func);
        let forest = LoopForest::compute(func, &dom);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest.loops.iter().position(|l| l.header == oh).unwrap();
        let inner = forest.loops.iter().position(|l| l.header == ih).unwrap();
        assert_eq!(forest.loops[outer].depth, 1);
        assert_eq!(forest.loops[inner].depth, 2);
        assert_eq!(forest.loops[inner].parent, Some(outer));
        assert_eq!(forest.loops[outer].parent, None);
        assert!(forest.loops[outer].contains(ih));
        assert_eq!(forest.innermost(ib), Some(inner));
        assert_eq!(forest.innermost(ob), Some(outer));
        assert_eq!(forest.innermost_first()[0], inner);
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut m = Module::new("t");
        let f = m.add_function(Function::definition("f", vec![], Type::Void));
        let mut b = Builder::at_entry(&mut m, f);
        b.ret(None);
        let func = m.func(f);
        let dom = DomTree::compute(func);
        let forest = LoopForest::compute(func, &dom);
        assert!(forest.loops.is_empty());
        assert!(forest.innermost_first().is_empty());
    }
}
