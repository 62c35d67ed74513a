//! Dominator tree computation (Cooper–Harvey–Kennedy).

use crate::function::Function;
use crate::value::BlockId;

/// Marks a block without dominator information (unreachable or not a
/// block of the function) in the per-block tables.
const NONE: u32 = u32::MAX;

/// The dominator tree of a function's CFG.
///
/// Blocks unreachable from the entry have no dominator information and
/// are reported as not dominated by (and not dominating) anything except
/// themselves. Per-block facts live in tables indexed by
/// [`BlockId::index`], so every query is a constant-time lookup.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Reverse postorder of reachable blocks (entry first).
    pub rpo: Vec<BlockId>,
    /// Immediate dominator per block (the entry is its own); `NONE` for
    /// unreachable blocks.
    idom: Vec<u32>,
    /// Position in `rpo` per block; `NONE` for unreachable blocks.
    rpo_index: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function) -> DomTree {
        let entry = f.entry();
        let slots = f.block_slots();
        // DFS postorder.
        let mut post = Vec::new();
        let mut seen = vec![false; slots];
        let mut stack = vec![(entry, 0usize)];
        seen[entry.index()] = true;
        while let Some((b, i)) = stack.pop() {
            let succs = f.block(b).term.successors();
            if i < succs.len() {
                stack.push((b, i + 1));
                let s = succs[i];
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![NONE; slots];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i as u32;
        }

        let preds = f.predecessor_table();
        let mut idom = vec![NONE; slots];
        idom[entry.index()] = entry.0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = NONE;
                for &p in &preds[b.index()] {
                    if idom[p.index()] == NONE {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = if new_idom == NONE {
                        p.0
                    } else {
                        Self::intersect(&idom, &rpo_index, p.0, new_idom)
                    };
                }
                if new_idom != NONE && idom[b.index()] != new_idom {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        DomTree {
            rpo,
            idom,
            rpo_index,
        }
    }

    fn intersect(idom: &[u32], rpo_index: &[u32], mut a: u32, mut b: u32) -> u32 {
        while a != b {
            while rpo_index[a as usize] > rpo_index[b as usize] {
                a = idom[a as usize];
            }
            while rpo_index[b as usize] > rpo_index[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    }

    /// The raw immediate dominator of a reachable block (the entry's is
    /// itself).
    fn idom_raw(&self, b: BlockId) -> BlockId {
        BlockId(self.idom[b.index()])
    }

    /// The immediate dominator of `b` (`None` for the entry block and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.rpo_index.get(b.index()) {
            Some(&i) if i != NONE && i != 0 => Some(self.idom_raw(b)),
            _ => None,
        }
    }

    /// Whether block `a` dominates block `b`.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return a == b;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let next = self.idom_raw(cur);
            if next == cur {
                return false; // reached entry
            }
            cur = next;
        }
    }

    /// Whether `b` is reachable from the entry block.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index.get(b.index()).is_some_and(|&i| i != NONE)
    }

    /// The dominance frontier of every block, indexed by
    /// [`BlockId::index`] (length [`Function::block_slots`]).
    /// Unreachable blocks have empty frontiers.
    pub fn dominance_frontiers(&self, f: &Function) -> Vec<Vec<BlockId>> {
        let preds = f.predecessor_table();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); self.idom.len()];
        for &b in &self.rpo {
            let ps = &preds[b.index()];
            if ps.len() < 2 {
                continue;
            }
            let b_idom = self.idom_raw(b);
            for &p in ps {
                if !self.is_reachable(p) {
                    continue;
                }
                let mut runner = p;
                while runner != b_idom {
                    let e = &mut df[runner.index()];
                    // `b` is pushed for every runner before moving on
                    // to the next block, so it can only be the last.
                    if e.last() != Some(&b) {
                        e.push(b);
                    }
                    let next = self.idom_raw(runner);
                    if next == runner {
                        break;
                    }
                    runner = next;
                }
            }
        }
        df
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Terminator;
    use crate::types::Type;
    use crate::value::Value;

    /// Builds the classic diamond: entry -> (a | b) -> join.
    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        let mut f = Function::definition("d", vec![], Type::Void);
        let e = f.entry();
        let a = f.add_block();
        let b = f.add_block();
        let j = f.add_block();
        f.block_mut(e).term = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: a,
            else_bb: b,
        };
        f.block_mut(a).term = Terminator::Br(j);
        f.block_mut(b).term = Terminator::Br(j);
        f.block_mut(j).term = Terminator::Ret(None);
        (f, e, a, b, j)
    }

    #[test]
    fn diamond_dominators() {
        let (f, e, a, b, j) = diamond();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(e), None);
        assert_eq!(dt.idom(a), Some(e));
        assert_eq!(dt.idom(b), Some(e));
        assert_eq!(dt.idom(j), Some(e));
        assert!(dt.dominates(e, j));
        assert!(!dt.dominates(a, j));
        assert!(dt.dominates(a, a));
    }

    #[test]
    fn dominance_frontiers_of_diamond() {
        let (f, e, a, b, j) = diamond();
        let dt = DomTree::compute(&f);
        let df = dt.dominance_frontiers(&f);
        assert_eq!(df[a.index()], vec![j]);
        assert_eq!(df[b.index()], vec![j]);
        assert!(df[e.index()].is_empty());
        assert!(df[j.index()].is_empty());
    }

    #[test]
    fn loop_dominators() {
        // entry -> header <-> body; header -> exit
        let mut f = Function::definition("l", vec![], Type::Void);
        let e = f.entry();
        let h = f.add_block();
        let body = f.add_block();
        let x = f.add_block();
        f.block_mut(e).term = Terminator::Br(h);
        f.block_mut(h).term = Terminator::CondBr {
            cond: Value::bool(true),
            then_bb: body,
            else_bb: x,
        };
        f.block_mut(body).term = Terminator::Br(h);
        f.block_mut(x).term = Terminator::Ret(None);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(h), Some(e));
        assert_eq!(dt.idom(body), Some(h));
        assert_eq!(dt.idom(x), Some(h));
        assert!(dt.dominates(h, body));
        assert!(!dt.dominates(body, x));
        // back-edge gives header a frontier containing itself
        let df = dt.dominance_frontiers(&f);
        assert!(df[body.index()].contains(&h));
        assert!(df[h.index()].contains(&h));
    }

    #[test]
    fn unreachable_blocks_are_handled() {
        let mut f = Function::definition("u", vec![], Type::Void);
        let e = f.entry();
        let dead = f.add_block();
        f.block_mut(e).term = Terminator::Ret(None);
        f.block_mut(dead).term = Terminator::Ret(None);
        let dt = DomTree::compute(&f);
        assert!(dt.is_reachable(e));
        assert!(!dt.is_reachable(dead));
        assert!(!dt.dominates(e, dead));
        assert!(dt.dominates(dead, dead));
        assert_eq!(dt.rpo, vec![e]);
    }
}
