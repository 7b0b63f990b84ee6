//! Classic calling-context tree (Ammons–Ball–Larus), paper Fig. 3h / Fig. 5.
//!
//! Kept for comparison with the dynamic schedule tree: the CCT encodes call
//! contexts but no loops, and — the paper's key criticism — its *paths grow
//! linearly with recursion depth*, which the dynamic IIV avoids by folding
//! recursive components into a single dimension. The tests demonstrate
//! exactly that contrast.

use polyir::{BlockRef, FuncId, InstrRef, Value};
use std::collections::HashMap;

/// One CCT node: a function activated from a particular call site under a
/// particular parent context.
#[derive(Debug, Clone)]
pub struct CctNode {
    /// The function this node represents.
    pub func: FuncId,
    /// The call site (caller block), `None` for the root.
    pub call_site: Option<BlockRef>,
    /// Children in first-call order.
    pub children: Vec<usize>,
    /// Dynamic instructions executed directly in this context.
    pub weight: u64,
    index: HashMap<(BlockRef, FuncId), usize>,
}

/// Calling-context tree builder; implements [`polyvm::EventSink`] so it can
/// be attached directly to an instrumented run.
#[derive(Debug)]
pub struct Cct {
    nodes: Vec<CctNode>,
    stack: Vec<usize>,
}

impl Cct {
    /// Create a CCT rooted at the program entry function.
    pub fn new(root: FuncId) -> Self {
        Cct {
            nodes: vec![CctNode {
                func: root,
                call_site: None,
                children: Vec::new(),
                weight: 0,
                index: HashMap::new(),
            }],
            stack: vec![0],
        }
    }

    /// Node accessor (0 = root).
    pub fn node(&self, i: usize) -> &CctNode {
        &self.nodes[i]
    }

    /// Total number of contexts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if only the root context exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Maximum context-path length (root = 1).
    pub fn max_depth(&self) -> usize {
        fn depth(c: &Cct, n: usize) -> usize {
            1 + c.nodes[n]
                .children
                .iter()
                .map(|&k| depth(c, k))
                .max()
                .unwrap_or(0)
        }
        depth(self, 0)
    }
}

impl polyvm::EventSink for Cct {
    fn call(&mut self, callsite: BlockRef, callee: FuncId, _entry: BlockRef) {
        let cur = *self.stack.last().expect("CCT stack never empty");
        let key = (callsite, callee);
        let child = match self.nodes[cur].index.get(&key) {
            Some(&c) => c,
            None => {
                let c = self.nodes.len();
                self.nodes.push(CctNode {
                    func: callee,
                    call_site: Some(callsite),
                    children: Vec::new(),
                    weight: 0,
                    index: HashMap::new(),
                });
                self.nodes[cur].children.push(c);
                self.nodes[cur].index.insert(key, c);
                c
            }
        };
        self.stack.push(child);
    }

    fn ret(&mut self, _from: FuncId, _to: Option<BlockRef>) {
        if self.stack.len() > 1 {
            self.stack.pop();
        }
    }

    fn exec(&mut self, _instr: InstrRef, _value: Option<Value>) {
        let cur = *self.stack.last().expect("CCT stack never empty");
        self.nodes[cur].weight += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::build::ProgramBuilder;
    use polyir::CmpOp;
    use polyvm::Vm;

    #[test]
    fn cct_disambiguates_call_sites() {
        let mut pb = ProgramBuilder::new("t");
        let mut h = pb.func("helper", 0);
        h.const_i(1);
        h.ret(None);
        let h_id = h.finish();
        let mut m = pb.func("main", 0);
        m.call_void(h_id, &[]); // site 1 (entry block)
        let b2 = m.block("second");
        m.jump(b2);
        m.switch_to(b2);
        m.call_void(h_id, &[]); // site 2 (different block)
        m.ret(None);
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        let mut cct = Cct::new(mid);
        Vm::new(&p).run(&[], &mut cct).unwrap();
        // root + two distinct helper contexts
        assert_eq!(cct.len(), 3);
        assert_eq!(cct.node(0).children.len(), 2);
    }

    /// The paper's complaint: CCT depth grows with recursion depth, while
    /// the dynamic IIV stays at a constant number of dimensions.
    #[test]
    fn cct_depth_grows_with_recursion() {
        for n in [3i64, 6, 9] {
            let mut pb = ProgramBuilder::new("rec");
            let r = pb.declare("r", 1);
            let mut f = pb.func("r", 1);
            let p0 = f.param(0);
            let c = f.icmp(CmpOp::Le, p0, 0i64);
            let done = f.block("done");
            let go = f.block("go");
            f.br(c, done, go);
            f.switch_to(done);
            f.ret(None);
            f.switch_to(go);
            let n1 = f.sub(p0, 1i64);
            f.call_void(r, &[n1.into()]);
            f.jump(done);
            f.finish();
            let mut m = pb.func("main", 0);
            let k = m.const_i(n);
            m.call_void(r, &[k.into()]);
            m.ret(None);
            let mid = m.finish();
            pb.set_entry(mid);
            let p = pb.finish();
            let mut cct = Cct::new(mid);
            Vm::new(&p).run(&[], &mut cct).unwrap();
            // depth = root + n+1 activations of r
            assert_eq!(cct.max_depth() as i64, 1 + n + 1);
        }
    }

    #[test]
    fn repeated_same_site_calls_share_a_node() {
        let mut pb = ProgramBuilder::new("t");
        let mut h = pb.func("helper", 0);
        h.const_i(1);
        h.ret(None);
        let h_id = h.finish();
        let mut m = pb.func("main", 0);
        m.for_loop("L", 0i64, 100i64, 1, |f, _| {
            f.call_void(h_id, &[]);
        });
        m.ret(None);
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        let mut cct = Cct::new(mid);
        Vm::new(&p).run(&[], &mut cct).unwrap();
        assert_eq!(
            cct.len(),
            2,
            "100 calls from one site fold into one context"
        );
        assert_eq!(
            cct.node(1).weight,
            100,
            "helper executes 1 instr × 100 calls"
        );
    }
}
