//! Ergonomic construction of [`Program`]s.
//!
//! [`ProgramBuilder`] manages the function table, forward declarations
//! (needed for mutual recursion, e.g. the paper's Fig. 3 Ex. 2), and the
//! initial data segment with a simple bump allocator. [`FuncBuilder`] builds
//! one function: it tracks a *current block*, offers one method per opcode,
//! and provides the structured [`FuncBuilder::for_loop`] /
//! [`FuncBuilder::while_loop`] helpers used pervasively by the `rodinia`
//! workload crate.

use crate::*;

/// Builds a [`Program`] incrementally.
#[derive(Debug)]
pub struct ProgramBuilder {
    prog: Program,
    /// Bump pointer for [`ProgramBuilder::alloc`]; starts past address 0 so
    /// that "null" (0) is never a valid array base.
    next_addr: u64,
}

impl ProgramBuilder {
    /// Create an empty program with the given name.
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            prog: Program {
                name: name.to_string(),
                ..Program::default()
            },
            next_addr: 0x1000,
        }
    }

    /// Forward-declare a function (for mutual recursion / out-of-order
    /// definition). The placeholder traps if executed before definition.
    pub fn declare(&mut self, name: &str, n_params: u32) -> FuncId {
        let id = FuncId(self.prog.funcs.len() as u32);
        self.prog.funcs.push(Function {
            name: name.to_string(),
            n_params,
            n_regs: n_params,
            blocks: vec![Block {
                name: "entry".into(),
                instrs: vec![],
                term: Terminator::Unreachable,
                src_line: 0,
            }],
            src_file: format!("{}.c", self.prog.name),
        });
        id
    }

    /// Start building a new function (or the body of a previously declared
    /// one with the same name). Finish it with [`FuncBuilder::finish`].
    pub fn func(&mut self, name: &str, n_params: u32) -> FuncBuilder<'_> {
        let id = match self.prog.func_by_name(name) {
            Some(id) => {
                assert_eq!(
                    self.prog.func(id).n_params,
                    n_params,
                    "re-definition of {name} with different arity"
                );
                id
            }
            None => self.declare(name, n_params),
        };
        let src_file = self.prog.func(id).src_file.clone();
        FuncBuilder {
            pb: self,
            id,
            func: Function {
                name: name.to_string(),
                n_params,
                n_regs: n_params,
                blocks: vec![Block {
                    name: "entry".into(),
                    instrs: vec![],
                    term: Terminator::Unreachable,
                    src_line: 0,
                }],
                src_file,
            },
            cur: LocalBlockId(0),
            line: 1,
        }
    }

    /// Set the program entry point.
    pub fn set_entry(&mut self, f: FuncId) {
        self.prog.entry = Some(f);
    }

    /// Reserve `len` words of memory; returns the base address.
    pub fn alloc(&mut self, len: u64) -> u64 {
        let base = self.next_addr;
        self.next_addr += len.max(1);
        base
    }

    /// Reserve memory and initialize it with float data.
    pub fn array_f64(&mut self, data: &[f64]) -> u64 {
        let base = self.alloc(data.len() as u64);
        for (i, &v) in data.iter().enumerate() {
            self.prog.data.push((base + i as u64, Value::F64(v)));
        }
        base
    }

    /// Reserve memory and initialize it with integer data.
    pub fn array_i64(&mut self, data: &[i64]) -> u64 {
        let base = self.alloc(data.len() as u64);
        for (i, &v) in data.iter().enumerate() {
            self.prog.data.push((base + i as u64, Value::I64(v)));
        }
        base
    }

    /// Finalize and return the program.
    pub fn finish(self) -> Program {
        self.prog
    }
}

/// Builds one [`Function`]; created by [`ProgramBuilder::func`].
#[derive(Debug)]
pub struct FuncBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    id: FuncId,
    func: Function,
    cur: LocalBlockId,
    line: u32,
}

impl<'a> FuncBuilder<'a> {
    /// The id this function will have in the program (valid immediately, so
    /// recursive calls can target it while the body is being built).
    pub fn id(&self) -> FuncId {
        self.id
    }

    /// Create a new, empty block and return its id (does not switch to it).
    pub fn block(&mut self, name: &str) -> LocalBlockId {
        let id = LocalBlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block {
            name: name.to_string(),
            instrs: vec![],
            term: Terminator::Unreachable,
            src_line: self.line,
        });
        id
    }

    /// Make `b` the current block: subsequent instructions append to it.
    pub fn switch_to(&mut self, b: LocalBlockId) {
        self.cur = b;
    }

    /// The current block.
    pub fn current(&self) -> LocalBlockId {
        self.cur
    }

    /// Set the "source line" attribution for subsequently created blocks
    /// (debug-info stand-in used by feedback reports).
    pub fn at_line(&mut self, line: u32) {
        self.line = line;
        self.func.blocks[self.cur.0 as usize].src_line = line;
    }

    /// Allocate a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.func.n_regs);
        self.func.n_regs += 1;
        r
    }

    /// Parameter register `i` (parameters occupy registers `0..n_params`).
    pub fn param(&self, i: u32) -> Reg {
        assert!(i < self.func.n_params, "parameter index out of range");
        Reg(i)
    }

    /// Append a raw instruction to the current block.
    pub fn raw_instr(&mut self, i: Instr) {
        self.func.blocks[self.cur.0 as usize].instrs.push(i);
    }

    /// `dst = value` into a fresh register.
    pub fn const_i(&mut self, v: i64) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::Const {
            dst,
            value: Value::I64(v),
        });
        dst
    }

    /// `dst = value` (float) into a fresh register.
    pub fn const_f(&mut self, v: f64) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::Const {
            dst,
            value: Value::F64(v),
        });
        dst
    }

    /// Copy an operand into a fresh register.
    pub fn mov(&mut self, src: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::Move {
            dst,
            src: src.into(),
        });
        dst
    }

    /// Copy an operand into an existing register.
    pub fn mov_to(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.raw_instr(Instr::Move {
            dst,
            src: src.into(),
        });
    }

    /// Integer binary operation into a fresh register.
    pub fn iop(&mut self, op: IBinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::IOp {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Integer binary operation into an existing register.
    pub fn iop_to(&mut self, dst: Reg, op: IBinOp, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.raw_instr(Instr::IOp {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
    }

    /// `a + b` (integers).
    pub fn add(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.iop(IBinOp::Add, a, b)
    }

    /// `a - b` (integers).
    pub fn sub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.iop(IBinOp::Sub, a, b)
    }

    /// `a * b` (integers).
    pub fn mul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.iop(IBinOp::Mul, a, b)
    }

    /// `a % b` (integers).
    pub fn rem(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.iop(IBinOp::Rem, a, b)
    }

    /// `a / b` (integers).
    pub fn div(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.iop(IBinOp::Div, a, b)
    }

    /// Float binary operation into a fresh register.
    pub fn fop(&mut self, op: FBinOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::FOp {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Float binary operation into an existing register.
    pub fn fop_to(&mut self, dst: Reg, op: FBinOp, a: impl Into<Operand>, b: impl Into<Operand>) {
        self.raw_instr(Instr::FOp {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
    }

    /// `a + b` (floats).
    pub fn fadd(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.fop(FBinOp::Add, a, b)
    }

    /// `a * b` (floats).
    pub fn fmul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.fop(FBinOp::Mul, a, b)
    }

    /// `a - b` (floats).
    pub fn fsub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.fop(FBinOp::Sub, a, b)
    }

    /// `a / b` (floats).
    pub fn fdiv(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.fop(FBinOp::Div, a, b)
    }

    /// Integer comparison producing 0/1.
    pub fn icmp(&mut self, op: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::ICmp {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Float comparison producing 0/1.
    pub fn fcmp(&mut self, op: CmpOp, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::FCmp {
            dst,
            op,
            a: a.into(),
            b: b.into(),
        });
        dst
    }

    /// Unary operation / intrinsic.
    pub fn un(&mut self, op: UnOp, a: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::Un {
            dst,
            op,
            a: a.into(),
        });
        dst
    }

    /// `mem[base + offset]` into a fresh register.
    pub fn load(&mut self, base: impl Into<Operand>, offset: impl Into<Operand>) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::Load {
            dst,
            base: base.into(),
            offset: offset.into(),
        });
        dst
    }

    /// `mem[base + offset] = src`.
    pub fn store(
        &mut self,
        base: impl Into<Operand>,
        offset: impl Into<Operand>,
        src: impl Into<Operand>,
    ) {
        self.raw_instr(Instr::Store {
            base: base.into(),
            offset: offset.into(),
            src: src.into(),
        });
    }

    /// Call with a return value.
    pub fn call(&mut self, func: FuncId, args: &[Operand]) -> Reg {
        let dst = self.reg();
        self.raw_instr(Instr::Call {
            dst: Some(dst),
            func,
            args: args.to_vec(),
        });
        dst
    }

    /// Call ignoring any return value.
    pub fn call_void(&mut self, func: FuncId, args: &[Operand]) {
        self.raw_instr(Instr::Call {
            dst: None,
            func,
            args: args.to_vec(),
        });
    }

    /// Terminate the current block with an unconditional jump.
    pub fn jump(&mut self, to: LocalBlockId) {
        self.func.blocks[self.cur.0 as usize].term = Terminator::Jump(to);
    }

    /// Terminate the current block with a conditional branch.
    pub fn br(&mut self, cond: impl Into<Operand>, then_: LocalBlockId, else_: LocalBlockId) {
        self.func.blocks[self.cur.0 as usize].term = Terminator::Br {
            cond: cond.into(),
            then_,
            else_,
        };
    }

    /// Terminate the current block with a return.
    pub fn ret(&mut self, v: Option<Operand>) {
        self.func.blocks[self.cur.0 as usize].term = Terminator::Ret(v);
    }

    /// Structured counted loop: `for (iv = lo; iv < hi; iv += step) body`.
    ///
    /// Emits the canonical header/body/latch/exit diamond the paper's loop
    /// detector expects from compiled code. The closure receives the builder
    /// positioned inside the body block plus the induction-variable register;
    /// afterwards the builder is positioned at the exit block. Returns the
    /// induction variable register (whose final value is `>= hi`).
    pub fn for_loop(
        &mut self,
        name: &str,
        lo: impl Into<Operand>,
        hi: impl Into<Operand>,
        step: i64,
        body: impl FnOnce(&mut Self, Reg),
    ) -> Reg {
        let hi = hi.into();
        let iv = self.mov(lo);
        let header = self.block(&format!("{name}.header"));
        let body_b = self.block(&format!("{name}.body"));
        let latch = self.block(&format!("{name}.latch"));
        let exit = self.block(&format!("{name}.exit"));
        self.jump(header);
        self.switch_to(header);
        let c = self.icmp(CmpOp::Lt, iv, hi);
        self.br(c, body_b, exit);
        self.switch_to(body_b);
        body(self, iv);
        self.jump(latch);
        self.switch_to(latch);
        self.iop_to(iv, IBinOp::Add, iv, step);
        self.jump(header);
        self.switch_to(exit);
        iv
    }

    /// Structured while loop: the `cond` closure (run in the header block)
    /// must return the condition register; `body` runs in the body block.
    /// The builder ends positioned at the exit block.
    pub fn while_loop(
        &mut self,
        name: &str,
        cond: impl FnOnce(&mut Self) -> Reg,
        body: impl FnOnce(&mut Self),
    ) {
        let header = self.block(&format!("{name}.header"));
        let body_b = self.block(&format!("{name}.body"));
        let exit = self.block(&format!("{name}.exit"));
        self.jump(header);
        self.switch_to(header);
        let c = cond(self);
        self.br(c, body_b, exit);
        self.switch_to(body_b);
        body(self);
        self.jump(header);
        self.switch_to(exit);
    }

    /// Structured if-then(-else). Each closure builds one arm; the builder
    /// ends positioned at the join block.
    pub fn if_else(
        &mut self,
        cond: impl Into<Operand>,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) {
        let t = self.block("if.then");
        let e = self.block("if.else");
        let join = self.block("if.join");
        self.br(cond, t, e);
        self.switch_to(t);
        then_body(self);
        self.jump(join);
        self.switch_to(e);
        else_body(self);
        self.jump(join);
        self.switch_to(join);
    }

    /// Install the finished function into the program; returns its id.
    pub fn finish(self) -> FuncId {
        let FuncBuilder { pb, id, func, .. } = self;
        pb.prog.funcs[id.0 as usize] = func;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build `sum = Σ_{i<10} i` and check the structure.
    #[test]
    fn for_loop_structure() {
        let mut pb = ProgramBuilder::new("loops");
        let mut f = pb.func("main", 0);
        let acc = f.const_i(0);
        f.for_loop("L1", 0i64, 10i64, 1, |f, iv| {
            f.iop_to(acc, IBinOp::Add, acc, iv);
        });
        f.ret(Some(acc.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        // entry + header + body + latch + exit
        assert_eq!(p.func(fid).blocks.len(), 5);
        // header has a conditional branch with two successors
        let header = &p.func(fid).blocks[1];
        assert!(matches!(header.term, Terminator::Br { .. }));
    }

    #[test]
    fn nested_loops_share_registers() {
        let mut pb = ProgramBuilder::new("loops");
        let mut f = pb.func("main", 0);
        let acc = f.const_i(0);
        f.for_loop("Li", 0i64, 4i64, 1, |f, i| {
            f.for_loop("Lj", 0i64, 4i64, 1, |f, j| {
                let t = f.mul(i, j);
                f.iop_to(acc, IBinOp::Add, acc, t);
            });
        });
        f.ret(Some(acc.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        assert!(p.validate().is_empty());
        assert_eq!(p.func(fid).blocks.len(), 9);
    }

    #[test]
    fn forward_declared_recursion() {
        let mut pb = ProgramBuilder::new("rec");
        let fib = pb.declare("fib", 1);
        let mut f = pb.func("fib", 1);
        assert_eq!(f.id(), fib);
        let n = f.param(0);
        let base = f.icmp(CmpOp::Lt, n, 2i64);
        let then_b = f.block("base");
        let else_b = f.block("rec");
        f.br(base, then_b, else_b);
        f.switch_to(then_b);
        f.ret(Some(n.into()));
        f.switch_to(else_b);
        let n1 = f.sub(n, 1i64);
        let n2 = f.sub(n, 2i64);
        let a = f.call(fib, &[n1.into()]);
        let b = f.call(fib, &[n2.into()]);
        let s = f.add(a, b);
        f.ret(Some(s.into()));
        f.finish();
        let mut m = pb.func("main", 0);
        let ten = m.const_i(10);
        let r = m.call(fib, &[ten.into()]);
        m.ret(Some(r.into()));
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        assert!(p.validate().is_empty(), "{:?}", p.validate());
    }

    #[test]
    fn if_else_structure() {
        let mut pb = ProgramBuilder::new("cond");
        let mut f = pb.func("main", 0);
        let x = f.const_i(5);
        let c = f.icmp(CmpOp::Gt, x, 3i64);
        let out = f.const_i(0);
        f.if_else(c, |f| f.mov_to(out, 1i64), |f| f.mov_to(out, 2i64));
        f.ret(Some(out.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        assert!(p.validate().is_empty());
        assert_eq!(p.func(fid).blocks.len(), 4);
    }

    #[test]
    fn data_segment_alloc() {
        let mut pb = ProgramBuilder::new("data");
        let a = pb.array_f64(&[1.0, 2.0, 3.0]);
        let b = pb.array_i64(&[7, 8]);
        assert!(b >= a + 3);
        let mut f = pb.func("main", 0);
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        assert_eq!(p.data.len(), 5);
        assert_eq!(p.data[0], (a, Value::F64(1.0)));
        assert_eq!(p.data[3], (b, Value::I64(7)));
    }
}
