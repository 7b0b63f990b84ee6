//! # polyir — the PolyVM intermediate representation
//!
//! This crate is the "binary program" substrate of poly-prof-rs. The PPoPP'19
//! paper profiles x86 binaries through QEMU; everything the profiler observes
//! is (a) control transfers (jump / call / return), (b) the values produced by
//! instructions, and (c) the memory addresses they touch. `polyir` defines a
//! compact register-machine ISA with exactly those observables so the rest of
//! the pipeline (loop-forest construction, dynamic IIVs, shadow memory,
//! folding) runs unchanged on real dynamic behaviour.
//!
//! A [`Program`] is a set of [`Function`]s made of [`Block`]s holding
//! [`Instr`]uctions and one [`Terminator`] each. Programs are conveniently
//! constructed with [`build::ProgramBuilder`] / [`build::FuncBuilder`].
//!
//! Memory is word-addressed: every address names one 64-bit cell, so an
//! access stride of `1` is the "stride-1 / unit-stride" of the paper.

pub mod build;
pub mod display;

use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a function within a [`Program`] (index into `Program::funcs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifier of a basic block within one function (index into `Function::blocks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalBlockId(pub u32);

/// Globally unique reference to a basic block: function + local block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// Owning function.
    pub func: FuncId,
    /// Block index within the function.
    pub block: LocalBlockId,
}

impl BlockRef {
    /// Convenience constructor.
    pub fn new(func: FuncId, block: u32) -> Self {
        BlockRef {
            func,
            block: LocalBlockId(block),
        }
    }
}

/// Globally unique reference to a (static) instruction.
///
/// Indices are positions inside the owning block's instruction list. The
/// block terminator is *not* an instruction (it produces no value and touches
/// no memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrRef {
    /// Owning block.
    pub block: BlockRef,
    /// Index within the block.
    pub idx: u32,
}

/// A virtual register, local to a function frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

/// A runtime value: 64-bit integer or IEEE-754 double.
///
/// Hashes its variant and its bits (`F64` through [`f64::to_bits`]), so
/// `0.0` and `-0.0` hash apart, and so do `I64` and `F64` of the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Signed 64-bit integer (also used for addresses and booleans 0/1).
    I64(i64),
    /// Double-precision float.
    F64(f64),
}

impl Value {
    /// Interpret as integer; floats are truncated.
    pub fn as_i64(self) -> i64 {
        match self {
            Value::I64(v) => v,
            Value::F64(v) => v as i64,
        }
    }
    /// Interpret as float; integers are converted.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I64(v) => v as f64,
            Value::F64(v) => v,
        }
    }
    /// True iff non-zero (integers) / non-zero and non-NaN (floats).
    pub fn is_truthy(self) -> bool {
        match self {
            Value::I64(v) => v != 0,
            Value::F64(v) => v != 0.0 && !v.is_nan(),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

/// An instruction operand: a register read or an immediate. Hashes like
/// [`Value`]: variant, then the register or the immediate's bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Read a register of the current frame.
    Reg(Reg),
    /// Integer immediate.
    ImmI(i64),
    /// Float immediate.
    ImmF(f64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}
impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ImmI(v)
    }
}
impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::ImmF(v)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Value::I64(v) => {
                state.write_u8(0);
                state.write_i64(v);
            }
            Value::F64(v) => {
                state.write_u8(1);
                state.write_u64(v.to_bits());
            }
        }
    }
}

impl Hash for Operand {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Operand::Reg(r) => {
                state.write_u8(0);
                state.write_u32(r.0);
            }
            Operand::ImmI(v) => {
                state.write_u8(1);
                state.write_i64(v);
            }
            Operand::ImmF(v) => {
                state.write_u8(2);
                state.write_u64(v.to_bits());
            }
        }
    }
}

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IBinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (defined as 0 on divide-by-zero to keep the VM total).
    Div,
    /// Remainder (0 on divide-by-zero).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (shift amount masked to 0..64).
    Shl,
    /// Arithmetic right shift (shift amount masked to 0..64).
    Shr,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Float binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Comparison predicates (shared by integer and float compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

/// Unary operators / math intrinsics (stand-ins for libm calls the paper's
/// binaries make — these are *not* `Call`s and thus do not perturb the CG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm (of the absolute value; 0 maps to 0).
    Log,
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
    /// Logistic sigmoid `1/(1+e^-x)` (backprop's `squash`).
    Sigmoid,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Float-to-int truncation.
    F2I,
    /// Int-to-float conversion.
    I2F,
}

/// A non-terminator instruction.
///
/// The `Load`/`Store` address is `base + offset` where both are evaluated as
/// integers; addresses are in words (one 64-bit cell per address).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Instr {
    /// `dst = imm`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: Value,
    },
    /// `dst = src` (register move / copy of an operand).
    Move {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = a <iop> b` on integers.
    IOp {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: IBinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = a <fop> b` on floats.
    FOp {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: FBinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = (a <cmp> b) ? 1 : 0` on integers.
    ICmp {
        /// Destination register.
        dst: Reg,
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = (a <cmp> b) ? 1 : 0` on floats.
    FCmp {
        /// Destination register.
        dst: Reg,
        /// Predicate.
        op: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = op(a)`.
    Un {
        /// Destination register.
        dst: Reg,
        /// Operator.
        op: UnOp,
        /// Operand.
        a: Operand,
    },
    /// `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address operand.
        base: Operand,
        /// Offset operand (added to base).
        offset: Operand,
    },
    /// `mem[base + offset] = src`.
    Store {
        /// Base address operand.
        base: Operand,
        /// Offset operand (added to base).
        offset: Operand,
        /// Value stored.
        src: Operand,
    },
    /// Call `func(args...)`; if the callee returns a value it lands in `dst`.
    Call {
        /// Destination register for the return value, if used.
        dst: Option<Reg>,
        /// Callee.
        func: FuncId,
        /// Argument operands (one per callee parameter).
        args: Vec<Operand>,
    },
}

impl Instr {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Move { dst, .. }
            | Instr::IOp { dst, .. }
            | Instr::FOp { dst, .. }
            | Instr::ICmp { dst, .. }
            | Instr::FCmp { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Load { dst, .. } => Some(*dst),
            Instr::Store { .. } => None,
            Instr::Call { dst, .. } => *dst,
        }
    }

    /// All registers read by this instruction, in operand order.
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.for_each_use(|r| v.push(r));
        v
    }

    /// Visit every register read by this instruction, in operand order,
    /// without allocating (the hot-path form of [`Instr::uses`]).
    #[inline]
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        let mut visit = |o: &Operand| {
            if let Operand::Reg(r) = o {
                f(*r);
            }
        };
        match self {
            Instr::Const { .. } => {}
            Instr::Move { src, .. } => visit(src),
            Instr::IOp { a, b, .. }
            | Instr::FOp { a, b, .. }
            | Instr::ICmp { a, b, .. }
            | Instr::FCmp { a, b, .. } => {
                visit(a);
                visit(b);
            }
            Instr::Un { a, .. } => visit(a),
            Instr::Load { base, offset, .. } => {
                visit(base);
                visit(offset);
            }
            Instr::Store { base, offset, src } => {
                visit(base);
                visit(offset);
                visit(src);
            }
            Instr::Call { args, .. } => {
                for a in args {
                    visit(a);
                }
            }
        }
    }

    /// True for `Load`/`Store`.
    pub fn is_mem(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Store { .. })
    }

    /// True for floating-point arithmetic (FOp, FCmp, float intrinsics).
    pub fn is_fp(&self) -> bool {
        matches!(
            self,
            Instr::FOp { .. }
                | Instr::FCmp { .. }
                | Instr::Un {
                    op: UnOp::Sqrt | UnOp::Exp | UnOp::Log | UnOp::Sigmoid | UnOp::Sin | UnOp::Cos,
                    ..
                }
        )
    }
}

/// A block terminator (control transfer).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Terminator {
    /// Unconditional jump to a block of the same function.
    Jump(LocalBlockId),
    /// Conditional branch: to `then_` if `cond` is truthy, else `else_`.
    Br {
        /// Branch condition.
        cond: Operand,
        /// Taken target.
        then_: LocalBlockId,
        /// Fallthrough target.
        else_: LocalBlockId,
    },
    /// Return from the current function, optionally with a value.
    Ret(Option<Operand>),
    /// Trap / abort execution (used for unreachable paths).
    Unreachable,
}

impl Terminator {
    /// Local successors of this terminator.
    pub fn successors(&self) -> Vec<LocalBlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Br { then_, else_, .. } => vec![*then_, *else_],
            Terminator::Ret(_) | Terminator::Unreachable => vec![],
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, Hash)]
pub struct Block {
    /// Optional human-readable label (used in dumps and feedback).
    pub name: String,
    /// Straight-line body.
    pub instrs: Vec<Instr>,
    /// Control transfer out of the block.
    pub term: Terminator,
    /// Source line attribution ("debug info"): used by the feedback stage to
    /// report `file:line` regions exactly like the paper's Tables 3–5.
    pub src_line: u32,
}

/// A function: a register frame plus a CFG of blocks; block 0 is the entry.
#[derive(Debug, Clone, Hash)]
pub struct Function {
    /// Function name (shows up in flame graphs and region reports).
    pub name: String,
    /// Number of parameters; parameters arrive in registers `0..n_params`.
    pub n_params: u32,
    /// Total registers in the frame (>= n_params).
    pub n_regs: u32,
    /// Basic blocks; index 0 is the entry block.
    pub blocks: Vec<Block>,
    /// Source file attribution for debug-info style reporting.
    pub src_file: String,
}

impl Function {
    /// The entry block of the function.
    pub fn entry(&self) -> LocalBlockId {
        LocalBlockId(0)
    }

    /// Look up a block.
    pub fn block(&self, b: LocalBlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }
}

/// A whole program: functions plus an entry point and initial data segment.
#[derive(Debug, Clone, Default, Hash)]
pub struct Program {
    /// All functions.
    pub funcs: Vec<Function>,
    /// Entry function id (`main`).
    pub entry: Option<FuncId>,
    /// Initial memory image: `(address, value)` pairs written before execution.
    pub data: Vec<(u64, Value)>,
    /// Program name (benchmark name in reports).
    pub name: String,
}

impl Program {
    /// Look up a function.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.0 as usize]
    }

    /// Look up a block by global reference.
    pub fn block(&self, b: BlockRef) -> &Block {
        self.func(b.func).block(b.block)
    }

    /// Look up an instruction by global reference.
    pub fn instr(&self, i: InstrRef) -> &Instr {
        &self.block(i.block).instrs[i.idx as usize]
    }

    /// Find a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Strict IR verifier. Checks, per function:
    ///
    /// * structure — every referenced block / register / function exists,
    ///   calls match callee arities;
    /// * **definite assignment** — on every path from the function entry,
    ///   each register is written before it is read (forward dataflow,
    ///   intersection over predecessors; parameters count as assigned,
    ///   unreachable blocks are skipped). The VM zero-initializes frames,
    ///   so a violation is not UB — but it is always a workload bug, and
    ///   the static affine pre-pass assumes the discipline;
    /// * **branch typing** — a `Br` condition must be integer-valued
    ///   (a float immediate can never be a truth value);
    /// * **return-arity consistency** — a function must not mix `Ret(Some)`
    ///   and `Ret(None)`, and a `Call` writing a destination register must
    ///   target a function that actually returns a value.
    ///
    /// Returns a list of violations (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        // Return arity per function: (has value-returns, has void-returns).
        let ret_arity: Vec<(bool, bool)> = self
            .funcs
            .iter()
            .map(|f| {
                let mut some = false;
                let mut none = false;
                for b in &f.blocks {
                    match &b.term {
                        Terminator::Ret(Some(_)) => some = true,
                        Terminator::Ret(None) => none = true,
                        _ => {}
                    }
                }
                (some, none)
            })
            .collect();
        for (fi, f) in self.funcs.iter().enumerate() {
            if f.n_params > f.n_regs {
                errs.push(format!("{}: n_params > n_regs", f.name));
            }
            if f.blocks.is_empty() {
                errs.push(format!("{}: no blocks", f.name));
            }
            let check_reg = |r: Reg, errs: &mut Vec<String>| {
                if r.0 >= f.n_regs {
                    errs.push(format!("{}: register r{} out of range", f.name, r.0));
                }
            };
            let check_op = |o: &Operand, errs: &mut Vec<String>| {
                if let Operand::Reg(r) = o {
                    if r.0 >= f.n_regs {
                        errs.push(format!("{}: register r{} out of range", f.name, r.0));
                    }
                }
            };
            for b in &f.blocks {
                for ins in &b.instrs {
                    if let Some(d) = ins.def() {
                        check_reg(d, &mut errs);
                    }
                    for u in ins.uses() {
                        check_reg(u, &mut errs);
                    }
                    if let Instr::Call { dst, func, args } = ins {
                        if func.0 as usize >= self.funcs.len() {
                            errs.push(format!("{}: call to missing function #{}", f.name, func.0));
                        } else {
                            let callee = self.func(*func);
                            if args.len() != callee.n_params as usize {
                                errs.push(format!(
                                    "{}: call to {} with {} args (expects {})",
                                    f.name,
                                    callee.name,
                                    args.len(),
                                    callee.n_params
                                ));
                            }
                            let (some, none) = ret_arity[func.0 as usize];
                            if dst.is_some() && none && !some {
                                errs.push(format!(
                                    "{}: call to {} expects a value but callee only returns void",
                                    f.name, callee.name
                                ));
                            }
                        }
                    }
                }
                match &b.term {
                    Terminator::Jump(t) if t.0 as usize >= f.blocks.len() => {
                        errs.push(format!("{}: jump to missing block b{}", f.name, t.0));
                    }
                    Terminator::Br { cond, then_, else_ } => {
                        check_op(cond, &mut errs);
                        if matches!(cond, Operand::ImmF(_)) {
                            errs.push(format!("{}: branch condition is a float immediate", f.name));
                        }
                        for t in [then_, else_] {
                            if t.0 as usize >= f.blocks.len() {
                                errs.push(format!("{}: branch to missing block b{}", f.name, t.0));
                            }
                        }
                    }
                    Terminator::Ret(Some(op)) => check_op(op, &mut errs),
                    _ => {}
                }
            }
            let (ret_some, ret_none) = ret_arity[fi];
            if ret_some && ret_none {
                errs.push(format!("{}: mixes value and void returns", f.name));
            }
            self.verify_definite_assignment(f, &mut errs);
        }
        if let Some(e) = self.entry {
            if e.0 as usize >= self.funcs.len() {
                errs.push("entry function out of range".into());
            }
        } else {
            errs.push("no entry function".into());
        }
        errs
    }

    /// Definite-assignment dataflow for one function (see [`Program::validate`]).
    ///
    /// Forward bitset dataflow: a register is *definitely assigned* at a
    /// program point if it is written on every path from the entry to that
    /// point. `in[entry]` holds only the parameters; every other block starts
    /// at ⊤ (all registers) and is refined by intersecting its predecessors'
    /// out-sets until a fixpoint. Blocks not reachable from the entry are
    /// skipped — they keep the ⊤ in-set and never execute anyway.
    fn verify_definite_assignment(&self, f: &Function, errs: &mut Vec<String>) {
        let nb = f.blocks.len();
        if nb == 0 {
            return;
        }
        let words = (f.n_regs as usize).div_ceil(64).max(1);
        // Predecessors and reachability over the local CFG.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut reachable = vec![false; nb];
        let mut stack = vec![0usize];
        reachable[0] = true;
        while let Some(b) = stack.pop() {
            for s in f.blocks[b].term.successors() {
                let s = s.0 as usize;
                if s >= nb {
                    continue; // structural error, reported elsewhere
                }
                preds[s].push(b);
                if !reachable[s] {
                    reachable[s] = true;
                    stack.push(s);
                }
            }
        }
        let set = |bits: &mut [u64], r: Reg| {
            if (r.0 as usize) < f.n_regs as usize {
                bits[r.0 as usize / 64] |= 1u64 << (r.0 % 64);
            }
        };
        let get = |bits: &[u64], r: Reg| {
            (r.0 as usize) < f.n_regs as usize && bits[r.0 as usize / 64] >> (r.0 % 64) & 1 == 1
        };
        // in-sets: entry = parameters, everything else ⊤.
        let mut in_sets = vec![vec![u64::MAX; words]; nb];
        in_sets[0] = vec![0u64; words];
        for p in 0..f.n_params {
            set(&mut in_sets[0], Reg(p));
        }
        // out[b] = in[b] ∪ defs(b); iterate in[b] = ∩ preds' out to fixpoint.
        let block_out = |in_set: &[u64], b: &Block| {
            let mut out = in_set.to_vec();
            for ins in &b.instrs {
                if let Some(d) = ins.def() {
                    set(&mut out, d);
                }
            }
            out
        };
        let mut outs: Vec<Vec<u64>> = (0..nb)
            .map(|b| block_out(&in_sets[b], &f.blocks[b]))
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..nb {
                if !reachable[b] {
                    continue;
                }
                let mut new_in = vec![u64::MAX; words];
                for &p in &preds[b] {
                    for (w, o) in new_in.iter_mut().zip(&outs[p]) {
                        *w &= o;
                    }
                }
                if new_in != in_sets[b] {
                    outs[b] = block_out(&new_in, &f.blocks[b]);
                    in_sets[b] = new_in;
                    changed = true;
                }
            }
        }
        // Linear re-scan of each reachable block, reporting first use of each
        // not-definitely-assigned register (once per register per function).
        let mut reported = vec![false; f.n_regs as usize];
        let mut complain = |r: Reg, bi: usize, errs: &mut Vec<String>| {
            if (r.0 as usize) < reported.len() && !reported[r.0 as usize] {
                reported[r.0 as usize] = true;
                errs.push(format!(
                    "{}: register r{} may be read before assignment (block b{bi})",
                    f.name, r.0
                ));
            }
        };
        for (bi, b) in f.blocks.iter().enumerate() {
            if !reachable[bi] {
                continue;
            }
            let mut live = in_sets[bi].clone();
            for ins in &b.instrs {
                for u in ins.uses() {
                    if !get(&live, u) {
                        complain(u, bi, errs);
                    }
                }
                if let Some(d) = ins.def() {
                    set(&mut live, d);
                }
            }
            let term_use = match &b.term {
                Terminator::Br {
                    cond: Operand::Reg(r),
                    ..
                } => Some(*r),
                Terminator::Ret(Some(Operand::Reg(r))) => Some(*r),
                _ => None,
            };
            if let Some(r) = term_use {
                if !get(&live, r) {
                    complain(r, bi, errs);
                }
            }
        }
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for LocalBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.func, self.block)
    }
}

impl fmt::Display for InstrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.block, self.idx)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ProgramBuilder;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::I64(3).as_f64(), 3.0);
        assert_eq!(Value::F64(3.7).as_i64(), 3);
        assert!(Value::I64(1).is_truthy());
        assert!(!Value::I64(0).is_truthy());
        assert!(!Value::F64(0.0).is_truthy());
        assert!(!Value::F64(f64::NAN).is_truthy());
    }

    #[test]
    fn instr_def_use() {
        let i = Instr::IOp {
            dst: Reg(3),
            op: IBinOp::Add,
            a: Operand::Reg(Reg(1)),
            b: Operand::ImmI(4),
        };
        assert_eq!(i.def(), Some(Reg(3)));
        assert_eq!(i.uses(), vec![Reg(1)]);
        let s = Instr::Store {
            base: Operand::Reg(Reg(0)),
            offset: Operand::Reg(Reg(1)),
            src: Operand::Reg(Reg(2)),
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![Reg(0), Reg(1), Reg(2)]);
        assert!(s.is_mem());
        assert!(!s.is_fp());
    }

    #[test]
    fn fp_classification() {
        let f = Instr::FOp {
            dst: Reg(0),
            op: FBinOp::Mul,
            a: Operand::ImmF(1.0),
            b: Operand::ImmF(2.0),
        };
        assert!(f.is_fp());
        let e = Instr::Un {
            dst: Reg(0),
            op: UnOp::Exp,
            a: Operand::ImmF(1.0),
        };
        assert!(e.is_fp());
        let n = Instr::Un {
            dst: Reg(0),
            op: UnOp::I2F,
            a: Operand::ImmI(1),
        };
        assert!(!n.is_fp());
    }

    #[test]
    fn validate_catches_bad_register() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        f.raw_instr(Instr::Move {
            dst: Reg(999),
            src: Operand::ImmI(0),
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        assert!(!p.validate().is_empty());
    }

    #[test]
    fn validate_ok_program() {
        let mut pb = ProgramBuilder::new("t");
        let mut f = pb.func("main", 0);
        let r = f.const_i(7);
        f.ret(Some(r.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        assert!(p.validate().is_empty(), "{:?}", p.validate());
    }

    #[test]
    fn validate_catches_bad_arity() {
        let mut pb = ProgramBuilder::new("t");
        let mut callee = pb.func("callee", 2);
        callee.ret(None);
        let callee_id = callee.finish();
        let mut f = pb.func("main", 0);
        f.raw_instr(Instr::Call {
            dst: None,
            func: callee_id,
            args: vec![Operand::ImmI(1)],
        });
        f.ret(None);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        assert!(p.validate().iter().any(|e| e.contains("expects 2")));
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(
            Terminator::Jump(LocalBlockId(2)).successors(),
            vec![LocalBlockId(2)]
        );
        assert_eq!(Terminator::Ret(None).successors(), vec![]);
        let br = Terminator::Br {
            cond: Operand::ImmI(1),
            then_: LocalBlockId(0),
            else_: LocalBlockId(1),
        };
        assert_eq!(br.successors().len(), 2);
    }
}
