//! # polyvm — instrumenting interpreter for the PolyVM ISA
//!
//! Stand-in for the paper's QEMU-plugin dynamic binary instrumentation
//! (§3, "Instrumentation I/II"). The interpreter executes a
//! [`polyir::Program`] and reports, through the [`EventSink`] trait, exactly
//! the observables the paper's plugins report:
//!
//! * **control events** — local jumps, calls (with the call-site block and
//!   the callee entry block) and returns (with the block execution resumes
//!   in), the raw alphabet consumed by Alg. 1/2 of the paper;
//! * **instruction events** — every dynamic instruction with the value it
//!   produced (used for SCEV recognition and folding labels);
//! * **memory events** — every load/store with its word address (used by the
//!   shadow memory to derive data dependences, and by the stride analysis).
//!
//! Profiling is *streaming*: no trace is ever materialized, mirroring the
//! paper's online pipeline. Stages are composed by nesting sinks.

use polyir::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

pub mod sinks;

// ---------------------------------------------------------------------------
// Opcode telemetry
// ---------------------------------------------------------------------------

/// Number of distinct opcode slots: `Const`, `Move`, every `IBinOp`,
/// `FBinOp`, integer and float `CmpOp`, every `UnOp`, `Load`, `Store`,
/// `Call`.
pub const N_OPCODES: usize = 45;

/// Stable display names, indexed by [`opcode_slot`].
pub static OPCODE_NAMES: [&str; N_OPCODES] = [
    "const",
    "move",
    "iop.add",
    "iop.sub",
    "iop.mul",
    "iop.div",
    "iop.rem",
    "iop.and",
    "iop.or",
    "iop.xor",
    "iop.shl",
    "iop.shr",
    "iop.min",
    "iop.max",
    "fop.add",
    "fop.sub",
    "fop.mul",
    "fop.div",
    "fop.min",
    "fop.max",
    "icmp.eq",
    "icmp.ne",
    "icmp.lt",
    "icmp.le",
    "icmp.gt",
    "icmp.ge",
    "fcmp.eq",
    "fcmp.ne",
    "fcmp.lt",
    "fcmp.le",
    "fcmp.gt",
    "fcmp.ge",
    "un.sqrt",
    "un.exp",
    "un.log",
    "un.abs",
    "un.neg",
    "un.sigmoid",
    "un.sin",
    "un.cos",
    "un.f2i",
    "un.i2f",
    "load",
    "store",
    "call",
];

/// Dense telemetry slot of an instruction (sub-opcode resolution: every
/// binary/compare/unary operator gets its own slot).
#[inline]
pub fn opcode_slot(ins: &Instr) -> usize {
    match ins {
        Instr::Const { .. } => 0,
        Instr::Move { .. } => 1,
        Instr::IOp { op, .. } => 2 + *op as usize,
        Instr::FOp { op, .. } => 14 + *op as usize,
        Instr::ICmp { op, .. } => 20 + *op as usize,
        Instr::FCmp { op, .. } => 26 + *op as usize,
        Instr::Un { op, .. } => 32 + *op as usize,
        Instr::Load { .. } => 42,
        Instr::Store { .. } => 43,
        Instr::Call { .. } => 44,
    }
}

/// How often the dispatch-time histogram samples when enabled: one timed
/// dispatch per 64 dynamic instructions bounds the clock-read overhead to a
/// fraction of a nanosecond per instruction.
const DISPATCH_SAMPLE_MASK: u64 = 0x3F;

/// Per-opcode dispatch telemetry of one VM run — the input signal for
/// future dispatch-reordering / superinstruction (PGO) work.
///
/// Same hot-path discipline as `polyfold::FoldStats`: plain `u64` fields on
/// the single owning thread, no atomics, harvested once when the run
/// finishes ([`OpcodeTelemetry::harvest`]). Disabled (`Vm` default) the
/// interpreter pays exactly one branch per dynamic instruction.
#[derive(Debug, Clone)]
pub struct OpcodeTelemetry {
    /// Dispatch counts, indexed by [`opcode_slot`].
    pub counts: [u64; N_OPCODES],
    /// Sampled single-dispatch wall times (ns); empty unless timing was
    /// requested at [`Vm::enable_opcode_telemetry`].
    pub dispatch_ns: polytrace::Histogram,
    /// Total dynamic instructions observed.
    pub total: u64,
    time_dispatch: bool,
}

impl OpcodeTelemetry {
    fn new(time_dispatch: bool) -> Self {
        OpcodeTelemetry {
            counts: [0; N_OPCODES],
            dispatch_ns: polytrace::Histogram::new(),
            total: 0,
            time_dispatch,
        }
    }

    /// Count one dispatch; returns whether this dispatch should be timed.
    #[inline]
    fn observe(&mut self, ins: &Instr) -> bool {
        self.counts[opcode_slot(ins)] += 1;
        self.total += 1;
        self.time_dispatch && self.total & DISPATCH_SAMPLE_MASK == 0
    }

    /// Fold the telemetry into a collector: per-opcode counts become
    /// `vm_ops` entries, the sampled dispatch times merge into the run's
    /// dispatch-latency histogram ([`polytrace::RunMetrics::dispatch_ns`]).
    pub fn harvest(&self, col: &polytrace::Collector) {
        for (slot, &count) in self.counts.iter().enumerate() {
            col.record_vm_op(OPCODE_NAMES[slot], count);
        }
        col.merge_dispatch_ns(&self.dispatch_ns);
    }
}

/// Receives the instrumentation event stream during execution.
///
/// All methods default to no-ops so sinks only implement what they need.
/// Method order within one dynamic instruction: `mem` (for loads: before the
/// value is produced; for stores: after operands are read) then `exec`.
pub trait EventSink {
    /// A local (intra-procedural) control transfer `from → to` caused by a
    /// `Jump` or `Br` terminator.
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        let _ = (from, to);
    }
    /// A call: `callsite` is the block containing the `Call` instruction,
    /// `entry` the callee's entry block.
    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        let _ = (callsite, callee, entry);
    }
    /// A return from `from`; `to` is the caller block where execution
    /// resumes (`None` when the program's entry function returns).
    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        let _ = (from, to);
    }
    /// A dynamic instruction; `value` is what it wrote to its destination
    /// register, if any. Emitted after the instruction's effects.
    fn exec(&mut self, instr: InstrRef, value: Option<Value>) {
        let _ = (instr, value);
    }
    /// A memory access performed by `instr` at word address `addr`.
    fn mem(&mut self, instr: InstrRef, addr: u64, is_write: bool) {
        let _ = (instr, addr, is_write);
    }
    /// Watchdog hook: polled by the interpreter (throttled, every few
    /// thousand dynamic instructions). Returning `true` aborts the run with
    /// [`VmError::Aborted`]; everything the sink observed so far remains
    /// valid, so profilers can finalize a partial result. The default never
    /// aborts.
    fn poll_abort(&mut self) -> bool {
        false
    }
}

/// A sink that ignores everything (un-instrumented execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;
impl EventSink for NullSink {}

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The dynamic instruction budget ran out.
    FuelExhausted,
    /// An `Unreachable` terminator executed (block name attached).
    Unreachable(String),
    /// Call stack exceeded the configured limit.
    StackOverflow,
    /// The program has no entry function.
    NoEntry,
    /// The sink's [`EventSink::poll_abort`] watchdog requested an abort.
    /// Events delivered before the abort are complete and consistent.
    Aborted,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::FuelExhausted => write!(f, "dynamic instruction budget exhausted"),
            VmError::Unreachable(b) => write!(f, "reached unreachable terminator in {b}"),
            VmError::StackOverflow => write!(f, "call stack overflow"),
            VmError::NoEntry => write!(f, "program has no entry function"),
            VmError::Aborted => write!(f, "run aborted by sink watchdog"),
        }
    }
}

impl std::error::Error for VmError {}

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Sentinel page number that can never equal `addr >> PAGE_BITS`.
const NO_PAGE: u64 = u64::MAX;

/// Hasher of the page index: one multiply by a 64-bit odd constant, folded
/// to 64 bits by XOR-ing the product's halves, so that the low bits (the
/// table's bucket) and the high bits (its tag) both depend on every bit of
/// the page number. `std`'s keyed SipHash guards against keys crafted to
/// collide; page numbers are addresses of the profiled program, which the
/// caller builds (the server profiles only registered workloads) and whose
/// cost fuel and deadlines already bound. Here it bought nothing but time on
/// the page-switch path, which most accesses of a kernel streaming several
/// arrays take.
#[derive(Default)]
struct PageHasher(u64);

impl PageHasher {
    #[inline]
    fn mix(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse, paged word-addressed memory. Uninitialized cells read as `I64(0)`.
///
/// Pages live in a flat vector behind a page-number index; an MRU (last-page)
/// cache serves the same-page access streams of dense kernels without
/// hashing. The MRU is interior-mutable so reads stay `&self`; this makes
/// `Memory` non-`Sync`, which is fine — each interpreter thread owns its VM.
#[derive(Debug)]
pub struct Memory {
    pages: Vec<Box<[Value; PAGE_SIZE]>>,
    index: HashMap<u64, u32, BuildHasherDefault<PageHasher>>,
    mru: std::cell::Cell<(u64, u32)>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            pages: Vec::new(),
            index: HashMap::default(),
            mru: std::cell::Cell::new((NO_PAGE, 0)),
        }
    }
}

impl Memory {
    /// Fresh empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Read the cell at `addr`.
    #[inline]
    pub fn read(&self, addr: u64) -> Value {
        let page_num = addr >> PAGE_BITS;
        let slot = if self.mru.get().0 == page_num {
            self.mru.get().1
        } else {
            match self.index.get(&page_num) {
                Some(&s) => {
                    self.mru.set((page_num, s));
                    s
                }
                None => return Value::I64(0),
            }
        };
        self.pages[slot as usize][(addr as usize) & (PAGE_SIZE - 1)]
    }

    /// Write the cell at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, v: Value) {
        let page_num = addr >> PAGE_BITS;
        let slot = if self.mru.get().0 == page_num {
            self.mru.get().1
        } else {
            let slot = match self.index.entry(page_num) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let slot = self.pages.len() as u32;
                    self.pages.push(Box::new([Value::I64(0); PAGE_SIZE]));
                    e.insert(slot);
                    slot
                }
            };
            self.mru.set((page_num, slot));
            slot
        };
        self.pages[slot as usize][(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Number of resident pages (for overhead statistics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

struct Frame {
    func: FuncId,
    block: LocalBlockId,
    /// Where a caller resumes in `block` (set when it makes a call).
    idx: usize,
    regs: Vec<Value>,
    /// Where to put the return value in the caller.
    ret_reg: Option<Reg>,
}

/// Result of a completed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Return value of the entry function.
    pub ret: Option<Value>,
    /// Number of dynamic (non-terminator) instructions executed.
    pub dyn_instrs: u64,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Maximum dynamic instructions before `FuelExhausted` (default 2^40).
    pub fuel: u64,
    /// Maximum call-stack depth (default 1 << 16).
    pub max_stack: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            fuel: 1 << 40,
            max_stack: 1 << 16,
        }
    }
}

thread_local! {
    /// VMs constructed on this thread; see [`vms_built_on_this_thread`].
    static VMS_BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many [`Vm`]s the calling thread has constructed so far. Per thread,
/// so a test can show that a call it makes runs no VM while other tests run
/// theirs in parallel: read it before and after the call.
pub fn vms_built_on_this_thread() -> u64 {
    VMS_BUILT.with(|n| n.get())
}

/// The PolyVM interpreter.
pub struct Vm<'p> {
    prog: &'p Program,
    /// Program memory, exposed so harnesses can pre-load inputs and inspect
    /// outputs around [`Vm::run`].
    pub mem: Memory,
    cfg: VmConfig,
    /// Boxed so the disabled (default) case costs the interpreter one
    /// pointer check per dynamic instruction and nothing else.
    telemetry: Option<Box<OpcodeTelemetry>>,
}

impl<'p> Vm<'p> {
    /// Create a VM over `prog` with the default configuration; the program's
    /// data segment is loaded into memory.
    pub fn new(prog: &'p Program) -> Self {
        Self::with_config(prog, VmConfig::default())
    }

    /// Create a VM with an explicit configuration.
    pub fn with_config(prog: &'p Program, cfg: VmConfig) -> Self {
        VMS_BUILT.with(|n| n.set(n.get() + 1));
        let mut mem = Memory::new();
        for &(addr, v) in &prog.data {
            mem.write(addr, v);
        }
        Vm {
            prog,
            mem,
            cfg,
            telemetry: None,
        }
    }

    /// Turn on per-opcode dispatch counting for subsequent runs.
    /// `time_dispatch` additionally samples single-dispatch wall times (one
    /// in 64) into [`OpcodeTelemetry::dispatch_ns`].
    pub fn enable_opcode_telemetry(&mut self, time_dispatch: bool) {
        self.telemetry = Some(Box::new(OpcodeTelemetry::new(time_dispatch)));
    }

    /// Detach the accumulated telemetry (if enabled); counting stops.
    pub fn take_opcode_telemetry(&mut self) -> Option<Box<OpcodeTelemetry>> {
        self.telemetry.take()
    }

    #[inline]
    fn eval(regs: &[Value], o: &Operand) -> Value {
        match o {
            Operand::Reg(r) => regs[r.0 as usize],
            Operand::ImmI(v) => Value::I64(*v),
            Operand::ImmF(v) => Value::F64(*v),
        }
    }

    /// Execute the entry function with `args`, streaming events to `sink`.
    pub fn run<S: EventSink>(
        &mut self,
        args: &[Value],
        sink: &mut S,
    ) -> Result<RunOutcome, VmError> {
        let entry = self.prog.entry.ok_or(VmError::NoEntry)?;
        self.run_func(entry, args, sink)
    }

    /// Execute an arbitrary function as the root frame.
    ///
    /// The current frame lives in a local and the stack holds only its
    /// callers, so a block's instructions run in an inner loop over one
    /// borrowed slice; a frame's resume index is written only when a call
    /// leaves its block. Register vectors of returned frames are kept for
    /// the next call, so a call allocates nothing once the deepest call
    /// chain has been reached.
    pub fn run_func<S: EventSink>(
        &mut self,
        root: FuncId,
        args: &[Value],
        sink: &mut S,
    ) -> Result<RunOutcome, VmError> {
        let prog = self.prog;
        let rootf = prog.func(root);
        assert_eq!(args.len(), rootf.n_params as usize, "root arity mismatch");
        let mut regs = vec![Value::I64(0); rootf.n_regs as usize];
        regs[..args.len()].copy_from_slice(args);
        let mut cur = Frame {
            func: root,
            block: rootf.entry(),
            idx: 0,
            regs,
            ret_reg: None,
        };
        // Callers of `cur`, innermost last, and spare register vectors.
        let mut stack: Vec<Frame> = Vec::new();
        let mut spare: Vec<Vec<Value>> = Vec::new();
        // Where execution resumes in `cur.block`.
        let mut start = 0usize;
        let mut fuel = self.cfg.fuel;
        let mut executed: u64 = 0;

        'blocks: loop {
            let func = cur.func;
            let here = BlockRef {
                func,
                block: cur.block,
            };
            let blk = prog.func(func).block(cur.block);

            for (idx, ins) in blk.instrs.iter().enumerate().skip(start) {
                if fuel == 0 {
                    return Err(VmError::FuelExhausted);
                }
                fuel -= 1;
                executed += 1;
                // Throttled watchdog poll: one virtual call per 4096 dynamic
                // instructions keeps the hook invisible in steady state.
                if executed & 0xFFF == 0 && sink.poll_abort() {
                    return Err(VmError::Aborted);
                }
                // Opcode telemetry: a single pointer check when disabled;
                // an indexed increment (plus, for one dispatch in 64 when
                // dispatch timing is on, a clock read pair) when enabled.
                let time_this = match self.telemetry.as_deref_mut() {
                    Some(t) => t.observe(ins),
                    None => false,
                };
                let iref = InstrRef {
                    block: here,
                    idx: idx as u32,
                };
                if let Instr::Call {
                    dst,
                    func: callee,
                    args,
                } = ins
                {
                    if stack.len() + 1 >= self.cfg.max_stack {
                        return Err(VmError::StackOverflow);
                    }
                    let calleef = prog.func(*callee);
                    let mut regs = spare.pop().unwrap_or_default();
                    regs.clear();
                    regs.resize(calleef.n_regs as usize, Value::I64(0));
                    for (r, a) in regs.iter_mut().zip(args) {
                        *r = Self::eval(&cur.regs, a);
                    }
                    let entry = BlockRef {
                        func: *callee,
                        block: calleef.entry(),
                    };
                    sink.exec(iref, None);
                    sink.call(here, *callee, entry);
                    cur.idx = idx + 1;
                    let callee_frame = Frame {
                        func: *callee,
                        block: entry.block,
                        idx: 0,
                        regs,
                        ret_reg: *dst,
                    };
                    stack.push(std::mem::replace(&mut cur, callee_frame));
                    start = 0;
                    continue 'blocks;
                }
                let t0 = time_this.then(Instant::now);
                let value = step_instr(ins, &mut cur.regs, &mut self.mem, iref, sink);
                if let (Some(t0), Some(t)) = (t0, self.telemetry.as_deref_mut()) {
                    t.dispatch_ns.record(t0.elapsed().as_nanos() as u64);
                }
                sink.exec(iref, value);
            }

            // Terminator.
            match &blk.term {
                Terminator::Jump(t) => {
                    sink.local_jump(here, BlockRef { func, block: *t });
                    cur.block = *t;
                    start = 0;
                }
                Terminator::Br { cond, then_, else_ } => {
                    let t = if Self::eval(&cur.regs, cond).is_truthy() {
                        *then_
                    } else {
                        *else_
                    };
                    cur.block = t;
                    start = 0;
                    sink.local_jump(here, BlockRef { func, block: t });
                }
                Terminator::Ret(v) => {
                    let rv = v.as_ref().map(|o| Self::eval(&cur.regs, o));
                    match stack.pop() {
                        Some(mut caller) => {
                            if let (Some(r), Some(val)) = (cur.ret_reg, rv) {
                                caller.regs[r.0 as usize] = val;
                            }
                            let to = BlockRef {
                                func: caller.func,
                                block: caller.block,
                            };
                            start = caller.idx;
                            spare.push(std::mem::replace(&mut cur, caller).regs);
                            sink.ret(func, Some(to));
                        }
                        None => {
                            sink.ret(func, None);
                            return Ok(RunOutcome {
                                ret: rv,
                                dyn_instrs: executed,
                            });
                        }
                    }
                }
                Terminator::Unreachable => {
                    return Err(VmError::Unreachable(blk.name.clone()));
                }
            }
        }
    }
}

/// Execute one non-call instruction over the frame's registers; returns the
/// produced value.
fn step_instr<S: EventSink>(
    ins: &Instr,
    regs: &mut [Value],
    mem: &mut Memory,
    iref: InstrRef,
    sink: &mut S,
) -> Option<Value> {
    let ev = |regs: &[Value], o: &Operand| -> Value {
        match o {
            Operand::Reg(r) => regs[r.0 as usize],
            Operand::ImmI(v) => Value::I64(*v),
            Operand::ImmF(v) => Value::F64(*v),
        }
    };
    match ins {
        Instr::Const { dst, value } => {
            regs[dst.0 as usize] = *value;
            Some(*value)
        }
        Instr::Move { dst, src } => {
            let v = ev(regs, src);
            regs[dst.0 as usize] = v;
            Some(v)
        }
        Instr::IOp { dst, op, a, b } => {
            let x = ev(regs, a).as_i64();
            let y = ev(regs, b).as_i64();
            let v = Value::I64(ibinop(*op, x, y));
            regs[dst.0 as usize] = v;
            Some(v)
        }
        Instr::FOp { dst, op, a, b } => {
            let x = ev(regs, a).as_f64();
            let y = ev(regs, b).as_f64();
            let v = Value::F64(fbinop(*op, x, y));
            regs[dst.0 as usize] = v;
            Some(v)
        }
        Instr::ICmp { dst, op, a, b } => {
            let x = ev(regs, a).as_i64();
            let y = ev(regs, b).as_i64();
            let v = Value::I64(cmp(*op, &x, &y) as i64);
            regs[dst.0 as usize] = v;
            Some(v)
        }
        Instr::FCmp { dst, op, a, b } => {
            let x = ev(regs, a).as_f64();
            let y = ev(regs, b).as_f64();
            let v = Value::I64(cmp(*op, &x, &y) as i64);
            regs[dst.0 as usize] = v;
            Some(v)
        }
        Instr::Un { dst, op, a } => {
            let x = ev(regs, a);
            let v = unop(*op, x);
            regs[dst.0 as usize] = v;
            Some(v)
        }
        Instr::Load { dst, base, offset } => {
            let addr = (ev(regs, base)
                .as_i64()
                .wrapping_add(ev(regs, offset).as_i64())) as u64;
            sink.mem(iref, addr, false);
            let v = mem.read(addr);
            regs[dst.0 as usize] = v;
            Some(v)
        }
        Instr::Store { base, offset, src } => {
            let addr = (ev(regs, base)
                .as_i64()
                .wrapping_add(ev(regs, offset).as_i64())) as u64;
            let v = ev(regs, src);
            sink.mem(iref, addr, true);
            mem.write(addr, v);
            None
        }
        Instr::Call { .. } => unreachable!("calls handled by the main loop"),
    }
}

fn ibinop(op: IBinOp, a: i64, b: i64) -> i64 {
    match op {
        IBinOp::Add => a.wrapping_add(b),
        IBinOp::Sub => a.wrapping_sub(b),
        IBinOp::Mul => a.wrapping_mul(b),
        IBinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        IBinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        IBinOp::And => a & b,
        IBinOp::Or => a | b,
        IBinOp::Xor => a ^ b,
        IBinOp::Shl => a.wrapping_shl(b as u32 & 63),
        IBinOp::Shr => a.wrapping_shr(b as u32 & 63),
        IBinOp::Min => a.min(b),
        IBinOp::Max => a.max(b),
    }
}

fn fbinop(op: FBinOp, a: f64, b: f64) -> f64 {
    match op {
        FBinOp::Add => a + b,
        FBinOp::Sub => a - b,
        FBinOp::Mul => a * b,
        FBinOp::Div => a / b,
        FBinOp::Min => a.min(b),
        FBinOp::Max => a.max(b),
    }
}

fn cmp<T: PartialOrd>(op: CmpOp, a: &T, b: &T) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn unop(op: UnOp, a: Value) -> Value {
    match op {
        UnOp::Sqrt => Value::F64(a.as_f64().sqrt()),
        UnOp::Exp => Value::F64(a.as_f64().exp()),
        UnOp::Log => {
            let x = a.as_f64().abs();
            Value::F64(if x == 0.0 { 0.0 } else { x.ln() })
        }
        UnOp::Abs => match a {
            Value::I64(v) => Value::I64(v.wrapping_abs()),
            Value::F64(v) => Value::F64(v.abs()),
        },
        UnOp::Neg => match a {
            Value::I64(v) => Value::I64(v.wrapping_neg()),
            Value::F64(v) => Value::F64(-v),
        },
        UnOp::Sigmoid => Value::F64(1.0 / (1.0 + (-a.as_f64()).exp())),
        UnOp::Sin => Value::F64(a.as_f64().sin()),
        UnOp::Cos => Value::F64(a.as_f64().cos()),
        UnOp::F2I => Value::I64(a.as_f64() as i64),
        UnOp::I2F => Value::F64(a.as_i64() as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyir::build::ProgramBuilder;
    use sinks::{CountingSink, RecordingSink, TraceEvent};

    fn sum_to_10() -> Program {
        let mut pb = ProgramBuilder::new("sum");
        let mut f = pb.func("main", 0);
        let acc = f.const_i(0);
        f.for_loop("L", 0i64, 10i64, 1, |f, i| {
            f.iop_to(acc, IBinOp::Add, acc, i);
        });
        f.ret(Some(acc.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        pb.finish()
    }

    #[test]
    fn runs_simple_loop() {
        let p = sum_to_10();
        let mut vm = Vm::new(&p);
        let out = vm.run(&[], &mut NullSink).unwrap();
        assert_eq!(out.ret, Some(Value::I64(45)));
    }

    #[test]
    fn counts_dynamic_instructions() {
        let p = sum_to_10();
        let mut vm = Vm::new(&p);
        let mut c = CountingSink::default();
        let out = vm.run(&[], &mut c).unwrap();
        assert_eq!(c.instrs, out.dyn_instrs);
        // const + mov + 11 cmps + 10 adds(acc) + 10 adds(iv)
        assert_eq!(out.dyn_instrs, 2 + 11 + 20);
        // 10 iterations => header->body 10x, body->latch 10x, latch->header 10x,
        // header->exit 1x, entry->header 1x
        assert_eq!(c.jumps, 32);
    }

    #[test]
    fn calls_and_returns() {
        let mut pb = ProgramBuilder::new("call");
        let mut sq = pb.func("square", 1);
        let x = sq.param(0);
        let y = sq.mul(x, x);
        sq.ret(Some(y.into()));
        let sq_id = sq.finish();
        let mut f = pb.func("main", 0);
        let a = f.const_i(7);
        let r = f.call(sq_id, &[a.into()]);
        f.ret(Some(r.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let mut vm = Vm::new(&p);
        let mut rec = RecordingSink::default();
        let out = vm.run(&[], &mut rec).unwrap();
        assert_eq!(out.ret, Some(Value::I64(49)));
        let calls = rec
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Call { .. }))
            .count();
        let rets = rec
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Ret { .. }))
            .count();
        assert_eq!(calls, 1);
        assert_eq!(rets, 2); // callee return + entry return
    }

    #[test]
    fn memory_roundtrip_and_events() {
        let mut pb = ProgramBuilder::new("mem");
        let base = pb.array_f64(&[1.5, 2.5]);
        let mut f = pb.func("main", 0);
        let v0 = f.load(base as i64, 0i64);
        let v1 = f.load(base as i64, 1i64);
        let s = f.fadd(v0, v1);
        f.store(base as i64, 0i64, s);
        let back = f.load(base as i64, 0i64);
        f.ret(Some(back.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let mut vm = Vm::new(&p);
        let mut c = CountingSink::default();
        let out = vm.run(&[], &mut c).unwrap();
        assert_eq!(out.ret, Some(Value::F64(4.0)));
        assert_eq!(c.loads, 3);
        assert_eq!(c.stores, 1);
        // fadd + the three float loads all produce F64 values
        assert_eq!(c.fp_ops, 4);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut pb = ProgramBuilder::new("spin");
        let mut f = pb.func("main", 0);
        let b = f.block("loop");
        f.jump(b);
        f.switch_to(b);
        f.const_i(1);
        f.jump(b);
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let mut vm = Vm::with_config(
            &p,
            VmConfig {
                fuel: 1000,
                max_stack: 64,
            },
        );
        assert_eq!(vm.run(&[], &mut NullSink), Err(VmError::FuelExhausted));
    }

    #[test]
    fn stack_overflow_detected() {
        let mut pb = ProgramBuilder::new("deep");
        let rec = pb.declare("r", 1);
        let mut f = pb.func("r", 1);
        let n = f.param(0);
        let n1 = f.add(n, 1i64);
        let v = f.call(rec, &[n1.into()]);
        f.ret(Some(v.into()));
        f.finish();
        let mut m = pb.func("main", 0);
        let z = m.const_i(0);
        let r = m.call(rec, &[z.into()]);
        m.ret(Some(r.into()));
        let mid = m.finish();
        pb.set_entry(mid);
        let p = pb.finish();
        let mut vm = Vm::with_config(
            &p,
            VmConfig {
                fuel: 1 << 30,
                max_stack: 100,
            },
        );
        assert_eq!(vm.run(&[], &mut NullSink), Err(VmError::StackOverflow));
    }

    #[test]
    fn recursion_computes_fib() {
        let mut pb = ProgramBuilder::new("fib");
        let fib = pb.declare("fib", 1);
        let mut f = pb.func("fib", 1);
        let n = f.param(0);
        let c = f.icmp(CmpOp::Lt, n, 2i64);
        let bb = f.block("base");
        let rb = f.block("rec");
        f.br(c, bb, rb);
        f.switch_to(bb);
        f.ret(Some(n.into()));
        f.switch_to(rb);
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
        let mut vm = Vm::new(&p);
        let out = vm.run(&[], &mut NullSink).unwrap();
        assert_eq!(out.ret, Some(Value::I64(55)));
    }

    #[test]
    fn division_by_zero_is_total() {
        let mut pb = ProgramBuilder::new("div0");
        let mut f = pb.func("main", 0);
        let a = f.div(5i64, 0i64);
        let b = f.rem(5i64, 0i64);
        let s = f.add(a, b);
        f.ret(Some(s.into()));
        let fid = f.finish();
        pb.set_entry(fid);
        let p = pb.finish();
        let mut vm = Vm::new(&p);
        assert_eq!(vm.run(&[], &mut NullSink).unwrap().ret, Some(Value::I64(0)));
    }

    #[test]
    fn opcode_telemetry_counts_every_dispatch() {
        let p = sum_to_10();
        let mut vm = Vm::new(&p);
        vm.enable_opcode_telemetry(true);
        let out = vm.run(&[], &mut NullSink).unwrap();
        let t = vm.take_opcode_telemetry().expect("enabled");
        assert_eq!(t.total, out.dyn_instrs, "every dispatch counted");
        assert_eq!(t.counts.iter().sum::<u64>(), out.dyn_instrs);
        // sum_to_10: 1 const, 1 move, 11 icmp.lt, 20 iop.add
        assert_eq!(
            t.counts[opcode_slot(&Instr::Const {
                dst: Reg(0),
                value: Value::I64(0)
            })],
            1
        );
        let add_slot = 2 + IBinOp::Add as usize;
        assert_eq!(t.counts[add_slot], 20);
        assert_eq!(OPCODE_NAMES[add_slot], "iop.add");
        // Telemetry must not perturb results.
        let mut plain = Vm::new(&p);
        assert_eq!(plain.run(&[], &mut NullSink).unwrap().ret, out.ret);
        // Harvest lands in a collector's vm_ops + dispatch histogram.
        let col = polytrace::Collector::new(polytrace::MetricsLevel::Timing);
        t.harvest(&col);
        let m = col.snapshot(1);
        assert!(m.vm_ops.iter().any(|&(n, c)| n == "iop.add" && c == 20));
        assert_eq!(m.vm_ops.iter().map(|(_, c)| c).sum::<u64>(), out.dyn_instrs);
    }

    #[test]
    fn opcode_slots_are_dense_and_named() {
        // Spot-check slot layout boundaries against the name table.
        assert_eq!(
            opcode_slot(&Instr::Load {
                dst: Reg(0),
                base: Operand::ImmI(0),
                offset: Operand::ImmI(0)
            }),
            42
        );
        assert_eq!(OPCODE_NAMES[42], "load");
        assert_eq!(2 + IBinOp::Max as usize, 13);
        assert_eq!(OPCODE_NAMES[13], "iop.max");
        assert_eq!(14 + FBinOp::Max as usize, 19);
        assert_eq!(OPCODE_NAMES[19], "fop.max");
        assert_eq!(32 + UnOp::I2F as usize, 41);
        assert_eq!(OPCODE_NAMES[41], "un.i2f");
        assert_eq!(N_OPCODES, 45);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = sum_to_10();
        let mut r1 = RecordingSink::default();
        let mut r2 = RecordingSink::default();
        Vm::new(&p).run(&[], &mut r1).unwrap();
        Vm::new(&p).run(&[], &mut r2).unwrap();
        assert_eq!(r1.events, r2.events);
    }
}
