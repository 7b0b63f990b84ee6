//! The interpreter's contract with its sinks, pinned at every position a
//! dispatch loop could get wrong: fuel runs out after exactly `fuel`
//! instructions wherever the last one sits (mid-block, on a `Call`, before
//! a terminator), and the watchdog is polled as the 4096·k-th instruction is
//! dispatched — before that instruction's events — whether it follows an
//! instruction, a jump, a call or a return.

use polyir::build::ProgramBuilder;
use polyir::{BlockRef, CmpOp, FuncId, IBinOp, Instr, InstrRef, Program, Value};
use polyvm::sinks::{RecordingSink, TraceEvent};
use polyvm::{EventSink, Vm, VmConfig, VmError};

/// `main` loops `n` times; each iteration calls `g` (which branches on its
/// argument), takes a data-dependent branch of its own, loads and stores.
/// Six iterations are 57 dynamic instructions, odd, so over 57 polls the
/// 4096·k-th instruction lands at every position of that stretch.
fn program(n: i64) -> Program {
    let mut pb = ProgramBuilder::new("contract");
    let a = pb.alloc(4);
    let mut g = pb.func("g", 1);
    let x = g.param(0);
    let odd = g.iop(IBinOp::And, x, 1i64);
    let then_ = g.block("odd");
    let join = g.block("join");
    g.br(odd, then_, join);
    g.switch_to(then_);
    g.store(a as i64, 0i64, x);
    g.jump(join);
    g.switch_to(join);
    let y = g.mul(x, 3i64);
    g.ret(Some(y.into()));
    let gid = g.finish();

    let mut f = pb.func("main", 0);
    let acc = f.const_i(0);
    f.for_loop("L", 0i64, n, 1, |f, i| {
        let v = f.call(gid, &[i.into()]);
        f.iop_to(acc, IBinOp::Add, acc, v);
        let r = f.iop(IBinOp::Rem, i, 3i64);
        let z = f.icmp(CmpOp::Eq, r, 0i64);
        let extra = f.block("extra");
        let next = f.block("next");
        f.br(z, extra, next);
        f.switch_to(extra);
        let w = f.load(a as i64, 1i64);
        let w1 = f.add(w, 1i64);
        f.store(a as i64, 1i64, w1);
        f.jump(next);
        f.switch_to(next);
    });
    f.ret(Some(acc.into()));
    let fid = f.finish();
    pb.set_entry(fid);
    pb.finish()
}

fn execs(events: &[TraceEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Exec { .. }))
        .count()
}

/// The instruction an event belongs to, if it is an instruction event.
fn instr_of(e: &TraceEvent) -> Option<InstrRef> {
    match e {
        TraceEvent::Exec { instr, .. } | TraceEvent::Mem { instr, .. } => Some(*instr),
        _ => None,
    }
}

#[test]
fn fuel_stops_after_exactly_that_many_instructions() {
    let p = program(12);
    let mut full = RecordingSink::default();
    let out = Vm::new(&p).run(&[], &mut full).unwrap();
    let total = out.dyn_instrs;
    assert_eq!(execs(&full.events) as u64, total);

    let (mut on_call, mut mid_block, mut before_term) = (0, 0, 0);
    for fuel in 1..total {
        let mut sink = RecordingSink::default();
        let r = Vm::with_config(
            &p,
            VmConfig {
                fuel,
                max_stack: 64,
            },
        )
        .run(&[], &mut sink);
        assert_eq!(r, Err(VmError::FuelExhausted), "fuel {fuel}");
        assert_eq!(execs(&sink.events) as u64, fuel, "fuel {fuel}");
        // The stream is the full run's, cut right before the first event of
        // the instruction the fuel did not cover: terminators cost nothing,
        // so the jumps, calls and returns after the last instruction are in.
        let cut = sink.events.len();
        assert_eq!(sink.events[..], full.events[..cut], "fuel {fuel}");
        assert!(instr_of(&full.events[cut]).is_some(), "fuel {fuel}");

        let last = sink
            .events
            .iter()
            .rev()
            .find_map(|e| match e {
                TraceEvent::Exec { instr, .. } => Some(*instr),
                _ => None,
            })
            .unwrap();
        let blk = p.func(last.block.func).block(last.block.block);
        if matches!(p.instr(last), Instr::Call { .. }) {
            on_call += 1;
            assert!(
                matches!(sink.events.last(), Some(TraceEvent::Call { .. })),
                "a Call's exec is followed by its call event"
            );
        } else if last.idx as usize + 1 == blk.instrs.len() {
            before_term += 1;
        } else {
            mid_block += 1;
        }
    }
    assert!(on_call > 0 && mid_block > 0 && before_term > 0);
}

/// Records every event and, at each poll, how many `exec`s came before it
/// and the event just before it; aborts at poll `abort_at` (never if 0).
#[derive(Default)]
struct PollSink {
    rec: RecordingSink,
    execs: usize,
    polls: Vec<(usize, usize)>,
    abort_at: usize,
}

impl EventSink for PollSink {
    fn local_jump(&mut self, from: BlockRef, to: BlockRef) {
        self.rec.local_jump(from, to);
    }
    fn call(&mut self, callsite: BlockRef, callee: FuncId, entry: BlockRef) {
        self.rec.call(callsite, callee, entry);
    }
    fn ret(&mut self, from: FuncId, to: Option<BlockRef>) {
        self.rec.ret(from, to);
    }
    fn exec(&mut self, instr: InstrRef, value: Option<Value>) {
        self.execs += 1;
        self.rec.exec(instr, value);
    }
    fn mem(&mut self, instr: InstrRef, addr: u64, is_write: bool) {
        self.rec.mem(instr, addr, is_write);
    }
    fn poll_abort(&mut self) -> bool {
        self.polls.push((self.execs, self.rec.events.len()));
        self.polls.len() == self.abort_at
    }
}

#[test]
fn poll_comes_as_every_4096th_instruction_is_dispatched() {
    let p = program(30_000);
    let mut sink = PollSink::default();
    let out = Vm::new(&p).run(&[], &mut sink).unwrap();
    let polls = &sink.polls;
    assert_eq!(polls.len() as u64, out.dyn_instrs / 4096);
    assert!(polls.len() >= 57);
    let (mut after_jump, mut after_call, mut after_ret, mut after_instr) = (0, 0, 0, 0);
    for (k, &(seen, at)) in polls.iter().enumerate() {
        let k = k + 1;
        assert_eq!(seen, 4096 * k - 1, "poll {k}");
        // The next event is the 4096·k-th instruction's own.
        assert!(instr_of(&sink.rec.events[at]).is_some(), "poll {k}");
        match &sink.rec.events[at - 1] {
            TraceEvent::Jump { .. } => after_jump += 1,
            TraceEvent::Call { .. } => after_call += 1,
            TraceEvent::Ret { .. } => after_ret += 1,
            _ => after_instr += 1,
        }
    }
    assert!(after_jump > 0 && after_call > 0 && after_ret > 0 && after_instr > 0);
}

#[test]
fn aborting_at_the_kth_poll_stops_before_the_4096kth_instruction() {
    let p = program(4000);
    for k in 1..=4 {
        let mut sink = PollSink {
            abort_at: k,
            ..PollSink::default()
        };
        assert_eq!(Vm::new(&p).run(&[], &mut sink), Err(VmError::Aborted));
        assert_eq!(sink.polls.len(), k);
        assert_eq!(execs(&sink.rec.events), 4096 * k - 1, "abort at poll {k}");
        assert_eq!(
            sink.polls[k - 1].1,
            sink.rec.events.len(),
            "nothing after the abort"
        );
    }
}
