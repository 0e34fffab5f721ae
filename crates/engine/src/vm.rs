//! The *bytecode VM*: a register-machine evaluation backend whose cost model
//! mirrors Lua's, used to reproduce Fig. 18 of the paper.
//!
//! The lowered plan is compiled to a flat instruction stream executed by a
//! dispatch loop over `i64` registers — faster than the hash-map walker
//! (Lua's registers vs Python's dicts, the ~5× gap the paper measures), but
//! still paying interpreter dispatch per operation, unlike the compiled
//! backend.
//!
//! Loop compilation comes in three styles, matching the paper's Lua
//! variants:
//!
//! * [`VmStyle::NumericFor`] — a dedicated `ForPrep`/`ForLoop` instruction
//!   pair keeps the control state in fixed registers (Lua's numeric `for`,
//!   the fastest variant in Fig. 18);
//! * [`VmStyle::While`] — the bound and stride expressions are re-evaluated
//!   through the register file on every iteration (Lua `while`);
//! * [`VmStyle::RepeatUntil`] — post-test loop with an explicit emptiness
//!   pre-check (Lua `repeat ... until`).

use std::sync::Arc;

use beast_core::error::EvalError;
use beast_core::expr::Builtin;
use beast_core::ir::{eval_bin, eval_call2, IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};
use beast_core::iterator::Realized;

use beast_core::pointprog::SlotView;
use crate::point::PointRef;
use crate::stats::{BlockStats, PruneStats};
use crate::visit::Visitor;
use crate::walker::SweepOutcome;

/// Loop-compilation strategy, the experimental variable of Fig. 18.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VmStyle {
    /// Lua-style numeric `for` with dedicated control instructions.
    #[default]
    NumericFor,
    /// `while` loop: condition (and stride) re-evaluated every iteration.
    While,
    /// `repeat ... until` post-test loop with emptiness pre-check.
    RepeatUntil,
}

/// One VM instruction. Registers are `u16` indices; jump targets are
/// instruction indices.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// `regs[dst] = k`
    LoadK { dst: u16, k: i64 },
    /// `regs[dst] = regs[src]`
    Move { dst: u16, src: u16 },
    /// `regs[dst] = regs[a] <op> regs[b]` (non-short-circuit ops only).
    Bin { op: IntBinOp, dst: u16, a: u16, b: u16 },
    /// `regs[dst] = -regs[a]`
    Neg { dst: u16, a: u16 },
    /// `regs[dst] = !regs[a]` (0/1)
    Not { dst: u16, a: u16 },
    /// `regs[dst] = |regs[a]|`
    Abs { dst: u16, a: u16 },
    /// Two-argument builtin.
    Call2 { f: Builtin, dst: u16, a: u16, b: u16 },
    /// Unconditional jump.
    Jmp { to: u32 },
    /// Jump if `regs[r] == 0`.
    JmpIfZero { r: u16, to: u32 },
    /// Jump if `regs[r] != 0`.
    JmpIfNonZero { r: u16, to: u32 },
    /// Numeric-for prologue: control block at `base` = (current, stop, step),
    /// already initialized. If the range is empty jump `to`; else copy
    /// current into `slot`.
    ForPrep { base: u16, slot: u16, to: u32 },
    /// Numeric-for back-edge: advance, test, copy into `slot`, jump `to`
    /// (the body start) while in range.
    ForLoop { base: u16, slot: u16, to: u32 },
    /// Realize iterator `iter` (list/opaque) into iterator-state `state`.
    IterInit { state: u16, iter: u32 },
    /// Advance iterator-state `state`, writing into `dst`; jump `to` when
    /// exhausted.
    IterNext { state: u16, dst: u16, to: u32 },
    /// Evaluate opaque derived `derived` into `dst` via closure callback.
    DefineOpaque { derived: u32, dst: u16 },
    /// Record constraint `constraint` with value `regs[r]`; if nonzero,
    /// prune by jumping `to` (the innermost loop's continue point).
    Check { constraint: u32, r: u16, to: u32 },
    /// Opaque constraint via closure callback; record and prune like `Check`.
    CheckOpaque { constraint: u32, to: u32 },
    /// Survivor: feed the named slots to the visitor, then jump `to`
    /// (the innermost loop's continue point).
    Visit { to: u32 },
    /// End of program.
    Halt,
}

/// Placeholder jump target fixed up when the enclosing loop closes.
const PENDING: u32 = u32::MAX;

/// A compiled VM program for one lowered plan.
pub struct Vm {
    lp: LoweredPlan,
    style: VmStyle,
    ops: Vec<Op>,
    n_regs: u16,
    n_states: u16,
    point_names: Arc<[Arc<str>]>,
}

impl Vm {
    /// Compile a lowered plan with the given loop style.
    pub fn compile(lp: &LoweredPlan, style: VmStyle) -> Vm {
        let mut c = Compiler::new(lp, style);
        c.compile_steps(0);
        c.ops.push(Op::Halt);
        // Any pruning jumps left unpatched target Halt (no enclosing loop —
        // preamble checks).
        let halt = (c.ops.len() - 1) as u32;
        for op in &mut c.ops {
            let to = match op {
                Op::Jmp { to }
                | Op::JmpIfZero { to, .. }
                | Op::JmpIfNonZero { to, .. }
                | Op::ForPrep { to, .. }
                | Op::ForLoop { to, .. }
                | Op::IterNext { to, .. }
                | Op::Check { to, .. }
                | Op::CheckOpaque { to, .. }
                | Op::Visit { to } => to,
                _ => continue,
            };
            if *to == PENDING {
                *to = halt;
            }
        }
        let point_names: Arc<[Arc<str>]> =
            Arc::from(lp.slot_names.clone().into_boxed_slice());
        Vm {
            lp: lp.clone(),
            style,
            ops: c.ops,
            n_regs: c.max_reg + 1,
            n_states: c.n_states,
            point_names,
        }
    }

    /// Names reported for visited points (slot order).
    pub fn point_names(&self) -> &Arc<[Arc<str>]> {
        &self.point_names
    }

    /// The loop style this program was compiled with.
    pub fn style(&self) -> VmStyle {
        self.style
    }

    /// Number of instructions (useful for tests and reports).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the program is trivially empty (never: there is always Halt).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Execute the program, feeding survivors to the visitor.
    ///
    /// Dispatch goes through a *handler table*: `Op::opcode` maps every
    /// instruction to a dense index into a fixed `[Handler<V>; N_OPCODES]`
    /// array of monomorphic function pointers, so the hot loop is an indexed
    /// load plus an indirect call instead of a branch tree over the enum.
    /// Each handler returns a `Ctl` describing where the program counter
    /// goes next.
    pub fn run<V: Visitor>(&self, visitor: V) -> Result<SweepOutcome<V>, EvalError> {
        let space = self.lp.plan.space();
        let table = handler_table::<V>();
        let mut ex = Exec {
            regs: vec![0i64; self.n_regs as usize],
            states: (0..self.n_states).map(|_| Cursor::empty()).collect(),
            stats: PruneStats::new(space.constraints().len()),
            visitor,
            lp: &self.lp,
            n_slots: self.lp.n_slots as usize,
        };

        let ops = &self.ops[..];
        let mut pc: usize = 0;
        loop {
            let op = &ops[pc];
            match table[op.opcode()](&mut ex, op)? {
                Ctl::Next => pc += 1,
                Ctl::Jump(to) => pc = to,
                Ctl::Halt => break,
            }
        }
        let Exec { stats, visitor, .. } = ex;
        Ok(SweepOutcome {
            stats,
            blocks: BlockStats::default(),
            visitor,
        })
    }
}

impl Op {
    /// Dense index of this instruction's handler in the dispatch table.
    fn opcode(&self) -> usize {
        match self {
            Op::LoadK { .. } => 0,
            Op::Move { .. } => 1,
            Op::Bin { .. } => 2,
            Op::Neg { .. } => 3,
            Op::Not { .. } => 4,
            Op::Abs { .. } => 5,
            Op::Call2 { .. } => 6,
            Op::Jmp { .. } => 7,
            Op::JmpIfZero { .. } => 8,
            Op::JmpIfNonZero { .. } => 9,
            Op::ForPrep { .. } => 10,
            Op::ForLoop { .. } => 11,
            Op::IterInit { .. } => 12,
            Op::IterNext { .. } => 13,
            Op::DefineOpaque { .. } => 14,
            Op::Check { .. } => 15,
            Op::CheckOpaque { .. } => 16,
            Op::Visit { .. } => 17,
            Op::Halt => 18,
        }
    }
}

// ---------------------------------------------------------------------------
// Handler-table dispatch
// ---------------------------------------------------------------------------

/// Where the program counter goes after a handler runs.
enum Ctl {
    /// Fall through to the next instruction.
    Next,
    /// Jump to an absolute instruction index.
    Jump(usize),
    /// Stop the program.
    Halt,
}

/// Mutable execution context threaded through every opcode handler.
struct Exec<'a, V> {
    regs: Vec<i64>,
    states: Vec<Cursor>,
    stats: PruneStats,
    visitor: V,
    lp: &'a LoweredPlan,
    n_slots: usize,
}

/// One opcode handler, monomorphized per visitor type.
type Handler<V> = fn(&mut Exec<'_, V>, &Op) -> Result<Ctl, EvalError>;

/// Number of distinct opcodes — the handler-table width.
const N_OPCODES: usize = 19;

/// Build the dispatch table, indexed by [`Op::opcode`]. The table is a plain
/// array of `fn` pointers, so each slot has a fixed target and every handler
/// stays small enough for the operand decode to inline.
fn handler_table<V: Visitor>() -> [Handler<V>; N_OPCODES] {
    [
        h_load_k,
        h_move,
        h_bin,
        h_neg,
        h_not,
        h_abs,
        h_call2,
        h_jmp,
        h_jmp_if_zero,
        h_jmp_if_nonzero,
        h_for_prep,
        h_for_loop,
        h_iter_init,
        h_iter_next,
        h_define_opaque,
        h_check,
        h_check_opaque,
        h_visit,
        h_halt,
    ]
}

fn h_load_k<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::LoadK { dst, k } = op else { unreachable!("mis-dispatched opcode") };
    ex.regs[*dst as usize] = *k;
    Ok(Ctl::Next)
}

fn h_move<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Move { dst, src } = op else { unreachable!("mis-dispatched opcode") };
    ex.regs[*dst as usize] = ex.regs[*src as usize];
    Ok(Ctl::Next)
}

fn h_bin<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Bin { op: bin, dst, a, b } = op else { unreachable!("mis-dispatched opcode") };
    ex.regs[*dst as usize] = eval_bin(*bin, ex.regs[*a as usize], ex.regs[*b as usize])?;
    Ok(Ctl::Next)
}

fn h_neg<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Neg { dst, a } = op else { unreachable!("mis-dispatched opcode") };
    ex.regs[*dst as usize] = ex.regs[*a as usize].wrapping_neg();
    Ok(Ctl::Next)
}

fn h_not<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Not { dst, a } = op else { unreachable!("mis-dispatched opcode") };
    ex.regs[*dst as usize] = i64::from(ex.regs[*a as usize] == 0);
    Ok(Ctl::Next)
}

fn h_abs<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Abs { dst, a } = op else { unreachable!("mis-dispatched opcode") };
    ex.regs[*dst as usize] = ex.regs[*a as usize].wrapping_abs();
    Ok(Ctl::Next)
}

fn h_call2<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Call2 { f, dst, a, b } = op else { unreachable!("mis-dispatched opcode") };
    ex.regs[*dst as usize] = eval_call2(*f, ex.regs[*a as usize], ex.regs[*b as usize])?;
    Ok(Ctl::Next)
}

fn h_jmp<V: Visitor>(_ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Jmp { to } = op else { unreachable!("mis-dispatched opcode") };
    Ok(Ctl::Jump(*to as usize))
}

fn h_jmp_if_zero<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::JmpIfZero { r, to } = op else { unreachable!("mis-dispatched opcode") };
    Ok(if ex.regs[*r as usize] == 0 { Ctl::Jump(*to as usize) } else { Ctl::Next })
}

fn h_jmp_if_nonzero<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::JmpIfNonZero { r, to } = op else { unreachable!("mis-dispatched opcode") };
    Ok(if ex.regs[*r as usize] != 0 { Ctl::Jump(*to as usize) } else { Ctl::Next })
}

fn h_for_prep<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::ForPrep { base, slot, to } = op else { unreachable!("mis-dispatched opcode") };
    let base = *base as usize;
    let cur = ex.regs[base];
    let stop = ex.regs[base + 1];
    let step = ex.regs[base + 2];
    if (step > 0 && cur < stop) || (step < 0 && cur > stop) {
        ex.regs[*slot as usize] = cur;
        Ok(Ctl::Next)
    } else {
        Ok(Ctl::Jump(*to as usize))
    }
}

fn h_for_loop<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::ForLoop { base, slot, to } = op else { unreachable!("mis-dispatched opcode") };
    let base = *base as usize;
    let step = ex.regs[base + 2];
    let stop = ex.regs[base + 1];
    // A step past `i64` is past `stop`: overflow is exhaustion (a wrapped
    // value would pass the bound test and the loop would never end).
    match ex.regs[base].checked_add(step) {
        Some(next) if (step > 0 && next < stop) || (step < 0 && next > stop) => {
            ex.regs[base] = next;
            ex.regs[*slot as usize] = next;
            Ok(Ctl::Jump(*to as usize))
        }
        _ => Ok(Ctl::Next),
    }
}

fn h_iter_init<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::IterInit { state, iter } = op else { unreachable!("mis-dispatched opcode") };
    let (space, view) = (ex.lp.plan.space(), SlotView::new(ex.lp, &ex.regs[..ex.n_slots]));
    let realized = space.realize_iter(*iter as usize, &view)?;
    ex.states[*state as usize] = Cursor::new(realized);
    Ok(Ctl::Next)
}

fn h_iter_next<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::IterNext { state, dst, to } = op else { unreachable!("mis-dispatched opcode") };
    match ex.states[*state as usize].next()? {
        Some(v) => {
            ex.regs[*dst as usize] = v;
            Ok(Ctl::Next)
        }
        None => Ok(Ctl::Jump(*to as usize)),
    }
}

fn h_define_opaque<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::DefineOpaque { derived, dst } = op else { unreachable!("mis-dispatched opcode") };
    let (space, view) = (ex.lp.plan.space(), SlotView::new(ex.lp, &ex.regs[..ex.n_slots]));
    let v = space.deriveds()[*derived as usize].kind.eval(&view)?;
    ex.regs[*dst as usize] = v.as_int()?;
    Ok(Ctl::Next)
}

fn h_check<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Check { constraint, r, to } = op else { unreachable!("mis-dispatched opcode") };
    let rejected = ex.regs[*r as usize] != 0;
    ex.stats.record(*constraint as usize, rejected);
    Ok(if rejected { Ctl::Jump(*to as usize) } else { Ctl::Next })
}

fn h_check_opaque<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::CheckOpaque { constraint, to } = op else { unreachable!("mis-dispatched opcode") };
    let (space, view) = (ex.lp.plan.space(), SlotView::new(ex.lp, &ex.regs[..ex.n_slots]));
    let rejected = space.constraints()[*constraint as usize].kind.rejects(&view)?;
    ex.stats.record(*constraint as usize, rejected);
    Ok(if rejected { Ctl::Jump(*to as usize) } else { Ctl::Next })
}

fn h_visit<V: Visitor>(ex: &mut Exec<'_, V>, op: &Op) -> Result<Ctl, EvalError> {
    let Op::Visit { to } = op else { unreachable!("mis-dispatched opcode") };
    ex.stats.record_survivor();
    let view = PointRef::Slots {
        names: &ex.lp.slot_names,
        slots: &ex.regs[..ex.n_slots],
    };
    ex.visitor.visit(&view);
    Ok(Ctl::Jump(*to as usize))
}

fn h_halt<V: Visitor>(_ex: &mut Exec<'_, V>, _op: &Op) -> Result<Ctl, EvalError> {
    Ok(Ctl::Halt)
}

/// Runtime cursor over a realized domain (list/opaque loops).
struct Cursor {
    realized: Realized,
    idx: usize,
}

impl Cursor {
    fn empty() -> Cursor {
        Cursor { realized: Realized::Values(Vec::new()), idx: 0 }
    }

    fn new(realized: Realized) -> Cursor {
        Cursor { realized, idx: 0 }
    }

    fn next(&mut self) -> Result<Option<i64>, EvalError> {
        match &self.realized {
            Realized::Range { start, stop, step } => {
                if *step == 0 {
                    return Ok(None);
                }
                // Overflow is exhaustion, as in `h_for_loop`.
                let v = (self.idx as i64).checked_mul(*step).and_then(|d| start.checked_add(d));
                match v {
                    Some(v) if (*step > 0 && v < *stop) || (*step < 0 && v > *stop) => {
                        self.idx += 1;
                        Ok(Some(v))
                    }
                    _ => Ok(None),
                }
            }
            Realized::Values(values) => {
                if self.idx < values.len() {
                    let v = values[self.idx].as_int()?;
                    self.idx += 1;
                    Ok(Some(v))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct LoopCtx {
    /// Instruction indices whose `to` must be patched to the continue point.
    continue_fixups: Vec<usize>,
    /// Instruction indices whose `to` must be patched to the loop exit.
    exit_fixups: Vec<usize>,
}

struct Compiler<'a> {
    lp: &'a LoweredPlan,
    style: VmStyle,
    ops: Vec<Op>,
    n_states: u16,
    max_reg: u16,
    temp_base: u16,
    loop_stack: Vec<LoopCtx>,
}

impl<'a> Compiler<'a> {
    fn new(lp: &'a LoweredPlan, style: VmStyle) -> Compiler<'a> {
        // Register layout: [0, n_slots) named variables; then 3 control regs
        // per loop depth for numeric-for; temporaries above.
        let n_loops = lp
            .steps
            .iter()
            .filter(|s| matches!(s, LStep::Bind { .. }))
            .count() as u16;
        let temp_base = lp.n_slots as u16 + 3 * n_loops;
        Compiler {
            lp,
            style,
            ops: Vec::new(),
            n_states: 0,
            max_reg: temp_base,
            temp_base,
            loop_stack: Vec::new(),
        }
    }

    fn touch(&mut self, r: u16) {
        self.max_reg = self.max_reg.max(r);
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, idx: usize, target: u32) {
        match &mut self.ops[idx] {
            Op::Jmp { to }
            | Op::JmpIfZero { to, .. }
            | Op::JmpIfNonZero { to, .. }
            | Op::ForPrep { to, .. }
            | Op::ForLoop { to, .. }
            | Op::IterNext { to, .. }
            | Op::Check { to, .. }
            | Op::CheckOpaque { to, .. }
            | Op::Visit { to } => *to = target,
            other => panic!("cannot patch {other:?}"),
        }
    }

    /// Compile `expr` placing the result in `dst`; `tmp` is the next free
    /// temporary register.
    fn expr(&mut self, e: &IntExpr, dst: u16, tmp: u16) {
        self.touch(dst);
        self.touch(tmp);
        match e {
            IntExpr::Const(k) => self.ops.push(Op::LoadK { dst, k: *k }),
            IntExpr::Slot(s) => self.ops.push(Op::Move { dst, src: *s as u16 }),
            IntExpr::Neg(a) => {
                self.expr(a, dst, tmp);
                self.ops.push(Op::Neg { dst, a: dst });
            }
            IntExpr::Not(a) => {
                self.expr(a, dst, tmp);
                self.ops.push(Op::Not { dst, a: dst });
            }
            IntExpr::Abs(a) => {
                self.expr(a, dst, tmp);
                self.ops.push(Op::Abs { dst, a: dst });
            }
            IntExpr::Ternary(c, t, f) => {
                self.expr(c, dst, tmp);
                let jz = self.ops.len();
                self.ops.push(Op::JmpIfZero { r: dst, to: PENDING });
                self.expr(t, dst, tmp);
                let jend = self.ops.len();
                self.ops.push(Op::Jmp { to: PENDING });
                let felse = self.here();
                self.patch(jz, felse);
                self.expr(f, dst, tmp);
                let end = self.here();
                self.patch(jend, end);
            }
            IntExpr::Call2(f, a, b) => {
                self.expr(a, dst, tmp);
                self.expr(b, tmp, tmp + 1);
                self.ops.push(Op::Call2 { f: *f, dst, a: dst, b: tmp });
            }
            IntExpr::Bin(op, a, b) => match op {
                IntBinOp::And => {
                    self.expr(a, dst, tmp);
                    let jz = self.ops.len();
                    self.ops.push(Op::JmpIfZero { r: dst, to: PENDING });
                    self.expr(b, dst, tmp);
                    // Normalize to 0/1: dst = (dst != 0).
                    self.ops.push(Op::LoadK { dst: tmp, k: 0 });
                    self.ops.push(Op::Bin { op: IntBinOp::Ne, dst, a: dst, b: tmp });
                    let jend = self.ops.len();
                    self.ops.push(Op::Jmp { to: PENDING });
                    let lfalse = self.here();
                    self.patch(jz, lfalse);
                    self.ops.push(Op::LoadK { dst, k: 0 });
                    let end = self.here();
                    self.patch(jend, end);
                }
                IntBinOp::Or => {
                    self.expr(a, dst, tmp);
                    let jnz = self.ops.len();
                    self.ops.push(Op::JmpIfNonZero { r: dst, to: PENDING });
                    self.expr(b, dst, tmp);
                    self.ops.push(Op::LoadK { dst: tmp, k: 0 });
                    self.ops.push(Op::Bin { op: IntBinOp::Ne, dst, a: dst, b: tmp });
                    let jend = self.ops.len();
                    self.ops.push(Op::Jmp { to: PENDING });
                    let ltrue = self.here();
                    self.patch(jnz, ltrue);
                    self.ops.push(Op::LoadK { dst, k: 1 });
                    let end = self.here();
                    self.patch(jend, end);
                }
                _ => {
                    self.expr(a, dst, tmp);
                    self.expr(b, tmp, tmp + 1);
                    self.ops.push(Op::Bin { op: *op, dst, a: dst, b: tmp });
                }
            },
        }
    }

    fn compile_steps(&mut self, pos: usize) {
        if pos >= self.lp.steps.len() {
            return;
        }
        let tmp = self.temp_base;
        match &self.lp.steps[pos] {
            LStep::Bind { slot, depth, domain, iter } => {
                let slot = *slot as u16;
                let ctrl = self.lp.n_slots as u16 + 3 * (*depth as u16);
                self.touch(ctrl + 2);
                match domain {
                    LIter::Range { start, stop, step } => {
                        self.compile_range_loop(
                            slot,
                            ctrl,
                            &start.clone(),
                            &stop.clone(),
                            &step.clone(),
                            pos,
                        );
                    }
                    LIter::Values(_) | LIter::Opaque { .. } => {
                        // List/opaque domains use the generic iterator path
                        // in every style.
                        let state = self.n_states;
                        self.n_states += 1;
                        self.ops.push(Op::IterInit { state, iter: *iter as u32 });
                        let top = self.here();
                        let next_idx = self.ops.len();
                        self.ops.push(Op::IterNext { state, dst: slot, to: PENDING });
                        self.loop_stack
                            .push(LoopCtx { continue_fixups: vec![], exit_fixups: vec![next_idx] });
                        self.compile_steps(pos + 1);
                        let ctx = self.loop_stack.pop().expect("loop ctx");
                        // Continue point: jump back to IterNext.
                        for f in ctx.continue_fixups {
                            self.patch(f, top);
                        }
                        self.ops.push(Op::Jmp { to: top });
                        let exit = self.here();
                        for f in ctx.exit_fixups {
                            self.patch(f, exit);
                        }
                    }
                }
            }
            LStep::Define { slot, body, derived } => {
                match body {
                    LBody::Expr(e) => {
                        let e = e.clone();
                        self.expr(&e, *slot as u16, tmp);
                    }
                    LBody::Opaque => self.ops.push(Op::DefineOpaque {
                        derived: *derived as u32,
                        dst: *slot as u16,
                    }),
                }
                self.compile_steps(pos + 1);
            }
            LStep::Check { constraint, body } => {
                let cidx = *constraint as u32;
                match body {
                    LBody::Expr(e) => {
                        let e = e.clone();
                        self.expr(&e, tmp, tmp + 1);
                        let idx = self.ops.len();
                        self.ops.push(Op::Check { constraint: cidx, r: tmp, to: PENDING });
                        if let Some(ctx) = self.loop_stack.last_mut() {
                            ctx.continue_fixups.push(idx);
                        }
                    }
                    LBody::Opaque => {
                        let idx = self.ops.len();
                        self.ops.push(Op::CheckOpaque { constraint: cidx, to: PENDING });
                        if let Some(ctx) = self.loop_stack.last_mut() {
                            ctx.continue_fixups.push(idx);
                        }
                    }
                }
                self.compile_steps(pos + 1);
            }
            LStep::Visit => {
                let idx = self.ops.len();
                self.ops.push(Op::Visit { to: PENDING });
                if let Some(ctx) = self.loop_stack.last_mut() {
                    ctx.continue_fixups.push(idx);
                }
            }
        }
    }

    fn compile_range_loop(
        &mut self,
        slot: u16,
        ctrl: u16,
        start: &IntExpr,
        stop: &IntExpr,
        step: &IntExpr,
        pos: usize,
    ) {
        let tmp = self.temp_base;
        match self.style {
            VmStyle::NumericFor => {
                // Control block: ctrl = current, ctrl+1 = stop, ctrl+2 = step.
                self.expr(start, ctrl, tmp);
                self.expr(stop, ctrl + 1, tmp);
                self.expr(step, ctrl + 2, tmp);
                let prep_idx = self.ops.len();
                self.ops.push(Op::ForPrep { base: ctrl, slot, to: PENDING });
                let body_top = self.here();
                self.loop_stack
                    .push(LoopCtx { continue_fixups: vec![], exit_fixups: vec![prep_idx] });
                self.compile_steps(pos + 1);
                let ctx = self.loop_stack.pop().expect("ctx");
                let cont = self.here();
                for f in ctx.continue_fixups {
                    self.patch(f, cont);
                }
                self.ops.push(Op::ForLoop { base: ctrl, slot, to: body_top });
                let exit = self.here();
                for f in ctx.exit_fixups {
                    self.patch(f, exit);
                }
            }
            VmStyle::While => {
                // var = start; while in_range(var) { body; var += step } —
                // stop and step are RE-EVALUATED each iteration, the cost
                // signature of a `while` in the paper's measurement.
                self.expr(start, slot, tmp);
                let top = self.here();
                let cond = self.emit_in_range_check(slot, stop, step);
                let jz_idx = self.ops.len();
                self.ops.push(Op::JmpIfZero { r: cond, to: PENDING });
                self.loop_stack
                    .push(LoopCtx { continue_fixups: vec![], exit_fixups: vec![jz_idx] });
                self.compile_steps(pos + 1);
                let ctx = self.loop_stack.pop().expect("ctx");
                let cont = self.here();
                for f in ctx.continue_fixups {
                    self.patch(f, cont);
                }
                // var += step (re-evaluate step).
                self.expr(step, tmp, tmp + 1);
                self.ops.push(Op::Bin { op: IntBinOp::Add, dst: slot, a: slot, b: tmp });
                self.ops.push(Op::Jmp { to: top });
                let exit = self.here();
                for f in ctx.exit_fixups {
                    self.patch(f, exit);
                }
            }
            VmStyle::RepeatUntil => {
                // var = start; if !in_range(var) goto exit;
                // repeat { body; var += step } until !in_range(var)
                self.expr(start, slot, tmp);
                let cond = self.emit_in_range_check(slot, stop, step);
                let jz_idx = self.ops.len();
                self.ops.push(Op::JmpIfZero { r: cond, to: PENDING });
                let body_top = self.here();
                self.loop_stack
                    .push(LoopCtx { continue_fixups: vec![], exit_fixups: vec![jz_idx] });
                self.compile_steps(pos + 1);
                let ctx = self.loop_stack.pop().expect("ctx");
                let cont = self.here();
                for f in ctx.continue_fixups {
                    self.patch(f, cont);
                }
                self.expr(step, tmp, tmp + 1);
                self.ops.push(Op::Bin { op: IntBinOp::Add, dst: slot, a: slot, b: tmp });
                let cond = self.emit_in_range_check(slot, stop, step);
                self.ops.push(Op::JmpIfNonZero { r: cond, to: body_top });
                let exit = self.here();
                for f in ctx.exit_fixups {
                    self.patch(f, exit);
                }
            }
        }
    }

    /// Emit `(step > 0 && var < stop) || (step < 0 && var > stop)` handling
    /// dynamic step signs; returns the register holding the 0/1 result.
    fn emit_in_range_check(&mut self, var: u16, stop: &IntExpr, step: &IntExpr) -> u16 {
        let tmp = self.temp_base;
        let (r_stop, r_step, r_zero, r_c1, r_c2, r_res) =
            (tmp, tmp + 1, tmp + 2, tmp + 3, tmp + 4, tmp + 5);
        self.touch(r_res + 1);
        self.expr(stop, r_stop, r_res + 1);
        self.expr(step, r_step, r_res + 1);
        // Fast path for the overwhelmingly common case of a constant,
        // positive step: a single comparison, like real generated code.
        if let Some(k) = step.as_const() {
            if k > 0 {
                self.ops.push(Op::Bin { op: IntBinOp::Lt, dst: r_res, a: var, b: r_stop });
                return r_res;
            }
            if k < 0 {
                self.ops.push(Op::Bin { op: IntBinOp::Gt, dst: r_res, a: var, b: r_stop });
                return r_res;
            }
        }
        self.ops.push(Op::LoadK { dst: r_zero, k: 0 });
        // c1 = step > 0 && var < stop  (bitwise-style: both are 0/1, use Mul)
        self.ops.push(Op::Bin { op: IntBinOp::Gt, dst: r_c1, a: r_step, b: r_zero });
        self.ops.push(Op::Bin { op: IntBinOp::Lt, dst: r_c2, a: var, b: r_stop });
        self.ops.push(Op::Bin { op: IntBinOp::Mul, dst: r_c1, a: r_c1, b: r_c2 });
        // c2 = step < 0 && var > stop
        self.ops.push(Op::Bin { op: IntBinOp::Lt, dst: r_res, a: r_step, b: r_zero });
        self.ops.push(Op::Bin { op: IntBinOp::Gt, dst: r_c2, a: var, b: r_stop });
        self.ops.push(Op::Bin { op: IntBinOp::Mul, dst: r_res, a: r_res, b: r_c2 });
        // res = c1 | c2 (sum of disjoint 0/1 flags)
        self.ops.push(Op::Bin { op: IntBinOp::Add, dst: r_res, a: r_res, b: r_c1 });
        r_res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beast_core::constraint::ConstraintClass;
    use beast_core::expr::{min2, var};
    use beast_core::plan::{Plan, PlanOptions};
    use beast_core::space::Space;
    use beast_core::value::Value;

    use crate::visit::{CollectVisitor, CountVisitor};

    fn lowered(space: &std::sync::Arc<Space>) -> LoweredPlan {
        let plan = Plan::new(space, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    }

    fn mini_space() -> std::sync::Arc<Space> {
        Space::builder("mini")
            .constant("cap", 20)
            .range("a", 1, 5)
            .range_step("b", var("a"), 13, var("a"))
            .derived("ab", var("a") * var("b"))
            .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
            .build()
            .unwrap()
    }

    #[test]
    fn all_styles_agree() {
        let space = mini_space();
        let lp = lowered(&space);
        let mut results = Vec::new();
        for style in [VmStyle::NumericFor, VmStyle::While, VmStyle::RepeatUntil] {
            let vm = Vm::compile(&lp, style);
            let out = vm
                .run(CollectVisitor::new(vm.point_names().clone(), 10_000))
                .unwrap();
            let pts: Vec<(i64, i64, i64)> = out
                .visitor
                .points
                .iter()
                .map(|p| (p.get_int("a"), p.get_int("b"), p.get_int("ab")))
                .collect();
            results.push((out.stats, pts));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
        assert!(!results[0].1.is_empty());
    }

    #[test]
    fn matches_brute_force() {
        let space = mini_space();
        let lp = lowered(&space);
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let out = vm.run(CountVisitor::default()).unwrap();
        let mut expected = 0u64;
        for a in 1..5i64 {
            let mut b = a;
            while b < 13 {
                if a * b <= 20 {
                    expected += 1;
                }
                b += a;
            }
        }
        assert_eq!(out.visitor.count, expected);
    }

    #[test]
    fn empty_ranges_run_zero_times() {
        let space = Space::builder("empty")
            .range("x", 5, 5)
            .build()
            .unwrap();
        let lp = lowered(&space);
        for style in [VmStyle::NumericFor, VmStyle::While, VmStyle::RepeatUntil] {
            let vm = Vm::compile(&lp, style);
            let out = vm.run(CountVisitor::default()).unwrap();
            assert_eq!(out.visitor.count, 0, "style {style:?}");
        }
    }

    #[test]
    fn negative_steps() {
        let space = Space::builder("down")
            .range_step("x", 9, 0, -3)
            .build()
            .unwrap();
        let lp = lowered(&space);
        for style in [VmStyle::NumericFor, VmStyle::While, VmStyle::RepeatUntil] {
            let vm = Vm::compile(&lp, style);
            let out = vm
                .run(CollectVisitor::new(vm.point_names().clone(), 10))
                .unwrap();
            let xs: Vec<i64> = out.visitor.points.iter().map(|p| p.get_int("x")).collect();
            assert_eq!(xs, vec![9, 6, 3], "style {style:?}");
        }
    }

    #[test]
    fn list_iterators() {
        let space = Space::builder("list")
            .list("x", [2i64, 7, 1])
            .build()
            .unwrap();
        let lp = lowered(&space);
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let out = vm
            .run(CollectVisitor::new(vm.point_names().clone(), 10))
            .unwrap();
        let xs: Vec<i64> = out.visitor.points.iter().map(|p| p.get_int("x")).collect();
        assert_eq!(xs, vec![2, 7, 1]);
    }

    #[test]
    fn opaque_iterators_deriveds_constraints() {
        let space = Space::builder("opaque")
            .constant("cap", 6)
            .range("n", 1, 6)
            .deferred_iter("d", &["n"], |env| {
                let n = env.require_int("n")?;
                Ok(Realized::Range { start: n, stop: 0, step: -1 })
            })
            .derived_fn("dd", &["d"], |env| Ok(Value::Int(env.require_int("d")? * 2)))
            .constraint_fn("big", ConstraintClass::Soft, &["dd", "cap"], |env| {
                Ok(env.require_int("dd")? > env.require_int("cap")?)
            })
            .build()
            .unwrap();
        let lp = lowered(&space);
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let out = vm.run(CountVisitor::default()).unwrap();
        // survivors: pairs (n, d) with d in n..1 and 2d <= 6.
        let mut expected = 0u64;
        for n in 1..6i64 {
            for d in (1..=n).rev() {
                if 2 * d <= 6 {
                    expected += 1;
                }
            }
        }
        assert_eq!(out.visitor.count, expected);
    }

    #[test]
    fn builtins_compile() {
        let space = Space::builder("builtins")
            .range("x", 1, 10)
            .derived("m", min2(var("x"), 5))
            .constraint("over", ConstraintClass::Generic, var("m").ge(5))
            .build()
            .unwrap();
        let lp = lowered(&space);
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let out = vm.run(CountVisitor::default()).unwrap();
        // x in 1..10, keep min(x,5) < 5 → x in 1..=4.
        assert_eq!(out.visitor.count, 4);
    }

    #[test]
    fn short_circuit_logic_compiles() {
        // x != 0 && 12 % x == 0 — division by zero must not happen at x=0.
        let space = Space::builder("sc")
            .range("x", 0, 13)
            .constraint(
                "not_divisor",
                ConstraintClass::Generic,
                var("x").ne(0).and((twelve() % var("x")).eq(0)).not(),
            )
            .build()
            .unwrap();
        fn twelve() -> beast_core::expr::E {
            beast_core::expr::lit(12)
        }
        let lp = lowered(&space);
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let out = vm.run(CountVisitor::default()).unwrap();
        // Divisors of 12 in 1..12: 1,2,3,4,6,12 → 6 survivors.
        assert_eq!(out.visitor.count, 6);
    }

    #[test]
    fn program_length_reasonable() {
        let space = mini_space();
        let lp = lowered(&space);
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        assert!(vm.len() > 5);
        assert!(!vm.is_empty());
    }
}
