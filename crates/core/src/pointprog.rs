//! Register-form point programs: the one concrete evaluator of a lowered
//! plan's expressions outside the walker and the VM.
//!
//! [`IntExpr`] is a boxed tree; evaluating it recursively costs a pointer
//! chase and a `Result` frame per node. [`PointProg`] compiles it once into
//! a short register program in the shape of [`crate::interval::IvProg`]:
//! leaves (constants and slots) are read in place as operands of their
//! parent instead of being pushed anywhere, every instruction writes one
//! register, and registers are allocated like stack depths, so a program
//! knows its register count at compile time and runs out of a fixed local
//! array. `&&`, `||` and the ternary become conditional set-and-jump
//! instructions, so the operand they skip is never evaluated and never
//! raises an error (a ternary choosing between two leaves, which cannot
//! fail, is one select).
//!
//! A level's straight-line run of defines and checks is compiled once more,
//! into one [`RunProg`]: the steps' programs back to back over one value
//! file of slots, constants and temporaries, specialised per operator, a
//! define writing its slot and a check leaving the run ([`RunProgs`]). The
//! compiled engine, the exact counter and both samplers run those; a
//! [`PointProg`] on its own evaluates range bounds and the analyses'
//! coefficients, and [`StepProgs`] is the table the counter and the
//! samplers share. [`IntExpr::eval`] stays the recursive reference, and the
//! arithmetic is literally the same ([`eval_bin`], [`eval_call2`]), so every
//! value and every error — including which error, when several subtrees
//! could fail — is identical.

use std::sync::Arc;

use crate::error::EvalError;
use crate::expr::{Bindings, Builtin};
use crate::ir::{eval_bin, eval_call2, IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};
use crate::iterator::Realized;
use crate::value::Value;

/// An operand of a point instruction. Leaves are read where they live,
/// never copied into a register first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    Const(i64),
    Slot(u32),
    /// The register an earlier instruction of the same program wrote.
    Reg(u32),
}

/// One instruction of a [`PointProg`], writing register `dst`. Jump
/// targets `to` are instruction indices; the program length ends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ins {
    Neg { dst: u32, a: Arg },
    Not { dst: u32, a: Arg },
    Abs { dst: u32, a: Arg },
    /// A strict operator ([`eval_bin`]; `&&` / `||` compile to jumps).
    Bin { op: IntBinOp, dst: u32, a: Arg, b: Arg },
    Call2 { f: Builtin, dst: u32, a: Arg, b: Arg },
    /// A leaf landing in the join register of a ternary or `&&` / `||`.
    Mov { dst: u32, a: Arg },
    /// `dst = c != 0 ? t : f` for a ternary over two leaves, which cannot
    /// fail, so neither needs a jump around it.
    Select { dst: u32, c: Arg, t: Arg, f: Arg },
    /// The `&&` guard: when `a` is 0, `dst = 0` and jump past the right
    /// operand.
    JzSet { a: Arg, dst: u32, to: u32 },
    /// The `||` guard: when `a` is nonzero, `dst = 1` and jump past the
    /// right operand.
    JnzSet { a: Arg, dst: u32, to: u32 },
    /// The ternary guard: when `a` is 0, jump to the else branch.
    Jz { a: Arg, to: u32 },
    /// The then branch jumping past the else branch.
    Jmp { to: u32 },
}

/// Registers held in a local array; a program needing more runs the same
/// evaluator over a heap vector.
pub const LOCAL_REGS: usize = 16;

/// A register-form compilation of an [`IntExpr`] for point evaluation (see
/// the module docs).
///
/// Constant subtrees fold at compile time wherever evaluating them cannot
/// fail: `1 / 0` and `i64::MIN // -1` stay in the program and fail when it
/// runs, exactly where the tree would. A `!= 0` after an `&&` / `||`
/// operand that already yields 0/1 is not emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointProg {
    ins: Box<[Ins]>,
    /// Where the value is read: `Reg(0)`, or the leaf itself when the
    /// expression folded to a constant or is a bare slot (no instructions).
    root: Arg,
    /// Registers the program writes.
    regs: u32,
}

impl PointProg {
    /// Compile `e` post-order into register form.
    pub fn compile(e: &IntExpr) -> PointProg {
        let mut c = Compiler { ins: Vec::new(), regs: 0 };
        let root = c.go(e, 0);
        debug_assert!(matches!(root, Arg::Reg(0)) != c.ins.is_empty(), "{e:?}");
        PointProg { ins: c.ins.into(), root, regs: c.regs }
    }

    /// Number of instructions (0 for a leaf).
    pub fn len(&self) -> usize {
        self.ins.len()
    }

    /// True for a leaf program: a bare slot or a (folded) constant.
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty()
    }

    /// Registers the program writes (0 for a leaf).
    pub fn regs(&self) -> u32 {
        self.regs
    }

    /// Evaluate against a slot array: the value [`IntExpr::eval`] returns,
    /// or its error.
    #[inline]
    pub fn eval(&self, slots: &[i64]) -> Result<i64, EvalError> {
        match self.root {
            Arg::Const(c) => Ok(c),
            Arg::Slot(s) => Ok(slots[s as usize]),
            Arg::Reg(_) if self.regs as usize <= LOCAL_REGS => {
                self.run(slots, &mut [0; LOCAL_REGS])
            }
            Arg::Reg(_) => self.run(slots, &mut vec![0; self.regs as usize]),
        }
    }

    /// The evaluator, over whichever register storage `eval` picked.
    #[inline(always)]
    fn run(&self, slots: &[i64], regs: &mut [i64]) -> Result<i64, EvalError> {
        #[inline(always)]
        fn load(a: Arg, slots: &[i64], regs: &[i64]) -> i64 {
            match a {
                Arg::Const(c) => c,
                Arg::Slot(s) => slots[s as usize],
                Arg::Reg(r) => regs[r as usize],
            }
        }
        let ins = &*self.ins;
        let mut pc = 0;
        while let Some(i) = ins.get(pc) {
            pc += 1;
            match *i {
                Ins::Bin { op, dst, a, b } => {
                    regs[dst as usize] = eval_bin(op, load(a, slots, regs), load(b, slots, regs))?;
                }
                Ins::Call2 { f, dst, a, b } => {
                    regs[dst as usize] = eval_call2(f, load(a, slots, regs), load(b, slots, regs))?;
                }
                Ins::Neg { dst, a } => regs[dst as usize] = load(a, slots, regs).wrapping_neg(),
                Ins::Not { dst, a } => regs[dst as usize] = i64::from(load(a, slots, regs) == 0),
                Ins::Abs { dst, a } => regs[dst as usize] = load(a, slots, regs).wrapping_abs(),
                Ins::Mov { dst, a } => regs[dst as usize] = load(a, slots, regs),
                Ins::Select { dst, c, t, f } => {
                    let pick = if load(c, slots, regs) != 0 { t } else { f };
                    regs[dst as usize] = load(pick, slots, regs);
                }
                Ins::JzSet { a, dst, to } => {
                    if load(a, slots, regs) == 0 {
                        regs[dst as usize] = 0;
                        pc = to as usize;
                    }
                }
                Ins::JnzSet { a, dst, to } => {
                    if load(a, slots, regs) != 0 {
                        regs[dst as usize] = 1;
                        pc = to as usize;
                    }
                }
                Ins::Jz { a, to } => {
                    if load(a, slots, regs) == 0 {
                        pc = to as usize;
                    }
                }
                Ins::Jmp { to } => pc = to as usize,
            }
        }
        Ok(regs[0])
    }
}

/// Post-order code generation with stack-depth register allocation.
struct Compiler {
    ins: Vec<Ins>,
    regs: u32,
}

impl Compiler {
    /// Emit `e` with `d` as the lowest free register. Returns the operand a
    /// parent reads: a leaf when `e` is one or folded to a constant (then
    /// nothing was emitted), `Reg(d)` otherwise.
    fn go(&mut self, e: &IntExpr, d: u32) -> Arg {
        match e {
            IntExpr::Const(c) => Arg::Const(*c),
            IntExpr::Slot(s) => Arg::Slot(*s),
            IntExpr::Neg(a) => match self.go(a, d) {
                Arg::Const(c) => Arg::Const(c.wrapping_neg()),
                a => self.emit(d, Ins::Neg { dst: d, a }),
            },
            IntExpr::Not(a) => match self.go(a, d) {
                Arg::Const(c) => Arg::Const(i64::from(c == 0)),
                a => self.emit(d, Ins::Not { dst: d, a }),
            },
            IntExpr::Abs(a) => match self.go(a, d) {
                Arg::Const(c) => Arg::Const(c.wrapping_abs()),
                a => self.emit(d, Ins::Abs { dst: d, a }),
            },
            // A constant right operand that cannot decide the result: both
            // reduce to the left operand's truth.
            IntExpr::Bin(IntBinOp::And, a, b) if matches!(const_value(b), Some(k) if k != 0) => {
                self.truth(a, d)
            }
            IntExpr::Bin(IntBinOp::Or, a, b) if const_value(b) == Some(0) => self.truth(a, d),
            IntExpr::Bin(IntBinOp::And, a, b) => match self.go(a, d) {
                Arg::Const(0) => Arg::Const(0),
                Arg::Const(_) => self.truth(b, d),
                a => self.guarded(d, Ins::JzSet { a, dst: d, to: 0 }, b),
            },
            IntExpr::Bin(IntBinOp::Or, a, b) => match self.go(a, d) {
                Arg::Const(0) => self.truth(b, d),
                Arg::Const(_) => Arg::Const(1),
                a => self.guarded(d, Ins::JnzSet { a, dst: d, to: 0 }, b),
            },
            // `x != 0` is `x` itself when `x` is 0 or 1.
            IntExpr::Bin(IntBinOp::Ne, a, b) if const_value(b) == Some(0) => self.truth(a, d),
            IntExpr::Bin(op, a, b) => {
                let a = self.go(a, d);
                let b = self.go(b, above(d, a));
                if let (Arg::Const(x), Arg::Const(y)) = (a, b) {
                    if let Ok(v) = eval_bin(*op, x, y) {
                        return Arg::Const(v);
                    }
                }
                self.emit(d, Ins::Bin { op: *op, dst: d, a, b })
            }
            IntExpr::Call2(f, a, b) => {
                let a = self.go(a, d);
                let b = self.go(b, above(d, a));
                if let (Arg::Const(x), Arg::Const(y)) = (a, b) {
                    if let Ok(v) = eval_call2(*f, x, y) {
                        return Arg::Const(v);
                    }
                }
                self.emit(d, Ins::Call2 { f: *f, dst: d, a, b })
            }
            IntExpr::Ternary(c, t, f) => match self.go(c, d) {
                Arg::Const(0) => self.go(f, d),
                Arg::Const(_) => self.go(t, d),
                c => match (leaf(t), leaf(f)) {
                    (Some(t), Some(f)) => self.emit(d, Ins::Select { dst: d, c, t, f }),
                    _ => {
                        let jz = self.ins.len();
                        self.emit(d, Ins::Jz { a: c, to: 0 });
                        let t = self.go(t, d);
                        self.land(d, t);
                        let jmp = self.ins.len();
                        self.emit(d, Ins::Jmp { to: 0 });
                        self.patch(jz);
                        let f = self.go(f, d);
                        self.land(d, f);
                        self.patch(jmp);
                        Arg::Reg(d)
                    }
                },
            },
        }
    }

    /// `e != 0` as an operand, without the comparison when `e` already
    /// yields 0/1.
    fn truth(&mut self, e: &IntExpr, d: u32) -> Arg {
        match self.go(e, d) {
            Arg::Const(c) => Arg::Const(i64::from(c != 0)),
            v @ Arg::Reg(_) if yields_bool(e) => v,
            v => self.emit(d, Ins::Bin { op: IntBinOp::Ne, dst: d, a: v, b: Arg::Const(0) }),
        }
    }

    /// An `&&` / `||` whose left operand is not a constant: `guard`, then
    /// the right operand's truth in `d`, the guard jumping past it.
    fn guarded(&mut self, d: u32, guard: Ins, b: &IntExpr) -> Arg {
        let at = self.ins.len();
        self.emit(d, guard);
        let b = self.truth(b, d);
        self.land(d, b);
        self.patch(at);
        Arg::Reg(d)
    }

    /// Land a branch's value in the join register `d`.
    fn land(&mut self, d: u32, a: Arg) {
        if !matches!(a, Arg::Reg(_)) {
            self.emit(d, Ins::Mov { dst: d, a });
        }
    }

    /// Point the jump at `at` just past the last emitted instruction.
    fn patch(&mut self, at: usize) {
        let end = self.ins.len() as u32;
        match &mut self.ins[at] {
            Ins::JzSet { to, .. } | Ins::JnzSet { to, .. } | Ins::Jz { to, .. } | Ins::Jmp { to } => {
                *to = end
            }
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }

    fn emit(&mut self, d: u32, i: Ins) -> Arg {
        self.regs = self.regs.max(d + 1);
        self.ins.push(i);
        Arg::Reg(d)
    }
}

/// The leaf operand `e` compiles to — a slot, or the constant it folds to —
/// if it is one.
fn leaf(e: &IntExpr) -> Option<Arg> {
    match e {
        IntExpr::Slot(s) => Some(Arg::Slot(*s)),
        _ => const_value(e).map(Arg::Const),
    }
}

/// The constant `e` folds to when it reads no slot and cannot fail.
fn const_value(e: &IntExpr) -> Option<i64> {
    let mut reads = false;
    e.for_each_slot(&mut |_| reads = true);
    if reads {
        None
    } else {
        e.eval(&[]).ok()
    }
}

/// The register a sibling evaluated after `a` may use.
fn above(d: u32, a: Arg) -> u32 {
    d + u32::from(matches!(a, Arg::Reg(_)))
}

/// Does `e` always evaluate to 0 or 1?
fn yields_bool(e: &IntExpr) -> bool {
    use IntBinOp::*;
    matches!(
        e,
        IntExpr::Not(_) | IntExpr::Bin(Lt | Le | Gt | Ge | Eq | Ne | And | Or, _, _)
    )
}

/// Positional [`Bindings`] over a slot array plus the space's constants,
/// for the opaque closures of deferred iterators, defines and checks.
pub struct SlotView<'a> {
    /// Slot names.
    pub names: &'a [Arc<str>],
    /// Slot values.
    pub slots: &'a [i64],
    /// The space's constants.
    pub consts: &'a [(Arc<str>, Value)],
}

impl Bindings for SlotView<'_> {
    fn get(&self, name: &str) -> Option<Value> {
        if let Some(i) = self.names.iter().position(|n| &**n == name) {
            return Some(Value::Int(self.slots[i]));
        }
        self.consts.iter().find(|(n, _)| &**n == name).map(|(_, v)| v.clone())
    }
}

/// An index into a run's value file: the plan's slots, then the constants
/// of its run programs, then the temporaries they share.
type Vx = u32;

/// One instruction of a [`RunProg`]: one variant per operator, operands and
/// destinations are value-file indices, jump targets are instruction
/// indices of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RIns {
    Add(Vx, Vx, Vx),
    Sub(Vx, Vx, Vx),
    Mul(Vx, Vx, Vx),
    Div(Vx, Vx, Vx),
    FloorDiv(Vx, Vx, Vx),
    Rem(Vx, Vx, Vx),
    Lt(Vx, Vx, Vx),
    Le(Vx, Vx, Vx),
    Gt(Vx, Vx, Vx),
    Ge(Vx, Vx, Vx),
    Eq(Vx, Vx, Vx),
    Ne(Vx, Vx, Vx),
    Min(Vx, Vx, Vx),
    Max(Vx, Vx, Vx),
    DivCeil(Vx, Vx, Vx),
    Gcd(Vx, Vx, Vx),
    RoundUp(Vx, Vx, Vx),
    Neg(Vx, Vx),
    Not(Vx, Vx),
    Abs(Vx, Vx),
    Mov(Vx, Vx),
    Select { d: Vx, c: Vx, t: Vx, f: Vx },
    JzSet { a: Vx, d: Vx, to: u32 },
    JnzSet { a: Vx, d: Vx, to: u32 },
    Jz { a: Vx, to: u32 },
    Jmp { to: u32 },
    /// An elidable check: jump past it when bit `bit` of the caller's skip
    /// mask is set.
    Skip { bit: u32, to: u32 },
    /// Check `k` (an index into [`RunProg::steps`]) rejects when `a` is
    /// nonzero: leave the run.
    Exit { a: Vx, k: u32 },
    /// A check whose root is a comparison, fused with its exit.
    ExitLt { a: Vx, b: Vx, k: u32 },
    ExitLe { a: Vx, b: Vx, k: u32 },
    ExitGt { a: Vx, b: Vx, k: u32 },
    ExitGe { a: Vx, b: Vx, k: u32 },
    ExitEq { a: Vx, b: Vx, k: u32 },
    ExitNe { a: Vx, b: Vx, k: u32 },
}

impl RIns {
    /// The same (non-jump) instruction writing `d` instead.
    fn retarget(self, d: Vx) -> RIns {
        use RIns::*;
        match self {
            Add(_, a, b) => Add(d, a, b),
            Sub(_, a, b) => Sub(d, a, b),
            Mul(_, a, b) => Mul(d, a, b),
            Div(_, a, b) => Div(d, a, b),
            FloorDiv(_, a, b) => FloorDiv(d, a, b),
            Rem(_, a, b) => Rem(d, a, b),
            Lt(_, a, b) => Lt(d, a, b),
            Le(_, a, b) => Le(d, a, b),
            Gt(_, a, b) => Gt(d, a, b),
            Ge(_, a, b) => Ge(d, a, b),
            Eq(_, a, b) => Eq(d, a, b),
            Ne(_, a, b) => Ne(d, a, b),
            Min(_, a, b) => Min(d, a, b),
            Max(_, a, b) => Max(d, a, b),
            DivCeil(_, a, b) => DivCeil(d, a, b),
            Gcd(_, a, b) => Gcd(d, a, b),
            RoundUp(_, a, b) => RoundUp(d, a, b),
            Neg(_, a) => Neg(d, a),
            Not(_, a) => Not(d, a),
            Abs(_, a) => Abs(d, a),
            Mov(_, a) => Mov(d, a),
            Select { c, t, f, .. } => Select { d, c, t, f },
            other => unreachable!("retargeting {other:?}"),
        }
    }
}

/// How a [`RunProg`] left its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every check passed (or was skipped); every define wrote its slot.
    Pass,
    /// The check at this index of [`RunProg::steps`] rejected.
    Reject(u32),
}

/// An evaluation error inside a run: the error per-step evaluation raises,
/// at the step that raises it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFault {
    /// Index into [`RunProg::steps`] of the failing define or check. The
    /// defines before it have written their slots, the checks before it
    /// have passed; the failing step wrote nothing.
    pub step: u32,
    /// The error.
    pub error: EvalError,
}

/// One level's straight-line run of expression defines and checks,
/// compiled into one flat register program over a value file (see
/// [`RunProgs`]): each step's [`PointProg`] with its leaves resolved to
/// file indices, a define's root writing its slot and a check's root
/// leaving the run when nonzero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProg {
    ins: Box<[RIns]>,
    /// Per step: the index of its first instruction.
    step_pc: Box<[u32]>,
    /// The plan steps the run executes, in order.
    steps: Box<[u32]>,
    /// The plan step a caller continues from once the run passes.
    end: u32,
}

impl RunProg {
    /// The plan steps the run executes, in order: what the step index of a
    /// [`RunExit::Reject`] or a [`RunFault`] refers to.
    pub fn steps(&self) -> &[u32] {
        &self.steps
    }

    /// The plan step after the run: a bind, the visit, an opaque step, or
    /// the step after a cut.
    pub fn end(&self) -> usize {
        self.end as usize
    }

    /// Run the program over `file`, a value file of its [`RunProgs`]. A
    /// check whose skip bit is set in `skip` is not evaluated (it passes).
    /// Values and errors are those of evaluating the steps one by one with
    /// [`IntExpr::eval`](crate::ir::IntExpr::eval), in step order.
    pub fn run(&self, file: &mut [i64], skip: u64) -> Result<RunExit, RunFault> {
        let ins = &*self.ins;
        let v = file;
        let mut pc = 0;
        macro_rules! bin {
            ($d:expr, $a:expr, $b:expr, $f:expr) => {
                match $f(v[$a as usize], v[$b as usize]) {
                    Ok(x) => v[$d as usize] = x,
                    Err(e) => return Err(self.fault(pc - 1, e)),
                }
            };
        }
        macro_rules! op {
            ($d:expr, $a:expr, $b:expr, $op:ident) => {
                bin!($d, $a, $b, |x, y| eval_bin(IntBinOp::$op, x, y))
            };
        }
        macro_rules! call {
            ($d:expr, $a:expr, $b:expr, $f:ident) => {
                bin!($d, $a, $b, |x, y| eval_call2(Builtin::$f, x, y))
            };
        }
        macro_rules! exit_if {
            ($a:expr, $b:expr, $k:expr, $cmp:tt) => {
                if v[$a as usize] $cmp v[$b as usize] {
                    return Ok(RunExit::Reject($k));
                }
            };
        }
        while let Some(&i) = ins.get(pc) {
            pc += 1;
            match i {
                RIns::Add(d, a, b) => op!(d, a, b, Add),
                RIns::Sub(d, a, b) => op!(d, a, b, Sub),
                RIns::Mul(d, a, b) => op!(d, a, b, Mul),
                RIns::Div(d, a, b) => op!(d, a, b, Div),
                RIns::FloorDiv(d, a, b) => op!(d, a, b, FloorDiv),
                RIns::Rem(d, a, b) => op!(d, a, b, Rem),
                RIns::Lt(d, a, b) => op!(d, a, b, Lt),
                RIns::Le(d, a, b) => op!(d, a, b, Le),
                RIns::Gt(d, a, b) => op!(d, a, b, Gt),
                RIns::Ge(d, a, b) => op!(d, a, b, Ge),
                RIns::Eq(d, a, b) => op!(d, a, b, Eq),
                RIns::Ne(d, a, b) => op!(d, a, b, Ne),
                RIns::Min(d, a, b) => call!(d, a, b, Min),
                RIns::Max(d, a, b) => call!(d, a, b, Max),
                RIns::DivCeil(d, a, b) => call!(d, a, b, DivCeil),
                RIns::Gcd(d, a, b) => call!(d, a, b, Gcd),
                RIns::RoundUp(d, a, b) => call!(d, a, b, RoundUp),
                RIns::Neg(d, a) => v[d as usize] = v[a as usize].wrapping_neg(),
                RIns::Not(d, a) => v[d as usize] = i64::from(v[a as usize] == 0),
                RIns::Abs(d, a) => v[d as usize] = v[a as usize].wrapping_abs(),
                RIns::Mov(d, a) => v[d as usize] = v[a as usize],
                RIns::Select { d, c, t, f } => {
                    v[d as usize] = if v[c as usize] != 0 { v[t as usize] } else { v[f as usize] };
                }
                RIns::JzSet { a, d, to } => {
                    if v[a as usize] == 0 {
                        v[d as usize] = 0;
                        pc = to as usize;
                    }
                }
                RIns::JnzSet { a, d, to } => {
                    if v[a as usize] != 0 {
                        v[d as usize] = 1;
                        pc = to as usize;
                    }
                }
                RIns::Jz { a, to } => {
                    if v[a as usize] == 0 {
                        pc = to as usize;
                    }
                }
                RIns::Jmp { to } => pc = to as usize,
                RIns::Skip { bit, to } => {
                    if skip >> bit & 1 != 0 {
                        pc = to as usize;
                    }
                }
                RIns::Exit { a, k } => {
                    if v[a as usize] != 0 {
                        return Ok(RunExit::Reject(k));
                    }
                }
                RIns::ExitLt { a, b, k } => exit_if!(a, b, k, <),
                RIns::ExitLe { a, b, k } => exit_if!(a, b, k, <=),
                RIns::ExitGt { a, b, k } => exit_if!(a, b, k, >),
                RIns::ExitGe { a, b, k } => exit_if!(a, b, k, >=),
                RIns::ExitEq { a, b, k } => exit_if!(a, b, k, ==),
                RIns::ExitNe { a, b, k } => exit_if!(a, b, k, !=),
            }
        }
        Ok(RunExit::Pass)
    }

    /// The fault of the instruction at `pc`: the step whose code holds it.
    #[cold]
    #[inline(never)]
    fn fault(&self, pc: usize, error: EvalError) -> RunFault {
        let step = self.step_pc.partition_point(|&s| s as usize <= pc) - 1;
        RunFault { step: step as u32, error }
    }
}

/// Which steps the run programs of a [`RunProgs`] execute, and where runs
/// are cut.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Run expression checks. Without them a run executes its defines only
    /// and passes over every check, opaque ones included (a tuple counter,
    /// whose checks never run).
    pub checks: bool,
    /// Plan steps a run ends after: a narrowed loop's opening check, which
    /// a solved entry skips.
    pub cuts: &'a [usize],
    /// Per check step: its bit in the caller's skip mask, if it has one.
    pub skip_bit: &'a dyn Fn(usize) -> Option<u32>,
    /// Also compile the derive program ([`RunProgs::derive_at`]).
    pub derive: bool,
}

impl RunSpec<'_> {
    /// Checks, no cuts, no skip bits, no derive program: the rejection
    /// sampler's walk.
    pub const CHECKED: RunSpec<'static> =
        RunSpec { checks: true, cuts: &[], skip_bit: &|_| None, derive: false };
}

/// The run programs of a lowered plan (see [`RunProg`]), with the value
/// file they share.
///
/// A run is a maximal straight-line sequence of the steps the
/// [`RunSpec`] executes: it starts at a step that follows a bind, an opaque
/// step or a cut (or at step 0), and ends before the next bind, visit or
/// opaque step, or after a cut. The value file is `n_slots` slots, then
/// every distinct constant of every run, then the temporaries, which runs
/// share because none reads another's. [`RunProgs::file`] hands out a fresh
/// file; its slot prefix is the plan's slot array.
///
/// Next to the runs may sit the plan's *derive* program: its expression
/// defines in step order, across binds and checks, which fills the derived
/// slots of a complete assignment ([`RunProgs::derive_at`]).
#[derive(Debug, Clone)]
pub struct RunProgs {
    /// Per plan step: the run starting there, or `NONE`.
    at: Box<[u32]>,
    /// Per plan step: the derive run starting there, or `NONE`.
    derive_at: Box<[u32]>,
    runs: Box<[RunProg]>,
    /// The value file a run starts from: zero slots, the constants, zero
    /// temporaries.
    file: Box<[i64]>,
}

const NONE: u32 = u32::MAX;

impl RunProgs {
    /// Compile the runs of `lp` under `spec`, and its derive program when
    /// `spec` asks for it.
    pub fn new(lp: &LoweredPlan, spec: RunSpec<'_>) -> RunProgs {
        // What a run executes, and what it passes over without executing:
        // unchecked checks, and in the derive program binds and checks.
        let executes = |s: &LStep, derive: bool| match s {
            LStep::Define { body: LBody::Expr(_), .. } => true,
            LStep::Check { body: LBody::Expr(_), .. } => spec.checks && !derive,
            _ => false,
        };
        let passes = |s: &LStep, derive: bool| match s {
            LStep::Check { .. } => derive || !spec.checks,
            LStep::Bind { .. } => derive,
            _ => false,
        };
        // (derive, first step, executed steps, step after the run)
        let mut segments: Vec<(bool, usize, Vec<usize>, usize)> = Vec::new();
        let tables: &[bool] = if spec.derive { &[false, true] } else { &[false] };
        for &derive in tables {
            let mut i = 0;
            while i < lp.steps.len() {
                let start = i;
                let mut members = Vec::new();
                while let Some(s) = lp.steps.get(i) {
                    if executes(s, derive) {
                        members.push(i);
                    } else if !passes(s, derive) {
                        break;
                    }
                    i += 1;
                    if !derive && spec.cuts.contains(&(i - 1)) {
                        break;
                    }
                }
                if i == start {
                    i += 1;
                } else {
                    segments.push((derive, start, members, i));
                }
            }
        }

        // Compile every step once, then lay the constants out.
        let mut progs: Vec<Option<PointProg>> = vec![None; lp.steps.len()];
        let mut consts: Vec<i64> = Vec::new();
        let mut pool = std::collections::HashMap::new();
        let mut temps = 0;
        for (_, _, members, _) in &segments {
            for &s in members {
                if progs[s].is_some() {
                    continue;
                }
                let e = match &lp.steps[s] {
                    LStep::Define { body: LBody::Expr(e), .. }
                    | LStep::Check { body: LBody::Expr(e), .. } => e,
                    _ => unreachable!("run step {s} has no expression"),
                };
                let p = PointProg::compile(e);
                p.for_each_arg(&mut |a| {
                    if let Arg::Const(c) = a {
                        pool.entry(c).or_insert_with(|| {
                            consts.push(c);
                            consts.len() as u32 - 1
                        });
                    }
                });
                temps = temps.max(p.regs);
                progs[s] = Some(p);
            }
        }
        let n_slots = lp.n_slots;
        let temp = n_slots + consts.len() as u32;
        let vx = |a: Arg| match a {
            Arg::Slot(s) => s,
            Arg::Const(c) => n_slots + pool[&c],
            Arg::Reg(r) => temp + r,
        };

        let mut at = vec![NONE; lp.steps.len()];
        let mut derive_at = vec![NONE; lp.steps.len()];
        let mut runs = Vec::with_capacity(segments.len());
        for (derive, start, members, end) in segments {
            let mut code: Vec<RIns> = Vec::new();
            let mut step_pc = Vec::with_capacity(members.len());
            for (k, &s) in members.iter().enumerate() {
                step_pc.push(code.len() as u32);
                let p = progs[s].as_ref().expect("compiled above");
                match &lp.steps[s] {
                    LStep::Define { slot, .. } => p.emit_define(&mut code, *slot, &vx),
                    LStep::Check { .. } => {
                        let skip = (spec.skip_bit)(s).map(|bit| {
                            code.push(RIns::Skip { bit, to: 0 });
                            (code.len() - 1, bit)
                        });
                        p.emit_check(&mut code, k as u32, &vx);
                        if let Some((at, bit)) = skip {
                            code[at] = RIns::Skip { bit, to: code.len() as u32 };
                        }
                    }
                    _ => unreachable!("run step {s} is a define or a check"),
                }
            }
            let table = if derive { &mut derive_at } else { &mut at };
            table[start] = runs.len() as u32;
            runs.push(RunProg {
                ins: code.into(),
                step_pc: step_pc.into(),
                steps: members.iter().map(|&s| s as u32).collect(),
                end: end as u32,
            });
        }
        let mut file = vec![0; (temp + temps) as usize];
        file[n_slots as usize..temp as usize].copy_from_slice(&consts);
        RunProgs {
            at: at.into(),
            derive_at: derive_at.into(),
            runs: runs.into(),
            file: file.into(),
        }
    }

    /// A fresh value file: zero slots, the constants, zero temporaries.
    pub fn file(&self) -> Vec<i64> {
        self.file.to_vec()
    }

    /// The index of the run starting at plan step `step`, if one does.
    #[inline]
    pub fn find(&self, step: usize) -> Option<usize> {
        let r = self.at[step];
        (r != NONE).then_some(r as usize)
    }

    /// The run starting at plan step `step`, if one does.
    #[inline]
    pub fn at(&self, step: usize) -> Option<&RunProg> {
        self.find(step).map(|r| &self.runs[r])
    }

    /// The derive run starting at plan step `step`, if one does: the plan's
    /// expression defines from there to the next opaque define or the
    /// visit.
    #[inline]
    pub fn derive_at(&self, step: usize) -> Option<&RunProg> {
        let r = self.derive_at[step];
        (r != NONE).then(|| &self.runs[r as usize])
    }
}

impl std::ops::Index<usize> for RunProgs {
    type Output = RunProg;

    fn index(&self, r: usize) -> &RunProg {
        &self.runs[r]
    }
}

impl PointProg {
    /// Apply `f` to every operand of the program, the root included.
    fn for_each_arg(&self, f: &mut impl FnMut(Arg)) {
        f(self.root);
        for i in &*self.ins {
            match *i {
                Ins::Neg { a, .. }
                | Ins::Not { a, .. }
                | Ins::Abs { a, .. }
                | Ins::Mov { a, .. }
                | Ins::JzSet { a, .. }
                | Ins::JnzSet { a, .. }
                | Ins::Jz { a, .. } => f(a),
                Ins::Bin { a, b, .. } | Ins::Call2 { a, b, .. } => {
                    f(a);
                    f(b);
                }
                Ins::Select { c, t, f: e, .. } => {
                    f(c);
                    f(t);
                    f(e);
                }
                Ins::Jmp { .. } => {}
            }
        }
    }

    fn has_jumps(&self) -> bool {
        self.ins.iter().any(|i| {
            matches!(i, Ins::JzSet { .. } | Ins::JnzSet { .. } | Ins::Jz { .. } | Ins::Jmp { .. })
        })
    }

    /// Append the program's instructions to `code`, jumps relocated.
    fn emit(&self, code: &mut Vec<RIns>, vx: &impl Fn(Arg) -> Vx) {
        let base = code.len() as u32;
        let r = |d: u32| vx(Arg::Reg(d));
        code.extend(self.ins.iter().map(|i| match *i {
            Ins::Bin { op, dst, a, b } => {
                let (d, a, b) = (r(dst), vx(a), vx(b));
                match op {
                    IntBinOp::Add => RIns::Add(d, a, b),
                    IntBinOp::Sub => RIns::Sub(d, a, b),
                    IntBinOp::Mul => RIns::Mul(d, a, b),
                    IntBinOp::Div => RIns::Div(d, a, b),
                    IntBinOp::FloorDiv => RIns::FloorDiv(d, a, b),
                    IntBinOp::Rem => RIns::Rem(d, a, b),
                    IntBinOp::Lt => RIns::Lt(d, a, b),
                    IntBinOp::Le => RIns::Le(d, a, b),
                    IntBinOp::Gt => RIns::Gt(d, a, b),
                    IntBinOp::Ge => RIns::Ge(d, a, b),
                    IntBinOp::Eq => RIns::Eq(d, a, b),
                    IntBinOp::Ne => RIns::Ne(d, a, b),
                    IntBinOp::And | IntBinOp::Or => unreachable!("`&&` / `||` compile to jumps"),
                }
            }
            Ins::Call2 { f, dst, a, b } => {
                let (d, a, b) = (r(dst), vx(a), vx(b));
                match f {
                    Builtin::Min => RIns::Min(d, a, b),
                    Builtin::Max => RIns::Max(d, a, b),
                    Builtin::DivCeil => RIns::DivCeil(d, a, b),
                    Builtin::Gcd => RIns::Gcd(d, a, b),
                    Builtin::RoundUp => RIns::RoundUp(d, a, b),
                    Builtin::Abs => unreachable!("Abs is unary"),
                }
            }
            Ins::Neg { dst, a } => RIns::Neg(r(dst), vx(a)),
            Ins::Not { dst, a } => RIns::Not(r(dst), vx(a)),
            Ins::Abs { dst, a } => RIns::Abs(r(dst), vx(a)),
            Ins::Mov { dst, a } => RIns::Mov(r(dst), vx(a)),
            Ins::Select { dst, c, t, f } => {
                RIns::Select { d: r(dst), c: vx(c), t: vx(t), f: vx(f) }
            }
            Ins::JzSet { a, dst, to } => RIns::JzSet { a: vx(a), d: r(dst), to: base + to },
            Ins::JnzSet { a, dst, to } => RIns::JnzSet { a: vx(a), d: r(dst), to: base + to },
            Ins::Jz { a, to } => RIns::Jz { a: vx(a), to: base + to },
            Ins::Jmp { to } => RIns::Jmp { to: base + to },
        }));
    }

    /// Append a define into `slot`: the root instruction writes the slot
    /// itself unless a jump joins in its register, which then moves.
    fn emit_define(&self, code: &mut Vec<RIns>, slot: u32, vx: &impl Fn(Arg) -> Vx) {
        if self.ins.is_empty() {
            code.push(RIns::Mov(slot, vx(self.root)));
        } else if self.has_jumps() {
            self.emit(code, vx);
            code.push(RIns::Mov(slot, vx(self.root)));
        } else {
            self.emit(code, vx);
            let last = code.pop().expect("a non-empty program");
            code.push(last.retarget(slot));
        }
    }

    /// Append check `k`: its root leaves the run when nonzero, a root
    /// comparison fused with the exit.
    fn emit_check(&self, code: &mut Vec<RIns>, k: u32, vx: &impl Fn(Arg) -> Vx) {
        match (self.ins.last(), self.has_jumps()) {
            (None, _) if self.root == Arg::Const(0) => {}
            (Some(&Ins::Bin { op, a, b, .. }), false) if yields_cmp(op) => {
                let body = &self.ins[..self.ins.len() - 1];
                PointProg { ins: body.into(), root: self.root, regs: self.regs }.emit(code, vx);
                let (a, b) = (vx(a), vx(b));
                code.push(match op {
                    IntBinOp::Lt => RIns::ExitLt { a, b, k },
                    IntBinOp::Le => RIns::ExitLe { a, b, k },
                    IntBinOp::Gt => RIns::ExitGt { a, b, k },
                    IntBinOp::Ge => RIns::ExitGe { a, b, k },
                    IntBinOp::Eq => RIns::ExitEq { a, b, k },
                    _ => RIns::ExitNe { a, b, k },
                });
            }
            _ => {
                self.emit(code, vx);
                code.push(RIns::Exit { a: vx(self.root), k });
            }
        }
    }
}

/// Is `op` a comparison (its result the 0/1 a check exit tests)?
fn yields_cmp(op: IntBinOp) -> bool {
    use IntBinOp::*;
    matches!(op, Lt | Le | Gt | Ge | Eq | Ne)
}

/// The concrete evaluator of a lowered plan's steps, compiled once: its
/// [`RunProgs`], the bounds of its range binds, and the space's closures
/// for opaque steps. The exact counter (`analyze::count`) and the samplers
/// of `beast_search` run it.
#[derive(Debug, Clone)]
pub struct StepProgs<'a> {
    lp: &'a LoweredPlan,
    /// Per step: a range bind's start, stop and step.
    ranges: Vec<Option<[PointProg; 3]>>,
    runs: RunProgs,
}

impl<'a> StepProgs<'a> {
    /// Compile `lp`'s range bounds and its runs under `spec`.
    pub fn new(lp: &'a LoweredPlan, spec: RunSpec<'_>) -> StepProgs<'a> {
        let ranges = lp
            .steps
            .iter()
            .map(|s| match s {
                LStep::Bind { domain: LIter::Range { start, stop, step }, .. } => {
                    Some([start, stop, step].map(PointProg::compile))
                }
                _ => None,
            })
            .collect();
        StepProgs { lp, ranges, runs: RunProgs::new(lp, spec) }
    }

    /// The plan's run programs.
    pub fn runs(&self) -> &RunProgs {
        &self.runs
    }

    /// The value of the opaque define at step `i`, through the space's
    /// closure.
    pub fn opaque_define(&self, i: usize, slots: &[i64]) -> Result<i64, EvalError> {
        let LStep::Define { derived, body: LBody::Opaque, .. } = &self.lp.steps[i] else {
            unreachable!("step {i} is not an opaque define")
        };
        self.lp.plan.space().deriveds()[*derived].kind.eval(&self.view(slots))?.as_int()
    }

    /// Does the opaque check at step `i` reject?
    pub fn opaque_rejects(&self, i: usize, slots: &[i64]) -> Result<bool, EvalError> {
        let LStep::Check { constraint, body: LBody::Opaque } = &self.lp.steps[i] else {
            unreachable!("step {i} is not an opaque check")
        };
        self.lp.plan.space().constraints()[*constraint].kind.rejects(&self.view(slots))
    }

    /// Fill the derived slots of a value file whose bind slots hold a
    /// complete assignment: every define in step order.
    pub fn derive(&self, file: &mut [i64]) -> Result<(), EvalError> {
        let mut i = 0;
        loop {
            if let Some(run) = self.runs.derive_at(i) {
                run.run(file, 0).map_err(|f| f.error)?;
                i = run.end();
                continue;
            }
            match &self.lp.steps[i] {
                LStep::Visit => return Ok(()),
                LStep::Define { slot, .. } => file[*slot as usize] = self.opaque_define(i, file)?,
                _ => {}
            }
            i += 1;
        }
    }

    /// `(start, stop, step)` of the range bind at step `i`, evaluated in
    /// that order (the first error wins).
    ///
    /// # Panics
    /// If step `i` is not a bind over a range.
    #[inline]
    pub fn bounds(&self, i: usize, slots: &[i64]) -> Result<(i64, i64, i64), EvalError> {
        let Some([start, stop, step]) = &self.ranges[i] else {
            unreachable!("step {i} is not a range bind")
        };
        Ok((start.eval(slots)?, stop.eval(slots)?, step.eval(slots)?))
    }

    /// The domain of the bind at step `i` under `slots`.
    pub fn realize(&self, i: usize, slots: &[i64]) -> Result<Realized, EvalError> {
        let LStep::Bind { iter, domain, .. } = &self.lp.steps[i] else {
            unreachable!("step {i} is not a bind")
        };
        Ok(match domain {
            LIter::Range { .. } => {
                let (start, stop, step) = self.bounds(i, slots)?;
                Realized::Range { start, stop, step }
            }
            LIter::Values(v) => Realized::Values(v.iter().map(|&x| x.into()).collect()),
            LIter::Opaque { .. } => self.lp.plan.space().realize_iter(*iter, &self.view(slots))?,
        })
    }

    fn view<'s>(&'s self, slots: &'s [i64]) -> SlotView<'s> {
        let n = self.lp.n_slots as usize;
        let consts = self.lp.plan.space().consts();
        SlotView { names: &self.lp.slot_names, slots: &slots[..n], consts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IntExpr as E;

    fn b(op: IntBinOp, x: E, y: E) -> E {
        E::Bin(op, Box::new(x), Box::new(y))
    }

    /// Evaluate through a compiled program, cross-checked against the tree.
    fn eval(e: &E, slots: &[i64]) -> Result<i64, EvalError> {
        let got = PointProg::compile(e).eval(slots);
        assert_eq!(got, e.eval(slots), "program vs tree for {e:?}");
        got
    }

    #[test]
    fn arithmetic_reads_leaves_in_place() {
        let e = b(IntBinOp::Add, b(IntBinOp::Mul, E::Slot(0), E::Const(3)), E::Slot(1));
        assert_eq!(eval(&e, &[5, 2]), Ok(17));
        let p = PointProg::compile(&e);
        assert_eq!((p.len(), p.regs()), (2, 1), "{:?}", p.ins);
        // Bare leaves compile to no instructions at all.
        assert!(PointProg::compile(&E::Slot(1)).is_empty());
        assert_eq!(eval(&E::Slot(1), &[0, 9]), Ok(9));
    }

    #[test]
    fn short_circuits_never_run_the_dead_operand() {
        // x != 0 && 12 % x == 0
        let and = b(
            IntBinOp::And,
            b(IntBinOp::Ne, E::Slot(0), E::Const(0)),
            b(IntBinOp::Eq, b(IntBinOp::Rem, E::Const(12), E::Slot(0)), E::Const(0)),
        );
        assert_eq!(eval(&and, &[0]), Ok(0));
        assert_eq!(eval(&and, &[4]), Ok(1));
        assert_eq!(eval(&and, &[5]), Ok(0));
        // x == 0 || 12 / x > 2
        let or = b(
            IntBinOp::Or,
            b(IntBinOp::Eq, E::Slot(0), E::Const(0)),
            b(IntBinOp::Gt, b(IntBinOp::Div, E::Const(12), E::Slot(0)), E::Const(2)),
        );
        assert_eq!(eval(&or, &[0]), Ok(1));
        assert_eq!(eval(&or, &[3]), Ok(1));
        assert_eq!(eval(&or, &[6]), Ok(0));
        // x > 0 ? 100 / x : -1
        let t = E::Ternary(
            Box::new(b(IntBinOp::Gt, E::Slot(0), E::Const(0))),
            Box::new(b(IntBinOp::Div, E::Const(100), E::Slot(0))),
            Box::new(E::Const(-1)),
        );
        assert_eq!(eval(&t, &[4]), Ok(25));
        assert_eq!(eval(&t, &[0]), Ok(-1));
        // Non-boolean right operands are normalised; boolean ones are not
        // compared again: `!=`, the guard, `%` and `==`.
        assert_eq!(eval(&b(IntBinOp::And, E::Slot(0), E::Slot(1)), &[3, 7]), Ok(1));
        let p = PointProg::compile(&and);
        assert_eq!(p.len(), 4, "{:?}", p.ins);
    }

    #[test]
    fn constants_fold_except_where_evaluation_fails() {
        // ((1 + 2) + 3) + 4 * x: the constant prefix folds to one operand.
        let mut chain = E::Const(1);
        for k in 2..4 {
            chain = b(IntBinOp::Add, chain, E::Const(k));
        }
        let e = b(IntBinOp::Add, chain.clone(), b(IntBinOp::Mul, E::Const(4), E::Slot(0)));
        assert_eq!(PointProg::compile(&chain), PointProg::compile(&E::Const(6)));
        assert_eq!(PointProg::compile(&e).len(), 2);
        assert_eq!(eval(&e, &[10]), Ok(46));
        // Failing constant subtrees stay and fail at run time.
        let bad = b(IntBinOp::Div, E::Const(1), E::Const(0));
        assert_eq!(PointProg::compile(&bad).len(), 1);
        assert_eq!(eval(&bad, &[]), Err(EvalError::DivisionByZero));
        let ovf = b(IntBinOp::FloorDiv, E::Const(i64::MIN), E::Const(-1));
        assert_eq!(eval(&ovf, &[]), Err(EvalError::Overflow));
        // ... unless a constant condition makes them dead.
        let dead = E::Ternary(Box::new(E::Const(0)), Box::new(bad), Box::new(E::Slot(0)));
        assert!(PointProg::compile(&dead).is_empty());
        assert_eq!(eval(&dead, &[7]), Ok(7));
    }

    #[test]
    fn deep_programs_spill_to_the_heap_evaluator() {
        // (x*x) + ((x*x) + (...)): every left operand holds a register
        // while the right spine is computed.
        let sq = || b(IntBinOp::Mul, E::Slot(0), E::Slot(0));
        let mut e = sq();
        for _ in 0..24 {
            e = b(IntBinOp::Add, sq(), e);
        }
        let p = PointProg::compile(&e);
        assert!(p.regs() as usize > LOCAL_REGS, "{} registers", p.regs());
        assert_eq!(eval(&e, &[3]), Ok(25 * 9));
    }

    #[test]
    fn floor_division_overflow_is_an_error() {
        let slots = [i64::MIN, -1];
        for e in [
            b(IntBinOp::FloorDiv, E::Slot(0), E::Slot(1)),
            E::Call2(Builtin::DivCeil, Box::new(E::Const(i64::MIN + 2)), Box::new(E::Slot(1))),
            E::Call2(Builtin::RoundUp, Box::new(E::Const(i64::MIN + 2)), Box::new(E::Slot(1))),
        ] {
            assert_eq!(eval(&e, &slots), Err(EvalError::Overflow), "{e:?}");
        }
        // The inner sum of div_ceil wraps instead of panicking.
        let wrap = E::Call2(Builtin::DivCeil, Box::new(E::Slot(0)), Box::new(E::Const(i64::MAX)));
        assert_eq!(eval(&wrap, &[i64::MAX]), Ok(-1));
    }
}
