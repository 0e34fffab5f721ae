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
//! The compiled engine, the exact counter and both samplers run these
//! programs; [`StepProgs`] is the per-step table the counter and the
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

/// What [`StepProgs`] compiled for one step.
#[derive(Debug, Clone)]
enum StepProg {
    /// A define body or a check predicate.
    Expr(PointProg),
    /// A range bind's start, stop and step.
    Range([PointProg; 3]),
    /// Nothing to compile: a value-list bind, an opaque body, the visit.
    None,
}

/// The point programs of every step of a lowered plan, compiled once: the
/// concrete evaluator the exact counter (`analyze::count`) and the
/// samplers of `beast_search` share. Opaque steps go through the space's
/// closures.
#[derive(Debug, Clone)]
pub struct StepProgs<'a> {
    lp: &'a LoweredPlan,
    progs: Vec<StepProg>,
}

impl<'a> StepProgs<'a> {
    /// Compile every expression of `lp`'s steps.
    pub fn new(lp: &'a LoweredPlan) -> StepProgs<'a> {
        let progs = lp
            .steps
            .iter()
            .map(|s| match s {
                LStep::Define { body: LBody::Expr(e), .. }
                | LStep::Check { body: LBody::Expr(e), .. } => StepProg::Expr(PointProg::compile(e)),
                LStep::Bind { domain: LIter::Range { start, stop, step }, .. } => {
                    StepProg::Range([start, stop, step].map(PointProg::compile))
                }
                _ => StepProg::None,
            })
            .collect();
        StepProgs { lp, progs }
    }

    /// The value of the define at step `i`.
    #[inline]
    pub fn define(&self, i: usize, slots: &[i64]) -> Result<i64, EvalError> {
        if let StepProg::Expr(p) = &self.progs[i] {
            return p.eval(slots);
        }
        let LStep::Define { derived, .. } = &self.lp.steps[i] else {
            unreachable!("step {i} is not a define")
        };
        self.lp.plan.space().deriveds()[*derived].kind.eval(&self.view(slots))?.as_int()
    }

    /// Does the check at step `i` reject?
    #[inline]
    pub fn rejects(&self, i: usize, slots: &[i64]) -> Result<bool, EvalError> {
        if let StepProg::Expr(p) = &self.progs[i] {
            return Ok(p.eval(slots)? != 0);
        }
        let LStep::Check { constraint, .. } = &self.lp.steps[i] else {
            unreachable!("step {i} is not a check")
        };
        self.lp.plan.space().constraints()[*constraint].kind.rejects(&self.view(slots))
    }

    /// `(start, stop, step)` of the range bind at step `i`, evaluated in
    /// that order (the first error wins).
    ///
    /// # Panics
    /// If step `i` is not a bind over a range.
    #[inline]
    pub fn bounds(&self, i: usize, slots: &[i64]) -> Result<(i64, i64, i64), EvalError> {
        let StepProg::Range([start, stop, step]) = &self.progs[i] else {
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
        SlotView { names: &self.lp.slot_names, slots, consts: self.lp.plan.space().consts() }
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
