//! The one concrete expression compiler, and the programs it emits.
//!
//! [`IntExpr`] is a boxed tree; evaluating it recursively costs a pointer
//! chase and a `Result` frame per node. The compiler lowers it once,
//! post-order, into instructions over a *value file*: the plan's slots, then
//! the constants and temporaries of its programs, each interned or allocated
//! the first time it is needed. Leaves are read in place as operands, every
//! instruction writes one file entry, and temporaries are allocated like
//! stack depths, so all the programs of a file share them. `&&`, `||` and
//! the ternary become set-and-jump instructions, so a skipped operand is
//! never evaluated and never raises an error.
//!
//! One file ([`RunProgs`]) holds two shapes of program. A level's run of
//! defines and checks is one [`RunProg`]: a define's root writes its slot, a
//! check's root leaves the run when nonzero. A range bound, a narrowing
//! coefficient or a residue divisor is a [`RootProg`], whose one root the
//! caller reads. [`IntExpr::eval`] stays the recursive reference, and the
//! arithmetic is literally the same ([`eval_bin`], [`eval_call2`]), so every
//! value and every error — including which error, when several subtrees
//! could fail — is identical.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::EvalError;
use crate::expr::{Bindings, Builtin};
use crate::ir::{eval_bin, eval_call2, IntBinOp, IntExpr, LBody, LIter, LStep, LoweredPlan};
use crate::iterator::Realized;
use crate::value::Value;

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

impl<'a> SlotView<'a> {
    /// `lp`'s slots over `slots`, a slot array or a value file.
    pub fn new(lp: &'a LoweredPlan, slots: &'a [i64]) -> SlotView<'a> {
        SlotView { names: &lp.slot_names, slots, consts: lp.plan.space().consts() }
    }
}

impl Bindings for SlotView<'_> {
    fn get(&self, name: &str) -> Option<Value> {
        if let Some(i) = self.names.iter().position(|n| &**n == name) {
            return Some(Value::Int(self.slots[i]));
        }
        self.consts.iter().find(|(n, _)| &**n == name).map(|(_, v)| v.clone())
    }
}

/// An index into a value file: the plan's slots, then the constants and
/// temporaries of its programs.
type Vx = u32;

/// One instruction: one variant per operator over value-file indices; jump
/// targets are instruction indices of the program.
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
    /// The `&&` guard: when `a` is 0, `d = 0` and jump past the right
    /// operand.
    JzSet { a: Vx, d: Vx, to: u32 },
    /// The `||` guard: when `a` is nonzero, `d = 1` and jump past the right
    /// operand.
    JnzSet { a: Vx, d: Vx, to: u32 },
    /// The ternary guard: when `a` is 0, jump to the else branch.
    Jz { a: Vx, to: u32 },
    Jmp { to: u32 },
    /// An elidable check: jump past it when bit `bit` of the caller's skip
    /// mask is set.
    Skip { bit: u32, to: u32 },
    /// Check `k` (an index into [`RunProg::steps`]) rejects when `a` is
    /// nonzero: leave the run.
    Exit { a: Vx, k: u32 },
    /// A check's root comparison fused with its exit: `(a, b, k)`.
    ExitLt(Vx, Vx, u32),
    ExitLe(Vx, Vx, u32),
    ExitGt(Vx, Vx, u32),
    ExitGe(Vx, Vx, u32),
    ExitEq(Vx, Vx, u32),
    ExitNe(Vx, Vx, u32),
}

/// Run `ins` over the value file `v` to its end or an exit; an error
/// carries the index of the instruction that raised it.
#[inline(always)]
fn exec(ins: &[RIns], v: &mut [i64], skip: u64) -> Result<RunExit, (usize, EvalError)> {
    let mut pc = 0;
    // `op!(d, a, b, eval_bin, IntBinOp::Add)`: `d = eval_bin(Add, a, b)?`.
    macro_rules! op {
        ($d:expr, $a:expr, $b:expr, $eval:ident, $op:expr) => {
            match $eval($op, v[$a as usize], v[$b as usize]) {
                Ok(x) => v[$d as usize] = x,
                Err(e) => return Err((pc - 1, e)),
            }
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
            RIns::Add(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Add),
            RIns::Sub(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Sub),
            RIns::Mul(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Mul),
            RIns::Div(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Div),
            RIns::FloorDiv(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::FloorDiv),
            RIns::Rem(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Rem),
            RIns::Lt(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Lt),
            RIns::Le(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Le),
            RIns::Gt(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Gt),
            RIns::Ge(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Ge),
            RIns::Eq(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Eq),
            RIns::Ne(d, a, b) => op!(d, a, b, eval_bin, IntBinOp::Ne),
            RIns::Min(d, a, b) => op!(d, a, b, eval_call2, Builtin::Min),
            RIns::Max(d, a, b) => op!(d, a, b, eval_call2, Builtin::Max),
            RIns::DivCeil(d, a, b) => op!(d, a, b, eval_call2, Builtin::DivCeil),
            RIns::Gcd(d, a, b) => op!(d, a, b, eval_call2, Builtin::Gcd),
            RIns::RoundUp(d, a, b) => op!(d, a, b, eval_call2, Builtin::RoundUp),
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
            RIns::ExitLt(a, b, k) => exit_if!(a, b, k, <),
            RIns::ExitLe(a, b, k) => exit_if!(a, b, k, <=),
            RIns::ExitGt(a, b, k) => exit_if!(a, b, k, >),
            RIns::ExitGe(a, b, k) => exit_if!(a, b, k, >=),
            RIns::ExitEq(a, b, k) => exit_if!(a, b, k, ==),
            RIns::ExitNe(a, b, k) => exit_if!(a, b, k, !=),
        }
    }
    Ok(RunExit::Pass)
}

/// A value file as the compiler lays it out: the slots, then each constant
/// and temporary in the order it is first needed.
#[derive(Debug, Clone)]
struct Layout {
    /// The file a program starts from: zero slots, the constants, junk
    /// temporaries.
    file: Vec<i64>,
    pool: HashMap<i64, Vx>,
    /// The temporary of each depth.
    temps: Vec<Vx>,
}

impl Layout {
    fn new(n_slots: u32) -> Layout {
        Layout { file: vec![0; n_slots as usize], pool: HashMap::new(), temps: Vec::new() }
    }

    fn konst(&mut self, c: i64) -> Vx {
        let file = &mut self.file;
        *self.pool.entry(c).or_insert_with(|| {
            file.push(c);
            file.len() as Vx - 1
        })
    }

    fn temp(&mut self, d: u32) -> Vx {
        while self.temps.len() <= d as usize {
            self.temps.push(self.file.len() as Vx);
            self.file.push(i64::MIN);
        }
        self.temps[d as usize]
    }

    /// Compile `e` into a one-root program over this file.
    fn root(&mut self, e: &IntExpr) -> RootProg {
        let mut c = Compiler { code: Vec::new(), lay: self };
        let root = c.go(e, 0, To::Temp);
        let root = c.vx(root);
        RootProg { ins: c.code.into(), root }
    }
}

/// Where a compiled expression's root goes.
#[derive(Debug, Clone, Copy)]
enum To {
    /// The temporary of the expression's depth.
    Temp,
    /// This entry: a define's slot, or the join entry of a jump.
    At(Vx),
    /// Check `k`: leave the run when the root is nonzero.
    Exit(u32),
}

/// What a compiled subtree hands its parent: a constant (interned only once
/// read), a slot, the entry its root instruction wrote, or nothing (a
/// check's exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Opd {
    Const(i64),
    Slot(Vx),
    Wrote(Vx),
    Exited,
}

/// Post-order code generation into a [`Layout`], with stack-depth
/// temporaries.
///
/// Constant subtrees fold at compile time wherever evaluating them cannot
/// fail: `1 / 0` and `i64::MIN // -1` stay in the program and fail when it
/// runs, exactly where the tree would. A `!= 0` after an `&&` / `||`
/// operand that already yields 0/1 is not emitted.
struct Compiler<'l> {
    code: Vec<RIns>,
    lay: &'l mut Layout,
}

impl Compiler<'_> {
    /// Emit `e` with `d` as the lowest free temporary depth, its root going
    /// where `to` says. A slot, or a subtree that folds to a constant,
    /// emits nothing and is handed back for the parent to read.
    fn go(&mut self, e: &IntExpr, d: u32, to: To) -> Opd {
        if let Some(c) = const_value(e) {
            return Opd::Const(c);
        }
        match e {
            IntExpr::Const(_) => unreachable!("a constant folds"),
            IntExpr::Slot(s) => Opd::Slot(*s),
            IntExpr::Neg(a) => self.unary(to, d, RIns::Neg, a),
            IntExpr::Not(a) => self.unary(to, d, RIns::Not, a),
            IntExpr::Abs(a) => self.unary(to, d, RIns::Abs, a),
            // `&&` / `||`: a left operand whose truth is `set` decides the
            // result; a constant right operand that cannot decide it reduces
            // both to the left operand's truth.
            IntExpr::Bin(op @ (IntBinOp::And | IntBinOp::Or), a, b) => {
                let set = *op == IntBinOp::Or;
                if matches!(const_value(b), Some(k) if (k != 0) != set) {
                    return self.truth(a, d, to);
                }
                match self.go(a, d, To::Temp) {
                    Opd::Const(c) if (c != 0) == set => Opd::Const(i64::from(set)),
                    Opd::Const(_) => self.truth(b, d, to),
                    a => {
                        let a = self.vx(a);
                        self.guarded(to, d, a, set, b)
                    }
                }
            }
            // `x != 0` is `x` itself when `x` is 0 or 1.
            IntExpr::Bin(IntBinOp::Ne, a, b) if const_value(b) == Some(0) => self.truth(a, d, to),
            IntExpr::Bin(op, a, b) => {
                let (a, b) = self.operands(a, b, d);
                self.bin(to, d, *op, a, b)
            }
            IntExpr::Call2(f, a, b) => {
                let ((a, b), ins) = (self.operands(a, b, d), call_ins(*f));
                self.write(to, d, |x| ins(x, a, b))
            }
            IntExpr::Ternary(c, t, f) => match self.go(c, d, To::Temp) {
                Opd::Const(0) => self.go(f, d, to),
                Opd::Const(_) => self.go(t, d, to),
                c => {
                    let c = self.vx(c);
                    if let (Some(t), Some(f)) = (leaf(t), leaf(f)) {
                        let (t, f) = (self.vx(t), self.vx(f));
                        return self.write(to, d, |x| RIns::Select { d: x, c, t, f });
                    }
                    let j = self.join(to, d);
                    let jz = self.jump(RIns::Jz { a: c, to: 0 });
                    let t = self.go(t, d, To::At(j));
                    self.land(j, t);
                    let jmp = self.jump(RIns::Jmp { to: 0 });
                    self.patch(jz);
                    let f = self.go(f, d, To::At(j));
                    self.land(j, f);
                    self.patch(jmp);
                    self.settle(to, j)
                }
            },
        }
    }

    /// Emit a run's `k`-th step: a define, whose root writes its slot, or
    /// a check, which leaves the run when nonzero (behind a `Skip` when it
    /// has a skip bit; nothing when it folds to 0).
    fn step(&mut self, s: &LStep, k: u32, skip: Option<u32>) {
        match s {
            LStep::Define { slot, body: LBody::Expr(e), .. } => {
                let v = self.go(e, 0, To::At(*slot));
                self.land(*slot, v);
            }
            LStep::Check { body: LBody::Expr(e), .. } => {
                let skip = skip.map(|bit| self.jump(RIns::Skip { bit, to: 0 }));
                match self.go(e, 0, To::Exit(k)) {
                    Opd::Exited | Opd::Const(0) => {}
                    v => {
                        let a = self.vx(v);
                        self.code.push(RIns::Exit { a, k });
                    }
                }
                if let Some(at) = skip {
                    self.patch(at);
                }
            }
            _ => unreachable!("a run step has an expression"),
        }
    }

    /// `e != 0`, without the comparison when `e` already yields 0/1.
    fn truth(&mut self, e: &IntExpr, d: u32, to: To) -> Opd {
        let boolean = yields_bool(e);
        match self.go(e, d, if boolean { to } else { To::Temp }) {
            Opd::Const(c) => Opd::Const(i64::from(c != 0)),
            v if boolean => v,
            v => {
                let (a, zero) = (self.vx(v), self.lay.konst(0));
                self.bin(to, d, IntBinOp::Ne, a, zero)
            }
        }
    }

    /// An `&&` / `||` whose left operand `a` is not a constant: the guard,
    /// then the right operand's truth in the join entry.
    fn guarded(&mut self, to: To, d: u32, a: Vx, set: bool, b: &IntExpr) -> Opd {
        let j = self.join(to, d);
        let at = self.jump(if set {
            RIns::JnzSet { a, d: j, to: 0 }
        } else {
            RIns::JzSet { a, d: j, to: 0 }
        });
        let b = self.truth(b, d, To::At(j));
        self.land(j, b);
        self.patch(at);
        self.settle(to, j)
    }

    /// Both operands of a strict node, the second above the first's
    /// temporary.
    fn operands(&mut self, a: &IntExpr, b: &IntExpr, d: u32) -> (Vx, Vx) {
        let a = self.go(a, d, To::Temp);
        let b = self.go(b, d + u32::from(matches!(a, Opd::Wrote(_))), To::Temp);
        (self.vx(a), self.vx(b))
    }

    fn unary(&mut self, to: To, d: u32, ins: fn(Vx, Vx) -> RIns, a: &IntExpr) -> Opd {
        let a = self.go(a, d, To::Temp);
        let a = self.vx(a);
        self.write(to, d, |x| ins(x, a))
    }

    /// Strict operator `op` over `a` and `b`; at a check's root a
    /// comparison fuses with the exit.
    fn bin(&mut self, to: To, d: u32, op: IntBinOp, a: Vx, b: Vx) -> Opd {
        if let (To::Exit(k), Some(exit)) = (to, exit_ins(op)) {
            self.code.push(exit(a, b, k));
            return Opd::Exited;
        }
        let ins = bin_ins(op);
        self.write(to, d, |x| ins(x, a, b))
    }

    /// Emit the root instruction `ins` writing its entry ([`Self::join`]).
    fn write(&mut self, to: To, d: u32, ins: impl FnOnce(Vx) -> RIns) -> Opd {
        let x = self.join(to, d);
        self.code.push(ins(x));
        self.settle(to, x)
    }

    /// The entry a root is written to: `to`'s own, else the depth's
    /// temporary (which a check then tests).
    fn join(&mut self, to: To, d: u32) -> Vx {
        match to {
            To::At(x) => x,
            To::Temp | To::Exit(_) => self.lay.temp(d),
        }
    }

    /// The root is now at `x`: a check leaves the run when it is nonzero.
    fn settle(&mut self, to: To, x: Vx) -> Opd {
        if let To::Exit(k) = to {
            self.code.push(RIns::Exit { a: x, k });
            return Opd::Exited;
        }
        Opd::Wrote(x)
    }

    /// Land a branch's value in the join entry `j`.
    fn land(&mut self, j: Vx, v: Opd) {
        if v != Opd::Wrote(j) {
            let a = self.vx(v);
            self.code.push(RIns::Mov(j, a));
        }
    }

    /// The entry an operand is read from, a constant interned on its first
    /// read.
    fn vx(&mut self, v: Opd) -> Vx {
        match v {
            Opd::Const(c) => self.lay.konst(c),
            Opd::Slot(x) | Opd::Wrote(x) => x,
            Opd::Exited => unreachable!("a check's exit is no operand"),
        }
    }

    fn jump(&mut self, ins: RIns) -> usize {
        self.code.push(ins);
        self.code.len() - 1
    }

    /// Point the jump at `at` just past the last emitted instruction.
    fn patch(&mut self, at: usize) {
        let end = self.code.len() as u32;
        match &mut self.code[at] {
            RIns::JzSet { to, .. }
            | RIns::JnzSet { to, .. }
            | RIns::Jz { to, .. }
            | RIns::Jmp { to }
            | RIns::Skip { to, .. } => *to = end,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }
}

/// The leaf operand `e` compiles to — a slot, or the constant it folds to —
/// if it is one.
fn leaf(e: &IntExpr) -> Option<Opd> {
    match e {
        IntExpr::Slot(s) => Some(Opd::Slot(*s)),
        _ => const_value(e).map(Opd::Const),
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

/// Does `e` always evaluate to 0 or 1?
fn yields_bool(e: &IntExpr) -> bool {
    use IntBinOp::*;
    matches!(
        e,
        IntExpr::Not(_) | IntExpr::Bin(Lt | Le | Gt | Ge | Eq | Ne | And | Or, _, _)
    )
}

/// The instruction of a strict operator (`&&` / `||` compile to jumps).
fn bin_ins(op: IntBinOp) -> fn(Vx, Vx, Vx) -> RIns {
    match op {
        IntBinOp::Add => RIns::Add,
        IntBinOp::Sub => RIns::Sub,
        IntBinOp::Mul => RIns::Mul,
        IntBinOp::Div => RIns::Div,
        IntBinOp::FloorDiv => RIns::FloorDiv,
        IntBinOp::Rem => RIns::Rem,
        IntBinOp::Lt => RIns::Lt,
        IntBinOp::Le => RIns::Le,
        IntBinOp::Gt => RIns::Gt,
        IntBinOp::Ge => RIns::Ge,
        IntBinOp::Eq => RIns::Eq,
        IntBinOp::Ne => RIns::Ne,
        IntBinOp::And | IntBinOp::Or => unreachable!("`&&` / `||` compile to jumps"),
    }
}

fn call_ins(f: Builtin) -> fn(Vx, Vx, Vx) -> RIns {
    match f {
        Builtin::Min => RIns::Min,
        Builtin::Max => RIns::Max,
        Builtin::DivCeil => RIns::DivCeil,
        Builtin::Gcd => RIns::Gcd,
        Builtin::RoundUp => RIns::RoundUp,
        Builtin::Abs => unreachable!("Abs is unary"),
    }
}

/// The fused exit of a check whose root is comparison `op`.
fn exit_ins(op: IntBinOp) -> Option<fn(Vx, Vx, u32) -> RIns> {
    Some(match op {
        IntBinOp::Lt => RIns::ExitLt,
        IntBinOp::Le => RIns::ExitLe,
        IntBinOp::Gt => RIns::ExitGt,
        IntBinOp::Ge => RIns::ExitGe,
        IntBinOp::Eq => RIns::ExitEq,
        IntBinOp::Ne => RIns::ExitNe,
        _ => return None,
    })
}

/// An expression compiled into a value file with one root the caller reads.
/// A leaf root (a slot or a folded constant) has no instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootProg {
    ins: Box<[RIns]>,
    root: Vx,
}

impl RootProg {
    /// Compile `e` alone, into a file of its own: the slots it reads, then
    /// its constants and temporaries (a consumer of a plan's programs uses
    /// [`RunProgsBuilder::root`]).
    pub fn compile(e: &IntExpr) -> RootProg {
        let mut n_slots = 0;
        e.for_each_slot(&mut |s| n_slots = n_slots.max(s + 1));
        Layout::new(n_slots).root(e)
    }

    /// Number of instructions (0 for a leaf).
    pub fn len(&self) -> usize {
        self.ins.len()
    }

    /// True for a leaf program: a bare slot or a (folded) constant.
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty()
    }

    /// Evaluate over `file`, a value file of the [`RunProgs`] that compiled
    /// the program: the value [`IntExpr::eval`] returns, or its error.
    #[inline(always)]
    pub fn eval(&self, file: &mut [i64]) -> Result<i64, EvalError> {
        if !self.ins.is_empty() {
            self.run(file)?;
        }
        Ok(file[self.root as usize])
    }

    #[inline(never)]
    fn run(&self, file: &mut [i64]) -> Result<(), EvalError> {
        exec(&self.ins, file, 0).map(drop).map_err(|(_, e)| e)
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
/// compiled into one flat program over a value file (see [`RunProgs`]): a
/// define's root writes its slot, a check's root leaves the run when
/// nonzero.
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
        exec(&self.ins, file, skip).map_err(|(pc, e)| self.fault(pc, e))
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

/// A lowered plan's programs and the value file they share: its runs, the
/// [`RootProg`]s of its range bounds, and the roots its consumers compiled
/// into the same file ([`RunProgsBuilder::root`]). [`RunProgs::file`] hands
/// out a fresh file; its slot prefix is the plan's slot array.
///
/// A run is a maximal straight-line sequence of the steps the
/// [`RunSpec`] executes: it starts at a step that follows a bind, an opaque
/// step or a cut (or at step 0), and ends before the next bind, visit or
/// opaque step, or after a cut. The *derive* program, when asked for, runs
/// the expression defines in step order across binds and checks, filling
/// the derived slots of a complete assignment ([`RunProgs::derive_at`]).
#[derive(Debug, Clone)]
pub struct RunProgs {
    /// Per plan step: the run, and the derive run, starting there.
    at: Box<[Option<u32>]>,
    derive_at: Box<[Option<u32>]>,
    runs: Box<[RunProg]>,
    /// Per plan step: a range bind's start, stop and step.
    ranges: Box<[Option<[RootProg; 3]>]>,
    lay: Layout,
}

impl RunProgs {
    /// Compile the runs of `lp` under `spec`, its derive program when
    /// `spec` asks for it, and its range bounds; the consumers' roots go in
    /// before [`RunProgsBuilder::finish`].
    pub fn builder(lp: &LoweredPlan, spec: RunSpec<'_>) -> RunProgsBuilder {
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
        let mut lay = Layout::new(lp.n_slots);
        let (mut at, mut derive_at) = (vec![None; lp.steps.len()], vec![None; lp.steps.len()]);
        let mut runs = Vec::new();
        let tables: &[bool] = if spec.derive { &[false, true] } else { &[false] };
        for &derive in tables {
            let mut i = 0;
            while i < lp.steps.len() {
                let start = i;
                let mut c = Compiler { code: Vec::new(), lay: &mut lay };
                let (mut step_pc, mut steps) = (Vec::new(), Vec::new());
                while let Some(s) = lp.steps.get(i) {
                    if executes(s, derive) {
                        step_pc.push(c.code.len() as u32);
                        c.step(s, steps.len() as u32, (spec.skip_bit)(i));
                        steps.push(i as u32);
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
                    continue;
                }
                let table = if derive { &mut derive_at } else { &mut at };
                table[start] = Some(runs.len() as u32);
                runs.push(RunProg {
                    ins: c.code.into(),
                    step_pc: step_pc.into(),
                    steps: steps.into(),
                    end: i as u32,
                });
            }
        }
        let ranges = (lp.steps.iter())
            .map(|s| match s {
                LStep::Bind { domain: LIter::Range { start, stop, step }, .. } => {
                    Some([start, stop, step].map(|e| lay.root(e)))
                }
                _ => None,
            })
            .collect();
        let (at, derive_at, runs) = (at.into(), derive_at.into(), runs.into());
        RunProgsBuilder(RunProgs { at, derive_at, runs, ranges, lay })
    }

    /// A fresh value file: zero slots, the constants, and junk
    /// (`i64::MIN`) in the temporaries, which every program writes before
    /// it reads them.
    pub fn file(&self) -> Vec<i64> {
        self.lay.file.clone()
    }

    /// The run starting at plan step `step`, if one does, and its index.
    #[inline]
    pub fn at(&self, step: usize) -> Option<(usize, &RunProg)> {
        self.at[step].map(|r| (r as usize, &self.runs[r as usize]))
    }

    /// The derive run starting at plan step `step`, if one does: the plan's
    /// expression defines from there to the next opaque define or the
    /// visit.
    #[inline]
    pub fn derive_at(&self, step: usize) -> Option<&RunProg> {
        self.derive_at[step].map(|r| &self.runs[r as usize])
    }

    /// `(start, stop, step)` of the range bind at plan step `i` over
    /// `file`, evaluated in that order (the first error wins).
    ///
    /// # Panics
    /// If step `i` is not a bind over a range.
    #[inline]
    pub fn bounds(&self, i: usize, file: &mut [i64]) -> Result<(i64, i64, i64), EvalError> {
        let Some([start, stop, step]) = &self.ranges[i] else {
            unreachable!("step {i} is not a range bind")
        };
        Ok((start.eval(file)?, stop.eval(file)?, step.eval(file)?))
    }
}

/// A [`RunProgs`] being compiled: its consumers compile their one-root
/// programs into its value file, and [`RunProgsBuilder::finish`] seals it.
/// Only sealed programs hand out files, so no file is shorter than a
/// program compiled into it.
#[derive(Debug)]
pub struct RunProgsBuilder(RunProgs);

impl RunProgsBuilder {
    /// Compile `e` into a one-root program over this value file.
    pub fn root(&mut self, e: &IntExpr) -> RootProg {
        self.0.lay.root(e)
    }

    /// The compiled programs.
    pub fn finish(self) -> RunProgs {
        self.0
    }
}

impl std::ops::Index<usize> for RunProgs {
    type Output = RunProg;

    fn index(&self, r: usize) -> &RunProg {
        &self.runs[r]
    }
}

/// The concrete evaluator of a lowered plan's steps, compiled once: its
/// [`RunProgs`] and the space's closures for opaque steps. The exact
/// counter (`analyze::count`) and the samplers of `beast_search` run it.
#[derive(Debug, Clone)]
pub struct StepProgs<'a> {
    lp: &'a LoweredPlan,
    /// The plan's programs.
    pub runs: RunProgs,
}

impl<'a> StepProgs<'a> {
    /// `lp`'s evaluator over its compiled programs `runs`.
    pub fn new(lp: &'a LoweredPlan, runs: RunProgs) -> StepProgs<'a> {
        StepProgs { lp, runs }
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

    /// The domain of the bind at step `i` over the value file `file`.
    pub fn realize(&self, i: usize, file: &mut [i64]) -> Result<Realized, EvalError> {
        let LStep::Bind { iter, domain, .. } = &self.lp.steps[i] else {
            unreachable!("step {i} is not a bind")
        };
        Ok(match domain {
            LIter::Range { .. } => {
                let (start, stop, step) = self.runs.bounds(i, file)?;
                Realized::Range { start, stop, step }
            }
            LIter::Values(v) => Realized::Values(v.iter().map(|&x| x.into()).collect()),
            LIter::Opaque { .. } => self.lp.plan.space().realize_iter(*iter, &self.view(file))?,
        })
    }

    fn view<'s>(&'s self, slots: &'s [i64]) -> SlotView<'s> {
        SlotView::new(self.lp, slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IntExpr as E;

    fn b(op: IntBinOp, x: E, y: E) -> E {
        E::Bin(op, Box::new(x), Box::new(y))
    }

    /// `e` compiled as a one-root program over `n` slots, and the file it
    /// runs over, its temporaries filled with junk.
    fn compiled(e: &E, n: u32) -> (RootProg, Vec<i64>) {
        let mut lay = Layout::new(n);
        let p = lay.root(e);
        for &t in &lay.temps {
            lay.file[t as usize] = i64::MIN;
        }
        (p, lay.file)
    }

    /// Evaluate through a compiled program, cross-checked against the tree.
    fn eval(e: &E, slots: &[i64]) -> Result<i64, EvalError> {
        let (p, mut file) = compiled(e, slots.len() as u32);
        file[..slots.len()].copy_from_slice(slots);
        let got = p.eval(&mut file);
        assert_eq!(got, e.eval(slots), "program vs tree for {e:?}");
        got
    }

    #[test]
    fn arithmetic_reads_leaves_in_place() {
        let e = b(IntBinOp::Add, b(IntBinOp::Mul, E::Slot(0), E::Const(3)), E::Slot(1));
        assert_eq!(eval(&e, &[5, 2]), Ok(17));
        let mut lay = Layout::new(2);
        let p = lay.root(&e);
        assert_eq!((p.len(), lay.temps.len()), (2, 1), "{:?}", p.ins);
        // Bare leaves compile to no instructions at all.
        assert!(RootProg::compile(&E::Slot(1)).is_empty());
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
        let p = RootProg::compile(&and);
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
        assert_eq!(RootProg::compile(&chain), RootProg::compile(&E::Const(6)));
        assert_eq!(RootProg::compile(&e).len(), 2);
        assert_eq!(eval(&e, &[10]), Ok(46));
        // Failing constant subtrees stay and fail at run time.
        let bad = b(IntBinOp::Div, E::Const(1), E::Const(0));
        assert_eq!(RootProg::compile(&bad).len(), 1);
        assert_eq!(eval(&bad, &[]), Err(EvalError::DivisionByZero));
        let ovf = b(IntBinOp::FloorDiv, E::Const(i64::MIN), E::Const(-1));
        assert_eq!(eval(&ovf, &[]), Err(EvalError::Overflow));
        // ... unless a constant condition makes them dead.
        let dead = E::Ternary(Box::new(E::Const(0)), Box::new(bad), Box::new(E::Slot(0)));
        assert!(RootProg::compile(&dead).is_empty());
        assert_eq!(eval(&dead, &[7]), Ok(7));
    }

    #[test]
    fn roots_share_one_file_with_the_runs() {
        // Two roots over one layout: the constant 3 is interned once, and
        // the deeper root's temporaries include the shallower one's.
        let mut lay = Layout::new(1);
        let p = lay.root(&b(IntBinOp::Mul, E::Slot(0), E::Const(3)));
        let sq = || b(IntBinOp::Mul, E::Slot(0), E::Slot(0));
        let q = lay.root(&b(IntBinOp::Add, sq(), b(IntBinOp::Add, sq(), E::Const(3))));
        assert_eq!(lay.file.len(), 1 + 1 + 2, "slot, one constant, two temporaries");
        let mut file = lay.file.clone();
        file[0] = 5;
        assert_eq!((p.eval(&mut file), q.eval(&mut file)), (Ok(15), Ok(53)));
        assert_eq!(p.eval(&mut file), Ok(15), "a root reads no stale temporary");
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
