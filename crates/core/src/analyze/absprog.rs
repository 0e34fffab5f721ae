//! Abstract run programs: a window of plan steps compiled once into one
//! flat interval × congruence program, the abstract twin of
//! [`crate::pointprog::RunProg`].
//!
//! A *window* is the plan suffix below a guarded loop (the compiled
//! engine's subtree guards) or one level's run of defines and checks (the
//! exact counter's pre-pass). Its program evaluates every step of the
//! window over one box — the loop variable abstracted to its domain, the
//! *seed* slots exact points of the concrete slot array — and decides it:
//!
//! * [`Verdict::Skip`] when a check rejects every point of the box while
//!   no step before it can fail (the `clean` chain), so skipping the box
//!   is observationally identical to enumerating it;
//! * otherwise [`Verdict::Elide`] with the bits of the checks that pass
//!   every point.
//!
//! The program runs over one [`AbsFile`]: temporaries, the distinct
//! constants, then one entry per slot value a program writes or reads.
//! Instructions are specialised per operator and call the same transfers
//! as [`crate::interval::IvProg`] (`bin_fast`, `iv_bin`, `cg_*` through
//! `reduce_with`) with the operator fixed, so every interval, congruence
//! and verdict equals per-step evaluation with [`AbsSteps::eval`] — which
//! stays the static walk's transfer and the tests' reference.
//!
//! Windows form chains. A window with a *parent* (the nearest enclosing
//! kept guard) evaluates only its *dirty* steps ([`AbsSteps::dirty`]),
//! those reading its seeds or its loop variable; every other step's slot
//! value and fact are read from what the parent's last run computed,
//! which is what re-evaluation would give, because those steps' inputs
//! have not changed since. A window without a parent evaluates the steps
//! that are not dirty once, at compile time: they read only constants.

use std::collections::HashMap;

use crate::expr::Builtin;
use crate::interval::{
    bin_fast, iv_abs, iv_call2, iv_not, iv_ternary, neg_fast, Interval, IntervalOutcome, IvArg,
    IvKind, IvProg,
};
use crate::ir::{IntBinOp, LStep, LoweredPlan};

use super::congruence::{
    cg_bin, cg_call2, cg_not, cg_of_bind, cg_ternary, reduce_with, Congruence,
};
use super::steps::{AbsEnv, AbsSteps, BindHull, Step, StepFact};

/// An index into an [`AbsFile`]'s values.
type Vx = u32;

const NONE: Vx = Vx::MAX;

/// One abstract value: an interval with its `clean` / `widened` flags (a
/// slot entry is always clean and never widened, as a slot read is), and a
/// congruence, read reduced: a point interval is that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AVal {
    lo: i64,
    hi: i64,
    cg: Congruence,
    flags: u8,
}

const CLEAN: u8 = 1;
const WIDENED: u8 = 2;

impl AVal {
    const TOP: AVal = AVal { lo: i64::MIN, hi: i64::MAX, cg: Congruence { m: 1, r: 0 }, flags: 0 };

    fn slot(iv: Interval, cg: Congruence) -> AVal {
        AVal { lo: iv.lo, hi: iv.hi, cg, flags: CLEAN }
    }

    fn point(v: i64) -> AVal {
        AVal::slot(Interval::point(v), Congruence::point(v))
    }

    #[inline(always)]
    fn of(o: IntervalOutcome, cg: Congruence) -> AVal {
        let flags = if o.clean { CLEAN } else { 0 } | if o.widened { WIDENED } else { 0 };
        AVal { lo: o.iv.lo, hi: o.iv.hi, cg, flags }
    }

    #[inline(always)]
    fn out(&self) -> IntervalOutcome {
        IntervalOutcome {
            iv: Interval { lo: self.lo, hi: self.hi },
            clean: self.flags & CLEAN != 0,
            widened: self.flags & WIDENED != 0,
        }
    }

    #[inline(always)]
    fn cg(&self) -> Congruence {
        if self.lo == self.hi {
            Congruence::point(self.lo)
        } else {
            self.cg
        }
    }
}

/// Fact bits of an evaluated step: no point of the box makes it fail.
const F_CLEAN: u8 = 1;
/// A check rejecting every point of the box (implies [`F_CLEAN`]).
const F_REJECTS: u8 = 2;
/// The check's interval holds 0: only its congruence decides it.
const F_ZERO: u8 = 4;
/// A check passing every point of the box (implies [`F_CLEAN`]).
const F_PASSES: u8 = 8;

/// The fact bits of a check whose predicate is `v`; its congruence is read
/// only when the check evaluates over the product.
#[inline(always)]
fn check_bits(v: AVal, product: bool) -> u8 {
    if v.flags & CLEAN == 0 {
        return 0;
    }
    let cg = if product { v.cg() } else { Congruence::top() };
    let zero = v.lo <= 0 && 0 <= v.hi;
    let mut f = F_CLEAN;
    if !zero || cg.always_nonzero() {
        f |= F_REJECTS;
    }
    if zero {
        f |= F_ZERO;
    }
    if (v.lo == 0 && v.hi == 0) || cg.as_point() == Some(0) {
        f |= F_PASSES;
    }
    f
}

/// The fact bits of a step evaluated by the static walk.
fn static_bits(fact: &StepFact) -> u8 {
    let mut f = 0;
    if fact.out.clean {
        f |= F_CLEAN;
    }
    if fact.rejects_all {
        f |= F_REJECTS;
    }
    if fact.out.iv.contains(0) {
        f |= F_ZERO;
    }
    if fact.passes_all {
        f |= F_PASSES;
    }
    f
}

/// One instruction of an [`AbsProg`]. Operands and destinations are
/// [`AbsFile`] indices; `cg` evaluates the congruence half too (the step is
/// in the congruence slice and the product is on), otherwise the result's
/// congruence is ⊤. `fact` indexes the file's fact bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AIns {
    Add(Vx, Vx, Vx, bool),
    Sub(Vx, Vx, Vx, bool),
    Mul(Vx, Vx, Vx, bool),
    Div(Vx, Vx, Vx, bool),
    FloorDiv(Vx, Vx, Vx, bool),
    Rem(Vx, Vx, Vx, bool),
    Lt(Vx, Vx, Vx, bool),
    Le(Vx, Vx, Vx, bool),
    Gt(Vx, Vx, Vx, bool),
    Ge(Vx, Vx, Vx, bool),
    Eq(Vx, Vx, Vx, bool),
    Ne(Vx, Vx, Vx, bool),
    And(Vx, Vx, Vx, bool),
    Or(Vx, Vx, Vx, bool),
    Min(Vx, Vx, Vx, bool),
    Max(Vx, Vx, Vx, bool),
    DivCeil(Vx, Vx, Vx, bool),
    Gcd(Vx, Vx, Vx, bool),
    RoundUp(Vx, Vx, Vx, bool),
    Neg(Vx, Vx, bool),
    Not(Vx, Vx, bool),
    Abs(Vx, Vx, bool),
    Ternary { d: Vx, c: Vx, t: Vx, f: Vx, cg: bool },
    /// A define: its slot entry `d` takes the value of `a`.
    Def { d: Vx, a: Vx, fact: u32, cg: bool },
    /// A range bind: its slot entry `d` takes the hull of its start and
    /// stop, and the residue of its start and step.
    Bind { d: Vx, start: Vx, stop: Vx, step: Vx, fact: u32, cg: bool },
    /// A check whose predicate is `a`; `elide` is its elision bit.
    Check { a: Vx, fact: u32, elide: u64, cg: bool },
    /// A step the parent evaluated: its fact bits, read.
    Reuse { fact: u32, elide: u64 },
    /// A step whose constant fact rejects every point: skip while clean.
    Reject { by_congruence: bool },
    /// A step whose constant fact may fail: the chain is no longer clean.
    Unclean,
}

/// How a window's box is decided (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Some check rejects every point of the box and no step before it can
    /// fail. `by_congruence` is set when only the congruence half decided
    /// it (the check's interval holds 0).
    Skip {
        /// Only the congruence half decided the rejection.
        by_congruence: bool,
    },
    /// Bitmask of the checks (bit = constraint index, below 64) that pass
    /// every point of the box, possibly empty.
    Elide(u64),
}

/// The values and fact bits every program of one [`AbsProgs`] runs over.
/// A fresh file ([`AbsProgs::file`]) holds the constants and what the
/// windows without a parent proved at compile time.
#[derive(Debug, Clone)]
pub struct AbsFile {
    vals: Box<[AVal]>,
    facts: Box<[u8]>,
}

/// One window's compiled program.
#[derive(Debug, Clone)]
struct AbsProg {
    /// `(entry, slot)`: the entries written with the slot's exact value
    /// before a run.
    seeds: Box<[(Vx, u32)]>,
    /// The entry the loop variable's box is written to.
    own: Vx,
    ins: Box<[AIns]>,
    /// The elision bits of the checks whose constant fact passes every
    /// point.
    elide: u64,
}

impl AbsProg {
    #[inline(never)]
    fn run(&self, file: &mut AbsFile, slots: &[i64], dom: Interval, dom_cg: Congruence) -> Verdict {
        let AbsFile { vals: v, facts } = file;
        for &(e, s) in &*self.seeds {
            v[e as usize] = AVal::point(slots[s as usize]);
        }
        v[self.own as usize] = AVal::slot(dom, dom_cg);
        let mut clean = true;
        let mut elide = self.elide;
        macro_rules! write {
            ($d:expr, $o:expr, $cg:expr, $product:expr) => {{
                let o = $o;
                let cg = if $product { reduce_with(&o, $cg) } else { Congruence::top() };
                v[$d as usize] = AVal::of(o, cg);
            }};
        }
        macro_rules! bin {
            ($d:expr, $a:expr, $b:expr, $product:expr, $op:ident) => {{
                let (a, b) = (v[$a as usize], v[$b as usize]);
                let (ao, bo) = (a.out(), b.out());
                let cg = || cg_bin(IntBinOp::$op, &ao, a.cg(), &bo, b.cg());
                write!($d, bin_fast(IntBinOp::$op, ao, bo), cg, $product)
            }};
        }
        macro_rules! call {
            ($d:expr, $a:expr, $b:expr, $product:expr, $f:ident) => {{
                let (a, b) = (v[$a as usize], v[$b as usize]);
                let cg = || cg_call2(Builtin::$f, a.cg(), b.cg());
                write!($d, iv_call2(Builtin::$f, a.out(), b.out()), cg, $product)
            }};
        }
        macro_rules! decide {
            ($f:expr, $bit:expr) => {{
                let f = $f;
                if f & F_REJECTS != 0 && clean {
                    return Verdict::Skip { by_congruence: f & F_ZERO != 0 };
                }
                if f & F_PASSES != 0 {
                    elide |= $bit;
                }
                clean &= f & F_CLEAN != 0;
            }};
        }
        for &i in &*self.ins {
            match i {
                AIns::Add(d, a, b, p) => bin!(d, a, b, p, Add),
                AIns::Sub(d, a, b, p) => bin!(d, a, b, p, Sub),
                AIns::Mul(d, a, b, p) => bin!(d, a, b, p, Mul),
                AIns::Div(d, a, b, p) => bin!(d, a, b, p, Div),
                AIns::FloorDiv(d, a, b, p) => bin!(d, a, b, p, FloorDiv),
                AIns::Rem(d, a, b, p) => bin!(d, a, b, p, Rem),
                AIns::Lt(d, a, b, p) => bin!(d, a, b, p, Lt),
                AIns::Le(d, a, b, p) => bin!(d, a, b, p, Le),
                AIns::Gt(d, a, b, p) => bin!(d, a, b, p, Gt),
                AIns::Ge(d, a, b, p) => bin!(d, a, b, p, Ge),
                AIns::Eq(d, a, b, p) => bin!(d, a, b, p, Eq),
                AIns::Ne(d, a, b, p) => bin!(d, a, b, p, Ne),
                AIns::And(d, a, b, p) => bin!(d, a, b, p, And),
                AIns::Or(d, a, b, p) => bin!(d, a, b, p, Or),
                AIns::Min(d, a, b, p) => call!(d, a, b, p, Min),
                AIns::Max(d, a, b, p) => call!(d, a, b, p, Max),
                AIns::DivCeil(d, a, b, p) => call!(d, a, b, p, DivCeil),
                AIns::Gcd(d, a, b, p) => call!(d, a, b, p, Gcd),
                AIns::RoundUp(d, a, b, p) => call!(d, a, b, p, RoundUp),
                AIns::Neg(d, a, p) => {
                    let a = v[a as usize];
                    write!(d, neg_fast(a.out()), || -a.cg(), p)
                }
                AIns::Not(d, a, p) => {
                    let a = v[a as usize];
                    let ao = a.out();
                    write!(d, iv_not(ao), || cg_not(&ao, a.cg()), p)
                }
                AIns::Abs(d, a, p) => {
                    let a = v[a as usize];
                    let cg = || {
                        let x = a.cg();
                        x.join(-x)
                    };
                    write!(d, iv_abs(a.out()), cg, p)
                }
                AIns::Ternary { d, c, t, f, cg: p } => {
                    let (c, t, f) = (v[c as usize], v[t as usize], v[f as usize]);
                    let co = c.out();
                    let cg = || cg_ternary(&co, c.cg(), t.cg(), f.cg());
                    write!(d, iv_ternary(co, t.out(), f.out()), cg, p)
                }
                AIns::Def { d, a, fact, cg } => {
                    let a = v[a as usize];
                    let c = if cg { a.cg() } else { Congruence::top() };
                    v[d as usize] = AVal::slot(Interval { lo: a.lo, hi: a.hi }, c);
                    let f = a.flags & F_CLEAN;
                    facts[fact as usize] = f;
                    clean &= f != 0;
                }
                AIns::Bind { d, start, stop, step, fact, cg } => {
                    let (s, e, st) = (v[start as usize], v[stop as usize], v[step as usize]);
                    let iv = Interval { lo: s.lo.min(e.lo), hi: s.hi.max(e.hi) };
                    let c = if !cg {
                        Congruence::top()
                    } else if iv.is_point() {
                        Congruence::point(iv.lo)
                    } else {
                        cg_of_bind(s.cg(), st.cg())
                    };
                    v[d as usize] = AVal::slot(iv, c);
                    let f = s.flags & e.flags & st.flags & F_CLEAN;
                    facts[fact as usize] = f;
                    clean &= f != 0;
                }
                AIns::Check { a, fact, elide: bit, cg } => {
                    let f = check_bits(v[a as usize], cg);
                    facts[fact as usize] = f;
                    decide!(f, bit)
                }
                AIns::Reuse { fact, elide: bit } => decide!(facts[fact as usize], bit),
                AIns::Reject { by_congruence } => {
                    if clean {
                        return Verdict::Skip { by_congruence };
                    }
                }
                AIns::Unclean => clean = false,
            }
        }
        Verdict::Elide(elide)
    }
}

/// One window to compile (see the module docs).
#[derive(Debug, Clone)]
pub struct Window {
    /// Its first plan step.
    pub start: usize,
    /// The plan step after its last.
    pub end: usize,
    /// The loop variable's slot, written with the domain's box on every
    /// run.
    pub slot: u32,
    /// The slots written with their exact value on every run. Without a
    /// parent, every slot the window reads from outside itself.
    pub seed: Vec<u32>,
    /// Per plan step: the window evaluates it ([`AbsSteps::dirty`] of its
    /// seeds and loop variable). Every other step is the parent's, or
    /// constant.
    pub dirty: Vec<bool>,
    /// The window (an earlier one of the same [`AbsProgs`]) whose last
    /// run the steps that are not dirty read. It covers this window, its
    /// run completes before every run of this one, and the slots this
    /// window reads from it are not written between the two runs.
    pub parent: Option<usize>,
}

/// Where a window finds a step's fact.
#[derive(Debug, Clone, Copy)]
enum Fact {
    /// Not evaluated (outside every window of the chain).
    Unknown,
    /// Constant, proved at compile time.
    Static(u8),
    /// Written by a run, at this index of the fact bits.
    At(u32),
}

/// The compiled programs of a set of windows, with the file they share.
#[derive(Debug, Clone)]
pub struct AbsProgs {
    progs: Box<[AbsProg]>,
    file: AbsFile,
}

impl AbsProgs {
    /// Compile `windows` (each parent before its children) over `abs`,
    /// `lp`'s abstract step program. A step evaluates over the product
    /// when `cg` is on and it is in `abs`'s congruence slice.
    pub fn new(lp: &LoweredPlan, abs: &AbsSteps, cg: bool, windows: &[Window]) -> AbsProgs {
        // Temporaries first: the registers of the largest step (a range
        // bind's three bounds side by side). Programs run one at a time
        // and never read each other's temporaries.
        let temps = (0..lp.steps.len())
            .map(|i| match abs.step(i) {
                Step::Range { start, stop, step, .. } => start.regs() + stop.regs() + step.regs(),
                Step::Define { body, .. } | Step::Check { body } => body.regs(),
                Step::Values { .. } | Step::Opaque { .. } | Step::Visit => 0,
            })
            .max()
            .unwrap_or(0);
        let mut b =
            Builder { vals: vec![AVal::TOP; temps as usize], consts: HashMap::new(), n_facts: 0 };
        let product = |i: usize| cg && abs.slice()[i];
        let elide_bit = |i: usize| match &lp.steps[i] {
            LStep::Check { constraint, .. } if *constraint < 64 => 1u64 << constraint,
            _ => 0,
        };
        let n_slots = lp.n_slots as usize;
        let mut views: Vec<(Vec<Vx>, Vec<Fact>)> = Vec::with_capacity(windows.len());
        let mut progs = Vec::with_capacity(windows.len());
        for w in windows {
            let (mut view, mut facts) = match w.parent {
                Some(p) => views[p].clone(),
                None => (vec![NONE; n_slots], vec![Fact::Unknown; lp.steps.len()]),
            };
            if w.parent.is_none() {
                // What does not depend on the seeds or the loop variable
                // reads only constants: evaluate it once, here.
                let mut env = AbsEnv::top(n_slots);
                for i in (w.start..w.end).filter(|&i| !w.dirty[i]) {
                    let fact = abs.eval(i, &mut env, product(i), BindHull::Bounds);
                    env.write(&fact, product(i));
                    if let Some(s) = fact.slot {
                        let cg = if product(i) { fact.cg } else { Congruence::top() };
                        view[s as usize] = b.entry(AVal::slot(fact.out.iv, cg));
                    }
                    facts[i] = Fact::Static(static_bits(&fact));
                }
            }
            let seeds: Vec<(Vx, u32)> = (w.seed.iter())
                .map(|&s| {
                    let e = b.entry(AVal::TOP);
                    view[s as usize] = e;
                    (e, s)
                })
                .collect();
            let own = b.entry(AVal::TOP);
            view[w.slot as usize] = own;
            let (mut ins, mut elide) = (Vec::new(), 0u64);
            for (i, known) in (w.start..w.end).zip(&mut facts[w.start..w.end]) {
                let bit = elide_bit(i);
                if !w.dirty[i] {
                    match *known {
                        Fact::At(fact) => ins.push(AIns::Reuse { fact, elide: bit }),
                        Fact::Static(f) => {
                            if f & F_REJECTS != 0 {
                                ins.push(AIns::Reject { by_congruence: f & F_ZERO != 0 });
                            }
                            if f & F_PASSES != 0 {
                                elide |= bit;
                            }
                            if f & F_CLEAN == 0 && ins.last() != Some(&AIns::Unclean) {
                                ins.push(AIns::Unclean);
                            }
                        }
                        Fact::Unknown => unreachable!("step {i} outside the parent window"),
                    }
                    continue;
                }
                let (p, fact) = (product(i), b.n_facts);
                b.n_facts += 1;
                *known = Fact::At(fact);
                match abs.step(i) {
                    Step::Range { slot, start, stop, step, .. } => {
                        let start_at = b.expr(&mut ins, start, 0, p, &view);
                        let stop_at = b.expr(&mut ins, stop, start.regs(), false, &view);
                        let base = start.regs() + stop.regs();
                        let step_at = b.expr(&mut ins, step, base, p, &view);
                        let d = b.entry(AVal::TOP);
                        view[*slot as usize] = d;
                        ins.push(AIns::Bind {
                            d,
                            start: start_at,
                            stop: stop_at,
                            step: step_at,
                            fact,
                            cg: p,
                        });
                    }
                    Step::Define { slot, body } => {
                        let a = b.expr(&mut ins, body, 0, p, &view);
                        let d = b.entry(AVal::TOP);
                        view[*slot as usize] = d;
                        ins.push(AIns::Def { d, a, fact, cg: p });
                    }
                    Step::Check { body } => {
                        let a = b.expr(&mut ins, body, 0, p, &view);
                        ins.push(AIns::Check { a, fact, elide: bit, cg: p });
                    }
                    Step::Values { .. } | Step::Opaque { .. } | Step::Visit => {
                        unreachable!("step {i} reads no slot, so nothing makes it dirty")
                    }
                }
            }
            progs.push(AbsProg { seeds: seeds.into(), own, ins: ins.into(), elide });
            views.push((view, facts));
        }
        let file =
            AbsFile { vals: b.vals.into(), facts: vec![0; b.n_facts as usize].into_boxed_slice() };
        AbsProgs { progs: progs.into(), file }
    }

    /// A fresh file for [`AbsProgs::run`].
    pub fn file(&self) -> AbsFile {
        self.file.clone()
    }

    /// Run window `w`'s program over `file`, its seeds read from `slots`
    /// and its loop variable abstracted to `dom` and `dom_cg`. A window
    /// with a parent must run after the parent's last completed run over
    /// the same file.
    pub fn run(
        &self,
        w: usize,
        file: &mut AbsFile,
        slots: &[i64],
        dom: Interval,
        dom_cg: Congruence,
    ) -> Verdict {
        self.progs[w].run(file, slots, dom, dom_cg)
    }
}

/// The file layout as programs are compiled.
struct Builder {
    vals: Vec<AVal>,
    consts: HashMap<i64, Vx>,
    n_facts: u32,
}

impl Builder {
    fn entry(&mut self, v: AVal) -> Vx {
        self.vals.push(v);
        self.vals.len() as Vx - 1
    }

    /// The entry an operand of a program whose registers start at `base`
    /// reads.
    fn arg(&mut self, a: IvArg, base: u32, view: &[Vx]) -> Vx {
        match a {
            IvArg::Reg(r) => base + r,
            IvArg::Const(c) => match self.consts.get(&c) {
                Some(&e) => e,
                None => {
                    let e = self.entry(AVal::point(c));
                    self.consts.insert(c, e);
                    e
                }
            },
            IvArg::Slot(s) => {
                let e = view[s as usize];
                assert_ne!(e, NONE, "slot {s} is read before any window writes it");
                e
            }
        }
    }

    /// Emit `p`'s instructions with its registers from `base`; returns the
    /// entry its value is read from.
    fn expr(&mut self, ins: &mut Vec<AIns>, p: &IvProg, base: u32, cg: bool, view: &[Vx]) -> Vx {
        for op in p.ops() {
            let d = base + op.dst;
            let [a, b, c] = op.args.map(|x| self.arg(x, base, view));
            ins.push(match op.kind {
                IvKind::Neg => AIns::Neg(d, a, cg),
                IvKind::Not => AIns::Not(d, a, cg),
                IvKind::Abs => AIns::Abs(d, a, cg),
                IvKind::Ternary => AIns::Ternary { d, c: a, t: b, f: c, cg },
                IvKind::Bin(op) => {
                    let make = match op {
                        IntBinOp::Add => AIns::Add,
                        IntBinOp::Sub => AIns::Sub,
                        IntBinOp::Mul => AIns::Mul,
                        IntBinOp::Div => AIns::Div,
                        IntBinOp::FloorDiv => AIns::FloorDiv,
                        IntBinOp::Rem => AIns::Rem,
                        IntBinOp::Lt => AIns::Lt,
                        IntBinOp::Le => AIns::Le,
                        IntBinOp::Gt => AIns::Gt,
                        IntBinOp::Ge => AIns::Ge,
                        IntBinOp::Eq => AIns::Eq,
                        IntBinOp::Ne => AIns::Ne,
                        IntBinOp::And => AIns::And,
                        IntBinOp::Or => AIns::Or,
                    };
                    make(d, a, b, cg)
                }
                IvKind::Call2(f) => {
                    let make = match f {
                        Builtin::Min => AIns::Min,
                        Builtin::Max => AIns::Max,
                        Builtin::DivCeil => AIns::DivCeil,
                        Builtin::Gcd => AIns::Gcd,
                        Builtin::RoundUp => AIns::RoundUp,
                        Builtin::Abs => unreachable!("Abs is unary"),
                    };
                    make(d, a, b, cg)
                }
            });
        }
        self.arg(p.root(), base, view)
    }
}
