//! The abstract step program: every step of a lowered plan compiled once to
//! register-form interval programs, and the one transfer that evaluates a
//! step over an interval × congruence box.
//!
//! [`AbsSteps`] is the abstract twin of [`crate::pointprog::StepProgs`].
//! Every consumer that asks "what does this step prove over this box" reads
//! it:
//!
//! * [`AbsSteps::walk`], the static whole-plan walk over the declared
//!   domains, which the linter ([`super::analyze`]), the constraint
//!   scheduler ([`crate::schedule`]) and the unique-key recogniser
//!   ([`super::footprint`]) read, runs [`AbsSteps::eval`] step by step;
//! * the compiled engine's subtree guards (`beast_engine::compiled`), over
//!   the plan suffix below a loop, and the exact counter's pre-pass
//!   ([`super::count`]), over one level's run, run windows of it compiled
//!   into flat programs ([`super::absprog`]), which decide what
//!   [`AbsSteps::eval`] would, step by step.
//!
//! A step evaluates over the reduced product where it is in the plan's
//! congruence slice ([`AbsSteps::slice`]), interval-only elsewhere; the
//! interval half is the same either way. A check's verdicts
//! are [`StepFact::rejects_all`] and [`StepFact::passes_all`].

use crate::interval::{range_value_hull, Interval, IntervalOutcome, IvProg, IvScratch};
use crate::ir::{LBody, LIter, LStep, LoweredPlan};

use super::congruence::{cg_of_bind, cg_of_values, eval_product, product_slice, Congruence};

/// How a range bind hulls the values it can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindHull {
    /// `start ∪ stop`, whatever the stride: the engine's guards.
    Bounds,
    /// A constant-sign stride bounds the values on the start side: an
    /// ascending `start ..< stop` never goes below `start` and stays below
    /// `stop`, a descending one never goes above `start` and stays above
    /// `stop`. Empty ranges never run their body, so clamping the hull to
    /// `lo <= hi` is sound. Unknown strides fall back to [`BindHull::Bounds`].
    Stride,
}

/// One compiled step.
#[derive(Debug, Clone)]
pub(super) enum Step {
    /// A range bind; `stride` is the sign of a constant step (0 when the
    /// step is not a constant).
    Range { slot: u32, start: IvProg, stop: IvProg, step: IvProg, stride: i64 },
    /// A static-list bind: its value hull and congruence.
    Values { slot: u32, iv: Interval, cg: Congruence },
    Define { slot: u32, body: IvProg },
    Check { body: IvProg },
    /// An opaque bind or define (`Some` slot, written ⊤) or check (`None`):
    /// unknowable and possibly failing.
    Opaque { slot: Option<u32> },
    Visit,
}

/// What one step proves over a box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepFact {
    /// The value a bind or define writes, or a check's predicate value, and
    /// whether no point of the box can make the step fail.
    pub out: IntervalOutcome,
    /// Its congruence (⊤ when evaluated interval-only).
    pub cg: Congruence,
    /// The slot a bind or define writes ([`AbsEnv::write`]); `None` for a
    /// check and the visit.
    pub slot: Option<u32>,
    /// A check that rejects every point of the box without failing: its
    /// predicate is clean and `0 ∉ out.iv`, or `cg` is never 0.
    pub rejects_all: bool,
    /// A check that passes every point of the box without failing: its
    /// predicate is clean and `out.iv = [0, 0]`, or `cg` is the point 0.
    pub passes_all: bool,
}

impl Default for StepFact {
    /// Nothing known: ⊤, possibly failing, no verdict.
    fn default() -> StepFact {
        let top = IntervalOutcome { iv: Interval::TOP, clean: false, widened: false };
        StepFact::value(None, top, Congruence::top())
    }
}

impl StepFact {
    fn value(slot: Option<u32>, out: IntervalOutcome, cg: Congruence) -> StepFact {
        StepFact { out, cg, slot, rejects_all: false, passes_all: false }
    }

    fn check(out: IntervalOutcome, cg: Congruence) -> StepFact {
        StepFact {
            out,
            cg,
            slot: None,
            rejects_all: out.clean && (!out.iv.contains(0) || cg.always_nonzero()),
            passes_all: out.clean && (out.iv == Interval::point(0) || cg.as_point() == Some(0)),
        }
    }
}

/// A box: per-slot intervals and congruences, plus the registers the step
/// programs evaluate in. A slot's congruence is read only where its
/// interval is not a point (a point slot is that point).
#[derive(Debug, Clone, Default)]
pub struct AbsEnv {
    /// Per-slot intervals.
    pub iv: Vec<Interval>,
    /// Per-slot congruences (written only by steps evaluated over the
    /// product).
    pub cg: Vec<Congruence>,
    scratch: IvScratch,
}

impl AbsEnv {
    /// Every slot ⊤.
    pub fn top(n_slots: usize) -> AbsEnv {
        AbsEnv {
            iv: vec![Interval::TOP; n_slots],
            cg: vec![Congruence::top(); n_slots],
            scratch: IvScratch::default(),
        }
    }

    /// Every slot the exact point `slots` holds.
    pub fn set_points(&mut self, slots: &[i64]) {
        self.iv.clear();
        self.iv.extend(slots.iter().map(|&v| Interval::point(v)));
        self.cg.clear();
        self.cg.extend(slots.iter().map(|&v| Congruence::point(v)));
    }

    /// Write a bind's or define's fact into its slot, the congruence only
    /// when the fact was evaluated over the product; a check's writes
    /// nothing.
    #[inline]
    pub fn write(&mut self, fact: &StepFact, product: bool) {
        if let Some(slot) = fact.slot {
            self.iv[slot as usize] = fact.out.iv;
            if product {
                self.cg[slot as usize] = fact.cg;
            }
        }
    }
}

/// The box of a realized, non-empty range of `len` values from `start` by
/// `step`: the hull of its first and last value, and `≡ start (mod |step|)`,
/// the residue fact the hull throws away.
pub fn range_box(start: i64, step: i64, len: u64) -> (Interval, Congruence) {
    let last = start.wrapping_add((len as i64 - 1).wrapping_mul(step));
    (Interval::new(start, last), cg_of_bind(Congruence::point(start), Congruence::point(step)))
}

/// The box of a list of values: its hull and its congruence hull (`[0, 0]`
/// and ⊤ for an empty list, which never binds).
pub fn values_box(values: &[i64]) -> (Interval, Congruence) {
    let lo = values.iter().copied().min().unwrap_or(0);
    let hi = values.iter().copied().max().unwrap_or(0);
    (Interval { lo, hi }, cg_of_values(values))
}

/// Every step of a lowered plan compiled once for abstract evaluation (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct AbsSteps {
    steps: Vec<Step>,
    n_slots: usize,
    /// See [`AbsSteps::slice`]. Closed under reads: every step a sliced
    /// step reads from is sliced too.
    slice: Vec<bool>,
}

impl AbsSteps {
    /// Compile every range bound, define body and check body of `lp`.
    pub fn new(lp: &LoweredPlan) -> AbsSteps {
        let steps = lp
            .steps
            .iter()
            .map(|s| match s {
                LStep::Bind { slot, domain: LIter::Range { start, stop, step }, .. } => {
                    Step::Range {
                        slot: *slot,
                        start: IvProg::compile(start),
                        stop: IvProg::compile(stop),
                        step: IvProg::compile(step),
                        stride: step.as_const().map_or(0, i64::signum),
                    }
                }
                LStep::Bind { slot, domain: LIter::Values(v), .. } => {
                    let (iv, cg) = values_box(v);
                    Step::Values { slot: *slot, iv, cg }
                }
                LStep::Define { slot, body: LBody::Expr(e), .. } => {
                    Step::Define { slot: *slot, body: IvProg::compile(e) }
                }
                LStep::Check { body: LBody::Expr(e), .. } => {
                    Step::Check { body: IvProg::compile(e) }
                }
                LStep::Bind { slot, .. } | LStep::Define { slot, .. } => {
                    Step::Opaque { slot: Some(*slot) }
                }
                LStep::Check { .. } => Step::Opaque { slot: None },
                LStep::Visit => Step::Visit,
            })
            .collect();
        let n_slots = lp.n_slots as usize;
        AbsSteps { steps, n_slots, slice: product_slice(&lp.steps, n_slots) }
    }

    /// Per step: in the congruence slice ([`product_slice`]) of the whole
    /// plan. The slice is computed backwards, so at step `i` it is the
    /// slice of the suffix `steps[i..]`, and it keeps at least what the
    /// slice of any window starting at `i` keeps: it serves every driver.
    pub fn slice(&self) -> &[bool] {
        &self.slice
    }

    /// The same program with every step in the slice: the product
    /// everywhere, which decides exactly what the slice decides. It exists
    /// only so the differential tests of the engine and the counter can
    /// compare the slice against the full product; it is public because
    /// the engine's test lives in another crate, and nothing else calls it.
    #[doc(hidden)]
    pub fn with_full_product(mut self) -> AbsSteps {
        self.slice.fill(true);
        self
    }

    /// Step `i` as compiled.
    pub(super) fn step(&self, i: usize) -> &Step {
        &self.steps[i]
    }

    /// Per plan step: at or after `from`, and reading — directly or through
    /// the slots earlier such steps write — one of the `inputs` slots. The
    /// other steps of a window starting at `from` evaluate the same over
    /// every box that differs only in `inputs`.
    pub fn dirty(&self, from: usize, inputs: impl IntoIterator<Item = u32>) -> Vec<bool> {
        let mut dirty_slots = vec![false; self.n_slots];
        for s in inputs {
            dirty_slots[s as usize] = true;
        }
        let mut dirty = vec![false; self.steps.len()];
        for (i, d) in dirty.iter_mut().enumerate().skip(from) {
            if self.reads(i).any(|r| dirty_slots[r as usize]) {
                *d = true;
                if let Some(w) = self.written_slot(i) {
                    dirty_slots[w as usize] = true;
                }
            }
        }
        dirty
    }

    /// The slot step `i` writes: a bind's or a define's, opaque ones
    /// included.
    fn written_slot(&self, i: usize) -> Option<u32> {
        match &self.steps[i] {
            Step::Range { slot, .. } | Step::Values { slot, .. } | Step::Define { slot, .. } => {
                Some(*slot)
            }
            Step::Opaque { slot } => *slot,
            Step::Check { .. } | Step::Visit => None,
        }
    }

    /// The slots step `i`'s programs read. Opaque steps read nothing: their
    /// fact does not depend on the box.
    pub fn reads(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        let progs: [Option<&IvProg>; 3] = match &self.steps[i] {
            Step::Range { start, stop, step, .. } => [Some(start), Some(stop), Some(step)],
            Step::Define { body, .. } | Step::Check { body } => [Some(body), None, None],
            Step::Values { .. } | Step::Opaque { .. } | Step::Visit => [None; 3],
        };
        progs.into_iter().flatten().flat_map(IvProg::read_slots)
    }

    /// The transfer: step `i`'s fact over `env`, over the product when
    /// `product` (interval-only otherwise, with a ⊤ congruence). Does not
    /// write `env`; [`AbsEnv::write`] does. A range bind's congruence
    /// reads its start and step, never its stop, and is the point its hull
    /// is, when the hull is one.
    #[inline(always)]
    pub fn eval(&self, i: usize, env: &mut AbsEnv, product: bool, hull: BindHull) -> StepFact {
        let AbsEnv { iv, cg, scratch } = env;
        // One out-of-line evaluator per half, not one inlined copy per call.
        let mut run = |p: &IvProg, product: bool| {
            if product {
                eval_product(p, iv, cg, scratch)
            } else {
                (p.eval(iv, scratch), Congruence::top())
            }
        };
        match &self.steps[i] {
            Step::Range { slot, start, stop, step, stride } => {
                let (s, s_cg) = run(start, product);
                let (e, _) = run(stop, false);
                let (st, st_cg) = run(step, product);
                let iv = match (hull, stride) {
                    (BindHull::Stride, 1) => {
                        Interval { lo: s.iv.lo, hi: e.iv.hi.saturating_sub(1).max(s.iv.lo) }
                    }
                    (BindHull::Stride, -1) => {
                        Interval { lo: e.iv.lo.saturating_add(1).min(s.iv.hi), hi: s.iv.hi }
                    }
                    _ => range_value_hull(s.iv, e.iv),
                };
                let cg = if !product {
                    Congruence::top()
                } else if iv.is_point() {
                    Congruence::point(iv.lo)
                } else {
                    cg_of_bind(s_cg, st_cg)
                };
                let out = IntervalOutcome {
                    iv,
                    clean: s.clean && e.clean && st.clean,
                    widened: s.widened || e.widened || st.widened,
                };
                StepFact::value(Some(*slot), out, cg)
            }
            Step::Values { slot, iv, cg } => {
                StepFact::value(Some(*slot), IntervalOutcome::new(*iv, true), *cg)
            }
            Step::Define { slot, body } => {
                let (out, cg) = run(body, product);
                StepFact::value(Some(*slot), out, cg)
            }
            Step::Check { body } => {
                let (out, cg) = run(body, product);
                StepFact::check(out, cg)
            }
            Step::Opaque { slot } => StepFact { slot: *slot, ..StepFact::default() },
            // Clean: it never fails, writes nothing and decides nothing.
            Step::Visit => {
                StepFact::value(None, IntervalOutcome::new(Interval::TOP, true), Congruence::top())
            }
        }
    }

    /// The static whole-plan walk: every step in plan order from a ⊤ box,
    /// range binds hulled with [`BindHull::Stride`], over the product on
    /// the plan's congruence slice when `cg` (interval-only otherwise).
    /// `f` sees each step's index and its fact. Returns the final box: a
    /// sound per-slot hull over the whole plan.
    pub fn walk(&self, cg: bool, mut f: impl FnMut(usize, &StepFact)) -> AbsEnv {
        let mut env = AbsEnv::top(self.n_slots);
        for i in 0..self.steps.len() {
            let product = cg && self.slice[i];
            let fact = self.eval(i, &mut env, product, BindHull::Stride);
            f(i, &fact);
            env.write(&fact, product);
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintClass;
    use crate::expr::{lit, var};
    use crate::plan::{Plan, PlanOptions};
    use crate::space::Space;

    fn lower(space: &std::sync::Arc<Space>) -> LoweredPlan {
        LoweredPlan::new(&Plan::new(space, PlanOptions::default()).unwrap()).unwrap()
    }

    /// Verdicts, hulls and congruences of the static walk on one small
    /// space: a stride-aware hull, a stepped range's residue deciding a
    /// check the interval cannot, a dead check, a fallible define, and a
    /// check over its ⊤ value that decides nothing.
    #[test]
    fn the_walk_hulls_strides_and_decides_checks() {
        let space = Space::builder("abs")
            .range("a", 1, 9)
            .range_step("b", var("a") * 4, 100, 4)
            .constraint("b_off", ConstraintClass::Hard, ((var("b") + 1) % 4).ne(0))
            .constraint("b_neg", ConstraintClass::Soft, var("b").lt(0))
            .derived("q", lit(12) / (var("b") - var("a")))
            .constraint("q_big", ConstraintClass::Soft, var("q").gt(1))
            .build()
            .unwrap();
        let lp = lower(&space);
        let abs = AbsSteps::new(&lp);
        let slot = |n: &str| lp.slot_names.iter().position(|s| &**s == n).unwrap();
        let check = |name: &str| {
            let c = space.constraints().iter().position(|c| &*c.name == name).unwrap();
            let at = |s: &LStep| matches!(s, LStep::Check { constraint, .. } if *constraint == c);
            lp.steps.iter().position(at).unwrap()
        };
        for cg in [true, false] {
            let mut facts = Vec::new();
            let env = abs.walk(cg, |_, fact| facts.push(*fact));
            // `b` ascends from `4a` below 100: [4, 99], not the bounds' [4, 100].
            assert_eq!(env.iv[slot("b")], Interval { lo: 4, hi: 99 });
            let off = facts[check("b_off")];
            let neg = facts[check("b_neg")];
            let big = facts[check("q_big")];
            let q = lp.steps.iter().position(|s| s.written_slot() == Some(slot("q") as u32));
            let q = facts[q.unwrap()];
            // Only the residue `b ≡ 0 (mod 4)` decides `(b + 1) % 4 != 0`.
            assert_eq!(off.rejects_all, cg, "{off:?}");
            assert_eq!(env.cg[slot("b")].is_top(), !cg);
            assert!(neg.passes_all && !neg.rejects_all, "{neg:?}");
            assert!(!q.out.clean && !q.rejects_all, "{q:?}");
            assert!(!big.rejects_all && !big.passes_all, "{big:?}");
        }
    }
}
