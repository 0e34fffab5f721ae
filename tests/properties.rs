//! Randomized property tests over the core invariants:
//!
//! * the dynamic expression evaluator, the lowered integer IR, and the
//!   bytecode VM agree on arbitrary expression trees;
//! * realized range domains behave like their Python counterparts;
//! * arbitrary generated spaces produce identical survivors in every
//!   backend, at any thread count;
//! * pruning accounting is conserved (evaluated = pruned + passed);
//! * the static interval analysis is *sound*: every successful evaluation
//!   lands inside the predicted interval, and an expression marked `clean`
//!   never fails at runtime (the contract the block pruner's subtree skips
//!   rely on);
//! * the congruence domain's transfer functions are sound against concrete
//!   arithmetic, the interval × congruence reduced product never drops a
//!   member, and the product evaluator keeps the interval half bit-identical
//!   to interval-only evaluation (the contract congruence subtree skips and
//!   the determinism suite rely on);
//! * the register-form interval program is outcome-identical to the
//!   recursive reference evaluators, interval and product halves alike.
//!
//! Cases are generated from a fixed-seed [`StdRng`] (the vendored std-only
//! shim), so every run exercises the same case set — failures reproduce
//! without a shrinker.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use beast::prelude::*;
use beast_core::analyze::congruence::interval_decides;
use beast_core::analyze::{cg_of_bind, cg_of_values, eval_product, reduce, Congruence};
use beast_core::expr::{lit, max2, min2, ternary, Bindings, Builtin, Expr, E};
use beast_core::interval::{
    interval_of, iv_abs, iv_bin, iv_call2, iv_neg, iv_not, iv_ternary, Interval, IntervalOutcome,
    IvProg, IvScratch,
};
use beast_core::ir::{IntBinOp, IntExpr, LBody, LIter, LStep};
use beast_core::iterator::Realized;
use beast_core::pointprog::PointProg;
use beast_engine::parallel::run_parallel;

const VARS: [&str; 3] = ["va", "vb", "vc"];

/// Random expression trees over three variables. Constants and leaf values
/// are small so checked arithmetic rarely overflows (the dynamic evaluator
/// is checked, the IR wraps like C; keeping magnitudes small makes them
/// agree — overflowing cases are skipped as out of contract).
fn arb_expr(rng: &mut StdRng, depth: usize) -> E {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.5) {
            lit(rng.gen_range(-4i64..5))
        } else {
            var(VARS[rng.gen_range(0usize..3)])
        };
    }
    let a = arb_expr(rng, depth - 1);
    let b = arb_expr(rng, depth - 1);
    match rng.gen_range(0u32..14) {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a.lt(b),
        4 => a.ge(b),
        5 => a.eq(b),
        6 => a.and(b),
        7 => a.or(b),
        8 => min2(a, b),
        9 => max2(a, b),
        10 => ternary(arb_expr(rng, depth - 1), a, b),
        // Guarded division/remainder: divisor forced nonzero.
        11 => a / min2(b, -1),
        12 => a % max2(b, 1),
        _ => -a,
    }
}

struct MapEnv(HashMap<Arc<str>, Value>);

impl Bindings for MapEnv {
    fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).cloned()
    }
}

/// The dynamic evaluator (walker path), the lowered IR (compiled path) and
/// the VM agree on every expression tree — evaluated through a one-point
/// space so the full pipeline is exercised.
#[test]
fn expr_ir_vm_agree() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_7001);
    for case in 0..128 {
        let e = arb_expr(&mut rng, 3);
        let a = rng.gen_range(-6i64..7);
        let b = rng.gen_range(-6i64..7);
        let c = rng.gen_range(-6i64..7);

        // Dynamic evaluation.
        let env = MapEnv(HashMap::from([
            (Arc::<str>::from("va"), Value::Int(a)),
            (Arc::<str>::from("vb"), Value::Int(b)),
            (Arc::<str>::from("vc"), Value::Int(c)),
        ]));
        let expr: &Expr = e.expr();
        // Checked arithmetic may overflow where C wraps; such cases are out
        // of contract (the paper's generated C wraps silently too) — skip.
        let dynamic = match expr.eval(&env) {
            Err(beast_core::error::EvalError::Overflow) => continue,
            other => other.unwrap(),
        };
        let expected = dynamic.as_int().unwrap();

        // One-point space carrying the expression as a derived variable.
        let space = Space::builder("prop_expr")
            .list("va", [a])
            .list("vb", [b])
            .list("vc", [c])
            .derived("result", e.clone())
            .build()
            .unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lowered = LoweredPlan::new(&plan).unwrap();

        let compiled = Compiled::new(lowered.clone());
        let out = compiled
            .run(CollectVisitor::new(compiled.point_names().clone(), 2))
            .unwrap();
        assert_eq!(out.visitor.points.len(), 1, "case {case}");
        assert_eq!(
            out.visitor.points[0].get_int("result"),
            expected,
            "case {case}: compiled disagrees with dynamic eval"
        );

        let vm = Vm::compile(&lowered, VmStyle::NumericFor);
        let out = vm
            .run(CollectVisitor::new(vm.point_names().clone(), 2))
            .unwrap();
        assert_eq!(
            out.visitor.points[0].get_int("result"),
            expected,
            "case {case}: VM disagrees with dynamic eval"
        );
    }
}

/// Realized ranges have Python range semantics: length, membership, order.
#[test]
fn realized_range_semantics() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_7002);
    for _ in 0..256 {
        let start = rng.gen_range(-50i64..50);
        let stop = rng.gen_range(-50i64..50);
        let step = loop {
            let s = rng.gen_range(-7i64..8);
            if s != 0 {
                break s;
            }
        };
        let r = Realized::Range { start, stop, step };
        let vals: Vec<i64> = r.iter().map(|v| v.as_int().unwrap()).collect();
        // Python reference.
        let mut expect = Vec::new();
        let mut x = start;
        while (step > 0 && x < stop) || (step < 0 && x > stop) {
            expect.push(x);
            x += step;
        }
        assert_eq!(vals, expect, "range({start}, {stop}, {step})");
        assert_eq!(r.len(), expect.len(), "range({start}, {stop}, {step})");
    }
}

/// Set-algebra on realized domains is really set algebra.
#[test]
fn realized_set_algebra() {
    use std::collections::BTreeSet;
    let mut rng = StdRng::seed_from_u64(0xBEA5_7003);
    for _ in 0..128 {
        let xs: Vec<i64> = (0..rng.gen_range(0usize..12))
            .map(|_| rng.gen_range(-20i64..20))
            .collect();
        let ys: Vec<i64> = (0..rng.gen_range(0usize..12))
            .map(|_| rng.gen_range(-20i64..20))
            .collect();
        let a = Realized::Values(xs.iter().map(|&v| Value::Int(v)).collect());
        let b = Realized::Values(ys.iter().map(|&v| Value::Int(v)).collect());
        let sa: BTreeSet<i64> = xs.iter().copied().collect();
        let sb: BTreeSet<i64> = ys.iter().copied().collect();

        let ints =
            |r: &Realized| -> Vec<i64> { r.iter().map(|v| v.as_int().unwrap()).collect() };
        assert_eq!(
            ints(&a.union(&b).unwrap()),
            sa.union(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            ints(&a.intersect(&b).unwrap()),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            ints(&a.difference(&b).unwrap()),
            sa.difference(&sb).copied().collect::<Vec<_>>()
        );
        assert_eq!(a.concat(&b).len(), xs.len() + ys.len());
    }
}

/// Arbitrary three-level spaces: all backends agree, at any thread count,
/// and pruning accounting is conserved.
#[test]
fn random_spaces_agree() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_7004);
    for case in 0..64 {
        let len_a = rng.gen_range(1i64..8);
        let len_b = rng.gen_range(1i64..8);
        let dep_step = rng.gen_range(1i64..4);
        let threshold = rng.gen_range(0i64..40);
        let use_soft = rng.gen_bool(0.5);
        let threads = rng.gen_range(1usize..7);

        let mut builder = Space::builder("prop_space")
            .range("a", 1, len_a + 1)
            .range("b", 0, len_b)
            .range_step("c", var("a"), 20, var("a") * dep_step)
            .derived("score", var("a") * var("b") + var("c") * 2)
            .constraint("over", ConstraintClass::Hard, var("score").gt(threshold));
        if use_soft {
            builder =
                builder.constraint("odd_c", ConstraintClass::Soft, (var("c") % 2).ne(0));
        }
        let space = builder.build().unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lowered = LoweredPlan::new(&plan).unwrap();

        let compiled_out = Compiled::new(lowered.clone())
            .run(CountVisitor::default())
            .unwrap();
        let walker_out = Walker::new(&plan, LoopStyle::While)
            .run(CountVisitor::default())
            .unwrap();
        let vm_out = Vm::compile(&lowered, VmStyle::RepeatUntil)
            .run(CountVisitor::default())
            .unwrap();
        let par_out = run_parallel(&lowered, threads, CountVisitor::default).unwrap();

        assert_eq!(compiled_out.visitor.count, walker_out.visitor.count, "case {case}");
        assert_eq!(compiled_out.visitor.count, vm_out.visitor.count, "case {case}");
        assert_eq!(compiled_out.visitor.count, par_out.visitor.count, "case {case}");
        assert_eq!(compiled_out.stats, par_out.stats, "case {case}");

        // Conservation: every evaluation either pruned or passed; survivors
        // equal the points that passed the *last* check they reached.
        let s = &compiled_out.stats;
        for i in 0..space.constraints().len() {
            assert!(s.pruned[i] <= s.evaluated[i], "case {case}");
        }
        let passed_first: u64 = s.evaluated.first().map(|e| e - s.pruned[0]).unwrap_or(0);
        assert!(s.survivors <= passed_first.max(s.survivors), "case {case}");
    }
}

/// Random expression trees *including unguarded division and remainder*, so
/// the interval analysis sees both failure-free and possibly-failing shapes.
fn arb_expr_unguarded(rng: &mut StdRng, depth: usize) -> E {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.5) {
            lit(rng.gen_range(-4i64..5))
        } else {
            var(VARS[rng.gen_range(0usize..3)])
        };
    }
    let a = arb_expr_unguarded(rng, depth - 1);
    let b = arb_expr_unguarded(rng, depth - 1);
    match rng.gen_range(0u32..14) {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a.lt(b),
        4 => a.ge(b),
        5 => a.eq(b),
        6 => a.and(b),
        7 => a.or(b),
        8 => min2(a, b),
        9 => max2(a, b),
        10 => ternary(arb_expr_unguarded(rng, depth - 1), a, b),
        11 => a / b,
        12 => a % b,
        _ => -a,
    }
}

/// Soundness of the static interval analysis behind block pruning, checked
/// exhaustively against evaluation over small random domains:
///
/// * whenever evaluation succeeds, the result is inside the predicted
///   interval;
/// * whenever the analysis claims `clean`, evaluation never errors.
///
/// This pair is exactly what makes an interval-guard subtree skip safe.
#[test]
fn interval_analysis_is_sound() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_7005);
    let mut checked_points = 0u64;
    let mut unclean_cases = 0u64;
    for case in 0..256 {
        let e = arb_expr_unguarded(&mut rng, 3);
        let mut domain = |_: &str| -> Vec<i64> {
            (0..rng.gen_range(1usize..4)).map(|_| rng.gen_range(-6i64..7)).collect()
        };
        let (da, db, dc) = (domain("va"), domain("vb"), domain("vc"));
        let space = Space::builder("prop_iv")
            .list("va", da.clone())
            .list("vb", db.clone())
            .list("vc", dc.clone())
            .derived("result", e)
            .build()
            .unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();

        // Domain intervals per slot, plus the realized value lists to
        // enumerate; the simplifier may have folded the derived into the
        // bind exprs, so walk the lowered steps rather than assuming shape.
        let mut ivals = vec![Interval::TOP; lp.n_slots as usize];
        let mut binds: Vec<(u32, Vec<i64>)> = Vec::new();
        let mut target = None;
        for step in &lp.steps {
            match step {
                LStep::Bind { slot, domain: LIter::Values(v), .. } => {
                    ivals[*slot as usize] = Interval {
                        lo: v.iter().copied().min().unwrap(),
                        hi: v.iter().copied().max().unwrap(),
                    };
                    binds.push((*slot, v.clone()));
                }
                LStep::Define { slot, body: LBody::Expr(expr), .. }
                    if &*lp.slot_names[*slot as usize] == "result" =>
                {
                    target = Some(expr.clone());
                }
                _ => {}
            }
        }
        let Some(expr) = target else {
            // Fully constant-folded away; nothing to check for this case.
            continue;
        };
        let outcome = interval_of(&expr, &ivals);
        unclean_cases += u64::from(!outcome.clean);

        let mut slots = vec![0i64; lp.n_slots as usize];
        let mut enumerate = vec![0usize; binds.len()];
        loop {
            for (k, (slot, values)) in binds.iter().enumerate() {
                slots[*slot as usize] = values[enumerate[k]];
            }
            checked_points += 1;
            match expr.eval(&slots) {
                Ok(v) => assert!(
                    outcome.iv.contains(v),
                    "case {case}: eval {v} escapes predicted {:?} for {expr:?}",
                    outcome.iv
                ),
                Err(e) => assert!(
                    !outcome.clean,
                    "case {case}: `clean` expression failed with {e:?}: {expr:?}"
                ),
            }
            // Odometer over the bind domains.
            let mut k = binds.len();
            loop {
                if k == 0 {
                    break;
                }
                k -= 1;
                enumerate[k] += 1;
                if enumerate[k] < binds[k].1.len() {
                    break;
                }
                enumerate[k] = 0;
            }
            if enumerate.iter().all(|&i| i == 0) {
                break;
            }
        }
    }
    // The generator must exercise both sides of the contract.
    assert!(checked_points > 1000, "degenerate case set: {checked_points} points");
    assert!(unclean_cases > 0, "no possibly-failing expressions generated");
}

/// `e` with every constant leaf read from a fresh slot instead (numbered
/// from `first`, values appended to `consts`): the same value, but nothing
/// left for the point-program compiler to fold.
fn hide_consts(e: &IntExpr, first: u32, consts: &mut Vec<i64>) -> IntExpr {
    let mut rec = |x: &IntExpr| Box::new(hide_consts(x, first, consts));
    match e {
        IntExpr::Const(k) => {
            consts.push(*k);
            IntExpr::Slot(first + consts.len() as u32 - 1)
        }
        IntExpr::Slot(s) => IntExpr::Slot(*s),
        IntExpr::Neg(a) => IntExpr::Neg(rec(a)),
        IntExpr::Not(a) => IntExpr::Not(rec(a)),
        IntExpr::Abs(a) => IntExpr::Abs(rec(a)),
        IntExpr::Bin(op, a, b) => IntExpr::Bin(*op, rec(a), rec(b)),
        IntExpr::Call2(f, a, b) => IntExpr::Call2(*f, rec(a), rec(b)),
        IntExpr::Ternary(c, t, f) => IntExpr::Ternary(rec(c), rec(t), rec(f)),
    }
}

/// Compile-time folding shortens the real GEMM plan's point programs: every
/// program is no longer than the one compiled from the same tree with its
/// constants hidden behind slots (where nothing folds), computes the same
/// value, and the plan as a whole gets strictly shorter (`x || 0` and a
/// `!= 0` after a 0/1 operand fold away). A constant subtree spliced in for
/// any constant folds back to the same leaf operand, so the program does
/// not change.
#[test]
fn gemm_point_program_folding_reduces_ops() {
    let params = beast::gemm::GemmSpaceParams::reduced(12);
    let space = beast::gemm::build_gemm_space(&params).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let lp = LoweredPlan::new(&plan).unwrap();
    let n = lp.n_slots;

    /// `c` spelled `(c + 7) - 7`.
    fn splice(e: &IntExpr) -> IntExpr {
        let b = Box::new;
        let rec = |x: &IntExpr| b(splice(x));
        match e {
            IntExpr::Const(k) => IntExpr::Bin(
                IntBinOp::Sub,
                b(IntExpr::Bin(IntBinOp::Add, b(IntExpr::Const(*k)), b(IntExpr::Const(7)))),
                b(IntExpr::Const(7)),
            ),
            IntExpr::Slot(_) => e.clone(),
            IntExpr::Neg(a) => IntExpr::Neg(rec(a)),
            IntExpr::Not(a) => IntExpr::Not(rec(a)),
            IntExpr::Abs(a) => IntExpr::Abs(rec(a)),
            IntExpr::Bin(op, x, y) => IntExpr::Bin(*op, rec(x), rec(y)),
            IntExpr::Call2(f, x, y) => IntExpr::Call2(*f, rec(x), rec(y)),
            IntExpr::Ternary(c, t, f) => IntExpr::Ternary(rec(c), rec(t), rec(f)),
        }
    }

    let mut rng = StdRng::seed_from_u64(0xBEA5_700C);
    let (mut folded_total, mut hidden_total, mut leaves) = (0usize, 0usize, 0usize);
    for step in &lp.steps {
        let exprs = match step {
            LStep::Define { body: LBody::Expr(e), .. }
            | LStep::Check { body: LBody::Expr(e), .. } => vec![e],
            LStep::Bind { domain: LIter::Range { start, stop, step }, .. } => {
                vec![start, stop, step]
            }
            _ => vec![],
        };
        for e in exprs {
            let folded = PointProg::compile(e);
            let mut consts = Vec::new();
            let hidden = PointProg::compile(&hide_consts(e, n, &mut consts));
            assert!(folded.len() <= hidden.len(), "folding grew {e}: {folded:?} vs {hidden:?}");
            for _ in 0..8 {
                let mut slots: Vec<i64> = (0..n).map(|_| rng.gen_range(1i64..64)).collect();
                let want = folded.eval(&slots);
                slots.extend(&consts);
                assert_eq!(hidden.eval(&slots), want, "{e} at {slots:?}");
            }
            assert_eq!(PointProg::compile(&splice(e)), folded, "a spliced constant in {e}");
            folded_total += folded.len();
            hidden_total += hidden.len();
            leaves += usize::from(folded.is_empty());
        }
    }
    assert!(leaves > 0, "no GEMM expression compiled to a leaf");
    assert!(
        folded_total < hidden_total,
        "folding found nothing in the GEMM plan ({folded_total} vs {hidden_total} instructions)"
    );
}

/// Random congruence-domain elements: exact points and small progressions.
fn arb_cg(rng: &mut StdRng) -> Congruence {
    if rng.gen_bool(0.3) {
        Congruence::point(rng.gen_range(-9i64..10))
    } else {
        let m = rng.gen_range(1i64..13);
        Congruence { m, r: rng.gen_range(0..m) }
    }
}

/// A finite sample of an abstract value's concretization, straddling zero
/// so negative members are exercised too.
fn cg_members(cg: &Congruence) -> Vec<i64> {
    match cg.as_point() {
        Some(v) => vec![v],
        None => (-3i64..=3).map(|k| cg.r + k * cg.m).collect(),
    }
}

/// Soundness of every congruence transfer function against concrete
/// arithmetic: for random abstract values and members `x`, `y` of their
/// concretizations, the concrete result of each operation is a member of
/// the abstract result. Magnitudes stay far from `i64::MAX`, where the
/// mathematical and wrapping results coincide — the wrap regime is exactly
/// where the reduced product drops to ⊤ (`reduce_never_drops_members`).
#[test]
fn congruence_transfers_are_sound() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_7006);
    for case in 0..512 {
        let a = arb_cg(&mut rng);
        let b = arb_cg(&mut rng);
        let (join, neg) = (a.join(b), -a);
        let (add, sub, mul) = (a + b, a - b, a * b);
        let (div, rem) = (a / b, a % b);
        let ne = a.never_equal(b);
        for &x in &cg_members(&a) {
            assert!(a.contains(x), "case {case}: member generator broke contains");
            assert!(join.contains(x), "case {case}: join dropped {x} from {a:?}");
            assert!(neg.contains(-x), "case {case}: neg({a:?}) lost {}", -x);
            if a.always_nonzero() {
                assert_ne!(x, 0, "case {case}: always_nonzero lied for {a:?}");
            }
            for &y in &cg_members(&b) {
                assert!(join.contains(y), "case {case}: join dropped {y} from {b:?}");
                assert!(add.contains(x + y), "case {case}: add lost {x}+{y} for {a:?}+{b:?}");
                assert!(sub.contains(x - y), "case {case}: sub lost {x}-{y} for {a:?}-{b:?}");
                assert!(mul.contains(x * y), "case {case}: mul lost {x}*{y} for {a:?}*{b:?}");
                if y != 0 {
                    assert!(div.contains(x / y), "case {case}: div lost {x}/{y} for {a:?}/{b:?}");
                    assert!(rem.contains(x % y), "case {case}: rem lost {x}%{y} for {a:?}%{b:?}");
                }
                if ne {
                    assert_ne!(x, y, "case {case}: never_equal lied for {a:?} vs {b:?}");
                }
            }
        }
        // The bind/values constructors cover their whole concretization too.
        let start = rng.gen_range(-20i64..21);
        let step = rng.gen_range(-6i64..7);
        let bind = cg_of_bind(Congruence::point(start), Congruence::point(step));
        for k in 0..5 {
            assert!(
                bind.contains(start + k * step),
                "case {case}: cg_of_bind({start}, step {step}) lost iteration {k}"
            );
        }
        let vals: Vec<i64> =
            (0..rng.gen_range(1usize..8)).map(|_| rng.gen_range(-30i64..31)).collect();
        let hull = cg_of_values(&vals);
        for &v in &vals {
            assert!(hull.contains(v), "case {case}: cg_of_values({vals:?}) lost {v}");
        }
    }
}

/// The product reduction never drops a member: every value inside both the
/// interval and the congruence concretizations is still in the reduced
/// congruence, across all flag combinations (point intervals collapse the
/// congruence to that point, widened outcomes collapse it to ⊤, everything
/// else passes through unchanged).
#[test]
fn reduce_never_drops_members() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_7007);
    for case in 0..512 {
        let lo = rng.gen_range(-12i64..13);
        let hi = lo + rng.gen_range(0i64..9);
        let outcome = IntervalOutcome {
            iv: Interval { lo, hi },
            clean: rng.gen_bool(0.5),
            widened: rng.gen_bool(0.5),
        };
        let cg = arb_cg(&mut rng);
        let reduced = reduce(&outcome, cg);
        for v in lo..=hi {
            if cg.contains(v) {
                assert!(
                    reduced.contains(v),
                    "case {case}: reduce dropped {v} from {outcome:?} × {cg:?}"
                );
            }
        }
    }
}

/// Soundness of the interval × congruence product evaluator, checked
/// against concrete evaluation over small random domains:
///
/// * the interval half is bit-identical to the interval-only program, so
///   guard worthiness/elision verdicts cannot shift when the congruence
///   domain is enabled (the survivors-identical contract of the
///   determinism suite);
/// * whenever concrete evaluation succeeds, the result is a member of the
///   reduced congruence (what makes a congruence subtree skip safe).
#[test]
fn product_eval_is_sound_and_interval_identical() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_7008);
    let mut checked_points = 0u64;
    let mut residue_facts = 0u64;
    for case in 0..256 {
        let e = arb_expr_unguarded(&mut rng, 3);
        let mut domain = |_: &str| -> Vec<i64> {
            (0..rng.gen_range(1usize..4)).map(|_| rng.gen_range(-6i64..7)).collect()
        };
        let (da, db, dc) = (domain("va"), domain("vb"), domain("vc"));
        let space = Space::builder("prop_cg")
            .list("va", da)
            .list("vb", db)
            .list("vc", dc)
            .derived("result", e)
            .build()
            .unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();

        let mut ivals = vec![Interval::TOP; lp.n_slots as usize];
        let mut cvals = vec![Congruence::top(); lp.n_slots as usize];
        let mut binds: Vec<(u32, Vec<i64>)> = Vec::new();
        let mut target = None;
        for step in &lp.steps {
            match step {
                LStep::Bind { slot, domain: LIter::Values(v), .. } => {
                    ivals[*slot as usize] = Interval {
                        lo: v.iter().copied().min().unwrap(),
                        hi: v.iter().copied().max().unwrap(),
                    };
                    cvals[*slot as usize] = cg_of_values(v);
                    binds.push((*slot, v.clone()));
                }
                LStep::Define { slot, body: LBody::Expr(expr), .. }
                    if &*lp.slot_names[*slot as usize] == "result" =>
                {
                    target = Some(expr.clone());
                }
                _ => {}
            }
        }
        let Some(expr) = target else {
            continue;
        };
        let prog = IvProg::compile(&expr);
        let mut scratch = IvScratch::default();
        let iv_only = prog.eval(&ivals, &mut scratch);
        let (prod_iv, prod_cg) = eval_product(&prog, &ivals, &cvals, &mut scratch);
        assert_eq!(
            prod_iv, iv_only,
            "case {case}: congruence changed the interval half for {expr:?}"
        );
        residue_facts += u64::from(!prod_cg.is_top());

        let mut slots = vec![0i64; lp.n_slots as usize];
        let mut enumerate = vec![0usize; binds.len()];
        loop {
            for (k, (slot, values)) in binds.iter().enumerate() {
                slots[*slot as usize] = values[enumerate[k]];
            }
            checked_points += 1;
            if let Ok(v) = expr.eval(&slots) {
                assert!(
                    prod_iv.iv.contains(v),
                    "case {case}: eval {v} escapes interval {:?} for {expr:?}",
                    prod_iv.iv
                );
                assert!(
                    prod_cg.contains(v),
                    "case {case}: eval {v} escapes congruence {prod_cg:?} for {expr:?}"
                );
            }
            let mut k = binds.len();
            loop {
                if k == 0 {
                    break;
                }
                k -= 1;
                enumerate[k] += 1;
                if enumerate[k] < binds[k].1.len() {
                    break;
                }
                enumerate[k] = 0;
            }
            if enumerate.iter().all(|&i| i == 0) {
                break;
            }
        }
    }
    assert!(checked_points > 1000, "degenerate case set: {checked_points} points");
    assert!(residue_facts > 0, "congruence half never learned a residue fact");
}

/// Leaf constants for the evaluator-identity test: the `i64` extremes the
/// fast paths must hand to the reference transfers, next to ordinary values.
const LEAVES: [i64; 10] =
    [i64::MIN, i64::MIN + 1, -(1 << 40), -3, -1, 0, 1, 7, i64::MAX - 1, i64::MAX];

/// Random lowered expressions over four slots, every operator and builtin.
fn arb_int_expr(rng: &mut StdRng, depth: usize) -> IntExpr {
    if depth == 0 || rng.gen_bool(0.25) {
        return if rng.gen_bool(0.4) {
            IntExpr::Const(LEAVES[rng.gen_range(0..LEAVES.len())])
        } else {
            IntExpr::Slot(rng.gen_range(0u32..4))
        };
    }
    use Builtin::{DivCeil, Gcd, Max, Min, RoundUp};
    use IntBinOp::*;
    const OPS: [IntBinOp; 14] =
        [Add, Sub, Mul, Div, FloorDiv, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or];
    const BUILTINS: [Builtin; 6] = [Min, Max, Builtin::Abs, DivCeil, Gcd, RoundUp];
    let pick = rng.gen_range(0usize..24);
    let mut sub = || Box::new(arb_int_expr(rng, depth - 1));
    match pick {
        0..=13 => IntExpr::Bin(OPS[pick], sub(), sub()),
        14 => IntExpr::Neg(sub()),
        15 => IntExpr::Not(sub()),
        16 => IntExpr::Abs(sub()),
        17 => IntExpr::Ternary(sub(), sub(), sub()),
        _ => IntExpr::Call2(BUILTINS[pick - 18], sub(), sub()),
    }
}

/// Slot intervals: ⊤, points (zero and the extremes among them), ranges
/// hugging either end of `i64`, and small ranges on and off zero.
fn arb_interval(rng: &mut StdRng) -> Interval {
    match rng.gen_range(0u32..7) {
        0 => Interval::TOP,
        1 => Interval::point(LEAVES[rng.gen_range(0..LEAVES.len())]),
        2 => Interval { lo: i64::MAX - rng.gen_range(0i64..4), hi: i64::MAX },
        3 => Interval { lo: i64::MIN, hi: i64::MIN + rng.gen_range(0i64..4) },
        4 => Interval { lo: -rng.gen_range(0i64..5), hi: rng.gen_range(0i64..5) },
        _ => {
            let lo = rng.gen_range(1i64..9);
            Interval { lo, hi: lo + rng.gen_range(0i64..40) }
        }
    }
}

/// Slot congruences: the small elements of [`arb_cg`] plus ⊤, extreme
/// points and a modulus far beyond any interval width.
fn arb_cg_wide(rng: &mut StdRng) -> Congruence {
    match rng.gen_range(0u32..6) {
        0 => Congruence::top(),
        1 => Congruence::point(LEAVES[rng.gen_range(0..LEAVES.len())]),
        2 => Congruence { m: 1 << 40, r: rng.gen_range(0i64..5) },
        _ => arb_cg(rng),
    }
}

/// Three-valued truth of a product value (the reduced product's `truth`).
fn product_truth(o: &IntervalOutcome, cg: Congruence) -> Option<bool> {
    if !o.iv.contains(0) || cg.always_nonzero() {
        Some(true)
    } else if o.iv == Interval::point(0) || cg.as_point() == Some(0) {
        Some(false)
    } else {
        None
    }
}

/// The interval × congruence product, evaluated recursively from the public
/// transfer functions and reduced after every node — the composition the
/// register-form evaluator must reproduce.
fn product_reference(
    e: &IntExpr,
    iv: &[Interval],
    cg: &[Congruence],
) -> (IntervalOutcome, Congruence) {
    let rec = |e: &IntExpr| product_reference(e, iv, cg);
    let point_if = |known: bool, value: i64| {
        if known {
            Congruence::point(value)
        } else {
            Congruence::top()
        }
    };
    let (o, c) = match e {
        IntExpr::Const(k) => (interval_of(e, iv), Congruence::point(*k)),
        IntExpr::Slot(s) => (interval_of(e, iv), cg[*s as usize]),
        IntExpr::Neg(a) => {
            let (ao, ac) = rec(a);
            (iv_neg(ao), -ac)
        }
        IntExpr::Not(a) => {
            let (ao, ac) = rec(a);
            let c = match product_truth(&ao, ac) {
                Some(t) => Congruence::point(i64::from(!t)),
                None => Congruence::top(),
            };
            (iv_not(ao), c)
        }
        IntExpr::Abs(a) => {
            let (ao, ac) = rec(a);
            (iv_abs(ao), ac.join(-ac))
        }
        IntExpr::Bin(op, a, b) => {
            let ((ao, ac), (bo, bc)) = (rec(a), rec(b));
            let (ta, tb) = (product_truth(&ao, ac), product_truth(&bo, bc));
            let c = match op {
                IntBinOp::Add => ac + bc,
                IntBinOp::Sub => ac - bc,
                IntBinOp::Mul => ac * bc,
                IntBinOp::Div | IntBinOp::FloorDiv => ac / bc,
                IntBinOp::Rem => ac % bc,
                IntBinOp::Eq => point_if(ac.never_equal(bc), 0),
                IntBinOp::Ne => point_if(ac.never_equal(bc), 1),
                IntBinOp::And if ta == Some(false) || tb == Some(false) => Congruence::point(0),
                IntBinOp::And => point_if(ta == Some(true) && tb == Some(true), 1),
                IntBinOp::Or if ta == Some(true) || (ta == Some(false) && tb == Some(true)) => {
                    Congruence::point(1)
                }
                IntBinOp::Or => point_if(ta == Some(false) && tb == Some(false), 0),
                IntBinOp::Lt | IntBinOp::Le | IntBinOp::Gt | IntBinOp::Ge => Congruence::top(),
            };
            (iv_bin(*op, ao, bo), c)
        }
        IntExpr::Call2(bi, a, b) => {
            let ((ao, ac), (bo, bc)) = (rec(a), rec(b));
            let c = match bi {
                Builtin::Min | Builtin::Max => ac.join(bc),
                Builtin::RoundUp => {
                    // A multiple of b's content gcd(m, |r|), while it fits.
                    let (mut x, mut y) = ((bc.m as i128).abs(), (bc.r as i128).abs());
                    while y != 0 {
                        (x, y) = (y, x % y);
                    }
                    match i64::try_from(x) {
                        Ok(m) if m >= 1 => Congruence { m, r: 0 },
                        _ => Congruence::top(),
                    }
                }
                Builtin::DivCeil | Builtin::Gcd | Builtin::Abs => Congruence::top(),
            };
            (iv_call2(*bi, ao, bo), c)
        }
        IntExpr::Ternary(c, t, f) => {
            let ((co, cc), (to, tc), (fo, fc)) = (rec(c), rec(t), rec(f));
            let c = match product_truth(&co, cc) {
                Some(true) => tc,
                Some(false) => fc,
                None => tc.join(fc),
            };
            (iv_ternary(co, to, fo), c)
        }
    };
    // The reduction: a point interval is that point, a widened one ⊤.
    let c = if o.iv.is_point() {
        Congruence::point(o.iv.lo)
    } else if o.widened {
        Congruence::top()
    } else {
        c
    };
    (o, c)
}

/// The register-form `IvProg` is outcome-identical to the recursive
/// references: its interval half to [`interval_of`] and its product half to
/// [`product_reference`], every field (`iv`, `clean`, `widened`, `m`, `r`)
/// compared, on random expressions over `i64`-extreme constants and slot
/// intervals, divisors and remainders whose interval holds 0, ternaries,
/// short-circuit `&&` / `||`, and every builtin — plus a fixed list of the
/// shapes each fast path must hand back to the reference.
#[test]
fn register_evaluator_matches_the_recursive_references() {
    use IntExpr::{Call2, Const, Slot, Ternary};
    let b = Box::new;
    let bin = |op, x, y| IntExpr::Bin(op, b(x), b(y));
    let mut exprs = vec![
        IntExpr::Neg(b(Const(i64::MIN))),
        bin(IntBinOp::Div, Const(i64::MIN), Const(-1)),
        bin(IntBinOp::Mul, Slot(0), Const(2)),
        bin(IntBinOp::Add, Const(i64::MAX), Slot(1)),
        bin(IntBinOp::Sub, Const(i64::MIN), Slot(1)),
        // A decided left operand discards the unclean right one.
        bin(IntBinOp::And, Slot(2), bin(IntBinOp::Div, Const(1), Slot(1))),
        bin(IntBinOp::Or, Const(1), bin(IntBinOp::Rem, Const(1), Slot(1))),
        Ternary(b(Const(0)), b(bin(IntBinOp::Div, Const(1), Slot(1))), b(Const(5))),
        Call2(Builtin::RoundUp, b(Slot(3)), b(Const(8))),
        Call2(Builtin::Min, b(Const(i64::MIN)), b(Slot(0))),
        Call2(Builtin::Max, b(Slot(1)), b(Const(i64::MAX))),
    ];
    let fixed = exprs.len();
    let mut rng = StdRng::seed_from_u64(0xBEA5_7009);
    exprs.extend((0..3000).map(|_| arb_int_expr(&mut rng, 4)));

    let mut scratch = IvScratch::default();
    let (mut widened, mut unclean, mut residues, mut short_circuits) = (0u32, 0u32, 0u32, 0u32);
    for (case, e) in exprs.iter().enumerate() {
        let prog = IvProg::compile(e);
        for env_case in 0..4 {
            let mut iv: Vec<Interval> = (0..4).map(|_| arb_interval(&mut rng)).collect();
            let cg: Vec<Congruence> = (0..4).map(|_| arb_cg_wide(&mut rng)).collect();
            if case < fixed && env_case == 0 {
                // The fixed shapes' intended environment: slot 1 holds 0,
                // slot 2 is the point 0, slot 3 hugs `i64::MAX`.
                let near_max = Interval { lo: i64::MAX - 3, hi: i64::MAX };
                iv = vec![Interval::TOP, Interval { lo: -2, hi: 3 }, Interval::point(0), near_max];
            }
            let want = interval_of(e, &iv);
            let at = format!("case {case}.{env_case}: {e:?} over {iv:?} × {cg:?}");
            assert_eq!(prog.eval(&iv, &mut scratch), want, "{at}: interval half");
            let product = eval_product(&prog, &iv, &cg, &mut scratch);
            assert_eq!(product, product_reference(e, &iv, &cg), "{at}: product");

            widened += u32::from(want.widened);
            unclean += u32::from(!want.clean);
            residues += u32::from(product.1.m > 1);
            if let IntExpr::Bin(IntBinOp::And | IntBinOp::Or, _, rhs) = e {
                short_circuits += u32::from(want.clean && !interval_of(rhs, &iv).clean);
            }
        }
    }
    // The case set must reach every branch the fast paths hand back.
    assert!(widened > 100 && unclean > 100, "widened {widened}, unclean {unclean}");
    assert!(residues > 100, "only {residues} residue facts");
    assert!(short_circuits > 0, "no short-circuit discarded an unclean operand");
}

/// Random predicates whose top is a comparison, or `&&` / `||` / `!` over
/// such predicates, the comparisons over arbitrary operands.
fn arb_comparison_predicate(rng: &mut StdRng, depth: usize) -> IntExpr {
    use IntBinOp::{And, Ge, Gt, Le, Lt, Or};
    if depth == 0 || rng.gen_bool(0.4) {
        let op = [Lt, Le, Gt, Ge][rng.gen_range(0usize..4)];
        return IntExpr::Bin(op, Box::new(arb_int_expr(rng, 3)), Box::new(arb_int_expr(rng, 3)));
    }
    let pick = rng.gen_range(0u32..3);
    let mut sub = || Box::new(arb_comparison_predicate(rng, depth - 1));
    match pick {
        0 => IntExpr::Bin(And, sub(), sub()),
        1 => IntExpr::Bin(Or, sub(), sub()),
        _ => IntExpr::Not(sub()),
    }
}

/// The verdicts a product value gives a check: rejects (`always_nonzero`
/// or an interval without 0) and passes (`as_point() == Some(0)` or the
/// interval `[0, 0]`), congruence half first.
fn congruence_verdicts(cg: Congruence) -> (bool, bool) {
    (cg.always_nonzero(), cg.as_point() == Some(0))
}

/// The congruence slice's premise: on a check whose predicate
/// `interval_decides`, the product's congruence half decides a verdict
/// only where its interval half decides the same one, so evaluating such a
/// check interval-only loses nothing. Over arbitrary predicates it is not
/// so — `!=`, `==` and `%` gain verdicts from congruence — and every such
/// case is one the recogniser keeps.
#[test]
fn comparison_predicates_gain_no_verdict_from_congruence() {
    let mut rng = StdRng::seed_from_u64(0x51_1CE);
    let mut scratch = IvScratch::default();
    let (mut decided, mut gained) = (0u32, 0u32);
    for case in 0..4000 {
        let comparison = case % 2 == 0;
        let e = if comparison {
            arb_comparison_predicate(&mut rng, 3)
        } else {
            arb_int_expr(&mut rng, 4)
        };
        let prog = IvProg::compile(&e);
        for _ in 0..4 {
            let iv: Vec<Interval> = (0..4).map(|_| arb_interval(&mut rng)).collect();
            let cg: Vec<Congruence> = (0..4).map(|_| arb_cg_wide(&mut rng)).collect();
            let (o, c) = eval_product(&prog, &iv, &cg, &mut scratch);
            assert_eq!(o, prog.eval(&iv, &mut scratch), "{e:?}: interval half");
            let (rejects, passes) = congruence_verdicts(c);
            let by_interval = (!o.iv.contains(0), o.iv == Interval::point(0));
            let alone = (rejects && !by_interval.0) || (passes && !by_interval.1);
            if comparison {
                assert!(interval_decides(&e), "{e:?}");
                assert!(!alone, "case {case}: {e:?} over {iv:?} × {cg:?}: {o:?}, {c:?}");
                decided += u32::from(rejects || passes);
            } else if alone {
                assert!(!interval_decides(&e), "case {case}: {e:?} over {iv:?} × {cg:?}");
                gained += 1;
            }
        }
    }
    assert!(decided > 1500 && gained > 200, "{decided} decided comparisons, {gained} gains");
}

/// Leaves of the point-program identity test: the `i64` extremes, the two
/// divisors that fault (`0`, and `-1` under `i64::MIN`), and small values.
const POINT_LEAVES: [i64; 9] = [i64::MIN, i64::MIN + 2, -7, -1, 0, 1, 3, i64::MAX - 1, i64::MAX];

/// Random lowered expressions over four slots: every `IntBinOp`, every
/// builtin, the unary operators and the ternary, over [`POINT_LEAVES`].
fn arb_point_expr(rng: &mut StdRng, depth: usize) -> IntExpr {
    if depth == 0 || rng.gen_bool(0.2) {
        return if rng.gen_bool(0.4) {
            IntExpr::Const(POINT_LEAVES[rng.gen_range(0..POINT_LEAVES.len())])
        } else {
            IntExpr::Slot(rng.gen_range(0u32..4))
        };
    }
    use Builtin::{DivCeil, Gcd, Max, Min, RoundUp};
    use IntBinOp::*;
    const OPS: [IntBinOp; 14] =
        [Add, Sub, Mul, Div, FloorDiv, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or];
    const BUILTINS: [Builtin; 5] = [Min, Max, DivCeil, Gcd, RoundUp];
    let pick = rng.gen_range(0usize..23);
    let mut sub = || Box::new(arb_point_expr(rng, depth - 1));
    match pick {
        0..=13 => IntExpr::Bin(OPS[pick], sub(), sub()),
        14 => IntExpr::Neg(sub()),
        15 => IntExpr::Not(sub()),
        16 => IntExpr::Abs(sub()),
        17 => IntExpr::Ternary(sub(), sub(), sub()),
        _ => IntExpr::Call2(BUILTINS[pick - 18], sub(), sub()),
    }
}

/// A right spine 24 operators deep whose left operands are computed, so
/// every level holds a register while the rest of the spine runs: more
/// registers than the local array, so the heap evaluator runs.
fn deep_point_expr(rng: &mut StdRng) -> IntExpr {
    use IntBinOp::*;
    const SPINE: [IntBinOp; 8] = [Add, Sub, Mul, Lt, Ne, And, Or, Rem];
    let mut e = arb_point_expr(rng, 2);
    for _ in 0..24 {
        let left = loop {
            let l = arb_point_expr(rng, 2);
            if !matches!(l, IntExpr::Const(_) | IntExpr::Slot(_)) {
                break Box::new(l);
            }
        };
        e = match rng.gen_range(0u32..10) {
            0 => IntExpr::Call2(Builtin::Max, left, Box::new(e)),
            1 => IntExpr::Ternary(left, Box::new(arb_point_expr(rng, 1)), Box::new(e)),
            k => IntExpr::Bin(SPINE[k as usize - 2], left, Box::new(e)),
        };
    }
    e
}

/// Is some slot-free subtree of `e` an evaluation that fails — the kind the
/// constant folder must leave in the program?
fn holds_failing_constant(e: &IntExpr) -> bool {
    let mut reads = false;
    e.for_each_slot(&mut |_| reads = true);
    if !reads && e.eval(&[]).is_err() {
        return true;
    }
    match e {
        IntExpr::Const(_) | IntExpr::Slot(_) => false,
        IntExpr::Neg(a) | IntExpr::Not(a) | IntExpr::Abs(a) => holds_failing_constant(a),
        IntExpr::Bin(_, a, b) | IntExpr::Call2(_, a, b) => {
            holds_failing_constant(a) || holds_failing_constant(b)
        }
        IntExpr::Ternary(c, t, f) => {
            holds_failing_constant(c) || holds_failing_constant(t) || holds_failing_constant(f)
        }
    }
}

/// Does `e`'s root short-circuit past an operand that would have failed?
fn skips_a_failing_operand(e: &IntExpr, slots: &[i64]) -> bool {
    let fails = |x: &IntExpr| x.eval(slots).is_err();
    match e {
        IntExpr::Bin(IntBinOp::And, a, b) => a.eval(slots) == Ok(0) && fails(b),
        IntExpr::Bin(IntBinOp::Or, a, b) => matches!(a.eval(slots), Ok(v) if v != 0) && fails(b),
        IntExpr::Ternary(c, t, f) => match c.eval(slots) {
            Ok(0) => fails(t),
            Ok(_) => fails(f),
            Err(_) => false,
        },
        _ => false,
    }
}

/// The register-form point program is outcome-identical to the recursive
/// reference: `PointProg::eval` returns exactly what `IntExpr::eval` does,
/// error variant included, on random trees over every operator and
/// builtin, `i64::MIN` / `MAX` constants and slots, zero and `-1` divisors
/// — under `&&` / `||` / ternaries whose dead operand would fault, and in
/// constant subtrees the folder must keep — and on spines deep enough to
/// run the heap evaluator.
#[test]
fn point_programs_match_the_tree_evaluator() {
    let mut rng = StdRng::seed_from_u64(0xBEA5_700B);
    let mut exprs: Vec<IntExpr> = (0..4000).map(|_| arb_point_expr(&mut rng, 5)).collect();
    exprs.extend((0..300).map(|_| deep_point_expr(&mut rng)));

    let (mut div0, mut overflow, mut dead, mut kept, mut heap, mut heap_ok) = (0, 0, 0, 0, 0, 0);
    for (case, e) in exprs.iter().enumerate() {
        let prog = PointProg::compile(e);
        let deep = prog.regs() as usize > beast_core::pointprog::LOCAL_REGS;
        kept += u32::from(holds_failing_constant(e));
        for _ in 0..6 {
            let slots: Vec<i64> = (0..4)
                .map(|_| match rng.gen_range(0u32..3) {
                    0 => POINT_LEAVES[rng.gen_range(0..POINT_LEAVES.len())],
                    _ => rng.gen_range(-9i64..10),
                })
                .collect();
            let want = e.eval(&slots);
            assert_eq!(prog.eval(&slots), want, "case {case}: {e} at {slots:?}");
            div0 += u32::from(want == Err(beast_core::error::EvalError::DivisionByZero));
            overflow += u32::from(want == Err(beast_core::error::EvalError::Overflow));
            dead += u32::from(want.is_ok() && skips_a_failing_operand(e, &slots));
            heap += u32::from(deep);
            heap_ok += u32::from(deep && want.is_ok());
        }
    }
    // The case set must reach every corner the evaluators could part on.
    assert!(div0 > 100 && overflow > 10, "{div0} zero divisors, {overflow} overflows");
    assert!(dead > 100, "only {dead} short-circuits past a failing operand");
    assert!(kept > 100, "only {kept} trees hold a failing constant subtree");
    assert!(heap > 100 && heap_ok > 10, "{heap} heap evaluations, {heap_ok} of them Ok");
}

/// One randomly generated level run over 4 bound slots: expression defines
/// writing slots 4.., each reading the slots written before it, and checks
/// between them, `%` / `/` / `//` by zero and `i64::MIN // -1` reachable
/// through the leaves, spines deep enough to overflow `LOCAL_REGS`.
fn arb_run(rng: &mut StdRng) -> Vec<LStep> {
    // Re-point a generated expression's slot reads at the `avail` slots
    // written so far.
    fn within(e: IntExpr, avail: u32) -> IntExpr {
        let b = |x: Box<IntExpr>| Box::new(within(*x, avail));
        match e {
            IntExpr::Slot(s) => IntExpr::Slot(s % avail),
            IntExpr::Const(c) => IntExpr::Const(c),
            IntExpr::Neg(a) => IntExpr::Neg(b(a)),
            IntExpr::Not(a) => IntExpr::Not(b(a)),
            IntExpr::Abs(a) => IntExpr::Abs(b(a)),
            IntExpr::Bin(op, x, y) => IntExpr::Bin(op, b(x), b(y)),
            IntExpr::Call2(f, x, y) => IntExpr::Call2(f, b(x), b(y)),
            IntExpr::Ternary(c, t, f) => IntExpr::Ternary(b(c), b(t), b(f)),
        }
    }
    let bind = LStep::Bind { iter: 0, slot: 0, depth: 0, domain: LIter::Values(vec![0]) };
    let mut steps = vec![bind];
    let (mut slot, mut constraint) = (4u32, 0usize);
    for _ in 0..rng.gen_range(1..9) {
        let e = match rng.gen_range(0u32..12) {
            0 => deep_point_expr(rng),
            _ => arb_point_expr(rng, 4),
        };
        let e = within(e, slot);
        if rng.gen_bool(0.5) {
            steps.push(LStep::Define { derived: 0, slot, body: LBody::Expr(e) });
            slot += 1;
        } else {
            steps.push(LStep::Check { constraint, body: LBody::Expr(e) });
            constraint += 1;
        }
    }
    steps.push(LStep::Visit);
    steps
}

/// A level's run program is outcome-identical to evaluating its steps one
/// by one with `IntExpr::eval`: the same slot writes, the same exit (the
/// first rejecting check), the same error kind at the same step — with the
/// defines before it written and nothing after — on generated runs whose
/// `&&` / `||` / ternaries skip faulting operands and whose deep spines
/// need more registers than `LOCAL_REGS`. Checks whose skip bit the mask
/// sets pass unevaluated.
#[test]
fn run_programs_match_step_by_step_evaluation() {
    use beast_core::pointprog::{RunExit, RunProgs, RunSpec};
    let space = Space::builder("runs").range("x", 0, 1).build().unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let mut lp = LoweredPlan::new(&plan).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0042);
    let (mut rejects, mut faults, mut mid_faults, mut passes) = (0, 0, 0, 0);
    let (mut deep, mut skipped, mut overflows) = (0, 0, 0);
    for case in 0..3000 {
        lp.steps = arb_run(&mut rng);
        let defines = lp.steps.iter().filter(|s| matches!(s, LStep::Define { .. })).count();
        lp.n_slots = 4 + defines as u32;
        lp.slot_names = (0..lp.n_slots).map(|s| Arc::from(format!("v{s}"))).collect();
        let bit = |i: usize| match &lp.steps[i] {
            LStep::Check { constraint, .. } => Some(*constraint as u32 % 4),
            _ => None,
        };
        let spec = RunSpec { checks: true, cuts: &[], skip_bit: &bit, derive: false };
        let runs = RunProgs::new(&lp, spec);
        let run = runs.at(1).expect("a run opens after the bind");
        assert_eq!(run.end(), lp.steps.len() - 1, "case {case}");
        deep += u32::from(lp.steps.iter().any(|s| match s {
            LStep::Define { body: LBody::Expr(e), .. }
            | LStep::Check { body: LBody::Expr(e), .. } => {
                PointProg::compile(e).regs() as usize > beast_core::pointprog::LOCAL_REGS
            }
            _ => false,
        }));
        for _ in 0..4 {
            let skip: u64 = if rng.gen_bool(0.3) { rng.gen_range(0..16) } else { 0 };
            let mut slots: Vec<i64> = (0..lp.n_slots)
                .map(|_| match rng.gen_range(0u32..3) {
                    0 => POINT_LEAVES[rng.gen_range(0..POINT_LEAVES.len())],
                    _ => rng.gen_range(-9i64..10),
                })
                .collect();
            let mut file = runs.file();
            file[..slots.len()].copy_from_slice(&slots);
            // The reference: one step at a time.
            let mut want = Ok(RunExit::Pass);
            for (k, step) in lp.steps[1..lp.steps.len() - 1].iter().enumerate() {
                let (k, i) = (k as u32, k + 1);
                match step {
                    LStep::Define { slot, body: LBody::Expr(e), .. } => match e.eval(&slots) {
                        Ok(v) => slots[*slot as usize] = v,
                        Err(e) => {
                            want = Err((k, e));
                            break;
                        }
                    },
                    LStep::Check { body: LBody::Expr(e), .. } => {
                        if bit(i).is_some_and(|b| skip >> b & 1 != 0) {
                            skipped += 1;
                            continue;
                        }
                        match e.eval(&slots) {
                            Ok(0) => {}
                            Ok(_) => {
                                want = Ok(RunExit::Reject(k));
                                break;
                            }
                            Err(e) => {
                                want = Err((k, e));
                                break;
                            }
                        }
                    }
                    other => unreachable!("{other:?}"),
                }
            }
            let got = run.run(&mut file, skip).map_err(|f| (f.step, f.error));
            assert_eq!(got, want, "case {case}: {:?}", lp.steps);
            assert_eq!(&file[..slots.len()], &slots[..], "case {case}: slot writes");
            match want {
                Ok(RunExit::Pass) => passes += 1,
                Ok(RunExit::Reject(_)) => rejects += 1,
                Err((k, e)) => {
                    faults += 1;
                    mid_faults += u32::from(k > 0);
                    overflows += u32::from(e == beast_core::error::EvalError::Overflow);
                }
            }
        }
    }
    assert!(passes > 500 && rejects > 500, "{passes} passes, {rejects} rejections");
    assert!(overflows > 10, "only {overflows} overflows");
    assert!(faults > 500 && mid_faults > 200, "{faults} faults, {mid_faults} past step 0");
    assert!(deep > 50 && skipped > 100, "{deep} deep runs, {skipped} skipped checks");
}

/// `i64::MIN // -1` (and `div_ceil` / `round_up` reaching it) is an
/// `Overflow` error in every evaluator — the walker, the VM, the compiled
/// engine, the counter and both samplers — never a panic: a skip-point
/// sweep records it as an `Error` fault and keeps the other points.
#[test]
fn floor_division_overflow_is_an_error_in_every_evaluator() {
    use beast::search::{DirectSampler, Sampler};
    use beast_core::analyze::count::Counter;
    use beast_core::error::EvalError;
    use beast_engine::fault::{FaultKind, FaultPolicy};
    use beast_engine::parallel::{run_parallel_report, ParallelOptions};

    let call = |f, x: E, y: E| E(Expr::Call(f, vec![x.0, y.0]));
    for (name, q) in [
        ("floor_div", var("a").floor_div(var("b"))),
        ("div_ceil", call(Builtin::DivCeil, var("a") + 2, var("b"))),
        ("round_up", call(Builtin::RoundUp, var("a") + 2, var("b"))),
    ] {
        let space = Space::builder("floor_overflow")
            .list("a", [i64::MIN, 7])
            .list("b", [-1i64, 2])
            .derived("q", q)
            .build()
            .unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        fn root<T>(r: Result<T, EvalError>) -> Result<(), EvalError> {
            r.map(|_| ()).map_err(|e| e.root().clone())
        }
        let overflow = Err(EvalError::Overflow);

        let walker = Walker::new(&plan, LoopStyle::default());
        assert_eq!(root(walker.run(CountVisitor::default())), overflow, "{name}: walker");
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        assert_eq!(root(vm.run(CountVisitor::default())), overflow, "{name}: VM");
        let compiled = Compiled::new(lp.clone());
        assert_eq!(root(compiled.run(CountVisitor::default())), overflow, "{name}: compiled");
        assert_eq!(root(Counter::new(&lp).total()), overflow, "{name}: counter");
        let direct = DirectSampler::new(&lp, StdRng::seed_from_u64(1));
        assert_eq!(root(direct), overflow, "{name}: direct sampler");
        let mut rejection = Sampler::new(&lp, StdRng::seed_from_u64(1));
        assert_eq!(
            root(rejection.evaluate_assignment(&[(0, i64::MIN), (1, -1)])),
            overflow,
            "{name}: rejection sampler"
        );

        let opts = ParallelOptions {
            threads: 2,
            chunk_count: 2,
            fault_policy: FaultPolicy::SkipPoint,
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
        assert_eq!(out.visitor.count, 3, "{name}: the three other points survive");
        assert_eq!(report.faults.len(), 1, "{name}: {:?}", report.faults);
        assert_eq!(report.faults[0].kind, FaultKind::Error, "{name}");
        assert_eq!(report.faults[0].error, EvalError::Overflow.to_string(), "{name}");
    }
}

/// A randomly generated loop nest for the abstract programs: two to five
/// binds (ranges whose bounds read earlier slots, static lists, opaque
/// iterators), each followed by expression defines and checks over the
/// slots written so far — every operator, `i64`-extreme constants, `/`,
/// `//` and `%` by a possibly-zero divisor — and opaque defines and
/// checks, then the visit. Returns the steps and the bind positions.
fn arb_nest(rng: &mut StdRng) -> (Vec<LStep>, Vec<usize>) {
    fn within(e: IntExpr, avail: u32) -> IntExpr {
        let b = |x: Box<IntExpr>| Box::new(within(*x, avail));
        match e {
            IntExpr::Slot(s) => IntExpr::Slot(s % avail),
            IntExpr::Const(c) => IntExpr::Const(c),
            IntExpr::Neg(a) => IntExpr::Neg(b(a)),
            IntExpr::Not(a) => IntExpr::Not(b(a)),
            IntExpr::Abs(a) => IntExpr::Abs(b(a)),
            IntExpr::Bin(op, x, y) => IntExpr::Bin(op, b(x), b(y)),
            IntExpr::Call2(f, x, y) => IntExpr::Call2(f, b(x), b(y)),
            IntExpr::Ternary(c, t, f) => IntExpr::Ternary(b(c), b(t), b(f)),
        }
    }
    // Mostly small constants, so intervals stay narrow enough to decide.
    fn small(rng: &mut StdRng, depth: usize) -> IntExpr {
        let e = arb_point_expr(rng, depth);
        fn shrink(e: IntExpr, rng: &mut StdRng) -> IntExpr {
            if matches!(e, IntExpr::Const(_)) && rng.gen_bool(0.8) {
                return IntExpr::Const(rng.gen_range(-4..9));
            }
            let mut b = |x: Box<IntExpr>| Box::new(shrink(*x, rng));
            match e {
                IntExpr::Neg(a) => IntExpr::Neg(b(a)),
                IntExpr::Not(a) => IntExpr::Not(b(a)),
                IntExpr::Abs(a) => IntExpr::Abs(b(a)),
                IntExpr::Bin(op, x, y) => {
                    let x = b(x);
                    IntExpr::Bin(op, x, b(y))
                }
                IntExpr::Call2(f, x, y) => {
                    let x = b(x);
                    IntExpr::Call2(f, x, b(y))
                }
                IntExpr::Ternary(c, t, f) => {
                    let (c, t) = (b(c), b(t));
                    IntExpr::Ternary(c, t, b(f))
                }
                other => other,
            }
        }
        shrink(e, rng)
    }
    let (mut steps, mut binds) = (Vec::new(), Vec::new());
    let (mut slot, mut constraint) = (0u32, 0usize);
    for depth in 0..rng.gen_range(2..6) {
        let domain = match rng.gen_range(0u32..8) {
            _ if slot == 0 => LIter::Range {
                start: IntExpr::Const(rng.gen_range(-3..3)),
                stop: IntExpr::Const(rng.gen_range(4..12)),
                step: IntExpr::Const(rng.gen_range(1..4)),
            },
            0 => LIter::Values((0..rng.gen_range(1..5)).map(|_| rng.gen_range(-6..20)).collect()),
            1 => LIter::Opaque { iter: 0 },
            2 => LIter::Range {
                start: within(small(rng, 2), slot),
                stop: within(small(rng, 2), slot),
                step: within(small(rng, 1), slot),
            },
            _ => LIter::Range {
                start: within(small(rng, 1), slot),
                stop: IntExpr::Const(rng.gen_range(8..40)),
                step: IntExpr::Const([1, 2, 3, 4, 6, -1][rng.gen_range(0..6)]),
            },
        };
        binds.push(steps.len());
        steps.push(LStep::Bind { iter: 0, slot, depth, domain });
        slot += 1;
        for _ in 0..rng.gen_range(0..5) {
            let e = within(small(rng, 3), slot);
            match rng.gen_range(0u32..12) {
                0 => {
                    steps.push(LStep::Define { derived: 0, slot, body: LBody::Opaque });
                    slot += 1;
                }
                1 => {
                    steps.push(LStep::Check { constraint, body: LBody::Opaque });
                    constraint += 1;
                }
                2..=5 => {
                    steps.push(LStep::Define { derived: 0, slot, body: LBody::Expr(e) });
                    slot += 1;
                }
                _ => {
                    steps.push(LStep::Check { constraint, body: LBody::Expr(e) });
                    constraint += 1;
                }
            }
        }
    }
    steps.push(LStep::Visit);
    (steps, binds)
}

/// The abstract programs decide exactly what walking their window one step
/// at a time with `AbsSteps::eval` does — skip, `by_congruence` and elision
/// mask, the `clean` chain included (a rejecting check after a step that
/// may fail must not skip) — on generated nests, with and without the
/// congruence half:
///
/// * a chain of nested windows, one below every loop but the outermost,
///   each evaluating only its dirty steps and reading the rest from its
///   parent's last completed run, driven like the engine's guards (a
///   window runs only after its parent passed; between runs only its own
///   seeds change);
/// * one window per level run without a parent, seeded with every slot it
///   reads from outside, as the counter's pre-pass runs them.
#[test]
fn abstract_programs_match_step_by_step_evaluation() {
    use beast_core::analyze::{AbsEnv, AbsProgs, AbsSteps, BindHull, Verdict, Window};
    let space = Space::builder("nests").range("x", 0, 1).build().unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let mut lp = LoweredPlan::new(&plan).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0043);
    let leaf = |rng: &mut StdRng| match rng.gen_range(0u32..6) {
        0 => POINT_LEAVES[rng.gen_range(0..POINT_LEAVES.len())],
        _ => rng.gen_range(-6i64..24),
    };
    let dom = |rng: &mut StdRng| {
        let (a, b) = (leaf(rng), leaf(rng));
        let iv = Interval::new(a, b);
        let cg = match rng.gen_range(0u32..3) {
            0 => Congruence::top(),
            1 => cg_of_bind(Congruence::point(iv.lo), Congruence::point(rng.gen_range(1..7))),
            _ => cg_of_values(&[a, b, iv.lo.wrapping_add(rng.gen_range(0..9))]),
        };
        (iv, cg)
    };
    let (mut runs, mut skips, mut cg_skips, mut elides, mut blocked) = (0u32, 0, 0, 0, 0);
    for case in 0..1500 {
        let (steps, binds) = arb_nest(&mut rng);
        lp.n_slots = steps.iter().filter_map(LStep::written_slot).max().unwrap() + 1;
        lp.slot_names = (0..lp.n_slots).map(|s| Arc::from(format!("v{s}"))).collect();
        lp.steps = steps;
        let abs = AbsSteps::new(&lp);
        let n = lp.steps.len();
        let slot_of = |pos: usize| lp.steps[pos].written_slot().unwrap();
        let written = |r: std::ops::Range<usize>| -> Vec<u32> {
            lp.steps[r].iter().filter_map(LStep::written_slot).collect()
        };
        // The engine's chain: a window below every loop but the outermost.
        let mut windows = Vec::new();
        for (l, &pos) in binds.iter().enumerate().skip(1) {
            let (slot, seed) = (slot_of(pos), written(if l == 1 { 0 } else { binds[l - 1] }..pos));
            let dirty = abs.dirty(pos + 1, seed.iter().copied().chain([slot]));
            let parent = (l > 1).then(|| l - 2);
            windows.push(Window { start: pos + 1, end: n, slot, seed, dirty, parent });
        }
        let chain = windows.len();
        // The counter's windows: each level's run, seeded from outside.
        for (l, &pos) in binds.iter().enumerate() {
            let end = binds.get(l + 1).copied().unwrap_or(n - 1);
            let inside = written(pos + 1..end);
            let mut seed: Vec<u32> = (pos + 1..end)
                .flat_map(|i| abs.reads(i).collect::<Vec<_>>())
                .filter(|s| *s != slot_of(pos) && !inside.contains(s))
                .collect();
            seed.sort_unstable();
            seed.dedup();
            let slot = slot_of(pos);
            let dirty = abs.dirty(pos + 1, seed.iter().copied().chain([slot]));
            windows.push(Window { start: pos + 1, end, slot, seed, dirty, parent: None });
        }
        for cg in [true, false] {
            let progs = AbsProgs::new(&lp, &abs, cg, &windows);
            let mut file = progs.file();
            let mut slots: Vec<i64> = (0..lp.n_slots).map(|_| leaf(&mut rng)).collect();
            // Whether each chain window's last run passed, with its parent's
            // inputs unchanged since.
            let mut passed = vec![false; chain];
            let mut check = |w: usize, slots: &[i64], rng: &mut StdRng, file: &mut _| {
                let win = &windows[w];
                let (iv, dom_cg) = dom(rng);
                let got = progs.run(w, file, slots, iv, dom_cg);
                // The reference: every step of the window, one at a time.
                let mut env = AbsEnv::top(lp.n_slots as usize);
                env.set_points(slots);
                env.iv[win.slot as usize] = iv;
                env.cg[win.slot as usize] = dom_cg;
                let (mut clean, mut elide, mut want) = (true, 0u64, None);
                for i in win.start..win.end {
                    let product = cg && abs.slice()[i];
                    let fact = abs.eval(i, &mut env, product, BindHull::Bounds);
                    if fact.rejects_all && clean {
                        want = Some(Verdict::Skip { by_congruence: fact.out.iv.contains(0) });
                        break;
                    }
                    blocked += u32::from(fact.rejects_all);
                    if let (true, LStep::Check { constraint, .. }) = (fact.passes_all, &lp.steps[i])
                    {
                        elide |= 1 << constraint;
                    }
                    clean &= fact.out.clean;
                    env.write(&fact, product);
                }
                let want = want.unwrap_or(Verdict::Elide(elide));
                assert_eq!(got, want, "case {case}, window {w}, cg {cg}: {:?}", lp.steps);
                runs += 1;
                match got {
                    Verdict::Skip { by_congruence } => {
                        skips += 1;
                        cg_skips += u32::from(by_congruence);
                    }
                    Verdict::Elide(mask) => elides += u32::from(mask != 0),
                }
                matches!(got, Verdict::Elide(_))
            };
            for _ in 0..8 {
                // Re-enter at a window whose parent passed, with new values
                // for the slots its seeds cover, then run down the chain.
                let from = (0..chain).filter(|&w| w == 0 || passed[w - 1]);
                let from: Vec<usize> = from.collect();
                let Some(&w0) = from.get(rng.gen_range(0..from.len().max(1))) else { break };
                for w in w0..chain {
                    let begin = if w == 0 { 0 } else { binds[w] };
                    for s in written(begin..binds[w + 1]) {
                        slots[s as usize] = leaf(&mut rng);
                    }
                    passed[w] = check(w, &slots, &mut rng, &mut file);
                    passed[w + 1..].fill(false);
                    if !passed[w] {
                        break;
                    }
                }
            }
            for w in chain..windows.len() {
                for s in &mut slots {
                    *s = leaf(&mut rng);
                }
                check(w, &slots, &mut rng, &mut file);
            }
        }
    }
    assert!(runs > 20_000 && skips > 2_000, "{runs} runs, {skips} skips");
    assert!(cg_skips > 200 && elides > 2_000, "{cg_skips} congruence skips, {elides} elisions");
    assert!(blocked > 500, "only {blocked} rejecting checks after a step that may fail");
}
