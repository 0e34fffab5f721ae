//! Property test for the constraint scheduler's core safety claim: within a
//! reorder-safe region ([`beast_core::schedule::check_regions`]), *any*
//! permutation of the checks — with each check's define closure hoisted
//! ahead of it — preserves the survivor set AND the emission order, at
//! every thread count.
//!
//! Random permutations are applied directly to the lowered plan via
//! [`apply_order`] — the same mechanism the adaptive schedule uses to
//! freeze its learned order — so this exercises exactly the transformation
//! the scheduler is allowed to make, plus arbitrarily bad orders
//! calibration would never pick. The adaptive engine mode is then checked
//! against the same baseline: whatever order it chose, results must be
//! bit-for-bit the declared ones.

use std::sync::Arc;

use beast::prelude::*;
use beast_core::analyze::AbsSteps;
use beast_core::ir::LoweredPlan;
use beast_core::schedule::{apply_order, check_regions, ScheduleMode};
use beast_engine::compiled::EngineOptions;
use beast_engine::parallel::{run_parallel_report, ParallelOptions};
use beast_gemm::{build_gemm_space, GemmSpaceParams};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const TRIALS: usize = 4;

fn lower(space: &Arc<Space>) -> LoweredPlan {
    let plan = Plan::new(space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

/// Three spaces with reorder-safe groups: a flat conjunction, a skewed nest
/// with mixed-level checks, and the paper's GEMM space (whose groups include
/// the interval-proven `cant_reshape` pairs).
fn all_spaces() -> Vec<(&'static str, Arc<Space>)> {
    let flat = Space::builder("perm_flat")
        .constant("cap", 30)
        .range("a", 1, 13)
        .range("b", 1, 13)
        .derived("ab", var("a") * var("b"))
        .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
        .constraint("odd", ConstraintClass::Soft, (var("ab") % 2).ne(0))
        .constraint("sum_low", ConstraintClass::Soft, (var("a") + var("b")).lt(5))
        .build()
        .unwrap();
    let skewed = Space::builder("perm_skewed")
        .range("outer", 1, 20)
        .range_step("mid", var("outer"), 60, var("outer"))
        .range("inner", 0, var("mid"))
        .derived("w", var("mid") + var("inner"))
        .constraint("odd_w", ConstraintClass::Soft, (var("w") % 2).ne(0))
        .constraint("big_w", ConstraintClass::Hard, var("w").gt(40))
        .constraint("div_mid", ConstraintClass::Soft, (var("w") % var("mid")).eq(0))
        .build()
        .unwrap();
    let gemm = build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap();
    vec![("flat", flat), ("skewed", skewed), ("gemm", gemm)]
}

fn shuffle(rng: &mut StdRng, items: &mut [usize]) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn collect(lp: &LoweredPlan) -> Vec<Point> {
    let c = Compiled::new(lp.clone());
    let names = c.point_names().clone();
    c.run(CollectVisitor::new(names, usize::MAX)).unwrap().visitor.points
}

/// Random group permutations preserve survivors and emission order, serial
/// and parallel.
#[test]
fn random_check_permutations_preserve_survivors_and_order() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let regions = check_regions(&lp, &AbsSteps::new(&lp));
        assert!(
            !regions.is_empty(),
            "{name}: test space has no reorder-safe region — nothing exercised"
        );
        let baseline = collect(&lp);
        assert!(!baseline.is_empty(), "{name}: degenerate test space");
        for trial in 0..TRIALS {
            let mut shuffled = lp.clone();
            for region in &regions {
                let mut order = region.checks.clone();
                shuffle(&mut rng, &mut order);
                apply_order(&mut shuffled, region, &order);
            }
            let permuted = collect(&shuffled);
            assert_eq!(
                permuted.len(),
                baseline.len(),
                "{name} trial {trial}: permutation changed the survivor count"
            );
            assert_eq!(
                permuted, baseline,
                "{name} trial {trial}: permutation changed survivors or their order"
            );
            for threads in THREAD_COUNTS {
                let names = Compiled::new(shuffled.clone()).point_names().clone();
                let opts = ParallelOptions::new(threads);
                let (par, _) = run_parallel_report(&shuffled, &opts, || {
                    CollectVisitor::new(names.clone(), usize::MAX)
                })
                .unwrap();
                assert_eq!(
                    par.visitor.points, baseline,
                    "{name} trial {trial}: permuted plan diverged at {threads} threads"
                );
            }
        }
    }
}

/// The engine's own scheduling modes (declared, and the adaptive order
/// learned at engine-build time) stay on the declared baseline too, with
/// intervals on and off.
#[test]
fn engine_schedule_modes_match_declared_baseline() {
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let baseline = collect(&lp);
        for mode in [ScheduleMode::Declared, ScheduleMode::Adaptive] {
            for intervals in [true, false] {
                let mut engine = if intervals {
                    EngineOptions::default()
                } else {
                    EngineOptions::no_intervals()
                };
                engine.schedule = mode;
                let c = Compiled::with_options(lp.clone(), engine);
                let names = c.point_names().clone();
                let out = c.run(CollectVisitor::new(names.clone(), usize::MAX)).unwrap();
                assert_eq!(
                    out.visitor.points, baseline,
                    "{name}: {mode} (intervals={intervals}) diverged from declared"
                );
                for threads in THREAD_COUNTS {
                    let opts =
                        ParallelOptions { threads, engine, ..ParallelOptions::default() };
                    let (par, _) = run_parallel_report(&lp, &opts, || {
                        CollectVisitor::new(names.clone(), usize::MAX)
                    })
                    .unwrap();
                    assert_eq!(
                        par.visitor.points, baseline,
                        "{name}: {mode} (intervals={intervals}) diverged at {threads} threads"
                    );
                }
            }
        }
    }
}
