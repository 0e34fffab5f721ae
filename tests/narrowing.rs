//! Loop-narrowing equivalence suite.
//!
//! The compiled engine *solves* a loop whose body opens with a
//! reject-unless-equal check affine in the loop variable
//! (`beast_core::analyze::narrow`, `beast_engine`'s `narrow` module) instead
//! of enumerating it. Nothing observable may change: survivors, emission
//! order and per-constraint [`PruneStats`] must equal the enumerating
//! backends', and every counter — the new `loops_solved` / `points_solved`
//! included — must be invariant across thread and chunk grids.
//!
//! Two oracles. The bytecode VM executes the same lowered (wrapping) IR and
//! never narrows, so it is the reference on every generated space. The
//! walker evaluates the declarative expressions with *checked* arithmetic,
//! so it is the reference wherever it does not overflow — which excludes
//! exactly the `i64`-extreme coefficients the solver has to decline.

use std::sync::Arc;

use beast::prelude::*;

/// Seeded generator (the vendored `rand` shim would do; a local LCG keeps
/// the seeds stable across shim changes).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }
    fn of<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

/// What the generator built, for per-variant assertions.
struct Generated {
    space: Arc<Space>,
    /// The equality check cannot narrow by construction (list domain, or
    /// the check reads `x` only through a derived variable).
    must_enumerate: bool,
}

/// One random space around a solvable first check:
///
/// ```text
/// o in 1..=o_len
///   x in range_step(start [+ o], stop [+ o], step)   | list(...)
///     check  <shape>(A, x, C) != B        B aimed at first/last/mid/off-stride/outside
///     [check (x + o) % 3 == 0]
///     d = 3x + o
///     y in 0 .. 1 + |x| % 2
///       [check (d + y) % 3 == 0]
/// ```
fn generate(seed: u64) -> Generated {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5);
    let o = || var("o");
    let x = || var("x");

    let o_len = 1 + rng.below(3) as i64;
    let start = rng.of(&[-9i64, -2, -1, 0, 1, 3]);
    let step = rng.of(&[1i64, 1, 1, 2, 3, -1, -2, -4]);
    let len = rng.below(12) as i64; // 0 ⇒ empty range
    let dependent = rng.below(3) == 0;
    let as_list = rng.below(8) == 0;
    // Any stop strictly inside the last stride realizes the same values.
    let slack = if len > 0 { rng.below(step.unsigned_abs() as usize) as i64 } else { 0 };
    let stop = start + step * len - step.signum() * slack;
    let shift = |k: i64| if dependent && !as_list { lit(k) + o() } else { lit(k) };

    // Coefficient and addend pools: small, zero, negative, run-time zero
    // (`o - 2`), and wrap-provoking.
    let a = rng.of(&[
        lit(1),
        lit(2),
        lit(3),
        lit(-1),
        lit(-3),
        lit(7),
        lit(0),
        o(),
        o() - 2,
        lit(i64::MAX),
        lit(i64::MIN),
        lit(1i64 << 62),
        o() * lit(1i64 << 61),
    ]);
    let c = rng.of(&[lit(0), lit(5), lit(-11), o(), lit(i64::MAX)]);

    // Aim the right-hand side at a chosen loop value.
    let strides = match rng.below(7) {
        0 => 0,                           // first
        1 => len - 1,                     // last
        2 => rng.below(len.max(1) as usize) as i64, // somewhere inside
        3 => -1,                          // one before the first
        4 => len,                         // one past the last
        5 => 1000,                        // far outside
        _ => rng.below(len.max(1) as usize) as i64,
    };
    let off_stride = i64::from(step.abs() > 1 && rng.below(5) == 0);
    let t = shift(start + step * strides + off_stride);

    let shape = rng.below(9);
    let mut b = Space::builder(&format!("narrow_{seed}")).range("o", 1, 1 + o_len);
    b = if as_list {
        b.list("x", (0..len).map(|i| start + step * i))
    } else {
        b.range_step("x", shift(start), shift(stop), step)
    };
    let first = match shape {
        0 => (a.clone() * x()).ne(a * t),
        1 => (x() * a.clone()).ne(a * t),
        2 => x().ne(t),
        3 => (x() + c.clone()).ne(t + c),
        4 => (a.clone() * x() + c.clone()).ne(a * t + c),
        5 => (a.clone() * x() + c.clone()).eq(a * t + c).not(),
        6 => (a.clone() * t + c.clone()).ne(c + x() * a),
        7 => (x() - c.clone()).ne(t - c),
        _ => {
            // The check reads x only through a define, which therefore
            // precedes it in the body: must enumerate.
            b = b.derived("xx", x() + 1);
            (var("xx") * a.clone()).ne(a * (t + 1))
        }
    };
    b = b.constraint("first", ConstraintClass::Correctness, first);
    if rng.below(2) == 0 {
        b = b.constraint("mod3", ConstraintClass::Soft, ((x() + o()) % 3).eq(0));
    }
    b = b
        .derived("d", x() * 3 + o())
        .range("y", 0, lit(1) + (x() % 2 + 2) % 2 + 1);
    if rng.below(2) == 0 {
        b = b.constraint("dy", ConstraintClass::Soft, ((var("d") + var("y")) % 3).eq(0));
    }
    Generated { space: b.build().unwrap(), must_enumerate: as_list || shape == 8 }
}

fn ints(points: &[Point]) -> Vec<Vec<i64>> {
    points
        .iter()
        .map(|p| p.values().iter().map(|v| v.as_int().unwrap()).collect())
        .collect()
}

fn compiled_points(
    lp: &LoweredPlan,
    opts: EngineOptions,
) -> (SweepOutcome<CollectVisitor>, Vec<Vec<i64>>) {
    let compiled = Compiled::with_options(lp.clone(), opts);
    let out = compiled
        .run(CollectVisitor::new(compiled.point_names().clone(), usize::MAX))
        .unwrap();
    let points = ints(&out.visitor.points);
    (out, points)
}

const SEEDS: u64 = 240;

/// (a) Narrowed `Compiled` equals the enumerating oracles in points, order
/// and `PruneStats`; with default options it equals itself on every
/// thread × chunk grid, counters included; and `--no-batch` changes
/// nothing but the lane counters.
#[test]
fn narrowed_loops_match_the_enumerating_backends_on_seeded_spaces() {
    let (mut solved_total, mut walker_ok, mut with_survivors) = (0u64, 0u32, 0u32);
    for seed in 0..SEEDS {
        let g = generate(seed);
        let plan = Plan::new(&g.space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();

        // Oracle 1: the VM over the same wrapping IR.
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let vm_out =
            vm.run(CollectVisitor::new(vm.point_names().clone(), usize::MAX)).unwrap();
        let want = ints(&vm_out.visitor.points);

        let (plain, points) = compiled_points(&lp, EngineOptions::no_intervals());
        assert_eq!(points, want, "seed {seed}: survivors/order differ from the VM");
        assert_eq!(plain.stats, vm_out.stats, "seed {seed}: PruneStats differ from the VM");

        // Oracle 2: the walker, wherever checked arithmetic does not trip.
        let walker = Walker::new(&plan, LoopStyle::default());
        if let Ok(w) =
            walker.run(CollectVisitor::new(walker.point_names().clone(), usize::MAX))
        {
            walker_ok += 1;
            assert_eq!(points, ints(&w.visitor.points), "seed {seed}: differs from the walker");
            assert_eq!(plain.stats, w.stats, "seed {seed}: PruneStats differ from the walker");
        }

        // Default options (guards on): same survivors, and one outcome on
        // every grid.
        let (serial, points) = compiled_points(&lp, EngineOptions::default());
        assert_eq!(points, want, "seed {seed}: intervals changed survivors");
        if g.must_enumerate {
            assert_eq!(serial.blocks.loops_solved, 0, "seed {seed}: narrowed an opaque shape");
        }
        // The credit is exact, so narrowing is invisible in the funnel of
        // every check the guards leave alone.
        assert_eq!(serial.stats.survivors, plain.stats.survivors);
        let names = Compiled::new(lp.clone()).point_names().clone();
        for threads in [1usize, 2, 8] {
            for chunk_count in [1usize, 7, 32] {
                let opts = ParallelOptions { threads, chunk_count, ..ParallelOptions::default() };
                let (out, report) = run_parallel_report(&lp, &opts, || {
                    CollectVisitor::new(names.clone(), usize::MAX)
                })
                .unwrap();
                let at = format!("seed {seed} at {threads} threads × {chunk_count} chunks");
                assert_eq!(ints(&out.visitor.points), want, "{at}: survivors");
                assert_eq!(out.stats, serial.stats, "{at}: PruneStats");
                assert_eq!(out.blocks, serial.blocks, "{at}: BlockStats");
                assert_eq!(out.lanes, serial.lanes, "{at}: LaneStats");
                assert_eq!(report.loops_solved, serial.blocks.loops_solved, "{at}: report");
                assert_eq!(report.points_solved, serial.blocks.points_solved, "{at}: report");
            }
        }

        // Narrowing does not depend on the batch tier.
        let (unbatched, points) = compiled_points(&lp, EngineOptions::no_batch());
        assert_eq!(points, want, "seed {seed}: --no-batch changed survivors");
        assert_eq!(unbatched.stats, serial.stats, "seed {seed}: --no-batch PruneStats");
        assert_eq!(unbatched.blocks, serial.blocks, "seed {seed}: --no-batch BlockStats");

        solved_total += serial.blocks.loops_solved;
        with_survivors += u32::from(serial.blocks.loops_solved > 0 && !want.is_empty());
    }
    // The generator must actually exercise the thing under test.
    assert!(solved_total > 100, "only {solved_total} loop entries solved");
    assert!(with_survivors > 20, "only {with_survivors} solved seeds had survivors");
    assert!(walker_ok > SEEDS as u32 / 2, "walker oracle covered only {walker_ok} seeds");
}

/// (b) Exit slot state. The loop nest is a single chain, so no well-formed
/// space can read a loop's slot after the loop ran dry — but an opaque
/// closure sees the whole slot file, and the engines agree (untested until
/// now) that a dry loop leaves its *last* value behind. `z` below reads
/// `x` without declaring it, i.e. it reads what the previous `o`
/// iteration's final `x` loop left there. A narrowed loop that parked the
/// slot on its hit instead of its last value would realize different `z`
/// domains than the VM's enumerating numeric-for.
#[test]
fn a_solved_loop_leaves_its_last_value_in_the_slot() {
    let space = Space::builder("narrow_slot_state")
        .range("o", 1, 5)
        .deferred_iter("z", &["o"], |env| {
            let stale = env.get("x").map_or(Ok(0), |v| v.as_int())?;
            Ok(Realized::Range { start: 1, stop: 2 + stale.rem_euclid(4), step: 1 })
        })
        .range("x", 1, lit(6) + var("z"))
        .constraint("xo", ConstraintClass::Correctness, (var("x") * var("o")).ne(4))
        .build()
        .unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let lp = LoweredPlan::new(&plan).unwrap();

    let vm = Vm::compile(&lp, VmStyle::NumericFor);
    let vm_out = vm.run(CollectVisitor::new(vm.point_names().clone(), usize::MAX)).unwrap();
    let want = ints(&vm_out.visitor.points);
    // The stale read matters: z's domain must have varied.
    let z_col = vm.point_names().iter().position(|n| &**n == "z").unwrap();
    assert!(want.iter().any(|p| p[z_col] > 1), "z never saw a stale x: {want:?}");

    for opts in [EngineOptions::default(), EngineOptions::no_intervals(), EngineOptions::no_batch()] {
        let (out, points) = compiled_points(&lp, opts);
        assert!(out.blocks.loops_solved > 0, "{opts:?}: x loop was not narrowed");
        assert_eq!(points, want, "{opts:?}: stale slot state diverged from the VM");
        assert_eq!(out.stats, vm_out.stats, "{opts:?}");
    }
}

/// GEMM is the motivating case: both reshape loops narrow, on the CLI's
/// adaptive schedule and on the declared one, and the funnel is the
/// walker's to the last count when the guards are off.
#[test]
fn gemm_reshape_loops_are_solved_with_an_exact_funnel() {
    let space = beast_gemm::build_gemm_space(&beast_gemm::GemmSpaceParams::reduced(16)).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let lp = LoweredPlan::new(&plan).unwrap();
    let walker = Walker::new(&plan, LoopStyle::default());
    let w = walker.run(FingerprintVisitor::default()).unwrap();

    let declared = Compiled::with_options(lp.clone(), EngineOptions::no_intervals())
        .run(FingerprintVisitor::default())
        .unwrap();
    assert_eq!(declared.visitor, w.visitor);
    assert_eq!(declared.stats, w.stats, "closed-form credit must be exact");
    assert!(declared.blocks.loops_solved > 0);
    // At most one value per solved entry passes the solved check, so the
    // solved rows alone account for every value covered.
    assert!(declared.blocks.points_solved >= declared.blocks.loops_solved);

    let adaptive = Compiled::with_options(lp, EngineOptions::scheduled(ScheduleMode::Adaptive))
        .run(FingerprintVisitor::default())
        .unwrap();
    assert_eq!(adaptive.visitor, w.visitor);
    assert!(adaptive.blocks.loops_solved > 0, "adaptive order moved the check off the loop head");
}
