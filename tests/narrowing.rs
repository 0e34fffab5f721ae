//! Loop-narrowing equivalence suite.
//!
//! The compiled engine *solves* a loop whose body opens with a
//! reject-unless-equal check affine in the loop variable
//! (`beast_core::analyze::{levels, narrow}`, `beast_engine::compiled`) instead
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

use beast::prelude::*;

#[path = "common/narrow_gen.rs"]
mod narrow_gen;
use narrow_gen::{generate, generate_parent};

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
/// thread × chunk grid, counters included.
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
                let opts = SweepSpec { slots: threads, chunk_count, ..SweepSpec::default() };
                let (out, report) = sweep(&lp, &opts, || {
                    CollectVisitor::new(names.clone(), usize::MAX)
                })
                .unwrap();
                let at = format!("seed {seed} at {threads} threads × {chunk_count} chunks");
                assert_eq!(ints(&out.visitor.points), want, "{at}: survivors");
                assert_eq!(out.stats, serial.stats, "{at}: PruneStats");
                assert_eq!(out.blocks, serial.blocks, "{at}: BlockStats");
                assert_eq!(report.loops_solved, serial.blocks.loops_solved, "{at}: report");
                assert_eq!(report.points_solved, serial.blocks.points_solved, "{at}: report");
            }
        }

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

    for opts in [EngineOptions::default(), EngineOptions::no_intervals()] {
        let (out, points) = compiled_points(&lp, opts);
        assert!(out.blocks.loops_solved > 0, "{opts:?}: x loop was not narrowed");
        assert_eq!(points, want, "{opts:?}: stale slot state diverged from the VM");
        assert_eq!(out.stats, vm_out.stats, "{opts:?}");
    }

    // A loop that solves its child steps over the values whose child solve
    // misses, yet must leave `m` on its range's last value and `x` on its
    // range's last value, as the VM's enumeration of every `m` does: `z`
    // reads both. Two shapes: `m · x != 4` over `x < 8`, where `m`'s last
    // values (past the divisors of 4) are passed over after a candidate;
    // and `m · x != o + 6` over `x < 4`, where at `o = 1` no `m` is a
    // candidate and `z` reads at `o = 2` what that entry left.
    for (x_stop, target, shift) in [(8, lit(4), 0), (4, var("o") + 6, 3)] {
        let space = Space::builder("parent_slot_state")
            .range("o", 1, 5)
            .deferred_iter("z", &["o"], move |env| {
                let stale = |name| env.get(name).map_or(Ok(0), |v| v.as_int());
                let (m, x) = (stale("m")?, stale("x")?);
                let o = env.require_int("o")?;
                let stop = 2 + (3 * m + x + o + shift).rem_euclid(4);
                Ok(Realized::Range { start: 1, stop, step: 1 })
            })
            .range("m", 1, lit(6) + var("z"))
            .range("x", 1, x_stop)
            .constraint("mx", ConstraintClass::Correctness, (var("m") * var("x")).ne(target))
            .build()
            .unwrap();
        let order = LoopOrder::Explicit(["o", "z", "m", "x"].map(String::from).to_vec());
        let plan = Plan::new(&space, PlanOptions { order, ..PlanOptions::default() }).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let table = beast_core::analyze::levels::levels(&lp).levels;
        let m = table.iter().position(|l| &*lp.slot_names[l.slot as usize] == "m").unwrap();
        assert!(table[m].child_solve.is_some(), "m does not solve its child");

        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let vm_out = vm.run(CollectVisitor::new(vm.point_names().clone(), usize::MAX)).unwrap();
        let want = ints(&vm_out.visitor.points);
        let z_col = vm.point_names().iter().position(|n| &**n == "z").unwrap();
        let zs: std::collections::BTreeSet<i64> = want.iter().map(|p| p[z_col]).collect();
        assert!(zs.len() > 2, "x < {x_stop}: z never saw the stale m and x: {zs:?}");
        for opts in [EngineOptions::default(), EngineOptions::no_intervals()] {
            let (out, points) = compiled_points(&lp, opts);
            let at = format!("x < {x_stop}, {opts:?}");
            assert!(out.blocks.loops_solved > 0, "{at}: x loop was not narrowed");
            assert_eq!(points, want, "{at}: stale slot state diverged from the VM");
            assert_eq!(out.stats, vm_out.stats, "{at}");
        }
    }
}

/// (c) A loop that solves its child (the parent-coefficient family: zero,
/// faulting and wrap-adjacent coefficients, `k = 0`, negative steps, empty
/// ranges) equals the enumerating oracles in survivors, order and
/// fingerprint, and in `PruneStats` with the guards off; with the guards on
/// it equals itself on every thread × chunk grid, counters included, and a
/// faulting seed fails with the oracles' error.
#[test]
fn parent_solved_loops_match_the_enumerating_backends_on_seeded_spaces() {
    let (mut solved, mut walker_ok, mut with_survivors, mut failed) = (0u64, 0u32, 0u32, 0u32);
    for seed in 0..SEEDS {
        let g = generate_parent(seed, false);
        let plan = Plan::new(&g.space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let walker = Walker::new(&plan, LoopStyle::default());
        let compiled = |opts| Compiled::with_options(lp.clone(), opts);
        let plain = compiled(EngineOptions::no_intervals()).run(FingerprintVisitor::default());
        let vm_out = vm.run(FingerprintVisitor::default());
        let (plain, vm_out) = match (plain, vm_out) {
            (Ok(p), Ok(v)) => (p, v),
            (Err(p), Err(v)) => {
                assert_eq!(p.root(), v.root(), "seed {seed}: error differs from the VM");
                failed += 1;
                continue;
            }
            (p, v) => panic!("seed {seed}: engine {:?} against VM {:?}", p.is_ok(), v.is_ok()),
        };
        assert_eq!(plain.visitor, vm_out.visitor, "seed {seed}: survivors differ from the VM");
        assert_eq!(plain.stats, vm_out.stats, "seed {seed}: PruneStats differ from the VM");
        let names = walker.point_names().clone();
        if let Ok(w) = walker.run(CollectVisitor::new(names, usize::MAX)) {
            walker_ok += 1;
            let (_, points) = compiled_points(&lp, EngineOptions::no_intervals());
            assert_eq!(points, ints(&w.visitor.points), "seed {seed}: differs from the walker");
            assert_eq!(plain.stats, w.stats, "seed {seed}: PruneStats differ from the walker");
        }
        let serial = compiled(EngineOptions::default()).run(FingerprintVisitor::default()).unwrap();
        assert_eq!(serial.visitor, plain.visitor, "seed {seed}: intervals changed survivors");
        for threads in [1usize, 2, 8] {
            for chunk_count in [1usize, 7] {
                let spec = SweepSpec { slots: threads, chunk_count, ..SweepSpec::default() };
                let (out, _) = sweep(&lp, &spec, FingerprintVisitor::default).unwrap();
                let at = format!("seed {seed} at {threads} threads × {chunk_count} chunks");
                assert_eq!(out.visitor, serial.visitor, "{at}: survivors");
                assert_eq!(out.stats, serial.stats, "{at}: PruneStats");
                assert_eq!(out.blocks, serial.blocks, "{at}: BlockStats");
            }
        }
        solved += serial.blocks.loops_solved;
        with_survivors += u32::from(serial.blocks.loops_solved > 0 && serial.visitor.count > 0);
    }
    let counts = format!(
        "{solved} solved, {with_survivors} with survivors, {walker_ok} walker, {failed} failed"
    );
    assert!(solved > 500 && with_survivors > 20 && walker_ok > 100 && failed > 20, "{counts}");
}

/// GEMM is the motivating case: both reshape loops narrow, with the guards
/// on and off, and the funnel is the walker's to the last count when the
/// guards are off.
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

    let guarded = Compiled::new(lp).run(FingerprintVisitor::default()).unwrap();
    assert_eq!(guarded.visitor, w.visitor);
    assert!(guarded.blocks.loops_solved > 0, "the guards moved the check off the loop head");
}
