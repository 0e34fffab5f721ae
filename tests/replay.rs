//! Replay equivalence suite.
//!
//! The compiled engine evaluates the subtree under a loop nothing reads
//! *once* and replays its survivors for the loop's other values
//! (`beast_core::analyze::footprint`, `beast_engine`'s `replay` module).
//! Nothing observable may change: survivors, emission order, fingerprint
//! and per-constraint [`PruneStats`] must equal the enumerating backends',
//! every counter must be invariant across thread and chunk grids, and —
//! the two new replay counters aside — equal to the same engine with replay
//! declined.
//!
//! Oracles: the walker (the serial reference every fingerprint in the repo
//! is pinned to) and the bytecode VM. The *declined* twin is the same
//! engine with a fault injector attached whose rates are zero: injected
//! faults are keyed on visit ordinals, so an attached injector turns replay
//! off at run time without firing once.

use beast::prelude::*;

#[path = "common/narrow_gen.rs"]
mod narrow_gen;
#[path = "common/replay_gen.rs"]
mod replay_gen;

const SEEDS: u64 = 240;
const THREADS: [usize; 3] = [1, 2, 8];
const CHUNK_GRIDS: [usize; 3] = [1, 3, 32];

fn ints(points: &[Point]) -> Vec<Vec<i64>> {
    points
        .iter()
        .map(|p| p.values().iter().map(|v| v.as_int().unwrap()).collect())
        .collect()
}

/// `BlockStats` with the replay counters zeroed: what a non-replaying run
/// of the same engine reports.
fn quiet(b: BlockStats) -> BlockStats {
    BlockStats { loops_replayed: 0, rows_replayed: 0, ..b }
}

fn collect(
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

/// The names of the loops the recogniser marks, in nest order.
fn replayable_names(lp: &LoweredPlan) -> Vec<String> {
    let levels = beast::core::analyze::levels::levels(lp).levels;
    let replayed = levels.iter().filter(|l| l.replayable);
    replayed.map(|l| lp.slot_names[l.slot as usize].to_string()).collect()
}

/// Everything one space must satisfy; returns `(replay events, survivors)`
/// of the serial default-options run.
fn check_space(at: &str, plan: &Plan, lp: &LoweredPlan) -> (u64, u64) {
    // Oracle 1: the walker — points, order, fingerprint and funnel.
    let walker = Walker::new(plan, LoopStyle::default());
    let w = walker
        .run(CollectVisitor::new(walker.point_names().clone(), usize::MAX))
        .unwrap();
    let want = ints(&w.visitor.points);
    let w_fp = walker.run(FingerprintVisitor::default()).unwrap().visitor;

    // Guards off, the compiled funnel is the walker's to the last count.
    let (plain, points) = collect(lp, EngineOptions::no_intervals());
    assert_eq!(points, want, "{at}: survivors/order differ from the walker");
    assert_eq!(plain.stats, w.stats, "{at}: PruneStats differ from the walker");
    let fp = Compiled::with_options(lp.clone(), EngineOptions::no_intervals())
        .run(FingerprintVisitor::default())
        .unwrap()
        .visitor;
    assert_eq!(fp, w_fp, "{at}: fingerprint differs from the walker");

    // Oracle 2: the VM over the same lowered IR.
    let vm = Vm::compile(lp, VmStyle::NumericFor);
    let vm_out = vm.run(CollectVisitor::new(vm.point_names().clone(), usize::MAX)).unwrap();
    assert_eq!(want, ints(&vm_out.visitor.points), "{at}: walker and VM disagree");
    assert_eq!(plain.stats, vm_out.stats, "{at}: PruneStats differ from the VM");

    // Default options: same survivors; one outcome on every grid; and the
    // declined twin (zero-rate injector attached) counts the same.
    let (serial, points) = collect(lp, EngineOptions::default());
    assert_eq!(points, want, "{at}: guards changed survivors");
    assert_eq!(serial.stats.survivors, plain.stats.survivors, "{at}");
    let names = Compiled::new(lp.clone()).point_names().clone();
    for threads in THREADS {
        for chunk_count in CHUNK_GRIDS {
            let opts = ParallelOptions { threads, chunk_count, ..ParallelOptions::default() };
            let grid = format!("{at} at {threads} threads × {chunk_count} chunks");
            let (out, report) = run_parallel_report(lp, &opts, || {
                CollectVisitor::new(names.clone(), usize::MAX)
            })
            .unwrap();
            assert_eq!(ints(&out.visitor.points), want, "{grid}: survivors");
            assert_eq!(out.stats, serial.stats, "{grid}: PruneStats");
            assert_eq!(out.blocks, serial.blocks, "{grid}: BlockStats");
            assert_eq!(report.loops_replayed, serial.blocks.loops_replayed, "{grid}: report");
            assert_eq!(report.rows_replayed, serial.blocks.rows_replayed, "{grid}: report");

            let declined = ParallelOptions { injector: Some(FaultInjector::new(1)), ..opts };
            let (twin, twin_report) = run_parallel_report(lp, &declined, || {
                CollectVisitor::new(names.clone(), usize::MAX)
            })
            .unwrap();
            assert!(twin_report.faults.is_empty(), "{grid}: a zero-rate injector fired");
            assert_eq!(ints(&twin.visitor.points), want, "{grid}: declined survivors");
            assert_eq!(twin.stats, serial.stats, "{grid}: declined PruneStats");
            assert_eq!(twin.blocks, quiet(serial.blocks), "{grid}: declined BlockStats");
        }
    }

    // The declined twin reproduces the walker's fingerprint too.
    let opts = ParallelOptions {
        threads: 2,
        chunk_count: 3,
        injector: Some(FaultInjector::new(1)),
        ..ParallelOptions::default()
    };
    let (twin, _) = run_parallel_report(lp, &opts, FingerprintVisitor::default).unwrap();
    assert_eq!(twin.visitor, w_fp, "{at}: declined fingerprint");
    assert_eq!(twin.stats, serial.stats, "{at}: declined PruneStats");
    assert_eq!(twin.blocks, quiet(serial.blocks), "{at}: declined BlockStats");

    (serial.blocks.loops_replayed, serial.stats.survivors)
}

/// The generated family: unread loops at depth 1, in adjacent runs and
/// non-adjacent nests, innermost, around narrowed and filtering loops,
/// over list / negative-step / length-1 / empty / run-time-bounded domains
/// — beside the shapes that must not replay.
#[test]
fn replayed_loops_match_the_enumerating_backends_on_seeded_spaces() {
    let (mut events, mut with_survivors, mut declined_shapes, mut runs) = (0u64, 0u32, 0u32, 0u32);
    let mut kinds = [0u32; 4];
    for seed in 0..SEEDS {
        let g = replay_gen::generate(seed);
        let order = LoopOrder::Explicit(g.order.clone());
        let plan = Plan::new(&g.space, PlanOptions { order, ..PlanOptions::default() }).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let at = format!("seed {seed} ({})", g.order.join(" "));

        // The recogniser marks exactly the loops the generator meant.
        assert_eq!(replayable_names(&lp), g.replayable, "{at}: recogniser");
        let unread = |n: &String| n.starts_with('u') || n == "z" || n == "q";
        declined_shapes += u32::from(g.order.iter().filter(|n| unread(n)).count() > g.replayable.len());
        let adjacent = g.order.windows(2).any(|w| g.replayable.contains(&w[0]) && g.replayable.contains(&w[1]));
        runs += u32::from(adjacent);
        kinds[0] += u32::from(g.replayable.contains(&g.order[1]));
        kinds[1] += u32::from(g.replayable.contains(g.order.last().unwrap()));
        kinds[2] += u32::from(g.order[0].starts_with('u'));
        kinds[3] += u32::from(lp.has_opaque_steps());

        let (replays, survivors) = check_space(&at, &plan, &lp);
        if g.replayable.is_empty() {
            assert_eq!(replays, 0, "{at}: replayed a loop the recogniser declined");
        }
        events += replays;
        with_survivors += u32::from(replays > 0 && survivors > 0);
    }
    // The generator must actually exercise the thing under test.
    assert!(events > 2_000, "only {events} replay events");
    assert!(with_survivors > 100, "only {with_survivors} replaying seeds had survivors");
    assert!(declined_shapes > 20, "only {declined_shapes} seeds held an unread loop that must not replay");
    assert!(runs > 40, "only {runs} seeds held an adjacent run of replayable loops");
    let [depth_one, innermost, unread_outermost, opaque] = kinds;
    assert!(depth_one > 20 && innermost > 40, "depth 1: {depth_one}, innermost: {innermost}");
    assert!(unread_outermost > 10 && opaque > 30, "loop 0: {unread_outermost}, opaque: {opaque}");
}

/// The narrowing family, whose innermost `y` loop is read by nothing on
/// about half the seeds: an unread loop directly below a *solved* parent.
#[test]
fn an_unread_loop_below_a_narrowed_parent_replays() {
    let (mut events, mut below_solved) = (0u64, 0u32);
    for seed in 0..SEEDS {
        let g = narrow_gen::generate(seed);
        let plan = Plan::new(&g.space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        // Wrap-provoking coefficients trip the walker's checked arithmetic;
        // `tests/narrowing.rs` covers those seeds against the VM.
        let walker = Walker::new(&plan, LoopStyle::default());
        if walker.run(CountVisitor::default()).is_err() {
            continue;
        }
        let (replays, _) = check_space(&format!("narrow seed {seed}"), &plan, &lp);
        let solved = collect(&lp, EngineOptions::default()).0.blocks.loops_solved;
        assert!(!g.must_enumerate || solved == 0, "narrow seed {seed}: narrowed an opaque shape");
        events += replays;
        below_solved += u32::from(replays > 0 && solved > 0);
    }
    assert!(events > 100, "only {events} replay events");
    assert!(below_solved > 20, "only {below_solved} seeds replayed below a solved loop");
}

/// GEMM is the motivating case: exactly the five iterators no derived
/// variable and no constraint mentions replay, on every schedule, and the
/// sweep equals the walker's.
#[test]
fn gemm_replays_exactly_its_five_unread_iterators() {
    let space = beast_gemm::build_gemm_space(&beast_gemm::GemmSpaceParams::reduced(16)).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let lp = LoweredPlan::new(&plan).unwrap();
    let mut names = replayable_names(&lp);
    names.sort();
    assert_eq!(names, ["shmem_banks", "shmem_l1", "tex_a", "tex_b", "vec_mul"]);

    let walker = Walker::new(&plan, LoopStyle::default());
    let w = walker.run(FingerprintVisitor::default()).unwrap();
    let declared = Compiled::with_options(lp.clone(), EngineOptions::no_intervals())
        .run(FingerprintVisitor::default())
        .unwrap();
    assert_eq!(declared.visitor, w.visitor);
    assert_eq!(declared.stats, w.stats, "closed-form credit must be exact");

    for schedule in [ScheduleMode::Declared, ScheduleMode::Adaptive] {
        let out = Compiled::with_options(lp.clone(), EngineOptions::scheduled(schedule))
            .run(FingerprintVisitor::default())
            .unwrap();
        assert_eq!(out.visitor, w.visitor, "{schedule}");
        // Pinned: 1,767 of reduced(16)'s 1,824 survivors are re-emitted from
        // a recording by 723 replay events; 57 are evaluated.
        assert_eq!(out.stats.survivors, 1824);
        assert_eq!(
            (out.blocks.loops_replayed, out.blocks.rows_replayed),
            (723, 1767),
            "{schedule}"
        );
    }
}
