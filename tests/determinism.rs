//! Determinism regression suite for the dynamic parallel scheduler.
//!
//! `run_parallel` pulls level-0 chunks off a shared atomic cursor, so *which
//! worker evaluates which chunk* is a race — but the merged outcome must not
//! be. These tests pin the contract documented on
//! [`beast_engine::parallel`]: for every space and every thread count, the
//! parallel sweep reproduces the serial [`Compiled::run`] bit for bit —
//! same survivors, same visit *order*, same [`PruneStats`] — and repeated
//! parallel runs reproduce each other.

use std::sync::Arc;

use beast::prelude::*;
use beast_core::ir::LoweredPlan;
use beast_engine::compiled::EngineOptions;
use beast_engine::parallel::{run_parallel, run_parallel_report, ParallelOptions};
use beast_gemm::{build_gemm_space, GemmSpaceParams};

#[path = "common/narrow_gen.rs"]
#[allow(dead_code)]
mod narrow_gen;
#[path = "common/replay_gen.rs"]
#[allow(dead_code)]
mod replay_gen;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn lower(space: &Arc<Space>) -> LoweredPlan {
    let plan = Plan::new(space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

/// A uniform space: every level-0 subtree has the same static fanout.
fn uniform_space() -> Arc<Space> {
    Space::builder("det_uniform")
        .range("a", 0, 24)
        .range("b", 0, 12)
        .range("c", 0, 6)
        .derived("abc", var("a") * var("b") + var("c"))
        .constraint("hard_cut", ConstraintClass::Hard, var("abc").gt(180))
        .constraint("soft_cut", ConstraintClass::Soft, (var("abc") % 3).eq(0))
        .build()
        .unwrap()
}

/// A deliberately skewed space: the inner domains depend on the level-0
/// value, and a hoisted constraint kills whole subtrees — the shape the
/// dynamic scheduler exists for.
fn skewed_space() -> Arc<Space> {
    Space::builder("det_skewed")
        .range("outer", 1, 40)
        .constraint("upper_half", ConstraintClass::Hard, var("outer").gt(20))
        .range_step("mid", var("outer"), 200, var("outer"))
        .range("inner", 0, var("mid"))
        .derived("w", var("mid") + var("inner"))
        .constraint("odd_w", ConstraintClass::Soft, (var("w") % 2).ne(0))
        .build()
        .unwrap()
}

/// The paper's own GEMM space on a reduced device.
fn gemm_space() -> Arc<Space> {
    build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap()
}

fn all_spaces() -> Vec<(&'static str, Arc<Space>)> {
    vec![
        ("uniform", uniform_space()),
        ("skewed", skewed_space()),
        ("gemm", gemm_space()),
    ]
}

/// Survivor count and statistics match the serial run at every thread count.
#[test]
fn counts_and_stats_are_thread_count_invariant() {
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let serial = Compiled::new(lp.clone()).run(CountVisitor::default()).unwrap();
        assert!(serial.visitor.count > 0, "{name}: degenerate test space");
        for threads in THREAD_COUNTS {
            let par = run_parallel(&lp, threads, CountVisitor::default).unwrap();
            assert_eq!(
                par.visitor.count, serial.visitor.count,
                "{name}: survivor count diverged at {threads} threads"
            );
            assert_eq!(
                par.stats, serial.stats,
                "{name}: PruneStats diverged at {threads} threads"
            );
        }
    }
}

/// The *order* in which the merged visitor sees survivors equals the serial
/// visit order — full point-by-point equality, not just the same set.
#[test]
fn visit_order_matches_serial_exactly() {
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let compiled = Compiled::new(lp.clone());
        let names = compiled.point_names().clone();
        let serial = compiled
            .run(CollectVisitor::new(names.clone(), usize::MAX))
            .unwrap();
        for threads in THREAD_COUNTS {
            let par = run_parallel(&lp, threads, || {
                CollectVisitor::new(names.clone(), usize::MAX)
            })
            .unwrap();
            assert_eq!(
                par.visitor.points.len(),
                serial.visitor.points.len(),
                "{name}: survivor count diverged at {threads} threads"
            );
            assert_eq!(
                par.visitor.points, serial.visitor.points,
                "{name}: visit order diverged at {threads} threads"
            );
        }
    }
}

/// Order-sensitive visitors (capped collection: keeps the *first* `cap`
/// survivors) see the same prefix at every thread count.
#[test]
fn capped_collection_keeps_the_same_prefix() {
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let compiled = Compiled::new(lp.clone());
        let names = compiled.point_names().clone();
        let serial = compiled.run(CollectVisitor::new(names.clone(), 13)).unwrap();
        for threads in THREAD_COUNTS {
            let par =
                run_parallel(&lp, threads, || CollectVisitor::new(names.clone(), 13)).unwrap();
            assert_eq!(
                par.visitor.points, serial.visitor.points,
                "{name}: capped prefix diverged at {threads} threads"
            );
        }
    }
}

/// Back-to-back parallel runs agree with each other (the chunk race never
/// leaks into results), and the report's accounting matches the outcome.
#[test]
fn repeated_runs_and_reports_agree() {
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        for threads in THREAD_COUNTS {
            let opts = ParallelOptions::new(threads);
            let (a, ra) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
            let (b, rb) = run_parallel_report(&lp, &opts, CountVisitor::default).unwrap();
            assert_eq!(a.stats, b.stats, "{name}: reruns diverged at {threads} threads");
            assert_eq!(a.visitor.count, b.visitor.count, "{name}");
            // Scheduler shape is deterministic even though worker
            // assignment is not.
            assert_eq!(
                (ra.chunks, ra.chunk_len, ra.outer_len),
                (rb.chunks, rb.chunk_len, rb.outer_len),
                "{name}: scheduler shape diverged at {threads} threads"
            );
            assert_eq!(ra.survivors, a.stats.survivors, "{name}");
            let by_worker: u64 = ra.workers.iter().map(|w| w.survivors).sum();
            assert_eq!(by_worker, ra.survivors, "{name}: worker accounting leak");
        }
    }
}

/// Interval block pruning is invisible in results: with intervals on or
/// off, serial and parallel sweeps at every thread count produce the same
/// survivors in the same order. Only `PruneStats::evaluated` may shrink
/// (subtree skips remove per-point evaluations), and `pruned`/`survivors`
/// never change. The intervals-on runs must additionally be bit-for-bit
/// identical to each other across thread counts.
#[test]
fn intervals_on_and_off_agree_at_every_thread_count() {
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let on = Compiled::new(lp.clone());
        let off = Compiled::with_options(lp.clone(), EngineOptions::no_intervals());
        let names = on.point_names().clone();
        let serial_on = on.run(CollectVisitor::new(names.clone(), usize::MAX)).unwrap();
        let serial_off = off.run(CollectVisitor::new(names.clone(), usize::MAX)).unwrap();

        // Same survivors, same order, same rejection counts; evaluations
        // can only shrink with intervals on.
        assert_eq!(
            serial_on.visitor.points, serial_off.visitor.points,
            "{name}: intervals changed survivors or their order"
        );
        assert_eq!(serial_on.stats.survivors, serial_off.stats.survivors, "{name}");
        for i in 0..serial_off.stats.evaluated.len() {
            assert!(
                serial_on.stats.evaluated[i] <= serial_off.stats.evaluated[i],
                "{name}: intervals *increased* evaluations of constraint {i}"
            );
            // A skipped subtree removes the skip-deciding constraint's
            // per-point rejections along with the evaluations.
            assert!(
                serial_on.stats.pruned[i] <= serial_off.stats.pruned[i],
                "{name}: intervals *increased* rejections of constraint {i}"
            );
        }
        // Loop narrowing and replay are not interval features: they stay
        // on, and their counters are all an intervals-off run may report.
        assert_eq!(
            BlockStats {
                loops_solved: 0,
                points_solved: 0,
                loops_replayed: 0,
                rows_replayed: 0,
                ..serial_off.blocks
            },
            BlockStats::default(),
            "{name}: off mode counted blocks"
        );

        for threads in THREAD_COUNTS {
            for (mode, engine, serial) in [
                ("on", EngineOptions::default(), &serial_on),
                ("off", EngineOptions::no_intervals(), &serial_off),
            ] {
                let opts = ParallelOptions { threads, engine, ..ParallelOptions::default() };
                let (par, _) = run_parallel_report(&lp, &opts, || {
                    CollectVisitor::new(names.clone(), usize::MAX)
                })
                .unwrap();
                assert_eq!(
                    par.visitor.points, serial.visitor.points,
                    "{name}: intervals-{mode} visit order diverged at {threads} threads"
                );
                assert_eq!(
                    par.stats, serial.stats,
                    "{name}: intervals-{mode} stats diverged at {threads} threads"
                );
                assert_eq!(
                    par.blocks, serial.blocks,
                    "{name}: intervals-{mode} block counters diverged at {threads} threads"
                );
            }
        }
    }
}

/// The congruence half of the guard product is invisible in results: with
/// congruence tracking on or off, serial and parallel sweeps at every
/// thread count produce the same survivors in the same order (the reduced
/// product never changes an interval verdict, so guard decisions can only
/// be *added*, and added decisions remove whole subtrees no survivor lives
/// in). On the divisibility-heavy GEMM space the congruence half must also
/// actually earn its keep: at least one subtree skip the interval hull
/// could not decide.
#[test]
fn congruence_on_and_off_agree_at_every_thread_count() {
    let mut total_congruence_skips = 0u64;
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let on = Compiled::new(lp.clone());
        let off = Compiled::with_options(lp.clone(), EngineOptions::no_congruence());
        let names = on.point_names().clone();
        let serial_on = on.run(CollectVisitor::new(names.clone(), usize::MAX)).unwrap();
        let serial_off = off.run(CollectVisitor::new(names.clone(), usize::MAX)).unwrap();

        assert_eq!(
            serial_on.visitor.points, serial_off.visitor.points,
            "{name}: congruence changed survivors or their order"
        );
        assert_eq!(serial_on.stats.survivors, serial_off.stats.survivors, "{name}");
        for i in 0..serial_off.stats.evaluated.len() {
            assert!(
                serial_on.stats.evaluated[i] <= serial_off.stats.evaluated[i],
                "{name}: congruence *increased* evaluations of constraint {i}"
            );
            assert!(
                serial_on.stats.pruned[i] <= serial_off.stats.pruned[i],
                "{name}: congruence *increased* rejections of constraint {i}"
            );
        }
        assert_eq!(
            serial_off.blocks.congruence_skips, 0,
            "{name}: congruence-off mode counted congruence skips"
        );
        assert!(
            serial_on.blocks.congruence_skips <= serial_on.blocks.subtree_skips,
            "{name}: congruence skips are a subset of subtree skips"
        );
        total_congruence_skips += serial_on.blocks.congruence_skips;

        for threads in THREAD_COUNTS {
            for (mode, engine, serial) in [
                ("on", EngineOptions::default(), &serial_on),
                ("off", EngineOptions::no_congruence(), &serial_off),
            ] {
                let opts = ParallelOptions { threads, engine, ..ParallelOptions::default() };
                let (par, _) = run_parallel_report(&lp, &opts, || {
                    CollectVisitor::new(names.clone(), usize::MAX)
                })
                .unwrap();
                assert_eq!(
                    par.visitor.points, serial.visitor.points,
                    "{name}: congruence-{mode} visit order diverged at {threads} threads"
                );
                assert_eq!(
                    par.stats, serial.stats,
                    "{name}: congruence-{mode} stats diverged at {threads} threads"
                );
                assert_eq!(
                    par.blocks, serial.blocks,
                    "{name}: congruence-{mode} block counters diverged at {threads} threads"
                );
            }
        }
    }
    assert!(
        total_congruence_skips > 0,
        "congruence guards never fired on any space (GEMM's divisibility \
         constraints should produce skips)"
    );
}

/// Constraint scheduling is invisible in results: declared and adaptive
/// check ordering — with intervals on or off, serial and parallel at every
/// thread count — reproduce the same survivors in the identical emission
/// order. Only the per-constraint kill *credit* may move between the
/// members of a reorder-safe group.
#[test]
fn schedule_modes_agree_at_every_thread_count() {
    use beast_core::schedule::ScheduleMode;
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let baseline_engine = Compiled::new(lp.clone());
        let names = baseline_engine.point_names().clone();
        let baseline = baseline_engine
            .run(CollectVisitor::new(names.clone(), usize::MAX))
            .unwrap();
        for mode in [ScheduleMode::Declared, ScheduleMode::Adaptive] {
            for intervals in [true, false] {
                let mut engine = if intervals {
                    EngineOptions::default()
                } else {
                    EngineOptions::no_intervals()
                };
                engine.schedule = mode;
                let serial = Compiled::with_options(lp.clone(), engine)
                    .run(CollectVisitor::new(names.clone(), usize::MAX))
                    .unwrap();
                assert_eq!(
                    serial.visitor.points, baseline.visitor.points,
                    "{name}: {mode} (intervals={intervals}) changed survivors or order"
                );
                assert_eq!(serial.stats.survivors, baseline.stats.survivors, "{name}");
                for threads in THREAD_COUNTS {
                    let opts = ParallelOptions { threads, engine, ..ParallelOptions::default() };
                    let (par, report) = run_parallel_report(&lp, &opts, || {
                        CollectVisitor::new(names.clone(), usize::MAX)
                    })
                    .unwrap();
                    assert_eq!(
                        par.visitor.points, baseline.visitor.points,
                        "{name}: {mode} (intervals={intervals}) diverged at {threads} threads"
                    );
                    assert_eq!(report.schedule.mode, mode.as_str(), "{name}");
                }
            }
        }
    }
}

/// The determinism contract survives fault recovery: with a pinned chunk
/// grid and a seeded injector, every space produces the same survivors in
/// the same order — and the same structured fault records — at every
/// thread count, under both point-skip and chunk-quarantine policies.
#[test]
fn faulted_sweeps_are_thread_count_invariant() {
    use beast_engine::fault::FaultPolicy;
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let compiled = Compiled::new(lp.clone());
        let names = compiled.point_names().clone();
        for policy in [FaultPolicy::SkipPoint, FaultPolicy::QuarantineChunk] {
            let mut baseline = None;
            for threads in THREAD_COUNTS {
                let opts = ParallelOptions {
                    threads,
                    chunk_count: 12,
                    fault_policy: policy,
                    injector: Some(FaultInjector::new(7).error_rate(0.002)),
                    ..ParallelOptions::default()
                };
                let (par, report) = run_parallel_report(&lp, &opts, || {
                    CollectVisitor::new(names.clone(), usize::MAX)
                })
                .unwrap();
                match &baseline {
                    None => baseline = Some((par.visitor.points, report.faults)),
                    Some((points, faults)) => {
                        assert_eq!(
                            &par.visitor.points, points,
                            "{name}: {policy:?} survivors diverged at {threads} threads"
                        );
                        assert_eq!(
                            &report.faults, faults,
                            "{name}: {policy:?} fault records diverged at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

/// The one scalar engine, pinned: on the GEMM reduced(16) and reduced(32)
/// spaces the fingerprint, survivor count, every `PruneStats` row and every
/// `BlockStats` counter (replay's included) equal the values the last
/// commit that still had a lane tier printed, with the tier switched off,
/// for `repro sweep DIM --threads 1 --chunks 32` under each schedule mode
/// with intervals on and off. Deleting the tier may not move one of them,
/// nor may the register-form guard evaluator. `guard_runs` counts the
/// sweep's own verdicts, so it is the same on both schedules (adaptive
/// calibration runs guards at engine-build time, outside every sweep).
#[test]
fn scalar_engine_reproduces_the_pinned_gemm_fingerprints_and_counters() {
    use beast_core::schedule::ScheduleMode::{Adaptive, Declared};
    // (dim, schedule, intervals, evaluated, pruned, [guard_runs,
    // subtree_skips, congruence_skips, points_skipped, checks_elided,
    // loops_solved, points_solved, loops_replayed, rows_replayed]).
    #[rustfmt::skip]
    let pins = [
        (16, Declared, true,
         [256, 16064, 16064, 16064, 16064, 16064, 16064, 256, 109440, 91136, 2240, 2112],
         [0, 0, 0, 0, 0, 0, 15312, 236, 107200, 89024, 1120, 288],
         [794, 370, 57, 7536, 48448, 17344, 200576, 723, 1767]),
        (16, Declared, false,
         [256, 32256, 32256, 32256, 32256, 32256, 32256, 256, 222912, 91136, 3904, 2112],
         [0, 0, 0, 0, 0, 0, 30048, 236, 219008, 89024, 2784, 288],
         [0, 0, 0, 0, 0, 37568, 314048, 2698, 1767]),
        (16, Adaptive, true,
         [20, 16064, 16064, 16064, 752, 752, 16064, 256, 109440, 91136, 2240, 2112],
         [0, 0, 0, 0, 0, 0, 15312, 236, 107200, 89024, 1120, 288],
         [794, 370, 57, 7536, 48212, 17344, 200576, 723, 1767]),
        (16, Adaptive, false,
         [20, 32256, 32256, 32256, 2208, 2208, 32256, 256, 222912, 91136, 3904, 2112],
         [0, 0, 0, 0, 0, 0, 30048, 236, 219008, 89024, 2784, 288],
         [0, 0, 0, 0, 0, 37568, 314048, 2698, 1767]),
        (32, Declared, true,
         [1024, 346240, 346240, 346240, 346240, 346240, 282208, 1024, 8043776, 4744128, 90560, 61792],
         [0, 0, 0, 0, 0, 64032, 257824, 912, 7953216, 4682336, 61472, 29920],
         [8568, 3952, 718, 81856, 1039744, 817936, 12787904, 9488, 30693]),
        (32, Declared, false,
         [1024, 587776, 587776, 587776, 587776, 587776, 503488, 1024, 15501856, 4744128, 162016, 61792],
         [0, 0, 0, 0, 0, 84288, 450912, 912, 15339840, 4682336, 132928, 29920],
         [0, 0, 0, 0, 0, 1503472, 20245984, 31714, 30693]),
        (32, Adaptive, true,
         [112, 346240, 346240, 346240, 38624, 38624, 346240, 1024, 8043776, 4744128, 90560, 61792],
         [0, 0, 0, 0, 0, 14240, 307616, 912, 7953216, 4682336, 61472, 29920],
         [8568, 3952, 718, 81856, 1038832, 817936, 12787904, 9488, 30693]),
        (32, Adaptive, false,
         [112, 587776, 587776, 587776, 75584, 75584, 587776, 1024, 15501856, 4744128, 162016, 61792],
         [0, 0, 0, 0, 0, 23008, 512192, 912, 15339840, 4682336, 132928, 29920],
         [0, 0, 0, 0, 0, 1503472, 20245984, 31714, 30693]),
    ];
    for (dim, schedule, intervals, evaluated, pruned, b) in pins {
        let (hash, survivors) =
            if dim == 16 { (0x1096600c503f5220, 1824) } else { (0x828fe8248da94e00, 31872) };
        let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(dim)).unwrap());
        let engine = EngineOptions { intervals, schedule, ..EngineOptions::default() };
        let opts = ParallelOptions { threads: 1, chunk_count: 32, engine, ..Default::default() };
        let (out, _) = run_parallel_report(&lp, &opts, FingerprintVisitor::new).unwrap();
        let at = format!("reduced({dim}) {schedule} intervals={intervals}");
        assert_eq!((out.visitor.hash, out.visitor.count), (hash, survivors), "{at}");
        let stats = PruneStats { evaluated: evaluated.into(), pruned: pruned.into(), survivors };
        assert_eq!(out.stats, stats, "{at}: PruneStats");
        let blocks = BlockStats {
            guard_runs: b[0],
            subtree_skips: b[1],
            congruence_skips: b[2],
            points_skipped: b[3],
            checks_elided: b[4],
            loops_solved: b[5],
            points_solved: b[6],
            loops_replayed: b[7],
            rows_replayed: b[8],
        };
        assert_eq!(out.blocks, blocks, "{at}: BlockStats");
    }
}

/// Guard verdicts pinned beyond GEMM: three seeded spaces from each of the
/// narrowing and replay generators, with a guard on every eligible loop
/// (`min_guard_fanout: 1` — at the default the generators' small nests get
/// no guard at all), reproduce the fingerprint, `PruneStats` and every
/// `BlockStats` counter that the stack-machine guard evaluator produced
/// before the register form replaced it, with congruence on and off, at
/// threads {1, 2} × chunks {1, 7}. The narrowing seeds carry interval and
/// congruence-only subtree skips and elisions that congruence moves; the
/// replay seeds carry elisions under replayed and solved loops.
#[test]
fn guard_verdicts_are_pinned_on_generated_spaces() {
    // (generator, seed, congruence, fingerprint, survivors, evaluated,
    // pruned, [guard_runs, subtree_skips, congruence_skips, points_skipped,
    // checks_elided, loops_solved, points_solved, loops_replayed,
    // rows_replayed]).
    type Pin = (&'static str, u64, bool, u64, u64, &'static [u64], &'static [u64], [u64; 9]);
    #[rustfmt::skip]
    let pins: [Pin; 12] = [
        ("narrow", 137, true, 0, 0, &[0, 0], &[0, 0], [3, 3, 3, 12, 0, 0, 0, 0, 0]),
        ("narrow", 137, false, 0, 0, &[12, 0], &[12, 0], [3, 0, 0, 0, 0, 3, 12, 0, 0]),
        ("narrow", 43, true, 0x10fa0237bfda7433, 2, &[1, 1, 2], &[0, 0, 0], [3, 1, 0, 1, 2, 0, 0, 0, 0]),
        ("narrow", 43, false, 0x10fa0237bfda7433, 2, &[1, 1, 2], &[0, 0, 0], [3, 1, 0, 1, 1, 0, 0, 0, 0]),
        ("narrow", 158, true, 0xfefba46b928bb2d8, 13, &[12, 6], &[6, 1], [3, 0, 0, 0, 9, 2, 8, 5, 8]),
        ("narrow", 158, false, 0xfefba46b928bb2d8, 13, &[12, 6], &[6, 1], [3, 0, 0, 0, 4, 2, 8, 5, 8]),
        ("replay", 9, true, 0xf1f3f091506ebf00, 1056, &[360, 48, 396, 1584], &[312, 4, 132, 528],
         [652, 0, 0, 0, 44, 48, 360, 156, 792]),
        ("replay", 9, false, 0xf1f3f091506ebf00, 1056, &[360, 48, 396, 1584], &[312, 4, 132, 528],
         [652, 0, 0, 0, 44, 48, 360, 156, 792]),
        ("replay", 10, true, 0x84f1a4b7ea827fd8, 11880, &[90, 12, 54, 1080], &[78, 6, 18, 360],
         [381, 0, 0, 0, 4, 12, 90, 3780, 5400]),
        ("replay", 10, false, 0x84f1a4b7ea827fd8, 11880, &[90, 12, 54, 1080], &[78, 6, 18, 360],
         [381, 0, 0, 0, 4, 12, 90, 3780, 5400]),
        ("replay", 22, true, 0x9f72058a264243b0, 80, &[600, 80, 120], &[520, 60, 40],
         [142, 0, 0, 0, 10, 80, 600, 4, 76]),
        ("replay", 22, false, 0x9f72058a264243b0, 80, &[600, 80, 120], &[520, 60, 40],
         [142, 0, 0, 0, 10, 80, 600, 4, 76]),
    ];
    for (family, seed, congruence, hash, survivors, evaluated, pruned, b) in pins {
        let (space, order) = if family == "narrow" {
            (narrow_gen::generate(seed).space, PlanOptions::default().order)
        } else {
            let g = replay_gen::generate(seed);
            (g.space, LoopOrder::Explicit(g.order))
        };
        let plan = Plan::new(&space, PlanOptions { order, ..PlanOptions::default() }).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();
        let engine = EngineOptions { congruence, min_guard_fanout: 1, ..EngineOptions::default() };
        let stats =
            PruneStats { evaluated: evaluated.to_vec(), pruned: pruned.to_vec(), survivors };
        let blocks = BlockStats {
            guard_runs: b[0],
            subtree_skips: b[1],
            congruence_skips: b[2],
            points_skipped: b[3],
            checks_elided: b[4],
            loops_solved: b[5],
            points_solved: b[6],
            loops_replayed: b[7],
            rows_replayed: b[8],
        };
        for threads in [1, 2] {
            for chunk_count in [1, 7] {
                let opts = ParallelOptions { threads, chunk_count, engine, ..Default::default() };
                let (out, _) = run_parallel_report(&lp, &opts, FingerprintVisitor::new).unwrap();
                let at = format!(
                    "{family} seed {seed}, congruence={congruence}, {threads} threads × {chunk_count} chunks"
                );
                assert_eq!((out.visitor.hash, out.visitor.count), (hash, survivors), "{at}");
                assert_eq!(out.stats, stats, "{at}: PruneStats");
                assert_eq!(out.blocks, blocks, "{at}: BlockStats");
            }
        }
    }
}

/// The runtime-native tier (chunks evaluated in gcc-compiled worker
/// processes) reproduces the compiled tier bit for bit at every thread
/// count: same survivors, same emission order, and — against a compiled
/// engine normalized to the worker's per-point declared-order accounting —
/// identical `PruneStats` and identical `BlockStats`: the emitted C solves
/// the same reshape loops the in-process engine solves, so a native chunk
/// and its in-process fallback twin report the same `loops_solved` /
/// `points_solved`. Workers are resident: at most one process per thread.
/// On hosts without a C compiler the tier must silently fall back and
/// still produce the identical outcome.
#[test]
fn native_tier_matches_compiled_bit_for_bit() {
    use beast_core::schedule::ScheduleMode;

    let lp = lower(&gemm_space());
    let compiled = Compiled::new(lp.clone());
    let names = compiled.point_names().clone();
    let baseline = compiled
        .run(CollectVisitor::new(names.clone(), usize::MAX))
        .unwrap();
    // Stats reference: native workers account per point in declared order
    // with no block pruning, so the comparable in-process run disables the
    // interval/congruence product and reordering (batching stays on — it is
    // stats-invisible, see `batch_on_and_off_agree_at_every_thread_count`).
    let normalized = Compiled::with_options(
        lp.clone(),
        EngineOptions {
            intervals: false,
            congruence: false,
            schedule: ScheduleMode::Declared,
            ..EngineOptions::native()
        },
    )
    .run(CollectVisitor::new(names.clone(), usize::MAX))
    .unwrap();
    assert_eq!(
        normalized.visitor.points, baseline.visitor.points,
        "normalization itself must not change survivors or order"
    );

    for threads in THREAD_COUNTS {
        let opts = ParallelOptions {
            threads,
            engine: EngineOptions::native(),
            ..ParallelOptions::default()
        };
        let (par, report) = run_parallel_report(&lp, &opts, || {
            CollectVisitor::new(names.clone(), usize::MAX)
        })
        .unwrap();
        assert_eq!(
            par.visitor.points, baseline.visitor.points,
            "native visit order diverged from compiled at {threads} threads"
        );
        assert_eq!(
            par.stats, normalized.stats,
            "native PruneStats diverged from declared-order compiled at {threads} threads"
        );
        assert!(normalized.blocks.loops_solved > 0, "reduced(16) solves its reshape loops");
        // The worker neither guards nor replays: compare what both define.
        assert_eq!(
            par.blocks,
            BlockStats { loops_replayed: 0, rows_replayed: 0, ..normalized.blocks },
            "native narrowing counters diverged from the fallback engine's at {threads} threads"
        );
        assert_eq!(report.loops_solved, normalized.blocks.loops_solved);
        if beast_codegen::find_c_compiler().is_some() {
            let n = report
                .native
                .expect("a C compiler is present: the native tier must be active");
            assert!(n.chunks_native > 0, "no chunks ran in worker processes");
            assert_eq!(n.chunks_fallback, 0, "healthy workers must not fall back");
            assert!(
                (1..=n.chunks_native.min(threads as u64)).contains(&n.workers_spawned),
                "{} worker(s) for {} chunk(s) at {threads} threads",
                n.workers_spawned,
                n.chunks_native
            );
            assert_eq!(
                n.rows_streamed, par.stats.survivors,
                "streamed rows must equal survivors at {threads} threads"
            );
        }
    }
}

/// Same bit-identity contract on the larger reduced(32) GEMM device,
/// pinned through the order-sensitive survivor fingerprint (collecting
/// every point would dominate the suite's runtime at this size).
#[test]
fn native_tier_fingerprints_match_on_reduced_32() {
    let space = build_gemm_space(&GemmSpaceParams::reduced(32)).unwrap();
    let lp = lower(&space);
    let baseline = Compiled::new(lp.clone()).run(FingerprintVisitor::new()).unwrap();
    assert!(baseline.visitor.count > 0, "degenerate reduced(32) space");
    for threads in THREAD_COUNTS {
        let opts = ParallelOptions {
            threads,
            engine: EngineOptions::native(),
            ..ParallelOptions::default()
        };
        let (par, _) = run_parallel_report(&lp, &opts, FingerprintVisitor::new).unwrap();
        assert_eq!(
            (par.visitor.count, par.visitor.hash),
            (baseline.visitor.count, baseline.visitor.hash),
            "native fingerprint diverged on reduced(32) at {threads} threads"
        );
    }
}

/// Forcing pathologically fine chunks (1 outer value per chunk) still
/// reproduces the serial outcome — chunk granularity is invisible.
#[test]
fn chunk_granularity_is_invisible() {
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let compiled = Compiled::new(lp.clone());
        let names = compiled.point_names().clone();
        let serial = compiled
            .run(CollectVisitor::new(names.clone(), usize::MAX))
            .unwrap();
        for chunk_count in [3, 21, 3072] {
            let opts = ParallelOptions { threads: 3, chunk_count, ..ParallelOptions::default() };
            let (par, _) = run_parallel_report(&lp, &opts, || {
                CollectVisitor::new(names.clone(), usize::MAX)
            })
            .unwrap();
            assert_eq!(
                par.visitor.points, serial.visitor.points,
                "{name}: chunk_count={chunk_count} changed results"
            );
            assert_eq!(par.stats, serial.stats, "{name}");
        }
    }
}

/// The adaptive schedule is a compile-time decision: calibration is a pure
/// function of plan and options, and the learned order is compiled into
/// the same op stream a declared schedule runs. So — strictly stronger than
/// "credit may move" — at every thread count and on every chunk grid,
/// survivors and emission order equal the walker's, and `PruneStats`,
/// `BlockStats` and the reported schedule are *equal across all grids*.
#[test]
fn adaptive_counters_are_invariant_across_threads_and_chunk_grids() {
    use beast_core::schedule::ScheduleMode;
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let walker = Walker::new(&plan, LoopStyle::RangeLazy);
        let names = walker.point_names().clone();
        let reference = walker
            .run(CollectVisitor::new(names.clone(), usize::MAX))
            .unwrap()
            .visitor
            .points;
        let engine = EngineOptions::scheduled(ScheduleMode::Adaptive);
        let mut baseline = None;
        for threads in THREAD_COUNTS {
            for chunk_count in [1, 7, 32] {
                let opts = ParallelOptions {
                    threads,
                    chunk_count,
                    engine,
                    ..ParallelOptions::default()
                };
                let (par, _) = run_parallel_report(&lp, &opts, || {
                    CollectVisitor::new(names.clone(), usize::MAX)
                })
                .unwrap();
                let at = format!("{name}: threads={threads} chunks={chunk_count}");
                assert_eq!(par.visitor.points, reference, "{at}: survivors or order");
                assert!(par.schedule.is_some(), "{at}: adaptive sweeps report a schedule");
                let counters = (par.stats, par.blocks, par.schedule);
                match &baseline {
                    None => baseline = Some(counters),
                    Some(b) => assert_eq!(&counters, b, "{at}: counters moved"),
                }
            }
        }
        let (_, _, schedule) = baseline.unwrap();
        // The serial engine agrees with every grid.
        let serial = Compiled::with_options(lp.clone(), engine);
        assert_eq!(serial.learned_orders(), schedule, "{name}");
    }
}

/// Two builds of the same plan calibrate to the same engine: identical
/// learned orders, identical executed check ranks, identical counters.
#[test]
fn adaptive_calibration_is_deterministic() {
    use beast_core::schedule::ScheduleMode;
    for (name, space) in all_spaces() {
        let lp = lower(&space);
        let engine = EngineOptions::scheduled(ScheduleMode::Adaptive);
        let a = Compiled::with_options(lp.clone(), engine);
        let b = Compiled::with_options(lp.clone(), engine);
        assert_eq!(a.learned_orders(), b.learned_orders(), "{name}");
        assert_eq!(a.schedule_telemetry().ranks, b.schedule_telemetry().ranks, "{name}");
        let (ra, rb) = (
            a.run(CountVisitor::default()).unwrap(),
            b.run(CountVisitor::default()).unwrap(),
        );
        assert_eq!((ra.stats, ra.blocks), (rb.stats, rb.blocks), "{name}");
    }
}

/// A space whose very first calibration sample raises an evaluation error
/// still compiles (calibration keeps the declared order), and the error
/// surfaces from the real run exactly as under a declared schedule, for
/// each fault policy.
#[test]
fn calibration_errors_surface_from_the_real_run_under_each_policy() {
    use beast_core::schedule::ScheduleMode;
    use beast_engine::fault::FaultPolicy;
    let space = Space::builder("det_calib_err")
        .range("x", 0, 12)
        .derived("inv", lit(60) / var("x"))
        .range("y", 1, 9)
        .range("z", 1, 9)
        .derived("yz", var("y") * var("z") + var("inv"))
        .constraint("rare", ConstraintClass::Soft, var("yz").gt(120))
        .constraint("deadly", ConstraintClass::Hard, var("yz").gt(30))
        .build()
        .unwrap();
    let lp = lower(&space);
    let adaptive = EngineOptions::scheduled(ScheduleMode::Adaptive);
    let engine = Compiled::with_options(lp.clone(), adaptive);
    let names = engine.point_names().clone();
    assert_eq!(engine.learned_orders().map(|o| o.len()), Some(1), "one reorder-safe group");
    for policy in [
        FaultPolicy::Abort,
        FaultPolicy::SkipPoint,
        FaultPolicy::QuarantineChunk,
        FaultPolicy::Retry { max: 1, backoff_ms: 0 },
    ] {
        let run = |engine| {
            let opts = ParallelOptions {
                threads: 2,
                chunk_count: 4,
                fault_policy: policy,
                engine,
                ..ParallelOptions::default()
            };
            run_parallel_report(&lp, &opts, || CollectVisitor::new(names.clone(), usize::MAX))
        };
        match (run(adaptive), run(EngineOptions::default())) {
            (Err(a), Err(d)) => {
                assert_eq!(policy, FaultPolicy::Abort);
                assert_eq!(a.to_string(), d.to_string());
                assert!(a.to_string().contains("division by zero"), "{a}");
            }
            (Ok((a, ra)), Ok((d, rd))) => {
                assert_ne!(policy, FaultPolicy::Abort);
                assert_eq!(a.visitor.points, d.visitor.points, "{policy:?}");
                assert_eq!(ra.faults, rd.faults, "{policy:?}");
                assert!(!ra.faults.is_empty(), "{policy:?}: the x = 0 fault must be recorded");
            }
            _ => panic!("{policy:?}: adaptive and declared disagree on failing"),
        }
    }
}

/// A sweep's outcome as digest text: prune and block counters, the
/// survivors' fingerprint and count, or the error.
fn outcome_text(out: Result<SweepOutcome<FingerprintVisitor>, EvalError>) -> String {
    match out {
        Ok(o) => {
            let v = &o.visitor;
            format!("|{:?}|{:?}|{:x}|{}", o.stats, o.blocks, v.hash, v.count)
        }
        Err(e) => format!("|{e}"),
    }
}

/// One FNV-1a digest of every static decision the abstract step program
/// feeds, on one lowered plan: the reorder-safe regions, the lint report,
/// the adaptive engine's learned orders and its sweep's outcome, the
/// counter's memo choices in survivor and tuple mode (the unique-key
/// recogniser) with its survivor count and statistics, and the engine's
/// `PruneStats` / `BlockStats` and fingerprint under a declared schedule
/// with intervals on — at the default guard placement and with a guard on
/// every eligible loop, congruence on and off. Asserts on the way that the
/// engine's lint gate, under either schedule, reports on the plan it runs.
fn static_decisions(lp: &LoweredPlan, fnv: &mut u64) {
    use beast_core::analyze::{self, AbsSteps, Counter};
    use beast_core::schedule::{check_regions, ScheduleMode};
    let lint = analyze::analyze(lp);
    let mut text = format!("{:?}|{lint:?}", check_regions(lp, &AbsSteps::new(lp)));
    // The engine's lint gate reports on the plan it runs: the declared
    // plan, or the plan in its learned order.
    for schedule in [ScheduleMode::Declared, ScheduleMode::Adaptive] {
        let engine = Compiled::with_options(lp.clone(), EngineOptions::scheduled(schedule));
        let gate = Some(analyze::analyze(engine.lowered()).summary());
        assert_eq!(engine.lint_summary(), gate, "{schedule}");
        if schedule == ScheduleMode::Adaptive {
            text += &format!("|{:?}", engine.learned_orders());
            text += &outcome_text(engine.run(FingerprintVisitor::new()));
        }
    }
    for mut counter in [Counter::new(lp), Counter::tuples(lp)] {
        let memo: Vec<bool> = counter.stats().levels.iter().map(|l| l.memo).collect();
        let total = counter.total();
        text += &format!("|{memo:?}|{total:?}|{:?}", counter.stats());
    }
    for (min_guard_fanout, congruence) in [(4, true), (1, true), (1, false)] {
        let engine = EngineOptions { min_guard_fanout, congruence, ..EngineOptions::default() };
        let out = Compiled::with_options(lp.clone(), engine).run(FingerprintVisitor::new());
        text += &outcome_text(out);
    }
    for b in text.bytes() {
        *fnv = (*fnv ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// The static decisions — regions, lint findings, memo choices,
/// pre-pass and guard verdicts, the adaptive schedule's learned orders and
/// the sweep they run — are pinned on spaces nobody hand-picked:
/// every seed the counter's differential suite draws from the narrowing,
/// parent-solve and replay generators, plus GEMM reduced(16) and (32).
#[test]
fn static_decisions_are_pinned_on_generated_and_gemm_spaces() {
    let fresh = || 0xcbf2_9ce4_8422_2325u64;
    let (mut narrow, mut parent, mut replay) = (fresh(), fresh(), fresh());
    for seed in 0..120u64 {
        static_decisions(&lower(&narrow_gen::generate(seed).space), &mut narrow);
        static_decisions(&lower(&narrow_gen::generate_parent(seed, false).space), &mut parent);
        let g = replay_gen::generate(seed);
        let options = PlanOptions { order: LoopOrder::Explicit(g.order), ..PlanOptions::default() };
        let lp = LoweredPlan::new(&Plan::new(&g.space, options).unwrap()).unwrap();
        static_decisions(&lp, &mut replay);
    }
    let mut gemm = [fresh(), fresh()];
    for (fnv, dim) in gemm.iter_mut().zip([16, 32]) {
        static_decisions(&lower(&build_gemm_space(&GemmSpaceParams::reduced(dim)).unwrap()), fnv);
    }
    let got = [narrow, parent, replay, gemm[0], gemm[1]];
    #[rustfmt::skip]
    let want = [
        0x8fc2dbb4d44eefc8, 0x9b687b7fcd7e83b4, 0xa9d2a94bfed634e7,
        0xcf35b6bb5b477cbb, 0xabdf832d2db483ac,
    ];
    assert_eq!(got, want, "narrow, parent, replay, reduced(16), reduced(32)");
}
