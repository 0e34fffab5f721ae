//! Determinism regression suite for the dynamic parallel scheduler.
//!
//! [`sweep`] pulls level-0 chunks off a shared atomic cursor, so *which
//! worker evaluates which chunk* is a race — but the merged outcome must not
//! be. These tests pin the contract documented on
//! [`beast_engine::parallel`]: for every space and every thread count, the
//! parallel sweep reproduces the serial [`Compiled::run`] bit for bit —
//! same survivors, same visit *order*, same [`PruneStats`] — and repeated
//! parallel runs reproduce each other.

use std::sync::Arc;

use beast::prelude::*;
use beast_core::ir::LoweredPlan;
use beast_engine::checkpoint::CheckpointConfig;
use beast_engine::compiled::EngineOptions;
use beast_engine::distribute::Workers;
use beast_engine::service::cache::SweepCache;
use beast_engine::sweep::{sweep, SweepError, SweepSpec};
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
            let (par, _) = sweep(&lp, &SweepSpec::new(threads), CountVisitor::default).unwrap();
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
            let (par, _) = sweep(&lp, &SweepSpec::new(threads), || {
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
            let (par, _) =
                sweep(&lp, &SweepSpec::new(threads), || CollectVisitor::new(names.clone(), 13))
                    .unwrap();
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
            let opts = SweepSpec::new(threads);
            let (a, ra) = sweep(&lp, &opts, CountVisitor::default).unwrap();
            let (b, rb) = sweep(&lp, &opts, CountVisitor::default).unwrap();
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
                let opts = SweepSpec { slots: threads, engine, ..SweepSpec::default() };
                let (par, _) = sweep(&lp, &opts, || {
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
                let opts = SweepSpec { slots: threads, engine, ..SweepSpec::default() };
                let (par, _) = sweep(&lp, &opts, || {
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
                let opts = SweepSpec {
                    slots: threads,
                    chunk_count: 12,
                    fault_policy: policy,
                    injector: Some(FaultInjector::new(7).error_rate(0.002)),
                    ..SweepSpec::default()
                };
                let (par, report) = sweep(&lp, &opts, || {
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
/// in the declared check order, for `repro sweep DIM --threads 1 --chunks
/// 32` with intervals on and off. Deleting the tier, the register-form
/// guard evaluator and the adaptive schedule moved none of them.
#[test]
fn scalar_engine_reproduces_the_pinned_gemm_fingerprints_and_counters() {
    // (dim, intervals, evaluated, pruned, [guard_runs,
    // subtree_skips, congruence_skips, points_skipped, checks_elided,
    // loops_solved, points_solved, loops_replayed, rows_replayed]).
    #[rustfmt::skip]
    let pins = [
        (16, true,
         [256, 16064, 16064, 16064, 16064, 16064, 16064, 256, 109440, 91136, 2240, 2112],
         [0, 0, 0, 0, 0, 0, 15312, 236, 107200, 89024, 1120, 288],
         [794, 370, 57, 7536, 48448, 17344, 200576, 723, 1767]),
        (16, false,
         [256, 32256, 32256, 32256, 32256, 32256, 32256, 256, 222912, 91136, 3904, 2112],
         [0, 0, 0, 0, 0, 0, 30048, 236, 219008, 89024, 2784, 288],
         [0, 0, 0, 0, 0, 37568, 314048, 2698, 1767]),
        (32, true,
         [1024, 346240, 346240, 346240, 346240, 346240, 282208, 1024, 8043776, 4744128, 90560, 61792],
         [0, 0, 0, 0, 0, 64032, 257824, 912, 7953216, 4682336, 61472, 29920],
         [8568, 3952, 718, 81856, 1039744, 817936, 12787904, 9488, 30693]),
        (32, false,
         [1024, 587776, 587776, 587776, 587776, 587776, 503488, 1024, 15501856, 4744128, 162016, 61792],
         [0, 0, 0, 0, 0, 84288, 450912, 912, 15339840, 4682336, 132928, 29920],
         [0, 0, 0, 0, 0, 1503472, 20245984, 31714, 30693]),
    ];
    for (dim, intervals, evaluated, pruned, b) in pins {
        let (hash, survivors) =
            if dim == 16 { (0x1096600c503f5220, 1824) } else { (0x828fe8248da94e00, 31872) };
        let lp = lower(&build_gemm_space(&GemmSpaceParams::reduced(dim)).unwrap());
        let engine = EngineOptions { intervals, ..EngineOptions::default() };
        let opts = SweepSpec { slots: 1, chunk_count: 32, engine, ..Default::default() };
        let (out, _) = sweep(&lp, &opts, FingerprintVisitor::new).unwrap();
        let at = format!("reduced({dim}) intervals={intervals}");
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
                let opts = SweepSpec { slots: threads, chunk_count, engine, ..Default::default() };
                let (out, _) = sweep(&lp, &opts, FingerprintVisitor::new).unwrap();
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
    let lp = lower(&gemm_space());
    let compiled = Compiled::new(lp.clone());
    let names = compiled.point_names().clone();
    let baseline = compiled
        .run(CollectVisitor::new(names.clone(), usize::MAX))
        .unwrap();
    // Stats reference: native workers account per point with no block
    // pruning, so the comparable in-process run disables the interval /
    // congruence product.
    let normalized = Compiled::with_options(
        lp.clone(),
        EngineOptions {
            intervals: false,
            congruence: false,
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
        let opts = SweepSpec {
            slots: threads,
            engine: EngineOptions::native(),
            ..SweepSpec::default()
        };
        let (par, report) = sweep(&lp, &opts, || {
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
        let opts = SweepSpec {
            slots: threads,
            engine: EngineOptions::native(),
            ..SweepSpec::default()
        };
        let (par, _) = sweep(&lp, &opts, FingerprintVisitor::new).unwrap();
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
            let opts = SweepSpec { slots: 3, chunk_count, ..SweepSpec::default() };
            let (par, _) = sweep(&lp, &opts, || {
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
/// feeds, on one lowered plan: the lint report, the counter's memo choices
/// in survivor and tuple mode (the unique-key recogniser) with its survivor
/// count and statistics, and the engine's `PruneStats` / `BlockStats` and
/// fingerprint with intervals on — at the default guard placement and with
/// a guard on every eligible loop, congruence on and off. Asserts on the
/// way that the engine's lint gate reports on the plan it runs.
fn static_decisions(lp: &LoweredPlan, fnv: &mut u64) {
    use beast_core::analyze::{self, Counter};
    let lint = analyze::analyze(lp);
    let mut text = format!("{lint:?}");
    // The engine's lint gate reports on the plan it runs.
    let engine = Compiled::new(lp.clone());
    assert_eq!(engine.lint_summary(), Some(lint.summary()));
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

/// The static decisions — lint findings, memo choices, pre-pass and guard
/// verdicts — are pinned on spaces nobody hand-picked:
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
        0x6290ba303bc05b77, 0x2a378c084e5e97c9, 0x0e677c24a8825c99,
        0x200b15e8c5e46c95, 0x489085ab66b7089a,
    ];
    assert_eq!(got, want, "narrow, parent, replay, reduced(16), reduced(32)");
}

/// A sweep's outcome in comparable form: the survivors' fingerprint and
/// count with the prune and block counters, or the error in full (site and
/// bindings included).
type Digest = Result<(u64, u64, PruneStats, BlockStats), String>;

fn digest(out: Result<SweepOutcome<FingerprintVisitor>, SweepError>) -> Digest {
    match out {
        Ok(o) => Ok((o.visitor.hash, o.visitor.count, o.stats, o.blocks)),
        Err(SweepError::Eval(e)) => Err(format!("{e:?}")),
        Err(e) => Err(format!("not an evaluation error: {e:?}")),
    }
}

/// Sweep `lp` every way there is and assert each agrees with the serial
/// [`Compiled::run`], which is returned. The walker must agree too
/// (survivors and `PruneStats` against the engine with block pruning off,
/// or the same root error). Then one loop sweeps every shape a spec takes,
/// within bounds: slots {1, 2, 8} × chunks {1, 7} in process; and on 2
/// slots and 7 chunks, the worker transport (an empty command, so every
/// shard runs in process), the cache (cold, then warm), the checkpoint
/// (stopped after one chunk, then resumed), the pairs of them the frame
/// composes, and the native tier against the engine normalized to its
/// accounting (it falls back in process where there is no C compiler or
/// the plan has closures). Every spec uses `policy`.
fn assert_every_path_agrees(
    lp: &LoweredPlan,
    policy: FaultPolicy,
    tag: &str,
) -> Result<SweepOutcome<FingerprintVisitor>, EvalError> {
    let serial = Compiled::new(lp.clone()).run(FingerprintVisitor::new());
    let want = match &serial {
        Ok(o) => Ok((o.visitor.hash, o.visitor.count, o.stats.clone(), o.blocks)),
        Err(e) => Err(format!("{e:?}")),
    };
    let normalized =
        EngineOptions { intervals: false, congruence: false, ..EngineOptions::native() };
    let plain = Compiled::with_options(lp.clone(), normalized).run(FingerprintVisitor::new());
    let walker = Walker::new(&lp.plan, LoopStyle::RangeLazy).run(FingerprintVisitor::new());
    match (&plain, &walker) {
        (Ok(p), Ok(w)) => assert_eq!(
            (p.visitor.hash, p.visitor.count, &p.stats),
            (w.visitor.hash, w.visitor.count, &w.stats),
            "{tag}: walker"
        ),
        (Err(p), Err(w)) => assert_eq!(p.root(), w.root(), "{tag}: walker"),
        _ => panic!("{tag}: walker {walker:?} against {plain:?}", walker = walker.is_ok()),
    }
    let want_native = digest(plain.map_err(SweepError::Eval));

    let dir = std::env::temp_dir().join("beast-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.json"));
    // A checkpointed sweep: stopped after one chunk, then resumed.
    let stopped_then_resumed = |spec: &SweepSpec<'_, FingerprintVisitor>| {
        let _ = std::fs::remove_file(&path);
        let ck = CheckpointConfig { path: path.clone(), every_chunks: 1, resume: false };
        let stopped = SweepSpec { stop_after_chunks: 1, ..spec.clone() }.checkpoint(ck.clone());
        let out = match sweep(lp, &stopped, FingerprintVisitor::new) {
            Ok((_, report)) if report.partial => {
                let resumed = spec.clone().checkpoint(CheckpointConfig { resume: true, ..ck });
                sweep(lp, &resumed, FingerprintVisitor::new)
            }
            done => done,
        };
        let _ = std::fs::remove_file(&path);
        out
    };
    let shapes = THREAD_COUNTS.iter().flat_map(|&slots| [1, 7].map(|chunks| (slots, chunks, "")));
    let attached = ["workers", "cache", "checkpoint", "cache, checkpoint", "cache, workers", "native"];
    for (slots, chunks, parts) in shapes.chain(attached.map(|parts| (2, 7, parts))) {
        let cache = SweepCache::new();
        let mut spec =
            SweepSpec { slots, chunk_count: chunks, fault_policy: policy, ..SweepSpec::default() };
        if parts == "native" {
            spec.engine = EngineOptions::native();
        }
        if parts.contains("workers") {
            spec = spec.workers(Workers::new(Vec::new()));
        }
        if parts.contains("cache") {
            spec = spec.cache(&cache, tag);
        }
        let want = if parts == "native" { &want_native } else { &want };
        let passes: &[&str] = if parts.contains("cache") { &["cold", "warm"] } else { &[""] };
        for pass in passes {
            let out = if parts.contains("checkpoint") {
                stopped_then_resumed(&spec)
            } else {
                sweep(lp, &spec, FingerprintVisitor::new)
            };
            assert_eq!(
                &digest(out.map(|o| o.0)),
                want,
                "{tag}: {slots} slots, {chunks} chunks [{parts}] {pass} against the serial run"
            );
        }
    }
    serial
}

/// Space A of the preamble suite: an expression define of a constant
/// bounds level 0 — with a passing preamble check when `checked` (the
/// emitted C worker takes the plan only without one).
fn preamble_expr_space(checked: bool) -> Arc<Space> {
    let mut b = Space::builder("preamble_expr").constant("cap", 5).derived("tile", var("cap") * 2);
    if checked {
        b = b.constraint("tile_cap", ConstraintClass::Hard, var("tile").gt(64));
    }
    b.range("x", 0, var("tile"))
        .range("y", 0, var("x") % 3 + 1)
        .constraint("xy", ConstraintClass::Soft, ((var("x") + var("y")) % 3).eq(0))
        .build()
        .unwrap()
}

/// Space B: an opaque closure of constants bounds level 0.
fn preamble_closure_space() -> Arc<Space> {
    Space::builder("preamble_closure")
        .constant("cap", 5)
        .derived_fn("tile", &["cap"], |env| Ok(Value::Int(env.require_int("cap")? * 2)))
        .range("x", 0, var("tile"))
        .range("y", 0, var("x") % 3 + 1)
        .constraint("xy", ConstraintClass::Soft, ((var("x") + var("y")) % 3).eq(0))
        .build()
        .unwrap()
}

/// A level-0 loop bounded by a preamble define — the shape of a tile count
/// derived from the problem size — sweeps to the same survivors,
/// fingerprint and counters on every path: every path realizes level 0
/// over the values the preamble wrote, not over zeroed slots.
#[test]
fn a_preamble_bounded_level_zero_is_identical_on_every_path() {
    let spaces = [
        ("expr", preamble_expr_space(false)),
        ("expr-checked", preamble_expr_space(true)),
        ("closure", preamble_closure_space()),
    ];
    for (tag, space) in spaces {
        let lp = lower(&space);
        let out = assert_every_path_agrees(&lp, FaultPolicy::Abort, tag).unwrap();
        assert_eq!(Compiled::new(lp.clone()).outer_domain().unwrap(), (0..10).collect::<Vec<_>>());
        let sums = (0..10i64).flat_map(|x| (0..x % 3 + 1).map(move |y| x + y));
        let want = sums.filter(|s| s % 3 != 0);
        assert_eq!(out.visitor.count, want.count() as u64, "{tag}");
        if tag == "expr-checked" {
            let row = (out.stats.evaluated[0], out.stats.pruned[0]);
            assert_eq!(row, (1, 0), "{tag}: preamble row");
        }
        if tag == "expr" && beast_codegen::find_c_compiler().is_some() {
            // The emitted C worker evaluates the preamble define itself.
            let opts = SweepSpec {
                slots: 2,
                chunk_count: 7,
                engine: EngineOptions::native(),
                ..SweepSpec::default()
            };
            let (_, report) = sweep(&lp, &opts, FingerprintVisitor::new).unwrap();
            let native = report.native.expect("a C compiler is present");
            assert!(native.chunks_native > 0 && native.chunks_fallback == 0, "{native:?}");
        }
    }
}

/// `cap = 0`, `a = cap + 1`, `b = 1 / cap`, `x in range(0, a + b)`.
fn faulting_preamble_space() -> Arc<Space> {
    Space::builder("preamble_fault")
        .constant("cap", 0)
        .derived("a", var("cap") + 1)
        .derived("b", lit(1) / var("cap"))
        .range("x", 0, var("a") + var("b"))
        .build()
        .unwrap()
}

/// A preamble that divides by zero raises one error everywhere — the
/// serial run's, with the site and the preamble value already written —
/// under every fault policy (there is no point to skip and no chunk to
/// quarantine: the sweep fails before any chunk is dealt).
#[test]
fn a_faulting_preamble_raises_the_same_error_at_every_entry_point() {
    let lp = lower(&faulting_preamble_space());
    for policy in [
        FaultPolicy::Abort,
        FaultPolicy::SkipPoint,
        FaultPolicy::QuarantineChunk,
        FaultPolicy::Retry { max: 1, backoff_ms: 0 },
    ] {
        let err = assert_every_path_agrees(&lp, policy, "fault").unwrap_err();
        assert_eq!(err.root(), &EvalError::DivisionByZero);
        let ctx = err.point_context().expect("point context");
        assert_eq!((ctx.site.as_str(), &ctx.bindings[..]), ("b", &[("a".to_string(), 1)][..]));
    }
    assert_eq!(Compiled::new(lp).outer_domain().unwrap_err().root(), &EvalError::DivisionByZero);
}

/// A preamble check that rejects the space records its row once —
/// `evaluated = pruned = 1` — on every path, a resumed checkpoint included.
#[test]
fn a_rejecting_preamble_records_its_row_once() {
    let space = Space::builder("preamble_reject")
        .constant("cap", 0)
        .derived("a", var("cap") + 1)
        .constraint("off", ConstraintClass::Generic, var("a").eq(1))
        .range("x", 0, 100)
        .build()
        .unwrap();
    let out = assert_every_path_agrees(&lower(&space), FaultPolicy::Abort, "reject").unwrap();
    assert_eq!(out.visitor.count, 0);
    assert_eq!((out.stats.evaluated[0], out.stats.pruned[0]), (1, 1));
}

/// An opaque preamble define is evaluated once per engine: not per chunk,
/// per thread, per sweep or per level-0 realization.
#[test]
fn an_opaque_preamble_closure_runs_once_per_engine() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let space = Space::builder("preamble_once")
        .constant("cap", 40)
        .derived_fn("tile", &["cap"], |env| {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Ok(Value::Int(env.require_int("cap")?))
        })
        .range("x", 0, var("tile"))
        .range("y", 0, 4)
        .build()
        .unwrap();
    let lp = lower(&space);
    let compiled = Compiled::new(lp.clone());
    let outer = compiled.outer_domain().unwrap();
    for chunk in outer.chunks(7) {
        compiled.run_outer_chunk(chunk, CountVisitor::default()).unwrap();
    }
    assert_eq!(compiled.run(CountVisitor::default()).unwrap().visitor.count, 160);
    assert_eq!(CALLS.swap(0, Ordering::SeqCst), 1, "one engine");
    for threads in THREAD_COUNTS {
        let opts = SweepSpec { slots: threads, chunk_count: 40, ..SweepSpec::default() };
        let (out, _) = sweep(&lp, &opts, CountVisitor::default).unwrap();
        assert_eq!(out.visitor.count, 160);
        assert_eq!(CALLS.swap(0, Ordering::SeqCst), 1, "one sweep at {threads} threads");
    }
}

/// The generated preamble family: constant-only expression and opaque
/// defines before level 0, read by its bounds and checks, some dividing by
/// a constant zero or rejecting the space — every seed agrees on every
/// path, and the family covers passing, rejecting and faulting preambles.
#[test]
fn generated_preamble_spaces_agree_on_every_path() {
    let (mut swept, mut empty, mut failed) = (0, 0, 0);
    for seed in 0..120u64 {
        let lp = lower(&narrow_gen::generate_with_preamble(seed));
        match assert_every_path_agrees(&lp, FaultPolicy::Abort, &format!("gen-{seed}")) {
            Ok(out) if out.visitor.count > 0 => swept += 1,
            Ok(_) => empty += 1,
            Err(_) => failed += 1,
        }
    }
    let counts = format!("{swept} swept, {empty} empty, {failed} failed");
    assert!(swept > 30 && empty > 5 && failed > 10, "{counts}");
}

/// The parent-coefficient family — a loop that solves its child, with
/// zero, faulting and wrap-adjacent coefficients, `k = 0`, negative steps
/// and empty ranges — agrees with the walker (survivors, fingerprint and
/// `PruneStats` with block pruning off, or the root error) wherever the
/// walker's checked arithmetic does not overflow on a value the wrapping
/// engine accepts, and with the serial run on every thread × chunk grid,
/// through the worker transport and the cache, counters included. (The
/// native tier is left out: its workers do not replay, and this family
/// has unread loops.)
#[test]
fn generated_parent_solves_agree_on_every_path() {
    let (mut swept, mut failed, mut wrapped) = (0, 0, 0);
    for seed in 0..60u64 {
        let lp = lower(&narrow_gen::generate_parent(seed, false).space);
        let plain = Compiled::with_options(lp.clone(), EngineOptions::no_intervals())
            .run(FingerprintVisitor::new());
        let walker = Walker::new(&lp.plan, LoopStyle::RangeLazy).run(FingerprintVisitor::new());
        match (&plain, &walker) {
            (Ok(p), Ok(w)) => assert_eq!(
                (p.visitor.hash, p.visitor.count, &p.stats),
                (w.visitor.hash, w.visitor.count, &w.stats),
                "seed {seed}: walker"
            ),
            (Err(p), Err(w)) => assert_eq!(p.root(), w.root(), "seed {seed}: walker"),
            _ => {
                wrapped += 1;
                continue;
            }
        }
        let want = digest(
            Compiled::new(lp.clone()).run(FingerprintVisitor::new()).map_err(SweepError::Eval),
        );
        let shapes =
            THREAD_COUNTS.iter().flat_map(|&slots| [1, 7].map(|chunks| (slots, chunks, "")));
        for (slots, chunks, parts) in shapes.chain(["workers", "cache"].map(|parts| (2, 7, parts)))
        {
            let cache = SweepCache::new();
            let mut spec = SweepSpec { slots, chunk_count: chunks, ..SweepSpec::default() };
            if parts == "workers" {
                spec = spec.workers(Workers::new(Vec::new()));
            }
            if parts == "cache" {
                spec = spec.cache(&cache, "parent");
            }
            let passes: &[&str] = if parts == "cache" { &["cold", "warm"] } else { &[""] };
            for pass in passes {
                let out = sweep(&lp, &spec, FingerprintVisitor::new).map(|o| o.0);
                let at = format!("seed {seed}: {slots} slots, {chunks} chunks [{parts}] {pass}");
                assert_eq!(digest(out), want, "{at}");
            }
        }
        if want.is_ok() {
            swept += 1;
        } else {
            failed += 1;
        }
    }
    let counts = format!("{swept} swept, {failed} failed, {wrapped} wrapped");
    assert!(swept > 30 && failed > 5 && wrapped < 15, "{counts}");
}
