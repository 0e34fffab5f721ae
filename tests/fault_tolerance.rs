//! Fault-tolerance regression suite for the sweep supervisor.
//!
//! Pins the contracts documented on [`beast_engine::parallel`] and
//! [`beast_engine::checkpoint`]:
//!
//! - Injected faults are keyed on `(seed, chunk, ordinal, attempt)` only,
//!   so with a pinned chunk grid the *same* faults fire — and the same
//!   structured [`FaultRecord`]s come back — at every thread count.
//! - Recovery policies degrade deterministically: `SkipPoint` drops exactly
//!   the faulted points, `QuarantineChunk` drops exactly the faulted
//!   chunks, and `Retry` over transient faults reproduces the un-faulted
//!   sweep bit for bit (with idempotent progress accounting).
//! - Injected panics are caught at the chunk boundary and never poison the
//!   orchestrator.
//! - An interrupted checkpointed sweep, resumed, is bit-identical to an
//!   uninterrupted run: same survivors, same emission order (fingerprint),
//!   same merged [`PruneStats`].
//! - The dispatcher is invisible: a distributed sweep whose slots evaluate
//!   in-process shares the threaded sweep's frame and attempt loop, so it
//!   gives the same outcome and fault records, and either side resumes the
//!   other's checkpoints.

use std::sync::Arc;

use beast::prelude::*;
use beast_core::ir::LoweredPlan;
use beast_engine::checkpoint::CheckpointConfig;
use beast_engine::distribute::Workers;
use beast_engine::fault::{FaultKind, FaultPolicy};
use beast_engine::sweep::{sweep, SweepSpec};
use beast_gemm::{build_gemm_space, GemmSpaceParams};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Pinned chunk grid: injector decisions and checkpoint prefixes are keyed
/// on chunk indices, so every run in this suite uses the same grid.
const CHUNKS: usize = 16;

fn gemm_lowered() -> LoweredPlan {
    let space = build_gemm_space(&GemmSpaceParams::reduced(16)).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

fn opts<V>(threads: usize) -> SweepSpec<'static, V> {
    SweepSpec {
        slots: threads,
        chunk_count: CHUNKS,
        ..SweepSpec::default()
    }
}

/// A unique scratch path for checkpoint files.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("beast-fault-tolerance");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Injected errors under `SkipPoint` and `QuarantineChunk` produce the
/// same survivors, same fingerprint, and byte-identical fault records at
/// every thread count.
#[test]
fn injected_faults_are_thread_count_invariant() {
    let lp = gemm_lowered();
    for policy in [FaultPolicy::SkipPoint, FaultPolicy::QuarantineChunk] {
        let mut baseline: Option<(FingerprintVisitor, Vec<FaultRecord>, PruneStats)> = None;
        for threads in THREAD_COUNTS {
            let mut o = opts(threads);
            o.fault_policy = policy;
            o.injector = Some(FaultInjector::new(42).error_rate(0.001));
            let (out, report) =
                sweep(&lp, &o, FingerprintVisitor::default).unwrap();
            assert!(!report.partial, "{policy:?}: faulted sweep marked partial");
            assert!(
                !report.faults.is_empty(),
                "{policy:?}: injector never fired — rate too low for this space"
            );
            match &baseline {
                None => baseline = Some((out.visitor, report.faults, out.stats)),
                Some((fp, faults, stats)) => {
                    assert_eq!(
                        &out.visitor, fp,
                        "{policy:?}: fingerprint diverged at {threads} threads"
                    );
                    assert_eq!(
                        &report.faults, faults,
                        "{policy:?}: fault records diverged at {threads} threads"
                    );
                    assert_eq!(
                        &out.stats, stats,
                        "{policy:?}: stats diverged at {threads} threads"
                    );
                }
            }
        }
    }
}

/// `SkipPoint` loses at most one survivor per fault record; every other
/// point of the un-faulted sweep is still emitted, in order.
#[test]
fn skip_point_drops_at_most_the_faulted_points() {
    let lp = gemm_lowered();
    let (clean, _) = sweep(&lp, &opts(2), FingerprintVisitor::default).unwrap();
    let mut o = opts(2);
    o.fault_policy = FaultPolicy::SkipPoint;
    o.injector = Some(FaultInjector::new(42).error_rate(0.001));
    let (faulted, report) = sweep(&lp, &o, FingerprintVisitor::default).unwrap();
    let skipped = report.fault_counters.points_skipped;
    assert!(skipped > 0, "injector never fired");
    assert!(
        clean.visitor.count - faulted.visitor.count <= skipped,
        "skip dropped more survivors ({} → {}) than faults recorded ({skipped})",
        clean.visitor.count,
        faulted.visitor.count
    );
}

/// Transient faults under `Retry` recover completely: the outcome is
/// bit-identical to the un-faulted sweep, every fault shows up as a
/// `Retried` record, and the progress counter stays idempotent — retried
/// chunks are counted once, not once per attempt.
#[test]
fn transient_retry_reproduces_the_unfaulted_sweep() {
    let lp = gemm_lowered();
    let (clean, _) = sweep(&lp, &opts(2), FingerprintVisitor::default).unwrap();
    for threads in THREAD_COUNTS {
        let progress = Arc::new(SweepProgress::default());
        let mut o = opts(threads);
        o.fault_policy = FaultPolicy::Retry { max: 2, backoff_ms: 0 };
        o.injector = Some(FaultInjector::new(42).error_rate(0.001).transient(true));
        o.progress = Some(progress.clone());
        let (out, report) = sweep(&lp, &o, FingerprintVisitor::default).unwrap();
        assert_eq!(
            out.visitor, clean.visitor,
            "retry over transient faults diverged at {threads} threads"
        );
        assert_eq!(out.stats, clean.stats, "stats diverged at {threads} threads");
        assert!(report.fault_counters.retries > 0, "injector never fired");
        assert_eq!(
            report.fault_counters.chunks_quarantined, 0,
            "transient faults should never exhaust two retries"
        );
        // Idempotent accounting (the double-count bug): chunks and tuples
        // are credited when a chunk *folds*, not per attempt.
        let snap = progress.snapshot();
        assert_eq!(snap.chunks_done, report.chunks, "chunks over-counted at {threads} threads");
        assert_eq!(
            snap.tuples_decided,
            out.stats.survivors + out.stats.total_pruned(),
            "tuples_decided over-counted on retried chunks at {threads} threads"
        );
    }
}

/// Injected panics are confined to their chunk: the sweep completes, the
/// process never aborts, and each panic is a structured record.
#[test]
fn injected_panics_never_poison_the_orchestrator() {
    let lp = gemm_lowered();
    let mut baseline: Option<(FingerprintVisitor, Vec<FaultRecord>)> = None;
    for threads in THREAD_COUNTS {
        let mut o = opts(threads);
        o.fault_policy = FaultPolicy::QuarantineChunk;
        o.injector = Some(FaultInjector::new(11).panic_rate(0.3));
        let (out, report) =
            sweep(&lp, &o, FingerprintVisitor::default).unwrap();
        assert!(report.fault_counters.panics > 0, "injector never fired");
        assert_eq!(
            report.fault_counters.panics, report.fault_counters.chunks_quarantined,
            "every panic quarantines exactly one chunk"
        );
        for r in &report.faults {
            assert_eq!(r.kind, FaultKind::Panic);
            assert!(r.error.contains("injected panic"), "unexpected payload: {}", r.error);
        }
        match &baseline {
            None => baseline = Some((out.visitor, report.faults)),
            Some((fp, faults)) => {
                assert_eq!(&out.visitor, fp, "panic set diverged at {threads} threads");
                assert_eq!(&report.faults, faults, "records diverged at {threads} threads");
            }
        }
    }
}

/// A space whose `x` loop is narrowed (`spelled` = false) or, spelled with a
/// redundant `|| 0` the recogniser does not see through, enumerated
/// (`spelled` = true). Same names, same evaluation order, same survivors —
/// and the check's coefficient `12 / (o - 2)` divides by zero at `o = 2`.
fn narrowable_space(spelled: bool) -> LoweredPlan {
    let first = (var("x") * (lit(12) / (var("o") - 2))).ne(var("t"));
    let space = Space::builder("ft_narrow")
        .range("o", 0, 12)
        .derived("t", var("o") * 3)
        .range("x", 1, lit(20) + var("o"))
        .constraint(
            "first",
            ConstraintClass::Correctness,
            if spelled { first.or(lit(0)) } else { first },
        )
        .range("y", 0, 6)
        .constraint("odd", ConstraintClass::Soft, ((var("x") + var("y")) % 2).ne(0))
        .build()
        .unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

/// Narrowing under every fault policy, with and without the injector: a
/// coefficient that fails to evaluate falls through to the enumerating
/// path, so the narrowed engine reports the same survivors, stats and
/// `FaultRecord`s — sites, ordinals, bindings — as the enumerating
/// reference, and injected faults (keyed on visit ordinals, which narrowing
/// does not move) land on the same points.
#[test]
fn narrowed_loops_fault_exactly_like_enumerated_ones() {
    let (narrowed, reference) = (narrowable_space(false), narrowable_space(true));
    for policy in [FaultPolicy::SkipPoint, FaultPolicy::QuarantineChunk, FaultPolicy::Abort] {
        for inject in [false, true] {
            for threads in THREAD_COUNTS {
                let run = |lp: &LoweredPlan| {
                    let mut o = opts(threads);
                    o.chunk_count = 4;
                    o.fault_policy = policy;
                    if inject {
                        o.injector = Some(FaultInjector::new(7).error_rate(0.05));
                    }
                    sweep(lp, &o, FingerprintVisitor::default)
                };
                let at = format!("{policy:?}, inject={inject}, {threads} threads");
                match (run(&narrowed), run(&reference)) {
                    (Ok((n, n_report)), Ok((r, r_report))) => {
                        assert_ne!(policy, FaultPolicy::Abort, "{at}: o = 2 must fault");
                        assert_eq!(n.visitor, r.visitor, "{at}: fingerprint");
                        assert_eq!(n.stats, r.stats, "{at}: PruneStats");
                        assert_eq!(n_report.faults, r_report.faults, "{at}: fault records");
                        assert!(
                            n_report.faults.iter().any(|f| f.site == "first"),
                            "{at}: the faulting coefficient never fired"
                        );
                        assert!(n.blocks.loops_solved > 0, "{at}: nothing narrowed");
                        assert_eq!(r.blocks.loops_solved, 0, "{at}: reference narrowed");
                    }
                    (Err(n), Err(r)) => {
                        assert_eq!(policy, FaultPolicy::Abort, "{at}: {n}");
                        assert_eq!(n.to_string(), r.to_string(), "{at}: abort error");
                    }
                    (n, r) => panic!("{at}: one side failed: {:?} vs {:?}", n.is_ok(), r.is_ok()),
                }
            }
        }
    }
}

/// A space whose `u` and `v` loops are read by nothing, so the engine
/// replays them (`spelled` = false) — or, with `u - u` spelled into a later
/// bind bound (never folded, always zero), enumerates `u` like any other
/// loop (`spelled` = true). Same names, same evaluation order, same
/// survivors — and `bad` divides by zero at `o = 2, x = 3` (one chunk, so an
/// aborting sweep has one error to report at any thread count), inside `u`'s
/// body and outside `v`'s.
fn replayable_space(spelled: bool) -> LoweredPlan {
    let y_stop = if spelled { lit(4) + (var("u") - var("u")) } else { lit(4) };
    let space = Space::builder("ft_replay")
        .range("o", 0, 6)
        .range("u", 0, 3)
        .range("x", 1, 8)
        .derived(
            "bad",
            lit(12) / ((var("x") - 3) * (var("x") - 3) + (var("o") - 2) * (var("o") - 2)),
        )
        .constraint("big", ConstraintClass::Hard, var("bad").gt(5))
        .range("v", 0, 2)
        .range("y", 0, y_stop)
        .constraint("odd", ConstraintClass::Soft, ((var("x") + var("y")) % 2).ne(0))
        .build()
        .unwrap();
    let order = LoopOrder::Explicit(["o", "u", "x", "v", "y"].map(String::from).to_vec());
    let plan = Plan::new(&space, PlanOptions { order, ..PlanOptions::default() }).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

/// Replay under every fault policy, with and without the injector: a body
/// that faults abandons its recording and every value faults for itself,
/// so the replaying engine reports the same survivors, counters and
/// `FaultRecord`s — sites, ordinals, bindings, order — as the enumerating
/// reference, while the fault-free `v` loop below the fault site still
/// replays. With an injector attached nothing replays at all.
#[test]
fn replayed_loops_fault_exactly_like_enumerated_ones() {
    let (replayed, reference) = (replayable_space(false), replayable_space(true));
    let policies = [
        FaultPolicy::SkipPoint,
        FaultPolicy::Retry { max: 1, backoff_ms: 0 },
        FaultPolicy::QuarantineChunk,
        FaultPolicy::Abort,
    ];
    for policy in policies {
        for inject in [false, true] {
            for threads in THREAD_COUNTS {
                let run = |lp: &LoweredPlan| {
                    let mut o = opts(threads);
                    o.chunk_count = 3;
                    o.fault_policy = policy;
                    if inject {
                        o.injector = Some(FaultInjector::new(7).error_rate(0.05));
                    }
                    sweep(lp, &o, FingerprintVisitor::default)
                };
                let at = format!("{policy:?}, inject={inject}, {threads} threads");
                match (run(&replayed), run(&reference)) {
                    (Ok((n, n_report)), Ok((r, r_report))) => {
                        assert_ne!(policy, FaultPolicy::Abort, "{at}: o = 2, x = 3 must fault");
                        assert_eq!(n.visitor, r.visitor, "{at}: fingerprint");
                        assert_eq!(n.stats, r.stats, "{at}: PruneStats");
                        assert_eq!(n_report.faults, r_report.faults, "{at}: fault records");
                        assert_eq!(n_report.fault_counters, r_report.fault_counters, "{at}");
                        assert!(
                            n_report.faults.iter().any(|f| f.site == "bad"),
                            "{at}: the faulting define never fired"
                        );
                        // Replay is invisible in every other counter, and
                        // happens: `v` on both sides, `u` only in the plain
                        // spelling and only where its body did not fault.
                        // Guard runs are left out: the spelled bound makes
                        // a different plan, with guards at other loops.
                        let quiet = |b: BlockStats| BlockStats {
                            guard_runs: 0,
                            loops_replayed: 0,
                            rows_replayed: 0,
                            ..b
                        };
                        assert_eq!(quiet(n.blocks), quiet(r.blocks), "{at}: BlockStats");
                        assert_eq!(n.blocks.loops_replayed > 0, !inject, "{at}");
                        assert_eq!(r.blocks.loops_replayed > 0, !inject, "{at}");
                        assert_eq!(n.blocks.rows_replayed > r.blocks.rows_replayed, !inject, "{at}");
                    }
                    (Err(n), Err(r)) => {
                        assert_eq!(policy, FaultPolicy::Abort, "{at}: {n}");
                        // Injected faults hit every chunk; with threads to
                        // race, which chunk aborts the sweep first is open.
                        if !inject || threads == 1 {
                            assert_eq!(n.to_string(), r.to_string(), "{at}: abort error");
                        }
                    }
                    (n, r) => panic!("{at}: one side failed: {:?} vs {:?}", n.is_ok(), r.is_ok()),
                }
            }
        }
    }
    // The premise: the plain spelling may replay `u` and `v`, the reference
    // only `v` (loops in nest order: o u x v y).
    let replayable = |lp: &LoweredPlan| -> Vec<bool> {
        beast::core::analyze::levels::levels(lp).levels.iter().map(|l| l.replayable).collect()
    };
    assert_eq!(replayable(&replayed), [false, true, false, true, false]);
    assert_eq!(replayable(&reference), [false, false, false, true, false]);
}

/// A visitor that trips a cancel token on its `after`-th survivor.
struct CancelAfter {
    token: Arc<CancelToken>,
    after: u64,
    seen: u64,
}

impl Visitor for CancelAfter {
    fn visit(&mut self, _: &PointRef<'_>) {
        self.seen += 1;
        if self.seen == self.after {
            self.token.cancel();
        }
    }

    fn merge(&mut self, other: Self) {
        self.seen += other.seen;
    }
}

/// Cancel mid-replay: one chunk whose 5000 survivors are one evaluated
/// point and 4999 replayed rows. The token trips on the tenth survivor;
/// only the replay's own poll can notice before the chunk completes (its
/// two loop advances are far below the poll cadence), so the chunk is
/// dropped and the sweep degrades to partial.
#[test]
fn cancel_mid_replay_drops_the_chunk() {
    let space = Space::builder("ft_replay_cancel")
        .range("o", 0, 1)
        .range("u", 0, 5000)
        .build()
        .unwrap();
    let lp = LoweredPlan::new(&Plan::new(&space, PlanOptions::default()).unwrap()).unwrap();
    let (full, report) = sweep(&lp, &opts(1), CountVisitor::default).unwrap();
    assert_eq!((full.visitor.count, report.rows_replayed, report.partial), (5000, 4999, false));

    let token = Arc::new(CancelToken::new());
    let mut o = opts(1);
    o.cancel = Some(token.clone());
    let (out, report) = sweep(&lp, &o, || CancelAfter {
        token: token.clone(),
        after: 10,
        seen: 0,
    })
    .unwrap();
    assert!(report.partial, "the cancel was not noticed inside the replay");
    assert_eq!(out.visitor.seen, 0, "a cancelled chunk must not be folded");
    assert_eq!(out.stats.survivors, 0);
}

/// An already-expired deadline degrades to an empty partial result instead
/// of an error — the graceful-degradation contract.
#[test]
fn expired_deadline_degrades_to_partial() {
    let lp = gemm_lowered();
    let mut o = opts(4);
    o.deadline = Some(std::time::Duration::ZERO);
    let (out, report) = sweep(&lp, &o, FingerprintVisitor::default).unwrap();
    assert!(report.partial, "expired deadline must mark the report partial");
    assert_eq!(out.visitor.count, 0);
}

/// The headline acceptance check: interrupt a checkpointed GEMM sweep
/// after K chunks, resume it, and the final outcome — survivors, emission
/// order, merged `PruneStats` and block counters — is bit-identical to an
/// uninterrupted run, at every thread count.
#[test]
fn interrupted_then_resumed_equals_uninterrupted() {
    let lp = gemm_lowered();
    let (full, full_report) =
        sweep(&lp, &opts(2), FingerprintVisitor::default).unwrap();
    assert!(full.visitor.count > 0);
    for threads in THREAD_COUNTS {
        let path = scratch(&format!("resume-{threads}.json"));
        let _ = std::fs::remove_file(&path);

        // Phase 1: run, but stop pulling chunks after 5 — a deterministic
        // stand-in for killing the process mid-sweep.
        let mut o = opts(threads);
        o.stop_after_chunks = 5;
        let ck = CheckpointConfig { path: path.clone(), every_chunks: 2, resume: false };
        let (_, partial) = sweep(&lp, &o.checkpoint(ck), FingerprintVisitor::default).unwrap();
        assert!(partial.partial, "stopped sweep must be partial at {threads} threads");
        let pulled: u64 = partial.workers.iter().map(|w| w.chunks).sum();
        assert!(pulled < full_report.chunks as u64, "stop_after_chunks did not stop early");

        // Phase 2: resume from the file and finish.
        let o = opts(threads);
        let ck = CheckpointConfig { path: path.clone(), every_chunks: 2, resume: true };
        let (resumed, report) = sweep(&lp, &o.checkpoint(ck), FingerprintVisitor::default).unwrap();
        assert!(!report.partial, "resumed sweep did not finish at {threads} threads");
        assert!(report.resumed_at.is_some());
        assert_eq!(
            resumed.visitor, full.visitor,
            "resume fingerprint diverged at {threads} threads"
        );
        assert_eq!(resumed.stats, full.stats, "resume stats diverged at {threads} threads");
        assert_eq!(resumed.blocks, full.blocks, "resume blocks diverged at {threads} threads");
        let _ = std::fs::remove_file(&path);
    }
}

/// Resuming a checkpoint written by a *different* space refuses cleanly
/// with a structured checkpoint error, not a corrupt merge.
#[test]
fn resume_refuses_a_mismatched_checkpoint() {
    let lp = gemm_lowered();
    let other = Space::builder("ft_other")
        .range("x", 0, 8)
        .build()
        .unwrap();
    let other_lp = {
        let plan = Plan::new(&other, PlanOptions::default()).unwrap();
        LoweredPlan::new(&plan).unwrap()
    };
    let path = scratch("mismatch.json");
    let _ = std::fs::remove_file(&path);
    let ck = CheckpointConfig { path: path.clone(), every_chunks: 1, resume: false };
    let mut o = opts(2);
    o.stop_after_chunks = 2;
    sweep(&other_lp, &o.checkpoint(ck), FingerprintVisitor::default).unwrap();

    let ck = CheckpointConfig { path: path.clone(), every_chunks: 1, resume: true };
    let err = sweep(&lp, &opts(2).checkpoint(ck), FingerprintVisitor::default).unwrap_err();
    assert!(
        matches!(err, SweepError::Checkpoint(_)),
        "expected a checkpoint error, got {err}"
    );
    let _ = std::fs::remove_file(&path);
}

/// The worker transport with no worker command (every shard in process)
/// on the suite's grid.
fn dist_opts(slots: usize) -> SweepSpec<'static, FingerprintVisitor> {
    opts(slots).workers(Workers::new(Vec::new()))
}

/// Dispatcher equivalence: the injector-free recovery cases — a check whose
/// coefficient divides by zero at `o = 2`, under skip / quarantine / retry —
/// and the clean GEMM sweep give the same survivors, fingerprint,
/// `PruneStats`, `BlockStats` and full `FaultRecord` list through
/// the worker transport with 1 and 3 in-process slots as through threads.
#[test]
fn in_process_distribute_equals_the_threaded_dispatcher() {
    let policies = [
        FaultPolicy::SkipPoint,
        FaultPolicy::QuarantineChunk,
        FaultPolicy::Retry { max: 2, backoff_ms: 0 },
    ];
    for (name, lp) in [("narrowable", narrowable_space(false)), ("gemm", gemm_lowered())] {
        for policy in policies {
            let mut o = opts(2);
            o.fault_policy = policy;
            let (want, want_report) =
                sweep(&lp, &o, FingerprintVisitor::default).unwrap();
            assert_eq!(
                want_report.faults.is_empty(),
                name == "gemm",
                "{name}: only the narrowable space faults"
            );
            for slots in [1, 3] {
                let mut d = dist_opts(slots);
                d.fault_policy = policy;
                let (got, report) = sweep(&lp, &d, FingerprintVisitor::default).unwrap();
                let at = format!("{name}, {policy:?}, {slots} slot(s)");
                assert_eq!(got.visitor, want.visitor, "{at}: survivors / fingerprint");
                assert_eq!(got.stats, want.stats, "{at}: PruneStats");
                assert_eq!(got.blocks, want.blocks, "{at}: BlockStats");
                assert_eq!(report.faults, want_report.faults, "{at}: fault records");
                assert_eq!(report.fault_counters, want_report.fault_counters, "{at}: counters");
                assert!(!report.partial, "{at}");
            }
        }
    }
}

/// One checkpoint format, one wiring: an in-process distributed sweep
/// stopped after 5 chunks and resumed equals the uninterrupted threaded run,
/// and a checkpoint written by the threaded path resumes through distribute
/// (and the other way round).
#[test]
fn checkpoints_cross_between_threaded_and_distributed_sweeps() {
    let lp = gemm_lowered();
    let (full, _) = sweep(&lp, &opts(2), FingerprintVisitor::default).unwrap();
    // One leg of a sweep through either dispatcher, 2 threads or 3 slots.
    let leg = |distributed: bool, path: &std::path::Path, stop: usize, resume: bool| {
        let ck = CheckpointConfig { path: path.to_path_buf(), every_chunks: 2, resume };
        if distributed {
            let mut d = dist_opts(3);
            d.stop_after_chunks = stop;
            sweep(&lp, &d.checkpoint(ck), FingerprintVisitor::default).unwrap()
        } else {
            let mut o = opts(2);
            o.stop_after_chunks = stop;
            sweep(&lp, &o.checkpoint(ck), FingerprintVisitor::default).unwrap()
        }
    };
    let cases = [
        ("distribute → distribute", true, true),
        ("threaded → distribute", false, true),
        ("distribute → threaded", true, false),
    ];
    for (i, (name, first, second)) in cases.into_iter().enumerate() {
        let path = scratch(&format!("cross-{i}.json"));
        let _ = std::fs::remove_file(&path);
        let (_, partial) = leg(first, &path, 5, false);
        assert!(partial.partial, "{name}: the first leg must stop early");
        let (resumed, report) = leg(second, &path, 0, true);
        assert!(!report.partial, "{name}: the resumed leg must finish");
        assert_eq!(report.resumed_at, Some(5), "{name}");
        assert_eq!(resumed.visitor, full.visitor, "{name}: fingerprint");
        assert_eq!(resumed.stats, full.stats, "{name}: PruneStats");
        assert_eq!(resumed.blocks, full.blocks, "{name}: BlockStats");
        let _ = std::fs::remove_file(&path);
    }
}

/// A space whose inner level is one run of five expression steps, two of
/// which fault mid-run: the define `q` divides by zero where `x + y == 6`,
/// after `s` and the check `small` ran, and the check `wrap` takes a
/// remainder by zero at `x == 5`, after `q` and `r` were written.
fn mid_run_fault_space() -> LoweredPlan {
    let space = Space::builder("ft_mid_run")
        .range("x", 0, 8)
        .range("y", 0, 5)
        .derived("s", var("x") + var("y"))
        .constraint("small", ConstraintClass::Soft, var("s").lt(2))
        .derived("q", lit(60) / (var("s") - 6))
        .derived("r", var("q") * var("y"))
        .constraint("wrap", ConstraintClass::Soft, ((var("r") * 7) % (var("x") - 5)).eq(3))
        .build()
        .unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    LoweredPlan::new(&plan).unwrap()
}

/// A fault as `(site, error, bindings)`.
type FaultSeen = (String, String, Vec<(String, i64)>);

/// What per-step evaluation of `lp` under `SkipPoint` reports, walked like
/// the walker walks it: each expression on its own (`IntExpr::eval`), a
/// fault dropping its point with the failing step's name and every slot
/// bound before it, in step order. Returns `(evaluated, pruned)` per
/// constraint, the survivors and the `(site, error, bindings)` of each
/// fault.
fn per_step_reference(lp: &LoweredPlan) -> (Vec<u64>, Vec<u64>, u64, Vec<FaultSeen>) {
    use beast_core::ir::{LBody, LIter, LStep};
    struct Walk<'a> {
        lp: &'a LoweredPlan,
        slots: Vec<i64>,
        bound: Vec<u32>,
        evaluated: Vec<u64>,
        pruned: Vec<u64>,
        survivors: u64,
        faults: Vec<FaultSeen>,
    }
    impl Walk<'_> {
        fn fault(&mut self, site: &str, e: beast_core::error::EvalError) {
            let names = &self.lp.slot_names;
            let bindings =
                self.bound.iter().map(|&s| (names[s as usize].to_string(), self.slots[s as usize]));
            self.faults.push((site.to_string(), e.to_string(), bindings.collect()));
        }

        fn go(&mut self, i: usize) {
            let space = self.lp.plan.space().clone();
            match &self.lp.steps[i] {
                LStep::Bind { slot, domain: LIter::Range { start, stop, step }, .. } => {
                    let bound = |e: &beast_core::ir::IntExpr| e.eval(&self.slots).unwrap();
                    let (a, b, c) = (bound(start), bound(stop), bound(step));
                    let mut v = a;
                    self.bound.push(*slot);
                    while v < b {
                        self.slots[*slot as usize] = v;
                        self.go(i + 1);
                        v += c;
                    }
                    self.bound.pop();
                }
                LStep::Define { slot, body: LBody::Expr(e), .. } => match e.eval(&self.slots) {
                    Ok(v) => {
                        self.slots[*slot as usize] = v;
                        self.bound.push(*slot);
                        self.go(i + 1);
                        self.bound.pop();
                    }
                    Err(err) => self.fault(&self.lp.slot_names[*slot as usize].clone(), err),
                },
                LStep::Check { constraint, body: LBody::Expr(e) } => match e.eval(&self.slots) {
                    Ok(v) => {
                        self.evaluated[*constraint] += 1;
                        self.pruned[*constraint] += u64::from(v != 0);
                        if v == 0 {
                            self.go(i + 1);
                        }
                    }
                    Err(err) => self.fault(&space.constraints()[*constraint].name, err),
                },
                LStep::Visit => self.survivors += 1,
                other => panic!("the reference walks expression steps only: {other:?}"),
            }
        }
    }
    let n = lp.plan.space().constraints().len();
    let mut walk = Walk {
        lp,
        slots: vec![0; lp.n_slots as usize],
        bound: Vec::new(),
        evaluated: vec![0; n],
        pruned: vec![0; n],
        survivors: 0,
        faults: Vec::new(),
    };
    walk.go(0);
    (walk.evaluated, walk.pruned, walk.survivors, walk.faults)
}

/// A `SkipPoint` fault in the middle of a level's run program drops the
/// point exactly where per-step evaluation does: the same `FaultRecord`
/// sites, errors and bindings (the defines the run wrote before the
/// failing step, not after), and — on the declared schedule without
/// intervals, which evaluates every point — the same `PruneStats`, the
/// checks the run passed before the fault credited and the failing one
/// not. With intervals on, guards and elision move no fault record.
#[test]
fn a_fault_inside_a_run_program_matches_per_step_evaluation() {
    use beast_core::ir::LStep;
    let lp = mid_run_fault_space();
    let (evaluated, pruned, survivors, want) = per_step_reference(&lp);
    // The faults really sit mid-run: one define and one check, each behind
    // earlier steps of the same run.
    let first_run = lp.steps.iter().rposition(|s| matches!(s, LStep::Bind { .. })).unwrap() + 1;
    let run_len = lp.steps.len() - 1 - first_run;
    assert!(run_len >= 4, "{:?}", lp.steps);
    assert!(want.iter().any(|f| f.0 == "q") && want.iter().any(|f| f.0 == "wrap"), "{want:?}");

    for engine in [EngineOptions::no_intervals(), EngineOptions::default()] {
        let o = SweepSpec {
            slots: 1,
            chunk_count: 1,
            engine,
            fault_policy: FaultPolicy::SkipPoint,
            ..SweepSpec::default()
        };
        let (out, report) = sweep(&lp, &o, CountVisitor::default).unwrap();
        let got: Vec<FaultSeen> = report
            .faults
            .iter()
            .map(|f| {
                assert_eq!((f.chunk, f.ordinal, f.kind), (0, 0, FaultKind::Error));
                (f.site.clone(), f.error.clone(), f.bindings.clone())
            })
            .collect();
        assert_eq!(got, want, "{engine:?}: fault records");
        assert_eq!(out.stats.survivors, survivors, "{engine:?}");
        if !engine.intervals {
            assert_eq!(out.stats.evaluated, evaluated, "{engine:?}: evaluated");
            assert_eq!(out.stats.pruned, pruned, "{engine:?}: pruned");
        }
    }
}
