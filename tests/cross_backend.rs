//! Cross-backend equivalence: every evaluation backend — the AST walker in
//! all three loop styles, the bytecode VM in all three loop styles, the
//! compiled engine, and the parallel driver at several thread counts — must
//! produce identical survivors and pruning statistics for the same space.
//! This is the load-bearing guarantee behind the paper's performance claims:
//! the backends differ *only* in speed.
//!
//! The compiled engine's interval block pruner is exercised as a second
//! cohort: with intervals *off* the compiled/parallel backends match the
//! walker's statistics bit for bit; with intervals *on* they must still
//! produce identical survivors in identical order, agree exactly with each
//! other, and may only ever *shrink* per-constraint evaluation counts
//! (skipped subtrees are work the per-point backends did needlessly).

use std::sync::Arc;

use beast::prelude::*;
use beast_engine::compiled::EngineOptions;
use beast_engine::parallel::{run_parallel_report, ParallelOptions};

/// Canonical result of a sweep: survivors as sorted tuples + stats.
fn all_backend_results(space: &Arc<Space>) -> Vec<(String, PruneStats, Vec<Vec<i64>>)> {
    let plan = Plan::new(space, PlanOptions::default()).unwrap();
    let lowered = LoweredPlan::new(&plan).unwrap();
    let mut results = Vec::new();

    let points_of = |points: &[Point]| -> Vec<Vec<i64>> {
        points
            .iter()
            .map(|p| p.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect()
    };

    for style in [LoopStyle::While, LoopStyle::RangeMaterialized, LoopStyle::RangeLazy] {
        let walker = Walker::new(&plan, style);
        let out = walker
            .run(CollectVisitor::new(walker.point_names().clone(), usize::MAX))
            .unwrap();
        results.push((
            format!("walker/{style:?}"),
            out.stats,
            points_of(&out.visitor.points),
        ));
    }
    for style in [VmStyle::While, VmStyle::RepeatUntil, VmStyle::NumericFor] {
        let vm = Vm::compile(&lowered, style);
        let out = vm
            .run(CollectVisitor::new(vm.point_names().clone(), usize::MAX))
            .unwrap();
        results.push((
            format!("vm/{style:?}"),
            out.stats,
            points_of(&out.visitor.points),
        ));
    }
    {
        let compiled =
            Compiled::with_options(lowered.clone(), EngineOptions::no_intervals());
        let out = compiled
            .run(CollectVisitor::new(compiled.point_names().clone(), usize::MAX))
            .unwrap();
        results.push(("compiled".into(), out.stats, points_of(&out.visitor.points)));
    }
    for threads in [2usize, 5] {
        let names = Compiled::new(lowered.clone()).point_names().clone();
        let opts = ParallelOptions {
            threads,
            engine: EngineOptions::no_intervals(),
            ..ParallelOptions::default()
        };
        let (out, _) = run_parallel_report(&lowered, &opts, || {
            CollectVisitor::new(names.clone(), usize::MAX)
        })
        .unwrap();
        results.push((
            format!("parallel/{threads}"),
            out.stats,
            points_of(&out.visitor.points),
        ));
    }
    results
}

/// The intervals-on cohort: serial compiled engine plus the parallel driver
/// at two thread counts, all with block pruning enabled.
fn interval_backend_results(
    space: &Arc<Space>,
) -> Vec<(String, PruneStats, BlockStats, Vec<Vec<i64>>)> {
    let plan = Plan::new(space, PlanOptions::default()).unwrap();
    let lowered = LoweredPlan::new(&plan).unwrap();
    let points_of = |points: &[Point]| -> Vec<Vec<i64>> {
        points
            .iter()
            .map(|p| p.values().iter().map(|v| v.as_int().unwrap()).collect())
            .collect()
    };
    let mut results = Vec::new();
    {
        let compiled = Compiled::new(lowered.clone());
        let out = compiled
            .run(CollectVisitor::new(compiled.point_names().clone(), usize::MAX))
            .unwrap();
        results.push((
            "compiled+iv".to_string(),
            out.stats,
            out.blocks,
            points_of(&out.visitor.points),
        ));
    }
    for threads in [2usize, 5] {
        let names = Compiled::new(lowered.clone()).point_names().clone();
        let opts = ParallelOptions { threads, ..ParallelOptions::default() };
        let (out, _) = run_parallel_report(&lowered, &opts, || {
            CollectVisitor::new(names.clone(), usize::MAX)
        })
        .unwrap();
        results.push((
            format!("parallel+iv/{threads}"),
            out.stats,
            out.blocks,
            points_of(&out.visitor.points),
        ));
    }
    results
}

/// The walker binds every variable by name while slot backends use dense
/// indices; surviving-point *values* must nevertheless agree column-for-
/// column because all backends report the same variable order.
fn assert_all_agree(space: Arc<Space>) {
    let results = all_backend_results(&space);
    let (ref_name, ref_stats, ref_points) = &results[0];
    assert!(
        !ref_points.is_empty() || ref_stats.total_pruned() > 0,
        "degenerate test space"
    );
    for (name, stats, points) in &results[1..] {
        assert_eq!(stats, ref_stats, "{name} vs {ref_name}: stats differ");
        assert_eq!(points, ref_points, "{name} vs {ref_name}: survivors differ");
    }

    // Intervals-on cohort: identical survivors and visit order, identical
    // rejections-or-fewer, never more work than the per-point backends —
    // and exact agreement (stats and block counters) within the cohort.
    let iv = interval_backend_results(&space);
    let (iv_ref_name, iv_ref_stats, iv_ref_blocks, iv_ref_points) = &iv[0];
    assert_eq!(
        iv_ref_points, ref_points,
        "{iv_ref_name} vs {ref_name}: intervals changed survivors"
    );
    assert_eq!(iv_ref_stats.survivors, ref_stats.survivors);
    for (i, (a, b)) in iv_ref_stats.evaluated.iter().zip(&ref_stats.evaluated).enumerate() {
        assert!(a <= b, "{iv_ref_name}: intervals increased evaluations of constraint {i}");
    }
    for (i, (a, b)) in iv_ref_stats.pruned.iter().zip(&ref_stats.pruned).enumerate() {
        assert!(a <= b, "{iv_ref_name}: intervals increased rejections of constraint {i}");
    }
    for (name, stats, blocks, points) in &iv[1..] {
        assert_eq!(stats, iv_ref_stats, "{name} vs {iv_ref_name}: stats differ");
        assert_eq!(blocks, iv_ref_blocks, "{name} vs {iv_ref_name}: block counters differ");
        assert_eq!(points, iv_ref_points, "{name} vs {iv_ref_name}: survivors differ");
    }
}

#[test]
fn dependent_ranges_with_derived_and_constraints() {
    let space = Space::builder("cross1")
        .constant("cap", 60)
        .range("a", 1, 9)
        .range("b", 1, 9)
        .range_step("c", var("a"), 33, var("a"))
        .derived("abc", var("a") * var("b") + var("c"))
        .constraint("over", ConstraintClass::Hard, var("abc").gt(var("cap")))
        .constraint("odd", ConstraintClass::Soft, (var("c") % 2).ne(0))
        .build()
        .unwrap();
    assert_all_agree(space);
}

#[test]
fn ternaries_short_circuits_and_builtins() {
    let space = Space::builder("cross2")
        .range("x", 0, 24)
        .range("y", 1, 7)
        .derived("m", min2(var("x"), var("y") * 3))
        .derived(
            "pick",
            ternary(var("x").gt(12), var("m") - var("y"), var("m") + var("y")),
        )
        .constraint(
            "guarded",
            ConstraintClass::Generic,
            var("x").ne(0).and((lit(48) % var("x")).eq(0)).not(),
        )
        .constraint("pick_small", ConstraintClass::Soft, var("pick").lt(2))
        .build()
        .unwrap();
    assert_all_agree(space);
}

#[test]
fn negative_steps_lists_and_unions() {
    use beast_core::iterator::build as ib;
    let space = Space::builder("cross3")
        .iter(
            "s",
            ib::union(ib::list([3i64, 9, 27]), ib::range_step(lit(0), lit(20), lit(4))),
        )
        .range_step("d", var("s"), -1, -2)
        .constraint("tiny", ConstraintClass::Soft, var("d").lt(1))
        .build()
        .unwrap();
    assert_all_agree(space);
}

#[test]
fn opaque_deferred_everything() {
    use beast_core::iterator::Realized;
    let space = Space::builder("cross4")
        .constant("cap", 10)
        .range("n", 1, 8)
        .deferred_iter("d", &["n"], |env| {
            let n = env.require_int("n")?;
            Ok(Realized::Range { start: n, stop: 0, step: -1 })
        })
        .derived_fn("dd", &["d", "n"], |env| {
            Ok(Value::Int(env.require_int("d")? * env.require_int("n")?))
        })
        .constraint_fn("big", ConstraintClass::Soft, &["dd", "cap"], |env| {
            Ok(env.require_int("dd")? > env.require_int("cap")?)
        })
        .build()
        .unwrap();
    assert_all_agree(space);
}

#[test]
fn closure_iterator_space() {
    let space = Space::builder("cross5")
        .constant("max", 40)
        .closure_iter("p", &["max"], |env| {
            let max = env.require_int("max").unwrap_or(0);
            let mut known: Vec<i64> = Vec::new();
            let mut n = 1i64;
            std::iter::from_fn(move || loop {
                n += 1;
                if n > max {
                    return None;
                }
                if known.iter().all(|k| n % k != 0) {
                    known.push(n);
                    return Some(Value::Int(n));
                }
            })
        })
        .range("r", 0, var("p"))
        .constraint("half", ConstraintClass::Generic, (var("r") * 2).lt(var("p")))
        .build()
        .unwrap();
    assert_all_agree(space);
}

/// Ranges whose last value lies within one stride of `i64::MAX` / `MIN`:
/// stepping past the end overflows, which must read as exhaustion (the
/// walker's `RealizedIter` semantics), not wrap around and keep yielding.
/// One value and eight, upward and downward, under an outer loop. The compiled engine and the
/// VM's numeric-for hung here before they stepped with `checked_add`.
#[test]
fn ranges_ending_at_the_i64_extremes_terminate_and_agree() {
    let cases: [(i64, i64, i64, usize); 4] = [
        (i64::MAX - 1, i64::MAX, 5, 1),
        (i64::MAX - 38, i64::MAX, 5, 8),
        (i64::MIN + 1, i64::MIN, -5, 1),
        (i64::MIN + 38, i64::MIN, -5, 8),
    ];
    for (start, stop, step, len) in cases {
        let space = Space::builder("cross_extreme")
            .range("o", 0, 2)
            .range_step("x", start, stop, step)
            .constraint("odd", ConstraintClass::Soft, ((var("x") % 2 + var("o")) % 2).ne(0))
            .build()
            .unwrap();
        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lowered = LoweredPlan::new(&plan).unwrap();
        let walker = Walker::new(&plan, LoopStyle::RangeLazy);
        let want = walker
            .run(CollectVisitor::new(walker.point_names().clone(), usize::MAX))
            .unwrap();
        assert_eq!(want.stats.evaluated, [2 * len as u64], "range({start}, {stop}, {step})");
        assert!(!want.visitor.points.is_empty());

        let vm = Vm::compile(&lowered, VmStyle::NumericFor);
        let out = vm.run(CollectVisitor::new(vm.point_names().clone(), usize::MAX)).unwrap();
        assert_eq!(out.visitor.points, want.visitor.points, "vm, step {step}, len {len}");
        assert_eq!(out.stats, want.stats, "vm, step {step}, len {len}");

        for opts in [EngineOptions::default(), EngineOptions::no_intervals()] {
            let compiled = Compiled::with_options(lowered.clone(), opts);
            let out = compiled
                .run(CollectVisitor::new(compiled.point_names().clone(), usize::MAX))
                .unwrap();
            assert_eq!(out.visitor.points, want.visitor.points, "{opts:?}, step {step}, len {len}");
            assert_eq!(out.stats, want.stats, "{opts:?}, step {step}, len {len}");
        }
    }
}

#[test]
fn reduced_gemm_space_full_agreement() {
    let params = beast::gemm::GemmSpaceParams::reduced(10);
    let space = beast::gemm::build_gemm_space(&params).unwrap();
    assert_all_agree(space);
}

/// Survivors compare as `Point`s, not as integer vectors: the walker's
/// points (read from its binding environment) and the compiled engine's
/// (copied from its slot file) are one integer-row representation, equal
/// point for point in emission order.
#[test]
fn reduced16_gemm_walker_and_compiled_survivors_are_equal_points() {
    let space =
        beast::gemm::build_gemm_space(&beast::gemm::GemmSpaceParams::reduced(16)).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let walker = Walker::new(&plan, LoopStyle::While);
    let want = walker.run(CollectVisitor::new(walker.point_names().clone(), usize::MAX)).unwrap();
    let compiled = Compiled::new(LoweredPlan::new(&plan).unwrap());
    let got =
        compiled.run(CollectVisitor::new(compiled.point_names().clone(), usize::MAX)).unwrap();
    assert_eq!(want.visitor.points.len(), 1824);
    assert!(got.visitor.points == want.visitor.points, "compiled survivors differ from the walker's");
    assert!(want.visitor.points.iter().all(|p| p.ints().is_some()));
}

/// Minimal deterministic LCG (PCG-XSH-style output) so the property test
/// below needs no RNG crate and replays identical spaces on every run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Sample 3–5 distinct values from the extreme pool.
fn sample_pool(rng: &mut Lcg) -> Vec<i64> {
    const POOL: [i64; 14] = [
        i64::MIN,
        i64::MIN + 1,
        -1_000_003,
        -37,
        -3,
        -1,
        0,
        1,
        2,
        7,
        64,
        999_983,
        i64::MAX - 1,
        i64::MAX,
    ];
    let k = 3 + rng.below(3) as usize;
    let mut vals: Vec<i64> = Vec::new();
    while vals.len() < k {
        let v = POOL[rng.below(POOL.len() as u64) as usize];
        if !vals.contains(&v) {
            vals.push(v);
        }
    }
    vals
}

/// Combine two operands with a random arithmetic operator. `/` and `%`
/// share the engine's wrapping contract with the generated C helpers but
/// reject a zero denominator outright, so the denominator is guarded to 1
/// instead of dropping those operators from the alphabet.
fn random_combine(rng: &mut Lcg, a: E, b: E) -> E {
    match rng.below(5) {
        0 => a + b,
        1 => a - b,
        2 => a * b,
        3 => a / ternary(b.clone().eq(0), lit(1), b),
        _ => a % ternary(b.clone().eq(0), lit(1), b),
    }
}

/// Random comparison for constraint predicates.
fn random_compare(rng: &mut Lcg, a: E, b: E) -> E {
    match rng.below(4) {
        0 => a.lt(b),
        1 => a.le(b),
        2 => a.gt(b),
        _ => a.ne(b),
    }
}

/// Property test: random expressions over i64 extremes evaluated by the
/// generated-and-compiled C program must agree with the compiled engine
/// on survivors, per-constraint prune counts, and the XOR checksum of every
/// variable at every surviving point. Exercises wrapping `+ - *` and the
/// `/` / `%` edge cases (negative operands, `MIN / -1`, `MIN % -1`) that a
/// naive C lowering would hit as signed-overflow UB or SIGFPE.
#[test]
fn random_expressions_agree_with_generated_c() {
    use beast_codegen::{
        generate_and_run, lower, CBackend, Program, Toolchain, ToolchainResult,
    };
    use beast_core::iterator::build as ib;

    let mut rng = Lcg(0x5eed_cafe_f00d_0001);
    let mut total_survivors = 0u64;
    let mut total_pruned = 0u64;
    for round in 0..8u32 {
        let mut names: Vec<String> = vec!["x".into(), "y".into()];
        let mut builder = Space::builder(&format!("prop{round}"))
            .iter("x", ib::list(sample_pool(&mut rng)))
            .iter("y", ib::list(sample_pool(&mut rng)));
        for d in 0..3 {
            let a = var(&names[rng.below(names.len() as u64) as usize]);
            let b = var(&names[rng.below(names.len() as u64) as usize]);
            let name = format!("d{d}");
            builder = builder.derived(&name, random_combine(&mut rng, a, b));
            names.push(name);
        }
        for (ci, class) in [ConstraintClass::Hard, ConstraintClass::Soft]
            .into_iter()
            .enumerate()
        {
            let a = var(&names[rng.below(names.len() as u64) as usize]);
            let b = var(&names[rng.below(names.len() as u64) as usize]);
            builder =
                builder.constraint(&format!("k{ci}"), class, random_compare(&mut rng, a, b));
        }
        let space = builder.build().unwrap();

        let plan = Plan::new(&space, PlanOptions::default()).unwrap();
        let lowered = LoweredPlan::new(&plan).unwrap();
        let compiled =
            Compiled::with_options(lowered.clone(), EngineOptions::no_intervals());
        let out = compiled
            .run(CollectVisitor::new(compiled.point_names().clone(), usize::MAX))
            .unwrap();
        let engine_checksum = out
            .visitor
            .points
            .iter()
            .flat_map(|p| p.values().iter().map(|v| v.as_int().unwrap()))
            .fold(0i64, |acc, v| acc ^ v);
        let engine_pruned: Vec<(String, u64)> = space
            .constraints()
            .iter()
            .map(|c| c.name.to_string())
            .zip(out.stats.pruned.iter().copied())
            .collect();
        total_survivors += out.stats.survivors;
        total_pruned += out.stats.total_pruned();

        let program = Program::from_lowered(&lowered).unwrap();
        match generate_and_run(&CBackend, &Toolchain::c(), &lower(&program)) {
            ToolchainResult::Unavailable(what) => {
                eprintln!("skipping property test: {what} not on PATH");
                return;
            }
            ToolchainResult::Failed { stage, detail } => {
                panic!("round {round}: C backend failed at {stage:?}: {detail}")
            }
            ToolchainResult::Ran { counts, .. } => {
                assert_eq!(
                    counts.survivors, out.stats.survivors,
                    "round {round}: survivor counts diverged"
                );
                assert_eq!(
                    counts.pruned, engine_pruned,
                    "round {round}: per-constraint prune counts diverged"
                );
                assert_eq!(
                    counts.checksum, engine_checksum,
                    "round {round}: survivor checksums diverged"
                );
            }
        }
    }
    // The fixed seed must keep exercising both outcomes; if a generator
    // change makes every space degenerate, fail loudly instead of passing
    // vacuously.
    assert!(total_survivors > 0, "no round produced a survivor");
    assert!(total_pruned > 0, "no round pruned a point");
}

/// The native worker tier must reproduce the compiled tier's emission
/// fingerprint on every one of the 16 GEMM variants (4 precisions × 4
/// transpose cases) — each variant lowers to a different plan, worker
/// binary, and constraint mix. Without a C compiler the tier falls back
/// in-process and the equality still has to hold.
#[test]
fn native_tier_fingerprints_all_precision_transpose_cases() {
    use beast::gpu_sim::{Precision, Transpose};

    let have_cc = beast_codegen::find_c_compiler().is_some();
    for precision in Precision::all() {
        for transpose in Transpose::all() {
            let mut params = beast::gemm::GemmSpaceParams::reduced(16);
            params.precision = precision;
            params.transpose = transpose;
            let space = beast::gemm::build_gemm_space(&params).unwrap();
            let plan = Plan::new(&space, PlanOptions::default()).unwrap();
            let lowered = LoweredPlan::new(&plan).unwrap();
            let serial = Compiled::new(lowered.clone())
                .run(FingerprintVisitor::new())
                .unwrap();
            let opts = ParallelOptions {
                threads: 2,
                engine: EngineOptions::native(),
                ..ParallelOptions::default()
            };
            let (out, report) =
                run_parallel_report(&lowered, &opts, FingerprintVisitor::new).unwrap();
            assert_eq!(
                (out.visitor.count, out.visitor.hash),
                (serial.visitor.count, serial.visitor.hash),
                "{precision:?}/{transpose:?}: native tier fingerprint diverged"
            );
            if have_cc {
                let native = report
                    .native
                    .expect("compiler present: native counters should be reported");
                assert!(
                    native.chunks_native > 0,
                    "{precision:?}/{transpose:?}: no chunk ran in a worker process"
                );
                assert_eq!(
                    native.chunks_fallback, 0,
                    "{precision:?}/{transpose:?}: unexpected in-process fallback"
                );
                assert_eq!(native.rows_streamed, serial.visitor.count);
            }
        }
    }
}

#[path = "common/narrow_gen.rs"]
mod narrow_gen;

/// The native worker *solves* equality loops in the emitted C
/// (`beast_codegen::native`, `b_narrow`). On the loop-narrowing suite's
/// seeded spaces — zero / negative / run-time-zero / `i64`-extreme
/// coefficients, negative-step and empty ranges, hits first / last /
/// off-stride, and the list-domain and define-before-check shapes that must
/// *not* narrow — the worker equals the enumerating oracles in survivors,
/// order and per-constraint `PruneStats`, and reports the narrowing counters
/// of the in-process engine it falls back to. No generated operand can
/// fault, so the enumerating worker never falls back and neither may the
/// narrowed one.
#[test]
fn narrowed_native_worker_matches_the_enumerating_oracles_on_seeded_spaces() {
    if beast_codegen::find_c_compiler().is_none() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let ints = |points: &[Point]| -> Vec<Vec<i64>> {
        points.iter().map(|p| p.values().iter().map(|v| v.as_int().unwrap()).collect()).collect()
    };
    let (mut solved_seeds, mut must_enumerate, mut walker_ok, mut with_survivors) = (0, 0, 0, 0);
    // Every fifth seed plus a block: all nine check shapes, list domains
    // and empty ranges occur (asserted below).
    for seed in (0..240u64).filter(|s| s % 5 == 0 || *s < 12) {
        let g = narrow_gen::generate(seed);
        let plan = Plan::new(&g.space, PlanOptions::default()).unwrap();
        let lp = LoweredPlan::new(&plan).unwrap();

        // Oracle 1: the VM over the same wrapping IR, which never narrows.
        let vm = Vm::compile(&lp, VmStyle::NumericFor);
        let vm_out = vm.run(CollectVisitor::new(vm.point_names().clone(), usize::MAX)).unwrap();
        let want = ints(&vm_out.visitor.points);
        // What a fallback chunk would report: the normalized in-process engine.
        let twin = Compiled::with_options(lp.clone(), EngineOptions::no_intervals())
            .run(FingerprintVisitor::new())
            .unwrap();

        let names = vm.point_names().clone();
        let opts = ParallelOptions {
            threads: 2,
            chunk_count: 3,
            engine: EngineOptions::native(),
            ..ParallelOptions::default()
        };
        let (out, report) = run_parallel_report(&lp, &opts, || {
            CollectVisitor::new(names.clone(), usize::MAX)
        })
        .unwrap();
        assert_eq!(ints(&out.visitor.points), want, "seed {seed}: survivors/order differ");
        assert_eq!(out.stats, vm_out.stats, "seed {seed}: PruneStats differ from the VM");
        // The worker neither guards nor replays: compare what both define.
        let twin_blocks = BlockStats { loops_replayed: 0, rows_replayed: 0, ..twin.blocks };
        assert_eq!(out.blocks, twin_blocks, "seed {seed}: narrowing counters differ");
        let native = report.native.expect("compiler present: the native tier is active");
        assert_eq!(native.chunks_fallback, 0, "seed {seed}: a worker fell back");
        assert_eq!(native.chunks_native as usize, report.chunks, "seed {seed}");
        assert!(native.workers_spawned <= 2, "seed {seed}: {native:?}");

        // Oracle 2: the walker, wherever checked arithmetic does not trip.
        let walker = Walker::new(&plan, LoopStyle::default());
        if let Ok(w) = walker.run(CollectVisitor::new(walker.point_names().clone(), usize::MAX)) {
            walker_ok += 1;
            assert_eq!(want, ints(&w.visitor.points), "seed {seed}: differs from the walker");
            assert_eq!(out.stats, w.stats, "seed {seed}: PruneStats differ from the walker");
        }
        if g.must_enumerate {
            must_enumerate += 1;
            assert_eq!(out.blocks.loops_solved, 0, "seed {seed}: narrowed an opaque shape");
        }
        solved_seeds += u32::from(out.blocks.loops_solved > 0);
        with_survivors += u32::from(out.blocks.loops_solved > 0 && !want.is_empty());
    }
    assert!(solved_seeds >= 24, "only {solved_seeds} seeds had a loop solved in C");
    assert!(with_survivors >= 5, "only {with_survivors} solved seeds had survivors");
    assert!(must_enumerate >= 3, "only {must_enumerate} must-enumerate seeds");
    assert!(walker_ok >= 24, "walker oracle covered only {walker_ok} seeds");
}

/// One request through a compiled chunk worker, raw: the reply bytes.
fn drive_worker(bin: &std::path::Path, chunk: &[i64]) -> Vec<u8> {
    use std::io::Write;
    let mut child = std::process::Command::new(bin)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut request = (chunk.len() as u32).to_ne_bytes().to_vec();
    chunk.iter().for_each(|v| request.extend_from_slice(&v.to_ne_bytes()));
    child.stdin.take().unwrap().write_all(&request).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "worker exited with {}", out.status);
    out.stdout
}

/// The narrowed GEMM worker's reply over the whole level-0 domain is, byte
/// for byte through the rows and the per-constraint trailer, the
/// enumerating worker's (the same program with the narrowings stripped);
/// only the two narrowing counters behind `survivors` differ.
#[test]
fn narrowed_gemm_worker_streams_the_enumerating_workers_bytes() {
    use beast_codegen::tree::GNode;
    use beast_codegen::{emit_chunk_worker, lower, toolchain, Program};

    let Some(cc) = beast_codegen::find_c_compiler() else {
        eprintln!("skipping: no C compiler on PATH");
        return;
    };
    fn strip(nodes: &mut [GNode]) -> usize {
        let mut stripped = 0;
        for node in nodes {
            if let GNode::Loop { narrow, body, .. } = node {
                stripped += usize::from(narrow.take().is_some()) + strip(body);
            }
        }
        stripped
    }
    let space = beast::gemm::build_gemm_space(&beast::gemm::GemmSpaceParams::reduced(16)).unwrap();
    let plan = Plan::new(&space, PlanOptions::default()).unwrap();
    let lp = LoweredPlan::new(&plan).unwrap();
    let outer = Compiled::new(lp.clone()).outer_domain().unwrap();
    let mut program = Program::from_lowered(&lp).unwrap();
    let narrowed = emit_chunk_worker(&lower(&program)).unwrap();
    assert_eq!(strip(&mut program.roots), 2, "both reshape loops narrow");
    let plain = emit_chunk_worker(&lower(&program)).unwrap();

    let dir = std::env::temp_dir().join(format!("beast-gemm-workers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let replies: Vec<Vec<u8>> = [("narrowed", &narrowed), ("plain", &plain)]
        .iter()
        .map(|(name, source)| {
            let (src, bin) = (dir.join(format!("{name}.c")), dir.join(name));
            toolchain::write_source(&src, source).unwrap();
            toolchain::compile(&cc, &["-O2"], &src, &bin).unwrap();
            drive_worker(&bin, &outer)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);

    // Behind `survivors`: u64 loops_solved, u64 points_solved, u32 ordinal.
    let (narrowed, plain) = (&replies[0], &replies[1]);
    assert_eq!(narrowed.len(), plain.len());
    let shared = plain.len() - 20;
    assert!(narrowed[..shared] == plain[..shared], "rows or per-constraint trailer differ");
    let counters = |reply: &[u8]| {
        let at = |i: usize| u64::from_ne_bytes(reply[i..i + 8].try_into().unwrap());
        (at(shared), at(shared + 8))
    };
    assert_eq!(counters(plain), (0, 0));
    let (loops_solved, points_solved) = counters(narrowed);
    assert!(loops_solved > 0 && points_solved > loops_solved);
    assert_eq!(narrowed[shared + 16..], plain[shared + 16..], "both answered request 0");
}

#[test]
fn unhoisted_plans_agree_on_survivors() {
    let space = Space::builder("hoist_eq")
        .constant("cap", 30)
        .range("a", 1, 7)
        .range_step("b", var("a"), 25, var("a"))
        .derived("ab", var("a") * var("b"))
        .constraint("over", ConstraintClass::Hard, var("ab").gt(var("cap")))
        .build()
        .unwrap();
    let hoisted = Plan::new(&space, PlanOptions::default()).unwrap();
    let unhoisted = Plan::new(&space, PlanOptions::unhoisted()).unwrap();
    let a = Compiled::new(LoweredPlan::new(&hoisted).unwrap())
        .run(CountVisitor::default())
        .unwrap();
    let b = Compiled::new(LoweredPlan::new(&unhoisted).unwrap())
        .run(CountVisitor::default())
        .unwrap();
    assert_eq!(a.visitor.count, b.visitor.count);
    // Hoisting can only reduce work.
    assert!(a.stats.evaluated.iter().sum::<u64>() <= b.stats.evaluated.iter().sum::<u64>());
}
