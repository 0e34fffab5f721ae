//! The traced run's layer probes: after the workload's own traced round, the
//! same fixed inputs are replayed in process through the public functions of
//! every layer — `build_gemm_space` → `Plan` → `LoweredPlan` → hash →
//! analysis → `Compiled` build → run / parallel / per-chunk → report JSON;
//! chunk-worker emit → gcc → native chunks; generated C; distribute; the
//! cache; the daemon; counting and sampling; the two interpreters — each call
//! inside a span. A time metric is the median self time of its probe's spans.
//!
//! Counts named *workload-own* below come from the reports of the workload's
//! own ops instead, so they say what a layer did for *this* workload (zero
//! where the workload bypasses the layer).
//!
//! Order independence: a probe's first call is an untimed warm-up, so
//! allocator and cache state left by the previous probe is not charged to
//! it, and the counting ladder — which frees half a million memo entries —
//! runs last.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;

use beast_codegen::toolchain::{compile, run_binary, write_source};
use beast_codegen::{
    emit_chunk_worker, find_c_compiler, lower, Backend, CBackend, Program, RunCounts,
};
use beast_core::analyze::analyze;
use beast_core::analyze::count::Counter;
use beast_core::ir::{LBody, LIter, LStep, LoweredPlan};
use beast_core::plan::{Plan, PlanOptions};
use beast_core::schedule::ScheduleMode;
use beast_engine::compiled::{Compiled, EngineOptions};
use beast_engine::distribute::{run_distributed, DistributeOptions};
use beast_engine::native::NativeContext;
use beast_engine::parallel::{run_parallel_report, ParallelOptions};
use beast_engine::postfix::Postfix;
use beast_engine::service::cache::{run_cached, SweepCache};
use beast_engine::visit::{CollectVisitor, CountVisitor, FingerprintVisitor};
use beast_engine::vm::{Vm, VmStyle};
use beast_engine::walker::{LoopStyle, Walker};
use beast_gemm::{build_gemm_space, GemmSpaceParams};
use beast_search::{DirectSampler, Sampler};

use crate::host::HostReport;
use crate::http::exchange;
use crate::inputs::{rng, serve_variants, Variant};
use crate::stats::{median, quantile};
use crate::sys::Proc;
use crate::trace::Tracer;
use crate::workloads::{submit, Counts, Daemon, Env};

/// Every per-layer metric of a traced run, in BENCHMARK.json order:
/// (name, unit). Every traced run of every workload reports all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Space construction and the core pipeline (probe space).
    ("gemm.build_space_s", "s"),
    ("core.plan_s", "s"),
    ("core.lower_s", "s"),
    ("core.hash_s", "s"),
    ("core.analyze_s", "s"),
    ("core.plan_steps", "count"),
    ("core.lowered_steps", "count"),
    ("core.postfix_ops", "count"),
    // The compiled engine, serial, under each option set.
    ("compiled.build_s", "s"),
    ("compiled.run_declared_s", "s"),
    ("compiled.run_adaptive_s", "s"),
    ("compiled.run_nobatch_s", "s"),
    ("compiled.run_nointervals_s", "s"),
    ("compiled.ns_per_tuple", "ns"),
    ("compiled.over_genc", "ratio"),
    ("visit.count_run_s", "s"),
    ("visit.collect_run_s", "s"),
    // Workload-own engine counters.
    ("compiled.evaluated", "count"),
    ("compiled.pruned", "count"),
    ("compiled.subtree_skips", "count"),
    ("compiled.points_skipped", "count"),
    ("compiled.checks_elided", "count"),
    ("lanes.lane_evals", "count"),
    ("lanes.lanes_masked", "count"),
    ("lanes.scalar_fallbacks", "count"),
    ("lanes.utilization", "ratio"),
    // Chunk dispatch and the report.
    ("parallel.run_s", "s"),
    ("parallel.dispatch_overhead_s", "s"),
    ("parallel.imbalance", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("parallel.chunk_p50_s", "s"),
    ("parallel.chunk_max_s", "s"),
    ("telemetry.to_json_s", "s"),
    ("telemetry.report_bytes", "B"),
    // The process hop.
    ("distribute.run_w1_s", "s"),
    ("distribute.run_w2_s", "s"),
    ("distribute.hop_overhead_s", "s"),
    ("distribute.empty_sweep_s", "s"),
    ("distribute.workers_spawned", "count"),
    ("distribute.worker_restarts", "count"),
    ("distribute.shards_retried", "count"),
    ("distribute.heartbeat_timeouts", "count"),
    // Generated C (the paper's artifact) and the native chunk worker.
    ("codegen.emit_c_s", "s"),
    ("codegen.c_bytes", "B"),
    ("codegen.gcc_s", "s"),
    ("codegen.run_s", "s"),
    ("native.emit_s", "s"),
    ("native.prepare_cold_s", "s"),
    ("native.prepare_warm_s", "s"),
    ("native.chunk_s", "s"),
    ("native.spawn_floor_s", "s"),
    ("native.rows_streamed", "count"),
    ("native.fallback_chunks", "count"),
    // The daemon, seen from a client, and the cache under it.
    ("service.healthz_s", "s"),
    ("service.connect_s", "s"),
    ("service.ttfb_s", "s"),
    ("service.body_s", "s"),
    ("service.warm_p90_s", "s"),
    ("service.response_bytes", "B"),
    ("service.cold_overhead_s", "s"),
    ("service.warm_overhead_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.entries", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.run_cached_warm_s", "s"),
    ("cache.persist_s", "s"),
    ("cache.file_bytes", "B"),
    // Exact counting over a ladder of spaces, and sampling.
    ("count.total_s", "s"),
    ("count.memo_entries", "count"),
    ("count.memo_hits", "count"),
    ("count.values_visited", "count"),
    ("count.decided_share", "ratio"),
    ("count.tuples_decided_share", "ratio"),
    ("search.sampler_build_s", "s"),
    ("search.draws_per_s", "1/s"),
    ("search.rejected", "count"),
    ("search.rejection_accept_ratio", "ratio"),
    // The interpreters: the paper's Python → Lua → C ordering.
    ("vm.run_s", "s"),
    ("walker.run_s", "s"),
    ("walker.over_genc", "ratio"),
    // The machine and the harness.
    ("harness.spawn_floor_s", "s"),
    ("host.calib_s", "s"),
    ("host.steal_share", "ratio"),
    ("host.nproc", "count"),
    ("trace.overhead_share", "ratio"),
    ("workload.op_median_s", "s"),
    ("workload.cpu_s", "s"),
];

/// Workload-own metrics: what the workload's own ops reported (zero if they
/// reported nothing), not what a probe measured.
const WORKLOAD_OWN: &[&str] = &[
    "compiled.evaluated",
    "compiled.pruned",
    "compiled.subtree_skips",
    "compiled.points_skipped",
    "compiled.checks_elided",
    "lanes.lane_evals",
    "lanes.lanes_masked",
    "lanes.scalar_fallbacks",
    "distribute.workers_spawned",
    "distribute.worker_restarts",
    "distribute.shards_retried",
    "distribute.heartbeat_timeouts",
    "native.rows_streamed",
    "native.fallback_chunks",
    "cache.hits",
    "cache.misses",
    "cache.stores",
    "cache.entries",
    "cache.hit_ratio",
    "search.rejected",
    "trace.overhead_share",
    "workload.op_median_s",
    "workload.cpu_s",
];

/// Probe input sizes.
struct ProbeSizes {
    /// `reduced(DIM)` of the engine, dispatch, codegen and cache probes.
    engine_dim: i64,
    /// `reduced(DIM)` of the interpreter probes (the walker is ~100× slower).
    interp_dim: i64,
    /// `reduced(DIM)` of the sampler probe.
    sampler_dim: i64,
    /// The counting ladder; `None` is the paper-default K40c space.
    ladder: &'static [Option<i64>],
    /// The rungs also counted in dependent-tuple mode (the rate denominator).
    tuple_ladder: &'static [Option<i64>],
}

const FULL: ProbeSizes = ProbeSizes {
    engine_dim: 24,
    interp_dim: 16,
    sampler_dim: 32,
    // Under the default budget reduced(64) and the paper-default space are
    // undecided in survivor mode, and reduced(32) already is in tuple mode.
    ladder: &[Some(16), Some(32), Some(48), Some(64), None],
    tuple_ladder: &[Some(16), Some(32)],
};
const QUICK: ProbeSizes = ProbeSizes {
    engine_dim: 16,
    interp_dim: 16,
    sampler_dim: 16,
    ladder: &[Some(16)],
    tuple_ladder: &[Some(16)],
};

type Values = BTreeMap<&'static str, f64>;

/// One untimed warm-up call, then `reps` calls each inside a span called
/// `name`. Returns the last result and the median self time.
fn probe<T>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (T, f64) {
    let mut last = black_box(f());
    for _ in 0..reps {
        tr.next_op();
        last = tr.time(name, &mut f);
    }
    let times = tr.self_times(name);
    (last, median(&times[times.len() - reps..]))
}

fn ladder_space(rung: Option<i64>) -> Result<LoweredPlan, String> {
    let Some(dim) = rung else {
        let space =
            build_gemm_space(&GemmSpaceParams::paper_default()).map_err(|e| e.to_string())?;
        let plan = Plan::new(&space, PlanOptions::default()).map_err(|e| e.to_string())?;
        return LoweredPlan::new(&plan).map_err(|e| e.to_string());
    };
    Ok(Variant::cli(dim).lower())
}

/// Postfix ops the engine compiles for a plan: every range bound, derived
/// body and constraint predicate.
fn postfix_ops(lp: &LoweredPlan) -> usize {
    let len = |e| Postfix::compile(e).len();
    lp.steps
        .iter()
        .map(|step| match step {
            LStep::Bind {
                domain: LIter::Range { start, stop, step },
                ..
            } => len(start) + len(stop) + len(step),
            LStep::Define {
                body: LBody::Expr(e),
                ..
            }
            | LStep::Check {
                body: LBody::Expr(e),
                ..
            } => len(e),
            _ => 0,
        })
        .sum()
}

/// Space construction and the core pipeline.
fn core_probes(tr: &mut Tracer, dim: i64, v: &mut Values) -> Result<LoweredPlan, String> {
    let params = GemmSpaceParams::reduced(dim);
    let (space, t) = probe(tr, "gemm.build_space", 5, || build_gemm_space(&params));
    v.insert("gemm.build_space_s", t);
    let space = space.map_err(|e| e.to_string())?;
    let (plan, t) = probe(tr, "core.plan", 5, || {
        Plan::new(&space, PlanOptions::default())
    });
    v.insert("core.plan_s", t);
    let plan = plan.map_err(|e| e.to_string())?;
    let (lp, t) = probe(tr, "core.lower", 5, || LoweredPlan::new(&plan));
    v.insert("core.lower_s", t);
    let lp = lp.map_err(|e| e.to_string())?;
    v.insert(
        "core.hash_s",
        probe(tr, "core.hash", 5, || lp.structural_hash()).1,
    );
    v.insert(
        "core.analyze_s",
        probe(tr, "core.analyze", 5, || analyze(&lp)).1,
    );
    v.insert("core.plan_steps", plan.steps().len() as f64);
    v.insert("core.lowered_steps", lp.steps.len() as f64);
    v.insert("core.postfix_ops", postfix_ops(&lp) as f64);
    Ok(lp)
}

/// The compiled engine, serial. Returns the reference (survivors, hash) every
/// later probe must reproduce.
fn compiled_probes(
    tr: &mut Tracer,
    lp: &LoweredPlan,
    v: &mut Values,
) -> Result<(u64, u64), String> {
    let declared = EngineOptions::default();
    let (engine, t) = probe(tr, "compiled.build", 5, || {
        Compiled::with_options(lp.clone(), declared)
    });
    v.insert("compiled.build_s", t);

    let run = |tr: &mut Tracer, name: &'static str, opts: EngineOptions| {
        let engine = Compiled::with_options(lp.clone(), opts);
        let (out, t) = probe(tr, name, 3, || engine.run(FingerprintVisitor::default()));
        out.map(|o| (o, t)).map_err(|e| format!("{name}: {e}"))
    };
    let (reference, t_declared) = run(tr, "compiled.run_declared", declared)?;
    let want = (reference.visitor.count, reference.visitor.hash);
    v.insert("compiled.run_declared_s", t_declared);
    let tuples = reference.stats.survivors + reference.stats.total_pruned();
    v.insert(
        "compiled.ns_per_tuple",
        t_declared * 1e9 / tuples.max(1) as f64,
    );
    for (name, metric, opts) in [
        (
            "compiled.run_adaptive",
            "compiled.run_adaptive_s",
            EngineOptions::scheduled(ScheduleMode::Adaptive),
        ),
        (
            "compiled.run_nobatch",
            "compiled.run_nobatch_s",
            EngineOptions::no_batch(),
        ),
        (
            "compiled.run_nointervals",
            "compiled.run_nointervals_s",
            EngineOptions::no_intervals(),
        ),
    ] {
        let (out, t) = run(tr, name, opts)?;
        if (out.visitor.count, out.visitor.hash) != want {
            return Err(format!(
                "{name}: survivors or fingerprint differ from the declared run"
            ));
        }
        v.insert(metric, t);
    }

    let (counted, t) = probe(tr, "visit.count_run", 3, || {
        engine.run(CountVisitor::default())
    });
    v.insert("visit.count_run_s", t);
    let names = engine.point_names().clone();
    let (collected, t) = probe(tr, "visit.collect_run", 3, || {
        engine.run(CollectVisitor::new(names.clone(), usize::MAX))
    });
    v.insert("visit.collect_run_s", t);
    let counted = counted.map_err(|e| e.to_string())?.visitor.count;
    let collected = collected.map_err(|e| e.to_string())?.visitor.points.len() as u64;
    if counted != want.0 || collected != want.0 {
        return Err(format!(
            "visitors disagree: counted {counted}, collected {collected}, want {}",
            want.0
        ));
    }
    Ok(want)
}

fn parallel_opts(threads: usize) -> ParallelOptions {
    let mut opts = ParallelOptions::new(threads);
    opts.chunk_count = 32;
    opts
}

/// Chunk dispatch, per-chunk cost, and the report writer. Returns the
/// one-thread chunked time (the hop-overhead baseline).
fn parallel_probes(
    tr: &mut Tracer,
    lp: &LoweredPlan,
    threads: usize,
    want: (u64, u64),
    v: &mut Values,
) -> Result<f64, String> {
    let sweep = |tr: &mut Tracer, name: &'static str, threads: usize| {
        let opts = parallel_opts(threads);
        let (out, t) = probe(tr, name, 3, || {
            run_parallel_report(lp, &opts, FingerprintVisitor::default)
        });
        let (out, report) = out.map_err(|e| format!("{name}: {e}"))?;
        if (out.visitor.count, out.visitor.hash) != want {
            return Err(format!(
                "{name}: survivors or fingerprint differ from the serial run"
            ));
        }
        Ok((report, t))
    };
    let (report, t_par) = sweep(tr, "parallel.run", threads)?;
    let (_, t_one) = sweep(tr, "parallel.run_threads1", 1)?;
    let serial = v["compiled.run_declared_s"];
    v.insert("parallel.run_s", t_par);
    v.insert("parallel.dispatch_overhead_s", t_one - serial);
    v.insert("parallel.imbalance", report.imbalance());
    v.insert("parallel.efficiency", serial / (threads as f64 * t_par));

    let engine = Compiled::with_options(lp.clone(), EngineOptions::default());
    let domain = engine.outer_domain().map_err(|e| e.to_string())?;
    let chunk_len = domain.len().div_ceil(32).max(1);
    let mut chunk_times = Vec::new();
    let group = tr.begin("parallel.chunks");
    for chunk in domain.chunks(chunk_len) {
        let (out, t) = probe(tr, "parallel.chunk", 1, || {
            engine.run_outer_chunk(chunk, FingerprintVisitor::default())
        });
        out.map_err(|e| e.to_string())?;
        chunk_times.push(t);
    }
    tr.end(group);
    v.insert("parallel.chunk_p50_s", median(&chunk_times));
    v.insert("parallel.chunk_max_s", quantile(&chunk_times, 1.0));

    let (json, t) = probe(tr, "telemetry.to_json", 5, || report.to_json());
    v.insert("telemetry.to_json_s", t);
    v.insert("telemetry.report_bytes", json.len() as f64);
    Ok(t_one)
}

/// The process hop: the same sweep through 1 and 2 worker processes, and a
/// near-empty sweep for the spawn + handshake + bye floor.
fn distribute_probes(
    tr: &mut Tracer,
    env: &Env,
    lp: &LoweredPlan,
    dim: i64,
    want: (u64, u64),
    t_one_thread: f64,
    v: &mut Values,
) -> Result<(), String> {
    let opts = |workers: usize, dim: i64| {
        // Workers are `repro worker`, told to use the library-default
        // schedule so the options-signature handshake passes.
        let cmd = [
            env.repro.to_string_lossy().as_ref(),
            "worker",
            &dim.to_string(),
            "--schedule",
            "declared",
        ]
        .map(str::to_string)
        .to_vec();
        let mut opts = DistributeOptions::new(workers, cmd);
        opts.chunk_count = 32;
        opts
    };
    let sweep = |tr: &mut Tracer, name: &'static str, lp: &LoweredPlan, o: &DistributeOptions| {
        let (out, t) = probe(tr, name, 1, || {
            run_distributed(lp, o, FingerprintVisitor::default)
        });
        let (out, report) = out.map_err(|e| format!("{name}: {e}"))?;
        let faults = report.fault_counters;
        if faults.worker_restarts + faults.shards_retried + faults.heartbeat_timeouts != 0 {
            return Err(format!(
                "{name}: worker restart, retry or timeout on a fault-free run"
            ));
        }
        Ok(((out.visitor.count, out.visitor.hash), t))
    };
    let (got1, t1) = sweep(tr, "distribute.run_w1", lp, &opts(1, dim))?;
    let (got2, t2) = sweep(tr, "distribute.run_w2", lp, &opts(env.probe_threads, dim))?;
    if got1 != want || got2 != want {
        return Err("distribute: survivors or fingerprint differ from the serial run".to_string());
    }
    let floor_dim = 16;
    let floor_lp = Variant::cli(floor_dim).lower();
    let (_, t_floor) = sweep(tr, "distribute.empty_sweep", &floor_lp, &opts(1, floor_dim))?;
    v.insert("distribute.run_w1_s", t1);
    v.insert("distribute.run_w2_s", t2);
    v.insert("distribute.hop_overhead_s", t1 - t_one_thread);
    v.insert("distribute.empty_sweep_s", t_floor);
    Ok(())
}

/// Generated C through gcc: emit, compile, run-only. Returns the run time.
fn genc_probe(
    tr: &mut Tracer,
    lp: &LoweredPlan,
    dir: &Path,
    survivors: u64,
) -> Result<(f64, usize, f64, f64), String> {
    let cc = find_c_compiler().ok_or("no C compiler (gcc/cc) on PATH")?;
    let program = lower(&Program::from_lowered(lp).map_err(|e| e.to_string())?);
    let (source, emit_s) = probe(tr, "codegen.emit_c", 3, || CBackend.generate(&program));
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (src, bin) = (dir.join("space.c"), dir.join("space_c"));
    write_source(&src, &source).map_err(|e| e.to_string())?;
    let (built, gcc_s) = probe(tr, "codegen.gcc", 1, || compile(&cc, &["-O2"], &src, &bin));
    built.map_err(|e| e.to_string())?;
    let (ran, run_s) = probe(tr, "codegen.run", 3, || run_binary(&bin));
    let (stdout, _) = ran.map_err(|e| e.to_string())?;
    match RunCounts::parse(&stdout) {
        Some(counts) if counts.survivors == survivors => Ok((emit_s, source.len(), gcc_s, run_s)),
        other => Err(format!(
            "generated C: want {survivors} survivors, got {other:?}"
        )),
    }
}

/// The native chunk worker: emit, cold and warm prepare, per-chunk cost and
/// the spawn floor (an empty chunk).
fn native_probes(
    tr: &mut Tracer,
    env: &Env,
    lp: &LoweredPlan,
    want: (u64, u64),
    v: &mut Values,
) -> Result<(), String> {
    let program = lower(&Program::from_lowered(lp).map_err(|e| e.to_string())?);
    v.insert(
        "native.emit_s",
        probe(tr, "native.emit", 3, || emit_chunk_worker(&program)).1,
    );

    let cache = env.work.join("probe-native-cache");
    std::env::set_var("BEAST_NATIVE_CACHE_DIR", &cache);
    let opts = EngineOptions::native();
    // No warm-up here: the cold prepare is the one that runs gcc (emit, hash,
    // compile, install — the product only reports the compile in whole ms).
    let _ = std::fs::remove_dir_all(&cache);
    tr.next_op();
    let ctx = tr.time("native.prepare_cold", || NativeContext::prepare(lp, &opts))?;
    v.insert(
        "native.prepare_cold_s",
        *tr.self_times("native.prepare_cold")
            .last()
            .expect("just recorded"),
    );
    let (warm, t) = probe(tr, "native.prepare_warm", 3, || {
        NativeContext::prepare(lp, &opts)
    });
    warm?;
    v.insert("native.prepare_warm_s", t);

    let engine = Compiled::with_options(lp.clone(), EngineOptions::default());
    let names = engine.point_names().clone();
    let domain = engine.outer_domain().map_err(|e| e.to_string())?;
    let chunk_len = domain.len().div_ceil(32).max(1);
    let mut chunk_times = Vec::new();
    let mut survivors = 0;
    let group = tr.begin("native.chunks");
    for chunk in domain.chunks(chunk_len) {
        let (out, t) = probe(tr, "native.chunk", 1, || {
            ctx.run_chunk(chunk, &names, CountVisitor::default())
        });
        survivors += out?.visitor.count;
        chunk_times.push(t);
    }
    tr.end(group);
    if survivors != want.0 {
        return Err(format!(
            "native chunks gave {survivors} survivors, want {}",
            want.0
        ));
    }
    v.insert("native.chunk_s", median(&chunk_times));
    let (floor, t) = probe(tr, "native.spawn_floor", 10, || {
        ctx.run_chunk(&[], &names, CountVisitor::default())
    });
    floor?;
    v.insert("native.spawn_floor_s", t);
    Ok(())
}

/// The cache under the daemon, at library level: a warm `run_cached` and one
/// persist of the filled cache.
fn cache_probes(
    tr: &mut Tracer,
    env: &Env,
    lp: &LoweredPlan,
    want: (u64, u64),
    v: &mut Values,
) -> Result<(), String> {
    let path = env.work.join("probe-cache.json");
    let _ = std::fs::remove_file(&path);
    let cache = SweepCache::with_path(&path, &FingerprintVisitor::default)?;
    let opts = parallel_opts(env.probe_threads);
    // The warm-up call is the cold fill; every timed call hits.
    let (out, t) = probe(tr, "cache.run_cached_warm", 5, || {
        run_cached(lp, &opts, &cache, "probe", FingerprintVisitor::default)
    });
    let (out, report) = out.map_err(|e| e.to_string())?;
    if (out.visitor.count, out.visitor.hash) != want || report.cache_misses != 0 {
        return Err("run_cached: warm fold differs from the serial run, or missed".to_string());
    }
    v.insert("cache.run_cached_warm_s", t);
    let (persisted, t) = probe(tr, "cache.persist", 3, || cache.persist());
    persisted?;
    v.insert("cache.persist_s", t);
    v.insert(
        "cache.file_bytes",
        std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64,
    );
    Ok(())
}

/// The daemon from a client: the `/healthz` floor, then cold and warm
/// submissions split into connect / first byte / body.
fn service_probes(tr: &mut Tracer, env: &Env, v: &mut Values) -> Result<(), String> {
    let group = tr.begin("service");
    let daemon = tr.time("daemon.spawn", || Daemon::spawn(env))?;
    let mut health = Vec::new();
    for _ in 0..20 {
        let answer = tr.time("service.healthz", || {
            exchange(&mut Tracer::new(false), &daemon.addr, "GET", "/healthz", "")
        })?;
        health.push(answer.total_s());
    }
    let set: Vec<Variant> = serve_variants(env.sizes.serve_dim)
        .into_iter()
        .take(4)
        .collect();
    let mut cold = Vec::new();
    for variant in &set {
        cold.push(submit(tr, &daemon.addr, variant, env.expected.get(variant)?)?.overhead_s);
    }
    let want = env.expected.get(&set[0])?;
    let body = format!("{{\"space\":{},\"wait\":true}}", set[0].space_json());
    let (mut total, mut connect, mut ttfb, mut body_s, mut overhead, mut bytes) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        0,
    );
    for _ in 0..100 {
        tr.next_op();
        let wire = exchange(tr, &daemon.addr, "POST", "/sweeps", &body)?;
        connect.push(wire.connect_s);
        ttfb.push(wire.ttfb_s);
        body_s.push(wire.body_s);
        total.push(wire.total_s());
        bytes = wire.bytes;
    }
    for _ in 0..20 {
        overhead.push(submit(tr, &daemon.addr, &set[0], want)?.overhead_s);
    }
    daemon.shutdown()?;
    tr.end(group);
    v.insert("service.healthz_s", median(&health));
    v.insert("service.connect_s", median(&connect));
    v.insert("service.ttfb_s", median(&ttfb));
    v.insert("service.body_s", median(&body_s));
    v.insert("service.warm_p90_s", quantile(&total, 0.9));
    v.insert("service.response_bytes", bytes as f64);
    v.insert("service.cold_overhead_s", median(&cold));
    v.insert("service.warm_overhead_s", median(&overhead));
    Ok(())
}

/// Sampling: direct-sampler build and draw rate, and the rejection
/// sampler's accept ratio on the smallest space.
fn search_probes(
    tr: &mut Tracer,
    sizes: &ProbeSizes,
    seed: u64,
    v: &mut Values,
) -> Result<(), String> {
    let lp = Variant::cli(sizes.sampler_dim).lower();
    let (built, t) = probe(tr, "search.sampler_build", 3, || {
        DirectSampler::new(&lp, rng(seed, 1))
    });
    let mut sampler = built.map_err(|e| e.to_string())?;
    v.insert("search.sampler_build_s", t);
    let draws = 5_000;
    let (_, t) = probe(tr, "search.draws", 3, || {
        for _ in 0..draws {
            black_box(sampler.sample()).expect("draws from a counted space succeed");
        }
    });
    v.insert("search.draws_per_s", draws as f64 / t);

    let small = Variant::cli(16).lower();
    let mut rejection = Sampler::new(&small, rng(seed, 2));
    tr.time("search.rejection", || {
        for _ in 0..50 {
            black_box(rejection.sample(1_000_000)).expect("rejection draws succeed");
        }
    });
    let s = rejection.stats;
    v.insert(
        "search.rejection_accept_ratio",
        s.accepted as f64 / (s.accepted + s.rejected + s.dead_ends) as f64,
    );
    Ok(())
}

/// The interpreters and generated C on the smallest space.
fn interpreter_probes(tr: &mut Tracer, env: &Env, dim: i64, v: &mut Values) -> Result<(), String> {
    let lp = Variant::cli(dim).lower();
    let vm = Vm::compile(&lp, VmStyle::NumericFor);
    let (out, t) = probe(tr, "vm.run", 3, || vm.run(CountVisitor::default()));
    let survivors = out.map_err(|e| e.to_string())?.visitor.count;
    v.insert("vm.run_s", t);
    let walker = Walker::new(&lp.plan, LoopStyle::RangeLazy);
    let (out, t_walker) = probe(tr, "walker.run", 1, || walker.run(CountVisitor::default()));
    if out.map_err(|e| e.to_string())?.visitor.count != survivors {
        return Err("walker and VM disagree".to_string());
    }
    v.insert("walker.run_s", t_walker);
    let (.., run_s) = genc_probe(tr, &lp, &env.work.join("genc-interp"), survivors)?;
    v.insert("walker.over_genc", t_walker / run_s);
    Ok(())
}

/// What the counting ladder found.
#[derive(Default)]
struct Ladder {
    seconds: f64,
    memo_entries: u64,
    memo_hits: u64,
    values_visited: u64,
    decided: usize,
    tuples_decided: usize,
}

/// Exact counting over the ladder under the default budget, survivors then
/// dependent tuples. A rung the budget cannot decide is counted, not an error.
fn count_ladder(
    tr: &mut Tracer,
    rungs: &[Option<i64>],
    tuple_rungs: &[Option<i64>],
) -> Result<Ladder, String> {
    let mut ladder = Ladder::default();
    let group = tr.begin("count.ladder");
    for &rung in rungs {
        let lp = ladder_space(rung)?;
        tr.next_op();
        let (total, stats) = tr.time("count.rung", || {
            let mut counter = Counter::new(&lp);
            let total = counter.total();
            (total, counter.stats().clone())
        });
        ladder.decided += usize::from(total.map_err(|e| e.to_string())?.is_some());
        ladder.memo_entries += stats.cache_misses;
        ladder.memo_hits += stats.cache_hits;
        ladder.values_visited += stats.enumerated;
        if tuple_rungs.contains(&rung) {
            let tuples = tr.time("count.rung_tuples", || Counter::tuples(&lp).total());
            ladder.tuples_decided += usize::from(tuples.map_err(|e| e.to_string())?.is_some());
        }
    }
    tr.end(group);
    ladder.seconds = tr.self_times("count.rung").iter().sum();
    Ok(ladder)
}

/// Run every probe and assemble the per-layer metrics of one traced run.
pub fn run(
    env: &Env,
    tr: &mut Tracer,
    own: &Counts,
    host: &HostReport,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let sizes = if env.quick { &QUICK } else { &FULL };
    let mut v = Values::new();
    let all = tr.begin("probes");

    let lp = core_probes(tr, sizes.engine_dim, &mut v)?;
    let want = compiled_probes(tr, &lp, &mut v)?;
    let t_one = parallel_probes(tr, &lp, env.probe_threads, want, &mut v)?;
    distribute_probes(tr, env, &lp, sizes.engine_dim, want, t_one, &mut v)?;
    let (emit_s, bytes, gcc_s, run_s) = genc_probe(tr, &lp, &env.work.join("genc"), want.0)?;
    v.insert("codegen.emit_c_s", emit_s);
    v.insert("codegen.c_bytes", bytes as f64);
    v.insert("codegen.gcc_s", gcc_s);
    v.insert("codegen.run_s", run_s);
    v.insert("compiled.over_genc", v["compiled.run_declared_s"] / run_s);
    native_probes(tr, env, &lp, want, &mut v)?;
    cache_probes(tr, env, &lp, want, &mut v)?;
    service_probes(tr, env, &mut v)?;
    search_probes(tr, sizes, env.seed, &mut v)?;
    interpreter_probes(tr, env, sizes.interp_dim, &mut v)?;

    let mut spawns = Vec::new();
    for _ in 0..10 {
        let t = std::time::Instant::now();
        let (_, exit) = tr
            .time("harness.spawn_floor", || {
                Proc::spawn(Command::new(&env.repro).arg("device")).and_then(|mut p| p.output())
            })
            .map_err(|e| format!("repro device: {e}"))?;
        if exit.code != Some(0) {
            return Err(format!("repro device exited with {:?}", exit.code));
        }
        spawns.push(t.elapsed().as_secs_f64());
    }
    v.insert("harness.spawn_floor_s", median(&spawns));

    // Last: the ladder frees ~500 k memo entries per undecided rung, and the
    // allocator's consolidation would land on whichever probe ran next.
    let ladder = count_ladder(tr, sizes.ladder, sizes.tuple_ladder)?;
    let rungs = sizes.ladder.len() as f64;
    v.insert("count.total_s", ladder.seconds);
    v.insert("count.memo_entries", ladder.memo_entries as f64);
    v.insert("count.memo_hits", ladder.memo_hits as f64);
    v.insert("count.values_visited", ladder.values_visited as f64);
    v.insert("count.decided_share", ladder.decided as f64 / rungs);
    v.insert(
        "count.tuples_decided_share",
        ladder.tuples_decided as f64 / sizes.tuple_ladder.len() as f64,
    );
    tr.end(all);

    for &name in WORKLOAD_OWN {
        v.insert(name, own.get(name).copied().unwrap_or(0.0));
    }
    let (evals, masked) = (v["lanes.lane_evals"], v["lanes.lanes_masked"]);
    v.insert(
        "lanes.utilization",
        if evals + masked > 0.0 {
            evals / (evals + masked)
        } else {
            0.0
        },
    );
    v.insert("host.calib_s", host.calib_s);
    v.insert("host.steal_share", host.steal_share);
    v.insert(
        "host.nproc",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );

    PER_LAYER
        .iter()
        .map(|&(name, unit)| match v.get(name) {
            Some(value) if value.is_finite() => Ok((name.to_string(), *value, unit)),
            other => Err(format!("probe bug: per-layer metric `{name}` is {other:?}")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
        for own in WORKLOAD_OWN {
            assert!(seen.contains(own), "{own} is not a per-layer metric");
        }
    }

    /// The measured pitfall: after a tuple-mode `Counter` frees its 500 k
    /// memo entries, the next un-warmed `Compiled::with_options` reads
    /// hundreds of milliseconds instead of a fraction of one. With the
    /// warm-up call in [`probe`], `compiled.build_s` is the same whether or
    /// not the ladder ran first.
    #[test]
    fn compiled_build_time_does_not_depend_on_the_ladder() {
        let lp = Variant::cli(16).lower();
        let build = |tr: &mut Tracer| {
            probe(tr, "compiled.build", 5, || {
                Compiled::with_options(lp.clone(), EngineOptions::default())
            })
            .1
        };
        let mut tr = Tracer::new(true);
        let before = build(&mut tr);
        count_ladder(&mut tr, &[Some(16), Some(32)], &[Some(32)]).unwrap();
        let after = build(&mut tr);
        assert!(
            (after - before).abs() < before.max(after) * 0.5 + 2e-3,
            "compiled.build_s moved from {before} s to {after} s after the ladder"
        );
    }
}
