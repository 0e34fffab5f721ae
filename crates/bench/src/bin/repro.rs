//! `repro` — regenerate every figure and table of the paper's evaluation.
//!
//! ```text
//! repro device            Fig. 8/9   device query + compute-capability lookup
//! repro space             Fig. 10/11 settings and the 15 GEMM iterators
//! repro fig16             Fig. 16    dependency DAG (DOT) + level sets
//! repro fig17 [N]         Fig. 17    interpreter loop styles × nest depth
//! repro fig18 [N]         Fig. 18    bytecode VM loop styles × nest depth
//! repro fig19 [N]         Fig. 19    compiled backends × nest depth
//! repro headline [DIM]    §XI-B/D    GEMM sweep: interpreted vs compiled
//! repro funnel [DIM]      §VI        pruning funnel on the GEMM space
//! repro table1            Table I    autotuned kernels vs baselines
//! repro threads [DIM] [--threads N] [--json PATH]
//!                         §X-B       multithreaded sweep scaling; with
//!                                    --threads runs one count and prints the
//!                                    full telemetry tables, with --json
//!                                    writes the SweepReport(s) as JSON
//! repro search [DIM] [--sampler {rejection,direct}]
//!                         §XII       statistical search vs exhaustive
//!                                    (extension); --sampler picks the
//!                                    point source: rejection walks
//!                                    (default) or the zero-rejection
//!                                    count-weighted direct sampler
//! repro viz [DIM]         [7]        write funnel.svg / radial.svg / dag.dot
//! repro batched [N]       ref [5]    the second model problem: batched Cholesky
//! repro lint [DIM] [--json PATH]
//!                         linter     static analysis of the GEMM space
//!                                    (BE001–BE010 diagnostics, including
//!                                    the exact-count lints); exits nonzero
//!                                    on error-severity findings
//! repro count [DIM] [--json PATH]
//!                         analysis   exact survivor count of the GEMM
//!                                    space by model counting over the
//!                                    lowered plan: survivors, dependent
//!                                    tuples, survival rate, per-level
//!                                    stored / solved entries, feasible-
//!                                    domain sizes and cache stats,
//!                                    cross-checked against a full
//!                                    engine sweep (exit 6 on mismatch)
//! repro sweep [DIM] [--threads N] [--chunks M] [--policy P] [--seed S]
//!             [--inject-errors R] [--inject-panics R] [--transient]
//!             [--checkpoint PATH] [--resume] [--every N]
//!             [--deadline SECS] [--stop-after K] [--json PATH] [--verify]
//!                         §X-C       fault-tolerant sweep driver: runs the
//!                                    GEMM space under a fault policy
//!                                    (abort, skip, quarantine, retry[:MAX
//!                                    [:BACKOFF_MS]]), optional seeded fault
//!                                    injection, checkpoint/resume, and a
//!                                    wall-clock deadline; prints the
//!                                    order-sensitive survivor fingerprint
//!                                    and exits 3 when the result is
//!                                    partial (resumable); --verify re-runs
//!                                    the sweep on the in-process compiled
//!                                    tier and exits 6 if survivors or
//!                                    fingerprint differ from the requested
//!                                    engine tier
//! repro distribute [DIM] [--workers N] [--chunks M] [--policy P]
//!                  [--heartbeat-ms MS] [--retry K] [--backoff MS]
//!                  [--restarts R] [--checkpoint PATH] [--resume] [--every N]
//!                  [--stop-after K] [--json PATH] [--chaos-kill-after S]
//!                  [--die-after S] [--stall-after S]
//!                         §X-D       distributed sweep: a supervisor deals
//!                                    level-0 chunk shards to N worker
//!                                    *processes* (this binary re-invoked in
//!                                    its hidden `worker` mode) over the
//!                                    length-prefixed protocol of
//!                                    docs/DISTRIBUTED.md, with heartbeats,
//!                                    retry/backoff re-dealing and a merge
//!                                    that is bit-identical to `repro sweep`
//!                                    at any worker count; the chaos flags
//!                                    kill a worker mid-sweep
//!                                    (--chaos-kill-after, supervisor-side
//!                                    SIGKILL) or make one crash/stall on
//!                                    its Sth shard (--die-after /
//!                                    --stall-after, forwarded worker-side);
//!                                    exit codes match `sweep` (3 partial)
//! repro serve [--addr A] [--threads N] [--executors E] [--chunks M]
//!             [--cache PATH]
//!                         service    sweep-as-a-service HTTP daemon
//!                                    (default 127.0.0.1:7411) with the
//!                                    fingerprint-keyed sub-sweep cache;
//!                                    protocol in docs/PROTOCOL.md; runs
//!                                    until POST /shutdown
//! repro client [DIM] [--addr A] [--runs K] [--expect-speedup F]
//!              [--shutdown]
//!                         service    smoke client: submits the same GEMM
//!                                    sweep K times (default 2), prints
//!                                    per-run wall time and cache traffic,
//!                                    exits 4 if survivor fingerprints
//!                                    differ across runs and 5 if the warm
//!                                    speedup is below --expect-speedup;
//!                                    --shutdown stops the daemon after
//! repro all               everything above with small defaults
//! ```
//!
//! The global `--no-intervals` flag disables the compiled engine's interval
//! block pruning in the subcommands that use it (`headline`, `funnel`,
//! `threads`) — the interval-pruning ablation. Survivor counts are
//! identical either way.
//!
//! The global `--no-congruence` flag keeps interval pruning but disables the
//! congruence (divisibility) half of the reduced product — the congruence
//! ablation. Survivors are identical either way; only `congruence_skips`
//! drops to zero.
//!
//! Every engine runs a level's checks in the order the planner emitted
//! them, the paper's order (DESIGN.md §5). `--schedule declared` names that
//! order and is accepted, as a no-op, where older scripts pass it; any
//! other `--schedule` value (the retired `adaptive` and `static` modes
//! included) is an error (exit 2).
//!
//! Every GEMM subcommand reads its `[DIM]` the same way: a number `D` is
//! the reduced(`D`) device, `paper` the paper's K40c device (the space of
//! §XI, 1,207,600 survivors), and anything else exits 2. Without one,
//! `lint` and `count` take the paper's device and the others a reduced one
//! (reduced(32); `threads` reduced(48), `viz` reduced(24)).
//!
//! Any other `--flag` a subcommand does not read is an error (exit 2), so a
//! typo such as `--thread 2` never silently runs the defaults.
//!
//! The global `--engine {walker,compiled,native}` flag picks the evaluation
//! tier for `sweep` (default: `compiled`). `native` lowers the plan to a
//! standalone C chunk worker, compiles it once with the host C compiler
//! (cached on disk across runs), and evaluates level-0 chunks in worker
//! processes — bit-identical survivors, order and fingerprints, with a
//! silent fallback to the in-process engine when no compiler is installed.
//! `walker` (for `sweep` only; any other subcommand exits 2) runs the serial
//! interpreting backend (no parallel driver, no fault tolerance) as a
//! ground-truth reference and prints its per-constraint funnel, which
//! `--no-intervals` reproduces count for count on the other tiers.
//!
//! Numbers are machine-relative; the paper's *shape* (ordering, rough
//! factors) is the reproduction target. See EXPERIMENTS.md.

use std::time::Instant;

use beast_bench::{loop_nest_space, miters_per_sec, plan_default};
use beast_codegen::{all_backends, all_toolchains, ToolchainResult};
use beast_core::ir::LoweredPlan;
use beast_core::plan::Plan;
use beast_cuda::{CcLimits, DeviceProps};
use beast_engine::checkpoint::{CheckpointConfig, JsonValue};
use beast_engine::compiled::{Compiled, EngineOptions, EngineTier};
use beast_engine::distribute::{serve_worker, WorkerChaos, Workers};
use beast_engine::fault::{FaultInjector, FaultPolicy};
use beast_engine::service::{ServiceConfig, SweepService};
use beast_engine::sweep::{refuse_pairings, sweep, SweepSpec};
use beast_engine::telemetry::SweepReport;
use beast_engine::visit::{CountVisitor, FingerprintVisitor};
use beast_engine::vm::{Vm, VmStyle};
use beast_engine::walker::{LoopStyle, Walker};
use beast_gemm::{build_gemm_space, gemm_resolver, GemmSpaceParams};
use beast_gpu_sim::Transpose;
use beast_kernels::{
    autotune, batched_cholesky, batched_cholesky_space, blocked_gemm, cholesky_interleaved,
    cpu_gemm_space, gemm_flops, naive_gemm, point_to_batch_params, point_to_gemm_params,
    BatchParams, BatchStrategy, CacheModel, Dense, GemmParams, InterleavedBatch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Write to stdout, treating a closed pipe (`repro sweep 16 | head -1`) as a
/// normal end of output: exit quietly instead of panicking the way
/// `println!` does. Every line this binary prints goes through here.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => { write_stdout(format_args!("\n")) };
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let no_intervals = args.iter().any(|a| a == "--no-intervals");
    args.retain(|a| a != "--no-intervals");
    let no_congruence = args.iter().any(|a| a == "--no-congruence");
    args.retain(|a| a != "--no-congruence");
    // The declared order is the only one; its name stays accepted.
    if let Some(i) = args.iter().position(|a| a == "--schedule") {
        match args.get(i + 1).map(String::as_str) {
            Some("declared") => drop(args.drain(i..=i + 1)),
            value => {
                let got = value.map_or("no value".to_string(), |v| format!("`{v}`"));
                eprintln!("error: --schedule: only `declared` remains, got {got}");
                std::process::exit(2);
            }
        }
    }
    // `walker` is not an engine tier: it selects `repro sweep`'s serial
    // reference run, which no driver takes.
    let mut tier = EngineTier::Compiled;
    let mut walker = false;
    if let Some(i) = args.iter().position(|a| a == "--engine") {
        let Some(value) = args.get(i + 1) else {
            eprintln!("error: --engine needs a value: walker, compiled or native");
            std::process::exit(2);
        };
        walker = value == "walker";
        if !walker {
            tier = EngineTier::parse(value).unwrap_or_else(|| {
                eprintln!("error: --engine: unknown tier `{value}` (walker, compiled, native)");
                std::process::exit(2);
            });
        }
        args.drain(i..=i + 1);
    }
    let mut engine = if no_intervals {
        EngineOptions::no_intervals()
    } else {
        EngineOptions::default()
    };
    engine.congruence = !no_congruence;
    engine.engine = tier;
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let Some((_, known)) = SUBCOMMANDS.iter().find(|(name, _)| *name == cmd) else {
        eprintln!("unknown subcommand `{cmd}`; see the module docs");
        std::process::exit(2);
    };
    reject_unknown_flags(&args, known);
    if walker && cmd != "sweep" {
        eprintln!("error: --engine walker is only for `repro sweep` (the serial reference run)");
        std::process::exit(2);
    }
    let arg_num = |default: u64| -> u64 {
        args.get(1).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    let flags = Flags(&args);
    match cmd {
        "device" => device(),
        "space" => space(),
        "fig16" => fig16(),
        "fig17" => fig17(arg_num(3_000_000)),
        "fig18" => fig18(arg_num(10_000_000)),
        "fig19" => fig19(arg_num(50_000_000)),
        "headline" => headline(&flags.device(Some(32)), engine),
        "funnel" => funnel(&flags.device(Some(32)), engine),
        "table1" => table1(),
        "threads" => threads(
            &flags.device(Some(48)),
            flags.get("--threads").and_then(|s| s.parse().ok()),
            flags.get("--json"),
            engine,
        ),
        "search" => {
            let sampler = match flags.get("--sampler").as_deref() {
                None | Some("rejection") => beast_search::SamplerKind::Rejection,
                Some("direct") => beast_search::SamplerKind::Direct,
                Some(other) => {
                    eprintln!("error: --sampler: unknown kind `{other}` (rejection, direct)");
                    std::process::exit(2);
                }
            };
            search(&flags.device(Some(32)), sampler)
        }
        "viz" => viz(&flags.device(Some(24))),
        "batched" => batched(arg_num(32) as i64),
        "lint" => lint(&flags.device(None), flags.get("--json")),
        "count" => count(&flags.device(None), flags.get("--json")),
        "sweep" => sweep_cmd(&args, engine, walker),
        "distribute" => distribute(&args, engine),
        "worker" => worker_mode(&args, engine),
        "serve" => serve(&args),
        "client" => client(&args),
        "all" => {
            device();
            space();
            fig16();
            fig17(1_000_000);
            fig18(3_000_000);
            fig19(20_000_000);
            headline(&reduced(24), engine);
            funnel(&reduced(24), engine);
            lint(&paper(), None);
            count(&reduced(16), None);
            table1();
            batched(32);
            threads(&reduced(32), None, None, engine);
            search(&reduced(24), beast_search::SamplerKind::Rejection);
        }
        other => unreachable!("`{other}` is in SUBCOMMANDS but not dispatched"),
    }
}

/// Every subcommand and the flags it reads — `(name, takes a value)` — on
/// top of the global engine flags `main` consumes itself. `main` refuses any
/// other `--flag` before dispatch, and any subcommand missing here.
const SUBCOMMANDS: &[(&str, &[(&str, bool)])] = &[
    ("device", &[]),
    ("space", &[]),
    ("fig16", &[]),
    ("fig17", &[]),
    ("fig18", &[]),
    ("fig19", &[]),
    ("headline", &[]),
    ("funnel", &[]),
    ("table1", &[]),
    ("threads", &[("--threads", true), ("--json", true)]),
    ("search", &[("--sampler", true)]),
    ("viz", &[]),
    ("batched", &[]),
    ("lint", &[("--json", true)]),
    ("count", &[("--json", true)]),
    (
        "sweep",
        &[
            ("--threads", true),
            ("--chunks", true),
            ("--policy", true),
            ("--seed", true),
            ("--inject-errors", true),
            ("--inject-panics", true),
            ("--transient", false),
            ("--checkpoint", true),
            ("--resume", false),
            ("--every", true),
            ("--deadline", true),
            ("--stop-after", true),
            ("--json", true),
            ("--verify", false),
        ],
    ),
    (
        "distribute",
        &[
            ("--workers", true),
            ("--chunks", true),
            ("--policy", true),
            ("--heartbeat-ms", true),
            ("--retry", true),
            ("--backoff", true),
            ("--restarts", true),
            ("--checkpoint", true),
            ("--resume", false),
            ("--every", true),
            ("--stop-after", true),
            ("--json", true),
            ("--chaos-kill-after", true),
            ("--die-after", true),
            ("--stall-after", true),
        ],
    ),
    ("worker", &[("--die-after", true), ("--stall-after", true)]),
    (
        "serve",
        &[
            ("--addr", true),
            ("--threads", true),
            ("--executors", true),
            ("--chunks", true),
            ("--cache", true),
        ],
    ),
    (
        "client",
        &[("--addr", true), ("--runs", true), ("--expect-speedup", true), ("--shutdown", false)],
    ),
    ("all", &[]),
];

/// Exit 2 on the first `--flag` among a subcommand's arguments that `known`
/// — `(name, takes a value)` — does not list, so a typo never silently runs
/// the defaults. `main` has already consumed the global engine flags.
fn reject_unknown_flags(args: &[String], known: &[(&str, bool)]) {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        match known.iter().find(|(name, _)| name == arg) {
            Some((_, takes_value)) => {
                if *takes_value {
                    rest.next();
                }
            }
            None => {
                eprintln!("error: unknown flag `{arg}` for `repro {}`", args[0]);
                std::process::exit(2);
            }
        }
    }
}

fn header(title: &str) {
    outln!("\n=== {title} ===");
}

/// A GEMM device as the subcommands name it: its label (`reduced(32)`,
/// `paper-default`) and its space's parameters.
type Device = (String, GemmSpaceParams);

/// The reduced synthetic device with `dim`-sized matrices.
fn reduced(dim: i64) -> Device {
    (format!("reduced({dim})"), GemmSpaceParams::reduced(dim))
}

/// The paper's K40c device.
fn paper() -> Device {
    ("paper-default".to_string(), GemmSpaceParams::paper_default())
}

/// The GEMM space for `params`, planned and lowered — every subcommand that
/// evaluates the GEMM space starts here.
fn gemm(params: &GemmSpaceParams) -> (Plan, LoweredPlan) {
    plan_default(&build_gemm_space(params).unwrap())
}

// ---------------------------------------------------------------------------
// Fig. 8/9: device information
// ---------------------------------------------------------------------------

fn device() {
    header("Fig. 8/9 — device query and compute-capability lookup (Tesla K40c)");
    let d = DeviceProps::tesla_k40c();
    outln!("max_threads_per_block             = {}", d.max_threads_per_block);
    outln!("max_threads_dim_x                 = {}", d.max_threads_dim_x);
    outln!("max_threads_dim_y                 = {}", d.max_threads_dim_y);
    outln!("max_shared_mem_per_block          = {}", d.max_shared_mem_per_block);
    outln!("warp_size                         = {}", d.warp_size);
    outln!("max_regs_per_block                = {}", d.max_regs_per_block);
    outln!("max_threads_per_multi_processor   = {}", d.max_threads_per_multi_processor);
    outln!("cudamajor                         = {}", d.cuda_major);
    outln!("cudaminor                         = {}", d.cuda_minor);
    outln!("max_registers_per_multi_processor = {}", d.max_registers_per_multi_processor);
    outln!("max_shmem_per_multi_processor     = {}", d.max_shmem_per_multi_processor);
    outln!("float_size                        = {}", d.float_size);
    let cc = CcLimits::for_cc(d.cuda_major, d.cuda_minor).unwrap();
    outln!("max_blocks_per_multi_processor    = {}", cc.max_blocks_per_multi_processor);
    outln!("max_warps_per_multi_processor     = {}", cc.max_warps_per_multi_processor);
    outln!("max_registers_per_thread          = {}", cc.max_registers_per_thread);
}

// ---------------------------------------------------------------------------
// Fig. 10/11: settings + iterators
// ---------------------------------------------------------------------------

fn space() {
    header("Fig. 10/11 — GEMM search space (dgemm_nn on Tesla K40c)");
    let params = GemmSpaceParams::paper_default();
    let s = build_gemm_space(&params).unwrap();
    outln!("space: {}", s.name());
    outln!(
        "settings: precision={} arithmetic={} trans_a={} trans_b={}",
        params.precision.precision_str(),
        params.precision.arithmetic_str(),
        i32::from(params.transpose.a),
        i32::from(params.transpose.b)
    );
    outln!("{} iterators:", s.iters().len());
    for (i, it) in s.iters().iter().enumerate() {
        outln!(
            "  [{i:2}] {:<12} level {}  {:?}",
            it.name,
            s.dag().level(s.iter_node(i)),
            it.kind
        );
    }
    outln!("{} derived variables, {} constraints", s.deriveds().len(), s.constraints().len());
    for c in s.constraints() {
        outln!("  [{:<11}] {}", c.class.to_string(), c.name);
    }
}

// ---------------------------------------------------------------------------
// Fig. 16: dependency DAG
// ---------------------------------------------------------------------------

fn fig16() {
    header("Fig. 16 — dependency DAG of the GEMM space");
    let s = build_gemm_space(&GemmSpaceParams::paper_default()).unwrap();
    let dag = s.dag();
    outln!("level sets (iterators ○, derived □, constraints ⬣):");
    for (level, nodes) in dag.level_sets().iter().enumerate() {
        let names: Vec<String> = nodes
            .iter()
            .map(|&v| {
                let marker = match dag.kind(v) {
                    beast_core::dag::NodeKind::Iter => "○",
                    beast_core::dag::NodeKind::Derived => "□",
                    beast_core::dag::NodeKind::Constraint => "⬣",
                };
                format!("{marker}{}", dag.name(v))
            })
            .collect();
        outln!("  L{level}: {}", names.join("  "));
    }
    outln!("\nGraphviz DOT (pipe into `dot -Tsvg`):\n");
    outln!("{}", dag.to_dot(s.name()));
}

// ---------------------------------------------------------------------------
// Fig. 17: interpreter (Python cost model) loop styles
// ---------------------------------------------------------------------------

fn fig17(total: u64) {
    header(&format!(
        "Fig. 17 — AST-walker loop styles (Python cost model), {total} iterations"
    ));
    outln!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "style", "1 loop", "2 loops", "3 loops", "4 loops"
    );
    for (label, style) in [
        ("while", LoopStyle::While),
        ("range (list)", LoopStyle::RangeMaterialized),
        ("xrange (lazy)", LoopStyle::RangeLazy),
    ] {
        let mut cells = Vec::new();
        for depth in 1..=4 {
            let (space, iters) = loop_nest_space(depth, total);
            let (plan, _) = plan_default(&space);
            let walker = Walker::new(&plan, style);
            let t0 = Instant::now();
            let out = walker.run(CountVisitor::default()).unwrap();
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(out.visitor.count, iters);
            cells.push(format!("{:>9.2} M/s", miters_per_sec(iters, dt)));
        }
        outln!("{:<18} {}", label, cells.join(" "));
    }
}

// ---------------------------------------------------------------------------
// Fig. 18: bytecode VM (Lua cost model) loop styles
// ---------------------------------------------------------------------------

fn fig18(total: u64) {
    header(&format!(
        "Fig. 18 — bytecode-VM loop styles (Lua cost model), {total} iterations"
    ));
    outln!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "style", "1 loop", "2 loops", "3 loops", "4 loops"
    );
    for (label, style) in [
        ("while", VmStyle::While),
        ("repeat-until", VmStyle::RepeatUntil),
        ("numeric for", VmStyle::NumericFor),
    ] {
        let mut cells = Vec::new();
        for depth in 1..=4 {
            let (space, iters) = loop_nest_space(depth, total);
            let (_, lp) = plan_default(&space);
            let vm = Vm::compile(&lp, style);
            let t0 = Instant::now();
            let out = vm.run(CountVisitor::default()).unwrap();
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(out.visitor.count, iters);
            cells.push(format!("{:>9.2} M/s", miters_per_sec(iters, dt)));
        }
        outln!("{:<18} {}", label, cells.join(" "));
    }
}

// ---------------------------------------------------------------------------
// Fig. 19: compiled backends
// ---------------------------------------------------------------------------

fn fig19(total: u64) {
    header(&format!(
        "Fig. 19 — compiled evaluation, {total} iterations (in-process engine + generated code where toolchains exist)"
    ));
    outln!("{:<22} {:>12} {:>12} {:>12} {:>12}", "backend", "1 loop", "2 loops", "3 loops", "4 loops");

    // In-process compiled engine.
    let mut cells = Vec::new();
    for depth in 1..=4 {
        let (space, iters) = loop_nest_space(depth, total);
        let (_, lp) = plan_default(&space);
        let compiled = Compiled::new(lp);
        let t0 = Instant::now();
        let out = compiled.run(CountVisitor::default()).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(out.visitor.count, iters);
        cells.push(format!("{:>9.2} M/s", miters_per_sec(iters, dt)));
    }
    outln!("{:<22} {}", "in-process compiled", cells.join(" "));

    // Generated source through real toolchains (includes build time in a
    // separate column-free note; rates measure the run only).
    for (backend, toolchain) in all_backends().iter().zip(all_toolchains()) {
        let mut cells = Vec::new();
        let mut available = true;
        for depth in 1..=4 {
            let (space, iters) = loop_nest_space(depth, total);
            let (_, lp) = plan_default(&space);
            let program =
                beast_codegen::lower(&beast_codegen::Program::from_lowered(&lp).unwrap());
            match beast_codegen::generate_and_run(backend.as_ref(), &toolchain, &program) {
                ToolchainResult::Ran { counts, run, .. } => {
                    assert_eq!(counts.survivors, iters);
                    cells.push(format!(
                        "{:>9.2} M/s",
                        miters_per_sec(iters, run.as_secs_f64())
                    ));
                }
                ToolchainResult::Unavailable(_) => {
                    available = false;
                    break;
                }
                ToolchainResult::Failed { stage, detail } => {
                    panic!("{} failed at {stage}: {detail}", backend.language())
                }
            }
        }
        if available {
            outln!(
                "{:<22} {}   (run only; excl. compile)",
                format!("generated {}", backend.language()),
                cells.join(" ")
            );
        } else {
            outln!("{:<22} (toolchain not installed)", format!("generated {}", backend.language()));
        }
    }
}

// ---------------------------------------------------------------------------
// §XI-B/D headline: GEMM sweep, interpreted vs compiled
// ---------------------------------------------------------------------------

fn headline((label, params): &Device, engine: EngineOptions) {
    header(&format!(
        "§XI headline — GEMM space sweep on {label} device: interpreted vs compiled"
    ));
    outln!("(paper: 66 948 s Python → 264 s generated C, ≈253×; shape target: orders of magnitude)");
    let (plan, lp) = gemm(params);

    let t0 = Instant::now();
    let walker_out = Walker::new(&plan, LoopStyle::RangeLazy)
        .run(CountVisitor::default())
        .unwrap();
    let t_walker = t0.elapsed().as_secs_f64();

    let vm = Vm::compile(&lp, VmStyle::NumericFor);
    let t0 = Instant::now();
    let vm_out = vm.run(CountVisitor::default()).unwrap();
    let t_vm = t0.elapsed().as_secs_f64();

    let compiled = Compiled::with_options(lp.clone(), engine);
    let t0 = Instant::now();
    let comp_out = compiled.run(CountVisitor::default()).unwrap();
    let t_comp = t0.elapsed().as_secs_f64();

    assert_eq!(walker_out.visitor.count, comp_out.visitor.count);
    assert_eq!(vm_out.visitor.count, comp_out.visitor.count);

    outln!("survivors: {}", comp_out.visitor.count);
    if comp_out.blocks.subtree_skips > 0 {
        outln!(
            "(compiled engine skipped {} subtrees ≈ {} points via interval analysis)",
            comp_out.blocks.subtree_skips, comp_out.blocks.points_skipped
        );
    }
    outln!("{:<26} {:>10} {:>10}", "backend", "seconds", "speedup");
    outln!("{:<26} {:>10.3} {:>9.1}x", "walker (Python model)", t_walker, 1.0);
    outln!("{:<26} {:>10.3} {:>9.1}x", "VM (Lua model)", t_vm, t_walker / t_vm);
    outln!("{:<26} {:>10.3} {:>9.1}x", "compiled (C model)", t_comp, t_walker / t_comp);

    // Generated C through gcc, when available — the paper's actual artifact.
    let program = beast_codegen::Program::from_lowered(&lp).unwrap();
    let lowered = beast_codegen::lower(&program);
    let toolchain = beast_codegen::Toolchain::c();
    let backend = beast_codegen::CBackend;
    match beast_codegen::generate_and_run(&backend, &toolchain, &lowered) {
        ToolchainResult::Ran { counts, build, run } => {
            assert_eq!(counts.survivors, comp_out.visitor.count);
            let t_run = run.as_secs_f64();
            outln!(
                "{:<26} {:>10.3} {:>9.1}x  (+ {:.2} s gcc -O2 compile)",
                "generated C (gcc)",
                t_run,
                t_walker / t_run,
                build.as_secs_f64()
            );
        }
        ToolchainResult::Unavailable(_) => {
            outln!("{:<26} (gcc not installed)", "generated C (gcc)");
        }
        ToolchainResult::Failed { stage, detail } => {
            panic!("generated C failed at {stage}: {detail}");
        }
    }
}

// ---------------------------------------------------------------------------
// Space linter (static analysis, BE001–BE010)
// ---------------------------------------------------------------------------

fn lint((label, params): &Device, json_path: Option<String>) {
    header(&format!("space linter — GEMM space, {label} device"));
    let (_, lp) = gemm(params);
    let report = beast_core::analyze::analyze_with_counts(&lp);
    out!("{}", report.render_text());
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write lint JSON to {path}: {e}");
            std::process::exit(1);
        }
        outln!("wrote lint JSON to {path}");
    }
    if report.has_errors() {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Exact survivor counting (model counting over the lowered plan)
// ---------------------------------------------------------------------------

fn count((label, params): &Device, json_path: Option<String>) {
    use beast_core::analyze::Counter;

    header(&format!("exact survivor count — GEMM space, {label} device"));
    let (_, lp) = gemm(params);

    let t0 = Instant::now();
    let mut counter = Counter::new(&lp);
    let survivors = counter.total().unwrap();
    let t_surv = t0.elapsed();
    let stats = counter.stats().clone();

    let t0 = Instant::now();
    let mut tuple_counter = Counter::tuples(&lp);
    let tuples = tuple_counter.total().unwrap();
    let t_tuples = t0.elapsed();

    match survivors {
        Some(n) => outln!("survivors {n}  ({:.3}s)", t_surv.as_secs_f64()),
        None => outln!(
            "survivors: counting budget exhausted after {:.3}s (enumerated {}, entries {}, free entries {})",
            t_surv.as_secs_f64(),
            stats.enumerated,
            stats.cache_misses,
            stats.levels.iter().map(|l| l.free).sum::<u64>()
        ),
    }
    match tuples {
        Some(n) => outln!("tuples    {n}  ({:.3}s)", t_tuples.as_secs_f64()),
        None => outln!(
            "tuples:    counting budget exhausted after {:.3}s",
            t_tuples.as_secs_f64()
        ),
    }
    if let (Some(s), Some(t)) = (survivors, tuples) {
        if t > 0 {
            outln!("survival rate {:.3e}", s as f64 / t as f64);
        }
    }

    outln!(
        "cache: {} hits, {} misses ({} values enumerated, {} whole domains rejected, {} residue classes pruned)",
        stats.cache_hits,
        stats.cache_misses,
        stats.enumerated,
        stats.domains_rejected,
        stats.residue_classes_pruned
    );
    if !stats.levels.is_empty() {
        outln!(
            "{:<16} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "level", "depth", "memo", "hits", "entries", "free", "solved", "domain", "feasible",
            "res-skip"
        );
        for l in &stats.levels {
            outln!(
                "{:<16} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                l.name,
                l.depth,
                l.memo,
                l.hits,
                l.entries,
                l.free,
                l.solved,
                l.domain_values,
                l.feasible_values,
                l.residue_skipped
            );
        }
    }

    // Cross-check the analysis against ground truth: a full sweep of the
    // compiled engine must find exactly as many survivors.
    if let Some(s) = survivors {
        let t0 = Instant::now();
        let swept = Compiled::new(lp.clone())
            .run(CountVisitor::default())
            .unwrap()
            .visitor
            .count as u128;
        outln!("sweep cross-check: {swept} survivors ({:.3}s)", t0.elapsed().as_secs_f64());
        if swept != s {
            eprintln!("error: exact count {s} disagrees with engine sweep {swept}");
            std::process::exit(6);
        }
        outln!("count matches the engine sweep");
    } else {
        outln!("sweep cross-check skipped (no exact count to compare)");
    }

    if let Some(path) = json_path {
        let opt = |v: Option<u128>| v.map_or("null".to_string(), |n| n.to_string());
        let levels: Vec<String> = stats
            .levels
            .iter()
            .map(|l| {
                let mut name = String::new();
                beast_core::analyze::diagnostics::json_escape_into(&mut name, &l.name);
                format!(
                    "{{\"name\":\"{name}\",\"depth\":{},\"memo\":{},\"hits\":{},\"entries\":{},\"free\":{},\"solved\":{},\"domain_values\":{},\"feasible_values\":{},\"residue_skipped\":{}}}",
                    l.depth, l.memo, l.hits, l.entries, l.free, l.solved, l.domain_values, l.feasible_values, l.residue_skipped
                )
            })
            .collect();
        let rate = match (survivors, tuples) {
            (Some(s), Some(t)) if t > 0 => format!("{:e}", s as f64 / t as f64),
            _ => "null".to_string(),
        };
        let json = format!(
            "{{\"space\":\"{label}\",\"survivors\":{},\"tuples\":{},\"survival_rate\":{rate},\"cache_hits\":{},\"cache_misses\":{},\"enumerated\":{},\"domains_rejected\":{},\"residue_classes_pruned\":{},\"levels\":[{}]}}\n",
            opt(survivors),
            opt(tuples),
            stats.cache_hits,
            stats.cache_misses,
            stats.enumerated,
            stats.domains_rejected,
            stats.residue_classes_pruned,
            levels.join(",")
        );
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write count JSON to {path}: {e}");
            std::process::exit(1);
        }
        outln!("wrote count JSON to {path}");
    }
}

// ---------------------------------------------------------------------------
// §X-C / §X-D: what `sweep`, `distribute` and `worker` share — flag lookup,
// checkpoint wiring and the report tail
// ---------------------------------------------------------------------------

/// `--name value` lookup over one subcommand's arguments.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn get(&self, name: &str) -> Option<String> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).cloned()
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The flag's value as `T` (exit 2 when malformed), `None` when absent.
    fn parsed<T: std::str::FromStr>(&self, name: &str, what: &str) -> Option<T> {
        self.get(name).map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("error: {name} needs {what}, got `{s}`");
                std::process::exit(2);
            })
        })
    }

    fn uint(&self, name: &str, default: u64) -> u64 {
        self.parsed(name, "an unsigned integer").unwrap_or(default)
    }

    /// The positional `[DIM]`, if given.
    fn positional(&self) -> Option<&String> {
        self.0.get(1).filter(|s| !s.starts_with("--"))
    }

    /// The GEMM device `[DIM]` names: a number `D` is `reduced(D)`, `paper`
    /// the paper's device (exit 2 on anything else); absent, `reduced` of
    /// `default`, or the paper's device when `default` is `None`.
    fn device(&self, default: Option<i64>) -> Device {
        match self.positional().map(String::as_str) {
            Some("paper") => paper(),
            Some(s) => reduced(s.parse().unwrap_or_else(|_| {
                eprintln!("error: [DIM] needs a number or `paper`, got `{s}`");
                std::process::exit(2);
            })),
            None => default.map_or_else(paper, reduced),
        }
    }

    fn policy(&self) -> FaultPolicy {
        match self.get("--policy") {
            Some(s) => FaultPolicy::parse(&s).unwrap_or_else(|| {
                eprintln!(
                    "error: --policy: unknown policy `{s}` (abort, skip, quarantine, retry[:MAX[:BACKOFF_MS]])"
                );
                std::process::exit(2);
            }),
            None => FaultPolicy::Abort,
        }
    }

    /// `--checkpoint PATH [--resume] [--every N]`.
    fn checkpoint(&self) -> Option<CheckpointConfig> {
        let mut ck = CheckpointConfig::new(self.get("--checkpoint")?);
        ck.resume = self.has("--resume");
        ck.every_chunks = self.uint("--every", ck.every_chunks as u64).max(1) as usize;
        Some(ck)
    }

    /// The one flag parser of `sweep` and `distribute`: the spec their
    /// flags describe, slots from `--workers` when `workers` is attached
    /// (`distribute`) and from `--threads` otherwise. A flag the run would
    /// read and then ignore is refused first (exit 2, one line naming both
    /// flags) from the library's table of refused pairings, the one
    /// [`SweepSpec::validate`] reads.
    fn spec(
        &self,
        engine: EngineOptions,
        walker: bool,
        workers: Option<Workers>,
    ) -> SweepSpec<'static, FingerprintVisitor> {
        let named = [
            (walker, "--engine walker"),
            (engine.engine == EngineTier::Native, "--engine native"),
            (workers.is_some(), "--workers"),
            (!self.has("--checkpoint"), "no --checkpoint"),
        ];
        let flags = self.0[1..].iter().map(String::as_str).filter(|a| a.starts_with("--"));
        let named = named.iter().filter(|(on, _)| *on).map(|(_, name)| *name);
        let set: Vec<&str> = flags.chain(named).collect();
        if let Err(e) = refuse_pairings(&set) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        let rate = |name: &str| self.parsed(name, "a probability in [0,1]").unwrap_or(0.0);
        let (errors, panics) = (rate("--inject-errors"), rate("--inject-panics"));
        let slots = self.uint(if workers.is_some() { "--workers" } else { "--threads" }, 4);
        let mut spec = SweepSpec {
            chunk_count: self.uint("--chunks", 0) as usize,
            engine,
            fault_policy: self.policy(),
            injector: (errors > 0.0 || panics > 0.0).then(|| {
                FaultInjector::new(self.uint("--seed", 0))
                    .error_rate(errors)
                    .panic_rate(panics)
                    .transient(self.has("--transient"))
            }),
            deadline: self.parsed("--deadline", "seconds").map(std::time::Duration::from_secs_f64),
            stop_after_chunks: self.uint("--stop-after", 0) as usize,
            ..SweepSpec::new(slots.max(1) as usize)
        };
        if let Some(workers) = workers {
            spec = spec.workers(workers);
        }
        if let Some(ck) = self.checkpoint() {
            spec = spec.checkpoint(ck);
        }
        spec
    }
}

/// The tail of `sweep` and `distribute`: the checkpoint line, the sweep,
/// the fingerprint line, report, `--json` dump, and exit 3 when the result
/// is partial — a distinct code so scripts (and the CI smoke job) can tell a
/// resumable partial result from success (0) and failure (1). `kind` /
/// `noun` name the subcommand in messages.
fn run_sweep(
    flags: &Flags<'_>,
    lp: &LoweredPlan,
    spec: &SweepSpec<'_, FingerprintVisitor>,
    (kind, noun): (&str, &str),
) -> FingerprintVisitor {
    if let Some(ck) = flags.checkpoint() {
        let resuming = if ck.resume { ", resuming" } else { "" };
        outln!("checkpoint: {} (every {} chunk(s){resuming})", ck.path.display(), ck.every_chunks);
    }
    let (out, report) = sweep(lp, spec, FingerprintVisitor::default).unwrap_or_else(|e| {
        eprintln!("error: {kind} failed: {e}");
        std::process::exit(1);
    });
    outln!("survivors: {}  fingerprint: {:016x}", out.visitor.count, out.visitor.hash);
    outln!("\n{}", report.render_text());
    if let Some(path) = flags.get("--json") {
        let json = format!(
            "{{\"fingerprint\":\"{:016x}\",\"survivors\":{},\"partial\":{},\"report\":{}}}",
            out.visitor.hash,
            out.visitor.count,
            report.partial,
            report.to_json()
        );
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write {noun} JSON to {path}: {e}");
            std::process::exit(1);
        }
        outln!("wrote {noun} JSON to {path}");
    }
    if report.partial {
        std::process::exit(3);
    }
    out.visitor
}

// ---------------------------------------------------------------------------
// §X-C: fault-tolerant sweep driver (checkpoint/resume, policies, injection)
// ---------------------------------------------------------------------------

fn sweep_cmd(args: &[String], engine: EngineOptions, walker: bool) {
    let flags = Flags(args);
    let (label, params) = flags.device(Some(32));
    let spec = flags.spec(engine, walker, None);
    let rate = |name: &str| flags.parsed(name, "a probability in [0,1]").unwrap_or(0.0);

    header(&format!("§X-C — fault-tolerant sweep, GEMM space on {label} device"));
    outln!(
        "threads={} policy={} chunks={}{}",
        spec.slots,
        spec.fault_policy.name(),
        if spec.chunk_count > 0 { spec.chunk_count.to_string() } else { "auto".to_string() },
        match &spec.injector {
            Some(inj) => format!(
                " injector(seed={}, errors={}, panics={})",
                inj.seed(),
                rate("--inject-errors"),
                rate("--inject-panics")
            ),
            None => String::new(),
        }
    );
    let (plan, lp) = gemm(&params);

    // The walker is the serial ground-truth reference: no parallel driver,
    // so no fault policies, checkpointing or chunk scheduling (the spec
    // refused those flags).
    if walker {
        let walker = Walker::new(&plan, LoopStyle::RangeLazy);
        let t = Instant::now();
        let out = walker.run(FingerprintVisitor::default()).unwrap_or_else(|e| {
            eprintln!("error: walker sweep failed: {e}");
            std::process::exit(1);
        });
        outln!(
            "walker tier (serial): survivors: {}  fingerprint: {:016x}  elapsed {:.3} s",
            out.visitor.count,
            out.visitor.hash,
            t.elapsed().as_secs_f64()
        );
        // The reference funnel: a `--no-intervals` run of any other tier
        // must reproduce these rows count for count.
        outln!("\n{}", out.stats.render_funnel(plan.space()));
        return;
    }

    let got = run_sweep(&flags, &lp, &spec, ("sweep", "sweep"));
    if flags.has("--verify") {
        // Re-run on the in-process compiled tier with otherwise identical
        // options and demand the exact bit-identity contract the native
        // tier is built around. Exit 6 is distinct from partial (3) and the
        // service client's mismatch codes (4/5).
        let verify = SweepSpec {
            chunk_count: spec.chunk_count,
            engine: EngineOptions { engine: EngineTier::Compiled, ..engine },
            ..SweepSpec::new(spec.slots)
        };
        let (vout, _) = sweep(&lp, &verify, FingerprintVisitor::default).unwrap_or_else(|e| {
            eprintln!("error: verification sweep failed: {e}");
            std::process::exit(1);
        });
        if vout.visitor.count != got.count || vout.visitor.hash != got.hash {
            eprintln!(
                "verify FAILED: {} tier gave {} survivors / {:016x}, compiled tier gave {} / {:016x}",
                engine.engine, got.count, got.hash, vout.visitor.count, vout.visitor.hash
            );
            std::process::exit(6);
        }
        outln!(
            "verify: {} tier matches compiled tier ({} survivors, fingerprint {:016x})",
            engine.engine, got.count, got.hash
        );
    }
}

// ---------------------------------------------------------------------------
// §X-D: distributed sweep (multi-process supervisor + worker mode)
// ---------------------------------------------------------------------------

/// Replicate the supervisor's engine configuration onto a worker's command
/// line, so the handshake's [`EngineOptions::signature`] check passes.
fn worker_engine_flags(engine: EngineOptions) -> Vec<String> {
    let mut flags = Vec::new();
    if !engine.intervals {
        flags.push("--no-intervals".to_string());
    }
    if !engine.congruence {
        flags.push("--no-congruence".to_string());
    }
    flags
}

fn distribute(args: &[String], engine: EngineOptions) {
    let flags = Flags(args);
    let (label, params) = flags.device(Some(32));

    // The worker command is this very binary in its hidden `worker` mode,
    // given the same `[DIM]` and the supervisor's engine configuration, so
    // the structural/signature handshake passes. Chaos flags ride along.
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate own executable for worker spawning: {e}");
        std::process::exit(1);
    });
    let mut cmd = vec![exe.to_string_lossy().into_owned(), "worker".to_string()];
    cmd.extend(flags.positional().cloned());
    cmd.extend(worker_engine_flags(engine));
    for chaos_flag in ["--die-after", "--stall-after"] {
        if let Some(v) = flags.get(chaos_flag) {
            cmd.push(chaos_flag.to_string());
            cmd.push(v);
        }
    }
    let workers = Workers {
        heartbeat: std::time::Duration::from_millis(flags.uint("--heartbeat-ms", 10_000).max(1)),
        retry_max: flags.uint("--retry", 3) as u32,
        backoff_ms: flags.uint("--backoff", 50),
        restart_max: flags.uint("--restarts", 0) as usize,
        chaos_kill_after: flags.parsed("--chaos-kill-after", "a shard ordinal"),
        ..Workers::new(cmd)
    };
    let settings = format!(
        "heartbeat={}ms retry={} backoff={}ms",
        workers.heartbeat.as_millis(),
        workers.retry_max,
        workers.backoff_ms
    );
    let spec = flags.spec(engine, false, Some(workers));

    header(&format!("§X-D — distributed sweep, GEMM space on {label} device"));
    outln!(
        "workers={} policy={} chunks={} {settings}",
        spec.slots,
        spec.fault_policy.name(),
        if spec.chunk_count > 0 { spec.chunk_count.to_string() } else { "auto".to_string() },
    );
    let (_, lp) = gemm(&params);
    run_sweep(&flags, &lp, &spec, ("distributed sweep", "distribute"));
}

/// Hidden worker mode: serve protocol-v1 shards for the GEMM space over
/// stdin/stdout until `bye` or EOF. Spawned by `repro distribute`; all
/// diagnostics go to stderr (stdout carries frames only).
fn worker_mode(args: &[String], engine: EngineOptions) {
    let flags = Flags(args);
    let ordinal = |name: &str| flags.get(name).and_then(|s| s.parse().ok());
    let chaos =
        WorkerChaos { die_after: ordinal("--die-after"), stall_after: ordinal("--stall-after") };
    let (_, lp) = gemm(&flags.device(Some(32)).1);
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout();
    if let Err(e) = serve_worker(&lp, engine, FingerprintVisitor::default, &chaos, stdin, stdout) {
        eprintln!("worker error: {e}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// §VI: pruning funnel
// ---------------------------------------------------------------------------

fn funnel((label, params): &Device, engine: EngineOptions) {
    header(&format!("§VI — pruning funnel, GEMM space on {label} device"));
    let (plan, lp) = gemm(params);
    let out = Compiled::with_options(lp, engine).run(CountVisitor::default()).unwrap();
    outln!("{}", out.stats.render_funnel(plan.space()));
    if let Some(line) = out.blocks.render_line() {
        outln!("{line}");
    }
}

// ---------------------------------------------------------------------------
// Table I: application-level gains
// ---------------------------------------------------------------------------

fn table1() {
    header("Table I — performance levels achieved with the BEAST autotuner");
    outln!("(paper: GEMM 80% of peak; small batched up to 1000%; medium batched up to 300%)\n");

    // Row 1: GEMM — autotune the simulated Kepler kernel; report the best
    // configuration's fraction of the device's model peak.
    let params = GemmSpaceParams::reduced(64);
    let outcome = beast_gemm::tune_gemm(&params, 1, 2).unwrap();
    let best = outcome.best.first().expect("survivors exist");
    outln!(
        "GEMM (simulated Kepler dgemm_nn): best {:.0} GFLOP/s = {:.0}% of model peak ({:.0} GFLOP/s), {} survivors swept",
        best.perf.gflops,
        100.0 * best.perf.fraction_of_peak,
        outcome.peak_gflops,
        outcome.survivors
    );
    let err = beast_gemm::verify_config(&best.config, Transpose::default());
    outln!("  winning configuration numerically verified: max error {err:.2e}\n");

    // Rows 2–3: batched Cholesky, small and medium, on real CPU hardware.
    // Baseline: a general-purpose library-style kernel (blocked for large
    // matrices, one matrix at a time) applied as-is to the batch. Tuned:
    // the BEAST-autotuned strategy. Timing covers the factorization with
    // batch-resident data (layout conversion excluded, as the paper's GPU
    // numbers exclude PCIe transfer); see EXPERIMENTS.md.
    for (label, n, count) in [
        ("small", 16usize, 1024usize),
        ("small", 32, 512),
        ("medium", 128, 48),
        ("medium", 256, 12),
    ] {
        let (baseline, tuned, strategy) = tune_batched_cholesky(n, count);
        outln!(
            "Batched Cholesky ({label}, n={n} ×{count}): baseline {:>8.3} ms, tuned {:>8.3} ms → {:.0}% improvement  [{strategy}]",
            baseline * 1e3,
            tuned * 1e3,
            100.0 * (baseline / tuned - 1.0)
        );
    }
    outln!();

    // Row 4 (methodology demo): the CPU GEMM substrate tuned end-to-end.
    let (naive_s, tuned_s, params_str, n) = tune_cpu_gemm();
    let gf = gemm_flops(n, n, n) as f64 / 1e9;
    outln!(
        "CPU GEMM substrate (n={n}): naive {:.1} ms ({:.2} GF/s) → tuned {:.1} ms ({:.2} GF/s), {:.1}x  [{params_str}]",
        naive_s * 1e3,
        gf / naive_s,
        tuned_s * 1e3,
        gf / tuned_s,
        naive_s / tuned_s
    );
}

/// Autotune batched Cholesky for one size; returns (baseline s, tuned s,
/// winning strategy description).
fn tune_batched_cholesky(n: usize, count: usize) -> (f64, f64, String) {
    let mut rng = StdRng::seed_from_u64(7);
    let mats: Vec<Dense> = (0..count).map(|_| Dense::random_spd(n, &mut rng)).collect();
    let gemm = GemmParams::default_params();

    // Library-style baseline: blocked kernel configured for large matrices,
    // one matrix at a time.
    let baseline_params = BatchParams {
        strategy: BatchStrategy::PerMatrixBlocked { block: 64 },
        threads: 1,
        chunk: 1,
    };
    let baseline = best_of(3, || {
        let mut work = mats.clone();
        let t0 = Instant::now();
        batched_cholesky(&mut work, &baseline_params, &gemm).unwrap();
        t0.elapsed().as_secs_f64()
    });

    // BEAST-tuned: enumerate the strategy space, time each survivor.
    let space = batched_cholesky_space(n as i64, count as i64, 1).unwrap();
    let outcome = autotune(&space, 256, 2, |point| {
        let params = point_to_batch_params(point);
        match params.strategy {
            BatchStrategy::Interleaved { width } => {
                // Batch-resident layout: pack outside the timed region.
                let mut packs: Vec<InterleavedBatch> =
                    mats.chunks(width.max(1)).map(InterleavedBatch::pack).collect();
                let t0 = Instant::now();
                for p in &mut packs {
                    cholesky_interleaved(p).unwrap();
                }
                t0.elapsed()
            }
            _ => {
                let mut work = mats.clone();
                let t0 = Instant::now();
                batched_cholesky(&mut work, &params, &gemm).unwrap();
                t0.elapsed()
            }
        }
    })
    .unwrap();
    let best = outcome.best().expect("survivors");
    let tuned = best.duration.as_secs_f64();
    let strategy = format!("{:?}", point_to_batch_params(&best.point).strategy);
    (baseline, tuned, strategy)
}

/// Autotune the CPU GEMM blocking space; returns (naive s, tuned s, params,
/// n).
fn tune_cpu_gemm() -> (f64, f64, String, usize) {
    let n = 256;
    let mut rng = StdRng::seed_from_u64(11);
    let a = Dense::random(n, n, &mut rng);
    let b = Dense::random(n, n, &mut rng);

    let naive = best_of(2, || {
        let mut c = Dense::zeros(n, n);
        let t0 = Instant::now();
        naive_gemm(&a, &b, &mut c);
        t0.elapsed().as_secs_f64()
    });

    let space = cpu_gemm_space(CacheModel::typical()).unwrap();
    let outcome = autotune(&space, 64, 2, |point| {
        let params = point_to_gemm_params(point);
        let mut c = Dense::zeros(n, n);
        let t0 = Instant::now();
        blocked_gemm(&params, &a, &b, &mut c);
        t0.elapsed()
    })
    .unwrap();
    let best = outcome.best().expect("survivors");
    let params = point_to_gemm_params(&best.point);
    (
        naive,
        best.duration.as_secs_f64(),
        format!("{params:?}"),
        n,
    )
}

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------------------
// Reference [5]: the second model problem — batched Cholesky on the GPU model
// ---------------------------------------------------------------------------

fn batched(n: i64) {
    header(&format!(
        "ref [5] — batched Cholesky GPU space, n={n}, batch=1024, Tesla K40c model"
    ));
    use beast_gemm::{
        build_batched_cholesky_space, tune_batched_cholesky, BatchedCholeskyParams,
    };
    let params = BatchedCholeskyParams::small(n, 1024);
    let space = build_batched_cholesky_space(&params).unwrap();
    let (survivors, stats) = beast_engine::sweep::count(&space).unwrap();
    outln!(
        "{} iterators, {} constraints; {survivors} survivors, {:.1}% of evaluated tuples pruned",
        space.iters().len(),
        space.constraints().len(),
        100.0 * stats.pruned_fraction()
    );
    let best = tune_batched_cholesky(&params, 5).unwrap();
    outln!("top configurations (model matrices/µs):");
    for (score, config) in &best {
        outln!("  {score:>8.2}  {config:?}");
    }
}

// ---------------------------------------------------------------------------
// Visualization (paper companion work [7])
// ---------------------------------------------------------------------------

fn viz((label, params): &Device) {
    header(&format!("[7] — pruning visualizations, GEMM on {label} device"));
    let (plan, lp) = gemm(params);
    let space = plan.space();
    let out = Compiled::new(lp).run(CountVisitor::default()).unwrap();
    let funnel = beast_engine::viz::funnel_svg(&out.stats, space);
    let radial = beast_engine::viz::radial_svg(&out.stats, space);
    let dot = space.dag().to_dot(space.name());
    for (name, contents) in
        [("funnel.svg", funnel), ("radial.svg", radial), ("dag.dot", dot)]
    {
        std::fs::write(name, &contents).expect("write visualization");
        outln!("wrote {name} ({} bytes)", contents.len());
    }
}

// ---------------------------------------------------------------------------
// §XII extension: statistical search methods
// ---------------------------------------------------------------------------

fn search((label, params): &Device, sampler: beast_search::SamplerKind) {
    header(&format!(
        "§XII extension — statistical search vs exhaustive, GEMM on {label} device"
    ));
    outln!("sampler: {sampler:?}");
    use beast_engine::point::Point;
    use beast_gemm::point_to_config;
    use beast_gpu_sim::estimate;
    use beast_search::{hill_climb, random_search, simulated_annealing, SearchBudget};

    let (_, lp) = gemm(params);

    let t0 = Instant::now();
    let exhaustive = beast_gemm::tune_gemm(params, 1, 2).unwrap();
    let t_exh = t0.elapsed();
    let exhaustive_best = exhaustive.best[0].perf.gflops;

    let device = params.device.clone();
    let cc = params.cc();
    let precision = params.precision;
    let score = move |p: &Point| estimate(&device, &cc, &point_to_config(p), precision).gflops;

    let budget = SearchBudget { evaluations: 300, attempts_per_sample: 100_000, sampler };
    outln!(
        "{:<22} {:>12} {:>12} {:>14} {:>9}",
        "method", "evals", "seconds", "best GFLOP/s", "vs exh."
    );
    outln!(
        "{:<22} {:>12} {:>12.3} {:>14.1} {:>8.1}%",
        "exhaustive",
        exhaustive.survivors,
        t_exh.as_secs_f64(),
        exhaustive_best,
        100.0
    );
    let run = |name: &str, f: &dyn Fn() -> beast_search::SearchOutcome| {
        let t0 = Instant::now();
        let out = f();
        outln!(
            "{:<22} {:>12} {:>12.3} {:>14.1} {:>8.1}%",
            name,
            out.evaluations,
            t0.elapsed().as_secs_f64(),
            out.best_score(),
            100.0 * out.best_score() / exhaustive_best
        );
    };
    run("random search", &|| {
        random_search(&lp, StdRng::seed_from_u64(1), budget, score.clone()).unwrap()
    });
    run("hill climbing", &|| {
        hill_climb(&lp, StdRng::seed_from_u64(1), budget, 25, score.clone()).unwrap()
    });
    run("simulated annealing", &|| {
        simulated_annealing(
            &lp,
            StdRng::seed_from_u64(1),
            budget,
            exhaustive_best / 10.0,
            0.995,
            score.clone(),
        )
        .unwrap()
    });
}

// ---------------------------------------------------------------------------
// §X-B: multithreaded scaling
// ---------------------------------------------------------------------------

fn threads(
    (label, params): &Device,
    only: Option<usize>,
    json_path: Option<String>,
    engine: EngineOptions,
) {
    header(&format!("§X-B — multithreaded sweep of the GEMM space, {label} device"));
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    outln!("(host has {cores} hardware thread(s); scaling saturates there)");
    let (_, lp) = gemm(params);

    let counts: Vec<usize> = match only {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 4, 8],
    };
    let mut reports = Vec::new();
    let mut t1 = 0.0;
    for &threads in &counts {
        let spec = SweepSpec { engine, ..SweepSpec::new(threads) };
        let (out, report) = sweep(&lp, &spec, CountVisitor::default).unwrap();
        let dt = report.elapsed.as_secs_f64();
        if threads == counts[0] {
            t1 = dt; // speedups are relative to the first count run
        }
        outln!(
            "{threads:>2} thread(s): {dt:>8.3} s  speedup {:>5.2}x  imbalance {:>4.2}  \
             {} chunk(s) of {}  ({} survivors)",
            t1 / dt,
            report.imbalance(),
            report.chunks,
            report.chunk_len,
            out.visitor.count
        );
        reports.push(report);
    }
    if only.is_some() {
        // Single-count mode: print the full telemetry tables.
        outln!("\n{}", reports[0].render_text());
    }
    if let Some(path) = json_path {
        let json = match reports.as_slice() {
            [one] => one.to_json(),
            many => {
                let items: Vec<String> = many.iter().map(SweepReport::to_json).collect();
                format!("[{}]", items.join(","))
            }
        };
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("error: cannot write SweepReport JSON to {path}: {e}");
            std::process::exit(1);
        }
        outln!("\nwrote SweepReport JSON to {path}");
    }
}

// ---------------------------------------------------------------------------
// Sweep-as-a-service: the daemon and its smoke client
// ---------------------------------------------------------------------------

fn serve(args: &[String]) {
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let parsed = |name: &str, default: usize| -> usize {
        match flag(name) {
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("error: {name} needs an unsigned integer, got `{s}`");
                std::process::exit(2);
            }),
            None => default,
        }
    };
    let cfg = ServiceConfig {
        addr: flag("--addr").unwrap_or_else(|| "127.0.0.1:7411".to_string()),
        threads: parsed("--threads", 4).max(1),
        executors: parsed("--executors", 2).max(1),
        chunk_count: parsed("--chunks", 32).max(1),
        cache_path: flag("--cache").map(std::path::PathBuf::from),
    };
    let cache_note = match &cfg.cache_path {
        Some(p) => format!(", cache file {}", p.display()),
        None => ", in-memory cache".to_string(),
    };
    let service = SweepService::start(cfg, gemm_resolver()).unwrap_or_else(|e| {
        eprintln!("error: cannot start service: {e}");
        std::process::exit(1);
    });
    outln!(
        "repro serve: listening on http://{}{cache_note} (POST /shutdown to stop)",
        service.addr()
    );
    if let Err(e) = service.wait() {
        eprintln!("error: service shutdown: {e}");
        std::process::exit(1);
    }
    outln!("repro serve: stopped");
}

/// One HTTP/1.1 exchange against the daemon: send, read to EOF (the server
/// always closes), split off the body, de-chunk it if necessary.
fn http_call(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(|e| format!("send: {e}"))?;
    stream.write_all(body.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("receive: {e}"))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in: {raw:.60}"))?;
    let (headers, payload) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no body separator".to_string())?;
    let body = if headers.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        let mut out = String::new();
        let mut rest = payload;
        loop {
            let (size_line, tail) =
                rest.split_once("\r\n").ok_or_else(|| "truncated chunk size".to_string())?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| format!("bad chunk size `{size_line}`"))?;
            if size == 0 {
                break;
            }
            if tail.len() < size {
                return Err("truncated chunk body".to_string());
            }
            out.push_str(&tail[..size]);
            rest = tail[size..].strip_prefix("\r\n").unwrap_or(&tail[size..]);
        }
        out
    } else {
        payload.to_string()
    };
    Ok((status, body))
}

fn client(args: &[String]) {
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let has = |name: &str| args.iter().any(|a| a == name);
    let dim: i64 = args
        .get(1)
        .filter(|s| !s.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let addr = flag("--addr").unwrap_or_else(|| "127.0.0.1:7411".to_string());
    let runs: usize = flag("--runs").and_then(|s| s.parse().ok()).unwrap_or(2).max(1);
    let expect_speedup: Option<f64> = flag("--expect-speedup").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: --expect-speedup needs a number, got `{s}`");
            std::process::exit(2);
        })
    });
    let die = |msg: String| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(1);
    };

    header(&format!("sweep service smoke — gemm reduced({dim}) at http://{addr}"));
    let request = format!("{{\"space\":{{\"kind\":\"gemm\",\"reduced\":{dim}}},\"wait\":true}}");
    let mut fingerprints: Vec<String> = Vec::new();
    let mut elapsed: Vec<f64> = Vec::new();
    for run in 1..=runs {
        let (status, body) = http_call(&addr, "POST", "/sweeps", &request)
            .unwrap_or_else(|e| die(e));
        if status != 200 {
            die(format!("run {run}: HTTP {status}: {body}"));
        }
        let doc = JsonValue::parse(&body)
            .unwrap_or_else(|e| die(format!("run {run}: malformed response: {e}")));
        if doc.get("state").and_then(JsonValue::as_str) != Some("done") {
            die(format!("run {run}: sweep did not complete: {body}"));
        }
        let num = |key: &str| -> u64 {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .unwrap_or_else(|| die(format!("run {run}: response missing `{key}`")))
        };
        let secs = match doc.get("elapsed_s") {
            Some(JsonValue::Float(f)) => *f,
            Some(JsonValue::Int(i)) => *i as f64,
            _ => die(format!("run {run}: response missing `elapsed_s`")),
        };
        let fp = doc
            .get("fingerprint")
            .and_then(|f| f.get("hash"))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| die(format!("run {run}: response missing fingerprint")));
        outln!(
            "run {run}: survivors {}  elapsed {secs:.3} s  cache {} hit(s) / {} miss(es)  \
             fingerprint {fp:016x}",
            num("survivors"),
            num("cache_hits"),
            num("cache_misses"),
        );
        fingerprints.push(format!("{fp:016x}"));
        elapsed.push(secs.max(1e-9));
    }

    let (status, stats) = http_call(&addr, "GET", "/cache/stats", "").unwrap_or_else(|e| die(e));
    if status == 200 {
        outln!("cache stats: {stats}");
    }

    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("error: fingerprints differ across runs: {fingerprints:?}");
        std::process::exit(4);
    }
    outln!("fingerprints identical across {runs} run(s): {}", fingerprints[0]);
    if runs > 1 {
        let speedup = elapsed[0] / elapsed[runs - 1];
        outln!("warm speedup: {speedup:.1}x (cold {:.3} s, warm {:.3} s)", elapsed[0], elapsed[runs - 1]);
        if let Some(want) = expect_speedup {
            if speedup < want {
                eprintln!("error: warm speedup {speedup:.1}x below required {want}x");
                std::process::exit(5);
            }
        }
    }
    if has("--shutdown") {
        let (status, _) = http_call(&addr, "POST", "/shutdown", "").unwrap_or_else(|e| die(e));
        outln!("shutdown: HTTP {status}");
    }
}
